"""Session-scoped study artifacts shared by the throughput benchmarks.

The paper's shape claims are not checked here: claims about a finding
are rows of :data:`repro.analysis.validation.CLAIMS`, and the table,
figure and ablation shapes are tier-1 tests in
``tests/test_analysis_tables.py``, ``tests/test_analysis_figures.py``
and ``tests/test_study_shapes.py``.  The expensive scan runs once per
session; the benchmarked callables are the steps timed over it.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import run_top10k_study
from repro.websim.world import World, WorldConfig


@pytest.fixture(scope="session")
def world() -> World:
    return World(WorldConfig.tiny())


@pytest.fixture(scope="session")
def top10k(world):
    return run_top10k_study(world)
