"""Session-scoped study artifacts shared by all benchmarks.

Each benchmark regenerates one paper artifact (table/figure) and asserts
its *shape* against the paper, so the benchmark suite doubles as the
reproduction harness.  The expensive scans run once per session; the
benchmarked callables are the artifact-regeneration steps.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import (
    build_observation_pools,
    run_top10k_study,
    run_top1m_study,
)
from repro.datasets.cloudflare_rules import CloudflareRuleDataset
from repro.datasets.fortiguard import FortiGuardClient
from repro.lumscan.scanner import Lumscan
from repro.proxynet.luminati import LuminatiClient
from repro.websim.world import World, WorldConfig


@pytest.fixture(scope="session")
def world() -> World:
    return World(WorldConfig.tiny())


@pytest.fixture(scope="session")
def top10k(world):
    return run_top10k_study(world)


@pytest.fixture(scope="session")
def top1m(world, top10k):
    return run_top1m_study(world, registry=top10k.registry)


@pytest.fixture(scope="session")
def fortiguard(world):
    return FortiGuardClient(world.population, world.taxonomy,
                            seed=world.config.seed)


@pytest.fixture(scope="session")
def pools(world, top10k):
    pairs = [(c.domain, c.country) for c in top10k.confirmed][:20]
    scanner = Lumscan(LuminatiClient(world), seed=1)
    return build_observation_pools(world, scanner, pairs, top10k.registry,
                                   samples=100)


@pytest.fixture(scope="session")
def cf_rules():
    return CloudflareRuleDataset.generate(n_zones=80_000, seed=7)
