"""Stage, RunContext, and per-stage instrumentation records.

A :class:`Stage` is a named phase of a study with *declared* outputs: the
function receives the :class:`RunContext`, reads earlier stages' artifacts
from ``context.artifacts``, and returns a dict holding exactly the
artifacts it declared.  Declaring outputs (name + kind) up front is what
lets the runner checkpoint them without knowing anything about the study,
and lets a resumed run load them back without executing the stage.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Artifact kinds understood by the store.
KIND_DATASET = "dataset"     # ScanDataset -> one LSHD segment
KIND_JSON = "json"           # derived values -> versioned, tagged JSON


def is_bare_file_name(name) -> bool:
    """True for a plain file name: no directory part, not ``.``/``..``.

    Everything a stage manifest names may be read, mapped or unlinked
    on its behalf, so names must stay in the study directory.
    """
    return (isinstance(name, str) and name not in ("", ".", "..")
            and os.path.basename(name) == name and "\0" not in name)


@dataclass(frozen=True)
class ArtifactSpec:
    """One declared stage output.

    The name becomes part of a file name, ``<stage>.<name>.<suffix>``, so
    it must be a bare file name, and neither ``manifest`` nor end in
    ``.manifest``: its JSON file would be a stage manifest's path.
    """

    name: str
    kind: str = KIND_JSON

    def __post_init__(self) -> None:
        if self.kind not in (KIND_DATASET, KIND_JSON):
            raise ValueError(f"unknown artifact kind {self.kind!r}")
        if (not is_bare_file_name(self.name)
                or f".{self.name}".endswith(".manifest")):
            raise ValueError(f"bad artifact name {self.name!r}")


@dataclass(frozen=True)
class Stage:
    """One named study phase with declared output artifacts.

    ``salt`` names inputs only this stage reads that the study config
    does not hold (the suite's pool sizes, say); the store folds it into
    this stage's checkpoint fingerprint alone, so changing such an input
    re-executes just the stages that read it.

    The name starts every file name the stage writes, so it must be a
    bare file name.
    """

    name: str
    outputs: Tuple[ArtifactSpec, ...]
    run: Callable[["RunContext"], Dict[str, object]]
    salt: str = ""

    def __post_init__(self) -> None:
        if not is_bare_file_name(self.name):
            raise ValueError(f"bad stage name {self.name!r}")

    def output_names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.outputs)


@dataclass
class StageStats:
    """Wall-time / probe-count / cache-hit counters for one stage run."""

    stage: str
    seconds: float = 0.0
    probes: int = 0              # probes issued while the stage executed
    cache_hit: bool = False      # True when loaded from a checkpoint
    artifacts: int = 0           # number of artifacts produced/loaded
    records: int = 0             # total ScanDataset rows produced/loaded
    workers_spawned: int = 0     # worker processes initialized this stage
    worker_spawn_seconds: float = 0.0   # summed worker initializer time
    world_build_seconds: float = 0.0    # world rebuild/pack-load portion
    worker_pack_loads: int = 0   # workers that mapped a frozen worldpack
    worker_page_lengths: int = 0   # base-page lengths workers computed
    freeze_failures: int = 0     # pools whose world could not be frozen

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for logs and the experiment report."""
        return {
            "stage": self.stage,
            "seconds": round(self.seconds, 3),
            "probes": self.probes,
            "cache_hit": self.cache_hit,
            "artifacts": self.artifacts,
            "records": self.records,
            "workers_spawned": self.workers_spawned,
            "worker_spawn_seconds": round(self.worker_spawn_seconds, 3),
            "world_build_seconds": round(self.world_build_seconds, 3),
            "worker_pack_loads": self.worker_pack_loads,
            "worker_page_lengths": self.worker_page_lengths,
            "freeze_failures": self.freeze_failures,
        }


@dataclass
class RunContext:
    """Shared state threaded through a study's stages.

    ``scanner`` satisfies the :class:`repro.lumscan.base.Scanner` protocol
    (a :class:`~repro.lumscan.scanner.Lumscan` or the parallel
    :class:`~repro.lumscan.engine.ScanEngine`).  ``extras`` carries study
    inputs that are not artifacts (clients, catalogs); ``artifacts``
    accumulates every completed stage's outputs; ``stats`` records one
    entry per executed (or checkpoint-loaded) stage.
    """

    world: object
    config: object
    scanner: object = None
    extras: Dict[str, object] = field(default_factory=dict)
    artifacts: Dict[str, object] = field(default_factory=dict)
    stats: List[StageStats] = field(default_factory=list)
    probe_counter: Optional[Callable[[], int]] = None

    def artifact(self, name: str) -> object:
        """A completed stage's output (raises KeyError when absent)."""
        try:
            return self.artifacts[name]
        except KeyError:
            raise KeyError(
                f"artifact {name!r} not produced yet; completed artifacts: "
                f"{sorted(self.artifacts)}") from None

    def probes_issued(self) -> int:
        """Current probe count (0 when no counter is wired)."""
        return self.probe_counter() if self.probe_counter is not None else 0
