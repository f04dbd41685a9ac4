"""The three study workloads and the digests their outputs are checked by.

The workload bodies run inside a per-run child process (see
:mod:`perfbench.bench`), so each run starts from freshly imported
modules and builds its own :class:`~repro.websim.world.World`: a world's
page caches and RNG streams are run state, and reusing one world across
runs changes the resumed report.

The synthetic internet is a fixed corpus — :func:`world_config` — and
the benchmark seed drives the study's measurement randomness
(``StudyConfig.seed``: exit selection, jitter, sampling).  The amount
of work then barely moves between seeds, so run-to-run spread reflects
the program, not a differently sized world.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import pkgutil
import time
from typing import Callable, Dict, Optional

import numpy as np

WORKLOADS = ("top10k-serial", "studies-process", "suite-resume")

#: Domains in the benchmark world: the tiny world's 28 countries over a
#: sixth of its population.  Each study run then takes 1.3-2.5 s on a
#: 2-vCPU 2.1 GHz Xeon VM, so one 30 s invocation times 10-20 runs and
#: the fastest of them rarely falls in one of a shared host's slow
#: spells.  Smaller cuts stop exercising the study: at 150 domains the
#: Top-10K study confirms no geoblocked pair; at 200 it confirms 16.
WORLD_DOMAINS = 200

#: Seed of the fixed world corpus (the repository's test-world seed).
WORLD_SEED = 7


def preload() -> None:
    """Import every program module the workloads can reach.

    Called once in the parent, before any run is forked: imports then
    cost nothing inside ``setup_s``/``run_s``, and the traced run's
    wrappers see every module that binds a layer function by name (a
    module first imported under the wrappers would keep a wrapper after
    they are removed).  ``repro.lint`` is static tooling no study runs.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.startswith("repro.lint"):
            importlib.import_module(info.name)


def world_config(scale: str = "bench"):
    """The benchmark world (``"nano"`` is the self-test's small world)."""
    from repro.websim.world import WorldConfig

    if scale == "nano":
        return WorldConfig.nano(seed=WORLD_SEED)
    return dataclasses.replace(WorldConfig.tiny(seed=WORLD_SEED),
                               size=WORLD_DOMAINS)


def pool_workers() -> int:
    """Process-pool width of ``studies-process``: min(2, cpus)."""
    return min(2, os.cpu_count() or 1)


def build_world(scale: str):
    """A fresh world and the seconds its construction took."""
    from repro.websim.world import World

    config = world_config(scale)
    started = time.perf_counter()
    world = World(config)
    return world, time.perf_counter() - started


# ---------------------------------------------------------------------- #
# Output digests


def _dataset_digest(dataset) -> str:
    cols = dataset.export_columns()
    digest = hashlib.sha256()
    for array in (cols.dcodes, cols.ccodes, cols.statuses, cols.lengths,
                  cols.ecodes):
        digest.update(np.ascontiguousarray(array[:cols.n]).tobytes())
    digest.update(json.dumps(
        [list(cols.domain_names), list(cols.country_names),
         list(cols.error_names), sorted(cols.bodies.items()),
         sorted(cols.interfered)], separators=(",", ":")).encode("utf-8"))
    return digest.hexdigest()


def result_digest(result) -> str:
    """SHA-256 over every field of a study result except its timings.

    Datasets hash their columns; every other field hashes its checkpoint
    encoding, the same canonical form resume relies on.
    """
    from repro.lumscan.records import ScanDataset, SegmentedScanDataset
    from repro.run.codecs import encode_artifact

    parts = {}
    for field in dataclasses.fields(result):
        if field.name == "stage_stats":
            continue
        value = getattr(result, field.name)
        if isinstance(value, (ScanDataset, SegmentedScanDataset)):
            parts[field.name] = _dataset_digest(value)
        else:
            parts[field.name] = encode_artifact(value)
    canonical = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stage_seconds(study: str, stats) -> Dict[str, float]:
    return {f"stage.{study}.{s.stage}.s": s.seconds for s in stats}


# ---------------------------------------------------------------------- #
# Workload bodies: (world, seed, checkpoint dir) -> (output, stage times)


def top10k_serial(world, seed: int, checkpoint_dir: Optional[str]):
    """§4 study, inline (workers=1), no checkpoints."""
    from repro.core.pipeline import StudyConfig, run_top10k_study

    result = run_top10k_study(world, config=StudyConfig(seed=seed))
    return result, _stage_seconds("top10k", result.stage_stats)


def studies(world, seed: int, checkpoint_dir: Optional[str],
            executor: str = "process"):
    """§4 then §5 (inheriting §4's registry); checkpointed given a dir."""
    from repro.core.pipeline import (StudyConfig, run_top10k_study,
                                     run_top1m_study)

    workers = pool_workers() if executor == "process" else 1
    config = StudyConfig(seed=seed, workers=workers, executor=executor)
    top10k = run_top10k_study(world, config=config,
                              checkpoint_dir=checkpoint_dir)
    top1m = run_top1m_study(world, config=config, registry=top10k.registry,
                            checkpoint_dir=checkpoint_dir)
    stages = _stage_seconds("top10k", top10k.stage_stats)
    stages.update(_stage_seconds("top1m", top1m.stage_stats))
    return (top10k, top1m), stages


def suite(world, seed: int, checkpoint_dir: Optional[str],
          resume: bool = True):
    """The whole experiment suite over ``checkpoint_dir``."""
    from repro.analysis.experiments import ExperimentSuite
    from repro.core.pipeline import StudyConfig

    runner = ExperimentSuite(world, study_config=StudyConfig(seed=seed),
                             checkpoint_dir=checkpoint_dir, resume=resume)
    report = runner.run()
    stages = _stage_seconds("top10k", runner.top10k.stage_stats)
    stages.update(_stage_seconds("top1m", runner.top1m.stage_stats))
    return report, stages


def digest_of(workload: str, output) -> str:
    """The digest a workload's output is compared by."""
    if workload == "suite-resume":
        return text_digest(output.to_markdown())
    if workload == "top10k-serial":
        return result_digest(output)
    top10k, top1m = output
    return text_digest(result_digest(top10k) + result_digest(top1m))


#: Timed body of each workload.
BODIES: Dict[str, Callable] = {
    "top10k-serial": top10k_serial,
    "studies-process": studies,
    "suite-resume": suite,
}


def reference(workload: str, world, seed: int,
              checkpoint_dir: Optional[str]):
    """Output of the untimed run a workload's runs must match.

    ``studies-process`` is checked against the serial studies (the
    engine's byte-identity contract); ``suite-resume`` against a fresh
    serial suite, which also fills the checkpoints the runs resume from.
    ``top10k-serial`` has no reference run: its digest is pinned or
    taken from its first run (see ``bench.run_workload``).
    """
    if workload == "studies-process":
        return studies(world, seed, None, executor="thread")[0]
    if workload == "suite-resume":
        return suite(world, seed, checkpoint_dir, resume=False)[0]
    raise ValueError(f"{workload} has no reference run")
