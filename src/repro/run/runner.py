"""StudyRunner: ordered stage execution with checkpoint skip-and-load.

The runner walks a study's stage list in order.  For each stage it either

* **loads** the stage's artifacts from a complete, fingerprint-matching
  checkpoint (``resume=True`` and the store has one), or
* **executes** the stage function and, when a store is attached,
  checkpoints the declared outputs before moving on.

Either way the artifacts land in ``context.artifacts`` for downstream
stages, and a :class:`~repro.run.stage.StageStats` entry (wall-time,
probes issued, cache hit, dataset rows) is appended to ``context.stats``
and logged.  Because probe outcomes are pure functions of task identity
(the :class:`~repro.lumscan.engine.ScanEngine` contract), a resumed run
is bit-identical to a fresh one — skipped stages contribute exactly the
artifacts they would have recomputed.
"""

from __future__ import annotations

import logging
from typing import Dict, Optional, Sequence

from repro.lumscan.engine import WorkerInitStats
from repro.lumscan.records import ScanDataset
from repro.run.artifacts import ArtifactStore
from repro.run.stage import RunContext, Stage, StageStats
from repro.util.clock import SYSTEM_CLOCK, Clock

logger = logging.getLogger("repro.run")


class StudyRunner:
    """Executes one study's stage graph over a :class:`RunContext`."""

    def __init__(self, study: str, stages: Sequence[Stage],
                 store: Optional[ArtifactStore] = None,
                 resume: bool = False,
                 clock: Optional[Clock] = None) -> None:
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in {names}")
        self._study = study
        self._stages = list(stages)
        self._store = store
        self._resume = resume and store is not None
        self._clock = clock if clock is not None else SYSTEM_CLOCK

    @property
    def stages(self) -> Sequence[Stage]:
        return tuple(self._stages)

    def run(self, context: RunContext) -> RunContext:
        """Run every stage in order, skipping complete checkpoints."""
        for stage in self._stages:
            stopwatch = self._clock.stopwatch()
            probes_before = context.probes_issued()
            init_before = self._worker_init_snapshot(context)
            manifest = self._store.manifest(stage) if self._resume else None
            if manifest is not None:
                outputs = self._store.load_stage(stage, manifest)
                cache_hit = True
            else:
                outputs = stage.run(context)
                missing = set(stage.output_names()) - set(outputs)
                if missing:
                    raise RuntimeError(
                        f"stage {stage.name!r} did not produce declared "
                        f"artifacts: {sorted(missing)}")
                cache_hit = False
            seconds = stopwatch.elapsed()
            probes = context.probes_issued() - probes_before
            if self._store is not None and not cache_hit:
                self._store.save_stage(stage, outputs,
                                       probes=probes, seconds=seconds)
            context.artifacts.update(outputs)
            init_after = self._worker_init_snapshot(context)
            stats = StageStats(
                stage=stage.name,
                seconds=seconds,
                probes=probes,
                cache_hit=cache_hit,
                artifacts=len(stage.outputs),
                records=sum(len(value) for value in outputs.values()
                            if isinstance(value, ScanDataset)),
                workers_spawned=init_after.spawned - init_before.spawned,
                worker_spawn_seconds=(init_after.spawn_seconds
                                      - init_before.spawn_seconds),
                world_build_seconds=(init_after.build_seconds
                                     - init_before.build_seconds),
                worker_pack_loads=(init_after.pack_loads
                                   - init_before.pack_loads),
                worker_page_lengths=(init_after.page_lengths
                                     - init_before.page_lengths),
                freeze_failures=(init_after.freeze_failures
                                 - init_before.freeze_failures),
            )
            context.stats.append(stats)
            if stats.workers_spawned or stats.worker_page_lengths \
                    or stats.freeze_failures:
                logger.info(
                    "%s/%s: %s in %.2fs (probes=%d, records=%d, "
                    "workers=%d, spawn=%.2fs, world=%.2fs, pack_loads=%d, "
                    "page_lengths=%d, freeze_failures=%d)",
                    self._study, stage.name,
                    "checkpoint hit" if cache_hit else "executed",
                    seconds, probes, stats.records,
                    stats.workers_spawned, stats.worker_spawn_seconds,
                    stats.world_build_seconds, stats.worker_pack_loads,
                    stats.worker_page_lengths, stats.freeze_failures)
            else:
                logger.info(
                    "%s/%s: %s in %.2fs (probes=%d, records=%d)",
                    self._study, stage.name,
                    "checkpoint hit" if cache_hit else "executed",
                    seconds, probes, stats.records)
        return context

    @staticmethod
    def _worker_init_snapshot(context: RunContext) -> WorkerInitStats:
        """The scanner's worker-pool totals so far, or all zeros.

        Scanners without worker processes (plain :class:`Lumscan`, test
        doubles) simply lack ``worker_init_stats`` and report all-zero
        deltas, so the stage log line stays in its compact form for them.
        """
        source = getattr(context.scanner, "worker_init_stats", None)
        stats = source() if source is not None else None
        return stats if stats is not None else WorkerInitStats()

    def stats_by_stage(self, context: RunContext) -> Dict[str, StageStats]:
        """The context's stats keyed by stage name (convenience)."""
        return {stats.stage: stats for stats in context.stats}
