"""World freeze/load benchmark: pack-mapped workers vs rebuild-from-spec.

The frozen-world layer exists for one number: how fast a process-pool
worker comes up.  A worker given only a :class:`ScannerSpec` rebuilds the
whole world from its config — at the default study scale (60,000 domains)
that is seconds of CPU per worker, paid again at every pool width.  A
worker handed a frozen worldpack maps the parent's immutable state
zero-copy and must initialize **at least 5x faster**; that floor is the
gate this file enforces and CI re-checks against ``BENCH_world.json``.

Both paths are measured in a fresh child process (see
``bench_util.measure_child``) so the numbers are the worker's-eye view:
wall-clock of ``spec.build()`` plus the child's resident-set growth,
which is where the N-copies-of-the-world memory cost shows up.
"""

from __future__ import annotations

from bench_util import measure_child, write_trajectory
from repro.lumscan.scanner import Lumscan
from repro.proxynet.luminati import LuminatiClient
from repro.util.clock import SYSTEM_CLOCK
from repro.websim.world import World, WorldConfig

WORLD_SEED = 7
SCAN_SEED = 9
MIN_PACK_SPEEDUP = 5.0
REBUILD_REPEATS = 2
PACK_REPEATS = 3


def _best(spec_build, repeats):
    """Best-of-``repeats`` child measurements of one spec's build()."""
    best = None
    for _ in range(repeats):
        probe = measure_child(spec_build)
        if best is None or probe["seconds"] < best["seconds"]:
            best = probe
    return best


def test_pack_worker_init_speedup():
    stopwatch = SYSTEM_CLOCK.stopwatch()
    world = World(WorldConfig(seed=WORLD_SEED))
    parent_build_seconds = stopwatch.elapsed()
    scanner = Lumscan(LuminatiClient(world), seed=SCAN_SEED)

    stopwatch = SYSTEM_CLOCK.stopwatch()
    pack = scanner.freeze_world_pack()
    freeze_seconds = stopwatch.elapsed()
    try:
        rebuild = _best(scanner.spawn_spec().build, REBUILD_REPEATS)
        mapped = _best(scanner.spawn_spec(world_source=pack.handle).build,
                       PACK_REPEATS)
        pack_kind = pack.handle.kind
        pack_nbytes = pack.handle.nbytes
    finally:
        pack.release()

    speedup = rebuild["seconds"] / mapped["seconds"]
    print(f"\nworldpack ({len(world.population)} domains): "
          f"parent build {parent_build_seconds:.2f}s, "
          f"freeze {freeze_seconds:.2f}s ({pack_nbytes / 1e6:.1f} MB, "
          f"{pack_kind}), worker rebuild {rebuild['seconds']:.2f}s "
          f"(+{rebuild['rss_delta_bytes'] / 1e6:.0f} MB rss), "
          f"worker pack load {mapped['seconds']:.2f}s "
          f"(+{mapped['rss_delta_bytes'] / 1e6:.0f} MB rss), "
          f"speedup {speedup:.1f}x")
    write_trajectory("world", "worker_init", {
        "world_size": len(world.population),
        "parent_build_seconds": round(parent_build_seconds, 3),
        "freeze_seconds": round(freeze_seconds, 3),
        "pack_kind": pack_kind,
        "pack_nbytes": pack_nbytes,
        "rebuild_seconds": round(rebuild["seconds"], 3),
        "rebuild_worker_rss_bytes": rebuild["rss_bytes"],
        "rebuild_worker_rss_delta_bytes": rebuild["rss_delta_bytes"],
        "pack_load_seconds": round(mapped["seconds"], 3),
        "pack_worker_rss_bytes": mapped["rss_bytes"],
        "pack_worker_rss_delta_bytes": mapped["rss_delta_bytes"],
        "speedup": round(speedup, 2),
    })
    assert speedup >= MIN_PACK_SPEEDUP, (
        f"pack-mapped worker init should be >= {MIN_PACK_SPEEDUP}x faster "
        f"than rebuild-from-spec, got {speedup:.1f}x "
        f"({rebuild['seconds']:.2f}s vs {mapped['seconds']:.2f}s)")


def test_freeze_is_cheaper_than_one_rebuild():
    """Freezing must amortize immediately: freeze < one worker rebuild.

    The 5x gate above covers the per-worker win; this one covers the
    parent's up-front cost, which must be recouped by the *first* worker
    for ``world_source="auto"`` to be a safe default at any pool width.
    A small world keeps this check cheap — the freeze cost is dominated
    by per-domain encoding, so the ratio transfers to larger scales.
    """
    world = World(WorldConfig.small(seed=WORLD_SEED))
    scanner = Lumscan(LuminatiClient(world), seed=SCAN_SEED)
    stopwatch = SYSTEM_CLOCK.stopwatch()
    pack = scanner.freeze_world_pack()
    freeze_seconds = stopwatch.elapsed()
    try:
        rebuild = _best(scanner.spawn_spec().build, 1)
    finally:
        pack.release()
    print(f"\nfreeze (small): {freeze_seconds:.2f}s vs one worker rebuild "
          f"{rebuild['seconds']:.2f}s")
    write_trajectory("world", "freeze_amortization", {
        "world_size": len(world.population),
        "freeze_seconds": round(freeze_seconds, 3),
        "rebuild_seconds": round(rebuild["seconds"], 3),
    })
    assert freeze_seconds < rebuild["seconds"], (
        f"freezing ({freeze_seconds:.2f}s) should cost less than one "
        f"worker rebuild ({rebuild['seconds']:.2f}s)")
