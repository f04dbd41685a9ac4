"""Segment benchmark: O(new rows) manifest append vs full rewrite.

The ``.lshm`` manifest layer exists so that checkpointing a logical
dataset that grew by one rescan does not re-serialize history.  A
synthetic 120k-row scan (the paper-shaped corpus the other storage
benchmarks use) is checkpointed as a manifest; a 10k-row rescan is then
added two ways:

* **Append** (:func:`repro.lumscan.shards.append_segment`) — writes one
  10k-row segment and atomically replaces the (tiny) manifest.  Prior
  segments are never opened for writing.
* **Full rewrite** (:func:`repro.lumscan.shards.write_segment_file`) —
  the pre-manifest behavior: re-serialize all 130k merged rows into a
  fresh segment.

Append must come in at least 5x faster.  Compaction is also timed (not
gated) and its output asserted byte-identical to the sequential writer —
the manifest's correctness contract.  Timings land in
``BENCH_segments.json`` at the repo root so CI keeps a trajectory across
commits and re-gates the recorded speedup.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from bench_util import best_of, write_trajectory
from repro.lumscan.serialize import load_dataset
from repro.lumscan.shards import append_segment, compact_manifest, \
    read_manifest, write_segment_file

from test_columnar import _synthetic_dataset

BASE_ROWS = 120_000
NEW_ROWS = 10_000
MIN_APPEND_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def corpus():
    """(120k-row base dataset, 10k-row rescan, 130k-row merged)."""
    base = _synthetic_dataset(rows=BASE_ROWS)
    rescan = _synthetic_dataset(rows=NEW_ROWS, seed=23)
    merged = _synthetic_dataset(rows=BASE_ROWS)
    merged.extend(rescan)
    return base, rescan, merged


def test_append_speedup_over_full_rewrite(corpus, tmp_path):
    base, rescan, merged = corpus
    new_columns = rescan.export_columns()

    def fresh_manifest(name):
        manifest = str(tmp_path / f"{name}.lshm")
        append_segment(manifest, base.export_columns())
        return manifest

    # Correctness first: the appended manifest reads back as the merge.
    manifest = fresh_manifest("check")
    append_segment(manifest, new_columns)
    logical = load_dataset(manifest)
    assert len(logical) == len(merged)
    for i in (0, BASE_ROWS - 1, BASE_ROWS, len(merged) - 1):
        assert logical.row(i) == merged.row(i)
    logical.close()

    # Each append round gets its own manifest so every measurement does
    # the same work: one new segment plus one manifest replace.
    manifests = iter([fresh_manifest(f"bench{i}") for i in range(3)])
    append_s = best_of(lambda: append_segment(next(manifests), new_columns))
    rewrite_s = best_of(
        lambda: write_segment_file(merged.export_columns(),
                                   str(tmp_path / "rewrite.lshd")))

    speedup = rewrite_s / append_s
    print(f"\nsegment append ({BASE_ROWS:,}+{NEW_ROWS:,} rows): "
          f"full rewrite {rewrite_s:.3f}s, append {append_s:.4f}s, "
          f"speedup {speedup:.1f}x")
    write_trajectory("segments", "append", {
        "base_rows": BASE_ROWS,
        "new_rows": NEW_ROWS,
        "full_rewrite_s": round(rewrite_s, 4),
        "append_s": round(append_s, 4),
        "speedup": round(speedup, 1),
    })
    assert speedup >= MIN_APPEND_SPEEDUP, (
        f"append only {speedup:.1f}x faster than a full rewrite "
        f"({rewrite_s:.3f}s rewrite vs {append_s:.4f}s append)")


def test_compaction_byte_identity_and_timing(corpus, tmp_path):
    base, rescan, merged = corpus
    manifest = str(tmp_path / "compact.lshm")
    append_segment(manifest, base.export_columns())
    append_segment(manifest, rescan.export_columns())

    compact_s = best_of(lambda: compact_manifest(manifest), repeat=1)
    compacted = read_manifest(manifest)
    assert len(compacted.entries) == 1

    sequential = str(tmp_path / "sequential.lshd")
    sequential_s = best_of(
        lambda: write_segment_file(merged.export_columns(), sequential),
        repeat=1)
    segment = Path(compacted.segment_paths()[0])
    assert segment.read_bytes() == Path(sequential).read_bytes()

    print(f"\nsegment compact ({len(merged):,} rows): "
          f"compact {compact_s:.3f}s, sequential write {sequential_s:.3f}s, "
          f"output byte-identical")
    write_trajectory("segments", "compact", {
        "rows": len(merged),
        "compact_s": round(compact_s, 4),
        "sequential_write_s": round(sequential_s, 4),
        "byte_identical": True,
    })
