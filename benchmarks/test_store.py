"""Storage benchmark: LSHD mmap checkpoints vs gzip-JSONL parse loads.

The unified columnar store exists for one reason: reopening a checkpoint
should not cost a row-by-row JSON parse.  A synthetic 120k-row scan (the
same paper-shaped corpus the columnar-kernel benchmark uses) is written
through both codecs and read back:

* **Load**: ``load_dataset`` on an LSHD segment maps the column buffers
  zero-copy — O(columns + code tables), independent of row count — and
  must come back at least 5x faster than parsing the gzip-JSONL form of
  the same records.
* **Save**: ``write_segment_file`` streams raw buffers; the comparison
  against the JSONL writer is recorded for the trajectory (the win here
  is expected but not gated — the load path is the contract).

A first-access sweep over the mapped columns is folded into the timed
load so lazily-faulted pages cannot flatter the mmap number.  Timings
land in ``BENCH_store.json`` at the repo root so CI keeps a trajectory
across commits and gates on the load speedup.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from bench_util import best_of as _time, write_trajectory
from repro.lumscan.serialize import dump_dataset, load_dataset
from repro.lumscan.shards import write_segment_file

from test_columnar import _synthetic_dataset

ROWS = 120_000
MIN_LOAD_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """One 120k-row dataset checkpointed through both codecs."""
    root = tmp_path_factory.mktemp("store-bench")
    dataset = _synthetic_dataset(rows=ROWS)
    jsonl_path = str(root / "scan.jsonl.gz")
    lshd_path = str(root / "scan.lshd")
    jsonl_save_s = _time(lambda: dump_dataset(dataset, jsonl_path), repeat=1)
    lshd_save_s = _time(
        lambda: write_segment_file(dataset.export_columns(), lshd_path),
        repeat=1)
    return dataset, jsonl_path, lshd_path, jsonl_save_s, lshd_save_s


def _touch_all_columns(data):
    """Force every mapped page in: checksums over all five columns."""
    cols = data.export_columns()
    return (int(cols.dcodes.sum()), int(cols.ccodes.sum()),
            int(cols.statuses.sum()), int(cols.lengths.sum()),
            int(cols.ecodes.sum()))


def test_mmap_load_speedup(checkpoints):
    dataset, jsonl_path, lshd_path, jsonl_save_s, lshd_save_s = checkpoints

    def load_jsonl():
        return load_dataset(jsonl_path)

    def load_lshd():
        data = load_dataset(lshd_path)
        _touch_all_columns(data)
        return data

    # Correctness first: both loads reproduce the same records.
    parsed = load_jsonl()
    mapped = load_lshd()
    assert mapped.is_mapped
    assert len(parsed) == len(mapped) == len(dataset)
    spot_rows = (0, len(dataset) // 2, len(dataset) - 1)
    for i in spot_rows:
        assert parsed.row(i) == mapped.row(i) == dataset.row(i)
    assert _touch_all_columns(mapped) == _touch_all_columns(parsed)
    mapped.close()

    jsonl_load_s = _time(load_jsonl)
    lshd_load_s = _time(lambda: load_lshd().close())
    speedup = jsonl_load_s / lshd_load_s
    print(f"\nstore load ({len(dataset):,} rows): "
          f"gzip-jsonl {jsonl_load_s:.3f}s, "
          f"lshd-mmap {lshd_load_s:.4f}s, speedup {speedup:.1f}x")
    write_trajectory("store", "load", {
        "rows": len(dataset),
        "jsonl_gz_s": round(jsonl_load_s, 4),
        "lshd_mmap_s": round(lshd_load_s, 4),
        "speedup": round(speedup, 1),
    })
    assert speedup >= MIN_LOAD_SPEEDUP, (
        f"mmap load only {speedup:.1f}x faster "
        f"({jsonl_load_s:.3f}s jsonl.gz vs {lshd_load_s:.4f}s lshd)")


def test_save_comparison(checkpoints):
    dataset, jsonl_path, lshd_path, jsonl_save_s, lshd_save_s = checkpoints
    jsonl_bytes = Path(jsonl_path).stat().st_size
    lshd_bytes = Path(lshd_path).stat().st_size
    speedup = jsonl_save_s / lshd_save_s
    print(f"\nstore save ({len(dataset):,} rows): "
          f"gzip-jsonl {jsonl_save_s:.3f}s/{jsonl_bytes:,}B, "
          f"lshd {lshd_save_s:.3f}s/{lshd_bytes:,}B, "
          f"speedup {speedup:.1f}x")
    write_trajectory("store", "save", {
        "rows": len(dataset),
        "jsonl_gz_s": round(jsonl_save_s, 4),
        "jsonl_gz_bytes": jsonl_bytes,
        "lshd_s": round(lshd_save_s, 4),
        "lshd_bytes": lshd_bytes,
        "speedup": round(speedup, 1),
    })
    # Not gated as hard as the load path, but the columnar writer should
    # never be slower than serializing every row through json+gzip.
    assert lshd_save_s <= jsonl_save_s
