"""Lifetime safety of mmap-backed datasets and checkpoint determinism.

Mapped datasets hand out zero-copy numpy views over a file mapping, so
the dangerous states are all about *who outlives whom*: a view kept
after the dataset closes, a store invalidating (unlinking) a segment a
reader still has mapped, a mapped dataset crossing a pickle boundary.
These tests pin the contract: views stay readable, ``close()`` reports
honestly whether the mapping was released, and POSIX unlink semantics
keep open mappings valid.  The last class re-runs the LSHD checkpoint
writer under different ``PYTHONHASHSEED`` values and asserts
byte-identical segments — the codec equivalent of the repro.lint
iteration-order rules.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

from repro.lumscan import shards
from repro.lumscan.records import ScanDataset
from repro.lumscan.serialize import load_dataset
from repro.lumscan.shards import (
    SpillDatasetBuilder,
    encode_shard,
    write_segment_file,
)
from repro.run.artifacts import ArtifactStore
from repro.run.stage import ArtifactSpec, KIND_DATASET, Stage
from repro.util.envelope import (
    KIND_SHM,
    MAGIC_LSHD,
    SegmentMapping,
    disown,
    ledger,
    publish,
    release,
    shm_available,
)
from tests.conftest import unreferenced_segments


def _dataset() -> ScanDataset:
    data = ScanDataset()
    data.append("a.com", "US", 200, 9_000, None)
    data.append("a.com", "IR", 403, 480, "<html>block</html>")
    data.append("b.com", "SY", -1, 0, None, error="timeout")
    data.append("c.com", "US", 403, 50, "fw", interfered=True)
    return data


def _mapped(tmp_path, name="scan.lshd") -> ScanDataset:
    path = tmp_path / name
    write_segment_file(_dataset().export_columns(), str(path))
    return load_dataset(path)


class TestCloseSemantics:
    def test_clean_close_releases_mapping(self, tmp_path):
        data = _mapped(tmp_path)
        assert data.is_mapped
        assert data.close() is True
        assert len(data) == 0

    def test_closed_dataset_rejects_reads_and_writes(self, tmp_path):
        data = _mapped(tmp_path)
        data.close()
        with pytest.raises(ValueError):
            data.row(0)
        with pytest.raises(ValueError):
            data.append("d.com", "DE", 200, 1, None)

    def test_view_outlives_close(self, tmp_path):
        # A column view exported before close() stays readable: the
        # mapping cannot be released while the view pins it, and close()
        # reports that by returning False.
        data = _mapped(tmp_path)
        statuses = data.export_columns().statuses
        assert data.close() is False
        assert [int(s) for s in statuses] == [200, 403, -1, 403]
        del statuses
        # With the last view gone the dataset is already detached; a
        # second close is a no-op on the dataset side.

    def test_double_close_is_idempotent(self, tmp_path):
        data = _mapped(tmp_path)
        assert data.close() is True
        assert data.close() is True

    def test_append_detaches_from_mapping(self, tmp_path):
        # Growing a mapped dataset must copy into ordinary buffers, not
        # write through to the file.
        path = tmp_path / "scan.lshd"
        write_segment_file(_dataset().export_columns(), str(path))
        before = path.read_bytes()
        data = load_dataset(path)
        data.append("d.com", "DE", 200, 1, None)
        assert len(data) == 5
        assert path.read_bytes() == before
        data.close()

    def test_pickle_produces_plain_copy(self, tmp_path):
        data = _mapped(tmp_path)
        clone = pickle.loads(pickle.dumps(data))
        assert not clone.is_mapped
        data.close()
        assert clone.row(1) == _dataset().row(1)


_STAGE = Stage("scan", (ArtifactSpec("initial", KIND_DATASET),),
               lambda ctx: {"initial": _dataset()})


class TestInvalidateWhileMapped:
    def test_unlinked_segment_stays_readable(self, tmp_path):
        # POSIX keeps the mapped pages alive after unlink, so a reader
        # holding a dataset checkpoint survives the store removing the
        # segment its stage manifest lists.
        store = ArtifactStore(str(tmp_path), "study", {"seed": 1}, {"n": 1})
        store.save_stage(_STAGE, {"initial": _dataset()})
        reader = store.load_stage(_STAGE)["initial"]
        assert reader.is_mapped

        study_dir = tmp_path / "study"
        store.invalidate([_STAGE], remove_artifacts=True)
        assert os.listdir(study_dir) == []
        assert [reader.row(i) for i in range(4)] \
            == [_dataset().row(i) for i in range(4)]
        assert reader.close() is True

    def test_rewrite_under_reader_does_not_corrupt_it(self, tmp_path):
        # Re-executing the stage under a changed config replaces the
        # segment at its name (temp file, then rename), so no segment is
        # orphaned; a reader mapped to the old segment keeps seeing the
        # old rows.
        store = ArtifactStore(str(tmp_path), "study", {"seed": 1}, {"n": 1})
        store.save_stage(_STAGE, {"initial": _dataset()})
        reader = store.load_stage(_STAGE)["initial"]
        study_dir = tmp_path / "study"

        bigger = _dataset()
        bigger.append("d.com", "DE", 200, 1, None)
        changed = ArtifactStore(str(tmp_path), "study", {"seed": 2}, {"n": 1})
        changed.save_stage(_STAGE, {"initial": bigger})
        assert sorted(os.listdir(study_dir)) == \
            ["scan.initial.lshd", "scan.manifest.json"]
        assert unreferenced_segments(study_dir) == []
        assert store.manifest(_STAGE) is None

        assert len(reader) == 4
        assert [reader.row(i) for i in range(4)] \
            == [_dataset().row(i) for i in range(4)]
        reader.close()
        fresh = changed.load_stage(_STAGE)["initial"]
        assert len(fresh) == 5
        fresh.close()


class TestLedger:
    def test_open_mapping_is_listed_until_closed(self, tmp_path):
        path = tmp_path / "scan.lshd"
        write_segment_file(_dataset().export_columns(), str(path))
        with SegmentMapping(path, MAGIC_LSHD) as mapping:
            assert mapping in ledger()[0]
        assert mapping not in ledger()[0]

    @pytest.mark.skipif(not shm_available(), reason="no POSIX shm")
    def test_published_block_is_listed_until_released(self):
        handle = publish(encode_shard(_dataset().export_columns()), KIND_SHM)
        try:
            assert handle.ref in ledger()[1]
        finally:
            release(handle)
        assert handle.ref not in ledger()[1]

    @pytest.mark.skipif(not shm_available(), reason="no POSIX shm")
    def test_disowned_block_leaves_the_ledger(self):
        handle = publish(encode_shard(_dataset().export_columns()), KIND_SHM)
        try:
            disown(handle)
            assert handle.ref not in ledger()[1]
        finally:
            release(handle)


class TestDecodeFailureClosesMapping:
    """A segment that fails to decode leaves no mapping open.

    Each check sits inside the ``except`` handler: there the traceback
    still holds the failing frames, so a mapping the error path forgot
    is alive and reads as open.  Once the handler exits, collection
    closes it and the leak no longer shows.
    """

    @staticmethod
    def _fail_decode(monkeypatch):
        def fail(mapping):
            raise ValueError("injected decode failure")

        monkeypatch.setattr(shards, "decode_shard", fail)

    def test_load_dataset(self, tmp_path, monkeypatch):
        path = tmp_path / "scan.lshd"
        write_segment_file(_dataset().export_columns(), str(path))
        before = set(ledger()[0])
        self._fail_decode(monkeypatch)
        try:
            load_dataset(path)
        except ValueError:
            assert set(ledger()[0]) == before
        else:
            pytest.fail("the injected decode failure did not propagate")

    def test_spill_finalize(self, tmp_path, monkeypatch):
        builder = SpillDatasetBuilder(directory=str(tmp_path))
        builder.extend_columns(_dataset().export_columns())
        before = set(ledger()[0])
        self._fail_decode(monkeypatch)
        try:
            builder.finalize()
        except ValueError:
            assert set(ledger()[0]) == before
        else:
            pytest.fail("the injected decode failure did not propagate")
        assert os.listdir(tmp_path) == []


_DUMP_SCRIPT = r"""
import sys

from repro.lumscan.records import ScanDataset
from repro.lumscan.shards import write_segment_file

data = ScanDataset()
for domain, country, status, length, body, error, interfered in [
    ("zeta.example", "US", 200, 9000, None, None, False),
    ("zeta.example", "IR", 403, 480, "<html>block</html>", None, True),
    ("alpha.example", "SY", -1, 0, None, "timeout", False),
    ("mid.example", "CN", 403, 50, "fw", None, True),
    ("alpha.example", "RU", 451, 77, "<html>legal</html>", None, False),
]:
    data.append(domain, country, status, length, body,
                error=error, interfered=interfered)
write_segment_file(data.export_columns(), sys.argv[1])
sys.stdout.buffer.write(open(sys.argv[1], "rb").read())
"""


def _dump_with_hash_seed(seed: str, tmp_path) -> bytes:
    env = os.environ.copy()
    env["PYTHONHASHSEED"] = seed
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _DUMP_SCRIPT,
         str(tmp_path / f"seed{seed}.lshd")],
        capture_output=True, env=env, check=True)
    return result.stdout


class TestCheckpointHashSeedIndependence:
    def test_segments_identical_across_hash_seeds(self, tmp_path):
        first = _dump_with_hash_seed("1", tmp_path)
        second = _dump_with_hash_seed("2", tmp_path)
        assert first.startswith(b"LSHD")
        assert first == second

    def test_segments_stable_across_repeat_runs(self, tmp_path):
        assert _dump_with_hash_seed("42", tmp_path) \
            == _dump_with_hash_seed("43", tmp_path)
