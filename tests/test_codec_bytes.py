"""Byte pins for the two binary formats: LSHD and LSHW.

Checkpoints written by one version of the code must resume under the
next, and shard and worldpack bytes are fingerprinted, so a refactor of
the codecs may not move a single byte.  Each test here writes one
artifact from fixed inputs through the public writers and pins the
SHA-256 of the whole file plus the fingerprint its header records.

The fixed rows include a retained body, an error, an interfered row and
non-ASCII domain and body text; the non-ASCII values pin the LSHD JSON
sections' ``ensure_ascii=False`` encoding.  The header is parsed here by
hand (magic, u32 length, JSON) so the pins do not depend on any reader.
"""

import hashlib
import json
import os

from repro.lumscan.records import ScanDataset
from repro.lumscan.shards import (
    ExchangeSpec,
    write_segment_file,
    write_shard,
)
from repro.run.artifacts import ArtifactStore
from repro.run.stage import KIND_DATASET, ArtifactSpec, Stage
from repro.websim.world import World, WorldConfig
from repro.websim.worldpack import write_worldpack_file


def _rows() -> ScanDataset:
    data = ScanDataset()
    data.append("alpha0.example", "US", 200, 1234, None)
    data.append("alpha0.example", "IR", 403, 480,
                "<html>Access denied · Доступ запрещён</html>")
    data.append("bücher.example", "DE", 0, 0, None, error="conn-timeout")
    data.append("bücher.example", "CN", 200, 9999, "正文",
                interfered=True)
    data.append("gamma0.example", "SY", 0, 0, None,
                error="proxy-5xx")
    data.append("alpha0.example", "US", 451, 77, None)
    return data


def _sha(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _header(path: str) -> dict:
    with open(path, "rb") as handle:
        blob = handle.read()
    length = int.from_bytes(blob[4:8], "little")
    return json.loads(blob[8:8 + length].decode("utf-8"))


def test_checkpoint_segment_bytes(tmp_path):
    path = str(tmp_path / "rows.lshd")
    write_segment_file(_rows().export_columns(), path)
    assert _sha(path) == (
        "aa86cc64e13a911a19f9e74457d202d203de1f9bc28ce4551ed61a74c55d8b9e")
    assert _header(path)["fingerprint"] == "05922b8594d0a1ebde536045f854278e"
    # A dataset checkpoint is that same segment, recorded by its stage.
    stage = Stage("scan", (ArtifactSpec("rows", KIND_DATASET),),
                  lambda ctx: {})
    store = ArtifactStore(str(tmp_path), "study", {}, {})
    store.save_stage(stage, {"rows": _rows()})
    checkpoint = str(tmp_path / "study" / "scan.rows.lshd")
    assert _sha(checkpoint) == _sha(path)
    assert store.manifest(stage)["artifacts"][0]["fingerprint"] == \
        _header(path)["fingerprint"]


def test_worker_shard_bytes(tmp_path):
    spec = ExchangeSpec("file", str(tmp_path))
    handle = write_shard(_rows().export_columns(), spec, 0)
    assert _sha(handle.ref) == (
        "b9aacadeb3d9879448d4383f9a6e0a72315862df147bf75d8db70290af88205a")
    assert "fingerprint" not in _header(handle.ref)


def test_worldpack_bytes(tmp_path):
    # Base-page lengths reach workers with their chunks, never through
    # the pack, so lengths the world has memoized change no byte.
    world = World(WorldConfig.nano())
    before = str(tmp_path / "before.lshw")
    write_worldpack_file(world, before)
    world.learn_page_lengths({
        domain.name: 4096 + 17 * domain.rank
        for domain in list(world.population)[:5]})
    path = str(tmp_path / "nano.lshw")
    write_worldpack_file(world, path)
    assert _sha(path) == _sha(before)
    assert os.path.getsize(path) == 51953
    assert _sha(path) == (
        "4740ac3e36028702896b60a2408ebb07ee8a8ca087611bb12a498834cde00c46")
    assert _header(path)["fingerprint"] == "7d5acf6191e2d4aab0955ebe5aa6c2a3"
