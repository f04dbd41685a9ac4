"""Byte pins for the three binary formats: LSHD, LSHM and LSHW.

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

import pytest

from repro.lumscan.records import ScanDataset
from repro.lumscan.shards import (
    ExchangeSpec,
    read_manifest,
    store_segment,
    write_manifest,
    write_segment_file,
    write_shard,
)
from repro.websim.world import World, WorldConfig
from repro.websim.worldpack import write_worldpack_file


def _rows(offset: int = 0) -> ScanDataset:
    data = ScanDataset()
    data.append(f"alpha{offset}.example", "US", 200, 1234 + offset, None)
    data.append(f"alpha{offset}.example", "IR", 403, 480,
                "<html>Access denied · Доступ запрещён</html>")
    data.append("bücher.example", "DE", 0, 0, None, error="conn-timeout")
    data.append("bücher.example", "CN", 200, 9999, "正文",
                interfered=True)
    data.append(f"gamma{offset}.example", "SY", 0, 0, None,
                error="proxy-5xx")
    data.append(f"alpha{offset}.example", "US", 451, 77, None)
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


def test_worker_shard_bytes(tmp_path):
    spec = ExchangeSpec("file", str(tmp_path))
    handle = write_shard(_rows().export_columns(), spec, 0)
    assert _sha(handle.ref) == (
        "b9aacadeb3d9879448d4383f9a6e0a72315862df147bf75d8db70290af88205a")
    assert "fingerprint" not in _header(handle.ref)


def test_manifest_bytes(tmp_path):
    path = str(tmp_path / "rows.lshm")
    write_manifest(path, [store_segment(_rows(0).export_columns(), path),
                          store_segment(_rows(1).export_columns(), path)])
    assert _sha(path) == (
        "0d09863f935e7b9e317e4b5c9a68668ae3667f1788b12679437edd720c4b82dd")
    manifest = read_manifest(path)
    assert manifest.fingerprint == "b28d04ca3ed5749b72a95b53e383d19a"
    assert [entry.rows for entry in manifest.entries] == [6, 6]


@pytest.fixture(scope="module")
def nano_pack_world():
    world = World(WorldConfig.nano())
    world.learn_page_lengths({
        domain.name: 4096 + 17 * domain.rank
        for domain in list(world.population)[:5]})
    return world


def test_worldpack_bytes(nano_pack_world, tmp_path):
    path = str(tmp_path / "nano.lshw")
    write_worldpack_file(nano_pack_world, path)
    assert os.path.getsize(path) == 52209
    assert _sha(path) == (
        "4c70a224af63742294222ca2c0980f1ac97c1750a3406795301cadc59b27f743")
    assert _header(path)["fingerprint"] == "15893a0275c9ae65440a795d7aae15ec"
