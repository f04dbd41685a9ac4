"""Shared fixtures.

World construction and full study runs are expensive, so they are
session-scoped; tests must treat them as read-only.
"""

from __future__ import annotations

import gc

import pytest

from repro.analysis.experiments import ExperimentSuite
from repro.core.fingerprints import FingerprintRegistry
from repro.core.pipeline import run_top10k_study, run_top1m_study
from repro.datasets.cloudflare_rules import CloudflareRuleDataset
from repro.proxynet.luminati import LuminatiClient
from repro.util.envelope import ledger
from repro.websim.world import World, WorldConfig


def _held_since(mappings, blocks):
    """Mappings opened, and shm blocks published or released, since a
    ledger snapshot."""
    after, blocks_after = ledger()
    opened = [mapping.name for mapping in after
              if not any(mapping is old for old in mappings)]
    return opened, blocks_after ^ blocks


@pytest.fixture(autouse=True)
def envelope_ledger():
    """Every test leaves the envelope ledger as it found it.

    After a collection pass, no mapping the test opened may still be
    open, and the published shm blocks must be exactly those published
    before it.  A mapping the collector reclaims counts as closed.  The
    collection runs only when something is still held: a full pass
    after every test would double the suite's run time.
    """
    mappings, blocks = ledger()
    yield
    if any(_held_since(mappings, blocks)):
        gc.collect()
    opened, changed = _held_since(mappings, blocks)
    assert not opened, f"mappings left open: {opened}"
    assert not changed, (f"shm blocks published or released and not "
                         f"restored: {sorted(changed)}")


@pytest.fixture(scope="session")
def nano_world() -> World:
    """350 domains, 12 countries — fast unit-test world."""
    return World(WorldConfig.nano())


@pytest.fixture(scope="session")
def tiny_world() -> World:
    """1,200 domains, 28 countries — integration-test world."""
    return World(WorldConfig.tiny())


@pytest.fixture(scope="session")
def nano_luminati(nano_world) -> LuminatiClient:
    """Luminati client bound to the nano world."""
    return LuminatiClient(nano_world)


@pytest.fixture(scope="session")
def registry() -> FingerprintRegistry:
    """The curated default fingerprint registry."""
    return FingerprintRegistry.default()


@pytest.fixture(scope="session")
def nano_top10k(nano_world):
    """A full Top-10K study over the nano world (read-only)."""
    return run_top10k_study(nano_world)


@pytest.fixture(scope="session")
def tiny_top10k(tiny_world):
    """A full Top-10K study over the tiny world (read-only)."""
    return run_top10k_study(tiny_world)


@pytest.fixture(scope="session")
def tiny_top1m(tiny_world, tiny_top10k):
    """A full Top-1M study over the tiny world (read-only)."""
    return run_top1m_study(tiny_world, registry=tiny_top10k.registry)


@pytest.fixture(scope="session")
def cf_rules() -> CloudflareRuleDataset:
    """The Cloudflare firewall-rule dataset at 80,000 zones (read-only)."""
    return CloudflareRuleDataset.generate(n_zones=80_000, seed=7)


def unreferenced_segments(root) -> list:
    """Files under ``root`` that no stage manifest accounts for.

    A checkpoint directory holds JSON (stage manifests and derived
    artifacts) and the ``.lshd`` segments some ``*.manifest.json`` names
    as datasets.  Anything else is returned: an orphaned segment, or a
    file of a format no checkpoint is written in.
    """
    import json
    import os

    found, listed = set(), set()
    for directory, _, files in os.walk(root):
        for name in files:
            path = os.path.join(directory, name)
            if name.endswith(".manifest.json"):
                with open(path, encoding="utf-8") as handle:
                    artifacts = json.load(handle)["artifacts"]
                listed.update(os.path.join(directory, entry["file"])
                              for entry in artifacts
                              if entry["kind"] == "dataset")
            elif not name.endswith(".json"):
                found.add(path)
    return sorted(found - listed)


#: Suite parameters small enough for a tiny-world suite in seconds.
SUITE_TEST_PARAMS = {"pool_pairs": 8, "pool_samples": 30,
                     "cf_rule_zones": 15_000}


@pytest.fixture(scope="session")
def tiny_suite(tmp_path_factory):
    """(report, checkpoint root) of one fresh, checkpointed suite run.

    Runs on its own tiny world, so the report is what a fresh process
    produces.  Tests that change the checkpoints work on a copy.
    """
    root = str(tmp_path_factory.mktemp("suite-ckpt"))
    suite = ExperimentSuite(World(WorldConfig.tiny()), checkpoint_dir=root)
    return suite.run(**SUITE_TEST_PARAMS), root
