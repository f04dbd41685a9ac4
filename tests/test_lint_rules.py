"""Positive and negative fixtures for every repro.lint rule.

Each rule gets at least one fixture that must flag and one that must
stay clean; the suppression, order-guarantee, confinement, tier, and
CLI exit-code machinery is exercised on top.  The final tests
assert the *real* tree keeps the acceptance contract: ``src/repro`` is
lint-clean with zero suppressions, and the module-scope
``random.random()`` fixture exits non-zero through the CLI.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from typing import List, Optional, Sequence

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.config import LintConfig
from repro.lint.engine import analyze_sources
from repro.lint.report import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    Finding,
    exit_code,
    render_json,
    render_text,
)
from repro.lint.rules import RULES, RULES_BY_ID

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_lint(source: str, path: str = "src/repro/fake/mod.py",
             tier: str = "error",
             worker_roots: Optional[Sequence[str]] = None) -> List[Finding]:
    config = LintConfig()
    if worker_roots is not None:
        config.worker_roots = tuple(worker_roots)
    return analyze_sources([(path, tier, textwrap.dedent(source))], config)


def rule_ids(findings: Sequence[Finding]) -> List[str]:
    return [f.rule_id for f in findings]


# --------------------------------------------------------------------- #
# Rule registry sanity

def test_every_rule_has_id_severity_and_rationale():
    assert len(RULES) == len(RULES_BY_ID)
    for rule in RULES:
        assert rule.rule_id
        assert rule.severity in ("error", "warn")
        assert rule.summary and rule.rationale


# --------------------------------------------------------------------- #
# wall-clock

def test_wall_clock_flags_time_time():
    findings = run_lint("""
        import time

        def elapsed():
            return time.time()
    """)
    assert rule_ids(findings) == ["wall-clock"]
    assert findings[0].severity == "error"


def test_wall_clock_flags_datetime_now_and_aliased_import():
    findings = run_lint("""
        import datetime
        from time import perf_counter as pc

        def stamp():
            return datetime.datetime.now(), pc()
    """)
    assert rule_ids(findings) == ["wall-clock", "wall-clock"]


def test_wall_clock_clean_when_injected_clock_is_used():
    findings = run_lint("""
        from repro.util.clock import SystemClock

        def elapsed():
            stopwatch = SystemClock().stopwatch()
            return stopwatch.elapsed()
    """)
    assert findings == []


def test_wall_clock_sanctioned_inside_clock_module():
    findings = run_lint("""
        import time

        def monotonic():
            return time.perf_counter()
    """, path="src/repro/util/clock.py")
    assert findings == []


# --------------------------------------------------------------------- #
# raw-entropy

def test_raw_entropy_flags_urandom_and_uuid4():
    findings = run_lint("""
        import os
        import uuid

        def token():
            return os.urandom(8), uuid.uuid4()
    """)
    assert rule_ids(findings) == ["raw-entropy", "raw-entropy"]


def test_raw_entropy_flags_unseeded_generator_construction():
    findings = run_lint("""
        import random
        import _random
        import numpy as np
        from numpy.random import default_rng

        def draws():
            return (random.Random().random(), _random.Random().random(),
                    random.Random(None), np.random.default_rng(),
                    default_rng(seed=None), random.Random(x=None))
    """)
    assert rule_ids(findings) == ["raw-entropy"] * 6
    assert "without a seed" in findings[0].message


def test_raw_entropy_clean_for_seeded_or_forwarded_construction():
    findings = run_lint("""
        import random
        import _random
        import numpy as np

        def generators(seed, *args, **kwargs):
            return (random.Random(seed), _random.Random(seed),
                    random.Random(x=seed), np.random.default_rng(seed),
                    np.random.default_rng(seed=0), random.Random(*args),
                    np.random.default_rng(**kwargs))
    """)
    assert findings == []


def test_raw_entropy_clean_for_derived_rng():
    findings = run_lint("""
        from repro.util.rng import derive_rng

        def token(seed):
            return derive_rng(seed, "token").random()
    """)
    assert findings == []


# --------------------------------------------------------------------- #
# global-random

def test_global_random_flags_module_scope_draw():
    findings = run_lint("""
        import random

        JITTER = random.random()
    """)
    assert rule_ids(findings) == ["global-random"]


def test_global_random_flags_shuffle_and_numpy_legacy():
    findings = run_lint("""
        import random
        import numpy

        def scramble(items):
            random.shuffle(items)
            return numpy.random.rand()
    """)
    assert rule_ids(findings) == ["global-random", "global-random"]


def test_global_random_allows_seeded_generator_construction():
    findings = run_lint("""
        import random
        import numpy

        def generators(seed):
            return random.Random(seed), numpy.random.default_rng(seed)
    """)
    assert findings == []


# --------------------------------------------------------------------- #
# fs-order

def test_fs_order_flags_bare_listdir_and_iterdir():
    findings = run_lint("""
        import os

        def names(root, path):
            return os.listdir(root) + list(path.iterdir())
    """)
    assert rule_ids(findings) == ["fs-order", "fs-order"]


def test_fs_order_clean_when_wrapped_in_sorted():
    findings = run_lint("""
        import glob
        import os

        def names(root):
            return sorted(os.listdir(root)) + sorted(glob.glob("*.json"))
    """)
    assert findings == []


# --------------------------------------------------------------------- #
# iter-order

def test_iter_order_flags_dict_items_in_serializing_function():
    findings = run_lint("""
        import json

        def save(data, handle):
            rows = [[key, value] for key, value in data.items()]
            json.dump(rows, handle)
    """)
    assert rule_ids(findings) == ["iter-order"]


def test_iter_order_flags_set_iteration_feeding_a_sink():
    findings = run_lint("""
        import json

        def save(handle):
            flags = {"a", "b", "c"}
            json.dump(list(flags), handle)
    """)
    assert rule_ids(findings) == ["iter-order"]


def test_iter_order_clean_without_serialization_sink():
    findings = run_lint("""
        def total(data):
            result = 0
            for key, value in data.items():
                result += value
            return result
    """)
    assert findings == []


def test_iter_order_clean_when_sorted_or_order_free():
    findings = run_lint("""
        import json

        def save(data, handle):
            rows = [[k, v] for k, v in sorted(data.items())]
            json.dump([rows, len(data.keys())], handle)
    """)
    assert findings == []


def test_iter_order_flags_unsorted_dict_feeding_manifest_writer():
    # The stage manifest writer is a serialization sink: feeding it
    # entries built from unordered dict iteration would make manifest
    # bytes depend on dict history.
    findings = run_lint("""
        from repro.run.artifacts import _atomic_write_json

        def checkpoint(path, by_name):
            entries = [entry for name, entry in by_name.items()]
            return _atomic_write_json(path, {"artifacts": entries})
    """)
    assert rule_ids(findings) == ["iter-order"]


def test_iter_order_clean_when_manifest_entries_are_ordered():
    findings = run_lint("""
        from repro.run.artifacts import _atomic_write_json

        def checkpoint(path, by_name):
            entries = [entry for name, entry in sorted(by_name.items())]
            return _atomic_write_json(path, {"artifacts": entries})
    """)
    assert findings == []


def test_iter_order_flags_unsorted_dict_feeding_shard_writer():
    # The shard codec is a serialization sink: unordered iteration into a
    # segment would make shard bytes depend on dict/set history.
    findings = run_lint("""
        from repro.lumscan.shards import write_shard

        def spill(bodies, spec, seq):
            rows = [[row, body] for row, body in bodies.items()]
            return write_shard(rows, spec, seq)
    """)
    assert rule_ids(findings) == ["iter-order"]


def test_iter_order_clean_when_shard_writer_input_is_sorted():
    findings = run_lint("""
        from repro.lumscan.shards import write_shard

        def spill(bodies, spec, seq):
            rows = [[row, body] for row, body in sorted(bodies.items())]
            return write_shard(rows, spec, seq)
    """)
    assert findings == []


def test_iter_order_flags_unsorted_dict_feeding_worldpack_writer():
    # The worldpack writer is a serialization sink: pack bytes carry a
    # content fingerprint that workers verify, so feeding the writer
    # values built from unordered dict iteration would make the
    # fingerprint depend on dict history.
    findings = run_lint("""
        from repro.websim.worldpack import write_worldpack_file

        def freeze_all(worlds, directory):
            handles = [write_worldpack_file(world, f"{directory}/{name}")
                       for name, world in worlds.items()]
            return handles
    """)
    assert rule_ids(findings) == ["iter-order"]


def test_iter_order_clean_when_worldpack_writer_input_is_sorted():
    findings = run_lint("""
        from repro.websim.worldpack import write_worldpack_file

        def freeze_all(worlds, directory):
            handles = [write_worldpack_file(world, f"{directory}/{name}")
                       for name, world in sorted(worlds.items())]
            return handles
    """)
    assert findings == []


def test_iter_order_honors_ordered_directive():
    findings = run_lint("""
        import json

        def save(data, handle):
            rows = [[k, v] for k, v in data.items()]  # lint: ordered(insertion order is the contract)
            json.dump(rows, handle)
    """)
    assert findings == []


# --------------------------------------------------------------------- #
# shared-mutation

_ENGINE_ROOT = ("repro.fake.mod.Engine.run_task",)


def test_shared_mutation_flags_dict_write_on_worker_path():
    findings = run_lint("""
        class Engine:
            def __init__(self):
                self._cache = {}

            def run_task(self, key):
                self._cache[key] = 1
    """, worker_roots=_ENGINE_ROOT)
    assert rule_ids(findings) == ["shared-mutation"]


def test_shared_mutation_follows_self_method_calls():
    findings = run_lint("""
        class Engine:
            def __init__(self):
                self._seen = []

            def run_task(self, key):
                self._record(key)

            def _record(self, key):
                self._seen.append(key)
    """, worker_roots=_ENGINE_ROOT)
    assert rule_ids(findings) == ["shared-mutation"]


def test_shared_mutation_clean_for_sanctioned_primitives():
    findings = run_lint("""
        from repro.util.cache import LRUCache, MemoDict
        from repro.util.counters import ShardedCounter

        class Engine:
            def __init__(self):
                self._count = ShardedCounter()
                self._pages = LRUCache(capacity=16)
                self._memo = MemoDict()

            def run_task(self, key):
                self._count.increment()
                self._pages.put(key, key)
                self._memo[key] = 1
    """, worker_roots=_ENGINE_ROOT)
    assert findings == []


def test_shared_mutation_clean_under_lock_guard():
    findings = run_lint("""
        import threading

        class Engine:
            def __init__(self):
                self._lock = threading.Lock()
                self._rotation = {}

            def run_task(self, key):
                with self._lock:
                    self._rotation[key] = 1
    """, worker_roots=_ENGINE_ROOT)
    assert findings == []


def test_shared_mutation_respects_confined_directive():
    findings = run_lint("""
        class Engine:
            # lint: confined(per-worker shards merged in parent)
            def __init__(self):
                self._rows = []

            def run_task(self, row):
                self._rows.append(row)
    """, worker_roots=_ENGINE_ROOT)
    assert findings == []


def test_shared_mutation_reaches_across_modules():
    engine = textwrap.dedent("""
        from repro.fake.store import Store

        class Engine:
            def __init__(self, store: Store):
                self.store = store

            def run_task(self, key):
                self.store.remember(key)
    """)
    store = textwrap.dedent("""
        class Store:
            def __init__(self):
                self._seen = set()

            def remember(self, key):
                self._seen.add(key)
    """)
    config = LintConfig()
    config.worker_roots = _ENGINE_ROOT
    findings = analyze_sources(
        [("src/repro/fake/mod.py", "error", engine),
         ("src/repro/fake/store.py", "error", store)], config)
    assert rule_ids(findings) == ["shared-mutation"]
    assert findings[0].path == "src/repro/fake/store.py"


# --------------------------------------------------------------------- #
# spec-pickle

def test_spec_pickle_flags_object_and_lock_fields():
    findings = run_lint("""
        import threading
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class WorkerSpec:
            payload: object
            guard: threading.Lock
    """)
    assert rule_ids(findings) == ["spec-pickle", "spec-pickle"]


def test_spec_pickle_clean_for_leaves_containers_and_project_types():
    findings = run_lint("""
        from dataclasses import dataclass
        from typing import Dict, Optional, Tuple

        @dataclass(frozen=True)
        class InnerConfig:
            seed: int

        @dataclass(frozen=True)
        class WorkerSpec:
            seed: int
            name: Optional[str]
            pairs: Tuple[Tuple[str, int], ...]
            rates: Dict[str, float]
            inner: InnerConfig
    """)
    assert findings == []


def test_spec_pickle_ignores_non_spec_classes():
    findings = run_lint("""
        from dataclasses import dataclass

        @dataclass
        class Holder:
            payload: object
    """)
    assert findings == []


# --------------------------------------------------------------------- #
# Suppression, tiers, rendering

def test_allow_directive_suppresses_and_exits_clean():
    findings = run_lint("""
        import time

        def legacy():
            return time.time()  # lint: allow(wall-clock: vendored timing shim)
    """)
    assert len(findings) == 1
    assert findings[0].suppressed
    assert findings[0].suppress_reason == "vendored timing shim"
    assert exit_code(findings) == EXIT_CLEAN


def test_allow_directive_is_rule_specific():
    findings = run_lint("""
        import time

        def legacy():
            return time.time()  # lint: allow(fs-order: wrong rule)
    """)
    assert not findings[0].suppressed
    assert exit_code(findings) == EXIT_FINDINGS


def test_directive_inside_string_literal_is_inert():
    findings = run_lint("""
        import time

        def legacy():
            note = "# lint: allow(wall-clock: not a comment)"
            return time.time(), note
    """)
    assert not findings[0].suppressed


def test_warn_tier_demotes_everything_and_exits_clean():
    findings = run_lint("""
        import time

        def bench():
            return time.time()
    """, path="benchmarks/test_speed.py", tier="warn")
    assert [f.severity for f in findings] == ["warn"]
    assert exit_code(findings) == EXIT_CLEAN


def test_render_json_is_stable_and_timestamp_free():
    findings = run_lint("""
        import time

        def legacy():
            return time.time()
    """)
    first = render_json(findings)
    second = render_json(findings)
    assert first == second
    payload = json.loads(first)
    assert payload["summary"]["errors"] == 1
    assert payload["findings"][0]["rule"] == "wall-clock"
    assert "time" not in payload["summary"]
    assert payload["version"] == 4
    assert "baselined" not in payload["summary"]
    assert "baselined" not in payload["findings"][0]
    assert "trace" not in payload["findings"][0]


def test_render_text_hides_suppressed_unless_verbose():
    findings = run_lint("""
        import time

        def legacy():
            return time.time()  # lint: allow(wall-clock: shim)
    """)
    assert "allowed" not in render_text(findings)
    assert "allowed" in render_text(findings, verbose=True)


def test_parse_error_is_reported_not_raised():
    findings = run_lint("def broken(:\n")
    assert rule_ids(findings) == ["parse-error"]
    assert exit_code(findings) == EXIT_FINDINGS


# --------------------------------------------------------------------- #
# CLI exit codes

def test_cli_flags_module_scope_random_fixture(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text("import random\nJITTER = random.random()\n")
    assert lint_main([str(fixture)]) == EXIT_FINDINGS
    assert "global-random" in capsys.readouterr().out


def test_cli_clean_file_exits_zero(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text("def double(x):\n    return 2 * x\n")
    assert lint_main([str(fixture)]) == EXIT_CLEAN
    capsys.readouterr()


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert lint_main([str(missing)]) == EXIT_USAGE
    capsys.readouterr()


def test_cli_json_report_to_file(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text("import time\nSTAMP = time.time()\n")
    out = tmp_path / "report.json"
    code = lint_main([str(fixture), "--format", "json",
                      "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_FINDINGS
    payload = json.loads(out.read_text())
    assert payload["summary"]["errors"] == 1


def test_cli_has_no_baseline(tmp_path, capsys):
    """``# lint: allow`` is the only suppression: no file can bank a
    finding, so the baseline options are usage errors."""
    fixture = tmp_path / "fixture.py"
    fixture.write_text("x = 1\n")
    for flag in ("--baseline=b.json", "--no-baseline", "--write-baseline"):
        with pytest.raises(SystemExit) as raised:
            lint_main([str(fixture), flag])
        assert raised.value.code == EXIT_USAGE
    capsys.readouterr()


def test_cli_select_restricts_rules(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text("import time\nSTAMP = time.time()\n")
    assert lint_main([str(fixture), "--select", "fs-order"]) == EXIT_CLEAN
    assert lint_main([str(fixture),
                      "--select", "wall-clock"]) == EXIT_FINDINGS
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.rule_id in out


def test_repro_geoblock_lint_subcommand(capsys):
    from repro.cli import main as repro_main

    assert repro_main(["lint", "--list-rules"]) == EXIT_CLEAN
    assert "wall-clock" in capsys.readouterr().out


@pytest.mark.parametrize("args, code", [
    (["--list-rules"], EXIT_CLEAN),
    (["--explain", "resource-owner"], EXIT_CLEAN),
    (["--verbose"], EXIT_FINDINGS),
    (["--format", "json"], EXIT_FINDINGS),
], ids=["list-rules", "explain", "text-report", "json-report"])
def test_cli_output_into_a_closed_pipe_is_quiet(tmp_path, args, code):
    """A reader that closes its end early (``| head -1``) ends the
    output quietly: no BrokenPipeError traceback, and the exit code the
    findings call for."""
    fixture = tmp_path / "fixture.py"
    fixture.write_text("import time\nSTAMP = time.time()\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    read_end, write_end = os.pipe()
    os.close(read_end)   # the reader is gone before anything is written
    try:
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(fixture), *args],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert result.returncode == code, result.stderr
    assert result.stderr == ""


# --------------------------------------------------------------------- #
# resource-owner and atomic-write (syntactic ownership)

#: (rule, flagged source, clean source): one pair per form the rule
#: accepts (resource-owner) or per path shape it reads (atomic-write).
OWNERSHIP_CASES = [
    pytest.param("resource-owner", """
        from repro.util.envelope import SegmentMapping

        def f(path, magic):
            return SegmentMapping(path, magic).header
    """, """
        from repro.util.envelope import SegmentMapping

        def f(path, magic):
            with SegmentMapping(path, magic) as mapping:
                return mapping.header
    """, id="with-item"),
    pytest.param("resource-owner", """
        from repro.lumscan.shards import open_shard

        def f(handle):
            reader = open_shard(handle)
            return reader
    """, """
        from repro.lumscan.shards import open_shard

        def f(handle):
            return open_shard(handle)
    """, id="return-operand"),
    pytest.param("resource-owner", """
        from repro.lumscan.shards import ShardExchange

        SESSIONS = {}

        def f(key, spill_dir):
            SESSIONS[key] = ShardExchange(spill_dir)
    """, """
        from repro.lumscan.shards import ShardExchange

        class Engine:
            def __init__(self, spill_dir):
                self._exchange = ShardExchange(spill_dir)

            def close(self):
                self._exchange.close()
    """, id="self-attribute"),
    pytest.param("resource-owner", """
        from repro.lumscan.shards import SpillDatasetBuilder

        def f(spill, spill_dir):
            merger = SpillDatasetBuilder(spill_dir) if spill else None
            return merger
    """, """
        from contextlib import ExitStack

        from repro.lumscan.shards import SpillDatasetBuilder

        def f(spill, spill_dir):
            with ExitStack() as owned:
                merger = None
                if spill:
                    merger = owned.enter_context(
                        SpillDatasetBuilder(spill_dir))
                return merger is not None
    """, id="call-argument"),
    pytest.param("resource-owner", """
        from repro.websim.worldpack import freeze_world

        def f(world, run):
            pack = freeze_world(world)
            run(pack.handle)
            try:
                run(pack.handle)
            finally:
                pack.release()
    """, """
        from repro.websim.worldpack import freeze_world

        def f(world, run):
            pack = freeze_world(world)
            try:
                run(pack.handle)
            finally:
                pack.release()
    """, id="binding-try-finally"),
    pytest.param("resource-owner", """
        from repro.util.envelope import SegmentMapping

        def f(path, magic, check):
            mapping = SegmentMapping(path, magic)
            try:
                check(mapping)
            except Exception:
                mapping.close()
                raise
            return mapping
    """, """
        from repro.util.envelope import SegmentMapping

        def f(path, magic, check):
            mapping = SegmentMapping(path, magic)
            try:
                check(mapping)
            except BaseException:
                mapping.close()
                raise
            return mapping
    """, id="binding-except-baseexception"),
    pytest.param("atomic-write", """
        with open("x.lshd", "wb") as out:
            out.write(b"")
    """, """
        with open("x.lshd", "rb") as handle:
            head = handle.read(4)
    """, id="open-literal"),
    pytest.param("atomic-write", """
        import os

        def f(root, stem, blob):
            with open(os.path.join(root, f"{stem}.lshd"), "wb") as out:
                out.write(blob)
    """, """
        import os

        def f(root, stem, blob):
            path = os.path.join(root, f"{stem}.lshd.tmp.{os.getpid()}")
            with open(path, "wb") as out:
                out.write(blob)
    """, id="joined-f-string"),
    pytest.param("atomic-write", """
        from pathlib import Path

        def f(root, text):
            Path(root, "manifest.json").write_text(text)
    """, """
        from pathlib import Path

        def f(root, text):
            Path(root, "notes.md").write_text(text)
    """, id="write-text"),
    pytest.param("atomic-write", """
        from pathlib import Path

        def f(root, blob):
            (Path(root) / "scan.jsonl.gz").write_bytes(blob)
    """, """
        from pathlib import Path

        def f(root):
            return (Path(root) / "scan.jsonl.gz").read_bytes()
    """, id="write-bytes"),
    pytest.param("atomic-write", """
        import json
        import os

        def f(root, table):
            with open(os.path.join(root, "world.page-lengths.json"),
                      "w") as out:
                json.dump(table, out)
    """, """
        import json
        import os

        def f(root):
            with open(os.path.join(root, "world.page-lengths.json"),
                      "rb") as handle:
                return json.load(handle)
    """, id="page-length-table"),
]


@pytest.mark.parametrize("rule, flagged, clean", OWNERSHIP_CASES)
def test_ownership_rules(rule, flagged, clean):
    findings = run_lint(flagged)
    assert rule_ids(findings) == [rule], render_text(findings)
    assert rule_ids(run_lint(clean)) == []


def test_ownership_rules_skip_the_envelope_module():
    source = """
        def f(path, magic, blob):
            mapping = SegmentMapping(path, magic)
            with open("x.lshd", "wb") as out:
                out.write(blob)
            return mapping.header
    """
    assert sorted(rule_ids(run_lint(source))) == ["atomic-write",
                                                  "resource-owner"]
    assert run_lint(source, path="src/repro/util/envelope.py") == []


def test_atomic_write_flags_direct_checkpoint_write():
    findings = run_lint("""
        def f(stem, payload):
            with open(f"{stem}.lshd", "wb") as out:
                out.write(payload)
    """)
    assert rule_ids(findings) == ["atomic-write"]
    assert ".lshd" in findings[0].message


def test_atomic_write_clean_for_temp_then_rename():
    findings = run_lint("""
        import os

        def f(stem, payload):
            tmp = f"{stem}.lshd.tmp"
            with open(tmp, "wb") as out:
                out.write(payload)
            os.replace(tmp, f"{stem}.lshd")
    """)
    assert rule_ids(findings) == []


def test_atomic_write_clean_for_read_mode_and_unprotected_suffix():
    findings = run_lint("""
        def f(stem):
            with open(f"{stem}.lshd", "rb") as handle:
                head = handle.read(4)
            with open(f"{stem}.log", "w") as log:
                log.write("ok")
            return head
    """)
    assert rule_ids(findings) == []


# --------------------------------------------------------------------- #
# unused-import

def test_unused_import_flags_each_unread_name():
    findings = run_lint("""
        import os.path
        import numpy as np
        from typing import Dict, List

        def names(rows) -> List[str]:
            return [row.name for row in rows]
    """)
    assert rule_ids(findings) == ["unused-import"] * 3
    assert [f.message.split()[0] for f in findings] == ["os", "np", "Dict"]
    assert findings[0].severity == "error"


def test_unused_import_clean_for_reads_exports_and_future():
    findings = run_lint("""
        from __future__ import annotations

        import os.path
        from typing import TYPE_CHECKING, Optional
        from repro.core import timeouts as _timeouts
        from repro.httpsim.messages import Response
        from repro.lumscan.records import ScanDataset

        __all__ = ["ScanDataset"]

        if TYPE_CHECKING:
            pass

        def f(path) -> "Optional[Response]":
            return _timeouts.run(os.path.join(path))
    """)
    assert rule_ids(findings) == []


def test_unused_import_skips_package_init():
    source = """
        from repro.lint.rules import RULES
    """
    assert rule_ids(run_lint(source)) == ["unused-import"]
    assert run_lint(source, path="src/repro/fake/__init__.py") == []


# --------------------------------------------------------------------- #
# CLI: --explain and internal-error reporting

def test_cli_explain_prints_rationale_example_and_fix(capsys):
    assert lint_main(["--explain", "resource-owner"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "resource-owner" in out
    assert "Why:" in out
    assert "Example finding:" in out
    assert "Sanctioned fix:" in out
    assert "# lint: allow" in out


def test_cli_explain_unknown_rule_is_usage_error(capsys):
    assert lint_main(["--explain", "no-such-rule"]) == EXIT_USAGE
    assert "unknown rule" in capsys.readouterr().err


def test_cli_internal_error_lands_in_json_report(tmp_path, capsys,
                                                 monkeypatch):
    import repro.lint.cli as cli_module

    def boom(config):
        raise RuntimeError("injected analyzer crash")

    monkeypatch.setattr(cli_module, "analyze_paths", boom)
    out_file = tmp_path / "lint-report.json"
    fixture = tmp_path / "fixture.py"
    fixture.write_text("x = 1\n")
    code = lint_main([str(fixture), "--out", str(out_file)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "internal error" in err
    payload = json.loads(out_file.read_text())
    assert payload["internal_error"]["type"] == "RuntimeError"
    assert "injected analyzer crash" in payload["internal_error"]["message"]
    assert "Traceback" in payload["internal_error"]["traceback"]


# --------------------------------------------------------------------- #
# Acceptance: the shipped tree itself

def test_src_repro_is_clean_with_zero_suppressions(capsys):
    src = os.path.join(REPO_ROOT, "src", "repro")
    code = lint_main([src])
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN, out
    assert "0 error(s)" in out
    assert "0 suppressed" in out


def test_default_targets_pass_under_shipped_baseline():
    env = dict(os.environ)
    src_dir = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    assert result.returncode == EXIT_CLEAN, result.stdout + result.stderr
