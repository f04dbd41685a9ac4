"""Rule registry: ids, severities, rationale, and the name tables they use.

A :class:`Rule` is pure metadata — detection logic lives in
:mod:`repro.lint.checks` (per-module AST checks) and
:mod:`repro.lint.engine` (the cross-module reachability pass).  Keeping
the tables here makes the contract auditable in one place and lets the
docs and ``--list-rules`` render straight from the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

SEVERITY_ERROR = "error"
SEVERITY_WARN = "warn"


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity, default severity, and rationale.

    ``example`` and ``fix`` feed ``--explain <RULE>``: a minimal
    violating snippet and the sanctioned repair pattern (including the
    ``# lint:`` directive vocabulary where one applies).
    """

    rule_id: str
    severity: str
    summary: str
    rationale: str
    example: str = ""
    fix: str = ""


RULES: Tuple[Rule, ...] = (
    Rule(
        rule_id="wall-clock",
        severity=SEVERITY_ERROR,
        summary="direct clock read outside repro.util.clock",
        rationale=(
            "time.time()/datetime.now()/perf_counter() make output a "
            "function of when the code ran, not of (seed, config).  All "
            "elapsed-time measurement goes through the injectable "
            "repro.util.clock.Clock so tests can freeze it and replayed "
            "runs stay comparable."
        ),
    ),
    Rule(
        rule_id="raw-entropy",
        severity=SEVERITY_ERROR,
        summary=("OS entropy source (os.urandom / uuid / secrets / a "
                 "generator constructed without a seed)"),
        rationale=(
            "Kernel entropy can never be replayed.  Identifiers and "
            "tokens must be drawn from a derived generator "
            "(repro.util.rng.derive_rng) so two runs with the same seed "
            "emit identical streams.  random.Random(), _random.Random() "
            "and numpy.random.default_rng() with no seed (or None) seed "
            "themselves from the kernel too."
        ),
    ),
    Rule(
        rule_id="global-random",
        severity=SEVERITY_ERROR,
        summary="module-level random.* call (shared global stream)",
        rationale=(
            "The module-level random functions share one global Mersenne "
            "state: any new consumer perturbs every stream drawn after "
            "it, and worker interleaving makes draws order-dependent.  "
            "Task code must use generators derived via "
            "repro.util.rng.derive_rng (random.Random construction is "
            "allowed)."
        ),
    ),
    Rule(
        rule_id="fs-order",
        severity=SEVERITY_ERROR,
        summary="unsorted filesystem enumeration",
        rationale=(
            "os.listdir/glob.glob/Path.iterdir return entries in an "
            "order the filesystem chooses; anything derived from the "
            "sequence becomes machine-dependent.  Wrap the call in "
            "sorted(...) (or consume it order-insensitively)."
        ),
    ),
    Rule(
        rule_id="iter-order",
        severity=SEVERITY_ERROR,
        summary="unordered iteration flowing into a serialization sink",
        rationale=(
            "Set iteration order depends on PYTHONHASHSEED, and dict "
            "iteration is only deterministic when the insertion order "
            "is.  Where such iteration feeds a serializer "
            "(json.dump*, run.codecs.encode_artifact, "
            "lumscan.serialize, analysis.store), it must be wrapped in "
            "sorted(...) or carry an explicit order guarantee: "
            "# lint: ordered(<why the order is deterministic>)."
        ),
    ),
    Rule(
        rule_id="shared-mutation",
        severity=SEVERITY_ERROR,
        summary="shared self.* mutation on the scan-worker path",
        rationale=(
            "Code reachable from the ScanEngine worker surface runs "
            "concurrently; mutating self state there is a data race "
            "unless it goes through a sanctioned primitive "
            "(util.counters.ShardedCounter, util.cache.LRUCache / "
            "MemoDict), is guarded by a lock attribute, or the owning "
            "class is declared thread-confined "
            "(# lint: confined(<reason>) in the class body) because "
            "instances never cross workers (the queue/merge-in-parent "
            "pattern)."
        ),
    ),
    Rule(
        rule_id="spec-pickle",
        severity=SEVERITY_ERROR,
        summary="*Spec dataclass field is not statically picklable",
        rationale=(
            "Spec dataclasses are the recipes shipped to process-pool "
            "workers; every field annotation must resolve to a "
            "picklable type.  object/Any/Callable (and lock/thread/IO "
            "types) defeat the static guarantee that spawning a worker "
            "replica cannot fail at pickling time."
        ),
    ),
    # ----------------------------------------------------------------- #
    # Resource ownership: syntactic rules over the envelope's callers.
    Rule(
        rule_id="resource-owner",
        severity=SEVERITY_ERROR,
        summary="mapping, shard session, spill builder or pack without "
                "an owner",
        rationale=(
            "Segment mappings, shard exchanges, spill builders and "
            "worldpacks hold mmap pages, shm blocks or spill "
            "directories until someone releases them.  Outside "
            "repro.util.envelope every call that acquires one must "
            "hand it to an owner on the spot: a with item, a return "
            "operand, an assignment to self.<attr> (the object's "
            "close() releases it), a direct argument of another call "
            "(ExitStack.enter_context, a dataset that owns its "
            "source), or a local binding whose next statement is a try "
            "whose finally or except BaseException branch closes, "
            "aborts or releases it.  At run time the envelope ledger, "
            "checked after every test, catches what still leaks."
        ),
        example=(
            "def scan(handle):\n"
            "    reader = open_shard(handle)   # <- no owner\n"
            "    rows = count(reader)\n"
            "    reader.close()                # skipped if count raises\n"
            "    return rows"
        ),
        fix=(
            "Use a with-block (with open_shard(handle) as reader: ...), "
            "or bind the handle and open a try right after it:\n"
            "    reader = open_shard(handle)\n"
            "    try:\n"
            "        return count(reader)\n"
            "    finally:\n"
            "        reader.close()\n"
            "For a handle acquired only on one branch, enter it on a "
            "contextlib.ExitStack."
        ),
    ),
    Rule(
        rule_id="atomic-write",
        severity=SEVERITY_ERROR,
        summary="checkpoint write bypasses temp-then-rename",
        rationale=(
            "Checkpoint segments (.lshd), stage manifests "
            "(manifest.json), worldpacks (.lshw) and JSONL datasets are "
            "only valid when they appear atomically: a direct "
            "open(path, 'wb') can be interrupted mid-write and leave a "
            "torn file that resume then trusts.  A write-mode open() "
            "or write_text()/write_bytes() whose path literal ends in "
            "one of these suffixes is flagged outside "
            "repro.util.envelope."
        ),
        example=(
            "def save(columns, stem):\n"
            "    with open(f\"{stem}.lshd\", \"wb\") as out:  # <- torn\n"
            "        out.write(encode_shard(columns).to_bytes())  # on crash"
        ),
        fix=(
            "Call the codec's atomic writer (write_segment_file, "
            "write_worldpack_file, ...) or write through "
            "repro.util.envelope.atomic_write, which writes a "
            "'.tmp.<pid>' sibling and os.replace()s it into place."
        ),
    ),
    Rule(
        rule_id="unused-import",
        severity=SEVERITY_ERROR,
        summary="imported name the module never reads",
        rationale=(
            "An import nothing reads still loads its module, still reads "
            "as a dependency, and outlives the code that needed it: "
            "removals leave them behind.  A name counts as read when it "
            "appears anywhere in the module (a quoted annotation "
            "included) or in its __all__; package __init__.py files, "
            "which import to re-export, are skipped."
        ),
        example=(
            "from typing import Dict, List   # <- Dict is never read\n"
            "\n"
            "def names(rows) -> List[str]:\n"
            "    return [row.name for row in rows]"
        ),
        fix=(
            "Delete the name from the import.  A deliberate re-export "
            "goes in the module's __all__."
        ),
    ),
)

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in RULES}


def is_known_rule(rule_id: str) -> bool:
    """True when ``rule_id`` names a registered rule."""
    return rule_id in RULES_BY_ID


# --------------------------------------------------------------------- #
# Name tables the checks interpret.  Dotted names are post-resolution:
# the visitor canonicalizes imports/aliases before the lookup, so
# ``from time import time as now; now()`` still resolves to "time.time".

#: Clock reads (wall and monotonic) banned outside the clock module.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.localtime", "time.gmtime",
    "time.ctime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Files allowed to touch the process clock: the Clock implementation is
#: the single sanctioned boundary between the repo and real time.
SANCTIONED_CLOCK_FILES = ("repro/util/clock.py",)

#: OS entropy sources that can never be replayed from a seed.
RAW_ENTROPY_CALLS = frozenset({
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid3", "uuid.uuid4", "uuid.uuid5",
    "random.SystemRandom",
})

#: Any call into this namespace is raw entropy.
RAW_ENTROPY_PREFIXES = ("secrets.",)

#: Generator constructors that seed from OS entropy when given no seed
#: (no argument, or None).
SEEDED_CONSTRUCTORS = frozenset({
    "random.Random", "_random.Random",
    "numpy.random.default_rng", "numpy.random.SeedSequence",
    "numpy.random.PCG64", "numpy.random.Philox",
})

#: Keyword names under which those constructors take their seed.
SEED_KEYWORDS = frozenset({"x", "seed", "entropy"})

#: Module-level random.* callables that are allowed (constructors of
#: private generators, not draws from the shared global stream).
GLOBAL_RANDOM_ALLOWED = frozenset({
    "random.Random",
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.SeedSequence", "numpy.random.PCG64",
    "numpy.random.Philox",
})

GLOBAL_RANDOM_PREFIXES = ("random.", "numpy.random.")

#: Filesystem enumerations whose order the OS chooses.
FS_ENUM_CALLS = frozenset({
    "os.listdir", "os.scandir", "os.walk",
    "glob.glob", "glob.iglob",
})

#: Method names treated as Path-style enumeration on any receiver.
FS_ENUM_METHODS = frozenset({"iterdir", "rglob"})

#: Wrappers that make enumeration/iteration order irrelevant.
ORDER_FREE_CONSUMERS = frozenset({
    "sorted", "len", "sum", "min", "max", "any", "all",
    "set", "frozenset", "Counter", "dict",
})

#: Serialization sinks: a function that calls one of these (or is one of
#: these) is a serialization context for the iter-order rule.
SERIALIZATION_SINKS = frozenset({
    "json.dump", "json.dumps",
    "encode_artifact", "dump_dataset", "save_report",
    "_atomic_write_json",
    "encode_shard", "write_shard", "decode_shard",
    "write_segment_file",
    "encode_worldpack", "write_worldpack_file", "publish",
})

#: Functions whose own body *is* a serializer (context even without a
#: direct sink call in the body).
SERIALIZATION_FUNCTIONS = frozenset({
    "encode_artifact", "dump_dataset", "save_report",
    "encode_shard", "write_shard", "decode_shard",
    "write_segment_file",
    "encode_worldpack", "write_worldpack_file", "publish",
})

#: Calls that acquire a mapping, shm block, spill directory or pack that
#: must be released: the resource-owner rule's subjects.
OWNED_CALLS = frozenset({
    "SegmentMapping", "open_shard", "ShardExchange",
    "SpillDatasetBuilder", "freeze_world", "WorldPack",
})

#: Method or function names that close, abort or release a handle.
RELEASE_CALLS = frozenset({"close", "abort", "release"})

#: The one module that owns every mmap and shm call and writes protected
#: files itself; both ownership rules skip it.
ENVELOPE_FILES = ("repro/util/envelope.py",)

#: Suffixes of files that may only appear by temp-then-rename.
PROTECTED_SUFFIXES = (".lshd", ".lshw", "manifest.json",
                      "page-lengths.json", ".jsonl", ".jsonl.gz")

#: Opening calls and path methods the atomic-write rule inspects.
OPEN_CALLS = frozenset({"open", "io.open", "gzip.open", "bz2.open",
                        "lzma.open"})
WRITE_METHODS = frozenset({"write_text", "write_bytes"})

#: Entry points of the scan-engine worker surface.  Reachability for the
#: shared-mutation rule starts here (dotted module paths, optionally
#: Class.method).
WORKER_ROOTS = (
    "repro.lumscan.engine.record_probe",
    "repro.lumscan.engine._process_run_chunk",
    "repro.lumscan.engine.ScanEngine._run_chunk",
    "repro.lumscan.scanner.Lumscan.run_task",
    "repro.proxynet.luminati.LuminatiClient.request",
    "repro.proxynet.transport.fetch_with_redirects",
    "repro.websim.world.World.fetch",
)

#: Concurrency primitives whose mutation API is sanctioned on the worker
#: path (their internal implementation files are likewise exempt).
SANCTIONED_MUTABLE_TYPES = frozenset({
    "ShardedCounter", "LRUCache", "MemoDict",
    "Queue", "SimpleQueue", "LifoQueue", "deque",
})

#: Implementation files of the sanctioned primitives (exempt from the
#: shared-mutation rule — they *are* the synchronization layer).
SANCTIONED_IMPL_FILES = ("repro/util/counters.py", "repro/util/cache.py")

#: Lock-ish types: a with-block on a self attribute of one of these
#: types sanctions the mutations inside it.
LOCK_TYPES = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
})

#: Thread-local containers: attribute writes through these are private
#: to the writing thread by construction.
THREAD_LOCAL_TYPES = frozenset({"local"})

#: Mutating method names on unsanctioned receivers.
MUTATOR_METHODS = frozenset({
    "append", "add", "update", "setdefault", "pop", "popitem",
    "clear", "remove", "discard", "extend", "insert", "put",
    "sort", "reverse", "increment", "appendleft", "extendleft",
})

#: Annotation heads that are always picklable.
PICKLABLE_LEAVES = frozenset({
    "str", "int", "float", "bool", "bytes", "complex", "None",
    "NoneType",
})

#: Typing containers whose arguments must recursively be picklable.
PICKLABLE_CONTAINERS = frozenset({
    "Optional", "Tuple", "List", "Dict", "Set", "FrozenSet",
    "Sequence", "Mapping", "Iterable", "Union", "tuple", "list",
    "dict", "set", "frozenset",
})

#: Annotation heads that defeat the static pickling guarantee.
UNPICKLABLE_LEAVES = frozenset({
    "object", "Any", "Callable", "Lock", "RLock", "Thread",
    "TextIO", "BinaryIO", "IO", "Generator", "Iterator",
})
