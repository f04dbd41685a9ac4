"""Declarative resource-lifetime contracts for the flow-sensitive rules.

A contract names the functions that *acquire* a handle, the calls that
*release* it, and the calls that legitimately *transfer ownership* out of
the acquiring function.  The dataflow engine interprets contracts; it has
no built-in knowledge of any codec.  Three contract kinds exist:

* :class:`ResourceContract` — acquire/release pairing for a closeable
  handle (shard exchange, worldpack, spill builder, shm block, mmap).
* :class:`BufferContract` — a mapped buffer whose derived views (numpy
  arrays over the mapping) must not outlive ``close()``.
* :class:`AtomicContract` — checkpoint/manifest suffixes that may only be
  written through the temp-then-rename writers.

The built-in :data:`DEFAULT_CONTRACTS` registry seeds the analysis, and
every codec additionally *registers itself*: a module-level
``LINT_RESOURCE_CONTRACT = {...}`` literal (see ``util/envelope.py``)
is parsed out of each analyzed module and merged into the active
registry, so a new codec brings its own contract along instead of
patching the linter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Name of the module-level literal a codec uses to register contracts.
CONTRACT_ATTRIBUTE = "LINT_RESOURCE_CONTRACT"

#: Call wrappers recognized as producing an owned copy of a buffer view.
COPY_CALLS = frozenset({
    "copy", "tobytes", "bytes", "list", "tuple", "dict", "deepcopy",
    "array", "asarray_copy",
})


@dataclass(frozen=True)
class ResourceContract:
    """Acquire/release pairing contract for one closeable handle type."""

    name: str                         # "shard-exchange"
    codec: str                        # "shards"
    acquire: Tuple[str, ...]          # callables producing the handle
    release_methods: Tuple[str, ...]  # handle.<method>() releases
    release_funcs: Tuple[str, ...] = ()   # func(handle) releases
    handoff_funcs: Tuple[str, ...] = ()   # func(handle) takes ownership


@dataclass(frozen=True)
class BufferContract:
    """Mapped-buffer contract: derived views die with ``close()``."""

    name: str                         # "segment-mapping"
    codec: str
    acquire: Tuple[str, ...]          # callables producing the mapping
    close_methods: Tuple[str, ...]    # mapping.<method>() invalidates views
    view_methods: Tuple[str, ...] = ()    # mapping.<method>(...) -> view
    view_attrs: Tuple[str, ...] = ()      # mapping.<attr> -> raw buffer
    view_funcs: Tuple[str, ...] = ()      # func(mapping...) -> views


@dataclass(frozen=True)
class AtomicContract:
    """Protected on-disk suffixes and their sanctioned atomic writers."""

    codec: str
    suffixes: Tuple[str, ...]         # ".lshd", "manifest.json", ...
    writers: Tuple[str, ...]          # temp-then-rename entry points


#: Built-in registry: the project codecs plus the stdlib primitives they
#: are built on.  Codec modules re-declare their slice of this table via
#: ``LINT_RESOURCE_CONTRACT`` (merged at analysis time) so the contract
#: lives next to the code it constrains.
DEFAULT_CONTRACTS: Tuple[object, ...] = (
    # --- util.envelope: the one mapping, handle and atomic writer -- #
    ResourceContract(
        name="envelope-mapping", codec="envelope",
        acquire=("SegmentMapping", "open_shard"),
        release_methods=("close",),
        release_funcs=("release",)),
    BufferContract(
        name="envelope-mapping", codec="envelope",
        acquire=("SegmentMapping", "open_shard"),
        close_methods=("close",),
        view_methods=("array",),
        view_attrs=("buffer",),
        view_funcs=("decode_shard",)),
    AtomicContract(
        codec="envelope",
        suffixes=(".lshd", ".lshm", ".lshw", "manifest.json"),
        writers=("atomic_write", "publish", "write_segment_file",
                 "write_manifest", "store_segment", "adopt_segment",
                 "append_segment", "compact_manifest",
                 "dump_dataset_manifest", "write_worldpack_file")),
    # --- lumscan.shards -------------------------------------------- #
    ResourceContract(
        name="shard-exchange", codec="shards",
        acquire=("ShardExchange",),
        release_methods=("close",)),
    ResourceContract(
        name="spill-builder", codec="shards",
        acquire=("SpillDatasetBuilder",),
        release_methods=("finalize", "abort", "_cleanup")),
    # --- websim.worldpack ------------------------------------------ #
    ResourceContract(
        name="worldpack", codec="worldpack",
        acquire=("freeze_world", "WorldPack"),
        release_methods=("release",)),
    # --- stdlib primitives the envelope sits on -------------------- #
    ResourceContract(
        name="shared-memory", codec="stdlib",
        acquire=("shared_memory.SharedMemory", "SharedMemory"),
        release_methods=("close", "unlink")),
    ResourceContract(
        name="mmap", codec="stdlib",
        acquire=("mmap.mmap",),
        release_methods=("close",)),
    # --- other atomic persistence ---------------------------------- #
    AtomicContract(
        codec="store",
        suffixes=(".manifest.json",),
        writers=("_atomic_write_json",)),
    AtomicContract(
        codec="serialize",
        suffixes=(".jsonl", ".jsonl.gz"),
        writers=("_atomic_text_writer", "dump_dataset", "save_report")),
)


def _tail_matches(dotted: str, name: str) -> bool:
    """True when a resolved dotted call name matches a contract name.

    Contract names are written as the shortest unambiguous suffix
    ("ShardExchange", "shared_memory.SharedMemory"); a call matches when
    the full dotted path equals the name or ends with ``.<name>``.
    """
    return dotted == name or dotted.endswith("." + name)


@dataclass
class ContractRegistry:
    """The merged, queryable contract set for one lint run."""

    resources: List[ResourceContract] = field(default_factory=list)
    buffers: List[BufferContract] = field(default_factory=list)
    atomics: List[AtomicContract] = field(default_factory=list)

    @classmethod
    def from_contracts(cls, contracts: Sequence[object]) -> "ContractRegistry":
        registry = cls()
        for contract in contracts:
            registry.add(contract)
        return registry

    def add(self, contract: object) -> None:
        if isinstance(contract, ResourceContract):
            if contract not in self.resources:
                self.resources.append(contract)
        elif isinstance(contract, BufferContract):
            if contract not in self.buffers:
                self.buffers.append(contract)
        elif isinstance(contract, AtomicContract):
            if contract not in self.atomics:
                self.atomics.append(contract)
        else:
            raise TypeError(f"not a contract: {contract!r}")

    # ------------------------------------------------------------------ #
    # Queries the dataflow interpreter runs per call site.

    def match_acquire(self, dotted: str) -> Optional[ResourceContract]:
        for contract in self.resources:
            if any(_tail_matches(dotted, name) for name in contract.acquire):
                return contract
        return None

    def match_buffer(self, dotted: str) -> Optional[BufferContract]:
        for contract in self.buffers:
            if any(_tail_matches(dotted, name) for name in contract.acquire):
                return contract
        return None

    def resource(self, name: str) -> Optional[ResourceContract]:
        for contract in self.resources:
            if contract.name == name:
                return contract
        return None

    def buffer(self, name: str) -> Optional[BufferContract]:
        for contract in self.buffers:
            if contract.name == name:
                return contract
        return None

    def is_release_func(self, dotted: str, contract: ResourceContract) -> bool:
        return any(_tail_matches(dotted, name)
                   for name in contract.release_funcs)

    def is_handoff_func(self, dotted: str, contract: ResourceContract) -> bool:
        return any(_tail_matches(dotted, name)
                   for name in contract.handoff_funcs)

    def is_view_func(self, dotted: str, contract: BufferContract) -> bool:
        return any(_tail_matches(dotted, name)
                   for name in contract.view_funcs)

    def protected_suffix(self, text: str) -> Optional[str]:
        """The protected suffix a literal path ends with, if any."""
        for contract in self.atomics:
            for suffix in contract.suffixes:
                if text.endswith(suffix):
                    return suffix
        return None

    def atomic_writers(self) -> frozenset:
        names = set()
        for contract in self.atomics:
            names.update(contract.writers)
        return frozenset(names)


# --------------------------------------------------------------------- #
# Module-declared contracts

def _as_tuple(value: object) -> Tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        return (value,)
    return tuple(str(item) for item in value)


def contracts_from_literal(payload: Dict[str, object]) -> List[object]:
    """Build contract objects from one ``LINT_RESOURCE_CONTRACT`` dict."""
    codec = str(payload.get("codec", "unknown"))
    contracts: List[object] = []
    for entry in payload.get("resources", ()):  # type: ignore[union-attr]
        contracts.append(ResourceContract(
            name=str(entry["name"]), codec=codec,
            acquire=_as_tuple(entry.get("acquire")),
            release_methods=_as_tuple(entry.get("release_methods")),
            release_funcs=_as_tuple(entry.get("release_funcs")),
            handoff_funcs=_as_tuple(entry.get("handoff_funcs"))))
    for entry in payload.get("buffers", ()):  # type: ignore[union-attr]
        contracts.append(BufferContract(
            name=str(entry["name"]), codec=codec,
            acquire=_as_tuple(entry.get("acquire")),
            close_methods=_as_tuple(entry.get("close_methods")),
            view_methods=_as_tuple(entry.get("view_methods")),
            view_attrs=_as_tuple(entry.get("view_attrs")),
            view_funcs=_as_tuple(entry.get("view_funcs"))))
    atomic = payload.get("atomic")
    if isinstance(atomic, dict):
        contracts.append(AtomicContract(
            codec=codec,
            suffixes=_as_tuple(atomic.get("suffixes")),
            writers=_as_tuple(atomic.get("writers"))))
    return contracts


def declared_contracts(tree: ast.Module) -> List[object]:
    """Contracts a module registers via ``LINT_RESOURCE_CONTRACT``.

    The declaration must be a pure literal (``ast.literal_eval``-able);
    anything else is ignored rather than executed.
    """
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Name)
                and target.id == CONTRACT_ATTRIBUTE):
            continue
        try:
            payload = ast.literal_eval(node.value)
        except (ValueError, SyntaxError):
            return []
        if isinstance(payload, dict):
            return contracts_from_literal(payload)
    return []


def build_registry(contracts: Sequence[object],
                   trees: Iterable[ast.Module] = ()) -> ContractRegistry:
    """Merge the configured contracts with module-declared ones."""
    registry = ContractRegistry.from_contracts(contracts)
    for tree in trees:
        for contract in declared_contracts(tree):
            registry.add(contract)
    return registry
