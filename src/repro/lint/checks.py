"""Per-module AST checks for the determinism, ownership and import rules.

Each check takes a :class:`~repro.lint.visitor.ModuleInfo` and yields raw
:class:`~repro.lint.report.Finding`\\ s at the rule's default severity;
tier demotion and suppression matching happen in :mod:`repro.lint.engine`.
"""

from __future__ import annotations

import ast
import posixpath
from typing import Iterable, List, Optional, Sequence, Set

from repro.lint.report import Finding
from repro.lint.rules import (
    ENVELOPE_FILES,
    FS_ENUM_CALLS,
    FS_ENUM_METHODS,
    GLOBAL_RANDOM_ALLOWED,
    GLOBAL_RANDOM_PREFIXES,
    OPEN_CALLS,
    ORDER_FREE_CONSUMERS,
    OWNED_CALLS,
    PICKLABLE_CONTAINERS,
    PICKLABLE_LEAVES,
    PROTECTED_SUFFIXES,
    RAW_ENTROPY_CALLS,
    RAW_ENTROPY_PREFIXES,
    RELEASE_CALLS,
    RULES_BY_ID,
    SANCTIONED_CLOCK_FILES,
    SEED_KEYWORDS,
    SEEDED_CONSTRUCTORS,
    SERIALIZATION_FUNCTIONS,
    SERIALIZATION_SINKS,
    UNPICKLABLE_LEAVES,
    WALL_CLOCK_CALLS,
    WRITE_METHODS,
)
from repro.lint.visitor import ModuleInfo, _annotation_head, parent_of


def _finding(module: ModuleInfo, node: ast.AST, rule_id: str,
             message: str) -> Finding:
    line = getattr(node, "lineno", 1)
    return Finding(
        path=module.path,
        line=line,
        column=getattr(node, "col_offset", 0) + 1,
        rule_id=rule_id,
        severity=RULES_BY_ID[rule_id].severity,
        message=message,
        line_text=module.line_text(line),
    )


def _normalized(path: str) -> str:
    return path.replace("\\", "/")


def _is_order_free_consumer(node: ast.AST) -> bool:
    """True when the node is an argument of an order-insensitive call."""
    parent = parent_of(node)
    if isinstance(parent, ast.Call) and node in parent.args:
        func = parent.func
        name = func.id if isinstance(func, ast.Name) else None
        return name in ORDER_FREE_CONSUMERS
    return False


# --------------------------------------------------------------------- #
# wall-clock / raw-entropy / global-random

def _unseeded(call: ast.Call) -> bool:
    """True when a generator construction passes no seed, or None.

    A starred argument or ``**kwargs`` may carry a seed, so it counts as
    seeded.
    """
    if (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg is None for kw in call.keywords)):
        return False
    seeds = call.args[:1] + [kw.value for kw in call.keywords
                             if kw.arg in SEED_KEYWORDS]
    return all(isinstance(seed, ast.Constant) and seed.value is None
               for seed in seeds)


def check_clock_and_entropy(module: ModuleInfo) -> List[Finding]:
    """wall-clock, raw-entropy, and global-random in one AST walk."""
    findings: List[Finding] = []
    sanctioned_clock = _normalized(module.path).endswith(SANCTIONED_CLOCK_FILES)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = module.dotted_name(node.func)
        if dotted is None:
            continue
        if dotted in WALL_CLOCK_CALLS and not sanctioned_clock:
            findings.append(_finding(
                module, node, "wall-clock",
                f"{dotted}() reads the process clock; route timing "
                f"through repro.util.clock.Clock"))
        elif (dotted in RAW_ENTROPY_CALLS
                or dotted.startswith(RAW_ENTROPY_PREFIXES)):
            findings.append(_finding(
                module, node, "raw-entropy",
                f"{dotted}() draws OS entropy; derive randomness with "
                f"repro.util.rng.derive_rng instead"))
        elif dotted in SEEDED_CONSTRUCTORS and _unseeded(node):
            findings.append(_finding(
                module, node, "raw-entropy",
                f"{dotted}() without a seed seeds from OS entropy; "
                f"derive randomness with repro.util.rng.derive_rng"))
        elif (dotted.startswith(GLOBAL_RANDOM_PREFIXES)
                and dotted not in GLOBAL_RANDOM_ALLOWED):
            findings.append(_finding(
                module, node, "global-random",
                f"{dotted}() draws from the shared global stream; use a "
                f"generator from repro.util.rng.derive_rng"))
    return findings


# --------------------------------------------------------------------- #
# fs-order

def check_fs_order(module: ModuleInfo) -> List[Finding]:
    """Unsorted filesystem enumeration."""
    findings: List[Finding] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = module.dotted_name(node.func)
        enum_name: Optional[str] = None
        if dotted in FS_ENUM_CALLS:
            enum_name = dotted
        elif isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in FS_ENUM_METHODS:
                enum_name = f"<path>.{attr}"
            elif attr == "glob" and (dotted is None
                                     or not dotted.startswith("glob.")):
                enum_name = "<path>.glob"
        if enum_name is None:
            continue
        parent = parent_of(node)
        if (isinstance(parent, ast.Call) and node in parent.args
                and isinstance(parent.func, ast.Name)
                and parent.func.id in ORDER_FREE_CONSUMERS):
            continue
        findings.append(_finding(
            module, node, "fs-order",
            f"{enum_name}() enumerates in filesystem order; wrap the "
            f"call in sorted(...)"))
    return findings


# --------------------------------------------------------------------- #
# iter-order

_DICT_VIEWS = ("items", "keys", "values")
_SET_HEADS = ("set", "frozenset")
_SET_ANNOTATIONS = ("Set", "FrozenSet", "set", "frozenset", "MutableSet")
_SET_METHODS = ("union", "intersection", "difference",
                "symmetric_difference")
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _function_nodes(tree: ast.Module) -> Iterable[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node


def _calls_serialization_sink(module: ModuleInfo,
                              func: ast.FunctionDef) -> bool:
    if func.name in SERIALIZATION_FUNCTIONS:
        return True
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        dotted = module.dotted_name(node.func)
        if dotted is None:
            continue
        if dotted in SERIALIZATION_SINKS:
            return True
        if dotted.rsplit(".", 1)[-1] in SERIALIZATION_SINKS:
            return True
    return False


def _set_names(func: ast.FunctionDef) -> Set[str]:
    """Local names statically known to hold sets."""
    names: Set[str] = set()
    for node in ast.walk(func):
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and _is_set_expr(node.value, names):
                names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            head = _annotation_head(node.annotation)
            if head in _SET_ANNOTATIONS:
                names.add(node.target.id)
    return names


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _SET_HEADS:
            return True
        if (isinstance(func, ast.Attribute) and func.attr in _SET_METHODS
                and _is_set_expr(func.value, set_names)):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    return False


def _iterated_position(node: ast.AST) -> bool:
    """True when the expression's order is observed by its consumer."""
    parent = parent_of(node)
    if isinstance(parent, ast.For) and parent.iter is node:
        return True
    if isinstance(parent, ast.comprehension) and parent.iter is node:
        return True
    if (isinstance(parent, ast.Call) and node in parent.args
            and isinstance(parent.func, ast.Name)
            and parent.func.id in ("list", "tuple", "iter",
                                   "enumerate", "reversed")):
        return True
    return False


def check_iter_order(module: ModuleInfo) -> List[Finding]:
    """Unordered iteration inside serialization contexts."""
    findings: List[Finding] = []
    for func in _function_nodes(module.tree):
        if not _calls_serialization_sink(module, func):
            continue
        set_names = _set_names(func)
        for node in ast.walk(func):
            hazard: Optional[str] = None
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DICT_VIEWS
                    and not node.args):
                hazard = (f".{node.func.attr}() iteration order is the "
                          f"mapping's insertion order")
            elif _is_set_expr(node, set_names):
                hazard = "set iteration order depends on PYTHONHASHSEED"
            if hazard is None or not _iterated_position(node):
                continue
            if _is_order_free_consumer(node):
                continue
            ordered = module.ordered_on(node.lineno)
            if ordered is not None:
                ordered.used = True
                continue
            findings.append(_finding(
                module, node, "iter-order",
                f"{hazard}, and this function serializes; wrap in "
                f"sorted(...) or document the guarantee with "
                f"# lint: ordered(<reason>)"))
    return findings


# --------------------------------------------------------------------- #
# spec-pickle

def _annotation_problem(node: ast.AST,
                        project_classes: Set[str]) -> Optional[str]:
    """Why an annotation is not statically picklable (None when fine)."""
    if isinstance(node, ast.Constant):
        if node.value is None or node.value is Ellipsis:
            return None
        if isinstance(node.value, str):
            head = node.value.split("[", 1)[0].strip().rsplit(".", 1)[-1]
            return _head_problem(head, project_classes)
        return None
    if isinstance(node, ast.Subscript):
        head = _annotation_head(node.value) or _annotation_head(node)
        problem = _head_problem(head, project_classes)
        if problem:
            return problem
        elements = node.slice
        children = (elements.elts if isinstance(elements, ast.Tuple)
                    else [elements])
        for child in children:
            problem = _annotation_problem(child, project_classes)
            if problem:
                return problem
        return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        return _head_problem(_annotation_head(node), project_classes)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # PEP 604 unions: X | Y
        return (_annotation_problem(node.left, project_classes)
                or _annotation_problem(node.right, project_classes))
    return None


def _head_problem(head: Optional[str],
                  project_classes: Set[str]) -> Optional[str]:
    if head is None:
        return "annotation cannot be resolved statically"
    if head in UNPICKLABLE_LEAVES:
        return f"{head} cannot be guaranteed picklable"
    if head in PICKLABLE_LEAVES or head in PICKLABLE_CONTAINERS:
        return None
    if head in project_classes:
        return None
    return f"unknown type {head!r} cannot be verified picklable"


def check_spec_pickle(module: ModuleInfo,
                      project_classes: Set[str]) -> List[Finding]:
    """*Spec dataclasses must have statically picklable fields."""
    findings: List[Finding] = []
    for info in module.classes.values():
        if not (info.is_dataclass and info.name.endswith("Spec")):
            continue
        for item in info.node.body:
            if not isinstance(item, ast.AnnAssign):
                continue
            if not isinstance(item.target, ast.Name):
                continue
            problem = _annotation_problem(item.annotation, project_classes)
            if problem is None:
                continue
            findings.append(_finding(
                module, item, "spec-pickle",
                f"{info.name}.{item.target.id}: {problem} (specs are "
                f"pickled into process workers)"))
    return findings


# --------------------------------------------------------------------- #
# resource-owner

def _call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _next_statement(statement: ast.AST) -> Optional[ast.AST]:
    """The statement after ``statement`` in its block, if any."""
    for _, block in ast.iter_fields(parent_of(statement)):
        if isinstance(block, list):
            for index, item in enumerate(block):
                if item is statement:
                    return block[index + 1] if index + 1 < len(block) \
                        else None
    return None


def _releases(body: Sequence[ast.AST], name: str) -> bool:
    """True when ``body`` closes, aborts or releases the local ``name``."""
    for node in (sub for statement in body for sub in ast.walk(statement)):
        if not (isinstance(node, ast.Call)
                and _call_name(node) in RELEASE_CALLS):
            continue
        receiver = getattr(node.func, "value", None)
        if isinstance(receiver, ast.Name) and receiver.id == name:
            return True
        if any(isinstance(arg, ast.Name) and arg.id == name
               for arg in node.args):
            return True
    return False


def _guarded(statement: ast.AST, name: str) -> bool:
    """True when a try right after ``statement`` releases ``name`` in
    its finally or ``except BaseException`` branch."""
    following = _next_statement(statement)
    if not isinstance(following, ast.Try):
        return False
    branches = [following.finalbody] + [
        handler.body for handler in following.handlers
        if isinstance(handler.type, ast.Name)
        and handler.type.id == "BaseException"]
    return any(_releases(body, name) for body in branches)


def _has_owner(node: ast.Call) -> bool:
    """True when the call's result goes straight to an owner."""
    parent = parent_of(node)
    if isinstance(parent, ast.keyword):
        parent = parent_of(parent)
        return isinstance(parent, ast.Call)
    if isinstance(parent, ast.withitem):
        return parent.context_expr is node
    if isinstance(parent, ast.Return):
        return True
    if isinstance(parent, ast.Call):
        return any(arg is node for arg in parent.args)
    if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
        target = parent.targets[0]
    elif isinstance(parent, ast.AnnAssign):
        target = parent.target
    else:
        return False
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return True
    return isinstance(target, ast.Name) and _guarded(parent, target.id)


def check_resource_owner(module: ModuleInfo) -> List[Finding]:
    """Every handle-acquiring call hands its result to an owner."""
    if _normalized(module.path).endswith(ENVELOPE_FILES):
        return []
    findings: List[Finding] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name in OWNED_CALLS and not _has_owner(node):
            findings.append(_finding(
                module, node, "resource-owner",
                f"{name}(...) has no owner: use it as a with item, "
                f"return it, store it on self, pass it straight to a "
                f"call, or bind it and release it in the finally or "
                f"except BaseException branch of the try that follows"))
    return findings


# --------------------------------------------------------------------- #
# atomic-write

def _path_text(node: ast.AST) -> Optional[str]:
    """The literal text of a path expression, f-string holes as ``{}``.

    ``a + b`` and ``a / b`` read as their right operand and a call such
    as ``Path(...)`` or ``os.path.join(...)`` as its last argument.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(value.value if isinstance(value, ast.Constant)
                       else "{}" for value in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op,
                                                  (ast.Add, ast.Div)):
        return _path_text(node.right)
    if isinstance(node, ast.Call) and node.args:
        return _path_text(node.args[-1])
    return None


def _write_mode(call: ast.Call) -> bool:
    mode = call.args[1] if len(call.args) >= 2 else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    return (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            and any(flag in mode.value for flag in "wxa+"))


def check_atomic_write(module: ModuleInfo) -> List[Finding]:
    """Direct writes to checkpoint-suffixed path literals."""
    if _normalized(module.path).endswith(ENVELOPE_FILES):
        return []
    findings: List[Finding] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if module.dotted_name(func) in OPEN_CALLS:
            if not node.args or not _write_mode(node):
                continue
            target = node.args[0]
        elif isinstance(func, ast.Attribute) and func.attr in WRITE_METHODS:
            target = func.value
        else:
            continue
        text = _path_text(target) or ""
        suffix = next((suffix for suffix in PROTECTED_SUFFIXES
                       if text.endswith(suffix)), None)
        if suffix is not None:
            findings.append(_finding(
                module, node, "atomic-write",
                f"direct write to a '{suffix}' path can leave a torn "
                f"file; write through repro.util.envelope.atomic_write "
                f"or a codec writer built on it"))
    return findings


# --------------------------------------------------------------------- #
# unused-import

def _annotations(tree: ast.Module) -> Iterable[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module mentions, quoted annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(name.id for name in ast.walk(quoted)
                             if isinstance(name, ast.Name))
    return names


def _exported_names(tree: ast.Module) -> Set[str]:
    """String entries of a module-level ``__all__`` (=, += or annotated)."""
    exported: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if node.value is not None and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in targets):
            exported.update(item.value for item in ast.walk(node.value)
                            if isinstance(item, ast.Constant)
                            and isinstance(item.value, str))
    return exported


def check_unused_import(module: ModuleInfo) -> List[Finding]:
    """Imported names that appear nowhere else in the module."""
    if posixpath.basename(_normalized(module.path)) == "__init__.py":
        return []
    read = _read_names(module.tree) | _exported_names(module.tree)
    findings: List[Finding] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0]
                     for alias in node.names]
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names
                     if alias.name != "*"]
        else:
            continue
        findings.extend(
            _finding(module, node, "unused-import",
                     f"{name} is imported but never read; delete it (or "
                     f"list it in __all__ if it is a re-export)")
            for name in bound if name not in read)
    return findings
