"""Per-module AST indexing: imports, classes, comments, name resolution.

One :class:`ModuleInfo` is built per analyzed file.  It carries everything
the checks need without re-walking the tree: parent links on every node,
canonical dotted-name resolution through import aliases, the class index
(methods, attribute types inferred from ``__init__``, lock attributes),
and the comment directives (``allow`` suppressions, ``ordered`` order
guarantees, ``confined`` class declarations) read via ``tokenize`` so
string literals can never masquerade as directives.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lint.rules import LOCK_TYPES, SANCTIONED_MUTABLE_TYPES, THREAD_LOCAL_TYPES

#: ``# lint: allow(rule-id: reason)`` / ``# lint: ordered(reason)`` /
#: ``# lint: confined(reason)``
_DIRECTIVE = re.compile(
    r"#\s*lint:\s*(?P<kind>allow|ordered|confined)\s*"
    r"\(\s*(?P<body>[^)]*)\s*\)")


@dataclass
class Directive:
    """One parsed lint comment directive."""

    kind: str                     # "allow" | "ordered" | "confined"
    line: int
    rule_id: Optional[str] = None  # allow() only
    reason: str = ""
    used: bool = False


@dataclass
class ClassInfo:
    """Summary of one class definition."""

    name: str
    node: ast.ClassDef
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: self attribute -> inferred type name (constructor or annotation).
    attr_types: Dict[str, str] = field(default_factory=dict)
    is_dataclass: bool = False
    confined: bool = False        # declared thread-confined via directive

    def lock_attrs(self) -> Tuple[str, ...]:
        """Self attributes holding lock-ish objects."""
        return tuple(attr for attr, type_name in self.attr_types.items()
                     if type_name in LOCK_TYPES)

    def sanctioned_attrs(self) -> Tuple[str, ...]:
        """Self attributes holding sanctioned concurrency primitives."""
        sanctioned = SANCTIONED_MUTABLE_TYPES | THREAD_LOCAL_TYPES
        return tuple(attr for attr, type_name in self.attr_types.items()
                     if type_name in sanctioned)


@dataclass
class ModuleInfo:
    """Everything the checks need to know about one parsed module."""

    path: str                     # display path (as given / relative)
    modname: str                  # dotted module name ("repro.cli")
    tree: ast.Module
    source_lines: List[str]
    #: local alias -> imported module ("np" -> "numpy")
    import_aliases: Dict[str, str] = field(default_factory=dict)
    #: local alias -> (module, attribute) for from-imports
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    directives: List[Directive] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Directives

    def directives_on(self, line: int, kind: str) -> List[Directive]:
        """Directives of one kind attached to a physical line."""
        return [d for d in self.directives
                if d.kind == kind and d.line == line]

    def allow_for(self, line: int, rule_id: str) -> Optional[Directive]:
        """The ``allow`` directive suppressing ``rule_id`` on ``line``."""
        for directive in self.directives_on(line, "allow"):
            if directive.rule_id == rule_id:
                return directive
        return None

    def ordered_on(self, line: int) -> Optional[Directive]:
        """The ``ordered`` guarantee documented on ``line``, if any."""
        found = self.directives_on(line, "ordered")
        return found[0] if found else None

    # ------------------------------------------------------------------ #
    # Name resolution

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a Name/Attribute chain, or None.

        Import aliases are resolved: with ``import numpy as np`` the
        expression ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng``; with ``from time import time as t``
        the name ``t`` resolves to ``time.time``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in self.from_imports:
            module, attr = self.from_imports[root]
            base = f"{module}.{attr}"
        elif root in self.import_aliases:
            base = self.import_aliases[root]
        else:
            base = root
        parts.append(base)
        return ".".join(reversed(parts))

    def line_text(self, line: int) -> str:
        """The stripped source text of a 1-based physical line."""
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1].strip()
        return ""


def set_parents(tree: ast.Module) -> None:
    """Attach a ``.lint_parent`` pointer to every node."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.lint_parent = node  # type: ignore[attr-defined]


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    """The parent attached by :func:`set_parents` (None at the root)."""
    return getattr(node, "lint_parent", None)


def _parse_directives(source: str) -> List[Directive]:
    directives: List[Directive] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(token.start[0], token.string) for token in tokens
                    if token.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return directives
    for line, text in comments:
        match = _DIRECTIVE.search(text)
        if match is None:
            continue
        kind = match.group("kind")
        body = match.group("body").strip()
        if kind == "allow":
            rule_id, _, reason = body.partition(":")
            directives.append(Directive(kind=kind, line=line,
                                        rule_id=rule_id.strip(),
                                        reason=reason.strip()))
        else:
            directives.append(Directive(kind=kind, line=line, reason=body))
    return directives


def _annotation_head(annotation: ast.AST) -> Optional[str]:
    """The rightmost head name of an annotation node ("LRUCache",
    "Optional", ...)."""
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        # String (forward-reference) annotation: take the head token.
        head = annotation.value.split("[", 1)[0].strip()
        return head.rsplit(".", 1)[-1] or None
    return None


def _infer_attr_type(value: ast.AST,
                     param_types: Dict[str, str]) -> Optional[str]:
    """Infer a type name for ``self.x = <value>`` from the value expr."""
    if isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
    if isinstance(value, ast.Name):
        return param_types.get(value.id)
    return None


def _collect_class(node: ast.ClassDef,
                   directives: List[Directive]) -> ClassInfo:
    info = ClassInfo(name=node.name, node=node)
    info.is_dataclass = any(
        (isinstance(dec, ast.Name) and dec.id == "dataclass")
        or (isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
            and dec.func.id == "dataclass")
        or (isinstance(dec, ast.Attribute) and dec.attr == "dataclass")
        for dec in node.decorator_list)
    last_line = max((getattr(sub, "end_lineno", node.lineno) or node.lineno
                     for sub in ast.walk(node)), default=node.lineno)
    info.confined = any(d.kind == "confined"
                        and node.lineno <= d.line <= last_line
                        for d in directives)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[item.name] = item  # type: ignore[assignment]
    for method in info.methods.values():
        param_types: Dict[str, str] = {}
        args = method.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.annotation is not None:
                head = _annotation_head(arg.annotation)
                if head:
                    param_types[arg.arg] = head
        for sub in ast.walk(method):
            target = None
            value = None
            annotation = None
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target, value = sub.targets[0], sub.value
            elif isinstance(sub, ast.AnnAssign):
                target, value, annotation = sub.target, sub.value, sub.annotation
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            type_name = None
            if annotation is not None:
                type_name = _annotation_head(annotation)
            if type_name is None and value is not None:
                type_name = _infer_attr_type(value, param_types)
            if type_name and target.attr not in info.attr_types:
                info.attr_types[target.attr] = type_name
    return info


def build_module(path: str, modname: str, source: str) -> ModuleInfo:
    """Parse one module into a :class:`ModuleInfo` (raises SyntaxError)."""
    tree = ast.parse(source, filename=path)
    set_parents(tree)
    info = ModuleInfo(path=path, modname=modname, tree=tree,
                      source_lines=source.splitlines(),
                      directives=_parse_directives(source))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                info.import_aliases[alias.asname or alias.name.split(".", 1)[0]] = (
                    alias.name if alias.asname else alias.name.split(".", 1)[0])
                if alias.asname:
                    info.import_aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports are not used in this repo
            for alias in node.names:
                info.from_imports[alias.asname or alias.name] = (
                    node.module, alias.name)
    for item in tree.body:
        if isinstance(item, ast.ClassDef):
            info.classes[item.name] = _collect_class(item, info.directives)
        elif isinstance(item, ast.FunctionDef):
            info.functions[item.name] = item
    return info
