"""Analysis orchestration: file collection, call graph, finding pipeline.

The engine parses every target file into a
:class:`~repro.lint.visitor.ModuleInfo`, runs the per-module checks, then
runs the one cross-module rule — **shared-mutation** — by building a
conservative call graph from the configured worker roots:

* bare-name calls resolve to same-module or from-imported functions,
* ``self.method()`` resolves within the owning class,
* ``self.attr.method()`` and ``param.method()`` resolve through the
  attribute/parameter type inferred from ``__init__`` assignments and
  annotations,
* as a last resort, a method name defined by exactly one project class
  resolves to that class (unique-method fallback).

Constructors are not followed (object construction happens before the
worker fan-out), and module-global rebinding is out of scope by design:
process-pool workers own their module globals per process.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.checks import (
    check_atomic_write,
    check_clock_and_entropy,
    check_fs_order,
    check_iter_order,
    check_resource_owner,
    check_spec_pickle,
    check_unused_import,
)
from repro.lint.config import LintConfig
from repro.lint.report import Finding, sort_findings
from repro.lint.rules import (
    MUTATOR_METHODS,
    RULES_BY_ID,
    SANCTIONED_IMPL_FILES,
    SEVERITY_WARN,
    THREAD_LOCAL_TYPES,
)
from repro.lint.visitor import (
    ClassInfo,
    ModuleInfo,
    _annotation_head,
    build_module,
)

#: (module, class-or-None, function) — identity of one function body.
FuncKey = Tuple[str, Optional[str], str]


def module_name_for(path: str) -> str:
    """Dotted module name of a file path (src-rooted when possible)."""
    normalized = os.path.normpath(path).replace(os.sep, "/")
    if normalized.endswith(".py"):
        normalized = normalized[:-3]
    parts = [part for part in normalized.split("/") if part not in ("", ".")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<module>"


def collect_files(targets: Iterable[Tuple[str, str]]) -> List[Tuple[str, str]]:
    """Expand (path, tier) targets into a sorted list of .py files."""
    files: List[Tuple[str, str]] = []
    seen: Set[str] = set()
    for target, tier in targets:
        if os.path.isfile(target):
            candidates = [target]
        elif os.path.isdir(target):
            candidates = []
            for root, dirs, names in sorted(os.walk(target)):
                dirs.sort()
                for name in sorted(names):
                    if name.endswith(".py"):
                        candidates.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(f"lint target does not exist: {target}")
        for path in candidates:
            normalized = os.path.normpath(path)
            if normalized not in seen:
                seen.add(normalized)
                files.append((normalized, tier))
    return files


# --------------------------------------------------------------------- #
# Call graph / shared-mutation

class _CallGraph:
    """Conservative project call graph rooted at the worker surface."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self._modules = modules
        #: class name -> (modname, ClassInfo); ambiguous names dropped.
        self._classes: Dict[str, Tuple[str, ClassInfo]] = {}
        ambiguous: Set[str] = set()
        #: method name -> defining classes (for the unique-method fallback)
        self._method_owners: Dict[str, List[Tuple[str, str]]] = {}
        for modname, module in modules.items():
            for cls in module.classes.values():
                if cls.name in self._classes or cls.name in ambiguous:
                    ambiguous.add(cls.name)
                    self._classes.pop(cls.name, None)
                    continue
                self._classes[cls.name] = (modname, cls)
        for modname, module in modules.items():
            for cls in module.classes.values():
                for method in cls.methods:
                    self._method_owners.setdefault(method, []).append(
                        (modname, cls.name))

    def resolve_roots(self, roots: Sequence[str]) -> List[FuncKey]:
        keys: List[FuncKey] = []
        for root in roots:
            for modname, module in self._modules.items():
                if not root.startswith(modname + "."):
                    continue
                rest = root[len(modname) + 1:].split(".")
                if len(rest) == 1 and rest[0] in module.functions:
                    keys.append((modname, None, rest[0]))
                elif (len(rest) == 2 and rest[0] in module.classes
                        and rest[1] in module.classes[rest[0]].methods):
                    keys.append((modname, rest[0], rest[1]))
        return keys

    def function_node(self, key: FuncKey) -> Optional[ast.FunctionDef]:
        modname, clsname, name = key
        module = self._modules.get(modname)
        if module is None:
            return None
        if clsname is None:
            return module.functions.get(name)
        cls = module.classes.get(clsname)
        return cls.methods.get(name) if cls else None

    def owner(self, key: FuncKey) -> Tuple[Optional[ModuleInfo],
                                           Optional[ClassInfo]]:
        module = self._modules.get(key[0])
        cls = module.classes.get(key[1]) if (module and key[1]) else None
        return module, cls

    # -------------------------------------------------------------- #

    def _param_types(self, func: ast.FunctionDef) -> Dict[str, str]:
        types: Dict[str, str] = {}
        args = func.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            if arg.annotation is not None:
                head = _annotation_head(arg.annotation)
                if head:
                    types[arg.arg] = head
        return types

    def _class_method_key(self, type_name: Optional[str],
                          method: str) -> Optional[FuncKey]:
        if type_name is None:
            return None
        entry = self._classes.get(type_name)
        if entry is None:
            return None
        modname, cls = entry
        if method in cls.methods:
            return (modname, cls.name, method)
        return None

    def edges_from(self, key: FuncKey) -> List[FuncKey]:
        func = self.function_node(key)
        if func is None:
            return []
        module, cls = self.owner(key)
        assert module is not None
        param_types = self._param_types(func)
        edges: List[FuncKey] = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            target = node.func
            if isinstance(target, ast.Name):
                name = target.id
                if name in module.functions:
                    edges.append((module.modname, None, name))
                elif name in module.from_imports:
                    source_mod, attr = module.from_imports[name]
                    other = self._modules.get(source_mod)
                    if other is not None and attr in other.functions:
                        edges.append((source_mod, None, attr))
                continue
            if not isinstance(target, ast.Attribute):
                continue
            method = target.attr
            receiver = target.value
            if isinstance(receiver, ast.Name) and receiver.id == "self" and cls:
                if method in cls.methods:
                    edges.append((module.modname, cls.name, method))
                continue
            # Receiver type via parameter annotation or self-attr type.
            type_name: Optional[str] = None
            if isinstance(receiver, ast.Name):
                type_name = param_types.get(receiver.id)
                if type_name is None:
                    if receiver.id in module.import_aliases:
                        # module.function() style call.  A module receiver
                        # is never a project method call, so resolve it as
                        # a function or not at all — without the continue,
                        # the unique-method fallback below would alias
                        # stdlib calls (os.remove) onto same-named project
                        # methods (Headers.remove).
                        dotted = module.dotted_name(target)
                        if dotted is not None and "." in dotted:
                            source_mod, attr = dotted.rsplit(".", 1)
                            other = self._modules.get(source_mod)
                            if other is not None and attr in other.functions:
                                edges.append((source_mod, None, attr))
                        continue
            elif (isinstance(receiver, ast.Attribute)
                    and isinstance(receiver.value, ast.Name)
                    and receiver.value.id == "self" and cls):
                type_name = cls.attr_types.get(receiver.attr)
            resolved = self._class_method_key(type_name, method)
            if resolved is not None:
                edges.append(resolved)
                continue
            if type_name is None and not method.startswith("__"):
                owners = self._method_owners.get(method, [])
                if len(owners) == 1:
                    edges.append((owners[0][0], owners[0][1], method))
        return edges

    def reachable(self, roots: Sequence[str]) -> Set[FuncKey]:
        frontier = self.resolve_roots(roots)
        seen: Set[FuncKey] = set(frontier)
        while frontier:
            key = frontier.pop()
            for edge in self.edges_from(key):
                if edge not in seen:
                    seen.add(edge)
                    frontier.append(edge)
        return seen


def _self_attr(node: ast.AST) -> Optional[str]:
    """The X of a ``self.X`` expression, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


class _MutationScanner:
    """Flags unsanctioned self-state mutation in one reachable method."""

    def __init__(self, module: ModuleInfo, cls: ClassInfo) -> None:
        self._module = module
        self._cls = cls
        self._sanctioned = (set(cls.sanctioned_attrs())
                            | {attr for attr, type_name
                               in cls.attr_types.items()
                               if type_name in THREAD_LOCAL_TYPES})
        self._locks = set(cls.lock_attrs())
        self.findings: List[Finding] = []

    def scan(self, func: ast.FunctionDef) -> List[Finding]:
        for statement in func.body:
            self._visit(statement, locked=False)
        return self.findings

    # -------------------------------------------------------------- #

    def _visit(self, node: ast.AST, locked: bool) -> None:
        if isinstance(node, ast.With):
            guards = any(
                _self_attr(item.context_expr) in self._locks
                for item in node.items)
            for item in node.items:
                self._visit(item.context_expr, locked)
            for child in node.body:
                self._visit(child, locked or guards)
            return
        self._check(node, locked)
        for child in ast.iter_child_nodes(node):
            self._visit(child, locked)

    def _check(self, node: ast.AST, locked: bool) -> None:
        if locked:
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._check_target(node, target)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._check_target(node, node.target)
        elif isinstance(node, ast.AugAssign):
            self._check_target(node, node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._check_target(node, target)
        elif isinstance(node, ast.Call):
            self._check_mutator_call(node)

    def _check_target(self, statement: ast.AST, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(statement, element)
            return
        attr = _self_attr(target)
        if attr is not None:
            self._flag(statement, attr,
                       f"rebinding self.{attr} on the worker path")
            return
        if isinstance(target, ast.Subscript):
            attr = _self_attr(target.value)
            if attr is not None and attr not in self._sanctioned:
                self._flag(statement, attr,
                           f"writing self.{attr}[...] on the worker path")

    def _check_mutator_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in MUTATOR_METHODS:
            return
        attr = _self_attr(func.value)
        if attr is None or attr in self._sanctioned:
            return
        self._flag(node, attr,
                   f"calling self.{attr}.{func.attr}(...) on the worker "
                   f"path")

    def _flag(self, node: ast.AST, attr: str, what: str) -> None:
        line = getattr(node, "lineno", 1)
        self.findings.append(Finding(
            path=self._module.path,
            line=line,
            column=getattr(node, "col_offset", 0) + 1,
            rule_id="shared-mutation",
            severity=RULES_BY_ID["shared-mutation"].severity,
            message=(f"{what}: {self._cls.name} state is shared across "
                     f"scan workers; use ShardedCounter/LRUCache/MemoDict, "
                     f"guard with a lock attribute, or declare the class "
                     f"# lint: confined(<reason>)"),
            line_text=self._module.line_text(line),
        ))


def check_shared_mutation(modules: Dict[str, ModuleInfo],
                          roots: Sequence[str]) -> List[Finding]:
    """The cross-module concurrency-purity rule."""
    graph = _CallGraph(modules)
    findings: List[Finding] = []
    for key in sorted(graph.reachable(roots),
                      key=lambda k: (k[0], k[1] or "", k[2])):
        module, cls = graph.owner(key)
        if module is None or cls is None or cls.confined:
            continue
        normalized = module.path.replace("\\", "/")
        if normalized.endswith(SANCTIONED_IMPL_FILES):
            continue
        func = graph.function_node(key)
        if func is None or func.name == "__init__":
            continue
        findings.extend(_MutationScanner(module, cls).scan(func))
    return findings


# --------------------------------------------------------------------- #
# Pipeline

def analyze_sources(items: Sequence[Tuple[str, str, str]],
                    config: Optional[LintConfig] = None) -> List[Finding]:
    """Analyze (path, tier, source) triples; the core of the linter."""
    config = config or LintConfig()
    parsed: List[ModuleInfo] = []
    #: first-wins modname index for cross-module (call graph) resolution;
    #: src/repro is listed first in the default targets, so it wins.
    modules: Dict[str, ModuleInfo] = {}
    tiers: Dict[str, str] = {}
    findings: List[Finding] = []
    for path, tier, source in items:
        tiers[path] = tier
        try:
            module = build_module(path, module_name_for(path), source)
        except SyntaxError as exc:
            findings.append(Finding(
                path=path, line=exc.lineno or 1, column=(exc.offset or 0) + 1,
                rule_id="parse-error", severity="error",
                message=f"cannot parse: {exc.msg}"))
            continue
        parsed.append(module)
        modules.setdefault(module.modname, module)

    project_classes: Set[str] = set()
    for module in parsed:
        project_classes.update(module.classes)

    module_by_path = {module.path: module for module in parsed}
    for module in parsed:
        if config.rule_enabled("wall-clock") \
                or config.rule_enabled("raw-entropy") \
                or config.rule_enabled("global-random"):
            for finding in check_clock_and_entropy(module):
                if config.rule_enabled(finding.rule_id):
                    findings.append(finding)
        if config.rule_enabled("fs-order"):
            findings.extend(check_fs_order(module))
        if config.rule_enabled("iter-order"):
            findings.extend(check_iter_order(module))
        if config.rule_enabled("spec-pickle"):
            findings.extend(check_spec_pickle(module, project_classes))
        if config.rule_enabled("resource-owner"):
            findings.extend(check_resource_owner(module))
        if config.rule_enabled("atomic-write"):
            findings.extend(check_atomic_write(module))
        if config.rule_enabled("unused-import"):
            findings.extend(check_unused_import(module))
    if config.rule_enabled("shared-mutation"):
        findings.extend(check_shared_mutation(modules, config.worker_roots))

    for finding in findings:
        module = module_by_path.get(finding.path)
        if module is not None:
            directive = module.allow_for(finding.line, finding.rule_id)
            if directive is not None:
                directive.used = True
                finding.suppressed = True
                finding.suppress_reason = directive.reason
        if tiers.get(finding.path) == SEVERITY_WARN:
            finding.severity = SEVERITY_WARN
    return sort_findings(findings)


def analyze_paths(config: LintConfig) -> List[Finding]:
    """Collect files from the config's targets and analyze them."""
    items: List[Tuple[str, str, str]] = []
    for path, tier in collect_files(config.targets):
        with open(path, "r", encoding="utf-8") as handle:
            items.append((path, tier, handle.read()))
    return analyze_sources(items, config)
