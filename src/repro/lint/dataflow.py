"""Abstract interpretation of resource lifetimes over the function CFG.

The interpreter tracks, per local variable, the set of abstract facts
that may hold at each program point: a *resource fact* (handle acquired
at line L under contract C, currently acquired / released / handed off /
context-managed) or a *view fact* (value derived from a mapped buffer
acquired at line L).  States are joined by union at merge points and the
worklist iterates to a fixpoint, so branches, loops, and the duplicated
``finally`` bodies from :mod:`repro.lint.cfg` are all walked path-
sensitively.

Four rule families are evaluated on the fixpoint:

* ``resource-leak`` — some path reaches the function exit (or rebinds
  the variable) with the handle still acquired.
* ``release-guard`` — every fall-through path releases, but an
  exceptional path escapes the function with the handle acquired: the
  release is not ``finally``-guarded.
* ``buffer-escape`` — a view derived from a mapped buffer is stored to
  ``self``/globals/a closure or returned without a copy, and the buffer
  is closed within the function, leaving the escapee dangling.
* ``atomic-write`` — a write-mode open of a checkpoint/manifest path
  that bypasses the temp-then-rename writers, or a temp file that is
  never renamed into place.

Ownership handoffs are recognized structurally (``return handle``,
``self.attr = handle``, contract-listed handoff functions) or documented
with a ``# lint: handoff(reason)`` directive — a semantic annotation,
not a suppression.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.lint.cfg import (
    CFG,
    KIND_BRANCH,
    KIND_LOOP,
    KIND_STMT,
    KIND_WITH,
    KIND_WITH_EXIT,
    build_cfg,
)
from repro.lint.contracts import (
    COPY_CALLS,
    BufferContract,
    ContractRegistry,
    ResourceContract,
)
from repro.lint.report import Finding
from repro.lint.rules import RULES_BY_ID
from repro.lint.visitor import ModuleInfo

ACQUIRED = "acquired"
RELEASED = "released"
HANDED = "handed-off"
MANAGED = "with-managed"

#: (contract name, acquire line): the identity of one acquisition site.
AcqKey = Tuple[str, int]


@dataclass(frozen=True)
class Fact:
    """One possible lifetime state of a handle bound to a variable."""

    contract: str                  # resource-contract name ("" if none)
    buffer: str                    # buffer-contract name ("" if none)
    line: int                      # acquire site
    status: str
    #: (view line, escape line, how) — escapes of views derived from
    #: this buffer, pending until the buffer is closed.
    escapes: Tuple[Tuple[int, int, str], ...] = ()

    def key(self) -> AcqKey:
        return (self.contract or self.buffer, self.line)


@dataclass(frozen=True)
class ViewFact:
    """A value derived from a mapped buffer (dies with its close())."""

    contract: str                  # buffer-contract name
    buffer_line: int               # buffer acquire site
    line: int                      # view creation site

    def key(self) -> AcqKey:
        return (self.contract, self.buffer_line)


AnyFact = Union[Fact, ViewFact]
State = Dict[str, FrozenSet[AnyFact]]


def _merge(into: State, other: State) -> bool:
    changed = False
    for var, facts in other.items():
        have = into.get(var)
        if have is None:
            into[var] = facts
            changed = True
        elif not facts <= have:
            into[var] = have | facts
            changed = True
    return changed


def _call_head(call: ast.Call) -> Optional[str]:
    """The unqualified tail name of a call ("copy", "bytes", ...)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _names_in(expr: Optional[ast.AST]) -> Set[str]:
    if expr is None:
        return set()
    return {node.id for node in ast.walk(expr) if isinstance(node, ast.Name)}


def _direct_names(expr: Optional[ast.AST]) -> Set[str]:
    """Names whose *handle itself* flows into the value.

    The whole value, tuple/list elements, and direct call arguments
    (``return Wrapper(reader)``) transfer the handle; a method receiver
    (``self.x = reader.array(...)``) only contributes a derived value
    and keeps the caller responsible for the release.
    """
    names: Set[str] = set()

    def top(node: Optional[ast.AST]) -> None:
        if node is None:
            return
        if isinstance(node, ast.Starred):
            top(node.value)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                top(elt)
        elif isinstance(node, ast.Call):
            for arg in node.args:
                top(arg)
            for keyword in node.keywords:
                top(keyword.value)

    top(expr)
    return names


def _none_test(test: Optional[ast.AST]) -> Tuple[Optional[str], bool]:
    """Recognize a None/truthiness guard on a single variable.

    Returns ``(var, none_on_true)``: ``x is None`` / ``not x`` take the
    *true* edge when the variable is None; ``x is not None`` / bare
    ``x`` take the *false* edge.
    """
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.left, ast.Name)
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        if isinstance(test.ops[0], ast.Is):
            return test.left.id, True
        if isinstance(test.ops[0], ast.IsNot):
            return test.left.id, False
        return None, False
    if isinstance(test, ast.Name):
        return test.id, False
    if (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Name)):
        return test.operand.id, True
    return None, False


def _is_self_target(node: ast.AST) -> bool:
    """``self.attr`` or ``self.attr[...]`` / ``obj.attr`` store target."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute)


class _FunctionAnalysis:
    """Fixpoint analysis of one function body."""

    def __init__(self, module: ModuleInfo, func: ast.AST,
                 registry: ContractRegistry) -> None:
        self.module = module
        self.func = func
        self.registry = registry
        self.cfg: CFG = build_cfg(func)
        # Accumulators keyed by acquisition site.
        self.acquires: Dict[AcqKey, Tuple[str, str]] = {}   # var, what
        self.releases: Dict[AcqKey, Set[int]] = defaultdict(set)
        self.normal_leaks: Dict[AcqKey, Set[int]] = defaultdict(set)
        self.exc_leaks: Dict[AcqKey, Set[int]] = defaultdict(set)
        self.rebind_leaks: Dict[AcqKey, Set[Tuple[int, str]]] = defaultdict(set)
        #: (contract, buffer line, view line, escape line, close line, how)
        self.escape_hits: Set[Tuple[str, int, int, int, int, str]] = set()

    # -------------------------------------------------------------- #
    # Worklist driver

    def run(self) -> None:
        in_states: Dict[int, State] = {self.cfg.entry: {}}
        out_states: Dict[int, State] = {}
        work = [self.cfg.entry]
        while work:
            index = work.pop()
            state = in_states.get(index, {})
            node = self.cfg.node(index)
            out = self._transfer(node, dict(state))
            out_states[index] = out
            exc_state = self._exc_state(node, state, out)
            edge_states = self._edge_states(node, out)
            for succ in node.succ:
                target = in_states.setdefault(succ, {})
                if _merge(target, edge_states.get(succ, out)) \
                        or succ not in out_states:
                    if succ not in work:
                        work.append(succ)
            for succ in node.exc:
                target = in_states.setdefault(succ, {})
                if _merge(target, exc_state) or succ not in out_states:
                    if succ not in work:
                        work.append(succ)
        self._collect_exits(in_states, out_states)

    def _edge_states(self, node, out: State) -> Dict[int, State]:
        """Per-successor refinements of the out state.

        On a ``x is None`` / ``x is not None`` / truthiness guard, the
        edge where ``x`` is None cannot carry ``x``'s handle facts — the
        binding is provably None there.  This is what makes the
        ubiquitous ``if handle is not None: handle.close()`` cleanup
        idiom check out without a directive.
        """
        stmt = node.stmt
        if node.kind not in (KIND_BRANCH, KIND_LOOP) or stmt is None:
            return {}
        if not isinstance(stmt, (ast.If, ast.While)):
            return {}
        if node.true_succ is None or node.false_succ is None \
                or node.true_succ == node.false_succ:
            return {}
        var, none_on_true = _none_test(stmt.test)
        if var is None or var not in out:
            return {}
        pruned = dict(out)
        del pruned[var]
        none_succ = node.true_succ if none_on_true else node.false_succ
        return {none_succ: pruned}

    def _handoff_line(self, node) -> bool:
        stmt = node.stmt
        if stmt is None:
            return False
        return bool(self.module.directives_on(
            getattr(stmt, "lineno", 0), "handoff"))

    def _collect_exits(self, in_states: Dict[int, State],
                       out_states: Dict[int, State]) -> None:
        exit_idx, raise_idx = self.cfg.exit, self.cfg.raise_exit
        for node in self.cfg.nodes:
            out = out_states.get(node.index)
            line = node.line
            if out is not None:
                if exit_idx in node.succ:
                    self._leaks(out, self.normal_leaks, line)
                if raise_idx in node.succ:
                    self._leaks(out, self.exc_leaks, line)
            if raise_idx in node.exc:
                state = in_states.get(node.index)
                if state is not None:
                    self._leaks(
                        self._exc_state(node, state,
                                        out_states.get(node.index, {})),
                        self.exc_leaks, line)

    def _exc_state(self, node, state: State, out: State) -> State:
        """The state carried by this node's exceptional edges.

        Exceptions leave *before* the statement's effects complete, so
        the in-state propagates — with two refinements: a line carrying
        a ``# lint: handoff`` directive covers its exceptional path too
        (the documented transfer is the statement), and a key this very
        node releases or hands off fails *inside* the transfer call —
        that is the callee's contract, not a missing guard, so the key
        takes its post-statement status.
        """
        if self._handoff_line(node):
            return out
        resolved = self._resolved_statuses(out)
        if not resolved:
            return state
        adjusted: State = {}
        for var, facts in state.items():
            adjusted[var] = frozenset(
                replace(fact, status=resolved[fact.key()])
                if isinstance(fact, Fact) and fact.key() in resolved
                and fact.status in (ACQUIRED, MANAGED) else fact
                for fact in facts)
        return adjusted

    def _resolved_statuses(self, out: State) -> Dict[AcqKey, str]:
        return {fact.key(): fact.status
                for facts in out.values() for fact in facts
                if isinstance(fact, Fact)
                and fact.status in (RELEASED, HANDED)}

    def _leaks(self, state: State, sink: Dict[AcqKey, Set[int]],
               line: int) -> None:
        for facts in state.values():
            for fact in facts:
                if isinstance(fact, Fact) and fact.status == ACQUIRED:
                    sink[fact.key()].add(line)

    # -------------------------------------------------------------- #
    # Transfer function

    def _transfer(self, node, state: State) -> State:
        stmt = node.stmt
        if node.kind == KIND_STMT and stmt is not None:
            self._stmt_effects(stmt, state)
        elif node.kind in (KIND_BRANCH, KIND_LOOP) and stmt is not None:
            test = getattr(stmt, "test", None) or getattr(stmt, "iter", None)
            if test is not None:
                self._call_effects(test, state, stmt)
            target = getattr(stmt, "target", None)
            if target is not None:
                for name in _names_in(target):
                    self._rebind(name, state, stmt, "loop rebinding")
                    state.pop(name, None)
        elif node.kind == KIND_WITH and stmt is not None:
            self._with_enter(stmt, state)
        elif node.kind == KIND_WITH_EXIT and stmt is not None:
            self._with_exit(stmt, state)
        return state

    def _stmt_effects(self, stmt: ast.AST, state: State) -> None:
        if self.module.directives_on(getattr(stmt, "lineno", 0), "handoff"):
            for directive in self.module.directives_on(stmt.lineno, "handoff"):
                directive.used = True
            for name in _names_in(stmt):
                self._set_status(state, name, HANDED, only_resources=True)
        if isinstance(stmt, ast.Return):
            self._return_effects(stmt, state)
            return
        if isinstance(stmt, ast.Assign):
            self._call_effects(stmt.value, state, stmt)
            for target in stmt.targets:
                self._bind(target, stmt.value, state, stmt)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._call_effects(stmt.value, state, stmt)
            self._bind(stmt.target, stmt.value, state, stmt)
            return
        if isinstance(stmt, ast.AugAssign):
            self._call_effects(stmt.value, state, stmt)
            return
        if isinstance(stmt, ast.Expr):
            self._call_effects(stmt.value, state, stmt)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self._rebind(target.id, state, stmt, "del while open")
                    state.pop(target.id, None)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._closure_effects(stmt, state)
            return
        self._call_effects(stmt, state, stmt)

    # -------------------------------------------------------------- #
    # Calls: acquire / release / handoff recognition

    def _call_effects(self, expr: ast.AST, state: State,
                      stmt: ast.AST) -> None:
        line = getattr(stmt, "lineno", 0)
        for call in [n for n in ast.walk(expr) if isinstance(n, ast.Call)]:
            func = call.func
            # handle.method(...) on a tracked variable
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)):
                receiver, method = func.value.id, func.attr
                facts = state.get(receiver)
                if facts:
                    self._method_call(receiver, method, facts, state, line)
                    continue
                # untracked receiver: fall through — this may be a
                # module-qualified release (envelope.release(x)).
            elif (isinstance(func, ast.Attribute)
                    and _is_self_target(func.value)):
                # self.registry.append(handle): parent-owned handoff
                for arg in call.args:
                    if isinstance(arg, ast.Name):
                        self._set_status(state, arg.id, HANDED,
                                         only_resources=True)
                continue
            elif isinstance(func, ast.Attribute):
                continue
            dotted = self.module.dotted_name(func)
            if dotted is None:
                continue
            for arg in call.args:
                if not isinstance(arg, ast.Name) or arg.id not in state:
                    continue
                for fact in state[arg.id]:
                    if not isinstance(fact, Fact) or not fact.contract:
                        continue
                    contract = self.registry.resource(fact.contract)
                    if contract is None:
                        continue
                    if self.registry.is_release_func(dotted, contract):
                        self._release_key(state, fact.key(), line)
                    elif self.registry.is_handoff_func(dotted, contract):
                        self._status_key(state, fact.key(), HANDED)

    def _method_call(self, receiver: str, method: str,
                     facts: FrozenSet[AnyFact], state: State,
                     line: int) -> None:
        for fact in facts:
            if not isinstance(fact, Fact):
                continue
            released = False
            if fact.contract:
                contract = self.registry.resource(fact.contract)
                if contract and method in contract.release_methods:
                    released = True
            if fact.buffer:
                buf = self.registry.buffer(fact.buffer)
                if buf and method in buf.close_methods:
                    released = True
            if released:
                self._release_key(state, fact.key(), line)

    # -------------------------------------------------------------- #
    # Bindings: acquire sites, view derivation, self-stores, rebinds

    def _bind(self, target: ast.AST, value: ast.AST, state: State,
              stmt: ast.AST) -> None:
        line = getattr(stmt, "lineno", 0)
        if isinstance(target, ast.Name):
            self._rebind(target.id, state, stmt, "rebound while open")
            fresh = self._facts_for_value(value, state, line)
            if fresh:
                state[target.id] = fresh
            else:
                state.pop(target.id, None)
            return
        if _is_self_target(target):
            # Storing into self/attribute state: resources are handed to
            # the owner; uncopied buffer views escape the mapping —
            # whether held in a variable or created inline
            # (self._codes = reader.array("codes")).
            described = (ast.unparse(target)
                         if hasattr(ast, "unparse") else "self attribute")
            self._inline_view_escapes(value, state, line,
                                      f"stored to {described}")
            # Ownership transfers only when the handle itself is stored
            # (self.attr = handle) — storing a value *derived* from the
            # handle (self.x = reader.array(...)) keeps the caller
            # responsible for the release.
            for name in _direct_names(value):
                self._set_status(state, name, HANDED, only_resources=True)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self._rebind(element.id, state, stmt,
                                 "rebound while open")
                    state.pop(element.id, None)
            return

    def _facts_for_value(self, value: ast.AST, state: State,
                         line: int) -> FrozenSet[AnyFact]:
        # Alias: x = y copies y's facts (releases update both, keyed by
        # acquisition site).
        if isinstance(value, ast.Name):
            return state.get(value.id, frozenset())
        if isinstance(value, ast.Attribute):
            # mapping.buffer -> raw-buffer view
            if isinstance(value.value, ast.Name):
                facts = state.get(value.value.id, frozenset())
                views = self._views_from_attr(facts, value.attr, line)
                if views:
                    return views
            return frozenset()
        if not isinstance(value, ast.Call):
            return frozenset()
        call = value
        func = call.func
        # view via mapping.method(...)
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)):
            facts = state.get(func.value.id, frozenset())
            views = self._views_from_method(facts, func.attr, line)
            if views:
                return views
            return frozenset()
        # fluent chain: ShardExchange(...).open() returns the handle
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Call)):
            return self._facts_for_value(func.value, state, line)
        dotted = self.module.dotted_name(func)
        if dotted is None:
            return frozenset()
        resource = self.registry.match_acquire(dotted)
        buffer = self.registry.match_buffer(dotted)
        if resource is not None or buffer is not None:
            fact = Fact(contract=resource.name if resource else "",
                        buffer=buffer.name if buffer else "",
                        line=line, status=ACQUIRED)
            what = dotted.rsplit(".", 1)[-1]
            self.acquires[fact.key()] = (what, f"{what}(...)")
            return frozenset({fact})
        # view via view_func(mapping) / view_func(mapping.buffer)
        views: Set[AnyFact] = set()
        for arg in call.args:
            base = arg.value if isinstance(arg, ast.Attribute) else arg
            if not isinstance(base, ast.Name):
                continue
            for fact in state.get(base.id, frozenset()):
                if isinstance(fact, Fact) and fact.buffer:
                    buf = self.registry.buffer(fact.buffer)
                    if buf and self.registry.is_view_func(dotted, buf):
                        views.add(ViewFact(contract=fact.buffer,
                                           buffer_line=fact.line,
                                           line=line))
        return frozenset(views)

    def _views_from_method(self, facts: Iterable[AnyFact], method: str,
                           line: int) -> FrozenSet[AnyFact]:
        views: Set[AnyFact] = set()
        for fact in facts:
            if isinstance(fact, Fact) and fact.buffer:
                buf = self.registry.buffer(fact.buffer)
                if buf and method in buf.view_methods:
                    views.add(ViewFact(contract=fact.buffer,
                                       buffer_line=fact.line, line=line))
        return frozenset(views)

    def _views_from_attr(self, facts: Iterable[AnyFact], attr: str,
                         line: int) -> FrozenSet[AnyFact]:
        views: Set[AnyFact] = set()
        for fact in facts:
            if isinstance(fact, Fact) and fact.buffer:
                buf = self.registry.buffer(fact.buffer)
                if buf and attr in buf.view_attrs:
                    views.add(ViewFact(contract=fact.buffer,
                                       buffer_line=fact.line, line=line))
        return frozenset(views)

    # -------------------------------------------------------------- #
    # Returns, closures, with-blocks

    def _return_effects(self, stmt: ast.Return, state: State) -> None:
        line = stmt.lineno
        if stmt.value is not None:
            self._call_effects(stmt.value, state, stmt)
        returned = _direct_names(stmt.value)
        # Buffers returned alongside their views keep the pair alive in
        # the caller: no escape.
        returned_buffers: Set[AcqKey] = set()
        for name in returned:
            for fact in state.get(name, frozenset()):
                if isinstance(fact, Fact) and fact.buffer:
                    returned_buffers.add((fact.buffer, fact.line))
        if stmt.value is not None:
            self._inline_view_escapes(stmt.value, state, line, "returned",
                                      exclude=frozenset(returned_buffers))
        for name in returned:
            self._set_status(state, name, HANDED, only_resources=True)

    def _closure_effects(self, stmt: ast.AST, state: State) -> None:
        line = getattr(stmt, "lineno", 0)
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                for fact in state.get(sub.id, frozenset()):
                    if isinstance(fact, ViewFact):
                        self._escape(state, sub.id, line,
                                     "captured by a closure")

    def _managed_vars(self, stmt: ast.AST) -> List[Tuple[str, ast.AST]]:
        managed: List[Tuple[str, ast.AST]] = []
        for item in stmt.items:
            expr = item.context_expr
            if (item.optional_vars is not None
                    and isinstance(item.optional_vars, ast.Name)):
                managed.append((item.optional_vars.id, expr))
            elif isinstance(expr, ast.Name):
                managed.append((expr.id, expr))
            elif isinstance(expr, ast.Call):
                head = _call_head(expr)
                if head == "closing" and expr.args \
                        and isinstance(expr.args[0], ast.Name):
                    managed.append((expr.args[0].id, expr))
        return managed

    def _with_enter(self, stmt: ast.AST, state: State) -> None:
        line = getattr(stmt, "lineno", 0)
        for item in stmt.items:
            expr = item.context_expr
            var = (item.optional_vars.id
                   if isinstance(item.optional_vars, ast.Name) else None)
            if isinstance(expr, ast.Call) and var is not None:
                fresh = self._facts_for_value(expr, state, line)
                managed = frozenset(
                    replace(fact, status=MANAGED)
                    if isinstance(fact, Fact) else fact
                    for fact in fresh)
                if managed:
                    state[var] = managed
                    continue
            # `with handle:` / `with closing(handle):` — existing facts
            # become managed.
            for name, _ in self._managed_vars(stmt):
                self._set_status(state, name, MANAGED, only_resources=False,
                                 from_statuses=(ACQUIRED,))

    def _with_exit(self, stmt: ast.AST, state: State) -> None:
        line = getattr(stmt, "lineno", 0)
        for name, _ in self._managed_vars(stmt):
            for fact in state.get(name, frozenset()):
                if isinstance(fact, Fact) and fact.status in (MANAGED,
                                                              ACQUIRED):
                    self._release_key(state, fact.key(), line)

    # -------------------------------------------------------------- #
    # Fact surgery (applied across aliases, keyed by acquisition site)

    def _set_status(self, state: State, name: str, status: str,
                    only_resources: bool,
                    from_statuses: Tuple[str, ...] = (ACQUIRED, MANAGED),
                    ) -> None:
        facts = state.get(name)
        if not facts:
            return
        keys = {fact.key() for fact in facts
                if isinstance(fact, Fact)
                and (fact.contract or not only_resources)
                and fact.status in from_statuses}
        for key in keys:
            self._status_key(state, key, status)

    def _status_key(self, state: State, key: AcqKey, status: str) -> None:
        for var, facts in list(state.items()):
            updated = frozenset(
                replace(fact, status=status)
                if isinstance(fact, Fact) and fact.key() == key
                and fact.status in (ACQUIRED, MANAGED) else fact
                for fact in facts)
            state[var] = updated

    def _release_key(self, state: State, key: AcqKey, line: int) -> None:
        self.releases[key].add(line)
        for var, facts in list(state.items()):
            updated = []
            for fact in facts:
                if isinstance(fact, Fact) and fact.key() == key:
                    if fact.status in (ACQUIRED, MANAGED):
                        for view_line, esc_line, how in fact.escapes:
                            self.escape_hits.add(
                                (fact.buffer, fact.line, view_line,
                                 esc_line, line, how))
                        fact = replace(fact, status=RELEASED, escapes=())
                updated.append(fact)
            state[var] = frozenset(updated)

    def _rebind(self, name: str, state: State, stmt: ast.AST,
                how: str) -> None:
        line = getattr(stmt, "lineno", 0)
        for fact in state.get(name, frozenset()):
            if isinstance(fact, Fact) and fact.status == ACQUIRED:
                # Sole binding lost while the handle is open.
                others = any(
                    var != name and any(
                        isinstance(f, Fact) and f.key() == fact.key()
                        and f.status == ACQUIRED for f in facts)
                    for var, facts in state.items())
                if not others:
                    self.rebind_leaks[fact.key()].add((line, how))

    def _escape(self, state: State, name: str, line: int,
                how: str) -> None:
        for fact in state.get(name, frozenset()):
            if isinstance(fact, ViewFact):
                self._escape_view(state, fact, line, how)

    def _escape_view(self, state: State, view: ViewFact, line: int,
                     how: str) -> None:
        key = view.key()
        for var, facts in list(state.items()):
            updated = frozenset(
                replace(f, escapes=tuple(sorted(
                    set(f.escapes) | {(view.line, line, how)})))
                if isinstance(f, Fact) and f.key() == key
                and f.status in (ACQUIRED, MANAGED) else f
                for f in facts)
            state[var] = updated
        # Escaping a view of an already-closed buffer dangles
        # immediately: report against the recorded close site.
        released = self.releases.get(key)
        if released and any(
                isinstance(f, Fact) and f.key() == key
                and f.status == RELEASED
                for facts in state.values() for f in facts):
            self.escape_hits.add(
                (view.contract, view.buffer_line, view.line, line,
                 min(released), how))

    def _inline_view_escapes(self, value: ast.AST, state: State, line: int,
                             how: str,
                             exclude: FrozenSet[AcqKey] = frozenset(),
                             ) -> None:
        """Escape every uncopied buffer view in ``value``.

        Covers views held in variables *and* views created inline in the
        escaping expression itself (``self.x = reader.array("codes")``,
        ``return mapping.buffer``).
        """

        def walk(node: ast.AST, copied: bool) -> None:
            if isinstance(node, ast.Call):
                head = _call_head(node)
                inner = copied or (head in COPY_CALLS)
                if (not copied and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)):
                    facts = state.get(node.func.value.id, frozenset())
                    for view in self._views_from_method(
                            facts, node.func.attr, node.lineno):
                        if view.key() not in exclude:
                            self._escape_view(state, view, line, how)
                for child in ast.iter_child_nodes(node):
                    walk(child, inner)
                return
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)):
                if not copied:
                    facts = state.get(node.value.id, frozenset())
                    for view in self._views_from_attr(
                            facts, node.attr, node.lineno):
                        if view.key() not in exclude:
                            self._escape_view(state, view, line, how)
                return
            if isinstance(node, ast.Name):
                if not copied:
                    for fact in state.get(node.id, frozenset()):
                        if (isinstance(fact, ViewFact)
                                and fact.key() not in exclude):
                            self._escape_view(state, fact, line, how)
                return
            for child in ast.iter_child_nodes(node):
                walk(child, copied)

        walk(value, False)

    # -------------------------------------------------------------- #
    # Findings

    def findings(self) -> List[Finding]:
        found: List[Finding] = []
        for key, (var, what) in sorted(self.acquires.items()):
            contract, line = key
            released = sorted(self.releases.get(key, ()))
            rebinds = sorted(self.rebind_leaks.get(key, ()))
            normal = sorted(self.normal_leaks.get(key, ()))
            exceptional = sorted(self.exc_leaks.get(key, ()))
            if rebinds:
                leak_line, how = rebinds[0]
                found.append(self._finding(
                    "resource-leak", line,
                    f"{contract} handle from {what} is {how} at line "
                    f"{leak_line} without a release",
                    trace=[(line, f"{what} acquired here"),
                           (leak_line, f"{how}: the only binding is "
                                       f"lost with the handle open")]))
            elif normal:
                detail = (f"; released on some paths (line "
                          f"{released[0]}) but not this one"
                          if released else "")
                found.append(self._finding(
                    "resource-leak", line,
                    f"{contract} handle from {what} is not released on "
                    f"every path: the function can exit at line "
                    f"{normal[0]} with the handle open{detail}",
                    trace=[(line, f"{what} acquired here"),
                           (normal[0], "exits with the handle still "
                                       "open on this path")]))
            elif exceptional and released:
                found.append(self._finding(
                    "release-guard", released[0],
                    f"{contract} release runs only on the fall-through "
                    f"path: an exception at line {exceptional[0]} "
                    f"skips it — move the release into a finally block "
                    f"or use a with-block",
                    trace=[(line, f"{what} acquired here"),
                           (exceptional[0], "an exception here leaves "
                                            "the function early"),
                           (released[0], "release runs only when "
                                         "control falls through")]))
            elif exceptional:
                found.append(self._finding(
                    "release-guard", line,
                    f"{contract} handle from {what} leaks when an "
                    f"exception interrupts at line {exceptional[0]} "
                    f"before ownership is transferred — add "
                    f"try/except cleanup around the handoff",
                    trace=[(line, f"{what} acquired here"),
                           (exceptional[0], "an exception here leaves "
                                            "the function before the "
                                            "handoff")]))
        for (contract, buf_line, view_line, esc_line, close_line,
                how) in sorted(self.escape_hits):
            found.append(self._finding(
                "buffer-escape", esc_line,
                f"view of the {contract} acquired at line {buf_line} is "
                f"{how} without a copy, but the buffer is closed at "
                f"line {close_line} — copy before it escapes "
                f"(.copy()/bytes()) or transfer the mapping with it",
                trace=[(buf_line, f"{contract} mapped here"),
                       (view_line, "zero-copy view created here"),
                       (esc_line, f"view {how} here"),
                       (close_line, "buffer closed — the escaped view "
                                    "now dangles")]))
        return found

    def _finding(self, rule_id: str, line: int, message: str,
                 trace: Sequence[Tuple[int, str]]) -> Finding:
        return Finding(
            path=self.module.path, line=line, column=1, rule_id=rule_id,
            severity=RULES_BY_ID[rule_id].severity, message=message,
            line_text=self.module.line_text(line),
            trace=[{"line": t_line, "note": note}
                   for t_line, note in trace])


# --------------------------------------------------------------------- #
# Atomic-write checking (family 4) over the same CFG

_OPEN_FUNCS = frozenset({"open", "io.open", "gzip.open", "bz2.open",
                         "lzma.open"})
_WRITE_METHODS = frozenset({"write_bytes", "write_text"})
_RENAME_FUNCS = frozenset({"os.replace", "os.rename"})


def _literal_text(node: ast.AST) -> Optional[str]:
    """The literal skeleton of a string expression (f-string holes as {})."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value,
                                                              str):
                parts.append(value.value)
            else:
                parts.append("{}")
        return "".join(parts)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _literal_text(node.left)
        right = _literal_text(node.right)
        if left is not None and right is not None:
            return left + right
    return None


def _node_exprs(node) -> List[ast.AST]:
    """The expressions evaluated *at* one CFG node.

    Compound statements keep their whole AST on the header node; only
    the header's own expressions (with-items, branch tests, loop
    iterables) belong to it — the body statements have nodes of their
    own.
    """
    stmt = node.stmt
    if stmt is None:
        return []
    if node.kind == KIND_STMT:
        return [stmt]
    if node.kind == KIND_WITH:
        return [item.context_expr for item in stmt.items]
    if node.kind in (KIND_BRANCH, KIND_LOOP):
        exprs = []
        for attr in ("test", "iter", "subject"):
            value = getattr(stmt, attr, None)
            if value is not None:
                exprs.append(value)
        return exprs
    return []


def _write_mode(call: ast.Call) -> bool:
    mode: Optional[ast.AST] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(flag in mode.value for flag in "wxa+")
    return False


class _AtomicWriteCheck:
    """Flags checkpoint writes that bypass the temp-then-rename idiom."""

    def __init__(self, module: ModuleInfo, func: ast.AST,
                 registry: ContractRegistry) -> None:
        self.module = module
        self.func = func
        self.registry = registry
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        texts: Dict[str, str] = {}
        for node in ast.walk(self.func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                text = _literal_text(node.value)
                if text is not None:
                    texts[node.targets[0].id] = text
        cfg = build_cfg(self.func)
        for node in cfg.nodes:
            for expr in _node_exprs(node):
                for call in [n for n in ast.walk(expr)
                             if isinstance(n, ast.Call)]:
                    self._check_call(call, node.index, cfg, texts)
        return self._dedupe()

    def _dedupe(self) -> List[Finding]:
        seen = set()
        unique = []
        for finding in self.findings:
            key = (finding.line, finding.message)
            if key not in seen:
                seen.add(key)
                unique.append(finding)
        return unique

    def _target_text(self, arg: ast.AST,
                     texts: Dict[str, str]) -> Optional[str]:
        text = _literal_text(arg)
        if text is not None:
            return text
        if isinstance(arg, ast.Name):
            return texts.get(arg.id)
        return None

    def _check_call(self, call: ast.Call, index: int, cfg: CFG,
                    texts: Dict[str, str]) -> None:
        func = call.func
        dotted = self.module.dotted_name(func)
        target: Optional[ast.AST] = None
        if dotted in _OPEN_FUNCS:
            if not _write_mode(call) or not call.args:
                return
            target = call.args[0]
        elif (isinstance(func, ast.Attribute)
                and func.attr in _WRITE_METHODS):
            target = func.value
        else:
            return
        text = self._target_text(target, texts)
        if text is None:
            return
        line = call.lineno
        if ".tmp" in text:
            if not self._rename_reachable(index, cfg):
                self.findings.append(self._finding(
                    line,
                    "temp file written here is never renamed into place "
                    "on the fall-through path — finish the "
                    "temp-then-rename idiom with os.replace(tmp, target)",
                    trace=[(line, "temp file opened for writing here"),
                           (line, "no os.replace() is reachable from "
                                  "this write")]))
            return
        suffix = self.registry.protected_suffix(text)
        if suffix is None:
            return
        writers = ", ".join(sorted(self.registry.atomic_writers()))
        self.findings.append(self._finding(
            line,
            f"direct write to a '{suffix}' path bypasses the atomic "
            f"temp-then-rename writers — write a '.tmp.<pid>' sibling "
            f"and os.replace() it, or use one of: {writers}",
            trace=[(line, f"'{suffix}' checkpoint path opened for "
                          f"direct writing here")]))

    def _rename_reachable(self, start: int, cfg: CFG) -> bool:
        seen = {start}
        work = [start]
        while work:
            index = work.pop()
            node = cfg.node(index)
            for expr in _node_exprs(node):
                for sub in ast.walk(expr):
                    if isinstance(sub, ast.Call):
                        dotted = self.module.dotted_name(sub.func)
                        if dotted in _RENAME_FUNCS:
                            return True
            for succ in node.succ:
                if succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return False

    def _finding(self, line: int, message: str,
                 trace: Sequence[Tuple[int, str]]) -> Finding:
        return Finding(
            path=self.module.path, line=line, column=1,
            rule_id="atomic-write",
            severity=RULES_BY_ID["atomic-write"].severity,
            message=message, line_text=self.module.line_text(line),
            trace=[{"line": t_line, "note": note}
                   for t_line, note in trace])


# --------------------------------------------------------------------- #
# Module driver

def _functions(module: ModuleInfo) -> List[ast.AST]:
    return [node for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def check_resource_lifetimes(module: ModuleInfo,
                             registry: ContractRegistry) -> List[Finding]:
    """Families 1–3: leak pairing, finally guards, buffer escapes."""
    findings: List[Finding] = []
    seen = set()
    for func in _functions(module):
        analysis = _FunctionAnalysis(module, func, registry)
        analysis.run()
        for finding in analysis.findings():
            key = (finding.line, finding.rule_id, finding.message)
            if key not in seen:
                seen.add(key)
                findings.append(finding)
    return findings


def check_atomic_writes(module: ModuleInfo,
                        registry: ContractRegistry) -> List[Finding]:
    """Family 4: temp-then-rename atomicity of checkpoint writes."""
    findings: List[Finding] = []
    for func in _functions(module):
        findings.extend(_AtomicWriteCheck(module, func, registry).run())
    return findings
