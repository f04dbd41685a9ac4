"""In-memory span recorder and the layer wrappers of the traced run.

The benchmark's per-layer numbers come from spans it records itself,
around calls into each layer's public functions; the program under test
is never edited.  A :class:`Recorder` keeps every span (name, start,
end, parent) in memory and folds them into per-name call counts,
inclusive time and self time (a span minus the spans nested inside it).
:class:`Patcher` installs the wrappers for one traced run and removes
them afterwards.

Wrappers patch a name where the caller looks it up.  ``pipeline.py``
imports ``discover`` by name, so wrapping ``repro.core.discovery`` alone
would miss every call the study makes; :meth:`Patcher.wrap_function`
therefore rebinds the function in *every* loaded ``repro`` module that
holds it.  Methods are patched once, on their class.

The recorder is single-threaded by design: every workload runs its
studies in the calling thread.  Process-pool workers are other
processes, whose calls these spans never see; where a layer metric
must include their work it reads a counter the program folds the
workers' counts into (see :func:`perfbench.layers.layer_metrics`).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Attribute set on every wrapper, so a leftover one can be found.
MARKER = "__perfbench_layer__"

MIB = 1024.0 * 1024.0


class Recorder:
    """Spans plus counters, kept in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.origin = clock()
        # (name, parent index or -1, start, end) per span, in open order.
        self.spans: List[Optional[Tuple[str, int, float, float]]] = []
        # Open spans: [index, name, start, child seconds].
        self._stack: List[list] = []
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, set] = defaultdict(set)
        self.instances: Dict[str, list] = defaultdict(list)

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, parent, 0.0, 0.0))
        self._stack.append([index, name, self._clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        end = self._clock()
        index, name, start, child = self._stack.pop()
        duration = end - start
        self.spans[index] = (name, self.spans[index][1], start, end)
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        return duration

    def covered_seconds(self) -> float:
        """Wall time spent inside any span (the sum of all self times)."""
        return sum(self.self_time.values())

    def write(self, path: str) -> int:
        """Write every span as one JSON line; returns the span count."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for index, (name, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "parent": parent,
                     "start": round(start - self.origin, 7),
                     "end": round(end - self.origin, 7)},
                    separators=(",", ":")))
                handle.write("\n")
        os.replace(tmp, path)
        return len(self.spans)


def _make_wrapper(fn: Callable, recorder: Recorder, span: Optional[str],
                  pre: Optional[Callable], post: Optional[Callable]):
    """A wrapper recording ``fn``'s span and feeding the count hooks.

    ``pre(args, kwargs)`` runs before the span opens and its return value
    reaches ``post(recorder, state, args, kwargs, result, seconds)``,
    which runs after the span closes — so hook bookkeeping never counts
    as the layer's own time.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = pre(args, kwargs) if pre is not None else None
        if span is None:
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - started
        else:
            recorder.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = recorder.exit()
        if post is not None:
            post(recorder, state, args, kwargs, result, seconds)
        return result

    setattr(wrapper, MARKER, span or fn.__qualname__)
    return wrapper


class Patcher:
    """Installs layer wrappers and restores the originals afterwards."""

    def __init__(self, recorder: Recorder) -> None:
        self._recorder = recorder
        # (owner, attribute, original raw value) in installation order.
        self._patched: List[Tuple[object, str, object]] = []

    def wrap_function(self, module_name: str, name: str,
                      span: Optional[str] = None,
                      pre: Optional[Callable] = None,
                      post: Optional[Callable] = None) -> int:
        """Wrap a module-level function at every site that imported it.

        Returns how many module attributes were rebound.
        """
        original = getattr(sys.modules[module_name], name)
        wrapper = _make_wrapper(original, self._recorder, span, pre, post)
        sites = 0
        for module in list(sys.modules.values()):
            module_label = getattr(module, "__name__", "")
            if not module_label.startswith("repro"):
                continue
            namespace = getattr(module, "__dict__", {})
            for attr, value in list(namespace.items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    sites += 1
        return sites

    def wrap_method(self, cls: type, name: str,
                    span: Optional[str] = None,
                    pre: Optional[Callable] = None,
                    post: Optional[Callable] = None) -> None:
        """Wrap a method, classmethod or staticmethod on its class."""
        raw = cls.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(_make_wrapper(raw.__func__, self._recorder,
                                              span, pre, post))
        else:
            wrapped = _make_wrapper(raw, self._recorder, span, pre, post)
        self._patched.append((cls, name, raw))
        setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def leftover_wrappers() -> List[str]:
    """Every marked wrapper still bound in a loaded ``repro`` module.

    Sweeps module attributes and the members of module-level classes,
    so a wrapper left on any name shows up.  An empty list means the
    next run is unpatched.
    """
    leftovers = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(getattr(module, "__dict__", {}).items()):
            if hasattr(value, MARKER) and callable(value):
                leftovers.append(f"{module.__name__}.{attr}")
            elif isinstance(value, type):
                for name, member in list(value.__dict__.items()):
                    func = getattr(member, "__func__", member)
                    if hasattr(func, MARKER):
                        leftovers.append(
                            f"{module.__name__}.{attr}.{name}")
    return sorted(set(leftovers))
