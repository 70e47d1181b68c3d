"""Spans around calls into ``gldp``, recorded from outside the package.

A :class:`Tracer` replaces module attributes (``"gldp.milp.linprog"``) by
wrappers that record one span per call: a name, a start, an end, the index
of the enclosing span and, optionally, counts read from the call's arguments
and result.  Spans are kept in memory.  A target that does not exist is
recorded as missing instead of failing the run, and the metrics that depend
on it are reported as unmeasured.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# counts(args, kwargs, result) -> {count name: value}
CountFn = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a top-level span
    label: str = ""
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, label: str = "") -> Iterator[Span]:
        """Record a span around the benchmark's own code."""
        span = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else -1, label=label)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, target: str, name: str, counts: Optional[CountFn] = None) -> bool:
        """Wrap the attribute named by ``target`` ("package.module.attr").

        Returns False, and records ``name`` as missing, when the module or
        the attribute does not exist.
        """
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(name)
            return False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if counts is not None:
                span.counts.update(counts(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))
        return True

    def unwrap(self) -> None:
        """Restore every wrapped attribute."""
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def clear(self) -> None:
        self.spans.clear()

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.spans if s.name == name)

    def ancestor(self, span: Span, name: str) -> Optional[Span]:
        """The nearest enclosing span called ``name``, if any."""
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == name:
                return span
        return None

    def total_within(self, name: str, ancestor: str) -> float:
        """Time in ``name`` spans that run inside an ``ancestor`` span."""
        return sum(
            s.duration
            for s in self.spans
            if s.name == name and self.ancestor(s, ancestor) is not None
        )

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus the time their direct children cover."""
        own = {i for i, s in enumerate(self.spans) if s.name == name}
        child = sum(s.duration for s in self.spans if s.parent in own)
        return self.total(name) - child
