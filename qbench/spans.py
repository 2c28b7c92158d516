"""Span tracer that wraps qpotlab's public functions from outside the package.

A target such as ``grid.power_laplacian`` is wrapped under every name that
refers to it inside the package (``grid.power_laplacian``,
``dynamics.power_laplacian``, ``qpotential.power_laplacian``, ...), so a
call is recorded whichever module the caller looks it up in.  A target
whose module or function no longer exists is reported as absent with zero
calls instead of failing the run.

Spans are kept in memory: name, start, end, index of the parent span and
a small dict of per-call facts (points, steps, bytes written, ...).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "qpotlab"

# Extractors turn (bound arguments, result) into per-call facts.
Extractor = Callable[[dict, object], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a span with no parent
    info: dict = field(default_factory=dict)


class Tracer:
    """Install with :meth:`install`, run the traced code, then :meth:`uninstall`."""

    def __init__(self, targets: dict[str, Extractor | None]):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.unmeasured: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        found = {target: _lookup(target) for target in self.targets}
        self.absent = [target for target, fn in found.items() if fn is None]
        # Listed after the lookups, which may import modules.
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for target, extract in self.targets.items():
            fn = found[target]
            if fn is None:
                continue
            wrapper = self._wrap(target, fn, extract)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable, extract: Extractor | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if extract else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if extract is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.info = extract(bound.arguments, result)
                except (KeyError, AttributeError, TypeError, OSError):
                    # A changed signature or result type loses the facts,
                    # not the run.
                    self.unmeasured.add(name)
            return result

        return wrapper


def _lookup(target: str) -> Callable | None:
    module_name, fn_name = target.rsplit(".", 1)
    try:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ModuleNotFoundError:
        return None
    fn = getattr(module, fn_name, None)
    return fn if callable(fn) else None


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]

