"""In-memory span recorder and function wrappers.

A span is one call into a wrapped function: its name, start and end
(``time.perf_counter`` seconds), the index of the span that was open when
it began, and attributes computed from the call's result.  Spans stay in
memory until :meth:`Tracer.dump` writes them out.

With ``memory=True`` the tracer also records, per span, the tracemalloc
peak reached while the span was open, relative to the traced memory at
its start (``peak_bytes``).  The caller starts and stops tracemalloc.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, memory: bool = False):
        self.spans: list[Span] = []
        self.memory = memory
        self._open: list[int] = []
        # per open span: [traced bytes at start, highest peak seen so far]
        self._mem: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self.memory:
            base, peak = self._mem.pop()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            attrs["peak_bytes"] = peak - base
        span.attrs.update(attrs)

    def run(self, name: str, fn: Callable, *args, describe=None, **kwargs):
        """Call ``fn`` inside a span; ``describe(result)`` gives its attributes."""
        idx = self.begin(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            self.end(idx, error=f"{type(exc).__name__}: {exc}")
            raise
        self.end(idx, **(describe(out) if describe else {}))
        return out

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        ``owner`` is the module (or class) whose attribute the caller looks
        up at call time, so a function imported into several modules is
        wrapped once per importing module.
        """
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.run(name, original, *args, describe=describe, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans], fh
            )


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            out.setdefault(s.parent, []).append(i)
    return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    kids = children_of(spans)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in kids.get(i, ())
        ):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.duration - covered)
    return out


def tree_problems(spans: list[Span], idx: list[int]) -> list[str]:
    """Breaches, among the spans ``idx``, of what the per-layer sums rest on.

    Every span is closed; its children's durations add up to no more than
    its own (they neither overlap nor outlast it); and no span opens inside
    another of the same name, since a layer's time is the sum of its spans'
    durations.  Together these make the self times add up to the root's
    duration without clipping.
    """
    kids = children_of(spans)
    problems = []
    for i in idx:
        s = spans[i]
        if not s.end >= s.start:  # NaN end: never closed
            problems.append(f"span {i} ({s.name}) is not closed")
            continue
        excess = sum(spans[c].duration for c in kids.get(i, ())) - s.duration
        if not excess <= 1e-6:
            problems.append(f"children of span {i} ({s.name}) outlast it by {excess:.3g} s")
        p = s.parent
        while p >= 0:
            if spans[p].name == s.name:
                problems.append(f"span {i} ({s.name}) nests inside span {p} of the same name")
                break
            p = spans[p].parent
    return problems
