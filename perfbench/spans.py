"""In-memory spans around the library's public functions.

A traced run replaces each wrapped function, in every loaded ``duetsep``
module that binds it, by a wrapper that records one span per call: name,
start, end, parent span and job id. ``patched`` puts the originals back on
exit, so an untraced run afterwards measures unpatched code. Self times and
per-name busy times are derived from the span list afterwards.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in the same list
    job: int  # job id; set-up repetitions use negative ids
    shape: Optional[Tuple[int, int, int]] = None  # (rows, K, d) of a score call

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``begin``/``end`` must nest like calls do."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.job = 0
        self._open: List[list] = []
        self._stack: List[int] = []

    def begin(self, name: str, shape: Optional[Tuple[int, int, int]] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self._open)
        self._open.append([name, self.clock(), None, parent, self.job, shape])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} was open")
        self._open[idx][2] = self.clock()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    @property
    def spans(self) -> List[Span]:
        return [Span(*row) for row in self._open]

    def wrap(self, fn: Callable, name: str, shape_of: Optional[Callable] = None) -> Callable:
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            idx = begin(name, shape_of(*args, **kwargs) if shape_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        wrapper.__wrapped__ = fn
        return wrapper


def _library_modules() -> List[object]:
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "duetsep" or key.startswith("duetsep."))
    ]


@contextmanager
def patched(
    recorder: Recorder,
    targets: Sequence[Tuple[object, str, Optional[Callable]]],
) -> Iterator[List[Tuple[object, str, Callable]]]:
    """Wrap each (defining module, attribute, shape_of) target wherever a
    duetsep module binds it; the span name is the attribute name.

    Yields the list of (module, attribute, original) that were replaced and
    restores every one of them on exit, also when the body raises.
    """
    replaced: List[Tuple[object, str, Callable]] = []
    modules = _library_modules()
    try:
        for home, attr, shape_of in targets:
            original = getattr(home, attr)
            wrapper = recorder.wrap(original, attr, shape_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        replaced.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield replaced
    finally:
        for mod, key, original in reversed(replaced):
            setattr(mod, key, original)


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


@dataclass
class NameTotals:
    calls: int = 0
    busy_s: float = 0.0  # outermost spans of the name only, so recursion is not counted twice
    self_s: float = 0.0
    rows: int = 0


def totals_by_name(spans: Sequence[Span], jobs: Optional[set] = None) -> Dict[str, NameTotals]:
    """Per-name calls, busy and self seconds over the spans of the given jobs."""
    selfs = self_times(spans)
    out: Dict[str, NameTotals] = {}
    for i, s in enumerate(spans):
        if jobs is not None and s.job not in jobs:
            continue
        t = out.setdefault(s.name, NameTotals())
        t.calls += 1
        t.self_s += selfs[i]
        if s.shape is not None:
            t.rows += s.shape[0]
        if not _has_ancestor_named(spans, i, s.name):
            t.busy_s += s.duration
    return out


def _has_ancestor_named(spans: Sequence[Span], idx: int, name: str) -> bool:
    p = spans[idx].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
