"""Spans recorded around calls into the program, kept in memory.

The traced pass replaces public functions of ``repro`` at run time with
wrappers that record one span per call: its name, start, end, parent
span and the work unit it ran in.  Nothing under ``src/`` is edited; a
name is wrapped where its caller looks it up, so a function imported
into another module is patched in that module.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

#: ``count(args, result)`` hook run after a span closes.
CountHook = Callable[[tuple, Any], None]

#: A span name, or a function of the call's positional arguments.
SpanName = Union[str, Callable[[tuple], str]]


def patch(owner: Any, name: str, make_wrapper: Callable[[Callable], Callable]):
    """Replace ``owner.<name>`` by ``make_wrapper(original)``.

    ``owner`` is a module or a class.  On a class the attribute must be
    defined by that class itself (not inherited), and classmethods and
    staticmethods keep their kind.  Returns a function that undoes the
    replacement.
    """
    raw = owner.__dict__[name]
    if isinstance(raw, (classmethod, staticmethod)):
        replacement = type(raw)(make_wrapper(raw.__func__))
    else:
        replacement = make_wrapper(raw)
    setattr(owner, name, replacement)
    return lambda: setattr(owner, name, raw)


class Tracer:
    """Spans of one traced pass, stored column-wise in ``array`` s.

    Calls are assumed to come from one thread: an open span is the
    parent of every span that starts before it ends.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.units = array("q")
        #: The work unit now running, or -1 outside any unit.
        self.unit = -1
        #: Counts recorded by the wrappers' hooks.
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.starts)

    def name_id(self, name: str) -> int:
        """The index of ``name`` in :attr:`names`, added if new."""
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def add(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` to the count ``key``."""
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrapper(
        self, name: SpanName, count: Optional[CountHook] = None
    ) -> Callable[[Callable], Callable]:
        """A ``make_wrapper`` for :func:`patch` that records spans."""
        static_id = None if callable(name) else self.name_id(name)

        def make(func: Callable) -> Callable:
            @functools.wraps(func)
            def traced(*args: Any, **kwargs: Any) -> Any:
                index = len(self.starts)
                stack = self._stack
                self.name_ids.append(
                    static_id if static_id is not None else self.name_id(name(args))
                )
                self.parents.append(stack[-1] if stack else -1)
                self.units.append(self.unit)
                self.ends.append(0)
                stack.append(index)
                self.starts.append(self.clock())
                try:
                    result = func(*args, **kwargs)
                finally:
                    self.ends[index] = self.clock()
                    stack.pop()
                if count is not None:
                    count(args, result)
                return result

            return traced

        return make

    def write(self, path) -> None:
        """Write every span to ``path`` as one JSON document."""
        document = {
            "columns": ["name", "start_ns", "end_ns", "parent", "unit"],
            "names": self.names,
            "spans": [
                list(row)
                for row in zip(
                    self.name_ids, self.starts, self.ends, self.parents, self.units
                )
            ],
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> List[int]:
    """Each span's duration minus the part of it its child spans cover.

    Children that overlap each other are counted once (their union),
    and a child reaching outside its parent counts only inside it.
    """
    children: Dict[int, List[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0
        reach = start
        for child in sorted(children.get(index, ()), key=starts.__getitem__):
            low = max(starts[child], reach)
            high = min(ends[child], end)
            if high > low:
                covered += high - low
                reach = high
        out.append(end - start - covered)
    return out


def self_time_by_name(tracer: Tracer) -> Dict[str, float]:
    """Total self time in seconds per span name."""
    totals = [0] * len(tracer.names)
    for name_id, own in zip(
        tracer.name_ids, self_times(tracer.starts, tracer.ends, tracer.parents)
    ):
        totals[name_id] += own
    return {name: totals[i] / 1e9 for i, name in enumerate(tracer.names)}


def calls_by_name(tracer: Tracer) -> Dict[str, int]:
    """Number of spans per span name."""
    totals = [0] * len(tracer.names)
    for name_id in tracer.name_ids:
        totals[name_id] += 1
    return {name: totals[i] for i, name in enumerate(tracer.names)}


def root_time(tracer: Tracer) -> float:
    """Seconds covered by spans that have no parent."""
    return sum(
        end - start
        for start, end, parent in zip(tracer.starts, tracer.ends, tracer.parents)
        if parent < 0
    ) / 1e9
