"""Spans around calls into the program's layers, installed from outside it.

``Tracer.install`` rebinds every ``cmstream.*`` module attribute and class
attribute that refers to a listed function to a timing wrapper, and
``uninstall`` puts the originals back. Nothing inside ``src/`` changes.

Spans are kept in memory and written out when the run ends. A call that
made no traced call of its own is folded into one record per (parent span,
name) with its count and busy time: the dense workload makes millions of
``connected`` calls per operation, too many to keep one record each.
Every call is still counted and timed.

The wrapper's own work is not the program's. Before and after each
operation a wrapped no-op is timed to find what one traced call adds
inside its span and outside it (in its caller's self time), at the host
speed of the moment; ``totals`` takes the cheaper of the two back out of
the operation's self times.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# Per-layer name -> (module, qualified name) of the function to time.
LISTED: Dict[str, Tuple[str, str]] = {
    "traceio.capacity_at": ("cmstream.traceio", "CapacityTrace.capacity_at"),
    "traceio.finish_time": ("cmstream.traceio", "CapacityTrace.finish_time"),
    "traceio.connected": ("cmstream.traceio", "EncounterTrace.connected"),
    "traceio.parse_capacity_trace": ("cmstream.traceio",
                                     "parse_capacity_trace"),
    "traceio.parse_encounter_trace": ("cmstream.traceio",
                                      "parse_encounter_trace"),
    "traceio.emit_results": ("cmstream.traceio", "emit_results"),
    "strategy.should_participate": ("cmstream.strategy",
                                    "should_participate"),
    "strategy.build_momd_bid": ("cmstream.strategy", "build_momd_bid"),
    "momd.resolve_vickrey_score": ("cmstream.momd", "resolve_vickrey_score"),
    "somd.optimal_somd_bid": ("cmstream.somd", "optimal_somd_bid"),
    "somd.resolve_second_score": ("cmstream.somd", "resolve_second_score"),
    "model.utility_total": ("cmstream.model", "utility_total"),
    "engine.run_simulation": ("cmstream.engine", "run_simulation"),
}


def _lookup(module: str, qualname: str):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Collects spans: (span id, name, start ns, end ns, parent id, op id,
    count, self ns). Folded records have span id None and count >= 1."""

    def __init__(self, listed: Dict[str, Tuple[str, str]] = LISTED):
        self.listed = listed
        self.records: List[tuple] = []
        self.counters: Counter = Counter()
        self.missing: List[str] = []
        self._stack: List[list] = []
        self._next_id = 0
        self._op_id: Optional[int] = None
        self._patches: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[object, Callable] = {}
        # op id -> wrapper ns per call (inside span, outside span)
        self.cost_ns: Dict[int, Tuple[float, float]] = {}

    # -- rebinding -----------------------------------------------------------

    def install(self) -> None:
        originals = {}
        self.missing = []
        for name, (module, qualname) in self.listed.items():
            try:
                originals[_lookup(module, qualname)] = name
            except (ImportError, AttributeError):
                self.missing.append(name)
        for fn, name in originals.items():
            if fn not in self._wrappers:
                self._wrappers[fn] = self._wrap(name, fn)
        for owner in _owners():
            for attr, value in list(vars(owner).items()):
                try:
                    listed = value in originals
                except TypeError:        # unhashable attribute value
                    continue
                if listed:
                    setattr(owner, attr, self._wrappers[value])
                    self._patches.append((owner, attr, value))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when no listed function is still bound to a wrapper."""
        wrappers = set(map(id, self._wrappers.values()))
        return not any(id(value) in wrappers
                       for owner in _owners() for value in vars(owner).values())

    def _calibrate(self, calls: int = 4000, batches: int = 5):
        """Median per-call ns a wrapper adds inside its span and outside
        it, from timing a wrapped no-op, a bare no-op and an empty loop.
        The no-op takes four arguments, as the most frequent traced call,
        ``connected(self, a, b, t)``, does."""
        def noop(a, b, c, d):
            return None

        traced = self._wrap("calibration", noop)
        clock = time.perf_counter_ns
        inside, outside = [], []
        for _ in range(batches):
            root = ["calibration", 0, 0, None, None]
            self._stack.append(root)
            t0 = clock()
            for _ in range(calls):
                traced(0, 1, 2, 3)
            t1 = clock()
            for _ in range(calls):
                noop(0, 1, 2, 3)
            t2 = clock()
            for _ in range(calls):
                pass
            t3 = clock()
            self._stack.pop()
            busy = root[3]["calibration"][1]    # time inside the spans
            loop = t3 - t2
            inside.append((busy - (t2 - t1) + loop) / calls)
            outside.append((t1 - t0 - busy - loop) / calls)
        return (max(0.0, statistics.median(inside)),
                max(0.0, statistics.median(outside)))

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span of one operation; every traced call inside is its
        child."""
        before = self._calibrate()
        self._op_id = op_id
        frame = ["op", time.perf_counter_ns(), 0, None, None]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._emit(frame, end, None)
            # A calibration that ran in a slow moment of the host would
            # take out more than the wrapper cost: keep the cheaper one.
            after = self._calibrate()
            self.cost_ns[op_id] = (min(before[0], after[0]),
                                   min(before[1], after[1]))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns
        close = self._close
        observe = _OBSERVERS.get(name)
        counters = self.counters

        # Entering the wrapper and the bookkeeping after the clock is read
        # on exit fall in the caller's self time, the rest in this span's;
        # totals() takes both out with the operation's calibrated costs.
        def traced(*args, **kwargs):
            frame = [name, clock(), 0, None, None]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end)
            if observe is not None:
                observe(counters, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _id(self, frame: list) -> int:
        if frame[4] is None:
            self._next_id += 1
            frame[4] = self._next_id
        return frame[4]

    def _close(self, frame: list, end: int) -> None:
        # frame: [name, start, child ns, folded children, span id]
        name, start, child_ns, folded, span_id = frame
        duration = end - start
        parent = self._stack[-1]
        parent[2] += duration
        if folded is None and span_id is None:
            buckets = parent[3]
            if buckets is None:
                buckets = parent[3] = {}
            agg = buckets.get(name)
            if agg is None:
                buckets[name] = [1, duration, start, end]
            else:
                agg[0] += 1
                agg[1] += duration
                agg[3] = end
            return
        self._emit(frame, end, self._id(parent))

    def _emit(self, frame: list, end: int, parent_id: Optional[int]) -> None:
        name, start, child_ns, folded, _ = frame
        span_id = self._id(frame)
        op_id = self._op_id
        self.records.append((span_id, name, start, end, parent_id, op_id, 1,
                             end - start - child_ns))
        for child, (count, busy, first, last) in (folded or {}).items():
            self.records.append((None, child, first, last, span_id, op_id,
                                 count, busy))

    # -- results -------------------------------------------------------------

    def totals(self, corrected: bool = True) -> Dict[str, Tuple[int, float]]:
        """Calls and self ns per listed name, over every recorded span.

        Corrected self times lose the wrapper cost calibrated for their
        operation: the cost inside the span for each of the name's calls,
        and the cost outside for each traced call its spans made
        directly."""
        names = {r[0]: r[1] for r in self.records if r[0] is not None}
        calls = Counter()
        busy = Counter()
        for _, name, _, _, parent, op, count, self_ns in self.records:
            inside, outside = (self.cost_ns.get(op, (0.0, 0.0))
                               if corrected else (0.0, 0.0))
            calls[name] += count
            busy[name] += self_ns - count * inside
            busy[names.get(parent)] -= count * outside
        return {name: (calls[name], max(0.0, busy[name]))
                for name in self.listed}

    def removed_ns(self) -> float:
        """Wrapper cost the corrected self times leave out, over all calls."""
        return sum(count * sum(self.cost_ns.get(op, (0.0, 0.0)))
                   for _, name, _, _, _, op, count, _ in self.records
                   if name != "op")

    def write(self, path) -> None:
        fields = ("span", "name", "start_ns", "end_ns", "parent", "op",
                  "count", "self_ns")
        with open(path, "w") as f:
            for record in self.records:
                f.write(json.dumps(dict(zip(fields, record))) + "\n")


def _owners():
    """Every cmstream module and every class defined in one."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "cmstream"
                                  or name.startswith("cmstream.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if (isinstance(value, type) and id(value) not in seen
                    and getattr(value, "__module__", "").startswith(
                        "cmstream")):
                seen.add(id(value))
                yield value


def _count_refusals(counters: Counter, admitted) -> None:
    if not admitted:
        counters["refusals"] += 1


def _count_winners(counters: Counter, outcome) -> None:
    counters["winning_bids"] += sum(
        1 for kappa in outcome.revised_allocation.values() if kappa)


_OBSERVERS = {
    "strategy.should_participate": _count_refusals,
    "momd.resolve_vickrey_score": _count_winners,
}
