"""Trace ingestion and synthesis, metrics, and results emission.

Canonical interchange formats (UTF-8, comma separated, LF endings):

  capacity trace:   header ``time_s,user_id,capacity_mbps``
  encounter trace:  header ``time_s,user_a,user_b,connected``

Capacity traces are piecewise constant; the last value extends to the
horizon. Numbers in emitted result files carry 6 significant digits.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .model import lsum


_first = operator.itemgetter(0)
_second = operator.itemgetter(1)
_CONNECTED = frozenset((0, 1))


class TraceParseError(ValueError):
    pass


class TraceUnderrunError(RuntimeError):
    pass


@dataclass(frozen=True)
class CapacityTrace:
    """Per-user piecewise-constant cellular link capacity."""

    breakpoints: Dict[str, Tuple[Tuple[float, float], ...]]

    def __post_init__(self):
        clean = {}
        for user, points in self.breakpoints.items():
            points = tuple([(float(t), float(h)) for t, h in points])
            if not points or points[0][0] != 0.0:
                raise TraceParseError(
                    f"user {user}: capacity trace must start at time 0")
            times = list(map(_first, points))
            # a < b is false when either is NaN, so a chain that strictly
            # increases from 0 to a finite last time is finite throughout
            if not (all(map(operator.lt, times, times[1:]))
                    and times[-1] < math.inf):
                raise TraceParseError(f"user {user}: breakpoint times must "
                                      f"be finite and strictly increase")
            caps = list(map(_second, points))
            if not (all(map(operator.le, repeat(0), caps))
                    and all(map(operator.lt, caps, repeat(math.inf)))):
                raise TraceParseError(
                    f"user {user}: negative or non-finite capacity")
            clean[user] = points
        object.__setattr__(self, "breakpoints", clean)

    @property
    def users(self) -> Tuple[str, ...]:
        return tuple(self.breakpoints)

    def capacity_at(self, user: str, t: float) -> float:
        points = self._points(user)
        return points[_segment(points, t)][1]

    def finish_time(self, user: str, start: float, volume_mbits: float) -> float:
        """Earliest time by which the user's link moves volume_mbits from start."""
        if volume_mbits <= 0:
            return start
        points = self._points(user)
        remaining = volume_mbits
        for i in range(_segment(points, start), len(points)):
            bt, h = points[i]
            seg_start = max(start, bt)
            if i + 1 == len(points):
                if h <= 0:
                    raise TraceUnderrunError(
                        f"unreachable completion: user {user} has zero capacity "
                        f"from t={seg_start}")
                return seg_start + remaining / h
            if h > 0:
                capacity_here = h * (points[i + 1][0] - seg_start)
                if capacity_here >= remaining:
                    return seg_start + remaining / h
                remaining -= capacity_here
        raise AssertionError("unreachable")

    def _points(self, user: str):
        try:
            return self.breakpoints[user]
        except KeyError:
            raise TraceUnderrunError(f"no capacity trace for user {user}")


@dataclass(frozen=True)
class EncounterTrace:
    """Pairwise encounter toggles; a user always encounters itself.

    Pairs with no recorded toggles take default_connected. An empty toggle
    dict with default_connected=True models a fully meshed group. A self-pair
    or a pair given twice (in either order) is a TraceParseError.
    """

    toggles: Dict[Tuple[str, str], Tuple[Tuple[float, int], ...]] = field(
        default_factory=dict)
    default_connected: bool = True

    def __post_init__(self):
        clean = {}
        for pair, events in self.toggles.items():
            key = tuple(sorted(pair))
            if key[0] == key[1]:
                raise TraceParseError(f"pair {key}: a user with itself")
            if key in clean:
                raise TraceParseError(f"pair {key}: given twice")
            events = tuple([(float(t), int(v)) for t, v in events])
            times = list(map(_first, events))
            # as for capacity breakpoints: finite ends and a strictly
            # increasing chain leave no NaN or infinity inside
            if times and not (-math.inf < times[0] and times[-1] < math.inf
                              and all(map(operator.lt, times, times[1:]))):
                raise TraceParseError(
                    f"pair {key}: toggle times must be finite and increase")
            values = list(map(_second, events))
            if any(map(operator.eq, values, values[1:])):
                raise TraceParseError(f"pair {key}: toggles must alternate")
            if not _CONNECTED.issuperset(values):
                raise TraceParseError(f"pair {key}: connected must be 0/1")
            clean[key] = events
        object.__setattr__(self, "toggles", clean)

    def connected(self, a: str, b: str, t: float) -> bool:
        if a == b:
            return True
        events = self.toggles.get((a, b) if a < b else (b, a))
        if events is None:
            return self.default_connected
        # (t, 2) sorts after every toggle at t, whose value is 0 or 1
        i = bisect_right(events, (t, 2))
        return bool(i and events[i - 1][1])


def _segment(points: Tuple[Tuple[float, float], ...], t: float) -> int:
    """Index of the breakpoint in force at t: the last one at or before t,
    or the first when t precedes them all."""
    return max(bisect_right(points, (t, math.inf)) - 1, 0)


def parse_capacity_trace(text: str) -> CapacityTrace:
    """Parse the canonical capacity-trace CSV; errors carry the line number."""
    rows: Dict[str, List[Tuple[float, float]]] = {}
    inf = math.inf
    for lineno, (t, user, h) in _csv_rows(
            text, ("time_s", "user_id", "capacity_mbps")):
        try:
            t = float(t)
            h = float(h)
        except ValueError:
            raise TraceParseError(f"line {lineno}: malformed number")
        if not (-inf < t < inf and 0 <= h < inf):
            if not math.isfinite(t) or math.isnan(h) or h == inf:
                raise TraceParseError(f"line {lineno}: non-finite number")
            raise TraceParseError(f"line {lineno}: negative capacity")
        prev = rows.get(user)
        if prev is None:
            rows[user] = [(t, h)]
        elif t > prev[-1][0]:
            prev.append((t, h))
        else:
            raise TraceParseError(
                f"line {lineno}: non-monotone time for user {user}")
    for user, points in rows.items():
        if points[0][0] != 0.0:
            raise TraceParseError(f"user {user}: missing breakpoint at time 0")
    return CapacityTrace({u: tuple(p) for u, p in rows.items()})


def emit_capacity_trace(trace: CapacityTrace) -> str:
    out = ["time_s,user_id,capacity_mbps"]
    for user in trace.users:
        for t, h in trace.breakpoints[user]:
            out.append(f"{_fmt(t)},{user},{_fmt(h)}")
    return "\n".join(out) + "\n"


def parse_encounter_trace(text: str) -> EncounterTrace:
    toggles: Dict[Tuple[str, str], List[Tuple[float, int]]] = {}
    inf = math.inf
    for lineno, (t, a, b, v) in _csv_rows(
            text, ("time_s", "user_a", "user_b", "connected")):
        try:
            t = float(t)
            v = int(v)
        except ValueError:
            raise TraceParseError(f"line {lineno}: malformed number")
        if not -inf < t < inf:
            raise TraceParseError(f"line {lineno}: non-finite number")
        pair = (a, b) if a <= b else (b, a)
        events = toggles.get(pair)
        if events is None:
            toggles[pair] = [(t, v)]
        else:
            events.append((t, v))
    return EncounterTrace({p: tuple(e) for p, e in toggles.items()})


def emit_encounter_trace(trace: EncounterTrace) -> str:
    out = ["time_s,user_a,user_b,connected"]
    for pair in sorted(trace.toggles):
        for t, v in trace.toggles[pair]:
            out.append(f"{_fmt(t)},{pair[0]},{pair[1]},{v}")
    return "\n".join(out) + "\n"


def _csv_rows(text: str, header: Tuple[str, ...]):
    """(line number, row) for each row after the header, blank lines left
    out. The rows before the first one with a wrong field count come out
    before that row's error is raised."""
    rows = list(csv.reader(io.StringIO(text)))
    n = len(header)
    bad = len(rows)  # the first row neither blank nor n fields wide, if any
    if not {0, n}.issuperset(map(len, rows)):
        bad = next(k for k, row in enumerate(rows) if len(row) not in (0, n))
    lines = filter(_second, enumerate(rows[:bad], 1))
    first = next(lines, None)
    if first is None or tuple(first[1]) != header:
        raise TraceParseError(f"line 1: expected header {','.join(header)}")
    if bad == len(rows):
        return lines
    return _then_raise(lines, TraceParseError(
        f"line {bad + 1}: expected {n} fields"))


def _then_raise(items, exc: Exception):
    yield from items
    raise exc


def generate_synthetic_traces(
    stats: Mapping[str, Tuple[float, float]],
    horizon_s: float,
    step_s: float,
    seed: int,
) -> CapacityTrace:
    """Piecewise-constant capacities drawn per step from a normal truncated
    at zero; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    steps = int(np.ceil(horizon_s / step_s))
    points: Dict[str, Tuple[Tuple[float, float], ...]] = {}
    for user in stats:  # caller-provided order keeps the draw sequence stable
        mean, std = stats[user]
        if not (0 < mean < math.inf and 0 <= std < math.inf):
            raise ValueError(f"user {user}: need finite mean > 0 and "
                             f"finite std >= 0")
        draws = np.clip(rng.normal(mean, std, size=steps), 0.0, None)
        points[user] = tuple((i * step_s, float(h)) for i, h in enumerate(draws))
    return CapacityTrace(points)


def degradation_ratio(bitrates: Sequence[float]) -> float:
    """Bitrate-drop volume over the sum of all received segment bitrates."""
    total = lsum(bitrates)
    if total == 0:
        return 0.0
    drops = lsum(max(a - b, 0.0) for a, b in zip(bitrates, bitrates[1:]))
    return drops / total


# Stable column order for the per-user metrics table.
METRIC_COLUMNS = (
    "user_id", "welfare", "payments_made", "payments_received",
    "average_bitrate_mbps", "rebuffer_s", "rebuffer_ratio",
    "degradation_volume_mbps", "degradation_ratio",
)


def emit_results(result, fmt: str, out_dir: Path,
                 include_events: bool = False) -> List[Path]:
    """Write a simulation result (or a comparison table) under out_dir.

    fmt is "csv" or "json-lines". Returns the written paths.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if hasattr(result, "rows"):  # comparison table
            return [_write_table(result.rows, result.columns,
                                 out_dir / f"comparison.{_ext(fmt)}", fmt)]
        summary = result.aggregate_row()
        paths = [
            _write_table(result.per_user_rows(), METRIC_COLUMNS,
                         out_dir / f"metrics.{_ext(fmt)}", fmt),
            _write_table([summary], tuple(summary),
                         out_dir / f"summary.{_ext(fmt)}", fmt),
        ]
        if include_events:
            paths.append(_write_table(
                [e.as_row() for e in result.events],
                ("time_s", "kind", "payload"),
                out_dir / f"events.{_ext(fmt)}", fmt))
        return paths
    except OSError as exc:
        raise OSError(f"cannot write results under {out_dir}: {exc}") from exc


def _ext(fmt: str) -> str:
    if fmt == "csv":
        return "csv"
    if fmt == "json-lines":
        return "jsonl"
    raise ValueError(f"unknown results format {fmt!r}")


def _write_table(rows: Iterable[Mapping[str, object]],
                 columns: Sequence[str], path: Path, fmt: str) -> Path:
    rows = list(rows)
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join([_fmt(row.get(c, "")) for c in columns]))
        path.write_text("\n".join(lines) + "\n")
    else:
        lines = [json.dumps({c: _round(row.get(c)) for c in columns},
                            sort_keys=False)
                 for row in rows]
        path.write_text("\n".join(lines) + "\n")
    return path


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _round(value):
    if isinstance(value, float):
        return float(f"{value:.6g}")
    return value

