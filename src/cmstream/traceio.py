"""Trace ingestion and synthesis, metrics, and results emission.

Canonical interchange formats (UTF-8, comma separated, LF endings):

  capacity trace:   header ``time_s,user_id,capacity_mbps``
  encounter trace:  header ``time_s,user_a,user_b,connected``

Capacity traces are piecewise constant; the last value extends to the
horizon. Numbers in emitted result files carry 6 significant digits, and
so do the trace emitters' capacities and times, bar a time that 6 digits
would change, which is written exactly.

Both parsers read by one rule. A plain file (the header on line 1, then
one or more rows of exactly its field count: no blank line, quote, CR or
NUL) is split into columns in bulk, its raw cells are grouped by user (or
pair), and the trace class converts and checks them, once. A valid plain
file never goes row by row. Every other file, a header-only one included,
and any plain file the class refuses, goes through the row scan: the plain
per-row parser, which alone words a fault, by line or, for a user's or a
pair's whole list, in the class's words. The emitters quote an id holding
a comma or a quote, so its file takes the row scan and reads back.

``phased_capacity`` is the one code that draws a capacity: the synthetic
traces of ``gen-traces`` and ``compare`` and every scenario go through it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import compress, repeat
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .model import lsum


_first = operator.itemgetter(0)
_second = operator.itemgetter(1)
_CONNECTED = frozenset((0, 1))
_CAPACITY_HEADER = ("time_s", "user_id", "capacity_mbps")
_ENCOUNTER_HEADER = ("time_s", "user_a", "user_b", "connected")


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
    columns = _plain_columns(text, _CAPACITY_HEADER)
    if columns is not None:
        t_col, users, h_col = columns
        try:
            return CapacityTrace(_group_runs(users, list(zip(t_col, h_col))))
        except ValueError:  # a malformed number or a trace check's
            pass  # TraceParseError: the row scan words the fault
    return _scan_capacity_trace(text)


def _scan_capacity_trace(text: str) -> CapacityTrace:
    rows: Dict[str, List[Tuple[float, float]]] = {}
    for lineno, (t, user, h) in _csv_rows(text, _CAPACITY_HEADER):
        t, h = _row_numbers(lineno, t, h, float)
        if math.isnan(h) or h == math.inf:
            raise TraceParseError(f"line {lineno}: non-finite number")
        if h < 0:
            raise TraceParseError(f"line {lineno}: negative capacity")
        points = rows.setdefault(user, [])
        if points and t <= points[-1][0]:
            raise TraceParseError(
                f"line {lineno}: non-monotone time for user {user}")
        points.append((t, h))
    for user, points in rows.items():
        if points[0][0] != 0.0:
            raise TraceParseError(f"user {user}: missing breakpoint at time 0")
    return CapacityTrace({u: tuple(p) for u, p in rows.items()})


def emit_capacity_trace(trace: CapacityTrace) -> str:
    out = [",".join(_CAPACITY_HEADER)]
    for user in trace.users:
        points = trace.breakpoints[user]
        cell = _fmt(user)
        for t, h in zip(_time_cells(points), map(_second, points)):
            out.append(f"{t},{cell},{h:.6g}")  # _fmt's 6 digits
    return "\n".join(out) + "\n"


def parse_encounter_trace(text: str) -> EncounterTrace:
    """Parse the canonical encounter-trace CSV; errors carry the line
    number, or the pair for a fault in its toggles."""
    columns = _plain_columns(text, _ENCOUNTER_HEADER)
    if columns is not None:
        t_col, a_col, b_col, v_col = columns
        try:
            return EncounterTrace(_group_runs(list(zip(a_col, b_col)),
                                              list(zip(t_col, v_col))))
        except ValueError:  # as for capacity traces
            pass
    return _scan_encounter_trace(text)


def _scan_encounter_trace(text: str) -> EncounterTrace:
    toggles: Dict[Tuple[str, str], List[Tuple[float, int]]] = {}
    for lineno, (t, a, b, v) in _csv_rows(text, _ENCOUNTER_HEADER):
        pair = (a, b) if a <= b else (b, a)
        toggles.setdefault(pair, []).append(_row_numbers(lineno, t, v, int))
    return EncounterTrace({p: tuple(e) for p, e in toggles.items()})


def emit_encounter_trace(trace: EncounterTrace) -> str:
    out = [",".join(_ENCOUNTER_HEADER)]
    for pair in sorted(trace.toggles):
        events = trace.toggles[pair]
        cells = f"{_fmt(pair[0])},{_fmt(pair[1])}"
        for t, v in zip(_time_cells(events), map(_second, events)):
            out.append(f"{t},{cells},{v}")
    return "\n".join(out) + "\n"


def _time_cells(points) -> List[str]:
    """The times of one user's (or pair's) points as cells: 6 significant
    digits, as _fmt writes a float, or repr where 6 digits would read back
    as another time."""
    times = list(map(_first, points))
    cells = list(map(format, times, repeat(".6g")))
    if list(map(float, cells)) != times:
        cells = [c if float(c) == t else repr(t)
                 for c, t in zip(cells, times)]
    return cells


def _plain_columns(text: str, header: Tuple[str, ...]):
    """The columns of the rows after the header when text is a plain file:
    the header on line 1, then rows of exactly the header's field count,
    no blank line, no quote, CR or NUL, and no line the csv module would
    refuse as too long. Otherwise None, and the row scan reads it."""
    head = ",".join(header) + "\n"
    if not text.startswith(head) or '"' in text or "\r" in text \
            or "\0" in text:
        return None
    lines = text[len(head):].split("\n")
    if not lines[-1]:
        lines.pop()  # the final newline
    n = len(header)
    if not (lines and {n - 1} == set(map(str.count, lines, repeat(",")))
            and max(map(len, lines)) <= csv.field_size_limit()):
        return None
    cells = ",".join(lines).split(",")
    return [cells[k::n] for k in range(n)]


def _group_runs(keys: list, points: list) -> dict:
    """points grouped by key, joining the runs of a key in file order."""
    starts = [0, *compress(range(1, len(keys)),
                           map(operator.ne, keys[1:], keys)), len(keys)]
    grouped: dict = {}
    for i, j in zip(starts, starts[1:]):
        run = grouped.get(keys[i])
        if run is None:
            grouped[keys[i]] = points[i:j]
        else:
            run += points[i:j]
    return {key: tuple(run) for key, run in grouped.items()}


def _csv_rows(text: str, header: Tuple[str, ...]):
    """(line number, row) for each row after the header, blank lines left
    out. A wrong header, a row of the wrong field count and text the csv
    module refuses raise a TraceParseError when the scan reaches them."""
    reader = csv.reader(io.StringIO(text))
    rows = ((lineno, row) for lineno, row in enumerate(reader, 1) if row)
    try:
        first = next(rows, None)
        if first is None or tuple(first[1]) != header:
            raise TraceParseError(
                f"line 1: expected header {','.join(header)}")
        for lineno, row in rows:
            if len(row) != len(header):
                raise TraceParseError(
                    f"line {lineno}: expected {len(header)} fields")
            yield lineno, row
    except csv.Error as exc:
        raise TraceParseError(f"line {reader.line_num}: {exc}") from None


def _row_numbers(lineno: int, t: str, value: str, kind) -> tuple:
    """A row's time as a finite float and its value as ``kind``."""
    try:
        t, value = float(t), kind(value)
    except ValueError:
        raise TraceParseError(f"line {lineno}: malformed number") from None
    if not math.isfinite(t):
        raise TraceParseError(f"line {lineno}: non-finite number")
    return t, value


def phased_capacity(phases: Sequence[Tuple[float, float, float]],
                    step_s: float, rng: "numpy.random.Generator",
                    ) -> Tuple[Tuple[float, float], ...]:
    """Capacity points for (duration_s, mean, std) phases, drawn in order
    from rng: a phase takes ceil(duration_s / step_s) normal draws truncated
    at zero, and step k, counted across phases, starts at k * step_s."""
    draws: List[float] = []
    for duration, mean, std in phases:
        draws += rng.normal(mean, std, size=math.ceil(duration / step_s)
                            ).clip(0.0, None).tolist()
    return tuple([(k * step_s, h) for k, h in enumerate(draws)])


def generate_synthetic_traces(
    stats: Mapping[str, Tuple[float, float]],
    horizon_s: float,
    step_s: float,
    seed: int,
) -> CapacityTrace:
    """One phase of ``horizon_s`` per user, drawn by phased_capacity from
    one generator in the order of stats; deterministic for a given seed."""
    for name, value in (("horizon_s", horizon_s), ("step_s", step_s)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name}: need finite {name} > 0, "
                             f"got {value!r}")
    import numpy as np  # here alone: a CLI run that draws no traces skips it

    rng = np.random.default_rng(seed)
    points: Dict[str, Tuple[Tuple[float, float], ...]] = {}
    for user, (mean, std) in stats.items():
        if not (0 < mean < math.inf and 0 <= std < math.inf):
            raise ValueError(f"user {user}: need finite mean > 0 and "
                             f"finite std >= 0")
        points[user] = phased_capacity([(horizon_s, mean, std)], step_s, rng)
    return CapacityTrace(points)


def degradation_volume(bitrates: Sequence[float]) -> float:
    """The sum of the bitrate drops between consecutive segments."""
    return lsum(max(a - b, 0.0) for a, b in zip(bitrates, bitrates[1:]))


def degradation_ratio(bitrates: Sequence[float]) -> float:
    """Bitrate-drop volume over the sum of all received segment bitrates."""
    total = lsum(bitrates)
    if total == 0:
        return 0.0
    return degradation_volume(bitrates) / total


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
        lines = [",".join([_fmt(c) for c in columns])]
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
    """value as one CSV cell: a float to 6 significant digits, anything
    else as its text, which is quoted with its quotes doubled when it holds
    a comma, a quote, CR or LF, as csv.writer quotes it."""
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _round(value):
    if isinstance(value, float):
        return float(f"{value:.6g}")
    return value

