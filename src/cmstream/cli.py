"""Command-line surface: simulate, compare, verify, oracle, gen-traces.

Exit codes: 0 success, 2 config error, 3 trace error, 4 oracle size guard.
Subcommands raise; :func:`main` alone maps their errors to exit codes.
Every run writes its full effective config next to its outputs so it can be
reproduced exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from .config import ConfigError, load_config, load_instance, write_snapshot
from .engine import MECHANISMS, SINGLE_SEGMENT, run_comparison, run_simulation
from .momd import (
    InstanceTooLargeError,
    brute_force_momd_optimum,
    check_sufficient_conditions,
    resolve_from_marginal_scores,
)
from .somd import ScoreFunction, brute_force_somd_optimum
from .strategy import brute_force_bitrate_rows, build_momd_bid, row_objective
from .traceio import (
    EncounterTrace,
    TraceParseError,
    TraceUnderrunError,
    emit_capacity_trace,
    emit_encounter_trace,
    emit_results,
    generate_synthetic_traces,
    parse_capacity_trace,
    parse_encounter_trace,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRACE = 3
EXIT_SIZE_GUARD = 4


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


@contextmanager
def _out_dir(path: str):
    """``--out`` as a directory, made up front so an unusable path fails
    before any work; if the command then fails, a directory it made is
    removed again while it is still empty."""
    out = Path(path)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        yield out
    except BaseException:
        if made and not any(out.iterdir()):
            out.rmdir()
        raise


def _read_traces(traces_dir: str):
    """The capacity and encounter traces in ``traces_dir``, with their line
    endings as written, so a quoted CR in an id reads back; a file that
    cannot be read is a TraceParseError, like one that does not parse."""
    d = Path(traces_dir)
    try:
        with open(d / "capacity.csv", newline="") as f:
            capacity = parse_capacity_trace(f.read())
        enc_path = d / "encounter.csv"
        if enc_path.exists():
            with open(enc_path, newline="") as f:
                encounters = parse_encounter_trace(f.read())
        else:
            encounters = EncounterTrace()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceParseError(str(exc)) from exc
    return capacity, encounters


def cmd_simulate(args) -> int:
    cfg, _ = load_config(args.config)
    if args.mechanism:
        cfg = replace(cfg, mechanism=args.mechanism)
    if args.K is not None:
        cfg = replace(cfg, K=args.K)
    capacity, encounters = _read_traces(args.traces)
    with _out_dir(args.out) as out_dir:
        result = run_simulation(cfg, capacity, encounters)
        emit_results(result, args.format, out_dir, include_events=args.events)
        write_snapshot(out_dir, cfg, traces_dir=str(args.traces))
    print(f"social_welfare={result.social_welfare:.6g} "
          f"rebuffer_ratio={result.rebuffer_ratio:.6g} "
          f"degradation_ratio={result.degradation_ratio:.6g} "
          f"auctions={result.auction_count}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg, spec = load_config(args.config)
    if spec is None:
        raise ConfigError("compare needs a trace_stats section")
    mechanisms = args.mechanisms.split(",")
    cells, skipped = [], []
    for mech in mechanisms:
        for k in args.k_values:
            if mech in SINGLE_SEGMENT and k != 1:
                skipped.append(f"{mech}/K={k}")
                continue
            for oh in args.overheads:
                label = f"mechanism={mech},K={k},overhead={oh:g}"
                cells.append((label, replace(
                    cfg, mechanism=mech, K=k,
                    overhead_energy_per_auction=oh)))
    if not cells:
        raise ConfigError(f"no cell to run: {', '.join(skipped)} skipped "
                          f"({' and '.join(SINGLE_SEGMENT)} need K=1)")

    def gen(seed: int):
        return (generate_synthetic_traces(spec.stats, spec.horizon_s,
                                          spec.step_s, seed),
                EncounterTrace())

    with _out_dir(args.out) as out_dir:
        table = run_comparison(cells, gen, args.replications,
                               base_seed=cfg.seed)
        emit_results(table, args.format, out_dir)
        write_snapshot(out_dir, cfg, spec, compare={
            "mechanisms": mechanisms, "k_values": args.k_values,
            "overheads": args.overheads, "replications": args.replications})
    for row in table.rows:
        print(f"{row['cell']}: social_welfare={row['social_welfare']:.6g} "
              f"rebuffer_ratio={row['rebuffer_ratio']:.6g}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg, _ = load_config(args.config)
    failures = 0
    for downloader in cfg.users:
        for bidder in cfg.users:
            report = check_sufficient_conditions(downloader, bidder, cfg.K)
            status = "pass" if report.all_ok else "FAIL"
            detail = ""
            if not report.nonnegative_ok:
                r, gain, cost = report.nonnegative_violations[0]
                detail += (f" quality-vs-cost fails at rate {r:g} "
                           f"(gain {gain:.4g} < cost {cost:.4g});")
            if not report.nonincreasing_ok:
                detail += (f" concavity margin fails "
                           f"({report.nonincreasing_lhs:.4g} > "
                           f"{report.delta_bound:.4g})")
            print(f"downloader={downloader.user_id} bidder={bidder.user_id}: "
                  f"{status}{detail}")
            failures += 0 if report.all_ok else 1
    pairs = len(cfg.users) ** 2
    print(f"summary: {pairs - failures}/{pairs} pairs satisfy the "
          f"marginal-score conditions")
    return EXIT_OK


def cmd_oracle(args) -> int:
    inputs = load_instance(args.instance, args.kind)
    K = inputs["K"]
    if "scores" in inputs:
        outcome = resolve_from_marginal_scores(inputs["scores"], K)
        alloc = outcome.revised_allocation
        print(f"allocation: {json.dumps(alloc, sort_keys=True)}")
        for uid in sorted(alloc):
            if alloc[uid]:
                print(f"score_damage_payment[{uid}] = "
                      f"{outcome.payments[uid]:.6g}")
        if outcome.assumption_violations:
            print("assumption 1 violated by: "
                  + ", ".join(outcome.assumption_violations))
        return EXIT_OK

    downloader, bidders = inputs["downloader"], inputs["bidders"]
    if args.kind == "somd":
        uid, rate, welf = brute_force_somd_optimum(bidders, downloader)
        print(f"optimum: bidder={uid} bitrate={rate:g} welfare={welf:.6g}")
    elif args.kind == "momd":
        alloc, vectors, welf = brute_force_momd_optimum(
            bidders, downloader, K)
        print(f"optimum: allocation={list(alloc)} welfare={welf:.6g}")
        for uid, vec in sorted(vectors.items()):
            if vec:
                print(f"bitrates[{uid}] = {list(vec)}")
    else:  # matrix
        profile, state = bidders[0]
        sf = ScoreFunction.efficient(downloader)
        rows = brute_force_bitrate_rows(profile, state, sf, K)
        bid = build_momd_bid(profile, state, sf, K)
        fast = [bid.row(kappa) for kappa in range(1, K + 1)]
        print(f"brute-force rows: {[list(r) for r in rows]}")
        print(f"reduced-solver rows: {[list(r) for r in fast]}")
        same = all(abs(row_objective(profile, state, sf, a)
                       - row_objective(profile, state, sf, b)) <= 1e-9
                   for a, b in zip(rows, fast))
        print(f"rows: {'EQUAL' if same else 'DIFFERENT'}")
    if "claimed" in inputs:
        claimed = inputs["claimed"]
        verdict = "EQUAL" if abs(claimed - welf) <= 1e-9 else "DIFFERENT"
        print(f"mechanism welfare {claimed:.6g} vs oracle "
              f"{welf:.6g}: {verdict}")
    return EXIT_OK


def cmd_gen_traces(args) -> int:
    cfg, spec = load_config(args.config)
    if spec is None:
        raise ConfigError("gen-traces needs a trace_stats section")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    with _out_dir(args.out) as out_dir:
        trace = generate_synthetic_traces(spec.stats, spec.horizon_s,
                                          spec.step_s, cfg.seed)
        (out_dir / "capacity.csv").write_text(emit_capacity_trace(trace))
        (out_dir / "encounter.csv").write_text(
            emit_encounter_trace(EncounterTrace()))
    print(f"wrote traces for {len(trace.users)} users to {out_dir}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise a ConfigError, which
    :func:`main` reports as one JSON line with exit code 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _comma_list(convert):
    """An argparse type: a comma-separated list of convert's values."""
    def parse(text):
        return [convert(x) for x in text.split(",")]
    parse.__name__ = f"comma-separated {convert.__name__} list"  # for errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cmstream",
        description="Auction-based cooperative video streaming simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one simulation against traces")
    p.add_argument("--config", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--mechanism", choices=MECHANISMS)
    p.add_argument("--K", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json-lines"), default="csv")
    p.add_argument("--events", action="store_true",
                   help="also write the event log")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="mechanism/K/overhead comparison grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--replications", type=int, default=50)
    p.add_argument("--mechanisms", default="momd,noncooperative")
    p.add_argument("--k-values", type=_comma_list(int), default="1")
    p.add_argument("--overheads", type=_comma_list(float), default="0")
    p.add_argument("--format", choices=("csv", "json-lines"), default="csv")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify",
                       help="check marginal-score sufficient conditions")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force optimum for an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--kind", choices=("somd", "momd", "matrix"),
                   required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen-traces", help="write synthetic trace files")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gen_traces)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # TraceParseError and InstanceTooLargeError are ValueErrors: map them first
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (TraceParseError, TraceUnderrunError) as exc:
        return _fail(EXIT_TRACE, "trace", str(exc))
    except InstanceTooLargeError as exc:
        return _fail(EXIT_SIZE_GUARD, "size-guard", str(exc))
    except (OSError, ValueError) as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))


if __name__ == "__main__":
    sys.exit(main())
