"""Command-line front end: generate, solve, verify, bench.

A command returns 0, or 3 for verify's mismatch, which is an answer and
not a failure; every other way a run ends is an error that `main` maps
to an exit code and one stderr line:

- InvariantError: 2, "invariant failed: ..." (a ratio certificate or an
  internal guarantee failed; bench's cost above 10x the oracle's);
- RoundLimitError: 2, "round cap exceeded: ..." (the cut loop hit its
  cap; from bench, the message names the seed);
- OSError, ValueError, other LotforgeError: 1, "error: ..." (malformed
  or missing input, an infeasible instance, a missing generate size,
  bench's bad --seeds or a T above the oracle's cap);
- an argparse usage error: 1, with argparse's message.

All rationals are reported both exactly ("p/q") and as
12-significant-digit decimals.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional

from . import cmils_master, instance, oracles
from .errors import InvariantError, LotforgeError, RoundLimitError

DIGITS = 12


def decimal_str(value: instance.Rat) -> str:
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _pair(value: Optional[instance.Rat]) -> Optional[dict]:
    if value is None:
        return None
    return {"exact": instance.format_rat(value), "decimal": decimal_str(value)}


# The bench CSV's columns, in order; a rational gives an exact and a decimal column.
RATIONAL_FIELDS = ("lp_value", "ordering", "holding", "total", "oracle_cost",
                   "ratio_vs_lp", "ratio_vs_opt")
CSV_FIELDS = ("instance_id", *RATIONAL_FIELDS, "rounds", "cuts", "wall_time_ms")


@dataclass
class RunReport:
    instance_id: str
    lp_value: instance.Rat
    ordering: instance.Rat
    holding: instance.Rat
    total: instance.Rat
    oracle_cost: Optional[instance.Rat]
    ratio_vs_lp: Optional[Fraction]
    ratio_vs_opt: Optional[Fraction]
    rounds: int
    cuts: int
    wall_time_ms: float

    CSV_HEADER = ",".join(
        column for name in CSV_FIELDS
        for column in ((name, f"{name}_decimal") if name in RATIONAL_FIELDS else (name,)))

    def to_json_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "lp_value": _pair(self.lp_value),
            "alg_cost": {
                "ordering": _pair(self.ordering),
                "holding": _pair(self.holding),
                "total": _pair(self.total),
            },
            "oracle_cost": _pair(self.oracle_cost),
            "ratio_vs_lp": _pair(self.ratio_vs_lp),
            "ratio_vs_opt": _pair(self.ratio_vs_opt),
            "rounds": self.rounds,
            "cuts": self.cuts,
            "wall_time_ms": round(self.wall_time_ms, 3),
        }

    def to_csv_row(self) -> str:
        cells: list[str] = []
        for name in CSV_FIELDS:
            v = getattr(self, name)
            if name in RATIONAL_FIELDS:
                cells += ["", ""] if v is None else [instance.format_rat(v), decimal_str(v)]
            else:
                cells.append(f"{v:.3f}" if name == "wall_time_ms" else str(v))
        return ",".join(cells)


def build_report(instance_id: str, result: cmils_master.PipelineResult,
                 oracle_cost: Optional[instance.Rat]) -> RunReport:
    sched = result.schedule
    lp_value = result.certificate.lp_value
    return RunReport(
        instance_id=instance_id,
        lp_value=lp_value,
        ordering=sched.ordering_cost,
        holding=sched.holding_cost,
        total=sched.total_cost,
        oracle_cost=oracle_cost,
        # Fraction, so that a ratio of two ints is never a float
        ratio_vs_lp=Fraction(sched.total_cost, lp_value) if lp_value > 0 else None,
        ratio_vs_opt=Fraction(sched.total_cost, oracle_cost)
        if oracle_cost is not None and oracle_cost > 0 else None,
        rounds=result.certificate.rounds,
        cuts=result.certificate.num_cuts,
        wall_time_ms=result.elapsed_ms,
    )


def cmd_generate(args) -> int:
    if args.family == "kc-gap":
        if args.R is None:
            raise ValueError("kc-gap needs --R")
        inst = instance.gen_kc_gap(instance.parse_rat(args.R))
    else:
        if args.T is None or args.N is None:
            raise ValueError("random family needs --T and --N")
        inst = instance.gen_random(args.seed, T=args.T, N=args.N)
    instance.save(inst, args.out)
    return 0


def cmd_solve(args) -> int:
    if args.max_rounds < 0:
        raise ValueError("--max-rounds must be a non-negative integer")
    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    inst = instance.load(args.infile)
    result = cmils_master.run_pipeline(inst, max_rounds=args.max_rounds, trace=trace)
    instance.save_schedule(result.schedule, args.out)
    report = build_report(os.path.basename(args.infile), result, None)
    doc = report.to_json_dict()
    doc["certificate"] = result.certificate.to_json_dict()
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    inst = instance.load(args.instance)
    sched = instance.load_schedule(args.schedule)
    bad = instance.validate(inst)
    if bad:
        raise ValueError("invalid instance: " + "; ".join(bad))
    ok, problems = instance.check_feasible(inst, sched)
    if not ok:
        print("mismatch: " + "; ".join(problems), file=sys.stderr)
        return 3
    stated = (sched.ordering_cost, sched.holding_cost, sched.total_cost)
    recomputed = instance.cost(inst, sched)
    if stated != recomputed:
        print(f"mismatch: stated costs {tuple(map(str, stated))} != "
              f"recomputed {tuple(map(str, recomputed))}", file=sys.stderr)
        return 3
    return 0


def cmd_bench(args) -> int:
    bounds = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", args.seeds)
    seeds = range(int(bounds[1]), int(bounds[2]) + 1) if bounds else range(0)
    if not seeds:
        raise ValueError(f"bad --seeds {args.seeds!r}; want a..b with a <= b")
    lines = [RunReport.CSV_HEADER]
    for seed in seeds:
        inst = instance.gen_random(seed, T=args.T, N=args.N)
        try:
            result = cmils_master.run_pipeline(inst)
        except RoundLimitError as exc:
            raise RoundLimitError(f"seed {seed}: {exc}", exc.state) from exc
        oracle_cost = None
        if args.oracle:
            oracle_cost = oracles.brute_force_cmils(inst).optimum_cost
            if result.schedule.total_cost > 10 * oracle_cost:
                raise InvariantError(f"seed {seed}: cost exceeds 10x optimum")
        report = build_report(f"seed-{seed}", result, oracle_cost)
        lines.append(report.to_csv_row())
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use.

    Subcommand "x" runs `cmd_x`, which `main` looks up when it is called.
    """
    parser = argparse.ArgumentParser(
        prog="lotforge",
        description="Capacitated multi-item lot-sizing solver suite")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an instance JSON file")
    gen.add_argument("--family", choices=["random", "kc-gap"], default="random")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--T", type=int)
    gen.add_argument("--N", type=int)
    gen.add_argument("--R", help="demand for the kc-gap family (rational)")
    gen.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="run the full pipeline on an instance")
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--out", required=True, help="schedule JSON output path")
    solve.add_argument("--max-rounds", type=int, default=200)
    solve.add_argument("--trace", action="store_true")

    verify = sub.add_parser("verify", help="re-check a schedule against an instance")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--schedule", required=True)

    bench = sub.add_parser("bench", help="CSV of pipeline runs over a seed range")
    bench.add_argument("--seeds", required=True, help="inclusive range a..b")
    bench.add_argument("--T", type=int, required=True)
    bench.add_argument("--N", type=int, required=True)
    bench.add_argument("--oracle", action="store_true")
    bench.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return globals()[f"cmd_{args.command}"](args)
    except InvariantError as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return 2
    except RoundLimitError as exc:
        print(f"round cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, LotforgeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
