"""Command-line interface exposing every subsystem with stable text/JSON output.

Exit codes: 0 success, 1 usage error, 2 internal consistency failure
(method disagreement in `expect --method all`), 3 scan found violations.
JSON payloads carry "schema": 1 and print exact values as decimal strings
(integers) or "p/q" strings (non-integer rationals); floats appear only for
the intrinsically approximate simulation statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from flipwait import automaton, conjectures, counting, exact, identities, sequences, simulate
from flipwait.closed_form import dispatch
from flipwait.pattern import (
    PatternError,
    complement,
    is_alternating,
    parse,
    reverse,
    runs,
)

SCHEMA = 1
THREADS_ENV = "FLIPWAIT_THREADS"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to 1 per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _rat_str(x: "Fraction | int") -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _approx(x: "Fraction | int") -> str:
    return f"{float(Fraction(x)):.12g}"


def _emit(payload: dict):
    print(json.dumps(payload, indent=2))


def _cmd_expect(args) -> int:
    p = parse(args.pattern, args.alphabet)
    methods = ["markov", "conway", "closed"] if args.method == "all" else [args.method]
    results: dict[str, "Fraction | int | None"] = {}
    for method in methods:
        if method == "markov":
            results["markov"] = exact.expected_wait_markov(p)
        elif method == "conway":
            results["conway"] = exact.expected_wait_conway(p)
        else:
            results["closed"] = dispatch(p)

    agree = True
    known = [Fraction(v) for v in results.values() if v is not None]
    if len(known) > 1:
        agree = all(v == known[0] for v in known)

    if args.json:
        _emit({
            "schema": SCHEMA,
            "command": "expect",
            "pattern": p.text(),
            "alphabet": p.alphabet_size,
            "results": {k: (None if v is None else _rat_str(v)) for k, v in results.items()},
            "agree": agree,
        })
    else:
        for k, v in results.items():
            if v is None:
                print(f"{k:>7}: no closed form (not a covered pattern class); "
                      f"use --method markov or conway")
            else:
                print(f"{k:>7}: {_rat_str(v)}")
        if args.method == "all":
            print(f"  agree: {'yes' if agree else 'NO'}")
    if not agree:
        print("internal disagreement between methods", file=sys.stderr)
        return 2
    return 0


def _cmd_count(args) -> int:
    p = parse(args.pattern, args.alphabet)
    vec = counting.count_first_occurrence(p, args.upto)
    if args.json:
        _emit({
            "schema": SCHEMA,
            "command": "count",
            "pattern": p.text(),
            "alphabet": p.alphabet_size,
            "upto": args.upto,
            "counts": [str(v) for v in vec.counts],
        })
    else:
        print(f"first-occurrence counts for {p.text()}")
        for n, v in enumerate(vec.counts):
            print(f"{n:>4}  {v}")
    return 0


def _cmd_seq(args) -> int:
    family = sequences.parse_family(args.family)
    vals = [sequences.value(family, n) for n in range(args.upto + 1)]
    if args.json:
        _emit({
            "schema": SCHEMA,
            "command": "seq",
            "family": family.label(),
            "upto": args.upto,
            "values": [str(v) for v in vals],
        })
    else:
        print(f"{family.label()} for n = 0..{args.upto}")
        for n, v in enumerate(vals):
            print(f"{n:>4}  {v}")
    return 0


def _sum_params(args) -> tuple[int, ...]:
    if args.corollary in ("id1", "id1bar"):
        if args.k is None:
            raise ValueError(f"{args.corollary} requires --k")
        return (args.k,)
    if args.corollary in ("id2", "id3"):
        if args.k is None or args.m is None:
            raise ValueError(f"{args.corollary} requires --k and --m")
        return (args.k, args.m)
    if args.s is None:
        raise ValueError("alt requires --s")
    return (args.s,)


def _cmd_sum(args) -> int:
    params = _sum_params(args)
    N = args.N if args.N is not None else identities.default_truncation(args.corollary, params)
    check = identities.verify_corollary(args.corollary, params, N)
    if args.json:
        _emit({
            "schema": SCHEMA,
            "command": "sum",
            "corollary": check.which,
            "params": list(check.params),
            "N": check.N,
            "partial": _rat_str(check.partial),
            "target": _rat_str(check.target),
            "gap": _rat_str(check.gap),
            "tail_bound": _rat_str(check.bound),
            "certified": check.certified,
        })
    else:
        print(f"corollary {check.which}{check.params} truncated at N={check.N}")
        print(f"  partial    = {_rat_str(check.partial)}")
        print(f"             ~ {_approx(check.partial)}")
        print(f"  target     = {_rat_str(check.target)}")
        print(f"  gap        ~ {_approx(check.gap)}")
        print(f"  tail bound ~ {_approx(check.bound)}")
        print(f"  gap < bound: {'yes' if check.certified else 'NO'}")
    return 0


def _cmd_simulate(args) -> int:
    p = parse(args.pattern, args.alphabet)
    report = simulate.simulate_wait(p, args.trials, args.seed)
    if args.json:
        _emit({
            "schema": SCHEMA,
            "command": "simulate",
            "pattern": report.pattern,
            "alphabet": p.alphabet_size,
            "trials": report.trials,
            "seed": report.seed,
            "mean": report.mean,
            "std_error": report.std_error,
            "min": report.min_flips,
            "max": report.max_flips,
            "total_flips": str(report.total_flips),
        })
    else:
        print(f"simulated {report.trials} games for {report.pattern} "
              f"(seed {report.seed}, {simulate.kernel_name()} kernel)")
        print(f"  mean      = {report.mean:.6f}")
        print(f"  std error = {report.std_error:.6f}")
        print(f"  min/max   = {report.min_flips}/{report.max_flips}")
    return 0


def _cmd_scan(args) -> int:
    threads = args.threads if args.threads is not None else int(os.environ.get(THREADS_ENV, "1"))
    report = conjectures.scan(args.max_len, threads=threads)
    if args.out:
        conjectures.write_json(report, args.out)
    if args.csv:
        conjectures.write_csv(report, args.csv)
    summary = {
        "schema": SCHEMA,
        "command": "scan",
        "max_len": report.max_len,
        "interpretation": report.interpretation,
        "scanned": report.scanned,
        "spot_checks": report.spot_checks,
        "violations": report.violations,
        "exponent_set_sizes": {str(k): v for k, v in report.exponent_histogram().items()},
    }
    if args.json:
        _emit(summary)
    else:
        print(f"scanned {report.scanned} patterns up to length {report.max_len}")
        print(f"  note: {report.interpretation}")
        print(f"  spot checks against chain solve: {report.spot_checks}")
        print(f"  excess exponent-set sizes: {report.exponent_histogram()}")
        if report.violations:
            print(f"  VIOLATIONS ({len(report.violations)}):")
            for v in report.violations:
                print(f"    {v}")
        else:
            print("  violations: none")
    return 3 if report.violations else 0


def _cmd_inspect(args) -> int:
    p = parse(args.pattern, args.alphabet)
    a = automaton.build(p)
    decomposition = runs(p)
    corr = sorted(exact.correlation_set(p))
    e = exact.expected_wait_conway(p)
    comp = complement(p).text() if p.alphabet_size == 2 else None
    if args.json:
        _emit({
            "schema": SCHEMA,
            "command": "inspect",
            "pattern": p.text(),
            "alphabet": p.alphabet_size,
            "length": len(p),
            "runs": [[sym, length] for sym, length in decomposition.runs],
            "reversal": reverse(p).text(),
            "complement": comp,
            "alternating": is_alternating(p),
            "correlation_set": corr,
            "expected_wait": str(e),
            "transitions": [list(row) for row in a.transitions],
        })
    else:
        def sym_text(sym: int) -> str:
            return "HT"[sym] if p.alphabet_size == 2 else str(sym)

        print(f"pattern        {p.text()}  (alphabet {p.alphabet_size}, length {len(p)})")
        print(f"runs           {' '.join(f'({sym_text(sym)},{length})' for sym, length in decomposition.runs)}")
        print(f"reversal       {reverse(p).text()}")
        if comp is not None:
            print(f"complement     {comp}")
        print(f"alternating    {is_alternating(p)}")
        print(f"correlations   {corr}")
        print(f"expected wait  {e}")
        print("automaton:")
        print(automaton.dump(a))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flipwait", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(sp, pattern_arg=True):
        if pattern_arg:
            sp.add_argument("pattern", help="H/T word for coins, comma-separated face indices for dice")
            sp.add_argument("--alphabet", type=int, default=2, metavar="C", help="alphabet size (default 2)")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("expect", help="expected waiting time by one or all methods")
    add_common(sp)
    sp.add_argument("--method", choices=["markov", "conway", "closed", "all"], default="all")
    sp.set_defaults(func=_cmd_expect)

    sp = sub.add_parser("count", help="strings with the pattern only at the end, per length")
    add_common(sp)
    sp.add_argument("--upto", type=int, required=True, metavar="N")
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("seq", help="evaluate a sequence family (fib:k, fib-bar:k, fib2:k,m, fib-tilde:k,m, alt:s)")
    sp.add_argument("family")
    sp.add_argument("--upto", type=int, required=True, metavar="N")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_seq)

    sp = sub.add_parser("sum", help="verify a summation identity by exact partial sums")
    sp.add_argument("corollary", choices=["id1", "id1bar", "id2", "id3", "alt"])
    sp.add_argument("--k", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--s", type=int)
    sp.add_argument("--N", type=int, help="truncation (default max(200, 50*pattern length))")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_sum)

    sp = sub.add_parser("simulate", help="seeded Monte Carlo estimate of the waiting time")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--alphabet", type=int, default=2, metavar="C")
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("scan", help="test both conjectured properties on all patterns up to a length")
    sp.add_argument("--max-len", type=int, required=True)
    sp.add_argument("--out", metavar="FILE", help="write the full JSON report here")
    sp.add_argument("--csv", metavar="FILE", help="write per-pattern CSV here")
    sp.add_argument("--threads", type=int, default=None,
                    help=f"accepted for compatibility, must be >= 1 (default ${THREADS_ENV} or 1); "
                         "neither results nor speed depend on it")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_scan)

    sp = sub.add_parser("inspect", help="runs, reversal, complement, correlations, automaton table")
    add_common(sp)
    sp.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PatternError, ValueError) as exc:
        print(f"flipwait: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
