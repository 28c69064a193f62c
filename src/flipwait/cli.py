"""Command-line interface exposing every subsystem with stable text/JSON output.

Exit codes: 0 success, 1 usage error, 2 internal consistency failure
(method disagreement in `expect --method all`), 3 scan found violations.
JSON payloads carry "schema": 1 and print exact values as decimal strings
(integers) or "p/q" strings (non-integer rationals); floats appear only for
the intrinsically approximate simulation statistics.  Every payload is
printed by `jsontext.dumps`, which gives the bytes of json.dumps(...,
indent=2) without json's pure-Python indent encoder.  The `counts` of
`count` and the `values` of `seq` are str() of ints, so they hold only "-"
and digits; `_emit` joins them into the output as they are.  Those two
payloads test every value against Python's int->str digit limit before any
decimal work, so one that cannot be printed fails at once with CPython's
own error.

Importing this module loads what `expect` and `inspect` run (`pattern`,
`automaton`, `exact`, `closed_form` and `jsontext`) and nothing else.
Every other command imports its own modules when it runs, and
`build_parser` imports argparse and `kinds`, whose family table the `seq`
help and the `sum` flags and choices read.  A command reads each function
as an attribute of its module at the call, so a function swapped on its
module is the one called.

The argument parser is built on the first `main` call and reused by every
later call in the same process, so an in-process caller pays for building
it once; importing this module builds nothing.  When the first argument
names a command, `main` hands the rest straight to that command's
subparser.  The top-level parser parses only what that route does not: no
argument list (sys.argv is read), no command or an unknown one, and
arguments the subparser leaves over.  So every usage error and help text
is argparse's own.
"""

from __future__ import annotations

import math
import sys

from flipwait import automaton, exact
from flipwait.closed_form import dispatch
from flipwait.exact import exact_str as _exact_str
from flipwait.jsontext import dumps
from flipwait.pattern import (
    PatternError,
    complement,
    is_alternating,
    parse,
    reverse,
    runs,
    symbol_text,
)

SCHEMA = 1
# Most cells, (s + 1) * c, of the table `inspect` prints.  A cell costs about
# 0.6 us in text and 0.2 us with --json (2 * 10**6 cells: 1.24 s and 0.39 s,
# peak RSS 146 MB; in-process, best of 3, 2-vCPU shared host), so the largest
# table allowed prints in about a second; a refused one is never built.
INSPECT_CELLS = 2 * 10**6
# Most bits that the values of a `count` or `seq` vector up to N may hold.  A
# count at n is at most c**n and a family value at most 2**n (the families
# count coin words), so the stored ints hold about log2(c) * N(N+1)/2 bits.
# 2**30 bits are 128 MiB of digits: `count 0,1 --alphabet 3 --upto 36800`,
# just under it, stores 9.4 * 10**8 bits in 0.12 s and peaks at 135 MB.
VECTOR_BITS = 1 << 30


def _approx(x: "Fraction | int") -> str:
    return f"{float(x):.12g}"


def _emit(payload: dict, key: "str | None" = None, digits: "list[str] | None" = None, command=None):
    """Print json.dumps({**head, **payload}, indent=2), head = {"schema": SCHEMA, "command": command}.

    A payload key that the head holds keeps the head's place and takes the
    payload's value.  `digits`, if given, goes under `key` as the last key.
    `jsontext.dumps` writes the payload.  Every string in `digits` must be
    str() of an int or of an integral Decimal: it holds only "-" and the
    digits 0-9, which JSON never escapes, so the array (megabytes for a long
    `count`) is joined into the output as is and passes through no encoder.
    The list must be nonempty and `key` must not be in `payload`.  The bytes
    equal json.dumps({**head, **payload, key: digits}, indent=2).
    """
    payload = {"schema": SCHEMA, "command": command, **payload}
    if key is None:
        print(dumps(payload))
        return
    text = dumps({**payload, key: []})  # ends in '[]\n}'
    print(text[:-3], '\n    "', '",\n    "'.join(digits), '"\n  ]\n}', sep="")


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
    known = [v for v in results.values() if v is not None]
    if len(known) > 1:
        agree = all(v == known[0] for v in known)

    if args.json:
        _emit({
            "pattern": p.text(),
            "alphabet": p.alphabet_size,
            "results": {k: (None if v is None else _exact_str(v)) for k, v in results.items()},
            "agree": agree,
        }, command=args.cmd)
    else:
        for k, v in results.items():
            if v is None:
                print(f"{k:>7}: no closed form (not a covered pattern class); "
                      f"use --method markov or conway")
            else:
                print(f"{k:>7}: {_exact_str(v)}")
        if args.method == "all":
            print(f"  agree: {'yes' if agree else 'NO'}")
    if not agree:
        print("internal disagreement between methods", file=sys.stderr)
        return 2
    return 0


def _listing(args, payload: dict, key: str, header: str, texts) -> int:
    """Print `texts` under `key` of the JSON payload, or as rows numbered from 0 under `header`."""
    if args.json:
        _emit(payload, key, list(texts), args.cmd)
    else:
        print(header)
        for n, text in enumerate(texts):
            print(f"{n:>4}  {text}")
    return 0


def _check_vector(what: str, upto: int, c: int) -> None:
    """Refuse, before any work, a vector up to n = upto whose values, each at most c**n, may pass VECTOR_BITS bits."""
    n = max(upto, 0)
    bits = math.log2(c) * n * (n + 1) / 2
    if bits > VECTOR_BITS:
        raise ValueError(f"{what} up to n = {upto} may hold {bits:.4g} bits (a value at n is at most {c}**n), "
                         f"more than the budget of {VECTOR_BITS} bits")


def _cmd_count(args) -> int:
    from flipwait import counting

    p = parse(args.pattern, args.alphabet)
    _check_vector(f"the counts of {p.text()}", args.upto, p.alphabet_size)
    vec = counting.count_first_occurrence(p, args.upto)
    return _listing(args, {"pattern": p.text(), "alphabet": p.alphabet_size, "upto": args.upto}, "counts",
                    f"first-occurrence counts for {p.text()}", vec.decimal_strings(check_first=args.json))


def _cmd_seq(args) -> int:
    from flipwait import sequences

    family = sequences.parse_family(args.family)
    _check_vector(family.label(), args.upto, 2)
    texts = sequences.value_strings(family, args.upto, check_first=args.json)
    return _listing(args, {"family": family.label(), "upto": args.upto}, "values",
                    f"{family.label()} for n = 0..{args.upto}", texts)


def _sum_params(args) -> tuple[int, ...]:
    """The corollary's parameters, from the flags named after its family's parameters."""
    from flipwait.kinds import COROLLARIES, KINDS

    names = KINDS[COROLLARIES[args.corollary]].names
    params = tuple(getattr(args, name) for name in names)
    if None in params:
        raise ValueError(f"{args.corollary} requires {' and '.join('--' + name for name in names)}")
    return params


def _cmd_sum(args) -> int:
    from flipwait import identities

    params = _sum_params(args)
    N = args.N if args.N is not None else identities.default_truncation(args.corollary, params)
    check = identities.verify_corollary(args.corollary, params, N)
    if args.json:
        _emit({
            "corollary": check.which,
            "params": list(check.params),
            "N": check.N,
            "partial": _exact_str(check.partial),
            "target": _exact_str(check.target),
            "gap": _exact_str(check.gap),
            "tail_bound": _exact_str(check.bound),
            "certified": check.certified,
        }, command=args.cmd)
    else:
        print(f"corollary {check.which}{check.params} truncated at N={check.N}")
        print(f"  partial    = {_exact_str(check.partial)}")
        print(f"             ~ {_approx(check.partial)}")
        print(f"  target     = {_exact_str(check.target)}")
        print(f"  gap        ~ {_approx(check.gap)}")
        print(f"  tail bound ~ {_approx(check.bound)}")
        print(f"  gap <= bound: {'yes' if check.certified else 'NO'}")
    return 0


def _cmd_simulate(args) -> int:
    from flipwait import simulate

    p = parse(args.pattern, args.alphabet)
    report = simulate.simulate_wait(p, args.trials, args.seed)
    if args.json:
        _emit({
            "pattern": report.pattern,
            "alphabet": p.alphabet_size,
            "trials": report.trials,
            "seed": report.seed,
            "mean": report.mean,
            "std_error": report.std_error,
            "min": report.min_flips,
            "max": report.max_flips,
            "total_flips": str(report.total_flips),
        }, command=args.cmd)
    else:
        print(f"simulated {report.trials} games for {report.pattern} "
              f"(seed {report.seed}, {simulate.kernel_name()} kernel)")
        print(f"  mean      = {report.mean:.6f}")
        print(f"  std error = {report.std_error:.6f}")
        print(f"  min/max   = {report.min_flips}/{report.max_flips}")
    return 0


def _cmd_scan(args) -> int:
    from flipwait import conjectures

    report = conjectures.scan(args.max_len)
    if args.out:
        conjectures.write_json(report, args.out)
    if args.csv:
        conjectures.write_csv(report, args.csv)
    if args.json:
        _emit(conjectures.summary(report), command=args.cmd)
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
    cells = (len(p) + 1) * p.alphabet_size
    if cells > INSPECT_CELLS:
        raise ValueError(f"the automaton table of {p.text()} has {len(p) + 1} * {p.alphabet_size} = {cells} cells, "
                         f"more than the inspect budget of {INSPECT_CELLS} cells")
    corr = sorted(exact.correlation_set(p))
    e = exact.expected_wait_conway(p)
    comp = complement(p).text() if p.alphabet_size == 2 else None
    if args.json:
        _emit({
            "pattern": p.text(),
            "alphabet": p.alphabet_size,
            "length": len(p),
            "runs": [list(run) for run in runs(p)],
            "reversal": reverse(p).text(),
            "complement": comp,
            "alternating": is_alternating(p),
            "correlation_set": corr,
            "expected_wait": _exact_str(e),
            "transitions": [list(row) for row in automaton.build(p)],
        }, command=args.cmd)
    else:
        print(f"pattern        {p.text()}  (alphabet {p.alphabet_size}, length {len(p)})")
        print(f"runs           {' '.join(f'({symbol_text(sym, p.alphabet_size)},{n})' for sym, n in runs(p))}")
        print(f"reversal       {reverse(p).text()}")
        if comp is not None:
            print(f"complement     {comp}")
        print(f"alternating    {is_alternating(p)}")
        print(f"correlations   {corr}")
        print(f"expected wait  {_exact_str(e)}")
        print("automaton:")
        print(automaton.dump(automaton.build(p)))
    return 0


def build_parser():
    """The top-level argparse parser; its `commands` maps each command name to the command's subparser."""
    import argparse

    from flipwait.kinds import COROLLARIES, KINDS

    class _Parser(argparse.ArgumentParser):
        """argparse exits 2 on usage errors; remap to 1 per the CLI contract."""

        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(1)

    parser = _Parser(prog="flipwait", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    parser.commands = sub.choices

    def add_common(sp):
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

    labels = ", ".join(f"{name}:{','.join(kind.names)}" for name, kind in KINDS.items())
    sp = sub.add_parser("seq", help=f"evaluate a sequence family ({labels})")
    sp.add_argument("family")
    sp.add_argument("--upto", type=int, required=True, metavar="N")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_seq)

    sp = sub.add_parser("sum", help="verify a summation identity by exact partial sums")
    sp.add_argument("corollary", choices=list(COROLLARIES))
    for name in dict.fromkeys(n for kind in KINDS.values() for n in kind.names):
        sp.add_argument(f"--{name}", type=int)
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
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_scan)

    sp = sub.add_parser("inspect", help="runs, reversal, complement, correlations, automaton table")
    add_common(sp)
    sp.set_defaults(func=_cmd_inspect)

    return parser


_parser = None  # built by the first main() call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = None
    if argv and argv[0] in _parser.commands:
        # what the top-level parser's subparsers action does with argv[1:]
        args, rest = _parser.commands[argv[0]].parse_known_args(argv[1:])
        args.cmd = argv[0]
        if rest:
            args = None
    if args is None:  # usage, help and "unrecognized arguments" come from the top-level parser
        args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (PatternError, ValueError) as exc:
        print(f"flipwait: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
