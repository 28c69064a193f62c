"""The four seeded closed-loop workloads, how their ops run, and how each is checked.

A workload's deck is the list of ops generated from (workload, seed).  A
deck covers the workload's input ranges the same way for every seed, with
one input size at the middle of each of k equal-width strata; the seed
picks the words, the other parameters and the order.  So every seed's deck
has the same cost profile, and runs on different seeds measure the program
rather than a lucky draw.

Ops reach the package only through public functions and `cli.main`.  Module
attributes are looked up at call time, so a tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from fractions import Fraction
from typing import NamedTuple

from flipwait import cli, conjectures, identities, pattern, simulate

import oracle

DIE_SIZES = (3, 6, 10, 100, 1000, 10000)
COROLLARIES = ("id1", "id1bar", "id2", "id3", "alt")
SIM_DRAWS = 10**5


class Op(NamedTuple):
    kind: str  # "cli", "series", "scan" or "simulate"
    args: tuple

    @property
    def label(self) -> str:
        return self.args[0] if self.kind == "cli" else self.kind


def deck(workload: str, seed: int) -> list[Op]:
    """The ops a run repeats, in the order it runs them; the same (workload, seed) gives the same deck."""
    rng = random.Random(f"{workload}/{seed}")
    ops = DECKS[workload](rng)
    rng.shuffle(ops)
    return ops


def _sizes(lo: int, hi: int, k: int, log: bool = False) -> list[int]:
    """k sizes in [lo, hi], one at the middle of each of k equal bins (of log size when `log`)."""
    a, b = (math.log(lo), math.log(hi + 1)) if log else (lo, hi + 1)
    xs = (a + (b - a) * (i + 0.5) / k for i in range(k))
    return [min(hi, int(math.exp(x) if log else x)) for x in xs]


def _coin(rng: random.Random, s: int, few_runs: bool = False) -> str:
    """A random coin word; with few_runs, at most four maximal runs (closed form and family exist)."""
    if not few_runs:
        return "".join(rng.choice("HT") for _ in range(s))
    nruns = min(s, rng.randint(1, 4))
    cuts = sorted(rng.sample(range(1, s), nruns - 1))
    first = rng.randrange(2)
    return "".join("HT"[(first + i) % 2] * (b - a)
                   for i, (a, b) in enumerate(zip([0] + cuts, cuts + [s])))


def _die(rng: random.Random, s: int, c: int) -> str:
    # faces come from the first four so that words overlap themselves, as typed patterns do
    return ",".join(str(rng.randrange(min(c, 4))) for _ in range(s))


def _word_argv(command: str, word: str, c: int, *rest: str) -> tuple:
    alphabet = () if c == 2 else ("--alphabet", str(c))
    return (command, word, *alphabet, *rest, "--json")


def _expect_deck(rng: random.Random) -> list[Op]:
    # 70% coin words, log-uniform length 2-64; 30% die words of length 2-8; every fifth op inspects
    words = [(_coin(rng, s, few_runs=i % 4 == 0), 2) for i, s in enumerate(_sizes(2, 64, 14, log=True))]
    words += [(_die(rng, s, c), c) for c, s in zip(DIE_SIZES, (8, 5, 2, 7, 4, 6))]
    ops = []
    for i, (word, c) in enumerate(words):
        if i % 5 == 2:
            ops.append(Op("cli", _word_argv("inspect", word, c)))
        else:
            ops.append(Op("cli", _word_argv("expect", word, c, "--method", "all")))
    return ops


def _sum_argv(rng: random.Random, which: str, N: int) -> tuple:
    if which in ("id1", "id1bar"):
        params = ("--k", str(rng.randint(1, 6)))
    elif which in ("id2", "id3"):
        params = ("--k", str(rng.randint(1, 5)), "--m", str(rng.randint(1, 5)))
    else:
        params = ("--s", str(rng.randint(1, 12)))
    return ("sum", which, *params, "--N", str(N), "--json")


def _series_deck(rng: random.Random) -> list[Op]:
    # about 55% of ops at N = 400, 40% at N = 4000 and 5% beyond, so the
    # median falls inside the N = 400 ops and not between two size classes
    ops = []
    for N, k in ((400, 6), (4000, 4)):
        for i, s in enumerate(_sizes(2, 24, k)):
            ops.append(Op("cli", _word_argv("count", _coin(rng, s, few_runs=i % 2 == 0), 2, "--upto", str(N))))
    for c, N in ((3, 400), (6, 400), (100, 400), (3, 4000), (6, 4000)):
        ops.append(Op("cli", _word_argv("count", _die(rng, 3, c), c, "--upto", str(N))))
    # counts past 100**2150 have more than 4300 digits: this op fails at baseline
    ops.append(Op("cli", _word_argv("count", _die(rng, 2, 100), 100, "--upto", "4000")))
    for N, k in ((400, 8), (4000, 4)):
        for i, s in enumerate(_sizes(2, 24, k)):
            ops.append(Op("series", (_coin(rng, s, few_runs=i % 2 == 0), N)))
    for N in (400, 4000):
        ops.extend(Op("cli", _sum_argv(rng, which, N)) for which in COROLLARIES)
    ops.append(Op("cli", ("sum", rng.choice(COROLLARIES[2:4]), "--k", "5", "--m", "5", "--N", "14000", "--json")))
    # the partial sum's denominator 2**20000 has 6021 digits: this op fails at baseline
    ops.append(Op("cli", ("sum", "id3", "--k", "5", "--m", "5", "--N", "20000", "--json")))
    return ops


# max_len 11 twice, so the median lands inside one size class
SCAN_DECK = (8, 9, 10, 11, 11, 12, 13)


def _scan_deck(rng: random.Random) -> list[Op]:
    return [Op("scan", (max_len,)) for max_len in SCAN_DECK]


def _sim_op(rng: random.Random, word: str, c: int, trials: int | None = None) -> Op:
    if trials is None:
        trials = max(1, round(SIM_DRAWS / oracle.conway(oracle.symbols_of(word, c), c)))
    return Op("simulate", (word, c, trials, rng.getrandbits(64)))


def _simulate_deck(rng: random.Random) -> list[Op]:
    ops = [_sim_op(rng, _coin(rng, s), 2) for s in range(2, 9)]
    ops += [_sim_op(rng, _die(rng, s, c), c) for c in (3, 6) for s in (1, 2, 3)]
    # two of fifteen ops run more trials than simulate.BATCH_SIZE, crossing a
    # batch boundary; at more than 10% of ops they also hold the 90th percentile
    ops += [_sim_op(rng, rng.choice(("HT", "TH")), 2, trials=(1 << 16) + rng.randrange(1, 1 << 10))
            for _ in range(2)]
    return ops


DECKS = {
    "expect": _expect_deck,
    "series": _series_deck,
    "scan": _scan_deck,
    "simulate": _simulate_deck,
}


class Failed(Exception):
    """The op exited non-zero with no wrong answer to show: an honest failure."""


class CliRun(NamedTuple):
    code: int
    out: str
    err: str


def run_cli(argv) -> CliRun:
    """`cli.main(argv)` in-process, with its exit code and captured stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return CliRun(code, out.getvalue(), err.getvalue())


def execute(op: Op):
    """Run one op against the package and return its raw output."""
    if op.kind == "cli":
        return run_cli(op.args)
    if op.kind == "series":
        word, N = op.args
        p = pattern.parse(word)
        return identities.partial_expectation(p, N), identities.tail_bound(p, N)
    if op.kind == "scan":
        return conjectures.scan(op.args[0], threads=1)
    if op.kind == "simulate":
        word, c, trials, seed = op.args
        return simulate.simulate_wait(pattern.parse(word, c), trials, seed)
    raise ValueError(f"unknown op kind {op.kind!r}")


def check(op: Op, result) -> str | None:
    """None when the output agrees with an independent route, else what is wrong.

    A cli op that exited non-zero is still checked when it printed a JSON
    payload, so `expect` exiting 2 on a method disagreement is a wrong answer.
    It raises Failed when the op failed without a wrong answer to show.
    """
    if op.kind != "cli":
        return _CHECKS[op.kind](op.args, result)
    failed = Failed(f"exit {result.code}: {result.err.strip()[-200:]}")
    try:
        payload = json.loads(result.out)
    except ValueError:
        if result.code != 0:
            raise failed from None
        raise
    with oracle.unlimited_int_digits():
        wrong = _CLI_CHECKS[op.args[0]](op.args, payload)
    if wrong is None and result.code != 0:
        raise failed
    return wrong


def _word_of(argv: tuple) -> tuple[tuple[int, ...], int]:
    c = int(argv[argv.index("--alphabet") + 1]) if "--alphabet" in argv else 2
    return oracle.symbols_of(argv[1], c), c


def _check_expect(argv, out) -> str | None:
    sym, c = _word_of(argv)
    e = str(oracle.conway(sym, c))
    results = out["results"]
    if results["markov"] != e or results["conway"] != e:
        return f"expected {e}, got {results}"
    if results["closed"] not in (None, e):
        return f"closed form {results['closed']} != {e}"
    if out["agree"] is not True:
        return "methods reported disagreement"
    return None


def _check_inspect(argv, out) -> str | None:
    sym, c = _word_of(argv)
    if out["expected_wait"] != str(oracle.conway(sym, c)):
        return f"expected wait {out['expected_wait']}"
    if out["correlation_set"] != oracle.correlation_set(sym):
        return f"correlation set {out['correlation_set']}"
    if out["length"] != len(sym) or [length for _, length in out["runs"]] != list(oracle.run_lengths(sym)):
        return "length or runs"
    if not oracle.transitions_match(sym, c, out["transitions"]):
        return "transition table differs from the naive automaton"
    return None


def _check_count(argv, out) -> str | None:
    sym, c = _word_of(argv)
    want = oracle.first_occurrence_counts(sym, c, int(argv[argv.index("--upto") + 1]))
    counts = [int(v) for v in out["counts"]]
    if counts != want:
        n = next((n for n, (v, w) in enumerate(zip(counts, want)) if v != w), min(len(counts), len(want)))
        return f"counts differ from the recurrence from n = {n}"
    return None


def _check_sum(argv, out) -> str | None:
    partial, target, gap, bound = (Fraction(out[k]) for k in ("partial", "target", "gap", "tail_bound"))
    if out["certified"] is not True:
        return "not certified"
    if gap != target - partial or not 0 < gap <= bound:
        return f"gap {gap} inconsistent with partial, target or bound"
    return None


def _check_series(args, result) -> str | None:
    word, N = args
    sym = oracle.symbols_of(word, 2)
    want = oracle.series_bracket(oracle.first_occurrence_counts(sym, 2, N), 2, len(sym))
    if tuple(result) != want:
        return "partial sum or tail bound differs from the one the recurrence's counts give"
    partial, bound = want
    if not partial <= oracle.conway(sym, 2) <= partial + bound:
        return "E outside [partial, partial + tail bound]"
    return None


SCAN_SAMPLE = 16


def _check_scan(args, report) -> str | None:
    (max_len,) = args
    if report.scanned != 2 ** (max_len + 1) - 2:
        return f"scanned {report.scanned}"
    if report.violations:
        return f"violations {report.violations[:3]}"
    spot = sum(-(-2**s // conjectures.SPOT_CHECK_STRIDE) for s in range(1, max_len + 1))
    if report.spot_checks != spot:
        return f"spot checks {report.spot_checks}, expected {spot}"
    step = max(1, report.scanned // SCAN_SAMPLE)
    for rec in report.records[::step]:
        if rec.expected != oracle.conway(oracle.symbols_of(rec.pattern, 2), 2):
            return f"record {rec.pattern} has E={rec.expected}"
    return None


def _check_simulate(args, report) -> str | None:
    word, c, trials, seed = args
    sym = oracle.symbols_of(word, c)
    e = oracle.conway(sym, c)
    if report.trials != trials or abs(report.mean - e) > 6 * report.std_error:
        return f"mean {report.mean} is more than 6 standard errors from E={e}"
    if trials <= simulate.BATCH_SIZE:
        return None
    # the ops that cross a batch boundary also pin the reproducibility contract
    if simulate.kernel_name() == "compiled":
        other = simulate.simulate_wait(pattern.parse(word, c), trials, seed, kernel="python")
        if other != report:
            return "compiled and python kernels disagree"
    return split_identity(sym, c, report)


def split_identity(sym: tuple[int, ...], c: int, report) -> str | None:
    """Re-run a report's trials as two batches [0, k) and [k, n) straight through the kernel.

    Trials draw from per-trial substreams, so the totals must match the
    report bit for bit wherever the split falls.
    """
    trials = report.trials
    kernel = importlib.import_module(
        "flipwait._simcore" if simulate.kernel_name() == "compiled" else "flipwait._simpy")
    flat = oracle.flat_table(sym, c)
    k = trials // 3
    parts = [kernel.run_batch(flat, len(sym), c, n, report.seed, first, simulate.FLIP_CAP)
             for first, n in ((0, k), (k, trials - k)) if n]
    total = sum(p[0] for p in parts)
    if (total, min(p[2] for p in parts), max(p[3] for p in parts)) != (
            report.total_flips, report.min_flips, report.max_flips):
        return f"batch split at {k} of {trials} trials changed the totals"
    return None


_CLI_CHECKS = {"expect": _check_expect, "inspect": _check_inspect, "count": _check_count, "sum": _check_sum}
_CHECKS = {"series": _check_series, "scan": _check_scan, "simulate": _check_simulate}
