"""Reference probes: the fixed inputs behind the baseline timings in ROADMAP.md.

Run once per traced run, untraced, with every output checked.  A probe whose
output is wrong is named in probe.failed and makes the run incorrect.
Short probes report the median of a few repeats; the long ones run once.
"""

from __future__ import annotations

import random
import re
import statistics
from pathlib import Path
from time import perf_counter

from flipwait import conjectures, counting, exact, identities, pattern, simulate

import oracle
import workloads

README_EXAMPLE = re.compile(r"```console\n\$ flipwait ([^\n]+)\n(.*?)```", re.DOTALL)


def _word(s: int) -> str:
    rng = random.Random(f"probe/{s}")
    return "".join(rng.choice("HT") for _ in range(s))


def _timed(fn, repeat: int = 1):
    samples = []
    for _ in range(repeat):
        t0 = perf_counter()
        result = fn()
        samples.append(perf_counter() - t0)
    return statistics.median(samples), result


def run_all(root: Path) -> tuple[dict[str, float], dict[str, dict]]:
    metrics: dict[str, float] = {}
    details: dict[str, dict] = {}

    def record(name: str, value: float, problem: str | None, **info):
        metrics[name] = value
        details[name] = {"value": value, "problem": problem, **info}

    # chain solve at s = 12, 48, 96
    for s, repeat in ((12, 9), (48, 3), (96, 1)):
        p = pattern.parse(_word(s))
        seconds, times = _timed(lambda: exact.absorption_times(p), repeat)
        e = oracle.conway(p.symbols, 2)
        record(f"probe.exact.absorption_times.s{s}_s", seconds,
               None if times[0] == e else f"E={times[0]}, expected {e}", pattern=p.text())

    # count DP at N = 400, 4000 and the series pass at N = 4000, s = 12
    p12 = pattern.parse(_word(12))
    e12 = oracle.conway(p12.symbols, 2)
    for N, repeat in ((400, 9), (4000, 3)):
        seconds, vec = _timed(lambda: counting.count_first_occurrence(p12, N), repeat)
        counts = oracle.first_occurrence_counts(p12.symbols, 2, N)
        record(f"probe.counting.count_first_occurrence.N{N}_s", seconds,
               None if list(vec.counts) == counts else "counts differ from the recurrence")
    partial, bound = oracle.series_bracket(counts, 2, 12)
    seconds, partial_pe = _timed(lambda: identities.partial_expectation(p12, 4000), 3)
    record("probe.identities.partial_expectation.s12_N4000_s", seconds,
           None if partial_pe == partial and partial <= e12 <= partial + bound
           else "partial sum differs from the one the recurrence's counts give")

    seconds, check = _timed(lambda: identities.verify_corollary("id3", (5, 5), 20000))
    record("probe.identities.verify_corollary.id3_5_5_N20000_s", seconds,
           None if check.certified else "not certified")

    # scan at max-len 12, 14, 16, and what the threads knob does at 14
    reports = {}
    for max_len in (12, 14, 16):
        seconds, reports[max_len] = _timed(lambda: conjectures.scan(max_len, threads=1))
        record(f"probe.conjectures.scan.len{max_len}_s", seconds,
               workloads.check(workloads.Op("scan", (max_len,)), reports[max_len]))
    one_thread = details["probe.conjectures.scan.len14_s"]["value"]
    seconds, two = _timed(lambda: conjectures.scan(14, threads=2))
    same = (two.records, two.violations, two.spot_checks) == (
        reports[14].records, reports[14].violations, reports[14].spot_checks)
    record("probe.conjectures.scan.threads2_over_threads1", seconds / one_thread,
           None if same else "threads=2 changed the report", threads2_s=seconds)

    # the two inputs ROADMAP names as falling over
    argv = ["expect", "H" * 200, "--method", "markov", "--json"]
    seconds, (code, out, _) = _timed(lambda: workloads.run_cli(argv))
    want = str(2**201 - 2)
    record("probe.cli.expect_H200_markov_s", seconds,
           None if code == 0 and f'"markov": "{want}"' in out else f"exit {code} or wrong value")
    argv = ["expect", "0,1,0", "--alphabet", "1000000", "--json"]
    seconds, ran = _timed(lambda: workloads.run_cli(argv))
    record("probe.cli.expect_alphabet1e6_s", seconds,
           workloads.check(workloads.Op("cli", tuple(argv)), ran) if ran.code == 0 else f"exit {ran.code}")

    # simulation throughput per available kernel
    kernels = ["python"] + (["compiled"] if simulate.kernel_name() == "compiled" else [])
    p = pattern.parse("HTHT")
    sim_reports = {}
    for kernel in kernels:
        seconds, sim_reports[kernel] = _timed(lambda: simulate.simulate_wait(p, 5000, 42, kernel=kernel), 3)
        report = sim_reports[kernel]
        problem = workloads.check(workloads.Op("simulate", ("HTHT", 2, 5000, 42)), report)
        if kernel == "compiled" and report != sim_reports["python"]:
            problem = "compiled and python kernels disagree"
        record(f"probe.simulate.draws_per_s.{kernel}", report.total_flips / seconds, problem)

    # every README console example, byte for byte
    examples = README_EXAMPLE.findall((root / "README.md").read_text())
    for i, (argv, expected) in enumerate(examples, 1):
        seconds, (code, out, _) = _timed(lambda: workloads.run_cli(argv.split()), 3)
        record(f"probe.readme.{i}.{argv.split()[0]}_s", seconds,
               None if code == 0 and out == expected else "output differs from README", argv=argv)

    failed = [name for name, d in details.items() if d["problem"]]
    metrics["probe.failed"] = len(failed)
    return metrics, details
