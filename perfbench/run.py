#!/usr/bin/env python3
"""The flipwait benchmark: one closed-loop client, seeded workloads, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {expect,series,scan,simulate} \\
        --seed N --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics with no tracing installed: the
seed fixes a deck of ops, and the run repeats the deck, pass after pass,
until S seconds have passed.  A fixed reference loop is timed just before
and just after every op, and each op's time is the median over passes of
its wall time over the reference's, times the reference's nominal time.
Set-up time is the median over fresh interpreters, started between
passes, of the package's import time over the reference's, scaled the
same way.
--trace 1 runs each op of the deck twice, plain and traced, and reports
per-layer metrics, the tracing overhead and the reference probes.
The metric names and units come from BENCHMARK.json.  The last line of
stdout is the JSON result; a fuller record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from itertools import repeat
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Set-up is sampled before every pass, and at least this many times.
SETUP_REPEATS = 25
# Nominal time of reference(): about its fastest time on the host the
# benchmark was tuned on (a 2-vCPU share of a Xeon host, CPython 3.11).
REFERENCE_S = 4e-4

SETUP_CODE = """
import importlib, pkgutil, sys, time
exec(sys.argv[2])
def timed_reference():
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return min(times)
before = timed_reference()
names = [m.name for m in pkgutil.iter_modules([sys.argv[1]]) if not m.name.startswith("_")]
start = time.perf_counter()
for name in names:
    importlib.import_module("flipwait." + name)
importlib.import_module("flipwait.simulate").kernel_name()
import_s = time.perf_counter() - start
print(import_s, (before + timed_reference()) / 2)
"""


class Outcome(NamedTuple):
    label: str
    wall: float
    status: str  # "ok", "error" (raised or exited non-zero) or "wrong" (failed its check)
    reason: str | None
    slot: int = 0  # the op's place in its pass; every pass over a deck has the same op in a slot
    ref: float = REFERENCE_S  # mean wall time of reference() just before and just after the op


def reference() -> int:
    """Fixed pure-Python work, timed around every op to gauge the machine's speed at that moment.

    It allocates one container, so the collector's settings hardly touch it.
    """
    table = dict.fromkeys(range(32), 0)
    x = acc = 0
    for i in range(1500):
        table[i & 31] += i
        x = x * 3 + i
        acc += (i * 7) % 13
    return x + acc


def timed_reference() -> float:
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def measure(passes, seconds: float | None = None, tracer=None, execute=None, between=None) -> list[Outcome]:
    """Run passes of ops closed-loop, timing each op and checking it outside the timed region.

    Time is looked at only between passes, so a run always measures whole
    passes.  With a tracer, recording is on only while an op executes.
    `between` is called before each pass.  An op that returns the output
    it returned before gets the verdict it got before.
    """
    import workloads

    execute = execute or workloads.execute
    outcomes = []
    checked = {}
    start = perf_counter()
    for ops in passes:
        if between is not None:
            between()
        for slot, op in enumerate(ops):
            before = timed_reference()
            if tracer is not None:
                tracer.enabled = True
            t0 = perf_counter()
            try:
                result = execute(op)
                error = None
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            ref = (before + timed_reference()) / 2
            if error is not None:
                status, reason = "error", error
            elif op in checked and checked[op][0] == result:
                status, reason = checked[op][1]
            else:
                status, reason = verdict(op, result)
                checked[op] = result, (status, reason)
            outcomes.append(Outcome(op.label, wall, status, reason and f"{op.args}: {reason}", slot, ref))
        if seconds is not None and perf_counter() - start >= seconds:
            break
    return outcomes


def verdict(op, result) -> tuple[str, str | None]:
    """(status, reason) of an op that returned, from its output check."""
    import workloads

    try:
        wrong = workloads.check(op, result)
    except workloads.Failed as exc:
        return "error", str(exc)
    except Exception as exc:
        return "wrong", f"check raised {type(exc).__name__}: {exc}"
    return ("wrong", wrong) if wrong else ("ok", None)


def nearest_rank(ranked: list[float], q: float) -> float:
    return ranked[max(0, math.ceil(len(ranked) * q) - 1)]


def op_times(outcomes: list[Outcome]) -> list[tuple[float, bool]]:
    """(time, passed on every pass) of each slot of a deck.

    The time is the median over passes of the op's wall time over the
    reference's around it, in units of REFERENCE_S.
    """
    ratios: dict[int, list[float]] = {}
    ok: dict[int, bool] = {}
    for o in outcomes:
        ratios.setdefault(o.slot, []).append(o.wall / o.ref)
        ok[o.slot] = ok.get(o.slot, True) and o.status == "ok"
    return [(statistics.median(ratios[slot]) * REFERENCE_S, ok[slot]) for slot in sorted(ratios)]


def summarize(outcomes: list[Outcome]) -> dict[str, float]:
    """End-to-end metrics of one run, from each op's time relative to the reference loop.

    The machine is shared, and its speed changes in phases of seconds to
    minutes, sometimes for a whole run.  The reference timed around an op
    runs at nearly the same speed, so the ratio of the two hardly moves
    with the machine, while a slower program raises it.  A failed op ranks
    as slowest.
    """
    times = op_times(outcomes)
    ranked = sorted(t if ok else math.inf for t, ok in times)
    return {
        "ops_per_s": len(times) / sum(t for t, _ in times),
        "latency_p50_ms": nearest_rank(ranked, 0.5) * 1e3,
        "latency_p90_ms": nearest_rank(ranked, 0.9) * 1e3,
        "passed_frac": sum(o.status == "ok" for o in outcomes) / len(outcomes),
    }


def by_label(outcomes: list[Outcome]) -> dict[str, dict]:
    out = {}
    for label in sorted({o.label for o in outcomes}):
        mine = [o for o in outcomes if o.label == label]
        out[label] = {
            "ops": len(mine),
            "failed": sum(o.status != "ok" for o in mine),
            "median_ms": statistics.median(o.wall for o in mine) * 1e3,
            "total_s": sum(o.wall for o in mine),
        }
    return out


def setup_sample() -> tuple[float, float]:
    """(import time, reference time) in a fresh interpreter.

    The import time covers every flipwait module, kernel selection included;
    the reference time is the mean of the fastest of five runs of
    reference() in the same interpreter just before the imports and the
    fastest of five just after.
    """
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC / "flipwait"), inspect.getsource(reference)],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    import_s, ref_s = map(float, proc.stdout.split())
    return import_s, ref_s


def environment() -> dict:
    from flipwait import simulate

    try:
        import flipwait._simcore  # noqa: F401
        simcore_error = None
    except ImportError as exc:
        simcore_error = str(exc)
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "kernel": simulate.kernel_name(),
        "simcore_import_failed": simcore_error is not None,
        "simcore_import_error": simcore_error,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": commit,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def plain_run(workload: str, seed: int, seconds: float):
    import workloads

    ops = workloads.deck(workload, seed)
    setup_sample()  # the first import may also compile bytecode
    setups = []
    outcomes = measure(repeat(ops), seconds, between=lambda: setups.append(setup_sample()))
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_sample())
    metrics = summarize(outcomes)
    metrics["setup_s"] = statistics.median(import_s / ref_s for import_s, ref_s in setups) * REFERENCE_S
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    by_slot = [[o for o in outcomes if o.slot == slot] for slot in range(len(ops))]
    return outcomes, metrics, {
        "passes": len(by_slot[0]),
        "wall_s_by_slot": [[o.wall for o in mine] for mine in by_slot],
        "reference_s_by_slot": [[o.ref for o in mine] for mine in by_slot],
        "setup_samples": setups,
    }


def traced_run(workload: str, seed: int):
    import probes
    import tracing
    import workloads

    ops = workloads.deck(workload, seed)
    tracer = tracing.Tracer()
    plain, traced = [], []
    # each op runs once plain and once traced, back to back in alternating
    # order, so a slowdown of the machine hits both sides of the overhead alike
    for i, op in enumerate(ops):
        for traced_turn in (i % 2 == 0, i % 2 == 1):
            if traced_turn:
                tracer.op_id = i
                with tracer:
                    traced += measure([[op]], tracer=tracer)
            else:
                plain += measure([[op]])
    traced_wall = sum(o.wall for o in traced)
    metrics = tracer.metrics(len(traced))
    metrics["trace.overhead_ratio"] = traced_wall / sum(o.wall for o in plain)
    metrics["trace.accounted_share"] = tracer.self_seconds() / traced_wall
    probe_metrics, probe_details = probes.run_all(ROOT)
    metrics.update(probe_metrics)
    extra = {
        "untraced_by_op": by_label(plain),
        "probes": probe_details,
        "layers": {name: {"moves": moves, "on": on} for name, (moves, on) in tracing.LAYERS.items()},
        "spans": tracer.spans,
    }
    return plain + traced, metrics, extra


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "flipwait" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from the root of a flipwait checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    if env["kernel"] != "compiled":
        print("note: the compiled simulation kernel is not importable "
              f"({env['simcore_import_error']}); the pure-Python kernel is in use, about 100x slower")
    if args.trace:
        outcomes, metrics, extra = traced_run(args.workload, args.seed)
    else:
        outcomes, metrics, extra = plain_run(args.workload, args.seed, args.seconds)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    problems = [o.reason for o in outcomes if o.status != "ok"]
    wrong = sum(o.status == "wrong" for o in outcomes) + metrics.get("probe.failed", 0)
    result = {
        "correct": wrong == 0,
        "attempted": len(outcomes),
        "failed": len(problems),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = extra.pop("spans", None)
    if spans is not None:
        with open(f"{stem}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "by_op": by_label(outcomes), "failures": problems[:50],
              "all_metrics": metrics, **extra, "result": result}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    for label, row in record["by_op"].items():
        print(f"{label:>9}: {row['ops']:5d} ops, {row['failed']:3d} failed, median {row['median_ms']:9.3f} ms")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
