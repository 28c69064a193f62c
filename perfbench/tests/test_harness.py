"""Tests of the benchmark harness itself: python3 -m pytest perfbench/tests"""

import dataclasses
import itertools
import json
import sys
from fractions import Fraction

import pytest

import oracle
import run
import tracing
import workloads
from flipwait import cli, conjectures, counting, exact, identities


@pytest.mark.parametrize("workload", list(workloads.DECKS))
def test_same_seed_generates_same_ops(workload):
    assert workloads.deck(workload, 7) == workloads.deck(workload, 7)


@pytest.mark.parametrize("workload", ["expect", "series", "simulate"])
def test_other_seed_generates_other_ops(workload):
    assert workloads.deck(workload, 7) != workloads.deck(workload, 8)


def _corrupt_json(op):
    ran = workloads.execute(op)
    out = json.loads(ran.out)
    if "results" in out:
        out["results"]["conway"] = str(int(out["results"]["conway"]) + 1)
    elif "counts" in out:
        out["counts"][len(out["counts"]) // 2] = str(int(out["counts"][len(out["counts"]) // 2]) + 1)
    else:
        out["certified"] = False
    return ran._replace(out=json.dumps(out))


@pytest.mark.parametrize("op", [
    workloads.Op("cli", ("expect", "HTH", "--method", "all", "--json")),
    workloads.Op("cli", ("count", "HHT", "--upto", "40", "--json")),
    # a long random word, where a bracket on E alone would not notice
    workloads.Op("cli", ("count", "HTTHHHTHTTTHHTH", "--upto", "400", "--json")),
    workloads.Op("cli", ("sum", "id1", "--k", "2", "--N", "60", "--json")),
])
def test_corrupted_cli_output_counts_as_failed(op):
    assert run.measure([[op]])[0].status == "ok"
    [outcome] = run.measure([[op]], execute=_corrupt_json)
    assert outcome.status == "wrong"
    assert run.summarize([outcome])["passed_frac"] == 0.0


def test_method_disagreement_is_a_wrong_answer(monkeypatch):
    from flipwait import exact

    op = workloads.Op("cli", ("expect", "HTH", "--method", "all", "--json"))
    monkeypatch.setattr(exact, "expected_wait_markov", lambda p: 11)
    assert workloads.execute(op).code == 2
    [outcome] = run.measure([[op]])
    assert outcome.status == "wrong"


def test_nonzero_exit_without_output_is_an_error():
    [outcome] = run.measure([[workloads.Op("cli", ("expect", "HXH", "--json"))]])
    assert outcome.status == "error" and "exit 1" in outcome.reason


def test_corrupted_series_result_counts_as_failed():
    op = workloads.Op("series", ("HTTHHHTHTTTHHTH", 400))
    partial, bound = workloads.execute(op)
    assert workloads.check(op, (partial, bound)) is None
    assert workloads.check(op, (partial * (1 + Fraction(1, 10**9)), bound)) is not None
    assert workloads.check(op, (partial, bound * 2)) is not None


def _brute_counts(sym, c, N):
    s = len(sym)
    counts = [0] * (N + 1)
    for n in range(s, N + 1):
        for w in itertools.product(range(c), repeat=n):
            if w[n - s:] == sym and all(w[i:i + s] != sym for i in range(n - s)):
                counts[n] += 1
    return counts


@pytest.mark.parametrize("sym, c", [((0,), 2), ((0, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1, 0, 0), 2),
                                    ((1, 0, 1, 1), 2), ((0, 1, 0), 3), ((2, 2), 3)])
def test_recurrence_oracle_matches_brute_force(sym, c):
    N = 11 if c == 2 else 7
    assert oracle.first_occurrence_counts(sym, c, N) == _brute_counts(sym, c, N)


def test_corrupted_library_results_count_as_failed():
    sim = workloads.Op("simulate", ("HT", 2, 2000, 5))
    report = workloads.execute(sim)
    assert workloads.check(sim, report) is None
    assert workloads.check(sim, dataclasses.replace(report, mean=report.mean + 1)) is not None
    scan = workloads.Op("scan", (6,))
    report = workloads.execute(scan)
    assert workloads.check(scan, report) is None
    report.records.pop()
    assert workloads.check(scan, report) is not None


def test_batch_split_identity_catches_a_changed_total():
    sim = workloads.Op("simulate", ("HT", 2, (1 << 16) + 5, 9))
    report = workloads.execute(sim)
    assert workloads.check(sim, report) is None
    changed = dataclasses.replace(report, total_flips=report.total_flips + 1)
    assert workloads.split_identity((0, 1), 2, changed) is not None


def test_failed_ops_rank_as_slowest():
    outcomes = [run.Outcome("x", 0.001, "ok", None, slot) for slot in range(9)]
    outcomes.append(run.Outcome("x", 0.0001, "error", "boom", 9))
    metrics = run.summarize(outcomes)
    assert metrics["latency_p50_ms"] == pytest.approx(1.0)
    assert metrics["latency_p90_ms"] == pytest.approx(1.0)
    assert run.summarize(outcomes[-2:])["latency_p90_ms"] == float("inf")
    assert metrics["passed_frac"] == 0.9


def test_op_times_are_median_ratios_to_the_reference():
    ref = run.REFERENCE_S
    # slot 0 takes 10 references, slot 1 takes 25; the machine runs at three speeds
    passes = [(1.0, 10, 25), (2.0, 10, 25), (1.5, 10, 30)]
    outcomes = [run.Outcome("x", slowdown * ref * cost, "ok", None, slot, slowdown * ref)
                for slowdown, *costs in passes for slot, cost in enumerate(costs)]
    times = run.op_times(outcomes)
    assert times == [(pytest.approx(10 * ref), True), (pytest.approx(25 * ref), True)]
    metrics = run.summarize(outcomes)
    assert metrics["ops_per_s"] == pytest.approx(2 / (35 * ref))
    assert metrics["latency_p50_ms"] == pytest.approx(10 * ref * 1e3)
    assert metrics["latency_p90_ms"] == pytest.approx(25 * ref * 1e3)
    # an op that failed on any pass ranks as slowest
    outcomes[-1] = outcomes[-1]._replace(status="wrong")
    assert run.op_times(outcomes)[1][1] is False
    assert run.summarize(outcomes)["latency_p90_ms"] == float("inf")


def test_a_repeated_output_keeps_its_verdict(monkeypatch):
    calls = []
    real = workloads.check
    monkeypatch.setattr(workloads, "check", lambda op, result: calls.append(op) or real(op, result))
    ops = workloads.deck("expect", 3)[:10]
    outcomes = run.measure([ops] * 3)
    assert len(outcomes) == 3 * len(ops) and all(o.status == "ok" for o in outcomes)
    assert len(calls) == len(set(ops))
    # a different output of the same op is checked afresh
    op = workloads.Op("cli", ("expect", "HTH", "--method", "all", "--json"))
    results = iter([workloads.execute(op), _corrupt_json(op)])
    outcomes = run.measure([[op], [op]], execute=lambda _: next(results))
    assert [o.status for o in outcomes] == ["ok", "wrong"]


def _bindings():
    return {(name, attr): value for name, module in sys.modules.items()
            if name.startswith("flipwait") and module is not None
            for attr, value in vars(module).items() if callable(value)}


def test_tracer_replaces_every_binding_and_restores_them():
    before = _bindings()
    with tracing.Tracer() as tracer:
        # names bound with `from flipwait.X import f` are wrapped as well
        assert identities.count_first_occurrence is counting.count_first_occurrence
        assert identities.count_first_occurrence is not before[("flipwait.counting", "count_first_occurrence")]
        assert conjectures.expected_wait_markov is exact.expected_wait_markov
        tracer.enabled = True
        assert cli.main(["count", "HH", "--upto", "5", "--json"]) == 0
        tracer.enabled = False
    assert _bindings() == before
    stats = tracer.stats
    assert stats["cli.main"].calls == 1
    assert stats["counting.count_first_occurrence"].calls == 1
    assert stats["automaton.build"].calls == 1  # reached through counting's own binding of build


def test_self_times_add_up_to_the_root_span():
    with tracing.Tracer() as tracer:
        tracer.enabled = True
        conjectures.scan(4, threads=1)
        tracer.enabled = False
    stats = tracer.stats
    assert stats["pattern.enumerate_patterns"].calls == 4
    assert stats["exact.correlation_set"].calls == 30
    root = stats["conjectures.scan"].total_s
    assert tracer.self_seconds() == pytest.approx(root, rel=1e-9)
    assert tracer.metrics(1)["conjectures.scan.patterns"] == 30


def test_end_to_end_runs_have_tracing_off(monkeypatch):
    seen = []
    real = workloads.execute

    def spy(op):
        seen.append(any(hasattr(v, "__wrapped__") for v in _bindings().values()))
        return real(op)

    monkeypatch.setattr(workloads, "execute", spy)
    outcomes, metrics, extra = run.plain_run("scan", 0, seconds=0)
    assert len(outcomes) == len(seen) == len(workloads.deck("scan", 0)) and not any(seen)
    assert extra["passes"] == 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} <= set(metrics)
