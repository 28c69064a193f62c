
import os
import random
import threading
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest

from flipwait import _simpy, automaton, simulate
from flipwait.automaton import build
from flipwait.exact import expected_wait_markov
from flipwait.pattern import Pattern, enumerate_patterns, parse
from flipwait.simulate import FLIP_CAP, SIM_BUDGET, SimReport, flip_cap, kernel_name, simulate_wait

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _reference_run_batch(flat, accept, nsym, trials, seed, first_trial, flip_cap):
    """One draw at a time: each trial walks the table until the accept state."""
    total = 0
    total_sq = 0
    mn = flip_cap + 1
    mx = 0
    for t in range(trials):
        z = _mix((seed + (first_trial + t + 1) * GAMMA) & MASK64)
        state = 0
        flips = 0
        while state != accept:
            if flips >= flip_cap:
                raise ValueError(f"flip cap {flip_cap} exceeded in trial {first_trial + t}")
            z = (z + GAMMA) & MASK64
            state = flat[state * nsym + _mix(z) % nsym]
            flips += 1
        total += flips
        total_sq += flips * flips
        if flips < mn:
            mn = flips
        if flips > mx:
            mx = flips
    return total, total_sq, mn, mx


def _draws(seed: int, trial: int, n: int, c: int) -> tuple[int, ...]:
    """The first n symbols of one trial's stream."""
    z = _mix((seed + (trial + 1) * GAMMA) & MASK64)
    return tuple(_mix((z + k * GAMMA) & MASK64) % c for k in range(1, n + 1))


def _flat(symbols, c: int) -> list[int]:
    return [t for row in build(Pattern(tuple(symbols), c)) for t in row]


def _outcome(run, *args):
    try:
        return run(*args)
    except ValueError as exc:
        return str(exc)


def test_determinism_same_seed_same_report():
    p = parse("HTH")
    a = simulate_wait(p, 20000, 12345)
    b = simulate_wait(p, 20000, 12345)
    assert a == b


def test_different_seeds_differ():
    p = parse("HTH")
    assert simulate_wait(p, 20000, 1) != simulate_wait(p, 20000, 2)


def test_batch_split_does_not_change_totals():
    # per-trial substreams: one big batch equals the sum of small batches
    p = parse("HH")
    from flipwait.automaton import build

    flat = [t for row in build(p) for t in row]
    whole = _simpy.run_batch(flat, 2, 2, 1000, 42, 0, FLIP_CAP)
    first = _simpy.run_batch(flat, 2, 2, 400, 42, 0, FLIP_CAP)
    second = _simpy.run_batch(flat, 2, 2, 600, 42, 400, FLIP_CAP)
    assert whole[0] == first[0] + second[0]
    assert whole[1] == first[1] + second[1]
    assert whole[2] == min(first[2], second[2])
    assert whole[3] == max(first[3], second[3])


def test_report_fields():
    rep = simulate_wait(parse("H"), 10000, 3)
    assert isinstance(rep, SimReport)
    assert rep.min_flips == 1
    assert rep.max_flips >= rep.min_flips
    assert rep.trials == 10000
    assert rep.mean == rep.total_flips / rep.trials
    assert rep.std_error > 0
    assert simulate_wait(parse("H"), 1, 3).std_error == 0.0


def test_mean_close_to_exact_headline():
    rep = simulate_wait(parse("HH"), 10**5, 42)
    assert abs(rep.mean - 6) < 0.1
    rep = simulate_wait(parse("HT"), 10**5, 42)
    assert abs(rep.mean - 4) < 0.1
    rep = simulate_wait(parse("H"), 10**5, 42)
    assert abs(rep.mean - 2) < 0.05 and rep.min_flips == 1


def test_trials_validation():
    with pytest.raises(ValueError):
        simulate_wait(parse("HH"), 0, 1)


def test_min_flips_at_least_pattern_length():
    for text in ("HH", "HTHT"):
        rep = simulate_wait(parse(text), 5000, 9)
        assert rep.min_flips >= len(text)
        assert rep.mean >= len(text)


def test_flip_cap_raises():
    p = parse("H" * 12)
    flat = [t for row in build(p) for t in row]
    with pytest.raises(ValueError, match="flip cap"):
        _simpy.run_batch(flat, len(p), 2, 100, 42, 0, 5)


def test_coverage_of_exact_value_across_seeds():
    # 4 standard-error interval around the simulated mean should cover the
    # exact expectation for nearly every (pattern, seed) pair
    trials = 4000
    patterns = [p for s in range(1, 4) for p in enumerate_patterns(s, 2)]
    # lengths 4 and 5 sampled to keep the pure-Python kernel's run short
    for s in (4, 5):
        patterns.extend(list(enumerate_patterns(s, 2))[:: max(1, 2**s // 6)])
    hits = 0
    total = 0
    for p in patterns:
        exact = float(expected_wait_markov(p))
        for seed in range(20):
            rep = simulate_wait(p, trials, seed)
            total += 1
            if abs(rep.mean - exact) <= 4 * rep.std_error:
                hits += 1
    assert hits / total >= 0.95


def test_die_simulation():
    rep = simulate_wait(parse("0", 6), 10**5, 11)
    assert abs(rep.mean - 6) < 0.15
    assert rep.min_flips == 1


def _identity_cases():
    """(word, c, trials, seed, first_trial, cap) with E * trials kept small for the reference."""
    rng = random.Random(20251018)
    cases = [
        ((0,), 2, 4097 + rng.randrange(2000), rng.getrandbits(64), rng.getrandbits(64), FLIP_CAP),
        ((0, 1), 2, 4096 * 2 + 3, rng.getrandbits(64), 0, FLIP_CAP),
        ((0,) * 4, 2, 700, rng.getrandbits(64), rng.getrandbits(20), FLIP_CAP),  # HHHH
        ((0, 0, 0), 3, 300, rng.getrandbits(64), rng.getrandbits(64), FLIP_CAP),
        ((0,) * 12, 2, 3, rng.getrandbits(64), rng.getrandbits(64), FLIP_CAP),  # E = 8190 > LANES
        ((5, 5), 257, 2, rng.getrandbits(64), rng.getrandbits(20), FLIP_CAP),  # E = 66306 > LANES
        ((0, 1), 2, 5000, rng.getrandbits(64), rng.getrandbits(64), 9),  # cap trips mid-batch
        # two-byte residues: byte pairs 00 01 of word 256 also straddle symbols (a < 256, 1 + 256j)
        ((256,), 257, 60, rng.getrandbits(64), rng.getrandbits(64), FLIP_CAP),
        ((256,), 1000, 20, rng.getrandbits(64), rng.getrandbits(64), FLIP_CAP),
    ]
    for c in (2, 3, 4, 6, 10, 200, 256, 257, 1000, 10**6):
        for _ in range(6):
            seed, first = rng.getrandbits(64), rng.getrandbits(rng.choice((8, 32, 64)))
            if c <= 10 and rng.random() < 0.8:
                s = rng.randint(1, 7 if c == 2 else 3)
                word = tuple(rng.randrange(rng.choice((2, c))) for _ in range(s))
            else:
                # plant a word of 1-3 symbols taken from the draws of the first trial
                s, at = rng.randint(1, 3), rng.randrange(50)
                word = _draws(seed, first, at + s, c)[at:]
            e = int(expected_wait_markov(Pattern(word, c)))
            trials = rng.randint(1, max(1, 20000 // e))
            cap = rng.choice((FLIP_CAP, FLIP_CAP, rng.randint(1, 60)))
            cases.append((word, c, trials, seed, first, cap))
    # two-byte symbols: a planted word of 2 or 3 symbols ends the one game after
    # 200-400 draws, while E is 66049 or more, so small rounds carry its symbols
    for c in (257, 1000):
        for s in (2, 3):
            seed, first, at = rng.getrandbits(64), rng.getrandbits(32), rng.randrange(200, 400)
            cases.append((_draws(seed, first, at + s, c)[at:], c, 1, seed, first, FLIP_CAP))
    # three full blocks of 409 and a partial one on 17-byte lanes (c = 3, E = 27):
    # the partial block's start ramp is shorter than the full blocks'
    cases.append(((2, 1, 0), 3, 3 * 409 + 100, rng.getrandbits(64), rng.getrandbits(64), FLIP_CAP))
    # E = 256, blocks of 128: the second round searches 7 carried rows and 32 new
    # ones of about 110 live games, more cells than LANES
    cases.append(((0,) * 7 + (1,), 2, 150, rng.getrandbits(64), rng.getrandbits(64), FLIP_CAP))
    # the widest rounds: a planted coin word of 17 symbols (E >= 2**17, so row_for(1) > LANES)
    # ends the one game near draw 5000 under a cap of 8191, so its rounds draw 4096 rows
    # (one bit set) and then 4095 (every bit set)
    seed, first, at = rng.getrandbits(64), rng.getrandbits(64), rng.randrange(4900, 5100)
    cases.append((_draws(seed, first, at + 17, 2)[at:], 2, 1, seed, first, 8191))
    return cases


IDENTITY_CASES = _identity_cases()


@lru_cache(maxsize=None)
def _reference_outcome(case: int):
    word, c, trials, seed, first, cap = IDENTITY_CASES[case]
    return _outcome(_reference_run_batch, _flat(word, c), len(word), c, trials, seed, first, cap)


@pytest.mark.parametrize("word,c,trials,seed,first,cap", IDENTITY_CASES)
def test_lockstep_kernel_matches_reference(word, c, trials, seed, first, cap):
    flat = _flat(word, c)
    args = (flat, len(word), c, trials, seed, first, cap)
    expected = _reference_outcome(IDENTITY_CASES.index((word, c, trials, seed, first, cap)))
    assert _outcome(_simpy.run_batch, *args) == expected
    assert _outcome(_simpy.play, Pattern(word, c), trials, seed, first, cap) == expected


@pytest.mark.parametrize("lanes", [8, 16, 64])
@pytest.mark.parametrize("case", range(len(IDENTITY_CASES)))
def test_lockstep_kernel_matches_reference_in_small_rounds(monkeypatch, lanes, case):
    # rounds of at most `lanes` draws: rows shorter than s-1, blocks of one
    # trial, and symbols carried across many rounds
    monkeypatch.setattr(_simpy, "LANES", lanes)
    word, c, trials, seed, first, cap = IDENTITY_CASES[case]
    got = _outcome(_simpy.play, Pattern(word, c), trials, seed, first, cap)
    assert got == _reference_outcome(case)


def test_flip_cap_boundary_names_the_first_trial_over_it():
    word, trials, seed = (0, 1, 1), 40, 77
    flat = _flat(word, 2)
    lengths = [_reference_run_batch(flat, 3, 2, 1, seed, t, FLIP_CAP)[0] for t in range(trials)]
    longest = max(lengths)
    assert _simpy.run_batch(flat, 3, 2, trials, seed, 0, longest) == _reference_run_batch(
        flat, 3, 2, trials, seed, 0, FLIP_CAP)
    with pytest.raises(ValueError, match=f"flip cap {longest - 1} exceeded in trial {lengths.index(longest)}$"):
        _simpy.run_batch(flat, 3, 2, trials, seed, 0, longest - 1)


def test_flip_cap_scales_with_the_expected_wait():
    assert flip_cap(parse("HT")) == FLIP_CAP
    assert flip_cap(parse("H" * 22)) == 64 * (2**23 - 2)


def test_simulate_wait_passes_the_derived_cap(monkeypatch):
    # P(T > 10**7) is about 0.30 per trial for H*22, so a fixed cap fails most runs
    caps = []

    def play(p, trials, seed, first_trial, cap):
        caps.append(cap)
        s = len(p)
        return s * trials, s * s * trials, s, s

    monkeypatch.setattr(_simpy, "play", play)
    report = simulate_wait(parse("H" * 22), 2, 3, kernel="python")
    assert caps == [64 * (2**23 - 2)] and report.min_flips == 22


def test_simulation_budget_refuses_before_the_first_draw(monkeypatch):
    # E stubbed: 4 trials of E = SIM_BUDGET / 4 expect exactly the budget, one more draw is over it
    calls = []

    def play(p, trials, seed, first_trial, cap):
        calls.append(trials)
        return trials, trials, 1, 1

    monkeypatch.setattr(_simpy, "play", play)
    monkeypatch.setattr(simulate, "expected_wait_markov", lambda p: Fraction(SIM_BUDGET // 4))
    assert simulate_wait(parse("HT"), 4, 1).trials == 4 and calls == [4]
    monkeypatch.setattr(simulate, "expected_wait_markov", lambda p: Fraction(SIM_BUDGET + 1))
    with pytest.raises(ValueError, match=f"^1 games of HT expect {SIM_BUDGET + 1} draws \\(E = {SIM_BUDGET + 1}\\), "
                                         f"more than the simulation budget of {SIM_BUDGET} draws$"):
        simulate_wait(parse("HT"), 1, 1)
    assert calls == [4]


def test_report_across_the_old_batch_boundary_is_pinned(monkeypatch):
    # computed when simulate_wait still split the trials into calls of 2**16;
    # one kernel call over all 65541 trials gives the same report, bit for bit
    calls = []
    play = _simpy.play

    def counted(p, trials, seed, first_trial, cap):
        calls.append((trials, first_trial))
        return play(p, trials, seed, first_trial, cap)

    monkeypatch.setattr(_simpy, "play", counted)
    assert simulate_wait(parse("HT"), 65541, 7) == SimReport(
        pattern="HT", trials=65541, seed=7, mean=4.006896446499138, std_error=0.007864072639096024,
        min_flips=2, max_flips=26, total_flips=262616)
    assert calls == [(65541, 0)]


def test_simulate_wait_builds_no_table(monkeypatch):
    expected = simulate_wait(parse("HTH"), 3000, 5)

    def build(*args):
        raise AssertionError("simulate_wait built the automaton table")

    # _simpy's from-import too, so that the kernel cannot build it either
    monkeypatch.setattr(automaton, "build", build)
    monkeypatch.setattr(_simpy, "build", build)
    assert simulate_wait(parse("HTH"), 3000, 5) == expected


def test_simulate_wait_has_one_kernel():
    assert kernel_name() == "python"
    assert simulate_wait(parse("HT"), 50, 1, kernel="python") == simulate_wait(parse("HT"), 50, 1)
    with pytest.raises(ValueError, match="'compiled'"):
        simulate_wait(parse("HT"), 50, 1, kernel="compiled")


HTH = [1, 0, 1, 2, 3, 0, 3, 3]  # rows (1,0) (1,2) (3,0) (3,3)


@pytest.mark.parametrize("table,accept", [
    (HTH[:-1], 3),  # short table
    ([1, 1] + HTH[2:], 3),  # row 0 sends both symbols to 1
    (HTH[:2] + [1, 1] + HTH[4:], 3),  # row 1 never advances
    (HTH[:4] + [3, 1] + HTH[6:], 3),  # row 2 forgets its border
    (HTH[:6] + [3, 0], 3),  # accept row not absorbing
    (HTH, 2),  # wrong accept state
])
def test_run_batch_rejects_a_table_that_is_no_prefix_automaton(table, accept):
    assert HTH == _flat((0, 1, 0), 2)
    with pytest.raises(ValueError):
        _simpy.run_batch(table, accept, 2, 5, 1, 0, FLIP_CAP)


def test_kernel_keeps_no_state_between_calls():
    # lane constants are built per call: none at import, none cached after
    before = {name: value for name, value in vars(_simpy).items() if not name.startswith("__")}
    assert all(v.bit_length() <= 64 for v in before.values() if isinstance(v, int))
    _simpy.run_batch(_flat((0, 1), 2), 2, 2, 5000, 9, 0, FLIP_CAP)
    after = {name: value for name, value in vars(_simpy).items() if not name.startswith("__")}
    assert after.keys() == before.keys() and all(after[k] is before[k] for k in before)


def test_simulation_memory_stays_small():
    p = parse("HT")
    tracemalloc.start()
    try:
        simulate_wait(p, 70000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# The fan-out: `play` splits its trials over one process per CPU.  These tests
# fake 1, 2 or 3 usable CPUs and lower SPLIT_DRAWS, so that small runs fork.
def _fake_cpus(monkeypatch, n: int) -> list:
    """Give `_simpy` n usable CPUs and one process per expected draw; returns the pids forked, one per fork."""
    monkeypatch.setattr(_simpy.os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(_simpy, "SPLIT_DRAWS", 1)
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(_simpy.os, "fork", counted)
    return forks


FANOUT_CASES = [
    ((0, 1, 0), 2, 3001, 11, 0),  # HTH
    ((0, 0), 2, 500, 2**64 - 1, 2**40 + 7),  # HH from a far first trial
    ((2, 1, 0), 3, 777, 5, 3),
    ((5, 5), 6, 120, 99, 1000),
    ((256,), 257, 9, 1, 0),  # two-byte residues
    ((0, 1), 2, 1, 3, 5),  # fewer trials than CPUs
    ((0, 1), 2, 2, 3, 5),
]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("word,c,trials,seed,first", FANOUT_CASES)
def test_fanout_report_equals_one_process(monkeypatch, cpus, word, c, trials, seed, first):
    p = Pattern(word, c)
    alone = _simpy._play(p, trials, seed, first, FLIP_CAP)
    forks = _fake_cpus(monkeypatch, cpus)
    assert _simpy.play(p, trials, seed, first, FLIP_CAP) == alone
    assert len(forks) == min(cpus, trials) - 1


def test_workers_give_each_process_split_draws(monkeypatch):
    # HTH: E = 10, so 8,000 trials expect exactly 2 * SPLIT_DRAWS draws
    monkeypatch.setattr(_simpy.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert _simpy.SPLIT_DRAWS == 4 * 10**4
    assert [_simpy._workers(n, 10) for n in (3999, 4000, 7999, 8000, 11999, 12000, 10**6)] == [1, 1, 1, 2, 2, 3, 3]
    assert _simpy._workers(2, 10**9) == 2


@pytest.mark.parametrize("cpus, trials", [(2, 40), (3, 60)])
def test_fanout_flip_cap_names_the_first_trial_over_it(monkeypatch, cpus, trials):
    # every cap from the shortest game to the longest: the trial named must be the reference's
    word, seed, first = (0, 1, 1), 77, 1000
    flat = _flat(word, 2)
    lengths = [_reference_run_batch(flat, 3, 2, 1, seed, first + t, FLIP_CAP)[0] for t in range(trials)]
    cuts = [trials * i // cpus for i in range(cpus + 1)]
    longest = [max(lengths[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    # so some caps fail in the parent's range, and some pass it and fail in every child's range
    assert min(lengths) < longest[0] < min(longest[1:])
    _fake_cpus(monkeypatch, cpus)
    for cap in range(min(lengths), max(lengths) + 1):
        want = _outcome(_reference_run_batch, flat, 3, 2, trials, seed, first, cap)
        assert _outcome(_simpy.play, Pattern(word, 2), trials, seed, first, cap) == want


def test_fanout_does_not_fork_while_a_second_thread_runs(monkeypatch):
    p = Pattern((0, 1, 0), 2)
    alone = _simpy._play(p, 3000, 4, 0, FLIP_CAP)
    forks = _fake_cpus(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _simpy.play(p, 3000, 4, 0, FLIP_CAP) == alone
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and forks == []
    assert _simpy.play(p, 3000, 4, 0, FLIP_CAP) == alone and len(forks) == 1


@pytest.mark.parametrize("fails_from", [0, 1])
def test_fanout_plays_the_ranges_it_cannot_fork_in_the_parent(monkeypatch, fails_from):
    p = Pattern((0, 1, 1), 2)
    alone = _simpy._play(p, 3000, 8, 17, FLIP_CAP)
    forks = _fake_cpus(monkeypatch, 3)
    fork = _simpy.os.fork

    def failing():
        if len(forks) >= fails_from:
            raise OSError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(_simpy.os, "fork", failing)
    assert _simpy.play(p, 3000, 8, 17, FLIP_CAP) == alone
    assert len(forks) == fails_from


def test_fanout_names_the_range_of_a_child_that_ends_without_a_result(monkeypatch):
    parent, play = os.getpid(), _simpy._play

    def dies_in_a_child(p, trials, seed, first_trial, cap):
        if os.getpid() != parent:
            os._exit(3)
        return play(p, trials, seed, first_trial, cap)

    _fake_cpus(monkeypatch, 2)
    monkeypatch.setattr(_simpy, "_play", dies_in_a_child)
    with pytest.raises(RuntimeError, match=r"^the process playing trials 1050 to 1099 ended without a result"):
        _simpy.play(Pattern((0, 1), 2), 100, 1, 1000, FLIP_CAP)


def test_fanout_reaps_its_children_when_the_parent_is_interrupted(monkeypatch):
    # the children would sleep for a minute; play kills and reaps them at once
    parent = os.getpid()

    def interrupted(p, trials, seed, first_trial, cap):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    _fake_cpus(monkeypatch, 3)
    monkeypatch.setattr(_simpy, "_play", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _simpy.play(Pattern((0, 1), 2), 100, 1, 0, FLIP_CAP)
    assert time.monotonic() - start < 30
