"""Seeded Monte Carlo estimation of the expected waiting time.

A sanity check that shares nothing with the exact machinery beyond E(S):
`simulate_wait` sizes the flip cap from `expected_wait_markov`, and
`_simpy.play` sizes its rounds' rows from `expected_wait_conway`.  The
generator is SplitMix64 with one substream per trial (see flipwait._simpy
for the exact scheme), so reports are bit-identical for a given (pattern,
trials, seed) on every platform, batch split, or thread or process count.
Trials accumulate into exact integer sums and only the final mean and
standard error are floats.

One kernel runs: `_simpy.play` plays a block of games in lockstep, draws
each round's symbols for every live game on packed-integer lanes, and finds
where every game ends with whole-int operations on the round's symbols,
carrying each survivor's last s-1 symbols into the next round instead of
redrawing them; it returns the same sums, bit for bit, as the
one-draw-at-a-time loop the tests keep as its reference, and spreads a
call's trials over one forked process per CPU the process may use.

No game draws more than max(FLIP_CAP, 64*E(S)) symbols.  From every
automaton state the expected remaining wait is at most E, so by Markov's
inequality a game outlives each further 2E draws with probability at most
1/2, and it passes 64E with probability at most 2**-32 (the true tail
decays like e**-64).  A fixed 10**7 cap is overrun by coin runs of length
22 and up, whose E is about 8.4 million.

A run whose expected draws, trials * E(S), pass SIM_BUDGET is refused before
the first draw.  The kernel's fastest measured rate on one core is about
1.3 * 10**7 draws per second (75-115 ns per draw for a few games with a
large E on a 2-vCPU shared host; 120-270 ns for the benchmark's many short
games), so a refused run would take about 46 s at the fastest rate and one
to three minutes at the benchmark's, divided by the processes that
`_simpy.play` spreads it over.  The largest runs of the tests, the README
and the benchmark expect about 1.7 * 10**7 draws (`H`*22, 2 trials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from flipwait import _simpy
from flipwait.exact import exact_str, expected_wait_markov
from flipwait.pattern import Pattern

FLIP_CAP = 10**7  # the flip cap never drops below this; the benchmark passes it to run_batch
# Read only by the benchmark's simulate check, which re-splits reports of more
# trials than this; simulate_wait plays every trial in one kernel call.
BATCH_SIZE = 1 << 16
SIM_BUDGET = 6 * 10**8  # most expected draws, trials * E(S), of one run


def kernel_name() -> str:
    """The simulation kernel in use, always 'python'.

    Kept because `simulate`'s text report and the benchmark print it.
    """
    return "python"


def flip_cap(p: Pattern) -> int:
    """Most draws one game may take: max(FLIP_CAP, 64*E(S)), E from the O(s) chain solve."""
    return max(FLIP_CAP, 64 * int(expected_wait_markov(p)))


@dataclass(frozen=True)
class SimReport:
    pattern: str
    trials: int
    seed: int
    mean: float
    std_error: float
    min_flips: int
    max_flips: int
    total_flips: int


def simulate_wait(p: Pattern, trials: int, seed: int, kernel: str | None = None) -> SimReport:
    """Run independent games until first occurrence and aggregate their lengths.

    Raises ValueError for trials < 1, for a kernel other than None or
    'python' (the keyword stays because the benchmark passes it), when the
    expected draws pass SIM_BUDGET, or when a single game exceeds
    flip_cap(p) draws.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if kernel not in (None, "python"):
        raise ValueError(f"unknown kernel {kernel!r} (only 'python' exists)")
    e = expected_wait_markov(p)
    if trials * e > SIM_BUDGET:
        raise ValueError(f"{trials} games of {p.text()} expect {exact_str(trials * e)} draws (E = {exact_str(e)}), "
                         f"more than the simulation budget of {SIM_BUDGET} draws")
    seed &= _simpy.MASK64
    total, total_sq, mn, mx = _simpy.play(p, trials, seed, 0, flip_cap(p))
    mean = total / trials
    if trials > 1:
        # keep the variance numerator exact; the single int/int division is
        # correctly rounded, so reports match bit for bit everywhere
        var_numerator = trials * total_sq - total * total
        std_error = math.sqrt(var_numerator / (trials * trials * (trials - 1)))
    else:
        std_error = 0.0
    return SimReport(
        pattern=p.text(),
        trials=trials,
        seed=seed,
        mean=mean,
        std_error=std_error,
        min_flips=mn,
        max_flips=mx,
        total_flips=total,
    )
