"""Seeded Monte Carlo estimation of the expected waiting time.

A sanity check that shares nothing with the exact machinery beyond the
automaton table and the chain solve that sizes the flip cap.  The generator
is SplitMix64 with one substream per trial (see flipwait._simpy for the
exact scheme), so reports are bit-identical for a given (pattern, trials,
seed) on every platform, kernel, batch split, or thread count.  Trials
accumulate into exact integer sums and only the final mean and standard
error are floats.

The compiled kernel is preferred at import.  The pure-Python kernel plays a
block of games in lockstep on packed-integer lanes and finds each first
occurrence with `bytes.find`; it returns the same sums, bit for bit, as the
one-draw-at-a-time loop the tests keep as its reference.

No game draws more than max(FLIP_CAP, 64*E(S)) symbols.  From every
automaton state the expected remaining wait is at most E, so by Markov's
inequality a game outlives each further 2E draws with probability at most
1/2, and it passes 64E with probability at most 2**-32 (the true tail
decays like e**-64).  A fixed 10**7 cap is overrun by coin runs of length
22 and up, whose E is about 8.4 million.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from flipwait import _simpy
from flipwait.automaton import build
from flipwait.exact import expected_wait_markov
from flipwait.pattern import Pattern

try:
    from flipwait import _simcore

    _DEFAULT_KERNEL = "compiled"
except ImportError:
    _simcore = None
    _DEFAULT_KERNEL = "python"

MASK64 = (1 << 64) - 1
FLIP_CAP = 10**7  # the flip cap never drops below this
BATCH_SIZE = 1 << 16


def kernel_name() -> str:
    """Which kernel simulate_wait uses by default: 'compiled' or 'python'."""
    return _DEFAULT_KERNEL


def flip_cap(p: Pattern) -> int:
    """Most draws one game may take: max(FLIP_CAP, 64*E(S)), E from the O(s) chain solve."""
    return max(FLIP_CAP, 64 * int(expected_wait_markov(p)))


def compiled_batch(cap: int) -> int:
    """Trials per compiled-kernel batch: its sums are uint64 and each square a
    signed 64-bit product, so batch * cap**2 must stay below 2**63."""
    return min(BATCH_SIZE, (1 << 63) // (cap * cap))


def _kernel(name: str | None):
    if name is None:
        name = _DEFAULT_KERNEL
    if name == "python":
        return _simpy
    if name == "compiled":
        if _simcore is None:
            raise RuntimeError("compiled kernel is not available in this build")
        return _simcore
    raise ValueError(f"unknown kernel {name!r} (expected 'compiled' or 'python')")


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

    Raises ValueError for trials < 1 or when a single game exceeds
    flip_cap(p) draws.  The kernel argument exists for benchmarking; both
    kernels return identical reports.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    impl = _kernel(kernel)
    cap = flip_cap(p)
    batch_size = BATCH_SIZE if impl is _simpy else compiled_batch(cap)
    if batch_size < 1:
        raise ValueError(f"flip cap {cap} is too large for the compiled kernel's 64-bit sums")
    a = build(p)
    flat = [t for row in a.transitions for t in row]
    accept = a.accept_state
    nsym = p.alphabet_size
    seed &= MASK64

    total = 0
    total_sq = 0
    mn = cap + 1
    mx = 0
    done = 0
    while done < trials:
        batch = min(batch_size, trials - done)
        b_total, b_sq, b_mn, b_mx = impl.run_batch(flat, accept, nsym, batch, seed, done, cap)
        total += b_total
        total_sq += b_sq
        mn = min(mn, b_mn)
        mx = max(mx, b_mx)
        done += batch

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
