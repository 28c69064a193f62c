"""Pure-Python Monte Carlo kernel: a block of games played in lockstep.

Every trial gets its own generator stream: trial t starts a SplitMix64
sequence from the internal state mix(seed + (t+1) * GAMMA), advanced by
GAMMA per draw with the standard 64-bit finalizer.  Mixing the start is the
usual split step; without it consecutive trials would replay shifted views
of one global sequence and be heavily correlated.  Symbols are the output
modulo the alphabet size.  Per-trial streams make the result independent of
trial scheduling, so any batching, thread or process count produces the same
totals.

The same independence lets a block of trials draw together.  Each round draws
`row` new symbols for every live trial into one Python int of W-bit lanes,
laid out draw-major: lane j*live + t holds trial t's j-th new draw, its
generator state plus (j+1)*GAMMA.  One helper, `advance`, builds every such
int, and each block's start ramp too: it doubles the rows it holds, one bit
of the row count at a time, by adding a copy of them plus have*GAMMA in every
lane above them, and masks every lane to 64 bits once at the end.  The
finalizer runs on every lane at once with a handful of whole-int shifts,
xors, masks and multiplies.  A lane holds a 64-bit value under W = 128 bits
for a power-of-two alphabet up to 256, whose residue is the low byte, and
W = 128 + 8w bits otherwise, w = ceil(bits(c-1)/8): the product of two
64-bit values never spills into the next lane, and a global right shift
followed by a mask shifts every lane in place.  Otherwise the residue is
x - c*floor(x*m / 2**(64+l)) with l = bits(c-1) and m = floor(2**(64+l)/c) + 1,
exact for every 64-bit x (Granlund & Montgomery, PLDI 1994, Thm 4.2), and it
sits in the low w bytes of the lane.  The lane int's last row, taken before
the finalizer, is every trial's state for the next round: the states stay an
int between rounds and become bytes only in a round that compacts its
survivors.

The search is whole-int too.  Byte b of every symbol forms a bytes object
of rows, live cells each: the last s-1 rows of the previous round, carried
rather than redrawn, then the new rows.  Read as one int, it is xored with
byte b of the word's k-th symbol in every cell and shifted down k rows; the
or of these over every k and b is zero exactly in the cells where a whole
occurrence starts.  A zero test marks those cells, the last s-1 rows
are dropped (an occurrence starting there ends in the next round), and
log2(rows) shift-ors spread each column's first mark to every row below it.
The marks that the row above lacks are each finished game's first
occurrence; counting them row by row gives the sums, and the last row names
the survivors, whose states and carried rows are kept with
`itertools.compress`.  Game lengths, sums and the trial named by a flip-cap
error equal those of the one-draw-at-a-time loop, kept in the tests as the
reference, bit for bit.

What every block shares is built once per call: the lane mask, GAMMA in
every lane, which a right shift cuts to the rows a doubling step adds, and
each nonzero symbol byte repeated over the largest search a round can make
(most new cells plus s-1 carried rows of a block), which a right shift cuts
to a round's cells; symbol byte 0 needs no xor.  Nothing outlives the call.

`play` spreads one call over the CPUs the process may use.  It cuts the
trials into w contiguous near-equal ranges, forks one child per range past
the first, plays the first range itself and adds the reports up in range
order, so the sums and the trial a flip-cap error names are those of one
process.  Each process runs on its own CPU: the parent on the first for the
length of the call, each child on the next.  A host whose cpuset does not
balance load leaves a forked child on its parent's CPU, where two unpinned
processes took twice as long as one (2-vCPU host, `sched_load_balance` 0).
Each child writes its four sums, or `E` and its ValueError's message, as
ASCII to its own pipe and leaves by `os._exit`, so it never flushes the
parent's stdio or runs its exit handlers.  w is 1 where the platform lacks
`sched_getaffinity` or `fork`, or while a second thread runs; a range whose
fork fails is played in the parent.  Every child is killed if still running
and reaped before `play` returns or raises.
"""

import os
import sys
from itertools import compress, repeat
from math import isqrt
from operator import mul

from flipwait.automaton import build
from flipwait.exact import expected_wait_conway
from flipwait.pattern import Pattern

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

LANES = 1 << 12  # lanes per round, so every packed int stays near 70 KB
TRIAL_COST = 2  # overhead of one trial in one round, in lanes
ROUND_COST = 100  # overhead of one round, in lanes
ZERO = b"\x01" + bytes(255)  # translate table: 1 for a zero byte, 0 for any other
# Fewest expected draws, trials * E(S), that each process must get.  A fork,
# its pipe and its waitpid cost 0.81/0.89/1.09 ms (min/median/p90 of 50, 19 MB
# process, 2-vCPU shared host) and the kernel about 160 ns per draw (HTH took
# 1.65 ms for 1,000 trials and 15.7 ms for 10,000 in one process), so a child
# breaks even near 6,000 draws; each process gets about 7 times that (6.4 ms).
SPLIT_DRAWS = 4 * 10**4


def _word(flat, accept: int, nsym: int) -> Pattern:
    """The word S whose prefix automaton `flat` is.

    S[q] is the symbol taking state q to q+1, and `flat` must equal
    automaton.build's table for S, row by row; anything else raises ValueError.
    """
    c, s = nsym, accept
    if s < 1 or c < 1 or len(flat) != (s + 1) * c:
        raise ValueError(f"table of {len(flat)} entries is not a prefix automaton "
                         f"with accept state {s} over {c} symbols")
    rows = [tuple(flat[q * c:(q + 1) * c]) for q in range(s + 1)]
    p = Pattern(tuple(row.index(q + 1) if q + 1 in row else 0 for q, row in enumerate(rows[:s])), c)
    for q, (row, want) in enumerate(zip(rows, build(p))):
        if row != want:
            raise ValueError(f"row {q} of the table is not a prefix-automaton row")
    return p


def _finalize(z: int, m64: int) -> int:
    """SplitMix64's output mix on every lane of z (lanes below 2**64, masked on return)."""
    z = ((z ^ (z >> 30)) & m64) * MIX1 & m64
    z = ((z ^ (z >> 27)) & m64) * MIX2 & m64
    return (z ^ (z >> 31)) & m64


def run_batch(flat, accept, nsym, trials, seed, first_trial, flip_cap):
    """`play` for the word whose row-major automaton table (state * nsym +
    symbol) is `flat`; raises ValueError if the table is no such automaton.

    The table entry stays for callers that hold a table, such as the
    benchmark's batch-split check and the tests' one-draw reference.
    """
    return play(_word(flat, accept, nsym), trials, seed, first_trial, flip_cap)


def _workers(trials: int, e: int) -> int:
    """Processes for `trials` games of expected length e: one per usable CPU, each
    with at least SPLIT_DRAWS expected draws; 1 without fork or while a second thread runs."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    if "threading" in sys.modules and sys.modules["threading"].active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), trials, e * trials // SPLIT_DRAWS))


def _pin(cpus) -> None:
    """Run this process on `cpus` only; keep its CPUs if the kernel refuses them."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _child(out: int, cpu: int, p: Pattern, trials, seed, first_trial, flip_cap):
    """In a forked child: write `_play`'s four sums, or E and its ValueError's message, to fd `out`; never returns.

    The child runs on `cpu` alone.  Its exit status is 0 only once the whole text is written.
    """
    try:
        _pin({cpu})
        try:
            text = " ".join(map(str, _play(p, trials, seed, first_trial, flip_cap)))
        except ValueError as exc:
            text = f"E{exc}"
        data = text.encode()
        while data:
            data = data[os.write(out, data):]
        os._exit(0)
    finally:
        os._exit(1)


def _read(fd: int) -> str:
    """Everything written to the pipe whose read end is fd, up to its end."""
    chunks = []
    while chunk := os.read(fd, 1 << 12):
        chunks.append(chunk)
    return b"".join(chunks).decode()


def _result(text: str, status: int, lo: int, hi: int):
    """The four sums that the child playing trials [lo, hi) wrote as `text` and
    ended with wait status `status`; raises the child's ValueError."""
    if status == 0 and text.startswith("E"):
        raise ValueError(text[1:])
    if status != 0:
        raise RuntimeError(f"the process playing trials {lo} to {hi - 1} ended without a result "
                           f"(wait status {status})")
    return tuple(map(int, text.split()))


def play(p: Pattern, trials, seed, first_trial, flip_cap):
    """Play `trials` games waiting for p; returns (total_flips, total_sq, min_flips, max_flips).

    Trial t of the call draws from substream first_trial + t.  Raises
    ValueError naming the first trial in order that would draw more than
    flip_cap symbols; no trial draws past flip_cap.  The trials are split
    over `_workers` processes (see the module docstring); the result and
    the error do not depend on the split.
    """
    w = _workers(trials, expected_wait_conway(p))
    if w == 1:
        return _play(p, trials, seed, first_trial, flip_cap)
    cuts = [first_trial + trials * i // w for i in range(w + 1)]
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    children = {}  # pid -> (read end of its pipe, its trial range), in range order
    try:
        for cpu, lo, hi in zip(cpus[1:], cuts[1:-1], cuts[2:]):
            fd, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd)
                os.close(out)
                break
            if pid == 0:
                _child(out, cpu, p, hi - lo, seed, lo, flip_cap)
            os.close(out)
            children[pid] = fd, lo, hi
        _pin({cpus[0]})
        parts = [_play(p, cuts[1] - cuts[0], seed, cuts[0], flip_cap)]
        for pid, (fd, lo, hi) in list(children.items()):
            text = _read(fd)
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            os.close(fd)
            parts.append(_result(text, status, lo, hi))
        rest = cuts[len(parts)]  # the ranges whose fork failed
        if rest < cuts[-1]:
            parts.append(_play(p, cuts[-1] - rest, seed, rest, flip_cap))
    finally:
        _pin(mask)
        if children:  # only when play raises: signal costs 0.6 ms to import
            from signal import SIGKILL
        for pid, (fd, _, _) in children.items():
            os.close(fd)
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    totals, squares, mins, maxs = zip(*parts)
    return sum(totals), sum(squares), min(mins), max(maxs)


def _play(p: Pattern, trials, seed, first_trial, flip_cap):
    """`play` in this process alone."""
    word = p.symbols
    s, c = len(p), p.alphabet_size
    e = expected_wait_conway(p)
    w = max(1, ((c - 1).bit_length() + 7) // 8)
    # byte b of every symbol of the word, one bytes object per b
    word_bytes = [bytes((x >> 8 * b) & 255 for x in word) for b in range(w)]
    if c & (c - 1) == 0 and c <= 256:
        low_byte = bytes(b & (c - 1) for b in range(256))
        lane = 16  # bytes per lane
    else:
        low_byte = None
        shift = 64 + (c - 1).bit_length()
        magic = (1 << shift) // c + 1
        lane = 16 + w

    def row_for(live: int) -> int:
        """New draws per trial in a round: sqrt(2*E*overhead) balances the
        draws a finished trial wastes (about half a row) against the rounds
        it waits, and the round's overhead is shared by its live trials."""
        return max(1, isqrt(2 * min(e, LANES * LANES) * (TRIAL_COST + ROUND_COST // live)))

    # a round of `live` <= block trials draws live * row <= most lanes
    block = max(1, min(trials, LANES // row_for(LANES)))
    most = min(LANES, block * row_for(1))
    # lane constants for this call: the 64-bit mask and GAMMA in every lane
    bits = 8 * lane
    m64 = int.from_bytes((b"\xff" * 8 + bytes(lane - 8)) * most, "little")
    gammas = int.from_bytes((GAMMA.to_bytes(8, "little") + bytes(lane - 8)) * most, "little")

    def advance(first: int, live: int, count: int) -> int:
        """count rows of live lanes; row j holds first's lanes plus j*GAMMA, mod 2**64.

        One bit of count at a time, z doubles the `have` rows it holds by a
        copy of them plus have*GAMMA, and an odd bit adds the row first plus
        have*GAMMA.  Unmasked lanes stay below 2**64 * (LANES + 1), so no
        lane carries into the next before the one mask at the end.
        """
        width = bits * live  # bits per row
        z, have = first, 1
        for bit in bin(count)[3:]:
            z |= (z + have * (gammas >> (bits * most - width * have))) << (width * have)
            have *= 2
            if bit == "1":
                z |= (first + have * (gammas >> (bits * most - width))) << (width * have)
                have += 1
        return z & m64

    # each nonzero symbol byte repeated over the largest search: live * row <= most
    # new cells plus s-1 carried rows of live <= block cells; cut to a round's cells by a shift
    size = most + (s - 1) * block
    repeated = {v: int.from_bytes(bytes((v,)) * size, "little") for v in set(b"".join(word_bytes)) if v}
    total = 0
    total_sq = 0
    mn = flip_cap + 1
    mx = 0
    for start in range(0, trials, block):
        n = min(block, trials - start)
        # each live trial's generator state, one lane per trial
        states = _finalize(advance((seed + (first_trial + start + 1) * GAMMA) & MASK64, 1, n), m64)
        ids = range(start, start + n)
        kept = [b""] * w  # each live trial's last min(s-1, drawn) symbols, row by row
        rows_kept = 0
        drawn = 0  # draws made by every live trial
        while ids:
            if drawn >= flip_cap:
                raise ValueError(f"flip cap {flip_cap} exceeded in trial {first_trial + ids[0]}")
            live = len(ids)
            row = min(row_for(live), LANES // live, flip_cap - drawn)
            # lane j*live + t holds trial t's state plus (j + 1)*GAMMA: its draw drawn + j + 1
            z = advance(states + (gammas >> (bits * (most - live))), live, row)
            # each live trial's state, its start plus drawn*GAMMA: the last row
            states = z >> (bits * live * (row - 1))
            z = _finalize(z, m64)
            if low_byte is None:
                z -= ((z * magic >> shift) & m64) * c
            raw = z.to_bytes(lane * row * live, "little")
            if low_byte is not None:
                new = [raw[::lane].translate(low_byte)]
            else:
                new = [raw[b::lane] for b in range(w)]
            # the round's symbols, byte b of each in syms[b]: the kept rows, then the new ones
            syms = [k + x for k, x in zip(kept, new)]
            rows = rows_kept + row
            starts_at = rows - s + 1  # rows where a whole word of s rows can start
            cells = rows * live
            rb = 8 * live  # bits per row
            hit = 0
            if starts_at > 0:
                miss = 0
                for sym, target in zip(syms, word_bytes):
                    x = int.from_bytes(sym, "little")
                    diff = {v: x ^ (repeated[v] >> 8 * (size - cells)) if v else x for v in set(target)}
                    for k, v in enumerate(target):
                        miss |= diff[v] >> (k * rb)
                # 1 in row r of a column whose word starts at symbol row r
                hit = int.from_bytes(miss.to_bytes(cells, "little")[:starts_at * live].translate(ZERO), "little")
            if hit:
                # spread each column's first hit to every row below it
                span = rb
                while span < starts_at * rb:
                    hit |= hit << span
                    span *= 2
                lo = (1 << (starts_at * rb)) - 1
                hit &= lo
                # first hit of each finished column, at byte row * live + column;
                # count them row by row from the first to the last row holding one
                first = ((hit ^ (hit << rb)) & lo).to_bytes(starts_at * live, "little")
                top, end = first.find(1) // live * live, first.rfind(1) // live * live + live
                counts = list(map(first.count, repeat(1), range(top, end, live), range(top + live, end + live, live)))
                # a word starting in row r ends the game at draw drawn - rows_kept + s + r
                base = drawn - rows_kept + s
                lengths = range(base + top // live, base + end // live)
                total += sum(map(mul, counts, lengths))
                total_sq += sum(map(mul, counts, map(mul, lengths, lengths)))
                mn = min(mn, lengths[0])
                mx = max(mx, lengths[-1])
            drawn += row
            # the last s-1 symbol rows go on to the next round, where a word may start in them
            rows_kept = min(s - 1, rows)
            cut = (rows - rows_kept) * live
            if hit:
                alive = (hit >> ((starts_at - 1) * rb)).to_bytes(live, "little").translate(ZERO)
                ids = list(compress(ids, alive))
                zb = states.to_bytes(lane * live, "little")
                zb = b"".join([zb[i:i + lane] for i in compress(range(0, lane * live, lane), alive)])
                states = int.from_bytes(zb, "little")
                kept = [bytes(compress(sym[cut:], alive * rows_kept)) for sym in syms]
            else:
                kept = [sym[cut:] for sym in syms]
    return total, total_sq, mn, mx
