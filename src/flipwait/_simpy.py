"""Pure-Python Monte Carlo kernel: a block of games played in lockstep.

Every trial gets its own generator stream: trial t starts a SplitMix64
sequence from the internal state mix(seed + (t+1) * GAMMA), advanced by
GAMMA per draw with the standard 64-bit finalizer.  Mixing the start is the
usual split step; without it consecutive trials would replay shifted views
of one global sequence and be heavily correlated.  Symbols are the output
modulo the alphabet size.  Per-trial streams make the result independent of
trial scheduling, so any batching or threading produces the same totals.

The same independence lets a block of trials draw together.  Each round
packs the next draws of every live trial, trial-major, into one Python int
of W-bit lanes and runs the finalizer on every lane at once with a handful
of whole-int shifts, xors, masks and multiplies.  A lane holds a 64-bit
value under W = 128 + 8w bits, w = ceil(bits(c-1)/8): the product of two
64-bit values never spills into the next lane, and a global right shift
followed by a mask shifts every lane in place.  The residue mod c is the
low byte when c is a power of two up to 256; otherwise it is
x - c*floor(x*m / 2**(64+l)) with l = bits(c-1) and m = floor(2**(64+l)/c) + 1,
exact for every 64-bit x (Granlund & Montgomery, PLDI 1994, Thm 4.2), and
it sits in the low w bytes of the lane.  A trial's residues form one
stretch of a bytes object, w bytes per symbol, and one `bytes.find` per
trial, bounded to that stretch and accepted only at a multiple of w,
finds the first occurrence of the word.  Each round redraws a survivor's
last s-1 symbols, so an occurrence may straddle two rounds.  Game lengths,
sums and the trial named by a flip-cap error equal those of the
one-draw-at-a-time loop, kept in the tests as the reference, bit for bit.
"""

from itertools import compress, repeat
from math import isqrt
from operator import mul

from flipwait.automaton import failure_links
from flipwait.pattern import Pattern

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

LANES = 1 << 12  # lanes per round, so every packed int stays near 70 KB
TRIAL_COST = 6  # overhead of one trial in one round, in lanes
ROUND_COST = 100  # overhead of one round, in lanes
NOT_FOUND = -1


def _word(flat, accept: int, nsym: int) -> Pattern:
    """The word S whose prefix automaton `flat` is.

    S[q] is the one symbol taking state q to q+1.  Row 0 sends only S[0] to
    1, row q >= 1 equals row f(q) except at S[q], and the accept row is
    absorbing; anything else raises ValueError.
    """
    c, s = nsym, accept
    if s < 1 or c < 1 or len(flat) != (s + 1) * c:
        raise ValueError(f"table of {len(flat)} entries is not a prefix automaton "
                         f"with accept state {s} over {c} symbols")
    word = []
    fail = [0, 0]
    for q in range(s):
        row = list(flat[q * c:(q + 1) * c])
        ref = [0] * c if q == 0 else list(flat[fail[q] * c:(fail[q] + 1) * c])
        x = row.index(q + 1) if q + 1 in row else 0
        ref[x] = q + 1
        if row != ref:
            raise ValueError(f"row {q} of the table is not a prefix-automaton row")
        word.append(x)
        if q:
            fail.append(flat[fail[q] * c + x])
    if list(flat[s * c:]) != [s] * c:
        raise ValueError(f"accept row {s} of the table is not absorbing")
    return Pattern(tuple(word), c)


def _finalize(z: int, m64: int) -> int:
    """SplitMix64's output mix on every lane of z (lanes below 2**64, masked on return)."""
    z = ((z ^ (z >> 30)) & m64) * MIX1 & m64
    z = ((z ^ (z >> 27)) & m64) * MIX2 & m64
    return (z ^ (z >> 31)) & m64


def _aligned(buf: bytes, target: bytes, hit: int, end: int, w: int) -> int:
    """First occurrence at a multiple of w at or after byte `hit` and before `end`, or -1."""
    while hit >= 0 and hit % w:
        hit = buf.find(target, hit + 1, end)
    return hit


def run_batch(flat, accept, nsym, trials, seed, first_trial, flip_cap):
    """`play` for the word whose row-major automaton table (state * nsym +
    symbol) is `flat`; raises ValueError if the table is no such automaton.

    The table entry stays for callers that hold a table, such as the
    benchmark's batch-split check and the tests' one-draw reference.
    """
    return play(_word(flat, accept, nsym), trials, seed, first_trial, flip_cap)


def play(p: Pattern, trials, seed, first_trial, flip_cap):
    """Play `trials` games waiting for p; returns (total_flips, total_sq, min_flips, max_flips).

    Trial t of the call draws from substream first_trial + t.  Raises
    ValueError naming the first trial in order that would draw more than
    flip_cap symbols; no trial draws past flip_cap.
    """
    word, fail = p.symbols, failure_links(p)
    s, c = len(p), p.alphabet_size
    e, q = 0, s
    while q:
        e += c**q
        q = fail[q]
    w = max(1, ((c - 1).bit_length() + 7) // 8)
    lane = 16 + w  # bytes per lane
    target = b"".join(x.to_bytes(w, "little") for x in word)
    if c & (c - 1) == 0 and c <= 256:
        low_byte = bytes(b & (c - 1) for b in range(256))
    else:
        low_byte = None
        shift = 64 + (c - 1).bit_length()
        magic = (1 << shift) // c + 1

    def row_for(live: int) -> int:
        """New draws per trial in a round: sqrt(2*E*overhead) balances the
        draws a finished trial wastes (about half a row) against the rounds
        it waits, and the round's overhead is shared by its live trials."""
        return isqrt(2 * min(e, LANES * LANES) * (TRIAL_COST + ROUND_COST // live))

    # a round of `live` <= block trials packs live * (kept + row) <= most lanes
    block = max(1, min(trials, LANES // (s - 1 + row_for(LANES))))
    most = max(s, min(LANES, block * (s - 1 + row_for(1))))
    # lane constants for this call; iota's lane k holds k, built by doubling
    bits = 8 * lane
    ones = int.from_bytes((b"\x01" + bytes(lane - 1)) * most, "little")
    m64 = int.from_bytes((b"\xff" * 8 + bytes(lane - 8)) * most, "little")
    iota, n = 0, 1
    while n < most:
        iota |= (iota + n * (ones & ((1 << bits * n) - 1))) << (bits * n)
        n *= 2
    ramp = iota * GAMMA

    def lanes(base: int, n: int) -> int:
        """n lanes holding (base + k*GAMMA) mod 2**64 for k = 0..n-1."""
        lo = (1 << (bits * n)) - 1
        return ((ramp & lo) + base * (ones & lo)) & m64

    total = 0
    total_sq = 0
    mn = flip_cap + 1
    mx = 0
    for start in range(0, trials, block):
        n = min(block, trials - start)
        z0 = _finalize(lanes((seed + (first_trial + start + 1) * GAMMA) & MASK64, n), m64)
        zb = z0.to_bytes(lane * n, "little")
        z0s = [zb[j:j + lane] for j in range(0, lane * n, lane)]
        ids = range(start, start + n)
        drawn = 0  # draws made by every live trial
        while z0s:
            if drawn >= flip_cap:
                raise ValueError(f"flip cap {flip_cap} exceeded in trial {first_trial + ids[0]}")
            live = len(z0s)
            # redraw the last s-1 symbols so that an occurrence may straddle rounds
            kept = min(s - 1, drawn)
            row = max(1, min(row_for(live), LANES // live - kept, flip_cap - drawn))
            width = kept + row
            offsets = lanes(((drawn - kept + 1) * GAMMA) & MASK64, width).to_bytes(lane * width, "little")
            z = int.from_bytes(b"".join(map(mul, z0s, repeat(width))), "little")
            z = _finalize((z + int.from_bytes(offsets * live, "little")) & m64, m64)
            if low_byte is None:
                z -= ((z * magic >> shift) & m64) * c
            raw = z.to_bytes(lane * width * live, "little")
            if low_byte is not None:
                sym = raw[::lane].translate(low_byte)
            elif w == 1:
                sym = raw[::lane]
            else:
                out = bytearray(w * width * live)
                for j in range(w):
                    out[j::w] = raw[j::lane]
                sym = bytes(out)
            span = w * width
            ends = range(span, span * live + 1, span)
            hits = list(map(sym.find, repeat(target), range(0, span * live, span), ends))
            if w > 1:
                hits = list(map(_aligned, repeat(sym), repeat(target), hits, ends, repeat(w)))
            done = list(map(span.__rmod__, filter(NOT_FOUND.__ne__, hits)))
            if done:
                if w > 1:
                    done = [h // w for h in done]
                # game length = symbol index of the hit + offset
                offset = drawn - kept + s
                h1 = sum(done)
                total += h1 + offset * len(done)
                total_sq += sum(map(mul, done, done)) + 2 * offset * h1 + offset * offset * len(done)
                mn = min(mn, min(done) + offset)
                mx = max(mx, max(done) + offset)
            drawn += row
            alive = list(map(NOT_FOUND.__eq__, hits))
            z0s = list(compress(z0s, alive))
            ids = list(compress(ids, alive))
    return total, total_sq, mn, mx
