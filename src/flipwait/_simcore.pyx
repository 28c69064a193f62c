# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled Monte Carlo kernel.

Same contract and same draw sequence as flipwait._simpy.run_batch: SplitMix64
substream per trial, symbol = output mod alphabet size.  The caller keeps
every game within `simulate.flip_cap(p)` = max(10**7, 64*E) flips and, through
`simulate.compiled_batch`, cuts each batch to at most 2**63 // cap**2 trials,
so that neither the uint64 accumulators nor any square, formed as a signed
64-bit product, can overflow.
"""

from libc.stdint cimport uint64_t
from libc.stdlib cimport free, malloc

cdef uint64_t GAMMA = 0x9E3779B97F4A7C15u
cdef uint64_t MIX1 = 0xBF58476D1CE4E5B9u
cdef uint64_t MIX2 = 0x94D049BB133111EBu


cdef inline uint64_t _mix(uint64_t z) noexcept nogil:
    z = (z ^ (z >> 30)) * MIX1
    z = (z ^ (z >> 27)) * MIX2
    return z ^ (z >> 31)


def run_batch(flat, int accept, int nsym, long long trials,
              unsigned long long seed, unsigned long long first_trial,
              long long flip_cap):
    """Play `trials` games; returns (total_flips, total_sq, min_flips, max_flips)."""
    cdef int n_entries = len(flat)
    cdef int* table = <int*> malloc(n_entries * sizeof(int))
    if table == NULL:
        raise MemoryError()
    cdef int i
    for i in range(n_entries):
        table[i] = flat[i]

    cdef uint64_t total = 0, total_sq = 0
    cdef long long mn = flip_cap + 1, mx = 0
    cdef long long t, flips
    cdef int state
    cdef uint64_t z
    cdef long long bad_trial = -1

    with nogil:
        for t in range(trials):
            z = _mix(seed + (first_trial + <uint64_t> t + 1u) * GAMMA)
            state = 0
            flips = 0
            while state != accept:
                if flips >= flip_cap:
                    bad_trial = t
                    break
                z = z + GAMMA
                state = table[state * nsym + <int> (_mix(z) % <uint64_t> nsym)]
                flips += 1
            if bad_trial >= 0:
                break
            total += <uint64_t> flips
            total_sq += <uint64_t> (flips * flips)
            if flips < mn:
                mn = flips
            if flips > mx:
                mx = flips

    free(table)
    if bad_trial >= 0:
        raise ValueError(f"flip cap {flip_cap} exceeded in trial {first_trial + bad_trial}")
    return total, total_sq, mn, mx
