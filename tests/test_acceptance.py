"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `python -m pytest tests/test_acceptance.py -v -s` to see the lines.
Criterion 8 keeps its truncation N=400 and tolerance 1e-9.  Since 400
terms cannot reach 1e-9 in cells whose waiting time is in the thousands, it
checks each identity to 1e-9 through the exact sum of its series, taken from
the family's rational generating function, and checks the N=400 partial sums
against their certified tail bound.
"""

import time
from fractions import Fraction
from itertools import product

import pytest

from flipwait import exact, simulate
from flipwait.closed_form import (
    dispatch,
    wait_alternating,
    wait_die_run,
    wait_four_runs,
    wait_single_run,
    wait_three_runs,
    wait_two_runs,
)
from flipwait.conjectures import scan
from flipwait.counting import (
    conditional_count_vector,
    count_brute,
    count_first_occurrence,
    verify_count_families,
)
from flipwait.identities import corollary_family, verify_corollary
from flipwait.pattern import Pattern, enumerate_patterns, parse, runs
from flipwait.sequences import fib_bar_variants, fib_bar, value

H, T = 0, 1
EPS = Fraction(1, 10**9)


def _report(num: int, ok: bool, desc: str, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num:>2}: {status} - {desc}{suffix}")


def _run_pattern(lengths) -> Pattern:
    symbols = []
    for i, run_len in enumerate(lengths):
        symbols.extend([i % 2] * run_len)
    return Pattern(tuple(symbols), 2)


def test_criterion_01_headline_values():
    start = time.perf_counter()
    expected = {
        "H": 2, "HH": 6, "HT": 4, "HHH": 14,
        "HHT": 8, "TTH": 8, "HTT": 8, "THH": 8,
        "HTH": 10, "THT": 10,
    }
    ok = True
    for text, want in expected.items():
        p = parse(text)
        markov = exact.expected_wait_markov(p)
        conway = exact.expected_wait_conway(p)
        closed = dispatch(p)
        if not (markov == conway == closed == want):
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, ok, "headline values by all three methods", f"{elapsed:.2f}s")
    assert ok


def test_criterion_02_closed_forms_vs_chain_solve():
    start = time.perf_counter()
    bad = []
    for k in range(1, 6):
        if wait_single_run(k) != exact.expected_wait_markov(_run_pattern((k,))):
            bad.append(("single", k))
    for kl in product(range(1, 6), repeat=2):
        if wait_two_runs(*kl) != exact.expected_wait_markov(_run_pattern(kl)):
            bad.append(("two", kl))
    for klm in product(range(1, 6), repeat=3):
        if wait_three_runs(*klm) != exact.expected_wait_markov(_run_pattern(klm)):
            bad.append(("three", klm))
    for klmd in product(range(1, 6), repeat=4):
        if wait_four_runs(*klmd) != exact.expected_wait_markov(_run_pattern(klmd)):
            bad.append(("four", klmd))
    for s in range(1, 17):
        p = Pattern(tuple(i % 2 for i in range(s)), 2)
        if wait_alternating(s) != exact.expected_wait_markov(p):
            bad.append(("alternating", s))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 120
    _report(2, ok, "closed forms equal the chain solve over the run grids", f"796 cases, {elapsed:.1f}s")
    assert ok, bad


def test_criterion_03_die_formula():
    bad = []
    for c in range(2, 9):
        for k in range(1, 6):
            p = Pattern((0,) * k, c)
            if wait_die_run(c, k) != exact.expected_wait_markov(p):
                bad.append((c, k))
    _report(3, not bad, "die-run formula equals the c-ary chain solve for c in 2..8, k in 1..5")
    assert not bad, bad


def test_criterion_04_method_equivalence_length_12():
    start = time.perf_counter()
    count = 0
    bad = []
    for s in range(1, 13):
        for p in enumerate_patterns(s, 2):
            count += 1
            if exact.expected_wait_markov(p) != exact.expected_wait_conway(p):
                bad.append(p.text())
    elapsed = time.perf_counter() - start
    ok = not bad and count == 2**13 - 2 and elapsed < 120
    _report(4, ok, "chain solve equals autocorrelation sum for all patterns up to length 12",
            f"{count} patterns, {elapsed:.1f}s")
    assert ok, bad[:5]


def test_criterion_05_counting_oracle():
    start = time.perf_counter()
    bad = []
    for s in range(1, 7):
        for p in enumerate_patterns(s, 2):
            vec = count_first_occurrence(p, 12)
            for n in range(13):
                if vec[n] != count_brute(p, n):
                    bad.append((p.text(), n))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60
    _report(5, ok, "counting DP equals brute-force enumeration (length <= 6, n <= 12)",
            f"{elapsed:.1f}s")
    assert ok, bad[:5]


def test_criterion_06_count_sequence_correspondences():
    report = verify_count_families(4, 60)
    _report(6, report.ok, "DP counts equal the sequence-family values (params <= 4, n <= 60)",
            f"{report.checks} checks")
    assert report.ok, report.mismatches[:5]


def test_criterion_07_conditioning_identities():
    bad = []

    # prefix decomposition: E(S) = E(R) + E(S|R) - r for every prefix
    for s in range(1, 9):
        for p in enumerate_patterns(s, 2):
            e = exact.expected_wait_markov(p)
            for r in range(0, s + 1):
                prefix = p.symbols[:r]
                lhs = e
                rhs = (exact.expected_wait_markov(Pattern(prefix, 2)) if r else Fraction(0)) \
                    + exact.conditional_wait(p, prefix) - r
                if lhs != rhs:
                    bad.append(("prefix", p.text(), r))

    # head-run conditioning: exact offsets of E(S|H^i) and E(S|H^i T)
    for s in range(1, 9):
        for p in enumerate_patterns(s, 2):
            if p.symbols[0] != H:
                continue
            decomposition = runs(p)
            k = decomposition[0][1]
            e = exact.expected_wait_markov(p)
            for i in range(0, k + 3):
                want_heads = e + i + 2 - (2 ** (i + 1) if i < k else 2 ** (k + 1))
                if exact.conditional_wait(p, (H,) * i) != want_heads:
                    bad.append(("heads", p.text(), i))
                if i < k:
                    if exact.conditional_wait(p, (H,) * i + (T,)) != e + i + 1:
                        bad.append(("tail<", p.text(), i))
                elif len(decomposition) >= 2:
                    # for a single-run pattern the game is already over inside H^i T
                    if exact.conditional_wait(p, (H,) * i + (T,)) != e + i + 1 - 2 ** (k + 1):
                        bad.append(("tail>=", p.text(), i))

    # counting identities on conditional counts, n <= 40
    N = 40
    for s in range(1, 9):
        for p in enumerate_patterns(s, 2):
            if p.symbols[0] != H:
                continue
            decomposition = runs(p)
            k = decomposition[0][1]
            vec = count_first_occurrence(p, N)
            e = lambda n: vec[n] if 0 <= n <= N else 0
            for i in range(1, k + 1):
                got = conditional_count_vector(p, (H,) * i, N)
                for n in range(N + 1):
                    if got[n] != e(n) - sum(e(n - j) for j in range(1, i + 1)):
                        bad.append(("count-i", p.text(), i, n))
                        break
            if len(decomposition) >= 2:
                got = conditional_count_vector(p, (H,) * k + (T,), N)
                for n in range(N + 1):
                    if got[n] != e(n) - 2 * e(n - 1) + e(n - k - 1):
                        bad.append(("count-ii", p.text(), n))
                        break
            if len(decomposition) >= 3:
                l = decomposition[1][1]
                got = conditional_count_vector(p, (H,) * k + (T,) * l + (H,), N)
                for n in range(N + 1):
                    if got[n] != e(n) - 2 * e(n - 1) + e(n - k - l) - e(n - k - l - 1):
                        bad.append(("count-iii", p.text(), n))
                        break

    _report(7, not bad, "conditional expectation and conditional count identities (length <= 8)")
    assert not bad, bad[:5]


def _poly_at(coeffs: list[int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coeff in reversed(coeffs):
        acc = acc * x + coeff
    return acc


def _series_sum_at_half(num: list[int], den: list[int]) -> tuple[Fraction, Fraction]:
    """(Q(1/2), x*A'(x) at x = 1/2) for A = P/Q, i.e. the full sum of n*a_n/2**n."""
    x = Fraction(1, 2)
    d_num = [i * coeff for i, coeff in enumerate(num)][1:]
    d_den = [i * coeff for i, coeff in enumerate(den)][1:]
    q = _poly_at(den, x)
    if q == 0:
        return q, Fraction(0)
    return q, x * (_poly_at(d_num, x) * q - _poly_at(num, x) * _poly_at(d_den, x)) / q**2


def test_criterion_08_corollary_sums_at_pinned_truncation():
    # The pinned N=400 cannot bring every partial sum within 1e-9: the tail
    # beyond N is at least (N+1)*P(T > N), and P(T > N) is near 1 in cells
    # whose waiting time (up to 5460) far exceeds N.  So the identities are checked
    # to 1e-9 through their exact series sum, and the N=400 partial sums
    # through their certified tail bound.
    from flipwait.sequences import gf_coefficients, gf_polynomials, series_shift

    N = 400
    cells = (
        [("id1", (k,)) for k in range(1, 9)]
        + [("id2", (k, m)) for k in range(1, 6) for m in range(1, 6)]
        + [("id3", (k, m)) for k in range(1, 6) for m in range(1, 6)]
        + [("alt", (s,)) for s in range(1, 13)]
    )
    uncertified = []
    unbracketed = []
    wrong_sum = []
    wrong_coeffs = []
    over_tolerance = []
    within = 0
    for which, params in cells:
        cell = (which, params)
        check = verify_corollary(which, params, N)
        if not check.certified:
            uncertified.append((cell, float(check.gap), float(check.bound)))
        # every coefficient is non-negative, so the partial sum undershoots
        # the target by at most the tail bound
        if not check.partial <= check.target <= check.partial + check.bound:
            unbracketed.append((cell, float(check.target - check.partial), float(check.bound)))

        family, target = corollary_family(which, params)
        q, total = _series_sum_at_half(*gf_polynomials(family))
        if q == 0 or abs(total - target) >= EPS:
            wrong_sum.append((cell, f"Q(1/2)={q}", f"S={total}", f"target={target}"))

        # the series summed above has the coefficients verify_corollary adds up
        shift = series_shift(family)
        value(family, N - shift)  # fill the memo in one pass before reading it termwise
        coeffs = gf_coefficients(family, N)
        bad_n = next((n for n in range(N + 1) if coeffs[n] != value(family, n - shift)), None)
        if bad_n is not None:
            wrong_coeffs.append((cell, bad_n))

        if check.gap < EPS:
            within += 1
        elif check.bound < EPS:
            over_tolerance.append((cell, float(check.gap), float(check.bound)))

    ok = not (uncertified or unbracketed or wrong_sum or wrong_coeffs or over_tolerance)
    detail = (
        f"{len(cells)} cells: certificate and bracket at N={N}, exact series sum within 1e-9 of target; "
        f"{within} cells within 1e-9 at N={N}"
    )
    _report(8, ok, "corollary sums within 1e-9 (exact series) and tail bound at N=400", detail)
    assert not uncertified, f"gap exceeds tail bound at N={N} (cell, gap, bound): {uncertified}"
    assert not unbracketed, (
        f"target outside [partial, partial + bound] at N={N} (cell, target - partial, bound): {unbracketed}"
    )
    assert not wrong_sum, f"exact series sum misses the target by 1e-9 or more: {wrong_sum}"
    assert not wrong_coeffs, f"generating-function coefficient differs from value() at (cell, n): {wrong_coeffs}"
    assert not over_tolerance, (
        f"gap at N={N} not below 1e-9 although the tail bound is (cell, gap, bound): {over_tolerance}"
    )


def test_criterion_09_sequence_engine():
    from flipwait.sequences import (
        alt_g,
        fib_order,
        fib_tilde,
        fib_two_param,
        gf_coefficients,
        series_shift,
    )

    bad = []
    fib = {0: 0, 1: 1}
    for i in range(2, 230):
        fib[i] = fib[i - 1] + fib[i - 2]

    for k in range(1, 9):
        for n in range(0, 201):
            expected = value(fib_bar(k), n)
            if fib_bar_variants(k, n) != (expected, expected):
                bad.append(("fib-bar defs", k, n))

    for m in range(0, 6):
        for n in range(0, 201):
            if value(fib_two_param(0, m), n) != value(fib_order(m + 1), n + 1):
                bad.append(("fib2 k=0", m, n))
    for k in range(1, 7):
        for n in range(0, 201):
            if value(fib_two_param(k, 0), n) != value(fib_bar(k), n):
                bad.append(("fib2 m=0", k, n))
    for n in range(0, 201):
        if value(fib_tilde(0, 0), n) != fib[n + 2]:
            bad.append(("tilde 0,0", n))
    for k in range(0, 6):
        for n in range(0, 201):
            if value(fib_tilde(k, 0), n) != value(fib_two_param(k, 1), n + 1):
                bad.append(("tilde m=0", k, n))
    # alternating-count reductions: lengths 2, 3, 4 map onto the other families
    for n in range(0, 201):
        if value(alt_g(2), n) != value(fib_bar(1), n - 2):
            bad.append(("alt2", n))
        if value(alt_g(3), n) != value(fib_two_param(1, 1), n - 2):
            bad.append(("alt3", n))
        if value(alt_g(4), n) != value(fib_tilde(1, 1), n - 3):
            bad.append(("alt4", n))

    families = (
        [fib_order(k) for k in range(1, 9)]
        + [fib_bar(k) for k in range(1, 9)]
        + [fib_two_param(k, m) for k in range(0, 6) for m in range(0, 6)]
        + [fib_tilde(k, m) for k in range(0, 6) for m in range(0, 6)]
        + [alt_g(s) for s in range(1, 13)]
    )
    for f in families:
        shift = series_shift(f)
        coeffs = gf_coefficients(f, 200)
        for n in range(201):
            if coeffs[n] != value(f, n - shift):
                bad.append(("gf", f.label(), n))
                break

    _report(9, not bad, "sequence engine: equivalent definitions, reductions, generating functions")
    assert not bad, bad[:5]


def test_criterion_10_conjecture_scan_length_12():
    start = time.perf_counter()
    report = scan(12, threads=4)
    elapsed = time.perf_counter() - start
    again = scan(12, threads=1)
    deterministic = report.records == again.records
    ok = (
        not report.violations
        and report.scanned == 2**13 - 2
        and deterministic
        and report.spot_checks >= report.scanned // 100
        and elapsed < 120
    )
    _report(10, ok, "scan to length 12: zero violations, deterministic, spot checks pass",
            f"{report.scanned} patterns, {report.spot_checks} spot checks, {elapsed:.1f}s")
    assert ok, report.violations[:5]


def test_criterion_11_simulation_pinned_seed():
    million = 10**6
    hh = simulate.simulate_wait(parse("HH"), million, 42)
    ht = simulate.simulate_wait(parse("HT"), million, 42)
    hh_again = simulate.simulate_wait(parse("HH"), million, 42)
    identical = hh == hh_again
    ok = 5.95 <= hh.mean <= 6.05 and 3.97 <= ht.mean <= 4.03 and identical
    _report(11, ok, "one-million-trial simulation hits the pinned windows, bit-identical reports",
            f"HH mean {hh.mean:.4f}, HT mean {ht.mean:.4f}")
    assert ok
