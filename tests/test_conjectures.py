import csv
import io
import json
from array import array

import pytest

from flipwait.conjectures import (
    MAX_LEN,
    SPOT_CHECK_STRIDE,
    PatternRecord,
    ScanReport,
    _grow,
    _power_form,
    power_form_check,
    report_as_dict,
    reversal_check,
    scan,
    write_csv,
    write_json,
)
from flipwait.exact import expected_wait_conway, expected_wait_markov
from flipwait.pattern import enumerate_patterns, parse, reverse, runs


def _reference_scan(max_len: int) -> ScanReport:
    """The per-pattern scan: two Pattern objects and an autocorrelation sum per word."""
    report = ScanReport(max_len=max_len)
    for s in range(1, max_len + 1):
        patterns = list(enumerate_patterns(s, 2))
        expectations = {p.symbols: expected_wait_conway(p) for p in patterns}
        for idx, p in enumerate(patterns):
            e = expectations[p.symbols]
            rev = reverse(p)
            e_rev = expectations[rev.symbols]
            if len(runs(p)) == 1:
                power_ok, exponents = None, None
            else:
                power_ok, exponents = _power_form(e, s)
            rec = PatternRecord(p.text(), s, e, rev.text(), e_rev, e == e_rev, power_ok, exponents)
            report.records.append(rec)
            if not rec.reversal_ok:
                report.violations.append(f"reversal mismatch for {rec.pattern}")
            if rec.power_form_ok is False:
                report.violations.append(f"power form fails for {rec.pattern}")
            if idx % SPOT_CHECK_STRIDE == 0:
                report.spot_checks += 1
                exact = expected_wait_markov(p)
                if exact.denominator != 1 or exact != rec.expected:
                    report.violations.append(
                        f"spot check mismatch for {rec.pattern}: chain solve {exact}, "
                        f"autocorrelation {rec.expected}"
                    )
    return report


def test_power_form_examples():
    ok, exps = power_form_check(parse("HTH"))
    assert ok and exps == (1,)  # E=10, excess 2
    ok, exps = power_form_check(parse("HHT"))
    assert ok and exps == ()  # E=8, excess 0
    ok, exps = power_form_check(parse("HTHT"))
    assert ok and exps == (2,)  # E=20, excess 4
    ok, exps = power_form_check(parse("HTHHTHH"))
    assert ok and exps == (1, 4)  # E=146, excess 18


def test_power_form_rejects_constant_and_die():
    with pytest.raises(ValueError):
        power_form_check(parse("HHHH"))
    with pytest.raises(ValueError):
        power_form_check(parse("0,1", 3))


def test_reversal_examples():
    assert reversal_check(parse("HHT"))
    assert reversal_check(parse("HTH"))
    assert reversal_check(parse("HHTHT"))


def test_scan_small():
    report = scan(4)
    assert report.scanned == 30
    assert report.violations == []
    checked = [r for r in report.records if r.power_form_ok is not None]
    assert len(checked) == 22  # 30 patterns minus 2 constant runs per length
    assert all(r.reversal_ok for r in report.records)
    assert report.spot_checks == 4  # one per length at the stride


def test_scan_length_one():
    report = scan(1)
    assert report.scanned == 2
    assert all(r.power_form_ok is None for r in report.records)
    assert all(r.reversal_ok for r in report.records)
    assert report.violations == []


def test_scan_records_are_deterministic_and_ordered():
    a = scan(5)
    b = scan(5, threads=4)
    assert a.records == b.records
    assert a.violations == b.violations
    keys = [(r.length, r.pattern) for r in a.records]
    assert keys == sorted(keys)


def test_scan_exponent_histogram():
    report = scan(4)
    hist = report.exponent_histogram()
    assert sum(hist.values()) == 22
    # two-run patterns have zero excess; self-overlapping ones have more
    assert hist.get(0, 0) > 0 and hist.get(1, 0) > 0


def test_scan_records_match_component_checks():
    report = scan(5)
    by_pattern = {r.pattern: r for r in report.records}
    rec = by_pattern["HTHTH"]
    assert rec.expected == 42
    ok, exps = power_form_check(parse("HTHTH"))
    assert rec.power_form_ok == ok and rec.excess_exponents == exps
    assert rec.reversal == "HTHTH"


def test_scan_validation():
    with pytest.raises(ValueError):
        scan(0)


def test_scan_length_limit_is_checked_before_any_column(monkeypatch):
    import flipwait.conjectures as conjectures_mod

    class FirstColumn(Exception):
        pass

    def first_column(*args):
        raise FirstColumn

    monkeypatch.setattr(conjectures_mod, "array", first_column)
    with pytest.raises(FirstColumn):
        scan(MAX_LEN)
    with pytest.raises(ValueError, match=f"exceeds the scan limit MAX_LEN = {MAX_LEN}"):
        scan(MAX_LEN + 1)


def test_report_equality_compares_columns_and_builds_no_record(monkeypatch):
    import flipwait.conjectures as conjectures_mod

    with monkeypatch.context() as m:
        m.setattr(conjectures_mod, "PatternRecord", None)  # building a record would raise
        a, b = scan(8), scan(8)
        assert a == b and a.scanned == 2**9 - 2
        es, rev = b.columns[4]
        es[3] += 2
        assert a != b
        es[3] -= 2
    assert len(a.records) == a.scanned and a == b  # built records take no part in equality
    a.records.pop()
    assert a.scanned == len(a.records) == 2**9 - 3


def test_scan_to_length_14_clean():
    # both properties hold for every non-constant pattern up to length 14
    report = scan(14)
    assert report.scanned == 2**15 - 2
    assert report.violations == []
    checked = sum(1 for r in report.records if r.power_form_ok is not None)
    assert checked == report.scanned - 2 * 14
    # the border recurrence gives the autocorrelation sum of every word
    assert all(rec.expected == expected_wait_conway(parse(rec.pattern)) for rec in report.records)


def _faulty_power_form(expected, s, real=_power_form):
    ok, exponents = real(expected, s)
    return ok and exponents not in {(1,), (1, 3)}, exponents


def _faulty_chain_solve(p, real=expected_wait_markov):
    exact = real(p)
    if p.text().count("T") % 2:
        return exact + 1
    return exact / 3 if len(p) in (2, 5) else exact


@pytest.mark.parametrize("faults", ["power form", "chain solve", "both"])
def test_scan_violations_under_injected_faults_match_reference(monkeypatch, faults):
    # every real scan is clean, so faults are the only way to exercise the
    # violation path; the scan and the reference must see the same ones
    import flipwait.conjectures as conjectures_mod

    if faults != "chain solve":
        faulty = _faulty_power_form
        monkeypatch.setattr(conjectures_mod, "_power_form", faulty)
        monkeypatch.setitem(globals(), "_power_form", faulty)
    if faults != "power form":
        faulty = _faulty_chain_solve
        monkeypatch.setattr(conjectures_mod, "expected_wait_markov", faulty)
        monkeypatch.setitem(globals(), "expected_wait_markov", faulty)
    for m in range(1, 9):
        got, want = scan(m), _reference_scan(m)
        assert got.violations == want.violations
        assert got.records == want.records
    kinds = {v.split(" for ")[0] for v in got.violations}
    assert kinds == {"power form": {"power form fails"},
                     "chain solve": {"spot check mismatch"},
                     "both": {"power form fails", "spot check mismatch"}}[faults]
    if faults == "both":
        # one word with two violations: power form first, then spot check
        i = got.violations.index("power form fails for HTTHHTHH")
        assert got.violations[i + 1].startswith("spot check mismatch for HTTHHTHH:")


def _reversal_fault(length, index, target, real=_grow):
    """`_grow` with the reversal index of word `index` of length `length` set to `target`."""
    def grow(es, rev, s):
        es, rev = real(es, rev, s)
        if s == length:
            rev[index] = target
        return es, rev
    return grow


def test_scan_reports_an_injected_reversal_fault(monkeypatch):
    # word 37 of length 8 is no spot check, so only the reversal comparison can flag it
    import flipwait.conjectures as conjectures_mod

    assert 37 % SPOT_CHECK_STRIDE
    monkeypatch.setattr(conjectures_mod, "_grow", _reversal_fault(8, 37, 0))
    report = scan(8)
    assert report.violations == ["reversal mismatch for HHTHHTHT"]
    rec = report.records[2**8 - 2 + 37]
    assert (rec.pattern, rec.reversal, rec.reversal_ok) == ("HHTHHTHT", "HHHHHHHH", False)


def test_reversal_fault_comes_first_among_a_words_violations(monkeypatch):
    import flipwait.conjectures as conjectures_mod

    monkeypatch.setattr(conjectures_mod, "_power_form", _faulty_power_form)
    monkeypatch.setattr(conjectures_mod, "expected_wait_markov", _faulty_chain_solve)
    want = scan(8).violations
    i = want.index("power form fails for HTTHHTHH")
    assert want[i + 1].startswith("spot check mismatch for HTTHHTHH:")
    monkeypatch.setattr(conjectures_mod, "_grow", _reversal_fault(8, 0b01100100, 0))
    assert scan(8).violations == [*want[:i], "reversal mismatch for HTTHHTHH", *want[i:]]


def test_a_lane_holds_e_at_the_length_limit():
    # the constant words have the largest E of their length, 2**(s + 1) - 2
    words = ["H" * MAX_LEN, "H" * (MAX_LEN - 1) + "T", "T" * (MAX_LEN - 1) + "H", "T" * MAX_LEN]
    top = 2 ** (MAX_LEN - 1)
    es, rev = _grow(array("I", [2 * top - 2] * 2), array("I", [0, top - 1]), MAX_LEN)
    assert es.itemsize == 4 and max(es) == 2 ** (MAX_LEN + 1) - 2 < 2**32
    assert es.tolist() == [expected_wait_conway(parse(w)) for w in words]
    assert rev.tolist() == [0, top, top - 1, 2 * top - 1]


def test_csv_streams_the_record_rows_from_the_columns(tmp_path):
    report = scan(14)
    path = tmp_path / "scan.csv"
    write_csv(report, str(path))
    assert report._records is None  # nothing built or cached
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(PatternRecord._fields)
    for r in report.records:
        writer.writerow([*r[:6], "" if r.power_form_ok is None else r.power_form_ok,
                         "" if r.excess_exponents is None else " ".join(map(str, r.excess_exponents))])
    assert path.read_bytes() == want.getvalue().encode()


@pytest.mark.parametrize("max_len", [10, 0])
def test_json_streams_the_records_from_the_columns(tmp_path, max_len):
    report = scan(max_len) if max_len else ScanReport(max_len=0)  # 0: a report with no records
    path = tmp_path / "scan.json"
    write_json(report, str(path))
    assert report._records is None  # nothing built or cached
    assert path.read_text() == json.dumps(report_as_dict(report), indent=2) + "\n"


def test_records_are_immutable_pattern_records(tmp_path):
    report = scan(6)
    assert all(type(rec) is PatternRecord for rec in report.records)
    rec = report.records[40]
    with pytest.raises(AttributeError):
        rec.expected = 0
    assert hash(rec) == hash(PatternRecord(*rec))
    fields = list(PatternRecord._fields)
    assert all(list(r) == fields for r in report_as_dict(report)["records"])
    csv_path = tmp_path / "report.csv"
    write_csv(report, str(csv_path))
    assert csv_path.read_text().splitlines()[0].split(",") == fields


@pytest.mark.parametrize("max_len", range(1, 13))
def test_scan_matches_reference_scan(max_len):
    got, want = scan(max_len), _reference_scan(max_len)
    assert got.records == want.records
    assert got.violations == want.violations
    assert got.spot_checks == want.spot_checks


def test_report_serialization(tmp_path):
    report = scan(3)
    payload = report_as_dict(report)
    assert payload["schema"] == 1
    assert payload["scanned"] == 14
    assert all(isinstance(r["expected"], str) for r in payload["records"])

    json_path = tmp_path / "report.json"
    write_json(report, str(json_path))
    import json

    loaded = json.loads(json_path.read_text())
    assert loaded == payload

    csv_path = tmp_path / "report.csv"
    write_csv(report, str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 15
    assert lines[0].startswith("pattern,")


def test_record_shape():
    report = scan(2)
    rec = report.records[1]
    assert isinstance(rec, PatternRecord)
    assert rec.pattern == "T"
    assert rec.expected == 2 and report.records[3].pattern == "HT"
    assert report.records[3].reversal == "TH" and report.records[3].expected == 4


def test_scan_rejects_nonpositive_threads():
    with pytest.raises(ValueError, match="threads"):
        scan(3, threads=0)
