import pytest

from flipwait.conjectures import (
    PatternRecord,
    power_form_check,
    report_as_dict,
    reversal_check,
    scan,
    write_csv,
    write_json,
)
from flipwait.pattern import parse


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


def test_scan_to_length_14_clean():
    # both properties hold for every non-constant pattern up to length 14
    report = scan(14)
    assert report.scanned == 2**15 - 2
    assert report.violations == []
    checked = sum(1 for r in report.records if r.power_form_ok is not None)
    assert checked == report.scanned - 2 * 14


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
