import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flipwait import automaton, cli, counting, jsontext, recurrence, sequences
from flipwait.cli import main
from flipwait.pattern import PatternError, parse
from test_cli_docs import _examples as _readme_examples


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_expect_all_agrees(capsys):
    code, payload, _ = run_json(capsys, "expect", "HH", "--method", "all", "--json")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["results"] == {"markov": "6", "conway": "6", "closed": "6"}
    assert payload["agree"] is True


def test_expect_single_method(capsys):
    code, payload, _ = run_json(capsys, "expect", "HTHT", "--method", "conway", "--json")
    assert code == 0
    assert payload["results"] == {"conway": "20"}


def test_expect_no_closed_form(capsys):
    code, payload, _ = run_json(capsys, "expect", "HTHHTHH", "--method", "closed", "--json")
    assert code == 0
    assert payload["results"] == {"closed": None}
    code, out, _ = run_cli(capsys, "expect", "HTHHTHH", "--method", "closed")
    assert code == 0
    assert "no closed form" in out


def test_expect_die(capsys):
    code, payload, _ = run_json(capsys, "expect", "0,0", "--alphabet", "6", "--json")
    assert code == 0
    assert payload["results"]["markov"] == "42"
    assert payload["agree"] is True


def test_count(capsys):
    code, payload, _ = run_json(capsys, "count", "HH", "--upto", "8", "--json")
    assert code == 0
    assert payload["counts"] == ["0", "0", "1", "1", "2", "3", "5", "8", "13"]


def test_seq(capsys):
    code, payload, _ = run_json(capsys, "seq", "fib:2", "--upto", "7", "--json")
    assert code == 0
    assert payload["values"] == ["0", "1", "1", "2", "3", "5", "8", "13"]


def _rendered(json_mode: bool, payload: dict, key: str, title: str, vals: list[int]):
    """(exit code, stdout, stderr) of printing `vals` through str(int), as `count` and `seq` did."""
    if json_mode:
        try:
            payload[key] = [str(v) for v in vals]
        except ValueError as exc:
            return 1, "", f"flipwait: error: {exc}\n"
        return 0, json.dumps(payload, indent=2) + "\n", ""
    lines = [title]
    for n, v in enumerate(vals):
        try:
            lines.append(f"{n:>4}  {v}")
        except ValueError as exc:
            return 1, "".join(line + "\n" for line in lines), f"flipwait: error: {exc}\n"
    return 0, "".join(line + "\n" for line in lines), ""


COUNT_SWEEP = [("HH", 2), ("HTTH", 2), ("HHTHHTTTHH", 2), ("0,1,0", 3), ("0,1,0", 6), ("2,1", 100)]
SEQ_SWEEP = ["fib:3", "fib-bar:2", "fib2:0,0", "fib2:2,3", "fib-tilde:1,2", "alt:5"]


@pytest.mark.parametrize("json_mode", [False, True])
def test_count_and_seq_print_str_of_every_value(capsys, json_mode):
    # default digit limit; the last case passes 4300 digits near n = 2150 and
    # fails after printing the rows before it (text) or nothing (JSON)
    flag = ("--json",) if json_mode else ()
    cases = [(word, c, N) for word, c in COUNT_SWEEP for N in (0, 1, 2, 3, 50, 1500)]
    for word, c, N in cases + [("0,1,0", 100, 2200)]:
        p = parse(word, c)
        vals = counting.count_first_occurrence(p, N).counts
        payload = {"schema": 1, "command": "count", "pattern": p.text(), "alphabet": c, "upto": N}
        want = _rendered(json_mode, payload, "counts", f"first-occurrence counts for {p.text()}", vals)
        assert run_cli(capsys, "count", word, "--alphabet", str(c), "--upto", str(N), *flag) == want
    assert want[0] == 1 and want[1].count("\n") == (0 if json_mode else 2155)
    for label in SEQ_SWEEP:
        f = sequences.parse_family(label)
        for N in (0, 7, 3000):
            vals = [sequences.value(f, n) for n in range(N + 1)]
            payload = {"schema": 1, "command": "seq", "family": label, "upto": N}
            want = _rendered(json_mode, payload, "values", f"{label} for n = 0..{N}", vals)
            assert run_cli(capsys, "seq", label, "--upto", str(N), *flag) == want


@pytest.mark.parametrize("label, message", [
    ("fib2:1", "fib2 needs 2 parameters (k,m), got 1"),
    ("alt:", "alt needs 1 parameter (s), got 0"),
    ("fib:1,2", "fib needs 1 parameter (k), got 2"),
    ("fib:-1", "fib needs k >= 1, got -1"),
    ("fib-bar:0", "fib-bar needs k >= 1, got 0"),
    ("fib2:-1,0", "fib2 needs k, m >= 0, got (-1, 0)"),
    ("fib-tilde:0,-1", "fib-tilde needs k, m >= 0, got (0, -1)"),
])
def test_seq_family_with_wrong_parameter_count(capsys, label, message):
    assert run_cli(capsys, "seq", label, "--upto", "3") == (1, "", f"flipwait: error: {message}\n")


@pytest.mark.parametrize("flag", [(), ("--json",)])
def test_seq_and_count_reject_negative_upto(capsys, flag):
    assert run_cli(capsys, "seq", "fib:2", "--upto", "-3", *flag) == (
        1, "", "flipwait: error: N must be nonnegative, got -3\n")
    assert run_cli(capsys, "count", "HH", "--upto", "-1", *flag) == (
        1, "", "flipwait: error: N must be nonnegative, got -1\n")


def test_sum_id2(capsys):
    code, payload, _ = run_json(capsys, "sum", "id2", "--k", "2", "--m", "1", "--N", "400", "--json")
    assert code == 0
    assert payload["target"] == "18"
    assert payload["certified"] is True


def test_sum_requires_params(capsys):
    code, _, err = run_cli(capsys, "sum", "id2", "--k", "2")
    assert code == 1
    assert "requires" in err
    code, out, _ = _outcome(capsys, ["sum", "--help"])
    assert code == ("SystemExit", 0) and "\n  {id1,id1bar,id2,id3,alt}\n" in out


@pytest.mark.parametrize("params, message", [
    (("id1", "--k", "0"), "id1 needs k >= 1, got 0"),
    (("id1bar", "--k", "0"), "id1bar needs k >= 1, got 0"),
    (("id2", "--k", "0", "--m", "0"), "id2 needs k, m >= 1, got (0, 0)"),
    (("id3", "--k", "0", "--m", "0"), "id3 needs k, m >= 1, got (0, 0)"),
    (("alt", "--s", "0"), "alt needs s >= 1, got 0"),
    (("id1bar",), "id1bar requires --k"),
    (("id2", "--k", "2"), "id2 requires --k and --m"),
    (("id3", "--m", "1"), "id3 requires --k and --m"),
    (("alt",), "alt requires --s"),
])
def test_sum_errors_name_the_corollary(capsys, params, message):
    assert run_cli(capsys, "sum", *params) == (1, "", f"flipwait: error: {message}\n")
    assert run_cli(capsys, "sum", *params, "--N", "50") == (1, "", f"flipwait: error: {message}\n")


def test_sum_alt(capsys):
    code, payload, _ = run_json(capsys, "sum", "alt", "--s", "3", "--N", "300", "--json")
    assert code == 0
    assert payload["target"] == "10"


@pytest.mark.parametrize("params", [("id1", "--k", "1"), ("alt", "--s", "1")])
def test_sum_label_matches_the_certificate(capsys, params):
    # single-face families: at N = 5 the gap equals the tail bound, 7/32, and
    # `certified` is gap <= bound, so the text must not claim a strict inequality
    code, payload, _ = run_json(capsys, "sum", *params, "--N", "5", "--json")
    assert code == 0
    assert payload["gap"] == payload["tail_bound"] == "7/32"
    assert payload["certified"] is True
    code, out, _ = run_cli(capsys, "sum", *params, "--N", "5")
    assert code == 0
    assert "  gap        ~ 0.21875\n  tail bound ~ 0.21875\n  gap <= bound: yes\n" in out
    assert "gap < bound" not in out


def test_simulate_deterministic(capsys):
    args = ("simulate", "--pattern", "HH", "--trials", "20000", "--seed", "42", "--json")
    code, first, _ = run_json(capsys, *args)
    assert code == 0
    code, second, _ = run_json(capsys, *args)
    assert first == second
    assert first["min"] == 2
    assert isinstance(first["mean"], float)
    assert first["total_flips"] == str(round(first["mean"] * 20000))


def test_simulate_text_report(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--pattern", "HT", "--trials", "3", "--seed", "1")
    assert code == 0
    assert out == (
        "simulated 3 games for HT (seed 1, python kernel)\n"
        "  mean      = 3.333333\n"
        "  std error = 0.666667\n"
        "  min/max   = 2/4\n"
    )


def test_scan_writes_reports(capsys, tmp_path):
    out_json = tmp_path / "scan.json"
    out_csv = tmp_path / "scan.csv"
    code, payload, _ = run_json(
        capsys, "scan", "--max-len", "3", "--out", str(out_json), "--csv", str(out_csv), "--json"
    )
    assert code == 0
    assert payload["scanned"] == 14
    assert payload["violations"] == []
    full = json.loads(out_json.read_text())
    assert len(full["records"]) == 14
    assert out_csv.read_text().count("\n") == 15


def test_scan_has_no_threads_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--max-len", "2", "--threads", "2"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_inspect(capsys):
    code, payload, _ = run_json(capsys, "inspect", "HTH", "--json")
    assert code == 0
    assert payload["correlation_set"] == [1, 3]
    assert payload["expected_wait"] == "10"
    assert payload["transitions"] == [[1, 0], [1, 2], [3, 0], [3, 3]]


def test_inspect_die(capsys):
    code, payload, _ = run_json(capsys, "inspect", "0,2,2", "--alphabet", "3", "--json")
    assert code == 0
    assert payload["complement"] is None
    assert payload["correlation_set"] == [3]
    assert payload["expected_wait"] == "27"


def test_usage_error_exit_code_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expect"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 1


def test_bad_pattern_exit_code_1(capsys):
    code, _, err = run_cli(capsys, "expect", "HTX")
    assert code == 1
    assert "error" in err


def test_human_output_shows_approximations(capsys):
    code, out, _ = run_cli(capsys, "sum", "id1", "--k", "2", "--N", "64")
    assert code == 0
    assert "partial" in out and "target" in out and "~" in out


# sha256 of stdout of `scan --max-len 10 --json --csv F` followed by the bytes of F
SCAN_10_JSON_CSV_SHA256 = "936881ddb208fa8b88eacc59ca091323e2f35a1b30e74e83d0e2b32bcf2ab2d2"


def test_scan_output_bytes_pinned(capsys, tmp_path):
    csv_path = tmp_path / "scan.csv"
    code, out, err = run_cli(capsys, "scan", "--max-len", "10", "--json", "--csv", str(csv_path))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode() + csv_path.read_bytes()).hexdigest() == SCAN_10_JSON_CSV_SHA256


# sha256 of the files `scan --max-len 12 --out F.json --csv F.csv` writes, computed
# when every record was built inside the scan
SCAN_12_OUT_SHA256 = "8fd2d4ae42c3c3e197a2a923f630bed475813cc83b5b707af1b6355c51f491c8"
SCAN_12_CSV_SHA256 = "cee28a3fdbc9bcbf9d774c09fd45c5d866b4e1cbba9c73b00e892f6db84a13c2"


def test_scan_report_files_pinned(capsys, tmp_path):
    out_path, csv_path = tmp_path / "scan.json", tmp_path / "scan.csv"
    code, _, err = run_cli(capsys, "scan", "--max-len", "12", "--out", str(out_path), "--csv", str(csv_path))
    assert code == 0 and err == ""
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SCAN_12_OUT_SHA256
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == SCAN_12_CSV_SHA256


SCAN_10_TEXT = (
    "scanned 2046 patterns up to length 10\n"
    "  note: power form holds iff E - 2**len is a sum of distinct powers 2**e with 1 <= e <= len-1; "
    "constant patterns are excluded\n"
    "  spot checks against chain solve: 28\n"
    "  excess exponent-set sizes: {0: 590, 1: 1030, 2: 324, 3: 70, 4: 12}\n"
    "  violations: none\n"
)


def test_scan_summary_builds_no_record(capsys, monkeypatch):
    from flipwait import conjectures

    def no_record(*args):
        raise AssertionError("the scan summary built a PatternRecord")

    monkeypatch.setattr(conjectures, "PatternRecord", no_record)
    code, payload, err = run_json(capsys, "scan", "--max-len", "10", "--json")
    assert code == 0 and err == ""
    assert (payload["scanned"], payload["spot_checks"], payload["violations"]) == (2046, 28, [])
    assert payload["exponent_set_sizes"] == {"0": 590, "1": 1030, "2": 324, "3": 70, "4": 12}
    assert run_cli(capsys, "scan", "--max-len", "10") == (0, SCAN_10_TEXT, "")


def test_scan_past_the_length_limit_fails_at_once(capsys):
    from flipwait.conjectures import MAX_LEN

    code, out, err = run_cli(capsys, "scan", "--max-len", str(MAX_LEN + 1))
    assert (code, out) == (1, "")
    assert f"exceeds the scan limit MAX_LEN = {MAX_LEN}" in err


def test_expect_all_disagreement_exits_2(capsys, monkeypatch):
    import flipwait.cli as cli_mod

    monkeypatch.setattr(cli_mod.exact, "expected_wait_conway", lambda p: 999)
    code, payload, err = run_json(capsys, "expect", "HH", "--method", "all", "--json")
    assert code == 2
    assert payload["agree"] is False
    assert "disagreement" in err


@pytest.mark.parametrize("module, name, argv", [
    ("counting", "count_first_occurrence", ["count", "HT", "--upto", "5"]),
    ("identities", "verify_corollary", ["sum", "id1", "--k", "2", "--N", "20"]),
    ("conjectures", "scan", ["scan", "--max-len", "3"]),
    ("simulate", "simulate_wait", ["simulate", "--pattern", "HT", "--trials", "10", "--seed", "1"]),
    ("sequences", "value_strings", ["seq", "fib:2", "--upto", "5"]),
])
def test_commands_call_the_function_bound_on_its_module(capsys, monkeypatch, module, name, argv):
    # perfbench's tracer swaps module attributes: a command must look its function up there at each
    # call, so one that ran before the swap calls the swapped function too
    assert run_cli(capsys, *argv)[0] == 0
    mod = importlib.import_module(f"flipwait.{module}")
    real, calls = getattr(mod, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mod, name, counted)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out and len(calls) == 1


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call; a SystemExit gives ("SystemExit", code)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import flipwait.cli as cli\n"
        "print(len(built), cli._parser)\n"
        "cli.main(['expect', 'HH', '--json'])\n"
        "print(len(built) > 0, cli._parser is not None)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()  # the expect JSON sits between the two checks
    assert (lines[0], lines[-1]) == ("0 None", "True True")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    for _ in range(3):
        for argv in (["expect", "HH", "--json"], ["count", "HT", "--upto", "5"], ["expect"], ["--help"]):
            _outcome(capsys, argv)
    assert len(built) == 1


# a usage error first, so the parser that the later calls reuse was built by a failing call
REUSE_RUN = [
    ["expect"],
    ["expect", "HTH", "--method", "all"],
    ["--help"],
    ["--help"],
    ["count", "HH", "--upto", "8", "--json"],
    ["sum", "id1"],
]


def test_reused_parser_matches_a_fresh_parser_per_call(capsys, monkeypatch):
    fresh = []
    for argv in REUSE_RUN:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(_outcome(capsys, argv))
    monkeypatch.setattr(cli, "_parser", None)
    reused = [_outcome(capsys, argv) for argv in REUSE_RUN]
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [
        ("SystemExit", 1), 0, ("SystemExit", 0), ("SystemExit", 0), 0, 1]
    assert fresh[0][2].endswith("flipwait expect: error: the following arguments are required: pattern\n")
    assert fresh[5] == (1, "", "flipwait: error: id1 requires --k\n")
    # argparse wraps the help to the terminal's width, at spaces and hyphens
    seq_help = "seq evaluate a sequence family (fib:k, fib-bar:k, fib2:k,m, fib-tilde:k,m, alt:s)"
    assert "".join(seq_help.split()) in "".join(fresh[2][1].split())


def _top_level_outcome(capsys, argv):
    """_outcome of argv parsed whole by a fresh top-level parser, then run by its command."""
    try:
        args = cli.build_parser().parse_args(argv)
        code = args.func(args)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    except (PatternError, ValueError) as exc:
        print(f"flipwait: error: {exc}", file=sys.stderr)
        code = 1
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DISPATCH_TABLE = [
    *(argv.split() for argv, _ in _readme_examples()),
    ["--help"], ["expect", "--help"], ["expect"], ["nope"], [],
    ["scan", "--max-len", "2", "--threads", "2"], ["expect", "HT", "--bogus"],
    ["expect", "HT", "--alph", "3"], ["expect", "HT", "--alphabet=3"],
    ["count", "HT", "--upto", "x"], ["expect", "HT", "--method", "bogus"],
]


@pytest.mark.parametrize("argv", DISPATCH_TABLE, ids=" ".join)
def test_main_matches_the_top_level_parser(capsys, argv):
    # main hands argv[1:] to the command's subparser; leftovers, help and usage errors
    # must still come out as the top-level parser gives them
    assert _outcome(capsys, argv) == _top_level_outcome(capsys, argv)


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["flipwait", "expect", "0,1,0", "--alph", "3", "--json"])
    got = _outcome(capsys, None)
    assert got[0] == 0 and json.loads(got[1])["results"]["markov"] == "30"
    assert got == _top_level_outcome(capsys, None)


@pytest.mark.parametrize("argv, code", [
    (["expect", "HH", "--json"], 0),
    (["expect", "H" * 15000, "--method", "markov"], 0),
    (["count", "2,1", "--alphabet", "100", "--upto", "4000", "--json"], 1),
    (["sum", "id1"], 1),
    (["expect"], ("SystemExit", 1)),
])
def test_main_leaves_the_int_digit_limit_as_it_found_it(capsys, int_digits, argv, code):
    int_digits(5000)
    assert _outcome(capsys, argv)[0] == code
    assert sys.get_int_max_str_digits() == 5000


def test_exact_str_restores_the_limit_when_str_raises(int_digits):
    class Unprintable:
        def __str__(self):
            assert sys.get_int_max_str_digits() == 0
            raise RuntimeError("no text")

    int_digits(5000)
    with pytest.raises(RuntimeError, match="no text"):
        cli._exact_str(Unprintable())
    assert sys.get_int_max_str_digits() == 5000


def test_expect_prints_values_past_the_digit_limit(capsys, int_digits):
    limit = sys.get_int_max_str_digits()
    code, payload, err = run_json(capsys, "expect", "H" * 15000, "--method", "markov", "--json")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    int_digits(0)
    assert payload["results"] == {"markov": str(2**15001 - 2)}


def test_inspect_prints_expected_wait_past_the_digit_limit(capsys, int_digits):
    code, payload, _ = run_json(capsys, "inspect", "H" * 14300, "--json")
    assert code == 0
    code, out, _ = run_cli(capsys, "inspect", "H" * 14300)
    assert code == 0
    int_digits(0)
    want = str(2**14301 - 2)
    assert len(want) > 4300
    assert payload["expected_wait"] == want
    assert f"expected wait  {want}\n" in out


def test_sum_past_the_digit_limit_is_certified(capsys):
    # the partial sum's denominator 2**20000 has 6021 digits
    code, payload, err = run_json(capsys, "sum", "id3", "--k", "5", "--m", "5", "--N", "20000", "--json")
    assert code == 0 and err == ""
    assert payload["certified"] is True
    assert len(payload["partial"]) > 4300


def test_sum_at_large_n_runs_in_small_memory():
    # the 10**5 + 1 masses of fib:2 alone take about 430 MB; the jump never holds them
    script = (
        "import contextlib, io, json\n"
        "from flipwait import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = cli.main(['sum', 'id1', '--k', '2', '--N', '100000', '--json'])\n"
        "print(code, json.loads(out.getvalue())['certified'])\n"
    )
    # Linux starts a child's ru_maxrss at the peak of the process it was forked
    # from, so the sum runs in a grandchild of a fresh interpreter, not of pytest
    runner = (
        "import resource, subprocess, sys\n"
        f"done = subprocess.run([sys.executable, '-c', {script!r}], capture_output=True, text=True, check=True)\n"
        "print(done.stdout.strip(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", runner], env=env, capture_output=True, text=True, check=True)
    code, certified, maxrss_kb = done.stdout.split()
    assert (code, certified) == ("0", "True")
    assert int(maxrss_kb) < 64 * 1024


def test_count_still_stops_at_the_digit_limit(capsys):
    # lifting the limit here would print 16 MB: count and seq keep Python's own error
    code, _, err = run_cli(capsys, "count", "2,1", "--alphabet", "100", "--upto", "4000")
    assert code == 1
    assert err.startswith("flipwait: error: Exceeds the limit (4300 digits) for integer string conversion")


@pytest.mark.parametrize("place", ["first", "last"])
def test_text_count_stops_at_the_digit_limit_on_a_block_edge(capsys, int_digits, place):
    # the counts of "0" over 11 symbols are 10**(n-1): the count at n has n digits.
    # The rerun starts at the first count past _DECIMAL_BITS and steps _BLOCK
    # counts at a time; the first count over the limit sits on a block's first
    # or last index.  The lowest limit CPython accepts is 640 digits: take the
    # first block that starts past it
    start = min(n for n in range(2, 2000) if (10 ** (n - 1)).bit_length() > recurrence._DECIMAL_BITS)
    first = next(n for n in range(start, 10**4, recurrence._BLOCK) if n > 640)
    over = first if place == "first" else first - 1
    int_digits(over - 1)
    try:
        str(10 ** (over - 1))
    except ValueError as exc:
        message = str(exc)
    code, out, err = run_cli(capsys, "count", "0", "--alphabet", "11", "--upto", str(over + 3))
    rows = ["first-occurrence counts for 0"] + [f"{n:>4}  {10 ** (n - 1) if n else 0}" for n in range(over)]
    assert (code, out, err) == (1, "\n".join(rows) + "\n", f"flipwait: error: {message}\n")


class _NoRerun:
    """Stands in for the decimal module in `recurrence`: any decimal rerun fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"the decimal rerun ran ({name})")


def test_json_count_and_seq_fail_before_the_decimal_rerun(capsys, int_digits, monkeypatch):
    # the counts of "0" over 11 symbols are 10**(n-1): the count at n has n digits
    int_digits(700)
    code, out, err = run_cli(capsys, "count", "0", "--alphabet", "11", "--upto", "700", "--json")
    assert code == 0 and err == "" and json.loads(out)["counts"][-1] == "1" + "0" * 699
    text = run_cli(capsys, "count", "0", "--alphabet", "11", "--upto", "701")
    assert text[0] == 1 and text[1].count("\n") == 702  # the header and n = 0..700
    monkeypatch.setattr(recurrence, "decimal", _NoRerun())
    assert run_cli(capsys, "count", "0", "--alphabet", "11", "--upto", "701", "--json") == (1, "", text[2])
    assert text[2].startswith("flipwait: error: Exceeds the limit (700 digits) for integer string conversion")
    code, out, err = run_cli(capsys, "seq", "fib:3", "--upto", "3000", "--json")
    assert (code, out) == (1, "") and err.startswith("flipwait: error: Exceeds the limit (700 digits)")


def test_count_and_seq_arrays_skip_the_json_encoder(capsys, monkeypatch):
    # the arrays are joined, not encoded: 3009 string encodes each when they were.
    # Tallied at the JSON writer's own binding of the escape function, which it calls for
    # every string and key it writes
    encoded = []
    real = jsontext.encode_basestring_ascii

    def tally(text):
        encoded.append(text)
        return real(text)

    monkeypatch.setattr(jsontext, "encode_basestring_ascii", tally)
    for argv in (("count", "HH"), ("seq", "fib:3")):
        encoded.clear()
        code, out, _ = run_cli(capsys, *argv, "--upto", "3000", "--json")
        assert code == 0 and len(json.loads(out)["counts" if argv[0] == "count" else "values"]) == 3001
        assert 0 < len(encoded) < 20


def test_joined_arrays_print_the_bytes_of_json_dumps(capsys):
    # the largest count payload of the series benchmark, about 6.2 MB
    code, out, err = run_cli(capsys, "count", "0,2,1", "--alphabet", "6", "--upto", "4000", "--json")
    assert code == 0 and err == ""
    assert len(out) > 6_000_000
    # digests, so a failure does not make pytest diff two 6 MB strings
    want = json.dumps(json.loads(out), indent=2) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == hashlib.sha256(want.encode()).hexdigest()
    # the rest of the payload still goes through the encoder, escapes and all
    payload = {"schema": 1, "command": "seq", "family": 'q"\\\u00e9', "upto": 2}
    for digits in (["7"], ["-5", "0", "12"]):
        cli._emit(payload, "values", digits)
        assert capsys.readouterr().out == json.dumps({**payload, "values": digits}, indent=2) + "\n"


class _Reached(Exception):
    """Raised by a stand-in for the first piece of work a command does past its budget check."""


def _reached(*args, **kwargs):
    raise _Reached


def test_inspect_refuses_a_table_over_its_budget_before_building_it(capsys, monkeypatch):
    budget = cli.INSPECT_CELLS
    assert budget == 2 * 10**6
    monkeypatch.setattr(automaton, "build", _reached)
    with pytest.raises(_Reached):  # 2 states * 10**6 symbols: exactly the budget
        main(["inspect", "0", "--alphabet", str(budget // 2)])
    capsys.readouterr()
    assert run_cli(capsys, "inspect", "0,0", "--alphabet", "666667") == (  # 3 * 666667 = budget + 1
        1, "", "flipwait: error: the automaton table of 0,0 has 3 * 666667 = 2000001 cells, "
               "more than the inspect budget of 2000000 cells\n")
    assert run_cli(capsys, "inspect", "0,5", "--alphabet", "99999999999999999999", "--json")[:2] == (1, "")


@pytest.mark.parametrize("flag", [[], ["--json"]])
def test_inspect_budget_boundary_on_a_real_table(capsys, monkeypatch, flag):
    want = run_cli(capsys, "inspect", "HTH", *flag)  # 4 states * 2 symbols
    monkeypatch.setattr(cli, "INSPECT_CELLS", 8)
    assert run_cli(capsys, "inspect", "HTH", *flag) == want
    monkeypatch.setattr(cli, "INSPECT_CELLS", 7)
    assert run_cli(capsys, "inspect", "HTH", *flag)[:2] == (1, "")


def test_inspect_of_a_huge_table_fails_in_small_memory():
    # 3 * 10**7 cells would need gigabytes; the refusal needs none (fresh process, 1 GiB address space)
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "flipwait.cli", "inspect", "0,1", "--alphabet", "10000000"],
                          env=env, capture_output=True, text=True, preexec_fn=limit, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == ("flipwait: error: the automaton table of 0,1 has 3 * 10000000 = 30000000 cells, "
                           "more than the inspect budget of 2000000 cells\n")


@pytest.mark.parametrize("flag", [[], ["--json"]])
def test_count_and_seq_refuse_a_vector_over_the_budget_before_counting(capsys, monkeypatch, flag):
    # on coins every value at n is at most 2**n: N(N+1)/2 bits, 1,073,720,970 at N = 46340 and
    # 1,073,767,311 at N = 46341, either side of 2**30
    assert cli.VECTOR_BITS == 1 << 30
    monkeypatch.setattr(counting, "count_first_occurrence", _reached)
    monkeypatch.setattr(sequences, "value_strings", _reached)
    for argv in (["count", "HH"], ["seq", "fib:2"]):
        with pytest.raises(_Reached):
            main([*argv, "--upto", "46340", *flag])
    assert run_cli(capsys, "count", "HH", "--upto", "46341", *flag) == (
        1, "", "flipwait: error: the counts of HH up to n = 46341 may hold 1.074e+09 bits "
               "(a value at n is at most 2**n), more than the budget of 1073741824 bits\n")
    assert run_cli(capsys, "seq", "fib:2", "--upto", "46341", *flag) == (
        1, "", "flipwait: error: fib:2 up to n = 46341 may hold 1.074e+09 bits "
               "(a value at n is at most 2**n), more than the budget of 1073741824 bits\n")
    # a die count's bound grows with log2(c): 3**n at c = 3
    code, out, err = run_cli(capsys, "count", "0,1", "--alphabet", "3", "--upto", "99999999999999999999", *flag)
    assert (code, out) == (1, "") and "(a value at n is at most 3**n)" in err
    # a negative N passes the check and gets its own error from the counting
    with pytest.raises(_Reached):
        main(["count", "HH", "--upto", "-99999999999999999999", *flag])
