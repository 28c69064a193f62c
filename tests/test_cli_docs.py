"""Execute every CLI example in README.md and compare output byte for byte.

The README's Library block is run line by line as well, and each result is
checked against the comment beside it.
"""

import re
from pathlib import Path

import pytest

from flipwait.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

_BLOCK = re.compile(r"```console\n\$ flipwait ([^\n]+)\n(.*?)```", re.DOTALL)
_LIBRARY = re.compile(r"## Library\n\n```python\n(.*?)```", re.DOTALL)
_LITERAL = re.compile(r"(Fraction\(\d+, \d+\)|\d+|\([\d, ]+\))(:|$)")


def _examples():
    text = README.read_text()
    found = _BLOCK.findall(text)
    assert found, "README lost its console examples"
    return found


@pytest.mark.parametrize("argv,expected", _examples(), ids=lambda v: v[:40] if isinstance(v, str) else "")
def test_readme_example(argv, expected, capsys):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == 0
    assert out == expected


def test_readme_documents_every_subcommand():
    text = README.read_text()
    for sub in ("expect", "count", "seq", "sum", "simulate", "scan", "inspect"):
        assert f"flipwait {sub}" in text or f"$ flipwait {sub}" in text


def test_readme_library_block():
    ns = {}
    literals = {}
    results = {}
    for line in _LIBRARY.search(README.read_text()).group(1).splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if not comment:
            exec(code, ns)
            continue
        if code.startswith("simulate."):
            # keep the whole report: the mean is checked against its own standard error
            results["simulate"] = eval(code.removesuffix(".mean"), ns)
            continue
        value = eval(code, ns)
        literal = _LITERAL.match(comment)
        if literal:
            literals[code] = (repr(value), literal.group(1))
        else:
            results[code.split("(")[0]] = value
    assert sorted(expected for _, expected in literals.values()) == [
        "(0, 0, 0, 1, 2, 3)", "10", "10", "Fraction(10, 1)", "Fraction(9, 1)"]
    for code, (got, expected) in literals.items():
        assert got == expected, code
    assert sorted(results) == ["identities.partial_expectation", "identities.tail_bound", "simulate"]
    partial = results["identities.partial_expectation"]
    bound = results["identities.tail_bound"]
    assert abs(partial - 10) < 2e-9
    assert partial <= 10 <= partial + bound
    report = results["simulate"]
    assert abs(report.mean - 10) < 6 * report.std_error
