"""Differential property suite: the CLI's direct parse against argparse.

For every command, hypothesis draws argument lists from a pool of tokens:
each option string of the command, values that its types and choices
accept and values they refuse, and the tokens argparse treats specially
(abbreviations, --opt=value, help, "--", "-", "", negative numbers and
ints with spaces, signs or underscores).  The direct parse must give None
or the Namespace that argparse's parse_known_args gives, with nothing left
over and no usage error; an argument list put together only of plain parts
must not give None.  Runs are derandomized and keep no example database,
so they repeat and write nothing to the tree.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from flipwait import cli

PARSE = settings(derandomize=True, database=None, deadline=None, max_examples=1000)
PARSER = cli.build_parser()
COMMANDS = sorted(PARSER.commands)
EDGE = ["--alph", "--alphabet=3", "--max", "-h", "--help", "--", "-", "", "-1", " 3", "+4", "3_0", "3.0",
        "bogus", "x", "0", "HT", "hT", "0,1", "fib:2", "id1", "all", "markov", "--bogus", "expect"]
# every option string of every command, so a command also meets the others' options
POOL = sorted({*EDGE, *(name for command in PARSER.commands.values() for name in command.options)})


def _argparse(command, argv):
    """parse_known_args(argv), or None where argparse exits on a usage error or help."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return command.parse_known_args(argv)
        except SystemExit:
            return None


def _check(command, argv):
    direct = command.parse_plain(argv)
    if direct is not None:
        assert _argparse(command, argv) == (direct, []), argv
    return direct


def _good_value(draw, action) -> str:
    if action.choices is not None:
        return draw(st.sampled_from(list(action.choices)))
    if action.type is int:
        return str(draw(st.integers(0, 10**6)))
    return draw(st.sampled_from(["HT", "0,1,0", "fib:3", "out.json", "a b", "HT="]))


@st.composite
def plain_argvs(draw):
    """(command, argv, plain): the command's arguments in any order, each option at most once.

    plain is True when every value is one the argument accepts, every
    required argument is there and no token from the pool was put in.
    """
    command = PARSER.commands[draw(st.sampled_from(COMMANDS))]
    plain = True
    parts = []
    for name, action in [(None, action) for action in command.positionals] + list(command.options.items()):
        if not draw(st.integers(0, 3)):  # left out
            plain = plain and not action.required
            continue
        part = [] if name is None else [name]
        if action.nargs != 0:  # not store_true
            if draw(st.integers(0, 4)):
                part.append(_good_value(draw, action))
            else:
                part.append(draw(st.sampled_from(POOL)))
                plain = False
        parts.append(part)
    parts = draw(st.permutations(parts))
    argv = [token for part in parts for token in part]
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(POOL)))
        plain = False
    return command, argv, plain


@PARSE
@given(st.sampled_from(COMMANDS), st.lists(st.sampled_from(POOL), max_size=8))
def test_direct_parse_of_any_tokens_is_none_or_argparse(name, argv):
    _check(PARSER.commands[name], argv)


@PARSE
@given(plain_argvs())
def test_direct_parse_of_a_command_s_own_arguments(drawn):
    command, argv, plain = drawn
    direct = _check(command, argv)
    if plain:
        assert direct is not None, argv
