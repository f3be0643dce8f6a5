"""Fuzz the CLI boundary: any argv ends in exit 0, 1 or 2, never a traceback.

Arguments are drawn from the real subcommands and flags, mixed with
malformed primes, structure labels and `cubic:` field specs of at most 40
digits (exponents stay small, so no draw builds a huge integer), plus three
whose exponents name millions of digits, which the CLI must reject unbuilt,
and one written out past Python's 4300-digit integer string limit.  A
5000-character prime and group name check that argparse's own errors stay
short.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgalois.cli import MAX_CUBIC_DIGITS, _numeral_digits, main
from hopfgalois.linalg import rational

primes = st.one_of(
    st.sampled_from(["3", "5", "7", "11", "13"]),
    st.sampled_from(["0", "1", "2", "4", "-3", "3.0", " 3", "x", "", "1e3",
                     "99999999999999999999999999999999999999", "9" * 5000]),
    st.integers(-20, 20).map(str),
)

structures = st.one_of(
    st.sampled_from(["rho", "lambda", "N0", "N1", "N2", "N6"]),
    st.sampled_from(["N7", "N-1", "N", "Nx", "N00", "n0", "RHO", "", "lambda "]),
    st.integers(-3, 15).map(lambda c: f"N{c}"),
)

digits = st.integers(-(10 ** 40) + 1, 10 ** 40 - 1).map(str)
numerals = st.one_of(
    digits,
    st.tuples(digits, digits).map("/".join),
    st.tuples(st.integers(-9, 9), st.integers(-40, 40)).map(lambda t: f"{t[0]}e{t[1]}"),
    st.sampled_from(["0", "8", "-27", "27/8", "0.5", "1/0", "", "x", "2/", "/3",
                     "--2", "+2", " 2", "2 ", "1.5.2", "nan", "inf",
                     "1e1000000", "1e-1000000", "1e1000000000", "2" + "0" * 5000]),
    st.text(alphabet="0123456789/-+. x", max_size=40),
)

fields = st.one_of(
    numerals.map(lambda v: "cubic:" + v),
    st.sampled_from(["split", "cubic", "cubic:", "Cubic:2", "split:", "nonsense", ""]),
)


def flag_pairs(draw, options):
    """Each flag of the subcommand with its value, each present or not."""
    argv = []
    for flag, values in options:
        if draw(st.integers(0, 9)) < 8:
            argv += [flag, draw(values)]
    return argv


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["catalog", "enumerate", "descend", "classify",
                                    "descend", "nosuchcommand"]))
    argv = [command]
    if command == "catalog":
        argv += flag_pairs(draw, [("--p", primes)])
    elif command == "enumerate":
        argv += flag_pairs(draw, [("--group", st.sampled_from(["d3", "klein4", "d5", "", "x" * 5000]))])
    elif command == "descend":
        argv += flag_pairs(draw, [("--p", primes), ("--structure", structures),
                                  ("--field", fields)])
    elif command == "classify":
        argv += flag_pairs(draw, [("--p", primes), ("--field", fields)])
    argv += draw(st.lists(st.sampled_from(["--json", "--p", "--help", "--bogus", "-x"]),
                          max_size=2))
    if draw(st.booleans()):
        argv = draw(st.permutations(argv))
    return list(argv)


@given(argvs())
@settings(max_examples=60, deadline=None)
def test_cli_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    assert all(len(line) < 1000 for line in err.getvalue().splitlines()), argv
    if code == 2:
        assert err.getvalue(), argv
    else:
        assert out.getvalue(), argv


@given(numerals)
@settings(max_examples=200, deadline=None)
def test_numeral_digit_bounds_cover_the_parsed_value(raw):
    bounds = _numeral_digits(raw)
    if max(bounds) > MAX_CUBIC_DIGITS:
        return
    try:
        v = rational(raw)
    except (ValueError, ZeroDivisionError):
        return
    assert len(str(abs(v.numerator))) <= max(bounds[0], 1), raw
    assert len(str(v.denominator)) <= max(bounds[1], 1), raw
