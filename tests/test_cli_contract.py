"""Property test of the command-line contract on generated argv.

For every subcommand, argv is drawn from values that include nan, inf,
1e400, negative numbers, ranges far over ``cli.MAX_TABLE_ROWS``,
malformed weight JSON files and an ``--output`` into a missing directory.
Every run must return an exit code from 0 to 4, let no exception escape,
and print exactly one stderr line when it fails and none when it succeeds;
a Python warning would reach stderr too, so it counts as a line.  Inputs
that pass validation stay tiny (at most 4 table rows, 8 radius points,
2 Blaschke products, 2 lemma trials and a 3-point identity grid), so the
whole search takes a few seconds.  ``--help`` is left out: argparse exits
there by design.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrkit import cli
from bohrkit.functionals import FAMILIES

PREFIXES = ("usage error", "no root", "verification failure", "accuracy error")

NUMBERS = ("nan", "inf", "-inf", "1e400", "-1e400", "1e300", "-1", "-0.5", "0",
           "0.25", "1.5", "3", "abc", "")
# ranges that validation rejects: far over MAX_TABLE_ROWS, non-finite, empty,
# reversed or with a bad step
BAD_RANGES = ("1..1e6", "0..2:1e-12", "0.5..2:1e-320", "1..1e400", "nan..2",
              "0.5..inf:0.5", "1..2:nan", "0.5..2:0", "0.5..2:-1", "2..1", "..")
SIZES = ("0", "-1", "1e3", "nan", "x", "99999999999999999999")

WEIGHT_FILES = {
    "valid": '{"kind": "scaled_power", "coeffs": [1.0, 0.5, 0.25], "rho": 0.5, "C": 1.0}',
    "no-root": json.dumps({"kind": "scaled_power", "coeffs": [1.0] + [0.0] * 63,
                           "rho": 0.5, "C": 1.0}),
    "power": '{"kind": "power"}',
    "psi0-zero": '{"kind": "scaled_power", "coeffs": [0.0, 0.5, 0.25], "rho": 0.5}',
    "not-json": "not json",
    "list": "[1, 2]",
    "no-kind": '{"coeffs": [1.0]}',
    "bad-kind": '{"kind": "bogus"}',
    "no-coeffs": '{"kind": "scaled_power"}',
    "empty-coeffs": '{"kind": "scaled_power", "coeffs": []}',
    "nested-coeffs": '{"kind": "scaled_power", "coeffs": [[1.0, 0.5], [0.25]]}',
    "text-coeffs": '{"kind": "scaled_power", "coeffs": ["x", 0.5]}',
    "dict-coeffs": '{"kind": "scaled_power", "coeffs": {"a": 1.0}}',
    "scalar-coeffs": '{"kind": "scaled_power", "coeffs": 1.0}',
    "nan-coeffs": '{"kind": "scaled_power", "coeffs": [1.0, NaN]}',
    "huge-coeffs": '{"kind": "scaled_power", "coeffs": [1.0, 1e400]}',
    "negative-coeffs": '{"kind": "scaled_power", "coeffs": [1.0, -0.5]}',
    "text-rho": '{"kind": "scaled_power", "coeffs": [1.0], "rho": "abc"}',
    "null-rho": '{"kind": "scaled_power", "coeffs": [1.0], "rho": null}',
    "big-rho": '{"kind": "scaled_power", "coeffs": [1.0, 0.5], "rho": 2.0}',
    "negative-C": '{"kind": "scaled_power", "coeffs": [1.0, 0.5], "rho": 0.5, "C": -1}',
    "list-C": '{"kind": "scaled_power", "coeffs": [1.0], "C": [2.0]}',
    "inf-C": '{"kind": "scaled_power", "coeffs": [1.0, 0.5], "rho": 0.5, "C": Infinity}',
    "under-dominator": '{"kind": "scaled_power", "coeffs": [1.0, 0.9], "rho": 0.5, "C": 1}',
    # bools, which numpy would read as 1.0 and 0.0
    "bool-rho-C": '{"kind": "scaled_power", "coeffs": [1.0, 0.5], "rho": true, "C": true}',
    "bool-coeffs": '{"kind": "scaled_power", "coeffs": [1.0, false]}',
    "bool-power-rho": '{"kind": "power", "rho": true}',
    # integers too large for a double, short enough for the JSON parser
    "huge-int-rho": '{"kind": "scaled_power", "coeffs": [1], "rho": ' + "9" * 400 + "}",
    "huge-int-C": '{"kind": "scaled_power", "coeffs": [1], "C": ' + "9" * 400 + "}",
    "huge-int-coeffs": '{"kind": "scaled_power", "coeffs": [1, ' + "9" * 400 + "]}",
    # a dominator so large that the tail cut's log argument underflows
    "huge-C": '{"kind": "scaled_power", "coeffs": [1], "C": 1e307}',
    # c_0 and C near the double maximum: Psi's tails pass the double range
    "max-c0": '{"kind": "scaled_power", "coeffs": [1.7e308], "C": 1.7e308}',
}
# "@name" stands for that file (or directory, or missing path) in the test's
# temporary directory
VALID_WEIGHTS = ("power", "@valid", "@no-root", "@power", "@huge-C", "@max-c0")
BAD_WEIGHTS = ("@missing", "@dir") + tuple(
    f"@{name}" for name in WEIGHT_FILES if f"@{name}" not in VALID_WEIGHTS)
OUTPUT = (("-", "@out"), ("@missing/out.txt", "@dir"))

# flag -> (valid values, hostile values); a size flag is always given, so a
# valid size stays tiny instead of falling back to its default
SIZE_FLAGS = {"--r-points", "--blaschke", "--trials", "--grid"}
PROBLEM = {
    "--m": (("1", "2", "3"), NUMBERS + ("1e19", "1,2", "1..2")),
    "--p": (("0.5", "1", "2"), NUMBERS + ("1,2",)),
    "--lambda": (("0.5", "1", "2"), NUMBERS),
    # a lacunary gap or index of 1000 leaves verify an uncertifiable sum (exit 4)
    "--q": (("2", "3", "1000"), NUMBERS + BAD_RANGES),
    "--n": (("1", "2", "1000"), NUMBERS + ("1e19",)),
    "--weights": (VALID_WEIGHTS, BAD_WEIGHTS),
    "--output": OUTPUT,
}
# at most 2 x 2 rows: only --m and --p take value lists
TABLE = {**PROBLEM,
         "--m": (("1", "2", "1,2", "1..2"), NUMBERS + BAD_RANGES + ("1,nan",)),
         "--p": (("0.5", "2", "0.5,2", "1..2:1"), NUMBERS + BAD_RANGES + ("1,,2",)),
         "--lambda": (("0.5", "1", "2"), NUMBERS + BAD_RANGES),
         "--n": (("1", "2", "1000"), NUMBERS + ("1,2",))}
VERIFY = {**PROBLEM,
          "--r-points": (("1", "3", "8"), SIZES + ("100001",)),
          "--margin": (("0", "0.01"), NUMBERS),
          "--mode": (("envelope", "pointwise"), ("bogus",)),
          "--blaschke": (("0", "1", "2"), SIZES + ("2001",)),
          "--seed": (("0", "7"), SIZES[1:])}
SHARPNESS = {**PROBLEM, "--delta": (("0.01", "0.05"), NUMBERS + ("1e-300",))}
LEMMAS = {"--trials": (("1", "2"), SIZES + ("2001",)), "--seed": (("0", "7"), SIZES[1:]),
          "--weights": (VALID_WEIGHTS, BAD_WEIGHTS), "--output": OUTPUT}
IDENTITY = {"--grid": (("1", "2", "3"), SIZES + ("1001", "inf")), "--output": OUTPUT}

FAMILY = st.sampled_from(sorted(FAMILIES)).map(lambda f: ["--family", f])


def arguments(spec, hostile):
    """Each flag of spec absent or given a valid value, or, when hostile is
    set, any of its values; then, either way, possibly one flag repeated
    with a hostile value (argparse keeps the last)."""
    def flag(name, values):
        given = st.sampled_from(values).map(lambda v: [name, v])
        return given if name in SIZE_FLAGS else st.one_of(st.just([]), given)

    pool = {name: valid + bad if hostile else valid for name, (valid, bad) in spec.items()}
    last = st.one_of(st.just([]), *(st.sampled_from(bad).map(lambda v, n=name: [n, v])
                                    for name, (_, bad) in spec.items()))
    parts = [flag(name, values) for name, values in pool.items()] + [last]
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def command(name, spec, family=True):
    head = FAMILY if family else st.just([])
    return st.tuples(head, st.one_of(arguments(spec, False), arguments(spec, True))).map(
        lambda parts: [name] + parts[0] + parts[1])


ARGV = {
    "radius": command("radius", PROBLEM),
    "table": st.one_of(
        command("table", TABLE),
        # 1000 x 200 rows: each range is under the cap, their product is not
        st.just(["table", "--family", "psi1", "--m", "1..1000", "--p", "0.01..2:0.01"])),
    "verify": command("verify", VERIFY),
    "sharpness": command("sharpness", SHARPNESS),
    "check-lemmas": command("check-lemmas", LEMMAS, family=False),
    "identity-check": command("identity-check", IDENTITY, family=False),
    "usage": st.sampled_from([[], ["bogus"], ["radius"], ["radius", "--family", "bogus"],
                              ["table", "--family"], ["verify", "--family", "psi1", "x"]]),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-contract")
    (root / "dir").mkdir()
    for name, text in WEIGHT_FILES.items():
        (root / name).write_text(text)
    return root


def run(argv):
    """main's exit code and the lines it sent to stderr, warnings included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


def contract(name, examples):
    """A test that runs ``examples`` generated argv of one subcommand."""
    @settings(derandomize=True, database=None, max_examples=examples, deadline=None)
    @given(argv=ARGV[name])
    def test(files, argv):
        argv = [str(files / a[1:]) if a.startswith("@") else a for a in argv]
        code, lines = run(argv)
        assert code in range(5)
        if code == cli.EXIT_OK:
            assert lines == []
        else:
            assert len(lines) == 1, lines
            assert lines[0].split(":")[0] in PREFIXES, lines
    return test


# the lemma suites cost about 0.15 s a run whatever the trial count
test_radius = contract("radius", 30)
test_table = contract("table", 30)
test_verify = contract("verify", 25)
test_sharpness = contract("sharpness", 25)
test_check_lemmas = contract("check-lemmas", 8)
test_identity_check = contract("identity-check", 15)
test_bad_subcommands = contract("usage", 6)


@pytest.mark.parametrize("weights", BAD_WEIGHTS)
def test_every_bad_weight_file_is_one_usage_line(files, weights):
    code, lines = run(["radius", "--family", "psi1", "--weights", str(files / weights[1:])])
    assert code == cli.EXIT_USAGE
    assert len(lines) == 1 and lines[0].startswith("usage error: "), lines


def test_bool_weight_fields_are_one_usage_line(files):
    # read as rho = C = 1.0, this file printed radius 0.29559774252207716 and exited 0
    code, lines = run(["radius", "--family", "psi1", "--weights", str(files / "bool-rho-C")])
    assert (code, lines) == (1, ["usage error: weight coefficients, rho and C must be "
                                 "numbers, not bools"])


# the radius is the bracket's lower end, 0.0, where verify finds every
# member within phi_0; the sharpness window and the lemmas' fixed grid up
# to r = 0.9 reach tails no remainder bound can certify
@pytest.mark.parametrize("argv, expected", [
    (["radius", "--family", "psi1"], cli.EXIT_OK),
    (["table", "--family", "psi1"], cli.EXIT_OK),
    (["verify", "--family", "psi1", "--r-points", "8", "--blaschke", "2"], cli.EXIT_OK),
    (["sharpness", "--family", "psi1"], cli.EXIT_ACCURACY),
    (["check-lemmas", "--trials", "2"], cli.EXIT_ACCURACY),
])
def test_huge_dominator_ends_in_an_exit_code(files, argv, expected):
    code, lines = run(argv + ["--weights", str(files / "huge-C")])
    assert code == expected
    assert len(lines) == (code != cli.EXIT_OK), lines


# classical_c's Psi, c_0 - 2 * tail, overflows below its root, and psi1,
# psi3 and psi4 at p = 2 overflow inside the tail: radius and table exit 0
# with no warning, and verify and sharpness, whose weight blocks cannot be
# certified, print only their accuracy error
@pytest.mark.parametrize("argv, expected", [
    *((["radius", "--family", fam, "--p", "2"], cli.EXIT_OK)
      for fam in ("psi1", "psi2", "psi3", "psi4", "classical_c")),
    (["table", "--family", "classical_c"], cli.EXIT_OK),
    (["table", "--family", "psi3", "--p", "1,2", "--m", "1,3"], cli.EXIT_OK),
    (["verify", "--family", "classical_c", "--r-points", "8", "--blaschke", "2"],
     cli.EXIT_ACCURACY),
    (["sharpness", "--family", "classical_c"], cli.EXIT_ACCURACY),
])
def test_tails_past_the_double_range_print_no_warning(files, argv, expected):
    code, lines = run(argv + ["--weights", str(files / "max-c0")])
    assert code == expected
    assert len(lines) == (code != cli.EXIT_OK), lines


# 2 * lambda + 1 overflows: inf * 0 would make Psi(0) NaN, with warnings
@pytest.mark.parametrize("family", ["psi5_t5", "psi5_t6", "classical_d"])
def test_lambda_whose_double_overflows_is_one_usage_line(family):
    code, lines = run(["radius", "--family", family, "--lambda", "1e308"])
    assert code == cli.EXIT_USAGE
    assert len(lines) == 1 and lines[0].startswith("usage error: lambda"), lines


def test_empty_parameter_grid_is_one_usage_line():
    # 1e300 + 0.5 * step rounds to 1e300, so the range holds no value
    code, lines = run(["table", "--family", "psi1", "--p", "1e300..1e300:1"])
    assert (code, lines) == (cli.EXIT_USAGE, ["usage error: empty parameter grid"])
