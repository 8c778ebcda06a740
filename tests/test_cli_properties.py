"""Property tests of the CLI's input parsers, a CLI fuzz, and its import cost.

The fuzz draws argv lists from a small vocabulary of flags and good, bad,
capped and float-edge values, chosen so that every accepted command finishes
in milliseconds, and a deterministic sweep gives every numeric flag each
float-edge value in turn. Whatever the CLI is given, it must exit 0, 2 or 3,
must not raise, on exit 2 must print exactly one `error:` line on stderr, and
must print no inf or nan: JSON that strict parsers accept, and finite CSV.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditkd
from quditkd.cli import MAX_DIM, main, parse_dims, parse_q

FUZZ = settings(derandomize=True, max_examples=60, deadline=None)
in_range = st.integers(2, MAX_DIM)
out_of_range = st.integers(-10**6, 1) | st.integers(MAX_DIM + 1, 10**6)


@FUZZ
@given(st.lists(in_range, min_size=1, max_size=8, unique=True), st.sampled_from([",", " , ", ",,"]))
def test_parse_dims_reads_any_list_of_distinct_in_range_dims(dims, sep):
    assert parse_dims(sep.join(map(str, dims))) == dims


@FUZZ
@given(st.lists(in_range, min_size=1, max_size=8), st.data(), st.sampled_from([",", " , ", ",,"]))
def test_parse_dims_refuses_any_list_that_repeats_a_dim(dims, data, sep):
    # a dimension named a second time, alone or inside a range, anywhere in the list
    twice = data.draw(st.sampled_from(dims))
    repeat = data.draw(st.sampled_from([str(twice), f"{twice}..{MAX_DIM}", f"2..{twice}"]))
    tokens = list(map(str, dims))
    tokens.insert(data.draw(st.integers(0, len(tokens))), repeat)
    with pytest.raises(argparse.ArgumentTypeError, match="named twice"):
        parse_dims(sep.join(tokens))


@FUZZ
@given(in_range, in_range)
def test_parse_dims_expands_ranges(a, b):
    lo, hi = min(a, b), max(a, b)
    assert parse_dims(f"{lo}..{hi}") == list(range(lo, hi + 1))
    if lo < hi:
        with pytest.raises(argparse.ArgumentTypeError):
            parse_dims(f"{hi}..{lo}")


@FUZZ
@given(st.lists(in_range, max_size=4), out_of_range, st.lists(in_range, max_size=4))
def test_parse_dims_rejects_any_out_of_range_entry(before, bad, after):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_dims(",".join(map(str, before + [bad] + after)))


@FUZZ
@given(st.text(alphabet="0123456789.,- x", max_size=12))
def test_parse_dims_returns_in_range_dims_or_raises_a_usage_error(text):
    try:
        dims = parse_dims(text)
    except (ValueError, argparse.ArgumentTypeError):
        return
    assert dims and all(2 <= d <= MAX_DIM for d in dims)


@FUZZ
@given(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(["", " ", "\t"]))
def test_parse_q_reads_fractions_and_percentages(q, pad):
    assert parse_q(f"{pad}{q!r}{pad}") == q
    assert parse_q(f"{q!r}%") == q / 100.0


@FUZZ
@given(st.sampled_from(["nan", "inf", "-inf", "1e999", "-1e999%", "NaN%"]))
def test_parse_q_rejects_non_finite_noise(text):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_q(text)


@FUZZ
@given(st.text(alphabet="0123456789.e-+%naif ", max_size=10))
def test_parse_q_returns_finite_noise_or_raises_a_usage_error(text):
    try:
        q = parse_q(text)
    except (ValueError, argparse.ArgumentTypeError):
        return
    assert math.isfinite(q)


VALUES = {
    "--dims": ["2", "3,5", "1", str(MAX_DIM + 1), "2..4", "5..2", "x", ""],
    "--dim": ["2", "3", "4", "5", "1", str(MAX_DIM + 1), "x"],
    "--family": ["two-basis", "dplus1", "three-basis"],
    "--q": ["0.05", "5%", "0", "0.9", "-0.1", "nan", "x"],
    "--q-min": ["0", "0.1", "-1", "x"],
    "--q-max": ["0.2", "0.05", "x"],
    "--q-step": ["0.05", "0", "-0.1", "1e-12", "x"],
    "--eps": ["1e-5", "0", "2", "x"],
    "--eps-ec": ["1e-10", "1e-3", "0", "x"],
    "--n-min": ["1000", "1e4", "0", "999.5", "x"],
    "--n-max": ["1e5", "1", "inf", "x"],
    "--n-points": ["1", "0", "51", "x"],
    "--flux-mode": ["equal", "single", "brute", "x"],
    "--rounds": ["100", "0", "-1", "1e3", "20000000", "x"],
    "--seed": ["1", "-1", str(2**128), "x"],
    "--basis-probs": ["0.5,0.5", "1,0", "0,0", "x"],
    "--format": ["csv", "json", "xml"],
}
# the ends of the float range and its subnormals, which every numeric flag also takes
EDGES = ["0", "-0", "5e-324", "1e-320", "1e-300", "1e308", "1.7976931348623157e308", "-1e308"]
NUMERIC = ["--dims", "--dim", "--q", "--q-min", "--q-max", "--q-step", "--eps", "--eps-ec", "--n-min", "--n-max",
           "--n-points", "--rounds", "--seed", "--basis-probs"]
VALUES.update({flag: VALUES[flag] + EDGES for flag in NUMERIC})
# each command's flags, and a valid set of its required ones
COMMANDS = {
    "critical-q": (["--dims", "--family", "--format"], ["--dims", "2"]),
    "asymptotic": (
        ["--dim", "--family", "--q", "--q-min", "--q-max", "--q-step", "--format"], ["--dim", "3"]),
    "finite-key": (
        ["--dim", "--family", "--q", "--eps", "--eps-ec", "--n-min", "--n-max", "--n-points",
         "--flux-mode", "--format"], ["--dim", "2"]),
    "simulate": (
        ["--dim", "--family", "--q", "--rounds", "--seed", "--basis-probs"],
        ["--dim", "2", "--q", "0.05", "--rounds", "100", "--seed", "1"]),
    "verify": (["--dims"], ["--dims", "2"]),
    "keygen": ([], []),
}
TABLES = ("critical-q", "asymptotic", "finite-key")


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags, required = COMMANDS[command]
    argv = [command] + (required if draw(st.sampled_from([True, True, True, False])) else [])
    for flag in draw(st.lists(st.sampled_from(flags + ["--bogus", "--format"]), max_size=4)):
        argv.append(flag)
        if flag in VALUES and draw(st.sampled_from([True, True, True, False])):  # sometimes leave it bare
            argv.append(draw(st.sampled_from(VALUES[flag])))
    if command == "finite-key" and "--n-points" not in argv:
        argv += ["--n-points", "1"]  # keeps every accepted request to one optimizer run
    return argv


def _exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, (argv, err.getvalue())
    _prints_only_finite_numbers(argv, out.getvalue())


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _prints_only_finite_numbers(argv, out):
    """JSON output that strict parsers accept, and no inf or nan in a table's CSV."""
    if out.startswith("{"):
        json.loads(out, parse_constant=_refuse_constant)
    elif argv[0] in TABLES:
        for row in csv.reader(io.StringIO(out)):
            for field in row:
                try:
                    value = float(field)
                except ValueError:
                    continue
                assert math.isfinite(value), (argv, row)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_argv())
def test_cli_fuzz_exits_cleanly(argv):
    _exits_cleanly(argv)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_numeric_flag_exits_cleanly_at_the_float_edges(command):
    # one flag at a time on an otherwise valid command, so each edge value
    # reaches the code behind its flag
    flags, required = COMMANDS[command]
    for flag in (f for f in flags if f in NUMERIC):
        for value in EDGES:
            _exits_cleanly([command, *required, flag, value])


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("family, dim", (("two-basis", "2"), ("dplus1", "3")))
def test_every_budget_prints_finite_numbers_or_exits_2(family, dim, fmt):
    # at N = 1e8 a tie at r_N = 0 picks the smallest budget shares, so an
    # overflowing penalty term would reach the output
    tiny = sys.float_info.min  # the least eps - eps_EC accepted
    floor = [math.nextafter(tiny, 0.0), tiny, math.nextafter(tiny, 1.0)]
    grid = [10.0**-e for e in range(1, 324, 60)] + floor + [1e-308, 5e-324]
    for eps in grid:
        for eps_ec in (e for e in grid if e < eps):
            _exits_cleanly(["finite-key", "--dim", dim, "--family", family, "--eps", repr(eps),
                            "--eps-ec", repr(eps_ec), "--n-min", "1e8", "--n-points", "1", "--format", fmt])


def test_cli_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats costs about a second and nothing needs it: the
    # CLI does not load it, and neither does a simulation's chi-square check
    src = str(Path(quditkd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, quditkd.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    code = (
        "import sys\n"
        "from quditkd import Family, ProtocolSpec, SimConfig, run_simulation\n"
        "from quditkd.channels import depolarizing_spectrum\n"
        "spec = ProtocolSpec(Family.TWO_BASIS, 3)\n"
        "res = run_simulation(SimConfig(spec, depolarizing_spectrum(spec.dim, 0.1), rounds=1000, seed=1))\n"
        "assert res.per_basis[0].chi_square_threshold is not None\n"
        "sys.exit('scipy.stats' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_simulate_runs_without_scipy():
    # the chi-square thresholds are a constant table: neither sampling path
    # loads any part of scipy
    src = str(Path(quditkd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "from quditkd.cli import main\n"
        "for d in ('2', '11', '13'):\n"
        "    assert main(['simulate', '--dim', d, '--family', 'dplus1', '--q', '0.05',\n"
        "                 '--rounds', '20000', '--seed', '3']) == 0\n"
        "sys.exit('scipy' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
