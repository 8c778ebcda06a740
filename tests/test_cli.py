import argparse
import csv
import gc
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import n_grid_reference
import quditkd.cli
import quditkd.rates_asymptotic
import quditkd.rates_finite
import quditkd.simulator
import quditkd.verification
from quditkd.cli import (
    _SIM_PARSERS, MAX_CONFIG_BYTES, MAX_DIM, MAX_N_POINTS, MAX_ROUNDS, _n_grid, build_parser, main, parse_count,
    parse_dims, parse_q,
)
from quditkd.errors import OutOfRange
from quditkd.info_theory import ENTRY_SLACK
from quditkd.protocol import Family, ProtocolSpec
from quditkd.rates_finite import FiniteKeyBudget, FreeParams, optimize_r_finite, r_finite
from quditkd.simulator import _MIN_EXPECTED
from quditkd.verification import CheckResult

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = BENCH / "golden"


def _bench_workloads():
    """bench/workloads.py, loaded from its file without adding bench/ to sys.path."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


BENCH_WORKLOADS = _bench_workloads()
FINITE_KEY_REQUESTS = BENCH_WORKLOADS.WORKLOADS["finite-key"].requests
SIMULATE_REQUESTS = [
    pytest.param(name, request.with_seed(seed), id=request.with_seed(seed).golden_key)
    for name in ("readme-cli", "simulate-verify")
    for request in BENCH_WORKLOADS.WORKLOADS[name].requests
    if request.argv[0] == "simulate"
    for seed in BENCH_WORKLOADS.SIM_SEEDS
]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(csv_text):
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader)
    return header, list(reader)


def test_parse_dims():
    assert parse_dims("2,3,5") == [2, 3, 5]
    assert parse_dims("2..5") == [2, 3, 4, 5]
    assert parse_dims(" 3 , 5..7 ") == [3, 5, 6, 7]
    with pytest.raises(argparse.ArgumentTypeError):
        parse_dims("5..2")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_dims(",")
    for text in ("1", "0..3", "-2"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_dims(text)


def test_parse_q():
    assert parse_q("0.05") == 0.05
    assert parse_q("5%") == 0.05
    assert parse_q(" 12.5% ") == 0.125
    for text in ("nan", "inf", "-inf%"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_q(text)


def test_parse_count_accepts_integer_scientific_notation():
    assert parse_count("1000") == 1000
    assert parse_count("1e3") == 1000
    assert parse_count("1E12") == 10**12
    for text in ("1.5", "1e-3", "nan", "inf"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_count(text)
    with pytest.raises(ValueError):
        parse_count("many")
    assert parse_count("1e308") == int(1e308)
    with pytest.raises(argparse.ArgumentTypeError):
        parse_count(str(10**309))


def test_n_grid_takes_counts_beyond_int64():
    # counts past 2**63 go through np.log10 as floats, not as object arrays
    assert _n_grid(10**3, 10**20, 2) == [10**3, 10**20]


def test_n_grid_ends_at_n_max_up_to_the_float_maximum(capsys):
    # log10 of the float maximum rounds up, so its logspace point overflows
    top = int(sys.float_info.max)
    assert _n_grid(int(1e308), top, 2) == [int(1e308), top]
    grid = _n_grid(1, top, 3)
    assert grid[0] == 1 and grid[1] < top and grid[2] == top
    for argv, rate in ((["--n-min", "1e308"], 0.427), (["--n-min", "1", "--n-points", "3"], 0.427),
                       (["--n-min", "1e308", "--family", "dplus1", "--dim", "31"], 4.149)):
        argv = ["finite-key", "--dim", "2", "--n-max", "1.7976931348623157e308", "--n-points", "2"] + argv
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, ""), argv
        _, rows = _rows(out)
        assert int(rows[-1][2]) == top and round(float(rows[-1][3]), 3) == rate, argv
    # logspace computes each end as 10**log10(n), a few ulps off above about
    # 4e14: the ends are the requested counts themselves at every round count
    for count in (k * 10**e for k in range(1, 1000) for e in range(14, 40)):
        for n_min, n_max, points in ((1000, count, 2), (1000, count, 11), (count, 10 * count, 2)):
            grid = _n_grid(n_min, n_max, points)
            assert grid[0] == n_min and grid[-1] == n_max, (n_min, n_max, points)
            assert all(a < b for a, b in zip(grid, grid[1:])), (n_min, n_max, points)


def test_n_grid_places_its_inner_points_as_logspace_does():
    # _n_grid repeats np.logspace's float operations without calling it, so
    # every printed N must equal the logspace grid's
    rng = random.Random(20260)
    top = math.log(sys.float_info.max)
    for _ in range(10_000):
        n_min, n_max = sorted(max(1, int(math.exp(rng.uniform(0.0, top)))) for _ in range(2))
        points = rng.randint(1, 50)
        assert _n_grid(n_min, n_max, points) == n_grid_reference(n_min, n_max, points), (n_min, n_max, points)
    m = int(sys.float_info.max)
    below = int(math.nextafter(sys.float_info.max, 0.0))
    for n_min, n_max in ((m, m), (below, m), (below, below), (1, m)):
        for points in (2, 3, 5, 50):
            assert _n_grid(n_min, n_max, points) == n_grid_reference(n_min, n_max, points), (n_min, n_max, points)


def test_critical_q_csv(capsys):
    code, out, err = _run(capsys, ["critical-q", "--dims", "2,3,5"])
    assert code == 0 and err == ""
    header, rows = _rows(out)
    assert header == ["d", "family", "q_crit_percent"]
    got = {int(r[0]): float(r[2]) for r in rows}
    assert got[2] == pytest.approx(11.0028, abs=2e-3)
    assert got[3] == pytest.approx(15.9462, abs=2e-3)
    assert got[5] == pytest.approx(20.9867, abs=2e-3)


def test_critical_q_json_schema(capsys):
    code, out, _ = _run(capsys, ["critical-q", "--dims", "2,3", "--family", "dplus1",
                                 "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == 1
    assert obj["command"] == "critical-q"
    assert obj["params"] == {"dims": [2, 3], "family": "dplus1"}
    assert [r["d"] for r in obj["rows"]] == [2, 3]
    assert obj["rows"][0]["q_crit_percent"] == pytest.approx(12.6189, abs=2e-3)


def test_csv_and_json_round_trip_identically(capsys):
    argv = ["asymptotic", "--dim", "5", "--q", "0.1"]
    _, csv_out, _ = _run(capsys, argv)
    _, json_out, _ = _run(capsys, argv + ["--format", "json"])
    header, rows = _rows(csv_out)
    json_row = json.loads(json_out)["rows"][0]
    for name, text in zip(header, rows[0]):
        if name == "family":
            assert json_row[name] == text
        else:
            assert float(json_row[name]) == float(text)


def test_asymptotic_single_point_values(capsys):
    code, out, _ = _run(capsys, ["asymptotic", "--dim", "2", "--q", "5%"])
    assert code == 0
    header, rows = _rows(out)
    row = dict(zip(header, rows[0]))
    assert float(row["i_e"]) == pytest.approx(0.2863969571, abs=1e-9)
    assert float(row["h_ab"]) == pytest.approx(0.2863969571, abs=1e-9)
    assert float(row["r_inf"]) == pytest.approx(0.4272060858, abs=1e-9)


def test_asymptotic_sweep_caps_at_depolarizing_limit(capsys):
    code, out, err = _run(
        capsys, ["asymptotic", "--dim", "2", "--q-min", "0.4", "--q-max", "0.7", "--q-step", "0.1"]
    )
    assert code == 0
    assert "dropping Q values above the depolarizing limit" in err
    _, rows = _rows(out)
    assert [float(r[2]) for r in rows] == [0.4, 0.5]


def test_asymptotic_sweep_stops_at_q_max(capsys):
    # 0.046 / 0.01 = 4.6 steps: the sweep ends at 0.04, not at the rounded 0.05
    code, out, _ = _run(
        capsys, ["asymptotic", "--dim", "2", "--q-min", "0", "--q-max", "0.046", "--q-step", "0.01"]
    )
    assert code == 0
    _, rows = _rows(out)
    assert [float(r[2]) for r in rows] == [0.0, 0.01, 0.02, 0.03, 0.04]


def test_asymptotic_no_negative_zero(capsys):
    _, out, _ = _run(capsys, ["asymptotic", "--dim", "2", "--q", "0"])
    assert "-0" not in out


def test_finite_key_row_count_and_terms(capsys):
    code, out, _ = _run(
        capsys,
        ["finite-key", "--dim", "2", "--n-min", "1000", "--n-max", "100000", "--n-points", "3"],
    )
    assert code == 0
    header, rows = _rows(out)
    assert len(rows) == 3
    assert [int(r[header.index("n")]) for r in rows] == [1000, 10000, 100000]
    assert "holevo_worst" in header and "smooth_coefficient" in header
    first = dict(zip(header, rows[0]))
    assert float(first["r_n"]) == 0.0
    last = dict(zip(header, rows[-1]))
    assert float(last["r_n"]) > 0.0
    assert float(last["smooth_coefficient"]) == 5.0


def test_repeat_runs_byte_identical(capsys):
    for argv in (
        ["critical-q", "--dims", "2,3", "--family", "dplus1", "--format", "json"],
        ["asymptotic", "--dim", "3", "--q-max", "0.12"],
        ["finite-key", "--dim", "3", "--n-min", "10000", "--n-max", "10000", "--n-points", "1"],
        ["simulate", "--dim", "2", "--q", "0.1", "--rounds", "5000", "--seed", "7"],
        ["verify", "--dims", "2,3"],
    ):
        _, first, _ = _run(capsys, argv)
        _, second, _ = _run(capsys, argv)
        assert first == second and first


def test_out_flag_matches_stdout(capsys, tmp_path):
    argv = ["critical-q", "--dims", "2..5", "--family", "two-basis"]
    _, stdout_text, _ = _run(capsys, argv)
    target = tmp_path / "table.csv"
    code, out, _ = _run(capsys, argv + ["--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == stdout_text


@pytest.mark.parametrize("target", ["missing-dir/out.txt", "."], ids=["missing-directory", "directory"])
def test_unwritable_out_exits_2_with_one_line(capsys, monkeypatch, tmp_path, target):
    # the path is refused before any work: no command reaches its computation
    def refuse(*args, **kwargs):
        raise AssertionError("the command ran before its --out path was checked")

    # each command imports its computation from the home module when it runs
    for module, name in (
        (quditkd.rates_asymptotic, "critical_q"),
        (quditkd.rates_asymptotic, "r_infinity"),
        (quditkd.rates_finite, "optimize_r_finite"),
        (quditkd.simulator, "run_simulation"),
        (quditkd.verification, "run_suite"),
    ):
        monkeypatch.setattr(module, name, refuse)
    path = str(tmp_path / target)
    for argv in (
        ["critical-q", "--dims", "2"],
        ["asymptotic", "--dim", "3", "--q", "0.05"],
        ["finite-key", "--dim", "2", "--n-min", "1000", "--n-max", "1000"],
        ["simulate", "--dim", "13", "--family", "dplus1", "--q", "0.1", "--rounds", "1e7", "--seed", "1"],
        ["verify", "--dims", "2"],
    ):
        code, out, err = _run(capsys, argv + ["--out", path])
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1, argv


def test_failed_command_leaves_the_out_path_as_it_was(capsys, tmp_path):
    existing = tmp_path / "existing.json"
    existing.write_bytes(b"earlier output\n")
    absent = tmp_path / "absent.json"
    no_seed = ["simulate", "--dim", "2", "--q", "0.1", "--rounds", "100"]
    for target in (existing, absent):
        code, out, err = _run(capsys, no_seed + ["--out", str(target)])
        assert code == 2 and out == "" and err.startswith("error:")
    assert existing.read_bytes() == b"earlier output\n"
    assert not absent.exists()


def test_simulate_json_output(capsys):
    code, out, _ = _run(
        capsys, ["simulate", "--dim", "2", "--q", "0.1", "--rounds", "20000", "--seed", "42"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == 1 and obj["command"] == "simulate"
    assert obj["config"]["dim"] == 2 and obj["config"]["q"] == 0.1
    assert obj["config"]["basis_probs"] == [0.5, 0.5]
    assert obj["all_passed"] is True and obj["fast"] is False
    assert len(obj["per_basis"]) == 2
    matched = sum(b["matched"] for b in obj["per_basis"])
    assert matched == obj["sifted_count"]
    for b in obj["per_basis"]:
        assert sum(sum(row) for row in b["counts"]) == b["matched"]
        assert b["passed"] is True


def test_simulate_gives_no_verdict_on_a_basis_too_rare_to_test(capsys):
    # the second basis sifts one round, 0.004 expected counts per class:
    # pooled into one class it has no degrees of freedom left to test
    argv = ["simulate", "--dim", "13", "--q", "5%", "--rounds", "1e6", "--seed", "1", "--basis-probs", "0.999,0.001"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    rare = json.loads(out)["per_basis"][1]
    assert (rare["matched"], rare["dof"], rare["threshold"], rare["passed"]) == (1, 0, None, True)


def test_simulate_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# Monte Carlo check\n"
        "dim = 3\n"
        "family = dplus1\n"
        "q = 5%   # depolarizing\n"
        "rounds = 8000\n"
        "seed = 13\n",
        encoding="utf-8",
    )
    code, out, _ = _run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 0
    obj = json.loads(out)
    assert obj["config"]["family"] == "dplus1" and obj["config"]["q"] == 0.05
    assert len(obj["per_basis"]) == 4

    # flags override the file
    code, out, _ = _run(capsys, ["simulate", "--config", str(cfg), "--seed", "14"])
    assert json.loads(out)["config"]["seed"] == 14


def test_simulate_rounds_accept_scientific_notation(capsys, tmp_path):
    base = ["simulate", "--dim", "3", "--q", "0.05", "--seed", "5"]
    code, plain, _ = _run(capsys, base + ["--rounds", "10000"])
    assert code == 0
    assert _run(capsys, base + ["--rounds", "1e4"]) == (0, plain, "")
    cfg = tmp_path / "sci.cfg"
    cfg.write_text("dim = 3\nq = 0.05\nrounds = 1E4\nseed = 5\n", encoding="utf-8")
    assert _run(capsys, ["simulate", "--config", str(cfg)]) == (0, plain, "")


def test_simulate_flags_and_config_keys_share_their_parsers():
    # a config value goes through the parser of its flag; a new flag needs
    # a table entry, and a changed parser must change both
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = {
        a.dest: a for a in sub.choices["simulate"]._actions
        if not isinstance(a, argparse._HelpAction) and a.dest not in ("config", "out")
    }
    assert set(actions) == set(_SIM_PARSERS)
    for dest, action in actions.items():
        assert action.type is _SIM_PARSERS[dest] and action.default is None, dest
    assert actions["family"].choices == [f.value for f in Family]


def test_domain_errors_exit_2(capsys):
    cases = [
        ["critical-q", "--dims", "4", "--family", "dplus1"],
        ["simulate", "--dim", "2", "--q", "0.1", "--rounds", "1000"],  # no seed
        ["asymptotic", "--dim", "3", "--q-step", "0"],
        ["finite-key", "--dim", "2", "--n-min", "0"],
    ]
    for argv in cases:
        code, out, err = _run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:")
        assert out == ""


def test_finite_key_n_bounds_accept_scientific_notation(capsys):
    tail = ["--n-points", "1"]
    code, sci, _ = _run(capsys, ["finite-key", "--dim", "2", "--n-min", "1e3", "--n-max", "1e3"] + tail)
    assert code == 0
    _, plain, _ = _run(capsys, ["finite-key", "--dim", "2", "--n-min", "1000", "--n-max", "1000"] + tail)
    assert sci == plain


def test_bad_input_exits_2_without_traceback(capsys, tmp_path):
    sim = ["simulate", "--q", "0.1", "--rounds", "1000"]
    low_dim = tmp_path / "low_dim.cfg"
    low_dim.write_text("dim=1\nq=0.1\nrounds=100\nseed=1\n", encoding="utf-8")
    big_seed = tmp_path / "big_seed.cfg"
    big_seed.write_text(f"dim=2\nq=0.1\nrounds=100\nseed={2**128}\n", encoding="utf-8")
    nan_q = tmp_path / "nan_q.cfg"
    nan_q.write_text("dim=2\nq=nan\nrounds=100\nseed=1\n", encoding="utf-8")
    many_rounds = tmp_path / "many_rounds.cfg"
    many_rounds.write_text(f"dim=2\nq=0.1\nrounds={MAX_ROUNDS + 1}\nseed=1\n", encoding="utf-8")
    bad_probs = tmp_path / "bad_probs.cfg"
    bad_probs.write_text("dim=2\nq=0.1\nrounds=100\nseed=1\nbasis_probs=a,b\n", encoding="utf-8")
    bad_family = tmp_path / "bad_family.cfg"
    bad_family.write_text("dim=2\nq=0.1\nrounds=100\nseed=1\nfamily=bogus\n", encoding="utf-8")
    fast_on = tmp_path / "fast_on.cfg"
    fast_on.write_text("dim=2\nq=0.1\nrounds=100\nseed=1\nfast=on\n", encoding="utf-8")
    cases = [
        ["critical-q", "--dims", "1"],
        ["verify", "--dims", "0"],
        ["asymptotic", "--dim", "1"],
        ["asymptotic", "--dim", "3", "--q", "nan"],
        ["finite-key", "--dim", "1"],
        ["finite-key", "--dim", "2", "--n-min", "999.5"],
        ["finite-key", "--dim", "2", "--n-max", "inf"],
        ["finite-key", "--dim", "2", "--n-min", "0e0"],
        # counts above the float range
        ["finite-key", "--dim", "2", "--n-min", "1000", "--n-max", "1" + "0" * 400, "--n-points", "2"],
        ["finite-key", "--dim", "2", "--n-min", "1" + "0" * 400, "--n-max", "1" + "0" * 400, "--n-points", "1"],
        sim + ["--dim", "1", "--seed", "1"],
        sim + ["--dim", "2", "--seed", "-1"],
        ["simulate", "--config", str(low_dim)],
        ["simulate", "--config", str(big_seed)],
        ["simulate", "--config", str(nan_q)],
        ["simulate", "--config", str(bad_probs)],
        ["simulate", "--config", str(bad_family)],
        sim + ["--dim", "2", "--seed", "1", "--basis-probs", "nan,0.5"],
        # the dimension alone picks the sampling path: there is no fast setting
        sim + ["--dim", "2", "--seed", "1", "--fast", "on"],
        ["simulate", "--config", str(fast_on)],
        # resource caps, refused before any work
        ["asymptotic", "--dim", "3", "--q-step", "1e-12"],
        ["asymptotic", "--dim", "3", "--q-min", "0.3", "--q-max", "0.1"],
        ["finite-key", "--dim", "2", "--n-points", str(MAX_N_POINTS + 1)],
        sim + ["--dim", "2", "--seed", "1", "--rounds", str(MAX_ROUNDS + 1)],
        ["simulate", "--config", str(many_rounds)],
        ["asymptotic", "--dim", str(MAX_DIM + 1)],
        ["verify", "--dims", f"2,{MAX_DIM + 1}"],
        ["critical-q", "--dims", "2..1000000000"],
        # argparse-level errors: a capped dimension, a bad choice, a missing flag
        ["verify", "--dims", str(MAX_DIM + 1)],
        ["critical-q", "--dims", "2", "--family", "three-basis"],
        ["finite-key", "--q", "0.05"],
    ]
    for argv in cases:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2, argv
        assert "Traceback" not in captured.err, argv
        assert "depolarizing limit" not in captured.err, argv
        assert captured.out == "", argv
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1, argv
    # a reversed sweep names the range flags
    main(["asymptotic", "--dim", "3", "--q-min", "0.3", "--q-max", "0.1"])
    assert "--q-min" in capsys.readouterr().err


@pytest.mark.parametrize("family, dim", (("two-basis", "2"), ("dplus1", "3")))
def test_a_budget_too_small_to_split_exits_2_with_one_line(capsys, family, dim):
    # the optimizer splits eps - eps_EC into shares of 5e-5 and less: below
    # the least normal float the smallest of them round to 0, so that budget
    # is refused, while any eps_EC has a finite log2(2/eps_EC)
    grid = [10.0**-e for e in range(5, 324, 25)] + [sys.float_info.min, 1e-315, 1e-320, 5e-323, 5e-324]
    for eps in grid:
        for eps_ec in (e for e in grid if e < eps):
            argv = ["finite-key", "--dim", dim, "--family", family, "--eps", repr(eps), "--eps-ec", repr(eps_ec),
                    "--n-points", "1"]
            code, out, err = _run(capsys, argv)
            assert code == (0 if eps - eps_ec >= sys.float_info.min else 2), argv
            if code == 2:
                assert out == "" and err.startswith("error:") and err.count("\n") == 1, argv
            else:
                assert err == "" and "inf" not in out and "nan" not in out, argv


@pytest.mark.parametrize("family, dim, n_ends", ((Family.TWO_BASIS, 2, (1, 3)), (Family.DPLUS1, 31, (10, 900))))
def test_an_out_of_range_q_exits_2_at_every_n(capsys, family, dim, n_ends):
    # below (d + 1)^2 signals every p01 leaves some basis without a sample,
    # so no rate is evaluated; Q is refused all the same, and the
    # depolarizing limit (d - 1)/d itself is still accepted
    spec = ProtocolSpec(family, dim)
    limit = (dim - 1) / dim
    refused = (math.nextafter(-ENTRY_SLACK, -1.0), -3.0, math.nextafter(limit + ENTRY_SLACK, 1.0), 7.0)
    for q in (*refused, limit):
        argv = ["finite-key", "--dim", str(dim), "--family", family.value, f"--q={q!r}",
                "--n-min", str(n_ends[0]), "--n-max", str(n_ends[1]), "--n-points", "2"]
        code, out, err = _run(capsys, argv)
        calls = [
            call
            for n_signals in n_ends
            for call in (
                (optimize_r_finite, (spec, q, n_signals, 1e-5, 1e-10)),
                (r_finite, (spec, q, FiniteKeyBudget(n_signals, 1e-5, 1e-10), FreeParams(0.5, 1e-7, 1e-7, 1e-7))),
            )
        ]
        if q == limit:
            assert code == 0 and [row[-1] for row in _rows(out)[1]] == ["1", "1"], argv
            assert all(function(*args).degenerate for function, args in calls)
            continue
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1, argv
        for function, args in calls:
            with pytest.raises(OutOfRange):
                function(*args)


@pytest.mark.parametrize("command, dims, low", (("critical-q", "-1..3", -1), ("verify", "-3..5", -3)))
def test_a_negative_dimension_range_is_refused_as_a_dimension(capsys, command, dims, low):
    # argparse takes a token such as -1..3 for an option unless the parser
    # says otherwise; with a space or with '=', the message names the dimension
    for argv in ([command, "--dims", dims], [command, f"--dims={dims}"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err == f"error: quditkd {command}: argument --dims: dimension must be in [2, {MAX_DIM}], got {low}\n"


@pytest.mark.parametrize("command, dims, twice", (("critical-q", "2,3,2", 2), ("verify", "3..5,4", 4)))
def test_a_dimension_named_twice_is_refused(capsys, command, dims, twice):
    # --dims names each dimension once, so it holds at most MAX_DIM - 1 of them
    with pytest.raises(SystemExit) as exc:
        main([command, "--dims", dims])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    message = f"argument --dims: dimension {twice} named twice in {dims!r}"
    assert captured.err == f"error: quditkd {command}: {message}\n"


def test_config_file_is_read_up_to_its_cap(capsys, tmp_path):
    body = "dim=2\nq=0.1\nrounds=100\nseed=1\n"
    at_cap = tmp_path / "at_cap.cfg"
    at_cap.write_bytes(body.encode() + b"#" * (MAX_CONFIG_BYTES - len(body)))
    code, out, _ = _run(capsys, ["simulate", "--config", str(at_cap)])
    assert code == 0 and json.loads(out)["config"]["dim"] == 2

    over_cap = tmp_path / "over_cap.cfg"
    over_cap.write_bytes(body.encode() + b"#" * (MAX_CONFIG_BYTES + 1 - len(body)))
    code, out, err = _run(capsys, ["simulate", "--config", str(over_cap)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(MAX_CONFIG_BYTES) in err and err.count("\n") == 1

    not_utf8 = tmp_path / "not_utf8.cfg"
    not_utf8.write_bytes(b"dim=2\nq=\xff\n")
    code, _, err = _run(capsys, ["simulate", "--config", str(not_utf8)])
    assert code == 2 and err.startswith("error: cannot read config") and err.count("\n") == 1


def test_bad_config_files_exit_2(capsys, tmp_path):
    broken = tmp_path / "broken.cfg"
    broken.write_text("dim 2\n", encoding="utf-8")
    code, _, err = _run(capsys, ["simulate", "--config", str(broken)])
    assert code == 2 and "expected key=value" in err

    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("dim=2\nq=0.1\nrounds=100\nseed=1\ncolour=red\n", encoding="utf-8")
    code, _, err = _run(capsys, ["simulate", "--config", str(unknown)])
    assert code == 2 and "unknown config keys" in err

    code, _, err = _run(capsys, ["simulate", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2 and "cannot read config" in err


def test_verify_reports_and_exit_codes(capsys, monkeypatch, tmp_path):
    code, out, _ = _run(capsys, ["verify", "--dims", "2,3"])
    assert code == 0
    assert "0 failures" in out.strip().splitlines()[-1]

    def rigged(dims):
        return [CheckResult("unitarity", 2, False, 1.0)]

    monkeypatch.setattr(quditkd.verification, "run_suite", rigged)
    code, out, _ = _run(capsys, ["verify", "--dims", "2"])
    assert code == 3
    assert "FAIL" in out and "1 failures" in out
    # a failing suite still writes its whole report to --out
    report = tmp_path / "report.txt"
    code, stdout, _ = _run(capsys, ["verify", "--dims", "2", "--out", str(report)])
    assert code == 3 and stdout == ""
    assert report.read_text(encoding="utf-8") == out


def test_verify_matches_its_golden_byte_for_byte(capsys):
    # a batched product that reordered one summation would move a printed
    # max_err by an ulp; this pins the whole report
    for golden, dims in (("readme-cli/verify-2-19.txt", "2..7,13,19"),
                         ("simulate-verify/verify-2-23.txt", "2..7,13,19,23")):
        code, out, _ = _run(capsys, ["verify", "--dims", dims])
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("request_", FINITE_KEY_REQUESTS, ids=lambda r: r.key)
def test_finite_key_matches_its_golden_byte_for_byte(capsys, request_):
    # one finite-key evaluator serves the coarse grid and the refine phases;
    # a changed float operation in either would move a printed digit
    golden = (GOLDEN / "finite-key" / f"{request_.golden_key}.csv").read_text(encoding="utf-8")
    code, out, _ = _run(capsys, list(request_.argv))
    assert code == 0
    assert out == golden


@pytest.mark.parametrize("request_", FINITE_KEY_REQUESTS, ids=lambda r: r.key)
def test_finite_key_runs_no_numpy_sort_or_spacing_routine(capsys, monkeypatch, request_):
    # Each numpy routine maps its own resident pages at its first call, and a
    # finite-key request is a fresh process: after `import quditkd.cli`, the
    # first `np.unique(..., return_inverse=True)` on 61 floats grew the
    # resident set by 584 KB and the first `np.logspace` by 196 KB (x86-64,
    # numpy 2.4). The eps_PE dedup, the degeneracy test and the N grid work
    # on a few dozen values, so they stay in plain Python and numpy's own
    # float operations; the output must not move.
    def refusing(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"finite-key called np.{name}")
        return refuse

    for name in ("unique", "sort", "argsort", "lexsort", "logspace", "linspace"):
        monkeypatch.setattr(np, name, refusing(name))
    golden = (GOLDEN / "finite-key" / f"{request_.golden_key}.csv").read_text(encoding="utf-8")
    code, out, err = _run(capsys, list(request_.argv))
    assert (code, err) == (0, "")
    assert out == golden


@pytest.mark.parametrize("workload, request_", SIMULATE_REQUESTS)
def test_simulate_matches_its_golden_byte_for_byte(capsys, monkeypatch, workload, request_):
    # the streamed basis labels must be the draws of one rng.choice call;
    # one changed draw would move a matched count or a table cell
    monkeypatch.chdir(BENCH.parent)  # the config request names its file from the repository root
    golden = json.loads(BENCH_WORKLOADS.golden_path(workload, request_).read_text(encoding="utf-8"))
    code, out, _ = _run(capsys, list(request_.argv))
    assert code == 0
    assert BENCH_WORKLOADS.json_view(json.loads(out)) == golden


def test_simulate_goldens_expect_enough_counts_in_every_class():
    # the chi-square pools the classes expected fewer than _MIN_EXPECTED
    # times; no golden basis has one, so pooling changes no golden verdict
    paths = sorted(GOLDEN.glob("*/sim-*.json"))
    assert len(paths) == len(SIMULATE_REQUESTS)
    for path in paths:
        for basis in json.loads(path.read_text(encoding="utf-8"))["per_basis"]:
            expected = [basis["matched"] * q for q in basis["analytic_q"] if q > 1e-15]
            assert min(expected) >= _MIN_EXPECTED, path.name


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["verify", "--dims", "2..7"], ["critical-q", "--dims", "2,3,5"]], ids=lambda a: a[0])
def test_a_closed_stdout_exits_1_without_a_traceback(argv, unbuffered):
    # the write end of a pipe whose read end is closed: every write fails
    # with EPIPE, unbuffered at the write and buffered at the flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(BENCH.parent / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "quditkd", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


def _process(*argv: str) -> subprocess.CompletedProcess:
    """`python -m quditkd argv` in a fresh process on this tree's `src/`."""
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    return subprocess.run(
        [sys.executable, "-m", "quditkd", *argv], env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["critical-q", "--dims", "2,3,5", "--family", "dplus1"], 0),
        (["asymptotic", "--dim", "6", "--family", "dplus1", "--q", "0.05"], 2),
        # each of the 32 bases is tested at 0.999 with no correction (ROADMAP item 13): one fails on this seed
        (["simulate", "--dim", "31", "--family", "dplus1", "--q", "5%", "--rounds", "1e6", "--seed", "3"], 3),
    ],
    ids=["success", "domain-error", "failed-verdict"],
)
def test_a_process_exits_with_the_code_and_output_of_main(capsys, argv, exit_code):
    # the entry freezes the objects left before the interpreter exits
    done = _process(*argv)
    assert (done.returncode, done.stdout, done.stderr) == _run(capsys, argv)
    assert done.returncode == exit_code


def test_a_process_leaves_the_complete_out_file(capsys, tmp_path):
    argv = ["asymptotic", "--dim", "3", "--q-min", "0", "--q-max", "0.6", "--q-step", "0.001", "--format", "json"]
    out = tmp_path / "rates.json"
    done = _process(*argv, "--out", str(out))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    text = out.read_text(encoding="utf-8")
    assert text == _run(capsys, argv)[1] and len(json.loads(text)["rows"]) == 601


def test_the_process_entry_freezes_before_exit_and_main_does_not(capsys):
    # an atexit handler runs after `run` has returned control to the interpreter
    code = (
        "import atexit, gc, sys; from quditkd.cli import run; "
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr)); "
        "sys.argv[1:] = ['critical-q', '--dims', '2']; run()"
    )
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "frozen True\n")
    assert main(["critical-q", "--dims", "2"]) == 0 and capsys.readouterr().out == done.stdout
    assert gc.get_freeze_count() == 0
