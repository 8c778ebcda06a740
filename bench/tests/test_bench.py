"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Request  # noqa: E402


# -- tail percentile ----------------------------------------------------------


@pytest.mark.parametrize("n, p", [(11, 9), (18, 44), (20, 50), (40, 75), (100, 90), (1000, 99)])
def test_tail_percentile_known_counts(n, p):
    assert run.tail_percentile(n) == p


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(11, 400):
        values = [float(v) for v in range(n)]
        p = run.tail_percentile(n)
        at_p = run.nearest_rank(values, p)
        assert sum(v > at_p for v in values) >= 10, n
        if p < 100:
            above = run.nearest_rank(values, p + 1)
            assert sum(v > above for v in values) < 10, n


def test_tail_falls_back_to_max_below_eleven_samples():
    assert run.tail_percentile(10) is None
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, "max")
    assert run.tail_latency([float(v) for v in range(20)]) == (9.0, "p50")


# -- self time ------------------------------------------------------------------


def _tracer_with(spans: list[tuple[str, int, int, int, int]]) -> tracing.Tracer:
    """spans as (name, parent, request, start_ns, end_ns)."""
    tracer = tracing.Tracer()
    for name, parent, request, start, end in spans:
        if name not in tracer.names:
            tracer.names.append(name)
        tracer.spans.extend((tracer.names.index(name), parent, request, start, end))
    return tracer


def test_self_time_subtracts_direct_children():
    tracer = _tracer_with([
        ("cli.main", -1, 0, 0, 100),
        ("rates_finite.r_finite", 0, 0, 10, 60),
        ("info_theory.shannon_entropy", 1, 0, 20, 30),
        ("info_theory.shannon_entropy", 0, 0, 70, 90),
        ("cli.main", -1, 1, 200, 250),
    ])
    summary = tracer.summary()
    assert summary["self_ns"]["cli.main"] == 30 + 50
    assert summary["self_ns"]["rates_finite.r_finite"] == 40
    assert summary["self_ns"]["info_theory.shannon_entropy"] == 10 + 20
    assert summary["busy_ns"]["info_theory.shannon_entropy"] == 30
    assert summary["calls"]["info_theory.shannon_entropy"] == 2
    assert summary["request_root_ns"] == {0: 100, 1: 50}
    assert summary["request_self_ns"] == {0: 100, 1: 50}
    assert tracing.self_time_error(summary) == 0.0


def test_self_time_check_catches_spans_outside_the_root():
    tracer = _tracer_with([
        ("cli.main", -1, 0, 0, 100),
        ("rates_finite.xi", -1, 0, 120, 140),
    ])
    assert tracing.self_time_error(tracer.summary()) == pytest.approx(0.2)


# -- failures -----------------------------------------------------------------


def test_corrupted_golden_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "GOLDEN_DIR", tmp_path)
    req = Request("critical-q-two-basis", ("critical-q", "--dims", "2"), "text")
    (tmp_path / "readme-cli").mkdir()
    golden = workloads.golden_path("readme-cli", req)
    golden.write_text("d,family,q_crit_percent\n2,two-basis,11.00278643\n")
    assert workloads.check_output("readme-cli", req, golden.read_text(), []) is None
    golden.write_text("d,family,q_crit_percent\n2,two-basis,11.00278644\n")
    assert workloads.check_output("readme-cli", req, "d,family,q_crit_percent\n2,two-basis,11.00278643\n", [])
    golden.unlink()
    assert workloads.check_output("readme-cli", req, "anything", [])


def test_corrupted_json_golden_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "GOLDEN_DIR", tmp_path)
    req = Request("sim", ("simulate",), "json", sim_seed=7)
    (tmp_path / "w").mkdir()
    workloads.golden_path("w", req).write_text('{"command":"simulate","per_basis":[1]}')
    # schema_version and fields outside the compared view do not matter
    assert workloads.check_output("w", req, '{"schema_version":2,"command":"simulate","per_basis":[1],"x":0}', []) is None
    assert workloads.check_output("w", req, '{"command":"simulate","per_basis":[2]}', [])
    assert workloads.check_output("w", req, "not json", [])


def test_finite_key_invariants():
    req = next(r for r in workloads.WORKLOADS["finite-key"].requests if r.key == "fk-two-basis-d2")
    golden = workloads.golden_path("finite-key", req).read_text()
    diffs: list[int] = []
    assert workloads.check_finite_key(golden, golden, diffs) is None
    assert diffs == [0]
    header, *rows = golden.splitlines()
    # an appended column is allowed; a changed rate is counted, not failed
    widened = "\n".join([header + ",reason"] + [r + ",ok" for r in rows]) + "\n"
    assert workloads.check_finite_key(widened, golden, diffs) is None
    last = rows[-1].split(",")
    last[3] = f"{float(last[3]) * 0.9:.10g}"
    diffs.clear()
    assert "rebuild" in workloads.check_finite_key("\n".join([header, *rows[:-1], ",".join(last)]), golden, diffs)
    last[3] = "0.99"
    assert "outside" in workloads.check_finite_key("\n".join([header, *rows[:-1], ",".join(last)]), golden, diffs)
    assert "header" in workloads.check_finite_key("n,d\n", golden, diffs)


def test_nonzero_exit_is_a_failure(monkeypatch):
    monkeypatch.chdir(REPO)
    req = Request("q-out-of-range", ("asymptotic", "--dim", "3", "--q", "0.9"), "text")
    outcome = run.run_request("readme-cli", req, 60.0, [])
    assert outcome.exit_code == 2
    assert outcome.error.startswith("exit code 2")


def test_plan_is_fixed_by_the_seed():
    wl = workloads.WORKLOADS["readme-cli"]
    assert workloads.plan(wl, 5, 3) == workloads.plan(wl, 5, 3)
    assert workloads.plan(wl, 5, 3) != workloads.plan(wl, 6, 3)
    for requests in workloads.plan(wl, 5, 3):
        assert sorted(r.key for r in requests) == sorted(r.key for r in wl.requests)
        assert all(r.sim_seed in workloads.SIM_SEEDS for r in requests if r.argv[0] == "simulate")


# -- tracing ------------------------------------------------------------------


def _bindings() -> dict[tuple[str, str], object]:
    """Every quditkd namespace binding of a traced function."""
    import quditkd.cli  # noqa: F401

    targets = {
        id(getattr(sys.modules[f"quditkd.{m}"], f))
        for m, funcs in tracing.TARGETS.items()
        for f in funcs
    }
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "quditkd" or name.startswith("quditkd.")
        for attr, value in vars(mod).items()
        if id(value) in targets
    }


def test_wrappers_cover_every_namespace_and_are_removed():
    import quditkd.cli as cli

    before = _bindings()
    # names bound by `from ... import` in other modules are covered too
    assert ("quditkd.verification", "bell_matrix") in before
    assert ("quditkd.simulator", "as_prob_vector") in before
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, attr), original in before.items():
            assert getattr(sys.modules[mod], attr) is not original, (mod, attr)
        tracer.request = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["critical-q", "--dims", "2"]) == 0
    finally:
        tracer.uninstall()
    for (mod, attr), original in before.items():
        assert getattr(sys.modules[mod], attr) is original, (mod, attr)
    summary = tracer.summary()
    assert summary["calls"]["cli.main"] == 1
    assert summary["calls"]["rates_asymptotic.critical_q"] == 1
    assert summary["calls"]["rates_asymptotic.r_infinity"] > 2
    assert tracing.self_time_error(summary) == 0.0


def test_speedometer_counts_and_stops():
    with run.Speedometer() as speedo:
        first = speedo.read()
        deadline = time.monotonic() + 30.0
        while speedo.read() == first and time.monotonic() < deadline:
            time.sleep(0.01)
        assert speedo.read() > first
        proc = speedo._proc
    assert proc.poll() is not None


def test_missing_target_is_skipped(monkeypatch):
    import quditkd.cli  # noqa: F401

    monkeypatch.setitem(tracing.TARGETS, "rates_finite", ("xi", "no_such_function"))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["rates_finite.no_such_function"]
