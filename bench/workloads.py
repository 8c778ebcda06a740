"""Request lists of the three benchmark workloads and the checks on their output.

Each request is one `python -m quditkd ...` command. A workload is a fixed
list of requests; the workload seed shuffles the list for every pass and
picks each `simulate --seed` from SIM_SEEDS, for which golden outputs were
recorded at the seed commit (see record_golden.py).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"
SIM_CONFIG = "bench/inputs/sim_two_basis_d2.cfg"

# simulate seeds with recorded goldens; every run draws from this pool
SIM_SEEDS = (7, 42, 1009, 65537, 271828)

# finite-key header at the seed commit; later versions may append columns
FINITE_KEY_COLUMNS = (
    "d", "family", "n", "r_n", "p01", "eps_pa", "eps_pe", "eps_bar",
    "holevo_worst", "h_ab", "ec_term", "pa_term", "smooth_term",
    "smooth_coefficient", "saturated", "degenerate",
)
REBUILD_RTOL = 1e-6
FK_Q = "0.05"


@dataclass(frozen=True)
class Request:
    """One CLI invocation. `kind` picks the output check: text, json or finite-key."""

    key: str
    argv: tuple[str, ...]
    kind: str
    sim_seed: int | None = None

    @property
    def golden_key(self) -> str:
        return self.key if self.sim_seed is None else f"{self.key}.seed{self.sim_seed}"

    def with_seed(self, seed: int) -> "Request":
        return Request(self.key, self.argv + ("--seed", str(seed)), self.kind, seed)


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple[Request, ...]
    # about how long one pass took at the seed commit; round(--seconds / this)
    # fixes the number of passes, so every commit runs the same requests
    nominal_pass_s: float


def _sim(key: str, *argv: str) -> Request:
    return Request(key, ("simulate",) + argv, "json")


def _fk(d: int, family: str, n_max: str) -> Request:
    argv = ("finite-key", "--dim", str(d), "--family", family, "--q", FK_Q,
            "--eps", "1e-5", "--eps-ec", "1e-10",
            "--n-min", "1000", "--n-max", n_max, "--n-points", "3")
    return Request(f"fk-{family}-d{d}", argv, "finite-key")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "readme-cli",
            (
                Request("critical-q-two-basis", ("critical-q", "--dims", "2..7"), "text"),
                Request("critical-q-dplus1-json",
                        ("critical-q", "--dims", "2,3,5", "--family", "dplus1", "--format", "json"), "json"),
                Request("asymptotic-point", ("asymptotic", "--dim", "3", "--family", "dplus1", "--q", "5%"), "text"),
                Request("asymptotic-sweep",
                        ("asymptotic", "--dim", "3", "--q-min", "0", "--q-max", "0.25", "--q-step", "0.01"), "text"),
                Request("verify-2-19", ("verify", "--dims", "2..7,13,19"), "text"),
                _sim("sim-dplus1-d3-1e6", "--dim", "3", "--family", "dplus1", "--q", "5%", "--rounds", "1000000"),
            ),
            nominal_pass_s=10.0,
        ),
        Workload(
            "finite-key",
            (
                _fk(2, "two-basis", "1000000000"),
                _fk(6, "two-basis", "1000000000"),
                _fk(5, "dplus1", "1000000000000"),
                _fk(11, "dplus1", "1000000000000"),
            ),
            nominal_pass_s=30.0,
        ),
        Workload(
            "simulate-verify",
            (
                _sim("sim-dplus1-d3-1e7", "--dim", "3", "--family", "dplus1", "--q", "5%", "--rounds", "10000000"),
                _sim("sim-dplus1-d11-1e7", "--dim", "11", "--family", "dplus1", "--q", "5%", "--rounds", "10000000"),
                _sim("sim-dplus1-d13-1e7", "--dim", "13", "--family", "dplus1", "--q", "5%", "--rounds", "10000000"),
                _sim("sim-config-two-basis-d2", "--config", SIM_CONFIG),
                Request("verify-2-23", ("verify", "--dims", "2..7,13,19,23"), "text"),
            ),
            nominal_pass_s=15.0,
        ),
    )
}


def pass_count(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / workload.nominal_pass_s))


def plan(workload: Workload, seed: int, passes: int) -> list[list[Request]]:
    """Request order and simulate seeds of every pass, fixed by the workload seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    out = []
    for _ in range(passes):
        order = rng.sample(workload.requests, len(workload.requests))
        out.append([
            r.with_seed(rng.choice(SIM_SEEDS)) if r.argv[0] == "simulate" else r
            for r in order
        ])
    return out


# ---------------------------------------------------------------------------
# output checks; each returns None when the output is right, else the reason


def json_view(obj: dict) -> dict:
    """The fields compared for JSON output; schema_version may change freely."""
    keys = ("command", "params", "config", "rows", "per_basis")
    return {k: obj[k] for k in keys if k in obj}


def golden_path(workload: str, req: Request) -> Path:
    suffix = {"text": ".txt", "json": ".json", "finite-key": ".csv"}[req.kind]
    return GOLDEN_DIR / workload / (req.golden_key + suffix)


def check_output(workload: str, req: Request, stdout: str, finite_diffs: list[int]) -> str | None:
    path = golden_path(workload, req)
    try:
        golden = path.read_text(encoding="utf-8")
    except OSError as exc:
        return f"cannot read golden {path.name}: {exc}"
    if req.kind == "text":
        return None if stdout == golden else "output differs from golden"
    if req.kind == "json":
        try:
            got, want = json_view(json.loads(stdout)), json.loads(golden)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            return f"bad JSON: {exc}"
        return None if got == want else "JSON differs from golden"
    return check_finite_key(stdout, golden, finite_diffs)


def _asymptotic_rates() -> dict[str, float]:
    return json.loads((GOLDEN_DIR / "finite-key" / "r_inf.json").read_text(encoding="utf-8"))


def check_finite_key(stdout: str, golden: str, diffs: list[int]) -> str | None:
    """Invariants that must survive intended changes to the finite-key numbers.

    Seed columns come first and in order; 0 <= r_n <= r_inf of the same
    (d, family, Q); a positive r_n is rebuilt from its printed terms with
    n = floor(N p01^2). Rows that differ from the golden are counted in
    `diffs`, not failed.
    """
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or tuple(rows[0][: len(FINITE_KEY_COLUMNS)]) != FINITE_KEY_COLUMNS:
        return "finite-key header lost the seed columns"
    header, body = rows[0], rows[1:]
    if not body:
        return "finite-key printed no rows"
    try:
        r_inf = _asymptotic_rates()
    except (OSError, json.JSONDecodeError) as exc:
        return f"cannot read golden r_inf: {exc}"
    for raw in body:
        row = dict(zip(header, raw))
        try:
            d, n_signals = int(row["d"]), int(row["n"])
            r_n, p01 = float(row["r_n"]), float(row["p01"])
            limit = r_inf[f"{row['family']},{d},{FK_Q}"]
            terms = [float(row[k]) for k in ("holevo_worst", "h_ab", "ec_term", "pa_term", "smooth_term")]
        except (KeyError, ValueError) as exc:
            return f"finite-key row {raw!r}: {exc}"
        if not 0.0 <= r_n <= limit:
            return f"r_n={r_n} outside [0, r_inf={limit}] at N={n_signals}"
        if r_n > 0.0:
            n = math.floor(n_signals * p01 * p01)
            rebuilt = (n / n_signals) * (math.log2(d) - sum(terms))
            if abs(rebuilt - r_n) > REBUILD_RTOL * r_n:
                return f"r_n={r_n} does not rebuild from its terms ({rebuilt}) at N={n_signals}"
    want = {tuple(r[:3]): r for r in csv.reader(io.StringIO(golden))}
    diffs.append(sum(want.get(tuple(r[:3])) != r[: len(FINITE_KEY_COLUMNS)] for r in body))
    return None
