"""Command-line front end.

Subcommands compute critical-noise tables, asymptotic and finite-key rate
sweeps, Monte Carlo validation runs, and the algebraic self-check suite.
Table output is CSV (default) or JSON; numbers are emitted at 10 significant
digits so files round-trip exactly. All commands are deterministic for fixed
inputs and seed.

Exit codes: 0 success, 2 usage or domain error (one `error:` line on
stderr), 3 verification or statistical failure. Inputs that would make a
command run or allocate without bound are refused against the MAX_* caps
below, before any work.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from typing import Any, NoReturn, Sequence

import numpy as np

from . import verification
from .channels import depolarizing_spectrum
from .errors import QkdError
from .protocol import Family, ProtocolSpec
from .rates_asymptotic import critical_q, r_infinity
from .rates_finite import TERMS, FluxMode, optimize_r_finite
from .simulator import SimConfig, SimResult, run_simulation, sifting_fraction

MAX_DIM = 32  # verify builds a d^2 x d^2 complex Gram matrix (16 MB at the cap)
MAX_SWEEP = 10_000  # Q values in one asymptotic sweep
MAX_N_POINTS = 50  # finite-key N values; each is one optimizer run (about 0.5 s at d = 31)
MAX_ROUNDS = 10**7  # simulate rounds; bounds run time, which grows linearly with rounds
MAX_CONFIG_BYTES = 65536  # simulate --config file; a real config is under 1 KB


def parse_dim(text: str) -> int:
    """One qudit dimension in [2, MAX_DIM]."""
    d = int(text)
    if not 2 <= d <= MAX_DIM:
        raise argparse.ArgumentTypeError(f"dimension must be in [2, {MAX_DIM}], got {d}")
    return d


def parse_dims(text: str) -> list[int]:
    """Comma-separated dimensions in [2, MAX_DIM]; 'a..b' expands to the inclusive range."""
    dims: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            lo_s, hi_s = token.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty range {token!r}")
            if lo < 2 or hi > MAX_DIM:
                raise argparse.ArgumentTypeError(f"range {token!r} leaves [2, {MAX_DIM}]")
            dims.extend(range(lo, hi + 1))
        else:
            dims.append(int(token))
    if not dims or not 2 <= min(dims) <= max(dims) <= MAX_DIM:
        raise argparse.ArgumentTypeError(f"need one or more dimensions in [2, {MAX_DIM}], got {text!r}")
    return dims


def parse_q(text: str) -> float:
    """Finite noise as a fraction ('0.05') or percentage ('5%')."""
    text = text.strip()
    q = float(text[:-1]) / 100.0 if text.endswith("%") else float(text)
    if not math.isfinite(q):
        raise argparse.ArgumentTypeError(f"noise must be finite, got {text!r}")
    return q


def parse_count(text: str) -> int:
    """An integer in the float range, also as '1e3' or '1E12'; `_n_grid` refuses counts below 1."""
    try:
        count = int(text)
    except ValueError:
        value = float(text)
        if not value.is_integer():  # also rejects nan and inf
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        count = int(value)
    if count > sys.float_info.max:  # the finite-key sample sizes are floats
        raise argparse.ArgumentTypeError(f"count above the float range ({sys.float_info.max:.6g})")
    return count


def parse_probs(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(",") if t.strip())


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value + 0.0:.10g}"
    return str(value)


def _jnum(value: Any) -> Any:
    # floats squeezed through the same 10-significant-digit gate as CSV
    if isinstance(value, float):
        return float(f"{value + 0.0:.10g}")
    return value


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_table(
    command: str,
    params: dict[str, Any],
    columns: Sequence[str],
    rows: list[dict[str, Any]],
    fmt: str,
    out: str | None,
) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        _write_output(buf.getvalue(), out)
    else:
        obj = {
            "schema_version": 1,
            "command": command,
            "params": {k: _jnum(v) for k, v in params.items()},
            "rows": [{c: _jnum(row[c]) for c in columns} for row in rows],
        }
        _write_output(json.dumps(obj, indent=2) + "\n", out)


def cmd_critical_q(args: argparse.Namespace) -> int:
    family = Family(args.family)
    rows = []
    for d in args.dims:
        spec = ProtocolSpec(family, d)
        rows.append({"d": d, "family": family.value, "q_crit_percent": 100.0 * critical_q(spec)})
    _emit_table(
        "critical-q",
        {"dims": args.dims, "family": family.value},
        ("d", "family", "q_crit_percent"),
        rows,
        args.format,
        args.out,
    )
    return 0


def _q_sweep(args: argparse.Namespace, d: int) -> list[float]:
    if args.q is not None:
        values = [args.q]
    else:
        if args.q_step <= 0:
            raise QkdError(f"--q-step must be positive, got {args.q_step}")
        if args.q_max < args.q_min:
            raise QkdError(f"--q-max {args.q_max} is below --q-min {args.q_min}")
        steps = (args.q_max - args.q_min) / args.q_step
        if steps >= MAX_SWEEP:
            raise QkdError(f"sweep of {steps + 1:.3g} Q values exceeds the cap of {MAX_SWEEP}")
        # the last value may not pass q_max; 1e-9 absorbs the rounding of steps
        values = [args.q_min + i * args.q_step for i in range(math.floor(steps + 1e-9) + 1)]
    limit = (d - 1) / d
    kept = [q for q in values if q <= limit + 1e-12]
    if not kept:
        raise QkdError(f"no Q values left inside [0, (d-1)/d = {limit:.6g}]")
    if len(kept) < len(values):
        print(f"warning: dropping Q values above the depolarizing limit (d-1)/d = {limit:.6g}", file=sys.stderr)
    return kept


def cmd_asymptotic(args: argparse.Namespace) -> int:
    spec = ProtocolSpec(Family(args.family), args.dim)
    rows = []
    for q in _q_sweep(args, args.dim):
        rep = r_infinity(spec, q)
        rows.append({"d": args.dim, "family": spec.family.value, **asdict(rep)})
    _emit_table(
        "asymptotic",
        {"dim": args.dim, "family": spec.family.value},
        ("d", "family", "q", "i_e", "h_ab", "r_inf", "r_inf_raw"),
        rows,
        args.format,
        args.out,
    )
    return 0


def _n_grid(n_min: int, n_max: int, n_points: int) -> list[int]:
    if n_min < 1 or n_max < n_min or not 1 <= n_points <= MAX_N_POINTS:
        raise QkdError(f"bad N grid: min={n_min} max={n_max} points={n_points} (at most {MAX_N_POINTS})")
    if n_points == 1:
        return [n_min]
    grid = np.logspace(np.log10(float(n_min)), np.log10(float(n_max)), n_points)
    out: list[int] = []
    for value in grid:
        n = int(round(value))
        if not out or n > out[-1]:
            out.append(n)
    return out


def cmd_finite_key(args: argparse.Namespace) -> int:
    spec = ProtocolSpec(Family(args.family), args.dim)
    mode = FluxMode(args.flux_mode)
    rows = []
    for n_signals in _n_grid(args.n_min, args.n_max, args.n_points):
        rep = optimize_r_finite(spec, args.q, n_signals, args.eps, args.eps_ec, mode=mode)
        row: dict[str, Any] = {
            "d": args.dim, "family": spec.family.value, "n": n_signals, "r_n": rep.r_n,
            **asdict(rep.params),
        }
        for key in TERMS:
            row[key] = float(rep.terms.get(key, 0.0))
        row["saturated"] = int(rep.saturated)
        row["degenerate"] = int(rep.degenerate)
        rows.append(row)
    _emit_table(
        "finite-key",
        {
            "dim": args.dim,
            "family": spec.family.value,
            "q": args.q,
            "eps": args.eps,
            "eps_ec": args.eps_ec,
            "flux_mode": mode.value,
        },
        ("d", "family", "n", "r_n", "p01", "eps_pa", "eps_pe", "eps_bar")
        + TERMS
        + ("saturated", "degenerate"),
        rows,
        args.format,
        args.out,
    )
    return 0


def _load_sim_config(path: str) -> dict[str, str]:
    """Flat key=value file of at most MAX_CONFIG_BYTES; blank lines and '#' comments ignored."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_CONFIG_BYTES + 1)
        if len(data) > MAX_CONFIG_BYTES:
            raise QkdError(f"config {path} exceeds the cap of {MAX_CONFIG_BYTES} bytes")
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise QkdError(f"cannot read config {path}: {exc}") from exc
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise QkdError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


_SIM_KEYS = {"dim", "family", "q", "rounds", "seed", "fast", "basis_probs"}


def _sim_config_from(args: argparse.Namespace) -> tuple[SimConfig, dict[str, Any]]:
    values: dict[str, str] = {}
    if args.config is not None:
        values = _load_sim_config(args.config)
        unknown = set(values) - _SIM_KEYS
        if unknown:
            raise QkdError(f"unknown config keys: {sorted(unknown)}")
    # flags override file values
    for key in ("dim", "family", "q", "rounds", "seed"):
        if getattr(args, key) is not None:
            values[key] = str(getattr(args, key))
    if args.fast != "auto":
        values["fast"] = args.fast
    if args.basis_probs is not None:
        values["basis_probs"] = ",".join(repr(p) for p in args.basis_probs)

    missing = {"dim", "q", "rounds", "seed"} - set(values)
    if missing:
        raise QkdError(f"simulate needs {sorted(missing)} (via --config or flags)")
    try:
        dim = int(values["dim"])
        q = parse_q(values["q"])
        rounds = int(values["rounds"])
        seed = int(values["seed"])
        family = Family(values.get("family", Family.TWO_BASIS.value))
        probs = parse_probs(values["basis_probs"]) if "basis_probs" in values else None
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise QkdError(f"bad config value: {exc}") from exc
    if not 2 <= dim <= MAX_DIM or not 0 <= seed < 2**128:
        raise QkdError(f"need dim in [2, {MAX_DIM}] and seed in [0, 2**128), got dim={dim} seed={seed}")
    if rounds > MAX_ROUNDS:
        raise QkdError(f"rounds={rounds} exceeds the cap of {MAX_ROUNDS}")
    fast_text = values.get("fast", "auto").lower()
    if fast_text not in ("auto", "on", "off"):
        raise QkdError(f"fast must be auto/on/off, got {values['fast']!r}")
    fast = {"auto": None, "on": True, "off": False}[fast_text]

    spec = ProtocolSpec(family, dim)
    cfg = SimConfig(
        spec=spec,
        spectrum=depolarizing_spectrum(spec.dim, q),
        rounds=rounds,
        seed=seed,
        basis_probs=probs,
        fast=fast,
    )
    echo = {
        "dim": dim,
        "family": family.value,
        "q": q,
        "rounds": rounds,
        "seed": seed,
        "fast": fast_text,
        "basis_probs": list(cfg.basis_probs),
    }
    return cfg, echo


def _sim_result_json(result: SimResult, echo: dict[str, Any]) -> str:
    per_basis = []
    for st in result.per_basis:
        per_basis.append(
            {
                "j": st.basis.j,
                "k": st.basis.k,
                "matched": st.matched,
                "counts": st.counts.tolist(),
                "empirical_q": [_jnum(float(v)) for v in st.empirical_q],
                "analytic_q": [_jnum(float(v)) for v in st.analytic_q],
                "chi_square": _jnum(st.chi_square) if st.chi_square is not None else None,
                "dof": st.chi_square_dof,
                "threshold": _jnum(st.chi_square_threshold) if st.chi_square_threshold is not None else None,
                "passed": st.passed,
            }
        )
    obj = {
        "schema_version": 1,
        "command": "simulate",
        "config": {k: _jnum(v) if isinstance(v, float) else v for k, v in echo.items()},
        "sifted_count": result.sifted_count,
        "expected_sift_fraction": _jnum(sifting_fraction(result.config)),
        "fast": result.fast,
        "all_passed": result.all_passed,
        "per_basis": per_basis,
    }
    return json.dumps(obj, indent=2) + "\n"


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg, echo = _sim_config_from(args)
    result = run_simulation(cfg)
    _write_output(_sim_result_json(result, echo), args.out)
    return 0 if result.all_passed else 3


def cmd_verify(args: argparse.Namespace) -> int:
    results = verification.run_suite(args.dims)
    lines = [r.line() for r in results]
    failures = sum(not r.passed for r in results)
    lines.append(f"{len(results)} checks, {failures} failures")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0 if failures == 0 else 3


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write output to this file instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line with exit code 2, like
    every other bad input; subparsers inherit it through `parser_class`."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {self.prog}: {' '.join(message.split())}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quditkd",
        description="Qudit QKD key-rate calculator: critical noise, asymptotic and "
        "finite-key sweeps, Monte Carlo validation, algebraic self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("critical-q", help="noise threshold where the asymptotic rate hits zero")
    p.add_argument("--dims", type=parse_dims, required=True, help="e.g. 2,3,5 or 2..7")
    p.add_argument("--family", choices=[f.value for f in Family], default=Family.TWO_BASIS.value)
    _add_output_flags(p)
    p.set_defaults(func=cmd_critical_q)

    p = sub.add_parser("asymptotic", help="asymptotic rate at one noise value or over a sweep")
    p.add_argument("--dim", type=parse_dim, required=True)
    p.add_argument("--family", choices=[f.value for f in Family], default=Family.TWO_BASIS.value)
    p.add_argument("--q", type=parse_q, default=None, help="single noise value (fraction or N%%)")
    p.add_argument("--q-min", type=parse_q, default=0.0)
    p.add_argument("--q-max", type=parse_q, default=0.25)
    p.add_argument("--q-step", type=parse_q, default=0.01)
    _add_output_flags(p)
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("finite-key", help="optimized finite-size rate over a log-spaced N grid")
    p.add_argument("--dim", type=parse_dim, required=True)
    p.add_argument("--family", choices=[f.value for f in Family], default=Family.TWO_BASIS.value)
    p.add_argument("--q", type=parse_q, default=0.05)
    p.add_argument("--eps", type=float, default=1e-5, help="total security failure budget")
    p.add_argument("--eps-ec", type=float, default=1e-10, help="error-correction failure share")
    p.add_argument("--n-min", type=parse_count, default=10**3, help="e.g. 1000 or 1e3")
    p.add_argument("--n-max", type=parse_count, default=10**8)
    p.add_argument("--n-points", type=int, default=11)
    p.add_argument("--flux-mode", choices=[m.value for m in FluxMode], default=FluxMode.EQUAL.value)
    _add_output_flags(p)
    p.set_defaults(func=cmd_finite_key)

    p = sub.add_parser("simulate", help="Monte Carlo run against the analytic statistics")
    p.add_argument("--config", default=None, help="flat key=value file; flags override")
    p.add_argument("--dim", type=parse_dim, default=None)
    p.add_argument("--family", choices=[f.value for f in Family], default=None)
    p.add_argument("--q", type=parse_q, default=None, help="depolarizing noise (fraction or N%%)")
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fast", choices=("auto", "on", "off"), default="auto",
                   help="sample the difference distribution directly instead of exact projections")
    p.add_argument("--basis-probs", type=parse_probs, default=None, help="comma-separated basis weights")
    p.add_argument("--out", default=None, help="write JSON to this file instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the operator-algebra and statistics self-checks")
    p.add_argument("--dims", type=parse_dims, required=True, help="e.g. 2..7 or 2,3,13")
    p.add_argument("--out", default=None, help="write the report to this file instead of stdout")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QkdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
