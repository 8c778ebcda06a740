"""Command-line front end.

Subcommands compute critical-noise tables, asymptotic and finite-key rate
sweeps, Monte Carlo validation runs, and the algebraic self-check suite.
Each `cmd_*` returns its output text and exit code, and `main` writes the
text once, to stdout or to the `--out` file that every subcommand takes.
This module imports `errors`, `protocol` and light standard modules only;
each `cmd_*` imports the modules it runs, and `json` and `csv` load only
to write their format, so `--help` and a usage error load no numpy and
each command loads only what it computes with and writes.
Table output is CSV (default) or JSON, its columns the keys of the rows;
numbers are emitted at 10 significant digits so files round-trip exactly.
All commands are deterministic for fixed inputs and seed.

Exit codes: 0 success, 2 usage or domain error (one `error:` line on
stderr), 3 verification or statistical failure. Inputs that would make a
command run or allocate without bound are refused against the MAX_* caps
below, before any work, and so is an `--out` path that cannot be opened.
"""

from __future__ import annotations

import argparse
import gc
import io
import math
import os
import re
import sys
from typing import TYPE_CHECKING, Any, NoReturn, Sequence

from .errors import QkdError
from .protocol import ENTRY_SLACK, Family, FluxMode, ProtocolSpec

if TYPE_CHECKING:
    from .simulator import SimConfig, SimResult

MAX_DIM = 32  # verify's largest arrays are O(d^3): one shift's window of Bell vectors (under 1 MB at the cap)
MAX_SWEEP = 10_000  # Q values in one asymptotic sweep
MAX_N_POINTS = 50  # finite-key N values; each is one optimizer run (0.4-26 ms at any d)
MAX_ROUNDS = 10**7  # simulate rounds; bounds run time, which grows linearly with rounds (memory does not, on either path)
MAX_CONFIG_BYTES = 65536  # simulate --config file; a real config is under 1 KB


def parse_dim(text: str) -> int:
    """One qudit dimension in [2, MAX_DIM]."""
    d = int(text)
    if not 2 <= d <= MAX_DIM:
        raise argparse.ArgumentTypeError(f"dimension must be in [2, {MAX_DIM}], got {d}")
    return d


def parse_dims(text: str) -> list[int]:
    """Comma-separated dimensions in [2, MAX_DIM], each named once; 'a..b' expands to the inclusive range."""
    dims: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        ends = [parse_dim(end) for end in token.split("..", 1)]  # one dimension, or a range's two ends
        if ends[-1] < ends[0]:
            raise argparse.ArgumentTypeError(f"empty range {token!r}")
        if repeated := set(dims).intersection(range(ends[0], ends[-1] + 1)):  # at most 31 dimensions
            raise argparse.ArgumentTypeError(f"dimension {min(repeated)} named twice in {text!r}")
        dims.extend(range(ends[0], ends[-1] + 1))
    if not dims:
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
    return float(_fmt(value)) if isinstance(value, float) else value


def _json(command: str, **fields: Any) -> str:
    import json

    return json.dumps({"schema_version": 1, "command": command, **fields}, indent=2) + "\n"


def _write_output(text: str, out: str | None, mode: str = "w") -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, mode, encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise QkdError(f"cannot write {out}: {exc}") from exc


def _table(command: str, params: dict[str, Any], rows: list[dict[str, Any]], fmt: str) -> str:
    """CSV or JSON text of a table; the columns are the keys of its first row."""
    columns = list(rows[0])
    if fmt == "json":
        return _json(
            command,
            params={k: _jnum(v) for k, v in params.items()},
            rows=[{c: _jnum(row[c]) for c in columns} for row in rows],
        )
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(row[c]) for c in columns] for row in rows)
    return buf.getvalue()


def cmd_critical_q(args: argparse.Namespace) -> tuple[str, int]:
    from .rates_asymptotic import critical_q

    rows = [
        {"d": d, "family": args.family, "q_crit_percent": 100.0 * critical_q(ProtocolSpec(args.family, d))}
        for d in args.dims
    ]
    return _table("critical-q", {"dims": args.dims, "family": args.family}, rows, args.format), 0


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
    kept = [q for q in values if q <= limit + ENTRY_SLACK]
    if not kept:
        raise QkdError(f"no Q values left inside [0, (d-1)/d = {limit:.6g}]")
    if len(kept) < len(values):
        print(f"warning: dropping Q values above the depolarizing limit (d-1)/d = {limit:.6g}", file=sys.stderr)
    return kept


def cmd_asymptotic(args: argparse.Namespace) -> tuple[str, int]:
    from .rates_asymptotic import r_infinity

    spec = ProtocolSpec(args.family, args.dim)
    rows = [
        {"d": args.dim, "family": spec.family.value, **r_infinity(spec, q)._asdict()}
        for q in _q_sweep(args, args.dim)
    ]
    return _table("asymptotic", {"dim": args.dim, "family": spec.family.value}, rows, args.format), 0


def _n_grid(n_min: int, n_max: int, n_points: int) -> list[int]:
    if n_min < 1 or n_max < n_min or not 1 <= n_points <= MAX_N_POINTS:
        raise QkdError(f"bad N grid: min={n_min} max={n_max} points={n_points} (at most {MAX_N_POINTS})")
    if n_points == 1:
        return [n_min]
    import numpy as np

    lo, hi = np.log10(float(n_min)), np.log10(float(n_max))  # np.logspace's arithmetic, not its code
    with np.errstate(over="ignore"):  # near the float maximum a point can round up to inf
        inner = 10.0 ** (np.arange(1.0, n_points - 1) * ((hi - lo) / (n_points - 1)) + lo)
    out = [n_min]  # the ends are the requested counts; an overflowed point lies at n_max
    for value in inner[np.isfinite(inner)].tolist():
        n = int(round(value))
        if out[-1] < n < n_max:
            out.append(n)
    return out + [n_max] if n_max > n_min else out


def cmd_finite_key(args: argparse.Namespace) -> tuple[str, int]:
    from dataclasses import asdict

    from .rates_finite import TERMS, optimize_r_finite

    spec = ProtocolSpec(args.family, args.dim)
    rows = []
    for n_signals in _n_grid(args.n_min, args.n_max, args.n_points):
        rep = optimize_r_finite(spec, args.q, n_signals, args.eps, args.eps_ec, mode=args.flux_mode)
        rows.append({
            "d": args.dim, "family": spec.family.value, "n": n_signals, "r_n": rep.r_n,
            **asdict(rep.params),
            **{key: float(rep.terms.get(key, 0.0)) for key in TERMS},
            "saturated": int(rep.saturated),
            "degenerate": int(rep.degenerate),
        })
    params = {
        "dim": args.dim,
        "family": spec.family.value,
        "q": args.q,
        "eps": args.eps,
        "eps_ec": args.eps_ec,
        "flux_mode": args.flux_mode,
    }
    return _table("finite-key", params, rows, args.format), 0


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


# each simulate setting and the parser of its flag, which a config file's text goes through too
_SIM_PARSERS = {
    "dim": parse_dim, "family": Family, "q": parse_q, "rounds": parse_count, "seed": int,
    "basis_probs": parse_probs,
}


def _sim_config_from(args: argparse.Namespace) -> tuple[SimConfig, dict[str, Any]]:
    from .channels import depolarizing_spectrum
    from .simulator import SimConfig

    values: dict[str, Any] = {}
    if args.config is not None:
        pairs = _load_sim_config(args.config)
        unknown = set(pairs) - set(_SIM_PARSERS)
        if unknown:
            raise QkdError(f"unknown config keys: {sorted(unknown)}")
        try:
            values = {key: _SIM_PARSERS[key](text) for key, text in pairs.items()}
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise QkdError(f"bad config value: {exc}") from exc
    # flags override file values
    values.update((key, getattr(args, key)) for key in _SIM_PARSERS if getattr(args, key) is not None)

    missing = {"dim", "q", "rounds", "seed"} - set(values)
    if missing:
        raise QkdError(f"simulate needs {sorted(missing)} (via --config or flags)")
    if values["rounds"] > MAX_ROUNDS:
        raise QkdError(f"rounds={values['rounds']} exceeds the cap of {MAX_ROUNDS}")
    values = {"family": Family.TWO_BASIS, "basis_probs": None} | values

    spec = ProtocolSpec(values["family"], values["dim"])
    cfg = SimConfig(
        spec=spec,
        spectrum=depolarizing_spectrum(spec.dim, values["q"]),
        rounds=values["rounds"],
        seed=values["seed"],
        basis_probs=values["basis_probs"],
    )
    # every setting as the run uses it; JSON schema 1 holds "fast": "auto"
    # after the seed (the path taken is the top-level "fast")
    echo = {key: values[key] for key in ("dim", "family", "q", "rounds", "seed")}
    echo.update(family=spec.family.value, fast="auto", basis_probs=list(cfg.basis_probs))
    return cfg, echo


def _sim_result_json(result: SimResult, echo: dict[str, Any]) -> str:
    from .simulator import sifting_fraction

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
                "chi_square": _jnum(st.chi_square),
                "dof": st.chi_square_dof,
                "threshold": _jnum(st.chi_square_threshold),
                "passed": st.passed,
            }
        )
    return _json(
        "simulate",
        config={k: _jnum(v) for k, v in echo.items()},
        sifted_count=result.sifted_count,
        expected_sift_fraction=_jnum(sifting_fraction(result.config)),
        fast=result.fast,
        all_passed=result.all_passed,
        per_basis=per_basis,
    )


def cmd_simulate(args: argparse.Namespace) -> tuple[str, int]:
    from .simulator import run_simulation

    cfg, echo = _sim_config_from(args)
    result = run_simulation(cfg)
    return _sim_result_json(result, echo), 0 if result.all_passed else 3


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    from .verification import run_suite

    results = run_suite(args.dims)
    failures = sum(not r.passed for r in results)
    lines = [r.line() for r in results] + [f"{len(results)} checks, {failures} failures"]
    return "\n".join(lines) + "\n", 0 if failures == 0 else 3


def _add_output_flags(parser: argparse.ArgumentParser, table: bool) -> None:
    parser.add_argument("--out", default=None, help="write output to this file instead of stdout")
    if table:
        parser.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line with exit code 2, like
    every other bad input; subparsers inherit it through `parser_class`. A
    value such as `-1..3` goes to its flag's parser, as no option here
    starts with '-' and a digit."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")

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
    _add_output_flags(p, table=True)
    p.set_defaults(func=cmd_critical_q)

    p = sub.add_parser("asymptotic", help="asymptotic rate at one noise value or over a sweep")
    p.add_argument("--dim", type=parse_dim, required=True)
    p.add_argument("--family", choices=[f.value for f in Family], default=Family.TWO_BASIS.value)
    p.add_argument("--q", type=parse_q, default=None, help="single noise value (fraction or N%%)")
    p.add_argument("--q-min", type=parse_q, default=0.0)
    p.add_argument("--q-max", type=parse_q, default=0.25)
    p.add_argument("--q-step", type=parse_q, default=0.01)
    _add_output_flags(p, table=True)
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
    _add_output_flags(p, table=True)
    p.set_defaults(func=cmd_finite_key)

    p = sub.add_parser("simulate", help="Monte Carlo run against the analytic statistics")
    p.add_argument("--config", default=None, help="flat key=value file; flags override")
    p.add_argument("--dim", type=parse_dim, default=None)
    p.add_argument("--family", type=Family, choices=[f.value for f in Family], default=None)
    p.add_argument("--q", type=parse_q, default=None, help="depolarizing noise (fraction or N%%)")
    p.add_argument("--rounds", type=parse_count, default=None, help="e.g. 1000000 or 1e6")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--basis-probs", type=parse_probs, default=None, help="comma-separated basis weights")
    _add_output_flags(p, table=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the operator-algebra and statistics self-checks")
    p.add_argument("--dims", type=parse_dims, required=True, help="e.g. 2..7 or 2,3,13")
    _add_output_flags(p, table=False)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    new_out = args.out is not None and not os.path.lexists(args.out)
    try:
        if args.out is not None:  # appending nothing refuses an unwritable path before any work
            _write_output("", args.out, mode="a")
        text, code = args.func(args)
        _write_output(text, args.out)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:  # the reader has gone: exit's own flush then writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except QkdError as exc:
        if new_out and os.path.lexists(args.out):  # a failed command leaves no file behind
            os.remove(args.out)
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """`main` as its own process (`python -m quditkd`, the `quditkd` script): exit's collections skip what it froze."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()
