"""Compare the CLI output of the working tree with that of a git revision.

Run from anywhere inside the repository:

    python tools/compare_outputs.py BASE_REV

BASE_REV's `src/` is exported with `git archive` into a temporary directory,
which is removed afterwards. Every command of a fixed corpus then runs as a
fresh `python -m quditkd` process against each tree's `src/`, both from the
repository root, and one line is printed for each command whose stdout,
stderr or exit code differs. The exit status is 1 if any command differs,
else 0. The corpus:

- the README's command block and its `$ quditkd` examples;
- every benchmark request, each `simulate` with every seed of `SIM_SEEDS`,
  read from `bench/workloads.py`;
- 72 finite-key JSON tables: two-basis d in {2, 3, 11, 32} and dplus1 d in
  {2, 3, 11, 31}, x every flux mode x Q in {0, 0.05, 0.12};
- `critical-q` over every supported d of both families, and an `asymptotic`
  sweep of Q from 0 to 0.99 in steps of 0.001 at each of those d;
- finite-key budgets at the edges of the accepted range, for two-basis
  d in {2, 6, 32} and dplus1 d in {5, 11, 31}, up to N = the float maximum;
- `quditkd --help`, each subcommand's `--help`, and the usage and domain
  errors of `ERRORS`, whose exit code and `error:` line must not change
  with what the CLI loads before it parses its arguments.

The CLI prints 10 digits, so a last-bit change of a rate cannot show in
its output. So one more fresh process per tree prints the repr of each
library result of `print_reprs`, and one line is printed for each result
that differs:

- `critical_q` at every supported (family, d);
- `r_infinity` at each Q of the `asymptotic` sweeps above;
- `optimize_r_finite` for both families at d in {2, 3, 11} and 32
  (two-basis) or 31 (dplus1), x Q in {0, 0.01, 0.05, 0.12} x N in
  {1e3, 1e6, 1e9, 1e12} x every flux mode, at eps = 1e-5, eps_EC = 1e-10.

Each differing repr line ends with the largest distance, in units in the
last place (the count of floats between them), between the float fields
the two lines hold in the same place, or with "fields differ" when their
float fields do not pair up; the largest such distance over all lines
follows the summary line.

The two trees are compared under one BLAS thread, since the last digit of a
`verify` max_err can depend on the thread count.

After its summary line the tool writes the two size measures of the code,
base -> tree, to stderr: the lines of the `.py` files under `src/` and the
names in `__all__`, read with `ast` from `__init__`'s `_HOMES` table (or
from a literal `__all__`, as older trees define it) without importing it;
then the lines of each module, base -> tree, "-" where a tree has none;
then, for `--help` and one command of each subcommand (`LOADS`), the
number of modules outside `quditkd` that a fresh `python -m quditkd`
process has loaded when it exits, base -> tree, and the names that only
one tree loads, so a change of what a command loads shows without the
benchmark.
"""

from __future__ import annotations

import argparse
import ast
import io
import itertools
import math
import os
import re
import shlex
import struct
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
DIMS = [("two-basis", d) for d in range(2, 33)] + [("dplus1", d) for d in PRIMES]  # every supported (family, d)
TABLES = [("two-basis", d) for d in (2, 3, 11, 32)] + [("dplus1", d) for d in (2, 3, 11, 31)]
FLOAT_MAX = "1.7976931348623157e308"
JOBS = 2  # commands run at once
BUDGETS = (
    ("1e-5", "1e-10"),
    ("1e-300", "1e-305"),
    ("1e-5", "1.112536929253601e-308"),  # one float above 2**-1023
    ("4.450815305930848e-304", "2.225407652965424e-304"),  # eps - eps_EC = 2.225407652965424e-304
    ("4.450147717014403e-308", "2.2250738585072014e-308"),  # eps - eps_EC = the least normal float
    ("1e-5", "1e-308"),
    ("1e-5", "5e-324"),
    ("2.3e-308", "5e-324"),
    ("2.2250738585072014e-308", "5e-324"),  # eps - eps_EC one float below the least normal float
    ("1e-320", "5e-324"),
)
# a float's repr: digits with a point or an exponent, inf or nan
FLOAT = re.compile(r"(?<![\w.])-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|inf|nan)(?![\w.])")
SUBCOMMANDS = ("critical-q", "asymptotic", "finite-key", "simulate", "verify")
LOADS = (  # the imports of these processes are compared
    ["--help"],
    ["critical-q", "--dims", "2..7"],
    ["asymptotic", "--dim", "3", "--family", "dplus1", "--q", "5%"],
    ["finite-key", "--dim", "3", "--n-min", "1e4", "--n-max", "1e4"],
    ["simulate", "--dim", "3", "--q", "5%", "--rounds", "1e4", "--seed", "1"],
    ["verify", "--dims", "2..7"],
)
ERRORS = (
    [],  # no subcommand
    ["bogus"],
    ["finite-key", "--dim", "3", "--flux-mode", "x"],
    ["critical-q", "--dims", "2", "--family", "bogus"],
    ["simulate", "--dim", "3", "--family", "bogus"],
    ["critical-q", "--dims", "4", "--family", "dplus1"],
    ["asymptotic", "--family", "dplus1"],
    ["finite-key", "--q", "0.05"],
    ["asymptotic", "--dim", "6", "--family", "dplus1", "--q", "0.05"],
    ["verify", "--dims", "40"],
    ["finite-key", "--dim", "2", "--q", "0.9"],
)


def readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("\n```", 1)[0] for part in text.split("```text\n")[1:]]
    lines = [line.removeprefix("$ ") for block in blocks for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("quditkd ")]


def bench_commands() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    commands = []
    for workload in workloads.WORKLOADS.values():
        for request in workload.requests:
            seeds = workloads.SIM_SEEDS if request.argv[0] == "simulate" else (None,)
            commands += [list(request.argv if s is None else request.with_seed(s).argv) for s in seeds]
    return commands


def corpus() -> list[list[str]]:
    commands = readme_commands() + bench_commands() + [["--help"]] + [[sub, "--help"] for sub in SUBCOMMANDS]
    commands += [list(argv) for argv in ERRORS]
    for (family, d), mode, q in itertools.product(TABLES, ("equal", "single", "brute"), ("0", "0.05", "0.12")):
        commands.append(["finite-key", "--dim", str(d), "--family", family, "--flux-mode", mode, "--q", q,
                         "--n-min", "1e3", "--n-max", "1e12", "--n-points", "4", "--format", "json"])
    commands.append(["critical-q", "--dims", "2..32"])
    commands.append(["critical-q", "--dims", ",".join(map(str, PRIMES)), "--family", "dplus1"])
    for family, d in DIMS:
        commands.append(["asymptotic", "--dim", str(d), "--family", family,
                         "--q-min", "0", "--q-max", "0.99", "--q-step", "0.001"])
    edges = [("two-basis", d) for d in (2, 6, 32)] + [("dplus1", d) for d in (5, 11, 31)]
    for (family, d), (eps, eps_ec) in itertools.product(edges, BUDGETS):
        commands.append(["finite-key", "--dim", str(d), "--family", family, "--eps", eps, "--eps-ec", eps_ec,
                         "--n-min", "1e3", "--n-max", FLOAT_MAX, "--n-points", "11"])
    return commands


def print_reprs() -> None:
    """Print one `name args: repr` line per library result of the module
    docstring, in a process whose `quditkd` is the tree under test."""
    from quditkd import Family, FluxMode, ProtocolSpec, critical_q, optimize_r_finite, r_infinity

    # enum members, since an older tree may read a family's string value as
    # another family
    for family, d in DIMS:
        print(f"critical_q {family} {d}: {critical_q(ProtocolSpec(Family(family), d))!r}")
    for family, d in DIMS:
        spec = ProtocolSpec(Family(family), d)
        # the `asymptotic --q-min 0 --q-max 0.99 --q-step 0.001` values
        for q in (0.0 + i * 0.001 for i in range(991)):
            if q <= (d - 1) / d + 1e-12:
                print(f"r_infinity {family} {d} {q!r}: {r_infinity(spec, q)!r}")
    for (family, d), q, n, mode in itertools.product(TABLES, (0.0, 0.01, 0.05, 0.12), (10**3, 10**6, 10**9, 10**12),
                                                     FluxMode):
        report = optimize_r_finite(ProtocolSpec(Family(family), d), q, n, 1e-5, 1e-10, mode)
        print(f"optimize_r_finite {family} {d} {q!r} {n} {mode.value}: {report!r}")


def _ordinal(x: float) -> int:
    """Position of `x` among the floats in order, with -0.0 and 0.0 both at 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & (2**63 - 1))


def ulp_distance(base: str, head: str) -> int | None:
    """Largest ulp distance between the float fields of two repr lines,
    paired in order, or None when the lines hold different numbers of floats
    or a NaN."""
    pairs = list(itertools.zip_longest(map(float, FLOAT.findall(base)), map(float, FLOAT.findall(head))))
    if any(a is None or b is None or math.isnan(a) or math.isnan(b) for a, b in pairs):
        return None
    return max((abs(_ordinal(a) - _ordinal(b)) for a, b in pairs), default=0)


def _env(src: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")


def run(src: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    done = subprocess.run([sys.executable, "-m", "quditkd", *argv], cwd=ROOT, env=_env(src), capture_output=True)
    return done.returncode, done.stdout, done.stderr


def loaded_modules(src: Path, argv: list[str]) -> set[str]:
    """The modules outside `quditkd` in `sys.modules` when `quditkd argv`
    exits, run as `python -m` does (with `runpy`) in a fresh process against
    `src`; they follow the command's own stderr after a NUL."""
    code = (
        f"import runpy, sys; sys.argv[1:] = {argv!r}\n"
        "try:\n    runpy.run_module('quditkd', run_name='__main__', alter_sys=True)\n"
        "finally:\n    print('\\0' + ' '.join(sys.modules), file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(src), capture_output=True, text=True)
    return {name for name in done.stderr.rpartition("\0")[2].split() if name.split(".")[0] != "quditkd"}


def reprs(src: Path) -> list[str]:
    """The lines of `print_reprs` in a fresh process against `src`."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import compare_outputs; compare_outputs.print_reprs()"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(src), capture_output=True, text=True)
    if done.returncode != 0:
        return [f"print_reprs exits {done.returncode}: {done.stderr.strip().splitlines()[-1:]}"]
    return done.stdout.splitlines()


def measures(src: Path) -> tuple[dict[str, int], int]:
    """Lines of each `.py` file under `src`, by its path relative to `src`,
    and the number of `__all__` names."""
    lines = {path.relative_to(src).as_posix(): path.read_bytes().count(b"\n") for path in src.rglob("*.py")}
    tree = ast.parse((src / "quditkd" / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        target = getattr(node.targets[0], "id", None) if isinstance(node, ast.Assign) else None
        if target == "_HOMES":
            return lines, len({element.value for names in node.value.values for element in names.elts})
        if target == "__all__" and isinstance(node.value, ast.List):
            return lines, len(node.value.elts)
    raise ValueError(f"no _HOMES table or literal __all__ in {src}")


def export_src(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("base_rev", metavar="BASE_REV")
    args = parser.parse_args()
    commands = corpus()
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        base_src = export_src(args.base_rev, Path(tmp))

        def compare(argv: list[str]) -> str | None:
            base, head = run(base_src, argv), run(ROOT / "src", argv)
            if base == head:
                return None
            parts = [f"exit {base[0]} -> {head[0]}"]
            parts += [f"{name} differs" for name, i in (("stdout", 1), ("stderr", 2)) if base[i] != head[i]]
            return f"{', '.join(parts)}: quditkd {shlex.join(argv)}"

        with ThreadPoolExecutor(JOBS) as pool:
            base_reprs, head_reprs = pool.map(reprs, (base_src, ROOT / "src"))
            diffs = [line for line in pool.map(compare, commands) if line]
            loads = list(pool.map(lambda argv: (loaded_modules(base_src, argv), loaded_modules(ROOT / "src", argv)),
                                  LOADS))
        (base_lines, base_names), (head_lines, head_names) = measures(base_src), measures(ROOT / "src")
    changed, distances = [], []
    for base, head in zip(base_reprs, head_reprs):
        if base != head:
            distances.append(ulp_distance(base, head))
            far = "fields differ" if distances[-1] is None else f"{distances[-1]} ulp"
            changed.append(f"repr {base} -> {head}: {far}")
    if len(base_reprs) != len(head_reprs):
        changed.append(f"repr lines {len(base_reprs)} -> {len(head_reprs)}")
    for line in diffs + changed:
        print(line)
    print(f"{len(diffs)} of {len(commands)} commands and {len(changed)} of {len(head_reprs)} repr lines "
          f"differ from {args.base_rev}", file=sys.stderr)
    largest = max((distance for distance in distances if distance is not None), default=0)
    print(f"largest repr distance {largest} ulp", file=sys.stderr)
    print(f"src/ lines {sum(base_lines.values()):,} -> {sum(head_lines.values()):,}, "
          f"__all__ names {base_names} -> {head_names}", file=sys.stderr)
    for module in sorted(base_lines.keys() | head_lines.keys()):
        print(f"  {module} {base_lines.get(module, '-')} -> {head_lines.get(module, '-')}", file=sys.stderr)
    print("modules outside quditkd that each process loads, base -> tree:", file=sys.stderr)
    for argv, (base, head) in zip(LOADS, loads):
        only = [f"only {side}: {' '.join(sorted(names))}" for side, names in (("base", base - head), ("tree", head - base))
                if names]
        print(f"  quditkd {shlex.join(argv)}: {len(base)} -> {len(head)}", *only, sep="; ", file=sys.stderr)
    return 1 if diffs or changed else 0


if __name__ == "__main__":
    sys.exit(main())
