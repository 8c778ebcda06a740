"""Start-up cost: each entry point loads only the modules it runs.

`import quditkd` loads none of the package's modules, and the CLI loads
`errors` and `protocol` to parse its arguments, so `--help` and a usage
error load no numpy. Each command then loads the modules it computes with
and no others; `critical-q` and `asymptotic` compute on Python floats and
load no numpy either. The standard library's heavier modules load only
where they are used: `json` and `csv` for the output format a command
writes, `dataclasses` (and with it `inspect`) for the value types of the
finite-key, simulation and verification modules. Every check runs in a
fresh interpreter, since the test process has loaded every module long
before.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quditkd

START_UP = {"cli", "errors", "protocol"}
ASYMPTOTIC = START_UP | {"rates_asymptotic"}
FINITE_KEY = START_UP | {"rates_finite", "adversary", "info_theory"}
ALGEBRA = START_UP | {"channels", "info_theory", "qudit_algebra"}
STANDARD = {"csv", "dataclasses", "inspect", "json"}  # dataclasses imports inspect, ast, dis and tokenize


def _run(statement: str) -> tuple[object, list[str]]:
    """Run `statement` in a fresh interpreter with its output discarded:
    its exit code (0 when it does not exit) and the names in `sys.modules`
    then, taken before the interpreter itself imports `json` to report them."""
    src = str(Path(quditkd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import contextlib, io, sys\n"
        "code = 0\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        {statement}\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "modules = sorted(sys.modules)\n"
        "import json\n"
        "print(json.dumps([code, modules]))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return tuple(json.loads(run.stdout))


def _loaded(statement: str) -> tuple[object, set[str], bool]:
    """`_run`'s exit code, the package's modules it loaded (without the
    `quditkd.` prefix) and whether numpy is among them."""
    exit_code, modules = _run(statement)
    own = {name.removeprefix("quditkd.") for name in modules if name.startswith("quditkd.")}
    return exit_code, own, "numpy" in modules


def _cli(*argv: str) -> str:
    return f"import quditkd.cli; code = quditkd.cli.main({list(argv)!r})"


@pytest.mark.parametrize(
    "statement, exit_code, expected",
    [
        ("import quditkd", 0, set()),
        ("import quditkd.cli", 0, START_UP),
        (_cli("--help"), 0, START_UP),
        (_cli("finite-key", "--dim", "3", "--flux-mode", "x"), 2, START_UP),
    ],
    ids=["import-quditkd", "import-cli", "help", "usage-error"],
)
def test_start_up_loads_no_numpy(statement, exit_code, expected):
    assert _loaded(statement) == (exit_code, expected, False)


@pytest.mark.parametrize(
    "argv, expected, numpy",
    [
        (("critical-q", "--dims", "2,3", "--family", "dplus1"), ASYMPTOTIC, False),
        (("asymptotic", "--dim", "3", "--q", "0.05"), ASYMPTOTIC, False),
        (("finite-key", "--dim", "3", "--family", "dplus1", "--n-min", "1e4", "--n-max", "1e4"), FINITE_KEY, True),
        (("simulate", "--dim", "3", "--q", "0.05", "--rounds", "1000", "--seed", "1"), ALGEBRA | {"simulator"}, True),
        (("verify", "--dims", "2"), ALGEBRA | {"verification"}, True),
    ],
    ids=["critical-q", "asymptotic", "finite-key", "simulate", "verify"],
)
def test_each_command_loads_only_the_modules_it_runs(argv, expected, numpy):
    # the rate commands load neither the algebra nor the other rate module,
    # simulate and verify load neither rate module nor each other
    assert _loaded(_cli(*argv)) == (0, expected, numpy)


@pytest.mark.parametrize(
    "statement, exit_code, expected",
    [
        ("import quditkd.cli", 0, set()),
        (_cli("--help"), 0, set()),
        (_cli("finite-key", "--dim", "3", "--flux-mode", "x"), 2, set()),
        (_cli("critical-q", "--dims", "2,3", "--family", "dplus1"), 0, {"csv"}),
        (_cli("critical-q", "--dims", "2,3", "--format", "json"), 0, {"json"}),
        (_cli("asymptotic", "--dim", "3", "--q", "0.05"), 0, {"csv"}),
        (_cli("finite-key", "--dim", "3", "--n-min", "1e4", "--n-max", "1e4"), 0, {"csv", "dataclasses", "inspect"}),
        (_cli("simulate", "--dim", "3", "--q", "0.05", "--rounds", "1000", "--seed", "1"), 0,
         {"dataclasses", "inspect", "json"}),
        (_cli("verify", "--dims", "2"), 0, {"dataclasses", "inspect"}),
    ],
    ids=["import-cli", "help", "usage-error", "critical-q", "critical-q-json", "asymptotic", "finite-key",
         "simulate", "verify"],
)
def test_each_entry_loads_only_the_standard_modules_it_uses(statement, exit_code, expected):
    # numpy imports inspect as well, so the numpy commands would load it without dataclasses
    code, modules = _run(statement)
    assert (code, STANDARD.intersection(modules)) == (exit_code, expected)


def test_the_asymptotic_rates_run_where_numpy_cannot_be_imported():
    # a None entry in sys.modules makes every `import numpy` raise
    # ImportError; d = 257 sums rows above 128 terms
    statement = (
        'sys.modules["numpy"] = None; from quditkd import Family, ProtocolSpec, critical_q, r_infinity; '
        "[(critical_q(ProtocolSpec(f, d)), r_infinity(ProtocolSpec(f, d), (d - 1) / d)) "
        "for f in Family for d in (2, 5, 257)]"
    )
    code, own, _ = _loaded(statement)
    assert (code, own) == (0, {"errors", "protocol", "rates_asymptotic"})


def test_every_exported_name_is_its_home_modules_object():
    for module, names in quditkd._HOMES.items():
        home = importlib.import_module(f"quditkd.{module}")
        for name in names:
            value = getattr(quditkd, name)
            assert value is getattr(home, name) and value.__module__ == home.__name__, name
    assert len(quditkd.__all__) == 30 and set(quditkd.__all__) <= set(dir(quditkd))
    star: dict = {}
    exec("from quditkd import *", star)
    assert set(star) - {"__builtins__"} == set(quditkd.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        quditkd.no_such_name
