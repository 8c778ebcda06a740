"""Start-up cost: each entry point loads only the modules it runs.

`import quditkd` loads none of the package's modules, and the CLI loads
`errors` and `protocol` to parse its arguments, so `--help` and a usage
error load no numpy. Each command then loads the modules it computes with
and no others; `critical-q` and `asymptotic` compute on Python floats and
load no numpy either. Every check runs in a fresh interpreter, since the
test process has loaded every module long before.
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


def _loaded(statement: str) -> tuple[object, set[str], bool]:
    """Run `statement` in a fresh interpreter with its output discarded:
    its exit code (0 when it does not exit), the package's modules then in
    `sys.modules` (without the `quditkd.` prefix) and whether numpy is."""
    src = str(Path(quditkd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import contextlib, io, json, sys\n"
        "code = 0\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        {statement}\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    exit_code, modules = json.loads(run.stdout)
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
