"""The README's command-line examples, run through `cli.main`.

Every command of the "Command line" block must run and exit 0, also with
`--out FILE`, which must hold exactly what stdout got, and every
`$ quditkd ...` example elsewhere must print exactly the output shown under
it, so a renamed flag or a moved digit in the README fails here. The
"Library" snippet runs too, and each number it prints must start with the
digits its `# 0.2594...` comment shows. Each command must also print the
same bytes in a child process whatever BLAS kernel, BLAS thread count or
numpy SIMD dispatch that child gets.
"""

import functools
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from quditkd.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _text_blocks(markdown):
    """The bodies of the ```text fences, in order."""
    return [part.split("\n```", 1)[0] for part in markdown.split("```text\n")[1:]]


COMMANDS = [
    shlex.split(line)[1:]
    for line in _text_blocks(README.split("## Command line", 1)[1])[0].splitlines()
    if line.startswith("quditkd ")
]
# (argv, the output shown under it) of each `$ quditkd` example
EXAMPLES = [
    pytest.param(shlex.split(first)[2:], "".join(line + "\n" for line in rest), id=first[len("$ quditkd "):])
    for block in _text_blocks(README)
    for example in block.split("\n\n")
    if example.startswith("$ quditkd ")
    for first, *rest in [example.splitlines()]
]


def test_readme_has_its_examples():
    assert [argv[0] for argv in COMMANDS] == ["critical-q", "asymptotic", "asymptotic", "finite-key", "simulate", "verify"]
    assert [p.values[0][0] for p in EXAMPLES] == ["critical-q", "critical-q", "asymptotic"]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
def test_readme_command_runs(capsys, tmp_path, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""
    # --out takes the same text off stdout, byte for byte
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == captured.out.encode("utf-8")


@pytest.mark.parametrize("argv, shown", EXAMPLES)
def test_readme_example_prints_what_it_shows(capsys, argv, shown):
    assert main(argv) == 0
    assert capsys.readouterr().out == shown


def test_readme_library_snippet_prints_the_digits_it_shows(capsys):
    code = README.split("```python\n", 1)[1].split("\n```", 1)[0]
    shown = [line.split("# ", 1)[1].split() for line in code.splitlines() if line.startswith("print(")]
    exec(code, {})
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(printed) == len(shown) == 3
    for values, prefixes in zip(printed, shown):
        assert len(values) == len(prefixes)
        for value, prefix in zip(values, prefixes):
            assert prefix.endswith("...") and value.startswith(prefix[: -len("...")]), (value, prefix)


# child settings that pick another kernel or code path in OpenBLAS or numpy;
# the default child runs with none of these variables set
DISPATCH = {
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-2-threads": {"OPENBLAS_NUM_THREADS": "2"},
    "numpy-without-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}
KERNEL_BOUND = pytest.mark.xfail(strict=True, reason=(
    "verify's max_err depends on the zgemm kernel OpenBLAS picks; "
    "ROADMAP item 14 (verify on the monomial form) removes that"
))


@functools.cache
def _run_child(argv: tuple[str, ...], setting: str | None) -> tuple[int, bytes]:
    env = {k: v for k, v in os.environ.items() if all(k not in extra for extra in DISPATCH.values())}
    env.update(DISPATCH.get(setting, {}), PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "quditkd", *argv], capture_output=True, env=env, timeout=120)
    return done.returncode, done.stdout


@pytest.mark.parametrize(
    "argv, setting",
    [
        pytest.param(
            tuple(argv), setting, id=f"{setting}-{argv[0]}",
            marks=KERNEL_BOUND if (argv[0], setting) == ("verify", "openblas-haswell") else (),
        )
        for setting in DISPATCH
        for argv in COMMANDS
    ],
)
def test_readme_command_prints_the_same_bytes_under_every_dispatch(argv, setting):
    assert _run_child(argv, setting) == _run_child(argv, None)
