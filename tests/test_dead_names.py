"""No dead module-level names in the package.

Every module-level import of a `src/quditkd` module other than `__init__`
must be read in its own module: a name imported for another module's sake
is imported there instead. Every module-level constant must be read in its
own module, or be named in another module of the package or in a file
under `tests/`. Every module-level function and class must be read
somewhere under `src/`: called or referenced in the package's code,
imported by another of its modules, or named in `__init__`'s lazy table
`_HOMES`, which reads it as an import did. Tests do not count, since a
helper only tests use belongs in `tests/oracles.py`; the one exception is
a function that `bench/tracing.py` lists in `TARGETS`, whose metrics read
it by name. A name that nothing reads is deleted rather than kept "for later".
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quditkd"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _module_level_names(tree: ast.Module):
    """(kind, name) of each module-level import and assignment target."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (("import", (alias.asname or alias.name).split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (("import", alias.asname or alias.name) for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (("constant", target.id) for target in targets if isinstance(target, ast.Name))


def _served(tree: ast.Module) -> set[str]:
    """The names in the tuples of the module-level `_HOMES` table, which
    `__init__` imports by name on first use."""
    return {
        element.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "_HOMES" for target in node.targets)
        for names in node.value.values
        for element in names.elts
    }


def _reads(path: Path, own: bool) -> set[str]:
    """The names the module at `path` reads in code: attributes, the names
    it imports and those its `_HOMES` table serves, which is how another
    module reaches a function, and with `own` also its bare loaded names.
    Docstrings and comments do not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = _served(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
        elif own and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
    return reads


def _traced_targets() -> set[tuple[str, str]]:
    """(module stem, function) of each entry of `bench/tracing.py`'s TARGETS."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(module, name) for module, names in tracing.TARGETS.items() for name in names}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_module_level_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    others = [*PACKAGE.glob("*.py"), *(ROOT / "tests").rglob("*.py")]
    elsewhere = "\n".join(other.read_text(encoding="utf-8") for other in others if other != path)
    dead = [
        f"{kind} {name}"
        for kind, name in _module_level_names(tree)
        if name not in reads and (kind == "import" or not re.search(rf"\b{re.escape(name)}\b", elsewhere))
    ]
    assert dead == [], f"{path.name}: nothing reads {dead}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_function_and_class_is_read_in_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    read = set().union(*(_reads(other, own=other == path) for other in PACKAGE.glob("*.py")))
    read |= {name for module, name in _traced_targets() if module == path.stem}
    dead = [name for name in defined if name not in read]
    assert dead == [], f"{path.name}: nothing under src/ reads {dead}"
