"""No dead module-level names in the package.

Every module-level import and constant of a `src/quditkd` module other than
`__init__` must be read in its own module, or be named in another module of
the package or in a file under `tests/`. A name that nothing reads is
deleted rather than kept "for later".
"""

import ast
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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_module_level_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    others = [*PACKAGE.glob("*.py"), *(ROOT / "tests").rglob("*.py")]
    elsewhere = "\n".join(other.read_text(encoding="utf-8") for other in others if other != path)
    dead = [
        f"{kind} {name}"
        for kind, name in _module_level_names(tree)
        if name not in reads and not re.search(rf"\b{re.escape(name)}\b", elsewhere)
    ]
    assert dead == [], f"{path.name}: nothing reads {dead}"
