"""Static checks on the package source: what a deletion leaves behind.

Each module of ``src/liembs`` is parsed with ``ast`` and must not keep a
module-level import it never reads (a name listed in ``__all__`` counts as
read), nor a private module-level function or class that neither it nor a
sibling module importing the name references. The CLI's start-up must not
import modules it has no use for.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

def _read_names(tree):
    """Every name the module reads: loaded names, and the strings of a
    module-level ``__all__``."""
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            )
    return names


def _imported_names(tree):
    """The names that module-level import statements bind."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _private_definitions(tree):
    """Module-level functions and classes whose names start with one
    underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                yield node.name


_SRC = Path(__file__).resolve().parent.parent / "src"
_TREES = {
    p.stem: ast.parse(p.read_text(), filename=str(p))
    for p in (_SRC / "liembs").glob("*.py")
}


def _imported_from(stem):
    """The names sibling modules import from module stem (``from .stem``)."""
    return {
        alias.name
        for tree in _TREES.values()
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == stem
        for alias in node.names
    }


@pytest.mark.parametrize("stem", sorted(_TREES))
def test_module_reads_every_import_and_private_definition(stem):
    tree = _TREES[stem]
    read = _read_names(tree)
    unused_imports = [n for n in _imported_names(tree) if n not in read]
    assert unused_imports == [], f"{stem}: imports never read"
    used = read | _imported_from(stem)
    unused_private = [n for n in _private_definitions(tree) if n not in used]
    assert unused_private == [], f"{stem}: private definitions never used"


def test_the_cli_starts_without_fractions_decimal_or_scipy():
    # Each would add milliseconds to every CLI start; none is needed there.
    code = (
        "import liembs.cli; import sys; print(sorted(m for m in "
        "('fractions', 'decimal', 'scipy') if m in sys.modules))"
    )
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert proc.stdout == "[]\n"
