"""Static checks on the package source: what a deletion leaves behind.

Each module of ``src/liembs`` is parsed with ``ast`` and must not keep a
module-level import it never reads (a name listed in ``__all__`` counts as
read), nor a private module-level function or class that neither it nor a
sibling module importing the name references.
"""

import ast
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


_TREES = {
    p.stem: ast.parse(p.read_text(), filename=str(p))
    for p in (Path(__file__).resolve().parent.parent / "src" / "liembs").glob("*.py")
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
