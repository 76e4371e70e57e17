"""Import hygiene between the package's modules, checked on their syntax trees.

A module may not import an underscore-prefixed name from a sibling module
(private helpers stay private to their module), and may not import a
sibling's name that it never uses.  ``__init__.py`` re-exports names and is
exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coagtree"


def sibling_imports(tree: ast.Module, siblings: set):
    """(bound name, imported name, source) per name taken from a sibling.

    ``from .mod import x`` takes ``x`` from ``mod``; ``from . import mod``
    takes the module ``mod`` itself.  Names that ``from . import`` takes from
    the package's ``__init__`` are not a sibling's.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module is not None and node.module in siblings:
                yield bound, alias.name, node.module
            elif node.module is None and alias.name in siblings:
                yield bound, alias.name, alias.name


def used_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def findings() -> list:
    siblings = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    out = []
    for name in sorted(siblings):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        used = used_names(tree)
        for bound, imported, source in sibling_imports(tree, siblings):
            if imported.startswith("_"):
                out.append(f"{name}.py imports private {imported} from {source}")
            if bound not in used:
                out.append(f"{name}.py imports {bound} from {source} but never uses it")
    return out


def test_no_private_or_unused_sibling_imports():
    assert {"cli", "limit", "trees"} <= {p.stem for p in PACKAGE.glob("*.py")}
    assert findings() == []
