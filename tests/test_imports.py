"""Import hygiene between the package's modules, checked on their syntax trees.

A module may not import an underscore-prefixed name from a sibling module
(private helpers stay private to their module), and may not import a name
that it never uses, whether from a sibling, the standard library, numpy or
scipy.  ``__init__.py`` re-exports names and is exempt.

The package also keeps one limit evaluator: no module calls ``leggauss`` or
defines ``time_breakpoints``, the panel breaks of the nested Gauss-Legendre
quadrature that is now a test oracle only (``tests/tests_support.py``).
And it keeps one sampler, seeded one way: no module defines the coupled
construction or its agreement test, which are test oracles too, and
``SimConfig`` carries no construction, seed or replica; a run's generator
is passed to ``simulate``.  And one functional protocol: each built-in
functional declares only ``time_boxes(shape, mass)``, which its value on a
tree, on the empirical measure and under the limit measure all read, so no
module defines a per-atom ``atom_values`` and no built-in its own
``__call__``.  And one history representation: an event log's merges are
plain ``(time, left, right)`` rows whose node ids are implied by their
order, so no module defines an ``Event`` type; the empirical measure reads
merge times and children from those rows rather than keeping its own
copies; and ``trees.py``, not ``cli.py``, writes the history text.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from coagtree.kernels import builtin
from coagtree.simulate import EmpiricalHistoricalMeasure, SimConfig, rng_for, simulate

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


def imported_names(tree: ast.Module):
    """(bound name, source) per name that an import binds: ``import a.b``
    binds ``a``, ``from .m import x`` binds ``x`` from ``.m``.  A
    ``from __future__`` import binds no name and is left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                yield alias.asname or alias.name, source


def used_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def findings() -> list:
    siblings = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    out = []
    for name in sorted(siblings):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        used = used_names(tree)
        for _, imported, source in sibling_imports(tree, siblings):
            if imported.startswith("_"):
                out.append(f"{name}.py imports private {imported} from {source}")
        for bound, source in imported_names(tree):
            if bound not in used:
                out.append(f"{name}.py imports {bound} from {source} but never uses it")
    return out


def test_no_private_or_unused_sibling_imports():
    assert {"cli", "limit", "trees"} <= {p.stem for p in PACKAGE.glob("*.py")}
    assert findings() == []


def gauss_legendre_findings() -> list:
    """Calls of ``leggauss`` and definitions of ``time_breakpoints`` (a
    function, or a name or attribute stored to) in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == "leggauss" or \
                        getattr(func, "attr", None) == "leggauss":
                    out.append(f"{path.name}:{node.lineno} calls leggauss")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined = node.name
            elif isinstance(getattr(node, "ctx", None), ast.Store):
                defined = getattr(node, "id", None) or getattr(node, "attr", None)
            else:
                continue
            if defined == "time_breakpoints":
                out.append(f"{path.name}:{node.lineno} defines time_breakpoints")
    return out


def test_one_limit_evaluator_in_the_package():
    assert gauss_legendre_findings() == []


ORACLE_SAMPLERS = {"simulate_coupled", "simulate_direct", "construction_agreement_test"}


def test_one_sampler_in_the_package():
    defined = [f"{path.name}:{node.lineno} defines {node.name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name in ORACLE_SAMPLERS]
    assert defined == []
    fields = {f.name for f in dataclasses.fields(SimConfig)}
    assert fields.isdisjoint({"construction", "seed", "replica"}), fields


BUILTIN_FUNCTIONALS = ("ShapeIndicator", "ShapeTimeBoxIndicator", "MassCutoff",
                       "FunctionalProduct", "ConstantOne")


def test_one_functional_protocol_in_the_package():
    defined = [f"{path.name}:{node.lineno} defines atom_values"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == "atom_values"]
    assert defined == []
    simulate = importlib.import_module("coagtree.simulate")
    for name in BUILTIN_FUNCTIONALS:
        own = vars(getattr(simulate, name))
        assert "time_boxes" in own and "__call__" not in own, name


def test_one_history_representation_in_the_package():
    defined = [f"{path.name}:{node.lineno} defines Event"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef) and node.name == "Event"
               or isinstance(getattr(node, "ctx", None), ast.Store)
               and getattr(node, "id", None) == "Event"]
    assert defined == []
    fields = {f.name for f in dataclasses.fields(EmpiricalHistoricalMeasure)}
    assert fields.isdisjoint({"time", "left", "right"}) and len(fields) <= 7, fields
    # the history text's node format, "(left,right)@time", is written by trees.py
    formats = [f"cli.py:{node.lineno} {node.value!r}"
               for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and "@" in node.value]
    assert formats == []
    cfg = SimConfig((0.1, 0.7) * 20, builtin("additive"), 1.0)
    log = simulate(cfg, rng_for(3))
    assert log.events
    assert all(type(row) is tuple and len(row) == 3 and row[1] < row[2]
               for row in log.events)
