"""Import hygiene between the package's modules, checked on their syntax trees.

A module may not import an underscore-prefixed name from a sibling module
(private helpers stay private to their module), and may not import a name
that it never uses, whether from a sibling, the standard library, numpy or
scipy.  ``__init__.py`` re-exports names and is exempt.

The package also keeps one limit evaluator: no module calls ``leggauss`` or
defines ``time_breakpoints``, the panel breaks of the nested Gauss-Legendre
quadrature that is now a test oracle only (``tests/tests_support.py``).
That evaluator reads K from the solution path: in ``limit.py`` only
``terms``, ``functional`` and ``pushforward_check`` take a ``kernel``, typed
``Kernel`` and not ``Optional``, and only to refuse one that is not
``path.kernel``.
And it keeps one sampler, seeded one way: no module defines the coupled
construction or its agreement test, which are test oracles too, and
``SimConfig`` carries no construction, seed or replica; a run's generator
is passed to ``simulate``.  And one functional protocol: each built-in
functional declares only ``time_boxes(shape, mass)``, which its value on the
empirical measure and under the limit measure both read, so no module
defines a per-atom ``atom_values`` and no built-in is callable.  And one
history representation: leaf masses plus plain ``(time, left, right)``
merge rows whose node ids are implied by their order, so no module defines
an ``Event`` type; the empirical measure reads merge times and children
from those rows rather than keeping its own copies, and its atoms are node
ids; ``parse`` reads text into the same masses and rows; ``trees.py``, not
``cli.py``, writes the history text; and no module defines the object form
of a history, its lifetime intervals or the limit density at one, which
are test oracles.  And one time lookup: only ``SolutionPath._locate`` finds a time's
step in the path's step table, and ``survival_exponent`` reads ``cumulative_exponents``.
And one representation of the path: its steps with their dense output, and no
time grid (``N_GRID``, ``times``) or grid interpolant (``_dense``) beside them.

And ``src/`` holds only the pipeline: every public top-level definition
there has a reader in the package, the demos or the benchmark, apart from
the few paper-level entry points on ``ALLOWED_API``.  Code that only tests
read lives in ``tests/tests_support.py``.  The same holds one level down:
every public method or property of a public class there is read as
``.name`` somewhere outside its own definition, apart from the members on
``ALLOWED_MEMBERS``.  And every option has a caller: each parameter with a
default of a public function, method or constructor there is passed by
some call in the package, the demos or the benchmark, apart from those on
``ALLOWED_OPTIONS``; one that nothing passes is a constant.

And src/ imports scipy in none: the mean-field solve steps with its own
Dormand-Prince stepper in numpy, and ``lln._chi2_pvalue`` computes the
chi-square p-values of ``jump_density_test`` in closed form with ``math``.
So a fresh ``import coagtree``, a ``simulate`` run, a ``limit`` run, a serial
``run_lln`` and ``jump_density_test`` load no scipy module, and no worker
pool module either: ``run_lln`` imports ``ProcessPoolExecutor`` only when a
plan asks for more than one job.  The limit side draws no random number and
a manifest often hashes no file, so ``import coagtree``, ``solve``, the limit
functionals and the ``solve`` and ``limit`` commands load neither
``numpy.random`` nor ``_hashlib``: each loads with its first use, a replica
stream or an input file.  ``pyproject.toml`` names numpy as the only
runtime dependency, every third-party module that ``src/`` imports is numpy,
and the tests import only numpy and the ``test`` extra.
"""

import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

from coagtree.kernels import builtin
from coagtree.simulate import (
    ConstantOne,
    EmpiricalHistoricalMeasure,
    FunctionalProduct,
    MassCutoff,
    ShapeIndicator,
    ShapeTimeBoxIndicator,
    SimConfig,
    empirical_measure,
    rng_for,
    simulate,
)
from coagtree.trees import LEAF, parse, shape_node

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coagtree"


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


def test_only_the_public_limit_calls_take_a_kernel():
    taking = {}
    for node in ast.walk(ast.parse((PACKAGE / "limit.py").read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
                if arg.arg == "kernel":
                    taking[node.name] = arg.annotation and ast.unparse(arg.annotation)
    assert taking == dict.fromkeys(("functional", "pushforward_check"), "Kernel")


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


# the object form of a history and what is read from it, test oracles in
# tests/tests_support.py
TREE_LAYER = {"Event", "HistoricalTree", "EdgeInterval", "edge_intervals",
              "kernel_product", "density_product", "density_recursive"}


def test_one_history_representation_in_the_package():
    defined = [f"{path.name}:{node.lineno} defines {name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               for name in [node.name if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                            else getattr(node, "id", None)
                            if isinstance(getattr(node, "ctx", None), ast.Store) else None]
               if name in TREE_LAYER]
    assert defined == []
    cherry = shape_node(LEAF, LEAF)
    builtins = (ShapeIndicator(cherry), ShapeTimeBoxIndicator(cherry, ((0.0, 1.0),)),
                MassCutoff(2.0), FunctionalProduct(()), ConstantOne())
    assert [f for f in builtins if callable(f)] == []
    assert parse("((1.0,2.0)@0.3,3.0)@0.5") == ([1.0, 2.0, 3.0], [(0.3, 0, 1), (0.5, 3, 2)])
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
    m = empirical_measure(log, 1.0)
    assert type(m.atoms) is tuple and all(type(i) is int for i in m.atoms)
    assert len(m.atoms) == cfg.n - len(log.events)


def test_one_time_lookup_on_the_solution_path():
    tree = ast.parse((PACKAGE / "smoluchowski.py").read_text())
    calls = []  # (function, called name, attributes the call reads)
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            scopes = [(f"{top.name}.{fn.name}", fn) for fn in top.body
                      if isinstance(fn, ast.FunctionDef)]
        elif isinstance(top, ast.FunctionDef):
            scopes = [(top.name, top)]
        else:
            continue
        for owner, fn in scopes:
            for call in ast.walk(fn):
                if isinstance(call, ast.Call):
                    name = getattr(call.func, "attr", getattr(call.func, "id", None))
                    reads = {n.attr for n in ast.walk(call) if isinstance(n, ast.Attribute)}
                    calls.append((owner, name, reads))
    lookups = {owner for owner, name, reads in calls
               if name and (name == "searchsorted" or name.startswith("bisect"))
               and (owner.startswith("SolutionPath.") or reads & {"ends"})}
    assert lookups == {"SolutionPath._locate"}
    assert {owner for owner, name, _ in calls if name == "_locate"} == {
        "SolutionPath.weights_at", "SolutionPath.cumulative_exponents"}
    assert ("SolutionPath.survival_exponent", "cumulative_exponents") in {
        (owner, name) for owner, name, _ in calls}
    assert not [n for n in ast.walk(tree) if getattr(n, "attr", None) in ("_grid", "times")]
    assert {"N_GRID", "_dense"}.isdisjoint(definitions(tree))


# public definitions that nothing in src/, demos/ or perfbench/ reads, kept
# as the package's API on purpose
ALLOWED_API = {
    "check_assumptions": "checks a user's kernel against the paper's hypotheses on K and mu0",
    "tightness_diagnostic": "the tail weight behind the tightness step of the LLN proof",
    "FunctionalProduct": "the product of built-in functionals, which the limit evaluator integrates",
}


def definitions(tree: ast.Module):
    """Names bound at the top level: functions, classes and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def global_reads(table: symtable.SymbolTable) -> set:
    """Module-scope names read in a scope and the scopes nested in it; a
    local, a parameter or, under postponed annotations, an annotation is no
    read."""
    names = {s.get_name() for s in table.get_symbols()
             if s.is_referenced() and s.is_global()}
    for child in table.get_children():
        names |= global_reads(child)
    return names


def readers(path: Path) -> list:
    """(owner, names read) per top-level scope of ``path``: a function or
    class owns what its body reads; the rest of the file, owner None, reads
    its module-scope names, the names it imports, and the attributes of the
    package or one of its modules (``ct.x``, ``limit_measure.x``), but no
    other ``.x``."""
    text = path.read_text()
    module = symtable.symtable(text, str(path), "exec")
    out = [(child.get_name(), global_reads(child)) for child in module.get_children()]
    read = {s.get_name() for s in module.get_symbols() if s.is_referenced()}
    package = set()  # names bound to the package or one of its modules
    tree = ast.parse(text)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            package.update(alias.asname or "coagtree" for alias in node.names
                           if alias.name.partition(".")[0] == "coagtree")
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
            if node.module == "coagtree" or node.level and node.module is None:
                package.update(alias.asname or alias.name for alias in node.names)
    read.update(node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in package)
    return out + [(None, read)]


def unread_definitions() -> dict:
    """Public top-level definitions of the package's modules that nothing
    reads but their own body, ``__init__.py`` or the tests, by module."""
    sources = sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"})
    others = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    reads = {path: readers(path) for path in sources + others}
    return {name: path.name
            for path in sources for name in definitions(ast.parse(path.read_text()))
            if not name.startswith("_")
            and not any(name in names for other, scopes in reads.items()
                        for owner, names in scopes if (other, owner) != (path, name))}


def test_src_holds_only_the_pipeline():
    assert (ROOT / "demos").is_dir() and (ROOT / "perfbench").is_dir()
    unread = unread_definitions()
    assert set(unread) == set(ALLOWED_API), unread


# public methods and properties that nothing in src/, demos/ or perfbench/
# reads, kept as the package's API on purpose
ALLOWED_MEMBERS = {
    "AssumptionReport.ok": "the verdict of check_assumptions, which is on ALLOWED_API",
}


def members(tree: ast.Module):
    """(class.name, definition) per public method or property of a public
    top-level class; dunders and dataclass fields are no members here."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not item.name.startswith("_"):
                yield f"{node.name}.{item.name}", item


def unread_members() -> dict:
    """Public members of the package's classes whose name no attribute read
    ``.name`` in the package, the demos or the benchmark reads, outside the
    member's own definition, by module."""
    paths = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
             + sorted((ROOT / "perfbench").glob("*.py")))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    reads = [(node.attr, node) for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, definition in members(trees[path]):
            own = set(map(id, ast.walk(definition)))
            attr = name.partition(".")[2]
            if not any(read == attr and id(node) not in own for read, node in reads):
                out[name] = path.name
    return out


def test_every_public_member_is_read():
    unread = unread_members()
    assert set(unread) == set(ALLOWED_MEMBERS), unread


# parameters with a default that no call in src/, demos/ or perfbench/
# passes, kept settable on purpose
ALLOWED_OPTIONS = {
    "parse.strict": "an opt-in check on history text from outside the program",
    "AssumptionReport.ok.tol": "the slack of check_assumptions' verdict, which is on ALLOWED_API",
    "time_integral.tol": "the quadrature target of one limit term, which demo 03 "
                         "integrates at the default",
}


def _init_field(value) -> bool:
    """False for ``field(init=False)``: no constructor parameter."""
    return not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords))


def _signature_options(fn: ast.FunctionDef, bound: bool):
    """(parameter, position or None) per parameter of ``fn`` with a default;
    ``bound`` drops the first parameter, self or cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = 1 if bound else 0
    for k, arg in enumerate(positional[len(positional) - len(args.defaults):],
                            len(positional) - len(args.defaults)):
        yield arg.arg, k - first
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def options(tree: ast.Module):
    """(callee, option, parameter, position or None) per parameter with a
    default of a public function, method or constructor.  A constructor's
    callee is its class's name, a method's is ``Class.name``; a field with a
    default of a dataclass or a NamedTuple is a constructor parameter."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for param, k in _signature_options(node, bound=False):
                yield node.name, f"{node.name}.{param}", param, k
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)
                  and not ast.unparse(item.annotation).startswith("ClassVar")
                  and _init_field(item.value)]
        for k, item in enumerate(fields):
            if item.value is not None:
                yield node.name, f"{node.name}.{item.target.id}", item.target.id, k
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in item.decorator_list)
            if item.name == "__init__":
                callee, prefix = node.name, node.name
            elif not item.name.startswith("_"):
                callee = prefix = f"{node.name}.{item.name}"
            else:
                continue
            for param, k in _signature_options(item, bound=not static):
                yield callee, f"{prefix}.{param}", param, k


class _Calls(ast.NodeVisitor):
    """What the calls of one file pass, by callee name.

    A callee is the called name, through ``import ... as`` aliases, or
    attribute; ``cls`` in a class's method is that class, and ``C.name``
    with C one of ``classes`` is the callee ``C.name``.  ``keywords``
    holds the keywords passed, ``positions`` the most positional arguments,
    ``spread`` the callees given ``*args``.  A ``**d`` of a dict literal or
    ``dict(...)`` call stored to the same name or attribute in the file
    passes its keys; a ``**kw`` of the calling function's own ``**kw``
    parameter is a forward, kept in ``forwards`` as (caller, its named
    parameters, callee).
    """

    def __init__(self, tree: ast.Module, classes: set):
        self.classes = classes
        self.aliases = {alias.asname: alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom)
                        for alias in node.names if alias.asname}
        self.dicts = {ast.unparse(target): self._literal_keys(node.value)
                      for node in ast.walk(tree) if isinstance(node, ast.Assign)
                      and self._literal_keys(node.value) is not None
                      for target in node.targets}
        self.keywords, self.positions, self.spread = {}, {}, set()
        self.forwards = []
        self._scope = []  # (class name or None, function node or None)
        self.visit(tree)

    @staticmethod
    def _literal_keys(value):
        if isinstance(value, ast.Dict) and all(isinstance(k, ast.Constant) for k in value.keys):
            return {k.value for k in value.keys}
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict" \
                and not value.args:
            return {k.arg for k in value.keywords if k.arg is not None}
        return None

    def visit_ClassDef(self, node):
        self._scope.append((node.name, None))
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node):
        owner = self._scope[-1][0] if self._scope else None
        self._scope.append((owner, node))
        self.generic_visit(node)
        self._scope.pop()

    def _name(self, node) -> str | None:
        if isinstance(node, ast.Attribute):
            return node.attr
        if not isinstance(node, ast.Name):
            return None
        if node.id == "cls" and self._scope and self._scope[-1][0]:
            return self._scope[-1][0]
        return self.aliases.get(node.id, node.id)

    def _callee(self, func) -> str | None:
        if isinstance(func, ast.Attribute) and self._name(func.value) in self.classes:
            return f"{self._name(func.value)}.{func.attr}"
        return self._name(func)

    def visit_Call(self, node):
        self.generic_visit(node)
        callee = self._callee(node.func)
        if callee is None:
            return
        plain = [a for a in node.args if not isinstance(a, ast.Starred)]
        if len(plain) < len(node.args):
            self.spread.add(callee)
        self.positions[callee] = max(self.positions.get(callee, 0), len(plain))
        passed = self.keywords.setdefault(callee, set())
        for kw in node.keywords:
            if kw.arg is not None:
                passed.add(kw.arg)
                continue
            passed |= self.dicts.get(ast.unparse(kw.value), set())
            owner, fn = self._scope[-1] if self._scope else (None, None)
            if fn is not None and fn.args.kwarg is not None \
                    and isinstance(kw.value, ast.Name) and kw.value.id == fn.args.kwarg.arg:
                caller = owner if fn.name == "__init__" else \
                    f"{owner}.{fn.name}" if owner else fn.name
                named = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
                self.forwards.append((caller, named, callee))


def unset_options() -> dict:
    """Options of the package that no call in the package, the demos or the
    benchmark passes, by keyword, by position or through ``**``, by module."""
    paths = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
             + sorted((ROOT / "perfbench").glob("*.py")))
    classes = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.ClassDef)}
    keywords, positions, spread, forwards = {}, {}, set(), []
    for path in paths:
        calls = _Calls(ast.parse(path.read_text()), classes)
        for callee, passed in calls.keywords.items():
            keywords.setdefault(callee, set()).update(passed)
        for callee, n in calls.positions.items():
            positions[callee] = max(positions.get(callee, 0), n)
        spread |= calls.spread
        forwards += calls.forwards

    def names(callee: str) -> tuple:
        # an instance's method call reads as its bare name
        return (callee, callee.rpartition(".")[2])

    def passed(callee: str) -> set:
        return set().union(*(keywords.get(name, set()) for name in names(callee)))

    changed = True
    while changed:  # keywords a caller takes into **kw reach its callee
        changed = False
        for caller, named, callee in forwards:
            extra = passed(caller) - named - keywords.get(callee, set())
            if extra:
                keywords.setdefault(callee, set()).update(extra)
                changed = True
    out = {}
    for path in sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}):
        for callee, option, param, k in options(ast.parse(path.read_text())):
            by_position = k is not None and any(
                k < positions.get(name, 0) or name in spread for name in names(callee))
            if param not in passed(callee) and not by_position:
                out[option] = path.name
    return out


def test_every_option_is_set():
    # a settable value that nothing sets is a constant with extra code paths
    unset = unset_options()
    assert set(unset) == set(ALLOWED_OPTIONS), unset


def test_import_leaves_scipy_stats_out():
    # scipy.stats alone would add about half a second to every import of
    # the package
    code = "import sys, coagtree; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False", done.stdout


SCIPY_USE = """
import json, sys, tempfile
import coagtree
from coagtree import cli
from coagtree.lln import ExperimentPlan, jump_density_test, run_lln


def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
                  or m == "multiprocessing" or m.startswith("multiprocessing.")
                  or m == "concurrent.futures.process")


seen = {"import": loaded()}
with tempfile.TemporaryDirectory() as out:
    cli.main(["simulate", "--n", "16", "--t", "1", "--seed", "3", "--out", out])
    seen["simulate"] = loaded()
    cli.main(["limit", "--max-leaves", "2", "--t", "1", "--out", out])
    seen["limit"] = loaded()
leaf = (("leaf", coagtree.ShapeIndicator(coagtree.LEAF)),)
run_lln(ExperimentPlan(coagtree.builtin("constant"), coagtree.MassSpectrum.monodisperse(),
                       1.0, leaf, n_ladder=(10, 20), replicas=(30, 30), tau_max_leaves=1,
                       jobs=1))
seen["run_lln"] = loaded()
jump_density_test(3, (1.0, 1.0, 2.0), coagtree.builtin("constant"), 1.0,
                  replicas=200, seed=1)
seen["jump_density_test"] = loaded()
print(json.dumps(seen))
"""


def test_import_leaves_scipy_out():
    # scipy.integrate alone would add about 0.5 s and 50 MB to every import
    # of the package, scipy.special over 10 MB, and the worker pool's
    # modules 1 to 2 MB
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", SCIPY_USE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    seen = json.loads(done.stdout.splitlines()[-1])
    assert list(seen) == ["import", "simulate", "limit", "run_lln", "jump_density_test"]
    assert all(names == [] for names in seen.values()), seen


RNG_AND_HASH_USE = """
import json, pathlib, sys, tempfile
import coagtree, coagtree.cli
from coagtree import cli, limit


def loaded():
    return [m for m in ("numpy.random", "_hashlib", "numpy.polynomial") if m in sys.modules]


seen = {"import": loaded()}
with tempfile.TemporaryDirectory() as out:
    cli.main(["solve", "--t", "1", "--out", out])
    cli.main(["limit", "--max-leaves", "2", "--t", "1", "--out", out])
    seen["solve, limit"] = loaded()
    kernel, mu0 = coagtree.builtin("constant"), coagtree.MassSpectrum.monodisperse()
    path = coagtree.solve(mu0, kernel, 1.0)
    leaf = coagtree.ShapeIndicator(coagtree.LEAF)
    limit.functionals((leaf,), 2, path, 1.0)
    limit.pushforward_check(path, mu0, kernel, 1.0, 3)
    seen["functionals, pushforward_check"] = loaded()
    spectrum = pathlib.Path(out) / "mu0.csv"
    spectrum.write_text("1.0,0.5\\n2.0,0.5\\n")
    cli.main(["limit", "--max-leaves", "2", "--t", "1", "--mu0", str(spectrum),
              "--out", out])
    seen["limit --mu0"] = loaded()
    cli.main(["simulate", "--n", "16", "--t", "1", "--out", out])
    seen["simulate"] = loaded()
print(json.dumps(seen))
"""


def test_limit_side_loads_no_rng_or_hash_module():
    # the limit side draws no random number, so numpy.random (6 MB with the
    # OpenSSL that its seeding pulls in) waits for the first replica stream,
    # and hashlib (3.5 MB) for the first input file of a manifest; the limit
    # evaluator builds its Chebyshev rules without numpy.polynomial (0.77 MB)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", RNG_AND_HASH_USE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "import": [],
        "solve, limit": [],
        "functionals, pushforward_check": [],
        "limit --mu0": ["_hashlib"],
        "simulate": ["numpy.random", "_hashlib"],
    }


def third_party_imports(paths) -> set:
    """Top-level modules that ``paths`` import, absolute imports only, less
    the standard library, the package and the modules beside each file."""
    out = set()
    for path in paths:
        local = {p.stem for p in path.parent.glob("*.py")} | {"coagtree"}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            out.update(top for name in names
                       if (top := name.partition(".")[0]) not in sys.stdlib_module_names
                       and top not in local)
    return out


def requirement_names(requirements: list) -> set:
    # the distribution name ahead of any version or marker; each of this
    # project's distributions installs a module of the same name
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert requirement_names(project["dependencies"]) == {"numpy"}
    assert third_party_imports(sorted(PACKAGE.glob("*.py"))) == {"numpy"}
    allowed = {"numpy"} | requirement_names(project["optional-dependencies"]["test"])
    assert allowed == {"numpy", "pytest", "hypothesis", "scipy"}
    tests = third_party_imports(sorted((ROOT / "tests").glob("*.py")))
    assert "scipy" in tests and tests <= allowed, tests
