"""Static rules over the package source.

Every invariant is an exact check that stays on in every run mode, so no
bare ``assert`` guards one; no code changes interpreter-wide state: no
``global`` statement, no ``sys.set*`` or ``gc.*`` call, and no call to the
module-level ``random`` functions (a seeded ``random.Random(...)`` is fine);
no rational (``Fraction(...)`` or ``Rat(...)``) is built as the default of
a ``.get(...)`` call, where it would be built afresh on every lookup; no
``Fraction(...)`` is called outside ``rational.py``, so every rational the
package builds is a ``rational.Rat``, whose integer fast paths a plain
``Fraction`` would leave on any path it reaches; no ``._numerator`` or
``._denominator`` attribute is read or written outside ``rational.py``, so
the CPython detail that ``Rat`` builds on stays in one module;
and floats stay out of the computation: ``float(...)`` is called only in
``cli.py``, where reports are formatted.  Every imported name is used,
except in ``__init__.py``, whose imports are the package's re-exports, and
every module-level private name (``_name``) is read in its module.  The
verifier's layers import one way: ``borrow.py`` imports neither ``flow`` nor
``analysis``, and ``flow.py`` does not import ``analysis``.  Dummy and hub
vertices are a detail of the flow network: the string constants
``"dummy"`` and ``"hub"`` appear in no module but ``flow.py``.

Every function and class the package defines is read somewhere: a method
through an attribute, a module-level function or class through a name or an
attribute.  Reads count in the package and in ``bench/``, and so do string
constants in ``bench/`` (the tracer patches names by string) and the
re-exports of ``__init__.py``.  Dunder methods, which Python calls itself,
are exempt, and so is each name in ``UNREAD_ALLOWED``, with its reason.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "alphasched").glob("*.py"))
BENCH_SOURCES = sorted((ROOT / "bench").glob("*.py"))
FLOAT_MODULES = {"cli.py"}
FRACTION_MODULES = {"rational.py"}
FRACTION_SLOTS = {"_numerator", "_denominator"}
REEXPORT_MODULES = {"__init__.py"}
# the flow network's vertex kinds that only these modules name
FLOW_VERTEX_KINDS = {"dummy", "hub"}
FLOW_MODULES = {"flow.py"}
UNREAD_ALLOWED = {
    "brute_force_min_total_flow": "the documented optimum oracle that tier-1 checks SRPT against",
}
# per verifier layer, the package modules of the layers above it
UPPER_LAYERS = {"borrow.py": {"flow", "analysis"}, "flow.py": {"analysis"}}
# snippets that break a rule only inside one module, with that module
SNIPPET_MODULES = {
    "from .flow import SINK\nx = SINK": "borrow.py",
    "from alphasched import analysis\nx = analysis": "borrow.py",
    "from . import analysis\nx = analysis": "flow.py",
    'x = v[0] == "dummy"': "analysis.py",
    'x = v[0] == "hub"': "analysis.py",
}


def violations(tree: ast.AST, filename: str = "") -> list[str]:
    """Rule breaks in the parsed source of the module file ``filename``."""
    found = []
    named = set()  # get defaults already named, so a Fraction default is named once
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.Global):
            found.append(f"line {node.lineno}: global statement")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and filename not in FLOAT_MODULES
        ):
            found.append(f"line {node.lineno}: float call")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Call)
            and isinstance(node.args[1].func, ast.Name)
            and node.args[1].func.id in ("Fraction", "Rat")
        ):
            found.append(f"line {node.lineno}: {node.args[1].func.id} built as a get default")
            named.add(node.args[1])
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction"
            and filename not in FRACTION_MODULES
            and node not in named
        ):
            found.append(f"line {node.lineno}: Fraction call")
        elif (
            isinstance(node, ast.Constant)
            and node.value in FLOW_VERTEX_KINDS
            and filename not in FLOW_MODULES
        ):
            found.append(f"line {node.lineno}: {node.value} vertex outside flow.py")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in FRACTION_SLOTS
            and filename not in FRACTION_MODULES
        ):
            found.append(f"line {node.lineno}: Fraction slot {node.attr}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
        ):
            module, name = node.func.value.id, node.func.attr
            if (
                (module == "sys" and name.startswith("set"))
                or module == "gc"
                or (module == "random" and name != "Random")
            ):
                found.append(f"line {node.lineno}: call to {module}.{name}")
    if filename not in REEXPORT_MODULES:
        found += unused_imports(tree)
    return found + unused_private_names(tree) + upward_imports(tree, filename)


def upward_imports(tree: ast.AST, filename: str) -> list[str]:
    """Imports of a package module from a layer above ``filename``'s."""
    upper = UPPER_LAYERS.get(filename, set())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" if node.module else alias.name for alias in node.names]
        else:
            continue
        for name in names:
            module = name.removeprefix("alphasched.").split(".")[0]
            if module in upper:
                found.append(f"line {node.lineno}: {filename} imports {module}")
    return found


def unused_imports(tree: ast.AST) -> list[str]:
    """Imported names that no name in the module reads; an attribute chain
    reads the name it starts from."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: unused import {name}" for name, line in imported.items() if name not in used
    ]


def unused_private_names(tree: ast.Module) -> list[str]:
    """Module-level private names (``_name``, bound by a function, a class
    or an assignment) that no name in the module reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: unused private name {name}" for name, line in bound.items() if name not in read]


def unread_definitions(modules: dict[str, ast.Module], bench: list[ast.Module]) -> list[str]:
    """Functions and classes that ``modules`` (file name -> tree) define and
    nothing reads, as "file:line: kind name"."""
    names, attributes, exported = set(), set(), set()
    for tree in [*modules.values(), *bench]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    strings = {
        node.value for tree in bench for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    for filename in REEXPORT_MODULES & modules.keys():
        exported |= {
            alias.asname or alias.name
            for node in ast.walk(modules[filename]) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    read, read_as_method = names | attributes | strings | exported, attributes | strings
    found = []
    for filename, tree in sorted(modules.items()):
        for node in tree.body:
            if not isinstance(node, (*functions, ast.ClassDef)):
                continue
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            if node.name not in read:
                found.append(f"{filename}:{node.lineno}: {kind} {node.name}")
            methods = [m for m in node.body if isinstance(m, functions)] if kind == "class" else []
            for member in methods:
                dunder = member.name.startswith("__") and member.name.endswith("__")
                if not dunder and member.name not in read_as_method:
                    found.append(f"{filename}:{member.lineno}: method {node.name}.{member.name}")
    return found


def parsed(paths) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}


def test_sources_found():
    assert {"model.py", "engine.py", "analysis.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_rules(path):
    assert violations(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.name) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "assert x > 0",
        "def f():\n    global X\n",
        "import sys\nsys.setrecursionlimit(10**6)",
        "import gc\ngc.disable()",
        "import random\nrandom.seed(1)",
        "import random\nx = random.choice([1, 2])",
        "x = float(y)",
        "from fractions import Fraction\nx = totals.get(key, Fraction(0))",
        "from fractions import Fraction\nx = Fraction(1, 2)",
        "x = y.numerator + y._denominator",
        "y._numerator = 1",
        "from alphasched.rational import Rat\nx = totals.get(key, Rat(0))",
        "import weakref\nfrom typing import Mapping, Optional\nx: Optional[Mapping] = None",
        "def _helper():\n    return 1\n\n_LIMIT = 3\nx = _LIMIT",
        *SNIPPET_MODULES,
    ],
)
def test_rules_catch(snippet):
    assert len(violations(ast.parse(snippet), SNIPPET_MODULES.get(snippet, ""))) == 1


def test_float_call_in_the_model_caught():
    model = next(p for p in SOURCES if p.name == "model.py")
    source = model.read_text(encoding="utf-8") + "\nHALF = float(1) / 2\n"
    assert [v.split(": ", 1)[1] for v in violations(ast.parse(source), model.name)] == ["float call"]


def test_leftover_private_helper_caught():
    analysis = next(p for p in SOURCES if p.name == "analysis.py")
    source = analysis.read_text(encoding="utf-8") + (
        "\n\ndef _signalled_at(trace, j, t):\n    return trace.emissions.get(j, t + 1) <= t\n"
    )
    assert [v.split(": ", 1)[1] for v in violations(ast.parse(source), analysis.name)] == [
        "unused private name _signalled_at"
    ]


def test_every_definition_is_read():
    unread = unread_definitions(parsed(SOURCES), list(parsed(BENCH_SOURCES).values()))
    assert [line for line in unread if line.rsplit(" ", 1)[1] not in UNREAD_ALLOWED] == []


def test_leftover_method_caught():
    modules = parsed(SOURCES)
    graph = next(
        node for node in modules["borrow.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "BorrowGraph"
    )
    graph.body += ast.parse("def successors(self, j):\n    return sorted(self._succ.get(j, ()))").body
    unread = unread_definitions(modules, list(parsed(BENCH_SOURCES).values()))
    assert [line.split(": ", 1)[1] for line in unread if "BorrowGraph" in line] == [
        "method BorrowGraph.successors"
    ]


def test_float_call_allowed_in_the_cli():
    assert violations(ast.parse("x = float(y)"), "cli.py") == []


def test_fraction_call_allowed_in_the_rational_module():
    assert violations(ast.parse("from fractions import Fraction\nx = Fraction(1, 2)"), "rational.py") == []


def test_fraction_slots_allowed_in_the_rational_module():
    assert violations(ast.parse("r._numerator = a._numerator\nd = a._denominator"), "rational.py") == []


def test_seeded_generator_allowed():
    assert violations(ast.parse("import random\nrng = random.Random(7)\nrng.random()")) == []
