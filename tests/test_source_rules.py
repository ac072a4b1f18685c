"""Static rules over the package source.

Every invariant is an exact check that stays on in every run mode, so no
bare ``assert`` guards one; and no code changes interpreter-wide state: no
``global`` statement, no ``sys.set*`` or ``gc.*`` call, and no call to the
module-level ``random`` functions (a seeded ``random.Random(...)`` is fine).
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "alphasched").glob("*.py"))


def violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.Global):
            found.append(f"line {node.lineno}: global statement")
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
    return found


def test_sources_found():
    assert {"model.py", "engine.py", "analysis.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_rules(path):
    assert violations(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "assert x > 0",
        "def f():\n    global X\n",
        "import sys\nsys.setrecursionlimit(10**6)",
        "import gc\ngc.disable()",
        "import random\nrandom.seed(1)",
        "import random\nx = random.choice([1, 2])",
    ],
)
def test_rules_catch(snippet):
    assert len(violations(ast.parse(snippet))) == 1


def test_seeded_generator_allowed():
    assert violations(ast.parse("import random\nrng = random.Random(7)\nrng.random()")) == []
