"""The public names are what the certificate chain calls.

Every name in ``afcdepth.__all__`` must be reachable from the command line
(``cli.main``) or from the benchmark's ops (``perfbench/workloads.py``)
through the definitions of the package's own modules.  A name that only
tests reach belongs in the tests.
"""

import ast
from pathlib import Path

import afcdepth

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "afcdepth"
BENCHMARK_OPS = ROOT / "perfbench" / "workloads.py"


def referenced(node):
    """Bare names and attribute names used anywhere under an ast node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def definition_graph():
    """Top-level name -> names its definition uses, over the package modules
    other than ``__init__.py`` (whose imports would reach everything)."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                targets = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in targets:
                graph.setdefault(name, set()).update(referenced(stmt))
    return graph


def reachable():
    graph = definition_graph()
    seen = {"main"} | referenced(ast.parse(BENCHMARK_OPS.read_text()))
    stack = list(seen)
    while stack:
        for name in graph.get(stack.pop(), ()):
            if name not in seen:
                seen.add(name)
                stack.append(name)
    return seen


def test_every_public_name_is_on_the_chain():
    reached = reachable()
    assert [name for name in afcdepth.__all__ if name not in reached] == []
