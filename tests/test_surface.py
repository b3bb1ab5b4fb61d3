"""The public surface: every exported name has a caller in the program.

A name exported from ``ellselberg/__init__.py`` must be used somewhere in
``src/ellselberg`` outside its own definition, or by the benchmark
workloads in ``bench/workloads.py``.  Docstrings and import lines do not
count as uses.  Formulas that only the tests need live in
``tests/references.py`` instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ellselberg"
WORKLOADS = ROOT / "bench" / "workloads.py"

def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


class _Uses(ast.NodeVisitor):
    """Names read as ``name`` or ``obj.name``, skipping each name's own body."""

    def __init__(self):
        self.names = set()
        self._inside = []

    def visit_FunctionDef(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self._inside:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self._inside:
            self.names.add(node.attr)
        self.generic_visit(node)


def used_names() -> set:
    uses = _Uses()
    for path in sorted(PACKAGE.glob("*.py")) + [WORKLOADS]:
        if path.name != "__init__.py":
            uses.visit(ast.parse(path.read_text()))
    return uses.names


def test_every_export_has_a_caller():
    unused = exported_names() - used_names()
    assert not unused, f"exported but never used by the program: {sorted(unused)}"
