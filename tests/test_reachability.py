"""Lint: every top-level function, class and method in ``src/opcalc`` is
referenced by name from ``src/opcalc`` (outside its own definition) or from
``tools/``.

A definition that only tests reach is code that only tests use: move it into
the tests or delete it.  The scan is by name, so any reference of the same
name counts, whatever it is bound to.  Dunder methods are called by Python
itself.  ALLOWED names the exceptions and why.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "opcalc"
TOOLS = ROOT / "tools"

# "module.name" or "module.Class.method" -> why it stays without a reference
ALLOWED = {
    "besov.block_difference_check": "bench/tracer.py wraps it by name (besov.harness)",
    "besov.heat_smoothing_check": "bench/tracer.py wraps it by name (besov.harness)",
    "besov.apply_paraproduct": "bench/tracer.py wraps it by name (besov.harness)",
}


def definitions(module: str, tree: ast.Module) -> list:
    """(qualified name, name, node) of each top-level function and class and
    each method of a top-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((f"{module}.{node.name}", node.name, node))
        if isinstance(node, ast.ClassDef):
            out.extend((f"{module}.{node.name}.{child.name}", child.name, child)
                       for child in node.body
                       if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not (child.name.startswith("__") and child.name.endswith("__")))
    return out


def references(tree: ast.AST, skip=None) -> set:
    """Names that tree reads: identifiers, attributes and imported names,
    outside the subtree ``skip``."""
    out = set()

    def visit(node):
        if node is skip:
            return
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return out


def unreferenced(sources: dict, others: list) -> list:
    """Sorted qualified names of the definitions in ``sources`` (module name ->
    text) that no other part of those sources and no text of ``others``
    references."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    outside = set().union(*(references(ast.parse(text)) for text in others))
    refs = {module: references(tree) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for qualified, name, node in definitions(module, tree):
            if name in outside or any(name in r for m, r in refs.items() if m != module):
                continue
            if name not in references(tree, skip=node):
                found.append(qualified)
    return sorted(found)


def test_every_definition_is_referenced():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    tools = [path.read_text() for path in sorted(TOOLS.glob("*.py"))]
    assert "torus" in sources and tools
    found = unreferenced(sources, tools)
    assert [name for name in found if name not in ALLOWED] == []
    # every allow-list entry still names a definition without a reference
    assert [key for key in ALLOWED if key not in found] == []


def test_unreferenced_probe():
    # calls, attributes and imports count; a definition's own body does not
    probe = (
        "from .other import g\n"
        "def f(n):\n    return f(n - 1) if n else 0\n"
        "def h():\n    return 1\n"
        "class K:\n"
        "    def __init__(self):\n        self.x = h()\n"
        "    def used(self):\n        return 0\n"
        "    def unused(self):\n        return self.used()\n"
        "def g():\n    return K\n")
    assert unreferenced({"probe": probe}, []) == ["probe.K.unused", "probe.f"]
    assert unreferenced({"probe": probe}, ["probe.f(3)"]) == ["probe.K.unused"]
