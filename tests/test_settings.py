"""Lint: every default in ``src/opcalc`` is a setting that some call varies.

A defaulted parameter (or dataclass field) that no call site in
``src/opcalc`` passes is a fixed value dressed as a setting: delete it and
keep the default as the value.  ALLOWED names the exceptions and why.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "opcalc"

# "module.function[.parameter]" or "module.Class.field" -> why it stays settable
ALLOWED = {
    "besov.besov_difference_norm": "public norm, wrapped by name in bench/tracer.py; tests pass its "
                                   "m, n_der, j_range and sampling",
    "besov.besov_integral_norm": "public norm, wrapped by name in bench/tracer.py; tests pass its "
                                 "m, n_der and quadrature",
    "allen_cahn.ACProblem.blow_up_threshold": "derived from u0 unless set; tests set it to force or forbid a blow-up",
    "cli.main.argv": "tests and the console entry point pass the argument list",
    "experiments.capture_besov_equivalence.force": "passed by the CAPTURES dispatch in cli.py",
    "experiments.capture_nonlinear.force": "passed by the CAPTURES dispatch in cli.py",
    "experiments.capture_allen_cahn.force": "passed by the CAPTURES dispatch in cli.py",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _init_field(stmt) -> bool:
    """A dataclass field that is a constructor parameter."""
    if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
        return False
    if "ClassVar" in ast.unparse(stmt.annotation):
        return False
    value = stmt.value
    return not (isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field"
                and any(k.arg == "init" and getattr(k.value, "value", True) is False
                        for k in value.keywords))


def defaults(module: str, tree: ast.Module) -> list:
    """(name, callee, position or None, is_field) for each defaulted parameter
    of a function or method and each defaulted dataclass field.  ``callee`` is
    the name a call uses; ``position`` counts the call's positional arguments."""
    out = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                a = child.args
                positional = a.posonlyargs + a.args
                bound = cls is not None and not any(getattr(d, "id", "") == "staticmethod"
                                                    for d in child.decorator_list)
                callee = cls if child.name == "__init__" else child.name
                for arg in positional[len(positional) - len(a.defaults):]:
                    out.append((f"{prefix}{child.name}.{arg.arg}", callee,
                                positional.index(arg) - bound, False))
                out.extend((f"{prefix}{child.name}.{arg.arg}", callee, None, False)
                           for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(child, f"{prefix}{child.name}.", None)
            elif isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [s for s in child.body if _init_field(s)]
                    out.extend((f"{prefix}{child.name}.{s.target.id}", child.name, i, True)
                               for i, s in enumerate(fields) if s.value is not None)
                visit(child, f"{prefix}{child.name}.", child.name)
            else:
                visit(child, prefix, cls)

    visit(tree, f"{module}.", None)
    return out


def calls(tree: ast.Module) -> list:
    """(callee, positional count, keyword names, unpacks) for each call whose
    callee has a name; ``cls(...)`` in a class body is a call of that class."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "cls" and cls is not None:
                    name = cls
                if name is not None:
                    out.append((name, len(child.args), {k.arg for k in child.keywords},
                                any(isinstance(a, ast.Starred) for a in child.args)
                                or None in {k.arg for k in child.keywords}))
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(tree, None)
    return out


def unset_defaults(sources: dict) -> list:
    """Sorted names of the defaults that no call in ``sources`` (module name ->
    text) passes, by position or keyword (``replace`` keywords set fields)."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    found = [d for module, tree in trees.items() for d in defaults(module, tree)]
    seen = [c for tree in trees.values() for c in calls(tree)]
    unset = []
    for name, callee, position, is_field in found:
        param = name.rsplit(".", 1)[1]
        passed = any(c == callee and (star or param in kws or (position is not None and n > position))
                     or is_field and c == "replace" and param in kws
                     for c, n, kws, star in seen)
        if not passed:
            unset.append(name)
    return sorted(unset)


def _allowed(name: str) -> bool:
    return any(name == key or name.startswith(key + ".") for key in ALLOWED)


def test_every_default_is_set_by_some_call_site():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert "allen_cahn" in sources and "experiments" in sources
    unset = unset_defaults(sources)
    assert [name for name in unset if not _allowed(name)] == []
    # every allow-list entry still names a default that no call sets
    assert [key for key in ALLOWED if not any(n == key or n.startswith(key + ".") for n in unset)] == []


def test_unset_default_probe():
    # positional and keyword passes, bound methods, cls(...), replace(...) and
    # fields outside the constructor
    probe = (
        "from dataclasses import dataclass, field, replace\n"
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
        "class K:\n"
        "    def m(self, x=0, y=1):\n        return x\n"
        "@dataclass\nclass D:\n    u: int\n    v: int = 0\n    w: int = 1\n    t: int = 2\n"
        "    z: list = field(default_factory=list, init=False)\n"
        "    @classmethod\n"
        "    def make(cls):\n        return cls(0, 5)\n"
        "f(0, 5, e=6)\nK().m(1)\nreplace(D(1), w=2)\n")
    assert unset_defaults({"probe": probe}) == ["probe.D.t", "probe.K.m.y", "probe.f.c", "probe.f.d"]
