"""Symbol expressions with symbolic derivatives.

Grammar (used in experiment configs), with Python's precedence::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('+'|'-') factor | atom ('**' integer)?
    atom   := number | 'x' | name '(' expr ')' | '(' expr ')'

Names: exp, sin, cos, sinh, cosh, tanh, abs, relu, gauss (gauss(u) = exp(-u^2)).
Division only by nonzero constants.  Python's ``ast`` parser reads the text,
each run of whitespace made one space, and a whitelist turns its tree into
Nodes; nothing is evaluated.  Numerals are decimal int/float literals read by
float() (1e999 is inf).  Hex, octal, binary, underscores, complex, bool, '#',
',', non-ASCII characters and nesting past 200 parentheses are errors.  Unlike
the hand-written parser this replaced, ``x ** 2`` and ``x**(2)`` parse, while
leading-zero integers (``007``, ``x**02``) and non-ASCII digits do not.
Derivatives are built from the tree, so polynomials keep exact coefficients.
A product or power of degree above 512 (``(x/8)**600`` too) is a ConfigError
before it is expanded.  So is a tree, or any of its derivative trees, deeper
than MAX_DEPTH levels: evaluation and differentiation recurse once per level.
The degree is that of the coefficients without trailing zeros, so
``(x - x + 1)**600*x`` is x.
A power of a constant is one ``**``, and its overflow is a ConfigError.
"""

from __future__ import annotations

import ast
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .symbols import SmoothSymbol

PARSED_ORDER = 6  # the symbolic derivatives of a parsed symbol: its max_order
MAX_DEPTH = 400  # tree levels: ev takes one frame each, leaving 600 of Python's default 1000


class Node:
    # levels of the tree; a composite node, built after its children, sets
    # one more than its deepest child's, so no depth count recurses
    depth = 1

    def ev(self, x):
        raise NotImplementedError

    def d(self) -> "Node":
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Node):
    value: float

    def ev(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.value, dtype=float)

    def d(self):
        return Num(0.0)


@dataclass(frozen=True)
class Var(Node):
    def ev(self, x):
        return np.asarray(x, dtype=float)

    def d(self):
        return Num(1.0)


@dataclass(frozen=True)
class Add(Node):
    a: Node
    b: Node

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + max(self.a.depth, self.b.depth))

    def ev(self, x):
        return self.a.ev(x) + self.b.ev(x)

    def d(self):
        return Add(self.a.d(), self.b.d())


@dataclass(frozen=True)
class Mul(Node):
    a: Node
    b: Node

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + max(self.a.depth, self.b.depth))

    def ev(self, x):
        return self.a.ev(x) * self.b.ev(x)

    def d(self):
        # a constant factor is not differentiated: the full product rule would
        # copy the other factor into every higher derivative
        if isinstance(self.a, Num):
            return Mul(self.a, self.b.d())
        if isinstance(self.b, Num):
            return Mul(self.a.d(), self.b)
        return Add(Mul(self.a.d(), self.b), Mul(self.a, self.b.d()))


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    n: int

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + self.base.depth)

    def ev(self, x):
        return self.base.ev(x) ** self.n

    def d(self):
        if self.n == 0:
            return Num(0.0)
        return Mul(Mul(Num(float(self.n)), Pow(self.base, self.n - 1)), self.base.d())


@dataclass(frozen=True)
class Call(Node):
    name: str
    arg: Node

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + self.arg.depth)

    def ev(self, x):
        return _FUNCS[self.name][0](self.arg.ev(x))

    def d(self):
        return Mul(_FUNCS[self.name][1](self.arg), self.arg.d())


@dataclass(frozen=True)
class Sign(Node):
    arg: Node

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + self.arg.depth)

    def ev(self, x):
        return np.sign(self.arg.ev(x))

    def d(self):
        return Num(0.0)  # a.e. derivative; kink recorded separately


@dataclass(frozen=True)
class Step(Node):
    arg: Node

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + self.arg.depth)

    def ev(self, x):
        return (self.arg.ev(x) > 0).astype(float)

    def d(self):
        return Num(0.0)


# name -> (numpy evaluator, derivative rule u -> F'(u) as a tree)
_FUNCS = {
    "exp": (np.exp, lambda u: Call("exp", u)),
    "sin": (np.sin, lambda u: Call("cos", u)),
    "cos": (np.cos, lambda u: Mul(Num(-1.0), Call("sin", u))),
    "sinh": (np.sinh, lambda u: Call("cosh", u)),
    "cosh": (np.cosh, lambda u: Call("sinh", u)),
    "tanh": (np.tanh, lambda u: Add(Num(1.0), Mul(Num(-1.0), Pow(Call("tanh", u), 2)))),
    "abs": (np.abs, Sign),
    "relu": (lambda x: np.maximum(x, 0.0), Step),
    "gauss": (lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
              lambda u: Mul(Mul(Num(-2.0), u), Call("gauss", u))),
}


def _tree(text: str) -> Node:
    """The Node tree of an expression, read by Python's parser through a whitelist."""
    src = " ".join(text.split())

    def fail(what: str):
        raise ConfigError(f"symbol expression error: {what} in {text!r}")

    # Python would drop a comment, accept a call's trailing comma and fold
    # non-ASCII names such as U+FF58 into ASCII ones
    bad = [c for c in src if c in "#," or not c.isascii()]
    if bad:
        fail(f"unexpected {bad[0]!r}")
    try:
        with warnings.catch_warnings():  # '1if x' would print a SyntaxWarning, then fail below
            warnings.simplefilter("error", SyntaxWarning)  # now a SyntaxError
            body = ast.parse(src, mode="eval").body
    except SyntaxError as exc:
        if exc.msg == "too many nested parentheses":  # the tokenizer stops at 200 levels
            raise RecursionError from None  # parse_symbol: "nested too deeply"
        fail(exc.msg)

    def walk(node) -> Node:
        seg = src[node.col_offset:node.end_col_offset]  # one ASCII line: offsets are characters
        kind, op = type(node), type(getattr(node, "op", None))
        if kind is ast.Constant and type(node.value) in (int, float) and set(seg) <= set("0123456789.eE+-"):
            return Num(float(seg))  # float() of the text: a 400-digit integer reads as inf
        if kind is ast.Name and node.id == "x":
            return Var()
        if kind is ast.UnaryOp and op in (ast.UAdd, ast.USub):
            return walk(node.operand) if op is ast.UAdd else Mul(Num(-1.0), walk(node.operand))
        if kind is ast.BinOp and op is ast.Pow:
            n = node.right
            if type(n) is not ast.Constant or not src[n.col_offset:n.end_col_offset].isdigit():
                fail(f"{seg!r} needs a nonnegative integer power")
            return Pow(walk(node.left), int(n.value))
        if kind is ast.BinOp and op in (ast.Add, ast.Sub, ast.Mult, ast.Div):
            a, b = walk(node.left), walk(node.right)
            if op is ast.Div:
                if type(b) is not Num or b.value == 0.0:
                    fail(f"{seg!r} divides by other than a nonzero constant")
                return Mul(a, Num(1.0 / b.value))
            return Mul(a, b) if op is ast.Mult else Add(a, b if op is ast.Add else Mul(Num(-1.0), b))
        if (kind is ast.Call and type(node.func) is ast.Name and node.func.id in _FUNCS
                and len(node.args) == 1 and not node.keywords):
            return Call(node.func.id, walk(node.args[0]))
        fail(f"{seg!r} is not in the grammar")

    return walk(body)


def _check_degree(degree: int):
    if degree > 512:  # at the edge of the check window [-4, 4], 4**512 = 2**1024 overflows
        raise ValueError(f"polynomial degree {degree} is above 512")


def _trimmed(coeffs: list) -> list:
    """coeffs without trailing zeros, keeping at least the constant term."""
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    return coeffs


def _poly_coeffs(node: Node):
    """Ascending polynomial coefficients without trailing zeros, or None when
    not a polynomial; the degree bound reads these trimmed degrees."""
    if isinstance(node, Num):
        return [node.value]
    if isinstance(node, Var):
        return [0.0, 1.0]
    if isinstance(node, Add):
        a, b = _poly_coeffs(node.a), _poly_coeffs(node.b)
        if a is None or b is None:
            return None
        out = [0.0] * max(len(a), len(b))
        for i, v in enumerate(a):
            out[i] += v
        for i, v in enumerate(b):
            out[i] += v
        return _trimmed(out)
    if isinstance(node, Mul):
        a, b = _poly_coeffs(node.a), _poly_coeffs(node.b)
        if a is None or b is None:
            return None
        _check_degree(len(a) + len(b) - 2)
        out = [0.0] * (len(a) + len(b) - 1)
        for i, va in enumerate(a):
            for j, vb in enumerate(b):
                out[i + j] += va * vb
        return _trimmed(out)
    if isinstance(node, Pow):
        base = _poly_coeffs(node.base)
        if base is None:
            return None
        if len(base) == 1:  # a constant: one power, not n products
            try:
                return [base[0] ** node.n]
            except OverflowError:
                raise ValueError(f"constant power {base[0]:g}**{node.n} overflows") from None
        _check_degree((len(base) - 1) * node.n)
        out = [1.0]
        for _ in range(node.n):
            new = [0.0] * (len(out) + len(base) - 1)
            for i, va in enumerate(out):
                for j, vb in enumerate(base):
                    new[i + j] += va * vb
            out = new
        return _trimmed(out)
    return None


def _kinks(node: Node):
    """Kink locations of abs/relu with affine arguments; None if unresolvable."""
    pts = []
    if isinstance(node, Call) and node.name in ("abs", "relu"):
        c = _poly_coeffs(node.arg)
        if c is None or len(c) > 2:
            return None
        if len(c) == 2 and c[1] != 0:
            pts.append(-c[0] / c[1])
        inner = _kinks(node.arg)
        if inner is None:
            return None
        return pts + inner
    for child in ("a", "b", "arg", "base"):
        sub = getattr(node, child, None)
        if isinstance(sub, Node):
            inner = _kinks(sub)
            if inner is None:
                return None
            pts.extend(inner)
    return pts


def parse_symbol(text: str) -> SmoothSymbol:
    """Build a SmoothSymbol with PARSED_ORDER symbolic derivatives from an
    expression, sanity-checked on the window [-4, 4]; an expression that fails
    the check is a ConfigError."""
    def make(nd):
        return lambda x: nd.ev(x)

    try:
        # every step here, the sanity check's evaluations too, recurses per
        # nesting level; after _tree, each tree it reaches is checked first
        nodes = [_tree(text)]
        while len(nodes) <= PARSED_ORDER and nodes[-1].depth <= MAX_DEPTH:
            nodes.append(nodes[-1].d())
        if nodes[-1].depth > MAX_DEPTH:
            raise RecursionError
        tree = nodes[0]
        coeffs = _poly_coeffs(tree)
        kinks = _kinks(tree)
        return SmoothSymbol(
            func=make(tree),
            derivs=tuple(make(nd) for nd in nodes[1:]),
            window=(-4.0, 4.0),
            poly_coeffs=tuple(coeffs) if coeffs is not None else None,
            kinks=tuple(kinks) if kinks else (),
            name=text,
            check=kinks is not None,
        )
    except RecursionError:
        raise ConfigError(f"symbol expression is nested too deeply: {text[:60]!r}...") from None
    except ValueError as exc:  # the degree bound, a constant overflow or the sanity check
        raise ConfigError(f"symbol expression {text[:60]!r}: {exc}") from None
