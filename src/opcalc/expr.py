"""Symbol expressions and their derivatives by jet recurrences.

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
Each node evaluates the truncated jet [F, F', ..., F^(k)] of its subtree
(Griewank & Walther, *Evaluating Derivatives*, SIAM 2008, ch. 13): sums add
entries, products take Leibniz's rule, and a power or a call y = F(u) takes
y^(i) = (u' F'(u))^(i-1), with the jet of F'(u) grown beside y's.  So a
subtree is evaluated once per jet however often the derivatives use it.
The tree's jet, padded with zeros to k + 1 entries, is the parsed
``SmoothSymbol.jet``: every derivative a reader takes comes from it.
Polynomials also keep exact coefficients.
A product or power of degree above 512 (``(x/8)**600`` too) is a ConfigError
before it is expanded.  So is a tree deeper than MAX_DEPTH levels: a jet
recurses once per level.
The degree is that of the coefficients without trailing zeros, so
``(x - x + 1)**600*x`` is x.
A power of a constant is one ``**``, and its overflow is a ConfigError.
"""

from __future__ import annotations

import ast
import warnings
from dataclasses import dataclass
from functools import reduce
from math import comb
from operator import add

import numpy as np

from .errors import ConfigError
from .symbols import SmoothSymbol

PARSED_ORDER = 6  # the derivatives of a parsed symbol: its max_order
MAX_DEPTH = 400  # tree levels: jet takes one frame each, leaving 600 of Python's default 1000


class Node:
    # levels of the tree; a composite node, built after its children, sets
    # one more than its deepest child's, so no depth count recurses
    depth = 1

    def jet(self, x, k: int) -> list:
        """[F, F', ..., F^(k)] at x, truncated: entries past its end are zero.
        Order 0 is the plain evaluation, and k = 0 builds no derivative."""
        raise NotImplementedError


def _leibniz(a: list, b: list, i: int):
    """(ab)^(i) = sum_l C(i, l) a^(l) b^(i-l) over the entries that the
    truncated jets a and b hold."""
    ls = range(max(0, i - len(b) + 1), min(i, len(a) - 1) + 1)
    return reduce(add, (comb(i, l) * a[l] * b[i - l] for l in ls))


@dataclass(frozen=True)
class Num(Node):
    value: float

    def jet(self, x, k):
        return [np.full_like(np.asarray(x, dtype=float), self.value, dtype=float)]


@dataclass(frozen=True)
class Var(Node):
    def jet(self, x, k):
        x = np.asarray(x, dtype=float)
        return [x, np.ones_like(x)] if k else [x]


@dataclass(frozen=True)
class Add(Node):
    a: Node
    b: Node

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + max(self.a.depth, self.b.depth))

    def jet(self, x, k):
        a, b = self.a.jet(x, k), self.b.jet(x, k)
        n = min(len(a), len(b))
        return [a[i] + b[i] for i in range(n)] + a[n:] + b[n:]


@dataclass(frozen=True)
class Mul(Node):
    a: Node
    b: Node

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + max(self.a.depth, self.b.depth))

    def jet(self, x, k):
        # a constant factor's jet has one entry, so c*b takes one product per order
        a, b = self.a.jet(x, k), self.b.jet(x, k)
        return [a[0] * b[0]] + [_leibniz(a, b, i) for i in range(1, min(k, len(a) + len(b) - 2) + 1)]


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    n: int

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + self.base.depth)

    def jet(self, x, k):
        # (u**m)' = u' g with g = m u**(m-1), so (u**m)^(i) = (u' g)^(i-1) reads
        # u**(m-1) to one order fewer: m walks up from n - k on the one jet of u
        u = self.base.jet(x, k)
        du, low = u[1:], max(self.n - k, 0)
        y = [u[0] ** low]
        for m in range(low + 1, self.n + 1):
            g = [m * t for t in y]
            y = [u[0] ** m] + [_leibniz(du, g, i - 1)
                               for i in range(1, min(k - self.n + m, len(u) + len(g) - 2) + 1)]
        return y


@dataclass(frozen=True)
class Call(Node):
    name: str
    arg: Node

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + self.arg.depth)

    def jet(self, x, k):
        u = self.arg.jet(x, k)
        f, y = self.name, [_FUNCS[self.name](u[0])]
        if len(u) == 1:  # order 0, or a constant argument
            return y
        if f in ("abs", "relu"):  # the a.e. derivative F'(u0) u^(i); kinks are recorded separately
            w = np.sign(u[0]) if f == "abs" else (u[0] > 0).astype(float)
            return y + [w * t for t in u[1:]]
        # y' = u' g with g = F'(u), so y^(i) = (u' g)^(i-1): g's jet grows with y's
        du = u[1:]
        if f == "gauss":  # exp(v), v = -u**2
            du = [-_leibniz(u, u, i) for i in range(1, min(k, 2 * len(u) - 2) + 1)]
        if f in _PAIRS:
            g0, s = _PAIRS[f]
            g = [g0(u[0])]
        else:
            g = [1 - y[0] ** 2] if f == "tanh" else y  # exp, gauss: g = y
        for i in range(1, k + 1):
            y.append(_leibniz(du, g, i - 1))
            if f in _PAIRS:  # g' = s y u'
                g.append(s * _leibniz(du, y, i - 1))
            elif f == "tanh":  # g = 1 - y**2
                g.append(-_leibniz(y, y, i))
        return y


# name -> numpy evaluator; Call.jet holds the derivative rules
_FUNCS = {
    "exp": np.exp, "sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "abs": np.abs, "relu": lambda x: np.maximum(x, 0.0),
    "gauss": lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
}
# F' of sin, cos, sinh, cosh, and the sign s of F'' = s F
_PAIRS = {"sin": (np.cos, -1), "cos": (lambda u: -np.sin(u), -1), "sinh": (np.cosh, 1), "cosh": (np.sinh, 1)}


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
    """Build a SmoothSymbol of max_order PARSED_ORDER whose jet is the
    expression tree's, padded with zeros past its end, sanity-checked on the
    window [-4, 4]; an expression that fails the check is a ConfigError."""
    def jet(x, k):
        j = tree.jet(x, k)
        return j + [np.zeros_like(j[0])] * (k + 1 - len(j))

    try:
        # every step here, the sanity check's evaluations too, recurses per
        # nesting level; after _tree, the tree's depth is checked first
        tree = _tree(text)
        if tree.depth > MAX_DEPTH:
            raise RecursionError
        coeffs = _poly_coeffs(tree)
        kinks = _kinks(tree)
        return SmoothSymbol(
            jet=jet,
            max_order=PARSED_ORDER,
            window=(-4.0, 4.0),
            poly_coeffs=tuple(coeffs) if coeffs is not None else None,
            kinks=tuple(kinks) if kinks else (),
            check=kinks is not None,
        )
    except RecursionError:
        raise ConfigError(f"symbol expression is nested too deeply: {text[:60]!r}...") from None
    except ValueError as exc:  # the degree bound, a constant overflow or the sanity check
        raise ConfigError(f"symbol expression {text[:60]!r}: {exc}") from None
