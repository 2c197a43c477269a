"""Tiny expression grammar for scalar symbols.

Grammar (used in experiment configs)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('+'|'-') factor | atom ('**' integer)?
    atom   := number | 'x' | name '(' expr ')' | '(' expr ')'

Names: exp, sin, cos, sinh, cosh, tanh, abs, relu, gauss (gauss(u) = exp(-u^2)).
Division only by constants.  Derivatives are produced symbolically from the
parse tree, so polynomial symbols keep exact coefficients.  An expression
nested too deeply to parse and differentiate is a ConfigError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .symbols import SmoothSymbol

_FUNCS = {
    "exp": (np.exp, "exp"),
    "sin": (np.sin, "sin"),
    "cos": (np.cos, "cos"),
    "sinh": (np.sinh, "sinh"),
    "cosh": (np.cosh, "cosh"),
    "tanh": (np.tanh, "tanh"),
    "abs": (np.abs, "abs"),
    "relu": (lambda x: np.maximum(x, 0.0), "relu"),
    "gauss": (lambda x: np.exp(-np.asarray(x, dtype=float) ** 2), "gauss"),
}


class Node:
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

    def ev(self, x):
        return self.a.ev(x) + self.b.ev(x)

    def d(self):
        return Add(self.a.d(), self.b.d())


@dataclass(frozen=True)
class Mul(Node):
    a: Node
    b: Node

    def ev(self, x):
        return self.a.ev(x) * self.b.ev(x)

    def d(self):
        return Add(Mul(self.a.d(), self.b), Mul(self.a, self.b.d()))


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    n: int

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

    def ev(self, x):
        return _FUNCS[self.name][0](self.arg.ev(x))

    def d(self):
        u, du = self.arg, self.arg.d()
        if self.name == "exp":
            outer = Call("exp", u)
        elif self.name == "sin":
            outer = Call("cos", u)
        elif self.name == "cos":
            outer = Mul(Num(-1.0), Call("sin", u))
        elif self.name == "sinh":
            outer = Call("cosh", u)
        elif self.name == "cosh":
            outer = Call("sinh", u)
        elif self.name == "tanh":
            outer = Add(Num(1.0), Mul(Num(-1.0), Pow(Call("tanh", u), 2)))
        elif self.name == "abs":
            outer = Sign(u)
        elif self.name == "relu":
            outer = Step(u)
        elif self.name == "gauss":
            outer = Mul(Mul(Num(-2.0), u), Call("gauss", u))
        else:  # pragma: no cover
            raise ConfigError(f"no derivative rule for {self.name}")
        return Mul(outer, du)


@dataclass(frozen=True)
class Sign(Node):
    arg: Node

    def ev(self, x):
        return np.sign(self.arg.ev(x))

    def d(self):
        return Num(0.0)  # a.e. derivative; kink recorded separately


@dataclass(frozen=True)
class Step(Node):
    arg: Node

    def ev(self, x):
        return (self.arg.ev(x) > 0).astype(float)

    def d(self):
        return Num(0.0)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise ConfigError(f"symbol expression error at position {self.pos}: {msg} in {self.text!r}")

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Node:
        node = self.expr()
        if self.peek():
            self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            node = Add(node, rhs if op == "+" else Mul(Num(-1.0), rhs))
        return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            c = self.peek()
            if c == "*" and not self.text.startswith("**", self.pos):
                self.pos += 1
                node = Mul(node, self.factor())
            elif c == "/":
                self.pos += 1
                rhs = self.factor()
                if not isinstance(rhs, Num) or rhs.value == 0.0:
                    self.error("division only by nonzero constants")
                node = Mul(node, Num(1.0 / rhs.value))
            else:
                return node

    def factor(self) -> Node:
        c = self.peek()
        if c == "+":
            self.pos += 1
            return self.factor()
        if c == "-":
            self.pos += 1
            return Mul(Num(-1.0), self.factor())
        node = self.atom()
        if self.text.startswith("**", self.pos):
            self.pos += 2
            if self.peek() == "-":
                self.error("negative powers are not supported")
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if start == self.pos:
                self.error("expected integer power")
            node = Pow(node, int(self.text[start:self.pos]))
        return node

    def atom(self) -> Node:
        c = self.peek()
        if c == "(":
            self.pos += 1
            node = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return node
        if c.isdigit() or c == ".":
            start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isdigit() or self.text[self.pos] in ".eE"
                                                 or (self.text[self.pos] in "+-" and self.text[self.pos - 1] in "eE")):
                self.pos += 1
            try:
                return Num(float(self.text[start:self.pos]))
            except ValueError:
                self.error(f"bad number {self.text[start:self.pos]!r}")
        if c.isalpha():
            start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
                self.pos += 1
            name = self.text[start:self.pos]
            if name == "x":
                return Var()
            if name in _FUNCS:
                if self.peek() != "(":
                    self.error(f"{name} needs an argument in parentheses")
                self.pos += 1
                arg = self.expr()
                if self.peek() != ")":
                    self.error("expected ')'")
                self.pos += 1
                return Call(name, arg)
            self.error(f"unknown name {name!r}")
        self.error("expected an atom")


def _poly_coeffs(node: Node):
    """Ascending polynomial coefficients, or None when not a polynomial."""
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
        return out
    if isinstance(node, Mul):
        a, b = _poly_coeffs(node.a), _poly_coeffs(node.b)
        if a is None or b is None:
            return None
        out = [0.0] * (len(a) + len(b) - 1)
        for i, va in enumerate(a):
            for j, vb in enumerate(b):
                out[i + j] += va * vb
        return out
    if isinstance(node, Pow):
        base = _poly_coeffs(node.base)
        if base is None:
            return None
        out = [1.0]
        for _ in range(node.n):
            new = [0.0] * (len(out) + len(base) - 1)
            for i, va in enumerate(out):
                for j, vb in enumerate(base):
                    new[i + j] += va * vb
            out = new
        return out
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


def parse_symbol(text: str, max_order: int = 6) -> SmoothSymbol:
    """Build a SmoothSymbol with symbolic derivatives from an expression,
    sanity-checked on the window [-4, 4]; an expression that fails the check
    is a ConfigError."""
    def make(nd):
        return lambda x: nd.ev(x)

    try:
        # every step here, the sanity check's evaluations too, recurses per nesting level
        tree = _Parser(text).parse()
        coeffs = _poly_coeffs(tree)
        kinks = _kinks(tree)
        nodes = [tree]
        for _ in range(max_order):
            nodes.append(nodes[-1].d())
        return SmoothSymbol(
            func=make(tree),
            derivs=tuple(make(nd) for nd in nodes[1:]),
            max_order=max_order,
            window=(-4.0, 4.0),
            poly_coeffs=tuple(coeffs) if coeffs is not None else None,
            kinks=tuple(kinks) if kinks else (),
            name=text,
            check=kinks is not None,
        )
    except RecursionError:
        raise ConfigError(f"symbol expression is nested too deeply: {text[:60]!r}...") from None
    except ValueError as exc:  # the derivative sanity check
        raise ConfigError(f"symbol expression {text[:60]!r}: {exc}") from None
