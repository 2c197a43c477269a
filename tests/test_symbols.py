import itertools
import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opcalc.chain import DerivationSpec, chain_rule_residual
from opcalc.errors import ConfigError, OrderExceeded
from opcalc.expr import MAX_DEPTH, PARSED_ORDER, Add, Call, Mul, Num, Pow, Var, _tree, parse_symbol
from opcalc.linalg import random_hermitian
from opcalc.seeding import rng_for
from opcalc.symbols import (BumpLocalizer, LPFilterFamily, SmoothSymbol, cb_norm, divided_diff,
                            divided_diff_tensor, lipschitz_norm, localize)


def brute_homogeneous(k, nodes):
    """Enumeration oracle: sum of all degree-k monomials in the nodes."""
    total = 0.0
    for combo in itertools.combinations_with_replacement(range(len(nodes)), k):
        prod = 1.0
        for i in combo:
            prod *= nodes[i]
        total += prod
    return total


@pytest.mark.parametrize("k,nodes", [(0, [2.0]), (1, [1.0, 2.0, 3.0]),
                                     (2, [1.0, 2.0, 3.0]), (3, [0.5, -1.5, 2.0, 0.25])])
def test_homogeneous_sym_against_enumeration(k, nodes):
    # the n-th divided difference of x**(k+n) is h_k of the n+1 nodes
    F = parse_symbol(f"x**{k + len(nodes) - 1}")
    assert divided_diff(F, np.array(nodes)) == pytest.approx(brute_homogeneous(k, nodes))


def test_divided_diff_square_two_nodes():
    F = parse_symbol("x**2")
    assert divided_diff(F, [1.5, 2.5]) == pytest.approx(4.0)  # a + b


def test_divided_diff_equal_nodes_is_derivative():
    F = parse_symbol("sin(x)")
    assert divided_diff(F, [0.4, 0.4]) == pytest.approx(math.cos(0.4), abs=1e-10)


def test_divided_diff_cube_123():
    assert divided_diff(parse_symbol("x**3"), [1, 2, 3]) == pytest.approx(6.0)


def test_divided_diff_low_degree_vanishes():
    # order n > polynomial degree m gives zero (m + 2 nodes)
    F = parse_symbol("x**2")
    assert divided_diff(F, [0.1, 0.7, 1.3, 2.9]) == pytest.approx(0.0, abs=1e-14)


def test_divided_diff_polynomial_is_homogeneous_sym():
    rng = rng_for(0, "dd")
    nodes = rng.uniform(-2, 2, size=4)
    for m in (3, 4, 6):
        F = parse_symbol(f"x**{m}")
        expect = brute_homogeneous(m - 3, list(nodes))
        assert divided_diff(F, nodes) == pytest.approx(expect, rel=1e-10)


def test_divided_diff_symmetry():
    F = parse_symbol("exp(x)")
    rng = rng_for(1, "perm")
    nodes = rng.uniform(-1, 1, size=4)
    base = divided_diff(F, nodes)
    for perm in itertools.permutations(nodes):
        assert divided_diff(F, list(perm)) == pytest.approx(base, abs=1e-12 * max(1, abs(base)))


def test_divided_diff_near_confluent_stable():
    F = parse_symbol("exp(x)")
    v1 = divided_diff(F, [1.0, 1.0 + 1e-9, 1.0 - 1e-9])
    assert v1 == pytest.approx(math.exp(1.0) / 2, rel=1e-6)  # F''(1)/2!


def test_divided_diff_mean_value_bound():
    F = parse_symbol("sin(x)")
    rng = rng_for(2, "mv")
    for _ in range(50):
        a, b = rng.uniform(-3, 3, size=2)
        if a == b:
            continue
        assert abs(divided_diff(F, [a, b])) <= 1.0 + 1e-12


def test_divided_diff_order_exceeded():
    tanh = parse_symbol("tanh(x)")
    F = SmoothSymbol(func=tanh.func, derivs=tanh.derivs[:2])
    assert F.max_order == 2
    with pytest.raises(OrderExceeded):
        divided_diff(F, [0.0, 0.1, 0.2, 0.3])


def test_every_order_check_is_require_order():
    # the order of a symbol is len(derivs), and each site that needs more
    # derivatives than that raises through the one method
    tanh = parse_symbol("tanh(x)")
    F = SmoothSymbol(func=tanh.func, derivs=tanh.derivs[:2])
    assert tanh.max_order == 6
    h = random_hermitian(rng_for(3, "order"), 4)
    nodes = np.array([0.0, 0.1, 0.2])
    for what, needs_three in [
            ("derivative", lambda: F.deriv(3)),
            ("divided difference", lambda: divided_diff(F, [0.0, 0.1, 0.2, 0.3])),
            ("divided difference", lambda: divided_diff_tensor(F, [nodes] * 4)),
            ("C_b^3 norm", lambda: cb_norm(F, 3, (-1.0, 1.0))),
            ("expansion", lambda: chain_rule_residual(F, h, [(3,)], DerivationSpec("inner", (h,))))]:
        with pytest.raises(OrderExceeded, match=re.escape(f"{what} needs order 3 > max_order 2")):
            needs_three()


def test_tensor_first_order_single_nodes():
    F = parse_symbol("sin(x)")
    t = divided_diff_tensor(F, [np.array([0.0]), np.array([0.0])])
    assert t.shape == (1, 1)
    assert t[0, 0] == pytest.approx(1.0, abs=1e-10)  # F'(0)


def test_tensor_square_grid():
    F = parse_symbol("x**2")
    t = divided_diff_tensor(F, [np.array([1.0, 2.0]), np.array([3.0])])
    assert np.allclose(t, [[4.0], [5.0]])


def test_tensor_constant_symbol_second_order_zero():
    F = parse_symbol("3 + 0*x")
    t = divided_diff_tensor(F, [np.array([0.0, 1.0])] * 3)
    assert np.max(np.abs(t)) == 0.0


def test_tensor_generic_matches_scalar():
    F = parse_symbol("tanh(x)")
    spectra = [np.array([0.1, 0.5]), np.array([-0.3, 0.8]), np.array([0.2])]
    t = divided_diff_tensor(F, spectra)
    for i in range(2):
        for j in range(2):
            v = divided_diff(F, [spectra[0][i], spectra[1][j], spectra[2][0]])
            assert t[i, j, 0] == pytest.approx(v, rel=1e-12)


def per_entry_tensor(F, spectra):
    """divided_diff_tensor entry by entry: one divided_diff per grid point."""
    out = np.empty(tuple(len(s) for s in spectra), dtype=np.complex128)
    for idx in np.ndindex(out.shape):
        out[idx] = divided_diff(F, [s[i] for s, i in zip(spectra, idx)])
    return out


def tensor_cases(order):
    rng = rng_for(order, "tensor-cases")
    lam = np.sort(rng.standard_normal(7))
    return {
        "distinct": [np.sort(rng.standard_normal(4 + k)) for k in range(order + 1)],
        "repeated": [lam] * (order + 1),
        # exactly coincident nodes within one spectrum and across spectra
        "coincident": [np.concatenate([lam[:3], lam[:2]]), lam[:4]] + [lam[1:5]] * (order - 1),
        # gaps of 1e-9 and 3e-8 are snapped to their cluster mean; 5e-6 is not
        "near": [np.concatenate([lam[:3], lam[:3] + 1e-9, lam[:1] - 3e-8, lam[:1] + 5e-6])]
                * (order + 1),
        # a repeated eigenvalue, as a degenerate spectrum gives it
        "degenerate": [np.array([-0.4, 0.3, 0.3, 0.3, 0.3 + 2e-9, 1.1])] * (order + 1),
    }


@pytest.mark.parametrize("expr", ["exp(x)", "tanh(x)", "sin(x)"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_tensor_generic_bit_equal_to_per_entry(expr, order):
    F = parse_symbol(expr)
    for name, spectra in tensor_cases(order).items():
        got = divided_diff_tensor(F, spectra)
        assert got.dtype == np.complex128
        assert np.array_equal(got, per_entry_tensor(F, spectra)), name


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=9),
       nodes=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5).filter(
           lambda xs: len(xs) == 1 or np.min(np.diff(np.sort(xs))) >= 0.05))
def test_poly_route_matches_hermite_table(coeffs, nodes):
    # the h_k route of a polynomial against the Hermite table of the same function
    P = np.polynomial.Polynomial(coeffs)
    F = SmoothSymbol(func=P, derivs=tuple(P.deriv(k) for k in range(1, 5)),
                     poly_coeffs=tuple(coeffs), check=False)
    value = divided_diff(F, nodes)
    assert abs(value - divided_diff(replace(F, poly_coeffs=None), nodes)) <= 1e-8 * (1 + abs(value))


def test_tensor_poly_real_and_equal_to_complex_path():
    # real and complex coefficients take the one h_k route to one complex128 tensor
    rng = rng_for(5, "poly-tensor")
    spectra = [np.sort(rng.standard_normal(6)) for _ in range(4)]
    F = parse_symbol("x**5 - 2*x**3 + 0.5*x")
    t = divided_diff_tensor(F, spectra)
    complex_coeffs = SmoothSymbol(func=F.func, derivs=F.derivs,
                                  poly_coeffs=tuple(complex(c) for c in F.poly_coeffs), check=False)
    tc = divided_diff_tensor(complex_coeffs, spectra)
    assert t.dtype == tc.dtype == np.complex128
    assert np.array_equal(t, tc) and not np.any(tc.imag)
    assert divided_diff_tensor(parse_symbol("x**2"), [spectra[0]] * 4).dtype == np.complex128


def test_lipschitz_norms():
    assert lipschitz_norm(parse_symbol("2*x"), (-1, 1)) == pytest.approx(2.0)
    assert lipschitz_norm(parse_symbol("abs(x)"), (-1, 1)) == pytest.approx(1.0)
    assert lipschitz_norm(parse_symbol("sin(x)"), (-math.pi, math.pi)) == pytest.approx(1.0, abs=1e-3)


def test_cb_norms():
    assert cb_norm(parse_symbol("x"), 1, (-5, 5)) == pytest.approx(1.0)
    assert cb_norm(parse_symbol("sin(x)"), 2, (0, 2 * math.pi)) == pytest.approx(1.0, abs=1e-3)
    assert cb_norm(parse_symbol("x**2"), 1, (-2, 2)) == pytest.approx(4.0, abs=1e-3)


def test_norm_homogeneity():
    F = parse_symbol("sin(x)")
    G = parse_symbol("3.5*sin(x)")
    assert lipschitz_norm(G, (-2, 2)) == pytest.approx(3.5 * lipschitz_norm(F, (-2, 2)), rel=1e-10)
    assert cb_norm(G, 2, (-2, 2)) == pytest.approx(3.5 * cb_norm(F, 2, (-2, 2)), rel=1e-10)


def test_localize_infinite_is_identity():
    F = parse_symbol("exp(x)")
    assert localize(F, BumpLocalizer(math.inf)) is F


def test_localize_support():
    F = parse_symbol("exp(x)")
    loc = localize(F, BumpLocalizer(2.0))
    xs = np.array([-1.5, 0.0, 1.9])
    assert np.allclose(loc(xs), F(xs))  # unchanged inside [-M, M]
    assert np.all(loc(np.array([4.5, -6.0])) == 0.0)  # zero outside [-2M, 2M]


def test_bump_localizer_range():
    loc = BumpLocalizer(1.0)
    xs = np.linspace(-3, 3, 301)
    vals = loc(xs)
    assert np.all((vals >= 0) & (vals <= 1))
    assert np.all(vals[np.abs(xs) <= 1.0] == 1.0)
    assert np.all(vals[np.abs(xs) >= 2.0] == 0.0)


def test_lp_partition_homogeneous():
    lp = LPFilterFamily()
    xi = np.geomspace(0.05, 50, 200)
    total = sum(lp.phi_k(xi, k) for k in range(-10, 12))
    assert np.max(np.abs(total - 1.0)) <= 1e-10


def test_lp_partition_at_one():
    lp = LPFilterFamily()
    v = lp.phi_k(np.array([1.0]), 0) + lp.phi_k(np.array([1.0]), 1)
    assert v[0] == pytest.approx(1.0, abs=1e-10)


def test_lp_nonhomogeneous_covers_zero():
    lp = LPFilterFamily()
    xi = np.linspace(0.0, 30.0, 200)
    total = sum(lp.phi_k(xi, k, homogeneous=False) for k in range(0, 10))
    assert np.max(np.abs(total - 1.0)) <= 1e-10


def test_lp_support_annulus():
    lp = LPFilterFamily()
    assert np.all(np.abs(lp.phi_k(np.array([3.0, 0.3]), 0)) <= 1e-14)


def test_symbol_construction_check_catches_wrong_derivative():
    with pytest.raises(ValueError):
        SmoothSymbol(func=np.sin, derivs=(np.sin,), window=(-1, 1))


def test_expression_grammar_errors():
    with pytest.raises(ConfigError):
        parse_symbol("sin(x")
    with pytest.raises(ConfigError):
        parse_symbol("spam(x)")
    with pytest.raises(ConfigError):
        parse_symbol("x / sin(x)")


def test_expression_polynomial_detection():
    F = parse_symbol("(1 + x)**2 - 1")
    assert F.poly_coeffs is not None
    assert np.allclose(F.poly_coeffs, [0.0, 2.0, 1.0])
    assert parse_symbol("sin(x)").poly_coeffs is None


def _tree_size(node) -> int:
    """Node count of a tree, a shared subtree counted at every use."""
    children = [getattr(node, c) for c in ("a", "b", "arg", "base") if hasattr(node, c)]
    return 1 + sum(_tree_size(c) for c in children)


def test_constant_factors_are_not_differentiated():
    # d(c*b) = c*b': the full product rule copied b into every higher
    # derivative, so 300 leading minus signs never finished parsing and the
    # order-6 tree of tanh(x) had 77,055 nodes
    assert _tree("2*x*3").d() == Mul(Mul(Num(2.0), Num(1.0)), Num(3.0))
    F = parse_symbol("- " * 300 + "x")
    xs = np.array([-1.0, 0.5])
    assert np.array_equal(F.derivs[0](xs), [1.0, 1.0])
    assert not np.any(F.derivs[1](xs))
    tree = _tree("tanh(x)")
    for _ in range(6):
        tree = tree.d()
    assert _tree_size(tree) < 5000


@pytest.mark.parametrize("text,coeffs", [("(x - x + 1)**600*x", (0.0, 1.0)),
                                         ("(0*x + 2)**600*x", (0.0, 2.0 ** 600)),
                                         ("0*x", (0.0,)), ("x**3 + x - x**3", (0.0, 1.0))])
def test_trailing_zero_coefficients_are_trimmed(text, coeffs):
    # the degree bound reads the trimmed degree: these are degree 1 or 0
    assert parse_symbol(text).poly_coeffs == coeffs


def test_symbol_at_the_depth_bound_evaluates_from_a_deep_stack():
    # MAX_DEPTH levels parse, one more is refused; F and its six derivatives
    # at the bound evaluate 500 frames below the test
    F = parse_symbol("x" + " + x" * (MAX_DEPTH - 1))
    with pytest.raises(ConfigError, match="nested too deeply"):
        parse_symbol("x" + " + x" * MAX_DEPTH)
    xs = np.array([0.5, -2.0])

    def from_below(frames):
        if frames:
            return from_below(frames - 1)
        return [F.deriv(k)(xs) for k in range(PARSED_ORDER + 1)]

    values = from_below(500)
    assert np.array_equal(values[0], MAX_DEPTH * xs) and np.all(values[1] == MAX_DEPTH)
    assert not np.any(values[2:])


def test_deep_expressions_are_config_errors():
    assert parse_symbol("x" + " + x" * 299)(2.0) == 600.0
    assert parse_symbol("(" * 150 + "x" + ")" * 150)(2.0) == 2.0
    for deep in ["x" + " + x" * 1199, "tanh(" * 300 + "x" + ")" * 300]:
        with pytest.raises(ConfigError, match="nested too deeply"):
            parse_symbol(deep)


# the trees the expression front end builds: Python's precedence and left
# associativity; a - b is a + (-1)*b, -a is (-1)*a, +a is a, a / c is a * (1/c)
_X = Var()
GOLDEN_TREES = {
    "x": _X,
    "1 + 2*x**3": Add(Num(1.0), Mul(Num(2.0), Pow(_X, 3))),
    "x - 1 - x": Add(Add(_X, Mul(Num(-1.0), Num(1.0))), Mul(Num(-1.0), _X)),
    "x*2*3": Mul(Mul(_X, Num(2.0)), Num(3.0)),
    "x/2/4": Mul(Mul(_X, Num(0.5)), Num(0.25)),
    "x/+2": Mul(_X, Num(0.5)),
    "-x**2": Mul(Num(-1.0), Pow(_X, 2)),
    "+-+x": Mul(Num(-1.0), _X),
    "2*-x": Mul(Num(2.0), Mul(Num(-1.0), _X)),
    "tanh(x)**2": Pow(Call("tanh", _X), 2),
    "(x + 1)**2": Pow(Add(_X, Num(1.0)), 2),
    " exp (\t0.5 * x)\n": Call("exp", Mul(Num(0.5), _X)),
    "gauss(x)*cos(3*x)": Mul(Call("gauss", _X), Call("cos", Mul(Num(3.0), _X))),
    ".5e1 + 1e999*x": Add(Num(5.0), Mul(Num(math.inf), _X)),
}


@pytest.mark.parametrize("text", sorted(GOLDEN_TREES))
def test_expression_trees(text):
    assert _tree(text) == GOLDEN_TREES[text]


def test_spaces_and_parentheses_around_powers():
    assert _tree("x ** 2") == _tree("x**(2)") == _tree("x**2") == Pow(_X, 2)


@pytest.mark.parametrize("text", [
    "x // 2", "x % 2", "x.real", "x[0]", "sin(x=1)", "sin(x, x)", "lambda: 1", "__import__('os')",
    "0x10*x", "1_000*x", "1j*x", "True*x", "x # c", "x**2**2", "007*x", "x**2.0", "x**-1", "x < 1",
    "exp(x,)", "ｘ"])
def test_expressions_outside_the_grammar(text):
    with pytest.raises(ConfigError, match=re.escape(repr(text))):
        parse_symbol(text)


def test_parentheses_past_python_limit_are_nested_too_deeply():
    with pytest.raises(ConfigError, match="nested too deeply"):
        parse_symbol("(" * 201 + "x" + ")" * 201)


@pytest.mark.parametrize("text", ["exp(exp(exp(x)))", "1e999*x"])
def test_symbols_not_finite_on_the_window(text):
    # RuntimeWarnings are errors in the suite: the check evaluates quietly
    with pytest.raises(ConfigError, match="not finite on the window"):
        parse_symbol(text)


def test_overflowing_power_fails_the_check_quietly():
    with pytest.raises(ValueError, match="derivative order 1 is not finite"):
        SmoothSymbol(func=lambda x: np.asarray(x, dtype=float) ** 600,
                     derivs=(lambda x: 600.0 * np.asarray(x, dtype=float) ** 599,),
                     window=(-4.0, 4.0))


@pytest.mark.parametrize("text,degree", [("x**513", 513), ("x**1000000", 1000000),
                                         ("(x**60)**60", 3600), ("x**300*x**300", 600),
                                         ("(x/8)**600", 600), ("abs(x**1000)", 1000)])
def test_polynomial_degree_above_512_is_refused(text, degree):
    with pytest.raises(ConfigError, match=re.escape(f"{text!r}: polynomial degree {degree} is above 512")):
        parse_symbol(text)


def test_degree_512_reaches_the_sanity_check():
    for text in ("x**400", "x**512"):
        with pytest.raises(ConfigError, match=re.escape(f"{text!r}: derivative order 1 disagrees")):
            parse_symbol(text)
    assert parse_symbol("x**96").poly_coeffs[-1] == 1.0


def test_constant_power_is_folded_in_one_power():
    # a power of a constant base is one **, not n products: an overflow is
    # refused at once, naming the expression
    assert parse_symbol("2**10*x").poly_coeffs == (0.0, 1024.0)
    assert parse_symbol("x - (1 + 1)**3*x**2").poly_coeffs == (0.0, 1.0, -8.0)
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=re.escape("'2**1000000*x': constant power 2**1000000 overflows")):
        parse_symbol("2**1000000*x")
    assert time.perf_counter() - start < 0.1
