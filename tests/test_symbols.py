import itertools
import math

import numpy as np
import pytest

from opcalc.errors import ConfigError, OrderExceeded
from opcalc.expr import parse_symbol
from opcalc.seeding import rng_for
from opcalc.symbols import (BumpLocalizer, LPFilterFamily, SmoothSymbol, cb_norm, divided_diff,
                            divided_diff_tensor, homogeneous_sym, lipschitz_norm, localize)


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
    assert homogeneous_sym(k, np.array(nodes)) == pytest.approx(brute_homogeneous(k, nodes))


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
    F = parse_symbol("tanh(x)", max_order=2)
    with pytest.raises(OrderExceeded):
        divided_diff(F, [0.0, 0.1, 0.2, 0.3])


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


def test_tensor_poly_real_and_equal_to_complex_path():
    rng = rng_for(5, "poly-tensor")
    spectra = [np.sort(rng.standard_normal(6)) for _ in range(4)]
    F = parse_symbol("x**5 - 2*x**3 + 0.5*x")
    t = divided_diff_tensor(F, spectra)
    assert t.dtype == np.float64
    complex_coeffs = SmoothSymbol(func=F.func, derivs=F.derivs, max_order=F.max_order,
                                  poly_coeffs=tuple(complex(c) for c in F.poly_coeffs), check=False)
    tc = divided_diff_tensor(complex_coeffs, spectra)
    assert tc.dtype == np.complex128
    assert np.array_equal(t, tc.real) and not np.any(tc.imag)
    assert divided_diff_tensor(parse_symbol("x**2"), [spectra[0]] * 4).dtype == np.float64


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
        SmoothSymbol(func=np.sin, derivs=(np.sin,), max_order=1, window=(-1, 1))


def test_symbol_requires_every_derivative_up_to_max_order():
    # missing derivatives are an error, not filled in by finite differences
    with pytest.raises(ValueError, match="max_order 2 needs that many derivative evaluators, got 1"):
        SmoothSymbol(func=np.sin, derivs=(np.cos,), max_order=2, check=False)
    assert SmoothSymbol(func=np.sin, derivs=(np.cos, lambda x: -np.sin(x)), max_order=2).max_order == 2


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


def test_deep_expressions_are_config_errors():
    assert parse_symbol("x" + " + x" * 299)(2.0) == 600.0
    assert parse_symbol("(" * 150 + "x" + ")" * 150)(2.0) == 2.0
    for deep in ["x" + " + x" * 1199, "tanh(" * 300 + "x" + ")" * 300]:
        with pytest.raises(ConfigError, match="nested too deeply"):
            parse_symbol(deep)
