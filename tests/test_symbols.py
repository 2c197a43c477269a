import itertools
import math
import re
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opcalc.chain import DerivationSpec, chain_rule_residual
from opcalc.errors import ConfigError, OrderExceeded
from opcalc.expr import MAX_DEPTH, PARSED_ORDER, Add, Call, Mul, Num, Pow, Var, _tree, parse_symbol
from opcalc.linalg import random_hermitian
from opcalc.seeding import rng_for
from opcalc.symbols import (LPFilterFamily, SmoothSymbol, bump_chi, cb_norm, divided_diff,
                            divided_diff_tensor, lipschitz_norm)


def brute_homogeneous(k, nodes):
    """Enumeration oracle: sum of all degree-k monomials in the nodes."""
    total = 0.0
    for combo in itertools.combinations_with_replacement(range(len(nodes)), k):
        prod = 1.0
        for i in combo:
            prod *= nodes[i]
        total += prod
    return total


RANDOM_NODES = list(rng_for(0, "dd").uniform(-2, 2, size=4))


@pytest.mark.parametrize("k,nodes", [(0, [2.0]), (1, [1.0, 2.0, 3.0]),
                                     (2, [1.0, 2.0, 3.0]), (3, [0.5, -1.5, 2.0, 0.25]),
                                     (0, RANDOM_NODES), (1, RANDOM_NODES), (3, RANDOM_NODES)])
def test_homogeneous_sym_against_enumeration(k, nodes):
    # the n-th divided difference of x**(k+n) is h_k of the n+1 nodes
    F = parse_symbol(f"x**{k + len(nodes) - 1}")
    assert divided_diff(F, np.array(nodes)) == pytest.approx(brute_homogeneous(k, nodes), rel=1e-10)


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
    F = SmoothSymbol(jet=parse_symbol("tanh(x)").jet, max_order=2)
    with pytest.raises(OrderExceeded):
        divided_diff(F, [0.0, 0.1, 0.2, 0.3])


def test_every_order_check_is_require_order():
    # each site that needs more derivatives than a symbol's max_order raises
    # through the one method
    tanh = parse_symbol("tanh(x)")
    F = SmoothSymbol(jet=tanh.jet, max_order=2)
    assert tanh.max_order == 6
    h = random_hermitian(rng_for(3, "order"), 4)
    nodes = np.array([0.0, 0.1, 0.2])
    for what, needs_three in [
            ("divided difference", lambda: divided_diff(F, [0.0, 0.1, 0.2, 0.3])),
            ("divided difference", lambda: divided_diff_tensor(F, [nodes] * 4)),
            ("C_b^3 norm", lambda: cb_norm(F, 3, 1.0)),
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


@pytest.mark.parametrize("expr", ["exp(x)", "tanh(x)", "x**5 - 2*x**3"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_tensor_member_axis_equals_single_calls(expr, order):
    # (members, n_j) spectra give each member its own call's tensor; the
    # last spectrum has no member axis and broadcasts; member 0 repeats nodes
    F = parse_symbol(expr)
    rng = rng_for(order, "tensor-members", expr)
    members = [[np.sort(rng.standard_normal(4)) for _ in range(order)] for _ in range(5)]
    members[0] = [np.array([0.3, 0.3, -0.2, 0.3])] * order
    shared = np.sort(rng.standard_normal(3))
    spectra = [np.stack([m[j] for m in members]) for j in range(order)] + [shared]
    got = divided_diff_tensor(F, spectra)
    assert got.shape == (5,) + (4,) * order + (3,)
    for g, m in zip(got, members):
        assert np.array_equal(g, divided_diff_tensor(F, m + [shared]))


@pytest.mark.parametrize("expr", ["exp(x)", "x**4 + x**2"])
@pytest.mark.parametrize("order", [1, 2])
def test_tensor_repeated_nodes_equal_ix_expansion(expr, order):
    # nodes with repeats, as bin endpoints give them, read the tensor over the
    # distinct nodes expanded with np.ix_, bit for bit
    F = parse_symbol(expr)
    rng = rng_for(order, "tensor-repeats", expr)
    labels = [rng.integers(-4, 5, size=7) for _ in range(order + 1)]
    distinct = [np.unique(lab, return_inverse=True) for lab in labels]
    expect = divided_diff_tensor(F, [u / 8 for u, _ in distinct])[np.ix_(*(i for _, i in distinct))]
    assert np.array_equal(divided_diff_tensor(F, [lab / 8 for lab in labels]), expect)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=9),
       nodes=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5).filter(
           lambda xs: len(xs) == 1 or np.min(np.diff(np.sort(xs))) >= 0.05))
def test_poly_route_matches_hermite_table(coeffs, nodes):
    # the h_k route of a polynomial against the Hermite table of the same function
    P = np.polynomial.Polynomial(coeffs)
    F = SmoothSymbol(jet=lambda x, k: [P.deriv(i)(x) for i in range(k + 1)], max_order=4,
                     poly_coeffs=tuple(coeffs), check=False)
    value = divided_diff(F, nodes)
    assert abs(value - divided_diff(replace(F, poly_coeffs=None), nodes)) <= 1e-8 * (1 + abs(value))


def test_tensor_poly_real_and_equal_to_complex_path():
    # real and complex coefficients take the one h_k route to one complex128 tensor
    rng = rng_for(5, "poly-tensor")
    spectra = [np.sort(rng.standard_normal(6)) for _ in range(4)]
    F = parse_symbol("x**5 - 2*x**3 + 0.5*x")
    t = divided_diff_tensor(F, spectra)
    complex_coeffs = replace(F, poly_coeffs=tuple(complex(c) for c in F.poly_coeffs), check=False)
    tc = divided_diff_tensor(complex_coeffs, spectra)
    assert t.dtype == tc.dtype == np.complex128
    assert np.array_equal(t, tc) and not np.any(tc.imag)
    assert divided_diff_tensor(parse_symbol("x**2"), [spectra[0]] * 4).dtype == np.complex128


def test_lipschitz_norms():
    assert lipschitz_norm(parse_symbol("2*x"), (-1, 1)) == pytest.approx(2.0)
    assert lipschitz_norm(parse_symbol("abs(x)"), (-1, 1)) == pytest.approx(1.0)
    assert lipschitz_norm(parse_symbol("sin(x)"), (-math.pi, math.pi)) == pytest.approx(1.0, abs=1e-3)


# cb_norm(F, n, M) for M = 0.7 and 2.5 at n = 1, 2, 3, as the composed route
# of a localized symbol's derivatives (F phi_M)^(k) gave it bit for bit
CB_NORMS = {
    "tanh(x)": (("0x1.0dc9a9169835bp+1", "0x1.069e3b9e318afp+4", "0x1.0f1c16e0ca07ap+8"),
                ("0x1.ffffcdf9c2ac2p-1", "0x1.971f6f6f9ffcap+0", "0x1.c4b85b06733fcp+2")),
    "x - x**3": (("0x1.a0072c8b0b696p+0", "0x1.79ae8df2ff106p+3", "0x1.c92ec55c24b82p+7"),
                 ("0x1.24cb88fe7f74cp+5", "0x1.a8a5afc1ecf48p+6", "0x1.1c5135f89bc97p+9")),
    "x*abs(x)": (("0x1.6d49939b552edp+1", "0x1.ad190f8e8d9b1p+4", "0x1.e53f4ef0306e3p+8"),
                 ("0x1.462643cab1392p+3", "0x1.ad190f8e5b8f1p+4", "0x1.0fbd0d8208b61p+7")),
}


def test_cb_norms():
    for text, rows in CB_NORMS.items():
        F = parse_symbol(text)
        for M, row in zip((0.7, 2.5), rows):
            assert [cb_norm(F, n, M) for n in (1, 2, 3)] == [float.fromhex(v) for v in row], (text, M)
    # phi_M = 1 on [-M, M]: the norm is at least sup |F^(k)| there
    assert cb_norm(parse_symbol("x**2"), 1, 2.0) >= 4.0


@pytest.mark.parametrize("M", [0.0, -1.0, math.inf, math.nan])
def test_cb_norm_needs_a_finite_positive_scale(M):
    with pytest.raises(ValueError, match="positive and finite"):
        cb_norm(parse_symbol("x"), 1, M)


def test_norm_homogeneity():
    F = parse_symbol("sin(x)")
    G = parse_symbol("3.5*sin(x)")
    assert lipschitz_norm(G, (-2, 2)) == pytest.approx(3.5 * lipschitz_norm(F, (-2, 2)), rel=1e-10)
    assert cb_norm(G, 2, 2.0) == pytest.approx(3.5 * cb_norm(F, 2, 2.0), rel=1e-10)


def test_bump_chi_support():
    # phi_M(x) = bump_chi(x / M) keeps F on [-M, M] and is zero outside [-2M, 2M]
    assert np.all(bump_chi(np.array([-1.0, -0.75, 0.0, 0.95, 1.0])) == 1.0)
    assert np.all(bump_chi(np.array([2.0, -2.25, 3.0, -6.0])) == 0.0)


def test_bump_chi_range():
    xs = np.linspace(-3, 3, 301)
    vals = bump_chi(xs)
    assert np.all((vals >= 0) & (vals <= 1))
    assert np.all(vals[np.abs(xs) <= 1.0] == 1.0)
    assert np.all(vals[np.abs(xs) >= 2.0] == 0.0)
    assert np.all(np.diff(vals[xs >= 0]) <= 0.0)  # nonincreasing in |x|


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
        SmoothSymbol(jet=lambda x, k: [np.sin(x)] * (k + 1), max_order=1, window=(-1, 1))


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


def test_constant_factors_are_not_differentiated():
    # d(c*b) = c*b': the full product rule copied b into every higher
    # derivative, so 300 leading minus signs never finished parsing
    F = parse_symbol("- " * 300 + "x")
    xs = np.array([-1.0, 0.5])
    jet = F.jet(xs, 2)
    assert np.array_equal(jet[1], [1.0, 1.0])
    assert not np.any(jet[2])


def _tanh_chain(levels: int) -> str:
    text = "x"
    for _ in range(levels):
        text = f"tanh({text})**2"
    return text


@pytest.mark.parametrize("text", ["tanh(" * 12 + "x" + ")" * 12, _tanh_chain(40)],
                         ids=["tanh-nested-12", "tanh-squared-chain-40"])
def test_nested_symbols_parse_in_linear_time(text):
    # a jet evaluates each subtree once per order: derivative trees grew
    # 2-4x per tanh level, and a power that jets its base twice doubles
    # its work per level of the chain
    start = time.perf_counter()
    F = parse_symbol(text)
    assert time.perf_counter() - start < 0.5
    assert np.all(np.isfinite(F.jet(np.linspace(-4.0, 4.0, 9), PARSED_ORDER)))


def _closed_forms(name, u, n):
    """F^(m)(u) for m = 0..n from closed forms: shifted sin/cos, the
    polynomials in t = tanh(u) with P' = dP/dt (1 - t^2), Hermite
    polynomials for gauss."""
    if name == "exp":
        return [np.exp(u)] * (n + 1)
    if name in ("sin", "cos"):
        f = np.sin if name == "sin" else np.cos
        return [f(u + m * np.pi / 2) for m in range(n + 1)]
    if name in ("sinh", "cosh"):
        pair = (np.sinh, np.cosh) if name == "sinh" else (np.cosh, np.sinh)
        return [pair[m % 2](u) for m in range(n + 1)]
    if name == "tanh":
        P, out = np.polynomial.Polynomial([0.0, 1.0]), []
        for _ in range(n + 1):
            out.append(P(np.tanh(u)))
            P = P.deriv() * np.polynomial.Polynomial([1.0, 0.0, -1.0])
        return out
    if name == "gauss":
        return [(-1) ** m * np.polynomial.Hermite.basis(m)(u) * np.exp(-u ** 2) for m in range(n + 1)]
    step = np.sign(u) if name == "abs" else (u > 0).astype(float)
    return [np.abs(u) if name == "abs" else np.maximum(u, 0.0), step] + [0 * u] * (n - 1)


def _compose(outer, inner):
    """Derivatives of F(u(x)) by truncated Taylor series in h: u(x + h) - u(x)
    = sum_k u^(k) h^k / k!, raised to each power m and weighted F^(m)/m!."""
    n = len(inner) - 1
    du = [0 * inner[0]] + [inner[k] / math.factorial(k) for k in range(1, n + 1)]
    power = [np.ones_like(inner[0])] + [0 * inner[0]] * n
    total = [0 * inner[0]] * (n + 1)
    for m in range(n + 1):
        total = [t + outer[m] / math.factorial(m) * p for t, p in zip(total, power)]
        power = [sum(power[i] * du[k - i] for i in range(k + 1)) for k in range(n + 1)]
    return [math.factorial(k) * t for k, t in enumerate(total)]


_ARGS = {"x": lambda xs: [xs, np.ones_like(xs)] + [0 * xs] * 5,
         "0.5*x + 0.25": lambda xs: [0.5 * xs + 0.25, 0.5 + 0 * xs] + [0 * xs] * 5,
         "sin(x)": lambda xs: [np.sin(xs + k * np.pi / 2) for k in range(7)]}


@pytest.mark.parametrize("arg", sorted(_ARGS))
@pytest.mark.parametrize("name", ["exp", "sin", "cos", "sinh", "cosh", "tanh", "abs", "relu", "gauss"])
def test_derivatives_to_order_six_match_closed_forms(name, arg):
    # every function of the grammar on x, on an affine and on a nested
    # argument, at points away from the kinks of abs and relu
    xs = np.linspace(-3.0, 3.0, 41) + 0.0123
    F = parse_symbol(f"{name}({arg})")
    inner = _ARGS[arg](xs)
    want = _compose(_closed_forms(name, inner[0], PARSED_ORDER), inner)
    for k, got in enumerate(F.jet(xs, PARSED_ORDER)):
        assert np.max(np.abs(got - want[k])) <= 1e-12 * max(1.0, np.max(np.abs(want[k]))), k


# the symbols the shipped configs and runners parse
SHIPPED_SYMBOLS = ["tanh(x)", "exp(x)", "sin(x)", "x", "0*x", "0.5*x", "x**2", "x**3", "x**4",
                   "x**5", "x**4 + x**2"]
GRAMMAR_SYMBOLS = [f"{name}({arg})" for name in ("exp", "sin", "cos", "sinh", "cosh", "tanh", "abs",
                                                 "relu", "gauss") for arg in sorted(_ARGS)]


@pytest.mark.parametrize("text", GRAMMAR_SYMBOLS + SHIPPED_SYMBOLS)
def test_jet_entries_do_not_depend_on_the_order(text):
    # one jet serves every reader: entry i of jet(x, k) has the bits of
    # jet(x, i)[i] for every k >= i, the zero padding too
    F = parse_symbol(text)
    xs = np.linspace(-4.0, 4.0, 2001)
    alone = [F.jet(xs, i)[i] for i in range(PARSED_ORDER + 1)]
    for k in range(PARSED_ORDER + 1):
        jet = F.jet(xs, k)
        assert len(jet) == k + 1
        for i, entry in enumerate(jet):
            assert entry.dtype == alone[i].dtype and entry.tobytes() == alone[i].tobytes(), (k, i)


def test_derivatives_that_are_exact():
    xs = np.linspace(-3.0, 3.0, 2001)
    tanh = parse_symbol("tanh(x)")
    assert np.array_equal(tanh(xs), np.tanh(xs))
    assert np.array_equal(tanh.jet(xs, 1)[1], 1 - np.tanh(xs) ** 2)
    exp = parse_symbol("exp(x)")
    assert all(np.array_equal(d, np.exp(xs)) for d in exp.jet(xs, PARSED_ORDER))
    # at dyadic points every product of a polynomial's derivatives is exact
    dyadic = np.arange(-16, 17) / 8.0
    for text, coeffs in [("0.5*x - 2*x**3 + x**5", [0, 0.5, 0, -2, 0, 1]),
                         ("(0.5*x + 0.25)**3", [1 / 64, 3 / 32, 3 / 16, 1 / 8]), ("x*x*x*x", [0, 0, 0, 0, 1])]:
        F = parse_symbol(text)
        for k, got in enumerate(F.jet(dyadic, PARSED_ORDER)):
            want = [float(sum(Fraction(c) * math.perm(m, k) * Fraction(v) ** (m - k)
                              for m, c in enumerate(coeffs) if m >= k)) for v in dyadic]
            assert np.array_equal(got, want), (text, k)
    # the a.e. derivative of abs and relu at the kink is 0 from order 1 on
    for text, kink in [("abs(x)", 0.0), ("relu(x)", 0.0), ("abs(0.5*x + 0.25)", -0.5), ("relu(2*x - 1)", 0.5)]:
        F = parse_symbol(text)
        assert not np.any(F.jet(np.array([kink]), PARSED_ORDER)[1:])


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
        return F.jet(xs, PARSED_ORDER)

    values = from_below(500)
    assert np.array_equal(values[0], MAX_DEPTH * xs) and np.all(values[1] == MAX_DEPTH)
    assert not np.any(values[2:])


def test_nesting_within_the_bounds_reaches_the_sanity_check():
    # 199 tanh levels parse, and the check's order-3 central differences
    # refuse them: an error naming the order, not "nested too deeply"
    text = "tanh(" * 199 + "x" + ")" * 199
    with pytest.raises(ConfigError, match=re.escape("derivative order 3 disagrees with central differences")):
        parse_symbol(text)


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
        SmoothSymbol(jet=lambda x, k: [np.asarray(x, dtype=float) ** 600,
                                       600.0 * np.asarray(x, dtype=float) ** 599][:k + 1],
                     max_order=1, window=(-4.0, 4.0))


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
