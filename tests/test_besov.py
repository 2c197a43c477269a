import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opcalc.besov as bz
import opcalc.chain as ch
import opcalc.torus as tor
from opcalc.besov import BesovIndex
from opcalc.errors import (DegenerateInput, DimensionMismatch, HypothesisViolation, NonHermitianInput,
                           SymbolHypothesisError)
from opcalc.experiments import exp_psdo_sequence
from opcalc.expr import parse_symbol
from opcalc.linalg import HermitianOperator, eig_hermitian, func_calc, hermitian_members
from opcalc.seeding import rng_for
from opcalc.symbols import LPFilterFamily


@pytest.fixture(scope="module")
def alg():
    return tor.TorusAlgebra(d=2, N=16, theta_num=1)


@pytest.fixture(scope="module")
def x16(alg):
    return tor.random_element(alg, rng_for(0, "bz"), band=3)


def zero_element(alg):
    return tor.TorusElement(alg, np.zeros(alg.shape, complex))


def test_multiplier_norm_zero_and_homogeneity(alg, x16):
    idx = BesovIndex(1.5, 2, 2)
    assert bz.besov_multiplier_norm(zero_element(alg), idx) == 0.0
    n1 = bz.besov_multiplier_norm(x16, idx)
    assert bz.besov_multiplier_norm(2.5 * x16, idx) == pytest.approx(2.5 * n1, rel=1e-10)


def test_multiplier_norm_single_mode(alg):
    # one mode at |k| = 2^j: the norm is the weighted lq of the filter values
    idx = BesovIndex(1.2, 2, 2)
    um = tor.mode_element(alg, (4, 0))
    lp = LPFilterFamily()
    expect = sum((2.0 ** (1.2 * j) * lp.radial_profile(np.array([4.0]), j, homogeneous=False)[0]) ** 2
                 for j in range(tor.block_count(alg))) ** 0.5
    assert bz.besov_multiplier_norm(um, idx) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [4, 8, 16])
def test_filter_bank_matches_radial_profile(N, d):
    # the lattice's cached filter bank against direct filter evaluation, bit for bit
    alg_nd = tor.TorusAlgebra(d=d, N=N, theta_num=1 if d == 2 else 0)
    x = tor.random_element(alg_nd, rng_for(N, "bank", d))
    lp = LPFilterFamily()
    count = int(math.ceil(math.log2(max(float(np.max(alg_nd.abs_k)), 1.0)))) + 2
    assert tor.block_count(alg_nd) == count
    filters = {j: lp.radial_profile(alg_nd.abs_k, j, homogeneous=False)
               for j in range(-1, count + 2)}
    assert not np.any(filters[count]) and not np.any(filters[count + 1])
    for p in (1, 2, math.inf):
        stack = np.stack([filters[j] * x.coeffs for j in range(count)])
        assert np.array_equal(bz.block_norms(x, p), tor.lp_norm_batch(alg_nd, stack, p))
    for j in filters:
        assert np.array_equal(tor.lp_block(x, j).coeffs, x.coeffs * filters[j])
        mult = np.zeros(alg_nd.shape)
        for k in range(0, j + 1):
            mult = mult + filters[k]
        assert np.array_equal(bz.partial_sum(x, j).coeffs, x.coeffs * mult)
    with pytest.raises(ValueError):
        alg_nd.lp_filters[0] = 0.0  # the bank is shared by every caller


def test_lq_monotonicity(alg, x16):
    n_q1 = bz.besov_multiplier_norm(x16, BesovIndex(1.5, 2, 1))
    n_q2 = bz.besov_multiplier_norm(x16, BesovIndex(1.5, 2, 2))
    n_qi = bz.besov_multiplier_norm(x16, BesovIndex(1.5, 2, math.inf))
    assert n_qi <= n_q2 <= n_q1


def test_difference_norm_constant_element(alg):
    idx = BesovIndex(0.5, 2, 2)
    one = tor.mode_element(alg, (0,) * alg.d)
    val = bz.besov_difference_norm(one, idx, m=1, n_der=0)
    assert val == pytest.approx(tor.lp_norm(one, 2), rel=1e-10)  # differences vanish


def test_difference_norm_zero(alg):
    assert bz.besov_difference_norm(zero_element(alg), BesovIndex(1.5, 2, 2), m=1, n_der=1) == 0.0


def test_difference_norm_hypotheses(alg, x16):
    with pytest.raises(HypothesisViolation):
        bz.besov_difference_norm(x16, BesovIndex(2.5, 2, 2), m=1, n_der=1)  # m + N <= s
    with pytest.raises(HypothesisViolation):
        bz.besov_difference_norm(x16, BesovIndex(1.5, 2, 2), m=1, n_der=2)  # N >= s


def test_difference_norm_truncation_stable(alg, x16):
    idx = BesovIndex(1.5, 2, 2)
    v1 = bz.besov_difference_norm(x16, idx, m=1, n_der=1, j_range=(-3, 7))
    v2 = bz.besov_difference_norm(x16, idx, m=1, n_der=1, j_range=(-3, 9))
    assert abs(v2 - v1) <= 0.02 * v1


def test_integral_norm_constant(alg):
    one = tor.mode_element(alg, (0,) * alg.d)
    val = bz.besov_integral_norm(one, BesovIndex(0.5, 2, 2), m=1, n_der=0)
    assert val == pytest.approx(1.0, rel=1e-10)


def test_three_norm_ratios_bounded_band(alg):
    idx = BesovIndex(1.5, 2, 2)
    ratios = []
    for i in range(10):
        x = tor.random_element(alg, rng_for(i, "3n"), band=3)
        nm = bz.besov_multiplier_norm(x, idx)
        nd = bz.besov_difference_norm(x, idx, m=1, n_der=1)
        ni = bz.besov_integral_norm(x, idx, m=1, n_der=1)
        ratios.append((nm / nd, nd / ni))
    md = [r[0] for r in ratios]
    di = [r[1] for r in ratios]
    assert max(md) / min(md) < 2.0  # equivalence band, not a proof
    assert max(di) / min(di) < 2.0


def test_reduction_under_derivative(alg, x16):
    # derivatives lower the smoothness index by |alpha| with a bounded constant
    hi = bz.besov_multiplier_norm(x16, BesovIndex(2.5, 2, 2))
    lo = bz.besov_multiplier_norm(tor.derive_multi(x16, (1, 1)), BesovIndex(0.5, 2, 2))
    assert lo <= 4.0 * hi  # |k_1 k_2| <= 2^{2(j+1)} on block j: constant 4 suffices


def test_doubling_check_ensemble(alg):
    rng = rng_for(1, "dblh")
    lat = 2 * math.pi / alg.N
    for i in range(20):
        x = tor.random_element(alg, rng_for(i, "dbl"), band=5)
        h = rng.uniform(-1.5, 1.5, size=2)
        rep = bz.doubling_check(x, h, 1 + i % 3, 2)
        assert rep["passed"]
        hl = 2 * lat * rng.integers(-3, 4, size=2)
        if np.any(hl):
            for p in (1, math.inf):
                assert bz.doubling_check(x, hl, 1 + i % 3, p)["passed"]


def test_doubling_zero_element(alg):
    rep = bz.doubling_check(zero_element(alg), (0.3, 0.1), 2, 2)
    assert rep["passed"] and rep["lhs"] == 0.0


def test_block_difference_check(alg, x16):
    # small h: ratio bounded by a modest constant; the bound shape is |h|^m 2^{km}
    rep_small = bz.block_difference_check(x16, (1e-3, 2e-3), 1, 2, 2)
    assert not rep_small["skipped"]
    assert rep_small["ratio"] <= 3.0
    rep_large = bz.block_difference_check(x16, (2.0, 1.0), 1, 2, 2)
    assert rep_large["ratio"] <= 3.0
    empty = bz.block_difference_check(tor.mode_element(alg, (1, 0)), (0.1, 0.1), 1, 5, 2)
    assert empty["skipped"]


def test_heat_smoothing_shapes(alg, x16):
    rep_same = bz.heat_smoothing_check(x16, 1.5, 1.5, 2, 2, [0.0, 0.5, 1.0])
    assert rep_same["ratios"][0] <= 1.0 + 1e-10  # t = 0, r = s
    rep = bz.heat_smoothing_check(x16, 1.5, 2.5, 2, 2, [0.25, 0.5, 1.0, 2.0])
    assert np.isfinite(rep["sup_ratio"])
    # decay for r < s at large t
    rep_lo = bz.heat_smoothing_check(x16, 1.5, 0.5, 2, 2, [4.0])
    assert rep_lo["sup_ratio"] < 1.0


def test_heat_smoothing_of_zero_is_zero(alg, x16):
    # t = 0 with r != s has factor inf; a zero member's ratios are 0, with no inf * 0
    xs = tor.TorusElement(alg, np.stack([x16.coeffs, np.zeros(alg.shape, complex)]))
    rep = bz.heat_smoothing_check(xs, 1.5, 2.5, 2, 2, [0.0, 0.5])
    assert rep["ratios"][1].tolist() == [0.0, 0.0] and rep["ratios"][0][0] == 0.0
    assert bz.heat_smoothing_check(zero_element(alg), 1.5, 2.5, 2, 2, [0.0, 0.5])["ratios"] == [0.0, 0.0]


def test_heat_smoothing_single_mode(alg):
    # one mode: everything is a closed-form multiplier
    um = tor.mode_element(alg, (4, 0))
    s, r, t = 1.0, 2.0, 0.5
    num = bz.besov_multiplier_norm(tor.heat(um, t), BesovIndex(r, 2, 2))
    expect = math.exp(-t * 16.0) * bz.besov_multiplier_norm(um, BesovIndex(r, 2, 2))
    assert num == pytest.approx(expect, rel=1e-12)


# --- Meyer decomposition ---------------------------------------------------

def test_meyer_zero_cases(alg):
    assert bz.meyer_residual(zero_element(alg), [1.0], [8])[0, 0] == 0.0
    x = tor.random_element(alg, rng_for(2, "mey"), band=3)
    assert bz.meyer_residual(x, [0.0], [8])[0, 0] == 0.0


def test_meyer_quadrature_refinement(alg):
    x = tor.random_element(alg, rng_for(3, "mey"), band=4)
    r4, r32 = bz.meyer_residual(x, [1.0], [4, 32])[0]
    assert r32 < r4
    assert r32 <= 1e-8


def test_meyer_monotone_in_quadrature(alg):
    x = tor.random_element(alg, rng_for(4, "mey"), band=3)
    res = bz.meyer_residual(x, [1.0], [2, 4, 8, 16])[0]
    assert all(res[i + 1] <= res[i] * (1 + 1e-9) + 1e-13 for i in range(len(res) - 1))


def per_node_meyer_residual(u, xi, quad_order):
    """meyer_residual with the block integral summed node by node."""
    lhs = eig_hermitian(HermitianOperator(tor.to_matrix(u))).apply(
        lambda lam: np.exp(1j * xi * lam) - 1.0)
    s0_mat = tor.to_matrix(bz.partial_sum(u, 0))

    def g(lam):  # (e^{i xi lam} - 1) / lam, Taylor-expanded near 0
        return np.where(np.abs(lam) < 1e-8, 1j * xi * (1.0 + 0.5j * xi * lam),
                        (np.exp(1j * xi * lam) - 1.0) / np.where(lam == 0, 1.0, lam))

    prev_dec = eig_hermitian(HermitianOperator(s0_mat))
    rhs = prev_dec.apply(g) @ s0_mat
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    for j in range(1, tor.block_count(u.algebra)):
        cur_dec = eig_hermitian(HermitianOperator(tor.to_matrix(bz.partial_sum(u, j))))
        vl, ll = cur_dec.eigenvectors, cur_dec.eigenvalues
        vr, lr = prev_dec.eigenvectors, prev_dec.eigenvalues
        bm = vl.conj().T @ tor.to_matrix(tor.lp_block(u, j)) @ vr
        acc = np.zeros_like(bm)
        for t, w in zip(0.5 * (nodes + 1.0), 0.5 * weights):
            left = np.exp(1j * t * xi * ll)
            right = np.exp(1j * (1.0 - t) * xi * lr)
            acc += w * (left[:, None] * bm * right[None, :])
        rhs = rhs + 1j * xi * (vl @ acc @ vr.conj().T)
        prev_dec = cur_dec
    return float(np.linalg.norm(lhs - rhs, 2))


@pytest.mark.parametrize("xi", [0.5, 2.0])
@pytest.mark.parametrize("K", [4, 32])
def test_meyer_quadrature_matches_per_node_sum(K, xi):
    alg8 = tor.TorusAlgebra(d=2, N=8, theta_num=1)
    x = tor.random_element(alg8, rng_for(6, "mey"), band=3)
    grid = bz.meyer_residual(x, [1.0, xi], [8, K])
    # the residual is a difference of O(1) matrices, so reordering the node sum
    # moves it by their rounding (~1e-16 absolute) however small it is
    for a, xa in enumerate((1.0, xi)):
        for b, kb in enumerate((8, K)):
            ref = per_node_meyer_residual(x, xa, kb)
            assert abs(grid[a, b] - ref) <= max(1e-12 * ref, 1e-13)
    tq, wq = bz._unit_gauss_legendre(K)
    assert not tq.flags.writeable and not wq.flags.writeable


def per_call_meyer_residual(u, xi, quad_order):
    """The residual at one (xi, K), with u, S_0 u and every S_j u diagonalized
    afresh and each block rotated afresh."""
    lhs = eig_hermitian(HermitianOperator(tor.to_matrix(u))).apply(
        lambda lam: np.exp(1j * xi * lam) - 1.0)
    if xi == 0.0:
        return float(np.linalg.norm(lhs, 2))

    def g_fn(lam):
        lam = np.asarray(lam, dtype=float)
        out = np.empty(lam.shape, dtype=np.complex128)
        small = np.abs(lam) < 1e-8
        out[~small] = (np.exp(1j * xi * lam[~small]) - 1.0) / lam[~small]
        out[small] = 1j * xi * (1.0 + 0.5j * xi * lam[small])
        return out

    s0_mat = tor.to_matrix(bz.partial_sum(u, 0))
    rhs = eig_hermitian(HermitianOperator(s0_mat)).apply(g_fn) @ s0_mat
    tq, wq = bz._unit_gauss_legendre(quad_order)
    prev_dec = eig_hermitian(HermitianOperator(s0_mat))
    for j in range(1, tor.block_count(u.algebra)):
        bj = tor.lp_block(u, j)
        if float(np.max(np.abs(bj.coeffs))) < 1e-300:
            continue
        cur_dec = eig_hermitian(HermitianOperator(tor.to_matrix(bz.partial_sum(u, j))))
        vl, ll = cur_dec.eigenvectors, cur_dec.eigenvalues
        vr, lr = prev_dec.eigenvectors, prev_dec.eigenvalues
        bm = vl.conj().T @ tor.to_matrix(bj) @ vr
        left = wq[:, None] * np.exp(1j * tq[:, None] * xi * ll[None, :])
        right = np.exp(1j * (1.0 - tq)[:, None] * xi * lr[None, :])
        rhs = rhs + 1j * xi * (vl @ (bm * (left.T @ right)) @ vr.conj().T)
        prev_dec = cur_dec
    return float(np.linalg.norm(lhs - rhs, 2))


@pytest.mark.parametrize("n,band", [(16, 4), (16, 1), (8, 3)])
def test_meyer_grid_keeps_bits(n, band):
    # band 1 leaves the outer blocks zero, so the skipped-block chain is covered
    alg_n = tor.TorusAlgebra(d=2, N=n, theta_num=1)
    x = tor.random_element(alg_n, rng_for(7, "mey-grid", n, band), band=band)
    xis, orders = (0.0, 0.5, 1.0, 2.0), (4, 32)
    grid = bz.meyer_residual(x, xis, orders)
    assert grid.shape == (len(xis), len(orders))
    for a, xi in enumerate(xis):
        for b, K in enumerate(orders):
            assert grid[a, b] == per_call_meyer_residual(x, xi, K), (xi, K)


def test_stacked_meyer_equals_single_calls():
    # band 1 leaves the outer blocks zero in its member only: the stack runs
    # every block, and a zero block adds an exact zero to that member
    alg16 = tor.TorusAlgebra(d=2, N=16, theta_num=1)
    members = [tor.random_element(alg16, rng_for(i, "mey-stack"), band=band)
               for i, band in enumerate((4, 1, 3, 4))]
    xis, orders = (0.0, 0.5, 2.0), (4, 32)
    got = bz.meyer_residual(tor.TorusElement(alg16, np.stack([x.coeffs for x in members])), xis, orders)
    assert got.shape == (len(members), len(xis), len(orders))
    for g, x in zip(got, members):
        assert np.array_equal(g, bz.meyer_residual(x, xis, orders))


def test_meyer_requires_hermitian(alg):
    bad = tor.TorusElement(alg, 1j * tor.random_element(alg, rng_for(5, "mh"), band=2).coeffs)
    with pytest.raises(SymbolHypothesisError):
        bz.meyer_residual(bad, [1.0], [4])
    good = tor.random_element(alg, rng_for(5, "mh"), band=2)
    with pytest.raises(SymbolHypothesisError):
        bz.meyer_residual(tor.TorusElement(alg, np.stack([good.coeffs, bad.coeffs])), [1.0], [4])


# --- paraproduct -------------------------------------------------------------

def test_paraproduct_identity_sequences(alg, x16):
    jb = tor.block_count(alg)
    one = tor.mode_element(alg, (0,) * alg.d)
    seq = bz.PsdoSymbolSequence(tuple([one] * jb), tuple([one] * jb))
    out, rep = bz.apply_paraproduct(seq, x16, BesovIndex(1.5, 2, 2))
    assert np.max(np.abs(out.coeffs - x16.coeffs)) <= 1e-11
    assert rep["ratio"] == pytest.approx(1.0, rel=1e-10)
    assert rep["m_a"] == pytest.approx(1.0, rel=1e-12)


def test_paraproduct_zero_input(alg):
    jb = tor.block_count(alg)
    one = tor.mode_element(alg, (0,) * alg.d)
    seq = bz.PsdoSymbolSequence(tuple([one] * jb), tuple([one] * jb))
    out, rep = bz.apply_paraproduct(seq, zero_element(alg), BesovIndex(1.5, 2, 2))
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_paraproduct_exponential_family(alg):
    u = tor.random_element(alg, rng_for(6, "pp"), band=3)
    x = tor.random_element(alg, rng_for(7, "pp"), band=3)
    seq = exp_psdo_sequence(u)
    out, rep = bz.apply_paraproduct(seq, x, BesovIndex(1.5, 2, 2))
    assert np.isfinite(rep["ratio"]) and rep["ratio"] > 0
    # the growth is computed at construction, and the report normalises by
    # the order-1 growth M_1 whatever s
    assert seq.growth_a == tuple(bz.derivative_growth(seq.a, 1))
    assert rep["m_a"] == seq.growth_a[1] >= 1.0 - 1e-12
    assert rep["m_b"] == seq.growth_b[1]


# --- nonlinear harnesses -----------------------------------------------------

def test_boundedness_ratio_identity_and_scaling(alg, x16):
    idx = BesovIndex(1.5, 2, 2)
    assert bz.boundedness_ratio(parse_symbol("x"), x16, idx) == pytest.approx(1.0, abs=1e-12)
    assert bz.boundedness_ratio(parse_symbol("-2.5*x"), x16, idx) == pytest.approx(2.5, abs=1e-11)


def test_boundedness_ratio_requires_f0(alg, x16):
    with pytest.raises(SymbolHypothesisError):
        bz.boundedness_ratio(parse_symbol("1 + x"), x16, BesovIndex(1.5, 2, 2))


def test_boundedness_ratio_tanh_lipschitz_band(alg):
    # 0 < s < 1, F Lipschitz with constant one: ratios stay bounded
    idx = BesovIndex(0.5, 2, 2)
    F = parse_symbol("tanh(x)")
    vals = [bz.boundedness_ratio(F, tor.random_element(alg, rng_for(i, "nlr"), band=3), idx)
            for i in range(10)]
    assert max(vals) < 3.0


def test_lipschitz_besov_ratio(alg):
    idx = BesovIndex(1.5, 2, 2)
    u = tor.random_element(alg, rng_for(8, "lb"), band=3)
    v = tor.random_element(alg, rng_for(9, "lb"), band=3)
    assert bz.symbol_ratios(parse_symbol("x"), u, v, idx)[1] == pytest.approx(1.0, abs=1e-11)
    assert bz.symbol_ratios(parse_symbol("3*x"), u, v, idx)[1] == pytest.approx(3.0, abs=1e-10)
    with pytest.raises(DegenerateInput):
        bz.symbol_ratios(parse_symbol("x"), u, u, idx)


def test_lipschitz_besov_small_perturbation_trend(alg):
    idx = BesovIndex(1.5, 2, 2)
    F = parse_symbol("tanh(x)")
    u = tor.random_element(alg, rng_for(10, "lbt"), band=3)
    um = tor.hermitianize(tor.mode_element(alg, (1, 0)) + tor.mode_element(alg, (-1, 0)))
    vals = []
    for eps in (0.1, 0.01, 0.001):
        v = u + eps * um
        vals.append(bz.symbol_ratios(F, u, v, idx)[1])
    assert all(np.isfinite(v) for v in vals)
    spread = max(vals) - min(vals)
    assert spread < 0.5  # ratio stabilizes as eps -> 0


# --- F(u) against independent realizations ----------------------------------

def _twisted_regular(alg, c):
    """Left-regular realization at theta != 0 from the dense mode matrices:
    L[k, l] = tau(M(k)* U M(l)), the k-th coefficient of u M(l)."""
    b = alg.basis().reshape((-1,) + (alg.matrix_dim,) * 2)
    u = np.tensordot(c, alg.basis(), axes=((0, 1), (0, 1)))
    return np.conj(b).reshape(len(b), -1) @ (u @ b).reshape(len(b), -1).T / alg.matrix_dim


@pytest.mark.parametrize("theta_num", [1, 3])
@pytest.mark.parametrize("expr", ["tanh(x)", "x**3", "abs(x)"])
def test_apply_symbol_matches_twisted_regular_realization(theta_num, expr):
    # L_{F(u)} = F(L_u), so column 0 of F(L_u) holds the coefficients of F(u);
    # L_u comes from the dense basis, not from the clock/shift FFT route
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=theta_num)
    F = parse_symbol(expr)
    xs = np.stack([tor.random_element(alg, rng_for(i, "twreg", theta_num), band=3).coeffs
                   for i in range(3)])
    got = bz.apply_symbol(F, tor.TorusElement(alg, xs)).coeffs
    for c, g in zip(xs, got):
        ref = func_calc(HermitianOperator(_twisted_regular(alg, c)), F).data[:, 0]
        assert np.max(np.abs(g.ravel() - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("expr", ["tanh(x)", "x**3", "abs(x)"])
def test_flat_apply_symbol_matches_regular_realization(expr):
    # the grid route against F on the coset blocks of the left-regular
    # realization, which share no FFT with it
    alg0 = tor.TorusAlgebra(d=2, N=8, theta_num=0)
    F = parse_symbol(expr)
    xs = np.stack([tor.random_element(alg0, rng_for(i, "flreg"), band=3).coeffs for i in range(3)])
    ref = bz.regular_apply_symbol(F, tor.TorusElement(alg0, xs)).coeffs
    got = bz.apply_symbol(F, tor.TorusElement(alg0, xs)).coeffs
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("N", [4, 8, 16])
def test_flat_apply_symbol_keeps_diagonal_calculus_bits(N):
    # F on the grid values gives the bits of the functional calculus of the
    # diagonal realization, zero and constant states included
    alg0 = tor.TorusAlgebra(d=2, N=N, theta_num=0)
    xs = np.stack([tor.random_element(alg0, rng_for(i, "flbits", N), band=N // 2 - 1).coeffs
                   for i in range(3)] + [np.zeros(alg0.shape), 0.7 * tor.mode_element(alg0, (0, 0)).coeffs])
    for expr in ("tanh(x)", "x**3", "exp(x)", "abs(x)", "x*abs(x)"):
        F = parse_symbol(expr)
        ref = tor.from_matrix_batch(alg0, func_calc(HermitianOperator(tor.to_matrix_batch(alg0, xs)), F).data)
        assert np.array_equal(bz.apply_symbol(F, tor.TorusElement(alg0, xs)).coeffs, ref)


def test_flat_apply_symbol_rejects_non_hermitian():
    # the grid values meet the deviation test of the diagonal realization
    alg0 = tor.TorusAlgebra(d=2, N=8, theta_num=0)
    xs = np.stack([tor.random_element(alg0, rng_for(0, "flnh"), band=2).coeffs,
                   tor.random_element(alg0, rng_for(1, "flnh"), band=2, hermitian=False).coeffs])
    with pytest.raises(NonHermitianInput) as err:
        bz.apply_symbol(parse_symbol("tanh(x)"), tor.TorusElement(alg0, xs))
    with pytest.raises(NonHermitianInput) as ref:
        HermitianOperator(tor.to_matrix_batch(alg0, xs))
    assert str(err.value) == str(ref.value)
    bz.apply_symbol(parse_symbol("tanh(x)"), tor.TorusElement(alg0, xs[:1]))  # the Hermitian one passes


# --- measure/reduce: bits of the old per-call routes --------------------------
# The references below are the per-call code the stacked routes replaced: one
# lp_norm per element, one shift-phase table per (element, axis), one
# eigendecomposition per block.  The stacked routes must keep their bits.

def per_call_norms(alg, stack, p):
    return np.array([tor.lp_norm(tor.TorusElement(alg, c), p) for c in stack])


def per_call_differences(x, dirs, radii, m):
    mult = tor._shift_phase(x.algebra, dirs[:, None, :] * radii[:, None]) - 1.0
    if m != 1:
        mult = mult ** m
    return (mult * x.coeffs).reshape((-1,) + x.algebra.shape)


def per_call_profile(x, ts, m, p, sampling):
    ts = np.asarray(sorted(ts), dtype=float)
    dirs = tor.sphere_directions(x.algebra.d, sampling.n_dir)
    radii = np.unique(np.concatenate([t * (np.arange(1, sampling.n_rad + 1) / sampling.n_rad)
                                      for t in ts if t > 0]))
    norms = per_call_norms(x.algebra, per_call_differences(x, dirs, radii, m), p)
    run_max = np.maximum.accumulate(np.max(norms.reshape(len(dirs), len(radii)), axis=0))
    out = np.zeros(len(ts))
    for i, t in enumerate(ts):
        j = np.searchsorted(radii, t + 1e-15, side="right") - 1
        out[i] = run_max[j] if j >= 0 else 0.0
    return out


def per_call_difference_norm(x, idx, m, n_der, sampling):
    nz = np.abs(x.coeffs) > 0
    kmax = float(np.max(x.algebra.abs_k[nz])) if np.any(nz) else 1.0
    js = np.arange(-3, int(math.ceil(math.log2(max(kmax, 1.0)))) + 5)
    ts = 2.0 ** (-js.astype(float))
    total = tor.lp_norm(x, idx.p)
    for i in range(x.algebra.d):
        dx = tor.derive_multi(x, tuple(n_der if ax == i else 0 for ax in range(x.algebra.d)))
        cap = (2.0 ** m) * tor.lp_norm(dx, idx.p)
        prof = np.empty(len(js))
        prof[np.argsort(ts)] = per_call_profile(dx, list(ts), m, idx.p, sampling)
        keep = np.ones(len(js), dtype=bool)
        for pos, j in enumerate(js):
            if j < 0 and cap > 0 and prof[pos] > (1 - 1e-6) * cap:
                keep[pos] = False
        terms = (2.0 ** (js[keep] * (idx.s - n_der))) * prof[keep]
        total += float(bz._lq_rows(terms[None], idx.q)[0])
    return total


def per_call_integral_norm(x, idx, m, n_der, qd):
    radii = np.geomspace(1e-3, 2 * math.pi, qd.n_rad)
    logr = np.log(radii)
    w = np.zeros_like(radii)
    w[1:-1] = 0.5 * (logr[2:] - logr[:-2])
    w[0] = 0.5 * (logr[1] - logr[0])
    w[-1] = 0.5 * (logr[-1] - logr[-2])
    dirs = tor.sphere_directions(x.algebra.d, qd.n_dir)
    total = tor.lp_norm(x, idx.p)
    for i in range(x.algebra.d):
        dx = tor.derive_multi(x, tuple(n_der if ax == i else 0 for ax in range(x.algebra.d)))
        norms = per_call_norms(x.algebra, per_call_differences(dx, dirs, radii, m), idx.p)
        vals = radii ** (n_der - idx.s) * norms.reshape(len(dirs), len(radii))
        if math.isinf(idx.q):
            total += float(np.max(vals))
        else:
            total += float(np.sum(np.mean(vals ** idx.q, axis=0) * w)) ** (1.0 / idx.q)
    return total


@pytest.mark.parametrize("theta_num", [0, 1])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_difference_forms_keep_per_call_bits(theta_num, p):
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=theta_num)
    sampling, qd = tor.AmplitudeSampling(8, 4), bz.RadialQuadrature(12, 6)
    xs = [tor.random_element(alg, rng_for(i, "dforms"), band=3, decay=2.0) for i in range(2)]
    xs.append(tor.random_element(alg, rng_for(9, "dforms"), band=1))  # another dyadic range
    for s, n_der in ((0.5, 0), (1.5, 1)):
        for x in xs:
            meas = bz.measure_differences(x, p, 1, n_der, sampling, qd)
            for q in (1.0, 2.0, math.inf):
                idx = BesovIndex(s, p, q)
                nd = per_call_difference_norm(x, idx, 1, n_der, sampling)
                ni = per_call_integral_norm(x, idx, 1, n_der, qd)
                assert bz.difference_form(meas, s, q) == nd
                assert bz.integral_form(meas, s, q) == ni
                assert bz.besov_difference_norm(x, idx, m=1, n_der=n_der, sampling=sampling) == nd
                assert bz.besov_integral_norm(x, idx, m=1, n_der=n_der, quadrature=qd) == ni


def profile_table_size(d, top, sampling):
    """The differences of one row's amplitude profile over j = -3, ..., top."""
    return (len(tor.sphere_directions(d, sampling.n_dir))
            * len(tor.amplitude_radii(2.0 ** -np.arange(top, -4.0, -1.0), sampling.n_rad)))


def count_differences(monkeypatch) -> list:
    """The number of differences of each ``_difference_stack`` call from now on."""
    built = []
    route = tor._difference_stack

    def counted(table, entries, pairs, dx, out):
        out = route(table, entries, pairs, dx, out)
        built.append(len(out))
        return out
    monkeypatch.setattr(tor, "_difference_stack", counted)
    return built


def test_stack_profiles_run_over_each_members_own_range(monkeypatch):
    # members whose bands reach three dyadic ranges: each member's profile
    # runs over its own range, with its own table, so the stack builds the
    # differences of the members' own calls and no more
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=1)
    xs = tor.TorusElement(alg, np.stack([tor.random_element(alg, rng_for(i, "ranges"), band=1 + i).coeffs
                                         for i in range(3)]))
    built = count_differences(monkeypatch)
    meas = bz.measure_differences(xs, 2.0, 1, 1, tor.AmplitudeSampling(16, 8))
    assert sum(built) == alg.d * sum(profile_table_size(2, top, tor.AmplitudeSampling(16, 8)) for top in (5, 6, 7))
    assert meas.js.tolist() == list(range(-3, 8))
    assert [np.flatnonzero(np.any(keep, axis=0))[-1] for keep in meas.keep] == [8, 9, 10]


@pytest.mark.parametrize("d,n_der", [(1, 0), (2, 0), (3, 0), (2, 1)])
def test_difference_measure_measures_each_distinct_row_once(monkeypatch, d, n_der):
    # d_i^0 x = x on every axis: at N = 0 one row is measured and read for
    # all d axes; at N >= 1 each axis has its own row.  No difference of a
    # row is normed twice; at theta = 0 nothing is pruned, so every one is
    # normed once, and at theta != 0, p = 1 the bounds build no difference
    alg = tor.TorusAlgebra(d=d, N=4 if d == 3 else 8, theta_num=1 if d == 2 else 0)
    x = tor.random_element(alg, rng_for(d, "rows", n_der), band=1)
    rows, normed = set(), []
    route, norms, hermitian_norms = tor._difference_stack, bz.lp_norm_batch, bz.hermitian_schatten_norm_batch

    def recorded_differences(table, entries, pairs, dx, out):
        rows.update(dx(pair).tobytes() for pair in set(pairs.tolist()))
        return route(table, entries, pairs, dx, out)

    def recorded_norms(algebra, coeff_stack, p):
        normed.extend(member.tobytes() for member in coeff_stack)
        return norms(algebra, coeff_stack, p)

    def recorded_hermitian_norms(mats, p):  # a certified row's realized differences
        normed.extend(member.tobytes() for member in mats)
        return hermitian_norms(mats, p)
    monkeypatch.setattr(tor, "_difference_stack", recorded_differences)
    monkeypatch.setattr(bz, "lp_norm_batch", recorded_norms)
    monkeypatch.setattr(bz, "hermitian_schatten_norm_batch", recorded_hermitian_norms)
    meas = bz.measure_differences(x, 1.0, 1, n_der, tor.AmplitudeSampling(8, 4), bz.RadialQuadrature(12, 6))
    assert len(rows) == (1 if n_der == 0 else d)
    assert len(set(normed)) == len(normed)
    top = bz._dyadic_top(float(np.max(alg.abs_k[np.abs(x.coeffs) > 0])))
    radial = len(tor.sphere_directions(d, 6)) * 12
    per_row = radial + profile_table_size(d, top, tor.AmplitudeSampling(8, 4))
    if alg.is_flat:
        assert len(normed) == per_row * len(rows)
    else:
        assert radial * len(rows) < len(normed) < per_row * len(rows)
    assert meas.profiles.shape[0] == meas.keep.shape[0] == meas.radial.shape[0] == d
    if n_der == 0:
        for rows in (meas.profiles, meas.keep, meas.radial):
            assert all(np.array_equal(row, rows[0]) for row in rows)


DEGENERATE_SAMPLINGS = {
    "j_range-descending": lambda x, idx: bz.besov_difference_norm(x, idx, j_range=(5, 2)),
    "j_range-fractional": lambda x, idx: bz.besov_difference_norm(x, idx, j_range=(2.5, 4)),
    "quadrature-one-radius": lambda x, idx: bz.besov_integral_norm(x, idx, quadrature=bz.RadialQuadrature(1, 6)),
    "quadrature-no-radius": lambda x, idx: bz.besov_integral_norm(x, idx, quadrature=bz.RadialQuadrature(0, 6)),
    "quadrature-no-direction": lambda x, idx: bz.besov_integral_norm(x, idx, quadrature=bz.RadialQuadrature(12, 0)),
    "sampling-no-direction": lambda x, idx: bz.besov_difference_norm(x, idx, sampling=tor.AmplitudeSampling(0, 4)),
    "sampling-no-radius": lambda x, idx: bz.besov_difference_norm(x, idx, sampling=tor.AmplitudeSampling(8, 0)),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_SAMPLINGS))
def test_degenerate_sampling_raises_typed_error(name):
    # each is refused by a typed error before an array is built, not by an
    # IndexError, TypeError, ValueError or ZeroDivisionError from numpy
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=1)
    x = tor.random_element(alg, rng_for(1, "degenerate"), band=2)
    with pytest.raises(HypothesisViolation):
        DEGENERATE_SAMPLINGS[name](x, BesovIndex(1.5, 1.0, 2.0))


def axis_rows(alg, n_der):
    """The multipliers of d_i^N that a difference measurement takes: one
    row at N = 0, one per axis at N >= 1."""
    return [tor.derivative_multiplier(alg, tuple(n_der if ax == i else 0 for ax in range(alg.d)))
            for i in range(1 if n_der == 0 else alg.d)]


def pruning_stack(alg):
    """A band-1 member, one that fills the lattice (boundary modes included),
    a non-Hermitian one (the SVD route) and zero."""
    return tor.TorusElement(alg, np.stack([
        tor.random_element(alg, rng_for(1, "prune"), band=1).coeffs,
        tor.random_element(alg, rng_for(2, "prune"), band=alg.N // 2 - 1).coeffs,
        tor.random_element(alg, rng_for(3, "prune"), band=2, hermitian=False).coeffs,
        np.zeros(alg.shape, complex)]))


@pytest.mark.parametrize("N,theta_num", [(8, 1), (16, 3)])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n_der", [0, 1])
def test_pruned_profiles_equal_those_of_every_norm(monkeypatch, N, theta_num, p, m, n_der):
    # the profile and keep of the pruned measurement have the bits of the
    # amplitudes read from every norm of the table; away from p = 2 some
    # norms are skipped
    alg = tor.TorusAlgebra(d=2, N=N, theta_num=theta_num)
    xs = pruning_stack(alg)
    pruned = bz.measure_differences(xs, p, m, n_der, tor.AmplitudeSampling(8, 4))
    top = bz._dyadic_top(float(np.max(alg.abs_k)))
    radii = tor.amplitude_radii(2.0 ** -np.arange(top, -4.0, -1.0), 4)
    table = tor.difference_table(alg, tor.sphere_directions(2, 8), radii, m)
    norms = bz._difference_norms(alg, xs.coeffs, range(3), np.stack(axis_rows(alg, n_der)), table, p, len(radii))
    assert np.isinf(norms).any() == (p != 2.0)  # the nonzero members skip some norms
    route = bz._difference_norms
    monkeypatch.setattr(bz, "_difference_norms", lambda alg, stack, members, rows, table, p, n_rad=None:
                        route(alg, stack, members, rows, table, p))
    every = bz.measure_differences(xs, p, m, n_der, tor.AmplitudeSampling(8, 4))
    assert np.array_equal(pruned.profiles, every.profiles)
    assert np.array_equal(pruned.keep, every.keep)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("p", [1.0, math.inf])
def test_non_finite_members_still_raise_under_pruning(bad, p):
    # a non-finite member raises the norms' ValueError, from the measurement
    # and from the pruned norms of each of its (member, row) pairs and of
    # the whole stack, with the warnings of every norm taken (the row
    # product and the realization's FFT of an infinite coefficient: those
    # of the per-pair route) and none from the bounds, whose rows are NaN
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=1)
    xs = pruning_stack(alg).coeffs
    xs[1, 1, 2] = bad
    radii = tor.amplitude_radii(2.0 ** -np.arange(7, -4.0, -1.0), 4)
    table = tor.difference_table(alg, tor.sphere_directions(2, 8), radii, 1)

    def warned(measure):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                measure()
        return {str(w.message) for w in caught}
    assert warned(lambda: bz.measure_differences(tor.TorusElement(alg, xs), p, 1, 1, tor.AmplitudeSampling(8, 4))) \
        == ({"invalid value encountered in fft"} if math.isinf(bad) else set())
    product = {"invalid value encountered in multiply"} if math.isinf(bad) else set()
    rows = np.stack(axis_rows(alg, 1))
    for members, pair_rows in [([1], row[None]) for row in rows] + [(range(len(xs)), rows)]:
        assert (warned(lambda: bz._difference_norms(alg, xs, members, pair_rows, table, p, len(radii)))
                == warned(lambda: bz._difference_norms(alg, xs, members, pair_rows, table, p)) == product)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(bz._norm_bounds(alg, lambda pair: xs[1], 1, table, p)).all()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_certified_rows_have_hermitian_differences(data):
    # a row d_i^N x whose coefficients equal their adjoint bit for bit is
    # normed without the deviation test: every realized difference of it
    # passes that test, at any radius of the profiles and the quadrature
    N, theta_num = data.draw(st.sampled_from([(8, 1), (16, 3)]))
    alg = tor.TorusAlgebra(d=2, N=N, theta_num=theta_num)
    x = tor.random_element(alg, rng_for(data.draw(st.integers(0, 2 ** 16)), "certified"),
                           band=data.draw(st.integers(0, N // 2 - 1)), decay=data.draw(st.sampled_from([0.0, 1.0, 2.0])))
    n_der, m = data.draw(st.integers(0, 1)), data.draw(st.integers(1, 2))
    radii = np.sort(data.draw(st.lists(st.floats(1e-3, 2 * math.pi), min_size=1, max_size=6)))
    table = tor.difference_table(alg, tor.sphere_directions(2, data.draw(st.integers(1, 8))), radii, m)
    for row in axis_rows(alg, n_der):
        dx = x.coeffs * row
        assert bz._hermitian_coeffs(alg, dx)
        assert hermitian_members(tor.to_matrix_batch(alg, table * dx)).all()  # the table on the left


def test_route_differences_keep_the_bits_of_the_difference_stack():
    # the product of a table slot and its pair's row, gathered and multiplied
    # in place or read from a slice of consecutive entries, has the bits of
    # the whole table's product, the table on the left, in any buffer
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=1)
    xs = pruning_stack(alg).coeffs
    table = tor.difference_table(alg, tor.sphere_directions(2, 8), np.geomspace(1e-3, 2 * math.pi, 12), 2)
    rng = rng_for(0, "slots")
    slots = np.union1d(rng.integers(0, len(xs) * len(table), 200), np.arange(len(table), 2 * len(table)))
    pairs, entries = np.divmod(slots, len(table))  # member 1 has every entry, the others some
    out = rng.standard_normal((len(slots),) + alg.shape) + 1j  # stale values are overwritten
    got = tor._difference_stack(table, entries, pairs, lambda pair: xs[pair], out)
    assert got is out
    for i in range(len(xs)):
        assert np.array_equal(got[pairs == i], (table * xs[i])[entries[pairs == i]])


def per_pair_measure(xs, p, m, n_der, sampling, qd):
    """profiles, keep and radial of a stack, every (member, axis) pair
    measured alone by the per-call references, every norm taken."""
    alg = xs.algebra
    top = bz._dyadic_top(float(np.max(alg.abs_k)))
    js = np.arange(-3, top + 1)
    dirs = tor.sphere_directions(alg.d, qd.n_dir)
    profiles, keep, radial = [], [], []
    for c in xs.coeffs:
        x = tor.TorusElement(alg, c)
        nz = np.abs(c) > 0
        own = bz._dyadic_top(float(np.max(alg.abs_k[nz])) if nz.any() else 1.0)
        for i in range(alg.d):
            dx = tor.derive_multi(x, tuple(n_der if ax == i else 0 for ax in range(alg.d)))
            ts = 2.0 ** -np.arange(own, -4.0, -1.0)
            prof = np.zeros(len(js))
            prof[own + 3::-1] = per_call_profile(dx, list(ts), m, p, sampling)
            cap = (2.0 ** m) * tor.lp_norm(dx, p)
            profiles.append(prof)
            keep.append((js <= own) & ~((js < 0) & (cap > 0) & (prof > (1 - 1e-6) * cap)))
            radial.append(per_call_norms(alg, per_call_differences(dx, dirs, qd.rule()[0], m), p)
                          .reshape(len(dirs), qd.n_rad))
    shape = (len(xs.coeffs), alg.d)
    return (np.reshape(profiles, shape + (-1,)), np.reshape(keep, shape + (-1,)),
            np.reshape(radial, shape + (len(dirs), qd.n_rad)))


@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
@pytest.mark.parametrize("n_der", [0, 1])
def test_mixed_stack_measurement_equals_the_per_pair_route(p, n_der):
    # a Hermitian member (certified), a non-Hermitian one (the SVD route),
    # one Hermitian but for an anti-Hermitian mode-0 part (at N = 0 its row
    # is not certified, yet its differences are Hermitian) and zero: the
    # stacked pass has the bits of every pair measured alone
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=1)
    xs = pruning_stack(alg).coeffs[[0, 2, 1, 3]]
    xs[2, 0, 0] += 0.7j
    assert not bz._hermitian_coeffs(alg, xs[2])
    xs = tor.TorusElement(alg, xs)
    sampling, qd = tor.AmplitudeSampling(8, 4), bz.RadialQuadrature(12, 6)
    meas = bz.measure_differences(xs, p, 1, n_der, sampling, qd)
    profiles, keep, radial = per_pair_measure(xs, p, 1, n_der, sampling, qd)
    assert np.array_equal(meas.profiles, profiles)
    assert np.array_equal(meas.keep, keep)
    assert np.array_equal(meas.radial, radial)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
def test_pruned_profiles_keep_their_bits_where_bounds_tie_norms(p):
    # single modes, whose bounds equal their norms up to rounding, along
    # directions one ulp apart: bounds and norms order the near-equal
    # differences each its own way, and only the rounding margin keeps a
    # skipped norm from exceeding the running maximum
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=1)
    xs = np.stack([tor.mode_element(alg, k).coeffs * (0.3 - 0.7j)
                   for k in ((1, 0), (0, 1), (1, 1), (2, -1), (3, 2), (-2, 3), (1, -3), (2, 2))])
    phi = 0.4 + np.spacing(0.4) * np.arange(16)
    ts = 2.0 ** -np.arange(3, -4.0, -1.0)
    radii = tor.amplitude_radii(ts, 4)
    table = tor.difference_table(alg, np.stack([np.cos(phi), np.sin(phi)], axis=1), radii, 1)
    rows = np.ones((1,) + alg.shape, complex)
    pruned, every = (bz._difference_norms(alg, xs, range(len(xs)), rows, table, p, n_rad)
                     for n_rad in (len(radii), None))
    assert np.isinf(pruned).any()
    assert np.array_equal(*(tor.amplitude_from_norms(norms.reshape(len(xs), 1, -1, len(radii)), radii, ts)
                            for norms in (pruned, every)))


@pytest.mark.parametrize("p", [3.0, math.inf])
@pytest.mark.parametrize("members", [[0, 1, 3], [0, 1, 2, 3]])
def test_bound_pass_makes_no_spectral_call(monkeypatch, p, members):
    # at p > 2 the bounds realize the differences but diagonalize none: every
    # matrix that reaches an eigenvalue or singular-value kernel is a norm
    # the pruned route takes, of a certified stack and of a mixed one
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=1)
    xs = pruning_stack(alg).coeffs[members]
    radii = tor.amplitude_radii(2.0 ** -np.arange(7, -4.0, -1.0), 4)
    table = tor.difference_table(alg, tor.sphere_directions(2, 8), radii, 1)
    spectral = []
    for module, name in ((bz, "hermitian_schatten_norm_batch"), (tor, "hermitian_schatten_norm_batch"),
                         (tor, "schatten_norm_batch")):
        kernel = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda mats, p, kernel=kernel: spectral.append(len(mats)) or kernel(mats, p))
    norms = bz._difference_norms(alg, xs, range(len(xs)), np.stack(axis_rows(alg, 1)), table, p, len(radii))
    assert np.isinf(norms).any()
    assert sum(spectral) == np.sum(np.isfinite(norms))


def test_certified_measurement_makes_no_deviation_test_on_differences(monkeypatch):
    # the differences of a stack whose rows are all certified skip the
    # per-matrix deviation test (only the base and the caps, one matrix per
    # member and row, take it) and each pass over a table makes one spectral
    # call per full chunk of its slots; once a member is not certified, the
    # differences of every member are tested
    alg = tor.TorusAlgebra(d=2, N=16, theta_num=1)
    chunk = tor.REALIZATION_CHUNK_ENTRIES // alg.N ** 2
    hermitian = np.stack([tor.random_element(alg, rng_for(i, "count"), band=3, decay=2.0).coeffs
                          for i in range(3)])
    skew = tor.random_element(alg, rng_for(3, "count"), band=3, hermitian=False).coeffs
    tested, spectral, routed = [], [], []
    members, hermitian_norms, route, slot_pass = (tor.hermitian_members, bz.hermitian_schatten_norm_batch,
                                                  bz.lp_norm_batch, bz._slot_pass)
    monkeypatch.setattr(tor, "hermitian_members", lambda mats: tested.append(len(mats)) or members(mats))
    monkeypatch.setattr(bz, "hermitian_schatten_norm_batch",
                        lambda mats, p: spectral.append(len(mats)) or hermitian_norms(mats, p))
    monkeypatch.setattr(bz, "lp_norm_batch", lambda alg, stack, p: routed.append(len(stack)) or route(alg, stack, p))

    def counted_pass(algebra, dx, table, take, kernel, out):
        calls = len(spectral)
        slot_pass(algebra, dx, table, take, kernel, out)
        assert len(spectral) - calls == (math.ceil(np.sum(take) / chunk) if certified else 0)
    monkeypatch.setattr(bz, "_slot_pass", counted_pass)
    for stack, certified in ((hermitian, True), (np.concatenate([hermitian, skew[None]]), False)):
        tested.clear(), routed.clear()
        bz.measure_differences(tor.TorusElement(alg, stack), 1.0, 1, 1, tor.AmplitudeSampling(8, 4),
                               bz.RadialQuadrature(12, 6))
        base_and_caps = len(stack) * (1 + alg.d)
        if certified:
            assert sum(tested) == base_and_caps and routed == []
        else:
            assert sum(tested) > base_and_caps and sum(routed) == sum(tested) - base_and_caps > 0


@pytest.mark.parametrize("p,parent_mib", [(1.0, 1.93), (2.0, 1.50), (math.inf, 2.24)])
def test_difference_measurement_peak_memory(p, parent_mib):
    # a 50-member N = 16 measurement, as one besov-grid op takes it, peaks no
    # higher under tracemalloc than the per-pair bound route it replaced
    # (parent_mib: that route's peak, after the same one-member warm-up);
    # no all-pairs stack of the rows d_i^N x is held
    alg = tor.TorusAlgebra(d=2, N=16, theta_num=1)
    xs = np.stack([tor.random_element(alg, rng_for(i, "memory"), band=3, decay=2.0).coeffs for i in range(50)])
    sampling, qd = tor.AmplitudeSampling(8, 4), bz.RadialQuadrature(12, 6)
    bz.measure_differences(tor.TorusElement(alg, xs[:1]), p, 1, 1, sampling, qd)  # the cached tables
    tracemalloc.start()
    try:
        bz.measure_differences(tor.TorusElement(alg, xs), p, 1, 1, sampling, qd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= parent_mib * 2 ** 20


@pytest.mark.parametrize("theta_num", [0, 1])
def test_multiplier_norm_stack_matches_per_state(theta_num):
    # the stacked ball norms of the Picard solver and the trajectory table
    # keep the bits of besov_multiplier_norm state by state, across chunks
    alg = tor.TorusAlgebra(d=2, N=16, theta_num=theta_num)
    xs = np.stack([tor.random_element(alg, rng_for(i, "mstack", theta_num), band=1 + i % 4).coeffs
                   * 10.0 ** (i % 5 - 2) for i in range(40)] + [np.zeros(alg.shape, complex)])
    assert len(tor.realization_chunks(alg, len(xs), entries=alg.lp_filters.size)) > 1
    for p in (1.0, 2.0, math.inf):
        for q in (1.0, 1.5, 2.0, math.inf):
            for s in (0.5, 2.5):
                idx = BesovIndex(s, p, q)
                got = bz.besov_multiplier_norm(tor.TorusElement(alg, xs), idx)
                assert got.tolist() == [bz.besov_multiplier_norm(tor.TorusElement(alg, c), idx)
                                        for c in xs]


def per_call_derivative_growth(seq, k_max):
    sups = {}
    for j, a in enumerate(seq):
        for total in range(k_max + 1):
            for alpha in bz._multiindices(a.algebra.d, total):
                val = tor.lp_norm(tor.derive_multi(a, alpha), math.inf) * 2.0 ** (-j * total)
                sups[total] = max(sups.get(total, 0.0), val)
    return [max(sups.get(t, 0.0) for t in range(k + 1)) for k in range(k_max + 1)]


def per_block_psdo_sequence(u, xi, theta):
    a_seq, b_seq = [], []
    for j in range(tor.block_count(u.algebra)):
        dec = eig_hermitian(HermitianOperator(tor.to_matrix(bz.partial_sum(u, max(j - 1, 0)))))
        a_seq.append(tor.from_matrix(u.algebra, dec.apply(lambda lam: np.exp(1j * theta * xi * lam))))
        b_seq.append(tor.from_matrix(u.algebra, dec.apply(lambda lam: np.exp(1j * (1 - theta) * xi * lam))))
    return a_seq, b_seq


def per_block_paraproduct(seq, u):
    total = np.zeros((u.algebra.matrix_dim,) * 2, dtype=np.complex128)
    for j in range(min(len(seq.a), tor.block_count(u.algebra))):
        bj = tor.lp_block(u, j)
        if float(np.max(np.abs(bj.coeffs))) < 1e-300:
            continue
        total += tor.to_matrix(seq.a[j]) @ tor.to_matrix(bj) @ tor.to_matrix(seq.b[j])
    return tor.from_matrix(u.algebra, total)


@pytest.mark.parametrize("N", [8, 16])
def test_psdo_sequence_growth_and_paraproduct_keep_per_call_bits(N):
    alg = tor.TorusAlgebra(d=2, N=N, theta_num=1)
    u = tor.random_element(alg, rng_for(N, "psdo-bits"), band=3)
    x = tor.random_element(alg, rng_for(N, "psdo-x"), band=3, decay=2.0)
    seq = exp_psdo_sequence(u)
    a_ref, b_ref = per_block_psdo_sequence(u, 1.0, 0.7)
    assert all(np.array_equal(a.coeffs, r.coeffs) for a, r in zip(seq.a, a_ref))
    assert all(np.array_equal(b.coeffs, r.coeffs) for b, r in zip(seq.b, b_ref))
    # unitary (SVD) members, and a mixed sequence with Hermitian members
    mixed = (x,) + seq.a[1:] + (u,)
    for k_max in (1, 2):
        for s in (seq.a, seq.b, mixed):
            assert bz.derivative_growth(s, k_max) == per_call_derivative_growth(s, k_max)
    assert np.array_equal(bz.paraproduct(seq, x).coeffs, per_block_paraproduct(seq, x).coeffs)


def test_harnesses_keep_per_call_bits(alg):
    x = tor.random_element(alg, rng_for(3, "harness-bits"), band=3, decay=2.0)
    for p in (1.0, 2.0, math.inf):
        for q in (1.0, 2.0, math.inf):
            ts = (0.25, 0.5, 1.0, 2.0)
            denom = bz.besov_multiplier_norm(x, BesovIndex(1.5, p, q))
            ratios = [bz.besov_multiplier_norm(tor.heat(x, t), BesovIndex(2.5, p, q))
                      / ((1.0 + t ** -0.5) * denom) for t in ts]
            assert bz.heat_smoothing_check(x, 1.5, 2.5, p, q, ts)["ratios"] == ratios
        rng = rng_for(4, "harness-bits")
        steps = [(rng.uniform(-1, 1, size=2), k) for k in (1, 2, 3, 9)]
        got = bz.block_difference_checks(x, steps, 2, p)
        for (h, k), rep in zip(steps, got):
            bx = tor.lp_block(x, k)
            denom_norm = tor.lp_norm(bx, p)
            if denom_norm == 0.0:
                assert rep["skipped"]
                continue
            lhs = tor.lp_norm(tor.difference(bx, h, 2), p)
            assert rep["lhs"] == lhs
            assert rep["ratio"] == lhs / (min(1.0, float(np.linalg.norm(h)) ** 2 * 2.0 ** (2 * k)) * denom_norm)
        assert got[-1]["skipped"]


def test_symbol_ratios_compute_each_image_once(alg, monkeypatch):
    F, idx = parse_symbol("tanh(x)"), BesovIndex(0.5, 2, 2)
    u = tor.random_element(alg, rng_for(1, "sr"), band=3)
    v = tor.random_element(alg, rng_for(2, "sr"), band=3)
    fu, fv = bz.apply_symbol(F, u), bz.apply_symbol(F, v)
    expect = (bz.besov_multiplier_norm(fu, idx) / bz.besov_multiplier_norm(u, idx),
              bz.besov_multiplier_norm(fu - fv, idx) / bz.besov_multiplier_norm(u - v, idx))
    assert expect[0] == bz.boundedness_ratio(F, u, idx)
    calls = []
    apply_symbol = bz.apply_symbol
    monkeypatch.setattr(bz, "apply_symbol", lambda G, w: calls.append(w) or apply_symbol(G, w))
    ratio, lip, fu = bz.symbol_ratios(F, u, v, idx)
    assert (ratio, lip) == expect
    assert len(calls) == 2 and np.array_equal(fu.coeffs, apply_symbol(F, u).coeffs)
    with pytest.raises(SymbolHypothesisError):
        bz.symbol_ratios(F, u, tor.random_element(alg, rng_for(3, "sr"), hermitian=False), idx)


def test_meyer_operator_norms_go_through_schatten_norm(monkeypatch):
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=1)
    x = tor.random_element(alg, rng_for(0, "mey-svd"), band=2)
    expect = bz.meyer_residual(x, [0.0, 1.0], [4, 8])
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: seen.append(np.shape(a)) or svd(a, *args, **kw))
    assert np.array_equal(bz.meyer_residual(x, [0.0, 1.0], [4, 8]), expect)
    assert len(seen) == 3  # one norm at xi = 0, two at xi = 1


def _stack(alg, tag, count):
    return tor.TorusElement(alg, np.stack([
        tor.random_element(alg, rng_for(i, tag, alg.theta_num), band=1 + i % 5).coeffs
        * 10.0 ** (i % 3 - 1) for i in range(count)]))


@pytest.mark.parametrize("theta_num", [0, 1])
def test_block_and_multiplier_norms_of_a_stack_are_per_member(theta_num):
    # six members at N = 16, as many as the Littlewood-Paley blocks
    alg = tor.TorusAlgebra(d=2, N=16, theta_num=theta_num)
    xs = _stack(alg, "bnstack", 6)
    assert tor.block_count(alg) == 6
    members = [tor.TorusElement(alg, c) for c in xs.coeffs]
    for p in (1, 2, math.inf):
        got = bz.block_norms(xs, p)
        assert got.shape == (6, 6)
        for row, x in zip(got, members):
            assert np.array_equal(row, bz.block_norms(x, p))
        for idx in (BesovIndex(1.5, p, 2), BesovIndex(0.5, p, math.inf)):
            single = [bz.besov_multiplier_norm(x, idx) for x in members]
            assert all(type(v) is float for v in single)
            norms = bz.besov_multiplier_norm(xs, idx)
            assert norms.shape == (6,) and norms.tolist() == single
    grid = tor.TorusElement(alg, xs.coeffs.reshape((2, 3) + alg.shape))
    assert np.array_equal(bz.block_norms(grid, 2).reshape(6, -1), bz.block_norms(xs, 2))


def test_multiplier_form_reads_rows():
    # (..., blocks) rows: each row has the bits of its own call, one row is a float
    rows = bz.block_norms(_stack(tor.TorusAlgebra(d=2, N=16, theta_num=1), "mfrows", 6), 2)
    for q in (1.0, 2.0, math.inf):
        single = [bz.multiplier_form(row, 1.5, q) for row in rows]
        assert all(type(v) is float for v in single)
        assert bz.multiplier_form(rows.reshape(2, 3, -1), 1.5, q).tolist() == [single[:3], single[3:]]


# The operations that the TorusElement docstring names, each as the list of
# its values for x (one element or a stack) with its partner u and steps, a
# stack's or one member's.
STACK_OPERATIONS = {
    "trace": lambda x, u, steps: [x.trace],
    "multiply": lambda x, u, steps: [tor.multiply(x, u).coeffs, tor.multiply(u, u, mode="checked").coeffs],
    "to_matrix": lambda x, u, steps: [tor.to_matrix(x)],
    "from_matrix": lambda x, u, steps: [tor.from_matrix(x.algebra, tor.to_matrix(x) @ tor.to_matrix(u)).coeffs],
    "lp_norm": lambda x, u, steps: [tor.lp_norm(x, p) for p in (1, 2, math.inf)],
    "multipliers": lambda x, u, steps: [tor.heat(x, 0.5).coeffs, tor.difference(x, (0.3, -0.2), 2).coeffs,
                                        tor.lp_block(x, 1).coeffs, tor.derive(x, 1).coeffs,
                                        tor.translate(x, (0.2, 0.4)).coeffs],
    "block_norms": lambda x, u, steps: [bz.block_norms(x, p) for p in (1, 2, math.inf)],
    "besov_multiplier_norm": lambda x, u, steps: [bz.besov_multiplier_norm(x, BesovIndex(1.5, p, q))
                                                  for p in (1, math.inf) for q in (2, math.inf)],
    "measure_differences": lambda x, u, steps: [
        getattr(meas, key) for meas in [bz.measure_differences(x, 1, 1, 1, tor.AmplitudeSampling(8, 4),
                                                               bz.RadialQuadrature(12, 6))]
        for key in ("base", "profiles", "keep", "radial")],
    "besov_difference_norm": lambda x, u, steps: [bz.besov_difference_norm(x, BesovIndex(s, p, q))
                                                  for s in (0.5, 1.5) for p in (1, 2) for q in (1, math.inf)],
    "besov_integral_norm": lambda x, u, steps: [bz.besov_integral_norm(x, BesovIndex(s, p, q))
                                                for s in (0.5, 1.5) for p in (2, math.inf) for q in (1.5, math.inf)],
    "doubling_check": lambda x, u, steps: list(bz.doubling_check(x, (0.3, -1.1), 2, math.inf).values()),
    "block_difference_checks": lambda x, u, steps: [
        value for rep in bz.block_difference_checks(x, steps, 2, 1) for value in rep.values()],
    "block_difference_check": lambda x, u, steps: list(bz.block_difference_check(x, (0.2, 0.5), 1, 2, 2).values()),
    "heat_smoothing_check": lambda x, u, steps: [
        bz.heat_smoothing_check(x, 1.5, 2.5, 1, 2, (0.25, 1.0))[key] for key in ("sup_ratio", "ratios")],
    "derivative_growth": lambda x, u, steps: [
        v for seq in [exp_psdo_sequence(u)] for v in [a.coeffs for a in seq.a + seq.b]
        + list(seq.growth_a + seq.growth_b) + bz.derivative_growth(seq.a, 2)],
    "apply_paraproduct": lambda x, u, steps: [
        v for out, rep in [bz.apply_paraproduct(exp_psdo_sequence(u), x, BesovIndex(1.5, 1, 2))]
        for v in [out.coeffs] + list(rep.values())],
    "paraproduct_of_one_sequence": lambda x, u, steps: [bz.paraproduct(exp_psdo_sequence(
        tor.random_element(x.algebra, rng_for(0, "conv-seq"), band=2)), x).coeffs],
    "apply_symbol": lambda x, u, steps: [bz.apply_symbol(parse_symbol("tanh(x)"), x).coeffs],
    "symbol_ratios": lambda x, u, steps: [
        v.coeffs if isinstance(v, tor.TorusElement) else v
        for v in bz.symbol_ratios(parse_symbol("x - x**3"), x, u, BesovIndex(1.5, 2, 2))],
    "meyer_residual": lambda x, u, steps: [bz.meyer_residual(x, [0.0, 1.0], [4])],
    "chain_rule_residual": lambda x, u, steps: [ch.chain_rule_residual(
        parse_symbol("x**2"), tor.lp_block(x, 0), [(1, 0), (1, 1)], ch.DerivationSpec("torus"))],
}


@pytest.mark.parametrize("theta_num", [0, 1])
@pytest.mark.parametrize("name", sorted(STACK_OPERATIONS))
def test_stack_convention(name, theta_num):
    # every value of a 3-member stack's call is, member by member, the value
    # of that member's own call, bit for bit; the members' bands reach three
    # dyadic ranges
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=theta_num)
    xs = tor.TorusElement(alg, np.stack([tor.random_element(alg, rng_for(i, "conv-x"), band=1 + i).coeffs
                                         for i in range(3)]))
    us = tor.TorusElement(alg, np.stack([tor.random_element(alg, rng_for(i, "conv-u"), band=1).coeffs
                                         for i in range(3)]))
    rngs = [rng_for(i, "conv-steps") for i in range(3)]
    steps = [[(rng.uniform(-1, 1, size=2), k) for k in (1, 3, 9)] for rng in rngs]
    stacked = STACK_OPERATIONS[name](xs, us, steps)
    for i in range(3):
        alone = STACK_OPERATIONS[name](tor.TorusElement(alg, xs.coeffs[i]),
                                       tor.TorusElement(alg, us.coeffs[i]), steps[i])
        assert len(alone) == len(stacked)
        for got, want in zip(stacked, alone):
            assert np.array_equal(np.asarray(got)[i], want)


@pytest.mark.parametrize("theta_num", [0, 1])
def test_hermitian_flag_of_a_stack_is_every_members(theta_num):
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=theta_num)
    xs = [tor.random_element(alg, rng_for(i, "conv-h"), band=2, hermitian=i != 1) for i in range(3)]
    for members in (xs, xs[::2]):
        flags = [tor.is_hermitian(x) for x in members]
        assert tor.is_hermitian(tor.TorusElement(alg, np.stack([x.coeffs for x in members]))) == all(flags)


def test_block_difference_checks_take_one_step_list_per_member(alg):
    xs = _stack(alg, "steplists", 3)
    with pytest.raises(DimensionMismatch, match="need one step list per member: 1 for 3 members"):
        bz.block_difference_checks(xs, [[((0.3, 0.1), 1)]], 1, 2)


def test_keep_counts_a_step_just_below_the_cap():
    # x = U^k + U^-k has ||Delta_h x||_2 = |e^{i<h,k>} - 1| ||x||_2, so its
    # sampled amplitude at t >= 2 comes within 1.03e-5 of the cap 2 ||x||_2
    # without reaching it: those j < 0 are not saturated, and the
    # difference form sums them
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=1)
    x = tor.hermitianize(tor.mode_element(alg, (1, 2)) * 2.0)
    meas = bz.measure_differences(x, 2.0, 1, 0, sampling=tor.AmplitudeSampling(8, 4))
    gap = 1.0 - meas.profiles / (2.0 * tor.lp_norm(x, 2))
    near = (meas.js < 0) & np.all(gap < 1e-3, axis=0)
    assert meas.js[near].tolist() == [-3, -2, -1]
    assert np.all(gap[:, near] > 1e-6) and np.all(meas.keep[:, near])


@pytest.mark.parametrize("theta_num", [0, 1])
def test_apply_symbol_of_a_stack_is_per_member(theta_num):
    alg = tor.TorusAlgebra(d=2, N=16, theta_num=theta_num)
    xs = _stack(alg, "asstack", 5)
    F = parse_symbol("tanh(x)")
    got = bz.apply_symbol(F, xs)
    assert got.coeffs.shape == xs.coeffs.shape
    for g, c in zip(got.coeffs, xs.coeffs):
        assert np.array_equal(g, bz.apply_symbol(F, tor.TorusElement(alg, c)).coeffs)
    if theta_num == 0:
        ref = bz.regular_apply_symbol(F, xs)
        assert ref.coeffs.shape == xs.coeffs.shape
        for r, c in zip(ref.coeffs, xs.coeffs):
            assert np.array_equal(r, bz.regular_apply_symbol(F, tor.TorusElement(alg, c)).coeffs)


def test_symbol_ratios_of_stacks_are_per_member(alg):
    F, idx = parse_symbol("tanh(x)"), BesovIndex(1.5, 2, 2)
    us, vs = _stack(alg, "sru", 4), _stack(alg, "srv", 4)
    ratios, lips, fu = bz.symbol_ratios(F, us, vs, idx)
    for i, (u, v) in enumerate(zip(us.coeffs, vs.coeffs)):
        ratio, lip, f = bz.symbol_ratios(F, tor.TorusElement(alg, u), tor.TorusElement(alg, v), idx)
        assert (ratios[i], lips[i]) == (ratio, lip)
        assert np.array_equal(fu.coeffs[i], f.coeffs)
    assert bz.boundedness_ratio(F, us, idx).tolist() == ratios.tolist()
    # the hypotheses hold for every member, with the messages of one element
    bad = us.coeffs.copy()
    bad[2] = tor.random_element(alg, rng_for(2, "srbad"), band=3, hermitian=False).coeffs
    zero = us.coeffs.copy()
    zero[1] = 0.0
    for u, v, error, message in [
            (bad, vs.coeffs, SymbolHypothesisError, "boundedness harness requires Hermitian u"),
            (us.coeffs, bad, SymbolHypothesisError, "Lipschitz harness requires Hermitian inputs"),
            (zero, vs.coeffs, DegenerateInput, "u = 0"),
            (us.coeffs, np.where(np.arange(4)[:, None, None] == 3, us.coeffs, vs.coeffs),
             DegenerateInput, "u == v")]:
        with pytest.raises(error, match=f"^{message}$"):
            bz.symbol_ratios(F, tor.TorusElement(alg, u), tor.TorusElement(alg, v), idx)
