import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opcalc.besov as bz
import opcalc.torus as tor
from opcalc.errors import BackendMismatch, BandOverflow, DimensionMismatch, NonHermitianInput
from opcalc.expr import parse_symbol
from opcalc.linalg import func_calc, hermitian_schatten_norm_batch, schatten_norm, schatten_norm_batch
from opcalc.seeding import rng_for
from opcalc.symbols import LPFilterFamily


def adjoint(x):
    """x*: the coefficients conj(x(k)) moved to rep(-k) with the wrap sign."""
    return tor.TorusElement(x.algebra, tor._adjoint_coeffs(x.algebra, x.coeffs))


@pytest.fixture(scope="module")
def alg():
    return tor.TorusAlgebra(d=2, N=8, theta_num=1)


@pytest.fixture(scope="module")
def alg16():
    return tor.TorusAlgebra(d=2, N=16, theta_num=1)


@pytest.mark.parametrize("theta_num", [1, 3, 5])
def test_fast_transform_matches_dense_basis(theta_num):
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=theta_num)
    rng = rng_for(theta_num, "dense")
    x = tor.TorusElement(alg, rng.standard_normal(alg.shape) + 1j * rng.standard_normal(alg.shape))
    dense = np.tensordot(x.coeffs, alg.basis(), axes=([0, 1], [0, 1]))
    assert np.max(np.abs(tor.to_matrix(x) - dense)) <= 1e-12
    back = tor.from_matrix(alg, dense)
    assert np.max(np.abs(back.coeffs - x.coeffs)) <= 1e-12
    y = tor.random_element(alg, rng, band=3, hermitian=False)
    z1 = tor.multiply(x, y)
    z2 = tor.basis_product(x, y)
    assert np.max(np.abs(z1.coeffs - z2.coeffs)) <= 1e-11


@pytest.mark.parametrize("theta_num", [1, 3])
def test_boundary_mode_hermitian_sign(theta_num):
    # elements supported on the asymmetric boundary hyperplane k1 = -N/2:
    # the sign-aware flag must agree with Hermiticity of the realization
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=theta_num)
    rng = rng_for(theta_num, "bnd")
    raw = np.zeros(alg.shape, dtype=complex)
    raw[4, 1] = 0.7 + 0.2j      # k = (-4, 1)
    raw[4, 7] = 0.1 - 0.4j      # k = (-4, -1)
    raw[2, 4] = 0.3 + 0.5j      # k = (2, -4)
    x = tor.hermitianize(tor.TorusElement(alg, raw))
    a = tor.to_matrix(x)
    assert np.max(np.abs(a - a.conj().T)) <= 1e-12
    assert tor.is_hermitian(x)
    # and conversely: a Hermitian matrix with boundary content round-trips
    h = a + np.eye(8) * 0.1
    y = tor.from_matrix(alg, h)
    assert tor.is_hermitian(y)
    assert np.max(np.abs(tor.to_matrix(y) - h)) <= 1e-12


def test_algebra_validation():
    with pytest.raises(ValueError):
        tor.TorusAlgebra(d=2, N=7, theta_num=1)  # odd N
    with pytest.raises(ValueError):
        tor.TorusAlgebra(d=2, N=8, theta_num=2)  # gcd(2, 8) != 1
    with pytest.raises(BackendMismatch):
        tor.TorusAlgebra(d=3, N=8, theta_num=1)  # clock/shift needs d = 2
    for d in (0, -1):
        with pytest.raises(ValueError, match="d must be >= 1"):
            tor.TorusAlgebra(d=d, N=8, theta_num=0)


def test_algebra_is_a_value():
    # equal lattices are one dict/set key, and survive the pickling that
    # parallel_map applies to elements
    a, b = tor.TorusAlgebra(d=2, N=8, theta_num=1), tor.TorusAlgebra(d=2, N=8, theta_num=1)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert pickle.loads(pickle.dumps(a)) == a
    assert pickle.loads(pickle.dumps(tor.random_element(a, rng_for(0, "pickle")))).algebra == a
    others = [tor.TorusAlgebra(d=2, N=8, theta_num=3), tor.TorusAlgebra(d=2, N=8),
              tor.TorusAlgebra(d=2, N=16, theta_num=1)]
    assert all(o != a for o in others) and len({a, *others}) == 4
    assert [f.name for f in dataclasses.fields(tor.TorusAlgebra)] == ["d", "N", "theta_num"]


def test_unit_maps_to_identity(alg):
    assert np.allclose(tor.to_matrix(tor.mode_element(alg, (0,) * alg.d)), np.eye(8))


def test_single_mode_is_clock(alg):
    c = tor.to_matrix(tor.mode_element(alg, (1, 0)))
    assert np.allclose(c, np.diag(np.diag(c)))  # diagonal
    omega = np.exp(-2j * np.pi / 8)
    assert np.allclose(np.diag(c), omega ** np.arange(8))


def test_clock_shift_commutation(alg):
    u1 = tor.to_matrix(tor.mode_element(alg, (1, 0)))
    u2 = tor.to_matrix(tor.mode_element(alg, (0, 1)))
    phase = np.exp(2j * np.pi * (alg.theta_num / alg.N))
    assert np.allclose(u2 @ u1, phase * (u1 @ u2))


def test_mode_product_phase(alg):
    lhs = tor.multiply(tor.mode_element(alg, (0, 1)), tor.mode_element(alg, (1, 0)))
    rhs = tor.multiply(tor.mode_element(alg, (1, 0)), tor.mode_element(alg, (0, 1)))
    phase = np.exp(2j * np.pi * (alg.theta_num / alg.N))
    assert np.max(np.abs(lhs.coeffs - phase * rhs.coeffs)) <= 1e-12


def test_trace_is_zero_mode(alg):
    x = tor.random_element(alg, rng_for(0, "tr"), band=3)
    assert np.trace(tor.to_matrix(x)) / 8 == pytest.approx(x.trace, abs=1e-12)
    for k in ((1, 0), (0, 3), (2, 2)):
        assert abs(np.trace(tor.to_matrix(tor.mode_element(alg, k)))) <= 1e-12


def test_round_trip(alg):
    rng = rng_for(1, "rt")
    x = tor.TorusElement(alg, rng.standard_normal(alg.shape) + 1j * rng.standard_normal(alg.shape))
    back = tor.from_matrix(alg, tor.to_matrix(x))
    assert np.max(np.abs(back.coeffs - x.coeffs)) <= 1e-12
    assert np.allclose(tor.from_matrix(alg, np.eye(8)).coeffs, tor.mode_element(alg, (0,) * alg.d).coeffs, atol=1e-13)


def test_hermitian_flag_matches_matrix(alg):
    x = tor.random_element(alg, rng_for(2, "herm"), band=3, hermitian=True)
    assert tor.is_hermitian(x)
    a = tor.to_matrix(x)
    assert np.max(np.abs(a - a.conj().T)) <= 1e-12
    y = tor.TorusElement(alg, x.coeffs + 0.1j * np.roll(x.coeffs, 1, axis=0))
    assert not tor.is_hermitian(y)


def test_adjoint_matches_matrix_star(alg):
    rng = rng_for(3, "adj")
    x = tor.TorusElement(alg, rng.standard_normal(alg.shape) + 1j * rng.standard_normal(alg.shape))
    lhs = adjoint(x).coeffs
    rhs = tor.from_matrix(alg, tor.to_matrix(x).conj().T).coeffs
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_multiply_matches_matrix_route(alg):
    rng = rng_for(4, "mul")
    x = tor.random_element(alg, rng, band=3, hermitian=False)
    y = tor.random_element(alg, rng, band=3, hermitian=False)
    z1 = tor.multiply(x, y)
    z2 = tor.basis_product(x, y)
    assert np.max(np.abs(z1.coeffs - z2.coeffs)) <= 1e-12


def test_multiply_associative(alg):
    rng = rng_for(5, "assoc")
    x, y, z = (tor.random_element(alg, rng_for(5, "assoc", i), band=2) for i in range(3))
    lhs = tor.multiply(tor.multiply(x, y), z)
    rhs = tor.multiply(x, tor.multiply(y, z))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12


def test_multiply_unit(alg):
    x = tor.random_element(alg, rng_for(6, "unit"), band=3)
    z = tor.multiply(x, tor.mode_element(alg, (0,) * alg.d))
    assert np.max(np.abs(z.coeffs - x.coeffs)) <= 1e-14


def test_commutative_backend_fft_oracle():
    alg0 = tor.TorusAlgebra(d=2, N=8, theta_num=0)
    rng = rng_for(7, "fft")
    x = tor.random_element(alg0, rng, band=1)
    y = tor.random_element(alg0, rng, band=1)
    # pointwise grid product, wrap and checked, vs the dense diagonal basis
    ref = tor.basis_product(x, y)
    for mode in ("wrap", "checked"):
        z = tor.multiply(x, y, mode=mode)
        assert np.max(np.abs(z.coeffs - ref.coeffs)) <= 1e-12


def test_checked_multiply_band_overflow(alg):
    x = tor.mode_element(alg, (3, 0))
    with pytest.raises(BandOverflow):
        tor.multiply(x, x, mode="checked")


def _members(x):
    return [tor.TorusElement(x.algebra, c) for c in x.coeffs]


@pytest.mark.parametrize("theta_num", [0, 1])
@pytest.mark.parametrize("mode", ["wrap", "checked"])
def test_products_of_stacks_are_per_member(theta_num, mode):
    # theta = 0 and theta = 1/8: a stack times an element, an element times a
    # stack and two stacks member by member, each with its members' bits
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=theta_num)
    xs, ys = (tor.TorusElement(alg, np.stack([tor.random_element(alg, rng_for(i, tag), band=band).coeffs
                                              for i, band in enumerate(bands)]))
              for tag, bands in (("stack-x", (1, 2, 1)), ("stack-y", (1, 1, 1))))
    one = tor.random_element(alg, rng_for(0, "stack-1"), band=1)
    for got, pairs in [(tor.multiply(xs, one, mode), [(x, one) for x in _members(xs)]),
                       (tor.multiply(one, ys, mode), [(one, y) for y in _members(ys)]),
                       (tor.multiply(xs, ys, mode), list(zip(_members(xs), _members(ys))))]:
        assert got.coeffs.shape == xs.coeffs.shape
        for g, (x, y) in zip(got.coeffs, pairs):
            assert np.array_equal(g, tor.multiply(x, y, mode).coeffs)
    assert np.array_equal(xs.trace, [x.trace for x in _members(xs)])
    assert type(one.trace) is complex


@pytest.mark.parametrize("theta_num", [0, 1])
def test_checked_product_tests_each_member_pair(theta_num):
    # x0 y0 and x1 y1 stay in the band; x0 with y1 would leave it
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=theta_num)
    xs, ys = (tor.TorusElement(alg, np.stack([tor.mode_element(alg, k).coeffs for k in ks]))
              for ks in (((3, 0), (0, 0)), ((0, 0), (3, 0))))
    got = tor.multiply(xs, ys, mode="checked")
    assert np.array_equal(got.coeffs, tor.multiply(xs, ys).coeffs)
    with pytest.raises(BandOverflow, match="along axis 0"):
        tor.multiply(xs, tor.TorusElement(alg, ys.coeffs[::-1]), mode="checked")


@st.composite
def _algebras(draw):
    """Even N in [4, 16] with a coprime theta numerator, or theta = 0 with
    N**d <= 64 so the dense grid-diagonal basis stays small."""
    N = draw(st.sampled_from(range(4, 17, 2)))
    p = draw(st.sampled_from([0] + [q for q in range(1, N) if math.gcd(q, N) == 1]))
    if p:
        return tor.TorusAlgebra(d=2, N=N, theta_num=p)
    d = draw(st.sampled_from([d for d in (1, 2, 3) if N ** d <= 64]))
    return tor.TorusAlgebra(d=d, N=N)


@st.composite
def _elements(draw, alg, count):
    """Random elements with a band per axis (N/2 keeps the -N/2 modes), a
    tail beyond |k|_inf > cut scaled by 1, 1e-13 or 1e-17 (around the checked
    threshold), and some modes removed."""
    out = []
    for _ in range(count):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        c = (rng.standard_normal(alg.shape) + 1j * rng.standard_normal(alg.shape)) / (1.0 + alg.abs_k)
        kinf = np.max(np.abs(np.stack(alg.k_grids)), axis=0)
        for g in alg.k_grids:
            c = np.where(np.abs(g) > draw(st.integers(0, alg.N // 2)), 0.0, c)
        tail = draw(st.sampled_from([1.0, 1e-13, 1e-17]))
        c = np.where(kinf > draw(st.integers(0, alg.N // 2)), tail * c, c)
        c = np.where(rng.random(alg.shape) < draw(st.sampled_from([0.0, 0.5])), 0.0, c)
        out.append(tor.TorusElement(alg, c))
    return out


def _l1(*xs):
    return math.prod(float(np.sum(np.abs(x.coeffs))) for x in xs)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_product_properties(data):
    # every product coefficient is bounded by the l1 norms of the factors
    alg = data.draw(_algebras())
    x, y, z = data.draw(_elements(alg, 3))
    tol = 1e-13 * _l1(x, y)
    assert np.max(np.abs(tor.multiply(x, y).coeffs - tor.basis_product(x, y).coeffs)) <= tol
    lhs = tor.multiply(tor.multiply(x, y), z)
    rhs = tor.multiply(x, tor.multiply(y, z))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-13 * _l1(x, y, z)
    one = tor.mode_element(alg, (0,) * alg.d)
    for prod in (tor.multiply(x, one), tor.multiply(one, x)):
        assert np.max(np.abs(prod.coeffs - x.coeffs)) <= 1e-13 * _l1(x)
    assert abs(tor.multiply(x, y).trace - tor.multiply(y, x).trace) <= tol
    star = adjoint(tor.multiply(x, y))
    assert np.max(np.abs(star.coeffs - tor.multiply(adjoint(y), adjoint(x)).coeffs)) <= tol


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_checked_product_matches_pair_enumeration(data):
    alg = data.draw(_algebras())
    x, y = data.draw(_elements(alg, 2))
    ax, ay = np.abs(x.coeffs).ravel(), np.abs(y.coeffs).ravel()
    ks = np.stack([g.ravel() for g in alg.k_grids], axis=1)          # (modes, d)
    sums = ks[:, None, :] + ks[None, :, :]
    outside = np.any((sums < -alg.N // 2) | (sums >= alg.N // 2), axis=2)
    significant = np.multiply.outer(ax, ay) > 1e-14 * max(float(ax.max() * ay.max()), 1e-300)
    if np.any(outside & significant):
        with pytest.raises(BandOverflow):
            tor.multiply(x, y, mode="checked")
    else:
        z = tor.multiply(x, y, mode="checked")
        assert np.max(np.abs(z.coeffs - tor.basis_product(x, y).coeffs)) <= 1e-13 * _l1(x, y)


def test_traciality(alg):
    x = tor.random_element(alg, rng_for(8, "trc"), band=2)
    y = tor.random_element(alg, rng_for(9, "trc"), band=2)
    assert tor.multiply(x, y).trace == pytest.approx(tor.multiply(y, x).trace, abs=1e-12)


# --- multiplier operations ---------------------------------------------------

def test_translate_zero_and_action(alg):
    x = tor.random_element(alg, rng_for(10, "tr"), band=3)
    assert np.max(np.abs(tor.translate(x, (0.0, 0.0)).coeffs - x.coeffs)) == 0.0
    um = tor.mode_element(alg, (2, 1))
    s = (0.4, -0.9)
    out = tor.translate(um, s)
    assert out.coeffs[2, 1] == pytest.approx(np.exp(1j * (0.4 * 2 - 0.9 * 1)), abs=1e-14)


def test_translate_isometry(alg):
    # p = 2: any shift (Parseval); p != 2: the lattice subgroup, where the
    # translation is implemented by an inner automorphism of the realization
    x = tor.random_element(alg, rng_for(11, "iso"), band=3)
    assert tor.lp_norm(tor.translate(x, (0.3, 0.7)), 2) == pytest.approx(tor.lp_norm(x, 2), rel=1e-11)
    lat = 2 * math.pi / alg.N
    for p in (1, math.inf):
        a = tor.lp_norm(tor.translate(x, (3 * lat, -2 * lat)), p)
        assert a == pytest.approx(tor.lp_norm(x, p), rel=1e-11)


def test_translate_continuity(alg):
    x = tor.random_element(alg, rng_for(12, "cont"), band=3)
    dev = [tor.lp_norm(tor.translate(x, (s, s / 2)) - x, 2) for s in (0.1, 0.01, 0.001)]
    assert dev[0] > dev[1] > dev[2]
    assert dev[2] <= 0.01 * tor.lp_norm(x, 2)


def test_translate_multiplicative(alg):
    x = tor.random_element(alg, rng_for(13, "tm"), band=1)
    y = tor.random_element(alg, rng_for(14, "tm"), band=1)
    s = (0.5, -0.3)
    lhs = tor.translate(tor.multiply(x, y, mode="checked"), s)
    rhs = tor.multiply(tor.translate(x, s), tor.translate(y, s), mode="checked")
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12


def test_derive_basics(alg):
    assert np.max(np.abs(tor.derive(tor.mode_element(alg, (0,) * alg.d), 0).coeffs)) == 0.0
    um = tor.mode_element(alg, (2, -3))
    assert tor.derive(um, 0).coeffs[2, -3 % 8] == pytest.approx(2j)
    assert tor.derive(um, 1).coeffs[2, -3 % 8] == pytest.approx(-3j)


def test_derive_leibniz_no_wrap(alg):
    x = tor.random_element(alg, rng_for(15, "lz"), band=1)
    y = tor.random_element(alg, rng_for(16, "lz"), band=1)
    prod = tor.multiply(x, y, mode="checked")
    lhs = tor.derive(prod, 0)
    rhs = tor.multiply(tor.derive(x, 0), y) + tor.multiply(x, tor.derive(y, 0))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-11


def test_derive_multi_composition(alg):
    x = tor.random_element(alg, rng_for(17, "dm"), band=3)
    a = tor.derive_multi(x, (2, 1))
    b = tor.derive(tor.derive(tor.derive(x, 0), 0), 1)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13


def test_difference_single_mode_norm(alg):
    um = tor.mode_element(alg, (2, 1))
    h = (0.3, -0.4)
    val = tor.lp_norm(tor.difference(um, h, 1), 2)
    assert val == pytest.approx(abs(np.exp(1j * (0.3 * 2 - 0.4)) - 1.0), rel=1e-12)


def test_difference_zero_step(alg):
    x = tor.random_element(alg, rng_for(18, "dz"), band=3)
    assert np.max(np.abs(tor.difference(x, (0.0, 0.0), 1).coeffs)) == 0.0


def test_difference_composes(alg):
    x = tor.random_element(alg, rng_for(19, "dc"), band=3)
    h = (0.2, 0.5)
    d2 = tor.difference(x, h, 2)
    dd = tor.difference(tor.difference(x, h, 1), h, 1)
    assert np.max(np.abs(d2.coeffs - dd.coeffs)) <= 1e-13


def test_difference_norm_bound(alg):
    x = tor.random_element(alg, rng_for(20, "db"), band=3)
    for m in (1, 2, 3):
        for p in (1, 2, math.inf):
            assert tor.lp_norm(tor.difference(x, (0.7, 0.1), m), p) <= \
                (2.0 ** m) * tor.lp_norm(x, p) * (1 + 1e-12)


def test_difference_adjoint_identity(alg):
    # translations commute with the adjoint (real binomial weights), so
    # difference operators do too
    x = tor.random_element(alg, rng_for(21, "da"), band=3, hermitian=False)
    h = np.array([0.4, -0.2])
    lhs = adjoint(tor.difference(x, h, 2))
    rhs = tor.difference(adjoint(x), h, 2)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12


def _amplitudes(x, j_range, m=1, sampling=tor.AmplitudeSampling(16, 8)):
    """omega_2^m(2^-j, x) for j = j_range[0], ..., j_range[1], as the Besov
    difference measurement samples it (N = 0, so every axis row is x itself)."""
    return bz.measure_differences(x, 2, m, 0, sampling=sampling, j_range=j_range).profiles[0]


def test_amplitude_zero_time(alg):
    x = tor.random_element(alg, rng_for(22, "a0"), band=3)
    ts = np.array([0.5, 1.0])
    radii = tor.amplitude_radii(ts, 8)
    dirs = tor.sphere_directions(alg.d, 16)
    norms = tor.lp_norm_batch(alg, tor.difference_table(alg, dirs, radii, 1) * x.coeffs, 2)
    norms = norms.reshape(-1, len(radii))
    assert list(tor.amplitude_from_norms(norms, radii, np.array([0.0]))) == [0.0]
    assert list(tor.amplitude_from_norms(norms, radii, np.array([]))) == []
    assert np.array_equal(tor.amplitude_from_norms(norms, radii, ts), _amplitudes(x, (0, 1))[::-1])


def test_amplitude_refinement_stability(alg16):
    # the sampled sup is a lower bound; doubling the sampling moves it < 2%
    x = tor.random_element(alg16, rng_for(37, "ref"), band=4)
    a1 = _amplitudes(x, (0, 1), sampling=tor.AmplitudeSampling(64, 32))
    a2 = _amplitudes(x, (0, 1), sampling=tor.AmplitudeSampling(128, 64))
    assert np.all(a2 >= a1 - 1e-13)  # richer sampling only improves the bound
    assert np.all(a2 - a1 <= 0.02 * a1)


def test_amplitude_single_mode_closed_form():
    alg1 = tor.TorusAlgebra(d=1, N=16, theta_num=0)
    x = tor.mode_element(alg1, (3,))
    js = np.arange(-1, 4)
    got = _amplitudes(x, (-1, 3), sampling=tor.AmplitudeSampling(64, 32))
    for t, a in zip(2.0 ** -js, got):
        expect = 2 * abs(math.sin(min(t * 3, math.pi) / 2))
        assert a <= expect + 1e-12
        assert a >= expect * (1 - 5e-3)


def test_amplitude_monotone_and_doubling(alg16):
    x = tor.random_element(alg16, rng_for(23, "am"), band=4)
    prof = _amplitudes(x, (-2, 5))  # t = 4, 2, ..., 1/32
    assert np.all(np.diff(prof[::-1]) >= -1e-14)
    # doubling on the shared sample set (dyadic radii nest, so the halved
    # maximizer is itself a sample): amplitude(2t) <= 2^m amplitude(t) at p=2
    for m in (1, 2):
        pr = _amplitudes(x, (-2, 5), m=m)
        assert np.all(pr[:-1] <= (2.0 ** m) * pr[1:] * (1 + 1e-10))


def test_lp_block_partition(alg16):
    x = tor.random_element(alg16, rng_for(24, "lpb"), band=7)
    rec = sum((tor.lp_block(x, j).coeffs for j in range(tor.block_count(alg16))),
              np.zeros(alg16.shape, complex))
    assert np.max(np.abs(rec - x.coeffs)) <= 1e-11


def test_lp_block_mode_localization(alg16):
    um = tor.mode_element(alg16, (4, 0))  # |k| = 4 = 2^2
    active = [j for j in range(tor.block_count(alg16))
              if tor.lp_norm(tor.lp_block(um, j), 2) > 1e-14]
    assert set(active) <= {1, 2, 3}
    const = tor.mode_element(alg16, (0,) * alg16.d)
    for j in range(1, tor.block_count(alg16)):
        assert tor.lp_norm(tor.lp_block(const, j), 2) == 0.0


def multiplier_lp_bound(symbol_values: np.ndarray) -> float:
    """l1 norm of the lattice kernel: a uniform L_p -> L_p operator bound.

    m(D) = sum_s kernel(s) T_{2 pi s / N} with unitary translations, so the
    kernel l1 norm dominates every Schatten operator norm of the multiplier.
    """
    return float(np.sum(np.abs(np.fft.ifftn(symbol_values))))


def test_lp_block_uniform_bound(alg16):
    lp = LPFilterFamily()
    x = tor.random_element(alg16, rng_for(25, "lpu"), band=7)
    for j in range(tor.block_count(alg16)):
        prof = lp.radial_profile(alg16.abs_k, j, homogeneous=False)
        c_phi = multiplier_lp_bound(prof)
        for p in (1, math.inf):
            assert tor.lp_norm(tor.lp_block(x, j), p) <= c_phi * tor.lp_norm(x, p) * (1 + 1e-12)


def test_heat_semigroup_properties(alg16):
    x = tor.random_element(alg16, rng_for(26, "heat"), band=5)
    assert np.max(np.abs(tor.heat(x, 0.0).coeffs - x.coeffs)) == 0.0
    a = tor.heat(tor.heat(x, 0.3), 0.45)
    b = tor.heat(x, 0.75)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12
    um = tor.mode_element(alg16, (3, 2))
    assert tor.heat(um, 0.5).coeffs[3, 2] == pytest.approx(math.exp(-0.5 * 13), rel=1e-13)
    with pytest.raises(ValueError):
        tor.heat(x, -0.1)


def test_heat_contraction_and_parseval_cross_check(alg16):
    x = tor.random_element(alg16, rng_for(27, "hc"), band=5)
    for t in (0.5, 1.0, 2.0):
        for p in (1, 2, math.inf):
            assert tor.lp_norm(tor.heat(x, t), p) <= tor.lp_norm(x, p) * (1 + 1e-11)
    h = tor.heat(x, 0.7)
    via_parseval = tor.lp_norm(h, 2)
    via_svd = schatten_norm(tor.to_matrix(h), 2)
    assert via_parseval == pytest.approx(via_svd, abs=1e-11)


def test_multiplier_operations_commute(alg16):
    x = tor.random_element(alg16, rng_for(28, "comm"), band=4)
    a = tor.heat(tor.derive(tor.difference(x, (0.3, 0.1), 1), 0), 0.2)
    b = tor.difference(tor.heat(tor.derive(x, 0), 0.2), (0.3, 0.1), 1)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12


def test_hermitian_preserved_by_real_even_multipliers(alg16):
    x = tor.random_element(alg16, rng_for(29, "hp"), band=4, hermitian=True)
    assert tor.is_hermitian(tor.heat(x, 0.4))
    assert tor.is_hermitian(tor.lp_block(x, 2))


def test_norms_unit_and_mode(alg):
    one = tor.mode_element(alg, (0,) * alg.d)
    um = tor.mode_element(alg, (2, 1))
    for p in (1, 2, 4, math.inf):
        assert tor.lp_norm(one, p) == pytest.approx(1.0, rel=1e-12)
        assert tor.lp_norm(um, p) == pytest.approx(1.0, rel=1e-12)


def test_norm_interpolation_bound(alg):
    x = tor.random_element(alg, rng_for(30, "int"), band=3)
    assert tor.lp_norm(x, 2) ** 2 <= tor.lp_norm(x, 1) * tor.lp_norm(x, math.inf) * (1 + 1e-12)


def test_norm_monotone_in_p(alg):
    x = tor.random_element(alg, rng_for(31, "mono"), band=3)
    assert tor.lp_norm(x, 1) <= tor.lp_norm(x, 2) * (1 + 1e-12)
    assert tor.lp_norm(x, 2) <= tor.lp_norm(x, math.inf) * (1 + 1e-12)


def _complex_regular(alg, coeff_stack):
    """L_u[k, l] = u((k - l) mod N) in the standard basis, complex, of a
    (batch,) + alg.shape coefficient stack (any coefficients)."""
    sites = np.indices(alg.shape).reshape(alg.d, -1)
    index = np.ravel_multi_index((sites[:, :, None] - sites[:, None, :]) % alg.N, alg.shape)
    return coeff_stack.reshape(len(coeff_stack), -1)[:, index]


def _block_diagonal(blocks):
    """The (batch, n, n) block-diagonal matrices of a (batch, count, side, side)
    stack of ``regular_blocks``."""
    batch, count, side = blocks.shape[:3]
    return np.einsum("ij,zixy->zixjy", np.eye(count), blocks).reshape(batch, count * side, -1)


def test_backend_consistency_flat():
    # theta = 0 norms read grid values; the left-regular (convolution)
    # realization has the same spectrum and shares no code with them: as its
    # real coset blocks and as the dense L_u for a Hermitian element, as the
    # dense L_u for a non-Hermitian one
    for d, N in ((2, 8), (1, 16), (3, 4)):
        alg0 = tor.TorusAlgebra(d=d, N=N, theta_num=0)
        x = tor.random_element(alg0, rng_for(32, "bc", d), band=2)
        y = tor.random_element(alg0, rng_for(32, "bc-nh", d), band=2, hermitian=False)
        for z, regular in ((x, _block_diagonal(tor.regular_blocks(alg0, x.coeffs[None]))),
                           (x, _complex_regular(alg0, x.coeffs[None])),
                           (y, _complex_regular(alg0, y.coeffs[None]))):
            assert regular.shape == (1, N ** d, N ** d)
            for p in (1, 2, math.inf):
                assert tor.lp_norm(z, p) == pytest.approx(schatten_norm_batch(regular, p)[0], rel=1e-12)
    alg1 = tor.TorusAlgebra(d=2, N=8, theta_num=1)
    c1 = tor.random_element(alg1, rng_for(33, "bm"), band=2).coeffs[None]
    for realize in (tor.grid_values, tor.regular_blocks):
        with pytest.raises(BackendMismatch):
            realize(alg1, c1)


@pytest.mark.parametrize("d,N", [(1, 4), (1, 8), (1, 16), (2, 4), (2, 8), (2, 16)])
def test_coset_blocks_match_full_parity_realization(d, N):
    # check (f)'s reference: U* L_u U, the dense L_u in the coset parity
    # basis, is block diagonal with the 2^d real symmetric blocks R_eps, whose
    # spectra together are that of L_u, and F(u) read from the blocks is
    # column 0 of F(L_u)
    alg0 = tor.TorusAlgebra(d=d, N=N, theta_num=0)
    xs = np.stack([tor.random_element(alg0, rng_for(i, "coset", d, N), band=3, decay=1.5).coeffs
                   for i in range(3)])
    M, side = N ** d, (N // 2) ** d
    blocks = tor.regular_blocks(alg0, xs)
    assert blocks.dtype == np.float64 and blocks.shape == (3, 2 ** d, side, side)
    assert np.array_equal(blocks, blocks.swapaxes(-1, -2))
    u = tor.coset_basis(alg0)
    assert np.max(np.abs(u.conj().T @ u - np.eye(M))) <= 1e-13
    f0 = np.zeros(M)
    f0[[np.ravel_multi_index(tuple(N // 2 * np.array(h)), alg0.shape) for h in np.ndindex((2,) * d)]] = 2.0 ** (-d / 2)
    for eps in range(2 ** d):  # column 0 of block eps is f_0 = 2^{-d/2} sum_h chi_eps(h) e_h
        assert np.max(np.abs(np.abs(u[:, eps * side]) - f0)) <= 1e-15
    lu = _complex_regular(alg0, xs)
    scale = np.max(np.abs(lu))
    assert np.max(np.abs(u.conj().T @ lu @ u - _block_diagonal(blocks))) <= 1e-13 * scale
    spectra = np.sort(np.linalg.eigvalsh(blocks).reshape(3, -1), axis=1)
    assert np.max(np.abs(spectra - np.linalg.eigvalsh(lu))) <= 1e-13 * scale
    F = parse_symbol("tanh(x)")
    ref = func_calc(lu, F).data[..., 0]
    got = bz.regular_apply_symbol(F, tor.TorusElement(alg0, xs)).coeffs
    assert np.max(np.abs(got.reshape(len(xs), -1) - ref)) <= 1e-13


def test_coset_blocks_reject_non_hermitian_and_twisted():
    alg0 = tor.TorusAlgebra(d=2, N=8, theta_num=0)
    F = parse_symbol("tanh(x)")
    x = tor.random_element(alg0, rng_for(36, "cbh"), band=3).coeffs
    bad = x.copy()
    bad[1, 2] += 1e-9
    tor.regular_blocks(alg0, np.stack([x, x + 1e-14 * bad]))  # within tolerance
    for realize in (tor.regular_blocks, lambda a, c: bz.regular_apply_symbol(F, tor.TorusElement(a, c))):
        with pytest.raises(NonHermitianInput):
            realize(alg0, np.stack([x, bad]))
        with pytest.raises(NonHermitianInput):
            realize(alg0, np.full((1,) + alg0.shape, np.nan))
        alg1 = tor.TorusAlgebra(d=2, N=8, theta_num=1)
        with pytest.raises(BackendMismatch):
            realize(alg1, tor.random_element(alg1, rng_for(37, "cbt"), band=2).coeffs[None])


def test_hermitian_deviation_batch_matches_elements():
    for alg0 in (tor.TorusAlgebra(d=2, N=8, theta_num=1), tor.TorusAlgebra(d=3, N=4)):
        xs = [tor.random_element(alg0, rng_for(i, "hdb", alg0.d), band=1, hermitian=i % 2 == 0)
              for i in range(4)]
        got = tor.hermitian_deviation_batch(alg0, np.stack([x.coeffs for x in xs]))
        assert got.tolist() == [float(tor.hermitian_deviation_batch(alg0, x.coeffs)) for x in xs]


def test_dimension_mismatch_ops(alg, alg16):
    x = tor.random_element(alg, rng_for(35, "dm"), band=2)
    y = tor.random_element(alg16, rng_for(36, "dm"), band=2)
    with pytest.raises(DimensionMismatch):
        tor.multiply(x, y)
    with pytest.raises(DimensionMismatch):
        tor.translate(x, (0.1,))


@pytest.mark.parametrize("d,N,theta_num", [(1, 8, 0), (2, 8, 0), (2, 8, 1), (2, 16, 3)])
def test_from_matrix_batch_matches_from_matrix(d, N, theta_num):
    alg = tor.TorusAlgebra(d=d, N=N, theta_num=theta_num)
    rng = rng_for(N + theta_num, "from-batch")
    dim = alg.matrix_dim
    stack = rng.standard_normal((4, dim, dim)) + 1j * rng.standard_normal((4, dim, dim))
    coeffs = tor.from_matrix_batch(alg, stack)
    assert coeffs.shape == (4,) + alg.shape
    for i in range(4):
        assert np.array_equal(coeffs[i], tor.from_matrix(alg, stack[i]).coeffs)
    xs = np.stack([tor.random_element(alg, rng, hermitian=False).coeffs for _ in range(3)])
    assert np.max(np.abs(tor.from_matrix_batch(alg, tor.to_matrix_batch(alg, xs)) - xs)) <= 1e-13


@pytest.mark.parametrize("theta_num,count", [(1, 130), (0, 3), (1, 0)])
def test_realization_chunks_cover_the_stack(theta_num, count):
    # N = 16: 64 clock/shift matrices (16 x 16) per chunk, one flat 256 x 256
    alg = tor.TorusAlgebra(d=2, N=16, theta_num=theta_num)
    idx = np.arange(count)
    chunks = tor.realization_chunks(alg, count)
    assert np.array_equal(np.concatenate([idx[c] for c in chunks] + [idx[:0]]), idx)
    assert all(len(idx[c]) * alg.matrix_dim ** 2
               <= max(tor.REALIZATION_CHUNK_ENTRIES, alg.matrix_dim ** 2) for c in chunks)


def _scatter_to_matrix_batch(alg, coeff_stack):
    """Reference realization: zeros, then a fancy-index scatter of the entries."""
    if alg.is_flat:
        vals = np.fft.ifftn(coeff_stack, axes=tuple(range(1, alg.d + 1))) * (alg.N ** alg.d)
        flat = vals.reshape(coeff_stack.shape[0], -1)
        out = np.zeros((coeff_stack.shape[0], flat.shape[1], flat.shape[1]), dtype=np.complex128)
        ii = np.arange(flat.shape[1])
        out[:, ii, ii] = flat
        return out
    N, p = alg.N, alg.theta_num
    f = np.fft.fft(coeff_stack * tor._weyl_phase(alg), axis=1)
    a = np.arange(N)
    cols = (a[:, None] - a[None, :]) % N
    out = np.zeros((coeff_stack.shape[0], N, N), dtype=np.complex128)
    out[:, a[:, None], cols] = f[:, (p * a) % N, :]
    return out


def _gather_from_matrix_batch(alg, stack):
    """Reference recovery: a fancy-index gather of the diagonal offsets."""
    if alg.is_flat:
        vals = np.diagonal(stack, axis1=-2, axis2=-1).reshape((len(stack),) + alg.shape)
        return np.fft.fftn(vals, axes=tuple(range(1, alg.d + 1))) / (alg.N ** alg.d)
    N, p = alg.N, alg.theta_num
    a = np.arange(N)
    diag = stack[:, a[:, None], (a[:, None] - a[None, :]) % N]
    g = np.fft.ifft(diag, axis=1)
    return g[:, (p * a) % N, :] * np.conj(tor._weyl_phase(alg))


def _axis1_to_matrix_batch(alg, coeff_stack):
    """The previous realization: FFTs over axis 1 of the (k1, k2) layout, then
    one gather from the (frequency, k2) layout."""
    N, p = alg.N, alg.theta_num
    a = np.arange(N)
    f = np.fft.fft(coeff_stack * tor._weyl_phase(alg), axis=1).reshape(len(coeff_stack), N * N)
    return np.take(f, ((p * a) % N)[:, None] * N + (a[:, None] - a[None, :]) % N, axis=1)


def _axis1_from_matrix_batch(alg, stack):
    """The previous recovery: a gather into the (a, k2) layout, inverse FFTs
    over axis 1, then a fancy index over the frequencies."""
    N, p = alg.N, alg.theta_num
    a = np.arange(N)
    diag = np.take(stack.reshape(len(stack), N * N), a[:, None] * N + (a[:, None] - a[None, :]) % N, axis=1)
    return np.fft.ifft(diag, axis=1)[:, (p * a) % N, :] * np.conj(tor._weyl_phase(alg))


@pytest.mark.parametrize("N", [8, 16, 32])
@pytest.mark.parametrize("theta_num", [1, 3])
def test_contiguous_axis_realization_keeps_axis1_bits(N, theta_num):
    alg = tor.TorusAlgebra(d=2, N=N, theta_num=theta_num)
    rng = rng_for(N * 10 + theta_num, "axis1")
    coeffs = np.stack([tor.random_element(alg, rng, hermitian=h).coeffs for h in (True, False) * 20])
    mats = tor.to_matrix_batch(alg, coeffs)
    assert mats.flags.c_contiguous and np.array_equal(mats, _axis1_to_matrix_batch(alg, coeffs))
    assert all(np.array_equal(tor.to_matrix(tor.TorusElement(alg, c)), m) for c, m in zip(coeffs[:3], mats))
    stack = rng.standard_normal((40, N, N)) + 1j * rng.standard_normal((40, N, N))
    for s in (stack, mats):
        back = tor.from_matrix_batch(alg, s)
        assert back.flags.c_contiguous and np.array_equal(back, _axis1_from_matrix_batch(alg, s))


@pytest.mark.parametrize("d,N,theta_num", [(2, 4, 1), (2, 4, 3), (2, 8, 1), (2, 8, 3),
                                           (2, 16, 1), (2, 16, 3), (2, 32, 1), (2, 32, 3),
                                           (2, 4, 0), (2, 8, 0), (2, 16, 0), (1, 32, 0)])
def test_realization_matches_scatter_reference(d, N, theta_num):
    alg = tor.TorusAlgebra(d=d, N=N, theta_num=theta_num)
    rng = rng_for(N * 10 + theta_num, "gather")
    coeffs = np.stack([tor.random_element(alg, rng, hermitian=False).coeffs for _ in range(3)])
    mats = tor.to_matrix_batch(alg, coeffs)
    assert mats.flags.writeable and mats.flags.c_contiguous
    assert np.array_equal(mats, _scatter_to_matrix_batch(alg, coeffs))
    dim = alg.matrix_dim
    stack = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))
    assert np.array_equal(tor.from_matrix_batch(alg, stack), _gather_from_matrix_batch(alg, stack))
    assert np.array_equal(tor.from_matrix_batch(alg, mats), _gather_from_matrix_batch(alg, mats))


def _exp_difference_stack(x, dirs, radii, m):
    """Reference difference stack: one exp over (dir, radius) + mode grid."""
    alg = x.algebra
    phases = sum(dirs[:, ax].reshape((-1,) + (1,) * alg.d) * g for ax, g in enumerate(alg.k_grids))
    full = phases[:, None, ...] * radii.reshape((1, -1) + (1,) * alg.d)
    return (((np.exp(1j * full) - 1.0) ** m) * x.coeffs).reshape((-1,) + alg.shape)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("d,N,theta_num", [(1, 16, 0), (2, 16, 1), (2, 32, 3), (3, 8, 0)])
def test_difference_stack_matches_exp_reference(d, N, theta_num, m):
    # both multipliers round the phase r <d, k>, whose size grows with r |k|,
    # so the entries agree to a phase-rounding bound scaled by |x_k|
    alg = tor.TorusAlgebra(d=d, N=N, theta_num=theta_num)
    x = tor.random_element(alg, rng_for(N + d, "dstack"), decay=0.0)
    dirs = tor.sphere_directions(d, 8)
    radii = np.geomspace(1e-3, 8.0, 13)
    table = tor.difference_table(alg, dirs, radii, m)
    entries = np.arange(len(table))
    got = tor._difference_stack(table, entries, np.zeros_like(entries), lambda pair: x.coeffs,
                                np.empty(table.shape, complex))
    ref = _exp_difference_stack(x, dirs, radii, m)
    assert got.shape == ref.shape == (len(dirs) * len(radii),) + alg.shape
    k1 = sum(np.abs(g) for g in alg.k_grids)
    r = np.tile(radii, len(dirs)).reshape((-1,) + (1,) * d)
    bound = 1e-15 * m * 2.0 ** (m - 1) * (1.0 + r * k1) * np.abs(x.coeffs)
    assert np.all(np.abs(got - ref) <= bound)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_difference_norm_bounds_bound_every_norm(data):
    # every norm that the amplitude profile may skip is at most its bound,
    # within the pruning's rounding margin, Hermitian or not; an element of
    # one or two modes has (nearly) equal singular values, where the bounds
    # are (nearly) sharp
    alg = data.draw(_algebras())
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if data.draw(st.booleans()):
        c = np.zeros(alg.shape, complex)
        c.flat[rng.choice(c.size, data.draw(st.integers(1, 2)), replace=False)] = rng.standard_normal(2) @ [1, 1j]
        x = tor.TorusElement(alg, c)
    else:
        x = data.draw(_elements(alg, 1))[0]
    if data.draw(st.booleans()):
        x = tor.hermitianize(x)
    scale = data.draw(st.sampled_from([1.0, 1e-120, 1e120]))
    p = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    table = tor.difference_table(alg, tor.sphere_directions(alg.d, 4), rng.uniform(0.0, 2 * math.pi, 3),
                                 data.draw(st.integers(1, 2)))
    coeffs = scale * x.coeffs
    norms = tor.lp_norm_batch(alg, table * coeffs, p)  # the table on the left, as the route multiplies
    assert np.all(norms <= bz._norm_bounds(alg, lambda pair: coeffs, 1, table, p)[0] * (1.0 + 1e-10))


@pytest.mark.parametrize("p", [1, 3, math.inf])
def test_lp_norm_batch_routes_hermitian_stacks_to_eigenvalues(alg16, p, monkeypatch):
    rng = rng_for(40, "route")
    xs = np.stack([tor.random_element(alg16, rng, band=5).coeffs for _ in range(4)])
    mats = tor.to_matrix_batch(alg16, xs)
    svd = schatten_norm_batch(mats, p)
    # a mixed stack is routed member by member: each norm has the bits of the
    # member's own lp_norm, the non-Hermitian one from the SVD
    mixed = xs.copy()
    mixed[2] = tor.random_element(alg16, rng, band=5, hermitian=False).coeffs
    got = tor.lp_norm_batch(alg16, mixed, p)
    assert np.array_equal(got, [tor.lp_norm(tor.TorusElement(alg16, c), p) for c in mixed])
    assert got[2] == schatten_norm_batch(tor.to_matrix_batch(alg16, mixed[2:3]), p)[0]
    assert np.array_equal(got[[0, 1, 3]], hermitian_schatten_norm_batch(mats[[0, 1, 3]], p))

    def no_svd(*args, **kwargs):
        raise AssertionError("a Hermitian stack reached the SVD")
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    got = tor.lp_norm_batch(alg16, xs, p)
    assert np.array_equal(got, hermitian_schatten_norm_batch(mats, p))
    assert got == pytest.approx(svd, rel=1e-13)
    with pytest.raises(ValueError, match="finite"):
        tor.lp_norm_batch(alg16, np.where(np.arange(4)[:, None, None] == 1, np.nan, xs), p)


@pytest.mark.parametrize("theta_num", [0, 1])
@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_lp_norm_of_a_stack_is_one_norm_per_member(theta_num, p):
    # 70 members cross a chunk boundary (64 members of 16 x 16 coefficients);
    # every third one is not Hermitian, so at theta != 0 both spectral routes run
    alg = tor.TorusAlgebra(d=2, N=16, theta_num=theta_num)
    xs = np.stack([tor.random_element(alg, rng_for(i, "lpstack", theta_num), band=1 + i % 7,
                                      hermitian=i % 3 != 0).coeffs * 10.0 ** (i % 5 - 2)
                   for i in range(70)])
    assert len(tor.coefficient_chunks(alg, len(xs))) > 1
    single = [tor.lp_norm(tor.TorusElement(alg, c), p) for c in xs]
    assert all(type(v) is float for v in single)
    got = tor.lp_norm(tor.TorusElement(alg, xs), p)
    assert isinstance(got, np.ndarray) and got.shape == (70,)
    assert got.tolist() == single
    grid = tor.lp_norm(tor.TorusElement(alg, xs[:6].reshape((2, 3) + alg.shape)), p)
    assert grid.shape == (2, 3) and grid.ravel().tolist() == single[:6]


@pytest.mark.parametrize("theta_num", [0, 1])
@pytest.mark.parametrize("p", [1, 1.5, 3, 40])
def test_lp_norm_scales_with_the_element_at_extreme_scales(theta_num, p):
    # ||c x||_p = c ||x||_p on both routes where |x|^p leaves the float range:
    # at theta = 0 the p-mean of the grid values is then taken of them
    # scaled by their largest, as the spectral route scales its singular values
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=theta_num)
    x = tor.random_element(alg, rng_for(0, "lpscale"), band=3).coeffs
    for scale in (1e-120, 1e120):
        got = tor.lp_norm_batch(alg, np.stack([scale * x, x]), p)
        assert got[0] == pytest.approx(scale * got[1], rel=1e-12)
        assert got[1] == tor.lp_norm_batch(alg, x[None], p)[0]


@pytest.mark.parametrize("theta_num", [0, 1])
@pytest.mark.parametrize("p", [0.5, 0, -1])
def test_lp_norm_batch_rejects_p_below_one_on_every_route(theta_num, p):
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=theta_num)
    x = tor.random_element(alg, rng_for(0, "lpp"), band=2)
    for stack in (x.coeffs[None], np.stack([x.coeffs, tor.hermitianize(x * 1j).coeffs])):
        with pytest.raises(ValueError, match=f"Schatten exponent must satisfy p >= 1, got {float(p)}"):
            tor.lp_norm_batch(alg, stack, p)
    with pytest.raises(ValueError, match="Schatten exponent"):
        tor.lp_norm(x, p)
