import itertools
import math

import numpy as np
import pytest

from opcalc.errors import ComplexityExceeded, DegenerateInput, DimensionMismatch, NonUnitary
from opcalc.expr import parse_symbol
from opcalc.linalg import HermitianOperator, eig_hermitian, func_calc, haar_unitary, random_hermitian, schatten_norm
from opcalc.moi import (MOIOperands, _contract, homomorphism_commutation_residual,
                        lipschitz_ratio, loewner_residual, moi_binned, moi_schur,
                        perturbation_residual)
from opcalc.seeding import rng_for
from opcalc.symbols import SmoothSymbol, divided_diff, divided_diff_tensor


def random_args(rng, n, count):
    return tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                 for _ in range(count))


def test_constant_phi_gives_plain_product():
    rng = rng_for(0, "const")
    anchors = tuple(random_hermitian(rng, 5) for _ in range(3))
    x1, x2 = random_args(rng, 5, 2)
    out = moi_schur(None, MOIOperands(anchors, (x1, x2)), phi=np.ones((5, 5, 5)))
    assert np.linalg.norm(out - x1 @ x2) <= 1e-12 * np.linalg.norm(x1 @ x2)


def test_schur_multiplier_on_diagonal_anchors():
    lam = np.array([0.3, 1.1, 2.4])
    h = HermitianOperator(np.diag(lam))
    F = parse_symbol("exp(x)")
    rng = rng_for(1, "schur")
    x = random_args(rng, 3, 1)[0]
    out = moi_schur(F, MOIOperands((h, h), (x,)))
    phi = np.array([[divided_diff(F, [a, b]) for b in lam] for a in lam])
    assert np.allclose(out, phi * x, atol=1e-12)


def test_square_symbol_telescopes():
    rng = rng_for(2, "sq")
    X, Y = random_hermitian(rng, 5), random_hermitian(rng, 5)
    out = moi_schur(parse_symbol("x**2"), MOIOperands((X, Y), (X.data - Y.data,)))
    assert np.linalg.norm(out - (X.data @ X.data - Y.data @ Y.data)) <= 1e-12 * 10


def test_order_three_matches_eigenprojection_sum():
    # exact non-constant phi; the last anchor has a doubly repeated eigenvalue
    rng = rng_for(5, "o3")
    spectra = [rng.uniform(-1.5, 1.5, size=5) for _ in range(3)]
    spectra.append(np.array([0.3, 0.3, 1.0, -0.5, 1.7]))
    bases = [haar_unitary(rng, 5) for _ in spectra]
    anchors = tuple(HermitianOperator((v * lam) @ v.conj().T) for v, lam in zip(bases, spectra))
    args = random_args(rng, 5, 3)
    F = parse_symbol("tanh(x)")
    projections = []
    for v, lam in zip(bases, spectra):
        projections.append([(x, v[:, lam == x] @ v[:, lam == x].conj().T) for x in np.unique(lam)])
    expect = np.zeros((5, 5), dtype=complex)
    for (l0, p0), (l1, p1), (l2, p2), (l3, p3) in itertools.product(*projections):
        expect += (divided_diff(F, [l0, l1, l2, l3])
                   * p0 @ args[0] @ p1 @ args[1] @ p2 @ args[2] @ p3)
    out = moi_schur(F, MOIOperands(anchors, args))
    assert np.linalg.norm(out - expect) <= 1e-12 * np.linalg.norm(expect)


@pytest.mark.parametrize("n", [5, 8])
def test_real_phi_order_three_keeps_bits(n):
    # moi_schur takes any phi as complex128: a real phi gives the bits of its
    # complex128 cast, in _contract and in the whole MOI
    rng = rng_for(n, "real-phi")
    phi = rng.standard_normal((n,) * 4)
    rotated = random_args(rng, n, 3)
    assert np.array_equal(_contract(phi, rotated), _contract(phi.astype(np.complex128), rotated))
    anchors = tuple(random_hermitian(rng, n) for _ in range(4))
    ops = MOIOperands(anchors, random_args(rng, n, 3))
    assert np.array_equal(moi_schur(None, ops, phi=phi),
                          moi_schur(None, ops, phi=phi.astype(np.complex128)))


def test_order_zero_is_functional_calculus():
    h = random_hermitian(rng_for(3, "n0"), 6)
    F = parse_symbol("tanh(x)")
    out = moi_schur(F, MOIOperands((h,), ()))
    assert np.allclose(out, func_calc(h, F).data, atol=1e-12)


def test_multilinearity():
    rng = rng_for(4, "lin")
    anchors = tuple(random_hermitian(rng, 4) for _ in range(3))
    x1, x2, y = random_args(rng, 4, 3)
    F = parse_symbol("x**4")
    a = moi_schur(F, MOIOperands(anchors, (x1, 2.5 * x2 + y)))
    b = (2.5 * moi_schur(F, MOIOperands(anchors, (x1, x2)))
         + moi_schur(F, MOIOperands(anchors, (x1, y))))
    assert np.linalg.norm(a - b) <= 1e-11 * max(np.linalg.norm(a), 1)


def test_adjoint_symmetry_first_order():
    rng = rng_for(5, "adj")
    A, B = random_hermitian(rng, 5), random_hermitian(rng, 5)
    x = random_args(rng, 5, 1)[0]
    F = parse_symbol("sin(x)")
    lhs = moi_schur(F, MOIOperands((A, B), (x,))).conj().T
    rhs = moi_schur(F, MOIOperands((B, A), (x.conj().T,)))
    assert np.linalg.norm(lhs - rhs) <= 1e-11 * max(np.linalg.norm(lhs), 1)


def test_degenerate_basis_independence():
    # double eigenvalue; rotate the eigenbasis inside the degenerate block
    rng = rng_for(6, "deg")
    lam = np.array([1.0, 1.0, 2.0, 3.0])
    v = haar_unitary(rng, 4)
    h = HermitianOperator((v * lam) @ v.conj().T)
    dec = eig_hermitian(h)
    q = np.eye(4, dtype=complex)
    q[:2, :2] = haar_unitary(rng, 2)
    dec_rot = type(dec)(eigenvalues=dec.eigenvalues, eigenvectors=dec.eigenvectors @ q)
    x = random_args(rng, 4, 1)[0]
    F = parse_symbol("exp(x)")
    out1 = moi_schur(F, MOIOperands((h, h), (x,)), decompositions=[dec, dec])
    out2 = moi_schur(F, MOIOperands((h, h), (x,)), decompositions=[dec_rot, dec_rot])
    assert np.linalg.norm(out1 - out2) <= 1e-10 * max(np.linalg.norm(out1), 1)


def test_schur_l2_bound():
    rng = rng_for(7, "bound")
    A, B = random_hermitian(rng, 6), random_hermitian(rng, 6)
    x = random_args(rng, 6, 1)[0]
    F = parse_symbol("tanh(x)")
    out = moi_schur(F, MOIOperands((A, B), (x,)))
    la, lb = np.linalg.eigvalsh(A.data), np.linalg.eigvalsh(B.data)
    sup = max(abs(divided_diff(F, [a, b])) for a in la for b in lb)
    assert schatten_norm(out, 2) <= sup * schatten_norm(x, 2) * (1 + 1e-12)


def test_cost_guard():
    # order 3 at dimension 33 costs 33^5 > DEFAULT_COST_CAP = 32^5
    rng = rng_for(8, "guard")
    anchors = tuple(random_hermitian(rng, 33) for _ in range(4))
    args = random_args(rng, 33, 3)
    with pytest.raises(ComplexityExceeded):
        moi_schur(parse_symbol("x**4"), MOIOperands(anchors, args))
    with pytest.raises(ComplexityExceeded):
        moi_binned(parse_symbol("x**4"), MOIOperands(anchors, args))


def _kernel_and_dense(F, anchors, args):
    """moi_schur's polynomial kernel and its dense contraction of F^[n], on one
    set of decompositions."""
    ops = MOIOperands(anchors, args)
    decs = [eig_hermitian(a) for a in ops.anchors]
    phi = divided_diff_tensor(F, [d.eigenvalues for d in decs])
    return (moi_schur(F, ops, decompositions=decs),
            moi_schur(F, ops, decompositions=decs, phi=phi))


def _projection(rng, n, rank):
    v = haar_unitary(rng, n)[:, :rank]
    return HermitianOperator(v @ v.conj().T)


@pytest.mark.parametrize("expr", ["x**3", "x**5 - 2*x", "x**4 + x**2"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("anchors", ["equal", "distinct", "degenerate"])
def test_poly_kernel_matches_dense_contraction(expr, order, anchors):
    rng = rng_for(40, "poly-kernel", expr, order, anchors)
    if anchors == "equal":
        anc = (random_hermitian(rng, 6),) * (order + 1)
    elif anchors == "distinct":
        anc = tuple(random_hermitian(rng, 6) for _ in range(order + 1))
    else:  # projections, and an anchor with a triple eigenvalue
        lam = np.array([0.7, 0.7, 0.7, -1.2, 1.5, 0.1])
        v = haar_unitary(rng, 6)
        repeated = HermitianOperator((v * lam) @ v.conj().T)
        anc = (repeated,) + tuple(_projection(rng, 6, 3) for _ in range(order))
    kernel, dense = _kernel_and_dense(parse_symbol(expr), anc, random_args(rng, 6, order))
    assert np.linalg.norm(kernel - dense) <= 1e-13 * np.linalg.norm(dense)


@pytest.mark.parametrize("expr,order", [("x**2", 3), ("x", 2), ("3 + 0*x", 1)])
def test_poly_kernel_below_order_is_exact_zero(expr, order):
    rng = rng_for(41, "poly-zero", expr)
    anc = tuple(random_hermitian(rng, 5) for _ in range(order + 1))
    kernel, dense = _kernel_and_dense(parse_symbol(expr), anc, random_args(rng, 5, order))
    assert not np.any(kernel) and not np.any(dense)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_poly_kernel_complex_coefficients(order):
    coeffs = (0.5j, -1.0, 2.0 - 1.0j, 0.0, 0.3j)
    F = SmoothSymbol(jet=lambda x, k: [np.polyval(coeffs[::-1], x)], max_order=0, poly_coeffs=coeffs,
                     check=False)
    rng = rng_for(42, "poly-complex", order)
    anc = tuple(random_hermitian(rng, 6) for _ in range(order + 1))
    kernel, dense = _kernel_and_dense(F, anc, random_args(rng, 6, order))
    assert dense.dtype == np.complex128
    assert np.linalg.norm(kernel - dense) <= 1e-13 * np.linalg.norm(dense)


def test_poly_kernel_keeps_the_order_limit():
    # order 4 at dimension 4 passes the cost guard (4^6 < 32^5); the order
    # limit still refuses it before either kernel runs
    rng = rng_for(43, "poly-order4")
    anchors = tuple(random_hermitian(rng, 4) for _ in range(5))
    with pytest.raises(ComplexityExceeded, match="orders above 3"):
        moi_schur(parse_symbol("x**6"), MOIOperands(anchors, random_args(rng, 4, 4)))


def test_dimension_mismatch():
    rng = rng_for(9, "dim")
    with pytest.raises(DimensionMismatch):
        MOIOperands((random_hermitian(rng, 3), random_hermitian(rng, 4)),
                    (np.zeros((3, 3)),))


def test_anchor_continuity_spot_check():
    # perturbing an anchor by eps moves the output by O(eps)
    rng = rng_for(30, "cont")
    F = parse_symbol("sin(x)")
    a0, a1 = random_hermitian(rng, 6), random_hermitian(rng, 6)
    x = random_args(rng, 6, 1)[0]
    base = moi_schur(F, MOIOperands((a0, a1), (x,)))
    deltas = []
    for eps in (1e-2, 1e-3, 1e-4):
        da = random_hermitian(rng_for(30, "cont-d"), 6)
        pert = HermitianOperator(a0.data + eps * da.data)
        out = moi_schur(F, MOIOperands((pert, a1), (x,)))
        deltas.append(np.linalg.norm(out - base) / eps)
    # difference quotients stay bounded as eps -> 0
    assert max(deltas) <= 10 * min(deltas) + 1.0


# --- binned form ---------------------------------------------------------

def test_binned_exact_at_left_endpoints():
    lam = np.array([0.0, 0.25, 0.5, 1.0])
    h = HermitianOperator(np.diag(lam))
    rng = rng_for(10, "bin")
    x = random_args(rng, 4, 1)[0]
    F = parse_symbol("x**3")
    ops = MOIOperands((h, h), (x,))
    assert np.linalg.norm(moi_binned(F, ops, m=4) - moi_schur(F, ops)) <= 1e-12


def test_binned_constant_symbol_any_resolution():
    # F(x) = x has F^[1] identically one (exactly, on the polynomial path)
    rng = rng_for(11, "binc")
    anchors = tuple(random_hermitian(rng, 5) for _ in range(2))
    x = random_args(rng, 5, 1)[0]
    for m in (3, 7, 50):
        out = moi_binned(parse_symbol("x"), MOIOperands(anchors, (x,)), m=m)
        assert np.linalg.norm(out - x) <= 1e-11 * np.linalg.norm(x)


def _binned_reference(F, lams, unitaries, args, m):
    """sum over bin tuples of F^[n](bin endpoints) P_{b0} X_1 P_{b1} ... X_n P_{bn},
    with each bin projector P_b built from the anchor's known eigenvectors."""
    projectors = []
    for lam, u in zip(lams, unitaries):
        labels = np.floor(lam * m + 1e-9).astype(int)
        projectors.append({b: u[:, labels == b] @ u[:, labels == b].conj().T
                           for b in np.unique(labels)})
    total = 0
    for bins in itertools.product(*(sorted(p) for p in projectors)):
        term = projectors[0][bins[0]]
        for x, proj, b in zip(args, projectors[1:], bins[1:]):
            term = term @ x @ proj[b]
        total = total + divided_diff(F, np.array(bins) / m) * term
    return total


@pytest.mark.parametrize("m", [1, 4, 25])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_binned_matches_bin_projector_sum(order, m):
    F = parse_symbol("exp(x)")
    rng = rng_for(13, "binp", order, m)
    lams = [rng.uniform(-1.0, 1.0, 4) for _ in range(order + 1)]
    # a repeated eigenvalue sitting on the bin edge round(0.4 m)/m
    lams[0][1:3] = round(0.4 * m) / m
    unitaries = [haar_unitary(rng, 4) for _ in range(order + 1)]
    anchors = tuple(HermitianOperator(u @ np.diag(lam) @ u.conj().T)
                    for lam, u in zip(lams, unitaries))
    args = random_args(rng, 4, order)
    ref = _binned_reference(F, lams, unitaries, args, m)
    out = moi_binned(F, MOIOperands(anchors, args), m=m)
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


def test_binned_convergence_rate():
    F = parse_symbol("exp(x)")
    ms = [10, 20, 40, 80, 160]
    curves = []
    for seed in range(8):
        rng = rng_for(seed, "binned-rate")
        ops = MOIOperands((random_hermitian(rng, 6), random_hermitian(rng, 6)),
                          random_args(rng, 6, 1))
        exact = moi_schur(F, ops)
        curves.append([np.linalg.norm(moi_binned(F, ops, m=m) - exact) for m in ms])
    slope = np.polyfit(np.log(ms), np.log(np.mean(curves, axis=0)), 1)[0]
    assert -1.3 <= slope <= -0.7


def test_binned_monotone_dyadic():
    F = parse_symbol("sin(x)")
    rng = rng_for(12, "binm")
    ops = MOIOperands((random_hermitian(rng, 6), random_hermitian(rng, 6)),
                      random_args(rng, 6, 1))
    exact = moi_schur(F, ops)
    errs = [np.linalg.norm(moi_binned(F, ops, m=m) - exact) for m in (16, 32, 64)]
    assert errs[0] >= errs[1] * (1 - 1e-9) and errs[1] >= errs[2] * (1 - 1e-9)


def test_binned_reads_supplied_decompositions():
    # the exact form and every resolution m share one decomposition per anchor
    F = parse_symbol("exp(x)")
    rng = rng_for(14, "bind")
    ops = MOIOperands((random_hermitian(rng, 6), random_hermitian(rng, 6)), random_args(rng, 6, 1))
    decs = [eig_hermitian(a) for a in ops.anchors]
    for m in (10, 160):
        assert np.array_equal(moi_binned(F, ops, m=m, decompositions=decs), moi_binned(F, ops, m=m))
    with pytest.raises(DimensionMismatch):
        moi_binned(F, ops, m=4, decompositions=decs[:1])


def _members(seed, count, n, order):
    """count single-member operand sets of one order, and their stack."""
    rng = rng_for(seed, "stack", n, order)
    singles = [MOIOperands(tuple(random_hermitian(rng, n) for _ in range(order + 1)),
                           random_args(rng, n, order)) for _ in range(count)]
    stacked = MOIOperands(
        tuple(HermitianOperator(np.stack([ops.anchors[j].data for ops in singles])) for j in range(order + 1)),
        tuple(np.stack([ops.arguments[j] for ops in singles]) for j in range(order)))
    return singles, stacked


@pytest.mark.parametrize("expr", ["exp(x)", "x**4 + x**2"])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_stacked_moi_equals_single_calls(expr, order):
    # a stack of members gives each member the bits of its own call, for the
    # exact form (dense or h_k kernel) and the binned form at every resolution
    F = parse_symbol(expr)
    singles, stacked = _members(15, 4, 5, order)
    decs = [eig_hermitian(a) for a in stacked.anchors]
    got = moi_schur(F, stacked, decompositions=decs)
    assert got.shape == (4, 5, 5)
    assert all(np.array_equal(g, moi_schur(F, ops)) for g, ops in zip(got, singles))
    for m in (10, 20, 40, 80, 160):
        got = moi_binned(F, stacked, m=m, decompositions=decs)
        assert all(np.array_equal(g, moi_binned(F, ops, m=m)) for g, ops in zip(got, singles)), m


@pytest.mark.parametrize("order", [2, 3])
def test_contract_stack_keeps_bits(order):
    # the stacked einsum of the dense kernel rounds as one einsum per member
    rng = rng_for(16, "contract", order)
    phi = rng.standard_normal((6,) + (5,) * (order + 1)) + 1j * rng.standard_normal((6,) + (5,) * (order + 1))
    rotated = [np.stack(random_args(rng, 5, 6)) for _ in range(order)]
    got = _contract(phi, rotated)
    assert all(np.array_equal(got[i], _contract(phi[i], [x[i] for x in rotated])) for i in range(6))


def test_stacked_lipschitz_ratio_equals_single_calls():
    F = parse_symbol("exp(x)")
    rng = rng_for(17, "lip-stack")
    pairs = [(random_hermitian(rng, 8), random_hermitian(rng, 8)) for _ in range(5)]
    X, Y = (HermitianOperator(np.stack([h.data for h in side])) for side in zip(*pairs))
    for p in (1, 2, math.inf):
        got = lipschitz_ratio(F, X, Y, p, decompositions=[eig_hermitian(X), eig_hermitian(Y)])
        assert got.tolist() == [lipschitz_ratio(F, x, y, p, decompositions=[eig_hermitian(x), eig_hermitian(y)])
                                for x, y in pairs]


def test_run_moi_decomposes_each_anchor_once(monkeypatch):
    import opcalc.experiments as ex
    import opcalc.linalg as la
    import opcalc.moi as mo
    from opcalc.baselines import BaselineStore
    from opcalc.config import ExperimentConfig
    calls = []
    original = la.eig_hermitian

    def counted(h):
        calls.append(h)
        return original(h)
    for module in (la, mo, ex):
        monkeypatch.setattr(module, "eig_hermitian", counted)
    ex.run_moi(ExperimentConfig(kind="moi", seed=3, ensemble=3), BaselineStore())
    # the ensemble's two anchor stacks once for the exact form and the five m;
    # then the Lipschitz part's two stacks, whose decompositions give both
    # the spectral window and the functional calculi
    assert len(calls) == 2 + 2


# --- Loewner / perturbation ----------------------------------------------

def test_loewner_zero_for_equal():
    h = random_hermitian(rng_for(13, "l0"), 4)
    assert loewner_residual(parse_symbol("x**3"), h, h) <= 1e-14


def test_loewner_square():
    rng = rng_for(14, "l1")
    X, Y = random_hermitian(rng, 5), random_hermitian(rng, 5)
    assert loewner_residual(parse_symbol("x**2"), X, Y) <= 1e-11


def test_loewner_exp():
    rng = rng_for(15, "l2")
    X, Y = random_hermitian(rng, 4), random_hermitian(rng, 4)
    assert loewner_residual(parse_symbol("exp(x)"), X, Y) <= 1e-8


def test_perturbation_slots_polynomial():
    rng = rng_for(16, "p1")
    F = parse_symbol("x**3")
    A, B = random_hermitian(rng, 4), random_hermitian(rng, 4)
    anchors = [random_hermitian(rng, 4)]
    args = list(random_args(rng, 4, 1))
    for slot in (0, 1):
        assert perturbation_residual(F, slot, A, B, anchors, args) <= 1e-11


def test_perturbation_equal_anchors_zero():
    rng = rng_for(17, "p2")
    F = parse_symbol("x**4")
    A = random_hermitian(rng, 4)
    anchors = [random_hermitian(rng, 4)]
    args = list(random_args(rng, 4, 1))
    assert perturbation_residual(F, 0, A, A, anchors, args) == 0.0


def test_perturbation_order_zero_is_loewner():
    rng = rng_for(18, "p3")
    F = parse_symbol("x**3")
    A, B = random_hermitian(rng, 5), random_hermitian(rng, 5)
    assert perturbation_residual(F, 0, A, B, [], []) == pytest.approx(
        loewner_residual(F, A, B), abs=1e-13)


def test_perturbation_second_order():
    rng = rng_for(19, "p4")
    F = parse_symbol("x**4")
    A, B = random_hermitian(rng, 4), random_hermitian(rng, 4)
    anchors = [random_hermitian(rng, 4), random_hermitian(rng, 4)]
    args = list(random_args(rng, 4, 2))
    for slot in (0, 1, 2):
        assert perturbation_residual(F, slot, A, B, anchors, args) <= 1e-11


# --- Lipschitz ratios ------------------------------------------------------

def test_lipschitz_ratio_identity():
    rng = rng_for(20, "lr")
    X, Y = random_hermitian(rng, 5), random_hermitian(rng, 5)
    decs = [eig_hermitian(X), eig_hermitian(Y)]
    for p in (1, 2, math.inf):
        assert lipschitz_ratio(parse_symbol("x"), X, Y, p, decompositions=decs) == pytest.approx(1.0, rel=1e-10)


def test_lipschitz_ratio_commuting_abs():
    X = HermitianOperator(np.diag([0.5, -1.5, 2.0]))
    Y = HermitianOperator(np.diag([-0.25, 1.0, 0.5]))
    r = lipschitz_ratio(parse_symbol("abs(x)"), X, Y, 1, decompositions=[eig_hermitian(X), eig_hermitian(Y)])
    assert r <= 1.0 + 1e-10


def test_lipschitz_ratio_p2_bound():
    rng = rng_for(21, "lr2")
    X, Y = random_hermitian(rng, 6), random_hermitian(rng, 6)
    lam = np.concatenate([np.linalg.eigvalsh(X.data), np.linalg.eigvalsh(Y.data)])
    window = (lam.min() - 0.1, lam.max() + 0.1)
    sup = 2 * max(abs(window[0]), abs(window[1]))  # sup |2x| for F = x^2
    decs = [eig_hermitian(X), eig_hermitian(Y)]
    assert lipschitz_ratio(parse_symbol("x**2"), X, Y, 2, decompositions=decs) <= sup * (1 + 1e-8)


def test_lipschitz_ratio_degenerate():
    h = random_hermitian(rng_for(22, "lrd"), 3)
    with pytest.raises(DegenerateInput):
        lipschitz_ratio(parse_symbol("x"), h, h, decompositions=[eig_hermitian(h)] * 2)


# --- homomorphism commutation ----------------------------------------------

def test_homomorphism_identity():
    rng = rng_for(23, "h0")
    ops = MOIOperands((random_hermitian(rng, 4), random_hermitian(rng, 4)),
                      random_args(rng, 4, 1))
    assert homomorphism_commutation_residual(parse_symbol("x**2"), np.eye(4), ops) <= 1e-13


def test_homomorphism_permutation_diagonal():
    perm = np.eye(4)[[2, 0, 3, 1]]
    h = HermitianOperator(np.diag([0.1, 0.5, 1.0, 2.0]))
    rng = rng_for(24, "hp")
    ops = MOIOperands((h, h), random_args(rng, 4, 1))
    assert homomorphism_commutation_residual(parse_symbol("exp(x)"), perm, ops) <= 1e-12


def test_homomorphism_haar_second_order():
    rng = rng_for(25, "hh")
    ops = MOIOperands(tuple(random_hermitian(rng, 5) for _ in range(3)),
                      random_args(rng, 5, 2))
    w = haar_unitary(rng, 5)
    assert homomorphism_commutation_residual(parse_symbol("x**3"), w, ops) <= 1e-10


def test_homomorphism_rejects_non_unitary():
    rng = rng_for(26, "hn")
    ops = MOIOperands((random_hermitian(rng, 3), random_hermitian(rng, 3)),
                      random_args(rng, 3, 1))
    with pytest.raises(NonUnitary):
        homomorphism_commutation_residual(parse_symbol("x"), np.diag([1.0, 2.0, 1.0]), ops)
