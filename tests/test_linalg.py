import math
import re

import numpy as np
import pytest

from opcalc.errors import DimensionMismatch, NonHermitianInput, SymbolDomainError
from opcalc.expr import parse_symbol
from opcalc.linalg import (HermitianOperator, SchattenIndex, eig_hermitian, func_calc,
                           haar_unitary, hermitian_members, hermitian_schatten_norm_batch,
                           random_hermitian, schatten_norm,
                           schatten_norm_batch)
from opcalc.seeding import rng_for


def test_constructor_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_constructor_symmetrizes_tiny_asymmetry():
    a = np.eye(3) + 1e-15 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    h = HermitianOperator(a)
    assert np.allclose(h.data, h.data.conj().T)


def test_eig_diagonal_permutation():
    h = HermitianOperator(np.diag([3.0, 1.0, 2.0]))
    dec = eig_hermitian(h)
    assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0])


def test_eig_pauli_x():
    dec = eig_hermitian(HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])


def test_eig_reconstruction_residual():
    h = random_hermitian(rng_for(0, "eig"), 8)
    dec = eig_hermitian(h)
    rel = np.linalg.norm(dec.reconstruct() - h.data) / np.linalg.norm(h.data)
    assert rel <= 1e-11
    assert np.linalg.norm(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(8)) <= 1e-11


def test_schatten_identity_normalized():
    for p in (1, 2, 3.5, math.inf):
        assert schatten_norm(np.eye(5), p, "normalized") == pytest.approx(1.0)


def test_schatten_rank_one_projection_counting():
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    for p in (1, 2, math.inf):
        assert schatten_norm(proj, p, "counting") == pytest.approx(1.0)


def test_schatten_hoelder_inequality():
    rng = rng_for(1, "hoelder")
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert schatten_norm(a @ b, 1) <= schatten_norm(a, 2) * schatten_norm(b, 2) * (1 + 1e-12)


def test_schatten_unitary_invariance():
    rng = rng_for(2, "unitary")
    a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    u, v = haar_unitary(rng, 7), haar_unitary(rng, 7)
    for p in (1, 2, 4, math.inf):
        n0 = schatten_norm(a, p)
        assert abs(schatten_norm(u @ a @ v, p) - n0) <= 1e-10 * n0


def test_schatten_two_norm_is_weighted_trace():
    rng = rng_for(3, "fro")
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    target = np.vdot(a, a).real / 5
    assert schatten_norm(a, 2, "normalized") ** 2 == pytest.approx(target, rel=1e-12)


def test_schatten_batch_matches_single():
    rng = rng_for(4, "batch")
    stack = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    stack[1] = 0.0
    for p in (1, 2, 3.5, math.inf):
        for mode in ("normalized", "counting"):
            got = schatten_norm_batch(stack, p, mode)
            assert got == pytest.approx([schatten_norm(a, p, mode) for a in stack], rel=1e-13)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_schatten_batch_rejects_non_finite(bad):
    stack = np.stack([np.eye(3), np.eye(3)]).astype(complex)
    stack[1, 0, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        schatten_norm_batch(stack, 1)


def test_schatten_batch_rejects_unknown_trace_mode():
    with pytest.raises(ValueError, match="trace_mode"):
        schatten_norm_batch(np.eye(3)[None], 1, "Normalised")
    assert schatten_norm_batch(np.eye(3)[None], 1, "normalized")[0] == pytest.approx(1.0)


def test_schatten_index_validation():
    with pytest.raises(ValueError):
        SchattenIndex(0.5)
    assert SchattenIndex(math.inf).is_inf


def test_func_calc_identity_and_square():
    h = random_hermitian(rng_for(4, "fc"), 6)
    assert np.allclose(func_calc(h, parse_symbol("x")).data, h.data, atol=1e-13)
    sq = func_calc(h, parse_symbol("x**2")).data
    assert np.linalg.norm(sq - h.data @ h.data) <= 1e-11 * np.linalg.norm(h.data @ h.data)


def test_func_calc_zero_at_zero():
    h = HermitianOperator(np.zeros((3, 3)))
    out = func_calc(h, parse_symbol("tanh(x)"))
    assert np.all(out.data == 0.0)


def test_func_calc_output_hermitian_and_commutes():
    h = random_hermitian(rng_for(5, "fc2"), 9)
    out = func_calc(h, parse_symbol("exp(x)"))
    assert np.max(np.abs(out.data - out.data.conj().T)) <= 1e-11 * np.linalg.norm(h.data)
    comm = out.data @ h.data - h.data @ out.data
    assert np.linalg.norm(comm) <= 1e-10 * np.linalg.norm(h.data)


def test_func_calc_rejects_domain_violation():
    h = HermitianOperator(np.diag([1.0, -1.0]))

    def bad(x):
        return np.where(x < 0, np.nan, x)

    with pytest.raises(SymbolDomainError):
        func_calc(h, bad)


@pytest.mark.parametrize("n", [3, 16, 64])
def test_stacked_kernel_matches_matrix_loop(n):
    # a stack gives, matrix by matrix, exactly the bits of one-matrix calls
    rng = rng_for(n, "stack")
    m = 5
    g = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    # Hermitian up to a rounding-sized asymmetry, so symmetrization acts
    stack = 0.5 * (g + g.swapaxes(-1, -2).conj()) + 1e-15 * rng.standard_normal((m, n, n))
    F = parse_symbol("tanh(x)")
    H = HermitianOperator(stack)
    dec = eig_hermitian(H)
    fh = func_calc(H, F)
    assert H.n == n and fh.data.shape == (m, n, n)
    for i in range(m):
        Hi = HermitianOperator(stack[i])
        deci = eig_hermitian(Hi)
        assert np.array_equal(H.data[i], Hi.data)
        assert np.array_equal(dec.eigenvalues[i], deci.eigenvalues)
        assert np.array_equal(dec.eigenvectors[i], deci.eigenvectors)
        assert np.array_equal(fh.data[i], func_calc(Hi, F).data)


def test_stack_with_non_hermitian_member_raises():
    stack = np.stack([np.eye(3)] * 4).astype(complex)
    stack[1, 0, 2] = 0.5
    stack[3, 1, 0] = 2.0
    worst = max(np.linalg.norm(a - a.conj().T) / np.linalg.norm(a) for a in stack)
    with pytest.raises(NonHermitianInput, match=re.escape(f"{worst:.3e}")):
        HermitianOperator(stack)
    with pytest.raises(NonHermitianInput):
        func_calc(stack, parse_symbol("tanh(x)"))
    HermitianOperator(stack[[0, 2]])  # the Hermitian members alone pass


def test_func_calc_stack_domain_checked_per_matrix():
    stack = np.stack([np.eye(2), -np.eye(2)]).astype(complex)
    with pytest.raises(SymbolDomainError):
        func_calc(stack, lambda x: np.sqrt(x.astype(complex)))  # imaginary on the second


def test_schatten_norm_rejects_stack():
    with pytest.raises(DimensionMismatch):
        schatten_norm(np.stack([np.eye(3)] * 2), 2)


@pytest.mark.parametrize("mode", ["normalized", "counting"])
@pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
def test_hermitian_norms_match_svd(p, mode):
    rng = rng_for(7, "herm-norm")
    stack = np.stack([random_hermitian(rng, 16, scale=s).data for s in (1.0, 1e-3, 40.0)]
                     + [np.zeros((16, 16), complex)])
    assert hermitian_members(stack).all()
    got = hermitian_schatten_norm_batch(stack, p, mode)
    ref = schatten_norm_batch(stack, p, mode)
    assert got[-1] == ref[-1] == 0.0
    assert got == pytest.approx(ref, rel=1e-13)


def test_hermitian_members_is_the_constructor_test():
    stack = np.stack([np.eye(3)] * 3).astype(complex)
    stack[1, 0, 2] = 1e-13  # rounding-sized: passes, as the constructor lets it
    stack[2, 0, 2] = 1e-6
    assert hermitian_members(stack).tolist() == [True, True, False]
    HermitianOperator(stack[:2])
    with pytest.raises(NonHermitianInput):
        HermitianOperator(stack[2])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hermitian_norms_reject_non_finite(bad):
    stack = np.stack([np.eye(3), np.eye(3)]).astype(complex)
    stack[1, 2, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        hermitian_schatten_norm_batch(stack, 1)


def test_decomposition_apply():
    h = random_hermitian(rng_for(8, "apply"), 6)
    dec = eig_hermitian(h)
    v = dec.eigenvectors
    assert np.array_equal(dec.apply(lambda lam: np.exp(0.3j * lam)),
                          (v * np.exp(0.3j * dec.eigenvalues)) @ v.conj().T)
    assert np.max(np.abs(dec.apply(lambda lam: lam) - h.data)) <= 1e-14
    with pytest.raises(SymbolDomainError), np.errstate(divide="ignore"):
        dec.apply(lambda lam: 1.0 / (lam - lam[0]))
