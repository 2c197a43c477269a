import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import opcalc.linalg as la
from opcalc.errors import DimensionMismatch, NonHermitianInput, SymbolDomainError, SymbolNotFinite
from opcalc.experiments import _stack
from opcalc.expr import parse_symbol
from opcalc.linalg import (HermitianOperator, eig_hermitian, func_calc,
                           haar_unitary, hermitian_members, hermitian_schatten_norm_batch,
                           hilbert_schmidt_norm, hilbert_schmidt_norm_batch,
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
        assert schatten_norm(np.eye(5), p) == pytest.approx(1.0)


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
    assert schatten_norm(a, 2) ** 2 == pytest.approx(target, rel=1e-12)


def test_schatten_batch_matches_single():
    rng = rng_for(4, "batch")
    stack = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    stack[1] = 0.0
    for p in (1, 2, 3.5, math.inf):
        got = schatten_norm_batch(stack, p)
        assert got == pytest.approx([schatten_norm(a, p) for a in stack], rel=1e-13)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_schatten_batch_rejects_non_finite(bad):
    stack = np.stack([np.eye(3), np.eye(3)]).astype(complex)
    stack[1, 0, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        schatten_norm_batch(stack, 1)


def test_schatten_batch_of_identity_is_one():
    assert schatten_norm_batch(np.eye(3)[None], 1)[0] == pytest.approx(1.0)


def test_schatten_batches_reject_non_square():
    for norm in (schatten_norm_batch, hermitian_schatten_norm_batch):
        with pytest.raises(DimensionMismatch):
            norm(np.ones((2, 3, 4), complex), 2)


def test_hilbert_schmidt_norm_batch_equals_single_calls():
    rng = rng_for(10, "hs-batch")
    stack = rng.standard_normal((2, 3, 6, 6)) + 1j * rng.standard_normal((2, 3, 6, 6))
    got = hilbert_schmidt_norm_batch(stack)
    assert got.shape == (2, 3)
    assert got.tolist() == [[hilbert_schmidt_norm(a) for a in row] for row in stack]
    stack[1, 2, 0, 0] = np.inf
    with pytest.raises(ValueError):
        hilbert_schmidt_norm_batch(stack)


def test_hilbert_schmidt_norm_is_schatten_2():
    rng = rng_for(9, "hs")
    for n in (1, 5, 16):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert hilbert_schmidt_norm(a) == pytest.approx(schatten_norm(a, 2), rel=1e-14)
    assert hilbert_schmidt_norm(np.eye(4)) == 1.0
    assert hilbert_schmidt_norm(np.zeros((3, 3))) == 0.0
    with pytest.raises(ValueError):
        hilbert_schmidt_norm(np.full((2, 2), np.nan))
    with pytest.raises(DimensionMismatch):
        hilbert_schmidt_norm(np.ones((2, 2, 2)))


def test_schatten_index_validation():
    with pytest.raises(ValueError):
        schatten_norm(np.eye(3), 0.5)
    assert schatten_norm(np.eye(3), math.inf) == 1.0


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

    with pytest.raises(SymbolNotFinite):
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


@pytest.mark.parametrize("n", [3, 16, 64])
def test_real_symmetric_stack_stays_real(n):
    # a float64 symmetric stack is decomposed by the real solver and gives
    # the complex route's F(H) to rounding; complex input stays complex even
    # when its imaginary part is zero
    rng = rng_for(n, "real")
    g = rng.standard_normal((4, n, n))
    stack = (g + g.swapaxes(-1, -2)) / (2.0 * math.sqrt(n))
    F = parse_symbol("tanh(x)")
    H = HermitianOperator(stack)
    dec = eig_hermitian(H)
    fh = func_calc(H, F)
    assert H.data.dtype == dec.eigenvectors.dtype == fh.data.dtype == np.float64
    fc = func_calc(stack.astype(complex), F).data
    assert fc.dtype == np.complex128
    assert np.max(np.abs(fh.data - fc)) <= 1e-13
    assert HermitianOperator(np.eye(n, dtype=int)).data.dtype == np.float64


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
    with pytest.raises(SymbolDomainError) as err:
        func_calc(stack, lambda x: np.sqrt(x.astype(complex)))  # imaginary on the second
    assert not isinstance(err.value, SymbolNotFinite)


def test_schatten_norm_rejects_stack():
    with pytest.raises(DimensionMismatch):
        schatten_norm(np.stack([np.eye(3)] * 2), 2)


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
def test_hermitian_norms_match_svd(p):
    rng = rng_for(7, "herm-norm")
    stack = np.stack([s * random_hermitian(rng, 16).data for s in (1.0, 1e-3, 40.0)]
                     + [np.zeros((16, 16), complex)])
    assert hermitian_members(stack).all()
    got = hermitian_schatten_norm_batch(stack, p)
    ref = schatten_norm_batch(stack, p)
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


SPECTRAL_KERNELS = {"eigh", "eigvalsh", "eig", "eigvals", "svd"}


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def _spectral_uses(tree):
    """Sorted (line, what) for each reference to a numpy spectral kernel and
    each spectral matrix norm (ord 2, -2 or 'nuc') in a module's syntax tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in SPECTRAL_KERNELS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            found += [(node.lineno, a.name) for a in node.names if a.name in SPECTRAL_KERNELS]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", "")) == "norm":
            ords = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
            found += [(node.lineno, f"norm(., {_literal(o)!r})") for o in ords if _literal(o) in (2, -2, "nuc")]
    return sorted(found)


def test_spectral_kernels_are_called_only_from_linalg():
    # the per-layer eigh/SVD counts see only what goes through linalg's kernels
    modules = [path for path in (Path(__file__).resolve().parent.parent / "src" / "opcalc").glob("*.py")
               if path.name != "linalg.py"]
    assert any(path.name == "experiments.py" for path in modules)
    found = [f"{path.name}:{line} {what}" for path in sorted(modules)
             for line, what in _spectral_uses(ast.parse(path.read_text()))]
    assert found == []
    probe = "np.linalg.eigvalsh(a)\nfrom numpy.linalg import svd\nnp.linalg.norm(a, 2)\nnorm(a, ord=-2)\nnorm(a)\n"
    assert [what for _line, what in _spectral_uses(ast.parse(probe))] == [
        "eigvalsh", "svd", "norm(., 2)", "norm(., -2)"]


@pytest.mark.parametrize("n", [1, 2, 6, 8, 16])
def test_random_hermitian_and_ensemble_stacks_equal_the_validating_constructor(n, monkeypatch):
    # (g + g*) / (2 sqrt n) is Hermitian in floating point, and so is every
    # stored operator, so skipping the deviation test changes no bit
    expect, members = [], []
    for seed in range(5):
        rng = rng_for(seed, "exact-hermitian")
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expect.append(HermitianOperator((g + g.conj().T) / (2.0 * math.sqrt(n))).data)
    stacked = HermitianOperator(np.stack(expect)).data

    def no_test(a, adj):
        raise AssertionError("deviation test run")
    monkeypatch.setattr(la, "_require_hermitian", no_test)
    for seed in range(5):
        members.append(random_hermitian(rng_for(seed, "exact-hermitian"), n))
        assert np.array_equal(members[-1].data, expect[seed])
    assert np.array_equal(_stack(members).data, stacked)
