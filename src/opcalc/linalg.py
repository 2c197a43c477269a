"""Dense Hermitian linear algebra, complex or real symmetric.

Eigendecomposition, functional calculus and Schatten norms under the
normalized trace tr/n, the trace of the noncommutative torus (its unit has
norm 1 at every lattice size).  The spectral kernel takes stacks:
``HermitianOperator``, ``eig_hermitian`` and ``func_calc`` accept one (n, n)
matrix or a (..., n, n) stack, so a whole Picard sweep is one batched
functional calculus.  Real input stays real (float64), so a real symmetric
matrix is diagonalized by LAPACK's real solver.  ``schatten_norm`` takes one
matrix; ``schatten_norm_batch`` takes a stack.  Both read the singular values
from an SVD.  ``hilbert_schmidt_norm`` is the p = 2 norm of one matrix read
from its entries (the Frobenius norm over sqrt(n)), with no SVD;
``hilbert_schmidt_norm_batch`` gives it for each matrix of a stack.
``hermitian_schatten_norm_batch`` takes a stack whose members
pass the Hermitian deviation test (``hermitian_members``) and reads the
singular values as the absolute eigenvalues (``eigvalsh``), which is cheaper.
Every V diag(f(lambda)) V* is built by ``spectral_product``;
``func_calc_first_column`` builds only column 0 of F(H).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput, SymbolDomainError, SymbolNotFinite

HERMITIAN_RTOL = 1e-12


def _as_square(data, stack: bool = False) -> np.ndarray:
    """One square matrix, or a (..., n, n) stack of them if ``stack``: complex
    input as complex128, real input as float64, so that a real symmetric
    stack reaches LAPACK's real solvers."""
    a = np.asarray(data)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def _frobenius(a: np.ndarray):
    """Frobenius norm of one matrix, or of each matrix of a stack."""
    if a.ndim == 2:
        return np.linalg.norm(a)
    r = np.ascontiguousarray(a).view(np.float64)  # a complex entry reads as its (re, im) pair
    return np.sqrt(np.einsum("...ij,...ij->...", r, r))


def _hermitian_defects(a: np.ndarray, adj: np.ndarray):
    """(bad, dev, scale) per matrix: dev is the Frobenius deviation of a from
    its adjoint adj, and bad marks dev above HERMITIAN_RTOL relative to scale."""
    dev = _frobenius(a - adj)
    scale = _frobenius(a)
    return (dev > HERMITIAN_RTOL * scale) & (dev > 1e-300), dev, scale


def _require_hermitian(a: np.ndarray, adj: np.ndarray) -> None:
    """NonHermitianInput unless every matrix of a passes the deviation test."""
    bad, dev, scale = _hermitian_defects(a, adj)
    if bad.any():
        rel = dev / np.maximum(scale, 1e-300)
        raise NonHermitianInput(
            f"relative Hermitian deviation {np.max(rel, where=bad, initial=0.0):.3e} "
            f"exceeds {HERMITIAN_RTOL:.0e}"
        )


def hermitian_members(stack: np.ndarray) -> np.ndarray:
    """Which matrices of a (..., n, n) stack pass the deviation test of
    ``HermitianOperator``."""
    a = _as_square(stack, stack=True)
    return ~_hermitian_defects(a, a.swapaxes(-1, -2).conj())[0]


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix, or (..., n, n) stack of them.

    Each matrix is tested on its own relative Frobenius deviation from its
    adjoint and stored symmetrized.
    """

    data: np.ndarray

    def __post_init__(self):
        a = _as_square(self.data, stack=True)
        adj = a.swapaxes(-1, -2).conj()
        _require_hermitian(a, adj)
        object.__setattr__(self, "data", 0.5 * (a + adj))

    @property
    def n(self) -> int:
        return self.data.shape[-1]

    @classmethod
    def _symmetrized(cls, data: np.ndarray) -> "HermitianOperator":
        """Operator for a result that is Hermitian by construction: stored
        symmetrized as the constructor stores it, without the deviation test."""
        op = object.__new__(cls)
        object.__setattr__(op, "data", 0.5 * (data + data.swapaxes(-1, -2).conj()))
        return op


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues ascending; eigenvector columns unitary."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return spectral_product(self.eigenvectors, self.eigenvalues)

    def apply(self, fn) -> np.ndarray:
        """V diag(fn(lambda)) V* for a scalar callable fn; no Hermitian claim."""
        vals = np.asarray(fn(self.eigenvalues), dtype=np.complex128)
        _check_finite(vals)
        return spectral_product(self.eigenvectors, vals)


def spectral_product(v: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """V diag(vals) V* for eigenvector columns V (n, n) and values (n,), or
    for (..., n, n) and (..., n) stacks of them."""
    return (v * vals[..., None, :]) @ v.swapaxes(-1, -2).conj()


def _check_finite(vals: np.ndarray) -> None:
    if not np.all(np.isfinite(vals)):
        raise SymbolNotFinite("symbol undefined (non-finite) at an eigenvalue")


def _symbol_values(F, spectra) -> np.ndarray:
    """F on spectra (one along the last axis): SymbolNotFinite if a value is
    not finite, SymbolDomainError if a spectrum's values have an imaginary
    part above 1e-12 max(1, max |F|); else their real parts."""
    vals = np.asarray(F(spectra))
    _check_finite(vals)
    if np.iscomplexobj(vals):
        scale = np.maximum(1.0, np.max(np.abs(vals), axis=-1))
        if (np.max(np.abs(vals.imag), axis=-1) > 1e-12 * scale).any():
            raise SymbolDomainError("symbol is not real-valued on the spectrum")
        vals = vals.real
    return vals


def _p_value(p) -> float:
    p = float(p)
    if not p >= 1:
        raise ValueError(f"Schatten exponent must satisfy p >= 1, got {p}")
    return p


def eig_hermitian(H: HermitianOperator) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending.

    A stack gives (..., n) eigenvalues and (..., n, n) eigenvectors.
    """
    if not isinstance(H, HermitianOperator):
        H = HermitianOperator(H)
    w, v = np.linalg.eigh(H.data)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def _checked_schatten_args(a: np.ndarray, p) -> float:
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return _p_value(p)


def _norm_from_sigma(sigma: np.ndarray, pv: float) -> np.ndarray:
    """Normalized-trace Schatten norm from the singular values along the last
    axis, in any order.

    They come from an SVD, or, for a Hermitian stack, as the absolute
    eigenvalues.
    """
    largest = np.max(sigma, axis=-1)
    if math.isinf(pv):
        return largest
    w = 1.0 / sigma.shape[-1]
    # scale out the largest singular value to avoid overflow at large p
    top = np.maximum(largest, 1e-300)[..., None]
    out = top[..., 0] * (np.sum((sigma / top) ** pv, axis=-1) * w) ** (1.0 / pv)
    return np.where(largest == 0.0, 0.0, out)


def schatten_norm(A, p) -> float:
    """(sum_i sigma_i^p / n)^(1/p), the Schatten norm of the normalized trace.

    p = inf returns the largest singular value (no weight).
    """
    a = _as_square(A)
    pv = _checked_schatten_args(a, p)
    return float(_norm_from_sigma(np.linalg.svd(a, compute_uv=False), pv))


def hilbert_schmidt_norm(A) -> float:
    """||A||_F / sqrt(n): the Schatten-2 norm of the normalized trace,
    (tr(A* A) / n)^(1/2), read from the entries without an SVD."""
    return float(hilbert_schmidt_norm_batch(_as_square(A)))


def hilbert_schmidt_norm_batch(stack: np.ndarray) -> np.ndarray:
    """hilbert_schmidt_norm of each matrix of a (..., n, n) stack.

    The entries are checked once for the stack; each Frobenius norm is one
    ``np.linalg.norm`` of its own matrix, whose rounding a stacked reduction
    would not keep.
    """
    a = _as_square(stack, stack=True)
    _checked_schatten_args(a, 2)
    n = a.shape[-1]
    return np.reshape([np.linalg.norm(m) for m in a.reshape((-1, n, n))], a.shape[:-2]) / math.sqrt(n)


def schatten_norm_batch(stack: np.ndarray, p) -> np.ndarray:
    """schatten_norm of each matrix of a (..., n, n) stack (of one matrix: a
    0-d array), from one stacked SVD."""
    stack = _as_square(stack, stack=True)
    pv = _checked_schatten_args(stack, p)
    return _norm_from_sigma(np.linalg.svd(stack, compute_uv=False), pv)


def hermitian_schatten_norm_batch(stack: np.ndarray, p) -> np.ndarray:
    """schatten_norm_batch for a stack of Hermitian matrices: the singular
    values are the absolute eigenvalues, so ``eigvalsh`` replaces the SVD.

    The caller vouches for Hermiticity (``hermitian_members``); only the lower
    triangle of each matrix is read.
    """
    stack = _as_square(stack, stack=True)
    pv = _checked_schatten_args(stack, p)
    return _norm_from_sigma(np.abs(np.linalg.eigvalsh(stack)), pv)


def func_calc(H: HermitianOperator, F) -> HermitianOperator:
    """Borel functional calculus F(H) for a real-valued symbol F.

    F may be a SmoothSymbol or any vectorized callable.  On a stack, F is
    evaluated once on all eigenvalues and each matrix is tested on its own
    spectrum.
    """
    if not isinstance(H, HermitianOperator):
        H = HermitianOperator(H)
    return decomposed_func_calc(eig_hermitian(H), F)


def decomposed_func_calc(dec: SpectralDecomposition, F) -> HermitianOperator:
    """``func_calc`` of the operator whose eigendecomposition is dec, for a
    caller that needs the decomposition for more than F(H)."""
    vals = _symbol_values(F, dec.eigenvalues)
    # V diag(F(lambda)) V* with unitary V is Hermitian up to rounding
    return HermitianOperator._symmetrized(spectral_product(dec.eigenvectors, vals))


def func_calc_first_column(H: HermitianOperator, F) -> np.ndarray:
    """Column 0 of ``func_calc(H, F)`` (of each matrix of a stack) without
    building F(H): V (F(lambda) * conj(V[0, :])), with the same Hermitian
    test and symbol errors."""
    if not isinstance(H, HermitianOperator):
        H = HermitianOperator(H)
    dec = eig_hermitian(H)
    v = dec.eigenvectors
    vals = _symbol_values(F, dec.eigenvalues)
    return (v @ (vals * v[..., 0, :].conj())[..., None])[..., 0]


def diagonal_func_calc(spectra: np.ndarray, F) -> np.ndarray:
    """``func_calc`` of the diagonal matrices diag(v) of a (..., n) stack of
    diagonals v without eigendecompositions: the same tests (the deviation of
    diag(v) is 2 ||Im v||) and errors.  Returns the real values F(Re v)."""
    v = np.asarray(spectra, dtype=np.complex128)[..., None]
    _require_hermitian(v, v.conj())
    return _symbol_values(F, v[..., 0].real)


def random_hermitian(rng: np.random.Generator, n: int) -> HermitianOperator:
    """Seeded GUE-style Hermitian matrix with operator norm about 1.  It is
    Hermitian in floating point too: entry (j, i) of g + g* is the conjugate
    of entry (i, j), and the real scale keeps that, so no deviation test."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianOperator._symmetrized((g + g.conj().T) / (2.0 * math.sqrt(n)))


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-like unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
