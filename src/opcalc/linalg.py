"""Dense complex Hermitian linear algebra.

Eigendecomposition, functional calculus and Schatten norms under either the
normalized trace (tr/n, the fuzzy-torus convention) or the counting trace.
The spectral kernel takes stacks: ``HermitianOperator``, ``eig_hermitian``
and ``func_calc`` accept one (n, n) matrix or a (..., n, n) stack, so a whole
Picard sweep is one batched functional calculus.  ``schatten_norm`` takes one
matrix; ``schatten_norm_batch`` takes a stack.  Both read the singular values
from an SVD.  ``hermitian_schatten_norm_batch`` takes a stack whose members
pass the Hermitian deviation test (``hermitian_members``) and reads the
singular values as the absolute eigenvalues (``eigvalsh``), which is cheaper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput, SymbolDomainError

HERMITIAN_RTOL = 1e-12

_TRACE_MODES = ("normalized", "counting")


def _as_square(data, stack: bool = False) -> np.ndarray:
    """One square complex matrix, or a (..., n, n) stack of them if ``stack``."""
    a = np.asarray(data, dtype=np.complex128)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def _frobenius(a: np.ndarray):
    """Frobenius norm of one matrix, or of each matrix of a stack."""
    if a.ndim == 2:
        return np.linalg.norm(a)
    r = np.ascontiguousarray(a).view(np.float64)  # (re, im) pairs along the last axis
    return np.sqrt(np.einsum("...ij,...ij->...", r, r))


def _hermitian_defects(a: np.ndarray, adj: np.ndarray):
    """(bad, dev, scale) per matrix: dev is the Frobenius deviation of a from
    its adjoint adj, and bad marks dev above HERMITIAN_RTOL relative to scale."""
    dev = _frobenius(a - adj)
    scale = _frobenius(a)
    return (dev > HERMITIAN_RTOL * scale) & (dev > 1e-300), dev, scale


def hermitian_members(stack: np.ndarray) -> np.ndarray:
    """Which matrices of a (..., n, n) stack pass the deviation test of
    ``HermitianOperator``."""
    a = _as_square(stack, stack=True)
    return ~_hermitian_defects(a, a.swapaxes(-1, -2).conj())[0]


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix, or (..., n, n) stack of them, plus the trace
    convention used for its norms.

    Each matrix is tested on its own relative Frobenius deviation from its
    adjoint and stored symmetrized.
    """

    data: np.ndarray
    trace_mode: str = "normalized"

    def __post_init__(self):
        a = _as_square(self.data, stack=True)
        if self.trace_mode not in _TRACE_MODES:
            raise ValueError(f"trace_mode must be one of {_TRACE_MODES}")
        adj = a.swapaxes(-1, -2).conj()
        bad, dev, scale = _hermitian_defects(a, adj)
        if bad.any():
            rel = dev / np.maximum(scale, 1e-300)
            raise NonHermitianInput(
                f"relative Hermitian deviation {np.max(rel, where=bad, initial=0.0):.3e} "
                f"exceeds {HERMITIAN_RTOL:.0e}"
            )
        object.__setattr__(self, "data", 0.5 * (a + adj))

    @property
    def n(self) -> int:
        return self.data.shape[-1]

    @classmethod
    def _symmetrized(cls, data: np.ndarray, trace_mode: str) -> "HermitianOperator":
        """Operator for a result that is Hermitian by construction: stored
        symmetrized as the constructor stores it, without the deviation test."""
        op = object.__new__(cls)
        object.__setattr__(op, "data", 0.5 * (data + data.swapaxes(-1, -2).conj()))
        object.__setattr__(op, "trace_mode", trace_mode)
        return op

    def norm(self, p) -> float:
        return schatten_norm(self.data, p, self.trace_mode)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues ascending; eigenvector columns unitary."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def apply(self, fn) -> np.ndarray:
        """V diag(fn(lambda)) V* for a scalar callable fn; no Hermitian claim."""
        vals = np.asarray(fn(self.eigenvalues), dtype=np.complex128)
        if not np.all(np.isfinite(vals)):
            raise SymbolDomainError("symbol undefined (non-finite) at an eigenvalue")
        v = self.eigenvectors
        return (v * vals) @ v.conj().T


@dataclass(frozen=True)
class SchattenIndex:
    """Exponent p in [1, inf]; math.inf is a valid value."""

    p: float

    def __post_init__(self):
        if not (self.p >= 1):
            raise ValueError(f"Schatten exponent must satisfy p >= 1, got {self.p}")

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.p)

    @property
    def reciprocal(self) -> float:
        return 0.0 if self.is_inf else 1.0 / self.p


def _p_value(p) -> float:
    if isinstance(p, SchattenIndex):
        return p.p
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


def _checked_schatten_args(a: np.ndarray, p, trace_mode: str) -> float:
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if trace_mode not in _TRACE_MODES:
        raise ValueError(f"trace_mode must be one of {_TRACE_MODES}")
    return _p_value(p)


def _norm_from_sigma(sigma: np.ndarray, pv: float, trace_mode: str) -> np.ndarray:
    """Schatten norm from the singular values along the last axis, in any order.

    They come from an SVD, or, for a Hermitian stack, as the absolute
    eigenvalues.
    """
    largest = np.max(sigma, axis=-1)
    if math.isinf(pv):
        return largest
    w = 1.0 / sigma.shape[-1] if trace_mode == "normalized" else 1.0
    # scale out the largest singular value to avoid overflow at large p
    top = np.maximum(largest, 1e-300)[..., None]
    out = top[..., 0] * (np.sum((sigma / top) ** pv, axis=-1) * w) ** (1.0 / pv)
    return np.where(largest == 0.0, 0.0, out)


def schatten_norm(A, p, trace_mode: str = "normalized") -> float:
    """(sum_i sigma_i^p * w)^(1/p), w = 1/n for the normalized trace.

    p = inf returns the largest singular value (no weight).
    """
    a = _as_square(A)
    pv = _checked_schatten_args(a, p, trace_mode)
    return float(_norm_from_sigma(np.linalg.svd(a, compute_uv=False), pv, trace_mode))


def schatten_norm_batch(stack: np.ndarray, p, trace_mode: str = "normalized") -> np.ndarray:
    """schatten_norm over the leading axis of a (m, n, n) stack."""
    pv = _checked_schatten_args(stack, p, trace_mode)
    return _norm_from_sigma(np.linalg.svd(stack, compute_uv=False), pv, trace_mode)


def hermitian_schatten_norm_batch(stack: np.ndarray, p, trace_mode: str = "normalized") -> np.ndarray:
    """schatten_norm_batch for a stack of Hermitian matrices: the singular
    values are the absolute eigenvalues, so ``eigvalsh`` replaces the SVD.

    The caller vouches for Hermiticity (``hermitian_members``); only the lower
    triangle of each matrix is read.
    """
    pv = _checked_schatten_args(stack, p, trace_mode)
    return _norm_from_sigma(np.abs(np.linalg.eigvalsh(stack)), pv, trace_mode)


def func_calc(H: HermitianOperator, F) -> HermitianOperator:
    """Borel functional calculus F(H) for a real-valued symbol F.

    F may be a SmoothSymbol or any vectorized callable.  On a stack, F is
    evaluated once on all eigenvalues and each matrix is tested on its own
    spectrum.
    """
    if not isinstance(H, HermitianOperator):
        H = HermitianOperator(H)
    fn = F if callable(F) else F.__call__
    dec = eig_hermitian(H)
    vals = np.asarray(fn(dec.eigenvalues))
    if not np.all(np.isfinite(vals)):
        raise SymbolDomainError("symbol undefined (non-finite) at an eigenvalue")
    if np.iscomplexobj(vals):
        scale = np.maximum(1.0, np.max(np.abs(vals), axis=-1))
        if (np.max(np.abs(vals.imag), axis=-1) > 1e-12 * scale).any():
            raise SymbolDomainError("symbol is not real-valued on the spectrum")
        vals = vals.real
    v = dec.eigenvectors
    # V diag(F(lambda)) V* with unitary V is Hermitian up to rounding
    return HermitianOperator._symmetrized((v * vals[..., None, :]) @ v.swapaxes(-1, -2).conj(),
                                          H.trace_mode)


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0,
                     trace_mode: str = "normalized") -> HermitianOperator:
    """Seeded GUE-style Hermitian matrix with operator norm about `scale`."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / (2.0 * math.sqrt(n))
    return HermitianOperator(scale * h, trace_mode=trace_mode)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-like unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
