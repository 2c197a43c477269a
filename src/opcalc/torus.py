"""Finite-dimensional noncommutative torus testbed.

Band-limited Fourier elements over Z^d with a deformation phase.  Modes live
at representatives k in [-N/2, N/2)^d (numpy fft layout).  The matrix backend
(d = 2, theta_12 = p/N, gcd(p, N) = 1) realizes U^k as

    M(k) = e^{i pi theta k1 k2} C^{k1} S^{k2},   S C = e^{2 pi i theta} C S,

with clock C = diag(omega^{-a}) and cyclic shift S, omega = e^{2 pi i p / N}.
The symmetric Weyl phase makes (U^k)* = U^{-k}, so the Hermitian flag is a
pure coefficient condition (conjugate symmetry under wrap-aware negation).
Products obey U^k U^l = e^{-i pi <k, theta l>} U^{k+l}; when k+l leaves the
band, M(n + N m) = (-1)^{p(m1 n2 + m2 n1)} M(n) supplies the wrap sign (N
even).  At theta = 0 the faithful realization is the diagonal grid
representation on N^d points.  Both realizations are faithful, so the product
is computed in them: the matrix product of the clock/shift realizations at
theta != 0, the pointwise product of grid values at theta = 0.

Continuous translations act on coefficients but are automorphisms only when
no product wraps; hence the band discipline and the checked multiply mode,
which tests the supports of the factors for a wrapping mode pair before
multiplying.  Hermitian-flagged elements must avoid the asymmetric boundary
modes (component -N/2) whenever theta != 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BackendMismatch, BandOverflow, DimensionMismatch
from .linalg import hermitian_members, hermitian_schatten_norm_batch, schatten_norm_batch
from .symbols import LPFilterFamily

_BACKENDS = ("commutative", "matrix")


@dataclass(frozen=True, eq=False)
class TorusAlgebra:
    """Mode lattice parameters: dimension d, N modes per axis, deformation."""

    d: int = 2
    N: int = 16
    theta: object = None  # d x d antisymmetric array, or None for flat
    backend: str = "matrix"

    def __eq__(self, other):
        if not isinstance(other, TorusAlgebra):
            return NotImplemented
        return (self.d == other.d and self.N == other.N and self.backend == other.backend
                and np.array_equal(self.theta, other.theta))

    def __hash__(self):
        return hash((self.d, self.N, self.backend, self.theta.tobytes()))

    def __post_init__(self):
        if self.N < 2 or self.N % 2 != 0:
            raise ValueError("N must be even and >= 2")
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}")
        th = np.zeros((self.d, self.d)) if self.theta is None else np.asarray(self.theta, dtype=float)
        if th.shape != (self.d, self.d):
            raise DimensionMismatch(f"theta must be {self.d}x{self.d}")
        if np.max(np.abs(th + th.T)) > 1e-14:
            raise ValueError("theta must be antisymmetric to 1e-14")
        object.__setattr__(self, "theta", th)
        if self.backend == "commutative" and np.any(th != 0.0):
            raise BackendMismatch("commutative backend requires theta = 0")
        if np.any(th != 0.0):
            if self.d != 2:
                raise BackendMismatch("matrix backend with theta != 0 requires d = 2")
            p = th[0, 1] * self.N
            if abs(p - round(p)) > 1e-9:
                raise ValueError("matrix backend needs theta_12 = p/N for integer p")
            if math.gcd(int(round(p)) % self.N, self.N) != 1:
                raise ValueError("clock/shift representation needs gcd(p, N) = 1")

    @classmethod
    def make(cls, d: int = 2, N: int = 16, theta_num: int = 0, backend: str = "matrix"):
        """Convenience constructor with theta_12 = theta_num / N (d = 2)."""
        if theta_num == 0:
            return cls(d=d, N=N, theta=None, backend=backend)
        if d < 2:
            raise BackendMismatch("theta_num != 0 requires d >= 2")
        th = np.zeros((d, d))
        th[0, 1] = theta_num / N
        th[1, 0] = -theta_num / N
        return cls(d=d, N=N, theta=th, backend=backend)

    @functools.cached_property
    def is_flat(self) -> bool:
        return not np.any(self.theta != 0.0)

    @functools.cached_property
    def theta_num(self) -> int:
        return 0 if self.is_flat else int(round(self.theta[0, 1] * self.N))

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    # cached lattice geometry -------------------------------------------------
    @property
    def k_axis(self) -> np.ndarray:
        return _k_axis(self.N)

    @property
    def k_grids(self) -> tuple:
        return _k_grids(self.N, self.d)

    @property
    def abs_k(self) -> np.ndarray:
        return _abs_k(self.N, self.d)

    @property
    def lp_filters(self) -> np.ndarray:
        """Non-homogeneous Littlewood-Paley bank: phi_j(|k|) stacked over the
        blocks j that can be nonzero on this lattice (read-only)."""
        return _lp_filters(self.N, self.d)

    def basis(self) -> np.ndarray:
        """Mode matrices M(k) stacked as (N,)*d + (dim, dim), built entry by entry."""
        return _basis(self.N, self.d, self.theta_num)

    @property
    def matrix_dim(self) -> int:
        return self.N if not self.is_flat else self.N ** self.d


@functools.lru_cache(maxsize=None)
def _k_axis(N: int) -> np.ndarray:
    return np.rint(np.fft.fftfreq(N) * N).astype(int)


@functools.lru_cache(maxsize=None)
def _k_grids(N: int, d: int) -> tuple:
    return tuple(np.meshgrid(*([_k_axis(N)] * d), indexing="ij"))


@functools.lru_cache(maxsize=None)
def _abs_k(N: int, d: int) -> np.ndarray:
    return np.sqrt(sum(g.astype(float) ** 2 for g in _k_grids(N, d)))


@functools.lru_cache(maxsize=None)
def _lp_filters(N: int, d: int) -> np.ndarray:
    # phi_j = 0 where |k| <= 2^(j-1) for j >= 1, so every filter past the
    # last one kept here vanishes on the lattice
    abs_k = _abs_k(N, d)
    count = int(math.ceil(math.log2(max(float(np.max(abs_k)), 1.0)))) + 2
    lp = LPFilterFamily()
    bank = np.stack([lp.radial_profile(abs_k, j, homogeneous=False) for j in range(count)])
    bank.flags.writeable = False
    return bank


def _basis(N: int, d: int, p: int) -> np.ndarray:
    """Dense mode matrices: the reference realization.  Not cached, so a run
    that checks against it does not keep the basis resident afterwards."""
    if p != 0:
        if d != 2:
            raise BackendMismatch("clock/shift basis requires d = 2")
        if N > 48:
            raise MemoryError("mode-matrix basis built only up to N = 48")
        ks = _k_axis(N)
        omega = np.exp(2j * np.pi * p / N)
        a = np.arange(N)
        shift_masks = np.zeros((N, N, N))
        for i2 in range(N):
            shift_masks[i2] = (np.subtract.outer(a, a) % N == i2 % N).astype(float)
        clock_cols = omega ** (-np.outer(a, ks)).astype(float)  # [a, i1]
        theta = p / N
        b = np.empty((N, N, N, N), dtype=np.complex128)
        for i1 in range(N):
            for i2 in range(N):
                ph = np.exp(1j * np.pi * theta * ks[i1] * ks[i2])
                b[i1, i2] = ph * clock_cols[:, i1][:, None] * shift_masks[i2]
        return b
    # diagonal grid representation: M(k) = diag over grid of e^{2 pi i <k, l>/N}
    dim = N ** d
    grids = np.meshgrid(*([np.arange(N)] * d), indexing="ij")
    b = np.zeros((N,) * d + (dim, dim), dtype=np.complex128)
    ks = _k_axis(N)
    for idx in np.ndindex(*(N,) * d):
        phase = np.ones((N,) * d, dtype=np.complex128)
        for ax, i in enumerate(idx):
            phase = phase * np.exp(2j * np.pi * ks[i] * grids[ax] / N)
        np.fill_diagonal(b[idx], phase.ravel())
    return b


@dataclass(frozen=True)
class TorusElement:
    """Band-limited element: coefficient array in fft layout plus its algebra."""

    algebra: TorusAlgebra
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != self.algebra.shape:
            raise DimensionMismatch(f"coeffs shape {c.shape} != {self.algebra.shape}")
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other):
        _same_algebra(self, other)
        return TorusElement(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _same_algebra(self, other)
        return TorusElement(self.algebra, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return TorusElement(self.algebra, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return TorusElement(self.algebra, -self.coeffs)

    @property
    def trace(self) -> complex:
        return complex(self.coeffs[(0,) * self.algebra.d])

    def adjoint(self) -> "TorusElement":
        return TorusElement(self.algebra, _adjoint_coeffs(self.algebra, self.coeffs))

    def norm(self, p) -> float:
        return lp_norm(self, p)


def _same_algebra(x: TorusElement, y: TorusElement):
    if x.algebra != y.algebra:
        raise DimensionMismatch("elements live on different algebras")


def _negate_coeffs(c: np.ndarray) -> np.ndarray:
    """Coefficient array of k -> c(-k) with wrap-aware index negation."""
    out = c
    for ax in range(c.ndim):
        out = np.flip(np.roll(out, -1, axis=ax), axis=ax)
    return out


def _boundary_sign(algebra: TorusAlgebra) -> np.ndarray:
    """Wrap sign attached to mode negation: -k wraps when k_j = -N/2.

    (U^k)* = sign(k) U^{rep(-k)}; the sign is +1 except on the boundary
    hyperplanes of a deformed (p != 0, d = 2) algebra.
    """
    N, p = algebra.N, algebra.theta_num
    sign = np.ones(algebra.shape)
    if p == 0 or algebra.d != 2:
        return sign
    k1, k2 = algebra.k_grids
    b1 = k1 == -N // 2
    b2 = k2 == -N // 2
    only1 = b1 & ~b2
    only2 = b2 & ~b1
    sign[only1] = np.where((p * k2[only1]) % 2 == 0, 1.0, -1.0)
    sign[only2] = np.where((p * k1[only2]) % 2 == 0, 1.0, -1.0)
    # both components on the boundary: sign (-1)^{p(-N)} = +1 for even N
    return sign


def _adjoint_coeffs(algebra: TorusAlgebra, c: np.ndarray) -> np.ndarray:
    """Coefficients of x*: conj(c(k)) transported to rep(-k) with wrap sign."""
    return _negate_coeffs(np.conj(c) * _boundary_sign(algebra))


def unit_element(algebra: TorusAlgebra) -> TorusElement:
    c = np.zeros(algebra.shape, dtype=np.complex128)
    c[(0,) * algebra.d] = 1.0
    return TorusElement(algebra, c)


def mode_element(algebra: TorusAlgebra, k: Sequence[int], amplitude: complex = 1.0) -> TorusElement:
    c = np.zeros(algebra.shape, dtype=np.complex128)
    idx = tuple(int(ki) % algebra.N for ki in k)
    c[idx] = amplitude
    return TorusElement(algebra, c)


def is_hermitian(x: TorusElement, tol: float = 1e-12) -> bool:
    """Hermitian flag: coeffs(-k) = conj(coeffs(k)) under wrap-aware negation
    (the wrap across a boundary hyperplane carries the representation sign),
    equivalent to Hermiticity of the matrix realization."""
    return hermitian_deviation(x) <= tol


def hermitian_deviation(x: TorusElement) -> float:
    c = x.coeffs
    scale = max(float(np.max(np.abs(c))), 1e-300)
    return float(np.max(np.abs(_adjoint_coeffs(x.algebra, c) - c))) / scale


def hermitianize(x: TorusElement) -> TorusElement:
    return TorusElement(x.algebra, 0.5 * (x.coeffs + _adjoint_coeffs(x.algebra, x.coeffs)))


def random_element(algebra: TorusAlgebra, rng: np.random.Generator, band: Optional[int] = None,
                   hermitian: bool = True, decay: float = 1.0, scale: float = 1.0) -> TorusElement:
    """Seeded random band-limited element with power-law mode decay."""
    band_cap = algebra.N // 2 - 1
    band = band_cap if band is None else min(band, band_cap)
    c = np.zeros(algebra.shape, dtype=np.complex128)
    g = rng.standard_normal((2 * band + 1,) * algebra.d) + 1j * rng.standard_normal((2 * band + 1,) * algebra.d)
    ks = np.arange(-band, band + 1)
    grids = np.meshgrid(*([ks] * algebra.d), indexing="ij")
    absk = np.sqrt(sum(gr.astype(float) ** 2 for gr in grids))
    g = g / (1.0 + absk) ** decay
    idx = np.ix_(*([ks % algebra.N] * algebra.d))
    c[idx] = g
    x = TorusElement(algebra, scale * c)
    return hermitianize(x) if hermitian else x


# ---------------------------------------------------------------------------
# matrix realization
# ---------------------------------------------------------------------------

def _weyl_phase(algebra: TorusAlgebra) -> np.ndarray:
    """Symmetric ordering phase e^{i pi theta k1 k2} over the mode grid (read-only)."""
    return _weyl_table(algebra.N, algebra.theta[0, 1])


@functools.lru_cache(maxsize=None)
def _weyl_table(N: int, theta12) -> np.ndarray:
    k1, k2 = _k_grids(N, 2)
    phase = np.exp(1j * np.pi * theta12 * k1 * k2)
    phase.flags.writeable = False
    return phase


def to_matrix(x: TorusElement) -> np.ndarray:
    """Realize x as a matrix: clock/shift for theta != 0, grid-diagonal at 0."""
    return to_matrix_batch(x.algebra, x.coeffs[None, ...])[0]


def to_matrix_batch(algebra: TorusAlgebra, coeff_stack: np.ndarray) -> np.ndarray:
    """Stack of matrices for a (batch,) + algebra.shape coefficient stack.

    Clock/shift route: for each diagonal offset k2 the entries are a length-N
    DFT over k1 evaluated at frequency p*a mod N, so the whole realization is
    N FFTs (O(N^2 log N)) instead of the dense mode-matrix contraction,
    followed by one gather that places every entry.
    """
    if algebra.is_flat:
        vals = np.fft.ifftn(coeff_stack, axes=tuple(range(1, algebra.d + 1))) * (algebra.N ** algebra.d)
        flat = vals.reshape(coeff_stack.shape[0], -1)
        out = np.zeros((coeff_stack.shape[0], flat.shape[1], flat.shape[1]), dtype=np.complex128)
        ii = np.arange(flat.shape[1])
        out[:, ii, ii] = flat
        return out
    N, p = algebra.N, algebra.theta_num
    pre = coeff_stack * _weyl_phase(algebra)
    f = np.fft.fft(pre, axis=1)                     # over the k1 index
    return np.take(f.reshape(len(f), N * N), _entry_index(N, p), axis=1)


@functools.lru_cache(maxsize=None)
def _entry_index(N: int, p: int) -> np.ndarray:
    """Flat (k1, k2) index of matrix entry [a, c] in the FFT over k1 of a
    clock/shift realization: entry [a, c] lies on diagonal offset
    k2 = (a - c) % N at frequency p*a mod N (read-only)."""
    a = np.arange(N)
    index = ((p * a) % N)[:, None] * N + (a[:, None] - a[None, :]) % N
    index.flags.writeable = False
    return index


def from_matrix(algebra: TorusAlgebra, A: np.ndarray) -> TorusElement:
    """Coefficient recovery u(k) = trace(A (U^k)*) under the normalized trace."""
    A = np.asarray(A, dtype=np.complex128)
    dim = algebra.matrix_dim
    if A.shape != (dim, dim):
        raise DimensionMismatch(f"matrix shape {A.shape} != ({dim}, {dim})")
    return TorusElement(algebra, from_matrix_batch(algebra, A[None, ...])[0])


def from_matrix_batch(algebra: TorusAlgebra, stack: np.ndarray) -> np.ndarray:
    """(batch,) + algebra.shape coefficient stack of a (batch, dim, dim)
    matrix stack; the inverse of ``to_matrix_batch``.

    Clock/shift route: one gather reads each diagonal offset k2, and each is a
    length-N inverse DFT over k1, so recovery is N FFTs per matrix.
    """
    if algebra.is_flat:
        vals = np.diagonal(stack, axis1=-2, axis2=-1).reshape((len(stack),) + algebra.shape)
        return np.fft.fftn(vals, axes=tuple(range(1, algebra.d + 1))) / (algebra.N ** algebra.d)
    N, p = algebra.N, algebra.theta_num
    # at p = 1 the entry index reads matrix entry [a, (a - k2) % N] into [a, k2]
    diag = np.take(stack.reshape(len(stack), N * N), _entry_index(N, 1), axis=1)
    g = np.fft.ifft(diag, axis=1)                   # g[m] = pre[p^{-1} m mod N]
    return g[:, (p * np.arange(N)) % N, :] * np.conj(_weyl_phase(algebra))


# Largest realization, in matrix entries, that a stacked route builds at once:
# chunks of this size keep the peak memory of a stacked functional calculus
# at that of one state at a time.
REALIZATION_CHUNK_ENTRIES = 2 ** 14


def realization_chunks(algebra: TorusAlgebra, count: int) -> list:
    """Slices that cut a count-long coefficient stack into chunks whose
    realizations hold at most REALIZATION_CHUNK_ENTRIES entries (one matrix
    per chunk at least)."""
    step = max(1, REALIZATION_CHUNK_ENTRIES // algebra.matrix_dim ** 2)
    return [slice(i, i + step) for i in range(0, count, step)]


def grid_values(x: TorusElement) -> np.ndarray:
    """Grid samples u(2 pi l / N) = sum_k u(k) e^{2 pi i <k,l>/N} (flat only)."""
    if not x.algebra.is_flat:
        raise BackendMismatch("grid values require theta = 0")
    return np.fft.ifftn(x.coeffs) * (x.algebra.N ** x.algebra.d)


def from_grid_values(algebra: TorusAlgebra, values: np.ndarray) -> TorusElement:
    if not algebra.is_flat:
        raise BackendMismatch("grid values require theta = 0")
    return TorusElement(algebra, np.fft.fftn(np.asarray(values, dtype=np.complex128)) / (algebra.N ** algebra.d))


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def multiply(x: TorusElement, y: TorusElement, mode: str = "wrap") -> TorusElement:
    """Product in the algebra, computed in its faithful realization.

    theta != 0: ``from_matrix`` of the clock/shift matrix product, which
    carries the phase e^{-i pi <k, theta l>} and the wrap signs.  theta = 0:
    the pointwise product of grid values (circular convolution).
    ``checked`` first raises BandOverflow when any product mode leaves the band.
    """
    _same_algebra(x, y)
    alg = x.algebra
    if mode not in ("wrap", "checked"):
        raise ValueError("mode must be 'wrap' or 'checked'")
    if mode == "checked":
        _check_band(x, y)
    if alg.is_flat:
        return from_grid_values(alg, grid_values(x) * grid_values(y))
    return from_matrix(alg, to_matrix(x) @ to_matrix(y))


def _check_band(x: TorusElement, y: TorusElement) -> None:
    """BandOverflow if a pair (k, l) with |x_k||y_l| > 1e-14 max|x| max|y| has
    k + l outside [-N/2, N/2)^d.

    k + l wraps when some component k_j + l_j does, and the largest product over
    pairs with given (k_j, l_j) is the product of the per-component maxima
    (rounding is monotone), so one N x N test per axis decides every pair.
    """
    alg = x.algebra
    half = alg.N // 2
    absx, absy = np.abs(x.coeffs), np.abs(y.coeffs)
    threshold = 1e-14 * max(float(np.max(absx) * np.max(absy)), 1e-300)
    sums = np.add.outer(alg.k_axis, alg.k_axis)
    wraps = (sums < -half) | (sums >= half)
    for j in range(alg.d):
        others = tuple(i for i in range(alg.d) if i != j)
        peak = np.multiply.outer(np.max(absx, axis=others), np.max(absy, axis=others))
        if np.any(wraps & (peak > threshold)):
            raise BandOverflow(f"product mode leaves the band [-{half}, {half}) along axis {j}")


def basis_product(x: TorusElement, y: TorusElement) -> TorusElement:
    """Reference product from the dense mode matrices of ``TorusAlgebra.basis``.

    Realizes x = sum_k x_k M(k) and y entry by entry, multiplies, and reads
    the coefficients tau(A M(k)*) back; it shares no code with ``multiply``.
    The basis has N^d (dim x dim) matrices, so it is for small N only.
    """
    _same_algebra(x, y)
    alg = x.algebra
    b = alg.basis()
    modes = tuple(range(alg.d))
    xm, ym = (np.tensordot(c, b, axes=(modes, modes)) for c in (x.coeffs, y.coeffs))
    # sum_ij A_ij conj(M(k)_ij), conjugating A rather than copying the basis
    coeffs = np.conj(np.tensordot(b, np.conj(xm @ ym), axes=((alg.d, alg.d + 1), (0, 1))))
    return TorusElement(alg, coeffs / alg.matrix_dim)


# ---------------------------------------------------------------------------
# Fourier multiplier operations
# ---------------------------------------------------------------------------

def apply_multiplier(x: TorusElement, symbol_values: np.ndarray) -> TorusElement:
    return TorusElement(x.algebra, x.coeffs * symbol_values)


def _pairing(algebra: TorusAlgebra, v: np.ndarray) -> np.ndarray:
    """<v, k> over the mode grid for each row of a (..., d) array, summed over
    the axes in order."""
    lead = v.shape[:-1]
    out = np.zeros(lead + algebra.shape)
    for ax, g in enumerate(algebra.k_grids):
        out = out + v[..., ax].reshape(lead + (1,) * algebra.d) * g
    return out


def translate(x: TorusElement, s) -> TorusElement:
    """T_s: u(k) -> e^{i<s,k>} u(k); an L_p isometry."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.shape != (x.algebra.d,):
        raise DimensionMismatch(f"shift must have {x.algebra.d} components")
    return apply_multiplier(x, np.exp(1j * _pairing(x.algebra, s)))


def derive(x: TorusElement, j: int) -> TorusElement:
    """Spectral derivation along axis j: u(k) -> i k_j u(k) (representative k)."""
    if not 0 <= j < x.algebra.d:
        raise DimensionMismatch(f"axis {j} out of range for d={x.algebra.d}")
    return apply_multiplier(x, 1j * x.algebra.k_grids[j].astype(float))


def derive_multi(x: TorusElement, alpha: Sequence[int]) -> TorusElement:
    alpha = np.asarray(alpha, dtype=int)
    if alpha.shape != (x.algebra.d,) or np.any(alpha < 0):
        raise DimensionMismatch("alpha must be a nonnegative multi-index of length d")
    mult = np.ones(x.algebra.shape, dtype=np.complex128)
    for ax, a in enumerate(alpha):
        if a:
            mult = mult * (1j * x.algebra.k_grids[ax].astype(float)) ** int(a)
    return apply_multiplier(x, mult)


def difference_multiplier(algebra: TorusAlgebra, h, m: int) -> np.ndarray:
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if h.shape != (algebra.d,):
        raise DimensionMismatch(f"step must have {algebra.d} components")
    return (np.exp(1j * _pairing(algebra, h)) - 1.0) ** int(m)


def difference(x: TorusElement, h, m: int = 1) -> TorusElement:
    """m-th difference: u(k) -> (e^{i<h,k>} - 1)^m u(k)."""
    return apply_multiplier(x, difference_multiplier(x.algebra, h, m))


def heat(x: TorusElement, t: float) -> TorusElement:
    """Heat semigroup e^{t Delta}: u(k) -> e^{-t|k|^2} u(k); t >= 0."""
    if t < 0:
        raise ValueError("heat flow requires t >= 0 (parabolic one-sidedness)")
    return apply_multiplier(x, np.exp(-t * x.algebra.abs_k ** 2))


def lp_block(x: TorusElement, j: int) -> TorusElement:
    """Littlewood-Paley block via the non-homogeneous filter phi_j(|k|)."""
    if not 0 <= j < block_count(x.algebra):
        return apply_multiplier(x, np.zeros(x.algebra.shape))  # phi_j is 0 on the lattice
    return apply_multiplier(x, x.algebra.lp_filters[j])


def block_count(algebra: TorusAlgebra) -> int:
    """Number of possibly-nonzero non-homogeneous blocks on this lattice."""
    return len(algebra.lp_filters)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def lp_norm(x: TorusElement, p) -> float:
    """Schatten-p norm under the normalized trace.

    Matrix backend: singular values of the realization; commutative backend:
    discrete-grid p-mean of |u|.
    """
    return float(lp_norm_batch(x.algebra, x.coeffs[None, ...], p)[0])


def lp_norm_batch(algebra: TorusAlgebra, coeff_stack: np.ndarray, p) -> np.ndarray:
    """lp_norm of every element of a (batch,) + algebra.shape coefficient stack.

    p = 2 reads the coefficients (Parseval) and theta = 0 the grid values.
    Otherwise the stack is realized, and the norms come from
    ``hermitian_schatten_norm_batch`` (absolute eigenvalues) when every
    realized matrix passes the Hermitian deviation test, from
    ``schatten_norm_batch`` (SVD) when any one fails it.
    """
    pv = p.p if hasattr(p, "p") else float(p)
    if pv == 2.0:
        # Parseval: the modes are orthonormal in L2 of the normalized trace
        return np.linalg.norm(coeff_stack.reshape(coeff_stack.shape[0], -1), axis=1)
    if algebra.backend == "commutative" or algebra.is_flat:
        if not algebra.is_flat:
            raise BackendMismatch("grid norms require theta = 0")
        vals = np.fft.ifftn(coeff_stack, axes=tuple(range(1, algebra.d + 1))) * (algebra.N ** algebra.d)
        a = np.abs(vals.reshape(coeff_stack.shape[0], -1))
        if math.isinf(pv):
            return np.max(a, axis=1)
        return (np.mean(a ** pv, axis=1)) ** (1.0 / pv)
    mats = to_matrix_batch(algebra, coeff_stack)
    if hermitian_members(mats).all():
        return hermitian_schatten_norm_batch(mats, pv, "normalized")
    return schatten_norm_batch(mats, pv, "normalized")


# ---------------------------------------------------------------------------
# amplitudes
# ---------------------------------------------------------------------------

def sphere_directions(d: int, n_dir: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        ang = 2 * np.pi * ((np.arange(n_dir) * golden) % 1.0)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(20240501)))
    v = rng.standard_normal((n_dir, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@dataclass(frozen=True)
class AmplitudeSampling:
    """Direction/radius sampling for the L_p amplitude lower bound."""

    n_dir: int = 64
    n_rad: int = 32


def amplitude(x: TorusElement, t: float, m: int, p, sampling: AmplitudeSampling = AmplitudeSampling()) -> float:
    """omega_p^m(t, x) = sup_{|h|<=t} ||Delta_h^m x||_p, sampled from below."""
    return float(amplitude_profile(x, [t], m, p, sampling)[0])


def amplitude_profile(x: TorusElement, ts: Sequence[float], m: int, p,
                      sampling: AmplitudeSampling = AmplitudeSampling()) -> np.ndarray:
    """amplitude at each t of ``ts`` from one shared sample set.

    The sample set is the union over ts of the per-t radii, so the profile is
    monotone nondecreasing in t by construction.
    """
    ts = np.asarray(sorted(ts), dtype=float)
    if not np.any(ts > 0):
        return np.zeros(len(ts))
    dirs = sphere_directions(x.algebra.d, sampling.n_dir)
    radii = np.unique(np.concatenate([t * (np.arange(1, sampling.n_rad + 1) / sampling.n_rad)
                                      for t in ts if t > 0]))
    stack = _difference_stack(x, dirs, radii, m)
    norms = lp_norm_batch(x.algebra, stack, p).reshape(len(dirs), len(radii))
    best_by_radius = np.max(norms, axis=0)
    run_max = np.maximum.accumulate(best_by_radius)
    out = np.zeros(len(ts))
    for i, t in enumerate(ts):
        j = np.searchsorted(radii, t + 1e-15, side="right") - 1
        out[i] = run_max[j] if j >= 0 else 0.0
    return out


def _difference_stack(x: TorusElement, dirs: np.ndarray, radii: np.ndarray, m: int) -> np.ndarray:
    """Coefficients of Delta_{r d}^m x for every (direction d, radius r) pair,
    stacked direction-major.

    The shift multiplier e^{i r <d, k>} is the product over axes of
    e^{i r d_ax k_ax}, so only (dir, radius, N) phases are exponentiated.
    """
    alg = x.algebra
    lead = (len(dirs), len(radii))
    shift = None
    for ax in range(alg.d):
        phase = np.exp(1j * (dirs[:, ax, None] * radii)[..., None] * alg.k_axis)
        phase = phase.reshape(lead + (1,) * ax + (alg.N,) + (1,) * (alg.d - ax - 1))
        shift = phase if shift is None else shift * phase
    mult = shift - 1.0
    if m != 1:
        mult = mult ** m
    return (mult * x.coeffs).reshape((-1,) + alg.shape)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_element(x: TorusElement, path):
    """Text snapshot: header (d, N, theta, backend) + (k-vector, re, im) rows."""
    alg = x.algebra
    lines = [f"# opcalc torus element",
             f"d={alg.d} N={alg.N} theta12={alg.theta[0, 1] if alg.d >= 2 else 0.0:.17g} backend={alg.backend}"]
    grids = alg.k_grids
    for idx in np.argwhere(np.abs(x.coeffs) > 0):
        k = [int(grids[ax][tuple(idx)]) for ax in range(alg.d)]
        v = x.coeffs[tuple(idx)]
        lines.append(" ".join(str(c) for c in k) + f" {v.real:.17g} {v.imag:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_element(path) -> TorusElement:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = dict(part.split("=") for part in lines[0].split())
    d, N = int(header["d"]), int(header["N"])
    theta12 = float(header["theta12"])
    alg = TorusAlgebra.make(d=d, N=N, theta_num=int(round(theta12 * N)), backend=header["backend"])
    c = np.zeros(alg.shape, dtype=np.complex128)
    for ln in lines[1:]:
        parts = ln.split()
        k = [int(v) for v in parts[:d]]
        c[tuple(ki % N for ki in k)] = float(parts[d]) + 1j * float(parts[d + 1])
    return TorusElement(alg, c)
