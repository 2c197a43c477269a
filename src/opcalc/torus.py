"""Finite-dimensional noncommutative torus testbed.

Band-limited Fourier elements over Z^d with a deformation phase.  Modes live
at representatives k in [-N/2, N/2)^d (numpy fft layout).  At theta != 0
(d = 2, theta_12 = p/N, gcd(p, N) = 1) the clock/shift realization is

    M(k) = e^{i pi theta k1 k2} C^{k1} S^{k2},   S C = e^{2 pi i theta} C S,

with clock C = diag(omega^{-a}) and cyclic shift S, omega = e^{2 pi i p / N}.
The symmetric Weyl phase makes (U^k)* = U^{-k}, so the Hermitian flag is a
pure coefficient condition (conjugate symmetry under wrap-aware negation).
Products obey U^k U^l = e^{-i pi <k, theta l>} U^{k+l}; when k+l leaves the
band, M(n + N m) = (-1)^{p(m1 n2 + m2 n1)} M(n) supplies the wrap sign (N
even).  At theta = 0 the faithful realization is the diagonal grid
representation on N^d points.  Both realizations are faithful, so the product
is computed in them: the matrix product of the clock/shift realizations at
theta != 0, the pointwise product of grid values at theta = 0.  The check of
the theta = 0 route is a third realization, the left-regular one
(``regular_blocks``).  It commutes with the translations by {0, N/2}^d, so
it splits into 2^d blocks of side (N/2)^d, one per character of that group;
for Hermitian u each block is real symmetric in a parity basis, so it needs
no FFT and its functional calculus runs on LAPACK's real solver.

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

from .errors import BackendMismatch, BandOverflow, DimensionMismatch, NonHermitianInput
from .linalg import hermitian_members, hermitian_schatten_norm_batch, schatten_norm_batch
from .symbols import LPFilterFamily


@dataclass(frozen=True)
class TorusAlgebra:
    """Mode lattice: dimension d, N modes per axis (even), deformation
    theta_12 = theta_num / N.  theta_num = 0 is the commutative torus of any
    dimension d >= 1; theta_num != 0 needs d = 2 and gcd(theta_num, N) = 1,
    the conditions of the clock/shift realization."""

    d: int = 2
    N: int = 16
    theta_num: int = 0
    backend = "matrix"  # not a field; read by the bench tracer (ROADMAP item 9)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.N < 2 or self.N % 2 != 0:
            raise ValueError("N must be even and >= 2")
        if self.theta_num != 0:
            if self.d != 2:
                raise BackendMismatch("theta != 0 requires d = 2")
            if math.gcd(self.theta_num % self.N, self.N) != 1:
                raise ValueError("clock/shift representation needs gcd(p, N) = 1")

    @property
    def is_flat(self) -> bool:
        return self.theta_num == 0

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
    """Band-limited element: coefficient array in fft layout plus its algebra.

    The coefficients may carry leading member axes, (...,) + algebra.shape:
    a stack of elements, which ``to_matrix``, ``from_matrix``,
    ``is_hermitian``, the multiplier operations and the stacked kernels
    (``chain.chain_rule_residual``, ``besov.meyer_residual``) take.
    """

    algebra: TorusAlgebra
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        d = self.algebra.d
        if c.ndim < d or c.shape[c.ndim - d:] != self.algebra.shape:
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


def _same_algebra(x: TorusElement, y: TorusElement):
    if x.algebra != y.algebra:
        raise DimensionMismatch("elements live on different algebras")


def _negate_coeffs(c: np.ndarray, d: int) -> np.ndarray:
    """Coefficient array of k -> c(-k) with wrap-aware index negation over the
    trailing d axes (one element, or a stack of them)."""
    out = c
    for ax in range(-d, 0):
        out = np.flip(np.roll(out, -1, axis=ax), axis=ax)
    return out


def _boundary_sign(algebra: TorusAlgebra) -> np.ndarray:
    """Wrap sign attached to mode negation: -k wraps when k_j = -N/2.

    (U^k)* = sign(k) U^{rep(-k)}; the sign is +1 except on the boundary
    hyperplanes of a deformed (p != 0, d = 2) algebra.
    """
    N, p = algebra.N, algebra.theta_num
    sign = np.ones(algebra.shape)
    if p == 0:
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
    """Coefficients of x*: conj(c(k)) transported to rep(-k) with wrap sign
    (of one element, or of each element of a stack)."""
    return _negate_coeffs(np.conj(c) * _boundary_sign(algebra), algebra.d)


def unit_element(algebra: TorusAlgebra) -> TorusElement:
    return mode_element(algebra, (0,) * algebra.d)


def mode_element(algebra: TorusAlgebra, k: Sequence[int]) -> TorusElement:
    """The basis element of mode k (mod N): coefficient 1 there, 0 elsewhere."""
    c = np.zeros(algebra.shape, dtype=np.complex128)
    c[tuple(int(ki) % algebra.N for ki in k)] = 1.0
    return TorusElement(algebra, c)


# Relative tolerance of the Hermitian flag (``is_hermitian``).
HERMITIAN_TOL = 1e-12


def is_hermitian(x: TorusElement) -> bool:
    """Hermitian flag (of every member of a stack): coeffs(-k) = conj(coeffs(k))
    under wrap-aware negation (the wrap across a boundary hyperplane carries
    the representation sign), equivalent to Hermiticity of the matrix
    realization; HERMITIAN_TOL relative."""
    return bool(np.all(hermitian_deviation_batch(x.algebra, x.coeffs) <= HERMITIAN_TOL))


def hermitian_deviation_batch(algebra: TorusAlgebra, coeff_stack: np.ndarray) -> np.ndarray:
    """max |x*(k) - x(k)| / max |x(k)| of each element of a (batch,) +
    algebra.shape coefficient stack (of one element: a 0-d array)."""
    axes = tuple(range(-algebra.d, 0))
    scale = np.maximum(np.max(np.abs(coeff_stack), axis=axes), 1e-300)
    return np.max(np.abs(_adjoint_coeffs(algebra, coeff_stack) - coeff_stack), axis=axes) / scale


def hermitianize(x: TorusElement) -> TorusElement:
    return TorusElement(x.algebra, 0.5 * (x.coeffs + _adjoint_coeffs(x.algebra, x.coeffs)))


def random_element(algebra: TorusAlgebra, rng: np.random.Generator, band: Optional[int] = None,
                   hermitian: bool = True, decay: float = 1.0) -> TorusElement:
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
    x = TorusElement(algebra, c)
    return hermitianize(x) if hermitian else x


# ---------------------------------------------------------------------------
# matrix realization
# ---------------------------------------------------------------------------

def _weyl_phase(algebra: TorusAlgebra) -> np.ndarray:
    """Symmetric ordering phase e^{i pi theta k1 k2} over the mode grid (read-only)."""
    return _weyl_table(algebra.N, algebra.theta_num)


@functools.lru_cache(maxsize=None)
def _weyl_table(N: int, p: int) -> np.ndarray:
    k1, k2 = _k_grids(N, 2)
    phase = np.exp(1j * np.pi * (p / N) * k1 * k2)
    phase.flags.writeable = False
    return phase


def to_matrix(x: TorusElement) -> np.ndarray:
    """Realize x as a matrix, or each member of a stack in one batch:
    clock/shift for theta != 0, grid-diagonal at 0."""
    alg = x.algebra
    lead = x.coeffs.shape[:x.coeffs.ndim - alg.d]
    mats = to_matrix_batch(alg, x.coeffs.reshape((-1,) + alg.shape))
    return mats.reshape(lead + mats.shape[1:])


def to_matrix_batch(algebra: TorusAlgebra, coeff_stack: np.ndarray) -> np.ndarray:
    """Stack of matrices for a (batch,) + algebra.shape coefficient stack.

    Clock/shift route: for each diagonal offset k2 the entries are a length-N
    DFT over k1 evaluated at frequency p*a mod N, so the whole realization is
    N FFTs (O(N^2 log N)) instead of the dense mode-matrix contraction,
    followed by one gather that places every entry.  The Weyl-phased
    coefficients are laid out (k2, k1), so the FFTs run on the contiguous
    axis; they give the same bits as FFTs over the k1 axis of the (k1, k2)
    layout.
    """
    if algebra.is_flat:
        flat = grid_values(algebra, coeff_stack)
        out = np.zeros((coeff_stack.shape[0], flat.shape[1], flat.shape[1]), dtype=np.complex128)
        ii = np.arange(flat.shape[1])
        out[:, ii, ii] = flat
        return out
    N, p = algebra.N, algebra.theta_num
    pre = np.empty((len(coeff_stack), N, N), dtype=np.complex128)
    np.multiply(np.swapaxes(coeff_stack, 1, 2), _weyl_phase(algebra).T, out=pre)
    f = np.fft.fft(pre, axis=2)                     # over the k1 index
    del pre
    return np.take(f.reshape(len(f), N * N), _entry_index(N, p), axis=1)


@functools.lru_cache(maxsize=None)
def _entry_index(N: int, p: int) -> np.ndarray:
    """Flat (k2, frequency) index of matrix entry [a, c] in the FFT over k1 of
    a clock/shift realization: entry [a, c] lies on diagonal offset
    k2 = (a - c) % N at frequency p*a mod N (read-only)."""
    a = np.arange(N)
    index = ((a[:, None] - a[None, :]) % N) * N + ((p * a) % N)[:, None]
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=None)
def _recovery_index(N: int, p: int) -> tuple:
    """The two gathers of ``from_matrix_batch`` (read-only): the flat index of
    matrix entry [a, (a - k2) % N] at [k2, a], which reads diagonal offset k2
    into row k2, and the flat index of the inverse DFT's (k2, frequency)
    layout at [k1, k2], frequency p*k1 mod N."""
    a = np.arange(N)
    offsets = a[None, :] * N + (a[None, :] - a[:, None]) % N
    coeffs = a[None, :] * N + ((p * a) % N)[:, None]
    for index in (offsets, coeffs):
        index.flags.writeable = False
    return offsets, coeffs


def from_matrix(algebra: TorusAlgebra, A: np.ndarray) -> TorusElement:
    """Coefficient recovery u(k) = trace(A (U^k)*) under the normalized trace,
    of a matrix or of each member of a (..., dim, dim) stack in one batch."""
    A = np.asarray(A, dtype=np.complex128)
    dim = algebra.matrix_dim
    if A.shape[-2:] != (dim, dim):
        raise DimensionMismatch(f"matrix shape {A.shape} != ({dim}, {dim})")
    coeffs = from_matrix_batch(algebra, A.reshape((-1, dim, dim)))
    return TorusElement(algebra, coeffs.reshape(A.shape[:-2] + algebra.shape))


def from_matrix_batch(algebra: TorusAlgebra, stack: np.ndarray) -> np.ndarray:
    """(batch,) + algebra.shape coefficient stack of a (batch, dim, dim)
    matrix stack; the inverse of ``to_matrix_batch``.

    Clock/shift route: one gather reads each diagonal offset k2 into a
    contiguous row, and each row is a length-N inverse DFT over k1, so
    recovery is N FFTs per matrix, run on the contiguous axis; a second
    gather puts frequency p*k1 mod N of row k2 at [k1, k2].  The bits are
    those of inverse DFTs over the first axis of the (a, k2) layout.
    """
    if algebra.is_flat:
        return from_grid_values(algebra, np.diagonal(stack, axis1=-2, axis2=-1))
    N, p = algebra.N, algebra.theta_num
    offsets, coeffs = _recovery_index(N, p)
    diag = np.take(stack.reshape(len(stack), N * N), offsets, axis=1)
    g = np.fft.ifft(diag, axis=2)                   # g[k2, m] = pre[p^{-1} m mod N, k2]
    out = np.take(g.reshape(len(stack), N * N), coeffs, axis=1)
    out *= np.conj(_weyl_phase(algebra))
    return out


# Largest realization, in matrix entries, that a stacked route builds at once:
# chunks of this size keep the peak memory of a stacked functional calculus
# at that of one state at a time.
REALIZATION_CHUNK_ENTRIES = 2 ** 14


def realization_chunks(algebra: TorusAlgebra, count: int, entries: Optional[int] = None) -> list:
    """Slices that cut a count-long coefficient stack into chunks whose
    realizations hold at most REALIZATION_CHUNK_ENTRIES entries (one member
    per chunk at least).  A member's realization has ``entries`` entries, one
    matrix_dim x matrix_dim matrix by default."""
    entries = algebra.matrix_dim ** 2 if entries is None else entries
    step = max(1, REALIZATION_CHUNK_ENTRIES // entries)
    return [slice(i, i + step) for i in range(0, count, step)]


def grid_values(algebra: TorusAlgebra, coeff_stack: np.ndarray) -> np.ndarray:
    """(batch, N^d) grid samples u(2 pi l / N) = sum_k u(k) e^{2 pi i <k,l>/N}
    of a (batch,) + algebra.shape coefficient stack (theta = 0 only)."""
    if not algebra.is_flat:
        raise BackendMismatch("grid values require theta = 0")
    vals = np.fft.ifftn(coeff_stack, axes=tuple(range(1, algebra.d + 1))) * (algebra.N ** algebra.d)
    return vals.reshape(len(coeff_stack), -1)


def from_grid_values(algebra: TorusAlgebra, values: np.ndarray) -> np.ndarray:
    """Coefficient stack of (batch, N^d) grid values; inverts ``grid_values``."""
    if not algebra.is_flat:
        raise BackendMismatch("grid values require theta = 0")
    vals = np.asarray(values, dtype=np.complex128).reshape((len(values),) + algebra.shape)
    return np.fft.fftn(vals, axes=tuple(range(1, algebra.d + 1))) / (algebra.N ** algebra.d)


def regular_blocks(algebra: TorusAlgebra, coeff_stack: np.ndarray) -> np.ndarray:
    """Left-regular (convolution) realization of a (batch,) + algebra.shape
    stack of Hermitian coefficients at theta = 0, split into 2^d diagonal
    blocks: the real symmetric (batch, 2^d, (N/2)^d, (N/2)^d) stack of
    R_eps = Q_eps* L_u Q_eps, where L_u[k, l] = u((k - l) mod N) is left
    multiplication on coefficients.

    L_u commutes with the translations by H = {0, N/2}^d, so it keeps each
    eigenspace V_eps of their characters chi_eps(h) = (-1)^{<eps, 2h/N>},
    eps in {0, 1}^d.  V_eps has the orthonormal basis
    f_r = 2^{-d/2} sum_h chi_eps(h) e_{r+h} over the coset representatives
    r in [0, N/2)^d, and <f_r, L_u f_c> = w_eps(r - c) for the coset
    (Hadamard) transform w_eps(a) = sum_h chi_eps(h) u(a + h).  The parity
    sends f_r to +-f_{r*}, r* the representative of -r, and conjugates
    L_u for Hermitian u, so each block has a real parity basis Q_eps.  Each
    entry of R_eps reads w_eps at a - c and a + c, so R_eps is two gathers
    from the real and imaginary parts of w_eps, and no FFT: it shares no code
    with the grid values.  ``coset_basis`` holds the columns of every Q_eps
    in the basis e_k; since L_{F(u)} = F(L_u), F(u) is 2^{-d/2} times it
    applied to the column 0 of each F(R_eps).

    A state within the Hermitian tolerance is realized through its Hermitian
    part, as ``HermitianOperator`` stores its matrix symmetrized; one beyond
    it raises NonHermitianInput.
    """
    if not algebra.is_flat:
        raise BackendMismatch("the convolution realization requires theta = 0")
    c = np.asarray(coeff_stack, dtype=np.complex128)
    dev = hermitian_deviation_batch(algebra, c)
    if not np.all(dev <= HERMITIAN_TOL):
        raise NonHermitianInput(f"relative Hermitian deviation {np.max(dev):.3e} "
                                f"exceeds {HERMITIAN_TOL:.0e}")
    u = (0.5 * (c + _adjoint_coeffs(algebra, c))).reshape(len(c), -1)
    gather, scale, _q, shifts, chi = _parity_tables(algebra.N, algebra.d)
    w = chi @ u[:, shifts]
    parts = np.concatenate([w.real, w.imag, -w.real, -w.imag], axis=2).reshape(len(c), -1)
    r = np.take(parts, gather[0], axis=1) + np.take(parts, gather[1], axis=1)
    return r * scale[:, None] * scale


def coset_basis(algebra: TorusAlgebra) -> np.ndarray:
    """The unitary U of ``regular_blocks`` (read-only): block eps after block
    eps, the columns of Q_eps written in the basis e_k, so that U* L_u U is
    block diagonal with the blocks R_eps.  Q_eps is built from the f_r:
    f_r at a fixed point r* = r that the parity fixes, i f_r at one that it
    negates, then (f_r +- f_{r*})/sqrt 2 and i(f_r -+ f_{r*})/sqrt 2 for each
    pair {r, r*}, signed so that the parity fixes the first and conjugates
    the second.  Column 0 of each block is f_0."""
    return _parity_tables(algebra.N, algebra.d)[2]


@functools.lru_cache(maxsize=None)
def _parity_tables(N: int, d: int) -> tuple:
    """(gather, scale, q, shifts, chi) of the parity bases of the 2^d blocks
    of ``regular_blocks``, read-only.

    For basis vectors x, y of block eps with representatives a, c, entry
    [x, y] of the block is scale[x] scale[y] (g1(w_eps(a - c)) + g2(w_eps(a + c))),
    with scale 1/sqrt 2 at fixed points and 1 on pairs, and (g1, g2) by the
    kinds of x, y (the vectors of ``coset_basis`` with a factor i are minus
    vectors, the others plus vectors):

        plus, plus: (Re, Re)     plus, minus: (-Im, Im)
        minus, plus: (Im, Im)    minus, minus: (Re, -Re)

    gather[0] and gather[1] index those terms in the blocks' concatenated
    [Re w, Im w, -Re w, -Im w].  q holds the basis vectors in the basis e_k,
    block after block.  The coset transform is w_eps = chi[eps] @ u[shifts],
    where shifts[h] lists the sites a + h.
    """
    shape, M = (N,) * d, N ** d
    side = N // 2
    m = side ** d
    sites = np.indices((side,) * d).reshape(d, m)  # the representatives, in flat order
    col = np.arange(m)
    star = (-sites) % side
    neg = np.ravel_multi_index(star, (side,) * d)
    # H as 0/1 vectors, the characters eps, and the sign of the parity on f_r
    hs = np.indices((2,) * d).reshape(d, -1)
    eps = hs.T
    sign = (-1) ** (eps @ ((-sites) % N != star))
    fixed, reps = col[neg == col], col[neg > col]
    rep = np.concatenate([fixed, reps, reps])  # the representative of each basis vector
    pair = col >= len(fixed)
    minus = np.zeros((len(eps), m), dtype=bool)
    minus[:, :len(fixed)] = sign[:, fixed] < 0
    minus[:, len(fixed) + len(reps):] = True
    scale = np.where(pair, 1.0, math.sqrt(0.5))
    a = sites[:, rep]
    diff = np.ravel_multi_index((a[:, :, None] - a[:, None, :]) % N, shape)
    summ = np.ravel_multi_index((a[:, :, None] + a[:, None, :]) % N, shape)
    mx, my = minus[:, :, None], minus[:, None, :]
    part_diff = np.where(mx == my, 0, np.where(mx, 1, 3))
    part_sum = np.where(mx == my, np.where(mx, 2, 0), 1)
    offset = 4 * M * np.arange(len(eps))[:, None, None]
    gather = np.stack([offset + part_diff * M + diff, offset + part_sum * M + summ])
    qb = np.zeros((len(eps), m, m), dtype=np.complex128)
    qb[:, rep, col] = np.where(minus, 1j, 1.0)
    qb[:, neg[rep[pair]], col[pair]] = np.where(minus[:, pair], -1j, 1.0) * sign[:, rep[pair]]
    qb[:, :, pair] *= math.sqrt(0.5)
    every = np.indices(shape).reshape(d, M)
    shifts = np.ravel_multi_index((every[:, None, :] + (N // 2) * hs[:, :, None]) % N, shape)
    chi = (-1.0) ** (eps @ hs)
    q = np.zeros((M, len(eps), m), dtype=np.complex128)
    at_reps = np.ravel_multi_index(sites, shape)
    for j in range(hs.shape[1]):
        q[shifts[j, at_reps]] = (chi[:, j, None, None] * qb).transpose(1, 0, 2) / math.sqrt(hs.shape[1])
    q = q.reshape(M, M)
    for table in (gather, scale, q, shifts, chi):
        table.flags.writeable = False
    return gather, scale, q, shifts, chi


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
        gx, gy = grid_values(alg, np.stack([x.coeffs, y.coeffs]))
        return TorusElement(alg, from_grid_values(alg, (gx * gy)[None])[0])
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


def _shift_phase(algebra: TorusAlgebra, steps: np.ndarray) -> np.ndarray:
    """e^{i<h,k>} over the mode grid for each step h of a (..., d) array.

    The phase is the product over axes of e^{i h_ax k_ax}, so only (..., N)
    phases are exponentiated.
    """
    lead = steps.shape[:-1]
    out = None
    for ax in range(algebra.d):
        phase = np.exp(1j * steps[..., ax, None] * algebra.k_axis)
        phase = phase.reshape(lead + (1,) * ax + (algebra.N,) + (1,) * (algebra.d - ax - 1))
        out = phase if out is None else out * phase
    return out


def translate(x: TorusElement, s) -> TorusElement:
    """T_s: u(k) -> e^{i<s,k>} u(k); an L_p isometry."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.shape != (x.algebra.d,):
        raise DimensionMismatch(f"shift must have {x.algebra.d} components")
    return apply_multiplier(x, _shift_phase(x.algebra, s))


def derive(x: TorusElement, j: int) -> TorusElement:
    """Spectral derivation along axis j: u(k) -> i k_j u(k) (representative k)."""
    if not 0 <= j < x.algebra.d:
        raise DimensionMismatch(f"axis {j} out of range for d={x.algebra.d}")
    return apply_multiplier(x, 1j * x.algebra.k_grids[j].astype(float))


def derive_multi(x: TorusElement, alpha: Sequence[int]) -> TorusElement:
    return apply_multiplier(x, derivative_multiplier(x.algebra, alpha))


def derivative_multiplier(algebra: TorusAlgebra, alpha: Sequence[int]) -> np.ndarray:
    """Symbol prod_ax (i k_ax)^alpha_ax of the derivation d^alpha over the mode grid."""
    alpha = np.asarray(alpha, dtype=int)
    if alpha.shape != (algebra.d,) or np.any(alpha < 0):
        raise DimensionMismatch("alpha must be a nonnegative multi-index of length d")
    mult = np.ones(algebra.shape, dtype=np.complex128)
    for ax, a in enumerate(alpha):
        if a:
            mult = mult * (1j * algebra.k_grids[ax].astype(float)) ** int(a)
    return mult


def difference_multiplier(algebra: TorusAlgebra, h, m: int) -> np.ndarray:
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if h.shape != (algebra.d,):
        raise DimensionMismatch(f"step must have {algebra.d} components")
    return (_shift_phase(algebra, h) - 1.0) ** int(m)


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

    At theta = 0: the discrete-grid p-mean of |u|; at theta != 0: the
    singular values of the realization.
    """
    return float(lp_norm_batch(x.algebra, x.coeffs[None, ...], p)[0])


def lp_norm_batch(algebra: TorusAlgebra, coeff_stack: np.ndarray, p) -> np.ndarray:
    """lp_norm of every element of a (batch,) + algebra.shape coefficient stack.

    p = 2 reads the coefficients (Parseval) and theta = 0 the grid values.
    Otherwise the stack is realized and routed member by member: a realized
    matrix that passes the Hermitian deviation test gets its norm from
    ``hermitian_schatten_norm_batch`` (absolute eigenvalues), any other from
    ``schatten_norm_batch`` (SVD).  Each spectral call runs LAPACK on one
    matrix at a time, so a member's norm has the same bits in any stack,
    alone included.
    """
    pv = float(p)
    if pv == 2.0:
        # Parseval: the modes are orthonormal in L2 of the normalized trace
        return np.linalg.norm(coeff_stack.reshape(coeff_stack.shape[0], -1), axis=1)
    if algebra.is_flat:
        a = np.abs(grid_values(algebra, coeff_stack))
        if math.isinf(pv):
            return np.max(a, axis=1)
        return (np.mean(a ** pv, axis=1)) ** (1.0 / pv)
    mats = to_matrix_batch(algebra, coeff_stack)
    hermitian = hermitian_members(mats)
    if hermitian.all():
        return hermitian_schatten_norm_batch(mats, pv)
    if not hermitian.any():
        return schatten_norm_batch(mats, pv)
    out = np.empty(len(mats))
    out[hermitian] = hermitian_schatten_norm_batch(mats[hermitian], pv)
    out[~hermitian] = schatten_norm_batch(mats[~hermitian], pv)
    return out


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

    n_dir: int
    n_rad: int


def amplitude_radii(ts: np.ndarray, n_rad: int) -> np.ndarray:
    """Sorted radius samples of the amplitude profile: the union over the
    t > 0 of ts of t * (1, ..., n_rad) / n_rad.  Every t shares the one sample
    set, so the profile is monotone nondecreasing in t by construction."""
    return np.unique(np.concatenate([t * (np.arange(1, n_rad + 1) / n_rad) for t in ts if t > 0]))


def amplitude_from_norms(norms: np.ndarray, radii: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """omega_p^m(t, x) = sup_{|h|<=t} ||Delta_h^m x||_p, sampled from below,
    at ascending ts from the (direction, radius) norms of the sampled
    differences: the running maximum over radii <= t of the maximum over
    directions."""
    run_max = np.maximum.accumulate(np.max(norms, axis=0))
    j = np.searchsorted(radii, ts + 1e-15, side="right") - 1
    return np.where(j >= 0, run_max[np.maximum(j, 0)], 0.0)


def difference_table(algebra: TorusAlgebra, dirs: np.ndarray, radii: np.ndarray, m: int) -> np.ndarray:
    """Multipliers (e^{i r <d, k>} - 1)^m of Delta_{r d}^m for every
    (direction d, radius r) pair, stacked direction-major."""
    mult = _shift_phase(algebra, dirs[:, None, :] * radii[:, None]) - 1.0
    if m != 1:
        mult = mult ** m
    return mult.reshape((-1,) + algebra.shape)


def _difference_stack(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Coefficients of Delta_{r d}^m x for every multiplier of a
    ``difference_table``, from the coefficients of x."""
    return table * coeffs
