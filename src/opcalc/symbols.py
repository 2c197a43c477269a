"""Scalar symbols F: R -> C and their calculus.

Divided differences F^[n] (with the confluent derivative clause), the
Lipschitz and C_b^n symbol norms, bump localization and dyadic
Littlewood-Paley filter families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import OrderExceeded

_EPS = np.finfo(float).eps
FD_STEP = _EPS ** 0.2  # 4th-order central differences: h = eps^(1/5) * scale
CLUSTER_RTOL = 1e-6    # confluent-node snap: diameter < CLUSTER_RTOL*(1+max|node|)


def numeric_derivative(fn: Callable, scale: float = 1.0) -> Callable:
    """4th-order central-difference derivative of a vectorized callable."""
    h = FD_STEP * max(scale, 1e-6)

    def d(x):
        x = np.asarray(x, dtype=float)
        return (-fn(x + 2 * h) + 8 * fn(x + h) - 8 * fn(x - h) + fn(x - 2 * h)) / (12 * h)

    return d


@dataclass(frozen=True)
class SmoothSymbol:
    """Scalar symbol with derivative evaluators up to ``max_order``.

    ``derivs[k-1]`` evaluates F^(k), so ``max_order`` is ``len(derivs)``.
    ``poly_coeffs`` (ascending) is set when F is known to be a polynomial;
    its divided differences then take the one h_k route, F^[n] =
    sum_m c_m h_{m-n} (``_poly_tensor``).  ``kinks`` lists points where F
    fails to be smooth (excluded from the construction check).
    """

    func: Callable
    derivs: tuple = ()
    window: tuple = (-1.0, 1.0)
    poly_coeffs: Optional[tuple] = None
    kinks: tuple = ()
    name: str = ""
    check: bool = True

    def __post_init__(self):
        if self.window[1] <= self.window[0]:
            raise ValueError("window must be a nondegenerate interval")
        if self.check:
            self._sanity_check()

    def _sanity_check(self):
        # closed-form derivatives must agree with central differences away
        # from declared kinks (32-point sample, 1e-6 relative)
        a, b = self.window
        xs = np.linspace(a, b, 34)[1:-1] + (b - a) * 1.2345e-4
        scale = max(abs(a), abs(b), 1.0)
        h = FD_STEP * scale
        if self.kinks:
            keep = np.ones_like(xs, dtype=bool)
            for kx in self.kinks:
                keep &= np.abs(xs - kx) > 16 * h
            xs = xs[keep]
        prev = self.func
        for k in range(1, self.max_order + 1):
            with np.errstate(over="ignore", invalid="ignore"):  # the finite test below raises
                fd = numeric_derivative(prev, scale)(xs)
                cf = np.asarray(self.derivs[k - 1](xs))
            if not (np.all(np.isfinite(cf)) and np.all(np.isfinite(fd))):  # NaN fails no comparison
                raise ValueError(f"derivative order {k} is not finite on the window [{a:g}, {b:g}]")
            tol = 1e-6 * max(1.0, float(np.max(np.abs(cf))))
            if np.max(np.abs(cf - fd)) > tol:
                raise ValueError(
                    f"derivative order {k} disagrees with central differences "
                    f"(max dev {np.max(np.abs(cf - fd)):.2e} > {tol:.2e})"
                )
            prev = self.derivs[k - 1]
            if k >= 3:  # nested stencils degrade; orders 1-2 suffice as a check
                break

    @property
    def max_order(self) -> int:
        return len(self.derivs)

    def require_order(self, n: int, what: str):
        """The one order check: OrderExceeded when ``what`` needs n > max_order."""
        if n > self.max_order:
            raise OrderExceeded(f"{what} needs order {n} > max_order {self.max_order}")

    def __call__(self, x):
        return self.func(np.asarray(x))

    def deriv(self, k: int) -> Callable:
        if k == 0:
            return self.func
        self.require_order(k, "derivative")
        return self.derivs[k - 1]


def smoothness_order(F: SmoothSymbol, s: float) -> int:
    """The C_b^n order n = min(max(1, ceil(s)), max_order) read at smoothness s."""
    return min(max(1, math.ceil(s)), F.max_order)


# ---------------------------------------------------------------------------
# divided differences
# ---------------------------------------------------------------------------

def _snap_clusters(nodes: np.ndarray) -> np.ndarray:
    z = np.sort(np.asarray(nodes, dtype=float))
    tol = CLUSTER_RTOL * (1.0 + (float(np.max(np.abs(z))) if z.size else 0.0))
    out = z.copy()
    i = 0
    while i < len(z):
        j = i
        while j + 1 < len(z) and z[j + 1] - z[i] < tol:
            j += 1
        if j > i:
            out[i:j + 1] = np.mean(z[i:j + 1])
        i = j + 1
    return out


def divided_diff(F: SmoothSymbol, nodes) -> complex:
    """n-th divided difference F^[n] at n+1 nodes.

    Recursive quotient with the derivative clause at coincident nodes;
    near-coincident clusters are snapped to their mean first (the plain
    recursion is catastrophically cancellative there).  A polynomial symbol
    reads ``_poly_tensor`` on one-node spectra, the h_{m-n} route with no
    division.  For other symbols the relative accuracy floor sits at node
    gaps near CLUSTER_RTOL, where cancellation has already consumed about
    half the mantissa whatever the clustering choice.
    """
    nodes = np.atleast_1d(np.asarray(nodes, dtype=float))
    n = len(nodes) - 1
    if n < 0:
        raise ValueError("need at least one node")
    if F.poly_coeffs is not None:
        return _poly_tensor(F.poly_coeffs, nodes[:, None]).item()
    F.require_order(n, "divided difference")
    z = _snap_clusters(nodes)
    # Hermite table over sorted, snapped nodes
    col = np.asarray(F(z), dtype=np.complex128)
    fact = 1.0
    for j in range(1, n + 1):
        fact *= j
        new = np.empty(n + 1 - j, dtype=np.complex128)
        dj = None
        for i in range(n + 1 - j):
            if z[i + j] == z[i]:
                if dj is None:
                    dj = F.deriv(j)
                new[i] = complex(np.asarray(dj(z[i]))) / fact
            else:
                new[i] = (col[i + 1] - col[i]) / (z[i + j] - z[i])
        col = new
    return complex(col[0])


def divided_diff_tensor(F: SmoothSymbol, spectra: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor of F^[n] over the grid of the n+1 spectra.

    Entry (i_0..i_n) = divided_diff(F, (spectra[0][i_0], ..., spectra[n][i_n])),
    bit for bit, and complex128 for every symbol.  A polynomial symbol takes
    the h_k route (``_poly_tensor``).

    F^[n] is symmetric, so the generic path evaluates it once per distinct
    sorted node tuple, all tuples at once: one Hermite table whose rows are
    the tuples.
    """
    spectra = [np.atleast_1d(np.asarray(s, dtype=float)) for s in spectra]
    if F.poly_coeffs is not None:
        return _poly_tensor(F.poly_coeffs, spectra)
    n = len(spectra) - 1
    shape = tuple(len(s) for s in spectra)
    F.require_order(n, "divided difference")
    # nodes as ranks among the distinct node values: sorting and deduplicating
    # the tuples is then integer work on one key per tuple
    values, ranks = np.unique(np.concatenate(spectra), return_inverse=True)
    ranks = np.split(ranks.ravel(), np.cumsum(shape)[:-1])
    tuples = np.stack(np.meshgrid(*ranks, indexing="ij"), axis=-1).reshape(-1, n + 1)
    tuples.sort(axis=1)
    if len(values) ** (n + 1) < 2 ** 62:
        keys = tuples[:, 0].astype(np.int64)
        for j in range(1, n + 1):
            keys = keys * len(values) + tuples[:, j]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(tuples, axis=0, return_index=True, return_inverse=True)
    return _hermite_rows(F, values[tuples[first]])[inverse.ravel()].reshape(shape)


def _hermite_rows(F: SmoothSymbol, nodes: np.ndarray) -> np.ndarray:
    """``divided_diff`` of every row of an (m, n+1) array of sorted nodes."""
    m, n = nodes.shape[0], nodes.shape[1] - 1
    z = _snap_cluster_rows(nodes)
    col = np.asarray(F(z), dtype=np.complex128)
    fact = 1.0
    for j in range(1, n + 1):
        fact *= j
        lo, hi = z[:, :n + 1 - j], z[:, j:]
        confluent = hi == lo
        new = np.empty((m, n + 1 - j), dtype=np.complex128)
        gap = ~confluent
        new[gap] = (col[:, 1:][gap] - col[:, :-1][gap]) / (hi[gap] - lo[gap])
        if confluent.any():
            # F^(j) / j! once per distinct confluent node, on a scalar and with
            # Python's complex quotient, as divided_diff computes it: numpy's
            # vectorized evaluation and complex quotient can differ in the last bit
            dj = F.deriv(j)
            at, which = np.unique(lo[confluent], return_inverse=True)
            new[confluent] = np.array([complex(np.asarray(dj(x))) / fact for x in at],
                                      dtype=np.complex128)[which.ravel()]
        col = new
    return col[:, 0]


def _snap_cluster_rows(nodes: np.ndarray) -> np.ndarray:
    """``_snap_clusters`` applied to every row of an array of sorted nodes."""
    m, width = nodes.shape
    tol = CLUSTER_RTOL * (1.0 + np.max(np.abs(nodes), axis=1, initial=0.0))
    rows = np.arange(m)
    # lead[r, k]: the first node of the cluster that node k of row r joins
    lead = np.zeros((m, width), dtype=np.intp)
    for k in range(1, width):
        start = lead[:, k - 1]
        lead[:, k] = np.where(nodes[:, k] - nodes[rows, start] < tol, start, k)
    size = np.stack([np.count_nonzero(lead == s, axis=1) for s in range(width)], axis=1)
    out = nodes.copy()
    for s in range(width - 1):
        for length in range(2, width - s + 1):
            hit = np.flatnonzero(size[:, s] == length)
            if hit.size:
                out[hit, s:s + length] = np.mean(nodes[hit, s:s + length], axis=1)[:, None]
    return out


def _poly_tensor(coeffs, spectra) -> np.ndarray:
    """The polynomial F^[n] = sum_m c_m h_{m-n} over the grid of the n+1
    spectra, complex128: the h_k recurrence broadcast over the grid."""
    n = len(spectra) - 1
    shape = tuple(len(s) for s in spectra)
    kmax = len(coeffs) - 1 - n
    out = np.zeros(shape, dtype=np.complex128)
    if kmax < 0:
        return out
    # h[k] over growing node sets; spectrum j broadcast along axis j
    axes = [s.reshape((-1,) + (1,) * (n - j)) for j, s in enumerate(spectra)]
    hk: list = [np.ones((1,) * (n + 1))] + [np.zeros((1,) * (n + 1))] * kmax
    for xj in axes:
        for k in range(1, kmax + 1):
            hk[k] = hk[k] + xj * hk[k - 1]
    for m, c in enumerate(coeffs):
        if c != 0 and m >= n:
            out += c * np.broadcast_to(hk[m - n], shape)
    return out


# ---------------------------------------------------------------------------
# symbol-space norms
# ---------------------------------------------------------------------------

DEFAULT_GRID = 4096


def lipschitz_norm(F, window=None) -> float:
    """sup |F(x)-F(y)|/|x-y| over adjacent samples of a dense grid."""
    a, b = window if window is not None else F.window
    xs = np.linspace(a, b, DEFAULT_GRID)
    vals = np.asarray(F(xs))
    quot = np.abs(np.diff(vals)) / np.diff(xs)
    return float(np.max(quot))


def cb_norm(F: SmoothSymbol, n: int, window) -> float:
    """sup_{1<=k<=n} sup_window |F^(k)|."""
    F.require_order(n, f"C_b^{n} norm")
    if n < 1:
        raise ValueError("C_b^n norm requires n >= 1")
    xs = np.linspace(window[0], window[1], DEFAULT_GRID)
    return max(float(np.max(np.abs(np.asarray(F.deriv(k)(xs))))) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# bump localization and Littlewood-Paley filters
# ---------------------------------------------------------------------------

def smooth_step(t):
    """C-infinity step: 0 for t<=0, 1 for t>=1, built from exp(-1/t)."""
    t = np.asarray(t, dtype=float)
    a = np.zeros_like(t)
    b = np.zeros_like(t)
    pos = t > 0
    np.exp(np.divide(-1.0, t, out=np.full_like(t, -np.inf), where=pos), out=a, where=pos)
    neg = t < 1
    np.exp(np.divide(-1.0, 1.0 - t, out=np.full_like(t, -np.inf), where=neg), out=b, where=neg)
    return a / (a + b)


def bump_chi(r):
    """Smooth radial bump: 1 on |r|<=1, 0 on |r|>=2, in [0,1] between."""
    return 1.0 - smooth_step(np.abs(np.asarray(r, dtype=float)) - 1.0)


@dataclass(frozen=True)
class BumpLocalizer:
    """phi_M = 1 on [-M, M], 0 outside [-2M, 2M]; M = inf is the identity."""

    M: float

    def __post_init__(self):
        if not self.M > 0:
            raise ValueError("localizer scale M must be positive")

    def __call__(self, x):
        if math.isinf(self.M):
            return np.ones_like(np.asarray(x, dtype=float))
        return bump_chi(np.asarray(x, dtype=float) / self.M)


def localize(F: SmoothSymbol, loc: BumpLocalizer) -> SmoothSymbol:
    """F * phi_M; the M = inf convention returns F unchanged."""
    if math.isinf(loc.M):
        return F

    def prod(x):
        return np.asarray(F(x)) * loc(x)

    # Leibniz derivatives with numerically differentiated bump factors
    bump_ders = [loc.__call__]
    for _ in range(F.max_order):
        bump_ders.append(numeric_derivative(bump_ders[-1], loc.M))

    def make_deriv(k):
        def dk(x):
            x = np.asarray(x, dtype=float)
            total = np.zeros_like(x, dtype=np.complex128)
            for i in range(k + 1):
                total += math.comb(k, i) * np.asarray(F.deriv(i)(x)) * bump_ders[k - i](x)
            return total
        return dk

    window = (max(F.window[0], -2 * loc.M), min(F.window[1], 2 * loc.M))
    if window[1] <= window[0]:
        window = (-2 * loc.M, 2 * loc.M)
    return SmoothSymbol(func=prod, derivs=tuple(make_deriv(k) for k in range(1, F.max_order + 1)),
                        window=window, kinks=F.kinks, name=f"{F.name}*phi_{loc.M:g}", check=False)


class LPFilterFamily:
    """Dyadic Littlewood-Paley family built from one radial profile.

    phi is supported in {1/2 <= |xi| <= 2} with phi(xi) + phi(xi/2) = 1 on the
    transition annulus; the non-homogeneous zeroth filter is the inner bump.
    The same family serves every dimension: filters depend on |xi| only.
    """

    def base(self, r):
        return bump_chi(r) - bump_chi(2.0 * np.asarray(r, dtype=float))

    def phi_k(self, xi, k: int, homogeneous: bool = True):
        """Filter at dyadic scale k evaluated at scalar frequencies xi."""
        return self.radial_profile(np.abs(np.asarray(xi, dtype=float)), k, homogeneous)

    def radial_profile(self, r, k: int, homogeneous: bool = True) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if homogeneous or k >= 1:
            return self.base(r * 2.0 ** (-k))
        if k == 0:
            return bump_chi(r)
        return np.zeros_like(r)
