"""Quantum Besov norms on the torus testbed, in three equivalent forms.

Multiplier (Littlewood-Paley) form, sampled difference/amplitude form and the
radial integral form, plus the inequality harnesses: doubling, block
difference bounds, heat smoothing, the Meyer decomposition, paraproducts
normalized by the derivative growth of their symbol sequences, and the
nonlinear ratios ``boundedness_ratio`` and ``symbol_ratios`` (boundedness and
Lipschitz from one F(u)).

The dyadic decomposition is fixed: blocks, block norms and partial sums all
read the non-homogeneous filter bank that the lattice owns
(``TorusAlgebra.lp_filters``), so no function takes a filter family.

Each form has a measure stage that does not depend on (s, q) beyond the
derivative order N, and a reduce stage that applies the weights and the l_q
sum: block norms and ``multiplier_form``; a ``DifferenceMeasure`` from a
``DifferenceGeometry`` and ``difference_form`` / ``integral_form``.  The heat
smoothing and paraproduct harnesses split the same way, so one measurement
serves every q.

All inequality checks are tolerance- or baseline-banded: the underlying
estimates carry implicit constants, so harnesses record empirical ratios and
assert non-regression, never fixed constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateInput, HypothesisViolation, SymbolHypothesisError
from .linalg import (HermitianOperator, SpectralDecomposition, diagonal_func_calc,
                     eig_hermitian, func_calc, func_calc_first_column, schatten_norm_batch)
from .symbols import SmoothSymbol
from . import torus as tor
from .torus import (AmplitudeSampling, TorusElement, block_count, difference, from_matrix,
                    heat, is_hermitian, lp_block, lp_norm, lp_norm_batch)


@dataclass(frozen=True)
class BesovIndex:
    """Smoothness s and integrability (p, q); q-sum over dyadic blocks."""

    s: float
    p: float = 2.0
    q: float = 2.0

    def __post_init__(self):
        for v in (self.p, self.q):
            if not v >= 1:
                raise ValueError(f"Besov integrability indices must be >= 1, got {v}")


def _lq_sum(terms: np.ndarray, q: float) -> float:
    return float(_lq_rows(np.asarray(terms, dtype=float)[None], q)[0])


def _lq_rows(terms: np.ndarray, q: float) -> np.ndarray:
    """The l_q norm of each row of a (batch, n) array, scaled by its largest
    term; every row has the bits it has alone."""
    if terms.shape[1] == 0:
        return np.zeros(len(terms))
    top = np.max(terms, axis=1)
    if math.isinf(q):
        return top
    out = np.zeros(len(terms))
    live = top != 0.0
    sums = np.sum((terms[live] / top[live, None]) ** q, axis=1)
    out[live] = top[live] * np.array([float(v) ** (1.0 / q) for v in sums])
    return out


def block_norms(x: TorusElement, p) -> np.ndarray:
    """||Delta_j x||_p for the finitely many nonzero blocks."""
    return block_norm_stack(x.algebra, x.coeffs[None], p)[0]


def block_norm_stack(algebra, coeff_stack: np.ndarray, p) -> np.ndarray:
    """``block_norms`` of each element of a (batch,) + algebra.shape
    coefficient stack, as a (batch, blocks) array from one ``lp_norm_batch``
    call."""
    bank = algebra.lp_filters
    blocks = (bank * coeff_stack[:, None]).reshape((-1,) + algebra.shape)
    return lp_norm_batch(algebra, blocks, p).reshape(len(coeff_stack), len(bank))


def besov_multiplier_norm(x: TorusElement, idx: BesovIndex) -> float:
    """(sum_j 2^{jsq} ||Delta_j x||_p^q)^{1/q}; sup over j when q = inf."""
    return multiplier_form(block_norms(x, idx.p), idx.s, idx.q)


def multiplier_norm_stack(algebra, coeff_stack: np.ndarray, idx: BesovIndex) -> np.ndarray:
    """``besov_multiplier_norm`` of each element of a (batch,) + algebra.shape
    coefficient stack, with the same bits: ``block_norm_stack`` in chunks
    whose block stacks realize at most REALIZATION_CHUNK_ENTRIES entries, then
    the weighted l_q sum of every row at once."""
    count = len(algebra.lp_filters)
    chunks = tor.realization_chunks(algebra, len(coeff_stack), entries=count * algebra.matrix_dim ** 2)
    norms = np.concatenate([block_norm_stack(algebra, coeff_stack[chunk], idx.p)
                            for chunk in chunks])
    return _lq_rows(2.0 ** (idx.s * np.arange(count)) * norms, idx.q)


def multiplier_form(norms: np.ndarray, s: float, q: float) -> float:
    """The multiplier norm from the block norms ||Delta_j x||_p."""
    weights = 2.0 ** (s * np.arange(len(norms)))
    return _lq_sum(weights * norms, q)


def default_n_der(s: float) -> int:
    """Default derivative order N of the difference forms: the largest integer N < s."""
    return min(int(math.floor(s)), max(0, int(math.ceil(s)) - 1))


def check_difference_hypotheses(idx: BesovIndex, m: int, n_der: int):
    """HypothesisViolation unless s > 0, m + N > s and 0 <= N < s."""
    if idx.s <= 0:
        raise HypothesisViolation("difference characterization needs s > 0")
    if m + n_der <= idx.s:
        raise HypothesisViolation(f"need m + N > s: {m} + {n_der} <= {idx.s}")
    if not 0 <= n_der < idx.s:
        raise HypothesisViolation(f"need 0 <= N < s, got N={n_der}, s={idx.s}")


@dataclass(frozen=True)
class RadialQuadrature:
    """Log-radial x spherical product rule for the integral Besov form, on
    radii 1e-3 <= |rho| <= 2 pi."""

    n_rad: int = 24
    n_dir: int = 8

    def rule(self) -> tuple:
        """(radii, log-radial trapezoid weights)."""
        radii = np.geomspace(1e-3, 2 * math.pi, self.n_rad)
        logr = np.log(radii)
        w = np.zeros_like(radii)
        w[1:-1] = 0.5 * (logr[2:] - logr[:-2])
        w[0] = 0.5 * (logr[1] - logr[0])
        w[-1] = 0.5 * (logr[-1] - logr[-2])
        return radii, w


# ---------------------------------------------------------------------------
# the difference forms: a q-free measure stage and a reduce stage per (s, q)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DifferenceMeasure:
    """What both difference forms read of one element x, for every s and q.

    base is ||x||_p.  Per axis i (rows) of d_i^N x: ``profiles`` holds the
    sampled amplitudes omega_p^m(2^-j, d_i^N x) over the dyadic range ``js``,
    ``keep`` marks the j that are not saturated (j < 0 with an amplitude
    within 1e-6 of the cap 2^m ||d_i^N x||_p, excluded since translations are
    2 pi periodic), and ``radial`` holds ||Delta_rho^m d_i^N x||_p over the
    quadrature's (direction, radius) grid.  A form that was not measured is
    None.
    """

    m: int
    n_der: int
    base: float
    js: Optional[np.ndarray] = None
    profiles: Optional[np.ndarray] = None
    keep: Optional[np.ndarray] = None
    radial: Optional[np.ndarray] = None
    quadrature: Optional[RadialQuadrature] = None


class DifferenceGeometry:
    """The tables that every element of one measurement shares: the
    derivative multipliers of d_i^N, the difference table of the quadrature
    and one difference table per dyadic range of the amplitude profile.

    A measure call builds one and drops it on return; nothing here is cached
    beyond the instance, so no table outlives the call that built it.
    """

    def __init__(self, algebra, m: int, n_der: int,
                 sampling: Optional[AmplitudeSampling] = None,
                 quadrature: Optional[RadialQuadrature] = None):
        d = algebra.d
        self.algebra, self.m, self.n_der = algebra, m, n_der
        self.derivatives = [tor.derivative_multiplier(algebra, tuple(n_der if ax == i else 0
                                                                     for ax in range(d)))
                            for i in range(d)]
        self.sampling, self.quadrature = sampling, quadrature
        if quadrature is not None:
            radii, _w = quadrature.rule()
            self._radial = tor.difference_table(algebra, tor.sphere_directions(d, quadrature.n_dir),
                                                radii, m)
        self._profiles: dict = {}

    def _profile(self, j_range: tuple) -> tuple:
        """(js, ascending ts, radii, j order of the ascending ts, table) of a dyadic range."""
        if j_range not in self._profiles:
            js = np.arange(j_range[0], j_range[1] + 1)
            ts = 2.0 ** (-js.astype(float))
            ascending = np.asarray(sorted(ts), dtype=float)
            radii = tor.amplitude_radii(ascending, self.sampling.n_rad)
            table = tor.difference_table(self.algebra, tor.sphere_directions(self.algebra.d,
                                                                             self.sampling.n_dir),
                                         radii, self.m)
            self._profiles[j_range] = (js, ascending, radii, np.argsort(ts), table)
        return self._profiles[j_range]

    def measure(self, x: TorusElement, p, j_range: Optional[tuple] = None) -> DifferenceMeasure:
        """The measurement of x: the profile if the geometry has a sampling,
        the radial norms if it has a quadrature."""
        alg = x.algebra
        # d_i^0 x = x on every axis: at N = 0 one row is measured for all d
        rows = self.derivatives[:1] if self.n_der == 0 else self.derivatives
        dxs = [x.coeffs * mult for mult in rows]
        head = lp_norm_batch(alg, np.stack([x.coeffs] + dxs), p)
        out = {"base": float(head[0])}
        if self.sampling is not None:
            if j_range is None:
                # truncate past the occupied band, not the lattice edge, so the
                # value is stable under lattice refinement of the same element
                nz = np.abs(x.coeffs) > 0
                kmax = float(np.max(alg.abs_k[nz])) if np.any(nz) else 1.0
                j_range = (-3, int(math.ceil(math.log2(max(kmax, 1.0)))) + 4)
            js, ts, radii, order, table = self._profile(tuple(j_range))
            profiles = np.empty((len(dxs), len(js)))
            for i, dx in enumerate(dxs):
                norms = _difference_norms(alg, dx, table, p)
                profiles[i, order] = tor.amplitude_from_norms(
                    norms.reshape(-1, len(radii)), radii, ts)
            caps = (2.0 ** self.m) * head[1:]
            keep = ~((js < 0) & (caps[:, None] > 0) & (profiles > (1 - 1e-6) * caps[:, None]))
            out.update(js=js, profiles=profiles, keep=keep)
        if self.quadrature is not None:
            qd = self.quadrature
            out.update(quadrature=qd, radial=np.stack([
                _difference_norms(alg, dx, self._radial, p).reshape(-1, qd.n_rad) for dx in dxs]))
        if len(dxs) < alg.d:  # the one row measured stands for every axis
            for key in ("profiles", "keep", "radial"):
                if key in out:
                    out[key] = np.repeat(out[key], alg.d, axis=0)
        return DifferenceMeasure(self.m, self.n_der, **out)


def _difference_norms(algebra, coeffs: np.ndarray, table: np.ndarray, p) -> np.ndarray:
    """||Delta x||_p for every multiplier of a difference table, built and
    normed in chunks of at most REALIZATION_CHUNK_ENTRIES coefficients: each
    chunk's difference stack and realization are still in cache when the
    next step reads them."""
    chunks = tor.realization_chunks(algebra, len(table), entries=coeffs.size)
    return np.concatenate([lp_norm_batch(algebra, tor._difference_stack(coeffs, table[chunk]), p)
                           for chunk in chunks])


def difference_form(meas: DifferenceMeasure, s: float, q: float, return_report: bool = False):
    """The sampled difference form from a measurement:
    ||x||_p + sum_i lq_j( 2^{j(s-N)} omega_p^m(2^{-j}, d_i^N x) ) over the kept j."""
    total = meas.base
    per_axis = []
    for keep, prof in zip(meas.keep, meas.profiles):
        terms = (2.0 ** (meas.js[keep] * (s - meas.n_der))) * prof[keep]
        val = _lq_sum(terms, q)
        per_axis.append(val)
        total += val
    if return_report:
        saturated = [(i, int(j)) for i, keep in enumerate(meas.keep) for j in meas.js[~keep]]
        return total, {"j_range": (int(meas.js[0]), int(meas.js[-1])), "saturated_excluded": saturated,
                       "n_der": meas.n_der, "m": meas.m, "per_axis": per_axis, "lp_term": meas.base}
    return total


def integral_form(meas: DifferenceMeasure, s: float, q: float) -> float:
    """The radial-integral form from a measurement: ||x||_p plus, per axis,
    the quadrature of (|rho|^{-s+N} ||Delta_rho^m d_i^N x||_p)^q drho/|rho|^d."""
    radii, w = meas.quadrature.rule()
    total = meas.base
    for norms in meas.radial:
        vals = radii ** (meas.n_der - s) * norms
        if math.isinf(q):
            total += float(np.max(vals))
        else:
            integrand = np.mean(vals ** q, axis=0)  # normalized sphere measure
            total += float(np.sum(integrand * w)) ** (1.0 / q)
    return total


def besov_difference_norm(x: TorusElement, idx: BesovIndex, m: int = 1,
                          n_der: Optional[int] = None,
                          j_range: Optional[tuple] = None,
                          sampling: AmplitudeSampling = AmplitudeSampling(16, 8),
                          return_report: bool = False):
    """Sampled difference form of the Besov norm.

    ||x||_p + sum_i lq_j( 2^{j(s-N)} omega_p^m(2^{-j}, d_i^N x) ) over the
    dyadic range j in [-J1, J2].  Amplitudes are sampled lower bounds of the
    true sup; translations are 2 pi periodic, so saturated large-t terms are
    excluded from the sum and flagged in the report.
    """
    if n_der is None:
        n_der = default_n_der(idx.s)
    check_difference_hypotheses(idx, m, n_der)
    meas = DifferenceGeometry(x.algebra, m, n_der, sampling=sampling).measure(x, idx.p, j_range)
    return difference_form(meas, idx.s, idx.q, return_report)


def besov_integral_norm(x: TorusElement, idx: BesovIndex, m: int = 1,
                        n_der: Optional[int] = None,
                        quadrature: RadialQuadrature = RadialQuadrature()) -> float:
    """Radial-integral difference form (normalized sphere measure).

    ||x||_p + sum_i ( int (|rho|^{-s+N} ||Delta_rho^m d_i^N x||_p)^q drho/|rho|^d )^{1/q}
    over |rho| <= 2 pi, by log-radial trapezoid times uniform directions.
    """
    if n_der is None:
        n_der = default_n_der(idx.s)
    check_difference_hypotheses(idx, m, n_der)
    meas = DifferenceGeometry(x.algebra, m, n_der, quadrature=quadrature).measure(x, idx.p)
    return integral_form(meas, idx.s, idx.q)


# ---------------------------------------------------------------------------
# inequality harnesses
# ---------------------------------------------------------------------------

def doubling_check(x: TorusElement, h, m: int, p) -> dict:
    """||Delta_h^m x||_p <= 2^m ||Delta_{h/2}^m x||_p with slack 1 + 1e-10.

    The inequality follows from Delta_h^m = (1 + T_{h/2})^m Delta_{h/2}^m and
    needs the translation T_{h/2} to be an L_p isometry.  At p = 2 that holds
    for every h (Parseval).  At p != 2 on the rational torus only lattice
    translations are inner automorphisms, so the check is sound only for
    steps with h/2 in 2 pi Z^d / N, i.e. h in 2 (2 pi / N) Z^d; other steps
    can fail it by the finite model's isometry defect.
    """
    h = np.asarray(h, dtype=float)
    lhs = lp_norm(difference(x, h, m), p)
    rhs = (2.0 ** m) * lp_norm(difference(x, h / 2.0, m), p)
    passed = lhs <= rhs * (1.0 + 1e-10) + 1e-300
    return {"lhs": lhs, "rhs": rhs, "passed": bool(passed),
            "ratio": lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)}


def block_difference_check(x: TorusElement, h, m: int, k: int, p) -> dict:
    """Ratio of ||Delta_h^m Block_k x||_p to min(1, |h|^m 2^{km}) ||Block_k x||_p."""
    return block_difference_checks(x, [(h, k)], m, p)[0]


def block_difference_checks(x: TorusElement, steps: Sequence[tuple], m: int, p) -> list:
    """``block_difference_check`` for each (h, k) of steps; every norm comes
    from one ``lp_norm_batch`` call."""
    hs = [np.asarray(h, dtype=float) for h, _k in steps]
    ks = [k for _h, k in steps]
    blocks = [lp_block(x, k) for k in ks]
    norms = lp_norm_batch(x.algebra, np.stack([b.coeffs for b in blocks]
                                              + [difference(b, h, m).coeffs
                                                 for b, h in zip(blocks, hs)]), p)
    out = []
    for h, k, denom_norm, lhs in zip(hs, ks, norms[:len(ks)], norms[len(ks):]):
        if denom_norm == 0.0:
            out.append({"skipped": True, "ratio": 0.0, "lhs": 0.0, "bound": 0.0})
            continue
        lhs = float(lhs)
        bound = min(1.0, float(np.linalg.norm(h)) ** m * 2.0 ** (k * m)) * float(denom_norm)
        out.append({"skipped": False, "lhs": lhs, "bound": bound, "ratio": lhs / bound})
    return out


def heat_smoothing_check(x: TorusElement, s: float, r: float, p, q,
                         ts: Sequence[float]) -> dict:
    """sup_t ||e^{tDelta} x||_{B^r} / ((1 + t^{(s-r)/2}) ||x||_{B^s})."""
    return heat_smoothing_ratios(heat_block_norms(x, p, ts), s, r, q, ts)


def heat_block_norms(x: TorusElement, p, ts: Sequence[float]) -> np.ndarray:
    """Block norms of x (row 0) and of e^{t Delta} x for each t of ts, from one
    ``lp_norm_batch`` call: the q-free part of ``heat_smoothing_check``."""
    return block_norm_stack(x.algebra, np.stack([x.coeffs] + [heat(x, t).coeffs for t in ts]), p)


def heat_smoothing_ratios(norms: np.ndarray, s: float, r: float, q, ts: Sequence[float]) -> dict:
    """``heat_smoothing_check`` from the ``heat_block_norms`` of x."""
    denom_base = multiplier_form(norms[0], s, q)
    ratios = []
    for t, heat_norms in zip(ts, norms[1:]):
        num = multiplier_form(heat_norms, r, q)
        factor = 1.0 + (t ** ((s - r) / 2.0) if t > 0 else (1.0 if s == r else math.inf))
        ratios.append(num / (factor * denom_base) if denom_base > 0 else 0.0)
    return {"sup_ratio": float(np.max(ratios)), "ratios": ratios, "ts": list(ts)}


# ---------------------------------------------------------------------------
# Meyer decomposition
# ---------------------------------------------------------------------------

def partial_sum(x: TorusElement, j: int) -> TorusElement:
    """S_j x = sum_{0<=k<=j} Block_k x, which is 0 for j < 0."""
    if j < 0:
        return tor.apply_multiplier(x, np.zeros(x.algebra.shape))
    sums = np.cumsum(x.algebra.lp_filters, axis=0)
    return tor.apply_multiplier(x, sums[min(j, len(sums) - 1)])


@functools.lru_cache(maxsize=None)
def _unit_gauss_legendre(order: int) -> tuple:
    """Gauss-Legendre nodes and weights of the given order on [0, 1] (read-only)."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    tq, wq = 0.5 * (nodes + 1.0), 0.5 * weights
    tq.flags.writeable = False
    wq.flags.writeable = False
    return tq, wq


def meyer_residual(u: TorusElement, xis: Sequence[float],
                   quad_orders: Sequence[int]) -> np.ndarray:
    """Operator-norm residuals of the dyadic decomposition of e^{i xi u} - 1,
    as an array over the grid of ``xis`` (rows) and ``quad_orders`` (columns),
    with the member axes of a stacked u in front.

    e^{i xi u} - 1 = G(S_0 u) S_0 u
                   + i xi sum_{j>=1} int_0^1 e^{i t xi S_j u} (Block_j u) e^{i (1-t) xi S_{j-1} u} dt
    with G(eta) = (e^{i xi eta} - 1)/eta (entire; value i xi at 0), evaluated
    by Gauss-Legendre quadrature of each order in t.  Exact telescoping
    requires the left exponent anchor S_j and the i xi factor.

    No decomposition depends on xi or the quadrature order: u, S_0 u and the
    partial sums S_j u of every member are realized and diagonalized once, in
    one stacked call, and each nonzero block is rotated into the eigenbases of
    S_j u (eigenvalues lam) and S_{j-1} u (mu) once.  The block integral is
    then the Schur product of the rotated block with L^T R, where
    L[t, a] = w_t e^{i t xi lam_a} and R[t, b] = e^{i (1-t) xi mu_b}: one
    matrix product per block and grid point covers every quadrature node and
    every member.  A block that is zero in some member but not in all adds an
    exact zero to that member.  Each grid point's norms are one stacked SVD.
    """
    if not is_hermitian(u):
        raise SymbolHypothesisError("Meyer decomposition requires Hermitian u")
    alg = u.algebra
    blocks = [j for j in range(1, block_count(alg))
              if float(np.max(np.abs(lp_block(u, j).coeffs))) >= 1e-300]
    sums = [u, partial_sum(u, 0)] + [partial_sum(u, j) for j in blocks]
    mats = tor.to_matrix(TorusElement(alg, np.stack([x.coeffs for x in sums]
                                                    + [lp_block(u, j).coeffs for j in blocks])))
    stacked = eig_hermitian(HermitianOperator(mats[:len(sums)]))
    decs = [SpectralDecomposition(w, v) for w, v in zip(stacked.eigenvalues, stacked.eigenvectors)]
    s0_mat = mats[1]
    # per nonzero block: the decompositions of S_j u and of the partial sum
    # before it, and the block rotated into their eigenbases
    rotated = [(cur, prev, cur.eigenvectors.conj().swapaxes(-1, -2) @ bmat @ prev.eigenvectors)
               for cur, prev, bmat in zip(decs[2:], decs[1:], mats[len(sums):])]
    out = np.empty(u.coeffs.shape[:u.coeffs.ndim - alg.d] + (len(xis), len(quad_orders)))
    for a, xi in enumerate(xis):
        lhs = decs[0].apply(lambda lam: np.exp(1j * xi * lam) - 1.0)
        if xi == 0.0:
            out[..., a, :] = schatten_norm_batch(lhs, math.inf)[..., None]
            continue

        def g_fn(lam):
            lam = np.asarray(lam, dtype=float)
            g = np.empty(lam.shape, dtype=np.complex128)
            small = np.abs(lam) < 1e-8
            g[~small] = (np.exp(1j * xi * lam[~small]) - 1.0) / lam[~small]
            g[small] = 1j * xi * (1.0 + 0.5j * xi * lam[small])
            return g

        rhs0 = decs[1].apply(g_fn) @ s0_mat
        for b, quad_order in enumerate(quad_orders):
            tq, wq = _unit_gauss_legendre(quad_order)
            rhs = rhs0
            for cur, prev, bm in rotated:
                vl, ll = cur.eigenvectors, cur.eigenvalues
                vr, lr = prev.eigenvectors, prev.eigenvalues
                left = wq[:, None] * np.exp(1j * tq[:, None] * xi * ll[..., None, :])
                right = np.exp(1j * (1.0 - tq)[:, None] * xi * lr[..., None, :])
                acc = bm * (left.swapaxes(-1, -2) @ right)
                rhs = rhs + 1j * xi * (vl @ acc @ vr.conj().swapaxes(-1, -2))
            out[..., a, b] = schatten_norm_batch(lhs - rhs, math.inf)
    return out


# ---------------------------------------------------------------------------
# paraproducts
# ---------------------------------------------------------------------------

def derivative_growth(seq: Sequence[TorusElement], k_max: int) -> list:
    """M_k = sup_{|alpha|<=k, j} 2^{-j|alpha|} ||d^alpha a_j||_inf for k <= k_max.

    Every sup norm comes from one ``lp_norm_batch`` call over the sequence.
    """
    alg = seq[0].algebra
    alphas = [(total, alpha) for total in range(k_max + 1) for alpha in _multiindices(alg.d, total)]
    mults = [tor.derivative_multiplier(alg, alpha) for _total, alpha in alphas]
    norms = lp_norm_batch(alg, np.stack([a.coeffs * mult for a in seq for mult in mults]),
                          math.inf).reshape(len(seq), len(alphas))
    sups: dict = {}
    for j, row in enumerate(norms):
        for (total, _alpha), norm in zip(alphas, row):
            val = float(norm) * 2.0 ** (-j * total)
            sups[total] = max(sups.get(total, 0.0), val)
    return [max(sups.get(t, 0.0) for t in range(k + 1)) for k in range(k_max + 1)]


def _multiindices(d: int, total: int):
    if d == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _multiindices(d - 1, total - first):
            yield (first,) + rest


@dataclass(frozen=True)
class PsdoSymbolSequence:
    """Block-indexed multiplier sequences a_j, b_j and their derivative growth.

    growth_a[k] = sup_{j, |alpha|<=k} 2^{-j|alpha|} ||d^alpha a_j||_inf for
    k <= 1 (``derivative_growth``), computed on construction; likewise
    growth_b.
    """

    a: tuple
    b: tuple
    growth_a: tuple = field(init=False)
    growth_b: tuple = field(init=False)

    def __post_init__(self):
        if len(self.a) != len(self.b) or not self.a:
            raise DegenerateInput("need equal-length nonempty sequences")
        object.__setattr__(self, "growth_a", tuple(derivative_growth(self.a, 1)))
        object.__setattr__(self, "growth_b", tuple(derivative_growth(self.b, 1)))


def apply_paraproduct(seq: PsdoSymbolSequence, u: TorusElement, idx: BesovIndex):
    """T_{a,b}(u) = sum_j a_j (Block_j u) b_j and its normalized Besov ratio."""
    out = paraproduct(seq, u)
    norms = block_norm_stack(u.algebra, np.stack([u.coeffs, out.coeffs]), idx.p)
    return out, paraproduct_report(seq, norms[0], norms[1], idx.s, idx.q)


def paraproduct(seq: PsdoSymbolSequence, u: TorusElement) -> TorusElement:
    """T_{a,b}(u) = sum_j a_j (Block_j u) b_j over the nonzero blocks; every
    factor is realized in one ``to_matrix_batch`` call."""
    alg = u.algebra
    blocks = [(j, lp_block(u, j)) for j in range(min(len(seq.a), block_count(alg)))]
    factors = [c for j, bj in blocks if not float(np.max(np.abs(bj.coeffs))) < 1e-300
               for c in (seq.a[j].coeffs, bj.coeffs, seq.b[j].coeffs)]
    total = np.zeros((alg.matrix_dim, alg.matrix_dim), dtype=np.complex128)
    if factors:
        mats = tor.to_matrix_batch(alg, np.stack(factors))
        for i in range(0, len(mats), 3):
            total += mats[i] @ mats[i + 1] @ mats[i + 2]
    return from_matrix(alg, total)


def paraproduct_report(seq: PsdoSymbolSequence, norms_in: np.ndarray, norms_out: np.ndarray,
                       s: float, q: float) -> dict:
    """The report of ``apply_paraproduct`` from the block norms of u and T_{a,b}(u).
    The ratio is normalised by the order-1 growth M_1 of each sequence,
    growth_a[1] and growth_b[1], whatever s."""
    m_a, m_b = seq.growth_a[1], seq.growth_b[1]
    nu = multiplier_form(norms_in, s, q)
    nout = multiplier_form(norms_out, s, q)
    ratio = nout / (m_a * m_b * nu) if m_a * m_b * nu > 0 else 0.0
    return {"ratio": ratio, "m_a": m_a, "m_b": m_b, "norm_in": nu, "norm_out": nout}


# ---------------------------------------------------------------------------
# nonlinear-estimate harnesses
# ---------------------------------------------------------------------------

def apply_symbol(F, u: TorusElement) -> TorusElement:
    """F(u) through the functional calculus of u's realization."""
    return TorusElement(u.algebra, apply_symbol_batch(F, u.algebra, u.coeffs[None, ...])[0])


def apply_symbol_batch(F, algebra, coeff_stack: np.ndarray) -> np.ndarray:
    """F(u) for every state of a (batch,) + algebra.shape coefficient stack.

    theta = 0: ``diagonal_func_calc`` on the grid values, the spectrum of the
    diagonal realization.  theta != 0: ``to_matrix_batch``, ``func_calc`` on
    the stack, ``from_matrix_batch``, taken in ``realization_chunks``.
    """
    if algebra.is_flat:
        return tor.from_grid_values(algebra, diagonal_func_calc(tor.grid_values(algebra, coeff_stack), F))
    out = np.empty(coeff_stack.shape, dtype=np.complex128)
    for chunk in tor.realization_chunks(algebra, len(coeff_stack)):
        # no name holds the realization, so it is freed once validated
        out[chunk] = tor.from_matrix_batch(algebra, func_calc(
            HermitianOperator(tor.to_matrix_batch(algebra, coeff_stack[chunk])), F).data)
    return out


def regular_apply_symbol(F, algebra, coeff_stack: np.ndarray) -> np.ndarray:
    """(batch, N^d) coefficients of F(u) for each Hermitian state of a theta = 0
    stack, from the left-regular realization and with no FFT.  L_u splits into
    the 2^d real symmetric blocks R_eps of ``regular_blocks``; since
    L_{F(u)} = F(L_u) and e_0 = 2^{-d/2} sum_eps f_0 of block eps, F(u) is
    2^{-d/2} U times the column 0 of each F(R_eps) (U = ``coset_basis``).  Only
    that column is built, one realization chunk at a time."""
    u = tor.coset_basis(algebra)
    weight = 2.0 ** (-0.5 * algebra.d)
    chunks = tor.realization_chunks(algebra, len(coeff_stack), entries=u.size >> algebra.d)
    return np.concatenate([
        func_calc_first_column(HermitianOperator(tor.regular_blocks(algebra, coeff_stack[chunk])), F)
        .reshape(-1, u.shape[1]) @ u.T * weight
        for chunk in chunks])


def _checked_besov_norm(F: SmoothSymbol, u: TorusElement, idx: BesovIndex) -> float:
    """||u||_B once the boundedness hypotheses hold: Hermitian u != 0,
    F(0) = 0 and F in C^ceil(s)."""
    if not is_hermitian(u):
        raise SymbolHypothesisError("boundedness harness requires Hermitian u")
    f0 = complex(np.asarray(F(np.array([0.0])))[0])
    if abs(f0) > 1e-12:
        raise SymbolHypothesisError(f"need F(0) = 0, got {f0}")
    if F.max_order < math.ceil(idx.s):
        raise HypothesisViolation(f"need F in C^{math.ceil(idx.s)}")
    nu = besov_multiplier_norm(u, idx)
    if nu == 0.0:
        raise DegenerateInput("u = 0")
    return nu


def boundedness_ratio(F: SmoothSymbol, u: TorusElement, idx: BesovIndex) -> float:
    """||F(u)||_B / ||u||_B for Hermitian u and F(0) = 0."""
    nu = _checked_besov_norm(F, u, idx)
    return besov_multiplier_norm(apply_symbol(F, u), idx) / nu


def symbol_ratios(F: SmoothSymbol, u: TorusElement, v: TorusElement, idx: BesovIndex) -> tuple:
    """(boundedness_ratio(F, u, idx), ||F(u) - F(v)||_B / ||u - v||_B, F(u))
    for Hermitian u != v, computing F(u) once."""
    nu = _checked_besov_norm(F, u, idx)
    fu = apply_symbol(F, u)
    ratio = besov_multiplier_norm(fu, idx) / nu
    if not is_hermitian(v):
        raise SymbolHypothesisError("Lipschitz harness requires Hermitian inputs")
    diff_norm = besov_multiplier_norm(u - v, idx)
    if diff_norm == 0.0:
        raise DegenerateInput("u == v")
    return ratio, besov_multiplier_norm(fu - apply_symbol(F, v), idx) / diff_norm, fu
