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
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, HypothesisViolation, SymbolHypothesisError
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
    out[live] = top[live] * _root(np.sum((terms[live] / top[live, None]) ** q, axis=1), q)
    return out


def _root(values: np.ndarray, q: float) -> np.ndarray:
    """values ** (1/q) by Python's float power, one entry at a time: numpy's
    power does not always give its bits."""
    return np.array([v ** (1.0 / q) for v in values.ravel().tolist()]).reshape(values.shape)


def _ratio(num, den):
    """num / den where den > 0 and 0 elsewhere: a float of floats, an array of arrays."""
    num, den = np.broadcast_arrays(np.asarray(num, dtype=float), np.asarray(den, dtype=float))
    out = np.divide(num, den, out=np.zeros(num.shape), where=den > 0)
    return float(out) if out.ndim == 0 else out


def block_norms(x: TorusElement, p) -> np.ndarray:
    """||Delta_j x||_p for the finitely many nonzero blocks: a (..., blocks)
    array with the member axes of a stacked x in front.  The members are
    taken in chunks whose blocks hold at most REALIZATION_CHUNK_ENTRIES
    coefficients, and each chunk's blocks are one ``lp_norm`` call."""
    alg, bank = x.algebra, x.algebra.lp_filters
    stack = x.members()
    out = np.empty((len(stack), len(bank)))
    for chunk in tor.realization_chunks(alg, len(stack), entries=bank.size):
        out[chunk] = lp_norm(TorusElement(alg, bank * stack[chunk, None]), p)
    return x.per_member(out)


def besov_multiplier_norm(x: TorusElement, idx: BesovIndex):
    """(sum_j 2^{jsq} ||Delta_j x||_p^q)^{1/q}; sup over j when q = inf.  A
    float for one element, an array over the member axes for a stack."""
    return multiplier_form(block_norms(x, idx.p), idx.s, idx.q)


def multiplier_form(norms: np.ndarray, s: float, q: float):
    """The multiplier norm of each (..., blocks) row of block norms
    ||Delta_j x||_p: a float for one row, an array over the leading axes."""
    rows = norms.reshape(-1, norms.shape[-1])
    out = _lq_rows(2.0 ** (s * np.arange(rows.shape[1])) * rows, q).reshape(norms.shape[:-1])
    return float(out) if out.ndim == 0 else out


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
    """What both difference forms read of x, for every s and q; of a stack,
    base, profiles, keep and radial carry its member axes in front.

    base is ||x||_p.  Per axis i (rows) of d_i^N x: ``profiles`` holds the
    sampled amplitudes omega_p^m(2^-j, d_i^N x) over the measurement's
    dyadic range ``js``, ``keep`` marks the j that the difference form sums:
    those of x's own range that are not saturated (j < 0 with an amplitude
    within 1e-6 of the cap 2^m ||d_i^N x||_p, excluded since translations
    are 2 pi periodic), and ``radial`` holds ||Delta_rho^m d_i^N x||_p over
    the quadrature's (direction, radius) grid.  A form not measured is None.
    """

    m: int
    n_der: int
    base: object
    js: Optional[np.ndarray] = None
    profiles: Optional[np.ndarray] = None
    keep: Optional[np.ndarray] = None
    radial: Optional[np.ndarray] = None
    quadrature: Optional[RadialQuadrature] = None

    @staticmethod
    def concatenate(parts: Sequence["DifferenceMeasure"]) -> "DifferenceMeasure":
        """The measurement of a stack from those of its contiguous member
        slices, taken by one geometry."""
        return replace(parts[0], **{key: np.concatenate([getattr(part, key) for part in parts])
                                    for key in ("base", "profiles", "keep", "radial")
                                    if getattr(parts[0], key) is not None})


def _dyadic_top(kmax: float) -> int:
    """The last j of the amplitude profile of a band that reaches |k| = kmax."""
    return int(math.ceil(math.log2(max(kmax, 1.0)))) + 4


class DifferenceGeometry:
    """The tables that every member of one measurement shares: the
    derivative multipliers of d_i^N (``rows``) and the difference table of
    the quadrature.  ``measure`` builds the difference table of each dyadic
    range of the amplitude profile and drops it on return, so no table
    outlives the call that built it.
    """

    def __init__(self, algebra, m: int, n_der: int,
                 sampling: Optional[AmplitudeSampling] = None,
                 quadrature: Optional[RadialQuadrature] = None):
        d = algebra.d
        self.algebra, self.m, self.n_der = algebra, m, n_der
        # d_i^0 x = x on every axis: at N = 0 one row is measured for all d
        self.rows = np.stack([tor.derivative_multiplier(algebra, tuple(n_der if ax == i else 0
                                                                       for ax in range(d)))
                              for i in range(1 if n_der == 0 else d)])
        self.sampling, self.quadrature = sampling, quadrature
        if quadrature is not None:
            self._radial = tor.difference_table(algebra, tor.sphere_directions(d, quadrature.n_dir),
                                                quadrature.rule()[0], m)

    def measure(self, x: TorusElement, p, j_range: Optional[tuple] = None) -> DifferenceMeasure:
        """The measurement of x, or of each member of a stack: the profile
        if the geometry has a sampling, the radial norms if it has a
        quadrature.  Without a j_range each member's profile runs over its
        own dyadic range, which ends past its occupied band (the members of
        one range share its table), and js end past the lattice's band, so
        every measurement on one lattice has one shape."""
        alg, stack, rows = x.algebra, x.members(), self.rows
        out = {"base": lp_norm(TorusElement(alg, stack), p)}
        if self.sampling is not None:
            caps = (2.0 ** self.m) * np.stack([lp_norm(TorusElement(alg, stack * row), p)
                                               for row in rows], axis=1)[..., None]
            if j_range is None:
                # truncate past the occupied band, not the lattice edge, so the
                # value is stable under lattice refinement of the same element
                kmax = np.max(np.where(np.abs(stack) > 0, alg.abs_k, 0.0), axis=tuple(range(1, alg.d + 1)))
                tops = np.array([_dyadic_top(k) for k in kmax.tolist()])
                j_range = (-3, _dyadic_top(float(np.max(alg.abs_k))))
            else:
                tops = np.full(len(stack), j_range[1])
            js = np.arange(j_range[0], j_range[1] + 1)
            profiles = np.zeros((len(stack), len(rows), len(js)))
            directions = tor.sphere_directions(alg.d, self.sampling.n_dir)
            for top in np.unique(tops):
                group, ts = np.flatnonzero(tops == top), 2.0 ** -np.arange(top, js[0] - 1.0, -1.0)
                radii = tor.amplitude_radii(ts, self.sampling.n_rad)  # ts ascend as j descends
                norms = _difference_norms(alg, stack, group, rows,
                                          tor.difference_table(alg, directions, radii, self.m), p)
                profiles[np.ix_(group, range(len(rows)), range(top - js[0], -1, -1))] = \
                    tor.amplitude_from_norms(norms.reshape(norms.shape[:2] + (-1, len(radii))), radii, ts)
            saturated = (js < 0) & (caps > 0) & (profiles > (1 - 1e-6) * caps)
            out.update(profiles=profiles, keep=(js <= tops[:, None, None]) & ~saturated)
        if self.quadrature is not None:
            norms = _difference_norms(alg, stack, np.arange(len(stack)), rows, self._radial, p)
            out["radial"] = norms.reshape(norms.shape[:2] + (-1, self.quadrature.n_rad))
        for key in ("profiles", "keep", "radial"):
            if key in out:  # at N = 0 the one row measured stands for every axis
                out[key] = np.repeat(out[key], alg.d // len(rows), axis=1)
        return DifferenceMeasure(self.m, self.n_der, quadrature=self.quadrature,
                                 js=js if self.sampling is not None else None,
                                 **{key: x.per_member(value) for key, value in out.items()})


def _difference_norms(algebra, coeffs: np.ndarray, members: np.ndarray, mults: np.ndarray,
                      table: np.ndarray, p) -> np.ndarray:
    """||Delta (mult x)||_p for every x of coeffs[members], mult of mults and
    multiplier Delta of a difference table: a (members, mults, table) array.
    The (x, mult) rows are taken in chunks whose differences hold at most
    REALIZATION_CHUNK_ENTRIES coefficients (a row with more, in chunks of the
    table), so each chunk's difference stack and realization are still in
    cache when the next step reads them."""
    count = len(members) * len(mults)
    out = np.empty((count, len(table)))
    for rows in tor.realization_chunks(algebra, count, entries=table.size):
        pair = np.arange(count)[rows]
        dxs = coeffs[members[pair // len(mults)]] * mults[pair % len(mults)]
        for part in tor.realization_chunks(algebra, len(table), entries=dxs.size):
            out[rows, part] = lp_norm_batch(algebra, tor._difference_stack(dxs, table[part]),
                                            p).reshape(len(dxs), -1)
    return out.reshape(len(members), len(mults), len(table))


def _axis_total(base, per_axis: np.ndarray):
    """base plus the terms on the last axis of per_axis, added one axis after
    the other: a float for one element, an array over the member axes."""
    total = functools.reduce(np.add, np.moveaxis(per_axis, -1, 0), base)
    return float(total) if np.ndim(total) == 0 else total


def difference_form(meas: DifferenceMeasure, s: float, q: float):
    """The sampled difference form from a measurement:
    ||x||_p + sum_i lq_j( 2^{j(s-N)} omega_p^m(2^{-j}, d_i^N x) ) over the
    kept j; a float for one element, an array over the member axes."""
    terms = (2.0 ** (meas.js * (s - meas.n_der))) * meas.profiles
    rows, keep = terms.reshape(-1, terms.shape[-1]), meas.keep.reshape(-1, terms.shape[-1])
    # each row's kept terms packed in front in their order; rows with as
    # many kept terms are one _lq_rows call
    packed = np.take_along_axis(rows, np.argsort(~keep, axis=1, kind="stable"), axis=1)
    counts = np.sum(keep, axis=1)
    sums = np.empty(len(rows))
    for count in np.unique(counts):
        sums[counts == count] = _lq_rows(packed[counts == count, :count], q)
    return _axis_total(meas.base, sums.reshape(terms.shape[:-1]))


def integral_form(meas: DifferenceMeasure, s: float, q: float):
    """The radial-integral form from a measurement: ||x||_p plus, per axis,
    the quadrature of (|rho|^{-s+N} ||Delta_rho^m d_i^N x||_p)^q drho/|rho|^d;
    a float for one element, an array over the member axes."""
    radii, w = meas.quadrature.rule()
    vals = radii ** (meas.n_der - s) * meas.radial
    if math.isinf(q):
        return _axis_total(meas.base, np.max(vals, axis=(-2, -1)))
    integrand = np.mean(vals ** q, axis=-2)  # normalized sphere measure
    return _axis_total(meas.base, _root(np.sum(integrand * w, axis=-1), q))


def besov_difference_norm(x: TorusElement, idx: BesovIndex, m: int = 1,
                          n_der: Optional[int] = None,
                          j_range: Optional[tuple] = None,
                          sampling: AmplitudeSampling = AmplitudeSampling(16, 8)):
    """Sampled difference form of the Besov norm: a float for one element,
    an array over the member axes for a stack.

    ||x||_p + sum_i lq_j( 2^{j(s-N)} omega_p^m(2^{-j}, d_i^N x) ) over the
    dyadic range j in [-J1, J2].  Amplitudes are sampled lower bounds of the
    true sup; translations are 2 pi periodic, so saturated large-t terms are
    excluded from the sum.
    """
    if n_der is None:
        n_der = default_n_der(idx.s)
    check_difference_hypotheses(idx, m, n_der)
    meas = DifferenceGeometry(x.algebra, m, n_der, sampling=sampling).measure(x, idx.p, j_range)
    return difference_form(meas, idx.s, idx.q)


def besov_integral_norm(x: TorusElement, idx: BesovIndex, m: int = 1,
                        n_der: Optional[int] = None,
                        quadrature: RadialQuadrature = RadialQuadrature()):
    """Radial-integral difference form (normalized sphere measure): a float
    for one element, an array over the member axes for a stack.

    ||x||_p + sum_i ( int (|rho|^{-s+N} ||Delta_rho^m d_i^N x||_p)^q drho/|rho|^d )^{1/q}
    over |rho| <= 2 pi, by log-radial trapezoid times uniform directions.
    """
    if n_der is None:
        n_der = default_n_der(idx.s)
    check_difference_hypotheses(idx, m, n_der)
    meas = DifferenceGeometry(x.algebra, m, n_der, quadrature=quadrature).measure(x, idx.p)
    return integral_form(meas, idx.s, idx.q)


# ---------------------------------------------------------------------------
# inequality harnesses: of a stack, every value of a report is an array over
# its member axes
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
    stack = TorusElement(x.algebra, x.members())
    lhs = lp_norm(difference(stack, h, m), p)
    rhs = (2.0 ** m) * lp_norm(difference(stack, h / 2.0, m), p)
    ratio = np.where(rhs > 0, _ratio(lhs, rhs), np.where(lhs == 0, 0.0, math.inf))
    return {"lhs": x.per_member(lhs), "rhs": x.per_member(rhs),
            "passed": x.per_member(lhs <= rhs * (1.0 + 1e-10) + 1e-300),
            "ratio": x.per_member(ratio)}


def block_difference_check(x: TorusElement, h, m: int, k: int, p) -> dict:
    """Ratio of ||Delta_h^m Block_k x||_p to min(1, |h|^m 2^{km}) ||Block_k x||_p
    (of every member of a stack, at the one step h)."""
    return block_difference_checks(x, [[(h, k)]] * len(x.members()) if x.lead else [(h, k)], m, p)[0]


def block_difference_checks(x: TorusElement, steps: Sequence, m: int, p) -> list:
    """``block_difference_check`` for each (h, k) of steps: one report per
    step.  Of a stack, steps holds one list of (h, k) per member, in the
    order of ``members`` and all of one length.  Every norm comes from one
    ``lp_norm`` call."""
    alg, stack = x.algebra, x.members()
    plans = list(steps) if x.lead else [steps]
    if len(plans) != len(stack):
        raise DimensionMismatch(f"need one step list per member: {len(plans)} for {len(stack)} members")
    hs, ks = (np.array([[step[i] for step in plan] for plan in plans]) for i in (0, 1))
    # a block index past the bank selects the zero filter
    bank = np.concatenate([alg.lp_filters, np.zeros((1,) + alg.shape)])
    blocks = stack[:, None] * bank[np.where((ks >= 0) & (ks < block_count(alg)), ks, -1)]
    diffs = blocks * tor.difference_multiplier(alg, hs, m)
    denom, lhs = np.split(lp_norm(TorusElement(alg, np.concatenate([blocks, diffs], axis=1)), p), 2, axis=1)
    scale = np.array([min(1.0, float(np.linalg.norm(h)) ** m * 2.0 ** (k * m))
                      for plan in plans for h, k in plan]).reshape(ks.shape)
    skipped = denom == 0.0
    lhs, bound = np.where(skipped, 0.0, lhs), np.where(skipped, 0.0, scale * denom)
    values = {"skipped": skipped, "lhs": lhs, "bound": bound, "ratio": _ratio(lhs, bound)}
    return [{key: x.per_member(value[:, i]) for key, value in values.items()} for i in range(ks.shape[1])]


def heat_smoothing_check(x: TorusElement, s: float, r: float, p, q,
                         ts: Sequence[float]) -> dict:
    """sup_t ||e^{tDelta} x||_{B^r} / ((1 + t^{(s-r)/2}) ||x||_{B^s})."""
    return heat_smoothing_ratios(heat_block_norms(x, p, ts), s, r, q, ts)


def heat_block_norms(x: TorusElement, p, ts: Sequence[float]) -> np.ndarray:
    """Block norms of x (row 0) and of e^{t Delta} x for each t of ts, from one
    ``block_norms`` call: the q-free part of ``heat_smoothing_check``, with
    the member axes of a stack in front."""
    stack = TorusElement(x.algebra, x.members()[:, None])
    flows = np.concatenate([stack.coeffs] + [heat(stack, t).coeffs for t in ts], axis=1)
    return x.per_member(block_norms(TorusElement(x.algebra, flows), p))


def heat_smoothing_ratios(norms: np.ndarray, s: float, r: float, q, ts: Sequence[float]) -> dict:
    """``heat_smoothing_check`` from the ``heat_block_norms`` of x."""
    factors = np.array([1.0 + (t ** ((s - r) / 2.0) if t > 0 else (1.0 if s == r else math.inf))
                        for t in ts])
    denom = np.asarray(multiplier_form(norms[..., 0, :], s, q))[..., None]
    # scaled only where ||x||_B > 0: a zero x has ratio 0 at every t, even t = 0 with r != s
    scaled = np.multiply(factors, denom, out=np.zeros(np.broadcast_shapes(factors.shape, denom.shape)),
                         where=denom > 0)
    ratios = np.asarray(_ratio(multiplier_form(norms[..., 1:, :], r, q), scaled))
    if ratios.ndim == 1:  # of one element
        return {"sup_ratio": float(np.max(ratios)), "ratios": ratios.tolist(), "ts": list(ts)}
    return {"sup_ratio": np.max(ratios, axis=-1), "ratios": ratios, "ts": list(ts)}


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
    """M_k = sup_{|alpha|<=k, j} 2^{-j|alpha|} ||d^alpha a_j||_inf for k <= k_max:
    a list of floats, or, for a sequence of stacks of the same members, of
    arrays over their member axes.

    The sup norms of each a_j come from one ``lp_norm`` call.
    """
    alg = seq[0].algebra
    alphas = [(total, alpha) for total in range(k_max + 1) for alpha in _multiindices(alg.d, total)]
    totals = np.array([total for total, _alpha in alphas])
    mults = np.stack([tor.derivative_multiplier(alg, alpha) for _total, alpha in alphas])
    norms = np.stack([lp_norm(TorusElement(alg, np.expand_dims(a.coeffs, -alg.d - 1) * mults), math.inf)
                      for a in seq], axis=-2)
    vals = norms * 2.0 ** (-np.arange(len(seq))[:, None] * totals)
    sups = np.stack([np.max(vals[..., totals == total], axis=(-2, -1))
                     for total in range(k_max + 1)], axis=-1)
    growth = np.maximum.accumulate(np.maximum(sups, 0.0), axis=-1)
    return [g.item() if g.ndim == 0 else g for g in np.moveaxis(growth, -1, 0)]


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
    growth_b.  When the a_j and b_j are stacks of the same members, the
    sequence is one per member and so is its growth.
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
    norms = block_norms(TorusElement(u.algebra, np.stack([u.coeffs, out.coeffs])), idx.p)
    return out, paraproduct_report(seq, norms[0], norms[1], idx.s, idx.q)


def paraproduct(seq: PsdoSymbolSequence, u: TorusElement) -> TorusElement:
    """T_{a,b}(u) = sum_j a_j (Block_j u) b_j over the nonzero blocks: of u,
    or of each member of a stacked u with its own sequence (a sequence of
    stacks of the same members) or with one sequence for every member.  A
    block that is zero in some member but not in all adds an exact zero to
    that member.  Each block's factors are realized in one
    ``to_matrix_batch`` call."""
    alg, stack = u.algebra, u.members()
    total = np.zeros((len(stack), alg.matrix_dim, alg.matrix_dim), dtype=np.complex128)
    for j in range(min(len(seq.a), block_count(alg))):
        block = stack * alg.lp_filters[j]
        zero = np.max(np.abs(block), axis=tuple(range(1, alg.d + 1))) < 1e-300
        if zero.all():
            continue
        block[zero] = 0.0
        a, b = seq.a[j].members(), seq.b[j].members()
        mats = tor.to_matrix_batch(alg, np.concatenate([a, block, b]))
        total += mats[:len(a)] @ mats[len(a):len(a) + len(block)] @ mats[len(a) + len(block):]
    return from_matrix(alg, total.reshape(u.lead + total.shape[1:]))


def paraproduct_report(seq: PsdoSymbolSequence, norms_in: np.ndarray, norms_out: np.ndarray,
                       s: float, q: float) -> dict:
    """The report of ``apply_paraproduct`` from the block norms of u and T_{a,b}(u).
    The ratio is normalised by the order-1 growth M_1 of each sequence,
    growth_a[1] and growth_b[1], whatever s."""
    m_a, m_b = seq.growth_a[1], seq.growth_b[1]
    nu = multiplier_form(norms_in, s, q)
    nout = multiplier_form(norms_out, s, q)
    return {"ratio": _ratio(nout, m_a * m_b * nu), "m_a": m_a, "m_b": m_b,
            "norm_in": nu, "norm_out": nout}


# ---------------------------------------------------------------------------
# nonlinear-estimate harnesses
# ---------------------------------------------------------------------------

def apply_symbol(F, u: TorusElement) -> TorusElement:
    """F(u) through the functional calculus of u's realization, of u or of
    each member of a stack.

    theta = 0: ``diagonal_func_calc`` on the grid values, the spectrum of the
    diagonal realization.  theta != 0: ``to_matrix_batch``, ``func_calc`` on
    the stack, ``from_matrix_batch``, taken in ``realization_chunks``.
    """
    alg, stack = u.algebra, u.members()
    if alg.is_flat:
        out = tor.from_grid_values(alg, diagonal_func_calc(tor.grid_values(alg, stack), F))
    else:
        out = np.empty(stack.shape, dtype=np.complex128)
        for chunk in tor.realization_chunks(alg, len(stack)):
            # no name holds the realization, so it is freed once validated
            out[chunk] = tor.from_matrix_batch(alg, func_calc(
                HermitianOperator(tor.to_matrix_batch(alg, stack[chunk])), F).data)
    return TorusElement(alg, out.reshape(u.coeffs.shape))


def regular_apply_symbol(F, u: TorusElement) -> TorusElement:
    """F(u) for Hermitian u at theta = 0 (of each member of a stack), from the
    left-regular realization and with no FFT.  L_u splits into the 2^d real
    symmetric blocks R_eps of ``regular_blocks``; since L_{F(u)} = F(L_u) and
    e_0 = 2^{-d/2} sum_eps f_0 of block eps, F(u) is 2^{-d/2} U times the
    column 0 of each F(R_eps) (U = ``coset_basis``).  Only that column is
    built, one realization chunk at a time."""
    alg, stack = u.algebra, u.members()
    basis = tor.coset_basis(alg)
    out = np.empty((len(stack), basis.shape[0]), dtype=np.complex128)
    for chunk in tor.realization_chunks(alg, len(stack), entries=basis.size >> alg.d):
        column = func_calc_first_column(HermitianOperator(tor.regular_blocks(alg, stack[chunk])), F)
        out[chunk] = column.reshape(-1, basis.shape[1]) @ basis.T * 2.0 ** (-0.5 * alg.d)
    return TorusElement(alg, out.reshape(u.coeffs.shape))


def _checked_besov_norm(F: SmoothSymbol, u: TorusElement, idx: BesovIndex):
    """||u||_B once the boundedness hypotheses hold, for every member of a
    stacked u: Hermitian u != 0, F(0) = 0 and F in C^ceil(s)."""
    if not is_hermitian(u):
        raise SymbolHypothesisError("boundedness harness requires Hermitian u")
    f0 = complex(np.asarray(F(np.array([0.0])))[0])
    if abs(f0) > 1e-12:
        raise SymbolHypothesisError(f"need F(0) = 0, got {f0}")
    if F.max_order < math.ceil(idx.s):
        raise HypothesisViolation(f"need F in C^{math.ceil(idx.s)}")
    nu = besov_multiplier_norm(u, idx)
    if np.any(nu == 0.0):
        raise DegenerateInput("u = 0")
    return nu


def boundedness_ratio(F: SmoothSymbol, u: TorusElement, idx: BesovIndex):
    """||F(u)||_B / ||u||_B for Hermitian u and F(0) = 0 (per member of a
    stacked u)."""
    nu = _checked_besov_norm(F, u, idx)
    return besov_multiplier_norm(apply_symbol(F, u), idx) / nu


def symbol_ratios(F: SmoothSymbol, u: TorusElement, v: TorusElement, idx: BesovIndex) -> tuple:
    """(boundedness_ratio(F, u, idx), ||F(u) - F(v)||_B / ||u - v||_B, F(u))
    for Hermitian u != v, computing F(u) once; per member when u and v are
    stacks of one shape."""
    nu = _checked_besov_norm(F, u, idx)
    fu = apply_symbol(F, u)
    ratio = besov_multiplier_norm(fu, idx) / nu
    if not is_hermitian(v):
        raise SymbolHypothesisError("Lipschitz harness requires Hermitian inputs")
    diff_norm = besov_multiplier_norm(u - v, idx)
    if np.any(diff_norm == 0.0):
        raise DegenerateInput("u == v")
    return ratio, besov_multiplier_norm(fu - apply_symbol(F, v), idx) / diff_norm, fu
