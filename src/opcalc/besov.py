"""Quantum Besov norms on the torus testbed, in three equivalent forms.

Multiplier (Littlewood-Paley) form, sampled difference/amplitude form and the
radial integral form, plus the inequality harnesses: doubling, block
difference bounds, heat smoothing, the Meyer decomposition and paraproducts,
and the nonlinear boundedness/Lipschitz ratio harnesses.

The dyadic decomposition is fixed: blocks, block norms and partial sums all
read the non-homogeneous filter bank that the lattice owns
(``TorusAlgebra.lp_filters``), so no function takes a filter family.

All inequality checks are tolerance- or baseline-banded: the underlying
estimates carry implicit constants, so harnesses record empirical ratios and
assert non-regression, never fixed constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (CertificateViolation, DegenerateInput, HypothesisViolation,
                     SymbolHypothesisError)
from .linalg import (HermitianOperator, SpectralDecomposition, diagonal_func_calc,
                     eig_hermitian, func_calc)
from .symbols import SmoothSymbol
from . import torus as tor
from .torus import (AmplitudeSampling, TorusElement, amplitude_profile, block_count,
                    difference, derive_multi, from_matrix, heat, is_hermitian,
                    lp_block, lp_norm, lp_norm_batch, to_matrix)


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
    terms = np.asarray(terms, dtype=float)
    if terms.size == 0:
        return 0.0
    if math.isinf(q):
        return float(np.max(terms))
    top = float(np.max(terms))
    if top == 0.0:
        return 0.0
    return top * float(np.sum((terms / top) ** q)) ** (1.0 / q)


def block_norms(x: TorusElement, p) -> np.ndarray:
    """||Delta_j x||_p for the finitely many nonzero blocks."""
    return lp_norm_batch(x.algebra, x.algebra.lp_filters * x.coeffs, p)


def besov_multiplier_norm(x: TorusElement, idx: BesovIndex) -> float:
    """(sum_j 2^{jsq} ||Delta_j x||_p^q)^{1/q}; sup over j when q = inf."""
    norms = block_norms(x, idx.p)
    weights = 2.0 ** (idx.s * np.arange(len(norms)))
    return _lq_sum(weights * norms, idx.q)


def default_n_der(s: float) -> int:
    """Default derivative order N of the difference forms: the largest integer N < s."""
    return min(int(math.floor(s)), max(0, int(math.ceil(s)) - 1))


def _check_difference_hypotheses(idx: BesovIndex, m: int, n_der: int):
    if idx.s <= 0:
        raise HypothesisViolation("difference characterization needs s > 0")
    if m + n_der <= idx.s:
        raise HypothesisViolation(f"need m + N > s: {m} + {n_der} <= {idx.s}")
    if not 0 <= n_der < idx.s:
        raise HypothesisViolation(f"need 0 <= N < s, got N={n_der}, s={idx.s}")


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
    _check_difference_hypotheses(idx, m, n_der)
    if j_range is None:
        # truncate past the occupied band, not the lattice edge, so the value
        # is stable under lattice refinement of the same element
        nz = np.abs(x.coeffs) > 0
        kmax = float(np.max(x.algebra.abs_k[nz])) if np.any(nz) else 1.0
        j_range = (-3, int(math.ceil(math.log2(max(kmax, 1.0)))) + 4)
    j_lo, j_hi = j_range
    js = np.arange(j_lo, j_hi + 1)
    ts = 2.0 ** (-js.astype(float))
    base = lp_norm(x, idx.p)
    total = base
    saturated: list = []
    per_axis = []
    for i in range(x.algebra.d):
        dx = derive_multi(x, tuple(n_der if ax == i else 0 for ax in range(x.algebra.d)))
        cap = (2.0 ** m) * lp_norm(dx, idx.p)
        prof_sorted = amplitude_profile(dx, list(ts), m, idx.p, sampling)
        # amplitude_profile sorts ts ascending; map back to the j order
        order = np.argsort(ts)
        prof = np.empty_like(prof_sorted)
        prof[order] = prof_sorted
        keep = np.ones(len(js), dtype=bool)
        for pos, j in enumerate(js):
            if j < 0 and cap > 0 and prof[pos] > (1 - 1e-6) * cap:
                keep[pos] = False
                saturated.append((i, int(j)))
        terms = (2.0 ** (js[keep] * (idx.s - n_der))) * prof[keep]
        val = _lq_sum(terms, idx.q)
        per_axis.append(val)
        total += val
    if return_report:
        return total, {"j_range": (int(j_lo), int(j_hi)), "saturated_excluded": saturated,
                       "n_der": n_der, "m": m, "per_axis": per_axis, "lp_term": base}
    return total


@dataclass(frozen=True)
class RadialQuadrature:
    """Log-radial x spherical product rule for the integral Besov form, on
    radii 1e-3 <= |rho| <= 2 pi."""

    n_rad: int = 24
    n_dir: int = 8


def besov_integral_norm(x: TorusElement, idx: BesovIndex, m: int = 1,
                        n_der: Optional[int] = None,
                        quadrature: RadialQuadrature = RadialQuadrature()) -> float:
    """Radial-integral difference form (normalized sphere measure).

    ||x||_p + sum_i ( int (|rho|^{-s+N} ||Delta_rho^m d_i^N x||_p)^q drho/|rho|^d )^{1/q}
    over |rho| <= 2 pi, by log-radial trapezoid times uniform directions.
    """
    if n_der is None:
        n_der = default_n_der(idx.s)
    _check_difference_hypotheses(idx, m, n_der)
    qd = quadrature
    radii = np.geomspace(1e-3, 2 * math.pi, qd.n_rad)
    logr = np.log(radii)
    w = np.zeros_like(radii)
    w[1:-1] = 0.5 * (logr[2:] - logr[:-2])
    w[0] = 0.5 * (logr[1] - logr[0])
    w[-1] = 0.5 * (logr[-1] - logr[-2])
    dirs = tor.sphere_directions(x.algebra.d, qd.n_dir)
    total = lp_norm(x, idx.p)
    for i in range(x.algebra.d):
        dx = derive_multi(x, tuple(n_der if ax == i else 0 for ax in range(x.algebra.d)))
        stack = tor._difference_stack(dx, dirs, radii, m)
        norms = lp_norm_batch(x.algebra, stack, idx.p).reshape(len(dirs), len(radii))
        vals = radii ** (n_der - idx.s) * norms
        if math.isinf(idx.q):
            total += float(np.max(vals))
        else:
            integrand = np.mean(vals ** idx.q, axis=0)  # normalized sphere measure
            total += float(np.sum(integrand * w)) ** (1.0 / idx.q)
    return total


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
    h = np.asarray(h, dtype=float)
    bx = lp_block(x, k)
    denom_norm = lp_norm(bx, p)
    if denom_norm == 0.0:
        return {"skipped": True, "ratio": 0.0, "lhs": 0.0, "bound": 0.0}
    lhs = lp_norm(difference(bx, h, m), p)
    bound = min(1.0, float(np.linalg.norm(h)) ** m * 2.0 ** (k * m)) * denom_norm
    return {"skipped": False, "lhs": lhs, "bound": bound, "ratio": lhs / bound}


def heat_smoothing_check(x: TorusElement, s: float, r: float, p, q,
                         ts: Sequence[float]) -> dict:
    """sup_t ||e^{tDelta} x||_{B^r} / ((1 + t^{(s-r)/2}) ||x||_{B^s})."""
    denom_base = besov_multiplier_norm(x, BesovIndex(s, p, q))
    ratios = []
    for t in ts:
        num = besov_multiplier_norm(heat(x, t), BesovIndex(r, p, q))
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
    as an array over the grid of ``xis`` (rows) and ``quad_orders`` (columns).

    e^{i xi u} - 1 = G(S_0 u) S_0 u
                   + i xi sum_{j>=1} int_0^1 e^{i t xi S_j u} (Block_j u) e^{i (1-t) xi S_{j-1} u} dt
    with G(eta) = (e^{i xi eta} - 1)/eta (entire; value i xi at 0), evaluated
    by Gauss-Legendre quadrature of each order in t.  Exact telescoping
    requires the left exponent anchor S_j and the i xi factor.

    No decomposition depends on xi or the quadrature order: u, S_0 u and the
    partial sums S_j u are realized and diagonalized once, in one stacked
    call, and each nonzero block is rotated into the eigenbases of S_j u
    (eigenvalues lam) and S_{j-1} u (mu) once.  The block integral is then
    the Schur product of the rotated block with L^T R, where
    L[t, a] = w_t e^{i t xi lam_a} and R[t, b] = e^{i (1-t) xi mu_b}: one
    matrix product per block and grid point covers every quadrature node.
    """
    if not is_hermitian(u):
        raise SymbolHypothesisError("Meyer decomposition requires Hermitian u")
    alg = u.algebra
    blocks = [j for j in range(1, block_count(alg))
              if float(np.max(np.abs(lp_block(u, j).coeffs))) >= 1e-300]
    sums = [u, partial_sum(u, 0)] + [partial_sum(u, j) for j in blocks]
    mats = tor.to_matrix_batch(alg, np.stack([x.coeffs for x in sums]
                                             + [lp_block(u, j).coeffs for j in blocks]))
    stacked = eig_hermitian(HermitianOperator(mats[:len(sums)]))
    decs = [SpectralDecomposition(w, v) for w, v in zip(stacked.eigenvalues, stacked.eigenvectors)]
    s0_mat = mats[1]
    # per nonzero block: the decompositions of S_j u and of the partial sum
    # before it, and the block rotated into their eigenbases
    rotated = [(cur, prev, cur.eigenvectors.conj().T @ bmat @ prev.eigenvectors)
               for cur, prev, bmat in zip(decs[2:], decs[1:], mats[len(sums):])]
    out = np.empty((len(xis), len(quad_orders)))
    for a, xi in enumerate(xis):
        lhs = decs[0].apply(lambda lam: np.exp(1j * xi * lam) - 1.0)
        if xi == 0.0:
            out[a] = np.linalg.norm(lhs, 2)
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
                left = wq[:, None] * np.exp(1j * tq[:, None] * xi * ll[None, :])
                right = np.exp(1j * (1.0 - tq)[:, None] * xi * lr[None, :])
                acc = bm * (left.T @ right)
                rhs = rhs + 1j * xi * (vl @ acc @ vr.conj().T)
            out[a, b] = np.linalg.norm(lhs - rhs, 2)
    return out


# ---------------------------------------------------------------------------
# paraproducts
# ---------------------------------------------------------------------------

def sup_norm(x: TorusElement) -> float:
    return lp_norm(x, math.inf)


def derivative_growth(seq: Sequence[TorusElement], k_max: int) -> list:
    """M_k = sup_{|alpha|<=k, j} 2^{-j|alpha|} ||d^alpha a_j||_inf for k <= k_max."""
    sups: dict = {}
    for j, a in enumerate(seq):
        d = a.algebra.d
        for total in range(k_max + 1):
            for alpha in _multiindices(d, total):
                val = sup_norm(derive_multi(a, alpha)) * 2.0 ** (-j * total)
                key = total
                sups[key] = max(sups.get(key, 0.0), val)
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
    """Block-indexed multiplier sequences a_j, b_j with growth certificates.

    certificates[k] bounds 2^{-j|alpha|} ||d^alpha a_j||_inf over j and
    |alpha| <= k; they are recomputed and cross-checked on construction.
    """

    a: tuple
    b: tuple
    cert_a: tuple = ()
    cert_b: tuple = ()

    def __post_init__(self):
        if len(self.a) != len(self.b) or not self.a:
            raise DegenerateInput("need equal-length nonempty sequences")
        direct_a = derivative_growth(self.a, 1)
        direct_b = derivative_growth(self.b, 1)
        if not self.cert_a:
            object.__setattr__(self, "cert_a", tuple(direct_a))
        if not self.cert_b:
            object.__setattr__(self, "cert_b", tuple(direct_b))
        for direct, cert, name in ((direct_a, self.cert_a, "a"), (direct_b, self.cert_b, "b")):
            for k, dv in enumerate(direct):
                if k < len(cert) and dv > cert[k] * (1 + 1e-10):
                    raise CertificateViolation(
                        f"sequence {name}: direct growth {dv:.6g} at order {k} exceeds "
                        f"certificate {cert[k]:.6g}"
                    )

    def cert(self, which: str, k: int) -> float:
        cert = self.cert_a if which == "a" else self.cert_b
        return cert[min(k, len(cert) - 1)]


def apply_paraproduct(seq: PsdoSymbolSequence, u: TorusElement, idx: BesovIndex):
    """T_{a,b}(u) = sum_j a_j (Block_j u) b_j and its normalized Besov ratio."""
    alg = u.algebra
    total = np.zeros((alg.matrix_dim, alg.matrix_dim), dtype=np.complex128)
    for j in range(min(len(seq.a), block_count(alg))):
        bj = lp_block(u, j)
        if float(np.max(np.abs(bj.coeffs))) < 1e-300:
            continue
        total += to_matrix(seq.a[j]) @ to_matrix(bj) @ to_matrix(seq.b[j])
    out = from_matrix(alg, total)
    k = int(math.ceil(idx.s))
    m_a, m_b = seq.cert("a", k), seq.cert("b", k)
    nu = besov_multiplier_norm(u, idx)
    nout = besov_multiplier_norm(out, idx)
    ratio = nout / (m_a * m_b * nu) if m_a * m_b * nu > 0 else 0.0
    return out, {"ratio": ratio, "m_a": m_a, "m_b": m_b, "norm_in": nu, "norm_out": nout}


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
        mats = tor.to_matrix_batch(algebra, coeff_stack[chunk])
        out[chunk] = tor.from_matrix_batch(algebra, func_calc(HermitianOperator(mats), F).data)
    return out


def boundedness_ratio(F: SmoothSymbol, u: TorusElement, idx: BesovIndex) -> float:
    """||F(u)||_B / ||u||_B for Hermitian u and F(0) = 0."""
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
    return besov_multiplier_norm(apply_symbol(F, u), idx) / nu


def lipschitz_besov_ratio(F: SmoothSymbol, u: TorusElement, v: TorusElement,
                          idx: BesovIndex) -> float:
    """||F(u) - F(v)||_B / ||u - v||_B for Hermitian u != v."""
    if not (is_hermitian(u) and is_hermitian(v)):
        raise SymbolHypothesisError("Lipschitz harness requires Hermitian inputs")
    diff_norm = besov_multiplier_norm(u - v, idx)
    if diff_norm == 0.0:
        raise DegenerateInput("u == v")
    num = besov_multiplier_norm(apply_symbol(F, u) - apply_symbol(F, v), idx)
    return num / diff_norm
