"""Symbolic generation and verification of the operator chain-rule expansion.

d^beta F(u) expands into integer-weighted multiple operator integrals
T_{F^[l]}(d^{a_1}u, ..., d^{a_l}u).  The weights are not prescribed anywhere;
they are produced by mechanizing the inductive differentiation step itself:
one derivative applied to an order-l term inserts the new derivative of u at
each of the l+1 anchor slots (raising the order) and bumps each existing
argument by Leibniz (keeping the order).  Ordered argument tuples are kept
distinct; only identical ordered tuples merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import BandOverflow, DimensionMismatch
from .linalg import (HermitianOperator, SpectralDecomposition, decomposed_func_calc,
                     eig_hermitian, hilbert_schmidt_norm_batch)
from .moi import MOIOperands, moi_schur
from .symbols import SmoothSymbol, divided_diff_tensor
from . import torus as tor


@dataclass(frozen=True)
class ExpansionTerm:
    """coeff * T_{F^[order]}(d^{args[0]} u, ..., d^{args[order-1]} u)."""

    order: int
    args: tuple          # ordered tuple of nonzero multi-indices
    coeff: int

    def __post_init__(self):
        if self.order != len(self.args) or self.order < 1:
            raise ValueError("order must equal the argument count")
        if any(sum(a) == 0 for a in self.args):
            raise ValueError("argument multi-indices must be nonzero")


@dataclass(frozen=True)
class DerivationSpec:
    """Inner derivations [D_j, .] or the torus spectral derivations.

    For multi-axis inner derivations the generators must commute for the
    multi-index notation to be order-free; single-axis use is unrestricted.
    A generator may be a (..., n, n) stack: member i of a stacked u is then
    derived by member i of each generator.
    """

    kind: str
    generators: tuple = ()

    def __post_init__(self):
        if self.kind not in ("inner", "torus"):
            raise ValueError("kind must be 'inner' or 'torus'")
        if self.kind == "inner":
            if not self.generators:
                raise ValueError("inner derivations need at least one generator")
            gens = tuple(g if isinstance(g, HermitianOperator) else HermitianOperator(g)
                         for g in self.generators)
            object.__setattr__(self, "generators", gens)


def expand(beta: Sequence[int]) -> list:
    """Expansion terms of d^beta F(u), like ordered tuples merged."""
    beta = tuple(int(b) for b in beta)
    if any(b < 0 for b in beta) or sum(beta) < 1:
        raise ValueError("beta must be a nonzero nonnegative multi-index")
    return [ExpansionTerm(order=len(args), args=args, coeff=c)
            for args, c in sorted(_expand_cached(beta).items())]


@lru_cache(maxsize=256)
def _expand_cached(beta: tuple) -> dict:
    d = len(beta)
    terms: Optional[dict] = None
    for axis in range(d):
        for _ in range(beta[axis]):
            terms = _differentiate(terms, axis, d)
    return terms


def _differentiate(terms: Optional[dict], axis: int, d: int) -> dict:
    e = tuple(1 if i == axis else 0 for i in range(d))
    if terms is None:
        return {(e,): 1}
    out: dict = {}
    for args, c in terms.items():
        l = len(args)
        for pos in range(l + 1):            # anchor-slot insertions: order l -> l+1
            new = args[:pos] + (e,) + args[pos:]
            out[new] = out.get(new, 0) + c
        for pos in range(l):                # Leibniz bumps on each argument
            bumped = tuple(a + b for a, b in zip(args[pos], e))
            new = args[:pos] + (bumped,) + args[pos + 1:]
            out[new] = out.get(new, 0) + c
    return out


def faa_di_bruno_weights(K: int) -> dict:
    """Set-partition counts of {1..K} keyed by sorted block-size tuple.

    Independent combinatorial oracle for the commutative collapse of the
    expansion: the count for block sizes mu equals the classical coefficient
    of F^(l) prod u^(mu_i) in the scalar K-th derivative of F(u).
    """
    counts: dict = {}
    # iterate over set partitions via restricted growth strings
    def rec(i, assignment, nblocks):
        if i == K:
            sizes = [0] * nblocks
            for a in assignment:
                sizes[a] += 1
            key = tuple(sorted(sizes))
            counts[key] = counts.get(key, 0) + 1
            return
        for b in range(nblocks):
            rec(i + 1, assignment + [b], nblocks)
        rec(i + 1, assignment + [nblocks], nblocks + 1)

    rec(0, [], 0)
    return counts


def commutative_collapse(terms: Sequence[ExpansionTerm]) -> dict:
    """Sum of coeffs over ordered tuples sharing a block-size multiset,
    divided by order factorial: must equal the set-partition counts
    (F^[l] at a fully coincident node is F^(l)/l!)."""
    agg: dict = {}
    for t in terms:
        key = tuple(sorted(sum(a) for a in t.args))
        agg[key] = agg.get(key, 0) + t.coeff
    out = {}
    for key, c in agg.items():
        l = len(key)
        q, r = divmod(c, math.factorial(l))
        out[key] = q if r == 0 else c / math.factorial(l)
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _apply_derivation(u, alpha: Sequence[int], derivation: DerivationSpec):
    """d^alpha u for inner derivations: iterated commutators, axes in order 0..d-1
    (of each member of a stack)."""
    gens = derivation.generators
    if len(alpha) != len(gens):
        raise DimensionMismatch("alpha length must match the generator count")
    x = u.data if isinstance(u, HermitianOperator) else np.asarray(u, dtype=np.complex128)
    for ax, a in enumerate(alpha):
        D = gens[ax].data
        for _ in range(int(a)):
            x = D @ x - x @ D
    return x


def _derivative_matrices(x, alphas: Sequence[tuple], derivation: DerivationSpec) -> dict:
    """{alpha: d^alpha x as a matrix, or a stack of them}; torus derivatives of
    every member are realized in one batch."""
    if derivation.kind == "torus":
        stack = np.stack([tor.derive_multi(x, a).coeffs for a in alphas])
        return dict(zip(alphas, tor.to_matrix(tor.TorusElement(x.algebra, stack))))
    return {a: _apply_derivation(x, a, derivation) for a in alphas}


def evaluate_expansion(F: SmoothSymbol, u: HermitianOperator, dec: SpectralDecomposition,
                       derivatives: dict, expansions: Sequence[Sequence[ExpansionTerm]]) -> list:
    """sum coeff * T_{F^[l]}(d^{a_1}u, ..., d^{a_l}u) with all anchors u, once per
    term list of ``expansions``.

    u is the realized anchor, dec its eigendecomposition and ``derivatives``
    maps each argument multi-index a to the matrix d^a u; all three may be
    stacks with one leading member axis, contracted in one ``moi_schur``
    call per term.  A polynomial F
    builds no tensor: ``moi_schur`` contracts its h_k recurrence on the
    matrices.  For any other F every anchor is u, so the symbol F^[l] over
    the spectrum of u depends on the order l alone: each order's
    divided-difference tensor is built once and shared by every term of that
    order in every expansion.
    """
    phi_of = {}
    if F.poly_coeffs is None:
        orders = {t.order for terms in expansions for t in terms}
        F.require_order(max(orders), "expansion")
        phi_of = {l: divided_diff_tensor(F, [dec.eigenvalues] * (l + 1)) for l in orders}
    out = []
    for terms in expansions:
        total = np.zeros_like(u.data)
        for t in terms:
            ops = MOIOperands(anchors=(u,) * (t.order + 1),
                              arguments=tuple(derivatives[a] for a in t.args))
            total = total + t.coeff * moi_schur(F, ops, decompositions=[dec] * (t.order + 1),
                                                phi=phi_of.get(t.order))
        out.append(total)
    return out


def chain_rule_residual(F: SmoothSymbol, u, betas: Sequence[Sequence[int]],
                        derivation: DerivationSpec) -> list:
    """Normalized L2 distance between d^beta F(u) and its expansion, one per
    multi-index beta of ``betas``; for a stack u, one such list per member.

    u is a matrix or a HermitianOperator for inner derivations and a
    TorusElement for torus derivations; either may be a stack with one leading
    member axis, run as one batch with the bits of one call per member.  u is
    realized and diagonalized once: the same decomposition gives F(u) and
    every expansion, whose derivatives d^a u (and divided-difference tensors,
    for a non-polynomial F) are built once for all betas.  Inner derivations
    iterate the commutator on F(u); torus derivations apply the spectral
    multiplier to F(u) and require the outer quarter band of each member's
    F(u) to carry <= 1e-12 of its energy (wrap risk).  The distance is the
    Hilbert-Schmidt norm of the normalized trace, relative to
    1 + ||lhs|| + ||rhs||, one matrix at a time.
    """
    betas = [tuple(int(b) for b in beta) for beta in betas]
    expansions = [expand(beta) for beta in betas]
    if derivation.kind == "torus":
        alg = u.algebra
        u_op = HermitianOperator(tor.to_matrix(u))
    else:
        u = u_op = u if isinstance(u, HermitianOperator) else HermitianOperator(u)
    dec = eig_hermitian(u_op)
    fu = decomposed_func_calc(dec, F)
    if derivation.kind == "torus":
        fu = tor.from_matrix(alg, fu.data)
        guard_band = (3 * alg.N) // 8
        outside = np.max(np.stack([np.abs(g) for g in alg.k_grids]), axis=0) > guard_band
        for c in fu.coeffs.reshape((-1,) + alg.shape):
            mass_out = float(np.linalg.norm(c[outside]))
            mass_all = float(np.linalg.norm(c))
            if mass_all > 0 and mass_out > 1e-12 * mass_all:
                raise BandOverflow(
                    f"F(u) has {mass_out / mass_all:.2e} of its L2 mass beyond |k|_inf = {guard_band}; "
                    "shrink the band or the polynomial degree"
                )
    lhs = _derivative_matrices(fu, list(dict.fromkeys(betas)), derivation)
    args = dict.fromkeys(a for terms in expansions for t in terms for a in t.args)
    rhs = evaluate_expansion(F, u_op, dec, _derivative_matrices(u, list(args), derivation),
                             expansions)
    out = np.empty(u_op.data.shape[:-2] + (len(betas),))
    for b, (beta, r) in enumerate(zip(betas, rhs)):
        l = lhs[beta]
        scale = 1.0 + hilbert_schmidt_norm_batch(l) + hilbert_schmidt_norm_batch(r)
        out[..., b] = hilbert_schmidt_norm_batch(l - r) / scale
    return out.tolist()
