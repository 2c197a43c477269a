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

from .besov import apply_symbol
from .errors import BandOverflow, DimensionMismatch, OrderExceeded
from .linalg import HermitianOperator, eig_hermitian, func_calc, schatten_norm
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

    @property
    def total_order(self) -> int:
        return sum(sum(a) for a in self.args)


@dataclass(frozen=True)
class DerivationSpec:
    """Inner derivations [D_j, .] or the torus spectral derivations.

    For multi-axis inner derivations the generators must commute for the
    multi-index notation to be order-free; single-axis use is unrestricted.
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

    @property
    def axes(self) -> int:
        return len(self.generators) if self.kind == "inner" else 0


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
    """d^alpha u for either derivation kind (fixed axis order 0..d-1)."""
    if derivation.kind == "torus":
        return tor.derive_multi(u, alpha)
    gens = derivation.generators
    if len(alpha) != len(gens):
        raise DimensionMismatch("alpha length must match the generator count")
    x = u.data if isinstance(u, HermitianOperator) else np.asarray(u, dtype=np.complex128)
    for ax, a in enumerate(alpha):
        D = gens[ax].data
        for _ in range(int(a)):
            x = D @ x - x @ D
    return x


def evaluate_expansion(F: SmoothSymbol, u, terms: Sequence[ExpansionTerm],
                       derivation: DerivationSpec) -> np.ndarray:
    """sum coeff * T_{F^[l]}(d^{a_1}u, ..., d^{a_l}u) with all anchors u.

    Every anchor is u, so the symbol F^[l] over the spectrum of u depends on
    the order l alone, not on the arguments: each order's divided-difference
    tensor is built once and shared by all terms of that order.  Each distinct
    derivative d^a u is likewise realized once, however many terms use it.
    """
    max_l = max(t.order for t in terms)
    if F.poly_coeffs is None and max_l > F.max_order:
        raise OrderExceeded(f"expansion order {max_l} > symbol order {F.max_order}")
    distinct = dict.fromkeys(a for t in terms for a in t.args)
    if derivation.kind == "torus":
        u_mat = HermitianOperator(tor.to_matrix(u))
        args_of = {a: tor.to_matrix(tor.derive_multi(u, a)) for a in distinct}
    else:
        u_mat = u if isinstance(u, HermitianOperator) else HermitianOperator(u)
        args_of = {a: _apply_derivation(u_mat, a, derivation) for a in distinct}
    dec = eig_hermitian(u_mat)
    phi_of = {l: divided_diff_tensor(F, [dec.eigenvalues] * (l + 1))
              for l in {t.order for t in terms}}
    total = np.zeros_like(u_mat.data)
    for t in terms:
        ops = MOIOperands(anchors=(u_mat,) * (t.order + 1),
                          arguments=tuple(args_of[a] for a in t.args))
        total = total + t.coeff * moi_schur(F, ops, decompositions=[dec] * (t.order + 1),
                                            phi=phi_of[t.order])
    return total


def chain_rule_residual(F: SmoothSymbol, u, beta: Sequence[int],
                        derivation: DerivationSpec) -> float:
    """Normalized L2 distance between d^beta F(u) and its expansion.

    Inner derivations iterate the commutator on func_calc(u, F); torus
    derivations apply the spectral multiplier to F(u) and require the outer
    quarter band of F(u) to carry <= 1e-12 of its energy (wrap risk).
    """
    beta = tuple(int(b) for b in beta)
    terms = expand(beta)
    if derivation.kind == "torus":
        alg = u.algebra
        fu = apply_symbol(F, u)
        guard_band = (3 * alg.N) // 8
        kinf = np.max(np.stack([np.abs(g) for g in alg.k_grids]), axis=0)
        mass_out = float(np.linalg.norm(fu.coeffs[kinf > guard_band]))
        mass_all = float(np.linalg.norm(fu.coeffs))
        if mass_all > 0 and mass_out > 1e-12 * mass_all:
            raise BandOverflow(
                f"F(u) has {mass_out / mass_all:.2e} of its L2 mass beyond |k|_inf = {guard_band}; "
                "shrink the band or the polynomial degree"
            )
        lhs = tor.to_matrix(tor.derive_multi(fu, beta))
    else:
        x = func_calc(u if isinstance(u, HermitianOperator) else HermitianOperator(u), F)
        lhs = _apply_derivation(x, beta, derivation)
    rhs = evaluate_expansion(F, u, terms, derivation)
    scale = 1.0 + schatten_norm(lhs, 2) + schatten_norm(rhs, 2)
    return schatten_norm(lhs - rhs, 2) / scale
