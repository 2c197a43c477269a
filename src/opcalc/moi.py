"""Multiple operator integrals on finite Hermitian matrices.

The exact eigenprojection (Schur) form, the binned discretization over
intervals [l/m, (l+1)/m) (the Schur form with a bin-constant tensor), the
Loewner identity and the anchor-perturbation formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ComplexityExceeded, DegenerateInput, DimensionMismatch, NonUnitary
from .linalg import (HermitianOperator, SpectralDecomposition, eig_hermitian,
                     func_calc, schatten_norm, spectral_product)
from .symbols import SmoothSymbol, divided_diff_tensor

# N^(n+2) flop proxy of the dense contraction; admits n<=3 at N<=32.  The
# polynomial kernel costs less, but the guard is the dense proxy for both
# kernels, so that which kernel runs never decides whether an input is refused.
DEFAULT_COST_CAP = 32 ** 5


@dataclass(frozen=True)
class MOIOperands:
    """Anchors A_0..A_n and arguments X_1..X_n of one MOI evaluation."""

    anchors: tuple
    arguments: tuple

    def __post_init__(self):
        anchors = tuple(a if isinstance(a, HermitianOperator) else HermitianOperator(a)
                        for a in self.anchors)
        object.__setattr__(self, "anchors", anchors)
        args = tuple(np.asarray(x, dtype=np.complex128) for x in self.arguments)
        object.__setattr__(self, "arguments", args)
        if len(anchors) != len(args) + 1:
            raise DimensionMismatch(
                f"order-n MOI needs n+1 anchors: got {len(anchors)} anchors, {len(args)} arguments"
            )
        n = anchors[0].n
        for a in anchors:
            if a.n != n:
                raise DimensionMismatch("anchors have different dimensions")
        for x in args:
            if x.shape != (n, n):
                raise DimensionMismatch(f"argument shape {x.shape} != ({n}, {n})")

    @property
    def order(self) -> int:
        return len(self.arguments)

    @property
    def dim(self) -> int:
        return self.anchors[0].n


def _check_cost(order: int, dim: int):
    if dim ** (order + 2) > DEFAULT_COST_CAP:
        raise ComplexityExceeded(
            f"MOI order {order} at dimension {dim} costs ~{dim ** (order + 2):.2e} "
            f"> cap {DEFAULT_COST_CAP:.2e}"
        )


def _contract(phi: np.ndarray, rotated: Sequence[np.ndarray]) -> np.ndarray:
    """Sum phi(i_0..i_n) X~_1[i_0,i_1] ... X~_n[i_{n-1},i_n] over inner indices, n <= 3.

    phi is complex128, as ``moi_schur`` passes it.  Order 3 runs in two
    stages: W[j,k,l] = X~_2[j,k] X~_3[k,l] and the k-sum
    T[i,j,l] = sum_k phi[i,j,k,l] W[j,k,l], then the j-sum against X~_1.
    Only the k-sum touches all n^4 entries of phi; the other two stages cost
    n^3 each.
    """
    n = len(rotated)
    if n == 1:
        return phi * rotated[0]
    if n == 2:
        return np.einsum("ijk,ij,jk->ik", phi, rotated[0], rotated[1])
    w = rotated[1][:, :, None] * rotated[2][None, :, :]
    return np.einsum("ij,ijl->il", rotated[0], np.einsum("ijkl,jkl->ijl", phi, w))


def _poly_contract(coeffs, spectra: Sequence[np.ndarray],
                   rotated: Sequence[np.ndarray]) -> np.ndarray:
    """The contraction of the polynomial F^[n] = sum_m c_m h_{m-n}, on matrices:

        sum_m c_m sum_{i_0+..+i_n = m-n} Lam_0^{i_0} X~_1 Lam_1^{i_1} ... X~_n Lam_n^{i_n}.

    ``_poly_tensor``'s h_k recurrence carried slot by slot: after slot r,
    q[k] = P_r[k] is the sum over i_0+..+i_r = k, and
    P_r[k] = P_{r-1}[k] X~_r + P_r[k-1] Lam_r with P_0[k] = Lam_0^k.  That is
    deg - n + 1 matrix products per slot and no division, so repeated
    eigenvalues need no special case.  Degree below n gives an exact zero.
    """
    n = len(rotated)
    kmax = len(coeffs) - 1 - n
    if kmax < 0:
        return np.zeros(rotated[0].shape, dtype=np.complex128)
    q = np.empty((kmax + 1,) + rotated[0].shape, dtype=np.complex128)
    q[0] = rotated[0]
    for k in range(1, kmax + 1):
        q[k] = spectra[0][:, None] * q[k - 1]       # Lam_0^k X~_1
    for r in range(1, n + 1):
        if r > 1:
            q = q @ rotated[r - 1]
        for k in range(1, kmax + 1):
            q[k] += q[k - 1] * spectra[r]
    return np.tensordot(np.asarray(coeffs[n:]), q, axes=1)


def moi_schur(F, ops: MOIOperands,
              decompositions: Optional[Sequence[SpectralDecomposition]] = None,
              phi: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact finite-dimensional MOI in the eigenprojection (Schur) form.

    T(X_1..X_n) = sum F^[n](lam0_{i0},..,lamn_{in}) P0_{i0} X_1 P1_{i1} ... X_n Pn_{in}.

    Two kernels compute it.  For a polynomial F (``poly_coeffs`` set), order
    n >= 1 and no ``phi``, the h_k recurrence runs on the rotated arguments
    (``_poly_contract``) and no F^[n] tensor is built.  Otherwise the
    divided-difference tensor phi = F^[n] over the spectra is contracted
    densely, at O(N^(n+2)).  The cost guard and the order limit n <= 3 hold
    for both kernels.

    ``phi`` overrides the divided-difference tensor and selects the dense
    kernel (expert path, used by the binned form, by the chain-rule expansion
    to share one F^[n] among terms with the same anchors, and by the
    constant-symbol tests).  Any phi is taken as complex128, the dtype
    ``divided_diff_tensor`` gives for every symbol.  ``decompositions``
    supplies precomputed spectra, e.g. to test basis independence under
    degeneracy.
    """
    n = ops.order
    _check_cost(n, ops.dim)
    if n > 3:
        raise ComplexityExceeded("MOI orders above 3 are not supported")
    decs = list(decompositions) if decompositions is not None else [eig_hermitian(a) for a in ops.anchors]
    if len(decs) != n + 1:
        raise DimensionMismatch("need one spectral decomposition per anchor")
    rotated = [decs[j].eigenvectors.conj().T @ ops.arguments[j] @ decs[j + 1].eigenvectors
               for j in range(n)]
    if n >= 1 and phi is None and F.poly_coeffs is not None:
        core = _poly_contract(F.poly_coeffs, [d.eigenvalues for d in decs], rotated)
    else:
        if phi is None:
            phi = divided_diff_tensor(F, [d.eigenvalues for d in decs])
        phi = np.asarray(phi, dtype=np.complex128)
        if phi.shape != tuple(len(d.eigenvalues) for d in decs):
            raise DimensionMismatch(f"phi tensor shape {phi.shape} mismatches spectra")
        if n == 0:
            return spectral_product(decs[0].eigenvectors, phi)
        core = _contract(phi, rotated)
    return decs[0].eigenvectors @ core @ decs[-1].eigenvectors.conj().T


def moi_binned(F, ops: MOIOperands, m: int = 32,
               decompositions: Optional[Sequence[SpectralDecomposition]] = None) -> np.ndarray:
    """Binned MOI S_{phi,m}: spectral projections onto [l/m, (l+1)/m).

    A bin projection is the sum of its eigenprojections, so S_{phi,m} is the
    Schur form with a bin-constant tensor: every eigenvalue in bin l takes the
    phi = F^[n] entry of the left endpoint l/m.  Eigenvalues on a bin boundary
    belong to the left-closed bin.  ``decompositions`` supplies the anchors'
    spectra, as in ``moi_schur``, so that the exact form and every resolution
    m share one decomposition per anchor.
    """
    if m < 1:
        raise ValueError("bin resolution m must be >= 1")
    _check_cost(ops.order, ops.dim)
    decs = list(decompositions) if decompositions is not None else [eig_hermitian(a) for a in ops.anchors]
    if len(decs) != ops.order + 1:
        raise DimensionMismatch("need one spectral decomposition per anchor")
    endpoints, members = [], []
    for dec in decs:
        t = dec.eigenvalues * m
        r = np.round(t)
        # left-closed bins [l/m, (l+1)/m); values within fp noise of a
        # boundary are snapped onto it so they land in their own bin
        labels = np.where(np.abs(t - r) < 1e-9, r, np.floor(t)).astype(int)
        uniq, inverse = np.unique(labels, return_inverse=True)
        endpoints.append(uniq / m)
        members.append(inverse)
    # F^[n] once per occupied-bin tuple, repeated for every eigenvalue of the bin
    phi = divided_diff_tensor(F, endpoints)[np.ix_(*members)]
    return moi_schur(F, ops, decompositions=decs, phi=phi)


def loewner_residual(F: SmoothSymbol, X: HermitianOperator, Y: HermitianOperator) -> float:
    """|| F(X) - F(Y) - T^{X,Y}_{F^[1]}(X - Y) ||_2."""
    X = X if isinstance(X, HermitianOperator) else HermitianOperator(X)
    Y = Y if isinstance(Y, HermitianOperator) else HermitianOperator(Y)
    if X.n != Y.n:
        raise DimensionMismatch("X and Y must share dimension")
    fx = func_calc(X, F).data
    fy = func_calc(Y, F).data
    ops = MOIOperands(anchors=(X, Y), arguments=(X.data - Y.data,))
    t = moi_schur(F, ops)
    return schatten_norm(fx - fy - t, 2)


def perturbation_residual(F: SmoothSymbol, slot: int, A: HermitianOperator, B: HermitianOperator,
                          anchors: Sequence, arguments: Sequence) -> float:
    """Residual of the anchor-perturbation formula at the given slot.

    || T^{..A..}(X) - T^{..B..}(X) - T^{..A,B..}(X_1..X_slot, A-B, X_{slot+1}..X_n) ||_2
    with A placed at anchor position ``slot`` (0-based among n+1 anchors).
    """
    A = A if isinstance(A, HermitianOperator) else HermitianOperator(A)
    B = B if isinstance(B, HermitianOperator) else HermitianOperator(B)
    anchors = list(anchors)
    n = len(arguments)
    if not 0 <= slot <= n:
        raise DimensionMismatch(f"slot must be in 0..{n}")
    if len(anchors) != n:
        raise DimensionMismatch("need n unperturbed anchors for an order-n formula")
    anchors_a = anchors[:slot] + [A] + anchors[slot:]
    anchors_b = anchors[:slot] + [B] + anchors[slot:]
    lhs = (moi_schur(F, MOIOperands(tuple(anchors_a), tuple(arguments)))
           - moi_schur(F, MOIOperands(tuple(anchors_b), tuple(arguments))))
    anchors_ab = anchors[:slot] + [A, B] + anchors[slot:]
    args_ab = list(arguments[:slot]) + [A.data - B.data] + list(arguments[slot:])
    rhs = moi_schur(F, MOIOperands(tuple(anchors_ab), tuple(args_ab)))
    return schatten_norm(lhs - rhs, 2)


def lipschitz_ratio(F, X: HermitianOperator, Y: HermitianOperator, p=2) -> float:
    """|| F(X) - F(Y) ||_p / || X - Y ||_p."""
    X = X if isinstance(X, HermitianOperator) else HermitianOperator(X)
    Y = Y if isinstance(Y, HermitianOperator) else HermitianOperator(Y)
    denom = schatten_norm(X.data - Y.data, p)
    if denom == 0.0:
        raise DegenerateInput("X == Y")
    num = schatten_norm(func_calc(X, F).data - func_calc(Y, F).data, p)
    return num / denom


def homomorphism_commutation_residual(F, W: np.ndarray, ops: MOIOperands) -> float:
    """|| W T(ops) W* - T(conjugated ops) ||_2 for the *-endomorphism W . W*."""
    W = np.asarray(W, dtype=np.complex128)
    if np.linalg.norm(W.conj().T @ W - np.eye(W.shape[0])) > 1e-10:
        raise NonUnitary("W is not unitary to 1e-10")
    t = moi_schur(F, ops)
    conj_ops = MOIOperands(
        anchors=tuple(HermitianOperator(W @ a.data @ W.conj().T) for a in ops.anchors),
        arguments=tuple(W @ x @ W.conj().T for x in ops.arguments),
    )
    t2 = moi_schur(F, conj_ops)
    return schatten_norm(W @ t @ W.conj().T - t2, 2)

