"""Numerical workbench for operator-function calculus on a fuzzy torus.

Core layers:

- ``linalg``: Hermitian eigencalculus, functional calculus, Schatten norms
- ``symbols`` / ``expr``: scalar symbols, divided differences, symbol norms,
  Littlewood-Paley filters, expression grammar
- ``moi``: multiple operator integrals (Schur and binned forms), the Loewner
  and perturbation identities
- ``torus``: band-limited elements over a clock/shift matrix algebra,
  translations, derivations, differences, dyadic blocks, heat flow
- ``besov``: quantum Besov norms in three equivalent forms plus the
  inequality, Meyer-decomposition and paraproduct harnesses
- ``chain``: the operator chain-rule expansion and its verification
- ``allen_cahn``: mild-solution solver with contraction, continuation and
  global-existence checks
- ``cli`` / ``experiments``: seeded experiment runner with committed
  empirical-constant baselines
"""

from .besov import BesovIndex, besov_difference_norm, besov_integral_norm, besov_multiplier_norm
from .chain import DerivationSpec, ExpansionTerm, chain_rule_residual, expand
from .expr import parse_symbol
from .linalg import HermitianOperator, SpectralDecomposition, eig_hermitian, func_calc, schatten_norm
from .moi import MOIOperands, moi_binned, moi_schur
from .symbols import SmoothSymbol, divided_diff, divided_diff_tensor
from .torus import TorusAlgebra, TorusElement

__version__ = "0.1.0"

__all__ = [
    "BesovIndex", "besov_difference_norm", "besov_integral_norm", "besov_multiplier_norm",
    "DerivationSpec", "ExpansionTerm", "chain_rule_residual", "expand",
    "parse_symbol",
    "HermitianOperator", "SpectralDecomposition",
    "eig_hermitian", "func_calc", "schatten_norm",
    "MOIOperands", "moi_binned", "moi_schur",
    "SmoothSymbol", "divided_diff", "divided_diff_tensor",
    "TorusAlgebra", "TorusElement",
]
