"""Exception types shared across the workbench."""


class OpcalcError(Exception):
    """Base class for workbench errors."""


class NonHermitianInput(OpcalcError):
    """Matrix fails the Hermitian symmetry tolerance."""


class SymbolDomainError(OpcalcError):
    """Symbol undefined or not real where the calculus requires it."""


class SymbolNotFinite(SymbolDomainError):
    """Symbol value non-finite (undefined or overflowing) at an eigenvalue."""


class SymbolHypothesisError(OpcalcError):
    """Symbol violates a structural hypothesis (e.g. F(0) != 0)."""


class OrderExceeded(OpcalcError):
    """Requested derivative or divided-difference order above symbol order."""


class DimensionMismatch(OpcalcError):
    """Operands of incompatible shapes."""


class DegenerateInput(OpcalcError):
    """Operation undefined for coincident inputs (e.g. X == Y)."""


class NonUnitary(OpcalcError):
    """Conjugating matrix is not unitary to tolerance."""


class ComplexityExceeded(OpcalcError):
    """Operation rejected by the cost guard (dimension/order budget)."""


class BandOverflow(OpcalcError):
    """Checked-mode product left the representative frequency band."""


class BackendMismatch(OpcalcError):
    """Operation not available on this algebra (e.g. grid values at theta != 0)."""


class HypothesisViolation(OpcalcError):
    """Parameters outside the stated hypotheses of the characterization."""


class MissingBaseline(OpcalcError):
    """No committed baseline entry for this configuration.

    Run the baseline-capture mode first (``opcalc baseline <config>``).
    """


class NoContraction(OpcalcError):
    """Picard iteration did not contract at the given horizon."""


class BlowUpDetected(OpcalcError):
    """Trajectory norm escaped the blow-up threshold."""


class ConfigError(OpcalcError):
    """Malformed experiment configuration."""
