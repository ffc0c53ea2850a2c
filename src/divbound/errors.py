"""Exception hierarchy shared across the package."""

__all__ = [
    "DivboundError",
    "DistributionError",
    "DistFileError",
    "GeneratorError",
    "KraftViolationError",
    "BoundViolationError",
]


class DivboundError(Exception):
    """Base class for all library errors."""


class DistributionError(DivboundError, ValueError):
    """Invalid probability vector: length mismatch, negative mass, bad sum."""


class DistFileError(DistributionError):
    """Malformed distribution/lengths text file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GeneratorError(DivboundError, ValueError):
    """A convex-generator invariant failed (f(1) != 0, convexity, symmetry)."""


class KraftViolationError(DivboundError, ValueError):
    """Codeword lengths violate the Kraft-McMillan inequality."""


class BoundViolationError(DivboundError):
    """A mathematical bound or identity that must hold was violated."""
