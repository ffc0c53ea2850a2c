"""Central tolerance configuration.

Every numeric tolerance used by the library lives in one record so that the
defaults are documented in a single place and can be overridden coherently
(e.g. by CLI flags).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerance knobs, all dimensionless.

    normalization: allowed |sum(mass) - 1| on input before rescaling.
    equality:      strict floating-point equality checks (e.g. stored sums).
    tv_match:      total variation constraint matching in the sampler.

    The searches take none: Chernoff information, the exact KL curve and
    both curve inverses are solved to floating-point resolution.
    """

    normalization: float = 1e-9
    equality: float = 1e-12
    tv_match: float = 1e-9


DEFAULT_TOLS = Tolerances()
