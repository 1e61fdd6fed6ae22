"""Verdict types for ratio-limit checks.

Both the analytic kernel-level limits (e.g. the high-frequency ratio of two
Matern spectral densities) and the finite-probe diagnostics report their
outcome through :class:`RatioVerdict`.  A verdict never certifies an
asymptotic statement; it records what was observed on the probed range.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum


class LimitKind(Enum):
    CONVERGES = "converges"
    DIVERGES_TO_ZERO = "diverges_to_zero"
    DIVERGES_TO_INFINITY = "diverges_to_infinity"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TailWindow:
    """Statistics of the trailing probe window backing a verdict."""

    start_index: int
    mean: float
    max_deviation: float


@dataclass(frozen=True)
class RatioVerdict:
    kind: LimitKind
    a_estimate: float | None = None
    evidence: TailWindow | None = None

    def __post_init__(self):
        if self.kind is LimitKind.CONVERGES:
            if self.a_estimate is None or not self.a_estimate > 0:
                raise ValueError("a convergent verdict requires a positive limit estimate")
        elif self.a_estimate is not None:
            raise ValueError("a_estimate is only meaningful for a convergent verdict")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "a_estimate": self.a_estimate,
            "evidence": None if self.evidence is None else asdict(self.evidence),
        }
