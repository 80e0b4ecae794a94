"""Aggregated residual reports shared by every checker."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike


@dataclass(frozen=True)
class ResidualReport:
    """Named check → residual aggregates over sampled points.

    ``passed`` is always equivalent to ``max <= tolerance``; a check with
    no evaluated points reports max = mean = 0 and passes vacuously.
    """

    check_name: str
    count: int
    skipped: int
    max: float
    mean: float
    tolerance: float
    passed: bool
    provenance: str = ""

    @classmethod
    def from_residuals(cls, check_name: str, residuals: ArrayLike,
                       tolerance: float, skipped: int = 0,
                       provenance: str = "") -> "ResidualReport":
        """Aggregate the residuals.  The mean sums left to right, not
        pairwise as ``np.mean`` does, so reported means keep their digits."""
        vals = np.abs(np.asarray(residuals, dtype=float)).ravel()
        mx = float(np.max(vals)) if vals.size else 0.0
        mn = float(np.add.accumulate(vals)[-1]) / vals.size if vals.size else 0.0
        return cls(check_name=check_name, count=vals.size, skipped=int(skipped),
                   max=mx, mean=mn, tolerance=float(tolerance),
                   passed=bool(mx <= tolerance), provenance=provenance)

    def as_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "count": self.count,
            "skipped": self.skipped,
            "max": self.max,
            "mean": self.mean,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class EnergyEstimate:
    """Monte Carlo energy estimate with its standard error."""

    estimate: float
    stderr: float
    samples: int
    skipped: int

    def as_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "samples": self.samples,
            "skipped": self.skipped,
        }
