"""Aggregated residual reports shared by every checker."""

from __future__ import annotations

from typing import NamedTuple


class ResidualReport(NamedTuple):
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


class EnergyEstimate(NamedTuple):
    """Monte Carlo energy estimate with its standard error."""

    estimate: float
    stderr: float
    samples: int
    skipped: int
