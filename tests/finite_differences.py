"""Finite-difference cross-checks for the dual-number engine.

Central differences along straight lines and a five-point stencil along
great circles, written with plain numpy so that they share no code with
:mod:`kontact.ad`.
"""

from typing import Callable

import numpy as np


def fd_directional(f: Callable, x: np.ndarray, d: np.ndarray,
                   step: float = 1e-5):
    """Central-difference directional derivative, O(step²) error."""
    return (f(x + step * d) - f(x - step * d)) / (2.0 * step)


def fd_second_directional(f: Callable, x: np.ndarray, d1: np.ndarray,
                          d2: np.ndarray, step: float = 1e-4):
    """Mixed second directional derivative by cross differences."""
    return (f(x + step * (d1 + d2)) - f(x + step * (d1 - d2))
            - f(x + step * (d2 - d1)) + f(x - step * (d1 + d2))) / (4.0 * step ** 2)


def great_circle(p: np.ndarray, u: np.ndarray, t: float) -> np.ndarray:
    """Unit-speed-scaled circle through p with initial velocity u."""
    w = float(np.linalg.norm(u))
    if w == 0.0:
        return p.copy()
    return np.cos(w * t) * p + (np.sin(w * t) / w) * u


def fd_curve_derivative_5pt(s: Callable, p: np.ndarray, u: np.ndarray,
                            step: float = 1e-3) -> float:
    """Five-point stencil along the great circle, O(step⁴) error."""
    f1 = s(great_circle(p, u, step))
    f2 = s(great_circle(p, u, 2.0 * step))
    fm1 = s(great_circle(p, u, -step))
    fm2 = s(great_circle(p, u, -2.0 * step))
    return (-f2 + 8.0 * f1 - 8.0 * fm1 + fm2) / (12.0 * step)
