"""Scalar-field calculus on the embedded sphere.

Gradient, Hessian, Laplace-Beltrami operator, normalized gradient,
transnormality / isoparametricity checks, and the mean curvature of
level hypersurfaces.

The Laplacian is Δ = −div∘grad throughout: with this sign the
restriction of a degree-k harmonic polynomial to S^m is an eigenfunction
with eigenvalue k(k+m−1), and the transnormal level-surface identity
h = Δf/‖∇f‖ + b'(f)/(2√b) holds with the mean-curvature sign
h = −Σ g(∇_{E_i}N, E_i).

Kernels and checks follow the batch convention of :mod:`kontact.manifold`,
so field formulas must contract over the last axis (``x[..., i]``, never
``x[i]``).  Δf and the level mean curvature are both minus the ambient
divergence (``manifold.divergence``) of a projected field, ∇f and
N = ∇f/‖∇f‖.  Checks that need N skip the points where ‖∇f‖ is below
EPS_REGULAR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import ArrayLike

from . import ad
from .ad import dot, matvec, proj_tangent, value
from .errors import RegularityError
from .manifold import (
    AmbientVectorField,
    Frame,
    SpherePoint,
    TangentVector,
    apply,
    as_field_points,
    cov_deriv_batch,
    divergence,
    inner,
    proj_np,
    shape_matrix,
    sweep,
)
from .report import ResidualReport

EPS_REGULAR = 1e-6
SQRT_B_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Scalar formula on ambient space near the sphere, C² there.

    ``grad``, when provided, is the closed-form ambient gradient (itself
    dual-evaluable); otherwise gradients fall back to per-component
    automatic differentiation of ``eval``.
    """

    eval: Callable
    grad: Optional[Callable] = None
    label: str = ""


@dataclass(frozen=True)
class TransnormalProfile:
    """Profile b with ‖∇f‖² = b(f), together with its derivative."""

    b: Callable[[float], float]
    b_prime: Callable[[float], float]


@dataclass(frozen=True)
class IsoparametricProfile:
    """Profile a with Δf = a(f)."""

    a: Callable[[float], float]


def coordinate_field(index: int, ambient_dim: int) -> ScalarField:
    """Height function x ↦ x_index."""
    e = np.eye(ambient_dim)[index]
    return ScalarField(eval=lambda x: dot(x, e),
                       grad=lambda x: ad.lift(e, x),
                       label=f"height x_{index}")


def quadratic_form_field(mat: np.ndarray, label: str = "") -> ScalarField:
    """Quadratic form x ↦ ⟨x, M x⟩ with closed-form gradient."""
    mat = np.asarray(mat, dtype=float)
    sym = mat + mat.T
    return ScalarField(eval=lambda x: dot(x, matvec(mat, x)),
                       grad=lambda x: matvec(sym, x),
                       label=label or "quadratic form")


# ---------------------------------------------------------------------------
# derivatives

def ambient_gradient(f: ScalarField, x):
    """Euclidean gradient of the ambient formula (dual-evaluable)."""
    if f.grad is not None:
        return f.grad(x)
    dim = value(x).shape[-1]
    return ad.axis0_to_last(ad.jacobian_rows(f.eval, x, dim))


def gradient_batch(f: ScalarField, x: np.ndarray) -> np.ndarray:
    """Riemannian gradients at the points x (batched): the tangential
    projection of the ambient gradient."""
    return proj_np(x, np.asarray(value(ambient_gradient(f, x)), dtype=float))


def gradient(f: ScalarField, p: SpherePoint) -> TangentVector:
    """Riemannian gradient at p: one row of :func:`gradient_batch`."""
    return TangentVector(p, gradient_batch(f, p.coords))


def gradient_field(f: ScalarField) -> AmbientVectorField:
    """∇f as a tangent-flagged ambient field."""
    return AmbientVectorField(
        lambda x: proj_tangent(x, ambient_gradient(f, x)),
        tangent=True, label=f"grad({f.label})")


def hessian_matrix(f: ScalarField, x: np.ndarray) -> np.ndarray:
    """Ambient matrix S of Hess_f at the points x (batched): the shape
    matrix of ∇f, so Hess_f(a, b) = g(∇_a ∇f, b) = ⟨S a, b⟩."""
    return shape_matrix(gradient_field(f), x)


def laplacian_batch(f: ScalarField, x: np.ndarray) -> np.ndarray:
    """Δf = −div ∇f at the points x (batched), the ambient divergence of
    the projected gradient being the trace of the Hessian matrix."""
    return -divergence(gradient_field(f), x)


def laplacian(f: ScalarField, p: SpherePoint, frame: Optional[Frame] = None) -> float:
    """Δf = −Σ_i Hess_f(E_i, E_i) over an orthonormal frame (frame-independent);
    without a frame, the frame-free −tr S."""
    if frame is None:
        return float(laplacian_batch(f, p.coords))
    e = frame.matrix
    return -float(np.sum(inner(apply(hessian_matrix(f, p.coords), e), e)))


def normalized_gradient_field(f: ScalarField) -> AmbientVectorField:
    """Unit gradient as an ambient formula (undefined on the critical set)."""
    return AmbientVectorField(
        lambda x: ad.unit(proj_tangent(x, ambient_gradient(f, x))),
        tangent=True, label=f"unit grad({f.label})")


# ---------------------------------------------------------------------------
# level-surface mean curvature

def level_mean_curvature_batch(f: ScalarField, x: np.ndarray) -> np.ndarray:
    """Mean curvature h = −div N of the level sets through the regular
    points x (batched), N the unit gradient: the full tangential trace of
    ∇N equals its trace on N^⊥, since g(∇_N N, N) = 0 for a unit field."""
    return -divergence(normalized_gradient_field(f), x)


def level_mean_curvature(f: ScalarField, p: SpherePoint) -> float:
    """Mean curvature h = −Σ g(∇_{E_i}N, E_i) of the level set through p.

    The sum runs over an orthonormal frame of N^⊥ tangent to the level
    set; it is evaluated frame-free as −div N.  Raises
    :class:`RegularityError` where ‖∇f‖ is below EPS_REGULAR.
    """
    r = float(np.linalg.norm(gradient_batch(f, p.coords)))
    if r < EPS_REGULAR:
        raise RegularityError(f"gradient norm {r} below {EPS_REGULAR} at this point")
    return float(level_mean_curvature_batch(f, p.coords))


# ---------------------------------------------------------------------------
# checkers

def _gradient_points(f: ScalarField, points: ArrayLike) -> np.ndarray:
    """The points of a check on f, as wide as its ambient gradient."""
    return as_field_points(points, lambda y: ambient_gradient(f, y))


def _regular_sweep(f: ScalarField, x: np.ndarray,
                   residual: Callable) -> tuple[np.ndarray, int]:
    """``residual(y, n, r)`` over the points x (N, m+1) where r = ‖∇f‖ is
    at least EPS_REGULAR, with n = ∇f/r; returns the residuals in point
    order and the number of points skipped."""
    g = gradient_batch(f, x)
    r = np.sqrt(inner(g, g))
    return sweep(lambda y, gy, ry: residual(y, gy / ry[:, None], ry), x, g, r,
                 keep=r >= EPS_REGULAR)


def _values_and_laplacians(f: ScalarField, x: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """f and Δf at the points x (N, m+1)."""
    fv, _ = sweep(lambda y: np.broadcast_to(value(f.eval(y)), y.shape[:-1]), x)
    return fv, sweep(lambda y: laplacian_batch(f, y), x)[0]


def check_geodesic(f: ScalarField, points: ArrayLike,
                   tol: float = 1e-7) -> ResidualReport:
    """‖∇_N N‖ at every regular point; the unit gradient of a transnormal
    function is a geodesic field, so this must vanish."""
    nf = normalized_gradient_field(f)

    def residual(x, n, r):
        d = cov_deriv_batch(nf, x, n)
        return np.sqrt(inner(d, d))

    residuals, skipped = _regular_sweep(f, _gradient_points(f, points), residual)
    return ResidualReport.from_residuals(
        "geodesic_field", residuals, tol, skipped,
        provenance=f"|cov_deriv(N, N)| for N = unit grad({f.label})")


def check_transnormal(f: ScalarField, profile: TransnormalProfile,
                      points: ArrayLike, tol: float = 1e-9) -> ResidualReport:
    """| ‖∇f‖² − b(f) | pointwise."""
    def residual(x):
        g = gradient_batch(f, x)
        return np.abs(inner(g, g) - profile.b(np.asarray(value(f.eval(x)), dtype=float)))

    return ResidualReport.from_residuals(
        "transnormal_profile", sweep(residual, _gradient_points(f, points))[0], tol,
        provenance=f"|grad norm squared - b(f)| for f = {f.label}")


def check_isoparametric(f: ScalarField, profile: IsoparametricProfile,
                        points: ArrayLike, tol: float = 1e-7) -> ResidualReport:
    """| Δf − a(f) | pointwise."""
    fv, lap = _values_and_laplacians(f, _gradient_points(f, points))
    return ResidualReport.from_residuals(
        "isoparametric_profile", np.abs(lap - profile.a(fv)), tol,
        provenance=f"|laplacian - a(f)| for f = {f.label}")


def fit_affine_profile(f: ScalarField, points: ArrayLike
                       ) -> tuple[float, float, float]:
    """Least-squares fit Δf ≈ c1·f + c0 over the samples.

    Returns (c1, c0, residual) with residual the max absolute deviation.
    """
    fv, lap = _values_and_laplacians(f, _gradient_points(f, points))
    design = np.stack([fv, np.ones_like(fv)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, lap, rcond=None)
    c1, c0 = float(coeffs[0]), float(coeffs[1])
    residual = float(np.max(np.abs(lap - design @ coeffs)))
    return c1, c0, residual


def mean_curvature_identity_check(f: ScalarField, profile: TransnormalProfile,
                                  points: ArrayLike, tol: float = 1e-7) -> ResidualReport:
    """Level mean curvature against Δf/‖∇f‖ + b'(f)/(2√b) for transnormal f."""
    def residual(x, n, gn):
        fv = np.asarray(value(f.eval(x)), dtype=float)
        b_raw = np.broadcast_to(profile.b(fv), fv.shape)
        bad = np.flatnonzero(b_raw < -SQRT_B_FLOOR)
        if bad.size:
            raise ValueError(f"profile b({fv[bad[0]]}) = {b_raw[bad[0]]} is negative")
        b = np.maximum(b_raw, SQRT_B_FLOOR)
        rhs = laplacian_batch(f, x) / gn + profile.b_prime(fv) / (2.0 * np.sqrt(b))
        return np.abs(level_mean_curvature_batch(f, x) - rhs)

    residuals, skipped = _regular_sweep(f, _gradient_points(f, points), residual)
    return ResidualReport.from_residuals(
        "mean_curvature_identity", residuals, tol, skipped,
        provenance=f"|h - (laplacian/|grad| + b'/(2 sqrt b))| for f = {f.label}")
