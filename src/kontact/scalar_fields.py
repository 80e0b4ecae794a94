"""Scalar-field calculus on the embedded sphere.

Gradient, Hessian, Laplace-Beltrami operator, normalized gradient,
transnormality / isoparametricity checks, and the mean curvature of
level hypersurfaces.

The Laplacian is Δ = −div∘grad throughout: with this sign the
restriction of a degree-k harmonic polynomial to S^m is an eigenfunction
with eigenvalue k(k+m−1), and the transnormal level-surface identity
h = Δf/‖∇f‖ + b'(f)/(2√b) holds with the mean-curvature sign
h = −Σ g(∇_{E_i}N, E_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import ad
from .ad import directional, dot, matvec, proj_tangent, value
from .errors import RegularityError
from .manifold import (
    AmbientVectorField,
    Frame,
    SpherePoint,
    TangentVector,
    cov_deriv,
    metric,
    project,
    projected_eval,
    shape_matrix,
    tangent_basis,
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

    def value(self, p: SpherePoint) -> float:
        return float(value(self.eval(p.coords)))


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


def gradient(f: ScalarField, p: SpherePoint) -> TangentVector:
    """Riemannian gradient: tangential projection of the ambient gradient."""
    return project(p, np.asarray(value(ambient_gradient(f, p.coords)), dtype=float))


def gradient_field(f: ScalarField) -> AmbientVectorField:
    """∇f as a tangent-flagged ambient field."""
    return AmbientVectorField(
        lambda x: proj_tangent(x, ambient_gradient(f, x)),
        tangent=True, label=f"grad({f.label})")


def directional_derivative(f: ScalarField, u: TangentVector) -> float:
    """u(f), exact via a dual evaluation of the ambient formula."""
    return float(value(directional(f.eval, u.base.coords, u.vec)))


def hessian(f: ScalarField, u: TangentVector, v: TangentVector) -> float:
    """Hess_f(u,v) = g(∇_u ∇f, v)."""
    return metric(cov_deriv(gradient_field(f), u), v)


def laplacian(f: ScalarField, p: SpherePoint, frame: Optional[Frame] = None) -> float:
    """Δf = −Σ_i Hess_f(E_i, E_i) over an orthonormal frame (frame-independent)."""
    fr = frame if frame is not None else tangent_basis(p)
    gf = gradient_field(f)
    return -sum(metric(cov_deriv(gf, e), e) for e in fr)


def normalized_gradient(f: ScalarField, p: SpherePoint,
                        eps_reg: float = EPS_REGULAR) -> TangentVector:
    """N = ∇f/‖∇f‖; raises :class:`RegularityError` near the critical set."""
    g = gradient(f, p)
    r = g.norm()
    if r < eps_reg:
        raise RegularityError(f"gradient norm {r} below {eps_reg} at this point")
    return TangentVector(p, g.vec / r)


def normalized_gradient_field(f: ScalarField) -> AmbientVectorField:
    """Unit gradient as an ambient formula (undefined on the critical set)."""
    return AmbientVectorField(
        lambda x: ad.unit(proj_tangent(x, ambient_gradient(f, x))),
        tangent=True, label=f"unit grad({f.label})")


# ---------------------------------------------------------------------------
# level-surface mean curvature

def _tangential_shape_trace(field: AmbientVectorField, p: SpherePoint):
    """Jacobian bookkeeping for h: returns (tr_T(∇V), g(∇_V V, V))."""
    shape = shape_matrix(field, p.coords)
    vp = np.asarray(value(projected_eval(field, p.coords)), dtype=float)
    return float(np.trace(shape)), float(vp @ (shape @ vp))


def level_mean_curvature(f: ScalarField, p: SpherePoint,
                         eps_reg: float = EPS_REGULAR) -> float:
    """Mean curvature h = −Σ g(∇_{E_i}N, E_i) of the level set through p.

    The sum runs over an orthonormal frame of N^⊥ tangent to the level
    set; it is evaluated frame-free as −(tr_T ∇N − g(∇_N N, N)).
    """
    normalized_gradient(f, p, eps_reg)  # regularity gate
    nf = normalized_gradient_field(f)
    trace_tangent, radial = _tangential_shape_trace(nf, p)
    return -(trace_tangent - radial)


def mean_curvature_frame_sum(f: ScalarField, p: SpherePoint) -> float:
    """Reference implementation of h by an explicit frame sum."""
    from .manifold import gram_schmidt_frame
    n = normalized_gradient(f, p)
    nf = normalized_gradient_field(f)
    fr = gram_schmidt_frame(p, [n])
    return -sum(metric(cov_deriv(nf, e), e) for e in fr.vectors[1:])


# ---------------------------------------------------------------------------
# checkers

def check_geodesic(f: ScalarField, points: Sequence[SpherePoint],
                   tol: float = 1e-7, eps_reg: float = EPS_REGULAR) -> ResidualReport:
    """‖∇_N N‖ at every regular point; the unit gradient of a transnormal
    function is a geodesic field, so this must vanish."""
    nf = normalized_gradient_field(f)
    residuals, skipped = [], 0
    for p in points:
        try:
            n = normalized_gradient(f, p, eps_reg)
        except RegularityError:
            skipped += 1
            continue
        residuals.append(cov_deriv(nf, n).norm())
    return ResidualReport.from_residuals(
        "geodesic_field", residuals, tol, skipped,
        provenance=f"|cov_deriv(N, N)| for N = unit grad({f.label})")


def check_transnormal(f: ScalarField, profile: TransnormalProfile,
                      points: Sequence[SpherePoint],
                      tol: float = 1e-9) -> ResidualReport:
    """| ‖∇f‖² − b(f) | pointwise."""
    residuals = []
    for p in points:
        g = gradient(f, p)
        fv = f.value(p)
        residuals.append(abs(float(g.vec @ g.vec) - profile.b(fv)))
    return ResidualReport.from_residuals(
        "transnormal_profile", residuals, tol,
        provenance=f"|grad norm squared - b(f)| for f = {f.label}")


def check_isoparametric(f: ScalarField, profile: IsoparametricProfile,
                        points: Sequence[SpherePoint],
                        tol: float = 1e-7) -> ResidualReport:
    """| Δf − a(f) | pointwise."""
    residuals = [abs(laplacian(f, p) - profile.a(f.value(p))) for p in points]
    return ResidualReport.from_residuals(
        "isoparametric_profile", residuals, tol,
        provenance=f"|laplacian - a(f)| for f = {f.label}")


def fit_affine_profile(f: ScalarField, points: Sequence[SpherePoint]
                       ) -> tuple[float, float, float]:
    """Least-squares fit Δf ≈ c1·f + c0 over the samples.

    Returns (c1, c0, residual) with residual the max absolute deviation.
    """
    fv = np.array([f.value(p) for p in points])
    lap = np.array([laplacian(f, p) for p in points])
    design = np.stack([fv, np.ones_like(fv)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, lap, rcond=None)
    c1, c0 = float(coeffs[0]), float(coeffs[1])
    residual = float(np.max(np.abs(lap - design @ coeffs)))
    return c1, c0, residual


def mean_curvature_identity_check(f: ScalarField, profile: TransnormalProfile,
                                  points: Sequence[SpherePoint],
                                  tol: float = 1e-7,
                                  eps_reg: float = EPS_REGULAR) -> ResidualReport:
    """Level mean curvature against Δf/‖∇f‖ + b'(f)/(2√b) for transnormal f."""
    residuals, skipped = [], 0
    for p in points:
        try:
            h = level_mean_curvature(f, p, eps_reg)
        except RegularityError:
            skipped += 1
            continue
        fv = f.value(p)
        gn = gradient(f, p).norm()
        b_raw = profile.b(fv)
        if b_raw < -SQRT_B_FLOOR:
            raise ValueError(f"profile b({fv}) = {b_raw} is negative")
        b = max(b_raw, SQRT_B_FLOOR)
        rhs = laplacian(f, p) / gn + profile.b_prime(fv) / (2.0 * np.sqrt(b))
        residuals.append(abs(h - rhs))
    return ResidualReport.from_residuals(
        "mean_curvature_identity", residuals, tol, skipped,
        provenance=f"|h - (laplacian/|grad| + b'/(2 sqrt b))| for f = {f.label}")
