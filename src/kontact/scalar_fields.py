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
``x[i]``), and checks are defined as in :mod:`kontact.contact`.  Δf and
the level mean curvature are both minus the trace of a shape matrix
(``manifold.shape_trace``), read from the raw Jacobian of one formula:
the ambient gradient of f for Δf and the Hessian (on tangent vectors,
``manifold.shape_form``), and the unit gradient N = ∇f/‖∇f‖,
differentiated through its own formula, for the mean curvature.
Checks that need N skip the points where ‖∇f‖ is below
EPS_REGULAR; :func:`is_regular` is that policy, applied to the norms
of a block (:func:`regular`), of points (:func:`gradient_norm`) and of
an integrand that holds them already (``harmonic.energy``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from . import ad, manifold
from .ad import dot, matvec, proj_tangent, value
from .errors import RegularityError
from .manifold import (
    AmbientVectorField,
    Block,
    Check,
    Frame,
    SpherePoint,
    TangentVector,
    as_field_points,
    blocks,
    checker,
    cov_deriv_batch,
    inner,
    proj_np,
    shape_form,
    shape_trace,
)

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

EPS_REGULAR = 1e-6
SQRT_B_FLOOR = 1e-14


class ScalarField:
    """Scalar formula on ambient space near the sphere, C² there.

    ``grad``, when provided, is the closed-form ambient gradient (itself
    dual-evaluable); otherwise gradients fall back to per-component
    automatic differentiation of ``eval``.
    """

    def __init__(self, eval: Callable, grad: Optional[Callable] = None, label: str = ""):
        self.eval, self.grad, self.label = eval, grad, label


class TransnormalProfile(NamedTuple):
    """Profile b with ‖∇f‖² = b(f), together with its derivative."""

    b: Callable[[float], float]
    b_prime: Callable[[float], float]


class IsoparametricProfile(NamedTuple):
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


def ambient_gradient_field(f: ScalarField) -> AmbientVectorField:
    """The ambient gradient of f as a raw formula, not tangent off the
    sphere: its shape matrix is the Hessian matrix of f on the sphere."""
    return AmbientVectorField(lambda x: ambient_gradient(f, x), tangent=False,
                              label=f"ambient grad({f.label})")


def laplacian_batch(f: ScalarField, x: np.ndarray) -> np.ndarray:
    """Δf = −div ∇f = −tr Hess_f at the points x (batched)."""
    return -shape_trace(ambient_gradient_field(f), x)


def laplacian(f: ScalarField, p: SpherePoint, frame: Optional[Frame] = None) -> float:
    """Δf = −Σ_i Hess_f(E_i, E_i) over an orthonormal frame (frame-independent);
    without a frame, the frame-free −tr S."""
    if frame is None:
        return float(laplacian_batch(f, p.coords))
    e = frame.matrix
    return -float(np.sum(shape_form(ambient_gradient_field(f), p.coords, e, e)))


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
    return -shape_trace(normalized_gradient_field(f), x)


def level_mean_curvature(f: ScalarField, p: SpherePoint) -> float:
    """Mean curvature h = −Σ g(∇_{E_i}N, E_i) of the level set through p.

    The sum runs over an orthonormal frame of N^⊥ tangent to the level
    set; it is evaluated frame-free as −div N.  Raises
    :class:`RegularityError` where ‖∇f‖ is below EPS_REGULAR.
    """
    r = float(gradient_norm(f, p.coords))
    if not is_regular(r):
        raise RegularityError(f"gradient norm {r} below {EPS_REGULAR} at this point")
    return float(level_mean_curvature_batch(f, p.coords))


# ---------------------------------------------------------------------------
# checkers

def values_batch(f: ScalarField, x: np.ndarray) -> np.ndarray:
    """f at the points x (batched), as floats of shape x.shape[:-1]."""
    return np.broadcast_to(np.asarray(value(f.eval(x)), dtype=float), x.shape[:-1])


def gradient_and_norm(b: Block, f: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """∇f, computed at every point of the enclosing block, and ‖∇f‖."""
    g = b.full(gradient_batch, f)
    return g, np.sqrt(inner(g, g))


def is_regular(norm: ArrayLike) -> np.ndarray:
    """Where a gradient norm ‖∇f‖ = |P·V| is at least EPS_REGULAR: the
    one regularity policy, where the unit gradient ∇f/‖∇f‖ is defined."""
    return np.asarray(norm) >= EPS_REGULAR


def regular(b: Block, f: ScalarField) -> np.ndarray:
    """Where f is regular in a block (:func:`is_regular`): the points of
    the checks on N."""
    return is_regular(gradient_and_norm(b, f)[1])


def gradient_norm(f: ScalarField, x: np.ndarray) -> np.ndarray:
    """‖∇f‖ at the points x (batched)."""
    g = gradient_batch(f, x)
    return np.sqrt(inner(g, g))


def _gradient_points(f: ScalarField, points: ArrayLike) -> np.ndarray:
    """The points of a check on f, as wide as its ambient gradient."""
    return as_field_points(points, lambda y: ambient_gradient(f, y))


@checker(_gradient_points)
def check_geodesic(f: ScalarField) -> Check:
    """‖∇_N N‖ at every regular point; the unit gradient of a transnormal
    function is a geodesic field, so this must vanish."""
    nf = normalized_gradient_field(f)

    def kernel(b):
        g, r = gradient_and_norm(b, f)
        d = cov_deriv_batch(nf, b.x, g / r[:, None])
        return np.sqrt(inner(d, d))

    return Check("geodesic_field", 1e-7, kernel,
                 f"|cov_deriv(N, N)| for N = unit grad({f.label})", keep=(regular, f))


@checker(_gradient_points)
def check_transnormal(f: ScalarField, profile: TransnormalProfile) -> Check:
    """| ‖∇f‖² − b(f) | pointwise."""
    def kernel(b):
        g = b.of(gradient_batch, f)
        return np.abs(inner(g, g) - profile.b(b.of(values_batch, f)))

    return Check("transnormal_profile", 1e-9, kernel,
                 f"|grad norm squared - b(f)| for f = {f.label}")


@checker(_gradient_points)
def check_isoparametric(f: ScalarField, profile: IsoparametricProfile) -> Check:
    """| Δf − a(f) | pointwise."""
    return Check("isoparametric_profile", 1e-7,
                 lambda b: np.abs(b.of(laplacian_batch, f) - profile.a(b.of(values_batch, f))),
                 f"|laplacian - a(f)| for f = {f.label}")


@checker(_gradient_points)
def mean_curvature_identity_check(f: ScalarField,
                                  profile: TransnormalProfile) -> Check:
    """Level mean curvature against Δf/‖∇f‖ + b'(f)/(2√b) for transnormal f,
    at the regular points."""
    def kernel(b):
        fv = b.full(values_batch, f)
        b_raw = np.broadcast_to(profile.b(fv), fv.shape)
        bad = np.flatnonzero(b_raw < -SQRT_B_FLOOR)
        if bad.size:
            raise ValueError(f"profile b({fv[bad[0]]}) = {b_raw[bad[0]]} is negative")
        b_floor = np.maximum(b_raw, SQRT_B_FLOOR)
        rhs = (b.full(laplacian_batch, f) / gradient_and_norm(b, f)[1]
               + profile.b_prime(fv) / (2.0 * np.sqrt(b_floor)))
        return np.abs(b.of(level_mean_curvature_batch, f) - rhs)

    return Check("mean_curvature_identity", 1e-7, kernel,
                 f"|h - (laplacian/|grad| + b'/(2 sqrt b))| for f = {f.label}",
                 keep=(regular, f))


def fit_affine_profile(f: ScalarField, points: ArrayLike
                       ) -> tuple[float, float, float]:
    """Least-squares fit Δf ≈ c1·f + c0 over the samples.

    Returns (c1, c0, residual) with residual the max absolute deviation.
    """
    x = _gradient_points(f, points)
    fv = values_batch(f, x)
    lap = np.concatenate([np.zeros(0)] + [laplacian_batch(f, x[sl])
                                          for sl in blocks(len(x), manifold.BLOCK)])
    design = np.stack([fv, np.ones_like(fv)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, lap, rcond=None)
    c1, c0 = float(coeffs[0]), float(coeffs[1])
    residual = float(np.max(np.abs(lap - design @ coeffs)))
    return c1, c0, residual
