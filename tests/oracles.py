"""Reference formulas the tests compare the package's kernels against.

Each one takes the quantity by another route than the kernel it pins:
orthonormal frames of the sub-bundle {Z, X, JX}^⊥, which the checks
read through its projector, the constant-curvature tensor in closed
form, Ricci as a frame sum of curvatures, tr L_Z from the full shape
matrix, the level mean curvature as an explicit frame sum, the
numerical curvature with its two nested passes taken apart, the
divergence of a projected field from its dual Jacobian, x(h) by
differentiating that divergence, dω from its definition on
projected-constant extensions, and nu_Z by nested directional
derivatives.  All take points (N, m+1) and broadcast
leading axes as the kernels do.
"""

import numpy as np

from kontact import ad
from kontact.double_kcontact import _hbundle_seeds
from kontact.manifold import (
    _second_cov_field,
    constant_field,
    cov_deriv_batch,
    frame_batch,
    inner,
    lie_bracket_batch,
    proj_np,
    projected_eval,
    shape_matrix,
)
from kontact.scalar_fields import (
    EPS_REGULAR,
    ambient_gradient,
    gradient_batch,
    normalized_gradient_field,
)


def values(f, x):
    """The scalar field f at the points x, as floats."""
    return np.asarray(ad.value(f.eval(x)), dtype=float)


def regular_mask(f, x):
    """Where |P·∇f| ≥ EPS_REGULAR at the points x, in plain numpy on the
    ambient gradient: the reference for every mask of the regularity policy."""
    v = np.broadcast_to(np.asarray(ad.value(ambient_gradient(f, x)), dtype=float), np.shape(x))
    g = v - np.sum(v * x, axis=-1, keepdims=True) * x
    return np.linalg.norm(g, axis=-1) >= EPS_REGULAR


def domain_mask(zf, x):
    """Where the unit field zf is defined at the points x: its guard and,
    for a unit gradient, :func:`regular_mask` of its potential."""
    keep = np.asarray(zf.guard(x), dtype=bool)
    return keep if zf.potential is None else keep & regular_mask(zf.potential, x)


def hbundle_frames(d, x):
    """Orthonormal bases of {Z, X, JX}^⊥ at the points x (N, m+1) where Z, X
    and JX span, shape (N, m−3, m+1): the tail of the frame seeded by them,
    empty on S³, where the sub-bundle is zero."""
    if d.dim == 3:
        return np.empty(x.shape[:-1] + (0, x.shape[-1]))
    return frame_batch(x, _hbundle_seeds(d, x))[..., 3:, :]


def curvature(u, v, w):
    """R(u,v)w on the unit sphere: g(v,w)u − g(u,w)v."""
    return inner(v, w)[..., None] * u - inner(u, w)[..., None] * v


def ricci_frame_sum(x, u, v, curvature_fn=curvature, frames=None):
    """ric(u,v) = Σ_i g(R(E_i,u)v, E_i) over orthonormal frames E_i at the
    points x (N, m+1), ``frame_batch(x)`` unless ``frames`` are given;
    ``curvature_fn`` is :func:`curvature` or ``curvature_numeric_batch``."""
    e = frame_batch(x) if frames is None else frames
    lead = (slice(None), None)
    if curvature_fn is curvature:
        r = curvature(e, u[lead], v[lead])
    else:
        r = curvature_fn(x[lead], e, u[lead], v[lead])
    return np.sum(inner(r, e), axis=-1)


def curvature_numeric_two_pass(x, u, v, w):
    """R(u,v)w at the points x from nested covariant derivatives of the
    projected-constant extensions, ∇_u∇_v w and ∇_v∇_u w each in a pass of
    its own (leading axes broadcast)."""
    U, V, W = constant_field(u), constant_field(v), constant_field(w)
    t1 = ad.value(ad.directional(_second_cov_field(W, V), x, u))
    t2 = ad.value(ad.directional(_second_cov_field(W, U), x, v))
    bracket = lie_bracket_batch(U, V, x)
    t3 = ad.value(ad.directional(lambda y: projected_eval(W, y), x, bracket))
    return proj_np(x, t1 - t2 - t3)


def ricci_operator_frame_sum(x, u, curvature_fn=curvature):
    """Q(u) = Σ_j ric(u, E_j) E_j, from the frame-sum Ricci tensor."""
    e = frame_batch(x)
    ric = np.stack([ricci_frame_sum(x, u, e[:, j], curvature_fn)
                    for j in range(e.shape[1])], axis=1)
    return np.sum(ric[..., None] * e, axis=1)


def trace_l(zf, x):
    """tr L_Z = m + ‖∇Z‖², the Frobenius norm of the shape matrix itself."""
    a = shape_matrix(zf.field, x)
    return (x.shape[-1] - 1) + np.sum(a * a, axis=(-2, -1))


def mean_curvature_frame_sum(f, x):
    """h = −Σ g(∇_{E_i}N, E_i) over a frame E_i of N^⊥, N = ∇f/‖∇f‖, at
    regular points x (N, m+1)."""
    g = gradient_batch(f, x)
    n = g / np.sqrt(inner(g, g))[:, None]
    level = frame_batch(x, n[:, None, :])[:, 1:]
    d = cov_deriv_batch(normalized_gradient_field(f), x[:, None, :], level)
    return -np.sum(inner(d, level), axis=-1)


def divergence(field, y):
    """Ambient divergence Σᵢ ∂ᵢFᵢ of the projected field F = P·field at
    the points y (dual-evaluable, leading axes broadcast), from the dual
    Jacobian of F.

    On the sphere this is the trace of the shape matrix P·J·P, J the
    Jacobian of F, because F ⟂ y near the sphere makes yᵀJy = −⟨F, y⟩ = 0.
    """
    dim = ad.value(y).shape[-1]
    jac = ad.axis0_to_last(
        ad.jacobian_rows(lambda w: projected_eval(field, w), y, dim))
    return ad.dot(ad.dot(jac, np.eye(dim)), np.ones(dim))


def mean_curvature_derivative(field, x, directions):
    """Directional derivatives of h = −div Z at the points x (..., m+1)
    along tangent directions (..., k, m+1), exact; returns shape (..., k).

    On the sphere the trace of A_Z on Z^⊥ is −div Z + ⟨z, D_z F⟩ with
    z = F(y); the extra term vanishes on the sphere because |F| = 1
    there, so it contributes neither to h nor to x(h) for tangent x.
    """
    return ad.value(ad.directional(lambda y: -divergence(field, y),
                                   x[..., None, :], directions))


def exterior_derivative_batch(coeff_field, x, a, b):
    """dω(a,b) at the points x for a one-form given by ambient
    coefficients, by the definition A(ω(B)) − B(ω(A)) − ω([A,B]) on the
    projected-constant extensions of a and b; leading axes of x, a and b
    broadcast."""
    ext_a, ext_b = constant_field(a), constant_field(b)
    t1 = ad.value(ad.directional(
        lambda y: ad.dot(coeff_field(y), projected_eval(ext_b, y)), x, a))
    t2 = ad.value(ad.directional(
        lambda y: ad.dot(coeff_field(y), projected_eval(ext_a, y)), x, b))
    bracket = lie_bracket_batch(ext_a, ext_b, x)
    t3 = inner(np.asarray(ad.value(coeff_field(x)), dtype=float), bracket)
    return t1 - t2 - t3


def adjoint_apply(field, x, w):
    """A^t at x applied to w, as a dual-evaluable ambient expression.

    Row i of the batched Jacobian is D_{e_i}(projected field), so dotting
    the rows with P·w assembles (Jacobian)^T · P·w in one evaluation.
    Leading axes of x and w broadcast.
    """
    dim = ad.value(x).shape[-1]
    pw = ad.proj_tangent(x, w)
    rows = ad.jacobian_rows(lambda y: projected_eval(field, y), x, dim)
    jt_pw = ad.axis0_to_last(ad.dot(rows, pw))
    return -ad.proj_tangent(x, jt_pw)


def harmonicity_form_batch(field, x, directions, frames=None):
    """nu_Z at the points x (..., m+1) for directions (..., k, m+1), by
    nested directional derivatives; returns shape (..., k).

    nu_Z(x) = Σ_i g(D_{u_i}(A^t x̃), u_i) with x̃ the projected-constant
    extension; the term A^t(∇_u x̃) of (∇_u A^t)x vanishes because
    ∇_u x̃ = 0 at the base point.  The sum over an orthonormal frame u_i
    is the ambient Jacobian of A^t x̃ contracted with Σ_i u_i u_iᵀ, which
    is P = I − x xᵀ unless ``frames`` (..., m, m+1) are given.
    """
    dim = x.shape[-1]
    base = x[..., None, None, :]                          # (..., 1, 1, m+1)
    axes = np.eye(dim)[:, None, :]                        # (m+1, 1, m+1)
    w = directions[..., None, :, :]                       # (..., 1, k, m+1)
    jac = ad.value(ad.directional(
        lambda y: adjoint_apply(field, y, ad.lift(w, y)), base, axes))
    if frames is None:
        trace = np.eye(dim) - x[..., :, None] * x[..., None, :]
    else:
        trace = np.swapaxes(frames, -1, -2) @ frames
    return np.einsum("...bka,...ba->...k", jac, trace)
