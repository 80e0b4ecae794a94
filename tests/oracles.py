"""Reference formulas the tests compare the package's kernels against.

Each one takes the quantity by another route than the kernel it pins:
the constant-curvature tensor in closed form, Ricci as a frame sum of
curvatures, tr L_Z from the full shape matrix, the level mean curvature
as an explicit frame sum, and x(h) by nested directional derivatives.  All take points (N, m+1) and
broadcast leading axes as the kernels do.
"""

import numpy as np

from kontact import ad
from kontact.manifold import cov_deriv_batch, divergence, frame_batch, inner, shape_matrix
from kontact.scalar_fields import gradient_batch, normalized_gradient_field


def values(f, x):
    """The scalar field f at the points x, as floats."""
    return np.asarray(ad.value(f.eval(x)), dtype=float)


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


def mean_curvature_derivative(field, x, directions):
    """Directional derivatives of h = −div Z at the points x (..., m+1)
    along tangent directions (..., k, m+1), exact; returns shape (..., k).

    On the sphere the trace of A_Z on Z^⊥ is −div Z + ⟨z, D_z F⟩ with
    z = F(y); the extra term vanishes on the sphere because |F| = 1
    there, so it contributes neither to h nor to x(h) for tangent x.
    """
    return ad.value(ad.directional(lambda y: -divergence(field, y),
                                   x[..., None, :], directions))
