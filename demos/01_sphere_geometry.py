# Round-sphere geometry from ambient formulas: connection, curvature, Ricci.
#
# Everything lives in ambient coordinates, and every kernel takes a batch
# of points as an (N, m+1) array. A tangent field is a formula
# R^{m+1} -> R^{m+1}; the Levi-Civita connection is the tangential
# projection of the ambient directional derivative, computed exactly with
# dual numbers.

import numpy as np

import kontact as kt
from kontact.ad import dot, value
from kontact.manifold import (
    cov_deriv_batch,
    curvature_numeric_batch,
    frame_batch,
    lie_bracket_batch,
    proj_np,
    random_tangent_batch,
    sample_coords,
)

rng = np.random.default_rng(0)

x = sample_coords(5, 0, 4)
print("points:", x.shape, "on S^%d" % (x.shape[1] - 1))

# rotation generators give Killing fields; differentiate them
mat_a = rng.standard_normal((4, 4))
mat_b = rng.standard_normal((4, 4))
field_a = kt.linear_field(mat_a - mat_a.T)
field_b = kt.linear_field(mat_b - mat_b.T)
u, v, w = np.moveaxis(random_tangent_batch(x, rng, (3,)), 1, 0)

print("cov_deriv along u at the first point:", cov_deriv_batch(field_a, x, u)[0])

# the connection is torsion-free: cov_a b - cov_b a = [a, b]
a_at = proj_np(x, value(field_a.eval(x)))
b_at = proj_np(x, value(field_b.eval(x)))
torsion = (cov_deriv_batch(field_b, x, a_at) - cov_deriv_batch(field_a, x, b_at)
           - proj_np(x, lie_bracket_batch(field_a, field_b, x)))
print("torsion residual:", np.max(np.linalg.norm(torsion, axis=-1)))


def constant_curvature(u, v, w):
    """The constant-curvature formula R(u,v)w = g(v,w)u - g(u,w)v."""
    return dot(v, w)[:, None] * u - dot(u, w)[:, None] * v


# curvature: the analytic formula against the numeric double covariant
# derivative
r_numeric = curvature_numeric_batch(x, u, v, w)
print("curvature agreement:", np.max(np.abs(constant_curvature(u, v, w) - r_numeric)))

# sectional curvature of any orthonormal plane is 1
v_unit = v - dot(u, v)[:, None] * u
v_unit /= np.linalg.norm(v_unit, axis=-1, keepdims=True)
print("sectional curvature:", dot(constant_curvature(u, v_unit, v_unit), u))

# Ricci: ric(u,u) = sum_i g(R(E_i,u)u, E_i) = (m-1) g(u,u) in any frame E_i
frames = frame_batch(x)
ric = np.sum(dot(curvature_numeric_batch(x[:, None], frames, u[:, None], u[:, None]),
                   frames), axis=-1)
print("ricci(u,u) =", ric, " with |u|^2 =", dot(u, u))
