# The angle function of a commuting pair of contact structures:
# transnormality, the Laplacian profile, and level mean curvature.

import numpy as np

import kontact as kt
from kontact.ad import value
from kontact.manifold import sample_coords
from kontact.scalar_fields import level_mean_curvature_batch

for dim in (3, 5, 7):
    pair = kt.standard_pair(dim)
    f = pair.angle_function()
    pts = sample_coords(150, 42, dim + 1,
                        exclusion=lambda x: np.abs(value(f.eval(x))) > 0.9)

    # |grad f|^2 = 4(1 - f^2) pointwise
    trans = kt.transnormal_b_check(pair, pts)

    # Delta f is affine in f; the slope/offset follow from the generators
    slope, offset = kt.expected_laplacian_profile(pair)
    c1, c0, residual = kt.fit_affine_profile(f, pts)
    print(f"S^{dim}: transnormal max {trans.max:.2e}; "
          f"laplacian fit {c1:.3f} f {c0:+.3f} "
          f"(expected {slope:.0f} f {offset:+.0f}), residual {residual:.2e}")

# in dimension 5 the offset depends on the generator pair
alt = kt.make_double(kt.block_diag_complex_structure([1, 1, 1]),
                     kt.block_diag_complex_structure([-1, -1, 1]))
f_alt = alt.angle_function()
pts = sample_coords(100, 7, 6, exclusion=lambda x: np.abs(value(f_alt.eval(x))) > 0.9)
print("alternate S^5 pair offset:", kt.expected_laplacian_profile(alt)[1],
      "| dim theorem:", kt.dim_theorem_check(alt, pts).provenance)

# level sets: the f = 0 level of the S^3 angle function is a minimal torus
pair3 = kt.standard_pair(3)
f3 = pair3.angle_function()
torus_point = np.array([1.0, 0, 1.0, 0]) / np.sqrt(2)
print("mean curvature at f=0:", level_mean_curvature_batch(f3, torus_point))

# and h follows the transnormal identity h = lap/|grad| + b'/(2 sqrt b)
pts3 = sample_coords(150, 42, 4, exclusion=lambda x: np.abs(value(f3.eval(x))) > 0.9)
rep = kt.mean_curvature_identity_check(f3, kt.ANGLE_PROFILE, pts3)
print("mean curvature identity residual:", rep.max)
