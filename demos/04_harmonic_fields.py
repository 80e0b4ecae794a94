# Harmonic unit vector fields: energy, the first-variation form, and the
# reduced criterion x(h) = ric(x, N) for normalized gradients.

import numpy as np

import kontact as kt
from kontact.ad import value
from kontact.manifold import frame_batch, sample_coords, shape_matrix

pair = kt.standard_pair(3)
f = pair.angle_function()
pts = sample_coords(100, 42, 4, exclusion=lambda x: np.abs(value(f.eval(x))) > 0.9)

# the Reeb field is harmonic and its energy has a closed form
reeb = kt.reeb_unit_field(pair.s_alpha)
est = kt.energy(reeb, 100_000, 1, 4)
print(f"E(reeb) = {est.estimate:.6f} +- {est.stderr:.1e}, "
      f"closed form {kt.reeb_energy_closed_form(3):.6f}")
print("nu residual (reeb):", kt.harmonicity_check(reeb, pts).max)

# the normalized gradient of the angle function is harmonic too
n_field = kt.normalized_gradient_unit_field(f)
print("nu residual (unit gradient):", kt.harmonicity_check(n_field, pts).max)
print("critical condition:", kt.critical_condition_check(n_field, pts).max)

# its shape operator A = -grad N on a level set, in a frame of N^perp:
# the principal curvatures of the torus family
x = pts[:1]
basis = frame_batch(x, value(n_field.field.eval(x))[:, None, :])[0, 1:]
a_level = basis @ -shape_matrix(n_field.field, x[0]) @ basis.T
curvatures = np.linalg.eigvalsh(0.5 * (a_level + a_level.T))
print("principal curvatures:", curvatures, "h =", np.sum(curvatures))

# a generic unit field is NOT harmonic: the residuals are order one
twisted = kt.twisted_unit_field(np.array([1.0, 0.4, -0.2, 0.3]),
                                np.array([0.2, -1.0, 0.5, 0.1]),
                                np.array([-0.3, 0.2, 1.0, -0.5]))
print("nu residual (twisted control):", kt.harmonicity_check(twisted, pts).max)
