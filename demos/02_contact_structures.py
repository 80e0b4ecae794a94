# Contact metric structures on S^3 and S^5 from orthogonal complex
# structures, and the residual checkers for their defining identities.

import numpy as np

import kontact as kt
from kontact.manifold import sample_coords

# the generator: block-diagonal quarter turns
j = kt.block_diag_complex_structure([1, 1])
s = kt.build_from_complex_structure(j)
print("sigma chosen by the d(alpha) axiom:", s.sigma)

e1 = np.array([1.0, 0.0, 0.0, 0.0])
print("Reeb field at e1:", s.j_ambient.mat @ e1)

pts = sample_coords(200, 11, 4)
for rep in (kt.check_axiom_volume(s, pts),
            kt.check_axiom_ii(s, pts),
            kt.check_axiom_iii(s, pts),
            kt.check_kcontact(s, pts),
            kt.check_sasakian(s, pts)):
    print(f"{rep.check_name:22s} max={rep.max:.3e}  pass={rep.passed}")

# the same construction works on any odd sphere
j5 = kt.block_diag_complex_structure([-1, 1, 1])
s5 = kt.build_from_complex_structure(j5)
pts5 = sample_coords(100, 11, 6)
print("S^5 structure, Sasakian residual:", kt.check_sasakian(s5, pts5).max)

# structures serialize to JSON-ready descriptors
print("descriptor keys:", sorted(s.to_descriptor().keys()))
