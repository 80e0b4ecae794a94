"""Numerical contact geometry on round odd-dimensional spheres.

The package builds pairs of commuting contact metric structures from
orthogonal complex structures on the ambient space and verifies the
geometry quantitatively: contact axioms, Killing and Sasakian
identities, transnormality and isoparametricity of the angle function
between the Reeb fields, level-surface mean curvature, and the
harmonicity of the normalized gradient as a unit vector field.

Importing the package before numpy pins the BLAS thread pools to one
thread (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``)
unless the environment sets them: the kernels run many small products
per block, and on them an unpinned pool measured slower than one
thread.  Once numpy is imported its pools are sized, so nothing is set
then.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")

from .errors import (
    BasePointMismatchError,
    ConstructionError,
    DegenerateInputError,
    GeometryError,
    PreconditionError,
    RegularityError,
    SamplingExhaustedError,
    TangencyError,
    UnsupportedDimensionError,
)
from .manifold import (
    AmbientVectorField,
    Frame,
    OrthoComplexStructure,
    SpherePoint,
    TangentVector,
    block_diag_complex_structure,
    constant_field,
    cov_deriv,
    curvature_numeric,
    gram_schmidt_frame,
    lie_bracket,
    linear_field,
    sample_points,
    sphere_volume,
    tangent_basis,
)
from .scalar_fields import (
    IsoparametricProfile,
    ScalarField,
    TransnormalProfile,
    check_geodesic,
    check_isoparametric,
    check_transnormal,
    coordinate_field,
    fit_affine_profile,
    gradient,
    gradient_field,
    laplacian,
    level_mean_curvature,
    mean_curvature_identity_check,
    quadratic_form_field,
)
from .contact import (
    ContactMetricStructure,
    build_from_complex_structure,
    check_axiom_ii,
    check_axiom_iii,
    check_axiom_volume,
    check_kcontact,
    check_sasakian,
    exterior_derivative,
    volume_form_constant,
)
from .double_kcontact import (
    ANGLE_PROFILE,
    DoubleKContact,
    commuting_invariants_check,
    dim_theorem_check,
    expected_laplacian_profile,
    gradient_identity_check,
    hbundle_basis,
    hessian_restriction_check,
    laplacian_formula_check,
    make_double,
    phi_product_spectrum_check,
    ricci_normal_check,
    standard_pair,
    transnormal_b_check,
)
from .harmonic import (
    UnitVectorField,
    critical_condition_check,
    energy,
    harmonicity_check,
    harmonicity_form,
    mean_curvature_of_field,
    normalized_constant_unit_field,
    normalized_gradient_unit_field,
    reeb_energy_closed_form,
    reeb_unit_field,
    twisted_unit_field,
)
from .report import EnergyEstimate, ResidualReport

__version__ = "0.1.0"
