"""Contact metric structures on S^(2n+1) from orthogonal complex structures.

A skew orthogonal matrix Jt with Jt² = −I on ambient R^(2n+2) determines
a contact metric structure for the round metric:

* Reeb field        Z(p) = Jt·p,
* contact form      alpha(u) = g(u, Z),
* structure tensor  phi(u) = sigma·(Jt·u + alpha(u)·p),

where the sign sigma ∈ {+1, −1} is selected at build time so that the
compatibility dα(A,B) = 2·g(A, φB) holds.  The exterior derivative
convention is frozen package-wide without a 1/2 factor:

    dα(A,B) = A(α(B)) − B(α(A)) − α([A,B]).

Checkers cover the three contact-metric axioms, the Killing property of
the Reeb field, and the Sasakian identity (∇_A φ)B = g(A,B)Z − α(B)A.

Kernels and checks follow the batch convention of :mod:`kontact.manifold`:
each check is defined once, as a ``manifold.Check`` (its name, default
tolerance and block kernel), by a function that ``manifold.checker``
makes its public checker.  The random tangent directions of a check come
from the sweep, not the check: ``Block.tangents(seed, shape)`` draws them
from one seeded stream block by block in point order, once per block
for every check that names that stream, so the α and β checks of one
identity share their directions.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np

from .ad import (
    axis0_to_last,
    dot,
    jacobian_rows,
    matvec,
    norm,
    proj_tangent,
    sv,
    value,
)
from .errors import ConstructionError
from .manifold import (
    AmbientVectorField,
    Block,
    Check,
    Frame,
    OrthoComplexStructure,
    TangentVector,
    as_points,
    checker,
    constant_field,
    cov_deriv_batch,
    linear_field,
    projector,
    random_tangent_batch,
    sample_coords,
)

D_ALPHA_CONVENTION = "d(alpha)(A,B) = A(alpha(B)) - B(alpha(A)) - alpha([A,B])"

PROBE_SEED = 90125      # probe points and directions that fix sigma
DIRECTIONS = 2          # random tangent directions (or pairs) per point
AXIOM_II_SEED = 7
AXIOM_III_SEED = 11
KILLING_SEED = 13
SASAKIAN_SEED = 17
PHI_SKEW_SEED = 19


class ContactMetricStructure:
    """(alpha, Z, phi) over the round metric, generated by an ambient
    orthogonal complex structure."""

    def __init__(self, j_ambient: OrthoComplexStructure, sigma: int, label: str = "alpha"):
        self.j_ambient, self.sigma, self.label = j_ambient, sigma, label

    @property
    def ambient_dim(self) -> int:
        return self.j_ambient.ambient_dim

    @property
    def dim(self) -> int:
        return self.ambient_dim - 1

    @property
    def n(self) -> int:
        return (self.ambient_dim - 2) // 2

    def reeb_field(self) -> AmbientVectorField:
        return linear_field(self.j_ambient.mat, label=f"reeb_{self.label}")

    def alpha_coeffs(self, x):
        """Ambient coefficient field of alpha (one-form as a covector field)."""
        return matvec(self.j_ambient.mat, x)

    def phi_at(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Structure tensor at the points x applied to the vectors u (batched)."""
        jm = self.j_ambient.mat
        a = dot(u, matvec(jm, x))[..., None]
        return self.sigma * (matvec(jm, u) + a * x)

    def phi_matrix(self, x: np.ndarray) -> np.ndarray:
        """The structure tensor at the points x as matrices (..., m+1, m+1):
        σ·P·J with P = I − x xᵀ, which :meth:`phi_at` applies to u."""
        return self.sigma * (projector(x) @ self.j_ambient.mat)

    def phi_field(self, V: AmbientVectorField) -> AmbientVectorField:
        """phi applied to a whole field, as a dual-evaluable ambient formula."""
        jm = self.j_ambient.mat
        s = float(self.sigma)

        def evaluator(x):
            v = proj_tangent(x, V.eval(x))
            a = dot(v, matvec(jm, x)) / dot(x, x)
            return sv(s, matvec(jm, v) + sv(a, x))

        return AmbientVectorField(evaluator, tangent=True,
                                  label=f"phi_{self.label}({V.label})")

    def to_descriptor(self) -> dict:
        return {
            "dimension": self.dim,
            "J_matrix": self.j_ambient.mat.tolist(),
            "sigma": self.sigma,
        }

    @classmethod
    def from_descriptor(cls, desc: dict, label: str = "alpha"
                        ) -> "ContactMetricStructure":
        return cls(OrthoComplexStructure(np.asarray(desc["J_matrix"], dtype=float)),
                   int(desc["sigma"]), label=label)


def exterior_derivative(coeff_field: Callable, a: TangentVector,
                        b: TangentVector) -> float:
    """dω(a,b) for a one-form given by ambient coefficients: one row of
    :func:`d_on_pairs`."""
    return float(d_on_pairs(coeff_field, a.base.coords, a.vec, b.vec))


def build_from_complex_structure(j: OrthoComplexStructure, label: str = "alpha"
                                 ) -> ContactMetricStructure:
    """Build the contact metric structure, fixing sigma via the dα axiom.

    Under the frozen convention dα(u,v) = ⟨D_u α, v⟩ − ⟨D_v α, u⟩ =
    2⟨v, Ju⟩ = −2⟨u, Jv⟩ for skew J, while 2 g(u, φv) = 2σ⟨u, Jv⟩ for
    u ⟂ x, so sigma = −1 for every generator.  The structure is built
    with sigma = −1 and dα is taken once (:func:`d_on_pairs`), on seeded
    probe points and tangent directions u, v, to check that rather than
    assume it; if it fails the generator is inconsistent with the frozen
    conventions.
    """
    x = sample_coords(4, PROBE_SEED, j.ambient_dim)
    uv = random_tangent_batch(x, np.random.default_rng(PROBE_SEED + 1), (2,))
    u, v = uv[:, 0], uv[:, 1]
    chosen = ContactMetricStructure(j, -1, label=label)
    lhs = d_on_pairs(chosen.alpha_coeffs, x, u, v)
    if np.max(np.abs(lhs - 2.0 * dot(u, chosen.phi_at(x, v)))) >= 1e-6:
        raise ConstructionError("sigma = -1 does not satisfy the dα compatibility")
    return chosen


# ---------------------------------------------------------------------------
# top-form evaluation (axiom i)

@functools.cache
def _minor_index(k: int, drop: tuple) -> tuple:
    """Index arrays (rows, cols) that take the minor of a k×k matrix
    without the rows and columns in ``drop`` in one fancy-indexing step."""
    keep = [i for i in range(k) if i not in drop]
    return np.ix_(keep, keep)


def _minor(mat: np.ndarray, drop: tuple) -> np.ndarray:
    """``mat`` (..., k, k) without the rows and columns in ``drop``."""
    rows, cols = _minor_index(mat.shape[-1], drop)
    return mat[..., rows, cols]


def pfaffian(mat: np.ndarray):
    """Pfaffian of small skew-symmetric matrices (..., k, k), by recursive
    expansion along the first row; leading axes broadcast."""
    k = mat.shape[-1]
    if k % 2 == 1:
        return np.zeros(mat.shape[:-2])[()]
    if k == 0:
        return np.ones(mat.shape[:-2])[()]
    if k == 2:
        return mat[..., 0, 1]
    total = 0.0
    for jcol in range(1, k):
        sign = -1.0 if jcol % 2 == 0 else 1.0
        total = total + sign * mat[..., 0, jcol] * pfaffian(_minor(mat, (0, jcol)))
    return total


def _d_matrix(coeff_field: Callable, x: np.ndarray) -> np.ndarray:
    """Jᵀ − J at the points x (..., m+1) for the ambient Jacobian of the
    coefficient field, J[..., i, j] = ∂_j ω_i, from one vector-mode
    evaluation, so that dω(u, v) = uᵀ(Jᵀ − J)v.  This is exact for any
    coefficient field, because d commutes with restriction to the sphere:
    the tests hold it to the definition A(ω(B)) − B(ω(A)) − ω([A,B]) on
    projected-constant extensions.  A Jacobian that does not depend on x
    keeps size-1 batch axes."""
    jac = axis0_to_last(value(jacobian_rows(coeff_field, x, x.shape[-1])))
    return np.swapaxes(jac, -1, -2) - jac


def d_on_pairs(coeff_field: Callable, x: np.ndarray, u: np.ndarray,
               v: np.ndarray) -> np.ndarray:
    """dω(u, v) at the points x for tangent vectors u, v, from one Jacobian
    (:func:`_d_matrix`); leading axes of x, u and v broadcast."""
    return np.einsum("...i,...ij,...j->...", u, _d_matrix(coeff_field, x), v)


def _d_on_frames(coeff_field: Callable, x: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """W[..., k, l] = dω(f_k, f_l) on the frames F (..., m, m+1) at x
    (..., m+1): every pair at once from one Jacobian, W = F (Jᵀ − J) Fᵀ."""
    return frames @ _d_matrix(coeff_field, x) @ np.swapaxes(frames, -1, -2)


def volume_form_batch(coeff_field: Callable, x: np.ndarray, frames: np.ndarray,
                      n: int) -> np.ndarray:
    """α∧(dα)^n on the m tangent vectors ``frames`` (..., m, m+1) at the
    points x (..., m+1), not corrected for their orientation; dα on their
    pairs comes from one Jacobian (:func:`_d_on_frames`)."""
    m = frames.shape[-2]
    omega = np.asarray(value(coeff_field(x)), dtype=float)
    a = dot(omega[..., None, :], frames)
    w = _d_on_frames(coeff_field, x, frames)
    fact_n = float(math.factorial(n))
    total = 0.0
    for k in range(m):
        sign = -1.0 if k % 2 else 1.0
        total = total + sign * a[..., k] * fact_n * pfaffian(_minor(w, (k,)))
    return total


def volume_form_value(coeff_field: Callable, frame: Frame, n: int) -> float:
    """Evaluate α∧(dα)^n on the frame, corrected for frame orientation.

    Multiplying by the sign of det[p | E_1 ... E_m] makes the value
    independent of which orthonormal frame was produced, so constancy of
    sign across points is meaningful.
    """
    x, frames = frame.base.coords, frame.matrix
    return float(volume_form_batch(coeff_field, x, frames, n)
                 * np.sign(np.linalg.det(np.concatenate([x[None, :], frames]))))


def volume_form_constant(n: int) -> float:
    """|α∧(dα)^n| on an adapted orthonormal frame: 2^n · n!."""
    return float(2 ** n * math.factorial(n))


# ---------------------------------------------------------------------------
# checkers

@checker()
def check_axiom_volume(s: ContactMetricStructure,
                       coeff_field: Optional[Callable] = None) -> Check:
    """α∧(dα)^n must equal ±2^n·n! times the volume form, with constant sign.

    On every orthonormal frame of a contact metric structure
    |α∧(dα)^n| = 2^n·n! exactly (Blair, *Riemannian Geometry of Contact
    and Symplectic Manifolds*, 2nd ed., 2010), so this is an equality of
    alternating m-forms.  It is read on the projected axes P·e_c, c ≠ a,
    for the a of the largest |x_a| ≥ 1/√(m+1), where the volume form is
    det[x, P·e_c …] = (−1)^a·x_a: the residual is |ω/det − s·2^n·n!| / 2^n·n!,
    s the sign of the first nonzero ω/det, so a sign flip reads 2.
    """
    coeff = coeff_field if coeff_field is not None else s.alpha_coeffs
    ref = volume_form_constant(s.n)
    first = []                  # s, the sign of the first nonzero ω/det

    def kernel(b):
        x, a = b.x, np.argmax(np.abs(b.x), axis=-1)
        axes = projector(x)[np.arange(x.shape[-1]) != a[:, None]].reshape(len(x), -1, x.shape[-1])
        det = np.where(a % 2, -1.0, 1.0) * x[np.arange(len(x)), a]
        values = volume_form_batch(coeff, x, axes, s.n) / (det * ref)
        if not first:
            first.extend(np.sign(values[np.flatnonzero(values)[:1]]))
        return np.abs(values - (first[0] if first else 1.0))

    return Check(f"axiom_volume_{s.label}", 1e-9, kernel,
                 "top form ±2^n·n! with constant sign")


def _directions(b: Block, seed: int, pairs: bool = True) -> tuple:
    """(p, u, v) of DIRECTIONS random tangent pairs at each point of the
    block, or (p, u) of single directions if not ``pairs``, p (B, 1, m+1)
    and u, v (B, DIRECTIONS, m+1), from the block's stream seeded by
    ``seed``."""
    p = b.x[:, None, :]
    if not pairs:
        return p, b.tangents(seed, (DIRECTIONS,))
    uv = b.tangents(seed, (DIRECTIONS, 2))
    return p, uv[..., 0, :], uv[..., 1, :]


@checker()
def check_axiom_ii(s: ContactMetricStructure) -> Check:
    """‖φ²u + u − α(u)Z‖ over random tangent directions."""
    def kernel(b):
        p, u = _directions(b, AXIOM_II_SEED, pairs=False)
        z = matvec(s.j_ambient.mat, p)
        return norm(s.phi_at(p, s.phi_at(p, u)) + u - dot(u, z)[..., None] * z)

    return Check(f"axiom_ii_{s.label}", 1e-9, kernel,
                 "phi squared is -Id + alpha tensor reeb")


@checker()
def check_axiom_iii(s: ContactMetricStructure) -> Check:
    """|dα(u,v) − 2 g(u, φv)| over random tangent pairs, with dα from one
    Jacobian of α's coefficients per block (:func:`d_on_pairs`)."""
    def kernel(b):
        x, u, v = _directions(b, AXIOM_III_SEED)
        return np.abs(d_on_pairs(s.alpha_coeffs, x, u, v) - 2.0 * dot(u, s.phi_at(x, v)))

    return Check(f"axiom_iii_{s.label}", 1e-8, kernel,
                 D_ALPHA_CONVENTION + " against 2 g(., phi .)")


def killing_residual_batch(field: AmbientVectorField, x: np.ndarray,
                           u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(L_V g)(u,v) = g(∇_u V, v) + g(u, ∇_v V) at the points x (batched)."""
    return dot(cov_deriv_batch(field, x, u), v) + dot(u, cov_deriv_batch(field, x, v))


@checker(lambda field, points: as_points(points))
def check_killing(field: AmbientVectorField, check_name: str = "killing") -> Check:
    """Vanishing of the symmetrized covariant derivative (Killing equation)
    over random tangent pairs."""
    return Check(check_name, 1e-9,
                 lambda b: killing_residual_batch(field, *_directions(b, KILLING_SEED)),
                 "symmetrized covariant derivative of the field")


@checker()
def check_kcontact(s: ContactMetricStructure) -> Check:
    """The Reeb field must be an infinitesimal isometry."""
    return check_killing.build(s.reeb_field(), f"kcontact_{s.label}")


def sasakian_residual_batch(s: ContactMetricStructure, x: np.ndarray,
                            u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """‖(∇_u φ)(v) − (g(u,v)Z − α(v)u)‖ at the points x (batched), with
    (∇_uφ)v = ∇_u(φṽ) − φ(∇_u ṽ) for the projected-constant extension ṽ."""
    ext_v = constant_field(v)
    lhs = cov_deriv_batch(s.phi_field(ext_v), x, u) - s.phi_at(x, cov_deriv_batch(ext_v, x, u))
    z = matvec(s.j_ambient.mat, x)
    return norm(lhs - (dot(u, v)[..., None] * z - dot(v, z)[..., None] * u))


@checker()
def check_sasakian(s: ContactMetricStructure) -> Check:
    """(∇_A φ)B = g(A,B)Z − α(B)A over random tangent pairs."""
    return Check(f"sasakian_{s.label}", 1e-8,
                 lambda b: sasakian_residual_batch(s, *_directions(b, SASAKIAN_SEED)),
                 "covariant derivative of phi against the defining identity")


@checker()
def check_phi_skew(s: ContactMetricStructure) -> Check:
    """|g(φu, v) + g(u, φv)| — metric skewness of the structure tensor."""
    def kernel(b):
        x, u, v = _directions(b, PHI_SKEW_SEED)
        return np.abs(dot(s.phi_at(x, u), v) + dot(u, s.phi_at(x, v)))

    return Check(f"phi_skew_{s.label}", 1e-9, kernel, "structure tensor is metric-skew")
