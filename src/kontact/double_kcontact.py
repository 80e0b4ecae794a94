"""Pairs of commuting K-contact structures sharing the round metric.

Built from two commuting orthogonal complex structures Jt1, Jt2 on the
ambient space.  The carrier of all the interesting geometry is the angle
function f = g(X, Z) = ⟨Jt2·p, Jt1·p⟩ between the two Reeb fields:

* grad f = 2·phi_alpha(X) = 2·phi_beta(Z) (both pairings hold for
  commuting generators; this is checked, not assumed);
* ‖grad f‖² = 4(1 − f²), so f is transnormal with b(t) = 4(1−t²);
* Δf = (4n+4)·f + 2·Σ g(J φ E_i, E_i) over an orthonormal basis of the
  sub-bundle orthogonal to {Z, X, JX}, which collapses to
  Δf = 8f in dimension 3 and Δf = 12f ± 4 in dimension 5.

The composite J φ (first structure's tensor after the second's) is, on
that sub-bundle, symmetric with eigenvalues ±1 whenever the first
structure is Sasakian; its eigenvalue pattern decides the ±4 branch.

Kernels and checks follow the batch convention of :mod:`kontact.manifold`,
and checks are defined as in :mod:`kontact.contact`; none builds a frame.
The three checks on the sub-bundle (the Laplacian formula, the φJ
spectrum and the restricted Hessian) share its projector Q and Jφ Q per
block of a sweep (:func:`_sub_bundle`, through ``manifold.Block``).
They skip the points that the other level-set checks skip, where f is
not regular (``scalar_fields.regular``): Z, X and JX have Gram
determinant (1 − f²)² and |∇f|² = 4(1 − f²), so they span a 3-plane
exactly where ∇f ≠ 0.  The φJ and Hessian checks need the first
structure to be Sasakian; where the sub-bundle is not zero (m ≥ 5), a
sweep probes that once first (:func:`_sasakian_gate`).
"""

from __future__ import annotations

import warnings

import numpy as np

from .ad import dot, matvec, norm
from .contact import (
    ContactMetricStructure,
    build_from_complex_structure,
    check_sasakian,
)
from .errors import (
    ConstructionError,
    PreconditionError,
    RegularityError,
    UnsupportedDimensionError,
)
from .manifold import (
    Check,
    Frame,
    OrthoComplexStructure,
    SpherePoint,
    TangentVector,
    block_diag_complex_structure,
    checker,
    curvature_numeric_batch,
    frame_batch,
    lie_bracket_batch,
    projector,
    sample_coords,
    shape_form,
)
from .scalar_fields import (
    ScalarField,
    TransnormalProfile,
    ambient_gradient_field,
    check_transnormal,
    gradient_and_norm,
    gradient_batch,
    gradient_norm,
    is_regular,
    laplacian_batch,
    regular,
    values_batch,
)

GRADIENT_PAIRING = ("grad(angle) = 2*phi_alpha(reeb_beta) = 2*phi_beta(reeb_alpha); "
                    "the first pairing is the one quoted as 2*J*X")

ANGLE_PROFILE = TransnormalProfile(b=lambda t: 4.0 * (1.0 - t * t),
                                   b_prime=lambda t: -8.0 * t)

NUMERIC_SUBSET = 25     # leading points whose Ricci check repeats with numeric curvature
HESSIAN_SEED = 29       # the sub-bundle Hessian's m−3 tangent draws per point
RICCI_SEED = 31         # the two level directions per point of the Ricci check
SASAKIAN_PROBE_SEED = 23    # the six points of the Sasakian precondition probe


class DoubleKContact:
    """Two commuting contact metric structures over the same round metric."""

    def __init__(self, s_alpha: ContactMetricStructure, s_beta: ContactMetricStructure,
                 degenerate: bool = False):
        self.s_alpha, self.s_beta, self.degenerate = s_alpha, s_beta, degenerate
        j1, j2 = s_alpha.j_ambient.mat, s_beta.j_ambient.mat
        grad_mat = -(j1 @ j2 + j2 @ j1)
        self._angle = ScalarField(eval=lambda x: dot(matvec(j2, x), matvec(j1, x)),
                                  grad=lambda x: matvec(grad_mat, x), label="angle")

    @property
    def ambient_dim(self) -> int:
        return self.s_alpha.ambient_dim

    @property
    def dim(self) -> int:
        return self.s_alpha.dim

    @property
    def n(self) -> int:
        return self.s_alpha.n

    def angle_function(self) -> ScalarField:
        """f = g(X, Z), with its closed-form ambient gradient: one object per
        pair, so that the checks of a sweep share what they compute from f."""
        return self._angle

    def to_descriptor(self) -> dict:
        return {
            "dimension": self.dim,
            "J1": self.s_alpha.j_ambient.mat.tolist(),
            "J2": self.s_beta.j_ambient.mat.tolist(),
        }

    @classmethod
    def from_descriptor(cls, desc: dict) -> "DoubleKContact":
        pair = make_double(OrthoComplexStructure(np.asarray(desc["J1"], dtype=float)),
                           OrthoComplexStructure(np.asarray(desc["J2"], dtype=float)))
        if pair.dim != int(desc["dimension"]):
            raise ConstructionError(f"generators act on S^{pair.dim}, not on "
                                    f"S^{desc['dimension']}")
        return pair


def make_double(j1: OrthoComplexStructure, j2: OrthoComplexStructure
                ) -> DoubleKContact:
    """Pair two generators; they must commute so the Reeb fields do."""
    if j1.ambient_dim != j2.ambient_dim:
        raise ConstructionError("generators act on different ambient spaces")
    comm = np.max(np.abs(j1.mat @ j2.mat - j2.mat @ j1.mat))
    if comm > 1e-12:
        raise ConstructionError(f"generators do not commute (residual {comm})")
    s_alpha = build_from_complex_structure(j1, label="alpha")
    s_beta = build_from_complex_structure(j2, label="beta")
    degenerate = bool(np.allclose(j1.mat, j2.mat) or np.allclose(j1.mat, -j2.mat))
    if degenerate:
        warnings.warn("generators coincide up to sign: the angle function is "
                      "constant +/-1 and every point is critical", stacklevel=2)
    return DoubleKContact(s_alpha, s_beta, degenerate=degenerate)


def standard_pair(dim: int) -> DoubleKContact:
    """The shipped example pair on S^dim (dim odd ≥ 3): J1 = diag(j, j, ...),
    J2 = diag(−j, j, ...), which on S³ reproduces the standard commuting
    pair of Reeb fields."""
    if dim % 2 == 0 or dim < 3:
        raise UnsupportedDimensionError("pairs live on odd spheres of dim >= 3")
    blocks = (dim + 1) // 2
    return make_double(block_diag_complex_structure([1] * blocks),
                       block_diag_complex_structure([-1] + [1] * (blocks - 1)))


def expected_laplacian_profile(d: DoubleKContact) -> tuple[float, float]:
    """Exact affine profile of Δf from the generators alone.

    The ambient formula for f is the quadratic form of −Jt1·Jt2 (for
    commuting generators), so splitting off the radial part leaves a
    degree-2 harmonic polynomial with spherical eigenvalue 2(m+1):
    Δf = 2(m+1)·f + 2·tr(Jt1·Jt2).  Independent of any connection code.
    """
    m = d.dim
    offset = 2.0 * float(np.trace(d.s_alpha.j_ambient.mat @ d.s_beta.j_ambient.mat))
    return 2.0 * (m + 1), offset


# ---------------------------------------------------------------------------
# the sub-bundle orthogonal to {Z, X, JX}

def _hbundle_seeds(d: DoubleKContact, x: np.ndarray) -> np.ndarray:
    """Z, X and JX at the points x, shape (..., 3, m+1)."""
    z = matvec(d.s_alpha.j_ambient.mat, x)
    xb = matvec(d.s_beta.j_ambient.mat, x)
    return np.stack([z, xb, d.s_alpha.phi_at(x, xb)], axis=-2)


def hbundle_basis(d: DoubleKContact, p: SpherePoint) -> Frame:
    """Orthonormal basis of {Z, X, JX}^⊥ in T_p: the tail of their frame.
    Raises :class:`RegularityError` where f is not regular
    (``scalar_fields.is_regular``), the points the sub-bundle checks skip;
    elsewhere the seeds' residues in the frame's QR are about √(1 − f²) =
    ‖∇f‖/2 ≥ 5e-7 long, far above the frame's rank test."""
    if not is_regular(gradient_norm(d.angle_function(), p.coords)):
        raise RegularityError("the spanning fields degenerate where f is not regular")
    seeds = _hbundle_seeds(d, p.coords)
    return Frame(p, tuple(TangentVector(p, e) for e in frame_batch(p.coords, seeds)[3:]))


def _sasakian_gate(d: DoubleKContact) -> None:
    rep = check_sasakian(d.s_alpha, sample_coords(6, SASAKIAN_PROBE_SEED, d.ambient_dim))
    if not rep.passed:
        raise PreconditionError("first structure is not Sasakian at probe points")


# ---------------------------------------------------------------------------
# checks

@checker()
def commuting_invariants_check(d: DoubleKContact) -> Check:
    """Pair invariants: [X,Z] = 0, unit Reeb fields, α(Z)=1, φZ=0, |f| ≤ 1.

    α(Z) = g(Z, Z) here, so the unit-length residual also covers α(Z) = 1.
    """
    j1, j2 = d.s_alpha.j_ambient.mat, d.s_beta.j_ambient.mat
    za, xb = d.s_alpha.reeb_field(), d.s_beta.reeb_field()
    f = d.angle_function()

    def kernel(b):
        p = b.x
        z, x = matvec(j1, p), matvec(j2, p)
        r = norm(lie_bracket_batch(xb, za, p))
        r = np.maximum(r, np.maximum(np.abs(dot(z, z) - 1.0), np.abs(dot(x, x) - 1.0)))
        r = np.maximum(r, np.maximum(norm(d.s_alpha.phi_at(p, z)),
                                     norm(d.s_beta.phi_at(p, x))))
        return np.maximum(r, np.maximum(0.0, np.abs(b.of(values_batch, f)) - 1.0))

    return Check("double_invariants", 1e-10, kernel,
                 "commuting Reeb fields, unit length, structure algebra")


@checker()
def gradient_identity_check(d: DoubleKContact) -> Check:
    """grad f against 2·phi_alpha(X) and 2·phi_beta(Z).  Both pairings
    hold for every commuting pair; the residual at a point is the larger
    of the two."""
    f = d.angle_function()
    pairings = ((d.s_alpha, d.s_beta.j_ambient.mat),
                (d.s_beta, d.s_alpha.j_ambient.mat))

    def kernel(b):
        x, g = b.x, b.of(gradient_batch, f)
        res = [g - 2.0 * s.phi_at(x, matvec(reeb, x)) for s, reeb in pairings]
        return np.maximum(*(norm(r) for r in res))

    return Check("gradient_identity", 1e-9, kernel,
                 f"{GRADIENT_PAIRING}; gated on the worse pairing, "
                 "so a pass means both pairings hold")


@checker()
def transnormal_b_check(d: DoubleKContact) -> Check:
    """‖grad f‖² = 4(1 − f²) for the angle function."""
    c = check_transnormal.build(d.angle_function(), ANGLE_PROFILE)
    return Check(c.name, c.tol, c.kernel, "angle function with b(t) = 4(1-t^2)",
                 keep=c.keep, before=c.before)


def _phi_chain(x: np.ndarray, first, second) -> np.ndarray:
    """second.φ ∘ first.φ at the points x, as matrices (..., m+1, m+1)."""
    return second.phi_matrix(x) @ first.phi_matrix(x)


def _sub_bundle(d: DoubleKContact, x: np.ndarray) -> tuple:
    """The projector Q onto {Z, X, JX}^⊥ ∩ T_x at the points x (..., m+1,
    m+1), with no rows on S³, and Q·(Jφ)ᵀ, the rows Jφ q_a for the rows q_a
    of Q.  From Q = P = I − x xᵀ, each seed s sets r = Q·s and
    Q ← Q − r rᵀ/|r|²: no square root, and the rounding stays at a few
    units as |f| → 1, where P − Sᵀ(SSᵀ)⁻¹S loses digits like ε/(1 − |f|)."""
    if d.dim == 3:
        q = np.empty(x.shape[:-1] + (0, x.shape[-1]))
        return q, q
    q = projector(x)
    for seed in np.moveaxis(_hbundle_seeds(d, x), -2, 0):
        r = np.einsum("...ij,...j->...i", q, seed)
        q = q - r[..., :, None] * (r / dot(r, r)[..., None])[..., None, :]
    return q, q @ np.swapaxes(_phi_chain(x, d.s_beta, d.s_alpha), -1, -2)


@checker()
def laplacian_formula_check(d: DoubleKContact) -> Check:
    """Δf against (4n+4)·f + 2·Σ g(JφE_i, E_i) over the orthogonal
    sub-bundle, the sum read as tr(Q·Jφ) = Σ_a g(Jφ q_a, q_a)."""
    f = d.angle_function()

    def kernel(b):
        q, jphi = b.of(_sub_bundle, d)
        rhs = (4.0 * d.n + 4.0) * b.full(values_batch, f) + 2.0 * np.sum(
            dot(jphi, q), axis=-1)
        return np.abs(b.full(laplacian_batch, f) - rhs)

    return Check("laplacian_formula", 1e-7, kernel,
                 "laplacian vs (4n+4) f + 2 tr(J phi) on the sub-bundle", keep=(regular, f))


@checker()
def phi_product_spectrum_check(d: DoubleKContact) -> Check:
    """On {Z,X,JX}^⊥ the composite φJ must be symmetric, square to the
    identity and commute with Jφ: one residual per point, the largest entry
    of M − Mᵀ, M² − Q and (φJ − Jφ)Q for M = Q·φJ·Q.  Its eigenvalues there
    are then ±1, of multiplicities (tr Q ± tr M)/2, the eigenvalues seen.
    Vacuous in dimension 3."""
    f = d.angle_function()
    eigs_seen = set()

    def kernel(b):
        x, (q, jphi) = b.x, b.of(_sub_bundle, d)
        if d.dim == 3:
            return np.zeros(len(x))
        phi_j = q @ np.swapaxes(_phi_chain(x, d.s_alpha, d.s_beta), -1, -2)
        m = q @ np.swapaxes(phi_j, -1, -2)
        diff = phi_j - jphi
        commute_res = np.max(norm(diff), axis=-1)
        sym_res = np.max(np.abs(m - np.swapaxes(m, -1, -2)), axis=(-2, -1))
        square_res = np.max(np.abs(m @ m - q), axis=(-2, -1))
        trace_q, trace_m = (np.trace(a, axis1=-2, axis2=-1) for a in (q, m))
        eigs_seen.update(eig for eig, twice in ((1, trace_q + trace_m), (-1, trace_q - trace_m))
                         if np.any(np.rint(0.5 * twice) > 0))
        return np.maximum.reduce([sym_res, commute_res, square_res])

    return Check("phi_product_spectrum", 1e-8, kernel,
                 lambda: ("phi-product on the sub-bundle; eigenvalues seen: "
                          f"{sorted(eigs_seen)}"),
                 keep=(regular, f), before=(_sasakian_gate, d) if d.dim >= 5 else ())


@checker()
def hessian_restriction_check(d: DoubleKContact) -> Check:
    """Hess_f(A,B) = −2 f g(A,B) − 2 g(JφA, B) for A, B in {Z,X,JX}^⊥,
    read on A_i = Q·u_i for m−3 tangent draws u_i per point (HESSIAN_SEED):
    one residual per pair i ≤ j, and one zero per point on S³, where nothing
    is drawn.  Hess_f(u, v) is uᵀJv − ⟨x, ∇f⟩⟨u, v⟩ (``shape_form``).

    The full-argument identity (with its 2 g(A,X) g(Z,B) term), read on
    (u_0, u_1), is a diagnostic only, its maximum reported in the
    provenance: the restriction is the part with a symmetric reading.
    """
    f = d.angle_function()
    grad = ambient_gradient_field(f)
    full_domain = [0.0]

    def kernel(b):
        x, fv, (q, jphi) = b.x, b.full(values_batch, f), b.of(_sub_bundle, d)
        if d.dim == 3:
            return np.zeros(len(x))
        u = b.tangents(HESSIAN_SEED, (d.dim - 3,))
        a, ja = u @ q, u @ jphi                 # Q·u_i and Jφ Q·u_i, Q symmetric
        i, j = np.triu_indices(d.dim - 3)
        lhs = shape_form(grad, x[:, None, :], a[:, i], a[:, j])
        rhs = -2.0 * fv[:, None] * dot(a[:, i], a[:, j]) - 2.0 * dot(ja[:, i], a[:, j])
        v, w = u[:, 0], u[:, 1]
        z, xb = matvec(d.s_alpha.j_ambient.mat, x), matvec(d.s_beta.j_ambient.mat, x)
        jphi_v = d.s_alpha.phi_at(x, d.s_beta.phi_at(x, v))
        full = (2.0 * dot(v, xb) * dot(z, w) - 2.0 * fv * dot(v, w)
                - 2.0 * dot(jphi_v, w))
        full_domain.append(np.max(np.abs(shape_form(grad, x, v, w) - full)))
        return np.abs(lhs - rhs)

    return Check("hessian_restricted", 1e-7, kernel,
                 lambda: ("hessian vs -2 f g - 2 g(J phi ., .) on the sub-bundle; "
                          "full-argument diagnostic (ungated) max "
                          f"{float(max(full_domain)):.3e}"),
                 keep=(regular, f), before=(_sasakian_gate, d) if d.dim >= 5 else ())


@checker()
def dim_theorem_check(d: DoubleKContact) -> Check:
    """Isoparametricity in low dimensions: Δf = 8f on S³ (tolerance 1e-7)
    and Δf = 12f + c0 on S⁵ (tolerance 1e-6), read as |Δf − slope·f − c0|
    for the profile of :func:`expected_laplacian_profile`, so that c0 =
    2·tr(Jt1·Jt2) comes from the generators: ±4 unless they agree up to
    sign."""
    if d.dim not in (3, 5):
        raise UnsupportedDimensionError(
            "the low-dimension statement covers dimensions 3 and 5 only")
    f = d.angle_function()
    slope, offset = expected_laplacian_profile(d)

    def kernel(b):
        return np.abs(b.of(laplacian_batch, f) - slope * b.of(values_batch, f) - offset)

    if d.dim == 3:
        return Check("dimension_theorem", 1e-7, kernel, "laplacian = 8 f in dimension 3")
    return Check("dimension_theorem", 1e-6, kernel,
                 f"laplacian = 12 f + c0 in dimension 5; offset c0 = {offset:+.0f}")


@checker()
def ricci_normal_check(d: DoubleKContact) -> Check:
    """ric(E, N) must vanish for every E tangent to the level set, at the
    regular points, for two tangent draws u per point (RICCI_SEED) and
    their level parts E = u − ⟨u, N⟩N.

    The analytic part reads ric(E, N) = (m−1)·g(E, N); the first
    NUMERIC_SUBSET points of the sweep take ric(E, N) from the numerical
    curvature instead, to pin the curvature code, as the trace
    Σ_a g(R(Pe_a, E)N, Pe_a) over the rows of P (``manifold.projector``)."""
    f = d.angle_function()
    mdim = d.dim

    def kernel(b):
        x = b.x
        g, gn = gradient_and_norm(b, f)
        nvec = g[:, None, :] / gn[:, None, None]
        u = b.tangents(RICCI_SEED, (2,))
        level = u - dot(u, nvec)[..., None] * nvec
        r = (mdim - 1) * np.max(np.abs(dot(level, nvec)), axis=-1)
        sub = np.flatnonzero(b.index < NUMERIC_SUBSET)
        if sub.size:
            y, axes = x[sub, None, None], projector(x[sub])[:, :, None, :]
            num = curvature_numeric_batch(y, axes, level[sub, None], nvec[sub, None])
            ric = np.sum(dot(num, axes), axis=1)
            r[sub] = np.maximum(r[sub], np.max(np.abs(ric), axis=-1))
        return r

    return Check("ricci_normal", 1e-8, kernel,
                 "ricci(E, N) = 0 on projected draws E = u - <u, N>N",
                 keep=(regular, f))
