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
and checks are defined as in :mod:`kontact.contact`.  The three checks
on the sub-bundle (the Laplacian formula, the φJ spectrum and the
restricted Hessian) share one sub-bundle frame and its image under Jφ
per block of a sweep (:func:`_sub_bundle`, through ``manifold.Block``).
They skip a point where Z, X and JX fail ``manifold.seeds_span``, the
rank test ``manifold.frame_batch`` applies to its seeds (Gram
determinant ≈ (1 − f²)² below 1e-10, so 1 − |f| ≲ 5e-6).  The φJ and
Hessian checks need the first structure to be Sasakian; where the
sub-bundle is not zero (m ≥ 5), a sweep probes that once first
(:func:`_sasakian_gate`).
"""

from __future__ import annotations

import warnings

import numpy as np

from .ad import dot, matvec
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
    Block,
    Check,
    Frame,
    OrthoComplexStructure,
    SpherePoint,
    TangentVector,
    apply,
    block_diag_complex_structure,
    checker,
    curvature_numeric_batch,
    frame_batch,
    inner,
    lie_bracket_batch,
    sample_coords,
    seeds_span,
    shape_form,
)
from .scalar_fields import (
    ScalarField,
    TransnormalProfile,
    ambient_gradient_field,
    check_transnormal,
    gradient_and_norm,
    gradient_batch,
    laplacian_batch,
    regular,
    values_batch,
)

GRADIENT_PAIRING = ("grad(angle) = 2*phi_alpha(reeb_beta) = 2*phi_beta(reeb_alpha); "
                    "the first pairing is the one quoted as 2*J*X")

ANGLE_PROFILE = TransnormalProfile(b=lambda t: 4.0 * (1.0 - t * t),
                                   b_prime=lambda t: -8.0 * t)

NUMERIC_SUBSET = 25     # leading points whose Ricci check repeats with numeric curvature
HESSIAN_DIAGNOSTIC_SEED = 29
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
    z = apply(d.s_alpha.j_ambient.mat, x)
    xb = apply(d.s_beta.j_ambient.mat, x)
    return np.stack([z, xb, d.s_alpha.phi_at(x, xb)], axis=-2)


def _spans(b: Block, d: DoubleKContact) -> np.ndarray:
    """Where Z, X and JX span a 3-plane in a block, by the very test that
    :func:`hbundle_frames` must pass (the Gram determinant is ≈ (1 − f²)²)."""
    return seeds_span(b.x, _hbundle_seeds(d, b.x))


def hbundle_frames(d: DoubleKContact, x: np.ndarray) -> np.ndarray:
    """Orthonormal bases of {Z, X, JX}^⊥ at the regular points x (batched),
    shape (..., m−3, m+1): the tail of the frame seeded by Z, X, JX.  On
    S³ the sub-bundle is zero and the bases are empty, with no frame built;
    callers mask the points where the seeds do not span (:func:`_spans`)."""
    if d.dim == 3:
        return np.empty(x.shape[:-1] + (0, x.shape[-1]))
    return frame_batch(x, _hbundle_seeds(d, x))[..., 3:, :]


def hbundle_basis(d: DoubleKContact, p: SpherePoint) -> Frame:
    """Deterministic orthonormal basis of {Z, X, JX}^⊥ inside T_p."""
    if not seeds_span(p.coords, _hbundle_seeds(d, p.coords)):
        raise RegularityError("the spanning fields degenerate where |f| ~ 1")
    return Frame(p, tuple(TangentVector(p, e) for e in hbundle_frames(d, p.coords)))


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

    def norm(v):
        return np.sqrt(inner(v, v))

    def kernel(b):
        p = b.x
        z, x = apply(j1, p), apply(j2, p)
        r = norm(lie_bracket_batch(xb, za, p))
        r = np.maximum(r, np.maximum(np.abs(inner(z, z) - 1.0), np.abs(inner(x, x) - 1.0)))
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
        res = [g - 2.0 * s.phi_at(x, apply(reeb, x)) for s, reeb in pairings]
        return np.maximum(*(np.sqrt(inner(r, r)) for r in res))

    return Check("gradient_identity", 1e-9, kernel,
                 f"{GRADIENT_PAIRING}; gated on the worse pairing, "
                 "so a pass means both pairings hold")


@checker()
def transnormal_b_check(d: DoubleKContact) -> Check:
    """‖grad f‖² = 4(1 − f²) for the angle function."""
    c = check_transnormal.build(d.angle_function(), ANGLE_PROFILE)
    return Check(c.name, c.tol, c.kernel, "angle function with b(t) = 4(1-t^2)",
                 keep=c.keep, before=c.before)


def _phi_chain(x: np.ndarray, first, second, u: np.ndarray) -> np.ndarray:
    """second.phi(first.phi(u)) at the points x for vectors u (..., k, m+1)."""
    p = x[..., None, :]
    return second.phi_at(p, first.phi_at(p, u))


def _sub_bundle(d: DoubleKContact, x: np.ndarray) -> tuple:
    """The sub-bundle bases E (..., m−3, m+1) at the points x
    (:func:`hbundle_frames`) and Jφ E, the first structure's tensor after
    the second's on each row."""
    basis = hbundle_frames(d, x)
    return basis, _phi_chain(x, d.s_beta, d.s_alpha, basis)


@checker()
def laplacian_formula_check(d: DoubleKContact) -> Check:
    """Δf against (4n+4)·f + 2·Σ g(JφE_i, E_i) over the orthogonal sub-bundle."""
    f = d.angle_function()

    def kernel(b):
        basis, jphi = b.of(_sub_bundle, d)
        rhs = (4.0 * d.n + 4.0) * b.full(values_batch, f) + 2.0 * np.sum(
            inner(jphi, basis), axis=-1)
        return np.abs(b.full(laplacian_batch, f) - rhs)

    return Check("laplacian_formula", 1e-7, kernel,
                 "laplacian vs (4n+4) f + 2 tr(J phi) on the sub-bundle", keep=(_spans, d))


@checker()
def phi_product_spectrum_check(d: DoubleKContact) -> Check:
    """On {Z,X,JX}^⊥ the composite φJ must be symmetric, square to the
    identity, commute with Jφ, and have eigenvalues ±1: one residual per
    point, the largest of the four.  Vacuous in dimension 3, where the
    sub-bundle is zero.
    """
    eigs_seen = set()

    def kernel(b):
        x, (basis, jphi) = b.x, b.of(_sub_bundle, d)
        k = basis.shape[-2]
        if k == 0:
            return np.zeros(len(x))
        phi_j = _phi_chain(x, d.s_alpha, d.s_beta, basis)
        diff = phi_j - jphi
        commute_res = np.max(np.sqrt(inner(diff, diff)), axis=-1)
        # m_phi_j[j, i] = g(φJ e_i, e_j)
        m_phi_j = inner(phi_j[:, None, :, :], basis[:, :, None, :])
        m_t = np.swapaxes(m_phi_j, -1, -2)
        sym_res = np.max(np.abs(m_phi_j - m_t), axis=(-2, -1))
        square_res = np.max(np.abs(m_phi_j @ m_phi_j - np.eye(k)), axis=(-2, -1))
        eigvals = np.linalg.eigvalsh(0.5 * (m_phi_j + m_t))
        eig_res = np.max(np.abs(np.abs(eigvals) - 1.0), axis=-1)
        eigs_seen.update(np.rint(eigvals).astype(int).ravel().tolist())
        return np.maximum.reduce([sym_res, commute_res, square_res, eig_res])

    return Check("phi_product_spectrum", 1e-8, kernel,
                 lambda: ("phi-product on the sub-bundle; eigenvalues seen: "
                          f"{sorted(eigs_seen)}"),
                 keep=(_spans, d), before=(_sasakian_gate, d) if d.dim >= 5 else ())


@checker()
def hessian_restriction_check(d: DoubleKContact) -> Check:
    """Hess_f(A,B) = −2 f g(A,B) − 2 g(JφA, B) for A, B in {Z,X,JX}^⊥:
    one residual per point and pair of sub-bundle rows, and one zero per
    point on S³, where the sub-bundle is zero.  Hess_f(u, v) is read as
    uᵀJv − ⟨x, ∇f⟩⟨u, v⟩, J the one raw Jacobian of ∇f (``shape_form``).

    The full-argument identity (with its 2 g(A,X) g(Z,B) term) is a
    diagnostic only, reported in the provenance as its maximum over one
    random pair (u, v) per point, drawn at the kept points from the stream
    seeded by HESSIAN_DIAGNOSTIC_SEED; it is not gated because the
    restriction to the sub-bundle is the part with an unambiguous
    symmetric reading.
    """
    f = d.angle_function()
    grad = ambient_gradient_field(f)
    full_domain = [0.0]

    def kernel(b):
        x, fv, (basis, jphi) = b.x, b.full(values_batch, f), b.of(_sub_bundle, d)
        if basis.shape[-2] == 0:
            return np.zeros(len(x))
        i, j = np.triu_indices(basis.shape[-2])
        a, c = basis[:, i], basis[:, j]
        lhs = shape_form(grad, x[:, None, :], a, c)
        rhs = -2.0 * fv[:, None] * inner(a, c) - 2.0 * inner(jphi[:, i], c)
        uv = b.tangents(HESSIAN_DIAGNOSTIC_SEED, (2,))
        u, v = uv[:, 0], uv[:, 1]
        xb = apply(d.s_beta.j_ambient.mat, x)
        z = apply(d.s_alpha.j_ambient.mat, x)
        jphi_u = d.s_alpha.phi_at(x, d.s_beta.phi_at(x, u))
        full = (2.0 * inner(u, xb) * inner(z, v) - 2.0 * fv * inner(u, v)
                - 2.0 * inner(jphi_u, v))
        full_domain.append(np.max(np.abs(shape_form(grad, x, u, v) - full)))
        return np.abs(lhs - rhs)

    return Check("hessian_restricted", 1e-7, kernel,
                 lambda: ("hessian vs -2 f g - 2 g(J phi ., .) on the sub-bundle; "
                          "full-argument diagnostic (ungated) max "
                          f"{float(max(full_domain)):.3e}"),
                 keep=(_spans, d), before=(_sasakian_gate, d) if d.dim >= 5 else ())


@checker()
def dim_theorem_check(d: DoubleKContact) -> Check:
    """Isoparametricity in low dimensions: Δf = 8f on S³ (tolerance 1e-7);
    Δf = 12f + c0 on S⁵ (tolerance 1e-6) with c0 a point-independent
    constant of magnitude 4, the one nearest the first point's Δf − 12f."""
    if d.dim not in (3, 5):
        raise UnsupportedDimensionError(
            "the low-dimension statement covers dimensions 3 and 5 only")
    f = d.angle_function()
    first = {}                  # c0, from the first point

    def kernel(b):
        fv, lap = b.of(values_batch, f), b.of(laplacian_batch, f)
        if d.dim == 3:
            return np.abs(lap - 8.0 * fv)
        if not first:
            est = lap[0] - 12.0 * fv[0]
            first["c0"] = 4.0 if abs(est - 4.0) <= abs(est + 4.0) else -4.0
        return np.abs(lap - 12.0 * fv - first["c0"])

    if d.dim == 3:
        return Check("dimension_theorem", 1e-7, kernel, "laplacian = 8 f in dimension 3")
    return Check("dimension_theorem", 1e-6, kernel,
                 lambda: "laplacian = 12 f + c0 in dimension 5" + (
                     f"; offset c0 = {first['c0']:+.0f}" if first else ""))


@checker()
def ricci_normal_check(d: DoubleKContact) -> Check:
    """ric(E, N) must vanish for every E tangent to the level set, and the
    Ricci endomorphism must commute with the structure tensor chain:
    g(E, Q(JX)) = g(E, J(QX)), at the regular points.

    The analytic part reads ric(E, N) = (m−1)·g(E, N) on the rows E of
    the level frame seeded by N, so it tests that frame; a sub-sample (the
    first NUMERIC_SUBSET points of the sweep) takes ric(E, N) as the frame
    sum of the numerical curvature instead, to pin the curvature code.
    """
    f = d.angle_function()
    mdim = d.dim
    jm2 = d.s_beta.j_ambient.mat

    def kernel(b):
        x = b.x
        g, gn = gradient_and_norm(b, f)
        nvec = g / gn[:, None]
        frames = frame_batch(x, nvec[:, None, :])
        level = frames[:, 1:]
        r = (mdim - 1) * np.max(np.abs(inner(level, nvec[:, None, :])), axis=-1)
        reeb_b = apply(jm2, x)
        qjx = (mdim - 1) * d.s_alpha.phi_at(x, reeb_b)
        jqx = d.s_alpha.phi_at(x, (mdim - 1) * reeb_b)
        commute = np.abs(inner(frames, qjx[:, None, :]) - inner(frames, jqx[:, None, :]))
        r = np.maximum(r, np.max(commute, axis=-1))
        sub = np.flatnonzero(b.index < NUMERIC_SUBSET)
        if sub.size:
            e_i = frames[sub, :, None, :]
            num = curvature_numeric_batch(x[sub, None, None, :], e_i,
                                          level[sub, None, :2], nvec[sub, None, None, :])
            ric = np.sum(inner(num, e_i), axis=1)
            r[sub] = np.maximum(r[sub], np.max(np.abs(ric), axis=-1))
        return r

    return Check("ricci_normal", 1e-8, kernel,
                 "ricci(E, N) = 0 and Q(JX) = J(QX) along level frames", keep=(regular, f))
