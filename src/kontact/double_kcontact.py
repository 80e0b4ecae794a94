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

Kernels and checks follow the batch convention of :mod:`kontact.manifold`.
The three checks on the sub-bundle (the Laplacian formula, the φJ
spectrum and the restricted Hessian) are contractions of one sweep,
:func:`hbundle_residuals`: one sub-bundle frame per block of points.
They skip a point where Z, X and JX fail ``manifold.seeds_span``, the
rank test ``manifold.frame_batch`` applies to its seeds (Gram determinant
≈ (1 − f²)² below 1e-10, so 1 − |f| ≲ 5e-6).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import ArrayLike

from .ad import value
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
    Frame,
    OrthoComplexStructure,
    SpherePoint,
    TangentVector,
    apply,
    as_points,
    block_diag_complex_structure,
    curvature_numeric_batch,
    frame_batch,
    inner,
    lie_bracket_batch,
    random_tangent_batch,
    sample_coords,
    seeds_span,
    sweep,
)
from .report import ResidualReport
from .scalar_fields import (
    EPS_REGULAR,
    ScalarField,
    TransnormalProfile,
    check_transnormal,
    gradient_batch,
    hessian_matrix,
    laplacian_batch,
)

GRADIENT_PAIRING = ("grad(angle) = 2*phi_alpha(reeb_beta) = 2*phi_beta(reeb_alpha); "
                    "the first pairing is the one quoted as 2*J*X")

ANGLE_PROFILE = TransnormalProfile(b=lambda t: 4.0 * (1.0 - t * t),
                                   b_prime=lambda t: -8.0 * t)

# Sub-residual bounds of phi_product_spectrum_check; its residual is in units
# of EIG_TOL, its default tolerance.
SYM_TOL = 1e-8
COMMUTE_TOL = 1e-8
EIG_TOL = 1e-7
SQUARE_TOL = 1e-8
LAPLACIAN_TOL = 1e-7    # default tolerances of the Laplacian and Hessian checks
HESSIAN_TOL = 1e-7
NUMERIC_SUBSET = 25     # leading points whose Ricci check repeats with numeric curvature


@dataclass(frozen=True, eq=False)
class DoubleKContact:
    """Two commuting contact metric structures over the same round metric."""

    s_alpha: ContactMetricStructure
    s_beta: ContactMetricStructure
    degenerate: bool = False

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
        """f = g(X, Z), with its closed-form ambient gradient."""
        j1 = self.s_alpha.j_ambient.mat
        j2 = self.s_beta.j_ambient.mat
        grad_mat = -(j1 @ j2 + j2 @ j1)
        from .ad import dot, matvec
        return ScalarField(eval=lambda x: dot(matvec(j2, x), matvec(j1, x)),
                           grad=lambda x: matvec(grad_mat, x),
                           label="angle")

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


def _spans(d: DoubleKContact, x: np.ndarray) -> np.ndarray:
    """Where Z, X and JX span a 3-plane, by the very test that
    :func:`hbundle_frames` must pass (the Gram determinant is ≈ (1 − f²)²)."""
    return seeds_span(x, _hbundle_seeds(d, x))


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
    if not _spans(d, p.coords):
        raise RegularityError("the spanning fields degenerate where |f| ~ 1")
    return Frame(p, tuple(TangentVector(p, e) for e in hbundle_frames(d, p.coords)))


def _sasakian_gate(d: DoubleKContact, seed: int = 23) -> None:
    rep = check_sasakian(d.s_alpha, sample_coords(6, seed, d.ambient_dim))
    if not rep.passed:
        raise PreconditionError("first structure is not Sasakian at probe points")


# ---------------------------------------------------------------------------
# checkers

def commuting_invariants_check(d: DoubleKContact, points: ArrayLike,
                               tol: float = 1e-10) -> ResidualReport:
    """Pair invariants: [X,Z] = 0, unit Reeb fields, α(Z)=1, φZ=0, |f| ≤ 1.

    α(Z) = g(Z, Z) here, so the unit-length residual also covers α(Z) = 1.
    """
    j1, j2 = d.s_alpha.j_ambient.mat, d.s_beta.j_ambient.mat
    za, xb = d.s_alpha.reeb_field(), d.s_beta.reeb_field()
    f = d.angle_function()

    def norm(v):
        return np.sqrt(inner(v, v))

    def residual(p):
        z, x = apply(j1, p), apply(j2, p)
        r = norm(lie_bracket_batch(xb, za, p))
        r = np.maximum(r, np.maximum(np.abs(inner(z, z) - 1.0), np.abs(inner(x, x) - 1.0)))
        r = np.maximum(r, np.maximum(norm(d.s_alpha.phi_at(p, z)),
                                     norm(d.s_beta.phi_at(p, x))))
        fv = np.asarray(value(f.eval(p)), dtype=float)
        return np.maximum(r, np.maximum(0.0, np.abs(fv) - 1.0))

    return ResidualReport.from_residuals(
        "double_invariants", sweep(residual, as_points(points, d.ambient_dim))[0], tol,
        provenance="commuting Reeb fields, unit length, structure algebra")


def gradient_identity_check(d: DoubleKContact, points: ArrayLike,
                            tol: float = 1e-9) -> ResidualReport:
    """grad f against 2·phi_alpha(X) and 2·phi_beta(Z).  Both pairings
    hold for every commuting pair; the residual at a point is the larger
    of the two."""
    f = d.angle_function()
    pairings = ((d.s_alpha, d.s_beta.j_ambient.mat),
                (d.s_beta, d.s_alpha.j_ambient.mat))

    def residual(x):
        g = gradient_batch(f, x)
        res = [g - 2.0 * s.phi_at(x, apply(reeb, x)) for s, reeb in pairings]
        return np.maximum(*(np.sqrt(inner(r, r)) for r in res))

    return ResidualReport.from_residuals(
        "gradient_identity", sweep(residual, as_points(points, d.ambient_dim))[0],
        tol, provenance=f"{GRADIENT_PAIRING}; gated on the worse pairing, "
                        "so a pass means both pairings hold")


def transnormal_b_check(d: DoubleKContact, points: ArrayLike,
                        tol: float = 1e-9) -> ResidualReport:
    """‖grad f‖² = 4(1 − f²) for the angle function."""
    rep = check_transnormal(d.angle_function(), ANGLE_PROFILE,
                            as_points(points, d.ambient_dim), tol=tol)
    return replace(rep, provenance="angle function with b(t) = 4(1-t^2)")


def _phi_chain(x: np.ndarray, first, second, u: np.ndarray) -> np.ndarray:
    """second.phi(first.phi(u)) at the points x for vectors u (..., k, m+1)."""
    p = x[..., None, :]
    return second.phi_at(p, first.phi_at(p, u))


@dataclass(frozen=True, eq=False)
class HBundleResiduals:
    """Residuals of the three sub-bundle checks from one sweep, at the
    points where {Z, X, JX} spans a 3-plane: one per point for the
    Laplacian and φJ, one per point and pair of sub-bundle rows for the
    Hessian.  With them, what the provenance of two of the reports says:
    the eigenvalues of φJ seen and the largest residual of the ungated
    full-argument Hessian identity."""

    laplacian: np.ndarray
    phi_product: np.ndarray
    hessian: np.ndarray
    skipped: int
    eigenvalues: tuple
    full_hessian_max: float

    def laplacian_report(self, tol: float = LAPLACIAN_TOL) -> ResidualReport:
        return ResidualReport.from_residuals(
            "laplacian_formula", self.laplacian, tol, self.skipped,
            provenance="laplacian vs (4n+4) f + 2 tr(J phi) on the sub-bundle")

    def phi_product_report(self, tol: float = EIG_TOL) -> ResidualReport:
        return ResidualReport.from_residuals(
            "phi_product_spectrum", self.phi_product, tol, self.skipped,
            provenance=("phi-product on the sub-bundle; eigenvalues seen: "
                        f"{list(self.eigenvalues)}"))

    def hessian_report(self, tol: float = HESSIAN_TOL) -> ResidualReport:
        return ResidualReport.from_residuals(
            "hessian_restricted", self.hessian, tol, self.skipped,
            provenance=("hessian vs -2 f g - 2 g(J phi ., .) on the sub-bundle; "
                        "full-argument diagnostic (ungated) max "
                        f"{self.full_hessian_max:.3e}"))


def hbundle_residuals(d: DoubleKContact, points: ArrayLike,
                      verify_sasakian: bool = True) -> HBundleResiduals:
    """The residuals of :func:`laplacian_formula_check`,
    :func:`phi_product_spectrum_check` and :func:`hessian_restriction_check`
    at the points (N, m+1) in one sweep: one mask of the points where the
    sub-bundle is defined, and per block one angle-function value, one
    sub-bundle frame and the three residuals.  The φJ and Hessian parts
    need the first structure to be Sasakian; with ``verify_sasakian`` that
    is probed once first (:func:`_sasakian_gate`), where the sub-bundle is
    not zero (m ≥ 5).  Hessian directions come from one stream seeded
    by 29, drawn block by block."""
    x_all = as_points(points, d.ambient_dim)
    if verify_sasakian and d.dim >= 5:
        _sasakian_gate(d)
    f = d.angle_function()
    rng = np.random.default_rng(29)
    eigs_seen = set()
    full_domain = [0.0]

    def laplacian(x, fv, basis):
        jphi = _phi_chain(x, d.s_beta, d.s_alpha, basis)
        rhs = (4.0 * d.n + 4.0) * fv + 2.0 * np.sum(inner(jphi, basis), axis=-1)
        return np.abs(laplacian_batch(f, x) - rhs)

    def phi_product(x, basis):
        # On {Z,X,JX}^⊥ the composite φJ must be symmetric, square to the
        # identity, commute with Jφ, and have eigenvalues ±1; sub-residuals
        # are in units of EIG_TOL.
        k = basis.shape[-2]
        phi_j = _phi_chain(x, d.s_alpha, d.s_beta, basis)
        diff = phi_j - _phi_chain(x, d.s_beta, d.s_alpha, basis)
        commute_res = np.max(np.sqrt(inner(diff, diff)), axis=-1)
        # m_phi_j[j, i] = g(φJ e_i, e_j)
        m_phi_j = inner(phi_j[:, None, :, :], basis[:, :, None, :])
        m_t = np.swapaxes(m_phi_j, -1, -2)
        sym_res = np.max(np.abs(m_phi_j - m_t), axis=(-2, -1))
        square_res = np.max(np.abs(m_phi_j @ m_phi_j - np.eye(k)), axis=(-2, -1))
        eigvals = np.linalg.eigvalsh(0.5 * (m_phi_j + m_t))
        eig_res = np.max(np.abs(np.abs(eigvals) - 1.0), axis=-1)
        eigs_seen.update(np.rint(eigvals).astype(int).ravel().tolist())
        return np.maximum.reduce([sym_res * (EIG_TOL / SYM_TOL),
                                  commute_res * (EIG_TOL / COMMUTE_TOL),
                                  square_res * (EIG_TOL / SQUARE_TOL),
                                  eig_res])

    def hessian(x, fv, basis):
        hess = hessian_matrix(f, x)
        i, j = np.triu_indices(basis.shape[-2])
        a, b = basis[:, i], basis[:, j]
        lhs = inner(apply(hess[:, None], a), b)
        rhs = (-2.0 * fv[:, None] * inner(a, b)
               - 2.0 * inner(_phi_chain(x, d.s_beta, d.s_alpha, a), b))
        uv = random_tangent_batch(x, rng, (2,))
        u, v = uv[:, 0], uv[:, 1]
        xb = apply(d.s_beta.j_ambient.mat, x)
        z = apply(d.s_alpha.j_ambient.mat, x)
        jphi_u = d.s_alpha.phi_at(x, d.s_beta.phi_at(x, u))
        full = (2.0 * inner(u, xb) * inner(z, v) - 2.0 * fv * inner(u, v)
                - 2.0 * inner(jphi_u, v))
        full_domain.append(np.max(np.abs(inner(apply(hess, u), v) - full)))
        return np.abs(lhs - rhs)

    def block(x, fv):
        # Row per point: the Laplacian and φJ residuals, then one Hessian
        # residual per pair of sub-bundle rows (one zero if there are none).
        basis = hbundle_frames(d, x)
        lap = laplacian(x, fv, basis)[:, None]
        if basis.shape[-2] == 0:
            return np.concatenate([lap, np.zeros((len(x), 2))], axis=-1)
        return np.concatenate([lap, phi_product(x, basis)[:, None],
                               hessian(x, fv, basis)], axis=-1)

    k = d.dim - 3
    fv = np.asarray(value(f.eval(x_all)), dtype=float)
    residuals, skipped = sweep(block, x_all, fv, keep=_spans(d, x_all))
    rows = residuals.reshape(-1, 2 + max(k * (k + 1) // 2, 1))
    return HBundleResiduals(laplacian=rows[:, 0], phi_product=rows[:, 1],
                            hessian=rows[:, 2:].ravel(), skipped=skipped,
                            eigenvalues=tuple(sorted(eigs_seen)),
                            full_hessian_max=float(max(full_domain)))


def laplacian_formula_check(d: DoubleKContact, points: ArrayLike,
                            tol: float = LAPLACIAN_TOL) -> ResidualReport:
    """Δf against (4n+4)·f + 2·Σ g(JφE_i, E_i) over the orthogonal sub-bundle."""
    return hbundle_residuals(d, points, verify_sasakian=False).laplacian_report(tol)


def dim_theorem_check(d: DoubleKContact, points: ArrayLike,
                      tol_dim3: float = 1e-7, tol_dim5: float = 1e-6
                      ) -> ResidualReport:
    """Isoparametricity in low dimensions: Δf = 8f on S³; Δf = 12f + c0 on
    S⁵ with c0 a point-independent constant of magnitude 4, estimated at
    the first point (whose estimate is one more residual)."""
    if d.dim not in (3, 5):
        raise UnsupportedDimensionError(
            "the low-dimension statement covers dimensions 3 and 5 only")
    f = d.angle_function()
    x = as_points(points, d.ambient_dim)
    fv = np.asarray(value(f.eval(x)), dtype=float)
    lap, _ = sweep(lambda y: laplacian_batch(f, y), x)
    if d.dim == 3:
        return ResidualReport.from_residuals(
            "dimension_theorem", np.abs(lap - 8.0 * fv), tol_dim3,
            provenance="laplacian = 8 f in dimension 3")
    residuals, provenance = [], "laplacian = 12 f + c0 in dimension 5"
    if len(x):
        est = lap[0] - 12.0 * fv[0]
        c0 = 4.0 if abs(est - 4.0) <= abs(est + 4.0) else -4.0
        residuals = np.append(np.abs(lap - 12.0 * fv - c0), abs(est - c0))
        provenance += f"; offset c0 = {c0:+.0f}"
    return ResidualReport.from_residuals("dimension_theorem", residuals, tol_dim5,
                                         provenance=provenance)


def phi_product_spectrum_check(d: DoubleKContact, points: ArrayLike,
                               tol: float = EIG_TOL,
                               verify_sasakian: bool = True) -> ResidualReport:
    """On {Z,X,JX}^⊥ the composite φJ must be symmetric, square to the
    identity, commute with Jφ, and have eigenvalues ±1.

    Sub-residuals are rescaled to units of the default tolerance, so at
    the default each meets its own bound (symmetry/square/commutation at
    1e−8, eigenvalues at 1e−7) and a tighter ``tol`` tightens every one.
    Vacuous in dimension 3, where the sub-bundle is zero.
    """
    return hbundle_residuals(d, points, verify_sasakian).phi_product_report(tol)


def hessian_restriction_check(d: DoubleKContact, points: ArrayLike,
                              tol: float = HESSIAN_TOL,
                              verify_sasakian: bool = True) -> ResidualReport:
    """Hess_f(A,B) = −2 f g(A,B) − 2 g(JφA, B) for A, B in {Z,X,JX}^⊥.

    The full-argument identity (with its 2 g(A,X) g(Z,B) term) is a
    diagnostic only, reported in the provenance as its maximum over one
    random pair (u, v) per point (seed 29); it is not gated because the
    restriction to the sub-bundle is the part with an unambiguous
    symmetric reading.
    """
    return hbundle_residuals(d, points, verify_sasakian).hessian_report(tol)


def ricci_normal_check(d: DoubleKContact, points: ArrayLike,
                       tol: float = 1e-8) -> ResidualReport:
    """ric(E, N) must vanish for every E tangent to the level set, and the
    Ricci endomorphism must commute with the structure tensor chain:
    g(E, Q(JX)) = g(E, J(QX)).

    The sweep uses the frame-contracted Ricci tensor with the analytic
    curvature; a sub-sample (the first NUMERIC_SUBSET points) repeats it
    with the numerical curvature to pin the implementation.
    """
    x_all = as_points(points, d.ambient_dim)
    grads = gradient_batch(d.angle_function(), x_all)
    norms = np.sqrt(inner(grads, grads))
    mdim = d.dim
    jm2 = d.s_beta.j_ambient.mat

    def residual(x, g, gn, idx):
        nvec = g / gn[:, None]
        frames = frame_batch(x, nvec[:, None, :])
        level = frames[:, 1:]
        # Analytic curvature R(a,b)c = g(b,c)a − g(a,c)b, traced over the frame.
        e_i, e_j = frames[:, :, None, :], level[:, None, :, :]
        n_b = nvec[:, None, None, :]
        curv = inner(e_j, n_b)[..., None] * e_i - inner(e_i, n_b)[..., None] * e_j
        r = np.max(np.abs(np.sum(inner(curv, e_i), axis=1)), axis=-1)
        reeb_b = apply(jm2, x)
        qjx = (mdim - 1) * d.s_alpha.phi_at(x, reeb_b)
        jqx = d.s_alpha.phi_at(x, (mdim - 1) * reeb_b)
        commute = np.abs(inner(frames, qjx[:, None, :]) - inner(frames, jqx[:, None, :]))
        r = np.maximum(r, np.max(commute, axis=-1))
        sub = np.flatnonzero(idx < NUMERIC_SUBSET)
        if sub.size:
            num = curvature_numeric_batch(x[sub, None, None, :], e_i[sub],
                                          level[sub, None, :2], n_b[sub])
            ric = np.sum(inner(num, e_i[sub]), axis=1)
            r[sub] = np.maximum(r[sub], np.max(np.abs(ric), axis=-1))
        return r

    residuals, skipped = sweep(residual, x_all, grads, norms, np.arange(len(x_all)),
                               keep=norms >= EPS_REGULAR)
    return ResidualReport.from_residuals(
        "ricci_normal", residuals, tol, skipped,
        provenance="ricci(E, N) = 0 and Q(JX) = J(QX) along level frames")
