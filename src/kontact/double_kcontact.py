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
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

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
    OrthoComplexStructure,
    SpherePoint,
    TangentVector,
    apply,
    block_diag_complex_structure,
    blocks,
    curvature_numeric_batch,
    frame_batch,
    gram_schmidt_frame,
    inner,
    lie_bracket,
    metric,
    proj_np,
    sample_points,
    stack_coords,
)
from .report import ResidualReport
from .scalar_fields import (
    EPS_REGULAR,
    ScalarField,
    TransnormalProfile,
    ambient_gradient,
    check_transnormal,
    gradient,
    hessian,
    laplacian,
)

log = logging.getLogger(__name__)

GRADIENT_PAIRING = ("grad(angle) = 2*phi_alpha(reeb_beta) = 2*phi_beta(reeb_alpha); "
                    "the first pairing is the one quoted as 2*J*X")

ANGLE_PROFILE = TransnormalProfile(b=lambda t: 4.0 * (1.0 - t * t),
                                   b_prime=lambda t: -8.0 * t)


@dataclass(frozen=True, eq=False)
class DoubleKContact:
    """Two commuting contact metric structures over the same round metric."""

    s_alpha: ContactMetricStructure
    s_beta: ContactMetricStructure
    j1_blocks: Optional[tuple] = None
    j2_blocks: Optional[tuple] = None
    degenerate: bool = False
    experimental: bool = False

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

    def reeb_alpha_at(self, p: SpherePoint) -> TangentVector:
        return self.s_alpha.reeb_at(p)

    def reeb_beta_at(self, p: SpherePoint) -> TangentVector:
        return self.s_beta.reeb_at(p)

    def to_descriptor(self) -> dict:
        if self.j1_blocks is None or self.j2_blocks is None:
            raise ValueError("only block-generated pairs serialize to descriptors")
        return {
            "dimension": self.dim,
            "J1_blocks": list(self.j1_blocks),
            "J2_blocks": list(self.j2_blocks),
        }

    @classmethod
    def from_descriptor(cls, desc: dict) -> "DoubleKContact":
        return standard_pair(int(desc["dimension"]),
                             j1_signs=desc["J1_blocks"],
                             j2_signs=desc["J2_blocks"])


@dataclass(frozen=True, eq=False)
class HBundleBasis:
    """Orthonormal basis of the sub-bundle orthogonal to {Z, X, JX}."""

    base: SpherePoint
    vectors: tuple

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, i: int) -> TangentVector:
        return self.vectors[i]


def _block_signs(mat: np.ndarray) -> Optional[tuple]:
    """Recover ±1 block signs if the matrix is block-diagonal quarter turns."""
    dim = mat.shape[0]
    if dim % 2:
        return None
    signs = []
    for k in range(dim // 2):
        s = mat[2 * k, 2 * k + 1]
        if s not in (1.0, -1.0):
            return None
        signs.append(int(s))
    rebuilt = block_diag_complex_structure(signs).mat
    if np.array_equal(rebuilt, mat):
        return tuple(signs)
    return None


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
    b1, b2 = _block_signs(j1.mat), _block_signs(j2.mat)
    experimental = b1 is None or b2 is None
    degenerate = bool(np.allclose(j1.mat, j2.mat) or np.allclose(j1.mat, -j2.mat))
    if degenerate:
        warnings.warn("generators coincide up to sign: the angle function is "
                      "constant +/-1 and every point is critical", stacklevel=2)
    if experimental:
        warnings.warn("non-block generators: pair accepted but flagged "
                      "experimental", stacklevel=2)
    return DoubleKContact(s_alpha, s_beta, j1_blocks=b1, j2_blocks=b2,
                          degenerate=degenerate, experimental=experimental)


def standard_pair(dim: int, j1_signs: Optional[Sequence[int]] = None,
                  j2_signs: Optional[Sequence[int]] = None) -> DoubleKContact:
    """The shipped example pair on S^dim (dim odd ≥ 3).

    Defaults: J1 = diag(j, j, ...), J2 = diag(−j, j, ...), which on S³
    reproduces the standard commuting pair of Reeb fields."""
    if dim % 2 == 0 or dim < 3:
        raise UnsupportedDimensionError("pairs live on odd spheres of dim >= 3")
    blocks = (dim + 1) // 2
    if j1_signs is None:
        j1_signs = [1] * blocks
    if j2_signs is None:
        j2_signs = [-1] + [1] * (blocks - 1)
    if len(j1_signs) != blocks or len(j2_signs) != blocks:
        raise ConstructionError(f"expected {blocks} block signs")
    return make_double(block_diag_complex_structure(j1_signs),
                       block_diag_complex_structure(j2_signs))


def angle_function(d: DoubleKContact) -> ScalarField:
    return d.angle_function()


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

def hbundle_basis(d: DoubleKContact, p: SpherePoint,
                  reverse_completion: bool = False) -> HBundleBasis:
    """Deterministic orthonormal basis of {Z, X, JX}^⊥ inside T_p."""
    f = d.angle_function().value(p)
    if abs(f) >= 1.0 - 1e-9:
        raise RegularityError("the spanning fields degenerate where |f| ~ 1")
    z = d.reeb_alpha_at(p)
    x = d.reeb_beta_at(p)
    jx = d.s_alpha.phi(x)
    completion = None
    if reverse_completion:
        completion = list(reversed(range(p.ambient_dim)))
    frame = gram_schmidt_frame(p, [z, x, jx], completion=completion)
    return HBundleBasis(p, tuple(frame.vectors[3:]))


def _sasakian_gate(d: DoubleKContact, seed: int = 23) -> None:
    pts = sample_points(6, seed, d.ambient_dim)
    rep = check_sasakian(d.s_alpha, pts)
    if not rep.passed:
        raise PreconditionError("first structure is not Sasakian at probe points")


# ---------------------------------------------------------------------------
# checkers

def commuting_invariants_check(d: DoubleKContact, points: Sequence[SpherePoint],
                               tol: float = 1e-10) -> ResidualReport:
    """Pair invariants: [X,Z] = 0, unit Reeb fields, α(Z)=1, φZ=0, |f| ≤ 1."""
    za = d.s_alpha.reeb_field()
    xb = d.s_beta.reeb_field()
    f = d.angle_function()
    residuals = []
    for p in points:
        r = lie_bracket(xb, za, p).norm()
        z = d.reeb_alpha_at(p)
        x = d.reeb_beta_at(p)
        r = max(r, abs(metric(z, z) - 1.0), abs(metric(x, x) - 1.0))
        r = max(r, abs(d.s_alpha.alpha(z) - 1.0), abs(d.s_beta.alpha(x) - 1.0))
        r = max(r, d.s_alpha.phi(z).norm(), d.s_beta.phi(x).norm())
        r = max(r, max(0.0, abs(f.value(p)) - 1.0))
        residuals.append(r)
    return ResidualReport.from_residuals(
        "double_invariants", residuals, tol,
        provenance="commuting Reeb fields, unit length, structure algebra")


def gradient_identity_check(d: DoubleKContact, points: Sequence[SpherePoint],
                            tol: float = 1e-9) -> ResidualReport:
    """grad f against 2·phi_alpha(X) and 2·phi_beta(Z); at least one
    pairing must hold uniformly (for block pairs both do)."""
    f = d.angle_function()
    res_a, res_b = [], []
    for p in points:
        g = gradient(f, p)
        x = d.reeb_beta_at(p)
        z = d.reeb_alpha_at(p)
        res_a.append((g - 2.0 * d.s_alpha.phi(x)).norm())
        res_b.append((g - 2.0 * d.s_beta.phi(z)).norm())
    max_a = max(res_a) if res_a else 0.0
    max_b = max(res_b) if res_b else 0.0
    both = max_a <= tol and max_b <= tol
    chosen = res_a if max_a <= max_b else res_b
    which = "both pairings hold" if both else (
        "first pairing holds" if max_a <= max_b else "second pairing holds")
    return ResidualReport.from_residuals(
        "gradient_identity", chosen, tol,
        provenance=f"{GRADIENT_PAIRING}; {which}")


def transnormal_b_check(d: DoubleKContact, points: Sequence[SpherePoint],
                        tol: float = 1e-9) -> ResidualReport:
    """‖grad f‖² = 4(1 − f²) for the angle function."""
    rep = check_transnormal(d.angle_function(), ANGLE_PROFILE, points, tol=tol)
    return ResidualReport(check_name="transnormal_profile", count=rep.count,
                          skipped=rep.skipped, max=rep.max, mean=rep.mean,
                          tolerance=rep.tolerance, passed=rep.passed,
                          provenance="angle function with b(t) = 4(1-t^2)")


def laplacian_formula_check(d: DoubleKContact, points: Sequence[SpherePoint],
                            tol: float = 1e-7) -> ResidualReport:
    """Δf against (4n+4)·f + 2·Σ g(JφE_i, E_i) over the orthogonal sub-bundle."""
    f = d.angle_function()
    n = d.n
    residuals, skipped = [], 0
    for p in points:
        try:
            basis = hbundle_basis(d, p)
        except RegularityError:
            skipped += 1
            continue
        lhs = laplacian(f, p)
        trace_term = sum(
            metric(d.s_alpha.phi(d.s_beta.phi(e)), e) for e in basis)
        rhs = (4.0 * n + 4.0) * f.value(p) + 2.0 * trace_term
        residuals.append(abs(lhs - rhs))
    return ResidualReport.from_residuals(
        "laplacian_formula", residuals, tol, skipped,
        provenance="laplacian vs (4n+4) f + 2 tr(J phi) on the sub-bundle")


def dim_theorem_check(d: DoubleKContact, points: Sequence[SpherePoint],
                      tol_dim3: float = 1e-7, tol_dim5: float = 1e-6
                      ) -> ResidualReport:
    """Isoparametricity in low dimensions: Δf = 8f on S³; Δf = 12f + c0 on
    S⁵ with c0 a point-independent constant of magnitude 4."""
    f = d.angle_function()
    if d.dim == 3:
        residuals = [abs(laplacian(f, p) - 8.0 * f.value(p)) for p in points]
        return ResidualReport.from_residuals(
            "dimension_theorem", residuals, tol_dim3,
            provenance="laplacian = 8 f in dimension 3")
    if d.dim == 5:
        est = laplacian(f, points[0]) - 12.0 * f.value(points[0])
        c0 = 4.0 if abs(est - 4.0) <= abs(est + 4.0) else -4.0
        residuals = [abs(laplacian(f, p) - 12.0 * f.value(p) - c0) for p in points]
        residuals.append(abs(est - c0))
        return ResidualReport.from_residuals(
            "dimension_theorem", residuals, tol_dim5,
            provenance=f"laplacian = 12 f + c0 in dimension 5; offset c0 = {c0:+.0f}")
    raise UnsupportedDimensionError(
        "the low-dimension statement covers dimensions 3 and 5 only")


def phi_product_spectrum_check(d: DoubleKContact, points: Sequence[SpherePoint],
                               tol: float = 1e-7, sym_tol: float = 1e-8,
                               commute_tol: float = 1e-8, eig_tol: float = 1e-7,
                               square_tol: float = 1e-8,
                               verify_sasakian: bool = True) -> ResidualReport:
    """On {Z,X,JX}^⊥ the composite φJ must be symmetric, square to the
    identity, commute with Jφ, and have eigenvalues ±1.

    Sub-residuals are rescaled so the report tolerance gates each at its
    own bound (symmetry/square/commutation at 1e−8, eigenvalues at 1e−7
    by default).  Vacuous in dimension 3, where the sub-bundle is zero.
    """
    if verify_sasakian:
        _sasakian_gate(d)
    residuals, skipped = [], 0
    eigs_seen = set()
    for p in points:
        try:
            basis = hbundle_basis(d, p)
        except RegularityError:
            skipped += 1
            continue
        k = len(basis)
        if k == 0:
            residuals.append(0.0)
            continue
        m_phi_j = np.zeros((k, k))
        commute_res = 0.0
        for i, e in enumerate(basis):
            phi_j_e = d.s_beta.phi(d.s_alpha.phi(e))
            j_phi_e = d.s_alpha.phi(d.s_beta.phi(e))
            commute_res = max(commute_res, (phi_j_e - j_phi_e).norm())
            for jdx, e2 in enumerate(basis):
                m_phi_j[jdx, i] = metric(phi_j_e, e2)
        sym_res = float(np.max(np.abs(m_phi_j - m_phi_j.T)))
        square_res = float(np.max(np.abs(m_phi_j @ m_phi_j - np.eye(k))))
        eigvals = np.linalg.eigvalsh(0.5 * (m_phi_j + m_phi_j.T))
        eig_res = float(np.max(np.abs(np.abs(eigvals) - 1.0)))
        eigs_seen.update(int(round(v)) for v in eigvals)
        residuals.append(max(sym_res * (tol / sym_tol),
                             commute_res * (tol / commute_tol),
                             square_res * (tol / square_tol),
                             eig_res * (tol / eig_tol)))
    spectrum = sorted(eigs_seen) if eigs_seen else []
    return ResidualReport.from_residuals(
        "phi_product_spectrum", residuals, tol, skipped,
        provenance=f"phi-product on the sub-bundle; eigenvalues seen: {spectrum}")


def hessian_restriction_check(d: DoubleKContact, points: Sequence[SpherePoint],
                              tol: float = 1e-7,
                              verify_sasakian: bool = True) -> ResidualReport:
    """Hess_f(A,B) = −2 f g(A,B) − 2 g(JφA, B) for A, B in {Z,X,JX}^⊥.

    The full-argument identity (with its 2 g(A,X) g(Z,B) term) is logged
    as a diagnostic only; it is not gated because the restriction to the
    sub-bundle is the part with an unambiguous symmetric reading.
    """
    if verify_sasakian:
        _sasakian_gate(d)
    f = d.angle_function()
    residuals, skipped = [], 0
    full_domain_max = 0.0
    rng = np.random.default_rng(29)
    for p in points:
        try:
            basis = hbundle_basis(d, p)
        except RegularityError:
            skipped += 1
            continue
        if len(basis) == 0:
            residuals.append(0.0)
            continue
        fv = f.value(p)
        for i, a in enumerate(basis):
            for b in basis[i:]:
                lhs = hessian(f, a, b)
                rhs = (-2.0 * fv * metric(a, b)
                       - 2.0 * metric(d.s_alpha.phi(d.s_beta.phi(a)), b))
                residuals.append(abs(lhs - rhs))
        from .manifold import random_tangents
        u, v = random_tangents(p, rng, 2)
        x = d.reeb_beta_at(p)
        z = d.reeb_alpha_at(p)
        full = (2.0 * metric(u, x) * metric(z, v) - 2.0 * fv * metric(u, v)
                - 2.0 * metric(d.s_alpha.phi(d.s_beta.phi(u)), v))
        full_domain_max = max(full_domain_max, abs(hessian(f, u, v) - full))
    log.info("hessian identity, full-argument diagnostic residual: %.3e",
             full_domain_max)
    return ResidualReport.from_residuals(
        "hessian_restricted", residuals, tol, skipped,
        provenance="hessian vs -2 f g - 2 g(J phi ., .) on the sub-bundle")


def ricci_normal_check(d: DoubleKContact, points: Sequence[SpherePoint],
                       tol: float = 1e-8, numeric_subset: int = 25
                       ) -> ResidualReport:
    """ric(E, N) must vanish for every E tangent to the level set, and the
    Ricci endomorphism must commute with the structure tensor chain:
    g(E, Q(JX)) = g(E, J(QX)).

    The sweep uses the frame-contracted Ricci tensor with the analytic
    curvature; a sub-sample (the first ``numeric_subset`` points) repeats
    it with the numerical curvature to pin the implementation.
    """
    f = d.angle_function()
    x_all = stack_coords(points, d.ambient_dim)
    grads = proj_np(x_all, np.asarray(value(ambient_gradient(f, x_all)), dtype=float))
    norms = np.sqrt(inner(grads, grads))
    kept = np.flatnonzero(norms >= EPS_REGULAR)
    mdim = d.dim
    jm2 = d.s_beta.j_ambient.mat
    residuals = []
    for sl in blocks(len(kept)):
        idx = kept[sl]
        x = x_all[idx]
        nvec = grads[idx] / norms[idx, None]
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
        sub = np.flatnonzero(idx < numeric_subset)
        if sub.size:
            num = curvature_numeric_batch(x[sub, None, None, :], e_i[sub],
                                          level[sub, None, :2], n_b[sub])
            ric = np.sum(inner(num, e_i[sub]), axis=1)
            r[sub] = np.maximum(r[sub], np.max(np.abs(ric), axis=-1))
        residuals.extend(r)
    return ResidualReport.from_residuals(
        "ricci_normal", residuals, tol, len(points) - len(kept),
        provenance="ricci(E, N) = 0 and Q(JX) = J(QX) along level frames")
