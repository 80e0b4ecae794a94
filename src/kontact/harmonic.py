"""Harmonic unit vector fields: energy, first variation, shape spectra.

A unit field Z immerses the sphere into its unit tangent bundle; the
induced metric is Z*g(u,v) = g(u,v) + g(∇_u Z, ∇_v Z) and the energy is

    E(Z) = 1/2 ∫ tr L_Z dV,   L_Z u = u + A_Z^t(A_Z u),   A_Z u = −∇_u Z.

Critical points are exactly the fields whose first-variation one-form

    nu_Z(x) = Σ_i g((∇_{u_i} A_Z^t) x, u_i)      (orthonormal frame u_i)

vanishes for all x ⟂ Z.  For a geodesic field N with integrable
orthogonal complement this reduces to x(h) = ric(x, N) where h is the
mean curvature of the orthogonal distribution; both forms are
implemented, the frame-based one exactly (dual numbers), the reduced one
with five-point finite differences of h along great circles.

Batch convention: kernels (:func:`shape_matrix`, :func:`harmonicity_form_batch`)
take plain arrays with leading batch axes — points (N, m+1) plus any
per-point direction or frame axes — and per-point functions such as
:func:`harmonicity_form` and :func:`weingarten_ambient_matrix` are
one-row calls into them.  Checks evaluate points in blocks of
``manifold.BLOCK`` to bound memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import ad
from .ad import directional, dot, fd_curve_derivative_5pt, proj_tangent, value
from .errors import (
    IntegrabilityError,
    PreconditionError,
    RegularityError,
)
from .manifold import (
    AmbientVectorField,
    SpherePoint,
    TangentVector,
    blocks,
    cov_deriv,
    frame_batch,
    gram_schmidt_frame,
    metric,
    proj_np,
    projected_eval,
    ricci,
    shape_matrix,
    sphere_volume,
    tangent_basis,
)
from .report import EnergyEstimate, ResidualReport
from .scalar_fields import ScalarField, ambient_gradient

GEODESIC_TOL = 1e-6
SYMMETRY_TOL = 1e-7
EIGEN_GAP = 1e-4
FD_STEP = 1e-3


@dataclass(frozen=True, eq=False)
class UnitVectorField:
    """Tangent unit field with a domain guard for its singular set."""

    field: AmbientVectorField
    guard: Callable[[SpherePoint], bool] = lambda p: True
    guard_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""

    def at(self, p: SpherePoint) -> TangentVector:
        if not self.guard(p):
            raise RegularityError(f"field {self.label or '?'} undefined here")
        return self.field.at(p)


@dataclass(frozen=True, eq=False)
class ShapeSpectrum:
    """Eigen-decomposition of the shape operator on N^⊥ (ascending)."""

    base: SpherePoint
    eigenvalues: np.ndarray
    eigenframe: tuple
    mean_curvature: float


def reeb_unit_field(structure) -> UnitVectorField:
    return UnitVectorField(structure.reeb_field(),
                           label=f"reeb_{structure.label}")


def normalized_gradient_unit_field(f: ScalarField,
                                   eps_reg: float = 1e-6) -> UnitVectorField:
    """N = ∇f/‖∇f‖ guarded away from the critical set."""

    def evaluator(x):
        return ad.unit(proj_tangent(x, ambient_gradient(f, x)))

    def guard(p: SpherePoint) -> bool:
        g = value(ambient_gradient(f, p.coords))
        g = g - (g @ p.coords) * p.coords
        return float(np.linalg.norm(g)) >= eps_reg

    def guard_batch(points: np.ndarray) -> np.ndarray:
        g = np.asarray(value(ambient_gradient(f, points)), dtype=float)
        g = g - np.sum(g * points, axis=-1, keepdims=True) * points
        return np.linalg.norm(g, axis=-1) >= eps_reg

    return UnitVectorField(
        AmbientVectorField(evaluator, tangent=True, label=f"unit grad({f.label})"),
        guard=guard, guard_batch=guard_batch, label=f"N({f.label})")


def normalized_constant_unit_field(c: np.ndarray,
                                   eps_reg: float = 1e-6) -> UnitVectorField:
    """Unit projection of a constant vector (the radial field between the
    poles ±c/|c|).

    Note this is the normalized gradient of the height function along c,
    which is isoparametric, so the field is itself harmonic; use
    :func:`twisted_unit_field` when a non-harmonic control is needed.
    """
    c = np.asarray(c, dtype=float)

    def evaluator(x):
        return ad.unit(proj_tangent(x, ad.lift(c, x)))

    def guard(p: SpherePoint) -> bool:
        v = c - (c @ p.coords) * p.coords
        return float(np.linalg.norm(v)) >= eps_reg

    return UnitVectorField(
        AmbientVectorField(evaluator, tangent=True, label="unit constant"),
        guard=guard, label="unit projected constant")


def twisted_unit_field(c: np.ndarray, a: np.ndarray, d: np.ndarray,
                       eps_reg: float = 1e-4) -> UnitVectorField:
    """Normalized projection of the affine field x ↦ c + ⟨x,a⟩·d.

    For generic coefficient vectors this unit field is not a critical
    point of the energy; it serves as the non-harmonic negative control.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)

    def evaluator(x):
        base = ad.lift(c, x) + ad.sv(dot(x, a), ad.lift(d, x))
        return ad.unit(proj_tangent(x, base))

    def guard(p: SpherePoint) -> bool:
        v = c + (p.coords @ a) * d
        v = v - (v @ p.coords) * p.coords
        return float(np.linalg.norm(v)) >= eps_reg

    return UnitVectorField(
        AmbientVectorField(evaluator, tangent=True, label="twisted affine"),
        guard=guard, label="twisted unit field")


# ---------------------------------------------------------------------------
# shape operator and friends

def weingarten(zf: UnitVectorField, u: TangentVector) -> TangentVector:
    """A_Z u = −∇_u Z."""
    if not zf.guard(u.base):
        raise RegularityError("Weingarten operator outside the guarded domain")
    return -1.0 * cov_deriv(zf.field, u)


def weingarten_ambient_matrix(zf: UnitVectorField, p: SpherePoint) -> np.ndarray:
    """Ambient matrix of A_Z at p: −P·(D of the projected field)·P."""
    if not zf.guard(p):
        raise RegularityError("Weingarten operator outside the guarded domain")
    return -shape_matrix(zf.field, p.coords)


def weingarten_transpose(zf: UnitVectorField, u: TangentVector) -> TangentVector:
    """Metric adjoint A_Z^t, assembled from the matrix of A_Z on a frame."""
    p = u.base
    frame = tangent_basis(p)
    amat = np.array([[metric(weingarten(zf, ej), ei) for ej in frame]
                     for ei in frame])
    coords = np.array([metric(u, e) for e in frame])
    out_coords = amat.T @ coords
    out = sum(c * e.vec for c, e in zip(out_coords, frame))
    return TangentVector(p, out)


def l_operator(zf: UnitVectorField, u: TangentVector) -> TangentVector:
    """L_Z u = u + A^t(A u)."""
    return u + weingarten_transpose(zf, weingarten(zf, u))


def pullback_metric(zf: UnitVectorField, u: TangentVector,
                    v: TangentVector) -> float:
    """Induced metric g(u,v) + g(∇_u Z, ∇_v Z)."""
    return metric(u, v) + metric(cov_deriv(zf.field, u), cov_deriv(zf.field, v))


def trace_l(zf: UnitVectorField, p: SpherePoint) -> float:
    """tr L_Z = m + ‖∇Z‖²  (Frobenius norm of the shape operator)."""
    a = weingarten_ambient_matrix(zf, p)
    return p.dim + float(np.sum(a * a))


# ---------------------------------------------------------------------------
# energy

def _trace_l_batch(zf: UnitVectorField, points: np.ndarray) -> np.ndarray:
    """Vectorized tr L_Z over a batch of points (rows of unit vectors)."""
    count, dim = points.shape
    eye = np.eye(dim)
    cols = []
    for i in range(dim):
        d = value(directional(lambda x: projected_eval(zf.field, x),
                              points, eye[i]))
        cols.append(np.asarray(d, dtype=float))
    jac = np.stack(cols, axis=-1)
    proj = eye[None, :, :] - points[:, :, None] * points[:, None, :]
    pjp = np.einsum("nij,njk,nkl->nil", proj, jac, proj)
    return (dim - 1) + np.einsum("nij,nij->n", pjp, pjp)


def energy(zf: UnitVectorField, sample_size: int, seed: int,
           ambient_dim: int) -> EnergyEstimate:
    """Monte Carlo estimate of E(Z) = ½ ∫ tr L_Z dV with a standard error.

    Guarded-out points contribute zero, so for a guard that excludes a
    positive-measure region this estimates the energy of the restricted
    domain.  Summation is a single deterministic pairwise reduction.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((sample_size, ambient_dim))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    points = g / norms[:, None]
    if zf.guard_batch is not None:
        mask = np.asarray(zf.guard_batch(points), dtype=bool)
    else:
        mask = np.fromiter((zf.guard(SpherePoint(row)) for row in points),
                           dtype=bool, count=sample_size)
    vals = np.zeros(sample_size)
    if np.any(mask):
        vals[mask] = _trace_l_batch(zf, points[mask])
    skipped = int(sample_size - np.count_nonzero(mask))
    if skipped == sample_size:
        from .errors import SamplingExhaustedError
        raise SamplingExhaustedError("the guard rejected every sample")
    vol = sphere_volume(ambient_dim - 1)
    estimate = 0.5 * vol * float(np.mean(vals))
    stderr = 0.5 * vol * float(np.std(vals, ddof=1)) / np.sqrt(sample_size)
    return EnergyEstimate(estimate=estimate, stderr=stderr,
                          samples=sample_size, skipped=skipped)


def reeb_energy_closed_form(m: int) -> float:
    """E of any Reeb field on S^m: tr L ≡ m + (m−1), so E = (2m−1)/2 · Vol."""
    return 0.5 * (2 * m - 1) * sphere_volume(m)


# ---------------------------------------------------------------------------
# first variation (harmonicity form)

def _adjoint_apply(zf_field: AmbientVectorField, x, w):
    """A^t at x applied to w, as a dual-evaluable ambient expression.

    Row i of the batched Jacobian is D_{e_i}(projected field), so dotting
    the rows with P·w assembles (Jacobian)^T · P·w in one evaluation.
    Leading axes of x and w broadcast.
    """
    dim = value(x).shape[-1]
    pw = proj_tangent(x, w)
    rows = ad.jacobian_rows(lambda y: projected_eval(zf_field, y), x, dim)
    jt_pw = ad.axis0_to_last(dot(rows, pw))
    return -proj_tangent(x, jt_pw)


def harmonicity_form_batch(field: AmbientVectorField, x: np.ndarray,
                           directions: np.ndarray,
                           frames: Optional[np.ndarray] = None) -> np.ndarray:
    """nu_Z at the points x (..., m+1) for directions (..., k, m+1).

    nu_Z(x) = Σ_i g(D_{u_i}(A^t x̃), u_i) with x̃ the projected-constant
    extension; the term A^t(∇_u x̃) of (∇_u A^t)x vanishes because
    ∇_u x̃ = 0 at the base point.  The sum over an orthonormal frame u_i
    is the ambient Jacobian of A^t x̃ contracted with Σ_i u_i u_iᵀ, which
    is P = I − x xᵀ unless ``frames`` (..., m, m+1) are given.  Returns
    shape (..., k).
    """
    dim = x.shape[-1]
    base = x[..., None, None, :]                          # (..., 1, 1, m+1)
    # Both leaves of the outer dual need the same number of axes, since
    # the nested jacobian_rows prepends its direction axis to each leaf.
    axes = np.broadcast_to(np.eye(dim)[:, None, :],
                           x.shape[:-1] + (dim, 1, dim))  # (..., m+1, 1, m+1)
    w = directions[..., None, :, :]                       # (..., 1, k, m+1)
    jac = value(directional(
        lambda y: _adjoint_apply(field, y, ad.lift(w, y)), base, axes))
    if frames is None:
        trace = np.eye(dim) - x[..., :, None] * x[..., None, :]
    else:
        trace = np.swapaxes(frames, -1, -2) @ frames
    return np.einsum("...bka,...ba->...k", jac, trace)


def harmonicity_form(zf: UnitVectorField, x: TangentVector,
                     frame=None) -> float:
    """nu_Z(x) = Σ_i g((∇_{u_i} A^t) x, u_i) over a full orthonormal frame.

    (∇_u A^t)x = ∇_u(A^t x̃) − A^t(∇_u x̃) with x̃ the projected-constant
    extension of x; the result is extension-independent.  Without a
    ``frame`` the trace is taken frame-free, as the contraction with P.
    """
    p = x.base
    if not zf.guard(p):
        raise RegularityError("harmonicity form outside the guarded domain")
    z = zf.at(p)
    if abs(metric(x, z)) > 1e-8:
        raise PreconditionError("direction must be orthogonal to the field")
    frames = frame.matrix if frame is not None else None
    return float(harmonicity_form_batch(zf.field, p.coords, x.vec[None, :],
                                        frames)[0])


def harmonicity_check(zf: UnitVectorField, points: Sequence[SpherePoint],
                      tol: float = 1e-6) -> ResidualReport:
    """max |nu_Z(x)| over frame directions x ⟂ Z at each point."""
    kept = [p.coords for p in points if zf.guard(p)]
    skipped = len(points) - len(kept)
    residuals = []
    for sl in blocks(len(kept)):
        x = np.array(kept[sl])
        z = proj_np(x, value(zf.field.eval(x)))
        nu = harmonicity_form_batch(zf.field, x, frame_batch(x, z[:, None, :])[:, 1:])
        residuals.extend(np.max(np.abs(nu), axis=-1))
    return ResidualReport.from_residuals(
        "nu_form", residuals, tol, skipped,
        provenance="first variation of the energy on the orthogonal complement")


# ---------------------------------------------------------------------------
# shape spectrum and the reduced critical condition

def mean_curvature_of_field(zf: UnitVectorField, p: SpherePoint) -> float:
    """h = −Σ g(∇_{E_i}Z, E_i) over a frame of Z^⊥ (trace of A_Z there)."""
    a = weingarten_ambient_matrix(zf, p)
    z = zf.at(p)
    return float(np.trace(a) - z.vec @ (a @ z.vec))


def shape_spectrum(zf: UnitVectorField, p: SpherePoint,
                   geodesic_tol: float = GEODESIC_TOL,
                   symmetry_tol: float = SYMMETRY_TOL) -> ShapeSpectrum:
    """Spectral decomposition of A_Z restricted to Z^⊥.

    Requires a geodesic field (∇_Z Z ≈ 0) and a symmetric restriction;
    asymmetry beyond tolerance signals a non-integrable complement.
    """
    z = zf.at(p)
    geo = cov_deriv(zf.field, z).norm()
    if geo > geodesic_tol:
        raise RegularityError(f"field is not geodesic here (|∇_Z Z| = {geo:.2e})")
    frame = gram_schmidt_frame(p, [z])
    basis = frame.vectors[1:]
    k = len(basis)
    amat = np.zeros((k, k))
    a_amb = weingarten_ambient_matrix(zf, p)
    bmat = np.stack([e.vec for e in basis])
    amat = bmat @ a_amb @ bmat.T
    asym = float(np.max(np.abs(amat - amat.T)))
    if asym > symmetry_tol:
        raise IntegrabilityError(
            f"shape operator asymmetry {asym:.2e} beyond {symmetry_tol}")
    sym = 0.5 * (amat + amat.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    eigenframe = tuple(
        TangentVector(p, sum(float(eigvecs[i, j]) * basis[i].vec
                             for i in range(k)))
        for j in range(k))
    return ShapeSpectrum(base=p, eigenvalues=eigvals, eigenframe=eigenframe,
                         mean_curvature=float(np.sum(eigvals)))


def _spectrum_along(zf: UnitVectorField, p: SpherePoint, direction: np.ndarray,
                    t: float, reference: ShapeSpectrum
                    ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Matched eigenvalues/eigenvectors at the great-circle point γ(t)."""
    q = SpherePoint.from_array(ad.great_circle(p.coords, direction, t))
    spec = shape_spectrum(zf, q)
    k = len(reference.eigenframe)
    overlaps = np.array([[abs(float(spec.eigenframe[j].vec
                                    @ reference.eigenframe[i].vec))
                          for j in range(k)] for i in range(k)])
    matched_vals = np.empty(k)
    matched_vecs: list[np.ndarray] = [None] * k
    taken: set[int] = set()
    for i in np.argsort(-overlaps.max(axis=1)):
        j = int(np.argmax([overlaps[i, j] if j not in taken else -1.0
                           for j in range(k)]))
        taken.add(j)
        v = spec.eigenframe[j].vec
        if float(v @ reference.eigenframe[i].vec) < 0.0:
            v = -v
        matched_vals[i] = spec.eigenvalues[j]
        matched_vecs[i] = v
    return matched_vals, matched_vecs


def _five_point(values: Sequence, step: float):
    f2, f1, fm1, fm2 = values
    return (-f2 + 8.0 * f1 - 8.0 * fm1 + fm2) / (12.0 * step)


def principal_gradient_residual(zf: UnitVectorField, p: SpherePoint,
                                step: float = FD_STEP,
                                gap: float = EIGEN_GAP) -> list[float]:
    """Per-eigendirection residual of the balance between the derivative
    of each principal curvature along its own direction and the
    divergence terms weighted by eigenvalue gaps:

        E_j(λ_j) + Σ_i (λ_i − λ_j) g(∇_{E_i}E_i, E_j).

    The sum runs over the N^⊥ eigenframe (its size, not the ambient
    dimension, sets the index range).  Requires a simple spectrum.
    """
    spec = shape_spectrum(zf, p)
    vals = spec.eigenvalues
    if np.min(np.diff(vals)) < gap:
        raise PreconditionError("eigenvalue gap below threshold (multiplicity)")
    k = len(vals)
    dvals = np.zeros((k, k))  # dvals[i][j] = derivative of λ_j along E_i
    dvecs: list[list[np.ndarray]] = []
    proj = np.eye(p.ambient_dim) - np.outer(p.coords, p.coords)
    for i in range(k):
        direction = spec.eigenframe[i].vec
        samples = [_spectrum_along(zf, p, direction, t, spec)
                   for t in (2 * step, step, -step, -2 * step)]
        dvals[i] = _five_point([s[0] for s in samples], step)
        dvecs.append([proj @ _five_point([s[1][jj] for s in samples], step)
                      for jj in range(k)])
    residuals = []
    for j in range(k):
        divergence = sum((vals[i] - vals[j])
                         * float(dvecs[i][i] @ spec.eigenframe[j].vec)
                         for i in range(k))
        residuals.append(abs(dvals[j][j] + divergence))
    return residuals


def ricci_gradient_residual(zf: UnitVectorField, p: SpherePoint,
                            step: float = FD_STEP,
                            gap: float = EIGEN_GAP) -> list[float]:
    """Per-direction residual |ric(E_j, N) − E_j(h)| with h = Σ λ_i."""
    spec = shape_spectrum(zf, p)
    if np.min(np.diff(spec.eigenvalues)) < gap:
        raise PreconditionError("eigenvalue gap below threshold (multiplicity)")
    n = zf.at(p)
    k = len(spec.eigenvalues)
    residuals = []
    for j in range(k):
        direction = spec.eigenframe[j].vec
        samples = [_spectrum_along(zf, p, direction, t, spec)[0].sum()
                   for t in (2 * step, step, -step, -2 * step)]
        dh = float(_five_point(samples, step))
        residuals.append(abs(ricci(spec.eigenframe[j], n) - dh))
    return residuals


def critical_condition_check(zf: UnitVectorField, points: Sequence[SpherePoint],
                             tol: float = 1e-5, step: float = FD_STEP
                             ) -> ResidualReport:
    """x(h) = ric(x, N) for all frame directions x ⟂ N.

    Directional derivatives of h use five-point central differences
    along great circles, so the tolerance is looser than the exact
    frame-based harmonicity form.
    """
    residuals, skipped = [], 0
    for p in points:
        try:
            n = zf.at(p)
        except RegularityError:
            skipped += 1
            continue
        frame = gram_schmidt_frame(p, [n])
        worst = 0.0
        for x in frame.vectors[1:]:
            try:
                dh = fd_curve_derivative_5pt(
                    lambda c: mean_curvature_of_field(zf, SpherePoint.from_array(c)),
                    p.coords, x.vec, step)
            except RegularityError:
                skipped += 1
                break
            worst = max(worst, abs(dh - ricci(x, n)))
        else:
            residuals.append(worst)
    return ResidualReport.from_residuals(
        "critical_condition", residuals, tol, skipped,
        provenance="derivative of the mean curvature against ricci(., N)")
