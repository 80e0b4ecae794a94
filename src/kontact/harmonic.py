"""Harmonic unit vector fields: energy, first variation, mean curvature.

A unit field Z immerses the sphere into its unit tangent bundle; the
induced metric is Z*g(u,v) = g(u,v) + g(∇_u Z, ∇_v Z) and the energy is

    E(Z) = 1/2 ∫ tr L_Z dV,   L_Z u = u + A_Z^t(A_Z u),   A_Z u = −∇_u Z.

Critical points are exactly the fields whose first-variation one-form

    nu_Z(x) = Σ_i g((∇_{u_i} A_Z^t) x, u_i)      (orthonormal frame u_i)

vanishes for all x ⟂ Z.  For a geodesic field N with integrable
orthogonal complement this reduces to x(h) = ric(x, N) where h is the
mean curvature of the orthogonal distribution.

The checks :func:`harmonicity_check` and :func:`critical_condition_check`
are both contractions of one second-order jet (F, ∂F, ∂²F) of the
projected field F = P·Z, P = I − y yᵀ/|y|², taken by ``ad.second_jet``
once per block of a sweep and read by both from the block
(``manifold.Block``).  At a unit point y, for tangent w and m the sphere
dimension:

    w(h)  = −⟨w, ∇div F⟩,              (∇div F)_b = Σ_i ∂_b∂_i F_i
    nu(w) = m⟨w, D_y F⟩ − ⟨w, F⟩ − ⟨w, ΔF − D²_{y,y} F⟩,   ΔF = Σ_a ∂_a∂_a F

The first holds because h = −div F.  For the second, nu(w) is the trace
with P of D(A^t w̃), where A^t w̃ = −P·Jᵀ·P·w and J = ∂F:
  - D_a P = −(e_a yᵀ + y e_aᵀ) + 2y_a·y yᵀ, and the trace with P drops
    every term that carries P·y = 0;
  - the derivative of the outer P gives m⟨w, D_y F⟩, that of the inner
    P gives ⟨y, D_w F⟩, and that of Jᵀ gives −⟨w, ΔF − D²_{y,y} F⟩;
  - ⟨y, F⟩ ≡ 0 off the sphere, so ⟨y, D_w F⟩ = −⟨w, F⟩.
The one-point :func:`harmonicity_form` is one row of the same
contraction.  The tests hold the contractions to nested directional
derivatives of A^t w̃ and of div F.

Kernels and checks follow the batch convention of :mod:`kontact.manifold`,
and a unit field's guard maps points (..., m+1) to a mask the same way;
checks skip the points outside the guard.  :func:`energy` draws its
samples with ``manifold.sample_coords`` and evaluates them in blocks of
4 · ``manifold.BLOCK``: its integrand holds one first-order Jacobian per
point, (m+1)× less than the second-order jets ``BLOCK`` is sized for, so
fewer, larger blocks pay less dispatch in the dual engine.  Its integrand
is tr L_Z = m + ‖S‖²_F (S the shape matrix, ∇_u Z = S u), and ‖S‖²_F
comes from invariants of the raw Jacobian J of Z's formula: with
a = Jx, b = Jᵀx, c = xᵀJx and k = ⟨x, Z⟩,

    ‖S‖²_F = ‖J‖²_F − |a|² − |b|² + c² − 2k(tr J − c) + k²(m+1 − |x|²),

so neither P = I − x xᵀ nor S is formed (``manifold.shape_norm_sq``).
The invariants are held coordinate-major, every per-point quantity as
an (m+1, B) array.  Where J does not depend on x, as for every Reeb
field x ↦ Jx, it stays one (m+1)×(m+1) matrix: a and b are one matmul
each per block, and ‖J‖²_F and tr J are computed once.

A unit gradient N = ∇f/r, r = |∇f|, whose field carries its potential
f (``UnitVectorField.potential``, set by
:func:`normalized_gradient_unit_field`) is not differentiated through
its own formula.  With H the Hessian matrix of f, ∇_u N = (I − N Nᵀ)·H u / r,
so

    tr L_N = m + (‖H‖²_F − |H N|²)/r²,

where H is the shape matrix of the raw ambient gradient V, whose
Jacobian J is the ambient Hessian of f: ‖H‖²_F is the norm above, and
H N = P·(J N) − ⟨x, V⟩·N (``manifold.unit_shape_norm_sq``, from the
same invariants).  For the angle function V is linear, so J is again
one matrix.  Every other field, and a unit gradient built without its
potential, takes the Jacobian of its own formula.  The guard of such a
field evaluates V once more, at every point of the block, for |P·V|.
It stays a pass of its own so that a guard composed over it
(``dataclasses.replace(zf, guard=…)``, as the CLI's ``--exclusion``)
still decides which points the integrand sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import ad, manifold
from .ad import dot, proj_tangent, value
from .errors import PreconditionError, RegularityError, SamplingExhaustedError
from .manifold import (
    AmbientVectorField,
    Block,
    Check,
    SpherePoint,
    TangentVector,
    as_field_points,
    blocks,
    checker,
    frame_batch,
    inner,
    proj_np,
    projected_eval,
    sample_coords,
    shape_matrix,
    shape_norm_sq,
    shape_trace,
    sphere_volume,
    unit_shape_norm_sq,
)
from .report import EnergyEstimate
from .scalar_fields import (
    EPS_REGULAR,
    ScalarField,
    ambient_gradient,
    ambient_gradient_field,
    normalized_gradient_field,
)

TWISTED_EPS_REG = 1e-4  # guard of twisted_unit_field: |projected affine field| floor
HARMONIC_TOL = 1e-6     # default gate of nu_form and critical_condition


def _everywhere(x: np.ndarray) -> np.ndarray:
    return np.ones(np.shape(x)[:-1], dtype=bool)


@dataclass(frozen=True, eq=False)
class UnitVectorField:
    """Tangent unit field with a domain guard for its singular set.

    ``guard`` maps points (..., m+1) to a boolean mask (..., ), False
    where the field is undefined; a single point is a 1-D array.
    ``potential`` is f when the field is the unit gradient ∇f/|∇f|, and
    None otherwise.
    """

    field: AmbientVectorField
    guard: Callable[[np.ndarray], np.ndarray] = _everywhere
    label: str = ""
    potential: Optional[ScalarField] = None


def reeb_unit_field(structure) -> UnitVectorField:
    return UnitVectorField(structure.reeb_field(),
                           label=f"reeb_{structure.label}")


def normalized_gradient_unit_field(f: ScalarField) -> UnitVectorField:
    """N = ∇f/‖∇f‖ guarded away from the critical set (‖∇f‖ < EPS_REGULAR).

    The guard evaluates the ambient gradient V once and takes ‖∇f‖ =
    |V − ⟨x, V⟩x| with two einsum contractions over the rows of the
    flattened points: the arithmetic of ``gradient_batch``, whose
    stacked-matmul inner products round differently, at about three
    quarters of its cost on a block of 4096 points."""

    def guard(points: np.ndarray) -> np.ndarray:
        x = np.asarray(points, dtype=float)
        v = np.broadcast_to(value(ambient_gradient(f, x)), x.shape)
        x2, v2 = x.reshape(-1, x.shape[-1]), v.reshape(-1, x.shape[-1])
        g = v2 - np.einsum("pi,pi->p", v2, x2)[:, None] * x2
        return (np.sqrt(np.einsum("pi,pi->p", g, g)) >= EPS_REGULAR).reshape(x.shape[:-1])

    return UnitVectorField(normalized_gradient_field(f), guard=guard,
                           label=f"N({f.label})", potential=f)


def normalized_constant_unit_field(c: np.ndarray) -> UnitVectorField:
    """Unit projection of a constant vector (the radial field between the
    poles ±c/|c|), guarded where the projection is shorter than EPS_REGULAR.

    Note this is the normalized gradient of the height function along c,
    which is isoparametric, so the field is itself harmonic; use
    :func:`twisted_unit_field` when a non-harmonic control is needed.
    """
    c = np.asarray(c, dtype=float)

    def evaluator(x):
        return ad.unit(proj_tangent(x, ad.lift(c, x)))

    def guard(points: np.ndarray) -> np.ndarray:
        return np.linalg.norm(proj_np(points, c), axis=-1) >= EPS_REGULAR

    return UnitVectorField(
        AmbientVectorField(evaluator, tangent=True, label="unit constant"),
        guard=guard, label="unit projected constant")


def twisted_unit_field(c: np.ndarray, a: np.ndarray, d: np.ndarray) -> UnitVectorField:
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

    def guard(points: np.ndarray) -> np.ndarray:
        v = c + inner(points, a)[..., None] * d
        return np.linalg.norm(proj_np(points, v), axis=-1) >= TWISTED_EPS_REG

    return UnitVectorField(
        AmbientVectorField(evaluator, tangent=True, label="twisted affine"),
        guard=guard, label="twisted unit field")


# ---------------------------------------------------------------------------
# shape operator

def weingarten_ambient_matrix(zf: UnitVectorField, p: SpherePoint) -> np.ndarray:
    """Ambient matrix of A_Z at p: minus the shape matrix of the field."""
    if not zf.guard(p.coords):
        raise RegularityError("Weingarten operator outside the guarded domain")
    return -shape_matrix(zf.field, p.coords)


# ---------------------------------------------------------------------------
# energy

def _trace_l_batch(zf: UnitVectorField, points: np.ndarray) -> np.ndarray:
    """tr L_Z = m + ‖S‖²_F over a batch of points (rows of unit vectors),
    S the shape matrix of the field, with ‖S‖²_F taken from invariants of
    one raw Jacobian (formulas in the module docstring), so no
    (m+1)×(m+1) matrix per point is built.  A unit gradient is
    differentiated through the raw ambient gradient of its potential
    (``manifold.unit_shape_norm_sq``), any other field through its own
    formula (``manifold.shape_norm_sq``)."""
    m = points.shape[-1] - 1
    if zf.potential is None:
        return m + shape_norm_sq(zf.field, points)
    return m + unit_shape_norm_sq(ambient_gradient_field(zf.potential), points)


def energy(zf: UnitVectorField, sample_size: int, seed: int,
           ambient_dim: int) -> EnergyEstimate:
    """Monte Carlo estimate of E(Z) = ½ ∫ tr L_Z dV with a standard error.

    Guarded-out points contribute zero, so for a guard that excludes a
    positive-measure region this estimates the energy of the restricted
    domain.  The points and the integrand values are held for all samples,
    so memory is O(sample_size); the guard and tr L_Z run over blocks of
    4 · ``manifold.BLOCK`` samples (read at call time), which bounds only
    the per-block Jacobians.  Summation is a single deterministic pairwise
    reduction over all samples, so the result does not depend on the
    block size.

    The samples are drawn all at once, not block by block.  Drawn per
    block, one energy s5 call in a fresh process (100 000 samples) took
    a median 0.147 s of CPU time against 0.118 s and about 14 100 minor
    page faults against 2 360 (8 processes each): glibc raises its mmap
    and trim thresholds only once a large array is freed, as the
    full-size temporaries of ``sample_coords`` are, and until then it
    maps and trims every block's temporaries afresh.
    """
    if sample_size < 2:
        raise ValueError("samples must be >= 2 for a standard error")
    points = sample_coords(sample_size, seed, ambient_dim)
    vals = np.zeros(sample_size)
    kept = 0
    # A sample of this integrand carries one first-order Jacobian, (m+1)×
    # less than the second-order jet a check's point carries, so its
    # blocks can be larger.  On energy s5 --field gradient --exclusion 0.9
    # at 100 000 samples (2-vCPU VM, BLAS at one thread, three runs of 40
    # to 60 interleaved in-process calls each) blocks of 2, 4 and 8 BLOCK
    # took a median 10–14%, 15–16% and 18–20% less time than blocks of one
    # BLOCK.  8 beats 4 by 3–6%, inside the quartiles of the calls, and it
    # raises the peak RSS of verify s7 --samples 20 (its Reeb energy) from
    # 40.0 MB at one, 2 and 4 BLOCK to 40.7 MB; 8 BLOCK is (m+1)× there.
    for sl in blocks(sample_size, 4 * manifold.BLOCK):
        x = points[sl]
        mask = np.asarray(zf.guard(x), dtype=bool)
        if np.any(mask):
            vals[sl][mask] = _trace_l_batch(zf, x[mask])
        kept += int(np.count_nonzero(mask))
    if kept == 0:
        raise SamplingExhaustedError("the guard rejected every sample")
    vol = sphere_volume(ambient_dim - 1)
    estimate = 0.5 * vol * float(np.mean(vals))
    stderr = 0.5 * vol * float(np.std(vals, ddof=1)) / np.sqrt(sample_size)
    return EnergyEstimate(estimate=estimate, stderr=stderr,
                          samples=sample_size, skipped=sample_size - kept)


def reeb_energy_closed_form(m: int) -> float:
    """E of any Reeb field on S^m: tr L ≡ m + (m−1), so E = (2m−1)/2 · Vol."""
    return 0.5 * (2 * m - 1) * sphere_volume(m)


# ---------------------------------------------------------------------------
# first variation (harmonicity form)

def harmonicity_form(zf: UnitVectorField, x: TangentVector) -> float:
    """nu_Z(x) = Σ_i g((∇_{u_i} A^t) x, u_i) over an orthonormal frame u_i:
    one row of the contraction of the jet that the checks take
    (:func:`_contract`), frame-free.  Raises outside the guard, and for a
    direction not orthogonal to the field."""
    p = x.base
    if not zf.guard(p.coords):
        raise RegularityError("harmonicity form outside the guarded domain")
    z = proj_np(p.coords, np.asarray(value(zf.field.eval(p.coords)), dtype=float))
    if abs(inner(x.vec, z)) > 1e-8:
        raise PreconditionError("direction must be orthogonal to the field")
    y = p.coords[None, :]
    return float(_contract(y, *_jet(zf.field, y), x.vec[None, None, :])[0][0, 0])


def _jet(field: AmbientVectorField, x: np.ndarray) -> tuple:
    """(F, ∂F, ∂²F) of F = P·field at the points x (B, m+1)."""
    return ad.second_jet(lambda y: projected_eval(field, y), x, x.shape[-1])


def _contract(x, f, rows, second, w):
    """nu_Z(w) and w(h), each (B, k), for tangent directions w (B, k, m+1)
    at the points x (B, m+1) from the jet of F there (:func:`_jet`: f
    (B, m+1), rows (m+1, B, m+1), second (m+1, m+1, B, m+1)), by the
    contractions of the module docstring."""
    m = x.shape[-1] - 1
    d_y = np.einsum("apj,pa->pj", rows, x)                  # D_y F
    laplacian = np.einsum("aapj->pj", second)               # Σ_a ∂_a∂_a F
    d_yy = np.einsum("abpj,pa,pb->pj", second, x, x)        # D²_{y,y} F
    grad_div = np.einsum("ajpa->pj", second)                # ∇ div F
    nu = m * d_y - f - (laplacian - d_yy)
    return inner(w, nu[:, None, :]), -inner(w, grad_div[:, None, :])


def _harmonic_block(field: AmbientVectorField, x: np.ndarray) -> tuple:
    """max over the Z^⊥ frame directions w of |nu_Z(w)| and of
    |w(h) − ric(w, Z)| at the points x (B, m+1) inside the guard: one jet
    of F, one set of Z^⊥ frames (built from F = Z) and both contractions.
    On the unit sphere ric(w, Z) = (m−1)·g(w, Z)."""
    f, rows, second = _jet(field, x)
    frames = frame_batch(x, f[:, None, :])[:, 1:]
    nu, wh = _contract(x, f, rows, second, frames)
    ric = (x.shape[-1] - 2) * inner(frames, f[:, None, :])
    return np.max(np.abs(nu), axis=-1), np.max(np.abs(wh - ric), axis=-1)


def _guarded(b: Block, zf: UnitVectorField) -> np.ndarray:
    """Where a block's points lie inside the field's guard."""
    return np.asarray(zf.guard(b.x), dtype=bool)


@checker(lambda zf, points: as_field_points(points, zf.field.eval))
def harmonicity_check(zf: UnitVectorField) -> Check:
    """max |nu_Z(x)| over frame directions x ⟂ Z at each point."""
    return Check("nu_form", HARMONIC_TOL, lambda b: b.of(_harmonic_block, zf.field)[0],
                 "first variation of the energy on the orthogonal complement",
                 keep=(_guarded, zf))


@checker(lambda zf, points: as_field_points(points, zf.field.eval))
def critical_condition_check(zf: UnitVectorField) -> Check:
    """x(h) = ric(x, N) for all frame directions x ⟂ N.

    x(h) is exact (a contraction of the same jet as the harmonicity
    form, computed once per block for both), so the default tolerance
    matches the harmonicity form's.
    """
    return Check("critical_condition", HARMONIC_TOL,
                 lambda b: b.of(_harmonic_block, zf.field)[1],
                 "derivative of the mean curvature against ricci(., N)",
                 keep=(_guarded, zf))


# ---------------------------------------------------------------------------
# mean curvature

def mean_curvature_of_field(zf: UnitVectorField, p: SpherePoint) -> float:
    """h = −Σ g(∇_{E_i}Z, E_i) over a frame of Z^⊥ (trace of A_Z there),
    taken frame-free as minus the trace of the shape matrix of the field
    (``manifold.shape_trace``): g(∇_Z Z, Z) = 0 for a unit field."""
    if not zf.guard(p.coords):
        raise RegularityError("mean curvature outside the guarded domain")
    return -float(shape_trace(zf.field, p.coords))
