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
both read four contractions of the first and second derivatives of the
projected field F = P·Z, P = I − y yᵀ/|y|², computed once per block of a
sweep and read by both from the block (``manifold.Block``).  There are
two routes to them (:func:`_covectors`):
  - a unit gradient that carries its potential f
    (``UnitVectorField.potential``) takes them in closed form from the raw
    ambient gradient V = ∇f, its Jacobian and, where that Jacobian varies,
    three contractions of its second derivative
    (:func:`_unit_gradient_covectors`): no jet of N, nothing larger than
    (B, m+1, m+1), about 1.5 ms for a 1024-point block on S⁷ against 26 ms
    for the jet;
  - every other field (a Reeb field, the twisted control) and a unit
    gradient built without its potential take one second-order jet
    (F, ∂F, ∂²F) from ``ad.second_jet`` (:func:`_jet`, :func:`_contract`),
    which is also the tests' oracle for the closed form.
This is the same split that the energy integrand makes.  At a unit point
y, for tangent w and m the sphere dimension:

    w(h)  = −⟨w, ∇div F⟩,              (∇div F)_b = Σ_i ∂_b∂_i F_i
    nu(w) = m⟨w, D_y F⟩ − ⟨w, F⟩ − ⟨w, ΔF − D²_{y,y} F⟩,   ΔF = Σ_a ∂_a∂_a F

The first holds because h = −div F.  For the second, nu(w) is the trace
with P of D(A^t w̃), where A^t w̃ = −P·Jᵀ·P·w and J = ∂F:
  - D_a P = −(e_a yᵀ + y e_aᵀ) + 2y_a·y yᵀ, and the trace with P drops
    every term that carries P·y = 0;
  - the derivative of the outer P gives m⟨w, D_y F⟩, that of the inner
    P gives ⟨y, D_w F⟩, and that of Jᵀ gives −⟨w, ΔF − D²_{y,y} F⟩;
  - ⟨y, F⟩ ≡ 0 off the sphere, so ⟨y, D_w F⟩ = −⟨w, F⟩.
Each check reports the norm of its covector, ν or −∇div F − (m−1)·Z
(ric(w, Z) = (m−1)·g(w, Z) on the unit sphere), restricted to Z^⊥ ∩ T_y:
frame-free, the root sum of squares of its components in any frame.
The one-point :func:`harmonicity_form` is ⟨w, ν⟩, one row of the same
covector.  The tests hold the jet's contractions to nested directional
derivatives of A^t w̃ and of div F, and the closed form to the jet.

Kernels and checks follow the batch convention of :mod:`kontact.manifold`,
and a unit field's domain (:meth:`UnitVectorField.domain`: its guard
and, for a unit gradient, where its potential is regular) maps points
(..., m+1) to a mask the same way; checks skip the points outside it.
In a sweep a unit gradient reads its regularity from the block's ∇f
(``scalar_fields.gradient_and_norm``), which the checks on f compute
anyway.
:func:`energy` draws its samples block by block from the stream that
``kontact verify`` sweeps (``manifold.sample_blocks``, whose blocks
concatenate to ``manifold.sample_coords``, and which on two CPUs draws
the next block on a worker thread) and evaluates each block of
4 · ``manifold.BLOCK`` as it is drawn: its integrand holds one first-order
Jacobian per point, (m+1)× less than the second-order jets ``BLOCK`` is
sized for (those of a field without a potential), so fewer, larger
blocks pay less dispatch in the dual engine.  Its integrand is
tr L_Z = m + ‖S‖²_F (S the shape matrix, ∇_u Z = S u), with ‖S‖²_F read
from invariants of the raw Jacobian J of Z's formula
(``manifold.shape_norm_sq``; formula in ``manifold._read_shape``), so
neither P = I − x xᵀ nor S is formed.
Where J does not depend on x, as for every Reeb field x ↦ Jx, it stays
one (m+1)×(m+1) matrix.

A unit gradient N = ∇f/r, r = |∇f|, whose field carries its potential
f (``UnitVectorField.potential``, set by
:func:`normalized_gradient_unit_field`) is not differentiated through
its own formula: tr L_N = m + (‖H‖²_F − |H N|²)/r², H the Hessian
matrix of f, which is the shape matrix of the raw ambient gradient V
(``manifold.unit_shape_norm_sq``, from the same invariants).  For the
angle function V is linear, so J is again one matrix.  The same reading
returns r = |P·V|, so where f is regular
comes from the integrand's own V: one evaluation of V per block, none
for the domain.  Every other field, and a unit gradient built without
its potential, takes the Jacobian of its own formula.  Either integrand
runs on a copy of the block's rows inside the guard, as few as a narrow
``--exclusion`` band keeps; the rows of a unit gradient where f is not
regular are dropped from its values by one ``np.where``.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from . import ad, manifold
from .ad import dot, proj_tangent
from .errors import PreconditionError, RegularityError, SamplingExhaustedError
from .manifold import (
    AmbientVectorField,
    Block,
    Check,
    SpherePoint,
    TangentVector,
    as_field_points,
    checker,
    inner,
    proj_np,
    projected_eval,
    sample_blocks,
    shape_matrix,
    shape_norm_sq,
    shape_trace,
    sphere_volume,
    unit_shape_norm_sq,
)
from .report import EnergyEstimate
from .scalar_fields import (
    ScalarField,
    ambient_gradient_field,
    gradient_and_norm,
    gradient_norm,
    is_regular,
    normalized_gradient_field,
)

TWISTED_EPS_REG = 1e-4  # guard of twisted_unit_field: |projected affine field| floor
HARMONIC_TOL = 1e-6     # default gate of nu_form and critical_condition


def _everywhere(x: np.ndarray) -> np.ndarray:
    return np.ones(np.shape(x)[:-1], dtype=bool)


class UnitVectorField:
    """Tangent unit field, defined on the points :meth:`domain` keeps.

    ``guard`` maps points (..., m+1) to a boolean mask (..., ), False
    where the field is not to be evaluated; a single point is a 1-D
    array.  ``potential`` is f when the field is the unit gradient
    ∇f/|∇f|, and None otherwise.  A unit gradient is undefined where f is
    not regular (``scalar_fields.is_regular``), which its potential
    decides, so its guard holds only further limits, such as the
    ``--exclusion`` band |f| ≤ c.  Dropping the potential of a unit
    gradient drops its regularity with it: ``UnitVectorField(zf.field,
    zf.guard, zf.label)`` is defined up to the critical set unless its
    guard takes the old domain, ``UnitVectorField(zf.field, zf.domain,
    zf.label)``.
    """

    def __init__(self, field: AmbientVectorField,
                 guard: Callable[[np.ndarray], np.ndarray] = _everywhere,
                 label: str = "", potential: Optional[ScalarField] = None):
        self.field, self.guard, self.label, self.potential = field, guard, label, potential

    def domain(self, points: np.ndarray,
               norm: Optional[Callable[[ScalarField], np.ndarray]] = None) -> np.ndarray:
        """Where the field is defined at the points: inside its guard and,
        for a unit gradient, where its potential f is regular.  ``norm(f)``
        gives ‖∇f‖ at the points when the caller holds it already (the
        block of a sweep); :func:`energy` applies the same two limits in
        turn, the guard to the points and regularity to the |P·V| of its
        integrand."""
        keep = np.asarray(self.guard(points), dtype=bool)
        if self.potential is None:
            return keep
        r = gradient_norm(self.potential, points) if norm is None else norm(self.potential)
        return keep & is_regular(r)


def reeb_unit_field(structure) -> UnitVectorField:
    return UnitVectorField(structure.reeb_field(),
                           label=f"reeb_{structure.label}")


def normalized_gradient_unit_field(f: ScalarField) -> UnitVectorField:
    """N = ∇f/‖∇f‖, defined off the critical set of f (its potential)."""
    return UnitVectorField(normalized_gradient_field(f), label=f"N({f.label})",
                           potential=f)


def normalized_constant_unit_field(c: np.ndarray) -> UnitVectorField:
    """Unit projection of a constant vector (the radial field between the
    poles ±c/|c|): the unit gradient of the height function ⟨x, c⟩.

    That function is isoparametric, so the field is itself harmonic; use
    :func:`twisted_unit_field` when a non-harmonic control is needed.
    """
    c = np.asarray(c, dtype=float)
    height = ScalarField(eval=lambda x: dot(x, c), grad=lambda x: ad.lift(c, x),
                         label="height along c")
    return UnitVectorField(normalized_gradient_field(height), label="unit projected constant",
                           potential=height)


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
    if not zf.domain(p.coords):
        raise RegularityError("Weingarten operator outside the field's domain")
    return -shape_matrix(zf.field, p.coords)


# ---------------------------------------------------------------------------
# energy

def _trace_l_batch(zf: UnitVectorField, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tr L_Z = m + ‖S‖²_F at the points x (..., m+1) where Z is defined,
    0 elsewhere, and that mask (its domain); S is the shape matrix of the
    field, with ‖S‖²_F taken from invariants of one raw Jacobian (formulas
    in ``manifold._read_shape``), so no (m+1)×(m+1) matrix per point is built.

    The integrand runs on a copy of the rows inside the guard.  A unit
    gradient is differentiated through the raw ambient gradient of its
    potential (``manifold.unit_shape_norm_sq``), whose |P·V| = ‖∇f‖ there
    decides where f is regular; any other field goes through its own
    formula (``manifold.shape_norm_sq``).  Raises FloatingPointError if
    a value inside the domain is not finite."""
    m = np.shape(x)[-1] - 1
    keep = np.array(zf.guard(x), dtype=bool)
    vals = np.zeros(keep.shape)
    if not keep.any():
        return vals, keep
    # np.compress copies a block of 4 · BLOCK rows of S^5, nine in ten
    # kept, in a median 28 µs against 100 µs for x[keep]
    rows = np.compress(keep.ravel(), np.reshape(x, (-1, m + 1)), axis=0)
    if zf.potential is None:
        vals[keep] = m + shape_norm_sq(zf.field, rows)
    else:
        with np.errstate(all="ignore"):     # N is undefined where r = 0
            norm_sq, r = unit_shape_norm_sq(ambient_gradient_field(zf.potential), rows)
        inside = is_regular(r)
        vals[keep] = np.where(inside, m + norm_sq, 0.0)
        keep[keep] = inside
    if not np.isfinite(vals).all():
        raise FloatingPointError("tr L is not finite at a point of the field's domain")
    return vals, keep


def energy(zf: UnitVectorField, sample_size: int, seed: int,
           ambient_dim: int) -> EnergyEstimate:
    """Monte Carlo estimate of E(Z) = ½ ∫ tr L_Z dV with a standard error.

    Points outside the field's domain contribute zero and count as
    skipped, so for a guard that excludes a positive-measure region this
    estimates the energy of the restricted domain.  The samples are drawn
    and evaluated in blocks of 4 · ``manifold.BLOCK`` (read at call time)
    from the package's one stream of sample points
    (``manifold.sample_blocks``, whose blocks concatenate to
    ``manifold.sample_coords``), so only the integrand values are held for
    all samples: one float each, beside one block's points
    and Jacobians.  Each block is one pass of :func:`_trace_l_batch`,
    which evaluates the integrand on the block's rows inside the guard.
    On two CPUs or more the stream draws each next block on a worker
    thread while this one is evaluated, with the same rows.  Summation is
    a single deterministic pairwise reduction over all samples, so the
    result does not depend on the block size or on the worker.

    Each block's temporaries lie above glibc's initial 128 KB mmap
    threshold, which a streamed call never raises, so unless the process
    raised it (``kontact`` does, ``cli.tune_allocator``) they are mapped
    afresh per block: the s5 unit gradient on 100 000 samples in a fresh
    process took 0.049 s and 16 900 minor faults against 0.033 s and 5 900.
    """
    if sample_size < 2:
        raise ValueError("samples must be >= 2 for a standard error")
    draws = sample_blocks(sample_size, seed, ambient_dim, 4 * manifold.BLOCK)
    vals = np.empty(sample_size)
    kept = done = 0
    # A sample carries one first-order Jacobian, (m+1)× less than a check's
    # second-order jet, so blocks can be larger: with the next block drawn
    # on a worker, cli.main for energy s5 --field gradient --exclusion 0.9
    # --samples 100000 took 55.9, 43.1, 37.9 and 37.8 ms with blocks of 1,
    # 2, 4 and 8 BLOCK and peaked at 37.3, 38.2, 39.9 and 43.3 MB (fresh
    # processes, 2-vCPU VM, medians of 12 interleaved runs): 8 BLOCK buys
    # nothing for 3.5 MB.
    for x in draws:
        vals[done:done + len(x)], keep = _trace_l_batch(zf, x)
        kept += int(np.count_nonzero(keep))
        done += len(x)
    if kept == 0:
        raise SamplingExhaustedError("no sample lies in the field's domain")
    # np.mean and np.std(ddof=1) as numpy computes them (one pairwise sum
    # each, the deviations squared), but in place: the values are not
    # needed again, and the copy np.std takes would double the O(N) memory
    mean = np.add.reduce(vals) / sample_size
    vals -= mean
    vals *= vals
    std = np.sqrt(np.add.reduce(vals) / (sample_size - 1))
    vol = sphere_volume(ambient_dim - 1)
    estimate = 0.5 * vol * float(mean)
    stderr = 0.5 * vol * float(std) / np.sqrt(sample_size)
    return EnergyEstimate(estimate=estimate, stderr=stderr,
                          samples=sample_size, skipped=sample_size - kept)


def reeb_energy_closed_form(m: int) -> float:
    """E of any Reeb field on S^m: tr L ≡ m + (m−1), so E = (2m−1)/2 · Vol."""
    return 0.5 * (2 * m - 1) * sphere_volume(m)


# ---------------------------------------------------------------------------
# first variation (harmonicity form)

def harmonicity_form(zf: UnitVectorField, x: TangentVector) -> float:
    """nu_Z(x) = Σ_i g((∇_{u_i} A^t) x, u_i) over an orthonormal frame u_i:
    ⟨x, ν⟩ for the covector ν that the checks take (:func:`_covectors`),
    frame-free.  Raises outside the field's domain, and for a direction
    not orthogonal to the field."""
    p = x.base
    if not zf.domain(p.coords):
        raise RegularityError("harmonicity form outside the field's domain")
    f, nu, _ = _covectors(zf, p.coords[None, :])
    if abs(inner(x.vec, f[0])) > 1e-8:
        raise PreconditionError("direction must be orthogonal to the field")
    return float(inner(x.vec, nu[0]))


def _jet(field: AmbientVectorField, x: np.ndarray) -> tuple:
    """(F, ∂F, ∂²F) of F = P·field at the points x (B, m+1)."""
    return ad.second_jet(lambda y: projected_eval(field, y), x, x.shape[-1])


def _contract(x, f, rows, second):
    """ν and ∇div F, each (B, m+1), so that nu_Z(w) = ⟨w, ν⟩ and
    w(h) = −⟨w, ∇div F⟩ for tangent w, at the points x (B, m+1) from the
    jet of F there (:func:`_jet`: f (B, m+1), rows (m+1, B, m+1), second
    (m+1, m+1, B, m+1)), by the contractions of the module docstring."""
    m = x.shape[-1] - 1
    d_y = np.einsum("apj,pa->pj", rows, x)                  # D_y F
    laplacian = np.einsum("aapj->pj", second)               # Σ_a ∂_a∂_a F
    d_yy = np.einsum("abpj,pa,pb->pj", second, x, x)        # D²_{y,y} F
    grad_div = np.einsum("ajpa->pj", second)                # ∇ div F
    return m * d_y - f - (laplacian - d_yy), grad_div


def _unit_gradient_covectors(f: ScalarField, x: np.ndarray) -> tuple:
    """N, ν and ∇div N, each (B, m+1), at the points x (B, m+1) for the
    unit gradient N of f, the contractions of :func:`_contract` in closed
    form from the raw ambient gradient V = ∇f: one ``manifold._raw_jacobian``
    of V gives V and its Jacobian H, no jet of N is taken, and nothing
    larger than (B, m+1, m+1) is held.

    At any y off the critical set, s = |y|², k = ⟨y, V⟩, c = k/s,
    u = V − c·y, ρ = |u| and N = u/ρ; ⟨y, u⟩ ≡ 0, so F = P·N = N near the
    sphere, and every term that carries ⟨y, N⟩ vanishes identically and is
    left out.  With ∇c = (V + H y)/s − 2k·y/s², U = ∂u = H − y ∇cᵀ − c·I,
    g = Uᵀ N = ∇ρ and Q = I − N Nᵀ:
      - ∂N = Q U/ρ, so D_y N = Q U y/ρ;
      - ∂_a∂_b u = T e_a e_b − (∂_a∂_b c)·y − ∂_b c·e_a − ∂_a c·e_b, T the
        second derivative of V;
      - ∂_a∂_b N = (∂_a∂_b u − ∂_a N·g_b − ∂_b N·g_a − N·∂_b g_a)/ρ,
        ∂_b g_a = ⟨∂_b N, U e_a⟩ + ⟨N, ∂_a∂_b u⟩,
    and ΔN, D²_{y,y}N and ∇div N are these contracted before they are
    expanded, by vectors and H applied to them.  V is a gradient, so T is
    symmetric in all three slots, and ∇div V = ΔV: T enters only as ΔV,
    T(y, y) and T(N, N).  T = 0 where the Jacobian rows of V do not depend
    on x (the angle and height functions, one matrix H); otherwise the
    three come from one nested dual evaluation of V along the pairs
    (e_a, e_a), (y, y) and (N, N).  V is the evaluated one, never H·y:
    the height function has V constant and H = 0.  D_y N and D²_{y,y}N
    vanish in exact arithmetic where V is linear (N is homogeneous of
    degree 0 there), but are computed, so a field for which they do not
    vanish is read as it is.  One point is read as a batch of two copies
    of it, its first row kept: its Jacobian rows have a size-1 batch axis
    whatever V is, and would be taken for a constant H."""
    if len(x) == 1:
        return tuple(a[:1] for a in _unit_gradient_covectors(f, np.repeat(x, 2, axis=0)))
    field = ambient_gradient_field(f)
    y, v, rows = manifold._raw_jacobian(field, x)
    n = y.shape[-1]
    constant = rows.shape[1] == 1
    if constant:
        jac = rows.reshape(n, n)                            # jac[a, i] = H[i, a]

        def hess(w):
            return w @ jac

        tr_h, frob_h = np.trace(jac), np.sum(jac * jac)
    else:
        def hess(w):
            return np.einsum("api,pa->pi", rows, w)

        tr_h, frob_h = np.einsum("apa->p", rows), np.einsum("api,api->p", rows, rows)

    def col(q):
        return q[:, None]

    s, k = inner(y, y), inner(y, v)
    c = k / s
    hy = hess(y)
    kg = v + hy                                             # ∇k
    cg = kg / col(s) - col(2.0 * k / (s * s)) * y           # ∇c
    u = v - col(c) * y
    # off y a second time: near a focal set |u| is small against |V|, and
    # the part along y that rounding leaves in u would carry the terms
    # along N, which reach 1/ρ², through the projection of the residuals
    # onto y^⊥ (up to 15× the jet's maxima at 1 − f² = 4e-4 on S⁷)
    u -= col(inner(u, y) / s) * y
    rho = np.sqrt(inner(u, u))
    nv = u / col(rho)
    if constant:
        lap_v = t_yy = t_nn = np.zeros_like(y)
    else:
        pairs = np.concatenate([np.broadcast_to(np.eye(n)[:, None, :], (n,) + y.shape),
                                y[None], nv[None]])
        out = field.eval(ad.make_dual(ad.make_dual(y, pairs), pairs))
        second = np.broadcast_to(out.eps.eps, pairs.shape)
        lap_v, t_yy, t_nn = np.sum(second[:n], axis=0), second[n], second[n + 1]

    def q(w):
        return w - col(inner(nv, w)) * nv

    a, kg_y, cg_n = inner(cg, y), inner(kg, y), inner(cg, nv)
    g = hess(nv) - col(c) * nv                              # Uᵀ N
    uy = hy - col(a + c) * y                                # U y
    d_y = q(uy) / col(rho)
    # ΔN: Σ_a ∂_a∂_a u = ΔV − tr(∂²c)·y − 2∇c, Σ_a ∂_a N·g_a = Q U g/ρ, and
    # Σ_a ∂_a g_a = ⟨∂N, U⟩_F + ⟨N, Σ_a ∂_a∂_a u⟩, ⟨∂N, U⟩_F = (‖U‖²_F − |g|²)/ρ
    tr_cc = ((2.0 * tr_h + inner(y, lap_v)) / s + (8.0 - 2.0 * n) * k / (s * s)
             - 4.0 * kg_y / (s * s))
    ug = hess(g) - col(inner(cg, g)) * y - col(c) * g
    frob_u = (frob_h + s * inner(cg, cg) + c * c * n - 2.0 * inner(y, hess(cg))
              - 2.0 * c * tr_h + 2.0 * c * a)
    laplacian = (q(lap_v - 2.0 * cg - 2.0 * ug / col(rho)) - col(tr_cc) * y
                 - col((frob_u - inner(g, g)) / rho) * nv) / col(rho)
    # D²_{y,y}N: u_yy = T(y, y) − (yᵀ ∂²c y)·y − 2⟨∇c, y⟩·y
    y_cc_y = (2.0 * inner(y, hy) + inner(y, t_yy)) / s + (6.0 * k - 4.0 * kg_y) / s
    u_yy = t_yy - col(y_cc_y + 2.0 * a) * y
    g_yy = inner(d_y, uy) + inner(nv, u_yy)
    d_yy = (u_yy - col(2.0 * inner(g, y)) * d_y - col(g_yy) * nv) / col(rho)
    # ∇div N: Σ_i ∂_b∂_i u_i = ∇div V − (∂²c y)_b − (m+2)·∂_b c, the rest
    # through tr ∂N = (tr U − ⟨g, N⟩)/ρ and ∂Nᵀ w = Uᵀ Q w/ρ
    cc_y = (2.0 * hy + t_yy - 2.0 * kg) / col(s) + col((6.0 * k - 2.0 * kg_y) / (s * s)) * y
    tr_dn = (tr_h - a - c * n - inner(g, nv)) / rho
    qg = q(g)
    dnt_g = (hess(qg) - col(inner(y, qg)) * cg - col(c) * qg) / col(rho)
    dnt_y = (hy - col(s) * cg - col(c) * y) / col(rho)
    grad_div = (lap_v - cc_y - n * cg - col(tr_dn) * g - 2.0 * dnt_g + col(cg_n) * dnt_y
                - t_nn + col(cg_n) * nv) / col(rho)
    return nv, (n - 1) * d_y - nv - (laplacian - d_yy), grad_div


def _covectors(zf: UnitVectorField, x: np.ndarray) -> tuple:
    """F, ν and ∇div F, each (B, m+1), at the points x (B, m+1): in closed
    form from the potential of a unit gradient that carries it
    (:func:`_unit_gradient_covectors`), else from the jet of F
    (:func:`_jet`, :func:`_contract`)."""
    if zf.potential is not None:
        return _unit_gradient_covectors(zf.potential, x)
    f, rows, second = _jet(zf.field, x)
    return (f,) + _contract(x, f, rows, second)


def _harmonic_block(zf: UnitVectorField, x: np.ndarray) -> tuple:
    """|ν| and |∇h − ric(·, Z)^♯| on Z^⊥ ∩ T_x at the points x (B, m+1)
    inside the field's domain, with ∇h = −∇div F and ric(·, Z)^♯ =
    (m−1)·Z: both covectors of :func:`_covectors` (F = Z on the sphere),
    no frame."""
    f, nu, grad_div = _covectors(zf, x)
    v = np.stack([nu, -grad_div - (x.shape[-1] - 2) * f])
    v -= inner(v, x)[..., None] * x + inner(v, f)[..., None] * f
    return tuple(np.sqrt(inner(v, v)))


def _in_domain(b: Block, zf: UnitVectorField) -> np.ndarray:
    """:meth:`UnitVectorField.domain` on a block: a unit gradient reads
    where its potential is regular from the block's ∇f, which the checks
    on f share."""
    return zf.domain(b.x, lambda f: gradient_and_norm(b, f)[1])


@checker(lambda zf, points: as_field_points(points, zf.field.eval))
def harmonicity_check(zf: UnitVectorField) -> Check:
    """|nu_Z| on Z^⊥ at each point, frame-free: at least |nu_Z(x)| for
    every unit x ⟂ Z."""
    return Check("nu_form", HARMONIC_TOL, lambda b: b.of(_harmonic_block, zf)[0],
                 "first variation of the energy on the orthogonal complement",
                 keep=(_in_domain, zf))


@checker(lambda zf, points: as_field_points(points, zf.field.eval))
def critical_condition_check(zf: UnitVectorField) -> Check:
    """x(h) = ric(x, N) for all x ⟂ N: |∇h − ric(·, N)^♯| on N^⊥ at each
    point, frame-free.  ∇h is exact (∇div F, read with the covector of the
    harmonicity form), so the default tolerance matches that form's."""
    return Check("critical_condition", HARMONIC_TOL,
                 lambda b: b.of(_harmonic_block, zf)[1],
                 "derivative of the mean curvature against ricci(., N)",
                 keep=(_in_domain, zf))


# ---------------------------------------------------------------------------
# mean curvature

def mean_curvature_of_field(zf: UnitVectorField, p: SpherePoint) -> float:
    """h = −Σ g(∇_{E_i}Z, E_i) over a frame of Z^⊥ (trace of A_Z there),
    taken frame-free as minus the trace of the shape matrix of the field
    (``manifold.shape_trace``): g(∇_Z Z, Z) = 0 for a unit field."""
    if not zf.domain(p.coords):
        raise RegularityError("mean curvature outside the field's domain")
    return -float(shape_trace(zf.field, p.coords))
