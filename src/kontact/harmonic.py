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
sweep and read by both from the block (``manifold.Block``).  One closed
form (:func:`_covectors`) takes them for every unit field from one
``ad.second_jet`` of a raw formula W whose P·W/|P·W| is the field: the
ambient gradient ∇f of a unit gradient that carries its potential f
(``UnitVectorField.potential``), else the field's own formula.  No jet
of N is taken.  At a unit point y, for tangent w and m the sphere
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
Each check reports the norm of its covector, ν or −∇div F − (m−1)·Z
(ric(w, Z) = (m−1)·g(w, Z) on the unit sphere), restricted to Z^⊥ ∩ T_y:
frame-free, the root sum of squares of its components in any frame.
There the covectors do not depend on how Z is extended off the sphere,
so the closed form may take F = P·W/|P·W| in place of P·Z.
The one-point :func:`harmonicity_form` reads ⟨w, ν⟩ at one point.  The
tests hold the jet of P·Z (``tests/oracles.py``) to nested directional
derivatives of A^t w̃ and of div F, and the closed form to that jet.

Kernels and checks follow the batch convention of :mod:`kontact.manifold`,
and a unit field's domain (:meth:`UnitVectorField.domain`: its guard
and, for a unit gradient, where its potential is regular) maps points
(..., m+1) to a mask the same way; checks skip the points outside it.
In a sweep a unit gradient reads its regularity from the block's ∇f
(``scalar_fields.gradient_and_norm``), which the checks on f compute
anyway.
:func:`energy` draws its samples block by block from the stream that
``kontact verify`` sweeps (``manifold.sample_blocks``, whose blocks
concatenate to ``manifold.sample_coords``) and evaluates each block of
4 · ``manifold.BLOCK`` as it is drawn: its integrand holds one first-order
Jacobian per point, (m+1)× less than the second derivative T of a raw
formula whose Jacobian varies, which ``BLOCK`` is sized for, so fewer,
larger blocks pay less dispatch in the dual engine.  Its integrand is
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
from .ad import dot, norm, proj_tangent
from .errors import PreconditionError, RegularityError, SamplingExhaustedError
from .manifold import (
    AmbientVectorField,
    Block,
    Check,
    SpherePoint,
    TangentVector,
    as_field_points,
    checker,
    proj_np,
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
    ∇f/|∇f|, and None otherwise; the checks and :func:`energy`
    differentiate the raw ∇f of a field that carries it, any other field
    its own formula.  A unit gradient is undefined where f is not regular
    (``scalar_fields.is_regular``), which its potential decides, so its
    guard holds only further limits, such as the ``--exclusion`` band
    |f| ≤ c.  Dropping the potential of a unit gradient drops its
    regularity with it: ``UnitVectorField(zf.field, zf.guard, zf.label)``
    is defined up to the critical set unless its guard takes the old
    domain, ``UnitVectorField(zf.field, zf.domain, zf.label)``.
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
        v = c + dot(points, a)[..., None] * d
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
    Summation is a single deterministic pairwise reduction over all
    samples, so the result does not depend on the block size.

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
    # A sample carries one first-order Jacobian, (m+1)× less than the T of
    # a check's raw formula whose Jacobian varies, so blocks can be larger:
    # cli.main for energy s5 --field gradient --exclusion 0.9 --samples
    # 100000 took 45.3, 40.5, 39.6 and 38.6 ms with blocks of 1, 2, 4 and 8
    # BLOCK and peaked at 37.2, 37.8, 39.1 and 42.0 MB (fresh processes,
    # 2-vCPU VM, medians of 20 interleaved runs): from 2 BLOCK up the times
    # lie within the runs' spread, and 8 BLOCK costs 3 MB.
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
    if abs(dot(x.vec, f[0])) > 1e-8:
        raise PreconditionError("direction must be orthogonal to the field")
    return float(dot(x.vec, nu[0]))


def _covectors(zf: UnitVectorField, y: np.ndarray) -> tuple:
    """N, ν and ∇div N, each (B, m+1), at the points y (B, m+1), for
    N = P·W/|P·W| and the raw formula W of the module docstring, in closed
    form from W, its Jacobian H[i, a] = ∂_a W_i and its second derivative T
    (one ``ad.second_jet`` of W).

    At any y off the zeros of P·W, s = |y|², k = ⟨y, W⟩, c = k/s,
    u = W − c·y, ρ = |u| and N = u/ρ; ⟨y, u⟩ ≡ 0, so P·N = N near the
    sphere, and every term that carries ⟨y, N⟩ vanishes identically and is
    left out.  With ∇k = W + Hᵀy, ∇c = ∇k/s − 2k·y/s², U = ∂u =
    H − y ∇cᵀ − c·I, g = Uᵀ N = ∇ρ and Q = I − N Nᵀ:
      - ∂N = Q U/ρ, so D_y N = Q U y/ρ and ∂Nᵀ w = Uᵀ Q w/ρ;
      - ∂_a∂_b u = T e_a e_b − (∂_a∂_b c)·y − ∂_b c·e_a − ∂_a c·e_b, with
        ∂²k = H + Hᵀ + ⟨y, T(·, ·)⟩;
      - ∂_a∂_b N = (∂_a∂_b u − ∂_a N·g_b − ∂_b N·g_a − N·∂_b g_a)/ρ,
        ∂_b g_a = ⟨∂_b N, U e_a⟩ + ⟨N, ∂_a∂_b u⟩,
    and ΔN, D²_{y,y}N and ∇div N are these contracted before they are
    expanded.  T enters only as ΔW, ∇div W, T(y, y), ⟨y, T(y, ·)⟩ and
    ⟨N, T(N, ·)⟩, contracted only where T has a nonzero entry: never where
    W is linear (the angle function, every Reeb field) or constant.  W is
    the evaluated one, never H·y: the height function has W constant and
    H = 0.  H is applied as one matrix where its rows have a size-1 batch
    axis (W linear or constant, or one point).  D_y N and D²_{y,y}N vanish
    in exact arithmetic where W is linear (N is homogeneous of degree 0
    there), but are computed, so a field for which they do not vanish is
    read as it is."""
    field = zf.field if zf.potential is None else ambient_gradient_field(zf.potential)
    n = y.shape[-1]
    w, rows, second = ad.second_jet(field.eval, y, n)
    varies = np.any(second)                                 # T ≠ 0: H depends on the point
    rows = np.broadcast_to(rows, np.broadcast_shapes(np.shape(rows), (n, 1, n)))
    if rows.shape[1] == 1:
        jac = rows.reshape(n, n)                            # jac[a, i] = H[i, a]

        def hess(v):
            return v @ jac

        def hess_t(v):
            return v @ jac.T

        tr_h, frob_h = np.trace(jac), np.sum(jac * jac)
    else:
        rows = np.broadcast_to(rows, (n,) + y.shape)

        def hess(v):
            return np.einsum("api,pa->pi", rows, v)

        def hess_t(v):
            return np.einsum("api,pi->pa", rows, v)

        flat = np.moveaxis(rows, 1, 0).reshape(len(y), -1)  # one row of n² per point
        tr_h, frob_h = np.einsum("apa->p", rows), dot(flat, flat)

    def col(q):
        return q[:, None]

    w = np.broadcast_to(w, y.shape)
    s, k = dot(y, y), dot(y, w)
    c = k / s
    hy, hty = hess(y), hess_t(y)
    kg = w + hty                                            # ∇k
    cg = kg / col(s) - col(2.0 * k / (s * s)) * y           # ∇c
    u = w - col(c) * y
    # off y a second time: near a focal set |u| is small against |W|, and
    # the part along y that rounding leaves in u would carry the terms
    # along N, which reach 1/ρ², through the projection of the residuals
    # onto y^⊥ (up to 15× the jet's maxima at 1 − f² = 4e-4 on S⁷)
    u -= col(dot(u, y) / s) * y
    rho = norm(u)
    nv = u / col(rho)
    if varies:
        second = np.broadcast_to(second, (n, n) + y.shape)  # second[a, b, p, i] = T[i, a, b]
        lap_w, div_w = np.einsum("aapi->pi", second), np.einsum("ibpi->pb", second)
        t_yy = np.einsum("abpi,pa,pb->pi", second, y, y)
        t_y = np.einsum("abpi,pa,pi->pb", second, y, y)
        t_nn = np.einsum("abpi,pa,pi->pb", second, nv, nv)
    else:
        lap_w = div_w = t_yy = t_y = t_nn = np.zeros_like(y)

    def q(v):
        return v - col(dot(nv, v)) * nv

    a, kg_y, cg_n = dot(cg, y), dot(kg, y), dot(cg, nv)
    g = hess_t(nv) - col(c) * nv                            # Uᵀ N
    uy = hy - col(a + c) * y                                # U y
    d_y = q(uy) / col(rho)
    # ΔN: Σ_a ∂_a∂_a u = ΔW − tr(∂²c)·y − 2∇c, Σ_a ∂_a N·g_a = Q U g/ρ, and
    # Σ_a ∂_a g_a = ⟨∂N, U⟩_F + ⟨N, Σ_a ∂_a∂_a u⟩, ⟨∂N, U⟩_F = (‖U‖²_F − |g|²)/ρ
    tr_cc = ((2.0 * tr_h + dot(y, lap_w)) / s + (8.0 - 2.0 * n) * k / (s * s)
             - 4.0 * kg_y / (s * s))
    ug = hess(g) - col(dot(cg, g)) * y - col(c) * g
    frob_u = (frob_h + s * dot(cg, cg) + c * c * n - 2.0 * dot(y, hess(cg))
              - 2.0 * c * tr_h + 2.0 * c * a)
    laplacian = (q(lap_w - 2.0 * cg - 2.0 * ug / col(rho)) - col(tr_cc) * y
                 - col((frob_u - dot(g, g)) / rho) * nv) / col(rho)
    # D²_{y,y}N: u_yy = T(y, y) − (yᵀ ∂²c y)·y − 2⟨∇c, y⟩·y
    y_cc_y = (2.0 * dot(y, hy) + dot(y, t_yy)) / s + (6.0 * k - 4.0 * kg_y) / s
    u_yy = t_yy - col(y_cc_y + 2.0 * a) * y
    g_yy = dot(d_y, uy) + dot(nv, u_yy)
    d_yy = (u_yy - col(2.0 * dot(g, y)) * d_y - col(g_yy) * nv) / col(rho)
    # ∇div N: Σ_i ∂_b∂_i u_i = (∇div W)_b − (∂²c y)_b − (m+2)·∂_b c, the rest
    # through tr ∂N = (tr U − ⟨g, N⟩)/ρ, ∂Nᵀ(g + U N) and ⟨N, T(N, ·)⟩
    cc_y = (hy + hty + t_y - 2.0 * kg) / col(s) + col((6.0 * k - 2.0 * kg_y) / (s * s)) * y
    tr_dn = (tr_h - a - c * n - dot(g, nv)) / rho
    qv = q(g + hess(nv) - col(cg_n) * y - col(c) * nv)      # Q (g + U N)
    dnt = (hess_t(qv) - col(dot(y, qv)) * cg - col(c) * qv) / col(rho)   # ∂Nᵀ(g + U N)
    grad_div = (div_w - cc_y - n * cg - col(tr_dn) * g - dnt - t_nn + col(cg_n) * nv) / col(rho)
    return nv, (n - 1) * d_y - nv - (laplacian - d_yy), grad_div


def _harmonic_block(zf: UnitVectorField, x: np.ndarray) -> tuple:
    """|ν| and |∇h − ric(·, Z)^♯| on Z^⊥ ∩ T_x at the points x (B, m+1)
    inside the field's domain, with ∇h = −∇div F and ric(·, Z)^♯ =
    (m−1)·Z: both covectors of :func:`_covectors` (F = Z on the sphere),
    no frame."""
    f, nu, grad_div = _covectors(zf, x)
    v = np.stack([nu, -grad_div - (x.shape[-1] - 2) * f])
    v -= dot(v, x)[..., None] * x + dot(v, f)[..., None] * f
    return tuple(norm(v))


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
