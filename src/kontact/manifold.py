"""Round unit sphere S^m embedded in R^(m+1).

Points and tangent vectors live in ambient coordinates.  Vector fields
are ambient formulas V evaluated through :mod:`kontact.ad`, and a field
stands for its projection F = P·V, P = I − x xᵀ, so the raw formula
need not be tangent off the sphere.  The Levi-Civita connection is the
tangential part of the ambient derivative of F (Gauss formula), which
on the unit sphere has the closed form P·D_u F = P·D_u V − ⟨x, V⟩·P u:
:func:`shape_matrix`, its bilinear form on tangent vectors
:func:`shape_form`, its trace :func:`shape_trace` and Frobenius norm
:func:`shape_norm_sq`, that norm for the normalized field P·V/|P·V|
(:func:`unit_shape_norm_sq`) and :func:`cov_deriv_batch` differentiate
the raw formula only; the three readings of S come from one set of
invariants of the raw Jacobian (:func:`_read_shape`).  The kernels that
nest derivatives (:func:`lie_bracket_batch` and its kin) differentiate F
itself through :func:`projected_eval`, off the sphere too.
:func:`curvature_numeric_batch` assembles R(u,v)w from nested covariant
derivatives; the checks use the constant-curvature expression
g(v,w)u − g(u,w)v and repeat it with the numerical one.

Batch convention (package-wide): points are (N, m+1) arrays of unit
rows.  :func:`sample_blocks` draws them one block at a time, and
:func:`sample_coords` is the concatenation of its blocks; :func:`as_points`
validates the points a caller gives, as such an array or as a list of
:class:`SpherePoint`.
Kernels (names ending in ``_batch``, and :func:`shape_matrix`,
:func:`shape_trace`, :func:`projector` and their kin in the other
modules) take plain arrays whose leading axes are batch axes (points,
directions, frame slots) and broadcast them, contracting over the last
axis only.  :class:`SpherePoint`, :class:`TangentVector`, :class:`Frame`
and the few functions that take them (here :func:`cov_deriv`,
:func:`lie_bracket`, :func:`curvature_numeric`,
:func:`gram_schmidt_frame`, :func:`tangent_basis` and
:func:`sample_points`) are one-row wrappers over the kernels that the
package itself does not call; the benchmark's tracer binds them by name.

Checks: a :class:`Check` is a kernel from a :class:`Block` of points to
their residuals.  :func:`sweep` runs any number of checks over a stream
of point blocks in one pass, and each check folds a block's residuals
into a running tally.  The random tangent directions of the checks come
from the sweep: :meth:`Block.tangents` draws from a generator the sweep
keeps per seed, shape and point set (the block or one masked sub-block),
once per block for all the checks that name it, so a check holds no
generator and draws what it would draw swept alone.  A public checker
sweeps its check alone over its points cut into blocks of ``BLOCK``
(:func:`checker`), ``kontact verify`` the whole suite over the
``BLOCK``-point blocks of :func:`sample_blocks` as they are drawn, so it
holds one block of points, not all of them.  On two CPUs or more
:func:`sample_blocks` draws each next piece on a worker thread while its
caller works on the one before, with the same rows.
``BLOCK`` is 1024 because a block's cost is mostly per-call numpy
dispatch in the dual engine: check throughput is flat from 256 to 2048
points per block and falls at 32, while the traced peak of the largest
check, a second-order jet per point (of a unit field without a
potential), stays near 24 MB (s7).
``harmonic.energy`` draws and evaluates blocks of 4 · ``BLOCK`` samples
from the same stream, because its integrand holds only a first-order
Jacobian per point.  ``BLOCK`` is read at call time, so a test can
shrink it to cover more than one block.

Frames: no check builds one.  Each identity is linear or multilinear
in the vectors it is read on, so the checks read it on projectors
(:func:`projector`) and drawn vectors, whose numbers depend on no
completion.  :func:`frame_batch` (Householder reflectors of [x | seeds])
serves the one-point layer and the tests; :func:`seeds_span` is its rank
test on the seeds, and the mask of the checks on a seeded sub-bundle.

Sign conventions (frozen package-wide, pinned by tests):

* curvature  R(u,v)w = ∇_u∇_v w − ∇_v∇_u w − ∇_[u,v] w, so that
  g(R(u,v)v, u) = +1 for orthonormal u, v on the unit sphere;
* Ricci      ric(u,v) = Σ_i g(R(E_i,u)v, E_i) = (m−1)·g(u,v), which makes
  the Ricci endomorphism of any Reeb field equal (m−1)·Id = 2n·Id.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

from . import ad
from .ad import directional, matvec, proj_tangent, value
from .errors import (
    BasePointMismatchError,
    DegenerateInputError,
    GeometryError,
    SamplingExhaustedError,
    TangencyError,
)
from .report import ResidualReport

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

POINT_TOL = 1e-12
TANGENT_TOL = 1e-10
SEED_GRAM_TOL = 1e-10   # frame seeds with a smaller Gram determinant are rank deficient
BLOCK = 1024        # points per batched evaluation; bounds peak memory


class SpherePoint:
    """Unit vector in ambient coordinates."""

    def __init__(self, coords: np.ndarray):
        self.coords = np.asarray(coords, dtype=float)
        r = float(np.linalg.norm(self.coords))
        if not abs(r - 1.0) <= POINT_TOL:
            raise GeometryError(f"point norm {r} is not 1 within {POINT_TOL}")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.coords, dtype=dtype, copy=copy)

    @property
    def ambient_dim(self) -> int:
        return self.coords.shape[0]


class TangentVector:
    """Ambient vector attached to a sphere point, orthogonal to it."""

    def __init__(self, base: SpherePoint, vec: np.ndarray):
        self.base, self.vec = base, np.asarray(vec, dtype=float)
        straying = abs(float(self.vec @ self.base.coords))
        if not straying <= TANGENT_TOL * max(1.0, float(np.linalg.norm(self.vec))):
            raise TangencyError(f"vector strays {straying} from the tangent space")


class AmbientVectorField:
    """Vector field given by an ambient formula defined near the sphere.

    ``eval`` must be written with the :mod:`kontact.ad` helpers so it
    accepts dual inputs.  Derivatives are those of the projected
    composite x ↦ P(x)·eval(x), so the raw formula need not be tangent
    away from the sphere.
    """

    def __init__(self, eval: Callable, tangent: bool = True, label: str = ""):
        self.eval, self.tangent, self.label = eval, tangent, label


def constant_field(c: np.ndarray, label: str = "") -> AmbientVectorField:
    """Projection of a constant ambient vector; tangent on the whole sphere."""
    c = np.asarray(c, dtype=float)
    return AmbientVectorField(lambda x: proj_tangent(x, ad.lift(c, x)),
                              tangent=True, label=label or "projected constant")


def linear_field(mat: np.ndarray, label: str = "") -> AmbientVectorField:
    """Field x ↦ M·x (tangent iff M is skew-symmetric)."""
    mat = np.asarray(mat, dtype=float)
    tangent = bool(np.max(np.abs(mat + mat.T)) < 1e-12)
    return AmbientVectorField(lambda x: matvec(mat, x), tangent=tangent,
                              label=label or "linear")


class OrthoComplexStructure:
    """Orthogonal matrix with square −1 (hence skew-symmetric)."""

    def __init__(self, mat: np.ndarray):
        self.mat = m = np.asarray(mat, dtype=float)
        eye = np.eye(m.shape[0])
        if np.max(np.abs(m @ m.T - eye)) > 1e-12:
            raise GeometryError("matrix is not orthogonal")
        if np.max(np.abs(m @ m + eye)) > 1e-12:
            raise GeometryError("matrix squared is not -identity")
        if np.max(np.abs(m + m.T)) > 1e-12:
            raise GeometryError("matrix is not skew-symmetric")

    @property
    def ambient_dim(self) -> int:
        return self.mat.shape[0]


def block_diag_complex_structure(signs: Sequence[int]) -> OrthoComplexStructure:
    """Block-diagonal structure from 2x2 quarter-turn blocks s·[[0,1],[-1,0]]."""
    mat = np.zeros((2 * len(signs), 2 * len(signs)))
    for k, s in enumerate(signs):
        mat[2 * k, 2 * k + 1], mat[2 * k + 1, 2 * k] = s, -s
    return OrthoComplexStructure(mat)


class Frame:
    """Orthonormal tangent frame at a point."""

    def __init__(self, base: SpherePoint, vectors: tuple):
        self.base, self.vectors = base, vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, i: int) -> TangentVector:
        return self.vectors[i]

    @property
    def matrix(self) -> np.ndarray:
        """Row-stacked ambient components, shape (k, m+1)."""
        return np.stack([v.vec for v in self.vectors])


def _require_same_base(p: SpherePoint, *vectors: TangentVector) -> None:
    """Raise unless every vector is attached to p."""
    for u in vectors:
        if u.base is not p and not np.allclose(u.base.coords, p.coords,
                                               rtol=0.0, atol=POINT_TOL):
            raise BasePointMismatchError("tangent vectors live at different points")


# ---------------------------------------------------------------------------
# connection, bracket

def projected_eval(field: AmbientVectorField, x):
    """The composite x ↦ P(x)·field(x) used by all derivative formulas."""
    return proj_tangent(x, field.eval(x))


def _raw_dual(field: AmbientVectorField, x: np.ndarray, d: np.ndarray):
    """V(x) and D_d V(x) for the raw formula V = ``field.eval``, from one
    dual evaluation; a formula that returns no dual part is constant and
    differentiates to 0.  Both broadcast against the leaves of the dual
    point, so V may carry size-1 axes where the derivative has d's axes."""
    out = field.eval(ad.make_dual(x, d))
    if type(out) is ad.Dual:
        return out.val, out.eps
    return out, np.zeros(np.shape(d))


def cov_deriv_batch(V: AmbientVectorField, x: np.ndarray,
                    u: np.ndarray) -> np.ndarray:
    """∇_u V at the points x (batched), by the Gauss formula in closed form.

    With F = P·V the projected field and P = I − x xᵀ, the tangential part
    of D_u F on the unit sphere is P·D_u V − ⟨x, V⟩·P u, so only the raw
    formula V is differentiated; this holds whether or not V is tangent
    off the sphere.
    """
    if not V.tangent:
        raise TangencyError("covariant derivative requires a tangent-flagged field")
    v, dv = _raw_dual(V, x, u)
    return proj_np(x, dv) - inner(x, v)[..., None] * proj_np(x, u)


def cov_deriv(V: AmbientVectorField, u: TangentVector) -> TangentVector:
    """Levi-Civita connection ∇_u V by the Gauss formula."""
    return TangentVector(u.base, cov_deriv_batch(V, u.base.coords, u.vec))


def lie_bracket_batch(V: AmbientVectorField, W: AmbientVectorField,
                      x: np.ndarray) -> np.ndarray:
    """[V, W] at the points x, from the ambient extensions (batched)."""
    vp = value(projected_eval(V, x))
    wp = value(projected_eval(W, x))
    dw = value(directional(lambda y: projected_eval(W, y), x, vp))
    dv = value(directional(lambda y: projected_eval(V, y), x, wp))
    return dw - dv


def lie_bracket(V: AmbientVectorField, W: AmbientVectorField,
                p: SpherePoint) -> TangentVector:
    """[V, W] at p, computed from the ambient extensions."""
    if not (V.tangent and W.tangent):
        raise TangencyError("lie_bracket requires tangent-flagged fields")
    return TangentVector(p, lie_bracket_batch(V, W, p.coords))


def _raw_jacobian(field: AmbientVectorField, x: np.ndarray):
    """x as floats, V(x) and the Jacobian rows of the raw formula V =
    ``field.eval`` from one dual evaluation: rows[j, ..., i] = ∂_j V_i, the
    direction axis leading.  V is broadcast to the shape of x and the rows
    only against the axis directions, so rows that do not depend on x (any
    linear or constant formula) keep size-1 batch axes."""
    x = np.asarray(x, dtype=float)
    dim = x.shape[-1]
    d = ad.axis_directions(x, dim)
    v, rows = _raw_dual(field, x, d)
    v = np.broadcast_to(v, (dim,) + x.shape)[0]
    return x, v, np.broadcast_to(rows, np.broadcast_shapes(np.shape(rows), d.shape))


def shape_matrix(field: AmbientVectorField, x: np.ndarray) -> np.ndarray:
    """S = P·J·P − ⟨x, V⟩·P at the points x, shape (..., m+1, m+1), so
    that u ↦ S u is u ↦ ∇_u V on T_x.

    J is the ambient Jacobian of the raw formula V = ``field.eval`` and
    P = I − x xᵀ.  This is P·J_F·P for the projected field F = P·V (the
    Gauss formula) in closed form: P·D_u F = P·D_u V − ⟨x, V⟩·P u on the
    unit sphere, for tangent and non-tangent raw formulas alike.
    """
    x, v, rows = _raw_jacobian(field, x)
    jac = np.moveaxis(np.broadcast_to(rows, (x.shape[-1],) + x.shape), 0, -1)
    proj = projector(x)
    return proj @ jac @ proj - inner(x, v)[..., None, None] * proj


def shape_form(field: AmbientVectorField, x: np.ndarray, u: np.ndarray,
               v: np.ndarray) -> np.ndarray:
    """uᵀ S v = g(u, ∇_v V) for tangent u, v (..., m+1) at the points x
    (broadcast), S of :func:`shape_matrix`: uᵀ J v − ⟨x, V⟩⟨u, v⟩, J the
    raw Jacobian, from one dual evaluation along v and no matrix."""
    val, dv = _raw_dual(field, x, v)
    return inner(u, dv) - inner(x, val) * inner(u, v)


def _cdot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """⟨p, q⟩ over the leading (coordinate) axis of (m+1, B) arrays."""
    return np.einsum("ip,ip->p", p, q)


def _read_shape(field: AmbientVectorField, x: np.ndarray, reading: str) -> np.ndarray:
    """One reading of the shape matrix S = P·J·P − k·P at the points x,
    shape (...), from invariants of the raw Jacobian J of V =
    ``field.eval`` and without forming P or S.  With a = Jx, b = Jᵀx,
    c = xᵀJx and k = ⟨x, V⟩, expanding S at unit x gives

        "trace":    tr S = tr J − c − k(m+1 − |x|²),
        "norm_sq":  ‖S‖²_F = ‖J‖²_F − |a|² − |b|² + c² − 2k(tr J − c) + k²(m+1 − |x|²),

    at O((m+1)²) per point instead of two (m+1)×(m+1) products, and
    "unit" reads ‖S_N‖²_F for N = P·V/|P·V| together with |P·V|
    (:func:`unit_shape_norm_sq`).

    The points are flattened to one C-ordered (B, m+1) array for the one
    dual evaluation, and its results are transposed once to (m+1, B):
    every per-point quantity is then a row of B values, and each inner
    product one contraction over the short leading axis, which numpy
    runs two to five times faster than a contraction over the last axis
    of (B, m+1) rows.  A J that does not depend on x (a linear formula,
    as every Reeb field, or a constant one) stays one matrix, applied by
    one matmul to all the points, and ‖J‖²_F and tr J are scalars;
    otherwise J is held as (m+1, m+1, B).  One point is read as a batch
    of two copies of it, so that it takes the branch and the rounding of
    any batch: as one column, numpy would contract its coordinate axis
    contiguously, in another order.
    """
    lead, dim = np.shape(x)[:-1], np.shape(x)[-1]
    x = np.ascontiguousarray(x, dtype=float).reshape(-1, dim)
    x, v, rows = _raw_jacobian(field, np.repeat(x, 2, axis=0) if len(x) == 1 else x)
    xt, vt = np.ascontiguousarray(x.T), np.ascontiguousarray(v.T)
    if rows.shape[1] == 1:
        jt = rows.reshape(dim, dim)                     # jt[j, i] = J[i, j]

        def jt_apply(y):
            return jt @ y

        a = jt.T @ xt
        frob = np.einsum("ji,ji->", jt, jt)
        trace = np.trace(jt)
    else:
        jac = np.ascontiguousarray(rows.transpose(0, 2, 1))   # jac[j, i, p] = J[i, j] at p

        def jt_apply(y):
            return np.einsum("jip,ip->jp", jac, y)

        a = np.einsum("jip,jp->ip", jac, xt)
        frob = np.einsum("jip,jip->p", jac, jac)
        trace = np.einsum("iip->p", jac)
    k, c = _cdot(vt, xt), _cdot(a, xt)
    if reading == "trace":
        out = trace - c - k * (dim - _cdot(xt, xt))
    else:
        b = jt_apply(xt)
        out = (frob - _cdot(a, a) - _cdot(b, b) + c * c - 2.0 * k * (trace - c)
               + k * k * (dim - _cdot(xt, xt)))
    if reading != "unit":
        return out[:int(np.prod(lead))].reshape(lead)
    g = vt - k * xt                                     # P·V at unit x
    r_sq = _cdot(g, g)
    r = np.sqrt(r_sq)
    n = g / r
    w = jt_apply(n)
    stn = w - _cdot(w, xt) * xt - k * n
    out = (out - _cdot(stn, stn)) / r_sq
    return tuple(q[:int(np.prod(lead))].reshape(lead) for q in (out, r))


def shape_trace(field: AmbientVectorField, x: np.ndarray) -> np.ndarray:
    """tr S for the shape matrix S of :func:`shape_matrix` at the points x,
    shape (...), from the invariants of the raw Jacobian (:func:`_read_shape`).
    For an ambient gradient V of f, −tr S is the Laplacian of f; for a
    unit field N, −tr S is the mean curvature of N^⊥."""
    return _read_shape(field, x, "trace")


def shape_norm_sq(field: AmbientVectorField, x: np.ndarray) -> np.ndarray:
    """‖S‖²_F for the shape matrix S of :func:`shape_matrix` at the points
    x, shape (...), from the invariants of the raw Jacobian
    (:func:`_read_shape`)."""
    return _read_shape(field, x, "norm_sq")


def unit_shape_norm_sq(field: AmbientVectorField, x: np.ndarray) -> tuple:
    """‖S_N‖²_F for the unit field N = P·V/|P·V| at the points x, and
    r = |P·V| there, each of shape (...), from the same one raw Jacobian
    of V as :func:`shape_norm_sq`.

    With S the shape matrix of V, ∇_u N = (I − N Nᵀ)·S u / r, so
    ‖S_N‖²_F = (‖S‖²_F − |Sᵀ N|²)/r², and Sᵀ N = P·(Jᵀ N) − k·N for
    tangent N.  Neither N nor its Jacobian goes through the dual engine;
    for a gradient V = ∇f, S is the Hessian of f and symmetric, and r is
    ‖∇f‖, so the caller can tell where N is defined without evaluating V
    again.  Where r = 0 the norm is not finite.
    """
    return _read_shape(field, x, "unit")


# ---------------------------------------------------------------------------
# curvature

def _second_cov_field(W: AmbientVectorField, V: AmbientVectorField) -> Callable:
    """Ambient formula for x ↦ P(x)·(∇_{V(x)} W), dual-evaluable."""

    def evaluator(x):
        dW = directional(lambda y: projected_eval(W, y), x, projected_eval(V, x))
        return proj_tangent(x, dW)

    return evaluator


def curvature_numeric_batch(x: np.ndarray, u: np.ndarray, v: np.ndarray,
                            w: np.ndarray) -> np.ndarray:
    """R(u,v)w at the points x from nested covariant derivatives of the
    projected-constant extensions (batched).  ∇_u∇_v w and ∇_v∇_u w are one
    nested evaluation: the constant field on the stack [v, u] differentiated
    along the stack [u, v], each row rounded as a pass of its own would be."""
    U, V, W = constant_field(u), constant_field(v), constant_field(w)
    vu = np.stack(np.broadcast_arrays(v, u))
    t1, t2 = value(directional(_second_cov_field(W, constant_field(vu)), x, vu[::-1]))
    bracket = lie_bracket_batch(U, V, x)
    t3 = value(directional(lambda y: projected_eval(W, y), x, bracket))
    return proj_np(x, t1 - t2 - t3)


def curvature_numeric(u: TangentVector, v: TangentVector,
                      w: TangentVector) -> TangentVector:
    """R(u,v)w from nested covariant derivatives of extension fields."""
    _require_same_base(u.base, v, w)
    p = u.base
    return TangentVector(p, curvature_numeric_batch(p.coords, u.vec, v.vec, w.vec))


# ---------------------------------------------------------------------------
# frames

def seeds_span(x: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Where the seeds (..., k, m+1), projected to T_x, are independent:
    their Gram determinant is at least SEED_GRAM_TOL.  This is the rank
    test of :func:`frame_batch`, row by row the same arithmetic, so a
    frame seeded where it holds is built and one seeded elsewhere raises."""
    t = proj_np(x[..., None, :], seeds)
    return np.abs(np.linalg.det(t @ np.swapaxes(t, -1, -2))) >= SEED_GRAM_TOL


def frame_batch(x: np.ndarray, seeds: Optional[np.ndarray] = None) -> np.ndarray:
    """Orthonormal tangent frames at the points x, shape (..., m, m+1),
    whose leading k rows are the Gram–Schmidt directions of the seeds
    (..., k, m+1) projected to T_x.

    The frame is rows 1..m of Qᵀ for the Householder QR factorization
    [x | seeds] = Q·R (Householder, J. ACM 5, 1958; Golub & Van Loan,
    *Matrix Computations*, §5.1–5.2): k+1 reflectors H_j = I − 2vvᵀ/vᵀv,
    applied to all the points at once, so Qᵀ = H_k ⋯ H_0.  Column 0 of Q
    is ±x, so the other columns are tangent; column j ≤ k spans the
    residue of seed j against x and the earlier seeds, and its row is
    flipped by the sign of R_jj to point the way of that residue.  The
    rest of Q completes the frame.  Every row is orthonormal and tangent
    to a few units of rounding, whatever the point: no candidate is
    dropped and nothing is divided by a short residue.  Seeds that fail
    :func:`seeds_span` anywhere raise :class:`DegenerateInputError`.
    """
    x = np.asarray(x, dtype=float)
    lead, dim = x.shape[:-1], x.shape[-1]
    pts = x.reshape(-1, dim)
    if seeds is None:
        seeds = np.zeros((0, dim))
    k = np.shape(seeds)[-2]
    seeds = np.broadcast_to(seeds, lead + (k, dim)).reshape(len(pts), k, dim)
    if k and not seeds_span(pts, seeds).all():
        raise DegenerateInputError("seed vectors are rank deficient")
    cols = np.concatenate([pts[:, None, :], seeds], axis=1)     # columns of [x | seeds]
    reflectors, signs = [], []
    for j in range(k + 1):
        v = cols[:, j].copy()
        v[:, :j] = 0.0                          # the part of column j that H_j reduces
        s = np.where(v[:, j] >= 0.0, 1.0, -1.0)
        v[:, j] += s * np.sqrt(inner(v, v))     # H_j maps that part to −s·|part|·e_j
        c = 2.0 / inner(v, v)
        rest = cols[:, j + 1:]
        cols[:, j + 1:] = rest - (c[:, None] * apply(rest, v))[..., None] * v[:, None, :]
        reflectors.append((v, c))
        signs.append(-s)                        # sign of R_jj
    v, c = reflectors[-1]
    frames = np.eye(dim)[1:] - (c[:, None] * v[:, 1:])[..., None] * v[:, None, :]
    for v, c in reversed(reflectors[:-1]):
        frames -= (c[:, None] * apply(frames, v))[..., None] * v[:, None, :]
    if k:
        frames[:, :k] *= np.stack(signs[1:], axis=1)[..., None]
    return frames.reshape(lead + (dim - 1, dim))


def gram_schmidt_frame(p: SpherePoint,
                       seeds: Sequence[TangentVector] = ()) -> Frame:
    """Orthonormal tangent frame whose leading vectors are the Gram–Schmidt
    directions of the seeds: one row of :func:`frame_batch`, which builds
    it from Householder reflectors."""
    _require_same_base(p, *seeds)
    seed_arr = np.array([s.vec for s in seeds]).reshape(len(seeds), p.ambient_dim)
    rows = frame_batch(p.coords, seed_arr)
    return Frame(p, tuple(TangentVector(p, b) for b in rows))


def tangent_basis(p: SpherePoint) -> Frame:
    return gram_schmidt_frame(p)


def inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """⟨a, b⟩ over the last axis, leading axes broadcast.

    Stacked matmul rounds each row exactly as the one-row ``a @ b`` does,
    so batched kernels reproduce the per-point arithmetic.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def apply(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """mat·v for vectors v (..., n), rounded as the one-row ``mat @ v``."""
    return (mat @ v[..., :, None])[..., 0]


def projector(x: np.ndarray) -> np.ndarray:
    """P = I − x xᵀ at the points x, (..., m+1, m+1), rows P·e_a = P's columns."""
    return np.eye(x.shape[-1]) - x[..., :, None] * x[..., None, :]


def proj_np(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Tangential projection v − ⟨v,x⟩x at unit points x (leading axes broadcast)."""
    return v - inner(v, x)[..., None] * x


# ---------------------------------------------------------------------------
# sampling

def sample_blocks(count: int, seed: int, ambient_dim: int, size: int,
                  exclusion: Optional[Callable[[np.ndarray], np.ndarray]] = None):
    """Deterministic uniform points (normalized Gaussians), optionally
    filtered, as consecutive (size, ambient_dim) blocks, the last one
    possibly shorter: the package's one stream of sample points, drawn as
    the blocks are taken, so that about one block is held.

    ``exclusion`` maps points (B, ambient_dim) to a mask that is True for
    points to reject.  Draws come in batches of max(remaining, 64) rows,
    each drawn in pieces of at most ``size`` rows, and are accepted in
    draw order; chunked ``standard_normal`` draws are bitwise the one
    draw, so the rows do not depend on ``size``.  Raises
    :class:`SamplingExhaustedError` when, at the end of a batch, more
    than 99% of draws have been rejected, and ``ValueError`` on a count
    below 1 or a negative seed.

    A batch of more than one piece, in a process that may run on two
    CPUs or more, draws and normalizes each next piece on a worker thread
    (:class:`_DrawAhead`) while the exclusion mask and the caller work on
    the piece before: the normal fill and numpy's loops release the GIL.
    One piece at most is drawn ahead, the exclusion runs on the calling
    thread, a failed draw raises in the caller, and the worker is joined
    when the stream ends or is closed.  The rows are the same either way.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    held, n_held, accepted, drawn = [], 0, 0, 0     # held: accepted rows not yet yielded
    max_draws = max(10_000, 200 * count)
    ahead = None            # started by the first batch of several pieces
    try:
        while accepted < count:
            batch = max(count - accepted, 64)
            if ahead is None and batch > size and _cpu_count() >= 2:
                ahead = _DrawAhead(rng, ambient_dim)
            asked = False
            while batch and accepted < count:
                g, keep = ahead.take() if asked else _draw(rng, min(size, batch), ambient_dim)
                batch -= len(g)
                asked = ahead is not None and batch > 0
                if asked:
                    ahead.ask(min(size, batch))
                if exclusion is not None:
                    keep[keep] = ~np.asarray(exclusion(g[keep]), dtype=bool)
                rows = np.flatnonzero(keep)[:count - accepted]
                # Rows are examined in order up to the last one accepted.
                drawn += len(g) if accepted + len(rows) < count else int(rows[-1]) + 1
                accepted += len(rows)
                held.append(g if len(rows) == len(g) else g[rows])
                n_held += len(rows)
                if n_held >= size:
                    # a whole piece that is a whole block is yielded as drawn
                    x = held[0] if len(held) == 1 else np.concatenate(held)
                    n_held -= size
                    held = [x[size:]] if n_held else []
                    yield x[:size]
            if drawn >= max_draws and accepted < max(1, drawn // 100):
                raise SamplingExhaustedError(
                    f"exclusion rejected {drawn - accepted} of {drawn} draws")
        if n_held:
            yield held[0] if len(held) == 1 else np.concatenate(held)
    finally:
        if ahead is not None:
            ahead.close()


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _draw(rng: np.random.Generator, n: int, ambient_dim: int) -> tuple:
    """n normal rows (n, ambient_dim) of ``rng``, normalized in place by
    :func:`_normalize_rows`, and the mask of the rows kept."""
    g = rng.standard_normal((n, ambient_dim))
    return g, _normalize_rows(g)


class _DrawAhead:
    """A worker thread that draws the next piece of a generator while its
    caller works on the one before.  ``ask(n)`` starts :func:`_draw` of n
    rows and ``take()`` waits for it and returns it, or raises what it
    raised; the caller asks only once it has taken the piece before, so
    one thread uses the generator at a time.  ``close()`` lets a piece
    asked for finish and joins the thread.  Two locks pass the turn, each
    released by the other thread: ``_asked`` once ``_n`` holds a size (or
    None, to stop), ``_ready`` once ``_out`` holds the piece; ``_n`` stays
    set until the piece is taken."""

    def __init__(self, rng: np.random.Generator, ambient_dim: int):
        self._asked, self._ready = threading.Lock(), threading.Lock()
        self._asked.acquire()
        self._ready.acquire()
        self._n, self._out = None, None
        # a daemon, so that a stream left open does not keep the process alive
        self._thread = threading.Thread(target=self._work, args=(rng, ambient_dim),
                                        name="kontact-draw-ahead", daemon=True)
        self._thread.start()

    def _work(self, rng: np.random.Generator, ambient_dim: int) -> None:
        while True:
            self._asked.acquire()
            if self._n is None:
                return
            try:
                self._out = _draw(rng, self._n, ambient_dim)
            except Exception as exc:        # raised again in the caller by take()
                self._out = exc
            self._ready.release()

    def ask(self, n: int) -> None:
        self._n = n
        self._asked.release()

    def take(self) -> tuple:
        self._ready.acquire()
        out, self._n, self._out = self._out, None, None
        if isinstance(out, Exception):
            raise out
        return out

    def close(self) -> None:
        if self._n is not None:         # a piece asked for and not taken
            self._ready.acquire()
        self._n = self._out = None
        self._asked.release()
        self._thread.join()


def sample_coords(count: int, seed: int, ambient_dim: int,
                  exclusion: Optional[Callable[[np.ndarray], np.ndarray]] = None
                  ) -> np.ndarray:
    """The points of :func:`sample_blocks` as one (count, ambient_dim)
    array: one block, each batch drawn as one piece."""
    return np.concatenate(list(sample_blocks(count, seed, ambient_dim, max(count, 64),
                                             exclusion)))


def _normalize_rows(g: np.ndarray) -> np.ndarray:
    """Divide the rows of the normal draws g (B, m+1) by their norms, in
    place; returns the mask of the rows kept, those of nonzero norm."""
    norms = np.sqrt(np.add.reduce(g * g, axis=1))   # np.linalg.norm's sum
    keep = norms != 0.0
    g /= np.where(keep, norms, 1.0)[:, None]
    return keep


def sample_points(count: int, seed: int, ambient_dim: int,
                  exclusion: Optional[Callable[[SpherePoint], bool]] = None
                  ) -> list[SpherePoint]:
    """The points of :func:`sample_coords` as :class:`SpherePoint` objects;
    ``exclusion`` returns True for a point to reject."""
    mask = None if exclusion is None else (
        lambda x: np.array([bool(exclusion(SpherePoint(r))) for r in x], dtype=bool))
    return [SpherePoint(r) for r in sample_coords(count, seed, ambient_dim, mask)]


def as_points(points: ArrayLike, ambient_dim: Optional[int] = None) -> np.ndarray:
    """Points as an (N, ambient_dim) float array of unit rows, from such an
    array or a sequence of :class:`SpherePoint`; ``ambient_dim`` None
    allows any width.  Raises :class:`GeometryError` on another shape or
    on a row whose norm is not 1 within POINT_TOL."""
    x = np.asarray(points, dtype=float)
    if x.shape == (0,):
        x = x.reshape(0, ambient_dim or 0)
    if x.ndim != 2 or (ambient_dim is not None and x.shape[1] != ambient_dim):
        raise GeometryError(
            f"points of shape {x.shape} are not (N, {ambient_dim or 'm+1'})")
    r = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(~(np.abs(r - 1.0) <= POINT_TOL))
    if bad.size:
        raise GeometryError(
            f"point {bad[0]} has norm {r[bad[0]]}, not 1 within {POINT_TOL}")
    return x


def as_field_points(points: ArrayLike, field_eval: Callable) -> np.ndarray:
    """:func:`as_points` for a check of a vector field: ``field_eval`` at
    the first row must also evaluate, to a vector as wide as the row.
    Raises :class:`GeometryError` otherwise, as on rows of another width
    than the field's."""
    x = as_points(points)
    try:
        with np.errstate(all="ignore"):     # only the shape is wanted
            out = np.shape(value(field_eval(x[:1])))
    except ValueError as exc:
        raise GeometryError(
            f"points of width {x.shape[1]} do not fit the field: {exc}") from None
    if out[-1:] != x.shape[1:]:
        raise GeometryError(
            f"points of width {x.shape[1]} give field values of shape {out}")
    return x


def random_tangent_batch(x: np.ndarray, rng: np.random.Generator,
                         shape: tuple) -> np.ndarray:
    """Unit tangent directions, shape (N,) + shape + (m+1,), at the N points x.

    One normal draw for all of them, in point order and then in the
    order of ``shape``, each projected to T_x and normalized.  A draw whose
    tangential part is shorter than 1e-8 is redrawn where it stands; for
    m ≥ 3 that has probability below 1e-20 per draw.
    """
    base = x.reshape((x.shape[0],) + (1,) * len(shape) + (x.shape[-1],))
    v = proj_np(base, rng.standard_normal((x.shape[0],) + tuple(shape) + (x.shape[-1],)))
    r = np.sqrt(inner(v, v))
    while np.any(r < 1e-8):
        bad = np.nonzero(r < 1e-8)
        v[bad] = proj_np(np.broadcast_to(base, v.shape)[bad],
                         rng.standard_normal((len(bad[0]), x.shape[-1])))
        r = np.sqrt(inner(v, v))
    return v / r[..., None]


def blocks(count: int, size: int) -> list:
    """Slices of at most ``size`` consecutive points covering range(count)."""
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


class Block:
    """The points ``x`` (B, m+1) of a block of a sweep, their positions
    ``index`` in it, and what its checks share: ``of(fn, *args)`` is
    ``fn(*args, x)``, computed once.  ``where(mask, *args)`` is the block
    of the rows where ``mask(block, *args)`` holds, built once per mask;
    its ``of`` computes at those rows only, and its ``full(fn, *args)``
    takes those rows of ``fn`` at every point of the enclosing block.
    ``tangents(seed, shape)`` is :func:`random_tangent_batch` at x, drawn
    once, from the generator seeded by ``seed`` that ``streams`` (the
    sweep's table) keeps for this point set, the block or its sub-block
    of one mask, and this shape: each such stream runs on block by block
    in point order, and the checks that name it share each block's draw."""

    def __init__(self, x: np.ndarray, index: np.ndarray, streams: dict, key: tuple = (),
                 parent: Optional["Block"] = None, rows: Optional[np.ndarray] = None):
        self.x, self.index, self._streams, self._key = x, index, streams, key
        self._parent, self._rows, self._kept = parent, rows, {}

    def of(self, fn: Callable, *args):
        key = (fn,) + args
        if key not in self._kept:
            self._kept[key] = fn(*args, self.x)
        return self._kept[key]

    def tangents(self, seed: int, shape: tuple) -> np.ndarray:
        key = ("tangents", seed, shape)
        if key not in self._kept:
            stream = (self._key, seed, shape)
            if stream not in self._streams:
                self._streams[stream] = np.random.default_rng(seed)
            self._kept[key] = random_tangent_batch(self.x, self._streams[stream], shape)
        return self._kept[key]

    def full(self, fn: Callable, *args):
        if self._parent is None:
            return self.of(fn, *args)
        return self._parent.of(fn, *args)[self._rows]

    def where(self, mask: Callable, *args) -> "Block":
        key = ("where", mask) + args
        if key not in self._kept:
            keep = mask(self, *args)
            # weakly, so no cycle keeps a block's arrays past its sweep step
            self._kept[key] = Block(self.x[keep], self.index[keep], self._streams,
                                    self._key + (key,), weakref.proxy(self), keep)
        return self._kept[key]


class Check:
    """One check of a sweep: the name and default tolerance of its report,
    and the running count, maximum and sum of its absolute residuals.

    ``kernel`` maps a :class:`Block` to the residuals of its points; with
    ``keep``, (mask, *args), it gets ``block.where(*keep)`` instead and the
    points left out count as skipped.  ``before``, (fn, *args), is a
    precondition called once per sweep, however many checks name it.
    The sum runs left to right across blocks, not pairwise as ``np.mean``
    does, so a mean keeps its digits whatever the blocks."""

    def __init__(self, name: str, tol: float, kernel: Callable[[Block], ArrayLike],
                 provenance: str | Callable[[], str] = "", keep: tuple = (),
                 before: tuple = ()):
        self.name, self.tol, self.kernel = name, tol, kernel
        self.provenance, self.keep, self.before = provenance, keep, before
        self.count, self.skipped, self.max, self.total = 0, 0, 0.0, 0.0

    def add(self, residuals: ArrayLike, skipped: int) -> None:
        vals = np.abs(np.asarray(residuals, dtype=float)).ravel()
        self.skipped += skipped
        if vals.size:
            self.count += vals.size
            self.max = np.maximum(self.max, np.max(vals))
            self.total = np.add.accumulate(np.append(self.total, vals))[-1]

    def report(self, tol: Optional[float] = None) -> ResidualReport:
        """The report of the residuals so far, gated at ``tol`` or the default."""
        return group_report(self.name, [self], self.provenance, tol)


def group_report(name: str, checks: Sequence[Check], provenance: str | Callable[[], str],
                 tol: Optional[float] = None) -> ResidualReport:
    """One report of the residuals of ``checks`` so far: counts summed, the
    largest residual (NaN if any check's is), the mean of every residual,
    gated at ``tol`` or, if None, the tightest default among the checks."""
    count = sum(c.count for c in checks)
    mx = float(np.max([c.max for c in checks]))
    tol = float(min(c.tol for c in checks) if tol is None else tol)
    return ResidualReport(
        check_name=name, count=count, skipped=sum(c.skipped for c in checks),
        max=mx, mean=float(sum(c.total for c in checks)) / count if count else 0.0,
        tolerance=tol, passed=bool(mx <= tol),
        provenance=provenance() if callable(provenance) else provenance)


def sweep(checks: Sequence[Check], point_blocks: Iterable[np.ndarray]) -> None:
    """Every check over the points in one pass: one :class:`Block` per
    array (B, m+1) of ``point_blocks``, taken in turn and handed to each
    check, its points indexed by their position in the whole stream.  The
    sweep holds the one table of tangent-direction generators its blocks
    draw from (:meth:`Block.tangents`), so no check holds its own."""
    for fn, *args in dict.fromkeys(c.before for c in checks if c.before):
        fn(*args)
    done, streams = 0, {}
    for x in point_blocks:
        block = Block(x, np.arange(done, done + len(x)), streams)
        done += len(x)
        for c in checks:
            rows = block.where(*c.keep) if c.keep else block
            c.add(c.kernel(rows) if len(rows.x) else [], len(block.x) - len(rows.x))


_MISSING = object()


def checker(points_of: Callable = lambda s, points: as_points(points, s.ambient_dim)) -> Callable:
    """Decorator that makes a check's definition ``build(subject, *args,
    **options) -> Check`` its public checker ``check(subject, *args,
    points, tol=None, **options)``: the check swept alone over the points
    validated by ``points_of(subject, points)`` (by default, rows as wide
    as the subject's ambient space) and cut into blocks of BLOCK points,
    reported at ``tol`` or, if None, at its default tolerance.  ``points``
    is the last positional argument or a keyword one.  ``check.build`` is
    the definition."""
    def decorate(build: Callable[..., Check]) -> Callable[..., ResidualReport]:
        def check(subject, *args, points=_MISSING, tol: Optional[float] = None,
                  **options) -> ResidualReport:
            if points is _MISSING:
                if not args:
                    raise TypeError(f"{build.__name__}() missing required argument: 'points'")
                *args, points = args
            one = build(subject, *args, **options)
            x = points_of(subject, points)
            sweep([one], (x[sl] for sl in blocks(len(x), BLOCK)))
            return one.report(tol)

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(check, attr, getattr(build, attr))
        check.build = build
        return check

    return decorate


def sphere_volume(m: int) -> float:
    """Riemannian volume of the unit sphere S^m."""
    from math import gamma, pi
    return 2.0 * pi ** ((m + 1) / 2.0) / gamma((m + 1) / 2.0)
