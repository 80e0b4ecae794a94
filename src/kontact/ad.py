"""Forward-mode differentiation for ambient-space formulas.

Every geometric field in this package is an ordinary function of an
ambient point, written with the vector helpers below (``dot``, ``matvec``,
``sv``, ``proj_tangent`` ...).  Feeding such a function a :class:`Dual`
whose perturbation encodes a direction returns the directional derivative
alongside the value, to machine precision.  Duals nest, so second and
third derivatives come from the same code paths.  The test suite checks
them against central finite differences, implemented there without
touching the dual machinery.

Payloads (``val``/``eps``) are floats, numpy arrays, or further Duals.
Leading axes broadcast, and all contractions act on the last axis, so the
same field code evaluates one point or a batch of points.

:func:`jacobian_rows` is vector forward mode (Griewank & Walther,
*Evaluating Derivatives*, 2008): the m+1 ambient directions ride on a
leading axis of the eps leaves only, while the val leaves keep the
point's shape.  numpy's right-aligned broadcasting keeps the two apart,
so each value inside a field is computed once per Jacobian, nested
Jacobians included, rather than once per direction.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

Payload = Union[float, np.ndarray, "Dual"]


class Dual:
    """val + eps·t with t² = 0; payloads may themselves be Duals."""

    __slots__ = ("val", "eps")

    # Keep numpy from absorbing Duals into object arrays: binary ufuncs
    # with a Dual operand defer to the reflected methods below.
    __array_ufunc__ = None

    def __init__(self, val: Payload, eps: Payload):
        self.val = val
        self.eps = eps

    def __repr__(self) -> str:
        return f"Dual({self.val!r}, {self.eps!r})"

    def __add__(self, other):
        if type(other) is Dual:
            return Dual(self.val + other.val, self.eps + other.eps)
        return Dual(self.val + other, self.eps)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Dual:
            return Dual(self.val - other.val, self.eps - other.eps)
        return Dual(self.val - other, self.eps)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.eps)

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __mul__(self, other):
        if type(other) is Dual:
            return Dual(self.val * other.val,
                        self.val * other.eps + self.eps * other.val)
        return Dual(self.val * other, self.eps * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Dual:
            q = self.val / other.val
            return Dual(q, (self.eps - q * other.eps) / other.val)
        return Dual(self.val / other, self.eps / other)

    def __rtruediv__(self, other):
        q = other / self.val
        return Dual(q, -(q / self.val) * self.eps)

    def __pow__(self, exponent: float):
        return Dual(self.val ** exponent,
                    (exponent * self.val ** (exponent - 1.0)) * self.eps)

    def __getitem__(self, index):
        return Dual(self.val[index], self.eps[index])


def depth(x: Payload) -> int:
    d = 0
    while type(x) is Dual:
        d += 1
        x = x.val
    return d


def value(x: Payload):
    """Strip all dual structure, returning the underlying float/array."""
    while type(x) is Dual:
        x = x.val
    return x


def _zero(x: Payload):
    if type(x) is Dual:
        return Dual(_zero(x.val), _zero(x.eps))
    if isinstance(x, np.ndarray):
        return np.zeros_like(x)
    return 0.0


def lift(c: Payload, like: Payload) -> Payload:
    """Embed ``c`` as a constant at the dual depth of ``like``."""
    if type(like) is not Dual:
        return c
    inner = lift(c, like.val)
    return Dual(inner, _zero(inner))


def make_dual(x: Payload, d: Payload) -> Dual:
    """Pair a point with a perturbation direction of matching depth."""
    if depth(d) < depth(x):
        d = lift(d, x)
    return Dual(x, d)


def parts(out: Payload, d: Payload) -> tuple:
    """The value and the derivative of ``out``, a formula's output at a
    point fed the directions ``d``.  An output with no dual part is
    constant: it differentiates to zeros shaped like ``d``, leaf by leaf."""
    if type(out) is Dual:
        return out.val, out.eps
    return out, _zero(d)


def directional(f: Callable, x: Payload, d: Payload):
    """Directional derivative of ``f`` at ``x`` along ``d``.

    Exact (no truncation error) and composable: ``x`` and ``d`` may carry
    dual structure themselves, which is how second derivatives arise.
    """
    y = make_dual(x, d)
    return parts(f(y), y.eps)[1]


# ---------------------------------------------------------------------------
# vector helpers (last-axis semantics, dual-aware)

def dot(x, y):
    """Inner product over the last axis.

    A self product ``dot(x, x)``, as :func:`norm`, :func:`unit` and
    :func:`proj_tangent` take it, differentiates as 2⟨v, e⟩: one
    contraction where the product rule takes two identical ones, at every
    nesting level, and bitwise the same, since ⟨e, v⟩ = ⟨v, e⟩ and
    d + d = 2·d exactly.
    """
    if type(x) is Dual:
        if y is x:
            return Dual(dot(x.val, x.val), 2.0 * dot(x.val, x.eps))
        if type(y) is Dual:
            return Dual(dot(x.val, y.val), dot(x.val, y.eps) + dot(x.eps, y.val))
        return Dual(dot(x.val, y), dot(x.eps, y))
    if type(y) is Dual:
        return Dual(dot(x, y.val), dot(x, y.eps))
    return np.einsum("...i,...i->...", x, y)


def matvec(mat: np.ndarray, x):
    """Apply a constant matrix to a (possibly dual, possibly batched) vector."""
    if type(x) is Dual:
        return Dual(matvec(mat, x.val), matvec(mat, x.eps))
    return x @ mat.T


def sv(s, v):
    """Scalar field times vector field (broadcasts batched scalars)."""
    if type(s) is Dual:
        if type(v) is Dual:
            return Dual(sv(s.val, v.val), sv(s.val, v.eps) + sv(s.eps, v.val))
        return Dual(sv(s.val, v), sv(s.eps, v))
    if type(v) is Dual:
        return Dual(sv(s, v.val), sv(s, v.eps))
    if np.ndim(s) > 0:
        return s[..., None] * v
    return s * v


def sqrt(x):
    if type(x) is Dual:
        return x ** 0.5
    return np.sqrt(x)


def norm(x):
    return sqrt(dot(x, x))


def unit(x):
    return sv(1.0 / norm(x), x)


def proj_tangent(x, v):
    """Component of ``v`` orthogonal to the position vector ``x``."""
    return v - sv(dot(v, x) / dot(x, x), x)


def _batch_shape(x: Payload) -> tuple:
    """Common broadcast shape of every leaf of ``x``."""
    if type(x) is Dual:
        return np.broadcast_shapes(_batch_shape(x.val), _batch_shape(x.eps))
    return np.shape(x)


def _leafwise(fn: Callable, x: Payload) -> Payload:
    """Apply ``fn`` to every leaf of ``x``, keeping the dual structure."""
    if type(x) is Dual:
        return Dual(_leafwise(fn, x.val), _leafwise(fn, x.eps))
    return fn(np.asarray(x, dtype=float))


def jacobian_rows(f: Callable, x: Payload, dim: int) -> Payload:
    """All ambient directional derivatives of ``f`` at once.

    Returns a payload whose leading axis indexes the direction: row i is
    the derivative of ``f`` along ambient axis e_i.  One dual evaluation
    in vector forward mode: ``x`` is passed unbroadcast and the directions
    have shape (dim,) + (1,)*lead + (dim,), one axis more than any leaf of
    ``x``, so the direction axis lands on the eps leaves only.  Values
    inside ``f`` keep the shape of ``x`` and are computed once; every
    returned leaf carries the direction axis in front.  Existing batch
    axes of ``x`` stay distinct from it, also when the val and eps leaves
    of ``x`` differ in rank.

    Nested in another evaluation in vector forward mode (``x`` a Dual
    whose leaves carry direction axes, as inside :func:`second_jet`), the
    directions carry a size-1 axis for every axis of ``x``'s widest leaf.
    Each returned leaf drops those that the leaf of ``f``'s value at the
    same place does not have, so it is that leaf's shape with the
    direction axis in front, as a closed-form derivative would be.
    """
    y = make_dual(x, axis_directions(x, dim))
    val, rows = parts(f(y), y.eps)
    return _unpadded(rows, val)


def _unpadded(rows: Payload, like: Payload) -> Payload:
    """``rows`` with the size-1 axes after the leading (direction) axis
    dropped, leaf by leaf, down to one axis more than the leaf of ``like``
    at the same place."""
    if type(rows) is Dual:
        val, eps = (like.val, like.eps) if type(like) is Dual else (like, like)
        return Dual(_unpadded(rows.val, val), _unpadded(rows.eps, eps))
    shape = np.shape(rows)
    drop = 0
    while drop < len(shape) - 1 - np.ndim(value(like)) and shape[1 + drop] == 1:
        drop += 1
    return np.reshape(rows, shape[:1] + shape[1 + drop:]) if drop else rows


def second_jet(f: Callable, x: Payload, dim: int) -> tuple:
    """``f``, its ambient first and its second derivatives at ``x`` from one
    nested evaluation in vector forward mode.

    Returns (F, rows, second): ``rows`` as :func:`jacobian_rows` returns
    them (rows[a] = ∂_a f), and ``second`` with two direction axes in
    front (second[a, b] = ∂_a∂_b f).  The outer directions ride on one
    axis more than any leaf of ``x``, the inner ones on one axis more
    again, so each value inside ``f`` is computed once and each first
    derivative once per direction.
    """
    outer = make_dual(x, axis_directions(x, dim))
    y = make_dual(outer, axis_directions(outer, dim))
    first, second = parts(f(y), y.eps)
    return parts(first, outer.eps) + (second.eps,)


def axis_directions(x: Payload, dim: int) -> np.ndarray:
    """The ambient axes e_i as directions for vector forward mode at ``x``:
    shape (dim,) + (1,)*lead + (dim,), one axis more than any leaf of
    ``x``, so ``make_dual(x, axis_directions(x, dim))`` carries the
    direction axis on its eps leaves only (see :func:`jacobian_rows`)."""
    lead = len(_batch_shape(x)) - 1
    return np.eye(dim).reshape((dim,) + (1,) * lead + (dim,))


def axis0_to_last(x: Payload) -> Payload:
    """Move the leading (direction) axis of every leaf to the end."""
    return _leafwise(lambda leaf: np.moveaxis(leaf, 0, -1), x)

