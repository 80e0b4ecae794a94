"""Dual-number engine against closed forms and finite differences."""

import numpy as np
import pytest

from kontact import ad

from finite_differences import (
    fd_curve_derivative_5pt,
    fd_directional,
    fd_second_directional,
    great_circle,
)


def scalar_fn(x):
    # f(x) = <x, x>^2 / sqrt(1 + <x, x>)
    s = ad.dot(x, x)
    return s * s / ad.sqrt(1.0 + s)


def vector_fn(x):
    m = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.5, 0.0, -1.0]])
    return ad.sv(ad.dot(x, x), ad.matvec(m, x))


def test_directional_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(3)
        d = rng.standard_normal(3)
        exact = ad.value(ad.directional(scalar_fn, x, d))
        approx = fd_directional(scalar_fn, x, d)
        assert abs(exact - approx) < 1e-8


def test_vector_directional_matches_finite_differences():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(3)
    d = rng.standard_normal(3)
    exact = ad.value(ad.directional(vector_fn, x, d))
    approx = fd_directional(vector_fn, x, d)
    assert np.max(np.abs(exact - approx)) < 1e-7


def test_nested_duals_give_second_derivatives():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal(3)
        d1 = rng.standard_normal(3)
        d2 = rng.standard_normal(3)
        inner = ad.make_dual(x, d1)
        outer = scalar_fn(ad.make_dual(inner, ad.lift(d2, inner)))
        exact = ad.value(outer.eps.eps)
        approx = fd_second_directional(scalar_fn, x, d1, d2)
        assert abs(exact - approx) < 1e-6


def test_second_derivative_symmetry():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4)
    d1 = rng.standard_normal(4)
    d2 = rng.standard_normal(4)

    def cross(a, b):
        inner = ad.make_dual(x, a)
        return ad.value(scalar_fn(ad.make_dual(inner, ad.lift(b, inner))).eps.eps)

    assert abs(cross(d1, d2) - cross(d2, d1)) < 1e-12


def test_third_derivatives_nest():
    # d^3/dt^3 of (x0 + t)^3 at x0: constant 6
    def cubic(x):
        return x[0] * x[0] * x[0]

    x = np.array([1.3, 0.0])
    d = np.array([1.0, 0.0])
    l1 = ad.make_dual(x, d)
    l2 = ad.make_dual(l1, ad.lift(d, l1))
    l3 = ad.make_dual(l2, ad.lift(d, l2))
    out = cubic(l3)
    assert abs(ad.value(out.eps.eps.eps) - 6.0) < 1e-12


def test_division_and_power_rules():
    def f(x):
        return (x[0] ** 2.5 + 2.0) / (1.0 + x[1] * x[0])

    rng = np.random.default_rng(4)
    x = np.abs(rng.standard_normal(2)) + 0.5
    d = rng.standard_normal(2)
    exact = ad.value(ad.directional(f, x, d))
    approx = fd_directional(f, x, d, step=1e-6)
    assert abs(exact - approx) < 1e-6


def test_jacobian_rows_matches_columns():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(3)
    rows = ad.value(ad.jacobian_rows(vector_fn, x, 3))
    for i in range(3):
        col = ad.value(ad.directional(vector_fn, x, np.eye(3)[i]))
        assert np.allclose(rows[i], col, atol=1e-14)


def test_jacobian_rows_respects_existing_batch_axes():
    rng = np.random.default_rng(6)
    batch = rng.standard_normal((5, 3))
    rows = ad.value(ad.jacobian_rows(vector_fn, batch, 3))
    assert rows.shape == (3, 5, 3)
    for k in range(5):
        single = ad.value(ad.jacobian_rows(vector_fn, batch[k], 3))
        assert np.allclose(rows[:, k, :], single, atol=1e-14)


def test_jacobian_rows_nested_inside_dual_context():
    # differentiate x -> J(x)^T w through an outer dual direction
    rng = np.random.default_rng(7)
    x = rng.standard_normal(3)
    u = rng.standard_normal(3)
    w = rng.standard_normal(3)

    def jt_w(y):
        rows = ad.jacobian_rows(vector_fn, y, 3)
        return ad.dot(rows, ad.lift(w, y))

    exact = ad.value(ad.directional(jt_w, x, u))
    approx = fd_directional(lambda y: ad.value(jt_w(y)), x, u)
    assert np.max(np.abs(exact - approx)) < 1e-7


def test_jacobian_rows_aligns_leaves_of_different_rank():
    # an outer dual whose val (5,1,1,3) and eps (4,1,3) have different
    # numbers of axes: the direction axis must line up across both leaves
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 1, 1, 3))
    d = rng.standard_normal((4, 1, 3))
    out = ad.value(ad.directional(lambda y: ad.jacobian_rows(vector_fn, y, 3), x, d))
    assert out.shape == (3, 5, 4, 1, 3)
    eye = np.eye(3)
    for b in range(5):
        for k in range(4):
            for i in range(3):
                ref = ad.value(ad.directional(
                    lambda y: ad.directional(vector_fn, y, eye[i]), x[b, 0, 0], d[k, 0]))
                assert np.max(np.abs(out[i, b, k, 0] - ref)) <= 1e-14


def test_jacobian_rows_computes_each_value_once():
    # vector forward mode: the direction axis rides on the eps leaves, so
    # the field sees the unbroadcast point and its values keep that shape
    seen = []

    def recording(y):
        s = ad.dot(y, y)
        seen.append((np.shape(ad.value(y)), np.shape(ad.value(s))))
        return vector_fn(y)

    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 3))
    rows = ad.jacobian_rows(recording, x, 3)
    assert seen == [((5, 3), (5,))] and rows.shape == (3, 5, 3)

    seen.clear()
    nested = ad.directional(lambda y: ad.jacobian_rows(recording, y, 3),
                            x, rng.standard_normal((5, 3)))
    assert seen == [((5, 3), (5,))] and nested.shape == (3, 5, 3)

    seen.clear()
    hess = ad.jacobian_rows(lambda y: ad.jacobian_rows(recording, y, 3), x, 3)
    assert seen == [((5, 3), (5,))] and hess.shape == (3, 3, 5, 3)


def test_nested_jacobian_rows_on_leaves_of_different_rank():
    # second derivatives of a batch whose val (5,1,1,3) and eps leaves
    # differ in rank, against cross differences
    rng = np.random.default_rng(10)
    x = rng.standard_normal((5, 1, 1, 3))
    d = rng.standard_normal((4, 1, 3))
    eye = np.eye(3)
    # the inner call sees val (5,1,1,3) and eps (3,1,1,1,3)
    hess = ad.jacobian_rows(lambda y: ad.jacobian_rows(scalar_fn, y, 3), x, 3)
    assert hess.shape == (3, 3, 5, 1, 1)
    # the inner call sees val (5,1,1,3) and eps (4,1,3)
    mixed = ad.value(ad.directional(lambda y: ad.jacobian_rows(scalar_fn, y, 3), x, d))
    assert mixed.shape == (3, 5, 4, 1)
    for b in range(5):
        p = x[b, 0, 0]
        for i in range(3):
            for j in range(3):
                ref = fd_second_directional(scalar_fn, p, eye[i], eye[j])
                assert abs(hess[i, j, b, 0, 0] - ref) <= 1e-6
            for k in range(4):
                ref = fd_second_directional(scalar_fn, p, d[k, 0], eye[i])
                assert abs(mixed[i, b, k, 0] - ref) <= 1e-6


def test_dot_leaf_matches_the_summed_product():
    # the contraction leaf against np.sum(x * y, axis=-1) on the broadcast
    # shapes of nu_form, within 4 ulps of the sum of |x_i y_i|
    rng = np.random.default_rng(11)
    x = rng.standard_normal((8, 8, 32, 1, 6, 8))
    y = rng.standard_normal((8, 32, 6, 1, 8))
    out = ad.dot(x, y)
    ref = np.sum(x * y, axis=-1)
    assert out.shape == ref.shape == (8, 8, 32, 6, 6)
    scale = np.sum(np.abs(x * y), axis=-1)
    assert np.all(np.abs(out - ref) <= 4 * np.spacing(scale))


def leaves(x):
    if type(x) is ad.Dual:
        return leaves(x.val) + leaves(x.eps)
    return [np.asarray(x)]


def deep_copy(x):
    """The same payload with no Dual or array shared with ``x``."""
    if type(x) is ad.Dual:
        return ad.Dual(deep_copy(x.val), deep_copy(x.eps))
    return np.array(x, copy=True)


@pytest.mark.parametrize("nested", (False, True), ids=("jacobian", "second_jet"))
def test_self_dot_matches_the_product_rule_bitwise(nested):
    # dot(x, x) takes 2⟨v, e⟩ where the product rule takes ⟨v, e⟩ + ⟨e, v⟩;
    # a deep copy as the second argument takes the product rule throughout
    x = np.random.default_rng(12).standard_normal((33, 6))
    y = ad.make_dual(x, ad.axis_directions(x, 6))
    if nested:
        y = ad.make_dual(y, ad.axis_directions(y, 6))
    v = vector_fn(y[..., :3])
    same, rule = ad.dot(v, v), ad.dot(v, deep_copy(v))
    assert ad.depth(same) == ad.depth(rule) == (2 if nested else 1)
    for a, b in zip(leaves(same), leaves(rule)):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_an_output_with_no_dual_part_differentiates_to_zeros():
    # a formula that ignores the dual point is constant: zeros shaped like
    # the directions it was fed, in every entry point
    c = np.array([1.0, -2.0, 0.5])
    x = np.array([[0.6, 0.0, 0.8], [0.0, 1.0, 0.0]])
    d = np.ones_like(x)
    assert np.array_equal(ad.directional(lambda y: c, x, d), np.zeros_like(d))
    assert np.array_equal(ad.jacobian_rows(lambda y: c, x, 3), np.zeros((3, 3)))
    val, rows, second = ad.second_jet(lambda y: c, x, 3)
    assert val is c and not np.any(rows) and not np.any(second)
    assert np.broadcast_shapes(rows.shape, second.shape[1:], (3, 2, 3)) == (3, 2, 3)


def test_value_and_lift_round_trip():
    x = np.array([1.0, 2.0])
    d = ad.make_dual(x, np.array([0.0, 1.0]))
    lifted = ad.lift(np.array([3.0, 4.0]), d)
    assert ad.depth(lifted) == ad.depth(d)
    assert np.allclose(ad.value(lifted), [3.0, 4.0])
    moved = d + lifted
    assert np.allclose(ad.value(moved.eps), [0.0, 1.0])  # constants carry no eps


def test_great_circle_stays_on_sphere():
    p = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 2.0, 0.0])
    for t in np.linspace(-1.0, 1.0, 9):
        q = great_circle(p, u, t)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-14


def test_five_point_curve_derivative_accuracy():
    p = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])

    def s(x):
        return x[1] ** 3 + np.sin(x[0])

    # d/dt [ sin(t)^3 + sin(cos(t)) ] at 0 = -? derivative: 3 sin^2 cos + cos(cos t)(-sin t) -> 0
    val = fd_curve_derivative_5pt(s, p, u)
    assert abs(val - 0.0) < 1e-10


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
def test_second_jet_matches_nested_jacobian_rows(lead):
    rng = np.random.default_rng(len(lead))
    x = rng.standard_normal(lead + (4,))
    mat = rng.standard_normal((4, 4))

    def f(y):
        scale = ad.sqrt(ad.dot(y, y)) / (1.0 + ad.dot(y, mat[0]) ** 2.0)
        return ad.sv(scale, ad.matvec(mat, y))

    val, rows, second = ad.second_jet(f, x, 4)
    nested = ad.jacobian_rows(lambda y: ad.jacobian_rows(f, y, 4), x, 4)
    assert np.array_equal(val, f(x))
    assert np.array_equal(rows, ad.jacobian_rows(f, x, 4))
    assert np.array_equal(second, nested)
    assert second.shape == (4, 4) + lead + (4,)
    asym = np.max(np.abs(second - np.swapaxes(second, 0, 1)))
    assert asym <= 1e-13 * np.max(np.abs(second))


@pytest.mark.parametrize("lead", [(), (1,), (5,), (2, 3)])
def test_second_jet_nests_jacobian_rows_like_a_closed_form(lead):
    # the dual gradient of a formula, nested in a jet, against the same
    # gradient written out: every leaf has the closed form's shape (no
    # size-1 axes left over from the jet's directions) and its values
    rng = np.random.default_rng(20 + len(lead))
    x = rng.standard_normal(lead + (4,))
    a, b = rng.standard_normal((2, 4))

    def potential(y):
        return ad.dot(y, a) ** 3.0 + ad.dot(y, y) * ad.dot(y, b)

    def closed(y):
        return (ad.sv(3.0 * ad.dot(y, a) ** 2.0, ad.lift(a, y))
                + ad.sv(2.0 * ad.dot(y, b), y) + ad.sv(ad.dot(y, y), ad.lift(b, y)))

    def dual(y):
        return ad.axis0_to_last(ad.jacobian_rows(potential, y, 4))

    for got, want in zip(ad.second_jet(dual, x, 4), ad.second_jet(closed, x, 4)):
        assert np.shape(got) == np.shape(want)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
