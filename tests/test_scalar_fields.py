"""Gradient/Hessian/Laplacian calculus and the level-surface checkers."""

import numpy as np
import pytest

import kontact as kt
from kontact import ad
from kontact.ad import dot
from kontact.errors import RegularityError
from kontact.manifold import (
    random_tangent_batch,
    sample_coords,
    shape_matrix,
)
from kontact.scalar_fields import (
    ScalarField,
    ambient_gradient,
    ambient_gradient_field,
    gradient_batch,
    laplacian_batch,
    level_mean_curvature_batch,
)

from finite_differences import fd_second_directional
from oracles import mean_curvature_frame_sum, values

Q = kt.SpherePoint(np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0))

CONST = ScalarField(eval=lambda x: ad.dot(x, x) * 0.0 + 2.5, label="const")

HEIGHT_PROFILE = kt.TransnormalProfile(b=lambda t: 1.0 - t * t,
                                       b_prime=lambda t: -2.0 * t)


def non_transnormal_field():
    # x1 + x1*x2 in the (x1, y1, x2, y2) coordinates
    def evaluator(x):
        return x[..., 0] + x[..., 0] * x[..., 2]

    def grad(x):
        one = ad.lift(np.eye(4)[0], x)
        e2 = ad.lift(np.eye(4)[2], x)
        return one + ad.sv(x[..., 2], one) + ad.sv(x[..., 0], e2)

    return ScalarField(eval=evaluator, grad=grad, label="x1 + x1 x2")


def tangent_pairs(x, rng):
    """Two random unit tangent directions u, v at each of the points x."""
    return np.moveaxis(random_tangent_batch(x, rng, (2,)), 1, 0)


def hessian(f, x, u, v):
    """Hess_f(u, v) = g(∇_u ∇f, v) at the points x."""
    return np.einsum("...i,...ij,...j->...", v, shape_matrix(ambient_gradient_field(f), x), u)


def unit_gradient(f, x):
    """N = ∇f/‖∇f‖ at the points x."""
    g = gradient_batch(f, x)
    return g / np.sqrt(dot(g, g))[..., None]


def height_points(count, seed):
    """Points of S³ where the height x_0 is at most 0.9 in magnitude."""
    return sample_coords(count, seed, 4, exclusion=lambda x: np.abs(x[:, 0]) > 0.9)


def test_gradient_of_angle_function(angle3):
    g = kt.gradient(angle3, Q)
    assert np.allclose(g.vec, [-np.sqrt(2.0), 0.0, np.sqrt(2.0), 0.0], atol=1e-14)
    assert abs(g.vec @ g.vec - 4.0) < 1e-14  # 4(1 - f^2) with f = 0


def test_gradient_of_constant_vanishes():
    assert np.linalg.norm(kt.gradient(CONST, Q).vec) < 1e-14


def test_gradient_duality(angle3, pts3, rng):
    # a hundred (field, direction) pairs: g(∇f, u) = u(f)
    fields = [angle3, kt.coordinate_field(0, 4), non_transnormal_field()]
    x = pts3[:34]
    for f in fields:
        u = random_tangent_batch(x, rng, ())
        lhs = dot(gradient_batch(f, x), u)
        rhs = ad.value(ad.directional(f.eval, x, u))
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        for p, row in zip(x[:3], gradient_batch(f, x)):
            assert np.array_equal(kt.gradient(f, kt.SpherePoint(p)).vec, row)


def test_gradient_fallback_matches_closed_form(angle3, pts3):
    f_ad = ScalarField(eval=angle3.eval, label="angle (ad)")
    x = pts3[:10]
    assert np.allclose(gradient_batch(angle3, x), gradient_batch(f_ad, x), atol=1e-13)


def test_hessian_symmetry(angle3, pts3, rng):
    x = pts3[:8]
    u, v = tangent_pairs(x, rng)
    assert np.max(np.abs(hessian(angle3, x, u, v) - hessian(angle3, x, v, u))) < 1e-8


def test_hessian_of_constant_vanishes(pts3, rng):
    x = pts3[:1]
    u, v = tangent_pairs(x, rng)
    assert abs(hessian(CONST, x, u, v)[0]) < 1e-12


def test_hessian_matches_ambient_formula(angle3, pts3, rng):
    # independent route: Hess(u,v) = u^T H v - <G, p> g(u,v) with the
    # ambient Hessian H of the quadratic formula and ambient gradient G
    x = pts3[:8]
    u, v = tangent_pairs(x, rng)
    got = hessian(angle3, x, u, v)
    hmat = np.stack([ad.value(ad.directional(
        lambda y: ambient_gradient(angle3, y), x, np.eye(4)[i])) for i in range(4)], axis=-1)
    gvec = ad.value(ambient_gradient(angle3, x))
    expect = np.einsum("...i,...ij,...j->...", u, hmat, v) - dot(gvec, x) * dot(u, v)
    assert np.max(np.abs(got - expect)) < 1e-10


def test_hessian_finite_difference_cross_check(angle3, pts3, rng):
    x = pts3[:3]
    u, v = tangent_pairs(x, rng)
    got = hessian(angle3, x, u, v)
    for p, a, b, value in zip(x, u, v, got):
        approx = fd_second_directional(
            lambda y: float(ad.value(angle3.eval(y / np.linalg.norm(y)))), p, a, b)
        assert abs(value - approx) < 1e-5


def test_laplacian_eigenvalue_on_s3(angle3, pts3):
    x = pts3[:15]
    assert np.max(np.abs(laplacian_batch(angle3, x) - 8.0 * values(angle3, x))) < 1e-12
    for p in x[:3]:
        assert kt.laplacian(angle3, kt.SpherePoint(p)) == laplacian_batch(angle3, p)


def test_laplacian_of_constant(pts3):
    assert abs(laplacian_batch(CONST, pts3[0])) < 1e-12


def test_laplacian_s5_offset(angle5, pts5):
    x = pts5[:10]
    assert np.max(np.abs(laplacian_batch(angle5, x) - (12.0 * values(angle5, x) - 4.0))) < 1e-12


def test_laplacian_frame_independence(angle3, pair3, pts3):
    for x in pts3[:8]:
        p = kt.SpherePoint(x)
        fr1 = kt.tangent_basis(p)
        fr2 = kt.gram_schmidt_frame(p, [kt.TangentVector(p, pair3.s_alpha.j_ambient.mat @ x)])
        assert abs(kt.laplacian(angle3, p, fr1)
                   - kt.laplacian(angle3, p, fr2)) < 1e-8


def test_degree_two_harmonics_are_eigenfunctions(rng):
    # Delta q = 2(m+1) q for restricted harmonic quadratic forms
    for ambient in (4, 6):
        m = ambient - 1
        a = rng.standard_normal((ambient, ambient))
        a = 0.5 * (a + a.T)
        a -= np.eye(ambient) * np.trace(a) / ambient
        q = kt.quadratic_form_field(a, label="harmonic quadratic")
        x = sample_coords(15, 11, ambient)
        expect = 2.0 * (m + 1) * values(q, x)
        assert np.max(np.abs(laplacian_batch(q, x) - expect)) < 1e-7


def test_normalized_gradient_value(angle3):
    n = unit_gradient(angle3, Q.coords)
    assert np.allclose(n, [-1.0 / np.sqrt(2.0), 0.0, 1.0 / np.sqrt(2.0), 0.0], atol=1e-14)
    field = kt.normalized_gradient_unit_field(angle3).field
    assert np.allclose(ad.value(field.eval(Q.coords)), n, atol=1e-15)


def test_normalized_gradient_regularity_error(angle3):
    pole = kt.SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]))  # f = -1 there
    assert not kt.normalized_gradient_unit_field(angle3).domain(pole.coords)
    with pytest.raises(RegularityError):
        kt.level_mean_curvature(angle3, pole)


def test_normalized_gradient_unit_norm(angle3, pts3):
    field = kt.normalized_gradient_unit_field(angle3).field
    n = ad.value(field.eval(pts3))
    assert np.max(np.abs(np.linalg.norm(n, axis=-1) - 1.0)) < 1e-12


def test_check_geodesic_angle_function(angle3, pts3):
    rep = kt.check_geodesic(angle3, pts3)
    assert rep.passed and rep.max < 1e-7


def test_check_geodesic_height_function():
    f = kt.coordinate_field(0, 4)
    pts = height_points(40, 21)
    rep = kt.check_geodesic(f, pts)
    assert rep.passed and rep.max < 1e-7


def test_check_geodesic_negative_control(pts3):
    rep = kt.check_geodesic(non_transnormal_field(), pts3)
    assert not rep.passed
    assert rep.max > 1e-3


def test_check_geodesic_counts_skipped(angle3):
    pts = sample_coords(30, 33, 4)  # no exclusion: some near-critical
    pole = np.array([0.0, 0.0, 1.0, 0.0])
    rep = kt.check_geodesic(angle3, np.vstack([pts, pole]))
    assert rep.count + rep.skipped == 31
    assert rep.skipped >= 1


def test_check_transnormal_profiles(angle3, angle5, pts3, pts5):
    rep3 = kt.check_transnormal(angle3, kt.ANGLE_PROFILE, pts3)
    rep5 = kt.check_transnormal(angle5, kt.ANGLE_PROFILE, pts5)
    assert rep3.passed and rep3.max < 1e-9
    assert rep5.passed and rep5.max < 1e-9


def test_check_transnormal_constant_function(pts3):
    profile = kt.TransnormalProfile(b=lambda t: 0.0, b_prime=lambda t: 0.0)
    rep = kt.check_transnormal(CONST, profile, pts3)
    assert rep.max == 0.0


def test_check_isoparametric_s3(angle3, pts3):
    rep = kt.check_isoparametric(angle3, kt.IsoparametricProfile(lambda t: 8.0 * t),
                                 pts3)
    assert rep.passed and rep.max < 1e-7


def test_check_isoparametric_constant(pts3):
    rep = kt.check_isoparametric(CONST, kt.IsoparametricProfile(lambda t: 0.0), pts3)
    assert rep.max == 0.0


def test_fit_affine_profile_s5(angle5, pts5):
    c1, c0, residual = kt.fit_affine_profile(angle5, pts5)
    assert abs(c1 - 12.0) < 1e-9
    assert abs(c0 + 4.0) < 1e-9
    assert residual < 1e-6


def test_fit_affine_profile_flags_non_isoparametric(pts3):
    _, _, residual = kt.fit_affine_profile(non_transnormal_field(), pts3)
    assert residual > 1e-3


def test_level_mean_curvature_clifford_torus(angle3):
    assert abs(kt.level_mean_curvature(angle3, Q)) < 1e-7


def test_level_mean_curvature_equator():
    f = kt.coordinate_field(0, 4)
    p = kt.SpherePoint(np.array([0.0, 1.0, 0.0, 0.0]))  # f = 0 level
    assert abs(kt.level_mean_curvature(f, p)) < 1e-7


def test_level_mean_curvature_height_closed_form():
    # geodesic spheres: h = (m-1) f / sqrt(1 - f^2)
    f = kt.coordinate_field(0, 4)
    x = height_points(20, 17)
    fv = values(f, x)
    expect = 2.0 * fv / np.sqrt(1.0 - fv * fv)
    assert np.max(np.abs(level_mean_curvature_batch(f, x) - expect)) < 1e-9
    for p in x[:3]:
        assert kt.level_mean_curvature(f, kt.SpherePoint(p)) == level_mean_curvature_batch(f, p)


def test_level_mean_curvature_matches_identity_at_half(angle3):
    cands = sample_coords(500, 3, 4)
    near = np.flatnonzero(np.abs(values(angle3, cands) - 0.5) < 5e-3)
    assert near.size
    x = cands[near[0]]
    fv = values(angle3, x)
    b = 4.0 * (1.0 - fv * fv)
    rhs = (laplacian_batch(angle3, x) / np.sqrt(b)
           + (-8.0 * fv) / (2.0 * np.sqrt(b)))
    assert abs(level_mean_curvature_batch(angle3, x) - rhs) < 1e-7


def test_level_mean_curvature_matches_frame_sum(angle3, pts3):
    x = pts3[:6]
    a = level_mean_curvature_batch(angle3, x)
    assert np.max(np.abs(a - mean_curvature_frame_sum(angle3, x))) < 1e-10


def test_mean_curvature_identity_angle_functions(angle3, angle5, pts3, pts5):
    rep3 = kt.mean_curvature_identity_check(angle3, kt.ANGLE_PROFILE, pts3)
    rep5 = kt.mean_curvature_identity_check(angle5, kt.ANGLE_PROFILE, pts5)
    assert rep3.passed and rep3.max < 1e-7
    assert rep5.passed and rep5.max < 1e-7


def test_mean_curvature_identity_height_function():
    f = kt.coordinate_field(0, 4)
    pts = height_points(40, 19)
    rep = kt.mean_curvature_identity_check(f, HEIGHT_PROFILE, pts)
    assert rep.passed and rep.max < 1e-7


def test_mean_curvature_identity_rejects_negative_profile(angle3, pts3):
    bad = kt.TransnormalProfile(b=lambda t: -1.0, b_prime=lambda t: 0.0)
    with pytest.raises(ValueError):
        kt.mean_curvature_identity_check(angle3, bad, pts3[:3])


def test_scalar_field_eval_deterministic(angle3, pts3):
    x = pts3[:5]
    assert np.array_equal(values(angle3, x), values(angle3, x))
