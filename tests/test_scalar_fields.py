"""Gradient/Hessian/Laplacian calculus and the level-surface checkers."""

import numpy as np
import pytest

import kontact as kt
from kontact import ad
from kontact.errors import RegularityError
from kontact.manifold import random_tangents
from kontact.scalar_fields import (
    ScalarField,
    ambient_gradient,
    directional_derivative,
    mean_curvature_frame_sum,
)

from finite_differences import fd_second_directional

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


def test_gradient_of_angle_function(angle3):
    g = kt.gradient(angle3, Q)
    assert np.allclose(g.vec, [-np.sqrt(2.0), 0.0, np.sqrt(2.0), 0.0], atol=1e-14)
    assert abs(kt.metric(g, g) - 4.0) < 1e-14  # 4(1 - f^2) with f = 0


def test_gradient_of_constant_vanishes():
    assert kt.gradient(CONST, Q).norm() < 1e-14


def test_gradient_duality(angle3, pts3, rng):
    # a hundred (field, direction) pairs
    fields = [angle3, kt.coordinate_field(0, 4), non_transnormal_field()]
    for f in fields:
        for p in pts3[:34]:
            (u,) = random_tangents(p, rng, 1)
            lhs = kt.metric(kt.gradient(f, p), u)
            rhs = directional_derivative(f, u)
            assert abs(lhs - rhs) < 1e-10


def test_gradient_fallback_matches_closed_form(angle3, pts3):
    f_ad = ScalarField(eval=angle3.eval, label="angle (ad)")
    for p in pts3[:10]:
        a = kt.gradient(angle3, p)
        b = kt.gradient(f_ad, p)
        assert np.allclose(a.vec, b.vec, atol=1e-13)


def test_hessian_symmetry(angle3, pts3, rng):
    for p in pts3[:8]:
        u, v = random_tangents(p, rng, 2)
        assert abs(kt.hessian(angle3, u, v) - kt.hessian(angle3, v, u)) < 1e-8


def test_hessian_of_constant_vanishes(pts3, rng):
    p = pts3[0]
    u, v = random_tangents(p, rng, 2)
    assert abs(kt.hessian(CONST, u, v)) < 1e-12


def test_hessian_matches_ambient_formula(angle3, pts3, rng):
    # independent route: Hess(u,v) = u^T H v - <G, p> g(u,v) with the
    # ambient Hessian H of the quadratic formula and ambient gradient G
    for p in pts3[:8]:
        u, v = random_tangents(p, rng, 2)
        got = kt.hessian(angle3, u, v)
        h_cols = []
        for i in range(4):
            e = np.eye(4)[i]
            h_cols.append(ad.value(ad.directional(
                lambda x: ambient_gradient(angle3, x), p.coords, e)))
        hmat = np.stack(h_cols, axis=-1)
        gvec = ad.value(ambient_gradient(angle3, p.coords))
        expect = u.vec @ hmat @ v.vec - (gvec @ p.coords) * kt.metric(u, v)
        assert abs(got - expect) < 1e-10


def test_hessian_finite_difference_cross_check(angle3, pts3, rng):
    for p in pts3[:3]:
        u, v = random_tangents(p, rng, 2)
        got = kt.hessian(angle3, u, v)
        approx = fd_second_directional(
            lambda x: float(ad.value(angle3.eval(x / np.linalg.norm(x)))),
            p.coords, u.vec, v.vec)
        assert abs(got - approx) < 1e-5


def test_laplacian_eigenvalue_on_s3(angle3, pts3):
    for p in pts3[:15]:
        assert abs(kt.laplacian(angle3, p) - 8.0 * angle3.value(p)) < 1e-12


def test_laplacian_of_constant(pts3):
    assert abs(kt.laplacian(CONST, pts3[0])) < 1e-12


def test_laplacian_s5_offset(angle5, pts5):
    for p in pts5[:10]:
        assert abs(kt.laplacian(angle5, p) - (12.0 * angle5.value(p) - 4.0)) < 1e-12


def test_laplacian_frame_independence(angle3, pair3, pts3):
    for p in pts3[:8]:
        fr1 = kt.tangent_basis(p)
        fr2 = kt.gram_schmidt_frame(p, [pair3.s_alpha.reeb_at(p)])
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
        pts = kt.sample_points(15, 11, ambient)
        for p in pts:
            expect = 2.0 * (m + 1) * q.value(p)
            assert abs(kt.laplacian(q, p) - expect) < 1e-7


def test_normalized_gradient_value(angle3):
    n = kt.normalized_gradient(angle3, Q)
    assert np.allclose(n.vec, [-1.0 / np.sqrt(2.0), 0.0, 1.0 / np.sqrt(2.0), 0.0],
                       atol=1e-14)


def test_normalized_gradient_regularity_error(angle3):
    pole = kt.SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]))  # f = -1 there
    with pytest.raises(RegularityError):
        kt.normalized_gradient(angle3, pole)


def test_normalized_gradient_unit_norm(angle3, pts3):
    for p in pts3:
        assert abs(kt.normalized_gradient(angle3, p).norm() - 1.0) < 1e-12


def test_check_geodesic_angle_function(angle3, pts3):
    rep = kt.check_geodesic(angle3, pts3)
    assert rep.passed and rep.max < 1e-7


def test_check_geodesic_height_function():
    f = kt.coordinate_field(0, 4)
    pts = kt.sample_points(40, 21, 4, exclusion=lambda p: abs(p.coords[0]) > 0.9)
    rep = kt.check_geodesic(f, pts)
    assert rep.passed and rep.max < 1e-7


def test_check_geodesic_negative_control(pts3):
    rep = kt.check_geodesic(non_transnormal_field(), pts3)
    assert not rep.passed
    assert rep.max > 1e-3


def test_check_geodesic_counts_skipped(angle3):
    pts = kt.sample_points(30, 33, 4)  # no exclusion: some near-critical
    pole = kt.SpherePoint(np.array([0.0, 0.0, 1.0, 0.0]))
    rep = kt.check_geodesic(angle3, pts + [pole])
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
    pts = kt.sample_points(20, 17, 4, exclusion=lambda p: abs(p.coords[0]) > 0.9)
    for p in pts:
        fv = f.value(p)
        expect = 2.0 * fv / np.sqrt(1.0 - fv * fv)
        assert abs(kt.level_mean_curvature(f, p) - expect) < 1e-9


def test_level_mean_curvature_matches_identity_at_half(angle3):
    p = None
    for cand in kt.sample_points(500, 3, 4):
        if abs(angle3.value(cand) - 0.5) < 5e-3:
            p = cand
            break
    assert p is not None
    fv = angle3.value(p)
    b = 4.0 * (1.0 - fv * fv)
    rhs = (kt.laplacian(angle3, p) / np.sqrt(b)
           + (-8.0 * fv) / (2.0 * np.sqrt(b)))
    assert abs(kt.level_mean_curvature(angle3, p) - rhs) < 1e-7


def test_level_mean_curvature_matches_frame_sum(angle3, pts3):
    for p in pts3[:6]:
        a = kt.level_mean_curvature(angle3, p)
        b = mean_curvature_frame_sum(angle3, p)
        assert abs(a - b) < 1e-10


def test_mean_curvature_identity_angle_functions(angle3, angle5, pts3, pts5):
    rep3 = kt.mean_curvature_identity_check(angle3, kt.ANGLE_PROFILE, pts3)
    rep5 = kt.mean_curvature_identity_check(angle5, kt.ANGLE_PROFILE, pts5)
    assert rep3.passed and rep3.max < 1e-7
    assert rep5.passed and rep5.max < 1e-7


def test_mean_curvature_identity_height_function():
    f = kt.coordinate_field(0, 4)
    pts = kt.sample_points(40, 19, 4, exclusion=lambda p: abs(p.coords[0]) > 0.9)
    rep = kt.mean_curvature_identity_check(f, HEIGHT_PROFILE, pts)
    assert rep.passed and rep.max < 1e-7


def test_mean_curvature_identity_rejects_negative_profile(angle3, pts3):
    bad = kt.TransnormalProfile(b=lambda t: -1.0, b_prime=lambda t: 0.0)
    with pytest.raises(ValueError):
        kt.mean_curvature_identity_check(angle3, bad, pts3[:3])


def test_scalar_field_eval_deterministic(angle3, pts3):
    p = pts3[0]
    assert angle3.value(p) == angle3.value(p)
