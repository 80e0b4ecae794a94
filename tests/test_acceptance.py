"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion-NN] PASS/FAIL` line (visible with
`pytest -s` or by running this file directly with `python`).  Sample
counts and tolerances are pinned here and are not calibration knobs.
"""

import functools

import numpy as np
import pytest

import kontact as kt
from kontact import ad
from kontact.ad import dot
from kontact.contact import check_killing
from kontact.manifold import (
    constant_field,
    cov_deriv_batch,
    curvature_numeric_batch,
    frame_batch,
    lie_bracket_batch,
    linear_field,
    proj_np,
    projected_eval,
    random_tangent_batch,
    sample_coords,
)
from kontact.scalar_fields import ScalarField, gradient_batch, laplacian_batch
from oracles import (
    curvature,
    hbundle_frames,
    ricci_frame_sum,
    ricci_operator_frame_sum,
    values,
)
from rotated_frames import rotate_completion

SAMPLES = 500
SEED = 42


@functools.lru_cache(maxsize=None)
def pair(dim: int):
    return kt.standard_pair(dim)


@functools.lru_cache(maxsize=None)
def angle(dim: int):
    return pair(dim).angle_function()


@functools.lru_cache(maxsize=None)
def points(dim: int, count: int = SAMPLES, seed: int = SEED):
    f = angle(dim)
    return sample_coords(count, seed, dim + 1,
                         exclusion=lambda x: np.abs(values(f, x)) > 0.9)


@functools.lru_cache(maxsize=None)
def height_points(count: int = SAMPLES, seed: int = SEED):
    return sample_coords(count, seed, 4, exclusion=lambda x: np.abs(x[:, 0]) > 0.9)


def jphi_trace(p, x, basis):
    """Σ g(J φ E_i, E_i) over the sub-bundle frames (N, k, m+1) at x."""
    y = x[:, None, :]
    return np.sum(dot(p.s_alpha.phi_at(y, p.s_beta.phi_at(y, basis)), basis), axis=-1)


def value_at(field, x):
    """The projected field P·V at the points x."""
    return proj_np(x, np.asarray(ad.value(field.eval(x)), dtype=float))


def report_line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion-{num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_transnormality():
    worst = 0.0
    for dim in (3, 5):
        rep = kt.transnormal_b_check(pair(dim), points(dim), tol=1e-9)
        worst = max(worst, rep.max)
        assert rep.passed, f"transnormal profile failed on S{dim}"
    report_line(1, worst <= 1e-9, f"|grad f|^2 vs 4(1-f^2), max {worst:.2e} <= 1e-9")
    assert worst <= 1e-9


def test_criterion_02_dimension_three_theorem():
    rep = kt.dim_theorem_check(pair(3), points(3), tol=1e-7)
    report_line(2, rep.passed, f"laplacian = 8f on S3, max {rep.max:.2e} <= 1e-7")
    assert rep.passed


def test_criterion_03_dimension_five_theorem():
    f = angle(5)
    lap = laplacian_batch(f, points(5))
    fv = values(f, points(5))
    offsets = lap - 12.0 * fv
    c0 = offsets[0]
    constant = float(np.max(np.abs(offsets - c0)))
    magnitude = abs(abs(c0) - 4.0)
    ok = constant <= 1e-6 and magnitude <= 1e-6 and abs(c0 + 4.0) <= 1e-6
    report_line(3, ok, f"laplacian = 12f + c0 on S5, c0 = {c0:+.9f}, "
                       f"spread {constant:.2e} <= 1e-6")
    assert ok


def test_criterion_04_laplacian_formula():
    worst = 0.0
    for dim in (3, 5):
        rep = kt.laplacian_formula_check(pair(dim), points(dim), tol=1e-7)
        worst = max(worst, rep.max)
        assert rep.passed
    x = points(5)[:100]
    b1 = hbundle_frames(pair(5), x)
    b2 = rotate_completion(b1, 0)
    frame_dev = float(np.max(np.abs(jphi_trace(pair(5), x, b1)
                                    - jphi_trace(pair(5), x, b2))))
    ok = worst <= 1e-7 and frame_dev <= 1e-8
    report_line(4, ok, f"(4n+4)f + 2 sum residual max {worst:.2e} <= 1e-7, "
                       f"frame dev {frame_dev:.2e} <= 1e-8")
    assert ok


def test_criterion_05_geodesic_gradient_fields():
    worst = 0.0
    for dim in (3, 5):
        rep = kt.check_geodesic(angle(dim), points(dim), tol=1e-7)
        worst = max(worst, rep.max)
        assert rep.passed
    rep_h = kt.check_geodesic(kt.coordinate_field(0, 4), height_points(),
                              tol=1e-7)
    worst = max(worst, rep_h.max)
    ok = worst <= 1e-7
    report_line(5, ok, f"|cov_deriv(N,N)| max {worst:.2e} <= 1e-7 "
                       f"(angle S3/S5, height S3)")
    assert ok


def test_criterion_06_mean_curvature_identity():
    worst = 0.0
    for dim in (3, 5):
        rep = kt.mean_curvature_identity_check(angle(dim), kt.ANGLE_PROFILE,
                                               points(dim), tol=1e-7)
        worst = max(worst, rep.max)
        assert rep.passed
    height_profile = kt.TransnormalProfile(b=lambda t: 1.0 - t * t,
                                           b_prime=lambda t: -2.0 * t)
    rep_h = kt.mean_curvature_identity_check(kt.coordinate_field(0, 4),
                                             height_profile, height_points(),
                                             tol=1e-7)
    worst = max(worst, rep_h.max)
    torus = kt.SpherePoint(np.array([1.0, 0, 1.0, 0]) / np.sqrt(2.0))
    minimal = abs(kt.level_mean_curvature(angle(3), torus))
    ok = worst <= 1e-7 and minimal <= 1e-7
    report_line(6, ok, f"h identity max {worst:.2e} <= 1e-7, "
                       f"h(f=0) = {minimal:.2e} <= 1e-7")
    assert ok


def test_criterion_07_product_spectrum_on_s5():
    p5 = pair(5)
    x = points(5)
    basis = hbundle_frames(p5, x)
    y = x[:, None, :]
    phi_j = p5.s_beta.phi_at(y, p5.s_alpha.phi_at(y, basis))
    m = dot(phi_j[:, None, :, :], basis[:, :, None, :])     # m[j, i] = g(φJ e_i, e_j)
    m_t = np.swapaxes(m, -1, -2)
    sym = float(np.max(np.abs(m - m_t)))
    sq = float(np.max(np.abs(m @ m - np.eye(basis.shape[1]))))
    vals = np.linalg.eigvalsh(0.5 * (m + m_t))
    eig = float(np.max(np.abs(np.abs(vals) - 1.0)))
    ok = sym <= 1e-8 and sq <= 1e-8 and eig <= 1e-7
    report_line(7, ok, f"phi-product on S5: sym {sym:.2e} <= 1e-8, "
                       f"square {sq:.2e} <= 1e-8, |eig|-1 {eig:.2e} <= 1e-7")
    assert ok


def test_criterion_08_hessian_restricted_to_subbundle():
    rep = kt.hessian_restriction_check(pair(5), points(5), tol=1e-7)
    report_line(8, rep.passed, f"hessian identity on the sub-bundle, "
                               f"max {rep.max:.2e} <= 1e-7")
    assert rep.passed


def test_criterion_09_harmonic_unit_field():
    worst_nu = worst_crit = 0.0
    for dim in (3, 5):
        n_field = kt.normalized_gradient_unit_field(angle(dim))
        rep_nu = kt.harmonicity_check(n_field, points(dim), tol=1e-6)
        rep_cr = kt.critical_condition_check(n_field, points(dim), tol=1e-6)
        worst_nu = max(worst_nu, rep_nu.max)
        worst_crit = max(worst_crit, rep_cr.max)
        assert rep_nu.passed and rep_cr.passed
    ok = worst_nu <= 1e-6 and worst_crit <= 1e-6
    report_line(9, ok, f"nu_N max {worst_nu:.2e} <= 1e-6, "
                       f"|x(h) - ric(x,N)| max {worst_crit:.2e} <= 1e-6")
    assert ok


def test_criterion_10_ricci_pinning():
    worst_q = worst_rho = worst_comm = 0.0
    for dim in (3, 5):
        pr = pair(dim)
        two_n = float(dim - 1)
        x = points(dim)[:40]
        z = x @ pr.s_alpha.j_ambient.mat.T
        qz = ricci_operator_frame_sum(x, z, curvature_fn=curvature_numeric_batch)
        worst_q = max(worst_q, float(np.max(np.linalg.norm(qz - two_n * z, axis=-1))))
        g = gradient_batch(angle(dim), x)
        n = g / np.sqrt(dot(g, g))[:, None]
        frames = frame_batch(x, n[:, None, :])
        for k in range(1, dim):
            rho = ricci_frame_sum(x, frames[:, k], n, curvature_numeric_batch, frames)
            worst_rho = max(worst_rho, float(np.max(np.abs(rho))))
        xb = x @ pr.s_beta.j_ambient.mat.T
        jx = pr.s_alpha.phi_at(x, xb)
        qjx = ricci_operator_frame_sum(x, jx, curvature_fn=curvature_numeric_batch)
        qx = ricci_operator_frame_sum(x, xb, curvature_fn=curvature_numeric_batch)
        jqx = pr.s_alpha.phi_at(x, qx)
        worst_comm = max(worst_comm, float(np.max(np.linalg.norm(qjx - jqx, axis=-1))))
    ok = worst_q <= 1e-8 and worst_rho <= 1e-8 and worst_comm <= 1e-8
    report_line(10, ok, f"|Q(Z)-2nZ| {worst_q:.2e}, ric(E,N) {worst_rho:.2e}, "
                        f"|Q(JX)-J(QX)| {worst_comm:.2e}, all <= 1e-8")
    assert ok


def test_criterion_11_contact_axioms_kcontact_sasakian():
    worst = {"ii": 0.0, "iii": 0.0, "kcontact": 0.0, "sasakian": 0.0}
    for dim in (3, 5):
        pts = points(dim)
        for s in (pair(dim).s_alpha, pair(dim).s_beta):
            vol = kt.check_axiom_volume(s, pts)
            assert vol.passed, f"axiom i failed for {s.label} on S{dim}"
            worst["ii"] = max(worst["ii"], kt.check_axiom_ii(s, pts).max)
            worst["iii"] = max(worst["iii"], kt.check_axiom_iii(s, pts).max)
            worst["kcontact"] = max(worst["kcontact"],
                                    kt.check_kcontact(s, pts).max)
            worst["sasakian"] = max(worst["sasakian"],
                                    kt.check_sasakian(s, pts).max)
    ok = (worst["ii"] <= 1e-9 and worst["kcontact"] <= 1e-9
          and worst["iii"] <= 1e-8 and worst["sasakian"] <= 1e-8)
    report_line(11, ok, f"axiom ii {worst['ii']:.2e}/killing "
                        f"{worst['kcontact']:.2e} <= 1e-9; axiom iii "
                        f"{worst['iii']:.2e}/sasakian {worst['sasakian']:.2e} "
                        f"<= 1e-8; axiom i |α∧(dα)^n| = 2^n n!")
    assert ok


def test_criterion_12_energy_monte_carlo():
    zf = kt.reeb_unit_field(pair(3).s_alpha)
    closed = kt.reeb_energy_closed_form(3)
    e1 = kt.energy(zf, 100_000, SEED, 4)
    e2 = kt.energy(zf, 100_000, SEED + 1000, 4)
    band1 = 3.0 * e1.stderr + 1e-9 * closed
    pair_band = 3.0 * float(np.hypot(e1.stderr, e2.stderr)) + 1e-9 * closed
    ok = (abs(e1.estimate - closed) <= band1
          and abs(e1.estimate - e2.estimate) <= pair_band)
    report_line(12, ok, f"E(reeb) = {e1.estimate:.9f} vs 5 pi^2 = {closed:.9f} "
                        f"within 3 sigma; two seeds agree")
    assert ok


def test_criterion_13_property_suites_and_negative_controls():
    rng = np.random.default_rng(SEED)
    pts = sample_coords(100, 77, 4)
    # torsion-freeness on random linear fields at 100 points
    m1, m2 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    v, w = linear_field(m1 - m1.T), linear_field(m2 - m2.T)
    v_at, w_at = (value_at(field, pts) for field in (v, w))
    torsion = float(np.max(np.linalg.norm(
        cov_deriv_batch(w, pts, v_at) - cov_deriv_batch(v, pts, w_at)
        - proj_np(pts, lie_bracket_batch(v, w, pts)), axis=-1)))
    # metric compatibility: a curve's first derivative at its start
    # depends on its velocity alone, so along the great circle with
    # velocity u it is the directional derivative along u
    x = pts[:50]
    u = random_tangent_batch(x, rng, ())
    lhs = ad.value(ad.directional(
        lambda y: ad.dot(projected_eval(v, y), projected_eval(w, y)), x, u))
    rhs = (dot(cov_deriv_batch(v, x, u), w_at[:50])
           + dot(v_at[:50], cov_deriv_batch(w, x, u)))
    compat = float(np.max(np.abs(lhs - rhs)))
    # curvature cross-check
    a, b, c = np.moveaxis(random_tangent_batch(x, rng, (3,)), 1, 0)
    curv = float(np.max(np.linalg.norm(
        curvature_numeric_batch(x, a, b, c) - curvature(a, b, c), axis=-1)))
    # eigenfunction property for random degree-2 harmonics
    eig = 0.0
    for ambient in (4, 6):
        mdim = ambient - 1
        for _ in range(3):
            amat = rng.standard_normal((ambient, ambient))
            amat = 0.5 * (amat + amat.T)
            amat -= np.eye(ambient) * np.trace(amat) / ambient
            q = kt.quadratic_form_field(amat)
            y = sample_coords(20, 5, ambient)
            eig = max(eig, float(np.max(np.abs(
                laplacian_batch(q, y) - 2.0 * (mdim + 1) * values(q, y)))))
    # negative controls must fail
    def bad_eval(x):
        return x[..., 0] + x[..., 0] * x[..., 2]

    bad_f = ScalarField(eval=bad_eval, label="x1 + x1 x2")
    geo_bad = kt.check_geodesic(bad_f, points(3))
    twisted = kt.twisted_unit_field(np.array([1.0, 0.4, -0.2, 0.3]),
                                    np.array([0.2, -1.0, 0.5, 0.1]),
                                    np.array([-0.3, 0.2, 1.0, -0.5]))
    nu_bad = kt.harmonicity_check(twisted, points(3))
    crit_bad = kt.critical_condition_check(twisted, points(3))
    killing_bad = check_killing(constant_field(np.array([1.0, 0.4, -0.2, 0.3])),
                                points(3))
    controls_fail = (not geo_bad.passed and not nu_bad.passed
                     and not crit_bad.passed and not killing_bad.passed)
    ok = (torsion <= 1e-8 and compat <= 1e-8 and curv <= 1e-8
          and eig <= 1e-7 and controls_fail)
    report_line(13, ok, f"torsion {torsion:.2e}, compat {compat:.2e}, "
                        f"curvature {curv:.2e} <= 1e-8; eigenfunction "
                        f"{eig:.2e} <= 1e-7; negative controls fail")
    assert ok


if __name__ == "__main__":
    import sys

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"{name}: FAILED ({exc})")
    sys.exit(1 if failures else 0)
