"""Commuting pairs: angle function identities, spectra, Hessian, Ricci."""

import itertools
import json
import re
import types
import warnings

import numpy as np
import pytest

import kontact as kt
from kontact import manifold
from kontact.ad import dot, value
from kontact.cli import SuiteConfig, _check_catalog, run_suite
from kontact.errors import (
    ConstructionError,
    RegularityError,
    UnsupportedDimensionError,
)
from kontact.manifold import (
    block_diag_complex_structure,
    sample_blocks,
    sample_coords,
    shape_matrix,
)
from kontact.scalar_fields import (
    ambient_gradient_field,
    gradient_norm,
    is_regular,
    laplacian_batch,
)
from oracles import hbundle_frames, values
from rotated_frames import rotate_completion

E1 = np.array([1.0, 0.0, 0.0, 0.0])


def angle_points(pair, count, seed, cutoff=0.9):
    """Points where the angle function of the pair is at most ``cutoff``
    in magnitude, as the suite draws them."""
    f = pair.angle_function()
    return sample_coords(count, seed, pair.ambient_dim,
                         exclusion=lambda y: np.abs(values(f, y)) > cutoff)


def reebs(pair, x):
    """The Reeb fields Z and X of the pair at the points x."""
    return x @ pair.s_alpha.j_ambient.mat.T, x @ pair.s_beta.j_ambient.mat.T


def jphi(pair, x, u):
    """J φ u at the points x: the first structure's tensor after the second's."""
    return pair.s_alpha.phi_at(x, pair.s_beta.phi_at(x, u))


def sub_bundle(pair, x):
    """Frames of {Z, X, JX}^⊥ at the points x (N, m+1), from the kept
    one-point basis at each point."""
    return np.array([kt.hbundle_basis(pair, kt.SpherePoint(p)).matrix for p in x])


def block_pair(j1_signs, j2_signs):
    return kt.make_double(block_diag_complex_structure(j1_signs),
                          block_diag_complex_structure(j2_signs))


def test_standard_pair_is_the_shipped_example(pair3):
    assert np.array_equal(pair3.s_alpha.j_ambient.mat,
                          block_diag_complex_structure([1, 1]).mat)
    assert np.array_equal(pair3.s_beta.j_ambient.mat,
                          block_diag_complex_structure([-1, 1]).mat)
    assert not pair3.degenerate


def test_make_double_rejects_non_commuting():
    # quaternionic i and j multiplications anticommute
    qi = kt.OrthoComplexStructure(np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0]]))
    qj = kt.OrthoComplexStructure(np.array([
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0]]))
    with pytest.raises(ConstructionError):
        kt.make_double(qi, qj)


def test_degenerate_pair_flagged_with_warning():
    j = block_diag_complex_structure([1, 1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pair = kt.make_double(j, j)
    assert pair.degenerate
    assert any("critical" in str(w.message) for w in caught)
    f = pair.angle_function()
    assert np.max(np.abs(values(f, sample_coords(10, 3, 4)) - 1.0)) < 1e-12


def test_degenerate_pair_transnormal_vacuously():
    j = block_diag_complex_structure([1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pair = kt.make_double(j, j)
    pts = sample_coords(10, 3, 4)
    rep = kt.transnormal_b_check(pair, pts)
    assert rep.passed  # f == 1, b(f) = 0, grad f = 0


def test_angle_function_values(pair3, pair5):
    f3 = pair3.angle_function()
    assert abs(values(f3, E1) + 1.0) < 1e-15
    assert abs(values(f3, np.array([0.0, 0.0, 1.0, 0.0])) - 1.0) < 1e-15
    f5 = pair5.angle_function()
    mid = np.array([1.0, 0, 1.0, 0, 0, 0]) / np.sqrt(2.0)
    assert abs(values(f5, mid)) < 1e-15


def test_angle_range_invariant(pair3):
    f = pair3.angle_function()
    assert np.max(np.abs(values(f, sample_coords(200, 5, 4)))) <= 1.0 + 1e-12


def test_reeb_coincidence_at_angle_extremes(pair3, pts3):
    # |X -+ Z|^2 = 2(1 -+ f) exactly; at exact critical points X = +-Z
    f = pair3.angle_function()
    x = pts3[:20]
    z, xb = reebs(pair3, x)
    fv = values(f, x)
    assert np.max(np.abs(dot(xb - z, xb - z) - 2.0 * (1.0 - fv))) < 1e-12
    assert np.max(np.abs(dot(xb + z, xb + z) - 2.0 * (1.0 + fv))) < 1e-12
    plus = np.array([0.0, 0.0, 1.0, 0.0])   # f = +1
    z, xb = reebs(pair3, np.vstack([plus, E1]))
    assert np.linalg.norm(xb[0] - z[0]) < 1e-6
    assert np.linalg.norm(xb[1] + z[1]) < 1e-6   # f = -1 at E1


def test_commuting_invariants_check(pair3, pair5, pts3, pts5):
    assert kt.commuting_invariants_check(pair3, pts3).passed
    assert kt.commuting_invariants_check(pair5, pts5).passed


def test_gradient_identity(pair3, pair5, pts3, pts5):
    rep3 = kt.gradient_identity_check(pair3, pts3)
    rep5 = kt.gradient_identity_check(pair5, pts5)
    assert rep3.passed and rep3.max < 1e-9
    assert rep5.passed and rep5.max < 1e-9
    assert "both pairings hold" in rep3.provenance


def test_gradient_identity_gates_both_pairings(pair5):
    # phi_beta at the wrong sign breaks only the second pairing; gating
    # the closer pairing alone let this pair pass
    s_beta = pair5.s_beta
    broken = kt.DoubleKContact(
        pair5.s_alpha, kt.ContactMetricStructure(s_beta.j_ambient, -s_beta.sigma, s_beta.label),
        pair5.degenerate)
    f = broken.angle_function()
    x = sample_coords(30, 1, 6, exclusion=lambda y: np.abs(value(f.eval(y))) > 0.9)
    assert kt.gradient_identity_check(pair5, x).passed
    rep = kt.gradient_identity_check(broken, x)
    assert not rep.passed and rep.max > 1.0


def test_gradient_identity_zero_length_at_critical(pair3):
    f = pair3.angle_function()
    g = kt.gradient(f, kt.SpherePoint(E1))  # f = -1
    x = pair3.s_beta.j_ambient.mat @ E1
    assert np.linalg.norm(g.vec) < 1e-12
    assert np.linalg.norm(2.0 * pair3.s_alpha.phi_at(E1, x)) < 1e-12


def test_transnormal_b_check(pair3, pair5, pts3, pts5):
    assert kt.transnormal_b_check(pair3, pts3).max < 1e-9
    assert kt.transnormal_b_check(pair5, pts5).max < 1e-9


def test_hbundle_empty_on_s3(pair3, pts3):
    basis = kt.hbundle_basis(pair3, kt.SpherePoint(pts3[0]))
    assert len(basis) == 0


def s3_points_with_poles(pts3):
    # e₁ and e₃ sit where f = −1 and f = +1, so the sub-bundle checks skip them
    return np.vstack([pts3, np.eye(4)[[0, 2]]])


def test_s3_sub_bundle_builds_no_frame(pair3, pts3, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a frame or projector built for the zero sub-bundle")

    for name in ("frame_batch", "projector"):
        monkeypatch.setattr(kt.double_kcontact, name, refuse)
    rep = kt.laplacian_formula_check(pair3, s3_points_with_poles(pts3))
    assert rep.passed and (rep.count, rep.skipped) == (len(pts3), 2)


def test_s3_laplacian_report_matches_the_seeded_frame_tail(pair3, pts3, monkeypatch):
    # the empty sub-bundle of S³ against the tail of the frame seeded by
    # Z, X, JX, and against the residue projector built past the S³ branch,
    # whose rows vanish to rounding
    x = s3_points_with_poles(pts3)
    empty = kt.laplacian_formula_check(pair3, x)
    dk = kt.double_kcontact
    real = dk._sub_bundle
    as_if_larger = types.SimpleNamespace(dim=5, s_alpha=pair3.s_alpha, s_beta=pair3.s_beta)
    assert np.max(np.abs(real(as_if_larger, pts3)[0])) <= 1e-15
    monkeypatch.setattr(dk, "_sub_bundle", lambda d, y: (hbundle_frames(d, y),) * 2)
    assert kt.laplacian_formula_check(pair3, x) == empty
    monkeypatch.setattr(dk, "_sub_bundle", lambda d, y: real(as_if_larger, y))
    rep = kt.laplacian_formula_check(pair3, x)
    assert (rep.count, rep.skipped, rep.passed) == (empty.count, empty.skipped, empty.passed)
    assert abs(rep.max - empty.max) <= 1e-15


def test_hbundle_s5_orthogonality(pair5, pts5):
    x = pts5[:10]
    basis = sub_bundle(pair5, x)
    assert basis.shape == (10, 2, 6)
    z, xb = reebs(pair5, x)
    jx = pair5.s_alpha.phi_at(x, xb)
    for v in (z, xb, jx):
        assert np.max(np.abs(dot(basis, v[:, None, :]))) < 1e-9
    gram = basis @ np.swapaxes(basis, -1, -2)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-9


def test_hbundle_regularity_error(pair5):
    p = kt.SpherePoint(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]))  # f = +1
    with pytest.raises(RegularityError):
        kt.hbundle_basis(pair5, p)


def near_pole(delta):
    # f = 1 − 2t² on s5 at (t, 0, √(1−t²), 0, 0, 0)
    t = np.sqrt(delta / 2.0)
    return kt.SpherePoint(np.array([t, 0.0, np.sqrt(1.0 - t * t), 0.0, 0.0, 0.0]))


SUB_BUNDLE_CHECKS = (kt.laplacian_formula_check, kt.phi_product_spectrum_check,
                     kt.hessian_restriction_check)


@pytest.mark.parametrize("delta", [1e-6, 1e-7, 1e-8])
def test_sub_bundle_checks_skip_points_near_the_pole(pair5, delta):
    # the checks skip only the pole beside the point, where ∇f = 0, and read
    # the point, regular as ∇f ≠ 0; so does the one-point basis, whose QR
    # residues are about √(1 − f²) there, and its projector is the checks' Q
    p = near_pole(delta)
    assert abs(values(pair5.angle_function(), p.coords) - (1.0 - delta)) < 1e-15
    x = np.vstack([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0], p.coords])
    for check, count in zip(SUB_BUNDLE_CHECKS, (1, 1, 3)):
        assert check(pair5, [p]).skipped == 0, check.__name__
        rep = check(pair5, x)
        assert (rep.count, rep.skipped, rep.passed) == (count, 1, True), check.__name__
    basis = kt.hbundle_basis(pair5, p).matrix
    assert basis.shape == (2, 6)
    q = kt.double_kcontact._sub_bundle(pair5, p.coords)[0]
    assert np.max(np.abs(basis.T @ basis - q)) <= 1e-10
    with pytest.raises(RegularityError):
        kt.hbundle_basis(pair5, kt.SpherePoint(x[0]))


def test_hbundle_basis_refuses_exactly_the_points_the_checks_skip(pair5):
    # about the regularity floor |∇f| = 2√(1 − f²) = EPS_REGULAR
    f = pair5.angle_function()
    for delta in np.geomspace(1e-14, 1e-12, 9):
        p = near_pole(delta)
        regular = bool(is_regular(gradient_norm(f, p.coords)))
        skipped = kt.laplacian_formula_check(pair5, [p]).skipped == 1
        assert regular is not skipped
        if regular:
            assert len(kt.hbundle_basis(pair5, p)) == 2
        else:
            with pytest.raises(RegularityError):
                kt.hbundle_basis(pair5, p)


def test_sub_bundle_checks_evaluate_just_outside_the_skip_band(pair5):
    p = near_pole(1e-5)
    for check in SUB_BUNDLE_CHECKS:
        rep = check(pair5, [p])
        assert rep.skipped == 0 and rep.count > 0 and rep.passed
    assert len(kt.hbundle_basis(pair5, p)) == 2


def near_focal(dim, f, count=20):
    """Seeded points of S^dim where the standard pair's angle function
    f = 1 − 2|(x₀, x₁)|² takes the value f."""
    rng = np.random.default_rng(dim)
    head, rest = rng.standard_normal((count, 2)), rng.standard_normal((count, dim - 1))
    for part, square in ((head, (1.0 - f) / 2.0), (rest, (1.0 + f) / 2.0)):
        part *= np.sqrt(square) / np.linalg.norm(part, axis=1, keepdims=True)
    return np.hstack([head, rest])


@pytest.mark.parametrize("dim", (5, 7))
@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-5, 1e-8, 1e-12, 1.5e-13])
def test_sub_bundle_checks_stay_at_rounding_near_the_focal_sets(dim, delta):
    # down to 1 − f² ≈ 2·delta = 3e-13, just above the regularity floor
    # 2.5e-13, the residue projector keeps the Laplacian and Hessian readings
    # at a few units of rounding, where a Gram-inverse projector loses digits
    # like ε/(1 − |f|); φJ squared against Q grows like ε/√(1 − f²), so
    # within 1e-13 only down to delta = 1e-5 and within 1e-9 to the floor
    pair = kt.standard_pair(dim)
    for sign in (1, -1):
        x = near_focal(dim, sign * (1.0 - delta))
        assert np.max(np.abs(values(pair.angle_function(), x) - sign * (1.0 - delta))) <= 1e-12
        for check in SUB_BUNDLE_CHECKS:
            rep = check(pair, x)
            assert (rep.count > 0, rep.skipped, rep.passed) == (True, 0, True), check.__name__
            bound = 1e-9 if check is kt.phi_product_spectrum_check and delta < 1e-5 else 1e-13
            assert rep.max <= bound, (check.__name__, sign, rep.max)


LEVEL_SET_CHECKS = ("geodesic_field", "mean_curvature_identity", "ricci_normal", "nu_form",
                    "critical_condition", "laplacian_formula", "phi_product_spectrum",
                    "hessian_restricted")


@pytest.mark.parametrize("dim", (3, 5, 7))
def test_level_set_checks_skip_the_same_focal_points(dim):
    # one regularity mask: at points where f = ±1 exactly, every check read
    # on the level sets skips them, and reads the regular points beside them
    pair = kt.standard_pair(dim)
    x = np.vstack([angle_points(pair, 10, 5), near_focal(dim, 1.0, 3), near_focal(dim, -1.0, 4)])
    assert np.max(np.abs(np.abs(values(pair.angle_function(), x[10:])) - 1.0)) <= 1e-15
    config = SuiteConfig(manifold=f"s{dim}", samples=len(x), seed=1)
    reports = {name: check() for name, check in _check_catalog(pair, [x], config)}
    assert all(rep.passed for rep in reports.values())
    skipped = {name: reports[name].skipped for name in LEVEL_SET_CHECKS if name in reports}
    assert len(skipped) == (8 if dim > 3 else 6)
    assert set(skipped.values()) == {7}, skipped


@pytest.mark.parametrize("dim", (3, 5, 7))
def test_default_verify_never_asks_whether_the_seeds_span(dim, monkeypatch):
    # the seeds' rank test belongs to the frames only (the diagonal of
    # frame_batch's QR), which verify builds none of
    def refuse(*args):
        raise AssertionError("frame_batch called")

    monkeypatch.setattr(manifold, "frame_batch", refuse)
    monkeypatch.setattr(kt.double_kcontact, "frame_batch", refuse)
    assert all(rep.passed for rep in run_suite(SuiteConfig(manifold=f"s{dim}")))
    pair = kt.standard_pair(dim)
    with pytest.raises(AssertionError, match="frame_batch"):
        kt.hbundle_basis(pair, kt.SpherePoint(angle_points(pair, 1, 1)[0]))


def test_laplacian_formula_s3_reduces_to_8f(pair3, pts3):
    rep = kt.laplacian_formula_check(pair3, pts3)
    assert rep.passed and rep.max < 1e-7


def trace_jphi(pair, x, basis):
    """Σ g(J φ E_i, E_i) over the rows E_i of the frames (N, k, m+1)."""
    return np.sum(dot(jphi(pair, x[:, None, :], basis), basis), axis=-1)


def test_laplacian_formula_s5_trace_term(pair5, pts5):
    # J phi = -Id on the sub-bundle for this pair: trace term is -2
    x = pts5[:10]
    assert np.max(np.abs(trace_jphi(pair5, x, sub_bundle(pair5, x)) + 2.0)) < 1e-12
    rep = kt.laplacian_formula_check(pair5, pts5)
    assert rep.passed and rep.max < 1e-7


def test_laplacian_formula_frame_independence(pair5, pts5):
    x = pts5[:10]
    b1 = sub_bundle(pair5, x)
    b2 = rotate_completion(b1, 0)
    assert np.max(np.abs(trace_jphi(pair5, x, b1) - trace_jphi(pair5, x, b2))) < 1e-8


def test_laplacian_formula_matches_independent_laplacian(pair5, pts5):
    # two code paths, one number
    f = pair5.angle_function()
    x = pts5[:10]
    rhs = 12.0 * values(f, x) + 2.0 * trace_jphi(pair5, x, sub_bundle(pair5, x))
    assert np.max(np.abs(laplacian_batch(f, x) - rhs)) < 1e-7


def test_dim_theorem_s3(pair3, pts3):
    rep = kt.dim_theorem_check(pair3, pts3)
    assert rep.passed and rep.max < 1e-7


def test_dim_theorem_s5_offset_minus_four(pair5, pts5):
    rep = kt.dim_theorem_check(pair5, pts5)
    assert rep.passed
    assert "c0 = -4" in rep.provenance


def test_dim_theorem_alternate_pair_offset_plus_four():
    pair = block_pair([1, 1, 1], [-1, -1, 1])
    rep = kt.dim_theorem_check(pair, angle_points(pair, 30, 13))
    assert rep.passed
    assert "c0 = +4" in rep.provenance


def test_dim_theorem_fails_for_a_shifted_offset(pair5, pts5, monkeypatch):
    # c0 comes from the generators' profile, not from the points
    profile = kt.double_kcontact.expected_laplacian_profile
    assert kt.dim_theorem_check(pair5, pts5).passed
    monkeypatch.setattr(kt.double_kcontact, "expected_laplacian_profile",
                        lambda d: (profile(d)[0], profile(d)[1] + 1e-5))
    rep = kt.dim_theorem_check(pair5, pts5)
    assert not rep.passed and abs(rep.max - 1e-5) <= 1e-9


def test_dim_theorem_unsupported_dimension():
    pair7 = kt.standard_pair(7)
    pts = sample_coords(5, 3, 8)
    with pytest.raises(UnsupportedDimensionError):
        kt.dim_theorem_check(pair7, pts)


@pytest.mark.parametrize("dim", (3, 5))
def test_dim_theorem_without_points_is_vacuous(dim):
    rep = kt.dim_theorem_check(kt.standard_pair(dim), [])
    assert (rep.count, rep.skipped, rep.max, rep.passed) == (0, 0, 0.0, True)


def test_s7_laplacian_profile_from_generators():
    pair7 = kt.standard_pair(7)
    slope, offset = kt.expected_laplacian_profile(pair7)
    assert slope == 16.0 and offset == -8.0
    f = pair7.angle_function()
    x = angle_points(pair7, 10, 3)
    assert np.max(np.abs(laplacian_batch(f, x) - (16.0 * values(f, x) - 8.0))) < 1e-10


def test_phi_product_spectrum_s5(pair5, pts5):
    rep = kt.phi_product_spectrum_check(pair5, pts5)
    assert rep.passed
    assert "[-1]" in rep.provenance  # eigenvalues all -1 for this pair


def phi_product_matrix(pair, x, basis):
    """m[j, i] = g(φJ E_i, E_j) over the frames (N, k, m+1) at x."""
    p = x[:, None, :]
    phi_j = pair.s_beta.phi_at(p, pair.s_alpha.phi_at(p, basis))
    return dot(phi_j[:, None, :, :], basis[:, :, None, :])


def test_phi_product_squares_to_identity(pair5, pts5):
    x = pts5[:10]
    m = phi_product_matrix(pair5, x, sub_bundle(pair5, x))
    assert np.max(np.abs(m @ m - np.eye(2))) < 1e-8


def test_phi_product_spectrum_vacuous_on_s3(pair3, pts3):
    rep = kt.phi_product_spectrum_check(pair3, pts3)
    assert rep.passed and rep.max == 0.0


@pytest.mark.parametrize("dim", (5, 7))
def test_phi_product_spectrum_fails_for_a_scaled_phi_j(dim, monkeypatch):
    # φJ 1 + 1e-6 too long: M² − Q reads 2e-6 on the projector's largest
    # entries, (φJ − Jφ)Q 1e-6
    pair = kt.standard_pair(dim)
    x = angle_points(pair, 40, 5)
    assert kt.phi_product_spectrum_check(pair, x).passed
    dk, eps = kt.double_kcontact, 1e-6
    real = dk._phi_chain
    monkeypatch.setattr(dk, "_phi_chain", lambda y, first, second: real(y, first, second) * (
        1.0 + eps if first is pair.s_alpha else 1.0))
    rep = kt.phi_product_spectrum_check(pair, x)
    assert not rep.passed
    assert 1.5 * eps < rep.max < 2.0 * eps + 1e-12


def test_phi_product_alternate_pair_mixed_spectrum():
    pair = block_pair([1, 1, 1], [-1, -1, 1])
    rep = kt.phi_product_spectrum_check(pair, angle_points(pair, 20, 13))
    assert rep.passed
    assert "[1]" in rep.provenance  # J phi = +Id on the sub-bundle here


def test_hessian_restriction_s5(pair5, pts5):
    rep = kt.hessian_restriction_check(pair5, pts5)
    assert rep.passed and rep.max < 1e-7


def test_hessian_diagonal_value_s5(pair5, pts5):
    # with J phi = -Id on the sub-bundle: Hess(E,E) = -2f + 2
    f = pair5.angle_function()
    x = pts5[:10]
    e = sub_bundle(pair5, x)[:, 0]
    hess = np.einsum("...i,...ij,...j->...", e, shape_matrix(ambient_gradient_field(f), x), e)
    assert np.max(np.abs(hess - (2.0 - 2.0 * values(f, x)))) < 1e-10


def test_hessian_restricted_rhs_symmetric(pair5, pts5):
    x = pts5[:10]
    a, b = np.moveaxis(sub_bundle(pair5, x), 1, 0)
    lhs = dot(jphi(pair5, x, a), b)
    rhs = dot(jphi(pair5, x, b), a)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_ricci_normal_check(pair3, pair5, pts3, pts5):
    assert kt.ricci_normal_check(pair3, pts3).passed
    assert kt.ricci_normal_check(pair5, pts5).passed


@pytest.mark.parametrize("dim", (3, 5, 7))
def test_ricci_normal_fails_for_a_curvature_off_by_its_first_argument(dim, monkeypatch):
    # R(u, v)w + ε·u adds ε·Σ_a |P·e_a|² = ε·tr P = m·ε to the trace
    # Σ_a g(R(P·e_a, E)N, P·e_a) that the first NUMERIC_SUBSET points read
    pair = kt.standard_pair(dim)
    x = angle_points(pair, 40, 5)
    assert kt.ricci_normal_check(pair, x).passed
    real, eps = kt.double_kcontact.curvature_numeric_batch, 1e-6
    monkeypatch.setattr(kt.double_kcontact, "curvature_numeric_batch",
                        lambda y, u, v, w: real(y, u, v, w) + eps * u)
    rep = kt.ricci_normal_check(pair, x)
    assert not rep.passed
    assert abs(rep.max - dim * eps) <= 1e-12
    monkeypatch.setattr(kt.double_kcontact, "NUMERIC_SUBSET", 0)
    assert kt.ricci_normal_check(pair, x).passed


def scaled_gradient_pair(dim, scale):
    """The standard pair whose angle function keeps its values but carries
    its closed-form gradient times ``scale``."""
    pair = kt.standard_pair(dim)
    f = pair.angle_function()
    pair.angle_function = lambda: kt.ScalarField(
        eval=f.eval, grad=lambda y: scale * f.grad(y), label=f.label)
    return pair


@pytest.mark.parametrize("dim", (5, 7))
def test_hessian_restricted_fails_for_a_scaled_gradient(dim):
    # Hess_f read from a gradient 1 + 1e-6 too long is 1e-6 too large
    # relative, against |Hess| ≈ 2 on the sub-bundle
    x = angle_points(kt.standard_pair(dim), 40, 5)
    diagnostics = []
    for scale in (1.0, 1.0 + 1e-6):
        rep = kt.hessian_restriction_check(scaled_gradient_pair(dim, scale), x)
        assert rep.passed is (scale == 1.0)
        assert (scale == 1.0) or 1e-6 < rep.max < 1e-5
        diagnostics.append(float(re.search(r"max (\S+)$", rep.provenance).group(1)))
    assert diagnostics[0] <= 1e-14
    assert 5e-7 < diagnostics[1] < 5e-6


def test_pair_descriptor_round_trip(pair5):
    desc = pair5.to_descriptor()
    assert desc == {"dimension": 5,
                    "J1": block_diag_complex_structure([1, 1, 1]).mat.tolist(),
                    "J2": block_diag_complex_structure([-1, 1, 1]).mat.tolist()}
    rebuilt = kt.DoubleKContact.from_descriptor(desc)
    p = np.array([0, 1.0, 0, 0, 0, 0])
    assert np.allclose(reebs(rebuilt, p), reebs(pair5, p))


def test_pair_descriptor_rejects_a_wrong_dimension(pair5):
    desc = dict(pair5.to_descriptor(), dimension=3)
    with pytest.raises(ConstructionError):
        kt.DoubleKContact.from_descriptor(desc)


def rotated_pair(dim, j2_signs):
    """Q·diag(j, j, ...)·Qᵀ against Q·diag(±j, ...)·Qᵀ, with one seeded
    orthogonal Q per dimension."""
    q, _ = np.linalg.qr(np.random.default_rng(dim).standard_normal((dim + 1, dim + 1)))
    j1, j2 = (kt.OrthoComplexStructure(q @ block_diag_complex_structure(signs).mat @ q.T)
              for signs in ([1] * len(j2_signs), j2_signs))
    return kt.make_double(j1, j2)


# every block sign pattern of J2 other than ±J1
ROTATED = [(dim, signs) for dim in (3, 5, 7)
           for signs in itertools.product((1, -1), repeat=(dim + 1) // 2)
           if abs(sum(signs)) < (dim + 1) // 2]


@pytest.mark.parametrize("dim, signs", ROTATED, ids=[
    f"s{dim}{''.join('+-'[s < 0] for s in signs)}" for dim, signs in ROTATED])
def test_rotated_pairs_pass_every_catalog_check(dim, signs):
    pair = rotated_pair(dim, signs)
    assert not pair.degenerate
    config = SuiteConfig(manifold=f"s{dim}", samples=30, seed=1)
    f = pair.angle_function()
    x = sample_blocks(config.samples, config.seed, pair.ambient_dim, manifold.BLOCK,
                      exclusion=lambda y: np.abs(value(f.eval(y))) > config.exclusion)
    for name, check in _check_catalog(pair, x, config):
        rep = check()
        assert rep.passed, (name, rep.max, rep.tolerance)
        if name == "gradient_identity":
            assert "both pairings hold" in rep.provenance


FRAME_FREE_CHECKS = ("contact_axioms", "laplacian_formula", "phi_product_spectrum",
                     "hessian_restricted", "ricci_normal")


def catalog_reports(dim, samples=200, seed=1):
    """The reports of the catalog checks read on projectors and drawn
    vectors, on the standard pair at ``samples`` points drawn as
    ``run_suite`` draws them."""
    pair = kt.standard_pair(dim)
    config = SuiteConfig(manifold=f"s{dim}", samples=samples, seed=seed)
    f = pair.angle_function()
    x = sample_blocks(samples, seed, pair.ambient_dim, manifold.BLOCK,
                      exclusion=lambda y: np.abs(value(f.eval(y))) > config.exclusion)
    return {name: check() for name, check in _check_catalog(pair, x, config)
            if name in FRAME_FREE_CHECKS}


@pytest.mark.parametrize("dim", (3, 5, 7))
def test_frame_free_checks_do_not_depend_on_the_draw(dim, monkeypatch):
    # the drawn directions play the part a frame's completion used to
    plain = catalog_reports(dim)
    dk = kt.double_kcontact
    monkeypatch.setattr(dk, "HESSIAN_SEED", dk.HESSIAN_SEED + 1000)
    monkeypatch.setattr(dk, "RICCI_SEED", dk.RICCI_SEED + 1000)
    redrawn = catalog_reports(dim)
    assert redrawn.keys() == plain.keys()
    for name, rep in redrawn.items():
        assert (rep.count, rep.skipped, rep.passed) == (
            plain[name].count, plain[name].skipped, plain[name].passed), name
        assert rep.max <= 1e-13, (name, rep.max)
    drawn = ["ricci_normal"] + ["hessian_restricted"] * (dim > 3)
    assert all(redrawn[name].mean != plain[name].mean for name in drawn)


SUB_BUNDLE_PAIRS = [(dim, None) for dim in (5, 7)] + [
    (dim, signs) for dim, signs in ROTATED if dim > 3]


@pytest.mark.parametrize("dim, signs", SUB_BUNDLE_PAIRS, ids=[
    f"s{dim}" + ("" if signs is None else "".join("+-"[s < 0] for s in signs))
    for dim, signs in SUB_BUNDLE_PAIRS])
def test_sub_bundle_readings_match_the_frame_oracle(dim, signs):
    # tr(Q·Jφ) is the frame trace Σ g(JφE_i, E_i), and tr Q ± tr M are twice
    # the counts of the eigenvalues ±1 of φJ on the frame
    pair = kt.standard_pair(dim) if signs is None else rotated_pair(dim, signs)
    x = angle_points(pair, 30, 7)
    dk = kt.double_kcontact
    q, jphi_rows = dk._sub_bundle(pair, x)
    frames = hbundle_frames(pair, x)
    assert np.max(np.abs(np.sum(dot(jphi_rows, q), axis=-1)
                         - trace_jphi(pair, x, frames))) <= 1e-13
    m = q @ dk._phi_chain(x, pair.s_alpha, pair.s_beta) @ q
    eig = np.linalg.eigvalsh(phi_product_matrix(pair, x, frames))
    tr_q, tr_m = np.trace(q, axis1=1, axis2=2), np.trace(m, axis1=1, axis2=2)
    for sign, twice in ((1, tr_q + tr_m), (-1, tr_q - tr_m)):
        assert np.array_equal(np.rint(0.5 * twice), np.sum(np.rint(eig) == sign, axis=-1))
    seen = sorted(set(np.rint(eig).astype(int).ravel().tolist()))
    rep = kt.phi_product_spectrum_check(pair, x)
    assert rep.provenance.endswith(f"eigenvalues seen: {seen}")


def test_rotated_pair_descriptor_round_trip():
    pair = rotated_pair(5, (1, -1, 1))
    desc = json.loads(json.dumps(pair.to_descriptor()))
    rebuilt = kt.DoubleKContact.from_descriptor(desc)
    assert rebuilt.to_descriptor() == desc == pair.to_descriptor()
    assert ((rebuilt.s_alpha.sigma, rebuilt.s_beta.sigma)
            == (pair.s_alpha.sigma, pair.s_beta.sigma))


def test_seven_sphere_pair_invariants():
    pair7 = kt.standard_pair(7)
    pts = angle_points(pair7, 10, 3)
    assert kt.commuting_invariants_check(pair7, pts).passed
    assert kt.gradient_identity_check(pair7, pts).passed
    assert kt.transnormal_b_check(pair7, pts).passed
    assert kt.laplacian_formula_check(pair7, pts).passed
