"""Energy machinery: shape operators, first variation, spectra, criteria."""


import numpy as np
import pytest

import kontact as kt
from kontact import ad, manifold
from kontact.errors import PreconditionError, RegularityError
from kontact.harmonic import (
    UnitVectorField,
    _contract,
    _covectors,
    _harmonic_block,
    _jet,
    _trace_l_batch,
    harmonicity_form,
    mean_curvature_of_field,
    normalized_constant_unit_field,
    weingarten_ambient_matrix,
)
from kontact.manifold import (
    cov_deriv_batch,
    frame_batch,
    inner,
    proj_np,
    random_tangent_batch,
    sample_coords,
    shape_matrix,
    shape_norm_sq,
)
from kontact.scalar_fields import EPS_REGULAR, gradient_batch, level_mean_curvature_batch

from finite_differences import fd_curve_derivative_5pt
from oracles import (
    harmonicity_form_batch,
    mean_curvature_derivative,
    regular_mask,
    trace_l,
    values,
)
from rotated_frames import rotate_completion
from test_double_kcontact import ROTATED, rotated_pair


@pytest.fixture(scope="module")
def reeb3(pair3):
    return kt.reeb_unit_field(pair3.s_alpha)


@pytest.fixture(scope="module")
def nfield3(angle3):
    return kt.normalized_gradient_unit_field(angle3)


@pytest.fixture(scope="module")
def nfield5(angle5):
    return kt.normalized_gradient_unit_field(angle5)


@pytest.fixture(scope="module")
def twisted():
    return kt.twisted_unit_field(np.array([1.0, 0.4, -0.2, 0.3]),
                                 np.array([0.2, -1.0, 0.5, 0.1]),
                                 np.array([-0.3, 0.2, 1.0, -0.5]))


def field_at(zf, x):
    """The unit field Z at the points x."""
    return proj_np(x, np.asarray(ad.value(zf.field.eval(x)), dtype=float))


def weingarten(zf, x, u):
    """A_Z u = −∇_u Z at the points x."""
    return -cov_deriv_batch(zf.field, x, u)


def weingarten_matrix(zf, x):
    """Ambient matrix of A_Z at the points x, minus the shape matrix."""
    return -shape_matrix(zf.field, x)


def level_shape_operator(zf, x):
    """A_Z restricted to Z^⊥ at the points x, in a frame of Z^⊥: the
    matrix (N, m−1, m−1) and that frame (N, m−1, m+1)."""
    basis = frame_batch(x, field_at(zf, x)[:, None, :])[:, 1:]
    return basis @ weingarten_matrix(zf, x) @ np.swapaxes(basis, -1, -2), basis


def shape_spectrum(zf, x):
    """Eigenvalues (ascending) and eigenvectors of the symmetric part of
    A_Z on Z^⊥ at the points x, the eigenvectors as ambient rows."""
    amat, basis = level_shape_operator(zf, x)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (amat + np.swapaxes(amat, -1, -2)))
    return eigvals, np.swapaxes(eigvecs, -1, -2) @ basis


def test_weingarten_of_reeb_is_phi(pair3, reeb3, pts3, rng):
    # A_Z = phi, pinned by |grad Z|^2 = 2n
    x = pts3[:10]
    u = random_tangent_batch(x, rng, ())
    assert np.allclose(weingarten(reeb3, x, u), pair3.s_alpha.phi_at(x, u), atol=1e-12)
    a = weingarten_matrix(reeb3, x)
    assert np.max(np.abs(np.sum(a * a, axis=(-2, -1)) - 2.0)) < 1e-12
    for p, row in zip(x[:3], a):
        assert np.array_equal(weingarten_ambient_matrix(reeb3, kt.SpherePoint(p)), row)


def test_weingarten_preserves_orthogonality_to_unit_field(reeb3, pts3):
    x = pts3[:1]
    z = field_at(reeb3, x)
    assert abs(inner(weingarten(reeb3, x, z), z)[0]) < 1e-12


def test_weingarten_of_gradient_kills_normal(nfield3, pts3):
    # A_N N = 0 because N is geodesic
    x = pts3[:10]
    n = field_at(nfield3, x)
    assert np.max(np.linalg.norm(weingarten(nfield3, x, n), axis=-1)) < 1e-10


def test_weingarten_guard(nfield3):
    pole = kt.SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(RegularityError):
        weingarten_ambient_matrix(nfield3, pole)


def test_weingarten_transpose_adjoint_contract(reeb3, nfield3, pts3, rng):
    # the transposed ambient matrix against the connection
    x = pts3[:6]
    for zf in (reeb3, nfield3):
        u, v = np.moveaxis(random_tangent_batch(x, rng, (2,)), 1, 0)
        at_u = np.einsum("pji,pj->pi", weingarten_matrix(zf, x), u)
        lhs = inner(at_u, v)
        rhs = inner(u, weingarten(zf, x, v))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_weingarten_transpose_skew_for_killing(reeb3, pts3, rng):
    x = pts3[:6]
    u = random_tangent_batch(x, rng, ())
    at_u = np.einsum("pji,pj->pi", weingarten_matrix(reeb3, x), u)
    assert np.allclose(at_u, -weingarten(reeb3, x, u), atol=1e-8)


def test_weingarten_transpose_symmetric_for_gradient(nfield3, pts3, rng):
    x = pts3[:6]
    u = random_tangent_batch(x, rng, ())
    at_u = np.einsum("pji,pj->pi", weingarten_matrix(nfield3, x), u)
    assert np.allclose(at_u, weingarten(nfield3, x, u), atol=1e-8)


def test_trace_l_of_reeb_constant(reeb3, pts3):
    assert np.max(np.abs(trace_l(reeb3, pts3[:10]) - 5.0)) < 1e-12


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_trace_l_of_unit_gradient_matches_the_closed_form(dim):
    # the levels of f = xᵀAx, A = diag(−1, −1, 1, …, 1), are the tori
    # S¹ × S^{m−2}, so tr L_N = m + (1+f)/(1−f) + (m−2)(1−f)/(1+f)
    f = kt.standard_pair(dim).angle_function()
    g = np.random.default_rng(dim).standard_normal((4000, dim + 1))
    x = g / np.linalg.norm(g, axis=1, keepdims=True)
    fv = np.sum(np.where(np.arange(dim + 1) < 2, -1.0, 1.0) * x * x, axis=1)
    assert np.max(np.abs(fv - ad.value(f.eval(x)))) <= 1e-15
    keep = np.abs(fv) <= 0.9
    x, fv = x[keep][:2000], fv[keep][:2000]
    assert len(x) == 2000
    tr, keep = _trace_l_batch(kt.normalized_gradient_unit_field(f), x)
    assert keep.all()
    closed = dim + (1 + fv) / (1 - fv) + (dim - 2) * (1 - fv) / (1 + fv)
    assert np.max(np.abs(tr - closed) / closed) <= 1e-12


def cubic_field(dim):
    """x ↦ ⟨x, a⟩³ + |x|²⟨x, b⟩: a Jacobian of the ambient gradient that
    depends on x, and no closed-form gradient, so the gradient is the
    dual one (``ad.jacobian_rows``), nested in the jet of the checks."""
    rng = np.random.default_rng(100 + dim)
    a, b = rng.standard_normal((2, dim + 1))
    return kt.ScalarField(
        eval=lambda x: ad.dot(x, a) ** 3 + ad.dot(x, x) * ad.dot(x, b), label="cubic")


def potential_field(name, dim):
    """The angle function of the shipped pair, the height function x_1 or
    the cubic on S^dim."""
    return {"angle": lambda: kt.standard_pair(dim).angle_function(),
            "height": lambda: kt.coordinate_field(1, dim + 1),
            "cubic": lambda: cubic_field(dim)}[name]()


@pytest.mark.parametrize("dim", [3, 5, 7])
@pytest.mark.parametrize("potential", ["angle", "height", "cubic"])
def test_trace_l_of_unit_gradient_from_the_hessian(dim, potential):
    # the Hessian route against the dual Jacobian of N = ∇f/|∇f| itself;
    # a height function has J = 0, the cubic a Jacobian that varies by point
    f = potential_field(potential, dim)
    zf = kt.normalized_gradient_unit_field(f)
    assert zf.potential is f
    x = sample_coords(500, dim, dim + 1)
    x = x[zf.domain(x)]
    if potential == "angle":
        x = x[np.abs(values(f, x)) <= 0.9]
    assert len(x) > 200
    hessian = _trace_l_batch(zf, x)[0]
    dual = dim + shape_norm_sq(zf.field, x)
    assert np.max(np.abs(hessian - dual) / dual) <= 1e-12


def scaled_potential(f, c):
    """c·f, with c times the closed-form gradient of f if it has one."""
    grad = None if f.grad is None else (lambda y: c * f.grad(y))
    return kt.ScalarField(eval=lambda y: c * f.eval(y), grad=grad, label=f"{c}·{f.label}")


def unit_rows(y):
    return y / np.linalg.norm(y, axis=-1, keepdims=True)


@pytest.mark.parametrize("dim", [3, 5, 7])
@pytest.mark.parametrize("potential", ["angle", "height", "cubic"])
def test_unit_gradient_guard_matches_the_gradient_norm(dim, potential):
    # one regularity policy, |P·∇f| >= EPS_REGULAR, read three ways: the
    # field's domain, the keep mask the sweep gives nu_form and
    # critical_condition, and the rows the energy block kernel keeps (from
    # the |P·V| of its own integrand); each must keep exactly the points
    # an independent numpy norm keeps, and the one-point wrappers raise
    f = potential_field(potential, dim)
    zf = kt.normalized_gradient_unit_field(f)
    assert zf.guard(np.eye(dim + 1)).all()              # regularity is not the guard's
    rng = np.random.default_rng(200 + dim)
    x = sample_coords(2000, 50 + dim, dim + 1)
    planted = []
    if potential == "angle":
        # the focal sets of f = xᵀAx: x₁ = x₂ = 0 (f = 1) and x₃ = … = 0
        # (f = −1), and points that approach the first one, |∇f| ≈ 4t·|(x₁, x₂)|
        for zero in (slice(0, 2), slice(2, None)):
            y = rng.standard_normal((50, dim + 1))
            y[:, zero] = 0.0
            planted.append(unit_rows(y))
        near = x[:60].copy()
        near[:, :2] *= np.geomspace(1e-9, 1e-4, 60)[:, None]
        x = np.concatenate([x, unit_rows(near)])
    elif potential == "height":
        e = np.eye(dim + 1)[1]
        tangent = proj_np(e, rng.standard_normal((60, dim + 1)))
        near = e + np.geomspace(1e-9, 1e-4, 60)[:, None] * unit_rows(tangent)
        planted.append(np.stack([e, -e]))
        x = np.concatenate([x, unit_rows(near)])
    for y in planted:
        assert not zf.domain(y).any()
        assert not regular_mask(f, y).any()
        p = kt.SpherePoint(y[0])
        w = kt.TangentVector(p, proj_np(y[0], rng.standard_normal(dim + 1)))
        for wrapper, arg in ((weingarten_ambient_matrix, p), (mean_curvature_of_field, p),
                             (harmonicity_form, w)):
            with pytest.raises(RegularityError):
                wrapper(zf, arg)
    y = np.concatenate([x] + planted)
    mask = regular_mask(f, y)
    assert mask.any() and (potential == "cubic" or not mask.all())
    assert np.array_equal(zf.domain(y), mask)
    vals, keep = _trace_l_batch(zf, y)
    assert np.array_equal(keep, mask)
    assert np.all(np.isfinite(vals)) and np.all(vals[~mask] == 0.0)
    sub = np.concatenate([x[::10], x[2000:]] + planted)  # the planted rows, and a sample
    skipped = int(np.count_nonzero(~regular_mask(f, sub)))
    for check in (kt.harmonicity_check, kt.critical_condition_check):
        rep = check(zf, sub)
        assert (rep.count, rep.skipped) == (len(sub) - skipped, skipped)
    # scale f so that |P·∇f| at a point lies a factor 1 ± δ from EPS_REGULAR
    p = x[:10]
    r = np.sqrt(inner(gradient_batch(f, p), gradient_batch(f, p)))
    for point, norm in zip(p, r):
        for step in (-1e-3, -1e-9, 1e-9, 1e-3):
            fc = scaled_potential(f, EPS_REGULAR * (1.0 + step) / norm)
            zc = kt.normalized_gradient_unit_field(fc)
            assert bool(regular_mask(fc, point)) is (step > 0)
            assert bool(zc.domain(point)) is (step > 0)
            assert bool(_trace_l_batch(zc, point)[1]) is (step > 0)


@pytest.mark.parametrize("dim", [3, 5, 7])
@pytest.mark.parametrize("field", ["angle", "cubic", "reeb"])
def test_trace_l_follows_the_batch_convention(dim, field):
    # the unit-gradient kernel lays its points out coordinate-major inside;
    # two leading axes, a strided slice and a Fortran-ordered copy must give
    # the rows of the flat C-ordered result bit for bit
    if field == "reeb":
        zf = kt.reeb_unit_field(kt.standard_pair(dim).s_alpha)
    else:
        zf = kt.normalized_gradient_unit_field(potential_field(field, dim))
    x = sample_coords(600, 60 + dim, dim + 1)
    x = x[zf.domain(x)][:400]
    assert len(x) == 400
    flat, keep = _trace_l_batch(zf, x)
    assert keep.all()
    for got, want in zip(_trace_l_batch(zf, x.reshape(2, 200, dim + 1)),
                         (flat.reshape(2, 200), keep.reshape(2, 200))):
        assert np.array_equal(got, want)
    assert not x[::2].flags.c_contiguous
    assert np.array_equal(_trace_l_batch(zf, x[::2])[0], flat[::2])
    fortran = np.asfortranarray(x)
    assert not fortran.flags.c_contiguous
    assert np.array_equal(_trace_l_batch(zf, fortran)[0], flat)


def test_trace_l_equals_frame_sum(reeb3, nfield3, pts3):
    x = pts3[:1]
    frame = frame_batch(x)
    for zf in (reeb3, nfield3):
        a_e = weingarten(zf, x[:, None, :], frame)
        frame_sum = 3.0 + np.sum(inner(a_e, a_e), axis=-1)
        assert abs(trace_l(zf, x)[0] - frame_sum[0]) < 1e-10


def pullback_metric(zf, x, u, v):
    """Induced metric g(u,v) + g(∇_u Z, ∇_v Z) at the points x."""
    return inner(u, v) + inner(cov_deriv_batch(zf.field, x, u), cov_deriv_batch(zf.field, x, v))


def test_pullback_metric_dominates_round_metric(reeb3, pts3, rng):
    x = pts3[:6]
    u = random_tangent_batch(x, rng, ())
    assert np.all(pullback_metric(reeb3, x, u, u) >= inner(u, u) - 1e-14)


def test_pullback_metric_value_on_reeb(pair3, reeb3, pts3, rng):
    # g(u,v) + g(phi u, phi v) doubles the transverse part
    x = pts3[:1]
    z = x @ pair3.s_alpha.j_ambient.mat.T
    u = random_tangent_batch(x, rng, ())
    u = u - inner(u, z)[:, None] * z
    u = u / np.sqrt(inner(u, u))[:, None]
    assert abs(pullback_metric(reeb3, x, u, u)[0] - 2.0) < 1e-12


def test_energy_reeb_closed_form():
    # tr L of a Reeb field is the constant 2m−1, so the estimate is the
    # closed form up to rounding, not up to a Monte Carlo error band
    assert abs(kt.reeb_energy_closed_form(3) - 5.0 * np.pi ** 2) < 1e-12
    for m in (3, 5, 7):
        zf = kt.reeb_unit_field(kt.standard_pair(m).s_alpha)
        est = kt.energy(zf, 20_000, 1, m + 1)
        closed = kt.reeb_energy_closed_form(m)
        assert abs(est.estimate - closed) <= 1e-12 * closed, m
        assert est.skipped == 0


def test_energy_two_seeds_agree(reeb3):
    e1 = kt.energy(reeb3, 50_000, 11, 4)
    e2 = kt.energy(reeb3, 50_000, 12, 4)
    band = 3.0 * np.hypot(e1.stderr, e2.stderr) + 1e-9 * abs(e1.estimate)
    assert abs(e1.estimate - e2.estimate) <= band


@pytest.mark.parametrize("samples", (0, 1))
def test_energy_needs_two_samples(reeb3, samples):
    with pytest.raises(ValueError, match="samples must be >= 2"):
        kt.energy(reeb3, samples, 1, 4)


def test_energy_parallel_stub(reeb3, monkeypatch):
    # zero shape operator: E = (m/2) Vol
    monkeypatch.setattr("kontact.harmonic._trace_l_batch",
                        lambda zf, pts: (np.full(len(pts), 3.0), np.ones(len(pts), bool)))
    est = kt.energy(reeb3, 10_000, 5, 4)
    assert abs(est.estimate - 1.5 * kt.sphere_volume(3)) < 1e-9


def test_energy_regression_of_gradient_field(angle3, nfield3):
    # restricted-domain golden value, frozen from two verified seeds
    from kontact.harmonic import UnitVectorField

    def guard(points):
        fv = np.asarray(ad.value(angle3.eval(points)), dtype=float)
        return nfield3.domain(points) & (np.abs(fv) <= 0.9)

    # no potential: the guard holds the whole domain
    zf = UnitVectorField(nfield3.field, guard=guard, label="N|f|<=0.9")
    e1 = kt.energy(zf, 100_000, 1, 4)
    e2 = kt.energy(zf, 100_000, 2, 4)
    assert abs(e1.estimate - 66.925276) < 1e-5  # exact reproduction, seed 1
    band = 3.0 * np.hypot(e1.stderr, e2.stderr)
    assert abs(e1.estimate - e2.estimate) <= band
    assert e1.skipped > 0


def test_energy_raises_where_its_integrand_is_not_finite_in_the_domain(monkeypatch):
    # without its potential the unit gradient of f is defined up to the
    # focal sets of f, where its own formula divides by |∇f| = 0: a focal
    # sample raises instead of giving a NaN estimate; with the potential
    # the same sample lies outside the domain and is skipped
    f = kt.standard_pair(3).angle_function()
    zf = kt.normalized_gradient_unit_field(f)
    x = sample_coords(1000, 7, 4)
    x[500] = [0.0, 0.0, 1.0, 0.0]
    monkeypatch.setattr("kontact.harmonic.sample_blocks", lambda n, seed, dim, size: [x])
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="not finite"):
        kt.energy(kt.UnitVectorField(zf.field, zf.guard, zf.label), 1000, 7, 4)
    skipped = int(np.count_nonzero(~regular_mask(f, x)))
    assert skipped >= 1
    assert kt.energy(zf, 1000, 7, 4).skipped == skipped
    assert kt.energy(kt.UnitVectorField(zf.field, zf.domain, zf.label),
                     1000, 7, 4).skipped == skipped


def gradient_energy_closed_form(dim, cutoff=0.9):
    """½ ∫ tr L_N dV of the unit gradient of f over |f| ≤ cutoff on S^dim.

    With f = 1 − 2s, s = x₁² + x₂², s is Beta(1, (m−1)/2) under the
    uniform measure, and tr L_N = m + (1+f)/(1−f) + (m−2)(1−f)/(1+f)
    depends on s alone (see the test above), so the integral is one
    Gauss–Legendre sum over s ∈ [(1−cutoff)/2, (1+cutoff)/2]."""
    b = 0.5 * (dim - 1)
    lo, hi = 0.5 * (1.0 - cutoff), 0.5 * (1.0 + cutoff)
    t, w = np.polynomial.legendre.leggauss(64)
    s = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    f = 1.0 - 2.0 * s
    tr = dim + (1 + f) / (1 - f) + (dim - 2) * (1 - f) / (1 + f)
    density = b * (1.0 - s) ** (b - 1.0)
    return 0.5 * kt.sphere_volume(dim) * 0.5 * (hi - lo) * np.sum(w * density * tr)


@pytest.mark.parametrize("dim,closed", [(3, 67.00354), (5, 161.06021), (7, 201.15898)])
def test_energy_of_gradient_field_matches_the_closed_form(dim, closed):
    exact = gradient_energy_closed_form(dim)
    assert abs(exact - closed) <= 1e-5
    f = kt.standard_pair(dim).angle_function()
    nfield = kt.normalized_gradient_unit_field(f)
    zf = kt.UnitVectorField(nfield.field, lambda x: np.abs(ad.value(f.eval(x))) <= 0.9,
                            nfield.label, nfield.potential)
    est = kt.energy(zf, 100_000, 3, dim + 1)
    assert abs(est.estimate - exact) <= 4.0 * est.stderr


def test_energy_does_not_depend_on_the_block_size_or_the_worker(monkeypatch):
    # one piece of 4 · BLOCK ≥ samples, drawn on the calling thread, against
    # 25 pieces at the default BLOCK, each next one drawn on the worker
    monkeypatch.setattr(manifold.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    workers = []

    class Recorded(manifold._DrawAhead):
        def __init__(self, *args):
            workers.append(manifold.BLOCK)
            super().__init__(*args)

    monkeypatch.setattr(manifold, "_DrawAhead", Recorded)
    f = kt.standard_pair(5).angle_function()
    nfield = kt.normalized_gradient_unit_field(f)
    zf = kt.UnitVectorField(nfield.field, lambda x: np.abs(ad.value(f.eval(x))) <= 0.9,
                            nfield.label, nfield.potential)
    default = manifold.BLOCK
    monkeypatch.setattr(manifold, "BLOCK", 25_000)
    one_piece = kt.energy(zf, 100_000, 3, 6)
    monkeypatch.setattr(manifold, "BLOCK", default)
    ahead = kt.energy(zf, 100_000, 3, 6)
    assert workers == [default]
    assert ahead == one_piece
    assert one_piece.skipped > 0


def test_nu_vanishes_for_reeb(reeb3, pts3):
    rep = kt.harmonicity_check(reeb3, pts3)
    assert rep.passed and rep.max < 1e-6


def test_nu_vanishes_for_normalized_gradient(nfield3, pts3):
    rep = kt.harmonicity_check(nfield3, pts3)
    assert rep.passed and rep.max < 1e-6


def test_nu_vanishes_for_radial_field(pts3):
    # the unit projection of a constant is the normalized gradient of a
    # height function, hence harmonic as well
    zf = normalized_constant_unit_field(np.array([0.6, -0.2, 0.5, 1.0]))
    rep = kt.harmonicity_check(zf, pts3)
    assert rep.passed and rep.max < 1e-6


def test_nu_negative_control(twisted, pts3):
    rep = kt.harmonicity_check(twisted, pts3)
    assert not rep.passed
    assert rep.max > 1e-3


def test_nu_requires_orthogonal_direction(reeb3, pts3):
    p = kt.SpherePoint(pts3[0])
    z = kt.TangentVector(p, field_at(reeb3, p.coords))
    with pytest.raises(PreconditionError):
        harmonicity_form(reeb3, z)


def test_nu_frame_independence(nfield3, pts3, rng):
    # the nested oracle's trace over two different frames
    x = pts3[:4]
    seeds = random_tangent_batch(x, rng, ())
    for row, n_row, seed_row in zip(x, field_at(nfield3, x), seeds):
        p = kt.SpherePoint(row)
        n, seed_vec = kt.TangentVector(p, n_row), kt.TangentVector(p, seed_row)
        fr1 = kt.gram_schmidt_frame(p, [n])
        try:
            fr2 = kt.gram_schmidt_frame(p, [n, seed_vec])
        except Exception:
            continue
        w = fr1.matrix[1:2]
        v1 = harmonicity_form_batch(nfield3.field, row, w, fr1.matrix)
        v2 = harmonicity_form_batch(nfield3.field, row, w, fr2.matrix)
        assert abs(v1[0] - v2[0]) < 1e-7


def test_shape_spectrum_clifford_torus(angle3, nfield3):
    q = np.array([[1.0, 0.0, 1.0, 0.0]]) / np.sqrt(2.0)
    eigvals, _ = shape_spectrum(nfield3, q)
    assert abs(np.sum(eigvals)) < 1e-7  # minimal level
    assert eigvals.shape == (1, 2)


def test_shape_spectrum_reconstruction(nfield3, pts3):
    x = pts3[:6]
    eigvals, eigvecs = shape_spectrum(nfield3, x)
    residual = weingarten(nfield3, x[:, None, :], eigvecs) - eigvals[..., None] * eigvecs
    assert np.max(np.linalg.norm(residual, axis=-1)) < 1e-7
    recon = np.einsum("pk,pki,pkj->pij", eigvals, eigvecs, eigvecs)
    n = field_at(nfield3, x)
    proj = np.eye(4) - n[:, :, None] * n[:, None, :] - x[:, :, None] * x[:, None, :]
    assert np.max(np.abs(proj @ (weingarten_matrix(nfield3, x) - recon) @ proj)) < 1e-7


def test_shape_spectrum_h_matches_level_mean_curvature(angle3, nfield3, pts3):
    x = pts3[:8]
    eigvals, _ = shape_spectrum(nfield3, x)
    assert np.max(np.abs(np.sum(eigvals, axis=-1) - level_mean_curvature_batch(angle3, x))) < 1e-7


def test_shape_spectrum_rejects_skew_operator(reeb3, pts3):
    # the Reeb field is geodesic but its complement is not integrable:
    # the shape operator on it is skew, not symmetric
    x = pts3[:10]
    amat, _ = level_shape_operator(reeb3, x)
    assert np.max(np.linalg.norm(weingarten(reeb3, x, field_at(reeb3, x)), axis=-1)) < 1e-12
    assert np.max(np.abs(amat + np.swapaxes(amat, -1, -2))) < 1e-12
    assert np.min(np.max(np.abs(amat - np.swapaxes(amat, -1, -2)), axis=(-2, -1))) > 1.0


def test_shape_spectrum_rejects_non_geodesic(twisted, pts3):
    # the control is not geodesic, or its shape operator is not symmetric
    x = pts3[:10]
    x = x[twisted.guard(x)]
    z = field_at(twisted, x)
    geodesic = np.linalg.norm(cov_deriv_batch(twisted.field, x, z), axis=-1)
    amat, _ = level_shape_operator(twisted, x)
    asym = np.max(np.abs(amat - np.swapaxes(amat, -1, -2)), axis=(-2, -1))
    assert np.any((geodesic > 1e-6) | (asym > 1e-7))


def test_mean_curvature_of_field_matches_level(angle3, nfield3, pts3):
    for x in pts3[:8]:
        p = kt.SpherePoint(x)
        assert abs(mean_curvature_of_field(nfield3, p)
                   - kt.level_mean_curvature(angle3, p)) < 1e-10


@pytest.mark.parametrize("dim", (3, 5, 7))
def test_exact_mean_curvature_derivative_matches_finite_differences(dim):
    # generic tangents, not only directions orthogonal to the field
    f = kt.standard_pair(dim).angle_function()
    zf = kt.normalized_gradient_unit_field(f)
    x = sample_coords(8, 3, dim + 1, exclusion=lambda y: np.abs(values(f, y)) > 0.9)
    u = random_tangent_batch(x, np.random.default_rng(dim), (3,))
    exact = mean_curvature_derivative(zf.field, x, u)
    for p, row, dirs in zip(x, exact, u):
        for value, d in zip(row, dirs):
            fd = fd_curve_derivative_5pt(
                lambda c: mean_curvature_of_field(
                    zf, kt.SpherePoint(c / np.linalg.norm(c))), p, d)
            assert abs(value - fd) <= 1e-6


@pytest.mark.parametrize("dim", (3, 5, 7))
def test_critical_condition_at_machine_precision(dim):
    f = kt.standard_pair(dim).angle_function()
    pts = sample_coords(500, 42, dim + 1, exclusion=lambda y: np.abs(values(f, y)) > 0.9)
    rep = kt.critical_condition_check(kt.normalized_gradient_unit_field(f), pts)
    assert rep.passed and rep.tolerance == 1e-6
    assert (rep.count, rep.skipped) == (500, 0)
    assert rep.max <= 1e-10


def test_critical_condition_s3(nfield3, pts3):
    rep = kt.critical_condition_check(nfield3, pts3)
    assert rep.passed and rep.max < 1e-5


def test_critical_condition_negative_control(twisted, pts3):
    rep = kt.critical_condition_check(twisted, pts3)
    assert not rep.passed


def test_harmonicity_equivalence(nfield3, pts3):
    # both criteria small together on the harmonic example
    nu = kt.harmonicity_check(nfield3, pts3)
    crit = kt.critical_condition_check(nfield3, pts3)
    assert nu.passed and crit.passed


def test_unit_field_norm_invariant(nfield3, nfield5, pts3, pts5):
    for zf, pts in ((nfield3, pts3), (nfield5, pts5)):
        z = field_at(zf, pts[:20])
        assert np.max(np.abs(np.linalg.norm(z, axis=-1) - 1.0)) < 1e-10


@pytest.mark.parametrize("dim", (3, 5, 7))
def test_jet_contractions_match_the_oracles(dim):
    pair = kt.standard_pair(dim)
    f = pair.angle_function()
    rng = np.random.default_rng(dim)
    c, a, d = rng.standard_normal((3, dim + 1))
    x_all = sample_coords(60, 11, dim + 1,
                          exclusion=lambda y: np.abs(ad.value(f.eval(y))) > 0.9)
    for zf, harmonic in ((kt.normalized_gradient_unit_field(f), True),
                         (kt.twisted_unit_field(c, a, d), False),
                         (kt.reeb_unit_field(pair.s_beta), True),
                         (normalized_constant_unit_field(c), True)):
        x = x_all[zf.domain(x_all)]
        z = proj_np(x, ad.value(zf.field.eval(x)))
        frames = frame_batch(x, z[:, None, :])[:, 1:]
        # generic tangents, along Z too, where nu is not rounding noise
        generic = proj_np(x[:, None, :], rng.standard_normal((len(x), 3, dim + 1)))
        nu_vec, grad_div = _contract(x, *_jet(zf.field, x))
        for w, noise in ((generic, False), (frames, harmonic)):
            nu, xh = inner(w, nu_vec[:, None, :]), -inner(w, grad_div[:, None, :])
            for got, oracle in ((nu, harmonicity_form_batch(zf.field, x, w)),
                                (xh, mean_curvature_derivative(zf.field, x, w))):
                bound = 1e-11 if noise else 1e-13 * np.maximum(1.0, np.abs(oracle))
                assert np.all(np.abs(got - oracle) <= bound), zf.label


CLOSED_FORM_POTENTIALS = (
    [("angle", dim, None) for dim in (3, 5, 7)]
    + [("angle", dim, signs) for dim, signs in ROTATED]
    + [(name, dim, None) for name in ("height", "cubic") for dim in (3, 5, 7)])


@pytest.mark.parametrize("name, dim, signs", CLOSED_FORM_POTENTIALS, ids=[
    f"{name}-s{dim}" + ("" if signs is None else "".join("+-"[s < 0] for s in signs))
    for name, dim, signs in CLOSED_FORM_POTENTIALS])
def test_unit_gradient_covectors_match_the_jet(name, dim, signs):
    # the closed form from the potential against the jet of the field's own
    # formula (the route of a field without its potential): N, ν and ∇div N
    # on the sphere and off it, where the jet is taken as well; the height
    # function has V constant and H = 0, the cubic a T ≠ 0
    f = (rotated_pair(dim, signs).angle_function() if signs is not None
         else potential_field(name, dim))
    zf = kt.normalized_gradient_unit_field(f)
    x = sample_coords(300, 21, dim + 1)
    x = x[zf.domain(x)]
    scale = np.random.default_rng(dim).uniform(0.7, 1.4, (len(x), 1))
    for y in (x, scale * x):
        got = _covectors(zf, y)
        f_jet, rows, second = _jet(zf.field, y)
        for a, b in zip(got, (f_jet,) + _contract(y, f_jet, rows, second)):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), (name, dim)


@pytest.mark.parametrize("name", ["angle", "height", "cubic"])
@pytest.mark.parametrize("dim", [3, 7])
def test_unit_gradient_covectors_at_one_point(name, dim):
    # a batch of one point (the one-point form, a remainder block, a block
    # with one kept row) carries size-1 batch axes whatever its potential;
    # the closed form must still read T where V is nonlinear, so at each
    # point alone it matches the jet there, and the one-point form agrees
    zf = kt.normalized_gradient_unit_field(potential_field(name, dim))
    x = sample_coords(40, 31, dim + 1)
    x = x[zf.domain(x)][:8]
    rng = np.random.default_rng(dim)
    for y in x:
        row = y[None, :]
        f_jet, rows, second = _jet(zf.field, row)
        jet = (f_jet,) + _contract(row, f_jet, rows, second)
        for a, b in zip(_covectors(zf, row), jet):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), (name, dim)
        w = proj_np(y, rng.standard_normal(dim + 1))
        w -= inner(w, jet[0][0]) * jet[0][0]
        got = harmonicity_form(zf, kt.TangentVector(kt.SpherePoint(y), w))
        assert abs(got - inner(w, jet[1][0])) <= 1e-13 * np.max(np.abs(jet[1])) * np.abs(w).sum()


def test_only_fields_without_a_potential_take_the_jet(twisted, pts3, monkeypatch):
    # the unit gradient with its potential takes no jet; the same field
    # without it, and the twisted control, one per check; the control still
    # fails
    calls = []
    second_jet = ad.second_jet
    monkeypatch.setattr(ad, "second_jet", lambda *args: calls.append(1) or second_jet(*args))
    zf = kt.normalized_gradient_unit_field(kt.standard_pair(3).angle_function())
    for field, jets, harmonic in ((zf, 0, True),
                                  (UnitVectorField(zf.field, zf.domain, zf.label), 1, True),
                                  (twisted, 1, False)):
        calls.clear()
        for check in (kt.harmonicity_check, kt.critical_condition_check):
            rep = check(field, pts3)
            assert rep.passed is harmonic and (harmonic or rep.max > 1e-3)
        assert len(calls) == 2 * jets, field.label


@pytest.mark.parametrize("dim", (3, 5, 7))
def test_harmonic_residuals_are_norms_on_the_complement(dim):
    # nu_form and critical_condition read |ν| and |∇h − ric(·, Z)^♯| on Z^⊥:
    # the root sum of squares of the oracles' components over an orthonormal
    # frame of Z^⊥, the same over two frames that differ in their completion
    pair = kt.standard_pair(dim)
    f = pair.angle_function()
    c, a, d = np.random.default_rng(dim).standard_normal((3, dim + 1))
    x_all = sample_coords(60, 13, dim + 1, exclusion=lambda y: np.abs(values(f, y)) > 0.9)
    for zf, harmonic in ((kt.twisted_unit_field(c, a, d), False),
                         (kt.normalized_gradient_unit_field(cubic_field(dim)), False),
                         (kt.normalized_gradient_unit_field(f), True),
                         (kt.reeb_unit_field(pair.s_alpha), True)):
        x = x_all[zf.domain(x_all)]
        z = field_at(zf, x)
        got = _harmonic_block(zf, x)
        frames = frame_batch(x, z[:, None, :])
        for w in (frames[:, 1:], rotate_completion(frames, 1)[:, 1:]):
            ric = (dim - 1) * inner(w, z[:, None, :])
            for norm, components in ((got[0], harmonicity_form_batch(zf.field, x, w)),
                                     (got[1], mean_curvature_derivative(zf.field, x, w) - ric)):
                rss = np.sqrt(np.sum(components ** 2, axis=-1))
                if harmonic:
                    assert np.max(norm) <= 1e-13 and np.max(rss) <= 1e-11, zf.label
                else:
                    assert np.all(np.abs(norm - rss) <= 1e-12 * np.maximum(1.0, rss)), zf.label
        for check, norm in zip((kt.harmonicity_check, kt.critical_condition_check), got):
            rep = check(zf, x)
            assert rep.max == np.max(norm)
            assert rep.passed is harmonic, (zf.label, check)
