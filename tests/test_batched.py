"""Batched kernels against their one-row calls and the per-point loops."""

import tracemalloc

import numpy as np
import pytest

import kontact as kt
from kontact import ad
from kontact.contact import exterior_derivative_batch, volume_form_batch
from kontact.harmonic import (
    ENERGY_BLOCK,
    _adjoint_apply,
    _trace_l_batch,
    harmonicity_form_batch,
)
from kontact.manifold import (
    curvature_numeric_batch,
    frame_batch,
    projected_eval,
    random_tangent_batch,
    random_tangents,
)

DIMS = (3, 5, 7)


@pytest.fixture(scope="module", params=DIMS, ids=lambda d: f"s{d}")
def setting(request):
    dim = request.param
    pair = kt.standard_pair(dim)
    f = pair.angle_function()
    pts = kt.sample_points(12, 100 + dim, dim + 1,
                           exclusion=lambda p: abs(f.value(p)) > 0.9)
    return pair, f, pts, np.array([p.coords for p in pts])


def twisted(dim):
    rng = np.random.default_rng(dim)
    c, a, d = rng.standard_normal((3, dim + 1))
    return kt.twisted_unit_field(c, a, d)


def loop_frame(p, seeds=(), completion=None):
    """The per-point Gram-Schmidt loop the batched frames replace."""
    basis = []

    def push(candidate):
        w = candidate.copy()
        for b in basis:
            w -= (w @ b) * b
        r = np.linalg.norm(w)
        if r >= 1e-8:
            basis.append(w / r)

    for s in seeds:
        push(s - (s @ p) * p)
    eye = np.eye(len(p))
    for i in completion if completion is not None else range(len(p)):
        if len(basis) == len(p) - 1:
            break
        push(eye[i] - (eye[i] @ p) * p)
    return np.array(basis)


def test_frames_match_loop_and_one_row(setting):
    pair, f, pts, x = setting
    seeds = x @ pair.s_alpha.j_ambient.mat.T
    reverse = list(reversed(range(x.shape[1])))
    for kwargs in ({}, {"completion": reverse}):
        batch = frame_batch(x, seeds[:, None, :], **kwargs)
        plain = frame_batch(x, **kwargs)
        for p, row, seed, free in zip(pts, batch, seeds, plain):
            z = pair.s_alpha.reeb_at(p)
            one = kt.gram_schmidt_frame(p, [z], **kwargs).matrix
            assert np.max(np.abs(row - one)) <= 1e-15
            assert np.max(np.abs(row - loop_frame(p.coords, [seed], **kwargs))) <= 1e-15
            assert np.max(np.abs(free - loop_frame(p.coords, **kwargs))) <= 1e-15


@pytest.mark.parametrize("dim", DIMS)
def test_frames_drop_candidates_per_point(dim):
    # on coordinate axes some completion candidates vanish after projection
    eye = np.eye(dim + 1)
    x = np.vstack([eye[[0, 1, dim]], (eye[0] + eye[1]) / np.sqrt(2.0),
                   kt.sample_points(2, 9, dim + 1)[0].coords])
    for row, p in zip(frame_batch(x), x):
        assert np.max(np.abs(row - loop_frame(p))) <= 1e-15


def test_frame_batch_rejects_dependent_seeds(setting):
    pair, f, pts, x = setting
    z = x @ pair.s_alpha.j_ambient.mat.T
    with pytest.raises(kt.DegenerateInputError):
        frame_batch(x, np.stack([z, 2.0 * z], axis=1))


def test_random_tangent_batch_follows_the_loop_stream(setting):
    pair, f, pts, x = setting
    batch = random_tangent_batch(x, np.random.default_rng(7), (2, 2))
    rng = np.random.default_rng(7)
    loop = [[[t.vec for t in random_tangents(p, rng, 2)] for _ in range(2)] for p in pts]
    assert np.array_equal(batch, np.array(loop))


def test_random_tangent_batch_redraws_a_normal_draw():
    x = np.eye(4)[:2]

    class AlongTheNormalFirst:
        def __init__(self):
            self.rng = np.random.default_rng(0)
            self.first = True

        def standard_normal(self, shape):
            if self.first:
                self.first = False
                return np.broadcast_to(3.0 * x[:, None, :], shape).copy()
            return self.rng.standard_normal(shape)

    u = random_tangent_batch(x, AlongTheNormalFirst(), (1,))
    assert np.all(np.isfinite(u))
    assert np.allclose(np.linalg.norm(u, axis=-1), 1.0)
    assert np.max(np.abs(np.sum(u * x[:, None, :], axis=-1))) < 1e-15


def test_exterior_derivative_batch_matches_one_row(setting):
    pair, f, pts, x = setting
    s = pair.s_beta
    rng = np.random.default_rng(3)
    pairs = [random_tangents(p, rng, 2) for p in pts]
    a = np.array([[u.vec for u in uv] for uv in pairs])
    batch = exterior_derivative_batch(s.alpha_coeffs, x[:, None, :],
                                      a[:, :1, :], a[:, 1:, :])[:, 0]
    one = [kt.exterior_derivative(s.alpha_coeffs, u, v) for u, v in pairs]
    assert np.max(np.abs(batch - one)) <= 1e-13


def test_volume_form_batch_matches_one_row(setting):
    pair, f, pts, x = setting
    s = pair.s_alpha

    def scaled_coeffs(y):
        return ad.sv(f.eval(y), s.alpha_coeffs(y))

    for coeff in (s.alpha_coeffs, scaled_coeffs):
        batch = volume_form_batch(coeff, x, frame_batch(x), s.n)
        one = [kt.contact.volume_form_value(coeff, kt.tangent_basis(p), s.n)
               for p in pts]
        assert np.max(np.abs(batch - one)) <= 1e-13


def test_nu_batch_matches_one_row_and_the_frame_loop(setting):
    pair, f, pts, x = setting
    dim = x.shape[1] - 1
    for zf in (kt.normalized_gradient_unit_field(f), twisted(dim)):
        kept = [p for p in pts if zf.guard(p.coords)]
        xk = np.array([p.coords for p in kept])
        z = kt.manifold.proj_np(xk, ad.value(zf.field.eval(xk)))
        frames = frame_batch(xk, z[:, None, :])
        batch = harmonicity_form_batch(zf.field, xk, frames[:, 1:])
        for p, row, fr in zip(kept, batch, frames):
            frame = kt.gram_schmidt_frame(p, [zf.at(p)])
            for value, vec in zip(row, fr[1:]):
                x_dir = kt.TangentVector(p, vec)
                assert abs(value - kt.harmonicity_form(zf, x_dir)) <= 1e-13
                assert abs(value - loop_nu(zf, x_dir, frame)) <= 1e-12


def loop_nu(zf, x, frame):
    """The per-point frame sum the batched kernel replaces, including the
    A^t(∇_u x̃) term that vanishes at the base point."""
    p = x.base
    ext_x = kt.extension_of(x)
    total = 0.0
    for u in frame:
        d1 = ad.value(ad.directional(
            lambda y: _adjoint_apply(zf.field, y, ad.lift(x.vec, y)), p.coords, u.vec))
        d2 = ad.value(_adjoint_apply(zf.field, p.coords, kt.cov_deriv(ext_x, u).vec))
        total += kt.metric(kt.project(p, d1) - kt.project(p, d2), u)
    return total


def test_twisted_control_fails_batched_nu(setting):
    pair, f, pts, x = setting
    rep = kt.harmonicity_check(twisted(x.shape[1] - 1), pts)
    assert not rep.passed and rep.max > 1e-3


def test_curvature_numeric_batch_matches_one_row(setting):
    pair, f, pts, x = setting
    rng = np.random.default_rng(5)
    uvw = [random_tangents(p, rng, 3) for p in pts]
    arr = np.array([[t.vec for t in trio] for trio in uvw])
    batch = curvature_numeric_batch(x, arr[:, 0], arr[:, 1], arr[:, 2])
    for row, (u, v, w) in zip(batch, uvw):
        assert np.max(np.abs(row - kt.curvature_numeric(u, v, w).vec)) <= 1e-13
        assert np.max(np.abs(row - kt.curvature(u, v, w).vec)) <= 1e-9


@pytest.mark.parametrize("dim", DIMS)
def test_guarded_point_is_skipped(dim):
    pair = kt.standard_pair(dim)
    f = pair.angle_function()
    pts = kt.sample_points(6, 7, dim + 1, exclusion=lambda p: abs(f.value(p)) > 0.9)
    critical = kt.SpherePoint(np.eye(dim + 1)[0])      # |f| = 1, grad f = 0
    assert abs(abs(f.value(critical)) - 1.0) < 1e-15
    mixed = pts[:3] + [critical] + pts[3:]
    n_field = kt.normalized_gradient_unit_field(f)
    for check in (lambda ps: kt.harmonicity_check(n_field, ps),
                  lambda ps: kt.critical_condition_check(n_field, ps),
                  lambda ps: kt.ricci_normal_check(pair, ps)):
        with_crit, without = check(mixed), check(pts)
        assert (with_crit.count, with_crit.skipped) == (6, 1)
        assert (without.count, without.skipped) == (6, 0)
        assert abs(with_crit.max - without.max) <= 1e-13


def excluded_gradient_field(dim, cutoff=0.9):
    """The unit gradient of the angle function on |f| <= cutoff, as
    ``kontact energy --field gradient --exclusion`` builds it."""
    f = kt.standard_pair(dim).angle_function()
    zf = kt.normalized_gradient_unit_field(f)
    return kt.UnitVectorField(
        zf.field, label=zf.label,
        guard=lambda x: zf.guard(x) & (np.abs(ad.value(f.eval(x))) <= cutoff))


def unblocked_energy(zf, sample_size, seed, ambient_dim):
    """Estimate, stderr and skipped of the Monte Carlo energy in one pass
    over all samples: per-axis directional derivatives, then P·J·P."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((sample_size, ambient_dim))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    points = g / norms[:, None]
    mask = zf.guard(points)
    x = points[mask]
    eye = np.eye(ambient_dim)
    jac = np.stack([ad.value(ad.directional(
        lambda y: projected_eval(zf.field, y), x, eye[i]))
        for i in range(ambient_dim)], axis=-1)
    proj = eye - x[:, :, None] * x[:, None, :]
    pjp = proj @ jac @ proj
    vals = np.zeros(sample_size)
    vals[mask] = (ambient_dim - 1) + np.sum(pjp * pjp, axis=(1, 2))
    half_vol = 0.5 * kt.sphere_volume(ambient_dim - 1)
    return (half_vol * np.mean(vals),
            half_vol * np.std(vals, ddof=1) / np.sqrt(sample_size),
            sample_size - int(np.count_nonzero(mask)))


@pytest.mark.parametrize("dim", (3, 5))
@pytest.mark.parametrize("size", (ENERGY_BLOCK - 1, ENERGY_BLOCK,
                                  ENERGY_BLOCK + 1, 2 * ENERGY_BLOCK + 3))
def test_blocked_energy_matches_one_pass(dim, size):
    zf = excluded_gradient_field(dim)
    est = kt.energy(zf, size, 17, dim + 1)
    estimate, stderr, skipped = unblocked_energy(zf, size, 17, dim + 1)
    assert est.samples == size
    assert est.skipped == skipped > 0
    assert abs(est.estimate - estimate) <= 1e-13 * abs(estimate)
    assert abs(est.stderr - stderr) <= 1e-13 * abs(stderr)


def test_trace_l_batch_matches_the_point_loop(setting):
    pair, f, pts, x = setting
    dim = x.shape[1] - 1
    for zf in (kt.reeb_unit_field(pair.s_alpha),
               kt.normalized_gradient_unit_field(f), twisted(dim)):
        kept = [p for p in pts if zf.guard(p.coords)]
        batch = _trace_l_batch(zf, np.array([p.coords for p in kept]))
        loop = np.array([kt.trace_l(zf, p) for p in kept])
        assert len(kept) > 0
        assert np.max(np.abs(batch - loop)) <= 1e-12


def test_energy_peak_memory_is_bounded():
    # evaluating all 100 000 samples in one pass peaks above 100 MB traced
    zf = excluded_gradient_field(5)
    tracemalloc.start()
    try:
        kt.energy(zf, 100_000, 3, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2 ** 20
