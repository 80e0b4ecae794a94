"""Batched kernels against their one-row calls and the per-point loops."""

import re
import sys
import tracemalloc

import numpy as np
import pytest

import kontact as kt
from kontact import ad, harmonic, manifold
from kontact.ad import dot
from kontact.cli import SuiteConfig, run_suite
from kontact.contact import (
    _d_on_frames,
    d_on_pairs,
    killing_residual_batch,
    sasakian_residual_batch,
    volume_form_batch,
)
from kontact.harmonic import _covectors, _trace_l_batch
from kontact.manifold import (
    BLOCK,
    blocks,
    constant_field,
    curvature_numeric_batch,
    frame_batch,
    proj_np,
    projected_eval,
    random_tangent_batch,
    sample_blocks,
    sample_coords,
    shape_form,
    shape_matrix,
)
from kontact.scalar_fields import (
    EPS_REGULAR,
    ambient_gradient_field,
    laplacian_batch,
    level_mean_curvature_batch,
    normalized_gradient_field,
)

from oracles import (
    adjoint_apply,
    domain_mask,
    curvature,
    exterior_derivative_batch,
    harmonicity_form_batch,
    trace_l,
    values,
)
from test_double_kcontact import scaled_gradient_pair

DIMS = (3, 5, 7)
# A one-row wrapper or per-point loop against its batch kernel's row, at
# most ROW_BOUND·max(1, |reference|) apart: numpy contracts one row in
# another order than a batch.  Over 600 points of s3, s5 and s7 the largest
# gaps were 2.7e-15·max(1, |row|) for ν of the twisted control and 1.8e-15
# for the Laplacian.
ROW_BOUND = 1e-14


def assert_rows(got, ref):
    """``got`` within ROW_BOUND·max(1, |ref|) of the reference ``ref``."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= ROW_BOUND * np.maximum(1.0, np.abs(ref))), (got, ref)


def assert_draws(got, want):
    """The same draws in the same order, to rounding: a wrong or misplaced
    draw is off by O(1)."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-15


@pytest.fixture(scope="module", params=DIMS, ids=lambda d: f"s{d}")
def setting(request):
    dim = request.param
    pair = kt.standard_pair(dim)
    f = pair.angle_function()
    x = sample_coords(12, 100 + dim, dim + 1, exclusion=lambda y: np.abs(values(f, y)) > 0.9)
    return pair, f, [kt.SpherePoint(p) for p in x], x


def loop_tangents(p, rng, k):
    """k unit tangent directions at the point p (m+1,), one normal draw
    at a time, skipping a draw whose tangential part is shorter than
    1e-8: the loop that random_tangent_batch replaces."""
    out = []
    while len(out) < k:
        v = proj_np(p, rng.standard_normal(p.shape[-1]))
        r = np.linalg.norm(v)
        if r >= 1e-8:
            out.append(v / r)
    return out


def reeb_at(structure, p):
    """The Reeb field of the structure at the point p, as a tangent vector."""
    return kt.TangentVector(p, structure.j_ambient.mat @ p.coords)


def twisted(dim):
    rng = np.random.default_rng(dim)
    c, a, d = rng.standard_normal((3, dim + 1))
    return kt.twisted_unit_field(c, a, d)


def seed_directions(x, seeds):
    """Unit Gram-Schmidt directions of the seeds (N, k, m+1) against x and
    each other, point by point: the rows a frame seeded by them must lead
    with.  Two passes per seed, so the reference is exact to rounding."""
    out = np.zeros_like(seeds)
    for n, p in enumerate(x):
        basis = [p]
        for j, s in enumerate(seeds[n]):
            w = s.copy()
            for _ in range(2):
                for b in basis:
                    w -= (w @ b) * b
            out[n, j] = w / np.linalg.norm(w)
            basis.append(out[n, j])
    return out


def axis_points(dim):
    """Coordinate-axis points, where projected axis vectors vanish."""
    eye = np.eye(dim + 1)
    return np.vstack([eye[[0, 1, dim]], (eye[0] + eye[1]) / np.sqrt(2.0)])


def test_frames_are_orthonormal_tangent_and_seeded(setting):
    pair, f, pts, x = setting
    dim = x.shape[1] - 1
    with_axes = np.vstack([x, axis_points(dim)])
    z = with_axes @ pair.s_alpha.j_ambient.mat.T
    cases = [(with_axes, None), (with_axes, z[:, None, :]),
             (x, kt.double_kcontact._hbundle_seeds(pair, x))]
    for points, seeds in cases:
        frames = frame_batch(points, seeds)
        assert frames.shape == (len(points), dim, dim + 1)
        assert np.max(np.abs(frames @ points[:, :, None])) <= 1e-15
        gram = frames @ np.swapaxes(frames, 1, 2)
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-14
        if seeds is not None:
            k = seeds.shape[1]
            assert np.max(np.abs(frames[:, :k] - seed_directions(points, seeds))) <= 1e-14


def test_gram_schmidt_frame_is_one_row_of_frame_batch(setting):
    pair, f, pts, x = setting
    points = [*pts, *(kt.SpherePoint(p) for p in axis_points(x.shape[1] - 1))]
    coords = np.array([p.coords for p in points])
    seeded = frame_batch(coords, (coords @ pair.s_alpha.j_ambient.mat.T)[:, None, :])
    plain = frame_batch(coords)
    for p, row, free in zip(points, seeded, plain):
        assert np.array_equal(kt.gram_schmidt_frame(p, [reeb_at(pair.s_alpha, p)]).matrix, row)
        assert np.array_equal(kt.tangent_basis(p).matrix, free)


def test_frame_batch_rejects_dependent_seeds(setting):
    pair, f, pts, x = setting
    z = x @ pair.s_alpha.j_ambient.mat.T
    with pytest.raises(kt.DegenerateInputError):
        frame_batch(x, np.stack([z, 2.0 * z], axis=1))


def test_random_tangent_batch_follows_the_loop_stream(setting):
    pair, f, pts, x = setting
    batch = random_tangent_batch(x, np.random.default_rng(7), (2, 2))
    rng = np.random.default_rng(7)
    loop = [[loop_tangents(p, rng, 2) for _ in range(2)] for p in x]
    assert_draws(batch, np.array(loop))


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


def loop_sample(count, seed, ambient_dim, exclusion=None):
    """The per-draw sampling loop that sample_coords replaces; ``exclusion``
    takes one point."""
    rng = np.random.default_rng(seed)
    accepted, drawn = [], 0
    max_draws = max(10_000, 200 * count)
    while len(accepted) < count:
        g = rng.standard_normal((max(count - len(accepted), 64), ambient_dim))
        for row, r in zip(g, np.linalg.norm(g, axis=1)):
            drawn += 1
            if r == 0.0 or (exclusion is not None and exclusion(row / r)):
                continue
            accepted.append(row / r)
            if len(accepted) == count:
                break
        if drawn >= max_draws and len(accepted) < max(1, drawn // 100):
            raise kt.SamplingExhaustedError(
                f"exclusion rejected {drawn - len(accepted)} of {drawn} draws")
    return np.array(accepted)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("count", (1, 7, 80, 500))
def test_sample_coords_is_bitwise_the_draw_loop(dim, count):
    f = kt.standard_pair(dim).angle_function()
    for seed in (0, 1, 2):
        batch = sample_coords(count, seed, dim + 1,
                              exclusion=lambda x: np.abs(ad.value(f.eval(x))) > 0.9)
        loop = loop_sample(count, seed, dim + 1,
                           exclusion=lambda p: abs(float(ad.value(f.eval(p)))) > 0.9)
        assert np.array_equal(batch, loop)
    assert np.array_equal(sample_coords(count, 3, dim + 1), loop_sample(count, 3, dim + 1))


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("count", (1, 7, 64, 100, 256, 1000))
def test_sample_blocks_are_bitwise_sample_coords(dim, count):
    # blocks of 64 rows; counts below a block, of whole blocks and not
    parts = list(sample_blocks(count, 3, dim + 1, 64))
    assert [len(x) for x in parts] == [sl.stop - sl.start for sl in blocks(count, 64)]
    assert np.array_equal(np.concatenate(parts), sample_coords(count, 3, dim + 1))


@pytest.mark.parametrize("count, seed, cutoff, raises", [
    # near 1% of S^3 has x_0 >= 0.95, close to the 99% rejection bound
    (100, 4, 0.95, False), (100, 4, 0.96, True),
    # the last batch straddles the 10 000-draw bound: only the draws up to
    # the last accepted point count, so the first run completes and the
    # second raises with a draw count inside its last batch
    (10, 153, 0.98, False), (10, 57, 0.985, True)])
def test_sample_coords_exhausts_where_the_draw_loop_does(count, seed, cutoff, raises):
    # and so do the block streams, whatever the size of their pieces
    def streamed(size):
        return lambda *args, **kwargs: np.concatenate(
            list(sample_blocks(*args, size, **kwargs)))

    samplers = [(sampler, lambda x: x[:, 0] < cutoff)
                for sampler in (sample_coords, streamed(1), streamed(7), streamed(64))]
    outcomes = []
    for sampler, exclusion in samplers + [(loop_sample, lambda p: p[0] < cutoff)]:
        try:
            outcomes.append(sampler(count, seed, 4, exclusion=exclusion))
        except kt.SamplingExhaustedError as exc:
            outcomes.append(str(exc))
    *batches, loop = outcomes
    for batch in batches:
        assert isinstance(batch, str) == raises
        assert batch == loop if raises else np.array_equal(batch, loop)


def test_exterior_derivative_batch_matches_one_row(setting):
    pair, f, pts, x = setting
    s = pair.s_beta
    rng = np.random.default_rng(3)
    a = np.array([loop_tangents(p, rng, 2) for p in x])
    batch = exterior_derivative_batch(s.alpha_coeffs, x[:, None, :],
                                      a[:, :1, :], a[:, 1:, :])[:, 0]
    one = [kt.exterior_derivative(s.alpha_coeffs, kt.TangentVector(p, u),
                                  kt.TangentVector(p, v)) for p, (u, v) in zip(pts, a)]
    assert np.max(np.abs(batch - one)) <= 1e-13


def test_volume_form_batch_matches_one_row(setting):
    # the batch kernel reads the alternating form as it stands; the
    # one-point value corrects it for the frame's orientation
    pair, f, pts, x = setting
    s = pair.s_alpha

    def scaled_coeffs(y):
        return ad.sv(f.eval(y), s.alpha_coeffs(y))

    frames = frame_batch(x)
    orientation = np.sign(np.linalg.det(np.concatenate([x[:, None, :], frames], axis=1)))
    for coeff in (s.alpha_coeffs, scaled_coeffs):
        batch = volume_form_batch(coeff, x, frames, s.n) * orientation
        one = [kt.contact.volume_form_value(coeff, kt.tangent_basis(p), s.n)
               for p in pts]
        assert np.max(np.abs(batch - one)) <= 1e-13


def test_jacobian_d_on_frames_is_the_exterior_derivative_on_every_pair(setting):
    pair, f, pts, x = setting
    s = pair.s_alpha

    def scaled_coeffs(y):
        return ad.sv(f.eval(y), s.alpha_coeffs(y))

    frames = frame_batch(x)
    m = frames.shape[1]
    k, l = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    for coeff in (s.alpha_coeffs, scaled_coeffs):
        w = _d_on_frames(coeff, x, frames)
        pairs = exterior_derivative_batch(coeff, x[:, None, None, :],
                                          frames[:, k, :], frames[:, l, :])
        assert w.shape == (len(x), m, m)
        assert np.max(np.abs(w - pairs)) <= 1e-13


def test_one_jacobian_d_is_the_exterior_derivative_on_pairs(setting):
    # the form check_axiom_iii takes dα in, for α's coefficients and for a
    # coefficient field whose Jacobian varies from point to point
    pair, f, pts, x = setting
    s = pair.s_alpha
    a = np.random.default_rng(5).standard_normal(x.shape[1])

    def quadratic_coeffs(y):
        return ad.sv(ad.dot(y, a), s.alpha_coeffs(y))

    uv = random_tangent_batch(x, np.random.default_rng(11), (2, 2))
    u, v = uv[..., 0, :], uv[..., 1, :]
    for coeff in (s.alpha_coeffs, quadratic_coeffs):
        one_jacobian = d_on_pairs(coeff, x[:, None, :], u, v)
        oracle = exterior_derivative_batch(coeff, x[:, None, :], u, v)
        assert one_jacobian.shape == (len(x), 2)
        assert np.max(np.abs(one_jacobian - oracle)) <= 1e-14


def test_nu_batch_matches_one_row_and_the_frame_loop(setting):
    # the one-point form reads the covector the checks take, for a Jacobian
    # that is one matrix (the unit gradient) and one that varies by point
    # (the control); the nested oracle is held to the per-point frame loop
    pair, f, pts, x = setting
    dim = x.shape[1] - 1
    for zf in (kt.normalized_gradient_unit_field(f), twisted(dim)):
        kept = [p for p in pts if zf.domain(p.coords)]
        xk = np.array([p.coords for p in kept])
        z = kt.manifold.proj_np(xk, ad.value(zf.field.eval(xk)))
        frames = frame_batch(xk, z[:, None, :])
        batch = dot(frames[:, 1:], _covectors(zf, xk)[1][:, None, :])
        oracle = harmonicity_form_batch(zf.field, xk, frames[:, 1:])
        for p, row, ref_row, fr, zp in zip(kept, batch, oracle, frames, z):
            frame = kt.gram_schmidt_frame(p, [kt.TangentVector(p, zp)])
            for value, ref, vec in zip(row, ref_row, fr[1:]):
                x_dir = kt.TangentVector(p, vec)
                assert_rows(kt.harmonicity_form(zf, x_dir), value)
                assert abs(ref - loop_nu(zf, x_dir, frame)) <= 1e-12


def test_bench_bound_wrappers_are_one_row_of_the_suite_kernels(setting):
    # each one-point derivative wrapper the benchmark traces reads the row
    # of the batched kernel that the suite runs at that point: dω and ν
    # exactly, the shape-matrix traces within ROW_BOUND
    pair, f, pts, x = setting
    s, zf = pair.s_alpha, kt.normalized_gradient_unit_field(f)
    uv = random_tangent_batch(x, np.random.default_rng(3), (2,))
    d_alpha = d_on_pairs(s.alpha_coeffs, x, uv[:, 0], uv[:, 1])
    z = proj_np(x, ad.value(zf.field.eval(x)))
    frames = frame_batch(x, z[:, None, :])[:, 1:]
    nu = dot(frames, _covectors(zf, x)[1][:, None, :])
    lap, h = laplacian_batch(f, x), level_mean_curvature_batch(f, x)
    for i, p in enumerate(pts):
        u, v = (kt.TangentVector(p, w) for w in uv[i])
        assert kt.exterior_derivative(s.alpha_coeffs, u, v) == d_alpha[i]
        assert [kt.harmonicity_form(zf, kt.TangentVector(p, w)) for w in frames[i]] == list(nu[i])
        assert_rows(kt.laplacian(f, p), lap[i])
        assert_rows(kt.level_mean_curvature(f, p), h[i])
        assert_rows(kt.mean_curvature_of_field(zf, p), h[i])


def loop_nu(zf, x, frame):
    """The per-point frame sum the batched kernel replaces, including the
    A^t(∇_u x̃) term that vanishes at the base point."""
    p = x.base.coords
    ext_x = constant_field(x.vec)
    total = 0.0
    for u in frame:
        d1 = ad.value(ad.directional(
            lambda y: adjoint_apply(zf.field, y, ad.lift(x.vec, y)), p, u.vec))
        d2 = ad.value(adjoint_apply(zf.field, p, kt.cov_deriv(ext_x, u).vec))
        total += (proj_np(p, d1) - proj_np(p, d2)) @ u.vec
    return total


def test_twisted_control_fails_batched_nu(setting):
    pair, f, pts, x = setting
    rep = kt.harmonicity_check(twisted(x.shape[1] - 1), x)
    assert not rep.passed and rep.max > 1e-3


def test_curvature_numeric_batch_matches_one_row(setting):
    pair, f, pts, x = setting
    rng = np.random.default_rng(5)
    uvw = np.array([loop_tangents(p, rng, 3) for p in x])
    batch = curvature_numeric_batch(x, uvw[:, 0], uvw[:, 1], uvw[:, 2])
    for p, row, trio in zip(pts, batch, uvw):
        one = kt.curvature_numeric(*(kt.TangentVector(p, t) for t in trio))
        assert np.max(np.abs(row - one.vec)) <= 1e-13
    assert np.max(np.abs(batch - curvature(uvw[:, 0], uvw[:, 1], uvw[:, 2]))) <= 1e-9


@pytest.mark.parametrize("dim", DIMS)
def test_guarded_point_is_skipped(dim):
    pair = kt.standard_pair(dim)
    f = pair.angle_function()
    pts = sample_coords(6, 7, dim + 1, exclusion=lambda y: np.abs(values(f, y)) > 0.9)
    critical = np.eye(dim + 1)[0]                       # |f| = 1, grad f = 0
    assert abs(abs(values(f, critical)) - 1.0) < 1e-15
    mixed = np.vstack([pts[:3], critical, pts[3:]])
    n_field = kt.normalized_gradient_unit_field(f)
    k = dim - 3                                         # sub-bundle rank
    for check, per_point in (
            (lambda ps: kt.harmonicity_check(n_field, ps), 1),
            (lambda ps: kt.critical_condition_check(n_field, ps), 1),
            (lambda ps: kt.ricci_normal_check(pair, ps), 1),
            (lambda ps: kt.check_geodesic(f, ps), 1),
            (lambda ps: kt.mean_curvature_identity_check(f, kt.ANGLE_PROFILE, ps), 1),
            # |f| = 1 there as well, so the sub-bundle is undefined
            (lambda ps: kt.laplacian_formula_check(pair, ps), 1),
            (lambda ps: kt.phi_product_spectrum_check(pair, ps), 1),
            (lambda ps: kt.hessian_restriction_check(pair, ps),
             max(1, k * (k + 1) // 2))):
        with_crit, without = check(mixed), check(pts)
        assert (with_crit.count, with_crit.skipped) == (6 * per_point, 1)
        assert (without.count, without.skipped) == (6 * per_point, 0)
        assert abs(with_crit.max - without.max) <= 1e-13


def excluded_gradient_field(dim, cutoff=0.9):
    """The unit gradient of the angle function on |f| <= cutoff, as
    ``kontact energy --field gradient --exclusion`` builds it: the guard
    holds the band only, regularity comes with the potential."""
    f = kt.standard_pair(dim).angle_function()
    zf = kt.normalized_gradient_unit_field(f)
    return kt.UnitVectorField(zf.field, lambda x: np.abs(ad.value(f.eval(x))) <= cutoff,
                              zf.label, zf.potential)


def twisted_with_a_zero(dim):
    """A twisted unit field whose projected affine field vanishes exactly
    at e₀ (c + ⟨e₀, a⟩d = e₀), so its integrand there is not finite."""
    rng = np.random.default_rng(dim)
    a, d = rng.standard_normal((2, dim + 1))
    c = np.eye(dim + 1)[0] - a[0] * d
    return kt.twisted_unit_field(c, a, d)


def planted_rows(count):
    return np.array([0, count // 2, count - 1])


def plant(points):
    """The points with e₀ planted at the first, middle and last rows."""
    out = points.copy()
    out[planted_rows(len(out))] = np.eye(out.shape[1])[0]
    return out


def plant_blocks(count, seed, ambient_dim, size, draw=harmonic.sample_blocks):
    """The blocks of ``draw``, with e₀ planted where :func:`plant` plants it
    in the whole draw."""
    lo = 0
    for x in draw(count, seed, ambient_dim, size):
        rows = planted_rows(count) - lo
        x = x.copy()
        x[rows[(rows >= 0) & (rows < len(x))]] = np.eye(ambient_dim)[0]
        lo += len(x)
        yield x


def unblocked_energy(zf, points):
    """Estimate, stderr and skipped of the Monte Carlo energy in one pass
    over all the points: the field's domain from the numpy oracle, per-axis
    directional derivatives at the rows inside it, then P·J·P."""
    sample_size, ambient_dim = points.shape
    mask = domain_mask(zf, points)
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


def drawn_points(sample_size, seed, ambient_dim):
    """The sample points of ``energy``, drawn independently of ``sample_coords``."""
    g = np.random.default_rng(seed).standard_normal((sample_size, ambient_dim))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]


ENERGY_CASES = [(dim, field) for field in ("gradient", "twisted", "reeb") for dim in (3, 5)]


@pytest.mark.parametrize("dim, field", ENERGY_CASES,
                         ids=[f"{d}" if f == "gradient" else f"{d}-{f}" for d, f in ENERGY_CASES])
@pytest.mark.parametrize("size", (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3))
def test_blocked_energy_matches_one_pass(dim, field, size, monkeypatch):
    # energy sweeps blocks of 4 · manifold.BLOCK samples; a quarter BLOCK
    # makes them BLOCK samples long, so the sizes straddle their boundaries.
    # e₀ is planted in the first, a middle and the last block: a focal point
    # of the gradient's potential (outside its band too), a zero of the
    # twisted field, where its integrand is not finite, and a plain point of
    # the Reeb field; what the domain drops must not reach any output
    monkeypatch.setattr(manifold, "BLOCK", BLOCK // 4)
    monkeypatch.setattr(harmonic, "sample_blocks", plant_blocks)
    zf = {"gradient": lambda: excluded_gradient_field(dim),
          "twisted": lambda: twisted_with_a_zero(dim),
          "reeb": lambda: kt.reeb_unit_field(kt.standard_pair(dim).s_alpha)}[field]()
    if field == "twisted":
        with np.errstate(all="ignore"):
            assert not np.isfinite(trace_l(zf, np.eye(dim + 1)[:1])).any()
    est = kt.energy(zf, size, 17, dim + 1)
    estimate, stderr, skipped = unblocked_energy(zf, plant(drawn_points(size, 17, dim + 1)))
    assert est.samples == size
    assert est.skipped == skipped
    assert (skipped >= 3) if field != "reeb" else (skipped == 0)
    assert np.isfinite(est.estimate) and np.isfinite(est.stderr)
    assert abs(est.estimate - estimate) <= 1e-13 * abs(estimate)
    # the Reeb integrand is constant, so its stderr is rounding noise
    scale = abs(estimate) if field == "reeb" else abs(stderr)
    assert abs(est.stderr - stderr) <= 1e-13 * scale


def test_trace_l_batch_matches_the_point_loop(setting):
    pair, f, pts, x = setting
    dim = x.shape[1] - 1
    for zf in (kt.reeb_unit_field(pair.s_alpha),
               kt.normalized_gradient_unit_field(f), twisted(dim)):
        kept = x[zf.domain(x)]
        batch, keep = _trace_l_batch(zf, kept)
        assert keep.all()
        loop = np.array([trace_l(zf, p) for p in kept])
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


def traced_peak_of_check(check):
    """Traced peak bytes of ``check`` with the unit gradient on s7 over
    4 * BLOCK points; one pass over all points would trace four times a
    block's peak."""
    f = kt.standard_pair(7).angle_function()
    zf = kt.normalized_gradient_unit_field(f)
    x = sample_coords(4 * BLOCK, 5, 8)
    tracemalloc.start()
    try:
        rep = check(zf, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.count + rep.skipped == 4 * BLOCK
    return peak


def test_check_peak_memory_is_bounded():
    # nu_form traces 20 MB per block of 1024 points (the second-order jet)
    assert traced_peak_of_check(kt.harmonicity_check) <= 48 * 2 ** 20


def test_critical_condition_peak_memory_is_bounded():
    # the same sweep as nu_form's, so the same bound
    assert traced_peak_of_check(kt.critical_condition_check) <= 48 * 2 ** 20


# ---------------------------------------------------------------------------
# suite checks on point blocks against per-point loops of one-row helpers

def loop_pairs(points, seed, residual):
    """residual(p, u, v) over two random tangent pairs per point, drawn as
    the per-point checks drew them."""
    rng = np.random.default_rng(seed)
    return [residual(p, *loop_tangents(p, rng, 2)) for p in points for _ in range(2)]


def loop_hbundle(d, points, residual):
    """residual(p, basis) at the points where the sub-bundle is defined."""
    out, skipped = [], 0
    for x in points:
        p = kt.SpherePoint(x)
        try:
            basis = kt.hbundle_basis(d, p)
        except kt.RegularityError:
            skipped += 1
            continue
        out.extend(residual(p, basis))
    return out, skipped


def loop_regular(f, points, residual):
    """residual(p, n) at the points where the unit gradient n is defined."""
    out, skipped = [], 0
    for x in points:
        p = kt.SpherePoint(x)
        g = kt.gradient(f, p).vec
        r = np.linalg.norm(g)
        if r < EPS_REGULAR:
            skipped += 1
            continue
        out.append(residual(p, g / r))
    return out, skipped


def jphi(d, p, u):
    """J φ u at the point p (m+1,): the first structure's tensor after the
    second's."""
    return d.s_alpha.phi_at(p, d.s_beta.phi_at(p, u))


def hessian(f, p, u, v):
    """Hess_f(u, v) at the point p (m+1,)."""
    return float(np.einsum("i,ij,j->", v, shape_matrix(ambient_gradient_field(f), p), u))


def loop_laplacian_formula(d, points):
    f = d.angle_function()
    return loop_hbundle(d, points, lambda p, basis: [abs(
        kt.laplacian(f, p) - (4.0 * d.n + 4.0) * values(f, p.coords)
        - 2.0 * sum(jphi(d, p.coords, e.vec) @ e.vec for e in basis))])


def loop_phi_product(d, points):
    def residual(p, basis):
        k = len(basis)
        if k == 0:
            return [0.0]
        x = p.coords
        phi_j = [d.s_beta.phi_at(x, d.s_alpha.phi_at(x, e.vec)) for e in basis]
        mat = np.array([[pj @ e2.vec for pj in phi_j] for e2 in basis])
        commute = max(np.linalg.norm(pj - jphi(d, x, e.vec)) for pj, e in zip(phi_j, basis))
        eig = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        return [max(np.max(np.abs(mat - mat.T)), commute,
                    np.max(np.abs(mat @ mat - np.eye(k))),
                    np.max(np.abs(np.abs(eig) - 1.0)))]
    return loop_hbundle(d, points, residual)


def loop_hessian(d, points):
    f = d.angle_function()

    def residual(p, basis):
        if len(basis) == 0:
            return [0.0]
        x = p.coords
        return [abs(hessian(f, x, a.vec, b.vec) + 2.0 * values(f, x) * (a.vec @ b.vec)
                    + 2.0 * (jphi(d, x, a.vec) @ b.vec))
                for i, a in enumerate(basis) for b in basis[i:]]
    return loop_hbundle(d, points, residual)


def hessian_diagnostic(d, points, draws=None):
    """Max over the points with a nonempty sub-bundle of the full-argument
    Hessian identity at one random pair (u, v) each: the first two of the
    ``draws`` directions (m−3 unless given) drawn per point from the stream
    seeded by 29.  Hess_f(u, v) is read as the check reads it
    (``shape_form``), so the two maxima round alike."""
    f = d.angle_function()
    rng = np.random.default_rng(29)
    worst = 0.0
    for x in points:
        try:
            if len(kt.hbundle_basis(d, kt.SpherePoint(x))) == 0:
                continue
        except kt.RegularityError:
            continue
        u, v = loop_tangents(x, rng, d.dim - 3 if draws is None else draws)[:2]
        z, xb = d.s_alpha.j_ambient.mat @ x, d.s_beta.j_ambient.mat @ x
        full = (2.0 * (u @ xb) * (z @ v)
                - 2.0 * values(f, x) * (u @ v) - 2.0 * (jphi(d, x, u) @ v))
        worst = max(worst, abs(shape_form(ambient_gradient_field(f), x, u, v) - full))
    return worst


def loop_dim_theorem(d, points):
    f = d.angle_function()
    lap = [kt.laplacian(f, kt.SpherePoint(x)) for x in points]
    fv = [values(f, x) for x in points]
    if d.dim == 3:
        return [abs(a - 8.0 * b) for a, b in zip(lap, fv)], 0
    est = lap[0] - 12.0 * fv[0]
    c0 = 4.0 if abs(est - 4.0) <= abs(est + 4.0) else -4.0
    return [abs(a - 12.0 * b - c0) for a, b in zip(lap, fv)], 0


def loop_mean_curvature(d, points):
    f = d.angle_function()

    def residual(p, n):
        fv = values(f, p.coords)
        b = 4.0 * (1.0 - fv * fv)
        grad_norm = np.linalg.norm(kt.gradient(f, p).vec)
        rhs = kt.laplacian(f, p) / grad_norm - 8.0 * fv / (2.0 * np.sqrt(b))
        return abs(kt.level_mean_curvature(f, p) - rhs)
    return loop_regular(f, points, residual)


def loop_geodesic(d, points):
    nf = normalized_gradient_field(d.angle_function())
    return loop_regular(d.angle_function(), points,
                        lambda p, n: np.linalg.norm(
                            kt.cov_deriv(nf, kt.TangentVector(p, n)).vec))


def loop_sasakian(d, points):
    return [r for s in (d.s_alpha, d.s_beta)
            for r in loop_pairs(points, 17,
                                lambda p, u, v: sasakian_residual_batch(s, p, u, v))], 0


def loop_kcontact(d, points):
    return [abs(r) for s in (d.s_alpha, d.s_beta)
            for r in loop_pairs(points, 13, lambda p, u, v: killing_residual_batch(
                s.reeb_field(), p, u, v))], 0


PORTED = {
    "sasakian": (kt.check_sasakian, loop_sasakian),
    "kcontact": (kt.check_kcontact, loop_kcontact),
    "laplacian_formula": (kt.laplacian_formula_check, loop_laplacian_formula),
    "dimension_theorem": (kt.dim_theorem_check, loop_dim_theorem),
    "phi_product_spectrum": (
        lambda d, pts: kt.phi_product_spectrum_check(d, pts),
        loop_phi_product),
    "hessian_restricted": (
        lambda d, pts: kt.hessian_restriction_check(d, pts),
        loop_hessian),
    "geodesic_field": (lambda d, pts: kt.check_geodesic(d.angle_function(), pts),
                       loop_geodesic),
    "mean_curvature_identity": (
        lambda d, pts: kt.mean_curvature_identity_check(
            d.angle_function(), kt.ANGLE_PROFILE, pts), loop_mean_curvature),
}


@pytest.fixture(scope="module", params=DIMS, ids=lambda d: f"s{d}")
def two_block_points(request):
    dim = request.param
    pair = kt.standard_pair(dim)
    f = pair.angle_function()
    pts = sample_coords(40, 200 + dim, dim + 1, exclusion=lambda y: np.abs(values(f, y)) > 0.9)
    return pair, pts, np.vstack([pts[:35], np.eye(dim + 1)[0], pts[35:]])


@pytest.fixture
def two_blocks(two_block_points, monkeypatch):
    """40 points in blocks of 32, so the checks sweep more than one block,
    alone and with a point where |f| = 1 and grad f = 0 inserted at index
    35, in the second block."""
    monkeypatch.setattr(manifold, "BLOCK", 32)
    return two_block_points


@pytest.mark.parametrize("name", sorted(PORTED))
def test_ported_check_matches_the_point_loop(two_blocks, name):
    pair, pts, with_critical = two_blocks
    batched, loop = PORTED[name]
    if name == "dimension_theorem" and pair.dim == 7:
        with pytest.raises(kt.UnsupportedDimensionError):
            batched(pair, pts)
        return
    for points in (pts, with_critical):
        if name in ("sasakian", "kcontact"):
            subs = [batched(s, points) for s in (pair.s_alpha, pair.s_beta)]
            count, skipped = sum(r.count for r in subs), sum(r.skipped for r in subs)
            mx = max(r.max for r in subs)
        else:
            rep = batched(pair, points)
            count, skipped, mx = rep.count, rep.skipped, rep.max
        residuals, loop_skipped = loop(pair, points)
        assert (count, skipped) == (len(residuals), loop_skipped)
        loop_max = max(abs(r) for r in residuals)
        assert mx <= 10.0 * loop_max or mx <= 1e-13


def recorded_draws(monkeypatch):
    """The directions every block of a sweep draws, recorded at their one
    draw site, ``manifold.Block.tangents``."""
    drawn = []

    def recording(x, rng, shape):
        out = random_tangent_batch(x, rng, shape)
        drawn.append(out.reshape(-1, x.shape[-1]))
        return out

    monkeypatch.setattr(manifold, "random_tangent_batch", recording)
    return drawn


@pytest.mark.parametrize("check, seed", [(kt.check_sasakian, 17),
                                         (kt.check_kcontact, 13)])
def test_pair_checks_draw_the_loop_stream(two_blocks, monkeypatch, check, seed):
    pair, pts, with_critical = two_blocks
    drawn = recorded_draws(monkeypatch)
    check(pair.s_alpha, with_critical)
    rng = np.random.default_rng(seed)
    loop = [t for p in with_critical for _ in range(2) for t in loop_tangents(p, rng, 2)]
    assert_draws(np.concatenate(drawn), np.array(loop))


def test_hessian_diagnostic_draws_the_loop_stream_at_kept_points(two_blocks, monkeypatch):
    pair, pts, with_critical = two_blocks
    drawn = recorded_draws(monkeypatch)
    kt.hessian_restriction_check(pair, with_critical)
    if pair.dim == 3:                   # the sub-bundle is zero: nothing drawn
        assert drawn == []
        return
    # the Sasakian probe's sweep draws first, from its own stream; then
    # m−3 directions per kept point
    gate = loop_stream(sample_coords(6, 23, pair.ambient_dim), 17, 4)
    rng = np.random.default_rng(29)
    loop = [t for p in pts for t in loop_tangents(p, rng, pair.dim - 3)]
    assert_draws(np.concatenate(drawn), np.concatenate([gate, loop]))


def rebind(monkeypatch, module, name, record):
    """Replace ``module.name`` with one wrapper that passes each call's
    arguments and result to ``record``, bound in every kontact module
    that binds it, so the checks of a sweep still share one key for it."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        record(args, out)
        return out

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "kontact" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, wrapper)


def loop_stream(points, seed, per_point):
    """``per_point`` directions at each point, drawn as the per-point loop
    draws them from one stream seeded by ``seed``."""
    rng = np.random.default_rng(seed)
    return np.array([t for p in points for _ in range(per_point // 2)
                     for t in loop_tangents(p, rng, 2)])


@pytest.mark.parametrize("dim", (5, 7))
def test_suite_sweeps_its_points_once(dim, monkeypatch):
    # 40 points in blocks of 16: three blocks, each computing ∇f, Δf, the
    # sub-bundle projector and the harmonic covectors (one second-order jet
    # of the raw ∇f) once for every check that needs them, and the
    # sub-bundle's Jφ with its projector; no frame is built and no
    # eigensolver runs
    f = kt.standard_pair(dim).angle_function()
    x = sample_coords(40, 3, dim + 1, exclusion=lambda y: np.abs(values(f, y)) > 0.9)
    monkeypatch.setattr(manifold, "BLOCK", 16)
    calls = {name: [] for name in ("sweep", "frame_batch", "gradient_batch",
                                   "laplacian_batch", "_sub_bundle",
                                   "_covectors", "second_jet", "_phi_chain")}
    for module, name in ((manifold, "sweep"), (manifold, "frame_batch"),
                         (kt.scalar_fields, "gradient_batch"),
                         (kt.scalar_fields, "laplacian_batch"),
                         (kt.double_kcontact, "_sub_bundle"),
                         (kt.harmonic, "_covectors"), (ad, "second_jet"),
                         (kt.double_kcontact, "_phi_chain")):
        rebind(monkeypatch, module, name, lambda args, out, name=name: calls[name].append(args))
    eigvalsh = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: eigvalsh.append(args))
    streams = {}
    rebind(monkeypatch, manifold, "random_tangent_batch",
           lambda args, out: streams.setdefault(args[1], []).append(
               out.reshape(-1, args[0].shape[-1])))
    reports = run_suite(SuiteConfig(manifold=f"s{dim}", samples=40, seed=3))
    assert all(r.passed for r in reports)
    # the suite's one sweep over its 40 points, and the Sasakian probe's
    # over 6, which the suite's makes first and so ends first
    assert len(calls.pop("sweep")) == 2
    assert calls.pop("frame_batch") == [] and eigvalsh == []
    # Jφ on the sub-bundle once per block, and φJ once for the spectrum
    assert len(calls.pop("_phi_chain")) == 6
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 3)
    # one generator per stream, in the order the checks first draw: the σ
    # probes of both structures, the Sasakian probe, then the suite's
    # streams, which the α and β checks share: axioms ii and iii, Killing,
    # Sasakian, the sub-bundle Hessian (m−3 per point) and the Ricci check
    probe = sample_coords(4, kt.contact.PROBE_SEED, dim + 1)
    expected = ([loop_stream(probe, kt.contact.PROBE_SEED + 1, 2)] * 2
                + [loop_stream(sample_coords(6, 23, dim + 1), 17, 4)]
                + [loop_stream(x, 7, 2), loop_stream(x, 11, 4), loop_stream(x, 13, 4),
                   loop_stream(x, 17, 4), loop_stream(x, 29, dim - 3), loop_stream(x, 31, 2)])
    drawn = [np.concatenate(s) for s in streams.values()]
    assert len(drawn) == len(expected)
    for got, want in zip(drawn, expected):
        assert_draws(got, want)


@pytest.mark.parametrize("dim", DIMS)
def test_structures_share_each_draw_and_report_as_alone(dim, monkeypatch):
    # 40 points in blocks of 16: the checks of both structures swept
    # together draw each stream once per block, and each reports what it
    # reports swept alone
    pair = kt.standard_pair(dim)
    x = sample_coords(40, 9, dim + 1)
    monkeypatch.setattr(manifold, "BLOCK", 16)
    defs = (kt.check_axiom_ii, kt.check_axiom_iii, kt.check_kcontact,
            kt.check_sasakian, kt.contact.check_phi_skew)
    structures = (pair.s_alpha, pair.s_beta)
    alone = [check(s, x) for s in structures for check in defs]
    drawn = recorded_draws(monkeypatch)
    together = [check.build(s) for s in structures for check in defs]
    manifold.sweep(together, (x[sl] for sl in blocks(len(x), 16)))
    assert [c.report() for c in together] == alone
    assert len(drawn) == 3 * len(defs)


def reported_diagnostic(rep):
    """The full-argument diagnostic max printed in a Hessian report."""
    match = re.search(r"full-argument diagnostic \(ungated\) max (\S+)$", rep.provenance)
    assert match is not None
    return float(match.group(1))


@pytest.mark.parametrize("dim", (5, 7))
def test_hessian_diagnostic_is_reported(dim):
    # with the true gradient the diagnostic is rounding noise; read through
    # a gradient twice too long, the full-argument identity misses by
    # |Hess_f(u, v)|, O(1) and different for each pair (u, v), so the
    # printed max (four significant digits, matched to half a unit in the
    # last) tells which draws it read
    pair = kt.standard_pair(dim)
    f = pair.angle_function()
    pts = sample_coords(40, 31, dim + 1, exclusion=lambda y: np.abs(values(f, y)) > 0.9)
    assert reported_diagnostic(kt.hessian_restriction_check(pair, pts)) <= 1e-14
    scaled = scaled_gradient_pair(dim, 2.0)
    rep = kt.hessian_restriction_check(scaled, pts)
    reported = reported_diagnostic(rep)
    assert reported > 0.1
    assert reported == pytest.approx(hessian_diagnostic(scaled, pts), rel=5e-4, abs=0.0)
    if dim == 7:
        # two draws per point instead of the first two of m − 3 = 4 fail it
        assert reported != pytest.approx(hessian_diagnostic(scaled, pts, draws=2),
                                         rel=1e-2, abs=0.0)
    assert rep.provenance == kt.hessian_restriction_check(scaled, pts).provenance


def loop_invariants(d, points):
    za, xb, f = d.s_alpha.reeb_field(), d.s_beta.reeb_field(), d.angle_function()
    j1, j2 = d.s_alpha.j_ambient.mat, d.s_beta.j_ambient.mat
    out = []
    for p in points:
        z, x = j1 @ p, j2 @ p
        out.append(max(np.linalg.norm(kt.lie_bracket(xb, za, kt.SpherePoint(p)).vec),
                       abs(float(z @ z) - 1.0), abs(float(x @ x) - 1.0),
                       abs(float(z @ (j1 @ p)) - 1.0), abs(float(x @ (j2 @ p)) - 1.0),
                       np.linalg.norm(d.s_alpha.phi_at(p, z)),
                       np.linalg.norm(d.s_beta.phi_at(p, x)),
                       max(0.0, abs(values(f, p)) - 1.0)))
    return out


def loop_gradient_identity(d, points):
    f = d.angle_function()
    j1, j2 = d.s_alpha.j_ambient.mat, d.s_beta.j_ambient.mat
    grads = [kt.gradient(f, kt.SpherePoint(p)).vec for p in points]
    res_a = [np.linalg.norm(g - 2.0 * d.s_alpha.phi_at(p, j2 @ p))
             for p, g in zip(points, grads)]
    res_b = [np.linalg.norm(g - 2.0 * d.s_beta.phi_at(p, j1 @ p))
             for p, g in zip(points, grads)]
    return [max(a, b) for a, b in zip(res_a, res_b)]


def loop_transnormal(d, points):
    f = d.angle_function()
    grads = [kt.gradient(f, kt.SpherePoint(p)).vec for p in points]
    return [abs(float(g @ g) - kt.ANGLE_PROFILE.b(values(f, p)))
            for p, g in zip(points, grads)]


@pytest.mark.parametrize("check, loop", [
    (kt.commuting_invariants_check, loop_invariants),
    (kt.gradient_identity_check, loop_gradient_identity),
    (kt.transnormal_b_check, loop_transnormal)], ids=lambda c: c.__name__)
def test_headroom_checks_are_bitwise_the_point_loop(two_blocks, check, loop):
    # these checks sit at about 1 ulp and set the suite's smallest headroom;
    # the point loop is their oracle to ROW_BOUND, no longer bitwise
    pair, pts, with_critical = two_blocks
    for points in (pts, with_critical):
        rep = check(pair, points)
        vals = np.abs(np.asarray(loop(pair, points), dtype=float))
        assert rep.count == vals.size
        assert_rows([rep.max, rep.mean], [np.max(vals), np.add.accumulate(vals)[-1] / vals.size])
