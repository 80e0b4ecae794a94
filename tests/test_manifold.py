"""Sphere geometry core: projection, connection, curvature, frames, sampling."""

import gc
import hashlib
import threading
import weakref

import numpy as np
import pytest

import kontact as kt
from kontact import ad, manifold
from kontact.errors import (
    BasePointMismatchError,
    DegenerateInputError,
    GeometryError,
    SamplingExhaustedError,
)
from kontact.manifold import (
    Check,
    as_points,
    constant_field,
    cov_deriv_batch,
    curvature_numeric_batch,
    frame_batch,
    inner,
    lie_bracket_batch,
    proj_np,
    projected_eval,
    random_tangent_batch,
    sample_blocks,
    sample_coords,
    shape_form,
    shape_matrix,
    shape_norm_sq,
    shape_trace,
    sweep,
)
from kontact.report import ResidualReport
from kontact.scalar_fields import gradient_batch

from oracles import (
    curvature,
    curvature_numeric_two_pass,
    divergence,
    ricci_frame_sum,
    ricci_operator_frame_sum,
    values,
)

E1 = np.array([1.0, 0.0, 0.0, 0.0])
Q = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)


def field_values(field, x):
    """The projected field P·V at the points x."""
    return proj_np(x, np.asarray(ad.value(field.eval(x)), dtype=float))


def orthonormal_pair(x, rng):
    """Random orthonormal tangent pairs u, v at the points x."""
    u, v = np.moveaxis(random_tangent_batch(x, rng, (2,)), 1, 0)
    v = v - inner(u, v)[:, None] * u
    return u, v / np.sqrt(inner(v, v))[:, None]


def test_project_leaves_tangent_vectors_alone():
    out = proj_np(E1, np.array([0.0, 1.0, 0.0, 0.0]))
    assert np.allclose(out, [0.0, 1.0, 0.0, 0.0])


def test_project_kills_normal_direction():
    out = proj_np(E1, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out, 0.0)


def test_project_is_identity_on_the_angle_gradient():
    v = np.array([-np.sqrt(2.0), 0.0, np.sqrt(2.0), 0.0])
    assert abs(v @ Q) < 1e-15
    out = proj_np(Q, v)
    assert np.allclose(out, v, atol=1e-15)


def test_project_idempotent_and_tangent():
    rng = np.random.default_rng(0)
    x = sample_coords(10, 0, 4)
    v = rng.standard_normal((10, 4))
    once = proj_np(x, v)
    twice = proj_np(x, once)
    assert np.allclose(once, twice, atol=1e-15)
    assert np.max(np.abs(inner(once, x))) < 1e-12


def test_point_norm_validated():
    with pytest.raises(GeometryError):
        kt.SpherePoint(np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("make", [
    lambda: kt.SpherePoint(np.array([np.nan, 0.0, 0.0, 0.0])),
    lambda: kt.TangentVector(kt.SpherePoint(E1), np.array([np.nan, 1.0, 0.0, 0.0])),
], ids=["point", "tangent vector"])
def test_one_row_validators_reject_nan(make):
    with pytest.raises(GeometryError):
        make()


def test_metric_reeb_values(pair3):
    z = pair3.s_alpha.j_ambient.mat @ E1
    x = pair3.s_beta.j_ambient.mat @ E1
    assert np.allclose(z, [0.0, -1.0, 0.0, 0.0])
    assert abs(inner(z, z) - 1.0) < 1e-15
    assert abs(inner(z, x) + 1.0) < 1e-15


def test_metric_base_mismatch_raises(pair3):
    # a seed attached to another point than the frame's
    q = kt.SpherePoint(Q)
    z = kt.TangentVector(q, pair3.s_alpha.j_ambient.mat @ Q)
    with pytest.raises(BasePointMismatchError):
        kt.gram_schmidt_frame(kt.SpherePoint(E1), [z])
    with pytest.raises(BasePointMismatchError):
        kt.curvature_numeric(kt.tangent_basis(kt.SpherePoint(E1))[0], z, z)


def test_metric_orthogonal_after_gram_schmidt(pair3):
    q = kt.SpherePoint(Q)
    fr = kt.gram_schmidt_frame(q, [kt.TangentVector(q, pair3.s_alpha.j_ambient.mat @ Q)])
    assert abs(fr[0].vec @ fr[1].vec) < 1e-12


def test_cov_deriv_linear_field_oracle(pair3, pts3, rng):
    # for Z(x) = J x the connection is the projected matrix action
    jm = pair3.s_alpha.j_ambient.mat
    zf = pair3.s_alpha.reeb_field()
    x = pts3[:10]
    u = random_tangent_batch(x, rng, ())
    got = cov_deriv_batch(zf, x, u)
    assert np.allclose(got, proj_np(x, u @ jm.T), atol=1e-13)
    for p, w, row in zip(x, u, got):
        one = kt.cov_deriv(zf, kt.TangentVector(kt.SpherePoint(p), w))
        assert np.array_equal(one.vec, row)


def test_cov_deriv_unit_field_orthogonal(pair3, pts3, rng):
    zf = pair3.s_alpha.reeb_field()
    x = pts3[:10]
    u = random_tangent_batch(x, rng, ())
    z = x @ pair3.s_alpha.j_ambient.mat.T
    assert np.max(np.abs(inner(cov_deriv_batch(zf, x, u), z))) < 1e-12


def test_cov_deriv_transnormal_level_direction(angle3, pts3, rng):
    # for u tangent to a level set, g(grad f, cov_deriv(grad f, u)) = 0
    gf = kt.gradient_field(angle3)
    x = pts3[:10]
    g = gradient_batch(angle3, x)
    u = random_tangent_batch(x, rng, ())
    u = u - (inner(u, g) / inner(g, g))[:, None] * g
    assert np.max(np.abs(inner(cov_deriv_batch(gf, x, u), g))) < 1e-10


def test_cov_deriv_rejects_non_tangent_field():
    bad = kt.AmbientVectorField(lambda x: x, tangent=False, label="radial")
    u = kt.TangentVector(kt.SpherePoint(E1), np.array([0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(kt.TangencyError):
        kt.cov_deriv(bad, u)


def test_lie_bracket_of_commuting_reeb_fields(pair3, pts3):
    za = pair3.s_alpha.reeb_field()
    xb = pair3.s_beta.reeb_field()
    for p in pts3[:20]:
        assert np.linalg.norm(kt.lie_bracket(za, xb, kt.SpherePoint(p)).vec) < 1e-12


def test_lie_bracket_with_itself_vanishes(pair3, pts3):
    za = pair3.s_alpha.reeb_field()
    assert np.linalg.norm(kt.lie_bracket(za, za, kt.SpherePoint(pts3[0])).vec) < 1e-14


def test_lie_bracket_matches_torsion_free_connection(pair3, pts3):
    za = pair3.s_alpha.reeb_field()
    phi_x = pair3.s_alpha.phi_field(pair3.s_beta.reeb_field())
    x = pts3[:10]
    lhs = lie_bracket_batch(za, phi_x, x)
    z = x @ pair3.s_alpha.j_ambient.mat.T
    rhs = cov_deriv_batch(phi_x, x, z) - cov_deriv_batch(za, x, field_values(phi_x, x))
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_torsion_free_on_random_fields(pts3_plain, rng):
    mats = [rng.standard_normal((4, 4)) for _ in range(2)]
    mats = [m - m.T for m in mats]
    v = kt.linear_field(mats[0])
    w = kt.linear_field(mats[1])
    x = pts3_plain
    lhs = cov_deriv_batch(w, x, field_values(v, x)) - cov_deriv_batch(v, x, field_values(w, x))
    rhs = proj_np(x, lie_bracket_batch(v, w, x))
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_metric_compatibility_along_great_circles(pair3, pts3, rng):
    # u(g(A, B)) = g(∇_u A, B) + g(A, ∇_u B); a curve's first derivative
    # at its start depends on its velocity alone, so u(g(A, B)) is the
    # directional derivative along u
    za = pair3.s_alpha.reeb_field()
    phi_x = pair3.s_alpha.phi_field(pair3.s_beta.reeb_field())

    def product(y):
        return ad.dot(projected_eval(za, y), projected_eval(phi_x, y))

    x = pts3[:15]
    u = random_tangent_batch(x, rng, ())
    lhs = ad.value(ad.directional(product, x, u))
    rhs = (inner(cov_deriv_batch(za, x, u), field_values(phi_x, x))
           + inner(field_values(za, x), cov_deriv_batch(phi_x, x, u)))
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_curvature_sectional_value(pts3_plain, rng):
    u, v = orthonormal_pair(pts3_plain[:10], rng)
    assert np.allclose(curvature(u, v, v), u, atol=1e-12)


def test_curvature_antisymmetry(pts3_plain, rng):
    u, w = np.moveaxis(random_tangent_batch(pts3_plain[:1], rng, (2,)), 1, 0)
    assert np.max(np.abs(curvature(u, u, w))) < 1e-14


def test_curvature_numeric_matches_analytic(pts3_plain, rng):
    x = pts3_plain[:10]
    u, v, w = np.moveaxis(random_tangent_batch(x, rng, (3,)), 1, 0)
    got = curvature_numeric_batch(x, u, v, w)
    assert np.allclose(got, curvature(u, v, w), atol=1e-8)
    p = kt.SpherePoint(x[0])
    one = kt.curvature_numeric(*(kt.TangentVector(p, t[0]) for t in (u, v, w)))
    assert np.array_equal(one.vec, got[0])


@pytest.mark.parametrize("dim", (3, 7))
@pytest.mark.parametrize("count", (20, 25, 1024))
def test_curvature_numeric_stacks_its_two_passes_bitwise(dim, count):
    # one nested evaluation on the stack [v, u] rounds as the two passes do,
    # on plain rows and on the broadcast shapes of the Ricci check
    x = sample_coords(count, dim, dim + 1)
    rng = np.random.default_rng(count)
    u, v, w = np.moveaxis(random_tangent_batch(x, rng, (3,)), 1, 0)
    y, axes = x[:, None, None], manifold.projector(x)[:, :, None, :]
    level = random_tangent_batch(x, rng, (2,))[:, None]
    for args in ((x, u, v, w), (y, axes, level, w[:, None, None])):
        assert np.array_equal(curvature_numeric_batch(*args), curvature_numeric_two_pass(*args))


def test_curvature_plane_orthogonal_to_normal_term(angle3, pts3, rng):
    # g(R(N, E) N, N) = 0
    x = pts3[:5]
    g = gradient_batch(angle3, x)
    n = g / np.sqrt(inner(g, g))[:, None]
    e = random_tangent_batch(x, rng, ())
    assert np.max(np.abs(inner(curvature(n, e, n), n))) < 1e-12


def test_ricci_values_and_operator(pair3, pts3, pts5):
    x = pts3[:1]
    z = x @ pair3.s_alpha.j_ambient.mat.T
    assert np.allclose(ricci_operator_frame_sum(x, z), 2.0 * z, atol=1e-12)  # 2n, n=1
    y = pts5[:1]
    u = frame_batch(y)[:, 0]
    assert abs(ricci_frame_sum(y, u, u)[0] - 4.0) < 1e-12  # m-1 with m=5


def test_ricci_orthogonal_pair_vanishes(pts3, rng):
    x = pts3[:1]
    u, v = orthonormal_pair(x, rng)
    assert abs(ricci_frame_sum(x, u, v)[0]) < 1e-12


def test_ricci_frame_sum_matches_analytic(pts3_plain, rng):
    x = pts3_plain[:5]
    u, v = np.moveaxis(random_tangent_batch(x, rng, (2,)), 1, 0)
    assert np.max(np.abs(ricci_frame_sum(x, u, v) - 2.0 * inner(u, v))) < 1e-12


def test_ricci_frame_sum_with_numeric_curvature(pair3, pts3):
    x = pts3[:5]
    z = x @ pair3.s_alpha.j_ambient.mat.T
    qz = ricci_operator_frame_sum(x, z, curvature_fn=curvature_numeric_batch)
    assert np.allclose(qz, 2.0 * z, atol=1e-8)


def test_gram_schmidt_keeps_unit_seed(pair3, pts3):
    p = kt.SpherePoint(pts3[0])
    z = kt.TangentVector(p, pair3.s_alpha.j_ambient.mat @ p.coords)
    fr = kt.gram_schmidt_frame(p, [z])
    assert np.allclose(fr[0].vec, z.vec, atol=1e-13)


def test_gram_schmidt_keeps_orthonormal_pair(pair3):
    # at f = 0 the two Reeb fields are orthogonal
    q = kt.SpherePoint(Q)
    z = kt.TangentVector(q, pair3.s_alpha.j_ambient.mat @ Q)
    x = kt.TangentVector(q, pair3.s_beta.j_ambient.mat @ Q)
    fr = kt.gram_schmidt_frame(q, [z, x])
    assert np.allclose(fr[0].vec, z.vec, atol=1e-13)
    assert np.allclose(fr[1].vec, x.vec, atol=1e-13)


def test_gram_schmidt_adapted_frame_formula(pair3, angle3):
    # second frame vector is (X - f Z)/sqrt(1 - f^2)
    cands = sample_coords(500, 3, 4)
    near = np.flatnonzero(np.abs(values(angle3, cands) + 0.5) < 5e-3)
    assert near.size
    p = kt.SpherePoint(cands[near[0]])
    z = pair3.s_alpha.j_ambient.mat @ p.coords
    x = pair3.s_beta.j_ambient.mat @ p.coords
    f = values(angle3, p.coords)
    fr = kt.gram_schmidt_frame(p, [kt.TangentVector(p, z), kt.TangentVector(p, x)])
    assert np.allclose(fr[1].vec, (x - f * z) / np.sqrt(1.0 - f * f), atol=1e-12)


def test_gram_schmidt_rejects_dependent_seeds(pair3, pts3):
    p = kt.SpherePoint(pts3[0])
    z = pair3.s_alpha.j_ambient.mat @ p.coords
    with pytest.raises(DegenerateInputError):
        kt.gram_schmidt_frame(p, [kt.TangentVector(p, z), kt.TangentVector(p, 2.0 * z)])


def test_frames_are_orthonormal(pts3_plain):
    for p in pts3_plain[:10]:
        fr = kt.tangent_basis(kt.SpherePoint(p))
        gram = fr.matrix @ fr.matrix.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10


def test_sample_points_unit_norm_and_deterministic():
    a = kt.sample_points(50, 9, 4)
    b = kt.sample_points(50, 9, 4)
    for p, q in zip(a, b):
        assert abs(np.linalg.norm(p.coords) - 1.0) < 1e-12
        assert np.array_equal(p.coords, q.coords)


def test_sample_points_exclusion_contract(angle3):
    pts = kt.sample_points(100, 5, 4,
                           exclusion=lambda p: abs(values(angle3, p.coords)) > 0.9)
    assert all(abs(values(angle3, p.coords)) <= 0.9 for p in pts)


def test_sample_points_exhaustion():
    with pytest.raises(SamplingExhaustedError):
        kt.sample_points(10, 1, 4, exclusion=lambda p: True)


def test_sample_points_are_the_sample_coords_rows(angle3):
    pts = kt.sample_points(100, 5, 4,
                           exclusion=lambda p: abs(values(angle3, p.coords)) > 0.9)
    x = sample_coords(100, 5, 4, exclusion=lambda x: np.abs(values(angle3, x)) > 0.9)
    assert np.array_equal(np.array([p.coords for p in pts]), x)


@pytest.mark.parametrize("dim, digest", [(3, "80d56b6bdbb9d782"),
                                         (5, "cf35fd7599ac71bb"),
                                         (7, "1282b15d7801bbbf")])
def test_sample_coords_digest_is_pinned(dim, digest):
    # the verify suite's default points; a change here changes every report
    f = kt.standard_pair(dim).angle_function()
    x = sample_coords(500, 42, dim + 1,
                      exclusion=lambda x: np.abs(ad.value(f.eval(x))) > 0.9)
    assert hashlib.sha256(x.tobytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("dim, count, seed, cutoff, digest", [
    (7, 5000, 1, 0.9, "cfecc5cff059c2f3"), (3, 3000, 2, 0.3, "3bdde4110d082954"),
    (5, 2500, 7, 0.9, "93c7d67167f2079f")])
def test_multi_block_draws_are_pinned(dim, count, seed, cutoff, digest):
    # the points of verify over several blocks, as one array and as the
    # stream of BLOCK-point blocks the suite sweeps
    f = kt.standard_pair(dim).angle_function()

    def exclusion(x):
        return np.abs(ad.value(f.eval(x))) > cutoff

    parts = list(sample_blocks(count, seed, dim + 1, manifold.BLOCK, exclusion))
    assert [len(x) for x in parts[:-1]] == [manifold.BLOCK] * (len(parts) - 1)
    assert 0 < len(parts[-1]) <= manifold.BLOCK
    for x in (sample_coords(count, seed, dim + 1, exclusion), np.concatenate(parts)):
        assert hashlib.sha256(x.tobytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("dim, digest", [(3, "456bbe3c660c78b2"),
                                         (7, "6ef07b233069cd31")])
def test_energy_draw_digest_is_pinned(dim, digest):
    # the 20 000 energy_reeb samples of a default verify (seed 42 + 1)
    x = sample_coords(20_000, 43, dim + 1)
    assert hashlib.sha256(x.tobytes()).hexdigest()[:16] == digest


class ZeroRowFirst:
    """``np.random.default_rng`` whose first draw has an all-zero row 3."""

    def __init__(self, seed, real=np.random.default_rng):
        self.rng, self.first = real(seed), True

    def standard_normal(self, shape):
        g = self.rng.standard_normal(shape)
        if self.first:
            g[3], self.first = 0.0, False
        return g


def test_sample_coords_rejects_an_all_zero_draw(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", ZeroRowFirst)
    x = sample_coords(100, 5, 4)
    monkeypatch.undo()
    rng = np.random.default_rng(5)
    g = np.concatenate([np.delete(rng.standard_normal((100, 4)), 3, axis=0),
                        rng.standard_normal((64, 4))[:1]])
    assert np.array_equal(x, g / np.linalg.norm(g, axis=1)[:, None])
    assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) < 1e-15


def test_sample_blocks_drop_an_all_zero_draw_as_sample_coords_does(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", ZeroRowFirst)
    parts = list(sample_blocks(100, 5, 4, 64))
    assert [len(x) for x in parts] == [64, 36]
    assert np.array_equal(np.concatenate(parts), sample_coords(100, 5, 4))


class RecordedDraws:
    """``np.random.default_rng`` that records the thread of each draw in
    ``threads`` and cannot allocate its ``fail``-th draw."""

    def __init__(self, seed, fail=0, real=np.random.default_rng):
        self.rng, self.fail, self.threads = real(seed), fail, []

    def standard_normal(self, shape):
        self.threads.append(threading.get_ident())
        if len(self.threads) == self.fail:
            raise MemoryError(f"draw {self.fail} of shape {shape}")
        return self.rng.standard_normal(shape)


def cpus(monkeypatch, n):
    """Make the process's affinity mask read ``n`` CPUs."""
    monkeypatch.setattr(manifold.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def worker_alive():
    return any(t.name == "kontact-draw-ahead" for t in threading.enumerate())


# 1000 points in blocks of 64: the first batch is sixteen pieces
EXCLUSIONS = {"plain": None, "excluded": lambda x: x[:, 0] > 0.5}


@pytest.mark.parametrize("exclusion", EXCLUSIONS.values(), ids=EXCLUSIONS.keys())
def test_sample_blocks_draw_ahead_on_a_worker_and_join_it(exclusion, monkeypatch):
    cpus(monkeypatch, 2)
    before = threading.active_count()
    seen = []
    for x in sample_blocks(1000, 3, 4, 64, exclusion):
        seen.append(worker_alive())
    assert seen[0]
    assert threading.active_count() == before
    stream = sample_blocks(1000, 3, 4, 64, exclusion)
    next(stream)
    assert worker_alive()
    stream.close()
    assert threading.active_count() == before


@pytest.mark.parametrize("exclusion", EXCLUSIONS.values(), ids=EXCLUSIONS.keys())
def test_sample_blocks_raise_a_failed_draw_ahead_in_the_caller(exclusion, monkeypatch):
    cpus(monkeypatch, 2)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: RecordedDraws(seed, fail=2))
    before = threading.active_count()
    with pytest.raises(MemoryError, match="draw 2 of shape \\(64, 4\\)") as failed:
        list(sample_blocks(1000, 3, 4, 64, exclusion))
    assert failed.type is MemoryError
    assert threading.active_count() == before


def test_sample_blocks_draw_ahead_on_the_worker_and_exclude_on_the_caller(monkeypatch):
    cpus(monkeypatch, 2)
    made = []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(RecordedDraws(seed)) or made[-1])
    me, excluders = threading.get_ident(), set()

    def exclusion(x):
        excluders.add(threading.get_ident())
        return x[:, 0] > 0.5

    list(sample_blocks(1000, 3, 4, 64))
    list(sample_blocks(1000, 3, 4, 64, exclusion))
    plain, excluded = (rng.threads for rng in made)
    # the first piece of a batch is drawn on the caller, the rest ahead
    assert len(plain) == 16 and plain[0] == me and me not in set(plain[1:])
    assert len(set(plain[1:])) == 1
    assert excluded[0] == me and len(set(excluded)) == 2
    assert excluders == {me}


@pytest.mark.parametrize("exclusion", EXCLUSIONS.values(), ids=EXCLUSIONS.keys())
def test_sample_blocks_on_one_cpu_start_no_thread(exclusion, monkeypatch):
    cpus(monkeypatch, 2)
    ahead = np.concatenate(list(sample_blocks(1000, 3, 4, 64, exclusion)))
    cpus(monkeypatch, 1)
    before, counts = threading.active_count(), []
    parts = []
    for x in sample_blocks(1000, 3, 4, 64, exclusion):
        counts.append(threading.active_count())
        parts.append(x)
    assert counts == [before] * len(parts)
    assert np.array_equal(np.concatenate(parts), ahead)
    assert np.array_equal(ahead, sample_coords(1000, 3, 4, exclusion))


def test_as_points_takes_arrays_and_point_lists(pts3):
    x = pts3
    assert np.array_equal(as_points([kt.SpherePoint(p) for p in x], 4), x)
    assert as_points(x, 4) is x
    assert as_points([], 4).shape == (0, 4)


def malformed(x, case):
    bad = x.copy()
    if case == "non-unit row":
        bad[1] *= 1.0 + 1e-9
    elif case == "nan row":
        bad[2, 0] = np.nan
    elif case == "wrong width":
        bad = np.hstack([x, np.zeros((len(x), 1))])
    else:
        bad = x[0]
    return bad


@pytest.mark.parametrize("case", ["non-unit row", "nan row", "wrong width", "one point"])
def test_as_points_and_checkers_reject_malformed_points(pair3, pts3, angle3, case):
    bad = malformed(pts3[:5], case)
    n_field = kt.normalized_gradient_unit_field(angle3)
    for check in (lambda: as_points(bad, 4),
                  lambda: kt.check_axiom_ii(pair3.s_alpha, bad),
                  lambda: kt.commuting_invariants_check(pair3, bad),
                  lambda: kt.laplacian_formula_check(pair3, bad),
                  lambda: kt.check_geodesic(angle3, bad),
                  lambda: kt.mean_curvature_identity_check(angle3, kt.ANGLE_PROFILE, bad),
                  lambda: kt.harmonicity_check(n_field, bad),
                  lambda: kt.critical_condition_check(n_field, bad)):
        with pytest.raises(GeometryError):
            check()


def test_sweep_keeps_point_order_across_blocks():
    x = sample_coords(70, 3, 4)
    seen = []

    def kernel(b):
        seen.append((b.x, b.index))
        return np.stack([b.x[:, 0], b.index], axis=1)

    check = Check("order", 1.0, kernel)
    sweep([check], sample_blocks(70, 3, 4, 32))
    assert [len(y) for y, _ in seen] == [32, 32, 6]
    assert np.array_equal(np.concatenate([y for y, _ in seen]), x)
    assert np.array_equal(np.concatenate([i for _, i in seen]), np.arange(70))
    # the tally's sum carries over from block to block, left to right
    vals = np.abs(np.stack([x[:, 0], np.arange(70.0)], axis=1)).ravel()
    rep = check.report()
    assert (rep.count, rep.skipped, rep.max) == (140, 0, np.max(vals))
    assert rep.mean == np.add.accumulate(vals)[-1] / 140


def test_sweep_mask_slices_aligned_arrays_and_counts_skips():
    # a mask keeps rows of each block; the kernel computes at those rows
    # (Block.of) or takes them from a quantity of the whole block
    # (Block.full), which is computed once per block for every check
    x = sample_coords(70, 3, 4)
    computed = []

    def first_coordinate(y):
        computed.append(len(y))
        return y[:, 0]

    def kept(b):
        return b.index % 3 != 0

    def kernel(b):
        return b.full(first_coordinate) + b.of(first_coordinate) + b.x[:, 1]

    checks = [Check(name, 3.0, kernel, keep=(kept,)) for name in ("a", "b")]
    sweep(checks, sample_blocks(70, 3, 4, 32))
    keep = np.arange(70) % 3 != 0
    assert computed == [32, 21, 32, 21, 6, 4]
    vals = np.abs(2.0 * x[:, 0] + x[:, 1])[keep]
    ref = ResidualReport("a", vals.size, 70 - vals.size, np.max(vals),
                         np.add.accumulate(vals)[-1] / vals.size, 3.0, True)
    assert [c.report() for c in checks] == [ref, ref._replace(check_name="b")]


@pytest.mark.parametrize("count, keep", [(0, None), (0, []), (5, [False] * 5)],
                         ids=["no points", "no points masked", "no point kept"])
def test_sweep_of_nothing_calls_no_kernel(count, keep):
    def kernel(b):
        raise AssertionError("called on an empty block")

    mask = () if keep is None else (lambda b: np.array(keep, dtype=bool)[b.index],)
    check = Check("empty", 1.0, kernel, keep=mask)
    sweep([check], [sample_coords(5, 3, 4)[:count]])
    assert check.report() == ResidualReport("empty", 0, count, 0.0, 0.0, 1.0, True)


def test_sweep_frees_each_block_before_the_next():
    # a block and its masked sub-blocks hold the arrays the checks share,
    # their tangent draws included; they go when the sweep moves on, not
    # at the next cycle collection, and the sweep's stream table keeps
    # generators only
    seen, tables = [], []

    def kernel(b):
        assert all(ref() is None for ref in seen)
        seen.append(weakref.ref(b))
        b.tangents(3, (2,))
        tables.append(b._streams)
        return b.full(lambda y: y[:, 0])

    gc.disable()
    try:
        sweep([Check("freed", 1.0, kernel, keep=(lambda b: b.index % 2 == 0,))],
              sample_blocks(40, 3, 4, 8))
    finally:
        gc.enable()
    assert len(seen) == 5
    assert all(t is tables[0] for t in tables)
    assert [type(g) for g in tables[0].values()] == [np.random.Generator]


def test_same_stream_on_other_points_draws_as_alone():
    # one seed and shape on the whole block and on two masks: three
    # streams, and each check draws what it draws swept alone
    masks = [(), (lambda b: b.index % 3 == 0,), (lambda b: b.x[:, 0] > 0.0,)]

    def drawing(keep):
        drawn = []

        def kernel(b):
            drawn.append(b.tangents(5, (2,)))
            return b.x[:, 0]

        return drawn, Check("draws", 1.0, kernel, keep=keep)

    alone = []
    for keep in masks:
        drawn, check = drawing(keep)
        sweep([check], sample_blocks(40, 3, 4, 16))
        alone.append(drawn)
    together = [drawing(keep) for keep in masks]
    sweep([check for _, check in together], sample_blocks(40, 3, 4, 16))
    for (drawn, _), want in zip(together, alone):
        assert len(drawn) == len(want) == 3
        assert all(np.array_equal(a, b) for a, b in zip(drawn, want))


def test_checkers_take_points_by_position_or_keyword(pair5, pts5):
    x = pts5[:20]
    for check, args in ((kt.check_axiom_ii, (pair5.s_alpha,)),
                        (kt.laplacian_formula_check, (pair5,)),
                        (kt.contact.check_killing, (pair5.s_beta.reeb_field(), "killing_beta")),
                        (kt.check_transnormal, (pair5.angle_function(), kt.ANGLE_PROFILE))):
        assert check(*args, points=x) == check(*args, x)
        assert check(*args, points=x, tol=1e-3) == check(*args, x, tol=1e-3)
        with pytest.raises(TypeError, match="'points'"):
            check(args[0])


def test_sweep_probes_each_precondition_once():
    probed = []

    def probe(tag):
        probed.append(tag)

    checks = [Check(name, 1.0, lambda b: b.x[:, 0], before=(probe, tag))
              for name, tag in (("a", 1), ("b", 1), ("c", 2))]
    sweep(checks, [])
    assert probed == [1, 2]


def test_value_records_compare_by_value_and_identity_records_by_identity():
    # reports, estimates and profiles are values: equal fields make equal,
    # equally hashed records that refuse assignment
    values_twice = [(ResidualReport("a", 3, 0, 1e-16, 5e-17, 1e-9, True, "p"),
                     ResidualReport("a", 3, 0, 1e-16, 5e-17, 1e-9, True, "p")),
                    (kt.EnergyEstimate(1.5, 0.1, 10, 2), kt.EnergyEstimate(1.5, 0.1, 10, 2)),
                    (kt.TransnormalProfile(abs, abs), kt.TransnormalProfile(abs, abs)),
                    (kt.IsoparametricProfile(abs), kt.IsoparametricProfile(abs))]
    for one, two in values_twice:
        assert one is not two and one == two and hash(one) == hash(two)
        first = one._fields[0]
        assert one._replace(**{first: None}) != one
        with pytest.raises(AttributeError):
            setattr(one, first, None)
    # the objects a sweep keys its shared quantities on are themselves:
    # two equal pairs, their angle functions and unit gradients are
    # distinct keys of Block.of, each computed once
    pairs = kt.standard_pair(5), kt.standard_pair(5)
    angles = [p.angle_function() for p in pairs]
    computed = []

    def compute(record, x):
        computed.append(record)

    for one, two in (pairs, angles, [kt.normalized_gradient_unit_field(f) for f in angles]):
        assert one != two and hash(one) != hash(two)
        block = manifold.Block(sample_coords(4, 1, 6), np.arange(4), {})
        for record in (one, two, one, two):
            block.of(compute, record)
        assert computed == [one, two]
        computed.clear()


def test_extension_field_restriction(pts3, rng):
    # the projected constant through a tangent vector restricts to it
    x = pts3[:1]
    u = random_tangent_batch(x, rng, ())
    assert np.allclose(field_values(constant_field(u[0]), x), u, atol=1e-14)


def test_constant_field_tangent_everywhere(pts3_plain):
    c = constant_field(np.array([0.3, -1.0, 0.2, 0.7]))
    x = pts3_plain[:10]
    assert np.max(np.abs(inner(ad.value(c.eval(x)), x))) < 1e-12


def test_tangent_flagged_fields_have_tangent_raw_formulas(pair3, pts3_plain):
    fields = [pair3.s_alpha.reeb_field(),
              pair3.s_alpha.phi_field(pair3.s_beta.reeb_field()),
              kt.gradient_field(pair3.angle_function()),
              constant_field(np.array([0.3, -1.0, 0.2, 0.7]))]
    for field in fields:
        assert field.tangent
        x = pts3_plain[:10]
        assert np.max(np.abs(inner(np.asarray(ad.value(field.eval(x))), x))) < 1e-10


def test_proj_np_matches_project(pts3_plain, rng):
    # each row is the one-point projection v − ⟨v,p⟩p
    x = pts3_plain[:10]
    v = rng.standard_normal((10, 4))
    rows = proj_np(x, v)
    for p, w, row in zip(x, v, rows):
        assert np.array_equal(proj_np(p, w), row)
        assert np.allclose(row, w - (w @ p) * p, atol=1e-15)


def test_sphere_volume_values():
    assert abs(kt.sphere_volume(3) - 2.0 * np.pi ** 2) < 1e-12
    assert abs(kt.sphere_volume(5) - np.pi ** 3) < 1e-12
    assert abs(kt.sphere_volume(7) - np.pi ** 4 / 3.0) < 1e-12


# ---------------------------------------------------------------------------
# shape_matrix and cov_deriv_batch against the projected-field Jacobian

def projected_shape_matrix(field, x):
    """Oracle: P·Jac(P·V)·P, the Jacobian of the projected composite."""
    dim = x.shape[-1]
    rows = ad.jacobian_rows(lambda y: projected_eval(field, y), x, dim)
    proj = np.eye(dim) - x[..., :, None] * x[..., None, :]
    return proj @ ad.axis0_to_last(ad.value(rows)) @ proj


def projected_cov_deriv(field, x, u):
    """Oracle: P·D_u(P·V), the derivative of the projected composite."""
    return proj_np(x, ad.value(ad.directional(lambda y: projected_eval(field, y), x, u)))


def gauss_fields(dim):
    """(label, field, guard) on S^(dim-1): fields whose raw formulas are
    tangent on the sphere, and two whose raw formulas have ⟨x, V⟩ ≠ 0."""
    pair = kt.standard_pair(dim - 1)
    angle = pair.angle_function()
    coeff = np.random.default_rng(dim).standard_normal((3, dim))
    jm = pair.s_alpha.j_ambient.mat
    twisted = kt.twisted_unit_field(*coeff)
    gradient = kt.normalized_gradient_unit_field(angle)
    return [
        ("reeb", pair.s_alpha.reeb_field(), None),
        ("unit gradient", gradient.field, gradient.domain),
        ("twisted", twisted.field, twisted.guard),
        ("projected constant", constant_field(coeff[0]), None),
        ("raw constant", kt.AmbientVectorField(lambda x: ad.lift(coeff[0], x)), None),
        ("x + Jx", kt.AmbientVectorField(lambda x: x + ad.matvec(jm, x)), None),
    ]


@pytest.mark.parametrize("dim", [4, 6, 8], ids=["s3", "s5", "s7"])
def test_closed_form_gauss_derivative_matches_the_projected_jacobian(dim):
    x = sample_coords(300, dim, dim)
    u = proj_np(x, np.random.default_rng(dim + 1).standard_normal(x.shape))
    off_tangent = 0.0
    for label, field, guard in gauss_fields(dim):
        keep = np.ones(len(x), dtype=bool) if guard is None else guard(x)
        y, w = x[keep], u[keep]
        assert len(y) > 200, label
        xv = manifold.inner(y, np.asarray(ad.value(field.eval(y))))
        off_tangent = max(off_tangent, float(np.max(np.abs(xv))))
        ref = projected_shape_matrix(field, y)
        got = shape_matrix(field, y)
        scale = np.maximum(1.0, np.max(np.abs(ref), axis=(-2, -1)))
        err = np.max(np.abs(got - ref), axis=(-2, -1)) / scale
        assert np.max(err) < 1e-13, (label, np.max(err))
        # tr L = m + ‖S‖²_F from the Jacobian invariants against the matrix
        trace = (dim - 1) + np.sum(got * got, axis=(-2, -1))
        err = np.abs((dim - 1) + shape_norm_sq(field, y) - trace) / trace
        assert np.max(err) < 1e-13, (label, np.max(err))
        ref = projected_cov_deriv(field, y, w)
        got = manifold.cov_deriv_batch(field, y, w)
        scale = np.maximum(1.0, np.max(np.abs(ref), axis=-1))
        err = np.max(np.abs(got - ref), axis=-1) / scale
        assert np.max(err) < 1e-13, (label, np.max(err))
    # Only where ⟨x, V⟩ ≠ 0 do the −⟨x, V⟩·P term of the closed form and the
    # k = ⟨x, V⟩ terms of shape_norm_sq count.
    assert off_tangent > 0.1


@pytest.mark.parametrize("dim", [4, 6, 8], ids=["s3", "s5", "s7"])
def test_shape_form_is_the_shape_matrix_on_tangent_pairs(dim):
    # uᵀ S v from one dual evaluation along v, against the full matrix:
    # for fields whose S is not symmetric this also pins the order of u, v
    x = sample_coords(300, dim + 7, dim)
    u, v = np.moveaxis(random_tangent_batch(x, np.random.default_rng(dim), (2,)), 1, 0)
    for label, field, guard in gauss_fields(dim):
        keep = np.ones(len(x), dtype=bool) if guard is None else guard(x)
        y, a, b = x[keep], u[keep], v[keep]
        assert len(y) > 200, label
        s = shape_matrix(field, y)
        want = inner(a, manifold.apply(s, b))
        scale = np.maximum(1.0, np.max(np.abs(s), axis=(-2, -1)))
        assert np.max(np.abs(shape_form(field, y, a, b) - want) / scale) < 1e-13, label
        # the points broadcast against several directions each
        pairs = shape_form(field, y[:, None, :], np.stack([a, b], axis=1), b[:, None, :])
        assert pairs.shape == (len(y), 2)
        assert np.max(np.abs(pairs[:, 0] - want) / scale) < 1e-13, label
    reeb = gauss_fields(dim)[0][1]
    s = shape_matrix(reeb, x)
    assert np.max(np.abs(inner(u, manifold.apply(s, v)) - inner(v, manifold.apply(s, u)))) > 0.1


def constant_jacobian_fields(dim):
    """(label, field) on S^(dim-1) whose raw Jacobian does not depend on x."""
    pair = kt.standard_pair(dim - 1)
    mat = np.random.default_rng(dim + 2).standard_normal((dim, dim))
    c = np.linspace(-1.0, 1.0, dim)
    return [
        ("reeb alpha", pair.s_alpha.reeb_field()),
        ("reeb beta", pair.s_beta.reeb_field()),
        ("non-skew linear", kt.linear_field(mat)),
        ("zero dual part", kt.AmbientVectorField(lambda x: ad.lift(c, x))),
        ("no dual part", kt.AmbientVectorField(lambda x: c)),
    ]


@pytest.mark.parametrize("dim", [4, 6, 8], ids=["s3", "s5", "s7"])
def test_shape_norm_sq_keeps_a_constant_jacobian_as_one_matrix(dim):
    x = sample_coords(60, dim + 3, dim)
    gradient = kt.normalized_gradient_unit_field(kt.standard_pair(dim - 1).angle_function())
    assert manifold._raw_jacobian(gradient.field, x)[2].shape == (dim,) + x.shape
    for label, field in constant_jacobian_fields(dim):
        if label == "non-skew linear":
            assert np.max(np.abs(manifold.inner(x, ad.value(field.eval(x))))) > 0.1
        for y in (x, x[0], x[:1], x[:6].reshape(2, 3, dim)):
            rows = manifold._raw_jacobian(field, y)[2]
            assert rows.shape == (dim,) + (1,) * (y.ndim - 1) + (dim,), label
            s = shape_matrix(field, y)
            ref = (dim - 1) + np.sum(s * s, axis=(-2, -1))
            got = (dim - 1) + shape_norm_sq(field, y)
            assert got.shape == ref.shape == y.shape[:-1], label
            assert np.max(np.abs(got - ref) / ref) < 1e-13, (label, y.shape)


@pytest.mark.parametrize("dim", [4, 6, 8], ids=["s3", "s5", "s7"])
def test_shape_trace_is_the_trace_of_the_shape_matrix(dim):
    # on fields with ⟨x, V⟩ ≠ 0 and on fields whose Jacobian is one matrix,
    # against the matrix and against the divergence of the projected field
    x = sample_coords(200, dim + 5, dim)
    fields = gauss_fields(dim) + [(label, field, None)
                                  for label, field in constant_jacobian_fields(dim)]
    for label, field, guard in fields:
        y = x if guard is None else x[guard(x)]
        got = shape_trace(field, y)
        scale = np.maximum(1.0, np.abs(got))
        matrix = np.trace(shape_matrix(field, y), axis1=-2, axis2=-1)
        assert np.max(np.abs(got - matrix) / scale) <= 1e-13, label
        assert np.max(np.abs(got - divergence(field, y)) / scale) <= 1e-13, label


@pytest.mark.parametrize("make", [lambda c: (lambda x: ad.lift(c, x)),
                                  lambda c: (lambda x: c)],
                         ids=["zero dual part", "no dual part"])
def test_shape_matrix_keeps_its_shape_for_constant_raw_formulas(make):
    c = np.array([0.3, -1.0, 0.2, 0.7])
    field = kt.AmbientVectorField(make(c))
    x = sample_coords(5, 4, 4)
    u = proj_np(x, np.ones(4))
    one = shape_matrix(field, x[0])
    batch = shape_matrix(field, x)
    assert one.shape == (4, 4) and batch.shape == (5, 4, 4)
    assert np.array_equal(one, batch[0])
    assert np.max(np.abs(batch - projected_shape_matrix(field, x))) < 1e-14
    norm_one, norm_batch = shape_norm_sq(field, x[0]), shape_norm_sq(field, x)
    assert norm_one.shape == () and norm_batch.shape == (5,)
    assert norm_one == norm_batch[0]
    assert np.max(np.abs(norm_batch - np.sum(batch * batch, axis=(-2, -1)))) < 1e-14
    assert manifold.cov_deriv_batch(field, x[0], u[0]).shape == (4,)
    fan = np.repeat(u[:, None], 3, axis=1)
    assert manifold.cov_deriv_batch(field, x[:, None], fan).shape == (5, 3, 4)
    assert np.max(np.abs(manifold.cov_deriv_batch(field, x, u)
                         - projected_cov_deriv(field, x, u))) < 1e-14
