"""Contact metric structures: construction, axioms, Killing, Sasakian."""

import numpy as np
import pytest

import kontact as kt
from kontact import ad, contact
from kontact.contact import (
    check_phi_skew,
    exterior_derivative,
    killing_residual_batch,
    pfaffian,
    sasakian_residual_batch,
    volume_form_value,
)
from kontact.manifold import (
    constant_field,
    inner,
    random_tangent_batch,
    sample_coords,
)

E1 = np.array([1.0, 0.0, 0.0, 0.0])


def reeb(structure, x):
    """The Reeb field Z = J x of the structure at the points x."""
    return x @ structure.j_ambient.mat.T


def alpha(structure, x, u):
    """The contact form α(u) = g(u, Z) at the points x."""
    return inner(u, reeb(structure, x))


def unit_transverse(structure, x, rng):
    """Random unit tangent directions orthogonal to the Reeb field."""
    z = reeb(structure, x)
    u = random_tangent_batch(x, rng, ())
    u = u - inner(u, z)[..., None] * z
    return u / np.sqrt(inner(u, u))[..., None]


def test_standard_structure_reeb_values(pair3):
    assert np.allclose(reeb(pair3.s_alpha, E1), [0.0, -1.0, 0.0, 0.0])
    assert np.allclose(reeb(pair3.s_beta, E1), [0.0, 1.0, 0.0, 0.0])


def test_build_validates_on_sample(pair3):
    s = kt.build_from_complex_structure(pair3.s_alpha.j_ambient)
    assert s.sigma in (1, -1)
    pts = sample_coords(200, 7, s.ambient_dim)
    for check in (kt.check_axiom_volume, kt.check_axiom_ii, kt.check_axiom_iii,
                  kt.check_kcontact):
        assert check(s, pts).passed, check.__name__


def seeded_generators(dim):
    """The shipped generators of S^dim, and ±Q·J·Qᵀ for a seeded orthogonal Q."""
    pair = kt.standard_pair(dim)
    q, _ = np.linalg.qr(np.random.default_rng(dim).standard_normal((dim + 1, dim + 1)))
    j = pair.s_alpha.j_ambient.mat
    return [pair.s_alpha.j_ambient, pair.s_beta.j_ambient,
            kt.OrthoComplexStructure(q @ j @ q.T),
            kt.OrthoComplexStructure(-(q @ j @ q.T))]


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_sigma_probe_takes_d_alpha_once(dim, monkeypatch):
    calls = []
    real = contact.d_on_pairs

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(contact, "d_on_pairs", counting)
    for j in seeded_generators(dim):
        calls.clear()
        assert kt.build_from_complex_structure(j).sigma == -1
        assert len(calls) == 1


def test_sigma_probe_rejects_a_phi_that_fits_neither_sign(pair3, monkeypatch):
    real = contact.ContactMetricStructure.phi_at
    monkeypatch.setattr(contact.ContactMetricStructure, "phi_at",
                        lambda self, x, u: 2.0 * real(self, x, u))
    with pytest.raises(kt.ConstructionError):
        kt.build_from_complex_structure(pair3.s_alpha.j_ambient)


def test_s5_structure_passes_axioms(pair5, pts5):
    for s in (pair5.s_alpha, pair5.s_beta):
        assert kt.check_axiom_volume(s, pts5).passed
        assert kt.check_axiom_ii(s, pts5).passed
        assert kt.check_axiom_iii(s, pts5).passed
        assert kt.check_kcontact(s, pts5).passed


def test_alpha_of_reeb_is_one(pair3, pts3):
    x = pts3[:10]
    z = reeb(pair3.s_alpha, x)
    assert np.max(np.abs(alpha(pair3.s_alpha, x, z) - 1.0)) < 1e-12


def test_phi_kills_reeb(pair3, pts3):
    x = pts3[:10]
    phi_z = pair3.s_alpha.phi_at(x, reeb(pair3.s_alpha, x))
    assert np.max(np.linalg.norm(phi_z, axis=-1)) < 1e-12


def test_axiom_ii_on_reeb_direction(pair3, pts3):
    s = pair3.s_alpha
    x = pts3[0]
    z = reeb(s, x)
    lhs = s.phi_at(x, s.phi_at(x, z))
    rhs = -z + alpha(s, x, z) * z
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_axiom_ii_orthogonal_directions(pair3, pts3, rng):
    s = pair3.s_alpha
    x = pts3[:10]
    u = unit_transverse(s, x, rng)
    assert np.allclose(s.phi_at(x, s.phi_at(x, u)), -u, atol=1e-9)


def test_axiom_ii_both_structures(pair3, pts3):
    assert kt.check_axiom_ii(pair3.s_alpha, pts3).max < 1e-9
    assert kt.check_axiom_ii(pair3.s_beta, pts3).max < 1e-9


def test_axiom_iii_standard_structure(pair3, pts3):
    rep = kt.check_axiom_iii(pair3.s_alpha, pts3)
    assert rep.passed and rep.max < 1e-8


def test_axiom_iii_antisymmetric_in_equal_arguments(pair3, pts3, rng):
    s = pair3.s_alpha
    p = kt.SpherePoint(pts3[0])
    u = kt.TangentVector(p, random_tangent_batch(pts3[:1], rng, ())[0])
    assert abs(exterior_derivative(s.alpha_coeffs, u, u)) < 1e-12
    assert abs(u.vec @ s.phi_at(p.coords, u.vec)) < 1e-12


def test_volume_form_nonvanishing_constant_sign(pair3, pts3):
    rep = kt.check_axiom_volume(pair3.s_alpha, pts3)
    assert rep.passed


def test_volume_form_matches_adapted_constant(pair3, pts3):
    # |value| equals 2^n n! on every orthonormal frame
    s = pair3.s_alpha
    for p in pts3[:10]:
        v = volume_form_value(s.alpha_coeffs, kt.tangent_basis(kt.SpherePoint(p)), s.n)
        assert abs(abs(v) - kt.volume_form_constant(s.n)) < 1e-10


def test_volume_form_negative_control(pair3, angle3, pts3):
    # scaling the contact form by the angle function crushes the top form
    s = pair3.s_alpha

    def scaled_coeffs(x):
        return ad.sv(angle3.eval(x), s.alpha_coeffs(x))

    rep = kt.check_axiom_volume(s, pts3, coeff_field=scaled_coeffs)
    assert not rep.passed


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_volume_form_gate_is_an_equality(dim):
    # 1.001·α is a contact form whose top form is 1.001^(n+1)·2^n·n!: far
    # from vanishing, yet not the form of a contact metric structure
    s = kt.standard_pair(dim).s_alpha
    pts = sample_coords(50, dim, s.ambient_dim)
    rep = kt.check_axiom_volume(s, pts, coeff_field=lambda x: 1.001 * s.alpha_coeffs(x))
    assert not rep.passed
    assert abs(rep.max - (1.001 ** (s.n + 1) - 1.0)) <= 1e-12
    assert kt.check_axiom_volume(s, pts).max <= 1e-14


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_volume_form_gate_fails_on_a_sign_flip(dim, monkeypatch):
    # the top form negated on the half-sphere x₀ < 0 keeps |α∧(dα)^n| on
    # every orthonormal frame, and reads 2 against the sign of the first point
    s = kt.standard_pair(dim).s_alpha
    pts = sample_coords(50, dim, s.ambient_dim)
    assert (pts[:, 0] < 0).any() and (pts[:, 0] > 0).any()
    real = contact.volume_form_batch
    monkeypatch.setattr(contact, "volume_form_batch", lambda c, x, vectors, n: np.where(
        x[..., 0] < 0, -1.0, 1.0) * real(c, x, vectors, n))
    rep = kt.check_axiom_volume(s, pts)
    assert not rep.passed
    assert abs(rep.max - 2.0) <= 1e-12


def test_kcontact_standard(pair3, pts3):
    rep = kt.check_kcontact(pair3.s_alpha, pts3)
    assert rep.passed and rep.max < 1e-9


def test_kcontact_killing_skew_diagonal(pair3, pts3, rng):
    s = pair3.s_alpha
    x = pts3[:10]
    u = unit_transverse(s, x, rng)
    assert np.max(np.abs(killing_residual_batch(s.reeb_field(), x, u, u))) < 1e-9


def test_kcontact_negative_control(pts3):
    from kontact.contact import check_killing
    w = constant_field(np.array([1.0, 0.4, -0.2, 0.3]))
    rep = check_killing(w, pts3)
    assert not rep.passed
    assert rep.max > 1e-3


def test_sasakian_standard(pair3, pts3):
    rep = kt.check_sasakian(pair3.s_alpha, pts3)
    assert rep.passed and rep.max < 1e-8


def test_sasakian_on_reeb_direction(pair3, pts3):
    s = pair3.s_alpha
    x = pts3[0]
    z = reeb(s, x)
    assert sasakian_residual_batch(s, x, z, z) < 1e-8


def test_sasakian_s5(pair5, pts5):
    rep = kt.check_sasakian(pair5.s_alpha, pts5)
    assert rep.passed and rep.max < 1e-8


def test_phi_metric_skew(pair3, pts3):
    rep = check_phi_skew(pair3.s_alpha, pts3)
    assert rep.passed and rep.max < 1e-9


def ricci_operator(x, u):
    """Q(u) = Σ_j ric(u, E_j) E_j over a frame at x, with the
    constant-curvature Ricci tensor ric = (m−1)·g."""
    e = kt.manifold.frame_batch(x)
    ric = (x.shape[-1] - 2) * inner(u[..., None, :], e)
    return np.sum(ric[..., None] * e, axis=-2)


def test_ricci_operator_pins_reeb(pair3, pair5, pts3, pts5):
    # Q(Reeb) = 2n Reeb for every built structure
    for pair, pts, twon in ((pair3, pts3, 2.0), (pair5, pts5, 4.0)):
        x = pts[:5]
        z = reeb(pair.s_alpha, x)
        assert np.allclose(ricci_operator(x, z), twon * z, atol=1e-8)


def test_q_commutes_with_phi(pair3, pts3, rng):
    # exact since Q = (m-1) Id on the sphere
    s = pair3.s_alpha
    x = pts3[:5]
    u = random_tangent_batch(x, rng, ())
    q_phi = ricci_operator(x, s.phi_at(x, u))
    phi_q = s.phi_at(x, ricci_operator(x, u))
    assert np.allclose(q_phi, phi_q, atol=1e-8)


def test_builder_rejects_inconsistent_generator():
    # a non-complex-structure matrix never reaches sign selection
    with pytest.raises(Exception):
        kt.OrthoComplexStructure(np.eye(4))


def test_descriptor_round_trip(pair3, pts3):
    desc = pair3.s_alpha.to_descriptor()
    assert desc["dimension"] == 3
    assert desc["sigma"] in (1, -1)
    rebuilt = kt.ContactMetricStructure.from_descriptor(desc)
    x = pts3[:5]
    assert np.array_equal(reeb(rebuilt, x), reeb(pair3.s_alpha, x))
    assert np.array_equal(rebuilt.phi_at(x, x[::-1]), pair3.s_alpha.phi_at(x, x[::-1]))


def test_pfaffian_known_values():
    a = np.array([[0.0, 3.0], [-3.0, 0.0]])
    assert abs(pfaffian(a) - 3.0) < 1e-14
    b = np.zeros((4, 4))
    b[0, 1], b[1, 0] = 1.0, -1.0
    b[2, 3], b[3, 2] = 1.0, -1.0
    assert abs(pfaffian(b) - 1.0) < 1e-14
    # pf(A)^2 = det(A) for skew matrices
    rng = np.random.default_rng(8)
    c = rng.standard_normal((6, 6))
    c = c - c.T
    assert abs(pfaffian(c) ** 2 - np.linalg.det(c)) < 1e-8
