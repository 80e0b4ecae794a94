"""Verification driver: suite composition, output formats, exit codes."""

import csv
import gc
import io
import json
import os
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import kontact as kt
from kontact import (
    DoubleKContact,
    ScalarField,
    SpherePoint,
    UnitVectorField,
    ad,
    harmonic,
    manifold,
    standard_pair,
)
from kontact.ad import value
from kontact.cli import (
    CSV_COLUMNS,
    MANIFOLDS,
    SuiteConfig,
    _check_catalog,
    _energy_field,
    build_parser,
    check_names,
    describe,
    document,
    main,
    render_csv,
    render_json,
    run_suite,
)
from kontact.manifold import (
    Check,
    as_points,
    block_diag_complex_structure,
    blocks,
    sample_blocks,
    sample_coords,
)
from kontact.scalar_fields import ambient_gradient


@pytest.fixture(scope="module")
def small_reports():
    return run_suite(SuiteConfig(manifold="s3", samples=25, seed=42))


def test_s3_suite_emits_14_reports(small_reports):
    assert len(small_reports) == 14
    assert [r.check_name for r in small_reports] == check_names("s3")


def test_s3_suite_all_pass(small_reports):
    assert all(r.passed for r in small_reports)


@pytest.mark.parametrize("manifold", sorted(MANIFOLDS))
def test_report_count_bookkeeping(manifold):
    for r in run_suite(SuiteConfig(manifold=manifold, samples=25, seed=42)):
        assert r.count >= 0 and r.skipped >= 0
        assert r.passed == (r.max <= r.tolerance)


def readme_reports():
    """The report table of README.md, the one headed "| report | s3 | s5 |
    s7 |": for each sphere, the report names marked in its column, in
    table order."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    start = lines.index("| report | s3 | s5 | s7 | reads |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.split("|")[1:5]])
    return {sphere: [name.strip("`") for name, *marks in rows if marks[col]]
            for col, sphere in enumerate(("s3", "s5", "s7"))}


def test_readme_lists_the_reports_of_each_sphere():
    # adding a check to the catalog and not to the README fails here
    assert readme_reports() == {m: check_names(m) for m in MANIFOLDS}


def test_check_name_lists_by_manifold():
    assert len(check_names("s3")) == 14
    assert len(check_names("s5")) == 16
    assert len(check_names("s7")) == 15
    assert "dimension_theorem" not in check_names("s7")
    assert "phi_product_spectrum" in check_names("s5")


def test_suite_deterministic(small_reports):
    again = run_suite(SuiteConfig(manifold="s3", samples=25, seed=42))
    for a, b in zip(small_reports, again):
        assert a == b


@pytest.mark.parametrize("manifold", sorted(MANIFOLDS))
def test_catalog_reports_equal_for_arrays_and_point_lists(manifold):
    # the blocks of 16 points the suite draws, and the same points given
    # as a list of SpherePoint, validated and cut as a checker cuts them
    config = SuiteConfig(manifold=manifold, samples=40, seed=7)
    pair = standard_pair(MANIFOLDS[manifold])
    f = pair.angle_function()

    def exclusion(y):
        return np.abs(value(f.eval(y))) > 0.9

    x = as_points([SpherePoint(r) for r in sample_coords(40, 7, pair.ambient_dim, exclusion)],
                  pair.ambient_dim)
    listed = _check_catalog(pair, (x[sl] for sl in blocks(40, 16)), config)
    drawn = _check_catalog(pair, sample_blocks(40, 7, pair.ambient_dim, 16, exclusion), config)
    for (name, check), (_, check_listed) in zip(drawn, listed):
        assert check() == check_listed(), name


def test_suite_evaluates_the_harmonic_covectors_once_per_block(monkeypatch):
    # nu_form and critical_condition share one sweep: 40 points in blocks
    # of 16 are three evaluations of the covectors, not six, each with one
    # second-order jet, taken of the raw ambient gradient of the shipped
    # pair's angle function and never of its unit gradient
    calls = {"second_jet": [], "_covectors": []}
    for module, name in ((ad, "second_jet"), (harmonic, "_covectors")):
        def counted(*args, original=getattr(module, name), name=name):
            calls[name].append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(manifold, "BLOCK", 16)
    config = SuiteConfig(manifold="s3", samples=40, seed=3,
                         tol_overrides={"critical_condition": 1e-5})
    reports = {r.check_name: r for r in run_suite(config)}
    assert {name: len(c) for name, c in calls.items()} == {"second_jet": 3, "_covectors": 3}
    y = 1.5 * np.eye(4)[:2] + 0.5
    raw = ad.value(ambient_gradient(standard_pair(3).angle_function(), y))
    for formula, *_ in calls["second_jet"]:
        assert np.array_equal(ad.value(formula(y)), raw)
    assert reports["nu_form"].tolerance == 1e-6
    assert reports["critical_condition"].tolerance == 1e-5
    for name in ("nu_form", "critical_condition"):
        assert reports[name].passed and reports[name].count == 40


def per_structure(*checkers):
    """The reports of the checkers on both structures of a pair, in the
    order a grouped catalog entry lists them."""
    return lambda pair, x: [check(s, x) for s in (pair.s_alpha, pair.s_beta)
                            for check in checkers]


def unit_gradient_checker(checker):
    return lambda pair, x: checker(kt.normalized_gradient_unit_field(pair.angle_function()), x)


# The public checker of each point check of the catalog; a list of reports
# is the sub-reports of a grouped catalog entry.
PUBLIC_CHECKERS = {
    "contact_axioms": per_structure(kt.check_axiom_ii, kt.check_axiom_iii,
                                    kt.check_axiom_volume),
    "kcontact": per_structure(kt.check_kcontact),
    "sasakian": per_structure(kt.check_sasakian),
    "double_invariants": kt.commuting_invariants_check,
    "gradient_identity": kt.gradient_identity_check,
    "transnormal_profile": kt.transnormal_b_check,
    "laplacian_formula": kt.laplacian_formula_check,
    "dimension_theorem": kt.dim_theorem_check,
    "phi_product_spectrum": kt.phi_product_spectrum_check,
    "hessian_restricted": kt.hessian_restriction_check,
    "geodesic_field": lambda pair, x: kt.check_geodesic(pair.angle_function(), x),
    "mean_curvature_identity": lambda pair, x: kt.mean_curvature_identity_check(
        pair.angle_function(), kt.ANGLE_PROFILE, x),
    "ricci_normal": kt.ricci_normal_check,
    "nu_form": unit_gradient_checker(kt.harmonicity_check),
    "critical_condition": unit_gradient_checker(kt.critical_condition_check),
}
MASKED_CHECKS = {"laplacian_formula", "phi_product_spectrum", "hessian_restricted",
                 "geodesic_field", "mean_curvature_identity", "ricci_normal", "nu_form",
                 "critical_condition"}


@pytest.mark.parametrize("name", ["s3", "s5", "s7"])
def test_catalog_reports_are_the_public_checkers(name, monkeypatch):
    # blocks of 7 points, so the direction streams, the first-point steps
    # and the numeric Ricci subset cross blocks; a critical point (f = -1)
    # at index 10 is skipped by the checks that mask it
    monkeypatch.setattr(manifold, "BLOCK", 7)
    config = SuiteConfig(manifold=name, samples=40, seed=3)
    pair = standard_pair(MANIFOLDS[name])
    f = pair.angle_function()
    x = sample_coords(40, 3, pair.ambient_dim,
                      exclusion=lambda y: np.abs(value(f.eval(y))) > 0.9)
    x = np.insert(x, 10, np.eye(pair.ambient_dim)[0], axis=0)
    catalog = _check_catalog(pair, (x[sl] for sl in blocks(len(x), 7)), config)
    assert [n for n, _ in catalog] == [n for n in PUBLIC_CHECKERS if n in check_names(name)
                                       ] + ["energy_reeb"]
    for check_name, check in catalog[:-1]:
        rep = check()
        public = PUBLIC_CHECKERS[check_name](pair, x)
        if isinstance(public, list):
            count = sum(r.count for r in public)
            assert rep.max == max(r.max for r in public), check_name
            assert (rep.count, rep.skipped) == (count, sum(r.skipped for r in public)), check_name
            assert rep.tolerance == min(r.tolerance for r in public), check_name
            assert rep.mean == pytest.approx(sum(r.mean * r.count for r in public) / count,
                                             rel=1e-12, abs=0.0), check_name
        else:
            assert rep == public, check_name
        assert rep.passed and rep.skipped == (check_name in MASKED_CHECKS), check_name


@pytest.mark.parametrize("name, gates", [("s3", 0), ("s5", 1), ("s7", 1)])
def test_suite_probes_the_sasakian_precondition_once(name, gates, monkeypatch):
    calls = []
    gate = kt.double_kcontact._sasakian_gate

    def counted(*args):
        calls.append(1)
        return gate(*args)

    monkeypatch.setattr(kt.double_kcontact, "_sasakian_gate", counted)
    assert all(r.passed for r in run_suite(SuiteConfig(manifold=name, samples=10, seed=3)))
    assert len(calls) == gates


@pytest.mark.parametrize("name", ["s3", "s5", "s7"])
def test_failing_sasakian_probe_stops_the_phi_product_and_hessian_checks(
        name, monkeypatch, capsys):
    # where the sub-bundle is not zero, the φJ and Hessian checks need the
    # first structure to be Sasakian; the Laplacian formula does not
    def failing(s, points, tol=None):
        return kt.ResidualReport("sasakian_alpha", 6, 0, 1.0, 1.0, 1e-8, False)

    monkeypatch.setattr(kt.double_kcontact, "check_sasakian", failing)
    pair = standard_pair(MANIFOLDS[name])
    f = pair.angle_function()
    x = sample_coords(10, 3, pair.ambient_dim,
                      exclusion=lambda y: np.abs(value(f.eval(y))) > 0.9)
    assert kt.laplacian_formula_check(pair, x).passed
    probed = pair.dim >= 5
    for check in (kt.phi_product_spectrum_check, kt.hessian_restriction_check):
        if probed:
            with pytest.raises(kt.PreconditionError):
                check(pair, x)
        else:
            assert check(pair, x).passed
    code = main(["verify", name, "--samples", "10", "--seed", "3"])
    out = capsys.readouterr()
    assert code == (2 if probed else 0)
    if probed:
        assert out.out == ""
        assert out.err == "error: first structure is not Sasakian at probe points\n"


def test_json_document_byte_identical(small_reports):
    cfg = SuiteConfig(manifold="s3", samples=25, seed=42)
    doc1 = render_json(document(cfg, small_reports))
    doc2 = render_json(document(cfg, run_suite(cfg)))
    assert doc1 == doc2


def test_json_and_csv_round_trip_same_numbers(small_reports):
    cfg = SuiteConfig(manifold="s3", samples=25, seed=42)
    doc = json.loads(render_json(document(cfg, small_reports)))
    rows = list(csv.DictReader(io.StringIO(render_csv(small_reports))))
    assert len(rows) == len(doc["reports"])
    for row, rep in zip(rows, doc["reports"]):
        assert row["check_name"] == rep["check_name"]
        assert int(row["count"]) == rep["count"]
        assert float(row["max"]) == rep["max"]
        assert float(row["mean"]) == rep["mean"]
        assert float(row["tolerance"]) == rep["tolerance"]
        assert (row["pass"] == "true") == rep["pass"]


def test_render_json_writes_non_finite_floats_as_null(small_reports):
    # strict JSON: no bare NaN or Infinity token; a finite document is the
    # plain json.dumps rendering, byte for byte
    assert render_json({"max": float("nan")}) == '{\n  "max": null\n}\n'
    doc = {"a": [np.float64("inf"), -np.inf, 1.5, True, 2], "b": {"c": (np.nan, "NaN")}}
    assert json.loads(render_json(doc)) == {"a": [None, None, 1.5, True, 2],
                                            "b": {"c": [None, "NaN"]}}
    finite = document(SuiteConfig(manifold="s3", samples=25, seed=42), small_reports)
    assert render_json(finite) == json.dumps(finite, indent=2) + "\n"


def test_document_contains_config_and_ledger(small_reports):
    cfg = SuiteConfig(manifold="s3", samples=25, seed=42)
    doc = document(cfg, small_reports)
    assert set(doc.keys()) == {"config", "convention_ledger", "reports"}
    assert doc["config"]["samples"] == 25
    assert "laplacian_sign" in doc["convention_ledger"]
    assert "timestamp" not in doc


def test_document_timestamp_opt_in(small_reports):
    cfg = SuiteConfig(manifold="s3", samples=25, seed=42, include_timestamp=True)
    doc = document(cfg, small_reports)
    assert "timestamp" in doc


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(manifold="s9")
    with pytest.raises(ValueError):
        SuiteConfig(manifold="s3", samples=0)
    with pytest.raises(ValueError):
        SuiteConfig(manifold="s3", exclusion=1.5)
    with pytest.raises(ValueError):
        SuiteConfig(manifold="s3", tol_overrides={"nu_form": 1.0})


def test_unknown_override_name_rejected():
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(manifold="s3", samples=5, seed=1,
                              tol_overrides={"not_a_check": 1e-9}))


def test_cli_verify_writes_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["verify", "s3", "--samples", "10", "--seed", "42",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["reports"]) == 14
    err = capsys.readouterr().err
    assert "[PASS]" in err


def test_cli_verify_unwritable_out_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code = main(["verify", "s3", "--samples", "5", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error: ") and str(out) in err[-1]
    assert not out.exists()


def test_cli_verify_stdout_csv(capsys):
    code = main(["verify", "s3", "--samples", "5", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header == "check_name,count,skipped,max,mean,tolerance,pass"


def test_cli_tolerance_plumbing_forces_failure(capsys):
    code = main(["verify", "s3", "--samples", "5", "--tol", "nu_form=1e-18"])
    assert code == 1
    err = capsys.readouterr().err
    assert "failed: nu_form" in err


@pytest.mark.parametrize("name", ["contact_axioms", "kcontact", "sasakian",
                                  "phi_product_spectrum"])
def test_cli_tolerance_override_gates_combined_checks(name, capsys):
    # these checks take the largest of several residuals; the override gates it
    code = main(["verify", "s5", "--samples", "5", "--tol", f"{name}=1e-30"])
    assert code == 1
    assert f"failed: {name} " in capsys.readouterr().err


def test_cli_tolerance_override_gates_a_grouped_raw_maximum(capsys):
    # the largest residual of the contact axioms here is 1.55e-15: an
    # override above it passes, whatever the sub-checks' own defaults
    code = main(["verify", "s3", "--samples", "40", "--seed", "3",
                 "--tol", "contact_axioms=3e-15"])
    assert code == 0
    reports = {r["check_name"]: r for r in json.loads(capsys.readouterr().out)["reports"]}
    assert reports["contact_axioms"]["tolerance"] == 3e-15
    assert 0.0 < reports["contact_axioms"]["max"] <= 3e-15


def test_cli_a_nan_residual_fails_its_grouped_report(monkeypatch, capsys):
    # a NaN residual in a sub-check after the first is the group's max
    build = kt.cli.check_axiom_iii.build

    def poisoned(s):
        check = build(s)

        def kernel(b):
            residuals = np.array(check.kernel(b), dtype=float)
            if s.label == "beta":
                residuals.flat[0] = np.nan
            return residuals
        return Check(check.name, check.tol, kernel, check.provenance, check.keep,
                     check.before)

    monkeypatch.setattr(kt.cli, "check_axiom_iii", SimpleNamespace(build=poisoned))
    code = main(["verify", "s3", "--samples", "20", "--seed", "3"])
    out = capsys.readouterr()
    assert code == 1

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    # strict JSON: the NaN maximum and mean are written as null
    reports = {r["check_name"]: r
               for r in json.loads(out.out, parse_constant=refuse)["reports"]}
    assert reports["contact_axioms"]["max"] is None
    assert reports["contact_axioms"]["mean"] is None
    assert reports["contact_axioms"]["pass"] is False
    assert [name for name, r in reports.items() if not r["pass"]] == ["contact_axioms"]
    assert "failed: contact_axioms (max nan > " in out.err


def test_cli_rejects_loose_tolerance(capsys):
    code = main(["verify", "s3", "--samples", "5", "--tol", "nu_form=1.0"])
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_cli_rejects_tolerance_outside_the_closed_range(value, capsys):
    code = main(["verify", "s3", "--samples", "5", "--tol", f"nu_form={value}"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")


def test_cli_rejects_unknown_check_name(capsys):
    code = main(["verify", "s3", "--samples", "5", "--tol", "bogus=1e-9"])
    assert code == 2


def test_cli_unknown_manifold_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "s9"])
    assert exc.value.code == 2


def test_cli_describe_s3(capsys):
    code = main(["describe", "s3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["J1"] == block_diag_complex_structure([1, 1]).mat.tolist()
    assert doc["J2"] == block_diag_complex_structure([-1, 1]).mat.tolist()
    assert doc["golden"]["laplacian_slope"] == 8.0
    assert doc["golden"]["laplacian_offset"] == 0.0
    assert abs(doc["golden"]["reeb_energy"] - 5.0 * np.pi ** 2) < 1e-9
    assert "curvature_sign" in doc["convention_ledger"]


def test_cli_describe_s5(capsys):
    code = main(["describe", "s5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["J2"] == block_diag_complex_structure([-1, 1, 1]).mat.tolist()
    desc = {key: doc[key] for key in ("dimension", "J1", "J2")}
    assert DoubleKContact.from_descriptor(desc).to_descriptor() == desc
    assert doc["golden"]["laplacian_slope"] == 12.0
    assert doc["golden"]["laplacian_offset"] == -4.0


def test_cli_describe_unknown_manifold():
    with pytest.raises(SystemExit) as exc:
        main(["describe", "s9"])
    assert exc.value.code == 2


def test_cli_energy_reeb(capsys):
    code = main(["energy", "s3", "--samples", "2000", "--seed", "7"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["estimate"] - doc["closed_form"]) < 1e-6
    assert doc["stderr"] >= 0.0


def test_cli_energy_gradient_with_exclusion(capsys):
    code = main(["energy", "s3", "--field", "gradient", "--samples", "2000",
                 "--seed", "7", "--exclusion", "0.9"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["skipped"] > 0
    assert np.isfinite(doc["estimate"])
    assert "closed_form" not in doc


@pytest.mark.parametrize("args, diverges", [
    (["--field", "gradient"], True),
    (["--field", "gradient", "--exclusion", "0.9"], False),
    (["--field", "reeb_alpha"], False),
], ids=["gradient", "gradient-exclusion", "reeb"])
def test_cli_energy_flags_the_divergent_gradient_energy(args, diverges, capsys):
    # without --exclusion the unit gradient's energy is infinite (it grows
    # logarithmically at the focal sphere f = 1), so the document says so
    code = main(["energy", "s5", *args, "--samples", "2000", "--seed", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc.get("diverges") is (True if diverges else None)
    assert np.isfinite(doc["estimate"]) and np.isfinite(doc["stderr"])


@pytest.mark.parametrize("exclusion", [[], ["--exclusion", "0.9"]],
                         ids=["whole-sphere", "exclusion"])
@pytest.mark.parametrize("sphere", ["s3", "s5", "s7"])
def test_cli_gradient_energy_takes_the_hessian_route(sphere, exclusion, monkeypatch):
    # the CLI's unit gradient keeps its potential, so energy differentiates
    # the raw gradient of f and never N = ∇f/|∇f| itself: one raw Jacobian
    # per block, and no other evaluation of the ambient gradient (the
    # regularity of f is read from that Jacobian's own values).  The same
    # field without the potential, its regularity moved into the guard,
    # goes through the dual Jacobian of N
    args = build_parser().parse_args(["energy", sphere, "--field", "gradient",
                                      "--samples", "100000", "--seed", "3", *exclusion])
    pair = standard_pair(MANIFOLDS[sphere])
    f = pair.angle_function()
    differentiated, gradients = [], []

    def counted_gradient(x):
        gradients.append(type(x) is ad.Dual)
        return f.grad(x)

    monkeypatch.setattr(DoubleKContact, "angle_function",
                        lambda self: ScalarField(f.eval, counted_gradient, f.label))
    zf, _ = _energy_field(args, pair)
    generic = UnitVectorField(zf.field, zf.domain, zf.label)
    raw_jacobian = manifold._raw_jacobian

    def counted(field, x):
        differentiated.append(field)
        return raw_jacobian(field, x)

    monkeypatch.setattr(manifold, "_raw_jacobian", counted)
    est = kt.energy(zf, args.samples, args.seed, pair.ambient_dim)
    n_blocks = -(-args.samples // (4 * manifold.BLOCK))
    assert len(differentiated) == n_blocks
    assert {field.label for field in differentiated} == {f"ambient grad({zf.potential.label})"}
    assert gradients == [True] * n_blocks
    ref = kt.energy(generic, args.samples, args.seed, pair.ambient_dim)
    assert zf.field in differentiated
    assert est.skipped == ref.skipped
    assert (est.skipped > 0) == bool(exclusion)
    assert abs(est.estimate - ref.estimate) <= 1e-12 * ref.estimate
    assert abs(est.stderr - ref.stderr) <= 1e-12 * ref.stderr


@pytest.mark.parametrize("args", [
    ["--samples", "0"],
    ["--samples", "1"],
    ["--field", "gradient", "--exclusion", "-1"],
    ["--field", "gradient", "--exclusion", "1.0"],
    ["--field", "reeb_alpha", "--exclusion", "0.5"],
], ids=["samples-0", "samples-1", "exclusion-negative", "exclusion-one",
        "exclusion-with-reeb"])
def test_cli_energy_rejects_bad_input(args, capsys):
    code = main(["energy", "s3", *args])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")


@pytest.mark.parametrize("command", [["verify", "s3", "--samples", "5"], ["energy", "s3"]],
                         ids=["verify", "energy"])
def test_cli_rejects_a_negative_seed(command, capsys):
    # the one draw site, manifold.sample_blocks, names the seed
    code = main([*command, "--seed", "-1"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: seed must be >= 0, got -1\n"


def too_large(count, *args, **kwargs):
    """A ``sample_blocks`` for a sample count that cannot be allocated."""
    raise MemoryError(f"Unable to allocate 29.1 TiB for an array with "
                      f"shape ({count}, 4) and data type float64")


class SecondDrawTooLarge:
    """``np.random.default_rng`` whose second draw cannot be allocated."""

    def __init__(self, seed, real=np.random.default_rng):
        self.rng, self.draws = real(seed), 0

    def standard_normal(self, shape):
        self.draws += 1
        if self.draws == 2:
            raise MemoryError(f"Unable to allocate 128. KiB for an array with "
                              f"shape {shape} and data type float64")
        return self.rng.standard_normal(shape)


@pytest.mark.parametrize("samples, where, fake, message", [
    # the whole draw, before any piece
    ("1000000000000", "kontact.harmonic.sample_blocks", too_large,
     "Unable to allocate 29.1 TiB for an array with shape (1000000000000, 4) "
     "and data type float64"),
    # the second of 25 pieces
    ("100000", "numpy.random.default_rng", SecondDrawTooLarge,
     "Unable to allocate 128. KiB for an array with shape (4096, 4) and data type float64"),
], ids=["energy", "energy-second-piece"])
def test_cli_reports_samples_too_large_to_allocate(samples, where, fake, message, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(where, fake)
    before = threading.active_count()
    code = main(["energy", "s3", "--samples", samples])
    assert code == 2
    assert threading.active_count() == before
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


def test_thread_env_does_not_change_output(small_reports, monkeypatch):
    # KONTACT_THREADS is no longer read: any value gives the serial reports
    for value in ("3", "0"):
        monkeypatch.setenv("KONTACT_THREADS", value)
        reports = run_suite(SuiteConfig(manifold="s3", samples=25, seed=42))
        assert reports == list(small_reports)


def test_thread_env_auto(monkeypatch):
    monkeypatch.setenv("KONTACT_THREADS", "0")
    reports = run_suite(SuiteConfig(manifold="s3", samples=5, seed=1))
    assert len(reports) == 14


# The CI smoke config (verify sN --samples 40 --seed 3): (check_name,
# count, skipped, tolerance, pass).  Names, counts and skips were recorded
# before the checkers shared one block sweep; a grouped report's tolerance
# is the tightest default of its checks.  energy_reeb's tolerance is 3
# stderr of its estimate, so it is not listed.
SMOKE_SHAPE = {
    "s3": [
        ("contact_axioms", 400, 0, 1e-09, True),
        ("kcontact", 160, 0, 1e-09, True),
        ("sasakian", 160, 0, 1e-08, True),
        ("double_invariants", 40, 0, 1e-10, True),
        ("gradient_identity", 40, 0, 1e-09, True),
        ("transnormal_profile", 40, 0, 1e-09, True),
        ("laplacian_formula", 40, 0, 1e-07, True),
        ("dimension_theorem", 40, 0, 1e-07, True),
        ("geodesic_field", 40, 0, 1e-07, True),
        ("mean_curvature_identity", 40, 0, 1e-07, True),
        ("ricci_normal", 40, 0, 1e-08, True),
        ("nu_form", 40, 0, 1e-06, True),
        ("critical_condition", 40, 0, 1e-06, True),
        ("energy_reeb", 20000, 0, None, True),
    ],
    "s5": [
        ("contact_axioms", 400, 0, 1e-09, True),
        ("kcontact", 160, 0, 1e-09, True),
        ("sasakian", 160, 0, 1e-08, True),
        ("double_invariants", 40, 0, 1e-10, True),
        ("gradient_identity", 40, 0, 1e-09, True),
        ("transnormal_profile", 40, 0, 1e-09, True),
        ("laplacian_formula", 40, 0, 1e-07, True),
        ("dimension_theorem", 40, 0, 1e-06, True),
        ("phi_product_spectrum", 40, 0, 1e-08, True),
        ("hessian_restricted", 120, 0, 1e-07, True),
        ("geodesic_field", 40, 0, 1e-07, True),
        ("mean_curvature_identity", 40, 0, 1e-07, True),
        ("ricci_normal", 40, 0, 1e-08, True),
        ("nu_form", 40, 0, 1e-06, True),
        ("critical_condition", 40, 0, 1e-06, True),
        ("energy_reeb", 20000, 0, None, True),
    ],
    "s7": [
        ("contact_axioms", 400, 0, 1e-09, True),
        ("kcontact", 160, 0, 1e-09, True),
        ("sasakian", 160, 0, 1e-08, True),
        ("double_invariants", 40, 0, 1e-10, True),
        ("gradient_identity", 40, 0, 1e-09, True),
        ("transnormal_profile", 40, 0, 1e-09, True),
        ("laplacian_formula", 40, 0, 1e-07, True),
        ("phi_product_spectrum", 40, 0, 1e-08, True),
        ("hessian_restricted", 400, 0, 1e-07, True),
        ("geodesic_field", 40, 0, 1e-07, True),
        ("mean_curvature_identity", 40, 0, 1e-07, True),
        ("ricci_normal", 40, 0, 1e-08, True),
        ("nu_form", 40, 0, 1e-06, True),
        ("critical_condition", 40, 0, 1e-06, True),
        ("energy_reeb", 20000, 0, None, True),
    ],
}


@pytest.mark.parametrize("manifold", sorted(SMOKE_SHAPE))
def test_smoke_config_keeps_the_suite_shape(manifold, capsys):
    code = main(["verify", manifold, "--samples", "40", "--seed", "3"])
    assert code == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    shape = [(r["check_name"], r["count"], r["skipped"],
              None if r["check_name"] == "energy_reeb" else r["tolerance"], r["pass"])
             for r in reports]
    assert shape == SMOKE_SHAPE[manifold]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def src_env(env):
    """``env`` with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(env)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_python(code, *args):
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, *args],
                          env=src_env(os.environ), capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


@pytest.mark.parametrize("preset, numpy_first, expected", [
    (None, False, "1"), ("2", False, "2"), (None, True, None)],
    ids=["unset", "set-by-user", "numpy-imported-first"])
def test_import_pins_the_blas_pools_unless_set(preset, numpy_first, expected):
    # importing kontact before numpy defaults each BLAS pool to one thread;
    # a value the user set wins, and once numpy is loaded nothing is set
    env = src_env({k: v for k, v in os.environ.items() if k not in BLAS_VARS})
    if preset is not None:
        env.update(dict.fromkeys(BLAS_VARS, preset))
    code = ("import os\n" + ("import numpy\n" if numpy_first else "") + "import kontact\n"
            f"print([os.environ.get(v) for v in {BLAS_VARS!r}])")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr([expected] * len(BLAS_VARS))


LEAN_START = """
import sys
import kontact.cli
from kontact.double_kcontact import standard_pair
standard_pair(5)
print(sorted(m for m in ("dataclasses", "csv", "numpy.typing") if m in sys.modules))
sys.exit(kontact.cli.main(["verify", "s3", "--samples", "5", "--format", "csv"]))
"""


def test_a_fresh_process_starts_without_the_modules_no_call_needs():
    # every kontact call is a fresh process: importing the CLI and building
    # a pair (the benchmark's set-up) loads neither dataclasses, nor
    # numpy.typing (annotations only), nor csv, which the CSV renderer
    # imports when it runs
    out = run_python(LEAN_START).stdout.decode().splitlines()
    assert out[0] == "[]"
    assert out[1] == ",".join(CSV_COLUMNS)
    assert [row.split(",")[0] for row in out[2:]] == check_names("s3")


RECORD_MALLOPT = """
import ctypes, io, sys
calls = []


class Mallopt:
    def __call__(self, param, size):
        calls.append((param, size))
        return 1


class Libc:
    def __init__(self, name):
        assert name == "libc.so.6"
        self.mallopt = Mallopt()


ctypes.CDLL = Libc
import kontact
import kontact.cli
after_import = list(calls)
sys.stdout = io.StringIO()
kontact.cli.main(["describe", "s3"])
sys.stdout = sys.__stdout__
print(after_import, calls)
"""


def test_only_the_cli_sets_the_allocator():
    # importing the library leaves glibc's allocator alone; cli.main sets
    # the three thresholds, mmap first
    out = run_python(RECORD_MALLOPT).stdout.decode().strip()
    assert out == f"[] {list(kt.cli.MALLOPT_SETTINGS)}"
    assert kt.cli.MALLOPT_SETTINGS == ((-3, 64 << 20), (-1, 256 << 20), (-2, 64 << 20))


def test_main_leaves_the_freeze_count_as_it_found_it(monkeypatch, capsys):
    # main freezes start-up's objects for the call and unfreezes them on
    # the way out, also on an error
    seen = []
    monkeypatch.setattr(kt.cli, "tune_allocator", lambda: seen.append(gc.get_freeze_count()))
    assert gc.get_freeze_count() == 0
    assert main(["describe", "s3"]) == 0
    assert gc.get_freeze_count() == 0
    with pytest.raises(SystemExit):
        main(["verify", "s9"])
    assert gc.get_freeze_count() == 0
    capsys.readouterr()
    assert len(seen) == 2 and min(seen) > 0


def test_main_keeps_a_callers_freeze(monkeypatch, capsys):
    # a caller that froze objects itself keeps them frozen, and main adds none
    seen = []
    monkeypatch.setattr(kt.cli, "tune_allocator", lambda: seen.append(gc.get_freeze_count()))
    gc.freeze()
    try:
        before = gc.get_freeze_count()
        assert main(["describe", "s3"]) == 0
        after = gc.get_freeze_count()
    finally:
        gc.unfreeze()
    capsys.readouterr()
    # frozen objects that die during the call leave the count
    assert 0 < after <= seen[0] <= before


@pytest.mark.parametrize("refused", [0, 1, 2])
def test_allocator_settings_stop_at_the_first_refused(refused, monkeypatch):
    calls = []

    class Libc:
        def __init__(self, name):
            self.mallopt = lambda param, size: calls.append(param) or int(len(calls) <= refused)

    monkeypatch.setattr("ctypes.CDLL", Libc)
    kt.cli.tune_allocator()
    assert calls == [param for param, _ in kt.cli.MALLOPT_SETTINGS[:refused + 1]]


NO_LIBC = """
import ctypes, sys
refused = []


def refuse(name, *args, **kwargs):
    refused.append(name)
    raise OSError(f"{name}: cannot open shared object file")


ctypes.CDLL = refuse
from kontact.cli import main
code = main(sys.argv[1:])
print(refused, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("args", [
    ["verify", "s3", "--samples", "40", "--seed", "3"],
    ["verify", "s5", "--samples", "40", "--seed", "3", "--format", "csv"],
    ["energy", "s5", "--field", "gradient", "--exclusion", "0.9", "--samples", "20000",
     "--seed", "3"],
    ["energy", "s7", "--samples", "20000", "--seed", "3"],
], ids=["verify-s3", "verify-s5-csv", "energy-s5", "energy-s7-reeb"])
def test_cli_output_does_not_depend_on_the_allocator_call(args):
    # the same bytes with glibc's thresholds set and where libc cannot be
    # loaded, so that no setting is made
    tuned = run_python("import sys; from kontact.cli import main; sys.exit(main(sys.argv[1:]))",
                       *args)
    untuned = run_python(NO_LIBC, *args)
    assert tuned.stdout and tuned.stdout == untuned.stdout
    assert tuned.stderr + b"['libc.so.6']\n" == untuned.stderr
