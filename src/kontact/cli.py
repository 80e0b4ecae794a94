"""Command-line verification driver.

``kontact verify {s3,s5,s7}`` builds the shipped pair of commuting
contact structures on the chosen sphere, runs the full residual suite at
seeded sample points, and emits a machine-readable report (JSON or CSV).
Exit status: 0 when every check passes, 1 on any failing check, 2 on
usage errors.  ``describe`` prints the generators, frozen sign
conventions, and golden constants; ``energy`` estimates the energy of a
unit field by Monte Carlo.

Checks run one after another in catalog order, and rerunning a config
reproduces the output byte for byte (timestamps are opt-in).

Every call is a fresh process, so :func:`main` first raises glibc's
allocator thresholds (:func:`tune_allocator`); the library itself leaves
the allocator as it finds it.  :func:`main` also moves what start-up
left alive to the collector's permanent generation (``gc.freeze``), so
no collection inside a call walks those objects again, and puts them
back on its way out; a caller that has frozen objects itself keeps its
own freeze.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import io
import json
import math
import sys
from functools import cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .ad import value
from .contact import (
    D_ALPHA_CONVENTION,
    check_axiom_ii,
    check_axiom_iii,
    check_axiom_volume,
    check_kcontact,
    check_sasakian,
    volume_form_constant,
)
from .double_kcontact import (
    ANGLE_PROFILE,
    GRADIENT_PAIRING,
    DoubleKContact,
    commuting_invariants_check,
    dim_theorem_check,
    expected_laplacian_profile,
    gradient_identity_check,
    hessian_restriction_check,
    laplacian_formula_check,
    phi_product_spectrum_check,
    ricci_normal_check,
    standard_pair,
    transnormal_b_check,
)
from .harmonic import (
    UnitVectorField,
    critical_condition_check,
    energy,
    harmonicity_check,
    normalized_gradient_unit_field,
    reeb_energy_closed_form,
    reeb_unit_field,
)
from . import manifold
from .manifold import group_report, sample_blocks, sweep
from .report import ResidualReport
from .scalar_fields import check_geodesic, mean_curvature_identity_check
from .errors import GeometryError

MANIFOLDS = {"s3": 3, "s5": 5, "s7": 7}
# mallopt(3) parameters and values, in the order tune_allocator sets them:
# M_MMAP_THRESHOLD 64 MiB, M_TRIM_THRESHOLD 256 MiB, M_TOP_PAD 64 MiB
MALLOPT_SETTINGS = ((-3, 64 << 20), (-1, 256 << 20), (-2, 64 << 20))
ENERGY_SAMPLES = 20_000
MAX_TOLERANCE = 1e-3

CONVENTION_LEDGER = {
    "curvature_sign": "R(u,v)w = g(v,w)u - g(u,w)v; sectional curvature +1",
    "ricci_sign": ("ric(u,v) = sum_i g(R(E_i,u)v, E_i) = (m-1) g(u,v); "
                   "the Ricci endomorphism sends any Reeb field to (m-1) itself"),
    "laplacian_sign": ("laplacian = -div grad; restricted degree-2 harmonic "
                       "polynomials have eigenvalue 2(m+1)"),
    "exterior_derivative": D_ALPHA_CONVENTION + " (no 1/2 factor)",
    "phi_orientation": ("phi(u) = sigma (J u + alpha(u) p), sigma fixed at "
                        "build time by the d(alpha) compatibility axiom"),
    "gradient_pairing": GRADIENT_PAIRING,
    "mean_curvature_sign": ("h = -div N = -sum_i g(nabla_{E_i} N, E_i) over a frame "
                            "E_i of the level set"),
}


class SuiteConfig:
    """Configuration of one verification run."""

    def __init__(self, manifold: str, samples: int = 500, seed: int = 42,
                 exclusion: float = 0.9, tol_overrides: Optional[dict] = None,
                 output_path: Optional[str] = None, format: str = "json",
                 include_timestamp: bool = False):
        self.manifold, self.samples, self.seed, self.exclusion = manifold, samples, seed, exclusion
        self.tol_overrides = {} if tol_overrides is None else tol_overrides
        self.output_path, self.format = output_path, format
        self.include_timestamp = include_timestamp
        if self.manifold not in MANIFOLDS:
            raise ValueError(f"unknown manifold {self.manifold!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not (0.0 < self.exclusion < 1.0):
            raise ValueError("exclusion must lie in (0, 1)")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")
        for name, tol in self.tol_overrides.items():
            if not 0.0 <= tol <= MAX_TOLERANCE:
                raise ValueError(
                    f"override {name}={tol} is not a tolerance in [0, {MAX_TOLERANCE}]")

    def as_dict(self) -> dict:
        return {
            "manifold": self.manifold,
            "samples": self.samples,
            "seed": self.seed,
            "exclusion": self.exclusion,
            "tol_overrides": dict(sorted(self.tol_overrides.items())),
            "format": self.format,
        }


def _catalog_rows(pair: DoubleKContact) -> list[tuple]:
    """The swept reports of the suite on ``pair`` in report order, as
    (name, checks, provenance): every report but ``energy_reeb``.  The
    rows whose checks all carry a ``keep`` mask are the checks read on the
    level sets of the angle function, which skip the same points."""
    f = pair.angle_function()
    zf = normalized_gradient_unit_field(f)
    structures = (pair.s_alpha, pair.s_beta)
    pair_checks = [commuting_invariants_check, gradient_identity_check, transnormal_b_check,
                   laplacian_formula_check]
    if pair.dim in (3, 5):
        pair_checks.append(dim_theorem_check)
    if pair.dim >= 5:
        pair_checks.extend([phi_product_spectrum_check, hessian_restriction_check])
    singles = [c.build(pair) for c in pair_checks] + [
        check_geodesic.build(f), mean_curvature_identity_check.build(f, ANGLE_PROFILE),
        ricci_normal_check.build(pair), harmonicity_check.build(zf),
        critical_condition_check.build(zf)]
    return [
        ("contact_axioms",
         [check.build(s) for s in structures
          for check in (check_axiom_ii, check_axiom_iii, check_axiom_volume)],
         "axioms i-iii for both structures"),
        ("kcontact", [check_kcontact.build(s) for s in structures],
         "both Reeb fields are infinitesimal isometries"),
        ("sasakian", [check_sasakian.build(s) for s in structures],
         "covariant derivative identity for both structures"),
        *((c.name, [c], c.provenance) for c in singles),
    ]


def _check_catalog(pair: DoubleKContact, point_blocks: Iterable[np.ndarray],
                   config: SuiteConfig) -> list[tuple[str, Callable[..., ResidualReport]]]:
    """Ordered catalog of suite checks; each entry makes its report, with
    the checks' tightest default tolerance or with ``tol=`` an override.
    Declaration order here is the report order in the output.  Every entry
    but ``energy_reeb`` reports one or more checks of one
    ``manifold.sweep`` over ``point_blocks``, made by the first entry
    called, as one ``manifold.group_report``: their largest raw residual
    is its max."""
    table = _catalog_rows(pair)

    @cache
    def swept():
        sweep([c for _, checks, _ in table for c in checks], point_blocks)

    def entry(name, checks, provenance):
        def run(tol=None):
            swept()
            return group_report(name, checks, provenance, tol)
        return run

    def energy_reeb(tol=None):
        est = energy(reeb_unit_field(pair.s_alpha), ENERGY_SAMPLES,
                     config.seed + 1, pair.ambient_dim)
        closed = reeb_energy_closed_form(pair.dim)
        residual = abs(est.estimate - closed)
        eff_tol = tol if tol is not None else (3.0 * est.stderr + 1e-9 * closed)
        return ResidualReport(
            check_name="energy_reeb", count=est.samples, skipped=est.skipped,
            max=float(residual), mean=float(residual), tolerance=float(eff_tol),
            passed=bool(residual <= eff_tol),
            provenance=(f"Monte Carlo energy of the first Reeb field vs "
                        f"closed form {closed!r}"))

    return ([(name, entry(name, checks, provenance)) for name, checks, provenance in table]
            + [("energy_reeb", energy_reeb)])


def check_names(manifold: str) -> list[str]:
    """Report names of the suite on ``manifold``, in report order."""
    if manifold not in MANIFOLDS:
        raise ValueError(f"unknown manifold {manifold!r}")
    rows = _catalog_rows(standard_pair(MANIFOLDS[manifold]))
    return [name for name, _, _ in rows] + ["energy_reeb"]


def run_suite(config: SuiteConfig) -> list[ResidualReport]:
    """Run every check for the configured manifold, in declaration order,
    over the points drawn block by block as the one sweep takes them."""
    pair = standard_pair(MANIFOLDS[config.manifold])
    f = pair.angle_function()
    point_blocks = sample_blocks(
        config.samples, config.seed, pair.ambient_dim, manifold.BLOCK,
        exclusion=lambda x: np.abs(value(f.eval(x))) > config.exclusion)
    catalog = _check_catalog(pair, point_blocks, config)
    unknown = sorted(set(config.tol_overrides) - {name for name, _ in catalog})
    if unknown:
        raise ValueError(f"unknown check name in tolerance override: {unknown[0]}")
    return [fn(tol=config.tol_overrides[name]) if name in config.tol_overrides else fn()
            for name, fn in catalog]


def describe(manifold: str) -> dict:
    """Generators, sign conventions, and golden constants for a manifold."""
    if manifold not in MANIFOLDS:
        raise ValueError(f"unknown manifold {manifold!r}")
    dim = MANIFOLDS[manifold]
    pair = standard_pair(dim)
    slope, offset = expected_laplacian_profile(pair)
    return {
        "manifold": manifold,
        **pair.to_descriptor(),
        "sigma_alpha": pair.s_alpha.sigma,
        "sigma_beta": pair.s_beta.sigma,
        "convention_ledger": dict(CONVENTION_LEDGER),
        "golden": {
            "laplacian_slope": slope,
            "laplacian_offset": offset,
            "transnormal_profile": "b(t) = 4(1 - t^2)",
            "reeb_energy": reeb_energy_closed_form(dim),
            "volume_form_magnitude": volume_form_constant(pair.n),
        },
    }


# ---------------------------------------------------------------------------
# serialization

def document(config: SuiteConfig, reports: Sequence[ResidualReport]) -> dict:
    doc = {
        "config": config.as_dict(),
        "convention_ledger": dict(CONVENTION_LEDGER),
        "reports": [r.as_dict() for r in reports],
    }
    if config.include_timestamp:
        import datetime
        doc["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    return doc


def _null_if_not_finite(obj):
    if isinstance(obj, dict):
        return {key: _null_if_not_finite(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_if_not_finite(val) for val in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def render_json(doc: dict) -> str:
    """Strict JSON (RFC 8259): a float that is not finite, as a failing
    check's NaN residual, is written as null; ``pass`` carries the verdict."""
    return json.dumps(_null_if_not_finite(doc), indent=2, allow_nan=False) + "\n"


CSV_COLUMNS = ["check_name", "count", "skipped", "max", "mean", "tolerance", "pass"]


def render_csv(reports: Sequence[ResidualReport]) -> str:
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        writer.writerow([r.check_name, r.count, r.skipped,
                         format(r.max, ".17g"), format(r.mean, ".17g"),
                         format(r.tolerance, ".17g"),
                         "true" if r.passed else "false"])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# argument parsing

def _parse_tol(raw: str) -> tuple[str, float]:
    if "=" not in raw:
        raise argparse.ArgumentTypeError(f"expected name=value, got {raw!r}")
    name, _, val = raw.partition("=")
    try:
        return name.strip(), float(val)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance value in {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kontact",
        description="verify contact-geometry identities on round spheres")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the residual suite")
    verify.add_argument("manifold", choices=sorted(MANIFOLDS))
    verify.add_argument("--samples", type=int, default=500)
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--exclusion", type=float, default=0.9,
                        help="skip sample points with |angle| above this")
    verify.add_argument("--tol", action="append", type=_parse_tol, default=[],
                        metavar="NAME=VALUE", help="override a check tolerance")
    verify.add_argument("--out", dest="output_path", default=None)
    verify.add_argument("--format", choices=["json", "csv"], default="json")
    verify.add_argument("--timestamp", action="store_true",
                        help="include a timestamp in the document")

    desc = sub.add_parser("describe", help="print generators and conventions")
    desc.add_argument("manifold", choices=sorted(MANIFOLDS))

    en = sub.add_parser("energy", help="Monte Carlo energy of a unit field")
    en.add_argument("manifold", choices=sorted(MANIFOLDS))
    en.add_argument("--field", choices=["reeb_alpha", "reeb_beta", "gradient"],
                    default="reeb_alpha")
    en.add_argument("--samples", type=int, default=100_000)
    en.add_argument("--seed", type=int, default=42)
    en.add_argument("--exclusion", type=float, default=None,
                    help="restrict the gradient field's domain to |angle| <= X; "
                         "unrestricted, the energy diverges logarithmically at "
                         "the focal sphere angle = 1 (x1 = x2 = 0), and on s3 "
                         "also at angle = -1, so the estimate does not settle")
    return parser


# Bad input, an energy --samples too large to allocate (its integrand
# values) and an --out path that cannot be written end a command with
# exit status 2 and a one-line message instead of a traceback.
_RUN_ERRORS = (ValueError, GeometryError, MemoryError)


def _cmd_verify(args) -> int:
    try:
        config = SuiteConfig(manifold=args.manifold, samples=args.samples,
                             seed=args.seed, exclusion=args.exclusion,
                             tol_overrides=dict(args.tol),
                             output_path=args.output_path, format=args.format,
                             include_timestamp=args.timestamp)
        reports = run_suite(config)
    except _RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.check_name}: max={r.max:.3e} "
              f"tol={r.tolerance:.3e} (count={r.count}, skipped={r.skipped})",
              file=sys.stderr)
    if config.format == "json":
        payload = render_json(document(config, reports))
    else:
        payload = render_csv(reports)
    if config.output_path:
        try:
            with open(config.output_path, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    failures = [r for r in reports if not r.passed]
    if failures:
        for r in failures:
            print(f"failed: {r.check_name} (max {r.max:.6e} > "
                  f"tol {r.tolerance:.6e})", file=sys.stderr)
        return 1
    return 0


def _cmd_describe(args) -> int:
    sys.stdout.write(render_json(describe(args.manifold)))
    return 0


def _energy_field(args, pair) -> tuple[UnitVectorField, Optional[float]]:
    """The unit field named by ``--field`` and its closed-form energy, if any."""
    if args.field != "gradient":
        if args.exclusion is not None:
            raise ValueError("--exclusion applies to the gradient field only")
        structure = pair.s_alpha if args.field == "reeb_alpha" else pair.s_beta
        return reeb_unit_field(structure), reeb_energy_closed_form(pair.dim)
    f = pair.angle_function()
    zf = normalized_gradient_unit_field(f)
    if args.exclusion is None:
        return zf, None
    if not (0.0 < args.exclusion < 1.0):
        raise ValueError("exclusion must lie in (0, 1)")
    cutoff = args.exclusion
    return UnitVectorField(zf.field, lambda x: np.abs(value(f.eval(x))) <= cutoff,
                           zf.label, zf.potential), None


def _cmd_energy(args) -> int:
    pair = standard_pair(MANIFOLDS[args.manifold])
    try:
        zf, closed = _energy_field(args, pair)
        est = energy(zf, args.samples, args.seed, pair.ambient_dim)
    except _RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = {
        "manifold": args.manifold,
        "field": args.field,
        "samples": est.samples,
        "skipped": est.skipped,
        "seed": args.seed,
        "estimate": est.estimate,
        "stderr": est.stderr,
    }
    if args.field == "gradient" and args.exclusion is None:
        # tr L_N grows like 1/ρ² near the focal sphere f = 1: the energy is
        # infinite, so the estimate and its stderr do not settle
        doc["diverges"] = True
    if closed is not None:
        doc["closed_form"] = closed
    if args.exclusion is not None:
        doc["exclusion"] = args.exclusion
    sys.stdout.write(render_json(doc))
    return 0


def tune_allocator() -> None:
    """Set glibc's malloc thresholds (``MALLOPT_SETTINGS``) for this process.

    glibc starts with a 128 KB mmap threshold and raises it, with its trim
    threshold, only once a large block is freed; until then every numpy
    temporary above it is mapped afresh and paid for in page faults, in
    every block of a sweep.  Where libc is not glibc (no ``libc.so.6``, or
    no ``mallopt`` in it) nothing is set, and the settings stop at the
    first that glibc refuses, so the trim settings, which also freeze the
    mmap threshold, never land without it.  Output does not depend on it.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, size in MALLOPT_SETTINGS:
        if mallopt(param, size) != 1:
            return


def main(argv: Optional[Sequence[str]] = None) -> int:
    # the first collection of a call would otherwise be a gen-1 pass over
    # start-up's survivors: 1.1-1.2 ms of verify s3 --samples 80 or s7
    # --samples 20 after standard_pair, against none or a 0.13 ms gen-0
    # pass frozen (gc.callbacks, 2-vCPU VM)
    frozen = gc.get_freeze_count() == 0
    if frozen:
        gc.freeze()
    try:
        tune_allocator()
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "describe":
            return _cmd_describe(args)
        if args.command == "energy":
            return _cmd_energy(args)
        parser.error("unknown command")
        return 2
    finally:
        if frozen:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
