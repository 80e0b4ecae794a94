"""Layered benchmark of the kontact verifier CLI.

    python3 bench/run.py --workload verify-s7 --seed 1 --seconds 35 --trace 0

Runs the workload's ``kontact`` CLI call repeatedly, one fresh child
interpreter per call and one child at a time, for ``--seconds`` seconds,
cycling through inputs derived from ``--seed``; gates every call's output
against ``bench/reference.json`` (and, for energy, an independent
closed-form oracle), and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` three traced calls, interleaved with
the untraced ones, give the per-layer ones.  Each run also writes a
result file under ``bench/results/``.  See bench/README.md for why each
workload exists and which layer metric should move which end-to-end
metric.

``--record-reference`` makes one call and stores its check catalog as the
workload's reference instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference.json"

# Calls of about 2 s each: a single call's time spreads by a quarter on a
# shared machine, so a run's median needs many calls (see README.md).
WORKLOADS = {
    "verify-s7": {"dim": 7, "args": ["verify", "s7", "--samples", "20"]},
    "verify-s3": {"dim": 3, "args": ["verify", "s3", "--samples", "80"]},
    "energy-s5": {"dim": 5, "args": ["energy", "s5", "--field", "gradient",
                                     "--exclusion", "0.9",
                                     "--samples", "100000"]},
}
ENERGY_RTOL = 1e-9          # energy estimate/stderr vs the oracle, relative
RUN_BUDGET_S = 170.0        # a run must end within 180 s
POLL_S = 0.01
BLAS_THREADS = "1"
# setup_s and run_s are wall times scaled to the machine speed at which the
# child's calibration loop takes CALIBRATION_REF_S (see README.md, Spread).
CALIBRATION_REF_S = 0.1
MEASURES = ("setup_s", "run_s", "peak_rss_mb", "wall_setup_s", "wall_run_s",
            "calibration_s")
# A run cycles through INPUTS inputs (CLI seeds derived from --seed), so
# min_headroom_dec is a median over inputs rather than one input's extreme.
INPUTS = 5
TRACED_CALLS = 3            # interleaved with untraced ones in a traced run
TINY = 5e-324               # a zero residual's per-check headroom: -log10(TINY)


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed operation)."""


def child_env() -> dict:
    """The whole environment of a measured call, built explicitly.

    ``KONTACT_THREADS`` is absent, so the CLI runs its serial default, and
    the BLAS pools are pinned to one thread, so one child uses one CPU.
    """
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
        "OMP_NUM_THREADS": BLAS_THREADS,
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
    }


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "kontact_threads": None,
    }


# ---------------------------------------------------------------------------
# children

def run_child(work: Path, dim: int, cli_args: list, deadline: float,
              trace_out: Path | None = None) -> dict:
    """Spawn one child, wait for it with ``os.wait4`` and collect its output."""
    timing, out, err = work / "timing.json", work / "stdout", work / "stderr"
    timing.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(timing),
            str(trace_out) if trace_out else "-", str(dim), *cli_args]
    with open(out, "wb") as fo, open(err, "wb") as fe:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fo,
                                stderr=fe, env=child_env(), cwd=ROOT)
    status = rusage = None
    try:
        while status is None:
            pid, st, ru = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                status, rusage = st, ru
            elif time.monotonic() > deadline:
                raise BenchError(f"child {' '.join(cli_args)} overran the run budget")
            else:
                time.sleep(POLL_S)
    finally:
        if status is None:
            proc.kill()
            os.wait4(proc.pid, 0)
        proc.returncode = -9 if status is None else os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not timing.exists():
        raise BenchError(f"child exited with {proc.returncode}: "
                         + err.read_text(errors="replace")[-2000:])
    t = json.loads(timing.read_text())
    wall_setup_s = t["ready"] - spawned
    scale = CALIBRATION_REF_S / t["calibration_s"]
    return {
        "setup_s": wall_setup_s * scale,
        "run_s": t["run_s"] * scale,
        "wall_setup_s": wall_setup_s,
        "wall_run_s": t["run_s"],
        "calibration_s": t["calibration_s"],
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
        "exit": t["exit"],
        "stdout": out.read_bytes(),
    }


# ---------------------------------------------------------------------------
# correctness gates

def headroom(tol: float, mx: float) -> float | None:
    """Decades between a tolerance and a residual; None when the residual is 0."""
    return math.log10(tol / mx) if mx > 0 else None


def gate_verify(stdout: bytes, code: int, ref: dict) -> tuple[list, dict]:
    """One failure flag per check report, and each check's headroom.

    A report fails if the call exited non-zero, if it does not pass, or if
    its name, position, ``count`` or ``skipped`` differ from the reference.
    Headroom uses the reference tolerance, so tightening a tolerance does
    not read as a loss.
    """
    try:
        reports = json.loads(stdout)["reports"]
    except (ValueError, KeyError, TypeError):
        reports = []
    checks = ref["checks"]
    failed = []
    for i in range(max(len(checks), len(reports))):
        want = checks[i] if i < len(checks) else None
        got = reports[i] if i < len(reports) else None
        ok = (code == 0 and want is not None and got is not None
              and got.get("pass") is True
              and got.get("check_name") == want["name"]
              and got.get("count") == want["count"]
              and got.get("skipped") == want["skipped"])
        failed.append(not ok)
    tol_ref = {c["name"]: c["tolerance"] for c in checks}
    rooms = {r["check_name"]: headroom(tol_ref[r["check_name"]], r["max"])
             for r in reports if r.get("check_name") in tol_ref}
    return failed, rooms


def energy_oracle(seed: int, samples: int, exclusion: float, dim: int) -> dict:
    """Energy of N = grad f/|grad f| on |f| <= exclusion, in closed form.

    Independent of the dual engine: for the shipped pair (J1 = diag(j, j,
    ...), J2 = diag(-j, j, ...)) the angle function is f = x^T A x with
    A = diag(-1, -1, 1, ..., 1), so grad f = 2(Ax - f x) and the Jacobian
    of N is written out by hand.  The sample points are drawn exactly as
    ``harmonic.energy`` draws them, so the estimates agree to rounding.
    """
    n_amb = dim + 1
    a = np.ones(n_amb)
    a[:2] = -1.0
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, n_amb))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    pts = g / norms[:, None]
    vals = np.zeros(samples)
    eye = np.eye(n_amb)
    skipped = 0
    for lo in range(0, samples, 20_000):
        x = pts[lo:lo + 20_000]
        ax = x * a
        f = np.sum(x * ax, axis=1)
        grad = 2.0 * (ax - f[:, None] * x)
        gn = np.linalg.norm(grad, axis=1)
        keep = (gn >= 1e-6) & (np.abs(f) <= exclusion)
        skipped += int(np.count_nonzero(~keep))
        x, ax, f, grad, gn = x[keep], ax[keep], f[keep], grad[keep], gn[keep]
        nrm = grad / gn[:, None]
        dgrad = 2.0 * (np.diag(a)[None] - 2.0 * x[:, :, None] * ax[:, None, :]
                       - f[:, None, None] * eye)
        dn = (dgrad - nrm[:, :, None] * np.einsum("ni,nij->nj", nrm, dgrad)[:, None, :]
              ) / gn[:, None, None]
        proj = eye - x[:, :, None] * x[:, None, :]
        pjp = proj @ dn @ proj
        vals[lo:lo + 20_000][keep] = dim + np.einsum("nij,nij->n", pjp, pjp)
    vol = 2.0 * math.pi ** (n_amb / 2) / math.gamma(n_amb / 2)
    return {"skipped": skipped,
            "estimate": 0.5 * vol * float(np.mean(vals)),
            "stderr": 0.5 * vol * float(np.std(vals, ddof=1)) / math.sqrt(samples)}


def gate_energy(stdout: bytes, code: int, ref: dict, oracle: dict
                ) -> tuple[list, dict]:
    """One failure flag for the estimate, and its headroom under ENERGY_RTOL.

    A difference from the oracle below one ulp of the oracle's value counts
    as one ulp, so agreement to the last bit reads as the headroom of that
    value's precision rather than as infinite.
    """
    try:
        doc = json.loads(stdout)
        rel = {k: max(abs(doc[k] - oracle[k]), np.spacing(abs(oracle[k])))
               / abs(oracle[k]) for k in ("estimate", "stderr")}
        ok = (code == 0 and doc["samples"] == ref["samples"]
              and doc["skipped"] == oracle["skipped"]
              and max(rel.values()) <= ENERGY_RTOL)
    except (ValueError, KeyError, TypeError):
        return [True], {}
    return [not ok], {k: headroom(ENERGY_RTOL, float(v)) for k, v in rel.items()}


# ---------------------------------------------------------------------------
# metrics

def quartiles(values: list) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(names: list, trace: dict, samples: int, rooms: dict,
                  overhead_s: float) -> dict:
    """Per-layer values named in BENCHMARK.json, from one traced call.

    A function the workload never calls reads 0.  A check the workload
    does not run reads 0 ms/pt and 0 decades; a check whose residual is 0
    reads -log10(TINY), about 323 decades.
    """
    stats = {"calls": trace["calls"], "allocs": trace["calls"],
             "self_s": trace["self_s"], "s": trace["incl_s"]}
    out = {}
    for name in names:
        key, stat = name.rsplit(".", 1)
        if name == "trace.overhead_s":
            v = overhead_s
        elif name == "harmonic.energy.kept_frac":
            v = (trace["energy_kept"] / trace["energy_samples"]
                 if trace["energy_samples"] else 0.0)
        elif stat == "ms_per_pt":
            v = 1000.0 * trace["incl_s"].get(key, 0.0) / samples
        elif stat == "headroom_dec":
            check = key[len("cli.check."):]
            v = rooms.get(check, 0.0)
            if v is None:
                v = -math.log10(TINY)
        elif stat in stats:
            v = stats[stat].get(key, 0)
        else:
            raise BenchError(f"no rule for per-layer metric {name}")
        out[name] = v
    return out


# ---------------------------------------------------------------------------
# measurement

def record_reference(workload: str, spec: dict, stdout: bytes, seed: int):
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    doc = json.loads(stdout)
    entry = {"args": spec["args"], "seed": seed}
    if "reports" in doc:
        entry["checks"] = [{"name": r["check_name"], "count": r["count"],
                            "skipped": r["skipped"], "tolerance": r["tolerance"]}
                           for r in doc["reports"]]
    else:
        entry["samples"] = doc["samples"]
    refs[workload] = entry
    REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


def measure(args) -> dict:
    spec = WORKLOADS[args.workload]
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    seeds = [(args.seed * INPUTS + j) % 2 ** 32 for j in range(INPUTS)]
    samples = int(spec["args"][spec["args"].index("--samples") + 1])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = RESULTS / f".work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

    def call(i, trace_out=None):
        """The i-th call of the run; it reads input i mod INPUTS."""
        seed = seeds[i % INPUTS]
        rec = run_child(work, spec["dim"], spec["args"] + ["--seed", str(seed)],
                        deadline, trace_out)
        rec["seed"] = seed
        return rec

    try:
        run_child(work, spec["dim"], [], deadline)   # warm file cache and .pyc
        if args.record_reference:
            rec = call(0)
            if rec["exit"] != 0:
                raise BenchError("cannot record a reference from a failing call")
            record_reference(args.workload, spec, rec["stdout"], rec["seed"])
            return {}
        ref = json.loads(REFERENCE.read_text())[args.workload]
        energy = "checks" not in ref
        oracles = {}
        if energy:
            exclusion = float(spec["args"][spec["args"].index("--exclusion") + 1])
            oracles = {s: energy_oracle(s, samples, exclusion, spec["dim"])
                       for s in seeds}
        trace_file = RESULTS / f"{tag}-spans.json"
        traced, calls = [], []
        window = time.monotonic()
        while not calls or time.monotonic() - window < args.seconds:
            if args.trace and len(traced) < TRACED_CALLS:
                traced.append(call(len(traced), trace_file))
            calls.append(call(len(calls)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def gate(rec):
        if energy:
            return gate_energy(rec["stdout"], rec["exit"], ref, oracles[rec["seed"]])
        return gate_verify(rec["stdout"], rec["exit"], ref)

    firsts = {}
    attempted = failed = 0
    for rec in calls + traced:
        flags, rec["headroom_dec"] = gate(rec)
        # Every call of one input must print the same bytes.
        if rec["stdout"] != firsts.setdefault(rec["seed"], rec["stdout"]):
            flags = [True] * len(flags)
        rec["failed_ops"] = sum(flags)
        attempted += len(flags)
        failed += sum(flags)
    rooms = {c["seed"]: c["headroom_dec"] for c in calls}
    worst = [min(gated) for gated in ([v for v in r.values() if v is not None]
                                      for r in rooms.values()) if gated]
    e2e = {k: quartiles([c[k] for c in calls]) for k in MEASURES}
    summary = {k: e2e[k]["median"] for k in ("setup_s", "run_s", "peak_rss_mb")}
    summary["min_headroom_dec"] = statistics.median(worst) if worst else 0.0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        overhead = (statistics.median(c["run_s"] for c in traced)
                    - e2e["run_s"]["median"])
        metrics = layer_metrics([m["name"] for m in bench["per_layer"]],
                                json.loads(trace_file.read_text()), samples,
                                traced[-1]["headroom_dec"], overhead)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        metrics = summary
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    detail = {
        "workload": args.workload, "args": spec["args"], "seed": args.seed,
        "input_seeds": seeds,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "fail_frac": failed / attempted,
        "end_to_end": e2e,
        "min_headroom_dec": summary["min_headroom_dec"],
        "headroom_dec": rooms,
        "oracle": oracles,
        "calls": [{k: c[k] for k in MEASURES + ("exit", "failed_ops")}
                  for c in calls],
        "result": result,
    }
    if traced:
        detail["traced_calls"] = [{k: c[k] for k in MEASURES + ("exit", "failed_ops")}
                                  for c in traced]
        detail["trace_overhead_s"] = metrics["trace.overhead_s"]
    (RESULTS / f"{tag}.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(f"{args.workload} seed {args.seed}: {len(calls)} calls, "
          f"failed {failed}/{attempted}, "
          + ", ".join(f"{k} {e2e[k]['median']:.4g} "
                      f"[{e2e[k]['q1']:.4g}, {e2e[k]['q3']:.4g}]"
                      for k in ("setup_s", "run_s", "peak_rss_mb", "wall_run_s"))
          + f", min_headroom_dec {summary['min_headroom_dec']:.4g}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    # Exit through the finally blocks, which stop and reap a running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "kontact" / "__init__.py").is_file():
        print(f"error: no kontact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
