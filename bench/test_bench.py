"""Self-tests of the benchmark on tiny S^3/S^5 calls.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

VERIFY_S3 = ["verify", "s3", "--samples", "3", "--seed", "5"]
VERIFY_S5 = ["verify", "s5", "--samples", "2", "--seed", "5"]


@pytest.fixture(scope="module")
def work():
    path = run.RESULTS / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def call(work, dim, args, traced=False):
    trace_out = work / "spans.json" if traced else None
    rec = run.run_child(work, dim, args, time.monotonic() + 120, trace_out)
    if traced:
        rec["trace"] = json.loads(trace_out.read_text())
    return rec


def reference_of(stdout):
    return {"checks": [{"name": r["check_name"], "count": r["count"],
                        "skipped": r["skipped"], "tolerance": r["tolerance"]}
                       for r in json.loads(stdout)["reports"]]}


@pytest.mark.parametrize("dim,args", [(3, VERIFY_S3), (5, VERIFY_S5)])
def test_tracing_keeps_output_and_names_every_check(work, dim, args):
    from kontact.cli import check_names
    plain = call(work, dim, args)
    traced = call(work, dim, args, traced=True)
    assert plain["exit"] == traced["exit"] == 0
    assert traced["stdout"] == plain["stdout"]
    traced_checks = {k[len("cli.check."):] for k in traced["trace"]["calls"]
                     if k.startswith("cli.check.")}
    assert traced_checks == set(check_names(args[1]))
    spans = traced["trace"]["spans"]
    assert spans and all(s is not None and s[3] < i for i, s in enumerate(spans))


def _pfaffian_calls(k):
    """Calls made by the recursive expansion of a k x k Pfaffian."""
    return 1 if k <= 2 else 1 + (k - 1) * _pfaffian_calls(k - 2)


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_pfaffian_count_matches_the_recursive_expansion(dim):
    from kontact import contact
    from kontact.double_kcontact import standard_pair
    from kontact.manifold import sample_points, tangent_basis
    s = standard_pair(dim).s_alpha
    frame = tangent_basis(sample_points(1, 3, dim + 1)[0])
    original = contact.pfaffian
    tracer = Tracer()
    tracer.install()
    try:
        contact.volume_form_value(s.alpha_coeffs, frame, s.n)
    finally:
        tracer.uninstall()
    assert contact.pfaffian is original
    assert tracer.calls["contact.pfaffian"] == dim * _pfaffian_calls(dim - 1)


def test_wrong_reference_fails_operations(work):
    rec = call(work, 3, VERIFY_S3)
    ref = reference_of(rec["stdout"])
    failed, rooms = run.gate_verify(rec["stdout"], rec["exit"], ref)
    assert not any(failed) and len(failed) == len(ref["checks"])
    assert all(v is None or v > 0 for v in rooms.values())
    for key, wrong in (("count", 1), ("skipped", 1), ("name", "x")):
        bad = json.loads(json.dumps(ref))
        bad["checks"][2][key] = wrong if key == "name" else bad["checks"][2][key] + wrong
        failed, _ = run.gate_verify(rec["stdout"], rec["exit"], bad)
        assert sum(failed) == 1
    bad = {"checks": ref["checks"][:-1]}
    assert sum(run.gate_verify(rec["stdout"], rec["exit"], bad)[0]) == 1
    assert all(run.gate_verify(rec["stdout"], 1, ref)[0])


def test_energy_gate_uses_the_oracle(work):
    args = ["energy", "s5", "--field", "gradient", "--exclusion", "0.9",
            "--samples", "3000", "--seed", "4"]
    rec = call(work, 5, args)
    oracle = run.energy_oracle(4, 3000, 0.9, 5)
    failed, rooms = run.gate_energy(rec["stdout"], rec["exit"],
                                    {"samples": 3000}, oracle)
    assert failed == [False] and min(rooms.values()) > 0
    off = dict(oracle, estimate=oracle["estimate"] * (1 + 1e-8))
    assert run.gate_energy(rec["stdout"], rec["exit"], {"samples": 3000}, off)[0] == [True]
    assert run.gate_energy(rec["stdout"], rec["exit"], {"samples": 3001}, oracle)[0] == [True]
