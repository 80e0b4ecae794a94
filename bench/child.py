"""One measured kontact CLI call, run in a fresh interpreter by run.py.

    python3 child.py TIMING_OUT TRACE_OUT DIM [CLI ARGS...]

Set-up is ``import kontact.cli`` plus ``standard_pair(DIM)``; the wall
clock (``time.monotonic``, shared with the parent) at its end goes to
TIMING_OUT with the wall time of ``kontact.cli.main(CLI ARGS)`` and its
exit code.  The CLI writes to this process's stdout as it would for a
user.  TRACE_OUT is ``-`` for an untraced call; otherwise the tracer is
installed before set-up and its counters and spans are written there.
With no CLI arguments only the set-up runs (a warm-up call).
"""

import json
import sys
import time
import traceback

CALIBRATION_STEPS = 20_000


def calibrate() -> float:
    """Seconds for a fixed loop of Python calls on small numpy arrays.

    The loop does the kind of work a verify call does (interpreter dispatch
    and tiny array operations) and none of kontact's code, so its time
    tracks only how fast the machine runs at that moment.
    """
    import numpy as np
    x, m = np.arange(8.0), np.eye(8)
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        x = x + 1e-12 * float(np.sum(x * (m @ x)))
    return time.perf_counter() - t0


def main() -> int:
    timing_out, trace_out, dim = sys.argv[1], sys.argv[2], int(sys.argv[3])
    cli_args = sys.argv[4:]
    tracer = None
    if trace_out != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import kontact.cli
    from kontact.double_kcontact import standard_pair
    standard_pair(dim)
    ready = time.monotonic()
    code, run_s, calib = 0, 0.0, [calibrate()]
    if cli_args:
        t0 = time.perf_counter()
        try:
            code = kontact.cli.main(cli_args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = -1
        run_s = time.perf_counter() - t0
        calib.append(calibrate())
    sys.stdout.flush()
    with open(timing_out, "w") as fh:
        json.dump({"ready": ready, "run_s": run_s, "exit": code,
                   "calibration_s": sum(calib) / len(calib)}, fh)
    if tracer is not None:
        tracer.dump(trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
