"""One run of one workload in a fresh process; started by ``run.py``.

The worker sets the workload up, prints ``READY`` on stdout (the parent
times set-up up to that line), runs whole passes for about ``--seconds``,
and writes every op's latency and check outcome to ``--result``.

With ``--trace 1`` the first half of the time runs untraced and the second
half traced, so the traced run gives the per-layer figures and the
tracing overhead on the same inputs and process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
from tracing import Tracer, merge_totals  # noqa: E402
from workloads import WORKLOADS, CheckFailed, CliCold  # noqa: E402

PROBES = 3  # cold child processes per CLI start-up probe


def _exception_line() -> str:
    return traceback.format_exc(limit=-1).strip().splitlines()[-1]


def run_passes(workload, seconds: float, first: int, cal: list,
               tracer: Tracer | None = None):
    """Whole passes, as many as come closest to ``seconds`` (another pass
    starts while it would end less than half a pass late), and at least
    ``workload.min_passes``.  Before each op the calibration kernel runs
    ``workload.cal_reps`` times, untimed; its samples go to ``cal``.
    Returns the op records and the pass count."""
    records = []
    start = time.perf_counter()
    index = first
    while True:
        done = index - first
        elapsed = time.perf_counter() - start
        if done >= workload.min_passes and elapsed + 0.5 * elapsed / done >= seconds:
            break
        for slot, op in enumerate(workload.pass_ops(index)):
            error = None
            cal.extend(calibration.sample(workload.cal_reps))
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception:  # an op that raises is a counted failure
                error = _exception_line()
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            if error is None:
                try:
                    op.check(result)
                except CheckFailed as exc:
                    error = str(exc)
                except Exception:  # a check that cannot run is a failure too
                    error = "check: " + _exception_line()
            records.append({"pass": index, "slot": slot, "label": op.label,
                            "start": t0, "latency_s": latency, "error": error})
        index += 1
    return records, index - first


def _probe(argv: list[str], env: dict) -> float:
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced_phase(workload, seconds: float, first: int, cal: list, trace_dir: str):
    """Run passes with every layer traced; returns records, passes, the
    merged span totals and workload-specific extras."""
    extras = {}
    if isinstance(workload, CliCold):
        # Each op is a process of its own: trace inside it (clitrace.py).
        extras["cli.interp_s"] = _probe([sys.executable, "-c", "pass"], workload.env)
        extras["cli.import_s"] = _probe([sys.executable, "-c", "import flattop.cli"], workload.env)
        workload.trace_dir = trace_dir
        workload.stdout_bytes = 0
        records, passes = run_passes(workload, seconds, first, cal)
        workload.trace_dir = None
        extras["cli.stdout_bytes"] = workload.stdout_bytes
        parts = []
        for name in sorted(os.listdir(trace_dir)):
            if name.endswith(".json"):
                with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                    parts.append(json.load(fh))
        totals = merge_totals(parts)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            records, passes = run_passes(workload, seconds, first, cal, tracer)
        finally:
            tracer.uninstall()
        totals = tracer.totals()
        tracer.write(os.path.join(trace_dir, "spans.npz"))
    return records, passes, totals, extras


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through subprocess and file clean-up


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", default=None)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)

    workload = WORKLOADS[args.workload](args.seed, os.path.join(args.workdir, "data"), args.tiny)
    workload.setup()
    print("READY", flush=True)
    try:
        if args.setup_only:
            return 0
        cal: list[list[float]] = []
        out = {"tail_percentile": workload.tail_percentile, "calibration": cal}
        if args.trace == 0:
            out["records"], out["passes"] = run_passes(workload, args.seconds, 0, cal)
        else:
            half = args.seconds / 2.0
            untraced, passes = run_passes(workload, half, 0, cal)
            trace_dir = os.path.join(args.workdir, "trace")
            os.makedirs(trace_dir, exist_ok=True)
            traced, traced_passes, totals, extras = traced_phase(
                workload, half, passes, cal, trace_dir)
            out.update(records=untraced + traced, passes=passes, untraced=untraced,
                       traced=traced, traced_passes=traced_passes, totals=totals,
                       extras=extras)
        who = resource.RUSAGE_CHILDREN if isinstance(workload, CliCold) else resource.RUSAGE_SELF
        out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(out, fh)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    raise SystemExit(main())
