"""flattop benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: density-fresh, density-reuse,
model-select, cli-cold (see perfbench/README.md); ``--workload all`` runs
the four in turn, each report ending in its own JSON line.  Each run is a fresh
worker process with BLAS threads pinned to one; ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
``--tiny`` shrinks every op for the smoke tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibration  # noqa: E402
WORKLOAD_NAMES = ("density-fresh", "density-reuse", "model-select", "cli-cold")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 150.0  # beyond --seconds
SETUP_CAL_REPS = 10  # calibration kernel runs before and after each set-up


def scale_records(result: dict) -> None:
    """Add ``scaled_s``, the latency scaled to the reference host
    (calibration.py), to every op record of ``result``."""
    scale = calibration.Scale(result["calibration"])
    for key in ("records", "untraced", "traced"):
        for r in result.get(key, ()):
            r["scaled_s"] = scale.latency(r["start"], r["latency_s"])


def _by_slot(records, key: str) -> dict[int, list[float]]:
    by_slot: dict[int, list[float]] = {}
    for r in records:
        by_slot.setdefault(r["slot"], []).append(r[key])
    return by_slot


def pass_wall_s(records) -> float:
    """Wall time of one pass: each op slot's median scaled latency over
    the run's passes, summed over the slots of a pass."""
    return sum(statistics.median(v) for v in _by_slot(records, "scaled_s").values())


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """The workload's fixed tail percentile (linear interpolation) and the
    number of samples above it."""
    ordered = sorted(latencies)
    pos = (len(ordered) - 1) * percentile / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return value, sum(1 for v in ordered if v > value)


class Worker:
    """A worker process; ``ready_s`` is the time from its start to READY,
    scaled to the reference host by calibration runs just before the
    start and just after READY."""

    def __init__(self, args, workload: str, env: dict, workdir: str, setup_only: bool) -> None:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(float(args.seconds)), "--trace", str(args.trace),
               "--workdir", workdir, "--result", os.path.join(workdir, "result.json")]
        if args.tiny:
            cmd.append("--tiny")
        if setup_only:
            cmd.append("--setup-only")
        self.result_path = os.path.join(workdir, "result.json")
        cal = calibration.sample(SETUP_CAL_REPS)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.timeout = RUN_TIMEOUT_S + (0.0 if setup_only else args.seconds)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], SETUP_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            measured = time.perf_counter() - t0
            if line.strip() != "READY":
                raise RuntimeError(f"{workload}: set-up failed or timed out")
            cal += calibration.sample(SETUP_CAL_REPS)
            self.ready_s = measured * calibration.REFERENCE_S / statistics.median(
                c[1] for c in cal)
        except BaseException:
            self.stop()
            raise

    def finish(self) -> None:
        try:
            code = self.proc.wait(timeout=self.timeout)
        finally:
            self.stop()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    records = result["records"]
    latencies = [r["scaled_s"] for r in records]
    pct = result["tail_percentile"]
    tail_s, beyond = tail(latencies, pct)
    failed = sum(1 for r in records if r["error"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": pass_wall_s(records),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [
        f"ops {len(records)} in {result['passes']} passes; failed {failed}; "
        f"failed_ratio {failed / len(records):.6g}",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
        f"calibration: {len(result['calibration'])} kernel runs, median "
        f"{1e3 * statistics.median(c[1] for c in result['calibration']):.4f} ms, "
        f"reference {1e3 * calibration.REFERENCE_S:g} ms; unscaled: wall_s "
        f"{sum(statistics.median(v) for v in _by_slot(records, 'latency_s').values()):.6g}, "
        f"op_p50_ms {1e3 * statistics.median(r['latency_s'] for r in records):.6g}",
        f"op_tail_ms is p{pct:g} of {len(records)} ops, {beyond} beyond it",
    ]
    by_label: dict[str, list[float]] = {}
    for r in records:
        by_label.setdefault(r["label"], []).append(r["scaled_s"])
    notes += [f"  op {label:14s} median {1e3 * statistics.median(v):10.4f} ms of {len(v)}"
              for label, v in by_label.items()]
    return values, notes


def per_layer(result: dict) -> tuple[dict, list[str]]:
    from tracing import layer_metrics

    passes = result["traced_passes"]
    values = layer_metrics(result["totals"], passes)
    values.update({k: float(result["extras"].get(k, 0.0)) for k in ("cli.interp_s", "cli.import_s")})
    values["cli.stdout_bytes"] = result["extras"].get("cli.stdout_bytes", 0) / passes
    overhead = pass_wall_s(result["traced"]) / pass_wall_s(result["untraced"])
    values["trace.overhead_ratio"] = overhead
    notes = [f"untraced passes {result['passes']}, traced passes {passes}, "
             f"spans {result['totals'].get('spans', 0):.0f}"]
    return values, notes


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the workers' clean-up


def run_one(args, workload: str, env: dict) -> int:
    """Run ``workload`` and print its report; the last line is its JSON."""
    base = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(base, f"{workload}-seed{args.seed}-{os.getpid()}")
    setups = []

    def probe_setup(i: int) -> None:
        probe_dir = os.path.join(workdir, f"setup{i}")
        os.makedirs(probe_dir)
        probe = Worker(args, workload, env, probe_dir, setup_only=True)
        probe.finish()
        setups.append(probe.ready_s)

    try:
        os.makedirs(workdir)
        if args.trace == 0:
            probe_setup(0)
        worker = Worker(args, workload, env, workdir, setup_only=False)
        setups.append(worker.ready_s)
        worker.finish()
        if args.trace == 0:
            probe_setup(1)
        with open(worker.result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        scale_records(result)
        if args.trace:
            keep = os.path.join(base, "traces", f"{workload}-seed{args.seed}")
            shutil.rmtree(keep, ignore_errors=True)
            os.makedirs(os.path.dirname(keep), exist_ok=True)
            os.replace(os.path.join(workdir, "trace"), keep)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values, notes = end_to_end(result, setups) if args.trace == 0 else per_layer(result)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
    records = result["records"]
    failures = [r for r in records if r["error"]]
    print(f"workload {workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' tiny' if args.tiny else ''}")
    print("threads: " + " ".join(f"{v}={env[v]}" for v in THREAD_VARS))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    for r in failures:
        print(f"FAILED pass {r['pass']} op {r['slot']} {r['label']}: {r['error']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every op (smoke tests)")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)

    if not os.path.isfile(os.path.join(ROOT, "src", "flattop", "__init__.py")):
        print(f"error: no flattop sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    return max(run_one(args, name, env) for name in names)


if __name__ == "__main__":
    raise SystemExit(main())
