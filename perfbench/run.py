"""ctkernel benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload eval-spine --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each workload runs closed loop (one
client, one operation at a time) in fresh interpreters started from this
one: ``SETUP_RUNS - 1`` of them only set up, so that ``setup_s`` is a
median, and the last one also measures.  Every output is checked against
an independent reference (``reference.py``).  The human-readable report
goes to standard output, and its last line is the JSON result:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload in turn and prints
one report each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("eval-spine", "check-batch", "rule-lab", "cli-session")
SETUP_RUNS = 11
RUN_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_ops_ratio": "ratio",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def start_worker(args, mode: str) -> dict:
    """Run one worker to completion and return its JSON summary.  The
    worker measures its own set-up time from the wall-clock instant
    stamped here, just before the process is started."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode, "--started", repr(time.time())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = output.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args) -> dict:
    setups = [start_worker(args, "setup")["setup_s"]
              for _ in range(0 if args.trace else SETUP_RUNS - 1)]
    summary = start_worker(args, "measure")
    setups.append(summary["setup_s"])
    summary["setup_s"] = statistics.median(setups)
    summary["setup_samples"] = setups
    summary["ok_ops_ratio"] = 1.0 - summary["failed_ops_ratio"]
    return summary


def report(args, summary: dict) -> dict:
    print(f"== {args.workload}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}")
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  commit {commit()}")
    print(f"operations {summary['attempted']} in {summary['passes']} passes, "
          f"failed {summary['failed']} {summary['failures']}")
    for reason in summary["unexpected"]:
        print(f"  unexpected failure: {reason}")
    print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in summary['setup_samples'])}")
    print(f"latency_tail_ms is p{summary['tail_percentile']:g}, fixed for {args.workload}, of "
          f"{summary['tail_samples']} completed operations "
          f"(at least {summary['tail_samples_needed']} needed)")
    print(f"failed_ops_ratio {summary['failed_ops_ratio']:.6f} ratio")
    if args.trace:
        metrics = summary["layers"]
        print(f"tracing overhead: untraced {summary['untraced_throughput_ops_s']:.3f} ops/s, "
              f"traced {summary['throughput_ops_s']:.3f} ops/s")
    else:
        metrics = {name: (summary[name], unit) for name, unit in END_TO_END.items()}
    for name, (value, unit, *_) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": not summary["unexpected"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "ctkernel", "__init__.py")):
        print(f"no ctkernel sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            result = report(args, run_workload(args))
        except (BenchError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
