"""One workload run in a fresh interpreter.

Started by ``run.py``.  Imports ctkernel from the checkout's ``src``,
builds the seeded input pool and warms up on inputs from another seed;
that is its set-up.  In ``--mode setup`` it then prints the set-up time
and exits.  In ``--mode measure`` it replays the pool in whole passes,
closed loop, until ``--seconds`` have elapsed and prints one JSON
summary as its last line.  With ``--trace 1`` the first half of the time
runs untraced and the second half under the tracer, which gives the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from contextlib import redirect_stderr

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_BEYOND = 10
# a run whose tail percentile still lacks MIN_BEYOND completed operations
# beyond it at the deadline goes on for at most this much longer
EXTEND_S = 60.0


def percentile(ordered: list, p: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def band_width(p: float) -> float:
    """Half the width of the band that smooths percentile p: ten points
    at the median, half the distance to the top in the tail."""
    return min(10.0, (100.0 - p) / 2)


def smoothed(ordered: list, p: float) -> float:
    """Percentile p of a sorted list, smoothed: the mean of the samples
    from the nearest-rank percentile p - w to p + w (``band_width``).

    Where operations of different cost sit next to each other in rank,
    a single order statistic jumps between them from run to run; the
    mean over the band moves with them smoothly.  On rule-lab this
    halved the run-to-run noise of p50 relative to each run's mean
    latency."""
    w = band_width(p)
    lo = ordered.index(percentile(ordered, p - w))
    hi = len(ordered) - 1 - ordered[::-1].index(percentile(ordered, p + w))
    return math.fsum(ordered[lo:hi + 1]) / (hi + 1 - lo)


def tail_samples_needed(p: float) -> int:
    """The fewest completed operations with MIN_BEYOND of them beyond the
    nearest-rank percentile p."""
    n = MIN_BEYOND
    while n - math.ceil(p / 100 * n) < MIN_BEYOND:
        n += 1
    return n


OK, UNDECIDED, FAILED = 0, 1, 2


def measure(workload, pool, seconds: float, tracer=None, min_ok: int = 0) -> dict:
    """Replay the pool in whole passes until ``seconds`` have elapsed and
    at least ``min_ok`` operations have completed, or EXTEND_S more.

    Per operation only a float and a one-byte outcome code are kept, so
    the benchmark's own records barely show in the peak memory."""
    from workloads import fail

    latencies, codes, passes = array("d"), array("b"), []
    failures, unexpected = Counter(), []
    reset = getattr(workload, "reset", None)
    deadline = time.perf_counter() + seconds
    ok = 0
    while True:
        passes.append(len(codes))
        for op in pool:
            if tracer is not None:
                tracer.op += 1
            if reset is not None:
                reset()  # untimed
            start = time.perf_counter()
            try:
                out, exc = workload.execute(op), None
            except Exception as error:  # a crash is a measured outcome
                out, exc = None, error
            latencies.append(time.perf_counter() - start)
            try:
                outcome = workload.check(op, out, exc)
            except Exception as error:
                outcome = fail(f"reference check raised {error!r}")
            if outcome.failure:
                codes.append(FAILED)
                failures[outcome.known or "unexpected"] += 1
                if not outcome.known and len(unexpected) < 5:
                    unexpected.append(outcome.failure)
            else:
                codes.append(OK if outcome.decided else UNDECIDED)
                ok += 1
        now = time.perf_counter()
        if now >= deadline and (ok >= min_ok or now >= deadline + EXTEND_S):
            break
    return {"latencies": latencies, "codes": codes, "passes": passes, "window": seconds,
            "failures": dict(failures), "unexpected": unexpected}


def summarise(run: dict, workload) -> dict:
    latencies, codes = run["latencies"], run["codes"]
    attempted = len(codes)
    failed = codes.count(FAILED)
    ok = sorted(t for t, c in zip(latencies, codes) if c != FAILED)
    # a failed operation misses every latency limit, so it ranks as +inf;
    # if the median's band reaches one, the whole window stands in as a
    # finite lower bound
    p50 = smoothed(ok + [math.inf] * failed, 50.0)
    # one fixed percentile per workload; None when too few operations
    # completed to have MIN_BEYOND of them beyond it
    tail_p = workload.tail_percentile
    tail_ms = 1e3 * smoothed(ok, tail_p) if len(ok) >= tail_samples_needed(tail_p) else None
    return {
        "attempted": attempted,
        "failed": failed,
        "unexpected": run["unexpected"],
        "failures": run["failures"],
        "passes": len(run["passes"]),
        "tail_percentile": tail_p,
        "tail_samples": len(ok),
        "tail_samples_needed": tail_samples_needed(tail_p),
        "throughput_ops_s": len(ok) / sum(latencies),
        "latency_p50_ms": 1e3 * (run["window"] if math.isinf(p50) else p50),
        "latency_tail_ms": tail_ms,
        "failed_ops_ratio": failed / attempted,
        "decided_ratio": codes.count(OK) / attempted,
    }


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF
    if workload.name == "cli-session":
        # the work happens in the ctk processes this one starts
        who = resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024


def start_times(runs: int = 5) -> tuple:
    """Median wall time of a bare interpreter and of one importing ctkernel."""
    env = dict(os.environ, PYTHONPATH=SRC)
    bare, imported = [], []
    for _ in range(runs):
        for code, sink in (("pass", bare), ("import ctkernel", imported)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            sink.append(time.perf_counter() - start)
    return statistics.median(bare), statistics.median(imported)


def probe(workdir: str) -> None:
    """The same small tour of every layer at the end of each traced run,
    so every per-layer metric has samples whatever the workload."""
    from ctkernel import binary, cli, evaluation, unary
    from ctkernel.terms import Forall, TTrue
    from workloads import FUEL, proj_spine

    model = os.path.join(workdir, "probe-model.txt")
    with open(model, "w", encoding="utf-8") as fh:
        fh.write("world u\nworld v\norder u v\natom A\natom B\nverify v A t0\n")
    argvs = [
        ["eval", "fst <it, it>", "--machine"],
        ["check", "lam x. <it, it>", "in", "False => True"],
        ["check", "--binary", "lam x. x", ":", "lam y. y", "in", "True => True", "--machine"],
        ["enum", "True \\/ True"],
        ["rule", "P /\\ P true |- P true"],
        ["kripke", model, "--judgment", "hyp A B", "--check-monotone"],
    ]
    with redirect_stderr(io.StringIO()):
        for argv in argvs:
            cli.main(argv, out=io.StringIO())
    unary.check_is_set(Forall(TTrue(), "_", TTrue()))
    binary.check_eq_set(TTrue(), TTrue())
    rng = random.Random(0)
    for n in (60, 450):
        evaluation.evaluate(proj_spine(rng, n)[0], FUEL)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    parser.add_argument("--started", type=float, default=time.time(),
                        help="wall-clock time at which the parent started this process")
    args = parser.parse_args()

    sys.path[:0] = [SRC, HERE]
    import ctkernel
    if not os.path.abspath(ctkernel.__file__).startswith(SRC + os.sep):
        print(f"ctkernel imported from {ctkernel.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        workload.workdir, workload.src = workdir, SRC
        pool = workload.build(args.seed)
        warm = measure(workload, workload.warmup(args.seed), 0.0)
        # keep the collector from re-scanning the benchmark's own input pool
        gc.collect()
        gc.freeze()
        setup_s = time.time() - args.started
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if not args.trace:
            run = measure(workload, pool, args.seconds,
                          min_ok=tail_samples_needed(workload.tail_percentile))
            rss = peak_rss_mb(workload)  # before summarising allocates
            result = summarise(run, workload)
            result["peak_rss_mb"] = rss
            if result["latency_tail_ms"] is None:
                print(f"only {result['tail_samples']} operations completed in "
                      f"{args.seconds + EXTEND_S:g} s; p{workload.tail_percentile:g} "
                      f"needs {result['tail_samples_needed']}", file=sys.stderr)
                return 3
        else:
            result = traced(workload, pool, args, workdir)
        result["unexpected"] = warm["unexpected"] + result["unexpected"]
        result["setup_s"] = setup_s
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced(workload, pool, args, workdir) -> dict:
    import tracer as tracing

    workload.in_process = True
    half = args.seconds / 2
    plain = summarise(measure(workload, pool, half), workload)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run = measure(workload, pool, half, tracer)
        probe(workdir)
    finally:
        tracer.uninstall()
    under = summarise(run, workload)
    metrics = tracer.metrics(len(run["codes"]))
    bare, imported = start_times()
    metrics["cli.interpreter_start_ms"] = (1e3 * bare, "ms", "lower")
    metrics["cli.import_ms"] = (1e3 * (imported - bare), "ms", "lower")
    metrics["trace.overhead_ratio"] = (
        plain["throughput_ops_s"] / under["throughput_ops_s"]
        if under["throughput_ops_s"] else 0.0, "ratio", "lower")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    under["layers"] = metrics
    under["untraced_throughput_ops_s"] = plain["throughput_ops_s"]
    for key in ("attempted", "failed", "passes", "unexpected"):
        under[key] += plain[key]
    for key, count in plain["failures"].items():
        under["failures"][key] = under["failures"].get(key, 0) + count
    return under


if __name__ == "__main__":
    sys.exit(main())
