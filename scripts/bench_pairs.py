#!/usr/bin/env python3
"""Paired benchmark runs of a change against its parent, written to
``BENCH_<pr>.json``.

    python3 scripts/bench_pairs.py --pr N [--base REV]

The change is the working tree of this checkout: its tracked files and
its new files that git does not ignore, uncommitted edits included; the
parent is the commit ``--base`` (default ``HEAD``, so that uncommitted
work is measured against the last commit; pass ``HEAD~1`` once the
change is committed).  Both sides are exported into sibling
directories, ``parent`` (with ``git archive``) and ``change``, of one
temporary directory, removed at exit, so that neither side runs from
a different kind of location: the location alone moves ``peak_rss_mb``
by about 0.1 MB.

For each workload of ``BENCHMARK.json``, pair k of ``PAIRS`` runs
``perfbench/run.py --workload W --seed SEED+k --seconds T --trace 0``,
unchanged, from the root of each side, with T the benchmark's
``run_seconds``, the parent first in even pairs and the change first in
odd ones.  Every run has ``PYTHONDONTWRITEBYTECODE=1`` and starts with
no ``__pycache__`` under its side's ``src`` and ``perfbench``: a side
with a bytecode cache starts each ``ctk`` call about 30 ms sooner.  A run that exits non-zero
or reports ``correct: false`` stops the script with exit status 1.

For each end-to-end metric of ``BENCHMARK.json`` the file, written at
the root of this checkout, records each side's runs, median and
quartiles, the pairs the change won and lost, and a verdict by ``RULE``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
SEED = 101  # the seed of the first pair
# the pairs a side must win for its metric to read better
WINS_NEEDED = 9
RULE = ("better (worse): the change wins (loses) at least 9 in 10 pairs, ties counting "
        "for neither side, and the medians differ by more than the parent's interquartile "
        "range; otherwise unchanged when the gap between the medians and the parent's "
        "interquartile range are both within the metric's bound times the parent's "
        "median; otherwise unresolved")


def summary(values: list) -> dict:
    """Median and quartiles (``statistics.quantiles``, inclusive) of
    ``values``, with the values themselves."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Compare the paired runs of one metric, ``parent[k]`` against
    ``change[k]``, by ``RULE``; ``bound`` is the metric's bound in
    ``BENCHMARK.json``."""
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    gap = sign * (c["median"] - p["median"])
    spread = p["q3"] - p["q1"]
    if won >= WINS_NEEDED and gap > spread:
        outcome = "better"
    elif lost >= WINS_NEEDED and -gap > spread:
        outcome = "worse"
    elif max(abs(gap), spread) <= bound * abs(p["median"]):
        outcome = "unchanged"
    else:
        outcome = "unresolved"
    return {"parent": p, "change": c, "won": won, "lost": lost, "verdict": outcome}


def git(*args: str) -> str:
    out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


def export(rev: str, into: Path, root: Path = ROOT) -> None:
    """The files of commit ``rev`` of the checkout ``root``, written under
    ``into``."""
    archive = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def snapshot(into: Path, root: Path = ROOT) -> None:
    """The working tree of the checkout ``root``, as it stands, copied
    under ``into``: each tracked file that is still there and each new
    file that git does not ignore."""
    names = subprocess.run(["git", "-C", str(root), "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], capture_output=True, check=True).stdout
    for name in filter(None, names.split(b"\0")):
        source = root / os.fsdecode(name)
        if source.is_file():
            target = into / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_once(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one ``perfbench/run.py`` run in ``side``."""
    for part in ("src", "perfbench"):
        for cache in (side / part).rglob("__pycache__"):
            shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=side, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} in {side}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} in {side}: correct is false\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--base", default="HEAD")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    seeds = [SEED + k for k in range(PAIRS)]
    report = {
        "pr": args.pr,
        "parent": {"commit": git("rev-parse", f"{args.base}^{{commit}}")},
        "change": {"commit": git("rev-parse", "HEAD"), "uncommitted_changes":
                   bool(git("status", "--porcelain"))},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "seeds": seeds,
        "first": ["parent" if k % 2 == 0 else "change" for k in range(PAIRS)],
        "rule": RULE,
        "workloads": {},
    }
    # stopped by SIGTERM, the script still removes its temporary directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        export(args.base, roots["parent"])
        snapshot(roots["change"])
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for k, seed in enumerate(seeds):
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    runs[side].append(run_once(roots[side], workload, seed, seconds))
                    print(f"{workload} pair {k + 1}/{PAIRS} {side}: "
                          f"{runs[side][-1]}", file=sys.stderr, flush=True)
            report["workloads"][workload] = {
                m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                            **verdict([r[m["name"]] for r in runs["parent"]],
                                      [r[m["name"]] for r in runs["change"]],
                                      m["better"], m["bound"])}
                for m in bench["end_to_end"]}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for workload, metrics in report["workloads"].items():
        for name, m in metrics.items():
            print(f"{workload:12} {name:17} parent {m['parent']['median']:.6g} "
                  f"change {m['change']['median']:.6g} won {m['won']}/{PAIRS} "
                  f"{m['verdict']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
