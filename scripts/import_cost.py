#!/usr/bin/env python3
"""Import cost of each ctkernel module, from ``python -X importtime``.

Runs ``import ctkernel.cli`` in N fresh interpreters (after one unmeasured
run that writes the bytecode caches) with this checkout's ``src`` on the
path, and prints, per ctkernel module, the median self and cumulative
import time in ms, slowest self time first.  The ``ctkernel`` row's
cumulative time is the whole package.

    python3 scripts/import_cost.py [--runs N]
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def one_run() -> dict:
    """Module name -> (self us, cumulative us) for one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ctkernel.cli"],
        env=env, capture_output=True, text=True, check=True,
    )
    out = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[2].strip()
        if name.split(".")[0] == "ctkernel" and fields[0].strip().isdigit():
            out[name] = (int(fields[0]), int(fields[1]))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=9, help="measured interpreters (default 9)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be >= 1")
    one_run()
    samples = defaultdict(list)
    for _ in range(args.runs):
        for name, times in one_run().items():
            samples[name].append(times)
    rows = sorted(
        ((name, statistics.median(s for s, _ in times), statistics.median(c for _, c in times))
         for name, times in samples.items()),
        key=lambda row: -row[1],
    )
    print(f"import ctkernel.cli, median of {args.runs} runs (Python {sys.version.split()[0]})")
    print(f"{'module':<24} {'self ms':>8} {'cumul. ms':>10}")
    for name, self_us, cumulative_us in rows:
        print(f"{name:<24} {self_us / 1000:>8.1f} {cumulative_us / 1000:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
