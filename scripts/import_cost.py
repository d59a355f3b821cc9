#!/usr/bin/env python3
"""Import cost of each ctk command, from ``python -X importtime``.

Runs ``python -m ctkernel <command> <fixed arguments>`` in N fresh
interpreters per command, with this checkout's ``src`` on the path, and
prints, per command, the median time spent importing ctkernel modules
(with whatever they import in turn) and, per ctkernel module, the median
self and cumulative import time in ms, slowest self time first.  Modules
a command loads lazily, while it runs, are counted with it.

Every interpreter reads and writes bytecode only under a private
``-X pycache_prefix`` directory, never under ``src/ctkernel/__pycache__``.
One unmeasured run fills that directory; then ``--cache none`` (the
default) deletes this checkout's part of it, so that every measured run
compiles the ctkernel modules from source, as a call does where no
bytecode can be written, while the standard library stays cached.
``--cache warm`` keeps it, so the measured runs load ctkernel bytecode.

    python3 scripts/import_cost.py [--command C] [--cache none|warm] [--runs N]
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODEL = "world u\nworld v\norder u v\natom A\natom B\nverify v A t0\n"
COMMANDS = {
    "eval": ["eval", "fst <it, it>"],
    "check": ["check", "lam x. <it, it>", "in", "False => True"],
    "enum": ["enum", "True \\/ True"],
    "rule": ["rule", "P /\\ Q true |- P true"],
    "kripke": ["kripke", "{model}", "--judgment", "hyp A B", "--check-monotone"],
}


def one_run(argv: list, prefix: str, write: bool) -> tuple:
    """(total us, {module: (self us, cumulative us)}) for one interpreter;
    the total is the cumulative time of the ctkernel imports made at top
    level, so a module imported inside another is counted once."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    flags = ["-X", "importtime", "-X", f"pycache_prefix={prefix}"] + ([] if write else ["-B"])
    proc = subprocess.run([sys.executable, *flags, "-m", "ctkernel", *argv],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"ctk {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    total, modules = 0, {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[2].strip()
        if name.split(".")[0] != "ctkernel" or not fields[0].strip().isdigit():
            continue
        modules[name] = (int(fields[0]), int(fields[1]))
        if fields[2].startswith(" ") and not fields[2].startswith("  "):
            total += int(fields[1])
    return total, modules


def measure(argv: list, runs: int, cache: str, tmp: str) -> tuple:
    prefix = tempfile.mkdtemp(dir=tmp)
    one_run(argv, prefix, write=True)
    if cache == "none":
        shutil.rmtree(Path(prefix, *SRC.parts[1:]), ignore_errors=True)
    totals, samples = [], defaultdict(list)
    for _ in range(runs):
        total, modules = one_run(argv, prefix, write=False)
        totals.append(total)
        for name, times in modules.items():
            samples[name].append(times)
    rows = sorted(
        ((name, statistics.median(s for s, _ in times), statistics.median(c for _, c in times))
         for name, times in samples.items()),
        key=lambda row: -row[1],
    )
    return statistics.median(totals), rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--command", choices=COMMANDS, help="command to time (default: all five)")
    ap.add_argument("--cache", choices=("none", "warm"), default="none",
                    help="ctkernel bytecode in the measured runs (default none)")
    ap.add_argument("--runs", type=int, default=9, help="measured interpreters (default 9)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be >= 1")
    print(f"ctkernel import per ctk command, median of {args.runs} runs, "
          f"bytecode cache {args.cache} (Python {sys.version.split()[0]})")
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp, "model.txt")
        model.write_text(MODEL, encoding="utf-8")
        for command in [args.command] if args.command else COMMANDS:
            cmd_argv = [a.format(model=model) for a in COMMANDS[command]]
            total, rows = measure(cmd_argv, args.runs, args.cache, tmp)
            print(f"\n{command}: {total / 1000:.1f} ms")
            print(f"{'module':<24} {'self ms':>8} {'cumul. ms':>10}")
            for name, self_us, cumulative_us in rows:
                print(f"{name:<24} {self_us / 1000:>8.1f} {cumulative_us / 1000:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
