"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Feeds every reference check a deliberately wrong kernel output and
   requires a failure, and a right one and requires a pass.
2. Runs every workload briefly on a fixed seed, untraced and traced, and
   requires exactly the metrics that BENCHMARK.json names, as finite
   numbers, with ``correct`` true.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files, and requires a non-zero exit without a result.
4. Checks that each workload's tail percentile has ten operations beyond
   it once a run has the operations it waits for, and the smoothing band.
5. Checks that check-batch's set checks, which hold its known failures,
   are the same on every seed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import reference as ref  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ctkernel import evaluation  # noqa: E402
from ctkernel.judgments import Status, Verdict  # noqa: E402
from ctkernel.terms import IT, Inl, Pair  # noqa: E402

SEED = 0


def expect(outcome, failed: bool, known=None, what="") -> None:
    if bool(outcome.failure) != failed or outcome.known != known:
        raise AssertionError(f"{what}: got {outcome}, wanted failed={failed} known={known}")


def check_eval_spine() -> None:
    wl = workloads.EvalSpine()
    pool = wl.build(SEED)
    shallow = next(op for op in pool if op.kind == "proj" and op.meta["head"] < 100)
    deep = next(op for op in pool if op.kind == "beta" and op.meta["head"] > 1000)
    right = wl.execute(shallow)
    expect(wl.check(shallow, right, None), False, what="right eval")
    wrong_steps = evaluation.Canonical(right.term, right.form, right.steps + 1)
    expect(wl.check(shallow, wrong_steps, None), True, what="wrong step count")
    other = Inl(IT) if shallow.expect[1] == ("pair", ref.IT, ref.IT) else Pair(IT, IT)
    wrong_value = evaluation.Canonical(other, right.form, right.steps)
    expect(wl.check(shallow, wrong_value, None), True, what="wrong value")
    expect(wl.check(shallow, evaluation.FuelExhausted("x"), None), True, what="fuel for canonical")
    expect(wl.check(shallow, None, RecursionError()), True, what="shallow recursion")
    expect(wl.check(deep, None, RecursionError()), True, "deep-head-recursion", "deep recursion")


def check_check_batch() -> None:
    wl = workloads.CheckBatch()
    pool = wl.build(SEED)
    for kind in ("member", "cross", "is_set", "eq_set", "diagonal"):
        op = next(o for o in pool if o.kind == kind and wl.reference(o) is not None
                  and not (kind == "eq_set" and ref.empty_mismatch(*o.expect)))
        right = Status.VERIFIED if wl.reference(op) else Status.REFUTED
        wrong = Status.REFUTED if right is Status.VERIFIED else Status.VERIFIED
        partner = op.meta.get("partner")
        if partner is not None:
            partner.meta["status"] = right.value
        expect(wl.check(op, Verdict(right), None), False, what=f"right {kind}")
        expect(wl.check(op, Verdict(wrong), None), True, what=f"wrong {kind}")
        expect(wl.check(op, None, ValueError("boom")), True, what=f"{kind} exception")
    member = next(o for o in pool if o.kind == "member" and "partner" in o.meta
                  and wl.reference(o) is None)
    member.meta["partner"].meta["status"] = "verified"
    expect(wl.check(member, Verdict(Status.REFUTED), None), True, what="unary/diagonal bridge")


def check_rule_lab() -> None:
    wl = workloads.RuleLab()
    for op in wl.build(SEED):
        derivable, admissible = op.expect
        status = "verified" if admissible else "refuted"
        flipped = "refuted" if admissible else "verified"
        report = SimpleNamespace(derivable=derivable,
                                 admissibility=SimpleNamespace(status=Status(status)))
        expect(wl.check(op, report, None), False, what="right rule")
        report.derivable = not derivable
        expect(wl.check(op, report, None), True, what="wrong derivability")
        report.derivable = derivable
        report.admissibility.status = Status(flipped)
        expect(wl.check(op, report, None), True, what="wrong admissibility")


def check_cli_session() -> None:
    wl = workloads.CliSession()
    wl.workdir = os.path.join(ROOT, ".perfbench_tmp", f"selftest-{os.getpid()}")
    os.makedirs(wl.workdir, exist_ok=True)
    try:
        pool = wl.build(SEED)
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
    kripke = next(op for op in pool if op.kind == "kripke")
    verdict = "pass" if kripke.expect else "counterexample"
    code = 0 if kripke.expect else 4
    doc = json.dumps({"verdict": verdict})
    expect(wl.check(kripke, (code, doc, ""), None), False, what="right kripke")
    other = json.dumps({"verdict": "counterexample" if kripke.expect else "pass"})
    expect(wl.check(kripke, (4 - code, other, ""), None), True, what="wrong kripke")
    traceback = "Traceback (most recent call last):\n  ...\nKeyError: 1\n"
    expect(wl.check(kripke, (1, "", traceback), None), True, what="traceback")
    rule_file = next(op for op in pool if op.kind == "rule-file")
    reports = [{"derivable": d, "admissible": "verified" if a else "refuted"}
               for d, a in rule_file.expect]
    worst = "refuted" if any(r["admissible"] == "refuted" for r in reports) else "verified"
    doc = json.dumps({"verdict": worst, "trace": reports})
    expect(wl.check(rule_file, (workloads.EXIT[worst], doc, ""), None), False,
           what="right rule file")
    expect(wl.check(rule_file, (5, json.dumps({"verdict": "unknown", "trace": reports}), ""), None),
           True, "rule-file-ordering", "rule file ordering")
    stuck = next(op for op in pool if op.kind == "eval" and op.expect == ("stuck",))
    expect(wl.check(stuck, (3, "", ""), None), False, what="right stuck eval")
    expect(wl.check(stuck, (0, "", ""), None), True, what="wrong stuck eval")


def check_tail_rule() -> None:
    """Each workload's tail percentile keeps ten operations beyond it."""
    for p, n in ((75.0, 40), (90.0, 100), (99.0, 1000)):
        if worker.tail_samples_needed(p) != n:
            raise AssertionError(f"p{p:g} needs {worker.tail_samples_needed(p)}, not {n}")
    for make in workloads.WORKLOADS.values():
        ordered = list(range(worker.tail_samples_needed(make.tail_percentile)))
        rank = ordered.index(worker.percentile(ordered, make.tail_percentile))
        if len(ordered) - 1 - rank < worker.MIN_BEYOND:
            raise AssertionError(f"{make.name}: too few beyond p{make.tail_percentile:g}")
    ranks = list(range(1, 101))
    for p, want in ((50.0, 50.0), (90.0, 90.0), (99.0, 99.5), (75.0, 75.0)):
        if worker.smoothed(ranks, p) != want:
            raise AssertionError(f"smoothed p{p:g} of 1..100 is {worker.smoothed(ranks, p)}")
    if worker.smoothed([1.0, 2.0, math.inf, math.inf], 50.0) != math.inf:
        raise AssertionError("a band reaching a failed operation must be +inf")


def check_fixed_set_checks() -> None:
    """The known failures of check-batch come from its set checks; with
    the same set checks on every seed, every run fails the same share."""
    wl = workloads.CheckBatch()

    def set_checks(seed):
        return sorted(repr(op.expect) for op in wl.build(seed) if op.kind in ("is_set", "eq_set"))

    if set_checks(SEED) != set_checks(SEED + 1):
        raise AssertionError("check-batch's set checks depend on the seed")


def run_benchmark(cwd: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_emission() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(ROOT, workload, trace)
            if proc.returncode != 0:
                raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}: "
                                     f"{proc.stderr[-400:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                raise AssertionError(f"{workload} trace {trace}: metrics differ: "
                                     f"{sorted(set(got) ^ set(want))}")
            if not result["correct"] or result["attempted"] < 1:
                raise AssertionError(f"{workload} trace {trace}: {proc.stdout[-800:]}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    raise AssertionError(f"{workload}: {name} is {m['value']!r}")
            print(f"ok  {workload} trace {trace}: {len(got)} metrics", flush=True)


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench_tmp", f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(bare, "eval-spine", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("the benchmark ran without the program's sources")


def main() -> int:
    workloads.check_pinned_rules()
    for check in (check_eval_spine, check_check_batch, check_rule_lab, check_cli_session):
        check()
        print(f"ok  {check.__name__}: wrong outputs are flagged", flush=True)
    check_tail_rule()
    print("ok  every tail percentile has ten operations beyond it", flush=True)
    check_fixed_set_checks()
    print("ok  check-batch runs the same set checks on every seed", flush=True)
    check_bare_directory()
    print("ok  without sources the benchmark exits non-zero", flush=True)
    check_emission()
    return 0


if __name__ == "__main__":
    sys.exit(main())
