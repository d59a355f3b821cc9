#!/usr/bin/env python3
"""Digest of the kernel's verdicts, to show that a change keeps them.

Prints one sha256 per section over the status, bound, fuel report, pair,
instance and trace JSON of every verdict in it (for enumerations: the
witnesses, the completeness flag and the failure), then one over all
sections.  The sections:

* ``check_member`` and the diagonal ``check_eq_member`` over the pools
  of acceptance criteria 5 (seed 2026, 1000 checks) and 9 (seed 501,
  500 checks);
* ``check_eq_set`` in both orders on 200 seeded pairs of the pools' types;
* ``check_is_set`` and ``enumerate_canonical`` at depths 1-3 on each
  of those types;
* ``check_functionality`` on every pool check whose type is a ``forall``.

Run it on two checkouts and compare the output; ``--records`` prints a
short hash per verdict instead, so that ``diff`` counts the verdicts that
changed.  The output does not depend on ``PYTHONHASHSEED``.

    PYTHONPATH=src python scripts/verdict_digest.py [--records]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from ctkernel.binary import check_eq_member, check_eq_set, check_functionality  # noqa: E402
from ctkernel.terms import Forall, term_key  # noqa: E402
from ctkernel.unary import check_is_set, check_member, enumerate_canonical  # noqa: E402
from termgen import generated_checks  # noqa: E402

POOLS = {"c5": (2026, 1000), "c9": (501, 500)}
EQ_SET_PAIRS = 200


def verdict_record(v) -> list:
    return [v.status.value, v.bound, v.fuel_report, repr(v.pair), repr(v.instance),
            v.trace.to_json()]


def enum_record(r) -> list:
    failure = None if r.failure is None else verdict_record(r.failure)
    return [[repr(w) for w in r.witnesses], r.complete, failure]


def sections():
    """Yield (section, status or outcome, record) for every check."""
    pools = {name: generated_checks(seed=seed, count=count)
             for name, (seed, count) in POOLS.items()}
    for name, pairs in pools.items():
        for m, ty in pairs:
            v = check_member(m, ty)
            yield f"check_member/{name}", v.status.value, verdict_record(v)
        for m, ty in pairs:
            v = check_eq_member(m, m, ty)
            yield f"check_eq_member/{name}", v.status.value, verdict_record(v)
    types = sorted({term_key(ty): ty for pairs in pools.values() for _, ty in pairs}.items())
    types = [ty for _, ty in types]
    rng = random.Random(7)
    for _ in range(EQ_SET_PAIRS):
        a, b = rng.choice(types), rng.choice(types)
        for x, y in ((a, b), (b, a)):
            v = check_eq_set(x, y)
            yield "check_eq_set", v.status.value, verdict_record(v)
    for ty in types:
        v = check_is_set(ty)
        yield "check_is_set", v.status.value, verdict_record(v)
    for depth in (1, 2, 3):
        for ty in types:
            r = enumerate_canonical(ty, depth)
            outcome = "failed" if r.failure else "complete" if r.complete else "incomplete"
            yield f"enumerate_canonical/{depth}", outcome, enum_record(r)
    for name, pairs in pools.items():
        for m, ty in pairs:
            if isinstance(ty, Forall):
                v = check_functionality(m, ty.domain, ty.binder, ty.family)
                yield f"check_functionality/{name}", v.status.value, verdict_record(v)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--records", action="store_true",
                    help="print a short hash per verdict instead of the section digests")
    args = ap.parse_args()
    digests, counts, outcomes = {}, Counter(), {}
    total = hashlib.sha256()
    for section, outcome, record in sections():
        data = json.dumps(record, sort_keys=True).encode()
        if args.records:
            print(f"{section} {counts[section]} {hashlib.sha256(data).hexdigest()[:16]}")
        digests.setdefault(section, hashlib.sha256()).update(data)
        total.update(data)
        counts[section] += 1
        outcomes.setdefault(section, Counter())[outcome] += 1
    if args.records:
        return
    for section, h in digests.items():
        tally = ", ".join(f"{k} {n}" for k, n in sorted(outcomes[section].items()))
        print(f"{section:28} {counts[section]:5}  {h.hexdigest()[:24]}  ({tally})")
    print(f"{'all':28} {sum(counts.values()):5}  {total.hexdigest()[:24]}")


if __name__ == "__main__":
    main()
