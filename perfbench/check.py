"""Correctness pass, run apart from the timed walks.

    python3 perfbench/check.py WORKLOAD SEED K

walks input ``K`` of the run with that seed again, in a process of its own,
screened and under the tracer (for its counts only), and prints the
outcome as one JSON line (:func:`check_walk`). :func:`judge` then holds it
against the timed walk of the same input.

Screened workloads keep the weights (``keep_weights=True``) and require
every level's re-embedded weights to meet the full-problem certificate
``kkt_residual(ds, W, lam) <= KKT_TOL + KKT_SLACK``. The check walk must
also reproduce the timed walk level by level (status, iterations, screened
and inactive counts, objective bits), which shows that the CSV the timed
process loaded held the same data.

The unscreened workload compares each level's objective from the timed walk
with the screened check walk, to ``OBJ_RTOL`` relative.
"""

from __future__ import annotations

import env  # noqa: F401  (pins BLAS threads before numpy loads)

import dataclasses
import json
import math
import sys

import mtl21
from spans import Tracer
from workloads import KKT_TOL, WORKLOADS, level_key, make_dataset, walk

# The solver certifies the reduced problem to KKT_TOL; recomputing the
# certificate on the full matrices rounds differently (values as high as
# 0.9998e-6 have been seen against the 1e-6 tolerance), so allow rounding
# far above float64 error and far below the tolerance itself.
KKT_SLACK = 1e-9
OBJ_RTOL = 1e-6


def check_walk(workload, seed, k):
    """Screened walk of input ``k``; per level ``[key, kkt_residual or None]``."""
    wl = WORKLOADS[workload]
    ds = make_dataset(wl, seed, k)
    with Tracer() as tr:
        records = walk(dataclasses.replace(wl, screen=True), ds, keep_weights=wl.screen)
    levels = []
    for rec in records:
        kkt = None
        if wl.screen and rec.status == "ok":
            kkt = mtl21.kkt_residual(ds, rec.weights, rec.lam)
        levels.append([level_key(rec), kkt])
    return {"levels": levels, "counts": dict(tr.counts)}


def judge(wl, checked, timed_keys):
    """``(failed, problems, kkt_max)`` over the ``wl.levels`` levels of one input.

    A level fails when the check walk gives it a non-ok status or it fails a
    check; levels the walk never reached after an abort fail too.
    """
    problems = []
    failed = wl.levels - len(checked["levels"])
    worst = 0.0
    for i, (key, kkt) in enumerate(checked["levels"]):
        timed = tuple(timed_keys[i]) if i < len(timed_keys) else None
        bad = key[0] != "ok"
        if not bad and wl.screen:
            worst = max(worst, kkt)
            if not kkt <= KKT_TOL + KKT_SLACK:
                bad = True
                problems.append(f"level {i}: full-problem KKT residual {kkt:.3e}")
            if tuple(key) != timed:
                bad = True
                problems.append(f"level {i}: check walk differs from the timed walk")
        elif not bad:
            a = float.fromhex(key[4])
            b = float.fromhex(timed[4]) if timed else math.nan
            if not abs(a - b) <= OBJ_RTOL * max(abs(a), abs(b)):
                bad = True
                problems.append(f"level {i}: objective {b!r} unscreened vs {a!r} screened")
        failed += bad
    return failed, problems, worst


if __name__ == "__main__":
    workload, seed, k = sys.argv[1:]
    print(json.dumps(check_walk(workload, int(seed), int(k))))
