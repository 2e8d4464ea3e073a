"""Workload table, input generation and the path walk the benchmark times.

Every workload fits 10 tasks at ``kkt_tol`` 1e-6. A run generates
``datasets`` inputs from its seed and walks each; more than one input
averages out how much the solver's work varies from draw to draw. The walk
makes the same public calls as ``mtl21 path`` (``lambda_max``,
``LambdaGrid.log_spaced``, then ``sequential_path`` or ``unscreened_path``
with a ``SolverConfig``) and never passes a custom solver callable.

Why these workloads:

- ``wide``: s1, n=30, d=20000, screened walk over 100 levels down to
  0.01 of the threshold. About 250 of 20000 features survive screening, so
  the full-width work done at every level (scores, objective, reference,
  feasibility check) is about a third of the walk, and the 120 MB of CSV
  stresses load time and memory.
- ``plain``: s1, n=30, d=1000, unscreened walk over 50 levels down to 0.05,
  three inputs per run. ``fit`` runs on full-width problems; this is the
  no-screening baseline and the no-change workload for any dual, qp1qc or
  screening change.

``uneven-s2`` runs by hand only; BENCHMARK.json leaves it out because its
path time spread too much from run to run (see README.md). It is s2 (AR(1)
columns), d=2000, screened walk over 100 levels down to 0.01, three inputs
per run. The tasks keep the first 15 to 30 rows of an n=30 draw (the same
ten sizes in every input, dealt to the tasks by a seeded shuffle), so
``fit`` takes the per-task loop instead of the stacked path; correlated
columns make ``fit`` about 95% of the walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import mtl21
from mtl21.synth import SynthConfig, generate

TASKS = 10
KKT_TOL = 1e-6
# the ``mtl21 path`` default
MAX_ITERS = 20000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # synthetic design, "s1" or "s2"
    d: int
    levels: int
    min_ratio: float
    screen: bool
    uneven: bool  # per-task row counts UNEVEN_ROWS instead of all 30
    datasets: int  # inputs per run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide", "s1", 20000, 100, 0.01, True, False, 1),
        Workload("uneven-s2", "s2", 2000, 100, 0.01, True, True, 3),
        Workload("plain", "s1", 1000, 50, 0.05, False, False, 3),
    )
}


# distinct row counts from 15 to 30; a fixed set keeps the problem size, and
# so set-up time, the same for every seed
UNEVEN_ROWS = (15, 17, 18, 20, 22, 23, 25, 27, 28, 30)


def make_dataset(wl, seed, k):
    """Input ``k`` of a run with the given seed (a non-negative int)."""
    s = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
    ds, _ = generate(SynthConfig(kind=wl.kind, tasks=TASKS, n_per_task=30, d=wl.d, seed=s))
    if not wl.uneven:
        return ds
    rows = np.random.default_rng(s).permutation(UNEVEN_ROWS)
    return mtl21.MultiTaskDataset([(ds.X[t][: rows[t]], ds.y[t][: rows[t]]) for t in range(TASKS)])


def walk(wl, ds, keep_weights=False):
    """One full path walk; returns its ``PathRecord`` list.

    A ``SolverFailure`` ends the walk with the partial records it carries.
    """
    lmax, _ = mtl21.lambda_max(ds)
    grid = mtl21.LambdaGrid.log_spaced(lmax, n_points=wl.levels, min_ratio=wl.min_ratio)
    cfg = mtl21.SolverConfig(kkt_tol=KKT_TOL, max_iters=MAX_ITERS)
    path = mtl21.sequential_path if wl.screen else mtl21.unscreened_path
    try:
        report = path(ds, grid, cfg, keep_weights=keep_weights)
    except mtl21.SolverFailure as e:
        return list(e.report.records)
    return report.records


def level_key(rec):
    """The exact, timing-free outcome of one level; equal across repeats."""
    return (rec.status, rec.n_iters, rec.n_screened, rec.n_truly_inactive, float(rec.objective).hex())


def ok_levels(wl, records):
    """Levels of a walk that completed with an ``ok`` status.

    The levels after an abort never ran, so they count as failed too.
    """
    return sum(r.status == "ok" for r in records[: wl.levels])
