"""Self-contained verification suites behind the ``verify`` CLI command.

Four suites, each reduced-scale but structurally identical to the package's
guarantees: "safety" (no certified-inactive feature is active in a
tight-tolerance reference solve), "containment" (the certified ball really
contains the solved dual point, for both reference modes), "qp1qc" (the
per-feature bound dominates a polished boundary-sampling oracle and matches the
single-task closed form), and "gap" (the primal-dual gap at the solved point
is nonnegative and small). The three dataset suites read one tight
unscreened walk on one grid (:func:`tight_walk`); only "safety" walks again,
screening down the same grid.

Each suite returns ``(name, passed, details)``; :func:`run_suites` prints a
table and reports overall success.
"""

from __future__ import annotations

import numpy as np

from .core import LambdaGrid
from .dual import ReferenceSolution, dual_ball, lambda_max
from .errors import MtlError
from .qp1qc import solve_batch
from .screening import ROW_ZERO_TOL, sequential_path, unscreened_path
from .solver import SolverConfig, duality_gap

__all__ = [
    "sphere_oracle",
    "random_instance",
    "tight_walk",
    "suite_safety",
    "suite_containment",
    "suite_qp1qc",
    "suite_gap",
    "run_suites",
    "SUITES",
]


# sphere_oracle polishes this many of its best samples for this many steps
ORACLE_POLISH = 8
ORACLE_STEPS = 100
# boundary samples suite_qp1qc draws for each instance's oracle
ORACLE_SAMPLES = 20000
# the dataset suites share one tight unscreened walk of this many levels down
# to this fraction of the all-zero threshold
GRID_POINTS = 8
GRID_MIN = 0.05


def sphere_oracle(a, b, c, delta, n_samples, rng):
    """Maximum of the reduced objective over boundary points.

    The objective f is convex in u, so its maximum over the ball is attained
    on the boundary. The best ``ORACLE_POLISH`` of ``n_samples`` uniform
    boundary samples then take ``ORACLE_STEPS`` steps of the ascent
    u <- delta * grad f(u) / ||grad f(u)||: each step maximizes f's
    linearization at u over the sphere, so by convexity f never decreases.
    Every point evaluated lies on the sphere, so the result can only
    undershoot the true maximum.
    """
    T = a.shape[0]
    csum = float(np.dot(c, c))
    if delta == 0.0:
        return csum
    if T == 1:
        us = np.array([[delta], [-delta]])
    else:
        us = rng.standard_normal((n_samples, T))
        norms = np.linalg.norm(us, axis=1)
        norms[norms == 0.0] = 1.0
        us = us * (delta / norms)[:, None]
    vals = us * us @ a + 2.0 * (us @ b)
    best = float(vals.max())
    if T > 1:
        u = us[np.argsort(vals)[-ORACLE_POLISH:]]
        for _ in range(ORACLE_STEPS):
            grad = u * a + b  # half the gradient
            gnorm = np.linalg.norm(grad, axis=1)
            move = gnorm > 0.0
            u[move] = grad[move] * (delta / gnorm[move])[:, None]
        best = max(best, float((u * u @ a + 2.0 * (u @ b)).max()))
    return csum + best


def random_instance(rng):
    """A random reduced instance ``(a, b, c, delta)`` of 1 to 5 tasks, with
    b = sqrt(a)|c|."""
    t = int(rng.integers(1, 6))
    a = rng.uniform(0.0, 2.0, t) ** 2
    scale = rng.uniform(0.1, 2.0)
    c = rng.standard_normal(t) * scale
    b = np.sqrt(a) * np.abs(c)
    delta = 10.0 ** rng.uniform(-3.0, 1.0)
    return a, b, c, delta


def tight_walk(ds, kkt_tol):
    """The unscreened walk the dataset suites read: tight solves, weights
    kept, on the ``GRID_POINTS``-level grid down to ``GRID_MIN``."""
    lmax, _ = lambda_max(ds)
    grid = LambdaGrid.log_spaced(lmax, n_points=GRID_POINTS, min_ratio=GRID_MIN)
    return unscreened_path(ds, grid, SolverConfig(kkt_tol=kkt_tol), keep_weights=True)


def suite_safety(ds, plain, kkt_tol=1e-8):
    """Screened sets must sit inside the truly-zero rows of the tight walk
    ``plain``, screening down its grid at its tolerance ``kkt_tol``."""
    grid = LambdaGrid([rec.lam for rec in plain.records])
    screened = sequential_path(ds, grid, SolverConfig(kkt_tol=kkt_tol), keep_weights=False)
    violations = checked = 0
    for rec_s, rec_u in zip(screened.records[1:], plain.records[1:]):
        active = rec_u.weights.row_norms() > ROW_ZERO_TOL
        violations += int((rec_s.mask.inactive & active).sum())
        checked += rec_s.n_screened
    return "safety", violations == 0, {
        "violations": violations,
        "screened_flags_checked": checked,
        "grid_points": len(grid),
    }


def suite_containment(ds, plain):
    """The tight walk's dual points must lie in the certified balls (both
    modes)."""
    worst = 0.0
    ref_seq = ref_max = ReferenceSolution.at_lambda_max(ds)
    for rec in plain.records[1:]:
        solved = ReferenceSolution.from_primal(ds, rec.weights, rec.lam)
        for ref in (ref_seq, ref_max):
            ball = dual_ball(ds, ref, rec.lam)
            dist = float(np.linalg.norm(solved.theta0 - ball.center))
            ratio = dist / ball.radius if ball.radius > 0 else (0.0 if dist == 0 else np.inf)
            worst = max(worst, ratio)
        ref_seq = solved
    return "containment", worst <= 1.0 + 1e-6, {"worst_ratio": worst, "grid_points": len(plain.records)}


def suite_qp1qc(rng, cases=200):
    """Bound dominates the sampling oracle; single-task closed form exact."""
    worst_under = 0.0
    worst_over = 0.0
    worst_t1 = 0.0
    for _ in range(cases):
        a, b, c, delta = random_instance(rng)
        s = float(solve_batch(a[None], b[None], c[None], delta)[0][0])
        ref = sphere_oracle(a, b, c, delta, ORACLE_SAMPLES, rng)
        worst_under = max(worst_under, ref - s)
        worst_over = max(worst_over, (s - ref) / (1.0 + abs(ref)))
        if a.shape[0] == 1:
            exact = (delta * np.sqrt(a[0]) + abs(c[0])) ** 2
            worst_t1 = max(worst_t1, abs(s - exact) / (1.0 + exact))
    passed = worst_under <= 1e-9 and worst_over <= 1e-2 and worst_t1 <= 1e-12
    return "qp1qc", passed, {
        "cases": cases,
        "worst_undershoot": worst_under,
        "worst_relative_overshoot": worst_over,
        "worst_single_task_error": worst_t1,
    }


def suite_gap(ds, plain):
    """Primal-dual gap nonnegative (to rounding) and small at the tight
    walk's levels below the threshold."""
    worst_neg = 0.0
    min_gap = np.inf
    worst_rel = 0.0
    for rec in plain.records[1:]:
        gap = duality_gap(ds, rec.weights, rec.lam)
        worst_neg = min(worst_neg, gap)
        min_gap = min(min_gap, gap)
        worst_rel = max(worst_rel, gap / max(1.0, abs(rec.objective)))
    passed = worst_neg >= -1e-10 and worst_rel <= 1e-4
    return "gap", passed, {
        "most_negative_gap": worst_neg,
        "min_gap": min_gap,
        "worst_relative_gap": worst_rel,
        "levels": len(plain.records) - 1,
    }


SUITES = ("safety", "containment", "qp1qc", "gap")


def run_suites(ds, suites=SUITES, seed=0, cases=200, kkt_tol=1e-8):
    """Run the selected suites, printing a table; returns True iff all pass.
    The dataset suites share one :func:`tight_walk`, made the first time one
    of them runs; an ``MtlError`` it raises fails each of them. Only the
    qp1qc suite draws random numbers, from ``seed``."""
    rng = np.random.default_rng(seed)
    shared = []  # the tight walk, or the MtlError it raised

    def walk():
        if not shared:
            try:
                shared.append(tight_walk(ds, kkt_tol))
            except MtlError as e:
                shared.append(e)
        if isinstance(shared[0], MtlError):
            raise shared[0]
        return shared[0]

    run = {
        "safety": lambda: suite_safety(ds, walk(), kkt_tol),
        "containment": lambda: suite_containment(ds, walk()),
        "qp1qc": lambda: suite_qp1qc(rng, cases=cases),
        "gap": lambda: suite_gap(ds, walk()),
    }
    all_ok = True
    print(f"{'suite':<14} {'result':<6} details")
    for name in suites:
        if name not in run:
            raise ValueError(f"unknown suite {name!r}")
        try:
            _, passed, details = run[name]()
        except MtlError as e:
            all_ok = False
            print(f"{name:<14} {'FAIL':<6} error: {e}")
            continue
        all_ok = all_ok and passed
        detail_str = ", ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}" for k, v in details.items())
        print(f"{name:<14} {'pass' if passed else 'FAIL':<6} {detail_str}")
    return all_ok
