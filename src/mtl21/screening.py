"""Safe feature elimination along a regularization path.

``screen_at`` certifies inactive features at a target level from a solved
reference level: features whose maximum constraint value over the certified
dual ball stays strictly below 1 must have zero rows at the optimum, so they
can be removed before solving. ``sequential_path`` walks a decreasing grid,
screening each level against the previous solution, solving the reduced
problem, and re-embedding (screened rows are exact zeros).

Along the walk each feature carries an upper bound on its score from one
ball to the next (:class:`~mtl21.dual.ScoreBounds`): moved onto the next
ball by the triangle inequality and inflated by a forward-error margin, a
bound still below 1 screens the feature without reading its columns. Only
features whose bound reaches 1 are refreshed: their image rows come from the
solve's last gradient (the features it kept) or a column-gathered adjoint,
then the staged score of :func:`~mtl21.qp1qc.screening_scores`. The first
screened level carries nothing, so every bound is +inf and every feature is
refreshed; :func:`screen_at` carries nothing either, and makes the same
``dual_ball`` and ``screening_scores`` calls as every level of the walk.
Each level builds its reference, the previous level's dual point as its
solve left it and the half-space that solve's weights give (see
:mod:`mtl21.dual`), at the start of its own screening, so its ``t_screen``
covers all of this work. That ball holds the exact optimum whatever the
solve's tolerance, so the walk uses every reference as it is.

The grid head needs no screening or solving: at and above the all-zero
threshold the solution is identically zero, so the head record certifies all
features inactive by that closed form. Its stored mask carries sentinel
scores 0.0 (a per-feature bound is undefined there because no higher
reference level exists).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    LambdaGrid,
    MultiTaskDataset,
    ScreeningMask,
    WeightMatrix,
    validate_dataset,
)
from .dual import (
    ReferenceSolution,
    ScoreBounds,
    dual_ball,
    dual_feasibility_violation,  # noqa: F401  perfbench/spans.py wraps this name
    lambda_max,
)
from .errors import MaxItersExceeded, SolverFailure
from .qp1qc import screening_scores
from .solver import SolverConfig, fit, objective

__all__ = [
    "PathRecord",
    "PathScreeningReport",
    "screen_at",
    "sequential_path",
    "unscreened_path",
    "ROW_ZERO_TOL",
]

# a row of a certified solve counts as inactive below this norm
ROW_ZERO_TOL = 1e-6


@dataclass
class PathRecord:
    """One grid point's outcome."""

    lam: float
    lambda_rel: float
    mask: ScreeningMask | None
    n_screened: int
    n_truly_inactive: int
    rejection_ratio: float  # NaN when no feature is truly inactive
    objective: float
    kkt_residual: float
    n_iters: int
    t_screen: float
    t_solve: float
    status: str = "ok"
    # always False: every reference is used; perfbench/measure.py reads it
    ref_fallback: bool = False
    weights: WeightMatrix | None = None


@dataclass
class PathScreeningReport:
    records: list = field(default_factory=list)


def screen_at(ds, ref, lam):
    """Mask of features certified inactive at ``lam`` from the reference.

    Strict inequality, no slack: a feature is flagged only when its score,
    a certified upper bound on its maximum constraint value over the ball,
    is < 1. The target must lie strictly below the reference level.
    """
    return ScreeningMask(screening_scores(ds, dual_ball(ds, ref, lam)), lam)


def _coerce_solver(solver_handle):
    if solver_handle is None:
        solver_handle = SolverConfig()
    if isinstance(solver_handle, SolverConfig):
        cfg = solver_handle
        return lambda sub_ds, lam, warm: fit(sub_ds, lam, replace(cfg, warm_start=warm))
    return solver_handle


def _head_record(ds, lam, lmax, screen):
    W = np.zeros((ds.d, ds.T))
    y = ds.y_stack.ravel()
    obj = 0.5 * float(np.dot(y, y))
    return W, PathRecord(
        lam=lam,
        lambda_rel=lam / lmax,
        mask=ScreeningMask(np.zeros(ds.d), lam) if screen else None,
        n_screened=ds.d if screen else 0,
        n_truly_inactive=ds.d,
        rejection_ratio=1.0 if screen else float("nan"),
        objective=obj,
        kkt_residual=0.0,
        n_iters=0,
        t_screen=0.0,
        t_solve=0.0,
    )


def sequential_path(ds, grid, solver_handle=None, keep_weights=False):
    """Screen-and-solve down a decreasing grid, screening each level against
    the previous grid point's solution.

    Parameters
    ----------
    solver_handle : SolverConfig or callable, optional
        Either a config (a default 1e-6-tolerance one if omitted) or a
        callable ``(reduced_dataset, lam, warm_start) -> FitResult``.
    keep_weights : bool
        Attach each level's re-embedded weights to its record.

    A solver failure aborts the walk and raises :class:`SolverFailure`
    carrying the partial report. Each level's reference is the previous
    solve, to whatever tolerance it stopped at: its ball holds the exact
    optimum all the same (:func:`~mtl21.dual.dual_ball`).
    """
    validate_dataset(ds)
    return _walk(ds, grid, solver_handle, keep_weights, screen=True)


def unscreened_path(ds, grid, solver_handle=None, keep_weights=False):
    """Warm-started plain solves down the grid (no feature elimination).

    The head record still uses the closed form (the solution there is
    identically zero); every later level runs the solver on the full feature
    set. Masks are absent; ``n_truly_inactive`` counts near-zero rows of each
    solution so rejection-style statistics stay comparable.
    """
    validate_dataset(ds)
    return _walk(ds, grid, solver_handle, keep_weights, screen=False)


def _walk(ds, grid, solver_handle, keep_weights, screen):
    """The path loop behind both public walks; ``screen`` False skips the
    references and masks, so every level solves the full problem."""
    if not isinstance(grid, LambdaGrid):
        grid = LambdaGrid(grid)
    lmax, _ = lambda_max(ds)
    grid.validate_head(lmax)
    run_solver = _coerce_solver(solver_handle)
    report = PathScreeningReport()

    W_full, head = _head_record(ds, float(grid.values[0]), lmax, screen)
    if keep_weights:
        head.weights = WeightMatrix(W_full)
    report.records.append(head)
    ball = mask = None  # the last level's ball and mask

    for lam in grid.values[1:]:
        lam = float(lam)
        n_screened = 0
        t_screen = 0.0
        if screen:
            t0 = time.perf_counter()
            if ball is None:
                ref, bounds = ReferenceSolution.at_lambda_max(ds), None
            else:
                # this level's reference, from the last level's solve, and
                # the score bounds carried from its ball
                bounds = ScoreBounds(ball.center, ball.radius, np.sqrt(mask.scores))
                ref = ReferenceSolution.from_primal(
                    ds, W_keep, ball.lam, bounds=bounds, support=kept, solve=res
                )
            ball = dual_ball(ds, ref, lam, bounds)
            mask = ScreeningMask(screening_scores(ds, ball), lam)
            t_screen = time.perf_counter() - t0
            kept = np.flatnonzero(~mask.inactive)
            n_screened = ds.d - len(kept)
        else:
            kept = np.arange(ds.d)

        t1 = time.perf_counter()
        failure = None
        if len(kept):
            if n_screened == 0:
                sub, warm = ds, W_full
            else:
                sub = MultiTaskDataset([(X[:, kept], y) for X, y in zip(ds.X, ds.y)])
                warm = W_full[kept]
            try:
                res = run_solver(sub, lam, warm)
            except MaxItersExceeded as e:
                failure = e
                obj, n_iters, n_inact = float("nan"), e.n_iters, 0
                kkt = float(e.residual) if e.residual is not None else float("nan")
            else:
                W_keep = res.weights.values
                W_full = np.zeros((ds.d, ds.T))
                W_full[kept] = W_keep
                # screened rows are exact zeros, so the reduced objective is the full one
                obj, n_iters, kkt = res.objective, res.n_iters, res.kkt_residual
                n_inact = n_screened + int((res.weights.row_norms() <= ROW_ZERO_TOL).sum())
        else:
            res, W_keep, W_full = None, np.zeros((0, ds.T)), np.zeros((ds.d, ds.T))
            obj, n_iters, kkt = objective(ds, W_full, lam), 0, 0.0
            n_inact = ds.d
        t_solve = time.perf_counter() - t1

        rej = n_screened / n_inact if screen and n_inact > 0 else float("nan")
        rec = PathRecord(
            lam=lam,
            lambda_rel=lam / lmax,
            mask=mask,
            n_screened=n_screened,
            n_truly_inactive=n_inact,
            rejection_ratio=rej,
            objective=obj,
            kkt_residual=kkt,
            n_iters=n_iters,
            t_screen=t_screen,
            t_solve=t_solve,
            status="ok" if failure is None else "solver-failure",
        )
        if keep_weights and failure is None:
            rec.weights = WeightMatrix(W_full)
        report.records.append(rec)
        if failure is not None:
            raise SolverFailure(
                f"solver failed at level {lam!r}: {failure}",
                report=report,
                failed_lambda=lam,
            ) from failure
    return report
