"""The verification suites behind ``mtl21 verify``, held against the
straightforward computations they are built from."""

import numpy as np
import pytest

from mtl21.checks import suite_gap
from mtl21.core import LambdaGrid
from mtl21.dual import lambda_max
from mtl21.solver import SolverConfig, duality_gap, fit
from mtl21.synth import SynthConfig, generate


def warm_started_gaps(ds, kkt_tol, n_lambdas):
    """The gap suite's statistics from its own warm-started ``fit`` loop."""
    lmax, _ = lambda_max(ds)
    grid = LambdaGrid.log_spaced(lmax, n_points=n_lambdas + 1, min_ratio=0.1)
    worst_neg = 0.0
    min_gap = np.inf
    worst_rel = 0.0
    warm = None
    for lam in grid.values[1:]:
        res = fit(ds, float(lam), SolverConfig(kkt_tol=kkt_tol, warm_start=warm))
        warm = res.weights.values
        gap = duality_gap(ds, res.weights, float(lam))
        worst_neg = min(worst_neg, gap)
        min_gap = min(min_gap, gap)
        worst_rel = max(worst_rel, gap / max(1.0, abs(res.objective)))
    return worst_neg, min_gap, worst_rel


@pytest.mark.parametrize("kind", ["s1", "s2"])
def test_gap_suite_matches_a_warm_started_fit_loop(kind):
    ds, _ = generate(SynthConfig(kind=kind, tasks=3, n_per_task=20, d=60, seed=11))
    name, passed, details = suite_gap(ds, np.random.default_rng(0), kkt_tol=1e-8, n_lambdas=4)
    assert (name, passed, details["levels"]) == ("gap", True, 4)
    worst_neg, min_gap, worst_rel = warm_started_gaps(ds, 1e-8, 4)
    assert details["most_negative_gap"] == worst_neg
    assert details["min_gap"] == min_gap
    assert details["worst_relative_gap"] == worst_rel
