"""The verification suites behind ``mtl21 verify``, held against the
straightforward computations they are built from."""

import numpy as np
import pytest

import mtl21.checks
from mtl21.checks import GRID_MIN, GRID_POINTS, SUITES, run_suites, suite_gap, tight_walk
from mtl21.core import LambdaGrid
from mtl21.dual import lambda_max
from mtl21.errors import SolverFailure
from mtl21.solver import SolverConfig, duality_gap, fit
from mtl21.synth import SynthConfig, generate


def warm_started_gaps(ds, kkt_tol):
    """The gap suite's statistics from its own warm-started ``fit`` loop."""
    lmax, _ = lambda_max(ds)
    grid = LambdaGrid.log_spaced(lmax, n_points=GRID_POINTS, min_ratio=GRID_MIN)
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
    name, passed, details = suite_gap(ds, tight_walk(ds, kkt_tol=1e-8))
    assert (name, passed, details["levels"]) == ("gap", True, GRID_POINTS - 1)
    worst_neg, min_gap, worst_rel = warm_started_gaps(ds, 1e-8)
    assert details["most_negative_gap"] == worst_neg
    assert details["min_gap"] == min_gap
    assert details["worst_relative_gap"] == worst_rel


def count_walks(monkeypatch, unscreened_path=mtl21.checks.unscreened_path):
    """Count the calls of the two walks ``checks`` makes, the unscreened one
    replaced by ``unscreened_path``."""
    walks = {"unscreened_path": unscreened_path, "sequential_path": mtl21.checks.sequential_path}
    calls = dict.fromkeys(walks, 0)
    for name, walk in walks.items():

        def counted(*args, _name=name, _walk=walk, **kwargs):
            calls[_name] += 1
            return _walk(*args, **kwargs)

        monkeypatch.setattr(mtl21.checks, name, counted)
    return calls


def small_dataset():
    return generate(SynthConfig(kind="s1", tasks=2, n_per_task=12, d=20, seed=3))[0]


def test_every_suite_walks_each_path_once(monkeypatch, capsys):
    calls = count_walks(monkeypatch)
    assert run_suites(small_dataset(), suites=SUITES, cases=5)
    assert calls == {"unscreened_path": 1, "sequential_path": 1}
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[:2] for row in rows] == [[name, "pass"] for name in SUITES]
    assert "levels=7" in rows[SUITES.index("gap")]


def test_a_failed_shared_walk_fails_every_dataset_suite_once(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise SolverFailure("solver failed at level 0.5: boom")

    calls = count_walks(monkeypatch, failing)
    assert not run_suites(small_dataset(), suites=SUITES, cases=5)
    assert calls == {"unscreened_path": 1, "sequential_path": 0}
    rows = dict(row.split(None, 1) for row in capsys.readouterr().out.splitlines()[1:])
    for name in ("safety", "containment", "gap"):
        assert rows[name] == "FAIL   error: solver failed at level 0.5: boom"
    assert rows["qp1qc"].startswith("pass")
