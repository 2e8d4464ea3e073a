"""The names the benchmark's tracer wraps must exist and keep its layer sum.

``perfbench/spans.py`` times a path walk by wrapping public functions of
``mtl21`` from outside. Renaming or dropping one of them, or changing what
``solve_batch`` returns, silently breaks the benchmark; this runs a tiny
screened walk under that tracer to catch it here.
"""

import importlib.util
from pathlib import Path

import pytest

import mtl21
import mtl21.screening
from mtl21.synth import SynthConfig, generate

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve(spans):
    for module, attr, _, _ in spans.TARGETS:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"
    assert "from_primal" in mtl21.screening.ReferenceSolution.__dict__


def test_traced_walk_self_times_add_up(spans):
    ds, _ = generate(SynthConfig(kind="s1", tasks=3, n_per_task=20, d=60, seed=3))
    lmax, _ = mtl21.lambda_max(ds)
    grid = mtl21.LambdaGrid.log_spaced(lmax, n_points=10, min_ratio=0.05)
    cfg = mtl21.SolverConfig(kkt_tol=1e-6)
    with spans.Tracer() as tr:
        report = mtl21.sequential_path(ds, grid, cfg)
    assert len(report.records) == 10
    selfs = tr.self_times()
    assert set(selfs) == set(spans.SPAN_NAMES)
    assert abs(sum(selfs.values()) - tr.root_seconds()) <= 1e-9
    assert tr.min_self() >= 0.0
    # every solved level went through the wrapped fit and the exact QP1QC pass
    assert tr.counts["solver.fit_calls"] == sum(r.n_iters > 0 for r in report.records)
    assert tr.counts["qp1qc.contested"] > 0
    # the walk calls the ball, the scores and the subset through the
    # wrapped names, so a local alias cannot zero a layer without a word
    for name in ("dual.ball", "qp1qc.scores", "core.subset"):
        assert selfs[name] > 0.0, name
