import dataclasses
import math

import numpy as np
import pytest

import mtl21.solver
from mtl21.core import LambdaGrid, MultiTaskDataset, WeightMatrix, l21_norm
from mtl21.dual import (
    ReferenceSolution,
    dual_ball,
    dual_from_primal,
    feature_constraint_all,
    lambda_max,
)
from mtl21.errors import (
    MaxItersExceeded,
    NonFinite,
    NonPositiveLambda,
    NonPositiveRho,
    NonPositiveWeight,
)
from mtl21.solver import (
    FitResult,
    SolverConfig,
    duality_gap,
    fit,
    frobenius_objective,
    kkt_residual,
    objective,
    reduce_frobenius,
    reduce_weighted,
    weighted_objective,
)
from mtl21.screening import unscreened_path
from mtl21.synth import SynthConfig, generate


def hand_dataset():
    # orthogonal columns make every optimum available in closed form
    X = np.array([[1.0, 0.0], [0.0, 2.0]])
    y = np.array([2.0, 0.0])
    return MultiTaskDataset([(X, y)])


def random_dataset(rng, T=3, d=8, n=30):
    return MultiTaskDataset(
        [(rng.standard_normal((n, d)), rng.standard_normal(n)) for _ in range(T)]
    )


def cd_lasso(X, y, lam, sweeps=5000, tol=1e-14):
    """Cyclic coordinate descent for the single-task case.

    With one task the row norms are absolute values, so the model is the
    lasso and each coordinate has a closed-form soft-threshold update.
    """
    n, d = X.shape
    w = np.zeros(d)
    col_sq = np.einsum("ij,ij->j", X, X)
    r = y.copy()  # residual y - X w
    for _ in range(sweeps):
        biggest = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            rho_j = float(X[:, j] @ r) + col_sq[j] * w[j]
            new = math.copysign(max(abs(rho_j) - lam, 0.0), rho_j) / col_sq[j]
            if new != w[j]:
                r += X[:, j] * (w[j] - new)
                biggest = max(biggest, abs(new - w[j]))
                w[j] = new
        if biggest <= tol:
            break
    return w


class TestHandSolutions:
    def test_orthogonal_design(self):
        # separable problem: w1 = soft(2, 1), w2 = soft(0, ...) = 0
        ds = hand_dataset()
        res = fit(ds, 1.0, SolverConfig(kkt_tol=1e-12))
        w = res.weights.values[:, 0]
        assert math.isclose(w[0], 1.0, rel_tol=1e-10)
        assert w[1] == 0.0
        assert math.isclose(res.objective, 1.5, rel_tol=1e-12)
        assert math.isclose(objective(ds, res.weights, 1.0), 1.5, rel_tol=1e-12)

    def test_zero_above_threshold_level(self):
        ds = hand_dataset()
        lmax = lambda_max(ds)[0]
        assert lmax == 2.0
        for lam in (lmax, 1.5 * lmax):
            res = fit(ds, lam)
            assert res.n_iters == 1
            assert np.all(res.weights.values == 0.0)

    def test_nonzero_just_below_threshold(self):
        ds = hand_dataset()
        res = fit(ds, 0.99 * 2.0, SolverConfig(kkt_tol=1e-12))
        w = res.weights.values[:, 0]
        assert math.isclose(w[0], 0.02, rel_tol=1e-8)
        assert w[1] == 0.0


class TestSingleTaskOracle:
    def test_matches_coordinate_descent(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            ds = random_dataset(rng, T=1, d=8, n=30)
            lam = (0.2 + 0.15 * trial) * lambda_max(ds)[0]
            res = fit(ds, lam, SolverConfig(kkt_tol=1e-11, max_iters=50000))
            w_cd = cd_lasso(ds.X[0], ds.y[0], lam)
            w = res.weights.values[:, 0]
            assert np.max(np.abs(w - w_cd)) < 1e-7
            f_cd = 0.5 * float(
                np.sum((ds.y[0] - ds.X[0] @ w_cd) ** 2)
            ) + lam * float(np.abs(w_cd).sum())
            # neither solver may beat the other beyond rounding
            assert res.objective <= f_cd + 1e-10 * max(1.0, f_cd)
            assert f_cd <= res.objective + 1e-10 * max(1.0, res.objective)


class TestFitContract:
    def test_reported_fields_recompute(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, T=3, d=10, n=20)
        lam = 0.4 * lambda_max(ds)[0]
        res = fit(ds, lam, SolverConfig(kkt_tol=1e-10, max_iters=50000))
        assert isinstance(res, FitResult)
        assert res.kkt_residual <= 1e-10
        assert kkt_residual(ds, res.weights, lam) <= 2e-10
        assert math.isclose(
            res.objective, objective(ds, res.weights, lam), rel_tol=1e-12
        )
        assert res.n_iters >= 1
        # the contract a custom solver fills: four fields, two optional
        names = [f.name for f in dataclasses.fields(FitResult)]
        assert names == ["weights", "n_iters", "kkt_residual", "objective", "residual", "gradient"]

    def test_inactive_rows_are_exact_zeros(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, T=3, d=12, n=25)
        lam = 0.6 * lambda_max(ds)[0]
        res = fit(ds, lam, SolverConfig(kkt_tol=1e-10, max_iters=50000))
        rn = res.weights.row_norms()
        assert (rn == 0.0).any()
        assert (rn > 0.0).any()
        # no almost-zero rows: the proximal step stores hard zeros
        assert np.all((rn == 0.0) | (rn > 1e-8))

    def test_nonuniform_task_sizes(self):
        rng = np.random.default_rng(5)
        ds = MultiTaskDataset(
            [
                (rng.standard_normal((5, 6)), rng.standard_normal(5)),
                (rng.standard_normal((9, 6)), rng.standard_normal(9)),
            ]
        )
        lam = 0.3 * lambda_max(ds)[0]
        res = fit(ds, lam, SolverConfig(kkt_tol=1e-10))
        assert kkt_residual(ds, res.weights, lam) <= 2e-10

    def test_warm_start_resumes(self):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, T=2, d=10, n=25)
        lam = 0.4 * lambda_max(ds)[0]
        first = fit(ds, lam, SolverConfig(kkt_tol=1e-8, max_iters=50000))
        again = fit(ds, lam, SolverConfig(kkt_tol=1e-6, warm_start=first.weights))
        assert again.n_iters == 1
        # a raw array is accepted too
        raw = fit(
            ds, lam, SolverConfig(kkt_tol=1e-6, warm_start=first.weights.values)
        )
        assert raw.n_iters == 1

    def test_max_iters_payload(self):
        rng = np.random.default_rng(23)
        ds = random_dataset(rng, T=3, d=40, n=20)
        lam = 0.05 * lambda_max(ds)[0]
        with pytest.raises(MaxItersExceeded) as ei:
            fit(ds, lam, SolverConfig(max_iters=5, kkt_tol=1e-12))
        err = ei.value
        assert "5 iterations" in str(err)
        assert isinstance(err.weights, WeightMatrix)
        assert err.weights.values.shape == (40, 3)
        recomputed = kkt_residual(ds, err.weights, lam)
        assert math.isclose(err.residual, recomputed, rel_tol=1e-6)

    def test_bad_lambda(self):
        ds = hand_dataset()
        with pytest.raises(NonPositiveLambda):
            fit(ds, 0.0)
        with pytest.raises(NonPositiveLambda):
            fit(ds, -1.0)
        with pytest.raises(NonPositiveLambda):
            kkt_residual(ds, np.zeros((2, 1)), 0.0)
        with pytest.raises(NonPositiveLambda):
            duality_gap(ds, np.zeros((2, 1)), -2.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda ds, lam: fit(ds, lam),
            lambda ds, lam: objective(ds, np.zeros((2, 1)), lam),
            lambda ds, lam: kkt_residual(ds, np.zeros((2, 1)), lam),
            lambda ds, lam: duality_gap(ds, np.zeros((2, 1)), lam),
            lambda ds, lam: dual_from_primal(ds, np.zeros((2, 1)), lam),
            lambda ds, lam: dual_ball(ds, ReferenceSolution.at_lambda_max(ds), lam),
        ],
        ids=["fit", "objective", "kkt_residual", "duality_gap", "dual_from_primal", "dual_ball"],
    )
    @pytest.mark.parametrize(
        "lam, error",
        [
            (float("nan"), NonFinite),
            (float("inf"), NonFinite),
            (-float("inf"), NonFinite),
            (0.0, NonPositiveLambda),
            (-1.0, NonPositiveLambda),
        ],
        ids=["nan", "inf", "-inf", "zero", "negative"],
    )
    def test_every_level_entry_rejects_a_bad_lambda(self, call, lam, error):
        with pytest.raises(error):
            call(hand_dataset(), lam)

    @pytest.mark.parametrize(
        "call",
        [
            lambda ds, W: fit(ds, 1.0, SolverConfig(warm_start=W, max_iters=1)),
            lambda ds, W: objective(ds, W, 1.0),
            lambda ds, W: kkt_residual(ds, W, 1.0),
            lambda ds, W: duality_gap(ds, W, 1.0),
            lambda ds, W: dual_from_primal(ds, W, 1.0),
            lambda ds, W: ReferenceSolution.from_primal(ds, W, 1.0),
        ],
        ids=["fit", "objective", "kkt_residual", "duality_gap", "dual_from_primal", "from_primal"],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_every_weight_entry_rejects_non_finite_weights(self, call, bad):
        # a NaN warm start used to make fit's backtracking double L forever
        with pytest.raises(NonFinite):
            call(hand_dataset(), np.array([[1.0], [bad]]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(kkt_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(kkt_tol=float("nan"))
        for iters in (2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="max_iters"):
                SolverConfig(max_iters=iters)


LAYOUTS = {"equal": (20, 20, 20), "unequal": (12, 25, 7)}


def scaled_dataset(rng, sizes, scales):
    """Tasks of the given row counts whose column j is scaled by scales[j]."""
    tasks = []
    for n in sizes:
        X = rng.standard_normal((n, len(scales))) * scales
        tasks.append((X, X[:, -3:].sum(axis=1) + 0.1 * rng.standard_normal(n)))
    return MultiTaskDataset(tasks)


def counted_fit(ds, lam, cfg):
    """fit, and the adjoint products it made: ``full`` on every column of
    ds, ``block`` on a block of its live rows' columns, ``rows`` gathered
    for given rows, and ``blocks`` the blocks built (ds keeps counting)."""
    calls = dict.fromkeys(("full", "block", "rows", "blocks"), 0)
    adjoint, columns = ds.adjoint, ds._columns

    def counted(R, rows=None):
        calls["full" if rows is None else "rows"] += 1
        return adjoint(R, rows)

    def counted_columns(rows):
        calls["blocks"] += 1
        block = columns(rows)
        block_adjoint = block.adjoint

        def counted_block(R):
            calls["block"] += 1
            return block_adjoint(R)

        block.adjoint = counted_block
        return block

    ds.adjoint, ds._columns = counted, counted_columns
    res = fit(ds, lam, cfg)
    return res, dict(calls)


def budgeted_adjoints(res, calls):
    """Full-width and live-block adjoints a fit that certifies at its first
    try makes: one per iteration, on its live block or full-width, one
    full-width at the start, and, when it used a block, one full-width to
    certify every row."""
    return res.n_iters + (2 if calls["blocks"] else 1)


@pytest.mark.parametrize("sizes", LAYOUTS.values(), ids=LAYOUTS.keys())
class TestStepStart:
    """The first step size comes from the columns the warm start uses; any
    start is only a guess that backtracking corrects."""

    def test_zero_norm_support_certifies(self, sizes):
        scales = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 1.0, 3.0])
        ds = scaled_dataset(np.random.default_rng(8), sizes, scales)
        assert not ds.col_norms[:2].any()
        warm = np.zeros((ds.d, ds.T))
        warm[:2] = 1.0  # the restricted sum is 0, so the 1e-12 floor applies
        lam = 0.2 * lambda_max(ds)[0]
        res, calls = counted_fit(ds, lam, SolverConfig(kkt_tol=1e-8, warm_start=warm))
        assert kkt_residual(ds, res.weights, lam) <= 2e-8
        assert not res.weights.values[:2].any()
        assert calls["full"] + calls["block"] == budgeted_adjoints(res, calls)

    def test_start_below_curvature_backtracks_to_the_optimum(self, sizes):
        scales = np.array([0.05, 0.05, 0.05, 1.0, 1.0, 6.0, 6.0, 6.0])
        ds = scaled_dataset(np.random.default_rng(9), sizes, scales)
        warm = np.zeros((ds.d, ds.T))
        warm[:3] = 0.5
        lam = 0.1 * lambda_max(ds)[0]
        cold = fit(ds, lam, SolverConfig(kkt_tol=1e-10, max_iters=100000))
        active = cold.weights.row_norms() > 0
        assert active[5:].all()
        # the start's guess is below the curvature of the active columns
        start = (ds.col_norms[:3] ** 2).sum(axis=0).max() / 8.0
        curvature = max(np.linalg.norm(X[:, active], 2) ** 2 for X in ds.X)
        assert start < 1e-2 * curvature
        res, calls = counted_fit(ds, lam, SolverConfig(kkt_tol=1e-8, warm_start=warm))
        assert kkt_residual(ds, res.weights, lam) <= 2e-8
        assert math.isclose(res.objective, cold.objective, rel_tol=1e-8)
        assert calls["full"] + calls["block"] == budgeted_adjoints(res, calls)


@pytest.fixture
def live_rows_case():
    """An s1 dataset with d = 400 and a level of 0.2 lambda_max, at which a
    cold fit's live rows are a strict subset that grows mid-solve."""
    ds, _ = generate(SynthConfig(kind="s1", tasks=4, n_per_task=20, d=400, seed=0))
    return ds, 0.2 * lambda_max(ds)[0]


class TestLiveRows:
    """fit iterates on its live rows' columns and certifies on every row."""

    def test_live_rows_grow_and_certify(self, live_rows_case):
        ds, lam = live_rows_case
        res, calls = counted_fit(ds, lam, SolverConfig())
        # a block at the start, and a larger one after a refresh added rows
        assert calls["blocks"] >= 2
        assert kkt_residual(ds, res.weights, lam) <= SolverConfig().kkt_tol

    def test_a_lying_bound_costs_iterations_not_safety(self, live_rows_case, monkeypatch):
        ds, lam = live_rows_case
        honest = fit(ds, lam, SolverConfig())
        # half the support at twice its optimal value: some support rows
        # start well inside lam, dead
        support = np.flatnonzero(honest.weights.row_norms() > 0)
        keep = np.random.default_rng(0).choice(support, len(support) // 2, replace=False)
        warm = np.zeros((ds.d, ds.T))
        warm[keep] = 2.0 * honest.weights.values[keep]
        # a bound that never asks for a refresh keeps those rows dead until
        # the full-width certificate flags them
        monkeypatch.setattr(mtl21.solver, "_dead_slack", lambda u, col_norm_max, lam: np.inf)
        res, calls = counted_fit(ds, lam, SolverConfig(warm_start=warm))
        assert calls["blocks"] >= 2
        assert res.kkt_residual <= SolverConfig().kkt_tol
        assert kkt_residual(ds, res.weights, lam) <= SolverConfig().kkt_tol
        assert math.isclose(res.objective, honest.objective, rel_tol=1e-9)

    def test_max_iters_carries_full_width_weights(self, live_rows_case, monkeypatch):
        ds, lam = live_rows_case
        widths = []
        columns = ds._columns
        monkeypatch.setattr(ds, "_columns", lambda rows: widths.append(len(rows)) or columns(rows))
        with pytest.raises(MaxItersExceeded) as ei:
            fit(ds, lam, SolverConfig(max_iters=3))
        assert widths and max(widths) < ds.d
        assert ei.value.weights.values.shape == (ds.d, ds.T)
        assert math.isclose(
            ei.value.residual, kkt_residual(ds, ei.value.weights, lam), rel_tol=1e-6
        )

    def test_gradient_is_the_full_width_image_of_the_residual(self, live_rows_case):
        ds, lam = live_rows_case
        res, calls = counted_fit(ds, lam, SolverConfig())
        assert calls["blocks"] and res.gradient.shape == (ds.d, ds.T)
        W = res.weights.values
        np.testing.assert_allclose(res.residual, ds.forward(W) - ds.y_stack, rtol=0, atol=1e-12)
        scale = np.abs(res.gradient).max()
        np.testing.assert_allclose(
            res.gradient, ds.adjoint(res.residual), rtol=0, atol=1e-13 * scale
        )


def test_tight_walk_does_not_stall_at_loss_rounding():
    # correlated columns and a 1e-9 certificate: a step test on the
    # difference of two losses forgives about 1e-12 of the loss, so it
    # stopped telling steps apart and one level here took 17019 iterations
    ds, _ = generate(SynthConfig(kind="s2", tasks=4, n_per_task=20, d=150, seed=6))
    grid = LambdaGrid.log_spaced(lambda_max(ds)[0], 15, 0.05)
    report = unscreened_path(ds, grid, SolverConfig(kkt_tol=1e-9), keep_weights=True)
    assert max(r.n_iters for r in report.records) < 2000
    for r in report.records[1:]:
        assert kkt_residual(ds, r.weights, r.lam) <= 1e-9 * (1.0 + 1e-6)


class TestDualityGap:
    def test_zero_gap_at_threshold(self):
        # at the all-zero level the induced dual point is itself optimal
        ds = hand_dataset()
        gap = duality_gap(ds, np.zeros((2, 1)), 2.0)
        assert abs(gap) <= 1e-15

    def test_gap_shrinks_with_tolerance(self):
        rng = np.random.default_rng(29)
        ds = random_dataset(rng, T=2, d=10, n=25)
        lam = 0.4 * lambda_max(ds)[0]
        rough = fit(ds, lam, SolverConfig(kkt_tol=1e-3))
        tight = fit(ds, lam, SolverConfig(kkt_tol=1e-10, max_iters=50000))
        g_rough = duality_gap(ds, rough.weights, lam)
        g_tight = duality_gap(ds, tight.weights, lam)
        assert g_rough >= -1e-12
        assert g_tight >= -1e-12
        assert g_tight <= 1e-6
        assert g_tight <= g_rough

    def test_one_forward_product(self, monkeypatch):
        # the residual rows give both the dual point and the loss
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, T=3, d=12, n=20)
        lam = 0.3 * lambda_max(ds)[0]
        W = fit(ds, lam, SolverConfig(kkt_tol=1e-4)).weights.values
        theta = (ds.y_stack - ds.forward(W)) / lam
        scale = 1.0 / max(1.0, np.sqrt(float(feature_constraint_all(ds, theta).max())))
        th, y = (theta * scale).ravel(), ds.y_stack.ravel()
        dual_val = lam * float(np.dot(th, y)) - 0.5 * lam * lam * float(np.dot(th, th))
        expected = objective(ds, W, lam) - dual_val
        forward = ds.forward
        calls = []
        monkeypatch.setattr(ds, "forward", lambda V: calls.append(1) or forward(V))
        assert duality_gap(ds, W, lam) == expected
        assert len(calls) == 1


class TestNorms:
    def test_l21_hand(self):
        assert l21_norm(np.array([[3.0, 4.0]])) == 5.0
        W = np.array([[3.0, 4.0], [0.0, 0.0], [5.0, 12.0]])
        assert l21_norm(W) == 18.0
        assert l21_norm(WeightMatrix(W)) == 18.0


class TestReductions:
    def test_weighted_identity(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, T=3, d=6, n=12)
        weights = rng.uniform(0.5, 2.0, size=3)
        red = reduce_weighted(ds, weights)
        assert red.T == ds.T and red.d == ds.d
        for t in range(ds.T):
            assert np.array_equal(red.X[t], ds.X[t] / np.sqrt(weights[t]))
        lam = 0.7
        for _ in range(20):
            W = rng.standard_normal((ds.d, ds.T))
            lhs = objective(red, W, lam)
            rhs = weighted_objective(ds, W, lam, weights)
            assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_frobenius_identity(self):
        rng = np.random.default_rng(37)
        ds = random_dataset(rng, T=2, d=5, n=9)
        rho = 0.37
        red = reduce_frobenius(ds, rho)
        assert red.T == ds.T and red.d == ds.d
        assert red.n_per_task == tuple(n + ds.d for n in ds.n_per_task)
        lam = 0.9
        for _ in range(20):
            W = rng.standard_normal((ds.d, ds.T))
            lhs = objective(red, W, lam)
            rhs = frobenius_objective(ds, W, lam, rho)
            assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_solving_reduced_problem(self):
        rng = np.random.default_rng(41)
        ds = random_dataset(rng, T=2, d=6, n=14)
        red = reduce_frobenius(ds, 0.2)
        lam = 0.3 * lambda_max(red)[0]
        res = fit(red, lam, SolverConfig(kkt_tol=1e-10))
        assert math.isclose(
            objective(red, res.weights, lam),
            frobenius_objective(ds, res.weights, lam, 0.2),
            rel_tol=1e-12,
        )

    def test_weighted_errors(self):
        ds = hand_dataset()
        with pytest.raises(NonPositiveWeight):
            reduce_weighted(ds, [1.0, 2.0])  # wrong length
        with pytest.raises(NonPositiveWeight):
            reduce_weighted(ds, [0.0])
        with pytest.raises(NonPositiveWeight):
            reduce_weighted(ds, [-1.0])

    def test_frobenius_errors(self):
        ds = hand_dataset()
        with pytest.raises(NonPositiveRho):
            reduce_frobenius(ds, 0.0)
        with pytest.raises(NonPositiveRho):
            reduce_frobenius(ds, -0.5)

    @pytest.mark.parametrize(
        "function,args,error",
        [
            *[
                (fn, {"weights": w}, NonFinite)
                for fn in ("reduce_weighted", "weighted_objective")
                for w in ([math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0])
            ],
            *[
                (fn, {"rho": rho}, NonFinite)
                for fn in ("reduce_frobenius", "frobenius_objective")
                for rho in (math.nan, math.inf, -math.inf)
            ],
            ("weighted_objective", {"weights": [0.0, 1.0]}, NonPositiveWeight),
            ("weighted_objective", {"weights": [-1.0, 1.0]}, NonPositiveWeight),
            ("weighted_objective", {"weights": [1.0, 1.0, 1.0]}, NonPositiveWeight),
            ("weighted_objective", {"lam": math.nan}, NonFinite),
            ("weighted_objective", {"lam": -1.0}, NonPositiveLambda),
            ("frobenius_objective", {"rho": -1.0}, NonPositiveRho),
        ],
    )
    def test_reduction_inputs_are_checked(self, function, args, error):
        # -inf is a NonFinite, not a non-positive value: finiteness is checked first
        ds = random_dataset(np.random.default_rng(43), T=2, d=3, n=4)
        a = {"W": np.ones((3, 2)), "lam": 1.0, "weights": [1.0, 1.0], "rho": 1.0, **args}
        call = {
            "reduce_weighted": lambda: reduce_weighted(ds, a["weights"]),
            "weighted_objective": lambda: weighted_objective(ds, a["W"], a["lam"], a["weights"]),
            "reduce_frobenius": lambda: reduce_frobenius(ds, a["rho"]),
            "frobenius_objective": lambda: frobenius_objective(ds, a["W"], a["lam"], a["rho"]),
        }[function]
        with pytest.raises(error):
            call()
