import dataclasses
import math

import numpy as np
import pytest

from mtl21.core import MultiTaskDataset
from mtl21.dual import (
    DualBall,
    ReferenceSolution,
    dual_ball,
    dual_feasibility_violation,
    dual_from_primal,
    feature_constraint_all,
    lambda_max,
)
from mtl21.errors import (
    DegenerateData,
    DimensionMismatch,
    LambdaOutOfRange,
    NegativeInnerProduct,
    NonFinite,
    NonPositiveLambda,
)
from mtl21.solver import SolverConfig, fit
from mtl21.synth import SynthConfig, generate


def hand_dataset():
    # orthogonal columns make every optimum available in closed form
    X = np.array([[1.0, 0.0], [0.0, 2.0]])
    y = np.array([2.0, 0.0])
    return MultiTaskDataset([(X, y)])


def random_dataset(rng, T=3, d=8, n=6):
    return MultiTaskDataset(
        [(rng.standard_normal((n, d)), rng.standard_normal(n)) for _ in range(T)]
    )


def constraint_oracle(ds, theta, ell):
    # plain triple loop, no vectorization shared with the implementation
    total = 0.0
    for t in range(ds.T):
        inner = 0.0
        for i in range(ds.n_per_task[t]):
            inner += ds.X[t][i, ell] * theta[t, i]
        total += inner * inner
    return total


class TestFeatureConstraint:
    def test_hand_values(self):
        ds = hand_dataset()
        th = np.array([[1.0 / 7.0, 1.0 / 7.0]])
        g = feature_constraint_all(ds, th)
        assert math.isclose(g[0], 1.0 / 49.0, rel_tol=1e-15)
        assert math.isclose(g[1], 4.0 / 49.0, rel_tol=1e-15)

    def test_all_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ds = random_dataset(rng)
            th = rng.standard_normal(ds.y_stack.shape)
            g = feature_constraint_all(ds, th)
            for ell in range(ds.d):
                assert math.isclose(g[ell], constraint_oracle(ds, th, ell), rel_tol=1e-12)

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng)
        th = rng.standard_normal(ds.y_stack.shape)
        g1 = feature_constraint_all(ds, th)
        for c in (2.0, -3.5, 0.125):
            gc = feature_constraint_all(ds, c * th)
            np.testing.assert_allclose(gc, c * c * g1, rtol=1e-12)

    def test_gradient_against_central_differences(self):
        # the one gradient the program forms: the witness normal, the
        # witness feature's constraint gradient at y/lambda_max
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, T=2, d=5, n=4)
        lmax, ell = lambda_max(ds)
        th = ds.y_stack / lmax
        grad = ds.witness_normal[0]
        assert grad.shape == th.shape
        h = 1e-6
        for i in np.ndindex(th.shape):
            e = np.zeros(th.shape)
            e[i] = h
            fd = (
                feature_constraint_all(ds, th + e)[ell]
                - feature_constraint_all(ds, th - e)[ell]
            ) / (2 * h)
            assert math.isclose(grad[i], fd, rel_tol=1e-5, abs_tol=1e-7)

    def test_gradient_hand_value(self):
        # lambda_max = 2 with witness 0; its gradient at y/2 = (1, 0) is (2, 0)
        ds = hand_dataset()
        np.testing.assert_allclose(ds.witness_normal[0], [[2.0, 0.0]])


class TestViolation:
    def test_hand_value(self):
        ds = hand_dataset()
        assert dual_feasibility_violation(ds, np.array([[2.0, 0.0]])) == 3.0

    def test_zero_inside_feasible_set(self):
        ds = hand_dataset()
        assert dual_feasibility_violation(ds, np.array([[0.1, 0.1]])) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_is_refused(self, bad):
        # a NaN constraint value would read as no violation at all
        ds = hand_dataset()
        with pytest.raises(NonFinite):
            dual_feasibility_violation(ds, np.array([[bad, 0.0]]))

    def test_scaled_response_boundary(self):
        # y/lambda is feasible exactly down to lambda_max
        rng = np.random.default_rng(8)
        ds = random_dataset(rng)
        lmax, _ = lambda_max(ds)
        y = ds.y_stack
        assert dual_feasibility_violation(ds, y / lmax) <= 1e-12
        assert dual_feasibility_violation(ds, y / (1.001 * lmax)) == 0.0
        assert dual_feasibility_violation(ds, y / (0.9 * lmax)) > 0.0


class TestLambdaMax:
    def test_hand_value_and_witness(self):
        ds = hand_dataset()
        val, ell = lambda_max(ds)
        assert val == 2.0
        assert ell == 0

    def test_blocks_are_per_task(self):
        ds = MultiTaskDataset(
            [(np.array([[1.0]]), np.array([3.0])), (np.array([[1.0]]), np.array([4.0]))]
        )
        val, ell = lambda_max(ds)
        assert math.isclose(val, 5.0, rel_tol=1e-15)
        assert ell == 0

    def test_tie_breaks_to_smallest_index(self):
        ds = MultiTaskDataset([(np.eye(2), np.array([1.0, 1.0]))])
        _, ell = lambda_max(ds)
        assert ell == 0

    def test_degenerate_orthogonal_response(self):
        ds = MultiTaskDataset([(np.eye(2), np.zeros(2))])
        with pytest.raises(DegenerateData):
            lambda_max(ds)

    def test_cached_on_dataset(self, monkeypatch):
        # the five per-dataset constants are formed on first read only
        ds = random_dataset(np.random.default_rng(9))
        names = ("col_norms", "col_norm_max", "response_image", "threshold", "witness_normal")
        first = {name: getattr(ds, name) for name in names}
        products = []
        for op in ("forward", "adjoint"):
            inner = getattr(ds, op)

            def counted(*args, _op=op, _inner=inner, **kwargs):
                products.append(_op)
                return _inner(*args, **kwargs)

            monkeypatch.setattr(ds, op, counted)
        for name in names:
            assert getattr(ds, name) is first[name], name
        assert lambda_max(ds) is ds.threshold
        assert products == []
        arrays = [first[name] for name in names[:3]] + list(first["witness_normal"])
        for a in arrays:
            assert isinstance(a, np.ndarray) and not a.flags.writeable
        # a dataset with no threshold raises on every read, never caching
        degenerate = MultiTaskDataset([(np.eye(2), np.zeros(2))])
        for _ in range(2):
            for read in (lambda: degenerate.threshold, lambda: degenerate.witness_normal):
                with pytest.raises(DegenerateData):
                    read()
            with pytest.raises(DegenerateData):
                lambda_max(degenerate)


class TestDualFromPrimal:
    def test_hand_value(self):
        ds = hand_dataset()
        th = dual_from_primal(ds, np.array([[1.0], [0.0]]), 1.0)
        np.testing.assert_allclose(th, [[1.0, 0.0]])
        assert not th.flags.writeable

    def test_rejects_non_positive_lambda(self):
        ds = hand_dataset()
        with pytest.raises(NonPositiveLambda):
            dual_from_primal(ds, np.zeros((2, 1)), 0.0)


def assert_ball(ds, ball, center, radius, tol=1e-9):
    """The ball's center and radius to ``tol`` (the scaling and the cut's
    forward-error margins move them by far less), and its carried image is
    X' center on every feature."""
    np.testing.assert_allclose(ball.center, [center], rtol=tol, atol=tol)
    assert math.isclose(ball.radius, radius, rel_tol=tol, abs_tol=tol)
    np.testing.assert_array_equal(ball.rows, np.arange(ds.d))
    np.testing.assert_allclose(ball.image, ds.adjoint(ball.center), rtol=1e-15, atol=1e-15)


class TestNormalVector:
    # the normal the ball is cut along, seen from the ball it cuts

    def test_below_threshold_is_residual_direction(self):
        # weights (1, -0.25) at lambda0 = 1 leave theta0 = (1, 0.5), a
        # feasible corner, and n = y - theta0 = (1, -0.5); the uncut ball at
        # 0.5 is centered at (2.5, 0.25), and the cut moves it along -n
        ds = hand_dataset()
        ref = ReferenceSolution.from_primal(ds, np.array([[1.0], [-0.25]]), 1.0)
        np.testing.assert_allclose(ref.theta0, [[1.0, 0.5]])
        shift = dual_ball(ds, ref, 0.5).center - [[2.5, 0.25]]
        n = ds.y_stack - ref.theta0
        assert abs(shift[0, 0] * n[0, 1] - shift[0, 1] * n[0, 0]) <= 1e-12
        assert float((shift * n).sum()) < 0.0

    def test_at_threshold_uses_witness_gradient(self):
        # y = (2, 0.5): lambda_max = 2 with witness 0, whose constraint
        # gradient at y/2 is (2, 0), not a multiple of y. The uncut ball at
        # 1 has center (1.5, 0.375) and radius sqrt(17)/8; the half-space
        # <(2, 0), theta> <= 2 cuts it at depth 0.5 to center (1, 0.375) and
        # radius 1/8, and theta* = (1, 0.5) lies on its boundary
        ds = MultiTaskDataset([(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([2.0, 0.5]))])
        ref = ReferenceSolution.at_lambda_max(ds)
        assert ref.lambda0 == 2.0
        assert_ball(ds, dual_ball(ds, ref, 1.0), [1.0, 0.375], 0.125)

    def test_level_out_of_range(self):
        ds = hand_dataset()
        theta0 = np.zeros((1, 2))
        above = ReferenceSolution(2.5, theta0, ds.adjoint(theta0), 0.0)
        with pytest.raises(LambdaOutOfRange):
            dual_ball(ds, above, 1.0)
        with pytest.raises(LambdaOutOfRange):
            ReferenceSolution(-1.0, theta0, ds.adjoint(theta0), 0.0)

    def test_zero_normal(self):
        # weights too small to move theta0 off y/lambda0 in float64: the
        # normal rounds to zero and the ball is left uncut, from theta0
        # scaled into the feasible set, (1, 0)
        ds = hand_dataset()
        ref = ReferenceSolution.from_primal(ds, np.array([[1e-30], [0.0]]), 1.0)
        np.testing.assert_array_equal(ds.y_stack - ref.theta0, 0.0)
        assert ref.offset > 0.0
        assert_ball(ds, dual_ball(ds, ref, 0.5), [2.5, 0.0], 1.5)


class TestReferenceSolution:
    def test_at_lambda_max(self):
        ds = hand_dataset()
        ref = ReferenceSolution.at_lambda_max(ds)
        assert ref.lambda0 == 2.0
        np.testing.assert_allclose(ref.theta0, [[1.0, 0.0]])
        # the witness normal's offset, 2 ||X_l*' y|| / lambda_max, lifted by
        # the cut's margin
        assert 2.0 <= ref.offset <= 2.0 * (1.0 + 1e-12)
        fields = [f.name for f in dataclasses.fields(ReferenceSolution)]
        assert fields == ["lambda0", "theta0", "image", "offset", "rows"]

    def test_from_primal_zero_weights_has_no_normal(self):
        # W = 0 below the threshold puts theta0 exactly at y/lambda0, where
        # the normal vanishes and the ball is left uncut; theta0 = (2, 0) is
        # scaled into the feasible set, to (1, 0), first
        ds = hand_dataset()
        ref = ReferenceSolution.from_primal(ds, np.zeros((2, 1)), 1.0)
        np.testing.assert_allclose(ref.theta0, [[2.0, 0.0]])
        assert ref.offset == 0.0
        assert_ball(ds, dual_ball(ds, ref, 0.5), [2.5, 0.0], 1.5)

    def test_rejects_non_positive_level(self):
        ds = hand_dataset()
        theta0 = np.array([[1.0, 0.0]])
        with pytest.raises(LambdaOutOfRange):
            ReferenceSolution(lambda0=0.0, theta0=theta0, image=ds.adjoint(theta0), offset=1.0)

    def test_solve_with_nan_level_is_non_finite(self):
        # the solve's residual over a NaN level is all NaN: the level is named
        # as non-finite before the offset check sees a NaN offset
        ds = hand_dataset()
        res = fit(ds, 1.0, SolverConfig(kkt_tol=1e-10))
        with pytest.raises(NonFinite):
            ReferenceSolution.from_primal(ds, res.weights, math.nan, solve=res)
        with pytest.raises(NonFinite):
            ReferenceSolution.from_primal(ds, res.weights, math.nan)

    def test_rejects_infinite_level(self):
        ds = hand_dataset()
        theta0 = np.array([[1.0, 0.0]])
        for level in (math.inf, -math.inf):
            with pytest.raises(NonFinite):
                ReferenceSolution(level, theta0, ds.adjoint(theta0), 1.0)
        with pytest.raises(NonFinite):
            ReferenceSolution.from_primal(ds, np.zeros((2, 1)), math.inf)

    def test_rejects_nan_dual_point(self):
        # a NaN theta0 would make dual_ball's radius NaN
        ds = hand_dataset()
        theta0 = np.array([[math.nan, 0.0]])
        with pytest.raises(NonFinite):
            ReferenceSolution(1.0, theta0, ds.adjoint(np.array([[1.0, 0.0]])), 1.0)

    def test_rejects_nan_image_row(self):
        # the scaling's max(1, g_max) would drop a NaN row, giving a finite
        # ball whose scores are NaN
        ds = hand_dataset()
        theta0 = np.array([[1.0, 0.0]])
        image = ds.adjoint(theta0)
        image[1] = math.nan
        with pytest.raises(NonFinite):
            ReferenceSolution(1.0, theta0, image, 1.0)


class TestDualBall:
    # references at lambda0 = 1 from weights w: theta0 = y - X w,
    # n = X w = (w_1, 2 w_2) and offset |w_1| + |w_2|; the feasible set is
    # |theta_1| <= 1, |theta_2| <= 1/2
    def ref(self, ds, w):
        return ReferenceSolution.from_primal(ds, np.array(w, dtype=float)[:, None], 1.0)

    def test_aligned_normal_gives_zero_radius(self):
        # w = (1, 0) is the exact solve at 1: theta0 = (1, 0) lies on the
        # half-space's boundary, the residual (3, 0) is parallel to the
        # normal and the ball shrinks to theta* = (1, 0); the margins lift the
        # cut by about 1e-13, which leaves a radius near sqrt(2 R 1e-13)
        ds = hand_dataset()
        assert_ball(ds, dual_ball(ds, self.ref(ds, [1.0, 0.0]), 0.5), [1.0, 0.0], 0.0, tol=1e-5)

    def test_orthogonal_normal_keeps_residual(self):
        # X = I, y = (2, 1): theta0 = (1, 1) at lambda0 = 1/0.55 gives
        # n = (0.1, -0.45), orthogonal to r = y/lam - theta0 = (1.8, 0.4) at
        # lam = 1/1.4; the center's side of the half-space is theta0's, so
        # nothing is cut
        ds = MultiTaskDataset([(np.eye(2), np.array([2.0, 1.0]))])
        theta0 = np.array([[1.0, 1.0]])
        ref = ReferenceSolution(1.0 / 0.55, theta0, ds.adjoint(theta0), 0.55)
        assert_ball(ds, dual_ball(ds, ref, 1.0 / 1.4), [1.9, 1.2], math.sqrt(3.4) / 2.0)

    def test_oblique_normal_hand_value(self):
        # w = (1, -0.25): theta0 = (1, 0.5), n = (1, -0.5), offset 1.25; the
        # uncut ball at 0.5 (center (2.5, 0.25), radius sqrt(9.25)/2) is cut
        # at depth 1.125/sqrt(1.25), to center (1.6, 0.7) and radius sqrt(1.3)
        ds = hand_dataset()
        ball = dual_ball(ds, self.ref(ds, [1.0, -0.25]), 0.5)
        assert_ball(ds, ball, [1.6, 0.7], math.sqrt(1.3))

    def test_no_normal_falls_back_to_unprojected(self):
        # theta0 = y/lambda0: the normal is zero and the ball uncut, from
        # theta0 scaled into the feasible set, (1, 0)
        ds = hand_dataset()
        theta0 = np.array([[2.0, 0.0]])
        ref = ReferenceSolution(1.0, theta0, ds.adjoint(theta0), 0.0)
        assert_ball(ds, dual_ball(ds, ref, 0.5), [2.5, 0.0], 1.5)

    def test_negative_inner_product(self):
        # theta0 = (1, 0) with offset 0 claims theta_1 <= 0 on the feasible
        # set: the half-space misses the ball (depth 2.5, radius 1.5)
        ds = hand_dataset()
        theta0 = np.array([[1.0, 0.0]])
        with pytest.raises(NegativeInnerProduct):
            dual_ball(ds, ReferenceSolution(1.0, theta0, ds.adjoint(theta0), 0.0), 0.5)
        # a negative offset excludes 0, which every feasible set holds
        with pytest.raises(NegativeInnerProduct):
            ReferenceSolution(1.0, theta0, ds.adjoint(theta0), -1e-300)
        with pytest.raises(NegativeInnerProduct):
            ReferenceSolution(1.0, theta0, ds.adjoint(theta0), float("nan"))

    def test_target_must_be_below_reference(self):
        ds = hand_dataset()
        with pytest.raises(LambdaOutOfRange):
            dual_ball(ds, self.ref(ds, [1.0, 0.0]), 1.0)
        with pytest.raises(NonPositiveLambda):
            dual_ball(ds, self.ref(ds, [1.0, 0.0]), 0.0)

    def test_ball_type_invariants(self):
        ds = hand_dataset()
        image = ds.adjoint(np.zeros((1, 2)))
        every = {"rows": np.arange(ds.d), "bound": np.full(ds.d, np.inf)}
        with pytest.raises(LambdaOutOfRange):
            DualBall(np.zeros((1, 2)), -0.1, 0.5, 1.0, image, **every)
        with pytest.raises(LambdaOutOfRange):
            DualBall(np.zeros((1, 2)), math.nan, 0.5, 1.0, image, **every)
        with pytest.raises(LambdaOutOfRange):
            DualBall(np.zeros((1, 2)), 0.1, 1.0, 1.0, image, **every)
        with pytest.raises(DimensionMismatch):
            DualBall(np.zeros((1, 2)), 0.1, 0.5, 1.0, image, rows=np.array([1]), bound=np.zeros(2))


def bad_dual_vector(ds, kind):
    """y/lambda_max laid out wrongly: transposed rows, the length-N vector of
    the real entries, or rows with one nonzero padding entry."""
    rows = ds.y_stack / lambda_max(ds)[0]
    if kind == "shape":
        return rows.T
    if kind == "flat":
        return np.concatenate([rows[t, :n] for t, n in enumerate(ds.n_per_task)])
    leaky = rows.copy()
    leaky[2, -1] = 1e-300
    return leaky


class TestDualRows:
    # tasks of 3, 5 and 2 rows: (3, 5) dual rows, N = 10, five padding entries
    def uneven_dataset(self):
        rng = np.random.default_rng(31)
        return MultiTaskDataset(
            [(rng.standard_normal((n, 6)), rng.standard_normal(n)) for n in (3, 5, 2)]
        )

    @pytest.mark.parametrize("kind", ["shape", "flat", "padding"])
    def test_rejected(self, kind):
        ds = self.uneven_dataset()
        lmax, _ = lambda_max(ds)
        theta = bad_dual_vector(ds, kind)
        with pytest.raises(DimensionMismatch):
            feature_constraint_all(ds, theta)
        # at and below the threshold, where the normal is read from theta0
        for lambda0 in (lmax, 0.9 * lmax):
            ref = ReferenceSolution(lambda0, theta, ds.response_image / lmax, 1.0)
            with pytest.raises(DimensionMismatch):
                dual_ball(ds, ref, 0.5 * lmax)

    def test_accepted(self):
        # the same entries in the padded layout pass every entry point
        ds = self.uneven_dataset()
        lmax, _ = lambda_max(ds)
        theta = ds.y_stack / lmax
        assert dual_feasibility_violation(ds, theta) <= 1e-12
        for lambda0 in (lmax, 0.9 * lmax):
            ref = ReferenceSolution(lambda0, theta, ds.response_image / lmax, 1.0)
            assert dual_ball(ds, ref, 0.5 * lmax).center.shape == (3, 5)


class TestContainment:
    def test_exact_dual_optimum_lies_in_the_ball(self):
        # end-to-end geometry check against tightly solved optima
        from mtl21.solver import SolverConfig, fit

        rng = np.random.default_rng(21)
        for trial in range(5):
            ds = random_dataset(rng, T=2, d=18, n=12)
            lmax, _ = lambda_max(ds)
            cfg = SolverConfig(kkt_tol=1e-10, max_iters=50000)
            lam0 = 0.7 * lmax
            lam = 0.45 * lmax
            W0 = fit(ds, lam0, cfg).weights
            Wt = fit(ds, lam, cfg).weights
            theta_t = dual_from_primal(ds, Wt, lam)

            for ref in (
                ReferenceSolution.at_lambda_max(ds),
                ReferenceSolution.from_primal(ds, W0, lam0),
            ):
                ball = dual_ball(ds, ref, lam)
                dist = float(np.linalg.norm(theta_t - ball.center))
                assert dist <= ball.radius * (1.0 + 1e-6) + 1e-9

    def test_radius_shrinks_with_closer_reference(self):
        from mtl21.solver import SolverConfig, fit

        rng = np.random.default_rng(22)
        ds = random_dataset(rng, T=2, d=15, n=8)
        lmax, _ = lambda_max(ds)
        cfg = SolverConfig(kkt_tol=1e-10, max_iters=50000)
        lam = 0.4 * lmax
        W0 = fit(ds, 0.5 * lmax, cfg).weights
        near = dual_ball(ds, ReferenceSolution.from_primal(ds, W0, 0.5 * lmax), lam)
        far = dual_ball(ds, ReferenceSolution.at_lambda_max(ds), lam)
        assert near.radius < far.radius

    def test_from_primal_takes_only_the_solves_own_weights(self):
        # the offset comes from W, the normal from the solve's residual: with
        # W 0.99 times a tight solve's weights the ball at 0.4 lmax would sit
        # 1.2 radii from the optimum, so the mismatch raises, as does a
        # gradient without one row per support feature
        from mtl21.solver import SolverConfig, fit

        ds, _ = generate(SynthConfig(kind="s1", tasks=3, n_per_task=20, d=60, seed=3))
        lmax, _ = lambda_max(ds)
        tight = SolverConfig(kkt_tol=1e-10, max_iters=200000)
        lam0, lam = 0.5 * lmax, 0.4 * lmax
        support = np.flatnonzero(fit(ds, lam0, tight).weights.row_norms() > 0)
        sub = MultiTaskDataset([(X[:, support], y) for X, y in zip(ds.X, ds.y)])
        res = fit(sub, lam0, tight)
        with pytest.raises(DimensionMismatch):
            ReferenceSolution.from_primal(ds, 0.99 * res.weights.values, lam0, support=support, solve=res)
        short = dataclasses.replace(res, gradient=res.gradient[:-1])
        with pytest.raises(DimensionMismatch):
            ReferenceSolution.from_primal(ds, res.weights, lam0, support=support, solve=short)
        ref = ReferenceSolution.from_primal(ds, res.weights, lam0, support=support, solve=res)
        ball = dual_ball(ds, ref, lam)
        optimum = dual_from_primal(ds, fit(ds, lam, tight).weights, lam)
        assert float(np.linalg.norm(optimum - ball.center)) <= ball.radius

    def test_loose_reference_ball_holds_the_optimum(self, monkeypatch):
        # a 1e-2 solve at grid[1] stops at kkt 0.0073 with its dual point
        # 0.013 outside the feasible set: every ball a walk builds, one from
        # that solve included, and the ball of from_primal's own reference
        # must hold the optimum of a 1e-9 solve
        import mtl21.screening
        from mtl21.core import LambdaGrid
        from mtl21.solver import SolverConfig, fit

        ds, _ = generate(SynthConfig(kind="s1", tasks=3, n_per_task=15, d=100, seed=1))
        grid = LambdaGrid.log_spaced(lambda_max(ds)[0], 12, 0.05).values
        tight = SolverConfig(kkt_tol=1e-9, max_iters=200000)
        optimum = {lam: dual_from_primal(ds, fit(ds, lam, tight).weights, lam) for lam in grid[1:]}

        def loose_at_first_level(sub_ds, lam, warm):
            tol = 1e-2 if lam == grid[1] else 1e-6
            return fit(sub_ds, lam, SolverConfig(kkt_tol=tol, warm_start=warm))

        balls = []

        def logged_ball(*args, **kwargs):
            balls.append(dual_ball(*args, **kwargs))
            return balls[-1]

        monkeypatch.setattr(mtl21.screening, "dual_ball", logged_ball)
        mtl21.screening.sequential_path(ds, grid, loose_at_first_level)
        loose = fit(ds, grid[1], SolverConfig(kkt_tol=1e-2))
        assert 1e-3 < loose.kkt_residual <= 1e-2
        ref = ReferenceSolution.from_primal(ds, loose.weights, grid[1])
        balls.append(dual_ball(ds, ref, grid[2]))
        assert len(balls) == len(grid)
        for ball in balls:
            dist = float(np.linalg.norm(optimum[ball.lam] - ball.center))
            assert dist <= ball.radius * (1.0 + 1e-6) + 1e-9, (ball.lam, dist / ball.radius)
