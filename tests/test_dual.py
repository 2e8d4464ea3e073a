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
    feature_constraint,
    feature_constraint_all,
    feature_constraint_grad,
    lambda_max,
    normal_vector,
)
from mtl21.errors import (
    DegenerateData,
    DimensionMismatch,
    IndexOutOfRange,
    LambdaOutOfRange,
    NegativeInnerProduct,
    NonPositiveLambda,
    ZeroNormal,
)
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
        assert math.isclose(feature_constraint(ds, th, 0), 1.0 / 49.0, rel_tol=1e-15)
        assert math.isclose(feature_constraint(ds, th, 1), 4.0 / 49.0, rel_tol=1e-15)

    def test_index_out_of_range(self):
        ds = hand_dataset()
        with pytest.raises(IndexOutOfRange):
            feature_constraint(ds, np.zeros((1, 2)), 2)
        with pytest.raises(IndexOutOfRange):
            feature_constraint(ds, np.zeros((1, 2)), -1)

    def test_all_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ds = random_dataset(rng)
            th = rng.standard_normal(ds.y_stack.shape)
            g = feature_constraint_all(ds, th)
            for ell in range(ds.d):
                assert math.isclose(g[ell], constraint_oracle(ds, th, ell), rel_tol=1e-12)
                assert math.isclose(
                    g[ell], feature_constraint(ds, th, ell), rel_tol=1e-13
                )

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng)
        th = rng.standard_normal(ds.y_stack.shape)
        g1 = feature_constraint_all(ds, th)
        for c in (2.0, -3.5, 0.125):
            gc = feature_constraint_all(ds, c * th)
            np.testing.assert_allclose(gc, c * c * g1, rtol=1e-12)

    def test_gradient_against_central_differences(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, T=2, d=5, n=4)
        th = rng.standard_normal(ds.y_stack.shape)
        h = 1e-6
        for ell in range(ds.d):
            grad = feature_constraint_grad(ds, th, ell)
            assert grad.shape == th.shape
            for i in np.ndindex(th.shape):
                e = np.zeros(th.shape)
                e[i] = h
                fd = (
                    feature_constraint(ds, th + e, ell)
                    - feature_constraint(ds, th - e, ell)
                ) / (2 * h)
                assert math.isclose(grad[i], fd, rel_tol=1e-5, abs_tol=1e-7)

    def test_gradient_hand_value(self):
        ds = hand_dataset()
        np.testing.assert_allclose(
            feature_constraint_grad(ds, np.array([[1.0, 0.0]]), 0), [[2.0, 0.0]]
        )


class TestViolation:
    def test_hand_value(self):
        ds = hand_dataset()
        assert dual_feasibility_violation(ds, np.array([[2.0, 0.0]])) == 3.0

    def test_zero_inside_feasible_set(self):
        ds = hand_dataset()
        assert dual_feasibility_violation(ds, np.array([[0.1, 0.1]])) == 0.0

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

    def test_cached_on_dataset(self):
        ds = hand_dataset()
        assert lambda_max(ds) is lambda_max(ds)


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


class TestNormalVector:
    def test_below_threshold_is_residual_direction(self):
        ds = hand_dataset()
        n = normal_vector(ds, np.array([[1.0, 0.0]]), 1.0)
        np.testing.assert_allclose(n, [[1.0, 0.0]])

    def test_at_threshold_uses_witness_gradient(self):
        ds = hand_dataset()
        n = normal_vector(ds, np.array([[1.0, 0.0]]), 2.0)
        np.testing.assert_allclose(n, [[2.0, 0.0]])

    def test_at_threshold_requires_matching_point(self):
        ds = hand_dataset()
        with pytest.raises(LambdaOutOfRange):
            normal_vector(ds, np.array([[0.5, 0.5]]), 2.0)

    def test_at_threshold_tolerance_is_relative(self):
        # with X scaled by 1e8, ||y/lambda_max|| is about 3e-9: the zero
        # vector lies within 1e-8 of y/lambda_max, but not within 1e-8 of it
        # relative to its norm
        ds, _ = generate(SynthConfig(kind="s1", tasks=3, n_per_task=20, d=50, seed=1))
        scaled = MultiTaskDataset([(X * 1e8, y) for X, y in zip(ds.X, ds.y)])
        lmax = lambda_max(scaled)[0]
        assert np.linalg.norm(scaled.y_stack / lmax) < 1e-8
        with pytest.raises(LambdaOutOfRange):
            normal_vector(scaled, np.zeros(scaled.y_stack.shape), lmax)

    def test_zero_normal(self):
        ds = hand_dataset()
        y = np.array([[2.0, 0.0]])
        with pytest.raises(ZeroNormal):
            normal_vector(ds, y / 1.0, 1.0)

    def test_level_out_of_range(self):
        ds = hand_dataset()
        with pytest.raises(LambdaOutOfRange):
            normal_vector(ds, np.zeros((1, 2)), 2.5)
        with pytest.raises(LambdaOutOfRange):
            normal_vector(ds, np.zeros((1, 2)), -1.0)


class TestReferenceSolution:
    def test_at_lambda_max(self):
        ds = hand_dataset()
        ref = ReferenceSolution.at_lambda_max(ds)
        assert ref.lambda0 == 2.0
        np.testing.assert_allclose(ref.theta0, [[1.0, 0.0]])
        # the normal is derived from the reference: the witness gradient
        np.testing.assert_allclose(normal_vector(ds, ref.theta0, ref.lambda0), [[2.0, 0.0]])
        assert "n0" not in {f.name for f in dataclasses.fields(ReferenceSolution)}

    def test_from_primal_zero_weights_has_no_normal(self):
        # W = 0 below the threshold puts theta0 exactly at y/lambda0, where
        # the normal vanishes and the ball is left uncut
        ds = hand_dataset()
        ref = ReferenceSolution.from_primal(ds, np.zeros((2, 1)), 1.0)
        np.testing.assert_allclose(ref.theta0, [[2.0, 0.0]])
        with pytest.raises(ZeroNormal):
            normal_vector(ds, ref.theta0, ref.lambda0)
        ball = dual_ball(ds, ref, 0.5)
        np.testing.assert_allclose(ball.center, [[3.0, 0.0]])
        assert ball.radius == 1.0

    def test_from_primal_sign_check(self):
        # weights that anti-correlate the fit with the response are rejected
        ds = hand_dataset()
        with pytest.raises(NegativeInnerProduct):
            ReferenceSolution.from_primal(ds, np.array([[-1.0], [0.0]]), 1.0)

    def test_rejects_non_positive_level(self):
        ds = hand_dataset()
        theta0 = np.array([[1.0, 0.0]])
        with pytest.raises(LambdaOutOfRange):
            ReferenceSolution(lambda0=0.0, theta0=theta0, image=ds.adjoint(theta0))


class TestDualBall:
    # references at lambda0 = 1 with normal n = y/lambda0 - theta0, so
    # theta0 = y - n; the target lam = 0.5 gives r = y/lam - theta0 = (2, 0) + n
    def ref(self, ds, n):
        theta0 = np.array([[2.0, 0.0]]) - np.asarray([n], dtype=float)
        return ReferenceSolution(lambda0=1.0, theta0=theta0, image=ds.adjoint(theta0))

    def assert_ball(self, ds, ball, center, radius):
        np.testing.assert_allclose(ball.center, [center], rtol=1e-15, atol=1e-15)
        assert math.isclose(ball.radius, radius, rel_tol=1e-15, abs_tol=1e-15)
        # the carried image is X' center, on every feature
        np.testing.assert_array_equal(ball.rows, [0, 1])
        np.testing.assert_allclose(ball.image, ds.adjoint(ball.center), rtol=1e-15, atol=1e-15)

    def test_aligned_normal_gives_zero_radius(self):
        # residual (3, 0) parallel to the normal: the whole gap is projected away
        ds = hand_dataset()
        ball = dual_ball(ds, self.ref(ds, [1.0, 0.0]), 0.5)
        self.assert_ball(ds, ball, [1.0, 0.0], 0.0)

    def test_orthogonal_normal_keeps_residual(self):
        # n = (-1, 1) is orthogonal to r = (1, 1): nothing is removed
        ds = hand_dataset()
        ball = dual_ball(ds, self.ref(ds, [-1.0, 1.0]), 0.5)
        self.assert_ball(ds, ball, [3.5, -0.5], math.sqrt(2.0) / 2.0)

    def test_oblique_normal_hand_value(self):
        # n = (1, 1), r = (3, 1): coefficient 2, r_perp = (1, -1)
        ds = hand_dataset()
        ball = dual_ball(ds, self.ref(ds, [1.0, 1.0]), 0.5)
        self.assert_ball(ds, ball, [1.5, -1.5], math.sqrt(2.0) / 2.0)

    def test_no_normal_falls_back_to_unprojected(self):
        # theta0 = y/lambda0: the normal is zero and the ball uncut, r = (2, 0)
        ds = hand_dataset()
        ball = dual_ball(ds, self.ref(ds, [0.0, 0.0]), 0.5)
        self.assert_ball(ds, ball, [3.0, 0.0], 1.0)

    def test_negative_inner_product(self):
        # n = (-1, 0) against r = (1, 0)
        ds = hand_dataset()
        with pytest.raises(NegativeInnerProduct):
            dual_ball(ds, self.ref(ds, [-1.0, 0.0]), 0.5)

    def test_target_must_be_below_reference(self):
        ds = hand_dataset()
        with pytest.raises(LambdaOutOfRange):
            dual_ball(ds, self.ref(ds, [1.0, 0.0]), 1.0)
        with pytest.raises(NonPositiveLambda):
            dual_ball(ds, self.ref(ds, [1.0, 0.0]), 0.0)

    def test_ball_type_invariants(self):
        ds = hand_dataset()
        image = ds.adjoint(np.zeros((1, 2)))
        with pytest.raises(LambdaOutOfRange):
            DualBall(center=np.zeros((1, 2)), radius=-0.1, lam=0.5, lambda0=1.0, image=image)
        with pytest.raises(LambdaOutOfRange):
            DualBall(center=np.zeros((1, 2)), radius=0.1, lam=1.0, lambda0=1.0, image=image)
        # rows and carried bounds come together; without both, the image
        # covers every feature and every bound is +inf
        ball = DualBall(center=np.zeros((1, 2)), radius=0.1, lam=0.5, lambda0=1.0, image=image)
        np.testing.assert_array_equal(ball.rows, [0, 1])
        assert np.isinf(ball.bound).all() and ball.bound.shape == (2,)
        with pytest.raises(DimensionMismatch):
            DualBall(np.zeros((1, 2)), 0.1, 0.5, 1.0, image[:1], rows=np.array([1]))
        with pytest.raises(DimensionMismatch):
            DualBall(np.zeros((1, 2)), 0.1, 0.5, 1.0, image, bound=np.zeros(2))
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
        with pytest.raises(DimensionMismatch):
            normal_vector(ds, theta, 0.5 * lmax)
        ref = ReferenceSolution(lmax, theta, ds.response_image / lmax)
        with pytest.raises(DimensionMismatch):
            dual_ball(ds, ref, 0.5 * lmax)

    def test_accepted(self):
        # the same entries in the padded layout pass every entry point
        ds = self.uneven_dataset()
        lmax, _ = lambda_max(ds)
        theta = ds.y_stack / lmax
        assert dual_feasibility_violation(ds, theta) <= 1e-12
        normal_vector(ds, theta, lmax)
        ref = ReferenceSolution(lmax, theta, ds.response_image / lmax)
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
