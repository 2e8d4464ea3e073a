"""The dual side of the row-sparse multi-task model.

The dual problem is a projection: the optimal dual point at level lam is the
Euclidean projection of y/lam onto the feasible set
F = {theta : sum_t <x_l_t, theta_t>^2 <= 1 for every feature l}. This module
evaluates the per-feature constraint, the smallest all-zero regularization
level ``lambda_max``, dual recovery from a primal iterate, and a certified
ball that contains the exact dual optimum at a target level given a solved
reference level. Every dual vector (a dual point, a normal, a ball's
center) is held as (T, n_max) rows with zero padding, the layout of the
dataset's ``y_stack``; one taken from a caller is checked by
``ds.dual_rows``.

Geometry of the ball: a reference is its level lambda0, the dual point
theta0 exactly as its solve left it, and the offset b of a half-space
<n, theta> <= b that holds on all of the feasible set F. Below the
threshold n = y/lambda0 - theta0 = X.W/lambda0 for the solve's weights W,
and for theta in F, Cauchy-Schwarz gives
<X.W, theta> = sum_l <w_l, X_l' theta> <= sum_l ||w_l||, so
b = sum_l ||w_l|| / lambda0 holds for any weights, solved exactly or not.
At the threshold n is the witness feature's constraint gradient at
y/lambda_max, 2 X_l* v with v = X_l*' y / lambda_max, and the same argument
gives b = 2 ||v||. The ball at lam starts from theta0 scaled into F,
theta_f: the exact dual optimum, the projection of y/lam onto F, lies in
the ball with diameter [theta_f, y/lam] (center c, radius R), and in the
half-space, so in the cap that the hyperplane cuts off that ball at depth
t = (<n, c> - b)/||n||. For 0 < t <= R that cap lies in the ball with
center c - t n/||n|| and radius sqrt(R^2 - t^2); for t <= 0 the ball stays
uncut. At an exact solve theta0 lies on the hyperplane and this is the
DPC ball. The scaling and the cut carry forward-error margins
(:func:`_ball_rtol`), so rounding neither leaves theta_f outside F nor moves
the hyperplane past the optimum. The center and radius themselves are
rounded once more, which no margin covers yet, like the score's read of the
center.

Carried images: a reference holds the adjoint image X't theta0, and a ball
X't center, on an increasing index array ``rows`` of features, one row each
holding the per-task inner products of that feature with the vector.
Screening needs only these rows, and the adjoint is linear, so each image is
formed with the same linear combination as its vector, from the dataset's
response image X't y, the reference's image and, at the threshold, the
dataset's witness normal image.

Carried bounds: along a path, :class:`ScoreBounds` carries for every feature
an upper bound on the largest ||X_l' theta|| over the last ball, and moves it
to the next ball (or to a point) by the triangle inequality, inflated by a
forward-error margin. Only the features whose moved bound reaches 1 need
image rows; with nothing carried every bound is +inf, so every feature is
refreshed. A sequential reference takes its dual point, and the image rows
of the features its solve kept, from the solve's last residual and gradient;
the other rows it and its ball need take one column-gathered adjoint each,
so a level reads the columns of the features that can still matter and no
others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LAMBDA_EQ_RTOL, _check_lambda, _frozen, as_weight_values, l21_norm
from .errors import (
    DimensionMismatch,
    LambdaOutOfRange,
    NegativeInnerProduct,
    NonFinite,
)

__all__ = [
    "feature_constraint_all",
    "dual_feasibility_violation",
    "lambda_max",
    "dual_from_primal",
    "ScoreBounds",
    "ReferenceSolution",
    "DualBall",
    "dual_ball",
]

EPS = float(np.finfo(np.float64).eps)


def _dot(u, v):
    """Inner product of two dual vectors, (T, n_max) rows read as one vector
    (np.dot of 2-D arrays is a matrix product)."""
    return float(np.dot(u.ravel(), v.ravel()))


def _norm(v):
    """Euclidean norm of a dual vector, as np.linalg.norm computes it."""
    return math.sqrt(_dot(v, v))


def feature_constraint_all(ds, theta):
    """Constraint values of every feature at once; returns a (d,) array."""
    return (ds.adjoint(ds.dual_rows(theta)) ** 2).sum(axis=1)


def dual_feasibility_violation(ds, theta):
    """max(0, max_l constraint_l - 1); zero means theta is dual feasible."""
    g = feature_constraint_all(ds, theta)
    return float(max(0.0, float(g.max(initial=0.0)) - 1.0))


def lambda_max(ds):
    """``(value, ell_star)``: the smallest level at which the solution is
    all-zero and its witness feature, the dataset's ``threshold``."""
    return ds.threshold


def dual_from_primal(ds, W, lam, support=None):
    """Dual point induced by a primal iterate, as read-only (T, n_max) rows:
    row t is (y_t - X_t w_t)/lam, zero on the padding.

    With ``support`` (feature indices), W holds just those features' rows;
    every other row is zero.
    """
    lam = _check_lambda(lam)
    if support is None:
        V = as_weight_values(W, ds.d, ds.T)
    else:
        V = np.zeros((ds.d, ds.T))
        V[support] = as_weight_values(W, len(support), ds.T)
    return _frozen((ds.y_stack - ds.forward(V)) / lam)


def _at_threshold(ds, lambda0):
    return math.isclose(lambda0, ds.threshold[0], rel_tol=LAMBDA_EQ_RTOL, abs_tol=0.0)


def _image_rows(ds, theta, rows, held, image):
    """Rows ``rows`` of X't theta, given its rows ``held`` in ``image`` (both
    increasing index arrays); the rows not held take one column-gathered
    adjoint."""
    pos = np.searchsorted(held, rows)
    have = pos < len(held)
    have[have] = held[pos[have]] == rows[have]
    if have.all():
        return image[pos]
    out = np.empty((len(rows), ds.T))
    out[have] = image[pos[have]]
    out[~have] = ds.adjoint(theta, rows[~have])
    return out


def _carry_rtol(ds):
    """Relative forward-error margin of one move of the carried bounds.

    A move rounds an N-term norm (the center shift; the exact zeros of the
    padding add no rounding), the n_max-term column norms behind sqrt(rho),
    a few additions whose terms, times sqrt(rho_l), are each at most the
    moved bound (a valid u_l is at least sqrt(rho_l) times the old radius),
    and the square root the next bound is read back through; by the
    standard summation bound (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.1) their relative error
    stays below (N + n_max + 16) eps, and the margin is four times that.
    """
    return 4.0 * (ds.N + ds.X_stack.shape[1] + 16) * EPS


def _ball_rtol(ds):
    """Relative forward-error margin of a ball's scaling and cut.

    The scaling reads theta0's largest constraint value from its image rows.
    Each entry of a row is an n_max-term inner product divided by lambda0
    (the solve's gradient, or a column-gathered adjoint), off by at most
    gamma_(n_max+2) ||x_l_t|| ||theta0_t||, so the row is off by at most that
    times sqrt(rho_l) ||theta0|| in norm; the T-term row norm, the reciprocal
    and the scaling itself add a few relative eps. The normal
    n = y/lambda0 - theta0 differs from X.W/lambda0 by the rounding of the
    forward product's d-term sums, at most gamma_d sum_l sqrt(rho_l) ||w_l||
    <= gamma_d max_l sqrt(rho_l) lambda0 b in norm, and of the residual's
    subtraction and the two divisions, gamma_5 ||y||; over the uncut ball,
    which holds the optimum, that moves <n, theta> by at most this times
    ||c|| + R. <n, c> and ||n|| are N-term sums and b a sum of d row norms of
    T entries. By the standard summation bound (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.1) each of these stays below
    (d + N + T + 16) eps times its scale, and the margin is four times that.
    """
    return 4.0 * (ds.d + ds.N + ds.T + 16) * EPS


def _offset(ds, lambda0, l21):
    """The offset b of the reference half-space at ``lambda0`` whose
    weights have l2,1 norm ``l21``, lifted by :func:`_ball_rtol`: l21/lambda0
    below the threshold, 2 ||X_l*' y|| / lambda_max at it, whatever the
    weights, since there the ball cuts along the witness normal."""
    if _at_threshold(ds, lambda0):
        lmax, ell_star = ds.threshold
        l21, lambda0 = 2.0 * _norm(ds.response_image[ell_star]), lmax
    return l21 / lambda0 * (1.0 + _ball_rtol(ds))


@dataclass(frozen=True)
class ScoreBounds:
    """Per-feature upper bounds carried from one ball to the next.

    ``u[l]`` bounds the largest ||X_l' theta|| over the ball (``center``,
    ``radius``), the square root of feature l's largest constraint value
    there; a feature whose bound stays below 1 is inactive there.
    """

    center: np.ndarray
    radius: float
    u: np.ndarray

    def over(self, ds, center, radius=0.0):
        """The bounds moved onto the ball (``center``, ``radius``); a point
        when the radius is 0.

        Every point of the new ball lies within ||center - self.center|| +
        radius of the old center, so within the positive part s of that minus
        self.radius of the old ball, and theta -> X_l' theta has norm
        sqrt(rho_l) = max_t ||x_l_t||: u_l + sqrt(rho_l) * s bounds the new
        ball. The result is inflated by :func:`_carry_rtol`, so a bound that
        rounds to just below 1 still reaches it.
        """
        dist = _norm(center - self.center) + radius - self.radius
        u = self.u + ds.col_norm_max * max(0.0, dist)
        u *= 1.0 + _carry_rtol(ds)
        return u


@dataclass(frozen=True)
class ReferenceSolution:
    """A reference level ``lambda0``: the dual point ``theta0`` there, exactly
    as its solve left it, as read-only (T, n_max) rows; the adjoint image
    ``image`` = X't theta0 on the features ``rows``, an increasing index
    array with one image row per feature (every feature when built without
    ``rows``), covering every feature whose constraint value at theta0 can
    reach 1; and the ``offset`` b of the half-space <n, theta> <= b that
    holds on the feasible set, for the normal n that theta0 and lambda0 fix
    (see the module notes). ``offset`` +inf claims no half-space, so its
    balls stay uncut; a negative one excludes the zero point of the feasible
    set and raises NegativeInnerProduct. A NaN or infinite level, dual point
    or image raises NonFinite.
    """

    lambda0: float
    theta0: np.ndarray
    image: np.ndarray
    offset: float
    rows: np.ndarray | None = None

    def __post_init__(self):
        if not math.isfinite(self.lambda0):
            raise NonFinite(f"reference level must be finite, got {self.lambda0}")
        if self.lambda0 <= 0:
            raise LambdaOutOfRange(f"reference level must be positive, got {self.lambda0}")
        if not (np.isfinite(self.theta0).all() and np.isfinite(self.image).all()):
            raise NonFinite("a reference's dual point and image must be finite")
        if not self.offset >= 0:
            raise NegativeInnerProduct(
                f"half-space offset {self.offset} excludes 0, a feasible point; "
                "the reference is inconsistent"
            )
        if self.rows is None:
            object.__setattr__(self, "rows", np.arange(len(self.image)))
        elif len(self.image) != len(self.rows):
            raise DimensionMismatch("an image needs one row per feature it covers")

    @classmethod
    def at_lambda_max(cls, ds):
        """Reference at the all-zero threshold, where the dual point is known
        in closed form (y/lambda_max)."""
        lmax, _ = ds.threshold
        theta0 = _frozen(ds.y_stack / lmax)
        return cls(lmax, theta0, ds.response_image / lmax, _offset(ds, lmax, 0.0))

    @classmethod
    def from_primal(cls, ds, W, lambda0, bounds=None, support=None, solve=None):
        """Reference built from a primal iterate at ``lambda0``, solved to
        any tolerance: its offset is the weights' l2,1 norm over lambda0
        (the witness normal's at the threshold).

        ``support`` is as in :func:`dual_from_primal`. When ``solve``, the
        :class:`~mtl21.solver.FitResult` the weights come from, kept its
        last products, the dual point is its residual rows over -lambda0 and
        the support's image rows are its gradient over -lambda0; otherwise
        the dual point comes from :func:`dual_from_primal` and no row is
        held. Weights that are not the solve's, or a gradient without one
        row per support feature, raise DimensionMismatch.

        The image covers the held rows and the features whose bound, moved
        to theta0, reaches 1 (every feature without ``bounds``, the
        :class:`ScoreBounds` of the last ball): every other feature has a
        constraint value below 1 there. Rows not held take one
        column-gathered adjoint.
        """
        lambda0 = float(lambda0)
        V = as_weight_values(W, ds.d if support is None else len(support), ds.T)
        if solve is not None and not np.array_equal(V, as_weight_values(solve.weights)):
            raise DimensionMismatch("the reference weights are not the given solve's weights")
        if solve is not None and solve.residual is not None and solve.gradient is not None:
            theta0 = _frozen(solve.residual / -lambda0)
            held = np.arange(ds.d) if support is None else np.asarray(support)
            if solve.gradient.shape != (len(held), ds.T):
                raise DimensionMismatch(
                    f"solve gradient shape {solve.gradient.shape}, expected {(len(held), ds.T)}"
                )
            held_image = solve.gradient / -lambda0
        else:
            theta0 = dual_from_primal(ds, V, lambda0, support)
            held, held_image = np.zeros(0, dtype=int), np.zeros((0, ds.T))
        moved = np.full(ds.d, np.inf) if bounds is None else bounds.over(ds, theta0)
        refresh = moved >= 1.0
        refresh[held] = True
        rows = np.flatnonzero(refresh)
        image = _image_rows(ds, theta0, rows, held, held_image)
        return cls(lambda0, theta0, image, _offset(ds, lambda0, l21_norm(V)), rows)


@dataclass(frozen=True)
class DualBall:
    """Certified region containing the exact dual optimum at level ``lam``.

    ``center`` is a dual point, read-only (T, n_max) rows. ``image`` holds
    the adjoint image X't center on the features ``rows`` (as in
    :class:`ReferenceSolution`), and ``bound`` for every feature an upper
    bound on its largest ||X_l' theta|| over the ball, below 1 off ``rows``:
    carried from the last ball, or +inf.
    """

    center: np.ndarray
    radius: float
    lam: float
    lambda0: float
    image: np.ndarray
    rows: np.ndarray
    bound: np.ndarray

    def __post_init__(self):
        if not self.radius >= 0:
            raise LambdaOutOfRange(f"radius must be nonnegative, got {self.radius}")
        if not 0 < self.lam < self.lambda0:
            raise LambdaOutOfRange(
                f"need 0 < lam < lambda0, got lam={self.lam}, lambda0={self.lambda0}"
            )
        if len(self.image) != len(self.rows):
            raise DimensionMismatch("an image needs one row per feature it covers")


def dual_ball(ds, ref, lam, bounds=None):
    """Ball containing the exact dual optimum at ``lam`` given a reference.

    theta0 is scaled into the feasible set by s, the reciprocal of its
    largest constraint norm (at least 1) lifted by :func:`_ball_rtol`; the
    uncut ball has diameter [s theta0, y/lam]. It is cut along the
    reference's half-space <n, theta> <= b (module notes) at depth t: no cut
    when t <= 0 or n = 0, center moved by -t n/||n|| and radius
    sqrt(R^2 - t^2) when 0 < t <= R. The optimum lies in both, so t > R
    means the reference is inconsistent and raises NegativeInnerProduct.
    A reference above the threshold raises LambdaOutOfRange.

    The ball's bounds are the :class:`ScoreBounds` of the last ball moved
    onto it, or +inf without ``bounds``. Its image covers the features whose
    bound reaches 1, formed like the center from X't y, the reference's
    image and the normal's (X't y / lambda0 minus it, or the witness
    normal's), so the ball makes no product; rows the reference lacks take
    one column-gathered adjoint.
    """
    lam = _check_lambda(lam)
    if lam >= ref.lambda0:
        raise LambdaOutOfRange(
            f"target level {lam} must be below the reference level {ref.lambda0}"
        )
    lmax, _ = ds.threshold
    if ref.lambda0 > lmax * (1 + LAMBDA_EQ_RTOL):
        raise LambdaOutOfRange(f"reference level {ref.lambda0} outside (0, {lmax}]")
    y = ds.y_stack
    th0 = ds.dual_rows(ref.theta0)
    rtol = _ball_rtol(ds)
    rho = float(ds.col_norm_max.max())
    g_max = float((ref.image**2).sum(axis=1).max(initial=0.0))
    s = 1.0 / ((math.sqrt(max(1.0, g_max)) + rtol * rho * _norm(th0)) * (1.0 + rtol))
    th_f = s * th0
    center = 0.5 * (th_f + y / lam)
    radius = 0.5 * _norm(y / lam - th_f)

    at_threshold = _at_threshold(ds, ref.lambda0)
    n = ds.witness_normal[0] if at_threshold else y / ref.lambda0 - th0
    n_norm = _norm(n)
    # the rounding of n and of <n, c>, over the uncut ball
    slack = rtol * (rho * ref.offset + _norm(y) / ref.lambda0) * (_norm(center) + radius)
    t = (_dot(n, center) - ref.offset - slack) / n_norm if n_norm > 0 else -math.inf
    if t > radius:
        raise NegativeInnerProduct(
            f"the reference half-space misses the ball (cut depth {t:.3e} beyond "
            f"radius {radius:.3e}); the reference is inconsistent"
        )
    tau = 0.0
    if t > 0:
        tau = t / n_norm
        center = center - tau * n
        radius = math.sqrt((radius - t) * (radius + t))
    center = _frozen(center)

    moved = np.full(ds.d, np.inf) if bounds is None else bounds.over(ds, center, radius)
    rows = np.flatnonzero(moved >= 1.0)
    image0 = _image_rows(ds, th0, rows, ref.rows, ref.image)
    response = ds.response_image[rows]
    # X't center = 0.5 X't y / lam + 0.5 s X't theta0 - tau X't n
    image = response * (0.5 / lam)
    image += (0.5 * s) * image0
    if tau > 0:
        n_image = ds.witness_normal[1][rows] if at_threshold else response / ref.lambda0 - image0
        image -= tau * n_image
    return DualBall(center, radius, lam, ref.lambda0, image, rows, moved)
