"""Primal solver for the row-sparse multi-task model, plus the equivalent
problem reductions (per-task loss weights; added Frobenius ridge).

The objective is sum_t 0.5*||y_t - X_t w_t||^2 + lam * sum_l ||w_l||, with
w_l the l-th row of W. The solver is accelerated proximal gradient with the
row-wise group soft-threshold as the proximal step; rows whose shrinkage
factor hits zero are stored as exact zeros, which is what makes "inactive"
well defined downstream.

Convergence is certified on the stationarity residual rather than objective
stall: at a solution, each nonzero row of M = [X_t' theta_t] (theta the dual
point induced by W) equals the unit row direction, and zero rows of W need
||m_l|| <= 1. The residual reported is the max over rows of the violation,
evaluated in one masked pass over the rows from the accepted iterate's row
norms, the same ones that give its l2,1 term.

The backtracking step starts from 1/L with L = max_t ||X_t||_F^2 / 8 summed
over the columns of the start point's nonzero rows (over every column when
it is zero), so a warm start inside a small active set begins with a step
suited to those columns rather than to the whole design. L is only a guess:
it doubles until the step decreases the objective enough and decays by 0.97
per iteration, and ``kkt <= kkt_tol`` stays the only acceptance rule.

Each iteration makes one forward product per step trial (the candidate's
residual rows) and one adjoint (the accepted iterate's gradient). The
momentum point's residual rows and gradient are the same linear combination
of the last two accepted iterates' images, so they cost no product; the
certificate is always evaluated from the fresh forward and adjoint products
of the accepted iterate itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    MultiTaskDataset,
    WeightMatrix,
    _check_lambda,
    _row_norms,
    as_weight_values,
    l21_norm,
    validate_dataset,
)
from .dual import feature_constraint_all
from .errors import MaxItersExceeded, NonFinite, NonPositiveRho, NonPositiveWeight

__all__ = [
    "SolverConfig",
    "FitResult",
    "fit",
    "objective",
    "kkt_residual",
    "duality_gap",
    "reduce_weighted",
    "reduce_frobenius",
    "weighted_objective",
    "frobenius_objective",
]


@dataclass
class SolverConfig:
    """Knobs of one fit call: the iteration budget, the stationarity
    certificate to reach, and optional starting weights."""

    max_iters: int = 20000
    kkt_tol: float = 1e-6
    warm_start: object = None

    def __post_init__(self):
        try:
            operator.index(self.max_iters)
        except TypeError:
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}") from None
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 < self.kkt_tol < math.inf:
            raise ValueError(f"kkt_tol must be positive and finite, got {self.kkt_tol}")


@dataclass
class FitResult:
    """A certified solve (a solver that misses its tolerance raises rather
    than returning one). ``residual`` holds the (T, n_max) padded rows
    X_t w_t - y_t of the returned weights and ``gradient`` their adjoint
    image, the solver's last products; a solver that does not keep them
    leaves both None."""

    weights: WeightMatrix
    n_iters: int
    kkt_residual: float
    objective: float
    residual: np.ndarray | None = None
    gradient: np.ndarray | None = None


def _loss(R):
    """Half the squared norm of (T, n_max) residual rows."""
    return 0.5 * float(np.einsum("ij,ij->", R, R))


def objective(ds, W, lam):
    """Data loss plus lam times the sum of row norms."""
    lam = _check_lambda(lam)
    V = as_weight_values(W, ds.d, ds.T)
    return _loss(ds.forward(V) - ds.y_stack) + lam * l21_norm(V)


def _row_prox(G, thresh):
    """Row-wise group soft-threshold; rows at or below thresh become exact 0.

    The cut compares two independently rounded evaluations of the same real
    quantity (a row norm against a scaled level), so it carries a few-ulp
    relative slack; without it, a row sitting exactly at the shrinkage
    boundary can survive with entries on the order of 1e-18 instead of the
    exact zero the boundary case calls for.
    """
    rn = _row_norms(G)
    cut = thresh * (1.0 + 8.0 * np.finfo(np.float64).eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(rn > cut, 1.0 - thresh / np.where(rn == 0.0, 1.0, rn), 0.0)
    return factor[:, None] * G


def _kkt_from_M(M, V, rn):
    """Stationarity residual given M = [X_t' theta_t], the weights and their
    row norms, in one masked pass over the rows: a nonzero row is compared
    with its unit direction, and a zero row (divided by 1, so it stays an
    exact zero) leaves ||m_l|| - 1, the amount by which m_l leaves the unit
    ball."""
    nz = rn > 0
    diff = M - V / np.where(nz, rn, 1.0)[:, None]
    dn = _row_norms(diff)
    return float(np.where(nz, dn, dn - 1.0).max(initial=0.0))


def kkt_residual(ds, W, lam):
    """Independent stationarity residual of a weight matrix at level lam."""
    lam = _check_lambda(lam)
    V = as_weight_values(W, ds.d, ds.T)
    M = ds.adjoint((ds.y_stack - ds.forward(V)) / lam)
    return _kkt_from_M(M, V, _row_norms(V))


def duality_gap(ds, W, lam):
    """Primal objective minus the dual objective at the feasibility-scaled
    dual point induced by W, both read from one forward product. Nonnegative
    up to rounding; shrinks to zero as the fit tightens."""
    lam = _check_lambda(lam)
    V = as_weight_values(W, ds.d, ds.T)
    R = ds.forward(V) - ds.y_stack
    theta = R / -lam
    gmax = float(feature_constraint_all(ds, theta).max(initial=0.0))
    scale = 1.0 / max(1.0, np.sqrt(gmax))
    th, y = (theta * scale).ravel(), ds.y_stack.ravel()
    dual_val = lam * float(np.dot(th, y)) - 0.5 * lam * lam * float(np.dot(th, th))
    return _loss(R) + lam * l21_norm(V) - dual_val


def fit(ds, lam, cfg=None):
    """Minimize the row-sparse objective at one regularization level.

    Returns a :class:`FitResult` whose ``kkt_residual`` is the certificate at
    the returned iterate, computed from fresh products of that iterate and
    its row norms. The first step size comes from the squared norms of the
    columns the warm start's nonzero rows use (all columns without a warm
    start) and is corrected by backtracking. An iteration costs one forward
    product per step trial and one adjoint, so a fit makes ``n_iters + 1``
    adjoints in all. Raises
    :class:`MaxItersExceeded` (carrying the best iterate, its residual and
    the iterations spent) if the tolerance is not met in ``cfg.max_iters``
    iterations.
    """
    cfg = cfg or SolverConfig()
    lam = _check_lambda(lam)
    validate_dataset(ds)
    d, T = ds.d, ds.T

    if cfg.warm_start is not None:
        W = as_weight_values(cfg.warm_start, d, T).copy()
    else:
        W = np.zeros((d, T))

    # max_t ||X_t||_F^2 / 8 over the columns the start point uses (all of
    # them from zero); backtracking corrects a guess that is too small
    support = (W != 0.0).any(axis=1)
    cn = ds.col_norms[support] if support.any() else ds.col_norms
    L = max(float((cn**2).sum(axis=0).max()), 1e-12) / 8.0

    def prox_step(V, G, FV_loss, L):
        # backtracked proximal step; L only ever grows inside one step
        while True:
            eta = 1.0 / L
            cand = _row_prox(V - eta * G, lam * eta)
            Rc = ds.forward(cand) - ds.y_stack
            loss_c = _loss(Rc)
            diff = cand - V
            quad = FV_loss + float(np.einsum("ij,ij->", G, diff)) + 0.5 * L * float(
                np.einsum("ij,ij->", diff, diff)
            )
            if loss_c <= quad + 1e-12 * max(1.0, abs(quad)):
                rn_c = _row_norms(cand)
                F_c = loss_c + lam * float(rn_c.sum())
                return cand, Rc, loss_c, rn_c, F_c, L
            L *= 2.0

    # accepted iterate W: its residual rows R = X.W - y, loss and gradient G;
    # V is the momentum point, with its residual rows, loss and gradient
    R = ds.forward(W) - ds.y_stack
    loss = _loss(R)
    G = ds.adjoint(R)
    F = loss + lam * l21_norm(W)
    V, RV, FV_loss, GV = W, R, loss, G
    t_k = 1.0
    best_resid = np.inf
    best_W = W  # iterates are fresh arrays that are never written to

    for k in range(1, cfg.max_iters + 1):
        cand, Rc, loss_c, rn_c, F_cand, L = prox_step(V, GV, FV_loss, L)
        if F_cand > F:
            # momentum overshot: retake the step from the last accepted point
            t_k = 1.0
            V = W
            cand, Rc, loss_c, rn_c, F_cand, L = prox_step(W, G, loss, L)
        W_prev, R_prev, G_prev = W, R, G
        W, R, loss = cand, Rc, loss_c
        G = ds.adjoint(R)
        F = min(F, F_cand)

        # stationarity certificate at the accepted iterate, from the fresh
        # forward and adjoint products of W itself
        resid = _kkt_from_M(-G / lam, W, rn_c)
        if resid < best_resid:
            best_resid = resid
            best_W = W
        if resid <= cfg.kkt_tol:
            return FitResult(
                weights=WeightMatrix(W),
                n_iters=k,
                kkt_residual=resid,
                objective=F_cand,
                residual=R,
                gradient=G,
            )

        dW = W - W_prev
        if float(np.einsum("ij,ij->", V - W, dW)) > 0.0:
            # update direction opposes the momentum step: drop the inertia
            t_k = 1.0
            V, RV, FV_loss, GV = W, R, loss, G
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
            beta = (t_k - 1.0) / t_next
            t_k = t_next
            # both products are linear, so the images of V are the same
            # combination of the two accepted iterates' fresh images
            V = W + beta * dW
            RV = R + beta * (R - R_prev)
            GV = G + beta * (G - G_prev)
            FV_loss = _loss(RV)
        L *= 0.97

    raise MaxItersExceeded(
        f"no {cfg.kkt_tol:g} stationarity certificate in {cfg.max_iters} iterations "
        f"(best residual {best_resid:.3e})",
        weights=WeightMatrix(best_W),
        residual=float(best_resid),
        n_iters=cfg.max_iters,
    )


def _check_task_weights(ds, weights):
    """``weights`` as a float array, one per task, raising NonFinite for NaN
    or an infinity and NonPositiveWeight for a wrong length or a weight <= 0."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != ds.T:
        raise NonPositiveWeight(f"need {ds.T} weights, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise NonFinite("weights must be finite")
    if (w <= 0).any():
        raise NonPositiveWeight("weights must be positive")
    return w


def _check_rho(rho):
    """``rho`` as a float, raising NonFinite for NaN or an infinity and
    NonPositiveRho for rho <= 0."""
    rho = float(rho)
    if not math.isfinite(rho):
        raise NonFinite(f"rho must be finite, got {rho}")
    if rho <= 0:
        raise NonPositiveRho(f"rho must be positive, got {rho}")
    return rho


def reduce_weighted(ds, weights):
    """Rescale so a per-task weighted loss becomes the plain objective.

    The weighted model scales task t's squared loss by 1/weights[t]; dividing
    X_t and y_t by sqrt(weights[t]) makes the plain objective on the new data
    equal the weighted objective on the old.
    """
    w = _check_task_weights(ds, weights)
    return MultiTaskDataset(
        [(ds.X[t] / np.sqrt(w[t]), ds.y[t] / np.sqrt(w[t])) for t in range(ds.T)]
    )


def weighted_objective(ds, W, lam, weights):
    """Objective of the per-task weighted model on the original data."""
    lam = _check_lambda(lam)
    w = _check_task_weights(ds, weights)
    V = as_weight_values(W, ds.d, ds.T)
    R = ds.forward(V) - ds.y_stack
    loss = 0.5 * float((np.einsum("ij,ij->i", R, R) / w).sum())
    return loss + lam * l21_norm(V)


def reduce_frobenius(ds, rho):
    """Fold a Frobenius ridge into the data by appended identity rows.

    Each task gains d rows sqrt(2 rho) * I and d zero responses; the plain
    objective on the result equals the ridge objective on the original.
    """
    rho = _check_rho(rho)
    d = ds.d
    block = np.sqrt(2.0 * rho) * np.eye(d)
    zeros = np.zeros(d)
    return MultiTaskDataset(
        [
            (np.vstack([ds.X[t], block]), np.concatenate([ds.y[t], zeros]))
            for t in range(ds.T)
        ]
    )


def frobenius_objective(ds, W, lam, rho):
    """Objective of the ridge-augmented model on the original data."""
    rho = _check_rho(rho)
    V = as_weight_values(W, ds.d, ds.T)
    return objective(ds, V, lam) + rho * float(np.einsum("ij,ij->", V, V))
