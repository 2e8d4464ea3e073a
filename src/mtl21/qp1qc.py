"""Per-feature screening bound: maximize a feature's constraint value over
the certified dual ball.

In a per-task reduced coordinate system the problem becomes, for feature l,

    maximize  sum_t (a_t u_t^2 + 2 b_t u_t) + sum_t c_t^2   over  ||u|| <= Delta,

with a_t the squared column norm, c_t the column/center inner product, and
b_t = sqrt(a_t) * |c_t|. The maximizer has a unique multiplier
alpha* >= 2 rho (rho = max_t a_t): either the closed form alpha* = 2 rho
applies, or alpha* is the root of the secular equation
1/||u(alpha)|| = 1/Delta with u_t(alpha) = 2 b_t / (alpha - 2 a_t), found by
a safeguarded Newton iteration.

The reported bound is the multiplier dual value
sum c^2 + (alpha/2) Delta^2 + sum_t b_t u_t(alpha), which upper-bounds the
true maximum for every alpha > 2 rho; screening safety therefore never
depends on root-finding precision.

All d features of one ball share Delta, so :func:`solve_batch` solves many
instances at once, one per row; it is the one entry to the exact maximum.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NoConvergence

__all__ = ["solve_batch", "screening_scores"]

# per-iterate convergence target on | ||u|| - Delta |, times max(Delta, 1)
TARGET_RTOL = 1e-12
# residual beyond this (same scaling) after the loop ends raises NoConvergence
FAIL_RTOL = 1e-10
MAX_ITERS = 50
# switch to pure bisection after this many Newton steps without convergence
BISECT_AFTER = 10
# screening_scores decides a feature from its bracket only when the bracket
# clears 1 by more than this times (T + 4), the rounding of either end
BRACKET_RTOL = 16.0 * np.finfo(np.float64).eps


def _bracket(A, B, csum, delta):
    """Lower and upper bounds on each instance's maximum, without iterating.

    Below: the objective at the boundary point u = delta * b / ||b||,
    csum + 2 delta ||b|| + delta^2 sum_t a_t b_t^2 / ||b||^2. Above: the
    multiplier dual value at alpha = 2 rho + 2 ||b|| / delta, the smallest
    alpha at which ||u(alpha)|| <= delta is guaranteed (each
    alpha - 2 a_t is then at least 2 ||b|| / delta), so alpha >= alpha*.
    (:func:`solve_batch` starts its Newton bracket higher, at
    2 rho + 4 ||b|| / delta.) The two differ by at most about rho delta^2.
    Without b (then C vanishes too) both are the exact maximum
    csum + rho delta^2.
    """
    if delta == 0.0:
        return csum, csum
    rho = A.max(axis=1)
    q2 = np.einsum("ij,ij->i", B, B)
    q = np.sqrt(q2)
    alpha = 2.0 * rho + 2.0 * q / delta
    with np.errstate(divide="ignore", invalid="ignore"):
        lower = csum + 2.0 * delta * q + delta * delta * np.einsum("ij,ij->i", A, B * B) / q2
        upper = csum + 0.5 * alpha * delta * delta + 2.0 * np.einsum(
            "ij,ij->i", B, B / (alpha[:, None] - 2.0 * A)
        )
    flat = q2 == 0.0
    if flat.any():
        lower[flat] = upper[flat] = csum[flat] + rho[flat] * delta * delta
    return lower, upper


def solve_batch(A, B, C, delta, strict=True):
    """Solve many instances sharing one radius.

    Parameters are (m, T) arrays (rows are instances) and the scalar radius.
    They must describe instances: T >= 1 (else DimensionMismatch), A and B
    nonnegative, B zero wherever A is (a zero column carries no weight), and
    delta >= 0 (each else ValueError).
    Returns ``(s, alpha, u, iters, newton_mask, converged)`` where s is the
    (m,) vector of maxima, u the (m, T) maximizers, iters the per-row Newton
    iteration counts (0 on the closed-form branch), newton_mask flags rows
    solved by the root-finder, and converged flags rows that met the 1e-12
    target. With ``strict`` (the default), rows whose residual exceeds the
    1e-10 failure tolerance after the safeguarded loop raise NoConvergence.

    With ``strict=False`` no failure raises: every returned s is the
    multiplier dual value at the final alpha, which upper-bounds the true
    maximum for any alpha above 2*max(a), so a consumer that only thresholds
    s (screening does) stays conservative even on rows whose boundary
    equation is unresolvable at float64 spacing. Such rows are reported with
    ``converged`` False.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if A.ndim != 2 or A.shape != B.shape or A.shape != C.shape:
        raise DimensionMismatch("A, B, C must share one (m, T) shape")
    m, T = A.shape
    if T == 0:
        raise DimensionMismatch("an instance needs at least one task")
    if (A < 0).any() or (B < 0).any():
        raise ValueError("A and B must be nonnegative")
    if (B[A == 0] != 0).any():
        raise ValueError("B must vanish wherever A does")
    delta = float(delta)
    if not delta >= 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    s = np.zeros(m)
    alpha = np.zeros(m)
    u = np.zeros((m, T))
    iters = np.zeros(m, dtype=int)
    newton_mask = np.zeros(m, dtype=bool)
    converged = np.ones(m, dtype=bool)
    if m == 0:
        return s, alpha, u, iters, newton_mask, converged

    rho = A.max(axis=1)
    top = A == rho[:, None]
    csum = np.einsum("ij,ij->i", C, C)

    if delta == 0.0:
        # point ball: the maximum is the constraint value at the center
        s[:] = csum
        alpha[:] = 2.0 * rho
        return s, alpha, u, iters, newton_mask, converged

    # candidate off-top coordinates of the closed-form maximizer
    denom = rho[:, None] - A
    with np.errstate(divide="ignore", invalid="ignore"):
        ubar = np.where(top, 0.0, B / np.where(top, 1.0, denom))
    ubar_sq = np.einsum("ij,ij->i", ubar, ubar)
    c_top_zero = ~np.any(top & (C != 0.0), axis=1)
    closed = (ubar_sq <= delta * delta) & c_top_zero

    if closed.any():
        idx = np.flatnonzero(closed)
        uc = ubar[idx]
        # complete to the sphere on the smallest top-curvature index
        fill = np.sqrt(np.maximum(delta * delta - ubar_sq[idx], 0.0))
        first_top = np.argmax(top[idx], axis=1)
        uc[np.arange(len(idx)), first_top] += fill
        u[idx] = uc
        alpha[idx] = 2.0 * rho[idx]
        s[idx] = csum[idx] + rho[idx] * delta * delta + np.einsum(
            "ij,ij->i", B[idx], uc
        )

    newton = ~closed
    if newton.any():
        idx = np.flatnonzero(newton)
        newton_mask[idx] = True
        a = A[idx]
        b = B[idx]
        rho_n = rho[idx]
        top_n = top[idx]
        k = len(idx)
        qnorm = 2.0 * np.sqrt(np.einsum("ij,ij->i", b, b))
        lo = 2.0 * rho_n
        hi = 2.0 * rho_n + 2.0 * qnorm / delta
        # bump off the pole when the top set carries weight
        pole = np.any(top_n & (b > 0.0), axis=1)
        al = lo + np.where(pole, 1e-12 * np.maximum(rho_n, 1.0), 0.0)
        tol_target = TARGET_RTOL * max(delta, 1.0)
        un = np.zeros(k)
        uv = np.zeros((k, T))
        it_count = np.zeros(k, dtype=int)
        # every quantity below is row-local, so the loop runs on a compacted
        # index of unresolved rows; per-row trajectories are unchanged
        act = np.arange(k)
        for it in range(1, MAX_ITERS + 1):
            if act.size == 0:
                break
            al_s = al[act]
            den = al_s[:, None] - 2.0 * a[act]
            b_s = b[act]
            with np.errstate(divide="ignore", invalid="ignore"):
                cand_u = np.where(
                    b_s == 0.0, 0.0, 2.0 * b_s / np.where(den == 0.0, 1.0, den)
                )
            un_s = np.sqrt(np.einsum("ij,ij->i", cand_u, cand_u))
            uv[act] = cand_u
            un[act] = un_s
            it_count[act] = it
            alive = np.abs(un_s - delta) > tol_target
            if not alive.any():
                break
            act = act[alive]
            al_s = al_s[alive]
            un_s = un_s[alive]
            den = den[alive]
            cand_u = cand_u[alive]
            over = un_s > delta
            lo[act] = np.where(over, al_s, lo[act])
            hi[act] = np.where(~over, al_s, hi[act])
            lo_s = lo[act]
            hi_s = hi[act]
            if it < BISECT_AFTER:
                with np.errstate(divide="ignore", invalid="ignore"):
                    slope_terms = np.where(cand_u == 0.0, 0.0, cand_u * cand_u / den)
                    dslope = slope_terms.sum(axis=1)
                    step = un_s * un_s * (un_s - delta) / (delta * dslope)
                cand = al_s + step
                bad = ~np.isfinite(cand) | (cand <= lo_s) | (cand > hi_s)
                cand = np.where(bad, 0.5 * (lo_s + hi_s), cand)
            else:
                cand = 0.5 * (lo_s + hi_s)
            moved = cand != al_s
            act = act[moved]  # a step that cannot move any more is a stall
            al[act] = cand[moved]
        alpha[idx] = al
        u[idx] = uv
        iters[idx] = it_count
        resid = np.abs(un - delta)
        conv = resid <= tol_target
        converged[idx] = conv
        # multiplier dual value: upper-bounds the true maximum for alpha > 2 rho
        s[idx] = csum[idx] + 0.5 * al * delta * delta + np.einsum("ij,ij->i", b, uv)
        fail = resid > FAIL_RTOL * max(delta, 1.0)
        if strict and fail.any():
            worst = int(np.argmax(resid))
            raise NoConvergence(
                f"{int(fail.sum())} instance(s) failed the boundary tolerance; "
                f"worst residual {float(resid[worst]):.3e} at row {int(idx[worst])}"
            )

    return s, alpha, u, iters, newton_mask, converged


def screening_scores(ds, ball):
    """Certified screening scores for every feature; (d,) array.

    Two stages, each certifying an upper bound on the feature's maximum
    constraint value over the ball. Each feature on the ball's image rows is
    bracketed without iterating (:func:`_bracket`) and scores the upper end;
    a bracket that lies on one side of 1, by more than its rounding, decides
    the feature as its exact maximum would. Only the features whose bracket
    straddles 1 get the exact maximization. The upper end is never above the
    triangle-inequality bound (||c|| + sqrt(rho) * Delta)^2 with
    rho = max_t a_t: at its alpha each alpha - 2 a_t is at least 2 q / Delta
    with q = ||b|| <= sqrt(rho) ||c||, so it is at most
    ||c||^2 + rho Delta^2 + 2 q Delta.

    Every other feature scores the square of its carried bound, which the
    ball's moves inflated by a forward-error margin and which stays below 1.
    A ball that carries nothing has every bound +inf and every feature on its
    rows.

    Thresholding at 1 therefore gives the same mask as thresholding every
    feature's exact maximum, for a fraction of its cost, but a score may
    exceed the true maximum. Use :func:`solve_batch` (non-strict) on a
    feature's reduced data when the values themselves matter.
    """
    rows = ball.rows
    delta = float(ball.radius)
    C = ball.image
    cn = ds.col_norms[rows]
    A, B = cn**2, cn * np.abs(C)
    lower, upper = _bracket(A, B, np.einsum("ij,ij->i", C, C), delta)
    # rows whose bracket leaves 1 undecided, by more than its rounding, get
    # the exact maximum
    tight = BRACKET_RTOL * (ds.T + 4)
    open_ = (lower <= 1.0 + tight) & (upper >= 1.0 - tight)
    if open_.any():
        upper[open_] = solve_batch(A[open_], B[open_], C[open_], delta, strict=False)[0]
    scores = ball.bound**2
    scores[rows] = upper
    return scores
