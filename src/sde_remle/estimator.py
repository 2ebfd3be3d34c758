"""Maximum likelihood over a compact rectangle.

The ensemble log-likelihood is strictly concave in mu for fixed omega2, so
mu is profiled in closed form and the search reduces to one dimension:
a coarse scan plus golden-section bracketing of the profiled objective
g(omega2), followed by a short projected Newton polish of the full 2-D
objective using the analytic score and Hessian. Everything is
deterministic: identical inputs give a bit-identical fit.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AllDegenerate, EmptyEnsemble, InvalidStats, NonFiniteObjective
from .likelihood import _row_totals, total_hess_uv, total_loglik_uv, total_score_uv, uv_arrays
from .models import Theta

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_FLAT_TOL = 1e-12
_SCAN_POINTS = 33
# terms per row block of fit_rows: each (rows, n) temporary stays at
# 128 KB, inside the cache, whatever the batch size
_BLOCK_TERMS = 1 << 14


@dataclass(frozen=True)
class FitOptions:
    """Tuning knobs for fit_mle; defaults satisfy the accuracy contracts."""

    bracket_rtol: float = 1e-6
    newton_steps: int = 20
    score_tol: float = 1e-8
    backtrack_halvings: int = 10


@dataclass(frozen=True)
class MleFit:
    """Result of one maximization.

    boundary lists the rectangle edges the estimate landed on (subset of
    {"mu_lo", "mu_hi", "omega2_lo", "omega2_hi"}); wald_se is None when the
    optimum is on the boundary or the curvature is not invertible.
    """

    theta_hat: Theta
    loglik: float
    score_norm: float
    hess: np.ndarray
    boundary: tuple
    wald_se: Optional[tuple]
    iterations: int


def profile_mu(omega2, all_stats, space=None):
    """Closed-form maximizer of the log-likelihood over mu at fixed omega2.

    Solves sum(gamma_i) = 0:
        mu_hat = [sum U_i/(1+w2 V_i)] / [sum V_i/(1+w2 V_i)]
    clamped into [mu_lo, mu_hi] when a space is given. Replacing every U_i
    by U_i + c*V_i shifts the unclamped value by exactly c.
    """
    u, v = uv_arrays(all_stats)
    return float(_profile_mu_rows(u[None, :], v[None, :], np.array([omega2]), space)[0])


def _profile_mu_rows(u, v, omega2, space):
    """profile_mu for every row of (R, n) arrays at per-row omega2."""
    d = 1.0 + omega2[:, None] * v
    den, num = _row_totals((v / d, u / d)).T
    if not den.all():
        raise AllDegenerate("every subject has V = 0")
    mu = num / den
    if space is not None:
        mu = _clamp(mu, space.mu_lo, space.mu_hi)
    return mu


def _clamp(x, lo, hi):
    # min(max(x, lo), hi) with Python's tie rule: on equal values the
    # argument that came first is kept, down to the sign of a zero
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def _check_rows(u, v):
    """fit_mle's input checks on every row; the lowest failing row raises."""
    if u.shape[1] == 0:
        raise EmptyEnsemble("cannot fit zero subjects")
    zero_v = v == 0.0
    failing = (
        (~(np.isfinite(u).all(axis=1) & np.isfinite(v).all(axis=1)),
         InvalidStats("U and V must be finite")),
        ((v < 0.0).any(axis=1), InvalidStats("V must be >= 0")),
        (zero_v.all(axis=1), AllDegenerate("every subject has V = 0")),
        ((zero_v & (u != 0.0)).any(axis=1), NonFiniteObjective(
            "subject with V = 0 but U != 0 makes the objective infinite"
        )),
    )
    rows = np.stack([mask for mask, _ in failing], axis=1)
    if rows.any():
        r = int(np.argmax(rows.any(axis=1)))
        raise failing[int(np.argmax(rows[r]))][1]


def fit_mle(all_stats, space, opts=None):
    """Maximize the ensemble log-likelihood over the closed rectangle.

    Stages: 33-point scan of the profiled objective (guards against a
    multimodal profile), golden-section bracketing to a width of
    bracket_rtol times the omega2 range, then at most newton_steps
    projected Newton iterations on (mu, omega2), each accepted only if the
    objective does not decrease. A flat final bracket (spread below 1e-12)
    resolves to its smallest omega2.

    Raises InvalidStats when any U or V is not finite or any V < 0,
    AllDegenerate when every V_i = 0 and NonFiniteObjective when any
    subject carries the V = 0, U != 0 sentinel.
    """
    u, v = uv_arrays(all_stats)
    return fit_rows(np.asarray(u, dtype=float)[None, :],
                    np.asarray(v, dtype=float)[None, :], space, opts)[0]


def fit_rows(u, v, space, opts=None):
    """fit_mle on every row of (R, n) arrays u, v, in lockstep.

    Returns R MleFits; fit r equals fit_mle((u[r], v[r]), space, opts) in
    every field, bit for bit. Every stage runs on all rows at once, and
    per-row masks stop each row where the scalar fit would stop it: the
    golden section when its own bracket is narrow enough, Newton when its
    own score is small or its step is refused. The lowest row that fails
    fit_mle's input checks raises its error.
    """
    opts = opts or FitOptions()
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[0] == 0:
        return []
    _check_rows(u, v)
    block = max(1, _BLOCK_TERMS // u.shape[1])
    return [
        fit
        for start in range(0, u.shape[0], block)
        for fit in _fit_block(
            np.ascontiguousarray(u[start:start + block]),
            np.ascontiguousarray(v[start:start + block]),
            space, opts,
        )
    ]


def _fit_block(u, v, space, opts):
    rows = u.shape[0]
    lo, hi = space.omega2_lo, space.omega2_hi

    def g(w2):
        return total_loglik_uv(u, v, _profile_mu_rows(u, v, w2, space), w2)

    # coarse scan; first argmax wins so ties resolve to the smaller omega2
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    gvals = np.empty((rows, _SCAN_POINTS))
    for k, w2 in enumerate(grid):
        gvals[:, k] = g(np.full(rows, w2))
    j = np.argmax(gvals, axis=1)
    a = grid[np.maximum(j - 1, 0)]
    b = grid[np.minimum(j + 1, _SCAN_POINTS - 1)]

    tol = opts.bracket_rtol * (hi - lo)
    a, b, golden_iters = _golden_rows(g, a, b, tol)

    # candidate set keeps the exact rectangle endpoints so boundary optima
    # land exactly on the bounds; ascending order makes argmax ties resolve
    # to the smallest omega2 (a repeated candidate repeats its value, so
    # the first argmax picks the omega2 the de-duplicated set would)
    candidates = np.sort(
        np.stack([a, b, np.full(rows, float(lo)), np.full(rows, float(hi))], axis=1),
        axis=1,
    )
    cand_vals = np.stack([g(candidates[:, k]) for k in range(4)], axis=1)
    top, bottom = cand_vals[:, 0], cand_vals[:, 0]
    for k in range(1, 4):
        # Python's max and min: a later value replaces only if it compares
        top = np.where(cand_vals[:, k] > top, cand_vals[:, k], top)
        bottom = np.where(cand_vals[:, k] < bottom, cand_vals[:, k], bottom)
    pick = np.where(top - bottom < _FLAT_TOL, 0, np.argmax(cand_vals, axis=1))
    w2_best = candidates[np.arange(rows), pick]
    mu_best = _profile_mu_rows(u, v, w2_best, space)
    best_val = total_loglik_uv(u, v, mu_best, w2_best)

    # Newton only accepts steps that do not lower the objective, so its
    # end point is never worse than the bracket's best
    mu_hat, w2_hat, val, newton_iters = _newton_rows(
        u, v, space, opts, mu_best, w2_best, best_val
    )
    scores = total_score_uv(u, v, mu_hat, w2_hat)
    hessians = total_hess_uv(u, v, mu_hat, w2_hat)
    return [
        _mle_fit(space, *fields)
        for fields in zip(mu_hat.tolist(), w2_hat.tolist(), val.tolist(), scores,
                          hessians, (golden_iters + newton_iters).tolist())
    ]


def _golden_rows(g, a, b, tol):
    """Golden-section maximization of every row on [a, b]; ties move the
    bracket left.

    Returns (a, b, evals) with each final bracket no wider than tol; a row
    that starts narrower than tol is left alone with no evaluations.
    """
    h = b - a
    active = h > tol
    evals = np.where(active, 2, 0)
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc, fd = g(c), g(d)
    while active.any():
        left = active & (fc >= fd)
        right = active & ~(fc >= fd)
        a, b = np.where(right, c, a), np.where(left, d, b)
        c, d = np.where(right, d, c), np.where(left, c, d)
        fc, fd = np.where(right, fd, fc), np.where(left, fc, fd)
        h = np.where(active, b - a, h)
        c = np.where(left, b - _INVPHI * h, c)
        d = np.where(right, a + _INVPHI * h, d)
        fx = g(np.where(left, c, d))
        fc = np.where(left, fx, fc)
        fd = np.where(right, fx, fd)
        evals += active
        active &= h > tol
    return a, b, evals


def _newton_rows(u, v, space, opts, mu, w2, val):
    """Projected Newton from (mu, w2) on every row, with backtracking.

    A row stops when its score is within score_tol, its Newton system is
    singular or not finite, or no halving of its step is accepted; a trial
    is accepted only if it moves and does not lower the objective.
    Returns (mu, w2, objective, iterations) per row.
    """
    mu, w2, val = mu.copy(), w2.copy(), val.copy()
    iters = np.zeros(len(mu), dtype=np.int64)
    live = np.arange(len(mu))
    for _ in range(opts.newton_steps):
        if live.size == 0:
            break
        s = total_score_uv(u[live], v[live], mu[live], w2[live])
        going = ~(np.abs(s).max(axis=1) <= opts.score_tol)
        live, s = live[going], s[going]
        if live.size == 0:
            break
        ul, vl = u[live], v[live]
        cur_mu, cur_w2, cur_val = mu[live], w2[live], val[live]
        step_mu, step_w2, pending = _solve_rows(total_hess_uv(ul, vl, cur_mu, cur_w2), s)
        solved = pending.copy()
        alpha = 1.0
        for _ in range(opts.backtrack_halvings):
            if not pending.any():
                break
            t_mu = _clamp(cur_mu + alpha * step_mu, space.mu_lo, space.mu_hi)
            t_w2 = _clamp(cur_w2 + alpha * step_w2, space.omega2_lo, space.omega2_hi)
            t_val = total_loglik_uv(ul, vl, t_mu, t_w2)
            take = pending & (t_val >= cur_val) & ~((t_mu == cur_mu) & (t_w2 == cur_w2))
            cur_mu = np.where(take, t_mu, cur_mu)
            cur_w2 = np.where(take, t_w2, cur_w2)
            cur_val = np.where(take, t_val, cur_val)
            pending &= ~take
            alpha *= 0.5
        mu[live], w2[live], val[live] = cur_mu, cur_w2, cur_val
        iters[live[solved]] += 1
        live = live[solved & ~pending]
    return mu, w2, val, iters


def _solve_rows(h, s):
    """Newton steps -h^-1 s per row; solved is False where the 2x2 system
    is singular or the step is not finite, and its step is then 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
        step_mu = (-s[:, 0] * h[:, 1, 1] + s[:, 1] * h[:, 0, 1]) / det
        step_w2 = (-s[:, 1] * h[:, 0, 0] + s[:, 0] * h[:, 1, 0]) / det
    solved = (det != 0.0) & np.isfinite(det) & np.isfinite(step_mu) & np.isfinite(step_w2)
    # an unsolved row takes no trial step
    return np.where(solved, step_mu, 0.0), np.where(solved, step_w2, 0.0), solved


def _mle_fit(space, mu, w2, loglik, score, hess, iterations):
    theta_hat = Theta(mu=mu, omega2=w2)
    flags = []
    if theta_hat.mu == space.mu_lo:
        flags.append("mu_lo")
    if theta_hat.mu == space.mu_hi:
        flags.append("mu_hi")
    if theta_hat.omega2 == space.omega2_lo:
        flags.append("omega2_lo")
    if theta_hat.omega2 == space.omega2_hi:
        flags.append("omega2_hi")

    wald_se = None
    if not flags:
        neg = -hess
        det = neg[0, 0] * neg[1, 1] - neg[0, 1] * neg[1, 0]
        if det > 0 and neg[0, 0] > 0:
            var_mu = neg[1, 1] / det
            var_w2 = neg[0, 0] / det
            if var_mu > 0 and var_w2 > 0:
                wald_se = (math.sqrt(var_mu), math.sqrt(var_w2))

    return MleFit(
        theta_hat=theta_hat,
        loglik=loglik,
        score_norm=float(np.max(np.abs(score))),
        hess=hess.copy(),
        boundary=tuple(flags),
        wald_se=wald_se,
        iterations=iterations,
    )


def audit_fit(fit, all_stats, space, grid_points=50):
    """True iff the fitted objective beats every point of an audit grid.

    Cheap guard used by tests and diagnostics: evaluates the objective on a
    grid_points x grid_points lattice over the rectangle and checks
    loglik(theta_hat) >= loglik(theta) everywhere (up to one part in 1e12
    of slack for ties).
    """
    u, v = uv_arrays(all_stats)
    slack = 1e-12 * max(1.0, abs(fit.loglik))
    mus = np.linspace(space.mu_lo, space.mu_hi, grid_points)
    shape = (grid_points, len(u))
    u, v = np.broadcast_to(u, shape), np.broadcast_to(v, shape)
    for w2 in np.linspace(space.omega2_lo, space.omega2_hi, grid_points):
        if np.any(total_loglik_uv(u, v, mus, w2) > fit.loglik + slack):
            return False
    return True
