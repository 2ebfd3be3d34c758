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
from .likelihood import total_hess_uv, total_loglik_uv, total_score_uv, uv_arrays
from .models import Theta

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_FLAT_TOL = 1e-12
_SCAN_POINTS = 33


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
    return _profile_mu_uv(u, v, omega2, space)


def _profile_mu_uv(u, v, omega2, space):
    d = 1.0 + omega2 * v
    den = math.fsum((v / d).tolist())
    if den == 0.0:
        raise AllDegenerate("every subject has V = 0")
    mu = math.fsum((u / d).tolist()) / den
    if space is not None:
        mu = space.clamp_mu(mu)
    return mu


def _golden_max(g, a, b, tol):
    """Golden-section maximization on [a, b]; ties move the bracket left.

    Returns (a, b, evals) with the final bracket no wider than tol.
    """
    evals = 0
    h = b - a
    if h <= tol:
        return a, b, evals
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc, fd = g(c), g(d)
    evals = 2
    while h > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INVPHI * h
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = g(d)
        evals += 1
    return a, b, evals


def _solve_2x2(h, s):
    det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
    if det == 0.0 or not np.isfinite(det):
        return None
    step = np.array(
        [
            (-s[0] * h[1, 1] + s[1] * h[0, 1]) / det,
            (-s[1] * h[0, 0] + s[0] * h[1, 0]) / det,
        ]
    )
    if not np.all(np.isfinite(step)):
        return None
    return step


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
    opts = opts or FitOptions()
    u, v = uv_arrays(all_stats)
    if len(u) == 0:
        raise EmptyEnsemble("cannot fit zero subjects")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise InvalidStats("U and V must be finite")
    if np.any(v < 0.0):
        raise InvalidStats("V must be >= 0")
    if np.all(v == 0.0):
        raise AllDegenerate("every subject has V = 0")
    if np.any((v == 0.0) & (u != 0.0)):
        raise NonFiniteObjective(
            "subject with V = 0 but U != 0 makes the objective infinite"
        )

    lo, hi = space.omega2_lo, space.omega2_hi

    def g(w2):
        mu = _profile_mu_uv(u, v, w2, space)
        return total_loglik_uv(u, v, mu, w2)

    # coarse scan; first argmax wins so ties resolve to the smaller omega2
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    gvals = [g(w2) for w2 in grid]
    j = int(np.argmax(gvals))
    a = grid[max(j - 1, 0)]
    b = grid[min(j + 1, _SCAN_POINTS - 1)]

    tol = opts.bracket_rtol * (hi - lo)
    a, b, golden_iters = _golden_max(g, a, b, tol)

    # candidate set keeps the exact rectangle endpoints so boundary optima
    # land exactly on the bounds; ascending order makes argmax ties resolve
    # to the smallest omega2
    candidates = sorted({a, b, lo, hi})
    cand_vals = [g(w2) for w2 in candidates]
    if max(cand_vals) - min(cand_vals) < _FLAT_TOL:
        w2_best = candidates[0]
    else:
        w2_best = candidates[int(np.argmax(cand_vals))]

    mu_best = _profile_mu_uv(u, v, w2_best, space)
    best = np.array([mu_best, w2_best])
    best_val = total_loglik_uv(u, v, best[0], best[1])

    def clamp(theta_vec):
        return np.array(
            [space.clamp_mu(theta_vec[0]), space.clamp_omega2(theta_vec[1])]
        )

    newton_iters = 0
    current, current_val = best, best_val
    for _ in range(opts.newton_steps):
        s = total_score_uv(u, v, current[0], current[1])
        if np.max(np.abs(s)) <= opts.score_tol:
            break
        h = total_hess_uv(u, v, current[0], current[1])
        step = _solve_2x2(h, s)
        if step is None:
            break
        moved = False
        alpha = 1.0
        for _ in range(opts.backtrack_halvings):
            trial = clamp(current + alpha * step)
            trial_val = total_loglik_uv(u, v, trial[0], trial[1])
            if trial_val >= current_val and not np.array_equal(trial, current):
                current, current_val = trial, trial_val
                moved = True
                break
            alpha *= 0.5
        newton_iters += 1
        if not moved:
            break

    # Newton is only kept if it did not lose ground (it cannot, by the
    # acceptance rule, but compare defensively)
    if current_val >= best_val:
        best, best_val = current, current_val

    theta_hat = Theta(mu=float(best[0]), omega2=float(best[1]))
    flags = []
    if theta_hat.mu == space.mu_lo:
        flags.append("mu_lo")
    if theta_hat.mu == space.mu_hi:
        flags.append("mu_hi")
    if theta_hat.omega2 == space.omega2_lo:
        flags.append("omega2_lo")
    if theta_hat.omega2 == space.omega2_hi:
        flags.append("omega2_hi")

    score = total_score_uv(u, v, theta_hat.mu, theta_hat.omega2)
    hess = total_hess_uv(u, v, theta_hat.mu, theta_hat.omega2)

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
        loglik=best_val,
        score_norm=float(np.max(np.abs(score))),
        hess=hess,
        boundary=tuple(flags),
        wald_se=wald_se,
        iterations=golden_iters + newton_iters,
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
    for w2 in np.linspace(space.omega2_lo, space.omega2_hi, grid_points):
        for mu in np.linspace(space.mu_lo, space.mu_hi, grid_points):
            if total_loglik_uv(u, v, mu, w2) > fit.loglik + slack:
                return False
    return True
