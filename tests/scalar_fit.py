"""The earlier fitter, one fit at a time, as a reference for the profile
Newton fitter.

scalar_fit is the optimizer as it ran before the profile Newton: a
33-point scan, golden-section bracketing and a projected Newton polish of
the 2-D objective with backtracking, one Python loop per ensemble, every
total a math.fsum over a list. estimator.fit_rows must reach a
log-likelihood at least as high, up to rounding, on every row.
"""

import math

import numpy as np

from sde_remle import MleFit, Theta

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_FLAT_TOL = 1e-12
_SCAN_POINTS = 33
_BRACKET_RTOL = 1e-6
_NEWTON_STEPS = 20
_SCORE_TOL = 1e-8
_BACKTRACK_HALVINGS = 10


def _clamp_mu(space, mu):
    return min(max(mu, space.mu_lo), space.mu_hi)


def _clamp_omega2(space, omega2):
    return min(max(omega2, space.omega2_lo), space.omega2_hi)


def _loglik(u, v, mu, omega2):
    d = 1.0 + omega2 * v
    terms = -0.5 * np.log1p(omega2 * v) + (
        (2.0 * mu) * u - (mu * mu) * v + omega2 * (u * u)
    ) / (2.0 * d)
    return math.fsum(terms.tolist())


def _gamma_cap(u, v, mu, omega2):
    d = 1.0 + omega2 * v
    return (u - mu * v) / d, v / d


def _score(u, v, mu, omega2):
    g, cap = _gamma_cap(u, v, mu, omega2)
    return np.array([math.fsum(g.tolist()), math.fsum((0.5 * (g * g - cap)).tolist())])


def _hess(u, v, mu, omega2):
    g, cap = _gamma_cap(u, v, mu, omega2)
    a = math.fsum((-cap).tolist())
    b = math.fsum((-g * cap).tolist())
    c = math.fsum((-0.5 * (2.0 * g * g * cap - cap * cap)).tolist())
    return np.array([[a, b], [b, c]])


def _profile_mu(u, v, omega2, space):
    d = 1.0 + omega2 * v
    den = math.fsum((v / d).tolist())
    return _clamp_mu(space, math.fsum((u / d).tolist()) / den)


def _golden_max(g, a, b, tol):
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
    step = np.array([
        (-s[0] * h[1, 1] + s[1] * h[0, 1]) / det,
        (-s[1] * h[0, 0] + s[0] * h[1, 0]) / det,
    ])
    if not np.all(np.isfinite(step)):
        return None
    return step


def scalar_fit(u, v, space):
    """fit_mle on one valid (u, v) pair of 1-D arrays, the scalar way."""
    lo, hi = space.omega2_lo, space.omega2_hi

    def g(w2):
        return _loglik(u, v, _profile_mu(u, v, w2, space), w2)

    grid = np.linspace(lo, hi, _SCAN_POINTS)
    j = int(np.argmax([g(w2) for w2 in grid]))
    a = grid[max(j - 1, 0)]
    b = grid[min(j + 1, _SCAN_POINTS - 1)]
    a, b, golden_iters = _golden_max(g, a, b, _BRACKET_RTOL * (hi - lo))

    candidates = sorted({a, b, lo, hi})
    cand_vals = [g(w2) for w2 in candidates]
    if max(cand_vals) - min(cand_vals) < _FLAT_TOL:
        w2_best = candidates[0]
    else:
        w2_best = candidates[int(np.argmax(cand_vals))]
    current = np.array([_profile_mu(u, v, w2_best, space), w2_best])
    current_val = _loglik(u, v, current[0], current[1])

    newton_iters = 0
    for _ in range(_NEWTON_STEPS):
        s = _score(u, v, current[0], current[1])
        if np.max(np.abs(s)) <= _SCORE_TOL:
            break
        step = _solve_2x2(_hess(u, v, current[0], current[1]), s)
        if step is None:
            break
        moved = False
        alpha = 1.0
        for _ in range(_BACKTRACK_HALVINGS):
            trial = current + alpha * step
            trial = np.array([_clamp_mu(space, trial[0]), _clamp_omega2(space, trial[1])])
            trial_val = _loglik(u, v, trial[0], trial[1])
            if trial_val >= current_val and not np.array_equal(trial, current):
                current, current_val = trial, trial_val
                moved = True
                break
            alpha *= 0.5
        newton_iters += 1
        if not moved:
            break

    theta_hat = Theta(mu=float(current[0]), omega2=float(current[1]))
    flags = tuple(name for name, hit in (
        ("mu_lo", theta_hat.mu == space.mu_lo),
        ("mu_hi", theta_hat.mu == space.mu_hi),
        ("omega2_lo", theta_hat.omega2 == space.omega2_lo),
        ("omega2_hi", theta_hat.omega2 == space.omega2_hi),
    ) if hit)
    score = _score(u, v, theta_hat.mu, theta_hat.omega2)
    hess = _hess(u, v, theta_hat.mu, theta_hat.omega2)
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
        loglik=current_val,
        score_norm=float(np.max(np.abs(score))),
        hess=hess,
        boundary=flags,
        wald_se=wald_se,
        iterations=golden_iters + newton_iters,
    )
