"""Exact per-subject likelihood, score, Hessian, and log density ratio,
vectorized over (U, V) arrays, and their exactly rounded ensemble totals.

Integrating the Girsanov factor exp(phi*U - phi^2*V/2) against the
N(mu, omega2) law of phi gives the closed-form per-subject likelihood

    lambda(U, V, theta) = (1 + w2*V)^(-1/2)
        * exp[(2*mu*U - mu^2*V + w2*U^2) / (2*(1 + w2*V))] * m(U, V)

where m is a theta-free factor exp(U^2/(2V)) absorbed into the dominating
measure. Everything here is written in that combined rational form, which
stays finite as V -> 0 and never divides by V.

With d = 1 + w2*V, the building blocks

    gamma = (U - mu*V) / d        (score in mu)
    I     = V / d                 (per-subject information weight)

give score = (gamma, (gamma^2 - I)/2) and the Hessian
[[-I, -gamma*I], [-gamma*I, -(2*gamma^2*I - I^2)/2]].

The per-subject terms are loglik_terms, score_terms, hess_terms and
ratio_terms; total_*_uv sum them per row of (R, n) arrays, one ensemble
per row. Degenerate hand-built inputs with V = 0 but U != 0
(impossible for stats computed from an actual grid) make the theta-free
factor infinite; for those loglik_terms reports +inf as a sentinel,
which the optimizer refuses to consume. Ratios and derivatives are
unaffected because the factor cancels there.
"""

import math

import numpy as np


def loglik_terms(u, v, mu, omega2):
    """Per-subject log-likelihood terms, vectorized over (u, v).

    Returns +inf exactly where v == 0 and u != 0 (the degenerate-input
    sentinel); finite everywhere else.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    terms = -0.5 * np.log1p(omega2 * v) + (2.0 * mu * u - mu * mu * v + u * u * omega2) / (
        (omega2 * v + 1.0) * 2.0)
    return np.where((v == 0.0) & (u != 0.0), np.inf, terms)


def gamma_cap(u, v, mu, omega2):
    """The pair (gamma, I) vectorized over (u, v)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    d = 1.0 + omega2 * v
    return (u - mu * v) / d, v / d


def score_terms(u, v, mu, omega2):
    """Per-subject score components (d/dmu, d/domega2), vectorized."""
    g, cap = gamma_cap(u, v, mu, omega2)
    return g, 0.5 * (g * g - cap)


def hess_terms(u, v, mu, omega2):
    """Per-subject Hessian entries (h_mumu, h_muw, h_ww), vectorized."""
    g, cap = gamma_cap(u, v, mu, omega2)
    return -cap, -g * cap, -0.5 * (2.0 * g * g * cap - cap * cap)


def ratio_terms(u, v, theta0, theta):
    """Per-subject log density ratio log f(x|theta0) - log f(x|theta).

    Implemented directly from the six-term expansion (not as a difference
    of two loglik_terms calls), so the theta-free factor cancels by
    construction and the result is finite even at v = 0.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    mu0, w20 = theta0.mu, theta0.omega2
    mu, w2 = theta.mu, theta.omega2
    d0 = 1.0 + w20 * v
    d = 1.0 + w2 * v
    # paired grouping: each parenthesized difference vanishes exactly when
    # theta == theta0, so the self-ratio is identically zero
    return (
        0.5 * (np.log1p(w2 * v) - np.log1p(w20 * v))
        + 0.5 * (w20 - w2) * u * u / (d * d0)
        + ((mu * mu) * v / (2.0 * d) - (mu0 * mu0) * v / (2.0 * d0))
        + (mu0 * u / d0 - mu * u / d)
    )


# cap on error-free extraction passes; a row whose terms span more binary
# orders than the cap covers is summed by math.fsum instead
_FSUM_PASSES = 8


def _row_fsum(p):
    """Exactly rounded sum of each row of a 2-D float array, which it may
    overwrite.

    Entry r equals math.fsum(p[r]) bit for bit, so row totals do not depend
    on term order or on how rows were batched. On rows with an inf or NaN
    term, or terms too close to overflow, the result or the error raised
    is math.fsum's own.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SISC 2008): with sigma = 2^(M + e), 2^M >= n + 2
    and every |p| < 2^e, q = (p + sigma) - sigma is a multiple of
    2^-53 sigma and p - q is exact, so q sums exactly in any order and
    |p - q| <= 2^-53 sigma bounds the next pass. Once every residual is 0
    the few pass totals carry the exact row sum, and one correctly rounded
    sum of them is math.fsum of the row.
    """
    rows, n = p.shape
    out = np.zeros(rows)
    if n == 0 or rows == 0:
        return out
    m = (n + 1).bit_length()
    big = np.maximum(p.max(axis=1), -p.min(axis=1))
    e = np.frexp(big)[1]
    special = ~np.isfinite(big) | (e + m > 1023)
    if special.any():
        for r in np.flatnonzero(special):
            out[r] = math.fsum(p[r].tolist())
        p[special] = 0.0
        e[special] = 0
    sigma = np.ldexp(1.0, e + m)[:, None]
    q = np.empty_like(p)
    totals = []
    done = False
    for _ in range(_FSUM_PASSES):
        np.add(p, sigma, out=q)
        q -= sigma
        p -= q
        totals.append(q.sum(axis=1))
        if not p.any():
            done = True
            break
        sigma = np.ldexp(sigma, m - 53)
    if done and len(totals) <= 2:
        # one IEEE addition is correctly rounded; pass totals are never -0.0
        total = totals[0] if len(totals) == 1 else totals[0] + totals[1]
        return np.where(special, out, total)
    totals = np.stack(totals, axis=1).tolist()
    for r in np.flatnonzero(~special):
        # rows the passes did not finish add their residual terms
        out[r] = math.fsum(totals[r] if done else totals[r] + p[r].tolist())
    return out


def _row_totals(parts):
    """Exactly rounded row sums of k equal-shape (R, n) term arrays, as (R, k)."""
    stacked = np.stack(parts)
    k, rows, n = stacked.shape
    return _row_fsum(stacked.reshape(k * rows, n)).reshape(k, rows).T


def _col(x):
    # per-row parameters broadcast down the columns of (R, n) terms
    return np.asarray(x, dtype=float).reshape(-1, 1)


def total_loglik_uv(u, v, mu, omega2):
    """Per-row log-likelihood totals of (R, n) arrays u, v.

    mu and omega2 are scalars or one value per row; entry r is exactly
    rounded, so it depends neither on the order of row r's terms nor on
    the other rows.
    """
    return _row_fsum(loglik_terms(u, v, _col(mu), _col(omega2)))


def total_score_uv(u, v, mu, omega2):
    """Per-row score totals, shape (R, 2), with total_loglik_uv's contract."""
    return _row_totals(score_terms(u, v, _col(mu), _col(omega2)))


def total_hess_uv(u, v, mu, omega2):
    """Per-row Hessian totals, shape (R, 2, 2), with total_loglik_uv's contract."""
    h = _row_totals(hess_terms(u, v, _col(mu), _col(omega2)))
    return h[:, [0, 1, 1, 2]].reshape(-1, 2, 2)

