"""Test oracles that check the library from outside it.

audit_fit certifies a fit against a grid of the objective; profile_mu
is the fitter's closed-form mu at one omega2; decompose
splits a simulated path's U, given its phi, into its drift and
martingale parts;
stored_paths runs the Euler kernel on one unchunked block of rows and
first_nonfinite_step finds where a row of states diverged;
path_increments and left_fold rebuild (U, V) from stored rows.
unit_info and unit_kl are the unit model's closed forms at one design
point; reduce_reference is asymptotics._reduce in plain Python floats,
and identity_gap checks the information identity on fisher_info_mc's
rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from sde_remle.asymptotics import _columns, _draw, _reduce
from sde_remle.estimator import _profile_sums, _ratio
from sde_remle.likelihood import hess_terms, score_terms, total_loglik_uv
from sde_remle.rng import generator
from sde_remle.simulate import _euler_rows, time_grid


@dataclass(frozen=True)
class SuffStatsDecomposition:
    """Split of U into its drift and martingale parts: u = phi*u1 + u2.

    u1 equals V by construction and u2 is recovered residually as
    u - phi*u1, so the identity holds exactly at any step size.
    """

    u1: float
    u2: float
    phi: float


def decompose(phi, u, v):
    """Split the U = u of a path simulated with effect phi as phi*u1 + u2,
    given its V = v.

    u1 is the same left-endpoint sum as V; u2 is defined residually so the
    identity is exact.
    """
    return SuffStatsDecomposition(u1=v, u2=u - phi * v, phi=phi)


def profile_mu(omega2, u, v, space=None):
    """Closed-form maximizer over mu, at fixed omega2, of the log-likelihood
    of the subjects with statistics u, v (1-D arrays), from the fitter's
    own sums.

    Solves sum(gamma_i) = 0:
        mu_hat = [sum U_i/(1+w2 V_i)] / [sum V_i/(1+w2 V_i)]
    clamped into [mu_lo, mu_hi] when a space is given. Replacing every U_i
    by U_i + c*V_i shifts the unclamped value by exactly c.
    """
    u, v = np.asarray(u, dtype=float)[None, :], np.asarray(v, dtype=float)[None, :]
    _, _, den, num = _profile_sums(u, v, np.array([omega2]))
    mu = _ratio(num, den)
    if space is not None:
        mu = np.clip(mu, space.mu_lo, space.mu_hi)
    return float(mu[0])


def audit_fit(fit, u, v, space, grid_points=50):
    """True iff the fitted objective beats every point of an audit grid.

    Evaluates the objective on a grid_points x grid_points lattice over
    the rectangle and checks loglik(theta_hat) >= loglik(theta) everywhere
    (up to one part in 1e12 of slack for ties).
    """
    slack = 1e-12 * max(1.0, abs(fit.loglik))
    mus = np.linspace(space.mu_lo, space.mu_hi, grid_points)
    shape = (grid_points, len(u))
    u, v = np.broadcast_to(u, shape), np.broadcast_to(v, shape)
    for w2 in np.linspace(space.omega2_lo, space.omega2_hi, grid_points):
        if np.any(total_loglik_uv(u, v, mus, w2) > fit.loglik + slack):
            return False
    return True


def stored_paths(model, phis, x0, T, dt, seed, subject_index):
    """(times, values, first_bad) of rows at one design point, run as one
    block without the chunk driver.

    subject_index is one id or one per row, and a subject's rows are its
    replicates 0, 1, ... in row order: their normals are one call on the
    subject's path stream (seed, id), cut into rows. Row r takes drift
    multiplier phis[r]; first_bad is the step at which the row stopped
    being finite, or -1, found by first_nonfinite_step.
    """
    times = time_grid(T, dt)
    steps = len(times) - 1
    rows = len(phis)
    ids = np.broadcast_to(subject_index, rows)
    z = np.empty((rows, steps))
    for subject in dict.fromkeys(ids.tolist()):
        mine = ids == subject
        z[mine] = generator(seed, subject).standard_normal((int(mine.sum()), steps))
    _euler_rows(
        model, np.asarray(phis, dtype=float), np.full(rows, float(x0)), np.full(rows, float(T)),
        np.full(rows, steps), dt, z, ids, store=True,
    )
    values = np.column_stack([np.full(rows, float(x0)), z])
    first_bad = np.array([first_nonfinite_step(row) for row in values], dtype=np.int64)
    return times, values, first_bad


def first_nonfinite_step(states):
    """The first step k >= 1 whose state in one row of states is not
    finite, or -1, by a plain Python scan; states[0] is x0, so a
    non-finite x0 gives step 1."""
    for k, state in enumerate(states[1:].tolist(), start=1):
        if not math.isfinite(state):
            return k
    return -1


def path_increments(times, values, model):
    """The U and V increments, w * dX and b * w * dt with w = b / sigma^2 at
    each step's left end, of every row of a stored (R, M+1) value matrix."""
    values = np.atleast_2d(values)
    body = values[:, :-1]
    b, s = model.b(body), model.sigma(body)
    w = b / (s * s)
    return w * np.diff(values, axis=1), (b * w) * np.diff(times)


def left_fold(terms):
    """Each row's sum as a plain left fold of Python floats from 0.0.

    An explicit loop, not sum(): newer Pythons compensate sum() of floats.
    """
    totals = []
    for row in np.atleast_2d(terms).tolist():
        total = 0.0
        for term in row:
            total += term
        totals.append(total)
    return np.array(totals)


def unit_info(T, omega2):
    """The unit model's per-subject information at horizon T,
    [[I*, 0], [0, I*^2 / 2]] with I* = T / (1 + omega2 T)."""
    i_star = T / (1.0 + omega2 * T)
    return np.array([[i_star, 0.0], [0.0, 0.5 * i_star * i_star]])


def unit_kl(theta0, theta, T):
    """The unit model's per-subject divergence at horizon T."""
    # U is Gaussian with variance T*(1 + omega2*T) and V is the constant T,
    # so the divergence is the usual one between two normal laws
    m0, s0 = theta0.mu * T, T * (1.0 + theta0.omega2 * T)
    m1, s1 = theta.mu * T, T * (1.0 + theta.omega2 * T)
    return 0.5 * (math.log(s1 / s0) + s0 / s1 + (m0 - m1) ** 2 / s1 - 1.0)


def reduce_reference(terms, cov=False):
    """asymptotics._reduce's (estimates, ses) of a (k, R) term matrix as
    two lists, computed in Python floats: math.fsum per row for the means,
    and math.fsum of the squared influence rows for each standard error."""
    rows = np.asarray(terms, dtype=float).tolist()
    r = len(rows[0])
    means = [math.fsum(row) / r for row in rows]
    devs = [[x - m for x in row] for row, m in zip(rows, means)]
    est, influence = list(means), list(devs)
    pairs = [(i, j) for i in range(len(rows)) for j in range(i, len(rows))] if cov else []
    for i, j in pairs:
        biased = math.fsum(a * b for a, b in zip(rows[i], rows[j])) / r - means[i] * means[j]
        est.append(biased * r / (r - 1))
        influence.append([a * b - biased for a, b in zip(devs[i], devs[j])])
    ses = [0.0 if min(f) == max(f) else
           math.sqrt(math.fsum(x * x for x in f) / (r - 1)) / math.sqrt(r) for f in influence]
    return est, ses


def identity_gap(model, theta, x0, T, dt, R, seed):
    """(gap, se) of the information identity on the rows fisher_info_mc
    draws: for (i, j) = 00, 01, 11, the mean of
    (s_i - mean s_i)(s_j - mean s_j) R / (R - 1) + h_ij, the score
    covariance less -mean(Hessian), with its reduction's standard error."""
    (u, v), = _draw(model, theta, dt, [(seed, [(x0, T)], R)], 100, "information")
    (u, v, _), = _columns([(x0, T)], u, v)
    s = np.stack(score_terms(u, v, theta.mu, theta.omega2))
    dev = s - s.mean(axis=1, keepdims=True)
    i, j = np.triu_indices(2)
    terms = dev[i] * dev[j] * (len(u) / (len(u) - 1)) + np.stack(
        hess_terms(u, v, theta.mu, theta.omega2))
    return _reduce((x0, T), terms, ("g00", "g01", "g11"))
