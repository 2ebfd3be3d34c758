"""Test oracles that check the library from outside it.

audit_fit certifies a fit against a grid of the objective; decompose
splits a simulated path's U into its drift and martingale parts;
stored_paths runs the Euler kernel on one unchunked block of rows;
path_increments and left_fold rebuild (U, V) from stored rows.
"""

from dataclasses import dataclass

import numpy as np

from sde_remle.errors import SdeRemleError
from sde_remle.likelihood import total_loglik_uv
from sde_remle.simulate import _euler_rows, path_normals, time_grid


class MissingPhi(SdeRemleError):
    """Operation needs the realized random effect but the path does not carry one."""


@dataclass(frozen=True)
class SuffStatsDecomposition:
    """Split of U into its drift and martingale parts: u = phi*u1 + u2.

    u1 equals V by construction and u2 is recovered residually as
    u - phi*u1, so the identity holds exactly at any step size.
    """

    u1: float
    u2: float
    phi: float


def decompose(path, u, v):
    """Split a simulated path's U = u as phi*u1 + u2, given its V = v.

    u1 is the same left-endpoint sum as V; u2 is defined residually so the
    identity is exact. Raises MissingPhi for ingested paths.
    """
    if path.phi is None:
        raise MissingPhi("decomposition needs the realized phi of a simulated path")
    u1 = v
    u2 = u - path.phi * u1
    return SuffStatsDecomposition(u1=u1, u2=u2, phi=path.phi)


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


def stored_paths(model, phis, x0, T, dt, seed, subject_index, replicate_ids):
    """(times, values, first_bad) of rows at one design point, run as one
    block without the chunk driver.

    Row r uses substream (seed, subject_index[r], replicate_ids[r]), with
    subject_index one id or one per row, and drift multiplier phis[r];
    first_bad is the step at which the row stopped being finite, or -1.
    """
    times = time_grid(T, dt)
    steps = len(times) - 1
    z = path_normals(seed, subject_index, replicate_ids, steps)
    rows = len(z)
    values = np.empty((rows, steps + 1))
    first_bad = _euler_rows(
        model, np.asarray(phis, dtype=float), np.full(rows, float(x0)), np.full(rows, float(T)),
        np.full(rows, steps), dt, z, np.broadcast_to(subject_index, rows), values,
    )
    return times, values, first_bad


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
