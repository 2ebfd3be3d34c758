"""Sufficient statistics of paths.

For drift multiplier phi the exact likelihood of a path depends on it only
through the pair

    U = integral of b(X)/sigma^2(X) dX      (Ito sum, left endpoints)
    V = integral of b^2(X)/sigma^2(X) ds    (Riemann sum, left endpoints)

computed here on the stored grid. Left-endpoint evaluation keeps the
unit-model identities U = X(T) - x0 and V = T exact, and makes the drift
decomposition U = phi * V + (martingale part) an identity rather than an
approximation. Both sums run left to right from +0.0, the order of the
Euler kernel's running totals, so storing a path does not change them.
"""

import numpy as np

from .errors import SimulationDiverged

# terms per row block of stats_list and estimator.fit_rows: each (rows,
# M) temporary stays at 128 KB, inside the cache, whatever the batch size
_BLOCK_TERMS = 1 << 14
# hard floor on sigma^2; integrability of b^2/sigma^2 is an assumption of
# the whole theory, so underflow is an error, never a clamp
SIGMA2_FLOOR = 1e-12


def floor_error(model):
    """The error for sigma^2 below SIGMA2_FLOOR on a finite path."""
    return SimulationDiverged(
        f"sigma^2 below {SIGMA2_FLOOR:g} on the grid for model {model.name!r}"
    )


def suff_stats_rows(times, values, model):
    """U and V for each row of a (R, M+1) value matrix on a shared grid.

    A row's increments are added left to right from +0.0, equal bit for
    bit to the Euler kernel's running totals, zero signs included (an
    (R, 1) matrix gives zeros); rows with non-finite states yield NaN
    statistics, which callers that tolerate divergence filter out.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    deltas = np.diff(np.asarray(times, dtype=float))
    body = values[:, :-1]
    with np.errstate(invalid="ignore", over="ignore"):
        bvals = model.b(body)
        svals = model.sigma(body)
        sig2 = svals * svals
        finite = np.isfinite(body).all(axis=1)
        if np.any(finite[:, None] & ((sig2 < SIGMA2_FLOOR) | ~(svals > 0))):
            raise floor_error(model)
        w = bvals / sig2
        # a running sum is sequential; +0.0 + its last is a fold from +0.0
        u, v = np.zeros((2, len(values)))
        if deltas.size:
            u += np.cumsum(w * np.diff(values, axis=1), axis=1)[:, -1]
            v += np.cumsum((bvals * w) * deltas, axis=1)[:, -1]
    return u, v


def stats_list(paths, model):
    """U and V of every path of an ensemble, as two float arrays in order.

    The paths that share one time grid go through suff_stats_rows in
    (rows, M+1) blocks of about _BLOCK_TERMS terms; each row's sums equal
    those of the path alone, bit for bit. The lowest path whose V is not
    finite or is < 0 (V checked first), or whose U is not finite, raises
    ValueError naming its subject. V is a sum of squares, so it is < 0
    only on bad input.
    """
    paths = list(paths)
    grids = {}
    for i, p in enumerate(paths):
        times = np.asarray(p.times, dtype=float)
        grids.setdefault(times.tobytes(), (times, []))[1].append(i)
    u, v = np.empty(len(paths)), np.empty(len(paths))
    for times, rows in grids.values():
        step = max(1, _BLOCK_TERMS // len(times))
        for block in (rows[j:j + step] for j in range(0, len(rows), step)):
            u[block], v[block] = suff_stats_rows(times, [paths[i].values for i in block],
                                                 model)
    bad_v = ~(np.isfinite(v) & (v >= 0))
    bad = bad_v | ~np.isfinite(u)
    if bad.any():
        r = int(np.argmax(bad))
        what = "v must be finite and >= 0" if bad_v[r] else "u must be finite"
        raise ValueError(f"{what} (subject {paths[r].subject_index})")
    return u, v
