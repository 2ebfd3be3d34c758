"""Maximum likelihood over a compact rectangle.

The ensemble log-likelihood is strictly concave in mu for fixed omega2, so
mu is profiled in closed form and the search reduces to the profile
g(omega2) = l(mu_hat(omega2), omega2): a coarse scan of g picks a cell,
then a safeguarded Newton iteration on g' (bisection when a step leaves
the bracket or g'' >= 0, as in Brent 1973) finds its root in that cell.
This is the profile-then-Newton scheme Lindstrom and Bates (JASA 1988)
use for variance components. The scan sums with plain numpy sums under
an error bound, and rescans with exactly rounded row sums only the rows
whose argmax or flat decision that bound leaves open; Newton and the
fit's totals are exactly rounded row sums. So identical inputs give a
bit-identical fit in any subject order.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidStats
from .likelihood import _row_fsum, _row_totals, total_hess_uv, total_loglik_uv, total_score_uv
from .models import Theta

_FLAT_TOL = 1e-12
_SCAN_POINTS = 33
# terms per row block of fit_rows: each (rows, n) temporary stays at
# 128 KB, inside the cache, whatever the batch size
_BLOCK_TERMS = 1 << 14
# Newton stops when |g'| is within _SCORE_TOL or its bracket is at most
# _BRACKET_ULPS ulps wide; the cap leaves room for a run of bisections
# from a scan cell down to a few ulps
_SCORE_TOL = 1e-8
_BRACKET_ULPS = 4
_NEWTON_STEPS = 64
_EPS = float(np.finfo(float).eps)


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


def _profile_sums(u, v, omega2):
    """d = 1 + omega2*V, the weights V/d and the exactly rounded row sums
    of V/d and U/d, for (R, n) arrays at per-row omega2."""
    d = 1.0 + omega2[:, None] * v
    cap = v / d
    den, num = _row_totals((cap, u / d)).T
    if not den.all():
        raise InvalidStats("every subject has V = 0")
    return d, cap, den, num


def _ratio(num, den):
    # a tiny den can overflow mu to inf; fit_rows clamps it into the
    # rectangle and raises InvalidStats if the objective then
    # overflows, so the division need not warn
    with np.errstate(over="ignore"):
        return num / den


def _check_rows(u, v, space):
    """fit_mle's input checks on every row; the lowest failing row raises.

    The last check asks that the products the objective forms, 2*mu*U,
    mu^2*V, omega2*V and omega2*U^2, stay finite at the rectangle's
    extremes; rounding is monotone, so then they are finite everywhere
    on it.
    """
    if u.shape[1] == 0:
        raise ValueError("cannot fit zero subjects")
    zero_v = v == 0.0
    mu_max = max(abs(space.mu_lo), abs(space.mu_hi))
    u_max = np.abs(u).max(axis=1)
    v_max = v.max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        products = np.stack([2.0 * mu_max * u_max, mu_max * mu_max * v_max,
                             space.omega2_hi * v_max, space.omega2_hi * (u_max * u_max)])
    failing = (
        (~(np.isfinite(u).all(axis=1) & np.isfinite(v).all(axis=1)),
         InvalidStats("U and V must be finite")),
        ((v < 0.0).any(axis=1), InvalidStats("V must be >= 0")),
        (zero_v.all(axis=1), InvalidStats("every subject has V = 0")),
        ((zero_v & (u != 0.0)).any(axis=1), InvalidStats(
            "subject with V = 0 but U != 0 makes the objective infinite"
        )),
        (~np.isfinite(products).all(axis=0), InvalidStats(
            "the objective is not finite on the rectangle: U or V too large"
        )),
    )
    rows = np.stack([mask for mask, _ in failing], axis=1)
    if rows.any():
        r = int(np.argmax(rows.any(axis=1)))
        raise failing[int(np.argmax(rows[r]))][1]


def _arrays(u, v, ndim):
    """u, v as float arrays; InvalidStats naming both shapes unless they
    have ndim axes and one shape."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if u.ndim != ndim or u.shape != v.shape:
        raise InvalidStats(f"U and V must be {ndim}-D arrays of one shape, got shapes "
                           f"{u.shape} and {v.shape}")
    return u, v


def fit_mle(u, v, space):
    """Maximize over the closed rectangle the log-likelihood of the
    subjects with statistics u, v (1-D arrays, one entry per subject).

    Stages: a 33-point scan of the profile g(omega2) = l(mu_hat(omega2),
    omega2) picks its first argmax (guards against a multimodal profile);
    a scan spread below 1e-12 resolves to omega2_lo. From that grid point,
    a Newton iteration on g' runs inside the point's scan cell, bisecting
    whenever a step leaves the bracket or g'' >= 0, until |g'| is within
    _SCORE_TOL, the bracket is a few ulps wide, or _NEWTON_STEPS steps are
    taken. The fit lands exactly on omega2_lo (omega2_hi) when that is the
    scan's argmax and g' <= 0 (>= 0) or |g'| <= _SCORE_TOL there. The
    estimate is (mu_hat(omega2*), omega2*), so mu_hat is the closed-form
    profile maximizer at omega2_hat, clamped into [mu_lo, mu_hi], and
    iterations counts the Newton and bisection steps on g'.
    The scan takes plain sums with an error bound and falls back to exactly
    rounded sums on a row whose argmax or flat test the bound leaves
    undecided, so its decisions are those of exactly rounded sums; every
    total that reaches the fit is an exactly rounded row sum.

    Raises ValueError for zero subjects, and InvalidStats, before any
    work, when u and v are not 1-D arrays of one shape, any U or V is not
    finite, any V < 0, every V_i = 0, or any subject carries the V = 0,
    U != 0 sentinel; then also when U or V is so large that a product the
    objective forms (2*mu*U, mu^2*V, omega2*V, omega2*U^2) overflows
    somewhere on the rectangle, the exact row sum overflows, or the
    objective at the fit is not finite.
    """
    u, v = _arrays(u, v, 1)
    return fit_rows(u[None, :], v[None, :], space)[0]


def fit_rows(u, v, space):
    """fit_mle on every row of (R, n) arrays u, v, in lockstep.

    Returns R MleFits; fit r equals fit_mle(u[r], v[r], space) in
    every field, bit for bit. Every stage runs on all rows at once, and
    Newton stops each row on its own g' and bracket. u and v not 2-D of
    one shape raise InvalidStats before any work; the lowest row that
    fails fit_mle's input checks raises its error; past those checks, a
    row sum that overflows, or a row whose objective at its fit is not
    finite, raises InvalidStats.
    """
    u, v = _arrays(u, v, 2)
    if u.shape[0] == 0:
        return []
    _check_rows(u, v, space)
    block = max(1, _BLOCK_TERMS // u.shape[1])
    try:
        fits = [
            fit
            for start in range(0, u.shape[0], block)
            for fit in _fit_block(
                np.ascontiguousarray(u[start:start + block]),
                np.ascontiguousarray(v[start:start + block]),
                space,
            )
        ]
    except OverflowError as err:
        # math.fsum's "intermediate overflow": finite terms, infinite total
        raise InvalidStats("the objective's row sum overflows: U or V too large") from err
    if not all(math.isfinite(fit.loglik) for fit in fits):
        raise InvalidStats("the objective is not finite at the fit: U or V too large")
    return fits


def _fit_block(u, v, space):
    lo, hi = space.omega2_lo, space.omega2_hi
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    j, flat = _scan_rows(u, v, space, grid)
    start = np.where(flat, lo, grid[j])
    a = np.where(flat, lo, grid[np.maximum(j - 1, 0)])
    b = np.where(flat, lo, grid[np.minimum(j + 1, _SCAN_POINTS - 1)])
    mu_hat, w2_hat, iterations = _profile_newton(u, v, space, start, a, b)

    val = total_loglik_uv(u, v, mu_hat, w2_hat)
    scores = total_score_uv(u, v, mu_hat, w2_hat)
    hessians = total_hess_uv(u, v, mu_hat, w2_hat)
    return [
        _mle_fit(space, *fields)
        for fields in zip(mu_hat.tolist(), w2_hat.tolist(), val.tolist(), scores,
                          hessians, iterations.tolist())
    ]


def _scan_rows(u, v, space, grid):
    """The scan's two decisions for every row: the first argmax j of the
    profile g over the grid, and whether g is flat (spread below 1e-12).

    No scan value reaches a fit, only these decisions, and they are the
    ones g from exactly rounded row sums gives. g is first computed from
    plain sums; _scan_bound bounds each value's distance from the exact
    one, and a row whose intervals fix both decisions (_settled) keeps
    them. Every other row, and every row whose terms could come near
    overflow, is scanned again with exactly rounded sums (_row_fsum), with
    that function's overflow errors.
    """
    err = _scan_bound(u, v, space, grid)
    plain = np.flatnonzero(np.isfinite(err).all(axis=1))
    gvals = _profile_scan(u[plain], v[plain], space, grid, lambda p: p.sum(axis=1))
    j = np.zeros(len(u), dtype=np.intp)
    flat = np.zeros(len(u), dtype=bool)
    j[plain], flat[plain] = _decide(gvals)
    exact = np.ones(len(u), dtype=bool)
    exact[plain] = ~_settled(gvals, err[plain])
    if exact.any():
        j[exact], flat[exact] = _decide(
            _profile_scan(u[exact], v[exact], space, grid, _row_fsum))
    return j, flat


def _profile_scan(u, v, space, grid, row_sums):
    """The profile g of every row at every grid point, shape (R, points).

    With d = 1 + w2*V, A = sum U/d, B = sum V/d and
    E = sum[-log1p(w2*V)/2 + w2*U^2/(2d)], the log-likelihood at (mu, w2)
    is E + mu*A - mu^2*B/2, so the three row sums that row_sums takes of
    a (3R, n) term array give g at mu_hat = A/B, clamped.
    """
    rows, n = u.shape
    terms = np.empty((3, rows, n))
    ud, vd, e = terms
    tmp = np.empty((rows, n))
    gvals = np.empty((rows, len(grid)))
    for k, w2 in enumerate(grid.tolist()):
        np.multiply(v, w2, out=tmp)
        np.log1p(tmp, out=e)
        tmp += 1.0
        np.divide(u, tmp, out=ud)
        np.divide(v, tmp, out=vd)
        np.multiply(ud, u, out=tmp)
        tmp *= 0.5 * w2
        e *= -0.5
        e += tmp
        s_a, s_b, s_e = row_sums(terms.reshape(3 * rows, n)).reshape(3, rows)
        mu = np.clip(_ratio(s_a, s_b), space.mu_lo, space.mu_hi)
        gvals[:, k] = s_e + mu * (s_a - 0.5 * mu * s_b)
    return gvals


def _scan_bound(u, v, space, grid):
    """A bound on |g from plain sums - g from exactly rounded sums|, per row
    and grid point, and not finite on rows the plain scan must leave alone.

    Any summation order is within gamma_{n-1} * sum|x| of the exact sum
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.
    2002, section 4.2), and the exactly rounded sum within half an ulp of
    it. The sums |x| need no pass per point: d >= 1 gives |U/d| <= |U|
    and V/d <= V, and 0 <= log1p(x) <= x gives |E term| <= w2 (V + U^2)/2.
    With M = max|mu| on the rectangle, g = E + max over mu of
    (mu A - mu^2 B/2) moves by at most dE + M dA + M^2 dB/2, and
    evaluating it rounds by at most 3u (|E| + M |A| + M^2 B); so
    n u (S_E + M S_A + M^2 S_B) plus 6u of the same covers both scans,
    and the bound takes four times that. The last term covers underflow.
    A row is refused when its terms could reach 2^(1022 - bits(n + 1)),
    half the size at which _row_fsum hands a row to math.fsum, which may
    raise on overflow.
    """
    n = u.shape[1]
    mu_max = max(abs(space.mu_lo), abs(space.mu_hi))
    with np.errstate(over="ignore", invalid="ignore"):
        uu = u * u
        u_abs = np.abs(u)
        s_e = 0.5 * (v.sum(axis=1) + uu.sum(axis=1))
        s_ab = mu_max * u_abs.sum(axis=1) + mu_max * mu_max * v.sum(axis=1)
        err = 2.0 * (n + 8) * _EPS * (np.multiply.outer(s_e, grid) + s_ab[:, None])
        err += (1.0 + mu_max) * 2.0 ** -1060
        big = np.maximum(np.maximum(u_abs.max(axis=1), v.max(axis=1)),
                         grid[-1] * (v.max(axis=1) + uu.max(axis=1)))
    err[~(big < 2.0 ** (1022 - (n + 1).bit_length()))] = np.inf
    return err


def _decide(gvals):
    # first argmax wins, so ties resolve to the smaller omega2
    return np.argmax(gvals, axis=1), gvals.max(axis=1) - gvals.min(axis=1) < _FLAT_TOL


def _settled(gvals, err):
    """Rows on which every profile within err of gvals gets _decide's answer:
    a flat spread, or a spread of at least _FLAT_TOL with the first argmax
    strictly above every earlier point and at least every later one. The
    spread's own subtraction rounds, so the test keeps 4 ulps off 1e-12.
    """
    lo, hi = gvals - err, gvals + err
    j = np.argmax(gvals, axis=1)[:, None]
    lo_j = np.take_along_axis(lo, j, axis=1)
    k = np.arange(gvals.shape[1])
    first = np.where(k < j, hi < lo_j, (hi <= lo_j) | (k == j)).all(axis=1)
    flat = hi.max(axis=1) - lo.min(axis=1) < _FLAT_TOL * (1.0 - 4.0 * _EPS)
    rough = lo.max(axis=1) - hi.min(axis=1) >= _FLAT_TOL * (1.0 + 4.0 * _EPS)
    return flat | (rough & first)


def _profile_newton(u, v, space, w2, a, b):
    """Safeguarded Newton on g' from w2, inside [a, b], for every row.

    Each iterate narrows the bracket to the side where g' says the
    maximum lies; the next iterate is the Newton point when it falls
    strictly inside the bracket with g'' < 0, else the midpoint. A row
    stops when |g'| <= _SCORE_TOL, its bracket is _BRACKET_ULPS ulps wide
    or it has taken _NEWTON_STEPS steps. Returns (mu_hat, omega2, steps)
    per row, mu_hat the profile maximiser at the returned omega2.
    """
    w2, a, b = w2.copy(), a.copy(), b.copy()
    mu = np.empty(len(w2))
    steps = np.zeros(len(w2), dtype=np.int64)
    live = np.arange(len(w2))
    while True:
        x = w2[live]
        mu[live], slope, curv = _profile_slope(u[live], v[live], x, space)
        rising = slope > 0.0
        lo = np.where(rising, x, a[live])
        hi = np.where(rising, b[live], x)
        a[live], b[live] = lo, hi
        going = ~(np.abs(slope) <= _SCORE_TOL) & (hi - lo > _BRACKET_ULPS * np.spacing(hi))
        going &= steps[live] < _NEWTON_STEPS
        if not going.any():
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = x - slope / curv
        inside = (curv < 0.0) & (lo < newton) & (newton < hi)
        nxt = np.where(inside, newton, lo + 0.5 * (hi - lo))
        live = live[going]
        w2[live] = nxt[going]
        steps[live] += 1
    return mu, w2, steps


def _profile_slope(u, v, w2, space):
    """(mu_hat, g', g'') at per-row omega2 w2.

    By the envelope theorem g' is dl/domega2 at (mu_hat, w2); g'' is
    l_ww - l_mw^2/l_mm where mu_hat is interior (l_mm = -sum V/d) and
    l_ww where it is clamped to a mu bound. The terms are the ones
    score_terms and hess_terms form.
    """
    d, cap, den, num = _profile_sums(u, v, w2)
    raw = _ratio(num, den)
    mu = np.clip(raw, space.mu_lo, space.mu_hi)
    g = (u - mu[:, None] * v) / d
    gg = g * g
    slope, l_mw, l_ww = _row_totals(
        (0.5 * (gg - cap), -g * cap, -0.5 * (2.0 * gg * cap - cap * cap))
    ).T
    with np.errstate(over="ignore", invalid="ignore"):
        curv = np.where(mu == raw, l_ww + l_mw * l_mw / den, l_ww)
    return mu, slope, curv


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
