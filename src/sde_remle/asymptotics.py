"""Monte Carlo laboratory for the estimator's limit theory.

Estimates Fisher information and Kullback-Leibler divergence at single
design points, their averaged limits along convergent design sequences,
and runs the consistency / normality / noniid / moment-continuity
experiments, each a plain function of its settings (model, truth,
rectangle, DesignFamily, sizes, dt, seed). Each fits the rows of one
simulated ensemble in one batch; consistency and noniid simulate only
their largest size, and size n reads the first n columns. The design
points of averaged_limits are such an ensemble's subjects, so noniid's
limits, standardiser and fits share one draw; normality standardises
its fits by the information of the columns they read, as noniid does.
Every Monte Carlo estimate draws through _draw: it validates all its
points as one Design, checks each replicate count (R >= 100 for
information and divergence, 3 for the probe), then runs every group of
points as one stacked simulate.replicate_uv pass, so averaged_limits
and noniid draw their limit point with the ensemble. A point's (U, V)
are a pure function of its seed, subject and R, the same alone or
stacked. Every estimate at a point is one _reduce of a matrix of
per-row terms: exactly rounded (math.fsum) means, covariances from them,
and standard errors from influence rows. Design averages are exactly
rounded too, so reports are byte-identical across runs.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyExperiment, ExperimentFailed
from .estimator import fit_rows
from .ks import ks_norm_pvalue
from .likelihood import _row_fsum, ratio_terms, score_terms
from .models import Design
from .rng import derive_seed, float_label
from .simulate import replicate_uv, subject_segments

# seed lanes for nested Monte Carlo draws, disjoint from the main experiment's
# path streams: averaged_limits' limit point (its information and divergence
# share one draw), probe
_LANE_INFO = 1
_LANE_PROBE = 4

_Z975 = 1.959963984540054


def _mean_exact(values):
    # fsum keeps the mean independent of summation order; division by a
    # power-of-two count is exact, which the doubling schedules rely on
    return math.fsum(values) / len(values)


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate at one design point.

    value is a float (kl_mc) or a 2x2 matrix (fisher_info_mc), mc_se its
    standard error, of the same shape, and failures the count of the
    point's rows that were dropped as not finite.
    """

    value: float | np.ndarray
    mc_se: float | np.ndarray
    failures: int = 0


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows of running averages plus the estimated limit values."""

    rows: tuple
    limit: dict


@dataclass(frozen=True)
class ExperimentReport:
    """Everything one experiment produced.

    rows: per-replicate records (dicts with rep, n, mu_hat, omega2_hat,
    z_mu, z_omega2, boundary); summaries: one dict per n level; failures:
    (n, rep) pairs whose replicate was dropped; failed: more than 1% of
    replicates were dropped. The normality diagnostics, None for
    consistency, stay out of the CSV schemas: ks_mu_offset_center is the
    KS p-value of the negative control, and wald_denominator the number of
    fits with Wald standard errors that the coverages count.
    """

    rows: tuple
    summaries: tuple
    failures: tuple
    failed: bool
    ks_mu_offset_center: float = None
    wald_denominator: int = None


def _check_schedule(name, schedule):
    """Bad schedule, before any draw: empty, an entry below 1, or not
    strictly increasing raises ValueError."""
    if not schedule or min(schedule) < 1:
        raise ValueError(f"{name} needs at least one entry, each >= 1")
    if any(a >= b for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"{name} must be strictly increasing")


def _finite_rows(point, u, v):
    """(U, V, dropped) of a design point's finite rows; fewer than 3
    raise ExperimentFailed."""
    ok = np.isfinite(u) & np.isfinite(v)
    if ok.sum() < 3:
        raise ExperimentFailed(
            f"only {int(ok.sum())} of {len(u)} Monte Carlo rows are finite at design point "
            f"(x, T) = ({float(point[0])!r}, {float(point[1])!r}); at least 3 are needed"
        )
    return u[ok], v[ok], int(len(u) - ok.sum())


def _columns(points, u, v):
    """_finite_rows of each column of (R, len(points)) (U, V) matrices."""
    return [_finite_rows(pt, u[:, k], v[:, k]) for k, pt in enumerate(points)]


def _draw(model, theta0, dt, groups, minimum, what):
    """The (U, V) of each group (seed, points, R) as two (R, len(points))
    matrices, all from one stacked replicate_uv pass.

    Every point of every group is validated as one Design, and each R
    against minimum, before any normal is drawn. Column i of a group is
    subject i of its seed (simulate.subject_segments), so the first n
    columns are the ensemble of its first n points, replicate 0 matches
    simulate_ensemble, and a column is the same alone or stacked. A
    failing row raises for the first failing chunk, at its first failing
    step.
    """
    Design(tuple(pt for _, points, _ in groups for pt in points), dt, groups[0][0])
    if min(R for _, _, R in groups) < minimum:
        raise ValueError(f"{what} estimation needs R >= {minimum}")
    parts = iter(replicate_uv(model, dt, [
        seg for seed, points, R in groups for seg in subject_segments(theta0, seed, points, R)
    ]))
    return [[np.stack(m, axis=1) for m in zip(*(next(parts) for _ in points))]
            for _, points, _ in groups]


def _gap(est, se, lim_est, lim_se):
    """Distance of an estimate from its limit and the standard error of it."""
    return abs(est - lim_est), math.sqrt(se * se + lim_se * lim_se)


# the pairs i <= j of k rows, row-major, as two index arrays
_pairs = functools.cache(np.triu_indices)


def _reduce(point, terms, names, cov=False):
    """(estimates, ses) of a design point's (k, R) matrix of per-row
    terms: each row's mean, math.fsum / R bit for bit, then with cov each
    covariance (E[t_i t_j] - E[t_i] E[t_j]) R / (R - 1), i <= j row-major.
    A standard error is sqrt(sum(f^2) / (R - 1) / R) of the influence rows
    f, t_i - E[t_i] or (t_i - E[t_i]) (t_j - E[t_j]) less their mean, and
    0 where they are all equal. A non-finite estimate or se raises
    ExperimentFailed naming the point and the estimate's entry of names.
    """
    k, r = terms.shape
    i, j = _pairs(k if cov else 0)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.concatenate([terms, terms[i] * terms[j]])
        try:
            means = _row_fsum(rows.copy()) / r
        except (OverflowError, ValueError):
            # math.fsum refuses inf with -inf, or a sum past 1.8e308: such a
            # row has a term within a factor R of overflow, so its plain sum
            # or its standard error below is not finite either
            means = rows.sum(axis=1) / r
        dev = terms - means[:k, None]
        biased = means[k:] - means[i] * means[j]
        est = np.concatenate([means[:k], biased * r / (r - 1)])
        infl = np.concatenate([dev, dev[i] * dev[j] - biased[:, None]])
        se = np.sqrt((infl * infl).sum(axis=1) / (r - 1)) / math.sqrt(r)
    se[infl.min(axis=1) == infl.max(axis=1)] = 0.0
    bad = ~(np.isfinite(est) & np.isfinite(se))
    if bad.any():
        raise ExperimentFailed(
            f"the Monte Carlo estimate or standard error of {names[int(np.argmax(bad))]} is "
            f"not finite at design point (x, T) = ({float(point[0])!r}, {float(point[1])!r})"
        )
    return est, se


def _info(point, theta, u, v):
    """The information at theta, the covariance of the rows' scores, and
    its standard errors, as 2x2 matrices."""
    est, se = _reduce(point, np.stack(score_terms(u, v, theta.mu, theta.omega2)),
                      ("the mu score", "the omega2 score", "i00", "i01", "i11"), cov=True)
    return est[[2, 3, 3, 4]].reshape(2, 2), se[[2, 3, 3, 4]].reshape(2, 2)


def _kl(point, theta0, theta, u, v):
    """(estimate, se) of the divergence: the mean log density ratio."""
    est, se = _reduce(point, ratio_terms(u, v, theta0, theta)[None], ("kl",))
    return float(est[0]), float(se[0])


def fisher_info_mc(model, theta, x0, T, dt, R, seed):
    """Sample covariance of per-subject scores at one design point.

    Simulates R subjects under theta, evaluates the analytic score at
    theta, and returns the covariance matrix with the standard error of
    each entry from its influence rows.
    """
    (u, v), = _draw(model, theta, dt, [(seed, [(x0, T)], R)], 100, "information")
    (u, v, failures), = _columns([(x0, T)], u, v)
    return McEstimate(*_info((x0, T), theta, u, v), failures)


def kl_mc(model, theta0, theta, x0, T, dt, R, seed):
    """Mean log density ratio under theta0 at one design point."""
    (u, v), = _draw(model, theta0, dt, [(seed, [(x0, T)], R)], 100, "divergence")
    (u, v, failures), = _columns([(x0, T)], u, v)
    return McEstimate(*_kl((x0, T), theta0, theta, u, v), failures)


def sqrt_2x2_spd(m):
    """Symmetric square root of a 2x2 symmetric positive-definite matrix."""
    a, b, c = m[0, 0], m[0, 1], m[1, 1]
    det = a * c - b * b
    if det <= 0 or a + c <= 0:
        raise ValueError("matrix is not positive definite")
    s = math.sqrt(det)
    t = math.sqrt(a + c + 2.0 * s)
    return (m + s * np.eye(2)) / t


def averaged_limits(model, designs, theta0, theta, dt, replicates,
                    limit_point, limit_replicates, seed, schedule):
    """Running design averages of divergence and information vs their limit.

    For each design point (x_k, T_k) the divergence K_k(theta0, theta) and
    information I_k(theta0) are estimated by Monte Carlo; the table reports
    n^-1 * sum_{k<=n} for each n of schedule (in 1..len(designs)) together
    with the estimates at limit_point. Point k is subject k on the run's
    seed, the limit point subject 0 on a seed derived from its
    coordinates, in one pass.
    A point's two estimates read one (U, V): point 0's equal kl_mc's and
    fisher_info_mc's at the run's seed, and a repeated point is a new draw.
    """
    return _limits(model, designs, theta0, theta, dt, replicates, limit_point,
                   limit_replicates, seed, schedule)[0]


def _limits(model, designs, theta0, theta, dt, replicates, limit_point, limit_replicates,
            seed, schedule):
    """averaged_limits' table, the (replicates, N) (U, V) of its design
    points and each point's information matrix."""
    designs = [(float(x), float(T)) for x, T in designs]
    if not designs:
        raise EmptyExperiment("averaged_limits needs at least one design point")
    if not all(1 <= n <= len(designs) for n in schedule):
        raise ValueError(f"every schedule entry must lie in 1..{len(designs)}")
    _check_schedule("schedule", schedule)
    limit_point = (float(limit_point[0]), float(limit_point[1]))
    (u, v), limit_uv = _draw(model, theta0, dt, [
        (seed, designs, replicates),
        (derive_seed(seed, _LANE_INFO, *map(float_label, limit_point)), [limit_point],
         limit_replicates),
    ], 100, "divergence")
    parts = _columns(designs, u, v) + _columns([limit_point], *limit_uv)
    points = [(_kl(pt, theta0, theta, u_k, v_k), _info(pt, theta0, u_k, v_k))
              for pt, (u_k, v_k, _) in zip(designs + [limit_point], parts)]
    # (estimate, se) of the kl, i00, i01 and i11 columns at each point, the limit last
    *columns, lim_columns = [
        [kl] + [(float(info[ij]), float(se[ij])) for ij in ((0, 0), (0, 1), (1, 1))]
        for kl, (info, se) in points
    ]
    keys = ("kl", "i00", "i01", "i11")
    lim = {}
    for key, (est, se) in zip(keys, lim_columns):
        lim[key], lim[f"{key}_se"] = est, se

    rows = []
    for n in schedule:
        row = {"n": n}
        for key, col, lim_col in zip(keys, zip(*columns[:n]), lim_columns):
            avg = _mean_exact([est for est, _ in col])
            se = math.sqrt(math.fsum(s * s for _, s in col)) / n
            row[key], row[f"{key}_se"] = avg, se
            row[f"{key}_gap"], row[f"{key}_gap_se"] = _gap(avg, se, *lim_col)
        rows.append(row)
    table = ConvergenceTable(rows=tuple(rows), limit=lim)
    return table, (u, v), [info for _, (info, _) in points[:-1]]


def _replicate_fits(u, v, theta0, space):
    """Fit, in one lockstep batch, each row of (replicates, n) (U, V)
    matrices whose entries are all finite.

    Returns (kept, dropped): kept holds (rep, fit, theta_hat - theta0) per
    fitted replicate and dropped the reps of the other rows, both in rep
    order. The lowest finite row that fails fit_mle's input checks raises
    its error, as a replicate-by-replicate loop would.
    """
    ok = np.isfinite(u).all(axis=1) & np.isfinite(v).all(axis=1)
    if not ok.all():
        u, v = u[ok], v[ok]
    theta0_vec = np.array([theta0.mu, theta0.omega2])
    kept = [(r, fit, np.array([fit.theta_hat.mu, fit.theta_hat.omega2]) - theta0_vec)
            for r, fit in zip(np.flatnonzero(ok).tolist(), fit_rows(u, v, space))]
    return kept, np.flatnonzero(~ok).tolist()


def _row(rep, n, fit, z=(None, None)):
    """One replicates.csv record."""
    return {
        "rep": rep,
        "n": n,
        "mu_hat": fit.theta_hat.mu,
        "omega2_hat": fit.theta_hat.omega2,
        "z_mu": z[0],
        "z_omega2": z[1],
        "boundary": fit.boundary,
    }


def _quantile(sample, q):
    """np.quantile(sample, q) of a finite sample array, bit for bit, or NaN
    if it is empty: numpy's default linear interpolation on the sorted
    sample, in its _lerp form. np.quantile imports numpy.ma (in np.unique)."""
    if not sample.size:
        return math.nan
    xs = np.sort(sample)
    h = (xs.size - 1) * q
    i = math.floor(h)
    g = h - i
    a, b = float(xs[i]), float(xs[min(i + 1, xs.size - 1)])
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def _summary(n, errs, ks=(None, None), cov=(None, None)):
    """One summary.csv record; the error quantiles are NaN without errors."""
    return {
        "n": n,
        "med_err": _quantile(errs, 0.5),
        "p90_err": _quantile(errs, 0.9),
        "ks_mu": ks[0],
        "ks_omega2": ks[1],
        "cov_mu": cov[0],
        "cov_omega2": cov[1],
    }


def _check_run(replicates, theta0=None, space=None, limit_replicates=0):
    """Bad input, before any normal is drawn: a truth off the rectangle's
    interior or a negative count raises ValueError, zero replicates
    EmptyExperiment."""
    if space is not None and not space.interior_contains(theta0):
        raise ValueError(
            "the true theta must lie strictly inside the parameter rectangle"
        )
    for name, count in (("replicates", replicates), ("limit_replicates", limit_replicates)):
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    if replicates == 0:
        raise EmptyExperiment("replicates = 0")


def run_consistency_experiment(model, theta0, space, design, n_schedule, replicates, dt, seed):
    """Replicated fits along an n schedule; errors should shrink like 1/sqrt(n).

    design is the DesignFamily whose first n subjects make level n. The
    levels are nested, so one ensemble at the largest level is simulated,
    and level n fits its first n columns: the largest level's Design has
    every level's horizons within its own, so its validation covers all.
    """
    _check_run(replicates, theta0, space)
    _check_schedule("n_schedule", n_schedule)
    (u, v), = _draw(model, theta0, dt, [(seed, design.subjects(max(n_schedule)), replicates)],
                    1, "consistency")
    rows = []
    summaries = []
    failures = []
    for n in n_schedule:
        kept, dropped = _replicate_fits(u[:, :n], v[:, :n], theta0, space)
        failures += [(n, r) for r in dropped]
        rows += [_row(r, n, fit) for r, fit, _ in kept]
        errs = np.array([math.hypot(diff[0], diff[1]) for _, _, diff in kept])
        summaries.append(_summary(n, errs))
    return ExperimentReport(
        rows=tuple(rows),
        summaries=tuple(summaries),
        failures=tuple(failures),
        failed=len(failures) > 0.01 * replicates * len(n_schedule),
    )


def _info_mean(matrices):
    """Entrywise exactly rounded mean of 2x2 information matrices: the
    design-averaged information n^-1 * sum_k I_k."""
    return np.array([[_mean_exact([m[i, j] for m in matrices]) for j in (0, 1)]
                     for i in (0, 1)])


def run_normality_experiment(model, theta0, space, design, n, replicates, dt, seed):
    """Standardized estimation errors vs the standard normal law.

    z_r = sqrt(n) * L (theta_hat_r - theta0) with L the symmetric square
    root of the design-averaged information at the first n subjects of
    the DesignFamily design, the exact mean of each ensemble column's
    information estimate; reports per-coordinate KS p-values, Wald
    coverage, and a shifted-center negative control.
    """
    _check_run(replicates, theta0, space)
    points = design.subjects(n)
    (u, v), = _draw(model, theta0, dt, [(seed, points, replicates)], 100, "information")
    infos = [_info(pt, theta0, u_k, v_k)[0]
             for pt, (u_k, v_k, _) in zip(points, _columns(points, u, v))]
    return _normality_report(u, v, theta0, space, _info_mean(infos))


def run_noniid_experiment(model, theta0, theta, space, design, n, n_schedule, replicates,
                          limit_replicates, dt, seed):
    """averaged_limits along n_schedule and the normality experiment at n
    from one draw; returns (ConvergenceTable, ExperimentReport).

    The first max(n, max(n_schedule)) subjects of the DesignFamily design
    are simulated once. Limits row m averages the first m columns'
    estimates; the fits read the first n columns, standardised by the
    exact mean of their information, limits row n's on the schedule.
    """
    _check_run(replicates, theta0, space)
    _check_schedule("n_schedule", n_schedule)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    table, (u, v), infos = _limits(
        model, design.subjects(max((n, *n_schedule))), theta0, theta, dt, replicates,
        design.limit_point(), limit_replicates, seed, n_schedule,
    )
    return table, _normality_report(u[:, :n], v[:, :n], theta0, space, _info_mean(infos[:n]))


def _normality_report(u, v, theta0, space, info_bar):
    """The normality report of the fits of (replicates, n) (U, V)
    matrices, standardised by the design-averaged information info_bar."""
    n = u.shape[1]
    try:
        L = sqrt_2x2_spd(info_bar)
    except ValueError as err:
        raise ExperimentFailed(
            f"the plug-in information estimate is not positive definite: {err}"
        ) from err
    inv = np.linalg.inv(info_bar)

    kept, dropped = _replicate_fits(u, v, theta0, space)
    if not kept:
        raise ExperimentFailed("every replicate failed")
    diffs = np.array([diff for _, _, diff in kept])
    # L is symmetric, so row r of diffs @ L is L @ diff_r
    z_mat = math.sqrt(n) * (diffs @ L)
    rows = [_row(r, n, fit, z) for (r, fit, _), z in zip(kept, map(tuple, z_mat.tolist()))]
    # Wald coverage over the fits that have standard errors
    wald = [(diff, fit.wald_se) for _, fit, diff in kept if fit.wald_se is not None]
    cov_mu, cov_w2 = (sum(bool(abs(d[i]) <= _Z975 * se[i]) for d, se in wald) / len(wald)
                      if wald else math.nan for i in (0, 1))
    ks_mu = ks_norm_pvalue(z_mat[:, 0])
    ks_w2 = ks_norm_pvalue(z_mat[:, 1])

    # negative control: recenter mu by five standard errors of the mean
    # estimate; the standardized sample must now fail the normality test
    offset = 5.0 * math.sqrt(inv[0, 0] / n)
    z_off = math.sqrt(n) * ((diffs - np.array([offset, 0.0])) @ L)
    ks_off = ks_norm_pvalue(z_off[:, 0])

    errs = np.hypot(diffs[:, 0], diffs[:, 1])
    return ExperimentReport(
        rows=tuple(rows),
        summaries=(_summary(n, errs, (ks_mu, ks_w2), (cov_mu, cov_w2)),),
        failures=tuple((n, r) for r in dropped),
        failed=len(dropped) > 0.01 * len(u),
        ks_mu_offset_center=ks_off,
        wald_denominator=len(wald),
    )


def run_moment_continuity_probe(model, theta0, psi, xi, design, m_schedule, replicates,
                                limit_replicates, dt, seed):
    """MC means of h(U, V)^k along a design sequence vs its limit point.

    h(u, v) = exp(psi * u / (1 + xi * v)); est_m for k in {1, 2} at the
    DesignFamily design's point m is compared with the estimate at its
    limit point. Every point is validated as one Design before any is
    estimated.
    """
    _check_run(replicates, limit_replicates=limit_replicates)
    _check_schedule("m_schedule", m_schedule)
    if not xi > 0:
        raise ValueError("xi must be > 0")
    # the limit point's rows, then each m's, in one stacked pass
    pts = [design.limit_point()] + [design.point(m) for m in m_schedule]
    groups = [(derive_seed(seed, _LANE_PROBE, m), [pt], R) for m, pt, R in zip(
        (0, *m_schedule), pts, [limit_replicates] + [replicates] * len(m_schedule))]
    parts = [_columns([pt], u, v)[0]
             for pt, (u, v) in zip(pts, _draw(model, theta0, dt, groups, 3, "moment"))]

    def h_moments(point, u, v, _):
        # (estimate, se) of h^1 and h^2; either overflows for a large psi
        with np.errstate(over="ignore"):
            h = np.exp(psi * u / (1.0 + xi * v))
            est, se = _reduce(point, np.stack([h, h * h]), ("h(U, V)^1", "h(U, V)^2"))
        return list(zip(est.tolist(), se.tolist()))

    lim, *moments = [h_moments(pt, *part) for pt, part in zip(pts, parts)]
    rows = []
    for m, (x, T), point in zip(m_schedule, pts[1:], moments):
        for k, ((est, se), (lim_est, lim_se)) in enumerate(zip(point, lim), 1):
            gap, gap_se = _gap(est, se, lim_est, lim_se)
            rows.append({"m": m, "x": x, "T": T, "k": k, "estimate": est, "se": se,
                         "limit_estimate": lim_est, "limit_se": lim_se,
                         "gap": gap, "gap_se": gap_se})
    limit = {"est_k1": lim[0][0], "se_k1": lim[0][1], "est_k2": lim[1][0], "se_k2": lim[1][1]}
    return ConvergenceTable(rows=tuple(rows), limit=limit)
