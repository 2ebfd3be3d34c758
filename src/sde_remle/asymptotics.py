"""Monte Carlo laboratory for the estimator's limit theory.

Estimates Fisher information and Kullback-Leibler divergence at single
design points, their averaged limits along convergent design sequences,
and runs the consistency / normality / moment-continuity experiments.
Each experiment is a plain function of its settings (model, truth,
rectangle, DesignFamily, sizes, dt, seed). Consistency and normality
fit the rows of one simulated ensemble in one batch each; consistency
simulates only its largest level, and level n fits the first n columns.
Every design-point estimate runs through _point_passes: it validates the
points as one Design, then checks each replicate count (R >= 100 for
information and divergence, 3 for the probe), then runs them as one
stacked simulate.replicate_uv pass. A point's (U, V) are a pure function
of its arguments, the same alone or stacked. Every reduction runs in a
fixed order, so reports are byte-identical across runs: divergence and
probe means and the design averages of every estimate are exactly
rounded (math.fsum), while each point's information estimate reduces
its rows with numpy's pairwise sums.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyExperiment, ExperimentFailed
from .estimator import fit_rows
from .ks import ks_norm_pvalue
from .likelihood import hess_terms, ratio_terms, score_terms
from .models import Design
from .rng import derive_seed, float_label
from .simulate import Segment, effect_rows, replicate_uv

# seed lanes for nested Monte Carlo passes, disjoint from the main experiment's
# path streams: design points (information and divergence share one draw), probe
_LANE_INFO = 1
_LANE_PROBE = 4

_Z975 = 1.959963984540054


def _mean_exact(values):
    # fsum keeps the mean independent of summation order; division by a
    # power-of-two count is exact, which the doubling schedules rely on
    return math.fsum(values) / len(values)


@dataclass(frozen=True)
class InfoEstimate:
    """Monte Carlo Fisher information at one design point.

    matrix is the sample covariance of per-subject scores under theta;
    neg_mean_hess is the matched -mean(Hessian) estimate and identity_se
    the jackknife standard error of their entrywise difference, used for
    information-identity checks.
    """

    matrix: np.ndarray
    mc_se: np.ndarray
    neg_mean_hess: np.ndarray
    identity_se: np.ndarray
    failures: int = 0


@dataclass(frozen=True)
class KlEstimate:
    """Monte Carlo Kullback-Leibler divergence at one design point."""

    value: float
    mc_se: float
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


def _point_seed(seed, point):
    """A design point's seed, from its coordinates; averaged_limits and
    _info_bar share it, so their information averages agree."""
    return derive_seed(seed, _LANE_INFO, *map(float_label, point))


def _check_schedule(name, schedule):
    """Bad schedule, before any draw: empty, an entry below 1, or not
    strictly increasing raises ValueError."""
    if not schedule or min(schedule) < 1:
        raise ValueError(f"{name} needs at least one entry, each >= 1")
    if any(a >= b for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"{name} must be strictly increasing")


def _point_passes(model, theta0, dt, seed, points, sizes, seeds, minimum, what):
    """(U, V, dropped) of each design point's finite rows, from one stacked pass.

    The points are validated as one Design, then every count against
    minimum, before any normal is drawn. Point k's rows are replicates
    0..R-1 of subject 0 under seed seeds[k]. A point
    with fewer than 3 finite rows raises ExperimentFailed.
    """
    points = Design(tuple(points), dt, seed).subjects
    if min(sizes) < minimum:
        raise ValueError(f"{what} estimation needs R >= {minimum}")
    parts = replicate_uv(model, dt, [
        Segment(x0, T, s, 0, effect_rows(theta0, s, R, 1)[:, 0])
        for (x0, T), R, s in zip(points, sizes, seeds)
    ])
    out = []
    for (x0, T), (u, v) in zip(points, parts):
        ok = np.isfinite(u) & np.isfinite(v)
        if ok.sum() < 3:
            raise ExperimentFailed(
                f"only {int(ok.sum())} of {len(u)} Monte Carlo rows are finite at "
                f"design point (x, T) = ({x0!r}, {T!r}); at least 3 are needed"
            )
        out.append((u[ok], v[ok], int(len(u) - ok.sum())))
    return out


def _mean_se(values):
    """Exactly rounded mean of a sample and its standard error."""
    return _mean_exact(values.tolist()), float(np.std(values, ddof=1)) / math.sqrt(len(values))


def _gap(est, se, lim_est, lim_se):
    """Distance of an estimate from its limit and the standard error of it."""
    return abs(est - lim_est), math.sqrt(se * se + lim_se * lim_se)


def _info_estimate(theta, u, v, failures):
    """fisher_info_mc's estimate from the finite (U, V) of a point's pass."""
    r = len(u)
    s_mu, s_w = score_terms(u, v, theta.mu, theta.omega2)
    scores = np.stack([s_mu, s_w], axis=1)
    h_mm, h_mw, h_ww = hess_terms(u, v, theta.mu, theta.omega2)
    hessians = np.empty((r, 2, 2))
    hessians[:, 0, 0] = h_mm
    hessians[:, 0, 1] = h_mw
    hessians[:, 1, 0] = h_mw
    hessians[:, 1, 1] = h_ww

    s1 = scores.sum(axis=0)
    outer = scores[:, :, None] * scores[:, None, :]
    s2 = outer.sum(axis=0)
    mean = s1 / r
    cov = (s2 - r * np.outer(mean, mean)) / (r - 1)

    hsum = hessians.sum(axis=0)
    neg_mean_hess = -hsum / r

    # leave-one-out replicas of both estimates, for jackknife errors of the
    # covariance entries and of the identity gap (cov + mean hess)
    loo_mean = (s1[None, :] - scores) / (r - 1)
    loo_outer = loo_mean[:, :, None] * loo_mean[:, None, :]
    loo_cov = (s2[None, :, :] - outer - (r - 1) * loo_outer) / (r - 2)
    loo_negh = -(hsum[None, :, :] - hessians) / (r - 1)

    def jack_se(replicas):
        center = replicas.mean(axis=0)
        dev = replicas - center[None, :, :]
        return np.sqrt((r - 1) / r * (dev * dev).sum(axis=0))

    return InfoEstimate(
        matrix=cov,
        mc_se=jack_se(loo_cov),
        neg_mean_hess=neg_mean_hess,
        identity_se=jack_se(loo_cov - loo_negh),
        failures=failures,
    )


def _kl_estimate(theta0, theta, u, v, failures):
    """kl_mc's estimate from the finite (U, V) of a point's pass."""
    value, se = _mean_se(ratio_terms(u, v, theta0, theta))
    return KlEstimate(value=value, mc_se=se, failures=failures)


def fisher_info_mc(model, theta, x0, T, dt, R, seed):
    """Sample covariance of per-subject scores at one design point.

    Simulates R subjects under theta, evaluates the analytic score at
    theta, and returns the covariance estimate with jackknife standard
    errors, together with the matched -mean(Hessian) estimate for
    information-identity checks.
    """
    part, = _point_passes(model, theta, dt, seed, [(x0, T)], [R], [seed], 100, "information")
    return _info_estimate(theta, *part)


def kl_mc(model, theta0, theta, x0, T, dt, R, seed):
    """Mean log density ratio under theta0 at one design point."""
    part, = _point_passes(model, theta0, dt, seed, [(x0, T)], [R], [seed], 100, "divergence")
    return _kl_estimate(theta0, theta, *part)


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
    with the estimates at limit_point. All points run as one stacked
    pass, one segment and one seed each: a point's two estimates read the
    same (U, V) and equal kl_mc's and fisher_info_mc's at its seed, which
    is derived from its coordinates, so a constant design reproduces the
    single-point values exactly.
    """
    designs = [(float(x), float(T)) for x, T in designs]
    if not designs:
        raise EmptyExperiment("averaged_limits needs at least one design point")
    if not all(1 <= n <= len(designs) for n in schedule):
        raise ValueError(f"every schedule entry must lie in 1..{len(designs)}")
    _check_schedule("schedule", schedule)

    pts = designs + [(float(limit_point[0]), float(limit_point[1]))]
    parts = _point_passes(
        model, theta0, dt, seed, pts, [replicates] * len(designs) + [limit_replicates],
        [_point_seed(seed, pt) for pt in pts], 100, "divergence",
    )
    points = [(_kl_estimate(theta0, theta, *part), _info_estimate(theta0, *part))
              for part in parts]
    # (estimate, se) of the kl, i00, i01 and i11 columns at each point, the limit last
    *columns, lim_columns = [
        [(kl.value, kl.mc_se)] + [(float(info.matrix[ij]), float(info.mc_se[ij]))
                                  for ij in ((0, 0), (0, 1), (1, 1))]
        for kl, info in points
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
    return ConvergenceTable(rows=tuple(rows), limit=lim)


def _ensemble_uv(model, theta0, design, replicates):
    """(U, V) matrices of shape (replicates, n) for a whole Design.

    Subject i's replicate r reads its normals from path stream (seed, i)
    and its drift effect from effect stream (seed, i), as every pass
    does, so replicate 0 matches simulate_ensemble and the first n
    columns are the ensemble of the first n subjects.

    Each subject is one segment of one stacked pass. A failing row raises
    for the first failing chunk, at its first failing step.
    """
    phis = effect_rows(theta0, design.seed, replicates, design.n)
    u, v = zip(*replicate_uv(model, design.dt, [
        Segment(x0, T, design.seed, i, phis[:, i])
        for i, (x0, T) in enumerate(design.subjects)
    ]))
    del phis  # the effects, and each pass column, go before its copy is made
    u = np.stack(u, axis=1)
    return u, np.stack(v, axis=1)


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
    u, v = _ensemble_uv(model, theta0, Design(design.subjects(max(n_schedule)), dt, seed),
                        replicates)
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


def _info_bar(model, theta0, points, info_replicates, dt, seed):
    """Design-averaged information n^-1 * sum_k I(x_k, T_k) at the points:
    each distinct point estimated once, on its _point_seed, and each entry
    averaged exactly, as averaged_limits averages its i00, i01 and i11."""
    distinct = sorted(set(points))
    parts = _point_passes(
        model, theta0, dt, seed, distinct, [info_replicates] * len(distinct),
        [_point_seed(seed, pt) for pt in distinct], 100, "information",
    )
    by_point = {pt: _info_estimate(theta0, *part).matrix for pt, part in zip(distinct, parts)}
    return np.array([[_mean_exact([by_point[pt][i, j] for pt in points]) for j in (0, 1)]
                     for i in (0, 1)])


def run_normality_experiment(model, theta0, space, design, n, replicates, info_replicates,
                             dt, seed, information=None):
    """Standardized estimation errors vs the standard normal law.

    z_r = sqrt(n) * L (theta_hat_r - theta0) with L the symmetric square
    root of the design-averaged information at the first n subjects of
    the DesignFamily design, estimated with info_replicates rows per
    point unless the 2x2 matrix information is given, in which case
    info_replicates is not read; reports per-coordinate KS p-values,
    Wald coverage, and a shifted-center negative control.
    """
    _check_run(replicates, theta0, space)
    points = design.subjects(n)
    ensemble = Design(points, dt, seed)
    if information is None:
        info_bar = _info_bar(model, theta0, points, info_replicates, dt, seed)
    else:
        info_bar = np.array(information, dtype=float)
    try:
        L = sqrt_2x2_spd(info_bar)
    except ValueError as err:
        raise ExperimentFailed(
            f"the plug-in information estimate is not positive definite: {err}"
        ) from err
    inv = np.linalg.inv(info_bar)

    kept, dropped = _replicate_fits(*_ensemble_uv(model, theta0, ensemble, replicates),
                                    theta0, space)
    if not kept:
        raise ExperimentFailed("every replicate failed")
    rows = []
    covered = {"mu": 0, "omega2": 0}
    with_se = 0
    for r, fit, diff in kept:
        z = math.sqrt(n) * (L @ diff)
        if fit.wald_se is not None:
            with_se += 1
            if abs(diff[0]) <= _Z975 * fit.wald_se[0]:
                covered["mu"] += 1
            if abs(diff[1]) <= _Z975 * fit.wald_se[1]:
                covered["omega2"] += 1
        rows.append(_row(r, n, fit, (float(z[0]), float(z[1]))))
    diffs = np.array([diff for _, _, diff in kept])
    z_mat = math.sqrt(n) * (diffs @ L)
    ks_mu = ks_norm_pvalue(z_mat[:, 0])
    ks_w2 = ks_norm_pvalue(z_mat[:, 1])

    # negative control: recenter mu by five standard errors of the mean
    # estimate; the standardized sample must now fail the normality test
    offset = 5.0 * math.sqrt(inv[0, 0] / n)
    z_off = math.sqrt(n) * ((diffs - np.array([offset, 0.0])) @ L)
    ks_off = ks_norm_pvalue(z_off[:, 0])

    errs = np.hypot(diffs[:, 0], diffs[:, 1])
    cov_mu = covered["mu"] / with_se if with_se else float("nan")
    cov_w2 = covered["omega2"] / with_se if with_se else float("nan")
    return ExperimentReport(
        rows=tuple(rows),
        summaries=(_summary(n, errs, (ks_mu, ks_w2), (cov_mu, cov_w2)),),
        failures=tuple((n, r) for r in dropped),
        failed=len(dropped) > 0.01 * replicates,
        ks_mu_offset_center=ks_off,
        wald_denominator=with_se,
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
    parts = _point_passes(
        model, theta0, dt, seed, pts, [limit_replicates] + [replicates] * len(m_schedule),
        [derive_seed(seed, _LANE_PROBE, m) for m in (0, *m_schedule)], 3, "moment",
    )

    def h_moments(point, u, v, _):
        # (estimate, se) of h^1 and h^2; either overflows for a large psi
        out = []
        with np.errstate(over="ignore", invalid="ignore"):
            h = np.exp(psi * u / (1.0 + xi * v))
            for k in (1, 2):
                try:
                    est, se = _mean_se(h ** k)
                except OverflowError:  # math.fsum of finite values past 1.8e308
                    est = se = math.inf
                if not (math.isfinite(est) and math.isfinite(se)):
                    raise ExperimentFailed(
                        f"the Monte Carlo mean of h(U, V)^{k} is not finite at design "
                        f"point (x, T) = ({point[0]!r}, {point[1]!r})"
                    )
                out.append((est, se))
        return out

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
