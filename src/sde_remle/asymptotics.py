"""Monte Carlo laboratory for the estimator's limit theory.

Estimates Fisher information and Kullback-Leibler divergence at single
design points, their averaged limits along convergent design sequences,
and runs the consistency / normality / moment-continuity experiments.
Replicates are independent work units and each design point's streams
are a pure function of its arguments. Every reduction runs in a fixed
order, so reports are byte-identical across runs and across worker
counts: divergence and probe means and the running design averages are
exactly rounded (math.fsum), while fisher_info_mc and _info_bar reduce
with numpy's pairwise sums and means over rows and points in a fixed
order.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import EmptyExperiment, ExperimentFailed
from .estimator import fit_rows
from .likelihood import hess_terms, ratio_terms, score_terms
from .models import Design, DesignFamily, ParamSpace, Theta
from .rng import derive_seed, float_label
from .simulate import ROW_CHUNK, effect_rows, replicate_uv

# seed lanes for nested Monte Carlo passes; keeps information / divergence /
# probe estimation streams disjoint from the main experiment's path streams
_LANE_INFO = 1
_LANE_KL = 2
_LANE_LIMIT = 3
_LANE_PROBE = 4

_Z975 = 1.959963984540054


def _det_map(fn, items, threads):
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


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
    replicates: int
    design_point: tuple
    neg_mean_hess: np.ndarray
    identity_se: np.ndarray
    failures: int = 0


@dataclass(frozen=True)
class KlEstimate:
    """Monte Carlo Kullback-Leibler divergence at one design point."""

    value: float
    mc_se: float
    theta0: Theta
    theta: Theta
    design_point: tuple
    replicates: int
    failures: int = 0


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows of running averages plus the estimated limit values.

    point_info maps each design point (x, T) of averaged_limits to its
    InfoEstimate, so a later pass at the same point, seed and replicate
    count can reuse it; the continuity probe leaves it empty.
    """

    rows: tuple
    limit: dict
    point_info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentReport:
    """Everything one experiment produced.

    rows: per-replicate records (dicts with rep, n, mu_hat, omega2_hat,
    z_mu, z_omega2, boundary); summaries: one dict per n level; failures:
    (n, rep) pairs whose replicate was dropped; extras: experiment-specific
    diagnostics that do not go into the CSV schemas.
    """

    kind: str
    seed: int
    config: dict
    rows: tuple
    summaries: tuple
    failures: tuple
    extras: dict = field(default_factory=dict)

    @property
    def failed(self):
        return bool(self.extras.get("failed", False))


@dataclass(frozen=True)
class ConsistencyConfig:
    model: object
    theta0: Theta
    space: ParamSpace
    design: DesignFamily
    n_schedule: tuple
    replicates: int
    dt: float
    seed: int
    threads: int = 1


@dataclass(frozen=True)
class NormalityConfig:
    model: object
    theta0: Theta
    space: ParamSpace
    design: DesignFamily
    n: int
    replicates: int
    info_replicates: int
    dt: float
    seed: int
    threads: int = 1


@dataclass(frozen=True)
class ContinuityConfig:
    model: object
    theta0: Theta
    psi: float
    xi: float
    design: DesignFamily
    m_schedule: tuple
    replicates: int
    limit_replicates: int
    dt: float
    seed: int
    threads: int = 1


def _point_uv(model, theta0, x0, T, dt, R, seed):
    """(U, V) for R independent subjects at one design point.

    Row r draws its path from stream (seed, 0, r) and the drift effects
    come from one reserved-stream draw, so the result is a pure function
    of the arguments. The point is validated as a Design first; fewer
    than 3 finite rows raise ExperimentFailed.
    """
    Design(((x0, T),), dt, seed)
    phis = effect_rows(theta0, seed, [0], R)[0]
    u, v = replicate_uv(model, phis, x0, T, dt, seed, 0, np.arange(R))
    ok = np.isfinite(u) & np.isfinite(v)
    if ok.sum() < 3:
        raise ExperimentFailed(
            f"only {int(ok.sum())} of {R} Monte Carlo rows are finite at "
            f"design point (x, T) = ({x0!r}, {T!r}); at least 3 are needed"
        )
    return u[ok], v[ok], int(R - ok.sum())


def fisher_info_mc(model, theta, x0, T, dt, R, seed):
    """Sample covariance of per-subject scores at one design point.

    Simulates R subjects under theta, evaluates the analytic score at
    theta, and returns the covariance estimate with jackknife standard
    errors, together with the matched -mean(Hessian) estimate for
    information-identity checks.
    """
    if R < 100:
        raise ValueError("information estimation needs R >= 100")
    u, v, failures = _point_uv(model, theta, x0, T, dt, R, seed)
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
        replicates=r,
        design_point=(float(x0), float(T)),
        neg_mean_hess=neg_mean_hess,
        identity_se=jack_se(loo_cov - loo_negh),
        failures=failures,
    )


def kl_mc(model, theta0, theta, x0, T, dt, R, seed):
    """Mean log density ratio under theta0 at one design point."""
    if R < 100:
        raise ValueError("divergence estimation needs R >= 100")
    u, v, failures = _point_uv(model, theta0, x0, T, dt, R, seed)
    vals = ratio_terms(u, v, theta0, theta)
    r = len(vals)
    value = _mean_exact(vals.tolist())
    sd = float(np.std(vals, ddof=1)) if r > 1 else 0.0
    return KlEstimate(
        value=value,
        mc_se=sd / math.sqrt(r),
        theta0=theta0,
        theta=theta,
        design_point=(float(x0), float(T)),
        replicates=r,
        failures=failures,
    )


def sqrt_2x2_spd(m):
    """Symmetric square root of a 2x2 symmetric positive-definite matrix."""
    a, b, c = m[0, 0], m[0, 1], m[1, 1]
    det = a * c - b * b
    if det <= 0 or a + c <= 0:
        raise ValueError("matrix is not positive definite")
    s = math.sqrt(det)
    t = math.sqrt(a + c + 2.0 * s)
    return (m + s * np.eye(2)) / t


def _doubling_schedule(n):
    sched = []
    k = 1
    while k <= n:
        sched.append(k)
        k *= 2
    if sched[-1] != n:
        sched.append(n)
    return sched


def averaged_limits(model, designs, theta0, theta, dt, replicates,
                    limit_point, limit_replicates, seed, schedule=None,
                    threads=1):
    """Running design averages of divergence and information vs their limit.

    For each design point (x_k, T_k) the divergence K_k(theta0, theta) and
    information I_k(theta0) are estimated by Monte Carlo; the table reports
    n^-1 * sum_{k<=n} along a doubling schedule together with the estimates
    at limit_point. Point seeds are derived from the point's coordinates,
    so identical design points reuse identical streams and a constant
    design reproduces the single-point values exactly. The table's
    point_info holds the information estimate of every design point.
    """
    designs = [(float(x), float(T)) for x, T in designs]
    Design(tuple(designs) + (tuple(limit_point),), dt, seed)
    if schedule is None:
        schedule = _doubling_schedule(len(designs))

    def one_point(pt):
        x, T = pt
        kl = kl_mc(model, theta0, theta, x, T, dt, replicates,
                   derive_seed(seed, _LANE_KL, float_label(x), float_label(T)))
        info = fisher_info_mc(model, theta0, x, T, dt, replicates,
                              derive_seed(seed, _LANE_INFO, float_label(x), float_label(T)))
        return kl, info

    points = _det_map(one_point, designs, threads)

    xl, tl = limit_point
    kl_lim = kl_mc(model, theta0, theta, xl, tl, dt, limit_replicates,
                   derive_seed(seed, _LANE_KL, float_label(xl), float_label(tl)))
    info_lim = fisher_info_mc(model, theta0, xl, tl, dt, limit_replicates,
                              derive_seed(seed, _LANE_INFO, float_label(xl), float_label(tl)))

    kl_vals = [kl.value for kl, _ in points]
    kl_ses = [kl.mc_se for kl, _ in points]
    info_vals = {key: [float(info.matrix[i, j]) for _, info in points]
                 for key, (i, j) in (("i00", (0, 0)), ("i01", (0, 1)), ("i11", (1, 1)))}
    info_ses = {key: [float(info.mc_se[i, j]) for _, info in points]
                for key, (i, j) in (("i00", (0, 0)), ("i01", (0, 1)), ("i11", (1, 1)))}
    lim = {
        "kl": kl_lim.value,
        "kl_se": kl_lim.mc_se,
        "i00": float(info_lim.matrix[0, 0]),
        "i00_se": float(info_lim.mc_se[0, 0]),
        "i01": float(info_lim.matrix[0, 1]),
        "i01_se": float(info_lim.mc_se[0, 1]),
        "i11": float(info_lim.matrix[1, 1]),
        "i11_se": float(info_lim.mc_se[1, 1]),
    }

    def avg_and_se(vals, ses, n):
        avg = _mean_exact(vals[:n])
        se = math.sqrt(math.fsum(s * s for s in ses[:n])) / n
        return avg, se

    rows = []
    for n in schedule:
        row = {"n": n}
        avg, se = avg_and_se(kl_vals, kl_ses, n)
        row["kl"] = avg
        row["kl_se"] = se
        row["kl_gap"] = abs(avg - lim["kl"])
        row["kl_gap_se"] = math.sqrt(se * se + lim["kl_se"] ** 2)
        for key in ("i00", "i01", "i11"):
            avg, se = avg_and_se(info_vals[key], info_ses[key], n)
            row[key] = avg
            row[f"{key}_se"] = se
            row[f"{key}_gap"] = abs(avg - lim[key])
            row[f"{key}_gap_se"] = math.sqrt(se * se + lim[f"{key}_se"] ** 2)
        rows.append(row)
    point_info = {pt: info for pt, (_, info) in zip(designs, points)}
    return ConvergenceTable(rows=tuple(rows), limit=lim, point_info=point_info)


def _ensemble_uv(model, theta0, design, replicates, threads):
    """(U, V) matrices of shape (replicates, n) for a whole Design.

    Subject i's replicate r uses path stream (seed, i, r); its drift
    effect is entry i of the reserved-stream draw for replicate r. This
    matches simulate_ensemble row for row.

    Subjects that share (x0, T), every subject of an iid design, run as
    one row block, subject-major, in chunks of ROW_CHUNK rows whose ids
    and effects are gathered per chunk; threads map over the blocks. A
    failing row raises for the first failing chunk of the lowest failing
    block, at the chunk's first failing step.
    """
    n, dt, seed = design.n, design.dt, design.seed
    phis = effect_rows(theta0, seed, np.arange(replicates), n)
    u = np.empty((replicates, n))
    v = np.empty((replicates, n))
    groups = {}
    for i, point in enumerate(design.subjects):
        groups.setdefault(point, []).append(i)

    def one_group(group):
        (x0, T), members = group
        members = np.asarray(members)
        rows = len(members) * replicates
        for start in range(0, rows, ROW_CHUNK):
            m, reps = np.divmod(np.arange(start, min(start + ROW_CHUNK, rows)), replicates)
            ids = members[m]
            u[reps, ids], v[reps, ids] = replicate_uv(
                model, phis[reps, ids], x0, T, dt, seed, ids, reps
            )

    _det_map(one_group, list(groups.items()), threads)
    return u, v


def _fit_rows(u, v, space):
    """Fit each replicate row whose (U, V) are all finite, in one lockstep
    batch; returns (fits, ok_mask) with None for the dropped rows.

    The lowest finite row that fails fit_mle's input checks raises its
    error, as a replicate-by-replicate loop would.
    """
    ok = np.isfinite(u).all(axis=1) & np.isfinite(v).all(axis=1)
    if ok.all():
        return fit_rows(u, v, space), ok
    fits = [None] * u.shape[0]
    for r, fit in zip(np.flatnonzero(ok), fit_rows(u[ok], v[ok], space)):
        fits[r] = fit
    return fits, ok


def _check_interior(theta0, space):
    if not space.interior_contains(theta0):
        raise ValueError(
            "the true theta must lie strictly inside the parameter rectangle"
        )


def _config_echo(config):
    echo = asdict(config)
    echo["model"] = config.model.name
    echo.pop("threads", None)
    return echo


def run_consistency_experiment(config):
    """Replicated fits along an n schedule; errors should shrink like 1/sqrt(n)."""
    _check_interior(config.theta0, config.space)
    if config.replicates == 0:
        raise EmptyExperiment("replicates = 0")
    designs = [Design(config.design.subjects(n), config.dt, config.seed)
               for n in config.n_schedule]
    theta0_vec = np.array([config.theta0.mu, config.theta0.omega2])
    rows = []
    summaries = []
    failures = []
    for n, design in zip(config.n_schedule, designs):
        u, v = _ensemble_uv(
            config.model, config.theta0, design, config.replicates, config.threads,
        )
        fits, ok = _fit_rows(u, v, config.space)
        errs = []
        for r, fit in enumerate(fits):
            if fit is None:
                failures.append((n, r))
                continue
            diff = np.array([fit.theta_hat.mu, fit.theta_hat.omega2]) - theta0_vec
            errs.append(math.hypot(diff[0], diff[1]))
            rows.append({
                "rep": r,
                "n": n,
                "mu_hat": fit.theta_hat.mu,
                "omega2_hat": fit.theta_hat.omega2,
                "z_mu": None,
                "z_omega2": None,
                "boundary": fit.boundary,
            })
        errs = np.array(errs)
        summaries.append({
            "n": n,
            "med_err": float(np.quantile(errs, 0.5)) if errs.size else float("nan"),
            "p90_err": float(np.quantile(errs, 0.9)) if errs.size else float("nan"),
            "ks_mu": None,
            "ks_omega2": None,
            "cov_mu": None,
            "cov_omega2": None,
        })
    total = config.replicates * len(config.n_schedule)
    extras = {"failed": len(failures) > 0.01 * total}
    return ExperimentReport(
        kind="consistency",
        seed=config.seed,
        config=_config_echo(config),
        rows=tuple(rows),
        summaries=tuple(summaries),
        failures=tuple(failures),
        extras=extras,
    )


def _info_bar(config, point_info=None):
    """Plug-in information: single-point for iid designs, design-averaged
    (the largest-n running mean) for non-iid designs.

    point_info maps (x, T) to an InfoEstimate already made by
    fisher_info_mc with this config's model, theta0, dt, seed and
    info_replicates, as averaged_limits makes them when its replicate
    count is info_replicates; only the points it lacks are estimated.
    """
    model, theta0, dt = config.model, config.theta0, config.dt
    pts = config.design.subjects(config.n)
    by_point = dict(point_info or {})
    missing = sorted(set(pts) - by_point.keys())

    def one(pt):
        x, T = pt
        return pt, fisher_info_mc(
            model, theta0, x, T, dt, config.info_replicates,
            derive_seed(config.seed, _LANE_INFO, float_label(x), float_label(T)),
        )

    by_point.update(_det_map(one, missing, config.threads))
    mats = np.stack([by_point[pt].matrix for pt in pts])
    ses = np.stack([by_point[pt].mc_se for pt in pts])
    bar = mats.mean(axis=0)
    bar_se = np.sqrt((ses * ses).sum(axis=0)) / len(pts)
    return bar, bar_se


def run_normality_experiment(config, point_info=None):
    """Standardized estimation errors vs the standard normal law.

    z_r = sqrt(n) * L (theta_hat_r - theta0) with L the symmetric square
    root of the plug-in information; reports per-coordinate KS p-values,
    Wald coverage, and a shifted-center negative control. point_info, as
    in _info_bar, supplies information estimates that need not be made
    again.
    """
    _check_interior(config.theta0, config.space)
    if config.replicates == 0:
        raise EmptyExperiment("replicates = 0")
    n = config.n
    design = Design(config.design.subjects(n), config.dt, config.seed)
    info_bar, info_bar_se = _info_bar(config, point_info)
    try:
        L = sqrt_2x2_spd(info_bar)
    except ValueError as err:
        raise ExperimentFailed(
            f"the plug-in information estimate is not positive definite: {err}"
        ) from err
    inv = np.linalg.inv(info_bar)

    u, v = _ensemble_uv(
        config.model, config.theta0, design, config.replicates, config.threads,
    )
    fits, ok = _fit_rows(u, v, config.space)
    theta0_vec = np.array([config.theta0.mu, config.theta0.omega2])
    rows = []
    failures = []
    diffs = []
    covered = {"mu": 0, "omega2": 0}
    with_se = 0
    for r, fit in enumerate(fits):
        if fit is None:
            failures.append((n, r))
            continue
        hat = np.array([fit.theta_hat.mu, fit.theta_hat.omega2])
        diff = hat - theta0_vec
        z = math.sqrt(n) * (L @ diff)
        diffs.append(diff)
        if fit.wald_se is not None:
            with_se += 1
            if abs(diff[0]) <= _Z975 * fit.wald_se[0]:
                covered["mu"] += 1
            if abs(diff[1]) <= _Z975 * fit.wald_se[1]:
                covered["omega2"] += 1
        rows.append({
            "rep": r,
            "n": n,
            "mu_hat": fit.theta_hat.mu,
            "omega2_hat": fit.theta_hat.omega2,
            "z_mu": float(z[0]),
            "z_omega2": float(z[1]),
            "boundary": fit.boundary,
        })
    if not rows:
        raise ExperimentFailed("every replicate failed")
    # scipy.special, which the KS p-value needs, doubles the package's
    # import time, and only this experiment uses it
    from .ks import ks_norm_pvalue

    diffs = np.array(diffs)
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
    summary = {
        "n": n,
        "med_err": float(np.quantile(errs, 0.5)),
        "p90_err": float(np.quantile(errs, 0.9)),
        "ks_mu": ks_mu,
        "ks_omega2": ks_w2,
        "cov_mu": cov_mu,
        "cov_omega2": cov_w2,
    }
    extras = {
        "failed": len(failures) > 0.01 * config.replicates,
        "ks_mu_offset_center": ks_off,
        "info_bar": info_bar,
        "info_bar_se": info_bar_se,
        "wald_denominator": with_se,
    }
    return ExperimentReport(
        kind="normality",
        seed=config.seed,
        config=_config_echo(config),
        rows=tuple(rows),
        summaries=(summary,),
        failures=tuple(failures),
        extras=extras,
    )


def run_moment_continuity_probe(config):
    """MC means of h(U, V)^k along a design sequence vs its limit point.

    h(u, v) = exp(psi * u / (1 + xi * v)); est_m for k in {1, 2} at the
    design family's point m is compared with the estimate at its limit
    point. Every point is validated as one Design before any is estimated.
    """
    if config.replicates == 0:
        raise EmptyExperiment("replicates = 0")
    if not config.xi > 0:
        raise ValueError("xi must be > 0")
    family = config.design
    points = {m: family.point(m) for m in config.m_schedule}
    limit_point = family.limit_point()
    Design(tuple(points.values()) + (limit_point,), config.dt, config.seed)

    def h_moments(x, T, R, seed):
        u, v, failures = _point_uv(
            config.model, config.theta0, x, T, config.dt, R, seed
        )
        with np.errstate(over="ignore"):
            h = np.exp(config.psi * u / (1.0 + config.xi * v))
        out = {}
        for k in (1, 2):
            hk = h ** k
            est = _mean_exact(hk.tolist())
            sd = float(np.std(hk, ddof=1)) if len(hk) > 1 else 0.0
            out[k] = (est, sd / math.sqrt(len(hk)))
        return out, failures

    lim_moments, _ = h_moments(
        *limit_point, config.limit_replicates,
        derive_seed(config.seed, _LANE_PROBE, 0),
    )

    def one_m(m):
        x, T = points[m]
        moments, failures = h_moments(
            x, T, config.replicates, derive_seed(config.seed, _LANE_PROBE, m)
        )
        return m, x, T, moments, failures

    results = _det_map(one_m, list(config.m_schedule), config.threads)
    rows = []
    for m, x, T, moments, _ in results:
        for k in (1, 2):
            est, se = moments[k]
            lim_est, lim_se = lim_moments[k]
            rows.append({
                "m": m,
                "x": x,
                "T": T,
                "k": k,
                "estimate": est,
                "se": se,
                "limit_estimate": lim_est,
                "limit_se": lim_se,
                "gap": abs(est - lim_est),
                "gap_se": math.sqrt(se * se + lim_se * lim_se),
            })
    limit = {
        "est_k1": lim_moments[1][0],
        "se_k1": lim_moments[1][1],
        "est_k2": lim_moments[2][0],
        "se_k2": lim_moments[2][1],
    }
    return ConvergenceTable(rows=tuple(rows), limit=limit)
