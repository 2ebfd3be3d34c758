"""End-to-end acceptance gate.

One test per guarantee the package ships: exactness of the unit-model
statistics, the likelihood against direct quadrature of its mixing
integral, analytic derivatives against finite differences, the fitter
against grid search and the closed-form Gaussian oracle, Monte Carlo
Fisher information against the closed form, error shrinkage, standardized
normality with calibrated coverage, design-averaged limits under a
non-iid layout, moment continuity in the design point, and byte-level
thread determinism. Each test pins its tolerances and asserts its own
wall-clock budget. Seeds are fixed; every number below is reproducible.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from sde_remle import DesignFamily, ParamSpace, Theta, builtin_model
from sde_remle.asymptotics import (
    averaged_limits,
    fisher_info_mc,
    run_consistency_experiment,
    run_moment_continuity_probe,
    run_normality_experiment,
)
from sde_remle.cli import main
from sde_remle.estimator import fit_mle
from sde_remle.likelihood import hess_terms, loglik_terms, score_terms
from sde_remle.simulate import simulate_replicates
from sde_remle.stats import suff_stats_rows

UNIT = builtin_model("unit")
LINEAR = builtin_model("linear-drift")
SPACE = ParamSpace(mu_lo=-3.0, mu_hi=3.0, omega2_lo=0.0, omega2_hi=4.0)


def test_01_unit_statistics_recover_displacement_and_horizon():
    """U telescopes to X(T) - x0 and V sums to T, path by path.

    10 batches of 100 paths, random start points, horizons, and drift
    multipliers; both identities must hold to 1e-12 absolute even when
    T is not a multiple of dt.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for j in range(10):
        x0 = float(rng.uniform(-2.0, 2.0))
        T = float(rng.uniform(0.5, 3.0))
        phis = rng.normal(0.8, math.sqrt(0.6), 100)
        times, values, bad = simulate_replicates(
            UNIT, phis, x0, T, 0.05, 500 + j, 0
        )
        assert (bad == -1).all()
        u, v = suff_stats_rows(times, values, UNIT)
        assert np.max(np.abs(u - (values[:, -1] - x0))) <= 1e-12
        assert np.max(np.abs(v - T)) <= 1e-12
        checked += len(u)
    assert checked == 1000
    assert time.perf_counter() - t0 < 1.0


def _quad_log_mixture(u, v, mu, w2):
    """log of the drift-mixing integral by adaptive quadrature.

    The integrand exp(phi*u - phi^2*v/2) * N(phi; mu, w2) is a Gaussian
    in phi with precision v + 1/w2; integrating over 13 posterior sds
    around its peak truncates less than 1e-36 of the mass. The peak
    value is factored out so quad works near 1.0.
    """
    prec = v + 1.0 / w2
    phi_star = (u + mu / w2) / prec
    sd = 1.0 / math.sqrt(prec)

    def g(phi):
        return (phi * u - 0.5 * phi * phi * v
                - 0.5 * (phi - mu) ** 2 / w2
                - 0.5 * math.log(2.0 * math.pi * w2))

    g0 = g(phi_star)
    val, _ = integrate.quad(
        lambda p: math.exp(g(p) - g0),
        phi_star - 13.0 * sd, phi_star + 13.0 * sd,
        epsabs=1e-13, epsrel=1e-12, limit=200,
    )
    return g0 + math.log(val)


def test_02_log_likelihood_matches_mixing_integral_quadrature():
    """Closed form vs direct quadrature at 100 random (U, V, theta)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(100):
        u = float(rng.uniform(-10.0, 10.0))
        v = float(rng.uniform(0.01, 20.0))
        mu = float(rng.uniform(-3.0, 3.0))
        w2 = float(rng.uniform(0.05, 4.0))
        closed = float(loglik_terms(u, v, mu, w2))
        quad = _quad_log_mixture(u, v, mu, w2)
        assert abs(closed - quad) <= 1e-8 * max(1.0, abs(closed))
    assert time.perf_counter() - t0 < 10.0


def test_03_analytic_derivatives_match_finite_differences():
    """Score and Hessian against central differences at 1000 points.

    Step 1e-6 for first derivatives. Second differences use 1e-4: the
    subtraction cancellation floor eps*|f|/h^2 makes 1e-6 unusable there
    while 1e-4 keeps both the cancellation and the truncation error near
    1e-8. Errors are relative with an absolute floor of 1 so near-zero
    derivatives are judged absolutely.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    u = rng.uniform(-20.0, 20.0, 1000)
    v = rng.uniform(0.05, 30.0, 1000)
    mu = rng.uniform(-3.0, 3.0, 1000)
    w2 = rng.uniform(0.01, 3.99, 1000)

    h = 1e-6
    s_mu, s_w = score_terms(u, v, mu, w2)
    fd_mu = (loglik_terms(u, v, mu + h, w2) - loglik_terms(u, v, mu - h, w2)) / (2 * h)
    fd_w = (loglik_terms(u, v, mu, w2 + h) - loglik_terms(u, v, mu, w2 - h)) / (2 * h)
    assert np.max(np.abs(s_mu - fd_mu) / np.maximum(1.0, np.abs(s_mu))) <= 1e-5
    assert np.max(np.abs(s_w - fd_w) / np.maximum(1.0, np.abs(s_w))) <= 1e-5

    h2 = 1e-4
    f0 = loglik_terms(u, v, mu, w2)
    h_mm, h_mw, h_ww = hess_terms(u, v, mu, w2)
    fd_mm = (loglik_terms(u, v, mu + h2, w2) - 2 * f0
             + loglik_terms(u, v, mu - h2, w2)) / h2**2
    fd_ww = (loglik_terms(u, v, mu, w2 + h2) - 2 * f0
             + loglik_terms(u, v, mu, w2 - h2)) / h2**2
    fd_mw = (loglik_terms(u, v, mu + h2, w2 + h2)
             - loglik_terms(u, v, mu + h2, w2 - h2)
             - loglik_terms(u, v, mu - h2, w2 + h2)
             + loglik_terms(u, v, mu - h2, w2 - h2)) / (4 * h2**2)
    assert np.max(np.abs(h_mm - fd_mm) / np.maximum(1.0, np.abs(h_mm))) <= 1e-4
    assert np.max(np.abs(h_mw - fd_mw) / np.maximum(1.0, np.abs(h_mw))) <= 1e-4
    assert np.max(np.abs(h_ww - fd_ww) / np.maximum(1.0, np.abs(h_ww))) <= 1e-4
    assert time.perf_counter() - t0 < 5.0


def test_04_fit_matches_grid_argmax_and_gaussian_closed_form():
    """Two independent oracles for the fitter.

    (a) 50 small random ensembles: the fitted optimum falls within one
    cell of the argmax of a 400x400 likelihood grid over the whole
    parameter rectangle. (b) 100 unit-model ensembles: the fit agrees
    with the closed-form Gaussian MLE (sample mean / clamped sample
    variance of U) to 1e-5 absolute.
    """
    t0 = time.perf_counter()
    mu_axis = np.linspace(SPACE.mu_lo, SPACE.mu_hi, 400)
    w2_axis = np.linspace(SPACE.omega2_lo, SPACE.omega2_hi, 400)
    cell_mu = mu_axis[1] - mu_axis[0]
    cell_w2 = w2_axis[1] - w2_axis[0]
    rng = np.random.default_rng(404)
    for case in range(50):
        n = int(rng.integers(4, 11))
        phis = rng.normal(rng.uniform(-1.5, 1.5),
                          math.sqrt(rng.uniform(0.1, 2.5)), n)
        times, values, _ = simulate_replicates(
            UNIT, phis, 0.0, 1.0, 0.1, 9000 + case, 0
        )
        u, v = suff_stats_rows(times, values, UNIT)
        fit = fit_mle(u, v, SPACE)
        grid = loglik_terms(
            u[None, None, :], v[None, None, :],
            mu_axis[:, None, None], w2_axis[None, :, None],
        ).sum(axis=2)
        i, j = np.unravel_index(np.argmax(grid), grid.shape)
        assert abs(fit.theta_hat.mu - mu_axis[i]) <= 1.0001 * cell_mu
        assert abs(fit.theta_hat.omega2 - w2_axis[j]) <= 1.0001 * cell_w2

    rng = np.random.default_rng(505)
    for case in range(100):
        T = float(rng.uniform(0.5, 2.0))
        phis = rng.normal(rng.uniform(-1.5, 1.5),
                          math.sqrt(rng.uniform(0.1, 2.0)), 300)
        times, values, _ = simulate_replicates(
            UNIT, phis, 0.0, T, T / 10.0, 11000 + case, 0
        )
        u, v = suff_stats_rows(times, values, UNIT)
        fit = fit_mle(u, v, SPACE)
        mu_oracle = float(u.mean()) / T
        s2 = float(np.mean((u - u.mean()) ** 2))
        w2_oracle = max((s2 / T - 1.0) / T, 0.0)
        assert abs(fit.theta_hat.mu - mu_oracle) <= 1e-5
        assert abs(fit.theta_hat.omega2 - w2_oracle) <= 1e-5
    assert time.perf_counter() - t0 < 120.0


def check_05_fisher_information(seed):
    """Test_05's assertions on the Monte Carlo pass at seed."""
    for T, w2 in ((1.0, 1.0), (1.0, 0.0), (0.5, 0.5), (2.0, 0.25), (1.5, 2.0)):
        est = fisher_info_mc(UNIT, Theta(1.0, w2), 0.0, T, T / 10.0, 10_000, seed)
        istar = T / (1.0 + w2 * T)
        closed = np.array([[istar, 0.0], [0.0, 0.5 * istar * istar]])
        assert np.all(np.abs(est.matrix - closed) <= 4.0 * est.mc_se)
        assert np.all(np.abs(est.matrix - est.neg_mean_hess) <= 4.0 * est.identity_se)
        assert est.failures == 0


def test_05_fisher_information_matches_closed_form_and_identity():
    """Score covariance vs [[I*, 0], [0, I*^2/2]], I* = T/(1+w2*T).

    Five (T, w2) design points at mu = 1 with 10^4 replicates each; the
    estimate must sit within 4 jackknife standard errors of the closed
    form entrywise, and the score covariance must match -mean(Hessian)
    within 4 standard errors of their difference.
    """
    t0 = time.perf_counter()
    check_05_fisher_information(2)
    assert time.perf_counter() - t0 < 120.0


def check_06_consistency(seed):
    """Test_06's assertions on the consistency runs at seed."""
    for model, x0 in ((UNIT, 0.0), (LINEAR, 1.0)):
        report = run_consistency_experiment(
            model=model, theta0=Theta(1.0, 0.5), space=SPACE,
            design=DesignFamily(kind="iid", x0=x0, T=1.0),
            n_schedule=(50, 200, 800), replicates=300,
            dt=1.0 / 200.0, seed=seed,
        )
        assert not report.failed
        meds = [s["med_err"] for s in report.summaries]
        assert meds[0] > meds[1] > meds[2]
        for a, b in zip(meds, meds[1:]):
            assert 0.35 <= b / a <= 0.75


@pytest.mark.slow
def test_06_estimation_error_halves_as_ensembles_quadruple():
    """Median error strictly decreasing over n = 50, 200, 800.

    300 replicates per level for both built-in drift shapes; each 4x
    ensemble growth must shrink the median error by a factor whose
    consecutive ratio lies in [0.35, 0.75] (0.5 is the 1/sqrt(n) rate).
    """
    t0 = time.perf_counter()
    check_06_consistency(6)
    assert time.perf_counter() - t0 < 300.0


def _check_normality(report, replicates):
    assert not report.failed
    assert len(report.failures) == 0
    s = report.summaries[0]
    assert s["ks_mu"] > 0.01
    assert s["ks_omega2"] > 0.01
    assert 0.92 <= s["cov_mu"] <= 0.975
    assert 0.92 <= s["cov_omega2"] <= 0.975
    assert report.ks_mu_offset_center < 1e-6
    assert report.wald_denominator == replicates


def check_07_normality(seed, n=6400, dt=0.1):
    """Test_07's assertions on an iid normality run at seed."""
    report = run_normality_experiment(
        model=UNIT, theta0=Theta(1.0, 1.0), space=SPACE,
        design=DesignFamily(kind="iid", x0=0.0, T=1.0),
        n=n, replicates=1000, dt=dt, seed=seed,
    )
    _check_normality(report, 1000)


@pytest.mark.slow
def test_07_standardized_errors_are_gaussian_with_calibrated_coverage():
    """sqrt(n)-standardized errors pass KS normality; Wald CIs cover.

    1000 fits of 6400-subject ensembles. Per-coordinate KS p-value above
    0.01, 95% interval coverage inside [0.92, 0.975], and recentering mu
    by five standard errors must drive the KS p-value below 1e-6. For
    this model n * sigma2_hat / sigma2 is chi-squared with n - 1 degrees
    of freedom, so omega2_hat has skewness sqrt(8 / n): at 400 subjects a
    1000-sample KS test rejects it at about 15% of seeds, at 6400 at
    about 1.4%. The unit model's (U, V) are exact on any grid, so dt =
    0.1 costs nothing.
    """
    t0 = time.perf_counter()
    check_07_normality(2)
    assert time.perf_counter() - t0 < 300.0


HARMONIC = DesignFamily(kind="harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=1.0)


def check_08_limits(seed):
    """Test_08's assertions on the averaged limits at seed."""
    table = averaged_limits(
        UNIT, HARMONIC.subjects(256), Theta(1.0, 1.0), Theta(1.5, 0.5),
        1.0 / 200.0, 400, HARMONIC.limit_point(), 25_600, seed,
        tuple(2 ** k for k in range(9)),
    )
    assert table.rows[-1]["n"] == 256
    for key in ("kl", "i00", "i01", "i11"):
        gaps = [r[f"{key}_gap"] for r in table.rows]
        ses = [r[f"{key}_gap_se"] for r in table.rows]
        for i in range(len(gaps) - 1):
            assert gaps[i + 1] <= gaps[i] + 2.0 * math.hypot(ses[i], ses[i + 1])
        assert gaps[-1] <= 4.0 * ses[-1]


def check_08_normality(seed, n=6400, dt=0.1):
    """Test_08's assertions on a harmonic normality run at seed."""
    report = run_normality_experiment(
        model=UNIT, theta0=Theta(1.0, 1.0), space=SPACE, design=HARMONIC,
        n=n, replicates=1000, dt=dt, seed=seed,
    )
    _check_normality(report, 1000)


@pytest.mark.slow
def test_08_design_averaged_limits_converge_under_non_iid_layout():
    """Running averages of information and divergence approach the limit.

    Subjects at (1/i, 1 + 1/i): along the doubling schedule up to n = 256
    every gap to the limit-point estimate decreases up to 2 combined
    standard errors, the final gaps sit within 4; the same layout, at
    test_07's size and step, passes the normality thresholds with the
    design-averaged plug-in.
    """
    t0 = time.perf_counter()
    check_08_limits(61)
    check_08_normality(5)
    assert time.perf_counter() - t0 < 600.0


def check_09_continuity(seed):
    """Test_09's assertions on the continuity probe at seed."""
    table = run_moment_continuity_probe(
        model=UNIT, theta0=Theta(0.5, 0.5), psi=1.0, xi=1.0, design=HARMONIC,
        m_schedule=(1, 2, 4, 8, 16), replicates=12_000,
        limit_replicates=48_000, dt=1.0 / 100.0, seed=seed,
    )
    for k in (1, 2):
        rows = [r for r in table.rows if r["k"] == k]
        assert [r["m"] for r in rows] == [1, 2, 4, 8, 16]
        gaps = [r["gap"] for r in rows]
        ses = [r["gap_se"] for r in rows]
        for i in range(len(gaps) - 1):
            assert gaps[i + 1] <= gaps[i] + 2.0 * math.hypot(ses[i], ses[i + 1])
        assert gaps[-1] <= 4.0 * ses[-1]
        assert gaps[0] - gaps[-1] > 4.0 * math.hypot(ses[0], ses[-1])


def test_09_probe_moments_are_continuous_in_the_design_point():
    """E[h^k] at (1/m, 1 + 1/m) approaches its value at (0, 1).

    h(U, V) = exp(U / (1 + V)), k in {1, 2}; over m = 1, 2, 4, 8, 16 each
    gap to the limit-point estimate rises by at most 2 combined standard
    errors, the final gap stays within 4 of its own, and the gap at m = 1
    exceeds the final one by more than 4 combined standard errors.
    """
    t0 = time.perf_counter()
    check_09_continuity(5)
    assert time.perf_counter() - t0 < 180.0


_DET_COMMON = """\
model = unit
mu0 = 1.0
omega2_0 = 0.5
mu_lo = -3.0
mu_hi = 3.0
omega2_lo = 0.0
omega2_hi = 4.0
dt = 0.05
seed = 3
"""

_DET_CONFIGS = {
    "consistency": _DET_COMMON + """\
design = iid
x0 = 0.0
T = 1.0
n_schedule = 10,20
replicates = 30
""",
    "normality": _DET_COMMON + """\
design = iid
x0 = 0.0
T = 1.0
n = 40
replicates = 100
""",
    "noniid": _DET_COMMON + """\
design = harmonic
x_inf = 0.0
x_amp = 1.0
T_inf = 1.0
T_amp = 1.0
mu_alt = 1.5
omega2_alt = 0.25
n = 16
n_schedule = 1,2,4,8,16
replicates = 100
limit_replicates = 400
""",
    "continuity": _DET_COMMON + """\
psi = 1.0
xi = 1.0
x_inf = 0.0
x_amp = 1.0
T_inf = 1.0
T_amp = 1.0
m_schedule = 1,2,4
replicates = 200
limit_replicates = 400
""",
}


def test_10_experiments_are_byte_identical_across_thread_counts(tmp_path, capsys):
    """Every experiment kind rerun at 1 and 8 workers emits identical CSVs."""
    t0 = time.perf_counter()
    for kind, text in _DET_CONFIGS.items():
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(text)
        outs = {}
        for threads in (1, 8):
            out_dir = tmp_path / f"{kind}-t{threads}"
            rc = main(["experiment", kind, "--config", str(cfg),
                       "--out", str(out_dir), "--threads", str(threads)])
            assert rc == 0
            outs[threads] = out_dir
        names = sorted(p.name for p in outs[1].iterdir())
        assert names == sorted(p.name for p in outs[8].iterdir())
        assert names
        for name in names:
            assert (outs[1] / name).read_bytes() == (outs[8] / name).read_bytes(), (
                f"{kind}/{name} differs between 1 and 8 threads"
            )
    capsys.readouterr()
    assert time.perf_counter() - t0 < 600.0
