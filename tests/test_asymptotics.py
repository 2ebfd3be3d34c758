import math

import numpy as np
import pytest

from sde_remle import (
    DesignFamily,
    ParamSpace,
    Theta,
    averaged_limits,
    builtin_model,
    fisher_info_mc,
    kl_mc,
    run_consistency_experiment,
    run_moment_continuity_probe,
    run_noniid_experiment,
    run_normality_experiment,
    sqrt_2x2_spd,
)
from sde_remle import asymptotics
from sde_remle.asymptotics import _replicate_fits
from sde_remle.errors import (
    AllDegenerate,
    DegenerateDiffusion,
    EmptyExperiment,
    ExperimentFailed,
    InvalidStats,
    NonFiniteObjective,
)
from sde_remle.estimator import fit_mle
from sde_remle.likelihood import ratio_terms
from sde_remle.rng import derive_seed, float_label

UNIT = builtin_model("unit")
LINEAR = builtin_model("linear-drift")
BOUNDED = builtin_model("bounded-ratio")
SPACE = ParamSpace(mu_lo=-3.0, mu_hi=3.0, omega2_lo=0.0, omega2_hi=4.0)
THETA0 = Theta(mu=1.0, omega2=0.5)


def _unit_info(T, omega2):
    i_star = T / (1.0 + omega2 * T)
    return np.array([[i_star, 0.0], [0.0, 0.5 * i_star * i_star]])


def _unit_kl(theta0, theta, T):
    # U is Gaussian with variance T*(1 + omega2*T) and V is the constant T,
    # so the divergence is the usual one between two normal laws
    m0, s0 = theta0.mu * T, T * (1.0 + theta0.omega2 * T)
    m1, s1 = theta.mu * T, T * (1.0 + theta.omega2 * T)
    return 0.5 * (math.log(s1 / s0) + s0 / s1 + (m0 - m1) ** 2 / s1 - 1.0)


def test_fisher_matches_unit_closed_form():
    for T, omega2, seed in ((1.0, 1.0, 3), (1.0, 0.0, 4)):
        est = fisher_info_mc(UNIT, Theta(mu=1.0, omega2=omega2), 0.0, T, 0.1, 20_000, seed)
        want = _unit_info(T, omega2)
        assert np.all(np.abs(est.matrix - want) <= 4.0 * est.mc_se)
        assert est.failures == 0


def test_fisher_information_identity():
    est = fisher_info_mc(LINEAR, Theta(mu=0.8, omega2=0.4), 1.0, 1.0, 0.02, 2000, 8)
    assert np.all(np.abs(est.matrix - est.neg_mean_hess) <= 4.0 * est.identity_se)


def test_fisher_symmetric_and_psd():
    for model, x0 in ((UNIT, 0.0), (BOUNDED, 0.5)):
        est = fisher_info_mc(model, Theta(mu=0.5, omega2=0.5), x0, 1.0, 0.05, 500, 6)
        assert np.array_equal(est.matrix, est.matrix.T)
        assert np.linalg.eigvalsh(est.matrix).min() >= -1e-8


def test_estimators_reject_small_samples(no_draws):
    # every point entry point checks its counts before it draws a normal
    theta = Theta(mu=0.0, omega2=1.0)
    cases = [
        (lambda: fisher_info_mc(UNIT, theta, 0.0, 1.0, 0.1, 99, 0), "information", 100),
        (lambda: kl_mc(UNIT, theta, theta, 0.0, 1.0, 0.1, 99, 0), "divergence", 100),
        (lambda: averaged_limits(
            UNIT, [(0.0, 1.0)] * 2, theta, theta, 0.1, replicates=100,
            limit_point=(0.0, 1.0), limit_replicates=99, seed=0, schedule=(1, 2),
        ), "divergence", 100),
        (lambda: _normality(replicates=99), "information", 100),
        (lambda: _continuity(limit_replicates=2), "moment", 3),
    ]
    for call, what, minimum in cases:
        with pytest.raises(ValueError, match=rf"^{what} estimation needs R >= {minimum}$"):
            call()


def test_kl_matches_gaussian_oracle():
    theta0, theta = Theta(mu=1.0, omega2=0.5), Theta(mu=0.5, omega2=1.0)
    est = kl_mc(UNIT, theta0, theta, 0.0, 2.0, 0.2, 20_000, 19)
    assert abs(est.value - _unit_kl(theta0, theta, 2.0)) <= 4.0 * est.mc_se


def test_kl_self_is_exactly_zero():
    theta0 = Theta(mu=0.7, omega2=0.3)
    est = kl_mc(UNIT, theta0, theta0, 0.0, 1.0, 0.1, 200, 5)
    assert est.value == 0.0
    assert est.mc_se == 0.0


def test_kl_nonnegative_over_random_pairs():
    rng = np.random.default_rng(40)
    for i in range(60):
        theta0 = Theta(mu=float(rng.uniform(-2, 2)), omega2=float(rng.uniform(0, 3)))
        theta = Theta(mu=float(rng.uniform(-2, 2)), omega2=float(rng.uniform(0, 3)))
        est = kl_mc(UNIT, theta0, theta, 0.0, 1.0, 0.1, 150, 100 + i)
        assert est.value >= -3.0 * est.mc_se


def test_kl_nonnegative_dense_gaussian_sweep():
    # same inequality pushed through 500 pairs using the closed-form U law
    # instead of path simulation
    rng = np.random.default_rng(41)
    T = 1.0
    for _ in range(500):
        theta0 = Theta(mu=float(rng.uniform(-2, 2)), omega2=float(rng.uniform(0, 3)))
        theta = Theta(mu=float(rng.uniform(-2, 2)), omega2=float(rng.uniform(0, 3)))
        u = rng.normal(theta0.mu * T, math.sqrt(T * (1.0 + theta0.omega2 * T)), size=400)
        vals = ratio_terms(u, np.full_like(u, T), theta0, theta)
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert float(vals.mean()) >= -3.0 * se


def test_sqrt_2x2():
    m = np.array([[2.0, 0.3], [0.3, 0.5]])
    L = sqrt_2x2_spd(m)
    assert np.allclose(L @ L, m, atol=1e-14)
    assert np.array_equal(L, L.T)
    with pytest.raises(ValueError):
        sqrt_2x2_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _same_fields(a, b):
    """Dataclass estimates equal field for field, arrays bit for bit."""
    assert type(a) is type(b)
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert _bits(x) == _bits(y), name
        else:
            assert x == y, name


def _keep(made, real):
    """real, recording each estimate it makes in made."""
    def estimate(*args):
        made.append(real(*args))
        return made[-1]
    return estimate


def test_column_0_and_the_limit_point_equal_the_single_point_estimators(monkeypatch):
    """Design point 0 is subject 0 of the run's seed and the limit point
    has a seed lane of its own, so their estimates are those kl_mc and
    fisher_info_mc make at those seeds, field for field."""
    kls, infos = [], []
    monkeypatch.setattr(asymptotics, "_kl_estimate", _keep(kls, asymptotics._kl_estimate))
    monkeypatch.setattr(asymptotics, "_info_estimate", _keep(infos, asymptotics._info_estimate))
    family = DesignFamily(kind="harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=1.0)
    theta0, theta, dt, seed = Theta(mu=0.8, omega2=0.4), Theta(mu=1.5, omega2=0.5), 0.03, 23
    points = family.subjects(5)
    table = averaged_limits(
        BOUNDED, points, theta0, theta, dt, replicates=120,
        limit_point=family.limit_point(), limit_replicates=300, seed=seed,
        schedule=(1, 2, 4, 5),
    )
    monkeypatch.undo()
    assert len(kls) == len(infos) == len(points) + 1
    (x, T), (lx, lT) = points[0], family.limit_point()
    lane = derive_seed(seed, 1, float_label(lx), float_label(lT))
    for k, (px, pT, R, s) in ((0, (x, T, 120, seed)), (-1, (lx, lT, 300, lane))):
        _same_fields(kls[k], kl_mc(BOUNDED, theta0, theta, px, pT, dt, R, s))
        _same_fields(infos[k], fisher_info_mc(BOUNDED, theta0, px, pT, dt, R, s))
    assert table.rows[0]["kl"] == kls[0].value
    assert table.limit["i00"] == float(infos[-1].matrix[0, 0])
    assert table.limit["kl"] == kls[-1].value


def test_averaged_limits_draws_one_ensemble_and_one_limit_point_pass(monkeypatch):
    """One pass draws the design points, subjects 0..N-1 on the run's
    seed, and then the limit point, subject 0 on its own seed lane; a
    point's divergence and information read bit-identical (U, V)."""
    passes, kl_uv, info_uv = [], [], []
    real_uv, real_kl, real_info = (
        asymptotics.replicate_uv, asymptotics._kl_estimate, asymptotics._info_estimate)

    def uv(model, dt, segs, **kwargs):
        passes.append([(seg.seed, seg.subject, len(seg.phis)) for seg in segs])
        return real_uv(model, dt, segs, **kwargs)

    def kl(theta0, theta, u, v, failures):
        kl_uv.append((_bits(u), _bits(v)))
        return real_kl(theta0, theta, u, v, failures)

    def info(theta, u, v, failures):
        info_uv.append((_bits(u), _bits(v)))
        return real_info(theta, u, v, failures)

    monkeypatch.setattr(asymptotics, "replicate_uv", uv)
    monkeypatch.setattr(asymptotics, "_kl_estimate", kl)
    monkeypatch.setattr(asymptotics, "_info_estimate", info)
    family = DesignFamily(kind="harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=1.0)
    theta0 = Theta(mu=0.8, omega2=0.4)
    averaged_limits(BOUNDED, family.subjects(6), theta0, Theta(mu=1.5, omega2=0.5), 0.05,
                    replicates=110, limit_point=family.limit_point(), limit_replicates=170,
                    seed=9, schedule=(1, 2, 4, 6))
    lane = derive_seed(9, 1, *map(float_label, family.limit_point()))
    assert passes == [[(9, k, 110) for k in range(6)] + [(lane, 0, 170)]]
    assert len(kl_uv) == len(info_uv) == 6 + 1
    assert kl_uv == info_uv


def _lane(seed, point):
    return derive_seed(seed, 1, *map(float_label, point))


# each Monte Carlo entry point, run small, and the (seed, subject, rows)
# of the segments of the one pass it should make
_ONE_PASS = {
    "fisher_info_mc": (
        lambda: fisher_info_mc(BOUNDED, THETA0, 0.5, 1.5, 0.05, 120, 31),
        [(31, 0, 120)]),
    "kl_mc": (
        lambda: kl_mc(BOUNDED, THETA0, Theta(mu=1.5, omega2=0.5), 0.5, 1.5, 0.05, 130, 32),
        [(32, 0, 130)]),
    "averaged_limits": (
        lambda: averaged_limits(BOUNDED, [(1.0, 2.0), (0.5, 1.5), (1.0, 2.0)], THETA0, THETA0,
                                0.05, 100, (0.0, 1.0), 140, 33, (1, 3)),
        [(33, k, 100) for k in range(3)] + [(_lane(33, (0.0, 1.0)), 0, 140)]),
    "run_consistency_experiment": (
        lambda: _consistency(n_schedule=(3, 7), replicates=5, seed=34),
        [(34, i, 5) for i in range(7)]),
    "run_normality_experiment": (
        lambda: _normality(n=6, replicates=100, seed=35),
        [(35, i, 100) for i in range(6)]),
    "run_noniid_experiment": (
        lambda: _noniid(n=2, n_schedule=(1, 3), replicates=100, limit_replicates=120, seed=36),
        [(36, i, 100) for i in range(3)] + [(_lane(36, (0.0, 1.0)), 0, 120)]),
    "run_moment_continuity_probe": (
        lambda: _continuity(m_schedule=(1, 5), replicates=20, limit_replicates=30, seed=37),
        [(derive_seed(37, 4, m), 0, R) for m, R in ((0, 30), (1, 20), (5, 20))]),
}


@pytest.mark.parametrize("name", sorted(_ONE_PASS))
def test_each_monte_carlo_entry_point_draws_in_one_pass(monkeypatch, name):
    """Every estimate an entry point makes reads one replicate_uv pass:
    averaged_limits and noniid draw their limit point behind the
    ensemble, and the probe stacks its limit point and every m."""
    passes = []
    real = asymptotics.replicate_uv

    def uv(model, dt, segs, **kwargs):
        passes.append([(seg.seed, seg.subject, len(seg.phis)) for seg in segs])
        return real(model, dt, segs, **kwargs)

    monkeypatch.setattr(asymptotics, "replicate_uv", uv)
    run, segments = _ONE_PASS[name]
    run()
    assert passes == [segments]


def test_a_constant_designs_repeated_points_are_distinct_subjects(monkeypatch):
    """Repeated design points are different subjects, each with a draw of
    its own: their estimates differ, so the running averages move and the
    gap to the same point's limit estimate is not 0. When a point's draw
    came from its coordinates, all nine were one draw and every kl_gap
    read exactly 0 against a kl_gap_se of 0.022 to 0.030."""
    kls, infos = [], []
    monkeypatch.setattr(asymptotics, "_kl_estimate", _keep(kls, asymptotics._kl_estimate))
    monkeypatch.setattr(asymptotics, "_info_estimate", _keep(infos, asymptotics._info_estimate))
    family = DesignFamily(kind="harmonic", x_inf=0.0, x_amp=0.0, T_inf=1.0, T_amp=0.0)
    table = averaged_limits(
        LINEAR, family.subjects(8), THETA0, Theta(mu=1.5, omega2=0.5), 0.1,
        replicates=200, limit_point=family.limit_point(), limit_replicates=200, seed=3,
        schedule=(1, 2, 4, 8),
    )
    assert family.subjects(8) == (family.limit_point(),) * 8
    assert len({kl.value for kl in kls}) == len(kls) == 9
    assert len({_bits(info.matrix) for info in infos}) == len(infos) == 9
    assert len({row["kl"] for row in table.rows}) == 4
    for row in table.rows:
        for key in ("kl", "i00", "i01", "i11"):
            assert row[f"{key}_gap"] > 0.0, (row["n"], key)


def test_averaged_limits_without_design_points_is_empty(no_draws):
    theta = Theta(mu=1.0, omega2=0.5)
    with pytest.raises(EmptyExperiment):
        averaged_limits(UNIT, [], theta, theta, 0.1, 100, (0.0, 1.0), 100, 0, (1,))


@pytest.mark.parametrize("schedule", [(0, 2), (1, 4)])
def test_averaged_limits_rejects_a_schedule_past_its_design_points(no_draws, schedule):
    # n = 0 divided by zero after the pass; n = 4 of 2 points averaged 2
    # and divided their standard error by 4
    theta = Theta(mu=1.0, omega2=0.5)
    with pytest.raises(ValueError, match=r"^every schedule entry must lie in 1\.\.2$"):
        averaged_limits(UNIT, [(0.0, 1.0), (0.5, 1.5)], theta, theta, 0.1, 100,
                        (0.0, 1.0), 100, 0, schedule=schedule)


def _zone_model(name, sigma):
    from sde_remle.models import ModelSpec, register_model

    return register_model(ModelSpec(name, lambda x: np.ones_like(x), sigma))


@pytest.mark.parametrize("sigma,message,step", [
    # sigma = 0 or NaN beyond x = 5, sigma^2 below the floor beyond x = 10
    (lambda x: np.where(x < 5.0, 1.0, 0.0), r"sigma <= 0 at step 0", 0),
    (lambda x: np.where(x < 5.0, 1.0, np.nan), r"sigma <= 0 at step 0", 0),
    (lambda x: np.where(x < 10.0, 1.0, 1e-7), r"sigma\^2 below 1e-12", None),
], ids=["sigma-zero", "sigma-nan", "sigma2-floor"])
def test_stacked_point_pass_errors_name_the_failing_design_point(sigma, message, step):
    # only the point at x = 11 starts where sigma fails; the others stay
    # far below x = 5 over T = 1
    model = _zone_model(f"zone-{step}", sigma)
    theta = Theta(mu=0.0, omega2=0.01)
    points = [(0.0, 1.0), (11.0, 1.5), (0.5, 2.0)]
    with pytest.raises(DegenerateDiffusion, match=message) as exc:
        averaged_limits(model, points, theta, theta, 0.1, replicates=100,
                        limit_point=(0.0, 1.0), limit_replicates=100, seed=4,
                        schedule=(1, 2, 3))
    assert "design point (x, T) = (11.0, 1.5)" in str(exc.value)
    assert exc.value.step == step


HARMONIC = DesignFamily(kind="harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=1.0)
ALT = Theta(mu=1.5, omega2=0.5)


def _noniid(**overrides):
    kwargs = dict(
        model=BOUNDED, theta0=THETA0, theta=ALT, space=SPACE, design=HARMONIC, n=4,
        n_schedule=(1, 2, 4, 6), replicates=150, limit_replicates=150, dt=0.05, seed=17,
    )
    kwargs.update(overrides)
    return run_noniid_experiment(**kwargs)


def _table_bits(table):
    return ([sorted((k, _bits(x)) for k, x in row.items()) for row in table.rows],
            sorted((k, _bits(x)) for k, x in table.limit.items()))


# on the schedule, its last entry, past it
@pytest.mark.parametrize("n", [4, 6, 9])
def test_noniid_limits_are_averaged_limits_of_its_subjects(n):
    table, _ = _noniid(n=n)
    want = averaged_limits(BOUNDED, HARMONIC.subjects(max(n, 6)), THETA0, ALT, 0.05, 150,
                           HARMONIC.limit_point(), 150, 17, (1, 2, 4, 6))
    assert _table_bits(table) == _table_bits(want)


def test_noniid_standardises_by_limits_row_n_bit_for_bit(monkeypatch):
    """The fits at n are standardised by the design-averaged information
    of their n columns: limits row n's i00, i01 and i11."""
    seen = []
    real = asymptotics._normality_report

    def spy(u, v, theta0, space, info_bar):
        seen.append((u.shape, info_bar))
        return real(u, v, theta0, space, info_bar)

    monkeypatch.setattr(asymptotics, "_normality_report", spy)
    for n in (1, 2, 4, 6):
        table, _ = _noniid(n=n)
        row, = [row for row in table.rows if row["n"] == n]
        shape, info_bar = seen[-1]
        assert shape == (150, n)
        assert _bits(info_bar) == _bits([[row["i00"], row["i01"]], [row["i01"], row["i11"]]])


# before the schedule's last entry, on it, past it
@pytest.mark.parametrize("n", [3, 6, 9])
def test_noniid_fits_equal_the_normality_experiments(n):
    """noniid's report is run_normality_experiment's at the same seed:
    both fit the first n columns of one ensemble and standardise by the
    exact mean of those columns' information."""
    _, report = _noniid(n=n)
    alone = run_normality_experiment(BOUNDED, THETA0, SPACE, HARMONIC, n, 150, 0.05, 17)
    # every field, rows and summary cells included, by repr as the CSVs
    # write them: bit for bit, zero signs included
    assert repr(report) == repr(alone)


def test_averaged_limits_harmonic_converges():
    """Running averages along x_i = 1/i, T_i = 1 + 1/i approach the
    limit-point estimates: doubling gaps shrink beyond noise and the final
    gap is within Monte Carlo resolution."""
    theta0, theta = Theta(mu=1.0, omega2=2.0), Theta(mu=1.5, omega2=0.5)
    n = 64
    designs = [(1.0 / i, 1.0 + 1.0 / i) for i in range(1, n + 1)]
    table = averaged_limits(
        UNIT, designs, theta0, theta, 0.1,
        replicates=150, limit_point=(0.0, 1.0), limit_replicates=4800, seed=61,
        schedule=(1, 2, 4, 8, 16, 32, 64),
    )
    rows = table.rows
    for key in ("kl", "i00"):
        gaps = [r[f"{key}_gap"] for r in rows]
        ses = [r[f"{key}_gap_se"] for r in rows]
        for a, b in zip(range(len(rows) - 1), range(1, len(rows))):
            noise = 2.0 * math.hypot(ses[a], ses[b])
            assert gaps[b] <= gaps[a] + noise
        assert gaps[-1] <= 4.0 * ses[-1]


def _consistency(**overrides):
    kwargs = dict(
        model=UNIT,
        theta0=Theta(mu=1.0, omega2=0.5),
        space=SPACE,
        design=DesignFamily(kind="iid", x0=0.0, T=1.0),
        n_schedule=(50, 200),
        replicates=60,
        dt=0.1,
        seed=14,
    )
    kwargs.update(overrides)
    return run_consistency_experiment(**kwargs)


def test_consistency_experiment_rates_and_determinism():
    report = _consistency()
    assert report.failed is False
    assert report.ks_mu_offset_center is None and report.wald_denominator is None
    assert report.summaries[0]["n"] == 50 and report.summaries[1]["n"] == 200
    assert report.summaries[1]["med_err"] < report.summaries[0]["med_err"]
    again = _consistency()
    assert again.rows == report.rows
    assert again.summaries == report.summaries
    assert again.failures == report.failures


def test_summary_quantile_equals_numpy_quantile_bit_for_bit():
    # the summary's med_err and p90_err, without np.quantile's import of numpy.ma
    rng = np.random.default_rng(11)
    for n in [*range(1, 50), 120, 400, 1000]:
        for _ in range(20):
            sample = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8)
            sample[: n // 3] = sample[-1]  # ties
            for q in (0.5, 0.9):
                got = np.float64(asymptotics._quantile(sample, q))
                assert got.tobytes() == np.quantile(sample, q).tobytes(), (n, q)
    assert math.isnan(asymptotics._quantile(np.array([]), 0.5))


def test_consistency_simulates_its_largest_level_once(monkeypatch):
    calls = []
    real = asymptotics._draw

    def spy(model, theta0, dt, groups, minimum, what):
        calls.append(groups)
        return real(model, theta0, dt, groups, minimum, what)

    monkeypatch.setattr(asymptotics, "_draw", spy)
    family = DesignFamily(kind="iid", x0=0.0, T=1.0)
    _consistency(design=family, n_schedule=(5, 10, 20), replicates=8)
    ((_, points, replicates),), = calls
    assert points == family.subjects(20) and replicates == 8


def test_consistency_levels_equal_their_own_runs():
    """Level n of a schedule is the run of n alone, field for field: its
    ensemble is the first n columns of the largest level's."""
    report = _consistency(n_schedule=(50, 200))
    for level, n in enumerate((50, 200)):
        alone = _consistency(n_schedule=(n,))
        assert [row for row in report.rows if row["n"] == n] == list(alone.rows)
        assert report.summaries[level] == alone.summaries[0]
        assert [f for f in report.failures if f[0] == n] == list(alone.failures)


@pytest.mark.parametrize("schedule", [(), (0,), (-1, 50)])
def test_consistency_refuses_a_bad_schedule_before_drawing(no_draws, schedule):
    with pytest.raises(ValueError, match=r"^n_schedule needs at least one entry, each >= 1$"):
        _consistency(n_schedule=schedule)


def _schedule_calls():
    theta = Theta(mu=1.0, omega2=0.5)
    return {
        "run_consistency_experiment": lambda s: _consistency(n_schedule=s),
        "averaged_limits": lambda s: averaged_limits(
            UNIT, [(0.0, 1.0)] * 4, theta, theta, 0.1, replicates=100,
            limit_point=(0.0, 1.0), limit_replicates=100, seed=0, schedule=s,
        ),
        "run_moment_continuity_probe": lambda s: _continuity(m_schedule=s),
        "run_noniid_experiment": lambda s: _noniid(n_schedule=s),
    }


@pytest.mark.parametrize("schedule,match", [
    # averaged_limits names the range of its design points instead of the floor
    ((0, 2), r"(needs at least one entry, each >= 1|every schedule entry must lie in 1\.\.4)$"),
    # a repeated or falling schedule wrote rows for 4, 4, 2, 2, 2, 2
    ((4, 2, 2), r"must be strictly increasing$"),
], ids=["zero", "unsorted"])
@pytest.mark.parametrize("name", sorted(_schedule_calls()))
def test_schedules_are_refused_before_drawing(no_draws, name, schedule, match):
    with pytest.raises(ValueError, match=match):
        _schedule_calls()[name](schedule)


def test_consistency_raises_a_late_level_degeneracy_before_any_fit(monkeypatch):
    # the first subject starts at x = 1, four units below the cliff at
    # x = 5; the next seven start at 3 to 4.5, and some of their rows
    # cross it
    model = _zone_model("zone-late-level", lambda x: np.where(x < 5.0, 1.0, 0.0))
    family = DesignFamily(kind="harmonic", x_inf=5.0, x_amp=-4.0, T_inf=1.0, T_amp=0.0)
    fitted = []
    real = asymptotics.fit_rows

    def spy(u, v, space):
        fitted.append(len(u))
        return real(u, v, space)

    monkeypatch.setattr(asymptotics, "fit_rows", spy)
    with pytest.raises(DegenerateDiffusion, match=r"sigma <= 0") as exc:
        _consistency(model=model, theta0=Theta(mu=0.0, omega2=0.01), design=family,
                     n_schedule=(1, 8), replicates=20, seed=3)
    assert exc.value.subject_index > 0
    assert fitted == []


def test_consistency_refuses_boundary_truth():
    with pytest.raises(ValueError):
        _consistency(theta0=Theta(mu=1.0, omega2=0.0), n_schedule=(50,), replicates=10, seed=1)


def test_consistency_zero_replicates():
    with pytest.raises(EmptyExperiment):
        _consistency(n_schedule=(50,), replicates=0, seed=1)


def _normality(**overrides):
    kwargs = dict(
        model=UNIT,
        theta0=Theta(mu=1.0, omega2=0.5),
        space=SPACE,
        design=DesignFamily(kind="iid", x0=0.0, T=1.0),
        n=200,
        replicates=300,
        dt=0.1,
        seed=52,
    )
    kwargs.update(overrides)
    return run_normality_experiment(**kwargs)


def test_normality_experiment():
    report = _normality()
    summary = report.summaries[0]
    assert summary["ks_mu"] > 0.01
    assert summary["ks_omega2"] > 0.01
    assert 0.90 <= summary["cov_mu"] <= 0.985
    assert 0.90 <= summary["cov_omega2"] <= 0.985
    # a five-standard-error shift of the center must be flagrantly
    # non-normal
    assert report.ks_mu_offset_center < 1e-6
    assert report.wald_denominator > 0
    assert len(report.rows) + len(report.failures) == 300


def test_normality_zero_replicates():
    with pytest.raises(EmptyExperiment):
        _normality(replicates=0)


def _continuity(**overrides):
    kwargs = dict(
        model=UNIT,
        theta0=Theta(mu=0.5, omega2=0.5),
        psi=1.0,
        xi=1.0,
        design=DesignFamily(kind="harmonic", x_inf=0.0, x_amp=0.0, T_inf=1.0, T_amp=0.0),
        m_schedule=(1, 2, 4),
        replicates=4000,
        limit_replicates=4000,
        dt=0.1,
        seed=9,
    )
    kwargs.update(overrides)
    return run_moment_continuity_probe(**kwargs)


def test_probe_constant_sequence_is_noise_only():
    table = _continuity()
    assert {r["k"] for r in table.rows} == {1, 2}
    for row in table.rows:
        assert row["x"] == 0.0 and row["T"] == 1.0
        assert row["gap"] <= 4.0 * row["gap_se"]


def test_probe_converges_to_lognormal_oracle():
    theta0 = Theta(mu=0.5, omega2=0.5)
    table = _continuity(
        design=DesignFamily(kind="harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=1.0),
        m_schedule=(1, 2, 4, 8),
        limit_replicates=16_000,
        seed=28,
    )
    for k in (1, 2):
        rows = [r for r in table.rows if r["k"] == k]
        assert [r["m"] for r in rows] == [1, 2, 4, 8]
        for a, b in zip(rows, rows[1:]):
            assert b["gap"] <= a["gap"] + 2.0 * math.hypot(a["gap_se"], b["gap_se"])
        assert rows[-1]["gap"] <= 4.0 * rows[-1]["gap_se"]
    # the limit itself has a closed form: U/(1+T) is Gaussian, so E[h^k]
    # is a lognormal mean
    T = 1.0
    mean_u, var_u = theta0.mu * T, T * (1.0 + theta0.omega2 * T)
    for k, key_est, key_se in ((1, "est_k1", "se_k1"), (2, "est_k2", "se_k2")):
        a = k / (1.0 + T)
        want = math.exp(a * mean_u + 0.5 * a * a * var_u)
        assert abs(table.limit[key_est] - want) <= 4.0 * table.limit[key_se]


def test_probe_requires_positive_xi():
    with pytest.raises(ValueError):
        _continuity(xi=0.0, m_schedule=(1,), replicates=200, limit_replicates=200)


def test_design_family_layouts():
    iid = DesignFamily(kind="iid", x0=0.5, T=2.0)
    assert iid.subjects(3) == ((0.5, 2.0),) * 3
    assert iid.limit_point() == (0.5, 2.0)
    har = DesignFamily(kind="harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=2.0)
    assert har.subjects(2) == ((1.0, 3.0), (0.5, 2.0))
    assert har.limit_point() == (0.0, 1.0)
    with pytest.raises(ValueError):
        DesignFamily(kind="grid")
    for family in (iid, har):
        with pytest.raises(ValueError, match=r"^design points count from 1, got 0$"):
            family.point(0)


def test_fit_rows_drop_non_finite_replicates():
    rng = np.random.default_rng(6)
    v = rng.uniform(0.5, 2.0, size=(4, 8))
    u = rng.normal(v, np.sqrt(v))
    u[1, 3] = np.nan
    v[2, 0] = np.inf
    kept, dropped = _replicate_fits(u, v, THETA0, SPACE)
    assert dropped == [1, 2]
    assert [r for r, _, _ in kept] == [0, 3]
    for r, fit, diff in kept:
        want = fit_mle(u[r], v[r], SPACE)
        assert fit.theta_hat == want.theta_hat
        assert fit.loglik == want.loglik
        assert fit.iterations == want.iterations
        assert diff.tolist() == [want.theta_hat.mu - THETA0.mu,
                                 want.theta_hat.omega2 - THETA0.omega2]


@pytest.mark.parametrize("breaks,error", [
    # (row, kind) pairs; the lowest finite failing row decides the error
    (((1, "all_zero"), (2, "negative")), AllDegenerate),
    (((1, "sentinel"), (3, "negative")), NonFiniteObjective),
    (((0, "nan"), (2, "negative"), (3, "all_zero")), InvalidStats),
    (((2, "overflow"),), NonFiniteObjective),
    (((1, "huge_v"), (3, "negative")), NonFiniteObjective),
    (((1, "negative"), (2, "fsum_overflow")), InvalidStats),
    (((0, "fsum_overflow"), (2, "nan")), NonFiniteObjective),
])
def test_fit_rows_raise_the_first_failing_replicates_error(breaks, error):
    rng = np.random.default_rng(12)
    v = rng.uniform(0.5, 2.0, size=(4, 6))
    u = rng.normal(v, np.sqrt(v))
    for r, kind in breaks:
        if kind == "all_zero":
            u[r], v[r] = 0.0, 0.0
        elif kind == "sentinel":
            u[r, 2], v[r, 2] = 1.0, 0.0
        elif kind == "negative":
            v[r, 4] = -1.0
        elif kind == "overflow":
            u[r, 1] = 1e200
        elif kind == "huge_v":
            v[r, 3] = 1e308
        elif kind == "fsum_overflow":
            u[r, :4], v[r, :4] = [1e308, 1e308, -1e308, -1e308], 1.0
        else:
            u[r, 0] = np.nan
    with pytest.raises(error):
        _replicate_fits(u, v, THETA0, SPACE)


def _coarse_step_calls():
    theta = Theta(mu=1.0, omega2=0.5)
    # each breaks dt <= min(T) / 10 at one horizon only: a later n level,
    # the limit point, or a probe point estimated after the limit
    late = DesignFamily(kind="harmonic", x_inf=0.0, x_amp=1.0, T_inf=0.5, T_amp=1.0)
    first = DesignFamily(kind="harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=-0.5)
    return {
        "fisher_info_mc": lambda: fisher_info_mc(UNIT, theta, 0.0, 1.0, 0.2, 100, 0),
        "kl_mc": lambda: kl_mc(UNIT, theta, theta, 0.0, 1.0, 0.2, 100, 0),
        "averaged_limits": lambda: averaged_limits(
            UNIT, [(0.0, 1.0)] * 2, theta, theta, 0.1, replicates=100,
            limit_point=(0.0, 0.5), limit_replicates=100, seed=0, schedule=(1, 2),
        ),
        "run_consistency_experiment": lambda: _consistency(
            theta0=theta, design=late, n_schedule=(1, 64), replicates=10, dt=0.06, seed=0,
        ),
        "run_normality_experiment": lambda: _normality(dt=0.2),
        "run_noniid_experiment": lambda: _noniid(design=late, dt=0.06),
        "run_moment_continuity_probe": lambda: _continuity(
            theta0=theta, design=first, m_schedule=(1, 2), dt=0.06,
        ),
    }


@pytest.mark.parametrize("name", sorted(_coarse_step_calls()))
def test_entry_points_reject_a_coarse_step_before_drawing(no_draws, name):
    with pytest.raises(ValueError, match=r"^dt must be <= min\(T\) / 10$"):
        _coarse_step_calls()[name]()


@pytest.mark.parametrize("run,counts,error,match", [
    (_consistency, {"replicates": -1}, ValueError, r"^replicates must be >= 0, got -1$"),
    (_normality, {"replicates": -1}, ValueError, r"^replicates must be >= 0, got -1$"),
    (_continuity, {"replicates": -1}, ValueError, r"^replicates must be >= 0, got -1$"),
    (_continuity, {"limit_replicates": -2}, ValueError,
     r"^limit_replicates must be >= 0, got -2$"),
    (_continuity, {"replicates": 0}, EmptyExperiment, r"^replicates = 0$"),
    *[(_continuity, {key: count}, ValueError, r"^moment estimation needs R >= 3$")
      for key, count in (("limit_replicates", 0), ("limit_replicates", 1),
                         ("limit_replicates", 2), ("replicates", 1), ("replicates", 2))],
    (_noniid, {"replicates": -1}, ValueError, r"^replicates must be >= 0, got -1$"),
    (_noniid, {"replicates": 0}, EmptyExperiment, r"^replicates = 0$"),
    *[(_noniid, {key: count}, ValueError, r"^divergence estimation needs R >= 100$")
      for key, count in (("replicates", 99), ("limit_replicates", 99), ("limit_replicates", -1))],
    *[(_noniid, {"n": n}, ValueError, rf"^n must be >= 1, got {n}$") for n in (0, -1)],
], ids=["consistency", "normality", "continuity", "continuity-limit", "continuity-zero",
        "continuity-limit-0", "continuity-limit-1", "continuity-limit-2",
        "continuity-1", "continuity-2", "noniid", "noniid-zero", "noniid-99",
        "noniid-limit-99", "noniid-limit-negative", "noniid-n-0", "noniid-n-negative"])
def test_experiments_reject_a_replicate_count_below_one_before_drawing(
        no_draws, run, counts, error, match):
    # a negative count, or a probe count under the 3 finite rows a point
    # needs, is bad input; zero replicates is an empty experiment
    with pytest.raises(error, match=match):
        run(**counts)


@pytest.mark.parametrize("call", [
    lambda theta: fisher_info_mc(LINEAR, theta, 1.0, 1.0, 0.1, 100, 0),
    lambda theta: kl_mc(LINEAR, theta, Theta(mu=0.0, omega2=0.5), 1.0, 1.0, 0.1, 100, 0),
], ids=["fisher_info_mc", "kl_mc"])
def test_point_estimates_without_finite_rows_raise_a_typed_error(call):
    # growth 1 + phi*dt = 1e49 per step overflows float64 well before T
    with pytest.raises(ExperimentFailed, match=r"design point \(x, T\) = \(1\.0, 1\.0\)"):
        call(Theta(mu=1.0e50, omega2=0.5))


@pytest.mark.parametrize("psi,k", [(10.0, 2), (400.0, 1)])
def test_probe_moments_that_overflow_raise_a_typed_error(psi, k):
    # h = exp(psi * U / (1 + xi * V)) passes 1.8e308 on some linear-drift
    # rows at the limit point: for h^2 only at psi = 10, for h itself at 400
    match = rf"h\(U, V\)\^{k} is not finite at design point \(x, T\) = \(0\.0, 1\.0\)$"
    with pytest.raises(ExperimentFailed, match=match):
        _continuity(
            model=LINEAR, psi=psi, xi=0.001, m_schedule=(1, 2), replicates=50,
            limit_replicates=50, dt=0.05, seed=3,
            design=DesignFamily(kind="harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=1.0),
        )
