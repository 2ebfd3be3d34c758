import math
import tracemalloc

import numpy as np
import pytest

from sde_remle import (
    PHI_STREAM_ID,
    Design,
    DesignFamily,
    SimulationDiverged,
    Theta,
    builtin_model,
    euler_maruyama,
    simulate_ensemble,
    time_grid,
)
from sde_remle.errors import DegenerateDiffusion
from sde_remle.models import ModelSpec, register_model
from sde_remle.rng import generator
from sde_remle.simulate import _euler_rows, effect_rows, path_normals, simulate_replicates

UNIT = builtin_model("unit")
LINEAR = builtin_model("linear-drift")
BOUNDED = builtin_model("bounded-ratio")


class TestTimeGrid:
    def test_exact_multiple(self):
        t = time_grid(1.0, 0.25)
        assert np.allclose(t, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert t[-1] == 1.0

    def test_partial_final_step(self):
        t = time_grid(1.0, 0.3)
        assert len(t) == 5
        assert t[-1] == 1.0
        assert t[-1] - t[-2] < 0.3

    def test_single_step_when_dt_exceeds_horizon(self):
        t = time_grid(0.5, 0.9)
        assert list(t) == [0.0, 0.5]

    def test_near_multiple_does_not_produce_zero_step(self):
        t = time_grid(1.0, 1.0 / 3.0)
        assert len(t) == 4
        assert np.all(np.diff(t) > 0)

    @pytest.mark.parametrize("T", [1e308, np.float64(1e308), float("inf")])
    def test_step_count_that_overflows_is_a_value_error(self, T):
        with pytest.raises(ValueError, match="overflows"):
            time_grid(T, 0.01)


def _zero_noise_path(model, phi, x0, T, dt):
    """The kernel's stored path driven by zero increments: the explicit
    Euler solution of dx = phi b(x) dt."""
    times = time_grid(T, dt)
    steps = len(times) - 1
    values = np.empty((1, steps + 1))
    first_bad = _euler_rows(model, np.array([phi]), np.array([x0]), np.array([T]),
                            np.array([steps]), dt, np.zeros((1, steps)), [0], values)
    assert first_bad.tolist() == [-1]
    return times, values[0]


def test_zero_noise_unit_path_is_linear():
    times, values = _zero_noise_path(UNIT, 2.0, 1.0, 1.0, 0.1)
    assert values[-1] == pytest.approx(1.0 + 2.0 * 1.0, abs=1e-15)
    assert np.allclose(values, 1.0 + 2.0 * times)


def test_zero_noise_matches_explicit_euler_ode():
    """With Z = 0 the path must reproduce the explicit-Euler recursion of
    dx = phi b(x) dt for any model."""
    phi, x0, T, dt = 0.8, 0.5, 1.0, 0.05
    times, values = _zero_noise_path(LINEAR, phi, x0, T, dt)
    state = x0
    for k in range(len(times) - 1):
        delta = times[k + 1] - times[k]
        state = state + phi * LINEAR.b(state) * delta
        assert values[k + 1] == pytest.approx(state, rel=1e-15)


def test_single_step_formula():
    p = euler_maruyama(UNIT, 1.5, 0.25, 1.0, 1.0, 3)
    z0 = path_normals(3, 0, [0], 1)[0, 0]
    assert p.values[-1] == pytest.approx(0.25 + 1.5 * 1.0 + math.sqrt(1.0) * z0, rel=1e-15)
    assert len(p.times) == 2


def test_path_determinism():
    a = euler_maruyama(BOUNDED, 0.7, 0.2, 1.0, 0.01, 11, 4, 2)
    b = euler_maruyama(BOUNDED, 0.7, 0.2, 1.0, 0.01, 11, 4, 2)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.times, b.times)


def test_unit_increment_moments():
    # X(t+dt) - X(t) - phi dt must be N(0, dt) for the unit model
    p = euler_maruyama(UNIT, 1.0, 0.0, 40.0, 0.01, 21)
    incs = np.diff(p.values) - 1.0 * np.diff(p.times)
    scaled = incs / np.sqrt(np.diff(p.times))
    n = len(scaled)
    assert abs(scaled.mean()) < 4.0 / math.sqrt(n)
    assert abs(scaled.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)


def test_divergence_raises_with_step_index():
    # growth factor 1 + phi*dt = 1e6 per step overflows float64 within
    # ~52 steps
    with pytest.raises(SimulationDiverged) as exc:
        euler_maruyama(LINEAR, 1.0e8, 1.0, 1.0, 0.01, 2)
    assert exc.value.step >= 1


def test_degenerate_sigma_raises():
    # zero increments reduce the recursion to x -> x + dt, which walks
    # -0.5 -> -0.25 -> 0.0 where sigma vanishes
    model = ModelSpec(name="vanishing", b=lambda x: np.ones_like(x), sigma=lambda x: -x)
    with pytest.raises(DegenerateDiffusion):
        _zero_noise_path(model, 1.0, -0.5, 1.0, 0.25)


def test_random_effects_zero_variance_collapses():
    phis = effect_rows(Theta(mu=0.7, omega2=0.0), 1, [0], 5, stream_id=0)
    assert phis.tolist() == [[0.7] * 5]


def test_random_effects_match_moments():
    phis = effect_rows(Theta(mu=0.0, omega2=1.0), 8, [0], 100_000, stream_id=0)[0]
    assert abs(phis.mean()) < 0.02
    assert 0.97 < phis.var() < 1.03


def test_random_effects_equal_scaled_fresh_stream():
    theta0 = Theta(mu=0.3, omega2=0.7)
    phis = effect_rows(theta0, 6, [2], 50)[0]
    want = 0.3 + math.sqrt(0.7) * generator(6, PHI_STREAM_ID, 2).standard_normal(50)
    assert phis.tolist() == want.tolist()


def test_random_effects_deterministic():
    theta0 = Theta(mu=0.0, omega2=1.0)
    a = effect_rows(theta0, 5, [0, 3], 10, stream_id=0)
    assert np.array_equal(a, effect_rows(theta0, 5, [0, 3], 10, stream_id=0))
    # each replicate's row is its own substream, whatever rows come with it
    assert a[1].tolist() == effect_rows(theta0, 5, [3], 10, stream_id=0)[0].tolist()


def test_ensemble_deterministic_and_tagged():
    design = Design(subjects=((0.0, 1.0), (0.5, 1.5), (1.0, 2.0)), dt=0.05, seed=13)
    theta0 = Theta(mu=1.0, omega2=0.25)
    e1 = simulate_ensemble(UNIT, theta0, design)
    e2 = simulate_ensemble(UNIT, theta0, design)
    assert len(e1) == 3
    for p, q, idx in zip(e1, e2, range(3)):
        assert p.subject_index == idx
        assert np.array_equal(p.values, q.values)
        assert p.phi == q.phi


def _own_divergence_step(model, phi, x0, T, dt, seed, subject):
    with pytest.raises(SimulationDiverged) as exc:
        euler_maruyama(model, phi, x0, T, dt, seed, subject)
    return exc.value.step


def test_ensemble_divergence_carries_subject_index():
    # both subjects diverge; the lowest index is reported at its own step
    design = Design(subjects=((0.0, 1.0), (1.0, 1.0)), dt=0.01, seed=4)
    theta0 = Theta(mu=1.0e8, omega2=0.0)
    with pytest.raises(SimulationDiverged) as exc:
        simulate_ensemble(LINEAR, theta0, design)
    assert exc.value.subject_index == 0
    assert exc.value.step == _own_divergence_step(LINEAR, 1.0e8, 0.0, 1.0, 0.01, 4, 0)


def _cliff_sigma(x):
    x = np.asarray(x, dtype=float)
    return np.where(x < 5.0, 1.0, 0.0)


# a user model whose diffusion vanishes beyond x = 5
CLIFF = register_model(ModelSpec("cliff", lambda x: np.ones_like(x), _cliff_sigma))


def test_ensemble_degenerate_diffusion_names_the_lowest_failing_subject():
    # subjects 1 and 3 start where sigma = 0 and share one row block, so
    # the lowest failing row of that block is subject 1, not row 0
    subjects = ((0.0, 1.0), (6.0, 1.0), (0.0, 1.0), (6.0, 1.0))
    design = Design(subjects=subjects, dt=0.1, seed=3)
    with pytest.raises(DegenerateDiffusion) as exc:
        simulate_ensemble(CLIFF, Theta(mu=0.5, omega2=0.1), design)
    assert exc.value.subject_index == 1
    assert exc.value.step == 0
    assert "(subject 1)" in str(exc.value)


def _own_degenerate_step(model, theta0, subjects, dt, seed, i):
    phi = effect_rows(theta0, seed, [0], len(subjects))[0, i]
    x0, T = subjects[i]
    try:
        euler_maruyama(model, phi, x0, T, dt, seed, i)
    except DegenerateDiffusion as err:
        return err.step
    return math.inf


def test_ensemble_degenerate_diffusion_is_the_lowest_row_to_fail_first():
    # one row block started just below the cliff: the paths reach it at
    # different steps, and the subject named is the lowest one among those
    # that reach it first, not the first row of the block
    theta0 = Theta(mu=0.0, omega2=4.0)
    subjects = ((4.6, 1.0),) * 6
    design = Design(subjects=subjects, dt=0.1, seed=11)
    steps = [_own_degenerate_step(CLIFF, theta0, subjects, 0.1, 11, i) for i in range(6)]
    first = min(steps)
    expected = steps.index(first)
    assert expected > 0
    with pytest.raises(DegenerateDiffusion) as exc:
        simulate_ensemble(CLIFF, theta0, design)
    assert (exc.value.subject_index, exc.value.step) == (expected, first)


def test_replicates_degenerate_diffusion_carries_subject_index():
    with pytest.raises(DegenerateDiffusion) as exc:
        simulate_replicates(CLIFF, [0.5, 0.5], 6.0, 1.0, 0.1, 3, 7, [0, 1])
    assert exc.value.subject_index == 7
    assert exc.value.step == 0


def test_degenerate_diffusion_without_subject():
    err = DegenerateDiffusion("sigma <= 0", step=2)
    assert err.subject_index is None and str(err) == "sigma <= 0"


def test_ensemble_divergence_reports_lowest_subject_not_earliest_step():
    # growth 1 + phi*dt = 1e6 per step: subject 0 stops after 10 steps
    # short of overflow, subject 2 starts near overflow and diverges
    # first, and subjects 1 and 3 share one row block
    subjects = ((1.0, 0.1), (1.0, 1.0), (1.0e200, 1.0), (1.0, 1.0))
    design = Design(subjects=subjects, dt=0.01, seed=9)
    theta0 = Theta(mu=1.0e8, omega2=0.0)
    with pytest.raises(SimulationDiverged) as exc:
        simulate_ensemble(LINEAR, theta0, design)
    step1 = _own_divergence_step(LINEAR, 1.0e8, 1.0, 1.0, 0.01, 9, 1)
    step2 = _own_divergence_step(LINEAR, 1.0e8, 1.0e200, 1.0, 0.01, 9, 2)
    assert step2 < step1
    assert exc.value.subject_index == 1
    assert exc.value.step == step1


@pytest.mark.parametrize("replicate_id", [0, 5])
def test_ensemble_row_blocks_equal_per_subject_paths(replicate_id):
    """Subjects are grouped by (x0, T) into row blocks; every path must
    equal euler_maruyama on the subject's own stream, bit for bit."""
    family = DesignFamily(kind="harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=1.0)
    subjects = family.subjects(4) + family.subjects(3) + ((0.25, 1.0),)
    design = Design(subjects=subjects, dt=0.02, seed=31)
    theta0 = Theta(mu=0.6, omega2=0.8)
    paths = simulate_ensemble(BOUNDED, theta0, design, replicate_id=replicate_id)
    phis = effect_rows(theta0, 31, [replicate_id], design.n)[0].tolist()
    assert len(paths) == design.n
    for i, ((x0, T), path, phi) in enumerate(zip(subjects, paths, phis)):
        want = euler_maruyama(BOUNDED, phi, x0, T, 0.02, 31, i, replicate_id)
        assert path.subject_index == i
        assert path.phi == phi
        assert path.x0 == want.x0
        assert np.array_equal(path.times, want.times)
        assert np.array_equal(path.values, want.values)


def _check_keeps_only_its_paths(family):
    design = Design(subjects=family.subjects(200), dt=0.01, seed=5)
    theta0 = Theta(mu=0.5, omega2=0.2)
    simulate_ensemble(UNIT, theta0, design)
    tracemalloc.start()
    try:
        paths = simulate_ensemble(UNIT, theta0, design)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(p.values.nbytes + p.times.nbytes for p in paths) < 800_000
    assert retained < 2_000_000
    # no path keeps a padded matrix alive
    assert all(p.values.base.size == len(p.values) for p in paths)


def test_ensemble_of_unequal_horizons_keeps_only_its_paths():
    # T from 50 down to about 1.25: the paths and grids need 0.8 MB, the
    # chunk they are simulated in 8 MB
    _check_keeps_only_its_paths(
        DesignFamily(kind="harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=49.0))


def test_iid_ensemble_keeps_only_its_paths():
    # 200 paths of 200 steps on one shared grid
    _check_keeps_only_its_paths(DesignFamily(kind="iid", x0=0.5, T=2.0))


def test_ensemble_exchangeable_under_iid_design():
    """First and last subject must have the same endpoint law across
    ensemble replicates (two-sample KS)."""
    from scipy.stats import ks_2samp

    design = Design(subjects=((0.0, 1.0),) * 6, dt=0.05, seed=77)
    theta0 = Theta(mu=0.5, omega2=0.3)
    first, last = [], []
    for rep in range(400):
        paths = simulate_ensemble(UNIT, theta0, design, replicate_id=rep)
        first.append(paths[0].values[-1] - paths[0].x0)
        last.append(paths[-1].values[-1] - paths[-1].x0)
    assert ks_2samp(first, last).pvalue > 0.01


def test_brownian_endpoint_variance():
    # theta0 = (0, 0) makes X(T) - x0 exactly Brownian
    T = 1.0
    theta0 = Theta(mu=0.0, omega2=0.0)
    times, values, _ = simulate_replicates(
        UNIT, np.zeros(10_000), 0.0, T, 0.05, 99, 0, np.arange(10_000)
    )
    endpoints = values[:, -1]
    assert T * 0.95 < endpoints.var() < T * 1.05


def _euler_endpoints(model, phi, x0, dt, dW):
    state = np.full(dW.shape[0], float(x0))
    for k in range(dW.shape[1]):
        state = state + phi * model.b(state) * dt + model.sigma(state) * dW[:, k]
    return state


def _rms_halving_gap(model, M, reps, seed):
    """RMS(X_dt(T) - X_{dt/2}(T)) with both grids driven by one Brownian
    path sampled 4x finer, so the gap isolates discretization error."""
    T, phi, x0 = 1.0, 1.0, 1.0
    z = path_normals(seed, 0, range(reps), 4 * M)
    fine = z * math.sqrt(T / (4 * M))
    coarse = fine.reshape(reps, M, 4).sum(axis=2)
    half = fine.reshape(reps, 2 * M, 2).sum(axis=2)
    x1 = _euler_endpoints(model, phi, x0, T / M, coarse)
    x2 = _euler_endpoints(model, phi, x0, T / (2 * M), half)
    return math.sqrt(np.mean((x1 - x2) ** 2))


@pytest.mark.parametrize(
    "model,lo,hi",
    [(LINEAR, 1.7, 2.4), (BOUNDED, 1.2, 1.7)],
)
def test_refinement_ratio(model, lo, hi):
    """Halving dt shrinks the strong error by a model-dependent factor:
    noise is additive for linear-drift (ratio near 2), state-dependent for
    bounded-ratio (ratio near sqrt(2))."""
    ratio = _rms_halving_gap(model, 16, 4000, 31) / _rms_halving_gap(
        model, 32, 4000, 31
    )
    assert lo < ratio < hi


def test_fourth_moment_stable_under_refinement():
    # moment-boundedness proxy: sup_t E[X^4] finite and, on a shared
    # Brownian path, insensitive to halving dt
    T, phi, x0, reps = 1.0, 0.5, 0.5, 2000
    z = path_normals(17, 0, range(reps), 100)
    fine = z * math.sqrt(T / 100)
    sups = []
    for dW in (fine.reshape(reps, 50, 2).sum(axis=2), fine):
        steps = dW.shape[1]
        state = np.full(reps, x0)
        sup = x0**4
        for k in range(steps):
            state = (
                state
                + phi * BOUNDED.b(state) * (T / steps)
                + BOUNDED.sigma(state) * dW[:, k]
            )
            sup = max(sup, float((state**4).mean()))
        sups.append(sup)
    assert all(np.isfinite(s) for s in sups)
    assert abs(sups[0] - sups[1]) < 0.25 * max(sups)
