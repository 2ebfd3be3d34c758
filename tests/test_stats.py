import math
import tracemalloc

import numpy as np
import pytest

from sde_remle import Design, Theta, builtin_model, simulate_ensemble, stats_list
from sde_remle.errors import SimulationDiverged
from sde_remle.models import ModelSpec
from sde_remle.rng import generator
from sde_remle.simulate import Path, effect_rows, simulate_replicates, time_grid
from sde_remle.stats import SIGMA2_FLOOR, suff_stats_rows
from oracles import decompose

UNIT = builtin_model("unit")
LINEAR = builtin_model("linear-drift")
BOUNDED = builtin_model("bounded-ratio")


def _path(times, values, subject_index=0):
    return Path(times=np.asarray(times, dtype=float), values=np.asarray(values, dtype=float),
                subject_index=subject_index)


def _uv(path, model):
    """(U, V) of one path, as floats."""
    u, v = stats_list([path], model)
    return float(u[0]), float(v[0])


def test_unit_model_identities_exact():
    # unit model has constant integrand, so U telescopes and V sums the grid;
    # summing rounded diffs can drift from the endpoints by an ulp, so U is
    # checked to 1e-14 relative and V, which is grid-only, bit-exactly
    for dt in (0.05, 1 / 3, 0.4):
        design = Design(subjects=((0.3, 4.0),), dt=dt, seed=5)
        p = simulate_ensemble(UNIT, Theta(mu=1.0, omega2=0.5), design)[0]
        u, v = _uv(p, UNIT)
        assert math.isclose(u, p.values[-1] - p.values[0], rel_tol=1e-14, abs_tol=0.0)
        assert v == 4.0


def test_unit_model_u_exact_on_dyadic_path():
    # every diff is a short dyadic rational, so the telescoped sum is exact
    p = _path([0.0, 0.25, 0.5, 1.0], [1.0, 1.5, 0.75, 2.0])
    assert _uv(p, UNIT) == (1.0, 1.0)


def test_constant_path():
    p = _path([0.0, 0.25, 0.5, 0.75, 1.0], [2.0] * 5)
    assert _uv(p, UNIT) == (0.0, 1.0)


def test_v_and_u_additive_at_grid_point():
    """Splitting the grid at an interior point splits both sums exactly.

    The crafted values keep every term a short dyadic rational, so
    floating-point addition cannot reorder-round.
    """
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    values = [1.0, 2.0, 1.5, 3.0, 2.5]
    whole = _uv(_path(times, values), LINEAR)
    left = _uv(_path(times[:3], values[:3]), LINEAR)
    t_right = [t - 0.5 for t in times[2:]]
    right = _uv(_path(t_right, values[2:]), LINEAR)
    assert whole[1] == left[1] + right[1]
    assert whole[0] == left[0] + right[0]


def test_stats_ignore_provenance_fields():
    times = time_grid(1.0, 0.1)
    values = np.cos(times) + 1.5
    a = _path(times, values, subject_index=0)
    b = _path(times, values, subject_index=9)
    assert _uv(a, BOUNDED) == _uv(b, BOUNDED)


@pytest.mark.parametrize("model", [UNIT, LINEAR, BOUNDED], ids=lambda m: m.name)
def test_stats_list_stacks_shared_grids_bit_for_bit(model):
    # three grids, interleaved: each (x0, T) group is one suff_stats_rows
    # block, and every row must equal its path's statistics alone
    subjects = tuple((0.1 * i, (1.0, 2.0, 0.7)[i % 3]) for i in range(60))
    design = Design(subjects=subjects, dt=0.01, seed=8)
    paths = simulate_ensemble(model, Theta(mu=0.8, omega2=0.4), design)
    u, v = stats_list(paths, model)
    alone = [_uv(p, model) for p in paths]
    assert [(a.hex(), b.hex()) for a, b in zip(u.tolist(), v.tolist())] == \
        [(a.hex(), b.hex()) for a, b in alone]


def test_stats_list_in_row_blocks_on_a_600_by_201_ensemble():
    # 0.92 MiB of states; as one (600, 201) block their temporaries
    # peaked at 6.5 MiB
    design = Design(subjects=((1.0, 2.0),) * 600, dt=0.01, seed=3)
    paths = simulate_ensemble(UNIT, Theta(mu=0.8, omega2=0.4), design)
    tracemalloc.start()
    try:
        stats_list(paths, UNIT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    # each row's left-to-right sums ignore the other rows of its block
    values = np.array([p.values for p in paths])
    for model in (UNIT, LINEAR, BOUNDED):
        u, v = stats_list(paths, model)
        one_u, one_v = suff_stats_rows(paths[0].times, values, model)
        assert u.tobytes() == one_u.tobytes() and v.tobytes() == one_v.tobytes()


def test_stats_list_preserves_order():
    design = Design(subjects=((0.0, 1.0), (1.0, 2.0), (2.0, 0.5)), dt=0.05, seed=3)
    paths = simulate_ensemble(UNIT, Theta(mu=0.0, omega2=1.0), design)
    u, v = stats_list(paths, UNIT)
    back_u, back_v = stats_list(list(reversed(paths)), UNIT)
    assert list(zip(u.tolist(), v.tolist())) == [_uv(p, UNIT) for p in paths]
    assert back_u.tolist() == u.tolist()[::-1] and back_v.tolist() == v.tolist()[::-1]


def test_decompose_unit_model():
    design = Design(subjects=((0.5, 2.0),), dt=0.05, seed=11)
    theta0 = Theta(mu=1.5, omega2=0.0)
    p = simulate_ensemble(UNIT, theta0, design)[0]
    # subject i's phi is entry i of the first row of its effect streams
    phi = effect_rows(theta0, design.seed, 1, design.n)[0, 0]
    assert phi == 1.5
    u, v = _uv(p, UNIT)
    d = decompose(phi, u, v)
    assert d.u1 == v
    assert u == d.phi * d.u1 + d.u2
    assert d.u2 == pytest.approx(p.values[-1] - p.values[0] - phi * v, abs=1e-12)


def test_decompose_zero_phi():
    p = _path([0.0, 0.5, 1.0], [1.0, 1.2, 0.9])
    u, v = _uv(p, LINEAR)
    assert decompose(0.0, u, v).u2 == u


def test_ito_isometry_unit_model():
    """u2 is the Brownian increment sum, so over replicates its mean is 0
    and its variance is E[V] = T (4 sigma MC window, 10^4 paths)."""
    R, T = 10_000, 1.0
    # replicates 0..R-1 of a one-subject ensemble, as simulate_ensemble
    # draws replicate 0
    phis = effect_rows(Theta(mu=0.8, omega2=0.2), 41, R, 1)[:, 0]
    times, values, _ = simulate_replicates(UNIT, phis, 0.0, T, 0.05, 41, 0)
    u2s = []
    for phi, row in zip(phis, values):
        u2s.append(decompose(phi, *_uv(_path(times, row), UNIT)).u2)
    u2s = np.asarray(u2s)
    assert abs(u2s.mean()) < 4.0 * math.sqrt(T / R)
    assert abs(u2s.var() - T) < 4.0 * T * math.sqrt(2.0 / R)


@pytest.mark.parametrize("model", [UNIT, LINEAR, BOUNDED], ids=lambda m: m.name)
def test_even_moments_finite_and_stable(model):
    # scaled statistic U/(1+omega2*V) keeps even moments bounded as the
    # ensemble grows
    theta0 = Theta(mu=0.5, omega2=0.25)
    estimates = {}
    for n in (1500, 3000):
        design = Design(subjects=((1.0, 1.0),) * n, dt=0.02, seed=23)
        u, v = stats_list(simulate_ensemble(model, theta0, design), model)
        g = u / (1.0 + theta0.omega2 * v)
        estimates[n] = [float(np.mean(g**2)), float(np.mean(g**4))]
    for k in (0, 1):
        lo, hi = estimates[1500][k], estimates[3000][k]
        assert np.isfinite(lo) and np.isfinite(hi)
        assert abs(hi - lo) < 0.5 * max(hi, lo)


def _euler_path(model, phi, x0, dt, dW):
    X = np.empty((dW.shape[0], dW.shape[1] + 1))
    X[:, 0] = x0
    for k in range(dW.shape[1]):
        X[:, k + 1] = X[:, k] + phi * model.b(X[:, k]) * dt + model.sigma(X[:, k]) * dW[:, k]
    return X


def test_v_refinement_error_window():
    """V on a dt grid vs the dt/16 refinement of the same Brownian path:
    relative error has mean <= 2*dt and 99th percentile <= 5*dt."""
    M, R, T, phi, x0 = 50, 2000, 1.0, 1.0, 1.0
    dt, dtf = T / M, T / (16 * M)
    z = generator(11, 0).standard_normal((R, 16 * M))
    dWf = z * math.sqrt(dtf)
    dWc = dWf.reshape(R, M, 16).sum(axis=2)
    _, vc = suff_stats_rows(np.arange(M + 1) * dt, _euler_path(LINEAR, phi, x0, dt, dWc), LINEAR)
    _, vf = suff_stats_rows(
        np.arange(16 * M + 1) * dtf, _euler_path(LINEAR, phi, x0, dtf, dWf), LINEAR
    )
    rel = np.abs(vc - vf) / vf
    assert rel.mean() <= 2.0 * dt
    assert np.quantile(rel, 0.99) <= 5.0 * dt


def test_sigma_floor_is_an_error():
    model = ModelSpec(name="thin", b=lambda x: np.ones_like(x), sigma=lambda x: x)
    p = _path([0.0, 1.0], [1e-7, 1.0])
    with pytest.raises(SimulationDiverged,
                       match=r"^sigma\^2 below 1e-12 on the grid for model 'thin'$") as exc:
        stats_list([p], model)
    assert f"{SIGMA2_FLOOR:g}" in str(exc.value)


def test_suffstats_validation():
    # a grid that does not increase is refused by Path itself; an endless
    # grid gives V = inf, a state near the float limit V = inf, an
    # infinite last state U = inf with V finite, and both at once U = V =
    # inf, which V, checked first, names
    for times in ([0.0, -1.0], [0.0, 1.0, 1.0], [0.0, np.nan]):
        with pytest.raises(ValueError, match=r"^grid must be strictly increasing$"):
            _path(times, [0.0] * len(times))
    endless = _path([0.0, np.inf], [0.0, 0.0], subject_index=7)
    infinite_v = _path([0.0, 1.0], [1e200, 1e200], subject_index=7)
    infinite_u = _path([0.0, 1.0], [0.0, np.inf], subject_index=4)
    infinite_uv = _path([0.0, 1.0], [1e200, np.inf], subject_index=7)
    u, v = suff_stats_rows(infinite_u.times, infinite_u.values, UNIT)
    assert (u[0], v[0]) == (np.inf, 1.0)
    u, v = suff_stats_rows(infinite_uv.times, infinite_uv.values, LINEAR)
    assert (u[0], v[0]) == (np.inf, np.inf)
    for path, model in ((endless, UNIT), (infinite_v, LINEAR), (infinite_uv, LINEAR)):
        with pytest.raises(ValueError, match=r"^v must be finite and >= 0 \(subject 7\)$"):
            stats_list([path], model)
    # as per path before: the lowest failing path decides, V checked
    # first, and the message names its subject, not its position
    with pytest.raises(ValueError, match=r"^u must be finite \(subject 4\)$"):
        stats_list([infinite_u, endless], UNIT)
    with pytest.raises(ValueError, match=r"^v must be finite and >= 0 \(subject 7\)$"):
        stats_list([endless, infinite_u], UNIT)


def test_divergent_rows_yield_non_finite_stats():
    times = np.array([0.0, 0.5, 1.0])
    values = np.array([[1.0, 2.0, 3.0], [1.0, np.inf, 2.0]])
    u, v = suff_stats_rows(times, values, LINEAR)
    clean_u, clean_v = suff_stats_rows(times, values[:1], LINEAR)
    assert u[0] == clean_u[0] and v[0] == clean_v[0]
    assert not np.isfinite(u[1])
    assert not np.isfinite(v[1])


def test_replicate_rows_match_single_paths():
    # the batched simulator and per-path stats agree row by row
    phis = np.array([0.2, 0.7, 1.1])
    times, values, _ = simulate_replicates(LINEAR, phis, 1.0, 1.0, 0.1, 9, 0)
    u_rows, v_rows = suff_stats_rows(times, values, LINEAR)
    for r in range(3):
        p = _path(times, values[r])
        assert _uv(p, LINEAR) == (u_rows[r], v_rows[r])
