"""The fused Monte Carlo kernel: replicate_uv against stored paths, its
error semantics on stacked row blocks, and its memory bound."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sde_remle import Design, DesignFamily, Theta, builtin_model, time_grid
from sde_remle.asymptotics import _ensemble_uv, _point_uv
from sde_remle.errors import DegenerateDiffusion
from sde_remle.models import ModelSpec, register_model
from sde_remle.simulate import ROW_CHUNK, effect_rows, replicate_uv, simulate_replicates
from sde_remle.stats import suff_stats_rows

# user models: a smooth state-dependent pair, a drift that explodes in
# finite time for phi > 0, a diffusion that vanishes beyond x = 5, one
# below the sigma^2 floor everywhere, and one below it only far out
WAVY = register_model(ModelSpec(
    "kernel-wavy", lambda x: np.sin(x) + 0.5 * x, lambda x: 1.0 + 0.5 * np.tanh(x), tau=2.0,
))
BLOWUP = register_model(ModelSpec(
    "kernel-blowup", lambda x: x * x, lambda x: np.ones_like(x), tau=4.0,
))
CLIFF = register_model(ModelSpec(
    "kernel-cliff", lambda x: np.ones_like(x), lambda x: np.where(x < 5.0, 1.0, 0.0), tau=1.0,
))
FAINT = register_model(ModelSpec(
    "kernel-faint", lambda x: np.ones_like(x), lambda x: np.full_like(x, 1e-7), tau=1.0,
))
FAR_FAINT = register_model(ModelSpec(
    "kernel-far-faint", lambda x: x * x,
    lambda x: np.where(np.abs(x) > 1e3, 1e-7, 1.0), tau=4.0,
))
MODELS = ("unit", "linear-drift", "bounded-ratio", WAVY.name, BLOWUP.name)
THETA = Theta(mu=0.5, omega2=0.3)


def _same_bits(a, b):
    """Equal bit for bit, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(MODELS),
    rows=st.sampled_from([1, 7, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 3]),
    per_row_ids=st.booleans(),
    T=st.floats(0.3, 2.0),
    steps=st.floats(10.0, 30.0),
    x0=st.floats(-2.0, 3.0),
    phi_sd=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32),
)
# a chunk boundary with one id per row and rows that diverge
@example(model=BLOWUP.name, rows=ROW_CHUNK + 3, per_row_ids=True, T=1.3, steps=17.5,
         x0=2.0, phi_sd=4.0, seed=5)
def test_replicate_uv_equals_the_stored_path_statistics(
        model, rows, per_row_ids, T, steps, x0, phi_sd, seed):
    model = builtin_model(model)
    dt = T / steps
    try:
        time_grid(T, dt)
    except ValueError:
        return
    rng = np.random.default_rng(seed)
    phis = rng.normal(0.5, phi_sd, rows)
    ids = rng.integers(0, 1000, rows) if per_row_ids else int(rng.integers(0, 1000))
    reps = rng.integers(0, 2**32, rows)
    times, values, first_bad = simulate_replicates(
        model, phis, x0, T, dt, seed, ids, reps, raise_errors=False
    )
    want_u, want_v = suff_stats_rows(times, values, model)
    u, v = replicate_uv(model, phis, x0, T, dt, seed, ids, reps)
    assert _same_bits(u, want_u) and _same_bits(v, want_v)
    # every diverged row reads non-finite, so the Monte Carlo drops it
    kept = np.isfinite(u) & np.isfinite(v)
    assert not kept[first_bad >= 0].any()


def test_the_example_diverges_across_a_chunk_boundary():
    # the pinned example above is only worth pinning if it does diverge
    # on both sides of the boundary
    rng = np.random.default_rng(5)
    phis = rng.normal(0.5, 4.0, ROW_CHUNK + 3)
    ids = rng.integers(0, 1000, ROW_CHUNK + 3)
    reps = rng.integers(0, 2**32, ROW_CHUNK + 3)
    u, _ = replicate_uv(BLOWUP, phis, 2.0, 1.3, 1.3 / 17.5, 5, ids, reps)
    for part in (u[:ROW_CHUNK], u[ROW_CHUNK:]):
        assert np.isnan(part).any() or np.isinf(part).any()
        assert np.isfinite(part).any()


def _own_degenerate_step(model, theta0, n, T, dt, seed, R, i):
    """Step at which subject i's replicates, run alone, meet sigma <= 0."""
    phis = effect_rows(theta0, seed, np.arange(R), n)[:, i]
    try:
        simulate_replicates(model, phis, 4.6, T, dt, seed, i, np.arange(R), raise_errors=False)
    except DegenerateDiffusion as err:
        return err.step
    return math.inf


@pytest.mark.parametrize("threads", [1, 2])
def test_stacked_iid_block_names_the_subject_that_fails_first(threads):
    # six iid subjects just below the cliff share one row block; the
    # first failing step wins, and its lowest row names the subject.
    # Subject 0 fails too, but only at a later step.
    theta0, n, R, dt, seed = Theta(mu=0.0, omega2=4.0), 6, 5, 0.1, 13
    steps = [_own_degenerate_step(CLIFF, theta0, n, 1.0, dt, seed, R, i) for i in range(n)]
    first = min(steps)
    expected = steps.index(first)
    assert expected > 0 and steps[0] > first
    with pytest.raises(DegenerateDiffusion) as exc:
        _ensemble_uv(CLIFF, theta0, Design(((4.6, 1.0),) * n, dt, seed), R, threads)
    assert (exc.value.subject_index, exc.value.step) == (expected, first)


def test_sigma_below_the_floor_raises_through_point_uv():
    with pytest.raises(DegenerateDiffusion, match=r"sigma\^2 below 1e-12") as exc:
        _point_uv(FAINT, THETA, 0.0, 1.0, 0.1, 10, 3)
    assert exc.value.step is None


def test_sigma_below_the_floor_on_rows_that_diverge_is_not_an_error():
    # phi = 5 passes |x| > 1e3, where sigma^2 is below the floor, and
    # overflows well before the last step: its (U, V) are NaN and
    # dropped; phi = -1 stays small. The stored path statistics agree.
    phis = np.array([-1.0, 5.0])
    u, v = replicate_uv(FAR_FAINT, phis, 2.0, 2.0, 0.05, 1, 0, [0, 1])
    assert np.isfinite(u[0]) and np.isfinite(v[0])
    assert not np.isfinite(u[1])
    times, values, first_bad = simulate_replicates(
        FAR_FAINT, phis, 2.0, 2.0, 0.05, 1, 0, [0, 1], raise_errors=False
    )
    assert 0 < first_bad[1] < len(times) - 2
    want_u, want_v = suff_stats_rows(times, values, FAR_FAINT)
    assert _same_bits(u, want_u) and _same_bits(v, want_v)


def _peak_mb(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def test_monte_carlo_kernel_memory_is_bounded_by_its_row_chunks():
    # a stored (12800, 401) path and its (U, V) temporaries took about
    # 240 MB; the chunked kernel keeps two (4096, 400) buffers at a time
    point = _peak_mb(lambda: _point_uv(
        builtin_model("bounded-ratio"), THETA, 0.0, 1.0, 0.0025, 12800, 7
    ))
    assert point < 64
    # 800 iid subjects stacked into one block must not build their
    # 96,000-row ids and effects up front
    design = Design(DesignFamily("iid", x0=0.0, T=1.0).subjects(800), 0.1, 7)
    ensemble = _peak_mb(lambda: _ensemble_uv(
        builtin_model("linear-drift"), THETA, design, 120, 1
    ))
    assert ensemble < 6
