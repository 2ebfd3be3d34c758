"""The chunk driver: replicate_uv against stored paths, its stored mode
against one unchunked block, its summation order, its error semantics on
stacked row blocks, and its memory bound."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sde_remle import Design, DesignFamily, Theta, builtin_model, time_grid
from sde_remle.asymptotics import _draw
from sde_remle.errors import SimulationDiverged
from sde_remle.models import ModelSpec
from sde_remle.rng import generator
from sde_remle import simulate
from sde_remle.simulate import (
    NORMAL_CHUNK, ROW_CHUNK, Segment, effect_rows, replicate_uv, simulate_replicates,
)
from sde_remle.stats import suff_stats_rows

from oracles import first_nonfinite_step, left_fold, path_increments, stored_paths

# user models: a smooth state-dependent pair, a drift that explodes in
# finite time for phi > 0, a diffusion that vanishes beyond x = 5, one
# below the sigma^2 floor everywhere, and one below it only far out
WAVY = ModelSpec(
    "kernel-wavy", lambda x: np.sin(x) + 0.5 * x, lambda x: 1.0 + 0.5 * np.tanh(x),
)
BLOWUP = ModelSpec("kernel-blowup", lambda x: x * x, lambda x: np.ones_like(x))
CLIFF = ModelSpec(
    "kernel-cliff", lambda x: np.ones_like(x), lambda x: np.where(x < 5.0, 1.0, 0.0),
)
FAINT = ModelSpec("kernel-faint", lambda x: np.ones_like(x), lambda x: np.full_like(x, 1e-7))
FAR_FAINT = ModelSpec(
    "kernel-far-faint", lambda x: x * x, lambda x: np.where(np.abs(x) > 1e3, 1e-7, 1.0),
)
UNIT = builtin_model("unit")
MODELS = (UNIT, builtin_model("linear-drift"), builtin_model("bounded-ratio"), WAVY, BLOWUP)
THETA = Theta(mu=0.5, omega2=0.3)


def _same_bits(a, b):
    """Equal bit for bit, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


def _segments_of(rows, parts, x0, T, seed, phis):
    """rows split into parts consecutive segments at one point, subject
    ids 0, 1, ...; returns the segments and the per-row subject ids."""
    cuts = np.linspace(0, rows, parts + 1).astype(int)
    segments = [Segment(x0, T, seed, k, phis[a:b])
                for k, (a, b) in enumerate(zip(cuts, cuts[1:]))]
    return segments, np.repeat(np.arange(parts), np.diff(cuts))


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(MODELS),
    rows=st.sampled_from([1, 7, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 3]),
    parts=st.integers(1, 3),
    T=st.floats(0.3, 2.0),
    steps=st.floats(10.0, 30.0),
    x0=st.floats(-2.0, 3.0),
    phi_sd=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32),
)
# a chunk boundary inside a segment, with rows that diverge
@example(model=BLOWUP, rows=ROW_CHUNK + 3, parts=3, T=1.3, steps=17.5,
         x0=2.0, phi_sd=4.0, seed=5)
def test_replicate_uv_equals_the_stored_path_statistics(
        model, rows, parts, T, steps, x0, phi_sd, seed):
    dt = T / steps
    try:
        time_grid(T, dt)
    except ValueError:
        return
    rng = np.random.default_rng(seed)
    phis = rng.normal(0.5, phi_sd, rows)
    segments, ids = _segments_of(rows, min(parts, rows), x0, T, seed, phis)
    times, values, first_bad = stored_paths(model, phis, x0, T, dt, seed, ids)
    want_u, want_v = suff_stats_rows(times, values, model)
    u, v = _flat(replicate_uv(model, dt, segments))
    assert _same_bits(u, want_u) and _same_bits(v, want_v)
    # the stored mode gathers the same chunks and keeps their states
    runs = replicate_uv(model, dt, segments, store=True)
    assert all(np.array_equal(t, times) for t, _, _ in runs)
    assert _same_bits(np.concatenate([vals for _, vals, _ in runs]), values)
    assert np.array_equal(np.concatenate([bad for _, _, bad in runs]), first_bad)
    # every diverged row reads non-finite, so the Monte Carlo drops it
    kept = np.isfinite(u) & np.isfinite(v)
    assert not kept[first_bad >= 0].any()


def test_the_example_diverges_across_a_chunk_boundary():
    # the pinned example above is only worth pinning if it does diverge
    # on both sides of the boundary
    rng = np.random.default_rng(5)
    phis = rng.normal(0.5, 4.0, ROW_CHUNK + 3)
    segments, _ = _segments_of(ROW_CHUNK + 3, 3, 2.0, 1.3, 5, phis)
    u, _ = _flat(replicate_uv(BLOWUP, 1.3 / 17.5, segments))
    for part in (u[:ROW_CHUNK], u[ROW_CHUNK:]):
        assert np.isnan(part).any() or np.isinf(part).any()
        assert np.isfinite(part).any()


def _flat(parts):
    """The (U, V) of every segment of a pass, concatenated."""
    return tuple(np.concatenate([np.empty(0), *col]) for col in zip(*parts))


def _one_by_one(model, dt, segments):
    """The reference: each segment as a pass of its own."""
    return _flat(replicate_uv(model, dt, [seg])[0] for seg in segments)


_SEGMENT = st.tuples(
    # horizons in steps of dt: whole, fractional, and at most one step
    st.sampled_from([0.4, 1.0, 2.5, 3.0, 3.7, 4.0, 6.2, 20.0]),
    st.floats(-1.0, 2.0),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(0, 9),
    st.floats(0.0, 6.0),
)


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(MODELS),
    dt=st.sampled_from([0.1, 0.25, 0.3]),
    specs=st.lists(_SEGMENT, min_size=1, max_size=8),
    row_cap=st.integers(1, 12),
    normal_cap=st.integers(1, 60),
)
# two segments with equal step counts but different horizons
@example(model=UNIT, dt=0.25, specs=[(3.7, 0.0, 1, 2, 4, 1.0), (3.2, 0.5, 2, 3, 5, 1.0)],
         row_cap=6, normal_cap=40)
# a one-step segment between longer ones
@example(model=WAVY, dt=0.3, specs=[(2.5, 0.0, 1, 0, 3, 1.0), (0.4, 1.0, 9, 1, 4, 2.0),
                                         (6.2, -1.0, 3, 2, 9, 0.5)],
         row_cap=5, normal_cap=25)
# rows that diverge, with chunks cut by the normals cap
@example(model=BLOWUP, dt=0.1, specs=[(20.0, 2.0, 5, 0, 9, 6.0), (6.2, 1.5, 6, 1, 9, 6.0)],
         row_cap=12, normal_cap=50)
def test_stacked_segments_equal_one_pass_per_segment(model, dt, specs, row_cap, normal_cap):
    segments = []
    for steps, x0, seed, subject, rows, phi_sd in specs:
        rng = np.random.default_rng(seed % 1000)
        segments.append(Segment(x0, steps * dt, seed, subject, rng.normal(0.5, phi_sd, rows)))
    with pytest.MonkeyPatch.context() as mp:
        # small caps make chunks that straddle segments and split them
        mp.setattr(simulate, "ROW_CHUNK", row_cap)
        mp.setattr(simulate, "NORMAL_CHUNK", normal_cap)
        u, v = _flat(replicate_uv(model, dt, segments))
    want_u, want_v = _one_by_one(model, dt, segments)
    assert _same_bits(u, want_u) and _same_bits(v, want_v)


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(MODELS),
    dt=st.sampled_from([0.1, 0.25, 0.3]),
    specs=st.lists(_SEGMENT, min_size=1, max_size=8),
    row_cap=st.integers(1, 12),
    normal_cap=st.integers(1, 60),
)
# a 1-step segment after a 4-step one, in chunks of 4 rows: the chunk
# they share is 4 normals wide, so the 1-step piece is narrower than its
# chunk and drawn through the stage
@example(model=UNIT, dt=0.25, specs=[(4.0, 0.0, 1, 2, 9, 1.0), (0.7, 0.5, 2, 3, 7, 1.0)],
         row_cap=4, normal_cap=64)
def test_stored_rows_read_each_subject_stream_in_replicate_order(
        model, dt, specs, row_cap, normal_cap):
    """Row r of a segment on an s-step grid is driven by normals
    [r s, (r+1) s) of its subject's path stream, drawn in one call,
    however the chunks cut and stack the segments."""
    segments = []
    for steps, x0, seed, subject, rows, phi_sd in specs:
        rng = np.random.default_rng(seed % 1000)
        segments.append(Segment(x0, steps * dt, seed, subject, rng.normal(0.5, phi_sd, rows)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "ROW_CHUNK", row_cap)
        mp.setattr(simulate, "NORMAL_CHUNK", normal_cap)
        runs = replicate_uv(model, dt, segments, store=True)
    for seg, (times, values, first_bad) in zip(segments, runs):
        want = stored_paths(model, seg.phis, seg.x0, seg.T, dt, seg.seed, seg.subject)
        assert np.array_equal(times, want[0])
        assert _same_bits(values, want[1])
        assert np.array_equal(first_bad, want[2])


def test_replicates_and_subjects_nest():
    """R replicates are the first rows of R' > R, and n subjects the
    first columns of n' > n: no draw depends on n or R."""
    model, theta0 = builtin_model("bounded-ratio"), Theta(mu=0.5, omega2=0.6)
    family = DesignFamily("harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=1.0)
    (u, v), = _draw(model, theta0, 0.05, [(4, family.subjects(9), 30)], 1, "ensemble")
    for n, R in ((9, 7), (4, 30), (2, 1)):
        (u_n, v_n), = _draw(model, theta0, 0.05, [(4, family.subjects(n), R)], 1, "ensemble")
        assert _same_bits(u_n, u[:R, :n]) and _same_bits(v_n, v[:R, :n])
    # a group stacked behind another is the same draw as alone
    _, (u_s, v_s) = _draw(model, theta0, 0.05, [(5, family.subjects(3), 40),
                                                (4, family.subjects(9), 30)], 1, "ensemble")
    assert _same_bits(u_s, u) and _same_bits(v_s, v)
    # a subject's effects are its column, whatever n and R
    phis = effect_rows(theta0, 4, 30, 9)
    assert np.array_equal(effect_rows(theta0, 4, 7, 4), phis[:7, :4])
    assert np.array_equal(effect_rows(theta0, 4, 50, 1)[:30, 0], phis[:, 0])


def test_stacked_segments_straddle_the_real_chunk_caps():
    # the normals cap, NORMAL_CHUNK // 2, fills a chunk of 800-step rows
    # at 512 rows, one of 400-step rows at 1024 and one of 200-step rows
    # at 2048, which segments of 1500, 3000 and 2000 rows cross; rows of
    # 100 steps or fewer stop at ROW_CHUNK, which a segment of 5000 rows
    # crosses
    model, dt = builtin_model("bounded-ratio"), 0.0025
    rng = np.random.default_rng(3)
    segments = [
        Segment(x0, T, seed, 0, rng.normal(0.5, 0.5, rows))
        for x0, T, seed, rows in ((0.1, 1.0, 7, 3000), (0.5, 2.0, 8, 1500),
                                  (0.2, 1.99, 9, 1500), (0.3, 1.0, 10, 1000),
                                  (0.4, 0.5, 11, 3000), (0.6, 0.45, 12, 2000),
                                  (0.7, 0.25, 13, 5000), (0.8, 0.2, 14, 2000))
    ]
    u, v = _flat(replicate_uv(model, dt, segments))
    want_u, want_v = _one_by_one(model, dt, segments)
    assert _same_bits(u, want_u) and _same_bits(v, want_v)


def test_running_totals_are_left_folds_of_the_stored_increments():
    # a ragged pass of 40, 24, 13 and 9 steps, the last three ending in a
    # partial step, cut into many chunks by small caps; numpy's pairwise
    # row sums of the same increments differ in the last bits
    model, dt = builtin_model("bounded-ratio"), 0.1
    rng = np.random.default_rng(11)
    segments = [Segment(x0, T, 20 + k, k, rng.normal(0.5, 1.0, 25))
                for k, (x0, T) in enumerate(((0.5, 4.0), (-1.0, 2.35), (2.0, 1.25), (0.0, 0.85)))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "ROW_CHUNK", 16)
        mp.setattr(simulate, "NORMAL_CHUNK", 400)
        u, v = _flat(replicate_uv(model, dt, segments))
    increments = []
    for seg in segments:
        times, values, first_bad = stored_paths(model, seg.phis, seg.x0, seg.T, dt, seg.seed,
                                                seg.subject)
        assert (first_bad < 0).all()
        increments.append(path_increments(times, values, model))
    du, dv = zip(*increments)
    want_u = np.concatenate([left_fold(d) for d in du])
    want_v = np.concatenate([left_fold(d) for d in dv])
    assert _same_bits(u, want_u) and _same_bits(v, want_v)
    assert (np.concatenate([d.sum(axis=1) for d in du]) != want_u).any()
    assert (np.concatenate([d.sum(axis=1) for d in dv]) != want_v).any()


def test_running_totals_start_at_positive_zero():
    # phi = 0 and zero normals hold x at -1, where b = -1: every U
    # increment is -1 * (+0.0) = -0.0, and a sum from +0.0 is +0.0 in the
    # kernel and on the stored path alike
    model = builtin_model("linear-drift")
    args = (model, np.zeros(1), np.array([-1.0]), np.array([1.2]), np.array([12]), 0.1)
    u, v = simulate._euler_rows(*args, np.zeros((1, 12)), [0])
    states = np.zeros((1, 12))
    simulate._euler_rows(*args, states, [0], store=True)
    values = np.column_stack([[-1.0], states])
    times = time_grid(1.2, 0.1)
    assert np.signbit(path_increments(times, values, model)[0]).all()
    want_u, want_v = suff_stats_rows(times, values, model)
    assert _same_bits(u, want_u) and _same_bits(v, want_v)
    assert u[0] == 0.0 and not np.signbit(u[0])
    # a grid of one point has no steps: both sums are +0.0
    zero_u, zero_v = suff_stats_rows([0.0], np.full((3, 1), -1.0), model)
    assert not (zero_u.any() or zero_v.any() or np.signbit(zero_u).any()
                or np.signbit(zero_v).any())


def test_a_diverging_row_stops_at_the_step_of_a_scalar_euler_loop():
    # the explosive drift x^2 overflows some rows, at steps that differ
    # by row and, with small caps, across chunk boundaries; a scalar loop
    # over the same normals, in Python floats, finds the same steps
    T, dt, seed, subject, rows = 1.3, 1.3 / 17.5, 5, 3, 40
    phis = np.random.default_rng(5).normal(0.5, 4.0, rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "ROW_CHUNK", 16)
        times, values, first_bad = simulate_replicates(BLOWUP, phis, 2.0, T, dt, seed, subject)
    z = generator(seed, subject).standard_normal((rows, len(times) - 1))
    want = []
    for phi, normals in zip(phis.tolist(), z.tolist()):
        x, states = 2.0, [2.0]
        for delta, zk in zip(np.diff(times).tolist(), normals):
            drift = phi * float(BLOWUP.b(x)) * delta
            x = x + drift + float(BLOWUP.sigma(x)) * math.sqrt(delta) * zk
            states.append(x)
        want.append(first_nonfinite_step(np.array(states)))
    assert first_bad.tolist() == want
    assert len({step for step in want if step > 0}) > 1 and want.count(-1) > 0


def _own_degenerate_step(model, theta0, n, T, dt, seed, R, i):
    """Step at which subject i's replicates, run alone, meet sigma <= 0."""
    phis = effect_rows(theta0, seed, R, n)[:, i]
    try:
        simulate_replicates(model, phis, 4.6, T, dt, seed, i)
    except SimulationDiverged as err:
        return err.step
    return math.inf


def test_stacked_iid_block_names_the_subject_that_fails_first():
    # six iid subjects just below the cliff share one row block; the
    # first failing step wins, and its lowest row names the subject.
    # Subject 0 fails too, but only at a later step. The seed is one
    # whose draw sets up that scenario.
    theta0, n, R, dt, seed = Theta(mu=0.0, omega2=4.0), 6, 5, 0.1, 18
    steps = [_own_degenerate_step(CLIFF, theta0, n, 1.0, dt, seed, R, i) for i in range(n)]
    first = min(steps)
    expected = steps.index(first)
    assert expected > 0 and steps[0] > first
    with pytest.raises(SimulationDiverged,
                       match=rf"^sigma <= 0 at step {first} for model 'kernel-cliff' at design "
                             rf"point \(x, T\) = \(4\.6, 1\.0\) \(subject {expected}\)$") as exc:
        _draw(CLIFF, theta0, dt, [(seed, ((4.6, 1.0),) * n, R)], 1, "ensemble")
    assert (exc.value.subject_index, exc.value.step) == (expected, first)


def test_sigma_below_the_floor_raises_through_point_uv():
    with pytest.raises(SimulationDiverged, match=r"sigma\^2 below 1e-12") as exc:
        _draw(FAINT, THETA, 0.1, [(3, [(0.0, 1.0)], 10)], 3, "moment")
    assert exc.value.step is None


def test_sigma_below_the_floor_on_rows_that_diverge_is_not_an_error():
    # phi = 5 passes |x| > 1e3, where sigma^2 is below the floor, and
    # overflows well before the last step: its (U, V) are NaN and
    # dropped; phi = -1 stays small. The stored path statistics agree.
    phis = np.array([-1.0, 5.0])
    (u, v), = replicate_uv(FAR_FAINT, 0.05, [Segment(2.0, 2.0, 1, 0, phis)])
    assert np.isfinite(u[0]) and np.isfinite(v[0])
    assert not np.isfinite(u[1])
    times, values, first_bad = simulate_replicates(FAR_FAINT, phis, 2.0, 2.0, 0.05, 1, 0)
    assert 0 < first_bad[1] < len(times) - 2
    want_u, want_v = suff_stats_rows(times, values, FAR_FAINT)
    assert _same_bits(u, want_u) and _same_bits(v, want_v)


def _within(seconds, fn):
    """fn() on a daemon thread: its result, its error raised, or a failure
    once seconds pass, so a pass that waits forever fails the test."""
    box = {}

    def run():
        try:
            box["out"] = fn()
        except BaseException as err:
            box["err"] = err

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), f"the pass still runs after {seconds} s"
    if "err" in box:
        raise box["err"]
    return box["out"]


def test_an_error_in_the_helper_is_raised_in_the_caller():
    # 40 rows of 10 steps in chunks of 10 rows: the calling thread draws
    # chunk 0, the helper the rest, and the third draw fails there
    segments = [Segment(0.0, 1.0, 7, 0, np.full(40, 0.5))]
    boom, drawn, fill = RuntimeError("boom"), [], simulate.path_normals

    def failing(gen, out):
        drawn.append(threading.get_ident())
        if len(drawn) == 3:
            raise boom
        return fill(gen, out)

    before = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "NORMAL_CHUNK", 200)
        mp.setattr(simulate, "path_normals", failing)
        with pytest.raises(RuntimeError) as exc:
            _within(60, lambda: replicate_uv(UNIT, 0.1, segments))
    assert exc.value is boom
    assert len(drawn) == 3 and drawn[0] != drawn[2]
    assert threading.active_count() == before


@pytest.mark.parametrize("model,x0,match", [
    (BLOWUP, 100.0, r"^state became non-finite at step \d+ \(subject 2\)$"),
    (CLIFF, 5.0, r"^sigma <= 0 at step 0 for model 'kernel-cliff' .* \(subject 2\)$"),
], ids=["diverges", "sigma-zero"])
def test_a_failing_row_in_a_middle_chunk_raises_as_in_one_chunk(model, x0, match):
    # subject 2 of 6, in chunk 1 of 3 at two rows per chunk, overflows
    # (the error is raised after the pass) or starts where sigma = 0 (it
    # is raised in the Euler loop while the helper draws chunk 2)
    design = Design(((0.0, 0.5),) * 2 + ((x0, 0.5),) + ((0.0, 0.5),) * 3, 0.05, 3)
    theta0 = Theta(mu=1.0, omega2=0.01)
    with pytest.raises(SimulationDiverged, match=match) as alone:
        simulate.simulate_ensemble(model, theta0, design)
    before = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "NORMAL_CHUNK", 40)
        with pytest.raises(SimulationDiverged) as chunked:
            _within(60, lambda: simulate.simulate_ensemble(model, theta0, design))
    assert threading.active_count() == before
    assert str(chunked.value) == str(alone.value)
    assert (chunked.value.subject_index, chunked.value.step) == (
        alone.value.subject_index, alone.value.step)


def test_a_one_chunk_pass_starts_no_thread():
    # 50 one-row subjects of 200 steps, as roundtrip's simulate stacks its
    # 600, are one chunk, drawn and run on the calling thread; the watchdog
    # is started from this thread, the helper from the pass's
    segments = [Segment(0.0, 1.0, 3, i, [0.5]) for i in range(50)]
    here, start, started = threading.get_ident(), threading.Thread.start, []

    def counted_start(thread):
        if threading.get_ident() != here:
            started.append(thread)
        return start(thread)

    before = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threading.Thread, "start", counted_start)
        _within(60, lambda: replicate_uv(UNIT, 0.005, segments))
        assert started == []
        # two chunks do start one
        mp.setattr(simulate, "NORMAL_CHUNK", 8000)
        _within(60, lambda: replicate_uv(UNIT, 0.005, segments))
        assert len(started) == 1
    assert threading.active_count() == before


def test_concurrent_passes_drawing_ahead_equal_one_chunk_passes():
    # four passes at once, each with its own helper, so more threads than
    # the host has cores, switching every 10 us: a chunk drawn into a
    # buffer still being run, or a stream read out of order, shows as
    # bits that differ from the same pass run as one chunk
    model, dt = builtin_model("bounded-ratio"), 0.05
    rng = np.random.default_rng(17)
    passes = [[Segment(x0, T, 30 + p, k, rng.normal(0.5, 0.5, 60))
               for k, (x0, T) in enumerate(((0.5, 2.0), (-0.5, 1.3), (1.0, 0.75)))]
              for p in range(4)]
    want = [_flat(replicate_uv(model, dt, segments)) for segments in passes]
    got = [None] * len(passes)

    def run(p):
        got[p] = _flat(replicate_uv(model, dt, passes[p]))

    before, interval = threading.active_count(), sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        # 40-step rows in chunks of 5 rows: about 36 chunks per pass
        mp.setattr(simulate, "ROW_CHUNK", 8)
        mp.setattr(simulate, "NORMAL_CHUNK", 400)
        sys.setswitchinterval(1e-5)
        try:
            runners = [threading.Thread(target=run, args=(p,), daemon=True)
                       for p in range(len(passes))]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(runner.is_alive() for runner in runners)
    assert threading.active_count() == before
    for (u, v), (want_u, want_v) in zip(got, want):
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
    # 240 MB; the chunked kernel keeps two (1024, 400) buffers at a time
    point = _peak_mb(lambda: _draw(
        builtin_model("bounded-ratio"), THETA, 0.0025, [(7, [(0.0, 1.0)], 12800)], 100,
        "information",
    ))
    assert point < 9
    # 800 iid subjects stacked into one block must not build their
    # 96,000-row ids and effects up front
    subjects = DesignFamily("iid", x0=0.0, T=1.0).subjects(800)
    ensemble = _peak_mb(lambda: _draw(
        builtin_model("linear-drift"), THETA, 0.1, [(7, subjects, 120)], 1, "ensemble"
    ))
    assert ensemble < 6
    # 32 harmonic points of 400 rows, 413 to 800 steps each, stacked into
    # one pass: chunks of 800-step rows stop at the normals cap
    family = DesignFamily("harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=1.0)
    segments = [Segment(x, T, 7 + i, 0, np.full(400, 0.5))
                for i, (x, T) in enumerate(family.subjects(32))]
    stacked = _peak_mb(lambda: replicate_uv(builtin_model("bounded-ratio"), 0.0025, segments))
    assert stacked < 9


@pytest.mark.parametrize("store", [False, True], ids=["uv", "stored"])
def test_a_monte_carlo_pass_holds_one_chunk_buffer(store):
    # 4096 rows of 400 steps, four full chunks of 1024 rows: the normals,
    # two half buffers of NORMAL_CHUNK // 2 (6.25 MiB in all, one drawn
    # while the other is run), are the only chunk-sized buffers, as (U, V)
    # are running totals and stored states overwrite the normals; a stored
    # pass also keeps its (4096, 401) paths (12.53 MiB) and, in
    # simulate._first_bad, one (4096, 400) boolean mask of their
    # non-finite states (1.56 MiB). Measured: 6.50 MiB (7.20 on a
    # process's first pass) and 20.44 MiB.
    segments = [Segment(0.0, 1.0, 7, 0, np.full(ROW_CHUNK, 0.5))]
    kept = ROW_CHUNK * (401 * 8 + 400) / 2**20 if store else 0.0
    peak = _peak_mb(lambda: replicate_uv(builtin_model("bounded-ratio"), 0.0025, segments,
                                         store))
    assert peak < 1.25 * NORMAL_CHUNK * 8 / 2**20 + kept


def test_a_long_ragged_stored_ensemble_holds_one_normals_buffer():
    # 200 harmonic subjects, T from 50 down to 1.245 at dt = 0.01, fill
    # chunks of 81 and 119 rows from two half buffers of NORMAL_CHUNK // 2
    # normals, below the 200 x 5000 normals of one chunk; beside them only
    # the paths are kept
    family = DesignFamily("harmonic", x_inf=0.0, x_amp=1.0, T_inf=1.0, T_amp=49.0)
    design = Design(family.subjects(200), 0.01, 3)
    paths = []
    peak = _peak_mb(lambda: paths.extend(
        simulate.simulate_ensemble(builtin_model("linear-drift"), THETA, design)))
    kept = sum(p.times.nbytes + p.values.nbytes for p in paths) / 2**20
    assert peak <= 1.25 * 200 * 5000 * 8 / 2**20 + kept
