"""Euler-Maruyama path generation with reproducible substreams.

The integration grid is uniform with step dt; when T is not a multiple of
dt the final step covers the remainder. Every simulation is one pass of
segments through replicate_uv's chunk driver, the only code that draws
path normals and runs the Euler kernel: the Monte Carlo passes add each
row's (U, V) up as running left-to-right totals inside the step loop,
holding one chunk buffer (the normals), and the path API
(euler_maruyama, simulate_ensemble, simulate_replicates) keeps the
states, copied per segment into exact-length arrays. Both share
identical arithmetic.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateDiffusion, SimulationDiverged
from .models import grid_steps
from .rng import PHI_STREAM_ID, generator, row_keys
from .stats import SIGMA2_FLOOR, floor_error


@dataclass(frozen=True, eq=False)
class Path:
    """One discretized trajectory.

    times starts at 0 and strictly increases, and values[0] = x0; phi is
    retained for oracle tests on simulated paths and is None for ingested
    data.
    """

    times: np.ndarray
    values: np.ndarray
    x0: float
    phi: Optional[float]
    seed: int
    subject_index: int

    def __post_init__(self):
        if len(self.times) != len(self.values) or len(self.times) < 2:
            raise ValueError("need matching time/value grids with >= 2 points")
        if self.times[0] != 0.0:
            raise ValueError("grid must start at t = 0")
        if not (self.times[1:] > self.times[:-1]).all():
            raise ValueError("grid must be strictly increasing")
        if self.values[0] != self.x0:
            raise ValueError("values[0] must equal x0")


def time_grid(T, dt):
    """Uniform grid 0, dt, 2dt, ... ending exactly at T (last step partial);
    ValueError, before anything is allocated, past MAX_STEPS steps."""
    if not (T > 0 and dt > 0):
        raise ValueError("need T > 0 and dt > 0")
    ratio = float(T) / float(dt)
    if not math.isfinite(ratio):
        raise ValueError("T / dt overflows")
    steps = grid_steps(ratio)
    times = np.empty(steps + 1)
    times[:steps] = dt * np.arange(steps)
    times[steps] = T
    if not times[steps] > times[steps - 1]:
        raise ValueError("grid degenerate: T too close to a step multiple")
    return times


# a chunk of the Monte Carlo kernel holds at most ROW_CHUNK rows, enough
# that the Python cost of a step stays small against its numpy work, and
# NORMAL_CHUNK normals (4096 rows of 400 steps, one 13 MB buffer; a
# stored pass holds a second, for the states)
ROW_CHUNK = 4096
NORMAL_CHUNK = ROW_CHUNK * 400


def _euler_rows(model, phis, x0, T, steps, dt, normals, subject_index, out=None):
    """The one Euler step loop: advance row r of normals from x0[r] to T[r].

    phis, x0, T, steps (row r's step count on time_grid(T[r], dt)) and
    subject_index hold one entry per row, longest first, so the rows still
    running at step k are a prefix. A row's last step is its own partial
    step T[r] - dt*(steps[r]-1), every other step dt*(k+1) - dt*k, as on
    its own grid; b and sigma are evaluated once per step, at the left
    end. With out, one column wider than normals, it takes the states,
    and the result is first_bad, the step at which each row stopped being
    finite or -1. Without, normals is only read and the result is each
    row's (U, V), running totals from +0.0 that add each step's increments
    left to right, as suff_stats_rows adds a stored path's: equal bit for
    bit. sigma <= 0 on a live row raises DegenerateDiffusion at that step,
    as does, for (U, V), sigma^2 < SIGMA2_FLOOR on a row finite up to its
    last step, after the loop; errors name the lowest failing row's
    subject and design point.
    """
    rows = len(steps)
    top = int(steps[0]) if rows else 0
    # the first live[k] rows run at step k; live[top] = 0
    live = np.searchsorted(-steps, -np.arange(1, top + 2), side="right").tolist()
    state = np.array(x0, dtype=float)
    store = out is not None
    if store:
        out[:, 0] = x0
        first_bad = np.full(rows, -1, dtype=np.int64)
    else:
        u, v, body_end = np.zeros(rows), np.zeros(rows), np.empty(rows)
        low = np.zeros(rows, dtype=bool)
    # a non-finite state never becomes finite again, so the live rows are
    # the finite ones; masks are built only once a test on every row fails
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(top):
            n, m = live[k], live[k + 1]
            delta = dt * (k + 1) - dt * k
            root = math.sqrt(delta)
            if m < n:
                # rows m..n-1 end at this step, each at its own T
                delta = np.full(n, delta)
                delta[m:] = T[m:n] - dt * k
                root = np.sqrt(delta)
            bvals, svals = model.b(state), model.sigma(state)
            if not (svals > 0).all():
                bad_sigma = np.isfinite(state) & ~(svals > 0)
                if bad_sigma.any():
                    raise _degenerate(
                        f"sigma <= 0 at step {k} for model {model.name!r}", k,
                        x0, T, subject_index, bad_sigma,
                    )
            after = state + phis[:n] * bvals * delta + svals * root * normals[:n, k]
            if store:
                out[:n, k + 1] = after
                if not np.isfinite(after).all():
                    bad = first_bad[:n]
                    bad[(bad < 0) & ~np.isfinite(after)] = k + 1
            else:
                sig2 = svals * svals
                if not (sig2 >= SIGMA2_FLOOR).all():
                    low[:n] |= sig2 < SIGMA2_FLOOR
                w = bvals / sig2
                u[:n] += w * (after - state)
                v[:n] += (bvals * w) * delta
                body_end[m:n] = state[m:]
            state = after[:m]
    if store:
        return first_bad
    failing = low & np.isfinite(body_end)
    if failing.any():
        raise _degenerate(floor_error(model).args[0], None, x0, T, subject_index, failing)
    return u, v


def _degenerate(what, step, x0, T, subject_index, failing):
    """DegenerateDiffusion naming the lowest failing row's subject and (x, T)."""
    r = int(np.argmax(failing))
    return DegenerateDiffusion(
        f"{what} at design point (x, T) = ({float(x0[r])!r}, {float(T[r])!r})",
        step=step, subject_index=int(subject_index[r]),
    )


def path_normals(seed, subject_index, replicate_ids, steps, out=None):
    """Standard-normal increments, one row per (seed, subject, replicate) substream.

    Row j is bit-identical to
    generator(seed_j, subject_index_j, replicate_ids[j]).standard_normal(steps_j);
    seed, subject_index and steps are each one value or one per row, and
    row j of the (rows, max(steps)) result (out, if given) is unset past
    steps_j. One generator is re-keyed before each row: its fresh state
    (key, counter 0, empty buffer) is set from plain Python ints, so
    concurrent calls share no random state.
    """
    words = row_keys(seed, subject_index, replicate_ids)
    rows = len(words)
    seeds = np.broadcast_to(np.asarray(seed, dtype=np.uint64), rows).tolist()
    lengths = np.broadcast_to(steps, rows).tolist()
    z = np.empty((rows, int(np.max(steps, initial=0)))) if out is None else out
    gen = generator(0, 0, 0)
    bits = gen.bit_generator
    key = [0, 0]
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, length, first, second in zip(z, lengths, seeds, words.tolist()):
        key[0], key[1] = first, second
        bits.state = fresh
        gen.standard_normal(out=row[:length])
    return z


def effect_rows(theta0, seed, replicate_ids, n, stream_id=PHI_STREAM_ID):
    """Random effects N(mu0, omega2_0) of n subjects, one row per replicate.

    Row j holds the first n draws of substream (seed, stream_id,
    replicate_ids[j]); the reserved phi stream is the default.
    """
    z = path_normals(seed, stream_id, replicate_ids, n)
    # in place, and bit for bit mu + sqrt(omega2) * z: no second matrix
    z *= math.sqrt(theta0.omega2)
    z += theta0.mu
    return z


def euler_maruyama(model, phi, x0, T, dt, seed, stream_id=0, replicate_id=0):
    """Simulate one path of dX = phi*b(X)dt + sigma(X)dW from x0 over [0, T].

    The increments come from substream (seed, stream_id, replicate_id),
    and the path's subject_index is stream_id.

    Raises SimulationDiverged, with the step, if the state overflows or
    becomes NaN, and DegenerateDiffusion if sigma evaluates <= 0 along
    the path.
    """
    (times, values, first_bad), = replicate_uv(model, dt, [
        Segment(float(x0), float(T), seed, stream_id, [replicate_id], [float(phi)])
    ], store=True)
    if first_bad[0] >= 0:
        raise SimulationDiverged(int(first_bad[0]), subject_index=stream_id)
    return Path(times=times, values=values[0], x0=float(x0), phi=float(phi), seed=seed,
                subject_index=stream_id)


def simulate_ensemble(model, theta0, design, replicate_id=0):
    """Simulate one path per design subject, all in one pass.

    Subject i draws its increments from stream (design.seed, i, replicate_id)
    and the random effects come from the reserved phi stream, so each path
    equals euler_maruyama on its own stream bit for bit. Raises
    SimulationDiverged for the lowest diverging subject, at its own step,
    and DegenerateDiffusion for the first chunk with a row where sigma <= 0.
    """
    phis = effect_rows(theta0, design.seed, [replicate_id], design.n)[0].tolist()
    runs = replicate_uv(model, design.dt, [
        Segment(x0, T, design.seed, i, [replicate_id], [phi])
        for i, ((x0, T), phi) in enumerate(zip(design.subjects, phis))
    ], store=True)
    for i, (_, _, first_bad) in enumerate(runs):
        if first_bad[0] >= 0:
            raise SimulationDiverged(int(first_bad[0]), subject_index=i)
    return [
        Path(times=times, values=values[0], x0=x0, phi=phi, seed=design.seed, subject_index=i)
        for i, ((x0, _), (times, values, _), phi) in enumerate(zip(design.subjects, runs, phis))
    ]


def simulate_replicates(model, phis, x0, T, dt, seed, subject_index, replicate_ids):
    """Simulate many replicates of one subject as a (R, M+1) value matrix.

    Row r uses the substream (seed, subject_index, replicate_ids[r]) and
    drift multiplier phis[r], as euler_maruyama would, but a row that
    diverges raises nothing. Returns (times, values, first_bad).
    """
    return replicate_uv(model, dt, [
        Segment(float(x0), float(T), seed, subject_index, replicate_ids, phis)
    ], store=True)[0]


# rows of a Monte Carlo pass: row r runs from x0 over [0, T] on substream
# (seed, subject, replicates[r]) with drift multiplier phis[r]
Segment = namedtuple("Segment", "x0 T seed subject replicates phis")


def _chunks(steps, sizes):
    """Chunks of (segment, first row, end row) lists, longest segments first
    (stable), of at most ROW_CHUNK rows and NORMAL_CHUNK normals each."""
    pieces, room = [], 0
    for i in np.argsort(-steps, kind="stable").tolist():
        a = 0
        while a < sizes[i]:
            if not room:
                yield from [pieces] if pieces else []
                pieces, room = [], min(ROW_CHUNK, max(1, NORMAL_CHUNK // int(steps[i])))
            b = min(sizes[i], a + room)
            pieces.append((i, a, b))
            room, a = room - (b - a), b
    yield from [pieces] if pieces else []


def replicate_uv(model, dt, segments, store=False):
    """The one chunk driver: each segment's rows, in order, as (U, V) from
    paths never stored, or with store as (times, values, first_bad).

    The segments run longest first (stable), in chunks of at most
    ROW_CHUNK rows and NORMAL_CHUNK normals that may span segments; a
    chunk gathers the keys, starts, horizons and effects of the segments
    it covers. (U, V) are running totals kept by the step loop, with no
    buffer but the normals; they equal suff_stats_rows of the stored rows
    bit for bit, NaN where a row diverged. values holds a segment's (rows,
    steps + 1) states in an array of its own, first_bad the step at which
    each row stopped being finite, or -1. The first chunk with a failing
    row raises its error.
    """
    grids = {T: time_grid(T, dt) for T in dict.fromkeys(seg.T for seg in segments)}
    steps = np.array([len(grids[seg.T]) - 1 for seg in segments], dtype=np.int64)
    sizes = [len(seg.replicates) for seg in segments]
    starts = np.cumsum([0] + sizes)
    # (x0, T, seed, subject) per segment; object keeps 64-bit seeds exact
    table = np.array([seg[:4] for seg in segments], dtype=object)
    # one normals buffer for the pass, and one of states, a column wider,
    # when stored: chunks leave no holes in the heap
    top = int(steps.max(initial=0))
    most = min(int(starts[-1]), ROW_CHUNK)
    cells = min(most * top, max(NORMAL_CHUNK, top))
    zbuf = np.empty(cells)
    if store:
        outbuf = np.empty(cells + most)
        values = [np.empty((size, w + 1)) for size, w in zip(sizes, steps.tolist())]
        first_bad = np.empty(starts[-1], dtype=np.int64)
    else:
        u, v = np.empty(starts[-1]), np.empty(starts[-1])
    for pieces in _chunks(steps, sizes):
        idx, first, end = (np.array(col) for col in zip(*pieces))
        counts = end - first
        x0, T, seeds, ids = (np.repeat(col, counts) for col in table[idx].T)
        rows = np.repeat(steps[idx], counts)
        shape = (len(rows), int(rows[0]))
        reps = np.concatenate([segments[i].replicates[a:b] for i, a, b in pieces])
        z = path_normals(seeds, ids, reps, rows, out=zbuf[:rows.size * shape[1]].reshape(shape))
        phis = np.concatenate([segments[i].phis[a:b] for i, a, b in pieces], dtype=float)
        out = outbuf[:shape[0] * (shape[1] + 1)].reshape(shape[0], -1) if store else None
        result = _euler_rows(model, phis, x0.astype(float), T.astype(float), rows, dt, z, ids,
                             out)
        # piece j's rows start at row lead[j] of the chunk; chunk row r is
        # row at[r] of the pass
        lead = np.cumsum(counts) - counts
        at = np.arange(shape[0]) + np.repeat(starts[idx] + first - lead, counts)
        if store:
            first_bad[at] = result
            for (i, a, b), c in zip(pieces, lead.tolist()):
                values[i][a:b] = out[c:c + b - a, :values[i].shape[1]]
        else:
            u[at], v[at] = result
    if store:
        return [(grids[seg.T], vals, first_bad[a:b])
                for seg, vals, a, b in zip(segments, values, starts, starts[1:])]
    return [(u[a:b], v[a:b]) for a, b in zip(starts, starts[1:])]
