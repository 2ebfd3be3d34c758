"""Euler-Maruyama path generation with reproducible substreams.

The integration grid is uniform with step dt; when T is not a multiple of
dt the final step covers the remainder. All simulation funnels through one
batch kernel that advances many rows, each on its own grid, in lockstep,
so the path API, which stores the states, and the Monte Carlo entry
replicate_uv, which runs a pass of segments in chunks that span segments
and keeps one chunk's (U, V) increments, share identical arithmetic.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateDiffusion, SimulationDiverged
from .rng import PHI_STREAM_ID, generator, row_keys
from .stats import SIGMA2_FLOOR, floor_error


@dataclass(frozen=True, eq=False)
class Path:
    """One discretized trajectory.

    times[0] = 0 and values[0] = x0; phi is retained for oracle tests on
    simulated paths and is None for ingested data.
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
        if self.values[0] != self.x0:
            raise ValueError("values[0] must equal x0")


def time_grid(T, dt):
    """Uniform grid 0, dt, 2dt, ... ending exactly at T (last step partial)."""
    if not (T > 0 and dt > 0):
        raise ValueError("need T > 0 and dt > 0")
    # the 1e-9 slack keeps T/dt that is a multiple up to rounding from
    # gaining a spurious extra step
    steps = max(1, int(math.ceil(T / dt - 1e-9)))
    times = np.empty(steps + 1)
    times[:steps] = dt * np.arange(steps)
    times[steps] = T
    if not times[steps] > times[steps - 1]:
        raise ValueError("grid degenerate: T too close to a step multiple")
    return times


# a chunk of the Monte Carlo kernel holds at most ROW_CHUNK rows, enough
# that the Python cost of a step stays small against its numpy work, and
# NORMAL_CHUNK normals (4096 rows of 400 steps, two 13 MB buffers)
ROW_CHUNK = 4096
NORMAL_CHUNK = ROW_CHUNK * 400


def _euler_rows(model, phis, x0, T, steps, dt, normals, subject_index, values=None,
                raise_errors=False, dv=None):
    """The one Euler step loop: advance row r of normals from x0[r] to T[r].

    phis, x0, T, steps (row r's step count on time_grid(T[r], dt)) and
    subject_index hold one entry per row, longest first, so the rows still
    running at step k are a prefix. A row's last step is its own partial
    step T[r] - dt*(steps[r]-1), every other step dt*(k+1) - dt*k, as on
    its own grid; b and sigma are evaluated once per step, at the left
    end. With values, an (R, max steps + 1) matrix, the states are stored
    there and the result is first_bad, the step at which each row stopped
    being finite or -1 (raise_errors aborts instead). Otherwise normals
    and dv (new when None) take the U and V increments and the result is
    each row's sums over its own steps, pairwise as suff_stats_rows sums a
    stored path, so equal bit for bit. sigma <= 0 on a live row raises
    DegenerateDiffusion at that step, as does sigma^2 < SIGMA2_FLOOR on a
    row finite up to its last step, after the loop; errors name the
    lowest failing row's subject and design point.
    """
    rows = len(steps)
    top = int(steps[0]) if rows else 0
    # the first live[k] rows run at step k; live[top] = 0
    live = np.searchsorted(-steps, -np.arange(1, top + 2), side="right").tolist()
    state = np.array(x0, dtype=float)
    if values is None:
        dv = np.empty_like(normals) if dv is None else dv
        low = np.zeros(rows, dtype=bool)
        body_end = np.empty(rows)
    else:
        values[:, 0] = x0
        first_bad = np.full(rows, -1, dtype=np.int64)
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
            bvals = model.b(state)
            svals = model.sigma(state)
            if not (svals > 0).all():
                bad_sigma = np.isfinite(state) & ~(svals > 0)
                if bad_sigma.any():
                    raise _degenerate(
                        f"sigma <= 0 at step {k} for model {model.name!r}", k,
                        x0, T, subject_index, bad_sigma,
                    )
            after = state + phis[:n] * bvals * delta + svals * root * normals[:n, k]
            if values is None:
                sig2 = svals * svals
                if not (sig2 >= SIGMA2_FLOOR).all():
                    low[:n] |= sig2 < SIGMA2_FLOOR
                w = bvals / sig2
                normals[:n, k] = w * (after - state)
                dv[:n, k] = (bvals * w) * delta
                body_end[m:n] = state[m:]
            else:
                values[:n, k + 1] = after
                if not np.isfinite(after).all():
                    bad = first_bad[:n]
                    newly_bad = (bad < 0) & ~np.isfinite(after)
                    if newly_bad.any():
                        if raise_errors:
                            raise SimulationDiverged(
                                k + 1, subject_index=int(subject_index[np.argmax(newly_bad)])
                            )
                        bad[newly_bad] = k + 1
            state = after[:m]
    if values is not None:
        return first_bad
    failing = low & np.isfinite(body_end)
    if failing.any():
        raise _degenerate(floor_error(model).args[0], None, x0, T, subject_index, failing)
    u, v = np.empty(rows), np.empty(rows)
    # one pairwise row sum per run of rows with equal step counts
    runs = np.flatnonzero(np.diff(steps, prepend=-1)).tolist()
    for a, b in zip(runs, runs[1:] + [rows]):
        u[a:b] = normals[a:b, :steps[a]].sum(axis=1)
        v[a:b] = dv[a:b, :steps[a]].sum(axis=1)
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


def euler_maruyama(model, phi, x0, T, dt, seed, stream_id=0, replicate_id=0, normals=None):
    """Simulate one path of dX = phi*b(X)dt + sigma(X)dW from x0 over [0, T].

    The increments come from substream (seed, stream_id, replicate_id),
    and the path's subject_index is stream_id. normals, a test hook,
    gives explicit increments (one per step) instead; forcing zeros
    yields the explicit Euler ODE solution.

    Raises SimulationDiverged, with the step, if the state overflows or
    becomes NaN, and DegenerateDiffusion if sigma evaluates <= 0 along
    the path.
    """
    times = time_grid(T, dt)
    steps = len(times) - 1
    if normals is None:
        normals = path_normals(seed, stream_id, [replicate_id], steps)
    normals = np.asarray(normals, dtype=float).reshape(1, steps)
    values = np.empty((1, steps + 1))
    _euler_rows(model, np.array([float(phi)]), np.array([float(x0)]), np.array([float(T)]),
                np.array([steps]), dt, normals, [stream_id], values=values,
                raise_errors=True)
    return Path(
        times=times,
        values=values[0],
        x0=float(x0),
        phi=float(phi),
        seed=seed,
        subject_index=stream_id,
    )


def simulate_ensemble(model, theta0, design, replicate_id=0):
    """Simulate one path per design subject, all in one row block.

    Subject i draws its increments from stream (design.seed, i, replicate_id)
    and the random effects come from the reserved phi stream, so each path
    equals euler_maruyama on its own stream bit for bit. Raises
    SimulationDiverged for the lowest diverging subject, at its own step,
    and DegenerateDiffusion at the first step where sigma <= 0 on a row.
    """
    dt, n = design.dt, design.n
    phis = effect_rows(theta0, design.seed, [replicate_id], n)[0]
    x0, T = np.array(design.subjects, dtype=float).reshape(n, 2).T
    steps = np.array([len(time_grid(t, dt)) - 1 for t in T])
    order = np.argsort(-steps, kind="stable")
    z = path_normals(design.seed, order, [replicate_id] * n, steps[order])
    values = np.empty((n, z.shape[1] + 1))
    first_bad = _euler_rows(model, phis[order], x0[order], T[order], steps[order], dt, z,
                            order, values=values)
    bad = np.flatnonzero(first_bad >= 0)
    if bad.size:
        r = bad[np.argmin(order[bad])]
        raise SimulationDiverged(int(first_bad[r]), subject_index=int(order[r]))
    paths = [None] * n
    times = None
    # paths of unequal horizons get copies of their rows, so they do not
    # keep the whole (n, max steps + 1) matrix alive; equal ones share it
    ragged = steps.min() < steps.max()
    for row, i in zip(values, order.tolist()):
        x, t = design.subjects[i]
        # a row shares the grid of the row before it when their horizons agree
        if times is None or times[-1] != t:
            times = time_grid(t, dt)
        row = row[:len(times)]
        paths[i] = Path(
            times=times, values=row.copy() if ragged else row, x0=x, phi=float(phis[i]),
            seed=design.seed, subject_index=i,
        )
    return paths


def simulate_replicates(model, phis, x0, T, dt, seed, subject_index, replicate_ids,
                        raise_errors=True):
    """Simulate many replicates of one subject as a (R, M+1) value matrix.

    Row r uses the substream (seed, subject_index_r, replicate_ids[r]),
    with subject_index one id or one per row, and drift multiplier phis[r],
    as euler_maruyama would. Returns (times, values, first_bad).
    """
    times = time_grid(T, dt)
    steps = len(times) - 1
    z = path_normals(seed, subject_index, replicate_ids, steps)
    rows = len(z)
    values = np.empty((rows, steps + 1))
    first_bad = _euler_rows(
        model, np.asarray(phis, dtype=float), np.full(rows, float(x0)), np.full(rows, float(T)),
        np.full(rows, steps), dt, z, np.broadcast_to(subject_index, rows),
        values=values, raise_errors=raise_errors,
    )
    return times, values, first_bad


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


def replicate_uv(model, dt, segments):
    """(U, V) of each segment of a pass, in order, from paths never stored.

    Row r of a segment equals suff_stats_rows of the path
    simulate_replicates stores for it, bit for bit, NaN where it diverged.
    A chunk gathers the keys, starts, horizons and effects of the segments
    it covers; the first chunk with a failing row raises its error.
    """
    steps = np.array([len(time_grid(seg.T, dt)) - 1 for seg in segments], dtype=np.int64)
    sizes = [len(seg.replicates) for seg in segments]
    starts = np.cumsum([0] + sizes).tolist()
    u, v = np.empty(starts[-1]), np.empty(starts[-1])
    # (x0, T, seed, subject) per segment; object keeps 64-bit seeds exact
    table = np.array([seg[:4] for seg in segments], dtype=object)
    # one pair of buffers for the pass: chunks leave no holes in the heap
    top = int(steps.max(initial=0))
    cells = min(min(len(u), ROW_CHUNK) * top, max(NORMAL_CHUNK, top))
    zbuf, dvbuf = np.empty(cells), np.empty(cells)
    for pieces in _chunks(steps, sizes):
        idx = [i for i, _, _ in pieces]
        counts = [b - a for _, a, b in pieces]
        x0, T, seeds, ids = (np.repeat(col, counts) for col in table[idx].T)
        rows = np.repeat(steps[idx], counts)
        shape = (len(rows), int(rows[0]))
        reps = np.concatenate([segments[i].replicates[a:b] for i, a, b in pieces])
        z = path_normals(seeds, ids, reps, rows, out=zbuf[:rows.size * shape[1]].reshape(shape))
        phis = np.concatenate([np.asarray(segments[i].phis, float)[a:b] for i, a, b in pieces])
        at = np.concatenate([np.arange(starts[i] + a, starts[i] + b) for i, a, b in pieces])
        u[at], v[at] = _euler_rows(model, phis, x0.astype(float), T.astype(float), rows, dt,
                                   z, ids, dv=dvbuf[:z.size].reshape(shape))
    return [(u[a:b], v[a:b]) for a, b in zip(starts, starts[1:])]
