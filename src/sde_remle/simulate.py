"""Euler-Maruyama path generation with reproducible streams.

The integration grid is uniform with step dt; when T is not a multiple of
dt the final step covers the remainder. Every simulation is one pass of
segments through replicate_uv's chunk driver, the only code that runs
the Euler kernel, and every pass holds one chunk buffer, the normals:
the Monte Carlo passes add each row's (U, V) up as running left-to-right
totals inside the step loop, and the path API (euler_maruyama,
simulate_ensemble, simulate_replicates) writes each step's states over
the normals just consumed, copied per segment into exact-length arrays.
Both share identical arithmetic. Every normal is drawn by path_normals,
reading one stream (see rng) in order: replicate r of a subject on an
s-step grid takes normals [r s, (r+1) s) of its path stream, and its
effect is normal r of its effect stream. subject_segments is the one
place that lays design points out as subjects, point i as subject i;
simulate_ensemble and every Monte Carlo draw of the experiments take
their segments from it.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateDiffusion, SimulationDiverged
from .models import grid_steps
from .rng import EFFECT_WORD, generator, rekey, row_keys
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
# NORMAL_CHUNK normals (4096 rows of 200 steps, one 6.25 MiB buffer, which
# a stored pass also fills with the states)
ROW_CHUNK = 4096
NORMAL_CHUNK = ROW_CHUNK * 200


def _euler_rows(model, phis, x0, T, steps, dt, normals, subject_index, store=False):
    """The one Euler step loop: advance row r of normals from x0[r] to T[r].

    phis, x0, T, steps (row r's step count on time_grid(T[r], dt)) and
    subject_index hold one entry per row, longest first, so the rows still
    running at step k are a prefix. A row's last step is its own partial
    step T[r] - dt*(steps[r]-1), every other step dt*(k+1) - dt*k, as on
    its own grid; b and sigma are evaluated once per step, at the left
    end. With store, each step's state overwrites the normal it consumed,
    so row r's states 1..steps[r] end up in normals[r, :steps[r]].
    Without, normals is only read and the result is each row's (U, V),
    running totals from +0.0 that add each step's increments left to
    right, as suff_stats_rows adds a stored path's: equal bit for bit.
    sigma <= 0 on a live row raises DegenerateDiffusion at that step, as
    does, for (U, V), sigma^2 < SIGMA2_FLOOR on a row finite up to its
    last step, after the loop; errors name the lowest failing row's
    subject and design point.
    """
    rows = len(steps)
    top = int(steps[0]) if rows else 0
    # the first live[k] rows run at step k; live[top] = 0
    live = np.searchsorted(-steps, -np.arange(1, top + 2), side="right").tolist()
    state = np.array(x0, dtype=float)
    # two scratch rows take each step's drift and noise terms, then its
    # (U, V) increments, so a step allocates only its new state
    one, two = np.empty((2, rows))
    if not store:
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
                if not store:
                    body_end[m:n] = state[m:]
            bvals, svals = model.b(state), model.sigma(state)
            # sigma >= smin > 0 gives sigma^2 >= smin^2, rounding being
            # monotone; a NaN smin fails both tests
            smin = svals.min()
            clean = smin > 0 and smin * smin >= SIGMA2_FLOOR
            if not clean:
                bad_sigma = np.isfinite(state) & ~(svals > 0)
                if bad_sigma.any():
                    raise _degenerate(
                        f"sigma <= 0 at step {k} for model {model.name!r}", k,
                        x0, T, subject_index, bad_sigma,
                    )
            drift, noise = one[:n], two[:n]
            np.multiply(phis[:n], bvals, out=drift)
            drift *= delta
            np.multiply(svals, root, out=noise)
            noise *= normals[:n, k]
            after = state + drift
            after += noise
            if store:
                normals[:n, k] = after
            else:
                # noise takes sigma^2, then w = b / sigma^2, then v's
                # increment; drift takes u's
                sig2 = np.multiply(svals, svals, out=noise)
                if not clean:
                    low[:n] |= sig2 < SIGMA2_FLOOR
                w = np.divide(bvals, sig2, out=noise)
                np.subtract(after, state, out=drift)
                drift *= w
                u[:n] += drift
                np.multiply(bvals, w, out=noise)
                noise *= delta
                v[:n] += noise
            state = after[:m]
    if store:
        return None
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


def path_normals(gen, out):
    """Fill out with the next normals of gen's stream, row after row, and
    return it: one draw when out is C-contiguous, else one per row."""
    if out.flags.c_contiguous:
        gen.standard_normal(out=out)
    else:
        for row in out:
            gen.standard_normal(out=row)
    return out


def effect_rows(theta0, seed, R, n):
    """(R, n) random effects N(mu0, omega2_0): entry (r, i) is normal r of
    subject i's effect stream, whatever R and n."""
    words = (row_keys(seed, np.arange(n)) | np.uint64(EFFECT_WORD)).tolist()
    z = np.empty((n, R))
    gen = generator(0, 0)
    for row, word in zip(z, words):
        rekey(gen, seed, word)
        path_normals(gen, row)
    z = z.T
    # in place, and bit for bit mu + sqrt(omega2) * z: no second matrix
    z *= math.sqrt(theta0.omega2)
    z += theta0.mu
    return z


def euler_maruyama(model, phi, x0, T, dt, seed, stream_id=0):
    """Simulate one path of dX = phi*b(X)dt + sigma(X)dW from x0 over [0, T].

    The path is replicate 0 of subject stream_id: its increments are the
    first normals of path stream (seed, stream_id), and its subject_index
    is stream_id.

    Raises SimulationDiverged, with the step, if the state overflows or
    becomes NaN, and DegenerateDiffusion if sigma evaluates <= 0 along
    the path.
    """
    (times, values, first_bad), = replicate_uv(model, dt, [
        Segment(float(x0), float(T), seed, stream_id, [float(phi)])
    ], store=True)
    if first_bad[0] >= 0:
        raise SimulationDiverged(int(first_bad[0]), subject_index=stream_id)
    return Path(times=times, values=values[0], x0=float(x0), phi=float(phi), seed=seed,
                subject_index=stream_id)


def simulate_ensemble(model, theta0, design):
    """Simulate replicate 0 of every design subject, all in one pass.

    Subject i's increments start its path stream (design.seed, i) and its
    effect is the first normal of its effect stream, so each path equals
    euler_maruyama on its own stream bit for bit. Raises
    SimulationDiverged for the lowest diverging subject, at its own step,
    and DegenerateDiffusion for the first chunk with a row where sigma <= 0.
    """
    segments = subject_segments(theta0, design.seed, design.subjects, 1)
    runs = replicate_uv(model, design.dt, segments, store=True)
    for i, (_, _, first_bad) in enumerate(runs):
        if first_bad[0] >= 0:
            raise SimulationDiverged(int(first_bad[0]), subject_index=i)
    return [
        Path(times=times, values=values[0], x0=seg.x0, phi=float(seg.phis[0]), seed=seg.seed,
             subject_index=seg.subject)
        for seg, (times, values, _) in zip(segments, runs)
    ]


def simulate_replicates(model, phis, x0, T, dt, seed, subject_index):
    """Simulate replicates 0..R-1 of one subject, R = len(phis), as a
    (R, M+1) value matrix; row r has drift multiplier phis[r], and a row
    that diverges raises nothing. Returns (times, values, first_bad).
    """
    return replicate_uv(model, dt, [
        Segment(float(x0), float(T), seed, subject_index, phis)
    ], store=True)[0]


# rows of a Monte Carlo pass: replicates 0..len(phis)-1 of one subject,
# run from x0 over [0, T] on its path stream (seed, subject), row r with
# drift multiplier phis[r]
Segment = namedtuple("Segment", "x0 T seed subject phis")


def subject_segments(theta0, seed, points, R):
    """The stream layout: one Segment per design point, point i being
    subject i on seed, whose replicate r reads path stream (seed, i) and
    normal r of effect stream (seed, i) for its random effect."""
    phis = effect_rows(theta0, seed, R, len(points))
    return [Segment(x0, T, seed, i, phis[:, i]) for i, (x0, T) in enumerate(points)]


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
    ROW_CHUNK rows and NORMAL_CHUNK normals that may span segments. One
    Philox, keyed once per segment, reads its path stream in row order,
    across chunk boundaries, since a segment's pieces are consecutive.
    Either way the pass holds one chunk buffer, the normals. (U, V) are
    running totals kept by the step loop, equal to suff_stats_rows of the
    stored rows bit for bit, NaN where a row diverged. values holds a
    segment's states in a (rows, steps + 1) array of its own, x0 and then
    what the kernel wrote over the normals; first_bad is read from it.
    Keys out of range raise before any draw, the first chunk with a
    failing row after it.
    """
    grids = {T: time_grid(T, dt) for T in dict.fromkeys(seg.T for seg in segments)}
    steps = np.array([len(grids[seg.T]) - 1 for seg in segments], dtype=np.int64)
    sizes = [len(seg.phis) for seg in segments]
    starts = np.cumsum([0] + sizes)
    # each segment's path stream word, its subject index
    subjects = row_keys([seg.seed for seg in segments], [seg.subject for seg in segments])
    words = subjects.tolist()
    x0 = np.array([seg.x0 for seg in segments], dtype=float)
    T = np.array([seg.T for seg in segments], dtype=float)
    # one normals buffer for the pass: chunks leave no holes in the heap
    top = int(steps.max(initial=0))
    cells = min(min(int(starts[-1]), ROW_CHUNK) * top, max(NORMAL_CHUNK, top))
    zbuf = np.empty(cells)
    if store:
        values = [np.empty((size, w + 1)) for size, w in zip(sizes, steps.tolist())]
    else:
        u, v = np.empty(starts[-1]), np.empty(starts[-1])
    gen = generator(0, 0)
    for pieces in _chunks(steps, sizes):
        idx, first, end = (np.array(col) for col in zip(*pieces))
        counts = end - first
        rows = np.repeat(steps[idx], counts)
        shape = (len(rows), int(rows[0]))
        z = zbuf[:rows.size * shape[1]].reshape(shape)
        # piece j's rows start at row lead[j] of the chunk
        lead = np.cumsum(counts) - counts
        for (i, a, b), c, width in zip(pieces, lead.tolist(), steps[idx].tolist()):
            if a == 0:
                rekey(gen, segments[i].seed, words[i])
            path_normals(gen, z[c:c + b - a, :width])
        phis = np.concatenate([segments[i].phis[a:b] for i, a, b in pieces], dtype=float)
        result = _euler_rows(model, phis, np.repeat(x0[idx], counts), np.repeat(T[idx], counts),
                             rows, dt, z, np.repeat(subjects[idx], counts), store)
        if store:
            for (i, a, b), c, width in zip(pieces, lead.tolist(), steps[idx].tolist()):
                values[i][a:b, 0] = x0[i]
                values[i][a:b, 1:] = z[c:c + b - a, :width]
        else:
            # chunk row r is row at[r] of the pass
            at = np.arange(shape[0]) + np.repeat(starts[idx] + first - lead, counts)
            u[at], v[at] = result
    if store:
        return [(grids[seg.T], vals, _first_bad(vals)) for seg, vals in zip(segments, values)]
    return [(u[a:b], v[a:b]) for a, b in zip(starts, starts[1:])]


def _first_bad(values):
    """Each row's first non-finite column after x0's, or -1: the step at
    which it stopped being finite (a non-finite x0 reads step 1)."""
    bad = ~np.isfinite(values[:, 1:])
    return np.where(bad.any(axis=1), bad.argmax(axis=1) + 1, -1)
