"""Euler-Maruyama path generation with reproducible substreams.

The integration grid is uniform with step dt; when T is not a multiple of
dt the final step covers the remainder. All simulation funnels through one
batch kernel that advances many replicate rows in lockstep, so the scalar
path API and the Monte Carlo experiment engines share identical arithmetic.
The path API stores the states; the Monte Carlo entry, replicate_uv, keeps
only the (U, V) increments of one row chunk at a time.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateDiffusion, SimulationDiverged
from .models import RandomEffect
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


# rows per chunk of the Monte Carlo kernel: wide enough that the Python
# cost of a step stays small against its numpy work, narrow enough that
# the two (rows, steps) increment buffers stay a few tens of MB
ROW_CHUNK = 4096


def _euler_rows(model, phis, x0, times, normals, subject_index, values=None,
                raise_errors=False):
    """The one Euler step loop: advance every row of normals over times.

    Each step evaluates b and sigma once, at the left endpoint. With
    values, an (R, M+1) matrix, the states are stored there and the
    result is first_bad, the step at which each row stopped being finite
    or -1; with raise_errors the first divergence aborts instead. Without
    values no path is kept: normals is overwritten by the U increments
    (b / sigma^2) * (x_{k+1} - x_k), and the result is the row sums (U, V),
    pairwise in the order suff_stats_rows sums a stored path, so they are
    equal bit for bit, NaN where a row diverged.

    subject_index is one subject id for every row or one id per row;
    errors name the subject of the lowest failing row. sigma <= 0 on a
    live row raises DegenerateDiffusion at that step; without values,
    sigma^2 below SIGMA2_FLOOR on a row whose states 0..M-1 are finite
    raises suff_stats_rows' error once every step has run.
    """
    rows, steps = normals.shape
    state = np.full(rows, float(x0))
    if values is None:
        dv = np.empty_like(normals)
        low = np.zeros(rows, dtype=bool)
    else:
        values[:, 0] = x0
        first_bad = np.full(rows, -1, dtype=np.int64)
    # a non-finite state never becomes finite again, so the live rows are
    # the finite ones; masks are built only once a test on every row fails
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(steps):
            delta = times[k + 1] - times[k]
            bvals = model.b(state)
            svals = model.sigma(state)
            if not (svals > 0).all():
                bad_sigma = np.isfinite(state) & ~(svals > 0)
                if bad_sigma.any():
                    raise DegenerateDiffusion(
                        f"sigma <= 0 at step {k} for model {model.name!r}", step=k,
                        subject_index=_subject_of(subject_index, bad_sigma),
                    )
            after = state + phis * bvals * delta + svals * math.sqrt(delta) * normals[:, k]
            if values is None:
                sig2 = svals * svals
                if not (sig2 >= SIGMA2_FLOOR).all():
                    low |= sig2 < SIGMA2_FLOOR
                w = bvals / sig2
                normals[:, k] = w * (after - state)
                dv[:, k] = (bvals * w) * delta
            else:
                values[:, k + 1] = after
                if not np.isfinite(after).all():
                    newly_bad = (first_bad < 0) & ~np.isfinite(after)
                    if newly_bad.any():
                        if raise_errors:
                            raise SimulationDiverged(
                                k + 1, subject_index=_subject_of(subject_index, newly_bad)
                            )
                        first_bad[newly_bad] = k + 1
            body_end, state = state, after
    if values is not None:
        return first_bad
    if (low & np.isfinite(body_end)).any():
        raise floor_error(model)
    return normals.sum(axis=1), dv.sum(axis=1)


def _subject_of(subject_index, failing):
    """Subject id of the lowest failing row, or None when ids are unknown."""
    if subject_index is None:
        return None
    if np.ndim(subject_index) == 0:
        return int(subject_index)
    return int(subject_index[int(np.argmax(failing))])


def path_normals(seed, subject_index, replicate_ids, steps):
    """Standard-normal increments, one row per (subject, replicate) substream.

    Row j is bit-identical to
    generator(seed, subject_index_j, replicate_ids[j]).standard_normal(steps),
    where subject_index is one id for every row or one id per row. The
    call builds one generator and re-keys it before each row by setting
    its fresh state (counter 0, buffer empty) with the row's key through
    the public state setter. Each call owns its generator, so concurrent
    calls share no random state.
    """
    keys = row_keys(seed, subject_index, replicate_ids)
    gen = generator(seed, 0, 0)
    bits = gen.bit_generator
    fresh = bits.state
    key = fresh["state"]["key"]
    z = np.empty((len(keys), steps))
    for row, word in zip(z, keys):
        key[1] = word
        bits.state = fresh
        gen.standard_normal(out=row)
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


def euler_maruyama(model, phi, x0, T, dt, rng, normals=None):
    """Simulate one path of dX = phi*b(X)dt + sigma(X)dW from x0 over [0, T].

    Parameters
    ----------
    rng : RngStream
        Substream supplying the standard-normal increments.
    normals : array, optional
        Test hook: explicit increments (length = number of steps) used
        instead of drawing from rng; forcing zeros yields the explicit
        Euler ODE solution.

    Raises
    ------
    SimulationDiverged
        If the state overflows or becomes NaN; the error carries the step.
    DegenerateDiffusion
        If sigma evaluates <= 0 along the path.
    """
    times = time_grid(T, dt)
    steps = len(times) - 1
    if normals is None:
        normals = path_normals(rng.seed, rng.stream_id, [rng.replicate_id], steps)
    normals = np.asarray(normals, dtype=float).reshape(1, steps)
    values = np.empty((1, steps + 1))
    _euler_rows(model, np.array([float(phi)]), x0, times, normals, rng.stream_id,
                values=values, raise_errors=True)
    return Path(
        times=times,
        values=values[0],
        x0=float(x0),
        phi=float(phi),
        seed=rng.seed,
        subject_index=rng.stream_id,
    )


def draw_random_effects(theta0, n, rng):
    """Draw n iid N(mu0, omega2_0) effects from one substream."""
    row = effect_rows(theta0, rng.seed, [rng.replicate_id], n, rng.stream_id)[0]
    return [RandomEffect(phi=float(p)) for p in row]


def simulate_ensemble(model, theta0, design, replicate_id=0):
    """Simulate one path per design subject.

    Subject i draws its increments from stream (design.seed, i, replicate_id)
    and the random effects come from the reserved phi stream, so ensembles
    are reproducible and independent of subject evaluation order. Subjects
    that share (x0, T), every subject of an iid design, advance as one row
    block; each path equals euler_maruyama on its own stream bit for bit.

    Raises SimulationDiverged for the lowest diverging subject, at its own
    step, and DegenerateDiffusion if sigma <= 0 on any live row, naming
    the lowest such subject of the first row block and step where it
    happens.
    """
    phis = effect_rows(theta0, design.seed, [replicate_id], design.n)[0]
    groups = {}
    for i, point in enumerate(design.subjects):
        groups.setdefault(point, []).append(i)
    paths = [None] * design.n
    diverged = []
    for (x0, T), members in groups.items():
        times = time_grid(T, design.dt)
        z = path_normals(design.seed, members, [replicate_id] * len(members), len(times) - 1)
        values = np.empty((len(members), len(times)))
        first_bad = _euler_rows(model, phis[members], x0, times, z, members, values=values)
        diverged += [(i, int(k)) for i, k in zip(members, first_bad) if k >= 0]
        for i, row in zip(members, values):
            paths[i] = Path(
                times=times, values=row, x0=x0, phi=float(phis[i]),
                seed=design.seed, subject_index=i,
            )
    if diverged:
        i, step = min(diverged)
        raise SimulationDiverged(step, subject_index=i)
    return paths


def simulate_replicates(model, phis, x0, T, dt, seed, subject_index, replicate_ids,
                        raise_errors=True):
    """Simulate many replicates of one subject as a (R, M+1) value matrix.

    Row r uses the substream (seed, subject_index, replicate_ids[r]) and the
    drift multiplier phis[r]; the arithmetic is identical to euler_maruyama
    row by row. Returns (times, values, first_bad).
    """
    times = time_grid(T, dt)
    z = path_normals(seed, subject_index, replicate_ids, len(times) - 1)
    values = np.empty((len(z), len(times)))
    first_bad = _euler_rows(
        model, np.asarray(phis, dtype=float), x0, times, z, subject_index,
        values=values, raise_errors=raise_errors,
    )
    return times, values, first_bad


def replicate_uv(model, phis, x0, T, dt, seed, subject_ids, replicate_ids):
    """(U, V) of simulated paths that are never stored.

    Row r is the path simulate_replicates draws from substream
    (seed, subject_ids_r, replicate_ids[r]) with drift multiplier phis[r],
    where subject_ids is one id for every row or one id per row. It runs
    path_normals and the Euler kernel one chunk of ROW_CHUNK rows at a
    time, so memory stays bounded whatever the number of rows. The result
    equals suff_stats_rows of the stored paths bit for bit, with NaN on
    the rows that diverged. Raises DegenerateDiffusion as the kernel does,
    for the first chunk in which a row fails.
    """
    times = time_grid(T, dt)
    phis = np.asarray(phis, dtype=float)
    replicate_ids = np.asarray(replicate_ids)
    per_row = np.ndim(subject_ids) > 0
    u = np.empty(len(replicate_ids))
    v = np.empty(len(replicate_ids))
    for start in range(0, len(u), ROW_CHUNK):
        rows = slice(start, start + ROW_CHUNK)
        ids = subject_ids[rows] if per_row else subject_ids
        z = path_normals(seed, ids, replicate_ids[rows], len(times) - 1)
        u[rows], v[rows] = _euler_rows(model, phis[rows], x0, times, z, ids)
    return u, v
