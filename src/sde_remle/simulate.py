"""Euler-Maruyama path generation with reproducible substreams.

The integration grid is uniform with step dt; when T is not a multiple of
dt the final step covers the remainder. All simulation funnels through one
batch kernel that advances many replicate rows in lockstep, so the scalar
path API and the Monte Carlo experiment engines share identical arithmetic.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateDiffusion, SimulationDiverged
from .models import RandomEffect
from .rng import PHI_STREAM_ID, generator, row_keys


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


def _euler_rows(model, phis, x0, T, dt, normals, raise_errors=True, subject_index=None):
    """Advance R replicate rows of one subject through the full grid.

    Returns (times, values, first_bad) where values has shape (R, M+1) and
    first_bad[r] is the step at which row r stopped being finite, or -1.
    With raise_errors the first divergence aborts instead. subject_index
    is one subject id for every row or one id per row; errors name the
    subject of the lowest failing row. sigma <= 0 on a live row always
    raises DegenerateDiffusion.
    """
    times = time_grid(T, dt)
    steps = len(times) - 1
    phis = np.asarray(phis, dtype=float)
    rows = phis.shape[0]
    if normals.shape != (rows, steps):
        raise ValueError(f"normals must have shape ({rows}, {steps})")
    values = np.empty((rows, steps + 1))
    values[:, 0] = x0
    state = np.full(rows, float(x0))
    first_bad = np.full(rows, -1, dtype=np.int64)
    alive = np.ones(rows, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            delta = times[k + 1] - times[k]
            bvals = model.b(state)
            svals = model.sigma(state)
            bad_sigma = alive & ~(svals > 0)
            if bad_sigma.any():
                raise DegenerateDiffusion(
                    f"sigma <= 0 at step {k} for model {model.name!r}", step=k,
                    subject_index=_subject_of(subject_index, bad_sigma),
                )
            state = state + phis * bvals * delta + svals * math.sqrt(delta) * normals[:, k]
            newly_bad = alive & ~np.isfinite(state)
            if newly_bad.any():
                if raise_errors:
                    raise SimulationDiverged(
                        k + 1, subject_index=_subject_of(subject_index, newly_bad)
                    )
                first_bad[newly_bad] = k + 1
                alive &= ~newly_bad
            values[:, k + 1] = state
    return times, values, first_bad


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
    times, values, _ = _euler_rows(
        model, [phi], x0, T, dt, normals,
        raise_errors=True, subject_index=rng.stream_id,
    )
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
        steps = len(time_grid(T, design.dt)) - 1
        z = path_normals(design.seed, members, [replicate_id] * len(members), steps)
        times, values, first_bad = _euler_rows(
            model, phis[members], x0, T, design.dt, z,
            raise_errors=False, subject_index=members,
        )
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
    return _euler_rows(
        model, phis, x0, T, dt, z,
        raise_errors=raise_errors, subject_index=subject_index,
    )
