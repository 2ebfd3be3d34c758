"""Model vocabulary: drift/diffusion pairs, parameters, and designs.

The observation model for subject i is

    dX_i(t) = phi_i * b(X_i(t)) dt + sigma(X_i(t)) dW_i(t),   X_i(0) = x_i,

with phi_i drawn iid N(mu, omega2). A ModelSpec names the (b, sigma) pair
and is passed as a value; builtin_model names the three built-ins.
Theta and ParamSpace describe the random-effect law and the compact
rectangle it is estimated over; DesignFamily lays subjects out and Design,
the one place the horizon rule T > 0 and the step rule dt <= min(T) / 10
are checked, lists the subjects of one ensemble.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ModelSpec:
    """A named drift factor b and diffusion coefficient sigma.

    Parameters
    ----------
    name : str
    b, sigma : callable
        Vectorized real functions; sigma must stay positive wherever paths go.
    """

    name: str
    b: Callable
    sigma: Callable


@dataclass(frozen=True)
class Theta:
    """Random-effect law parameters (mu, omega2) with omega2 >= 0."""

    mu: float
    omega2: float

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not (np.isfinite(self.omega2) and self.omega2 >= 0):
            raise ValueError("omega2 must be finite and >= 0")


@dataclass(frozen=True)
class ParamSpace:
    """Closed rectangle [mu_lo, mu_hi] x [omega2_lo, omega2_hi] on which
    mu^2 and omega2 are finite; else mu^2 V or omega2 V overflows for
    every V > 0 and no data can be fitted."""

    mu_lo: float
    mu_hi: float
    omega2_lo: float
    omega2_hi: float

    def __post_init__(self):
        if not self.mu_lo < self.mu_hi:
            raise ValueError("need mu_lo < mu_hi")
        if not 0 <= self.omega2_lo < self.omega2_hi:
            raise ValueError("need 0 <= omega2_lo < omega2_hi")
        mu_max = max(abs(float(self.mu_lo)), abs(float(self.mu_hi)))  # a float: overflow is inf
        if not (math.isfinite(mu_max * mu_max) and math.isfinite(self.omega2_hi)):
            raise ValueError("need max(|mu_lo|, |mu_hi|)^2 and omega2_hi finite")

    def interior_contains(self, theta):
        return (
            self.mu_lo < theta.mu < self.mu_hi
            and self.omega2_lo < theta.omega2 < self.omega2_hi
        )


@dataclass(frozen=True)
class DesignFamily:
    """Subject layout: iid (every subject at (x0, T)) or harmonic
    (subject i at (x_inf + x_amp/i, T_inf + T_amp/i), i starting at 1).
    Only the kind is checked here: Design checks the points a run draws."""

    # the fields each kind reads
    FIELDS = {"iid": ("x0", "T"), "harmonic": ("x_inf", "x_amp", "T_inf", "T_amp")}

    kind: str
    x0: float = 0.0
    T: float = 1.0
    x_inf: float = 0.0
    x_amp: float = 0.0
    T_inf: float = 1.0
    T_amp: float = 0.0

    def __post_init__(self):
        if self.kind not in ("iid", "harmonic"):
            raise ValueError("design kind must be 'iid' or 'harmonic'")

    def point(self, i):
        """Design point (x0, T) of subject i, counting from 1."""
        if i < 1:
            raise ValueError(f"design points count from 1, got {i}")
        if self.kind == "iid":
            return (self.x0, self.T)
        return (self.x_inf + self.x_amp / i, self.T_inf + self.T_amp / i)

    def subjects(self, n):
        return tuple(self.point(i) for i in range(1, n + 1))

    def limit_point(self):
        if self.kind == "iid":
            return (self.x0, self.T)
        return (self.x_inf, self.T_inf)


# the most Euler steps one time grid may have: 10**8 steps are 800 MB of
# grid, and a stored path's normals and states as much again
MAX_STEPS = 10**8


def grid_steps(ratio):
    """Steps of the grid with T / dt = ratio, a finite float: the ceiling
    less a 1e-9 slack, which keeps a T/dt that is a multiple up to
    rounding from gaining a spurious step. ValueError past MAX_STEPS."""
    steps = max(1, math.ceil(ratio - 1e-9))
    if steps > MAX_STEPS:
        raise ValueError(f"T / dt gives {steps} steps; a grid may have at most {MAX_STEPS}")
    return steps


@dataclass(frozen=True)
class Design:
    """Subjects of one ensemble plus the shared Euler step and master seed.

    subjects is a tuple of (x0, T), each finite. The step must resolve
    every horizon, dt <= min(T) / 10, and max(T) / dt must be finite and
    give at most MAX_STEPS steps.
    Every entry point that simulates validates its design points here
    before it draws a normal.
    """

    subjects: tuple
    dt: float
    seed: int

    def __post_init__(self):
        subjects = tuple((float(x0), float(t)) for x0, t in self.subjects)
        object.__setattr__(self, "subjects", subjects)
        if not subjects:
            raise ValueError("design needs at least one subject")
        if not all(math.isfinite(x0) and math.isfinite(t) for x0, t in subjects):
            raise ValueError("every x0 and T must be finite")
        min_t = min(t for _, t in subjects)
        if min_t <= 0:
            raise ValueError("every T must be > 0")
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if self.dt > min_t / 10:
            raise ValueError("dt must be <= min(T) / 10")
        ratio = max(t for _, t in subjects) / float(self.dt)
        if not math.isfinite(ratio):
            raise ValueError("max(T) / dt overflows")
        grid_steps(ratio)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")

    @property
    def n(self):
        return len(self.subjects)


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _identity(x):
    return np.asarray(x, dtype=float)


def _bounded_ratio_sigma(x):
    x = np.asarray(x, dtype=float)
    return np.sqrt(1.0 + x * x)


_BUILTIN = {m.name: m for m in (
    ModelSpec("unit", _one, _one),
    ModelSpec("linear-drift", _identity, _one),
    ModelSpec("bounded-ratio", _identity, _bounded_ratio_sigma),
)}


def builtin_model(name):
    """The built-in model of that name.

    The built-ins are "unit" (b = 1, sigma = 1), "linear-drift" (b(x) = x,
    sigma = 1) and "bounded-ratio" (b(x) = x, sigma(x) = sqrt(1 + x^2));
    an unknown name raises ValueError. Other models are ModelSpec values.
    """
    try:
        return _BUILTIN[name]
    except KeyError:
        raise ValueError(f"no model named {name!r}") from None
