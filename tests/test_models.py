import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sde_remle import (
    Design,
    DesignFamily,
    ModelSpec,
    NotFound,
    ParamSpace,
    Theta,
    builtin_model,
    register_model,
)
from sde_remle.models import MAX_STEPS


def test_builtin_unit_constants():
    m = builtin_model("unit")
    assert m.b(3.7) == 1.0
    assert m.sigma(3.7) == 1.0


def test_builtin_linear_drift_identity():
    m = builtin_model("linear-drift")
    assert m.b(2.0) == 2.0
    assert m.sigma(2.0) == 1.0


def test_builtin_bounded_ratio_bound():
    m = builtin_model("bounded-ratio")
    for x in (-100.0, -1.0, 0.0, 0.5, 3.0, 1e6):
        assert m.b(x) ** 2 / m.sigma(x) ** 2 < 1.0 + 1e-15


def test_unknown_model_not_found():
    with pytest.raises(NotFound):
        builtin_model("ornstein")


def test_register_model_roundtrip():
    m = ModelSpec(name="flat2", b=lambda x: 2.0, sigma=lambda x: 1.0)
    register_model(m)
    assert builtin_model("flat2") is m


# growth constants (K, tau) of the built-in models, which the theory
# assumes: b^2 <= K(1+x^2), sigma^2 <= K(1+x^2), b^2/sigma^2 <= K(1+|x|^tau)
GROWTH = {"unit": (1.0, 1.0), "linear-drift": (1.0, 2.0), "bounded-ratio": (1.0, 1.0)}


@pytest.mark.parametrize("name", sorted(GROWTH))
@given(x=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_growth_bounds_hold(name, x):
    m = builtin_model(name)
    k, tau = GROWTH[name]
    b2 = m.b(x) ** 2
    s2 = m.sigma(x) ** 2
    assert b2 <= k * (1.0 + x * x) * (1.0 + 1e-12)
    assert s2 <= k * (1.0 + x * x) * (1.0 + 1e-12)
    assert b2 / s2 <= k * (1.0 + abs(x) ** tau) * (1.0 + 1e-12)


def test_theta_rejects_negative_variance():
    with pytest.raises(ValueError):
        Theta(mu=0.0, omega2=-0.1)


def test_theta_is_frozen():
    t = Theta(mu=1.0, omega2=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.mu = 2.0


def test_param_space_ordering_enforced():
    with pytest.raises(ValueError):
        ParamSpace(mu_lo=1.0, mu_hi=-1.0, omega2_lo=0.0, omega2_hi=1.0)
    with pytest.raises(ValueError):
        ParamSpace(mu_lo=-1.0, mu_hi=1.0, omega2_lo=-0.5, omega2_hi=1.0)
    with pytest.raises(ValueError):
        ParamSpace(mu_lo=-1.0, mu_hi=1.0, omega2_lo=1.0, omega2_hi=1.0)


def test_validate_theta_boundary_and_corner():
    space = ParamSpace(mu_lo=-1.0, mu_hi=1.0, omega2_lo=0.0, omega2_hi=1.0)
    assert space.contains(Theta(mu=0.0, omega2=0.0))
    assert not space.contains(Theta(mu=2.0, omega2=0.5))
    assert space.contains(Theta(mu=1.0, omega2=1.0))


@given(
    mu=st.floats(-3, 3),
    w2=st.floats(0, 3),
    lo=st.floats(-2, 0),
    hi=st.floats(0.5, 2),
    wlo=st.floats(0, 0.5),
    whi=st.floats(1, 2),
    grow=st.floats(0, 5),
)
@settings(max_examples=80, deadline=None)
def test_validate_theta_monotone_in_rectangle(mu, w2, lo, hi, wlo, whi, grow):
    # enlarging the rectangle never turns containment false
    theta = Theta(mu=mu, omega2=w2)
    small = ParamSpace(mu_lo=lo, mu_hi=hi, omega2_lo=wlo, omega2_hi=whi)
    big = ParamSpace(
        mu_lo=lo - grow, mu_hi=hi + grow, omega2_lo=max(0.0, wlo - grow),
        omega2_hi=whi + grow,
    )
    if small.contains(theta):
        assert big.contains(theta)


def test_design_validates_dt_against_horizon():
    with pytest.raises(ValueError):
        Design(subjects=((0.0, 1.0),), dt=0.2, seed=0)
    d = Design(subjects=((0.0, 1.0), (0.5, 2.0)), dt=0.1, seed=3)
    assert d.n == 2


def test_design_subjects_need_positive_horizon():
    with pytest.raises(ValueError):
        Design(subjects=((0.0, 0.0),), dt=0.01, seed=0)


@pytest.mark.parametrize("subjects, dt, match", [
    (((float("inf"), 1.0),), 0.01, "finite"),
    (((float("nan"), 1.0),), 0.01, "finite"),
    (((0.0, 1.0), (0.0, float("inf"))), 0.01, "finite"),
    (((0.0, float("nan")),), 0.01, "finite"),
    # every T finite, but the step count is not
    (((0.0, 1e307), (0.0, 1e306)), 0.01, "overflows"),
])
def test_design_rejects_points_that_are_not_finite(subjects, dt, match):
    with pytest.raises(ValueError, match=match):
        Design(subjects=subjects, dt=dt, seed=0)


@pytest.mark.parametrize("T, steps", [(1e17, 10**19), (1000000.01, MAX_STEPS + 1)])
def test_design_rejects_a_grid_past_the_step_bound(T, steps):
    with pytest.raises(ValueError, match=(
            f"^T / dt gives {steps} steps; a grid may have at most {MAX_STEPS}$")):
        Design(subjects=((0.0, 1.0), (0.0, T)), dt=0.01, seed=0)
    # validation allocates nothing, so a design at the bound is cheap to check
    assert Design(subjects=((0.0, MAX_STEPS * 0.01),), dt=0.01, seed=0).n == 1


def test_design_rejects_negative_seed():
    with pytest.raises(ValueError):
        Design(subjects=((0.0, 1.0),), dt=0.01, seed=-1)


def test_design_rejects_a_seed_past_64_bits():
    assert Design(subjects=((0.0, 1.0),), dt=0.01, seed=2**64 - 1).seed == 2**64 - 1
    with pytest.raises(ValueError, match="seed must fit in 64 bits"):
        Design(subjects=((0.0, 1.0),), dt=0.01, seed=2**64)


def test_design_family_lives_with_design():
    from sde_remle import models

    assert DesignFamily is models.DesignFamily
    family = DesignFamily(kind="harmonic", x_inf=0.5, x_amp=1.0, T_inf=1.0, T_amp=2.0)
    assert [family.point(i) for i in (1, 2, 3)] == list(family.subjects(3))
    design = Design(subjects=family.subjects(4), dt=0.1, seed=0)
    assert design.subjects == ((1.5, 3.0), (1.0, 2.0), (0.5 + 1.0 / 3, 1.0 + 2.0 / 3), (0.75, 1.5))
    with pytest.raises(ValueError, match=r"dt must be <= min\(T\) / 10"):
        Design(subjects=family.subjects(4), dt=0.16, seed=0)
