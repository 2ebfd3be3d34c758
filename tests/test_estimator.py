import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sde_remle import (
    FitOptions,
    ParamSpace,
    SuffStats,
    Theta,
    audit_fit,
    fit_mle,
    profile_mu,
    total_loglik,
)
from sde_remle.errors import AllDegenerate, EmptyEnsemble, InvalidStats, NonFiniteObjective
from sde_remle.estimator import fit_rows
from scalar_fit import scalar_fit
from sde_remle.likelihood import loglik_terms

SPACE = ParamSpace(mu_lo=-3.0, mu_hi=3.0, omega2_lo=0.0, omega2_hi=4.0)


def _stats(pairs):
    return [SuffStats(u=u, v=v, subject_index=i) for i, (u, v) in enumerate(pairs)]


def _random_stats(rng, n, vmax=10.0):
    return _stats(
        [(float(rng.normal(scale=3.0)), float(rng.uniform(0.05, vmax))) for _ in range(n)]
    )


def test_profile_mu_zero_omega2():
    stats = _stats([(2.0, 1.0), (4.0, 3.0)])
    assert profile_mu(0.0, stats) == (2.0 + 4.0) / (1.0 + 3.0)


def test_profile_mu_single_subject_hand_value():
    assert profile_mu(1.0, _stats([(2.0, 1.0)])) == 2.0


def test_profile_mu_beats_grid():
    rng = np.random.default_rng(5)
    stats = _random_stats(rng, 12)
    for omega2 in (0.0, 0.5, 2.0):
        best = profile_mu(omega2, stats)
        ll_best = total_loglik(stats, Theta(mu=best, omega2=omega2))
        for mu in np.linspace(-3.0, 3.0, 1000):
            assert ll_best >= total_loglik(stats, Theta(mu=float(mu), omega2=omega2))


def test_profile_mu_all_degenerate():
    with pytest.raises(AllDegenerate):
        profile_mu(1.0, _stats([(0.0, 0.0), (0.0, 0.0)]))


def test_profile_mu_clamps_into_space():
    narrow = ParamSpace(mu_lo=-0.5, mu_hi=0.5, omega2_lo=0.0, omega2_hi=1.0)
    assert profile_mu(0.0, _stats([(5.0, 1.0)]), narrow) == 0.5


@given(
    c=st.floats(min_value=-5.0, max_value=5.0),
    omega2=st.floats(min_value=0.0, max_value=4.0),
)
@settings(max_examples=60)
def test_profile_mu_shift_equivariance(c, omega2):
    # replacing every U by U + c*V moves the unclamped maximizer by exactly c
    rng = np.random.default_rng(9)
    pairs = [(float(rng.normal()), float(rng.uniform(0.1, 8.0))) for _ in range(7)]
    base = profile_mu(omega2, _stats(pairs))
    shifted = profile_mu(omega2, _stats([(u + c * v, v) for u, v in pairs]))
    assert shifted == pytest.approx(base + c, rel=1e-10, abs=1e-10)


def _gaussian_oracle(u, T):
    mu_hat = u.mean() / T
    s2 = u.var()
    return mu_hat, max((s2 / T - 1.0) / T, 0.0)


def test_fit_matches_gaussian_oracle():
    """Constant V = T reduces the likelihood to a Gaussian location-scale
    problem whose MLE is closed-form; the optimizer must land on it."""
    rng = np.random.default_rng(33)
    T, theta0 = 1.0, Theta(mu=1.0, omega2=0.5)
    u = rng.normal(theta0.mu * T, math.sqrt(T * (1.0 + theta0.omega2 * T)), size=4000)
    stats = _stats([(float(ui), T) for ui in u])
    fit = fit_mle(stats, SPACE)
    mu_star, w2_star = _gaussian_oracle(u, T)
    assert fit.theta_hat.mu == pytest.approx(mu_star, abs=1e-5)
    assert fit.theta_hat.omega2 == pytest.approx(w2_star, abs=1e-5)
    assert fit.boundary == ()
    assert fit.score_norm <= 1e-6


def test_fit_invariant_under_duplication():
    stats = _stats([(1.2, 0.8), (-0.4, 2.0), (2.5, 1.5)])
    single = fit_mle(stats, SPACE)
    for k in (2, 4):
        repeated = fit_mle(stats * k, SPACE)
        assert repeated.theta_hat == single.theta_hat
        assert repeated.loglik == pytest.approx(k * single.loglik, rel=1e-12)


def test_fit_matches_brute_force_grid():
    """theta_hat sits within one cell of the argmax of a 400x400 lattice
    over the rectangle, for several small random ensembles."""
    rng = np.random.default_rng(21)
    mu_axis = np.linspace(SPACE.mu_lo, SPACE.mu_hi, 400)
    w2_axis = np.linspace(SPACE.omega2_lo, SPACE.omega2_hi, 400)
    cell_mu = mu_axis[1] - mu_axis[0]
    cell_w2 = w2_axis[1] - w2_axis[0]
    for _ in range(8):
        n = int(rng.integers(1, 6))
        pairs = [(float(rng.normal()), float(rng.uniform(0.05, 3.0))) for _ in range(n)]
        u = np.array([p[0] for p in pairs])
        v = np.array([p[1] for p in pairs])
        best, arg = -np.inf, None
        for w2 in w2_axis:
            lls = loglik_terms(u[None, :], v[None, :], mu_axis[:, None], float(w2)).sum(axis=1)
            j = int(np.argmax(lls))
            if lls[j] > best:
                best, arg = float(lls[j]), (float(mu_axis[j]), float(w2))
        fit = fit_mle(_stats(pairs), SPACE)
        assert abs(fit.theta_hat.mu - arg[0]) <= cell_mu * 1.0001
        assert abs(fit.theta_hat.omega2 - arg[1]) <= cell_w2 * 1.0001
        assert fit.loglik >= best - 1e-9


def test_fit_flags_omega2_boundary():
    narrow = ParamSpace(mu_lo=-3.0, mu_hi=3.0, omega2_lo=0.0, omega2_hi=0.25)
    stats = _stats([(10.0, 1.0), (-10.0, 1.0)])
    fit = fit_mle(stats, narrow)
    assert fit.theta_hat.omega2 == 0.25
    assert "omega2_hi" in fit.boundary
    assert fit.wald_se is None


def test_fit_flags_mu_boundary():
    narrow = ParamSpace(mu_lo=-0.1, mu_hi=0.1, omega2_lo=0.0, omega2_hi=4.0)
    stats = _stats([(3.0, 1.0), (3.2, 1.0), (2.8, 1.0)])
    fit = fit_mle(stats, narrow)
    assert fit.theta_hat.mu == 0.1
    assert "mu_hi" in fit.boundary
    assert fit.wald_se is None


def test_fit_omega2_zero_boundary_flagged():
    # tight cluster of U around mu*V leaves no room for extra variance
    stats = _stats([(1.0, 1.0), (1.000001, 1.0), (0.999999, 1.0)])
    fit = fit_mle(stats, SPACE)
    assert fit.theta_hat.omega2 == 0.0
    assert "omega2_lo" in fit.boundary


def test_interior_fit_certificates():
    rng = np.random.default_rng(14)
    u = rng.normal(0.5, math.sqrt(1.0 + 1.0), size=800)
    stats = _stats([(float(ui), 1.0) for ui in u])
    fit = fit_mle(stats, SPACE)
    assert fit.boundary == ()
    assert fit.score_norm <= 1e-6
    eigs = np.linalg.eigvalsh(fit.hess)
    assert np.all(eigs <= 1e-8)
    assert fit.wald_se is not None and all(s > 0 for s in fit.wald_se)
    assert audit_fit(fit, stats, SPACE)


def test_fit_rejects_empty_and_degenerate():
    with pytest.raises(EmptyEnsemble):
        fit_mle([], SPACE)
    with pytest.raises(AllDegenerate):
        fit_mle(_stats([(0.0, 0.0)]), SPACE)
    with pytest.raises(NonFiniteObjective):
        fit_mle(_stats([(1.0, 0.0), (0.5, 1.0)]), SPACE)


@pytest.mark.parametrize("u,v", [
    ((math.inf, 1.0), (1.0, 1.0)),
    ((math.nan, 1.0), (1.0, 1.0)),
    ((1.0, 1.0), (1.0, math.inf)),
    ((1.0, 1.0), (-1.0, 1.0)),
    ((0.0, 0.0), (-1.0, -1.0)),
])
def test_fit_rejects_invalid_raw_pairs(u, v):
    """A raw (u, v) pair skips the SuffStats checks, so fit_mle repeats
    them: non-finite or negative-V input is a typed error, never a fit."""
    with pytest.raises(InvalidStats):
        fit_mle((np.array(u), np.array(v)), SPACE)


def test_fit_bit_reproducible():
    rng = np.random.default_rng(77)
    stats = _random_stats(rng, 40)
    opts = FitOptions(bracket_rtol=1e-7)
    a = fit_mle(stats, SPACE, opts)
    b = fit_mle(stats, SPACE, opts)
    assert a.theta_hat == b.theta_hat
    assert a.loglik == b.loglik
    assert a.score_norm == b.score_norm
    assert np.array_equal(a.hess, b.hess)
    assert a.boundary == b.boundary
    assert a.wald_se == b.wald_se
    assert a.iterations == b.iterations


def test_audit_catches_a_bad_fit():
    stats = _stats([(1.0, 1.0), (2.0, 1.5)])
    good = fit_mle(stats, SPACE)
    bad = type(good)(
        theta_hat=Theta(mu=-2.0, omega2=3.0),
        loglik=total_loglik(stats, Theta(mu=-2.0, omega2=3.0)),
        score_norm=1.0,
        hess=good.hess,
        boundary=(),
        wald_se=None,
        iterations=0,
    )
    assert audit_fit(good, stats, SPACE)
    assert not audit_fit(bad, stats, SPACE)


def _bits(x):
    return np.float64(x).tobytes()


def _fields(fit):
    """Every MleFit field, floats as their bit patterns."""
    return (
        _bits(fit.theta_hat.mu), _bits(fit.theta_hat.omega2), _bits(fit.loglik),
        _bits(fit.score_norm), fit.hess.tobytes(), fit.boundary,
        None if fit.wald_se is None else tuple(_bits(s) for s in fit.wald_se),
        fit.iterations,
    )


# row shapes that drive the fitter down different paths: an interior
# optimum, omega2 pinned at its lower or upper bound, mu pinned at a bound,
# a profile flat to 1e-12, and subjects with V = 0 and U = 0
_ROW_KINDS = ("interior", "tight", "spread", "shifted", "flat", "zeros")
_SPACES = (
    SPACE,
    ParamSpace(mu_lo=-0.5, mu_hi=0.5, omega2_lo=0.1, omega2_hi=1.0),
    ParamSpace(mu_lo=0.0, mu_hi=2.0, omega2_lo=0.5, omega2_hi=0.6),
)


def _row(rng, kind, n):
    v = rng.uniform(0.05, 4.0, size=n)
    if kind == "tight":
        u = 0.5 * v + 1e-6 * rng.normal(size=n)
    elif kind == "spread":
        u = rng.normal(scale=10.0, size=n) * np.sqrt(v)
    elif kind == "shifted":
        u = 5.0 * v + rng.normal(size=n) * np.sqrt(v)
    elif kind == "flat":
        # the profile rises by less than 1e-12 over [0, 4]
        v *= 1e-15
        u = 1e-7 * rng.uniform(0.5, 1.0, size=n)
    else:
        u = rng.normal(0.5 * v, np.sqrt(v + 0.5 * v * v))
    if kind == "zeros":
        u[: n // 2] = 0.0
        v[: n // 2] = 0.0
    return u, v


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=5),
    n=st.integers(min_value=1, max_value=12),
    space=st.sampled_from(_SPACES),
)
@settings(max_examples=40, deadline=None)
def test_fit_rows_equal_fit_mle_and_the_scalar_loop(seed, kinds, n, space):
    # rows of different kinds share one batch, so their masks diverge
    rng = np.random.default_rng(seed)
    u, v = (np.array(x) for x in zip(*(_row(rng, k, n) for k in kinds)))
    batch = fit_rows(u, v, space)
    assert len(batch) == len(kinds)
    for r, fit in enumerate(batch):
        assert _fields(fit) == _fields(fit_mle((u[r].copy(), v[r].copy()), space))
        assert _fields(fit) == _fields(scalar_fit(u[r], v[r], space, FitOptions()))


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(_ROW_KINDS),
    n=st.integers(min_value=2, max_value=30),
)
@settings(max_examples=30, deadline=None)
def test_permuting_subjects_leaves_the_fit_bit_identical(seed, kind, n):
    rng = np.random.default_rng(seed)
    u, v = _row(rng, kind, n)
    perm = rng.permutation(n)
    assert _fields(fit_mle((u, v), SPACE)) == _fields(fit_mle((u[perm], v[perm]), SPACE))


def test_fit_rows_paths_are_exercised():
    # the row kinds above reach the boundary, flat and interior outcomes
    rng = np.random.default_rng(4)
    u, v = (np.array(x) for x in zip(*(_row(rng, k, 20) for k in _ROW_KINDS)))
    fits = dict(zip(_ROW_KINDS, fit_rows(u, v, SPACE)))
    assert fits["interior"].boundary == () and fits["interior"].wald_se is not None
    assert fits["tight"].boundary == ("omega2_lo",)
    assert "omega2_hi" in fits["spread"].boundary
    assert "mu_hi" in fits["shifted"].boundary
    assert fits["flat"].theta_hat.omega2 == SPACE.omega2_lo


def test_fit_rows_across_row_blocks():
    # 30 rows of 700 subjects span more than one row block of the fitter
    rng = np.random.default_rng(8)
    v = rng.uniform(0.5, 2.0, size=(30, 700))
    u = rng.normal(0.5 * v, np.sqrt(v + 0.5 * v * v))
    batch = fit_rows(u, v, SPACE)
    for r in (0, 22, 23, 29):
        assert _fields(batch[r]) == _fields(fit_mle((u[r], v[r]), SPACE))


def test_fit_rows_checks_rows_in_order():
    u = np.ones((3, 4))
    v = np.ones((3, 4))
    assert fit_rows(u[:0], v[:0], SPACE) == []
    v[2, 0] = -1.0
    u[1] = 0.0
    v[1] = 0.0
    with pytest.raises(AllDegenerate):
        fit_rows(u, v, SPACE)
    with pytest.raises(InvalidStats):
        fit_rows(u[[2, 1]], v[[2, 1]], SPACE)
    with pytest.raises(EmptyEnsemble):
        fit_rows(np.empty((2, 0)), np.empty((2, 0)), SPACE)
