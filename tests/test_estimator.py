import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sde_remle import ParamSpace, Theta, fit_mle
from sde_remle.errors import InvalidStats
from sde_remle import estimator, likelihood
from sde_remle.estimator import _SCORE_TOL, fit_rows
from oracles import audit_fit, profile_mu
from scalar_fit import scalar_fit
from sde_remle.likelihood import loglik_terms, total_loglik_uv, total_score_uv

SPACE = ParamSpace(mu_lo=-3.0, mu_hi=3.0, omega2_lo=0.0, omega2_hi=4.0)


def _stats(pairs):
    """(u, v) arrays of a list of (U, V) pairs."""
    u, v = zip(*pairs)
    return np.array(u, dtype=float), np.array(v, dtype=float)


def _total_loglik(stats, theta):
    u, v = stats
    return float(total_loglik_uv(u[None, :], v[None, :], theta.mu, theta.omega2)[0])


def _random_stats(rng, n, vmax=10.0):
    return _stats(
        [(float(rng.normal(scale=3.0)), float(rng.uniform(0.05, vmax))) for _ in range(n)]
    )


def test_profile_mu_zero_omega2():
    stats = _stats([(2.0, 1.0), (4.0, 3.0)])
    assert profile_mu(0.0, *stats) == (2.0 + 4.0) / (1.0 + 3.0)


def test_profile_mu_single_subject_hand_value():
    assert profile_mu(1.0, *_stats([(2.0, 1.0)])) == 2.0


def test_profile_mu_beats_grid():
    rng = np.random.default_rng(5)
    stats = _random_stats(rng, 12)
    for omega2 in (0.0, 0.5, 2.0):
        best = profile_mu(omega2, *stats)
        ll_best = _total_loglik(stats, Theta(mu=best, omega2=omega2))
        for mu in np.linspace(-3.0, 3.0, 1000):
            assert ll_best >= _total_loglik(stats, Theta(mu=float(mu), omega2=omega2))


def test_profile_mu_all_degenerate():
    with pytest.raises(InvalidStats, match=r"^every subject has V = 0$"):
        profile_mu(1.0, *_stats([(0.0, 0.0), (0.0, 0.0)]))


def test_profile_mu_clamps_into_space():
    narrow = ParamSpace(mu_lo=-0.5, mu_hi=0.5, omega2_lo=0.0, omega2_hi=1.0)
    assert profile_mu(0.0, *_stats([(5.0, 1.0)]), narrow) == 0.5


@given(
    c=st.floats(min_value=-5.0, max_value=5.0),
    omega2=st.floats(min_value=0.0, max_value=4.0),
)
@settings(max_examples=60)
def test_profile_mu_shift_equivariance(c, omega2):
    # replacing every U by U + c*V moves the unclamped maximizer by exactly c
    rng = np.random.default_rng(9)
    pairs = [(float(rng.normal()), float(rng.uniform(0.1, 8.0))) for _ in range(7)]
    base = profile_mu(omega2, *_stats(pairs))
    shifted = profile_mu(omega2, *_stats([(u + c * v, v) for u, v in pairs]))
    assert shifted == pytest.approx(base + c, rel=1e-10, abs=1e-10)


# the likelihood at (mu, omega2) after U -> U + c*V is the one before at
# (mu - c, omega2), so the fit moves by (c, 0) up to its stopping rule, a
# profile slope g' within 1e-8, which leaves omega2 off by 1e-8/|g''|
_SHIFT_TOL = 1e-5
_WIDE = ParamSpace(mu_lo=-50.0, mu_hi=50.0, omega2_lo=0.0, omega2_hi=4.0)


@given(
    n=st.integers(min_value=1, max_value=60),
    mu=st.floats(min_value=-3.0, max_value=3.0),
    omega2=st.floats(min_value=0.0, max_value=5.0),
    c=st.floats(min_value=-10.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_fit_shift_equivariance(n, mu, omega2, c, seed):
    # one c for every subject; mu_hat stays off the mu edges in both fits
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.05, 5.0, size=n)
    u = rng.normal(mu * v, np.sqrt(v * (1.0 + omega2 * v)))
    base = fit_mle(u, v, _WIDE)
    shifted = fit_mle(u + c * v, v, _WIDE)
    for fit in (base, shifted):
        assert not {"mu_lo", "mu_hi"} & set(fit.boundary)
    assert abs(shifted.theta_hat.mu - base.theta_hat.mu - c) <= _SHIFT_TOL
    assert abs(shifted.theta_hat.omega2 - base.theta_hat.omega2) <= _SHIFT_TOL


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
    fit = fit_mle(*stats, SPACE)
    mu_star, w2_star = _gaussian_oracle(u, T)
    assert fit.theta_hat.mu == pytest.approx(mu_star, abs=1e-5)
    assert fit.theta_hat.omega2 == pytest.approx(w2_star, abs=1e-5)
    assert fit.boundary == ()
    assert fit.score_norm <= 1e-6


def test_fit_invariant_under_duplication():
    stats = _stats([(1.2, 0.8), (-0.4, 2.0), (2.5, 1.5)])
    single = fit_mle(*stats, SPACE)
    for k in (2, 4):
        repeated = fit_mle(*(np.tile(x, k) for x in stats), SPACE)
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
        fit = fit_mle(*_stats(pairs), SPACE)
        assert abs(fit.theta_hat.mu - arg[0]) <= cell_mu * 1.0001
        assert abs(fit.theta_hat.omega2 - arg[1]) <= cell_w2 * 1.0001
        assert fit.loglik >= best - 1e-9


def test_fit_flags_omega2_boundary():
    narrow = ParamSpace(mu_lo=-3.0, mu_hi=3.0, omega2_lo=0.0, omega2_hi=0.25)
    stats = _stats([(10.0, 1.0), (-10.0, 1.0)])
    fit = fit_mle(*stats, narrow)
    assert fit.theta_hat.omega2 == 0.25
    assert "omega2_hi" in fit.boundary
    assert fit.wald_se is None


def test_fit_flags_mu_boundary():
    narrow = ParamSpace(mu_lo=-0.1, mu_hi=0.1, omega2_lo=0.0, omega2_hi=4.0)
    stats = _stats([(3.0, 1.0), (3.2, 1.0), (2.8, 1.0)])
    fit = fit_mle(*stats, narrow)
    assert fit.theta_hat.mu == 0.1
    assert "mu_hi" in fit.boundary
    assert fit.wald_se is None


def test_fit_omega2_zero_boundary_flagged():
    # tight cluster of U around mu*V leaves no room for extra variance
    stats = _stats([(1.0, 1.0), (1.000001, 1.0), (0.999999, 1.0)])
    fit = fit_mle(*stats, SPACE)
    assert fit.theta_hat.omega2 == 0.0
    assert "omega2_lo" in fit.boundary


def test_interior_fit_certificates():
    rng = np.random.default_rng(14)
    u = rng.normal(0.5, math.sqrt(1.0 + 1.0), size=800)
    stats = _stats([(float(ui), 1.0) for ui in u])
    fit = fit_mle(*stats, SPACE)
    assert fit.boundary == ()
    assert fit.score_norm <= 1e-6
    eigs = np.linalg.eigvalsh(fit.hess)
    assert np.all(eigs <= 1e-8)
    assert fit.wald_se is not None and all(s > 0 for s in fit.wald_se)
    assert audit_fit(fit, *stats, SPACE)


def test_fit_rejects_empty_and_degenerate():
    with pytest.raises(ValueError, match=r"^cannot fit zero subjects$"):
        fit_mle(np.array([]), np.array([]), SPACE)
    with pytest.raises(InvalidStats, match=r"^every subject has V = 0$"):
        fit_mle(*_stats([(0.0, 0.0)]), SPACE)
    with pytest.raises(InvalidStats, match=r"^subject with V = 0 but U != 0 makes the objective infinite$"):
        fit_mle(*_stats([(1.0, 0.0), (0.5, 1.0)]), SPACE)


@pytest.mark.parametrize("u,v", [
    ((math.inf, 1.0), (1.0, 1.0)),
    ((math.nan, 1.0), (1.0, 1.0)),
    ((1.0, 1.0), (1.0, math.inf)),
    ((1.0, 1.0), (-1.0, 1.0)),
    ((0.0, 0.0), (-1.0, -1.0)),
])
def test_fit_rejects_invalid_raw_pairs(u, v):
    """fit_mle checks its (u, v) arrays itself: non-finite or negative-V
    input is a typed error, never a fit."""
    with pytest.raises(InvalidStats):
        fit_mle(np.array(u), np.array(v), SPACE)


def test_overflowing_u_is_a_typed_error_not_a_nan_fit():
    # U is finite but U^2 overflows, so the objective is NaN or inf on the
    # whole rectangle; no fit with a non-finite loglik may come back
    with pytest.raises(InvalidStats, match=r"^the objective is not finite on the rectangle: U or V too large$"):
        fit_mle(np.array([1e200, 1.0]), np.array([1.0, 1.0]), SPACE)
    rng = np.random.default_rng(3)
    v = rng.uniform(0.5, 2.0, size=(40, 5))
    u = rng.normal(v, np.sqrt(v))
    u[33, 2] = -1e200
    with pytest.raises(InvalidStats, match=r"^the objective is not finite on the rectangle: U or V too large$"):
        fit_rows(u, v, SPACE)
    assert all(math.isfinite(f.loglik) for f in fit_rows(u[:33], v[:33], SPACE))


@pytest.mark.parametrize("u,v", [
    # 2*mu*U overflows at the rectangle's edge; the row sum would overflow
    ([1e308, 1e308, -1e308, -1e308], [1.0, 1.0, 1.0, 1.0]),
    # mu^2*V and omega2*V overflow; the fit used to come back finite
    ([1.0, 2.0], [1e308, 1.0]),
])
def test_products_overflowing_on_the_rectangle_are_refused_up_front(u, v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidStats, match="not finite on the rectangle"):
            fit_mle(np.array(u), np.array(v), SPACE)


def test_row_sum_overflow_raises_without_warnings():
    # mu = num/den overflows in the profile (den is about 3e-300); the
    # typed error must come without a RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidStats, match="row sum overflows"):
            fit_mle(np.full(3, 6e153), np.full(3, 1e-300), SPACE)


def test_fit_rows_report_the_lowest_overflowing_row():
    rng = np.random.default_rng(21)
    v = rng.uniform(0.5, 2.0, size=(5, 4))
    u = rng.normal(v, np.sqrt(v))
    v[1, 2] = 1e308
    v[3, 0] = -1.0
    with pytest.raises(InvalidStats, match=r"^the objective is not finite on the rectangle: U or V too large$"):
        fit_rows(u, v, SPACE)
    # a lower row with V < 0 decides the error instead
    v[0, 1] = -1.0
    with pytest.raises(InvalidStats, match=r"^V must be >= 0$"):
        fit_rows(u, v, SPACE)


def test_fit_bit_reproducible():
    rng = np.random.default_rng(77)
    stats = _random_stats(rng, 40)
    a = fit_mle(*stats, SPACE)
    b = fit_mle(*stats, SPACE)
    assert a.theta_hat == b.theta_hat
    assert a.loglik == b.loglik
    assert a.score_norm == b.score_norm
    assert np.array_equal(a.hess, b.hess)
    assert a.boundary == b.boundary
    assert a.wald_se == b.wald_se
    assert a.iterations == b.iterations


def test_audit_catches_a_bad_fit():
    stats = _stats([(1.0, 1.0), (2.0, 1.5)])
    good = fit_mle(*stats, SPACE)
    bad = type(good)(
        theta_hat=Theta(mu=-2.0, omega2=3.0),
        loglik=_total_loglik(stats, Theta(mu=-2.0, omega2=3.0)),
        score_norm=1.0,
        hess=good.hess,
        boundary=(),
        wald_se=None,
        iterations=0,
    )
    assert audit_fit(good, *stats, SPACE)
    assert not audit_fit(bad, *stats, SPACE)


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


def _profile_slope(u, v, fit):
    """g' at the fit: the omega2 score at (mu_hat, omega2_hat)."""
    theta = fit.theta_hat
    return float(total_score_uv(u[None, :], v[None, :], theta.mu, theta.omega2)[0, 1])


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=5),
    n=st.integers(min_value=1, max_value=12),
    space=st.sampled_from(_SPACES),
)
# the earlier fitter left this row's mu_hat on omega2_hi 2.9e-7 off the
# profile maximiser
@example(seed=427, kinds=["spread"], n=8, space=SPACE)
@settings(max_examples=40, deadline=None)
def test_fit_rows_equal_fit_mle_and_meet_the_kkt_conditions(seed, kinds, n, space):
    # rows of different kinds share one batch, so their iterations diverge
    rng = np.random.default_rng(seed)
    u, v = (np.array(x) for x in zip(*(_row(rng, k, n) for k in kinds)))
    batch = fit_rows(u, v, space)
    assert len(batch) == len(kinds)
    for r, fit in enumerate(batch):
        assert _fields(fit) == _fields(fit_mle(u[r].copy(), v[r].copy(), space))
        w2 = fit.theta_hat.omega2
        # mu_hat is the profile maximiser at omega2_hat, on its edges too
        assert _bits(fit.theta_hat.mu) == _bits(profile_mu(w2, u[r], v[r], space))
        # KKT conditions of the profile, to the score tolerance
        slope = _profile_slope(u[r], v[r], fit)
        if w2 == space.omega2_lo:
            assert slope <= _SCORE_TOL
        elif w2 == space.omega2_hi:
            assert slope >= -_SCORE_TOL
        else:
            assert abs(slope) <= _SCORE_TOL
        # never a worse optimum than the earlier golden-section fitter's
        ref = scalar_fit(u[r], v[r], space)
        assert fit.loglik >= ref.loglik - 1e-12 * abs(ref.loglik)


def test_fit_lands_on_the_global_maximum_of_a_bimodal_profile():
    # one subject pair with a large V pulls the profile up near omega2 = 0.15
    # and fifteen pairs with a small V near omega2 = 1.95; the U come in
    # +-pairs, so mu_hat = 0 and the profile is the pairs' sum at mu = 0
    big_v, small_v = 100.0, 0.2
    u_big = math.sqrt(big_v * (1.0 + 0.1 * big_v))
    u_small = math.sqrt(small_v * (1.0 + 3.5 * small_v))
    u = np.array([u_big, -u_big] + [u_small, -u_small] * 15)
    v = np.array([big_v] * 2 + [small_v] * 30)
    w2_axis = np.linspace(SPACE.omega2_lo, SPACE.omega2_hi, 4001)
    profile = np.array([
        _total_loglik((u, v), Theta(mu=profile_mu(w2, u, v, SPACE), omega2=float(w2)))
        for w2 in w2_axis
    ])
    peaks = [i for i in range(1, len(w2_axis) - 1)
             if profile[i - 1] < profile[i] > profile[i + 1]]
    assert len(peaks) == 2
    local, best = sorted(peaks, key=lambda i: profile[i])
    scan_cell = (SPACE.omega2_hi - SPACE.omega2_lo) / 32
    assert abs(w2_axis[best] - w2_axis[local]) > scan_cell
    fit = fit_mle(u, v, SPACE)
    assert abs(fit.theta_hat.omega2 - w2_axis[best]) <= w2_axis[1]
    assert fit.loglik >= profile[best]
    assert fit.boundary == () and abs(_profile_slope(u, v, fit)) <= _SCORE_TOL


def test_fit_rows_row_sums_per_fitted_row(monkeypatch):
    # a deterministic cost guard: on these rows the profile scan settles
    # both decisions from plain sums, so its 33 points make no exact row
    # sum; each Newton step makes 5 and the final totals 6
    rng = np.random.default_rng(12)
    v = rng.uniform(0.05, 2.0, size=(120, 200))
    u = rng.normal(0.8 * v, np.sqrt(v + 0.4 * v * v))
    summed = []
    row_fsum = likelihood._row_fsum

    def counting(p):
        summed.append(p.shape[0])
        return row_fsum(p)

    in_scan = []
    scan_rows = estimator._scan_rows

    def scanning(*args):
        before = sum(summed)
        out = scan_rows(*args)
        in_scan.append(sum(summed) - before)
        return out

    monkeypatch.setattr(likelihood, "_row_fsum", counting)
    monkeypatch.setattr(estimator, "_row_fsum", counting)
    monkeypatch.setattr(estimator, "_scan_rows", scanning)
    fits = fit_rows(u, v, SPACE)
    assert in_scan and not any(in_scan)
    assert 6 <= sum(summed) / len(fits) <= 30


_GRID = np.linspace(SPACE.omega2_lo, SPACE.omega2_hi, estimator._SCAN_POINTS)


def _scan(u, v, exact=True):
    """The profile scan of one row, from exactly rounded or plain sums."""
    row_sums = likelihood._row_fsum if exact else (lambda p: p.sum(axis=1))
    return estimator._profile_scan(u[None, :], v[None, :], SPACE, _GRID, row_sums)[0]


def _fits_by_exact_scan(u, v, space=SPACE):
    """fit_rows with the certificate settling no row: every row's scan
    decisions come from exactly rounded sums."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(estimator, "_settled", lambda gvals, err: np.zeros(len(gvals), dtype=bool))
        return fit_rows(u, v, space)


def _fit_through_the_exact_scan(u, v):
    """fit_mle of one row, after checking that its scan fell back to exactly
    rounded sums and that the fit equals the one from an exact scan."""
    scan = estimator._profile_scan
    sent = []

    def spy(u, v, space, grid, row_sums):
        if row_sums is likelihood._row_fsum:
            sent.append(len(u))
        return scan(u, v, space, grid, row_sums)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(estimator, "_profile_scan", spy)
        fit = fit_mle(u, v, SPACE)
    assert sent == [1]
    assert _fields(fit) == _fields(_fits_by_exact_scan(u[None, :], v[None, :])[0])
    return fit


def _bisect(f, lo, hi):
    """The adjacent floats lo < hi at which the predicate f flips from
    False (at lo) to True (at hi)."""
    assert not f(lo) and f(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, hi
        lo, hi = (lo, mid) if f(mid) else (mid, hi)


def _near_tie(n):
    """An interior row, and scales c of its U at which the exact scan's best
    point k and its right neighbour k + 1 swap places: (u, v, k, scales)
    with the scales the 401 floats around the crossing."""
    rng = np.random.default_rng(5)
    v = rng.uniform(0.5, 2.0, n)
    u = rng.normal(0.8 * v, np.sqrt(v + 0.4 * v * v))
    k = int(np.argmax(_scan(u, v)))
    assert 0 < k < len(_GRID) - 2

    def right_wins(c):
        g = _scan(c * u, v)
        return g[k + 1] >= g[k]

    hi = 1.0
    while not right_wins(hi):
        hi *= 1.1
    _, c = _bisect(right_wins, 1.0, hi)
    return u, v, k, [c + i * math.ulp(c) for i in range(-200, 201)]


def test_a_tie_to_the_last_ulp_takes_the_exact_scan_and_the_first_argmax():
    u, v, k, scales = _near_tie(12)

    def tied(c):
        g = _scan(c * u, v)
        return g[k] == g[k + 1] == g.max()

    tied = [c for c in scales if tied(c)]
    assert tied, "no exact tie of the two best grid points"
    u = tied[0] * u
    assert np.argmax(_scan(u, v)) == k
    _fit_through_the_exact_scan(u, v)


def test_a_row_whose_plain_scan_picks_another_argmax_takes_the_exact_scan():
    u, v, _, scales = _near_tie(200)
    wrong = [c for c in scales
             if np.argmax(_scan(c * u, v)) != np.argmax(_scan(c * u, v, exact=False))]
    assert wrong, "the plain sums never moved the argmax near the crossing"
    u = wrong[0] * u
    assert not np.array_equal(_scan(u, v), _scan(u, v, exact=False))
    _fit_through_the_exact_scan(u, v)


def test_spreads_just_either_side_of_the_flat_tolerance_take_the_exact_scan():
    # a flat row (V about 1e-15) rises by about 2 (sum U^2 - sum V) over
    # [0, 4]; scaling U puts the exact scan's spread on either side of 1e-12
    rng = np.random.default_rng(6)
    v = 1e-15 * rng.uniform(0.05, 4.0, size=10)
    u = 1e-7 * rng.uniform(0.5, 1.0, size=10)

    def rough(c):
        g = _scan(c * u, v)
        return not g.max() - g.min() < estimator._FLAT_TOL

    below, above = _bisect(rough, 1.0, 100.0)
    for c, omega2 in ((below, SPACE.omega2_lo), (above, SPACE.omega2_hi)):
        g = _scan(c * u, v)
        assert abs(g.max() - g.min() - estimator._FLAT_TOL) < 1e-6 * estimator._FLAT_TOL
        assert _fit_through_the_exact_scan(c * u, v).theta_hat.omega2 == omega2


def test_terms_near_overflow_take_the_exact_scan():
    # the error bound is finite here, but E's terms reach 1.4e307, where
    # _row_fsum sums by math.fsum, whose overflow errors the fit keeps
    u, v = np.array([6e153]), np.array([1.0])
    _fit_through_the_exact_scan(u, v)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=5),
    n=st.integers(min_value=1, max_value=40),
    space=st.sampled_from(_SPACES),
)
@settings(max_examples=40, deadline=None)
def test_fit_rows_equal_the_fits_from_an_exact_scan(seed, kinds, n, space):
    rng = np.random.default_rng(seed)
    u, v = (np.array(x) for x in zip(*(_row(rng, k, n) for k in kinds)))
    assert ([_fields(f) for f in fit_rows(u, v, space)]
            == [_fields(f) for f in _fits_by_exact_scan(u, v, space)])


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
    assert _fields(fit_mle(u, v, SPACE)) == _fields(fit_mle(u[perm], v[perm], SPACE))


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
        assert _fields(batch[r]) == _fields(fit_mle(u[r], v[r], SPACE))


@pytest.mark.parametrize("fit,u,v,shapes", [
    (fit_mle, [1.0, 2.0], [1.0], "(2,) and (1,)"),
    (fit_mle, np.ones((2, 3)), np.ones((2, 3)), "(2, 3) and (2, 3)"),
    (fit_mle, 1.0, 1.0, "() and ()"),
    (fit_rows, np.ones(3), np.ones(3), "(3,) and (3,)"),
    (fit_rows, np.ones((2, 3)), np.ones((3, 2)), "(2, 3) and (3, 2)"),
    (fit_rows, np.ones((0, 3)), np.ones((0, 2)), "(0, 3) and (0, 2)"),
    (fit_rows, np.ones((1, 2, 3)), np.ones((1, 2, 3)), "(1, 2, 3) and (1, 2, 3)"),
], ids=["mle-lengths", "mle-2d", "mle-scalar", "rows-1d", "rows-transposed", "rows-empty",
        "rows-3d"])
def test_input_shapes_are_checked_before_any_work(monkeypatch, fit, u, v, shapes):
    # 1-D input to fit_rows raised IndexError, and fit_mle's mismatched
    # or 2-D input numpy's broadcasting errors
    def scan(*args):
        raise AssertionError("the profile scan ran before the shapes were checked")

    monkeypatch.setattr(estimator, "_scan_rows", scan)
    ndim = 1 if fit is fit_mle else 2
    with pytest.raises(InvalidStats, match=rf"^U and V must be {ndim}-D arrays of one shape, "
                                           rf"got shapes {re.escape(shapes)}$"):
        fit(u, v, SPACE)


def test_fit_rows_checks_rows_in_order():
    u = np.ones((3, 4))
    v = np.ones((3, 4))
    assert fit_rows(u[:0], v[:0], SPACE) == []
    v[2, 0] = -1.0
    u[1] = 0.0
    v[1] = 0.0
    with pytest.raises(InvalidStats, match=r"^every subject has V = 0$"):
        fit_rows(u, v, SPACE)
    with pytest.raises(InvalidStats, match=r"^V must be >= 0$"):
        fit_rows(u[[2, 1]], v[[2, 1]], SPACE)
    with pytest.raises(ValueError, match=r"^cannot fit zero subjects$"):
        fit_rows(np.empty((2, 0)), np.empty((2, 0)), SPACE)
