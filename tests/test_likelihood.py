import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sde_remle import (
    SuffStats,
    Theta,
    log_density_ratio,
    log_lambda,
    score_hess,
    total_hess,
    total_loglik,
    total_score,
)
from sde_remle.errors import EmptyEnsemble
from sde_remle.likelihood import (
    gamma_cap,
    ratio_terms,
    row_fsum,
    total_hess_uv,
    total_loglik_uv,
    total_score_uv,
)

finite_u = st.floats(min_value=-50.0, max_value=50.0)
finite_v = st.floats(min_value=0.0, max_value=50.0)
mus = st.floats(min_value=-3.0, max_value=3.0)
omega2s = st.floats(min_value=0.0, max_value=4.0)


def _stats(u, v):
    return SuffStats(u=u, v=v, subject_index=0)


def test_known_value():
    assert log_lambda(_stats(1.0, 1.0), Theta(mu=0.0, omega2=1.0)) == 0.25 - 0.5 * math.log(2.0)


@given(u=finite_u, v=st.floats(min_value=0.001, max_value=50.0), mu=mus)
def test_zero_omega2_collapses(u, v, mu):
    got = log_lambda(_stats(u, v), Theta(mu=mu, omega2=0.0))
    assert got == pytest.approx(mu * u - mu * mu * v / 2.0, rel=1e-13, abs=1e-300)


@given(u=finite_u, v=st.floats(min_value=0.1, max_value=50.0), omega2=omega2s)
def test_mu_at_ratio_drops_quadratic(u, v, omega2):
    got = log_lambda(_stats(u, v), Theta(mu=u / v, omega2=omega2))
    want = -0.5 * math.log1p(omega2 * v) + u * u / (2.0 * v)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_sentinel_at_degenerate_input():
    theta = Theta(mu=1.0, omega2=1.0)
    assert log_lambda(_stats(2.0, 0.0), theta) == math.inf
    # derivatives and ratios stay finite: the offending factor cancels
    sh = score_hess(_stats(2.0, 0.0), theta)
    assert np.all(np.isfinite(sh.score)) and np.all(np.isfinite(sh.hess))
    assert math.isfinite(log_density_ratio(_stats(2.0, 0.0), theta, Theta(mu=0.0, omega2=0.5)))


def test_score_hess_at_profile_mu():
    u, v, omega2 = 3.0, 2.0, 0.5
    sh = score_hess(_stats(u, v), Theta(mu=u / v, omega2=omega2))
    cap = v / (1.0 + omega2 * v)
    assert sh.gamma == 0.0
    assert sh.score[0] == 0.0 and sh.score[1] == -cap / 2.0
    assert np.array_equal(sh.hess, np.array([[-cap, 0.0], [0.0, cap * cap / 2.0]]))


def test_score_hess_degenerate_subject():
    sh = score_hess(_stats(1.5, 0.0), Theta(mu=0.7, omega2=2.0))
    assert sh.cap_i == 0.0 and sh.gamma == 1.5
    assert sh.score[0] == 1.5 and sh.score[1] == 1.5 * 1.5 / 2.0
    assert np.array_equal(sh.hess, np.zeros((2, 2)))


@given(u=finite_u, v=finite_v, mu=mus, omega2=omega2s)
def test_cap_bounds(u, v, mu, omega2):
    _, cap = gamma_cap(u, v, mu, omega2)
    cap = float(cap[()])
    assert 0.0 <= cap <= v
    if omega2 > 0.0:
        assert cap < 1.0 / omega2


def test_score_and_hess_match_finite_differences():
    """Central differences of log_lambda reproduce the analytic derivatives
    over a random sweep; error is measured relative to max(1, |analytic|).

    The second-difference step is wider than the gradient step because the
    log-likelihood reaches ~1e3 on this sweep and h = 1e-6 would put the
    cancellation floor above the tolerance.
    """
    rng = np.random.default_rng(2024)
    h, h2 = 1e-6, 1e-4
    for _ in range(300):
        u = float(rng.uniform(-50.0, 50.0))
        v = float(rng.uniform(0.0, 50.0))
        mu = float(rng.uniform(-3.0, 3.0))
        omega2 = float(rng.uniform(0.01, 3.99))
        s = _stats(u, v)
        sh = score_hess(s, Theta(mu=mu, omega2=omega2))

        def ll(m, w):
            return log_lambda(s, Theta(mu=m, omega2=w))

        fd_mu = (ll(mu + h, omega2) - ll(mu - h, omega2)) / (2.0 * h)
        fd_w = (ll(mu, omega2 + h) - ll(mu, omega2 - h)) / (2.0 * h)
        assert abs(fd_mu - sh.score[0]) <= 1e-5 * max(1.0, abs(sh.score[0]))
        assert abs(fd_w - sh.score[1]) <= 1e-5 * max(1.0, abs(sh.score[1]))

        base = ll(mu, omega2)
        fd_mm = (ll(mu + h2, omega2) - 2.0 * base + ll(mu - h2, omega2)) / (h2 * h2)
        fd_ww = (ll(mu, omega2 + h2) - 2.0 * base + ll(mu, omega2 - h2)) / (h2 * h2)
        fd_mw = (
            ll(mu + h2, omega2 + h2)
            - ll(mu + h2, omega2 - h2)
            - ll(mu - h2, omega2 + h2)
            + ll(mu - h2, omega2 - h2)
        ) / (4.0 * h2 * h2)
        assert abs(fd_mm - sh.hess[0, 0]) <= 1e-4 * max(1.0, abs(sh.hess[0, 0]))
        assert abs(fd_mw - sh.hess[0, 1]) <= 1e-4 * max(1.0, abs(sh.hess[0, 1]))
        assert abs(fd_ww - sh.hess[1, 1]) <= 1e-4 * max(1.0, abs(sh.hess[1, 1]))


@given(u=finite_u, v=finite_v, mu=mus, omega2=omega2s)
def test_self_ratio_is_exactly_zero(u, v, mu, omega2):
    theta = Theta(mu=mu, omega2=omega2)
    assert log_density_ratio(_stats(u, v), theta, theta) == 0.0


def test_ratio_hand_value():
    got = log_density_ratio(_stats(1.0, 1.0), Theta(mu=0.0, omega2=1.0), Theta(mu=1.0, omega2=0.0))
    assert got == pytest.approx(0.5 * math.log(0.5) - 0.25, abs=1e-15)


def test_ratio_matches_loglambda_difference():
    rng = np.random.default_rng(7)
    for _ in range(500):
        s = _stats(float(rng.uniform(-20, 20)), float(rng.uniform(0.01, 30)))
        t0 = Theta(mu=float(rng.uniform(-2, 2)), omega2=float(rng.uniform(0, 3)))
        t1 = Theta(mu=float(rng.uniform(-2, 2)), omega2=float(rng.uniform(0, 3)))
        direct = log_density_ratio(s, t0, t1)
        via_lambdas = log_lambda(s, t0) - log_lambda(s, t1)
        assert abs(direct - via_lambdas) <= 1e-10


def test_ratio_antisymmetric():
    s = _stats(2.0, 3.0)
    t0 = Theta(mu=0.5, omega2=1.5)
    t1 = Theta(mu=-1.0, omega2=0.25)
    assert log_density_ratio(s, t0, t1) == pytest.approx(
        -log_density_ratio(s, t1, t0), abs=1e-15
    )


def test_ratio_finite_at_v_zero():
    vals = ratio_terms(
        np.array([3.0]), np.array([0.0]), Theta(mu=0.0, omega2=2.0), Theta(mu=1.0, omega2=0.0)
    )
    assert np.all(np.isfinite(vals))


def test_totals_single_and_duplicated():
    theta = Theta(mu=0.4, omega2=0.9)
    s = _stats(1.3, 2.1)
    assert total_loglik([s], theta) == log_lambda(s, theta)
    assert total_loglik([s, s], theta) == 2.0 * log_lambda(s, theta)
    assert np.array_equal(total_score([s, s], theta), 2.0 * total_score([s], theta))
    assert np.array_equal(total_hess([s, s], theta), 2.0 * total_hess([s], theta))


def test_totals_order_independent():
    # exactly-rounded reduction: reversal changes nothing, not even an ulp
    rng = np.random.default_rng(12)
    stats = [
        _stats(float(rng.normal(scale=5)), float(rng.uniform(0, 10))) for _ in range(100)
    ]
    theta = Theta(mu=0.8, omega2=0.6)
    assert total_loglik(stats, theta) == total_loglik(stats[::-1], theta)
    assert np.array_equal(total_score(stats, theta), total_score(stats[::-1], theta))
    assert np.array_equal(total_hess(stats, theta), total_hess(stats[::-1], theta))


def test_totals_reject_empty():
    theta = Theta(mu=0.0, omega2=0.0)
    for fn in (total_loglik, total_score, total_hess):
        with pytest.raises(EmptyEnsemble):
            fn([], theta)


def test_concavity_in_mu():
    rng = np.random.default_rng(3)
    stats = [_stats(float(rng.normal()), float(rng.uniform(0.1, 5))) for _ in range(20)]
    omega2 = 0.7
    assert total_hess(stats, Theta(mu=0.3, omega2=omega2))[0, 0] < 0.0
    grid = np.linspace(-3, 3, 41)
    lls = [total_loglik(stats, Theta(mu=float(m), omega2=omega2)) for m in grid]
    assert np.all(np.diff(lls, 2) < 0.0)


def _unit_u_samples(theta0, T, size, seed):
    # closed-form law of U for the unit model: N(mu*T, T*(1 + omega2*T))
    rng = np.random.default_rng(seed)
    return rng.normal(theta0.mu * T, math.sqrt(T * (1.0 + theta0.omega2 * T)), size=size)


def test_expected_score_vanishes_at_truth():
    theta0, T, R = Theta(mu=0.7, omega2=0.5), 2.0, 20_000
    u = _unit_u_samples(theta0, T, R, seed=91)
    scores = np.array(
        [score_hess(_stats(float(ui), T), theta0).score for ui in u]
    )
    mean = scores.mean(axis=0)
    se = scores.std(axis=0, ddof=1) / math.sqrt(R)
    assert np.all(np.abs(mean) < 4.0 * se)


def test_information_identity():
    """Covariance of the score equals minus the mean Hessian at the truth
    (both estimated from the same draws, entrywise 4 sigma)."""
    theta0, T, R = Theta(mu=-0.3, omega2=0.8), 1.5, 20_000
    u = _unit_u_samples(theta0, T, R, seed=17)
    outers, hessians = [], []
    for ui in u:
        sh = score_hess(_stats(float(ui), T), theta0)
        outers.append(np.outer(sh.score, sh.score))
        hessians.append(sh.hess)
    outers = np.array(outers)
    hessians = np.array(hessians)
    diff = outers.mean(axis=0) + hessians.mean(axis=0)
    se = (outers + hessians).std(axis=0, ddof=1) / math.sqrt(R)
    assert np.all(np.abs(diff) <= 4.0 * se)


def _bits(x):
    return np.float64(x).tobytes()


def _fsum_or_error(row):
    try:
        return math.fsum(row), None
    except (OverflowError, ValueError) as err:
        return None, err


def _assert_rows_match_fsum(rows):
    """row_fsum of the rows equals math.fsum of each row, down to the bits;
    where math.fsum raises, row_fsum raises the first such row's error."""
    expected = [_fsum_or_error(row) for row in rows]
    errors = [err for _, err in expected if err is not None]
    x = np.array(rows, dtype=float).reshape(len(rows), -1)
    if errors:
        with pytest.raises(type(errors[0])) as exc:
            row_fsum(x)
        assert str(exc.value) == str(errors[0])
        return
    got = row_fsum(x)
    assert got.shape == (len(rows),)
    for g, (want, _) in zip(got.tolist(), expected):
        assert _bits(g) == _bits(want)


_ULP_TIES = [1.0, -1.0, 2.0 ** -53, -(2.0 ** -53), 2.0 ** -54, 3 * 2.0 ** -53,
             2.0 ** -105, 1.5, 2.0 ** 52, 0.5]
finite_terms = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0),
              st.integers(min_value=-300, max_value=300)),
    st.sampled_from(_ULP_TIES),
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=1e307, max_value=1.7976931348623157e308),
    st.floats(min_value=-1e-310, max_value=1e-310),
)


def _rows(elements, max_n=12):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n),
                           min_size=1, max_size=4)
    )


@given(rows=_rows(finite_terms))
@settings(max_examples=400)
def test_row_fsum_equals_math_fsum(rows):
    _assert_rows_match_fsum(rows)


@given(rows=_rows(finite_terms, max_n=6), data=st.data())
@settings(max_examples=200)
def test_row_fsum_cancelling_pairs(rows, data):
    # each row plus its own negation, with a few extra terms, in shuffled
    # order: the exact total is the sum of the extras alone
    extra = data.draw(st.lists(finite_terms, min_size=2, max_size=2))
    paired = []
    for row in rows:
        terms = row + [-t for t in row] + extra
        paired.append(data.draw(st.permutations(terms)))
    _assert_rows_match_fsum(paired)


@given(rows=_rows(st.one_of(finite_terms, st.sampled_from(
    [math.inf, -math.inf, math.nan, 1.7976931348623157e308, -1.7976931348623157e308]
))))
@settings(max_examples=300)
def test_row_fsum_special_rows_match_math_fsum(rows):
    _assert_rows_match_fsum(rows)


def test_row_fsum_edge_cases():
    assert row_fsum(np.empty((3, 0))).tolist() == [0.0, 0.0, 0.0]
    assert row_fsum(np.empty((0, 5))).shape == (0,)
    # math.fsum gives +0.0 for an all-negative-zero row
    assert _bits(row_fsum([[-0.0, -0.0]])[0]) == _bits(0.0)
    # half-way ties round to even, as math.fsum does
    assert row_fsum([[1.0, 2.0 ** -53], [1.0, 3 * 2.0 ** -53]]).tolist() == [
        math.fsum([1.0, 2.0 ** -53]), math.fsum([1.0, 3 * 2.0 ** -53])
    ]
    # terms spread over more binary orders than the extraction passes cover
    wide = [[math.ldexp(1.0, -40 * k) for k in range(26)]]
    assert row_fsum(wide)[0] == math.fsum(wide[0])
    with pytest.raises(OverflowError):
        row_fsum([[1.0, 2.0], [1e308, 1e308]])
    with pytest.raises(ValueError):
        row_fsum([[math.inf, -math.inf]])
    x = np.array([[1.0, 2.0 ** -60, -1.0]])
    row_fsum(x)
    assert x.tolist() == [[1.0, 2.0 ** -60, -1.0]]


def test_row_totals_equal_one_row_totals():
    rng = np.random.default_rng(23)
    u = rng.normal(scale=3.0, size=(5, 40))
    v = rng.uniform(0.0, 8.0, size=(5, 40))
    mu = rng.uniform(-3.0, 3.0, size=5)
    w2 = rng.uniform(0.0, 4.0, size=5)
    ll = total_loglik_uv(u, v, mu, w2)
    sc = total_score_uv(u, v, mu, w2)
    he = total_hess_uv(u, v, mu, w2)
    assert ll.shape == (5,) and sc.shape == (5, 2) and he.shape == (5, 2, 2)
    for r in range(5):
        stats = [_stats(a, b) for a, b in zip(u[r].tolist(), v[r].tolist())]
        theta = Theta(mu=float(mu[r]), omega2=float(w2[r]))
        assert ll[r] == total_loglik(stats, theta)
        assert sc[r].tolist() == total_score(stats, theta).tolist()
        assert he[r].tolist() == total_hess(stats, theta).tolist()
        assert ll[r] == math.fsum(
            log_lambda(s, theta) for s in stats
        )
