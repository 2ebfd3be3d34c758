"""ks_norm_pvalue agrees with scipy.stats.kstest(x, "norm").pvalue to a
relative 1e-9, or an absolute 1e-300 where scipy's p-value is below
1e-300; NaN gives NaN.

The targeted samples put the KS statistic D inside each region of the
survival function's branch tree (Simard and L'Ecuyer's selection rule),
and the test checks that the sample really landed in the region it was
built for, so every branch is exercised on every run. A fixed grid pins
every n <= 140 against scipy.stats.kstwo.sf up to n*D^2 = 4. The
module's two special functions are checked on their own against
scipy.special: _smirnov in each region that calls it and in its
underflow tail, and _ndtr out to |x| = 38.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from sde_remle.ks import _kolmogn_sf, _ndtr, _smirnov, ks_norm_pvalue

RTOL = 1e-9


def _scipy_pvalue(x):
    return float(stats.kstest(x, "norm").pvalue)


def _close(a, b, rtol=RTOL, floor=1e-300):
    """a is within rtol of b relative, or within floor absolute where b is
    below floor; NaN matches only NaN."""
    if math.isnan(b):
        return math.isnan(a)
    return abs(a - b) <= (rtol * abs(b) if abs(b) >= floor else floor)


def _branch(n, d):
    """Which formula the survival function uses at (n, D)."""
    if d <= 0.5 / n:
        return "support-low"
    if d >= 1.0:
        return "support-high"
    t = n * d
    if t <= 1.0:
        return "ruben-gambino-low"
    if t >= n - 1:
        return "ruben-gambino-high"
    if d >= 0.5:
        return "smirnov-exact"
    nd2 = t * d
    if n <= 140:
        if nd2 <= 0.754693:
            return "small-durbin"
        # scipy's Pomeranz region; ks.py computes it with the Durbin matrix
        return "small-pomeranz" if nd2 <= 4 else "small-smirnov"
    if nd2 >= 370.0:
        return "large-zero"
    if nd2 >= 2.2:
        return "large-smirnov"
    if n <= 100000 and n * d ** 1.5 <= 1.4:
        return "large-durbin"
    # Pelz-Good returns p = 1 outright once its q = exp(-pi^2/(8 z^2)),
    # z = sqrt(n) * D, falls below exp(-708)
    z2 = n * d * d
    return "large-pelz-good-cutoff" if -math.pi ** 2 / 8 / z2 < -708 else "large-pelz-good"


def _sample_with_d(n, d, rng):
    """A shuffled normal-scores sample whose KS statistic is about d.

    u_i = (i - 1/2)/n + c has D = 1/(2n) + c; points pushed past the top
    are held just below 1, which leaves D unchanged.
    """
    c = d - 0.5 / n
    u = np.minimum((np.arange(1, n + 1) - 0.5) / n + c, 1.0 - 1e-12)
    x = special.ndtri(u)
    rng.shuffle(x)
    return x


def _draw_in(draw, lo, hi):
    """A float strictly inside (lo, hi), kept off the edges by 1e-6 of the
    width; a third of the draws hug each edge, where a misplaced threshold
    would show."""
    pad = 1e-6 * (hi - lo)
    frac = draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 0.01), st.floats(0.99, 1.0)))
    return lo + pad + frac * (hi - lo - 2.0 * pad)


# branch -> (n strategy, D bounds at that n); the D bounds are the branch
# tree's own thresholds solved for D
_LARGE = st.integers(141, 3000)
_REGIONS = {
    "ruben-gambino-low": (st.integers(1, 3000), lambda n: (0.5 / n, 1.0 / n)),
    "ruben-gambino-high": (st.integers(2, 3000), lambda n: (1.0 - 1.0 / n, 1.0)),
    "smirnov-exact": (st.integers(3, 3000), lambda n: (0.5, 1.0 - 1.0 / n)),
    "small-durbin": (st.integers(3, 140),
                     lambda n: (1.0 / n, min(0.5, math.sqrt(0.754693 / n)))),
    "small-pomeranz": (st.integers(4, 140),
                       lambda n: (math.sqrt(0.754693 / n), min(0.5, math.sqrt(4.0 / n)))),
    "small-smirnov": (st.integers(17, 140), lambda n: (math.sqrt(4.0 / n), 0.5)),
    "large-zero": (st.integers(1481, 3000), lambda n: (math.sqrt(370.0 / n), 0.5)),
    "large-smirnov": (_LARGE, lambda n: (math.sqrt(2.2 / n), min(0.5, math.sqrt(370.0 / n)))),
    "large-durbin": (_LARGE, lambda n: (1.0 / n, (1.4 / n) ** (2.0 / 3.0))),
    "large-pelz-good": (_LARGE, lambda n: ((1.4 / n) ** (2.0 / 3.0), math.sqrt(2.2 / n))),
}


@pytest.mark.parametrize("branch", sorted(_REGIONS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_every_branch_matches_scipy_bit_for_bit(branch, data, seed):
    n_strategy, bounds = _REGIONS[branch]
    n = data.draw(n_strategy)
    d = _draw_in(data.draw, *bounds(n))
    x = _sample_with_d(n, d, np.random.default_rng(seed))
    res = stats.kstest(x, "norm")
    assert _branch(n, float(res.statistic)) == branch
    assert _close(ks_norm_pvalue(x), float(res.pvalue))


@st.composite
def _normal_samples(draw):
    """Normal samples of any size, shifted so p spans (0, 1), some with ties."""
    n = draw(st.one_of(st.integers(1, 160), st.sampled_from([200, 399, 400, 401, 1000, 3000])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = draw(st.floats(-3.0, 3.0)) + draw(st.floats(0.25, 4.0)) * rng.standard_normal(n)
    grid = draw(st.sampled_from([None, 1.0, 0.1, 0.01]))
    if grid is not None:
        x = np.round(x / grid) * grid
    return x


@settings(max_examples=300, deadline=None)
@given(_normal_samples())
@example(np.array([0.0]))            # n = 1 at D = 1/(2n): p = 1
@example(np.array([40.0]))           # D = 1: p = 0
@example(np.array([-1.0, -1.0, 2.0, 2.0, 2.0]))
@example(np.full(7, 0.25))
def test_normal_samples_match_scipy_bit_for_bit(x):
    assert _close(ks_norm_pvalue(x), _scipy_pvalue(x))


@pytest.mark.parametrize("n,d,branch", [
    # n > 100000 skips the Durbin matrix, so only there can D be small
    # enough for the Pelz-Good cut-off
    (100_001, 2e-4, "large-pelz-good"),
    (200_000, 2e-5, "large-pelz-good-cutoff"),
])
def test_very_large_samples_match_scipy(n, d, branch):
    x = _sample_with_d(n, d, np.random.default_rng(n))
    res = stats.kstest(x, "norm")
    assert _branch(n, float(res.statistic)) == branch
    assert _close(ks_norm_pvalue(x), float(res.pvalue))


def test_small_samples_match_kstwo_on_a_fixed_grid():
    # 8 values of D per n in (1/(2n), min(0.5, sqrt(4/n))], empty at n = 1:
    # the Ruben-Gambino low end and the Durbin matrix, which here also
    # covers scipy's Pomeranz region
    checked = 0
    for n in range(2, 141):
        lo, hi = 0.5 / n, min(0.5, math.sqrt(4.0 / n))
        for d in np.linspace(lo, hi, 9)[1:].tolist():
            p = float(np.clip(_kolmogn_sf(n, d), 0.0, 1.0))
            assert _close(p, float(stats.kstwo.sf(d, n))), (n, d)
            checked += 1
    assert checked == 139 * 8


@pytest.mark.parametrize("n", [141, 3000])
def test_large_samples_with_d_at_most_1_over_n_have_p_one(n):
    for d in np.linspace(0.5 / n, 1.0 / n, 9)[1:].tolist():
        assert _kolmogn_sf(n, d) == 1.0


def test_input_is_not_modified_and_order_does_not_matter():
    x = np.random.default_rng(5).standard_normal(50) + 0.3
    before = x.copy()
    p = ks_norm_pvalue(x)
    assert np.array_equal(x, before)
    assert ks_norm_pvalue(x[::-1].tolist()) == p


def test_nan_gives_nan_and_empty_is_refused():
    assert math.isnan(ks_norm_pvalue([0.1, math.nan, 0.3]))
    with pytest.raises(ValueError):
        ks_norm_pvalue([])


# _smirnov(n, x) = Pr(D+_n >= x) is called for x >= 0.5 (exact), for
# n*x^2 > 4 at n <= 140, and for 2.2 <= n*x^2 < 370 at n > 140. Where
# scipy's value is a normal float the sum must hold its relative
# accuracy: it underflows only where the true value does.
_NORMAL_MIN = sys.float_info.min


def _smirnov_close(n, x):
    return _close(_smirnov(n, x), float(special.smirnov(n, x)), floor=_NORMAL_MIN)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3000), frac=st.floats(0.0, 1.0, exclude_max=True))
@example(n=1, frac=0.0)
@example(n=3000, frac=0.999)
def test_smirnov_exact_region_matches_scipy(n, frac):
    assert _smirnov_close(n, min(0.5 + 0.5 * frac, math.nextafter(1.0, 0.0)))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(17, 140), frac=st.floats(0.0, 1.0, exclude_max=True))
def test_smirnov_small_n_region_matches_scipy(n, frac):
    lo = math.sqrt(4.0 / n)
    assert _smirnov_close(n, lo + frac * (0.5 - lo))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(141, 3000), frac=st.floats(0.0, 1.0, exclude_max=True))
def test_smirnov_large_n_region_matches_scipy(n, frac):
    lo, hi = math.sqrt(2.2 / n), min(0.5, math.sqrt(370.0 / n))
    assert _smirnov_close(n, lo + frac * (hi - lo))


@pytest.mark.parametrize("n", [5000, 20_000, 100_000, 200_000])
@pytest.mark.parametrize("nx2", [2.2, 10.0, 100.0, 369.9])
def test_smirnov_very_large_n_matches_scipy(n, nx2):
    assert _smirnov_close(n, math.sqrt(nx2 / n))


@pytest.mark.parametrize("n,x", [
    (3000, 0.6),                             # 0.4^3000: 0 in float64
    (200_000, math.sqrt(400.0 / 200_000)),   # about exp(-800): 0
    (200_000, math.sqrt(372.0 / 200_000)),   # about exp(-744), subnormal
    (1000, math.sqrt(352.0 / 1000)),         # about 1e-306, still normal
    (100, 0.999),                            # 0.001^100 = 1e-300
    (34, 1.0 - 2.0 ** -31),                  # 2^-1054, subnormal
])
def test_smirnov_underflow_tail_matches_scipy(n, x):
    assert float(special.smirnov(n, x)) < 1e-299
    assert _smirnov_close(n, x)


def test_ndtr_matches_scipy_out_to_38():
    # the cdf's relative sensitivity to rounding in x grows like x^2
    x = np.concatenate([np.linspace(-38.0, 38.0, 76_001),
                        np.random.default_rng(3).standard_normal(10_000) * 8.0])
    ours, theirs = _ndtr(x), special.ndtr(x)
    assert all(_close(a, b, rtol=1e-12) for a, b in zip(ours.tolist(), theirs.tolist()))


def test_ndtr_at_infinities_and_nan():
    out = _ndtr(np.array([-np.inf, np.inf, np.nan]))
    assert out[0] == 0.0 and out[1] == 1.0 and math.isnan(out[2])
