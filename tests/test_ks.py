"""ks_norm_pvalue equals scipy.stats.kstest(x, "norm").pvalue bit for bit.

The targeted samples put the KS statistic D inside each region of the
survival function's branch tree (Simard and L'Ecuyer's selection rule),
and the test checks that the sample really landed in the region it was
built for, so every branch is exercised on every run.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtri

from sde_remle.ks import ks_norm_pvalue


def _scipy_pvalue(x):
    return float(stats.kstest(x, "norm").pvalue)


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


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
    x = ndtri(u)
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
    assert ks_norm_pvalue(x) == float(res.pvalue)


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
    assert _same(ks_norm_pvalue(x), _scipy_pvalue(x))


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
    assert ks_norm_pvalue(x) == float(res.pvalue)


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
