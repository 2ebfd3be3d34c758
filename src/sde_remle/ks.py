"""Exact p-value of the two-sided Kolmogorov-Smirnov test of N(0, 1).

ks_norm_pvalue(x) equals float(scipy.stats.kstest(x, "norm").pvalue) bit
for bit, but imports only numpy and scipy.special: scipy.stats costs more
import time and memory than the rest of the package together.

The survival function of D_n follows Simard and L'Ecuyer, "Computing the
Two-Sided Kolmogorov-Smirnov Distribution", J. Stat. Softw. 39(11), 2011:
the Ruben-Gambino closed forms at both ends of the support, twice the
one-sided Smirnov tail for large n*D^2, the Durbin matrix algorithm in the
Marsaglia-Tsang-Wang form, the Pomeranz recursion, and the Pelz-Good
expansion. The code is the survival-function path of scipy's
scipy/stats/_ksstats.py, with its arithmetic (and its long-double scaling)
unchanged, so every branch rounds as scipy's does. That file carries this
notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

import numpy as np
from scipy.special import ndtr, smirnov

# scaling of intermediate results; long double, as in scipy, because a
# scaled scalar carries on in long-double arithmetic there
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# Stirling coefficients B_{2j}/(2j)/(2j-1) for j = 8, ..., 1
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def ks_norm_pvalue(x):
    """Two-sided one-sample KS p-value of the float64 sample x against N(0, 1).

    D is the larger of D+ = max(i/n - F(x_(i))) and D- = max(F(x_(i)) -
    (i-1)/n); the p-value is Pr(D_n >= D), which is 1 for D <= 1/(2n), 0
    for D >= 1 and NaN when x holds a NaN.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("the KS test needs a non-empty 1-D sample")
    x = np.sort(x)
    n = x.shape[0]
    cdf = ndtr(x)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    d = d_plus if d_plus > d_minus else d_minus
    if np.isnan(d):
        return float("nan")
    if d <= 0.5 / n:
        return 1.0
    if d >= 1.0:
        return 0.0
    return float(_clip_prob(_kolmogn_sf(n, d)))


def _clip_prob(p):
    return np.clip(p, 0.0, 1.0)


def _log_nfactorial_div_n_pow_n(n):
    # log(n! / n**n) by Stirling's series, with n*log(n) removed up front
    # against cancellation
    rn = 1.0/n
    return np.log(n)/2 - n + _LOG_2PI/2 + rn * np.polyval(_STIRLING_COEFFS, rn/n)


def _kolmogn_sf(n, x):
    """Pr(D_n >= x) for 1/(2n) < x < 1, not yet clipped to [0, 1]."""
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if n <= 140:
            prob = np.prod(np.arange(1, n+1) * (1.0/n) * (2*t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2*t-1))
        return 1.0 - prob
    if t >= n - 1:  # Ruben-Gambino
        return 2 * (1.0 - x)**n
    if x >= 0.5:  # exact: 2 * smirnov
        return 2 * smirnov(n, x)

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return 1.0 - _kolmogn_DMTW(n, x)
        if nxsquared <= 4:
            return 1.0 - _kolmogn_Pomeranz(n, x)
        # Miller approximation of 2*smirnov
        return 2 * smirnov(n, x)

    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return 2 * smirnov(n, x)
    if n <= 100000 and n * x**1.5 <= 1.4:
        return 1.0 - _kolmogn_DMTW(n, x)
    return 1.0 - _kolmogn_PelzGood(n, x)


def _kolmogn_DMTW(n, d):
    """Pr(D_n <= d), 1/n < d < 1, clipped: the Marsaglia-Tsang-Wang form of
    Durbin's matrix algorithm, O(m^2 log n) for m = 2*ceil(n*d) - 1."""
    # d = (k-h)/n with k a positive integer and 0 <= h < 1; the k-th row
    # of (n!/n^n) * H^n, H of size m*m, with scaled intermediate results
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    # v is the first column (and last row) of H, w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])  # intermediate powers of H
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # multiply by n!/n^n
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    if expnt != 0:
        p = np.ldexp(p, expnt)

    return _clip_prob(p)


def _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf):
    """Endpoints of the non-zero interval of row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        # i + 1 = 2*ip1div2 + ip1mod2
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1

    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_Pomeranz(n, x):
    """Pr(D_n <= x), clipped, by the Pomeranz (1974) recursion."""
    # Row i of the n*(2n+2) matrix V is the convolution of row i-1 with
    # one of three Poisson-like weight sequences; the answer is n! times
    # the last entry of the last row. Two rows are kept, V0 and V1, with
    # their start offsets V0s and V1s, and only their non-zero stretch
    # [j1, j2] is computed. Intermediate results are scaled as needed.
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # fractional part of t
    g = min(f, 1.0 - f)
    ceilf = (1 if f > 0 else 0)
    roundf = (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)    # most powers a convolution needs
    gpower = np.empty(npwrs)  # (g/n)^m/m!
    twogpower = np.empty(npwrs)  # (2g/n)^m/m!
    onem2gpower = np.empty(npwrs)  # ((1-2g)/n)^m/m!

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g/n, 2*g/n, (1 - 2*g)/n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1  # first row
    V0s, V1s = 0, 0

    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        # keep j1, V1, V1s, V0s from the last iteration
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1  # first index used from conv
            conv_len = j2 - j1 + 1  # number of entries used from conv
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            # scale against underflow
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    # multiply by n!
    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m

    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return _clip_prob(ans)


def _kolmogn_PelzGood(n, x):
    """Pelz-Good (1976) approximation of Pr(D_n <= x), 0 < x < 1, unclipped.

    The Li-Chien / Korolyuk expansion
        Pr(D_n <= x) ~ K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n**1.5,
    z = x*sqrt(n), with each K_i rewritten through Jacobi theta functions
    into a form suited to small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0

    q = np.exp(qlog)

    # coefficients of the terms of the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner scheme for sum c_i q^(i^2), which reduces to odd integers
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    # z**10 > 0 as z > 0.04
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the sum over all integers k of the other terms:
    # K_2: (pi^2 k^2) q^(k^2), K_3: (3pi^2 k^2 z^2 - pi^4 k^4) q^(k^2);
    # little cancellation is expected, so they are summed directly
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n

    return sum(K0to3)
