"""Exact p-value of the two-sided Kolmogorov-Smirnov test of N(0, 1).

ks_norm_pvalue(x) agrees with float(scipy.stats.kstest(x, "norm").pvalue)
to a relative 1e-9 (an absolute 1e-300 below 1e-300) for samples of up
to 200,000 points, and needs only numpy and math: no run loads scipy,
whose special-function module alone costs a quarter second and about
25 MB in a fresh process.

The survival function of D_n follows the branch tree of Simard and
L'Ecuyer, "Computing the Two-Sided Kolmogorov-Smirnov Distribution",
J. Stat. Softw. 39(11), 2011, with four algorithms: the Ruben-Gambino
closed forms at both ends of the support, twice the one-sided Smirnov
tail for large n*D^2, Durbin's matrix algorithm in the Marsaglia-Tsang-
Wang form (J. Stat. Softw. 8(18), 2003), and the Pelz-Good expansion.
The code is the survival-function path of scipy's scipy/stats/_ksstats.py,
with its arithmetic (and its long-double scaling) unchanged but for one
region: for n <= 140 and 0.754693 < n*D^2 <= 4 scipy uses the Pomeranz
recursion, and this module uses the Durbin matrix there too (its matrix
is at most 47 x 47 in that region). There the result is within 2.4e-11
relative of scipy.stats.kstwo.sf, measured on 23,872 points covering
every n <= 140; everywhere else it is scipy's arithmetic. Only the two
special functions are computed here: the normal cdf from math.erfc, and
the one-sided Smirnov tail from the exact sum of Birnbaum and Tingey,
Ann. Math. Statist. 22(4), 1951. scipy's file carries this notice:

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

import math

import numpy as np

# scaling of intermediate results; long double, as in scipy, because a
# scaled scalar carries on in long-double arithmetic there
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT_HALF = math.sqrt(0.5)
_SQRT2PI = np.sqrt(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6


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
    cdf = _ndtr(x)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    d = d_plus if d_plus > d_minus else d_minus
    if np.isnan(d):
        return float("nan")
    if d <= 0.5 / n:
        return 1.0
    if d >= 1.0:
        return 0.0
    return float(np.clip(_kolmogn_sf(n, d), 0.0, 1.0))


def _ndtr(x):
    """The N(0, 1) cdf of each entry of the float array x, 0.5 erfc(-x/sqrt 2)
    from libm: 0 at -inf, 1 at inf and NaN at NaN. The argument is rounded
    as scipy's ndtr rounds it, x times sqrt(1/2)."""
    return np.array([0.5 * math.erfc(-v * _SQRT_HALF) for v in x.tolist()])


def _smirnov(n, x):
    """Pr(D+_n >= x) for 0 < x < 1, by the Birnbaum-Tingey sum

        x * sum_{j=0}^{floor(n(1-x))} C(n,j) (1-x-j/n)^(n-j) (x+j/n)^(j-1).

    Every term is positive. With t = n*x, term j is
    C(n,j) (n-j-t)^(n-j) (t+j)^(j-1) / n^(n-1); the terms are formed in
    log space, shifted by the largest and added exactly (math.fsum), and
    x, the shift and the common factors go into one final exp, so the
    result underflows only where the true value does. The logs of the
    factorials reach n log n, so the relative error grows like
    eps * n log n; against scipy.special.smirnov it measured below 1e-11
    for n <= 3000 and below 6e-10 for n <= 200,000.
    """
    t = n * x
    # base n - j - t; for x >= 1/2 as n (1 - x) - j, since 1 - x is exact
    # there and rounding n x would lose most of it near x = 1
    y = n * (1.0 - x) if x >= 0.5 else n - t
    j = np.arange(math.floor(y) + 1)
    q = y - j if x >= 0.5 else (n - j) - t
    j, q = j[q > 0], q[q > 0]  # a zero base contributes nothing
    log_fact = np.array([math.lgamma(k) for k in range(1, n + 2)])  # log(k!)
    log_terms = (n - j) * np.log(q) + (j - 1) * np.log(t + j) - log_fact[j] - log_fact[n - j]
    shift = float(log_terms.max())
    total = math.fsum(np.exp(log_terms - shift).tolist())
    return math.exp(math.log(x) + log_fact[n] - (n - 1) * math.log(n) + shift + math.log(total))


def _kolmogn_sf(n, x):
    """Pr(D_n >= x) for 1/(2n) < x < 1, not yet clipped to [0, 1]."""
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        return 1.0 - np.prod(np.arange(1, n+1) * (1.0/n) * (2*t - 1))
    if t >= n - 1:  # Ruben-Gambino
        return 2 * (1.0 - x)**n
    if x >= 0.5:  # exact: 2 * smirnov
        return 2 * _smirnov(n, x)

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 4:
            return 1.0 - _kolmogn_DMTW(n, x)
        # Miller approximation of 2*smirnov
        return 2 * _smirnov(n, x)

    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return 2 * _smirnov(n, x)
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

    return np.clip(p, 0.0, 1.0)


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
