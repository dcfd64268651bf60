"""Harrell-Davis quantile estimator, in plain Python.

The p-quantile of n values is a weighted mean of all their order statistics,
with the weights of a Beta(p(n+1), (1-p)(n+1)) distribution over the cells
[(i-1)/n, i/n] (Harrell & Davis, Biometrika 69, 1982).  On the latency of a
batch of models it is much steadier than the sample quantile, which
interpolates between two order statistics and so carries one or two reports'
noise in full.
"""

from __future__ import annotations

from math import exp, lgamma, log, log1p

_EPS = 3e-16
_TINY = 1e-300


def _continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz's evaluation of the continued fraction of the incomplete beta."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 1000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < _EPS:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = exp(lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _continued_fraction(a, b, x) / a
    return 1.0 - front * _continued_fraction(b, a, 1.0 - x) / b


def harrell_davis(values, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile of `values` (0 < p < 1)."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))
