"""Shifted power sums zeta(s, a) = sum_{k>=0} (a+k)^(-s) for integer s >= 2.

Evaluated by Euler-Maclaurin: sum the first few terms directly, then expand
the remainder around b = a + shift. The shift is chosen so that the
asymptotic correction terms decay well below double precision before the
Bernoulli series starts diverging; with ten Bernoulli terms the result is
accurate to a few ulp for every s up to several hundred (checked against
high-precision direct summation in the tests). hzeta_rows evaluates the
orders 2, ..., count+1 at once, at arguments that need no shift.
normal_orders counts the leading orders whose value can be a normal double
at given arguments; past them zeta(s, a) is below the smallest normal
number, so a caller may ask hzeta_rows for those orders only.

The argument a may be a numpy array (vectorized over grid points); Re(a+k)
must be positive for all summed k, which holds for the tail sums this
package needs (a = i_max + 1 + z with z in a ball well right of -i_max).
"""

from __future__ import annotations

import math

import numpy as np

# Bernoulli numbers B_2, B_4, ..., B_20
_BERN = (
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66,
    -691.0 / 2730, 7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
)
_LOG_TINY = math.log(np.finfo(float).tiny)   # of the smallest normal double


def unshifted_floor(s):
    """The |a| from which order s needs no shifted head sum."""
    return 1.3 * s + 25


def normal_orders(count, x):
    """How many of the orders s = 2, ..., count+1 can give a normal double
    zeta(s, a) at some a with Re a >= x > 0. Since |zeta(s, a)| <=
    x^(-s) + x^(1-s)/(s-1) = x^(-s) (1 + x/(s-1)), they are the orders at
    which this bound reaches the smallest normal number. For x >= 1 the
    bound falls with s, so these are the leading orders 2, ..., result+1;
    for x < 1 every order is held.
    """
    s = np.arange(2.0, count + 2)
    log_bound = np.log1p(x / (s - 1.0)) - s * math.log(x)
    return int(np.count_nonzero(log_bound >= _LOG_TINY))


def hzeta_int(s, a):
    """zeta(s, a) for integer s >= 2; a scalar or ndarray with Re a > 0."""
    if not isinstance(s, (int, np.integer)) or s < 2:
        raise ValueError(f"hzeta_int needs an integer s >= 2, got {s!r}")
    s = int(s)
    a = np.asarray(a, dtype=complex)
    if np.any(a.real <= 0):
        raise ValueError("hzeta_int requires Re a > 0")

    # Push the expansion point far enough right that the correction series
    # converges rapidly; the threshold grows with s because the Pochhammer
    # factors in the Bernoulli terms grow like s^(2v).
    amin = float(np.min(np.abs(a)))
    shift = 0
    while amin + shift < unshifted_floor(s):
        shift += 16

    head = np.zeros_like(a)
    for j in range(shift):
        head = head + (a + j) ** (-s)

    b = a + shift
    binv = 1.0 / b
    tail = b ** (1 - s) / (s - 1) + 0.5 * b ** (-s)
    fac = float(s)                      # (s)(s+1)...(s+2v-2), updated per term
    bpow = b ** (-s) * binv
    for v, bern in enumerate(_BERN, start=1):
        tail = tail + (bern / math.factorial(2 * v)) * fac * bpow
        fac *= (s + 2 * v - 1) * (s + 2 * v)
        bpow = bpow * binv * binv
    return head + tail


def hzeta_rows(count, a):
    """Row j holds zeta(j+2, a) for j < count, for a 1-d array a with
    Re a > 0 and |a| >= unshifted_floor(count + 1), so no order needs a
    shifted head sum: zeta(s, a) = a^(-s) (a/(s-1) + 1/2 + sum_v B_2v/(2v)!
    (s)_(2v-1) a^(1-2v)), the brackets of all orders one matrix product.
    """
    a = np.asarray(a, dtype=complex)
    floor = unshifted_floor(count + 1)
    if np.any(a.real <= 0) or np.any(np.abs(a) < floor):
        raise ValueError(f"hzeta_rows needs Re a > 0 and |a| >= {floor:.6g}")
    s = np.arange(2.0, count + 2)[:, None]
    odd = np.arange(1, 2 * len(_BERN), 2)          # 2v - 1 for v = 1..10
    rising = np.cumprod(s + np.arange(odd[-1]), axis=1)[:, odd - 1]
    bern = [b / math.factorial(k + 1) for k, b in zip(odd, _BERN)]
    coef = np.hstack([1.0 / (s - 1.0), np.full_like(s, 0.5), rising * bern])
    rows = coef @ a ** np.concatenate(([1, 0], -odd))[:, None]
    binv = 1.0 / a
    step = binv * binv                  # a^(-s), stepped once per row
    for row in rows:
        row *= step
        step *= binv
    return rows


def trigamma(x):
    """sum_{k>=0} (x+k)^(-2) for real or complex x with Re x > 0."""
    return hzeta_int(2, x)
