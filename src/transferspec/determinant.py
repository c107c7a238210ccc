"""Periodic-orbit traces and the dynamical determinant (any dimension).

The n-th trace of the transfer operator is the absolutely convergent sum
over all length-n words of w_word(z*) / det(I - T_word'(z*)), where z* is
the word composition's unique attracting fixed point. Newton's identities
turn the traces t_1..t_M into the Taylor coefficients c_0..c_M of the
determinant Delta(z) = exp(-sum_n t_n z^n / n); the reciprocals of the
zeros of Delta are the operator's eigenvalues, giving a route to the
spectrum that never builds a matrix and works in any ambient dimension.

The word sum needs a finite alphabet: a truncated countable one is
refused before any word is counted, since nothing bounds what its dropped
letters add to the traces. The matrix route (spectra) handles such
families through their closed-form tail sums.

The formula holds for admissible systems, so in dim 1 the system is
admitted first, as enclosing_radius admits it: every branch maps the ball
into a smaller concentric one. Then every word's attracting fixed point
lies in the image of its last letter, and so does every point of its
periodic orbit, and no word is checked against the ball. In dim >= 2,
where no admission check exists, iteration refuses a fixed point outside
the ball (dynamics.batch_fixed_points).

The n rotations of a word trace one periodic orbit: they share its
multiplier, its weight and so its term. In dim 1 the sum therefore runs
over necklaces: only the least rotation of each word is evaluated, and
its term counts once for each of its period d (the number of distinct
rotations). The products d * t are summed exactly, in integer limbs, and
an order's exact block sums are added and rounded once, so its value does
not depend on the blocks. Closed-form words are walked once per order,
every level of their prefix tree in blocks of words; iterated ones come in
fixed ranges of words, which split over the threads. Counting one
rotation's rounding d times cannot grow the relative error of a sum whose
terms share one sign, but where terms cancel it can, so an order whose
terms, in all its chunks together, are not all real of one sign is
evaluated word by word, as every order is in dim >= 2. The orders are
taken in turn, each mapping its own chunks, and the first failing order
stops the table: a word whose multiplier is refused, or a term that is not
finite, raises from the block that finds it.

Word fixed points are closed-form for all-Moebius systems and iterated for
user maps. A Moebius system whose coefficients and weight factors are all
real folds its words in float64, dividing as numpy divides complex
numbers, so its traces keep the bits of the complex fold. The chunks
and blocks depend on the alphabet size and the order alone, and the
values on neither, so the traces are bit-identical at any thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import starmap
from operator import or_

import numpy as np

from ._parallel import chunk_ranges, map_ordered
from .dynamics import (
    _WORD_BLOCK,
    DEFAULT_WORD_BUDGET,
    _fold_blocks,
    _word_count,
    batch_fixed_points,
    batch_orbit,
    enclosing_radius,
    word_letters,
)
from .errors import NotContracting, RootFindingFailure, TransferOperatorError
from .spectra import EigenvalueSequence, _agreeing_prefix, sort_eigenvalues
from .systems import CountableTruncated, _letter_groups, _real_data, _weigh

# terms per exact block sum in _exact_sum, and the bound on the periods
_BLOCK = 1 << 13


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class TraceValue:
    """One operator trace: the lexicographic word sum and its word count."""

    order: int
    value: complex
    words: int


@dataclass(frozen=True)
class TraceTable:
    orders: tuple
    values: tuple


@dataclass(frozen=True)
class DeterminantSeries:
    """Taylor coefficients c_0..c_M of the determinant, c_0 = 1."""

    coefficients: tuple

    @property
    def degree(self):
        return len(self.coefficients) - 1


# ---------------------------------------------------------------------------
# traces


def _trace_rows(sys_, orders, word_budget, tol, threads):
    """The TraceValue of each order, the orders taken in turn.

    A dim-1 system is admitted first (enclosing_radius, whose errors it
    raises), then a truncated countable alphabet is refused, and every
    order's words are counted against the budget, all before any word is
    evaluated. In dim 1 an order first evaluates its necklace
    representatives. If its terms, in all chunks together, can cancel, the
    order is evaluated word by word instead (see the module docstring), as
    every order is in dim >= 2. A closed-form pass is one chunk, all its
    words walked once in blocks; an iterated pass maps fixed word ranges
    over the threads, since its batches decide how long fixed points are
    iterated. Each block's sums are exact, so an order's value is their
    total rounded once, whatever the chunks and blocks. A block raises its
    first refused word or a term that is not finite, and the first failing
    chunk raises: its order and all later ones stop there, even an order
    whose other chunks' terms can cancel. So does a value past the double
    range.
    """
    if sys_.dim == 1:
        enclosing_radius(sys_)
    if isinstance(sys_.alphabet, CountableTruncated):
        raise TransferOperatorError(
            "the determinant route needs a finite alphabet, and "
            f"{sys_.system_id} truncates a countable one; use spectrum for "
            "the Gauss family")
    totals = {n: _word_count(sys_, n, word_budget) for n in orders}
    d, size = sys_.dim, sys_.n_letters
    moebius = sys_.coefficients is not None
    # decided once for the table: whether the words can be taken in float64
    words = (partial(_moebius_words, sys_, real=_real_data(sys_)) if moebius
             else partial(_iterated_words, sys_, tol=tol))

    def evaluate(n, necklaces):
        """The order's block summaries, in chunk order; the first failing
        chunk raises. A closed-form pass is one chunk, walked in blocks."""
        def chunk(span):
            # starmap holds no block once it is summed; a term that is not
            # finite is refused by its block
            with np.errstate(over="ignore", invalid="ignore"):
                return list(starmap(partial(_summary, n, size, d),
                                    words(n, *span, necklaces)))

        return [block for part in map_ordered(
            chunk, [(0, totals[n])] if moebius else chunk_ranges(totals[n]),
            threads) for block in part]

    rows = []
    for n in orders:
        blocks = evaluate(n, d == 1)
        # a class's rotations may lie in other chunks, so whether the
        # necklace terms can cancel is read off all the chunks together
        if d == 1 and _cancels(reduce(or_, (block[2] for block in blocks))):
            blocks = evaluate(n, False)
        re, im, _ = zip(*blocks)
        try:
            value = complex(float(sum(re)), float(sum(im)))
        except OverflowError:
            raise TransferOperatorError(
                f"the order-{n} trace lies past the double range") from None
        rows.append(TraceValue(n, value, totals[n]))
    return rows


def _summary(n, size, d, index, period, wgt, mult):
    """One block of order n's words, of an alphabet of size letters in
    dimension d: its exact sums and the signs of its terms (_signs). Its
    first refused word raises, and so does a term that is not finite."""
    if d == 1:
        denom = 1.0 - mult
        refused = ~(np.abs(mult) < 1.0 - 1e-9)
        why = "multiplier of modulus >= 1 - 1e-9, so z* does not attract"
    else:
        denom = np.linalg.det(np.eye(d) - mult)
        refused = ~(np.abs(denom) >= 1e-12)
        why = "det(I - T') = {:.3g}, which is singular"
    # every rotation of a word shares its multiplier
    if refused.any():
        r = int(np.argmax(refused))
        word = word_letters(size, n, index[r:r + 1])[0]
        raise NotContracting(f"word {tuple(word.tolist())} has "
                             + why.format(denom[r]))
    terms = _divide(wgt, denom) if d == 1 else _quotient(wgt, denom)
    if not np.isfinite(period * terms).all():
        raise TransferOperatorError(
            f"the order-{n} trace has a term that is not finite")
    # the terms of real words are float64: their imaginary parts are 0
    return (_exact_sum(period, terms.real),
            _exact_sum(period, terms.imag) if terms.dtype == complex else 0,
            _signs(terms))


def _signs(terms):
    """The signs the terms hold, as bits: 1 for a part that is not real, 2
    for a positive real part and 4 for a negative one."""
    low, high = terms.real.min(), terms.real.max()
    odd = terms.dtype == complex and (terms.imag != 0).any()
    return odd | 2 * bool(high > 0) | 4 * bool(low < 0)


def _cancels(signs):
    """Whether terms of these signs (_signs) can cancel: they are not all
    real of one sign."""
    return bool(signs & 1) or signs & 6 == 6


def _quotient(a, b):
    """a / b elementwise, rounded as Python divides complex numbers: scaled
    by the larger part of b and divided once. numpy's a / b multiplies by
    a rounded reciprocal, one rounding more (a real b gives a * (1/b))."""
    wide = np.abs(b.real) >= np.abs(b.imag)
    big = np.where(wide, b.real, b.imag)
    small = np.where(wide, b.imag, b.real)
    ratio = small / big
    denom = big + small * ratio
    re = np.where(wide, a.real + a.imag * ratio, a.real * ratio + a.imag)
    im = np.where(wide, a.imag - a.real * ratio, a.imag * ratio - a.real)
    out = np.empty(denom.shape, dtype=complex)
    out.real, out.imag = re / denom, im / denom
    return out


def _divide(a, b, out=None, where=True):
    """a / b elementwise, rounded as numpy divides complex numbers: a real
    b, as a complex number of imaginary part 0, gives a * (1 / b), one
    rounding more than a real a / b. So words of a real system, taken in
    float64, keep the bits they have as complex numbers."""
    if np.iscomplexobj(b):
        return np.divide(a, b, out=out, where=where)
    return np.multiply(a, np.divide(1.0, b), out=out, where=where)


def _iterated_words(sys_, n, lo, hi, necklaces, tol):
    """Yields the words lo..hi-1 of length n as one block: their
    lexicographic indices, periods, weight and multiplier, by fixed-point
    iteration: the necklace representatives with necklaces, else every
    word. Nothing when the range holds no word to evaluate. The batch is
    iterated until its worst word converges, so a word's bits depend on the
    batch."""
    size = sys_.n_letters
    (words, period, _, _), = _fold_blocks(size, n, lo, hi, None, (),
                                          necklaces, size ** n)
    if not words.size:
        return
    letters = word_letters(size, n, words)
    groups = [_letter_groups(col) for col in letters.T]
    z = batch_fixed_points(sys_, letters, tol, groups)
    wgt, mult, _ = batch_orbit(sys_, letters, z, groups)
    yield words, period, wgt, mult


def _moebius_words(sys_, n, lo, hi, necklaces, real=False):
    """As _iterated_words, in closed form from the system's coefficients, in
    the blocks of a _fold_blocks walk of _WORD_BLOCK words. The multiplier
    is det / q^2, q the root _larger_root gives. Under a weight law with
    one power p a word's weight is its factors' product times the
    multiplier^p; other weights follow the orbit of the word's fixed point
    (_fixed_points). With real, which needs real coefficients and law
    factors (systems._real_data), the words are taken in float64 with the
    bits of the complex path; a word whose roots are not real, which has a
    multiplier of modulus 1, gets the multiplier NaN, which is refused as
    well."""
    size, coefficients = sys_.n_letters, sys_.coefficients
    factor, power = sys_.law or (np.ones(size), None)
    if real:
        coefficients, factor = coefficients.real, factor.real
    mob = tuple(coefficients.T)
    # a product of letter determinants: AE - BC of a long word cancels
    dets = mob[0] * mob[3] - mob[1] * mob[2]
    uniform = power is not None and (power == power[0]).all()

    def tail(words, period, fold, prods):
        det, wgt = prods
        q = _larger_root(fold, det)
        mult = _divide(det, q * q, out=det)
        if uniform:
            wgt = _weigh(wgt, power[0], mult, wgt)
        else:
            wgt = batch_orbit(sys_, word_letters(size, n, words),
                              _fixed_points(fold, q))[0]
        return words, period, wgt, mult

    # filter and starmap hold no block once the next is made
    return starmap(tail, filter(lambda block: len(block[0]), _fold_blocks(
        size, n, lo, hi, mob, (dets, factor), necklaces, _WORD_BLOCK)))


def _larger_root(fold, det):
    """q = C z + E at the attracting fixed point z of each folded word
    (A, B, C, E) of determinant det: the larger root of q^2 - (A + E) q +
    det."""
    A, _, _, E = fold
    tr = A + E
    with np.errstate(invalid="ignore"):         # a real word's complex roots
        s = np.sqrt(tr * tr - 4.0 * det)
    q = tr + s
    tr -= s                     # the roots, doubled: keep the larger one
    return np.where(np.abs(tr) > np.abs(q), tr, q) / 2.0


def _fixed_points(fold, q):
    """The attracting fixed point z of each folded word (A, B, C, E), from
    q = C z + E (_larger_root): z = B / (q - A) = (q - E) / C, the quotient
    with the larger divisor, which keeps digits."""
    A, B, C, E = fold
    qa, qe = q - A, q - E
    pick = (C == 0) | (np.abs(qa) > np.abs(qe))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = _divide(qe, C, out=qe)
        _divide(B, qa, out=z, where=pick)
    return z


def _exact_sum(period, x):
    """The exact sum of period * x, as a Fraction, for integer periods
    1 <= period < 2^13 and finite doubles x.

    Each x is a 53-bit integer mantissa times a power of two. Its 27- and
    26-bit limbs times the period stay below 2^40, so their sums per power
    of two over a block of 2^13 terms stay below 2^53 and are exact in
    float64. The blocks add as Python ints."""
    assert 1 <= period.min() and period.max() < _BLOCK
    parts = []                  # (p, e): the block sum p * 2^(e - 53)
    for lo in range(0, len(x), _BLOCK):
        mant, expo = np.frexp(x[lo:lo + _BLOCK])
        mant = (mant * 2.0 ** 53).astype(np.int64)
        k = period[lo:lo + _BLOCK]
        low = int(expo.min())
        expo -= low
        top = int(expo.max()) + 27
        # a term adds at most one limb to a power of two
        sums = (np.bincount(expo + 26, (mant >> 26) * k, top)
                + np.bincount(expo, (mant & (1 << 26) - 1) * k, top))
        at = np.flatnonzero(sums)
        parts.append((sum(v << b for v, b in zip(
            sums[at].astype(np.int64).tolist(), at.tolist())), low))
    base = min(low for _, low in parts)
    return (Fraction(sum(p << low - base for p, low in parts))
            * Fraction(2) ** (base - 53))


def trace(sys_, n, word_budget=DEFAULT_WORD_BUDGET, tol=1e-13, threads=1):
    """tau(L^n): the length-n word sum of weight / det(I - multiplier).

    A dim-1 system that is not admissible raises enclosing_radius's error
    before any word. Raises BudgetExceeded when |alphabet|^n > word_budget rather than
    silently truncating. The tolerance of iterated fixed points (default
    1e-13) is tighter than downstream eigenvalue targets because the
    summand's sensitivity is bounded by the (1 - gamma)^(-d) factor.
    """
    if n < 1:
        raise ValueError("trace order must be >= 1")
    return _trace_rows(sys_, [n], word_budget, tol, threads)[0]


def trace_table(sys_, M, word_budget=DEFAULT_WORD_BUDGET, tol=1e-13,
                threads=1):
    """Traces for orders 1..M as one table.

    A dim-1 system that is not admissible raises enclosing_radius's error,
    and BudgetExceeded is raised when an order needs more than word_budget
    words, both before any word is evaluated.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    rows = _trace_rows(sys_, range(1, M + 1), word_budget, tol, threads)
    return TraceTable(tuple(r.order for r in rows),
                      tuple(r.value for r in rows))


# ---------------------------------------------------------------------------
# determinant coefficients


def determinant_coefficients(traces):
    """Newton's identities: c_0 = 1, c_m = -(1/m) sum_{k<=m} t_k c_{m-k}."""
    orders = traces.orders
    if tuple(orders) != tuple(range(1, len(orders) + 1)):
        raise ValueError("trace table must cover orders 1..M contiguously")
    t = traces.values
    coeffs = [1.0 + 0.0j]
    for m in range(1, len(t) + 1):
        s = sum(t[k - 1] * coeffs[m - k] for k in range(1, m + 1))
        coeffs.append(-s / m)
    return DeterminantSeries(tuple(coeffs))


# ---------------------------------------------------------------------------
# zeros


def _aberth_roots(coeffs):
    """All roots of the polynomial with descending coefficients coeffs.

    Simultaneous (Ehrlich-style third-order) iteration from a Newton-polygon
    inspired start. It stops when the largest step is at most
    1e-15 * (1 + max|x|), or at the rounding floor of p in float64: a
    largest step below 1e-12 * (1 + max|x|) that has not halved for three
    iterations. At the floor it takes two more steps with p(x) evaluated
    exactly and rounded once (p'(x) stays in float64), which moves each
    root to within about an ulp of the true one. Each returned root x
    satisfies the backward-stable residual contract
    |p(x)| <= 1e-12 * sum_m |c_m| |x|^(deg-m).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    coeffs = np.trim_zeros(coeffs, "b")      # trailing zeros: roots at infinity
    if coeffs.size == 0:
        raise RootFindingFailure("zero polynomial has no defined roots")
    deg = coeffs.size - 1
    if deg == 0:
        return np.zeros(0, dtype=complex)
    if deg == 1:
        return np.array([-coeffs[1] / coeffs[0]])

    mags = np.empty(deg)
    prev = 1.0
    for k in range(1, deg + 1):
        num, den = abs(coeffs[k]), abs(coeffs[k - 1])
        prev = num / den if den > 0 and num > 0 else prev * 0.5
        mags[k - 1] = prev
    ks = np.arange(deg)
    phase = np.exp(2j * np.pi * (ks / deg + 0.13))
    x = mags * phase
    # a tiny coefficient can start a root so far past Cauchy's bound
    # 1 + max |c_k / c_0| on every root that p overflows there: such a
    # start is pulled in to the bound
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if not np.isfinite(np.polyval(coeffs, x)).all():
            bound = 1.0 + np.abs(coeffs[1:] / coeffs[0]).max()
            x = np.fmin(mags, bound) * phase

    dcoeffs = coeffs[:-1] * np.arange(deg, 0, -1)
    least, stalled = np.inf, 0
    for _ in range(400):
        step = _aberth_step(x, np.polyval(coeffs, x), np.polyval(dcoeffs, x))
        x = x - step
        size, top = np.max(np.abs(step)), 1.0 + np.max(np.abs(x))
        if size <= 1e-15 * top:
            break
        if size <= least / 2:
            least, stalled = size, 0
        else:
            stalled += 1
        if size < 1e-12 * top and stalled >= 3:
            # float64 p(x) is all rounding here: two last steps with p exact
            for _ in range(2):
                x = x - _aberth_step(x, _exact_polyval(coeffs, x),
                                     np.polyval(dcoeffs, x))
            break

    scale = np.zeros(deg)
    ax = np.abs(x)
    for m, c in enumerate(coeffs):
        scale += abs(c) * ax ** (deg - m)
    bad = np.abs(np.polyval(coeffs, x)) > 1e-12 * np.maximum(scale, 1e-300)
    if bad.any():
        worst = int(np.argmax(np.abs(np.polyval(coeffs, x)) / np.maximum(scale, 1e-300)))
        raise RootFindingFailure(
            f"{int(bad.sum())} of {deg} roots failed the residual contract; "
            f"worst relative residual "
            f"{abs(np.polyval(coeffs, x[worst])) / max(scale[worst], 1e-300):.3g}")
    return x


def _aberth_step(x, p, dp):
    """The Aberth correction of every root estimate x at once, from the
    polynomial's values p and derivatives dp there."""
    dp = np.where(dp == 0, 1e-300, dp)
    w = p / dp
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, np.inf)
    s = (1.0 / diff).sum(axis=1)
    return w / (1.0 - w * s)


def _mantissas(values):
    """Finite complex doubles as (k, [(re, im)]): each value is
    (re + i im) / 2^k with re, im Python ints and k >= 0."""
    ratios = [part.as_integer_ratio() for v in values
              for part in (v.real, v.imag)]
    k = max(den.bit_length() - 1 for _, den in ratios)
    scaled = [num << k - den.bit_length() + 1 for num, den in ratios]
    return k, list(zip(scaled[::2], scaled[1::2]))


def _exact_polyval(coeffs, x):
    """p(x) for descending complex coefficients at each point of x, with one
    rounding: Horner on the integer mantissas of the doubles, scaled by
    powers of two, and each part of the exact value rounded to a double."""
    t, cs = _mantissas(coeffs.tolist())
    deg = len(cs) - 1
    out = np.empty(len(x), dtype=complex)
    for i, v in enumerate(x.tolist()):
        # p(x) = 2^-(t + s deg) sum_m C_m X^(deg - m) 2^(s m), for
        # x = X / 2^s and c_m = C_m / 2^t
        s, ((xr, xi),) = _mantissas([v])
        re, im = cs[0]
        for m in range(1, deg + 1):
            cr, ci = cs[m]
            re, im = (re * xr - im * xi + (cr << s * m),
                      re * xi + im * xr + (ci << s * m))
        scale = 1 << t + s * deg        # int / int rounds once
        out[i] = complex(re / scale, im / scale)
    return out


def _zeros_from_coeffs(coeffs):
    """Eigenvalues from determinant coefficients: the polynomial
    sum_m c_m x^(M-m) has the eigenvalues themselves as roots."""
    return sort_eigenvalues(_aberth_roots(coeffs))


def determinant_zeros(series):
    """Eigenvalues as reciprocal determinant zeros, sorted by modulus.

    reliable_count compares against the next-lower-degree truncation, the
    same refinement idea the matrix route uses across sizes. The comparison
    runs at the effective degree: coefficients that underflowed to exact
    zero carry no refinement information, so the last nonzero coefficient
    decides which two truncations are compared. An effective degree of one
    counts as reliable only below a higher truncation whose extra
    coefficients vanished (the rank-one case); a degree-1 series has no
    lower truncation to compare against and certifies nothing.
    """
    coeffs = np.trim_zeros(np.asarray(series.coefficients, dtype=complex),
                           "b")
    eff_degree = max(coeffs.size - 1, 0)
    full = _zeros_from_coeffs(series.coefficients)
    if eff_degree >= 2:
        drop = _zeros_from_coeffs(tuple(coeffs[:-1]))
        rc = _agreeing_prefix(full, drop, lead_scale=False)
    else:
        rc = eff_degree if series.degree >= 2 else 0
    return EigenvalueSequence(tuple(full), min(rc, len(full)))


# ---------------------------------------------------------------------------
# export


def export_determinant_json(table, series):
    """The trace/coefficient export dict, the core of the CLI's
    determinant-<id>.json."""
    return {
        "orders": [int(n) for n in table.orders],
        "traces_re": [v.real for v in table.values],
        "traces_im": [v.imag for v in table.values],
        "coeffs_re": [c.real for c in series.coefficients],
        "coeffs_im": [c.imag for c in series.coefficients],
    }
