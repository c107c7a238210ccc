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

The n rotations of a word trace one periodic orbit: they share its
multiplier, its weight and so its term, and the fixed point of the word
rotated by k is the k-th point of the orbit. In dim 1 the sum therefore
runs over necklaces: each chunk of the lexicographic word range evaluates
only the least rotation of each word in it, and counts its term once for
each of its period d (the number of distinct rotations) as d * t, split
exactly into two doubles. Each representative's orbit is walked so that
every rotation's fixed point is still checked against the ball. Counting
one rotation's rounding d times cannot grow the relative error of a sum
whose terms share one sign, but where terms cancel it can, so a chunk whose
terms are not all real of one sign is evaluated word by word, as every
chunk is in dim >= 2.

Word fixed points are closed-form for all-Moebius systems and iterated for
user maps. Fixed-size lexicographic chunks give exactly rounded sums and
remainders that combine in index order, bit-identical at any thread count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._parallel import chunk_ranges, map_ordered
from .dynamics import (
    DEFAULT_WORD_BUDGET,
    _fold_words,
    _mark_exits,
    _point_norm,
    _word_count,
    batch_fixed_points,
    batch_orbit,
    word_letters,
)
from .errors import (
    EscapedDomain,
    NotContracting,
    RootFindingFailure,
    TransferOperatorError,
)
from .spectra import EigenvalueSequence, _agreeing_prefix, sort_eigenvalues
from .systems import CountableTruncated, _letter_groups, _moebius, _weigh


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class TraceValue:
    """One operator trace: the lexicographic word sum plus diagnostics."""

    order: int
    value: complex
    words: int
    max_multiplier: float
    max_residual: float


@dataclass(frozen=True)
class TraceTable:
    orders: tuple
    values: tuple
    max_multiplier: float
    system_id: str


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
    """(value, words, max multiplier, max residual) for each order.

    Every order's words are counted against the budget before any work, and
    the chunks of all orders go through one ordered map, so one thread pool
    serves the whole table. Each order's chunk partials combine in index
    order, as they would in a map of that order alone. In dim 1 a chunk
    first evaluates its necklace representatives, and again word by word
    when their terms can cancel (see the module docstring). The multiplier
    and residual are those of the words evaluated. In dim >= 2 the
    multiplier is the spectral radius of the word's Jacobian. A truncated
    countable alphabet is refused first.
    """
    if isinstance(sys_.alphabet, CountableTruncated):
        raise TransferOperatorError(
            "the determinant route needs a finite alphabet, and "
            f"{sys_.system_id} truncates a countable one; use spectrum for "
            "the Gauss family")
    totals = [_word_count(sys_, n, word_budget) for n in orders]
    items = [(n, lo, hi) for n, total in zip(orders, totals)
             for lo, hi in chunk_ranges(total)]
    d = sys_.dim

    def handle(item, necklaces):
        n, lo, hi = item
        words = (_moebius_words(sys_, n, lo, hi, necklaces)
                 if sys_.coefficients is not None
                 else _iterated_words(sys_, n, lo, hi, tol, necklaces))
        if words is None:
            return (0.0, 0.0), (0.0, 0.0), 0.0, 0.0, False
        letters, period, wgt, mult, z, end, exits = words
        if d == 1:
            spectral, denom = np.abs(mult), 1.0 - mult
            refused = ~(spectral < 1.0 - 1e-9)
            why = "multiplier of modulus >= 1 - 1e-9, so z* does not attract"
        else:
            spectral = np.abs(np.linalg.eigvals(mult)).max(axis=1)
            denom = np.linalg.det(np.eye(d) - mult)
            refused = ~(np.abs(denom) >= 1e-12)
            why = "det(I - T') = {:.3g}, which is singular"
        # every rotation of a word shares its multiplier, and the fixed
        # point of its rotation by k is the k-th point of its orbit
        if refused.any():
            r = int(np.argmax(refused))
            raise NotContracting(f"word {tuple(letters[r].tolist())} has "
                                 + why.format(denom[r]))
        if (exits >= 0).any():
            r = int(np.argmax(exits >= 0))
            word = np.roll(letters[r], -exits[r]).tolist()
            raise EscapedDomain(f"word {tuple(word)} has its attracting "
                                "fixed point outside the ball")
        terms = wgt / denom if d == 1 else _quotient(wgt, denom)
        return (_split_sum(_times(period, terms.real)),
                _split_sum(_times(period, terms.imag)),
                float(spectral.max()), float(_point_norm(end - z).max()),
                necklaces and _can_cancel(terms))

    parts = map_ordered(lambda item: handle(item, d == 1), items, threads)
    # a class's rotations may lie in other chunks, so an order whose terms
    # can cancel in any chunk is evaluated word by word in all of them
    cancel = {n for (n, _, _), p in zip(items, parts) if p[4]}
    redo = [item for item in items if item[0] in cancel]
    if redo:
        again = dict(zip(redo, map_ordered(lambda item: handle(item, False),
                                           redo, threads)))
        parts = [again.get(item, p) for item, p in zip(items, parts)]
    rows = []
    for n, total in zip(orders, totals):
        mine = [p for (m, _, _), p in zip(items, parts) if m == n]
        value = complex(math.fsum(x for p in mine for x in p[0]),
                        math.fsum(x for p in mine for x in p[1]))
        rows.append((value, total, max(p[2] for p in mine),
                     max(p[3] for p in mine)))
    return rows


def _can_cancel(terms):
    """Whether the complex terms are not all real of one sign."""
    return not ((terms.imag == 0).all()
                and ((terms.real >= 0).all() or (terms.real <= 0).all()))


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


def _iterated_words(sys_, n, lo, hi, tol, necklaces):
    """Letters, periods, weight, multiplier, fixed point z, T(z) and the
    first orbit point outside the ball (as batch_orbit marks them) of the
    words lo..hi-1 of length n, by fixed-point iteration: the necklace
    representatives with necklaces, else every word, each checked at its
    own fixed point. None when the range holds no word to evaluate."""
    size, ball = sys_.n_letters, sys_.domain
    words, period, _, _ = _fold_words(size, n, lo, hi, necklaces=necklaces)
    if not words.size:
        return None
    letters = word_letters(size, n, words)
    groups = [_letter_groups(col) for col in letters.T]
    z = batch_fixed_points(sys_, letters, tol, groups)
    if necklaces:
        wgt, mult, end, exits = batch_orbit(sys_, letters, z, groups, ball)
    else:
        (wgt, mult, end), exits = (batch_orbit(sys_, letters, z, groups),
                                   _mark_exits(ball, z))
    return letters, period, wgt, mult, z, end, exits


def _moebius_words(sys_, n, lo, hi, necklaces):
    """As _iterated_words, in closed form from the system's coefficients.
    The words are folded over their prefix tree. q = C z + E is the larger
    root of q^2 - tr q + det and the multiplier is det / q^2. Under a weight
    law with one power p a word's weight is its factors' product times the
    multiplier^p; other weights follow z's orbit. With necklaces, n - 1
    Moebius steps walk each orbit for the rotations' fixed points."""
    size, mob, ball = sys_.n_letters, tuple(sys_.coefficients.T), sys_.domain
    factor, power = sys_.law or (np.ones(size), None)
    # a product of letter determinants: AE - BC of a long word cancels
    dets = mob[0] * mob[3] - mob[1] * mob[2]
    words, period, (A, B, C, E), (det, wgt) = _fold_words(
        size, n, lo, hi, mob, (dets, factor), necklaces)
    if not words.size:
        return None
    letters = word_letters(size, n, words)
    tr = A + E
    s = np.sqrt(tr * tr - 4.0 * det)
    q = tr + s
    tr -= s                     # the roots, doubled: keep the larger one
    q = np.where(np.abs(tr) > np.abs(q), tr, q) / 2.0
    mult = np.divide(det, q * q, out=det)
    qa, qe = q - A, np.subtract(q, E, out=q)     # z = B / qa = qe / C, and
    pick = (C == 0) | (np.abs(qa) > np.abs(qe))  # the larger keeps digits
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.divide(qe, C, out=qe)
        np.divide(B, qa, out=z, where=pick)
        end = _moebius((A, B, C, E), z)
        exits, y = _mark_exits(ball, z), z
        for k, col in enumerate(letters.T[:-1] if necklaces else (), 1):
            y = sys_.apply_letters(col, y)
            _mark_exits(ball, y, exits, k)
    if power is not None and (power == power[0]).all():
        wgt = _weigh(wgt, power[0], mult, wgt)
    else:
        wgt = batch_orbit(sys_, letters, z)[0]
    return letters, period, wgt, mult, z, end, exits


def _times(k, x):
    """The products k * x, for integers 1 <= k < 2^26, as one array of
    doubles whose sum is exactly their sum: Dekker's TwoProduct, with x
    split by Veltkamp into two 26-bit halves that k multiplies exactly."""
    p = k * x
    s = x * 134217729.0         # 2^27 + 1
    hi = s - (s - x)
    return np.concatenate((p, (k * hi - p) + k * (x - hi)))


def _split_sum(values):
    """The exactly rounded sum of values and its rounded remainder."""
    head = math.fsum(memoryview(values)) if values.any() else 0.0
    rest = itertools.chain(memoryview(values), (-head,))
    return head, math.fsum(rest) if head else 0.0


def trace(sys_, n, word_budget=DEFAULT_WORD_BUDGET, tol=1e-13, threads=1):
    """tau(L^n): the length-n word sum of weight / det(I - multiplier).

    Raises BudgetExceeded when |alphabet|^n > word_budget rather than
    silently truncating. The tolerance of iterated fixed points (default
    1e-13) is tighter than downstream eigenvalue targets because the
    summand's sensitivity is bounded by the (1 - gamma)^(-d) factor.
    """
    if n < 1:
        raise ValueError("trace order must be >= 1")
    return _traces(sys_, [n], word_budget, tol, threads)[0]


def _traces(sys_, orders, word_budget, tol, threads):
    rows = _trace_rows(sys_, orders, word_budget, tol, threads)
    return [TraceValue(n, *row) for n, row in zip(orders, rows)]


def trace_table(sys_, M, word_budget=DEFAULT_WORD_BUDGET, tol=1e-13,
                threads=1):
    """Traces for orders 1..M as one table.

    BudgetExceeded is raised before any work when an order needs more than
    word_budget words.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    rows = _traces(sys_, range(1, M + 1), word_budget, tol, threads)
    return TraceTable(
        orders=tuple(r.order for r in rows),
        values=tuple(r.value for r in rows),
        max_multiplier=max(r.max_multiplier for r in rows),
        system_id=sys_.system_id,
    )


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
    inspired start. Each returned root x satisfies the backward-stable
    residual contract |p(x)| <= 1e-12 * sum_m |c_m| |x|^(deg-m).
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
    x = mags * np.exp(2j * np.pi * (ks / deg + 0.13))

    dcoeffs = coeffs[:-1] * np.arange(deg, 0, -1)
    for _ in range(400):
        p = np.polyval(coeffs, x)
        dp = np.polyval(dcoeffs, x)
        dp = np.where(dp == 0, 1e-300, dp)
        w = p / dp
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        s = (1.0 / diff).sum(axis=1)
        step = w / (1.0 - w * s)
        x = x - step
        if np.max(np.abs(step)) <= 1e-15 * (1.0 + np.max(np.abs(x))):
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


def _zeros_from_coeffs(coeffs):
    """Eigenvalues from determinant coefficients: the polynomial
    sum_m c_m x^(M-m) has the eigenvalues themselves as roots."""
    return sort_eigenvalues(_aberth_roots(coeffs))


def determinant_zeros(series, count=None):
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
    if count is not None and count > series.degree:
        raise ValueError(
            f"requested {count} eigenvalues from a degree-{series.degree} "
            "determinant truncation")
    coeffs = np.trim_zeros(np.asarray(series.coefficients, dtype=complex),
                           "b")
    eff_degree = max(coeffs.size - 1, 0)
    full = _zeros_from_coeffs(series.coefficients)
    if eff_degree >= 2:
        drop = _zeros_from_coeffs(tuple(coeffs[:-1]))
        rc = _agreeing_prefix(full, drop, lead_scale=False)
    else:
        rc = eff_degree if series.degree >= 2 else 0
    values = tuple(full if count is None else full[:count])
    return EigenvalueSequence(values, min(rc, len(values)), "determinant")


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
