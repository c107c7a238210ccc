"""Periodic-orbit traces and the dynamical determinant (any dimension).

The n-th trace of the transfer operator is the absolutely convergent sum
over all length-n words of w_word(z*) / det(I - T_word'(z*)), where z* is
the word composition's unique attracting fixed point. Newton's identities
turn the traces t_1..t_M into the Taylor coefficients c_0..c_M of the
determinant Delta(z) = exp(-sum_n t_n z^n / n); the reciprocals of the
zeros of Delta are the operator's eigenvalues, giving a route to the
spectrum that never builds a matrix and works in any ambient dimension.

Truncated countable alphabets contribute only their enumerable letters to
the word sum; the omitted contribution is estimated per order by the
non-rigorous heuristic n * W^(n-1) * (weight tail sup) * (1-gamma)^(-d)
and reported separately, never folded into the computed value.

Word fixed points are closed-form for all-Moebius systems and iterated for
user maps. Fixed-size lexicographic chunks give exactly rounded sums and
remainders that combine in index order, bit-identical at any thread count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._format import json_g17
from ._parallel import chunk_ranges, map_ordered
from .dynamics import (
    _ESCAPE_SLACK,
    DEFAULT_WORD_BUDGET,
    _fold_words,
    _word_at,
    _word_count,
    batch_fixed_points,
    batch_orbit,
    compose,
    fixed_point,
    letters_block,
    word_weight,
)
from .errors import EscapedDomain, NotContracting, RootFindingFailure
from .spectra import EigenvalueSequence, _agreeing_prefix, sort_eigenvalues
from .systems import CountableTruncated, validate_system

TRUST_CAP = 1e12
_TRUST_SERIES_TOL = 1e-6


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class TraceValue:
    """One operator trace: the lexicographic word sum plus diagnostics."""

    order: int
    value: complex
    truncation_bound: float
    words: int
    max_multiplier: float
    max_residual: float


@dataclass(frozen=True)
class TraceTable:
    orders: tuple
    values: tuple
    truncation_bounds: tuple
    max_multiplier: float
    system_id: str


@dataclass(frozen=True)
class DeterminantSeries:
    """Taylor coefficients c_0..c_M of the determinant, c_0 = 1, plus the
    radius inside which the truncated-tail error is estimated small."""

    coefficients: tuple
    trust_radius: float

    @property
    def degree(self):
        return len(self.coefficients) - 1


# ---------------------------------------------------------------------------
# traces


def _tail_weight_sup(sys_):
    """The weight sup W that the tail heuristic needs, or None when the
    alphabet drops no weight."""
    alpha = sys_.alphabet
    if (isinstance(alpha, CountableTruncated)
            and float(alpha.weight_tail_bound) != 0.0):
        return validate_system(sys_).W
    return None


def _tail_heuristic(sys_, n, max_multiplier, w_sup):
    """Per-order estimate of the omitted tail-word contribution."""
    if w_sup is None:
        return 0.0
    tau = float(sys_.alphabet.weight_tail_bound)
    gamma = min(float(max_multiplier), 0.99)
    return n * tau * w_sup ** (n - 1) * (1.0 - gamma) ** (-sys_.dim)


def _traces_dim1(sys_, orders, word_budget, tol, threads):
    """(value, words, max multiplier, max residual) for each order.

    Every order's words are counted against the budget before any work, and
    the chunks of all orders go through one ordered map, so one thread pool
    serves the whole table. Each order's chunk partials combine in index
    order, as they would in a map of that order alone.
    """
    totals = [_word_count(sys_, n, word_budget) for n in orders]
    items = [(n, lo, hi) for n, total in zip(orders, totals)
             for lo, hi in chunk_ranges(total)]

    def handle(item):
        n, lo, hi = item
        if sys_._mob is not None:
            wgt, mult, z, end = _moebius_words(sys_, n, lo, hi)
        else:
            letters = letters_block(sys_.n_letters, n, lo, hi)
            z = batch_fixed_points(sys_, letters, tol)
            wgt, mult, end = batch_orbit(sys_, letters, z)
        ball = sys_.domain
        for bad, err, what in (
                (~(np.abs(mult) < 1.0 - 1e-9), NotContracting, "multiplier "
                 "of modulus >= 1 - 1e-9, so z* does not attract"),
                (~(np.abs(z - ball.center) <= ball.radius * (1 + _ESCAPE_SLACK)),
                 EscapedDomain, "its attracting fixed point outside the ball")):
            if bad.any():
                word = _word_at(sys_, n, lo + int(np.argmax(bad)))
                raise err(f"word {word} has {what}")
        terms = wgt / (1.0 - mult)
        return (_split_sum(terms.real), _split_sum(terms.imag),
                float(np.abs(mult).max()), float(np.abs(end - z).max()))

    parts = map_ordered(handle, items, threads)
    rows = []
    for n, total in zip(orders, totals):
        mine = [p for (m, _, _), p in zip(items, parts) if m == n]
        value = complex(math.fsum(x for p in mine for x in p[0]),
                        math.fsum(x for p in mine for x in p[1]))
        rows.append((value, total, max(p[2] for p in mine),
                     max(p[3] for p in mine)))
    return rows


def _moebius_words(sys_, n, lo, hi):
    """Weight, multiplier, attracting fixed point z and T(z) of the words
    lo..hi-1 of length n of an all-Moebius system, folded over their
    prefix tree. q = C z + E is the larger root of q^2 - tr q + det, the
    multiplier is det / q^2, a +-T' weight is (+-1)^k times it (k counts -T'
    letters), constant weights multiply, other weights follow z's orbit."""
    size, mob = sys_.n_letters, sys_._mob
    factor, deriv = sys_._wfactors or (np.ones(size), None)
    # a product of letter determinants: AE - BC of a long word cancels
    dets = mob[0] * mob[3] - mob[1] * mob[2]
    (A, B, C, E), (det, wgt) = _fold_words(mob, n, lo, hi, dets, factor)
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
        end = (A * z + B) / (C * z + E)
    if deriv is not None and deriv.all():
        wgt = wgt * mult
    elif deriv is None or deriv.any():
        wgt = batch_orbit(sys_, letters_block(size, n, lo, hi), z)[0]
    return wgt, mult, z, end


def _split_sum(values):
    """The exactly rounded sum of values and its rounded remainder."""
    head = math.fsum(memoryview(values)) if values.any() else 0.0
    rest = itertools.chain(memoryview(values), (-head,))
    return head, math.fsum(rest) if head else 0.0


def _trace_dimN(sys_, n, word_budget, tol):
    total = _word_count(sys_, n, word_budget)
    d = sys_.dim
    eye = np.eye(d, dtype=complex)
    res = []
    ims = []
    max_mult = 0.0
    max_res = 0.0
    for lo, hi in chunk_ranges(total):
        for row in letters_block(sys_.n_letters, n, lo, hi):
            word = tuple(int(l) for l in row)
            comp = compose(sys_, word)
            fp = fixed_point(comp, sys_.domain, tol)
            jac = np.asarray(comp.derivative(fp.point), dtype=complex)
            spectralmax = float(np.abs(np.linalg.eigvals(jac)).max())
            max_mult = max(max_mult, spectralmax)
            max_res = max(max_res, fp.residual)
            det = complex(np.linalg.det(eye - jac))
            if abs(det) < 1e-12:
                raise NotContracting(
                    f"word {word}: det(I - T') = {det:.3g} is singular")
            term = complex(word_weight(sys_, word)(fp.point)) / det
            res.append(term.real)
            ims.append(term.imag)
    return complex(math.fsum(res), math.fsum(ims)), total, max_mult, max_res


def trace(sys_, n, word_budget=DEFAULT_WORD_BUDGET, tol=1e-13, threads=1):
    """tau(L^n): the length-n word sum of weight / det(I - multiplier).

    Raises BudgetExceeded when |alphabet|^n > word_budget rather than
    silently truncating. The tolerance of iterated fixed points (default
    1e-13) is tighter than downstream eigenvalue targets because the
    summand's sensitivity is bounded by the (1 - gamma)^(-d) factor.
    """
    if n < 1:
        raise ValueError("trace order must be >= 1")
    return _traces(sys_, [n], word_budget, tol, threads,
                   _tail_weight_sup(sys_))[0]


def _traces(sys_, orders, word_budget, tol, threads, w_sup):
    if sys_.dim == 1:
        rows = _traces_dim1(sys_, orders, word_budget, tol, threads)
    else:
        rows = [_trace_dimN(sys_, n, word_budget, tol) for n in orders]
    return [TraceValue(n, value, _tail_heuristic(sys_, n, max_mult, w_sup),
                       words, max_mult, max_res)
            for n, (value, words, max_mult, max_res) in zip(orders, rows)]


def trace_table(sys_, M, word_budget=DEFAULT_WORD_BUDGET, tol=1e-13,
                threads=1):
    """Traces for orders 1..M as one table.

    On dim-1 systems BudgetExceeded is raised before any work when an
    order needs more than word_budget words.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    rows = _traces(sys_, range(1, M + 1), word_budget, tol, threads,
                   _tail_weight_sup(sys_))
    return TraceTable(
        orders=tuple(r.order for r in rows),
        values=tuple(r.value for r in rows),
        truncation_bounds=tuple(r.truncation_bound for r in rows),
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
    return DeterminantSeries(tuple(coeffs),
                             _trust_radius(traces.truncation_bounds))


def _trust_radius(bounds):
    """Largest R with sum_n bound_n R^n / n below 1e-6, capped at 1e12.

    Propagates the per-order tail estimates through the exponential series
    defining the determinant; heuristic, like the bounds themselves.
    """
    bounds = [float(b) for b in bounds]
    if all(b == 0.0 for b in bounds):
        return TRUST_CAP

    def series(r):
        return math.fsum(b * r ** n / n
                         for n, b in enumerate(bounds, start=1))

    if series(TRUST_CAP) <= _TRUST_SERIES_TOL:
        return TRUST_CAP
    lo, hi = -12.0, math.log10(TRUST_CAP)  # log10 bracket
    if series(10.0 ** lo) > _TRUST_SERIES_TOL:
        return 10.0 ** lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if series(10.0 ** mid) <= _TRUST_SERIES_TOL:
            lo = mid
        else:
            hi = mid
    return 10.0 ** lo


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


def _zeros_from_coeffs(coeffs, trust_radius):
    """Eigenvalues from determinant coefficients: the polynomial
    sum_m c_m x^(M-m) has the eigenvalues themselves as roots."""
    roots = _aberth_roots(coeffs)
    if roots.size == 0:
        return np.zeros(0, dtype=complex)
    keep = np.abs(roots) > 1.0 / trust_radius
    return sort_eigenvalues(roots[keep])


def determinant_zeros(series, count=None):
    """Eigenvalues as reciprocal determinant zeros, sorted by modulus.

    Roots of the degree-M truncation with modulus below 1/trust_radius are
    discretization artifacts of the tail estimate and are dropped.
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
    full = _zeros_from_coeffs(series.coefficients, series.trust_radius)
    if eff_degree >= 2:
        drop = _zeros_from_coeffs(tuple(coeffs[:-1]), series.trust_radius)
        rc = _agreeing_prefix(full, drop, lead_scale=False)
    else:
        rc = eff_degree if series.degree >= 2 else 0
    values = tuple(full if count is None else full[:count])
    return EigenvalueSequence(values, min(rc, len(values)), "determinant")


# ---------------------------------------------------------------------------
# export


def export_determinant_json(table, series, path=None):
    """The trace/coefficient export dict; optionally written as JSON."""
    out = {
        "orders": [int(n) for n in table.orders],
        "traces_re": [v.real for v in table.values],
        "traces_im": [v.imag for v in table.values],
        "coeffs_re": [c.real for c in series.coefficients],
        "coeffs_im": [c.imag for c in series.coefficients],
        "trust_radius": float(series.trust_radius),
    }
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(json_g17(out) + "\n")
    return out
