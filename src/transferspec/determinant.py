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

Word sums are evaluated in fixed-size lexicographic chunks with exactly
compensated per-chunk summation, and chunk partials combine in index
order, so results are bit-identical across thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._format import json_g17
from ._parallel import chunk_ranges, map_ordered
from .dynamics import (
    DEFAULT_WORD_BUDGET,
    _word_count,
    batch_fixed_points,
    batch_orbit,
    compose,
    fixed_point,
    letters_block,
    word_weight,
)
from .errors import NotContracting, RootFindingFailure
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


def _trace_dim1(sys_, n, word_budget, tol, threads):
    total = _word_count(sys_, n, word_budget)

    def handle(rng):
        lo, hi = rng
        letters = letters_block(sys_.n_letters, n, lo, hi)
        z = batch_fixed_points(sys_, letters, tol)
        wgt, mult, end = batch_orbit(sys_, letters, z)
        gap = 1.0 - mult
        tiny = np.abs(gap) < 1e-9
        if tiny.any():
            bad = int(np.argmax(tiny))
            raise NotContracting(
                f"word {tuple(letters[bad])} has multiplier within 1e-9 of 1; "
                "the trace summand is singular")
        terms = wgt / gap
        return (math.fsum(terms.real), math.fsum(terms.imag),
                float(np.abs(mult).max()), float(np.abs(end - z).max()))

    parts = map_ordered(handle, chunk_ranges(total), threads)
    re = math.fsum(p[0] for p in parts)
    im = math.fsum(p[1] for p in parts)
    max_mult = max(p[2] for p in parts)
    max_res = max(p[3] for p in parts)
    return complex(re, im), total, max_mult, max_res


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
    silently truncating. The fixed-point tolerance (default 1e-13) is
    tighter than downstream eigenvalue targets because the summand's
    sensitivity is bounded by the (1 - gamma)^(-d) factor.
    """
    if n < 1:
        raise ValueError("trace order must be >= 1")
    return _trace(sys_, n, word_budget, tol, threads, _tail_weight_sup(sys_))


def _trace(sys_, n, word_budget, tol, threads, w_sup):
    if sys_.dim == 1:
        value, words, max_mult, max_res = _trace_dim1(
            sys_, n, word_budget, tol, threads)
    else:
        value, words, max_mult, max_res = _trace_dimN(sys_, n, word_budget, tol)
    bound = _tail_heuristic(sys_, n, max_mult, w_sup)
    return TraceValue(n, value, bound, words, max_mult, max_res)


def trace_table(sys_, M, word_budget=DEFAULT_WORD_BUDGET, tol=1e-13,
                threads=1):
    """Traces for orders 1..M as one table."""
    if M < 1:
        raise ValueError("M must be >= 1")
    w_sup = _tail_weight_sup(sys_)
    rows = [_trace(sys_, n, word_budget, tol, threads, w_sup)
            for n in range(1, M + 1)]
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


def _aberth_roots(coeffs, max_iter=400, rtol=1e-12):
    """All roots of the polynomial with descending coefficients coeffs.

    Simultaneous (Ehrlich-style third-order) iteration from a Newton-polygon
    inspired start. Each returned root x satisfies the backward-stable
    residual contract |p(x)| <= rtol * sum_m |c_m| |x|^(deg-m).
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
    for _ in range(max_iter):
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
    bad = np.abs(np.polyval(coeffs, x)) > rtol * np.maximum(scale, 1e-300)
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
    is its own refinement limit and counts as reliable.
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
        rc = eff_degree
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
