"""Batched words, fixed points, contraction certification.

Words are rows of 1-based letters from word_letters; the word
(i_1, ..., i_n) denotes the composition T_{i_n} o ... o T_{i_1} (the first
letter acts first). Word enumeration is lexicographic throughout, and
batched evaluations reduce in index order, so every result is independent
of chunking and thread count.

Fixed points come from plain forward iteration (the trace route solves
all-Moebius words in closed form instead): a branch system whose images
lie strictly inside the ball contracts some adapted metric, so the orbit
of the center converges geometrically. The stopping rule uses the
a-posteriori bound step * q/(1-q) with q estimated from successive step
ratios and capped at 0.999; estimates are sampled, not rigorous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import chunk_ranges, map_ordered
from .errors import (
    BudgetExceeded,
    DimensionUnsupported,
    EscapedDomain,
    NoConvergence,
    NotContracting,
    NotEnclosed,
)
from .systems import _derivative_sups, _letter_groups, validate_system

_Q_CAP = 0.999
_ESCAPE_SLACK = 1e-9
_MAX_SWEEPS = 5000
DEFAULT_WORD_BUDGET = 2_000_000


def _fold_moebius(steps, start=(1.0, 0.0, 0.0, 1.0)):
    """Coefficients (A, B, C, E) of the matrix product M_n ... M_1 M_0, where
    steps yields the coefficients (a, b, c, e) of M_1, ..., M_n in letter
    order and start holds those of M_0. Entries are scalars, or equal-shape
    arrays holding one word per element."""
    A, B, C, E = start
    for a, b, c, e in steps:
        A, B, C, E = a * A + b * C, a * B + b * E, c * A + e * C, c * B + e * E
    return A, B, C, E


def _fold_words(size, n, lo, hi, mob=None, factors=(), necklaces=False):
    """Walk the prefix tree of the length-n words lo..hi-1 over size letters.

    Returns the lexicographic indices of the words kept, their periods, the
    folded coefficients (A, B, C, E) of the Moebius letters mob (None
    without mob), and for each per-letter array in factors its product
    along each word. Level k of the tree holds the range's length-k
    prefixes, each its parent times one letter, so every word gets the bits
    of a letter-by-letter fold in letter order.

    Without necklaces every word is kept, with period 1. With necklaces
    only the least rotation of each word is kept, and its period is its
    number of distinct rotations. The tree is pruned to prenecklaces
    by the FKM rule: letter k+1 is at least letter k+1-p, where p is the
    length of the prefix's longest Lyndon prefix; an equal letter keeps p,
    a larger one makes it k+1. A prenecklace of length n is a necklace, of
    period p, when p divides n.
    """
    word = np.zeros(1, dtype=np.int64)
    period = np.ones(1, dtype=np.int64)
    fold = None if mob is None else tuple(
        np.array([x]) for x in (1.0, 0.0, 0.0, 1.0))
    prods = [np.ones(1)] * len(factors)
    letter = np.arange(size)
    for k in range(n):          # (prefixes, letters) -> prefixes
        span = size ** (n - 1 - k)
        head, tail = lo // span, (hi - 1) // span + 1
        if necklaces:
            child = word[:, None] * size + letter
            ref = (word // size ** (period - 1) % size if k
                   else np.full(1, -1))[:, None]
            keep = ((child >= head) & (child < tail)
                    & (letter >= ref)).reshape(-1)
            period = np.where(letter > ref, k + 1,
                              period[:, None]).reshape(-1)[keep]
            word = child.reshape(-1)[keep]
        else:                   # the range's prefixes are consecutive
            keep = slice(head - word[0] * size, tail - word[0] * size)
            word = np.arange(head, tail)
        if fold is not None:
            fold = tuple(x.reshape(-1)[keep] for x in _fold_moebius(
                [mob], tuple(x[:, None] for x in fold)))
        prods = [(p[:, None] * f).reshape(-1)[keep]
                 for p, f in zip(prods, factors)]
    if not necklaces:
        return word, np.ones(len(word), dtype=np.int64), fold, prods
    whole = n % period == 0
    if fold is not None:
        fold = tuple(x[whole] for x in fold)
    return (word[whole], period[whole], fold,
            [p[whole] for p in prods])


# ---------------------------------------------------------------------------
# fixed points


@dataclass(frozen=True)
class FixedPointResult:
    point: object
    residual: float
    iterations: int
    contraction_estimate: float


def fixed_point(map_, domain, tol=1e-13, max_iter=200_000):
    """Iterate from the domain center to the attracting fixed point.

    Stops when a step is below tol * (1 - q); on success the reported
    residual |T(z*) - z*| is below tol. Contractions as weak as q = 0.999
    converge within the default iteration allowance.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = domain.dim
    if d == 1:
        z = complex(domain.center)
        norm = abs
    else:
        z = np.asarray(domain.center, dtype=complex)
        norm = np.linalg.norm
    q = 0.0
    prev_step = None
    for it in range(1, max_iter + 1):
        z1 = map_(z)
        if d > 1:
            z1 = np.asarray(z1, dtype=complex)
        if not domain.contains(z1, slack=_ESCAPE_SLACK * domain.radius):
            raise EscapedDomain(
                f"iterate {it} left the ball (|z - center| = "
                f"{norm(np.asarray(z1) - np.asarray(domain.center)):.6g} > "
                f"radius {domain.radius:.6g})")
        step = float(norm(z1 - z))
        if prev_step is not None and prev_step > 0.0:
            q = min(_Q_CAP, max(q * 0.5, step / prev_step))
        prev_step = step
        z = z1
        if step <= tol * (1.0 - q):
            z2 = map_(z)
            residual = float(norm(np.asarray(z2) - np.asarray(z)) if d > 1
                             else abs(z2 - z))
            estimate = q
            if d == 1 and hasattr(map_, "derivative"):
                deriv = abs(complex(map_.derivative(z)))
                estimate = deriv
                if deriv >= 1.0:
                    raise NoConvergence(
                        f"|T'| = {deriv:.6g} >= 1 at the limit point; the map "
                        "is not a strict contraction (fixed point not unique)")
            return FixedPointResult(z, residual, it, estimate)
    raise NoConvergence(f"no convergence within {max_iter} iterations "
                        f"(last step {step:.3g}, q estimate {q:.3g})")


# ---------------------------------------------------------------------------
# batched word evaluation
#
# A batch of count points is a (count,) array in dim 1 and a (dim, count)
# array, one point per column, in dim >= 2.


def word_letters(n_letters, length, idx):
    """The rows idx (int64) of the lexicographic enumeration of length-n
    words, in the smallest unsigned integer type that holds the letters."""
    out = np.empty((len(idx), length), dtype=np.min_scalar_type(n_letters))
    for k in range(length):
        p = n_letters ** (length - 1 - k)
        out[:, k] = (idx // p) % n_letters + 1
    return out


def _point_norm(x):
    """|x| of each point of a batch."""
    return np.abs(x) if x.ndim == 1 else np.linalg.norm(x, axis=0)


def _batch_center(ball):
    """The ball's center, shaped to broadcast against a batch of points."""
    return np.asarray(ball.center, dtype=complex).reshape(
        (-1, 1) if ball.dim > 1 else ())


def batch_fixed_points(sys_, letters, tol=1e-13, groups=None):
    """Fixed points of many word compositions at once.

    letters has shape (count, n). Every word is iterated from the ball
    center with the same stopping rule as fixed_point, using the worst
    step/ratio across the batch so all points meet the tolerance. groups
    holds each column's letter groups; by default they are built here, once
    for all sweeps.
    """
    count, n = letters.shape
    ball = sys_.domain
    center = _batch_center(ball)
    if groups is None:
        groups = [_letter_groups(col) for col in letters.T]
    z = np.full(center.shape[:1] + (count,), center)
    q = 0.0
    prev_step = None
    for _ in range(_MAX_SWEEPS):
        z1 = z
        for col, grp in zip(letters.T, groups):
            z1 = sys_.apply_letters(col, z1, grp)
        off = _outside(ball, z1)
        if off.any():
            bad = int(np.argmax(off))
            raise EscapedDomain(
                f"word {tuple(letters[bad].tolist())} maps the center orbit "
                "outside the ball")
        step = float(np.max(_point_norm(z1 - z)))
        if prev_step is not None and prev_step > 0.0:
            q = min(_Q_CAP, max(q * 0.5, step / prev_step))
        prev_step = step
        z = z1
        if step <= tol * (1.0 - q):
            return z
    raise NoConvergence(
        f"word batch did not converge in {_MAX_SWEEPS} sweeps "
        f"(last step {step:.3g})")


def batch_orbit(sys_, letters, z, groups=None, ball=None):
    """Weight product, derivative product, and end point along each word's
    orbit started at the batch z, one point per row of letters (count, n).
    In dim >= 2 the derivative product is a (count, dim, dim) stack of
    Jacobians, later letters on the left. groups is as for
    batch_fixed_points; each column is grouped when it is reached if it is
    not given. In-place products keep numpy from swapping operands on large
    batches.

    With a ball, a fourth array gives for each word the first k < n whose
    orbit point z_k (z_0 = z, z_k the image of z_(k-1) under letter k) lies
    outside the ball, or -1. When z is the word's fixed point, z_k is the
    fixed point of the word rotated left by k.
    """
    count, n = letters.shape
    d = sys_.dim
    wgt = np.ones(count, dtype=complex)
    mult = (np.ones(count, dtype=complex) if d == 1
            else np.tile(np.eye(d, dtype=complex), (count, 1, 1)))
    y = np.array(z, dtype=complex, copy=True)
    exits = None if ball is None else _mark_exits(ball, y)
    for k, (col, grp) in enumerate(zip(letters.T, groups or [None] * n)):
        deriv = sys_.derivative_letters(col, y, grp)
        np.multiply(wgt, sys_.weight_letters(col, y, deriv, grp), out=wgt)
        if d == 1:
            np.multiply(mult, deriv, out=mult)
        else:
            mult = np.matmul(deriv, mult)
        y = sys_.apply_letters(col, y, grp)
        if exits is not None and k < n - 1:
            _mark_exits(ball, y, exits, k + 1)
    return (wgt, mult, y) if ball is None else (wgt, mult, y, exits)


def _outside(ball, y):
    """Whether each point of the batch y is not in the ball, up to the
    escape slack; NaN is not in it."""
    return ~(_point_norm(y - _batch_center(ball))
             <= ball.radius * (1 + _ESCAPE_SLACK))


def _mark_exits(ball, y, exits=None, k=0):
    """Mark with k each point of the batch y _outside the ball that has no
    mark yet; the marks start at -1 when exits is not given."""
    if exits is None:
        exits = np.full(y.shape[-1], -1)
    exits[_outside(ball, y) & (exits < 0)] = k
    return exits


# ---------------------------------------------------------------------------
# contraction certification


@dataclass(frozen=True)
class ContractionReport:
    value: float
    word: tuple
    point: complex
    grid: int
    words: int
    note: str = "sampled boundary sup, non-rigorous"


def _word_count(sys_, n, word_budget):
    total = sys_.n_letters ** n
    if total > word_budget:
        raise BudgetExceeded(
            f"{sys_.n_letters}^{n} = {total} words exceed the budget "
            f"{word_budget}; raise word_budget or lower the order")
    return total


def contraction_details(sys_, n, grid=256, word_budget=DEFAULT_WORD_BUDGET,
                        threads=1):
    """Sup over all length-n words of |T_word'| on the boundary circle, with
    the maximizing word and a boundary point where the sup is attained.

    When every branch of a dim-1 system is a Moebius map the sup is exact:
    the folded word (Az+B)/(Cz+E) has |T'| = |AE-BC| / |Cz+E|^2, which is
    largest at the circle point nearest the pole -E/C, where |Cz+E| equals
    | |Cc+E| - |C| rho |. grid is not used there and the report's grid is 0;
    a word whose pole lies on the circle raises NotContracting. Any other
    dim-1 system is sampled on grid equispaced boundary points, which is not
    rigorous. Either way BudgetExceeded is raised before any work beyond
    word_budget words, and ties go to the first word in lexicographic order
    at any thread count.
    """
    if sys_.dim != 1:
        raise DimensionUnsupported("contraction sampling needs dim 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    total = _word_count(sys_, n, word_budget)
    if sys_._mob is not None:
        return _exact_contraction(sys_, n, total, threads)
    return _sampled_contraction(sys_, n, grid, total, threads)


def _first_max(results, start):
    """Reduce per-chunk (value, ...) maxima in index order; the strict >
    keeps the first maximum, so the winner does not depend on chunking."""
    best = start
    for res in results:
        if res[0] > best[0]:
            best = res
    return best


def _exact_contraction(sys_, n, total, threads):
    c, rho = sys_.domain.center, sys_.domain.radius
    # |det| of a word is the product of its letters' |det|: AE - BC of the
    # folded word cancels on long words
    dets = np.abs(sys_._mob[0] * sys_._mob[3] - sys_._mob[1] * sys_._mob[2])

    def handle(rng):
        lo, hi = rng
        _, _, (_, _, C, E), (det,) = _fold_words(
            sys_.n_letters, n, lo, hi, sys_._mob, (dets,))
        vals, gap = _derivative_sups(det, C, E, sys_.domain)
        on_circle = gap == 0.0
        if on_circle.any():
            r = int(np.argmax(on_circle))
            return math.inf, lo + r, C[r], E[r]
        r = int(np.argmax(vals))
        return float(vals[r]), lo + r, C[r], E[r]

    value, idx, C, E = _first_max(
        map_ordered(handle, chunk_ranges(total), threads), (-1.0, 0, 0.0, 1.0))
    word = tuple(word_letters(sys_.n_letters, n, np.array([idx]))[0].tolist())
    if value == math.inf:
        raise NotContracting(
            f"word {word} has its pole {complex(-E / C):.6g} on the boundary "
            "circle, so sup |T_word'| there is infinite")
    point = c + rho
    if C != 0:
        off = -E / C - c
        if off != 0:
            point = c + rho * off / abs(off)
    return ContractionReport(value, word, complex(point), 0, total,
                             note="exact sup (Moebius closed form)")


def _sampled_contraction(sys_, n, grid, total, threads):
    zs = sys_.domain.boundary_points(int(grid))
    g = zs.size
    # keep letter-expanded arrays around 1M entries per chunk
    chunk = max(64, (1 << 20) // g)

    def handle(rng):
        lo, hi = rng
        letters = word_letters(sys_.n_letters, n, np.arange(lo, hi))
        rows = hi - lo
        flat_z = np.tile(zs, rows)
        acc = np.ones(rows * g, dtype=complex)
        for k in range(n):
            col = np.repeat(letters[:, k], g)
            acc = acc * sys_.derivative_letters(col, flat_z)
            flat_z = sys_.apply_letters(col, flat_z)
        mags = np.abs(acc).reshape(rows, g)
        flat_idx = int(np.argmax(mags))
        r, s = divmod(flat_idx, g)
        return float(mags[r, s]), lo + r, s

    best_val, best_word_idx, best_pt_idx = _first_max(
        map_ordered(handle, chunk_ranges(total, chunk), threads), (-1.0, 0, 0))
    word = word_letters(sys_.n_letters, n, np.array([best_word_idx]))
    return ContractionReport(best_val, tuple(word[0].tolist()),
                             complex(zs[best_pt_idx]), int(grid), total)


# ---------------------------------------------------------------------------
# enclosing radius


def enclosing_radius(sys_, grid=1024):
    """Smallest ratio r with all branch images inside the concentric ball
    of radius r * radius, read off validate_system: in closed form for
    Moebius systems, else sampled on grid boundary points. Truncated-tail
    branches enter through the alphabet's image_tail_sup."""
    return _enclosing_ratio(validate_system(sys_, grid=grid),
                            sys_.domain.radius)


def _enclosing_ratio(report, radius):
    """The enclosing ratio r read off a validation report's image sups."""
    reach = max(report.image_sup + report.image_safety,
                report.image_tail_sup)
    r = reach / radius
    if r >= 1.0:
        raise NotEnclosed(
            f"branch images reach {reach:.6g} >= radius {radius:.6g} "
            f"(r = {r:.6g})")
    return r
