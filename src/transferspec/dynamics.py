"""Batched words, fixed points, contraction certification.

Words are rows of 1-based letters from word_letters; the word
(i_1, ..., i_n) denotes the composition T_{i_n} o ... o T_{i_1} (the first
letter acts first). Word enumeration is lexicographic throughout, and
results reduce in index order, so none depends on the blocks of a walk,
the ranges of a map or the thread count.

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
    InadmissibleDomain,
    NoConvergence,
    NotContracting,
    NotEnclosed,
)
from .systems import _derivative_sups, _letter_groups, validate_system

_Q_CAP = 0.999
_ESCAPE_SLACK = 1e-9
_MAX_SWEEPS = 5000
DEFAULT_WORD_BUDGET = 2_000_000
_WORD_BLOCK = 1 << 14     # words per level slice of a walk over an order


def _fold_moebius(steps, start=(1.0, 0.0, 0.0, 1.0)):
    """Coefficients (A, B, C, E) of the matrix product M_n ... M_1 M_0, where
    steps yields the coefficients (a, b, c, e) of M_1, ..., M_n in letter
    order and start holds those of M_0. Entries are scalars, or equal-shape
    arrays holding one word per element."""
    A, B, C, E = start
    for a, b, c, e in steps:
        A, B, C, E = a * A + b * C, a * B + b * E, c * A + e * C, c * B + e * E
    return A, B, C, E


def _fold_blocks(size, n, lo, hi, mob, factors, necklaces, block):
    """Yield the length-n words lo..hi-1 over size letters in blocks, by a
    depth-first walk of their prefix tree: each block holds the
    lexicographic indices of the words kept, their periods, the folded
    coefficients (A, B, C, E) of the Moebius letters mob (None without
    mob), and for each per-letter array in factors its product along each
    word. Level k of the tree holds the range's length-k prefixes, each its
    parent times one letter, so every word gets the bits of a
    letter-by-letter fold in letter order, whatever the range and blocks.
    Every level takes its parents block // size at a time, so it holds at
    most max(block, size) words and one slice of it is alive; with block
    size^n all words come as one block. A block may be empty.

    Without necklaces every word is kept, with period 1, and each level
    folds all children of its prefixes and clips them to the range. With
    necklaces only the least rotation of each word is kept, and its period
    is its number of distinct rotations. The tree is pruned to
    prenecklaces by the FKM rule: letter k+1 is at least letter k+1-p,
    where p is the length of the prefix's longest Lyndon prefix; an equal
    letter keeps p, a larger one makes it k+1. A prenecklace of length n is
    a necklace, of period p, when p divides n, so the last level keeps
    necklaces only. Each level folds only the children it keeps, from
    their parents' and letters' values gathered in the operand order of
    _fold_moebius.
    """

    # a factor that is one number on every letter has one product at each
    # level, taken as the words' would be, spread over the words at the end
    constant = [_one_value(f) for f in factors]

    def level(k, word, period, fold, prods):
        """The kept length-(k+1) prefixes of the length-k prefixes word."""
        span = size ** (n - 1 - k)
        head, tail = lo // span, (hi - 1) // span + 1
        if necklaces:
            word, period, parent, pick = _kept_children(size, n, k, word,
                                                        period, head, tail)
            if fold is not None:
                fold = _fold_children(mob, fold, parent, pick)
            return word, period, fold, [
                np.multiply(p, f[:1]) if one
                else np.multiply(p[parent], f[pick])
                for p, f, one in zip(prods, factors, constant)]
        # the parents' children are consecutive: clip them to the range
        base = word[0] * size
        first, last = max(head, base), min(tail, base + len(word) * size)
        keep = slice(first - base, last - base)
        if fold is not None:
            fold = tuple(x.reshape(-1)[keep] for x in _fold_moebius(
                [mob], tuple(x[:, None] for x in fold)))
        return (np.arange(first, last), np.ones(last - first, dtype=np.int64),
                fold, [np.multiply(p, f[:1]) if one
                       else (p[:, None] * f).reshape(-1)[keep]
                       for p, f, one in zip(prods, factors, constant)])

    def cut(s, step, word, period, fold, prods):
        part = slice(s, s + step)
        return (word[part], period[part],
                None if fold is None else tuple(x[part] for x in fold),
                [p if one else p[part] for p, one in zip(prods, constant)])

    root = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64),
            None if mob is None else tuple(np.array([x])
                                           for x in (1.0, 0.0, 0.0, 1.0)),
            [np.ones(1)] * len(factors))
    todo = [(0, root)]      # slices of parents, the next one last
    while todo:
        k, parents = todo.pop()
        word, period, fold, prods = level(k, *parents)
        if k == n - 1:
            yield word, period, fold, [np.repeat(p, len(word)) if one else p
                                       for p, one in zip(prods, constant)]
            continue
        step = max(block // size, 1)
        todo += [(k + 1, cut(s, step, word, period, fold, prods))
                 for s in reversed(range(0, max(len(word), 1), step))]


def _one_value(x):
    """Whether every element of x has the bits of the first."""
    bits = np.ascontiguousarray(x).view(np.uint8).reshape(len(x), -1)
    return bool((bits == bits[0]).all())


def _kept_children(size, n, k, word, period, head, tail):
    """The children kept at level k of the necklace walk: those of the
    length-k prefixes word (of periods period), one slice of the level,
    that lie in head..tail-1 and are prenecklaces, and necklaces at the
    last level. Returns their indices, their periods, and the positions in
    word of their parents and their letters.

    A prefix's kept letters run from its letter k+1-p, ref, to the last:
    ref keeps the period p and a larger letter makes it k+1, which divides
    n at the last level, so there only ref can fail to make a necklace.
    The parents lie in the range, so only the first and the last can have
    children outside it. The children are laid out by parent from these
    letter runs, without a parents x size array."""
    # letter k+1-p of each prefix, with size^(p - 1) looked up by period
    ref = (word // (size ** np.arange(k))[period - 1] % size if k
           else np.full(1, -1))
    start = np.maximum(ref, 0)
    if k == n - 1:
        start += (ref >= 0) & (n % period != 0)
    stop = np.full(len(word), size)
    if len(word):
        start[0] = max(start[0], head - word[0] * size)
        stop[-1] = min(size, tail - word[-1] * size)
    count = np.maximum(stop - start, 0)
    parent = np.repeat(np.arange(len(word)), count)
    first = np.cumsum(count) - count    # each parent's first child
    pick = np.arange(len(parent)) - np.repeat(first - start, count)
    grown = np.full(len(parent), k + 1)
    same = (start == ref) & (count > 0)
    grown[first[same]] = period[same]
    return np.repeat(word * size, count) + pick, grown, parent, pick


def _fold_children(mob, fold, parent, pick):
    """One step of _fold_moebius for each child: the letter mob[:][pick]
    after the parent's fold[:][parent], with the operands in the order
    _fold_moebius multiplies them, since numpy rounds a complex x * y and
    y * x differently. The letters are gathered once, the parents'
    columns two at a time, (A, C) and then (B, E)."""
    a, b, c, e = (x[pick] for x in mob)
    out = [None] * 4
    for col in (0, 1):
        x, y = fold[col][parent], fold[col + 2][parent]
        out[col] = np.multiply(a, x) + np.multiply(b, y)
        out[col + 2] = np.multiply(c, x) + np.multiply(e, y)
    return tuple(out)


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


def batch_orbit(sys_, letters, z, groups=None):
    """Weight product, derivative product, and end point along each word's
    orbit started at the batch z, one point per row of letters (count, n).
    In dim >= 2 the derivative product is a (count, dim, dim) stack of
    Jacobians, later letters on the left. groups is as for
    batch_fixed_points; each column is grouped when it is reached if it is
    not given. In-place products keep numpy from swapping operands on large
    batches.
    """
    count, n = letters.shape
    d = sys_.dim
    wgt = np.ones(count, dtype=complex)
    mult = (np.ones(count, dtype=complex) if d == 1
            else np.tile(np.eye(d, dtype=complex), (count, 1, 1)))
    y = np.array(z, dtype=complex, copy=True)
    for col, grp in zip(letters.T, groups or [None] * n):
        deriv = sys_.derivative_letters(col, y, grp)
        np.multiply(wgt, sys_.weight_letters(col, y, deriv, grp), out=wgt)
        if d == 1:
            np.multiply(mult, deriv, out=mult)
        else:
            mult = np.matmul(deriv, mult)
        y = sys_.apply_letters(col, y, grp)
    return wgt, mult, y


def _outside(ball, y):
    """Whether each point of the batch y is not in the ball, up to the
    escape slack; NaN is not in it."""
    return ~(_point_norm(y - _batch_center(ball))
             <= ball.radius * (1 + _ESCAPE_SLACK))


# ---------------------------------------------------------------------------
# contraction certification


@dataclass(frozen=True)
class ContractionReport:
    value: float
    word: tuple
    grid: int
    words: int


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
    the maximizing word.

    When every branch of a dim-1 system is a Moebius map the sup is exact:
    the folded word (Az+B)/(Cz+E) has |T'| = |AE-BC| / |Cz+E|^2, which is
    largest at the circle point nearest the pole -E/C, where |Cz+E| equals
    |Cc+E| - |C| rho; a pole on or inside the closed ball raises
    NotContracting. grid is not used there and the report's grid is 0. Any
    other dim-1 system is sampled on grid equispaced boundary points, which
    is not rigorous, in word ranges mapped over threads. Either way
    BudgetExceeded is raised before any work beyond word_budget words, and
    ties go to the first word in lexicographic order.
    """
    if sys_.dim != 1:
        raise DimensionUnsupported("contraction sampling needs dim 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    total = _word_count(sys_, n, word_budget)
    if sys_.coefficients is not None:
        return _exact_contraction(sys_, n, total)
    return _sampled_contraction(sys_, n, grid, total, threads)


def _first_max(results, start):
    """The first largest (value, ...) result, however the words are cut."""
    best = start
    for res in results:
        if res[0] > best[0]:
            best = res
    return best


def _exact_contraction(sys_, n, total):
    mob = tuple(sys_.coefficients.T)
    # |det| of a word is the product of its letters' |det|: AE - BC of the
    # folded word cancels on long words
    dets = np.abs(mob[0] * mob[3] - mob[1] * mob[2])

    def best(words, period, fold, prods):
        vals, _ = _derivative_sups(prods[0], fold[2], fold[3], sys_.domain)
        r = int(np.argmax(vals))
        return float(vals[r]), int(words[r]), fold[2][r], fold[3][r]

    value, idx, C, E = _first_max((best(*block) for block in _fold_blocks(
        sys_.n_letters, n, 0, total, mob, (dets,), False, _WORD_BLOCK)
        if len(block[0])), (-1.0, 0, 0.0, 1.0))
    word = tuple(word_letters(sys_.n_letters, n, np.array([idx]))[0].tolist())
    if value == math.inf:
        raise NotContracting(
            f"word {word} has its pole {complex(-E / C):.6g} on or inside "
            "the closed ball, so sup |T_word'| on its boundary is infinite")
    return ContractionReport(value, word, 0, total)


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
        sups = np.abs(acc).reshape(rows, g).max(axis=1)
        r = int(np.argmax(sups))
        return float(sups[r]), lo + r

    best_val, best_word_idx = _first_max(
        map_ordered(handle, chunk_ranges(total, chunk), threads), (-1.0, 0))
    word = word_letters(sys_.n_letters, n, np.array([best_word_idx]))
    return ContractionReport(best_val, tuple(word[0].tolist()), int(grid),
                             total)


# ---------------------------------------------------------------------------
# enclosing radius


def enclosing_radius(sys_, grid=1024):
    """Smallest ratio r with all branch images inside the concentric ball
    of radius r * radius, read off validate_system: in closed form for
    Moebius systems, else sampled on grid boundary points. Truncated-tail
    branches enter through the alphabet's image_tail_sup. A system that is
    not admissible is refused as _enclosing_ratio refuses it."""
    return _enclosing_ratio(validate_system(sys_, grid=grid),
                            sys_.domain.radius)


def _enclosing_ratio(report, radius):
    """The enclosing ratio r read off a validation report's image sups: the
    one admission check of the library and the CLI. Sups that are not
    finite (a pole on or inside the ball, or a weight sup past the double
    range) raise InadmissibleDomain, and images that reach the radius
    raise NotEnclosed."""
    if not (math.isfinite(report.image_sup) and math.isfinite(report.W)):
        raise InadmissibleDomain(f"the sups are not finite: {report.note}")
    reach = max(report.image_sup + report.image_safety,
                report.image_tail_sup)
    r = reach / radius
    if r >= 1.0:
        raise NotEnclosed(
            f"branch images reach {reach:.6g} >= radius {radius:.6g} "
            f"(r = {r:.6g})")
    return r
