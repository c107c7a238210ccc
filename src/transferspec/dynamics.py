"""Word compositions, fixed points, contraction certification.

Words are tuples of 1-based letters; the word (i_1, ..., i_n) denotes the
composition T_{i_n} o ... o T_{i_1} (the first letter acts first). Word
enumeration is lexicographic throughout, and batched evaluations reduce in
index order, so every result is independent of chunking and thread count.

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
    BadIndex,
    BudgetExceeded,
    DimensionUnsupported,
    EscapedDomain,
    NoConvergence,
    NotContracting,
    NotEnclosed,
)
from .systems import AnalyticMap, validate_system

_Q_CAP = 0.999
_ESCAPE_SLACK = 1e-9
_MAX_SWEEPS = 5000
DEFAULT_WORD_BUDGET = 2_000_000


def check_word(sys_, word):
    """Validate a word and return it as a tuple of ints."""
    try:
        letters = tuple(int(l) for l in word)
    except (TypeError, ValueError):
        raise BadIndex(f"word {word!r} is not a sequence of letters") from None
    if len(letters) == 0:
        raise BadIndex("words must have length >= 1")
    n = sys_.n_letters
    for l in letters:
        if not 1 <= l <= n:
            raise BadIndex(f"letter {l} outside alphabet 1..{n}")
    return letters


def compose(sys_, word):
    """The composition map of a word, with chain-rule derivative."""
    letters = check_word(sys_, word)
    branches = [sys_.branches[l - 1] for l in letters]
    d = sys_.dim

    def fn(z):
        for br in branches:
            z = br(z)
        return z

    if d == 1:
        def deriv(z):
            acc = 1.0 + 0.0 * z
            for br in branches:
                acc = acc * br.derivative(z)
                z = br(z)
            return acc
    else:
        def deriv(z):
            jac = np.eye(d, dtype=complex)
            for br in branches:
                jac = np.asarray(br.derivative(z), dtype=complex) @ jac
                z = br(z)
            return jac

    return AnalyticMap(fn, deriv, dim=d, name=f"word{letters}")


def _fold_moebius(steps, start=(1.0, 0.0, 0.0, 1.0)):
    """Coefficients (A, B, C, E) of the matrix product M_n ... M_1 M_0, where
    steps yields the coefficients (a, b, c, e) of M_1, ..., M_n in letter
    order and start holds those of M_0. Entries are scalars, or equal-shape
    arrays holding one word per element."""
    A, B, C, E = start
    for a, b, c, e in steps:
        A, B, C, E = a * A + b * C, a * B + b * E, c * A + e * C, c * B + e * E
    return A, B, C, E


def _fold_words(mob, n, lo, hi, *factors):
    """Folded coefficients (A, B, C, E) of the length-n words lo..hi-1 of
    the Moebius letters mob, and for each per-letter array in factors its
    product along each word. Level k of the prefix tree holds the range's
    distinct length-k prefixes, each its parent times one letter, so every
    word gets the bits of a letter-by-letter fold in letter order."""
    size = len(mob[0])
    fold = tuple(np.array([x]) for x in (1.0, 0.0, 0.0, 1.0))
    prods = [np.ones(1)] * len(factors)
    for k in range(n - 1, -1, -1):     # (prefixes, letters) -> prefixes
        head, tail = lo // size ** k, (hi - 1) // size ** k + 1
        cut = slice(head % size, head % size + tail - head)
        fold = tuple(x.reshape(-1)[cut] for x in _fold_moebius(
            [mob], tuple(x[:, None] for x in fold)))
        prods = [(p[:, None] * f).reshape(-1)[cut]
                 for p, f in zip(prods, factors)]
    return fold, prods


def word_weight(sys_, word):
    """The scalar weight of a word: the product of branch weights along the
    orbit, w_{i_1}(z) * w_{i_2}(T_{i_1} z) * ... """
    letters = check_word(sys_, word)

    def fn(z):
        acc = 1.0
        for l in letters:
            acc = acc * sys_.weights[l - 1](z)
            z = sys_.branches[l - 1](z)
        return acc

    return AnalyticMap(fn, None, dim=sys_.dim, name=f"weight{letters}")


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
# batched word evaluation (dim 1)


def letters_block(n_letters, length, lo, hi):
    """Rows lo..hi-1 of the lexicographic enumeration of length-n words."""
    idx = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((hi - lo, length), dtype=np.int64)
    for k in range(length):
        p = n_letters ** (length - 1 - k)
        out[:, k] = (idx // p) % n_letters + 1
    return out


def batch_fixed_points(sys_, letters, tol=1e-13):
    """Fixed points of many word compositions at once (dim 1).

    letters has shape (count, n). Every word is iterated from the ball
    center with the same stopping rule as fixed_point, using the worst
    step/ratio across the batch so all points meet the tolerance.
    """
    count, n = letters.shape
    ball = sys_.domain
    z = np.full(count, complex(ball.center))
    q = 0.0
    prev_step = None
    for _ in range(_MAX_SWEEPS):
        z1 = z
        for k in range(n):
            z1 = sys_.apply_letters(letters[:, k], z1)
        off = np.abs(z1 - ball.center) > ball.radius * (1.0 + _ESCAPE_SLACK)
        if off.any():
            bad = int(np.argmax(off))
            raise EscapedDomain(
                f"word {tuple(letters[bad].tolist())} maps the center orbit "
                "outside the ball")
        step = float(np.max(np.abs(z1 - z)))
        if prev_step is not None and prev_step > 0.0:
            q = min(_Q_CAP, max(q * 0.5, step / prev_step))
        prev_step = step
        z = z1
        if step <= tol * (1.0 - q):
            return z
    raise NoConvergence(
        f"word batch did not converge in {_MAX_SWEEPS} sweeps "
        f"(last step {step:.3g})")


def batch_orbit(sys_, letters, z):
    """Weight product, derivative product, and end point along each word's
    orbit started at z (shape (count,) matching letters (count, n)). In-place
    products keep numpy from swapping operands on large batches."""
    wgt = np.ones(letters.shape[0], dtype=complex)
    mult = np.ones(letters.shape[0], dtype=complex)
    y = np.array(z, dtype=complex, copy=True)
    for k in range(letters.shape[1]):
        col = letters[:, k]
        deriv = sys_.derivative_letters(col, y)
        np.multiply(wgt, sys_.weight_letters(col, y, deriv=deriv), out=wgt)
        np.multiply(mult, deriv, out=mult)
        y = sys_.apply_letters(col, y)
    return wgt, mult, y


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


def _word_at(sys_, n, idx):
    """Word idx of the lexicographic enumeration of length-n words."""
    size = sys_.n_letters
    return tuple(idx // size ** (n - 1 - k) % size + 1 for k in range(n))


def _exact_contraction(sys_, n, total, threads):
    c, rho = sys_.domain.center, sys_.domain.radius
    # |det| of a word is the product of its letters' |det|: AE - BC of the
    # folded word cancels on long words
    dets = np.abs(sys_._mob[0] * sys_._mob[3] - sys_._mob[1] * sys_._mob[2])

    def handle(rng):
        lo, hi = rng
        (_, _, C, E), (det,) = _fold_words(sys_._mob, n, lo, hi, dets)
        gap = np.abs(C * c + E) - np.abs(C) * rho
        on_circle = gap == 0.0
        if on_circle.any():
            r = int(np.argmax(on_circle))
            return math.inf, lo + r, C[r], E[r]
        vals = det / (gap * gap)
        r = int(np.argmax(vals))
        return float(vals[r]), lo + r, C[r], E[r]

    value, idx, C, E = _first_max(
        map_ordered(handle, chunk_ranges(total), threads), (-1.0, 0, 0.0, 1.0))
    word = _word_at(sys_, n, idx)
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
        letters = letters_block(sys_.n_letters, n, lo, hi)
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
    return ContractionReport(best_val, _word_at(sys_, n, best_word_idx),
                             complex(zs[best_pt_idx]), int(grid), total)


# ---------------------------------------------------------------------------
# enclosing radius


def enclosing_radius(sys_, grid=1024):
    """Smallest sampled ratio r with all branch images inside the concentric
    ball of radius r * radius; includes truncated-tail branches through the
    alphabet's image_tail_sup."""
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
            f"(sampled r = {r:.6g})")
    return r
