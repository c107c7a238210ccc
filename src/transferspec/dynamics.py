"""Word compositions, fixed points, contraction certification, adapted metric.

Words are tuples of 1-based letters; the word (i_1, ..., i_n) denotes the
composition T_{i_n} o ... o T_{i_1} (the first letter acts first). Word
enumeration is lexicographic throughout, and batched evaluations reduce in
index order, so every result is independent of chunking and thread count.

Fixed points come from plain forward iteration: a branch system whose
images lie strictly inside the ball contracts some adapted metric, so the
orbit of the center converges geometrically. The stopping rule uses the
a-posteriori bound step * q/(1-q) with q estimated from successive step
ratios and capped at 0.999; estimates are sampled, not rigorous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import WORD_CHUNK, chunk_ranges, map_ordered
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
    """The composition map of a word, with chain-rule derivative.

    For all-Moebius dim-1 systems the coefficient matrices are folded, so
    the result is again an exact Moebius map.
    """
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

    out = AnalyticMap(fn, deriv, dim=d, name=f"word{letters}")
    if d == 1 and all(hasattr(br, "moebius") for br in branches):
        mat = np.eye(2, dtype=complex)
        for br in branches:
            a, b, c, e = br.moebius
            mat = np.array([[a, b], [c, e]]) @ mat
        out.moebius = (mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1])
    return out


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


def batch_fixed_points(sys_, letters, tol=1e-13, max_sweeps=5000):
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
    for _ in range(max_sweeps):
        z1 = z
        for k in range(n):
            z1 = sys_.apply_letters(letters[:, k], z1)
        off = np.abs(z1 - ball.center) > ball.radius * (1.0 + _ESCAPE_SLACK)
        if off.any():
            bad = int(np.argmax(off))
            raise EscapedDomain(
                f"word {tuple(letters[bad])} maps the center orbit outside "
                "the ball")
        step = float(np.max(np.abs(z1 - z)))
        if prev_step is not None and prev_step > 0.0:
            q = min(_Q_CAP, max(q * 0.5, step / prev_step))
        prev_step = step
        z = z1
        if step <= tol * (1.0 - q):
            return z
    raise NoConvergence(
        f"word batch did not converge in {max_sweeps} sweeps "
        f"(last step {step:.3g})")


def batch_orbit(sys_, letters, z):
    """Weight product, derivative product, and end point along each word's
    orbit started at z (shape (count,) matching letters (count, n))."""
    wgt = np.ones(letters.shape[0], dtype=complex)
    mult = np.ones(letters.shape[0], dtype=complex)
    y = np.array(z, dtype=complex, copy=True)
    for k in range(letters.shape[1]):
        col = letters[:, k]
        deriv = sys_.derivative_letters(col, y)
        wgt = wgt * sys_.weight_letters(col, y, deriv=deriv)
        mult = mult * deriv
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
    """Sampled sup over all length-n words of |T_word'| on the boundary grid,
    with the maximizing word and sample point."""
    if sys_.dim != 1:
        raise DimensionUnsupported("contraction sampling needs dim 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    total = _word_count(sys_, n, word_budget)
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

    results = map_ordered(handle, chunk_ranges(total, chunk), threads)
    best_val, best_word_idx, best_pt_idx = -1.0, 0, 0
    for val, widx, pidx in results:     # index order: deterministic argmax
        if val > best_val:
            best_val, best_word_idx, best_pt_idx = val, widx, pidx
    word = tuple(int(l) for l in
                 letters_block(sys_.n_letters, n,
                               best_word_idx, best_word_idx + 1)[0])
    return ContractionReport(best_val, word, complex(zs[best_pt_idx]),
                             int(grid), total)


def contraction_factor(sys_, n, grid=256, word_budget=DEFAULT_WORD_BUDGET,
                       threads=1):
    """Sampled contraction factor gamma(n); values < 1 certify (non-rigorously)
    that every length-n branch composition is a strict contraction."""
    return contraction_details(sys_, n, grid, word_budget, threads).value


# ---------------------------------------------------------------------------
# adapted metric


def adapted_distance(sys_, n, x, y, grid=256,
                     word_budget=DEFAULT_WORD_BUDGET):
    """Distance in which every branch is a beta = gamma(n)^(1/n) contraction.

    dist(x, y) = sup over words u of length n-1 of
    sum_{k=0}^{n-1} beta^(n-1-k) |T_{P_k u}(x) - T_{P_k u}(y)|,
    where P_k u keeps the first k letters. For n = 1 this is the Euclidean
    distance.
    """
    if sys_.dim != 1:
        raise DimensionUnsupported("the adapted metric sampler needs dim 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    gamma = contraction_factor(sys_, n, grid)
    if gamma >= 1.0:
        raise NotContracting(
            f"sampled contraction factor {gamma:.6g} >= 1 at order {n}")
    x, y = complex(x), complex(y)
    if n == 1:
        return abs(x - y)
    beta = gamma ** (1.0 / n)
    total = _word_count(sys_, n - 1, word_budget)
    acc = None
    for lo, hi in chunk_ranges(total, WORD_CHUNK):
        letters = letters_block(sys_.n_letters, n - 1, lo, hi)
        xs = np.full(hi - lo, x)
        ys = np.full(hi - lo, y)
        sums = np.full(hi - lo, beta ** (n - 1) * abs(x - y))
        for k in range(n - 1):
            xs = sys_.apply_letters(letters[:, k], xs)
            ys = sys_.apply_letters(letters[:, k], ys)
            sums += beta ** (n - 2 - k) * np.abs(xs - ys)
        m = float(sums.max())
        acc = m if acc is None else max(acc, m)
    return acc


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
