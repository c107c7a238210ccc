"""Reference values the benchmark checks the program's outputs against.

Nothing here imports transferspec or the test suite. Each oracle reaches
its value by a different method from the program: closed forms for
Moebius words and affine maps, exact image discs, known constants of the
Gauss map, and a Chebyshev collocation on the real interval [0, 1] instead
of the program's Taylor basis on a complex disc.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev as cheb

# |lambda_2| of the Gauss-Kuzmin-Wirsing operator (Wirsing's constant).
WIRSING = 0.30366300289873265859744812190155623

# Gauss preset on the disc |z - 1| < 1.5. Word (1, 1) is z -> (1+z)/(2+z)
# with derivative 1/(2+z)^2, largest at z = -1/2: 1/1.5^2 = 4/9. The weight
# sum sum_i |i+z|^-2 peaks at the same point: sum_i (i - 1/2)^-2 = psi'(1/2)
# = pi^2/2. Branch 1 maps the disc onto |w - 8/7| < 6/7, which reaches
# distance 1 from the centre; no branch reaches further, so r = 1/1.5.
GAUSS_DISC = (1.0, 1.5)
GAUSS_CONTRACTION_WORD = (1, 1)
GAUSS_CONTRACTION = 4.0 / 9.0
GAUSS_W = math.pi ** 2 / 2.0
GAUSS_ENCLOSING = 2.0 / 3.0


# ---------------------------------------------------------------------------
# Moebius words


def fold_words(mats, order):
    """2x2 matrices of every word of the given length, lexicographic.

    mats has shape (L, 2, 2), one matrix [[a, b], [c, e]] per letter. The
    word (i_1, ..., i_n) acts as T_{i_n} o ... o T_{i_1}, so its matrix is
    M_{i_n} ... M_{i_1}; words are built one letter at a time, as a prefix
    tree, never letter by letter per word.
    """
    mats = np.asarray(mats)
    words = mats
    for _ in range(order - 1):
        words = np.einsum("lij,wjk->wlik", mats, words).reshape(-1, 2, 2)
    return words


def attracting_multipliers(words):
    """Multiplier of each Moebius matrix at its attracting fixed point.

    The fixed points z solve C z^2 + (E - A) z - B = 0. At a root,
    q = C z + E equals (A + E +- s)/2 with s^2 = (A + E)^2 - 4 det, and the
    multiplier is det / q^2. The attracting root is the one with the larger
    |q|, which also avoids cancellation in the sum.
    """
    A, B, C, E = (words[:, 0, 0], words[:, 0, 1], words[:, 1, 0],
                  words[:, 1, 1])
    det = A * E - B * C
    tr = A + E
    s = np.sqrt((tr * tr - 4.0 * det).astype(complex))
    q = np.where(np.abs(tr + s) >= np.abs(tr - s), tr + s, tr - s) / 2.0
    return det / (q * q)


def moebius_traces(params, weight_sign, orders):
    """Closed-form traces t_n = sum over words of (+-1)^n m / (1 - m).

    params lists (a, b, c, e) per branch; weight_sign is +1 for weights
    T' and -1 for weights -T', so a word's weight at its fixed point is
    weight_sign^n times its multiplier m.
    """
    mats = np.array([[[a, b], [c, e]] for a, b, c, e in params])
    out = []
    for n in orders:
        m = attracting_multipliers(fold_words(mats, n))
        terms = weight_sign ** n * m / (1.0 - m)
        out.append(complex(math.fsum(terms.real), math.fsum(terms.imag)))
    return out


def gauss_order1_trace(shifts):
    """t_1 of branches 1/(e+z) with weights 1/(e+z)^2 from the explicit
    fixed point z = (sqrt(e^2 + 4) - e)/2: there 1/(e+z) = z, the
    multiplier is -z^2 and the summand z^2 / (1 + z^2)."""
    terms = []
    for e in shifts:
        z = (math.sqrt(e * e + 4.0) - e) / 2.0
        terms.append(z * z / (1.0 + z * z))
    return math.fsum(terms)


def derivative_sups(words, center, radius):
    """sup of |T_w'| over the closed disc, per word: |det| over
    (|C c + E| - |C| rho)^2, the nearest approach of the pole."""
    A, B, C, E = (words[:, 0, 0], words[:, 0, 1], words[:, 1, 0],
                  words[:, 1, 1])
    gap = np.abs(C * center + E) - np.abs(C) * radius
    return np.abs(A * E - B * C) / (gap * gap)


def contraction_factor(params, order, center, radius):
    """Exact sup over words of one length of sup |T_w'| on the disc, and
    the first (lexicographic) word attaining it, as 1-based letters."""
    mats = np.array([[[a, b], [c, e]] for a, b, c, e in params])
    sups = derivative_sups(fold_words(mats, order), center, radius)
    idx = int(np.argmax(sups))
    word = []
    for _ in range(order):
        idx, letter = divmod(idx, len(params))
        word.append(letter + 1)
    return float(sups.max()), tuple(reversed(word))


def image_disc(a, b, c, e, center, radius):
    """Image (centre, radius) of the closed disc under (az+b)/(cz+e)."""
    a, b, c, e, q = (complex(a), complex(b), complex(c), complex(e),
                     complex(center))
    if c == 0:
        return (a * q + b) / e, abs(a / e) * radius
    # (az+b)/(cz+e) = a/c - det / (c (cz+e)); w = cz+e sweeps a disc
    p, rho = c * q + e, abs(c) * radius
    if abs(p) <= rho:
        raise ValueError("the pole lies in the closed disc")
    denom = abs(p) ** 2 - rho ** 2
    scale = -(a * e - b * c) / c
    return a / c + scale * p.conjugate() / denom, abs(scale) * rho / denom


def enclosing_ratio(params, center, radius):
    """Smallest r with every branch image inside |z - centre| <= r rho."""
    reach = 0.0
    for a, b, c, e in params:
        ic, ir = image_disc(a, b, c, e, center, radius)
        reach = max(reach, abs(ic - center) + ir)
    return reach / radius


def shift_weight_sup(shifts, center, radius):
    """sup over the disc of sum_i |e_i + z|^-2 for real shifts e_i and a
    real centre: every pole -e_i lies left of the disc, so all terms peak
    at its leftmost point."""
    left = center - radius
    return math.fsum(1.0 / (e + left) ** 2 for e in shifts)


# ---------------------------------------------------------------------------
# diagonal affine maps in dimension 2


def diagonal_affine_traces(rates, weights, orders, depth=400):
    """t_n = sum_{p,q} (sum_i w_i a_i^p b_i^q)^n for branches
    z -> (a_i z_1 + ., b_i z_2 + .) with constant weights w_i. The
    operator is triangular on monomials z_1^p z_2^q, whose diagonal
    entries are the inner sums."""
    p = np.arange(depth)
    lam = sum(w * np.outer(a ** p, b ** p)
              for (a, b), w in zip(rates, weights)).ravel()
    return [math.fsum(lam ** n) for n in orders]


# ---------------------------------------------------------------------------
# Chebyshev collocation on [0, 1]


def _collocate(shifts, K, direct):
    """All K eigenvalues of one collocation; shifts None means 1, 2, ...
    with the branches past `direct` summed by Euler-Maclaurin."""
    j = np.arange(K)
    x = 0.5 * (1.0 - np.cos((2 * j + 1) * np.pi / (2 * K)))
    V = cheb.chebvander(2.0 * x - 1.0, K - 1)
    B = np.zeros((K, K))
    explicit = np.arange(1, direct + 1, dtype=float) if shifts is None \
        else np.asarray(shifts, dtype=float)
    for lo in range(0, explicit.size, 500):
        u = 1.0 / (explicit[lo:lo + 500, None] + x[None, :])     # (s, K)
        vals = cheb.chebvander(2.0 * u - 1.0, K - 1)             # (s, K, K)
        B += np.einsum("sj,sjk->jk", u * u, vals)
    if shifts is None:
        u = 1.0 / (direct + 1.0 + x)
        y = 2.0 * u - 1.0
        eye = np.eye(K)
        integral = 0.5 * cheb.chebvander(y, K) @ cheb.chebint(eye, lbnd=-1)
        T = cheb.chebvander(y, K - 1)
        dT = cheb.chebvander(y, K - 2) @ cheb.chebder(eye)
        F = T * (u * u)[:, None]
        dF = -(2.0 * dT * (u ** 4)[:, None] + 2.0 * T * (u ** 3)[:, None])
        B += integral + 0.5 * F - dF / 12.0
    return np.linalg.eigvals(np.linalg.solve(V, B))


def collocation_eigenvalues(shifts=None, sizes=(32, 48), direct=4000,
                            tol=1e-9):
    """Eigenvalues of L f(x) = sum_i f(1/(e_i + x)) / (e_i + x)^2 on [0, 1].

    f is expanded in Chebyshev polynomials T_k(2x - 1) and L f is matched
    at K Chebyshev points. shifts None is the full Gauss operator, shifts
    1, 2, 3, ...: branches up to `direct` are summed one by one and the
    rest by Euler-Maclaurin, sum_{t>=a} F(t) = int_a^oo F + F(a)/2 - F'(a)/12
    with F(t) = T_k(2u - 1) u^2, u = 1/(t + x); the integral is
    int_0^{1/(a+x)} T_k(2u - 1) du, a Chebyshev antiderivative.

    Collocation also has spurious eigenvalues that drift towards 0 as K
    grows, so only values of the larger size found within tol at the
    smaller one are returned, sorted by non-increasing modulus.
    """
    coarse = _collocate(shifts, sizes[0], direct)
    fine = _collocate(shifts, sizes[1], direct)
    kept = np.array([v for v in fine if np.min(np.abs(coarse - v)) <= tol])
    return kept[np.argsort(-np.abs(kept), kind="stable")]


# ---------------------------------------------------------------------------
# overlaps between the oracles


def self_check():
    """Problems found where two oracles cover the same value; [] if none."""
    problems = []
    shifts = [1.0, 2.0, 3.0, 4.0]
    params = [(0.0, 1.0, 1.0, e) for e in shifts]
    fold = moebius_traces(params, -1, [1])[0]
    direct = gauss_order1_trace(shifts)
    if abs(fold - direct) > 1e-14:
        problems.append(f"order-1 fold {fold!r} != fixed-point closed form "
                        f"{direct!r}")
    lam2 = abs(collocation_eigenvalues()[1])
    if abs(lam2 - WIRSING) > 1e-12:
        problems.append(f"collocation |lambda_2| {lam2!r} != Wirsing "
                        f"{WIRSING!r}")
    c, rho = GAUSS_DISC
    gauss = [(0.0, 1.0, 1.0, float(i)) for i in range(1, 201)]
    value, word = contraction_factor(gauss, 2, c, rho)
    if (word != GAUSS_CONTRACTION_WORD
            or abs(value - GAUSS_CONTRACTION) > 1e-15):
        problems.append(f"folded contraction {value!r} at {word} != 4/9 "
                        "at (1, 1)")
    ratio = enclosing_ratio(gauss, c, rho)
    if abs(ratio - GAUSS_ENCLOSING) > 1e-15:
        problems.append(f"image-disc enclosing ratio {ratio!r} != 2/3")
    return problems
