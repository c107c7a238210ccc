"""Independent reference implementations used as oracles by the tests.

Nothing in this module imports the package under test. Each function solves
the same mathematical problem as some package routine but by a different
method (closed forms, arbitrary precision, or a collocation discretization
on the real interval instead of a circle basis), so agreement is evidence
rather than tautology.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import mpmath as mp
import numpy as np


# ---------------------------------------------------------------------------
# closed-form Moebius image discs


def moebius_image_disc(a, b, c, e, center, radius):
    """Image of the circle |z - center| = radius under (az+b)/(cz+e).

    Returns (image_center, image_radius). The pole -e/c must lie outside
    the closed disc.
    """
    a, b, c, e, q = complex(a), complex(b), complex(c), complex(e), complex(center)
    R = float(radius)
    if c == 0:
        return (a * q + b) / e, abs(a / e) * R
    # (az+b)/(cz+e) = a/c - det/(c*(cz+e)) with det = ae - bc
    det = a * e - b * c
    p = c * q + e                       # center of the cz+e image circle
    rho = abs(c) * R
    if abs(p) <= rho:
        raise ValueError("pole on or inside the disc")
    denom = abs(p) ** 2 - rho ** 2
    inv_center = p.conjugate() / denom
    inv_radius = rho / denom
    scale = -det / c
    return a / c + scale * inv_center, abs(scale) * inv_radius


def circle_max_mp(fn, center, radius, points=512, dps=30):
    """max of the real function fn over the circle |z - center| = radius,
    in mpmath arithmetic (fn gets an mpc point): the best of points
    equispaced samples, refined by golden-section search between its two
    neighbours."""
    with mp.workdps(dps):
        cm, rm = mp.mpc(center), mp.mpf(radius)

        def f(t):
            return fn(cm + rm * mp.expj(t))

        step = 2 * mp.pi / points
        vals = [f(k * step) for k in range(points)]
        k = max(range(points), key=vals.__getitem__)
        lo, hi = (k - 1) * step, (k + 1) * step
        g = (mp.sqrt(5) - 1) / 2
        for _ in range(90):
            x, y = hi - g * (hi - lo), lo + g * (hi - lo)
            if f(x) < f(y):
                lo = x
            else:
                hi = y
        return float(max(vals[k], f((lo + hi) / 2)))


# ---------------------------------------------------------------------------
# one word at a time: the per-word reference for the batched word path


def compose(sys_, word):
    """The composition T_{i_n} o ... o T_{i_1} of the word (i_1, ..., i_n)
    of 1-based letters of sys_, applied a branch at a time, with the chain
    rule as its derivative: a product in letter order in dim 1, and in
    dim >= 2 each branch Jacobian multiplied on the left of the identity."""
    return _Composition([sys_.branches[l - 1] for l in word], sys_.dim)


class _Composition:
    def __init__(self, branches, dim):
        self.branches = branches
        self.dim = dim

    def __call__(self, z):
        for br in self.branches:
            z = br(z)
        return z

    def derivative(self, z):
        if self.dim == 1:
            acc = 1.0 + 0.0 * z
            for br in self.branches:
                acc = acc * br.derivative(z)
                z = br(z)
            return acc
        jac = np.eye(self.dim, dtype=complex)
        for br in self.branches:
            jac = np.asarray(br.derivative(z), dtype=complex) @ jac
            z = br(z)
        return jac


def word_weight(sys_, word):
    """The weight of a word as a function of z: the product of the branch
    weights along the orbit, w_{i_1}(z) * w_{i_2}(T_{i_1} z) * ..."""

    def fn(z):
        acc = 1.0
        for l in word:
            acc = acc * sys_.weights[l - 1](z)
            z = sys_.branches[l - 1](z)
        return acc

    return fn


# ---------------------------------------------------------------------------
# Moebius periodic-orbit traces in arbitrary precision


def moebius_traces_mp(params, weights, orders, dps=40):
    """Traces t_n = sum over length-n words of w_word(z*) / (1 - T_word'(z*))
    for branches z -> (a z + b)/(c z + e), in mpmath arithmetic.

    params lists (a, b, c, e) per branch and weights lists, per branch,
    "derivative" (T'), "neg_derivative" (-T') or a constant. The word
    (i_1, ..., i_n) acts as T_{i_n} o ... o T_{i_1}. Its fixed points are
    the roots of C z^2 + (E - A) z - B for the folded matrix [[A, B],
    [C, E]], and z* is the root where |T_word'| is smaller. The word's
    weight is the product of the branch weights along the orbit of z*, by
    definition, whatever the weight kinds.
    """
    with mp.workdps(dps):
        mats = [tuple(mp.mpc(x) for x in p) for p in params]
        out = []
        for n in orders:
            terms = []
            for word in itertools.product(range(len(mats)), repeat=n):
                A, B, C, E = mp.mpc(1), mp.mpc(0), mp.mpc(0), mp.mpc(1)
                for l in word:
                    a, b, c, e = mats[l]
                    A, B, C, E = (a * A + b * C, a * B + b * E,
                                  c * A + e * C, c * B + e * E)
                det = A * E - B * C
                if C == 0:
                    roots = [B / (E - A)]
                else:
                    s = mp.sqrt((E - A) ** 2 + 4 * B * C)
                    roots = [(A - E + s) / (2 * C), (A - E - s) / (2 * C)]
                z = min(roots, key=lambda r: abs(det / (C * r + E) ** 2))
                mult = det / (C * z + E) ** 2
                wgt = mp.mpc(1)
                for l in word:
                    a, b, c, e = mats[l]
                    deriv = (a * e - b * c) / (c * z + e) ** 2
                    kind = weights[l]
                    if kind == "derivative":
                        wgt *= deriv
                    elif kind == "neg_derivative":
                        wgt *= -deriv
                    else:
                        wgt *= mp.mpc(kind)
                    z = (a * z + b) / (c * z + e)
                terms.append(wgt / (1 - mult))
            out.append(complex(mp.fsum(terms)))
        return out


def moebius_contraction_mp(params, center, radius, n, dps=40):
    """max over length-n words of |det| / (|C c + E| - |C| rho)^2, the sup
    of |T_word'| on the circle |z - c| = rho, for branches
    z -> (a z + b)/(c z + e) given as (a, b, c, e), in mpmath arithmetic.
    [[A, B], [C, E]] is the word's folded matrix and det = AE - BC; the
    words are folded a letter at a time over all prefixes."""
    with mp.workdps(dps):
        mats = [tuple(mp.mpc(x) for x in p) for p in params]
        level = [(mp.mpc(1), mp.mpc(0), mp.mpc(0), mp.mpc(1))]
        for _ in range(n):
            level = [(a * A + b * C, a * B + b * E, c * A + e * C,
                      c * B + e * E)
                     for A, B, C, E in level for a, b, c, e in mats]
        cm, rm = mp.mpc(center), mp.mpf(radius)
        return float(max(abs(A * E - B * C) / (abs(C * cm + E) - abs(C) * rm)
                         ** 2 for A, B, C, E in level))


# ---------------------------------------------------------------------------
# Chebyshev collocation on [0, 1]


def chebyshev_nodes(K):
    """First-kind Chebyshev points mapped to (0, 1), decreasing order."""
    j = np.arange(K)
    return 0.5 * (1.0 + np.cos((2 * j + 1) * np.pi / (2 * K)))


def _bary_weights(K):
    # standard closed form for first-kind points; constant factors cancel
    j = np.arange(K)
    return ((-1.0) ** j) * np.sin((2 * j + 1) * np.pi / (2 * K))


def lagrange_eval(nodes, weights, pts):
    """Matrix L with L[p, k] = l_k(pts[p]) in barycentric form."""
    pts = np.asarray(pts, dtype=float)
    diff = pts[:, None] - nodes[None, :]
    exact_p, exact_k = np.nonzero(diff == 0.0)
    diff[exact_p, exact_k] = 1.0        # placeholder, rows overwritten below
    terms = weights[None, :] / diff
    L = terms / terms.sum(axis=1, keepdims=True)
    for p, k in zip(exact_p, exact_k):
        L[p, :] = 0.0
        L[p, k] = 1.0
    return L


def lagrange_eval_deriv(nodes, weights, pts):
    """Values and first derivatives of every l_k at points off the grid."""
    pts = np.asarray(pts, dtype=float)
    diff = pts[:, None] - nodes[None, :]
    if np.any(diff == 0.0):
        raise ValueError("derivative evaluation expects off-grid points")
    t = weights[None, :] / diff
    S = t.sum(axis=1, keepdims=True)
    tp = -weights[None, :] / diff ** 2  # d/du of w_k/(u - x_k)
    Sp = tp.sum(axis=1, keepdims=True)
    L = t / S
    Lp = (tp * S - t * Sp) / S ** 2
    return L, Lp


def _stable(coarse, fine, tol):
    """The values of the fine collocation found within tol among the coarse
    one's, sorted by non-increasing modulus: spurious collocation values
    drift as K grows, the operator's stay."""
    kept = [v for v in fine if np.min(np.abs(coarse - v)) <= tol]
    return sorted_by_modulus(np.array(kept))


def collocation_eigenvalues_finite(moebius_params, K=32, fine=48, tol=1e-9):
    """Eigenvalues of L f(x) = sum_i f(1/(e_i + x)) / (e_i + x)^2 on [0, 1],
    for branches 1/(e_i + z), by Lagrange collocation at Chebyshev points.

    moebius_params is the list of shifts e_i (e.g. [1, 2, 3, 4]). Only the
    values at fine points that the collocation at K points matches within
    tol are returned, sorted by non-increasing modulus.
    """
    def collocate(K):
        nodes = chebyshev_nodes(K)
        bw = _bary_weights(K)
        A = np.zeros((K, K))
        for e in moebius_params:
            img = 1.0 / (e + nodes)
            w = 1.0 / (e + nodes) ** 2
            A += w[:, None] * lagrange_eval(nodes, bw, img)
        return np.linalg.eigvals(A)

    return _stable(collocate(K), collocate(fine), tol)


def collocation_eigenvalues_gauss(K=32, i_direct=4000, gl_points=20,
                                  fine=48, tol=1e-9):
    """Eigenvalues of the full continued-fraction operator
    L f(x) = sum_{i>=1} f(1/(i+x)) / (i+x)^2 by collocation, with the branch
    sum split into a direct part (i <= i_direct) and an Euler-Maclaurin tail.
    As for collocation_eigenvalues_finite, only the values at fine points
    that the collocation at K points matches within tol are returned.

    The tail integral reduces, via u = 1/(t+x), to an integral of the
    polynomial l_k over [0, 1/(a+x)]; Gauss-Legendre with at least
    gl_points nodes is exact for degree <= 2*gl_points - 1 >= K - 1.
    """
    def collocate(K):
        nodes = chebyshev_nodes(K)
        bw = _bary_weights(K)
        A = np.zeros((K, K))
        chunk = 512
        for lo in range(1, i_direct + 1, chunk):
            idx = np.arange(lo, min(lo + chunk, i_direct + 1), dtype=float)
            img = 1.0 / (idx[:, None] + nodes[None, :])        # (c, K)
            w = img ** 2
            L = lagrange_eval(nodes, bw, img.ravel()).reshape(img.shape[0],
                                                              K, K)
            A += np.einsum("cj,cjk->jk", w, L)

        a = float(i_direct + 1)
        ua = 1.0 / (a + nodes)                                  # (K,)
        # integral part: int_0^{ua_j} l_k(u) du by Gauss-Legendre per row
        gl = max(gl_points, (K + 1) // 2)
        gx, gw = np.polynomial.legendre.leggauss(gl)
        half = 0.5 * ua
        upts = half[:, None] * (gx[None, :] + 1.0)              # (K, gl)
        Lq = lagrange_eval(nodes, bw, upts.ravel()).reshape(K, gl, K)
        integral = np.einsum("g,jgk->jk", gw, Lq) * half[:, None]
        # boundary corrections f(a)/2 - f'(a)/12 with f(t) = l_k(u(t)) u(t)^2
        Lv, Lp = lagrange_eval_deriv(nodes, bw, ua)
        f_a = Lv * (ua ** 2)[:, None]
        fp_a = -(Lp * (ua ** 4)[:, None] + 2.0 * Lv * (ua ** 3)[:, None])
        A += integral + 0.5 * f_a - fp_a / 12.0
        return np.linalg.eigvals(A)

    return _stable(collocate(K), collocate(fine), tol)


def gauss_operator_apply(h, z, i_terms=200_000):
    """Directly sum (L h)(z) = sum_i h(1/(i+z))/(i+z)^2 for the full Gauss
    operator, by brute force over many branches plus a crude remainder check.
    Convergence is ~1/i_terms; callers pick i_terms to suit their tolerance.
    """
    i = np.arange(1, i_terms + 1, dtype=float)
    u = 1.0 / (i + z)
    return np.sum(h(u) * u ** 2)


# ---------------------------------------------------------------------------
# arbitrary-precision shifted power sums


def hzeta_reference(s, a, dps=60, head=64, bern_terms=24):
    """sum_{k>=0} (a+k)^(-s) for integer s >= 2 and complex a, Re a > 0,
    via Euler-Maclaurin in mpmath arithmetic. Scalar, slow, precise.
    """
    with mp.workdps(dps):
        am = mp.mpc(a)
        sm = mp.mpf(s)
        total = mp.mpc(0)
        for k in range(head):
            total += (am + k) ** (-sm)
        b = am + head
        total += b ** (1 - sm) / (sm - 1) + b ** (-sm) / 2
        fac = sm
        bpow = b ** (-sm - 1)
        for v in range(1, bern_terms + 1):
            total += mp.bernoulli(2 * v) / mp.factorial(2 * v) * fac * bpow
            fac *= (sm + 2 * v - 1) * (sm + 2 * v)
            bpow /= b * b
        return complex(total)


# ---------------------------------------------------------------------------
# the Gauss operator's Galerkin matrix in Hurwitz zeta values


def gauss_zeta_matrix_mp(N, c, rho, dps=30):
    """The N x N leading block of the continued-fraction operator's matrix
    in the basis ((z - c)/rho)^m, in mpmath at dps digits:

    M[m][n] = rho^(m-n) (-1)^m sum_{k<=n} C(n,k) (-c)^(n-k) C(m+k+1, m)
              zeta(m+k+2, 1+c),

    from L e_n(z) = rho^-n sum_k C(n,k) (-c)^(n-k) zeta(k+2, 1+z) and the
    Taylor series of zeta(s, 1+z) about z = c. No branch is sampled and no
    tail is cut. The binomial sum cancels heavily, so it needs many more
    digits than the result keeps. Entries are mpf for a real c and rho.
    """
    with mp.workdps(dps):
        c, rho = mp.mpf(c), mp.mpf(rho)
        zeta = [mp.zeta(s + 2, 1 + c) for s in range(2 * N - 1)]
        M = mp.matrix(N, N)
        for n in range(N):
            coef = [mp.binomial(n, k) * (-c) ** (n - k) for k in range(n + 1)]
            for m in range(N):
                total = mp.fsum(coef[k] * mp.binomial(m + k + 1, m)
                                * zeta[m + k] for k in range(n + 1))
                M[m, n] = (-1) ** m * rho ** (m - n) * total
        return M


def gauss_zeta_eigenvalues_mp(N, c, rho, dps=30):
    """The eigenvalues of gauss_zeta_matrix_mp(N, c, rho, dps) by mp.eig at
    dps digits, as mpc numbers sorted by non-increasing modulus. Their
    error is the truncation at N, which shrinks geometrically in N."""
    with mp.workdps(dps):
        vals = mp.eig(gauss_zeta_matrix_mp(N, c, rho, dps), left=False,
                      right=False)
        return sorted(vals, key=lambda v: -abs(v))


# ---------------------------------------------------------------------------
# polynomial helpers


def product_poly_coeffs(lams):
    """Ascending coefficients of prod_k (1 - lam_k z)."""
    coeffs = np.array([1.0 + 0.0j])
    for lam in lams:
        coeffs = np.convolve(coeffs, np.array([1.0, -complex(lam)]))
    return coeffs


def newton_coeffs_exact(trace_fracs):
    """Exact-rational determinant coefficients from rational traces t_1..t_M.

    c_0 = 1, c_m = -(1/m) sum_{k=1}^m t_k c_{m-k}.
    """
    M = len(trace_fracs)
    c = [Fraction(1)]
    for m in range(1, M + 1):
        acc = Fraction(0)
        for k in range(1, m + 1):
            acc += Fraction(trace_fracs[k - 1]) * c[m - k]
        c.append(-acc / m)
    return c


def polyroots_mp(coeffs, dps=60):
    """The roots of the polynomial with descending complex coefficients, as
    mpmath numbers at dps digits (mpmath.polyroots, Durand-Kerner)."""
    with mp.workdps(dps):
        return mp.polyroots([mp.mpc(c.real, c.imag) for c in coeffs],
                            maxsteps=500, extraprec=400)


def root_distance_mp(x, roots):
    """min |x - r| / |r| over mpmath roots r, in mpmath arithmetic."""
    x = mp.mpc(complex(x).real, complex(x).imag)
    return float(min(abs(x - r) / abs(r) for r in roots))


def sorted_by_modulus(vals, tie_rtol=1e-10):
    """Non-increasing modulus; moduli within tie_rtol of a run's leader are
    tied and ordered by increasing principal argument, with arg = -pi
    normalized to +pi. Independent restatement of the documented order.
    """
    def ang(v):
        a = float(np.angle(v))
        return np.pi if a == -np.pi else a

    vals = sorted((complex(v) for v in vals), key=lambda v: (-abs(v), ang(v)))
    out = []
    run = []
    for v in vals:
        if run and abs(v) < abs(run[0]) * (1.0 - tie_rtol):
            out.extend(sorted(run, key=ang))
            run = []
        run.append(v)
    out.extend(sorted(run, key=ang))
    return out
