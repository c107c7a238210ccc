"""Matrix discretization of the transfer operator on a circle basis (dim 1).

The operator is represented in the orthonormal Hardy basis
p_n(z) = ((z - c)/rho)^n of the ball |z - c| < rho. Column n of the matrix
holds the basis coefficients of L p_n, extracted by sampling
g_n(z) = sum_i w_i(z) ((T_i(z) - c)/rho)^n on one shared boundary grid and
taking the discrete Fourier transform: entry (m, n) is the m-th Taylor
coefficient of g_n at c, times rho^m. Because every branch image lies in a
strictly smaller concentric ball, the integrands are analytic past the
contour and the trapezoidal coefficients converge geometrically.

For a truncated countable family the alphabet's closed-form tail power
sums add the dropped branches' contribution analytically, so the matrix
represents the full operator rather than its truncation.

A conjugation-symmetric system has g_n(conj z) = conj g_n(z), and the
grid is symmetric about the real axis, so the samples are Hermitian and
the matrix is real. Such a system is sampled on the upper half circle
alone (grid/2 + 1 points), its columns come from the inverse real
transform of that half, and its eigenvalues from the real eigensolver:
real eigenvalues come out exactly real and the others in exactly
conjugate pairs. About a real center, a system carried by Moebius
coefficients and a weight law is symmetric when those numbers are all
real (systems._real_data). A finite system of callables is read off the
samples the matrix is built from: each column block is also sampled at
the conjugates of its points, and the half circle serves when every
branch image and weight there is the exact conjugate of its value at the
point. At the first block where one is not, the assembly starts again on
the whole circle. Every other system (complex data or center, asymmetric
samples, a callable system with a tail) keeps the complex matrix and the
complex eigensolver.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DimensionUnsupported, SolverFailure, TransferOperatorError
from .systems import (
    CountableTruncated,
    MapWeightSystem,
    _branch_values_on_grid,
    _column_blocks,
    _power_sums,
    _real_data,
)

AGREEMENT_RTOL = 1e-8


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class EigenvalueSequence:
    """Eigenvalues ordered by non-increasing modulus.

    Ties in modulus are broken by increasing principal argument in (-pi, pi],
    making the order deterministic. reliable_count marks how many leading
    entries survived a refinement comparison; eigenvalues() alone performs
    no refinement and marks all entries.
    """

    values: tuple
    reliable_count: int

    def moduli(self):
        return tuple(abs(v) for v in self.values)


# ---------------------------------------------------------------------------
# assembly


def assemble_matrix(sys_, ball=None, N=32):
    """N x N matrix of the operator in the circle basis of the given ball:
    float64 for a conjugation-symmetric system (real arrays, or samples
    that show it), complex otherwise.

    The ball defaults to the system's domain; a different admissible ball
    may be passed to discretize the same operator on another space. A
    matrix with an entry that is not finite, whose samples sum past the
    double range, is refused.
    """
    if not isinstance(sys_, MapWeightSystem):
        raise TypeError("assemble_matrix needs a MapWeightSystem")
    if sys_.dim != 1:
        raise DimensionUnsupported(
            "matrix assembly is implemented for dim 1 only; use the "
            "determinant route for higher dimension")
    if N < 1:
        raise ValueError("N must be >= 1")
    ball = sys_.domain if ball is None else ball
    c, rho = complex(ball.center), float(ball.radius)
    grid = 4 * N
    # the upper half circle k = 0..grid/2 holds every sample of a system
    # that is conjugation-symmetric about a real center: one carried by
    # real arrays, or one of callables (finite, as only the Gauss builder
    # attaches a tail) whose samples at the conjugate points show it
    gathered = sys_.coefficients is None or sys_.law is None
    g = None
    if c.imag == 0.0 and (_real_data(sys_) or gathered):
        g = _power_table(sys_, ball, N, grid // 2 + 1, mirrored=gathered)
    real = g is not None
    if not real:
        g = _power_table(sys_, ball, N, grid)

    # the columns' first N coefficients, a block of g's rows at a time; a
    # transform that overflows is refused below, not warned about
    data = np.empty((N, N), dtype=float if real else complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _column_blocks(N, grid):
            if real:    # the transform of the Hermitian extension of the half
                block = np.fft.hfft(g[rows], n=grid, axis=1)
            else:
                block = np.fft.fft(g[rows], axis=1)
            block /= grid
            data[:, rows] = block[:, :N].T
    if not np.isfinite(data).all():
        raise TransferOperatorError(
            f"the {N} x {N} matrix has an entry that is not finite")
    return data


def _power_table(sys_, ball, N, count, mirrored=False):
    """The (N, count) table of g_n, n < N, at the first count of the
    4N boundary points, with the tail's scaled rows when the alphabet has
    a tail. With mirrored, each column block's branches are also sampled
    at the conjugates of its points, in the same gather, and None comes
    back at the first block whose images or weights there are not the
    exact conjugates of those at the points. Entries past the double
    range are left to assemble_matrix's finiteness check.
    """
    c, rho = complex(ball.center), float(ball.radius)
    zs = ball.boundary_points(4 * N, count)

    # the tail's table, scaled, is the start of the power sums: S + tail
    # and tail + S are the same sum
    if isinstance(sys_.alphabet, CountableTruncated):
        # its small products run 10-20x slower on more BLAS threads
        with _one_blas_thread():
            g = np.asarray(sys_.alphabet.power_tail(zs, N, c), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            g *= (rho ** -np.arange(N, dtype=float))[:, None]
    else:
        g = np.zeros((N, zs.size), dtype=complex)

    # branch tables one column block at a time, so g is the one grid table
    for cols in _column_blocks(zs.size, sys_.n_letters):
        if mirrored:
            pts = zs[cols]
            s, w = _branch_values_on_grid(
                sys_, np.concatenate([pts, pts.conj()]))
            half = pts.size
            if not (np.array_equal(s[:, half:], s[:, :half].conj())
                    and np.array_equal(w[:, half:], w[:, :half].conj())):
                return None
            s = np.ascontiguousarray(s[:, :half])
            w = np.ascontiguousarray(w[:, :half])
        else:
            s, w = _branch_values_on_grid(sys_, zs[cols])
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(s, c, out=s)    # the base (t - c) / rho, in place
            np.divide(s, rho, out=s)
            _power_sums(w, s, g[:, cols])
    return g


# ---------------------------------------------------------------------------
# eigenvalues

# (setter, getter) thread-count symbols of the OpenBLAS builds numpy ships:
# the scipy-openblas wheels prefix and suffix them, older builds do not
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_BLAS_LOCK = threading.Lock()


@functools.lru_cache(maxsize=None)
def _openblas_thread_calls():
    """(set, get) thread-count functions of the OpenBLAS already loaded
    into this process, or None where none is found (no /proc/self/maps, a
    BLAS other than OpenBLAS, or none of the known symbols)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread, then restore the previous count.

    LAPACK's eigenvalues change in their last digits with the BLAS thread
    count, so pinning it makes the spectrum bytes independent of
    OPENBLAS_NUM_THREADS. The lock keeps concurrent callers from restoring
    each other's counts mid-call. Without a known OpenBLAS this does
    nothing.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    set_threads, get_threads = calls
    with _BLAS_LOCK:
        before = get_threads()
        set_threads(1)
        try:
            yield
        finally:
            set_threads(before)


def sort_eigenvalues(values):
    """Order by non-increasing modulus, ties by increasing principal
    argument in (-pi, pi].

    Moduli within 1e-10 (relative to the larger) count as tied: genuine
    ties such as conjugate pairs come out of the eigensolver separated by
    ulps, and the argument order, not that noise, must decide.
    """
    values = np.asarray(values, dtype=complex)
    args = np.angle(values)
    args[args <= -np.pi + 0.0] = np.pi  # normalize the -pi edge to +pi
    order = np.lexsort((args, -np.abs(values)))
    values, args = values[order], args[order]
    mods = np.abs(values)
    out = []
    lo = 0
    for hi in range(1, len(values) + 1):
        if hi == len(values) or mods[hi] < mods[lo] * (1.0 - 1e-10):
            run = sorted(range(lo, hi), key=lambda k: args[k])
            out.extend(values[k] for k in run)
            lo = hi
    return np.asarray(out, dtype=complex)


def eigenvalues(matrix):
    """All eigenvalues of a square array, sorted.

    No refinement comparison happens here, so reliable_count is simply the
    full length; use spectral_sequence for a stability assessment.
    """
    # a real matrix goes to the real solver: real eigenvalues come out
    # exactly real, the others in exactly conjugate pairs
    data = np.asarray(matrix,
                      dtype=complex if np.iscomplexobj(matrix) else float)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {data.shape}")
    try:
        with _one_blas_thread():
            vals = np.linalg.eigvals(data)
    except np.linalg.LinAlgError as err:
        raise SolverFailure(f"dense eigensolver failed: {err}") from err
    ordered = sort_eigenvalues(vals)
    return EigenvalueSequence(tuple(ordered), len(ordered))


def _agreeing_prefix(a, b, lead_scale=True):
    """Length of the leading run where two sorted sequences agree to
    relative tolerance AGREEMENT_RTOL.

    With lead_scale (the matrix-route refinement test) the comparison scale
    for each pair is the larger of the pair's moduli and the sequences'
    leading moduli: eigenvalue perturbations of a matrix are an absolute
    phenomenon, so deep entries of a decaying sequence are judged against
    the sequence scale. Without it each pair is judged purely relatively,
    the conservative choice where successive refinements can drift together
    (polynomial degree truncation). Two exact zeros agree either way.
    """
    lead = 0.0
    if lead_scale:
        if len(a):
            lead = max(lead, abs(a[0]))
        if len(b):
            lead = max(lead, abs(b[0]))
    count = 0
    for x, y in zip(a, b):
        scale = max(abs(x), abs(y), lead)
        if scale == 0.0:
            count += 1
            continue
        if abs(x - y) <= AGREEMENT_RTOL * scale:
            count += 1
        else:
            break
    return count


def spectral_sequence(sys_, ball=None, N=32):
    """Eigenvalues with a refinement-based reliability count.

    Assembles once, at size 2N, and returns that matrix's eigenvalues. The
    size-N discretization is the leading N x N block of the same matrix:
    entry (m, n) is the m-th coefficient of L p_n whatever the size, so the
    block is the size-N Galerkin matrix, taken on the 2N grid (8N points)
    rather than its own 4N. reliable_count is the length of the leading
    eigenvalue run agreeing to relative tolerance 1e-8 between the two
    sizes (a heuristic: no a-posteriori eigenvalue bound is claimed).
    """
    big = assemble_matrix(sys_, ball, 2 * N)
    large = eigenvalues(big)
    small = eigenvalues(big[:N, :N])
    rc = _agreeing_prefix(small.values, large.values)
    return EigenvalueSequence(large.values, rc)
