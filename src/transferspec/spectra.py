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
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DimensionUnsupported, SolverFailure
from .systems import (
    CountableTruncated,
    MapWeightSystem,
    _branch_values_on_grid,
    _power_sums,
)

AGREEMENT_RTOL = 1e-8


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense matrix of the operator in the circle basis, with provenance."""

    data: object            # (N, N) complex ndarray
    center: complex
    radius: float
    size: int
    system_id: str
    tail_included: bool
    grid: int


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
    method: str

    def moduli(self):
        return tuple(abs(v) for v in self.values)


# ---------------------------------------------------------------------------
# assembly


def assemble_matrix(sys_, ball=None, N=32):
    """N x N matrix of the operator in the circle basis of the given ball.

    The ball defaults to the system's domain; a different admissible ball
    may be passed to discretize the same operator on another space.
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
    # not BallDomain.boundary_points: its exp(1j * (2 pi k / m)) differs from
    # this exp(2j pi k / m) in the last bit at some k, which moves noise
    # digits of the spectrum CSV, so the grids stay two formulas
    zs = c + rho * np.exp(2j * np.pi * np.arange(grid) / grid)

    t, w = _branch_values_on_grid(sys_, zs)
    s = (t - c) / rho
    del t                       # freed before the power sums run

    g = np.zeros((N, grid), dtype=complex)
    _power_sums(w, s, g)
    del w, s                    # freed before the tail builds its own tables

    tail_included = isinstance(sys_.alphabet, CountableTruncated)
    if tail_included:
        # its small products run 10-20x slower on more BLAS threads
        with _one_blas_thread():
            tail = sys_.alphabet.power_tail(zs, N, c)
        tail *= (rho ** -np.arange(N, dtype=float))[:, None]
        g += tail
        del tail

    cols = np.fft.fft(g, axis=1) / grid
    data = np.ascontiguousarray(cols[:, :N].T)
    return OperatorMatrix(data, c, rho, int(N), sys_.system_id,
                          tail_included, grid)


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
    """All eigenvalues of an OperatorMatrix (or a bare square array), sorted.

    No refinement comparison happens here, so reliable_count is simply the
    full length; use spectral_sequence for a stability assessment.
    """
    data = matrix.data if isinstance(matrix, OperatorMatrix) else matrix
    data = np.asarray(data, dtype=complex)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {data.shape}")
    try:
        with _one_blas_thread():
            vals = np.linalg.eigvals(data)
    except np.linalg.LinAlgError as err:
        raise SolverFailure(f"dense eigensolver failed: {err}") from err
    ordered = sort_eigenvalues(vals)
    return EigenvalueSequence(tuple(ordered), len(ordered), "matrix")


def _agreeing_prefix(a, b, rtol=AGREEMENT_RTOL, lead_scale=True):
    """Length of the leading run where two sorted sequences agree.

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
        if abs(x - y) <= rtol * scale:
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
    small = eigenvalues(big.data[:N, :N])
    rc = _agreeing_prefix(small.values, large.values)
    return EigenvalueSequence(large.values, rc, "matrix")
