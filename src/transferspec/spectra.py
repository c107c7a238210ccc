"""Matrix discretization of the transfer operator on a circle basis (dim 1).

The operator is represented in the orthonormal Hardy basis
p_n(z) = ((z - c)/rho)^n of the ball |z - c| < rho. Column n of the matrix
holds the basis coefficients of L p_n, extracted by sampling
g_n(z) = sum_i w_i(z) ((T_i(z) - c)/rho)^n on one shared boundary grid and
taking the discrete Fourier transform: entry (m, n) is the m-th Taylor
coefficient of g_n at c, times rho^m. Because every branch image lies in a
strictly smaller concentric ball, the integrands are analytic past the
contour and the trapezoidal coefficients converge geometrically.

For truncated countable families whose alphabet supplies closed-form tail
power sums, the dropped branches' contribution is added analytically, so
the matrix represents the full operator rather than its truncation; the
recorded tail bound is then zero. Without such data the truncation is
recorded through the alphabet's weight tail bound.
"""

from __future__ import annotations

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
    tail_bound: float       # bound on the dropped tail; 0 when included
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

    g = np.zeros((N, grid), dtype=complex)
    _power_sums(w, s, g)
    del t, w, s                 # freed before the tail builds its own tables

    tail_included = False
    tail_bound = 0.0
    alpha = sys_.alphabet
    if isinstance(alpha, CountableTruncated):
        if alpha.power_tail is not None:
            tail = alpha.power_tail(zs, N, c)
            scale = rho ** -np.arange(N, dtype=float)
            g += tail * scale[:, None]
            tail_included = True
        else:
            tail_bound = float(alpha.weight_tail_bound)

    cols = np.fft.fft(g, axis=1) / grid
    data = np.ascontiguousarray(cols[:, :N].T)
    return OperatorMatrix(data, c, rho, int(N), sys_.system_id,
                          tail_bound, tail_included, grid)


# ---------------------------------------------------------------------------
# eigenvalues


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

    Assembles at sizes N and 2N; reliable_count is the length of the leading
    eigenvalue run agreeing to relative tolerance 1e-8 between the two
    discretizations (a heuristic: no a-posteriori eigenvalue bound is
    claimed). The returned values come from the finer run.
    """
    small = eigenvalues(assemble_matrix(sys_, ball, N))
    large = eigenvalues(assemble_matrix(sys_, ball, 2 * N))
    rc = _agreeing_prefix(small.values, large.values)
    return EigenvalueSequence(large.values, rc, "matrix")
