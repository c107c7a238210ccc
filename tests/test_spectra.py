"""Circle-basis discretization, eigenvalue extraction, sequence ordering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from transferspec import spectra, systems
from transferspec import (
    DimensionUnsupported,
    OperatorMatrix,
    assemble_matrix,
    eigenvalues,
    make_affine,
    make_ball,
    make_const,
    make_gauss_system,
    make_system,
    sort_eigenvalues,
    spectral_sequence,
    trace,
)
from transferspec.spectra import _agreeing_prefix


# ---------------------------------------------------------------------------
# matrix assembly


def test_assemble_pure_scaling_is_diagonal():
    a = 0.37
    sys_ = make_system([make_affine(a, 0.0)], [make_const(1.0)],
                       make_ball(0.0, 1.0))
    m = assemble_matrix(sys_, N=5)
    want = np.diag([a ** n for n in range(5)]).astype(complex)
    assert np.max(np.abs(m.data - want)) < 1e-13


def test_assemble_affine_upper_triangular_binomial():
    # basis center 0 is not the fixed point, so (az+b)^n spreads over rows
    # 0..n with binomial coefficients; rows below the diagonal stay zero
    a, b = 0.5, 0.3
    sys_ = make_system([make_affine(a, b)], [make_const(1.0)],
                       make_ball(0.0, 1.0))
    N = 8
    m = assemble_matrix(sys_, N=N)
    want = np.zeros((N, N), dtype=complex)
    for n in range(N):
        for k in range(n + 1):
            want[k, n] = math.comb(n, k) * a ** k * b ** (n - k)
    assert np.max(np.abs(m.data - want)) < 1e-12


def test_assemble_records_full_tail_for_gauss(gauss200):
    m = assemble_matrix(gauss200, N=8)
    assert m.tail_included
    assert m.size == 8
    assert m.system_id


def test_assemble_rejects_higher_dimension(diag2d):
    with pytest.raises(DimensionUnsupported):
        assemble_matrix(diag2d, N=8)


# ---------------------------------------------------------------------------
# eigenvalue extraction and ordering


def _matrix_of(data):
    data = np.asarray(data, dtype=complex)
    return OperatorMatrix(data=data, center=0.0, radius=1.0,
                          size=data.shape[0], system_id="test",
                          tail_included=True, grid=0)


def test_eigenvalues_diagonal_example():
    seq = eigenvalues(_matrix_of(np.diag([0.5 ** n for n in range(5)])))
    assert np.allclose(seq.values, [1, 0.5, 0.25, 0.125, 0.0625], atol=1e-14)
    assert seq.method == "matrix"
    assert seq.reliable_count == 5


def test_eigenvalues_swap_matrix_tie_break():
    seq = eigenvalues(_matrix_of([[0.0, 1.0], [1.0, 0.0]]))
    assert seq.values[0] == pytest.approx(1.0)
    assert seq.values[1] == pytest.approx(-1.0)


def test_sort_tie_break_by_argument():
    vals = [-1.0 + 0.0j, 1.0 + 0.0j, 1.0j, -1.0j, 0.5]
    got = tuple(map(complex, sort_eigenvalues(vals)))
    # moduli 1 first; among them argument increases in (-pi, pi]
    assert got == (-1.0j, 1.0 + 0.0j, 1.0j, -1.0 + 0.0j, 0.5 + 0.0j)


def test_sort_negative_real_argument_normalized():
    # -1 enters with argument +pi however its imaginary zero is signed
    got = sort_eigenvalues([complex(-1.0, -0.0), 1.0 + 0.0j])
    assert complex(got[0]) == 1.0 + 0.0j


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                   allow_infinity=False), max_size=12))
def test_sort_invariants(vals):
    got = tuple(map(complex, sort_eigenvalues(vals)))
    mods = [abs(v) for v in got]
    # non-increasing up to the documented tie tolerance
    assert all(mods[i + 1] <= mods[i] * (1 + 1e-10) for i in range(len(mods) - 1))
    assert got == tuple(oracles.sorted_by_modulus(vals))


# ---------------------------------------------------------------------------
# spectral sequences


def test_affine_spectrum_closed_form(affine_half):
    seq = spectral_sequence(affine_half, N=32)
    assert seq.reliable_count >= 10
    for k in range(10):
        assert abs(seq.values[k] - 0.5 ** k) < 1e-12


def test_gauss_leading_eigenvalue(gauss200):
    seq = spectral_sequence(gauss200, N=40)
    assert abs(seq.values[0] - 1.0) < 1e-12
    assert seq.reliable_count >= 8


def test_gauss_second_eigenvalue_vs_collocation(gauss200):
    # the same operator discretized on Chebyshev points of [0, 1] with the
    # branch sum closed by Euler-Maclaurin; agreement cross-validates both
    m = assemble_matrix(gauss200, N=60)
    seq = eigenvalues(m)
    ref = oracles.collocation_eigenvalues_gauss(K=32, i_direct=4000)
    assert abs(seq.values[1] - ref[1]) < 1e-8
    assert seq.values[1].real == pytest.approx(-0.30366300289873, abs=1e-10)


def test_universality_across_balls(gauss200):
    a = spectral_sequence(gauss200, N=40)
    b = spectral_sequence(gauss200, ball=make_ball(0.9, 1.3), N=40)
    k = min(a.reliable_count, b.reliable_count, 5)
    assert k == 5
    for i in range(k):
        assert abs(a.values[i] - b.values[i]) < 1e-7


def test_zero_weight_system_spectrum(zero_weight):
    seq = spectral_sequence(zero_weight, N=8)
    assert all(v == 0.0 for v in seq.values)


def test_trace_consistency(gauss4):
    seq = spectral_sequence(gauss4, N=40)
    t1 = trace(gauss4, 1)
    total = sum(seq.values)
    slack = abs(seq.values[min(seq.reliable_count, len(seq.values) - 1)])
    assert abs(total - t1.value) <= slack + 1e-10


# the two discs of the CLI examples: the preset's own, and a smaller one
DISC_B = make_ball(0.8, 1.2)


@pytest.mark.parametrize("N", [32, 128])
@pytest.mark.parametrize("case", ["gauss-a", "gauss-b", "gauss4"])
def test_sequence_values_are_the_2N_matrix_eigenvalues(case, N, gauss200,
                                                       gauss4):
    sys_, ball = {"gauss-a": (gauss200, None), "gauss-b": (gauss200, DISC_B),
                  "gauss4": (gauss4, None)}[case]
    want = eigenvalues(assemble_matrix(sys_, ball, 2 * N)).values
    assert spectral_sequence(sys_, ball, N).values == want


def test_sequence_assembles_once(gauss4, monkeypatch):
    sizes = []

    def counted(sys_, ball=None, N=32):
        sizes.append(N)
        return assemble_matrix(sys_, ball, N)

    monkeypatch.setattr(spectra, "assemble_matrix", counted)
    spectral_sequence(gauss4, N=16)
    assert sizes == [32]


def test_reliable_values_are_space_independent(gauss200):
    # the spectrum does not depend on the disc: every value the size-32
    # check certifies on disc B matches the disc-A values at size 128
    ref = spectral_sequence(gauss200, N=128).values
    seq = spectral_sequence(gauss200, DISC_B, 32)
    assert seq.reliable_count >= 10
    for k in range(seq.reliable_count):
        assert abs(seq.values[k] - ref[k]) <= 1e-8


def test_eigensolver_runs_on_one_blas_thread(monkeypatch):
    calls = spectra._openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS thread setter found in this process")
    set_threads, get_threads = calls
    seen = []
    solve = np.linalg.eigvals

    def watched(a):
        seen.append(get_threads())
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvals", watched)
    before = get_threads()
    try:
        set_threads(2)
        eigenvalues(_matrix_of(np.eye(3)))
        assert seen == [1]
        assert get_threads() == 2       # the caller's count comes back
    finally:
        set_threads(before)


def test_gauss_tail_runs_on_one_blas_thread(monkeypatch):
    calls = spectra._openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS thread setter found in this process")
    set_threads, get_threads = calls
    seen = []
    factory = systems._gauss_power_tail

    def watched_factory(*args, **kwargs):
        tail = factory(*args, **kwargs)

        def watched(*targs, **tkwargs):
            seen.append(get_threads())
            return tail(*targs, **tkwargs)
        return watched

    monkeypatch.setattr(systems, "_gauss_power_tail", watched_factory)
    sys_ = make_gauss_system(20)
    before = get_threads()
    try:
        set_threads(2)
        assemble_matrix(sys_, N=8)
        assert seen == [1]
        assert get_threads() == 2       # the caller's count comes back
    finally:
        set_threads(before)


# ---------------------------------------------------------------------------
# refinement agreement bookkeeping


def test_agreeing_prefix_basics():
    assert _agreeing_prefix((1.0, 0.5), (1.0, 0.5)) == 2
    assert _agreeing_prefix((1.0, 0.5), (1.0, 0.7)) == 1
    assert _agreeing_prefix((), (1.0,)) == 0
    # disagreement stops the count even if later entries match
    assert _agreeing_prefix((1.0, 0.9, 0.5), (1.0, 0.2, 0.5)) == 1


def test_agreeing_prefix_lead_scale_semantics():
    # a deep eigenvalue differing by less than rtol * |lambda_1| is ok when
    # scaled by the leading modulus, not ok pointwise
    a = (1.0, 1e-12)
    b = (1.0, 3e-12)
    assert _agreeing_prefix(a, b, rtol=1e-8, lead_scale=True) == 2
    assert _agreeing_prefix(a, b, rtol=1e-8, lead_scale=False) == 1


def test_agreeing_prefix_zero_pairs_count():
    assert _agreeing_prefix((0.0, 0.0), (0.0, 0.0), lead_scale=False) == 2

