"""Circle-basis discretization, eigenvalue extraction, sequence ordering."""

import math
import pathlib
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import as_plain_maps
from transferspec import cli, spectra, systems
from transferspec import (
    AnalyticMap,
    DimensionUnsupported,
    SolverFailure,
    TransferOperatorError,
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
    assert np.max(np.abs(m - want)) < 1e-13


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
    assert np.max(np.abs(m - want)) < 1e-12


def test_assemble_includes_the_gauss_tail(gauss200, monkeypatch):
    # the matrix of the full family differs from that of the 200 branches
    # alone, whose tail is zero
    m = assemble_matrix(gauss200, N=8)
    assert m.shape == (8, 8)

    def no_tail(i_max):
        return lambda z, count, center: np.zeros((count, len(z)), complex)

    monkeypatch.setattr(systems, "_gauss_power_tail", no_tail)
    assert not np.array_equal(m, assemble_matrix(gauss200, N=8))


def test_assemble_rejects_higher_dimension(diag2d):
    with pytest.raises(DimensionUnsupported):
        assemble_matrix(diag2d, N=8)


def test_assemble_refuses_unusable_arguments(affine_half):
    with pytest.raises(TypeError,
                       match=r"^assemble_matrix needs a MapWeightSystem$"):
        assemble_matrix(affine_half.branches, N=8)
    with pytest.raises(ValueError, match=r"^N must be >= 1$"):
        assemble_matrix(affine_half, N=0)


def test_eigenvalues_refuse_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match=r"^expected a square matrix, got "
                                         r"shape \(2, 3\)$"):
        eigenvalues(np.ones((2, 3)))


@pytest.mark.parametrize("center", [0.0, 0.01j], ids=["real", "complex"])
def test_assemble_past_the_double_range_is_refused(center):
    # W = 1e308 is a double, but the transforms of the samples overflow:
    # one error naming the size, and no numpy warning (the suite runs with
    # error::RuntimeWarning), on the real and the complex route
    sys_ = make_system([make_affine(0.5, b) for b in (0.1, -0.1)],
                       [make_const(5e307)] * 2, make_ball(center, 1.0))
    with pytest.raises(TransferOperatorError) as err:
        assemble_matrix(sys_, N=16)
    assert str(err.value) == ("the 16 x 16 matrix has an entry that is not "
                              "finite")


def _moebius_desc(weight, b=0.2):
    return {"family": "moebius_list",
            "params": [{"a": 0.3, "b": b, "c": 0.1, "e": 1.0,
                        "weight": weight},
                       {"a": -0.25, "b": 0.4, "c": 0.0, "e": 1.0,
                        "weight": 0.5}],
            "domain": {"center": [0.0, 0.0], "radius": 1.0, "dim": 1}}


# real Moebius coefficients, real weight factors and a real center, decided
# from the data, or plain maps whose samples at conjugate points are the
# exact conjugates: a complex number anywhere keeps the complex route
@pytest.mark.parametrize("case, real", [
    ("gauss", True), ("gauss4", True), ("affine_half", True),
    ("real-moebius", True), ("complex-coefficient", False),
    ("complex-weight", False), ("complex-center", False),
    ("gauss-complex-center", False), ("user-maps", True)])
def test_real_route_takes_conjugation_symmetric_systems(case, real, gauss200,
                                                        gauss4, affine_half):
    sys_, ball = {
        "gauss": (gauss200, None),
        "gauss4": (gauss4, None),
        "affine_half": (affine_half, None),
        "real-moebius": (systems.system_from_descriptor(
            _moebius_desc("derivative")), None),
        "complex-coefficient": (systems.system_from_descriptor(
            _moebius_desc("derivative", b=[0.2, 0.1])), None),
        "complex-weight": (systems.system_from_descriptor(
            _moebius_desc([1.0, 0.5])), None),
        "complex-center": (gauss4, make_ball(1.0 + 0.1j, 1.4)),
        "gauss-complex-center": (gauss200, make_ball(1.0 + 0.1j, 1.4)),
        "user-maps": (as_plain_maps(gauss4), None),
    }[case]
    m = assemble_matrix(sys_, ball, N=16)
    assert m.dtype == (np.float64 if real else np.complex128)
    assert m.shape == (16, 16)
    if case == "user-maps":     # the plain maps carry their twin's bits
        twin = assemble_matrix(gauss4, N=16)
        assert np.array_equal(m.view(np.int64), twin.view(np.int64))


def _gauss4_lambdas():
    """gauss4 as bare lambdas with no derivatives: branches 1/(e + z),
    weights 1/((e + z)(e + z))."""
    shifts = (1.0, 2.0, 3.0, 4.0)
    branches = [AnalyticMap(lambda z, e=e: 1.0 / (e + z)) for e in shifts]
    weights = [AnalyticMap(lambda z, e=e: 1.0 / ((e + z) * (e + z)))
               for e in shifts]
    return make_system(branches, weights, make_ball(1.0, 1.5))


@pytest.mark.parametrize("name, N", [
    (name, N) for name in ("affine_half", "gauss4", "real-moebius")
    for N in (16, 64)] + [("gauss4-lambdas", 64)])
def test_plain_maps_of_a_real_system_give_its_sequence(name, N, request):
    # the same branches and weights as plain callables are sampled at the
    # conjugate points instead of read off real arrays, and give the
    # Moebius system's spectrum CSV, byte for byte
    if name == "gauss4-lambdas":
        sys_, plain = request.getfixturevalue("gauss4"), _gauss4_lambdas()
    else:
        sys_ = systems.system_from_descriptor(_moebius_desc("derivative")) \
            if name == "real-moebius" else request.getfixturevalue(name)
        plain = as_plain_maps(sys_)
    want = cli._spectrum_csv_text(spectral_sequence(sys_, N=N))
    assert cli._spectrum_csv_text(spectral_sequence(plain, N=N)) == want


def test_real_plain_maps_give_a_spectrum_closed_under_conjugation():
    # branches 1/(e+z) and weights f/(e+z)^2, one f negative, as lambdas
    shifts, factors = (1.0, 2.0, 3.0, 4.0), (1.0, -0.5, 1.0, 0.25)
    branches = [AnalyticMap(lambda z, e=e: 1.0 / (e + z)) for e in shifts]
    weights = [AnalyticMap(lambda z, e=e, f=f: f / ((e + z) * (e + z)))
               for e, f in zip(shifts, factors)]
    sys_ = make_system(branches, weights, make_ball(1.0, 1.5))
    seq = spectral_sequence(sys_, N=32)
    values = seq.values
    # the resolved values are real (the complex matrix puts them within
    # 4e-17 of the axis), and come out exactly real
    assert seq.reliable_count >= 5
    assert all(v.imag == 0.0 for v in values[:seq.reliable_count])
    pairs = 0
    for v in values:
        if v.imag == 0.0:
            continue
        assert values.count(v.conjugate()) == values.count(v)
        pairs += 1
    assert pairs > 0                    # the check compared something


# ---------------------------------------------------------------------------
# eigenvalue extraction and ordering


def test_eigenvalues_diagonal_example():
    seq = eigenvalues(np.diag([0.5 ** n for n in range(5)]).astype(complex))
    assert np.allclose(seq.values, [1, 0.5, 0.25, 0.125, 0.0625], atol=1e-14)
    assert seq.reliable_count == 5


def test_eigenvalues_swap_matrix_tie_break():
    seq = eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
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


_DISC_A, _DISC_B = (1.0, 1.5), (0.8, 1.2)
# |lambda_k(24) - lambda_k(40)|, k = 1..7, of gauss_zeta_eigenvalues_mp at
# N = 24 and 30 digits against N = 40 at 40 digits: the size-24 oracle's
# truncation error on each disc, which the comparisons below allow twice
_ZETA24_ERROR = {
    _DISC_A: (3.3e-9, 1.5e-8, 4.5e-8, 1.3e-7, 3.2e-7, 7.4e-7, 1.5e-6),
    _DISC_B: (1.6e-10, 7.0e-10, 2.1e-9, 6.1e-9, 1.6e-8, 3.9e-8, 8.5e-8),
}


def _wirsing_mp():
    """bench/oracles.WIRSING's 35-digit literal as an mpmath number."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "bench"
            / "oracles.py").read_text()
    return mpmath.mpf(re.search(r"^WIRSING = ([0-9.]+)$", text,
                                re.M).group(1))


def test_gauss_spectrum_matches_the_zeta_galerkin_oracle():
    # the Hurwitz-zeta Galerkin matrix shares only the basis with the code
    # under test: no branch sampling, no tail cut, no FFT. By the paper's
    # theorem the spectrum is the same on both discs, so each disc's
    # oracle, the collocation on [0, 1] and the preset's size-128
    # eigenvalues on both discs must agree within the oracle's error
    tol = {disc: [2 * e for e in err] for disc, err in _ZETA24_ERROR.items()}
    zeta = {}
    with mpmath.workdps(30):
        wirsing = _wirsing_mp()
        for disc in (_DISC_A, _DISC_B):
            vals = oracles.gauss_zeta_eigenvalues_mp(24, *disc, dps=30)
            assert abs(abs(vals[1]) - wirsing) <= tol[disc][1]
            zeta[disc] = [complex(v) for v in vals]
    coll = oracles.collocation_eigenvalues_gauss()     # stable to 1e-9
    for k in range(7):
        assert abs(zeta[_DISC_B][k] - coll[k]) <= tol[_DISC_B][k] + 1e-9
    for k in range(5):
        assert (abs(zeta[_DISC_A][k] - zeta[_DISC_B][k])
                <= tol[_DISC_A][k] + tol[_DISC_B][k])
    for disc in (_DISC_A, _DISC_B):
        seq = spectral_sequence(make_gauss_system(200, make_ball(*disc)),
                                N=128)
        for k in range(5):
            assert abs(seq.values[k] - zeta[_DISC_B][k]) <= tol[_DISC_B][k]


@pytest.mark.parametrize("disc", [_DISC_A, _DISC_B])
def test_gauss_leading_eigenvectors_match_closed_forms(disc):
    # lambda_1 = 1 has the eigenfunction h(z) = 1 / ((1 + z) ln 2) and the
    # invariant functional l(f) = int_0^1 f, so in the basis ((z - c)/rho)^m
    # h_m = (-rho/(1+c))^m / ((1+c) ln 2) and
    # l_m = ((1-c)^(m+1) - (-c)^(m+1)) / ((m+1) rho^m), with <l, h> = 1.
    # Vectors come from eig here only: printed values stay on eigvals
    c, rho = disc
    m = np.arange(128)
    h = (-rho / (1 + c)) ** m / ((1 + c) * math.log(2))
    ell = ((1 - c) ** (m + 1) - (-c) ** (m + 1)) / ((m + 1) * rho ** m)
    matrix = assemble_matrix(make_gauss_system(200, make_ball(c, rho)), N=128)
    found = []
    for mat, want in ((matrix, h), (matrix.T, ell)):
        vals, vecs = np.linalg.eig(mat)
        vec = vecs[:, np.argmin(np.abs(vals - 1.0))]
        vec = vec * (want[0] / vec[0])
        assert np.max(np.abs(vec - want)) <= 1e-15
        found.append(vec)
    assert abs(found[1] @ found[0] - 1.0) <= 1e-15


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
        eigenvalues(np.eye(3, dtype=complex))
        assert seen == [1]
        assert get_threads() == 2       # the caller's count comes back
    finally:
        set_threads(before)


def test_no_openblas_setter_leaves_the_threads_alone(monkeypatch):
    # where no OpenBLAS setter is found the solve and the tail run as they
    # are: the lock that guards the setter is never taken
    class Untouched:
        def __enter__(self):
            raise AssertionError("the BLAS thread lock was taken")

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(spectra, "_openblas_thread_calls", lambda: None)
    monkeypatch.setattr(spectra, "_BLAS_LOCK", Untouched())
    with spectra._one_blas_thread():
        pass
    # N = 24, as at N = 8 the truncation alone leaves lambda_1 off by 1e-6
    seq = spectral_sequence(make_gauss_system(20), N=24)
    assert abs(seq.values[0] - 1.0) <= 1e-14


def test_openblas_lookup_without_proc_maps_finds_none(monkeypatch):
    def no_file(*args, **kwargs):
        raise OSError("no /proc/self/maps")

    monkeypatch.setattr("builtins.open", no_file)
    assert spectra._openblas_thread_calls.__wrapped__() is None


def test_eigensolver_failure_is_a_solver_failure(monkeypatch):
    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fails)
    with pytest.raises(SolverFailure) as err:
        eigenvalues(np.eye(3))
    assert str(err.value) == ("dense eigensolver failed: Eigenvalues did "
                              "not converge")


@pytest.mark.parametrize("data, solver_dtype", [
    (np.array([[2.0, 1.0], [-1.0, 2.0]]), np.float64),
    ([[2, 1], [-1, 2]], np.float64),
    (np.array([[2.0, 1.0], [-1.0, 2.0]], dtype=complex), np.complex128)])
def test_eigenvalues_real_array_takes_real_solver(monkeypatch, data,
                                                  solver_dtype):
    seen = []
    solve = np.linalg.eigvals

    def watched(a):
        seen.append(a.dtype)
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvals", watched)
    seq = eigenvalues(data)
    assert seen == [solver_dtype]
    assert np.allclose(seq.values, (2 - 1j, 2 + 1j), rtol=0.0, atol=1e-15)
    if solver_dtype == np.float64:      # a real solver's pair is conjugate
        assert seq.values[0] == seq.values[1].conjugate()


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
    # a deep eigenvalue differing by less than AGREEMENT_RTOL * |lambda_1|
    # is ok when scaled by the leading modulus, not ok pointwise
    a = (1.0, 1e-12)
    b = (1.0, 3e-12)
    assert _agreeing_prefix(a, b, lead_scale=True) == 2
    assert _agreeing_prefix(a, b, lead_scale=False) == 1


def test_agreeing_prefix_zero_pairs_count():
    assert _agreeing_prefix((0.0, 0.0), (0.0, 0.0), lead_scale=False) == 2

