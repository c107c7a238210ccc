"""The matrix route's tables, bit for bit against whole-array loops.

The assembly and the Gauss tail walk the grid in fixed column blocks
aligned at 0 (systems._column_blocks), and no block is one column wide:
numpy sums a one-column block pairwise and takes a one-column matrix
product down another BLAS path, while a wider block is summed row by row
and multiplied as the whole grid is. So the blocked power sums, the
blocked zeta products and the broadcast Moebius branch table must give
every entry the same operations, in the same order, as the plain loops
below. numpy's complex multiply rounds a * b and b * a differently in the
last bit, so each reference keeps its site's operand order: the assembly
steps powers * s, the Gauss tail steps (t - center) * p. The Gauss tail's
closed-form part is one product of the Pascal table C(n, j) (-c)^(n-j),
built in long double for the orders a double holds as normal numbers, with
the zeta rows of hzeta_rows; the reference takes the cutoff and those
orders from the tail's own rules (systems._gauss_tail_cutoff,
normal_orders), builds the product with the same numpy operations on the
whole grid at once, then adds the explicit branches row by row. A
conjugation-symmetric system (real data, real center) is sampled on the
upper half circle only and its columns come from np.fft.hfft, as in
assemble_matrix; any other system takes the full circle and np.fft.fft.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import GAUSS4_DESC, as_plain_maps
from transferspec import (
    assemble_matrix,
    make_ball,
    make_const,
    make_gauss_system,
    make_moebius,
    make_system,
    spectra,
    system_from_descriptor,
    systems,
)
from transferspec._zeta import hzeta_rows, normal_orders
from transferspec.systems import AnalyticMap, MapWeightSystem

MIXED_DESC = {
    "family": "moebius_list",
    "params": [
        {"a": [0.3, 0.1], "b": [0.2, -0.1], "c": [0.1, 0.05], "e": 1.0,
         "weight": "derivative"},
        {"a": [-0.25, 0.0], "b": [0.4, 0.2], "c": [0.0, 0.1],
         "e": [1.0, 0.1], "weight": "neg_derivative"},
        {"a": [0.2, -0.1], "b": [-0.3, 0.0], "c": 0.0, "e": 1.0,
         "weight": [0.5, -0.25]},
    ],
    "domain": {"center": [0.0, 0.0], "radius": 1.0, "dim": 1},
}


def same_bits(x, y):
    # integer views: signed zeros count as different
    return x.shape == y.shape and np.array_equal(
        np.ascontiguousarray(x).view(np.int64),
        np.ascontiguousarray(y).view(np.int64))


def gathered_table(sys_, zs):
    n, g = sys_.n_letters, zs.size
    letters = np.repeat(np.arange(1, n + 1), g)
    pts = np.tile(zs, n)
    return (sys_.apply_letters(letters, pts).reshape(n, g),
            sys_.weight_letters(letters, pts).reshape(n, g))


def reference_tail(i_max, z, count, center):
    low = float(z.real.min())
    cutoff = systems._gauss_tail_cutoff(i_max, count, center, low)
    orders = normal_orders(count, cutoff + 1 + low)
    pascal = np.zeros((count, orders), dtype=np.clongdouble)
    pascal[0, 0] = 1.0
    c = np.clongdouble(center)
    for n in range(1, count):
        m, k = min(n, orders - 1), min(n, orders)
        pascal[n, 1:m + 1] = pascal[n - 1, :m]
        pascal[n, :k] -= c * pascal[n - 1, :k]
    out = pascal.astype(complex) @ hzeta_rows(orders, cutoff + 1 + z)
    t = 1.0 / (np.arange(i_max + 1, cutoff + 1)[:, None] + z[None, :])
    w = t * t
    p = np.ones_like(t)
    for n in range(count):
        out[n] += (w * p).sum(axis=0)
        p = np.multiply(t - center, p)
    return out


def reference_matrix(sys_, N, half, ball=None):
    # half: the system is conjugation-symmetric, so only the upper half
    # circle k = 0..grid/2 is sampled and the columns come from hfft
    ball = sys_.domain if ball is None else ball
    c, rho = complex(ball.center), float(ball.radius)
    grid = 4 * N
    count = grid // 2 + 1 if half else grid
    zs = c + rho * np.exp(2j * np.pi * np.arange(count) / grid)
    t, w = gathered_table(sys_, zs)
    s = (t - c) / rho
    g = np.empty((N, count), dtype=complex)
    powers = np.ones_like(s)
    for n in range(N):
        g[n] = (w * powers).sum(axis=0)
        powers = np.multiply(powers, s)
    if isinstance(sys_.alphabet, systems.CountableTruncated):
        tail = reference_tail(sys_.n_letters, zs, N, c)
        g += tail * (rho ** -np.arange(N, dtype=float))[:, None]
    if half:
        cols = np.fft.hfft(g, n=grid, axis=1) / grid
    else:
        cols = np.fft.fft(g, axis=1) / grid
    return np.ascontiguousarray(cols[:, :N].T)


@pytest.fixture(scope="module")
def mixed():
    return system_from_descriptor(MIXED_DESC)


@pytest.mark.parametrize("N", [5, 64, 81, 134, 162, 360])
def test_gauss_matrix_matches_whole_array_loop(gauss200, N):
    # at N = 134 the zeta orders past 133 are dropped (132 of 134 kept);
    # at N = 360 the cancellation bound puts the cutoff at 207, so the
    # tail also sums branches 201..207 directly; at N = 81 and 162 the
    # 2N + 1 points are whole 81-column blocks of the 200 letters plus one
    got = assemble_matrix(gauss200, N=N)
    assert same_bits(got, reference_matrix(gauss200, N, half=True))


def test_gauss_matrix_bits_do_not_depend_on_blas_threads(tmp_path):
    # the tail's binomial recombination and its zeta rows are BLAS matrix
    # products; the matrices CLI spectrum assembles at --matrix-size 128
    # must come out the same at one and at two OpenBLAS threads
    src = os.path.dirname(os.path.dirname(systems.__file__))
    code = ("import sys, numpy as np, transferspec as ts; "
            "s = ts.make_gauss_system(200, ts.make_ball(1.0, 1.5)); "
            "np.concatenate([ts.assemble_matrix(s, N=n).ravel() "
            "for n in (128, 256)]).tofile(sys.argv[1])")
    procs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        procs.append(subprocess.Popen(
            [sys.executable, "-c", code, str(tmp_path / threads)], env=env))
    assert [proc.wait(timeout=300) for proc in procs] == [0, 0]
    one, two = ((tmp_path / t).read_bytes() for t in ("1", "2"))
    assert len(one) == (128 ** 2 + 256 ** 2) * 8      # real: float64
    assert one == two


@pytest.mark.parametrize("name", ["gauss4", "affine_half", "mixed",
                                  "zero_weight"])
def test_finite_matrix_matches_whole_array_loop(name, request):
    sys_ = request.getfixturevalue(name)
    half = name != "mixed"      # mixed alone has complex coefficients
    for N in (7, 40):
        assert same_bits(assemble_matrix(sys_, N=N),
                         reference_matrix(sys_, N, half))


COMPLEX_CENTER = make_ball(1.0 + 0.1j, 1.4)


def _left_skewed(gauss4):
    """gauss4 as plain maps, its first weight times 1 + 1e-3 i where
    Re z < 1: the samples are conjugation-symmetric on the right half of
    the circle only."""
    plain = as_plain_maps(gauss4)
    w = plain.weights[0]
    skewed = AnalyticMap(
        lambda z: w(z) * np.where(np.real(z) < 1.0, 1 + 1e-3j, 1 + 0j))
    return make_system(plain.branches, (skewed,) + plain.weights[1:],
                       plain.domain)


@pytest.mark.parametrize("case", ["gauss-complex-center",
                                  "gauss4-complex-center", "complex-weight",
                                  "user-maps", "user-maps-late-block"])
def test_complex_systems_keep_the_full_circle(case, gauss200, gauss4, mixed,
                                              monkeypatch):
    # a complex center, a complex weight factor, or plain maps whose samples
    # at the conjugate points are not the conjugates: the whole circle and
    # the complex transform, as before there was a real route
    sys_, ball = {
        "gauss-complex-center": (gauss200, COMPLEX_CENTER),
        "gauss4-complex-center": (gauss4, COMPLEX_CENTER),
        "complex-weight": (system_from_descriptor(dict(
            GAUSS4_DESC, params=[dict(p, weight=[0.5, 0.25])
                                 for p in GAUSS4_DESC["params"]])), None),
        "user-maps": (as_plain_maps(mixed), None),
        "user-maps-late-block": (_left_skewed(gauss4), None),
    }[case]
    if case == "user-maps-late-block":
        # 16 columns a block: the skewed maps show it in the first block at
        # N = 7 (from k = 8) and in the third at N = 40 (from k = 41), and
        # the assembly starts again on the whole circle
        monkeypatch.setattr(systems, "_BLOCK_ENTRIES", 64)
    for N in (7, 40):
        assert same_bits(assemble_matrix(sys_, ball, N),
                         reference_matrix(sys_, N, False, ball))


@pytest.mark.parametrize("name, N", [("gauss200", 64), ("gauss200", 134),
                                     ("gauss4", 40), ("affine_half", 40)])
@pytest.mark.parametrize("ball", [None, make_ball(0.8, 1.2)],
                         ids=["own-disc", "disc-b"])
def test_half_circle_matrix_is_the_real_part_of_the_full_one(name, N, ball,
                                                             request):
    # the full circle's complex matrix is real up to rounding; the half
    # circle's real matrix is its real part to a few roundings of the sums
    sys_ = request.getfixturevalue(name)
    got = assemble_matrix(sys_, ball, N)
    full = reference_matrix(sys_, N, False, ball)
    tol = 8 * np.finfo(float).eps * np.abs(full).max()
    assert got.dtype == np.float64
    assert np.abs(full.imag).max() <= tol
    assert np.abs(got - full.real).max() <= tol


@pytest.mark.parametrize("name, ball, count", [
    ("gauss200", None, 15), ("gauss4", COMPLEX_CENTER, 28),
    ("user", None, 15)])
def test_assembly_samples_the_boundary_points(name, ball, count, request,
                                              monkeypatch):
    # one circle-grid formula: at N = 7 (28 points, where 1/28 is inexact)
    # the assembly's points are the ball's boundary points, the first 15
    # (k = 0..14) for a real system, and for plain maps about a real center
    # those 15 followed by their exact conjugates
    sys_ = as_plain_maps(request.getfixturevalue("gauss4")) \
        if name == "user" else request.getfixturevalue(name)
    seen = []
    table = spectra._branch_values_on_grid

    def watched(sys_, zs):
        seen.append(zs)
        return table(sys_, zs)

    monkeypatch.setattr(spectra, "_branch_values_on_grid", watched)
    assemble_matrix(sys_, ball, 7)
    want = (sys_.domain if ball is None else ball).boundary_points(28)
    want = want[:count]
    if name == "user":
        want = np.concatenate([want, want.conj()])
    assert len(seen) == 1
    assert same_bits(seen[0], want)


@pytest.mark.parametrize("i_max, count, grid", [
    (10, 16, 101),      # 37 explicit branches x 101 points: 3,737 entries
    (100, 128, 300),    # 93 x 300 = 27,900 entries, the last block partial
])
def test_gauss_tail_matches_whole_array_loop(i_max, count, grid):
    center = 1.0 + 0.0j
    zs = make_ball(center, 1.5).boundary_points(grid)
    got = systems._gauss_power_tail(i_max)(zs, count, center)
    assert same_bits(got, reference_tail(i_max, zs, count, center))


def test_gauss_tail_on_a_one_column_remainder_matches_whole_array_loop():
    # the half circle of assemble_matrix at N = 256: its 513 points are
    # eight 64-column blocks of zeta products plus one
    ball = make_ball(0.8, 1.2)
    tail = systems._gauss_power_tail(7)
    zs = ball.boundary_points(1024, 513)
    assert same_bits(tail(zs, 256, 0.8 + 0j),
                     reference_tail(7, zs, 256, 0.8 + 0j))


@pytest.mark.parametrize("cols, rows", [(1, 200), (81, 200), (82, 200),
                                        (163, 200), (325, 200), (513, 64),
                                        (9, 20000), (1000, 7)])
def test_column_blocks_are_aligned_and_never_one_column(cols, rows):
    blocks = systems._column_blocks(cols, rows)
    width = max(2, systems._BLOCK_ENTRIES // rows)
    assert blocks[0].start == 0 and blocks[-1].stop == cols
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert [b.start for b in blocks] == [k * width
                                         for k in range(len(blocks))]
    assert all(1 < b.stop - b.start <= width + 1 for b in blocks) \
        or cols == 1


@pytest.mark.parametrize("name, N", [("gauss200", 256), ("gauss200", 512),
                                     ("plain", 128)])
def test_assembly_memory_stays_within_two_grid_tables(name, N, gauss4,
                                                      request):
    # the power-sum table g, N rows over the grid points, is the one
    # full-grid table: branch values, bases and transforms are built a
    # block at a time, and the tail's table becomes g
    sys_ = as_plain_maps(gauss4) if name == "plain" \
        else request.getfixturevalue(name)
    points = 2 * N + 1 if name == "gauss200" else 4 * N
    assemble_matrix(sys_, N=8)          # imports and caches outside the trace
    tracemalloc.start()
    try:
        assemble_matrix(sys_, N=N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * N * points * np.dtype(complex).itemsize


@pytest.mark.parametrize("name", ["gauss200", "gauss4", "affine_half",
                                  "mixed"])
def test_moebius_table_broadcast_matches_gathers(name, request, monkeypatch):
    sys_ = request.getfixturevalue(name)
    zs = sys_.domain.boundary_points(1000)
    want_images, want_weights = gathered_table(sys_, zs)
    calls = []
    monkeypatch.setattr(MapWeightSystem, "_gather",
                        lambda *a, **k: calls.append(a))
    for method in ("apply_letters", "derivative_letters", "weight_letters"):
        monkeypatch.setattr(MapWeightSystem, method,
                            lambda *a, **k: calls.append(a))
    images, weights = systems._branch_values_on_grid(sys_, zs)
    assert calls == []
    assert same_bits(images, want_images)
    assert same_bits(weights, want_weights)


def test_plain_callables_table_goes_through_gathers(monkeypatch):
    moeb = make_moebius(0.0, 1.0, 1.0, 2.0)
    plain = AnalyticMap(lambda z: 1.0 / (3.0 + z), name="T3")
    wplain = AnalyticMap(lambda z: 1.0 / ((3.0 + z) * (3.0 + z)), name="w3")
    ball = make_ball(1.0, 1.5)
    zs = ball.boundary_points(64)
    gathered = []
    orig = MapWeightSystem._gather

    def counting(self, call, letters, z, table=None, groups=None):
        gathered.append(table is None)
        return orig(self, call, letters, z, table, groups)

    monkeypatch.setattr(MapWeightSystem, "_gather", counting)
    # plain branches: images and weights both gathered
    sys_ = make_system([plain], [wplain], ball)
    images, weights = systems._branch_values_on_grid(sys_, zs)
    assert gathered == [True, False]
    assert np.allclose(images, 1.0 / (3.0 + zs), rtol=1e-15, atol=0)
    # Moebius branches with a plain-callable weight keep the gathers too
    gathered.clear()
    sys_ = make_system([moeb, moeb], [make_const(0.5), wplain], ball)
    images, weights = systems._branch_values_on_grid(sys_, zs)
    assert gathered == [False]
    assert np.array_equal(weights[0], np.full(64, 0.5 + 0j))
