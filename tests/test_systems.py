"""Domain, map builders, family constructors, validation, descriptors."""

import cmath
import copy
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import transferspec
from transferspec import (
    AnalyticMap,
    CountableTruncated,
    DegenerateMap,
    DescriptorError,
    DimensionUnsupported,
    InadmissibleDomain,
    InvalidDomain,
    MapWeightSystem,
    assemble_matrix,
    enclosing_radius,
    make_affine,
    make_ball,
    make_const,
    make_gauss_system,
    make_moebius,
    make_system,
    system_from_descriptor,
    systems,
    trace_table,
    validate_system,
)
from transferspec.dynamics import _outside

from conftest import AFFINE_DESC, GAUSS4_DESC, as_plain_maps


# ---------------------------------------------------------------------------
# balls


def test_ball_disc_example():
    b = make_ball(1.0, 1.5)
    assert b.center == 1.0 + 0.0j
    assert b.radius == 1.5
    assert b.dim == 1


def test_ball_unit_disc():
    # a point is outside by the escape rule of the fixed-point iterations:
    # farther than radius * (1 + 1e-9) from the center, or NaN
    b = make_ball(0.0, 1.0)
    pts = np.array([0.999, 1.0 + 5e-10, 1.001j, np.nan])
    assert _outside(b, pts).tolist() == [False, False, True, True]


def test_ball_degenerate():
    with pytest.raises(InvalidDomain):
        make_ball(0.0, 0.0)
    with pytest.raises(InvalidDomain):
        make_ball(0.0, -1.0)


def test_ball_dim_mismatch():
    with pytest.raises(InvalidDomain):
        make_ball((0.0, 0.0), 1.0, dim=3)


@pytest.mark.parametrize("args", [(0.0, 1.0, True), (0.0, True, 1),
                                  ((0.0,), 1.0, False)])
def test_ball_refuses_booleans(args):
    # isinstance(True, int) holds, so a bool used to pass as dim 1 or radius 1
    with pytest.raises(InvalidDomain):
        make_ball(*args)


def test_gauss_system_refuses_boolean_i_max():
    with pytest.raises(InadmissibleDomain):
        make_gauss_system(True)


def test_dim_one_routines_refuse_dim_two(diag2d):
    ball = diag2d.domain
    with pytest.raises(DimensionUnsupported,
                       match=r"^boundary sampling needs dim 1$"):
        ball.boundary_points(8)
    with pytest.raises(InadmissibleDomain, match=r"^the continued-fraction "
                                                 r"family lives in dim 1$"):
        make_gauss_system(5, ball)
    with pytest.raises(DimensionUnsupported,
                       match=r"^validation is implemented for dim 1 only$"):
        validate_system(diag2d)


def test_system_needs_one_branch_and_weight_per_letter():
    ball = make_ball(0.0, 1.0)
    half = make_affine(0.5, 0.0)
    with pytest.raises(InvalidDomain) as err:
        make_system([half, half], [make_const(1.0)], ball)
    assert str(err.value) == ("2 branches and 1 weights; one of each per "
                              "letter is needed")


@pytest.mark.parametrize("desc", [[AFFINE_DESC], "affine_list", None])
def test_descriptor_that_is_not_an_object_is_refused(desc):
    with pytest.raises(DescriptorError,
                       match=r"^descriptor must be a JSON object$"):
        system_from_descriptor(desc)


def test_ball_boundary_points_lie_on_circle():
    b = make_ball(2.0 - 1.0j, 0.75)
    zs = b.boundary_points(64)
    assert np.allclose(np.abs(zs - b.center), b.radius)


# ---------------------------------------------------------------------------
# map builders


def test_moebius_gauss_branch():
    t1 = make_moebius(0.0, 1.0, 1.0, 1.0)
    assert t1(0.0) == pytest.approx(1.0)
    assert t1.derivative(0.0) == pytest.approx(-1.0)


def test_moebius_identity():
    ident = make_moebius(1.0, 0.0, 0.0, 1.0)
    for z in (0.0, 1.5 - 0.25j, -3.0j):
        assert ident(z) == pytest.approx(z)
        assert ident.derivative(z) == pytest.approx(1.0)


def test_moebius_degenerate():
    with pytest.raises(DegenerateMap):
        make_moebius(1.0, 1.0, 1.0, 1.0)


def test_affine_and_const():
    f = make_affine(0.5, 0.3)
    assert f(0.6) == pytest.approx(0.6)           # fixed point
    assert f.derivative(2.0 + 1.0j) == pytest.approx(0.5)
    w = make_const(2.0 - 1.0j)
    zs = np.array([0.0, 1.0j, 3.0])
    assert np.allclose(w(zs), 2.0 - 1.0j)
    assert np.allclose(w.derivative(zs), 0.0)


def test_moebius_derivative_matches_quotient_rule():
    f = make_moebius(2.0, -1.0j, 0.5, 3.0)
    rng = np.random.default_rng(7)
    zs = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    det = 2.0 * 3.0 - (-1.0j) * 0.5
    assert np.allclose(f.derivative(zs), det / (0.5 * zs + 3.0) ** 2, rtol=1e-13)


def test_dual_number_default_derivative():
    # no closed-form rule supplied; forward-mode differentiation kicks in
    f = AnalyticMap(lambda z: z ** 3 / (2.0 + z))
    z = 0.4 - 0.3j
    expected = 3 * z ** 2 / (2 + z) - z ** 3 / (2 + z) ** 2
    assert f.derivative(z) == pytest.approx(expected, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False))
def test_derivative_matches_central_differences(z):
    f = AnalyticMap(lambda w: (w ** 2 + 1.0) / (w + 3.0))
    h = 1e-6
    fd = (f(z + h) - f(z - h)) / (2 * h)
    d = f.derivative(z)
    assert abs(d - fd) <= 1e-6 * max(1.0, abs(d))


def _counted(fn, calls):
    def counting(z):
        calls.append(np.shape(z))
        return fn(z)
    return counting


_ZS = 0.3 - 0.2j + 0.7 * np.exp(1j * np.linspace(0.0, 6.0, 12))
_A = np.array([[0.4, 0.1], [-0.2, 0.3]])
_PTS = np.stack([0.5 * _ZS[:5], 0.4j * _ZS[5:10]])


@pytest.mark.parametrize("zs", [_ZS, _ZS.reshape(3, 4)], ids=["1d", "2d"])
def test_batch_rule_dim1(zs):
    # a broadcasting fn and its dual-number derivative: one call each
    calls = []
    f = AnalyticMap(_counted(lambda z: z * z + 0.5 * z, calls))
    assert np.array_equal(f(zs), zs * zs + 0.5 * zs) and len(calls) == 1
    assert np.array_equal(f.derivative(zs), 2.0 * zs + 0.5)
    assert len(calls) == 2
    # a closed-form derivative that broadcasts is called once, fn not at all
    calls, dcalls = [], []
    f = AnalyticMap(_counted(lambda z: z * z, calls),
                    _counted(lambda z: 2.0 * z, dcalls))
    assert np.array_equal(f.derivative(zs), 2.0 * zs)
    assert (len(calls), len(dcalls)) == (0, 1)
    # cmath takes one number: one call per element after the batch fails
    calls, dcalls = [], []
    f = AnalyticMap(_counted(cmath.exp, calls), _counted(cmath.exp, dcalls))
    want = np.array([cmath.exp(z) for z in zs.ravel()]).reshape(zs.shape)
    assert np.array_equal(f(zs), want) and np.array_equal(f.derivative(zs), want)
    assert calls.count(()) == dcalls.count(()) == zs.size
    # one number for a batch is a constant map
    calls = []
    f = AnalyticMap(_counted(lambda z: 2.0 - 1.0j, calls))
    assert np.array_equal(f(zs), np.full(zs.shape, 2.0 - 1.0j))
    assert len(calls) == 1
    del calls[:]
    assert np.array_equal(f.derivative(zs), np.zeros(zs.shape))
    assert len(calls) == 1


def _columns(method, z):
    """method on each column of z, stacked along the last axis."""
    return np.moveaxis(np.array([method(z[:, j]) for j in range(z.shape[1])],
                                dtype=complex), 0, -1)


def test_batch_rule_dim2():
    calls, dcalls = [], []
    bcast = AnalyticMap(_counted(
        lambda z: [0.5 * z[0] + 0.1, 0.4 * z[1] - 0.2 * z[0] * z[1]], calls),
        dim=2)
    affine = AnalyticMap(
        _counted(lambda z: _A @ np.asarray(z) + [0.1, 0.2], calls),
        _counted(lambda z: _A, dcalls), dim=2)
    m = _PTS.shape[1]
    # map, points, calls for the images, calls for the Jacobians
    cases = [
        (bcast, _PTS, 1, 1),            # broadcasting: one call each
        (bcast, _PTS[:, :2], 2, 2),     # m = dim: column by column
        # A @ z + v fails on the batch, then goes column by column; its
        # closed-form Jacobian is one constant matrix
        (affine, _PTS, 1 + m, 1),
    ]
    for f, z, n_value, n_jac in cases:
        del calls[:], dcalls[:]
        got = f(z)
        assert len(calls) == n_value
        jac = f.derivative(z)
        assert len(calls) + len(dcalls) == n_value + n_jac
        assert np.array_equal(got, _columns(f, z))
        assert jac.shape == (2, 2, z.shape[1])
        assert np.array_equal(jac, _columns(f.derivative, z))
    assert np.array_equal(affine.derivative(_PTS),
                          np.repeat(_A[..., None], m, axis=2))
    # a per-point fn that reduces over its argument returns one point's
    # shape for the whole batch; that is not a constant map, so it goes
    # column by column
    prod = AnalyticMap(_counted(lambda z: np.prod(z), calls), dim=2)
    pair = AnalyticMap(_counted(
        lambda z: np.array([np.sum(z), np.prod(z)]), calls), dim=2)
    for f, want in [(prod, _PTS[0] * _PTS[1]),
                    (pair, np.stack([_PTS[0] + _PTS[1], _PTS[0] * _PTS[1]]))]:
        del calls[:]
        got = f(_PTS)
        assert len(calls) == 1 + m
        assert np.array_equal(got, _columns(f, _PTS))
        assert np.allclose(got, want, rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# continued-fraction family


def test_gauss_branch_one_at_zero():
    sys_ = make_gauss_system(50, make_ball(1.0, 1.5))
    assert sys_.n_letters == 50
    assert sys_.branches[0](0.0) == pytest.approx(1.0)


def test_gauss_weight_tail_bound_closed_form():
    # inf over the closed disc |z-1| <= 3/2 of |i+z| is i - 1/2, so the tail
    # is bounded by sum_{i>50} (i - 1/2)^(-2) = hzeta(2, 50.5)
    sys_ = make_gauss_system(50, make_ball(1.0, 1.5))
    tail = sys_.alphabet.weight_tail_bound
    ref = oracles.hzeta_reference(2, 50.5).real
    assert tail <= ref * (1 + 1e-12)
    assert tail >= ref * (1 - 1e-9)


def test_gauss_branch_min_on_boundary_matches_closed_form():
    # oracle: direct minimization of |i+z| over the boundary circle
    zs = make_ball(1.0, 1.5).boundary_points(200_000)
    for i in (1, 2, 51):
        assert np.min(np.abs(i + zs)) == pytest.approx(i - 0.5, abs=1e-8)


def test_gauss_weight_tail_bound_complex_centre_matches_mpmath():
    # a complex centre has no trigamma form: 4000 terms of
    # (|i + c| - rho)^(-2) past i_max and an integral majorant of the rest,
    # which is above the sum by less than 1e-4 of it
    c, rho = 1.0 + 0.25j, 1.5
    got = make_gauss_system(200, make_ball(c, rho)).alphabet.weight_tail_bound
    with mpmath.workdps(30):
        want = mpmath.nsum(lambda i: (abs(i + mpmath.mpc(c)) - rho) ** -2,
                           [201, mpmath.inf], method="euler-maclaurin")
    assert want <= got <= want * (1 + 1e-4)


@pytest.mark.parametrize("center, radius, branch", [
    (-3.0, 0.5, 3),             # one pole inside
    (-2.5, 0.5, 2),             # poles 2 and 3 on the circle: the first
    (-5.5, 2.0, 4),             # poles 4 to 7 inside
    (-4.0 + 0.3j, 0.5, 4),      # off the real axis
    (-1e15, 1.5, 10 ** 15 - 1),
])
def test_gauss_pole_on_or_inside_the_ball_is_refused(center, radius, branch):
    # only the integers near -Re c are tested, and the first pole found is
    # the first pole, however far out the centre lies
    with pytest.raises(InadmissibleDomain,
                       match=rf"^pole of branch {branch} at -{branch} "
                             "touches the closed ball$"):
        make_gauss_system(20, make_ball(center, radius))


def test_gauss_tail_bound_monotone_in_imax():
    d = make_ball(1.0, 1.5)
    b50 = make_gauss_system(50, d).alphabet.weight_tail_bound
    b80 = make_gauss_system(80, d).alphabet.weight_tail_bound
    b200 = make_gauss_system(200, d).alphabet.weight_tail_bound
    assert b80 <= b50 and b200 <= b80


def test_gauss_empty_alphabet_rejected():
    with pytest.raises(Exception):
        make_gauss_system(0, make_ball(1.0, 1.5))


def test_gauss_rejects_images_not_contained():
    # no pole touches |z| <= 0.9, but branch 1 maps the disc onto the disc
    # of center 1/0.19 and radius 0.9/0.19, which reaches exactly 10
    with pytest.raises(InadmissibleDomain, match=r"reach 10 from the center"):
        make_gauss_system(20, make_ball(0.0, 0.9))


def test_gauss_build_samples_no_boundary(monkeypatch):
    calls = []
    real = systems.validate_system

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(systems, "validate_system", counting)
    make_gauss_system(50)
    assert calls == []


def _power_tail_oracle(i_max, zs, count, center=1.0):
    # row n of the tail closure is sum_{i>i_max} w_i(z) (T_i(z)-c)^n; the
    # oracle sums the branches up to cut in extended precision and closes
    # the remainder sum_j C(n,j) (-c)^(n-j) zeta(j+2, cut+1+z) with the
    # arbitrary-precision power sums of oracles.hzeta_reference. With
    # R = cut + 1 + min Re z, zeta(j+2, .) <= 2 R^-(j+1), so term j is at
    # most 2 C(n,j) (|c| R)^-j times term 0; orders past the point where
    # that factor drops below 1e-30 change no double digit and are left out
    cut = 400
    c = np.clongdouble(center)
    u = 1 / (np.arange(i_max + 1, cut + 1, dtype=np.longdouble)[:, None]
             + zs[None, :].astype(np.clongdouble))
    p = u * u
    want = np.empty((count, zs.size), dtype=np.clongdouble)
    for n in range(count):
        want[n] = p.sum(axis=0)
        p *= u - c
    ratio = 1.0 / (min(1.0, abs(center)) * (cut + 1 + float(zs.real.min())))
    orders = next((j for j in range(count)
                   if 2 * math.comb(count - 1, j) * ratio ** j < 1e-30), count)
    for col, z in enumerate(zs):
        hz = [oracles.hzeta_reference(j + 2, cut + 1 + z)
              for j in range(orders)]
        for n in range(count):
            want[n, col] += sum(
                math.comb(n, j) * (-center) ** (n - j) * hz[j]
                for j in range(min(n + 1, orders)))
    return want.astype(complex)


def _worst_row_distance(got, want):
    return float(np.max(np.max(np.abs(got - want), axis=1)
                        / np.max(np.abs(want), axis=1)))


def test_gauss_power_tail_matches_high_precision_sum():
    tail = systems._gauss_power_tail(50)
    zs = make_ball(1.0, 1.5).boundary_points(7)
    got = tail(zs, 4, 1.0 + 0.0j)
    assert np.max(np.abs(got - _power_tail_oracle(50, zs, 4))) < 1e-12


def test_gauss_power_tail_explicit_branches_match_high_precision_sum():
    # 16 rows put the cutoff at 47 > i_max = 10 (|48 + z| must reach the
    # zeta rows' no-shift floor 1.3 * 17 + 25), so branches 11..47 are
    # summed directly, in column blocks; the grid ends in a partial block,
    # and the oracle checks columns on both sides of each block boundary
    width = systems._BLOCK_ENTRIES // 37
    m = 2 * width + 5
    zs = make_ball(1.0, 1.5).boundary_points(m)
    got = systems._gauss_power_tail(10)(zs, 16, 1.0 + 0.0j)
    cols = [0, width - 1, width, 2 * width, m - 1]
    want = _power_tail_oracle(10, zs[cols], 16)
    assert np.max(np.abs(got[:, cols] - want)) < 1e-12


@pytest.mark.parametrize("center, radius", [(1.0, 1.5), (0.8, 1.2)])
def test_gauss_tail_cutoff_is_i_max_at_cli_sizes(center, radius):
    # spectrum --matrix-size 128 assembles at 128 and 256: the tail sums no
    # branch past i_max there; at 512 the cancellation bound raises the
    # cutoff (to 295 on disc (1, 1.5), to 369 on disc (0.8, 1.2))
    low = center - radius
    for count in (128, 256):
        assert systems._gauss_tail_cutoff(200, count, center, low) == 200
    assert systems._gauss_tail_cutoff(200, 512, center, low) > 200


def test_gauss_power_tail_asks_only_for_normal_zeta_orders(monkeypatch):
    # at 201 + z, z on the disc (1, 1.5), zeta(s, .) is below the smallest
    # normal double from s = 134 on, so 132 of the 256 orders are computed
    calls = []
    real = systems.hzeta_rows

    def counting(count, a):
        calls.append(count)
        return real(count, a)

    monkeypatch.setattr(systems, "hzeta_rows", counting)
    zs = make_ball(1.0, 1.5).boundary_points(1024)
    out = systems._gauss_power_tail(200)(zs, 256, 1.0 + 0.0j)
    assert out.shape == (256, 1024)
    assert calls and set(calls) == {132}


def test_gauss_tail_cutoff_keeps_both_bounds():
    # c = 0: the Pascal table is the identity, only the zeta floor binds
    assert systems._gauss_tail_cutoff(1, 4, 0.0, -0.5) == 31
    # |c| far below 1/(i_max + 1 + low): the cancellation bound raises K
    # until u = 1/(K + 1 + low) is small against |c|
    cutoff = systems._gauss_tail_cutoff(1, 64, 0.01, 0.0)
    u = 1.0 / (cutoff + 1)
    assert ((0.01 + u) / (0.01 - u)) ** 63 <= systems._TAIL_CANCELLATION
    u = 1.0 / cutoff
    assert ((0.01 + u) / (0.01 - u)) ** 63 > systems._TAIL_CANCELLATION


@pytest.mark.parametrize("center, radius", [(1.0, 1.5), (0.8, 1.2)])
@pytest.mark.parametrize("count", [128, 256, 512])
def test_gauss_power_tail_at_cli_sizes_matches_oracle(center, radius, count):
    # the matrix route's own call: i_max 200, grid 4 * count, the disc's
    # center; every row of four spread columns, relative to the row's scale.
    # At 128 and 256 the tail is all zeta rows; at 512 it also sums
    # branches past i_max directly
    grid = 4 * count
    zs = center + radius * np.exp(2j * np.pi * np.arange(grid) / grid)
    got = systems._gauss_power_tail(200)(zs, count, complex(center))
    cols = [0, grid // 4 + 1, grid // 2, grid - 3]
    want = _power_tail_oracle(200, zs[cols], count, center)
    distance = _worst_row_distance(got[:, cols], want)
    assert distance < 1e-12
    if np.finfo(np.longdouble).eps < np.finfo(float).eps:
        # with a Pascal table rounded once, the recombination's cancellation
        # (up to 24x on disc (0.8, 1.2) at 256) does not show: a table built
        # by Pascal's rule in double left these rows up to 3.0e-15 away
        assert distance < 1.6e-15


# ---------------------------------------------------------------------------
# validation


def test_validate_gauss_contained(gauss200):
    rep = validate_system(gauss200)
    assert rep.images_compactly_contained
    assert rep.worst_branch == 1


def test_validate_identity_not_contained():
    sys_ = make_system([make_affine(1.0, 0.0)], [make_const(1.0)],
                       make_ball(0.0, 1.0))
    rep = validate_system(sys_)
    assert not rep.images_compactly_contained


def test_validate_gauss_weight_sup(gauss200):
    # the sup of sum_i |w_i| over the disc is attained at z = -1/2 where the
    # full sum telescopes to pi^2/2; truncated sup + analytic tail recovers it
    rep = validate_system(gauss200)
    assert rep.W <= math.pi ** 2 / 2 + 1e-12
    assert rep.W >= math.pi ** 2 / 2 - 1e-9


def test_validate_gauss_memory_peak():
    # the Gauss preset is validated in closed form, so the sampler is
    # measured on plain-callable copies of its 200 branches: the final
    # 200 x 2048 grid holds about 23 MB of letters, points, images and
    # weights, and freeing the coarser grid's tables before the finer grid
    # is built keeps the traced peak of the doubling loop near 27 MB
    # (about 33 MB when the 1024-point tables are still held)
    branches = [AnalyticMap(lambda z, i=i: 1.0 / (i + z)) for i in range(1, 201)]
    weights = [AnalyticMap(lambda z, i=i: 1.0 / ((i + z) * (i + z)))
               for i in range(1, 201)]
    sys_ = make_system(branches, weights, make_ball(1.0, 1.5))
    tracemalloc.start()
    try:
        rep = validate_system(sys_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.grid_used == 2048
    assert peak < 30e6


def test_validate_gauss_exact_report(gauss200):
    # closed forms, no grid: branch 1 reaches exactly 1 from the centre,
    # every branch past i_max stays within 1 (the tail cover for a real
    # centre), and W = sum_i 1/(i - 1/2)^2 + tail = pi^2/2, all rounded
    # outward by a few ulps
    rep = validate_system(gauss200)
    eps = math.ulp(1.0)
    assert rep.grid_used == 0
    assert rep.image_safety == rep.weight_safety == 0.0
    assert rep.note == "exact (Moebius closed form)"
    assert rep.image_tail_sup == 1.0
    assert 1.0 <= rep.image_sup <= 1.0 + 8 * eps
    assert math.pi ** 2 / 2 <= rep.W <= math.pi ** 2 / 2 * (1 + 8 * eps)


@pytest.mark.parametrize("center, radius, want", [
    (1.0, 1.5, 1.0),            # disc A: the centre itself bounds the tail
    (0.8, 1.2, 0.8),            # disc B
    (0.0, 1.0, 1 / 200),        # centre 0: branch 201 reaches farthest
    (1.0 + 0.25j, 1.5, None),   # complex centre: the |c| + b cover
])
def test_gauss_image_tail_sup_covers_far_branches(center, radius, want):
    ball = make_ball(center, radius)
    reaches = systems._image_reach(systems._gauss_rows(1, 4201), ball)[0]
    got = systems._gauss_image_tail_sup(200, ball, reaches)
    if want is not None:
        assert got == pytest.approx(want, rel=1e-15)
    # branches in and far past the probe block, in extended precision
    reach = max(oracles.circle_max_mp(
        lambda z, i=i: abs(1 / (i + z) - center), center, radius, points=64)
        for i in (201, 4201, 5000, 10 ** 6))
    assert reach <= got


def _probe_tail_sup(i_max, domain):
    """_gauss_image_tail_sup with only its probe block's reaches, taken on
    that block's rows alone."""
    block = systems._gauss_rows(i_max + 1, i_max + 4001)
    reach = np.concatenate([np.full(i_max, np.nan),
                            systems._image_reach(block, domain)[0]])
    return systems._gauss_image_tail_sup(i_max, domain, reach)


@pytest.mark.parametrize("center, radius", [
    (1.0, 1.5), (0.8, 1.2), (0.6 + 0.3j, 1.0), (3.0, 2.5), (1.0, 0.4),
    (1.0 + 0.25j, 1.5)])
def test_gauss_build_takes_both_image_probes_from_one(center, radius):
    # the build probes the branches 1..i_max+4000 once: the 98 % rule reads
    # the first 4000 of them and the tail sup the last 4000, with the bits
    # of a probe of each block on its own
    ball = make_ball(center, radius)
    everywhere = _probe_tail_sup(0, ball)
    for i_max in (1, 10, 200, 500):
        if everywhere > 0.98 * radius:
            with pytest.raises(InadmissibleDomain) as err:
                make_gauss_system(i_max, ball)
            assert str(err.value) == (
                f"branch images reach {everywhere:.6g} from the center; not "
                f"strictly inside radius {radius:.6g}")
        else:
            tail = make_gauss_system(i_max, ball).alphabet.image_tail_sup
            assert repr(tail) == repr(_probe_tail_sup(i_max, ball))


@pytest.mark.parametrize("center", [1.0, 1.0 + 0.25j])
def test_gauss_build_makes_and_probes_its_rows_once(center, monkeypatch):
    # one table of the branches 1..i_max+_GAUSS_PROBE and one probe of it
    # give the coefficients, the 98 % rule and both tail bounds; a complex
    # centre's weight bound reads the probe's gaps
    calls = []

    def spy(name):
        real = getattr(systems, name)

        def counted(*args):
            calls.append((name, real(*args)))
            return calls[-1][1]
        monkeypatch.setattr(systems, name, counted)

    spy("_gauss_rows")
    spy("_image_reach")
    sys_ = make_gauss_system(200, make_ball(center, 1.5))
    assert [name for name, _ in calls] == ["_gauss_rows", "_image_reach"]
    rows = calls[0][1]
    assert len(rows) == 200 + systems._GAUSS_PROBE
    assert np.array_equal(sys_.coefficients, rows[:200])


_EXACT_CASES = {
    # (a, b, c, e, weight) per branch, domain centre and radius
    "gauss4": ([(0.0, 1.0, 1.0, float(i), "neg_derivative")
                for i in (1, 2, 3, 4)], 1.0, 1.5),
    "real-mixed": ([(0.5, 0.1, 0.2, 1.0, "derivative"),
                    (0.4, 0.0, 0.0, 1.0, "neg_derivative"),
                    (0.3, -0.2, -0.25, 1.5, 0.7)], 0.0, 1.0),
    "real-opposed": ([(0.5, 0.1, 0.2, 1.0, "derivative"),
                      (0.3, -0.2, -0.25, 1.5, "neg_derivative")], 0.0, 1.0),
    # poles of the T' weights at c - (1 + 1j) and c - 1.5 (1 + 1j)
    "complex-aligned": ([(0.3 + 0.1j, 0.1 - 0.2j, 1.0, 0.75 + 0.5j,
                          "derivative"),
                         (0.2j, 0.5, 2.0, 2.5 + 2.0j, "neg_derivative"),
                         (0.1, 0.3j, 0.5 - 0.5j, 2.0, 0.2 + 0.1j)],
                        0.25 + 0.5j, 0.6),
    "complex-opposed": ([(0.3 + 0.1j, 0.1 - 0.2j, 1.0, 0.75 + 0.5j,
                          "derivative"),
                         (0.2j, 0.5, 2.0, -1.2 + 0.3j, "neg_derivative")],
                        0.25 + 0.5j, 0.6),
}
_ALIGNED = {"gauss4", "real-mixed", "complex-aligned"}


def _json_number(x):
    x = complex(x)
    return [x.real, x.imag]


def _exact_case(name):
    params, center, radius = _EXACT_CASES[name]
    desc = {"family": "moebius_list",
            "params": [{"a": _json_number(a), "b": _json_number(b),
                        "c": _json_number(c), "e": _json_number(e),
                        "weight": w if isinstance(w, str) else _json_number(w)}
                       for a, b, c, e, w in params],
            "domain": {"center": _json_number(center), "radius": radius,
                       "dim": 1}}
    return system_from_descriptor(desc), params, center, radius


def _mp_weight(a, b, c, e, w):
    """|w| at an mpc point z: a constant, or +-(ae - bc)/(cz + e)^2."""
    if not isinstance(w, str):
        return lambda z: abs(oracles.mp.mpc(w))
    a, b, c, e = (oracles.mp.mpc(x) for x in (a, b, c, e))
    return lambda z: abs((a * e - b * c) / (c * z + e) ** 2)


@pytest.mark.parametrize("name", sorted(_EXACT_CASES))
def test_validate_exact_matches_image_discs_and_mpmath(name):
    sys_, params, center, radius = _exact_case(name)
    rep = validate_system(sys_)
    eps = math.ulp(1.0)
    assert rep.grid_used == 0
    assert rep.image_safety == rep.weight_safety == 0.0
    # image sup: the largest reach of the closed-form image discs, and the
    # dense extended-precision maximum of |T_i(z) - c| over the circle
    reach = [abs(ic - center) + ir for ic, ir in (
        oracles.moebius_image_disc(a, b, c, e, center, radius)
        for a, b, c, e, _ in params)]
    assert rep.image_sup == pytest.approx(max(reach), rel=1e-14)
    assert rep.worst_branch == reach.index(max(reach)) + 1
    mp = oracles.mp

    def image_dist(z):
        return max(abs((mp.mpc(a) * z + mp.mpc(b)) / (mp.mpc(c) * z + mp.mpc(e))
                       - mp.mpc(center)) for a, b, c, e, _ in params)

    dense = oracles.circle_max_mp(image_dist, center, radius)
    assert dense <= rep.image_sup <= dense * (1 + 8 * eps)
    # weight sup: the sum of the per-branch sups, which is the sup of the
    # sum exactly when the T' weights' poles lie in one direction
    weights = [_mp_weight(*p) for p in params]
    each = [oracles.circle_max_mp(w, center, radius) for w in weights]
    dense = oracles.circle_max_mp(lambda z: sum(w(z) for w in weights),
                                  center, radius)
    assert math.fsum(each) <= rep.weight_sup <= math.fsum(each) * (1 + 8 * eps)
    assert rep.W == rep.weight_sup
    if name in _ALIGNED:
        assert rep.note == "exact (Moebius closed form)"
        assert dense <= rep.weight_sup <= dense * (1 + 8 * eps)
    else:
        assert rep.note == "upper bound (Moebius closed form)"
        assert rep.weight_sup > dense * (1 + 1e-6)


@pytest.mark.parametrize("name", sorted(_EXACT_CASES))
def test_validate_sampled_copies_stay_below_exact(name):
    # plain-callable copies of the same maps take the boundary sampler:
    # a sample of |T_i - c| or sum |w_i| never exceeds the true sup, and
    # where the poles are aligned the sampler's maximum lies on the grid
    # ray through them, or next to it
    sys_ = _exact_case(name)[0]
    exact = validate_system(sys_)
    sampled = validate_system(as_plain_maps(sys_))
    assert sampled.grid_used > 0
    assert sampled.note == "boundary grid sample, non-rigorous"
    for field in ("image_sup", "weight_sup"):
        got, want = getattr(sampled, field), getattr(exact, field)
        assert got <= want + 4 * math.ulp(want)
        if name in _ALIGNED:
            assert got == pytest.approx(want, rel=1e-6)
    assert sampled.worst_branch == exact.worst_branch


@pytest.mark.parametrize("e, radius", [(0.5, 1.5), (0.5, 2.0)],
                         ids=["on-circle", "inside"])
def test_validate_pole_on_or_inside_ball_is_not_contained(e, radius):
    # branch 2, 1/(z + e), has its pole -e on the circle |z - 1| = 1.5 or
    # inside the disc |z - 1| < 2: the sups are infinite, and no division
    # by zero warns (the suite turns RuntimeWarning into an error)
    sys_ = make_system(
        [make_affine(0.5, 0.0), make_moebius(0.0, 1.0, 1.0, e)],
        [make_const(1.0), make_const(1.0)], make_ball(1.0, radius))
    rep = validate_system(sys_)
    assert not rep.images_compactly_contained
    assert rep.image_sup == rep.weight_sup == rep.W == math.inf
    assert rep.worst_branch == 2
    assert rep.note == "pole of branch 2 on or inside the closed ball"


@pytest.mark.parametrize("branch, weight, note", [
    (AnalyticMap(lambda z: z * np.nan), make_const(1.0), "image sup nan"),
    # 1 / (z - 1) has its pole at a grid point
    (AnalyticMap(lambda z: 1.0 / (z - 1.0)), make_const(1.0),
     "image sup inf"),
    (make_affine(0.5, 0.0), AnalyticMap(lambda z: 1.0 / (z - 1.0)),
     "weight sup inf")], ids=["nan", "image-pole", "weight-pole"])
def test_sampled_sup_that_is_not_finite_ends_the_refinement(branch, weight,
                                                            note):
    # a NaN sup compares false and an infinite one never settles, so the
    # grid used to double to its cap: the first grid with a sup that is not
    # finite is the last, and the note and the admission error name it,
    # with no numpy warning (the suite turns RuntimeWarning into an error)
    sys_ = make_system([make_affine(0.5, 0.1), branch],
                       [make_const(1.0), weight], make_ball(0.0, 1.0))
    rep = validate_system(sys_)
    assert rep.grid_used == 1024
    note += " on a boundary grid of 1024 points, non-rigorous"
    assert rep.note == note
    with pytest.raises(InadmissibleDomain) as err:
        enclosing_radius(sys_)
    assert str(err.value) == "the sups are not finite: " + note


def test_validate_monotone_in_margin(gauss200):
    rep_strict = validate_system(gauss200, margin=0.2)
    rep_loose = validate_system(gauss200, margin=0.05)
    assert rep_strict.images_compactly_contained <= rep_loose.images_compactly_contained


def test_validate_margin_range():
    sys_ = make_system([make_affine(0.5, 0.0)], [make_const(1.0)],
                       make_ball(0.0, 1.0))
    with pytest.raises(ValueError):
        validate_system(sys_, margin=0.0)
    with pytest.raises(ValueError):
        validate_system(sys_, margin=1.0)


# ---------------------------------------------------------------------------
# descriptors and ids


def test_descriptor_roundtrip_affine(affine_half):
    assert affine_half.n_letters == 1
    assert affine_half.branches[0](0.6) == pytest.approx(0.6)
    assert affine_half.weights[0](0.1) == pytest.approx(1.0)


def test_descriptor_gauss4_weights_are_neg_derivative(gauss4):
    z = 0.25 + 0.1j
    for i in (1, 2, 3, 4):
        got = gauss4.weights[i - 1](z)
        assert got == pytest.approx(-gauss4.branches[i - 1].derivative(z),
                                    rel=1e-13)


def _moebius_desc(weight, coeffs):
    return {"family": "moebius_list",
            "params": [dict(zip("abce", q), weight=weight) for q in coeffs],
            "domain": {"center": [0.0, 0.0], "radius": 1.0, "dim": 1}}


_REAL_COEFFS = [(0.0, 1.0, 1.0, 2.0), (0.5, 0.1, 0.2, 1.5)]
_COMPLEX_COEFFS = [([0.4, 0.1], 0.1, [0.3, -0.2], 2.0),
                   ([0.2, -0.3], [0.3, 0.1], [0.25, 0.15], 1.8)]


@pytest.mark.parametrize("build, sign", [
    (lambda: system_from_descriptor(
        _moebius_desc("derivative", _REAL_COEFFS)), 1.0),
    (lambda: system_from_descriptor(
        _moebius_desc("derivative", _COMPLEX_COEFFS)), 1.0),
    (lambda: system_from_descriptor(
        _moebius_desc("neg_derivative", _COMPLEX_COEFFS)), -1.0),
    (lambda: make_gauss_system(6), -1.0),
], ids=["derivative", "derivative-complex", "neg-derivative-complex",
        "gauss"])
def test_derivative_weights_match_closed_forms(build, sign):
    sys_ = build()
    zs = sys_.domain.center + 0.9 * sys_.domain.radius * np.exp(
        1j * np.linspace(0.0, 6.0, 11))
    for i in range(1, sys_.n_letters + 1):
        a, b, c, e = sys_.coefficients[i - 1].tolist()
        det = a * e - b * c
        d1 = sign * det / (c * zs + e) ** 2             # +-T'
        d2 = -2.0 * sign * c * det / (c * zs + e) ** 3  # +-T''
        w = sys_.weights[i - 1]
        assert np.allclose(w(zs), d1, rtol=1e-13, atol=0.0)
        assert np.allclose(w.derivative(zs), d2, rtol=1e-13, atol=0.0)
        for z, v1, v2 in zip(zs[:3], d1, d2):
            assert w(complex(z)) == pytest.approx(v1, rel=1e-13, abs=0.0)
            assert w.derivative(complex(z)) == pytest.approx(v2, rel=1e-13,
                                                             abs=0.0)


def test_descriptor_missing_domain():
    with pytest.raises(DescriptorError):
        system_from_descriptor({"family": "gauss", "i_max": 10})


def test_descriptor_unknown_family():
    with pytest.raises(DescriptorError):
        system_from_descriptor({
            "family": "henon",
            "params": [],
            "domain": {"center": [0.0, 0.0], "radius": 1.0, "dim": 1},
        })


def test_descriptor_bad_weight():
    desc = {
        "family": "affine_list",
        "params": [{"a": 0.5, "b": 0.0, "weight": "positive_vibes"}],
        "domain": {"center": [0.0, 0.0], "radius": 1.0, "dim": 1},
    }
    with pytest.raises(DescriptorError):
        system_from_descriptor(desc)


@pytest.mark.parametrize("where", ["b", "weight", "center", "radius", "dim",
                                   "i_max"])
def test_descriptor_boolean_is_not_a_number(where):
    # JSON true is a Python int; read as a number it would stand for 1
    entry = {"a": 0.5, "b": 0.0, "weight": 1.0}
    domain = {"center": [0.0, 0.0], "radius": 1.5, "dim": 1}
    if where == "i_max":
        desc = {"family": "gauss", "i_max": True,
                "domain": dict(domain, center=[1.0, 0.0])}
    elif where in entry:
        desc = {"family": "affine_list", "params": [dict(entry, **{where: True})],
                "domain": domain}
    else:
        desc = {"family": "affine_list", "params": [entry],
                "domain": dict(domain, **{where: True})}
    with pytest.raises(DescriptorError):
        system_from_descriptor(desc)


def test_system_id_stable_and_distinct():
    a = system_from_descriptor(AFFINE_DESC).system_id
    b = system_from_descriptor(dict(AFFINE_DESC)).system_id   # fresh dict
    c = system_from_descriptor(GAUSS4_DESC).system_id
    assert a == b
    assert a != c
    assert a.startswith("affine_list-")
    assert c.startswith("moebius_list-")


def test_system_id_is_fixed_at_build():
    # editing the descriptor dict after the build renames nothing
    desc = copy.deepcopy(AFFINE_DESC)
    sys_ = system_from_descriptor(desc)
    desc["params"][0]["b"] = 0.4
    desc["family"] = "moebius_list"
    assert sys_.system_id == system_from_descriptor(AFFINE_DESC).system_id
    assert sys_.system_id == "affine_list-e112ec41ce"


def _fresh_python(code):
    """The standard output of code in a new interpreter that imports the
    package from this tree."""
    src = os.path.dirname(os.path.dirname(transferspec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env, check=True).stdout


def test_system_ids_load_no_openssl():
    # the ids are SHA-1 digests from the interpreter's own module: hashlib
    # would load OpenSSL's libcrypto into every process that builds one
    assert _fresh_python(
        "import sys, transferspec as ts; "
        "print(ts.make_gauss_system(200).system_id, "
        "'_hashlib' in sys.modules)") == "gauss-3b66110e9c False\n"


def test_system_ids_without_the_interpreters_sha1():
    # an interpreter built without _sha1 takes hashlib's SHA-1: same ids
    assert _fresh_python(
        "import hashlib, sys; sys.modules['_sha1'] = None; "
        "import transferspec as ts; "
        "print(ts.make_gauss_system(200).system_id, "
        f"ts.system_from_descriptor({GAUSS4_DESC!r}).system_id, "
        "ts.systems.sha1 is hashlib.sha1)") == (
        "gauss-3b66110e9c moebius_list-eb3caeaedb True\n")


def test_system_of_maps_is_named_by_label_letters_and_domain():
    # the id of a system of maps sees no coefficient, so two systems can
    # share one
    ball = make_ball(0.0, 1.0)
    a, b = (make_system([make_affine(r, 0.1)], [make_const(w)], ball,
                        label="pair") for r, w in ((0.5, 1.0), (0.25, 2.0)))
    assert a.system_id == b.system_id
    assert a.system_id.startswith("pair-")


def test_alphabet_is_truncated_for_gauss(gauss200):
    # truncated at the letter count: the alphabet holds only the tail data
    assert isinstance(gauss200.alphabet, CountableTruncated)
    assert gauss200.n_letters == 200
    assert [f.name for f in dataclasses.fields(CountableTruncated)] == [
        "weight_tail_bound", "image_tail_sup"]


def test_vectorized_branch_evaluation_matches_scalar(gauss4):
    zs = make_ball(1.0, 1.5).boundary_points(17)
    letters = np.array([1, 2, 3, 4, 2, 1, 3] * 3)[:17]
    got = gauss4.apply_letters(letters, zs)
    want = np.array([gauss4.branches[l - 1](z) for l, z in zip(letters, zs)])
    assert np.allclose(got, want, rtol=1e-14)
    gotw = gauss4.weight_letters(letters, zs)
    wantw = np.array([gauss4.weights[l - 1](z) for l, z in zip(letters, zs)])
    assert np.allclose(gotw, wantw, rtol=1e-14)


# one letter per weight kind; the fourth weight is swapped for a generic
# map in the mixed system
_MIXED_DESC = {
    "family": "moebius_list",
    "params": [
        {"a": [0.4, 0.1], "b": 0.1, "c": [0.3, -0.2], "e": 2.0,
         "weight": "derivative"},
        {"a": [0.2, -0.3], "b": [0.3, 0.1], "c": [0.25, 0.15], "e": 1.8,
         "weight": "neg_derivative"},
        {"a": 0.0, "b": 1.0, "c": 1.0, "e": 2.0, "weight": [0.7, -0.2]},
        {"a": 0.5, "b": 0.1, "c": 0.2, "e": 1.5, "weight": 1.0},
    ],
    "domain": {"center": [0.1, 0.05], "radius": 1.0, "dim": 1},
}


def _mixed_system():
    base = system_from_descriptor(_MIXED_DESC)
    generic = AnalyticMap(lambda z: 0.3 / (3.0 + z) + 0.1j * z, name="generic")
    return make_system(base.branches, base.weights[:3] + (generic,),
                       base.domain)


@pytest.mark.parametrize("build, consts", [
    (_mixed_system, (2,)),
    (lambda: as_plain_maps(_mixed_system()), (2,)),
    (lambda: system_from_descriptor(_MIXED_DESC), (2, 3)),
    (lambda: as_plain_maps(system_from_descriptor(_MIXED_DESC)), (2, 3)),
], ids=["mixed", "mixed-plain", "no-generic", "no-generic-plain"])
def test_mixed_weight_kinds_match_per_letter_evaluation(build, consts):
    # consts holds the 0-based letters whose weights are constants
    sys_ = build()
    zs = sys_.domain.center + 0.8 * np.exp(1j * np.linspace(0.0, 6.0, 13))
    n, g = sys_.n_letters, zs.size
    letters = np.repeat(np.arange(1, n + 1), g)
    gathered = sys_.weight_letters(letters, np.tile(zs, n)).reshape(n, g)
    _, grid = systems._branch_values_on_grid(sys_, zs)
    for k, w in enumerate(sys_.weights):
        want = np.array([w(complex(z)) for z in zs])
        for got in (gathered[k], grid[k]):
            if k in consts:
                assert np.allclose(got, want, rtol=1e-15, atol=0)
            else:
                assert np.allclose(got, want, rtol=1e-15, atol=0.0)


def _dim2_branch():
    return AnalyticMap(lambda z: [0.5 * z[0], 0.5 * z[1]], dim=2)


def test_dim2_constant_weight_is_read_not_called(monkeypatch):
    # a make_const weight in a dim-2 system comes from the weight law: the
    # gathers return its value and never call a weight map
    sys_ = make_system([_dim2_branch()], [make_const(0.5)],
                       make_ball((0.0, 0.0), 1.0, dim=2))
    calls = []
    call = AnalyticMap.__call__
    monkeypatch.setattr(AnalyticMap, "__call__",
                        lambda self, z: calls.append(self) or call(self, z))
    got = sys_.weight_letters(np.ones(3, dtype=np.uint8),
                              np.zeros((2, 3), dtype=complex))
    assert np.array_equal(got, np.full(3, 0.5 + 0j))
    assert calls == []


def test_dim2_constant_next_to_generic_weight_holds_at_every_point():
    # with a generic weight beside it the gathers call every weight map,
    # and the constant still gives one value per point of a (2, m) batch
    generic = AnalyticMap(lambda z: 1.0 + z[0] * z[1], dim=2)
    sys_ = make_system([_dim2_branch()] * 2, [make_const(0.5), generic],
                       make_ball((0.0, 0.0), 1.0, dim=2))
    assert sys_.law is None
    z = np.array([[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]], dtype=complex)
    got = sys_.weight_letters(np.array([1, 2, 1, 2], dtype=np.uint8), z)
    assert np.array_equal(got, [0.5, 1.12, 0.5, 1.32])


@pytest.mark.parametrize("weight", [
    AnalyticMap(lambda z: 1.0 + z), "neg_derivative"], ids=["map", "-T'"])
def test_dim2_system_refuses_non_constant_dim1_weight(weight):
    if weight == "neg_derivative":
        weight = system_from_descriptor(GAUSS4_DESC).weights[0]
    with pytest.raises(InvalidDomain):
        make_system([_dim2_branch()], [weight],
                    make_ball((0.0, 0.0), 1.0, dim=2))


def _same_system(left, right, order):
    """Equal coefficient and law arrays, and bit-identical traces, matrix
    and validation report."""
    assert np.array_equal(left.coefficients, right.coefficients)
    for a, b in zip(left.law, right.law):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(assemble_matrix(left, N=16),
                          assemble_matrix(right, N=16))
    assert validate_system(left).to_dict() == validate_system(right).to_dict()
    assert np.array_equal(trace_table(left, order).values,
                          trace_table(right, order).values)


def test_affine_descriptor_and_maps_are_one_representation():
    built = make_system([make_affine(0.5, 0.3)], [make_const(1.0)],
                        make_ball(0.6, 1.0))
    _same_system(system_from_descriptor(AFFINE_DESC), built, 6)


def test_gauss_preset_and_moebius_maps_are_one_representation():
    # maps have the finite alphabet of their branches: the preset's letters
    # as Moebius maps are the system its arrays carry without its tail
    preset = make_gauss_system(20)
    built = make_system([make_moebius(0, 1, 1, i) for i in range(1, 21)],
                        preset.weights, preset.domain)
    assert built.alphabet is None
    _same_system(MapWeightSystem(preset.coefficients, preset.law,
                                 preset.domain, preset.system_id), built, 3)


@pytest.mark.parametrize("build, want", [
    (lambda: make_system([make_affine(0.5, 0.3)], [make_const(1.0)],
                         make_ball(0.6, 1.0), label="pair"),
     "letters=1, dim=1, alphabet=finite)"),
    (lambda: system_from_descriptor(GAUSS4_DESC),
     "letters=4, dim=1, alphabet=finite)"),
    (lambda: make_gauss_system(7), "letters=7, dim=1, alphabet=truncated)"),
], ids=["make_system", "descriptor", "gauss"])
def test_every_builder_goes_through_the_one_constructor(build, want,
                                                        monkeypatch):
    calls = []
    init = MapWeightSystem.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MapWeightSystem, "__init__", spy)
    sys_ = build()
    assert len(calls) == 1
    assert repr(sys_) == f"MapWeightSystem({sys_.system_id}, " + want


def test_borrowed_derivative_weight_is_called_as_its_map():
    # -T_1' of gauss4 beside the branch 1/(5 + z) is still 1/(1 + z)^2: it
    # stays out of the weight law, which would multiply by the T' of
    # 1/(5 + z)
    borrowed = system_from_descriptor(GAUSS4_DESC).weights[0]
    sys_ = make_system([make_moebius(0, 1, 1, 5)], [borrowed],
                       make_ball(1, 1.5))
    assert sys_.coefficients is not None and sys_.law is None
    got = sys_.weight_letters(np.array([1]), np.array([0.3 + 0j]))[0]
    assert got == borrowed(0.3)
    assert got == pytest.approx(1 / 1.3 ** 2, rel=1e-15)


@pytest.mark.parametrize("desc", [AFFINE_DESC, GAUSS4_DESC])
def test_plain_map_copies_get_no_coefficients(desc):
    # a +-T' weight beside a plain branch is called as the map it is, and
    # gives the bits of the law; constants keep the law
    sys_ = system_from_descriptor(desc)
    plain = as_plain_maps(sys_)
    assert sys_.coefficients is not None and plain.coefficients is None
    assert (plain.law is None) == bool(sys_.law[1].any())
    ball = sys_.domain
    letters = np.repeat(np.arange(1, sys_.n_letters + 1), 50)
    z = ball.center + 0.9 * ball.radius * np.exp(
        1j * np.linspace(0.0, 2.0 * np.pi, len(letters), endpoint=False))
    got, want = plain.weight_letters(letters, z), sys_.weight_letters(letters,
                                                                      z)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
