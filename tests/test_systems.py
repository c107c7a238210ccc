"""Domain, map builders, family constructors, validation, descriptors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from transferspec import (
    AnalyticMap,
    CountableTruncated,
    DegenerateMap,
    DescriptorError,
    InvalidDomain,
    make_affine,
    make_ball,
    make_const,
    make_gauss_system,
    make_moebius,
    make_system,
    system_from_descriptor,
    validate_system,
)

from conftest import AFFINE_DESC, GAUSS4_DESC


# ---------------------------------------------------------------------------
# balls


def test_ball_disc_example():
    b = make_ball(1.0, 1.5)
    assert b.center == 1.0 + 0.0j
    assert b.radius == 1.5
    assert b.dim == 1


def test_ball_unit_disc():
    b = make_ball(0.0, 1.0)
    assert b.contains(0.999)
    assert not b.contains(1.001)


def test_ball_degenerate():
    with pytest.raises(InvalidDomain):
        make_ball(0.0, 0.0)
    with pytest.raises(InvalidDomain):
        make_ball(0.0, -1.0)


def test_ball_dim_mismatch():
    with pytest.raises(InvalidDomain):
        make_ball((0.0, 0.0), 1.0, dim=3)


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


# ---------------------------------------------------------------------------
# continued-fraction family


def test_gauss_branch_one_at_zero():
    sys_ = make_gauss_system(50, make_ball(1.0, 1.5))
    assert sys_.n_letters == 50
    assert sys_.branch(1)(0.0) == pytest.approx(1.0)


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


def test_gauss_tail_bound_monotone_in_imax():
    d = make_ball(1.0, 1.5)
    b50 = make_gauss_system(50, d).alphabet.weight_tail_bound
    b80 = make_gauss_system(80, d).alphabet.weight_tail_bound
    b200 = make_gauss_system(200, d).alphabet.weight_tail_bound
    assert b80 <= b50 and b200 <= b80


def test_gauss_empty_alphabet_rejected():
    with pytest.raises(Exception):
        make_gauss_system(0, make_ball(1.0, 1.5))


def test_gauss_power_tail_matches_high_precision_sum():
    # row n of the tail closure is sum_{i>i_max} w_i(z) (T_i(z)-c)^n; the
    # oracle sums a few hundred branches exactly and closes the remainder
    # with the arbitrary-precision power sums of oracles.hzeta_reference
    sys_ = make_gauss_system(50, make_ball(1.0, 1.5))
    tail = sys_.alphabet.power_tail
    zs = make_ball(1.0, 1.5).boundary_points(7)
    got = tail(zs, 4, 1.0 + 0.0j)
    cut = 400
    i = np.arange(51, cut + 1, dtype=float)[:, None]
    u = 1.0 / (i + zs[None, :])
    want = np.stack([np.sum(u ** 2 * (u - 1.0) ** n, axis=0) for n in range(4)])
    for p, z in enumerate(zs):
        hz = [oracles.hzeta_reference(j + 2, cut + 1 + z) for j in range(4)]
        for n in range(4):
            rem = sum(math.comb(n, j) * (-1.0) ** (n - j) * hz[j]
                      for j in range(n + 1))
            want[n, p] += rem
    assert np.max(np.abs(got - want)) < 1e-12


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
    assert affine_half.branch(1)(0.6) == pytest.approx(0.6)
    assert affine_half.weight(1)(0.1) == pytest.approx(1.0)


def test_descriptor_gauss4_weights_are_neg_derivative(gauss4):
    z = 0.25 + 0.1j
    for i in (1, 2, 3, 4):
        got = gauss4.weight(i)(z)
        assert got == pytest.approx(-gauss4.branch(i).derivative(z), rel=1e-13)


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


def test_system_id_stable_and_distinct():
    a = system_from_descriptor(AFFINE_DESC).system_id
    b = system_from_descriptor(dict(AFFINE_DESC)).system_id   # fresh dict
    c = system_from_descriptor(GAUSS4_DESC).system_id
    assert a == b
    assert a != c
    assert a.startswith("affine_list-")
    assert c.startswith("moebius_list-")


def test_alphabet_is_truncated_for_gauss(gauss200):
    assert isinstance(gauss200.alphabet, CountableTruncated)
    assert gauss200.alphabet.i_max == 200


def test_vectorized_branch_evaluation_matches_scalar(gauss4):
    zs = make_ball(1.0, 1.5).boundary_points(17)
    letters = np.array([1, 2, 3, 4, 2, 1, 3] * 3)[:17]
    got = gauss4.apply_letters(letters, zs)
    want = np.array([gauss4.branch(int(l))(z) for l, z in zip(letters, zs)])
    assert np.allclose(got, want, rtol=1e-14)
    gotw = gauss4.weight_letters(letters, zs)
    wantw = np.array([gauss4.weight(int(l))(z) for l, z in zip(letters, zs)])
    assert np.allclose(gotw, wantw, rtol=1e-14)
