"""The vectorized shifted power sums behind the analytic tail closures."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

import oracles
from transferspec._zeta import hzeta_int, hzeta_rows, normal_orders, trigamma


def test_trigamma_at_one():
    assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-14)


def test_trigamma_vs_scipy_real_arguments():
    xs = np.array([0.5, 1.0, 2.25, 10.0, 51.5, 201.0])
    got = trigamma(xs)
    want = scipy.special.polygamma(1, xs)
    assert np.max(np.abs(got - want)) < 1e-13
    assert np.max(np.abs(got.imag)) == 0.0 or np.max(np.abs(got.imag)) < 1e-17


@pytest.mark.parametrize("s", [2, 3, 5, 12, 40, 200])
@pytest.mark.parametrize("a", [0.75, 3.0, 51.5 + 0.25j, 2.0 - 1.4j, 201.0 + 1.0j])
def test_hzeta_vs_arbitrary_precision(s, a):
    got = complex(hzeta_int(s, a))
    want = oracles.hzeta_reference(s, a)
    assert abs(got - want) <= 5e-13 * max(1.0, abs(want))


def test_hzeta_vectorized_matches_scalar():
    # the expansion shift is shared across an array, so vector and scalar
    # paths may differ in the last ulps; accuracy and determinism must hold
    zs = np.array([1.5 + 0.2j, 7.0, 33.0 - 5.0j, 400.0])
    got = hzeta_int(3, zs)
    want = np.array([complex(hzeta_int(3, z)) for z in zs])
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    assert np.array_equal(got, hzeta_int(3, zs))


def test_hzeta_recurrence():
    # zeta(s, a) - zeta(s, a+1) = a^(-s), the defining shift identity
    for s in (2, 6):
        for a in (1.25, 4.0 + 0.5j):
            lhs = complex(hzeta_int(s, a)) - complex(hzeta_int(s, a + 1))
            assert lhs == pytest.approx(a ** (-s), rel=1e-13)


@pytest.mark.parametrize("count, a", [
    (256, 359.5 + 1.5j),    # just past the no-shift floor 1.3 * 257 + 25
    (256, 386.2 - 1.1j),    # the tail's own argument at matrix size 128
    (128, 193.0 - 1.2j),
    (128, 900.0 + 300.0j),
])
def test_hzeta_rows_vs_arbitrary_precision(count, a):
    rows = hzeta_rows(count, np.array([a]))
    assert rows.shape == (count, 1)
    # past s of about 120 the values leave the normal range (0 or
    # subnormal in double), so they are checked to the smallest normal
    for s in [*range(2, count + 2, 5), count + 1]:
        want = oracles.hzeta_reference(s, a)
        assert abs(rows[s - 2, 0] - want) <= (5e-13 * abs(want)
                                              + np.finfo(float).tiny)


@pytest.mark.parametrize("a", [200.5, 200.6, 201.3 - 1.1j])
def test_hzeta_rows_at_the_tail_arguments_vs_arbitrary_precision(a):
    # the Gauss tail at matrix size 256 on discs (1, 1.5) and (0.8, 1.2)
    # and off the real axis: it asks only for the orders that can be
    # normal doubles there, all of them checked
    count = normal_orders(256, a.real)
    rows = hzeta_rows(count, np.array([a]))
    assert 130 <= count < 140 and rows.shape == (count, 1)
    for s in range(2, count + 2):
        want = oracles.hzeta_reference(s, a)
        assert abs(rows[s - 2, 0] - want) <= (5e-13 * abs(want)
                                              + np.finfo(float).tiny)


def test_normal_orders_ends_where_the_values_leave_the_normal_range():
    # at a = 200.5 zeta(133, a) is about 1.4e-306 and zeta(134, a) about
    # 6.8e-309, below the smallest normal 2.2e-308
    assert normal_orders(256, 200.5) == 132
    assert oracles.hzeta_reference(133, 200.5) > np.finfo(float).tiny
    assert oracles.hzeta_reference(134, 200.5) < np.finfo(float).tiny
    assert normal_orders(100, 200.5) == 100
    assert normal_orders(256, 0.5) == 256


def test_hzeta_rows_refuses_arguments_it_would_need_to_shift():
    hzeta_rows(256, np.array([359.2]))
    with pytest.raises(ValueError, match="359.1"):
        hzeta_rows(256, np.array([359.0, 400.0]))
    with pytest.raises(ValueError):
        hzeta_rows(4, np.array([-400.0]))


def test_hzeta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hzeta_int(1, 2.0)
    with pytest.raises(ValueError):
        hzeta_int(2.5, 2.0)
    with pytest.raises(ValueError):
        hzeta_int(2, -3.0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=60),
    st.floats(min_value=0.3, max_value=500.0),
    st.floats(min_value=-20.0, max_value=20.0),
)
def test_hzeta_property_vs_reference(s, re, im):
    a = complex(re, im)
    got = complex(hzeta_int(s, a))
    want = oracles.hzeta_reference(s, a)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
