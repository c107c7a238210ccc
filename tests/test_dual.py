"""Forward-mode differentiation: rules against symbolic closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transferspec import (
    AnalyticMap,
    TransferOperatorError,
    contraction_details,
    make_ball,
    make_const,
    make_system,
    trace_table,
)
from transferspec._dual import Dual, derivative_scalar, jacobian


def test_arithmetic_rules():
    x = Dual(3.0, 1.0)
    assert (x + 2).val == 5.0 and (x + 2).eps == 1.0
    assert (2 - x).val == -1.0 and (2 - x).eps == -1.0
    y = x * x
    assert y.val == 9.0 and y.eps == 6.0
    q = 1 / x
    assert q.val == pytest.approx(1 / 3)
    assert q.eps == pytest.approx(-1 / 9)


def test_signs_division_by_a_number_and_a_real_power():
    x = Dual(3.0, 1.0)
    assert ((-x).val, (-x).eps) == (-3.0, -1.0)
    assert +x is x
    assert ((x / 4).val, (x / 4).eps) == (0.75, 0.25)
    with pytest.raises(TypeError) as err:
        x ** 0.5
    assert str(err.value) == ("Dual supports integer powers only; write "
                              "fractional powers in closed form")


def test_power_rule_including_negative_exponents():
    x = Dual(2.0, 1.0)
    p = x ** 5
    assert p.val == 32.0 and p.eps == 80.0
    n = x ** -3
    assert n.val == pytest.approx(2.0 ** -3)
    assert n.eps == pytest.approx(-3 * 2.0 ** -4)
    one = x ** 0
    assert one.val == 1.0 and one.eps == 0.0


def test_derivative_scalar_rational_function():
    f = lambda z: (z ** 2 - 1j) / (z + 2)
    z = 0.7 - 0.4j
    want = (2 * z * (z + 2) - (z ** 2 - 1j)) / (z + 2) ** 2
    assert derivative_scalar(f, z) == pytest.approx(want, rel=1e-14)


def test_dual_broadcasts_over_arrays():
    zs = np.linspace(0.1, 0.9, 7) + 0.2j
    out = (Dual(zs, np.ones_like(zs)) ** 3)
    assert np.allclose(out.val, zs ** 3)
    assert np.allclose(out.eps, 3 * zs ** 2)


def test_jacobian_diagonal_map():
    f = lambda z: np.array([0.5 * z[0] + 0.1, 0.4 * z[1] - 0.2])
    J = jacobian(f, np.array([0.3 + 0.0j, -0.1 + 0.2j]), 2)
    assert np.allclose(J, np.diag([0.5, 0.4]))


def test_jacobian_coupled_map():
    f = lambda z: np.array([z[0] * z[1], z[0] + z[1] ** 2])
    z = np.array([1.5 + 0.5j, -0.25 + 1.0j])
    J = jacobian(f, z, 2)
    want = np.array([[z[1], z[0]], [1.0, 2 * z[1]]])
    assert np.allclose(J, want, rtol=1e-14)


def test_numpy_function_of_a_dual_is_one_error():
    # dual numbers take field arithmetic and integer powers only: np.exp is
    # refused by name, at a point, on a batch and in the routes that
    # differentiate a plain map, not with numpy's TypeError
    fn = AnalyticMap(lambda z: np.exp(z) / 4)
    sys_ = make_system([fn], [make_const(1.0)], make_ball(0.0, 1.0))
    for call in (lambda: fn.derivative(0.3),
                 lambda: fn.derivative(np.array([0.3, 0.2])),
                 lambda: trace_table(sys_, 3),
                 lambda: contraction_details(sys_, 2)):
        with pytest.raises(TransferOperatorError) as err:
            call()
        assert type(err.value) is TransferOperatorError
        assert str(err.value) == ("np.exp cannot take a dual number; give "
                                  "the map a derivative rule (AnalyticMap's "
                                  "deriv)")
    # the map itself, and a numpy scalar times a dual, are unchanged
    assert fn(0.3) == np.exp(0.3) / 4
    assert (np.float64(2.0) * Dual(3.0, 1.0)).eps == 2.0


def test_non_holomorphic_use_fails_loudly():
    with pytest.raises(Exception):
        abs(Dual(1.0, 1.0)) < 2.0


@settings(max_examples=80, deadline=None)
@given(st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False))
def test_derivative_matches_central_difference(z):
    f = lambda w: w ** 4 / (3.0 + w) + 2.0 * w
    d = derivative_scalar(f, z)
    h = 1e-6
    fd = (f(z + h) - f(z - h)) / (2 * h)
    assert abs(d - fd) <= 1e-6 * max(1.0, abs(d))
