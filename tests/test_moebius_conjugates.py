"""Moebius conjugates of affine systems against their exact spectra.

T_i = h o A_i o h^-1 with A_i(u) = a_i u + b_i has a dense, non-normal
matrix in the circle basis of D = h(unit disc), and its spectrum
{sum_i w_i a_i^k}, or {sum_i a_i^(k+1)} with derivative weights, and
traces sum_u w_u / (1 - a_u) are known exactly (oracles.conjugate_descriptor).
The bounds below are floors measured on each case: a later change may
improve on them, not fall below them.

- C1: complex coefficients and constant weights.
- C2: a real system with derivative weights, whose matrix route is far
  less accurate at a given size.
- NEAR_TIE: two different eigenvalues, fifth and sixth, whose moduli
  differ by 3e-7 relative, so a computed value is compared with the exact
  value nearest to it, not with the one at its index.
"""

import numpy as np
import pytest

import oracles
from transferspec import (
    determinant_coefficients,
    determinant_zeros,
    spectral_sequence,
    system_from_descriptor,
    trace_table,
)

C1, C2, NEAR_TIE = oracles.C1, oracles.C2, oracles.NEAR_TIE


def _case(case):
    desc = oracles.conjugate_descriptor(case["a"], case["b"],
                                        case["weights"], case["h"])
    exact = oracles.conjugate_eigenvalues_mp(case["a"], case["weights"], 128)
    return system_from_descriptor(desc), np.array([complex(v) for v in exact])


@pytest.fixture(scope="module")
def c1():
    return _case(C1)


@pytest.fixture(scope="module")
def c2():
    return _case(C2)


@pytest.fixture(scope="module")
def near_tie():
    return _case(NEAR_TIE)


def _nearest_error(values, exact):
    """Each value's relative distance to the exact value nearest to it."""
    values = np.asarray(values)[:, None]
    k = np.argmin(np.abs(values - exact), axis=1)
    return np.abs(values[:, 0] - exact[k]) / np.abs(exact[k]), k


def test_c1_domain_is_the_image_of_the_unit_disc(c1):
    sys_, exact = c1
    assert sys_.domain.center == pytest.approx(0.21978, abs=1e-5)
    assert sys_.domain.radius == pytest.approx(0.93407, abs=1e-5)
    assert exact[0] == pytest.approx(1.7, rel=1e-15)    # sum of the weights


def _traces_match(sys_, case):
    """Orders 1-8 of the trace table within 1e-13 relative."""
    got = trace_table(sys_, 8).values
    want = oracles.conjugate_traces_mp(case["a"], case["weights"],
                                       range(1, 9))
    for n, (g, w) in enumerate(zip(got, want), start=1):
        assert abs(complex(g) - w) <= 1e-13 * abs(w), n


def test_c1_traces_match_the_word_sums(c1):
    _traces_match(c1[0], C1)


@pytest.mark.parametrize("N, count", [(16, 10), (32, 23), (64, 29)])
def test_c1_matrix_route_floor(c1, N, count):
    # the printed values (those of the 2N matrix): lambda_11, lambda_24 and
    # lambda_31 are the first off by more than 1e-6 at N = 16, 32 and 64
    sys_, exact = c1
    got = np.array(spectral_sequence(sys_, N=N).values[:count])
    rel = np.abs(got - exact[:count]) / np.abs(exact[:count])
    assert rel.max() <= 1e-6


def test_c1_determinant_zeros_floor(c1):
    # zeros 1-3 at order 10 were off by 1.1e-17, 1.7e-13 and 2.5e-10
    sys_, exact = c1
    zeros = determinant_zeros(determinant_coefficients(trace_table(sys_, 10)))
    for k in range(3):
        got, want = 1.0 / zeros.values[k], 1.0 / exact[k]
        assert abs(got - want) <= 1e-9 * abs(want), k + 1


def test_c2_domain_and_spectrum(c2):
    sys_, exact = c2
    assert sys_.domain.center == pytest.approx(-0.9375, abs=1e-12)
    assert sys_.domain.radius == pytest.approx(1.5625, abs=1e-12)
    assert not sys_.coefficients.imag.any()
    # 0.4^2 + 0.45^2, then 0.4^4 + 0.45^4, then -(0.45 - 0.4)
    assert exact[:3] == pytest.approx([0.3625, 0.06660625, -0.05],
                                      rel=1e-15)


def test_c2_traces_match_the_word_sums(c2):
    # order 8 is the worst, at 9.3e-14
    _traces_match(c2[0], C2)


@pytest.mark.parametrize("N, count, tol", [
    (16, 4, 1e-2), (32, 6, 1e-5), (64, 12, 1e-6)])
def test_c2_matrix_route_floor(c2, N, count, tol):
    # measured worst of the first count values: 2.9e-3 (lambda_2) at
    # N = 16, 4.1e-6 (lambda_5) at 32 and 1.0e-7 (lambda_11) at 64, where
    # lambda_13 is the first off by more than 1e-6
    sys_, exact = c2
    got = np.array(spectral_sequence(sys_, N=N).values[:count])
    rel = np.abs(got - exact[:count]) / np.abs(exact[:count])
    assert rel.max() <= tol


def test_c2_determinant_zeros_floor(c2):
    # zeros 1-4 at order 10 were off by 1.0e-14, 2.4e-8, 2.8e-7 and 3.2e-5
    sys_, exact = c2
    zeros = determinant_zeros(determinant_coefficients(trace_table(sys_, 10)))
    for k, tol in enumerate((1e-13, 1e-7, 1e-6, 1e-4)):
        assert abs(zeros.values[k] - exact[k]) <= tol * abs(exact[k]), k + 1


def test_near_tie_is_a_tie_of_different_values(near_tie):
    sys_, exact = near_tie
    assert sys_.coefficients.imag.any()
    five, six = exact[4], exact[5]
    assert five.real < 0.0 < six.real and five.imag == six.imag == 0.0
    assert 0.0 < abs(five) - abs(six) < 1e-6 * abs(six)


def test_near_tie_traces_match_the_word_sums(near_tie):
    _traces_match(near_tie[0], NEAR_TIE)


@pytest.mark.parametrize("N, count", [(16, 3), (32, 11), (64, 11)])
def test_near_tie_matrix_route_floor(near_tie, N, count):
    # each of the first count values within 1e-6 of its nearest exact
    # value, and no two of them nearest the same one; measured worst:
    # 4.5e-9 at N = 16 (lambda_4 at 2.3e-6), 1.1e-7 at 32 and 3.3e-7 at 64
    sys_, exact = near_tie
    rel, k = _nearest_error(spectral_sequence(sys_, N=N).values[:count],
                            exact)
    assert rel.max() <= 1e-6
    assert len(set(k.tolist())) == count
    if count > 5:       # both values of the tie are found
        assert {4, 5} <= set(k.tolist())


def test_near_tie_determinant_zeros_floor(near_tie):
    # the nearest-exact errors of zeros 1-3 at order 10 were 2.4e-12,
    # 1.9e-5 and 3.8e-5
    sys_, exact = near_tie
    zeros = determinant_zeros(determinant_coefficients(trace_table(sys_, 10)))
    rel, _ = _nearest_error(zeros.values[:3], exact)
    assert rel[0] <= 1e-11
    assert rel[1:].max() <= 1e-4
