"""A Moebius conjugate of an affine system against its exact spectrum.

T_i = h o A_i o h^-1 with A_i(u) = a_i u + b_i has a dense, complex,
non-normal matrix in the circle basis of D = h(unit disc), and its spectrum
{sum_i w_i a_i^k} and traces sum_u w_u / (1 - a_u) are known exactly
(oracles.conjugate_descriptor). The bounds below are floors measured on
case C1: a later change may improve on them, not fall below them.
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

C1 = oracles.C1


@pytest.fixture(scope="module")
def c1():
    desc = oracles.conjugate_descriptor(C1["a"], C1["b"], C1["weights"],
                                        C1["h"])
    exact = oracles.conjugate_eigenvalues_mp(C1["a"], C1["weights"], 128)
    return system_from_descriptor(desc), np.array([complex(v) for v in exact])


def test_c1_domain_is_the_image_of_the_unit_disc(c1):
    sys_, exact = c1
    assert sys_.domain.center == pytest.approx(0.21978, abs=1e-5)
    assert sys_.domain.radius == pytest.approx(0.93407, abs=1e-5)
    assert exact[0] == pytest.approx(1.7, rel=1e-15)    # sum of the weights


def test_c1_traces_match_the_word_sums(c1):
    sys_, _ = c1
    got = trace_table(sys_, 8).values
    want = oracles.conjugate_traces_mp(C1["a"], C1["weights"], range(1, 9))
    for n, (g, w) in enumerate(zip(got, want), start=1):
        assert abs(complex(g) - w) <= 1e-13 * abs(w), n


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
