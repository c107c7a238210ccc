"""Shared fixtures: the standard systems the suite exercises repeatedly."""

import numpy as np
import pytest

from transferspec import (
    AnalyticMap,
    make_affine,
    make_ball,
    make_const,
    make_gauss_system,
    make_system,
    system_from_descriptor,
)
from transferspec.dynamics import _fold_blocks

AFFINE_DESC = {
    "family": "affine_list",
    "params": [{"a": 0.5, "b": 0.3, "weight": 1.0}],
    "domain": {"center": [0.6, 0.0], "radius": 1.0, "dim": 1},
}

GAUSS4_DESC = {
    "family": "moebius_list",
    "params": [
        {"a": 0.0, "b": 1.0, "c": 1.0, "e": float(i), "weight": "neg_derivative"}
        for i in (1, 2, 3, 4)
    ],
    "domain": {"center": [1.0, 0.0], "radius": 1.5, "dim": 1},
}


def as_plain_maps(sys_):
    """The same branches as plain callables with no Moebius coefficients,
    so word fixed points are iterated and contraction is sampled."""
    branches = [AnalyticMap(br, br.derivative, dim=1) for br in sys_.branches]
    return make_system(branches, sys_.weights, sys_.domain)


def whole_walk(size, n, lo, hi, mob=None, factors=(), necklaces=False):
    """The words lo..hi-1 as the one block of a walk in blocks of size^n
    words: every tree level in one slice."""
    (block,) = _fold_blocks(size, n, lo, hi, mob, factors, necklaces,
                            size ** n)
    return block


@pytest.fixture(scope="session")
def affine_half():
    """Single branch T(z) = 0.5 z + 0.3, w = 1, unit disc at the fixed point."""
    return system_from_descriptor(AFFINE_DESC)


@pytest.fixture(scope="session")
def gauss200():
    return make_gauss_system(200, make_ball(1.0, 1.5))


@pytest.fixture(scope="session")
def gauss4():
    """Finite continued-fraction subsystem: branches 1/(i+z), i = 1..4,
    weights -T_i' = 1/(i+z)^2."""
    return system_from_descriptor(GAUSS4_DESC)


@pytest.fixture(scope="session")
def two_thirds():
    """T_1 = z/3, T_2 = (z+2)/3, unit weights, on disc(1/2, 1)."""
    return make_system(
        [make_affine(1 / 3, 0.0), make_affine(1 / 3, 2 / 3)],
        [make_const(1.0), make_const(1.0)],
        make_ball(0.5, 1.0),
        label="two-thirds",
    )


@pytest.fixture(scope="session")
def diag2d():
    """d = 2 diagonal affine contraction with unit weight: eigenvalue grid
    0.5^a 0.4^b."""
    branch = AnalyticMap(
        lambda z: np.array([0.5 * z[0] + 0.1, 0.4 * z[1] - 0.2], dtype=complex),
        lambda z: np.array([[0.5, 0.0], [0.0, 0.4]], dtype=complex),
        dim=2,
        name="diag-affine",
    )
    return make_system([branch], [make_const(1.0)],
                       make_ball((0.0, 0.0), 1.0, dim=2), label="diag2d")


@pytest.fixture(scope="session")
def zero_weight():
    """All weights identically zero: the zero operator."""
    return make_system(
        [make_affine(0.5, 0.0)], [make_const(0.0)],
        make_ball(0.0, 1.0), label="zero-weight",
    )
