"""Batched words, fixed points, contraction factors."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest

import oracles
from transferspec import (
    BudgetExceeded,
    DimensionUnsupported,
    EscapedDomain,
    InadmissibleDomain,
    NoConvergence,
    NotContracting,
    NotEnclosed,
    assemble_matrix,
    contraction_details,
    determinant,
    dynamics,
    enclosing_radius,
    fixed_point,
    make_affine,
    make_ball,
    make_const,
    make_gauss_system,
    make_moebius,
    make_system,
    system_from_descriptor,
    trace_table,
)
from transferspec._parallel import chunk_ranges
from transferspec.dynamics import (
    _fold_blocks,
    _fold_moebius,
    batch_fixed_points,
    batch_orbit,
    word_letters,
)
from transferspec.systems import AnalyticMap

from conftest import GAUSS4_DESC, as_plain_maps, whole_walk
from test_determinant import REAL_CASES, _bits


# ---------------------------------------------------------------------------
# single words on the batched path


def _orbit(sys_, word, z):
    """batch_orbit of one word from one point: weight, derivative, image."""
    wgt, mult, end = batch_orbit(sys_, np.array([word]),
                                 np.array([z], dtype=complex))
    return wgt[0], mult[0], end[0]


def test_compose_gauss_one_one_derivative(gauss200):
    _, mult, _ = _orbit(gauss200, (1, 1), -0.5)
    assert mult == pytest.approx(4 / 9, rel=1e-13)


def test_compose_single_letter(gauss200):
    zs = make_ball(1.0, 1.5).boundary_points(11)
    _, _, end = batch_orbit(gauss200, np.full((11, 1), 3), zs)
    assert np.allclose(end, gauss200.branches[2](zs), rtol=1e-14)


def test_compose_affine_square():
    sys_ = make_system([make_affine(0.5, 0.3)], [make_const(1.0)],
                       make_ball(0.6, 1.0))
    for z in (0.0, 0.6, -0.2 + 0.4j):
        assert _orbit(sys_, (1, 1), z)[2] == pytest.approx(0.25 * z + 0.45,
                                                           rel=1e-14)


def test_compose_associative(gauss4):
    rng = np.random.default_rng(11)
    zs = 1.0 + 1.2 * (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / 2
    for _ in range(10):
        w1 = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
        w2 = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
        for z in zs:
            wa, da, a = _orbit(gauss4, w1 + w2, z)
            w_first, d_first, mid = _orbit(gauss4, w1, z)
            w_second, d_second, b = _orbit(gauss4, w2, mid)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))
            db = d_second * d_first
            assert abs(da - db) <= 1e-13 * max(1.0, abs(da))
            wb = w_first * w_second
            assert abs(wa - wb) <= 1e-13 * max(1.0, abs(wa))


def test_compose_moebius_coefficients_fold_in_word_order(gauss4):
    # the fold of (1, 2, 4) is M_4 M_2 M_1, which acts as T_4 o T_2 o T_1
    word = (1, 2, 4)
    letter = [tuple(gauss4.coefficients[l - 1]) for l in word]
    a, b, c, e = _fold_moebius(letter)
    for z in (0.0, 1.0 + 0.5j, -0.2 + 0.1j):
        assert (a * z + b) / (c * z + e) == pytest.approx(
            _orbit(gauss4, word, z)[2], rel=1e-14)
    # a fold continued from a prefix's matrix repeats the full fold's bits
    assert _fold_moebius(letter[2:], _fold_moebius(letter[:2])) == (a, b, c, e)


def test_word_weight_single_letter(gauss4):
    z = 0.3 + 0.2j
    assert _orbit(gauss4, (2,), z)[0] == pytest.approx(gauss4.weights[1](z),
                                                       rel=1e-14)


def test_word_weight_gauss_example(gauss200):
    assert _orbit(gauss200, (1, 2), 0.0)[0] == pytest.approx(1 / 9, rel=1e-13)


def test_word_weight_affine_linear_weight():
    # T(z) = az with weight w(z) = z: the length-2 word weight is z * (az)
    a = 0.25
    branch = make_affine(a, 0.0)
    ident = AnalyticMap(lambda z: z, lambda z: 1.0 + 0.0 * z, name="id-weight")
    sys_ = make_system([branch], [ident], make_ball(0.0, 1.0))
    for z in (0.5, -0.3 + 0.1j):
        assert _orbit(sys_, (1, 1), z)[0] == pytest.approx(a * z ** 2,
                                                           rel=1e-14)


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_point_affine():
    res = fixed_point(make_affine(0.5, 1.0), make_ball(2.0, 2.0), tol=1e-12)
    assert res.point == pytest.approx(2.0, abs=1e-12)
    assert res.residual <= 1e-12
    assert res.contraction_estimate == pytest.approx(0.5, abs=1e-6)


def test_fixed_point_gauss_branch_golden_ratio(gauss200):
    res = fixed_point(gauss200.branches[0], make_ball(1.0, 1.5))
    want = (math.sqrt(5) - 1) / 2
    assert res.point == pytest.approx(want, abs=1e-12)
    # residual re-verified against the map itself
    assert abs(gauss200.branches[0](res.point) - res.point) <= 1e-13


def test_fixed_point_identity_fails():
    ident = make_affine(1.0, 0.0)
    with pytest.raises((NoConvergence, EscapedDomain)):
        fixed_point(ident, make_ball(0.5, 1.0), max_iter=500)


def test_fixed_point_escape():
    jump = make_affine(1.0, 5.0)
    with pytest.raises(EscapedDomain):
        fixed_point(jump, make_ball(0.0, 1.0))


def test_fixed_point_iteration_cap():
    slow = make_affine(0.999, 0.0)
    with pytest.raises(NoConvergence):
        fixed_point(slow, make_ball(0.1, 1.0), tol=1e-13, max_iter=20)


def test_fixed_point_bad_tol():
    with pytest.raises(ValueError):
        fixed_point(make_affine(0.5, 0.0), make_ball(0.0, 1.0), tol=0.0)


# ---------------------------------------------------------------------------
# batched word machinery


def test_word_letters_lexicographic():
    rows = word_letters(3, 2, np.arange(9))
    want = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]
    assert [tuple(r) for r in rows] == want
    # windowing agrees with the full enumeration, and so do scattered rows
    assert np.array_equal(word_letters(3, 2, np.arange(4, 7)), rows[4:7])
    idx = np.array([0, 5, 17, 80])
    assert np.array_equal(word_letters(3, 4, idx),
                          word_letters(3, 4, np.arange(81))[idx])


def _least_rotations(size, n, lo, hi):
    """(index, period) of each word lo..hi-1 that is the least of its
    rotations, by brute force over the rotations."""
    out = []
    for idx, row in enumerate(word_letters(size, n, np.arange(lo, hi)),
                              start=lo):
        word = tuple(row.tolist())
        rotations = {word[k:] + word[:k] for k in range(n)}
        if word == min(rotations):
            out.append((idx, len(rotations)))
    return out


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("n", range(1, 9))
def test_necklace_representatives(size, n):
    # the pruned prefix tree keeps each word's least rotation, in
    # lexicographic order, with its count of distinct rotations, whatever
    # the chunks; the periods count every word once
    total = size ** n
    if total <= 5000:
        want = _least_rotations(size, n, 0, total)
        for chunk in (total, 1000, 64, 7):
            got = []
            for lo, hi in chunk_ranges(total, chunk):
                words, period, fold, prods = whole_walk(size, n, lo, hi,
                                                        necklaces=True)
                assert fold is None and prods == []
                got += zip(words.tolist(), period.tolist())
            assert got == want
    else:   # brute force on a few windows, the period sum on all of it
        for lo in (0, total // 3 + 5, total - 1500):
            words, period, _, _ = whole_walk(size, n, lo, lo + 1500,
                                             necklaces=True)
            assert (list(zip(words.tolist(), period.tolist()))
                    == _least_rotations(size, n, lo, lo + 1500))
    periods = sum(int(whole_walk(size, n, lo, hi, necklaces=True)[1].sum())
                  for lo, hi in chunk_ranges(total))
    assert periods == total


def _letter_by_letter(mob, factors, size, n, words):
    """The fold of mob and the products of factors along the words, one
    letter after another over whole arrays."""
    letters = word_letters(size, n, words)
    fold = _fold_moebius(tuple(x[col - 1] for x in mob) for col in letters.T)
    prods = []
    for f in factors:
        p = np.ones(len(words))
        for col in letters.T:
            p = np.multiply(p, f[col - 1])
        prods.append(p)
    return fold, prods


@pytest.mark.parametrize("size, n", [(3, 12), (4, 10)])
def test_necklace_fold_matches_letter_by_letter_fold(size, n):
    # complex letters and a complex and a real factor: every kept word has
    # the bits of the letter-by-letter fold, in the order chunks of 2^16
    # words cut the tree, on ranges cut inside prefixes, and on chunks
    # holding more necklaces than numpy's 16,384-element threshold for
    # reusing temporaries in place
    rng = np.random.default_rng(size)
    mob = tuple(rng.standard_normal((4, size))
                + 1j * rng.standard_normal((4, size)))
    factors = (rng.standard_normal(size) + 1j * rng.standard_normal(size),
               rng.standard_normal(size))
    total = size ** n
    ranges = chunk_ranges(total) + [(12345, 54321), (total - 777, total - 5)]
    largest = 0
    for lo, hi in ranges:
        words, period, fold, prods = whole_walk(size, n, lo, hi, mob,
                                                factors, necklaces=True)
        largest = max(largest, len(words))
        want_fold, want_prods = _letter_by_letter(mob, factors, size, n,
                                                  words)
        for got, want in zip((*fold, *prods), (*want_fold, *want_prods)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # with nothing to fold the walk keeps the same words and periods
        bare = whole_walk(size, n, lo, hi, necklaces=True)
        assert bare[2] is None and bare[3] == []
        assert np.array_equal(bare[0], words)
        assert np.array_equal(bare[1], period)
    assert largest >= 16384
    # the every-word fold over a range of the same size
    lo, hi = 1001, 1001 + 20000
    words, period, fold, prods = whole_walk(size, n, lo, hi, mob, factors)
    assert np.array_equal(words, np.arange(lo, hi)) and (period == 1).all()
    want_fold, want_prods = _letter_by_letter(mob, factors, size, n, words)
    for got, want in zip((*fold, *prods), (*want_fold, *want_prods)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("size, n", [(3, 12), (4, 10)])
def test_fold_blocks_keep_the_bits_of_one_block(size, n):
    # every level taken a few parents at a time gives every word the bits,
    # the period and the position it has in one block, also where blocks
    # are empty and where a range starts and ends inside a prefix, with
    # necklaces and with every word
    rng = np.random.default_rng(size + 10)
    mob = tuple(rng.standard_normal((4, size))
                + 1j * rng.standard_normal((4, size)))
    factors = (rng.standard_normal(size) + 1j * rng.standard_normal(size),
               rng.standard_normal(size))
    total = size ** n
    cases = [(True, 0, total, (1000, 1 << 14)),
             (True, 12345, 14321, (1, 7)),
             (True, total - 777, total - 5, (1, 7, 1000)),
             (False, 12345, 14321, (1, 7, 64)),
             (False, 1001, 21001, (1000, 1 << 14)),
             (False, total - 777, total - 5, (7, 1000))]
    for necklaces, lo, hi, sizes in cases:
        whole = whole_walk(size, n, lo, hi, mob, factors, necklaces)
        for block in sizes:
            blocks = list(_fold_blocks(size, n, lo, hi, mob, factors,
                                       necklaces, block))
            assert all(len(b[0]) <= max(block, size) for b in blocks)
            assert len(blocks) > 1 or len(whole[0]) <= block
            joined = [np.concatenate(col) for col in zip(
                *[(w, p, *f, *q) for w, p, f, q in blocks])]
            for got, want in zip(joined, (whole[0], whole[1], *whole[2],
                                          *whole[3])):
                assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("necklaces", [True, False])
def test_factors_of_one_value_fold_to_the_same_bits(necklaces):
    # a factor that is one number on every letter is carried as one
    # product per level and spread over the words: the bits, the sign of
    # zero too, are those of the letter-by-letter products. 0.0 and -0.0
    # are two values
    size, n = 3, 9
    factors = (np.full(size, 0.9 - 0.3j), np.full(size, -1.0),
               np.array([0.0, -0.0, 0.0]), np.full(size, 1.1))
    total = size ** n
    for lo, hi in [(0, total), (5000, 5001), (100, 12000)]:
        blocks = list(_fold_blocks(size, n, lo, hi, None, factors,
                                   necklaces, 7))
        words = np.concatenate([b[0] for b in blocks])
        got = [np.concatenate(col) for col in zip(*[b[3] for b in blocks])]
        letters = word_letters(size, n, words)
        for g, f in zip(got, factors):
            want = np.ones(len(words), dtype=f.dtype)
            for col in letters.T:
                want = np.multiply(want, f[col - 1])
            assert g.dtype == want.dtype and g.tobytes() == want.tobytes()


def _no_words(*args, **kwargs):
    raise AssertionError("words were evaluated")


def test_nan_iterate_escapes_on_the_first_sweep(monkeypatch):
    # NaN is not inside the ball: the first word through the NaN branch is
    # refused on the first sweep, not iterated to the sweep limit.
    # trace_table admits the system first, as enclosing_radius does, and
    # its sampled image sup is NaN on the first grid: it is refused before
    # any word block
    sys_ = make_system([make_affine(0.5, 0.1),
                        AnalyticMap(lambda z: z * np.nan, name="nan")],
                       [make_const(1.0), make_const(1.0)],
                       make_ball(0.0, 1.0))
    columns = []
    apply_letters = sys_.apply_letters

    def counting(col, *args):
        columns.append(col)
        return apply_letters(col, *args)

    monkeypatch.setattr(sys_, "apply_letters", counting)
    with pytest.raises(EscapedDomain, match=r"word \(1, 1, 2\) maps"):
        batch_fixed_points(sys_, word_letters(2, 3, np.arange(8)))
    assert len(columns) == 3        # one sweep over the three letters
    monkeypatch.setattr(determinant, "_iterated_words", _no_words)
    with pytest.raises(InadmissibleDomain) as err:
        trace_table(sys_, 3)
    assert str(err.value) == ("the sups are not finite: image sup nan on a "
                              "boundary grid of 1024 points, non-rigorous")


def test_batch_fixed_points_match_scalar(gauss4):
    letters = word_letters(4, 2, np.arange(16))
    zs = batch_fixed_points(gauss4, letters, tol=1e-13)
    for row, z in zip(letters, zs):
        word = tuple(int(l) for l in row)
        res = fixed_point(oracles.compose(gauss4, word), gauss4.domain,
                          tol=1e-13)
        assert abs(z - res.point) <= 1e-12


# two Moebius branches with complex coefficients and weights T'
COMPLEX_DESC = {
    "family": "moebius_list",
    "params": [
        {"a": [0.4, 0.1], "b": 0.1, "c": [0.3, -0.2], "e": 2.0,
         "weight": "derivative"},
        {"a": [0.2, -0.3], "b": [0.3, 0.1], "c": [0.25, 0.15], "e": 1.8,
         "weight": "derivative"},
    ],
    "domain": {"center": [0.1, 0.05], "radius": 1.0, "dim": 1},
}


def test_batch_orbit_bits_do_not_depend_on_batch_size():
    # numpy evaluates wgt * (temporary) as temporary * wgt once a batch
    # reaches 16,384 entries, and complex products round differently in
    # the two orders; per-word results must not see the batch size
    sys_ = system_from_descriptor(COMPLEX_DESC)
    letters = word_letters(2, 15, np.arange(5_000, 5_000 + 16_385))
    z = 0.1 + 0.05j + 0.6 * np.exp(1j * np.arange(16_385))
    big = batch_orbit(sys_, letters, z)
    small = batch_orbit(sys_, letters[:16_383], z[:16_383])
    for b, s in zip(big, small):
        assert np.array_equal(b[:16_383], s)


def test_batch_orbit_matches_compose(gauss4):
    letters = word_letters(4, 3, np.arange(64))
    z0 = 0.9 + 0.3j
    wgt, mult, end = batch_orbit(gauss4, letters, np.full(64, z0))
    for k in (0, 17, 40, 63):
        word = tuple(int(l) for l in letters[k])
        f = oracles.compose(gauss4, word)
        w = oracles.word_weight(gauss4, word)
        assert abs(end[k] - f(z0)) <= 1e-13
        assert abs(mult[k] - f.derivative(z0)) <= 1e-13 * max(1.0, abs(mult[k]))
        assert abs(wgt[k] - w(z0)) <= 1e-13 * max(1.0, abs(wgt[k]))


# ---------------------------------------------------------------------------
# contraction


def test_contraction_gauss_order_two(gauss200):
    rep = contraction_details(gauss200, 2, grid=1024)
    assert 4 / 9 - 1e-6 <= rep.value <= 4 / 9 + 1e-3
    assert rep.word == (1, 1)


def test_contraction_gauss_order_one(gauss200):
    assert contraction_details(gauss200, 1).value >= 1.0


def test_contraction_single_affine_exact():
    sys_ = make_system([make_affine(0.35, 0.1)], [make_const(1.0)],
                       make_ball(0.0, 1.0))
    for n in (1, 2, 3):
        assert contraction_details(sys_, n).value == pytest.approx(
            0.35 ** n, rel=1e-12)


def test_contraction_refuses_unusable_arguments(gauss4, diag2d):
    with pytest.raises(DimensionUnsupported,
                       match=r"^contraction sampling needs dim 1$"):
        contraction_details(diag2d, 1)
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        contraction_details(gauss4, 0)


def test_contraction_budget(gauss200):
    with pytest.raises(BudgetExceeded):
        contraction_details(gauss200, 4)


def test_contraction_submultiplicative(gauss4):
    g2 = contraction_details(gauss4, 2, grid=512).value
    g4 = contraction_details(gauss4, 4, grid=512).value
    assert g4 <= g2 ** 2 + 1e-6


COMPLEX_PAIR = ((0.4 + 0.1j, 0.1, 0.3 - 0.2j, 2.0),
                (0.2 - 0.3j, 0.3 + 0.1j, 0.25 + 0.15j, 1.8))


def _complex_pair():
    return make_system([make_moebius(*p) for p in COMPLEX_PAIR],
                       [make_const(1.0)] * 2, make_ball(0.1 + 0.05j, 1.0))


def test_contraction_exact_gauss_order_two(gauss200):
    rep = contraction_details(gauss200, 2, grid=1024)
    assert rep.value == pytest.approx(4 / 9, rel=1e-15)
    assert rep.word == (1, 1)
    assert rep.grid == 0
    assert rep.words == 200 ** 2


@pytest.mark.parametrize("block", [7, 1000])
def test_contraction_exact_does_not_depend_on_the_block(block, monkeypatch):
    # the exact sup walks all words once, in blocks of _WORD_BLOCK words,
    # skipping empty ones and keeping the first maximum: any block gives
    # the report of the default one, ties included
    same = make_moebius(0.0, 1.0, 1.0, 2.0)
    reversed4 = [make_moebius(0.0, 1.0, 1.0, e) for e in (4, 3, 2, 1)]
    cases = [(_complex_pair(), 11),
             (make_system(reversed4, [make_const(1.0)] * 4,
                          make_ball(1.0, 1.5)), 7),
             (make_system([same, same], [make_const(1.0)] * 2,
                          make_ball(1.0, 1.5)), 9)]
    want = [repr(contraction_details(s, n)) for s, n in cases]
    monkeypatch.setattr(dynamics, "_WORD_BLOCK", block)
    assert [repr(contraction_details(s, n)) for s, n in cases] == want


def test_contraction_exact_ties_go_to_first_word():
    same = make_moebius(0.0, 1.0, 1.0, 2.0)
    sys_ = make_system([same, same], [make_const(1.0)] * 2,
                       make_ball(1.0, 1.5))
    assert contraction_details(sys_, 3).word == (1, 1, 1)


def test_contraction_exact_thread_count_independent():
    # reversed shifts put the maximizing word (4, ..., 4) in the last chunk
    sys_ = make_system([make_moebius(0.0, 1.0, 1.0, e) for e in (4, 3, 2, 1)],
                       [make_const(1.0)] * 4, make_ball(1.0, 1.5))
    one = contraction_details(sys_, 9, threads=1)
    two = contraction_details(sys_, 9, threads=2)
    assert one == two
    assert one.word == (4,) * 9


def test_sampled_contraction_default_grid_is_validations(gauss4):
    # the 256-point grid is every fourth point of the default 1024-point
    # one, so the default sampled sup can only rise toward the exact sup
    plain = as_plain_maps(gauss4)
    for n in (1, 2, 3):
        default = contraction_details(plain, n)
        assert default == contraction_details(plain, n, grid=1024)
        assert default.value >= contraction_details(plain, n, grid=256).value


@pytest.mark.parametrize("name", ["gauss4", "two_thirds", "complex"])
def test_contraction_exact_matches_sampled_plain_maps(name, request):
    sys_ = (_complex_pair() if name == "complex"
            else request.getfixturevalue(name))
    plain = as_plain_maps(sys_)
    for n in (1, 2, 3):
        exact = contraction_details(sys_, n)
        sampled = contraction_details(plain, n, grid=1024)
        assert exact.grid == 0 and sampled.grid == 1024
        assert exact.word == sampled.word
        assert exact.value >= sampled.value * (1.0 - 1e-14)
        assert exact.value == pytest.approx(sampled.value, rel=1e-5)


@pytest.mark.parametrize("n", [9, 14])
def test_contraction_exact_long_words_match_mp_fold(n):
    # |AE - BC| of a folded word cancels on long words with non-integer
    # coefficients (6e-12 relative at order 9, 9e-9 at 14); the product of
    # the letter determinants does not
    rep = contraction_details(_complex_pair(), n)
    want = oracles.moebius_contraction_mp(COMPLEX_PAIR, 0.1 + 0.05j, 1.0, n)
    assert rep.value == pytest.approx(want, rel=1e-13, abs=0)


def test_contraction_exact_pole_on_circle():
    desc = {"family": "moebius_list",
            "params": [{"a": 0.0, "b": 1.0, "c": 1.0, "e": 0.5,
                        "weight": 1.0}],
            "domain": {"center": [1.0, 0.0], "radius": 1.5, "dim": 1}}
    with pytest.raises(NotContracting) as err:
        contraction_details(system_from_descriptor(desc), 1)
    assert str(err.value) == (
        "word (1,) has its pole -0.5+0j on or inside the closed ball, so "
        "sup |T_word'| on its boundary is infinite")


POLES_INSIDE = {1: "word (1,) has its pole -0.5+0j",
                2: "word (1, 1) has its pole -0.52+0j",
                3: "word (1, 1, 1) has its pole -0.519231+0j"}


@pytest.mark.parametrize("n", sorted(POLES_INSIDE))
def test_contraction_exact_pole_inside_ball(n):
    # the pole -0.5 of 0.01/(z + 0.5) lies inside the disc (1, 2), and so
    # does -0.52, the pole of its square: the sup on the circle is not the
    # finite value at the circle point nearest the pole. The pole is the
    # one of the word's complex fold, the sign of its zero too
    with pytest.raises(NotContracting) as err:
        contraction_details(_pole_inside(), n)
    assert str(err.value) == (POLES_INSIDE[n] + " on or inside the closed "
                              "ball, so sup |T_word'| on its boundary is "
                              "infinite")


def test_contraction_exact_pole_keeps_the_sign_of_its_zero():
    # z / (z - 2) on the disc (2, 1): the complex fold's pole is 2-0j,
    # where a fold in float64 would give 2+0j
    with pytest.raises(NotContracting) as err:
        contraction_details(_pole_at_centre(), 1)
    assert str(err.value) == (
        "word (1,) has its pole 2-0j on or inside the closed ball, so sup "
        "|T_word'| on its boundary is infinite")


def _pole_at_centre():
    return make_system([make_moebius(0.5, 0.0, 0.5, -1.0)], [make_const(1.0)],
                       make_ball(2.0, 1.0))


def _pole_inside():
    return make_system([make_moebius(0.0, 0.01, 1.0, 0.5)], [make_const(1.0)],
                       make_ball(1.0, 2.0))


def _pole_on_circle():
    return make_system([make_moebius(0.0, 1.0, 1.0, 0.5)], [make_const(1.0)],
                       make_ball(1.0, 1.5))


def _gauss_disc(center, radius):
    return lambda: make_gauss_system(200, make_ball(center, radius))


REAL_CONTRACTION_CASES = {
    **{name: (make, range(1, 7)) for name, make in REAL_CASES.items()},
    "gauss-disc-a": (_gauss_disc(1.0, 1.5), (1, 2)),
    "gauss-disc-b": (_gauss_disc(0.8, 1.2), (1, 2)),
    "gauss4": (lambda: system_from_descriptor(GAUSS4_DESC), range(1, 10)),
    # a real system about a centre off the real axis: only the words
    # are real, and the gap's product with the centre stays complex
    "real-pair-complex-centre": (lambda: make_system(
        [make_moebius(0.5, 0.1, 0.2, 1.0), make_moebius(-0.3, 0.2, 0.1, 1.5)],
        [make_const(1.0)] * 2, make_ball(0.3 + 0.2j, 1.0)), range(1, 7)),
    "pole-on-circle": (_pole_on_circle, (1, 2, 3)),
    "pole-inside": (_pole_inside, (1, 2, 3)),
    "pole-at-centre": (_pole_at_centre, (1, 2, 3)),
}


@pytest.mark.parametrize("name", sorted(REAL_CONTRACTION_CASES))
def test_real_contraction_keeps_the_bits_of_complex_words(name, monkeypatch):
    # a real system's words fold in float64, and a real centre is a float:
    # every value, word, tie and refusal is the one the complex path gives
    make, orders = REAL_CONTRACTION_CASES[name]
    sys_ = make()
    assert dynamics._real_data(sys_)

    def every_order():
        return [_bits(lambda: contraction_details(sys_, n)) for n in orders]

    real = every_order()
    monkeypatch.setattr(dynamics, "_real_data", lambda sys_: False)
    assert every_order() == real


def test_real_contraction_walks_float64_columns(gauss200, monkeypatch):
    # the Gauss preset's words fold in float64, not complex128
    seen = []
    walk = dynamics._fold_blocks

    def spy(size, n, lo, hi, mob, factors, *rest):
        seen.append([x.dtype for x in mob + factors])
        return walk(size, n, lo, hi, mob, factors, *rest)

    monkeypatch.setattr(dynamics, "_fold_blocks", spy)
    contraction_details(gauss200, 2)
    assert seen == [[np.dtype(np.float64)] * 5]


# ---------------------------------------------------------------------------
# enclosing radius


def test_enclosing_radius_single_affine():
    sys_ = make_system([make_affine(0.45, 0.0)], [make_const(1.0)],
                       make_ball(0.0, 1.0))
    assert enclosing_radius(sys_) == pytest.approx(0.45, rel=1e-12)


def test_enclosing_radius_gauss_range_and_oracle(gauss200):
    r = enclosing_radius(gauss200)
    assert 0.6 < r < 0.7
    # closed-form image discs: branch i maps |z-1|=3/2 to a disc; the ratio
    # max_i (|center_i - 1| + radius_i) / 1.5 decreases in i past the first
    # few branches, and the dropped tail is dominated by branch 201
    cands = []
    for i in list(range(1, 202)):
        ci, ri = oracles.moebius_image_disc(0.0, 1.0, 1.0, float(i), 1.0, 1.5)
        cands.append((abs(ci - 1.0) + ri) / 1.5)
    exact = max(cands)      # attained by branch 1: image reach is exactly 1
    assert exact == pytest.approx(2 / 3, abs=1e-12)
    # closed-form image discs, and a tail cover of exactly 1 past branch
    # 200: the ratio is 2/3, rounded outward by a few ulps
    assert 2 / 3 <= r <= 2 / 3 * (1 + 8 * math.ulp(1.0))


def test_enclosing_radius_identity_fails():
    sys_ = make_system([make_affine(1.0, 0.0)], [make_const(1.0)],
                       make_ball(0.0, 1.0))
    with pytest.raises(NotEnclosed):
        enclosing_radius(sys_)


def test_enclosing_radius_refuses_as_the_cli_does():
    # the library and every subcommand decide admission in one routine: a
    # pole inside the disc makes the sups infinite, which is refused with
    # the CLI's line before any reach is compared, and a reach past the
    # disc is still NotEnclosed
    pole = make_system([make_moebius(0.0, 1.0, 1.0, e) for e in (0.5, 3.0)],
                       [make_const(1.0)] * 2, make_ball(0.0, 1.0))
    with pytest.raises(InadmissibleDomain) as err:
        enclosing_radius(pole)
    assert str(err.value) == ("the sups are not finite: pole of branch 1 on "
                              "or inside the closed ball")
    escape = make_system([make_affine(-0.9, 0.1995), make_affine(-0.9, 0.0)],
                         [make_const(1.0)] * 2, make_ball(0.0, 1.0))
    with pytest.raises(NotEnclosed) as err:
        enclosing_radius(escape)
    assert str(err.value) == ("branch images reach 1.0995 >= radius 1 "
                              "(r = 1.0995)")


def test_sampled_admission_of_a_far_disc_refuses_without_a_warning():
    # 1/(2 + z) on the disc of centre 1e308 i and radius 1e308, as plain
    # maps: the boundary samples overflow, and the refusal names the NaN
    # sup with no numpy warning
    far = system_from_descriptor({
        "family": "moebius_list",
        "params": [{"a": 0.0, "b": 1.0, "c": 1.0, "e": 2.0,
                    "weight": "neg_derivative"}],
        "domain": {"center": [0.0, 1e308], "radius": 1e308, "dim": 1}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InadmissibleDomain) as err:
            enclosing_radius(as_plain_maps(far))
    assert str(err.value) == ("the sups are not finite: image sup nan on a "
                              "boundary grid of 1024 points, non-rigorous")


# ---------------------------------------------------------------------------
# no state kept between calls


def test_library_calls_keep_no_reference_to_systems():
    gauss = make_gauss_system(3, make_ball(1.0, 1.5))
    moebius = make_system([make_moebius(0.0, 1.0, 1.0, e) for e in (1, 2)],
                          [make_const(1.0)] * 2, make_ball(1.0, 1.5))
    assemble_matrix(gauss, N=8)
    trace_table(moebius, 2)
    contraction_details(moebius, 2)
    refs = [weakref.ref(gauss), weakref.ref(moebius)]
    del gauss, moebius
    gc.collect()
    assert all(ref() is None for ref in refs)
