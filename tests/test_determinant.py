"""Periodic-orbit traces, determinant coefficients, reciprocal zeros."""

import cmath
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from transferspec import (
    BudgetExceeded,
    DeterminantSeries,
    EscapedDomain,
    InadmissibleDomain,
    NoConvergence,
    NotContracting,
    NotEnclosed,
    RootFindingFailure,
    TraceTable,
    TransferOperatorError,
    determinant_coefficients,
    determinant_zeros,
    enclosing_radius,
    export_determinant_json,
    fixed_point,
    make_affine,
    make_ball,
    make_const,
    make_gauss_system,
    make_moebius,
    make_system,
    spectral_sequence,
    system_from_descriptor,
    trace,
    trace_table,
)
from transferspec import determinant, dynamics, systems
from transferspec._format import json_g17
from transferspec.determinant import _aberth_roots
from transferspec.dynamics import (
    _fold_moebius,
    word_letters,
)
from transferspec.systems import AnalyticMap

from conftest import GAUSS4_DESC, as_plain_maps, whole_walk


# ---------------------------------------------------------------------------
# traces


def test_trace_single_affine_order_one(affine_half):
    t = trace(affine_half, 1)
    assert t.value == pytest.approx(2.0, rel=1e-14)
    assert t.words == 1


def test_trace_single_affine_all_orders(affine_half):
    for n in range(1, 13):
        t = trace(affine_half, n)
        want = 1.0 / (1.0 - 0.5 ** n)
        assert abs(t.value - want) < 1e-13


def test_trace_two_branch_example(two_thirds):
    t = trace(two_thirds, 1)
    assert t.value == pytest.approx(3.0, rel=1e-14)
    assert t.words == 2


def test_trace_budget_enforced(gauss4):
    with pytest.raises(BudgetExceeded):
        trace(gauss4, 6, word_budget=4000)      # 4^6 = 4096 words


def test_trace_thread_count_is_invisible(gauss4):
    a = trace(gauss4, 6, threads=1)
    b = trace(gauss4, 6, threads=4)
    assert a == b


def test_trace_relabeling_invariance():
    # permuting the alphabet permutes summands only
    desc = dict(GAUSS4_DESC)
    desc["params"] = list(reversed(GAUSS4_DESC["params"]))
    forward = system_from_descriptor(GAUSS4_DESC)
    backward = system_from_descriptor(desc)
    for n in (1, 2, 3, 4):
        a = trace(forward, n).value
        b = trace(backward, n).value
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


def test_trace_affine_conjugation_invariance():
    # conjugate every branch by phi(z) = alpha z + beta and transport the
    # weights; all traces must survive untouched
    alpha, beta = 0.5, 0.2
    params = []
    for p in GAUSS4_DESC["params"]:
        e = p["e"]
        params.append({
            "a": beta,
            "b": alpha ** 2 - beta ** 2 + alpha * beta * e,
            "c": 1.0,
            "e": alpha * e - beta,
            "weight": "neg_derivative",
        })
    conj_desc = {
        "family": "moebius_list",
        "params": params,
        "domain": {"center": [0.7, 0.0], "radius": 0.75, "dim": 1},
    }
    base = system_from_descriptor(GAUSS4_DESC)
    conj = system_from_descriptor(conj_desc)
    # sanity: the branches really are phi . T . phi^(-1)
    phi = lambda z: alpha * z + beta
    for i in (1, 2, 3, 4):
        for w in (0.3 + 0.2j, 1.4, 0.9 - 0.5j):
            assert conj.branches[i - 1](phi(w)) == pytest.approx(
                phi(base.branches[i - 1](w)), rel=1e-13)
    for n in (1, 2, 3):
        a = trace(base, n).value
        b = trace(conj, n).value
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_trace_table_contiguous_orders(gauss4):
    tt = trace_table(gauss4, 5)
    assert tt.orders == (1, 2, 3, 4, 5)
    assert len(tt.values) == 5


def test_trace_table_maps_one_order_at_a_time(gauss4, monkeypatch):
    # each closed-form order is one item, all its words walked in blocks,
    # and map_ordered runs a single item inline: no thread pool starts
    mapped = []
    real = determinant.map_ordered

    def counted(fn, items, threads):
        mapped.append(list(items))
        return real(fn, items, threads)

    monkeypatch.setattr(determinant, "map_ordered", counted)
    table = trace_table(gauss4, 10, threads=2)
    assert mapped == [[(0, 4 ** n)] for n in range(1, 11)]
    monkeypatch.setattr(determinant, "map_ordered", real)
    for n in (1, 9, 10):
        assert table.values[n - 1] == trace(gauss4, n).value


def _no_work(*args, **plan):
    raise AssertionError("words were evaluated")


def _refused_as_enclosing_radius_refuses(sys_, monkeypatch,
                                         call=lambda s: trace_table(s, 3)):
    """call(sys_) raises the error enclosing_radius raises on sys_, of its
    type and with its text, before any word block is made; returns it."""
    with pytest.raises(TransferOperatorError) as want:
        enclosing_radius(sys_)
    with monkeypatch.context() as spy:
        spy.setattr(determinant, "_moebius_words", _no_work)
        spy.setattr(determinant, "_iterated_words", _no_work)
        with pytest.raises(TransferOperatorError) as got:
            call(sys_)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    return want.value


_NOT_ADMITTED = {
    # the console-script step's systems: a pole inside the disc, images
    # that reach past it, a disc near the top of the double range, and the
    # identity, whose images reach the radius
    "pole": {"family": "moebius_list",
             "params": [{"a": 0.0, "b": 1.0, "c": 1.0, "e": e,
                         "weight": "neg_derivative"} for e in (0.5, 3.0)],
             "domain": {"center": [0.0, 0.0], "radius": 1.0, "dim": 1}},
    "escape": {"family": "affine_list",
               "params": [{"a": -0.9, "b": b, "weight": 1.0}
                          for b in (0.1995, 0.0)],
               "domain": {"center": [0.0, 0.0], "radius": 1.0, "dim": 1}},
    "far": {"family": "moebius_list",
            "params": [{"a": 0.0, "b": 1.0, "c": 1.0, "e": 2.0,
                        "weight": "neg_derivative"}],
            "domain": {"center": [0.0, 1e308], "radius": 1e308, "dim": 1}},
    "identity": {"family": "affine_list",
                 "params": [{"a": 1.0, "b": 0.0, "weight": 1.0}],
                 "domain": {"center": [0.0, 0.0], "radius": 1.0, "dim": 1}},
}
_NOT_ADMITTED_TEXT = {
    "pole": (InadmissibleDomain, "the sups are not finite: pole of branch 1 "
                                 "on or inside the closed ball"),
    "escape": (NotEnclosed, "branch images reach 1.0995 >= radius 1 "
                            "(r = 1.0995)"),
    "far": (InadmissibleDomain, "the sups are not finite: pole of branch 1 "
                                "on or inside the closed ball"),
    "identity": (NotEnclosed, "branch images reach 1 >= radius 1 (r = 1)"),
}


@pytest.mark.parametrize("call", [lambda s: trace(s, 2),
                                  lambda s: trace_table(s, 4)],
                         ids=["trace", "trace_table"])
@pytest.mark.parametrize("name", sorted(_NOT_ADMITTED))
def test_system_that_is_not_admitted_is_refused_before_any_word(
        name, call, monkeypatch):
    # the trace formula holds for admissible systems: a dim-1 system is
    # admitted first, as enclosing_radius admits it, with its error; as
    # plain maps its sups are sampled, and the far disc's samples overflow
    sys_ = system_from_descriptor(_NOT_ADMITTED[name])
    err = _refused_as_enclosing_radius_refuses(sys_, monkeypatch, call)
    assert (type(err), str(err)) == _NOT_ADMITTED_TEXT[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _refused_as_enclosing_radius_refuses(as_plain_maps(sys_),
                                             monkeypatch, call)


def test_trace_table_budget_checked_before_any_work(gauss4, monkeypatch):
    # gauss4 is all-Moebius, so its words go through the closed form
    monkeypatch.setattr(determinant, "_moebius_words", _no_work)
    with pytest.raises(AssertionError, match="words were evaluated"):
        trace_table(gauss4, 5, word_budget=1024)
    with pytest.raises(BudgetExceeded):
        trace_table(gauss4, 6, word_budget=1000)    # 4^5 = 1024 words


def test_trace_table_budget_checked_before_any_work_user_maps(gauss4,
                                                              monkeypatch):
    plain = as_plain_maps(gauss4)
    monkeypatch.setattr(determinant, "batch_fixed_points", _no_work)
    with pytest.raises(AssertionError, match="words were evaluated"):
        trace_table(plain, 5, word_budget=1024)
    with pytest.raises(BudgetExceeded):
        trace_table(plain, 6, word_budget=1000)


@pytest.mark.parametrize("call", [lambda s: trace(s, 1),
                                  lambda s: trace_table(s, 2)],
                         ids=["trace", "trace_table"])
def test_countable_alphabet_refused_before_any_word(call, monkeypatch):
    # nothing bounds what a truncated countable alphabet's dropped letters
    # add to the word sum, so the route refuses before counting a word
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(dynamics, "_fold_blocks")
    spy(determinant, "_fold_blocks")
    spy(determinant, "_word_count")
    with pytest.raises(TransferOperatorError,
                       match="needs a finite alphabet.*spectrum"):
        call(make_gauss_system(3))
    assert calls == []


# ---------------------------------------------------------------------------
# closed-form Moebius words


def _moebius_case(entries, center, radius):
    """A moebius_list system from (a, b, c, e, weight) tuples, and the same
    data as oracle arguments."""
    def num(v):
        return [v.real, v.imag] if isinstance(v, complex) else v

    desc = {"family": "moebius_list",
            "params": [dict(zip("abce", map(num, entry[:4])),
                            weight=num(entry[4])) for entry in entries],
            "domain": {"center": center, "radius": radius, "dim": 1}}
    return (system_from_descriptor(desc), [entry[:4] for entry in entries],
            [entry[4] for entry in entries])


def _words(sys_, n, lo, hi, necklaces, **plan):
    """The closed-form words of a range as one batch, its blocks joined;
    None when it holds none."""
    blocks = list(determinant._moebius_words(sys_, n, lo, hi, necklaces,
                                             **plan))
    return tuple(map(np.concatenate, zip(*blocks))) if blocks else None


def _word_fixed_points(sys_, n, lo, hi, necklaces):
    """The words of a range and their closed-form fixed points, as
    _moebius_words takes them for weights that follow the orbit."""
    a, b, c, e = mob = tuple(sys_.coefficients.T)
    words, _, fold, (det,) = whole_walk(sys_.n_letters, n, lo, hi, mob,
                                        (a * e - b * c,), necklaces)
    q = determinant._larger_root(fold, det)
    return words, determinant._fixed_points(fold, q)


_PAIR = [(0.4 + 0.1j, 0.1, 0.3 - 0.2j, 2.0),
         (0.2 - 0.3j, 0.3 + 0.1j, 0.25 + 0.15j, 1.8)]
ORACLE_CASES = {
    "gauss4": ([(0.0, 1.0, 1.0, float(e), "neg_derivative")
                for e in (1, 2, 3, 4)], [1.0, 0.0], 1.5, 5),
    "complex-derivative": ([p + ("derivative",) for p in _PAIR],
                           [0.1, 0.05], 1.0, 8),
    "affine": ([(0.5, 0.3, 0.0, 1.0, 1.0)], [0.6, 0.0], 1.0, 10),
    "constant-weight": ([(0.0, 1.0, 1.0, 2.0, 0.5),
                         (0.0, 1.0, 1.0, 3.0, 0.25 + 0.1j)], [1.0, 0.0], 1.5, 8),
    "mixed-weight": ([_PAIR[0] + ("derivative",), _PAIR[1] + (0.5 - 0.2j,)],
                     [0.1, 0.05], 1.0, 8),
    # C ~ 1e-9: q is E to rounding, so z = (q - E) / C would keep 7 digits
    "near-affine-mixed": ([(0.4 + 0.1j, 0.1, 1e-9, 2.0, "derivative"),
                           (0.2 - 0.3j, 0.3 + 0.1j, 1e-9 - 0.5e-9j, 1.8,
                            0.5 - 0.2j)], [0.1, 0.05], 1.0, 8),
    "signed-derivative": ([_PAIR[0] + ("derivative",),
                           _PAIR[1] + ("neg_derivative",)], [0.1, 0.05], 1.0,
                          6),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_closed_form_traces_match_mp_oracle(name):
    entries, center, radius, M = ORACLE_CASES[name]
    sys_, params, weights = _moebius_case(entries, center, radius)
    plain = as_plain_maps(sys_)
    assert sys_.coefficients is not None and plain.coefficients is None
    ref = oracles.moebius_traces_mp(params, weights, range(1, M + 1))
    closed = trace_table(sys_, M).values
    iterated = trace_table(plain, M).values
    for got, want in zip(closed, ref):
        assert abs(got - want) <= 1e-13 * abs(want)

    def worst(values):
        return max(abs(v - w) / abs(w) for v, w in zip(values, ref))

    # no further from the oracle than fixed-point iteration on the same maps
    assert worst(closed) <= worst(iterated)


def test_moebius_words_fold_matches_letter_by_letter_fold():
    # the prefix tree gives every representative the bits of a letter by
    # letter fold, also for ranges that start and end inside a prefix
    sys_ = _three_letters()
    n, total = 7, 3 ** 7
    reps = whole_walk(3, n, 0, total, necklaces=True)[0]
    whole = _words(sys_, n, 0, total, True)
    for lo, hi in ((0, 1000), (1000, 1001), (1001, total)):
        inside = (reps >= lo) & (reps < hi)
        part = _words(sys_, n, lo, hi, True)
        if part is None:
            assert not inside.any()
            continue
        for w, p in zip(whole, part):
            assert np.array_equal(w[inside], p)
    letters = word_letters(3, n, whole[0])
    assert np.array_equal(letters, word_letters(3, n, reps))
    A, B, C, E = _fold_moebius(tuple(x[col - 1] for x in sys_.coefficients.T)
                               for col in letters.T)
    # the letter-by-letter fold fixes each representative's z to rounding
    words, z = _word_fixed_points(sys_, n, 0, total, True)
    assert np.array_equal(words, reps)
    residual = np.abs((A * z + B) / (C * z + E) - z)
    assert (residual <= 4 * np.finfo(float).eps
            * np.maximum(np.abs(z), 1.0)).all()
    # the contraction's fold over every word: C, E and the product of
    # letter |det|
    a, b, c, e = sys_.coefficients.T
    dets = np.abs(a * e - b * c)
    lo, hi = 1001, 2000
    every = word_letters(3, n, np.arange(lo, hi))
    words, period, (_, _, got_c, got_e), (got_det,) = whole_walk(
        3, n, lo, hi, tuple(sys_.coefficients.T), (dets,))
    assert np.array_equal(words, np.arange(lo, hi)) and (period == 1).all()
    _, _, C, E = _fold_moebius(tuple(x[col - 1] for x in sys_.coefficients.T)
                               for col in every.T)
    want_det = 1.0
    for col in every.T:
        want_det = want_det * dets[col - 1]
    assert np.array_equal(got_c, C) and np.array_equal(got_e, E)
    assert np.array_equal(got_det, want_det)


def _escaping_rotation():
    """(1, 2) fixes -0.945, inside the unit disc, and its rotation (2, 1)
    fixes 1.05, outside: the first letter's image reaches past the disc."""
    return make_system([make_affine(-0.9, 0.1995), make_affine(-0.9, 0.0)],
                       [make_const(1.0), make_const(1.0)],
                       make_ball(0.0, 1.0))


@pytest.mark.parametrize("plain", [False, True])
def test_escape_of_a_rotation_is_refused(plain, monkeypatch):
    # no rotation of an admitted system's word can escape, so the system is
    # refused as enclosing_radius refuses it, before the class of (1, 2)
    # is summed; its sampled reach is a little larger
    sys_ = _escaping_rotation()
    err = _refused_as_enclosing_radius_refuses(
        as_plain_maps(sys_) if plain else sys_, monkeypatch,
        lambda s: trace(s, 2))
    assert isinstance(err, NotEnclosed)
    assert str(err).startswith("branch images reach 1.099")


# T' on an increasing branch, -T' on a decreasing one and a positive
# constant: every term is positive, so the representatives are summed
PERIODIC_MIX = {
    "real": ([(0.3, 0.1, 0.2, 2.0, "derivative"),
              (0.0, 1.0, 1.0, 3.0, "neg_derivative"),
              (0.25, -0.1, 0.1, 1.5, 0.5)], [0.1, 0.0]),
    "complex": ([_PAIR[0] + ("derivative",), _PAIR[1] + ("neg_derivative",),
                 (0.1 + 0.05j, -0.2, 0.1j, 2.2, 0.5 - 0.2j)], [0.1, 0.05]),
}


@pytest.mark.parametrize("name", sorted(PERIODIC_MIX))
def test_periodic_mix_traces_match_mp_oracle(name, monkeypatch):
    # order 6 holds words of period 1, 2, 3 and 6; a mixed weight goes
    # through batch_orbit on both paths
    entries, center = PERIODIC_MIX[name]
    sys_, params, weights = _moebius_case(entries, center, 1.0)
    ref = oracles.moebius_traces_mp(params, weights, range(1, 7))
    necklaces = []
    words = determinant._moebius_words

    def recorded(*args, **plan):
        necklaces.append(args[-1])
        return words(*args, **plan)

    monkeypatch.setattr(determinant, "_moebius_words", recorded)
    for path in (sys_, as_plain_maps(sys_)):
        for got, want in zip(trace_table(path, 6).values, ref):
            assert abs(got - want) <= 1e-13 * abs(want)
    # complex terms cancel, so those chunks are summed word by word
    assert (False in necklaces) == (name == "complex")


def test_cancelling_terms_are_summed_word_by_word():
    entries, center, radius, _ = ORACLE_CASES["complex-derivative"]
    sys_, _, _ = _moebius_case(entries, center, radius)
    n = 6
    _, _, wgt, mult = _words(sys_, n, 0, 2 ** n, False)
    terms = wgt / (1.0 - mult)
    assert trace(sys_, n).value == complex(math.fsum(terms.real),
                                           math.fsum(terms.imag))


@pytest.mark.parametrize("plain", [False, True])
def test_cancelling_order_is_summed_word_by_word_in_every_chunk(plain):
    # at order 17 the 2^17 words fill two chunks, and a class's rotations
    # lie in both. The second chunk's only representative, (2, ..., 2),
    # has a real term, the first chunk's terms cancel: the whole order
    # falls back to every word, or none of it
    sys_, _, _ = _moebius_case([_PAIR[0] + ("derivative",),
                                (0.2, 0.3, 0.25, 1.8, "derivative")],
                               [0.1, 0.05], 1.0)
    n = 17
    _, _, wgt, mult = _words(sys_, n, 0, 2 ** n, False)
    terms = wgt / (1.0 - mult)
    want = complex(math.fsum(terms.real), math.fsum(terms.imag))
    got = trace(as_plain_maps(sys_) if plain else sys_, n).value
    assert abs(got - want) <= 1e-14 * abs(want)


# the five-letter real system and the complex three-letter system of the
# console-script step in CI
FIVE_DESC = {"family": "moebius_list",
             "params": [{"a": 0.0, "b": 1.0, "c": 1.0, "e": float(e),
                         "weight": "neg_derivative"} for e in range(1, 6)],
             "domain": {"center": [1.0, 0.0], "radius": 1.5, "dim": 1}}


def _three_letters():
    return _moebius_case([_PAIR[0] + ("derivative",),
                          _PAIR[1] + ("neg_derivative",),
                          (0.1 + 0.05j, -0.2, 0.1j, 2.2, "derivative")],
                         [0.1, 0.05], 1.0)[0]


def _hex_table(sys_, M, threads=1):
    table = trace_table(sys_, M, threads=threads)
    return [(v.real.hex(), v.imag.hex()) for v in table.values]


@pytest.mark.parametrize("name, M", [("gauss4", 10), ("five", 8),
                                     ("three", 9), ("three", 11)],
                         ids=["gauss4-10", "five-8", "three-9",
                              "three-11-cap2000"])
def test_necklace_cut_and_blocks_keep_the_bits(name, M, gauss4,
                                               monkeypatch):
    # every level of the walk taken in blocks of 2^8, 2^10, 2^14 or 2^20
    # words gives the same traces: the sums are exact, and a word's bits
    # do not depend on its block. The three-letter system's terms cancel,
    # so its orders are summed word by word; at order 11 its 177,147
    # words take many blocks at 2^8 and one level slice at 2^20, past
    # numpy's 16,384 elements for reusing temporaries
    sys_ = {"gauss4": gauss4, "five": system_from_descriptor(FIVE_DESC),
            "three": _three_letters()}[name]
    cut = _hex_table(sys_, M)
    assert _hex_table(sys_, M, threads=2) == cut
    for block in (1 << 8, 1 << 10, 1 << 20):
        monkeypatch.setattr(determinant, "_WORD_BLOCK", block)
        assert _hex_table(sys_, M) == cut, block


def test_real_words_have_imaginary_part_positive_zero(gauss4, monkeypatch):
    # the terms of real words are float64: their imaginary parts, all 0,
    # are not summed, and every trace's imaginary part is +0.0
    zeros = []
    exact_sum = determinant._exact_sum

    def recorded(period, x):
        zeros.append(bool((x == 0).all()))
        return exact_sum(period, x)

    monkeypatch.setattr(determinant, "_exact_sum", recorded)
    table = trace_table(gauss4, 8)
    assert {v.imag.hex() for v in table.values} == {"0x0.0p+0"}
    assert zeros and not any(zeros)


# z -> (1 - 1e-12) z maps the unit disc into the disc of radius 1 - 1e-12,
# so a system with it is admitted, but its multiplier is refused
_NEAR_ROTATION = 1.0 - 1e-12


def test_first_failing_word_is_named_in_any_block(monkeypatch):
    # the words (2, 2), (2, 3) and (3, 3) of near rotations have
    # multipliers of modulus 1 - 2e-12: the first failing word, in
    # lexicographic order, is named, whether they lie in one block or not
    sys_ = make_system([make_affine(0.5, 0.1),
                        make_affine(-_NEAR_ROTATION, 0.0),
                        make_affine(_NEAR_ROTATION, 0.0)],
                       [make_const(1.0)] * 3, make_ball(0.0, 1.0))
    for block in (1, 1 << 14):
        monkeypatch.setattr(determinant, "_WORD_BLOCK", block)
        with pytest.raises(NotContracting,
                           match=r"^word \(2, 2\) has multiplier"):
            trace(sys_, 2)


def _near_inverses():
    """z -> r (z + 1/2) / (1 + z/2) and z -> r (z - 1/2) / (1 - z/2) for
    r = 1 - 1e-12: each is r times an automorphism of the unit disc, the
    inverse of the other's, and has multiplier about 1/3, but the word
    (1, 2) is close to r^2 times the identity, of multiplier about
    1 - 2e-12."""
    r = _NEAR_ROTATION
    return make_system([make_moebius(r, r / 2, 0.5, 1.0),
                        make_moebius(r, -r / 2, -0.5, 1.0)],
                       [make_const(1.0)] * 2, make_ball(0.0, 1.0))


@pytest.mark.parametrize("threads", [1, 2])
def test_first_failing_order_stops_the_table(threads, monkeypatch):
    # order 1 passes, order 2 fails at the word (1, 2), and no later order
    # is evaluated
    sys_ = _near_inverses()
    orders = []
    words = determinant._moebius_words

    def recorded(sys_, n, *args, **plan):
        orders.append(n)
        return words(sys_, n, *args, **plan)

    monkeypatch.setattr(determinant, "_moebius_words", recorded)
    with pytest.raises(NotContracting, match=r"^word \(1, 2\) has mult"):
        trace_table(sys_, 6, threads=threads)
    assert max(orders) == 2


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_necklace_chunk_raises_though_other_chunks_cancel(
        threads, monkeypatch):
    # order 11's 177,147 words fill three chunks. Letter 1 is the near
    # rotation z -> (1 - 1e-12) z, and 2 and 3 are z -> 0.1 z: every word
    # fixes the center, so iteration stops at once, and only the word
    # (1, ..., 1) has a multiplier that is refused. The first chunk's
    # necklace pass raises it by name, though the terms of the later
    # chunks, weighted 1j per letter 3, cancel; the every-word pass is not
    # run
    sys_ = as_plain_maps(make_system(
        [make_affine(_NEAR_ROTATION, 0.0), make_affine(0.1, 0.0),
         make_affine(0.1, 0.0)],
        [make_const(1.0), make_const(1.0), make_const(1j)],
        make_ball(0.0, 1.0)))
    passes = []
    words = determinant._iterated_words

    def recorded(sys_, n, lo, hi, necklaces, **plan):
        passes.append(necklaces)
        return words(sys_, n, lo, hi, necklaces, **plan)

    monkeypatch.setattr(determinant, "_iterated_words", recorded)
    with pytest.raises(NotContracting,
                       match=r"^word \(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1\) has "
                             r"multiplier of modulus >= 1 - 1e-9, so z\* does "
                             "not attract$"):
        trace(sys_, 11, threads=threads)
    assert passes and all(passes)


def test_trace_orders_below_one_are_refused(affine_half):
    with pytest.raises(ValueError, match=r"^trace order must be >= 1$"):
        trace(affine_half, 0)
    with pytest.raises(ValueError, match=r"^M must be >= 1$"):
        trace_table(affine_half, 0)


def test_aberth_roots_of_degree_zero_and_of_zero():
    with pytest.raises(RootFindingFailure,
                       match=r"^zero polynomial has no defined roots$"):
        _aberth_roots([0.0, 0.0])
    for coeffs in ([2.0], [3.0 - 1.0j, 0.0, 0.0]):
        roots = _aberth_roots(coeffs)
        assert roots.dtype == complex and roots.shape == (0,)


def test_trace_error_names_word_plainly():
    # the near rotation's only word has multiplier 1 - 1e-12, so its fixed
    # point is refused as not attracting; the message names the word as
    # plain integers, not numpy scalars
    sys_ = system_from_descriptor({
        "family": "affine_list",
        "params": [{"a": _NEAR_ROTATION, "b": 0.0, "weight": 1.0}],
        "domain": {"center": [0.0, 0.0], "radius": 1.0, "dim": 1}})
    with pytest.raises(NotContracting) as err:
        trace_table(sys_, 8)
    assert str(err.value) == ("word (1,) has multiplier of modulus >= "
                              "1 - 1e-9, so z* does not attract")


def test_trace_past_the_double_range_is_refused():
    # z -> z/2 +- 0.1 of weight 5e307 have W = 1e308, a double, so the
    # system is admitted, but the two order-1 terms of 5e307 / 0.5 sum to
    # 2e308, past the largest double: the error names the order rather
    # than overflowing
    sys_ = make_system([make_affine(0.5, b) for b in (0.1, -0.1)],
                       [make_const(5e307)] * 2, make_ball(0.0, 1.0))
    with pytest.raises(TransferOperatorError,
                       match="^the order-1 trace lies past the double range$"):
        trace_table(sys_, 2)


def test_trace_with_a_term_that_is_not_finite_is_refused():
    # with weights of 1e200 order 1 is finite, but order 2's weight
    # products overflow: the error names the order rather than returning
    # a NaN trace, in closed form and with plain maps
    sys_ = make_system([make_affine(-0.5, b) for b in (0.0, 0.1, -0.1)],
                       [make_const(1e200)] * 3, make_ball(0.0, 1.0))
    assert math.isfinite(trace(sys_, 1).value.real)
    for path in (sys_, as_plain_maps(sys_)):
        for threads in (1, 2):
            with pytest.raises(TransferOperatorError,
                               match="order-2 trace has a term that is not "
                                     "finite"):
                trace_table(path, 3, threads=threads)


def test_trace_memory_stays_below_the_whole_range_peak(gauss4):
    # blocks of at most _WORD_BLOCK words bound what an order holds. Ranges
    # of 2^16 words, folded and summed whole, peaked at 5.97 MB at one
    # thread and at 6.8 to 10 MB at two; blocks stay below the former
    trace_table(gauss4, 10)
    for threads in (1, 2):
        tracemalloc.start()
        try:
            trace_table(gauss4, 10, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.97e6, threads


def test_cancelling_order_memory_stays_within_its_blocks():
    # the complex three-letter system's terms cancel, so order 11 walks all
    # 177,147 words, every level in blocks of _WORD_BLOCK words. Fixed
    # ranges of 2^16 words, each level whole, peaked at 17.2 MB at one
    # thread and 33.4 MB at two
    sys_ = _three_letters()
    trace_table(sys_, 11)
    for threads in (1, 2):
        tracemalloc.start()
        try:
            trace_table(sys_, 11, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6, threads


def _exact(period, x):
    """The sum of period * x in rational arithmetic."""
    return sum((int(k) * Fraction(v) for k, v in zip(period, x)),
               Fraction(0))


def _split_cases():
    rng = np.random.default_rng(3)
    bound = determinant._BLOCK - 1
    x = rng.standard_normal(300) * 10.0 ** rng.integers(-30, 30, 300)
    yield "random", rng.integers(1, bound + 1, 300), x
    # every term cancels against another of a different period
    y = rng.standard_normal(200) * 10.0 ** rng.integers(-5, 5, 200)
    yield ("cancel", np.concatenate((np.full(200, 6), np.full(200, 2),
                                     np.full(200, 1))),
           np.concatenate((y, -y, -4.0 * y)))
    yield ("spread", rng.integers(1, bound + 1, 500),
           rng.standard_normal(500) * 10.0 ** rng.integers(-280, 281, 500))
    tiny = rng.integers(-2 ** 52, 2 ** 52, 400) * 5e-324
    yield "subnormal", rng.integers(1, bound + 1, 400), tiny
    yield ("subnormal cancel", np.array([3, 1, 1, 2]),
           np.array([5e-324, -1.5e-323, 1e-323, -5e-324]))
    # exact sums halfway between two doubles: ties go to even
    for top in (1.0, 1.0 + 2 ** -52, -(1.0 + 2 ** -52)):
        yield "tie", np.array([1, 2, 2]), np.array([top, 2 ** -55, 2 ** -55])
    yield "zeros", np.array([1, 5, 7]), np.array([0.0, -0.0, 0.0])
    # 3 blocks and a bit of terms with one exponent, the widest mantissa
    # and the largest period: the block sums reach their 2^53 bound
    m = 3 * determinant._BLOCK + 5
    widest = 1.0 - 2 ** -53
    yield "block edge", np.full(m, bound), np.full(m, widest)
    yield ("block edge signs", np.full(m, bound),
           np.where(np.arange(m) % 3, widest, -widest))
    near = widest - rng.integers(0, 2 ** 20, m) * 2 ** -53
    yield ("block edge spread", rng.integers(bound // 2, bound + 1, m),
           rng.choice([-1.0, 1.0], m) * near)


def test_period_times_terms_sum_is_exact():
    # the sum of the products period * x is the exact rational, and rounded
    # once it has the bits and the sign of zero of the exactly rounded sum
    for name, period, x in _split_cases():
        got = determinant._exact_sum(period, x)
        want = _exact(period, x)
        assert isinstance(got, Fraction) and got == want, name
        assert float(sum([got])).hex() == float(want).hex(), name
        if name in ("cancel", "subnormal cancel", "zeros"):
            assert float(sum([got])).hex() == "0x0.0p+0"
    # the bound that keeps every block sum exact is checked
    with pytest.raises(AssertionError):
        determinant._exact_sum(np.array([determinant._BLOCK]),
                               np.array([1.0]))


def test_chunk_sums_add_exactly_before_rounding():
    # each pair of chunk sums totals 1 + 2^-53 - 2^-201 or - 2^-200, just
    # below halfway between 1 and the next double, so it rounds to 1. Each
    # chunk's sum rounded first gives 1 + 2^-52 for the first pair, and
    # each chunk's rounded head and remainder for the second
    def rounded_first(sums):
        return float(sums[0]) + float(sums[1])

    def head_and_rest(sums):
        head = float(sums[0])
        return math.fsum([head, float(sums[0] - Fraction(head)),
                          float(sums[1])])

    one = np.ones(3, dtype=np.int64)
    for terms, other, wrong in (
            ([1.0, 2.0 ** -53, 2.0 ** -200], -2.0 ** -199, rounded_first),
            ([1.0, 2.0 ** -53, -2.0 ** -200], 2.0 ** -201, head_and_rest)):
        sums = [determinant._exact_sum(one, np.array(terms)),
                determinant._exact_sum(one[:1], np.array([other]))]
        assert float(sum(sums)) == 1.0
        assert wrong(sums) == 1.0 + 2.0 ** -52


_MATCH = {NotContracting: r"word \(1,\) has multiplier",
          EscapedDomain: r"word \(1,\)", NoConvergence: "did not converge"}


def _skip_admission(monkeypatch):
    """Let trace and trace_table skip admission, to reach the words of a
    system that is not admitted."""
    monkeypatch.setattr(determinant, "enclosing_radius", lambda sys_: None)


@pytest.mark.parametrize("plain", [False, True])
@pytest.mark.parametrize("a, center, closed, iterated", [
    (1.0, 0.0, NotContracting, NotContracting),
    # |a| = 1: the fixed points 0 and infinity have multipliers of equal
    # modulus, so neither attracts and iteration never settles
    (-1.0, 0.1, NotContracting, NoConvergence),
    (cmath.exp(1j), 0.1, NotContracting, NoConvergence),
    # z -> 2z attracts only at infinity, where the closed form's fixed
    # point is 0/0 and its multiplier 1/2: no word is refused
    (2.0, 0.1, None, EscapedDomain),
])
def test_word_without_attracting_fixed_point_is_rejected(plain, a, center,
                                                         closed, iterated,
                                                         monkeypatch):
    # the images of z -> a z reach the radius, so the system is refused as
    # enclosing_radius refuses it, before any word. Past admission its word
    # is refused as closed or iterated names, or not at all
    sys_ = make_system([make_affine(a, 0.0)], [make_const(1.0)],
                       make_ball(center, 1.0))
    sys_ = as_plain_maps(sys_) if plain else sys_
    assert isinstance(_refused_as_enclosing_radius_refuses(
        sys_, monkeypatch, lambda s: trace(s, 1)), NotEnclosed)
    _skip_admission(monkeypatch)
    err = iterated if plain else closed
    if err is None:
        assert trace(sys_, 1).value == 2.0      # 1 / (1 - 1/2)
        return
    with pytest.raises(err, match=_MATCH[err]):
        trace(sys_, 1)


# the benchmark's letter orders of gauss4's shifts for seeds 0, 1 and 2
BENCH_SHIFTS = ((1, 2, 3, 4), (4, 1, 3, 2), (2, 3, 4, 1))
REAL_CASES = {
    **{f"gauss4-{''.join(map(str, s))}": lambda s=s: _moebius_case(
        [(0.0, 1.0, 1.0, float(e), "neg_derivative") for e in s],
        [1.0, 0.0], 1.5)[0] for s in BENCH_SHIFTS},
    "periodic-mix": lambda: _moebius_case(*PERIODIC_MIX["real"], 1.0)[0],
    "affine": lambda: system_from_descriptor({
        "family": "affine_list",
        "params": [{"a": 0.5, "b": 0.3, "weight": 1.0},
                   {"a": -0.4, "b": 0.1, "weight": 0.7}],
        "domain": {"center": [0.3, 0.0], "radius": 1.0, "dim": 1}}),
}


def _bits(call):
    """repr of call(), or of the error it raises: repr tells every float
    apart, the sign of zero too."""
    try:
        return repr(call())
    except TransferOperatorError as err:
        return f"{type(err).__name__}: {err}"


@pytest.mark.parametrize("name", sorted(REAL_CASES))
def test_real_words_keep_the_bits_of_complex_words(name, monkeypatch):
    # a real system's words are taken in float64, dividing as numpy
    # divides complex numbers, so every trace, multiplier and residual is
    # the one the complex path gives
    sys_ = REAL_CASES[name]()
    assert systems._real_data(sys_)

    def every_trace():
        return [_bits(lambda: trace(sys_, n, threads=threads))
                for n in range(1, 10) for threads in (1, 2)]

    real = every_trace()
    monkeypatch.setattr(determinant, "_real_data", lambda sys_: False)
    assert every_trace() == real


@pytest.mark.parametrize("a, center", [
    (1.0, 0.0), (-1.0, 0.1), (cmath.exp(1j), 0.1), (2.0, 0.1),
    # z -> -1/z has the roots +-i: a negative discriminant
    ("elliptic", 2.0)])
def test_refusals_are_the_same_on_the_real_path(a, center, monkeypatch):
    # no such system is admitted, so it is refused as enclosing_radius
    # refuses it, before any word. Past admission the words taken in
    # float64 keep the bits of the complex words: the same refusals, and
    # for z -> 2z the same values
    branch = (make_moebius(0.0, -1.0, 1.0, 0.0) if a == "elliptic"
              else make_affine(a, 0.0))
    sys_ = make_system([branch], [make_const(1.0)], make_ball(center, 1.0))
    assert isinstance(_refused_as_enclosing_radius_refuses(
        sys_, monkeypatch, lambda s: trace(s, 1)), NotEnclosed)
    _skip_admission(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        real = [_bits(lambda: trace(sys_, n)) for n in (1, 2, 3)]
        monkeypatch.setattr(determinant, "_real_data", lambda sys_: False)
        assert [_bits(lambda: trace(sys_, n)) for n in (1, 2, 3)] == real
    assert all(r.startswith("NotContracting: word (1")
               for r in real) == (a != 2.0)


@pytest.mark.parametrize("plain", [False, True])
@pytest.mark.parametrize("overshoot, escapes", [(0.5e-9, False),
                                                (2e-9, True)])
def test_fixed_point_outside_ball_escapes(plain, overshoot, escapes,
                                         monkeypatch):
    # z -> z/2 + b fixes 2b, just outside the unit disc, so its image
    # reaches past the radius: the system is refused as enclosing_radius
    # refuses it, before any word. Past admission only iteration checks a
    # fixed point against the ball, and it forgives a slack of 1e-9 radius
    sys_ = make_system([make_affine(0.5, (1.0 + overshoot) / 2)],
                       [make_const(1.0)], make_ball(0.0, 1.0))
    sys_ = as_plain_maps(sys_) if plain else sys_
    err = _refused_as_enclosing_radius_refuses(sys_, monkeypatch,
                                               lambda s: trace(s, 2))
    assert isinstance(err, NotEnclosed)
    if not plain:
        assert str(err) == "branch images reach 1 >= radius 1 (r = 1)"
    _skip_admission(monkeypatch)
    if plain and escapes:
        with pytest.raises(EscapedDomain, match=r"^word \(1, 1\) maps"):
            trace(sys_, 2)
    else:
        assert trace(sys_, 2).value == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_closed_form_fixed_point_without_pole(affine_half):
    # C = 0: the fixed point is B / (q - A); z -> z/2 + 0.3 fixes 0.6
    for n in (1, 5, 12):
        mult = _words(affine_half, n, 0, 1, True)[3]
        _, z = _word_fixed_points(affine_half, n, 0, 1, True)
        assert z[0] == pytest.approx(0.6, abs=1e-15)
        assert oracles.compose(affine_half, (1,) * n)(z[0]) == pytest.approx(
            z[0], abs=1e-15)
        assert mult[0] == pytest.approx(0.5 ** n, rel=1e-15)


def test_closed_form_fixed_point_near_affine():
    # C ~ 1e-9 with |A| < |E|: z comes from B / (q - A), not from the
    # cancelling (q - E) / C, so every word map fixes z to rounding
    entries, center, radius, _ = ORACLE_CASES["near-affine-mixed"]
    sys_, _, _ = _moebius_case(entries, center, radius)
    for n in (1, 3, 6):
        assert _word_map_residual(sys_, n) <= 1e-15


def _word_map_residual(sys_, n):
    """The largest |T_w(z) - z| over every length-n word w at the z that
    _word_fixed_points gives it, T_w the word's folded Moebius matrix."""
    index, z = _word_fixed_points(sys_, n, 0, sys_.n_letters ** n, False)
    letters = word_letters(sys_.n_letters, n, index)
    A, B, C, E = _fold_moebius(tuple(x[col - 1] for x in sys_.coefficients.T)
                               for col in letters.T)
    return float(np.abs((A * z + B) / (C * z + E) - z).max())


def test_max_residual_is_word_map_at_fixed_point(gauss4):
    # every word's closed-form z is fixed by its folded matrix and by its
    # branches composed one by one, to rounding
    n = 3
    index, z = _word_fixed_points(gauss4, n, 0, 4 ** n, False)
    letters = word_letters(4, n, index)
    words = [tuple(int(l) for l in row) for row in letters]
    # composing the branches one by one rounds differently from the
    # folded matrix, so the two residuals agree to a few ulps of |z| ~ 1
    want = max(abs(oracles.compose(gauss4, w)(p) - p)
               for w, p in zip(words, z))
    got = _word_map_residual(gauss4, n)
    assert abs(got - want) <= 4 * np.finfo(float).eps
    assert 0.0 < got <= 1e-15


def test_trace_dim2_diagonal_closed_form(diag2d):
    # T = (0.5 z0 + 0.1, 0.4 z1 - 0.2): the n-th trace is the product of
    # the coordinate factors 1/(1 - a_j^n)
    for n in range(1, 9):
        t = trace(diag2d, n)
        want = 1.0 / ((1.0 - 0.5 ** n) * (1.0 - 0.4 ** n))
        assert abs(t.value - want) <= 1e-13 * abs(want)


# dimension 2 on the stacked word path: the bench's two-branch C^2 system
DIAG_RATES = ((0.4, 0.25), (0.3, 0.35))
DIAG_OFFSETS = ((0.2, -0.1), (-0.2, 0.1))
DIAG_WEIGHTS = (1.0, 0.5)


def _diag2(branch=None, weights=None):
    """Branches z -> (a z_1 + s, b z_2 + t) as plain callables with no
    derivative, or built by branch(a, b, s, t); constant weights 1 and 0.5
    unless weights are given."""
    def plain(a, b, s, t):
        return AnalyticMap(lambda z: [a * z[0] + s, b * z[1] + t], dim=2)
    branches = [(branch or plain)(a, b, s, t) for (a, b), (s, t)
                in zip(DIAG_RATES, DIAG_OFFSETS)]
    return make_system(branches,
                       weights or [make_const(w) for w in DIAG_WEIGHTS],
                       make_ball((0.0, 0.0), 1.0, dim=2))


def _diag2_trace(n):
    """The exact n-th trace: a word with k letters 1 contributes
    w1^k w2^(n-k) / ((1 - a1^k a2^(n-k)) (1 - b1^k b2^(n-k)))."""
    (a1, b1), (a2, b2) = [[Fraction(x) for x in r] for r in DIAG_RATES]
    w1, w2 = map(Fraction, DIAG_WEIGHTS)
    return sum(math.comb(n, k) * w1 ** k * w2 ** (n - k)
               / (1 - a1 ** k * a2 ** (n - k)) / (1 - b1 ** k * b2 ** (n - k))
               for k in range(n + 1))


def test_trace_dim2_two_branch_closed_form():
    table = trace_table(_diag2(), 10)
    for n, got in enumerate(table.values, start=1):
        want = float(_diag2_trace(n))
        assert abs(got - want) <= 1e-12 * abs(want)


def _coupled(exp):
    """Branches z -> (a z_1 exp(z_2 / 10) + s, b z_2 + t) and their
    closed-form Jacobians, with exp taken from cmath or numpy."""
    def build(a, b, s, t):
        def fn(z):
            return [a * z[0] * exp(0.1 * z[1]) + s, b * z[1] + t]

        def deriv(z):
            e = exp(0.1 * z[1])
            return [[a * e, 0.1 * a * z[0] * e], [0.0 * e, b + 0.0 * e]]
        return AnalyticMap(fn, deriv, dim=2)
    return build


def _per_word_traces(sys_, M):
    """Traces 1..M as a loop over words, each composed, iterated to its
    fixed point and divided by det(I - T') in Python complex arithmetic."""
    eye = np.eye(sys_.dim)
    out = []
    for n in range(1, M + 1):
        terms = []
        for word in itertools.product(range(1, sys_.n_letters + 1), repeat=n):
            comp = oracles.compose(sys_, word)
            z = fixed_point(comp, sys_.domain).point
            det = complex(np.linalg.det(eye - comp.derivative(z)))
            terms.append(complex(oracles.word_weight(sys_, word)(z)) / det)
        out.append(complex(math.fsum(t.real for t in terms),
                           math.fsum(t.imag for t in terms)))
    return tuple(out)


def test_trace_dim2_keeps_the_per_word_bits():
    # affine maps with constant weights: each term is fixed by the Jacobian
    # product alone, so the stacked path must give the loop's bits
    sys_ = _diag2(weights=[make_const(0.93), make_const(0.61)])
    assert trace_table(sys_, 8).values == _per_word_traces(sys_, 8)


def test_trace_dim2_map_that_does_not_broadcast():
    # cmath refuses arrays, so that system goes one point at a time
    with pytest.raises(TypeError):
        cmath.exp(np.zeros(3, dtype=complex))
    want = trace_table(_diag2(_coupled(np.exp)), 6).values
    got = trace_table(_diag2(_coupled(cmath.exp)), 6).values
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * abs(w)


def test_trace_dim2_batch_of_dim_points_goes_point_by_point():
    # A @ z + v on a (2, 2) batch of two points adds v along the wrong axis
    # without an error; at order 2 every letter group holds two words. The
    # weight makes each term depend on the word's fixed point.
    def matrix(a, b, s, t):
        A, v = np.diag([a, b]), np.array([s, t])
        return AnalyticMap(lambda z: A @ np.asarray(z) + v, lambda z: A,
                           dim=2)
    weight = AnalyticMap(lambda z: 1.0 + 0.5 * z[0] * z[1], dim=2)
    want = trace_table(_diag2(weights=[weight, weight]), 3).values
    got = trace_table(_diag2(matrix, [weight, weight]), 3).values
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * abs(w)


def test_trace_dim2_thread_count_is_invisible():
    sys_ = _diag2()
    assert trace_table(sys_, 10, threads=1) == trace_table(sys_, 10,
                                                           threads=2)


def test_trace_dim2_escape_names_the_word():
    # the second branch fixes (1.8, 0); word (2, 2) leaves the unit ball on
    # the first sweep, the first word of the batch to do so
    sys_ = make_system(
        [AnalyticMap(lambda z: [0.5 * z[0] + 0.1, 0.5 * z[1]], dim=2),
         AnalyticMap(lambda z: [0.5 * z[0] + 0.9, 0.5 * z[1]], dim=2)],
        [make_const(1.0), make_const(1.0)], make_ball((0.0, 0.0), 1.0, dim=2))
    with pytest.raises(EscapedDomain,
                       match=r"^word \(2, 2\) maps the center orbit"):
        trace(sys_, 2)


def test_trace_dim2_singular_word_is_refused():
    # the first coordinate is fixed pointwise, so det(I - T') = 0
    sys_ = make_system([AnalyticMap(lambda z: [z[0], 0.5 * z[1]], dim=2)],
                       [make_const(1.0)], make_ball((0.0, 0.0), 1.0, dim=2))
    with pytest.raises(NotContracting,
                       match=r"^word \(1,\) has det\(I - T'\) = 0"):
        trace(sys_, 1)


def test_trace_table_budget_checked_before_any_work_dim2(monkeypatch):
    sys_ = _diag2()
    monkeypatch.setattr(determinant, "batch_fixed_points", _no_work)
    with pytest.raises(AssertionError, match="words were evaluated"):
        trace_table(sys_, 5, word_budget=32)
    with pytest.raises(BudgetExceeded):
        trace_table(sys_, 6, word_budget=40)    # 2^6 = 64 words


# ---------------------------------------------------------------------------
# Newton recursion


def _table(values):
    values = tuple(complex(v) for v in values)
    orders = tuple(range(1, len(values) + 1))
    return TraceTable(orders, values)


def test_coefficients_affine_first_two():
    tt = _table([1.0 / (1.0 - 0.5 ** n) for n in (1, 2)])
    series = determinant_coefficients(tt)
    assert series.coefficients[0] == 1.0
    assert series.coefficients[1] == pytest.approx(-2.0, rel=1e-14)
    assert series.coefficients[2] == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_coefficients_zero_traces():
    series = determinant_coefficients(_table([0.0] * 6))
    assert series.coefficients[0] == 1.0
    assert all(c == 0.0 for c in series.coefficients[1:])


def test_coefficients_rank_one_algebra():
    lam = 0.5
    series = determinant_coefficients(_table([lam ** n for n in range(1, 9)]))
    assert series.coefficients[1] == -lam
    assert all(c == 0.0 for c in series.coefficients[2:])


def test_coefficients_match_exact_rationals(affine_half):
    tt = trace_table(affine_half, 12)
    series = determinant_coefficients(tt)
    exact = oracles.newton_coeffs_exact(
        [Fraction(1, 1) / (1 - Fraction(1, 2 ** n)) for n in range(1, 13)])
    for m, c in enumerate(series.coefficients):
        want = complex(exact[m])
        assert abs(c - want) <= 1e-12 * max(1.0, abs(want))


def test_coefficients_match_infinite_product(affine_half):
    # the determinant for the half-scaling system is prod_k (1 - z 0.5^k);
    # 64 factors are converged far below the comparison tolerance
    tt = trace_table(affine_half, 12)
    series = determinant_coefficients(tt)
    want = oracles.product_poly_coeffs([0.5 ** k for k in range(64)])[:13]
    assert np.max(np.abs(np.asarray(series.coefficients) - want)) < 1e-12


def test_coefficients_require_contiguous_orders():
    tt = TraceTable((1, 3), (1.0, 1.0))
    with pytest.raises(ValueError):
        determinant_coefficients(tt)


# ---------------------------------------------------------------------------
# zeros


def test_zeros_affine_leading_eigenvalues(affine_half):
    series = determinant_coefficients(trace_table(affine_half, 12))
    seq = determinant_zeros(series)
    for k, want in enumerate([1.0, 0.5, 0.25]):
        assert abs(seq.values[k] - want) < 1e-9


def test_zeros_linear_series():
    # a degree-1 truncation has no lower truncation to agree with
    seq = determinant_zeros(DeterminantSeries((1.0, -0.35 + 0.1j)))
    assert len(seq.values) == 1
    assert seq.values[0] == pytest.approx(0.35 - 0.1j, rel=1e-12)
    assert seq.reliable_count == 0


def test_zeros_rank_one_constant_branch():
    # a constant branch makes the operator rank one: f -> w(p) f(p);
    # with weight 1/2 the determinant is exactly 1 - z/2
    branch = AnalyticMap(lambda z: 0.2 + 0.0 * z, lambda z: 0.0 * z,
                         name="const-branch")
    sys_ = make_system([branch], [make_const(0.5)], make_ball(0.0, 1.0))
    series = determinant_coefficients(trace_table(sys_, 10))
    assert series.coefficients[1] == pytest.approx(-0.5, rel=1e-14)
    assert all(abs(c) < 1e-15 for c in series.coefficients[2:])
    seq = determinant_zeros(series)
    assert seq.reliable_count == 1
    assert seq.values[0] == pytest.approx(0.5, rel=1e-12)


def test_zeros_cross_method_gauss4(gauss4):
    series = determinant_coefficients(
        trace_table(gauss4, 10, word_budget=2_000_000))
    det_seq = determinant_zeros(series)
    mat_seq = spectral_sequence(gauss4, N=32)
    k = min(det_seq.reliable_count, mat_seq.reliable_count, 2)
    assert k == 2
    for i in range(k):
        assert abs(det_seq.values[i] - mat_seq.values[i]) < 1e-7


def test_zeros_dim2_leading_value(diag2d):
    # the product spectrum 0.5^a 0.4^b is dense, so only the leading zero
    # is requested at this truncation depth; its limit is 1
    series = determinant_coefficients(trace_table(diag2d, 14))
    seq = determinant_zeros(series)
    assert abs(seq.values[0] - 1.0) < 1e-7


# ---------------------------------------------------------------------------
# root finder


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.complex_numbers(min_magnitude=0.2, max_magnitude=3.0,
                       allow_nan=False, allow_infinity=False),
    min_size=1, max_size=7))
# the coefficient -1e-300j once started a root near 1e300, past Cauchy's
# bound, and p(x) overflowed there
@example(roots=[-1 + 0j, 1 + 1e-300j])
def test_aberth_recovers_known_roots(roots):
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            assume(abs(roots[i] - roots[j]) > 0.1)
    coeffs = np.poly(np.asarray(roots, dtype=complex))
    got = np.asarray(_aberth_roots(tuple(coeffs)))
    assert got.size == len(roots)
    for r in roots:
        assert np.min(np.abs(got - r)) < 1e-7 * max(1.0, abs(r))


def test_aberth_agrees_with_companion_solver():
    rng = np.random.default_rng(0)
    for _ in range(25):
        deg = int(rng.integers(1, 9))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        coeffs[0] += 3.0          # keep the leading coefficient well away from 0
        mine = sorted(np.asarray(_aberth_roots(tuple(coeffs))),
                      key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        ref = sorted(np.roots(coeffs),
                     key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        for a, b in zip(mine, ref):
            assert abs(a - b) < 1e-6 * max(1.0, abs(b))


def test_aberth_stops_at_the_rounding_floor_and_polishes(monkeypatch):
    # the degree-10 determinant polynomial of the dim-2 diagonal system:
    # float64 p(x) is all rounding once the steps reach about 1e-14, short
    # of the 1e-15 stop, and the roots sat up to 5.5e-14 off. The stall stop
    # ends the loop, and two steps with p exact put each root within
    # 2e-16 of mpmath's
    coeffs = determinant_coefficients(trace_table(_diag2(), 10)).coefficients
    steps = []
    step = determinant._aberth_step

    def counted(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(determinant, "_aberth_step", counted)
    got = _aberth_roots(coeffs)
    assert len(steps) - 2 <= 40
    want = oracles.polyroots_mp(coeffs)
    assert len(got) == len(want) == 10
    for x in got:
        assert oracles.root_distance_mp(x, want) <= 2e-16


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=11),
       st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                          allow_infinity=False))
def test_exact_polyval_rounds_the_exact_value_once(coeffs, x):
    re = im = Fraction(0)
    xr, xi = Fraction(x.real), Fraction(x.imag)
    for c in coeffs:
        re, im = (re * xr - im * xi + Fraction(c.real),
                  re * xi + im * xr + Fraction(c.imag))
    got = determinant._exact_polyval(np.array(coeffs, dtype=complex),
                                     np.array([x]))
    assert got[0] == complex(float(re), float(im))


# the zeros CLI determinant prints for gauss4 at order 10: Aberth meets its
# 1e-15 stop there before any stall, so they keep these bits
GAUSS4_ZEROS = (
    ("0x1.73675b9a61abcp-1", "0x1.85d8000000000p-171"),
    ("-0x1.c8d995b3240b2p-3", "0x1.b06fdc495acb2p-169"),
    ("0x1.3f574a45cd1fcp-4", "0x0.0p+0"),
    ("-0x1.cfe9ff0a02de9p-6", "0x1.2be0000000000p-173"),
    ("0x1.56f0875cac3d3p-7", "-0x1.0000000000000p-116"),
    ("-0x1.ffada7b3d8f61p-9", "0x1.3698000000000p-177"),
    ("0x1.7ef2497e770b1p-10", "0x1.5dd8000000000p-183"),
    ("-0x1.31d60eb646cc5p-11", "0x1.4f88000000000p-183"),
    ("0x1.8606f655c9b30p-13", "0x0.0p+0"),
)


def test_gauss4_zeros_keep_their_bits(gauss4):
    zeros = determinant_zeros(determinant_coefficients(
        trace_table(gauss4, 10)))
    assert tuple((v.real.hex(), v.imag.hex())
                 for v in zeros.values) == GAUSS4_ZEROS
    assert zeros.reliable_count == 3


# ---------------------------------------------------------------------------
# export


def test_export_determinant_json(affine_half):
    tt = trace_table(affine_half, 6)
    series = determinant_coefficients(tt)
    out = export_determinant_json(tt, series)
    assert set(out) == {"orders", "traces_re", "traces_im", "coeffs_re",
                        "coeffs_im"}
    assert out["orders"] == [1, 2, 3, 4, 5, 6]
    assert len(out["coeffs_re"]) == 7
    # written as the CLI writes determinant-<id>.json
    import json
    on_disk = json.loads(json_g17(out) + "\n")
    assert on_disk == out
    # 17 significant digits round-trip exactly
    assert on_disk["traces_re"][0] == tt.values[0].real
