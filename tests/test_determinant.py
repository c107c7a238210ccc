"""Periodic-orbit traces, determinant coefficients, reciprocal zeros."""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from transferspec import (
    BudgetExceeded,
    DeterminantSeries,
    EscapedDomain,
    NoConvergence,
    NotContracting,
    TraceTable,
    TransferOperatorError,
    determinant_coefficients,
    determinant_zeros,
    export_determinant_json,
    fixed_point,
    make_affine,
    make_ball,
    make_const,
    make_gauss_system,
    make_system,
    spectral_sequence,
    system_from_descriptor,
    trace,
    trace_table,
)
from transferspec import determinant, dynamics
from transferspec._format import json_g17
from transferspec.determinant import _aberth_roots
from transferspec.dynamics import (
    _fold_moebius,
    _fold_words,
    word_letters,
)
from transferspec.systems import AnalyticMap

from conftest import GAUSS4_DESC, as_plain_maps


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
    assert tt.system_id == gauss4.system_id


def test_trace_table_maps_all_orders_at_once(gauss4, monkeypatch):
    # one ordered map, so one thread pool, serves every order of the table
    sizes = []
    real = determinant.map_ordered

    def counted(fn, items, threads):
        sizes.append(len(items))
        return real(fn, items, threads)

    monkeypatch.setattr(determinant, "map_ordered", counted)
    table = trace_table(gauss4, 9, threads=2)
    assert sizes == [8 + 4]     # one chunk for each of orders 1..8, 4 for 9
    monkeypatch.setattr(determinant, "map_ordered", real)
    for n in (1, 8, 9):
        assert table.values[n - 1] == trace(gauss4, n).value


def _no_work(*args):
    raise AssertionError("words were evaluated")


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

    spy(dynamics, "_fold_words")
    spy(determinant, "_fold_words")
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
    sys_, _, _ = _moebius_case(
        [_PAIR[0] + ("derivative",), _PAIR[1] + ("neg_derivative",),
         (0.1 + 0.05j, -0.2, 0.1j, 2.2, "derivative")], [0.1, 0.05], 1.0)
    n, total = 7, 3 ** 7
    reps = _fold_words(3, n, 0, total, necklaces=True)[0]
    whole = determinant._moebius_words(sys_, n, 0, total, True)
    for lo, hi in ((0, 1000), (1000, 1001), (1001, total)):
        inside = (reps >= lo) & (reps < hi)
        part = determinant._moebius_words(sys_, n, lo, hi, True)
        if part is None:
            assert not inside.any()
            continue
        for w, p in zip(whole, part):
            assert np.array_equal(w[inside], p)
    letters = whole[0]
    assert np.array_equal(letters, word_letters(3, n, reps))
    A, B, C, E = _fold_moebius(tuple(x[col - 1] for x in sys_.coefficients.T)
                               for col in letters.T)
    z, end = whole[4], whole[5]
    assert np.array_equal(end, (A * z + B) / (C * z + E))
    # the contraction's fold over every word: C, E and the product of
    # letter |det|
    a, b, c, e = sys_.coefficients.T
    dets = np.abs(a * e - b * c)
    lo, hi = 1001, 2000
    every = word_letters(3, n, np.arange(lo, hi))
    words, period, (_, _, got_c, got_e), (got_det,) = _fold_words(
        3, n, lo, hi, tuple(sys_.coefficients.T), (dets,))
    assert np.array_equal(words, np.arange(lo, hi)) and (period == 1).all()
    _, _, C, E = _fold_moebius(tuple(x[col - 1] for x in sys_.coefficients.T)
                               for col in every.T)
    want_det = 1.0
    for col in every.T:
        want_det = want_det * dets[col - 1]
    assert np.array_equal(got_c, C) and np.array_equal(got_e, E)
    assert np.array_equal(got_det, want_det)


@pytest.mark.parametrize("plain", [False, True])
def test_escape_of_a_rotation_is_refused(plain):
    # (1, 2) fixes -0.945, inside the unit disc, and its rotation (2, 1)
    # fixes 1.05, outside: the sum over the class of (1, 2) still refuses
    # the rotation, by name
    sys_ = make_system([make_affine(-0.9, 0.1995), make_affine(-0.9, 0.0)],
                       [make_const(1.0), make_const(1.0)],
                       make_ball(0.0, 1.0))
    with pytest.raises(EscapedDomain, match=r"word \(2, 1\) has its attr"):
        trace(as_plain_maps(sys_) if plain else sys_, 2)


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

    def recorded(*args):
        necklaces.append(args[-1])
        return words(*args)

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
    _, _, wgt, mult, _, _, _ = determinant._moebius_words(sys_, n, 0, 2 ** n,
                                                          False)
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
    _, _, wgt, mult, _, _, _ = determinant._moebius_words(sys_, n, 0, 2 ** n,
                                                          False)
    terms = wgt / (1.0 - mult)
    want = complex(math.fsum(terms.real), math.fsum(terms.imag))
    got = trace(as_plain_maps(sys_) if plain else sys_, n).value
    assert abs(got - want) <= 1e-14 * abs(want)


def test_period_times_term_is_split_exactly():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(300) * 10.0 ** rng.integers(-30, 30, 300)
    k = rng.integers(1, 64, 300)
    parts = determinant._times(k, x)
    for i in range(300):
        assert (Fraction(parts[i]) + Fraction(parts[300 + i])
                == int(k[i]) * Fraction(x[i]))


_MATCH = {NotContracting: r"word \(1,\) has multiplier",
          EscapedDomain: r"word \(1,\)", NoConvergence: "did not converge"}


@pytest.mark.parametrize("plain", [False, True])
@pytest.mark.parametrize("a, center, closed, iterated", [
    (1.0, 0.0, NotContracting, NotContracting),
    # |a| = 1: the fixed points 0 and infinity have multipliers of equal
    # modulus, so neither attracts and iteration never settles
    (-1.0, 0.1, NotContracting, NoConvergence),
    (cmath.exp(1j), 0.1, NotContracting, NoConvergence),
    # z -> 2z attracts only at infinity, where the closed form gives 0/0
    (2.0, 0.1, EscapedDomain, EscapedDomain),
])
def test_word_without_attracting_fixed_point_is_rejected(plain, a, center,
                                                         closed, iterated):
    sys_ = make_system([make_affine(a, 0.0)], [make_const(1.0)],
                       make_ball(center, 1.0))
    err = iterated if plain else closed
    with pytest.raises(err, match=_MATCH[err]):
        trace(as_plain_maps(sys_) if plain else sys_, 1)


@pytest.mark.parametrize("plain", [False, True])
@pytest.mark.parametrize("overshoot, escapes", [(0.5e-9, False),
                                                (2e-9, True)])
def test_fixed_point_outside_ball_escapes(plain, overshoot, escapes):
    # z -> z/2 + b fixes 2b; the ball is the unit disc, and both paths
    # forgive the same slack of 1e-9 radius
    sys_ = make_system([make_affine(0.5, (1.0 + overshoot) / 2)],
                       [make_const(1.0)], make_ball(0.0, 1.0))
    sys_ = as_plain_maps(sys_) if plain else sys_
    if escapes:
        with pytest.raises(EscapedDomain, match=r"word \(1, 1\)"):
            trace(sys_, 2)
    else:
        assert trace(sys_, 2).value == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_closed_form_fixed_point_without_pole(affine_half):
    # C = 0: the fixed point is B / (q - A); z -> z/2 + 0.3 fixes 0.6
    for n in (1, 5, 12):
        _, _, _, mult, z, end, _ = determinant._moebius_words(
            affine_half, n, 0, 1, True)
        assert z[0] == pytest.approx(0.6, abs=1e-15)
        assert end[0] == pytest.approx(z[0], abs=1e-15)
        assert mult[0] == pytest.approx(0.5 ** n, rel=1e-15)


def test_closed_form_fixed_point_near_affine():
    # C ~ 1e-9 with |A| < |E|: z comes from B / (q - A), not from the
    # cancelling (q - E) / C, so every word map fixes z to rounding
    entries, center, radius, _ = ORACLE_CASES["near-affine-mixed"]
    sys_, _, _ = _moebius_case(entries, center, radius)
    for n in (1, 3, 6):
        assert trace(sys_, n).max_residual <= 1e-15


def test_max_residual_is_word_map_at_fixed_point(gauss4):
    # the residual is over the words evaluated: gauss4's terms share one
    # sign, so those are the necklace representatives
    n = 3
    letters, _, _, _, z, _, _ = determinant._moebius_words(gauss4, n, 0,
                                                           4 ** n, True)
    words = [tuple(int(l) for l in row) for row in letters]
    # composing the branches one by one rounds differently from the
    # folded matrix, so the two residuals agree to a few ulps of |z| ~ 1
    want = max(abs(oracles.compose(gauss4, w)(p) - p)
               for w, p in zip(words, z))
    got = trace(gauss4, n).max_residual
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
    assert table.max_multiplier == pytest.approx(0.4)


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


def _table(values, sid="synthetic"):
    values = tuple(complex(v) for v in values)
    orders = tuple(range(1, len(values) + 1))
    return TraceTable(orders, values, 0.5, sid)


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
    tt = TraceTable((1, 3), (1.0, 1.0), 0.5, "bad")
    with pytest.raises(ValueError):
        determinant_coefficients(tt)


# ---------------------------------------------------------------------------
# zeros


def test_zeros_affine_leading_eigenvalues(affine_half):
    series = determinant_coefficients(trace_table(affine_half, 12))
    seq = determinant_zeros(series)
    assert seq.method == "determinant"
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


def test_zeros_respect_requested_count(affine_half):
    series = determinant_coefficients(trace_table(affine_half, 12))
    seq = determinant_zeros(series, count=4)
    assert len(seq.values) == 4
    assert seq.reliable_count <= 4


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
