"""Periodic-orbit traces, determinant coefficients, reciprocal zeros."""

import cmath
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
    compose,
    determinant_coefficients,
    determinant_zeros,
    export_determinant_json,
    make_affine,
    make_ball,
    make_const,
    make_system,
    spectral_sequence,
    system_from_descriptor,
    trace,
    trace_table,
)
from transferspec import determinant
from transferspec.determinant import TRUST_CAP, _aberth_roots
from transferspec.dynamics import _fold_moebius, _fold_words
from transferspec.systems import AnalyticMap

from conftest import GAUSS4_DESC, as_plain_maps


# ---------------------------------------------------------------------------
# traces


def test_trace_single_affine_order_one(affine_half):
    t = trace(affine_half, 1)
    assert t.value == pytest.approx(2.0, rel=1e-14)
    assert t.words == 1
    assert t.truncation_bound == 0.0


def test_trace_single_affine_all_orders(affine_half):
    for n in range(1, 13):
        t = trace(affine_half, n)
        want = 1.0 / (1.0 - 0.5 ** n)
        assert abs(t.value - want) < 1e-13


def test_trace_two_branch_example(two_thirds):
    t = trace(two_thirds, 1)
    assert t.value == pytest.approx(3.0, rel=1e-14)
    assert t.words == 2


def test_trace_budget_enforced(gauss200):
    with pytest.raises(BudgetExceeded):
        trace(gauss200, 3)       # 200^3 = 8e6 words over the default budget


def test_trace_thread_count_is_invisible(gauss4):
    a = trace(gauss4, 6, threads=1)
    b = trace(gauss4, 6, threads=4)
    assert a.value == b.value
    assert a.truncation_bound == b.truncation_bound


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
            assert conj.branch(i)(phi(w)) == pytest.approx(
                phi(base.branch(i)(w)), rel=1e-13)
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
    assert sys_._mob is not None and plain._mob is None
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
    # the prefix tree gives every word the bits of a letter by letter fold,
    # also for ranges that start and end inside a prefix
    sys_, _, _ = _moebius_case(
        [_PAIR[0] + ("derivative",), _PAIR[1] + ("neg_derivative",),
         (0.1 + 0.05j, -0.2, 0.1j, 2.2, "derivative")], [0.1, 0.05], 1.0)
    n, total = 7, 3 ** 7
    whole = determinant._moebius_words(sys_, n, 0, total)
    for lo, hi in ((0, 1000), (1000, 1001), (1001, total)):
        part = determinant._moebius_words(sys_, n, lo, hi)
        for w, p in zip(whole, part):
            assert np.array_equal(w[lo:hi], p)
    letters = determinant.letters_block(3, n, 0, total)
    A, B, C, E = _fold_moebius(tuple(x[col - 1] for x in sys_._mob)
                               for col in letters.T)
    _, _, z, end = whole
    assert np.array_equal(end, (A * z + B) / (C * z + E))
    # the contraction's fold: C, E and the product of letter |det|
    a, b, c, e = sys_._mob
    dets = np.abs(a * e - b * c)
    lo, hi = 1001, 2000
    (_, _, got_c, got_e), (got_det,) = _fold_words(sys_._mob, n, lo, hi, dets)
    want_det = 1.0
    for col in letters[lo:hi].T:
        want_det = want_det * dets[col - 1]
    assert np.array_equal(got_c, C[lo:hi]) and np.array_equal(got_e, E[lo:hi])
    assert np.array_equal(got_det, want_det)


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
        _, mult, z, end = determinant._moebius_words(affine_half, n, 0, 1)
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
    n = 3
    _, _, z, _ = determinant._moebius_words(gauss4, n, 0, 4 ** n)
    words = [tuple(int(l) for l in row)
             for row in determinant.letters_block(4, n, 0, 4 ** n)]
    # composing the branches one by one rounds differently from the
    # folded matrix, so the two residuals agree to a few ulps of |z| ~ 1
    want = max(abs(compose(gauss4, w)(p) - p) for w, p in zip(words, z))
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


# ---------------------------------------------------------------------------
# Newton recursion


def _table(values, bounds=None, sid="synthetic"):
    values = tuple(complex(v) for v in values)
    orders = tuple(range(1, len(values) + 1))
    if bounds is None:
        bounds = (0.0,) * len(values)
    return TraceTable(orders, values, tuple(bounds), 0.5, sid)


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
    tt = TraceTable((1, 3), (1.0, 1.0), (0.0, 0.0), 0.5, "bad")
    with pytest.raises(ValueError):
        determinant_coefficients(tt)


def test_trust_radius_zero_bounds_hits_cap(affine_half):
    series = determinant_coefficients(trace_table(affine_half, 6))
    assert series.trust_radius == TRUST_CAP


def test_trust_radius_decreases_with_bounds():
    values = [2.0] * 6
    loose = determinant_coefficients(_table(values, bounds=[1e-12] * 6))
    tight = determinant_coefficients(_table(values, bounds=[1e-6] * 6))
    assert tight.trust_radius < loose.trust_radius
    assert tight.trust_radius > 0.0


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
    seq = determinant_zeros(DeterminantSeries((1.0, -0.35 + 0.1j), 100.0))
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


def test_export_determinant_json(tmp_path, affine_half):
    tt = trace_table(affine_half, 6)
    series = determinant_coefficients(tt)
    path = tmp_path / "det.json"
    out = export_determinant_json(tt, series, path)
    assert set(out) == {"orders", "traces_re", "traces_im", "coeffs_re",
                        "coeffs_im", "trust_radius"}
    assert out["orders"] == [1, 2, 3, 4, 5, 6]
    assert len(out["coeffs_re"]) == 7
    import json
    on_disk = json.loads(path.read_text())
    assert on_disk == out
    # 17 significant digits round-trip exactly
    assert on_disk["traces_re"][0] == tt.values[0].real
