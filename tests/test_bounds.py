"""Stretched-exponential eigenvalue bounds, Weyl products, crossover index."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from transferspec import (
    BoundProfile,
    DimensionUnsupported,
    EigenvalueSequence,
    bound_combined,
    bound_d1,
    bound_general,
    bound_hardy,
    bound_table,
    crossover_N,
    crossover_report,
    enclosing_radius,
    spectral_sequence,
    t_sequence,
    validate_system,
    verify_bounds,
)
from transferspec.bounds import _factorial_root, bounds_csv_text


# ---------------------------------------------------------------------------
# profile validation


def test_profile_validation():
    BoundProfile(1.0, 0.5, 1)
    BoundProfile(0.0, 0.9, 3)      # zero operator is representable
    with pytest.raises(ValueError):
        BoundProfile(-1.0, 0.5, 1)
    with pytest.raises(ValueError):
        BoundProfile(1.0, 1.0, 1)
    with pytest.raises(ValueError):
        BoundProfile(1.0, 0.0, 1)
    with pytest.raises(ValueError):
        BoundProfile(1.0, 0.5, 0)
    with pytest.raises(ValueError):
        BoundProfile(float("inf"), 0.5, 1)


# ---------------------------------------------------------------------------
# t sequence


def test_t_sequence_dim1():
    assert t_sequence(1, 5) == [0, 1, 2, 3, 4]


def test_t_sequence_dim2():
    assert t_sequence(2, 6) == [0, 1, 1, 2, 2, 2]


def test_t_sequence_starts_at_zero():
    for d in range(1, 7):
        assert t_sequence(d, 1) == [0]


def test_t_sequence_run_lengths():
    # the number of l with t_l = k is the monomial count binom(k+d-1, d-1)
    for d in range(1, 6):
        seq = t_sequence(d, 300)
        complete = [k for k in range(max(seq)) ]
        for k in complete:
            run = sum(1 for t in seq if t == k)
            assert run == math.comb(k + d - 1, d - 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=400))
def test_t_sequence_monotone_and_blocked(d, n):
    seq = t_sequence(d, n)
    assert len(seq) == n
    assert all(b - a in (0, 1) for a, b in zip(seq, seq[1:]))
    # value k first appears at index comb(k-1+d, d) + 1 (1-based)
    for k in range(max(seq) + 1):
        first = next(i for i, t in enumerate(seq) if t == k) + 1
        assert first == math.comb(k - 1 + d, d) + 1


# ---------------------------------------------------------------------------
# the four bounds


def test_bound_d1_examples():
    p = BoundProfile(1.0, 0.5, 1)
    assert bound_d1(p, 1) == pytest.approx(1.0, rel=1e-14)
    # n = 3: exponent (n-1)/2 = 1, so sqrt(3) * r, consistent with the
    # weyl product form whose mean exponent (0+1+2)/3 is also 1
    assert bound_d1(p, 3) == pytest.approx(math.sqrt(3) * 0.5, rel=1e-14)


def test_bound_d1_rejects_higher_dimension():
    with pytest.raises(DimensionUnsupported,
                       match="the d=1 bound is undefined for dimension 2"):
        bound_d1(BoundProfile(1.0, 0.5, 2), 3)


def test_bound_d1_equals_weyl_product_exactly():
    # the product-inequality form W n^(1/2) r^(mean of t_1..t_n)
    p = BoundProfile(2.0, 0.7, 1)
    for n in range(1, 51):
        weyl = p.W * math.sqrt(n) * p.r ** (sum(t_sequence(1, n)) / n)
        assert bound_d1(p, n) == weyl


def test_bound_general_examples():
    p = BoundProfile(1.0, 0.5, 1)
    assert bound_general(p, 4) == pytest.approx(1.0, rel=1e-14)
    p2 = BoundProfile(1.0, 0.9, 2)
    want = (1.0 / 0.81) * 0.9 ** ((2.0 / 3.0) * math.sqrt(2.0))
    assert bound_general(p2, 1) == pytest.approx(want, rel=1e-14)


def test_bound_general_dominates_d1():
    for r in (0.3, 0.5, 0.9):
        p = BoundProfile(1.0, r, 1)
        for n in range(1, 101):
            assert bound_d1(p, n) <= bound_general(p, n)


def test_bound_hardy_examples():
    p = BoundProfile(1.0, 0.5, 1)
    want = (1.0 / (0.5 * math.sqrt(0.75))) * 0.5
    assert bound_hardy(p, 2) == pytest.approx(want, rel=1e-14)
    # d = 1 carries no n-power prefactor: ratio of consecutive values is r
    assert bound_hardy(p, 3) / bound_hardy(p, 2) == pytest.approx(
        math.sqrt(0.5), rel=1e-14)
    p2 = BoundProfile(1.0, 0.5, 2)
    want2 = (math.sqrt(2) / (0.25 * 0.75)) * 0.5 ** ((2 / 3) * math.sqrt(2))
    assert bound_hardy(p2, 1) == pytest.approx(want2, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=10.0),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=200),
)
def test_bound_combined_is_min(W, r, d, n):
    p = BoundProfile(W, r, d)
    got = bound_combined(p, n)
    assert got == min(bound_general(p, n), bound_hardy(p, n))


def test_combined_branch_switch_d1():
    # at d=1, r=0.9 the n^(1/2) branch wins exactly while n < 1/(1-r^2)
    p = BoundProfile(1.0, 0.9, 1)
    for n in range(1, 6):
        assert bound_combined(p, n) == bound_general(p, n)
    assert bound_combined(p, 6) == bound_hardy(p, 6)
    deep = BoundProfile(1.0, 0.5, 1)
    assert bound_combined(deep, 100) == bound_hardy(deep, 100)


# ---------------------------------------------------------------------------
# crossover index


def test_crossover_spot_value():
    assert crossover_N(0.9, 1) == 5


def test_crossover_at_least_one():
    # the general form always wins at n = 1: its prefactor ratio against the
    # hardy form is (1-r^2)^(d/2)/sqrt(d) <= 1, so the index is never 0
    for d in range(1, 7):
        for k in range(1, 20):
            assert crossover_N(k / 20, d) >= 1


def test_crossover_matches_direct_comparison():
    # the index is the last n where the general form is the sharper one
    cases = [(r, d) for r in (0.3, 0.6, 0.9) for d in (1, 2)]
    cases += [(0.3, 3), (0.6, 3)]
    for r, d in cases:
        N = crossover_N(r, d)
        p = BoundProfile(1.0, r, d)
        assert bound_general(p, N) <= bound_hardy(p, N) * (1 + 1e-9)
        assert bound_general(p, N + 1) > bound_hardy(p, N + 1) * (1 - 1e-9)


def test_crossover_monotone():
    rs = [round(0.1 * k, 1) for k in range(1, 10)]
    for d in range(1, 6):
        vals = [crossover_N(r, d) for r in rs]
        assert vals == sorted(vals)
    for r in rs:
        vals = [crossover_N(r, d) for d in range(1, 6)]
        assert vals == sorted(vals)


def test_crossover_report_dim1_notes_convention_clash():
    rep = crossover_report(0.9, 1)
    assert rep["crossover_N"] == 5
    assert rep["threshold_general_vs_hardy"] == pytest.approx(
        1 / (1 - 0.81), rel=1e-12)
    assert rep["threshold_d1_vs_hardy"] == pytest.approx(
        1 / (0.9 * (1 - 0.81)), rel=1e-12)
    assert rep["threshold_quadratic_floor"] == 2
    assert "note" in rep
    assert "rule" in rep


def test_orders_and_dimensions_below_one_are_refused():
    prof = BoundProfile(1.0, 0.5, 1)
    cases = [(lambda: t_sequence(0, 3), "d must be >= 1"),
             (lambda: t_sequence(1, 0), "n must be >= 1"),
             (lambda: crossover_N(0.5, 0), "d must be >= 1")]
    cases += [(lambda f=f: f(prof, 0), "n must be >= 1")
              for f in (bound_d1, bound_general, bound_hardy)]
    for call, line in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == line


@pytest.mark.parametrize("d", [21, 30, 50, 100, 170])
def test_factorial_root_past_twenty_uses_lgamma(d):
    # past d = 20 the root comes from lgamma, not the exact factorial; up
    # to 170 the exact one is still a double to check it against
    want = math.factorial(d) ** (1 / d)
    assert abs(_factorial_root(d) - want) <= 4 * math.ulp(want)


def test_crossover_report_higher_dimension_minimal():
    rep = crossover_report(0.5, 3)
    assert rep["crossover_N"] == crossover_N(0.5, 3)
    assert "threshold_d1_vs_hardy" not in rep
    assert "note" not in rep


# ---------------------------------------------------------------------------
# verification


def test_verify_bounds_affine_at_r(affine_half):
    # |lambda_n| = r^(n-1) with W = 1, r = 0.5: passes since r^((n-1)/2) <= sqrt(n)
    seq = spectral_sequence(affine_half, N=24)
    W = validate_system(affine_half).W
    r = enclosing_radius(affine_half)
    assert W == pytest.approx(1.0, rel=1e-12)
    assert r == pytest.approx(0.5, rel=1e-12)
    report = verify_bounds(seq, BoundProfile(W, r, 1))
    assert report.all_pass
    assert report.reliable_count == seq.reliable_count
    for row in report.rows[:report.reliable_count]:
        assert row.passed
        assert row.abs_lambda <= row.bound_combined


def test_verify_bounds_gauss(gauss200):
    seq = spectral_sequence(gauss200, N=40)
    W = validate_system(gauss200).W
    r = enclosing_radius(gauss200)
    report = verify_bounds(seq, BoundProfile(W, r, 1))
    assert report.all_pass
    assert all(w.passed for w in report.weyl)
    assert len(report.weyl) == 10


def test_verify_bounds_zero_system(zero_weight):
    seq = spectral_sequence(zero_weight, N=8)
    report = verify_bounds(seq, BoundProfile(0.0, 0.5, 1))
    assert report.all_pass


def test_verify_bounds_flags_violation():
    # synthetic sequence too big for the profile: must be reported, not hidden
    seq = EigenvalueSequence((2.0 + 0.0j, 1.5 + 0.0j), 2)
    report = verify_bounds(seq, BoundProfile(0.1, 0.5, 1))
    assert not report.all_pass
    assert not report.rows[0].passed


def test_weyl_rows_use_products():
    # row n compares prod_{k<=n} |lambda_k| against n^(n/2) W^n r^(sum t)
    seq = EigenvalueSequence((0.9 + 0.0j, 0.5 + 0.0j, 0.1 + 0.0j), 3)
    p = BoundProfile(1.0, 0.5, 1)
    report = verify_bounds(seq, p)
    assert len(report.weyl) == 3        # one row per eigenvalue, up to 10
    want2 = 2.0 * 1.0 * 0.5  # n^(n/2) W^n r^(0+1) at n = 2
    assert report.weyl[1].product == pytest.approx(0.45, rel=1e-14)
    assert report.weyl[1].bound == pytest.approx(want2, rel=1e-14)


# ---------------------------------------------------------------------------
# tables and CSV


def test_bound_table_profile_only():
    rows = bound_table(BoundProfile(1.0, 0.5, 3), 6)
    assert len(rows) == 6
    assert all(row.abs_lambda is None for row in rows)
    assert all(row.bound_d1 is None for row in rows)   # d = 3
    assert all(row.passed is None for row in rows)


def test_bounds_csv_format():
    rows = bound_table(BoundProfile(1.0, 0.5, 1), 3)
    text = bounds_csv_text(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "n,abs_lambda,bound_d1,bound_general,bound_hardy,bound_combined,pass"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == ""                # no eigenvalue data in a bare table
    assert first[-1] == ""
    assert float(first[3]) == bound_general(BoundProfile(1.0, 0.5, 1), 1)


def test_bounds_csv_pass_column(affine_half):
    seq = spectral_sequence(affine_half, N=16)
    prof = BoundProfile(1.0, 0.5, 1)
    report = verify_bounds(seq, prof)
    text = bounds_csv_text(report.rows)
    body = text.strip().split("\n")[1:]
    assert body[0].split(",")[-1] == "true"
