"""End-to-end acceptance checks, one test per criterion.

Every criterion test prints a single "criterion N: PASS/FAIL (measured
...)" line to the live terminal before asserting, so a full run leaves a
ten-line scoreboard even under output capture. A last check guards the
public surface the criteria are written against.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

import transferspec
from oracles import (
    collocation_eigenvalues_finite,
    collocation_eigenvalues_gauss,
    product_poly_coeffs,
)
from transferspec import (
    BoundProfile,
    contraction_details,
    crossover_N,
    determinant_coefficients,
    determinant_zeros,
    enclosing_radius,
    make_ball,
    spectral_sequence,
    t_sequence,
    trace_table,
    validate_system,
    verify_bounds,
)
from transferspec.cli import main


def _report(capsys, n, ok, measured):
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} (measured {measured})")
    assert ok, f"criterion {n} failed: {measured}"


@pytest.fixture(scope="module")
def seq200(gauss200):
    return spectral_sequence(gauss200, N=40)


def test_criterion_01_affine_matrix_route(affine_half, capsys):
    seq = spectral_sequence(affine_half, N=32)
    assert seq.reliable_count >= 10
    err = max(abs(seq.values[k] - 0.5 ** k) for k in range(10))
    _report(capsys, 1, err <= 1e-10, f"max abs error {err:.3e} over k=0..9")


def test_criterion_02_affine_determinant_route(affine_half, capsys):
    table = trace_table(affine_half, 12)
    trace_err = max(abs(table.values[n - 1] - 1.0 / (1.0 - 0.5 ** n))
                    for n in table.orders)
    series = determinant_coefficients(table)
    coeffs = np.asarray(series.coefficients)
    # the exact coefficients come from the infinite product over 0.5^k;
    # 64 factors put the truncation far below working precision, while the
    # 21-factor cut differs from the limit by about 0.5^20, a property of
    # the product rather than of the computation (printed for the record)
    p_converged = product_poly_coeffs([0.5 ** k for k in range(64)])
    p_21 = product_poly_coeffs([0.5 ** k for k in range(21)])
    m = len(coeffs)
    gap = max(abs(coeffs - p_converged[:m]))
    gap21 = max(abs(coeffs - p_21[:m]))
    zeros = determinant_zeros(series)
    zero_err = max(abs(zeros.values[k] - 0.5 ** k) for k in range(3))
    ok = trace_err <= 1e-12 and gap <= 1e-10 and zero_err <= 1e-8
    _report(capsys, 2, ok,
            f"trace err {trace_err:.3e}, coeff err {gap:.3e} vs converged "
            f"product ({gap21:.3e} vs 21 factors), zero err {zero_err:.3e}")


def test_criterion_03_gauss_leading_eigenvalue(gauss200, seq200, capsys):
    # oracle first: the branch sum telescopes, so on the 200-branch system
    # sum_i h(1/(i+z))/(i+z)^2 + 1/(201+z) = h(z) for h(z) = 1/(1+z)
    zs = 1.0 + 1.2 * np.exp(2j * np.pi * np.arange(100) / 100)
    h = lambda z: 1.0 / (1.0 + z)
    acc = np.zeros_like(zs)
    for i in range(1, 201):
        acc += h(1.0 / (i + zs)) / (i + zs) ** 2
    oracle_err = float(max(abs(acc + 1.0 / (201.0 + zs) - h(zs))))
    assert oracle_err <= 1e-12

    err = abs(seq200.values[0] - 1.0)
    _report(capsys, 3, err <= 1e-10,
            f"|lambda_1 - 1| = {err:.3e}, telescoping oracle err "
            f"{oracle_err:.3e} at 100 points")


def test_criterion_04_second_eigenvalue_cross_method(gauss4, seq200, capsys):
    table = trace_table(gauss4, 10, word_budget=2_000_000)
    det_seq = determinant_zeros(determinant_coefficients(table))
    assert det_seq.reliable_count >= 2
    mat_seq = spectral_sequence(gauss4, N=32)
    assert mat_seq.reliable_count >= 2
    det_l2 = abs(det_seq.values[1])
    mat_l2 = abs(mat_seq.values[1])
    split = abs(det_l2 - mat_l2)

    coll = collocation_eigenvalues_finite([1.0, 2.0, 3.0, 4.0])
    coll_l2 = abs(coll[1])
    coll_gap = max(abs(det_l2 - coll_l2), abs(mat_l2 - coll_l2))

    full = collocation_eigenvalues_gauss()
    full_l2 = abs(full[1])
    full_gap = abs(abs(seq200.values[1]) - full_l2)

    ok = split <= 1e-7 and coll_gap <= 1e-6 and full_gap <= 1e-6
    _report(capsys, 4, ok,
            f"|lambda_2| determinant {det_l2:.12f} vs matrix {mat_l2:.12f}, "
            f"split {split:.3e}; collocation gap {coll_gap:.3e}; full-operator "
            f"|lambda_2| {full_l2:.8f} vs matrix, gap {full_gap:.3e}")


def test_criterion_05_universality(gauss200, seq200, capsys):
    other = spectral_sequence(gauss200, ball=make_ball(0.8, 1.2), N=40)
    assert other.reliable_count >= 5
    assert seq200.reliable_count >= 5
    diff = max(abs(seq200.values[k] - other.values[k]) for k in range(5))
    _report(capsys, 5, diff <= 1e-7,
            f"leading-5 disagreement across balls {diff:.3e}")


def test_criterion_06_bound_verification(gauss200, seq200, capsys):
    W = validate_system(gauss200).W
    r = enclosing_radius(gauss200)
    report = verify_bounds(seq200, BoundProfile(W, r, 1))
    checked = [row for row in report.rows if row.passed is not None]
    weyl10 = [w for w in report.weyl if w.n <= 10]
    ok = report.all_pass and all(w.passed for w in weyl10) and len(weyl10) == 10
    _report(capsys, 6, ok,
            f"W {W:.6f}, r {r:.6f}; {len(checked)} reliable eigenvalues and "
            f"{len(weyl10)} Weyl products all within bounds: {report.all_pass}")


def test_criterion_07_t_sequence_run_lengths(capsys):
    worst = None
    ok = True
    for d in range(1, 6):
        seq = t_sequence(d, 200)
        for k in range(max(seq)):
            run = sum(1 for t in seq if t == k)
            want = math.comb(k + d - 1, d - 1)
            if run != want:
                ok = False
                worst = (d, k, run, want)
    _report(capsys, 7, ok,
            "run lengths match binom(k+d-1, d-1) for d=1..5, n=200"
            if ok else f"mismatch at {worst}")


def test_criterion_08_crossover_monotonicity(capsys):
    rs = [round(0.1 * k, 1) for k in range(1, 10)]
    mono_r = all(crossover_N(a, d) <= crossover_N(b, d)
                 for d in range(1, 6) for a, b in zip(rs, rs[1:]))
    mono_d = all(crossover_N(r, d) <= crossover_N(r, d + 1)
                 for r in rs for d in range(1, 5))
    spot = crossover_N(0.9, 1)
    ok = mono_r and mono_d and spot == 5
    _report(capsys, 8, ok,
            f"non-decreasing in r: {mono_r}, in d: {mono_d}, N(0.9,1) = {spot}")


def test_criterion_09_contraction_example(gauss200, capsys):
    two = contraction_details(gauss200, 2)
    one = contraction_details(gauss200, 1)
    lo, hi = 4.0 / 9.0 - 1e-6, 4.0 / 9.0 + 1e-3
    ok = lo <= two.value <= hi and tuple(two.word) == (1, 1) and one.value >= 1.0
    _report(capsys, 9, ok,
            f"order-2 factor {two.value:.9f} (word {tuple(two.word)}), "
            f"order-1 factor {one.value:.6f}")


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_criterion_10_cli_thread_determinism(tmp_path, capsys):
    config = {
        "system": {
            "family": "moebius_list",
            "params": [{"a": 0.0, "b": 1.0, "c": 1.0, "e": float(i),
                        "weight": "neg_derivative"} for i in (1, 2, 3, 4)],
            "domain": {"center": [1.0, 0.0], "radius": 1.5, "dim": 1},
        },
        # at these sizes the determinant cross-check compares two
        # eigenvalues; a check over none exits 1
        "matrix_size": 32,
        "trace_order": 8,
    }
    commands = ["validate", "spectrum", "determinant", "bounds"]
    stable = True
    detail = []
    for cmd in commands:
        outputs = []
        files = []
        for tag, threads in (("a1", 1), ("b1", 1), ("c8", 8)):
            # the config key, which every subcommand accepts; only
            # validate and determinant take the --threads flag
            cfg_path = tmp_path / f"cfg-{tag}.json"
            cfg_path.write_text(json.dumps(dict(config, threads=threads)))
            out_dir = tmp_path / f"{cmd}-{tag}"
            code, text = _run_cli([cmd, "--config", str(cfg_path),
                                   "--out", str(out_dir)])
            assert code == 0, f"{cmd} exited {code}"
            outputs.append(text)
            emitted = sorted(out_dir.iterdir())
            assert len(emitted) == 1
            files.append(emitted[0].read_bytes())
        same = outputs[0] == outputs[1] == outputs[2] \
            and files[0] == files[1] == files[2]
        stable = stable and same
        detail.append(f"{cmd}: {'stable' if same else 'DIFFERS'}")
    _report(capsys, 10, stable, "; ".join(detail))


def test_public_names_resolve_once():
    # a name left in __all__ after its definition is gone breaks
    # "from transferspec import *"; a repeated name hides a stale entry
    names = transferspec.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(transferspec, name, None) is not None, name
