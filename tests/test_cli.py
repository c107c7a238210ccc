"""Command-line front end: exit codes, output files, determinism."""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import transferspec
from transferspec import _parallel, cli, crossover_N, spectra
from transferspec.cli import main

try:
    import tomllib
except ModuleNotFoundError:     # Python 3.10: pytest depends on tomli there
    import tomli as tomllib

AFFINE_CFG = {
    "system": {
        "family": "affine_list",
        "params": [{"a": 0.5, "b": 0.3, "weight": 1.0}],
        "domain": {"center": [0.6, 0.0], "radius": 1.0, "dim": 1},
    },
}


def continued_fraction_cfg(shifts):
    """Branches 1/(e + z) for e in shifts, weights -T', on the disc
    (1, 1.5)."""
    return {
        "system": {
            "family": "moebius_list",
            "params": [
                {"a": 0.0, "b": 1.0, "c": 1.0, "e": float(e),
                 "weight": "neg_derivative"}
                for e in shifts
            ],
            "domain": {"center": [1.0, 0.0], "radius": 1.5, "dim": 1},
        },
    }


GAUSS4_CFG = continued_fraction_cfg((1, 2, 3, 4))

# three letters with complex coefficients, whose terms cancel, so each
# order's every-word fold runs in complex arithmetic
THREE_LETTER_CFG = {
    "system": {
        "family": "moebius_list",
        "params": [
            {"a": [0.4, 0.1], "b": 0.1, "c": [0.3, -0.2], "e": 2.0,
             "weight": "derivative"},
            {"a": [0.2, -0.3], "b": [0.3, 0.1], "c": [0.25, 0.15], "e": 1.8,
             "weight": "neg_derivative"},
            {"a": [0.1, 0.05], "b": -0.2, "c": [0.0, 0.1], "e": 2.2,
             "weight": "derivative"},
        ],
        "domain": {"center": [0.1, 0.05], "radius": 1.0, "dim": 1},
    },
}

GAUSS_PRESET_CFG = {
    "system": {
        "family": "gauss",
        "i_max": 200,
        "domain": {"center": [1.0, 0.0], "radius": 1.5, "dim": 1},
    },
}

IDENTITY_CFG = {
    "system": {
        "family": "affine_list",
        "params": [{"a": 1.0, "b": 0.0, "weight": 1.0}],
        "domain": {"center": [0.0, 0.0], "radius": 1.0, "dim": 1},
    },
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# exit codes


def test_validate_gauss_preset_ok(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GAUSS_PRESET_CFG)
    assert main(["validate", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert out["images_compactly_contained"] is True
    assert out["contraction"]["value"] < 1.0
    assert out["W"] <= math.pi ** 2 / 2 + 1e-12
    assert 0.6 < out["enclosing_radius"] < 0.7


def test_validate_identity_fails(tmp_path, capsys):
    cfg = write_cfg(tmp_path, IDENTITY_CFG)
    assert main(["validate", "--config", cfg]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False


def test_validate_pole_on_circle_is_error(tmp_path, capsys):
    # the branch 1/(z + 0.5) has its pole -0.5 on the boundary circle
    cfg = write_cfg(tmp_path, {
        "system": {"family": "moebius_list",
                   "params": [{"a": 0.0, "b": 1.0, "c": 1.0, "e": 0.5,
                               "weight": 1.0}],
                   "domain": {"center": [1.0, 0.0], "radius": 1.5,
                              "dim": 1}},
        "contraction_order": 1,
    })
    assert main(["validate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_validate_pole_inside_disc_is_error(tmp_path, capsys):
    # the pole -0.5 of 1/(z + 0.5) lies inside |z - 1| < 2: the closed-form
    # sups are infinite, which no output file can hold, so validate and
    # bounds stop with an error naming the branch
    cfg = write_cfg(tmp_path, {
        "system": {"family": "moebius_list",
                   "params": [{"a": 0.0, "b": 1.0, "c": 1.0, "e": 0.5,
                               "weight": "neg_derivative"}],
                   "domain": {"center": [1.0, 0.0], "radius": 2.0,
                              "dim": 1}},
        "contraction_order": 1,
    })
    assert main(["validate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "pole of branch 1 on or inside the closed ball" in captured.err
    assert main(["bounds", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the sups are not finite: pole of branch "
                            "1 on or inside the closed ball\n")


_POLE_INSIDE_CFG = {"system": {
    "family": "moebius_list",
    "params": [{"a": 0.0, "b": 1.0, "c": 1.0, "e": e,
                "weight": "neg_derivative"} for e in (0.5, 3.0)],
    "domain": {"center": [0.0, 0.0], "radius": 1.0, "dim": 1}}}

_ESCAPE_CFG = {"system": {
    "family": "affine_list",
    "params": [{"a": -0.9, "b": 0.1995, "weight": 1.0},
               {"a": -0.9, "b": 0.0, "weight": 1.0}],
    "domain": {"center": [0.0, 0.0], "radius": 1.0, "dim": 1}}}


@pytest.mark.parametrize("payload, line", [
    (_POLE_INSIDE_CFG, "the sups are not finite: pole of branch 1 on or "
                       "inside the closed ball"),
    (_ESCAPE_CFG, "branch images reach 1.0995 >= radius 1 (r = 1.0995)"),
    (IDENTITY_CFG, "branch images reach 1 >= radius 1 (r = 1)")],
    ids=["pole-inside", "image-outside", "identity"])
def test_spectrum_refuses_what_bounds_refuses(tmp_path, capsys, payload,
                                              line):
    # the operator is only defined on a ball that each branch maps inside
    # itself: spectrum and determinant run the check bounds runs before
    # they assemble or trace anything (determinant in trace_table), with
    # the same error line and no file, so no trace failure (the identity's
    # multiplier 1) is reported instead
    cfg = write_cfg(tmp_path, payload)
    out_dir = tmp_path / "results"
    for command in ("spectrum", "bounds", "determinant"):
        assert main([command, "--config", cfg, "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {line}\n"
    assert not out_dir.exists()


def test_pole_inside_is_one_line_in_every_subcommand(tmp_path, capsys):
    # every subcommand checks admission first, finite sups before the
    # enclosing ratio, so one fault reads the same in all four; determinant
    # checks it in trace_table
    cfg = write_cfg(tmp_path, _POLE_INSIDE_CFG)
    errs = []
    for command in ("validate", "spectrum", "bounds", "determinant"):
        assert main([command, "--config", cfg]) == 1
        errs.append(capsys.readouterr().err)
    assert errs == [errs[0]] * 4 and errs[0].startswith("error: the sups")


def test_near_rotation_is_admitted_and_its_word_refused(tmp_path, capsys):
    # z -> (1 - 1e-12) z maps the unit disc into a smaller disc, so the
    # system is admitted and spectrum runs, but the determinant route
    # refuses its word's multiplier
    cfg = write_cfg(tmp_path, {"system": {
        "family": "affine_list",
        "params": [{"a": 1.0 - 1e-12, "b": 0.0, "weight": 1.0}],
        "domain": {"center": [0.0, 0.0], "radius": 1.0, "dim": 1}}})
    assert main(["spectrum", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""
    assert main(["determinant", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: word (1,) has multiplier of modulus >= "
                            "1 - 1e-9, so z* does not attract\n")


def test_eigensolver_failure_is_one_error_line(tmp_path, capsys,
                                              monkeypatch):
    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fails)
    assert main(["spectrum", "--config", write_cfg(tmp_path, AFFINE_CFG)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: dense eigensolver failed: Eigenvalues did "
                            "not converge\n")


_FAR_DISC = {"center": [0.0, 1e308], "radius": 1e308, "dim": 1}


@pytest.mark.parametrize("system", [
    {"family": "gauss", "i_max": 200, "domain": _FAR_DISC},
    {"family": "moebius_list", "domain": _FAR_DISC,
     "params": [{"a": 0.0, "b": 1.0, "c": 1.0, "e": 2.0,
                 "weight": "neg_derivative"}]},
    {"family": "gauss", "i_max": 5,
     "domain": {"center": [1e300, 0.0], "radius": 1.0, "dim": 1}},
], ids=["gauss-far-disc", "moebius-far-disc", "gauss-far-centre"])
@pytest.mark.parametrize("command", ["validate", "spectrum", "bounds",
                                     "determinant"])
def test_far_out_domain_is_one_error_line(tmp_path, capsys, system,
                                          command):
    # a disc near the top of the double range: its pole window, reaches
    # and gaps overflow, and are refused with one error line, no traceback
    # and no numpy warning (the suite runs with error::RuntimeWarning)
    cfg = write_cfg(tmp_path, {"system": system})
    assert main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_far_out_centre_validates_without_warnings(tmp_path, capsys):
    # 1/(2 + z) on the unit disc about 1e300: its image disc and the
    # direction of its pole overflow, and validate reports the images not
    # contained, with no numpy warning
    cfg = write_cfg(tmp_path, {"system": {
        "family": "moebius_list",
        "params": [{"a": 0.0, "b": 1.0, "c": 1.0, "e": 2.0,
                    "weight": "neg_derivative"}],
        "domain": {"center": [1e300, 0.0], "radius": 1.0, "dim": 1}}})
    assert main(["validate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert captured.err == ""
    assert out["ok"] is False and out["enclosing_radius"] is None


_NON_FINITE = [("b", "NaN"), ("b", "Infinity"), ("weight", "-Infinity"),
               ("center", "[NaN, 0.0]"), ("radius", "Infinity"),
               ("a", "1e400")]


@pytest.mark.parametrize("where, text", _NON_FINITE,
                         ids=[f"{w}={t}" for w, t in _NON_FINITE])
@pytest.mark.parametrize("command",
                         ["validate", "spectrum", "determinant", "bounds"])
def test_non_finite_descriptor_number_is_usage_error(tmp_path, capsys,
                                                     where, text, command):
    # Python's json reads NaN, Infinity and -Infinity, and 1e400 overflows
    # to inf; each used to end in a traceback
    entry = {"a": "0.5", "b": "0.3", "weight": "1.0"}
    domain = {"center": "[0.6, 0.0]", "radius": "1.0", "dim": "1"}
    (entry if where in entry else domain)[where] = text
    params = ", ".join(f'"{k}": {v}' for k, v in entry.items())
    dom = ", ".join(f'"{k}": {v}' for k, v in domain.items())
    path = tmp_path / "cfg.json"
    path.write_text('{"system": {"family": "affine_list", "params": [{'
                    + params + '}], "domain": {' + dom + '}}}')
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert captured.out == ""


def test_missing_domain_is_usage_error(tmp_path, capsys):
    broken = {"system": {"family": "affine_list",
                         "params": [{"a": 0.5, "b": 0.3}]}}
    cfg = write_cfg(tmp_path, broken)
    assert main(["validate", "--config", cfg]) == 2


def test_unknown_config_key_is_usage_error(tmp_path):
    payload = dict(AFFINE_CFG)
    payload["matrix_sizes"] = 32  # typo must be caught, not ignored
    cfg = write_cfg(tmp_path, payload)
    assert main(["spectrum", "--config", cfg]) == 2


def test_config_keys_are_the_run_config_fields():
    assert cli._CONFIG_KEYS == {
        "system", "profile", "matrix_size", "trace_order", "word_budget",
        "agreement_tol", "margin", "contraction_order", "grid", "threads",
        "out_dir"}


_NUMERIC_KEYS = ("matrix_size", "trace_order", "word_budget",
                 "agreement_tol", "margin", "contraction_order", "grid",
                 "threads")


@pytest.mark.parametrize("key", _NUMERIC_KEYS)
@pytest.mark.parametrize("value", ["x", [1], True, "12"],
                         ids=["str", "list", "bool", "numeric-str"])
def test_malformed_numeric_config_value_is_usage_error(tmp_path, capsys,
                                                       key, value):
    cfg = write_cfg(tmp_path, dict(AFFINE_CFG, **{key: value}))
    assert main(["spectrum", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert f"bad config value for {key}" in captured.err
    assert captured.out == ""


_INT_KEYS = ("matrix_size", "trace_order", "word_budget",
             "contraction_order", "grid", "threads")


@pytest.mark.parametrize("key", _INT_KEYS)
def test_fractional_integer_config_value_is_usage_error(tmp_path, capsys,
                                                        key):
    # 12.9 used to run silently at 12
    cfg = write_cfg(tmp_path, dict(AFFINE_CFG, **{key: 12.9}))
    assert main(["spectrum", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert f"config error: bad config value for {key}" in captured.err
    assert "expected an integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", [5, True, []], ids=["int", "bool", "list"])
def test_non_string_out_dir_is_usage_error(tmp_path, capsys, value):
    # refused before any work, not by a traceback after stdout is written
    cfg = write_cfg(tmp_path, dict(AFFINE_CFG, out_dir=value))
    assert main(["spectrum", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: out_dir must be a string")
    assert captured.out == ""


def test_integral_float_config_value_is_accepted(tmp_path):
    cfg = write_cfg(tmp_path, dict(AFFINE_CFG, matrix_size=12.0))
    args = cli.build_parser().parse_args(["spectrum", "--config", cfg])
    assert cli._resolve_config(args).matrix_size == 12


def test_null_config_values_mean_defaults(tmp_path):
    cfg = write_cfg(tmp_path, dict(AFFINE_CFG,
                                   **{k: None for k in _NUMERIC_KEYS}))
    args = cli.build_parser().parse_args(["spectrum", "--config", cfg])
    assert cli._resolve_config(args) == cli.RunConfig(
        system=AFFINE_CFG["system"])


def test_missing_config_file_is_usage_error(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2


def test_unparsable_config_is_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", "--config", str(path)]) == 2


def test_bad_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--threads", "2"],
    ["bounds", "--word-budget", "10"],
    ["validate", "--matrix-size", "16"],
    ["validate", "--trace-order", "3"],
])
def test_flag_a_subcommand_does_not_read_is_usage_error(tmp_path, argv,
                                                        capsys):
    cfg = write_cfg(tmp_path, AFFINE_CFG)
    assert main(argv + ["--config", cfg]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_command_without_system_is_usage_error():
    assert main(["spectrum"]) == 2


def test_matrix_size_floor(tmp_path):
    cfg = write_cfg(tmp_path, AFFINE_CFG)
    assert main(["spectrum", "--config", cfg, "--matrix-size", "3"]) == 2


def test_bounds_with_system_and_profile_rejected(tmp_path):
    payload = dict(AFFINE_CFG)
    payload["profile"] = {"W": 1.0, "r": 0.5, "d": 1}
    cfg = write_cfg(tmp_path, payload)
    assert main(["bounds", "--config", cfg]) == 2


def test_bounds_without_inputs_rejected():
    assert main(["bounds"]) == 2


@pytest.mark.parametrize("key, value, line", [
    ("trace_order", 0, "trace_order must be >= 1"),
    ("word_budget", 0, "word_budget must be >= 1"),
    ("agreement_tol", 0.0, "agreement_tol must be positive"),
    ("margin", 0.0, "margin must lie in (0, 1)"),
    ("margin", 1.0, "margin must lie in (0, 1)"),
    ("contraction_order", 0, "contraction_order must be >= 1"),
    ("grid", 7, "grid must be >= 8"),
    ("threads", 0, "threads must be >= 1"),
], ids=["trace_order", "word_budget", "agreement_tol", "margin-0",
        "margin-1", "contraction_order", "grid", "threads"])
def test_config_value_out_of_range_is_usage_error(tmp_path, capsys, key,
                                                  value, line):
    # refused when the config is read, before any system is built
    cfg = write_cfg(tmp_path, dict(AFFINE_CFG, **{key: value}))
    assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr() == ("", f"config error: {line}\n")


@pytest.mark.parametrize("command, payload, line", [
    ("spectrum", [AFFINE_CFG], "config root must be a JSON object"),
    ("spectrum", {"system": [1]}, "config key 'system' must be an object"),
    ("bounds", {"profile": 0.5}, "config key 'profile' must be an object"),
    ("bounds", {"profile": {"r": 0.5}}, "bad bound profile: 'W'"),
    ("bounds", {"profile": {"W": 1.0, "r": 1.0}},
     "bad bound profile: r must lie in (0, 1), got 1.0"),
    ("bounds", {"profile": {"W": 1.0, "r": 0.0}},
     "bad bound profile: r must lie in (0, 1), got 0.0"),
], ids=["root", "system", "profile", "profile-without-W", "profile-r-1",
        "profile-r-0"])
def test_config_of_the_wrong_shape_is_usage_error(tmp_path, capsys, command,
                                                  payload, line):
    cfg = write_cfg(tmp_path, payload)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr() == ("", f"config error: {line}\n")


_UNIT_DOMAIN = {"center": [0.0, 0.0], "radius": 1.0, "dim": 1}


@pytest.mark.parametrize("system, line", [
    ({"family": "affine_list", "params": [{"a": 0.5, "b": 0.0}],
      "domain": [0.0, 1.0]}, "descriptor: 'domain' must be an object"),
    ({"family": "affine_list", "params": [{"a": 0.5, "b": 0.0}],
      "domain": {"center": [0.0, 0.0], "dim": 1}},
     "descriptor: domain is missing 'radius'"),
    ({"family": "gauss", "domain": _UNIT_DOMAIN},
     "gauss descriptor needs 'i_max'"),
    ({"family": "affine_list", "params": [], "domain": _UNIT_DOMAIN},
     "affine_list descriptor needs a non-empty 'params' list"),
    ({"family": "moebius_list", "params": [[0.0, 1.0, 1.0, 2.0]],
      "domain": _UNIT_DOMAIN}, "params[0]: expected an object"),
    ({"family": "moebius_list", "domain": _UNIT_DOMAIN,
      "params": [{"a": 0.0, "b": 1.0, "c": 1.0}]},
     "params[0]: missing coefficient 'e'"),
    ({"family": "affine_list", "domain": _UNIT_DOMAIN,
      "params": [{"a": 10 ** 400, "b": 0.0}]},
     f"params[0]: expected a finite number or [re, im], got {10 ** 400!r}"),
], ids=["domain-not-object", "domain-without-radius", "gauss-without-i_max",
        "empty-params", "entry-not-object", "missing-coefficient",
        "int-past-float-range"])
def test_malformed_descriptor_is_usage_error(tmp_path, capsys, system,
                                             line):
    cfg = write_cfg(tmp_path, {"system": system})
    assert main(["spectrum", "--config", cfg]) == 2
    assert capsys.readouterr() == ("", f"config error: {line}\n")


def test_crossover_out_of_range_rejected():
    assert main(["bounds", "--crossover", "1.5", "1"]) == 2


# ---------------------------------------------------------------------------
# spectrum output


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_spectrum_affine_rows(tmp_path, capsys):
    cfg = write_cfg(tmp_path, AFFINE_CFG)
    assert main(["spectrum", "--config", cfg, "--matrix-size", "16"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header == ["n", "re", "im", "abs", "reliable"]
    # values come from the refined 2N discretization
    assert len(rows) == 32
    for k, row in enumerate(rows[:16]):
        assert int(row[0]) == k + 1
        assert abs(float(row[3]) - 0.5 ** k) < 1e-10
        assert row[4] == "true"
    assert rows[16][4] == "false"


def test_spectrum_writes_file_matching_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, AFFINE_CFG)
    out_dir = tmp_path / "results"
    assert main(["spectrum", "--config", cfg, "--matrix-size", "8",
                 "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    files = list(out_dir.glob("spectrum-*.csv"))
    assert len(files) == 1
    assert files[0].read_text() == text


# ---------------------------------------------------------------------------
# determinant output


def test_determinant_gauss4_cross_check(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GAUSS4_CFG)
    out_dir = tmp_path / "results"
    assert main(["determinant", "--config", cfg, "--trace-order", "8",
                 "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    out = json.loads(text)
    assert out["orders"] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert len(out["coeffs_re"]) == 9
    cc = out["cross_check"]
    assert cc["agree"] is True
    assert cc["count"] >= 1
    assert cc["max_abs_diff"] <= cc["tol"]
    # leading eigenvalue of the four-branch system, matrix route vs zeros
    assert out["eigenvalues_re"][0] == pytest.approx(0.7253979326, abs=1e-6)
    files = list(out_dir.glob("determinant-*.json"))
    assert len(files) == 1
    assert files[0].read_text() == text


def test_determinant_thread_count_does_not_change_bytes(tmp_path, capsys):
    # at order 8 the cross-check compares two eigenvalues
    cfg = write_cfg(tmp_path, GAUSS4_CFG)
    assert main(["determinant", "--config", cfg, "--trace-order", "8",
                 "--threads", "1"]) == 0
    one = capsys.readouterr().out
    assert main(["determinant", "--config", cfg, "--trace-order", "8",
                 "--threads", "4"]) == 0
    four = capsys.readouterr().out
    assert one == four
    assert json.loads(one)["cross_check"]["count"] >= 1


@pytest.mark.parametrize("payload, argv", [
    (dict(GAUSS4_CFG, contraction_order=9), ["validate"]),
    (GAUSS4_CFG, ["determinant", "--trace-order", "10"]),
    (THREE_LETTER_CFG, ["determinant", "--trace-order", "9"]),
    (THREE_LETTER_CFG, ["determinant", "--trace-order", "11"]),
    (continued_fraction_cfg((1, 2)), ["determinant", "--trace-order", "20"]),
    (continued_fraction_cfg((1, 2, 3, 4, 5)),
     ["determinant", "--trace-order", "8"]),
], ids=["gauss4-validate-9", "gauss4-determinant-10", "three-letter-9",
        "three-letter-11", "two-letter-20", "five-letter-8"])
def test_cli_runs_start_no_thread_pool(tmp_path, capsys, monkeypatch,
                                       payload, argv):
    # every system the CLI builds is a Moebius system, walked in closed
    # form on the calling thread: --threads 2 starts no pool and changes no
    # byte, for a contraction over 4^9 words, for trace orders over 4^10,
    # 3^11, 2^20 and 5^8 words, and where the terms cancel
    pools = []
    real = _parallel.ThreadPoolExecutor

    def spy(*args, **kwargs):
        pools.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", spy)
    cfg = write_cfg(tmp_path, payload)
    runs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"results-{threads}"
        code = main(argv + ["--config", cfg, "--threads", threads,
                            "--out", str(out_dir)])
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        runs.append((code, capsys.readouterr(), files))
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][2]
    assert pools == []


def test_determinant_cross_check_over_nothing_is_no_verdict(tmp_path,
                                                            capsys):
    # at order 5 no determinant zero counts as reliable, so the check
    # compares nothing: it must neither agree nor exit 0
    cfg = write_cfg(tmp_path, GAUSS4_CFG)
    assert main(["determinant", "--config", cfg, "--trace-order", "5"]) == 1
    text = capsys.readouterr().out
    assert json.loads(text)["cross_check"] == {
        "count": 0, "max_abs_diff": 0.0, "tol": 1e-6, "agree": None}
    assert '"agree": null' in text


def test_determinant_at_order_one_is_no_verdict(tmp_path, capsys):
    # a degree-1 determinant certifies no zero, so nothing is compared
    cfg = write_cfg(tmp_path, AFFINE_CFG)
    assert main(["determinant", "--config", cfg, "--trace-order", "1"]) == 1
    text = capsys.readouterr().out
    assert json.loads(text)["cross_check"]["count"] == 0
    assert '"agree": null' in text


def test_determinant_refuses_gauss_preset(tmp_path, capsys):
    # the word sum needs a finite alphabet: no result file, no verdict
    cfg = write_cfg(tmp_path, dict(GAUSS_PRESET_CFG, trace_order=2))
    out_dir = tmp_path / "results"
    assert main(["determinant", "--config", cfg, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the determinant route needs a "
                                   "finite alphabet")
    assert not list(out_dir.glob("determinant-*.json"))


def _heavy_cfg(tmp_path, weight):
    """Three branches z -> -0.5 z + b on the unit disc, each of weight
    weight."""
    return write_cfg(tmp_path, {"system": {
        "family": "affine_list",
        "params": [{"a": -0.5, "b": b, "weight": weight}
                   for b in (0.0, 0.1, -0.1)],
        "domain": {"center": [0.0, 0.0], "radius": 1.0, "dim": 1}}})


def _big_cfg(tmp_path):
    """Two branches z -> z/2 +- 0.1 on the unit disc, each of weight 5e307:
    W = 1e308 is a double, so the system is admitted, but its order-1
    trace 2e308 and its matrix's transforms are not."""
    return write_cfg(tmp_path, {"system": {
        "family": "affine_list",
        "params": [{"a": 0.5, "b": b, "weight": 5e307} for b in (0.1, -0.1)],
        "domain": {"center": [0.0, 0.0], "radius": 1.0, "dim": 1}}})


@pytest.mark.parametrize("threads", ["1", "2"])
def test_determinant_trace_past_the_double_range_is_an_error(tmp_path,
                                                             capsys,
                                                             threads):
    # two order-1 terms of 5e307 / 0.5 sum to 2e308: an error line that
    # names the order, not an overflow traceback, and no result file
    cfg = _big_cfg(tmp_path)
    out_dir = tmp_path / "results"
    assert main(["determinant", "--config", cfg, "--trace-order", "2",
                 "--threads", threads, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the order-1 trace lies past the double "
                            "range\n")
    assert not list(out_dir.glob("determinant-*.json"))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_determinant_trace_with_a_term_that_is_not_finite_is_an_error(
        tmp_path, capsys, threads):
    # with weights of 1e200 order 1 is finite but order 2's weight
    # products overflow: an error line that names the order, not a NaN
    # trace that ends in a formatting traceback, and no result file
    cfg = _heavy_cfg(tmp_path, 1e200)
    out_dir = tmp_path / "results"
    assert main(["determinant", "--config", cfg, "--trace-order", "3",
                 "--threads", threads, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the order-2 trace has a term that is not "
                            "finite\n")
    assert not list(out_dir.glob("determinant-*.json"))


@pytest.mark.parametrize("command", ["spectrum", "bounds"])
def test_matrix_past_the_double_range_is_an_error(tmp_path, capsys, command):
    # the system is admitted, but the transforms of its samples overflow:
    # one error line naming the assembled size, not numpy's overflow
    # warnings and an eigensolver failure (the suite runs with
    # error::RuntimeWarning)
    cfg = _big_cfg(tmp_path)
    assert main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the 64 x 64 matrix has an entry that is "
                            "not finite\n")


@pytest.mark.parametrize("command", ["validate", "bounds", "determinant"])
def test_weight_sup_past_the_double_range_is_an_error(tmp_path, capsys,
                                                       command):
    # three weight sups of 1e308 sum past the largest double: one error
    # line, not an fsum overflow traceback, for bounds no ValueError from
    # a bound profile of infinite W, and for determinant before its traces
    cfg = _heavy_cfg(tmp_path, 1e308)
    assert main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the sups are not finite: weight sup past "
                            "the double range\n")


def test_bounds_weyl_product_past_the_double_range_is_an_error(tmp_path,
                                                                capsys):
    # with weights of 1e200 W is finite, but the product of the two
    # leading eigenvalue moduli, and the Weyl bound, are not doubles
    cfg = _heavy_cfg(tmp_path, 1e200)
    assert main(["bounds", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the Weyl product at n = 2 lies past the "
                            "double range\n")


def test_bounds_profile_past_the_double_range_is_an_error(tmp_path, capsys):
    # W / r^d = 1e330 overflows, so bound_general is infinite from n = 1:
    # one error line, not a formatting traceback, and no file
    cfg = write_cfg(tmp_path, {"profile": {"W": 1e300, "r": 1e-10, "d": 3}})
    out_dir = tmp_path / "results"
    assert main(["bounds", "--config", cfg, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bound_general at n = 1 lies past the "
                            "double range\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("a, radius, refused, line", [
    (1e-200, 1e-200, ("bounds",),
     "no bound profile: r must lie in (0, 1), got 0.0"),
    (0.5, 1e-310, ("spectrum", "determinant", "bounds"),
     "the 64 x 64 matrix has an entry that is not finite"),
], ids=["ratio-underflows", "subnormal-radius"])
def test_tiny_disc_is_refused_with_one_error_line(tmp_path, capsys, a,
                                                  radius, refused, line):
    # z -> a z on a disc about 0 so small that its image reach underflows
    # to a ratio of 0, which has no bound profile, or of a subnormal
    # radius, whose samples (T(z) - c) / rho overflow: admitted, so
    # validate exits 0, and each refusal is one line, not a traceback or
    # numpy warnings
    cfg = write_cfg(tmp_path, {"system": {
        "family": "affine_list",
        "params": [{"a": a, "b": 0.0, "weight": 1.0}],
        "domain": {"center": [0.0, 0.0], "radius": radius, "dim": 1}}})
    for command in ("validate", "spectrum", "determinant", "bounds"):
        code = main([command, "--config", cfg])
        captured = capsys.readouterr()
        if command in refused:
            assert (code, captured.out) == (1, "")
            assert captured.err == f"error: {line}\n"
        else:
            assert (code, captured.err) == (0, "")


def test_gauss_centre_far_out_is_an_error(tmp_path, capsys):
    # the pole test looks only near -Re c, so a centre of 1e15 is refused
    # by its image reach at once, rather than after 10^15 pole tests
    cfg = write_cfg(tmp_path, {"system": {
        "family": "gauss", "i_max": 200,
        "domain": {"center": [1e15, 0.0], "radius": 1.5, "dim": 1}}})
    assert main(["validate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: branch images reach 1e+15 from the "
                            "center; not strictly inside radius 1.5\n")


# ---------------------------------------------------------------------------
# bounds output


def test_bounds_system_verifies(tmp_path, capsys):
    cfg = write_cfg(tmp_path, AFFINE_CFG)
    out_dir = tmp_path / "results"
    assert main(["bounds", "--config", cfg, "--matrix-size", "12",
                 "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    lines = text.strip().split("\n")
    assert lines[0].startswith("n,abs_lambda,")
    assert lines[-1].startswith("# ")
    summary = json.loads(lines[-1][2:])
    assert summary["all_pass"] is True
    assert summary["profile"]["d"] == 1
    assert len(summary["weyl"]) == 10
    assert all(w["pass"] for w in summary["weyl"])
    files = list(out_dir.glob("bounds-*.csv"))
    assert len(files) == 1
    assert files[0].read_text() == text


def test_bounds_profile_only_table(tmp_path, capsys):
    payload = {"profile": {"W": 1.0, "r": 0.5, "d": 3}}
    cfg = write_cfg(tmp_path, payload)
    out_dir = tmp_path / "results"
    assert main(["bounds", "--config", cfg, "--matrix-size", "12",
                 "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    lines = text.strip().split("\n")
    summary = json.loads(lines[-1][2:])
    assert summary["profile"] == {"W": 1.0, "r": 0.5, "d": 3}
    assert "all_pass" not in summary
    _, rows = parse_csv("\n".join(lines[:-1]))
    assert len(rows) == 12
    assert all(row[1] == "" and row[-1] == "" for row in rows)
    assert (out_dir / "bounds-profile.csv").read_text() == text


def test_boolean_profile_value_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"profile": {"W": 1.0, "r": 0.5, "d": True}})
    assert main(["bounds", "--config", cfg]) == 2
    assert "bad bound profile" in capsys.readouterr().err
    # a fractional d used to run silently at d = 1; an integral one runs
    cfg = write_cfg(tmp_path, {"profile": {"W": 1.0, "r": 0.5, "d": 1.5}})
    assert main(["bounds", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "bad bound profile: d must be an integer" in captured.err
    assert captured.out == ""
    cfg = write_cfg(tmp_path, {"profile": {"W": 1.0, "r": 0.5, "d": 2.0}})
    assert main(["bounds", "--config", cfg]) == 0
    assert '"d": 2}' in capsys.readouterr().out


@pytest.mark.parametrize("key, value", [("W", "1.5"), ("r", "0.5"),
                                        ("d", "2")])
def test_string_profile_value_is_usage_error(tmp_path, capsys, key, value):
    # "d": "2" used to run at d = 2; a string is not a JSON number
    profile = dict({"W": 1.0, "r": 0.5, "d": 1}, **{key: value})
    cfg = write_cfg(tmp_path, {"profile": profile})
    assert main(["bounds", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "bad bound profile: W, r and d must be numbers" in captured.err
    assert captured.out == ""


def test_bounds_crossover_flag(tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["bounds", "--crossover", "0.9", "1",
                 "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("# ")
    summary = json.loads(text[2:])
    assert summary["crossover"]["crossover_N"] == 5
    assert not out_dir.exists()  # no table, nothing written


@pytest.mark.parametrize("r, d, refused", [
    # the threshold's estimated size decides at r = 0.5: 8,161 bits are
    # printed, 8,280 are refused. D = 3000, which ran past a minute, and
    # a D past the float range are refused by their exact power first
    ("0.5", 132, None),
    ("0.5", 133, "the threshold has about 8280 bits, more than 8192"),
    ("0.5", 3000, "(1 - r^2)^(d^2) takes 27000000 bits exactly, more than "
                  "1048576"),
    ("0.5", 10 ** 400, f"(1 - r^2)^(d^2) takes {3 * 10 ** 800} bits "
                       "exactly, more than 1048576"),
    # the exact power decides at a small r: its threshold is small, but
    # 1 - r^2 is a fraction of 139 bits, and raised to d^2 it takes
    # 1,028,044 bits at d = 86
    ("1e-05", 86, None),
    ("1e-05", 87, "(1 - r^2)^(d^2) takes 1052091 bits exactly, more than "
                  "1048576"),
], ids=["0.5-132", "0.5-133", "0.5-3000", "0.5-1e400", "1e-05-86",
        "1e-05-87"])
def test_bounds_crossover_size_is_bounded(capsys, r, d, refused):
    code = main(["bounds", "--crossover", r, str(d)])
    captured = capsys.readouterr()
    if refused is None:
        assert code == 0
        summary = json.loads(captured.out[2:])
        assert summary["crossover"]["crossover_N"] == crossover_N(float(r), d)
    else:
        assert code == 2 and captured.out == ""
        assert captured.err == ("config error: bad --crossover arguments: "
                                f"{refused}\n")


def test_bounds_crossover_combines_with_profile(tmp_path, capsys):
    payload = {"profile": {"W": 1.0, "r": 0.9, "d": 1}}
    cfg = write_cfg(tmp_path, payload)
    assert main(["bounds", "--config", cfg, "--matrix-size", "6",
                 "--crossover", "0.9", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    summary = json.loads(lines[-1][2:])
    assert summary["crossover"]["crossover_N"] == 5
    assert summary["profile"]["r"] == 0.9


# ---------------------------------------------------------------------------
# determinism and the installed entry point


def test_rerun_is_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, AFFINE_CFG)
    assert main(["spectrum", "--config", cfg]) == 0
    first = capsys.readouterr().out
    assert main(["spectrum", "--config", cfg]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("size", [128, 81])
@pytest.mark.parametrize("center, radius", [(1.0, 1.5), (0.8, 1.2)],
                         ids=["disc-a", "disc-b"])
def test_spectrum_bytes_do_not_depend_on_blas_threads(tmp_path, center,
                                                      radius, size):
    # at size 81 the 2N refinement samples 325 points of the half circle:
    # four power-sum blocks of 81 columns and one left-over column, which
    # joins the last block
    if spectra._openblas_thread_calls() is None:
        pytest.skip("no OpenBLAS thread setter found; the eigenvalues' "
                    "last digits may follow the BLAS thread count")
    system = dict(GAUSS_PRESET_CFG["system"],
                  domain={"center": [center, 0.0], "radius": radius, "dim": 1})
    cfg = write_cfg(tmp_path, {"system": system})
    src = os.path.dirname(os.path.dirname(transferspec.__file__))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "transferspec.cli", "spectrum",
             "--config", cfg, "--matrix-size", str(size)],
            capture_output=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].count(b"\n") == 2 * size + 1     # header and 2N rows
    assert outs[0] == outs[1]


@pytest.mark.parametrize("center, radius", [(1.0, 1.5), (0.8, 1.2)],
                         ids=["disc-a", "disc-b"])
def test_gauss_spectrum_is_real_and_closed_under_conjugation(
        tmp_path, capsys, center, radius):
    # the Gauss operator's eigenvalues are real (Mayer-Roepstorff): every
    # resolved row has im exactly 0, and every complex value deeper down
    # has its exact conjugate among the values
    system = dict(GAUSS_PRESET_CFG["system"],
                  domain={"center": [center, 0.0], "radius": radius, "dim": 1})
    cfg = write_cfg(tmp_path, {"system": system})
    assert main(["spectrum", "--config", cfg, "--matrix-size", "128"]) == 0
    rows = [line.split(",") for line in
            capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 256
    values = [complex(float(re), float(im)) for _, re, im, _, _ in rows]
    assert all(v.imag == 0.0 for v in values[:35])
    off_axis = [v for v in values if v.imag != 0.0]
    assert Counter(off_axis) == Counter(v.conjugate() for v in off_axis)


@pytest.mark.parametrize("command, payload", [
    ("spectrum", GAUSS_PRESET_CFG), ("spectrum", GAUSS4_CFG),
    ("determinant", GAUSS4_CFG)], ids=["spectrum-gauss", "spectrum-gauss4",
                                      "determinant-gauss4"])
def test_spectrum_and_determinant_bytes_do_not_use_validation(
        tmp_path, capsys, monkeypatch, command, payload):
    # neither route reads a validation sup: both validate only to refuse
    # a system off its ball, so sups halved there leave these bytes as
    # they were
    cfg = write_cfg(tmp_path, dict(payload, trace_order=6))
    code = main([command, "--config", cfg])
    first = capsys.readouterr().out
    calls = []

    def halved(sups):
        def patched(*args, **kwargs):
            calls.append(sups.__name__)
            image, weight, *rest = sups(*args, **kwargs)
            return (image / 2, weight / 2, *rest)
        return patched

    for name in ("_exact_sups", "_sampled_sups"):
        monkeypatch.setattr(transferspec.systems, name,
                            halved(getattr(transferspec.systems, name)))
    assert main([command, "--config", cfg]) == code
    assert capsys.readouterr().out == first
    assert calls == ["_exact_sups"]


@pytest.mark.parametrize("command", ["validate", "spectrum", "determinant",
                                     "bounds"])
@pytest.mark.parametrize("payload", [GAUSS_PRESET_CFG, GAUSS4_CFG, AFFINE_CFG],
                         ids=["gauss", "gauss4", "affine"])
def test_descriptor_systems_take_the_closed_forms(tmp_path, capsys,
                                                  monkeypatch, command,
                                                  payload):
    # the subcommands read the coefficient array and the weight law: no
    # letter gather on maps, and no branch or weight map is even built
    order = 2 if payload is GAUSS_PRESET_CFG else 6   # within the budget
    cfg = write_cfg(tmp_path, dict(payload, trace_order=order))
    code = main([command, "--config", cfg])
    first = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("a map was gathered or built")

    monkeypatch.setattr(transferspec.systems.MapWeightSystem, "_gather",
                        refuse)
    monkeypatch.setattr(transferspec.systems.AnalyticMap, "__init__", refuse)
    again = main([command, "--config", cfg])
    captured = capsys.readouterr()
    if command == "determinant" and payload is GAUSS_PRESET_CFG:
        # the countable alphabet is refused before any word, so before any
        # map: the refusal itself is what there is to check
        assert (code, first, again, captured.out) == (1, "", 1, "")
        assert captured.err.startswith("error: the determinant route needs "
                                       "a finite alphabet")
    else:
        assert again == code
        assert captured.out == first


def _console_script_command():
    """The installed transferspec script, or else the entry point that
    pyproject.toml declares for it, run in a fresh interpreter that imports
    this same package."""
    exe = shutil.which("transferspec")
    if exe:
        return [exe], None
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts.get("transferspec") == "transferspec.cli:main"
    module, func = scripts["transferspec"].split(":")
    src = os.path.dirname(os.path.dirname(transferspec.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code], env


def test_console_script_smoke(tmp_path):
    command, env = _console_script_command()
    cfg = write_cfg(tmp_path, AFFINE_CFG)
    proc = subprocess.run(
        command + ["spectrum", "--config", cfg, "--matrix-size", "8"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,re,im,abs,reliable\n")
