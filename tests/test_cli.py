"""Command-line front end: exit codes, output files, determinism."""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import transferspec
from transferspec import cli, spectra
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

GAUSS4_CFG = {
    "system": {
        "family": "moebius_list",
        "params": [
            {"a": 0.0, "b": 1.0, "c": 1.0, "e": float(i),
             "weight": "neg_derivative"}
            for i in (1, 2, 3, 4)
        ],
        "domain": {"center": [1.0, 0.0], "radius": 1.5, "dim": 1},
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
    assert captured.err.startswith("error: branch images reach inf")


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


def test_determinant_error_names_word_plainly(tmp_path, capsys):
    # the identity's only word has multiplier 1, so its fixed point does
    # not attract; the message names the word as plain integers
    cfg = write_cfg(tmp_path, IDENTITY_CFG)
    assert main(["determinant", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: word (1,) has multiplier")
    assert "np." not in err


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


def test_spectrum_bytes_do_not_depend_on_blas_threads(tmp_path):
    if spectra._openblas_thread_calls() is None:
        pytest.skip("no OpenBLAS thread setter found; the eigenvalues' "
                    "last digits may follow the BLAS thread count")
    cfg = write_cfg(tmp_path, GAUSS_PRESET_CFG)
    src = os.path.dirname(os.path.dirname(transferspec.__file__))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "transferspec.cli", "spectrum",
             "--config", cfg, "--matrix-size", "128"],
            capture_output=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].count(b"\n") == 257       # header and 256 rows
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command, payload", [
    ("spectrum", GAUSS_PRESET_CFG), ("spectrum", GAUSS4_CFG),
    ("determinant", GAUSS4_CFG)], ids=["spectrum-gauss", "spectrum-gauss4",
                                      "determinant-gauss4"])
def test_spectrum_and_determinant_bytes_do_not_use_validation(
        tmp_path, capsys, monkeypatch, command, payload):
    # neither route reads a validation sup, so the closed forms and the
    # sampler leave these bytes as they were
    cfg = write_cfg(tmp_path, dict(payload, trace_order=6))
    code = main([command, "--config", cfg])
    first = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("validation ran")

    monkeypatch.setattr(transferspec.systems, "_exact_sups", refuse)
    monkeypatch.setattr(transferspec.systems, "_sampled_sups", refuse)
    assert main([command, "--config", cfg]) == code
    assert capsys.readouterr().out == first


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
    assert main([command, "--config", cfg]) == code
    assert capsys.readouterr().out == first


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
