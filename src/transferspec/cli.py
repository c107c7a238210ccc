"""Batch command-line front end.

Four subcommands cover the pipeline: validate (domain admissibility,
weight sup, contraction), spectrum (matrix-route eigenvalues as CSV),
determinant (trace table, determinant coefficients, zeros, and a
cross-check against the matrix route), bounds (decay-bound table,
verification, crossover report).

Exit codes: 0 success, 1 domain or verification failure, 2 usage or
configuration error. All floats print with 17 significant digits and files
use "\n" endings, so a rerun with the same config is byte-identical; output
filenames are <command>-<system id> with no timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

from ._format import g17, json_g17
from .bounds import (
    BoundProfile,
    bound_table,
    bounds_csv_text,
    crossover_report,
    verify_bounds,
)
from .determinant import (
    determinant_coefficients,
    determinant_zeros,
    export_determinant_json,
    trace_table,
)
from .dynamics import DEFAULT_WORD_BUDGET, _enclosing_ratio, contraction_details
from .errors import (
    DescriptorError,
    NotEnclosed,
    TransferOperatorError,
)
from .spectra import spectral_sequence
from .systems import DEFAULT_GRID, system_from_descriptor, validate_system

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

@dataclass
class RunConfig:
    """Merged configuration: JSON file values overridden by CLI flags."""

    system: dict | None = None
    profile: dict | None = None
    matrix_size: int = 32
    trace_order: int = 8
    word_budget: int = DEFAULT_WORD_BUDGET
    agreement_tol: float = 1e-6
    margin: float = 0.1
    contraction_order: int = 2
    grid: int = DEFAULT_GRID
    threads: int = 1
    out_dir: str | None = None

    def check(self):
        if self.matrix_size < 4:
            raise DescriptorError("matrix_size must be >= 4")
        if self.trace_order < 1:
            raise DescriptorError("trace_order must be >= 1")
        if self.word_budget < 1:
            raise DescriptorError("word_budget must be >= 1")
        if not (self.agreement_tol > 0.0):
            raise DescriptorError("agreement_tol must be positive")
        if not (0.0 < self.margin < 1.0):
            raise DescriptorError("margin must lie in (0, 1)")
        if self.contraction_order < 1:
            raise DescriptorError("contraction_order must be >= 1")
        if self.grid < 8:
            raise DescriptorError("grid must be >= 8")
        if self.threads < 1:
            raise DescriptorError("threads must be >= 1")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise DescriptorError(
                f"out_dir must be a string, got {self.out_dir!r}")
        return self


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _resolve_config(args):
    data = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise DescriptorError("config root must be a JSON object")
        unknown = sorted(set(data) - _CONFIG_KEYS)
        if unknown:
            raise DescriptorError(f"unknown config keys: {', '.join(unknown)}")
    for key in ("system", "profile"):
        if data.get(key) is not None and not isinstance(data[key], dict):
            raise DescriptorError(f"config key {key!r} must be an object")

    # numeric fields: a flag beats the file, which beats the field default;
    # the default's type is the cast, and an integer field refuses a float
    # with a fractional part rather than truncating it
    numbers = {}
    for f in fields(RunConfig):
        if not isinstance(f.default, (int, float)):
            continue
        flag = getattr(args, f.name, None)
        value = flag if flag is not None else data.get(f.name)
        if isinstance(value, (bool, str)):
            raise DescriptorError(f"bad config value for {f.name}: expected "
                                  f"a number, got {value!r}")
        if value is not None:
            try:
                numbers[f.name] = type(f.default)(value)
            except (TypeError, ValueError, OverflowError) as err:
                raise DescriptorError(f"bad config value for {f.name}: {err}")
            if (isinstance(f.default, int) and isinstance(value, float)
                    and numbers[f.name] != value):
                raise DescriptorError(f"bad config value for {f.name}: "
                                      f"expected an integer, got {value!r}")
    cfg = RunConfig(system=data.get("system"), profile=data.get("profile"),
                    out_dir=getattr(args, "out", None) or data.get("out_dir"),
                    **numbers)
    return cfg.check()


def _require_system(cfg):
    if cfg.system is None:
        raise DescriptorError("this command needs a config with a "
                              "\"system\" descriptor")
    return system_from_descriptor(cfg.system)


def _emit(cfg, filename, text):
    if not cfg.out_dir:
        return None
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, filename)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# subcommands


def _admitted(sys_, cfg):
    """The validation report and enclosing ratio of a system the operator is
    defined for, refused by _enclosing_ratio otherwise: spectrum and bounds
    call it before any other work on the system, and determinant's
    trace_table makes the same check first, as enclosing_radius."""
    report = validate_system(sys_, margin=cfg.margin, grid=cfg.grid)
    return report, _enclosing_ratio(report, sys_.domain.radius)


def cmd_validate(cfg, args):
    sys_ = _require_system(cfg)
    report = validate_system(sys_, margin=cfg.margin, grid=cfg.grid)
    # the check _admitted runs, but images that reach the radius are a
    # failed validation, reported in full
    try:
        enc = _enclosing_ratio(report, sys_.domain.radius)
    except NotEnclosed:
        enc = None
    contr = contraction_details(sys_, cfg.contraction_order, grid=cfg.grid,
                                word_budget=cfg.word_budget,
                                threads=cfg.threads)
    ok = report.images_compactly_contained and contr.value < 1.0
    out = {
        "system": sys_.system_id,
        "ok": ok,
        "enclosing_radius": enc,
        "contraction": {
            "order": int(cfg.contraction_order),
            "value": float(contr.value),
            "word": [int(l) for l in contr.word],
        },
    }
    out.update(report.to_dict())
    text = json_g17(out) + "\n"
    sys.stdout.write(text)
    _emit(cfg, f"validate-{sys_.system_id}.json", text)
    return EXIT_OK if ok else EXIT_FAIL


def _spectrum_csv_text(seq):
    lines = ["n,re,im,abs,reliable"]
    for i, v in enumerate(seq.values, start=1):
        flag = "true" if i <= seq.reliable_count else "false"
        lines.append(f"{i},{g17(v.real)},{g17(v.imag)},{g17(abs(v))},{flag}")
    return "\n".join(lines) + "\n"


def cmd_spectrum(cfg, args):
    sys_ = _require_system(cfg)
    _admitted(sys_, cfg)
    seq = spectral_sequence(sys_, N=cfg.matrix_size)
    text = _spectrum_csv_text(seq)
    sys.stdout.write(text)
    _emit(cfg, f"spectrum-{sys_.system_id}.csv", text)
    return EXIT_OK


def cmd_determinant(cfg, args):
    sys_ = _require_system(cfg)
    table = trace_table(sys_, cfg.trace_order, word_budget=cfg.word_budget,
                        threads=cfg.threads)
    series = determinant_coefficients(table)
    zeros = determinant_zeros(series)
    out = export_determinant_json(table, series)
    out["system"] = sys_.system_id
    out["eigenvalues_re"] = [v.real for v in zeros.values]
    out["eigenvalues_im"] = [v.imag for v in zeros.values]
    out["zeros_re"] = [(1.0 / v).real for v in zeros.values]
    out["zeros_im"] = [(1.0 / v).imag for v in zeros.values]
    out["reliable_count"] = int(zeros.reliable_count)

    mat = spectral_sequence(sys_, N=cfg.matrix_size)
    # leading values only (deep zeros drift with the degree truncation
    # faster than reliability can certify); comparing none is no verdict
    count = min(zeros.reliable_count, mat.reliable_count, 5)
    diff = float(max((abs(zeros.values[k] - mat.values[k])
                      for k in range(count)), default=0.0))
    agree = bool(diff <= cfg.agreement_tol) if count else None
    out["cross_check"] = {
        "count": int(count),
        "max_abs_diff": float(diff),
        "tol": float(cfg.agreement_tol),
        "agree": agree,
    }
    text = json_g17(out) + "\n"
    sys.stdout.write(text)
    _emit(cfg, f"determinant-{sys_.system_id}.json", text)
    return EXIT_OK if agree else EXIT_FAIL


def _profile_from_dict(raw):
    if any(isinstance(raw.get(k), (bool, str)) for k in ("W", "r", "d")):
        raise DescriptorError("bad bound profile: W, r and d must be numbers")
    d = raw.get("d", 1)
    if isinstance(d, float) and not d.is_integer():
        raise DescriptorError(
            f"bad bound profile: d must be an integer, got {d!r}")
    try:
        return BoundProfile(W=float(raw["W"]), r=float(raw["r"]), d=int(d))
    except (KeyError, TypeError, ValueError) as err:
        raise DescriptorError(f"bad bound profile: {err}")


def _refuse_past_range(rows, weyl):
    """Refuse a bound or Weyl product past the double range: no 17-digit
    text holds it."""
    values = [(name, row.n, getattr(row, name)) for row in rows
              for name in ("bound_d1", "bound_general", "bound_hardy")]
    values += [(f"the Weyl {name}", w.n, getattr(w, name))
               for w in weyl for name in ("product", "bound")]
    for what, n, value in values:
        if value is not None and not math.isfinite(value):
            raise TransferOperatorError(
                f"{what} at n = {n} lies past the double range")


# --crossover's exact threshold d^d / (1 - r^2)^(d^2) is refused past these
# sizes: its estimated bit length, well inside the 4300 digits Python
# prints of an int, and the bits of the exact power (1 - r^2)^(d^2). At
# either bound a call took under 0.1 s (2-vCPU host, Python 3.11).
_CROSSOVER_BITS = 1 << 13
_CROSSOVER_WORK = 1 << 20


def _check_crossover_size(r, d):
    """Refuse a --crossover whose threshold is too large to print or to
    compute exactly; crossover_report refuses r outside (0, 1) and d < 1."""
    if not (0.0 < r < 1.0 and d >= 1):
        return
    # in integers first, so that d is small enough for floats below
    work = d * d * (1 - Fraction(r) ** 2).denominator.bit_length()
    if work > _CROSSOVER_WORK:
        raise ValueError(f"(1 - r^2)^(d^2) takes {work} bits exactly, more "
                         f"than {_CROSSOVER_WORK}")
    bits = d * math.log2(d) - d * d * math.log2(1.0 - r * r)
    if bits > _CROSSOVER_BITS:
        raise ValueError(f"the threshold has about {bits:.0f} bits, more "
                         f"than {_CROSSOVER_BITS}")


def cmd_bounds(cfg, args):
    cross = None
    if getattr(args, "crossover", None):
        try:
            r = float(args.crossover[0])
            d = int(args.crossover[1])
            _check_crossover_size(r, d)
            cross = crossover_report(r, d)
        except ValueError as err:
            raise DescriptorError(f"bad --crossover arguments: {err}")

    if cfg.profile is not None and cfg.system is not None:
        raise DescriptorError(
            "config supplies both \"system\" and \"profile\"; use one")

    summary = {}
    rows, weyl = None, ()
    sid = None
    ok = True
    if cfg.profile is not None:
        prof = _profile_from_dict(cfg.profile)
        rows = bound_table(prof, cfg.matrix_size)
        sid = "profile"
        summary["profile"] = {"W": prof.W, "r": prof.r, "d": prof.d}
    elif cfg.system is not None:
        sys_ = _require_system(cfg)
        val, ratio = _admitted(sys_, cfg)
        try:    # a ratio that underflows to 0 has no profile
            prof = BoundProfile(val.W, ratio, sys_.dim)
        except ValueError as err:
            raise TransferOperatorError(f"no bound profile: {err}")
        seq = spectral_sequence(sys_, N=cfg.matrix_size)
        rep = verify_bounds(seq, prof)
        rows, weyl = rep.rows, rep.weyl
        sid = sys_.system_id
        ok = rep.all_pass
        summary["profile"] = {"W": prof.W, "r": prof.r, "d": prof.d}
        summary["reliable_count"] = int(rep.reliable_count)
        summary["all_pass"] = rep.all_pass
        summary["weyl"] = [
            {"n": w.n, "product": w.product, "bound": w.bound,
             "pass": w.passed} for w in weyl]
    elif cross is None:
        raise DescriptorError("bounds needs a \"system\" or \"profile\" "
                              "config, or --crossover R D")
    if cross is not None:
        summary["crossover"] = cross

    _refuse_past_range(rows or (), weyl)
    body = bounds_csv_text(rows) if rows is not None else ""
    text = body + "# " + json_g17(summary) + "\n"
    sys.stdout.write(text)
    if rows is not None:
        _emit(cfg, f"bounds-{sid}.csv", text)
    return EXIT_OK if ok else EXIT_FAIL


_DISPATCH = {
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
    "determinant": cmd_determinant,
    "bounds": cmd_bounds,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="transferspec",
        description="Eigenvalue sequences and decay bounds of transfer "
                    "operators attached to contracting analytic map-weight "
                    "systems.")
    sub = p.add_subparsers(dest="command", required=True)
    # each subcommand takes the flags its cmd_* reads; the config file
    # keys are shared
    specs = {
        "validate": ("check domain admissibility, weight sup, contraction",
                     ("word_budget", "threads")),
        "spectrum": ("matrix-route eigenvalue CSV", ("matrix_size",)),
        "determinant": ("trace table, determinant coefficients and zeros",
                        ("matrix_size", "trace_order", "word_budget",
                         "threads")),
        "bounds": ("decay-bound table, verification, crossover report",
                   ("matrix_size",)),
    }
    flag_help = {
        "matrix_size": "basis size N for the matrix route",
        "trace_order": "number of trace orders M",
        "word_budget": "maximum words enumerated per trace order",
        "threads": "worker threads",
    }
    for name, (help_, takes) in specs.items():
        q = sub.add_parser(name, help=help_)
        q.add_argument("--config", help="path to JSON run configuration")
        for key in takes:
            q.add_argument("--" + key.replace("_", "-"), type=int, dest=key,
                           help=flag_help[key])
        q.add_argument("--out", help="output directory for result files")
        if name == "bounds":
            q.add_argument("--crossover", nargs=2, metavar=("R", "D"),
                           help="report the crossover index for ratio R, "
                                "dimension D")
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        cfg = _resolve_config(args)
        return _DISPATCH[args.command](cfg, args)
    # DescriptorError is a TransferOperatorError, so its arm comes first
    except (DescriptorError, OSError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except TransferOperatorError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
