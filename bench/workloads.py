"""The four workloads: the systems each builds, the stages one pass runs,
and the checks on what those stages return.

Every check compares a stage's output with a value the benchmark works out
itself (bench/oracles.py) or with a property the method must have. The
program's own verdicts (the `reliable` column, `all_pass`, the cross-check
`agree`, exit code 1) are recorded but never decide a check: a stage fails
only when it raises, exits with code 2, or fails one of these checks.

The seed draws the systems. Seed 0 gives the systems named in README.md;
other seeds permute the letters of the four-branch system and move weight
between the two branches of the dimension-2 system. Neither changes the
amount of work, and both stay inside what the oracles cover. The Gauss
preset has no such freedom, so its workloads do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from pathlib import Path

import numpy as np

import transferspec as ts
from transferspec import cli

import oracles

I_MAX = 200
DISC_A = (1.0, 1.5)
DISC_B = (0.8, 1.2)
SHIFTS = (1.0, 2.0, 3.0, 4.0)
# dimension 2: branch i is z -> (a_i z_1 + s_i, b_i z_2 + t_i), weight w_i
DIAG_RATES = ((0.4, 0.25), (0.3, 0.35))
DIAG_OFFSETS = ((0.2, -0.1), (-0.2, 0.1))
DIAG_WEIGHTS = (1.0, 0.5)

# the arguments the CLI uses by default
MARGIN, GRID, CONTRACTION_ORDER, FIXED_POINT_TOL = 0.1, 1024, 2, 1e-13


def draw(seed):
    """The four-branch shifts in letter order, and the dimension-2 weights."""
    if seed == 0:
        return SHIFTS, DIAG_WEIGHTS
    rng = random.Random(seed)
    shifts = list(SHIFTS)
    rng.shuffle(shifts)
    move = rng.uniform(-0.2, 0.2)
    return tuple(shifts), (DIAG_WEIGHTS[0] - move, DIAG_WEIGHTS[1] + move)


def _domain(disc):
    return {"center": [disc[0], 0.0], "radius": disc[1], "dim": 1}


def gauss_descriptor(disc):
    return {"family": "gauss", "i_max": I_MAX, "params": [],
            "domain": _domain(disc)}


def gauss4_descriptor(shifts):
    return {"family": "moebius_list",
            "params": [{"a": 0.0, "b": 1.0, "c": 1.0, "e": e,
                        "weight": "neg_derivative"} for e in shifts],
            "domain": _domain(DISC_A)}


def user_gauss4(shifts):
    """Branches 1/(e+z) and weights 1/(e+z)^2 as plain callables: no
    closed-form derivative, no Moebius coefficients, no weight kind."""
    branches = [ts.AnalyticMap(lambda z, e=e: 1.0 / (e + z), name=f"T{e:g}")
                for e in shifts]
    weights = [ts.AnalyticMap(lambda z, e=e: 1.0 / ((e + z) * (e + z)),
                              name=f"w{e:g}") for e in shifts]
    return ts.make_system(branches, weights, ts.make_ball(*DISC_A),
                          label="user-gauss4")


def user_diag2(weights):
    branches = [ts.AnalyticMap(
        lambda z, a=a, b=b, s=s, t=t: [a * z[0] + s, b * z[1] + t],
        dim=2, name=f"diag{k}")
        for k, ((a, b), (s, t)) in enumerate(zip(DIAG_RATES, DIAG_OFFSETS))]
    return ts.make_system(branches, [ts.make_const(w) for w in weights],
                          ts.make_ball((0.0, 0.0), 1.0, dim=2),
                          label="user-diag2")


# ---------------------------------------------------------------------------
# running stages


class CliRun:
    """Exit code and captured text of one in-process CLI call."""

    def __init__(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            self.code = cli.main(argv)
        self.stdout = out.getvalue()
        self.stderr = err.getvalue()


def _only(directory, pattern):
    found = sorted(Path(directory).glob(pattern))
    if len(found) != 1:
        raise ValueError(f"expected one {pattern} in {directory}, "
                         f"found {len(found)}")
    return found[0].read_text()


def read_spectrum_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return {"values": [complex(float(r["re"]), float(r["im"])) for r in rows],
            "abs": [float(r["abs"]) for r in rows],
            "reliable": sum(r["reliable"] == "true" for r in rows)}


def read_bounds_csv(text):
    lines = text.splitlines()
    summary = json.loads(lines[-1][2:]) if lines[-1].startswith("# ") else {}
    rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
    return {"rows": rows, "summary": summary}


# ---------------------------------------------------------------------------
# checks


def _close(problems, what, got, want, tol):
    if not abs(got - want) <= tol:
        problems.append(f"{what}: {got!r} differs from {want!r} by "
                        f"{abs(got - want):.3g} > {tol:.3g}")


def _at_least(problems, what, got, floor):
    # a few ulps of slack: the check is on the value, not the rounding
    if not got >= floor - 4 * math.ulp(floor):
        problems.append(f"{what}: {got!r} is below {floor!r}")


def _sup(problems, what, got, want):
    """A sampled sup: equal to the exact one, and not below it."""
    _close(problems, what, got, want, 1e-9 * want)
    _at_least(problems, what, got, want)


def _enclosing(problems, got, want):
    """The sampled enclosing ratio lies in [want, want + 1e-3]."""
    if got is None:
        problems.append("no enclosing radius")
        return
    _at_least(problems, "enclosing ratio", got, want)
    if not got <= want + 1e-3:
        problems.append(f"enclosing ratio {got!r} above {want!r} + 1e-3")


def _traces(problems, got, want, rtol=1e-10):
    for n, (g, w) in enumerate(zip(got, want), start=1):
        _close(problems, f"t_{n}", g, w, rtol * max(1.0, abs(w)))
    if len(got) != len(want):
        problems.append(f"{len(got)} traces, expected {len(want)}")


def _newton(problems, traces, coeffs):
    """Determinant coefficients recomputed from the reported traces."""
    c = [1.0 + 0.0j]
    for m in range(1, len(traces) + 1):
        c.append(-sum(traces[k - 1] * c[m - k] for k in range(1, m + 1)) / m)
    for m, (g, w) in enumerate(zip(coeffs, c)):
        _close(problems, f"c_{m}", g, w, 1e-12 * max(1.0, abs(w)))
    if len(coeffs) != len(c):
        problems.append(f"{len(coeffs)} coefficients, expected {len(c)}")


def _leading(problems, what, got, want, count, tol):
    if len(got) < count:
        problems.append(f"{what}: only {len(got)} eigenvalues")
        return
    for k in range(count):
        _close(problems, f"{what} lambda_{k + 1}", got[k], want[k], tol)


def _bounds_rows(problems, rows, W, r, moduli):
    """bound_d1 recomputed from W and r; |lambda_n| <= bound_combined for
    n <= 10. rows are dicts with string or float cells."""
    for row in rows:
        n = int(row["n"])
        want = W * math.sqrt(n) * r ** ((n - 1) / 2.0)
        _close(problems, f"bound_d1({n})", float(row["bound_d1"]), want,
               1e-12 * want)
        if n <= 10 and not moduli[n - 1] <= float(row["bound_combined"]):
            problems.append(f"|lambda_{n}| = {moduli[n - 1]!r} exceeds "
                            f"bound_combined {row['bound_combined']}")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One workload of the benchmark, for one seed and output directory."""

    name = ""

    def __init__(self, seed, out_dir):
        self.out = Path(out_dir)
        self.shifts, self.diag_weights = draw(seed)

    def configs(self):
        """{name: CLI config} the stages read."""
        return {}

    def prepare(self):
        """Write the CLI configs to the output directory."""
        self.cfg = {}
        for name, body in self.configs().items():
            path = self.out / f"{name}.json"
            path.write_text(json.dumps(body))
            self.cfg[name] = str(path)

    def _dir(self, name):
        return str(self.out / name)

    def build(self):
        """Build the workload's systems, as setup does."""
        raise NotImplementedError

    def ops(self, systems):
        """[(op name, span name, callable)] for one pass; systems are what
        build() returned."""
        raise NotImplementedError

    def read(self, op, raw):
        """The op's outputs as plain data, read back after the pass."""
        return raw

    def verdicts(self, op, value):
        """The program's own verdicts, recorded only."""
        return {}

    def reference(self):
        """Oracle values for the checks, computed once after the passes."""
        return {}

    def check(self, values, ref):
        """{op name: [problems]} for one pass's values."""
        raise NotImplementedError

    def final(self, values):
        """Run-level checks outside the timed passes: {op: [problems]}."""
        return {}


class GaussValidate(Workload):
    name = "gauss-validate"

    def configs(self):
        return {"validate": {"system": gauss_descriptor(DISC_A),
                             "contraction_order": CONTRACTION_ORDER,
                             "grid": GRID}}

    def build(self):
        return [ts.system_from_descriptor(gauss_descriptor(DISC_A))]

    def ops(self, systems):
        return [("validate", "cli.validate", lambda: CliRun(
            ["validate", "--config", self.cfg["validate"], "--threads", "1",
             "--out", self._dir("validate")]))]

    def read(self, op, raw):
        return json.loads(_only(self._dir("validate"), "validate-*.json"))

    def verdicts(self, op, value):
        return {"ok": value["ok"],
                "contained": value["images_compactly_contained"]}

    def check(self, values, ref):
        v = values["validate"]
        p = []
        contr = v["contraction"]
        if tuple(contr["word"]) != oracles.GAUSS_CONTRACTION_WORD:
            p.append(f"contraction word {contr['word']} is not (1, 1)")
        _close(p, "contraction", contr["value"], oracles.GAUSS_CONTRACTION,
               1e-12)
        _sup(p, "W", v["W"], oracles.GAUSS_W)
        _enclosing(p, v["enclosing_radius"], oracles.GAUSS_ENCLOSING)
        _close(p, "image_sup", v["image_sup"], 1.0, 1e-12)
        return {"validate": p}


class GaussSpectrum(Workload):
    name = "gauss-spectrum"

    def configs(self):
        return {"disc-a": {"system": gauss_descriptor(DISC_A)},
                "disc-b": {"system": gauss_descriptor(DISC_B)}}

    def build(self):
        return [ts.system_from_descriptor(gauss_descriptor(d))
                for d in (DISC_A, DISC_B)]

    def ops(self, systems):
        def run(cmd, cfg, name):
            return lambda: CliRun([cmd, "--config", cfg, "--matrix-size",
                                   "128", "--out", self._dir(name)])
        return [("spectrum-a", "cli.spectrum",
                 run("spectrum", self.cfg["disc-a"], "spectrum-a")),
                ("spectrum-b", "cli.spectrum",
                 run("spectrum", self.cfg["disc-b"], "spectrum-b")),
                ("bounds", "cli.bounds",
                 run("bounds", self.cfg["disc-a"], "bounds"))]

    def read(self, op, raw):
        if op == "bounds":
            return read_bounds_csv(_only(self._dir(op), "bounds-*.csv"))
        return read_spectrum_csv(_only(self._dir(op), "spectrum-*.csv"))

    def verdicts(self, op, value):
        if op == "bounds":
            s = value["summary"]
            return {"all_pass": s.get("all_pass"),
                    "reliable": s.get("reliable_count")}
        return {"reliable": value["reliable"]}

    def reference(self):
        return {"collocation": oracles.collocation_eigenvalues()}

    def check(self, values, ref):
        out = {}
        for op in ("spectrum-a", "spectrum-b"):
            vals = values[op]["values"]
            p = out[op] = []
            _close(p, "lambda_1", vals[0], 1.0, 1e-10)
            _close(p, "|lambda_2|", abs(vals[1]), oracles.WIRSING, 1e-12)
            _leading(p, "collocation", vals, ref["collocation"], 5, 1e-6)
        a, b = values["spectrum-a"]["values"], values["spectrum-b"]["values"]
        _leading(out["spectrum-b"], "other disc", b, a, 5, 1e-7)
        bounds = values["bounds"]
        prof = bounds["summary"].get("profile", {})
        p = out["bounds"] = []
        if "W" not in prof or "r" not in prof:
            p.append("no bound profile in the summary line")
        else:
            _bounds_rows(p, bounds["rows"], prof["W"], prof["r"],
                         [abs(v) for v in a])
        return out


class Gauss4Determinant(Workload):
    name = "gauss4-determinant"

    ORDER = 10

    def configs(self):
        return {"gauss4": {"system": gauss4_descriptor(self.shifts)}}

    def build(self):
        return [ts.system_from_descriptor(gauss4_descriptor(self.shifts))]

    def _run(self, threads, name):
        return CliRun(["determinant", "--config", self.cfg["gauss4"],
                       "--trace-order", str(self.ORDER),
                       "--threads", str(threads), "--out", self._dir(name)])

    def ops(self, systems):
        return [("determinant", "cli.determinant",
                 lambda: self._run(2, "determinant"))]

    def read(self, op, raw):
        text = _only(self._dir(op), "determinant-*.json")
        return {"json": json.loads(text), "file": text, "stdout": raw.stdout}

    def verdicts(self, op, value):
        d = value["json"]
        return {"cross_check": d.get("cross_check"),
                "reliable": d.get("reliable_count")}

    def reference(self):
        params = [(0.0, 1.0, 1.0, e) for e in self.shifts]
        return {"traces": oracles.moebius_traces(params, -1,
                                                 range(1, self.ORDER + 1)),
                "collocation": oracles.collocation_eigenvalues(self.shifts)}

    def check(self, values, ref):
        d = values["determinant"]["json"]
        p = []
        traces = [complex(r, i) for r, i in zip(d["traces_re"],
                                                d["traces_im"])]
        _traces(p, traces, ref["traces"])
        _newton(p, traces, [complex(r, i) for r, i in
                            zip(d["coeffs_re"], d["coeffs_im"])])
        eig = [complex(r, i) for r, i in zip(d["eigenvalues_re"],
                                             d["eigenvalues_im"])]
        _leading(p, "collocation", eig, ref["collocation"], 2, 1e-6)
        return {"determinant": p}

    def final(self, values):
        """Output bytes at one thread against the last two-thread pass."""
        last = values["determinant"]
        one = self._run(1, "determinant-1-thread")
        p = []
        if one.stdout != last["stdout"]:
            p.append("stdout differs between 1 and 2 threads")
        if _only(self._dir("determinant-1-thread"),
                 "determinant-*.json") != last["file"]:
            p.append("result file differs between 1 and 2 threads")
        return {"determinant": p}


class UserMaps(Workload):
    name = "user-maps"

    ORDER, ORDER_2D, SIZE = 9, 10, 64

    def build(self):
        return [user_gauss4(self.shifts), user_diag2(self.diag_weights)]

    def ops(self, systems):
        g4, d2 = systems
        budget = ts.DEFAULT_WORD_BUDGET

        def validate():
            report = ts.validate_system(g4, margin=MARGIN, grid=GRID)
            enc = ts.enclosing_radius(g4, grid=GRID)
            contr = ts.contraction_details(g4, CONTRACTION_ORDER, grid=GRID,
                                           word_budget=budget, threads=1)
            return {"W": report.W, "enclosing_radius": enc,
                    "contraction": contr.value, "word": contr.word}

        def spectrum():
            return {"values": list(ts.spectral_sequence(g4, N=self.SIZE)
                                   .values)}

        def determinant(sys_, order):
            def stage():
                table = ts.trace_table(sys_, order, word_budget=budget,
                                       tol=FIXED_POINT_TOL, threads=1)
                series = ts.determinant_coefficients(table)
                zeros = ts.determinant_zeros(series)
                if sys_.dim == 1:
                    ts.spectral_sequence(sys_, N=self.SIZE)  # cross-check
                return {"traces": list(table.values),
                        "coeffs": list(series.coefficients),
                        "values": list(zeros.values),
                        "reliable": zeros.reliable_count}
            return stage

        def bounds():
            val = ts.validate_system(g4, margin=MARGIN, grid=GRID)
            r = ts.enclosing_radius(g4, grid=GRID)
            seq = ts.spectral_sequence(g4, N=self.SIZE)
            rep = ts.verify_bounds(seq, ts.BoundProfile(val.W, r, 1))
            return {"W": val.W, "r": r, "moduli": list(seq.moduli()),
                    "rows": [{"n": row.n, "bound_d1": row.bound_d1,
                              "bound_combined": row.bound_combined}
                             for row in rep.rows],
                    "all_pass": rep.all_pass}

        return [("validate", "stage.validate", validate),
                ("spectrum", "stage.spectrum", spectrum),
                ("determinant", "stage.determinant",
                 determinant(g4, self.ORDER)),
                ("bounds", "stage.bounds", bounds),
                ("determinant-2d", "stage.determinant",
                 determinant(d2, self.ORDER_2D))]

    def verdicts(self, op, value):
        if op == "bounds":
            return {"all_pass": value["all_pass"]}
        if "reliable" in value:
            return {"reliable": value["reliable"]}
        return {}

    def reference(self):
        params = [(0.0, 1.0, 1.0, e) for e in self.shifts]
        c, rho = DISC_A
        return {
            "traces": oracles.moebius_traces(params, -1,
                                             range(1, self.ORDER + 1)),
            "traces_2d": oracles.diagonal_affine_traces(
                DIAG_RATES, self.diag_weights, range(1, self.ORDER_2D + 1)),
            "contraction": oracles.contraction_factor(
                params, CONTRACTION_ORDER, c, rho),
            "enclosing": oracles.enclosing_ratio(params, c, rho),
            "W": oracles.shift_weight_sup(self.shifts, c, rho),
            "collocation": oracles.collocation_eigenvalues(self.shifts),
        }

    def check(self, values, ref):
        out = {op: [] for op in values}
        v, p = values["validate"], out["validate"]
        value, word = ref["contraction"]
        if tuple(v["word"]) != word:
            p.append(f"contraction word {v['word']} is not {word}")
        _close(p, "contraction", v["contraction"], value, 1e-12)
        _sup(p, "W", v["W"], ref["W"])
        _enclosing(p, v["enclosing_radius"], ref["enclosing"])

        lam = np.array(values["spectrum"]["values"])
        sums = [complex(np.sum(lam ** n)) for n in range(1, self.ORDER + 1)]
        _traces(out["spectrum"], sums, ref["traces"])

        d, p = values["determinant"], out["determinant"]
        _traces(p, d["traces"], ref["traces"])
        _newton(p, d["traces"], d["coeffs"])
        _leading(p, "collocation", d["values"], ref["collocation"], 2, 1e-6)

        b = values["bounds"]
        _bounds_rows(out["bounds"], b["rows"], b["W"], b["r"], b["moduli"])

        d, p = values["determinant-2d"], out["determinant-2d"]
        _traces(p, d["traces"], ref["traces_2d"])
        _newton(p, d["traces"], d["coeffs"])
        if not d["values"]:
            p.append("no eigenvalues in dimension 2")
        else:
            _close(p, "lambda_1 (dim 2)", d["values"][0],
                   sum(self.diag_weights), 1e-5)
        return out


WORKLOADS = {w.name: w for w in (GaussValidate, GaussSpectrum,
                                 Gauss4Determinant, UserMaps)}
