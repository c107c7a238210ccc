"""Benchmark of the transferspec pipeline on one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
src/ as it stands and nothing is installed. One run times setup in fresh
interpreters, then repeats passes of the workload's stages for S seconds
in this process and checks every pass's outputs against the benchmark's
own oracles. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics` (the names and units of
BENCHMARK.json: end-to-end with --trace 0, per-layer with --trace 1); the
line before it records the machine and library versions. Full results,
and with --trace 1 the spans, are written under .bench_out/.
"""

import os

# One BLAS thread, so OpenBLAS does not compete with the word-pool threads.
# Set before numpy is imported, here and in the setup interpreters.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
NAMES = ("gauss-validate", "gauss-spectrum", "gauss4-determinant",
         "user-maps")
SETUP_REPEATS = 10  # timed fresh-interpreter setups; their median is setup_s
MIN_PASSES = 4      # untraced runs make at least this many passes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import the package, build the systems and exit")
    return p.parse_args(argv)


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "git_sha": git_sha()}


def setup_probe(args):
    """Wall time of a fresh interpreter that imports the package and builds
    the workload's systems, as every CLI call does."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup failed:\n{proc.stderr}")
    return elapsed


class Pass:
    """One pass: its wall time, the ops' outputs, failures and verdicts."""

    def __init__(self, wall, values, errors, verdicts):
        self.wall = wall
        self.values = values
        self.errors = errors
        self.verdicts = verdicts
        self.problems = {}


def run_pass(wl, ops, tracer=None):
    from workloads import CliRun
    raws, errors = {}, {}
    t0 = perf_counter()
    for name, span, fn in ops:
        try:
            if tracer is None:
                raws[name] = fn()
            else:
                with tracer.span(span):
                    raws[name] = fn()
        except Exception:  # a stage that raises counts as failed; go on
            errors[name] = traceback.format_exc()
    wall = perf_counter() - t0
    values, verdicts = {}, {}
    for name, raw in raws.items():
        if isinstance(raw, CliRun):
            verdicts[name] = {"exit": raw.code}
            if raw.code == 2:
                errors[name] = f"exit code 2: {raw.stderr}"
                continue
        try:
            values[name] = wl.read(name, raw)
        except (OSError, ValueError, KeyError, IndexError) as err:
            errors[name] = f"unreadable output: {err!r}"
            continue
        verdicts.setdefault(name, {}).update(wl.verdicts(name, values[name]))
    return Pass(wall, values, errors, verdicts)


def check_passes(wl, passes, op_names):
    """Fill each pass's problems; returns run-level problems per op."""
    ref = wl.reference()
    for p in passes:
        try:
            p.problems = wl.check(p.values, ref)
        except (KeyError, IndexError, TypeError, ValueError) as err:
            # outputs a check needs are missing or malformed
            p.problems = {op: [f"check could not run: {err!r}"]
                          for op in p.values}
    last = passes[-1]
    if not all(op in last.values for op in op_names):
        return {}
    try:
        return wl.final(last.values)
    except (OSError, ValueError) as err:
        return {op: [f"run-level check could not run: {err!r}"]
                for op in op_names}


def tally(passes, run_problems, op_names):
    attempted = failed = 0
    for p in passes:
        for op in op_names:
            attempted += 1
            if op in p.errors or p.problems.get(op) or run_problems.get(op):
                failed += 1
    return attempted, failed


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "transferspec" / "__init__.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT / ".bench_out")
    if args.setup_probe:
        wl.build()
        return 0

    import oracles
    import tracing
    spec = json.loads(SPEC.read_text())
    out_dir = ROOT / ".bench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    wl.out = out_dir

    # the first setup writes the bytecode caches, which users do not pay
    # per call; it is not timed
    try:
        setup_probe(args)
    except (RuntimeError, subprocess.SubprocessError) as err:
        print(err, file=sys.stderr)
        return 1
    setup_times = []
    env = environment()
    wl.prepare()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        systems = wl.build()
    else:
        tracer.group = "setup"
        with tracer.installed():
            systems = wl.build()
    ops = wl.ops(systems)
    op_names = [name for name, _, _ in ops]

    def repeat(budget, minimum, traced):
        done = []
        t0 = perf_counter()
        while len(done) < minimum or perf_counter() - t0 < budget:
            # setup is timed between passes, so that its samples spread
            # over the run like the passes do
            if tracer is None and len(setup_times) < SETUP_REPEATS:
                setup_times.append(setup_probe(args))
            if traced:
                tracer.group = len(done)
                with tracer.installed():
                    done.append(run_pass(wl, ops, tracer))
            else:
                done.append(run_pass(wl, ops))
        return done

    if tracer is None:
        passes = repeat(args.seconds, MIN_PASSES, False)
        traced = []
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup_probe(args))
    else:
        passes = repeat(args.seconds / 2, 1, False)
        traced = repeat(args.seconds / 2, 1, True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    everything = passes + traced
    run_problems = check_passes(wl, everything, op_names)
    attempted, failed = tally(everything, run_problems, op_names)
    oracle_problems = oracles.self_check()
    correct = not oracle_problems and not any(run_problems.values()) and \
        not any(v for p in everything for v in p.problems.values())

    run_s = statistics.median(p.wall for p in passes)
    if tracer is None:
        found = {"setup_s": statistics.median(setup_times), "run_s": run_s,
                 "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]
    else:
        per_pass = [tracing.pass_metrics([sp for sp in tracer.spans
                                          if sp.group == k])
                    for k in range(len(traced))]
        found = tracing.median_metrics(per_pass)
        # the in-process build, validation included: setup_s less imports
        found["systems.build_s"] = sum(
            sp.end - sp.start for sp in tracer.spans
            if sp.group == "setup" and sp.parent is None)
        found["trace.overhead_ratio"] = \
            statistics.median(p.wall for p in traced) / run_s
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "setup_times": setup_times, "pass_walls": [p.wall for p in passes],
        "traced_pass_walls": [p.wall for p in traced],
        "peak_rss_mb": peak_rss_mb, "oracle_problems": oracle_problems,
        "run_problems": run_problems,
        "passes": [{"wall": p.wall, "errors": p.errors,
                    "problems": p.problems, "verdicts": p.verdicts}
                   for p in everything],
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    if tracer is not None:
        t0 = min(sp.start for sp in tracer.spans)
        record["layer_self_s"] = [
            tracing.layer_self_times([sp for sp in tracer.spans
                                      if sp.group == k])
            for k in range(len(traced))]
        with open(out_dir / "spans.json", "w") as fh:
            json.dump([sp.to_dict(t0) for sp in tracer.spans], fh)
    with open(out_dir / "result.json", "w") as fh:
        json.dump(record, fh, indent=1, default=repr)
    messages = [f"oracle: {text}" for text in oracle_problems]
    for p in everything:
        messages += [f"{op}: {text}" for op, text in p.errors.items()]
        messages += [f"{op}: {text}" for op, texts in p.problems.items()
                     for text in texts]
    messages += [f"{op}: {text}" for op, texts in run_problems.items()
                 for text in texts]
    for text in dict.fromkeys(messages):  # each once, in order
        print(f"{args.workload} {text}", file=sys.stderr)

    print(json.dumps({"env": env}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
