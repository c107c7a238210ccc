"""The benchmark's trace hooks must find what they wrap.

bench/tracing.py wraps library functions by module attribute, the letter
gathers by method name and the Gauss tail through the factory that the
matrix assembly looks up on the systems module at each call. A refactor
that moves one of these leaves the benchmark running but silently zeroes
its per-layer metric, so these checks fail instead. The benchmark's stages
and hooks also read result fields by name, and a trim that drops one must
fail here, not in the benchmark. Each workload's stages pass the
benchmark's own checks once here, so a library change that drops an
argument, flag or config key a stage passes fails here too.
"""

import dataclasses
import importlib
import pathlib
import sys

import pytest

import transferspec
from transferspec import assemble_matrix, make_gauss_system, systems

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("tracing")


def test_trace_targets_resolve(tracing):
    for mod, attr, _name, _hook in tracing._TARGETS:
        assert callable(getattr(getattr(transferspec, mod), attr)), (mod, attr)


# the result fields bench/workloads.py and bench/tracing.py read
BENCH_READS = {
    "TraceValue": ("words",),
    "TraceTable": ("values",),
    "DeterminantSeries": ("coefficients",),
    "ContractionReport": ("value", "word", "words", "grid"),
    "ValidationReport": ("W", "grid_used"),
    "FixedPointResult": ("iterations",),
    "EigenvalueSequence": ("values", "reliable_count", "moduli"),
    "VerificationReport": ("rows", "all_pass"),
    "BoundRow": ("n", "bound_d1", "bound_combined"),
}


@pytest.mark.parametrize("name", sorted(BENCH_READS))
def test_result_fields_the_benchmark_reads_exist(name):
    cls = getattr(transferspec, name)
    have = {f.name for f in dataclasses.fields(cls)} | set(dir(cls))
    assert set(BENCH_READS[name]) <= have


def test_gather_hooks_are_system_methods(tracing):
    for method in tracing._GATHERS:
        assert callable(getattr(systems.MapWeightSystem, method)), method


def test_gauss_assembly_goes_through_the_tail_factory(monkeypatch):
    calls = []
    factory = systems._gauss_power_tail

    def counting_factory(*args, **kwargs):
        tail = factory(*args, **kwargs)

        def counting_tail(*targs, **tkwargs):
            calls.append(targs[1])
            return tail(*targs, **tkwargs)
        return counting_tail

    monkeypatch.setattr(systems, "_gauss_power_tail", counting_factory)
    assemble_matrix(make_gauss_system(20), N=8)
    assert calls == [8]


def test_a_traced_run_records_each_layer(tracing, gauss4):
    # a system built before the tracer is installed still has its tail
    # traced: the assembly looks the factory up when it runs
    sys_ = make_gauss_system(20)
    tracer = tracing.Tracer()
    with tracer.installed():
        transferspec.spectral_sequence(sys_, N=8)
        transferspec.trace_table(gauss4, 3)
    for name in ("spectra.assemble", "spectra.power_tail", "spectra.eig",
                 "determinant.trace"):
        spans = [sp for sp in tracer.spans if sp.name == name]
        assert spans and all(sp.end > sp.start for sp in spans), name
    assert tracing.pass_metrics(tracer.spans)["spectra.power_tail_s"] > 0


@pytest.fixture(scope="module")
def workloads():
    # bench/workloads.py imports bench/oracles.py as oracles, a name the
    # suite's own oracles module holds: that one is put back at once
    suite = sys.modules.pop("oracles", None)
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        module = importlib.import_module("workloads")
    for name in ("oracles", "workloads"):
        del sys.modules[name]
    if suite is not None:
        sys.modules["oracles"] = suite
    return module


@pytest.mark.parametrize("name", ["gauss-validate", "gauss-spectrum",
                                  "gauss4-determinant", "user-maps"])
def test_each_workload_passes_its_checks(workloads, name, tmp_path):
    # one pass of the benchmark's stages at seed 1, read and checked as
    # bench/run.py reads and checks them; exit code 2 fails a stage there
    wl = workloads.WORKLOADS[name](1, tmp_path)
    wl.prepare()
    values = {}
    for op, _span, stage in wl.ops(wl.build()):
        raw = stage()
        assert getattr(raw, "code", 0) != 2, (op, raw.stderr)
        values[op] = wl.read(op, raw)
    problems = wl.check(values, wl.reference())
    assert not any(problems.values()), problems
    problems = wl.final(values)
    assert not any(problems.values()), problems
