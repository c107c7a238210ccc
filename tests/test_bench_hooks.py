"""The benchmark's trace hooks must find what they wrap.

bench/tracing.py wraps library functions by module attribute, the letter
gathers by method name and the Gauss tail through the factory that
make_gauss_system looks up. A refactor that moves one of these leaves the
benchmark running but silently zeroes its per-layer metric, so these checks
fail instead. The benchmark's stages and hooks also read result fields by
name, and a trim that drops one must fail here, not in the benchmark.
"""

import dataclasses
import importlib
import pathlib

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
