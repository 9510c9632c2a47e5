"""Batch PODEM outcomes and the forked worker pool behind them.

:meth:`PodemEngine.outcomes` answers a fault list at once and, when the
batch is large enough, a pool is safe to fork and there is more than one
core, searches the memo misses in worker processes.  Searches are
deterministic, so the pool may change nothing but the wall time: these
tests force it on (by lowering ``POOL_MIN_MISSES`` and faking a second
core) and check results, memo, metrics and redundancy-removal outputs
against the in-process path.  They also check the failure paths: a
search error re-raises with its type, a dying worker degrades to the
in-process path once, one core forks nothing, and no worker outlives a
call.
"""

import importlib
import multiprocessing
import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atpg import PodemEngine
from repro.circuit.bench import write_bench
from repro.circuit.flatten import to_netlist
from repro.circuit.generator import generate_circuit
from repro.circuit.redundancy import make_irredundant
from repro.errors import AtpgError
from repro.experiments import suite
from repro.faults import collapsed_fault_list
from repro.resilience import context as resilience
from repro.telemetry import MetricsRegistry, scoped_registry, tracing

from helpers import generated_circuit

# ``repro.atpg.podem`` is also the name of the one-shot function that
# ``repro.atpg`` exports, so fetch the module itself.
podem_module = importlib.import_module("repro.atpg.podem")

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the PODEM pool needs the fork start method")

LIMIT = 5


@pytest.fixture(autouse=True)
def no_stray_workers():
    yield
    assert multiprocessing.active_children() == []


def _set_pool(monkeypatch, cores: int, min_misses: int = 1) -> None:
    monkeypatch.setattr(podem_module, "POOL_MIN_MISSES", min_misses)
    monkeypatch.setattr("repro.utils.cores.available_cores", lambda: cores)


@pytest.fixture
def pooled(monkeypatch):
    """Every batch with a miss runs in a two-worker pool."""
    assert threading.active_count() == 1, "a live thread disables the pool"
    _set_pool(monkeypatch, cores=2)


@pytest.fixture(scope="module")
def circuit():
    return generated_circuit(5, num_inputs=10, num_gates=60, num_outputs=4,
                             hardness=0.3)


def _fields(result):
    return (result.fault, result.status, result.cube, result.backtracks,
            result.decisions)


def _series(registry):
    """Every PODEM series but the (wall-time) histogram sums."""
    counters = {
        name: {s.labels: s.value for s in registry.counter(name).series()}
        for name in ("repro_atpg_podem_total", "repro_atpg_backtracks_total")
    }
    counts = {s.labels: s.count for s in
              registry.histogram("repro_atpg_podem_seconds").series()}
    return counters, counts


def _irredundant(circ, pooled, **kwargs):
    """make_irredundant's outputs and its pass spans' labels; checks
    that a pass used the pool exactly when it was forced on."""
    with tracing() as trace:
        result = make_irredundant(circ, **kwargs)
    passes = [dict(node["labels"]) for _, node in trace.walk()
              if node["name"] == "circuit.redundancy_pass"]
    assert len(passes) == result.passes
    for labels in passes:
        used = labels.pop("pooled")
        assert used == str(pooled and labels["candidates"] != "0")
    return (result.removed, result.aborted, result.passes,
            result.is_proven_irredundant,
            write_bench(to_netlist(result.circuit)), passes)


def _pass_outputs(monkeypatch, circ, **kwargs):
    """make_irredundant's outputs in-process, then through the pool."""
    _set_pool(monkeypatch, cores=2, min_misses=10 ** 9)
    serial_out = _irredundant(circ, False, **kwargs)
    _set_pool(monkeypatch, cores=2)
    return serial_out, _irredundant(circ, True, **kwargs)


class TestOutcomesMatchSerialOutcome:
    def test_fields_memo_and_series(self, circuit, pooled):
        faults = collapsed_fault_list(circuit)
        # Repeats and memo hits in the batch, as a caller may send them.
        batch = faults + faults[:7]
        reference = PodemEngine(circuit)
        engine = PodemEngine(circuit)
        for fault in faults[:5]:
            reference.outcome(fault, LIMIT)
            engine.outcome(fault, LIMIT)

        serial_registry, pooled_registry = MetricsRegistry(), MetricsRegistry()
        with scoped_registry(serial_registry):
            expected = [reference.outcome(f, LIMIT)[0] for f in batch]
        with scoped_registry(pooled_registry):
            results = engine.outcomes(batch, LIMIT)

        assert engine.pooled_batches == 1
        assert [_fields(r) for r in results] == [_fields(r) for r in expected]
        assert _series(pooled_registry) == _series(serial_registry)
        # The memo now serves every fault without a search.
        again = MetricsRegistry()
        with scoped_registry(again):
            engine.outcomes(batch, LIMIT)
        assert engine.pooled_batches == 1
        sources = {dict(s.labels)["source"] for s in
                   again.counter("repro_atpg_podem_total").series()}
        assert sources == {"memo"}

    def test_matches_uncached_run(self, circuit, pooled):
        faults = collapsed_fault_list(circuit)
        engine = PodemEngine(circuit)
        results = engine.outcomes(faults, None)
        oracle = PodemEngine(circuit)
        assert [_fields(r) for r in results] == \
            [_fields(oracle.run(f, None)) for f in faults]

    def test_small_batches_stay_in_process(self, circuit, monkeypatch):
        _set_pool(monkeypatch, cores=2, min_misses=4)
        engine = PodemEngine(circuit)
        faults = collapsed_fault_list(circuit)
        engine.outcomes(faults[:3], LIMIT)
        assert engine.pooled_batches == 0
        # Memo hits do not count towards the threshold.
        engine.outcomes(faults[:3] + faults[3:6], LIMIT)
        assert engine.pooled_batches == 0
        engine.outcomes(faults[:10], LIMIT)
        assert engine.pooled_batches == 1


class TestIrredundantBuildsMatch:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 10 ** 6), batch=st.booleans(),
           limit=st.sampled_from([2, 20, None]))
    def test_generated_circuits(self, monkeypatch, seed, batch, limit):
        circ = generated_circuit(seed, num_inputs=8, num_gates=40,
                                 num_outputs=4, hardness=0.3)
        serial_out, pooled_out = _pass_outputs(
            monkeypatch, circ, batch=batch, backtrack_limit=limit,
            max_passes=5)
        assert pooled_out == serial_out

    @pytest.mark.parametrize("name", ["irs298", "irs344"])
    def test_suite_recipes(self, monkeypatch, name):
        raw = generate_circuit(suite._generator_spec(suite.suite_entry(name)))
        serial_out, pooled_out = _pass_outputs(
            monkeypatch, raw, name=name, batch=True, backtrack_limit=600,
            prefilter_patterns=4096, max_passes=10)
        assert pooled_out == serial_out


class TestFailures:
    def test_search_error_reraises_with_its_type(self, circuit, pooled,
                                                 monkeypatch):
        parent = os.getpid()
        run = PodemEngine.run

        def failing_in_workers(self, fault, backtrack_limit=200):
            if os.getpid() != parent:
                raise AtpgError(f"cannot search {fault}")
            return run(self, fault, backtrack_limit)

        monkeypatch.setattr(PodemEngine, "run", failing_in_workers)
        engine = PodemEngine(circuit)
        with pytest.raises(AtpgError, match="cannot search"):
            engine.outcomes(collapsed_fault_list(circuit), LIMIT)

    def test_dead_worker_degrades_once(self, circuit, pooled, monkeypatch):
        faults = collapsed_fault_list(circuit)
        expected = [_fields(r) for r in
                    PodemEngine(circuit).outcomes(faults, LIMIT)]
        parent, victim = os.getpid(), faults[3]
        run = PodemEngine.run

        def dying_in_workers(self, fault, backtrack_limit=200):
            if os.getpid() != parent and fault == victim:
                os._exit(3)
            return run(self, fault, backtrack_limit)

        monkeypatch.setattr(PodemEngine, "run", dying_in_workers)
        registry = MetricsRegistry()
        engine = PodemEngine(circuit)
        with scoped_registry(registry), resilience.collecting() as events:
            results = engine.outcomes(faults, LIMIT)
        assert [_fields(r) for r in results] == expected
        assert engine.pooled_batches == 1
        assert events.degradations == 1
        degraded = registry.counter(resilience.DEGRADATIONS_METRIC)
        assert [(dict(s.labels), s.value) for s in degraded.series()] == \
            [({"component": "atpg.podem_pool"}, 1.0)]


class TestWhenThePoolStaysOff:
    def _no_fork(self, monkeypatch):
        forks = []

        def refuse_fork():
            forks.append(1)
            raise AssertionError("a child process was created")

        monkeypatch.setattr(os, "fork", refuse_fork)
        return forks

    def test_one_core_creates_no_child(self, monkeypatch):
        _set_pool(monkeypatch, cores=1)
        forks = self._no_fork(monkeypatch)
        circ = generated_circuit(2, num_inputs=8, num_gates=40,
                                 num_outputs=4, hardness=0.3)
        result = make_irredundant(circ, batch=True, backtrack_limit=2)
        assert result.removed
        assert forks == []

    def test_live_thread_creates_no_child(self, circuit, pooled,
                                          monkeypatch):
        forks = self._no_fork(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            engine = PodemEngine(circuit)
            engine.outcomes(collapsed_fault_list(circuit), LIMIT)
        finally:
            release.set()
            other.join()
        assert engine.pooled_batches == 0
        assert forks == []
