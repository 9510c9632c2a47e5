"""The PODEM outcome memo: one engine per Flow, shared by every order.

A search's result depends only on the circuit, the fault and the
backtrack limit, so :meth:`PodemEngine.outcome` memoizes it and the flow
facade hands one engine to all fault orders of a circuit.  These tests
pin that the sharing changes nothing an order reports: the same
``TestGenResult`` field for field as a fresh engine per order, the same
``runtime_seconds`` whichever order ran first, and memoized outcomes
identical to uncached :meth:`PodemEngine.run` calls.
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adi import ORDERS
from repro.atpg import PodemEngine, generate_tests, generate_transition_tests
from repro.errors import AtpgError
from repro.faults import collapsed_fault_list, full_universe
from repro.flow import CircuitSpec, FaultModelSpec, Flow, FlowConfig
from repro.telemetry import MetricsRegistry, scoped_registry

from helpers import generated_circuit

GENERATORS = {
    "stuck_at": generate_tests,
    "transition": generate_transition_tests,
}


def _flow(circuit: CircuitSpec, model: str = "stuck_at") -> Flow:
    return Flow(FlowConfig(circuit=circuit,
                           fault_model=FaultModelSpec(name=model),
                           seed=2005))


def _generated(seed: int = 3) -> CircuitSpec:
    return CircuitSpec(kind="generator", name=f"memo{seed}", num_inputs=10,
                       num_gates=40, num_outputs=4, gen_seed=seed,
                       hardness=0.1)


def _fields(result):
    """Everything a run reports except its wall time."""
    return (
        result.tests,
        list(result.status.items()),
        result.detected_per_test,
        result.targeted_faults,
        result.podem_calls,
        result.backtracks,
        getattr(result, "launch_fallbacks", None),
    )


class TestSharedMemoMatchesFreshEngines:
    @pytest.mark.parametrize("model", sorted(GENERATORS))
    @pytest.mark.parametrize("circuit", ["irs208", "irs298"])
    def test_every_order_field_for_field(self, circuit, model):
        flow = _flow(CircuitSpec(kind="suite", name=circuit), model)
        generate = GENERATORS[model]
        for order in ORDERS:
            shared = flow.tests(order)
            fresh = generate(flow.circuit(), flow.ordered_faults(order),
                             flow.config.testgen_config())
            assert _fields(shared) == _fields(fresh), order

    def test_orders_share_one_engine(self):
        flow = _flow(_generated())
        registry = MetricsRegistry()
        with scoped_registry(registry):
            results = [flow.tests(order) for order in ORDERS]
        counts = {}
        for series in registry.counter("repro_atpg_podem_total").series():
            source = dict(series.labels)["source"]
            counts[source] = counts.get(source, 0) + series.value
        # Hits plus misses are exactly the logical calls of every order,
        # and later orders were mostly served from the memo.
        assert counts["computed"] + counts["memo"] == sum(
            r.podem_calls for r in results)
        assert counts["memo"] > counts["computed"]
        backtracks = registry.counter("repro_atpg_backtracks_total")
        assert backtracks.labels().value <= sum(r.backtracks for r in results)
        # Search time is observed for computed searches only.
        seconds = registry.histogram("repro_atpg_podem_seconds").series()
        assert sum(s.count for s in seconds) == counts["computed"]

    def test_engine_for_another_circuit_is_rejected(self, c17_circuit,
                                                    lion_circuit):
        with pytest.raises(AtpgError, match="bound to circuit"):
            generate_tests(c17_circuit, collapsed_fault_list(c17_circuit),
                           engine=PodemEngine(lion_circuit))


class TestRuntimeCharging:
    @pytest.mark.parametrize("model", sorted(GENERATORS))
    def test_runtime_independent_of_order_sequence(self, monkeypatch,
                                                   model):
        # A clock that moves only while PODEM searches, by one step plus
        # one per backtrack: a run's measured time is exactly the search
        # time it causes.
        now = [0.0]
        search = PodemEngine._search

        def timed_search(engine, fault, limit):
            result = search(engine, fault, limit)
            now[0] += 1.0 + result.backtracks
            return result

        monkeypatch.setattr(time, "perf_counter", lambda: now[0])
        monkeypatch.setattr(PodemEngine, "_search", timed_search)
        orders = list(ORDERS)
        forward = _flow(_generated(), model)
        backward = _flow(_generated(), model)
        first = {o: forward.tests(o).runtime_seconds for o in orders}
        second = {o: backward.tests(o).runtime_seconds
                  for o in reversed(orders)}
        assert first == second
        # ...and equal to what a fresh engine per order measures.
        generate = GENERATORS[model]
        for order in orders:
            fresh = generate(forward.circuit(),
                             forward.ordered_faults(order),
                             forward.config.testgen_config())
            assert fresh.runtime_seconds == first[order] > 0, order


class TestOutcomeMemo:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 300), data=st.data())
    def test_any_interleaving_matches_fresh_runs(self, seed, data):
        circ = generated_circuit(seed, num_inputs=7, num_gates=30,
                                 num_outputs=3, hardness=0.2)
        faults = full_universe(circ)
        calls = data.draw(st.lists(
            st.tuples(st.integers(0, len(faults) - 1),
                      st.sampled_from([0, 2, 200, None])),
            min_size=1, max_size=25,
        ))
        engine = PodemEngine(circ)
        seen = set()
        for index, limit in calls:
            fault = faults[index]
            got, hit = engine.outcome(fault, limit)
            want = PodemEngine(circ).run(fault, limit)
            assert hit == ((fault, limit) in seen)
            seen.add((fault, limit))
            assert (got.fault, got.status, got.cube, got.backtracks,
                    got.decisions) == (want.fault, want.status, want.cube,
                                       want.backtracks, want.decisions)

    def test_hit_returns_the_stored_result(self, c17_circuit):
        engine = PodemEngine(c17_circuit)
        fault = collapsed_fault_list(c17_circuit)[0]
        first, first_hit = engine.outcome(fault)
        again, again_hit = engine.outcome(fault)
        assert (first_hit, again_hit) == (False, True)
        assert again is first
        assert isinstance(first.cube, tuple)
        assert first.seconds > 0
        # A different limit is a different key.
        assert engine.outcome(fault, backtrack_limit=None)[1] is False
