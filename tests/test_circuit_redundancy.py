"""Tests for redundancy identification, netlist simplification and the
irredundant-circuit flow."""

import pytest

from repro.circuit import (
    Circuit,
    GateType,
    compile_circuit,
    redundant_demo,
    to_netlist,
)
from repro.circuit.redundancy import (
    find_undetectable,
    make_irredundant,
    simplify_constants,
    tie_fault_line,
)
from repro.circuit.generator import generate_circuit
from repro.experiments import suite
from repro.faults import collapsed_fault_list
from repro.sim import PatternSet, simulate_outputs
from repro.telemetry import MetricsRegistry, scoped_registry

from helpers import generated_circuit


def _functionally_equal(a, b, num_inputs, samples=512):
    patterns = (
        PatternSet.exhaustive(num_inputs)
        if num_inputs <= 9
        else PatternSet.random(num_inputs, samples, seed=77)
    )
    return simulate_outputs(a, patterns) == simulate_outputs(b, patterns)


class TestSimplifyConstants:
    def _compile(self, build):
        c = Circuit()
        build(c)
        return c

    def test_and_with_const0(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("k", GateType.CONST0, ())
        c.add_gate("y", GateType.AND, ("a", "k"))
        c.add_output("y")
        simplified = simplify_constants(c)
        compiled = compile_circuit(simplified)
        assert compiled.node_type[compiled.node_of("y")] == GateType.CONST0

    def test_and_identity_input_dropped(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate("k", GateType.CONST1, ())
        c.add_gate("y", GateType.AND, ("a", "k", "b"))
        c.add_output("y")
        compiled = compile_circuit(simplify_constants(c))
        y = compiled.node_of("y")
        assert compiled.node_type[y] == GateType.AND
        assert len(compiled.fanin[y]) == 2

    def test_nand_collapses_to_not(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("k", GateType.CONST1, ())
        c.add_gate("y", GateType.NAND, ("a", "k"))
        c.add_output("y")
        compiled = compile_circuit(simplify_constants(c))
        assert compiled.node_type[compiled.node_of("y")] == GateType.NOT

    def test_xor_pair_cancellation(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate("y", GateType.XOR, ("a", "a", "b"))
        c.add_output("y")
        compiled = compile_circuit(simplify_constants(c))
        y = compiled.node_of("y")
        assert compiled.node_type[y] == GateType.BUF
        assert compiled.fanin[y] == (compiled.node_of("b"),)

    def test_xor_const_folds_to_not(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("k", GateType.CONST1, ())
        c.add_gate("y", GateType.XOR, ("a", "k"))
        c.add_output("y")
        compiled = compile_circuit(simplify_constants(c))
        assert compiled.node_type[compiled.node_of("y")] == GateType.NOT

    def test_duplicate_or_inputs_deduped(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("y", GateType.OR, ("a", "a"))
        c.add_output("y")
        compiled = compile_circuit(simplify_constants(c))
        assert compiled.node_type[compiled.node_of("y")] == GateType.BUF

    def test_dead_logic_trimmed(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("dead", GateType.NOT, ("a",))
        c.add_gate("y", GateType.BUF, ("a",))
        c.add_output("y")
        simplified = simplify_constants(c)
        assert "dead" not in [g.name for g in simplified.gates]

    def test_function_preserved_on_small_circuits(self, small_circuit):
        netlist = to_netlist(small_circuit)
        simplified = compile_circuit(simplify_constants(netlist))
        assert _functionally_equal(
            small_circuit, simplified, small_circuit.num_inputs
        )

    def test_sequential_rejected(self):
        from repro.errors import CircuitStructureError

        c = Circuit()
        c.add_input("d")
        c.add_dff("q", "d")
        c.add_output("q")
        with pytest.raises(CircuitStructureError):
            simplify_constants(c)


class TestFindUndetectable:
    def test_irredundant_circuit_clean(self, c17_circuit):
        undetectable, aborted = find_undetectable(c17_circuit)
        assert undetectable == []
        assert aborted == []

    def test_redundant_demo_found(self, redundant_circuit):
        undetectable, aborted = find_undetectable(redundant_circuit)
        assert undetectable
        assert aborted == []

    def test_searches_show_in_podem_metrics(self, redundant_circuit):
        registry = MetricsRegistry()
        with scoped_registry(registry):
            undetectable, _ = find_undetectable(redundant_circuit,
                                                prefilter_patterns=0)
        searched = len(collapsed_fault_list(redundant_circuit))
        counts = {dict(s.labels)["status"]: s.value for s in
                  registry.counter("repro_atpg_podem_total").series()}
        assert sum(counts.values()) == searched
        assert counts["undetectable"] == len(undetectable)
        seconds = registry.histogram("repro_atpg_podem_seconds").series()
        assert sum(s.count for s in seconds) == searched


class TestTieFaultLine:
    def test_tie_preserves_function_for_undetectable(self, redundant_circuit):
        undetectable, __ = find_undetectable(redundant_circuit)
        for fault in undetectable:
            tied = compile_circuit(tie_fault_line(redundant_circuit, fault))
            assert _functionally_equal(
                redundant_circuit, tied, redundant_circuit.num_inputs
            ), fault.describe(redundant_circuit)


class TestMakeIrredundant:
    def test_demo_becomes_wire(self, redundant_circuit):
        result = make_irredundant(redundant_circuit)
        assert result.is_proven_irredundant
        assert result.removed
        # y = a·b + a·¬b == a: the result should be tiny.
        assert result.circuit.num_gates <= 2
        assert _functionally_equal(redundant_circuit, result.circuit, 2)
        undetectable, __ = find_undetectable(result.circuit)
        assert undetectable == []

    def test_sequential_removal_preserves_function(self):
        circ = generated_circuit(31, num_inputs=7, num_gates=30,
                                 num_outputs=4)
        result = make_irredundant(circ, max_passes=40)
        assert _functionally_equal(circ, result.circuit, 7)
        undetectable, __ = find_undetectable(result.circuit)
        assert undetectable == []

    def test_batch_mode_converges_to_irredundant(self):
        circ = generated_circuit(32, num_inputs=7, num_gates=36,
                                 num_outputs=4, hardness=0.1)
        result = make_irredundant(circ, batch=True, max_passes=10)
        undetectable, aborted = find_undetectable(result.circuit)
        assert undetectable == []
        # Interface is preserved even in batch mode.
        assert result.circuit.num_inputs == circ.num_inputs
        assert result.circuit.num_outputs == circ.num_outputs

    def test_rename(self, redundant_circuit):
        result = make_irredundant(redundant_circuit, name="irdemo")
        assert result.circuit.name == "irdemo"

    def test_already_irredundant_is_noop(self, c17_circuit):
        result = make_irredundant(c17_circuit)
        assert result.removed == []
        assert result.passes == 1
        assert result.circuit.node_type == c17_circuit.node_type


class TestLastAnalysis:
    """Aborts are named in the circuit the last analysis ran on, and only
    a clean analysis of the returned circuit proves it irredundant."""

    @pytest.mark.parametrize("seed", [1, 3])
    def test_pass_limit_names_aborts_in_their_circuit(self, seed):
        circ = generated_circuit(seed, num_inputs=10, num_gates=60,
                                 num_outputs=4, hardness=0.3)
        __, aborted = find_undetectable(circ, backtrack_limit=2)
        result = make_irredundant(circ, backtrack_limit=2, batch=True,
                                  max_passes=1)
        assert result.removed
        assert result.aborted == [f.describe(circ) for f in aborted]
        assert not result.is_proven_irredundant

    def test_irs344_recipe_at_the_pass_limit(self):
        raw = generate_circuit(
            suite._generator_spec(suite.suite_entry("irs344")))
        result = make_irredundant(raw, name="irs344", batch=True,
                                  backtrack_limit=600,
                                  prefilter_patterns=4096, max_passes=1)
        names = {f.describe(raw) for f in collapsed_fault_list(raw)}
        assert result.removed and result.aborted
        assert set(result.aborted) <= names
        assert not result.is_proven_irredundant

    def test_pass_limit_after_a_removal_is_not_proven(self,
                                                     redundant_circuit):
        result = make_irredundant(redundant_circuit, max_passes=1)
        assert result.removed
        assert result.aborted == []
        assert not result.is_proven_irredundant

    def test_no_progress_stop_is_not_proven(self, redundant_circuit,
                                            monkeypatch):
        monkeypatch.setattr("repro.circuit.redundancy.tie_fault_line",
                            lambda circ, fault: to_netlist(circ))
        result = make_irredundant(redundant_circuit)
        assert result.removed == []
        assert result.aborted == []
        assert result.passes == 1
        assert not result.is_proven_irredundant

    def test_no_pass_proves_nothing(self, c17_circuit):
        result = make_irredundant(c17_circuit, max_passes=0)
        assert result.passes == 0
        assert not result.is_proven_irredundant
