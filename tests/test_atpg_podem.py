"""Tests for PODEM: verdicts against exhaustive-simulation ground truth,
cube validity for every X completion, and undetectability proofs."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atpg import PodemEngine, PodemStatus, podem
from repro.faults import collapsed_fault_list, full_universe
from repro.fsim import detects, detection_words
from repro.sim import PatternSet, X

from helpers import generated_circuit


def _ground_truth(circ):
    """fault -> detectable? by exhaustive simulation."""
    faults = collapsed_fault_list(circ)
    words = detection_words(circ, faults, PatternSet.exhaustive(circ.num_inputs))
    return list(zip(faults, [bool(w) for w in words]))


class TestVerdictsMatchExhaustive:
    def test_small_circuits(self, small_circuit):
        if small_circuit.num_inputs > 8:
            return
        engine = PodemEngine(small_circuit)
        for fault, detectable in _ground_truth(small_circuit):
            result = engine.run(fault, backtrack_limit=None)
            expected = (
                PodemStatus.SUCCESS if detectable else PodemStatus.UNDETECTABLE
            )
            assert result.status == expected, fault.describe(small_circuit)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 400))
    def test_generated_circuits(self, seed):
        circ = generated_circuit(seed, num_inputs=7, num_gates=26,
                                 num_outputs=3)
        engine = PodemEngine(circ)
        for fault, detectable in _ground_truth(circ):
            result = engine.run(fault, backtrack_limit=None)
            expected = (
                PodemStatus.SUCCESS if detectable else PodemStatus.UNDETECTABLE
            )
            assert result.status == expected, fault.describe(circ)


class TestCubeValidity:
    def test_cube_detects_under_every_completion(self, lion_circuit):
        engine = PodemEngine(lion_circuit)
        for fault in collapsed_fault_list(lion_circuit):
            result = engine.run(fault)
            assert result.status == PodemStatus.SUCCESS
            # Read-only: a memoized cube is shared by every caller.
            assert isinstance(result.cube, tuple)
            x_positions = [i for i, v in enumerate(result.cube) if v == X]
            assert len(x_positions) <= 4
            for completion in itertools.product((0, 1),
                                                repeat=len(x_positions)):
                vec = list(result.cube)
                for pos, bit in zip(x_positions, completion):
                    vec[pos] = bit
                assert detects(lion_circuit, vec, fault), (
                    f"{fault.describe(lion_circuit)} escaped completion "
                    f"{completion}"
                )

    def test_cube_leaves_irrelevant_inputs_unassigned(self):
        # In a 2:1 mux, testing pb's path never needs input `a`... but
        # PODEM may assign it; the guarantee is only that SOME X remains
        # in trivially-separable circuits.  Use a 2-output circuit with
        # disjoint cones instead.
        from repro.circuit import Circuit, GateType, compile_circuit
        from repro.faults import Fault, STEM

        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_input("c")
        c.add_input("d")
        c.add_gate("y1", GateType.AND, ("a", "b"))
        c.add_gate("y2", GateType.OR, ("c", "d"))
        c.add_output("y1")
        c.add_output("y2")
        circ = compile_circuit(c)
        result = podem(circ, Fault(circ.node_of("y1"), STEM, 0))
        assert result.status == PodemStatus.SUCCESS
        # c and d are outside the fault cone's support: must stay X.
        assert result.cube[circ.node_of("c")] == X
        assert result.cube[circ.node_of("d")] == X


class TestSearchBehaviour:
    def test_backtrack_limit_aborts_eventually(self):
        # A wide AND chain with an unsatisfiable-looking... use a hard
        # random-resistant fault with limit 0: first backtrack aborts.
        circ = generated_circuit(11, num_inputs=8, num_gates=40,
                                 num_outputs=4, hardness=0.2)
        engine = PodemEngine(circ)
        statuses = set()
        for fault in collapsed_fault_list(circ):
            result = engine.run(fault, backtrack_limit=0)
            statuses.add(result.status)
            if result.status == PodemStatus.ABORTED:
                assert result.backtracks >= 1
        # With a zero budget at least one fault needs a backtrack.
        assert PodemStatus.ABORTED in statuses

    def test_stats_populated(self, c17_circuit):
        fault = collapsed_fault_list(c17_circuit)[0]
        result = podem(c17_circuit, fault)
        assert result.detected
        assert result.decisions >= 1
        assert result.fault == fault

    def test_redundant_fault_proven(self, redundant_circuit):
        truth = dict(_ground_truth(redundant_circuit))
        undetectable = [f for f, ok in truth.items() if not ok]
        assert undetectable, "fixture must contain redundancy"
        for fault in undetectable:
            result = podem(redundant_circuit, fault, backtrack_limit=None)
            assert result.status == PodemStatus.UNDETECTABLE
            assert result.cube is None

    def test_engine_reusable_across_faults(self, c17_circuit):
        engine = PodemEngine(c17_circuit)
        faults = collapsed_fault_list(c17_circuit)
        first = [engine.run(f).status for f in faults]
        second = [engine.run(f).status for f in faults]
        assert first == second

    def test_branch_fault_targeting(self, c17_circuit):
        # Branch faults exercise the faulty-pin injection path.
        branch_faults = [
            f for f in full_universe(c17_circuit) if f.is_branch
        ]
        assert branch_faults
        engine = PodemEngine(c17_circuit)
        for fault in branch_faults:
            result = engine.run(fault, backtrack_limit=None)
            assert result.status == PodemStatus.SUCCESS
            vec = [v if v != X else 0 for v in result.cube]
            assert detects(c17_circuit, vec, fault)
