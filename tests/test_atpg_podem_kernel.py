"""The PODEM implication kernel against the generic implication it replaced.

``PodemEngine._propagate`` evaluates gates with per-kind evaluators and
the faulty copy only inside the fault's fanout cone.  The oracle below is
the straightforward version: every node through :func:`eval_gate3`, both
copies everywhere.  The implication fixpoint does not depend on how it is
computed, so every objective, backtrace choice and backtrack must be the
same, and with them every reported field of every search.
"""

from heapq import heappop, heappush

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atpg import PodemEngine
from repro.circuit import Circuit, GateType, compile_circuit
from repro.circuit.redundancy import tie_fault_line
from repro.experiments import build_circuit
from repro.faults import STEM, Fault, collapsed_fault_list, full_universe
from repro.sim.threeval import X, eval_gate3

from helpers import generated_circuit


class GenericPodem(PodemEngine):
    """PODEM with the generic implication: no cone, no specialisation."""

    def _propagate(self, start_nodes, trail):
        circ, fault = self.circ, self._fault
        gval, fval = self._gval, self._fval
        heap, queued = [], set()
        for node in start_nodes:
            if node not in queued:
                queued.add(node)
                heappush(heap, node)
        while heap:
            node = heappop(heap)
            gtype = circ.node_type[node]
            srcs = circ.fanin[node]
            g = eval_gate3(gtype, [gval[s] for s in srcs])
            values = [fval[s] for s in srcs]
            if fault.is_branch and node == fault.node:
                values[fault.pin] = fault.value
            f = eval_gate3(gtype, values)
            if fault.is_stem and node == fault.node:
                f = fault.value
            if g == gval[node] and f == fval[node]:
                continue
            trail.append((node, gval[node], fval[node]))
            gval[node], fval[node] = g, f
            if g != X and f != X and g != f:
                self._d_nodes.add(node)
            else:
                self._d_nodes.discard(node)
            for nxt in circ.fanout[node]:
                if nxt not in queued:
                    queued.add(nxt)
                    heappush(heap, nxt)


def _fields(result):
    return (result.fault, result.status, result.cube, result.backtracks,
            result.decisions)


def _assert_same(circ, faults, limit):
    kernel, oracle = PodemEngine(circ), GenericPodem(circ)
    for fault in faults:
        assert (_fields(kernel.run(fault, limit))
                == _fields(oracle.run(fault, limit))), fault.describe(circ)


def _every_line_fault(circ):
    """Stem faults on every node and branch faults on every gate pin,
    including pins whose driver does not fan out."""
    lines = [(node, STEM) for node in range(circ.num_nodes)]
    lines += [(node, pin) for node in circ.gate_nodes()
              for pin in range(len(circ.fanin[node]))]
    return [Fault(node, pin, value) for node, pin in lines
            for value in (0, 1)]


@pytest.mark.parametrize("name", ["irs208", "irs298"])
def test_suite_collapsed_faults_at_limit_200(name):
    circ = build_circuit(name)
    _assert_same(circ, collapsed_fault_list(circ), 200)


def test_odd_gates_and_constants():
    """One-input AND/OR/XOR gates, repeated inputs and constant gates."""
    c = Circuit()
    for pi in "abcd":
        c.add_input(pi)
    c.add_gate("k0", GateType.CONST0, ())
    c.add_gate("k1", GateType.CONST1, ())
    c.add_gate("u", GateType.AND, ("a",))
    c.add_gate("v", GateType.NOR, ("b",))
    c.add_gate("w", GateType.XNOR, ("c",))
    c.add_gate("p", GateType.AND, ("u", "u", "k1"))
    c.add_gate("q", GateType.OR, ("v", "k0", "d"))
    c.add_gate("r", GateType.XOR, ("w", "p", "q", "k1"))
    c.add_gate("s", GateType.NAND, ("r", "a", "d"))
    c.add_gate("t", GateType.BUF, ("s",))
    c.add_gate("y", GateType.NOT, ("r",))
    for po in ("t", "y", "q"):
        c.add_output(po)
    circ = compile_circuit(c)
    for limit in (None, 1):
        _assert_same(circ, _every_line_fault(circ), limit)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), tie=st.integers(0, 10**6),
       hardness=st.sampled_from([0.0, 0.2]))
def test_generated_circuits_complete_search(seed, tie, hardness):
    """Complete searches on a generated circuit and on a copy with one
    line tied to a constant, over every stem and branch fault."""
    base = generated_circuit(seed, num_inputs=6, num_gates=24,
                             num_outputs=3, hardness=hardness)
    universe = full_universe(base)
    tied = compile_circuit(tie_fault_line(base, universe[tie % len(universe)]))
    assert any(t in (GateType.CONST0, GateType.CONST1)
               for t in tied.node_type)
    for circ in (base, tied):
        faults = _every_line_fault(circ)
        assert any(f.node < circ.num_inputs for f in faults)
        _assert_same(circ, faults, None)
