"""Differential tests of the fanout-free-region ``numpy`` engine.

:class:`repro.fsim.npfsim.NumpyFaultSim` answers a query with one flip
machine per fanout-free-region root plus path tracing inside each region
(pin sensitization words, ``sens(n)`` per depth, ``obs(root)``).  Every
query here is checked word for word against the serial oracle of
:mod:`repro.fsim.serial`, over:

* generated circuits and hand-built edge netlists (a source on two pins
  of one gate, a primary output that also fans out, a dangling node,
  BUF/NOT chains inside a region, 3- and 4-input gates, constants, a
  1-input AND);
* widths straddling the 64-bit word boundary;
* a stuck-at fault on every stem and every gate pin, a superset of
  :func:`repro.faults.full_universe`;
* the default batch size and ``max_batch_bytes=1`` (one root per flip
  batch);
* two different pattern blocks loaded back to back on one engine;
* transition faults through ``load_pairs``;
* both gate-evaluation paths of :class:`repro.sim.npsim.LevelSchedule`
  (every gate in a vectorized group, every gate evaluated alone).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, compile_circuit
from repro.circuit.gate_types import GateType
from repro.faults import TransitionFault, full_universe
from repro.faults.model import STEM, Fault
from repro.fsim.npfsim import NumpyFaultSim
from repro.fsim.serial import output_response
from repro.fsim.transition import initialization_word
from repro.sim.bitsim import simulate
from repro.sim.npsim import LevelSchedule
from repro.sim.patterns import PatternPairSet, PatternSet
from repro.utils.bitvec import full_mask
from repro.utils.detmatrix import DetectionMatrix

from helpers import generated_circuit

WIDTHS = (1, 63, 64, 65)
BATCH_BYTES = (1, None)  # one root per flip batch / the default

SETTINGS = dict(deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def every_line_fault(circ):
    """Both stuck values on every stem and on every gate pin."""
    lines = [(node, STEM) for node in range(circ.num_nodes)]
    lines += [(node, pin) for node in range(circ.num_nodes)
              for pin in range(len(circ.fanin[node]))]
    faults = [Fault(node, pin, value) for node, pin in lines
              for value in (0, 1)]
    assert set(full_universe(circ)) <= set(faults)
    return faults


def oracle_words(circ, patterns, faults):
    """Serial detection word per fault (fault-free responses shared)."""
    vectors = [patterns.vector(p) for p in range(patterns.num_patterns)]
    good = [output_response(circ, v) for v in vectors]
    words = []
    for fault in faults:
        word = 0
        for p, vector in enumerate(vectors):
            if output_response(circ, vector, fault) != good[p]:
                word |= 1 << p
        words.append(word)
    return words


def make_engine(circ, batch_bytes):
    if batch_bytes is None:
        return NumpyFaultSim(circ)
    engine = NumpyFaultSim(circ, max_batch_bytes=batch_bytes)
    assert engine._batch_size() == 1
    return engine


def assert_block_matches(engine, circ, patterns, faults):
    """Load ``patterns`` and compare the packed matrix with the oracle."""
    engine.load(patterns)
    got = engine.detection_matrix(faults)
    want = DetectionMatrix.from_bigints(
        oracle_words(circ, patterns, faults), patterns.num_patterns)
    assert got.num_patterns == patterns.num_patterns
    np.testing.assert_array_equal(got.words, want.words)


def assert_two_blocks_match(circ, width, batch_bytes, seed):
    """Two different blocks back to back on one engine, both exact."""
    engine = make_engine(circ, batch_bytes)
    faults = every_line_fault(circ)
    first = PatternSet.random(circ.num_inputs, width, seed=seed)
    second = PatternSet.random(circ.num_inputs, width, seed=seed + 1)
    assert_block_matches(engine, circ, first, faults)
    assert_block_matches(engine, circ, second, faults)


def assert_transitions_match(circ, width, batch_bytes, seed):
    engine = make_engine(circ, batch_bytes)
    faults = [TransitionFault(f.node, f.pin, f.value)
              for f in every_line_fault(circ)]
    pairs = PatternPairSet.random(circ.num_inputs, width, seed=seed)
    engine.load_pairs(pairs)
    got = engine.transition_detection_matrix(faults)
    launch = simulate(circ, pairs.launch)
    mask = full_mask(width)
    stuck = oracle_words(circ, pairs.capture,
                         [f.as_stuck_at() for f in faults])
    want = DetectionMatrix.from_bigints(
        (initialization_word(circ, launch, f, mask) & word
         for f, word in zip(faults, stuck)), width)
    np.testing.assert_array_equal(got.words, want.words)


# -- hand-built edge netlists -------------------------------------------------

def edge_netlist():
    """Every structural corner of the region decomposition in one netlist.

    * ``aa = AND(a, a)`` and ``xa = XOR(a, a)``: one source on two pins;
    * ``po`` is a primary output that also feeds ``g3`` (a region root
      observed everywhere, with fanout);
    * ``dang`` drives nothing and is not an output;
    * ``n1 -> n2 -> n3`` is a NOT/BUF/NOT chain inside ``g3``'s region;
    * ``g3`` has 3 inputs, ``g4`` 4, ``one`` is a 1-input AND;
    * ``k0``/``k1`` are constants feeding side inputs.
    """
    c = Circuit(name="ffr_edges")
    for pi in "abcde":
        c.add_input(pi)
    c.add_gate("k0", GateType.CONST0, ())
    c.add_gate("k1", GateType.CONST1, ())
    c.add_gate("aa", GateType.AND, ("a", "a"))
    c.add_gate("xa", GateType.XOR, ("a", "a"))
    c.add_gate("po", GateType.NAND, ("b", "c"))
    c.add_gate("dang", GateType.OR, ("c", "d"))
    c.add_gate("n1", GateType.NOT, ("e",))
    c.add_gate("n2", GateType.BUF, ("n1",))
    c.add_gate("n3", GateType.NOT, ("n2",))
    c.add_gate("g3", GateType.AND, ("n3", "po", "d"))
    c.add_gate("g4", GateType.NOR, ("aa", "xa", "b", "g3"))
    c.add_gate("o1", GateType.OR, ("k0", "g4", "e"))
    c.add_gate("x1", GateType.XNOR, ("k1", "o1"))
    c.add_gate("one", GateType.AND, ("x1",))
    c.add_gate("m", GateType.NAND, ("k1", "one", "aa"))
    for po in ("po", "m", "xa"):
        c.add_output(po)
    return compile_circuit(c)


def reconvergent_netlist():
    """Short regions meeting at wide gates, roots at several levels."""
    c = Circuit(name="ffr_reconv")
    for pi in "abcd":
        c.add_input(pi)
    c.add_gate("s", GateType.XOR, ("a", "b"))
    c.add_gate("t", GateType.OR, ("s", "c"))
    c.add_gate("u", GateType.NOR, ("s", "d", "a"))
    c.add_gate("v", GateType.AND, ("t", "u", "s", "b"))
    c.add_gate("w", GateType.NOT, ("v",))
    c.add_gate("y", GateType.XNOR, ("w", "t"))
    c.add_gate("z", GateType.BUF, ("u",))
    for po in ("y", "z", "v"):
        c.add_output(po)
    return compile_circuit(c)


EDGE_CIRCUITS = {"edges": edge_netlist, "reconvergent": reconvergent_netlist}


@pytest.mark.parametrize("name", sorted(EDGE_CIRCUITS))
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("batch_bytes", BATCH_BYTES)
def test_edge_netlists_match_oracle(name, width, batch_bytes):
    assert_two_blocks_match(EDGE_CIRCUITS[name](), width, batch_bytes,
                            seed=width)


@pytest.mark.parametrize("name", sorted(EDGE_CIRCUITS))
@pytest.mark.parametrize("width", WIDTHS)
def test_edge_netlists_transitions_match_oracle(name, width):
    assert_transitions_match(EDGE_CIRCUITS[name](), width, 1, seed=width)


def test_edge_netlist_has_the_advertised_shapes():
    circ = edge_netlist()
    node = circ.node_of
    engine = NumpyFaultSim(circ)
    assert circ.fanin[node("aa")] == (node("a"), node("a"))
    assert engine._root[node("a")] == node("a")  # two pins: its own root
    assert engine._root[node("n1")] == engine._root[node("g3")]
    assert circ.is_output[node("po")] and circ.fanout[node("po")]
    assert not circ.fanout[node("dang")]
    assert not circ.is_output[node("dang")]
    assert len(circ.fanin[node("one")]) == 1


@pytest.mark.parametrize("min_group", (1, 10**9))
def test_grouped_and_single_gate_evaluation_match_oracle(min_group,
                                                         monkeypatch):
    """Group every vectorizable gate, or evaluate every gate alone."""
    monkeypatch.setattr(LevelSchedule, "MIN_GROUP", min_group)
    for build in EDGE_CIRCUITS.values():
        assert_two_blocks_match(build(), 65, None, seed=min_group % 97)
    circ = generated_circuit(11, num_inputs=6, num_gates=30, num_outputs=3,
                             hardness=0.2)
    assert_two_blocks_match(circ, 64, None, seed=11)
    assert_transitions_match(circ, 63, None, seed=11)


@settings(max_examples=8, **SETTINGS)
@given(seed=st.integers(0, 10_000), width=st.sampled_from(WIDTHS),
       batch_bytes=st.sampled_from(BATCH_BYTES))
def test_edge_netlist_random_blocks(seed, width, batch_bytes):
    assert_two_blocks_match(edge_netlist(), width, batch_bytes, seed)


# -- generated circuits -------------------------------------------------------

@settings(max_examples=12, **SETTINGS)
@given(seed=st.integers(0, 10_000), width=st.sampled_from(WIDTHS),
       batch_bytes=st.sampled_from(BATCH_BYTES),
       hardness=st.sampled_from([0.0, 0.3]))
def test_generated_circuits_match_oracle(seed, width, batch_bytes,
                                         hardness):
    circ = generated_circuit(seed, num_inputs=6, num_gates=20,
                             num_outputs=3, hardness=hardness)
    assert_two_blocks_match(circ, width, batch_bytes, seed)


@settings(max_examples=6, **SETTINGS)
@given(seed=st.integers(0, 10_000), width=st.sampled_from(WIDTHS),
       batch_bytes=st.sampled_from(BATCH_BYTES))
def test_generated_circuits_transitions_match_oracle(seed, width,
                                                     batch_bytes):
    circ = generated_circuit(seed, num_inputs=6, num_gates=20,
                             num_outputs=3, hardness=0.2)
    assert_transitions_match(circ, width, batch_bytes, seed)


def test_queries_do_not_depend_on_query_order():
    """A subset query equals the same rows of the whole-universe query."""
    circ = generated_circuit(5, num_inputs=7, num_gates=40, num_outputs=4)
    faults = every_line_fault(circ)
    engine = NumpyFaultSim(circ)
    engine.load(PatternSet.random(circ.num_inputs, 65, seed=3))
    whole = engine.detection_matrix(faults).words
    picks = list(range(len(faults)))[::-3]
    part = engine.detection_matrix([faults[i] for i in picks]).words
    np.testing.assert_array_equal(part, whole[picks])
