"""Numpy ``uint64`` bit-parallel simulation backend.

Same semantics as :mod:`repro.sim.bitsim` with signals stored as rows of a
``(num_nodes, num_words)`` ``uint64`` matrix, 64 patterns per word.  This
backend exists as an ablation (DESIGN.md §6): for very wide pattern blocks
it amortizes per-gate dispatch over vectorized words, while the big-int
backend does one Python op per gate regardless of width.  The benchmark
``bench_ablation_backends.py`` measures the crossover.

:class:`LevelSchedule` levelizes a circuit once into contiguous per-level
gate arrays so that one numpy gather/op/scatter evaluates a whole group of
same-typed gates at a time; the few gates of a narrow level are evaluated
one by one with ufuncs writing into their rows.  It is the shared propagation core of both the
levelized true-value simulation here and the batched fault simulator in
:mod:`repro.fsim.npfsim` (the same schedule propagates ``(num_nodes, W)``
and ``(num_nodes, B, W)`` value tensors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.circuit.flatten import CompiledCircuit
from repro.circuit.gate_types import GateType
from repro.errors import SimulationError
from repro.sim.patterns import PatternSet

ONES64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def words_to_matrix(input_words: Sequence[int], num_patterns: int) -> np.ndarray:
    """Convert big-int input words to a ``(num_inputs, num_words)`` matrix."""
    num_words = max(1, (num_patterns + 63) // 64)
    out = np.zeros((len(input_words), num_words), dtype=np.uint64)
    for i, word in enumerate(input_words):
        raw = word.to_bytes(num_words * 8, "little")
        out[i] = np.frombuffer(raw, dtype="<u8")
    return out


def matrix_row_to_int(row: np.ndarray, num_patterns: int) -> int:
    """Convert one uint64 row back to a big-int, masked to ``num_patterns``."""
    value = int.from_bytes(row.astype("<u8").tobytes(), "little")
    return value & ((1 << num_patterns) - 1)


def simulate_matrix(circ: CompiledCircuit, inputs: np.ndarray) -> np.ndarray:
    """Simulate all nodes; returns a ``(num_nodes, num_words)`` matrix."""
    if inputs.shape[0] != circ.num_inputs:
        raise SimulationError(
            f"{circ.name}: matrix has {inputs.shape[0]} input rows, "
            f"expected {circ.num_inputs}"
        )
    num_words = inputs.shape[1]
    values = np.zeros((circ.num_nodes, num_words), dtype=np.uint64)
    values[: circ.num_inputs] = inputs
    ones = np.uint64(0xFFFFFFFFFFFFFFFF)

    node_type = circ.node_type
    fanin = circ.fanin
    for node in range(circ.num_inputs, circ.num_nodes):
        gtype = node_type[node]
        srcs = fanin[node]
        if gtype == GateType.AND or gtype == GateType.NAND:
            acc = values[srcs[0]].copy()
            for s in srcs[1:]:
                acc &= values[s]
            values[node] = acc if gtype == GateType.AND else acc ^ ones
        elif gtype == GateType.OR or gtype == GateType.NOR:
            acc = values[srcs[0]].copy()
            for s in srcs[1:]:
                acc |= values[s]
            values[node] = acc if gtype == GateType.OR else acc ^ ones
        elif gtype == GateType.XOR or gtype == GateType.XNOR:
            acc = values[srcs[0]].copy()
            for s in srcs[1:]:
                acc ^= values[s]
            values[node] = acc if gtype == GateType.XOR else acc ^ ones
        elif gtype == GateType.BUF:
            values[node] = values[srcs[0]]
        elif gtype == GateType.NOT:
            values[node] = values[srcs[0]] ^ ones
        elif gtype == GateType.CONST0:
            values[node] = 0
        elif gtype == GateType.CONST1:
            values[node] = ones
        else:
            raise SimulationError(f"cannot evaluate node type {gtype!r}")
    return values


@dataclass(frozen=True)
class GateGroup:
    """Same-typed, same-arity gates of one level, as contiguous arrays.

    ``nodes[k]`` is evaluated from ``srcs[0][k], srcs[1][k], ...`` — one
    numpy gather per pin, one op per group, one scatter back.
    """

    gtype: GateType
    nodes: np.ndarray  # (G,) int64 node ids
    srcs: Tuple[np.ndarray, ...]  # arity arrays of (G,) int64 fanin ids


@dataclass(frozen=True)
class Level:
    """One topological level: vectorized groups plus single gates."""

    number: int
    groups: Tuple[GateGroup, ...]
    #: Gates evaluated one at a time, in place:
    #: ``(node, reduce ufunc or None, invert, fanin ids)``.
    singles: Tuple[Tuple[int, object, bool, Tuple[int, ...]], ...]


#: Per gate type: the ufunc folding its inputs (``None`` for BUF/NOT and
#: constants) and whether the result is inverted.
_SINGLE_OPS = {
    GateType.AND: (np.bitwise_and, False),
    GateType.NAND: (np.bitwise_and, True),
    GateType.OR: (np.bitwise_or, False),
    GateType.NOR: (np.bitwise_or, True),
    GateType.XOR: (np.bitwise_xor, False),
    GateType.XNOR: (np.bitwise_xor, True),
    GateType.BUF: (None, False),
    GateType.NOT: (None, True),
    GateType.CONST0: (None, False),
    GateType.CONST1: (None, True),
}


class LevelSchedule:
    """A circuit levelized once into per-level contiguous gate arrays.

    Construction groups each level's 1- and 2-input gates by
    ``(gtype, arity)``; a group of at least :attr:`MIN_GROUP` gates is
    evaluated with one numpy gather/op/scatter, everything else
    (constants, wider gates, small groups) one gate at a time with
    ufuncs writing straight into the gate's row.  :meth:`eval_level`
    works on any value tensor whose leading axis is the node id —
    ``(N, W)`` for true-value simulation, ``(N, B, W)`` for batched fault
    simulation — because numpy indexing is shape-agnostic past axis 0.
    """

    #: Gate types eval_level vectorizes at each arity; anything else —
    #: including degenerate 1-input AND/OR/... — is a single gate.
    VECTORIZED_1 = frozenset({GateType.BUF, GateType.NOT})
    VECTORIZED_2 = frozenset({
        GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
        GateType.XOR, GateType.XNOR,
    })

    #: Smallest same-typed group worth a gather/op/scatter round trip;
    #: below it, in-place per-gate ufuncs are cheaper (deep, narrow
    #: circuits have one or two gates per level).
    MIN_GROUP = 4

    def __init__(self, circ: CompiledCircuit):
        self.circ = circ
        by_level: dict = {}
        for node in circ.gate_nodes():
            by_level.setdefault(circ.level[node], []).append(node)

        levels: List[Level] = []
        for lvl in sorted(by_level):
            buckets: dict = {}
            singles = []
            for node in by_level[lvl]:
                gtype = circ.node_type[node]
                srcs = circ.fanin[node]
                vectorized = (
                    gtype in self.VECTORIZED_1 if len(srcs) == 1
                    else gtype in self.VECTORIZED_2 if len(srcs) == 2
                    else False
                )
                if vectorized:
                    buckets.setdefault((gtype, len(srcs)), []).append(node)
                else:
                    singles.append(node)
            groups = []
            for (gtype, arity), nodes in sorted(buckets.items()):
                if len(nodes) < self.MIN_GROUP:
                    singles.extend(nodes)
                    continue
                node_arr = np.asarray(nodes, dtype=np.int64)
                src_arrs = tuple(
                    np.asarray([circ.fanin[n][pin] for n in nodes],
                               dtype=np.int64)
                    for pin in range(arity)
                )
                groups.append(GateGroup(gtype, node_arr, src_arrs))
            levels.append(Level(lvl, tuple(groups), tuple(
                self._single(circ, node) for node in sorted(singles))))
        self.levels: Tuple[Level, ...] = tuple(levels)

    @staticmethod
    def _single(circ: CompiledCircuit, node: int):
        """The ``Level.singles`` entry evaluating ``node`` on its own."""
        gtype = circ.node_type[node]
        if gtype not in _SINGLE_OPS:
            raise SimulationError(f"cannot evaluate node type {gtype!r}")
        reduce, invert = _SINGLE_OPS[gtype]
        return (node, reduce, invert, tuple(circ.fanin[node]))

    def eval_level(self, level: Level, values: np.ndarray) -> None:
        """Evaluate one level's gates in place on a value tensor."""
        for group in level.groups:
            gtype = group.gtype
            a = values[group.srcs[0]]
            if len(group.srcs) == 2:
                b = values[group.srcs[1]]
                if gtype == GateType.AND:
                    out = a & b
                elif gtype == GateType.NAND:
                    out = (a & b) ^ ONES64
                elif gtype == GateType.OR:
                    out = a | b
                elif gtype == GateType.NOR:
                    out = (a | b) ^ ONES64
                elif gtype == GateType.XOR:
                    out = a ^ b
                elif gtype == GateType.XNOR:
                    out = (a ^ b) ^ ONES64
                else:
                    raise SimulationError(
                        f"cannot evaluate 2-input node type {gtype!r}"
                    )
            else:
                if gtype == GateType.BUF:
                    out = a
                elif gtype == GateType.NOT:
                    out = a ^ ONES64
                else:
                    raise SimulationError(
                        f"cannot evaluate 1-input node type {gtype!r}"
                    )
            values[group.nodes] = out
        for node, reduce, invert, srcs in level.singles:
            out = values[node]
            if not srcs:  # CONST0 / CONST1
                out.fill(ONES64 if invert else 0)
            elif len(srcs) == 1:  # BUF/NOT, or a 1-input AND/NAND/...
                if invert:
                    np.invert(values[srcs[0]], out=out)
                else:
                    np.copyto(out, values[srcs[0]])
            else:
                reduce(values[srcs[0]], values[srcs[1]], out=out)
                for src in srcs[2:]:
                    reduce(out, values[src], out=out)
                if invert:
                    np.invert(out, out=out)

    def propagate(self, values: np.ndarray) -> np.ndarray:
        """Run all levels over ``values`` (inputs already filled) in place."""
        for level in self.levels:
            self.eval_level(level, values)
        return values


def simulate_matrix_levelized(circ: CompiledCircuit, inputs: np.ndarray,
                              schedule: LevelSchedule | None = None
                              ) -> np.ndarray:
    """Like :func:`simulate_matrix`, but through a :class:`LevelSchedule`.

    Passing a prebuilt ``schedule`` amortizes levelization across calls;
    the fault-simulation backend does exactly that.
    """
    if inputs.shape[0] != circ.num_inputs:
        raise SimulationError(
            f"{circ.name}: matrix has {inputs.shape[0]} input rows, "
            f"expected {circ.num_inputs}"
        )
    if schedule is None:
        schedule = LevelSchedule(circ)
    values = np.zeros((circ.num_nodes,) + inputs.shape[1:], dtype=np.uint64)
    values[: circ.num_inputs] = inputs
    return schedule.propagate(values)


def simulate(circ: CompiledCircuit, patterns: PatternSet) -> List[int]:
    """Big-int-word interface over the numpy backend.

    Returns the same per-node big-int list as :func:`repro.sim.bitsim.
    simulate`, so the two backends are drop-in interchangeable (and the
    test suite asserts they agree).
    """
    if patterns.num_inputs != circ.num_inputs:
        raise SimulationError(
            f"{circ.name}: pattern set has {patterns.num_inputs} inputs, "
            f"circuit has {circ.num_inputs}"
        )
    matrix = words_to_matrix(patterns.words, patterns.num_patterns)
    values = simulate_matrix(circ, matrix)
    return [
        matrix_row_to_int(values[node], patterns.num_patterns)
        for node in range(circ.num_nodes)
    ]
