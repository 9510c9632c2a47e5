"""Word-parallel fault simulation by fanout-free regions, on numpy ``uint64``.

The ``numpy`` entry of the backend registry (:mod:`repro.fsim.backend`).
Where the big-int PPSFP engine propagates one fault at a time with an
event queue, this engine simulates one *flip machine* per fanout-free
region (FFR) and finds every fault's detection word by tracing its
unique path to the region's root:

* the pattern block is packed into ``W = ceil(P / 64)`` ``uint64`` words
  and the circuit is levelized **once** per backend instance into
  contiguous per-level gate arrays (:class:`repro.sim.npsim.LevelSchedule`);
* **per engine** every node records its FFR *root* — the nearest node
  downstream (itself included) that drives other than exactly one gate
  pin, or is a primary output — plus the pin by which it feeds its unique
  consumer and its depth below the root;
* **per loaded block** the fault-free values give each gate pin a
  side-input sensitization word (AND/NAND: every other input is 1,
  OR/NOR: every other input is 0, always for XOR/XNOR/BUF/NOT and
  1-input gates), and ``sens(n)``, the patterns under which flipping
  ``n`` flips its root, follows with one vectorized gather per FFR depth:
  ``sens(n) = sens(consumer) & pin_sens(consumer, pin)``;
* **per query** only the roots of the queried faults are simulated, each
  batch of roots as a ``(num_nodes, B, W)`` tensor with the root's value
  complemented, skipping every level below the batch's lowest root; the
  OR over primary outputs of ``flipped XOR fault-free`` is ``obs(root)``
  (all ones for a primary-output root).  Then, in one vectorized AND over
  all faults, masked to the block width::

      D(f) = activation(f) & sens(site) [& pin_sens(gate, pin)] & obs(root)

  where the bracketed term applies to a branch fault on ``(gate, pin)``.

**Why it is exact.** Every node strictly inside an FFR feeds exactly one
gate pin, so a fault effect inside the region has exactly one path to the
root, and no side input along that path depends on the fault site.  The
root is therefore either complemented (activation, and every side input
on the path non-controlling) or unchanged; beyond the root the faulty
machine *is* the flip machine.  Detection sets stay packed:
:meth:`NumpyFaultSim.detection_matrix` hands the ``uint64`` tensor to
consumers as a :class:`repro.utils.detmatrix.DetectionMatrix` with no
big-int round-trip (``detection_words`` is the compatibility view).

The Python-level cost of a query is proportional to the gate groups and
single gates per level (:class:`LevelSchedule` evaluates a narrow level
gate by gate, in place) times the number of root batches, not to
``gates × faults``; see ``benchmarks/bench_fsim_backends.py`` for the
measured speedup.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence

import numpy as np

from repro.circuit.flatten import CompiledCircuit
from repro.circuit.gate_types import controlling_value
from repro.errors import SimulationError
from repro.faults.model import Fault, check_fault
from repro.fsim.backend import BackendCapabilities
from repro.fsim.transition import TwoPatternSupport
from repro.sim.npsim import (
    ONES64,
    LevelSchedule,
    matrix_row_to_int,
    simulate_matrix_levelized,
    words_to_matrix,
)
from repro.sim.patterns import PatternSet
from repro.telemetry import span
from repro.utils.detmatrix import DetectionMatrix

#: Soft cap on the flip-machine value tensor, in bytes; batches fit it.
DEFAULT_BATCH_BYTES = 128 << 20

#: Hard cap on roots per batch (keeps per-level scatter lists short).
MAX_BATCH_ROOTS = 1024


class NumpyFaultSim(TwoPatternSupport):
    """Fanout-free-region fault-simulation backend over ``uint64`` words.

    Conforms to :class:`repro.fsim.backend.FaultSimBackend`.  Construction
    levelizes the circuit and decomposes it into fanout-free regions;
    :meth:`load` packs and simulates the fault-free block and derives its
    sensitization words; :meth:`detection_matrix` simulates one flip
    machine per region root and traces each fault to its root.  Transition
    queries (``load_pairs`` / ``transition_detection_words``, from
    :class:`repro.fsim.transition.TwoPatternSupport`) simulate the launch
    half through the same :class:`LevelSchedule` and feed the capture half
    to the stuck-at path, so the expensive part stays vectorized.
    """

    name = "numpy"
    capabilities = BackendCapabilities(
        batched=True, incremental=False,
        description="levelized uint64 fanout-free-region flip machines",
    )

    def __init__(self, circ: CompiledCircuit,
                 max_batch_bytes: int = DEFAULT_BATCH_BYTES):
        self.circ = circ
        self.schedule = LevelSchedule(circ)
        self._level_numbers = [level.number for level in self.schedule.levels]
        self.max_batch_bytes = max_batch_bytes
        self._good: Optional[np.ndarray] = None  # (num_nodes, W)
        self._sens: Optional[np.ndarray] = None  # (num_nodes, W)
        self._pin_sens: Optional[np.ndarray] = None  # (num_pins + 1, W)
        self._good_ints: Optional[List[int]] = None
        self._num_patterns = 0
        self._num_words = 0
        self._tail_mask = ONES64
        self._build_regions()

    def _build_regions(self) -> None:
        """Per-node FFR root and consumer edge, per-depth gather arrays."""
        circ = self.circ
        num_nodes = circ.num_nodes
        arity = np.fromiter((len(srcs) for srcs in circ.fanin), np.int64,
                            num_nodes)
        #: Flat pin ``pin_offset[g] + p`` is pin ``p`` of gate ``g``; the
        #: extra last row of the pin table is the all-ones "no pin" row.
        self._pin_offset = np.concatenate(([0], np.cumsum(arity)[:-1]))
        self._pin_src = np.fromiter(
            (src for srcs in circ.fanin for src in srcs), np.int64,
            int(arity.sum()))
        self._num_pins = len(self._pin_src)

        root = np.arange(num_nodes)
        depth = np.zeros(num_nodes, dtype=np.int64)
        edge = np.full(num_nodes, -1, dtype=np.int64)
        consumer = np.full(num_nodes, -1, dtype=np.int64)
        for node in reversed(range(num_nodes)):  # consumers have larger ids
            outs = circ.fanout[node]
            if len(outs) == 1 and not circ.is_output[node]:
                gate = outs[0]
                root[node] = root[gate]
                depth[node] = depth[gate] + 1
                consumer[node] = gate
                pin = circ.fanin[gate].index(node)
                edge[node] = self._pin_offset[gate] + pin
        self._root = root
        self._levels = np.asarray(circ.level, dtype=np.int64)
        self._by_level = np.argsort(self._levels, kind="stable")
        self._sorted_levels = self._levels[self._by_level]
        self._is_output = np.asarray(circ.is_output, dtype=bool)
        self._outputs = np.asarray(circ.outputs, dtype=np.int64)
        self._depth_steps = [
            (nodes, consumer[nodes], edge[nodes])
            for nodes in (np.flatnonzero(depth == d)
                          for d in range(1, int(depth.max(initial=0)) + 1))
        ]

        # Gates whose side inputs can block a pin: (controlling value,
        # source matrix, first flat pin) per (controlling value, arity).
        buckets: dict = {}
        for gate in circ.gate_nodes():
            ctrl = controlling_value(circ.node_type[gate])
            if ctrl is not None and arity[gate] > 1:
                buckets.setdefault((ctrl, int(arity[gate])), []).append(gate)
        self._side_groups = [
            (ctrl, np.asarray([circ.fanin[g] for g in gates]),
             self._pin_offset[gates])
            for (ctrl, _), gates in sorted(buckets.items())
        ]

    # -- FaultSimBackend interface -------------------------------------------

    def load(self, patterns: PatternSet) -> None:
        """Simulate the fault-free block and derive its sensitization words."""
        if patterns.num_inputs != self.circ.num_inputs:
            raise SimulationError(
                f"{self.circ.name}: pattern set has {patterns.num_inputs} "
                f"inputs, circuit has {self.circ.num_inputs}"
            )
        matrix = words_to_matrix(patterns.words, patterns.num_patterns)
        with span("fsim.good_sim", patterns=patterns.num_patterns):
            good = simulate_matrix_levelized(
                self.circ, matrix, schedule=self.schedule
            )
        self._good = good
        self._good_ints = None
        self._num_patterns = patterns.num_patterns
        self._num_words = matrix.shape[1]
        tail_bits = patterns.num_patterns - 64 * (self._num_words - 1)
        self._tail_mask = (
            ONES64 if tail_bits >= 64
            else np.uint64((1 << max(tail_bits, 0)) - 1)
        )
        self._launch_good = None
        self._sensitize(good)

    def _sensitize(self, good: np.ndarray) -> None:
        """Pin sensitization words, then ``sens(n)`` FFR depth by FFR depth."""
        pin_sens = np.full((self._num_pins + 1, good.shape[1]), ONES64,
                           dtype=np.uint64)
        for ctrl, srcs, first_pin in self._side_groups:
            # A side input is non-controlling when it is 1 (AND family)
            # or 0 (OR family).
            side = good[srcs]
            if ctrl == 1:
                side ^= ONES64
            for pin in range(srcs.shape[1]):
                others = np.delete(side, pin, axis=1)
                pin_sens[first_pin + pin] = np.bitwise_and.reduce(others,
                                                                  axis=1)
        sens = np.full_like(good, ONES64)
        for nodes, consumers, edges in self._depth_steps:
            sens[nodes] = sens[consumers] & pin_sens[edges]
        self._pin_sens = pin_sens
        self._sens = sens

    def _launch_values(self, patterns: PatternSet) -> List[int]:
        """Launch-half fault-free words via the levelized matrix simulator."""
        matrix = words_to_matrix(patterns.words, patterns.num_patterns)
        values = simulate_matrix_levelized(
            self.circ, matrix, schedule=self.schedule
        )
        return [
            matrix_row_to_int(values[node], patterns.num_patterns)
            for node in range(self.circ.num_nodes)
        ]

    @property
    def num_patterns(self) -> int:
        """Width of the loaded block (0 before :meth:`load`)."""
        return self._num_patterns

    @property
    def good_values(self) -> List[int]:
        """Fault-free node words as big-ints (PPSFP-compatible view)."""
        good = self._require_loaded()
        if self._good_ints is None:
            self._good_ints = [
                matrix_row_to_int(good[node], self._num_patterns)
                for node in range(self.circ.num_nodes)
            ]
        return self._good_ints

    def detection_word(self, fault: Fault) -> int:
        """Single-fault query (a batch of one — prefer batched calls)."""
        return self.detection_words([fault])[0]

    def detection_matrix(self, faults: Sequence[Fault]) -> DetectionMatrix:
        """Packed detection matrix of every fault — the native query.

        Builds the ``(num_faults, num_words)`` uint64 tensor directly; no
        big-int round-trip anywhere.
        """
        good = self._require_loaded()
        for fault in faults:
            check_fault(self.circ, fault)
        if not faults or self._num_patterns == 0:
            return DetectionMatrix.zeros(len(faults), self._num_patterns)
        count = len(faults)
        nodes = np.fromiter((f.node for f in faults), np.int64, count)
        pins = np.fromiter((f.pin for f in faults), np.int64, count)
        stuck = np.fromiter((f.value for f in faults), np.int64, count)
        branch = pins >= 0
        pin_rows = np.where(branch, self._pin_offset[nodes] + pins,
                            self._num_pins)
        sites = nodes.copy()  # the line a branch fault sits on is its source
        sites[branch] = self._pin_src[pin_rows[branch]]
        roots, root_rows = np.unique(self._root[nodes], return_inverse=True)

        rows = good[sites]
        rows[stuck == 1] ^= ONES64  # activated where the line is not stuck
        rows &= self._sens[nodes]
        rows &= self._pin_sens[pin_rows]
        rows &= self._observability(good, roots)[root_rows]
        rows[:, -1] &= self._tail_mask
        return DetectionMatrix(rows, self._num_patterns)

    def detection_words(self, faults: Sequence[Fault]) -> List[int]:
        """Detection word of every fault, in input order (big-int view)."""
        return self.detection_matrix(faults).to_bigints()

    def detected_faults(self, faults: Sequence[Fault]) -> List[Fault]:
        """Subset of ``faults`` detected by at least one loaded pattern."""
        words = self.detection_words(faults)
        return [f for f, w in zip(faults, words) if w]

    # -- internals ------------------------------------------------------------

    def _require_loaded(self) -> np.ndarray:
        if self._good is None:
            raise SimulationError("no pattern block loaded; call load() first")
        return self._good

    def _batch_size(self) -> int:
        per_root = self.circ.num_nodes * max(self._num_words, 1) * 8
        fit = max(1, self.max_batch_bytes // max(per_root, 1))
        return int(min(fit, MAX_BATCH_ROOTS))

    def _observability(self, good: np.ndarray,
                       roots: np.ndarray) -> np.ndarray:
        """``obs(root)``: the patterns where flipping the root is observed.

        Primary-output roots are observed everywhere; the others are
        simulated as flip machines, in batches sorted by level.
        """
        obs = np.full((len(roots), good.shape[1]), ONES64, dtype=np.uint64)
        inner = np.flatnonzero(~self._is_output[roots])
        if not len(inner):
            return obs
        inner = inner[np.argsort(self._levels[roots[inner]], kind="stable")]
        batch = self._batch_size()
        with span("fsim.stem_obs", roots=len(inner)):
            for start in range(0, len(inner), batch):
                chunk = inner[start:start + batch]
                obs[chunk] = self._flip_batch(good, roots[chunk])
        return obs

    def _flip_batch(self, good: np.ndarray,
                    roots: np.ndarray) -> np.ndarray:
        """Simulate one flip machine per root (sorted by level); ``(B, W)``."""
        values = np.empty((good.shape[0], len(roots), good.shape[1]),
                          dtype=np.uint64)
        levels = self._levels[roots]
        lowest = int(levels[0])
        # Nodes above the lowest root are all re-evaluated below.
        held = self._by_level[:np.searchsorted(self._sorted_levels, lowest,
                                               side="right")]
        values[held] = good[held, None, :]
        numbers, firsts = np.unique(levels, return_index=True)
        ends = np.append(firsts[1:], len(roots))
        flips = {  # level -> (roots complemented there, their batch rows)
            int(number): (roots[i:j], np.arange(i, j))
            for number, i, j in zip(numbers, firsts, ends)
        }
        nodes, at = flips[lowest]
        values[nodes, at] = good[nodes] ^ ONES64
        start = bisect_right(self._level_numbers, lowest)
        for level in self.schedule.levels[start:]:
            self.schedule.eval_level(level, values)
            flip = flips.get(level.number)
            if flip is not None:
                nodes, at = flip
                values[nodes, at] = good[nodes] ^ ONES64
        out = self._outputs
        diff = values[out] ^ good[out][:, None, :]
        return np.bitwise_or.reduce(diff, axis=0)
