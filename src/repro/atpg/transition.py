"""Ordered two-pattern test generation for transition faults.

The paper's experimental procedure — walk the ordered fault list,
generate a test for each still-undetected fault, drop everything the new
test detects — carries over to transition faults with a pair-shaped
test: for a target with initial value ``b`` at line ``s``,

* the **capture** vector ``v2`` comes from PODEM on the stuck-at fault
  the slow line mimics (``s`` stuck-at-``b``), exactly the existing
  deterministic engine;
* the **launch** vector ``v1`` only has to *justify* ``s = b``.  A
  fault-free simulation of a fixed random pool answers that for almost
  every line with a single word lookup (bit-parallel: one pool
  simulation per run, one mask per fault); the rare pool-resistant lines
  fall back to PODEM on the *complementary* stuck-at fault
  (``s`` stuck-at-``1-b``), whose excitation condition is precisely
  ``s = b``.

By the two-pattern reduction the assembled pair is guaranteed to detect
its target, so — as in :mod:`repro.atpg.engine` — a target that fails to
drop indicates an engine bug and raises.  Fault dropping runs through
the selected fault-simulation backend's transition contract, so the
batched numpy engine accelerates it unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.atpg.engine import PodemTally, TestGenConfig
from repro.atpg.podem import PodemEngine, PodemStatus
from repro.atpg.random_fill import fill_cube
from repro.atpg.scoap import Scoap
from repro.circuit.flatten import CompiledCircuit
from repro.errors import AtpgError
from repro.faults.model import Fault
from repro.faults.sets import FaultStatus
from repro.faults.transition import TransitionFault
from repro.fsim.backend import resolve_backend
from repro.fsim.transition import launch_line_word
from repro.sim.bitsim import simulate
from repro.sim.patterns import PatternPairSet, PatternSet
from repro.utils.bitvec import full_mask
from repro.utils.rng import make_rng

#: Size of the random launch-justification pool (one simulation per run).
LAUNCH_POOL_SIZE = 256


@dataclass
class TransitionTestGenResult:
    """Everything an ordered two-pattern test-generation run produced.

    The two-pattern analogue of :class:`repro.atpg.engine.TestGenResult`:
    ``tests`` is a :class:`PatternPairSet`, ``detected_per_test[i]``
    counts the transition faults dropped by pair ``i``.
    """

    circuit_name: str
    tests: PatternPairSet
    status: Dict[TransitionFault, FaultStatus]
    detected_per_test: List[int]
    targeted_faults: List[TransitionFault]
    podem_calls: int = 0
    backtracks: int = 0
    launch_fallbacks: int = 0
    runtime_seconds: float = 0.0

    @property
    def num_tests(self) -> int:
        """Size of the generated pair set."""
        return self.tests.num_patterns

    @property
    def num_detected(self) -> int:
        """Transition faults detected by the final test set."""
        return sum(
            1 for s in self.status.values() if s == FaultStatus.DETECTED
        )

    @property
    def num_undetectable(self) -> int:
        """Faults proven undetectable during the run."""
        return sum(
            1 for s in self.status.values() if s == FaultStatus.UNDETECTABLE
        )

    @property
    def num_aborted(self) -> int:
        """Faults abandoned at the backtrack limit."""
        return sum(
            1 for s in self.status.values() if s == FaultStatus.ABORTED
        )

    def fault_coverage(self) -> float:
        """Detected fraction of all target faults."""
        return self.num_detected / len(self.status) if self.status else 1.0


def generate_transition_tests(
    circ: CompiledCircuit,
    ordered_faults: Sequence[TransitionFault],
    config: Optional[TestGenConfig] = None,
    scoap: Optional[Scoap] = None,
    launch_pool: int = LAUNCH_POOL_SIZE,
    engine: Optional[PodemEngine] = None,
) -> TransitionTestGenResult:
    """Run ordered two-pattern test generation with fault dropping.

    ``ordered_faults`` is the transition target list *in target order* —
    the output of one of the :mod:`repro.adi.ordering` functions applied
    to a transition :class:`~repro.adi.index.AdiResult`.  ``config``
    reuses :class:`repro.atpg.engine.TestGenConfig` (backtrack limit,
    X-fill policy, seed, dropping backend).  ``engine`` shares memoized
    PODEM outcomes exactly as in :func:`repro.atpg.engine.generate_tests`.
    """
    if config is None:
        config = TestGenConfig()
    if len(set(ordered_faults)) != len(ordered_faults):
        raise AtpgError("ordered fault list contains duplicates")

    podem = PodemTally.start(circ, config, scoap, engine)
    dropper = resolve_backend(circ, config.backend)
    fill_rng = make_rng(config.seed, f"transition-fill:{circ.name}")
    pool = PatternSet.random(
        circ.num_inputs, launch_pool,
        rng=make_rng(config.seed, f"transition-pool:{circ.name}"),
    )
    pool_good = simulate(circ, pool)
    pool_mask = full_mask(pool.num_patterns)

    status: Dict[TransitionFault, FaultStatus] = {
        f: FaultStatus.UNDETECTED for f in ordered_faults
    }
    launch_vectors: List[List[int]] = []
    capture_vectors: List[List[int]] = []
    detected_per_test: List[int] = []
    targeted: List[TransitionFault] = []
    launch_fallbacks = 0

    def justify_launch(fault: TransitionFault):
        """A launch vector putting the fault line at its initial value."""
        nonlocal launch_fallbacks
        line = launch_line_word(circ, pool_good, fault) & pool_mask
        candidates = line if fault.initial_value else line ^ pool_mask
        if candidates:
            return list(pool.vector((candidates & -candidates).bit_length() - 1))
        # Pool-resistant line: PODEM on the complementary stuck-at fault
        # must set the line to the initial value to excite it.
        launch_fallbacks += 1
        complement = Fault(fault.node, fault.pin, 1 - fault.initial_value)
        result = podem.search(complement)
        if result.status != PodemStatus.SUCCESS:
            return None
        return fill_cube(result.cube, config.fill, fill_rng)

    started = time.perf_counter()
    for fault in ordered_faults:
        if status[fault] != FaultStatus.UNDETECTED:
            continue
        capture_result = podem.search(fault.as_stuck_at())
        if capture_result.status == PodemStatus.UNDETECTABLE:
            # No v2 can observe the frozen value: the transition fault is
            # undetectable too.
            status[fault] = FaultStatus.UNDETECTABLE
            continue
        if capture_result.status == PodemStatus.ABORTED:
            status[fault] = FaultStatus.ABORTED
            continue
        launch = justify_launch(fault)
        if launch is None:
            # Launch justification failed (undetectable complement only
            # proves excitation-or-propagation impossible, not which):
            # conservatively abort rather than claim undetectability.
            status[fault] = FaultStatus.ABORTED
            continue
        capture = fill_cube(capture_result.cube, config.fill, fill_rng)

        pair = PatternPairSet.from_vector_pairs(
            [(launch, capture)], circ.num_inputs
        )
        dropper.load_pairs(pair)
        # Aborted faults stay in the simulation list: a later pair may
        # still detect them accidentally, as in any real flow.
        candidates = [
            other for other, other_status in status.items()
            if other_status in (FaultStatus.UNDETECTED, FaultStatus.ABORTED)
        ]
        dropped = 0
        for other, word in zip(
                candidates, dropper.transition_detection_words(candidates)):
            if word:
                status[other] = FaultStatus.DETECTED
                dropped += 1
        if status[fault] != FaultStatus.DETECTED:
            raise AtpgError(
                f"two-pattern test for {fault.describe(circ)} does not "
                "detect it; engine bug"
            )
        launch_vectors.append(launch)
        capture_vectors.append(capture)
        detected_per_test.append(dropped)
        targeted.append(fault)
    runtime = time.perf_counter() - started + podem.memo_seconds

    return TransitionTestGenResult(
        circuit_name=circ.name,
        tests=PatternPairSet(
            PatternSet.from_vectors(launch_vectors, circ.num_inputs),
            PatternSet.from_vectors(capture_vectors, circ.num_inputs),
        ),
        status=status,
        detected_per_test=detected_per_test,
        targeted_faults=targeted,
        podem_calls=podem.calls,
        backtracks=podem.backtracks,
        launch_fallbacks=launch_fallbacks,
        runtime_seconds=runtime,
    )
