"""The paper's test-generation procedure: ordered targets, fault dropping.

Section 4 of the paper: "The test generation procedure we use does not
include any dynamic compaction heuristics" — it simply walks the ordered
fault set, generates a test for each still-undetected fault, and drops
every fault the new test detects.  The *only* experimental variable is
the order of the fault list, which is what makes the accidental detection
index measurable.

:func:`generate_tests` implements exactly that loop on top of
:mod:`repro.atpg.podem` and the single-pattern fault simulator, recording
everything the experiment tables need (test count, run time, per-test
detection counts, per-fault outcomes).

PODEM outcomes come from :meth:`PodemEngine.outcome`, so a caller that
passes one engine to several runs (the flow facade does, for all fault
orders of a circuit) searches each fault once.  ``runtime_seconds``
still reports what the run's test generation costs: a memo hit is
charged the seconds of the search that first produced it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.atpg.podem import PodemEngine, PodemResult, PodemStatus
from repro.atpg.random_fill import fill_cube
from repro.atpg.scoap import Scoap
from repro.circuit.flatten import CompiledCircuit
from repro.errors import AtpgError
from repro.faults.model import Fault
from repro.faults.sets import FaultStatus
from repro.fsim.backend import resolve_backend
from repro.sim.patterns import PatternSet
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class TestGenConfig:
    """Knobs of the test-generation run.

    ``backtrack_limit`` bounds PODEM per fault (aborted faults stay in the
    list but are not retargeted); ``fill`` is the X-fill policy
    (``random``/``zero``/``one``); ``seed`` drives the fill RNG;
    ``backend`` names the fault-simulation engine used for dropping
    (``None`` — registry default, see :mod:`repro.fsim.backend`).
    """

    # Not a test class despite the Test* name: keep pytest collection away
    # from test modules that import it.
    __test__ = False

    backtrack_limit: int = 200
    fill: str = "random"
    seed: int = 0
    backend: Optional[str] = None


@dataclass
class TestGenResult:
    """Everything a test-generation run produced.

    ``detected_per_test[i]`` counts the faults dropped by test ``i``
    (its target plus accidental detections) — the raw material of the
    paper's argument.
    """

    __test__ = False  # Test* name, but not a pytest test class

    circuit_name: str
    tests: PatternSet
    status: Dict[Fault, FaultStatus]
    detected_per_test: List[int]
    targeted_faults: List[Fault]
    podem_calls: int = 0
    backtracks: int = 0
    runtime_seconds: float = 0.0

    @property
    def num_tests(self) -> int:
        """Size of the generated test set (the paper's Table 5 quantity)."""
        return self.tests.num_patterns

    @property
    def num_detected(self) -> int:
        """Faults detected by the final test set."""
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


@dataclass
class PodemTally:
    """One run's PODEM accounting over a possibly shared engine.

    ``calls`` and ``backtracks`` count every outcome the run asked for,
    memo hits included, so they do not depend on what other runs of the
    engine searched before; ``memo_seconds`` is the search time the hits
    saved, which the run adds to its own wall time.
    """

    engine: PodemEngine
    backtrack_limit: Optional[int]
    calls: int = 0
    backtracks: int = 0
    memo_seconds: float = 0.0

    @classmethod
    def start(cls, circ: CompiledCircuit, config: TestGenConfig,
              scoap: Optional[Scoap] = None,
              engine: Optional[PodemEngine] = None) -> "PodemTally":
        """A tally over ``engine``, which must be bound to ``circ``, or
        over a fresh engine built with ``scoap`` when it is ``None``."""
        if engine is None:
            engine = PodemEngine(circ, scoap=scoap)
        elif engine.circ is not circ:
            raise AtpgError(
                f"PODEM engine is bound to circuit {engine.circ.name!r}, "
                f"not to {circ.name!r}"
            )
        return cls(engine, config.backtrack_limit)

    def search(self, fault: Fault) -> PodemResult:
        """The engine's memoized outcome for ``fault``, tallied."""
        result, hit = self.engine.outcome(fault, self.backtrack_limit)
        self.calls += 1
        self.backtracks += result.backtracks
        if hit:
            self.memo_seconds += result.seconds
        return result


def generate_tests(
    circ: CompiledCircuit,
    ordered_faults: Sequence[Fault],
    config: Optional[TestGenConfig] = None,
    scoap: Optional[Scoap] = None,
    engine: Optional[PodemEngine] = None,
) -> TestGenResult:
    """Run ordered test generation with fault dropping.

    ``ordered_faults`` is the target list *in target order* — the output
    of one of the :mod:`repro.adi.ordering` functions.  Faults detected by
    an earlier test are never targeted.  ``engine`` is a PODEM engine
    bound to ``circ`` whose memoized outcomes the run reuses (default: a
    fresh engine built with ``scoap``).
    """
    if config is None:
        config = TestGenConfig()
    if len(set(ordered_faults)) != len(ordered_faults):
        raise AtpgError("ordered fault list contains duplicates")

    podem = PodemTally.start(circ, config, scoap, engine)
    dropper = resolve_backend(circ, config.backend)
    fill_rng = make_rng(config.seed, f"fill:{circ.name}")
    status: Dict[Fault, FaultStatus] = {
        f: FaultStatus.UNDETECTED for f in ordered_faults
    }
    vectors: List[List[int]] = []
    detected_per_test: List[int] = []
    targeted: List[Fault] = []

    started = time.perf_counter()
    for fault in ordered_faults:
        if status[fault] != FaultStatus.UNDETECTED:
            continue
        result = podem.search(fault)
        if result.status == PodemStatus.UNDETECTABLE:
            status[fault] = FaultStatus.UNDETECTABLE
            continue
        if result.status == PodemStatus.ABORTED:
            status[fault] = FaultStatus.ABORTED
            continue

        vector = fill_cube(result.cube, config.fill, fill_rng)
        pattern = PatternSet.from_vectors([vector], circ.num_inputs)
        dropper.load(pattern)
        # Aborted faults stay in the simulation list: a later test may
        # still detect them accidentally, as in any real flow.
        candidates = [
            other for other, other_status in status.items()
            if other_status in (FaultStatus.UNDETECTED, FaultStatus.ABORTED)
        ]
        dropped = 0
        for other, word in zip(candidates,
                               dropper.detection_words(candidates)):
            if word:
                status[other] = FaultStatus.DETECTED
                dropped += 1
        if status[fault] != FaultStatus.DETECTED:
            raise AtpgError(
                f"PODEM cube for {fault.describe(circ)} does not detect it; "
                "engine bug"
            )
        vectors.append(vector)
        detected_per_test.append(dropped)
        targeted.append(fault)
    runtime = time.perf_counter() - started + podem.memo_seconds

    return TestGenResult(
        circuit_name=circ.name,
        tests=PatternSet.from_vectors(vectors, circ.num_inputs),
        status=status,
        detected_per_test=detected_per_test,
        targeted_faults=targeted,
        podem_calls=podem.calls,
        backtracks=podem.backtracks,
        runtime_seconds=runtime,
    )
