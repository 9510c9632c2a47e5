"""The benchmark's three workloads: set-up, one measured pass, output checks.

Each workload is a batch run in one process: sequential calls into the
public API, no client concurrency.  The only concurrency is the program's
own sharded fault-simulation pool, which ``auto`` engages by itself.

* ``testgen_orders`` — irs298 (success-dominated, about two aborts per
  order) and irs400 (abort-heavy, about forty), loaded warm from the
  benchmark's own suite cache, each run through ``Flow`` faults -> U ->
  ADI -> order -> testgen -> curve for all six orders, without an
  ``ArtifactCache`` (the experiment runner's default).  PODEM does most
  of the work; every order re-targets the same faults.
* ``build_cold`` — a cold irredundant build of the irs344 recipe (five
  removal passes) with the arguments ``suite.build_circuit`` uses.  PODEM
  here runs on prefilter survivors at limit 600, and the netlist is
  rebuilt between passes; there are no orders.

The circuit sets are sized so that one pass takes 20-40 s on a 2-core
host, which keeps a regression comparison (ten seeds per workload on
each of two commits, plus traced runs) under an hour.
* ``adi_order`` — the non-irredundant irs5378 and irs13207 through U, ADI
  and the six orders, no testgen (``repro order``).  Wide fault-simulation
  queries and the dynamic orders do the work; PODEM does none.

Seeds.  ``testgen_orders`` and ``adi_order`` feed the workload seed to
``FlowConfig.seed``.  ``build_cold`` feeds it to ``make_irredundant``'s
prefilter pattern seed; the generator recipes stay the suite's, because
build time over generator seeds varies about threefold (irs298's recipe
took 4.9 s to 14.5 s over three generator seeds), far beyond any bound a
regression gate can hold.  At :data:`DEFAULT_SEED` every workload
reproduces the suite and the experiment tables exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

#: ``FlowConfig``'s default seed, with which the experiment tables run.
DEFAULT_SEED = 2005

#: The prefilter seed ``suite.build_circuit`` leaves at its default.
SUITE_PREFILTER_SEED = 11

#: Circuits per workload, full size and at the self-test's smoke size.
CIRCUITS = {
    "testgen_orders": ("irs298", "irs400"),
    "build_cold": ("irs344",),
    "adi_order": ("irs5378", "irs13207"),
}
SMOKE_CIRCUITS = {
    "testgen_orders": ("irs298",),
    "build_cold": ("irs298",),
    "adi_order": ("irs298",),
}

#: Recorded output digests at the default seed, full size.
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"


def circuits_for(workload: str, smoke: bool) -> Tuple[str, ...]:
    """Suite circuits a workload runs on."""
    return (SMOKE_CIRCUITS if smoke else CIRCUITS)[workload]


def warm_circuits(smoke: bool) -> List[str]:
    """Suite circuits that must sit in the suite cache before a run."""
    table = SMOKE_CIRCUITS if smoke else CIRCUITS
    return sorted({name for workload in ("testgen_orders", "adi_order")
                   for name in table[workload]})


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tests_digest(tests) -> str:
    """Digest of a test set: its width, length and pattern words."""
    words = ",".join(format(w, "x") for w in tests.words)
    return _sha(f"{tests.num_inputs}:{tests.num_patterns}:{words}")


def order_digest(permutation) -> str:
    """Digest of a fault order."""
    return _sha(",".join(map(str, permutation)))


def is_permutation(permutation, size: int) -> bool:
    """Whether ``permutation`` is a permutation of ``range(size)``."""
    return (len(permutation) == size
            and sorted(permutation) == list(range(size)))


class Outcome:
    """Operations attempted and failed in one pass, plus its outputs."""

    def __init__(self):
        self.attempted = 0
        self.errors: List[str] = []
        self.digests: Dict[str, str] = {}
        self.quality: Dict[str, float] = {}
        self.stages: Dict[str, float] = {}
        self.failed = 0

    def op(self, name: str, problems: List[str]) -> None:
        """Count one operation; it failed if ``problems`` is non-empty."""
        self.attempted += 1
        self.errors.extend(f"{name}: {p}" for p in problems)
        if problems:
            self.failed += 1


class Workload:
    """Set-up, one measured pass and its checks, for one workload."""

    def __init__(self, name: str, seed: int, smoke: bool = False,
                 expect: bool = True):
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.circuits = circuits_for(name, smoke)
        # The irredundant netlist does not depend on the prefilter seed
        # (undetectable faults survive every prefilter), so build_cold
        # checks its digest at every seed.
        self.expected: Dict[str, str] = {}
        if expect and not smoke and (seed == DEFAULT_SEED
                                     or name == "build_cold"):
            self.expected = json.loads(DIGESTS_FILE.read_text())[name]

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Everything before the first timed stage."""
        if self.name == "build_cold":
            from repro.circuit.generator import generate_circuit
            from repro.experiments import suite

            # The suite's own recipe-to-spec mapping, so the raw circuit is
            # exactly the one suite.build_circuit generates.
            self.raw = [
                generate_circuit(suite._generator_spec(suite.suite_entry(n)))
                for n in self.circuits
            ]
        else:
            from repro.experiments.suite import build_circuit

            for name in self.circuits:
                build_circuit(name)

    # -- the measured pass ---------------------------------------------------

    def run(self):
        """The measured pass; returns its raw outputs."""
        if self.name == "build_cold":
            from repro.circuit.redundancy import make_irredundant

            prefilter_seed = (SUITE_PREFILTER_SEED
                              if self.seed == DEFAULT_SEED else self.seed)
            return [
                make_irredundant(raw, name=name, batch=True,
                                 backtrack_limit=600,
                                 prefilter_patterns=4096, max_passes=10,
                                 seed=prefilter_seed)
                for name, raw in zip(self.circuits, self.raw)
            ]

        from repro.adi import ORDERS
        from repro.flow import CircuitSpec, Flow, FlowConfig

        flows = []
        for name in self.circuits:
            circuit = CircuitSpec(kind="suite", name=name)
            flow = Flow(FlowConfig(circuit=circuit, seed=self.seed))
            for order in ORDERS:
                flow.permutation(order)
                if self.name == "testgen_orders":
                    flow.tests(order)
                    flow.report(order)
            flows.append(flow)
        return flows

    # -- checks --------------------------------------------------------------

    def check(self, outputs, corrupt: bool = False) -> Outcome:
        """Check a pass's outputs; ``corrupt`` damages one output first."""
        outcome = Outcome()
        if self.name == "build_cold":
            self._check_builds(outputs, outcome, corrupt)
        else:
            self._check_flows(outputs, outcome, corrupt)
        return outcome

    def _expect(self, outcome: Outcome, key: str, digest: str,
                problems: List[str]) -> None:
        """Record a digest; it must match ``digests.json`` where that
        applies (see ``__init__``)."""
        outcome.digests[key] = digest
        if self.expected and self.expected.get(key) != digest:
            problems.append(f"digest {digest[:12]} != recorded "
                            f"{str(self.expected.get(key))[:12]}")

    def _check_builds(self, results, outcome: Outcome, corrupt: bool) -> None:
        from repro.circuit.bench import parse_bench, write_bench
        from repro.circuit.flatten import compile_circuit, to_netlist
        from repro.experiments import suite
        from repro.faults.collapse import collapsed_fault_list

        faults = aborted = 0
        for name, result in zip(self.circuits, results):
            problems: List[str] = []
            try:
                text = write_bench(to_netlist(result.circuit))
                if corrupt and name == self.circuits[0]:
                    text = text.rstrip("\n").rsplit("\n", 1)[0] + "\n"
                self._expect(outcome, f"{name}/netlist", _sha(text), problems)
                reparsed = compile_circuit(parse_bench(text, name=name))
                shape = (reparsed.num_inputs, reparsed.num_outputs,
                         reparsed.num_gates)
                if shape != (result.circuit.num_inputs,
                             result.circuit.num_outputs,
                             result.circuit.num_gates):
                    problems.append("netlist does not round-trip")
                if (result.circuit.num_inputs
                        != suite.suite_entry(name).paper_inputs):
                    problems.append("primary inputs changed")
            except Exception as exc:  # noqa: BLE001 - a failed operation
                problems.append(f"{type(exc).__name__}: {exc}")
            outcome.op(f"build {name}", problems)
            faults += len(collapsed_fault_list(result.circuit))
            aborted += len(result.aborted)
        outcome.quality = {
            "tests_total": 0,
            "aborted_total": aborted,
            "fault_coverage": 1.0 - aborted / faults,
            "ave_ratio": 0.0,
        }

    def _check_flows(self, flows, outcome: Outcome, corrupt: bool) -> None:
        from repro.adi import ORDERS

        testgen = self.name == "testgen_orders"
        tests_total = aborted = detected = targets = 0
        ratios = []
        u_detected = u_targets = 0
        for flow in flows:
            name = flow.config.circuit.name
            faults = flow.faults()
            u_detected += len(flow.selection().detected_by_u)
            u_targets += len(faults)
            for order in ORDERS:
                problems: List[str] = []
                try:
                    permutation = list(flow.permutation(order))
                    if corrupt and not testgen:
                        permutation[-1] = permutation[0]
                        corrupt = False
                    if not is_permutation(permutation, len(faults)):
                        problems.append("order is not a permutation of "
                                        "range(F)")
                    self._expect(outcome, f"{name}/{order}/order",
                                 order_digest(permutation), problems)
                    if testgen:
                        result = flow.tests(order)
                        tests = result.tests
                        if corrupt:
                            tests = tests.take(tests.num_patterns - 1)
                            corrupt = False
                        problems += _resimulate(flow, result, tests)
                        if (flow.report(order).num_detected
                                != result.num_detected):
                            problems.append("coverage curve disagrees "
                                            "with statuses")
                        self._expect(outcome, f"{name}/{order}/tests",
                                     tests_digest(tests), problems)
                        tests_total += result.num_tests
                        aborted += result.num_aborted
                        detected += result.num_detected
                        targets += len(result.status)
                except Exception as exc:  # noqa: BLE001 - a failed operation
                    problems.append(f"{type(exc).__name__}: {exc}")
                outcome.op(f"{name} {order}", problems)
            if testgen:
                ratios.append(flow.report("0dynm").ave
                              / flow.report("orig").ave)
            for stage, info in flow.stage_log.items():
                key = stage.split(":")[0]
                outcome.stages[key] = (outcome.stages.get(key, 0.0)
                                       + info.seconds)
        if testgen:
            outcome.quality = {
                "tests_total": tests_total,
                "aborted_total": aborted,
                "fault_coverage": detected / targets,
                "ave_ratio": sum(ratios) / len(ratios),
            }
        else:
            outcome.quality = {
                "tests_total": 0,
                "aborted_total": 0,
                "fault_coverage": u_detected / u_targets,
                "ave_ratio": 0.0,
            }


def _resimulate(flow, result, tests) -> List[str]:
    """Re-simulate a final test set with an engine the dropper does not use.

    The dropper queries one vector at a time, which ``auto`` sends to the
    event-driven bigint engine; the check runs the numpy engine over the
    whole set.  Its detected set must equal the ``DETECTED`` statuses, and
    ``detected_per_test`` must sum to it.
    """
    from repro.faults.sets import FaultStatus
    from repro.fsim.backend import detection_matrix

    faults = list(result.status)
    claimed = {f for f, s in result.status.items()
               if s == FaultStatus.DETECTED}
    problems = []
    if tests.num_patterns:
        hits = detection_matrix(flow.circuit(), faults, tests,
                                backend="numpy").any_rows()
        found = {f for f, hit in zip(faults, hits) if hit}
    else:
        found = set()
    if found != claimed:
        problems.append(f"re-simulation detects {len(found)} faults, "
                        f"statuses claim {len(claimed)}")
    if sum(result.detected_per_test) != len(claimed):
        problems.append("detected_per_test does not sum to the detected "
                        "count")
    return problems
