"""PODEM test generation (Goel's path-oriented decision making).

The implementation keeps *two* 3-valued circuit copies — fault-free
(``gval``) and faulty (``fval``) — instead of a 5-valued algebra.  A node
"carries D" when both copies are defined and differ; the D-frontier,
X-path check, objective selection and SCOAP-guided backtrace then follow
the textbook algorithm.  Decisions assign primary inputs only, and both
values of every decided PI are tried before giving up, so with an
unlimited backtrack budget PODEM is *complete*: exhausting the decision
tree proves the fault undetectable.  That completeness is what the
redundancy-removal pass (:mod:`repro.circuit.redundancy`) relies on.

Event-driven implication: each PI assignment propagates through the two
copies with a topological-order heap, recording every changed node on a
trail so backtracking is O(changed nodes).

A search's outcome depends only on the circuit, the fault and the
backtrack limit, so :meth:`PodemEngine.outcome` memoizes it per engine:
test generation for many fault orders of one circuit searches each
fault once.  :meth:`PodemEngine.run` stays the uncached search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.atpg.scoap import Scoap, compute_scoap
from repro.circuit.flatten import CompiledCircuit
from repro.circuit.gate_types import (
    GateType,
    controlling_value,
    is_inverting,
)
from repro.errors import AtpgError
from repro.faults.model import Fault, check_fault
from repro.sim.threeval import X, eval_gate3
from repro.telemetry import get_registry


class PodemStatus(Enum):
    """Outcome of one PODEM run."""

    SUCCESS = "success"
    UNDETECTABLE = "undetectable"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    """Test cube and statistics for one targeted fault.

    ``cube`` is a tuple so that a memoized result can be handed to every
    caller without one of them corrupting it for the next; ``seconds``
    is the wall time of the search that produced the result.
    """

    fault: Fault
    status: PodemStatus
    cube: Optional[Tuple[int, ...]] = None  # per-PI 0/1/X, only for SUCCESS
    backtracks: int = 0
    decisions: int = 0
    seconds: float = 0.0

    @property
    def detected(self) -> bool:
        """True when a test cube was found."""
        return self.status == PodemStatus.SUCCESS


@dataclass
class _Decision:
    pi: int
    value: int
    tried_both: bool
    trail: List[Tuple[int, int, int]] = field(default_factory=list)


class PodemEngine:
    """Reusable PODEM engine bound to one circuit.

    Construction computes SCOAP once; :meth:`run` can then be called for
    many faults, and :meth:`outcome` remembers each result for the
    engine's lifetime.
    """

    def __init__(self, circ: CompiledCircuit, scoap: Optional[Scoap] = None):
        self.circ = circ
        self.scoap = scoap or compute_scoap(circ)
        self._outcomes: Dict[Tuple[Fault, Optional[int]], PodemResult] = {}

    # -- public API ---------------------------------------------------------

    def outcome(self, fault: Fault, backtrack_limit: Optional[int] = 200
                ) -> Tuple[PodemResult, bool]:
        """:meth:`run`'s result for ``(fault, backtrack_limit)``, memoized.

        Returns ``(result, hit)``; ``hit`` is true when the result comes
        from the memo, in which case no search ran and ``result.seconds``
        is the cost of the search that first produced it.
        """
        key = (fault, backtrack_limit)
        result = self._outcomes.get(key)
        hit = result is not None
        if not hit:
            result = self._outcomes[key] = self.run(fault, backtrack_limit)
            get_registry().counter(
                "repro_atpg_backtracks_total",
                "PODEM backtracks of computed (not memoized) searches.",
            ).labels().inc(result.backtracks)
        get_registry().counter(
            "repro_atpg_podem_total",
            "PODEM outcomes requested, by status and source.",
        ).labels(status=result.status.value,
                 source="memo" if hit else "computed").inc()
        return result, hit

    def run(self, fault: Fault,
            backtrack_limit: Optional[int] = 200) -> PodemResult:
        """Generate a test cube for ``fault`` (uncached).

        ``backtrack_limit=None`` removes the budget, making the search
        complete (used for undetectability proofs).
        """
        started = time.perf_counter()
        result = self._search(fault, backtrack_limit)
        result.seconds = time.perf_counter() - started
        return result

    def _search(self, fault: Fault,
                backtrack_limit: Optional[int]) -> PodemResult:
        check_fault(self.circ, fault)
        circ = self.circ
        self._fault = fault
        self._stuck = fault.value
        self._gval = [X] * circ.num_nodes
        self._fval = [X] * circ.num_nodes
        self._d_nodes: Set[int] = set()

        if fault.is_stem:
            self._site_good_node = fault.node
        else:
            self._site_good_node = circ.fanin[fault.node][fault.pin]

        # Constant gates have no fanin and are never reached by PI
        # propagation: seed their values explicitly (good copy always,
        # faulty copy unless the fault pins this very node).
        seeds = []
        for node in circ.gate_nodes():
            gtype = circ.node_type[node]
            if gtype in (GateType.CONST0, GateType.CONST1):
                value = 1 if gtype == GateType.CONST1 else 0
                fvalue = value
                if fault.is_stem and node == fault.node:
                    fvalue = self._stuck
                self._set_node(node, value, fvalue, None)
                seeds.extend(circ.fanout[node])

        # Permanently inject the fault into the faulty copy and let any
        # unconditional implications settle (no trail: never undone).
        if fault.is_stem:
            if self._gval[fault.node] == X:  # const nodes already seeded
                self._set_node(fault.node, X, self._stuck, None)
            seeds.extend(circ.fanout[fault.node])
        else:
            seeds.append(fault.node)
        self._propagate(seeds, None)

        result = PodemResult(fault=fault, status=PodemStatus.UNDETECTABLE)
        stack: List[_Decision] = []

        while True:
            action = self._next_action()
            if action == "success":
                result.status = PodemStatus.SUCCESS
                result.cube = tuple(self._gval[:circ.num_inputs])
                break
            if action == "backtrack":
                flipped = False
                while stack:
                    decision = stack.pop()
                    self._undo(decision.trail)
                    if not decision.tried_both:
                        result.backtracks += 1
                        if (backtrack_limit is not None
                                and result.backtracks > backtrack_limit):
                            result.status = PodemStatus.ABORTED
                            return result
                        value = decision.value ^ 1
                        trail: List[Tuple[int, int, int]] = []
                        self._assign_pi(decision.pi, value, trail)
                        stack.append(_Decision(decision.pi, value, True, trail))
                        flipped = True
                        break
                if not flipped:
                    result.status = PodemStatus.UNDETECTABLE
                    break
                continue
            # action is an (objective_node, objective_value) pair.
            target = self._backtrace(*action)
            if target is None:
                # No X-path of assignable inputs towards the objective.
                action = "backtrack"
                # Treat exactly like a conflict on the next loop entry by
                # forcing a backtrack via the stack.
                flipped = False
                while stack:
                    decision = stack.pop()
                    self._undo(decision.trail)
                    if not decision.tried_both:
                        result.backtracks += 1
                        if (backtrack_limit is not None
                                and result.backtracks > backtrack_limit):
                            result.status = PodemStatus.ABORTED
                            return result
                        value = decision.value ^ 1
                        trail = []
                        self._assign_pi(decision.pi, value, trail)
                        stack.append(_Decision(decision.pi, value, True, trail))
                        flipped = True
                        break
                if not flipped:
                    result.status = PodemStatus.UNDETECTABLE
                    break
                continue
            pi, value = target
            result.decisions += 1
            trail = []
            self._assign_pi(pi, value, trail)
            stack.append(_Decision(pi, value, False, trail))

        return result

    # -- value management ----------------------------------------------------

    def _set_node(self, node: int, g: int, f: int,
                  trail: Optional[List[Tuple[int, int, int]]]) -> None:
        if trail is not None:
            trail.append((node, self._gval[node], self._fval[node]))
        self._gval[node] = g
        self._fval[node] = f
        if g != X and f != X and g != f:
            self._d_nodes.add(node)
        else:
            self._d_nodes.discard(node)

    def _undo(self, trail: List[Tuple[int, int, int]]) -> None:
        for node, g, f in reversed(trail):
            self._gval[node] = g
            self._fval[node] = f
            if g != X and f != X and g != f:
                self._d_nodes.add(node)
            else:
                self._d_nodes.discard(node)

    def _eval_good(self, node: int) -> int:
        srcs = self.circ.fanin[node]
        return eval_gate3(
            self.circ.node_type[node], [self._gval[s] for s in srcs]
        )

    def _eval_faulty(self, node: int) -> int:
        fault = self._fault
        if fault.is_stem and node == fault.node:
            return self._stuck
        srcs = self.circ.fanin[node]
        values = [self._fval[s] for s in srcs]
        if fault.is_branch and node == fault.node:
            values[fault.pin] = self._stuck
        return eval_gate3(self.circ.node_type[node], values)

    def _assign_pi(self, pi: int, value: int,
                   trail: List[Tuple[int, int, int]]) -> None:
        fault = self._fault
        fval = value
        if fault.is_stem and pi == fault.node:
            fval = self._stuck
        self._set_node(pi, value, fval, trail)
        self._propagate(self.circ.fanout[pi], trail)

    def _propagate(self, start_nodes: Sequence[int],
                   trail: Optional[List[Tuple[int, int, int]]]) -> None:
        heap: List[int] = []
        queued: Set[int] = set()
        for node in start_nodes:
            if node not in queued:
                queued.add(node)
                heappush(heap, node)
        while heap:
            node = heappop(heap)
            new_g = self._eval_good(node)
            new_f = self._eval_faulty(node)
            if new_g == self._gval[node] and new_f == self._fval[node]:
                continue
            self._set_node(node, new_g, new_f, trail)
            for nxt in self.circ.fanout[node]:
                if nxt not in queued:
                    queued.add(nxt)
                    heappush(heap, nxt)

    # -- search logic ----------------------------------------------------------

    def _branch_carries_d(self) -> bool:
        fault = self._fault
        if not fault.is_branch:
            return False
        return self._gval[self._site_good_node] == (self._stuck ^ 1)

    def _unresolved(self, node: int) -> bool:
        return self._gval[node] == X or self._fval[node] == X

    def _frontier(self) -> List[int]:
        frontier: Set[int] = set()
        for d in self._d_nodes:
            for gate in self.circ.fanout[d]:
                if self._unresolved(gate):
                    frontier.add(gate)
        if self._branch_carries_d() and self._unresolved(self._fault.node):
            frontier.add(self._fault.node)
        return sorted(frontier)

    def _next_action(self):
        """Decide the next step: success, backtrack, or an objective."""
        circ = self.circ
        for node in self._d_nodes:
            if circ.is_output[node]:
                return "success"

        site_val = self._gval[self._site_good_node]
        if site_val == self._stuck:
            return "backtrack"
        if site_val == X:
            return (self._site_good_node, self._stuck ^ 1)

        frontier = self._frontier()
        if not frontier:
            return "backtrack"
        if not self._x_path_exists(frontier):
            return "backtrack"

        # Pick the most observable frontier gate that still offers an
        # unassigned (good-copy X) side input to work on.
        candidates = []
        for gate in frontier:
            x_pins = [
                s for s in circ.fanin[gate] if self._gval[s] == X
            ]
            if x_pins:
                candidates.append((self.scoap.co[gate], gate, x_pins))
        if not candidates:
            return "backtrack"
        candidates.sort(key=lambda item: (item[0], item[1]))
        __, gate, x_pins = candidates[0]
        gtype = circ.node_type[gate]
        ctrl = controlling_value(gtype)
        if ctrl is not None:
            value = ctrl ^ 1
        else:
            # XOR family: any defined value unblocks; choose the cheaper.
            value = 0
        # The easiest side input keeps the backtrace shallow.
        src = min(x_pins, key=lambda s: self.scoap.cost(s, value))
        return (src, value)

    def _x_path_exists(self, frontier: Sequence[int]) -> bool:
        """Can some frontier gate still reach an unresolved primary output?"""
        circ = self.circ
        seen: Set[int] = set()
        stack = [g for g in frontier if self._unresolved(g)]
        seen.update(stack)
        while stack:
            node = stack.pop()
            if circ.is_output[node]:
                return True
            for nxt in circ.fanout[node]:
                if nxt not in seen and self._unresolved(nxt):
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def _backtrace(self, node: int, value: int) -> Optional[Tuple[int, int]]:
        """Walk an objective back to an unassigned PI, SCOAP-guided."""
        circ = self.circ
        scoap = self.scoap
        guard = 0
        while node >= circ.num_inputs:
            guard += 1
            if guard > circ.num_nodes:
                raise AtpgError("backtrace failed to terminate")
            gtype = circ.node_type[node]
            srcs = circ.fanin[node]
            x_srcs = [s for s in srcs if self._gval[s] == X]
            if not x_srcs:
                return None
            if gtype in (GateType.BUF, GateType.NOT):
                node = srcs[0]
                if gtype == GateType.NOT:
                    value ^= 1
                continue
            if gtype in (GateType.XOR, GateType.XNOR):
                if len(x_srcs) == 1:
                    parity = value ^ (1 if gtype == GateType.XNOR else 0)
                    for s in srcs:
                        if self._gval[s] != X:
                            parity ^= self._gval[s]
                    node, value = x_srcs[0], parity
                else:
                    node = min(
                        x_srcs,
                        key=lambda s: min(scoap.cc0[s], scoap.cc1[s]),
                    )
                    value = 0 if scoap.cc0[node] <= scoap.cc1[node] else 1
                continue
            ctrl = controlling_value(gtype)
            base = value ^ (1 if is_inverting(gtype) else 0)
            if base == ctrl:
                # One controlling input suffices: take the easiest.
                node = min(x_srcs, key=lambda s: scoap.cost(s, ctrl))
                value = ctrl
            else:
                # Every input must be non-controlling: attack the hardest
                # first so conflicts surface early.
                noncontrolling = ctrl ^ 1
                node = max(
                    x_srcs, key=lambda s: scoap.cost(s, noncontrolling)
                )
                value = noncontrolling
        if self._gval[node] != X:
            return None
        return node, value


def podem(circ: CompiledCircuit, fault: Fault,
          backtrack_limit: Optional[int] = 200,
          scoap: Optional[Scoap] = None) -> PodemResult:
    """One-shot convenience wrapper around :class:`PodemEngine`."""
    return PodemEngine(circ, scoap=scoap).run(
        fault, backtrack_limit=backtrack_limit
    )
