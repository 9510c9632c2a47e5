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

Event-driven implication: each PI assignment propagates in topological
order, recording every changed node on a trail so backtracking is
O(changed nodes).  Gates are evaluated by per-kind evaluators that stop
at a controlling value.  The faulty copy is evaluated only inside the
fault's fanout cone (marked once per search); outside it no input can
differ from the good copy, so the faulty value is the good value.

A search's outcome depends only on the circuit, the fault and the
backtrack limit, so :meth:`PodemEngine.outcome` memoizes it per engine:
test generation for many fault orders of one circuit searches each
fault once.  :meth:`PodemEngine.run` stays the uncached search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.atpg.scoap import Scoap, compute_scoap
from repro.circuit.flatten import CompiledCircuit
from repro.circuit.gate_types import (
    GateType,
    controlling_value,
    is_inverting,
)
from repro.circuit.graph import output_cone
from repro.errors import AtpgError
from repro.faults.model import Fault, check_fault
from repro.sim.threeval import X
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


# Small-int gate kind codes (``int(GateType)``) and per-kind tables: plain
# ints and lists are much cheaper to compare and index than enum members.
_BUF, _NOT, _XOR, _XNOR = (int(t) for t in (
    GateType.BUF, GateType.NOT, GateType.XOR, GateType.XNOR))
_CONTROLLING = [controlling_value(t) for t in GateType]
_INVERTING = [int(is_inverting(t)) for t in GateType]
_NEGATE = (1, 0, X)

#: Three-valued evaluators over a tuple of fanin values, by kind; one-input
#: gates read element 0 (their fanin getter yields a pair, see ``__init__``).
_EVALUATORS = {
    GateType.BUF: itemgetter(0),
    GateType.NOT: lambda v: _NEGATE[v[0]],
    GateType.AND: lambda v: 0 if 0 in v else (X if X in v else 1),
    GateType.NAND: lambda v: 1 if 0 in v else (X if X in v else 0),
    GateType.OR: lambda v: 1 if 1 in v else (X if X in v else 0),
    GateType.NOR: lambda v: 0 if 1 in v else (X if X in v else 1),
    GateType.XOR: lambda v: X if X in v else sum(v) & 1,
    GateType.XNOR: lambda v: X if X in v else (sum(v) & 1) ^ 1,
    GateType.CONST0: lambda v: 0,
    GateType.CONST1: lambda v: 1,
}


@dataclass
class _Decision:
    pi: int
    value: int
    tried_both: bool
    trail: List[Tuple[int, int, int]]


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
        # Per node: its kind code (a one-input gate is a BUF or NOT), the
        # kind's evaluator, and a getter of its fanin values that always
        # yields a tuple (a one-input gate reads its source twice).
        self._kind: List[int] = []
        self._eval = []
        self._fanin_of = []
        for srcs, gtype in zip(circ.fanin, circ.node_type):
            if len(srcs) == 1:
                srcs = srcs * 2
                gtype = GateType.NOT if is_inverting(gtype) else GateType.BUF
            self._kind.append(int(gtype))
            self._eval.append(_EVALUATORS.get(gtype))
            self._fanin_of.append(itemgetter(*srcs) if srcs
                                  else lambda values: ())
        self._constants = [node for node in circ.gate_nodes()
                           if not circ.fanin[node]]

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
        registry = get_registry()
        if not hit:
            result = self._outcomes[key] = self.run(fault, backtrack_limit)
            registry.counter(
                "repro_atpg_backtracks_total",
                "PODEM backtracks of computed (not memoized) searches.",
            ).labels().inc(result.backtracks)
            registry.histogram(
                "repro_atpg_podem_seconds",
                "Wall time of computed (not memoized) PODEM searches.",
            ).labels(status=result.status.value).observe(result.seconds)
        registry.counter(
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
        # The fault's fanout cone: the only nodes whose faulty value can
        # differ from the good one.
        self._cone = bytearray(circ.num_nodes)
        for node in output_cone(circ, fault.node):
            self._cone[node] = 1

        # Constant gates are never reached from a primary input, so they
        # seed the first implication.  It also injects the fault, and its
        # trail is never undone.
        permanent: List[Tuple[int, int, int]] = []
        seeds = list(self._constants)
        if fault.is_stem and fault.node < circ.num_inputs:
            self._set_node(fault.node, X, self._stuck, permanent)
            seeds.extend(circ.fanout[fault.node])
        else:
            seeds.append(fault.node)
        self._propagate(seeds, permanent)

        result = PodemResult(fault=fault, status=PodemStatus.UNDETECTABLE)
        stack: List[_Decision] = []

        while True:
            action = self._next_action()
            if action == "success":
                result.status = PodemStatus.SUCCESS
                result.cube = tuple(self._gval[:circ.num_inputs])
                break
            # action is "backtrack" or an (objective_node, value) pair;
            # an objective with no X-path back to an input backtracks too.
            target = (None if action == "backtrack"
                      else self._backtrace(*action))
            if target is None:
                if not self._backtrack(stack, result, backtrack_limit):
                    break
                continue
            result.decisions += 1
            self._decide(stack, *target, tried_both=False)

        return result

    def _backtrack(self, stack: List[_Decision], result: PodemResult,
                   backtrack_limit: Optional[int]) -> bool:
        """Undo decisions up to the latest one with an untried value and
        flip it; False (with ``result.status`` set) when the search ends."""
        while stack:
            decision = stack.pop()
            self._undo(decision.trail)
            if not decision.tried_both:
                result.backtracks += 1
                if (backtrack_limit is not None
                        and result.backtracks > backtrack_limit):
                    result.status = PodemStatus.ABORTED
                    return False
                self._decide(stack, decision.pi, decision.value ^ 1,
                             tried_both=True)
                return True
        result.status = PodemStatus.UNDETECTABLE
        return False

    # -- value management ----------------------------------------------------

    def _set_node(self, node: int, g: int, f: int,
                  trail: List[Tuple[int, int, int]]) -> None:
        trail.append((node, self._gval[node], self._fval[node]))
        self._gval[node] = g
        self._fval[node] = f
        if g ^ f == 1:  # 0/1 or 1/0: the node carries D
            self._d_nodes.add(node)
        else:
            self._d_nodes.discard(node)

    def _undo(self, trail: List[Tuple[int, int, int]]) -> None:
        gval, fval, d_nodes = self._gval, self._fval, self._d_nodes
        for node, g, f in reversed(trail):
            gval[node] = g
            fval[node] = f
            if g ^ f == 1:
                d_nodes.add(node)
            else:
                d_nodes.discard(node)

    def _decide(self, stack: List[_Decision], pi: int, value: int,
                tried_both: bool) -> None:
        """Assign ``pi``, imply, and push the decision with its trail."""
        trail: List[Tuple[int, int, int]] = []
        fault = self._fault
        stuck = fault.is_stem and pi == fault.node
        self._set_node(pi, value, self._stuck if stuck else value, trail)
        self._propagate(self.circ.fanout[pi], trail)
        stack.append(_Decision(pi, value, tried_both, trail))

    def _propagate(self, start_nodes: Sequence[int],
                   trail: List[Tuple[int, int, int]]) -> None:
        gval, fval, d_nodes = self._gval, self._fval, self._d_nodes
        fanin_of, evaluate, cone = self._fanin_of, self._eval, self._cone
        fanout, fault, site = self.circ.fanout, self._fault, self._fault.node
        # Node ids are topological, so a min-heap visits every node after
        # its fanins, and copies of one node pop back to back.
        heap = sorted(start_nodes)
        last = -1
        while heap:
            node = heappop(heap)
            if node == last:
                continue
            last = node
            get, ev = fanin_of[node], evaluate[node]
            g = ev(get(gval))
            if not cone[node]:
                if g == gval[node]:
                    continue
                f = g
            else:
                if node != site:
                    f = ev(get(fval))
                elif fault.is_stem:
                    f = self._stuck
                else:
                    values = list(get(fval))
                    values[fault.pin] = self._stuck
                    f = ev(values)
                if g == gval[node] and f == fval[node]:
                    continue
                if g ^ f == 1:
                    d_nodes.add(node)
                else:
                    d_nodes.discard(node)
            trail.append((node, gval[node], fval[node]))
            gval[node] = g
            fval[node] = f
            for nxt in fanout[node]:
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
        gval, kinds = self._gval, self._kind
        cc0, cc1 = self.scoap.cc0, self.scoap.cc1
        guard = 0
        while node >= circ.num_inputs:
            guard += 1
            if guard > len(gval):
                raise AtpgError("backtrace failed to terminate")
            kind = kinds[node]
            srcs = circ.fanin[node]
            x_srcs = [s for s in srcs if gval[s] == X]
            if not x_srcs:
                return None
            if kind == _BUF or kind == _NOT:
                node = srcs[0]
                value ^= _INVERTING[kind]
                continue
            if kind == _XOR or kind == _XNOR:
                if len(x_srcs) == 1:
                    parity = value ^ _INVERTING[kind]
                    for s in srcs:
                        if gval[s] != X:
                            parity ^= gval[s]
                    node, value = x_srcs[0], parity
                else:
                    node = min(x_srcs, key=lambda s: min(cc0[s], cc1[s]))
                    value = 0 if cc0[node] <= cc1[node] else 1
                continue
            ctrl = _CONTROLLING[kind]
            if value ^ _INVERTING[kind] == ctrl:
                # One controlling input suffices: take the easiest.
                value = ctrl
                node = min(x_srcs, key=(cc1 if ctrl else cc0).__getitem__)
            else:
                # Every input must be non-controlling: attack the hardest
                # first so conflicts surface early.
                value = ctrl ^ 1
                node = max(x_srcs, key=(cc1 if value else cc0).__getitem__)
        if gval[node] != X:
            return None
        return node, value


def podem(circ: CompiledCircuit, fault: Fault,
          backtrack_limit: Optional[int] = 200,
          scoap: Optional[Scoap] = None) -> PodemResult:
    """One-shot convenience wrapper around :class:`PodemEngine`."""
    return PodemEngine(circ, scoap=scoap).run(
        fault, backtrack_limit=backtrack_limit
    )
