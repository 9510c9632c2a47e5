"""Redundancy identification and removal ("irredundant" circuits).

The paper's experiments run on irredundant versions of the benchmark
combinational logic.  A single stuck-at fault is *redundant* exactly when
it is undetectable, and the classical theorem says the circuit with that
line tied to the stuck value is functionally identical to the original —
so redundancy removal is: prove a fault undetectable (complete PODEM),
tie the line, constant-propagate, repeat.

Removals are applied one at a time: two faults can each be undetectable
in the original circuit yet interact, so after every removal the
(simplified) circuit is re-analyzed from scratch.  The pass loop
terminates when a full analysis proves no undetectable fault remains —
the circuit is then irredundant (up to faults aborted at the backtrack
limit, which are reported, never removed).

Within one pass the PODEM searches are independent of each other, so a
pass hands all its prefilter survivors to one
:meth:`~repro.atpg.podem.PodemEngine.outcomes` batch, which spreads them
over a forked worker pool when there are cores to spare.  The results,
and so the ties and the netlists, are the same as searching one fault
at a time.  Each pass is one ``circuit.redundancy_pass`` span.

This module deliberately sits outside ``repro.circuit.__init__`` because
it depends on the ATPG layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.atpg.podem import PodemEngine, PodemStatus
from repro.circuit.flatten import CompiledCircuit, compile_circuit, to_netlist
from repro.circuit.gate_types import GateType
from repro.circuit.graph import reaches_output
from repro.circuit.netlist import Circuit, GateDef
from repro.errors import CircuitStructureError
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault
from repro.fsim.dropping import drop_simulate
from repro.sim.patterns import PatternSet
from repro.telemetry import span

_CONST_NAMES = {0: "__const0", 1: "__const1"}


@dataclass
class RedundancyResult:
    """Outcome of :func:`make_irredundant`.

    ``aborted`` names the faults the last analysis gave up on, described
    in the circuit that analysis ran on.  ``is_proven_irredundant`` is
    true only when that analysis ran on the returned circuit and found
    no undetectable and no aborted fault.
    """

    circuit: CompiledCircuit
    removed: List[str] = field(default_factory=list)
    aborted: List[str] = field(default_factory=list)
    passes: int = 0
    is_proven_irredundant: bool = False


def _const_signal(circuit: Circuit, value: int) -> str:
    """Get (creating if needed) a CONST gate signal for ``value``."""
    name = _CONST_NAMES[value]
    if circuit.driver_kind(name) is None:
        gtype = GateType.CONST1 if value else GateType.CONST0
        circuit.add_gate(name, gtype, ())
    return name


def tie_fault_line(circ: CompiledCircuit, fault: Fault) -> Circuit:
    """Netlist with the fault's line tied to its stuck value.

    Only sound when ``fault`` is undetectable in ``circ`` — callers must
    have proven that first.
    """
    netlist = to_netlist(circ)
    if fault.is_stem:
        name = circ.names[fault.node]
        if fault.node < circ.num_inputs:
            # Tie every use of the input; the PI itself stays declared so
            # the circuit interface (and |U| vector width) is unchanged.
            const = _const_signal(netlist, fault.value)
            netlist.gates = [
                GateDef(
                    g.name, g.gtype,
                    tuple(const if s == name else s for s in g.inputs),
                )
                for g in netlist.gates
            ]
        else:
            gtype = GateType.CONST1 if fault.value else GateType.CONST0
            netlist.gates = [
                GateDef(name, gtype, ()) if g.name == name else g
                for g in netlist.gates
            ]
    else:
        gate_name = circ.names[fault.node]
        const = _const_signal(netlist, fault.value)
        rebuilt: List[GateDef] = []
        for g in netlist.gates:
            if g.name == gate_name:
                inputs = list(g.inputs)
                inputs[fault.pin] = const
                rebuilt.append(GateDef(g.name, g.gtype, tuple(inputs)))
            else:
                rebuilt.append(g)
        netlist.gates = rebuilt
    return netlist


def simplify_constants(circuit: Circuit) -> Circuit:
    """Constant-propagate and locally simplify a netlist to fixpoint.

    Handles: constant inputs to every gate family, duplicate-input
    reduction for AND/OR families, XOR pair cancellation, and degenerate
    single-input gates.  Dead gates (not reaching any output) are trimmed
    afterwards; primary inputs are always kept.
    """
    if circuit.is_sequential:
        raise CircuitStructureError("simplify_constants needs combinational logic")
    gates: Dict[str, GateDef] = {g.name: g for g in circuit.gates}
    const: Dict[str, int] = {}
    for g in circuit.gates:
        if g.gtype == GateType.CONST0:
            const[g.name] = 0
        elif g.gtype == GateType.CONST1:
            const[g.name] = 1

    changed = True
    while changed:
        changed = False
        for name in list(gates):
            gate = gates[name]
            if gate.gtype in (GateType.CONST0, GateType.CONST1):
                continue
            new_def = _simplify_gate(gate, const)
            if new_def is not gate:
                gates[name] = new_def
                if new_def.gtype == GateType.CONST0:
                    const[name] = 0
                elif new_def.gtype == GateType.CONST1:
                    const[name] = 1
                changed = True

    # Rebuild, keeping declaration order, then trim dead logic.
    rebuilt = Circuit(name=circuit.name)
    for pi in circuit.inputs:
        rebuilt.add_input(pi)
    for g in circuit.gates:
        final = gates[g.name]
        rebuilt.add_gate(final.name, final.gtype, final.inputs)
    for po in circuit.outputs:
        rebuilt.add_output(po)
    return _trim_dead(rebuilt)


def _simplify_gate(gate: GateDef, const: Dict[str, int]) -> GateDef:
    """One local simplification step for ``gate`` under known constants."""
    gtype = gate.gtype
    if gtype in (GateType.BUF, GateType.NOT):
        src = gate.inputs[0]
        if src in const:
            value = const[src]
            if gtype == GateType.NOT:
                value ^= 1
            return GateDef(gate.name, _const_type(value), ())
        return gate

    inv = gtype in (GateType.NAND, GateType.NOR, GateType.XNOR)
    if gtype in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR):
        ctrl = 0 if gtype in (GateType.AND, GateType.NAND) else 1
        kept: List[str] = []
        for src in gate.inputs:
            if src in const:
                if const[src] == ctrl:
                    return GateDef(gate.name, _const_type(ctrl ^ inv), ())
                continue  # identity value: drop the pin
            if src in kept:
                continue  # idempotent duplicate
            # Duplicates were dropped above; survivors keep their order.
            kept.append(src)
        if not kept:
            return GateDef(gate.name, _const_type((ctrl ^ 1) ^ inv), ())
        if len(kept) == 1:
            return GateDef(
                gate.name, GateType.NOT if inv else GateType.BUF, (kept[0],)
            )
        if len(kept) != len(gate.inputs):
            return GateDef(gate.name, gtype, tuple(kept))
        return gate

    if gtype in (GateType.XOR, GateType.XNOR):
        parity = 1 if inv else 0
        counts: Dict[str, int] = {}
        order: List[str] = []
        for src in gate.inputs:
            if src in const:
                parity ^= const[src]
                continue
            if src not in counts:
                counts[src] = 0
                order.append(src)
            counts[src] ^= 1  # XOR pairs cancel
        kept = [s for s in order if counts[s]]
        if not kept:
            return GateDef(gate.name, _const_type(parity), ())
        if len(kept) == 1:
            return GateDef(
                gate.name,
                GateType.NOT if parity else GateType.BUF,
                (kept[0],),
            )
        new_type = GateType.XNOR if parity else GateType.XOR
        if len(kept) != len(gate.inputs) or new_type != gtype:
            return GateDef(gate.name, new_type, tuple(kept))
        return gate
    return gate


def _const_type(value: int) -> GateType:
    return GateType.CONST1 if value else GateType.CONST0


def _trim_dead(circuit: Circuit) -> Circuit:
    """Drop gates that reach no primary output."""
    live = set(circuit.outputs)
    gate_map = circuit.gate_map()
    stack = [s for s in circuit.outputs if s in gate_map]
    while stack:
        name = stack.pop()
        for src in gate_map[name].inputs:
            if src not in live:
                live.add(src)
                if src in gate_map:
                    stack.append(src)
    trimmed = Circuit(name=circuit.name)
    for pi in circuit.inputs:
        trimmed.add_input(pi)
    for g in circuit.gates:
        if g.name in live:
            trimmed.add_gate(g.name, g.gtype, g.inputs)
    for po in circuit.outputs:
        trimmed.add_output(po)
    return trimmed


def find_undetectable(
    circ: CompiledCircuit,
    backtrack_limit: Optional[int] = 5000,
    prefilter_patterns: int = 2048,
    seed: int = 11,
) -> Tuple[List[Fault], List[Fault]]:
    """Split collapsed faults into (proven undetectable, aborted).

    Random patterns weed out the detectable bulk first; complete (or
    budgeted) PODEM then classifies the remainder.
    """
    undetectable, aborted, _, _ = _analyse(
        circ, backtrack_limit, prefilter_patterns, seed)
    return undetectable, aborted


def _analyse(
    circ: CompiledCircuit,
    backtrack_limit: Optional[int],
    prefilter_patterns: int,
    seed: int,
) -> Tuple[List[Fault], List[Fault], int, bool]:
    """:func:`find_undetectable` plus the number of PODEM candidates and
    whether their searches ran in a worker pool."""
    faults = list(collapse_faults(circ).representatives)
    if prefilter_patterns > 0 and circ.num_inputs > 0:
        count = min(prefilter_patterns, 1 << min(circ.num_inputs, 20))
        patterns = PatternSet.random(circ.num_inputs, count, seed=seed)
        result = drop_simulate(circ, faults, patterns)
        candidates = result.undetected(faults)
    else:
        candidates = faults

    # One engine per pass and one batch for all its candidates: the
    # searches are independent, so the batch may run them in a worker
    # pool, and they show up in the PODEM metrics like testgen's do.
    engine = PodemEngine(circ)
    undetectable: List[Fault] = []
    aborted: List[Fault] = []
    outcomes = engine.outcomes(candidates, backtrack_limit)
    for fault, outcome in zip(candidates, outcomes):
        if outcome.status == PodemStatus.UNDETECTABLE:
            undetectable.append(fault)
        elif outcome.status == PodemStatus.ABORTED:
            aborted.append(fault)
    return undetectable, aborted, len(candidates), engine.pooled_batches > 0


def tie_fault_lines(circ: CompiledCircuit, faults: List[Fault]) -> Circuit:
    """Tie several fault lines at once (batch mode).

    Unlike the one-at-a-time flow this does **not** preserve the circuit
    function when the ties interact; it is meant for *synthesizing*
    irredundant benchmark circuits, where only the final artefact matters
    (the suite generator's use case — see :func:`make_irredundant`).
    """
    netlist = to_netlist(circ)
    gates: dict = {g.name: g for g in netlist.gates}
    for fault in faults:
        name = circ.names[fault.node]
        if fault.is_stem:
            if fault.node < circ.num_inputs:
                const = _const_signal(netlist, fault.value)
                for gname, g in list(gates.items()):
                    if name in g.inputs:
                        gates[gname] = GateDef(
                            g.name, g.gtype,
                            tuple(const if s == name else s for s in g.inputs),
                        )
            elif name in gates:
                gtype = GateType.CONST1 if fault.value else GateType.CONST0
                gates[name] = GateDef(name, gtype, ())
        else:
            gate = gates.get(name)
            if gate is None or fault.pin >= len(gate.inputs):
                continue  # an earlier tie already rewrote this gate
            const = _const_signal(netlist, fault.value)
            inputs = list(gate.inputs)
            inputs[fault.pin] = const
            gates[name] = GateDef(name, gate.gtype, tuple(inputs))
    # ``netlist.gates`` may have grown const gates since the snapshot.
    netlist.gates = [gates.get(g.name, g) for g in netlist.gates]
    return netlist


def make_irredundant(
    circ: CompiledCircuit,
    backtrack_limit: Optional[int] = 5000,
    prefilter_patterns: int = 2048,
    seed: int = 11,
    max_passes: int = 64,
    name: Optional[str] = None,
    batch: bool = False,
) -> RedundancyResult:
    """Iteratively remove redundancies until none can be proven.

    ``batch=False`` (default) removes one fault per pass and preserves
    the circuit function exactly — the EDA-correct redundancy-removal
    flow.  ``batch=True`` ties *all* proven-undetectable faults per pass;
    interacting ties may perturb the function between passes, but the
    loop still converges (logic only shrinks) to a circuit whose own
    analysis finds no removable redundancy — the right trade-off when the
    goal is generating an irredundant benchmark rather than transforming
    a design under test.
    """
    current = circ
    removed: List[str] = []
    passes = 0
    # The last analysis: the circuit it ran on and what it found.
    analysed: Optional[CompiledCircuit] = None
    undetectable: List[Fault] = []
    aborted: List[Fault] = []
    while passes < max_passes:
        passes += 1
        with span("circuit.redundancy_pass", pass_number=passes) as pass_span:
            analysed = current
            undetectable, aborted, candidates, pooled = _analyse(
                current, backtrack_limit, prefilter_patterns, seed)
            pass_span.annotate(
                candidates=candidates, undetectable=len(undetectable),
                aborted=len(aborted), pooled=pooled)
            if not undetectable:
                break
            progressed = False
            if batch:
                netlist = simplify_constants(
                    tie_fault_lines(current, undetectable)
                )
                if name:
                    netlist.name = name
                candidate = compile_circuit(netlist)
                if (candidate.num_gates, candidate.node_type,
                        candidate.fanin) != (
                        current.num_gates, current.node_type, current.fanin):
                    removed.extend(f.describe(current) for f in undetectable)
                    current = candidate
                    progressed = True
            else:
                # Apply the first removal that actually changes the
                # netlist; degenerate ties (e.g. on logic that is already
                # detached) would otherwise loop forever.
                for fault in undetectable:
                    netlist = simplify_constants(
                        tie_fault_line(current, fault))
                    if name:
                        netlist.name = name
                    candidate = compile_circuit(netlist)
                    if (candidate.num_gates, candidate.node_type,
                            candidate.fanin) != (
                            current.num_gates, current.node_type,
                            current.fanin):
                        removed.append(fault.describe(current))
                        current = candidate
                        progressed = True
                        break
            if not progressed:
                break

    proven = analysed is current and not undetectable and not aborted
    final_name = name or circ.name
    if current.name != final_name:
        netlist = to_netlist(current, name=final_name)
        current = compile_circuit(netlist)
    return RedundancyResult(
        circuit=current,
        removed=removed,
        aborted=[f.describe(analysed) for f in aborted],
        passes=passes,
        is_proven_irredundant=proven,
    )
