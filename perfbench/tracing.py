"""Spans recorded from outside the program, around each layer's public calls.

:func:`install` replaces public functions and methods of ``repro.circuit``,
``repro.faults``, ``repro.fsim``, ``repro.adi`` and ``repro.atpg`` with
wrappers that record one :class:`Span` per call.  A caller stack links
every span to the span that caused it, so a layer's self time is its
span minus its children, and a PODEM call made under ``make_irredundant``
is told apart from one made under ``generate_tests``.  Spans stay in
memory; when the pass is over :func:`layer_metrics` reduces them and
:func:`dump` writes them out, once.

The flows the benchmark drives are single-threaded (the only concurrency
is the sharded fault-simulation pool, whose workers are separate
processes), so one stack per tracer is exact.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Span:
    """One traced call: name, layer, interval, parent, and call facts."""

    __slots__ = ("name", "layer", "owner", "parent", "start", "end",
                 "child", "info")

    def __init__(self, name: str, layer: str, owner, parent):
        self.name = name
        self.layer = layer
        self.owner = owner
        self.parent = parent
        self.start = self.end = 0.0
        self.child = 0.0  # seconds covered by direct children
        self.info = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def under(self, name: str) -> bool:
        """Whether a span called ``name`` is an ancestor of this one."""
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False


class Tracer:
    """Collects spans in memory for one process."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def wrap(self, name: str, layer: str, fn: Callable,
             note: Optional[Callable] = None, method: bool = False):
        """``fn`` wrapped so that each call records a span.

        ``note(args, kwargs, result)`` stores call facts in ``span.info``.
        For ``method=True`` a call that re-enters the same object from
        inside its own span (an engine's batch query looping over its
        single-fault query) runs untraced, so it is not counted twice.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # The owner's id, not the object: a span must not keep an
            # engine (and its worker pool) alive past its last use.
            owner = id(args[0]) if method else None
            if method and stack and stack[-1].owner == owner:
                return fn(*args, **kwargs)
            span = Span(name, layer, owner, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
            if note is not None:
                span.info = note(args, kwargs, result)
            return result

        return traced


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module name bound to ``original`` elsewhere.

    Modules import functions by name (``from x import f``), so replacing
    the defining module's attribute alone would miss most callers.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _podem_note(args, kwargs, result):
    # The circuit object itself is kept so its id() cannot be reused by
    # a later circuit while the spans live (redundancy removal rebuilds
    # the circuit every pass).
    engine, fault = args[0], args[1]
    limit = kwargs.get("backtrack_limit", args[2] if len(args) > 2 else None)
    return (result.status.value, result.backtracks, engine.circ, fault, limit)


def _query_note(args, kwargs, result):
    engine, faults = args[0], args[1]
    return len(faults) * engine.num_patterns


def _query_one_note(args, kwargs, result):
    return args[0].num_patterns


def install_dispatch_counter() -> Dict[str, int]:
    """Count the engine ``auto`` picks per batch query; returns the counts.

    Cheap enough (one dict update per query) to stay on in untraced runs,
    whose run record must show the host-dependent dispatch.
    """
    from repro.fsim.backend import AutoFaultSim

    counts: Dict[str, int] = {}
    pick = AutoFaultSim._pick

    def counted(self, num_faults):
        name = pick(self, num_faults)
        counts[name] = counts.get(name, 0) + 1
        return name

    AutoFaultSim._pick = counted
    return counts


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; call after nothing else is patched."""
    # Packages re-export functions under their submodules' names (e.g.
    # ``repro.atpg.podem``), so modules are imported by full name.
    def module(name: str):
        return importlib.import_module(f"repro.{name}")

    module("flow")  # binds, in every module, the names _rebind must reach
    adi, dynamic, ordering = (module(n) for n in
                              ("adi", "adi.dynamic", "adi.ordering"))
    atpg_engine, podem = module("atpg.engine"), module("atpg.podem")
    redundancy = module("circuit.redundancy")
    auto = module("fsim.backend").AutoFaultSim

    functions = [
        ("circuit.generate", "circuit",
         module("circuit.generator").generate_circuit, None),
        ("circuit.compile", "circuit",
         module("circuit.flatten").compile_circuit, None),
        ("circuit.load", "circuit", module("experiments.suite").build_circuit,
         None),
        ("circuit.irredundant", "circuit", redundancy.make_irredundant,
         lambda args, kwargs, result: result.passes),
        ("circuit.tie", "circuit", redundancy.tie_fault_lines, None),
        ("circuit.tie", "circuit", redundancy.tie_fault_line, None),
        ("circuit.simplify", "circuit", redundancy.simplify_constants, None),
        ("faults.collapse", "faults",
         module("faults.collapse").collapse_faults, None),
        ("fsim.drop_simulate", "fsim", module("fsim.dropping").drop_simulate,
         None),
        ("adi.select_u", "adi", module("adi.sampling").select_u,
         lambda args, kwargs, result: result.num_vectors),
        ("adi.compute_adi", "adi", module("adi.index").compute_adi, None),
        ("adi.curve", "adi", module("adi.metrics").curve_report, None),
        ("atpg.testgen", "atpg", atpg_engine.generate_tests, None),
        ("atpg.scoap", "atpg", module("atpg.scoap").compute_scoap, None),
        ("atpg.fill", "atpg", module("atpg.random_fill").fill_cube, None),
    ]
    for order in ordering.STATIC_ORDERS.values():
        functions.append(("adi.order.static", "adi", order, None))
    for order in (dynamic.fdynm, dynamic.f0dynm):
        functions.append(("adi.order.dynamic", "adi", order, None))

    for name, layer, fn, note in functions:
        traced = tracer.wrap(name, layer, fn, note)
        _rebind(fn, traced)
        for table in (adi.ORDERS, ordering.STATIC_ORDERS):
            for key, value in table.items():
                if value is fn:
                    table[key] = traced

    podem.PodemEngine.run = tracer.wrap(
        "atpg.podem", "atpg", podem.PodemEngine.run, _podem_note)

    engines = (auto, module("fsim.parallel").ParallelFaultSimulator,
               module("fsim.npfsim").NumpyFaultSim,
               module("fsim.sharded").ShardedFaultSim)
    for cls in engines:
        kind = "auto" if cls is auto else "engine"
        for attr, note in (("detection_words", _query_note),
                           ("detection_matrix", _query_note),
                           ("load", None)):
            span_name = "fsim.load" if attr == "load" else f"fsim.{kind}"
            setattr(cls, attr, tracer.wrap(
                span_name, "fsim", getattr(cls, attr), note, method=True))
    auto.detection_word = tracer.wrap(
        "fsim.auto", "fsim", auto.detection_word, _query_one_note,
        method=True)

    # The testgen dropper: generate_tests' own engine, whose load and
    # query calls are fault dropping rather than U/ADI/curve simulation.
    resolve = atpg_engine.resolve_backend

    def resolve_dropper(circ, backend=None):
        engine = resolve(circ, backend)
        engine.load = tracer.wrap("atpg.drop", "atpg", engine.load)
        engine.detection_words = tracer.wrap(
            "atpg.drop", "atpg", engine.detection_words)
        return engine

    atpg_engine.resolve_backend = resolve_dropper


def dump(spans: List[Span], path: Path) -> None:
    """Write spans as JSON rows ``[name, layer, start, end, parent]``,
    ``parent`` being the row of the span that caused it (-1 for none)."""
    row = {id(span): i for i, span in enumerate(spans)}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"spans": [
        [s.name, s.layer, s.start, s.end, row.get(id(s.parent), -1)]
        for s in spans]}))


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: List[Span], window: tuple) -> Dict[str, float]:
    """Per-layer figures from one process's spans.

    Times are inclusive span seconds; ``<layer>.self_s`` is the layer's
    self time.  ``trace.unattributed_pct`` is the share of the measured
    ``window`` (start, end) that no top-level span covers.
    """
    def total(name: str, keep=lambda span: True) -> float:
        return sum(s.seconds for s in spans if s.name == name and keep(s))

    def count(name: str, keep=lambda span: True) -> int:
        return sum(1 for s in spans if s.name == name and keep(s))

    podem = [s for s in spans if s.name == "atpg.podem"]
    redundancy = [s for s in podem if s.under("circuit.irredundant")]
    durations = [s.seconds * 1e3 for s in podem]
    query_names = ("fsim.auto", "fsim.engine")

    def outer(span: Span) -> bool:
        return span.parent is None or span.parent.name not in query_names

    queries = [s for s in spans if s.name in query_names and outer(s)]
    rebuild_names = ("circuit.tie", "circuit.simplify", "circuit.compile")

    def direct_child_of_build(span: Span) -> bool:
        return (span.parent is not None
                and span.parent.name == "circuit.irredundant")

    out: Dict[str, float] = {
        "atpg.podem_s": sum(s.seconds for s in podem),
        "atpg.podem_calls": len(podem),
        "atpg.podem.success": sum(1 for s in podem
                                  if s.info[0] == "success"),
        "atpg.podem.undetectable": sum(1 for s in podem
                                       if s.info[0] == "undetectable"),
        "atpg.podem.aborted": sum(1 for s in podem
                                  if s.info[0] == "aborted"),
        "atpg.podem.aborted_s": sum(s.seconds for s in podem
                                    if s.info[0] == "aborted"),
        "atpg.backtracks": sum(s.info[1] for s in podem),
        "atpg.podem_p50_ms": _percentile(durations, 50),
        "atpg.podem_p99_ms": _percentile(durations, 99),
        "atpg.podem.distinct_ratio": (
            len({(id(s.info[2]),) + s.info[3:] for s in podem})
            / len(podem) if podem else 0.0),
        "atpg.testgen_s": total("atpg.testgen"),
        "atpg.scoap_s": total("atpg.scoap"),
        "atpg.fill_s": total("atpg.fill"),
        "atpg.drop_s": total("atpg.drop"),
        "atpg.drop_calls": count("atpg.drop"),
        "circuit.irredundant_s": total("circuit.irredundant"),
        "circuit.redundancy.passes": sum(
            s.info for s in spans if s.name == "circuit.irredundant"),
        "circuit.redundancy.podem_s": sum(s.seconds for s in redundancy),
        "circuit.redundancy.podem_calls": len(redundancy),
        "circuit.redundancy.aborted": sum(1 for s in redundancy
                                          if s.info[0] == "aborted"),
        "circuit.redundancy.undetectable": sum(
            1 for s in redundancy if s.info[0] == "undetectable"),
        "circuit.redundancy.prefilter_s": total(
            "fsim.drop_simulate",
            lambda s: s.under("circuit.irredundant")),
        "circuit.redundancy.rebuild_s": sum(
            s.seconds for s in spans
            if s.name in rebuild_names and direct_child_of_build(s)),
        "circuit.generate_s": total("circuit.generate"),
        "circuit.load_s": total("circuit.load"),
        "fsim.query_s": sum(s.seconds for s in queries),
        "fsim.query_calls": len(queries),
        "fsim.fault_patterns": sum(s.info for s in queries),
        "fsim.load_s": total("fsim.load", outer),
        "fsim.drop_simulate_s": total("fsim.drop_simulate"),
        "adi.select_u_s": total("adi.select_u"),
        "adi.u_vectors": sum(s.info for s in spans
                             if s.name == "adi.select_u"),
        "adi.compute_adi_s": total("adi.compute_adi"),
        "adi.order.static_s": total("adi.order.static"),
        "adi.order.dynamic_s": total("adi.order.dynamic"),
        "adi.curve_s": total("adi.curve"),
        "faults.collapse_s": total("faults.collapse"),
    }
    for layer in ("atpg", "circuit", "faults", "fsim", "adi"):
        out[f"{layer}.self_s"] = sum(s.seconds - s.child for s in spans
                                     if s.layer == layer)

    start, end = window
    covered = sum(s.seconds for s in spans
                  if s.parent is None and s.start >= start and s.end <= end)
    wall = end - start
    out["trace.unattributed_pct"] = (
        100.0 * max(0.0, wall - covered) / wall if wall > 0 else 0.0)
    return out
