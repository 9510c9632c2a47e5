"""Dynamic fault orders ``Fdynm`` / ``F0dynm`` (paper Section 3).

The dynamic procedure imitates fault dropping during the ordering itself:
when a fault ``f`` is placed into the order, it "does not need to be
considered further", so ``ndet(u)`` is decremented for every ``u`` in
``D(f)``, and the ADI of the remaining faults is recomputed against the
updated counts.  The next fault placed is always one with the currently
highest ADI (ties broken by original position, mirroring the static
orders).

Complexity.  One placement lowers every ``ndet(u)`` it touches by
exactly 1, so a fault's current ADI never increases, and on wide fault
sets almost every fault follows the top plateau down one level at a
time.  The minimum-mode order therefore **sweeps the levels** ``V`` from
the highest ADI down, on the packed rows of :attr:`AdiResult.matrix`,
and never computes an ADI:

* A fault joins the sweep at the level of its static ADI.  At level
  ``V`` the *tied* set holds every unplaced fault that has joined.
* The tied set is walked in position order.  The first fault is placed
  and ``ndet`` is decremented over its ``D(f)``; every later tied fault
  whose row holds a pattern that just fell to ``V - 1`` is demoted, with
  one AND per touched word across all of them at once; the next fault
  not demoted is placed, and so on.  Every fault of the walk that was
  not placed stays tied for level ``V - 1``, and the faults whose static
  ADI is ``V - 1`` join it.
* A level with no fault is never visited: when everything tied is
  placed, the sweep jumps to the next level that has joiners.

Why it is exact: the tied set at level ``V`` is precisely the set of
unplaced faults whose current ADI is ``V``.  Placements happen at
non-increasing levels, and a fault placed at level ``V'`` has ADI
``V'``, so every pattern it touches is at least ``V'`` before and at
least ``V' - 1`` after.  So when level ``V`` starts, no pattern
has fallen below ``V`` unless it started there, and a fault whose
static ADI is at least ``V`` has ADI at least ``V``.  It has ADI at most
``V`` too: a fault that reached ``V + 1`` and was not placed there was
demoted.  Within the walk, a placed fault has no pattern below ``V``, so
a pattern drops to ``V - 1`` and no further, and a demoted fault has ADI
exactly ``V - 1``.  The walk therefore places, at every step, the lowest
position among the faults of the highest current ADI, as the paper's
procedure does.  Average mode (no min structure to exploit) keeps the
lazy max-heap.

The full placement sequence is cached on the :class:`AdiResult`, so
``Fdynm`` and ``F0dynm`` of one result (the same dynamic core with the
zero-ADI faults at the other end) run the kernel once.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adi.index import AdiMode, AdiResult, compute_adi


def _misses(columns: np.ndarray, patterns: List[int]) -> np.ndarray:
    """Which columns of ``columns`` hold none of ``patterns``.

    ``columns`` is a ``(num_words, n)`` slice of transposed packed rows;
    only the words ``patterns`` fall in are read.
    """
    masks: Dict[int, int] = {}
    for u in patterns:
        masks[u >> 6] = masks.get(u >> 6, 0) | 1 << (u & 63)
    hits = None
    for word, mask in masks.items():
        hit = columns[word] & np.uint64(mask)
        hits = hit if hits is None else hits | hit
    return hits == 0


def _minimum_placements(result: AdiResult, active: List[int],
                        limit: int) -> List[Tuple[int, int]]:
    """Level-sweep dynamic order for ``AdiMode.MINIMUM`` (see module doc)."""
    placements: List[Tuple[int, int]] = []
    if not active or not limit:
        return placements
    matrix = result.matrix
    ndet = result.ndet.astype(np.int64)  # a copy: placements decrement it
    positions = np.asarray(active, dtype=np.int64)
    start = result.adi[positions]
    by_level = np.argsort(-start, kind="stable")
    cuts = np.flatnonzero(np.diff(start[by_level])) + 1
    join_levels = start[by_level][np.r_[0, cuts]].tolist()
    joiners = np.split(positions[by_level], cuts)
    joined = 0
    value = join_levels[0]
    # The unplaced faults whose current ADI is ``value``, by position.
    tied = np.empty(0, dtype=np.int64)
    while len(placements) < limit:
        if joined < len(join_levels) and join_levels[joined] == value:
            tied = np.sort(np.concatenate((tied, joiners[joined])))
            columns = np.ascontiguousarray(matrix.words[tied].T)
            joined += 1
        live = np.ones(tied.size, dtype=bool)
        k = 0
        while k < tied.size and len(placements) < limit:
            i = int(tied[k])
            placements.append((i, value))
            k += 1
            seg = matrix.row_indices(i)
            counts = ndet[seg] - 1
            ndet[seg] = counts
            crossed = seg[counts == value - 1].tolist()
            if crossed and k < tied.size:
                live[k:] &= _misses(columns[:, k:], crossed)
            if k < tied.size and not live[k]:
                k += int(live[k:].argmax())
                if not live[k]:
                    break
        # Demoted faults now have ADI exactly ``value - 1``.
        tied, columns = tied[~live], columns[:, ~live]
        if tied.size:
            value -= 1
        elif joined < len(join_levels):
            value = join_levels[joined]
        else:
            break
    return placements


def _average_placements(result: AdiResult, active: List[int],
                        limit: int) -> List[Tuple[int, int]]:
    """Lazy max-heap dynamic order for ``AdiMode.AVERAGE``.

    A popped entry is an upper bound (``ndet`` only decreases), so a
    stale entry is re-pushed with its true current value; an entry that
    pops at its true value is the argmax and is placed.
    """
    ndet = result.ndet.astype(np.int64).copy()
    det_vectors = result.det_vectors

    def current_adi(i: int) -> int:
        vecs = det_vectors[i]
        if not vecs.size:
            return 0
        return int(ndet[vecs].mean())

    heap = [(-current_adi(i), i) for i in active]
    heapq.heapify(heap)
    placements: List[Tuple[int, int]] = []
    while heap and len(placements) < limit:
        neg_value, i = heapq.heappop(heap)
        fresh = current_adi(i)
        if -neg_value != fresh:
            heapq.heappush(heap, (-fresh, i))
            continue
        placements.append((i, fresh))
        vecs = det_vectors[i]
        if vecs.size:
            ndet[vecs] -= 1
    return placements


def _dynamic_placements(result: AdiResult, active: List[int],
                        count: Optional[int] = None
                        ) -> List[Tuple[int, int]]:
    """Place ``active`` fault positions by dynamically-updated ADI.

    Returns ``(position, adi_at_placement)`` pairs, at most ``count`` of
    them (all when ``count`` is None).  The placement sequence is the
    unique one the paper defines — at every step the remaining fault
    with the highest current ADI, ties to the lowest position — so both
    implementations yield identical output (cross-checked in the test
    suite); they differ only in how the argmax is found.
    """
    limit = len(active) if count is None else max(0, min(count, len(active)))
    if result.mode == AdiMode.MINIMUM:
        return _minimum_placements(result, active, limit)
    return _average_placements(result, active, limit)


def _nonzero(result: AdiResult) -> List[int]:
    """Positions of the faults the dynamic procedure places (ADI > 0)."""
    return np.flatnonzero(result.adi).tolist()


def _placements(result: AdiResult) -> Tuple[Tuple[int, int], ...]:
    """The whole placement sequence of ``result``, computed once.

    Cached on the result (it depends only on the result's matrix, counts
    and mode), so ``Fdynm``, ``F0dynm`` and long prefixes share one
    kernel run.
    """
    if result._placements is None:
        result._placements = tuple(
            _dynamic_placements(result, _nonzero(result)))
    return result._placements


def fdynm(result: AdiResult) -> List[int]:
    """Dynamic decreasing-ADI order; zero-ADI faults at the end.

    This is the order the paper recommends for steep fault-coverage
    curves (and walks through step by step on ``lion`` in Section 3).
    """
    zeros = np.flatnonzero(result.adi == 0).tolist()
    return [i for i, __ in _placements(result)] + zeros


def f0dynm(result: AdiResult) -> List[int]:
    """Zero-ADI faults first, then the dynamic decreasing-ADI order.

    This is the order the paper recommends for dynamic test compaction
    (smallest test sets, Table 5's best column).
    """
    zeros = np.flatnonzero(result.adi == 0).tolist()
    return zeros + [i for i, __ in _placements(result)]


def dynamic_order(circ, faults: Sequence, patterns,
                  variant: str = "dynm",
                  mode: AdiMode = AdiMode.MINIMUM,
                  backend=None) -> List[int]:
    """One-shot ``Fdynm``/``F0dynm`` from raw inputs.

    Runs the no-dropping ADI simulation through the selected
    fault-simulation backend (:mod:`repro.fsim.backend`) and returns the
    dynamic permutation, so callers that only want the order never touch
    :class:`AdiResult`.  ``variant`` is ``"dynm"`` or ``"0dynm"``.
    Fault-model-polymorphic like :func:`repro.adi.index.compute_adi`:
    pass stuck-at faults with a :class:`~repro.sim.patterns.PatternSet`,
    or transition faults with a
    :class:`~repro.sim.patterns.PatternPairSet`.
    """
    if variant not in ("dynm", "0dynm"):
        raise ValueError(f"variant must be 'dynm' or '0dynm', got {variant!r}")
    result = compute_adi(circ, faults, patterns, mode=mode, backend=backend)
    return fdynm(result) if variant == "dynm" else f0dynm(result)


def dynamic_prefix(result: AdiResult, count: int) -> List[tuple]:
    """First ``count`` placements of ``Fdynm`` with their ADI at placement.

    Mirrors the paper's Section 3 walk-through ("the highest accidental
    detection index is obtained for f22 with ADI = 15, ...").  Returns
    ``(position, adi_at_placement)`` pairs.

    Once :func:`fdynm` or :func:`f0dynm` has run on ``result``, this
    slices their cached sequence; otherwise it runs the shared kernel
    only until ``count`` faults are placed.  Either way the placements
    are identical to ``fdynm(result)[:count]`` (regression-tested on the
    paper's ``lion`` walk-through), ``result.mode`` included: an
    ``AdiMode.AVERAGE`` result yields mean-based placements.
    """
    if result._placements is not None:
        return list(result._placements[: max(0, count)])
    return _dynamic_placements(result, _nonzero(result), count=count)
