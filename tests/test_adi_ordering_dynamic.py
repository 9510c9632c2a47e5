"""Tests for static and dynamic fault orders (paper Section 3)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.adi.dynamic as dynamic
from repro.adi import (
    ORDERS,
    compute_adi,
    dynamic_prefix,
    f0decr,
    f0dynm,
    fdecr,
    fdynm,
    fincr0,
    forig,
    select_u,
)
from repro.adi.index import adi_from_detection_matrix
from repro.faults import collapsed_fault_list
from repro.sim import PatternSet
from repro.utils.detmatrix import DetectionMatrix

from helpers import generated_circuit


def _reference_dynamic(adi):
    """Brute-force reimplementation of the paper's dynamic procedure."""
    ndet = adi.ndet.astype(np.int64).copy()
    remaining = [i for i in range(len(adi.faults)) if adi.adi[i] > 0]
    placed = []
    while remaining:
        best, best_value = None, -1
        for i in remaining:
            vecs = adi.det_vectors[i]
            value = int(ndet[vecs].min())
            if value > best_value:
                best, best_value = i, value
        placed.append(best)
        remaining.remove(best)
        ndet[adi.det_vectors[best]] -= 1
    return placed


def _reference_prefix(adi, count):
    """The pre-heap O(count x F) rescan implementation, verbatim."""
    ndet = adi.ndet.astype(np.int64).copy()
    det_vectors = adi.det_vectors
    nonzero = {i for i in range(len(adi.faults)) if adi.adi[i] != 0}
    placements = []
    while nonzero and len(placements) < count:
        best, best_value = None, -1
        for i in sorted(nonzero):
            vecs = det_vectors[i]
            value = int(ndet[vecs].min()) if vecs.size else 0
            if value > best_value:
                best, best_value = i, value
        placements.append((best, best_value))
        nonzero.discard(best)
        vecs = det_vectors[best]
        if vecs.size:
            ndet[vecs] -= 1
    return placements


@pytest.fixture(scope="module")
def lion_data():
    from repro.circuit import lion_like

    circ = lion_like()
    faults = collapsed_fault_list(circ)
    adi = compute_adi(circ, faults, PatternSet.exhaustive(4))
    return circ, faults, adi


@pytest.fixture(scope="module")
def zero_adi_data():
    """A circuit where U misses some faults, so zero-ADI faults exist."""
    circ = generated_circuit(21, num_inputs=8, num_gates=40, num_outputs=4,
                             hardness=0.15)
    faults = collapsed_fault_list(circ)
    selection = select_u(circ, faults, seed=1, max_vectors=48,
                         target_coverage=1.0)
    adi = compute_adi(circ, faults, selection.patterns)
    assert adi.undetected_indices, "fixture needs zero-ADI faults"
    return circ, faults, adi


class TestStaticOrders:
    def test_all_orders_are_permutations(self, zero_adi_data):
        __, faults, adi = zero_adi_data
        for name, order_fn in ORDERS.items():
            order = order_fn(adi)
            assert sorted(order) == list(range(len(faults))), name

    def test_forig_is_identity(self, lion_data):
        __, faults, adi = lion_data
        assert forig(adi) == list(range(len(faults)))

    def test_fdecr_nonincreasing(self, zero_adi_data):
        __, __, adi = zero_adi_data
        values = [int(adi.adi[i]) for i in fdecr(adi)]
        assert values == sorted(values, reverse=True)

    def test_fdecr_zeros_last(self, zero_adi_data):
        __, __, adi = zero_adi_data
        order = fdecr(adi)
        num_zero = len(adi.undetected_indices)
        assert all(adi.adi[i] == 0 for i in order[-num_zero:])
        assert all(adi.adi[i] > 0 for i in order[:-num_zero])

    def test_f0decr_zeros_first_then_decreasing(self, zero_adi_data):
        __, __, adi = zero_adi_data
        order = f0decr(adi)
        num_zero = len(adi.undetected_indices)
        assert all(adi.adi[i] == 0 for i in order[:num_zero])
        rest = [int(adi.adi[i]) for i in order[num_zero:]]
        assert rest == sorted(rest, reverse=True)

    def test_fincr0_increasing_with_zeros_last(self, zero_adi_data):
        __, __, adi = zero_adi_data
        order = fincr0(adi)
        num_zero = len(adi.undetected_indices)
        head = [int(adi.adi[i]) for i in order[:-num_zero]]
        assert head == sorted(head)
        assert all(adi.adi[i] == 0 for i in order[-num_zero:])

    def test_ties_broken_by_original_position(self, lion_data):
        __, __, adi = lion_data
        order = fdecr(adi)
        for a, b in zip(order, order[1:]):
            if adi.adi[a] == adi.adi[b]:
                assert a < b


class TestDynamicOrders:
    def test_fdynm_matches_reference(self, lion_data):
        __, __, adi = lion_data
        zeros = adi.undetected_indices
        assert fdynm(adi) == _reference_dynamic(adi) + zeros

    def test_fdynm_matches_reference_with_zeros(self, zero_adi_data):
        __, __, adi = zero_adi_data
        expected = _reference_dynamic(adi) + adi.undetected_indices
        assert fdynm(adi) == expected

    def test_f0dynm_is_fdynm_rotated(self, zero_adi_data):
        __, __, adi = zero_adi_data
        zeros = adi.undetected_indices
        dynamic_part = fdynm(adi)[: len(adi.faults) - len(zeros)]
        assert f0dynm(adi) == zeros + dynamic_part

    def test_first_pick_has_globally_maximal_adi(self, lion_data):
        __, __, adi = lion_data
        first = fdynm(adi)[0]
        assert adi.adi[first] == adi.adi.max()

    def test_dynamic_prefix_walkthrough(self, lion_data):
        """Mirrors the paper's Section 3 construction: values at placement
        are non-increasing and start at the global maximum."""
        __, __, adi = lion_data
        prefix = dynamic_prefix(adi, 5)
        values = [v for _, v in prefix]
        assert values[0] == int(adi.adi.max())
        assert all(a >= b for a, b in zip(values, values[1:]))
        order = fdynm(adi)
        assert [i for i, _ in prefix] == order[:5]

    def test_dynamic_prefix_matches_linear_rescan_on_lion(self, lion_data):
        """The dynamic prefix places exactly what the paper's Section 3
        linear walk-through does, for every prefix length on ``lion``."""
        __, faults, adi = lion_data
        for count in (1, 3, 5, len(faults)):
            assert dynamic_prefix(adi, count) == \
                _reference_prefix(adi, count)

    def test_dynamic_prefix_matches_linear_rescan_with_zeros(
            self, zero_adi_data):
        __, __, adi = zero_adi_data
        assert dynamic_prefix(adi, 10) == _reference_prefix(adi, 10)

    def test_dynamic_prefix_honours_average_mode(self, lion_data):
        """An AVERAGE-mode result yields mean-based placements, matching
        fdynm (the historical rescan always used the minimum)."""
        from repro.adi import AdiMode

        circ, faults, __ = lion_data
        avg = compute_adi(circ, faults, PatternSet.exhaustive(4),
                          mode=AdiMode.AVERAGE)
        prefix = dynamic_prefix(avg, 5)
        assert [i for i, __ in prefix] == fdynm(avg)[:5]

    def test_dynamic_prefix_full_length_equals_fdynm(self, zero_adi_data):
        __, __, adi = zero_adi_data
        nonzero = sum(1 for i in range(len(adi.faults)) if adi.adi[i] != 0)
        prefix = dynamic_prefix(adi, len(adi.faults) + 5)
        assert len(prefix) == nonzero
        assert [i for i, __ in prefix] == fdynm(adi)[:nonzero]

    def test_dynamic_differs_from_static_sometimes(self, zero_adi_data):
        """The dynamic update must actually change something relative to
        the static sort on a circuit with overlapping detection sets."""
        __, __, adi = zero_adi_data
        assert fdynm(adi) != fdecr(adi)


class TestSharedDynamicCore:
    """``Fdynm`` and ``F0dynm`` of one result share one kernel run."""

    @pytest.fixture
    def fresh_lion(self, lion_data):
        """A lion result no earlier test has ordered (nothing cached)."""
        circ, faults, __ = lion_data
        return compute_adi(circ, faults, PatternSet.exhaustive(4))

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Record the ``limit`` of every minimum-mode kernel run."""
        calls = []
        kernel = dynamic._minimum_placements

        def counting(result, active, limit):
            calls.append(limit)
            return kernel(result, active, limit)

        monkeypatch.setattr(dynamic, "_minimum_placements", counting)
        return calls

    def test_fdynm_then_f0dynm_runs_the_kernel_once(self, fresh_lion,
                                                     kernel_calls):
        adi = fresh_lion
        zeros = adi.undetected_indices
        order = fdynm(adi)
        assert f0dynm(adi) == zeros + order[: len(order) - len(zeros)]
        assert fdynm(adi) == order
        assert len(kernel_calls) == 1

    def test_prefix_slices_the_cached_sequence(self, fresh_lion,
                                               kernel_calls):
        adi = fresh_lion
        order = fdynm(adi)
        assert [i for i, __ in dynamic_prefix(adi, 5)] == order[:5]
        assert dynamic_prefix(adi, 0) == []
        assert len(kernel_calls) == 1

    def test_prefix_alone_runs_a_bounded_kernel(self, fresh_lion,
                                                kernel_calls):
        adi = fresh_lion
        assert dynamic_prefix(adi, 3) == _reference_prefix(adi, 3)
        assert kernel_calls == [3]
        fdynm(adi)
        assert kernel_calls == [3, len(adi.detected_indices)]

    def test_callers_get_fresh_lists(self, zero_adi_data):
        __, __, adi = zero_adi_data
        for make in (fdynm, f0dynm, lambda result: dynamic_prefix(result, 5)):
            first = make(adi)
            expected = list(first)
            first.reverse()
            first.append(-1)
            assert make(adi) == expected

    def test_cache_is_private_state(self, lion_data):
        """Like the other lazy views: not a constructor argument, not
        compared, not shown."""
        __, __, adi = lion_data
        fdynm(adi)
        spec = {f.name: f for f in dataclasses.fields(adi)}["_placements"]
        assert (spec.init, spec.compare, spec.repr) == (False, False, False)
        assert "_placements" not in repr(adi)


def _assert_matches_reference(adi):
    """Every dynamic entry point against the brute-force references.

    Prefixes run first as bounded kernel runs, then again as slices of
    the sequence ``fdynm`` caches.
    """
    zeros = np.flatnonzero(adi.adi == 0).tolist()
    expected = _reference_dynamic(adi)
    prefixes = {count: _reference_prefix(adi, count)
                for count in (0, 1, 7, len(expected))}
    for count, reference in prefixes.items():
        assert dynamic_prefix(adi, count) == reference
    assert fdynm(adi) == expected + zeros
    assert f0dynm(adi) == zeros + expected
    for count, reference in prefixes.items():
        assert dynamic_prefix(adi, count) == reference


class TestLevelSweepDifferential:
    """The level-sweep kernel against the paper's procedure, brute force.

    ``U`` sizes 1, 63, 64 and 65 put the last pattern at both ends of a
    packed word and one past it; a handful of vectors over a larger
    circuit makes ties and level descents dominate.
    """

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000),
           num_vectors=st.sampled_from((1, 63, 64, 65)),
           pattern_seed=st.integers(0, 2 ** 16))
    def test_generated_circuits(self, seed, num_vectors, pattern_seed):
        circ = generated_circuit(seed, num_inputs=8, num_gates=40)
        faults = collapsed_fault_list(circ)
        patterns = PatternSet.random(circ.num_inputs, num_vectors,
                                     seed=pattern_seed)
        _assert_matches_reference(compute_adi(circ, faults, patterns))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000),
           num_vectors=st.integers(1, 4),
           pattern_seed=st.integers(0, 2 ** 16))
    def test_plateau_heavy_circuits(self, seed, num_vectors, pattern_seed):
        circ = generated_circuit(seed, num_inputs=10, num_gates=90,
                                 num_outputs=6)
        faults = collapsed_fault_list(circ)
        patterns = PatternSet.random(circ.num_inputs, num_vectors,
                                     seed=pattern_seed)
        _assert_matches_reference(compute_adi(circ, faults, patterns))

    @settings(max_examples=40, deadline=None)
    @given(num_faults=st.integers(1, 80),
           num_vectors=st.sampled_from((1, 2, 5, 63, 64, 65, 130)),
           density=st.sampled_from((0.02, 0.2, 0.6, 0.95)),
           seed=st.integers(0, 2 ** 16))
    def test_random_detection_matrices(self, num_faults, num_vectors,
                                       density, seed):
        rng = np.random.default_rng(seed)
        bits = rng.random((num_faults, num_vectors)) < density
        words = [sum(1 << int(u) for u in np.flatnonzero(row))
                 for row in bits]
        matrix = DetectionMatrix.from_bigints(words, num_vectors)
        _assert_matches_reference(
            adi_from_detection_matrix(list(range(num_faults)), matrix))

    @pytest.mark.parametrize("num_vectors", [1, 63, 64, 65])
    def test_empty_active_set(self, num_vectors):
        adi = adi_from_detection_matrix(
            list(range(6)), DetectionMatrix.zeros(6, num_vectors))
        assert fdynm(adi) == f0dynm(adi) == list(range(6))
        assert dynamic_prefix(adi, 7) == []
        _assert_matches_reference(adi)
