"""Replica planning and bin-packing tests with independent oracles."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    InstanceTooLargeError,
    Request,
    ffd_bound_holds,
    pack_exact,
    pack_ffd_assign,
    pack_ffd_per_item,
    validate_assignment,
)

from scalesim.planning import (
    OversizedRequestError,
    Policy,
    SizeClasses,
    ceil_div,
    pack_ffd,
    plan_nodes,
    plan_replicas,
)

COST = Policy("COST_SAVING", "staging", 1, 0.2, 0.8)
PERF = Policy("PERFORMANCE", "performance", 2, 0.8, 0.2)


def requests(*sizes, prefix="r"):
    return [Request(f"{prefix}{i}", size) for i, size in enumerate(sizes)]


def min_replicas_oracle(peak: int, request: int) -> int:
    """Smallest replica count whose combined requests cover the peak,
    found by linear search (independent of any division)."""
    r = 1
    while r * request < peak:
        r += 1
    return r


class TestPlanReplicas:
    def test_peak_800_request_250(self):
        plan = plan_replicas(800, 250, COST)
        assert plan.raw_replicas == 4
        assert plan.planned_replicas == 4

    def test_zero_peak_floored_by_policy(self):
        policy = Policy("X", "staging", 2, 0.5, 0.5)
        plan = plan_replicas(0, 250, policy)
        assert plan.raw_replicas == 1
        assert plan.planned_replicas == 2

    def test_fractional_peak_rounds_up(self):
        plan = plan_replicas(1600, 250, COST)
        assert plan.planned_replicas == 7

    def test_non_positive_request_rejected(self):
        with pytest.raises(ValueError):
            plan_replicas(800, 0, COST)
        with pytest.raises(ValueError):
            plan_replicas(800, -5, COST)

    def test_matches_linear_search_oracle(self):
        rng = random.Random(1234)
        for _ in range(2000):
            peak = rng.randint(0, 8000)
            request = rng.randint(50, 500)
            r_min = rng.randint(1, 10)
            policy = Policy("P", "staging", r_min, 0.5, 0.5)
            plan = plan_replicas(peak, request, policy)
            assert plan.raw_replicas == min_replicas_oracle(peak, request)
            assert plan.planned_replicas == max(plan.raw_replicas, r_min)

    def test_monotone_in_forecast_peak(self):
        rng = random.Random(77)
        for _ in range(200):
            request = rng.randint(50, 500)
            a = rng.randint(0, 5000)
            b = a + rng.randint(0, 2000)
            assert (
                plan_replicas(b, request, COST).planned_replicas
                >= plan_replicas(a, request, COST).planned_replicas
            )

    def test_strategic_floor_always_respected(self):
        rng = random.Random(99)
        for _ in range(200):
            r_min = rng.randint(1, 12)
            policy = Policy("P", "staging", r_min, 0.0, 1.0)
            plan = plan_replicas(rng.randint(0, 4000), rng.randint(50, 500), policy)
            assert plan.planned_replicas >= r_min

    def test_idempotent(self):
        assert plan_replicas(1234, 250, PERF) == plan_replicas(1234, 250, PERF)


class TestPackFfd:
    def test_empty_input_zero_bins(self):
        assert pack_ffd([], 1000) == 0
        assert pack_ffd_assign(requests(), 1000).assignment == []

    def test_worked_instance(self):
        # {3,3,2,2,2} into capacity 5: FFD gives [3,2],[3,2],[2]; the exact
        # solver confirms 3 is optimal.
        rs = requests(3, 3, 2, 2, 2)
        assert pack_ffd([3, 3, 2, 2, 2], 5) == 3
        assert pack_exact(rs, 5).required_nodes == 3
        loads = {}
        for req, b in pack_ffd_assign(rs, 5).assignment:
            loads.setdefault(b, []).append(req.millicores)
        assert sorted(tuple(sorted(v, reverse=True)) for v in loads.values()) == [
            (2,), (3, 2), (3, 2)
        ]

    def test_all_fit_one_bin(self):
        assert pack_ffd([250, 250, 250, 250, 250], 2000) == 1

    def test_oversized_item_rejected(self):
        with pytest.raises(OversizedRequestError):
            pack_ffd([2500], 2000)

    def test_non_positive_capacity_rejected(self):
        for capacity in (0, -1000):
            with pytest.raises(ValueError, match="bin_capacity"):
                pack_ffd([], capacity)

    def test_non_positive_size_rejected(self):
        # A size class of 0 would fit slack // 0 items per bin.
        for sizes in ([0], [250, 0, 250], [-250]):
            with pytest.raises(ValueError, match="sizes must be positive"):
                pack_ffd(sizes, 1000)
        with pytest.raises(ValueError, match="sizes must be positive"):
            plan_nodes(3, 0, {}, 1000)

    def test_deterministic_tie_break_on_owner(self):
        rs = [Request("b", 600), Request("a", 600), Request("c", 400)]
        plan = pack_ffd_assign(rs, 1000)
        # Sorted by (-size, owner): a then b then c.
        assert [(r.owner, b) for r, b in plan.assignment] == [
            ("a", 0), ("b", 1), ("c", 0),
        ]


class TestPackExact:
    def test_no_two_fit_together(self):
        assert pack_exact(requests(6, 6, 6), 10).required_nodes == 3

    def test_perfect_pairing(self):
        assert pack_exact(requests(5, 5, 5, 5), 10).required_nodes == 2

    def test_beats_ffd_on_adversarial_instance(self):
        # FFD opens 3 bins for this one; the optimum is 2 ([12,3,3],[11,4,3]).
        rs = requests(12, 11, 4, 3, 3, 3)
        assert pack_ffd([12, 11, 4, 3, 3, 3], 18) == 3
        assert pack_exact(rs, 18).required_nodes == 2

    def test_instance_too_large_rejected(self):
        with pytest.raises(InstanceTooLargeError):
            pack_exact(requests(*([1] * 13)), 10)

    def test_oversized_item_rejected(self):
        with pytest.raises(OversizedRequestError):
            pack_exact(requests(11), 10)

    def test_exact_never_exceeds_ffd_random_instances(self):
        rng = random.Random(4242)
        for _ in range(300):
            capacity = rng.randint(10, 100)
            sizes = [rng.randint(1, capacity) for _ in range(rng.randint(0, 8))]
            rs = requests(*sizes)
            exact = pack_exact(rs, capacity).required_nodes
            ffd = pack_ffd(sizes, capacity)
            assert exact <= ffd
            assert ffd_bound_holds(ffd, exact)
            # Lower bound sanity: no packing beats total volume.
            assert exact >= ceil_div(sum(sizes), capacity) if sizes else exact == 0


class TestPlanNodes:
    def test_eight_quarter_pods_fill_one_node(self):
        plan = plan_replicas(2000, 250, PERF)
        assert plan.planned_replicas == 8
        assert plan_nodes(plan.planned_replicas, 250, {}, 2000) == 1

    def test_other_requests_force_second_node(self):
        # 8 x 250m plus one 1500m request: the exact solver on the 9-item
        # instance confirms two bins.
        plan = plan_replicas(2000, 250, PERF)
        combined = requests(*([250] * 8), 1500)
        assert pack_exact(combined, 2000).required_nodes == 2
        assert plan_nodes(plan.planned_replicas, 250, {"legacy": 1500}, 2000) == 2

    def test_empty_inputs_zero_nodes(self):
        assert plan_nodes(0, 250, {}, 2000) == 0

    def test_oversized_other_request_propagates(self):
        with pytest.raises(OversizedRequestError):
            plan_nodes(0, 250, {"huge": 3000}, 2000)

    def test_plan_idempotence(self):
        plan = plan_replicas(1700, 250, COST)
        a = plan_nodes(plan.planned_replicas, 250, {}, 1000)
        b = plan_nodes(plan.planned_replicas, 250, {}, 1000)
        assert a == b


@st.composite
def packing_instances(draw):
    """A bin capacity and item sizes in [1, capacity], drawn as runs of equal
    sizes so that ties, items of size 1 and items that fill a bin all occur,
    in any order."""
    capacity = draw(st.integers(1, 120))
    size = st.one_of(st.just(1), st.just(capacity), st.integers(1, capacity))
    runs = draw(st.lists(st.tuples(size, st.integers(1, 5)), max_size=8))
    sizes = [s for s, count in runs for _ in range(count)]
    return draw(st.permutations(sizes)), capacity


class TestCountMatchesReference:
    """The count-only packer against the per-item reference it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(case=packing_instances())
    @example(case=([], 7))
    @example(case=([7, 7, 7], 7))
    @example(case=([1, 1, 1, 1, 1], 2))
    # Best-fit packs this one into 2 bins, first-fit into 3.
    @example(case=([2, 10, 3, 2, 6, 5], 14))
    # Taken in ascending order, this one needs 3 bins, not 2.
    @example(case=([2, 3, 5, 6], 9))
    def test_pack_ffd_count_equals_reference(self, case):
        sizes, capacity = case
        reference = pack_ffd_assign(requests(*sizes), capacity)
        assert pack_ffd(sizes, capacity) == reference.required_nodes

    @settings(max_examples=300, deadline=None)
    @given(case=packing_instances(), replicas=st.integers(0, 12), data=st.data())
    def test_plan_nodes_equals_reference(self, case, replicas, data):
        # The reference names the replicas r1...rn, as plan_nodes once did.
        sizes, capacity = case
        pod_request = data.draw(st.integers(1, capacity), label="pod_request")
        other = {f"o{i}": size for i, size in enumerate(sizes)}
        reference = [Request(f"r{i + 1}", pod_request) for i in range(replicas)]
        reference += [Request(owner, size) for owner, size in other.items()]
        assert (plan_nodes(replicas, pod_request, other, capacity)
                == pack_ffd_assign(reference, capacity).required_nodes)


@st.composite
def size_runs(draw):
    """A bin capacity and up to four runs of 1-400 equal sizes in
    [1, capacity], sizes of 1 and of a whole bin included."""
    capacity = draw(st.integers(1, 4000))
    size = st.one_of(st.just(1), st.just(capacity), st.integers(1, capacity))
    runs = draw(st.lists(st.tuples(size, st.integers(1, 400)), min_size=1, max_size=4))
    return runs, capacity


class TestSizeClasses:
    """Packing by size class against the per-item packer it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(case=size_runs(), data=st.data())
    @example(case=([(250, 264), (600, 1)], 2000), data=None)
    @example(case=([(3, 400)], 4000), data=None)
    @example(case=([(7, 400), (4, 400), (2, 400)], 9), data=None)
    def test_pack_ffd_equals_per_item_packer(self, case, data):
        runs, capacity = case
        sizes = [size for size, count in runs for _ in range(count)]
        if data is not None:
            sizes = data.draw(st.permutations(sizes), label="order")
        assert pack_ffd(sizes, capacity) == pack_ffd_per_item(sizes, capacity)

    @settings(max_examples=200, deadline=None)
    @given(case=size_runs())
    def test_plan_nodes_equals_per_item_packer(self, case):
        (pod_request, replicas), *others = case[0]
        capacity = case[1]
        other = {f"o{i}-{j}": size for i, (size, count) in enumerate(others)
                 for j in range(count)}
        sizes = [pod_request] * replicas + list(other.values())
        assert plan_nodes(replicas, pod_request, other, capacity) == pack_ffd_per_item(
            sizes, capacity)

    def test_len_is_the_item_count(self):
        assert len(SizeClasses({250: 264, 600: 1})) == 265
        assert len(SizeClasses({})) == 0
        assert pack_ffd(SizeClasses({250: 264, 600: 1}), 2000) == pack_ffd_per_item(
            [250] * 264 + [600], 2000)


class TestAssignmentValidation:
    def test_packers_emit_structurally_valid_assignments(self):
        rng = random.Random(8)
        for _ in range(100):
            cap = rng.randint(20, 100)
            rs = requests(*[rng.randint(1, cap) for _ in range(rng.randint(1, 10))])
            for plan in (pack_ffd_assign(rs, cap), pack_exact(rs, cap) if len(rs) <= 12 else None):
                if plan is None:
                    continue
                loads: dict[int, int] = {}
                seen = []
                for req, b in plan.assignment:
                    loads[b] = loads.get(b, 0) + req.millicores
                    seen.append((req.owner, req.millicores))
                assert sorted(seen) == sorted((r.owner, r.millicores) for r in rs)
                assert all(load <= cap for load in loads.values())
                assert set(loads) == set(range(plan.required_nodes))
                validate_assignment(rs, plan.assignment, cap)

    def test_validator_rejects_broken_assignment(self):
        rs = requests(600, 600)
        plan = pack_ffd_assign(rs, 1000)
        overfull = [(req, 0) for req, _ in plan.assignment]
        with pytest.raises(AssertionError, match="overfull"):
            validate_assignment(rs, overfull, 1000)
        with pytest.raises(AssertionError, match="multiset"):
            validate_assignment(rs, plan.assignment[:1], 1000)


class TestPolicy:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Policy("BAD", "p", 1, 0.5, 0.6)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Policy("BAD", "p", 1, -0.2, 1.2)

    def test_min_replicas_at_least_one(self):
        with pytest.raises(ValueError):
            Policy("BAD", "p", 0, 0.5, 0.5)
