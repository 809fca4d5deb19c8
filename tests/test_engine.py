"""Event-loop and cluster state machine tests."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fire_by_successors, schedule_pending_pods_scan

from scalesim.engine import (
    ClusterState,
    EventKind,
    NodePool,
    NodeState,
    PodState,
)
from scalesim.errors import EmptyQueueError, SimulationError, UnknownPoolError
from scalesim.invariants import InvariantChecker


def make_state(pools=None, startup_delay=10):
    pools = pools or [NodePool("main", 2000, 120)]
    return ClusterState(pools, pod_startup_delay=startup_delay)


def ready_node(state, pool_id="main"):
    return state.add_ready_node(pool_id)


class TestScheduling:
    def test_single_pod_binds_to_only_feasible_node(self):
        state = make_state()
        node = ready_node(state)
        filler = state.create_pod("web", 250)
        state.schedule_pending_pods()
        assert filler.bound_node == node.node_id
        assert 2000 - node.used == 1750

        pod = state.create_pod("web", 250)
        bindings = state.schedule_pending_pods()
        assert bindings == [(pod.pod_id, node.node_id)]
        assert pod.state is PodState.STARTING

    def test_no_ready_nodes_keeps_pod_pending(self):
        state = make_state()
        pod = state.create_pod("web", 250)
        assert state.schedule_pending_pods() == []
        assert pod.state is PodState.PENDING
        assert pod.bound_node is None

    def test_two_pods_one_slot(self):
        # Node with 1000m free, two 600m pods: every placement enumeration
        # admits exactly one of them.
        state = make_state([NodePool("main", 1000, 120)])
        ready_node(state)
        first = state.create_pod("web", 600)
        second = state.create_pod("web", 600)
        state.schedule_pending_pods()
        states = sorted(p.state.value for p in (first, second))
        assert states == ["Pending", "Starting"]
        assert first.state is PodState.STARTING  # creation order wins

    def test_prefers_policy_pool_then_falls_back(self):
        pools = [
            NodePool("a", 1000, 120),
            NodePool("b", 2000, 120),
        ]
        state = make_state(pools)
        node_a = ready_node(state, "a")
        node_b = ready_node(state, "b")
        state.preferred_pool_id = "a"
        # Pool b's node has more free space, but pool a is preferred.
        pod = state.create_pod("web", 250)
        state.schedule_pending_pods()
        assert pod.bound_node == node_a.node_id
        # Too big for what remains in pool a: falls back to any Ready node.
        big = state.create_pod("web", 900)
        state.schedule_pending_pods()
        assert big.bound_node == node_b.node_id

    def test_most_free_wins_within_pool(self):
        state = make_state()
        crowded = ready_node(state)
        empty = ready_node(state)
        filler = state.create_pod("x", 800)
        state.schedule_pending_pods()
        # Both nodes were equally free; tie broke to the lower node id.
        assert filler.bound_node == crowded.node_id
        pod = state.create_pod("web", 250)
        state.schedule_pending_pods()
        assert pod.bound_node == empty.node_id

    def test_most_free_tie_compares_node_ids_as_strings(self):
        state = make_state()
        nodes = [ready_node(state) for _ in range(10)]
        filler = state.create_pod("x", 2000)
        state.schedule_pending_pods()
        assert filler.bound_node == nodes[0].node_id == "main-n1"
        # Nine nodes tie, all empty: "main-n10" sorts before "main-n2".
        pod = state.create_pod("web", 100)
        state.schedule_pending_pods()
        assert pod.bound_node == nodes[9].node_id == "main-n10"

    def test_equal_pods_that_fit_nowhere_cost_one_pick(self, monkeypatch):
        # The pass looks at each group's heap top once per probe. A 1200m
        # request fits nowhere: it probes the preferred pool, then the rest,
        # once each, and the four later 1200m requests probe nothing. The
        # 300m one binds in the preferred pool at its first probe.
        state = make_state([NodePool("a", 1000, 120), NodePool("b", 1000, 120)])
        ready_node(state, "a")
        ready_node(state, "b")
        state.preferred_pool_id = "a"
        big = [state.create_pod("web", 1200) for _ in range(5)]
        small = state.create_pod("web", 300)
        probes = []

        class ProbedHeap(list):
            def __init__(self, nodes):
                super().__init__(nodes)
                self.pools = {node.pool_id for _, _, node in nodes}

            def __getitem__(self, i):
                probes.append(sorted(self.pools))
                return super().__getitem__(i)

        free_heaps = ClusterState._free_heaps
        builds = []

        def probed_heaps(self):
            builds.append(None)
            return tuple(ProbedHeap(heap) for heap in free_heaps(self))

        monkeypatch.setattr(ClusterState, "_free_heaps", probed_heaps)
        state.schedule_pending_pods()
        assert builds == [None]
        assert probes == [["a"], ["b"], ["a"]]
        assert all(p.state is PodState.PENDING for p in big)
        assert small.state is PodState.STARTING
        assert small.bound_node == "a-n1"


@st.composite
def placement_states(draw):
    """A cluster of 1-3 pools, each with 10-12 Ready nodes (so that -n10
    sorts before -n2) and up to 2 Provisioning ones, a preferred pool (or
    none, or one that does not exist), nodes unevenly used, and Pending pods
    of which some were re-pended by a drain after younger ones were created,
    so the pending set is out of creation order. Some requests fit nowhere."""
    pools = [NodePool(f"p{i}", draw(st.sampled_from([500, 1000, 2000, 4000])), 60)
             for i in range(draw(st.integers(1, 3)))]
    state = ClusterState(pools)
    for pool in pools:
        ready = draw(st.integers(10, 12))
        for _ in range(ready):
            state.add_ready_node(pool.pool_id)
        state.resize_pool(pool.pool_id, ready + draw(st.integers(0, 2)))
    state.preferred_pool_id = draw(st.sampled_from(
        [None, "gone"] + [pool.pool_id for pool in pools]))
    request = st.sampled_from([100, 250, 300, 500, 1000, 1500, 2000, 4000, 5000])
    for size in draw(st.lists(request, max_size=60)):
        state.create_pod("web", size)
    schedule_pending_pods_scan(state)
    for size in draw(st.lists(request, max_size=20)):
        state.create_pod("api", size)
    used = sorted((n for n in state.nodes.values() if n.bound_pods), key=lambda n: n.node_id)
    if used:
        for node in draw(st.lists(st.sampled_from(used), unique=True, max_size=3)):
            state._drain(node)
    return state


class TestHeapPlacement:
    """The heap pass against the per-pod scan of every node it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(state=placement_states())
    def test_binds_as_the_scan(self, state):
        reference = copy.deepcopy(state)
        expected = schedule_pending_pods_scan(reference)
        assert state.schedule_pending_pods() == expected
        assert ({n.node_id: n.used for n in state.nodes.values()}
                == {n.node_id: n.used for n in reference.nodes.values()})
        assert list(state.pending) == list(reference.pending)

    def test_pending_pods_out_of_creation_order_bind_oldest_first(self):
        state = make_state([NodePool("main", 1000, 120)])
        first, second = ready_node(state), ready_node(state)
        old = state.create_pod("web", 600)
        state.schedule_pending_pods()
        young = state.create_pod("web", 600)
        state._drain(state.nodes[old.bound_node])
        assert list(state.pending) == [young.pod_id, old.pod_id]
        assert state.schedule_pending_pods() == [(old.pod_id, second.node_id)]
        assert young.state is PodState.PENDING and first.state is NodeState.DELETED


class TestStep:
    def test_single_node_ready_event(self):
        state = make_state()
        state.resize_pool("main", 1)
        ev = state.step()
        assert ev.kind is EventKind.NODE_READY
        assert state.now == 120
        assert state.pools["main"].nodes[0].state is NodeState.READY

    def test_tie_break_node_ready_before_control_tick(self):
        state = make_state()
        state.enqueue(120, EventKind.CONTROL_TICK, {"controller": "x"})
        state.resize_pool("main", 1)  # NodeReady at 120, enqueued second
        first = state.step()
        second = state.step()
        assert first.kind is EventKind.NODE_READY
        assert second.kind is EventKind.CONTROL_TICK

    def test_full_kind_rank_order(self):
        state = make_state()
        kinds = [
            EventKind.CONTROL_TICK,
            EventKind.POLICY_SWITCH,
            EventKind.WORKLOAD_PHASE_CHANGE,
            EventKind.POD_TERMINATED,
            EventKind.POD_STARTED,
            EventKind.NODE_READY,
        ]
        for kind in kinds:
            state.enqueue(50, kind, {"pod": "none", "binding": 0, "node": "none"})
        fired = [state.step().kind for _ in kinds]
        assert fired == list(reversed(kinds))

    def test_startup_delay_arithmetic(self):
        state = make_state()
        ready_node(state)
        state.now = 50
        pod = state.create_pod("web", 250)
        state.schedule_pending_pods()
        ev = state.step()
        assert ev.kind is EventKind.POD_STARTED
        assert state.now == 60
        assert pod.state is PodState.RUNNING

    def test_empty_queue_signals_scenario_end(self):
        state = make_state()
        with pytest.raises(EmptyQueueError):
            state.step()

    def test_identical_inputs_identical_event_sequence(self):
        def run():
            state = make_state()
            ready_node(state)
            for _ in range(3):
                state.create_pod("web", 400)
            state.schedule_pending_pods()
            state.resize_pool("main", 2)
            log = []
            while state.has_events():
                ev = state.step()
                log.append((ev.fire_at, ev.kind.value, sorted(ev.payload.items())))
            return log

        assert run() == run()


# Every kind a queued event may have beside the periodic streams' ControlTick.
_QUEUED_KINDS = [kind for kind in EventKind if kind is not EventKind.CONTROL_TICK]


@st.composite
def periodic_ranges(draw):
    start = draw(st.integers(0, 20))
    return range(start, draw(st.integers(start, 90)), draw(st.integers(1, 15)))


@st.composite
def stream_cases(draw):
    """Tick and sample ranges that often share seconds, queued events of
    every other kind on those seconds, and a table of the events that firing
    an event enqueues, at its own second or later."""
    ticks, samples = draw(periodic_ranges()), draw(periodic_ranges())
    seconds = st.sampled_from(sorted({*ticks, *samples, 0, 95}))
    kinds = st.sampled_from(_QUEUED_KINDS)
    queued = draw(st.lists(st.tuples(seconds, kinds), max_size=12))
    spawns = draw(st.lists(st.lists(st.tuples(st.sampled_from([0, 0, 1, 5]), kinds),
                                    max_size=2), min_size=1, max_size=8))
    return ticks, samples, queued, spawns


def _label(payload):
    return payload.get("controller") or payload["id"]


def _spawner(spawns):
    """The handler both schemes run after each event: it enqueues, for a
    queued event up to two generations deep and for every periodic one, the
    events that the table gives for the event's second and label."""
    def handle(enqueue, now, fired):
        fire_at, kind, payload = fired
        label = _label(payload)
        if label.count(".") >= 2:
            return
        row = spawns[(fire_at + len(label) + list(EventKind).index(kind)) % len(spawns)]
        for j, (delay, child) in enumerate(row):
            enqueue(now + delay, child, _payload(f"{label}.{j}"))
    return handle


def _payload(label):
    # Names no pod or node, so a cluster kind fires stale and changes nothing.
    return {"id": label, "node": "none", "pod": "none", "binding": 0}


@settings(max_examples=300, deadline=None)
@given(case=stream_cases())
def test_streams_fire_in_the_order_successor_ticks_did(case):
    ticks, samples, queued, spawns = case
    handle = _spawner(spawns)
    expected = fire_by_successors(
        ticks, samples, [(t, kind, _payload(f"q{i}")) for i, (t, kind) in enumerate(queued)],
        handle)

    state = ClusterState([])
    state.every(ticks, {"controller": "ctl"})
    state.every(samples, {"controller": "sampler"})
    for i, (t, kind) in enumerate(queued):
        state.enqueue(t, kind, _payload(f"q{i}"))
    fired = []
    while state.has_events():
        at = state.peek_time()
        ev = state.step()
        assert ev.fire_at == state.now == at
        fired.append((ev.fire_at, ev.kind, ev.payload))
        handle(state.enqueue, state.now, fired[-1])
    assert [(t, k, _label(p)) for t, k, p in fired] == \
        [(t, k, _label(p)) for t, k, p in expected]


class TestStreams:
    def test_a_stream_fires_its_one_payload_at_each_instant(self):
        state = ClusterState([])
        payload = {"controller": "x"}
        state.every(range(5, 20, 5), payload)
        fired = []
        while state.has_events():
            ev = state.step()
            fired.append((ev.fire_at, ev.kind, ev.payload is payload))
        assert fired == [(t, EventKind.CONTROL_TICK, True) for t in (5, 10, 15)]
        assert not state._queue
        # A stream fires only ControlTick, which step's order needs to rank last.
        assert list(EventKind)[-1] is EventKind.CONTROL_TICK

    def test_an_empty_range_registers_nothing(self):
        state = ClusterState([])
        state.every(range(0, 0, 5), {})
        assert not state.has_events()
        with pytest.raises(EmptyQueueError):
            state.peek_time()

    @pytest.mark.parametrize("times", [range(5, 20), range(10, 0, -1)])
    def test_a_stream_runs_forward_from_now(self, times):
        state = ClusterState([])
        state.enqueue(6, EventKind.POLICY_SWITCH, {"policy": "p"})
        state.step()
        with pytest.raises(SimulationError, match="do not run forward from 6"):
            state.every(times, {})


class TestResizePool:
    def test_scale_up_creates_provisioning_nodes(self):
        state = make_state()
        ready_node(state)
        state.resize_pool("main", 3)
        pool = state.pools["main"]
        provisioning = [n for n in pool.nodes if n.state is NodeState.PROVISIONING]
        assert len(provisioning) == 2
        fired = [state.step() for _ in provisioning]
        assert [(ev.kind, ev.fire_at, ev.payload["node"]) for ev in fired] == [
            (EventKind.NODE_READY, 120, n.node_id) for n in provisioning]

    def test_resize_to_current_is_noop(self):
        state = make_state()
        ready_node(state)
        before = [(n.node_id, n.state) for n in state.pools["main"].nodes]
        state.resize_pool("main", 1)
        assert [(n.node_id, n.state) for n in state.pools["main"].nodes] == before
        assert not state.has_events()

    def test_drain_picks_node_with_fewest_pods(self):
        # One node hosting three pods, one empty node; both drain choices
        # compared, the fewest-pods rule must pick the empty one and leave
        # the hosted pods untouched.
        state = make_state()
        busy = ready_node(state)
        pods = [state.create_pod("web", 250) for _ in range(3)]
        state.schedule_pending_pods()
        assert all(p.bound_node == busy.node_id for p in pods)
        empty = ready_node(state)
        state.resize_pool("main", 1)
        assert empty.state is NodeState.DELETED
        assert busy.state is NodeState.READY
        assert all(p.bound_node == busy.node_id for p in pods)

    def test_drain_tie_breaks_to_highest_node_id(self):
        state = make_state()
        first = ready_node(state)
        second = ready_node(state)
        state.resize_pool("main", 1)
        assert second.state is NodeState.DELETED
        assert first.state is NodeState.READY

    def test_drain_ties_go_to_the_highest_numeric_index(self):
        # Past nine nodes the id's string order is not its index order:
        # "main-n11" < "main-n9".
        state = make_state()
        for _ in range(11):
            ready_node(state)
        pool = state.pools["main"]
        left = []
        for size in (10, 9, 8):
            before = {n.node_id for n in pool.nodes}
            state.resize_pool("main", size)
            left += sorted(before - {n.node_id for n in pool.nodes})
        assert left == ["main-n11", "main-n10", "main-n9"]

    def test_drained_pods_return_to_pending_and_reschedule(self):
        state = make_state()
        doomed = ready_node(state)
        pod = state.create_pod("web", 250)
        state.schedule_pending_pods()
        assert pod.bound_node == doomed.node_id
        survivor = ready_node(state)
        # Pin the victim choice: the loaded node plus a new empty one means
        # the empty one would drain first, so force both down to one by
        # draining to zero and back up.
        state.resize_pool("main", 0)
        assert pod.state is PodState.PENDING
        assert doomed.state is NodeState.DELETED
        assert survivor.state is NodeState.DELETED
        node = ready_node(state)
        state.schedule_pending_pods()
        assert pod.bound_node == node.node_id

    def test_stale_pod_started_event_ignored_after_eviction(self):
        state = make_state()
        ready_node(state)
        pod = state.create_pod("web", 250)
        state.schedule_pending_pods()
        assert pod.state is PodState.STARTING
        state.resize_pool("main", 0)       # eviction while starting
        assert pod.state is PodState.PENDING
        node = ready_node(state)
        state.schedule_pending_pods()      # second binding, new PodStarted event
        fired = []
        while state.has_events():
            fired.append(state.step())
        assert pod.state is PodState.RUNNING
        stale = [ev for ev in fired if ev.payload.get("stale")]
        assert len(stale) == 1

    def test_cancel_provisioning_node(self):
        state = make_state()
        state.resize_pool("main", 1)
        node = state.pools["main"].nodes[0]
        state.resize_pool("main", 0)
        assert node.state is NodeState.DELETED
        ev = state.step()   # stale NodeReady
        assert ev.payload.get("stale")
        assert node.state is NodeState.DELETED

    def test_unknown_pool_rejected(self):
        state = make_state()
        with pytest.raises(UnknownPoolError):
            state.resize_pool("nope", 1)

    def test_negative_target_rejected(self):
        state = make_state()
        with pytest.raises(SimulationError):
            state.resize_pool("main", -1)


class TestPodLifecycle:
    def test_terminate_pending_pod_deletes_immediately(self):
        state = make_state()
        pod = state.create_pod("web", 250)
        state.terminate_pod(pod.pod_id)
        assert pod.state is PodState.DELETED
        assert not state.has_events()

    def test_terminate_running_pod_goes_through_terminating(self):
        state = make_state()
        node = ready_node(state)
        pod = state.create_pod("web", 250)
        state.schedule_pending_pods()
        state.step()
        assert pod.state is PodState.RUNNING
        state.terminate_pod(pod.pod_id)
        assert pod.state is PodState.TERMINATING
        assert pod.pod_id in node.bound_pods   # reservation held until deletion
        state.step()
        assert pod.state is PodState.DELETED
        assert pod.bound_node is None
        assert not node.bound_pods

    def test_replica_count_excludes_terminating_and_deleted(self):
        state = make_state()
        ready_node(state)
        pods = [state.create_pod("web", 250) for _ in range(3)]
        state.schedule_pending_pods()
        assert state.replicas("web") == 3
        state.terminate_pod(pods[0].pod_id)
        assert state.replicas("web") == 2
        state.terminate_pod(pods[1].pod_id)
        assert state.replicas("web") == 1

    def test_node_never_oversubscribed(self):
        state = make_state([NodePool("main", 1000, 120)])
        node = ready_node(state)
        for _ in range(6):
            state.create_pod("web", 250)
        state.schedule_pending_pods()
        used = sum(state.pods[p].cpu_request_millicores for p in node.bound_pods)
        assert used <= 1000
        assert sum(1 for p in state.pods.values() if p.state is PodState.PENDING) == 2


def test_scheduling_reaches_fixpoint_liveness():
    # After one pass, no pod left Pending fits on any Ready node.
    rng = random.Random(42)
    for _ in range(50):
        state = make_state([NodePool("main", 1000, 120)])
        for _ in range(rng.randint(0, 4)):
            state.add_ready_node("main")
        for _ in range(rng.randint(0, 12)):
            state.create_pod("web", rng.choice([100, 250, 400, 600, 900]))
        state.schedule_pending_pods()
        free = [1000 - n.used for n in state.pools["main"].ready_nodes()]
        for pod in state.pods.values():
            if pod.state is PodState.PENDING:
                assert all(pod.cpu_request_millicores > f for f in free)


class TestLifetime:
    """A pod or node that reaches Deleted leaves the state at that moment."""

    def test_terminating_a_pending_pod_retires_it(self):
        state = make_state()
        pod = state.create_pod("web", 250)
        state.terminate_pod(pod.pod_id)
        assert pod.pod_id not in state.pods
        assert pod.state is PodState.DELETED

    def test_pod_terminated_event_retires_the_pod(self):
        state = make_state()
        node = ready_node(state)
        pod = state.create_pod("web", 250)
        state.schedule_pending_pods()
        state.step()
        state.terminate_pod(pod.pod_id)
        assert pod.pod_id in state.pods
        state.step()
        assert pod.pod_id not in state.pods
        assert pod.state is PodState.DELETED
        assert not node.bound_pods

    def test_draining_a_terminating_pod_retires_it(self):
        state = make_state()
        node = ready_node(state)
        pod = state.create_pod("web", 250)
        state.schedule_pending_pods()
        state.step()
        state.terminate_pod(pod.pod_id)
        state.resize_pool("main", 0)
        assert pod.pod_id not in state.pods
        assert pod.state is PodState.DELETED
        assert node.state is NodeState.DELETED
        assert node not in state.pools["main"].nodes
        assert node.node_id not in state.nodes
        assert state.step().payload.get("stale")     # its PodTerminated

    def test_events_for_retired_objects_are_stale(self):
        state = make_state()
        ready_node(state)
        pod = state.create_pod("web", 250)
        state.schedule_pending_pods()                # PodStarted at t=10
        state.resize_pool("main", 0)                 # evicted: Pending again
        state.terminate_pod(pod.pod_id)              # retired while Pending
        state.resize_pool("main", 1)                 # NodeReady at t=120
        cancelled = state.pools["main"].nodes[0]
        state.resize_pool("main", 0)                 # retired while Provisioning
        assert pod.pod_id not in state.pods and cancelled.node_id not in state.nodes
        fired = [state.step() for _ in range(2)]
        assert [ev.kind for ev in fired] == [EventKind.POD_STARTED, EventKind.NODE_READY]
        assert all(ev.payload.get("stale") for ev in fired)
        assert pod.state is PodState.DELETED
        assert cancelled.state is NodeState.DELETED

    def test_creation_seq_counts_pods_ever_created(self):
        state = make_state()
        pods = [state.create_pod("web", 250) for _ in range(3)]
        state.terminate_pod(pods[0].pod_id)
        assert [p.creation_seq for p in pods] == [0, 1, 2]
        assert state.create_pod("web", 250).creation_seq == 3

    def test_churn_keeps_only_live_objects(self):
        rng = random.Random(7)
        state = make_state([NodePool("main", 1000, 30)], startup_delay=5)
        pool = state.pools["main"]
        checker = InvariantChecker("web")
        made = []
        for step in range(200):
            state.resize_pool("main", rng.randint(0, 3))
            made += [state.create_pod("web", 250) for _ in range(rng.randint(0, 3))]
            state.schedule_pending_pods()
            alive = [p for p in state.pods.values() if p.state is not PodState.TERMINATING]
            for pod in rng.sample(alive, min(len(alive), rng.randint(0, 3))):
                state.terminate_pod(pod.pod_id)
            state.enqueue(10 * (step + 1), EventKind.CONTROL_TICK, {"controller": "x"})
            while state.has_events() and state.peek_time() <= 10 * (step + 1):
                state.step()
                checker.check(state)
            assert len(state.pods) == sum(p.state is not PodState.DELETED for p in made)
            assert all(n.state is not NodeState.DELETED for n in pool.nodes)
            assert state.nodes == {n.node_id: n for n in pool.nodes}
            assert len(pool.nodes) <= 3
        assert len(made) > 150 and len(state.pods) < 40
