"""Negative controls for the live invariant checker: a small cluster built by
hand, corrupted in one way per case, must raise InvariantViolation naming the
broken property. Each case runs the one check path twice: on a checker's
first look, a full recount that marks every kept pod and pool node touched,
and on a later check that sees only the corrupted objects as touched. A change made behind
the engine's back mid-run is caught by the recount at the end of the run, and
a check after a one-pod event does not walk the whole cluster."""

import pytest

from scalesim.cli import EXIT_INVARIANT, main
from scalesim.control import ReactiveController
from scalesim.engine import ClusterState, EventKind, Node, NodePool, NodeState, PodState
from scalesim.errors import InvariantViolation
from scalesim.invariants import InvariantChecker


def small_cluster():
    """Two Ready nodes, two Running pods and one Pending pod; plus a pod and
    a node that have been retired, returned for corrupting with."""
    state = ClusterState([NodePool("main", 1000, 60)], pod_startup_delay=5)
    node = state.add_ready_node("main")
    spare = state.add_ready_node("main")
    doomed = state.add_ready_node("main")
    pods = [state.create_pod("web", 400) for _ in range(3)]
    state.schedule_pending_pods()
    while state.has_events():
        state.step()
    state.create_pod("web", 900)
    state.terminate_pod(pods[2].pod_id)
    while state.has_events():
        state.step()
    state.resize_pool("main", 2)      # retires the empty node with the highest id
    assert pods[2].state is PodState.DELETED and doomed.state is NodeState.DELETED
    return state, node, spare, pods[2], doomed


def test_clean_cluster_passes():
    state, *_ = small_cluster()
    InvariantChecker("web").check(state, desired=3)


def test_replica_count_off_desired_is_caught():
    state, *_ = small_cluster()
    with pytest.raises(InvariantViolation, match="^replica-accounting:"):
        InvariantChecker("web").check(state, desired=2)


# Each corruption returns the pods and nodes whose invariants it breaks.

def _retired_pod_listed_by_node(state, node, spare, pod, doomed):
    node.bound_pods.add(pod.pod_id)
    return node, pod


def _deleted_pod_kept(state, node, spare, pod, doomed):
    state.pods[pod.pod_id] = pod
    return (pod,)


def _deleted_node_kept(state, node, spare, pod, doomed):
    state.pools["main"].nodes.append(doomed)
    state.nodes[doomed.node_id] = doomed
    return (doomed,)


def _live_node_not_indexed(state, node, spare, pod, doomed):
    del state.nodes[spare.node_id]
    return (spare,)


def _retired_node_still_indexed(state, node, spare, pod, doomed):
    state.nodes[doomed.node_id] = doomed
    return (doomed,)


def _index_swaps_live_node_for_retired(state, node, spare, pod, doomed):
    del state.nodes[spare.node_id]
    state.nodes[doomed.node_id] = doomed
    return spare, doomed


def _pod_bound_to_unindexed_node(state, node, spare, pod, doomed):
    live = next(p for p in state.pods.values() if p.bound_node == node.node_id)
    live.bound_node = doomed.node_id
    return (live,)


def _node_over_capacity(state, node, spare, pod, doomed):
    heavy = state.pods[min(node.bound_pods)]
    heavy.cpu_request_millicores = 1001
    return heavy, node


def _bound_pods_on_provisioning_node(state, node, spare, pod, doomed):
    node.state = NodeState.PROVISIONING
    return (node,)


def _pending_pod_with_node(state, node, spare, pod, doomed):
    pending = next(p for p in state.pods.values() if p.state is PodState.PENDING)
    pending.bound_node = spare.node_id
    return (pending,)


def _bound_pod_not_listed(state, node, spare, pod, doomed):
    unlisted = [state.pods[pid] for pid in sorted(node.bound_pods)]
    node.bound_pods.clear()
    return (node, *unlisted)


def _pending_set_holds_retired_pod(state, node, spare, pod, doomed):
    state.pending[pod.pod_id] = pod
    return (pod,)


def _pending_set_misses_pending_pod(state, node, spare, pod, doomed):
    pending = next(p for p in state.pods.values() if p.state is PodState.PENDING)
    del state.pending[pending.pod_id]
    return (pending,)


def _bound_count_drifts(state, node, spare, pod, doomed):
    state.bound_count += 1
    return ()


CORRUPTIONS = [
    (_retired_pod_listed_by_node, "binding-consistency"),
    (_deleted_pod_kept, "pod-retirement"),
    (_deleted_node_kept, "node-retirement"),
    (_live_node_not_indexed, "node-index"),
    (_retired_node_still_indexed, "node-index"),
    (_index_swaps_live_node_for_retired, "node-index"),
    (_pod_bound_to_unindexed_node, "binding-consistency"),
    (_node_over_capacity, "capacity-conservation"),
    (_bound_pods_on_provisioning_node, "no-teleportation"),
    (_pending_pod_with_node, "binding-consistency"),
    (_bound_pod_not_listed, "binding-consistency"),
    (_pending_set_holds_retired_pod, "pod-counts"),
    (_pending_set_misses_pending_pod, "pod-counts"),
    (_bound_count_drifts, "pod-counts"),
]


@pytest.mark.parametrize("corrupt, prop", CORRUPTIONS)
def test_corruption_is_caught(corrupt, prop):
    state, *objects = small_cluster()
    corrupt(state, *objects)
    with pytest.raises(InvariantViolation, match=rf"^{prop}:"):
        InvariantChecker("web").check(state)


def mark_touched(state, objects):
    for obj in objects:
        touched = state.touched_nodes if isinstance(obj, Node) else state.touched_pods
        touched[obj] = None


@pytest.mark.parametrize("corrupt, prop", CORRUPTIONS)
def test_corruption_of_touched_objects_is_caught_incrementally(corrupt, prop):
    state, *objects = small_cluster()
    checker = InvariantChecker("web")
    checker.check(state, desired=3)
    assert not state.touched_pods and not state.touched_nodes
    mark_touched(state, corrupt(state, *objects))
    with pytest.raises(InvariantViolation, match=rf"^{prop}:"):
        checker.check(state, desired=3)


def test_incremental_replica_accounting_follows_touched_pods():
    state, node, *_ = small_cluster()
    checker = InvariantChecker("web")
    checker.check(state, desired=3)
    state.create_pod("web", 100)
    checker.check(state, desired=4)
    state.terminate_pod(min(node.bound_pods))
    with pytest.raises(InvariantViolation, match="^replica-accounting:"):
        checker.check(state, desired=4)


def test_counts_kept_behind_the_engine_are_caught_by_the_recount():
    state, node, *_ = small_cluster()
    pod = state.pods[min(node.bound_pods)]
    pod.state = PodState.STARTING          # a Running pod, changed untracked
    with pytest.raises(InvariantViolation, match="^pod-counts:"):
        InvariantChecker("web").recount(state)


def test_untracked_mutation_mid_run_is_caught_at_the_end(tmp_path, monkeypatch, capsys):
    # Demand holds steady, so no tick after t=60 touches the pod again: every
    # per-event check passes and only the final recount sees the change.
    scn = tmp_path / "steady.scn"
    scn.write_text(
        "workload = custom\ncontroller = hpa_ca\n"
        "phase.1.duration = 120\nphase.1.target_vus = 200\nphase.1.ramp = step\n"
    )
    tick = ReactiveController.tick

    def tampering_tick(self, state, now):
        record = tick(self, state, now)
        if now == 60:
            running = next(p for p in state.pods.values() if p.state is PodState.RUNNING)
            running.state = PodState.STARTING
        return record

    recount = InvariantChecker.recount
    recounts = []

    def counted_recount(self, *args, **kwargs):
        recounts.append(self.checks_run)
        return recount(self, *args, **kwargs)

    monkeypatch.setattr(ReactiveController, "tick", tampering_tick)
    monkeypatch.setattr(InvariantChecker, "recount", counted_recount)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scn), "--out", str(out)]) == EXIT_INVARIANT
    assert not out.exists()
    assert "pod-counts" in capsys.readouterr().err
    # The first check's recount, then the one after the last event.
    assert len(recounts) == 2 and recounts[0] == 1 and recounts[1] > 20


class CountingDict(dict):
    """A dict that counts the calls that walk it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()

    def keys(self):
        self.walks += 1
        return super().keys()


def test_check_after_a_one_pod_event_does_not_walk_the_pods():
    state = ClusterState([NodePool("main", 16000, 60)], pod_startup_delay=5)
    for _ in range(7):
        state.add_ready_node("main")
    for _ in range(400):
        state.create_pod("web", 250)
    state.schedule_pending_pods()
    checker = InvariantChecker("web")
    while state.has_events():
        state.step()
    checker.check(state, desired=400)
    assert len(state.pods) == 400 and state.running_replicas("web") == 400

    state.pods = CountingDict(state.pods)
    state.terminate_pod(min(state.nodes["main-n1"].bound_pods))
    assert state.pods.walks == 0
    ev = state.step()
    assert ev.kind is EventKind.POD_TERMINATED
    checker.check(state, desired=399)
    assert state.pods.walks == 0
    assert len(state.pods) == 399
    checker.recount(state, desired=399)   # the full recount does walk them
    assert state.pods.walks > 0
