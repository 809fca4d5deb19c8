"""Negative controls for the live invariant checker: a small cluster built by
hand, corrupted in one way per case, must raise InvariantViolation naming the
broken property."""

import pytest

from scalesim.engine import ClusterState, NodePool, NodeState, PodState
from scalesim.errors import InvariantViolation
from scalesim.invariants import InvariantChecker


def small_cluster():
    """Two Ready nodes, two Running pods and one Pending pod; plus a pod and
    a node that have been retired, returned for corrupting with."""
    state = ClusterState([NodePool("main", "m", 1000, 1.0, 60)], pod_startup_delay=5)
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
    InvariantChecker().check(state, desired={"web": 3})


def test_replica_count_off_desired_is_caught():
    state, *_ = small_cluster()
    with pytest.raises(InvariantViolation, match="^replica-accounting:"):
        InvariantChecker().check(state, desired={"web": 2})


def _retired_pod_listed_by_node(state, node, spare, pod, doomed):
    node.bound_pods.add(pod.pod_id)


def _deleted_pod_kept(state, node, spare, pod, doomed):
    state.pods[pod.pod_id] = pod


def _deleted_node_kept(state, node, spare, pod, doomed):
    state.pools["main"].nodes.append(doomed)
    state.nodes[doomed.node_id] = doomed


def _live_node_not_indexed(state, node, spare, pod, doomed):
    del state.nodes[spare.node_id]


def _retired_node_still_indexed(state, node, spare, pod, doomed):
    state.nodes[doomed.node_id] = doomed


def _index_swaps_live_node_for_retired(state, node, spare, pod, doomed):
    del state.nodes[spare.node_id]
    state.nodes[doomed.node_id] = doomed


def _pod_bound_to_unindexed_node(state, node, spare, pod, doomed):
    live = next(p for p in state.pods.values() if p.bound_node == node.node_id)
    live.bound_node = doomed.node_id


def _node_over_capacity(state, node, spare, pod, doomed):
    state.pods[min(node.bound_pods)].cpu_request_millicores = 1001


def _bound_pods_on_provisioning_node(state, node, spare, pod, doomed):
    node.state = NodeState.PROVISIONING


def _pending_pod_with_node(state, node, spare, pod, doomed):
    pending = next(p for p in state.pods.values() if p.state is PodState.PENDING)
    pending.bound_node = spare.node_id


def _bound_pod_not_listed(state, node, spare, pod, doomed):
    node.bound_pods.clear()


@pytest.mark.parametrize("corrupt, prop", [
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
])
def test_corruption_is_caught(corrupt, prop):
    state, *objects = small_cluster()
    corrupt(state, *objects)
    with pytest.raises(InvariantViolation, match=rf"^{prop}:"):
        InvariantChecker().check(state)
