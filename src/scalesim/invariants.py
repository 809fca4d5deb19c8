"""Live structural invariants, checked after every fired event during a run.

A failed check raises InvariantViolation with the property name first, and the
run aborts with a nonzero exit instead of writing partial outputs.
"""

from __future__ import annotations

from .engine import ALIVE, ClusterState, NodeState, PodState
from .errors import InvariantViolation


class InvariantChecker:
    """Checks cluster-wide invariants; counts how many checks ran."""

    def __init__(self) -> None:
        self.checks_run = 0
        self._last_t = 0
        self._last_node_cost = 0
        self._last_pod_cost = 0

    def check(self, state: ClusterState, desired: dict[str, int] | None = None,
              migration_active: bool = False) -> None:
        self.checks_run += 1
        self._check_clock(state)
        self._check_nodes(state)
        self._check_pods(state)
        if desired is not None and not migration_active:
            self._check_replica_accounting(state, desired)

    def check_costs(self, node_cost: int, pod_cost: int) -> None:
        if node_cost < self._last_node_cost or pod_cost < self._last_pod_cost:
            raise InvariantViolation(
                "cost-monotonicity: cumulative cost decreased "
                f"(node {self._last_node_cost}->{node_cost}, pod {self._last_pod_cost}->{pod_cost})"
            )
        self._last_node_cost = node_cost
        self._last_pod_cost = pod_cost

    def _check_clock(self, state: ClusterState) -> None:
        if state.clock.now < self._last_t:
            raise InvariantViolation(
                f"clock-monotonicity: {self._last_t} -> {state.clock.now}"
            )
        self._last_t = state.clock.now

    def _check_nodes(self, state: ClusterState) -> None:
        """Each pool node is live and indexed in `state.nodes`, which holds
        nothing else; each pod it lists is live and bound to it."""
        count = 0
        for pool in state.pools.values():
            for node in pool.nodes:
                count += 1
                if node.state is NodeState.DELETED:
                    raise InvariantViolation(
                        f"node-retirement: Deleted node {node.node_id} is still in "
                        f"pool {pool.pool_id}"
                    )
                if state.nodes.get(node.node_id) is not node:
                    raise InvariantViolation(
                        f"node-index: node {node.node_id} of pool {pool.pool_id} is not indexed"
                    )
                used = 0
                for pid in node.bound_pods:
                    pod = state.pods.get(pid)
                    if pod is None or pod.bound_node != node.node_id:
                        raise InvariantViolation(
                            f"binding-consistency: node {node.node_id} lists pod {pid}, "
                            "which is not a live pod bound to it"
                        )
                    used += pod.cpu_request_millicores
                if used > pool.node_capacity_millicores:
                    raise InvariantViolation(
                        f"capacity-conservation: node {node.node_id} holds {used}m "
                        f"> capacity {pool.node_capacity_millicores}m"
                    )
                if node.bound_pods and node.state not in (NodeState.READY, NodeState.DRAINING):
                    raise InvariantViolation(
                        f"no-teleportation: node {node.node_id} in state {node.state.value} "
                        "has bound pods"
                    )
        if count != len(state.nodes):
            raise InvariantViolation(
                f"node-index: {len(state.nodes)} nodes indexed, {count} in the pools"
            )

    def _check_pods(self, state: ClusterState) -> None:
        """Each kept pod is live, and bound exactly when its state says so, to
        a node that lists it."""
        for pod in state.pods.values():
            if pod.state is PodState.DELETED:
                raise InvariantViolation(f"pod-retirement: Deleted pod {pod.pod_id} is still kept")
            should_be_bound = pod.state in (
                PodState.STARTING, PodState.RUNNING, PodState.TERMINATING
            )
            if should_be_bound != (pod.bound_node is not None):
                raise InvariantViolation(
                    f"binding-consistency: pod {pod.pod_id} state {pod.state.value} "
                    f"with bound_node={pod.bound_node}"
                )
            if pod.bound_node is not None:
                node = state.nodes.get(pod.bound_node)
                if node is None or pod.pod_id not in node.bound_pods:
                    raise InvariantViolation(
                        f"binding-consistency: pod {pod.pod_id} missing from "
                        f"node {pod.bound_node} bound set"
                    )

    def _check_replica_accounting(self, state: ClusterState, desired: dict[str, int]) -> None:
        for workload_id, want in desired.items():
            have = sum(
                1 for p in state.pods.values() if p.workload_id == workload_id and p.state in ALIVE
            )
            if have != want:
                raise InvariantViolation(
                    f"replica-accounting: workload {workload_id} desired {want} "
                    f"but Pending+Starting+Running = {have}"
                )
