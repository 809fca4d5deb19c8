"""Live structural invariants, checked after every fired event during a run.

A failed check raises InvariantViolation with the property name first, and the
run aborts with a nonzero exit instead of writing partial outputs.

Each check looks at the pods and nodes that the engine marked touched since the
check before. Those are the only objects whose properties can have changed,
because the engine makes every change through its tracked helpers (a test pins
that no other module assigns the fields they guard). The checker keeps its own
tally, updated from the touched pods alone: each kept pod's state, node and
request, the counts the engine keeps taken over those pods, and the pods and
millicores bound to each node. It holds the engine's counts, the desired
replicas and each touched node to that tally, so a check costs O(1) per touched
pod and per touched node; only a node whose tally disagrees is scanned, to name
its fault. A full recount (`recount`) is the same check run with the tally
emptied and every node and every kept pod marked touched, so every count is
recomputed from its definition: each kept pod bound to a node is listed by it,
so equal pod counts make the two sets equal and their requests sum to `used`.
It runs on a checker's first look at a state, and the runner ends every run
with one more, which also catches a change made outside the tracked helpers.
"""

from __future__ import annotations

from .engine import (
    ALIVE,
    BOUND,
    NODE_DELETED,
    PENDING,
    POD_DELETED,
    READY,
    RUNNING,
    ClusterState,
    Node,
    NodePool,
    Pod,
    PodState,
)
from .errors import InvariantViolation

_GONE = (None, None, 0)     # the tally's entry for a pod that is not kept
_EMPTY = (0, 0)             # the tally of a node that no kept pod is bound to


class InvariantChecker:
    """Checks cluster-wide invariants; counts how many checks ran. The replica
    count that a check may be given is that of the workload `workload_id`."""

    def __init__(self, workload_id: str) -> None:
        self.workload_id = workload_id
        self.checks_run = 0
        self._last_t = 0
        self._last_node_cost = 0
        self._last_pod_cost = 0
        self._state: ClusterState | None = None    # the state the tally describes
        # The tally: each kept pod by its (state, bound node, request) at the
        # last check; the counts the engine keeps, taken over those pods; and
        # the [pods, millicores] bound to each node id that has any.
        self._seen: dict[Pod, tuple[PodState, str | None, int]] = {}
        self._alive: dict[str, int] = {}
        self._running: dict[str, int] = {}
        self._pending = 0
        self._bound = 0
        self._on: dict[str, list[int]] = {}

    def check(self, state: ClusterState, desired: int | None = None) -> None:
        """Check the objects touched since the last check, or everything if
        this checker has not yet seen `state`. The workload must have
        `desired` live pods; None skips replica accounting."""
        self.checks_run += 1
        if state.now < self._last_t:
            raise InvariantViolation(
                f"clock-monotonicity: {self._last_t} -> {state.now}"
            )
        self._last_t = state.now
        if state is not self._state:
            self.recount(state, desired)
            return
        self._check_touched(state, desired)

    def recount(self, state: ClusterState, desired: int | None = None) -> None:
        """Full-strength check of the whole state: starts the tally afresh and
        checks every node, of a pool or the index, and every kept pod as
        touched, so every count the engine keeps is held to its definition.
        It is not counted in `checks_run`."""
        self._seen, self._alive, self._running, self._on = {}, {}, {}, {}
        self._pending = self._bound = 0
        for pool in state.pools.values():
            state.touched_nodes.update(dict.fromkeys(pool.nodes))
        state.touched_nodes.update(dict.fromkeys(state.nodes.values()))
        state.touched_pods.update(dict.fromkeys(state.pods.values()))
        self._check_touched(state, desired)
        self._state = state

    def check_costs(self, node_cost: int, pod_cost: int) -> None:
        if node_cost < self._last_node_cost or pod_cost < self._last_pod_cost:
            raise InvariantViolation(
                "cost-monotonicity: cumulative cost decreased "
                f"(node {self._last_node_cost}->{node_cost}, pod {self._last_pod_cost}->{pod_cost})"
            )
        self._last_node_cost = node_cost
        self._last_pod_cost = pod_cost

    def _check_touched(self, state: ClusterState, desired: int | None) -> None:
        """Check the touched nodes' retirement and index, then the touched
        pods, moving each in the tally, then each touched live node against
        its tally, and the engine's counts. Empties the touched sets."""
        touched_pods, touched_nodes = state.touched_pods, state.touched_nodes
        if touched_nodes:
            indexed = state.nodes.get
            for node in touched_nodes:
                if node.state is NODE_DELETED:
                    self._check_retired_node(state, state.pools[node.pool_id], node)
                elif indexed(node.node_id) is not node:
                    raise InvariantViolation(
                        f"node-index: node {node.node_id} of pool {node.pool_id} is not indexed"
                    )
            # Only _new_node and _drain change the index, and both touch a node.
            in_pools = sum(len(pool.nodes) for pool in state.pools.values())
            if in_pools != len(state.nodes):
                raise InvariantViolation(
                    f"node-index: {len(state.nodes)} nodes indexed, {in_pools} in the pools"
                )
        if touched_pods:
            kept, pending, seen = state.pods.get, state.pending.get, self._seen
            for pod in touched_pods:
                # A kept pod passes the kept-pod checks, a pod that is not
                # kept must be Deleted, and the pending set follows the pod.
                pod_state = pod.state
                if kept(pod.pod_id) is pod:
                    self._check_kept_pod(state, pod)
                    new = (pod_state, pod.bound_node, pod.cpu_request_millicores)
                    old = seen.get(pod, _GONE)
                    seen[pod] = new
                elif pod_state is POD_DELETED:
                    old = seen.pop(pod, _GONE)
                    new = _GONE
                else:
                    raise InvariantViolation(
                        f"pod-index: pod {pod.pod_id} in state {pod_state.value} is not kept"
                    )
                if (pending(pod.pod_id) is pod) is not (pod_state is PENDING):
                    raise InvariantViolation(
                        f"pod-counts: pod {pod.pod_id} in state {pod_state.value} is "
                        f"{'' if pod_state is PENDING else 'not '}in the pending set"
                    )
                if old != new:
                    self._tally_move(state, pod, old, new)
            touched_pods.clear()
        # After the pods: a node that lost pods from its bound set behind the
        # engine's back is reported as the binding fault it is.
        if touched_nodes:
            tallied = self._on.get
            for node in touched_nodes:
                if node.state is NODE_DELETED:
                    continue
                pool = state.pools[node.pool_id]
                pods, millicores = tallied(node.node_id, _EMPTY)
                if (pods != len(node.bound_pods) or millicores != node.used
                        or node.used > pool.node_capacity_millicores
                        or node.bound_pods and node.state is not READY):
                    self._check_live_node(state, pool, node, pods, millicores)
            touched_nodes.clear()
        self._check_counts(state)
        if desired is not None:
            self._check_replica_accounting(desired)

    # ------------------------------------------------------------------ nodes

    def _check_live_node(self, state: ClusterState, pool: NodePool, node: Node,
                         pods: int, millicores: int) -> None:
        """Scan a live node that disagrees with its tally, and raise the
        violation that names its fault."""
        used = sum(self._listed_pod(state, node, pid).cpu_request_millicores
                   for pid in node.bound_pods)
        if used > pool.node_capacity_millicores:
            raise InvariantViolation(
                f"capacity-conservation: node {node.node_id} holds {used}m "
                f"> capacity {pool.node_capacity_millicores}m"
            )
        if node.bound_pods and node.state is not READY:
            raise InvariantViolation(
                f"no-teleportation: node {node.node_id} in state {node.state.value} "
                "has bound pods"
            )
        if node.used != used:
            raise InvariantViolation(
                f"capacity-conservation: node {node.node_id} counts {node.used}m "
                f"but its pods request {used}m"
            )
        raise InvariantViolation(
            f"binding-consistency: node {node.node_id} lists {len(node.bound_pods)} pods "
            f"of {used}m, but {pods} kept pods of {millicores}m are bound to it"
        )

    def _listed_pod(self, state: ClusterState, node: Node, pid: str) -> Pod:
        """The live pod bound to `node` that it lists as `pid`."""
        pod = state.pods.get(pid)
        if pod is None or pod.bound_node != node.node_id:
            raise InvariantViolation(
                f"binding-consistency: node {node.node_id} lists pod {pid}, "
                "which is not a live pod bound to it"
            )
        return pod

    def _check_retired_node(self, state: ClusterState, pool: NodePool, node: Node) -> None:
        if node in pool.nodes:
            raise InvariantViolation(
                f"node-retirement: Deleted node {node.node_id} is still in pool {pool.pool_id}"
            )
        if state.nodes.get(node.node_id) is node:
            raise InvariantViolation(
                f"node-index: Deleted node {node.node_id} is still indexed"
            )

    # ------------------------------------------------------------------- pods

    def _check_kept_pod(self, state: ClusterState, pod: Pod) -> None:
        """A kept pod is live, and bound exactly when its state says so, to a
        node that lists it."""
        if pod.state is POD_DELETED:
            raise InvariantViolation(f"pod-retirement: Deleted pod {pod.pod_id} is still kept")
        bound_node = pod.bound_node
        if (pod.state in BOUND) is (bound_node is None):
            raise InvariantViolation(
                f"binding-consistency: pod {pod.pod_id} state {pod.state.value} "
                f"with bound_node={pod.bound_node}"
            )
        if bound_node is not None:
            node = state.nodes.get(bound_node)
            if node is None or pod.pod_id not in node.bound_pods:
                raise InvariantViolation(
                    f"binding-consistency: pod {pod.pod_id} missing from "
                    f"node {pod.bound_node} bound set"
                )

    # ----------------------------------------------------------------- counts

    def _tally_move(self, state: ClusterState, pod: Pod, old: tuple, new: tuple) -> None:
        """Move `pod` in the tally from `old` to `new`, each its (state, bound
        node, request), or _GONE when it is not kept. A node the pod left
        must no longer list it."""
        (old_state, left, request), (new_state, bound, needs) = old, new
        workload = pod.workload_id
        alive = (new_state in ALIVE) - (old_state in ALIVE)
        if alive:
            self._alive[workload] = self._alive.get(workload, 0) + alive
        running = (new_state is RUNNING) - (old_state is RUNNING)
        if running:
            self._running[workload] = self._running.get(workload, 0) + running
        self._pending += (new_state is PENDING) - (old_state is PENDING)
        self._bound += (new_state in BOUND) - (old_state in BOUND)
        if left == bound and request == needs:
            return
        on = self._on
        if left is not None:
            tally = on[left]
            tally[0] -= 1
            tally[1] -= request
            if not tally[0]:
                del on[left]
            node = state.nodes.get(left)
            if left != bound and node is not None and pod.pod_id in node.bound_pods:
                self._listed_pod(state, node, pod.pod_id)
        if bound is not None:
            tally = on.setdefault(bound, [0, 0])
            tally[0] += 1
            tally[1] += needs

    def _check_counts(self, state: ClusterState) -> None:
        """The engine's counts equal the tally's."""
        if len(state.pods) != len(self._seen):
            raise InvariantViolation(
                f"pod-index: {len(state.pods)} pods kept, {len(self._seen)} accounted for"
            )
        if state.alive_by_workload != self._alive or state.running_by_workload != self._running:
            # Equal but for workloads counted at zero on one side only?
            for name, counted, tallied in (
                ("alive", state.alive_by_workload, self._alive),
                ("running", state.running_by_workload, self._running),
            ):
                if any(counted.get(w, 0) != tallied.get(w, 0) for w in counted.keys() | tallied):
                    raise InvariantViolation(
                        f"pod-counts: {name} pods by workload counted {counted}, "
                        f"the pods say {tallied}"
                    )
        if len(state.pending) != self._pending or state.bound_count != self._bound:
            raise InvariantViolation(
                f"pod-counts: {len(state.pending)} pending and {state.bound_count} bound "
                f"counted, the pods say {self._pending} and {self._bound}"
            )

    def _check_replica_accounting(self, desired: int) -> None:
        have = self._alive.get(self.workload_id, 0)
        if have != desired:
            raise InvariantViolation(
                f"replica-accounting: workload {self.workload_id} desired {desired} "
                f"but Pending+Starting+Running = {have}"
            )
