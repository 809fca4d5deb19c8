"""Live structural invariants, checked after every fired event during a run.

A failed check raises InvariantViolation with the property name first, and the
run aborts with a nonzero exit instead of writing partial outputs.

Each check looks at the pods and nodes that the engine marked touched since the
check before. Those are the only objects whose properties can have changed,
because the engine makes every change through its tracked helpers (a test pins
that no other module assigns the fields they guard). The checker keeps its own
tally of the kept pods' states, updated from the touched pods alone, and holds
the engine's counts and the desired replicas to it. A full recount (`recount`)
is the same check run with the tally emptied and every pool node and every
kept pod marked touched, so every count is recomputed from its definition. It
runs on a checker's first look at a state, and the runner ends every run with
one more, which also catches a change made outside the tracked helpers.
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
        # The tally: each kept pod by its state at the last check, and the
        # counts the engine keeps, taken over those pods.
        self._seen: dict[Pod, PodState] = {}
        self._alive: dict[str, int] = {}
        self._running: dict[str, int] = {}
        self._pending = 0
        self._bound = 0

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
        checks every pool node and every kept pod as touched, so every count
        the engine keeps is held to its definition. It is not counted in
        `checks_run`."""
        self._seen, self._alive, self._running = {}, {}, {}
        self._pending = self._bound = 0
        for pool in state.pools.values():
            state.touched_nodes.update(dict.fromkeys(pool.nodes))
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
        """Check the touched nodes and the node index, then the touched pods,
        moving each in the tally, then each touched node's `used` and the
        engine's counts. Empties the touched sets."""
        touched_pods, touched_nodes = state.touched_pods, state.touched_nodes
        miscounted = None       # the first live node whose `used` is off
        if touched_nodes:
            for node in touched_nodes:
                pool = state.pools[node.pool_id]
                if node.state is NODE_DELETED:
                    self._check_retired_node(state, pool, node)
                    continue
                recounted = self._check_live_node(state, pool, node)
                if node.used != recounted and miscounted is None:
                    miscounted = node, recounted
            touched_nodes.clear()
        indexed = 0
        for pool in state.pools.values():
            indexed += len(pool.nodes)
        if indexed != len(state.nodes):
            raise InvariantViolation(
                f"node-index: {len(state.nodes)} nodes indexed, {indexed} in the pools"
            )
        if touched_pods:
            kept, pending, seen = state.pods.get, state.pending.get, self._seen
            for pod in touched_pods:
                # A kept pod passes the kept-pod checks, a pod that is not
                # kept must be Deleted, and the pending set follows the pod.
                new = pod.state
                if kept(pod.pod_id) is pod:
                    self._check_kept_pod(state, pod)
                    old = seen.get(pod)
                    seen[pod] = new
                elif new is POD_DELETED:
                    old = seen.pop(pod, None)
                    new = None
                else:
                    raise InvariantViolation(
                        f"pod-index: pod {pod.pod_id} in state {new.value} is not kept"
                    )
                if (pending(pod.pod_id) is pod) is not (new is PENDING):
                    raise InvariantViolation(
                        f"pod-counts: pod {pod.pod_id} in state {pod.state.value} is "
                        f"{'' if new is PENDING else 'not '}in the pending set"
                    )
                if old is not new:
                    self._tally_move(pod.workload_id, old, new)
            touched_pods.clear()
        # After the pods: a node that lost pods from its bound set behind the
        # engine's back is reported as the binding fault it is.
        if miscounted is not None:
            node, recounted = miscounted
            raise InvariantViolation(
                f"capacity-conservation: node {node.node_id} counts {node.used}m "
                f"but its pods request {recounted}m"
            )
        self._check_counts(state)
        if desired is not None:
            self._check_replica_accounting(desired)

    # ------------------------------------------------------------------ nodes

    def _check_live_node(self, state: ClusterState, pool: NodePool, node: Node) -> int:
        """Index, binding, capacity and no-teleportation of one live node;
        returns the millicores its pods request."""
        if state.nodes.get(node.node_id) is not node:
            raise InvariantViolation(
                f"node-index: node {node.node_id} of pool {pool.pool_id} is not indexed"
            )
        used = 0
        kept, node_id = state.pods.get, node.node_id
        for pid in node.bound_pods:
            pod = kept(pid)
            if pod is None or pod.bound_node != node_id:
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
        if node.bound_pods and node.state is not READY:
            raise InvariantViolation(
                f"no-teleportation: node {node.node_id} in state {node.state.value} "
                "has bound pods"
            )
        return used

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

    def _tally_move(self, workload: str, old: PodState | None, new: PodState | None) -> None:
        """Move one pod of `workload` in the tally from state `old` to `new`
        (None: not kept)."""
        alive = (new in ALIVE) - (old in ALIVE)
        if alive:
            self._alive[workload] = self._alive.get(workload, 0) + alive
        running = (new is RUNNING) - (old is RUNNING)
        if running:
            self._running[workload] = self._running.get(workload, 0) + running
        self._pending += (new is PENDING) - (old is PENDING)
        self._bound += (new in BOUND) - (old in BOUND)

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
