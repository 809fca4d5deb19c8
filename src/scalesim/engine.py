"""Discrete-event core: the event queue and the cluster state machine.

Time is integer seconds, kept as `ClusterState.now` and set only by `step`,
to the time of the event it fires. All state transitions happen by firing the
earliest pending event, from the queue or from a periodic stream, so two runs
fed identical inputs replay identical histories.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

from .errors import EmptyQueueError, SimulationError, UnknownPoolError


class NodeState(Enum):
    PROVISIONING = "Provisioning"
    READY = "Ready"
    DELETED = "Deleted"


class PodState(Enum):
    PENDING = "Pending"
    STARTING = "Starting"
    RUNNING = "Running"
    TERMINATING = "Terminating"
    DELETED = "Deleted"


# Members bound once at import: on CPython 3.11 looking a member up on its Enum
# class costs about eight global lookups, and the engine, the checker and the
# observer test states on every event.
PROVISIONING, READY, NODE_DELETED = (
    NodeState.PROVISIONING, NodeState.READY, NodeState.DELETED)
PENDING, STARTING, RUNNING, TERMINATING, POD_DELETED = (
    PodState.PENDING, PodState.STARTING, PodState.RUNNING, PodState.TERMINATING,
    PodState.DELETED)

# Pods that count as replicas: alive and not on their way out.
ALIVE = (PENDING, STARTING, RUNNING)
# Pods that hold a node's reservation.
BOUND = (STARTING, RUNNING, TERMINATING)


# Forward-only ordering of node lifecycle states: NodeState's declaration
# order is the lifecycle order. A transition may skip a state (a cancelled
# Provisioning node is deleted without ever serving) but may never move
# backwards.
_NODE_ORDER = {s: i for i, s in enumerate(NodeState)}


class EventKind(Enum):
    NODE_READY = "NodeReady"
    POD_STARTED = "PodStarted"
    POD_TERMINATED = "PodTerminated"
    WORKLOAD_PHASE_CHANGE = "WorkloadPhaseChange"
    POLICY_SWITCH = "PolicySwitch"
    CONTROL_TICK = "ControlTick"

    # Members are singletons, so identity is their hash: Enum's own hashes the
    # name in Python, on every lookup of a kind in a dict. No artifact's
    # order depends on it: nothing iterates a set of kinds.
    __hash__ = object.__hash__


# Tie-break rank for events sharing a fire_at second: EventKind's
# declaration order.
_KIND_RANK = {k: i for i, k in enumerate(EventKind)}

NODE_READY, POD_STARTED, POD_TERMINATED, CONTROL_TICK = (
    EventKind.NODE_READY, EventKind.POD_STARTED, EventKind.POD_TERMINATED,
    EventKind.CONTROL_TICK)


# One per event, so slotted: smaller, and quicker to build and read.
@dataclass(slots=True)
class SimEvent:
    fire_at: int
    kind: EventKind
    payload: dict


# Pods and nodes compare by identity: the engine keeps them in sets of
# touched objects, and two distinct objects are never the same pod or node.
@dataclass(eq=False)
class Node:
    node_id: str
    pool_id: str
    state: NodeState = PROVISIONING
    bound_pods: set[str] = field(default_factory=set)
    used: int = 0       # millicores requested by the pods in bound_pods

    def transition(self, new_state: NodeState) -> None:
        if _NODE_ORDER[new_state] < _NODE_ORDER[self.state]:
            raise SimulationError(
                f"node {self.node_id}: illegal transition {self.state.value} -> {new_state.value}"
            )
        self.state = new_state


@dataclass
class NodePool:
    pool_id: str
    node_capacity_millicores: int
    provisioning_delay: int    # seconds from resize to Ready
    nodes: list[Node] = field(default_factory=list)
    _next_node: int = 1

    def ready_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.state is READY]


@dataclass(eq=False)
class Pod:
    pod_id: str
    workload_id: str
    cpu_request_millicores: int
    state: PodState = PENDING
    bound_node: str | None = None
    creation_seq: int = 0
    pending_since: int = 0
    # Incremented on every bind so a stale PodStarted event from an earlier
    # binding cannot promote the pod after it was evicted and rescheduled.
    binding_seq: int = 0


def generated_pod_id(workload_id: str, n: int) -> str:
    """The id `create_pod` gives the n-th pod (from 1) it names for a workload."""
    return f"{workload_id}-p{n}"


class ClusterState:
    """Mutable cluster snapshot: pools, pods, the current time `now`, the
    event queue and the periodic streams kept beside it.

    Only live objects are kept: a pod or node that reaches Deleted leaves
    `pods`, `nodes` and its pool's `nodes` at that moment. Callers that hold
    the object still see its Deleted state.

    Every change to a pod's state or binding, and to a node's state or bound
    pods, is made here, by `_set_pod_state`, `_place` and `_set_node_state`.
    They keep the counts that readers use in place of scans (`pending`, the
    per-workload alive and running counts, `bound_count` and each node's
    `used`) and add each object they change to `touched_pods` or
    `touched_nodes`, which the invariant checker reads and empties.
    """

    def __init__(self, pools: list[NodePool], pod_startup_delay: int = 10):
        self.now = 0
        self.pools: dict[str, NodePool] = {p.pool_id: p for p in pools}
        self.pods: dict[str, Pod] = {}
        self.nodes: dict[str, Node] = {}     # every pool's nodes, by id
        self.pod_startup_delay = pod_startup_delay
        # Pool preferred by the scheduler; controllers keep it pointed at the
        # active policy's pool.
        self.preferred_pool_id: str | None = None
        # Heap of (fire_at, kind rank, seq, event), popped in that order.
        self._queue: list[tuple[int, int, int, SimEvent]] = []
        # Heap of the periodic streams' next instants, one entry per stream:
        # (fire_at, registration order, the instants after it, kind, payload).
        self._streams: list[tuple[int, int, Iterator[int], EventKind, dict]] = []
        self._next_seq = 0
        self._pod_counters: dict[str, int] = {}
        self._pods_created = 0
        self.pending: dict[str, Pod] = {}    # Pending pods, by id
        self.bound_count = 0                 # pods bound to a node
        # Per workload: pods Pending, Starting or Running, and pods Running.
        self.alive_by_workload: dict[str, int] = {}
        self.running_by_workload: dict[str, int] = {}
        # Objects changed since the checker last looked; dicts keep the order.
        self.touched_pods: dict[Pod, None] = {}
        self.touched_nodes: dict[Node, None] = {}

    # ------------------------------------------------------------------ events

    def enqueue(self, fire_at: int, kind: EventKind, payload: dict) -> SimEvent:
        if fire_at < self.now:
            raise SimulationError(
                f"event {kind.value} scheduled in the past ({fire_at} < {self.now})"
            )
        ev = SimEvent(fire_at, kind, payload)
        heapq.heappush(self._queue, (fire_at, _KIND_RANK[kind], self._next_seq, ev))
        self._next_seq += 1
        return ev

    def every(self, times: range, kind: EventKind, payload: dict) -> None:
        """Fire a `kind` event with this same `payload` object at each of
        `times`, without queueing them: `step` takes each instant from the
        range when it is due. The kind must be ControlTick, the kind that
        ranks last, so that `step`'s rule keeps the queue's order."""
        if kind is not CONTROL_TICK:
            raise SimulationError(f"a periodic stream fires ControlTick, not {kind.value}")
        if times.step < 0 or (times and times[0] < self.now):
            raise SimulationError(
                f"periodic {kind.value} times {times} do not run forward from {self.now}")
        instants = iter(times)
        first = next(instants, None)
        if first is not None:
            heapq.heappush(self._streams,
                           (first, self._next_seq, instants, kind, payload))
            self._next_seq += 1

    def has_events(self) -> bool:
        return bool(self._queue or self._streams)

    def peek_time(self) -> int:
        queue, streams = self._queue, self._streams
        if streams:
            at = streams[0][0]
            return queue[0][0] if queue and queue[0][0] < at else at
        if not queue:
            raise EmptyQueueError("event queue empty: scenario end")
        return queue[0][0]

    def add_ready_node(self, pool_id: str) -> Node:
        """Bootstrap helper: a node that exists and is Ready at scenario start."""
        pool = self.pools.get(pool_id)
        if pool is None:
            raise UnknownPoolError(f"unknown pool {pool_id!r}")
        return self._new_node(pool, READY)

    def step(self) -> SimEvent:
        """Fire the earliest event, set `now` to its time, apply its transition.

        A stream's next instant fires when no queued event is due at or
        before it: the queue is empty or its top's time is later. Streams
        due at one second fire in the order they were registered. A stream
        fires ControlTick, the kind that ranks last, so this is the queue's
        own (time, kind rank) order: every queued event of a second,
        including one that a stream's event enqueues at its own second,
        fires before that second's next stream instant.

        NodeReady / PodStarted / PodTerminated mutate the cluster here;
        controller-facing kinds are returned untouched for the driver.
        """
        queue, streams = self._queue, self._streams
        if streams and (not queue or queue[0][0] > streams[0][0]):
            fire_at, order, instants, kind, payload = streams[0]
            following = next(instants, None)
            if following is None:
                heapq.heappop(streams)
            else:
                heapq.heapreplace(streams, (following, order, instants, kind, payload))
            self.now = fire_at
            return SimEvent(fire_at, kind, payload)
        if not queue:
            raise EmptyQueueError("event queue empty: scenario end")
        self.now, _, _, ev = heapq.heappop(queue)

        kind = ev.kind
        if kind is NODE_READY:
            self._apply_node_ready(ev)
        elif kind is POD_STARTED:
            self._apply_pod_started(ev)
        elif kind is POD_TERMINATED:
            self._apply_pod_terminated(ev)
        return ev

    def _apply_node_ready(self, ev: SimEvent) -> None:
        node = self.nodes.get(ev.payload["node"])
        if node is None or node.state is not PROVISIONING:
            ev.payload["stale"] = True
            return
        self._set_node_state(node, READY)
        self.schedule_pending_pods()

    def _apply_pod_started(self, ev: SimEvent) -> None:
        pod = self.pods.get(ev.payload["pod"])
        if pod is None or pod.state is not STARTING \
                or pod.binding_seq != ev.payload["binding"]:
            ev.payload["stale"] = True
            return
        self._set_pod_state(pod, RUNNING)

    def _apply_pod_terminated(self, ev: SimEvent) -> None:
        pod = self.pods.get(ev.payload["pod"])
        if pod is None or pod.state is not TERMINATING:
            ev.payload["stale"] = True
            return
        self._place(pod, None)
        self._retire(pod)

    # ------------------------------------------------------------------- pods

    def create_pod(self, workload_id: str, cpu_request: int, pod_id: str | None = None) -> Pod:
        if pod_id is None:
            n = self._pod_counters.get(workload_id, 0) + 1
            self._pod_counters[workload_id] = n
            pod_id = generated_pod_id(workload_id, n)
        if pod_id in self.pods:
            raise SimulationError(f"duplicate pod id {pod_id}")
        pod = Pod(
            pod_id=pod_id,
            workload_id=workload_id,
            cpu_request_millicores=cpu_request,
            creation_seq=self._pods_created,
            pending_since=self.now,
        )
        self._pods_created += 1
        self.pods[pod_id] = pod
        self.pending[pod_id] = pod
        self.alive_by_workload[workload_id] = self.alive_by_workload.get(workload_id, 0) + 1
        self.running_by_workload.setdefault(workload_id, 0)
        self.touched_pods[pod] = None
        return pod

    def _set_pod_state(self, pod: Pod, new: PodState) -> None:
        """The one place a pod changes state; keeps the pod counts in step."""
        old = pod.state
        workload = pod.workload_id
        if old is PENDING:
            del self.pending[pod.pod_id]
        elif new is PENDING:
            self.pending[pod.pod_id] = pod
        self.alive_by_workload[workload] += (new in ALIVE) - (old in ALIVE)
        self.running_by_workload[workload] += (new is RUNNING) - (old is RUNNING)
        self.bound_count += (new in BOUND) - (old in BOUND)
        pod.state = new
        self.touched_pods[pod] = None

    def _place(self, pod: Pod, node: Node | None) -> None:
        """Bind `pod` to `node`, or with None unbind it from its node."""
        if node is None:
            node = self.nodes[pod.bound_node]
            node.bound_pods.discard(pod.pod_id)
            node.used -= pod.cpu_request_millicores
            pod.bound_node = None
        else:
            node.bound_pods.add(pod.pod_id)
            node.used += pod.cpu_request_millicores
            pod.bound_node = node.node_id
        self.touched_pods[pod] = None
        self.touched_nodes[node] = None

    def _retire(self, pod: Pod) -> None:
        self._set_pod_state(pod, POD_DELETED)
        del self.pods[pod.pod_id]

    def terminate_pod(self, pod_id: str) -> None:
        """Begin pod teardown. Pending pods vanish immediately (nothing runs);
        bound pods pass through Terminating and keep their reservation until
        the PodTerminated event fires."""
        pod = self.pods[pod_id]
        if pod.state is PENDING:
            self._retire(pod)
        elif pod.state is not TERMINATING:
            self._set_pod_state(pod, TERMINATING)
            self.enqueue(self.now, POD_TERMINATED, {"pod": pod.pod_id})

    def replicas(self, workload_id: str) -> int:
        """R_w: pods of the workload not yet on their way out."""
        return self.alive_by_workload.get(workload_id, 0)

    def pods_of(self, workload_id: str) -> list[Pod]:
        return [p for p in self.pods.values() if p.workload_id == workload_id]

    def running_replicas(self, workload_id: str) -> int:
        return self.running_by_workload.get(workload_id, 0)

    # -------------------------------------------------------------- scheduling

    def schedule_pending_pods(self) -> list[tuple[str, str]]:
        """Bind Pending pods to Ready nodes, in creation order.

        Each pod goes to the Ready node with the most free request capacity
        that still fits it, considering the preferred pool's nodes first and
        falling back to any other pool; ties go to the node id first in
        string order, so p-n10 before p-n2. Pods that fit nowhere stay
        Pending. A failed pick changes nothing and a bind only takes capacity
        away, so once a request fits nowhere, no later request as large is
        tried.

        The pass keeps each pool group's Ready nodes in a heap keyed by
        (used - capacity, node id), built when the first pod needs a node.
        Only a bind changes a node's free capacity during the pass, and it
        re-keys the node it binds to, so each pod costs one look at each
        group's top and one heap step.
        """
        bindings: list[tuple[str, str]] = []
        if not self.pending:
            return bindings
        groups = None
        unplaceable = None      # the smallest request that fit nowhere
        for pod in sorted(self.pending.values(), key=lambda p: p.creation_seq):
            request = pod.cpu_request_millicores
            if unplaceable is not None and request >= unplaceable:
                continue
            if groups is None:
                groups = self._free_heaps()
            for heap in groups:
                if not heap:
                    continue
                key, node_id, node = heap[0]
                if key + request <= 0:
                    self._bind(pod, node)
                    heapq.heapreplace(heap, (key + request, node_id, node))
                    bindings.append((pod.pod_id, node_id))
                    break
            else:
                unplaceable = request
        return bindings

    def _free_heaps(self) -> tuple[list, list]:
        """The Ready nodes of the preferred pool and of every other pool, each
        group as a heap of (used - capacity, node id, node): the most free
        node on top, ties to the lower id in string order."""
        preferred: list = []
        rest: list = []
        for pid, pool in self.pools.items():
            capacity = pool.node_capacity_millicores
            (preferred if pid == self.preferred_pool_id else rest).extend(
                (node.used - capacity, node.node_id, node)
                for node in pool.nodes if node.state is READY)
        heapq.heapify(preferred)
        heapq.heapify(rest)
        return preferred, rest

    def _bind(self, pod: Pod, node: Node) -> None:
        self._place(pod, node)
        self._set_pod_state(pod, STARTING)
        pod.binding_seq += 1
        self.enqueue(
            self.now + self.pod_startup_delay,
            POD_STARTED,
            {"pod": pod.pod_id, "binding": pod.binding_seq},
        )

    # ------------------------------------------------------------------- nodes

    def resize_pool(self, pool_id: str, target: int) -> None:
        """Grow or shrink a pool to `target` nodes.

        Growth adds Provisioning nodes that become Ready after the pool's
        provisioning delay. Shrinking drains the nodes hosting the fewest
        pods, ties to the highest node index: a pool keeps its nodes in the
        order it made them, so the last of the tied nodes in `pool.nodes`
        goes first. A drained node leaves the pool in this same step, so a
        pool's nodes are only ever Provisioning or Ready.
        """
        if target < 0:
            raise SimulationError(f"resize target must be >= 0, got {target}")
        pool = self.pools.get(pool_id)
        if pool is None:
            raise UnknownPoolError(f"unknown pool {pool_id!r}")
        size = len(pool.nodes)
        if target > size:
            for _ in range(target - size):
                node = self._new_node(pool, PROVISIONING)
                self.enqueue(self.now + pool.provisioning_delay, NODE_READY,
                             {"node": node.node_id})
        elif target < size:
            victims = sorted(reversed(pool.nodes), key=lambda n: len(n.bound_pods))
            for node in victims[: size - target]:
                self._drain(node)
            self.schedule_pending_pods()

    def _drain(self, node: Node) -> None:
        """Unbind the node's pods, retiring the Terminating ones and returning
        the rest to Pending for rescheduling, then delete the node. A
        Provisioning node has no pods and is deleted without ever serving."""
        for pod_id in sorted(node.bound_pods):
            pod = self.pods[pod_id]
            self._place(pod, None)
            if pod.state is TERMINATING:
                self._retire(pod)
            else:
                self._set_pod_state(pod, PENDING)
                pod.pending_since = self.now
        self._set_node_state(node, NODE_DELETED)
        self.pools[node.pool_id].nodes.remove(node)
        del self.nodes[node.node_id]

    def _new_node(self, pool: NodePool, state: NodeState) -> Node:
        node = Node(f"{pool.pool_id}-n{pool._next_node}", pool.pool_id, state)
        pool._next_node += 1
        pool.nodes.append(node)
        self.nodes[node.node_id] = node
        self.touched_nodes[node] = None
        return node

    def _set_node_state(self, node: Node, new: NodeState) -> None:
        node.transition(new)
        self.touched_nodes[node] = None
