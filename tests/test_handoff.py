"""The make-before-break hand-off against scans of the whole migration.

A migration moves only at the switch that begins it, at a NodeReady while
its new pool provisions, and at the PodStarted of each of its replacements,
which releases one old pod. After every event of every migration, the old
pods no longer alive must equal the replacements that are Running, and
whether any old pod is still alive must equal a scan; every release must
terminate the same pods, in the same order, as releasing from all old pods.
Counted guards show that the migration runs on no other event, that a
hand-off after one PodStarted does not walk the migration's old pods, and
that while the new pool provisions only a NodeReady event walks its nodes.
"""

import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    old_pods_alive_scan,
    released_old_pods_scan,
    running_replacements_scan,
    shrink_victims_scan,
)

from scalesim import control
from scalesim.control import (
    HierarchicalController,
    MasConfig,
    MigrationPhase,
    StrategicSchedule,
)
from scalesim.engine import ClusterState, EventKind, NodePool
from scalesim.planning import Policy
from scalesim.runner import run_scenario
from scalesim.scenario import load_scenario, parse_scenario_text

from test_control import PERF, flat_trace, make_mas, run_until_quiet, start_running, two_pool_state
from test_golden_artifacts import OTHER_PODS, _bench_workloads

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def checked_handoff(monkeypatch):
    """Hold every hand-off to the scans. Returns the tally of checked
    events (with a migration in flight before or after), checked releases
    and completed migrations."""
    advance, on_event = HierarchicalController.advance_migration, HierarchicalController.on_event
    release, terminate = control._release, ClusterState.terminate_pod
    tally = {"events": 0, "releases": 0, "completed": 0}
    releasing = []          # the migration whose hand-off may be releasing
    terminated = []

    def recording_terminate(self, pod_id):
        terminated.append(pod_id)
        terminate(self, pod_id)

    def checked_release(state, pending, bound, count):
        if not releasing:
            return release(state, pending, bound, count)
        expected = [p.pod_id for p in shrink_victims_scan(releasing[-1].old_pods, count)]
        terminated.clear()
        released = release(state, pending, bound, count)
        assert terminated == expected
        assert released == len(expected)
        tally["releases"] += 1
        return released

    def checked_advance(self, state, now):
        mig = self.migration
        releasing.append(mig)
        try:
            dequeued = advance(self, state, now)
        finally:
            releasing.pop()
        tally["completed"] += mig is not self.migration
        return dequeued

    def checked_on_event(self, state, ev):
        before = self.migration
        records = on_event(self, state, ev)
        for mig in {id(m): m for m in (before, self.migration)}.values():
            if mig.phase is not MigrationPhase.IDLE:
                assert released_old_pods_scan(mig) == running_replacements_scan(mig, state)
                assert (mig.first_alive_old() < len(mig.old_pods)) == old_pods_alive_scan(mig)
                tally["events"] += 1
        return records

    monkeypatch.setattr(HierarchicalController, "advance_migration", checked_advance)
    monkeypatch.setattr(HierarchicalController, "on_event", checked_on_event)
    monkeypatch.setattr(control, "_release", checked_release)
    monkeypatch.setattr(ClusterState, "terminate_pod", recording_terminate)
    return tally


def _scenario(name):
    if name.endswith("-zero-delays"):
        # With no startup or provisioning delay, a migration's NodeReady and
        # PodStarted events fire within the second of its switch.
        config = _scenario(name.removesuffix("-zero-delays"))
        return replace(config, pod_startup_delay=0,
                       pools=[replace(p, provisioning_delay=0) for p in config.pools])
    if name == "mas-migrate-1":
        return parse_scenario_text(_bench_workloads()["mas-migrate"].generate(1), name)
    if name.endswith("-other"):
        base = name.removesuffix("-other")
        return parse_scenario_text((FIXTURES / f"{base}.scn").read_text() + OTHER_PODS, name)
    return load_scenario(FIXTURES / f"{name}.scn")


@pytest.mark.parametrize("name", ["heartbeat-mas", "flash-sale-mas", "heartbeat-mas-other",
                                  "flash-sale-mas-other", "mas-migrate-1",
                                  "heartbeat-mas-zero-delays", "flash-sale-mas-zero-delays",
                                  "mas-migrate-1-zero-delays"])
def test_handoff_matches_scans_at_every_event(checked_handoff, name):
    run_scenario(_scenario(name))
    assert all(checked_handoff[k] > 0 for k in ("events", "releases", "completed"))


def test_the_migration_runs_only_on_the_events_that_move_it(monkeypatch):
    # One advance for each migration begun, each NodeReady fired while a
    # migration's new pool provisions and each PodStarted of one of its
    # replacements, and none for any other event. A migration's replacements
    # are the pods that advances create after it begins; once it is over,
    # a later tick may rebind them, and those PodStarted events move nothing.
    advance, begin = HierarchicalController.advance_migration, HierarchicalController._begin_migration
    on_event, create_pod = HierarchicalController.on_event, ClusterState.create_pod
    counts = dict.fromkeys(("advances", "begun", "node_ready", "replacement_started"), 0)
    advancing, replacements = [], set()

    def counting_advance(self, state, now):
        counts["advances"] += 1
        advancing.append(now)
        try:
            return advance(self, state, now)
        finally:
            advancing.pop()

    def counting_begin(self, *args):
        counts["begun"] += 1
        replacements.clear()
        return begin(self, *args)

    def recording_create_pod(self, *args, **kwargs):
        pod = create_pod(self, *args, **kwargs)
        if advancing:
            replacements.add(pod.pod_id)
        return pod

    def counting_on_event(self, state, ev):
        phase = self.migration.phase
        if ev.kind is EventKind.NODE_READY:
            counts["node_ready"] += phase is MigrationPhase.PROVISIONING_NEW
        elif ev.kind is EventKind.POD_STARTED and phase is MigrationPhase.MIGRATING_WORKLOAD:
            counts["replacement_started"] += ev.payload["pod"] in replacements
        return on_event(self, state, ev)

    monkeypatch.setattr(HierarchicalController, "advance_migration", counting_advance)
    monkeypatch.setattr(HierarchicalController, "_begin_migration", counting_begin)
    monkeypatch.setattr(HierarchicalController, "on_event", counting_on_event)
    monkeypatch.setattr(ClusterState, "create_pod", recording_create_pod)
    run_scenario(_scenario("mas-migrate-1"))
    assert counts["begun"] > 0 and counts["node_ready"] > 0 and counts["replacement_started"] > 0
    assert counts["advances"] == (counts["begun"] + counts["node_ready"]
                                  + counts["replacement_started"])


def test_every_declared_migration_phase_is_logged():
    # A phase that no tick's strategic record shows cannot be told apart from
    # the phases around it by reading the artifacts.
    logged = set()
    for name in ("heartbeat-mas", "flash-sale-mas", "mas-migrate-1"):
        for line in run_scenario(_scenario(name)).decision_lines:
            for phase in json.loads(line).get("phases", ()):
                if phase["phase"] == "strategic":
                    logged.add(phase["migration"])
    assert logged == {m.value for m in MigrationPhase}



def test_a_switch_queued_behind_a_migration_logs_its_own_start():
    # The new pool takes 200 s to provision, so the switch back at t=500 lands
    # while the t=450 migration is in flight and waits for it to finish.
    text = (FIXTURES / "heartbeat-mas.scn").read_text().replace(
        "pool.performance.provisioning_delay = 120\n",
        "pool.performance.provisioning_delay = 200\n",
    ) + "schedule.at.500 = COST_SAVING\nduration = 1200\n"
    result = run_scenario(parse_scenario_text(text, "heartbeat-mas-queued"))
    switches = [json.loads(line) for line in result.decision_lines if '"event"' in line]
    assert [(s["t"], s["switch"], s["migration"]) for s in switches] == [
        (450, "PERFORMANCE", "make-before-break started"),
        (500, "COST_SAVING", "queued (switch in flight)"),
        (result.completed_migrations[0]["completed_at"], "COST_SAVING",
         "make-before-break started"),
    ]
    assert switches[2]["from_pool"] == "performance" and switches[2]["to_pool"] == "staging"
    assert result.summary.migrations == 2


def test_a_tick_during_a_migration_keeps_the_scheduler_on_its_target(monkeypatch):
    # The switch back to staging at t=500 queues behind the t=450 migration.
    # Staging is wide enough to hold the replacements, so a tick that pointed
    # the scheduler at the queued switch's pool would bind them there, and
    # the first migration's end, which shrinks staging, would evict them.
    text = (FIXTURES / "heartbeat-mas.scn").read_text().replace(
        "pool.staging.capacity = 1000\n", "pool.staging.capacity = 2000\n",
    ).replace(
        "pool.performance.provisioning_delay = 120\n",
        "pool.performance.provisioning_delay = 200\n",
    ) + "schedule.at.500 = COST_SAVING\nduration = 1200\n"
    bindings = []
    bind = ClusterState._bind

    def recording_bind(self, pod, node):
        bindings.append((self.now, pod.pod_id, node.node_id))
        bind(self, pod, node)

    monkeypatch.setattr(ClusterState, "_bind", recording_bind)
    result = run_scenario(parse_scenario_text(text, "heartbeat-mas-queued-wide"))
    first = result.completed_migrations[0]
    assert (first["started_at"], first["to_pool"]) == (450, "performance")
    during = [b for b in bindings if first["started_at"] <= b[0] <= first["completed_at"]]
    assert during and all(node.startswith("performance-") for _, _, node in during)
    floor = first["floor"]["web"]
    assert all(s.running_replicas >= floor for s in result.samples
               if first["started_at"] <= s.t <= first["completed_at"])
    assert result.summary.migration_downtime == 0


# Two policies on one pool, so that a switch between them moves nothing.
POOL_OF_RECORD = """
workload = custom
controller = mas_h2
phase.1.duration = 120
phase.1.target_vus = 300
phase.2.duration = 120
phase.2.target_vus = 40
phase.3.duration = 120
phase.3.target_vus = 500
pool.alpha.capacity = 1000
pool.alpha.initial_nodes = 1
pool.beta.capacity = 2000
policy.A.pool = alpha
policy.B.pool = beta
policy.B.min_replicas = 2
policy.C.pool = alpha
policy.C.min_replicas = 3
schedule.default = A
"""


@st.composite
def switch_schedules(draw):
    """Scenario lines: delays and a tick step that let migrations span
    ticks or not, and switches from t=0 or later, some seconds apart."""
    lines = [f"pool.beta.provisioning_delay = {draw(st.sampled_from([0, 30, 150]))}",
             f"pod_startup_delay = {draw(st.sampled_from([0, 10]))}",
             f"mas.control_interval = {draw(st.sampled_from([5, 20, 60]))}"]
    t = draw(st.sampled_from([0, 1, 40]))
    for policy in draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=6)):
        lines.append(f"schedule.at.{t} = {policy}")
        t += draw(st.one_of(st.integers(1, 5), st.integers(6, 150)))
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(schedule=switch_schedules())
def test_the_workloads_pool_has_one_record(schedule):
    # At every tick the scheduler prefers the pool of record. With no
    # migration running, that is the active policy's pool; during one, it is
    # the target named by the switch record that began the migration.
    tick, begin = HierarchicalController.tick, HierarchicalController._begin_migration
    begun, ticks = [], []

    def recording_begin(self, state, now, new):
        begun.append(begin(self, state, now, new))
        return begun[-1]

    def checked_tick(self, state, now):
        assert state.preferred_pool_id == self._active_pool
        if self.migration.phase is MigrationPhase.IDLE:
            assert self._active_pool == self.policies[self.schedule.active_at(now)].pool
        else:
            assert self._active_pool == begun[-1]["to_pool"]
        ticks.append(now)
        return tick(self, state, now)

    with (mock.patch.object(HierarchicalController, "tick", checked_tick),
          mock.patch.object(HierarchicalController, "_begin_migration", recording_begin)):
        run_scenario(parse_scenario_text(POOL_OF_RECORD + schedule, "pool-of-record"))
    assert ticks


def test_zero_floor_handoff_matches_scans(checked_handoff):
    state = two_pool_state(staging_nodes=1)
    mas = make_mas(flat_trace(400, 900), forecaster="naive")
    state.now = 10
    mas._begin_migration(state, 10, PERF)
    run_until_quiet(state, mas)
    assert len(mas.completed_migrations) == checked_handoff["completed"] == 1
    assert checked_handoff["releases"] == 0


def test_pending_old_pods_are_released_first(checked_handoff):
    # Two old pods ask for more than any node holds and stay Pending; the
    # hand-off must release them before either Running one.
    state = two_pool_state(staging_nodes=1)
    start_running(state, "web", 2)
    pending = [state.create_pod("web", 5000) for _ in range(2)]
    state.schedule_pending_pods()
    mas = make_mas(flat_trace(400, 900), forecaster="naive")
    mas.desired = 4
    state.now = 10
    mas.on_policy_switch(state, 10, "PERFORMANCE")
    run_until_quiet(state, mas)
    assert checked_handoff["completed"] == 1 and checked_handoff["releases"] > 0
    assert all(p.pod_id not in state.pods for p in pending)


def test_events_other_than_a_replacements_start_release_nothing(checked_handoff):
    # While the workload migrates, the old pod left Pending at the switch
    # starts (it bound on the new pool's first Ready node, ahead of the
    # replacements), and a staging node asked for before the switch becomes
    # Ready. Neither is a replacement's PodStarted, so neither releases an
    # old pod.
    state = ClusterState([NodePool("staging", 1000, 300), NodePool("performance", 2000, 120)],
                         pod_startup_delay=400)
    state.add_ready_node("staging")
    start_running(state, "web", 4)          # fills the one staging node
    late = state.create_pod("web", 250)
    state.resize_pool("staging", 2)
    added = state.pools["staging"].nodes[-1]
    mas = make_mas(flat_trace(400, 900), forecaster="naive")
    mas.desired = 5
    mas.on_policy_switch(state, state.now, "PERFORMANCE")
    seen = set()
    while state.has_events():
        ev = state.step()
        seen.add((ev.kind, ev.payload.get("pod") or ev.payload.get("node"), mas.migration.phase))
        mas.on_event(state, ev)
    migrating = MigrationPhase.MIGRATING_WORKLOAD
    assert (EventKind.POD_STARTED, late.pod_id, migrating) in seen
    assert (EventKind.NODE_READY, added.node_id, migrating) in seen
    assert checked_handoff["completed"] == 1 and checked_handoff["releases"] == 5


class CountingList(list):
    """A list that counts the elements its readers reach: one per index read,
    every element per iteration."""

    reached = 0

    def __getitem__(self, i):
        item = super().__getitem__(i)
        self.reached += len(item) if isinstance(i, slice) else 1
        return item

    def __iter__(self):
        self.reached += len(self)
        return super().__iter__()


def _handoff_at_start(started):
    """A migration of 240 replicas between two 64000m pools, stepped to the
    PodStarted event of a replacement that follows `started` hand-offs,
    before the controller sees it. Returns the state, the controller and
    that event."""
    replicas = 240
    state = ClusterState([NodePool("old", 64000, 60),
                          NodePool("new", 64000, 60)])
    for _ in range(2):
        state.add_ready_node("old")
    state.preferred_pool_id = "old"
    start_running(state, "web", replicas)
    policies = {"OLD": Policy("OLD", "old", 1, 0.5, 0.5),
                "NEW": Policy("NEW", "new", 1, 0.5, 0.5)}
    mas = HierarchicalController(policies, StrategicSchedule(default_policy="OLD"),
                                 flat_trace(100, 900), 250, {}, MasConfig())
    mas.desired = replicas
    state.now = 10
    mas.on_policy_switch(state, 10, "NEW")
    mig = mas.migration
    while True:
        ev = state.step()
        if ev.kind is EventKind.POD_STARTED and ev.payload["pod"] in mig.replacements:
            if started == 0:
                break
            started -= 1
        mas.on_event(state, ev)
    assert len(mig.replacements) == len(mig.old_pods) == replicas
    return state, mas, ev


def test_handoff_after_one_start_reaches_few_pods():
    # Work count, not timing: the hand-off after the first replacement
    # starts must not walk the list of 240 old pods.
    state, mas, ev = _handoff_at_start(0)
    mig = mas.migration
    mig.old_pods = CountingList(mig.old_pods)
    mas.on_event(state, ev)
    # The released old pod and the next.
    assert mig.old_pods.reached <= 4
    assert released_old_pods_scan(mig) == running_replacements_scan(mig, state) == 1


def test_handoff_after_many_starts_walks_from_the_youngest_alive():
    # After 100 hand-offs, the next release walks the old pods from the
    # youngest still alive, not from the first: it reaches the pod it
    # releases and the next, as the first hand-off does.
    state, mas, ev = _handoff_at_start(100)
    mig = mas.migration
    mig.old_pods = CountingList(mig.old_pods)
    mas.on_event(state, ev)
    assert mig.old_pods.reached <= 4
    assert released_old_pods_scan(mig) == running_replacements_scan(mig, state) == 101


def test_provisioning_new_walks_the_pool_only_on_node_ready():
    # The new pool's Ready count can rise only when a node becomes Ready, so
    # while it provisions, PodStarted and WorkloadPhaseChange events must
    # not walk its nodes; its NodeReady events may.
    state = two_pool_state(staging_nodes=2)
    start_running(state, "web", 4)
    mas = make_mas(flat_trace(400, 900), forecaster="naive")
    mas.desired = 4
    state.now = 10
    mas.on_policy_switch(state, 10, "PERFORMANCE")
    assert mas.migration.phase is MigrationPhase.PROVISIONING_NEW
    for _ in range(2):
        state.create_pod("web", 250)     # PodStarted at t=20
    state.schedule_pending_pods()
    for t in (30, 60, 129, 130):
        state.enqueue(t, EventKind.WORKLOAD_PHASE_CHANGE, {})
    pool = state.pools["performance"]
    pool.nodes = CountingList(pool.nodes)
    walked = {}
    while mas.migration.phase is MigrationPhase.PROVISIONING_NEW:
        ev = state.step()
        before = pool.nodes.reached
        mas.on_event(state, ev)
        walked.setdefault(ev.kind, []).append(pool.nodes.reached - before)
    assert walked.pop(EventKind.NODE_READY)
    assert set(walked) == {EventKind.POD_STARTED, EventKind.WORKLOAD_PHASE_CHANGE}
    assert all(reached == 0 for reached in sum(walked.values(), []))


def test_a_node_added_ready_counts_toward_the_new_pool():
    # A node can also become Ready without a NodeReady event, when it is
    # added Ready; the next advance must count it.
    state = two_pool_state(staging_nodes=2)
    start_running(state, "web", 4)
    mas = make_mas(flat_trace(400, 900), forecaster="naive")
    mas.desired = 4
    state.now = 10
    mas.on_policy_switch(state, 10, "PERFORMANCE")
    assert mas.migration.phase is MigrationPhase.PROVISIONING_NEW
    for _ in range(mas.migration.target_nodes):
        state.add_ready_node("performance")
    mas.advance_migration(state, 10)
    assert mas.migration.phase is MigrationPhase.MIGRATING_WORKLOAD
