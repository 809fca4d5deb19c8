"""Controller tests: reactive HPA+CA, hierarchical ticks, migration protocol."""

import copy
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import hpa_desired_fraction, shrink_victims_scan, utilization_fraction

from scalesim.control import (
    CONTROLLER_TYPES,
    HierarchicalController,
    HpaConfig,
    MasConfig,
    MigrationPhase,
    ReactiveController,
    StrategicSchedule,
    _scale_replicas,
    make_controller,
)
from scalesim.engine import ClusterState, EventKind, NodePool, NodeState, PodState
from scalesim.planning import Policy
from scalesim.scenario import parse_scenario_text
from scalesim.workload import DemandTrace

COST = Policy("COST_SAVING", "staging", 1, 0.2, 0.8)
PERF = Policy("PERFORMANCE", "performance", 2, 0.8, 0.2)
POLICIES = {"COST_SAVING": COST, "PERFORMANCE": PERF}


def flat_trace(demand, duration, workload_id="web"):
    return DemandTrace(workload_id=workload_id, demand=[demand] * duration)


def two_pool_state(staging_nodes=1, perf_nodes=0):
    state = ClusterState([
        NodePool("staging", 1000, 120),
        NodePool("performance", 2000, 120),
    ])
    for _ in range(staging_nodes):
        state.add_ready_node("staging")
    for _ in range(perf_nodes):
        state.add_ready_node("performance")
    return state


def baseline_state(nodes=1, capacity=1000):
    state = ClusterState([NodePool("baseline", capacity, 120)])
    for _ in range(nodes):
        state.add_ready_node("baseline")
    state.preferred_pool_id = "baseline"
    return state


def run_until_quiet(state, controller=None, now=None):
    """Drain engine events (pod startups, node readiness), showing each one
    to the controller, as the runner does. Returns the event list."""
    events = []
    while state.has_events():
        ev = state.step()
        if controller is not None:
            controller.on_event(state, ev)
        events.append(ev)
    return events


def start_running(state, workload, count, request=250):
    for _ in range(count):
        state.create_pod(workload, request)
    state.schedule_pending_pods()
    run_until_quiet(state)


def make_hpa(trace, state, **overrides):
    cfg = HpaConfig(**overrides)
    return ReactiveController(
        trace=trace,
        pod_request=250,
        pool_id="baseline",
        config=cfg,
    )


def tick_at(controller, state, t):
    """Tick with the cluster's `now` moved to the tick time, as the event
    loop would."""
    if t > state.now:
        state.now = t
    return controller.tick(state, t)


def deltas(record, kind):
    """The deltas of the `kind` ("pods" or "nodes") actions a tick record logs."""
    return [delta for k, _, delta in record["actions"] if k == kind]


def plan_of(record):
    """The workload plan a mas tick record logs."""
    return record["phases"][1]["plans"][0]


class TestReactiveHpa:
    def test_saturated_two_replicas_scale_to_three(self):
        trace = flat_trace(800, 600)
        state = baseline_state()
        start_running(state, "web", 2)
        hpa = make_hpa(trace, state)
        hpa_phase = hpa.tick(state, 0)["phases"][0]["workloads"][0]
        assert hpa_phase["utilization"] == 1.1
        assert hpa_phase["desired"] == 3
        assert state.replicas("web") == 3

    def test_exact_fixpoint_is_four_replicas(self):
        # 3 running x 250m against 800m: utilization 16/15, and the exact
        # integer arithmetic gives desired = ceil(4.0) = 4, not 5.
        trace = flat_trace(800, 600)
        state = baseline_state(capacity=2000)
        start_running(state, "web", 3)
        hpa = make_hpa(trace, state)
        assert hpa.tick(state, 0)["phases"][0]["workloads"][0]["desired"] == 4
        run_until_quiet(state)
        assert hpa.tick(state, 15)["phases"][0]["workloads"][0]["desired"] == 4
        assert state.replicas("web") == 4

    # 8 running x 250m: the 11/10 cap is 2200m, where 8 * 11/10 / (4/5) is
    # exactly 11, so desired must not round up to 12.
    @pytest.mark.parametrize("demand, logged", [(2199, 1.0995), (2200, 1.1), (2201, 1.1)])
    def test_desired_at_the_saturation_cap_is_exact(self, demand, logged):
        trace = flat_trace(demand, 600)
        state = baseline_state(capacity=2000)
        start_running(state, "web", 8)
        hpa = make_hpa(trace, state)
        hpa_phase = hpa.tick(state, 0)["phases"][0]["workloads"][0]
        cfg = hpa.config
        util = utilization_fraction(demand, 8, 250, cfg.saturation_ceiling)
        assert hpa_phase["utilization"] == logged == float(util)
        assert hpa_phase["desired"] == 11 == math.ceil(8 * util / cfg.target_utilization)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), running=st.integers(0, 500),
           target=st.sampled_from([Fraction(4, 5), Fraction(2, 3), Fraction(7, 10), Fraction(1)]),
           ceiling=st.sampled_from([Fraction(11, 10), Fraction(3, 2), Fraction(7, 3)]))
    def test_desired_equals_the_fraction_formula(self, data, running, target, ceiling):
        cap = ceiling.numerator * running * 250 // ceiling.denominator
        demand = data.draw(st.sampled_from([max(0, cap + d) for d in (-1, 0, 1)])
                           | st.integers(0, 10**6))
        state = baseline_state(nodes=0)
        state.running_by_workload["web"] = running
        # More replicas than any tick asks for: the scale-down waits for its
        # stabilization, so the tick creates and terminates no pod.
        state.alive_by_workload["web"] = 10**6
        hpa = make_hpa(flat_trace(demand, 600), state, target_utilization=target,
                       saturation_ceiling=ceiling, max_replicas=10**5)
        logged = hpa.tick(state, 0)["phases"][0]["workloads"][0]
        expected = hpa_desired_fraction(demand, running, 250, ceiling, target, 1, 10**5)
        assert (logged["desired"], logged["utilization"]) == expected

    def test_scale_down_deferred_by_stabilization(self):
        trace = flat_trace(400, 600)
        state = baseline_state(capacity=2000)
        start_running(state, "web", 4)
        hpa = make_hpa(trace, state, scale_down_stabilization=300)
        hpa_phase = hpa.tick(state, 0)["phases"][0]["workloads"][0]
        assert hpa_phase["utilization"] == 0.4
        assert hpa_phase["desired"] == 2
        assert state.replicas("web") == 4          # deferred
        for t in range(15, 300, 15):
            hpa.tick(state, t)
            assert state.replicas("web") == 4
        hpa.tick(state, 300)                        # 300 s continuously below
        assert state.replicas("web") == 2

    def test_scale_down_streak_resets(self):
        state = baseline_state(capacity=2000)
        start_running(state, "web", 4)
        low, ontarget = flat_trace(400, 600), flat_trace(800, 600)
        hpa = make_hpa(low, state, scale_down_stabilization=60)
        tick_at(hpa, state, 15)
        hpa.trace = ontarget                        # back at target mid-window
        tick_at(hpa, state, 30)
        hpa.trace = low
        tick_at(hpa, state, 60)
        assert state.replicas("web") == 4           # streak restarted at 60
        tick_at(hpa, state, 105)
        assert state.replicas("web") == 4
        tick_at(hpa, state, 120)                    # 60 s continuously below
        assert state.replicas("web") == 2

    def test_pending_pod_triggers_node_add(self):
        trace = flat_trace(800, 600)
        state = baseline_state(capacity=500)        # room for 2 pods only
        start_running(state, "web", 2)
        hpa = make_hpa(trace, state, ca_trigger_delay=30)
        tick_at(hpa, state, 15)                     # desired 3, third pod Pending
        assert state.replicas("web") == 3
        pending = [p for p in state.pods.values() if p.state is PodState.PENDING]
        assert len(pending) == 1
        record = tick_at(hpa, state, 30)            # age 15: no trigger yet
        assert deltas(record, "nodes") == []
        record = tick_at(hpa, state, 50)            # age 35 > 30: one node
        assert deltas(record, "nodes") == [1]
        pool = state.pools["baseline"]
        assert sum(1 for n in pool.nodes if n.state is NodeState.PROVISIONING) == 1
        record = tick_at(hpa, state, 65)            # in-flight node: no second add
        assert deltas(record, "nodes") == []

    def test_idle_node_removed_after_delay(self):
        trace = flat_trace(100, 2000)
        state = baseline_state(nodes=2, capacity=2000)
        start_running(state, "web", 1)
        hpa = make_hpa(trace, state, ca_idle_delay=600)
        tick_at(hpa, state, 15)
        assert len(state.pools["baseline"].nodes) == 2
        assert deltas(tick_at(hpa, state, 600), "nodes") == []
        assert -1 in deltas(tick_at(hpa, state, 630), "nodes")
        assert len(state.pools["baseline"].nodes) == 1

    def test_no_future_observations(self):
        # Demand explodes one second after the tick; the decision must not see it.
        trace = DemandTrace("web", [100] * 100 + [99999] * 100)
        state = baseline_state(capacity=2000)
        start_running(state, "web", 1)
        hpa = make_hpa(trace, state)
        assert hpa.tick(state, 99)["phases"][0]["workloads"][0]["demand"] == 100
        assert state.replicas("web") == 1

    def test_min_replicas_floor(self):
        trace = flat_trace(0, 600)
        state = baseline_state()
        start_running(state, "web", 1)
        hpa = make_hpa(trace, state, min_replicas=1, scale_down_stabilization=0)
        hpa.tick(state, 0)
        assert state.replicas("web") == 1

    def test_max_replicas_clamp(self):
        trace = flat_trace(5000, 600)          # hopelessly saturated
        state = baseline_state(capacity=2000)
        start_running(state, "web", 2)
        hpa = make_hpa(trace, state, max_replicas=3)
        for t in (15, 30, 45, 60):
            tick_at(hpa, state, t)
        assert state.replicas("web") == 3

    def test_repeated_tick_on_copied_state_is_identical(self):
        trace = flat_trace(800, 600)
        state = baseline_state()
        start_running(state, "web", 2)
        twin = copy.deepcopy(state)
        assert make_hpa(trace, state).tick(state, 15) == make_hpa(trace, twin).tick(twin, 15)


def make_mas(trace, state=None, schedule=None, other=None, **cfg):
    config = MasConfig(**cfg)
    return HierarchicalController(
        policies=POLICIES,
        schedule=schedule or StrategicSchedule(default_policy="COST_SAVING"),
        trace=trace,
        pod_request=250,
        other_requests=other or {},
        config=config,
    )


class TestHierarchicalTick:
    def test_config_checks_its_range(self):
        with pytest.raises(ValueError, match="control_interval"):
            MasConfig(control_interval=0)

    def test_phase_order_matches_control_loop(self):
        state = two_pool_state()
        mas = make_mas(flat_trace(800, 900), forecaster="naive")
        for now in (0, 300):
            labels = [p["phase"] for p in mas.tick(state, now)["phases"]]
            assert labels == [
                "strategic", "workload-planning", "node-planning", "execution",
            ]

    def test_scale_up_delta(self):
        # Plan of 8 against 3 current replicas: five pods created Pending.
        state = two_pool_state(perf_nodes=1)
        start_running(state, "web", 3)
        schedule = StrategicSchedule(default_policy="PERFORMANCE")
        mas = make_mas(flat_trace(2000, 900), schedule=schedule, forecaster="naive")
        record = mas.tick(state, 300)
        assert plan_of(record)["planned_replicas"] == 8
        assert deltas(record, "pods") == [5]
        assert state.replicas("web") == 8

    def test_node_action_absent_when_nodes_satisfy_plan(self):
        # Forecast peak 800m at 250m requests: the planner needs one staging
        # node, which already exists, so only the pod action appears.
        state = two_pool_state(staging_nodes=1)
        mas = make_mas(flat_trace(800, 900), forecaster="naive")
        record = mas.tick(state, 300)
        assert record["phases"][2]["required_nodes"] == 1
        assert {kind for kind, _, _ in record["actions"]} == {"pods"}
        assert plan_of(record)["planned_replicas"] == 4

    def test_node_scaling_issued_before_pod_scaling(self):
        state = two_pool_state(staging_nodes=0)
        mas = make_mas(flat_trace(800, 900), forecaster="naive")
        kinds = [kind for kind, _, _ in mas.tick(state, 300)["actions"]]
        assert kinds == ["nodes", "pods"]

    def test_cold_start_skips_workload(self):
        state = two_pool_state()
        mas = make_mas(flat_trace(800, 900))
        record = mas.tick(state, 0)
        assert record["actions"] == []
        assert plan_of(record)["skipped"] == "no history"

    def test_policy_floor_after_tick(self):
        state = two_pool_state(perf_nodes=1)
        schedule = StrategicSchedule(default_policy="PERFORMANCE")
        mas = make_mas(flat_trace(10, 900), schedule=schedule, forecaster="naive")
        assert plan_of(mas.tick(state, 300))["planned_replicas"] == PERF.min_replicas
        assert mas.desired == 2

    def test_scale_down_terminates_pending_first_then_youngest(self):
        state = two_pool_state(staging_nodes=1)     # room for 4 x 250m
        start_running(state, "web", 2)
        for _ in range(3):
            state.create_pod("web", 250)
        state.schedule_pending_pods()
        run_until_quiet(state)
        assert state.replicas("web") == 5
        pending_before = [p for p in state.pods.values() if p.state is PodState.PENDING]
        assert len(pending_before) == 1
        survivors_expected = sorted(
            (p for p in state.pods.values() if p.state is PodState.RUNNING),
            key=lambda p: p.creation_seq,
        )[:2]
        mas = make_mas(flat_trace(500, 900), forecaster="naive")
        record = mas.tick(state, 300)               # plan = 2: three must go
        assert plan_of(record)["planned_replicas"] == 2
        for pod in pending_before:
            assert pod.pod_id not in state.pods
            assert pod.state is PodState.DELETED
        alive = {
            p.pod_id for p in state.pods.values()
            if p.state in (PodState.PENDING, PodState.STARTING, PodState.RUNNING)
        }
        assert alive == {p.pod_id for p in survivors_expected}

    def test_repeated_tick_on_copied_state_is_identical(self):
        state = two_pool_state(staging_nodes=1)
        start_running(state, "web", 2)
        twin = copy.deepcopy(state)
        trace = flat_trace(800, 900)
        assert make_mas(trace).tick(state, 600) == make_mas(trace).tick(twin, 600)

    def test_no_future_peeking_in_forecast(self):
        trace = DemandTrace("web", [100] * 300 + [99999] * 600)
        state = two_pool_state()
        mas = make_mas(trace, forecaster="naive")
        assert plan_of(mas.tick(state, 300))["forecast_peak"] <= 100

    def test_seasonal_fallback_plans_the_last_raw_demand(self):
        # A step from 100m to 800m at t=270. At t=300 no period is visible
        # (min_lag above n/2), and the smoothed level still trails the step
        # at ~450m; the fallback plans for the 800m already seen.
        trace = DemandTrace("web", [100] * 270 + [800] * 630)
        for cfg in ({"period_min_lag": 200}, {"seasonal_period": 600}):
            mas = make_mas(trace, **cfg)
            plan = plan_of(mas.tick(two_pool_state(), 300))
            assert (plan["forecaster"], plan["forecast_peak"]) == ("Naive", 800)
            assert plan["planned_replicas"] == 4


class TestMigration:
    def heartbeat_setup(self, replicas=3):
        state = two_pool_state(staging_nodes=1)
        start_running(state, "web", replicas)
        schedule = StrategicSchedule(
            default_policy="COST_SAVING", entries=[(450, "PERFORMANCE")]
        )
        mas = make_mas(flat_trace(700, 900), schedule=schedule, forecaster="naive")
        mas.desired = replicas
        return state, mas

    def test_switch_to_same_pool_policy_is_noop(self):
        state, mas = self.heartbeat_setup()
        record = mas.on_policy_switch(state, 100, "COST_SAVING")
        assert "none" in record["migration"]
        assert mas.migration.phase is MigrationPhase.IDLE

    def test_make_before_break_full_protocol(self):
        state, mas = self.heartbeat_setup(replicas=3)
        state.now = 450
        record = mas.on_policy_switch(state, 450, "PERFORMANCE")
        assert record["migration"] == "make-before-break started"
        assert mas.migration.phase is MigrationPhase.PROVISIONING_NEW
        assert record["floor"] == {"web": 3}

        # Old pool untouched while the new one provisions.
        running_floor_ok = []
        phases_seen = {mas.migration.phase}
        while state.has_events():
            ev = state.step()
            mas.on_event(state, ev)
            phases_seen.add(mas.migration.phase)
            running_floor_ok.append(state.running_replicas("web") >= 3)
        assert all(running_floor_ok), "running replicas dipped below the pre-switch plan"
        assert mas.migration.phase is MigrationPhase.IDLE
        assert len(mas.completed_migrations) == 1

        # All three replicas now run on the performance pool; staging is gone.
        perf_nodes = {n.node_id for n in state.pools["performance"].ready_nodes()}
        for pod in state.pods.values():
            if pod.state is PodState.RUNNING:
                assert pod.bound_node in perf_nodes
        assert state.pools["staging"].nodes == []

    def test_old_pool_not_drained_before_workload_moves(self):
        state, mas = self.heartbeat_setup(replicas=3)
        state.now = 450
        mas.on_policy_switch(state, 450, "PERFORMANCE")
        staging = state.pools["staging"]
        while state.has_events():
            ev = state.step()
            if mas.migration.phase in (
                MigrationPhase.PROVISIONING_NEW, MigrationPhase.MIGRATING_WORKLOAD
            ):
                assert len(staging.nodes) == 1
            mas.on_event(state, ev)

    def test_switch_mid_migration_queued(self):
        state, mas = self.heartbeat_setup(replicas=2)
        state.now = 450
        mas.on_policy_switch(state, 450, "PERFORMANCE")
        record = mas.on_policy_switch(state, 451, "COST_SAVING")
        assert "queued" in record["migration"]
        run_until_quiet(state, mas)
        # First migration completed, queued one started and completed too.
        assert len(mas.completed_migrations) == 2
        assert mas.completed_migrations[0]["to_pool"] == "performance"
        assert mas.completed_migrations[1]["to_pool"] == "staging"

    def test_unmanaged_residual_keeps_old_pool_sized(self):
        state = two_pool_state(staging_nodes=2)
        state.create_pod("monitoring", 600, pod_id="monitoring")
        state.schedule_pending_pods()
        run_until_quiet(state)
        start_running(state, "web", 2)
        other = {"monitoring": 600}
        schedule = StrategicSchedule(default_policy="COST_SAVING")
        mas = make_mas(
            flat_trace(400, 900), schedule=schedule, other=other, forecaster="naive",
        )
        mas.desired = 2
        state.now = 100
        mas.on_policy_switch(state, 100, "PERFORMANCE")
        run_until_quiet(state, mas)
        assert mas.migration.phase is MigrationPhase.IDLE
        # The unmanaged pod still needs one staging node.
        assert len(state.pools["staging"].nodes) == 1
        monitoring = state.pods["monitoring"]
        assert monitoring.state is PodState.RUNNING

    def test_migration_sizes_new_pool_for_other_requests_too(self):
        state = two_pool_state(staging_nodes=1)
        start_running(state, "web", 2)
        other = {"legacy": 1800}
        mas = make_mas(flat_trace(400, 900), other=other, forecaster="naive")
        mas.desired = 2
        record = mas._begin_migration(state, 10, PERF)
        # 2 x 250m + 1800m cannot share one 2000m node.
        assert record["new_pool_nodes"] == 2

    def test_zero_floor_migration_sizes_one_node_and_completes(self):
        # Nothing to move: the new pool still gets one node, and the
        # migration completes once it is ready.
        state = two_pool_state(staging_nodes=1)
        mas = make_mas(flat_trace(400, 900), forecaster="naive")
        mas.desired = 0
        state.now = 10
        record = mas._begin_migration(state, 10, PERF)
        assert record["new_pool_nodes"] == 1
        assert record["floor"] == {"web": 0}
        run_until_quiet(state, mas)
        assert mas.migration.phase is MigrationPhase.IDLE
        assert mas.completed_migrations == [{
            "started_at": 10, "completed_at": 130, "from_pool": "staging",
            "to_pool": "performance", "floor": {"web": 0},
        }]
        assert len(state.pools["performance"].ready_nodes()) == 1
        assert state.pools["staging"].nodes == []


@st.composite
def shrink_states(draw):
    """Two workloads' pods on one pool: Running pods, Starting ones bound
    later, Terminating ones, pods re-pended by a drain after younger Pending
    ones were created, and Pending pods that fit nowhere."""
    state = ClusterState([NodePool("main", 1000, 60)], pod_startup_delay=10)
    for _ in range(draw(st.integers(1, 4))):
        state.add_ready_node("main")
    workload = st.sampled_from(["web", "api"])
    request = st.sampled_from([250, 500])
    for w in draw(st.lists(workload, max_size=12)):
        state.create_pod(w, draw(request))
    state.schedule_pending_pods()
    run_until_quiet(state)                          # Running
    state.now = 20
    for w in draw(st.lists(workload, max_size=12)):
        state.create_pod(w, draw(request))
    state.schedule_pending_pods()                   # Starting; no event fires
    bound = sorted(p.pod_id for p in state.pods.values() if p.bound_node is not None)
    if bound:
        for pod_id in draw(st.lists(st.sampled_from(bound), unique=True, max_size=4)):
            state.terminate_pod(pod_id)             # Terminating
    for w in draw(st.lists(workload, max_size=6)):
        state.create_pod(w, draw(st.sampled_from([250, 2000])))
    nodes = sorted(state.nodes)
    for node_id in draw(st.lists(st.sampled_from(nodes), unique=True, max_size=2)):
        state._drain(state.nodes[node_id])          # re-pended, out of creation order
    return state


def recording_terminations(state):
    """Record, on `state` alone, the id of every pod terminated."""
    terminated, terminate = [], state.terminate_pod

    def recording(pod_id):
        terminated.append(pod_id)
        terminate(pod_id)

    state.terminate_pod = recording
    return terminated


class TestScaleDown:
    """The ticks' scale-down against the sort of every pod it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(state=shrink_states(), data=st.data())
    def test_victims_are_the_sorted_scan(self, state, data):
        workload = data.draw(st.sampled_from(["web", "api"]), label="workload")
        count = data.draw(st.integers(0, state.replicas(workload)), label="count")
        expected = [p.pod_id for p in shrink_victims_scan(state.pods_of(workload), count)]
        alive = state.replicas(workload)
        terminated = recording_terminations(state)
        _scale_replicas(state, workload, 250, -count)
        assert terminated == expected
        assert state.replicas(workload) == alive - count

    def test_walk_stops_at_the_count(self):
        # 40 running pods, 2 to release: the walk back from the youngest
        # pod reads the two youngest and nothing older.
        state = baseline_state(nodes=10, capacity=4000)
        start_running(state, "web", 40)
        read = []

        class ReadPods(dict):
            def values(self):
                return ReadValues(self)

        class ReadValues:
            def __init__(self, pods):
                self.pods = pods

            def __reversed__(self):
                for pod in reversed(dict.values(self.pods)):
                    read.append(pod.pod_id)
                    yield pod

        state.pods = ReadPods(state.pods)
        terminated = recording_terminations(state)
        _scale_replicas(state, "web", 250, -2)
        assert terminated == read == ["web-p40", "web-p39"]


class TestControllerProtocol:
    def test_make_controller_picks_the_named_class(self):
        assert CONTROLLER_TYPES == {
            "mas_h2": HierarchicalController, "hpa_ca": ReactiveController,
        }
        for name, cls in CONTROLLER_TYPES.items():
            config = parse_scenario_text(
                f"workload = heartbeat\ncontroller = {name}\n", "x"
            )
            controller = make_controller(config, config.build_trace())
            assert type(controller) is cls and controller.name == name

    def test_tick_times(self):
        config = parse_scenario_text(
            "workload = heartbeat\ncontroller = mas_h2\n"
            "mas.control_interval = 300\nhpa.tick_interval = 15\n", "x"
        )
        trace = config.build_trace()
        mas = make_controller(config, trace)
        hpa = ReactiveController.from_config(config, trace)
        assert list(mas.tick_times(900)) == [0, 300, 600, 900]
        assert list(hpa.tick_times(45)) == [0, 15, 30]

    def test_initial_placement_follows_the_starting_policy_or_the_hpa_floor(self):
        config = parse_scenario_text(
            "workload = heartbeat\ncontroller = mas_h2\nschedule.default = PERFORMANCE\n"
            "hpa.min_replicas = 3\n", "x"
        )
        trace = config.build_trace()
        mas = make_controller(config, trace)
        hpa = ReactiveController.from_config(config, trace)
        assert mas.initial(None) == ("performance", PERF.min_replicas)
        assert mas.initial(5) == ("performance", 5)
        assert hpa.initial(None) == ("staging", 3)
        assert hpa.initial(0) == ("staging", 0)

    def test_baseline_ignores_events_and_never_migrates(self):
        state = baseline_state()
        hpa = make_hpa(flat_trace(100, 60), state)
        state.enqueue(0, EventKind.POLICY_SWITCH, {"policy": "PERFORMANCE"})
        assert hpa.on_event(state, state.step()) == []
        assert hpa.active_floor() is None
        assert hpa.completed_migrations == []
