"""Observation, cost accounting, utility, CSV round-trip, and comparison."""

import csv
import random
import re
import statistics
import tempfile
import typing
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import observe_scan, write_metrics_csv_cells
from test_fuzz import random_scenario
from test_golden_artifacts import FIXTURES, GOLDEN, GOLDEN_BENCH, _bench_workloads

from scalesim.control import HpaConfig
from scalesim.engine import ClusterState, Node, NodePool, NodeState
from scalesim.metrics import (
    _NODE_STATES,
    CostAccumulator,
    MetricSample,
    Normalizers,
    Observer,
    RunSummary,
    compare_runs,
    read_metrics_csv,
    read_summary,
    summarize,
    to_micro,
    utility_score,
    utilization,
    write_comparison,
    write_metrics_csv,
)
from scalesim.planning import Policy
from scalesim.runner import run_scenario
from scalesim.scenario import load_scenario, parse_scenario_text

COST = Policy("COST_SAVING", "staging", 1, 0.2, 0.8)
PERF = Policy("PERFORMANCE", "performance", 2, 0.8, 0.2)
NEUTRAL = Policy("NEUTRAL", "main", 1, 0.5, 0.5)


def make_state(capacity=2000):
    return ClusterState([NodePool("main", capacity, 120)])


def make_observer(state, pod_request=250, cost_rate=1.0):
    return Observer(
        workload_id="web",
        pod_request=pod_request,
        cost=CostAccumulator({"main": to_micro(cost_rate)}, to_micro(0.1), "web"),
        normalizers=Normalizers(),
        saturation_ceiling=HpaConfig().saturation_ceiling,
    )


class TestObserve:
    def test_empty_cluster_conventions(self):
        state = make_state()
        observer = make_observer(state)
        sample = observer.observe(state, demand=0, policy=NEUTRAL, t=0)
        assert sample.utilization == 0.0
        assert sample.packing_efficiency == 0.0
        assert sample.running_replicas == 0

    def test_forty_percent_utilization(self):
        state = make_state()
        for _ in range(2):
            state.add_ready_node("main")
        for _ in range(8):
            state.create_pod("web", 250)
        state.schedule_pending_pods()
        while state.has_events():
            state.step()
        observer = make_observer(state)
        sample = observer.observe(state, demand=800, policy=NEUTRAL, t=0)
        assert sample.running_replicas == 8
        assert sample.utilization == pytest.approx(0.40)
        assert sample.cpu_waste_millicores == 1200
        assert sample.packing_efficiency == pytest.approx(2000 / 4000)

    def test_node_cost_is_rate_times_seconds(self):
        state = make_state()
        state.add_ready_node("main")
        observer = make_observer(state, cost_rate=3.0)
        observer.cost.advance(state, 100)
        sample = observer.observe(state, demand=0, policy=NEUTRAL, t=100)
        assert sample.cumulative_node_cost == 100 * to_micro(3.0)

    # One 250m replica under the default 11/10 ceiling: the cap is 275m.
    @pytest.mark.parametrize("demand, pair, expected", [
        (274, (274, 250), 1.096),
        (275, (275, 250), 1.1),
        (276, (11, 10), 1.1),
        (5000, (11, 10), 1.1),
    ], ids=["below-cap", "on-cap", "above-cap", "far-above-cap"])
    def test_utilization_capped_at_saturation_ceiling(self, demand, pair, expected):
        assert utilization(demand, 1, 250, Fraction(11, 10)) == pair
        state = make_state()
        state.add_ready_node("main")
        state.create_pod("web", 250)
        state.schedule_pending_pods()
        while state.has_events():
            state.step()
        observer = make_observer(state)
        sample = observer.observe(state, demand=demand, policy=NEUTRAL, t=0)
        assert sample.utilization == expected

    def test_node_states_counted_and_packing_reads_ready_nodes_only(self):
        state = make_state()
        for _ in range(2):
            state.add_ready_node("main")
        for _ in range(6):
            state.create_pod("web", 250)
        state.schedule_pending_pods()     # 3 pods on each Ready node
        while state.has_events():
            state.step()
        state.resize_pool("main", 3)      # add a Provisioning node
        observer = make_observer(state)
        sample = observer.observe(state, demand=0, policy=NEUTRAL, t=0)
        assert sample.nodes_by_pool == {"main": (1, 2)}
        # The Provisioning node's capacity is left out: 1500m bound on the
        # two Ready nodes of 2000m.
        assert sample.packing_efficiency == 0.375



def test_every_counted_node_state_shows_in_some_metrics_row(tmp_path):
    # A column that is 0 in every row of every golden run cannot tell a reader
    # anything; a node state that no sample can see should not be declared.
    assert set(_NODE_STATES) == set(NodeState) - {NodeState.DELETED}
    unseen = {s.value.lower() for s in _NODE_STATES}
    configs = [load_scenario(FIXTURES / f"{name}.scn") for name in sorted(GOLDEN)]
    configs += [parse_scenario_text(_bench_workloads()[name].generate(1), f"{name}-1")
                for name in sorted(GOLDEN_BENCH)]
    for config in configs:
        out = tmp_path / config.scenario_id
        run_scenario(config, out_dir=out)
        with open(out / "metrics.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                unseen -= {column.rsplit("_", 1)[1] for column, cell in row.items()
                           if column.startswith("nodes_") and cell != "0"}
        if not unseen:
            break
    assert not unseen

# Ceilings whose cap falls on a whole millicore for some capacities and
# between two for others.
CEILINGS = (Fraction(1), Fraction(11, 10), Fraction(3, 2), Fraction(7, 3))
NODE_STATES = (NodeState.PROVISIONING, NodeState.READY)
POLICIES = (COST, PERF, NEUTRAL)


@st.composite
def observed_clusters(draw):
    """An observer and a cluster it samples: 1-3 pools whose nodes are
    Provisioning or Ready with any `used`, 0-50 running replicas,
    and a demand on the saturation cap, one millicore either side of it, or
    anywhere in 0-100 000."""
    pools = [NodePool(f"pool{i}", draw(st.integers(1, 4000)), 120)
             for i in range(draw(st.integers(1, 3)))]
    state = ClusterState(pools)
    for pool in pools:
        for j in range(draw(st.integers(0, 6))):
            pool.nodes.append(Node(
                f"{pool.pool_id}-n{j + 1}", pool.pool_id, draw(st.sampled_from(NODE_STATES)),
                used=draw(st.integers(0, pool.node_capacity_millicores))))
    pod_request = draw(st.integers(1, 1000))
    for _ in range(draw(st.integers(0, 5))):
        state.create_pod("web", pod_request)
    running = draw(st.integers(0, 50))
    state.running_by_workload["web"] = running
    state.bound_count = draw(st.integers(0, 60))

    ceiling = draw(st.sampled_from(CEILINGS))
    cap = ceiling.numerator * running * pod_request // ceiling.denominator
    demand = draw(st.integers(0, 100_000) | st.sampled_from(
        [max(0, cap + d) for d in (-1, 0, 1)]))
    cost = CostAccumulator(
        {p.pool_id: draw(st.integers(0, 5 * 10**6)) for p in pools},
        draw(st.integers(0, 10**6)), "web")
    cost.node_cost = draw(st.integers(0, 10**12))
    cost.pod_cost = draw(st.integers(0, 10**12))
    observer = Observer("web", pod_request, cost, Normalizers(), ceiling)
    return observer, state, demand, draw(st.sampled_from(POLICIES))


@settings(max_examples=300, deadline=None)
@given(case=observed_clusters(), t=st.integers(0, 10**6))
def test_observe_equals_the_per_state_scans(case, t):
    observer, state, demand, policy = case
    expected = observe_scan(observer, state, demand, policy, t)
    sample = observer.observe(state, demand, policy, t)
    for f in fields(sample):
        assert getattr(sample, f.name) == getattr(expected, f.name), f.name
    assert observer.samples == [sample]


def _reuse_configs():
    """The four fixtures, the four seed-1 bench workloads and the scenarios
    of test_fuzz's randomized run."""
    yield from (load_scenario(FIXTURES / f"{name}.scn") for name in sorted(GOLDEN))
    yield from (parse_scenario_text(_bench_workloads()[name].generate(1), f"{name}-1")
                for name in sorted(GOLDEN_BENCH))
    rng = random.Random(0xC1D5)
    for i in range(25):
        for controller in ("hpa_ca", "mas_h2"):
            yield parse_scenario_text(random_scenario(rng, controller),
                                      f"fuzz-{controller}-{i}")


def test_a_reused_sample_equals_a_fresh_one(monkeypatch):
    observe = Observer.observe
    reused = 0

    def counting(self, state, demand, policy, t, changed=True):
        nonlocal reused
        reused += not changed
        return observe(self, state, demand, policy, t, changed)

    def fresh(self, state, demand, policy, t, changed=True):
        return observe(self, state, demand, policy, t)

    for config in _reuse_configs():
        reused = 0
        monkeypatch.setattr(Observer, "observe", counting)
        samples = run_scenario(config).samples
        monkeypatch.setattr(Observer, "observe", fresh)
        expected = run_scenario(config).samples
        assert len(samples) == len(expected), config.scenario_id
        for sample, want in zip(samples, expected):
            for f in fields(sample):
                assert getattr(sample, f.name) == getattr(want, f.name), \
                    (config.scenario_id, sample.t, f.name)
        # Every bench workload samples more often than anything fires, so
        # some of its samples reuse the one before.
        if config.scenario_id.removesuffix("-1") in GOLDEN_BENCH:
            assert reused > 0, config.scenario_id


def test_observe_without_a_change_reads_the_cluster_of_the_last_sample():
    state = ClusterState([NodePool("main", 2000, 120)])
    state.add_ready_node("main")
    for _ in range(3):
        state.create_pod("web", 250)
    state.schedule_pending_pods()
    cost = CostAccumulator({"main": to_micro(1.0)}, to_micro(0.1), "web")
    observer = Observer("web", 250, cost, Normalizers(), Fraction(11, 10))
    while state.has_events():
        state.step()                        # the three pods run
    first = observer.observe(state, 300, POLICIES[0], 10)
    cost.advance(state, 20)
    second = observer.observe(state, 900, POLICIES[0], 20, changed=False)
    assert second.nodes_by_pool is first.nodes_by_pool
    assert (second.running_replicas, second.pending_pods, second.packing_efficiency) == \
        (first.running_replicas, first.pending_pods, first.packing_efficiency)
    assert (second.demand_millicores, second.cumulative_node_cost) == (900, 20 * to_micro(1.0))
    assert second.cpu_waste_millicores == 0 and second.utilization != first.utilization


class TestCostAccumulator:
    def test_provisioning_nodes_accrue_pending_pods_do_not(self):
        state = make_state()
        state.resize_pool("main", 1)          # provisioning: costs, no capacity
        state.create_pod("web", 250)          # pending: free
        cost = CostAccumulator({"main": to_micro(2.0)}, to_micro(0.5), "web")
        cost.advance(state, 50)
        assert cost.node_cost == 50 * to_micro(2.0)
        assert cost.pod_cost == 0

    def test_bound_pods_accrue(self):
        state = make_state()
        state.add_ready_node("main")
        state.create_pod("web", 250)
        state.schedule_pending_pods()         # bound at t=0 (Starting)
        cost = CostAccumulator({"main": 0}, to_micro(0.1), "web")
        cost.advance(state, 40)
        assert cost.pod_cost == 40 * to_micro(0.1)

    def test_accounting_identity_over_segments(self):
        # Integrate a hand-built timeline and recompute the identity
        # sum(node-seconds x rate) from the segment durations.
        state = make_state()
        cost = CostAccumulator({"main": to_micro(1.5)}, 0, "web")
        cost.advance(state, 10)               # 10 s x 0 nodes
        state.now = 10
        state.add_ready_node("main")
        cost.advance(state, 35)               # 25 s x 1 node
        state.add_ready_node("main")
        cost.advance(state, 100)              # 65 s x 2 nodes
        expected = (10 * 0 + 25 * 1 + 65 * 2) * to_micro(1.5)
        assert cost.node_cost == expected

    def test_monotone_and_exact_integers(self):
        state = make_state()
        state.add_ready_node("main")
        cost = CostAccumulator({"main": to_micro(0.1)}, 0, "web")
        last = 0
        for t in range(1, 50):
            cost.advance(state, t)
            assert cost.node_cost >= last
            last = cost.node_cost
        assert cost.node_cost == 49 * 100000

    def test_backwards_time_rejected(self):
        cost = CostAccumulator({"main": 0}, 0, "web")
        cost.advance(make_state(), 10)
        with pytest.raises(ValueError):
            cost.advance(make_state(), 5)


    @staticmethod
    def running(replicas):
        """A one-node state that runs `replicas` web pods and one other pod."""
        state = make_state()
        state.add_ready_node("main")
        for _ in range(replicas):
            state.create_pod("web", 250)
        state.create_pod("other", 250)
        state.schedule_pending_pods()
        while state.has_events():
            state.step()
        assert state.running_replicas("web") == replicas
        return state

    def test_downtime_accrues_while_running_below_the_floor(self):
        state = self.running(3)
        cost = CostAccumulator({"main": 0}, 0, "web")
        cost.advance(state, 20, floor=4)
        assert cost.downtime == 20
        cost.advance(state, 25, floor=5)
        assert cost.downtime == 25

    def test_no_downtime_without_a_floor_at_the_floor_or_over_no_time(self, monkeypatch):
        state = self.running(3)
        cost = CostAccumulator({"main": 0}, 0, "web")
        cost.advance(state, 20)
        cost.advance(state, 30, floor=None)
        cost.advance(state, 40, floor=3)
        assert cost.downtime == 0
        # Over an empty interval the running replicas are not even read.
        reads = []
        monkeypatch.setattr(state, "running_replicas", lambda w: reads.append(w) or 0)
        cost.advance(state, 40, floor=4)
        assert cost.downtime == 0 and reads == []

    def test_floor_leaves_node_and_pod_cost_unchanged(self):
        state = self.running(3)
        with_floor = CostAccumulator({"main": to_micro(2.0)}, to_micro(0.5), "web")
        without = CostAccumulator({"main": to_micro(2.0)}, to_micro(0.5), "web")
        for t, floor in ((10, 4), (15, 3), (30, None), (50, 8)):
            with_floor.advance(state, t, floor)
            without.advance(state, t)
        assert with_floor.downtime == 10 + 20
        assert (with_floor.node_cost, with_floor.pod_cost) == (without.node_cost, without.pod_cost)
        assert (without.node_cost, without.pod_cost) == (50 * to_micro(2.0), 50 * 4 * to_micro(0.5))


class TestUtility:
    def test_pure_performance_weight_idle_cluster(self):
        policy = Policy("P", "main", 1, 1.0, 0.0)
        assert utility_score(0.0, 0.0, policy, Normalizers()) == 1.0

    def test_pure_cost_weight_zero_cost(self):
        policy = Policy("P", "main", 1, 0.0, 1.0)
        assert utility_score(0.0, 0.0, policy, Normalizers()) == 0.0

    def test_policy_weights_order_fixed_sample(self):
        # utilization 0.4 -> perf term 0.6; cost rate 2.0 of scale 5 -> 0.4.
        norm = Normalizers(perf_scale=1.0, cost_scale=5.0)
        u_perf = utility_score(0.4, 2.0, PERF, norm)
        u_cost = utility_score(0.4, 2.0, COST, norm)
        assert u_perf == pytest.approx(0.8 * 0.6 - 0.2 * 0.4)   # 0.40
        assert u_cost == pytest.approx(0.2 * 0.6 - 0.8 * 0.4)   # -0.20
        assert u_perf > u_cost

    def test_monotonicity_directions(self):
        norm = Normalizers()
        perf_only = Policy("P", "main", 1, 1.0, 0.0)
        cost_only = Policy("C", "main", 1, 0.0, 1.0)
        for lo, hi in [(0.0, 0.3), (0.3, 0.9), (0.9, 1.1)]:
            assert utility_score(hi, 1.0, perf_only, norm) <= utility_score(lo, 1.0, perf_only, norm)
        for lo, hi in [(0.0, 1.0), (1.0, 4.0)]:
            assert utility_score(0.5, hi, cost_only, norm) <= utility_score(0.5, lo, cost_only, norm)

    def test_bad_normalizers_rejected(self):
        with pytest.raises(ValueError):
            Normalizers(perf_scale=0)
        with pytest.raises(ValueError):
            Normalizers(cost_scale=-1)


MINI_SCENARIO = """
workload = custom
controller = hpa_ca
seed = 3
phase.1.duration = 30
phase.1.target_vus = 100
phase.2.duration = 30
phase.2.target_vus = 200
"""


def mini_run(tmp_path: Path, name: str, seed=3):
    config = parse_scenario_text(MINI_SCENARIO, "mini")
    if seed != 3:
        from dataclasses import replace
        config = replace(config, seed=seed)
    out = tmp_path / name
    result = run_scenario(config, out_dir=out)
    return result, out


class TestCsvAndSummary:
    def test_metrics_round_trip_exact(self, tmp_path):
        result, out = mini_run(tmp_path, "a")
        header, samples = read_metrics_csv(out / "metrics.csv")
        assert samples == result.samples

    def test_column_order_is_stable_interface(self, tmp_path):
        _, out = mini_run(tmp_path, "a")
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == (
            "t,demand_millicores,running_replicas,pending_pods,"
            "nodes_baseline_provisioning,nodes_baseline_ready,"
            "utilization,cpu_waste_millicores,cumulative_pod_cost,"
            "cumulative_node_cost,packing_efficiency,utility"
        )

    def test_time_above_threshold_matches_samples(self, tmp_path):
        result, _ = mini_run(tmp_path, "a")
        expected = result.config.sampling_interval * sum(
            1 for s in result.samples
            if s.utilization > result.summary.utilization_threshold
        )
        assert result.summary.time_above_threshold == expected

    def test_utility_integral_matches_samples(self, tmp_path):
        result, _ = mini_run(tmp_path, "a")
        expected = round(
            result.config.sampling_interval * sum(s.utility for s in result.samples), 6
        )
        assert result.summary.utility_integral == expected

    def test_summary_round_trip(self, tmp_path):
        result, out = mini_run(tmp_path, "a")
        assert read_summary(out / "summary.txt") == result.summary

    def test_summary_of_empty_samples(self):
        summary = summarize("x", "hpa_ca", 1, 0, [], 5, 0, 0, 0, 0)
        assert summary.mean_utilization == 0.0
        assert summary.max_replicas == 0


CELL_INTS = st.integers(-10**15, 10**15)
# Any float: negative, -0.0, beyond six decimals, infinite or NaN.
CELL_FLOATS = st.floats() | st.sampled_from([-0.0, 0.0, -1.5, 0.0000005, -0.0000005])


@st.composite
def metric_samples(draw, pool_order):
    """A sample of any field values, with a pair for every pool."""
    return MetricSample(
        t=draw(CELL_INTS),
        demand_millicores=draw(CELL_INTS),
        running_replicas=draw(CELL_INTS),
        pending_pods=draw(CELL_INTS),
        nodes_by_pool={p: draw(st.tuples(CELL_INTS, CELL_INTS))
                       for p in pool_order},
        utilization=draw(CELL_FLOATS),
        cpu_waste_millicores=draw(CELL_INTS),
        cumulative_pod_cost=draw(CELL_INTS),
        cumulative_node_cost=draw(CELL_INTS),
        packing_efficiency=draw(CELL_FLOATS),
        utility=draw(CELL_FLOATS),
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       pool_order=st.lists(st.text("ab_-,", min_size=1, max_size=4),
                           min_size=1, max_size=3, unique=True))
def test_metrics_csv_equals_the_per_cell_writer(data, pool_order):
    samples = data.draw(st.lists(metric_samples(pool_order), max_size=8))
    with tempfile.TemporaryDirectory() as tmp:
        got, expected = Path(tmp, "got.csv"), Path(tmp, "expected.csv")
        write_metrics_csv(samples, pool_order, got)
        write_metrics_csv_cells(samples, pool_order, expected)
        assert got.read_bytes() == expected.read_bytes()


@settings(max_examples=200, deadline=None)
@given(utils=st.lists(st.floats(0, 1.1), min_size=1, max_size=40))
def test_summary_median_is_the_statistics_median(utils):
    samples = [MetricSample(0, 0, 0, 0, {}, u, 0, 0, 0, 0.0, 0.0) for u in utils]
    summary = summarize("x", "hpa_ca", 1, 0, samples, 5, 0, 0, 0, 0)
    assert summary.median_utilization == round(statistics.median(utils), 6)


class TestCompareRuns:
    def test_self_comparison_all_zero_deltas(self, tmp_path):
        _, out_a = mini_run(tmp_path, "a")
        _, out_b = mini_run(tmp_path, "b")
        report = compare_runs(out_a, out_b)
        assert all(v == 0.0 for v in report.deltas.values())
        assert report.sustained_stress_ratio == pytest.approx(1.0)
        assert report.peak_load_ratio == pytest.approx(1.0)

    def test_seed_mismatch_names_both_seeds(self, tmp_path):
        _, out_a = mini_run(tmp_path, "a", seed=3)
        _, out_b = mini_run(tmp_path, "b", seed=4)
        with pytest.raises(ValueError, match="3.*4|seed"):
            compare_runs(out_a, out_b)

    def test_scenario_mismatch_rejected(self, tmp_path):
        _, out_a = mini_run(tmp_path, "a")
        config = parse_scenario_text(MINI_SCENARIO, "other")
        out_b = tmp_path / "b"
        run_scenario(config, out_dir=out_b)
        with pytest.raises(ValueError, match="scenario mismatch"):
            compare_runs(out_a, out_b)

    def test_summary_missing_a_field_names_it(self, tmp_path):
        _, out_a = mini_run(tmp_path, "a")
        _, out_b = mini_run(tmp_path, "b")
        summary = out_b / "summary.txt"
        summary.write_text("".join(line for line in summary.read_text().splitlines(True)
                                   if not line.startswith("migrations:")))
        with pytest.raises(ValueError, match="no migrations line"):
            compare_runs(out_a, out_b)

    @pytest.mark.parametrize("name, damage, message", [
        ("summary.txt", lambda text: re.sub(r"(?m)^seed: .*$", "seed: abc", text),
         "summary.txt: seed: cannot read 'abc' as int"),
        # utility is the last column of every line.
        ("metrics.csv", lambda text: re.sub(r"(?m),[^,\n]*$", "", text),
         "metrics.csv: no utility column"),
        ("metrics.csv", lambda text: "", "metrics.csv: empty"),
        ("metrics.csv", lambda text: re.sub(r"^(.*\n.*),[^,\n]*", r"\1", text),
         "metrics.csv: line 2 has"),
    ], ids=["summary-value", "metrics-column", "metrics-empty", "metrics-short-row"])
    def test_damaged_artifact_names_file_and_field(self, tmp_path, name, damage, message):
        _, out_a = mini_run(tmp_path, "a")
        _, out_b = mini_run(tmp_path, "b")
        path = out_b / name
        path.write_text(damage(path.read_text()))
        with pytest.raises(ValueError, match="^" + re.escape(str(out_b / message))):
            compare_runs(out_a, out_b)

    def test_aligned_csv_has_both_series(self, tmp_path):
        _, out_a = mini_run(tmp_path, "a")
        _, out_b = mini_run(tmp_path, "b")
        report = compare_runs(out_a, out_b)
        assert "utilization_a" in report.aligned_header
        assert "utilization_b" in report.aligned_header
        assert len(report.aligned_rows) == 12   # 60 s at 5 s sampling

    def test_aligned_cells_are_the_metrics_cells(self, tmp_path):
        _, out_a = mini_run(tmp_path, "a")
        _, out_b = mini_run(tmp_path, "b")
        write_comparison(compare_runs(out_a, out_b), tmp_path / "cmp")
        runs = {}
        for run, out in (("a", out_a), ("b", out_b)):
            with open(out / "metrics.csv", newline="") as fh:
                runs[run] = {row["t"]: row for row in csv.DictReader(fh)}
        with open(tmp_path / "cmp" / "comparison.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(runs["a"])
        for row in rows:
            for column, cell in row.items():
                name, run = (column, "a") if column in ("t", "demand_millicores") \
                    else column.rsplit("_", 1)
                assert cell == runs[run][row["t"]][name], (row["t"], column)
        assert any(float(row["utilization_a"]) not in (0.0, 1.1) for row in rows)

    def test_table_rows_are_the_compared_numeric_summary_fields(self, tmp_path):
        _, out_a = mini_run(tmp_path, "a")
        _, out_b = mini_run(tmp_path, "b")
        report = compare_runs(out_a, out_b)
        marked = {f.name for f in fields(RunSummary) if not f.metadata.get("compared", True)}
        assert marked == {"seed", "duration", "utilization_threshold", "migrations"}
        hints = typing.get_type_hints(RunSummary)
        expected = [f.name for f in fields(RunSummary)
                    if hints[f.name] in (int, float) and f.name not in marked]
        lines = report.text.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("metric")) + 1
        rows = [line.split()[0] for line in lines[start:lines.index("", start)]]
        assert rows == expected
        assert list(report.deltas) == expected
