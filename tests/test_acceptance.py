"""Acceptance suite.

One test per criterion; each prints a `[acceptance] criterion N: PASS|FAIL`
line with the measured numbers and then asserts every clause. Directional
criteria run the bundled fixture scenarios at the documented default
calibration (vu_cost=2, pod_request=250m).

Criteria 1 and 2 check what the paper claims (proactive sizing for the peak,
no under-provisioning once the plan is in force, a baseline that adds no
headroom past its target) against bounds computed from each run's own
scenario config and demand trace with two documented formulas:

- ceiling rule: n*(D) is the smallest n with n * pod_request >= D, floored
  by the active policy's min_replicas (the criterion 5 oracle);
- HPA fixed point: the smallest n with D <= target_utilization * n *
  pod_request, in exact rationals.

The planner must reach at least n*(D), and from the first tick that has
seen the peak, plus pod_startup_delay, every later peak sample must run at
or below D / (n* * r), no hotter than the baseline's mean over its peaks.
The baseline must reach its fixed point and stop there.

The paper's own figures (MAS-H2 peaks below 40% CPU, HPA above 80%, MAS-H2
deploying more replicas than HPA in the flash sale) stay in the printed
lines next to the measured values. They are out of reach for this model:
no forecaster predicts above the maximum of its history, so the planner
sizes at most n*(D), and at a covered peak the utilization D / (n* * r) is
above (n* - 1) / n*; at 800m that is 4 replicas at 0.80, where the HPA's
80% target needs the same 4. The README gives the account clause by clause.
The negative controls run under-forecasting variants of the fixtures and
assert that each derived clause reports VIOLATED.
"""

import json
import random
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import Request, ffd_bound_holds, pack_exact

from scalesim.forecasting import SeasonalPeak, forecast, smoothed_history
from scalesim.planning import Policy, pack_ffd, plan_replicas
from scalesim.runner import run_scenario
from scalesim.scenario import load_scenario
from scalesim.workload import build_trace, heartbeat_phases

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"

# Peak-hold windows of the heartbeat trace (ramp ends, flat 400 VUs).
HEARTBEAT_HOLDS = [(30, 150), (270, 390), (510, 630)]
HEARTBEAT_HOLDS_AFTER_FIRST = [(270, 390), (510, 630)]
FLASH_SUSTAINED_PEAK = (420, 660)
FLASH_CHATTER = (0, 240)


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def assert_clauses(criterion, clauses):
    """clauses: list of (description, bool). Prints the verdict, then fails
    with every violated clause named."""
    failed = [desc for desc, ok in clauses if not ok]
    detail = "; ".join(f"{desc}: {'ok' if ok else 'VIOLATED'}" for desc, ok in clauses)
    report(criterion, not failed, detail)
    assert not failed, f"criterion {criterion} violated: {failed}"


def timed_run(path, seed=None, controller=None):
    config = load_scenario(path)
    if seed is not None:
        config = replace(config, seed=seed)
    if controller is not None:
        config = replace(config, controller=controller)
    t0 = time.perf_counter()
    result = run_scenario(config)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def runs():
    out = {}
    for name in ("heartbeat-mas", "heartbeat-hpa", "flash-sale-mas", "flash-sale-hpa"):
        out[name] = timed_run(FIXTURES / f"{name}.scn")
    return out


def windowed_mean_utilization(samples, windows):
    picked = [
        s.utilization for s in samples
        if any(lo <= s.t < hi for lo, hi in windows)
    ]
    return sum(picked) / len(picked)


def max_peak_plan(result):
    plans = []
    for line in result.decision_lines:
        rec = json.loads(line)
        if rec.get("controller") != "mas_h2":
            continue
        for plan in rec["phases"][1]["plans"]:
            if "planned_replicas" in plan:
                plans.append(plan["planned_replicas"])
    return max(plans) if plans else 0


def peak_demand(config, windows):
    """D: the highest demand the run's own trace puts inside the windows."""
    trace = config.build_trace()
    return max(d for lo, hi in windows for d in trace.demand[lo:hi])


def ceiling_oracle(peak, request):
    """The smallest replica count covering the peak, by linear search."""
    n = 1
    while n * request < peak:
        n += 1
    return n


def ceiling_rule(demand, config, t):
    """n*(D): the ceiling oracle for the run's pod_request, floored by the
    min_replicas of the policy active at t."""
    floor = config.policies[config.schedule.active_at(t)].min_replicas
    return max(ceiling_oracle(demand, config.pod_request), floor)


def hpa_fixed_point(demand, config):
    """The smallest n, from the HPA's floor up, with
    D <= target_utilization * n * pod_request."""
    n = config.hpa.min_replicas
    while demand > Fraction(config.hpa.target_utilization) * n * config.pod_request:
        n += 1
    return n


def covered_peak(mas, windows, n_star, demand):
    """(t_from, bound, utilizations) for the mas samples inside the windows
    from the time a plan that has seen the first window's demand can be
    Running: the first tick strictly after the window opens (a tick reads
    only the demand before it) plus pod_startup_delay. None of them may run
    above bound = D / (n* * r), rounded to 6 places as the metrics are."""
    config = mas.config
    step = config.mas.control_interval
    t_from = (windows[0][0] // step + 1) * step + config.pod_startup_delay
    bound = round(demand / (n_star * config.pod_request), 6)
    return t_from, bound, [
        s.utilization for s in mas.samples
        if s.t >= t_from and any(lo <= s.t < hi for lo, hi in windows)
    ]


def saturated(samples, window):
    """Samples in the window whose demand exceeds the Running capacity."""
    lo, hi = window
    return sum(1 for s in samples if lo <= s.t < hi and s.utilization > 1)


def criterion_1_clauses(mas, hpa):
    """Clauses of criterion 1 for a (mas_h2, hpa_ca) pair of heartbeat runs."""
    demand = peak_demand(mas.config, HEARTBEAT_HOLDS)
    n_star = ceiling_rule(demand, mas.config, HEARTBEAT_HOLDS[-1][0])
    peak_plan = max_peak_plan(mas)
    mas_hold_util = windowed_mean_utilization(mas.samples, HEARTBEAT_HOLDS_AFTER_FIRST)
    t_from, bound, covered = covered_peak(mas, HEARTBEAT_HOLDS_AFTER_FIRST, n_star, demand)

    hpa_demand = peak_demand(hpa.config, HEARTBEAT_HOLDS)
    fixed_point = hpa_fixed_point(hpa_demand, hpa.config)
    hpa_max_replicas = max(s.running_replicas for s in hpa.samples)
    hpa_hold_util = windowed_mean_utilization(hpa.samples, HEARTBEAT_HOLDS)

    return {
        "steady_plan": (
            f"mas steady-state peak plan {peak_plan} >= n*({demand}m) = {n_star}"
            f" (paper-derived bound: 7..8)",
            peak_plan >= n_star,
        ),
        "covered_holds": (
            f"mas from t={t_from}: {len(covered)} post-first-cycle hold samples, max"
            f" utilization {max(covered, default=None)} <= D/(n*r) = {bound}"
            f" <= baseline peak-hold mean {hpa_hold_util:.4f}"
            f" (post-first-cycle hold mean {mas_hold_util:.4f}; paper: < 0.40)",
            bool(covered) and max(covered) <= bound <= hpa_hold_util,
        ),
        "baseline_fixed_point": (
            f"baseline max replicas {hpa_max_replicas} == HPA fixed point {fixed_point}"
            f" at {hpa_demand}m, target {hpa.config.hpa.target_utilization}"
            f" (paper-derived bound: stalls at <= 3)",
            hpa_max_replicas == fixed_point,
        ),
        "baseline_hold": (
            f"baseline peak-hold utilization {hpa_hold_util:.4f} > 0.80",
            hpa_hold_util > 0.80,
        ),
    }


def test_criterion_1_heartbeat_reproduction(runs):
    mas, mas_elapsed = runs["heartbeat-mas"]
    hpa, hpa_elapsed = runs["heartbeat-hpa"]
    assert_clauses("1", [
        *criterion_1_clauses(mas, hpa).values(),
        (f"runtime {mas_elapsed:.2f}s/{hpa_elapsed:.2f}s < 10s",
         mas_elapsed < 10 and hpa_elapsed < 10),
    ])


def still_holding(clauses, keys):
    """Keys among `keys` whose clause holds; each is printed with its verdict."""
    for key in keys:
        desc, ok = clauses[key]
        print(f"[acceptance] negative control: {desc}: {'ok' if ok else 'VIOLATED'}")
    return [key for key in keys if clauses[key][1]]


def test_criterion_1_clauses_reject_under_forecast(runs):
    hpa, _ = runs["heartbeat-hpa"]
    config = load_scenario(FIXTURES / "heartbeat-mas.scn")
    naive = run_scenario(replace(config, mas=replace(config.mas, forecaster="naive")))
    assert not still_holding(criterion_1_clauses(naive, hpa), ["steady_plan", "covered_holds"])

    # A baseline held below its own fixed point (the old "stalls" bound).
    mas, _ = runs["heartbeat-mas"]
    fixed_point = hpa_fixed_point(peak_demand(hpa.config, HEARTBEAT_HOLDS), hpa.config)
    capped = run_scenario(replace(
        hpa.config, hpa=replace(hpa.config.hpa, max_replicas=fixed_point - 1)
    ))
    assert not still_holding(criterion_1_clauses(mas, capped), ["baseline_fixed_point"])


def chatter_replicas_and_trough_plan(result):
    lo, hi = FLASH_CHATTER
    replicas = max(
        s.running_replicas + s.pending_pods for s in result.samples if lo <= s.t < hi
    )
    plans = []
    for line in result.decision_lines:
        rec = json.loads(line)
        if rec.get("controller") == "mas_h2" and lo <= rec["t"] < hi:
            plans += [
                p["planned_replicas"] for p in rec["phases"][1]["plans"]
                if "planned_replicas" in p
            ]
    initial = result.config.policies[result.config.schedule.active_at(0)].min_replicas
    trough_plan = min(plans) if plans else initial
    return replicas, trough_plan


def chatter_probe_plan(config):
    """What the planner would order from chatter-only history: smoothing plus
    the quantile forecast must filter the chatter spikes."""
    trace = config.build_trace()
    history = [float(d) for d in trace.demand[:200]]
    smoothed = smoothed_history(history, config.mas.smoothing_half_life)
    peak = forecast(SeasonalPeak(period=60, quantile=0.95), smoothed, 200, 300)
    policy = config.policies[config.schedule.active_at(200)]
    return plan_replicas(peak, config.pod_request, policy).planned_replicas


def criterion_2_clauses(mas, hpa):
    """Clauses of criterion 2 for a (mas_h2, hpa_ca) pair of flash-sale runs."""
    seed = mas.config.seed
    lo, hi = FLASH_SUSTAINED_PEAK
    chatter_replicas, trough_plan = chatter_replicas_and_trough_plan(mas)
    probe = chatter_probe_plan(mas.config)
    demand = peak_demand(mas.config, [FLASH_SUSTAINED_PEAK])
    n_star = ceiling_rule(demand, mas.config, lo)
    mas_peak = max(s.running_replicas for s in mas.samples if lo <= s.t < hi)
    hpa_peak = max(s.running_replicas for s in hpa.samples if lo <= s.t < hi)
    t_from, bound, covered = covered_peak(mas, [FLASH_SUSTAINED_PEAK], n_star, demand)
    hpa_util = windowed_mean_utilization(hpa.samples, [FLASH_SUSTAINED_PEAK])
    return {
        "chatter": (
            f"seed {seed}: chatter replicas {chatter_replicas} <= trough plan {trough_plan}+1",
            chatter_replicas <= trough_plan + 1,
        ),
        "probe": (
            f"seed {seed}: chatter-history probe plan {probe} <= trough plan+1",
            probe <= trough_plan + 1,
        ),
        "mas_floor": (f"seed {seed}: mas peak replicas {mas_peak} >= 4", mas_peak >= 4),
        "sustained_peak": (
            f"seed {seed}: mas sustained-peak max {mas_peak} >= n*({demand}m) = {n_star},"
            f" baseline {hpa_peak} (paper: mas > baseline)",
            mas_peak >= n_star,
        ),
        "covered_peak": (
            f"seed {seed}: mas from t={t_from}: {len(covered)} sustained-peak samples, max"
            f" utilization {max(covered, default=None)} <= D/(n*r) = {bound}"
            f" <= baseline sustained-peak mean {hpa_util:.4f} (saturated samples: mas"
            f" {saturated(mas.samples, FLASH_SUSTAINED_PEAK)}, baseline"
            f" {saturated(hpa.samples, FLASH_SUSTAINED_PEAK)}; paper: no under-provisioning)",
            bool(covered) and max(covered) <= bound <= hpa_util,
        ),
    }


def test_criterion_2_flash_sale_reproduction():
    clauses = []
    for seed in range(1, 6):
        mas, _ = timed_run(FIXTURES / "flash-sale-mas.scn", seed=seed)
        hpa, _ = timed_run(FIXTURES / "flash-sale-hpa.scn", seed=seed)
        clauses += criterion_2_clauses(mas, hpa).values()
    assert_clauses("2", clauses)


def test_criterion_2_clauses_reject_under_forecast(runs):
    hpa, _ = runs["flash-sale-hpa"]
    config = load_scenario(FIXTURES / "flash-sale-mas.scn")
    moving_average = run_scenario(replace(config, mas=replace(
        config.mas, forecaster="moving_average", moving_average_window=300,
    )))
    assert not still_holding(
        criterion_2_clauses(moving_average, hpa), ["sustained_peak", "covered_peak"]
    )


def test_criterion_3_zero_downtime_migration(runs):
    clauses = []
    for name in ("heartbeat-mas", "flash-sale-mas"):
        result, _ = runs[name]
        clauses.append((
            f"{name}: one policy switch migrated", result.summary.migrations == 1,
        ))
        clauses.append((
            f"{name}: downtime {result.summary.migration_downtime}s == 0",
            result.summary.migration_downtime == 0,
        ))
        for migration in result.completed_migrations:
            floor = sum(migration["floor"].values())
            window = [
                s.running_replicas for s in result.samples
                if migration["started_at"] <= s.t <= migration["completed_at"]
            ]
            clauses.append((
                f"{name}: min running {min(window)} >= pre-switch plan {floor}",
                min(window) >= floor,
            ))
    assert_clauses("3", clauses)


def test_criterion_4_bin_packing_oracle_equivalence():
    rng = random.Random(20260810)
    t0 = time.perf_counter()
    dominated, bounded = True, True
    for _ in range(1000):
        capacity = rng.randint(10, 200)
        sizes = [rng.randint(1, capacity) for _ in range(rng.randint(0, 8))]
        rs = [Request(f"r{i}", size) for i, size in enumerate(sizes)]
        ffd = pack_ffd(sizes, capacity)
        exact = pack_exact(rs, capacity).required_nodes
        dominated = dominated and ffd >= exact
        bounded = bounded and ffd_bound_holds(ffd, exact)
    elapsed = time.perf_counter() - t0

    worked = [Request(f"w{i}", size) for i, size in enumerate([3, 3, 2, 2, 2])]
    ffd_worked = pack_ffd([3, 3, 2, 2, 2], 5)
    exact_worked = pack_exact(worked, 5).required_nodes

    assert_clauses("4", [
        ("ffd >= exact on 1000 random instances", dominated),
        ("ffd <= (11/9) exact + 1 on 1000 random instances", bounded),
        (f"worked instance {{3,3,2,2,2}}/5 -> ffd {ffd_worked} == exact {exact_worked} == 3",
         ffd_worked == 3 and exact_worked == 3),
        (f"runtime {elapsed:.2f}s < 5s", elapsed < 5.0),
    ])


def test_criterion_5_replica_formula_oracle():
    rng = random.Random(55)
    mismatches = 0
    for _ in range(10_000):
        peak = rng.randint(0, 8000)
        request = rng.randint(50, 500)
        r_min = rng.randint(1, 10)
        policy = Policy("P", "pool", r_min, 0.5, 0.5)
        plan = plan_replicas(peak, request, policy)
        oracle = ceiling_oracle(peak, request)
        if plan.raw_replicas != oracle or plan.planned_replicas != max(oracle, r_min):
            mismatches += 1
    assert_clauses("5", [
        (f"{mismatches} mismatches over 10,000 random triples", mismatches == 0),
    ])


def test_criterion_6_forecaster_exactness():
    trace = build_trace("web", heartbeat_phases(), 2, 1)
    exact = True
    for now in (240, 480):
        history = [float(d) for d in trace.demand[:now]]
        peak = forecast(SeasonalPeak(period=240, quantile=0.95), history, now, 240)
        realized = max(trace.demand[now:now + 240])
        exact = exact and peak == realized

    rng = random.Random(66)
    fixed_point = True
    attenuated = True
    for _ in range(50):
        level = float(rng.randint(1, 2000))
        n = rng.randint(2, 300)
        half_life = rng.randint(1, 60)
        constant = [level] * n
        fixed_point = fixed_point and all(
            v == level for v in smoothed_history(constant, half_life)
        )
        spike_at = rng.randrange(1, n)
        spiky = [level + (1000.0 if t == spike_at else 0.0) for t in range(n)]
        smoothed_max = max(smoothed_history(spiky, half_life + 1))
        attenuated = attenuated and smoothed_max < level + 1000.0

    assert_clauses("6", [
        ("seasonal forecaster hits each post-first-cycle peak exactly", exact),
        ("smoothing fixed point on constant traces", fixed_point),
        ("smoothing strictly attenuates single-sample spikes", attenuated),
    ])


def test_criterion_7_run_determinism(tmp_path):
    clauses = []
    for name in ("heartbeat-mas", "heartbeat-hpa", "flash-sale-mas", "flash-sale-hpa"):
        config = load_scenario(FIXTURES / f"{name}.scn")
        dirs = [tmp_path / f"{name}-{i}" for i in (1, 2)]
        for d in dirs:
            run_scenario(config, out_dir=d)
        identical = all(
            (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
            for f in ("events.log", "decisions.log", "metrics.csv")
        )
        clauses.append((f"{name}: byte-identical outputs", identical))
    assert_clauses("7", clauses)


def test_criterion_8_live_invariant_suite(runs):
    clauses = []
    for name, (result, _) in runs.items():
        clauses.append((
            f"{name}: {result.checks_run} checks, zero violations",
            result.checks_run == len(result.event_lines) and result.checks_run > 0,
        ))
    assert_clauses("8", clauses)


def test_criterion_9_cost_ordering():
    base = load_scenario(FIXTURES / "heartbeat-mas.scn")
    runs_by_policy = {}
    for policy_name in ("COST_SAVING", "PERFORMANCE"):
        schedule = replace(base.schedule, entries=[], default_policy=policy_name)
        pools = [
            replace(spec, initial_nodes=1 if spec.pool_id == base.policies[policy_name].pool else 0)
            for spec in base.pools
        ]
        config = replace(base, schedule=schedule, pools=pools,
                         scenario_id=f"heartbeat-pinned-{policy_name.lower()}")
        runs_by_policy[policy_name] = run_scenario(config)
    cheap = runs_by_policy["COST_SAVING"].summary.total_node_cost
    pricey = runs_by_policy["PERFORMANCE"].summary.total_node_cost
    assert_clauses("9", [
        (f"PERFORMANCE node cost {pricey} > COST_SAVING node cost {cheap}", pricey > cheap),
    ])
