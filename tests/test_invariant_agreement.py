"""Agreement of the incremental invariant check with the full recount and
with an oracle that shares no code with the checker.

Each run here checks every event three times: the runner's own checker looks
at the objects the event touched, a fresh checker recounts the whole state,
recomputing every count the engine keeps from its definition, and
`oracles.cluster_violations_scan` scans every pod and node. All three must
pass after every event of the fixtures, their `--controller hpa_ca`
overrides, the benchmark workloads at seed 1 and the randomized scenarios of
test_fuzz. The oracle flags every corruption the checker's negative controls
make.
"""

import random
from dataclasses import replace
from pathlib import Path

import pytest

from scalesim.invariants import InvariantChecker
from scalesim.runner import run_scenario
from scalesim.scenario import load_scenario, parse_scenario_text

from oracles import cluster_violations_scan
from test_fuzz import random_scenario
from test_golden_artifacts import _bench_workloads
from test_invariants import CORRUPTIONS, small_cluster

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def recount_every_event(monkeypatch):
    """Make every check also a full recount by a fresh checker and a scan by
    the oracle; returns the list of recounts made."""
    check = InvariantChecker.check
    recounts = []

    def check_and_recount(self, state, desired=None):
        check(self, state, desired)
        InvariantChecker(self.workload_id).recount(state, desired)
        assert cluster_violations_scan(state, self.workload_id, desired) == []
        recounts.append(state.now)

    monkeypatch.setattr(InvariantChecker, "check", check_and_recount)
    return recounts


def _run_agreeing(config, recounts):
    result = run_scenario(config)
    assert result.checks_run == len(result.event_lines) == len(recounts)
    recounts.clear()


@pytest.mark.parametrize("name", ["heartbeat-mas", "heartbeat-hpa",
                                  "flash-sale-mas", "flash-sale-hpa"])
def test_fixtures_agree(recount_every_event, name):
    _run_agreeing(load_scenario(FIXTURES / f"{name}.scn"), recount_every_event)


@pytest.mark.parametrize("name", ["heartbeat-mas", "flash-sale-mas"])
def test_override_runs_agree(recount_every_event, name):
    config = replace(load_scenario(FIXTURES / f"{name}.scn"), controller="hpa_ca")
    _run_agreeing(config, recount_every_event)


@pytest.mark.parametrize("name", ["mas-seasonal", "hpa-wide", "mas-migrate", "hpa-long"])
def test_bench_workloads_agree(recount_every_event, name):
    config = parse_scenario_text(_bench_workloads()[name].generate(1), f"{name}-1")
    _run_agreeing(config, recount_every_event)


def test_fuzz_scenarios_agree(recount_every_event):
    # The same scenarios, in the same order, as
    # test_fuzz.test_randomized_scenarios_hold_all_invariants.
    rng = random.Random(0xC1D5)
    for i in range(25):
        for controller in ("hpa_ca", "mas_h2"):
            config = parse_scenario_text(random_scenario(rng, controller),
                                         f"fuzz-{controller}-{i}")
            _run_agreeing(config, recount_every_event)


@pytest.mark.parametrize("corrupt, prop", CORRUPTIONS)
def test_the_oracle_flags_every_corruption(corrupt, prop):
    state, *objects = small_cluster()
    corrupt(state, *objects)
    assert any(v.startswith(f"{prop}:") for v in cluster_violations_scan(state, "web", 3))
