"""Scenario parsing, validation, and defaulting."""

import ast
import math
import re
from dataclasses import MISSING, replace
from fractions import Fraction
from pathlib import Path

import pytest

from scalesim.control import HpaConfig, MasConfig, StrategicSchedule
from scalesim.errors import ConfigError, ScenarioError
from scalesim.knobs import declared
from scalesim.metrics import Normalizers
from scalesim.planning import Policy
from scalesim.runner import OUTPUT_FILES, run_scenario
from scalesim.scenario import (
    _SECTIONS,
    KNOBS,
    PoolSpec,
    ScenarioConfig,
    load_scenario,
    parse_scenario_text,
)
from scalesim.workload import WorkloadPhase

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "scenarios"
DOC = ROOT / "docs" / "scenario-format.md"


class TestFixtures:
    def test_heartbeat_mas_fixture_loads(self):
        config = load_scenario(FIXTURES / "heartbeat-mas.scn")
        assert config.workload == "heartbeat"
        assert config.controller == "mas_h2"
        assert config.mas.forecaster == "seasonal_peak"
        assert sorted(config.policies) == ["COST_SAVING", "PERFORMANCE"]
        assert [p.pool_id for p in config.pools] == ["staging", "performance"]
        assert config.schedule.entries == [(450, "PERFORMANCE")]
        assert config.schedule.active_at(0) == "COST_SAVING"
        assert config.schedule.active_at(450) == "PERFORMANCE"

    @pytest.mark.parametrize("name", [
        "heartbeat-mas", "heartbeat-hpa", "flash-sale-mas", "flash-sale-hpa",
    ])
    def test_all_fixtures_valid(self, name):
        config = load_scenario(FIXTURES / f"{name}.scn")
        assert config.pod_request == 250
        assert config.vu_cost == 2
        assert config.seed == 7

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(FIXTURES / "nope.scn")


class TestParsing:
    def test_minimal_file_gets_defaults(self):
        config = parse_scenario_text(
            "workload = heartbeat\ncontroller = hpa_ca\n", "mini"
        )
        assert config.seed == 1
        assert config.pod_request == 250
        assert config.vu_cost == 2.0
        assert [p.pool_id for p in config.pools] == ["baseline"]
        assert config.hpa.pool == "baseline"
        assert float(config.hpa.target_utilization) == 0.8
        assert sorted(config.policies) == ["BASELINE"]
        assert config.sampling_interval == 5

    def test_minimal_mas_defaults(self):
        config = parse_scenario_text(
            "workload = heartbeat\ncontroller = mas_h2\n", "mini"
        )
        assert [p.pool_id for p in config.pools] == ["staging", "performance"]
        assert config.policies["COST_SAVING"].min_replicas == 1
        assert config.policies["PERFORMANCE"].pool == "performance"
        assert {p.pool_id: p.capacity for p in config.pools}["performance"] == 2000
        assert config.mas.control_interval == 300

    def test_unknown_field_rejected_with_line(self):
        text = "workload = heartbeat\ncontroller = hpa_ca\nturbo_mode = yes\n"
        with pytest.raises(ScenarioError, match=r"line 3.*turbo_mode"):
            parse_scenario_text(text, "x")

    def test_undefined_policy_in_schedule_named(self):
        text = (
            "workload = heartbeat\n"
            "controller = mas_h2\n"
            "schedule.at.100 = TURBO\n"
        )
        with pytest.raises(ScenarioError, match=r"line 3.*schedule.at.100.*TURBO"):
            parse_scenario_text(text, "x")

    def test_undefined_pool_in_policy_named(self):
        text = (
            "workload = heartbeat\n"
            "controller = mas_h2\n"
            "policy.FAST.pool = warp\n"
        )
        with pytest.raises(ScenarioError, match=r"policy.FAST.pool.*warp"):
            parse_scenario_text(text, "x")

    def test_syntax_error_names_line(self):
        with pytest.raises(ScenarioError, match="line 2"):
            parse_scenario_text("workload = heartbeat\nnot a pair\n", "x")

    def test_duplicate_key_rejected(self):
        text = "workload = heartbeat\nworkload = flash_sale\ncontroller = hpa_ca\n"
        with pytest.raises(ScenarioError, match="duplicate key"):
            parse_scenario_text(text, "x")

    def test_bad_number_names_field(self):
        text = "workload = heartbeat\ncontroller = hpa_ca\nseed = banana\n"
        with pytest.raises(ScenarioError, match=r"seed.*banana"):
            parse_scenario_text(text, "x")

    def test_unknown_workload_value(self):
        with pytest.raises(ScenarioError, match="workload"):
            parse_scenario_text("workload = sine\ncontroller = hpa_ca\n", "x")

    def test_unknown_controller_value(self):
        with pytest.raises(ScenarioError, match="controller"):
            parse_scenario_text("workload = heartbeat\ncontroller = magic\n", "x")

    def test_comments_and_blanks_ignored(self):
        text = (
            "# a scenario\n"
            "\n"
            "workload = heartbeat   # inline comment\n"
            "controller = hpa_ca\n"
        )
        config = parse_scenario_text(text, "x")
        assert config.workload == "heartbeat"


# Knob class -> (the scenario key of a knob, a build of the class with that
# knob out of range).
_OUT_OF_RANGE = {
    ScenarioConfig: ("sampling_interval",
                     lambda: ScenarioConfig("s", "heartbeat", "mas_h2", sampling_interval=0)),
    Normalizers: ("cost_scale", lambda: Normalizers(cost_scale=0)),
    MasConfig: ("mas.control_interval", lambda: MasConfig(control_interval=0)),
    HpaConfig: ("hpa.saturation_ceiling", lambda: HpaConfig(saturation_ceiling=Fraction(1, 2))),
    PoolSpec: ("pool.p.provisioning_delay", lambda: PoolSpec("p", provisioning_delay=-5)),
    Policy: ("policy.P.min_replicas", lambda: Policy("P", "p", min_replicas=0)),
    WorkloadPhase: ("phase.b.duration", lambda: WorkloadPhase("b", -50, 10)),
}


class TestValidation:
    @pytest.mark.parametrize("cls", [cls for classes in _SECTIONS.values() for cls in classes],
                             ids=lambda cls: cls.__name__)
    def test_knob_class_checks_its_range(self, cls):
        # Built in code, not parsed: the class itself names the knob by its
        # full scenario key.
        key, build = _OUT_OF_RANGE[cls]
        with pytest.raises(ConfigError, match=rf"^field '{re.escape(key)}': ") as caught:
            build()
        assert caught.value.keys == (key,)

    def test_pod_request_exceeding_capacity(self):
        text = (
            "workload = heartbeat\n"
            "controller = hpa_ca\n"
            "pod_request = 1500\n"
            "pool.baseline.capacity = 1000\n"
        )
        with pytest.raises(ScenarioError, match="pod_request"):
            parse_scenario_text(text, "x")

    def test_schedule_entries_require_mas(self):
        text = (
            "workload = heartbeat\n"
            "controller = hpa_ca\n"
            "policy.A.pool = baseline\n"
            "schedule.default = A\n"
            "schedule.at.100 = A\n"
        )
        with pytest.raises(ScenarioError, match="mas_h2"):
            parse_scenario_text(text, "x")

    def test_custom_workload_requires_phases(self):
        with pytest.raises(ScenarioError, match="phase"):
            parse_scenario_text("workload = custom\ncontroller = hpa_ca\n", "x")

    def test_custom_workload_without_phases_names_field_and_line(self):
        with pytest.raises(ScenarioError, match=r"^line 2: field 'workload': custom requires phase"):
            parse_scenario_text("controller = hpa_ca\nworkload = custom\n", "x")

    def test_mas_on_custom_pools_without_policies_names_field_and_line(self):
        text = (
            "workload = heartbeat\n"
            "controller = mas_h2\n"
            "pool.small.capacity = 4000\n"
            "pool.large.capacity = 8000\n"
        )
        with pytest.raises(
            ScenarioError, match=r"^line 3: field 'pool\.small\.capacity': policy\.\* entries are required"
        ):
            parse_scenario_text(text, "x")

    def test_schedule_entries_without_mas_name_first_entry_and_line(self):
        text = (
            "workload = heartbeat\n"
            "policy.A.pool = baseline\n"
            "schedule.at.300 = A\n"
            "schedule.at.100 = A\n"
            "controller = hpa_ca\n"
        )
        with pytest.raises(
            ScenarioError,
            match=r"^line 3: field 'schedule\.at\.300': schedule\.at entries require controller = mas_h2",
        ):
            parse_scenario_text(text, "x")

    def test_phase_entries_without_custom_name_first_key_and_line(self):
        text = (
            "workload = heartbeat\n"
            "controller = hpa_ca\n"
            "phase.2.duration = 60\n"
            "phase.1.duration = 60\n"
            "phase.1.target_vus = 10\n"
        )
        with pytest.raises(
            ScenarioError,
            match=r"^line 3: field 'phase\.2\.duration': phase\.N\.\* entries are only valid",
        ):
            parse_scenario_text(text, "x")

    def test_phases_only_for_custom(self):
        text = (
            "workload = heartbeat\n"
            "controller = hpa_ca\n"
            "phase.1.duration = 10\n"
            "phase.1.target_vus = 5\n"
        )
        with pytest.raises(ScenarioError, match="custom"):
            parse_scenario_text(text, "x")

    def test_custom_phases_built_in_order(self):
        text = (
            "workload = custom\n"
            "controller = hpa_ca\n"
            "phase.2.duration = 20\n"
            "phase.2.target_vus = 50\n"
            "phase.2.ramp = step\n"
            "phase.1.duration = 10\n"
            "phase.1.target_vus = 5\n"
        )
        config = parse_scenario_text(text, "x")
        assert [(p.duration, p.target_vus) for p in config.phases] == [
            (10, 5), (20, 50),
        ]
        trace = config.build_trace()
        assert trace.duration == 30

    def test_duration_shorter_than_trace(self):
        text = "workload = heartbeat\ncontroller = hpa_ca\nduration = 100\n"
        with pytest.raises(ScenarioError, match="duration"):
            parse_scenario_text(text, "x")

    def test_noise_amplitude_bounds(self):
        text = "workload = heartbeat\ncontroller = hpa_ca\nnoise_amplitude = 1.5\n"
        with pytest.raises(ScenarioError, match="noise_amplitude"):
            parse_scenario_text(text, "x")

    def test_other_request_must_fit_every_policy_pool(self):
        # 1500m fits the performance pool, but the node planner packs every
        # unmanaged pod into the active policy's pool: staging's 1000m nodes.
        text = (FIXTURES / "heartbeat-mas.scn").read_text() + "other.big = 1500\n"
        line = text.count("\n")
        with pytest.raises(
            ScenarioError,
            match=rf"^line {line}: field 'other\.big': 1500m exceeds 'pool\.staging\.capacity'",
        ):
            parse_scenario_text(text, "x")

    def test_other_owner_collision(self):
        text = (
            "workload = heartbeat\n"
            "controller = hpa_ca\n"
            "other.web = 250\n"
        )
        with pytest.raises(ScenarioError, match="web"):
            parse_scenario_text(text, "x")

    def test_other_owner_named_like_a_managed_pod_names_field_and_line(self):
        # An unmanaged pod's id is its owner; web-p1 is the id the first
        # managed web replica gets, so the run would stop on a duplicate id.
        for owner in ("web-p1", "web-p12"):
            text = f"workload = heartbeat\ncontroller = hpa_ca\nother.{owner} = 100\n"
            with pytest.raises(ScenarioError, match=rf"^line 3: field 'other\.{owner}'"):
                parse_scenario_text(text, "x")
        for owner in ("web-proxy", "web-p0", "api-p1"):
            text = f"workload = heartbeat\ncontroller = hpa_ca\nother.{owner} = 100\n"
            assert parse_scenario_text(text, "x").other_requests == {owner: 100}

    def test_hpa_min_above_max_names_field_and_line(self):
        text = (
            "workload = heartbeat\n"
            "controller = hpa_ca\n"
            "hpa.max_replicas = 3\n"
            "hpa.min_replicas = 5\n"
        )
        with pytest.raises(ScenarioError, match=r"line 4: field 'hpa.min_replicas'"):
            parse_scenario_text(text, "x")

    def test_saturation_ceiling_must_exceed_target(self):
        text = (
            "workload = heartbeat\n"
            "controller = hpa_ca\n"
            "hpa.target_utilization = 1\n"
            "hpa.saturation_ceiling = 1\n"
        )
        with pytest.raises(ScenarioError, match=r"line 4: field 'hpa.saturation_ceiling'"):
            parse_scenario_text(text, "x")

    def test_hpa_pool_must_fit_pod_request(self):
        text = (
            "workload = heartbeat\n"
            "controller = hpa_ca\n"
            "pool.big.capacity = 1000\n"
            "pool.tiny.capacity = 100\n"
            "hpa.pool = tiny\n"
        )
        with pytest.raises(ScenarioError, match=r"line 4: field 'pod_request'.*pool.tiny"):
            parse_scenario_text(text, "x")

    def test_hpa_pool_resolved_for_every_controller(self):
        config = parse_scenario_text("workload = heartbeat\ncontroller = mas_h2\n", "x")
        assert config.hpa.pool == "staging"

    def test_schedule_time_before_run_rejected(self):
        text = "workload = heartbeat\ncontroller = mas_h2\nschedule.at.-5 = PERFORMANCE\n"
        with pytest.raises(ScenarioError, match=r"line 3: field 'schedule.at.-5'"):
            parse_scenario_text(text, "x")

    def test_missing_phase_field_named(self):
        text = "workload = custom\ncontroller = hpa_ca\nphase.1.duration = 10\n"
        with pytest.raises(ScenarioError, match=r"line 3: missing required field 'phase.1.tar"):
            parse_scenario_text(text, "x")

    @pytest.mark.parametrize("text, field, line", [
        ("workload = custom\ncontroller = hpa_ca\nphase.1.duration = 60\n"
         "phase.1.target_vus = 5\nphase.01.target_vus = 500\n", "phase.01.target_vus", 5),
        ("workload = heartbeat\ncontroller = mas_h2\nschedule.at.100 = COST_SAVING\n"
         "schedule.at.0100 = PERFORMANCE\n", "schedule.at.0100", 4),
        ("workload = heartbeat\ncontroller = mas_h2\nschedule.at.+100 = PERFORMANCE\n",
         "schedule.at.+100", 3),
    ])
    def test_numbers_in_keys_are_written_one_way(self, text, field, line):
        # Two spellings of one number would otherwise name the same phase
        # (the later line silently winning) or the same switch time.
        with pytest.raises(ScenarioError, match=rf"line {line}: field '{re.escape(field)}'"):
            parse_scenario_text(text, "x")

    def test_non_finite_float_rejected(self):
        text = "workload = heartbeat\ncontroller = hpa_ca\nvu_cost = inf\n"
        with pytest.raises(ScenarioError, match=r"line 3: field 'vu_cost'"):
            parse_scenario_text(text, "x")

    def test_policy_weights_validated(self):
        text = (
            "workload = heartbeat\n"
            "controller = mas_h2\n"
            "policy.BAD.pool = staging\n"
            "policy.BAD.w_perf = 0.9\n"
            "policy.BAD.w_cost = 0.9\n"
        )
        with pytest.raises(ScenarioError, match="BAD"):
            parse_scenario_text(text, "x")


def _artifacts(config, out: Path) -> dict[str, bytes]:
    run_scenario(config, out_dir=out)
    return {name: (out / name).read_bytes() for name in OUTPUT_FILES}


# Scenario key -> a replace(...) of the flash-sale-mas fixture that breaks a
# rule tying that key to others.
_BROKEN_REPLACES = {
    "pod_request": lambda c: replace(c, pod_request=5000),
    "pool.staging": lambda c: replace(c, pools=[*c.pools, PoolSpec("staging", capacity=4000)]),
    "policy.PERFORMANCE.pool": lambda c: replace(
        c, pools=[p for p in c.pools if p.pool_id != "performance"]),
    "other.web": lambda c: replace(c, other_requests={"web": 100}),
    "other.web-p1": lambda c: replace(c, other_requests={"web-p1": 100}),
    "duration": lambda c: replace(c, duration=100),
    "hpa.min_replicas": lambda c: replace(c, hpa=replace(c.hpa, min_replicas=5, max_replicas=3)),
    # Each of these once built, then died at run time: the switch was
    # enqueued in the past, or FFD met an item of size 0.
    "schedule.at.-5": lambda c: replace(
        c, schedule=StrategicSchedule("COST_SAVING", [(-5, "PERFORMANCE")])),
    "schedule.at.450": lambda c: replace(
        c, schedule=StrategicSchedule("COST_SAVING", [(450, "PERFORMANCE"), (450, "COST_SAVING")])),
    "other.x": lambda c: replace(c, other_requests={"x": 0}),
}


class TestBuiltInCode:
    """A config built or replaced in code gets the defaults and the checks of
    a parsed one."""

    @pytest.mark.parametrize("workload", ["heartbeat", "flash_sale"])
    @pytest.mark.parametrize("controller", ["mas_h2", "hpa_ca"])
    def test_built_config_equals_parsed_file_and_runs_alike(self, tmp_path, workload, controller):
        built = ScenarioConfig("mini", workload, controller)
        parsed = parse_scenario_text(f"workload = {workload}\ncontroller = {controller}\n", "mini")
        assert built == parsed
        assert _artifacts(built, tmp_path / "built") == _artifacts(parsed, tmp_path / "parsed")

    def test_unset_noise_amplitude_is_the_workloads_default(self, tmp_path):
        fixture = load_scenario(FIXTURES / "flash-sale-mas.scn")
        assert fixture.noise_amplitude == 0.10
        unset = replace(fixture, noise_amplitude=None)
        assert unset == fixture
        assert _artifacts(unset, tmp_path / "unset") == _artifacts(fixture, tmp_path / "fixture")

    @pytest.mark.parametrize("key", sorted(_BROKEN_REPLACES))
    def test_broken_replace_fails_when_built_naming_the_field(self, key):
        fixture = load_scenario(FIXTURES / "flash-sale-mas.scn")
        with pytest.raises(ValueError, match=rf"^field '{re.escape(key)}'"):
            _BROKEN_REPLACES[key](fixture)


_H = "workload = heartbeat\ncontroller = hpa_ca\n"
_M = "workload = heartbeat\ncontroller = mas_h2\n"
_C = "workload = custom\ncontroller = hpa_ca\n"

# Case -> (scenario text, the exact text of its rejection): every rejection a
# parsed file can reach, from the entry-level errors through the value errors
# and the file rules to each rule that ties knobs together.
_PARSED_REJECTIONS = {
    "syntax": ("workload = heartbeat\nnot a pair\n",
               "line 2: expected 'key = value', got 'not a pair'"),
    "empty-value": ("workload = heartbeat\nseed =\n", "line 2: empty key or value in 'seed ='"),
    "duplicate-key": ("workload = heartbeat\nworkload = flash_sale\ncontroller = hpa_ca\n",
                      "line 2: duplicate key 'workload' (first set on line 1)"),
    "unknown-field": (_H + "turbo_mode = yes\n", "line 3: unknown field 'turbo_mode'"),
    "unknown-grouped-field": (_H + "pool.a.speed = 3\n", "line 3: unknown field 'pool.a.speed'"),
    "missing-top-field": ("workload = heartbeat\n", "line 1: missing required field 'controller'"),
    "missing-phase-field": (_C + "phase.1.duration = 10\n",
                            "line 3: missing required field 'phase.1.target_vus'"),
    "unparsable-int": (_H + "seed = banana\n", "line 3: field 'seed': cannot parse 'banana' as int"),
    "unparsable-bool": (
        _C + "phase.1.duration = 10\nphase.1.target_vus = 5\nphase.1.noisy = maybe\n",
        "line 5: field 'phase.1.noisy': cannot parse 'maybe' as bool"),
    "unparsable-fraction": (
        _H + "hpa.target_utilization = 1/0\n",
        "line 3: field 'hpa.target_utilization': cannot parse '1/0' as Fraction"),
    "non-finite-float": (_H + "vu_cost = inf\n",
                         "line 3: field 'vu_cost': 'inf' is not a finite number"),
    "unparsable-switch-time": (_M + "schedule.at.soon = PERFORMANCE\n",
                               "line 3: field 'schedule.at.soon': cannot parse 'soon' as int"),
    "switch-time-spelling": (_M + "schedule.at.+100 = PERFORMANCE\n",
                             "line 3: field 'schedule.at.+100': write '+100' as '100'"),
    "phase-number-spelling": (
        _C + "phase.1.duration = 60\nphase.1.target_vus = 5\nphase.01.target_vus = 500\n",
        "line 5: field 'phase.01.target_vus': write '01' as '1'"),
    "out-of-range": (_H + "noise_amplitude = 1.5\n",
                     "line 3: field 'noise_amplitude': 1.5 is out of range: must be >= 0 and < 1"),
    "zero-pod-request": (_H + "pod_request = 0\n",
                         "line 3: field 'pod_request': 0 is out of range: must be > 0"),
    "not-a-choice": (
        "workload = sine\ncontroller = hpa_ca\n",
        "line 1: field 'workload': 'sine' is not one of heartbeat, flash_sale, custom"),
    "other-out-of-range": (_H + "other.x = 0\n",
                           "line 3: field 'other.x': 0 is out of range: must be > 0"),
    "not-a-choice-beside-a-switch": (
        "workload = heartbeat\ncontroller = magic\nschedule.at.5 = A\n",
        "line 2: field 'controller': 'magic' is not one of mas_h2, hpa_ca"),
    "not-a-choice-beside-phases": (
        "workload = sine\ncontroller = hpa_ca\nphase.1.duration = 60\nphase.1.target_vus = 10\n",
        "line 1: field 'workload': 'sine' is not one of heartbeat, flash_sale, custom"),
    "schedule-without-mas": (
        "workload = heartbeat\npolicy.A.pool = baseline\nschedule.at.300 = A\n"
        "schedule.at.100 = A\ncontroller = hpa_ca\n",
        "line 3: field 'schedule.at.300': schedule.at entries require controller = mas_h2"),
    "phases-without-custom": (
        _H + "phase.2.duration = 60\nphase.1.duration = 60\nphase.1.target_vus = 10\n",
        "line 3: field 'phase.2.duration': phase.N.* entries are only valid for workload = custom"),
    "custom-pools-without-policies": (
        _M + "pool.small.capacity = 4000\npool.large.capacity = 8000\n",
        "line 3: field 'pool.small.capacity': policy.* entries are required when mas_h2 runs "
        "on custom pools"),
    "custom-without-phases": ("controller = hpa_ca\nworkload = custom\n",
                              "line 2: field 'workload': custom requires phase.N.* entries"),
    "undefined-policy-pool": (_M + "policy.FAST.pool = warp\n",
                              "line 3: field 'policy.FAST.pool': undefined pool 'warp'"),
    "undefined-default-policy": (_M + "schedule.default = TURBO\n",
                                 "line 3: field 'schedule.default': undefined policy 'TURBO'"),
    "undefined-switch-policy": (_M + "schedule.at.100 = TURBO\n",
                                "line 3: field 'schedule.at.100': undefined policy 'TURBO'"),
    "switch-before-run": (_M + "schedule.at.-5 = PERFORMANCE\n",
                          "line 3: field 'schedule.at.-5': switch time -5 is before the run"),
    "undefined-hpa-pool": (_H + "hpa.pool = warp\n",
                           "line 3: field 'hpa.pool': undefined pool 'warp'"),
    "hpa-min-above-max": (_H + "hpa.max_replicas = 3\nhpa.min_replicas = 5\n",
                          "line 4: field 'hpa.min_replicas': 5 exceeds hpa.max_replicas (3)"),
    "saturation-below-target": (
        _H + "hpa.target_utilization = 1\nhpa.saturation_ceiling = 1\n",
        "line 4: field 'hpa.saturation_ceiling': 1 must exceed hpa.target_utilization (1), "
        "or the HPA never scales up"),
    "weights-off-one": (
        _M + "policy.BAD.pool = staging\npolicy.BAD.w_perf = 0.9\npolicy.BAD.w_cost = 0.9\n",
        "line 4: field 'policy.BAD.w_perf': policy BAD: weights must sum to 1"),
    "pod-request-over-capacity": (
        _H + "pod_request = 1500\n",
        "line 3: field 'pod_request': 1500m exceeds 'pool.baseline.capacity' (1000m)"),
    "pod-request-over-hpa-pool": (
        _H + "pool.big.capacity = 1000\npool.tiny.capacity = 100\nhpa.pool = tiny\n",
        "line 4: field 'pod_request': 250m exceeds 'pool.tiny.capacity' (100m)"),
    "other-over-capacity": (
        _M + "other.big = 1500\n",
        "line 3: field 'other.big': 1500m exceeds 'pool.staging.capacity' (1000m)"),
    "other-is-workload": (_H + "other.web = 250\n",
                          "line 3: field 'other.web': owner collides with managed workload id"),
    "other-is-managed-pod": (
        _H + "other.web-p1 = 100\n",
        "line 3: field 'other.web-p1': owner collides with the id of a managed 'web' pod"),
    "trace-overflows-vu-cost": (
        _H + "vu_cost = 1e308\n",
        "line 3: field 'vu_cost': the demand trace, VUs times vu_cost millicores, "
        "overflows a float"),
    "trace-overflows-target": (
        _C + "phase.1.duration = 10\nphase.1.target_vus = " + "9" * 401 + "\n",
        "line 4: field 'phase.1.target_vus': the demand trace, VUs times vu_cost millicores, "
        "overflows a float"),
    "duration-below-trace": (
        _H + "duration = 100\n",
        "line 3: field 'duration': 100 is shorter than the workload trace (780s)"),
}

# Case -> (a config built in code, or a replace(...) of the flash-sale-mas
# fixture, that breaks a rule; the exact message and keys of its ConfigError).
_BUILT_REJECTIONS = {
    "duplicate-pool-id": (
        lambda c: replace(c, pools=[*c.pools, PoolSpec("staging", capacity=4000)]),
        "field 'pool.staging': pool id defined twice", ("pool.staging",)),
    "repeated-switch-time": (
        lambda c: StrategicSchedule("COST_SAVING", [(450, "PERFORMANCE"), (450, "COST_SAVING")]),
        "field 'schedule.at.450': switch time 450 is given twice", ("schedule.at.450",)),
    "hpa-min-above-max": (
        lambda c: HpaConfig(min_replicas=5, max_replicas=3),
        "field 'hpa.min_replicas': 5 exceeds hpa.max_replicas (3)",
        ("hpa.min_replicas", "hpa.max_replicas")),
    "weights-off-one": (
        lambda c: Policy("BAD", "staging", w_perf=0.9, w_cost=0.9),
        "field 'policy.BAD.w_perf': policy BAD: weights must sum to 1",
        ("policy.BAD.w_perf", "policy.BAD.w_cost")),
    "duration-below-trace": (
        lambda c: replace(c, duration=100),
        "field 'duration': 100 is shorter than the workload trace (900s)", ("duration",)),
    "other-out-of-range": (
        lambda c: replace(c, other_requests={"x": 0}),
        "field 'other.x': 0 is out of range: must be > 0", ("other.x",)),
    "pool-knob-out-of-range": (
        lambda c: replace(c, pools=[replace(c.pools[0], capacity=0), c.pools[1]]),
        "field 'pool.staging.capacity': 0 is out of range: must be > 0",
        ("pool.staging.capacity",)),
    "non-finite-vu-cost": (
        lambda c: replace(c, vu_cost=float("inf")),
        "field 'vu_cost': 'inf' is not a finite number", ("vu_cost",)),
}


class TestRejections:
    """The exact text of every rejection, and the line a parsed file reports."""

    @pytest.mark.parametrize("case", list(_PARSED_REJECTIONS))
    def test_parsed_rejection_text_and_line(self, case):
        text, message = _PARSED_REJECTIONS[case]
        with pytest.raises(ScenarioError) as caught:
            parse_scenario_text(text, "x")
        assert str(caught.value) == message
        assert caught.value.line == int(message.split(":")[0].removeprefix("line "))

    @pytest.mark.parametrize("case", list(_BUILT_REJECTIONS))
    def test_built_rejection_message_and_keys(self, case):
        build, message, keys = _BUILT_REJECTIONS[case]
        fixture = load_scenario(FIXTURES / "flash-sale-mas.scn")
        with pytest.raises(ConfigError) as caught:
            build(fixture)
        assert (str(caught.value), caught.value.keys) == (message, keys)

    def test_only_config_error_writes_the_field_prefix(self):
        # Every "field '<key>': ..." message comes from ConfigError, so no
        # other module types the prefix. An f-string is read with "{" for
        # each replacement field.
        offenders = []
        for path in sorted((ROOT / "src" / "scalesim").glob("*.py")):
            if path.name == "errors.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.JoinedStr):
                    text = "".join(v.value if isinstance(v, ast.Constant) else "{"
                                   for v in node.values)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    text = node.value
                else:
                    continue
                if re.match(r"fields? ['{]", text):
                    offenders.append(f"{path.name}:{node.lineno}: {text}")
        assert offenders == []


# A valid scenario that sets a group in every grouped section, as key -> value.
_BASE = {
    "workload": "custom",
    "controller": "hpa_ca",
    "phase.1.duration": "60",
    "phase.1.target_vus": "10",
    "policy.BASELINE.pool": "baseline",
}
_GROUPS = {"pool": "baseline", "policy": "BASELINE", "phase": "1", "other": "x"}


def _past_bounds():
    """(scenario key, value, its rejection) for every knob with a bound or
    choices: a value just past each bound, one that is no choice, and inf
    for a float knob."""
    for template, (typ, _, allowed) in KNOBS.items():
        section, *rest = template.split(".")
        key = ".".join([section, _GROUPS[section], *rest[1:]]) if rest[:1] == ["*"] else template
        values = ["bogus"] if allowed.choices is not None else []
        for side, step in (("ge", -1), ("gt", 0), ("le", 1), ("lt", 0)):
            bound = getattr(allowed, side)
            if bound is None:
                continue
            if step == 0 or typ is int:
                values.append(typ(bound) + step)
            elif typ is float:
                values.append(math.nextafter(float(bound), step * math.inf))
            else:
                values.append(typ(bound) + Fraction(step, 1000))
        for value in values:
            problem = allowed.problem(value)
            assert problem is not None, (key, value)
            yield pytest.param(key, value, f"field {key!r}: {problem}", id=f"{key}={value}")
        if typ is float:
            yield pytest.param(key, math.inf, f"field {key!r}: 'inf' is not a finite number",
                               id=f"{key}=inf")


def _set_in_code(config: ScenarioConfig, key: str, value) -> ScenarioConfig:
    """`config` with the knob `key` set to `value` by replace(...)."""
    section, _, name = key.rpartition(".")
    kw = {name: value}
    if section == "":
        if name in declared(Normalizers):
            return replace(config, normalizers=replace(config.normalizers, **kw))
        return replace(config, **kw)
    if section in ("mas", "hpa"):
        return replace(config, **{section: replace(getattr(config, section), **kw)})
    if section == "other":
        return replace(config, other_requests={name: value})
    group = section.split(".")[0]
    if group == "pool":
        return replace(config, pools=[replace(config.pools[0], **kw)])
    if group == "policy":
        return replace(config, policies={"BASELINE": replace(config.policies["BASELINE"], **kw)})
    return replace(config, phases=[replace(config.phases[0], **kw)])


class TestOneCheckPerKnob:
    """A knob's own check rejects a value the same way, naming its scenario
    key, whether the value comes from a file or from code."""

    @pytest.mark.parametrize("key, value, message", list(_past_bounds()))
    def test_parsed_value_past_its_bound(self, key, value, message):
        entries = {**_BASE, key: str(value)}
        line = list(entries).index(key) + 1
        with pytest.raises(ScenarioError) as caught:
            parse_scenario_text("".join(f"{k} = {v}\n" for k, v in entries.items()), "x")
        assert (str(caught.value), caught.value.line) == (f"line {line}: {message}", line)

    @pytest.mark.parametrize("key, value, message", list(_past_bounds()))
    def test_value_past_its_bound_set_in_code(self, key, value, message):
        config = parse_scenario_text("".join(f"{k} = {v}\n" for k, v in _BASE.items()), "x")
        with pytest.raises(ConfigError) as caught:
            _set_in_code(config, key, value)
        assert (str(caught.value), caught.value.keys) == (message, (key,))


class TestDocs:
    def test_annotated_example_parses_and_shows_every_knob(self):
        example = DOC.read_text().split("## Annotated example", 1)[1].split("```")[1]
        config = parse_scenario_text(example, "doc")
        assert config.schedule.entries == [(420, "PERFORMANCE")]
        for key in KNOBS:
            pattern = re.escape(key).replace(r"\*", r"[^.\s=]+")
            assert re.search(rf"^#?\s*{pattern}\s*=", example, re.M), key

    def test_knob_classes_named_are_the_declaring_classes(self):
        named = re.search(r"holds it \(([^)]*)\)", " ".join(DOC.read_text().split())).group(1)
        assert re.findall(r"`(\w+)`", named) == [
            cls.__name__ for classes in _SECTIONS.values() for cls in classes
        ]

    def test_knob_table_states_declared_defaults_and_ranges(self):
        rows = {
            cells[0].strip("`"): cells
            for cells in (
                [c.strip() for c in line.strip().strip("|").split("|")]
                for line in DOC.read_text().splitlines() if line.startswith("| `")
            )
        }
        assert set(rows) == set(KNOBS)
        for key, (typ, default, allowed) in KNOBS.items():
            _, _, doc_default, doc_range, _ = rows[key]
            assert doc_range == str(allowed), key
            if default is MISSING:
                assert doc_default == "required", key
            elif default in (None, ""):
                assert doc_default == "unset", key
            elif typ in (bool, str):
                assert doc_default == str(default), key
            else:
                assert typ(doc_default) == default, key
