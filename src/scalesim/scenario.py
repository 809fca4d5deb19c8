"""Scenario files: a flat key = value format with dotted groups.

Every key is a knob declared once, on the dataclass field that holds it, with
its type, default and allowed range (see knobs.py); KNOBS lists them all.
The parser reads, converts and range-checks each value and rejects unknown
keys. ScenarioConfig fills in the remaining defaults and checks the rules that
tie knobs together, so a config built or replaced in code gets them too. Every
error in a file names the offending field and line. See docs/scenario-format.md
for the annotated reference example.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, replace
from pathlib import Path

from .control import CONTROLLER_TYPES, HpaConfig, MasConfig, StrategicSchedule
from .engine import generated_pod_id
from .errors import ConfigError, ScenarioError
from .knobs import Range, check_knobs, declared, knob
from .metrics import MICRO, Normalizers
from .planning import Policy
from .workload import NAMED_WORKLOADS, DemandTrace, WorkloadPhase, build_trace

WORKLOADS = (*NAMED_WORKLOADS, "custom")
CONTROLLERS = tuple(CONTROLLER_TYPES)
# The largest cost rate whose micro-units are a finite float: a run rounds
# each rate times MICRO to an int, and no int holds infinity.
MAX_RATE = math.nextafter(sys.float_info.max / MICRO, 0)


@dataclass
class PoolSpec:
    pool_id: str
    machine_type: str = knob("e2-medium")
    capacity: int = knob(1000, gt=0)              # millicores per node
    cost_rate: float = knob(1.0, ge=0, le=MAX_RATE)   # currency units per node-second
    provisioning_delay: int = knob(120, ge=0)     # seconds from resize to Ready
    initial_nodes: int = knob(0, ge=0)

    def __post_init__(self) -> None:
        check_knobs(self)


@dataclass
class ScenarioConfig:
    scenario_id: str
    workload: str = knob(choices=WORKLOADS)
    controller: str = knob(choices=CONTROLLERS)
    seed: int = knob(1)
    vu_cost: float = knob(2.0, gt=0)
    noise_amplitude: float | None = knob(None, ge=0, lt=1)   # None -> workload's own default
    pod_request: int = knob(250, gt=0)
    workload_id: str = knob("web")
    pod_startup_delay: int = knob(10, ge=0)
    sampling_interval: int = knob(5, gt=0)
    duration: int | None = knob(None, gt=0)                  # None -> the trace's length
    initial_replicas: int | None = knob(None, ge=0)          # None -> the controller's floor
    pod_cost_rate: float = knob(0.1, ge=0, le=MAX_RATE)
    pools: list[PoolSpec] = field(default_factory=list)
    policies: dict[str, Policy] = field(default_factory=dict)
    schedule: StrategicSchedule = field(default_factory=StrategicSchedule)
    mas: MasConfig = field(default_factory=MasConfig)
    hpa: HpaConfig = field(default_factory=HpaConfig)
    other_requests: dict[str, int] = field(default_factory=dict)   # owner -> millicores
    normalizers: Normalizers = field(default_factory=Normalizers)
    phases: list[WorkloadPhase] = field(default_factory=list)

    def __post_init__(self) -> None:
        """Fill in what is left unset, then check the rules that tie knobs
        together, for a parsed config and one built in code alike."""
        check_knobs(self)
        if self.workload == "custom":
            if not self.phases:
                raise ConfigError("field 'workload': custom requires phase.N.* entries",
                                  "workload")
            default_amplitude = 0.0
        else:
            named_phases, default_amplitude = NAMED_WORKLOADS[self.workload]
            self.phases = self.phases or named_phases()
        if self.noise_amplitude is None:
            self.noise_amplitude = default_amplitude
        self.pools = self.pools or _default_pools(self.controller)
        self.policies = self.policies or _default_policies(self.controller, self.pools)
        if not self.schedule.default_policy:
            self.schedule = replace(self.schedule, default_policy=next(iter(self.policies)))
        # The baseline's pool is resolved for every controller, so a scenario
        # run with a controller override finds it too.
        if not self.hpa.pool:
            self.hpa = replace(self.hpa, pool=self.pools[0].pool_id)
        _check(self)

    def build_trace(self) -> DemandTrace:
        return build_trace(self.workload_id, self.phases, self.vu_cost, self.seed,
                           self.noise_amplitude)


# Key prefix -> the dataclasses that declare the knobs under it. "*" stands
# for a name the scenario picks: a pool id, a policy name, a phase number or
# the owner of an unmanaged pod.
_SECTIONS = {
    "": (ScenarioConfig, Normalizers),
    "mas.": (MasConfig,),
    "hpa.": (HpaConfig,),
    "pool.*.": (PoolSpec,),
    "policy.*.": (Policy,),
    "phase.*.": (WorkloadPhase,),
}
_GROUPED = ("pool", "policy", "phase", "other")

# Scenario key -> (type, default or MISSING, allowed range) of every knob.
KNOBS: dict[str, tuple[type, object, Range]] = {
    prefix + name: spec
    for prefix, classes in _SECTIONS.items()
    for cls in classes
    for name, spec in declared(cls).items()
}
# other.<owner>: the CPU request of one unmanaged pod, in millicores.
KNOBS["other.*"] = (int, MISSING, Range(gt=0))


def _default_pools(controller: str) -> list[PoolSpec]:
    if controller == "mas_h2":
        return [PoolSpec("staging", initial_nodes=1),
                PoolSpec("performance", "n2-standard-2", 2000, 3.0)]
    return [PoolSpec("baseline", initial_nodes=1)]


def _default_policies(controller: str, pools: list[PoolSpec]) -> dict[str, Policy]:
    if controller == "mas_h2":
        policies = [Policy("COST_SAVING", "staging", 1, 0.2, 0.8),
                    Policy("PERFORMANCE", "performance", 2, 0.8, 0.2)]
    else:
        policies = [Policy("BASELINE", pools[0].pool_id)]
    return {p.name: p for p in policies}


def _check(config: ScenarioConfig) -> None:
    """Rules that tie several knobs together; each knob's own range is
    checked by the class that declares it."""
    pool_caps: dict[str, int] = {}
    for pool in config.pools:
        if pool.pool_id in pool_caps:
            raise ConfigError(f"field 'pool.{pool.pool_id}': pool id defined twice",
                              f"pool.{pool.pool_id}")
        pool_caps[pool.pool_id] = pool.capacity
    for name, policy in config.policies.items():
        if policy.pool not in pool_caps:
            raise ConfigError(f"field 'policy.{name}.pool': undefined pool {policy.pool!r}",
                              f"policy.{name}.pool")
    schedule = config.schedule
    if schedule.default_policy not in config.policies:
        raise ConfigError(
            f"field 'schedule.default': undefined policy {schedule.default_policy!r}",
            "schedule.default",
        )
    for at, name in schedule.entries:
        if name not in config.policies:
            raise ConfigError(f"field 'schedule.at.{at}': undefined policy {name!r}",
                              f"schedule.at.{at}")
    hpa = config.hpa
    if hpa.pool not in pool_caps:
        raise ConfigError(f"field 'hpa.pool': undefined pool {hpa.pool!r}", "hpa.pool")
    for pool_id in [*(p.pool for p in config.policies.values()), hpa.pool]:
        if config.pod_request > pool_caps[pool_id]:
            raise ConfigError(
                f"field 'pod_request': {config.pod_request}m exceeds "
                f"'pool.{pool_id}.capacity' ({pool_caps[pool_id]}m)",
                "pod_request", f"pool.{pool_id}.capacity",
            )
    for owner, millicores in config.other_requests.items():
        problem = KNOBS["other.*"][2].problem(millicores)
        if problem is not None:
            raise ConfigError(f"field 'other.{owner}': {problem}", f"other.{owner}")
        # The node planner packs every unmanaged pod into the active policy's pool.
        for pool_id in (p.pool for p in config.policies.values()):
            if millicores > pool_caps[pool_id]:
                raise ConfigError(
                    f"field 'other.{owner}': {millicores}m exceeds "
                    f"'pool.{pool_id}.capacity' ({pool_caps[pool_id]}m)",
                    f"other.{owner}", f"pool.{pool_id}.capacity",
                )
        if owner == config.workload_id:
            raise ConfigError(
                f"field 'other.{owner}': owner collides with managed workload id",
                f"other.{owner}",
            )
        # The unmanaged pod's id is its owner, so it must not be an id that
        # create_pod gives a managed pod.
        digits = owner[len(owner.rstrip("0123456789")):]
        n = int(digits) if digits else 0
        if n > 0 and owner == generated_pod_id(config.workload_id, n):
            raise ConfigError(
                f"field 'other.{owner}': owner collides with the id of a managed "
                f"{config.workload_id!r} pod",
                f"other.{owner}",
            )
    try:
        trace_len = config.build_trace().duration
    except OverflowError:
        # A target beyond every float overflows at any VU cost; short of
        # that, the VU cost does. A parsed phase N is named phase-N.
        huge = [p.name for p in config.phases if p.target_vus > sys.float_info.max]
        key = f"phase.{huge[0].removeprefix('phase-')}.target_vus" if huge else "vu_cost"
        raise ConfigError(f"field {key!r}: the demand trace, VUs times vu_cost "
                          f"millicores, overflows a float", key) from None
    if config.duration is not None and config.duration < trace_len:
        raise ConfigError(
            f"field 'duration': {config.duration} is shorter than the "
            f"workload trace ({trace_len}s)",
            "duration",
        )


# ------------------------------------------------------------------- parsing

def _convert(raw: str, typ, key: str, line: int):
    try:
        if typ is bool:
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        value = typ(raw)
    except (ValueError, ZeroDivisionError):
        raise ScenarioError(f"field {key!r}: cannot parse {raw!r} as {typ.__name__}", line)
    if typ is float and not math.isfinite(value):
        raise ScenarioError(f"field {key!r}: {raw!r} is not a finite number", line)
    return value


def _key_number(part: str, key: str, line: int) -> int:
    """A phase number or switch time inside a key, written one way only, so
    that two spellings of one number cannot name the same entry."""
    number = _convert(part, int, key, line)
    if str(number) != part:
        raise ScenarioError(f"field {key!r}: write {part!r} as {str(number)!r}", line)
    return number


def _knob_value(key: str, template: str, raw: str, line: int):
    """The value of `key`, converted to its knob's type and range-checked."""
    if template not in KNOBS:
        raise ScenarioError(f"unknown field {key!r}", line)
    typ, _, allowed = KNOBS[template]
    value = _convert(raw, typ, key, line)
    problem = allowed.problem(value)
    if problem is not None:
        raise ScenarioError(f"field {key!r}: {problem}", line)
    return value


def _read_entries(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {rawline.strip()!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ScenarioError(f"empty key or value in {rawline.strip()!r}", lineno)
        if key in entries:
            raise ScenarioError(f"duplicate key {key!r} (first set on line {entries[key][1]})", lineno)
        entries[key] = (value, lineno)
    return entries


def parse_scenario_text(text: str, scenario_id: str) -> ScenarioConfig:
    entries = _read_entries(text)

    def line_of(*keys: str) -> int | None:
        return next((entries[k][1] for k in keys if k in entries), None)

    # section -> group -> field -> value; the group is "" outside grouped sections.
    values: dict[str, dict] = {section: {} for section in _SECTIONS}
    group_lines: dict[tuple[str, object], int] = {}
    schedule_default = ""
    schedule_entries: list[tuple[int, str]] = []
    other: dict[str, int] = {}

    for key, (raw, line) in entries.items():
        parts = key.split(".")
        if key == "schedule.default":
            schedule_default = raw
        elif parts[:2] == ["schedule", "at"] and len(parts) == 3:
            schedule_entries.append((_key_number(parts[2], key, line), raw))
        else:
            grouped = parts[0] in _GROUPED and len(parts) > 1
            template = ".".join([parts[0], "*", *parts[2:]]) if grouped else key
            value = _knob_value(key, template, raw, line)
            group = parts[1] if grouped else ""
            if parts[0] == "other":
                other[group] = value
                continue
            if parts[0] == "phase":
                group = _key_number(group, key, line)
            section = template[: -len(parts[-1])]
            values[section].setdefault(group, {})[parts[-1]] = value
            group_lines.setdefault((section, group), line)

    def knobs_of(cls, section: str, group="") -> dict:
        """The knobs of `cls` set under section/group, as keyword arguments;
        those left unset keep their declared defaults."""
        given = values[section].get(group, {})
        for name, (_, default, _) in declared(cls).items():
            if default is MISSING and name not in given:
                key = section.replace("*", str(group)) + name
                raise ScenarioError(
                    f"missing required field {key!r}", group_lines.get((section, group))
                )
        return {name: value for name, value in given.items() if name in declared(cls)}

    top = knobs_of(ScenarioConfig, "")
    # Rules about what the file says, each naming the first key of its group;
    # the rules that tie knobs together belong to ScenarioConfig.
    pool_ids = values["pool.*."].keys()
    file_rules = [
        ("schedule.at.", schedule_entries and top["controller"] != "mas_h2",
         "schedule.at entries require controller = mas_h2"),
        ("phase.", values["phase.*."] and top["workload"] != "custom",
         "phase.N.* entries are only valid for workload = custom"),
        ("pool.", pool_ids and top["controller"] == "mas_h2" and not values["policy.*."]
         and not {"staging", "performance"} <= pool_ids,
         "policy.* entries are required when mas_h2 runs on custom pools"),
    ]
    for prefix, broken, problem in file_rules:
        if broken:
            key = next(k for k in entries if k.startswith(prefix))
            raise ScenarioError(f"field {key!r}: {problem}", line_of(key))

    try:
        return ScenarioConfig(
            scenario_id=scenario_id,
            **top,
            pools=[PoolSpec(pool_id, **knobs_of(PoolSpec, "pool.*.", pool_id))
                   for pool_id in pool_ids],
            policies={name: Policy(name, **knobs_of(Policy, "policy.*.", name))
                      for name in values["policy.*."]},
            schedule=StrategicSchedule(schedule_default, schedule_entries),
            mas=MasConfig(**knobs_of(MasConfig, "mas.")),
            hpa=HpaConfig(**knobs_of(HpaConfig, "hpa.")),
            other_requests=other,
            normalizers=Normalizers(**knobs_of(Normalizers, "")),
            phases=[WorkloadPhase(f"phase-{idx}", **knobs_of(WorkloadPhase, "phase.*.", idx))
                    for idx in sorted(values["phase.*."])],
        )
    except ConfigError as exc:
        raise ScenarioError(str(exc), line_of(*exc.keys))


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    if not path.is_file():
        raise ScenarioError(f"scenario path is not a file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ScenarioError(f"{path}: line {line}: not UTF-8 text "
                            f"(byte 0x{exc.object[exc.start]:02x} at offset {exc.start})") from None
    return parse_scenario_text(text, scenario_id=path.stem)
