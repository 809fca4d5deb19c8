"""Scenario files: a flat key = value format with dotted groups.

Every key is a knob declared once, on the dataclass field that holds it, with
its type, default and allowed range (see knobs.py); KNOBS lists them all.
The parser only reads and converts values and rejects unknown keys. The class
that declares a knob checks its value, and ScenarioConfig fills in defaults and
checks the rules that tie knobs together, for a file and code alike. A rejected
value or rule is a ConfigError naming its scenario keys, reported at the line
of the first one a file sets. docs/scenario-format.md has an annotated example.
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
        check_knobs(self, f"pool.{self.pool_id}.")


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
        check_knobs(self, "")
        if self.workload == "custom":
            if not self.phases:
                raise ConfigError("workload", "custom requires phase.N.* entries")
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
            raise ConfigError(f"pool.{pool.pool_id}", "pool id defined twice")
        pool_caps[pool.pool_id] = pool.capacity
    for name, policy in config.policies.items():
        if policy.pool not in pool_caps:
            raise ConfigError(f"policy.{name}.pool", f"undefined pool {policy.pool!r}")
    schedule = config.schedule
    if schedule.default_policy not in config.policies:
        raise ConfigError("schedule.default", f"undefined policy {schedule.default_policy!r}")
    for at, name in schedule.entries:
        if name not in config.policies:
            raise ConfigError(f"schedule.at.{at}", f"undefined policy {name!r}")
    hpa = config.hpa
    if hpa.pool not in pool_caps:
        raise ConfigError("hpa.pool", f"undefined pool {hpa.pool!r}")

    def check_fits(key: str, millicores: int, pool_ids) -> None:
        for pool_id in pool_ids:
            if millicores > pool_caps[pool_id]:
                raise ConfigError(key, f"{millicores}m exceeds 'pool.{pool_id}.capacity' "
                                  f"({pool_caps[pool_id]}m)", f"pool.{pool_id}.capacity")

    policy_pools = [p.pool for p in config.policies.values()]
    check_fits("pod_request", config.pod_request, [*policy_pools, hpa.pool])
    for owner, millicores in config.other_requests.items():
        key = f"other.{owner}"
        problem = KNOBS["other.*"][2].problem(millicores)
        if problem is not None:
            raise ConfigError(key, problem)
        # The node planner packs every unmanaged pod into the active policy's pool.
        check_fits(key, millicores, policy_pools)
        if owner == config.workload_id:
            raise ConfigError(key, "owner collides with managed workload id")
        # The unmanaged pod's id is its owner, so it must not be an id that
        # create_pod gives a managed pod.
        digits = owner[len(owner.rstrip("0123456789")):]
        n = int(digits) if digits else 0
        if n > 0 and owner == generated_pod_id(config.workload_id, n):
            raise ConfigError(key, f"owner collides with the id of a managed "
                                   f"{config.workload_id!r} pod")
    try:
        trace_len = config.build_trace().duration
    except OverflowError:
        # A target beyond every float overflows at any VU cost; short of
        # that, the VU cost does.
        huge = [p.prefix for p in config.phases if p.target_vus > sys.float_info.max]
        key = huge[0] + "target_vus" if huge else "vu_cost"
        raise ConfigError(key, "the demand trace, VUs times vu_cost millicores, "
                               "overflows a float") from None
    if config.duration is not None and config.duration < trace_len:
        raise ConfigError("duration", f"{config.duration} is shorter than the "
                                      f"workload trace ({trace_len}s)")


# ------------------------------------------------------------------- parsing

def _convert(raw: str, typ, key: str):
    try:
        if typ is bool:
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(key, f"cannot parse {raw!r} as {typ.__name__}")


def _key_number(part: str, key: str) -> int:
    """A phase number or switch time inside a key, written one way only, so
    that two spellings of one number cannot name the same entry."""
    number = _convert(part, int, key)
    if str(number) != part:
        raise ConfigError(key, f"write {part!r} as {str(number)!r}")
    return number


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
    try:
        return _build_config(entries, scenario_id)
    except ConfigError as exc:
        # A rejected value or rule is reported at the first key it names
        # that the file sets.
        raise ScenarioError(str(exc), next((entries[k][1] for k in exc.keys if k in entries), None))


def _build_config(entries: dict[str, tuple[str, int]], scenario_id: str) -> ScenarioConfig:
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
            schedule_entries.append((_key_number(parts[2], key), raw))
        else:
            grouped = parts[0] in _GROUPED and len(parts) > 1
            template = ".".join([parts[0], "*", *parts[2:]]) if grouped else key
            if template not in KNOBS:
                raise ScenarioError(f"unknown field {key!r}", line)
            value = _convert(raw, KNOBS[template][0], key)
            group = parts[1] if grouped else ""
            if parts[0] == "other":
                other[group] = value
                continue
            if parts[0] == "phase":
                group = _key_number(group, key)
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
    # the rules that tie knobs together belong to ScenarioConfig. A controller
    # or workload that is not a choice breaks none, so ScenarioConfig names it.
    pool_ids = values["pool.*."].keys()
    file_rules = [
        ("schedule.at.", schedule_entries and top["controller"] in set(CONTROLLERS) - {"mas_h2"},
         "schedule.at entries require controller = mas_h2"),
        ("phase.", values["phase.*."] and top["workload"] in NAMED_WORKLOADS,
         "phase.N.* entries are only valid for workload = custom"),
        ("pool.", pool_ids and top["controller"] == "mas_h2" and not values["policy.*."]
         and not {"staging", "performance"} <= pool_ids,
         "policy.* entries are required when mas_h2 runs on custom pools"),
    ]
    for prefix, broken, problem in file_rules:
        if broken:
            key = next(k for k in entries if k.startswith(prefix))
            raise ConfigError(key, problem)

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
