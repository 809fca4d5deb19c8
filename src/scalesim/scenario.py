"""Scenario files: a flat key = value format with dotted groups.

Every key is a knob declared once, on the dataclass field that holds it, with
its type, default and allowed range (see knobs.py); KNOBS lists them all.
Unknown keys are hard errors, and every parse or validation error names the
offending field and line. See docs/scenario-format.md for the annotated
reference example.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field
from pathlib import Path

from .control import CONTROLLER_TYPES, HpaConfig, MasConfig, StrategicSchedule
from .engine import generated_pod_id
from .errors import ScenarioError
from .knobs import Range, check_knobs, declared, knob
from .metrics import Normalizers
from .planning import Policy
from .workload import NAMED_WORKLOADS, DemandTrace, WorkloadPhase, build_trace

WORKLOADS = (*NAMED_WORKLOADS, "custom")
CONTROLLERS = tuple(CONTROLLER_TYPES)


@dataclass
class PoolSpec:
    pool_id: str
    machine_type: str = knob("e2-medium")
    capacity: int = knob(1000, gt=0)              # millicores per node
    cost_rate: float = knob(1.0, ge=0)            # currency units per node-second
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
    pod_cost_rate: float = knob(0.1, ge=0)
    pools: list[PoolSpec] = field(default_factory=list)
    policies: dict[str, Policy] = field(default_factory=dict)
    schedule: StrategicSchedule | None = None
    mas: MasConfig = field(default_factory=MasConfig)
    hpa: HpaConfig = field(default_factory=HpaConfig)
    other_requests: dict[str, int] = field(default_factory=dict)   # owner -> millicores
    normalizers: Normalizers = field(default_factory=Normalizers)
    phases: list[WorkloadPhase] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_knobs(self)

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


def _default_pools(controller: str) -> dict[str, PoolSpec]:
    if controller == "mas_h2":
        pools = [PoolSpec("staging", initial_nodes=1),
                 PoolSpec("performance", "n2-standard-2", 2000, 3.0)]
    else:
        pools = [PoolSpec("baseline", initial_nodes=1)]
    return {p.pool_id: p for p in pools}


def _default_policies(controller: str, pools: dict[str, PoolSpec]) -> dict[str, Policy]:
    if controller == "mas_h2":
        policies = [Policy("COST_SAVING", "staging", 1, 0.2, 0.8),
                    Policy("PERFORMANCE", "performance", 2, 0.8, 0.2)]
    else:
        policies = [Policy("BASELINE", next(iter(pools)))]
    return {p.name: p for p in policies}


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
    schedule_default: str | None = None
    schedule_entries: list[tuple[int, str, int]] = []
    other: dict[str, int] = {}

    for key, (raw, line) in entries.items():
        parts = key.split(".")
        if key == "schedule.default":
            schedule_default = raw
        elif parts[:2] == ["schedule", "at"] and len(parts) == 3:
            at = _key_number(parts[2], key, line)
            if at < 0:
                raise ScenarioError(f"field {key!r}: switch time {at} is before the run", line)
            schedule_entries.append((at, raw, line))
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
    controller = top["controller"]

    pools = {pool_id: PoolSpec(pool_id, **knobs_of(PoolSpec, "pool.*.", pool_id))
             for pool_id in values["pool.*."]} or _default_pools(controller)

    policies: dict[str, Policy] = {}
    for name in values["policy.*."]:
        given = knobs_of(Policy, "policy.*.", name)
        if given["pool"] not in pools:
            raise ScenarioError(
                f"field 'policy.{name}.pool': undefined pool {given['pool']!r}",
                line_of(f"policy.{name}.pool"),
            )
        try:
            policies[name] = Policy(name, **given)
        except ValueError as exc:
            raise ScenarioError(
                f"fields 'policy.{name}.w_perf' and 'policy.{name}.w_cost': {exc}",
                line_of(f"policy.{name}.w_perf", f"policy.{name}.w_cost"),
            )
    if not policies:
        if controller == "mas_h2" and not {"staging", "performance"} <= pools.keys():
            key = next(k for k in entries if k.startswith("pool."))
            raise ScenarioError(
                f"field {key!r}: policy.* entries are required when mas_h2 runs on custom pools",
                line_of(key),
            )
        policies = _default_policies(controller, pools)

    if schedule_default is None:
        schedule_default = next(iter(policies))
    if schedule_default not in policies:
        raise ScenarioError(
            f"field 'schedule.default': undefined policy {schedule_default!r}",
            line_of("schedule.default"),
        )
    for at, name, line in schedule_entries:
        if name not in policies:
            raise ScenarioError(f"field 'schedule.at.{at}': undefined policy {name!r}", line)
    if schedule_entries and controller != "mas_h2":
        at, _, line = schedule_entries[0]
        raise ScenarioError(
            f"field 'schedule.at.{at}': schedule.at entries require controller = mas_h2", line
        )
    schedule = StrategicSchedule(
        default_policy=schedule_default,
        entries=[(at, name) for at, name, _ in schedule_entries],
    )

    # The baseline's pool is resolved for every controller, so a scenario
    # run with a controller override finds it too.
    hpa = HpaConfig(**knobs_of(HpaConfig, "hpa."))
    if not hpa.pool:
        hpa.pool = next(iter(pools))
    elif hpa.pool not in pools:
        raise ScenarioError(f"field 'hpa.pool': undefined pool {hpa.pool!r}", line_of("hpa.pool"))

    if top["workload"] == "custom":
        if not values["phase.*."]:
            raise ScenarioError(
                "field 'workload': custom requires phase.N.* entries", line_of("workload")
            )
        phases = [WorkloadPhase(f"phase-{idx}", **knobs_of(WorkloadPhase, "phase.*.", idx))
                  for idx in sorted(values["phase.*."])]
        default_amplitude = 0.0
    elif values["phase.*."]:
        key = next(k for k in entries if k.startswith("phase."))
        raise ScenarioError(
            f"field {key!r}: phase.N.* entries are only valid for workload = custom", line_of(key)
        )
    else:
        named_phases, default_amplitude = NAMED_WORKLOADS[top["workload"]]
        phases = named_phases()
    top.setdefault("noise_amplitude", default_amplitude)

    config = ScenarioConfig(
        scenario_id=scenario_id,
        **top,
        pools=list(pools.values()),
        policies=policies,
        schedule=schedule,
        mas=MasConfig(**knobs_of(MasConfig, "mas.")),
        hpa=hpa,
        other_requests=other,
        normalizers=Normalizers(**knobs_of(Normalizers, "")),
        phases=phases,
    )
    _validate(config, line_of)
    return config


def _validate(config: ScenarioConfig, line_of) -> None:
    """Rules that tie several knobs together; single-knob ranges are
    checked as each value is read."""
    hpa = config.hpa
    if hpa.min_replicas > hpa.max_replicas:
        raise ScenarioError(
            f"field 'hpa.min_replicas': {hpa.min_replicas} exceeds "
            f"hpa.max_replicas ({hpa.max_replicas})",
            line_of("hpa.min_replicas", "hpa.max_replicas"),
        )
    if hpa.saturation_ceiling <= hpa.target_utilization:
        raise ScenarioError(
            f"field 'hpa.saturation_ceiling': {hpa.saturation_ceiling} must exceed "
            f"hpa.target_utilization ({hpa.target_utilization}), or the HPA never scales up",
            line_of("hpa.saturation_ceiling", "hpa.target_utilization"),
        )
    pool_caps = {p.pool_id: p.capacity for p in config.pools}
    for pool_id in [*(p.pool for p in config.policies.values()), hpa.pool]:
        if config.pod_request > pool_caps[pool_id]:
            raise ScenarioError(
                f"field 'pod_request': {config.pod_request}m exceeds "
                f"'pool.{pool_id}.capacity' ({pool_caps[pool_id]}m)",
                line_of("pod_request", f"pool.{pool_id}.capacity"),
            )
    for owner, millicores in config.other_requests.items():
        # The node planner packs every unmanaged pod into the active policy's pool.
        for pool_id in (p.pool for p in config.policies.values()):
            if millicores > pool_caps[pool_id]:
                raise ScenarioError(
                    f"field 'other.{owner}': {millicores}m exceeds "
                    f"'pool.{pool_id}.capacity' ({pool_caps[pool_id]}m)",
                    line_of(f"other.{owner}", f"pool.{pool_id}.capacity"),
                )
        if owner == config.workload_id:
            raise ScenarioError(
                f"field 'other.{owner}': owner collides with managed workload id",
                line_of(f"other.{owner}"),
            )
        # The unmanaged pod's id is its owner, so it must not be an id that
        # create_pod gives a managed pod.
        digits = owner[len(owner.rstrip("0123456789")):]
        n = int(digits) if digits else 0
        if n > 0 and owner == generated_pod_id(config.workload_id, n):
            raise ScenarioError(
                f"field 'other.{owner}': owner collides with the id of a managed "
                f"{config.workload_id!r} pod",
                line_of(f"other.{owner}"),
            )
    trace_len = config.build_trace().duration
    if config.duration is not None and config.duration < trace_len:
        raise ScenarioError(
            f"field 'duration': {config.duration} is shorter than the "
            f"workload trace ({trace_len}s)",
            line_of("duration"),
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
