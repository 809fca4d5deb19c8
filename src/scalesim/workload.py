"""Per-second CPU demand traces generated from virtual-user phase profiles.

Demand is open loop: it depends only on the phase profile, the VU cost
calibration, and seeded noise, never on cluster state. Utilization is
computed downstream against whatever capacity the controllers provisioned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .knobs import check_knobs, knob


@dataclass(frozen=True)
class WorkloadPhase:
    """One phase of a VU profile; its knobs are the phase.<n>.* keys of a
    custom workload."""

    name: str
    duration: int = knob(ge=0)                    # seconds
    target_vus: int = knob(ge=0)
    ramp: str = knob("linear", choices=("linear", "step"))
    noisy: bool = knob(False)                     # apply noise_amplitude inside this phase

    def __post_init__(self) -> None:
        check_knobs(self, self.prefix)

    @property
    def prefix(self) -> str:
        """Its knobs' scenario-key prefix: parsed phase N is named phase-N."""
        return f"phase.{self.name.removeprefix('phase-')}."


@dataclass
class DemandTrace:
    workload_id: str
    demand: list[int]                       # millicores at second t = index
    phase_boundaries: list[tuple[int, str]] = field(default_factory=list)

    @property
    def duration(self) -> int:
        return len(self.demand)


def _phase_vus(phase: WorkloadPhase, prev: int) -> list[int]:
    """The phase's per-second VU counts, `prev` being the previous phase's
    target."""
    if phase.ramp == "step":
        return [phase.target_vus] * phase.duration
    rise, duration = phase.target_vus - prev, phase.duration
    return [round(prev + rise * ((k + 1) / duration)) for k in range(duration)]


def build_trace(
    workload_id: str,
    phases: list[WorkloadPhase],
    vu_cost: float,
    seed: int,
    noise_amplitude: float = 0.0,
) -> DemandTrace:
    """Materialize a demand trace: demand(t) = round(vus * vu_cost * (1 + eps)).

    Noise eps is uniform in [-amplitude, amplitude], drawn per second from
    `seed`, and applied only inside the phases marked noisy (every phase
    when none is). A draw is `low + span * random()`, which is what
    `Random.uniform(low, high)` computes.

    `vu_cost` must be at least 0 and `noise_amplitude` within [0, 1] (a
    ValueError otherwise), so that 1 + eps, and with it every second's
    demand, is never negative.
    """
    if not vu_cost >= 0:
        raise ValueError(f"vu_cost must be >= 0, not {vu_cost}")
    if not 0 <= noise_amplitude <= 1:
        raise ValueError(f"noise_amplitude must be within [0, 1], not {noise_amplitude}")
    draw = random.Random(seed).random
    low, span = -noise_amplitude, noise_amplitude - -noise_amplitude
    all_noisy = not any(phase.noisy for phase in phases)
    demand: list[int] = []
    boundaries: list[tuple[int, str]] = []
    prev = 0
    for phase in phases:
        boundaries.append((len(demand), phase.name))
        vus = _phase_vus(phase, prev)
        prev = phase.target_vus
        if noise_amplitude > 0 and (all_noisy or phase.noisy):
            demand += [round(v * vu_cost * (1.0 + (low + span * draw()))) for v in vus]
        else:
            demand += [round(v * vu_cost * 1.0) for v in vus]   # eps = 0.0
    return DemandTrace(workload_id=workload_id, demand=demand, phase_boundaries=boundaries)


def heartbeat_phases() -> list[WorkloadPhase]:
    """Three identical heartbeats (ramp to 400 VUs, hold, drop to 10, hold)
    plus a final cool-down to zero. 780 s total."""
    phases: list[WorkloadPhase] = []
    for cycle in (1, 2, 3):
        phases += [
            WorkloadPhase(f"hb{cycle}-ramp-up", 30, 400),
            WorkloadPhase(f"hb{cycle}-hold-peak", 120, 400),
            WorkloadPhase(f"hb{cycle}-ramp-down", 30, 10),
            WorkloadPhase(f"hb{cycle}-hold-trough", 60, 10),
        ]
    phases.append(WorkloadPhase("cool-down", 60, 0))
    return phases


def flash_sale_phases() -> list[WorkloadPhase]:
    """Pre-sale chatter, chaotic ramp-up, a 240 s sustained peak at 700 VUs,
    abrupt drop-off, and cool-down. 900 s total.

    The sustained-peak phase is a step so the full 240 s sits at 700 VUs;
    every other phase ramps linearly from the previous target. Chatter is the
    only noisy stretch; the scaling phases stay clean so forecast behavior is
    attributable.
    """
    return [
        WorkloadPhase("chatter-baseline", 120, 20, noisy=True),
        WorkloadPhase("chatter-spike", 60, 50, noisy=True),
        WorkloadPhase("chatter-return", 60, 20, noisy=True),
        WorkloadPhase("surge-1", 30, 200),
        WorkloadPhase("lull", 60, 150),
        WorkloadPhase("surge-2", 30, 400),
        WorkloadPhase("settle", 60, 300),
        WorkloadPhase("sustained-peak", 240, 700, "step"),
        WorkloadPhase("drop-off", 60, 50),
        WorkloadPhase("lingering", 120, 50),
        WorkloadPhase("final-cool-down", 60, 0),
    ]


# Named workload -> (its phases, its default noise amplitude).
NAMED_WORKLOADS = {
    "heartbeat": (heartbeat_phases, 0.0),
    "flash_sale": (flash_sale_phases, 0.10),
}
