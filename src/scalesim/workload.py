"""Per-second CPU demand traces generated from virtual-user phase profiles.

Demand is open loop: it depends only on the phase profile, the VU cost
calibration, and seeded noise, never on cluster state. Utilization is
computed downstream against whatever capacity the controllers provisioned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum


class Ramp(Enum):
    LINEAR = "linear"
    STEP = "step"


@dataclass(frozen=True)
class WorkloadPhase:
    name: str
    duration_seconds: int
    target_vus: int
    ramp: Ramp = Ramp.LINEAR


@dataclass
class DemandTrace:
    workload_id: str
    demand: list[int]                       # millicores at second t = index
    phase_boundaries: list[tuple[int, str]] = field(default_factory=list)

    @property
    def duration(self) -> int:
        return len(self.demand)

    def demand_at(self, t: int) -> int:
        if not 0 <= t < self.duration:
            raise ValueError(f"t={t} outside trace [0, {self.duration})")
        return self.demand[t]


def vus_profile(phases: list[WorkloadPhase]) -> list[int]:
    """Per-second VU counts. Linear phases interpolate from the previous
    phase's target; Step phases hold their target for the whole duration."""
    out: list[int] = []
    prev = 0
    for phase in phases:
        for k in range(phase.duration_seconds):
            if phase.ramp is Ramp.STEP:
                out.append(phase.target_vus)
            else:
                frac = (k + 1) / phase.duration_seconds
                out.append(round(prev + (phase.target_vus - prev) * frac))
        prev = phase.target_vus
    return out


def build_trace(
    workload_id: str,
    phases: list[WorkloadPhase],
    vu_cost: float,
    seed: int,
    noise_amplitude: float = 0.0,
    noisy_phases: set[int] | None = None,
) -> DemandTrace:
    """Materialize a demand trace: demand(t) = round(vus * vu_cost * (1 + eps)).

    Noise eps is uniform in [-amplitude, amplitude], drawn per second from
    `seed`, and applied only inside `noisy_phases` (all phases if None).
    """
    vus = vus_profile(phases)
    rng = random.Random(seed)
    noisy_index: list[bool] = []
    boundaries: list[tuple[int, str]] = []
    t0 = 0
    for i, phase in enumerate(phases):
        boundaries.append((t0, phase.name))
        noisy = noisy_phases is None or i in noisy_phases
        noisy_index.extend([noisy] * phase.duration_seconds)
        t0 += phase.duration_seconds

    demand: list[int] = []
    for t, v in enumerate(vus):
        eps = rng.uniform(-noise_amplitude, noise_amplitude) \
            if (noise_amplitude > 0 and noisy_index[t]) else 0.0
        demand.append(max(0, round(v * vu_cost * (1.0 + eps))))
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

    The sustained-peak phase is a Step so the full 240 s sits at 700 VUs;
    every other phase ramps linearly from the previous target.
    """
    return [
        WorkloadPhase("chatter-baseline", 120, 20),
        WorkloadPhase("chatter-spike", 60, 50),
        WorkloadPhase("chatter-return", 60, 20),
        WorkloadPhase("surge-1", 30, 200),
        WorkloadPhase("lull", 60, 150),
        WorkloadPhase("surge-2", 30, 400),
        WorkloadPhase("settle", 60, 300),
        WorkloadPhase("sustained-peak", 240, 700, Ramp.STEP),
        WorkloadPhase("drop-off", 60, 50),
        WorkloadPhase("lingering", 120, 50),
        WorkloadPhase("final-cool-down", 60, 0),
    ]


# Chatter is the only noisy stretch of the flash sale; the scaling phases stay
# clean so forecast behavior is attributable.
FLASH_SALE_NOISY_PHASES = {0, 1, 2}


def build_heartbeat_trace(
    vu_cost: float,
    seed: int,
    noise_amplitude: float = 0.0,
    workload_id: str = "web",
) -> DemandTrace:
    return build_trace(
        workload_id, heartbeat_phases(), vu_cost, seed,
        noise_amplitude=noise_amplitude,
    )


def build_flash_sale_trace(
    vu_cost: float,
    seed: int,
    noise_amplitude: float = 0.10,
    workload_id: str = "web",
) -> DemandTrace:
    return build_trace(
        workload_id, flash_sale_phases(), vu_cost, seed,
        noise_amplitude=noise_amplitude,
        noisy_phases=FLASH_SALE_NOISY_PHASES,
    )

