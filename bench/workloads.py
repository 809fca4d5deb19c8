"""Seeded generator of the benchmark's scenario files.

Every workload is a `workload = custom` scenario: the seed picks the noise
seed and jitters each cycle's peak, while the run length, the cycle shape and
the cluster size stay fixed, so host time depends little on the seed. The
simulator receives only the generated text. Demand is open loop in simulated
time, as in every scalesim scenario.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Callable[[random.Random], list[str]]

    def generate(self, seed: int) -> str:
        """The scenario file for `seed`; the same seed gives the same bytes."""
        rng = random.Random(f"{self.name}:{seed}")
        header = [
            f"# bench workload {self.name}, seed {seed}",
            "workload = custom",
            f"seed = {rng.randrange(1, 2**31)}",
        ]
        return "\n".join(header + self.scenario(rng)) + "\n"


def _cycles(rng: random.Random, cycles: list[list[tuple[int, float, str]]],
            peak_vus: int, jitter: float) -> list[str]:
    """Phase lines for `cycles`, each a list of (seconds, share of the peak,
    ramp). Each cycle draws its own peak within +-jitter of `peak_vus`."""
    lines: list[str] = []
    index = 0
    for shape in cycles:
        peak = peak_vus * (1.0 + rng.uniform(-jitter, jitter))
        for seconds, share, ramp in shape:
            index += 1
            lines += [
                f"phase.{index}.duration = {seconds}",
                f"phase.{index}.target_vus = {round(peak * share)}",
                f"phase.{index}.ramp = {ramp}",
            ]
    return lines


def _mas_seasonal(rng: random.Random) -> list[str]:
    # 7.5 cycles of 480 s = 3600 s; the peak needs about 10 replicas of 250m.
    shape = [(60, 1.0, "linear"), (120, 1.0, "step"), (60, 0.1, "linear"), (240, 0.1, "step")]
    return [
        "controller = mas_h2",
        "vu_cost = 2",
        "noise_amplitude = 0.05",
        "pod_request = 250",
        "mas.control_interval = 60",
        "mas.forecaster = seasonal_peak",
    ] + _cycles(rng, [shape] * 7 + [shape[:2]], 1100, 0.08)


def _hpa_wide(rng: random.Random) -> list[str]:
    # Six 10-minute cycles; at the 80% target the peak asks for ~400 replicas,
    # which fit on the seven 16000m nodes the pool starts with.
    shape = [(120, 1.0, "linear"), (180, 1.0, "step"), (120, 0.5, "linear"), (180, 0.5, "step")]
    return [
        "controller = hpa_ca",
        "vu_cost = 2",
        "noise_amplitude = 0.05",
        "pod_request = 250",
        "pool.wide.capacity = 16000",
        "pool.wide.cost_rate = 8.0",
        "pool.wide.initial_nodes = 7",
        "hpa.min_replicas = 2",
        "hpa.max_replicas = 440",
    ] + _cycles(rng, [shape] * 6, 40000, 0.03)


def _mas_migrate(rng: random.Random) -> list[str]:
    # About 300 replicas that swing by +-10% around their plateau, moved
    # between two pools by a policy switch every 15 minutes.
    shape = [(150, 1.0, "linear"), (150, 0.82, "linear")]
    return [
        "controller = mas_h2",
        "vu_cost = 2",
        "noise_amplitude = 0.05",
        "pod_request = 250",
        "pool.small.capacity = 4000",
        "pool.small.cost_rate = 2.0",
        "pool.small.initial_nodes = 18",
        "pool.large.capacity = 8000",
        "pool.large.cost_rate = 5.0",
        "policy.COST_SAVING.pool = small",
        "policy.COST_SAVING.min_replicas = 1",
        "policy.PERFORMANCE.pool = large",
        "policy.PERFORMANCE.min_replicas = 2",
        "schedule.default = COST_SAVING",
        "schedule.at.900 = PERFORMANCE",
        "schedule.at.1800 = COST_SAVING",
        "schedule.at.2700 = PERFORMANCE",
        "mas.control_interval = 60",
        "mas.forecaster = moving_average",
        "mas.moving_average_window = 120",
        "initial_replicas = 250",
    ] + _cycles(rng, [shape] * 12, 38000, 0.04)


def _hpa_long(rng: random.Random) -> list[str]:
    # 24 half-hour cycles = 12 h; the peak asks for ~16 replicas.
    shape = [(300, 1.0, "linear"), (600, 1.0, "step"), (300, 0.08, "linear"), (600, 0.08, "step")]
    return [
        "controller = hpa_ca",
        "vu_cost = 2",
        "noise_amplitude = 0.05",
        "pod_request = 250",
    ] + _cycles(rng, [shape] * 24, 1600, 0.05)


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("mas-seasonal", _mas_seasonal),
        Workload("hpa-wide", _hpa_wide),
        Workload("mas-migrate", _mas_migrate),
        Workload("hpa-long", _hpa_long),
    )
}
