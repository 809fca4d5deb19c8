"""Demand trace generation tests against the frozen benchmark profiles."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import build_trace_per_second

from scalesim.workload import (
    NAMED_WORKLOADS,
    WorkloadPhase,
    build_trace,
    flash_sale_phases,
    heartbeat_phases,
)

# Benchmark profiles, frozen field-for-field: (duration s, target VUs).
HEARTBEAT_TABLE = [
    (30, 400), (120, 400), (30, 10), (60, 10),
    (30, 400), (120, 400), (30, 10), (60, 10),
    (30, 400), (120, 400), (30, 10), (60, 10),
    (60, 0),
]
FLASH_SALE_TABLE = [
    (120, 20), (60, 50), (60, 20),            # pre-sale chatter
    (30, 200), (60, 150), (30, 400), (60, 300),  # chaotic ramp-up
    (240, 700),                                # sustained peak
    (60, 50),                                  # sudden drop-off
    (120, 50), (60, 0),                        # final cool-down
]


def vus_of(phases):
    """The per-second VUs a trace scales: its demand at one millicore per VU,
    without noise."""
    return build_trace("w", phases, 1.0, 0).demand


def named_trace(name: str, seed: int):
    """The trace of a named workload at vu_cost 2 and its default noise."""
    phases, noise_amplitude = NAMED_WORKLOADS[name]
    return build_trace("web", phases(), 2, seed, noise_amplitude)


class TestHeartbeat:
    def test_phase_table_matches(self):
        got = [(p.duration, p.target_vus) for p in heartbeat_phases()]
        assert got == HEARTBEAT_TABLE

    def test_total_length_780(self):
        trace = named_trace("heartbeat", 1)
        assert trace.duration == 780
        assert sum(d for d, _ in HEARTBEAT_TABLE) == 780

    def test_one_sample_per_second(self):
        trace = named_trace("heartbeat", 1)
        assert len(trace.demand) == 780

    def test_vus_at_mid_first_peak_hold(self):
        assert vus_of(heartbeat_phases())[45] == 400

    def test_demand_is_vus_times_cost(self):
        trace = named_trace("heartbeat", 3)
        assert trace.demand[45] == 800
        vus = vus_of(heartbeat_phases())
        for t, demand in enumerate(trace.demand):
            assert demand == vus[t] * 2

    def test_cycles_identical_after_first_ramp(self):
        trace = named_trace("heartbeat", 1)
        # Cycles 2 and 3 are byte-identical (cycle 1 ramps up from 0, not 10).
        cycle2 = trace.demand[240:480]
        cycle3 = trace.demand[480:720]
        assert cycle2 == cycle3


class TestFlashSale:
    def test_phase_table_matches(self):
        got = [(p.duration, p.target_vus) for p in flash_sale_phases()]
        assert got == FLASH_SALE_TABLE

    def test_total_length_900(self):
        trace = named_trace("flash_sale", 1)
        assert trace.duration == 900
        assert sum(d for d, _ in FLASH_SALE_TABLE) == 900

    def test_sustained_peak_holds_700_for_240s(self):
        vus = vus_of(flash_sale_phases())
        assert all(vus[t] == 700 for t in range(420, 660))

    def test_drop_off_trends_toward_50(self):
        vus = vus_of(flash_sale_phases())[660:720]
        assert vus[0] < 700
        assert all(a >= b for a, b in zip(vus, vus[1:]))
        assert vus[-1] == 50

    def test_noise_only_in_chatter_phases(self):
        trace = named_trace("flash_sale", 9)
        vus = vus_of(flash_sale_phases())
        for t, demand in enumerate(trace.demand):
            if t >= 240:
                assert demand == vus[t] * 2, f"t={t} outside chatter must be noise-free"

    def test_chatter_noise_within_amplitude(self):
        trace = named_trace("flash_sale", 9)
        vus = vus_of(flash_sale_phases())
        for t, demand in enumerate(trace.demand[:240]):
            clean = vus[t] * 2
            assert abs(demand - clean) <= clean * 0.10 + 0.5


class TestDemandWindow:
    def test_linear_ramp_interpolates_monotonically(self):
        # Closed form: vus(k) = round(10 + 390 * (k+1) / 30) within the ramp.
        phases = [WorkloadPhase("base", 10, 10), WorkloadPhase("ramp", 30, 400)]
        profile = vus_of(phases)
        ramp = profile[10:40]
        expected = [round(10 + (400 - 10) * (k + 1) / 30) for k in range(30)]
        assert ramp == expected
        assert all(a <= b for a, b in zip(ramp, ramp[1:]))
        assert ramp[-1] == 400


class TestNoiseAndDeterminism:
    def test_same_seed_same_trace(self):
        a = named_trace("flash_sale", 5)
        b = named_trace("flash_sale", 5)
        assert a.demand == b.demand

    def test_different_seed_different_chatter(self):
        a = named_trace("flash_sale", 5)
        b = named_trace("flash_sale", 6)
        assert a.demand[:240] != b.demand[:240]

    def test_zero_vus_zero_demand(self):
        rng = random.Random(0)
        phases = [WorkloadPhase("dead", 40, 0, "step"), WorkloadPhase("live", 20, 100)]
        vus = vus_of(phases)
        for seed in range(5):
            amplitude = rng.choice([0.0, 0.05, 0.10, 0.3])
            trace = build_trace("w", phases, vu_cost=2.5, seed=seed, noise_amplitude=amplitude)
            for t, demand in enumerate(trace.demand):
                if vus[t] == 0:
                    assert demand == 0

    def test_amplitude_bound_holds_on_random_profiles(self):
        rng = random.Random(7)
        for seed in range(10):
            amplitude = rng.uniform(0.0, 0.4)
            phases = [
                WorkloadPhase(f"p{i}", rng.randint(5, 40), rng.randint(0, 500))
                for i in range(4)
            ]
            trace = build_trace("w", phases, 2, seed, noise_amplitude=amplitude)
            vus = vus_of(phases)
            for t, demand in enumerate(trace.demand):
                clean = vus[t] * 2
                assert abs(demand - clean) <= clean * amplitude + 0.5


def test_trace_outside_its_domain_rejected():
    # Inside the domain, 1 + eps >= 0, so no second's demand can go below 0.
    phases = [WorkloadPhase("live", 20, 100)]
    with pytest.raises(ValueError, match="noise_amplitude"):
        build_trace("w", phases, 2, 0, noise_amplitude=1.5)
    with pytest.raises(ValueError, match="vu_cost"):
        build_trace("w", phases, -0.5, 0)
    with pytest.raises(ValueError, match="noise_amplitude"):
        build_trace("w", phases, 2, 0, noise_amplitude=-0.1)
    assert min(build_trace("w", phases, 2, 0, noise_amplitude=1.0).demand) >= 0


def test_flash_noisy_phase_indices_cover_chatter_only():
    assert [p.name for p in flash_sale_phases() if p.noisy] == [
        "chatter-baseline", "chatter-spike", "chatter-return",
    ]


@st.composite
def phase_lists(draw):
    """Zero-length, step and linear phases, some of them noisy."""
    return [WorkloadPhase(f"p{i}", draw(st.integers(0, 60)), draw(st.integers(0, 2000)),
                          draw(st.sampled_from(["linear", "step"])), draw(st.booleans()))
            for i in range(draw(st.integers(0, 6)))]


@settings(max_examples=300, deadline=None)
@given(phases=phase_lists(), vu_cost=st.floats(0.01, 10) | st.integers(1, 5),
       seed=st.integers(0, 2**32), amplitude=st.sampled_from([0.0, 0.05, 0.1, 0.999, 1.0])
       | st.floats(0, 1, exclude_max=True))
# A ramp from 8 to 333 VUs over 10 s, whose 7th second is 235 VUs as
# 8 + 325 * (7 / 10) rounds, and 236 as 8 + 325 * 7 / 10 would.
@example(phases=[WorkloadPhase("p0", 1, 8, "step"), WorkloadPhase("p1", 10, 333)],
         vu_cost=1, seed=0, amplitude=0.0)
def test_trace_equals_the_per_second_trace(phases, vu_cost, seed, amplitude):
    trace = build_trace("w", phases, vu_cost, seed, amplitude)
    assert trace == build_trace_per_second("w", phases, vu_cost, seed, amplitude)
