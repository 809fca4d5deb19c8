"""One benchmark process: times scalesim on one generated scenario file.

    python3 bench/worker.py setup SCN
    python3 bench/worker.py run SCN OUT_DIR SECONDS TRACE

`setup` times, in this fresh process, everything a run needs first: importing
scalesim and `load_scenario` (parse, validate, one trace build), with the
probe (`probe_s`) timed around it. `run` repeats timed runs of the scenario
for about SECONDS, at least MIN_ROUNDS times; the first sets the reference
artifacts, and the peak RSS is read right after it, as a fresh `scalesim run`
process would reach it. Each run is followed by SETUP_PER_ROUND `setup`
processes, or with TRACE=1 by a traced run instead. The timed figures are
CPU times of the process that runs scalesim, rescaled to the full speed of a
reference host (see `at_full_speed`); wall times, probes left out, are
reported next to them. The committed fixtures then pass the same gate,
untimed. It prints one JSON object; bench/run.py turns it into metrics.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = {False: 3, True: 2}   # by TRACE
SLICE_S = 0.01
PROBE_LOOPS = 4000
# CPU time of one probe at full speed on the 2-vCPU 2.1 GHz Xeon VM the
# baseline in bench/meta.json was taken on: the least of several thousand
# probes in one invocation came to 210-230 us.
PROBE_FULL_SPEED_S = 220e-6
SETUP_PROBES = 10                  # before and again after the set-up
SETUP_PER_ROUND = 2


def _use_checkout_source() -> None:
    """Import scalesim from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import scalesim

    if SRC.resolve() not in Path(scalesim.__file__).resolve().parents:
        raise SystemExit(f"scalesim imported from {scalesim.__file__}, not from {SRC}")


def fingerprint(result, out_dir: Path) -> dict:
    """Simulated statistics and artifact digests of one run: a change meant only
    to speed scalesim up must leave all of them identical."""
    from scalesim.runner import OUTPUT_FILES

    s = result.summary
    return {
        "events": len(result.event_lines),
        "checks_run": result.checks_run,
        "max_replicas": s.max_replicas,
        "mean_utilization": s.mean_utilization,
        "total_node_cost": s.total_node_cost,
        "total_pod_cost": s.total_pod_cost,
        "migrations": s.migrations,
        "migration_downtime": s.migration_downtime,
        "sha256": {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in OUTPUT_FILES
        },
    }


class Gate:
    """A run fails if it raises, if it checked invariants a different number
    of times than it fired events, or if its artifacts differ from those of
    the first good run of the set."""

    def __init__(self) -> None:
        self.reference: dict | None = None
        self.attempted = 0
        self.failed = 0

    def run(self, call) -> float | None:
        """Call `call() -> (result, out_dir)`; its wall time, or None if it failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            result, out_dir = call()
            seconds = time.perf_counter() - start
            fp = fingerprint(result, out_dir)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        problem = None
        if fp["checks_run"] != fp["events"]:
            problem = f"{fp['checks_run']} invariant checks for {fp['events']} events"
        elif self.reference is not None and fp != self.reference:
            problem = "artifacts differ from the first run of the set"
        if problem:
            print(f"failed run: {problem}", file=sys.stderr)
            self.failed += 1
            return None
        if self.reference is None:
            self.reference = fp
        return seconds


def fixtures_pass(work_dir: Path) -> bool:
    """Untimed smoke check: each committed fixture twice through its own gate."""
    from scalesim import runner, scenario

    fixtures = sorted((ROOT / "scenarios").glob("*.scn"))
    if not fixtures:
        print(f"no fixtures under {ROOT / 'scenarios'}", file=sys.stderr)
    ok = bool(fixtures)
    for path in fixtures:
        gate = Gate()
        for attempt in range(2):
            out = work_dir / f"fixture-{path.stem}-{attempt}"
            gate.run(lambda: (runner.run_scenario(scenario.load_scenario(path), out), out))
        if gate.failed:
            print(f"fixture {path.name} failed the gate", file=sys.stderr)
            ok = False
    return ok


def setup(scn: Path) -> dict:
    probes = [probe_s() for _ in range(SETUP_PROBES)]
    start = time.perf_counter(), time.process_time()
    _use_checkout_source()
    import scalesim.runner  # noqa: F401  (everything a run imports)
    from scalesim.scenario import load_scenario

    load_scenario(scn)
    wall, cpu = time.perf_counter() - start[0], time.process_time() - start[1]
    probes += [probe_s() for _ in range(SETUP_PROBES)]
    return {"setup_s": cpu, "wall_s": wall, "probes": probes}


def probe_s() -> float:
    """CPU time of a fixed pure-Python loop: how fast the host runs Python now."""
    start = time.process_time()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.process_time() - start


def _sliced(engine, call, slices: list[tuple[float, float]], probes: list[float]):
    """Return `call()`, cutting it at event boundaries into slices of about
    SLICE_S, each a (CPU time, wall time) pair, and timing the probe before,
    between and after them, so that `slices[i]` ran between `probes[i]` and
    `probes[i + 1]`."""
    step = engine.ClusterState.step
    start = (0.0, 0.0)

    def cut() -> None:
        nonlocal start
        slices.append((time.process_time() - start[0], time.perf_counter() - start[1]))
        probes.append(probe_s())
        start = time.process_time(), time.perf_counter()

    def sliced_step(state):
        if time.perf_counter() - start[1] >= SLICE_S:
            cut()
        return step(state)

    engine.ClusterState.step = sliced_step
    probes.append(probe_s())
    start = time.process_time(), time.perf_counter()
    try:
        return call()
    finally:
        cut()
        engine.ClusterState.step = step


def at_full_speed(slices: list[tuple[float, float]], probes: list[float]) -> float:
    """Time of a sliced run, each slice rescaled to the host's full speed.

    The times are CPU times of the process, so that time spent waiting for a
    core while other processes run is left out. A shared cloud host also
    changes its speed by 20-40% over seconds to minutes under any process
    alike (seen on a 2-vCPU Xeon VM), so the probe slows down along with the
    program: each slice's time is multiplied by PROBE_FULL_SPEED_S over the
    mean of the two probes around the slice. The result is the run's time in
    probe units, given in seconds of the reference host. The probe follows
    about half of such a slowdown, which leaves run_s steady to within ~10%.
    """
    return sum(cpu * PROBE_FULL_SPEED_S / ((a + b) / 2)
               for (cpu, _), a, b in zip(slices, probes, probes[1:]))


def _setup_sample(scn: Path) -> dict:
    proc = subprocess.run([sys.executable, __file__, "setup", str(scn)],
                          stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def run(scn: Path, out_dir: Path, seconds: float, trace: bool) -> dict:
    _use_checkout_source()
    import tracing
    from scalesim import engine, runner, scenario

    config = scenario.load_scenario(scn)
    gate = Gate()
    sliced: list[tuple[list, list[float]]] = []
    wall: list[float] = []
    traced: list[dict] = []
    overhead: list[float] = []
    rss_mb: list[float] = []

    def plain() -> float | None:
        """Wall time of a sliced run, probes left out, or None if it failed."""
        slices: list[tuple[float, float]] = []
        probes: list[float] = []
        t = gate.run(lambda: (
            _sliced(engine, lambda: runner.run_scenario(config, out_dir), slices, probes),
            out_dir))
        if not rss_mb:
            rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if t is None:
            return None
        sliced.append((slices, probes))
        wall.append(sum(w for _, w in slices))
        return wall[-1]

    def traced_session() -> tuple:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            result = runner.run_scenario(scenario.load_scenario(scn), out_dir)
        traced.append(tracing.layer_metrics(tracer))
        return result, out_dir

    setups: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        plain_wall = plain()
        if trace:
            # The traced run follows its untraced twin, so that the host's
            # drift cancels out of their difference.
            if gate.run(traced_session) is not None and plain_wall is not None:
                overhead.append(traced[-1]["runner.run_s"] - plain_wall)
        else:
            # Set-up samples are spread over the whole window because the
            # host's speed drifts over tens of seconds.
            setups += [_setup_sample(scn) for _ in range(SETUP_PER_ROUND)]
        # Stop when another round would likely end past the deadline.
        rounds = gate.attempted // (2 if trace else 1)
        left = deadline - time.perf_counter()
        if rounds >= MIN_ROUNDS[trace] and left < (seconds - left) / rounds:
            break

    full_speed = [at_full_speed(slices, probes) for slices, probes in sliced]
    setup_s = [s["setup_s"] * PROBE_FULL_SPEED_S / statistics.median(s["probes"])
               for s in setups]
    report = {
        "run_s": statistics.median(full_speed) if full_speed else None,
        "runs_s": full_speed,
        "setup_s": statistics.median(setup_s) if setup_s else None,
        "wall_s": wall,
        "setup_wall_s": [s["wall_s"] for s in setups],
        "probe_median_s": statistics.median(p for _, probes in sliced for p in probes)
        if sliced else None,
        "peak_rss_mb": rss_mb[0],
        "fingerprint": gate.reference,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "fixtures_ok": fixtures_pass(out_dir.parent),
    }
    if overhead:
        layers = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
        layers["tracing.overhead_s"] = statistics.median(overhead)
        report["layers"] = layers
    return report


def main(argv: list[str]) -> None:
    mode, scn = argv[0], Path(argv[1])
    if mode == "setup":
        report = setup(scn)
    else:
        report = run(scn, Path(argv[2]), float(argv[3]), argv[4] == "1")
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
