"""scalesim benchmark: host time of seeded generated workloads.

    python3 bench/run.py --workload hpa-wide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run from any directory of a checkout; nothing needs building. The workload
file is generated from --seed into .bench-work/ and removed afterwards.

--trace 0 reports the end-to-end metrics, measured with tracing off:
`setup_s` is the median over fresh processes that import scalesim and load
the scenario; `run_s` is the median time of one run_scenario call, artifact
writes included, over repeated runs in one process. Both are CPU times of the
process that runs scalesim, rescaled to the full speed of a reference host
with a probe loop timed around every 10 ms of work (see `at_full_speed` in
bench/worker.py; the medians of the raw wall times are printed too), so that
neither other processes nor a slower phase of a shared host count.
`events_per_s` is events fired over `run_s`; `peak_rss_mb` is the peak RSS of
that process after its first run. --trace 1 reports the per-layer metrics of
bench/tracing.py instead. Every run passes a correctness gate (see
bench/worker.py) and so do the committed fixtures; the last line of stdout is
the JSON result (with `all`, metric names get the workload as prefix).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 150


def _declared() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def _worker(*args: str) -> dict:
    """Run bench/worker.py in its own process group, so that on a timeout or an
    interrupt it is killed together with any set-up process it started."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"bench worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Generate the workload, run it, and return the result object."""
    end_to_end, per_layer = _declared()
    scn = work / f"{name}-{seed}.scn"
    scn.write_text(WORKLOADS[name].generate(seed))
    report = _worker("run", str(scn), str(work / "out"), str(seconds), "1" if trace else "0")
    correct = report["fixtures_ok"] and report["failed"] == 0

    if trace:
        if "layers" not in report:
            raise SystemExit(f"{name}: no traced run passed the gate")
        values = report["layers"]
        declared = per_layer
    else:
        if report["run_s"] is None or report["setup_s"] is None:
            raise SystemExit(f"{name}: no timed run passed the gate")
        run_s = report["run_s"]
        values = {
            "run_s": run_s,
            "events_per_s": report["fingerprint"]["events"] / run_s,
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": report["setup_s"],
        }
        declared = end_to_end
        wall, setup_wall, runs = report["wall_s"], report["setup_wall_s"], report["runs_s"]
        print(f"{name} seed {seed}: {len(runs)} timed runs at full speed "
              + " ".join(f"{t:.4f}" for t in runs) + " s")
        print(f"{name} seed {seed}: {len(wall)} timed runs, raw wall time median "
              f"{statistics.median(wall):.4f} s (min {min(wall):.4f}, max {max(wall):.4f}); "
              f"{len(setup_wall)} set-up processes, raw median "
              f"{statistics.median(setup_wall):.4f} s; probe median "
              f"{report['probe_median_s'] * 1e6:.1f} us")

    fp = report["fingerprint"] or {}
    print(f"{name} seed {seed}: attempted {report['attempted']}, failed {report['failed']}, "
          f"failed_share {report['failed'] / report['attempted']:.4f}, "
          f"fixtures {'pass' if report['fixtures_ok'] else 'FAIL'}")
    print(f"{name} fingerprint: " + json.dumps(fp, sort_keys=True))
    for metric in declared:
        print(f"  {metric:<40} {values[metric]:>16.6f} {declared[metric]['unit']}")
    return {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m: {"value": values[m], "unit": declared[m]["unit"]} for m in declared},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "scalesim" / "__init__.py").is_file():
        raise SystemExit(f"no scalesim source under {ROOT / 'src'}")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (ROOT / ".bench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench-work"))
    try:
        results = {n: measure(n, args.seed, args.seconds, bool(args.trace), work) for n in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
