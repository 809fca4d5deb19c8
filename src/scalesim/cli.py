"""Command-line front end: run scenarios, validate them, compare finished
runs, and sweep seeds."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import InvariantViolation, ScenarioError, SimulationError
from .metrics import compare_runs, write_comparison
from .runner import OUTPUT_FILES, run_scenario
from .scenario import CONTROLLERS, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def _load(args: argparse.Namespace):
    config = load_scenario(args.scenario)
    # One replace for both overrides: each rebuild checks the config again.
    overrides = {name: value for name in ("seed", "controller")
                 if (value := getattr(args, name, None)) is not None}
    return replace(config, **overrides) if overrides else config


def _check_out(out: str | Path) -> Path:
    """`out` as a path, rejected before any run if it, or the nearest of its
    parents that exists, is not a directory: the run's outputs could not be
    written there."""
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ScenarioError(f"--out: {existing} exists and is not a directory")
    return path


def _cmd_run(args: argparse.Namespace) -> int:
    out = _check_out(args.out)
    config = _load(args)
    result = run_scenario(config, out_dir=out)
    print(
        f"run complete: scenario={config.scenario_id} controller={config.controller} "
        f"seed={config.seed} duration={result.summary.duration}s "
        f"mean_utilization={result.summary.mean_utilization} "
        f"max_replicas={result.summary.max_replicas} "
        f"migration_downtime={result.summary.migration_downtime}s"
    )
    print(f"outputs: {', '.join(str(out / f) for f in OUTPUT_FILES)}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _load(args)
    print(
        f"ok: scenario={config.scenario_id} workload={config.workload} "
        f"controller={config.controller} seed={config.seed} "
        f"pools={[p.pool_id for p in config.pools]} "
        f"policies={sorted(config.policies)}"
    )
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    for run_dir in (args.run_a, args.run_b):
        missing = [f for f in ("summary.txt", "metrics.csv") if not (Path(run_dir) / f).exists()]
        if missing:
            raise ScenarioError(f"run directory {run_dir} is incomplete: missing {missing}")
    out = _check_out(args.out)
    report = compare_runs(Path(args.run_a), Path(args.run_b))
    write_comparison(report, out)
    print(report.text)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    seeds = _parse_seeds(args.seeds)
    config = _load(args)
    outs = [_check_out(Path(args.out) / f"{config.scenario_id}-seed{seed}") for seed in seeds]
    for seed, out in zip(seeds, outs):
        seeded = replace(config, seed=seed)
        result = run_scenario(seeded, out_dir=out)
        print(
            f"seed {seed}: mean_utilization={result.summary.mean_utilization} "
            f"max_replicas={result.summary.max_replicas} -> {out}"
        )
    return EXIT_OK


def _parse_seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        try:
            if ".." in part:
                lo, hi = part.split("..", 1)
                span = range(int(lo), int(hi) + 1)
            elif part:
                span = [int(part)]
            else:
                continue
        except ValueError:
            raise ScenarioError(f"--seeds: {part!r} is neither a seed nor a lo..hi range") from None
        if not span:
            raise ScenarioError(f"--seeds: range {part!r} is empty")
        seeds.extend(span)
    if not seeds:
        raise ScenarioError(f"--seeds: no seeds in {spec!r}")
    # Each seed has one output directory, so a repeated seed would run twice
    # into the same one.
    seen: set[int] = set()
    for seed in seeds:
        if seed in seen:
            raise ScenarioError(f"--seeds: seed {seed} is repeated in {spec!r}")
        seen.add(seed)
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalesim",
        description="Deterministic autoscaled-cluster simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one scenario")
    run.add_argument("--scenario", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--controller", choices=CONTROLLERS, default=None,
                     help="override the scenario controller")
    run.set_defaults(func=_cmd_run)

    validate = sub.add_parser("validate", help="parse and validate a scenario file")
    validate.add_argument("--scenario", required=True)
    validate.add_argument("--seed", type=int, default=None)
    validate.add_argument("--controller", choices=CONTROLLERS, default=None)
    validate.set_defaults(func=_cmd_validate)

    compare = sub.add_parser("compare", help="compare two completed run directories")
    compare.add_argument("run_a")
    compare.add_argument("run_b")
    compare.add_argument("--out", required=True)
    compare.set_defaults(func=_cmd_compare)

    sweep = sub.add_parser("sweep", help="run one scenario across several seeds")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--seeds", required=True, help="e.g. 1..5 or 1,2,7")
    sweep.add_argument("--controller", choices=CONTROLLERS, default=None)
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (SimulationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
