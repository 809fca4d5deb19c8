"""End-to-end CLI behavior: exit codes, output layout, determinism."""

import csv
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from scalesim.cli import EXIT_CONFIG, EXIT_OK, main
from scalesim.runner import OUTPUT_FILES
from scalesim.scenario import ScenarioConfig

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"

MINI = """
workload = custom
controller = hpa_ca
seed = 5
phase.1.duration = 40
phase.1.target_vus = 120
phase.2.duration = 20
phase.2.target_vus = 10
"""


def write_mini(tmp_path):
    path = tmp_path / "mini.scn"
    path.write_text(MINI)
    return path


def test_run_writes_fixed_output_layout(tmp_path):
    scn = write_mini(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scn), "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUT_FILES)


def test_run_twice_byte_identical(tmp_path):
    scn = write_mini(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", str(scn), "--out", str(out_a)]) == EXIT_OK
    assert main(["run", "--scenario", str(scn), "--out", str(out_b)]) == EXIT_OK
    for name in OUTPUT_FILES:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_run_deterministic_across_processes(tmp_path):
    # Fresh interpreters (fresh hash randomization) must still agree byte
    # for byte.
    scn = write_mini(tmp_path)
    outs = [tmp_path / "p1", tmp_path / "p2"]
    for out in outs:
        proc = subprocess.run(
            [sys.executable, "-m", "scalesim.cli", "run",
             "--scenario", str(scn), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
    for name in OUTPUT_FILES:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_seed_override_changes_outputs_reproducibly(tmp_path):
    scn = tmp_path / "noisy.scn"
    scn.write_text(MINI + "noise_amplitude = 0.2\n")
    out = {}
    for name, seed in [("a", "9"), ("b", "9"), ("c", "10")]:
        out[name] = tmp_path / name
        assert main([
            "run", "--scenario", str(scn), "--out", str(out[name]), "--seed", seed,
        ]) == EXIT_OK
    assert (out["a"] / "metrics.csv").read_bytes() == (out["b"] / "metrics.csv").read_bytes()
    assert (out["a"] / "metrics.csv").read_bytes() != (out["c"] / "metrics.csv").read_bytes()


def test_invalid_config_nonzero_exit_no_partial_outputs(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("workload = heartbeat\ncontroller = hpa_ca\nbogus_knob = 1\n")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scn), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert "bogus_knob" in capsys.readouterr().err


def test_validate_ok_and_failure(tmp_path, capsys):
    scn = write_mini(tmp_path)
    assert main(["validate", "--scenario", str(scn)]) == EXIT_OK
    assert "ok:" in capsys.readouterr().out
    bad = tmp_path / "bad.scn"
    bad.write_text("workload = heartbeat\n")
    assert main(["validate", "--scenario", str(bad)]) == EXIT_CONFIG


def test_controller_override(tmp_path, capsys):
    scn = write_mini(tmp_path)
    out = tmp_path / "out"
    code = main([
        "run", "--scenario", str(scn), "--out", str(out), "--controller", "hpa_ca",
    ])
    assert code == EXIT_OK
    assert "controller=hpa_ca" in capsys.readouterr().out


def test_compare_subcommand(tmp_path, capsys):
    scn = write_mini(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--scenario", str(scn), "--out", str(out_a)])
    main(["run", "--scenario", str(scn), "--out", str(out_b)])
    cmp_dir = tmp_path / "cmp"
    assert main(["compare", str(out_a), str(out_b), "--out", str(cmp_dir)]) == EXIT_OK
    assert (cmp_dir / "comparison.txt").exists()
    assert (cmp_dir / "comparison.csv").exists()
    assert "mean_utilization" in capsys.readouterr().out


def test_compare_incomplete_run_rejected(tmp_path):
    scn = write_mini(tmp_path)
    out_a = tmp_path / "a"
    main(["run", "--scenario", str(scn), "--out", str(out_a)])
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["compare", str(out_a), str(empty), "--out", str(tmp_path / "c")]) == EXIT_CONFIG


def test_compare_damaged_metrics_named(tmp_path, capsys):
    scn = write_mini(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--scenario", str(scn), "--out", str(out_a)])
    main(["run", "--scenario", str(scn), "--out", str(out_b)])
    (out_b / "metrics.csv").write_text("")
    assert main(["compare", str(out_a), str(out_b), "--out", str(tmp_path / "c")]) == EXIT_CONFIG
    assert f"error: {out_b / 'metrics.csv'}: empty" in capsys.readouterr().err


def _two_mini_runs(tmp_path):
    scn = write_mini(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["run", "--scenario", str(scn), "--out", str(out)]) == EXIT_OK
    return out_a, out_b


def _compare(tmp_path, out_a, out_b, capsys):
    """The exit code and stderr of comparing two runs."""
    capsys.readouterr()
    code = main(["compare", str(out_a), str(out_b), "--out", str(tmp_path / "c")])
    return code, capsys.readouterr().err


def test_compare_bad_metrics_cell_names_its_line(tmp_path, capsys):
    out_a, out_b = _two_mini_runs(tmp_path)
    path = out_b / "metrics.csv"
    lines = path.read_text().splitlines(True)
    t, demand, rest = lines[8].split(",", 2)
    lines[8] = f"{t},x{demand},{rest}"
    path.write_text("".join(lines))
    code, err = _compare(tmp_path, out_a, out_b, capsys)
    assert code == EXIT_CONFIG
    assert f"error: {path}: line 9: demand_millicores: cannot read 'x{demand}' as int" in err


@pytest.mark.parametrize("name", ["summary.txt", "metrics.csv"])
def test_compare_run_file_that_is_a_directory_named(tmp_path, capsys, name):
    out_a, out_b = _two_mini_runs(tmp_path)
    path = out_b / name
    path.unlink()
    path.mkdir()
    code, err = _compare(tmp_path, out_a, out_b, capsys)
    assert code == EXIT_CONFIG
    assert f"error: {path}: cannot read: " in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("name", ["summary.txt", "metrics.csv"])
def test_compare_undecodable_run_file_named(tmp_path, capsys, name):
    out_a, out_b = _two_mini_runs(tmp_path)
    path = out_b / name
    lines = path.read_bytes().splitlines(True)
    offset = len(b"".join(lines[:2]))
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"".join(lines))
    code, err = _compare(tmp_path, out_a, out_b, capsys)
    assert code == EXIT_CONFIG
    assert f"error: {path}: line 3: not UTF-8 text (byte 0xff at offset {offset})" in err


def test_compare_mismatched_seeds_fails(tmp_path, capsys):
    scn = write_mini(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--scenario", str(scn), "--out", str(out_a), "--seed", "1"])
    main(["run", "--scenario", str(scn), "--out", str(out_b), "--seed", "2"])
    assert main(["compare", str(out_a), str(out_b), "--out", str(tmp_path / "c")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "1" in err and "2" in err


def test_sweep_runs_each_seed(tmp_path, capsys):
    scn = write_mini(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scn), "--out", str(out), "--seeds", "1..3"]) == EXIT_OK
    dirs = sorted(p.name for p in out.iterdir())
    assert dirs == ["mini-seed1", "mini-seed2", "mini-seed3"]
    for d in dirs:
        assert (out / d / "summary.txt").exists()


def test_sweep_bad_seeds_named(tmp_path, capsys):
    scn = write_mini(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scn), "--out", str(out), "--seeds", "1..x"]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--seeds" in err and "'1..x'" in err


def test_sweep_repeated_seed_named(tmp_path, capsys):
    scn = write_mini(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scn), "--out", str(out),
                 "--seeds", "3,1..2,1"]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--seeds" in err and "seed 1 is repeated" in err and "'3,1..2,1'" in err


@pytest.mark.parametrize("spec, part", [("1,5..3", "5..3"), ("1..-1,2", "1..-1")])
def test_sweep_empty_range_named(tmp_path, capsys, spec, part):
    # A range whose low end exceeds its high end names no seed: it is
    # rejected before any run, not dropped.
    scn = write_mini(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scn), "--out", str(out),
                 "--seeds", spec]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"--seeds: range {part!r} is empty" in err


def test_fixture_scenarios_run_via_cli(tmp_path):
    # Spot-check one bundled fixture end to end through the CLI.
    out = tmp_path / "hb"
    code = main([
        "run", "--scenario", str(FIXTURES / "heartbeat-hpa.scn"), "--out", str(out),
    ])
    assert code == EXIT_OK
    events = (out / "events.log").read_text()
    assert "kind=ControlTick" in events
    assert "kind=WorkloadPhaseChange" in events


def test_every_fixture_completes_within_wall_clock_budget(tmp_path):
    import time

    for name in ("heartbeat-mas", "heartbeat-hpa", "flash-sale-mas", "flash-sale-hpa"):
        t0 = time.perf_counter()
        code = main([
            "run", "--scenario", str(FIXTURES / f"{name}.scn"),
            "--out", str(tmp_path / name),
        ])
        elapsed = time.perf_counter() - t0
        assert code == EXIT_OK
        assert elapsed < 10.0, f"{name} took {elapsed:.2f}s"


def test_controller_override_on_two_pool_scenario(tmp_path, capsys):
    # A hierarchical scenario forced onto the reactive baseline still runs;
    # the baseline adopts the first pool.
    out = tmp_path / "out"
    code = main([
        "run", "--scenario", str(FIXTURES / "heartbeat-mas.scn"),
        "--out", str(out), "--controller", "hpa_ca",
    ])
    assert code == EXIT_OK
    assert "controller=hpa_ca" in capsys.readouterr().out


def test_overrides_rebuild_the_config_once(tmp_path, monkeypatch, capsys):
    # Parsing builds the trace once to check the duration, both overrides
    # together once more, and the run once to drive it.
    build_trace = ScenarioConfig.build_trace
    calls = []

    def counting(self):
        calls.append(self.scenario_id)
        return build_trace(self)

    monkeypatch.setattr(ScenarioConfig, "build_trace", counting)
    overrides = ["--scenario", str(FIXTURES / "heartbeat-mas.scn"),
                 "--seed", "3", "--controller", "hpa_ca"]
    for argv, builds in ((["validate", *overrides], 2),
                         (["run", *overrides, "--out", str(tmp_path / "out")], 3)):
        calls.clear()
        assert main(argv) == EXIT_OK, capsys.readouterr().err
        assert len(calls) == builds, argv


def test_directory_as_scenario_named(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(FIXTURES), "--out", str(out)]) == EXIT_CONFIG
    assert f"scenario path is not a file: {FIXTURES}" in capsys.readouterr().err
    assert not out.exists()


def test_undecodable_scenario_named(tmp_path, capsys):
    scn = tmp_path / "latin1.scn"
    scn.write_bytes(b"workload = heartbeat\n# caf\xe9\ncontroller = hpa_ca\n")
    assert main(["validate", "--scenario", str(scn)]) == EXIT_CONFIG
    assert f"{scn}: line 2: not UTF-8 text (byte 0xe9" in capsys.readouterr().err


def test_out_that_is_a_file_rejected_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr("scalesim.cli.run_scenario", no_run)
    scn = write_mini(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    for argv in (["run", "--scenario", str(scn), "--out", str(taken)],
                 ["run", "--scenario", str(scn), "--out", str(taken / "sub")],
                 ["sweep", "--scenario", str(scn), "--out", str(taken), "--seeds", "1..2"]):
        assert main(argv) == EXIT_CONFIG, argv
        assert f"--out: {taken} exists and is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "keep me\n"


def test_compare_out_that_is_a_file_rejected(tmp_path, capsys):
    scn = write_mini(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--scenario", str(scn), "--out", str(out_a)])
    main(["run", "--scenario", str(scn), "--out", str(out_b)])
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    assert main(["compare", str(out_a), str(out_b), "--out", str(taken)]) == EXIT_CONFIG
    assert f"--out: {taken} exists and is not a directory" in capsys.readouterr().err


def _with_draining_columns(run_dir, into):
    """A copy of `run_dir` whose metrics.csv has the `nodes_<pool>_draining`
    column, all zeros, after each pool's Ready column, as runs wrote it while
    nodes had a Draining state."""
    shutil.copytree(run_dir, into)
    with open(run_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    ready = [i for i, c in enumerate(rows[0]) if c.endswith("_ready")]
    assert ready
    for row in rows:
        for i in reversed(ready):
            row.insert(i + 1, rows[0][i][:-len("ready")] + "draining" if row is rows[0] else "0")
    with open(into / "metrics.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return into


def test_compare_reads_runs_written_with_draining_columns(tmp_path):
    scn = str(FIXTURES / "heartbeat-mas.scn")
    mas, hpa = tmp_path / "mas", tmp_path / "hpa"
    assert main(["run", "--scenario", scn, "--out", str(mas)]) == EXIT_OK
    assert main(["run", "--scenario", scn, "--out", str(hpa), "--controller", "hpa_ca"]) == EXIT_OK
    old_mas = _with_draining_columns(mas, tmp_path / "old-mas")
    old_hpa = _with_draining_columns(hpa, tmp_path / "old-hpa")
    assert "nodes_staging_draining" in (old_mas / "metrics.csv").read_text()

    def compared(a, b, name):
        out = tmp_path / name
        assert main(["compare", str(a), str(b), "--out", str(out)]) == EXIT_OK
        return {f: (out / f).read_bytes() for f in ("comparison.csv", "comparison.txt")}

    new = compared(mas, hpa, "new")
    assert compared(old_mas, hpa, "old-a") == new
    assert compared(mas, old_hpa, "old-b") == new
