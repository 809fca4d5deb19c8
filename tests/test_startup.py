"""The startup path stays free of numpy: only period autodetection
(`forecasting.detect_period`) imports it.

Each case starts a fresh interpreter. In the blocked one,
`sys.modules["numpy"] = None` is set before any scalesim import, so any
`import numpy` raises ImportError. The runs that never detect a period must
still produce their golden artifacts there, byte for byte.
"""

import json
import os
import subprocess
import sys

import pytest

from test_golden_artifacts import FIXTURES, GOLDEN, GOLDEN_BENCH, ROOT, _bench_workloads

# Reads a job from stdin: scenario files to load, (scenario id, text) pairs to
# parse, and whether to run them. Prints one JSON line once everything is
# loaded, and one more, with each run's artifact digests, after the runs.
# "numpy" says whether numpy is loaded: the blocked interpreter's None entry
# in sys.modules does not count.
CHILD = """
import hashlib, json, sys, tempfile
from pathlib import Path

if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
import scalesim.cli  # noqa: F401  (everything the command line imports)
from scalesim.runner import OUTPUT_FILES, run_scenario
from scalesim.scenario import load_scenario, parse_scenario_text

job = json.load(sys.stdin)
configs = [load_scenario(path) for path in job["load"]]
configs += [parse_scenario_text(text, scenario_id) for scenario_id, text in job["parse"]]
print(json.dumps({"numpy": sys.modules.get("numpy") is not None}), flush=True)
if job["run"]:
    digests = {}
    for config in configs:
        with tempfile.TemporaryDirectory() as out:
            run_scenario(config, out_dir=out)
            digests[config.scenario_id] = {
                name: hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
                for name in OUTPUT_FILES
            }
    print(json.dumps({"numpy": sys.modules.get("numpy") is not None, "digests": digests}),
          flush=True)
"""

# Reads a list of command lines from stdin and runs each through the CLI's
# main in a blocked interpreter. Its last line gives their exit codes and
# whether numpy is loaded.
CLI_CHILD = """
import json, sys

sys.modules["numpy"] = None
from scalesim.cli import main

codes = [main(argv) for argv in json.load(sys.stdin)]
print(json.dumps({"numpy": sys.modules.get("numpy") is not None, "codes": codes}))
"""


def _python(script, stdin, *args):
    """Run `script` in a fresh interpreter that imports this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], input=stdin,
                          capture_output=True, text=True, env=env, timeout=120)


def _child(mode, load=(), parse=(), run=False):
    """Run CHILD in a fresh interpreter. Returns the process and the JSON
    lines it printed."""
    job = {"load": [str(path) for path in load], "parse": list(parse), "run": run}
    proc = _python(CHILD, json.dumps(job), mode)
    return proc, [json.loads(line) for line in proc.stdout.splitlines()]


def test_cli_import_and_fixture_loads_need_no_numpy():
    proc, lines = _child("blocked", load=[FIXTURES / f"{name}.scn" for name in sorted(GOLDEN)])
    assert proc.returncode == 0, proc.stderr
    assert lines == [{"numpy": False}]


@pytest.mark.parametrize("name", ["heartbeat-hpa", "flash-sale-hpa"])
def test_hpa_fixture_runs_without_numpy(name):
    proc, lines = _child("blocked", load=[FIXTURES / f"{name}.scn"], run=True)
    assert proc.returncode == 0, proc.stderr
    assert lines[-1] == {"numpy": False, "digests": {name: GOLDEN[name]}}


# hpa_ca, hpa_ca, and mas_h2 with a moving-average forecaster.
@pytest.mark.parametrize("name", ["hpa-wide", "mas-migrate", "hpa-long"])
def test_bench_workload_runs_without_numpy(name):
    scenario_id = f"{name}-1"
    text = _bench_workloads()[name].generate(1)
    proc, lines = _child("blocked", parse=[(scenario_id, text)], run=True)
    assert proc.returncode == 0, proc.stderr
    assert lines[-1] == {"numpy": False, "digests": {scenario_id: GOLDEN_BENCH[name]}}


def test_compare_of_two_runs_needs_no_numpy(tmp_path):
    scn = str(FIXTURES / "heartbeat-hpa.scn")
    a, b, report = (str(tmp_path / name) for name in ("a", "b", "report"))
    commands = [["run", "--scenario", scn, "--out", a],
                ["run", "--scenario", scn, "--out", b],
                ["compare", a, b, "--out", report]]
    proc = _python(CLI_CHILD, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"numpy": False, "codes": [0, 0, 0]}
    assert any((tmp_path / "report").iterdir())


def test_autodetecting_run_needs_numpy_at_its_first_detection():
    # Non-vacuity: the blocked interpreter does stop a run that detects, and
    # only once that run reaches detect_period.
    proc, lines = _child("blocked", load=[FIXTURES / "heartbeat-mas.scn"], run=True)
    assert proc.returncode != 0
    assert lines == [{"numpy": False}]
    # ModuleNotFoundError, the ImportError subclass that a None entry raises.
    assert "import of numpy halted" in proc.stderr
    assert "in detect_period" in proc.stderr


def test_autodetecting_run_loads_numpy_only_when_it_runs():
    proc, lines = _child("normal", load=[FIXTURES / "heartbeat-mas.scn"], run=True)
    assert proc.returncode == 0, proc.stderr
    assert lines == [{"numpy": False},
                     {"numpy": True, "digests": {"heartbeat-mas": GOLDEN["heartbeat-mas"]}}]


# Imports scalesim.artifacts and prints which of the modules it must not load
# are loaded; then imports the runner and prints the same again.
ARTIFACTS_CHILD = """
import json, sys

HEAVY = ("scalesim.control", "scalesim.runner", "scalesim.forecasting", "numpy")
import scalesim.artifacts  # noqa: F401
print(json.dumps([name for name in HEAVY if name in sys.modules]))
import scalesim.runner  # noqa: F401
print(json.dumps([name for name in HEAVY if name in sys.modules]))
"""


def test_artifacts_load_no_controller_runner_forecaster_or_numpy():
    proc = _python(ARTIFACTS_CHILD, "")
    assert proc.returncode == 0, proc.stderr
    after_artifacts, after_runner = (json.loads(line) for line in proc.stdout.splitlines())
    assert after_artifacts == []
    # Non-vacuity: the runner does load the controller and the forecaster.
    assert after_runner == ["scalesim.control", "scalesim.runner", "scalesim.forecasting"]
