"""Every committed BENCH_*.json is a benchmark record that a reader can trace
back: the result lines of bench/run.py for the parent commit and for the
change, the seeds they ran with, and the host they ran on."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_committed_bench_records_parse_and_name_their_runs():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        missing = {"parent", "change", "seeds", "host"} - record.keys()
        assert not missing, (path.name, missing)
