"""Golden-artifact oracle: the four fixtures' run artifacts, the two mas
fixtures run with `--controller hpa_ca`, and the comparison of each mas run
with its override run, pinned by sha256.

A refactor must leave every byte as it is. A change in behaviour updates the
digests here on purpose and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from scalesim.cli import EXIT_OK, main
from scalesim.runner import OUTPUT_FILES, run_scenario
from scalesim.scenario import load_scenario

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "heartbeat-mas": {
        "events.log": "638467fcbf8d788b8837de2ce4b239f4c59fd4e8be3cad9bcdeee8814fdc1021",
        "decisions.log": "01ea38112c013c284a5c7f3c9de2b139d831ffd7f1a960d894b02f5d2cd2a80d",
        "metrics.csv": "51c981789c30a7cb8fdde4439d098a9a9b29555150e96a9a652b464f7600b252",
        "summary.txt": "f40c2557aae924f3edaa97ea1fb14b496281ab5f3c5750e43c9400af589ba069",
    },
    "heartbeat-hpa": {
        "events.log": "2410f8fac991169998e3c6daf294ef444642c13e9df98186b633fd13cf7ae08d",
        "decisions.log": "12a4da2db491cf6f098c7c982695798a09fb03e5262a0505c9a89213bb42b768",
        "metrics.csv": "6f99bcc1b99d3deef37bb28737b21db5f2ce0b5d985b2304eab4b21aa6c7b1d5",
        "summary.txt": "57b2514a9ec9bc0712a3c3c7f651299086748d6637a5f3ddebf52321a5da3cfd",
    },
    "flash-sale-mas": {
        "events.log": "8254d104825a3a1af2560e09651dd96004956e4094bd0822c0cdd22fc5d9f2c0",
        "decisions.log": "02a9281dfc3ef2df18e99121f5a750716459f5e42f1be6f0adf9a5e44e95c49a",
        "metrics.csv": "f485ed39d6eba0eb14814d6db348115c0699b1cdb8743746d1298f8ae4e1a382",
        "summary.txt": "23591b915c15041e6b649d8c4990f9fca03dede2d6652a35a17137987a0b5466",
    },
    "flash-sale-hpa": {
        "events.log": "9fba7f8bacaa4600bd04b4a15968ce3bf3d9dddb81d7ad69ef0546e08a453ec5",
        "decisions.log": "7854b685bbea2c8819d99ad5e7c468330b0c055c9d3c793da48e2d8ac4439d26",
        "metrics.csv": "f4aa92bdfcf0b8af302eeab9395910d19cfd5af81551ed34a224f826b16ffe0b",
        "summary.txt": "a96aeaca7fbe4d4c2df3f4d63f94b1c9fb55b8574fab7ab82201e71948b65ac4",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixture_artifacts_match_golden_digests(tmp_path, name):
    run_scenario(load_scenario(FIXTURES / f"{name}.scn"), out_dir=tmp_path)
    digests = {
        artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        for artifact in OUTPUT_FILES
    }
    assert digests == GOLDEN[name]


# The mas fixtures run with `scalesim run --controller hpa_ca`.
GOLDEN_OVERRIDE = {
    "heartbeat-mas": {
        "events.log": "cf0e6566fdacb5893d39b4bc54d05924de5afc88037a499bdaec379adae43537",
        "decisions.log": "12a4da2db491cf6f098c7c982695798a09fb03e5262a0505c9a89213bb42b768",
        "metrics.csv": "3f83f2311987291af80b684852b49b59701eb81c3bdd0e8f8e3788d4c8bcc095",
        "summary.txt": "60a742ff83ffcb9bb84dacec28e2307ea7037bbf96376b3fe11a9ee10ab3531f",
    },
    "flash-sale-mas": {
        "events.log": "bae90015a7e945b908324cfd35cc12e5924bfb5e3bfcd8aaa5beb2ccaf405b27",
        "decisions.log": "548bbdf7a3f9a9dda1f304dbe797a5a2b681b6b950e7f16a74f122fddc2f8d30",
        "metrics.csv": "30ae23a13f7944f495ae5fe732b2f44d302f8b700a311603f5b3886340bbf1ca",
        "summary.txt": "91fc938d01e4d08f9df69dedc32850233331ff1853cde22b4560567a5500793c",
    },
}

# `scalesim compare <mas run> <override run>`.
GOLDEN_COMPARE = {
    "heartbeat-mas": {
        "comparison.txt": "27dbf79e0ceaa1ddb444ff2eb9817ec37351ee2390ee072f7672c86a16156d7c",
        "comparison.csv": "d95a9a9f826f14b4665e0157d5470524a72d4a4a2c58b0cc558dbdb082393aa5",
    },
    "flash-sale-mas": {
        "comparison.txt": "f982a0075e33fcd6b0dca095e43938018bf0df2fdf3f92a283c446393cc7aa98",
        "comparison.csv": "b14121dd72c577c5d2f3181770498a3c76980601d444e7ac2642eec67c209528",
    },
}


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("name", sorted(GOLDEN_OVERRIDE))
def test_override_run_and_comparison_match_golden_digests(tmp_path, name):
    scn = str(FIXTURES / f"{name}.scn")
    mas, hpa, cmp = tmp_path / "mas", tmp_path / "hpa", tmp_path / "cmp"
    assert main(["run", "--scenario", scn, "--out", str(mas)]) == EXIT_OK
    assert main(["run", "--scenario", scn, "--out", str(hpa), "--controller", "hpa_ca"]) == EXIT_OK
    assert main(["compare", str(mas), str(hpa), "--out", str(cmp)]) == EXIT_OK
    assert _digests(hpa, OUTPUT_FILES) == GOLDEN_OVERRIDE[name]
    assert _digests(cmp, GOLDEN_COMPARE[name]) == GOLDEN_COMPARE[name]
