"""Golden-artifact oracle: the four fixtures' run artifacts, the two mas
fixtures run with `--controller hpa_ca`, the comparison of each mas run
with its override run, the two mas fixtures with unmanaged pods added, the
four benchmark workloads at seed 1, and a custom workload with one noisy
phase under each controller, pinned by sha256.

A refactor must leave every byte as it is. A change in behaviour updates the
digests here on purpose and says why in CHANGES.md.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from scalesim.cli import EXIT_OK, main
from scalesim.runner import OUTPUT_FILES, run_scenario
from scalesim.scenario import load_scenario, parse_scenario_text

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "scenarios"

GOLDEN = {
    "heartbeat-mas": {
        "events.log": "638467fcbf8d788b8837de2ce4b239f4c59fd4e8be3cad9bcdeee8814fdc1021",
        "decisions.log": "01ea38112c013c284a5c7f3c9de2b139d831ffd7f1a960d894b02f5d2cd2a80d",
        "metrics.csv": "5d2544cc7066d28edaf129d60a6cfa5698def0027281603ea9f8c28b1179c355",
        "summary.txt": "f40c2557aae924f3edaa97ea1fb14b496281ab5f3c5750e43c9400af589ba069",
    },
    "heartbeat-hpa": {
        "events.log": "2410f8fac991169998e3c6daf294ef444642c13e9df98186b633fd13cf7ae08d",
        "decisions.log": "12a4da2db491cf6f098c7c982695798a09fb03e5262a0505c9a89213bb42b768",
        "metrics.csv": "d020082914db2686b93cacde165bdb221cb484e16523878e51b633528dd21ad5",
        "summary.txt": "57b2514a9ec9bc0712a3c3c7f651299086748d6637a5f3ddebf52321a5da3cfd",
    },
    "flash-sale-mas": {
        "events.log": "8254d104825a3a1af2560e09651dd96004956e4094bd0822c0cdd22fc5d9f2c0",
        "decisions.log": "02a9281dfc3ef2df18e99121f5a750716459f5e42f1be6f0adf9a5e44e95c49a",
        "metrics.csv": "83b4672f5675b034724597803ce5e5414357c864ac1933f482fa0852de07bf5e",
        "summary.txt": "23591b915c15041e6b649d8c4990f9fca03dede2d6652a35a17137987a0b5466",
    },
    "flash-sale-hpa": {
        "events.log": "9fba7f8bacaa4600bd04b4a15968ce3bf3d9dddb81d7ad69ef0546e08a453ec5",
        "decisions.log": "7854b685bbea2c8819d99ad5e7c468330b0c055c9d3c793da48e2d8ac4439d26",
        "metrics.csv": "903a480f5a959f4766f34f0bba0f7db9fd09837281bd60c2fc2a97b7ca4912a4",
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


def test_switch_after_the_run_leaves_fixture_artifacts_unchanged(tmp_path):
    # A schedule entry past the run's end never fires and leaves no trace.
    text = (FIXTURES / "heartbeat-mas.scn").read_text() + "schedule.at.5000 = COST_SAVING\n"
    run_scenario(parse_scenario_text(text, "heartbeat-mas"), out_dir=tmp_path)
    assert _digests(tmp_path, OUTPUT_FILES) == GOLDEN["heartbeat-mas"]


# The mas fixtures run with `scalesim run --controller hpa_ca`.
GOLDEN_OVERRIDE = {
    "heartbeat-mas": {
        "events.log": "cf0e6566fdacb5893d39b4bc54d05924de5afc88037a499bdaec379adae43537",
        "decisions.log": "12a4da2db491cf6f098c7c982695798a09fb03e5262a0505c9a89213bb42b768",
        "metrics.csv": "c451c5921af749a6c7fba89c9959a0219a60dd77dd0efe5ab9d2e3e462cb0b38",
        "summary.txt": "60a742ff83ffcb9bb84dacec28e2307ea7037bbf96376b3fe11a9ee10ab3531f",
    },
    "flash-sale-mas": {
        "events.log": "bae90015a7e945b908324cfd35cc12e5924bfb5e3bfcd8aaa5beb2ccaf405b27",
        "decisions.log": "548bbdf7a3f9a9dda1f304dbe797a5a2b681b6b950e7f16a74f122fddc2f8d30",
        "metrics.csv": "972f71dfd32ce5e6b566c50fb8806e0029b207569248d744f95faa1f5c2a3413",
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


def _bench_workloads():
    """bench/workloads.py, loaded from its file without importing the rest
    of the benchmark. Its dataclass needs the module registered first."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].WORKLOADS


# The benchmark workloads generated at seed 1, under the scenario id
# `<name>-1` that the benchmark's file name gives them. They reach ~400
# replicas and repeated pool migrations, which the fixtures never do.
GOLDEN_BENCH = {
    "mas-seasonal": {
        "events.log": "da339bc385e12154831c7252a34cf8065212c40b1c9619dd47dc84d6073ef407",
        "decisions.log": "69cba4c4e4034b3017aa3e400fe975c0a20416bbd7b1c1aa9c00c208af06c27b",
        "metrics.csv": "385317a1328ee76db3376f0f29144fa563fc36f3ef7aa95c59da5b53ebbb9bc7",
        "summary.txt": "9c57750ee10605ebee55e7840e907d679fbc36d4e9d9325e2d7921ff0c25fb56",
    },
    "hpa-wide": {
        "events.log": "9b6a795239bff4502ecdd933d812f2b6fc23c239ca76616a53ed43aca010a54f",
        "decisions.log": "73ce77ceb11a9ec86ec23f8df68f4b327db651cf176212e3ea702066b787094f",
        "metrics.csv": "480e4fc962bd0938aa48c5dd6db600c01c80cdb2a1bad4df05f183642988563f",
        "summary.txt": "f13cced0994c97408fb6916d31b3be8b81d0732b80f790907d04842b62a7f3f5",
    },
    "mas-migrate": {
        "events.log": "5f0a3446b69ad5e6d257e2c56ffa8f032c38cb16d5060ab6702bb13bb90beb5d",
        "decisions.log": "2bed883779ad0bdfa7b13dda16fef863f257c17d4fb67958857aec7711cc824d",
        "metrics.csv": "f54d02ccad02781232eb3e1ede50ed7132f60063ee6411e7cffe0361d6307627",
        "summary.txt": "7aa8295c0c5d9aba84031efb2b4e307c0aa12c0b4d18aa58b8eb6cb7cb99e0f7",
    },
    "hpa-long": {
        "events.log": "bbd1c9c912938bdf52fa65cd3f5ac02d99ee9a2f35b1281c4118dc9f172d8d7c",
        "decisions.log": "a429b64d4f2887fad64220839a4bcf68260329ce5f9e8298502ea1ff2e35ecb7",
        "metrics.csv": "5ab4cb37219831c6b7423b5573e99f4eede1532b3af889dfb52e7cb0f992f85f",
        "summary.txt": "0d9a7571dae614c7c77591bb328e85004ce191ab4250bcf7278f740fdd935a1d",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BENCH))
def test_bench_workload_artifacts_match_golden_digests(tmp_path, name):
    config = parse_scenario_text(_bench_workloads()[name].generate(1), f"{name}-1")
    run_scenario(config, out_dir=tmp_path)
    assert _digests(tmp_path, OUTPUT_FILES) == GOLDEN_BENCH[name]


# The two mas fixtures with three unmanaged pods appended, under the scenario
# id `<name>-other`. Their requests enter every node plan and the migration's
# sizing, and the ones left on the old pool keep it sized after the switch.
OTHER_PODS = "\nother.monitoring = 250\nother.legacy = 600\nother.cache = 250\n"

GOLDEN_OTHER = {
    "heartbeat-mas": {
        "events.log": "e5b86ed58be92064cf87d4a62a6db1d7b8334a9ef17772db050493ebec671da9",
        "decisions.log": "80eb3dc0376d9c72a2b2c9def3caf5e8cac62fcbbf07d7446a0ae1dd78e8d20c",
        "metrics.csv": "a2fca9558b1a0082a569b42e1220443e6cfaecc5f1b2761109a4740534e28667",
        "summary.txt": "eb4a8ca907de3c5b895fea90f969c62a9908654277892c60435d4c2fcec51f86",
    },
    "flash-sale-mas": {
        "events.log": "19f3001b90df107894f000c2272a35f4f90ea07fdaf18c6427c715d7f63ea9f2",
        "decisions.log": "f3eccc3f6c3fa04ad948e881d6b71471587defb752115a8a0efbd83a06ee1766",
        "metrics.csv": "b8c87f613c6e6b3f6b16630155ea2667241e3a6f0f4287ba348d777566ac1da8",
        "summary.txt": "6d454431678e37500c1ed76489701dc94fd32c4e5874ca91ee3ec70849511a29",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OTHER))
def test_unmanaged_pod_runs_match_golden_digests(tmp_path, name):
    text = (FIXTURES / f"{name}.scn").read_text() + OTHER_PODS
    run_scenario(parse_scenario_text(text, f"{name}-other"), out_dir=tmp_path)
    assert _digests(tmp_path, OUTPUT_FILES) == GOLDEN_OTHER[name]


# A three-phase custom workload whose middle phase alone is noisy, run under
# each controller with the scenario id `noisy-custom-<controller>`.
NOISY_CUSTOM = (
    "workload = custom\n"
    "seed = 11\n"
    "noise_amplitude = 0.2\n"
    "phase.1.duration = 120\n"
    "phase.1.target_vus = 200\n"
    "phase.2.duration = 240\n"
    "phase.2.target_vus = 400\n"
    "phase.2.ramp = step\n"
    "phase.2.noisy = true\n"
    "phase.3.duration = 120\n"
    "phase.3.target_vus = 50\n"
)

GOLDEN_NOISY_CUSTOM = {
    "hpa_ca": {
        "events.log": "2b60b4511d31a419eefeeb2e20a8b9436f0842f8dd6f8db9bc75557d253b9769",
        "decisions.log": "b18a33fd226b3a00cf8268edbcf6e75f2c1ac0eb4664671d9d9995dc1cca1348",
        "metrics.csv": "5ce0d53ca5249561c4ec5ea7fb0a2024ca65d9f8988687568d3c6237918c3ea2",
        "summary.txt": "ddea1007a9f191d57283fa6ee43193ea7454ad4bb7be7e35eee5c0df51433f18",
    },
    "mas_h2": {
        "events.log": "f3d3305f181f4eae6b735b53a6d1ad2cc117be80b95156698d02a8eaf3254fab",
        "decisions.log": "a3b33ac0b2e8814e58b0f17bdba2ff0fe5bab7b629f80c005bec6f79dd44f93a",
        "metrics.csv": "6a5696bdb7d6292e9559187188fe4e96c361ad0a6f76427d54f21ae9a97d0eaf",
        "summary.txt": "fc4f8c8842bee51276c1c17ab2496351080d12a5cdabd5f0ee0c786fdb0f89bc",
    },
}


@pytest.mark.parametrize("controller", sorted(GOLDEN_NOISY_CUSTOM))
def test_noisy_custom_runs_match_golden_digests(tmp_path, controller):
    text = NOISY_CUSTOM + f"controller = {controller}\n"
    run_scenario(parse_scenario_text(text, f"noisy-custom-{controller}"), out_dir=tmp_path)
    assert _digests(tmp_path, OUTPUT_FILES) == GOLDEN_NOISY_CUSTOM[controller]


def test_noise_lands_in_flagged_phases_or_in_every_phase_when_none_is():
    def noisy_phases(text):
        """Per phase, whether any second differs from the noise-free trace."""
        trace = parse_scenario_text(text + "controller = hpa_ca\n", "x").build_trace()
        clean_text = text.replace("noise_amplitude = 0.2", "noise_amplitude = 0")
        clean = parse_scenario_text(clean_text + "controller = hpa_ca\n", "x").build_trace()
        return [trace.demand[start:end] != clean.demand[start:end]
                for start, end in ((0, 120), (120, 360), (360, 480))]

    assert noisy_phases(NOISY_CUSTOM) == [False, True, False]
    assert noisy_phases(NOISY_CUSTOM.replace("phase.2.noisy = true\n", "")) == [True, True, True]
