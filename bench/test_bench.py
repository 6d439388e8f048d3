"""Checks of the benchmark itself:  python3 -m pytest bench/test_bench.py

Each test starts fresh interpreters, as the benchmark does; together they
take about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402

SEED = 3


def sample(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "sample.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def last_json_line(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, *args], cwd=cwd, stdout=subprocess.PIPE,
                         text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_tracing_changes_no_output_and_self_times_fit_in_wall():
    for workload in run.WORKLOADS:
        plain = sample(workload, SEED, 0)
        traced = sample(workload, SEED, 1)
        assert all(plain["ok"]) and all(traced["ok"]), workload
        assert plain["hashes"] == traced["hashes"], workload
        assert traced["missing"] == []
        self_s = sum(v for k, v in traced["layers"].items() if k.endswith(".self_s"))
        assert 0 < self_s <= sum(traced["item_s"]), workload


def test_gauge_scales_each_stretch_by_the_slices_around_it():
    nominal = reference.NOMINAL_S
    gauge = reference.Gauge()
    gauge.at, gauge.took = [0.0, 1.0, 2.0], [nominal, nominal, 3 * nominal]
    # Speed factor 1 on [0, 1] and 1/2 on [1, 2].
    assert abs(gauge.scaled(0.5, 1.5) - 0.75) < 1e-12
    assert abs(gauge.scaled(1.0, 2.0) - 0.5) < 1e-12


def test_gauge_measures_inside_a_long_item():
    gauge = reference.Gauge()
    gauge.start()
    t0 = gauge.work_clock()
    while gauge.work_clock() - t0 < 0.2:
        pass
    gauge.stop()
    assert len(gauge.took) >= 5
    assert 0 < gauge.scaled(t0, t0 + 0.2)


def test_game_values_do_not_depend_on_the_labelling():
    # Seed 0 is the verify-all labelling; other seeds relabel the same graphs,
    # and psi and eta are isomorphism invariants.  (CON's certificate
    # strategy follows the labels, so those items may differ.)
    def invariant(s):
        return [h for kind, h in zip(s["kinds"], s["hashes"]) if kind == "psi+eta"]
    assert invariant(sample("game", 0, 0)) == invariant(sample("game", SEED, 0))


def test_result_line_names_exactly_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        result = last_json_line("bench/run.py", "--workload", "search", "--seed", str(SEED),
                                "--seconds", "1", "--trace", str(trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {m["name"]: m["unit"] for m in declared} == \
            {k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "hall",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60)
    assert out.returncode != 0
    assert "metrics" not in out.stdout
