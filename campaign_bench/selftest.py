"""Self-tests of the campaign benchmark, at tiny size (about a minute)::

    python3 -m pytest campaign_bench/selftest.py -q

The file name keeps the repository's own ``pytest`` run from collecting it.
They check that every workload passes its output check and reports exactly
the metrics ``BENCHMARK.json`` declares, that a wrong reference digest fails
every op, that each workload bypasses the layers it claims to bypass, that
the traced serial run accounts for its time and counts deterministically,
and that without the program's source the benchmark fails without a result.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys

import pytest

import benchmark_spec
import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (imports the program from src/)

WORKLOADS = tuple(workloads.WORKLOADS)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def tiny(workload: str, trace: int, seed: int = 3, experiments: str = "1") -> dict:
    args = run.parse_args([
        "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
        "--trace", str(trace), "--experiments", experiments,
    ])
    return run.run_benchmark(args)


@pytest.fixture(scope="module")
def traced() -> dict:
    return {workload: tiny(workload, trace=1) for workload in WORKLOADS}


def span_names(outcome: dict) -> set[str]:
    return {span["name"] for op in outcome["spans"] for span in op["spans"]}


def test_names_obey_the_grammar_and_are_used_once():
    spec = benchmark_spec.load()
    names = [item["name"] for section in ("workloads", "end_to_end", "per_layer")
             for item in spec[section]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))


def test_workload_names_match_the_benchmark_file():
    declared = [workload["name"] for workload in benchmark_spec.load()["workloads"]]
    assert declared == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_its_check_and_reports_end_to_end_metrics(workload):
    result = tiny(workload, trace=0)["result"]
    assert result["correct"], result
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(benchmark_spec.metric_units("end_to_end"))
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_passes_its_check_and_reports_per_layer_metrics(traced, workload):
    result = traced[workload]["result"]
    assert result["correct"], result
    assert set(result["metrics"]) == set(benchmark_spec.metric_units("per_layer"))
    for name, metric in result["metrics"].items():
        assert metric["unit"] == benchmark_spec.metric_units("per_layer")[name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_reference_digest_fails_every_op(workload):
    args = run.parse_args([
        "--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "1",
        "--experiments", "1",
    ])
    result = run.run_benchmark(args, expected_digest="0" * 64)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1 + 2 * run.MIN_OPS


def test_store_reanalyze_never_simulates(traced):
    names = span_names(traced["store-reanalyze"])
    assert "store.load" in names
    assert not names & {"runtime.experiment", "runtime.sync"}


def test_registry_serial_never_touches_the_store(traced):
    names = span_names(traced["registry-serial"])
    assert "runtime.experiment" in names and "runtime.sync" in names
    assert not names & {"store.append", "store.load"}


def test_pool_archive_appends_every_record_in_the_coordinator(traced):
    outcome = traced["pool-archive"]
    appends = sum(
        1 for op in outcome["spans"] for span in op["spans"] if span["name"] == "store.append"
    )
    ops = len(outcome["spans"])
    assert appends == ops * outcome["stamp"]["experiments_per_op"]
    assert "runtime.experiment" not in span_names(outcome)


def test_traced_serial_run_attributes_its_time_and_counts_deterministically(traced):
    first = traced["registry-serial"]["result"]["metrics"]
    again = tiny("registry-serial", trace=1)["result"]["metrics"]
    assert first["trace.attributed_frac"]["value"] >= 0.9
    for name in ("sim.events", "runtime.sync_messages", "runtime.sync_events"):
        assert first[name]["value"] > 0
        assert first[name]["value"] == again[name]["value"]


def test_the_default_seed_reproduces_the_pinned_output():
    stamp = tiny("registry-serial", trace=0, seed=0, experiments="10")["stamp"]
    assert stamp["expected"]["pinned"] and stamp["expected"]["pin_agrees"]
    assert stamp["failures"] == {}


def test_without_the_program_source_it_fails_without_a_result():
    checkout = run.WORK / "checkout-without-src"
    shutil.rmtree(checkout, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, checkout / "campaign_bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(benchmark_spec.SPEC, checkout / "BENCHMARK.json")
    environment = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    try:
        completed = subprocess.run(
            [sys.executable, "campaign_bench/run.py", "--workload", "registry-serial",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=checkout, env=environment, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(checkout, ignore_errors=True)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
