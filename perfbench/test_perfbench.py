"""Tests of the benchmark itself, at a tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

import dataclasses
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
sys.path.insert(0, str(bench.SRC))

#: Each workload shrunk to a fraction of a second of work (guest-net's
#: figure has no size knob, so it stays whole).
TINY = {
    "fleet-clean": dict(hosts=300),
    "fleet-storm": dict(hosts=200),
    "guest-net": dict(),
    "host-impact": dict(duration_s=1.0),
}

SIMULATED_COUNTS = (
    "simcore.engine.events", "osmodel.scheduler.context_switches",
    "osmodel.scheduler.preemptions", "osmodel.scheduler.starvation_boosts",
    "fleet.report.replicas", "fleet.report.valid",
    "fleet.recovery.uploads_retried", "fleet.recovery.uploads_lost",
    "fleet.recovery.vm_crashes", "fleet.recovery.degraded_windows",
)


def tiny(name):
    return dataclasses.replace(bench.WORKLOADS[name], **TINY[name])


def measure(name, tmp_path, trace=True, reference=None, seed=1):
    run = bench.Run(tiny(name), seed, 0.0, trace, tmp_path,
                    reference=reference, probes=1, min_passes=1)
    try:
        return run.execute()
    finally:
        bench.stop_workers()


@pytest.fixture(autouse=True)
def own_tmpdir(tmp_path, monkeypatch):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr("tempfile.tempdir", None)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, tmp_path):
    record = measure(name, tmp_path)
    assert record["failed"] == 0, record["errors"]
    spec = json.loads(bench.SPEC.read_text())
    for section, trace in (("end_to_end", False), ("per_layer", True)):
        line = bench.result_line(dict(record, trace=trace))
        assert line["correct"] is True
        assert line["attempted"] >= 1
        assert {n: m["unit"] for n, m in line["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[section]}
        assert all(math.isfinite(m["value"])
                   for m in line["metrics"].values())
    assert all(v > 0 for v in record["end_to_end"].values())
    printed = "\n".join(bench.human_lines(record))
    for metric in ("setup_s", "wall_s", "hosts_per_s", "reps_per_s",
                   "peak_rss_mb", "error_rate", "paper_err"):
        assert f"  {metric} " in printed


def test_a_tampered_reference_digest_fails(tmp_path):
    record = measure("fleet-clean", tmp_path, trace=False,
                     reference="0" * 64)
    assert record["attempted"] >= 1
    assert record["failed"] == record["attempted"]
    assert "does not match the committed reference" in record["errors"][0]
    assert bench.result_line(record)["correct"] is False


def test_the_right_reference_passes(tmp_path):
    first = measure("fleet-clean", tmp_path / "a", trace=False)
    again = measure("fleet-clean", tmp_path / "b", trace=False,
                    reference=first["digest"])
    assert again["failed"] == 0 and again["digest"] == first["digest"]


@pytest.mark.parametrize("name", ["fleet-clean", "fleet-storm"])
def test_fleet_passes_never_enable_metrics(name, tmp_path):
    record = measure(name, tmp_path)
    assert record["metrics_enabled_in_fleet_pass"] is False
    layers = record["per_layer"]
    assert layers["fleet.server.run_s"] > 0
    build = ("fleet.host.build_s" if name == "fleet-storm"
             else "fleet.columns.build_s")
    assert layers[build] > 0


def test_the_metrics_check_sees_an_enabled_registry(tmp_path):
    from repro.obs.metrics import METRICS

    run = bench.Run(tiny("fleet-clean"), 1, 0.0, True, tmp_path)
    METRICS.enable()
    try:
        run._operation(traced=True)
    finally:
        METRICS.disable()
    assert run.tracer.metrics_seen is True


@pytest.mark.parametrize("name", ["fleet-storm", "host-impact"])
def test_simulated_counts_repeat_between_traced_runs(name, tmp_path):
    first = measure(name, tmp_path / "a")["per_layer"]
    second = measure(name, tmp_path / "b")["per_layer"]
    assert {k: first[k] for k in SIMULATED_COUNTS} == \
        {k: second[k] for k in SIMULATED_COUNTS}


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(bench.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-clean",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
