"""Tests of the campaign benchmark itself.

    python3 -m pytest perfbench/tests

The quick-mode tests need gcc with OpenMP and take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pcaot.campaign import SERIAL_TOOL_ID, load_campaign_config, plan  # noqa: E402
from pcaot.sections import load_manifest_file  # noqa: E402

SYNTHETIC = tuple(workloads.SPECS)
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="needs gcc")


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", SYNTHETIC)
def test_same_seed_gives_identical_bytes(tmp_path, name):
    workloads.generate(name, 7, tmp_path / "a")
    workloads.generate(name, 7, tmp_path / "b")
    workloads.generate(name, 8, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")
    assert {"campaign.json", "expected.json"} <= set(first)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_expected_table_covers_every_planned_version(tmp_path, name):
    workload = workloads.generate(name, 3, tmp_path)
    experiment = plan(load_campaign_config(workload.config))
    planned = set()
    for job in experiment.jobs:
        sid = load_manifest_file(job.manifest_path).section_id
        planned.add((sid, SERIAL_TOOL_ID, None, None))
        for origin in experiment.candidate_origins:
            strategy = origin.strategy.value if origin.strategy else None
            planned.add((sid, origin.tool_id, strategy, origin.attempt))
    keys = [run._key(row) for row in workload.expected]
    assert len(keys) == len(set(keys)) == experiment.total_versions
    assert set(keys) == planned


def test_verdict_gate_reports_wrong_missing_and_unplanned_rows(tmp_path):
    expected = workloads.generate("tiny", 1, tmp_path).expected
    records = [dict(row) for row in expected]
    assert run.verdict_errors(records, expected) == []
    records[0]["status"] = "NumericMismatch"
    extra = dict(records[1], tool="other")
    errors = run.verdict_errors(records[:-1] + [extra], expected)
    assert len(errors) == 3


def _span(sid, parent, name, layer, start, end, metric="", **attrs):
    return tracing.Span(sid, parent, name, layer, metric, start, end, attrs=attrs)


def test_self_time_is_duration_minus_covered_children():
    spans = [
        _span(1, None, "campaign", "campaign", 0, 100),
        _span(2, 1, "build", "runner", 10, 40),
        _span(3, 2, "detect", "pattern", 20, 30),
        _span(4, 1, "request", "backends", 35, 60),  # overlaps span 2 (another thread)
        _span(5, 1, "run", "runner", 90, 120),  # reaches past its parent
    ]
    assert tracing.self_times(spans) == {1: 100 - 50 - 10, 2: 20, 3: 10, 4: 25, 5: 30}


def test_layer_self_times_partition_the_campaign():
    spans = [
        _span(1, None, "campaign", "campaign", 0, 1000, "campaign.self_s"),
        _span(2, 1, "load_manifest_file", "sections", 0, 10, "sections.parse_s"),
        _span(3, 1, "generate_replay_driver", "instrument", 10, 30, "instrument.generate_s"),
        _span(4, 1, "build", "runner", 30, 200, "runner.build_s", bytes=2048),
        _span(5, 1, "run", "runner", 200, 300, "runner.driver_run_s", capture=True,
              run_failed=False),
        _span(6, 1, "run", "runner", 300, 600, "runner.driver_run_s", capture=False,
              run_failed=False),
        _span(7, 1, "collect_timing", "runner", 600, 610, "runner.driver_run_s", body_ns=250,
              spread=0.1),
        _span(8, 1, "read_checkpoint_file", "checkpoint", 610, 650, "checkpoint.decode_s",
              bytes=1 << 20),
        _span(9, 1, "compare", "checkpoint", 650, 700, "checkpoint.compare_s"),
        _span(10, 1, "MockLlm.request", "backends", 700, 720, "backends.produce_s"),
        _span(11, 1, "detect", "pattern", 720, 730, "pattern.detect_s"),
        _span(12, 1, "aggregate", "campaign", 730, 760, "campaign.aggregate_s"),
        _span(13, 1, "emit_reports", "campaign", 760, 900, "campaign.report_s"),
    ]
    metrics = tracing.layer_metrics(spans)
    assert sum(metrics[name] for name in tracing.SELF_METRICS) == pytest.approx(1000 / 1e9)
    assert metrics["campaign.self_s"] == pytest.approx(100 / 1e9)
    assert metrics["runner.capture_run_s"] == pytest.approx(100 / 1e9)
    assert metrics["runner.driver_run_s"] == pytest.approx(310 / 1e9)
    assert metrics["runner.driver_overhead_s"] == pytest.approx(60 / 1e9)
    assert metrics["checkpoint.decode_mb"] == 1.0
    assert metrics["instrument.driver_source_kb"] == 2.0
    assert metrics["runner.driver_runs"] == 1 and metrics["runner.run_failed"] == 0
    with pytest.raises(tracing.EntryPointMissing, match="pattern"):
        tracing.layer_metrics([s for s in spans if s.layer != "pattern"])


def test_count_gate_catches_an_extra_build(tmp_path):
    # tiny: 2 sections (2 capture builds and runs), 8 versions, of which one
    # has no code block (not built) and one aborts (built, run, failed).
    expected = workloads.generate("tiny", 1, tmp_path).expected
    spans = [_span(1, None, "campaign", "campaign", 0, 1000, "campaign.self_s")]

    def add(name, layer, metric, **attrs):
        start = 10 * len(spans)
        spans.append(_span(len(spans) + 1, 1, name, layer, start, start + 5, metric, **attrs))
        return spans[-1]

    add("load_manifest_file", "sections", "sections.parse_s")
    add("generate_replay_driver", "instrument", "instrument.generate_s")
    for _ in range(2 + 8 - 1):
        add("build", "runner", "runner.build_s", bytes=100)
    for k in range(2 + 7):
        add("run", "runner", "runner.driver_run_s", capture=k < 2, run_failed=k == 2)
    add("read_checkpoint_file", "checkpoint", "checkpoint.decode_s", bytes=100)
    for k in range(4):
        add("MockLlm.request", "backends", "backends.produce_s").failed = k == 0
    add("detect", "pattern", "pattern.detect_s")
    add("aggregate", "campaign", "campaign.aggregate_s")

    assert run.count_errors(tracing.layer_metrics(spans), expected) == []
    add("build", "runner", "runner.build_s", bytes=100)
    errors = run.count_errors(tracing.layer_metrics(spans), expected)
    assert errors == ["runner.builds is 10 but the expected table implies 9"]


def test_missing_entry_point_fails_loudly_and_patches_nothing():
    import pcaot.campaign

    original = pcaot.campaign.build
    tracer = tracing.Tracer([
        tracing.Target("pcaot.campaign", "build", "runner", "runner.build_s"),
        tracing.Target("pcaot.campaign", "no_such_entry_point", "campaign", "campaign.self_s"),
    ])
    with pytest.raises(tracing.EntryPointMissing, match="no_such_entry_point"):
        tracer.install()
    assert pcaot.campaign.build is original


def test_every_campaign_target_resolves_and_uninstalls():
    import pcaot.campaign

    original = pcaot.campaign.build
    tracer = tracing.Tracer(tracing.CAMPAIGN_TARGETS)
    tracer.install()
    try:
        assert pcaot.campaign.build is not original
    finally:
        tracer.uninstall()
    assert pcaot.campaign.build is original


def test_version_ids_come_from_scratch_directories():
    assert tracing._version_from_dir("/w/sections/s1/candidates/mockllm__IP__2") == "s1/mockllm/IP/2"
    assert tracing._version_from_dir("/w/sections/s1/serial") == "s1/serial"
    assert tracing._version_from_dir("/w/sections/s1/capture") == "s1/capture"
    assert tracing._version_from_dir("/w/other") is None


def test_inherited_openmp_settings_are_stripped_and_recorded(monkeypatch):
    monkeypatch.setenv("OMP_WAIT_POLICY", "active")
    monkeypatch.setenv("GOMP_SPINCOUNT", "0")
    env, stripped = run.pinned_env()
    assert stripped == {"GOMP_SPINCOUNT": "0", "OMP_WAIT_POLICY": "active"}
    assert not any(k.startswith(("OMP_", "GOMP_")) for k in env)


def test_layer_map_names_every_per_layer_metric():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_map = json.loads((BENCH / "layer_map.json").read_text(encoding="utf-8"))["layers"]
    assert list(layer_map) == [m["name"] for m in declared["per_layer"]]
    workload_names = {w["name"] for w in declared["workloads"]} | {"*"}
    e2e = {m["name"] for m in declared["end_to_end"]}
    for entry in layer_map.values():
        for move in entry["moves"]:
            assert move["metric"] in e2e and move["workload"] in workload_names


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _quick(capsys, trace: int) -> tuple[int, dict]:
    code = run.main(["--workload", "tiny", "--seed", "5", "--seconds", "1", "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@needs_gcc
def test_quick_mode_runs_a_tiny_workload_end_to_end(capsys):
    code, result = _quick(capsys, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.declared_metrics(trace=False))
    code, result = _quick(capsys, trace=1)
    assert code == 0 and result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["runner.run_failed"] == 1  # the tiny workload's one abort()
    assert metrics["backends.extract_errors"] == 1  # and its one empty code block
    assert metrics["wrong_verdict_share"] == 0


@needs_gcc
def test_a_corrupted_expected_row_fails_the_benchmark(capsys, monkeypatch):
    generate = workloads.generate

    def corrupted(name, seed, outdir):
        workload = generate(name, seed, outdir)
        workload.expected[0]["category"] = "Error"
        return workload

    monkeypatch.setattr(run.workloads, "generate", corrupted)
    code, result = _quick(capsys, trace=0)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
