import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pcaot.cli import main

from conftest import HAVE_GCC, needs_gcc

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@pytest.fixture(scope="module")
def sample_run(tmp_path_factory):
    """One full sample-campaign run shared by the read-only CLI tests."""
    if not HAVE_GCC:
        pytest.skip("gcc not available")
    outdir = tmp_path_factory.mktemp("cli-campaign")
    code = main(["run", "--config", str(SAMPLES / "campaign.json"), "--out", str(outdir)])
    assert code == 0
    return outdir


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "pcaot" in capsys.readouterr().out


def test_unknown_flag_exits_two(capsys):
    assert main(["run", "--config", "x", "--out", "y", "--frobnicate"]) == 2


def test_unknown_subcommand_exits_two():
    assert main(["explode"]) == 2


def test_missing_required_flag_exits_two():
    assert main(["run", "--config", "only"]) == 2


def test_dry_run_prints_plan(capsys, tmp_path):
    code = main(
        ["run", "--config", str(SAMPLES / "campaign.json"), "--out", str(tmp_path),
         "--dry-run", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    # 1 mock LLM x 3 strategies x 1 attempt + 1 compiler + serial = 5.
    assert doc == {
        "sections": 3,
        "versions_per_section": 5,
        "total_versions": 15,
        "total_llm_attempts": 9,
    }
    assert not any(tmp_path.iterdir())  # dry run writes nothing


def test_prepare_human_output(capsys):
    code = main(
        ["prepare", "--src", str(SAMPLES / "vecscale.c"),
         "--manifest", str(SAMPLES / "vecscale.manifest.json")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "section vecscale" in out
    assert "expected PO" in out


def test_prepare_json_output(capsys):
    code = main(
        ["prepare", "--src", str(SAMPLES / "chain_dp.c"),
         "--manifest", str(SAMPLES / "chain_dp.manifest.json"), "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["section_id"] == "chain_dp"
    assert doc["parallelizable"] is False
    assert doc["non_parallel_reason"] == "DP"


def test_prepare_mismatched_manifest_fails(capsys):
    code = main(
        ["prepare", "--src", str(SAMPLES / "vecscale.c"),
         "--manifest", str(SAMPLES / "chain_dp.manifest.json")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "'chain_dp'" in err and "has: 'vecscale'" in err


@pytest.mark.parametrize("missing", ["--src", "--manifest"])
def test_prepare_missing_file_is_one_error_line(tmp_path, capsys, missing):
    paths = {"--src": str(SAMPLES / "vecscale.c"),
             "--manifest": str(SAMPLES / "vecscale.manifest.json"),
             missing: str(tmp_path / "absent")}
    code = main(["prepare", *(item for pair in paths.items() for item in pair)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pcaot: error:")
    assert "absent" in lines[0]


def test_section_filter_unknown_id_exits_two(tmp_path):
    code = main(
        ["run", "--config", str(SAMPLES / "campaign.json"), "--out", str(tmp_path),
         "--section", "nonexistent", "--dry-run"]
    )
    assert code == 2


def test_validate_lists_an_unreadable_manifest(tmp_path, capsys):
    missing = tmp_path / "missing.manifest.json"
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({
        "sections": [{"source": str(SAMPLES / "vecscale.c"), "manifest": str(missing)}],
        "llm_backends": [{"kind": "mock", "tool_id": "mockllm"}],
    }))
    code = main(
        ["validate", "--config", str(config), "--out", str(tmp_path / "out"), "--json"]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"] == 0
    assert doc["skipped_sections"] == [f"<unreadable: {missing}>"]


def test_report_without_records_fails(tmp_path, capsys):
    code = main(
        ["report", "--config", str(SAMPLES / "campaign.json"), "--out", str(tmp_path)]
    )
    assert code == 1


@needs_gcc
def test_full_run_writes_reports(sample_run):
    for name in (
        "records.jsonl",
        "candidates.jsonl",
        "records.csv",
        "metrics.json",
        "failure_by_size.svg",
        "pattern_categories.svg",
        "speedups.svg",
    ):
        assert (sample_run / name).is_file(), name
    metrics = json.loads((sample_run / "metrics.json").read_text())
    assert metrics["overall_success_rate"] == 1.0
    rows = (sample_run / "records.csv").read_text().splitlines()
    assert len(rows) == 1 + 15


@needs_gcc
def test_sample_campaign_verdicts(sample_run):
    # The mock responses put "parallel for" on the outermost loop of vecscale
    # and sumsqrt (their expected pattern, PO) and leave chain_dp's
    # recurrence alone; copyc and the serial baseline pass the code through.
    expected = {}
    for sid, llm_category, plain_category in (
        ("vecscale", "ExpectedApplied", "UnexpectedCorrect"),
        ("sumsqrt", "ExpectedApplied", "UnexpectedCorrect"),
        ("chain_dp", "CorrectlyRefused", "CorrectlyRefused"),
    ):
        expected[(sid, "serial", None, None)] = ("Pass", plain_category)
        expected[(sid, "copyc", None, None)] = ("Pass", plain_category)
        for strategy in ("IP", "DIP", "CoT"):
            expected[(sid, "mockllm", strategy, 1)] = ("Pass", llm_category)
    rows = [json.loads(line) for line in (sample_run / "records.jsonl").read_text().splitlines()]
    got = {
        (r["section_id"], r["tool"], r["strategy"], r["attempt"]): (r["status"], r["category"])
        for r in rows
    }
    assert len(rows) == 15
    assert got == expected


@needs_gcc
def test_report_regeneration_is_byte_identical(sample_run, capsys):
    names = ("records.csv", "metrics.json", "failure_by_size.svg",
             "pattern_categories.svg", "speedups.svg")
    before = {name: (sample_run / name).read_bytes() for name in names}
    code = main(
        ["report", "--config", str(SAMPLES / "campaign.json"), "--out", str(sample_run)]
    )
    assert code == 0
    for name in names:
        assert (sample_run / name).read_bytes() == before[name], name


@needs_gcc
def test_rerun_is_idempotent(sample_run, capsys):
    lines_before = (sample_run / "records.jsonl").read_text().splitlines()
    code = main(["run", "--config", str(SAMPLES / "campaign.json"), "--out", str(sample_run)])
    assert code == 0
    lines_after = (sample_run / "records.jsonl").read_text().splitlines()
    assert lines_after == lines_before


@needs_gcc
def test_validate_json_summary(sample_run, capsys):
    code = main(
        ["validate", "--config", str(SAMPLES / "campaign.json"), "--out", str(sample_run),
         "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"] == 15
    assert doc["failures"] == 0
    assert doc["skipped_sections"] == []


@needs_gcc
def test_capture_stage_alone(tmp_path, capsys):
    code = main(
        ["capture", "--config", str(SAMPLES / "campaign.json"), "--out", str(tmp_path),
         "--section", "vecscale"]
    )
    assert code == 0
    assert (tmp_path / "sections" / "vecscale" / "capture" / "vecscale.out.ckpt").is_file()


def test_console_entry_point_help():
    exe = shutil.which("pcaot")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "prepare" in proc.stdout


def test_module_invocation():
    # The child finds pcaot in this checkout's src/, as pytest itself does.
    paths = [str(SAMPLES.parent / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "pcaot.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )
    assert proc.returncode == 0
