import errno
import json
import logging
import os
import shutil
import stat
import subprocess
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcaot import campaign, runner
from pcaot.backends import CompilerDriverConfig, MockLlm, PromptStrategy, extract_code
from pcaot.campaign import EmptyCampaign, OutcomeRecord, execute, plan, produce_candidates
from pcaot.cli import main
from pcaot.config import CampaignConfig, SectionJob, load_campaign_config
from pcaot.errors import ParseError
from pcaot.instrument import SourceKind
from pcaot.pattern import OutcomeCategory, ValidationStatus
from pcaot.report import Metrics, aggregate, emit_reports
from pcaot.runner import BuildSpec, run
from pcaot.sections import extract_sections

from conftest import needs_gcc


def _job(tmp_path, index=0):
    # Plan-level tests never open these files.
    return SectionJob(
        source_path=tmp_path / f"s{index}.c", manifest_path=tmp_path / f"s{index}.json"
    )


def _mock(tool_id="mock"):
    return MockLlm(tool_id=tool_id)


def _compilers(n):
    return tuple(
        CompilerDriverConfig(tool_id=f"cc{i}", command="cp {src} {out}") for i in range(n)
    )


def test_plan_reference_arithmetic(tmp_path):
    # Two LLMs, three strategies, three attempts, three compilers:
    # 2*3*3 + 3 + 1 = 22 versions per section; across 44 sections the LLM
    # attempt count is 44 * 2 * 3 * 3 = 792.
    config = CampaignConfig(
        sections=tuple(_job(tmp_path, i) for i in range(44)),
        llm_backends=(_mock("llm-a"), _mock("llm-b")),
        compiler_backends=_compilers(3),
        attempts=3,
    )
    experiment = plan(config)
    assert experiment.versions_per_section == 22
    assert experiment.total_versions == 44 * 22
    assert experiment.total_llm_attempts == 792


def test_plan_orders_candidates(tmp_path):
    config = CampaignConfig(
        sections=(_job(tmp_path),),
        llm_backends=(_mock("zeta"), _mock("alpha")),
        compiler_backends=(CompilerDriverConfig(tool_id="mid", command="cp {src} {out}"),),
        attempts=2,
        strategies=(PromptStrategy.IP, PromptStrategy.COT),
    )
    origins = plan(config).candidate_origins
    keys = [(o.tool_id, o.strategy.value if o.strategy else "", o.attempt or 0) for o in origins]
    assert keys == sorted(keys)
    assert keys[0][0] == "alpha"
    assert ("mid", "", 0) in keys


def test_plan_empty_campaign(tmp_path):
    with pytest.raises(EmptyCampaign):
        plan(CampaignConfig(sections=()))


@given(
    n_llm=st.integers(0, 3),
    n_strategies=st.integers(1, 3),
    attempts=st.integers(1, 4),
    n_compilers=st.integers(0, 3),
    n_sections=st.integers(1, 5),
)
@settings(max_examples=50)
def test_plan_arithmetic_law(n_llm, n_strategies, attempts, n_compilers, n_sections):
    strategies = tuple(PromptStrategy)[:n_strategies]
    config = CampaignConfig(
        sections=tuple(
            SectionJob(source_path=Path(f"s{i}.c"), manifest_path=Path(f"s{i}.json"))
            for i in range(n_sections)
        ),
        llm_backends=tuple(_mock(f"llm{i}") for i in range(n_llm)),
        compiler_backends=_compilers(n_compilers),
        strategies=strategies,
        attempts=attempts,
    )
    experiment = plan(config)
    assert experiment.versions_per_section == n_llm * n_strategies * attempts + n_compilers + 1
    assert experiment.total_llm_attempts == n_sections * n_llm * n_strategies * attempts
    assert len(experiment.candidate_origins) == experiment.versions_per_section - 1


def test_config_rejects_duplicate_tool_ids(tmp_path):
    with pytest.raises(ParseError):
        CampaignConfig(
            sections=(_job(tmp_path),),
            llm_backends=(_mock("x"),),
            compiler_backends=(CompilerDriverConfig(tool_id="x", command="cp {src} {out}"),),
        )


def test_config_reserves_serial(tmp_path):
    with pytest.raises(ParseError):
        CampaignConfig(sections=(_job(tmp_path),), llm_backends=(_mock("serial"),))


def test_config_validates_buckets(tmp_path):
    with pytest.raises(ParseError):
        CampaignConfig(sections=(_job(tmp_path),), size_buckets=(10, 10))
    with pytest.raises(ParseError):
        CampaignConfig(sections=(_job(tmp_path),), size_buckets=(0, 10))


def test_outcome_record_roundtrip():
    record = OutcomeRecord(
        section_id="s",
        tool="t",
        strategy="IP",
        attempt=2,
        status=ValidationStatus.PASS,
        category=OutcomeCategory.EXPECTED_APPLIED,
        detected=("PO",),
        pattern="PO",
        lines=7,
        median_time_ns=1234,
        speedup=2.5,
        run_wall_ns=56789,
    )
    assert OutcomeRecord.from_dict(record.to_dict()) == record
    # Rows written before run_wall_ns existed still load.
    old_row = {k: v for k, v in record.to_dict().items() if k != "run_wall_ns"}
    assert OutcomeRecord.from_dict(old_row).run_wall_ns is None


def test_outcome_record_speedup_needs_pass():
    with pytest.raises(ParseError):
        OutcomeRecord(
            section_id="s",
            tool="t",
            strategy=None,
            attempt=None,
            status=ValidationStatus.TIMEOUT,
            category=OutcomeCategory.ERROR,
            detected=(),
            pattern="PO",
            lines=1,
            speedup=2.0,
        )


# --- config file loading ---------------------------------------------------


def test_load_campaign_config(tmp_path):
    (tmp_path / "reply.txt").write_text("```c\nfor (;;) {}\n```")
    doc = {
        "sections": [
            {"source": "a.c", "manifest": "a.json", "support_code": "#define N 4"},
            {"source": "b.c", "manifest": "b.json", "hand_optimized_ns": 500},
        ],
        "llm_backends": [
            {"kind": "mock", "tool_id": "m1", "responses": {"*": "hi"},
             "response_files": {"a": "reply.txt"}},
            {"kind": "llm", "tool_id": "real", "endpoint": "http://127.0.0.1:9/v1",
             "model": "big-model", "temperature": 0.5},
        ],
        "compiler_backends": [{"tool_id": "cc", "command": "cc -par {src} -o {out}"}],
        "strategies": ["IP", "CoT"],
        "attempts": 2,
        "timing_repeats": 5,
        "tolerance": {"abs": 1e-12, "rel": 1e-7},
        "build": {"compiler_cmd": "clang {src} -o {out}", "flags": ["-O2"]},
        "threads": 8,
        "size_buckets": [5, 50],
        "timeout_s": 30.0,
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    config = load_campaign_config(path)
    assert config.sections[0].source_path == tmp_path / "a.c"
    assert config.sections[0].support_code == "#define N 4"
    assert config.sections[1].hand_optimized_ns == 500
    mock = config.llm_backends[0]
    assert mock.responses["a"] == "```c\nfor (;;) {}\n```"
    assert mock.responses["*"] == "hi"
    real = config.llm_backends[1]
    assert real.params.model == "big-model"
    assert real.params.temperature == 0.5
    assert real.params.top_p == 0.1
    assert config.strategies == (PromptStrategy.IP, PromptStrategy.COT)
    assert config.attempts == 2
    assert config.timing_repeats == 5
    assert config.tolerance.rel == 1e-7
    assert config.build.compiler_cmd == "clang {src} -o {out}"
    assert config.build.flags == ("-O2",)
    assert config.threads == 8
    assert config.size_buckets == (5, 50)
    assert config.timeout_s == 30.0


def test_load_campaign_config_rejects_bad_strategy(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"sections": [], "strategies": ["IP", "XX"]}))
    with pytest.raises(ParseError):
        load_campaign_config(path)


def test_load_campaign_config_rejects_garbage(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{ not json")
    with pytest.raises(ParseError):
        load_campaign_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(ParseError):
        load_campaign_config(path)


@pytest.mark.parametrize(
    "doc",
    [
        {"compiler_backends": [{"tool_id": "cc"}]},
        {"compiler_backends": [{"command": "cp {src} {out}"}]},
        {"compiler_backends": ["cp {src} {out}"]},
        {"llm_backends": ["mock"]},
        {"llm_backends": [{"kind": "mock", "tool_id": "m"}], "attempts": "1"},
        {"threads": 2.5},
        {"strategies": 3},
        {"tolerance": [1e-9]},
        {"build": "gcc {src} -o {out}"},
        {"tolerance": {"abs": "1"}},
        {"size_buckets": ["a", "b"]},
        {"llm_backends": [{"kind": "http", "tool_id": "h", "endpoint": "http://localhost:1",
                           "model": "m", "temperature": "0.2"}]},
        {"llm_backends": [{"kind": "mock", "tool_id": "m", "responses": [1]}]},
        {"timeout_s": "10"},
        {"timeout_s": 0},
        {"timeout_s": True},
        {"timeout_s": float("inf")},
        {"timeout_s": float("nan")},
        {"sections": [{"source": "a.c", "manifest": "a.json", "hand_optimized_ns": "fast"}]},
        {"sections": [{"source": "a.c", "manifest": "a.json", "hand_optimized_ns": 0}]},
        {"build": {"flags": "-O2"}},
        {"build": {"flags": ["-O2", 3]}},
        {"build": {"compiler_cmd": ["gcc", "{src}", "-o", "{out}"]}},
        {"sections": 5},
        {"llm_backends": 5},
        {"compiler_backends": 5},
        {"strategies": {"IP": 1}},
        {"size_buckets": 5},
        {"sections": [{"source": 5, "manifest": "a.json"}]},
        {"sections": [{"source": "a.c", "manifest": ["a"]}]},
        {"sections": [{"source": "a.c", "manifest": "a.json", "support_code": ["x"]}]},
        {"sections": [{"source": "a.c", "manifest": "a.json", "support_code_path": 5}]},
    ],
)
def test_load_campaign_config_rejects_malformed_entries(tmp_path, capsys, doc):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_campaign_config(path)
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pcaot: error: ") and err.count("\n") == 1, err


def test_load_campaign_config_defaults_match_dataclass(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"sections": []}))
    assert load_campaign_config(path) == CampaignConfig(sections=())


# --- execution (gcc) -------------------------------------------------------


SECTION_SOURCE = """\
#include <stdio.h>

int main(void) {
    static double v[512];
    double total = -1.0;
    long i;
    for (i = 0; i < 512; i++) v[i] = (double)i;
#pragma experimental section start id=tiny
    total = 0.0;
    for (i = 0; i < 512; i++) {
        total += v[i];
    }
#pragma experimental section stop
    printf("%f\\n", total);
    return 0;
}
"""

SECTION_MANIFEST = {
    "section_id": "tiny",
    "parallelizable": True,
    "expected_pattern": "PO",
    "variables": [
        {"name": "v", "elem_type": "f64", "extents": [512], "direction": "in"},
        {"name": "i", "elem_type": "i64", "direction": "in"},
        {"name": "total", "elem_type": "f64", "direction": "out"},
    ],
}


class CountingMock(MockLlm):
    def __init__(self, tool_id, responses):
        super().__init__(tool_id=tool_id, responses=responses)
        object.__setattr__(self, "calls", [])

    def complete(self, section_id, strategy, attempt, section_code):
        self.calls.append((section_id, strategy.value, attempt))
        return super().complete(section_id, strategy, attempt, section_code)


def _write_program(tmp_path, source, manifest):
    sid = manifest["section_id"]
    (tmp_path / f"{sid}.c").write_text(source)
    (tmp_path / f"{sid}.json").write_text(json.dumps(manifest))
    return SectionJob(source_path=tmp_path / f"{sid}.c", manifest_path=tmp_path / f"{sid}.json")


def _write_section(tmp_path):
    return _write_program(tmp_path, SECTION_SOURCE, SECTION_MANIFEST)


GOOD = (
    "```c\n"
    "    total = 0.0;\n"
    "#pragma omp parallel for reduction(+:total)\n"
    "    for (i = 0; i < 512; i++) {\n"
    "        total += v[i];\n"
    "    }\n"
    "```"
)
# Off by 5.0 on a sum of 130816: far outside rel=1e-6, so it must be
# flagged rather than absorbed by the tolerance.
WRONG = (
    "```c\n"
    "    total = 5.0;\n"
    "    for (i = 0; i < 512; i++) {\n"
    "        total += v[i];\n"
    "    }\n"
    "```"
)
GARBAGE = "```c\nfor this will not compile at all (\n```"
# A missing semicolon: gcc's errors stay within the body's own lines.
SYNTAX = GOOD.replace("total = 0.0;", "total = 0.0")


@needs_gcc
def test_execute_status_spread(tmp_path):
    job = _write_section(tmp_path)
    mock = CountingMock(
        "mock",
        {
            "tiny/IP/1": GOOD,
            "tiny/DIP/1": WRONG,
            "tiny/CoT/1": GARBAGE,
        },
    )
    config = CampaignConfig(
        sections=(job,),
        llm_backends=(mock,),
        attempts=1,
        timing_repeats=2,
        threads=1,
        build=BuildSpec(),
    )
    outdir = tmp_path / "out"
    records = execute(plan(config), config, outdir)
    by_key = {(r.tool, r.strategy): r for r in records}
    assert by_key[("serial", None)].status is ValidationStatus.PASS
    assert by_key[("serial", None)].speedup == 1.0
    assert by_key[("mock", "IP")].status is ValidationStatus.PASS
    assert by_key[("mock", "IP")].category is OutcomeCategory.EXPECTED_APPLIED
    assert by_key[("mock", "IP")].speedup is not None
    assert by_key[("mock", "DIP")].status is ValidationStatus.NUMERIC_MISMATCH
    assert by_key[("mock", "DIP")].category is OutcomeCategory.ERROR
    assert by_key[("mock", "CoT")].status is ValidationStatus.COMPILE_ERROR
    # Wire artifacts exist for resume.
    assert (outdir / "records.jsonl").is_file()
    assert (outdir / "candidates.jsonl").is_file()
    raw_rows = [
        json.loads(line) for line in (outdir / "candidates.jsonl").read_text().splitlines()
    ]
    assert {row["strategy"] for row in raw_rows} == {"IP", "DIP", "CoT"}
    assert all(row["raw_response"] for row in raw_rows)


@needs_gcc
def test_execute_resume_skips_done_work(tmp_path):
    job = _write_section(tmp_path)
    mock = CountingMock("mock", {"tiny": GOOD})
    config = CampaignConfig(
        sections=(job,),
        llm_backends=(mock,),
        strategies=(PromptStrategy.IP,),
        attempts=2,
        timing_repeats=1,
        threads=1,
    )
    outdir = tmp_path / "out"
    first = execute(plan(config), config, outdir)
    calls_after_first = len(mock.calls)
    assert calls_after_first == 2
    second = execute(plan(config), config, outdir)
    # No new LLM traffic, identical records.
    assert len(mock.calls) == calls_after_first
    assert [r.to_dict() for r in second] == [r.to_dict() for r in first]


@needs_gcc
def test_lines_that_do_not_parse_are_skipped_on_resume(tmp_path, caplog):
    _write_section(tmp_path)
    config_path = tmp_path / "campaign.json"
    config_path.write_text(json.dumps({
        "sections": [{"source": "tiny.c", "manifest": "tiny.json"}],
        "llm_backends": [{"tool_id": "mock", "kind": "mock", "responses": {"tiny": GOOD}}],
        "strategies": ["IP"],
        "attempts": 1,
        "timing_repeats": 1,
        "threads": 1,
    }))
    config = load_campaign_config(config_path)
    outdir = tmp_path / "out"
    first = execute(plan(config), config, outdir)
    report = ["report", "--config", str(config_path), "--out", str(outdir)]
    assert main(report) == 0
    csv = (outdir / "records.csv").read_bytes()
    # Two records and one candidate row, then a line that is not JSON, one that is no row,
    # and a copy of the last row with a field of the wrong type.
    first_bad = {"records.jsonl": 3, "candidates.jsonl": 2}
    wrong_type = {"records.jsonl": ("lines", "x"), "candidates.jsonl": ("code", 5)}
    for name, (key, value) in wrong_type.items():
        last = json.loads((outdir / name).read_text().splitlines()[-1])
        with open(outdir / name, "a", encoding="utf-8") as handle:
            handle.write('x\n{"a": 1}\n' + json.dumps({**last, key: value}) + "\n")
    caplog.set_level(logging.WARNING, logger="pcaot")
    second = execute(plan(config), config, outdir)
    assert [r.to_dict() for r in second] == [r.to_dict() for r in first]
    for name, line in first_bad.items():
        for number in (line, line + 1, line + 2):
            assert f"{outdir / name}:{number}: skipping a row that does not parse" in caplog.text
    (outdir / "records.csv").unlink()
    assert main(report) == 0
    assert (outdir / "records.csv").read_bytes() == csv
    # A record cut short is validated again.
    path = outdir / "records.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:20] + "\n"
    path.write_text("".join(lines))
    third = execute(plan(config), config, outdir)
    assert [(r.key(), r.status) for r in third] == [(r.key(), r.status) for r in first]
    assert len(path.read_text().splitlines()) == len(lines) + 1


@needs_gcc
def test_execute_validates_only_the_planned_sections(tmp_path):
    first = _write_section(tmp_path)
    other = tmp_path / "other"
    other.mkdir()
    (other / "tiny2.c").write_text(SECTION_SOURCE.replace("id=tiny", "id=tiny2"))
    (other / "tiny2.json").write_text(json.dumps({**SECTION_MANIFEST, "section_id": "tiny2"}))
    second = SectionJob(source_path=other / "tiny2.c", manifest_path=other / "tiny2.json")
    config = CampaignConfig(
        sections=(first, second),
        llm_backends=(CountingMock("mock", {"tiny": GOOD, "tiny2": GOOD}),),
        strategies=(PromptStrategy.IP,),
        attempts=1,
        timing_repeats=1,
        threads=1,
    )
    experiment = replace(plan(config), jobs=config.sections[:1])
    outdir = tmp_path / "out"
    records = execute(experiment, config, outdir)
    assert {(r.section_id, r.tool) for r in records} == {("tiny", "serial"), ("tiny", "mock")}
    assert not (outdir / "sections" / "tiny2").exists()


@needs_gcc
def test_timeout_status(tmp_path):
    job = _write_section(tmp_path)
    mock = CountingMock("mock", {"tiny": "```c\nfor (;;) { }\n```"})
    config = CampaignConfig(
        sections=(job,),
        llm_backends=(mock,),
        strategies=(PromptStrategy.IP,),
        attempts=1,
        timing_repeats=1,
        threads=1,
        timeout_s=2.0,
    )
    records = execute(plan(config), config, tmp_path / "out")
    statuses = {(r.tool, r.strategy): r.status for r in records}
    assert statuses[("mock", "IP")] is ValidationStatus.TIMEOUT


# Correct result, but each repeat also prints nine fake 1 ns timing lines.
FORGED_TIMING = (
    "```c\n"
    "    total = 0.0;\n"
    "    for (i = 0; i < 512; i++) {\n"
    "        total += v[i];\n"
    "    }\n"
    "    { int k; for (k = 0; k < 9; k++) printf(\"PCAOT_TIME_NS 1\\n\"); }\n"
    "```"
)


@needs_gcc
def test_forged_timing_lines_are_not_a_pass(tmp_path):
    job = _write_section(tmp_path)
    mock = CountingMock("mock", {"tiny": FORGED_TIMING})
    config = CampaignConfig(
        sections=(job,),
        llm_backends=(mock,),
        strategies=(PromptStrategy.IP,),
        attempts=1,
        timing_repeats=3,
        threads=1,
    )
    records = execute(plan(config), config, tmp_path / "out")
    by_key = {(r.tool, r.strategy): r for r in records}
    assert by_key[("serial", None)].status is ValidationStatus.PASS
    forged = by_key[("mock", "IP")]
    assert forged.status is not ValidationStatus.PASS
    assert forged.speedup is None


@needs_gcc
@pytest.mark.parametrize("statement", ["continue;", "break;"])
def test_a_body_that_leaves_early_is_timed_to_where_it_stops(tmp_path, statement):
    # A 20 ms nap, the right sum, then a statement that, in a driver whose
    # repeat loop held the body, skipped the second clock read.
    leaving = (
        "```c\n"
        "    { struct timespec nap = {0, 20000000}; nanosleep(&nap, 0); }\n"
        "    total = 0.0;\n"
        "    for (i = 0; i < 512; i++) {\n"
        "        total += v[i];\n"
        "    }\n"
        f"    {statement}\n"
        "```"
    )
    config = CampaignConfig(
        sections=(_write_section(tmp_path),),
        llm_backends=(CountingMock("mock", {"tiny": leaving}),),
        strategies=(PromptStrategy.IP,),
        attempts=1,
        timing_repeats=3,
        threads=1,
    )
    records = execute(plan(config), config, tmp_path / "out")
    leaver = {(r.tool, r.strategy): r for r in records}[("mock", "IP")]
    assert leaver.status is ValidationStatus.PASS
    assert 20e6 <= leaver.median_time_ns <= 2e9


@needs_gcc
def test_a_goto_cannot_reach_another_bodys_label(tmp_path):
    # The right sum, then a jump to a label that only another candidate defines.
    jumper = GOOD.replace("\n```", "\n    goto done;\n```")
    landing = GOOD.replace("\n```", "\n    done: ;\n```")
    config = CampaignConfig(
        sections=(_write_section(tmp_path),),
        llm_backends=(CountingMock("mock", {"tiny/IP": jumper, "tiny/DIP": landing}),),
        strategies=(PromptStrategy.IP, PromptStrategy.DIP),
        attempts=1,
        timing_repeats=1,
        threads=1,
    )
    records = execute(plan(config), config, tmp_path / "out")
    statuses = {(r.tool, r.strategy): r.status for r in records}
    assert statuses[("mock", "IP")] is ValidationStatus.COMPILE_ERROR
    assert statuses[("mock", "DIP")] is ValidationStatus.PASS


def _summing(extra):
    # The right sum, then extra lines inside the timed body.
    return (
        "```c\n    total = 0.0;\n    for (i = 0; i < 512; i++) {\n        total += v[i];\n    }\n"
        + extra
        + "```"
    )


# Each overwrites the driver's timing state, by name or by token pasting.
FORGED_NS = _summing("    { int k; for (k = 0; k < 3; k++) pcaot_ns[k] = 1; }\n")
FORGED_REP = _summing("    pcaot_rep = 2;\n")
FORGED_PASTE = _summing(
    "#define JOIN(a, b) a ## b\n    { int k; for (k = 0; k < 3; k++) JOIN(pcao, t_ns)[k] = 1; }\n"
)
# Mentions the reserved names only in a comment and a string.
MENTIONS = _summing("    /* pcaot_ns, PCAOT_TIME_NS */ (void)\"pcaot_rep ##\";\n")


@needs_gcc
def test_reserved_names_in_candidate_code_are_not_a_pass(tmp_path, caplog, monkeypatch):
    caplog.set_level(logging.DEBUG, logger="pcaot")
    generated, built = [], []
    real_generate, real_start = campaign.generate_replay_driver, campaign.start_build

    def counting_generate(bodies, *args, **kwargs):
        generated.append(list(bodies))
        return real_generate(bodies, *args, **kwargs)

    def counting_start(source, *args, **kwargs):
        built.append(source.text)
        return real_start(source, *args, **kwargs)

    monkeypatch.setattr(campaign, "generate_replay_driver", counting_generate)
    monkeypatch.setattr(campaign, "start_build", counting_start)
    mock = CountingMock("mock", {
        "tiny/IP/1": FORGED_NS,
        "tiny/IP/2": FORGED_REP,
        "tiny/IP/3": FORGED_PASTE,
        "tiny/IP/4": MENTIONS,
    })
    config = CampaignConfig(
        sections=(_write_section(tmp_path),),
        llm_backends=(mock,),
        strategies=(PromptStrategy.IP,),
        attempts=4,
        timing_repeats=3,
        threads=1,
    )
    outdir = tmp_path / "out"
    records = execute(plan(config), config, outdir)
    by_attempt = {r.attempt: r for r in records}
    assert by_attempt[None].status is ValidationStatus.PASS
    for attempt in (1, 2, 3):
        forged = by_attempt[attempt]
        assert forged.status is ValidationStatus.COMPILE_ERROR
        assert forged.speedup is None
        # Rejected before generation: nothing was written or built for it.
        assert not (outdir / "sections" / "tiny" / "candidates" / f"mock__IP__{attempt}").exists()
    assert by_attempt[4].status is ValidationStatus.PASS
    assert by_attempt[4].speedup is not None
    for name in ("'pcaot_ns'", "'pcaot_rep'", "'##'"):
        assert f"reserved {name}" in caplog.text
    # The serial and MENTIONS share one driver; the capture is the other compile.
    (serial,) = (s.body_text for s in extract_sections(SECTION_SOURCE, "tiny.c"))
    assert generated == [[serial, extract_code(MENTIONS)]]
    assert len(built) == 2
    for forged in (FORGED_NS, FORGED_REP, FORGED_PASTE):
        assert all(extract_code(forged) not in text for text in built)


@needs_gcc
def test_the_sections_own_code_may_use_a_reserved_name(tmp_path):
    tiny = "    total = 0.0;\n    for (i = 0; i < 512; i++) {\n        total += v[i];\n    }\n"
    own = "    double pcaot_tmp = 0.0;\n    for (i = 0; i < 512; i++) pcaot_tmp += v[i];\n    total = pcaot_tmp;\n"
    job = _write_section(tmp_path)
    job.source_path.write_text(SECTION_SOURCE.replace(tiny, own))
    identity = f"```c\n{own}```"
    (section,) = extract_sections(job.source_path.read_text(), "tiny.c")
    assert extract_code(identity) == section.body_text
    config = CampaignConfig(
        sections=(job,),
        llm_backends=(CountingMock("mock", {"tiny": identity}),),
        strategies=(PromptStrategy.IP,),
        attempts=1,
        timing_repeats=1,
        threads=1,
    )
    records = execute(plan(config), config, tmp_path / "out")
    # Only code other than the section's own is held to the name rule.
    assert [(r.tool, r.status) for r in records] == [
        ("serial", ValidationStatus.PASS),
        ("mock", ValidationStatus.PASS),
    ]


# 156 KiB of doubles, doubled over as many elements as sizeof says it holds.
TWICE_SOURCE = """\
#include <stdio.h>

int main(void) {
    static double a[20000];
    long i;
    for (i = 0; i < 20000; i++) a[i] = (double)i;
#pragma experimental section start id=twice
    for (i = 0; i < (long)(sizeof(a) / sizeof(a[0])); i++) {
        a[i] = 2.0 * a[i];
    }
#pragma experimental section stop id=twice
    printf("%f\\n", a[19999]);
    return 0;
}
"""


@needs_gcc
def test_sizeof_an_array_means_its_size_at_any_size(tmp_path):
    manifest = {**SECTION_MANIFEST, "section_id": "twice", "variables": [
        {"name": "a", "elem_type": "f64", "extents": [20000], "direction": "inout"},
        {"name": "i", "elem_type": "i64", "direction": "in"},
    ]}
    job = _write_program(tmp_path, TWICE_SOURCE, manifest)
    (section,) = extract_sections(TWICE_SOURCE, "twice.c")
    config = CampaignConfig(
        sections=(job,),
        llm_backends=(CountingMock("mock", {"twice": f"```c\n{section.body_text}```"}),),
        strategies=(PromptStrategy.IP,),
        attempts=1,
        timing_repeats=1,
        threads=1,
    )
    records = execute(plan(config), config, tmp_path / "out")
    assert [(r.tool, r.status) for r in records] == [
        ("serial", ValidationStatus.PASS),
        ("mock", ValidationStatus.PASS),
    ]


HISTOGRAM_SOURCE = """\
#include <stdint.h>
#include <stdio.h>

int main(void) {
    static int64_t h[BINS];
    static int32_t v[100000];
    long i;
    for (i = 0; i < 100000; i++) v[i] = (int32_t)((i * 7919) % BINS);
#pragma experimental section start id=hist
    for (i = 0; i < 100000; i++) {
        h[v[i]] += 1;
    }
#pragma experimental section stop id=hist
    printf("%lld\\n", (long long)h[0]);
    return 0;
}
"""
WHOLE_ARRAY_REDUCTION = (
    "```c\n"
    "#pragma omp parallel for reduction(+:h)\n"
    "    for (i = 0; i < 100000; i++) {\n"
    "        h[v[i]] += 1;\n"
    "    }\n"
    "```"
)


@needs_gcc
@pytest.mark.parametrize("bins", [4096, 16384])
def test_a_whole_array_reduction_compiles_at_any_size(tmp_path, bins):
    # 32 KiB and 128 KiB of int64_t: the clause names the array, whatever its size.
    manifest = {**SECTION_MANIFEST, "section_id": "hist", "variables": [
        {"name": "h", "elem_type": "i64", "extents": [bins], "direction": "inout"},
        {"name": "v", "elem_type": "i32", "extents": [100000], "direction": "in"},
        {"name": "i", "elem_type": "i64", "direction": "in"},
    ]}
    job = _write_program(tmp_path, HISTOGRAM_SOURCE.replace("BINS", str(bins)), manifest)
    config = CampaignConfig(
        sections=(job,),
        llm_backends=(CountingMock("mock", {"hist": WHOLE_ARRAY_REDUCTION}),),
        strategies=(PromptStrategy.IP,),
        attempts=1,
        timing_repeats=1,
        threads=2,
    )
    records = execute(plan(config), config, tmp_path / "out")
    assert [(r.tool, r.status) for r in records] == [
        ("serial", ValidationStatus.PASS),
        ("mock", ValidationStatus.PASS),
    ]


# The right sum, then two bytes that are not UTF-8 on stdout.
NOT_UTF8 = _summing('    printf("\\xff\\xfe\\n");\n')


@needs_gcc
def test_output_that_is_not_utf8_is_not_a_crash(tmp_path):
    mock = CountingMock("mock", {"tiny": NOT_UTF8})
    config = CampaignConfig(
        sections=(_write_section(tmp_path),),
        llm_backends=(mock,),
        strategies=(PromptStrategy.IP,),
        attempts=1,
        timing_repeats=2,
        threads=1,
    )
    records = execute(plan(config), config, tmp_path / "out")
    statuses = {(r.tool, r.strategy): r.status for r in records}
    # Its timing lines and its output are intact.
    assert statuses == {
        ("serial", None): ValidationStatus.PASS,
        ("mock", "IP"): ValidationStatus.PASS,
    }


# The right sum, then the candidate's own output checkpoint, whose one
# record is named by two bytes that are not UTF-8, three timing lines of its
# own and an exit before the driver writes anything.
FORGED_CKPT = _summing(
    "    {\n"
    '        static const char forged[] = "PCAO\\1\\0\\0\\0\\1\\0\\0\\0\\2\\0\\377\\376";\n'
    '        FILE *out = fopen("tiny.out.ckpt", "wb");\n'
    "        int k;\n"
    "        fwrite(forged, 1, sizeof forged - 1, out);\n"
    "        fclose(out);\n"
    '        for (k = 0; k < 3; k++) printf("PCAOT_TIME_NS 1\\n");\n'
    "        exit(0);\n"
    "    }\n"
)


@needs_gcc
def test_a_checkpoint_name_that_is_not_utf8_is_not_a_crash(tmp_path):
    config = CampaignConfig(
        sections=(_write_section(tmp_path),),
        llm_backends=(CountingMock("mock", {"tiny": FORGED_CKPT}),),
        strategies=(PromptStrategy.IP,),
        attempts=1,
        timing_repeats=3,
        threads=1,
    )
    outdir = tmp_path / "out"
    records = execute(plan(config), config, outdir)
    statuses = {(r.tool, r.strategy): r.status for r in records}
    assert statuses == {
        ("serial", None): ValidationStatus.PASS,
        ("mock", "IP"): ValidationStatus.RUNTIME_ERROR,
    }
    assert len((outdir / "records.jsonl").read_text().splitlines()) == 2


@needs_gcc
def test_each_version_generates_its_driver_once(tmp_path, monkeypatch):
    calls = []
    real_generate = campaign.generate_replay_driver

    def counting_generate(bodies, *args, **kwargs):
        calls.append(list(bodies))
        return real_generate(bodies, *args, **kwargs)

    monkeypatch.setattr(campaign, "generate_replay_driver", counting_generate)
    mock = CountingMock("mock", {
        "tiny/IP": GOOD,
        "tiny/DIP": SYNTAX,
        "tiny/CoT/1": FORGED_NS,
        "tiny/CoT/2": "",
    })
    config = CampaignConfig(
        sections=(_write_section(tmp_path),),
        llm_backends=(mock,),
        compiler_backends=(CompilerDriverConfig(tool_id="copyc", command="cp {src} {out}"),),
        attempts=2,
        timing_repeats=1,
        threads=1,
    )
    outdir = tmp_path / "out"
    first = execute(plan(config), config, outdir)
    statuses = {(r.tool, r.strategy, r.attempt): r.status for r in first}
    assert statuses == {
        ("serial", None, None): ValidationStatus.PASS,
        ("copyc", None, None): ValidationStatus.PASS,
        ("mock", "CoT", 1): ValidationStatus.COMPILE_ERROR,
        ("mock", "CoT", 2): ValidationStatus.EXTRACTION_ERROR,
        **{("mock", "DIP", a): ValidationStatus.COMPILE_ERROR for a in (1, 2)},
        **{("mock", "IP", a): ValidationStatus.PASS for a in (1, 2)},
    }
    # One section driver for the three distinct bodies (serial = copyc, the
    # syntax error, GOOD); not the rejected or the empty CoT responses.  gcc
    # names the syntax error, which gets a driver of its own, and the other
    # two share a new section driver.
    (serial,) = (s.body_text for s in extract_sections(SECTION_SOURCE, "tiny.c"))
    syntax, good = extract_code(SYNTAX), extract_code(GOOD)
    assert calls == [[serial, syntax, good], [syntax], [serial, good]]
    calls.clear()
    second = execute(plan(config), config, outdir)
    assert calls == []
    assert [r.to_dict() for r in second] == [r.to_dict() for r in first]


@needs_gcc
def test_a_body_with_unbalanced_parentheses_gets_its_own_driver(tmp_path, monkeypatch):
    calls = []
    real_generate = campaign.generate_replay_driver

    def counting_generate(bodies, *args, **kwargs):
        calls.append(list(bodies))
        return real_generate(bodies, *args, **kwargs)

    monkeypatch.setattr(campaign, "generate_replay_driver", counting_generate)
    config = CampaignConfig(
        sections=(_write_section(tmp_path),),
        llm_backends=(CountingMock("mock", {"tiny/IP": GOOD, "tiny/CoT": GARBAGE}),),
        strategies=(PromptStrategy.IP, PromptStrategy.COT),
        attempts=1,
        timing_repeats=1,
        threads=1,
    )
    records = execute(plan(config), config, tmp_path / "out")
    statuses = {(r.tool, r.strategy): r.status for r in records}
    assert statuses == {
        ("serial", None): ValidationStatus.PASS,
        ("mock", "CoT"): ValidationStatus.COMPILE_ERROR,
        ("mock", "IP"): ValidationStatus.PASS,
    }
    # GARBAGE never joins the section driver, so no section driver fails.
    (serial,) = (s.body_text for s in extract_sections(SECTION_SOURCE, "tiny.c"))
    assert calls == [[serial, extract_code(GOOD)], [extract_code(GARBAGE)]]


@needs_gcc
def test_each_driver_is_queued_once(tmp_path, monkeypatch):
    queued = []
    real_start_build = campaign.start_build

    def recording_start_build(source, spec, on_failure=None):
        if source.kind is SourceKind.REPLAY_DRIVER:
            queued.append(source.text)
        return real_start_build(source, spec, on_failure)

    monkeypatch.setattr(campaign, "start_build", recording_start_build)
    # Each strategy repeats itself; copyc hands back the serial code.
    mock = CountingMock("mock", {"tiny/IP": GOOD, "tiny/DIP": WRONG, "tiny/CoT": SYNTAX})
    config = CampaignConfig(
        sections=(_write_section(tmp_path),),
        llm_backends=(mock,),
        compiler_backends=(CompilerDriverConfig(tool_id="copyc", command="cp {src} {out}"),),
        attempts=2,
        timing_repeats=1,
        threads=1,
    )
    records = execute(plan(config), config, tmp_path / "out")
    assert len(records) == 8
    # The failed section driver, SYNTAX's own driver and the new section
    # driver of the other three bodies, once each for 8 versions.
    assert len(queued) == len(set(queued)) == 3


@needs_gcc
def test_output_directory_rebuilds_a_driver(tmp_path):
    job = _write_section(tmp_path)
    config = CampaignConfig(
        sections=(job,),
        llm_backends=(CountingMock("mock", {"tiny": GOOD}),),
        strategies=(PromptStrategy.IP,),
        attempts=1,
        timing_repeats=1,
        threads=1,
    )
    outdir = tmp_path / "out"
    records = execute(plan(config), config, outdir)
    assert {r.status for r in records} == {ValidationStatus.PASS}
    section = outdir / "sections" / "tiny"
    scratch = section / "candidates" / "mock__IP__1"
    # The section driver holds the serial body and the candidate's.
    argv = (scratch / "driver.args").read_text().split()
    assert argv == ["1"]
    assert (section / "serial" / "driver.c").read_bytes() == (scratch / "driver.c").read_bytes()
    # Only the output directory: the driver and the captured input.
    rebuilt = tmp_path / "rebuilt"
    rebuilt.mkdir()
    shutil.copyfile(section / "capture" / "tiny.in.ckpt", rebuilt / "tiny.in.ckpt")
    proc = subprocess.run(
        ["gcc", str(scratch / "driver.c"), "-o", str(rebuilt / "driver"), *config.build.flags],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = run(rebuilt / "driver", env={"OMP_NUM_THREADS": "1"}, args=argv)
    assert result.exit_code == 0, result.stderr
    assert (rebuilt / "tiny.out.ckpt").read_bytes() == (scratch / "tiny.out.ckpt").read_bytes()


@needs_gcc
def test_gcc_runs_once_per_distinct_driver(tmp_path):
    spec, log = _logging_gcc(tmp_path)
    job = _write_section(tmp_path)
    # Each strategy repeats itself; copyc hands back the serial code.
    mock = CountingMock("mock", {"tiny/IP": GOOD, "tiny/DIP": WRONG, "tiny/CoT": SYNTAX})
    config = CampaignConfig(
        sections=(job,),
        llm_backends=(mock,),
        compiler_backends=(CompilerDriverConfig(tool_id="copyc", command="cp {src} {out}"),),
        attempts=2,
        timing_repeats=1,
        threads=1,
        build=spec,
    )
    outdir = tmp_path / "out"
    records = execute(plan(config), config, outdir)
    statuses = {(r.tool, r.strategy, r.attempt): r.status for r in records}
    assert statuses == {
        ("serial", None, None): ValidationStatus.PASS,
        ("copyc", None, None): ValidationStatus.PASS,
        **{("mock", "IP", a): ValidationStatus.PASS for a in (1, 2)},
        **{("mock", "DIP", a): ValidationStatus.NUMERIC_MISMATCH for a in (1, 2)},
        **{("mock", "CoT", a): ValidationStatus.COMPILE_ERROR for a in (1, 2)},
    }
    # One capture and the section driver of the 4 distinct bodies (serial =
    # copyc, SYNTAX, WRONG, GOOD).  It fails, so the SYNTAX body gets a
    # driver of its own, built in the first directory that needs it, and
    # the other three a new section driver.
    section = outdir / "sections" / "tiny"
    compiled = [str(Path(line).relative_to(section)) for line in log.read_text().splitlines()]
    assert sorted(compiled) == [
        "candidates/mock__CoT__1/driver.c",
        "capture/capture.c",
        "serial/driver.c",
        "serial/driver.c",
    ]
    # Every version that built still has its own source and binary.
    version_dirs = [section / "serial", *(section / "candidates").iterdir()]
    assert len(version_dirs) == 8
    for version_dir in version_dirs:
        assert (version_dir / "driver.c").is_file()
        if "CoT" not in version_dir.name:
            assert os.access(version_dir / "driver", os.X_OK)


def _logging_gcc(tmp_path):
    # gcc that first appends its source argument to a log.
    script = tmp_path / "logging-gcc"
    log = tmp_path / "gcc.log"
    script.write_text(f'#!/bin/sh\necho "$1" >> {log}\nexec gcc "$@"\n')
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return BuildSpec(compiler_cmd=f"{script} {{src}} -o {{out}}"), log


@needs_gcc
def test_every_compile_precedes_the_first_timed_run(tmp_path, monkeypatch):
    spec, log = _logging_gcc(tmp_path)
    compiled_before_run = []
    real_run = campaign.run

    def recording_run(binary, timeout_s=60.0, env=None, args=()):
        compiled_before_run.append(len(log.read_text().splitlines()))
        return real_run(binary, timeout_s=timeout_s, env=env, args=args)

    monkeypatch.setattr(campaign, "run", recording_run)
    static = GOOD.replace("reduction(+:total)", "reduction(+:total) schedule(static)")
    mock = CountingMock("mock", {"tiny/IP": GOOD, "tiny/DIP": static, "tiny/CoT": SYNTAX})
    config = CampaignConfig(
        sections=(_write_section(tmp_path),),
        llm_backends=(mock,),
        attempts=1,
        timing_repeats=1,
        threads=1,
        build=spec,
    )
    outdir = tmp_path / "out"
    records = execute(plan(config), config, outdir)
    statuses = {(r.tool, r.strategy): r.status for r in records}
    assert statuses == {
        ("serial", None): ValidationStatus.PASS,
        ("mock", "IP"): ValidationStatus.PASS,
        ("mock", "DIP"): ValidationStatus.PASS,
        ("mock", "CoT"): ValidationStatus.COMPILE_ERROR,
    }
    # The capture, the failed section driver of four bodies, the syntax
    # error's own driver and the section driver of the other three, which the
    # passing versions ran: all before the capture run.
    assert len(log.read_text().splitlines()) == 4
    assert compiled_before_run == [4] * 4
    section = outdir / "sections" / "tiny"
    assert (section / "serial" / "driver.args").read_text() == "0\n"
    for name, argv in (("mock__DIP__1", "1\n"), ("mock__IP__1", "2\n")):
        assert (section / "candidates" / name / "driver.args").read_text() == argv
        assert (section / "candidates" / name / "driver.c").read_bytes() == (
            section / "serial" / "driver.c"
        ).read_bytes()
    assert "pcaot_body_2" in (section / "serial" / "driver.c").read_text()


@needs_gcc
@pytest.mark.parametrize("named", [None, 0])
def test_a_failed_section_driver_falls_back_to_one_body_drivers(tmp_path, named):
    # gcc, except that every driver of several bodies (one with a body 1)
    # fails with one error line, which names no body or body 0.
    where = "driver.c" if named is None else f"pcaot_body_{named}.c"
    script = tmp_path / "nosection-cc"
    log = tmp_path / "gcc.log"
    script.write_text(
        f'#!/bin/sh\necho "$1" >> {log}\n'
        f'if grep -q pcaot_body_1.c "$1"; then echo "{where}:1:1: error: no" >&2; exit 1; fi\n'
        'exec gcc "$@"\n'
    )
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    static = GOOD.replace("reduction(+:total)", "reduction(+:total) schedule(static)")
    mock = CountingMock("mock", {"tiny/IP": GOOD, "tiny/DIP": WRONG, "tiny/CoT": static})
    config = CampaignConfig(
        sections=(_write_section(tmp_path),),
        llm_backends=(mock,),
        attempts=1,
        timing_repeats=1,
        threads=1,
        build=BuildSpec(compiler_cmd=f"{script} {{src}} -o {{out}}"),
    )
    outdir = tmp_path / "out"
    records = execute(plan(config), config, outdir)
    statuses = {(r.tool, r.strategy): r.status for r in records}
    assert statuses == {
        ("serial", None): ValidationStatus.PASS,
        ("mock", "CoT"): ValidationStatus.PASS,
        ("mock", "DIP"): ValidationStatus.NUMERIC_MISMATCH,
        ("mock", "IP"): ValidationStatus.PASS,
    }
    section = outdir / "sections" / "tiny"
    compiled = [str(Path(line).relative_to(section)) for line in log.read_text().splitlines()]
    alone = ["candidates/mock__CoT__1/driver.c", "candidates/mock__DIP__1/driver.c",
             "candidates/mock__IP__1/driver.c", "serial/driver.c"]
    # Named: the serial body (0) alone and a new section driver for the
    # other three, built in the first directory that needs it, which fails
    # too.  Either way each body ends alone.
    retried = [] if named is None else ["candidates/mock__CoT__1/driver.c"]
    assert sorted(compiled) == sorted(
        ["capture/capture.c", "serial/driver.c", *alone, *retried]
    )
    for version_dir in (section / "serial", *(section / "candidates").iterdir()):
        assert (version_dir / "driver.args").read_text() == "0\n"
        assert "pcaot_body_1" not in (version_dir / "driver.c").read_text()


def _tiny_jobs(tmp_path, *ids):
    # Sections with the tiny section's code and manifest under other ids.
    return tuple(
        _write_program(
            tmp_path,
            SECTION_SOURCE.replace("id=tiny", f"id={sid}"),
            {**SECTION_MANIFEST, "section_id": sid},
        )
        for sid in ids
    )


def _tiny_config(jobs, responses, **kwargs):
    return CampaignConfig(
        sections=jobs,
        llm_backends=(CountingMock("mock", responses),),
        strategies=kwargs.pop("strategies", (PromptStrategy.IP,)),
        attempts=1,
        timing_repeats=1,
        threads=1,
        **kwargs,
    )


def test_sections_are_dealt_over_the_build_workers_by_support_code():
    threads = threading.active_count()
    codes = ["", "", "h", "", "h"]
    assert campaign._deal(codes, 1) == [[0, 1, 3], [2, 4]]
    assert campaign._deal(codes, 2) == [[0, 3], [1], [2], [4]]
    assert campaign._deal(codes, 8) == [[0], [1], [3], [2], [4]]
    assert campaign._deal([], 2) == []
    assert threading.active_count() == threads


@needs_gcc
@pytest.mark.parametrize("width", [1, 2, None])
def test_a_campaign_compiles_its_captures_and_one_driver_per_build_worker(
    tmp_path, monkeypatch, width
):
    if width is not None:
        monkeypatch.setattr(campaign, "BUILD_WORKERS", width)
    spec, log = _logging_gcc(tmp_path)
    jobs = _tiny_jobs(tmp_path, "t0", "t1", "t2")
    config = _tiny_config(jobs, {"*": GOOD}, build=spec)
    outdir = tmp_path / "out"
    records = execute(plan(config), config, outdir)
    assert [r.status for r in records] == [ValidationStatus.PASS] * 6
    compiled = log.read_text().splitlines()
    assert len(compiled) == len(jobs) + min(len(jobs), campaign.BUILD_WORKERS)
    # Section n is dealt to driver n mod the driver count.
    drivers = min(len(jobs), campaign.BUILD_WORKERS)
    text = {n: (outdir / "sections" / f"t{n}" / "serial" / "driver.c").read_text() for n in range(3)}
    for n in (1, 2):
        assert (text[n] == text[0]) is (n % drivers == 0)


@needs_gcc
def test_sections_with_identical_bodies_keep_their_own_entries(tmp_path, monkeypatch):
    monkeypatch.setattr(campaign, "BUILD_WORKERS", 1)
    config = _tiny_config(_tiny_jobs(tmp_path, "t0", "t1"), {"*": GOOD})
    outdir = tmp_path / "out"
    records = execute(plan(config), config, outdir)
    assert [(r.section_id, r.tool, r.status) for r in records] == [
        (sid, tool, ValidationStatus.PASS) for sid in ("t0", "t1") for tool in ("serial", "mock")
    ]
    # One driver of both sections, whose bodies are the same two texts:
    # t1's follow t0's, and each runs in its own section's function.
    dirs = [outdir / "sections" / sid / version
            for sid in ("t0", "t1") for version in ("serial", "candidates/mock__IP__1")]
    assert [(d / "driver.args").read_text() for d in dirs] == ["0\n", "1\n", "2\n", "3\n"]
    assert len({(d / "driver.c").read_bytes() for d in dirs}) == 1
    assert "pcaot_section_1(pcaot_which)" in (dirs[0] / "driver.c").read_text()


@needs_gcc
def test_a_label_may_recur_in_bodies_of_sections_that_share_a_driver(tmp_path, monkeypatch):
    monkeypatch.setattr(campaign, "BUILD_WORKERS", 1)
    spec, log = _logging_gcc(tmp_path)
    labelled = GOOD.replace("\n```", "\n    done: ;\n```")
    config = _tiny_config(_tiny_jobs(tmp_path, "t0", "t1"), {"*": labelled}, build=spec)
    records = execute(plan(config), config, tmp_path / "out")
    assert [r.status for r in records] == [ValidationStatus.PASS] * 4
    # Two captures and the one driver, which compiled at the first try.
    assert len(log.read_text().splitlines()) == 3


@needs_gcc
def test_sections_with_different_support_code_never_share_a_driver(tmp_path, monkeypatch):
    monkeypatch.setattr(campaign, "BUILD_WORKERS", 1)
    # The same helper name, defined two ways: one translation unit could not hold both.
    t0, t1, t2 = _tiny_jobs(tmp_path, "t0", "t1", "t2")
    jobs = (
        replace(t0, support_code="static double scale(void) { return 1.0; }\n"),
        replace(t1, support_code="static int scale(void) { return 1; }\n"),
        t2,
    )
    spec, log = _logging_gcc(tmp_path)
    config = _tiny_config(jobs, {"*": GOOD}, build=spec)
    outdir = tmp_path / "out"
    records = execute(plan(config), config, outdir)
    assert [r.status for r in records] == [ValidationStatus.PASS] * 6
    assert len(log.read_text().splitlines()) == 6
    for job in jobs:
        text = (outdir / "sections" / job.source_path.stem / "serial" / "driver.c").read_text()
        assert "pcaot_section_1" not in text
        assert text.count("scale(void)") == (job.support_code != "")


@needs_gcc
@pytest.mark.parametrize("width", [1, 3])
def test_a_syntax_error_in_one_section_leaves_the_others_verdicts_unchanged(
    tmp_path, monkeypatch, width
):
    monkeypatch.setattr(campaign, "BUILD_WORKERS", width)
    spec, log = _logging_gcc(tmp_path)
    responses = {"t1/IP": SYNTAX, "t2/IP": WRONG, "*": GOOD}
    strategies = (PromptStrategy.IP, PromptStrategy.DIP)
    config = _tiny_config(_tiny_jobs(tmp_path, "t0", "t1", "t2"), responses,
                          strategies=strategies, build=spec)
    records = execute(plan(config), config, tmp_path / "out")
    statuses = {(r.section_id, r.tool, r.strategy): r.status for r in records}
    expected = {
        (sid, tool, strategy): ValidationStatus.PASS
        for sid in ("t0", "t1", "t2")
        for tool, strategy in (("serial", None), ("mock", "DIP"), ("mock", "IP"))
    }
    expected[("t1", "mock", "IP")] = ValidationStatus.COMPILE_ERROR
    expected[("t2", "mock", "IP")] = ValidationStatus.NUMERIC_MISMATCH
    assert statuses == expected
    # Three captures, then in one driver of all three sections: it fails,
    # SYNTAX goes alone and the other bodies share a new driver.  With a
    # driver per section, only t1's falls back.
    assert len(log.read_text().splitlines()) == (3 + 3 if width == 1 else 3 + 3 + 2)


@needs_gcc
def test_a_candidate_that_calls_a_section_function_is_a_compile_error_without_a_build(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(campaign, "BUILD_WORKERS", 1)
    spec, log = _logging_gcc(tmp_path)
    calling = GOOD.replace("\n```", "\n    if (total < 0.0) pcaot_section_0(0);\n```")
    config = _tiny_config(_tiny_jobs(tmp_path, "t0", "t1"), {"t1": calling, "*": GOOD}, build=spec)
    outdir = tmp_path / "out"
    records = execute(plan(config), config, outdir)
    assert [(r.section_id, r.tool, r.status) for r in records] == [
        ("t0", "serial", ValidationStatus.PASS),
        ("t0", "mock", ValidationStatus.PASS),
        ("t1", "serial", ValidationStatus.PASS),
        ("t1", "mock", ValidationStatus.COMPILE_ERROR),
    ]
    assert not (outdir / "sections" / "t1" / "candidates" / "mock__IP__1").exists()
    # Two captures and the driver of the three other versions.
    assert len(log.read_text().splitlines()) == 3


# Stores how many CPUs the body's thread may run on.
AFFINITY_SOURCE = """\
#include <stdio.h>

int sched_getaffinity(int pid, unsigned long size, void *mask);

int main(void) {
    int ncpu = 0;
#pragma experimental section start id=aff
    {
        unsigned long mask[16] = {0};
        int j;
        ncpu = 0;
        if (sched_getaffinity(0, sizeof mask, mask) == 0)
            for (j = 0; j < 16; j++) ncpu += __builtin_popcountl(mask[j]);
    }
#pragma experimental section stop
    printf("%d\\n", ncpu);
    return 0;
}
"""
AFFINITY_PARALLEL = """```c
#pragma omp parallel
    {
#pragma omp master
        {
            unsigned long mask[16] = {0};
            int j;
            ncpu = 0;
            if (sched_getaffinity(0, sizeof mask, mask) == 0)
                for (j = 0; j < 16; j++) ncpu += __builtin_popcountl(mask[j]);
        }
    }
```"""


@needs_gcc
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable cores")
def test_serial_code_is_not_pinned_in_a_driver_that_links_libgomp(tmp_path, monkeypatch):
    envs = {}
    real_run = campaign.run

    def recording_run(binary, timeout_s=60.0, env=None, args=()):
        envs[Path(binary).parent.name] = env
        return real_run(binary, timeout_s=timeout_s, env=env, args=args)

    monkeypatch.setattr(campaign, "run", recording_run)
    (tmp_path / "aff.c").write_text(AFFINITY_SOURCE)
    (tmp_path / "aff.json").write_text(json.dumps({
        "section_id": "aff",
        "parallelizable": True,
        "expected_pattern": "PO",
        "variables": [{"name": "ncpu", "elem_type": "i32", "direction": "out"}],
    }))
    job = SectionJob(
        source_path=tmp_path / "aff.c",
        manifest_path=tmp_path / "aff.json",
        support_code="int sched_getaffinity(int pid, unsigned long size, void *mask);",
    )
    config = CampaignConfig(
        sections=(job,),
        llm_backends=(CountingMock("mock", {"aff": AFFINITY_PARALLEL}),),
        strategies=(PromptStrategy.IP,),
        attempts=1,
        timing_repeats=1,
        threads=2,
    )
    outdir = tmp_path / "out"
    records = execute(plan(config), config, outdir)
    serial_dir = outdir / "sections" / "aff" / "serial"
    # The serial body shares a driver with the OpenMP candidate, so it links libgomp.
    assert "pcaot_body_1" in (serial_dir / "driver.c").read_text()
    assert b"libgomp" in (serial_dir / "driver").read_bytes()
    # It still sees every usable core, as the capture did.
    assert records[0].status is ValidationStatus.PASS
    out = campaign.ckpt.read_checkpoint_file(serial_dir / "aff.out.ckpt")
    assert int(out.record("ncpu").values()) == len(os.sched_getaffinity(0))
    assert envs["serial"]["OMP_PROC_BIND"] == "false"
    # The OpenMP candidate keeps runner.OMP_PLACEMENT.
    assert "OMP_PROC_BIND" not in envs["mock__IP__1"]


# The right sum; its only _Pragma sits in a comment.
PRAGMA_IN_COMMENT = _summing('    /* _Pragma("omp parallel") */\n')


@needs_gcc
def test_a_pragma_in_a_comment_does_not_keep_code_pinned(tmp_path, monkeypatch):
    envs = {}
    real_run = campaign.run

    def recording_run(binary, timeout_s=60.0, env=None, args=()):
        envs[Path(binary).parent.name] = env
        return real_run(binary, timeout_s=timeout_s, env=env, args=args)

    monkeypatch.setattr(campaign, "run", recording_run)
    config = CampaignConfig(
        sections=(_write_section(tmp_path),),
        llm_backends=(CountingMock("mock", {"tiny/IP/1": GOOD, "tiny/IP/2": PRAGMA_IN_COMMENT}),),
        strategies=(PromptStrategy.IP,),
        attempts=2,
        timing_repeats=1,
        threads=2,
    )
    outdir = tmp_path / "out"
    records = execute(plan(config), config, outdir)
    assert [r.status for r in records] == [ValidationStatus.PASS] * 3
    # All three bodies share one driver, which links libgomp for GOOD.
    assert b"libgomp" in (outdir / "sections" / "tiny" / "serial" / "driver").read_bytes()
    assert envs["serial"]["OMP_PROC_BIND"] == "false"
    assert envs["mock__IP__2"]["OMP_PROC_BIND"] == "false"
    assert "OMP_PROC_BIND" not in envs["mock__IP__1"]


@needs_gcc
def test_resume_with_an_empty_build_memo_compiles_nothing(tmp_path, monkeypatch):
    spec, log = _logging_gcc(tmp_path)
    config = CampaignConfig(
        sections=(_write_section(tmp_path),),
        llm_backends=(CountingMock("mock", {"tiny/IP": GOOD, "tiny/CoT": GARBAGE}),),
        strategies=(PromptStrategy.IP, PromptStrategy.COT),
        attempts=1,
        timing_repeats=1,
        threads=1,
        build=spec,
    )
    outdir = tmp_path / "out"
    first = execute(plan(config), config, outdir)
    assert log.read_text()
    log.unlink()
    # A fresh process starts with an empty memo; nothing may be queued into it.
    memo = {}
    monkeypatch.setattr(runner, "_BUILDS", memo)
    second = execute(plan(config), config, outdir)
    assert memo == {}
    assert not log.exists()
    assert [r.to_dict() for r in second] == [r.to_dict() for r in first]


@needs_gcc
@pytest.mark.parametrize("unstartable", ["capture.c", "driver.c"])
def test_a_binary_that_cannot_start_is_not_a_crash(tmp_path, unstartable):
    # gcc, except that one kind of program comes out as an empty file that
    # cannot be executed.
    script = tmp_path / "touch-cc"
    script.write_text(
        f'#!/bin/sh\ncase "$1" in *{unstartable}) : > "$3"; exit 0;; esac\nexec gcc "$@"\n'
    )
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    config = CampaignConfig(
        sections=(_write_section(tmp_path),),
        llm_backends=(CountingMock("mock", {"tiny": GOOD}),),
        strategies=(PromptStrategy.IP,),
        attempts=1,
        timing_repeats=1,
        threads=1,
        build=BuildSpec(compiler_cmd=f"{script} {{src}} -o {{out}}"),
    )
    records = execute(plan(config), config, tmp_path / "out")
    if unstartable == "capture.c":
        assert records == []  # the section is skipped
    else:
        assert {r.status for r in records} == {ValidationStatus.RUNTIME_ERROR}
        assert all(r.run_wall_ns is None for r in records)


@needs_gcc
def test_resume_gives_candidates_the_fresh_timeout(tmp_path, monkeypatch):
    # Without the floor, the candidate timeout is a multiple of the serial
    # run's wall time, so a guessed wall time would show.
    monkeypatch.setattr(campaign, "TIMEOUT_FLOOR_S", 0.0)
    timeouts = []
    real_run = campaign.run

    def recording_run(binary, timeout_s=60.0, env=None, args=()):
        if Path(binary).parent.parent.name == "candidates":
            timeouts.append(timeout_s)
        return real_run(binary, timeout_s=timeout_s, env=env, args=args)

    monkeypatch.setattr(campaign, "run", recording_run)
    job = _write_section(tmp_path)
    config = CampaignConfig(
        sections=(job,),
        llm_backends=(CountingMock("mock", {"tiny": GOOD}),),
        strategies=(PromptStrategy.IP,),
        attempts=1,
        timing_repeats=3,
        threads=1,
    )
    outdir = tmp_path / "out"
    first = execute(plan(config), config, outdir)
    serial = first[0]
    assert serial.tool == "serial" and serial.run_wall_ns > 0
    assert timeouts == [campaign.TIMEOUT_FACTOR * serial.run_wall_ns / 1e9]
    # Interrupted after the serial baseline: the candidate runs again on resume.
    records_path = outdir / "records.jsonl"
    records_path.write_text(records_path.read_text().splitlines()[0] + "\n")
    execute(plan(config), config, outdir)
    assert len(timeouts) == 2
    assert timeouts[1] == timeouts[0]


# The body adds to the total it finds, but the manifest gives total no input:
# the replay starts it from zero, so the serial is a NumericMismatch.
ACCUMULATING_SOURCE = SECTION_SOURCE.replace("-1.0;", "1000.0;").replace("    total = 0.0;\n", "")
FROM_1000 = GOOD.replace("total = 0.0;", "total = 1000.0;")


@needs_gcc
def test_no_speedup_over_a_serial_that_did_not_pass(tmp_path):
    job = _write_section(tmp_path)
    (tmp_path / "tiny.c").write_text(ACCUMULATING_SOURCE)
    config = CampaignConfig(
        sections=(job,),
        llm_backends=(CountingMock("mock", {"tiny": FROM_1000}),),
        strategies=(PromptStrategy.IP,),
        attempts=1,
        timing_repeats=1,
        threads=1,
    )
    records = execute(plan(config), config, tmp_path / "out")
    serial, candidate = records
    assert serial.status is ValidationStatus.NUMERIC_MISMATCH
    assert serial.median_time_ns is not None
    assert candidate.status is ValidationStatus.PASS
    assert candidate.speedup is None
    assert aggregate(records, config).speedup_table == {}


@needs_gcc
def test_candidates_keep_the_capture_timeout_when_the_serial_did_not_run(tmp_path, monkeypatch):
    # N is defined outside the section: the capture compiles, the serial's driver does not.
    monkeypatch.setattr(campaign, "TIMEOUT_FLOOR_S", 0.0)
    runs = []
    real_run = campaign.run

    def recording_run(binary, timeout_s=60.0, env=None, args=()):
        result = real_run(binary, timeout_s=timeout_s, env=env, args=args)
        runs.append((Path(binary).name, timeout_s, result.wall_time_ns))
        return result

    monkeypatch.setattr(campaign, "run", recording_run)
    job = _write_section(tmp_path)
    source = SECTION_SOURCE.replace("int main", "#define N 512\n\nint main")
    (tmp_path / "tiny.c").write_text(source.replace("i < 512; i++) {", "i < N; i++) {"))
    config = CampaignConfig(
        sections=(job,),
        llm_backends=(CountingMock("mock", {"tiny": GOOD}),),
        strategies=(PromptStrategy.IP,),
        attempts=1,
        timing_repeats=1,
        threads=1,
    )
    serial, candidate = execute(plan(config), config, tmp_path / "out")
    assert serial.status is ValidationStatus.COMPILE_ERROR and serial.run_wall_ns is None
    assert candidate.status is ValidationStatus.PASS
    (capture_wall,) = [wall for name, _, wall in runs if name == "capture"]
    assert [t for name, t, _ in runs if name == "driver"] == [
        campaign.TIMEOUT_FACTOR * capture_wall / 1e9
    ]


SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _sample_config(responses):
    """samples/campaign.json, with responses added to its mock LLM's table."""
    config = load_campaign_config(SAMPLES / "campaign.json")
    (mock,) = config.llm_backends
    mock = replace(mock, responses={**mock.responses, **responses})
    return replace(config, llm_backends=(mock,))


def _vecscale_then(statement):
    # vecscale's own loop, then statement.  The CoT version of vecscale, the
    # first section, runs in sections/vecscale/candidates/mockllm__CoT__1.
    return (
        "```c\n    for (i = 0; i < 100000; i++) {\n        a[i] = scale * b[i] + 1.0;\n    }\n"
        f"    {statement}\n```"
    )


def _drop_record(outdir, section_id, tool, strategy):
    """Delete one version's row from records.jsonl, as if the run had stopped before it."""
    path = outdir / "records.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    key = (section_id, tool, strategy)
    kept = [r for r in rows if (r["section_id"], r["tool"], r["strategy"]) != key]
    assert len(kept) == len(rows) - 1
    path.write_text("".join(json.dumps(r) + "\n" for r in kept))


@needs_gcc
@pytest.mark.parametrize("planted", ["vecscale.in.ckpt", "driver.c"])
def test_a_path_planted_in_another_version_is_not_a_crash(tmp_path, caplog, planted):
    # The CoT candidate makes a directory of a file that a later version of
    # its section writes: its captured input or its driver source.
    statement = f'(void)system("mkdir -p ../mockllm__IP__1/{planted}");'
    config = _sample_config({"vecscale/CoT": _vecscale_then(statement)})
    outdir = tmp_path / "out"
    target = outdir / "sections" / "vecscale" / "candidates" / "mockllm__IP__1" / planted
    for attempt in ("run", "resume"):
        if attempt == "resume":
            # That version is validated again: its driver is queued in its directory now.
            _drop_record(outdir, "vecscale", "mockllm", "IP")
        records = execute(plan(config), config, outdir)
        assert target.is_dir()
        assert len(records) == len((outdir / "records.jsonl").read_text().splitlines()) == 15
        (ip,) = (r for r in records if (r.section_id, r.strategy) == ("vecscale", "IP"))
        assert ip.status is not ValidationStatus.PASS, attempt
        assert str(target) in caplog.text
        caplog.clear()


@needs_gcc
def test_a_section_driver_that_cannot_be_queued_falls_back_to_one_body_drivers(tmp_path, caplog):
    config = CampaignConfig(
        sections=(_write_section(tmp_path),),
        llm_backends=(CountingMock("mock", {"tiny/IP": GOOD, "tiny/DIP": SYNTAX}),),
        strategies=(PromptStrategy.IP, PromptStrategy.DIP),
        attempts=1,
        timing_repeats=1,
        threads=1,
    )
    outdir = tmp_path / "out"
    execute(plan(config), config, outdir)
    # The section driver of a resume goes to serial/, the first version's directory.
    planted = outdir / "sections" / "tiny" / "serial" / "driver.c"
    planted.unlink()
    planted.mkdir()
    (outdir / "records.jsonl").unlink()
    records = execute(plan(config), config, outdir)
    assert {(r.tool, r.strategy): r.status for r in records} == {
        ("serial", None): ValidationStatus.RUNTIME_ERROR,
        ("mock", "DIP"): ValidationStatus.COMPILE_ERROR,
        ("mock", "IP"): ValidationStatus.PASS,
    }
    assert str(planted) in caplog.text


@needs_gcc
def test_a_write_into_another_sections_capture_is_not_a_crash(tmp_path):
    # Garbage meta.json and empty checkpoints in sumsqrt's capture directory,
    # written before sumsqrt, the second section, is captured.
    statement = (
        '(void)system("mkdir -p ../../../sumsqrt/capture && cd ../../../sumsqrt/capture'
        ' && echo x > meta.json && : > sumsqrt.in.ckpt && : > sumsqrt.out.ckpt");'
    )
    config = _sample_config({"vecscale/CoT": _vecscale_then(statement)})
    outdir = tmp_path / "out"
    first = execute(plan(config), config, outdir)
    assert (outdir / "sections" / "sumsqrt" / "capture" / "meta.json").read_text() == "x\n"
    assert len(first) == 15
    assert all(r.status is ValidationStatus.PASS for r in first if r.section_id == "sumsqrt")
    second = execute(plan(config), config, outdir)
    assert [r.to_dict() for r in second] == [r.to_dict() for r in first]


@needs_gcc
def test_a_resume_compares_against_a_fresh_capture(tmp_path):
    config = _sample_config({})
    outdir = tmp_path / "out"
    execute(plan(config), config, outdir)
    # A valid checkpoint that is no longer the section's reference.
    path = outdir / "sections" / "vecscale" / "capture" / "vecscale.out.ckpt"
    reference = campaign.ckpt.read_checkpoint_file(path)
    values = reference.record("a").values().copy()
    values[0] += 1.0
    stale = campaign.ckpt.Checkpoint(
        records=tuple(
            campaign.ckpt.VarRecord.from_values("a", "f64", values) if r.name == "a" else r
            for r in reference.records
        )
    )
    campaign.ckpt.write_checkpoint_file(path, stale)
    _drop_record(outdir, "vecscale", "mockllm", "IP")
    records = execute(plan(config), config, outdir)
    (ip,) = (r for r in records if (r.section_id, r.strategy) == ("vecscale", "IP"))
    assert ip.status is ValidationStatus.PASS
    assert path.read_bytes() == campaign.ckpt.encode(reference)


# The vecscale CoT candidate copies the captured output over its section's
# input, through its own directory's link or through the capture's path.
OVERWRITES = {
    "own link": "vecscale.in.ckpt",
    "capture": "../../capture/vecscale.in.ckpt",
}


def _overwrite_config(target):
    statement = f'(void)system("cp ../../capture/vecscale.out.ckpt {target}");'
    return _sample_config({"vecscale/CoT": _vecscale_then(statement)})


def _statuses(records):
    return {(r.section_id, r.tool, r.strategy): r.status for r in records}


@needs_gcc
@pytest.mark.parametrize("target", OVERWRITES.values(), ids=OVERWRITES.keys())
def test_a_candidate_that_overwrites_its_input_is_a_runtime_error(tmp_path, caplog, target):
    outdir = tmp_path / "out"
    config = _overwrite_config(target)
    statuses = _statuses(execute(plan(config), config, outdir))
    # DIP and IP run after CoT, from a new capture.
    assert statuses.pop(("vecscale", "mockllm", "CoT")) is ValidationStatus.RUNTIME_ERROR
    assert set(statuses.values()) == {ValidationStatus.PASS}
    assert "mockllm__CoT__1 changed its section's input" in caplog.text
    capture = outdir / "sections" / "vecscale" / "capture"
    ip_input = capture.parent / "candidates" / "mockllm__IP__1" / "vecscale.in.ckpt"
    assert ip_input.read_bytes() != (capture / "vecscale.out.ckpt").read_bytes()
    assert ip_input.stat().st_ino == (capture / "vecscale.in.ckpt").stat().st_ino


@needs_gcc
def test_a_failed_link_falls_back_to_a_copy(tmp_path, monkeypatch):
    config = _overwrite_config(OVERWRITES["capture"])
    linked = _statuses(execute(plan(config), config, tmp_path / "linked"))

    def no_link(*args, **kwargs):
        raise OSError(errno.EXDEV, "cross-device link")

    monkeypatch.setattr(os, "link", no_link)
    outdir = tmp_path / "copied"
    assert _statuses(execute(plan(config), config, outdir)) == linked
    assert linked[("vecscale", "mockllm", "CoT")] is ValidationStatus.RUNTIME_ERROR
    serial_input = outdir / "sections" / "sumsqrt" / "serial" / "sumsqrt.in.ckpt"
    assert serial_input.stat().st_nlink == 1


@needs_gcc
def test_version_directories_link_the_captured_input(tmp_path):
    config = _sample_config({})
    outdir = tmp_path / "out"
    execute(plan(config), config, outdir)
    for sid in ("vecscale", "sumsqrt", "chain_dp"):
        section = outdir / "sections" / sid
        captured = section / "capture" / f"{sid}.in.ckpt"
        versions = [section / "serial", *sorted((section / "candidates").iterdir())]
        assert len(versions) == 5
        for version in versions:
            placed = version / captured.name
            assert placed.stat().st_nlink > 1
            assert placed.stat().st_ino == captured.stat().st_ino
            assert placed.read_bytes() == captured.read_bytes()


@needs_gcc
@pytest.mark.parametrize("planted", ["sumsqrt.out.ckpt", "capture.c"])
def test_a_directory_planted_in_another_sections_capture_skips_it(tmp_path, caplog, planted):
    statement = (
        f'(void)system("cd ../../../sumsqrt/capture && rm -f {planted} && mkdir {planted}");'
    )
    config = _sample_config({"vecscale/CoT": _vecscale_then(statement)})
    outdir = tmp_path / "out"
    target = outdir / "sections" / "sumsqrt" / "capture" / planted
    for attempt in ("run", "resume"):
        records = execute(plan(config), config, outdir)
        assert target.is_dir()
        # sumsqrt is skipped, and the log says why; the other two sections are validated.
        assert [r.section_id for r in records] == ["vecscale"] * 5 + ["chain_dp"] * 5, attempt
        assert "section skipped: capture build failed for 'sumsqrt'" in caplog.text
        assert str(target) in caplog.text
        caplog.clear()


# sumsqrt's loop with one more statement in it: a sum 2e6 too large.
SUMSQRT_STEP = "        s += sqrt(a[i] * a[i] + 1.0);\n"
WRONG_SUMSQRT = (
    "```c\n    s = 0.0;\n    for (i = 0; i < 2000000; i++) {\n"
    f"{SUMSQRT_STEP}        s += 1.0;\n    }}\n```"
)


# Each rewrite: (file of samples/, old text, new text).
REWRITES = {
    # The wrong candidate's extra statement, in the section a capture would read.
    "source": ("sumsqrt.c", SUMSQRT_STEP, SUMSQRT_STEP + "        s += 1.0;\n"),
    "manifest": ("chain_dp.manifest.json", '"chain_dp"', '"zzz"'),
}


@needs_gcc
@pytest.mark.parametrize("rewrite", REWRITES)
def test_a_section_input_rewritten_by_a_candidate_changes_nothing(tmp_path, capsys, rewrite):
    # The vecscale CoT candidate, in the first section, copies a forged file
    # over a later section's input before that section is captured.
    target, old, new = REWRITES[rewrite]
    samples = shutil.copytree(SAMPLES, tmp_path / "samples")
    forged = tmp_path / "forged"
    forged.write_text((samples / target).read_text().replace(old, new, 1))
    copy = f'(void)system("cp {forged} {samples / target}");'
    responses = {"vecscale/CoT": _vecscale_then(copy)}
    expected = {}
    if rewrite == "source":
        responses["sumsqrt/IP"] = WRONG_SUMSQRT
        expected = {("sumsqrt", "IP"): "NumericMismatch"}
    doc = json.loads((samples / "campaign.json").read_text())
    doc["llm_backends"][0]["responses"] = responses
    (samples / "campaign.json").write_text(json.dumps(doc))
    outdir = tmp_path / "out"
    code = main(["run", "--config", str(samples / "campaign.json"), "--out", str(outdir)])
    assert (samples / target).read_bytes() == forged.read_bytes()
    records = [json.loads(line) for line in (outdir / "records.jsonl").read_text().splitlines()]
    assert len(records) == 15
    statuses = {(r["section_id"], r["strategy"]): r["status"] for r in records}
    assert {key: status for key, status in statuses.items() if status != "Pass"} == expected
    assert code == (1 if expected else 0)
    assert "skipped sections" not in capsys.readouterr().out


@needs_gcc
def test_each_section_is_read_and_instrumented_once(tmp_path, monkeypatch):
    calls = {}
    for name in ("load_manifest_file", "extract_sections", "generate_capture_program"):
        def counted(*args, _name=name, _original=getattr(campaign, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(campaign, name, counted)
    config = _sample_config({})
    assert len(execute(plan(config), config, tmp_path / "out")) == 15
    assert calls == {"load_manifest_file": 3, "extract_sections": 3, "generate_capture_program": 3}


@pytest.mark.parametrize(
    "ids, message",
    [
        (("tiny", "tiny"), "section 'tiny' is listed more than once"),
        (("t:1", "t_1"), "sections 't:1' and 't_1' share sections/t_1/"),
    ],
    ids=["repeated", "same_directory"],
)
def test_sections_that_share_a_directory_are_rejected_before_any_request(tmp_path, ids, message):
    jobs = []
    for k, sid in enumerate(ids):
        (tmp_path / f"s{k}.c").write_text(SECTION_SOURCE.replace("id=tiny", f"id={sid}"))
        (tmp_path / f"s{k}.json").write_text(json.dumps({**SECTION_MANIFEST, "section_id": sid}))
        jobs.append(
            SectionJob(source_path=tmp_path / f"s{k}.c", manifest_path=tmp_path / f"s{k}.json")
        )
    mock = CountingMock("mock", {})
    config = CampaignConfig(sections=tuple(jobs), llm_backends=(mock,), attempts=1)
    with pytest.raises(ParseError) as info:
        execute(plan(config), config, tmp_path / "out")
    assert str(info.value) == message
    assert mock.calls == []
    assert not (tmp_path / "out" / "candidates.jsonl").exists()


def test_produce_candidates_without_sources_skips(tmp_path):
    config = CampaignConfig(sections=(_job(tmp_path),), llm_backends=(_mock(),))
    rows = produce_candidates(config, tmp_path / "out")
    assert rows == {}


RENDEZVOUS = """#!/bin/sh
# usage: rendezvous SRC OUT DIR SELF OTHER
# Announce SELF, wait up to 5 s for OTHER to start, then copy SRC to OUT.
touch "$3/$4"
i=0
while [ ! -e "$3/$5" ]; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && exit 1
    sleep 0.1
done
cp "$1" "$2"
"""


def test_compiler_backends_share_the_request_pool(tmp_path):
    # Each compiler waits for the other to start, so both produce code only
    # when they run at the same time.
    script = tmp_path / "rendezvous"
    script.write_text(RENDEZVOUS)
    script.chmod(script.stat().st_mode | stat.S_IEXEC)

    def waiting(tool_id, other):
        return CompilerDriverConfig(
            tool_id=tool_id, command=f"{script} {{src}} {{out}} {tmp_path} {tool_id} {other}"
        )

    config = CampaignConfig(
        sections=(_write_section(tmp_path),),
        llm_backends=(_mock("mock"),),
        compiler_backends=(waiting("zeta", "alpha"), waiting("alpha", "zeta")),
        strategies=(PromptStrategy.IP,),
        attempts=1,
        max_inflight=2,
    )
    outdir = tmp_path / "out"
    rows = produce_candidates(config, outdir)
    assert all(row.code is not None for row in rows.values()), rows
    persisted = [
        json.loads(line)["tool"]
        for line in (outdir / "candidates.jsonl").read_text().splitlines()
    ]
    assert persisted == [origin.tool_id for origin in plan(config).candidate_origins]
    assert persisted == ["alpha", "mock", "zeta"]


@needs_gcc
def test_a_compiler_backend_works_in_its_version_directory(tmp_path, monkeypatch):
    tmpdir = tmp_path / "tmpdir"
    tmpdir.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmpdir))
    monkeypatch.setattr(tempfile, "tempdir", None)
    config = CampaignConfig(
        sections=(_write_section(tmp_path),),
        compiler_backends=(CompilerDriverConfig(tool_id="copyc", command="cp {src} {out}"),),
        timing_repeats=1,
        threads=1,
    )
    outdir = tmp_path / "out"
    records = execute(plan(config), config, outdir)
    assert [(r.tool, r.status) for r in records] == [
        ("serial", ValidationStatus.PASS), ("copyc", ValidationStatus.PASS)
    ]
    compiler = outdir / "sections" / "tiny" / "candidates" / "copyc__na__0" / "compiler"
    assert sorted(p.name for p in compiler.iterdir()) == ["input.c", "transformed.c"]
    assert (compiler / "input.c").read_bytes() == (compiler / "transformed.c").read_bytes()
    assert list(tmpdir.iterdir()) == []


@needs_gcc
def test_a_relative_output_directory_serves_compiler_backends(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(SAMPLES / "campaign.json"), "--out", "out"]) == 0
    records = [json.loads(line) for line in Path("out/records.jsonl").read_text().splitlines()]
    assert [r["status"] for r in records if r["tool"] == "copyc"] == ["Pass"] * 3



@needs_gcc
def test_a_program_may_use_pcaot_names_outside_its_section(tmp_path):
    # The capture inserts no name at file scope, so the program's own
    # pcaot_write cannot clash with it.
    samples = shutil.copytree(SAMPLES, tmp_path / "samples")
    source = samples / "vecscale.c"
    main_line = "int main(void) {"
    source.write_text(source.read_text().replace(main_line, f"static int pcaot_write = 0;\n\n{main_line}"))
    config = load_campaign_config(samples / "campaign.json")
    (job,) = (job for job in config.sections if job.source_path.name == "vecscale.c")
    config = replace(config, sections=(job,), llm_backends=(), timing_repeats=1)
    records = execute(plan(config), config, tmp_path / "out")
    assert [(r.tool, r.status) for r in records] == [
        ("serial", ValidationStatus.PASS), ("copyc", ValidationStatus.PASS)
    ]


# --- aggregation -----------------------------------------------------------


def _record(tool="mock", strategy="IP", attempt=1, status=ValidationStatus.PASS,
            category=OutcomeCategory.EXPECTED_APPLIED, pattern="PO", lines=5,
            median=1000, speedup=None, section="s"):
    if status is ValidationStatus.PASS and speedup is None:
        speedup = 1.0
    return OutcomeRecord(
        section_id=section, tool=tool, strategy=strategy, attempt=attempt,
        status=status, category=category, detected=(), pattern=pattern,
        lines=lines, median_time_ns=median,
        speedup=speedup if status is ValidationStatus.PASS else None,
    )


def _agg_config(tmp_path):
    return CampaignConfig(sections=(_job(tmp_path),), llm_backends=(_mock("mock"),))


def test_aggregate_failure_buckets(tmp_path):
    records = [
        _record(lines=5, status=ValidationStatus.PASS),
        _record(lines=8, status=ValidationStatus.COMPILE_ERROR,
                category=OutcomeCategory.ERROR),
        _record(lines=30, status=ValidationStatus.PASS),
        _record(lines=35, status=ValidationStatus.TIMEOUT, category=OutcomeCategory.ERROR),
        _record(lines=200, status=ValidationStatus.NUMERIC_MISMATCH,
                category=OutcomeCategory.ERROR),
    ]
    metrics = aggregate(records, _agg_config(tmp_path))
    buckets = metrics.failure_rate_by_bucket
    assert buckets["(0,10]"] == {"failures": 1, "attempts": 2, "rate": 0.5}
    assert buckets["(20,40]"] == {"failures": 1, "attempts": 2, "rate": 0.5}
    assert buckets["(80,inf)"] == {"failures": 1, "attempts": 1, "rate": 1.0}
    assert "(10,20]" not in buckets
    assert metrics.overall_success_rate == pytest.approx(2 / 5)


def test_aggregate_bucket_edges(tmp_path):
    records = [
        _record(lines=10),
        _record(lines=11, status=ValidationStatus.TIMEOUT, category=OutcomeCategory.ERROR),
        _record(lines=80),
        _record(lines=81),
    ]
    buckets = aggregate(records, _agg_config(tmp_path)).failure_rate_by_bucket
    assert buckets["(0,10]"]["attempts"] == 1
    assert buckets["(10,20]"]["failures"] == 1
    assert buckets["(40,80]"]["attempts"] == 1
    assert buckets["(80,inf)"]["attempts"] == 1


def test_aggregate_excludes_serial_and_non_llm(tmp_path):
    records = [
        _record(tool="serial", strategy=None, attempt=None,
                category=OutcomeCategory.UNEXPECTED_CORRECT),
        _record(tool="cc", strategy=None, attempt=None,
                category=OutcomeCategory.UNEXPECTED_CORRECT),
        _record(tool="mock", status=ValidationStatus.PASS),
    ]
    config = CampaignConfig(
        sections=(_job(tmp_path),),
        llm_backends=(_mock("mock"),),
        compiler_backends=(CompilerDriverConfig(tool_id="cc", command="cp {src} {out}"),),
    )
    metrics = aggregate(records, config)
    # Failure stats count LLM attempts only; the compiler run is invisible.
    assert metrics.failure_rate_by_bucket["(0,10]"]["attempts"] == 1
    assert metrics.overall_success_rate == 1.0
    # Category rates cover every non-serial tool.
    assert set(metrics.category_rates["PO"]) == {"cc", "mock"}
    assert "serial" not in metrics.category_rates["PO"]
    # Compiler entries land under the "default" strategy.
    assert metrics.category_rates["PO"]["cc"]["default"] == {"UnexpectedCorrect": 1}


def test_aggregate_speedup_table(tmp_path):
    records = [
        _record(strategy="IP", speedup=2.0),
        _record(strategy="IP", speedup=4.0),
        _record(strategy="DIP", speedup=1.5),
        _record(strategy="DIP", status=ValidationStatus.TIMEOUT,
                category=OutcomeCategory.ERROR),
    ]
    metrics = aggregate(records, _agg_config(tmp_path))
    table = metrics.speedup_table["mock"]
    assert table["by_strategy"]["IP"] == pytest.approx(3.0)
    assert table["by_strategy"]["DIP"] == pytest.approx(1.5)
    assert table["max_mean"] == pytest.approx(3.0)


def test_aggregate_hand_optimized_table(tmp_path):
    manifest = dict(SECTION_MANIFEST)
    (tmp_path / "tiny.c").write_text(SECTION_SOURCE)
    (tmp_path / "tiny.json").write_text(json.dumps(manifest))
    config = CampaignConfig(
        sections=(
            SectionJob(
                source_path=tmp_path / "tiny.c",
                manifest_path=tmp_path / "tiny.json",
                hand_optimized_ns=500,
            ),
        ),
        llm_backends=(_mock("mock"),),
    )
    records = [_record(section="tiny", median=1000, speedup=3.0)]
    metrics = aggregate(records, config)
    assert metrics.speedup_vs_hand_optimized["mock"]["by_strategy"]["IP"] == pytest.approx(0.5)


def test_aggregate_empty_llm_set(tmp_path):
    config = CampaignConfig(
        sections=(_job(tmp_path),),
        compiler_backends=(CompilerDriverConfig(tool_id="cc", command="cp {src} {out}"),),
    )
    records = [_record(tool="cc", strategy=None, attempt=None)]
    metrics = aggregate(records, config)
    assert metrics.overall_success_rate is None
    assert metrics.failure_rate_by_bucket == {}


def test_aggregate_permutation_invariant(tmp_path):
    records = [
        _record(strategy="IP", speedup=1.1, lines=3),
        _record(strategy="IP", speedup=7.3, lines=15),
        _record(strategy="CoT", speedup=0.9, lines=45),
        _record(strategy="CoT", status=ValidationStatus.COMPILE_ERROR,
                category=OutcomeCategory.ERROR, lines=45),
        _record(strategy="DIP", speedup=2.2, lines=100),
    ]
    config = _agg_config(tmp_path)
    forward = aggregate(records, config)
    backward = aggregate(list(reversed(records)), config)
    assert forward.to_json_dict() == backward.to_json_dict()


def test_emit_reports_deterministic(tmp_path):
    records = [
        _record(tool="serial", strategy=None, attempt=None,
                category=OutcomeCategory.UNEXPECTED_CORRECT),
        _record(strategy="IP", speedup=2.0),
        _record(strategy="DIP", status=ValidationStatus.COMPILE_ERROR,
                category=OutcomeCategory.ERROR),
    ]
    config = _agg_config(tmp_path)
    metrics = aggregate(records, config)
    first_dir = tmp_path / "r1"
    second_dir = tmp_path / "r2"
    first = emit_reports(metrics, records, first_dir)
    second = emit_reports(metrics, records, second_dir)
    assert [p.name for p in first] == [
        "records.csv", "metrics.json", "failure_by_size.svg",
        "pattern_categories.svg", "speedups.svg",
    ]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name
    header = (first_dir / "records.csv").read_text().splitlines()[0]
    assert header == (
        "section_id,tool,strategy,attempt,status,category,"
        "detected_patterns,lines,median_time_ns,speedup"
    )
    # metrics.json is sorted-keys JSON with a trailing newline.
    text = (first_dir / "metrics.json").read_text()
    assert text.endswith("\n")
    assert json.loads(text) == metrics.to_json_dict()


def test_csv_encodes_detected_patterns(tmp_path):
    record = OutcomeRecord(
        section_id="s", tool="t", strategy="IP", attempt=1,
        status=ValidationStatus.PASS, category=OutcomeCategory.EXPECTED_APPLIED,
        detected=("PA", "PO"), pattern="PO", lines=2, median_time_ns=10, speedup=1.0,
    )
    metrics = Metrics()
    outdir = tmp_path / "rep"
    emit_reports(metrics, [record], outdir)
    row = (outdir / "records.csv").read_text().splitlines()[1]
    assert "PA;PO" in row
