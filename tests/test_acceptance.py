"""Acceptance gate: ten end-to-end checks over the whole harness.

Each test guards exactly one criterion and prints a single

    ACCEPTANCE <n> <label>: PASS | FAIL | SKIP (<reason>)

line straight to the terminal (through pytest's capture), so a plain
``pytest -v tests/test_acceptance.py`` shows one line per criterion.
Criteria that need a host C compiler or a second CPU core skip honestly
instead of faking a result.  The whole module runs under a socket guard;
the final criterion asserts that nothing ever dialed a non-loopback
address.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import shutil
import socket
import struct
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import pytest

from pcaot.backends import (
    COT_PROMPT,
    DIP_PROMPT,
    IP_PROMPT,
    CompilerDriverConfig,
    MockLlm,
    PromptStrategy,
    render_prompt,
)
from pcaot.campaign import (
    SERIAL_TOOL_ID,
    CampaignConfig,
    OutcomeRecord,
    SectionJob,
    aggregate,
    emit_reports,
    execute,
    plan,
)
from pcaot.checkpoint import (
    Checkpoint,
    ComparisonStatus,
    Tolerance,
    VarRecord,
    compare,
    decode,
    encode,
    read_checkpoint_file,
    write_checkpoint_file,
)
from pcaot.instrument import (
    generate_capture_program,
    generate_replay_driver,
    input_checkpoint_name,
    output_checkpoint_name,
)
from pcaot.pattern import OutcomeCategory, ValidationStatus, categorize, detect
from pcaot.runner import BuildSpec, build, collect_timing, run
from pcaot.sections import StateManifest, VariableSpec, extract_sections

from conftest import HAVE_GCC, REPO_ROOT, usable_cores

SAMPLES = REPO_ROOT / "samples"
CORPUS = Path(__file__).parent / "fixtures" / "pattern_corpus"

# Sizes frozen independently of the codec module.
ELEM_BYTES = {"i8": 1, "i32": 4, "i64": 8, "f32": 4, "f64": 8}
ALL_TYPES = ("i8", "i32", "i64", "f32", "f64")

# Shared across criteria: the campaign of criterion 4 feeds criterion 9,
# and the socket guard feeds criterion 10.
_STATE: dict[str, object] = {}
_NET_VIOLATIONS: list[str] = []


# --------------------------------------------------------------------------
# plumbing


@pytest.fixture(scope="module", autouse=True)
def _no_network():
    """Refuse (and record) any non-loopback TCP connect for the whole module."""
    real_connect = socket.socket.connect
    real_connect_ex = socket.socket.connect_ex

    def check(address: object) -> None:
        if not (isinstance(address, tuple) and address):
            return
        host = str(address[0]).strip("[]").split("%")[0]
        if host in ("localhost", "::1", "") or host.startswith("127."):
            return
        _NET_VIOLATIONS.append(repr(address))
        raise OSError(f"acceptance run is offline; refused connect to {address!r}")

    def guarded_connect(self, address):
        if self.family in (socket.AF_INET, socket.AF_INET6):
            check(address)
        return real_connect(self, address)

    def guarded_connect_ex(self, address):
        if self.family in (socket.AF_INET, socket.AF_INET6):
            check(address)
        return real_connect_ex(self, address)

    socket.socket.connect = guarded_connect
    socket.socket.connect_ex = guarded_connect_ex
    _STATE["guard_installed"] = True
    try:
        yield
    finally:
        socket.socket.connect = real_connect
        socket.socket.connect_ex = real_connect_ex


@pytest.fixture
def announce(request):
    """Context manager factory printing one verdict line per criterion."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    @contextlib.contextmanager
    def criterion(number: int, label: str):
        def say(word: str, detail: str = "") -> None:
            line = f"ACCEPTANCE {number:>2} {label}: {word}{detail}"
            if capman is not None:
                with capman.global_and_fixture_disabled():
                    print(line, flush=True)
            else:
                print(line, flush=True)

        try:
            yield
        except BaseException as exc:
            if isinstance(exc, pytest.skip.Exception):
                say("SKIP", f" ({exc})")
            else:
                say("FAIL")
            raise
        say("PASS")

    return criterion


def _require_gcc() -> None:
    if not HAVE_GCC:
        pytest.skip("no working OpenMP-capable gcc on this host")


# --------------------------------------------------------------------------
# 1. plan arithmetic


def test_01_plan_arithmetic(announce):
    with announce(1, "plan arithmetic (22 versions, 792 attempts)"):
        started = time.monotonic()
        config = CampaignConfig(
            sections=tuple(
                SectionJob(source_path=Path(f"s{i}.c"), manifest_path=Path(f"s{i}.json"))
                for i in range(44)
            ),
            llm_backends=(MockLlm("llm-a"), MockLlm("llm-b")),
            compiler_backends=tuple(
                CompilerDriverConfig(tool_id=f"cc{i}", command="cp {src} {out}")
                for i in range(3)
            ),
            strategies=(PromptStrategy.IP, PromptStrategy.DIP, PromptStrategy.COT),
            attempts=3,
        )
        experiment = plan(config)
        assert experiment.versions_per_section == 22
        assert experiment.total_versions == 44 * 22
        assert experiment.total_llm_attempts == 792
        assert time.monotonic() - started < 1.0


# --------------------------------------------------------------------------
# 2. checkpoint codec round-trip


def _random_checkpoint(rng: random.Random) -> Checkpoint:
    records = []
    for index in range(rng.randint(0, 4)):
        elem = rng.choice(ALL_TYPES)
        rank = rng.randint(0, 3)
        if rank == 1 and rng.random() < 0.1:
            extents: tuple[int, ...] = (rng.randint(1000, 10000),)
        else:
            extents = tuple(rng.randint(1, 12) for _ in range(rank))
        count = math.prod(extents)
        records.append(
            VarRecord(
                name=f"v{index}",
                elem_type=elem,
                extents=extents,
                payload=rng.randbytes(count * ELEM_BYTES[elem]),
            )
        )
    return Checkpoint(records=tuple(records))


def test_02_checkpoint_roundtrip(announce):
    with announce(2, "checkpoint codec round-trip x1000"):
        started = time.monotonic()
        rng = random.Random(0x5EC71085)
        seen_types: set[str] = set()
        seen_ranks: set[int] = set()
        for _ in range(1000):
            ck = _random_checkpoint(rng)
            assert decode(encode(ck)) == ck
            for rec in ck.records:
                seen_types.add(rec.elem_type)
                seen_ranks.add(len(rec.extents))
        assert seen_types == set(ALL_TYPES)
        assert seen_ranks == {0, 1, 2, 3}
        assert time.monotonic() - started < 30.0


# --------------------------------------------------------------------------
# 3. cross-codec capture/replay identity


_INIT_EXPRS = {
    "i8": "(int8_t)((pcaot_k + {salt}) % 100)",
    "i32": "(int32_t)((pcaot_k * 7 + {salt}) % 100000)",
    "i64": "(int64_t)(pcaot_k * 1103515245 + {salt})",
    "f32": "(float)(((pcaot_k + {salt}) % 53) * 0.25)",
    "f64": "((double)((pcaot_k + {salt}) % 97)) * 0.5 + {salt}",
}


def _random_identity_case(rng: random.Random, index: int) -> tuple[str, StateManifest]:
    """A self-contained program with an empty section over random variables."""
    sid = f"rt{index}"
    variables = []
    for j in range(rng.randint(1, 4)):
        elem = rng.choice(ALL_TYPES)
        if j == 0 and index % 5 == 0:
            # 115,200 bytes, far above the others; the driver keeps it static like them.
            elem, extents = "f64", (120, 120)
        else:
            rank = rng.randint(0, 3)
            extents = tuple(rng.randint(1, 6) for _ in range(rank))
        direction = rng.choice(("in", "inout", "out"))
        variables.append(VariableSpec(f"x{j}", elem, extents, direction))
    if not any(v.direction in ("inout", "out") for v in variables):
        variables[-1] = replace(variables[-1], direction="inout")

    decls, inits = [], []
    ctype = {"i8": "int8_t", "i32": "int32_t", "i64": "int64_t", "f32": "float", "f64": "double"}
    for salt, var in enumerate(variables, start=1):
        dims = "".join(f"[{e}]" for e in var.extents)
        decls.append(f"static {ctype[var.elem_type]} {var.name}{dims};")
        if var.direction in ("in", "inout"):
            expr = _INIT_EXPRS[var.elem_type].format(salt=salt)
            count = math.prod(var.extents)
            inits.append(
                f"    {{ {ctype[var.elem_type]} *p = ({ctype[var.elem_type]} *)&{var.name}; "
                f"for (pcaot_k = 0; pcaot_k < {count}; pcaot_k++) p[pcaot_k] = {expr}; }}"
            )
    source = (
        "#include <stdint.h>\n\n"
        + "\n".join(decls)
        + "\n\nint main(void) {\n    long pcaot_k;\n    (void)pcaot_k;\n"
        + "\n".join(inits)
        + f"\n    #pragma experimental section start id={sid}\n"
        + "    ;\n"
        + f"    #pragma experimental section stop id={sid}\n"
        + "    return 0;\n}\n"
    )
    manifest = StateManifest(
        section_id=sid,
        variables=tuple(variables),
        parallelizable=True,
        expected_pattern="PO",
    )
    return source, manifest


def test_03_cross_codec_identity(announce, tmp_path):
    with announce(3, "cross-codec capture/replay identity x20"):
        _require_gcc()
        started = time.monotonic()
        rng = random.Random(0xC0DEC)
        for index in range(20):
            source, manifest = _random_identity_case(rng, index)
            sid = manifest.section_id
            section = extract_sections(source)[0]

            capdir = tmp_path / f"cap{index}"
            capdir.mkdir()
            binary = build(
                generate_capture_program(source, section, manifest),
                BuildSpec(workdir=capdir),
            )
            result = run(binary, timeout_s=60.0)
            assert result.exit_code == 0, result.stderr
            reference = read_checkpoint_file(capdir / output_checkpoint_name(sid))

            rundir = tmp_path / f"run{index}"
            rundir.mkdir()
            driver = build(
                generate_replay_driver(";", manifest, timing_repeats=1),
                BuildSpec(workdir=rundir),
            )
            inputs = Checkpoint()
            if manifest.inputs:
                in_name = input_checkpoint_name(sid)
                shutil.copyfile(capdir / in_name, rundir / in_name)
                inputs = read_checkpoint_file(rundir / in_name)
            result = run(driver, timeout_s=60.0)
            assert result.exit_code == 0, result.stderr
            candidate = read_checkpoint_file(rundir / output_checkpoint_name(sid))

            # The identity body must hand every input back bit-exact and
            # leave pure outputs zeroed.
            report = compare(reference, candidate, manifest, Tolerance(abs=0.0, rel=0.0))
            assert report.status is ComparisonStatus.PASS, (sid, report)
            in_payloads = {rec.name: rec.payload for rec in inputs.records}
            directions = {v.name: v.direction for v in manifest.variables}
            assert {rec.name for rec in candidate.records} == set(
                v.name for v in manifest.variables if v.direction in ("inout", "out")
            )
            for rec in candidate.records:
                if directions[rec.name] == "inout":
                    assert rec.payload == in_payloads[rec.name], rec.name
                else:
                    assert rec.payload == b"\x00" * len(rec.payload), rec.name
        assert time.monotonic() - started < 120.0


# --------------------------------------------------------------------------
# 4. end-to-end differential validation statuses


HISTO_SOURCE = textwrap.dedent(
    """\
    #include <stdlib.h>

    static double samples_v[100000];
    static double hist[64];

    int main(void) {
        long idx;
        for (idx = 0; idx < 100000; idx++) {
            samples_v[idx] = (double)((idx * 2654435761u) % 64);
        }
        for (idx = 0; idx < 64; idx++) {
            hist[idx] = 0.0;
        }
        #pragma experimental section start id=histo
        for (idx = 0; idx < 100000; idx++) {
            hist[(int)samples_v[idx]] += 1.0;
        }
        #pragma experimental section stop id=histo
        return 0;
    }
    """
)

HISTO_MANIFEST = {
    "section_id": "histo",
    "parallelizable": True,
    "expected_pattern": "PA",
    "variables": [
        {"name": "samples_v", "elem_type": "f64", "extents": [100000], "direction": "in"},
        {"name": "hist", "elem_type": "f64", "extents": [64], "direction": "out"},
        {"name": "idx", "elem_type": "i64", "direction": "in"},
    ],
}

HISTO_GOOD = textwrap.dedent(
    """\
    The loop is an array reduction; give every thread a private copy:

    ```c
    #pragma omp parallel for reduction(+:hist[:64])
    for (idx = 0; idx < 100000; idx++) {
        hist[(int)samples_v[idx]] += 1.0;
    }
    ```
    """
)

HISTO_PERTURBED = textwrap.dedent(
    """\
    ```c
    #pragma omp parallel for reduction(+:hist[:64])
    for (idx = 0; idx < 100000; idx++) {
        hist[(int)samples_v[idx]] += 1.0;
    }
    hist[17] += 1e-2;
    ```
    """
)

HISTO_BROKEN = "```c\nfor (idx = 0; idx < ; idx++ {{{ not C at all\n```\n"

HISTO_HANG = "```c\nwhile (1) { }\n```\n"


def _histo_campaign(tmp_path_factory) -> tuple[CampaignConfig, Path, list[OutcomeRecord]]:
    if "histo" not in _STATE:
        base = tmp_path_factory.mktemp("histo_campaign")
        (base / "histo.c").write_text(HISTO_SOURCE)
        (base / "histo.manifest.json").write_text(json.dumps(HISTO_MANIFEST))
        mock = MockLlm(
            "mock",
            {
                "histo/IP/1": HISTO_GOOD,
                "histo/IP/2": HISTO_PERTURBED,
                "histo/IP/3": HISTO_BROKEN,
                "histo/IP/4": HISTO_HANG,
            },
        )
        config = CampaignConfig(
            sections=(SectionJob(base / "histo.c", base / "histo.manifest.json"),),
            llm_backends=(mock,),
            strategies=(PromptStrategy.IP,),
            attempts=4,
            timing_repeats=2,
            tolerance=Tolerance(abs=0.0, rel=1e-6),
            build=BuildSpec(flags=("-O2", "-fopenmp")),
            threads=2,
            timeout_s=2.0,
        )
        outdir = base / "out"
        records = execute(plan(config), config, outdir)
        _STATE["histo"] = (config, outdir, records)
    return _STATE["histo"]  # type: ignore[return-value]


def _scan_worst_violation(
    reference: Checkpoint, candidate: Checkpoint, tol: Tolerance
) -> tuple[str, int]:
    """Brute-force scan oracle: worst violating element over f64 records."""
    cand_by_name = {rec.name: rec for rec in candidate.records}
    worst, worst_err = None, -1.0
    for ref in reference.records:
        ref_vals = [v[0] for v in struct.iter_unpack("<d", ref.payload)]
        cand_vals = [v[0] for v in struct.iter_unpack("<d", cand_by_name[ref.name].payload)]
        for flat, (rv, cv) in enumerate(zip(ref_vals, cand_vals)):
            if math.isnan(rv) and math.isnan(cv):
                continue
            err = abs(rv - cv)
            if err <= tol.abs + tol.rel * abs(rv):
                continue
            if err > worst_err:
                worst, worst_err = (ref.name, flat), err
    assert worst is not None
    return worst


def test_04_differential_validation(announce, tmp_path_factory):
    with announce(4, "differential validation statuses"):
        _require_gcc()
        started = time.monotonic()
        config, outdir, records = _histo_campaign(tmp_path_factory)
        by_attempt = {r.attempt: r for r in records if r.tool == "mock"}
        assert by_attempt[1].status is ValidationStatus.PASS
        assert by_attempt[1].category is OutcomeCategory.EXPECTED_APPLIED
        assert by_attempt[2].status is ValidationStatus.NUMERIC_MISMATCH
        assert by_attempt[3].status is ValidationStatus.COMPILE_ERROR
        assert by_attempt[4].status is ValidationStatus.TIMEOUT

        # The persisted scratch checkpoints let the comparator's offending
        # index be checked against an independent brute-force scan.
        reference = read_checkpoint_file(
            outdir / "sections" / "histo" / "capture" / output_checkpoint_name("histo")
        )
        candidate = read_checkpoint_file(
            outdir
            / "sections"
            / "histo"
            / "candidates"
            / "mock__IP__2"
            / output_checkpoint_name("histo")
        )
        manifest = StateManifest(
            section_id="histo",
            variables=tuple(
                VariableSpec(v["name"], v["elem_type"], tuple(v.get("extents", ())), v["direction"])
                for v in HISTO_MANIFEST["variables"]
            ),
            parallelizable=True,
            expected_pattern="PA",
        )
        report = compare(reference, candidate, manifest, config.tolerance)
        assert report.status is ComparisonStatus.NUMERIC_MISMATCH
        oracle = _scan_worst_violation(reference, candidate, config.tolerance)
        assert report.offending == oracle == ("hist", 17)
        assert time.monotonic() - started < 180.0


# --------------------------------------------------------------------------
# 5. pattern corpus and outcome categories


CORPUS_EXPECTATIONS = {
    "po_simple.c": {"PO"},
    "po_region_single_for.c": {"PO"},
    "pf_call_direct.c": {"PO", "PF"},
    "pf_call_in_region.c": {"PO", "PF"},
    "pr_two_loops.c": {"PR"},
    "pr_nowait.c": {"PR", "NW"},
    "pa_array_section.c": {"PO", "PA"},
    "pa_indexed_target.c": {"PO", "PA"},
    "ds_dynamic.c": {"PO", "DS"},
    "ds_dynamic_chunk_call.c": {"PO", "DS", "PF"},
    "nw_region_single.c": {"PO", "NW"},
    "negative_inner_only.c": set(),
}


def test_05_pattern_corpus_and_categories(announce):
    with announce(5, "pattern corpus and outcome categories"):
        started = time.monotonic()
        files = sorted(CORPUS.glob("*.c"))
        assert {p.name for p in files} == set(CORPUS_EXPECTATIONS)
        for path in files:
            labels = {label.value for label in detect(path.read_text())}
            assert labels == CORPUS_EXPECTATIONS[path.name], path.name
        for pattern in ("PO", "PF", "PR", "PA", "DS", "NW"):
            hits = sum(1 for exp in CORPUS_EXPECTATIONS.values() if pattern in exp)
            assert hits >= 2, pattern

        parallel = StateManifest(
            section_id="s",
            variables=(VariableSpec("a", "f64", (8,), "inout"),),
            parallelizable=True,
            expected_pattern="PO",
        )
        refusal = StateManifest(
            section_id="s",
            variables=(VariableSpec("a", "f64", (8,), "inout"),),
            parallelizable=False,
            non_parallel_reason="DP",
        )
        applied = detect("#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = 0;")
        sideways = detect("#pragma omp parallel reduction(+:acc[:8])\n{ acc[0] += f(); }")
        untouched = detect("for (i = 1; i < n; i++) a[i] = a[i - 1] + b[i];")
        assert (
            categorize(parallel, applied, ValidationStatus.PASS)
            is OutcomeCategory.EXPECTED_APPLIED
        )
        assert (
            categorize(parallel, sideways, ValidationStatus.PASS)
            is OutcomeCategory.UNEXPECTED_CORRECT
        )
        assert (
            categorize(refusal, untouched, ValidationStatus.PASS)
            is OutcomeCategory.CORRECTLY_REFUSED
        )
        assert time.monotonic() - started < 1.0


# --------------------------------------------------------------------------
# 6. timing fidelity


SLEEP_BODY = textwrap.dedent(
    """\
    struct timespec pcaot_req;
    pcaot_req.tv_sec = 0;
    pcaot_req.tv_nsec = 100000000L;
    nanosleep(&pcaot_req, (struct timespec *)0);
    tick = tick + 1;
    """
)


def test_06_timing_fidelity(announce, tmp_path):
    with announce(6, "timing fidelity (100 ms sleep, self-speedup)"):
        _require_gcc()
        manifest = StateManifest(
            section_id="nap",
            variables=(VariableSpec("tick", "i64", (), "inout"),),
            parallelizable=True,
            expected_pattern="PO",
        )
        write_checkpoint_file(
            tmp_path / input_checkpoint_name("nap"),
            Checkpoint((VarRecord("tick", "i64", (), struct.pack("<q", 7)),)),
        )
        binary = build(
            generate_replay_driver(SLEEP_BODY, manifest, timing_repeats=3),
            BuildSpec(workdir=tmp_path),
        )

        nominal = 100_000_000
        first = collect_timing(run(binary, timeout_s=30.0))
        assert abs(first.median_ns - nominal) <= 0.10 * nominal, first

        # Serial section vs itself: two more independent measurements.
        again = collect_timing(run(binary, timeout_s=30.0))
        ratio = again.median_ns / first.median_ns
        assert 0.8 <= ratio <= 1.25, ratio


# --------------------------------------------------------------------------
# 7. prompt fidelity


IP_SENTENCE = "Given the program below, improve its performance using OpenMP."
DIP_SENTENCE = (
    "Given the C program below, check for read after write and write after read "
    "dependencies among iterations, if there are no dependencies among iterations of the "
    "outermost loop, parallelize this loop using OpenMP directives. If dependencies are "
    "found in the outermost loop but there exist inner loops that can be parallelized "
    "without violating data dependencies, then parallelize those inner loops instead."
)
COT_SENTENCE = (
    "As you work through the program, explain each step of your reasoning process to "
    "ensure clarity and correctness in your optimization decisions. Think step by step."
)


def test_07_prompt_fidelity(announce):
    with announce(7, "prompt fidelity"):
        started = time.monotonic()
        code = "for (i = 0; i < n; i++) a[i] = b[i];"
        rendered = {s: render_prompt(s, code) for s in PromptStrategy}
        assert IP_SENTENCE in rendered[PromptStrategy.IP]
        assert DIP_SENTENCE in rendered[PromptStrategy.DIP]
        assert DIP_SENTENCE in rendered[PromptStrategy.COT]
        assert COT_SENTENCE in rendered[PromptStrategy.COT]
        assert rendered[PromptStrategy.COT].split("\n\n")[0].endswith("Think step by step.")
        for strategy, text in rendered.items():
            assert text.endswith("\n\n" + code), strategy
        assert (IP_PROMPT, DIP_PROMPT) == (IP_SENTENCE, DIP_SENTENCE)
        assert COT_PROMPT == DIP_SENTENCE + " " + COT_SENTENCE
        assert time.monotonic() - started < 1.0


# --------------------------------------------------------------------------
# 8. demonstrable parallel speedup


def test_08_parallel_speedup(announce, tmp_path):
    with announce(8, "parallel speedup on sample section"):
        _require_gcc()
        cores = usable_cores()
        if cores < 2:
            pytest.skip(f"host exposes {cores} usable core(s); need at least 2")
        started = time.monotonic()
        mock = MockLlm(
            "mock", {"sumsqrt/IP/1": (SAMPLES / "mock" / "sumsqrt.txt").read_text()}
        )
        config = CampaignConfig(
            sections=(
                SectionJob(SAMPLES / "sumsqrt.c", SAMPLES / "sumsqrt.manifest.json"),
            ),
            llm_backends=(mock,),
            strategies=(PromptStrategy.IP,),
            attempts=1,
            timing_repeats=3,
            tolerance=Tolerance(abs=1e-9, rel=1e-6),
            build=BuildSpec(flags=("-O2", "-fopenmp", "-lm")),
            threads=4,
        )
        records = execute(plan(config), config, tmp_path / "out")
        candidate = next(r for r in records if r.tool == "mock")
        serial = next(r for r in records if r.tool == SERIAL_TOOL_ID)
        assert candidate.status is ValidationStatus.PASS
        assert candidate.speedup is not None and candidate.speedup > 1.2, (
            f"candidate: {candidate}; serial baseline: {serial}; usable cores: {cores}"
        )
        assert time.monotonic() - started < 120.0


# --------------------------------------------------------------------------
# 9. report determinism


def test_09_report_determinism(announce, tmp_path, tmp_path_factory):
    with announce(9, "report determinism"):
        _require_gcc()
        started = time.monotonic()
        config, outdir, _ = _histo_campaign(tmp_path_factory)
        with open(outdir / "records.jsonl", encoding="utf-8") as handle:
            records = [OutcomeRecord.from_dict(json.loads(line)) for line in handle]
        assert records

        metrics = aggregate(records, config)
        first_dir, second_dir = tmp_path / "r1", tmp_path / "r2"
        first = emit_reports(metrics, records, first_dir)
        second = emit_reports(aggregate(records, config), records, second_dir)
        assert [p.name for p in first] == [p.name for p in second]
        assert any(p.name == "metrics.json" for p in first)
        assert sum(1 for p in first if p.suffix == ".svg") == 3
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), a.name
        assert time.monotonic() - started < 5.0


# --------------------------------------------------------------------------
# 10. offline guarantee


def test_10_offline_guarantee(announce):
    with announce(10, "offline guarantee"):
        assert _STATE.get("guard_installed") is True
        assert _NET_VIOLATIONS == []
