import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcaot.checkpoint import (
    NUMPY_DTYPES,
    TYPE_TAGS,
    Checkpoint,
    ComparisonStatus,
    Tolerance,
    VarRecord,
    compare,
    encode,
    read_checkpoint_file,
)
from pcaot.instrument import (
    C_TYPES,
    SourceKind,
    UnknownSection,
    bodies_named_in,
    can_share_driver,
    capture_insertion_line_count,
    generate_capture_program,
    generate_replay_driver,
    input_checkpoint_name,
    output_checkpoint_name,
)
from pcaot.runner import BuildSpec, CompileFailure, build, collect_timing, run
from pcaot.sections import ELEM_TYPES, StateManifest, VariableSpec, extract_sections

from conftest import needs_gcc


def manifest_of(*specs, section_id="sec"):
    return StateManifest(
        section_id=section_id,
        variables=tuple(specs),
        parallelizable=True,
        expected_pattern="PO",
    )


SCALAR_SOURCE = """\
#include <stdio.h>

int main(void) {
    long x = 41;
#pragma experimental section start id=sec
    x = x + 1;
#pragma experimental section stop
    printf("%ld\\n", x);
    return 0;
}
"""

SCALAR_MANIFEST = manifest_of(VariableSpec("x", "i64", (), "inout"))


def is_subsequence(needle_lines, hay_lines):
    it = iter(hay_lines)
    return all(line in it for line in needle_lines)


def test_capture_is_insertion_only():
    (section,) = extract_sections(SCALAR_SOURCE, "s.c")
    generated = generate_capture_program(SCALAR_SOURCE, section, SCALAR_MANIFEST)
    assert generated.kind is SourceKind.CAPTURE_PROGRAM
    original_lines = SCALAR_SOURCE.splitlines()
    new_lines = generated.text.splitlines()
    # Every original line survives byte for byte, in order.
    assert is_subsequence(original_lines, new_lines)
    grown = len(new_lines) - len(original_lines)
    assert grown == capture_insertion_line_count(SCALAR_MANIFEST)


def test_capture_no_inputs_dumps_once():
    source = (
        "int main(void) {\n"
        "    double y = 0.0;\n"
        "#pragma experimental section start id=sec\n"
        "    y = 2.0;\n"
        "#pragma experimental section stop\n"
        "    return 0;\n"
        "}\n"
    )
    manifest = manifest_of(VariableSpec("y", "f64", (), "out"))
    (section,) = extract_sections(source, "n.c")
    generated = generate_capture_program(source, section, manifest)
    # One dump: the output's.
    assert generated.text.count("fopen(") == 1
    assert input_checkpoint_name("sec") not in generated.text
    assert output_checkpoint_name("sec") in generated.text
    grown = len(generated.text.splitlines()) - len(source.splitlines())
    assert grown == capture_insertion_line_count(manifest)


def test_capture_rejects_foreign_section():
    (section,) = extract_sections(SCALAR_SOURCE, "s.c")
    other = StateManifest(
        section_id="other",
        variables=(VariableSpec("x", "i64", (), "inout"),),
        parallelizable=True,
        expected_pattern="PO",
    )
    with pytest.raises(UnknownSection):
        generate_capture_program(SCALAR_SOURCE, section, other)


def test_every_element_type_has_a_c_type_a_tag_and_a_dtype():
    # VariableSpec admits only ELEM_TYPES, so the generators need no type check of their own.
    for table in (C_TYPES, TYPE_TAGS, NUMPY_DTYPES):
        assert sorted(table) == sorted(ELEM_TYPES)


def test_driver_declares_every_array_static():
    # 800 bytes and 80,000 bytes alike: no declaration depends on an array's size.
    small = manifest_of(VariableSpec("a", "f64", (100,), "out"))
    big = manifest_of(VariableSpec("a", "f64", (100, 100), "out"))
    small_text = generate_replay_driver("a[0] = 1.0;", small).text
    big_text = generate_replay_driver("a[0][0] = 1.0;", big).text
    assert "    static double a[100];\n" in small_text
    assert "    static double a[100][100];\n" in big_text
    for text in (small_text, big_text):
        assert "static long long pcaot_ns[3];" in text
        assert "malloc" not in text
        assert "free(" not in text


def test_driver_preamble_is_self_contained():
    text = generate_replay_driver("s = 1.0;", manifest_of(VariableSpec("s", "f64", (), "out"))).text
    assert text.startswith("#define _POSIX_C_SOURCE 200809L")
    assert "#include <time.h>" in text
    assert "#include <math.h>" in text
    assert "CLOCK_MONOTONIC" in text


@needs_gcc
def test_end_to_end_scalar_increment(workdir):
    (section,) = extract_sections(SCALAR_SOURCE, "s.c")
    generated = generate_capture_program(SCALAR_SOURCE, section, SCALAR_MANIFEST)
    binary = build(generated, BuildSpec(workdir=workdir / "cap"))
    result = run(binary, timeout_s=60.0)
    assert result.exit_code == 0, result.stderr
    incoming = read_checkpoint_file(workdir / "cap" / input_checkpoint_name("sec"))
    outgoing = read_checkpoint_file(workdir / "cap" / output_checkpoint_name("sec"))
    assert incoming.record("x").values() == np.int64(41)
    assert outgoing.record("x").values() == np.int64(42)

    driver = generate_replay_driver(section.body_text, SCALAR_MANIFEST, timing_repeats=3)
    driver_bin = build(driver, BuildSpec(workdir=workdir / "drv"))
    (workdir / "drv" / input_checkpoint_name("sec")).write_bytes(
        (workdir / "cap" / input_checkpoint_name("sec")).read_bytes()
    )
    replay = run(driver_bin, timeout_s=60.0)
    assert replay.exit_code == 0, replay.stderr
    timing = collect_timing(replay)
    assert len(timing.samples_ns) == 3
    assert all(s >= 0 for s in timing.samples_ns)
    replayed = read_checkpoint_file(workdir / "drv" / output_checkpoint_name("sec"))
    # Input reloaded before every repeat: x must be 42, not 41 + repeats.
    assert replayed.record("x").values() == np.int64(42)
    report = compare(outgoing, replayed, SCALAR_MANIFEST, Tolerance(abs=0.0, rel=0.0))
    assert report.status is ComparisonStatus.PASS


@needs_gcc
def test_driver_rezeroes_pure_outputs(workdir):
    # With s zeroed before every repeat, an accumulating body still ends
    # at 1.0; without the re-zero it would end at the repeat count.
    manifest = manifest_of(VariableSpec("s", "f64", (), "out"))
    driver = generate_replay_driver("s += 1.0;", manifest, timing_repeats=5)
    binary = build(driver, BuildSpec(workdir=workdir))
    result = run(binary, timeout_s=60.0)
    assert result.exit_code == 0, result.stderr
    out = read_checkpoint_file(workdir / output_checkpoint_name("sec"))
    assert out.record("s").values() == np.float64(1.0)


@needs_gcc
def test_driver_times_a_known_sleep(workdir):
    # A 100 ms nanosleep must be measured within 10 percent.
    manifest = manifest_of(VariableSpec("flag", "i32", (), "out"))
    body = (
        "{ struct timespec pcaot_unused_ts = {0, 100000000L}; "
        "nanosleep(&pcaot_unused_ts, 0); } flag = 1;"
    )
    driver = generate_replay_driver(body, manifest, timing_repeats=3)
    binary = build(driver, BuildSpec(workdir=workdir))
    result = run(binary, timeout_s=60.0)
    assert result.exit_code == 0, result.stderr
    timing = collect_timing(result)
    assert len(timing.samples_ns) == 3
    assert timing.median_ns == pytest.approx(100_000_000, rel=0.10)


@needs_gcc
def test_a_repeat_count_beyond_the_stack_still_runs(workdir):
    # 1,500,000 samples of 8 bytes are 12 MB of timing buffer: more than an
    # 8 MiB stack holds, so this fails wherever the buffer lives on a stack
    # of 12 MiB or less.
    repeats = 1_500_000
    manifest = manifest_of(VariableSpec("k", "i32", (), "out"))
    binary = build(generate_replay_driver("k = 7;", manifest, timing_repeats=repeats),
                   BuildSpec(workdir=workdir))
    timing = collect_timing(run(binary, timeout_s=60.0), repeats)
    assert len(timing.samples_ns) == repeats


@needs_gcc
def test_timing_line_format(workdir):
    manifest = manifest_of(VariableSpec("k", "i32", (), "out"))
    driver = generate_replay_driver("k = 7;", manifest, timing_repeats=4)
    binary = build(driver, BuildSpec(workdir=workdir))
    result = run(binary, timeout_s=60.0)
    lines = [l for l in result.stdout.splitlines() if l.startswith("PCAOT_TIME_NS")]
    assert len(lines) == 4
    for line in lines:
        prefix, value = line.split()
        assert prefix == "PCAOT_TIME_NS"
        assert value.isdigit()


_cross_elem = st.sampled_from(["i8", "i32", "i64", "f32", "f64"])


@st.composite
def _cross_manifest(draw):
    count = draw(st.integers(1, 3))
    specs = []
    for index in range(count):
        elem = draw(_cross_elem)
        rank = draw(st.integers(0, 2))
        extents = tuple(draw(st.integers(1, 6)) for _ in range(rank))
        direction = "out" if index == 0 else draw(st.sampled_from(["in", "out", "inout"]))
        specs.append(VariableSpec(f"v{index}", elem, extents, direction))
    return manifest_of(*specs, section_id="fuzz")


@needs_gcc
@given(manifest=_cross_manifest())
@settings(max_examples=8, deadline=None)
def test_c_writer_python_reader_cross_codec(manifest, tmp_path_factory):
    # The C helpers write checkpoints the Python codec must read back,
    # whatever the type/rank/extent mix.  Identity body, zero-filled data.
    workdir = tmp_path_factory.mktemp("codec")
    driver = generate_replay_driver(";", manifest, timing_repeats=1)
    binary = build(driver, BuildSpec(workdir=workdir))
    if manifest.inputs:
        # Synthesize the input checkpoint in Python: C must read it.
        from pcaot.checkpoint import Checkpoint, VarRecord, write_checkpoint_file

        records = []
        for spec in manifest.inputs:
            dtype = {"i8": "<i1", "i32": "<i4", "i64": "<i8", "f32": "<f4", "f64": "<f8"}[
                spec.elem_type
            ]
            values = (np.arange(spec.element_count) % 100).astype(dtype)
            if spec.extents:
                values = values.reshape(spec.extents)
            records.append(
                VarRecord.from_values(spec.name, spec.elem_type, values, extents=spec.extents)
            )
        write_checkpoint_file(
            workdir / input_checkpoint_name("fuzz"), Checkpoint(records=tuple(records))
        )
    result = run(binary, timeout_s=60.0)
    assert result.exit_code == 0, result.stderr
    outgoing = read_checkpoint_file(workdir / output_checkpoint_name("fuzz"))
    for spec in manifest.outputs:
        record = outgoing.record(spec.name)
        assert record.elem_type == spec.elem_type
        assert record.extents == spec.extents
        values = np.asarray(record.values())
        if spec.direction == "inout":
            expected = (np.arange(spec.element_count) % 100).astype(values.dtype)
            assert np.array_equal(values.ravel(), expected)
        else:
            assert not values.any()


@needs_gcc
def test_array_roundtrip_with_inout(workdir):
    source = (
        "int main(void) {\n"
        "    static double grid[40][50];\n"
        "    int i, j;\n"
        "    for (i = 0; i < 40; i++)\n"
        "        for (j = 0; j < 50; j++)\n"
        "            grid[i][j] = i * 50 + j;\n"
        "#pragma experimental section start id=sec\n"
        "    for (i = 0; i < 40; i++)\n"
        "        for (j = 0; j < 50; j++)\n"
        "            grid[i][j] = grid[i][j] * 2.0;\n"
        "#pragma experimental section stop\n"
        "    return grid[0][1] > 0.0 ? 0 : 1;\n"
        "}\n"
    )
    manifest = manifest_of(
        VariableSpec("grid", "f64", (40, 50), "inout"),
        VariableSpec("i", "i32", (), "in"),
        VariableSpec("j", "i32", (), "in"),
    )
    (section,) = extract_sections(source, "g.c")
    generated = generate_capture_program(source, section, manifest)
    binary = build(generated, BuildSpec(workdir=workdir / "cap"))
    result = run(binary, timeout_s=60.0)
    assert result.exit_code == 0, result.stderr
    outgoing = read_checkpoint_file(workdir / "cap" / output_checkpoint_name("sec"))
    grid = outgoing.record("grid").values()
    assert grid.shape == (40, 50)
    expected = np.arange(2000, dtype="<f8").reshape(40, 50) * 2.0
    assert np.array_equal(grid, expected)

    driver = generate_replay_driver(section.body_text, manifest, timing_repeats=2)
    driver_bin = build(driver, BuildSpec(workdir=workdir / "drv"))
    (workdir / "drv" / input_checkpoint_name("sec")).write_bytes(
        (workdir / "cap" / input_checkpoint_name("sec")).read_bytes()
    )
    replay = run(driver_bin, timeout_s=60.0)
    assert replay.exit_code == 0, replay.stderr
    replayed = read_checkpoint_file(workdir / "drv" / output_checkpoint_name("sec"))
    report = compare(outgoing, replayed, manifest, Tolerance(abs=0.0, rel=0.0))
    assert report.status is ComparisonStatus.PASS


REJECT_MANIFEST = manifest_of(
    VariableSpec("grid", "f64", (3, 4), "inout"),
    VariableSpec("n", "i32", (), "in"),
)


def _reject_input(grid_name="grid", grid_type="f64", grid_extents=(3, 4), records=2):
    grid = VarRecord.from_values(
        grid_name, grid_type, np.arange(12).reshape(grid_extents), extents=grid_extents
    )
    n = VarRecord.from_values("n", "i32", 7)
    return encode(Checkpoint(records=(grid, n)[:records]))


_GOOD_INPUT = _reject_input()

# Malformed input checkpoints and the message the C reader must die with.
REJECTIONS = {
    "truncated": (_GOOD_INPUT[:-5], "checkpoint truncated"),
    "bad_magic": (b"PCAX" + _GOOD_INPUT[4:], "bad checkpoint magic"),
    "version_2": (_GOOD_INPUT[:4] + (2).to_bytes(4, "little") + _GOOD_INPUT[8:],
                  "unsupported checkpoint version"),
    "record_count": (_reject_input(records=1), "unexpected checkpoint record count"),
    "wrong_name": (_reject_input(grid_name="grix"), "checkpoint variable order mismatch"),
    "wrong_type": (_reject_input(grid_type="f32"), "checkpoint element type mismatch"),
    "wrong_extents": (_reject_input(grid_extents=(4, 3)), "checkpoint extent mismatch"),
    "no_terminator": (_GOOD_INPUT[:-1], "checkpoint missing terminator"),
    "trailing_bytes": (_GOOD_INPUT + b"\x00", "trailing bytes after terminator"),
}


@pytest.fixture(scope="module")
def reject_driver(tmp_path_factory):
    driver = generate_replay_driver("grid[0][0] += n;", REJECT_MANIFEST, timing_repeats=1)
    return build(driver, BuildSpec(workdir=tmp_path_factory.mktemp("reject")))


@needs_gcc
def test_driver_accepts_well_formed_input(reject_driver):
    (reject_driver.parent / input_checkpoint_name("sec")).write_bytes(_GOOD_INPUT)
    result = run(reject_driver, timeout_s=60.0)
    assert result.exit_code == 0, result.stderr
    out = read_checkpoint_file(reject_driver.parent / output_checkpoint_name("sec"))
    assert out.record("grid").values()[0, 0] == 7.0


@needs_gcc
@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_driver_rejects_malformed_input(reject_driver, case):
    data, message = REJECTIONS[case]
    (reject_driver.parent / input_checkpoint_name("sec")).write_bytes(data)
    result = run(reject_driver, timeout_s=60.0)
    assert result.exit_code == 3, (result.exit_code, result.stderr)
    assert result.stderr.strip() == f"pcaot: {message}"
    assert "PCAOT_TIME_NS" not in result.stdout


WARNING_FLAGS = ("-O3", "-fopenmp", "-Wall", "-Wextra", "-Werror")
EVERY_TYPE_MANIFEST = manifest_of(
    VariableSpec("a", "i8", (4,), "in"),
    VariableSpec("b", "i32", (2, 3), "inout"),
    VariableSpec("c", "i64", (), "inout"),
    VariableSpec("d", "f32", (5,), "out"),
    VariableSpec("e", "f64", (), "out"),
)
EVERY_TYPE_BODY = "d[0] = (float)a[0]; e = (double)(b[1][2] + c);"
EVERY_TYPE_SOURCE = f"""\
#include <stdint.h>

int main(void) {{
    int8_t a[4] = {{1, 2, 3, 4}};
    int32_t b[2][3] = {{{{0}}}};
    int64_t c = 5;
    float d[5] = {{0}};
    double e = 0.0;
#pragma experimental section start id=sec
    {EVERY_TYPE_BODY}
#pragma experimental section stop
    return d[0] > 0.0f && e > 0.0 ? 0 : 1;
}}
"""


@needs_gcc
def test_driver_helpers_compile_without_warnings(workdir):
    # Every element type, read and written, by a capture and by a driver:
    # each of their checkpoint blocks is used.
    (section,) = extract_sections(EVERY_TYPE_SOURCE, "t.c")
    capture = generate_capture_program(EVERY_TYPE_SOURCE, section, EVERY_TYPE_MANIFEST)
    # The program's own section pragmas are unknown to gcc; the capture adds no other warning.
    capture_flags = (*WARNING_FLAGS, "-Wno-unknown-pragmas")
    capture_bin = build(capture, BuildSpec(workdir=workdir / "cap", flags=capture_flags))
    assert run(capture_bin, timeout_s=60.0).exit_code == 0
    driver = generate_replay_driver(EVERY_TYPE_BODY, EVERY_TYPE_MANIFEST, timing_repeats=2)
    driver_bin = build(driver, BuildSpec(workdir=workdir / "drv", flags=WARNING_FLAGS))
    (workdir / "drv" / input_checkpoint_name("sec")).write_bytes(
        (workdir / "cap" / input_checkpoint_name("sec")).read_bytes()
    )
    assert run(driver_bin, timeout_s=60.0).exit_code == 0
    assert (workdir / "drv" / output_checkpoint_name("sec")).read_bytes() == (
        workdir / "cap" / output_checkpoint_name("sec")
    ).read_bytes()


@needs_gcc
def test_outputs_only_driver_compiles_without_warnings(workdir):
    # No input to reload: the driver has no reader block and no header buffer.
    manifest = manifest_of(VariableSpec("y", "f64", (3,), "out"))
    driver = generate_replay_driver("y[0] = 1.0; y[1] = 2.0; y[2] = 3.0;", manifest)
    assert build(driver, BuildSpec(workdir=workdir, flags=WARNING_FLAGS)).is_file()


@needs_gcc
def test_driver_of_several_bodies_runs_the_one_argv_names(workdir):
    manifest = manifest_of(VariableSpec("k", "i32", (), "out"))
    driver = generate_replay_driver(["k = 7;", "k = 8;", "k = 9;"], manifest, timing_repeats=2)
    binary = build(driver, BuildSpec(workdir=workdir, flags=WARNING_FLAGS))
    # No argument runs body 0.
    for argv, value in (([], 7), (["0"], 7), (["1"], 8), (["2"], 9)):
        result = run(binary, timeout_s=60.0, args=argv)
        assert result.exit_code == 0, result.stderr
        assert len(collect_timing(result, 2).samples_ns) == 2
        out = read_checkpoint_file(workdir / output_checkpoint_name("sec"))
        assert out.record("k").values() == np.int32(value)
    for argv in (["3"], ["1", "2"], ["01"]):
        result = run(binary, timeout_s=60.0, args=argv)
        assert result.exit_code == 3
        assert "pcaot: run as: ./driver N, with N from 0 to 2" in result.stderr


def test_one_body_driver_is_the_same_from_a_string_or_a_list():
    manifest = manifest_of(VariableSpec("k", "i32", (), "out"))
    text = generate_replay_driver("k = 7;", manifest).text
    assert generate_replay_driver(["k = 7;"], manifest).text == text
    assert "int main(int pcaot_argc, char **pcaot_argv) {" in text
    assert text.count("static __attribute__((noinline)) int pcaot_section_0(int pcaot_which) {") == 1
    assert "pcaot_section_1" not in text
    assert text.count('#line 1 "pcaot_body_0.c"') == 1
    assert "pcaot_body_1" not in text
    with pytest.raises(ValueError):
        generate_replay_driver([], manifest)


def test_a_driver_emits_its_shared_code_once():
    manifest = manifest_of(VariableSpec("a", "f64", (4,), "in"), VariableSpec("k", "i32", (), "out"))
    text = generate_replay_driver(["k = 7;", "k = 8;", "k = 9;"], manifest, timing_repeats=2).text
    _, section_text = text.split("pcaot_section_0(int pcaot_which) {")
    for once in ("double a[4];", 'fopen("sec.in.ckpt"', "k = 0;", 'fopen("sec.out.ckpt"',
                 'printf("PCAOT_TIME_NS'):
        assert section_text.count(once) == 1, once
    # Each body between its own two clock reads.
    assert text.count("clock_gettime(") == 6
    assert text.count("do { /* pcaot: section body */") == 3


@needs_gcc
def test_gcc_names_the_failing_body(workdir):
    manifest = manifest_of(VariableSpec("k", "i32", (), "out"))
    bodies = ["k = 7;", "k = undeclared_name;", "k = 9;", "k = 10"]
    driver = generate_replay_driver(bodies, manifest, timing_repeats=1)
    with pytest.raises(CompileFailure) as excinfo:
        build(driver, BuildSpec(workdir=workdir))
    assert bodies_named_in(excinfo.value.stderr) == {1, 3}


@needs_gcc
def test_a_driver_of_two_sections_numbers_bodies_over_the_whole_driver(workdir):
    # Both sections name their variable k, with other types and extents.
    first = manifest_of(VariableSpec("k", "i32", (), "out"))
    second = manifest_of(VariableSpec("k", "f64", (2,), "out"), section_id="two")
    driver = generate_replay_driver(
        ["k = 7;", "k = 8;"], first, 2, "", [(["k[0] = 9.0; k[1] = 1.0;", "k[1] = 2.0;"], second)]
    )
    assert driver.section_id == "sec"
    binary = build(driver, BuildSpec(workdir=workdir, flags=WARNING_FLAGS))
    for argv, sid, value in (
        ([], "sec", 7), (["1"], "sec", 8), (["2"], "two", [9.0, 1.0]), (["3"], "two", [0.0, 2.0])
    ):
        for name in ("sec", "two"):
            (workdir / output_checkpoint_name(name)).unlink(missing_ok=True)
        result = run(binary, timeout_s=60.0, args=argv)
        assert result.exit_code == 0, result.stderr
        assert len(collect_timing(result, 2).samples_ns) == 2
        out = read_checkpoint_file(workdir / output_checkpoint_name(sid))
        assert out.record("k").values().tolist() == value
        other = "two" if sid == "sec" else "sec"
        assert not (workdir / output_checkpoint_name(other)).exists()
    result = run(binary, timeout_s=60.0, args=["4"])
    assert result.exit_code == 3
    assert "pcaot: run as: ./driver N, with N from 0 to 3" in result.stderr


@needs_gcc
def test_gcc_names_a_failing_body_of_a_later_section_by_its_driver_wide_number(workdir):
    first = manifest_of(VariableSpec("k", "i32", (), "out"))
    # A variable named size_t hides the type that the reload block of the
    # second section declares its table with: an error in the driver's own
    # code, after the first section's last body, which names no body.
    second = manifest_of(
        VariableSpec("size_t", "f64", (2,), "in"), VariableSpec("n", "i32", (), "out"),
        section_id="two",
    )
    driver = generate_replay_driver(["k = 7;", "k = 8;"], first, 1, "", [(["n = 1;", "n = k;"], second)])
    with pytest.raises(CompileFailure) as excinfo:
        build(driver, BuildSpec(workdir=workdir))
    assert "driver.c:" in excinfo.value.stderr
    assert bodies_named_in(excinfo.value.stderr) == {3}


def test_bodies_named_in_reads_error_lines_only():
    stderr = (
        "pcaot_body_2.c: In function 'pcaot_body_2':\n"
        "pcaot_body_2.c:14:5: error: expected ';' before '}' token\n"
        "pcaot_body_4.c:3:1: warning: unused variable 'x'\n"
        "pcaot_body_5.c:3: fatal error: too many errors\n"
        "/tmp/x/driver.c:1:1: error: pcaot_body_7.c:1:1: error: quoted\n"
        "collect2: error: ld returned 1 exit status\n"
    )
    assert bodies_named_in(stderr) == {2, 5}


@pytest.mark.parametrize(
    "body, shares",
    [
        ("total = 0.0;\n#pragma omp parallel for reduction(+:total)\nfor (;;) { }", True),
        ("  #  pragma   omp parallel\n{ }", True),
        ("/* { */ x = '}'; y = \"{{\"; // }", True),
        ("#pragma GCC unroll 4\nfor (;;) { }", False),
        ("#define N 4\nx = N;", False),
        ("#include <omp.h>\nx = 1;", False),
        ("_Pragma(\"omp parallel\") { }", False),
        ("x = 1; }", False),
        ("} x = 1; {", False),
        ("{ x = 1;", False),
        ("for this will not compile at all (", False),
        ("x = f(a[i], (b));", True),
        ("x = f(1;", False),
        ("x = a[i;", False),
        ("x = a[(i];", False),
        ("x = f(1)); {", False),
        ("x = ')' + \"[\"; /* ( */", True),
        ("k = 1; goto done;", False),
        ("k = 2; done: k += 10; /* goto */ s = \"goto\"; gotox = 1;", True),
    ],
)
def test_can_share_driver(body, shares):
    assert can_share_driver(body) is shares
