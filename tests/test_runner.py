import os
import shutil
import stat
import sys
import tempfile
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcaot import runner
from pcaot.instrument import GeneratedSource, SourceKind
from pcaot.runner import (
    BuildSpec,
    CompileFailure,
    NoTimingLines,
    RunResult,
    TimingSample,
    ToolMissing,
    build,
    collect_timing,
    run,
)

from conftest import needs_gcc, usable_cores


def _source(text, kind=SourceKind.REPLAY_DRIVER):
    return GeneratedSource(kind=kind, section_id="t", text=text)


def test_build_spec_requires_placeholders():
    with pytest.raises(ValueError):
        BuildSpec(compiler_cmd="gcc -o out")
    with pytest.raises(ValueError):
        BuildSpec(compiler_cmd="gcc {src}")


@needs_gcc
def test_build_produces_runnable_binary(workdir):
    binary = build(_source("int main(void) { return 0; }\n"), BuildSpec(workdir=workdir))
    assert binary.name == "driver"
    assert os.access(binary, os.X_OK)
    result = run(binary)
    assert result.exit_code == 0


@needs_gcc
def test_compile_failure_carries_stderr(workdir):
    with pytest.raises(CompileFailure) as excinfo:
        build(_source("int main(void) { syntax error here }\n"), BuildSpec(workdir=workdir))
    assert "error" in excinfo.value.stderr.lower()


def test_missing_compiler_raises_tool_missing(workdir):
    spec = BuildSpec(compiler_cmd="definitely-not-a-compiler-7f3a {src} -o {out}", workdir=workdir)
    with pytest.raises(ToolMissing):
        build(_source("int main(void) { return 0; }\n"), spec)


def test_flags_are_appended(workdir, tmp_path):
    # A fake compiler that records its argv proves flags land at the end.
    script = tmp_path / "fakecc"
    log = tmp_path / "argv.txt"
    script.write_text(f"#!/bin/sh\necho \"$@\" > {log}\nexit 0\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    spec = BuildSpec(
        compiler_cmd=f"{script} {{src}} -o {{out}}", flags=("-O3", "-fopenmp"), workdir=workdir
    )
    build(_source("x"), spec)
    argv = log.read_text().split()
    assert argv[-2:] == ["-O3", "-fopenmp"]
    assert argv[0].endswith("driver.c")


def _executable(path, text):
    path.write_text(text)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return path


def _argv_logging_compiler(tmp_path):
    # Appends each argv to a log and exits 0 without writing anything.  The
    # script path is per test, so the process-wide build memo sees a fresh
    # compiler_cmd.
    script = tmp_path / "fakecc"
    log = tmp_path / "argv.log"
    _executable(script, f'#!/bin/sh\necho "$@" >> {log}\nexit 0\n')
    return f"{script} {{src}} -o {{out}}", log


def _writing_compiler(tmp_path, delay_s=0):
    # Appends each source's text, then its argv, to a log, then sleeps
    # delay_s.  A source containing FAIL fails with a message naming its
    # path; any other source is written to {out}, followed by the output
    # path, with mode 751.  The path in the bytes and in the message tells a
    # kept result from a fresh compile.
    script = tmp_path / "writecc"
    log = tmp_path / "argv.log"
    _executable(
        script,
        "#!/bin/sh\n"
        f'echo "$(cat "$1")" "$@" >> {log}\n'
        + (f"sleep {delay_s}\n" if delay_s else "")
        + 'if grep -q FAIL "$1"; then echo "writecc: cannot compile $1" >&2; exit 1; fi\n'
        '{ cat "$1"; echo "$3"; } > "$3"\n'
        'chmod 751 "$3"\n',
    )
    return f"{script} {{src}} -o {{out}}", log


def _compiles(log):
    # Each compiler call's log line, split at spaces.
    return [line.split() for line in log.read_text().splitlines()]


def test_build_creates_nothing_outside_its_workdir(tmp_path, monkeypatch):
    compiler_cmd, _ = _writing_compiler(tmp_path)
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmpdir))
    monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
    build(_source("a"), BuildSpec(compiler_cmd=compiler_cmd, workdir=tmp_path / "d"))
    build(
        _source("a", kind=SourceKind.CAPTURE_PROGRAM),
        BuildSpec(compiler_cmd=compiler_cmd, workdir=tmp_path / "c"),
    )
    assert list(tmpdir.iterdir()) == []


def _private_tmpdir(tmp_path, monkeypatch):
    # An empty TMPDIR for this process and the compilers it starts.
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmpdir))
    monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
    return tmpdir


@pytest.mark.parametrize("kind", list(SourceKind))
def test_start_build_writes_no_file_and_build_writes_only_source_and_binary(
    tmp_path, monkeypatch, kind
):
    tmpdir = _private_tmpdir(tmp_path, monkeypatch)
    compiler_cmd, log = _writing_compiler(tmp_path)
    spec = BuildSpec(compiler_cmd=compiler_cmd, workdir=tmp_path / "w")
    runner.start_build(_source("a", kind=kind), spec)
    runner.wait_idle()
    assert len(_compiles(log)) == 1
    assert not spec.workdir.exists()
    assert list(tmpdir.iterdir()) == []
    binary = build(_source("a", kind=kind), spec)
    assert len(_compiles(log)) == 1
    assert sorted(p.name for p in spec.workdir.iterdir()) == [kind.value, f"{kind.value}.c"]
    assert binary == spec.workdir / kind.value
    assert list(tmpdir.iterdir()) == []


@pytest.mark.parametrize("outcome", ["fails", "tool missing", "no output"])
def test_a_compile_that_keeps_nothing_leaves_no_file_in_tmpdir(tmp_path, monkeypatch, outcome):
    tmpdir = _private_tmpdir(tmp_path, monkeypatch)
    if outcome == "fails":
        compiler_cmd, _ = _writing_compiler(tmp_path)
        source, raised = _source("FAIL"), CompileFailure
    elif outcome == "tool missing":
        compiler_cmd = "definitely-not-a-compiler-7f3a {src} -o {out}"
        source, raised = _source("x"), ToolMissing
    else:
        compiler_cmd, _ = _argv_logging_compiler(tmp_path)
        source, raised = _source("x"), None
    spec = BuildSpec(compiler_cmd=compiler_cmd, workdir=tmp_path / "w")
    runner.start_build(source, spec)
    runner.wait_idle()
    assert list(tmpdir.iterdir()) == []
    if raised is None:
        assert not build(source, spec).exists()
    else:
        with pytest.raises(raised):
            build(source, spec)
    assert list(tmpdir.iterdir()) == []


def test_identical_sources_compile_once(tmp_path):
    compiler_cmd, log = _writing_compiler(tmp_path)
    first = build(_source("a"), BuildSpec(compiler_cmd=compiler_cmd, workdir=tmp_path / "d0"))
    second = build(_source("a"), BuildSpec(compiler_cmd=compiler_cmd, workdir=tmp_path / "d1"))
    assert len(_compiles(log)) == 1
    assert second.parent.name == "d1" and second.name == "driver"
    assert (tmp_path / "d1" / "driver.c").read_text() == "a"
    # The first build's bytes and mode.
    assert second.read_bytes() == first.read_bytes()
    assert stat.S_IMODE(second.stat().st_mode) == 0o751


def test_a_different_text_flags_compiler_or_kind_compiles_again(tmp_path):
    compiler_cmd, log = _writing_compiler(tmp_path)
    base = BuildSpec(compiler_cmd=compiler_cmd)
    variants = [
        (_source("a"), base),
        (_source("b"), base),
        (_source("a"), replace(base, flags=("-O2",))),
        (_source("a"), replace(base, compiler_cmd=compiler_cmd + " -DOTHER")),
        (_source("a", kind=SourceKind.CAPTURE_PROGRAM), base),
    ]
    for i, (source, spec) in enumerate(variants):
        build(source, replace(spec, workdir=tmp_path / f"v{i}"))
        assert len(_compiles(log)) == i + 1
    # Each of them is kept.
    for i, (source, spec) in enumerate(variants):
        build(source, replace(spec, workdir=tmp_path / f"again{i}"))
    assert len(_compiles(log)) == len(variants)


def test_compile_failure_is_kept(tmp_path):
    compiler_cmd, log = _writing_compiler(tmp_path)
    failures = []
    for i in range(2):
        with pytest.raises(CompileFailure) as excinfo:
            build(_source("FAIL"), BuildSpec(compiler_cmd=compiler_cmd, workdir=tmp_path / f"d{i}"))
        failures.append(excinfo.value)
    assert len(_compiles(log)) == 1
    first, second = failures
    assert second is not first
    assert str(second) == str(first)
    assert second.stderr == first.stderr
    assert first.stderr.startswith("writecc: cannot compile /") and first.stderr.endswith("/driver.c\n")


def test_hit_ignores_what_happens_to_the_first_workdir(tmp_path):
    compiler_cmd, log = _writing_compiler(tmp_path)
    first = build(_source("a"), BuildSpec(compiler_cmd=compiler_cmd, workdir=tmp_path / "d0"))
    original = first.read_bytes()
    # A candidate runs in its workdir and may replace its own ./driver.
    first.unlink()
    first.write_bytes(b"replaced")
    second = build(_source("a"), BuildSpec(compiler_cmd=compiler_cmd, workdir=tmp_path / "d1"))
    assert second.read_bytes() == original
    shutil.rmtree(tmp_path / "d0")
    # A driver left in the workdir is replaced, not written through.
    victim = tmp_path / "victim"
    victim.write_text("keep")
    (tmp_path / "d2").mkdir()
    (tmp_path / "d2" / "driver").symlink_to(victim)
    third = build(_source("a"), BuildSpec(compiler_cmd=compiler_cmd, workdir=tmp_path / "d2"))
    assert not third.is_symlink() and third.read_bytes() == original
    assert victim.read_text() == "keep"
    assert len(_compiles(log)) == 1


def test_compile_without_output_is_not_kept(tmp_path):
    # The argv-logging compiler exits 0 and writes nothing.
    compiler_cmd, log = _argv_logging_compiler(tmp_path)
    for i in range(2):
        build(_source("x"), BuildSpec(compiler_cmd=compiler_cmd, workdir=tmp_path / f"d{i}"))
    assert len(_compiles(log)) == 2


def test_started_builds_share_one_compile(tmp_path):
    # The second start finds the first compile still running and waits for it.
    compiler_cmd, log = _writing_compiler(tmp_path, delay_s=0.3)
    spec = BuildSpec(compiler_cmd=compiler_cmd)
    for name in ("d0", "d1"):
        runner.start_build(_source("a"), replace(spec, workdir=tmp_path / name))
    first = build(_source("a"), replace(spec, workdir=tmp_path / "d0"))
    second = build(_source("a"), replace(spec, workdir=tmp_path / "d1"))
    assert len(_compiles(log)) == 1
    assert second.read_bytes() == first.read_bytes()


def test_concurrent_builds_compile_each_source_once(tmp_path):
    # More calling threads than cores, switching as often as possible: a lost
    # memo update would show as a second compile of one source.
    compiler_cmd, log = _writing_compiler(tmp_path)
    spec = BuildSpec(compiler_cmd=compiler_cmd)
    texts = [f"src{i}" for i in range(4)]
    binaries = {}

    def worker(t):
        for i, text in enumerate(texts):
            workdir = tmp_path / f"t{t}" / f"s{i}"
            binaries[(t, text)] = build(_source(text), replace(spec, workdir=workdir))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        count = 2 * usable_cores() + 2
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(binaries) == len(threads) * len(texts)
    compiled = sorted(line[0] for line in _compiles(log))
    assert compiled == texts
    for (_, text), binary in binaries.items():
        assert binary.read_bytes().startswith(text.encode())


def test_on_failure_queues_its_builds_before_the_failure_is_done(tmp_path):
    # The hook runs in the failed compile's task, sleeps, then starts a slow
    # build: wait_idle() returns only once that build is done too, and the
    # failure it was handed is not kept.
    compiler_cmd, log = _writing_compiler(tmp_path, delay_s=0.2)
    spec = BuildSpec(compiler_cmd=compiler_cmd)
    handed = []

    def on_failure(failure):
        handed.append((threading.current_thread().name, failure.stderr))
        time.sleep(0.2)
        runner.start_build(_source("fallback"), replace(spec, workdir=tmp_path / "b"))

    runner.start_build(_source("FAIL"), replace(spec, workdir=tmp_path / "a"), on_failure)
    runner.wait_idle()
    assert len(handed) == 1
    assert handed[0][0].startswith("pcaot-build")
    assert "cannot compile" in handed[0][1]
    assert len(_compiles(log)) == 2
    assert build(_source("fallback"), replace(spec, workdir=tmp_path / "b")).is_file()
    assert len(_compiles(log)) == 2
    with pytest.raises(CompileFailure):
        build(_source("FAIL"), replace(spec, workdir=tmp_path / "a"))
    assert len(_compiles(log)) == 3


def test_run_passes_args_and_replaces_bytes_that_are_not_utf8(tmp_path):
    probe = _executable(tmp_path / "probe", '#!/bin/sh\nprintf "%s|\\377\\n" "$*"\n')
    result = run(probe, args=("1", "two"))
    assert result.exit_code == 0
    assert result.stdout == "1 two|\ufffd\n"


RENDEZVOUS_CC = """#!/bin/sh
# A compiler that copies SRC to OUT.  A driver compile first announces
# itself in MARKS, by its source text, and waits up to 5 s for a second one
# to arrive.
touch "{marks}/$(cat "$1")"
i=0
while [ "$(ls "{marks}" | wc -l)" -lt 2 ]; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && {{ echo "alone" >&2; exit 1; }}
    sleep 0.1
done
cp "$1" "$3"
"""


@pytest.mark.skipif(usable_cores() < 2, reason="needs at least 2 usable cores")
def test_distinct_driver_compiles_overlap(tmp_path):
    marks = tmp_path / "marks"
    marks.mkdir()
    script = _executable(tmp_path / "rendezvous-cc", RENDEZVOUS_CC.format(marks=marks))
    spec = BuildSpec(compiler_cmd=f"{script} {{src}} -o {{out}}")
    sources = [(_source("a"), replace(spec, workdir=tmp_path / "a")),
               (_source("b"), replace(spec, workdir=tmp_path / "b"))]
    for source, workdir_spec in sources:
        runner.start_build(source, workdir_spec)
    for source, workdir_spec in sources:
        assert build(source, workdir_spec).read_text() == source.text
    assert sorted(p.name for p in marks.iterdir()) == ["a", "b"]


def test_a_timed_run_waits_for_a_started_compile(tmp_path):
    ends, starts = tmp_path / "compile_end", tmp_path / "run_start"
    script = _executable(
        tmp_path / "sleepcc",
        f'#!/bin/sh\nsleep 0.5\ncp "$1" "$3"\ndate +%s%N > {ends}\n',
    )
    spec = BuildSpec(compiler_cmd=f"{script} {{src}} -o {{out}}", workdir=tmp_path / "d")
    runner.start_build(_source("x", kind=SourceKind.CAPTURE_PROGRAM), spec)
    probe = _executable(tmp_path / "probe", f"#!/bin/sh\ndate +%s%N > {starts}\n")
    assert run(probe).exit_code == 0
    assert int(starts.read_text()) > int(ends.read_text())


@needs_gcc
def test_run_reports_exit_code_and_output(workdir):
    source = (
        '#include <stdio.h>\n'
        'int main(void) { printf("hello\\n"); fprintf(stderr, "warn\\n"); return 3; }\n'
    )
    binary = build(_source(source), BuildSpec(workdir=workdir))
    result = run(binary)
    assert result.exit_code == 3
    assert result.stdout == "hello\n"
    assert result.stderr == "warn\n"
    assert result.wall_time_ns > 0
    assert not result.timed_out


@needs_gcc
def test_run_kills_on_timeout(workdir):
    binary = build(_source("int main(void) { for (;;) { } }\n"), BuildSpec(workdir=workdir))
    started = time.monotonic()
    result = run(binary, timeout_s=1.0)
    elapsed = time.monotonic() - started
    assert result.timed_out
    assert result.exit_code is None
    assert elapsed < 30.0


@needs_gcc
def test_run_env_reaches_child(workdir):
    source = (
        "#include <stdio.h>\n#include <stdlib.h>\n"
        'int main(void) { const char *v = getenv("PCAOT_PROBE"); '
        'printf("%s\\n", v ? v : "unset"); return 0; }\n'
    )
    binary = build(_source(source), BuildSpec(workdir=workdir))
    result = run(binary, env={"PCAOT_PROBE": "42"})
    assert result.stdout.strip() == "42"
    # OMP_NUM_THREADS defaults in when the caller does not set it.
    source2 = (
        "#include <stdio.h>\n#include <stdlib.h>\n"
        'int main(void) { printf("%s\\n", getenv("OMP_NUM_THREADS")); return 0; }\n'
    )
    binary2 = build(_source(source2), BuildSpec(workdir=workdir / "b2"))
    result2 = run(binary2)
    assert result2.stdout.strip() == "4"


_AFFINITY_PROBE = r"""
#define _GNU_SOURCE
#include <omp.h>
#include <sched.h>
#include <stdio.h>
#include <stdlib.h>
int main(void) {
    printf("BIND %s %s\n", getenv("OMP_PROC_BIND"), getenv("OMP_PLACES"));
    #pragma omp parallel
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        sched_getaffinity(0, sizeof set, &set);
        #pragma omp critical
        {
            printf("T%d", omp_get_thread_num());
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
                if (CPU_ISSET(cpu, &set)) printf(" %d", cpu);
            printf("\n");
        }
    }
    return 0;
}
"""


def _thread_masks(stdout):
    masks = {}
    for line in stdout.splitlines():
        if line.startswith("T"):
            thread, *cpus = line.split()
            masks[thread] = set(cpus)
    return masks


@needs_gcc
@pytest.mark.skipif(usable_cores() < 2, reason="needs at least 2 usable cores")
def test_run_binds_openmp_threads_to_disjoint_cores(workdir, monkeypatch):
    # Unbound, the kernel may keep a whole team on one CPU, so a parallel
    # candidate shows no speedup; run() must spread the team over the cores.
    monkeypatch.delenv("OMP_PROC_BIND", raising=False)
    monkeypatch.delenv("OMP_PLACES", raising=False)
    binary = build(_source(_AFFINITY_PROBE), BuildSpec(workdir=workdir))
    result = run(binary, env={"OMP_NUM_THREADS": "2"})
    assert result.exit_code == 0, result.stderr
    masks = _thread_masks(result.stdout)
    assert sorted(masks) == ["T0", "T1"], result.stdout
    assert masks["T0"] and masks["T1"], result.stdout
    assert not masks["T0"] & masks["T1"], result.stdout

    # An inherited value does not switch the binding off ...
    monkeypatch.setenv("OMP_PROC_BIND", "false")
    monkeypatch.setenv("OMP_PLACES", "threads")
    inherited = run(binary, env={"OMP_NUM_THREADS": "2"})
    assert "BIND spread cores" in inherited.stdout
    masks = _thread_masks(inherited.stdout)
    assert not masks["T0"] & masks["T1"], inherited.stdout

    # ... but an explicit caller still decides.
    explicit = run(binary, env={"OMP_NUM_THREADS": "2", "OMP_PROC_BIND": "close"})
    assert "BIND close cores" in explicit.stdout


def _result(stdout, exit_code=0):
    return RunResult(exit_code=exit_code, stdout=stdout, stderr="", wall_time_ns=1)


def test_collect_timing_parses_lines():
    timing = collect_timing(_result("PCAOT_TIME_NS 300\nnoise\nPCAOT_TIME_NS 100\nPCAOT_TIME_NS 200\n"))
    assert timing.samples_ns == (300, 100, 200)
    assert timing.median_ns == 200


def test_collect_timing_requires_success():
    with pytest.raises(ValueError):
        collect_timing(_result("PCAOT_TIME_NS 1\n", exit_code=1))


def test_collect_timing_requires_lines():
    with pytest.raises(NoTimingLines):
        collect_timing(_result("no timing here\n"))


def test_collect_timing_requires_expected_count():
    stdout = "PCAOT_TIME_NS 5\nPCAOT_TIME_NS 6\n"
    assert collect_timing(_result(stdout), expected=2).samples_ns == (5, 6)
    for expected in (1, 3):
        with pytest.raises(NoTimingLines):
            collect_timing(_result(stdout), expected=expected)


def test_collect_timing_ignores_malformed_lines():
    timing = collect_timing(_result("PCAOT_TIME_NS x\nPCAOT_TIME_NS 5\nPCAOT_TIME_NS -2\n"))
    assert timing.samples_ns == (5,)


def test_median_lower_of_middle_even():
    # Four samples: the lower of the two middle values wins.
    assert TimingSample.from_samples((4, 1, 3, 2)).median_ns == 2
    assert TimingSample.from_samples((10, 20)).median_ns == 10


def test_median_odd():
    assert TimingSample.from_samples((9, 1, 5)).median_ns == 5
    assert TimingSample.from_samples((7,)).median_ns == 7


def oracle_median(samples):
    ordered = sorted(samples)
    return ordered[(len(ordered) - 1) // 2]


@given(st.lists(st.integers(0, 10**12), min_size=1, max_size=9))
@settings(max_examples=100)
def test_median_matches_oracle(samples):
    assert TimingSample.from_samples(tuple(samples)).median_ns == oracle_median(samples)
