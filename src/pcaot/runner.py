"""Compile and execute generated programs; collect their timing lines.

Every generated source, capture program or replay driver, is one
translation unit: build() writes it as capture.c or driver.c into the
workdir and compiles it alone into capture or driver there.  build() creates
nothing outside the workdir.

build() compiles each distinct source once per process.  The memo is keyed
by sha256 over (output name, source text, compiler_cmd, flags); the output
name (driver or capture) stands for the kind.  A hit still writes the source
into the new workdir, then only the binary: the bytes kept from the first
compile, with that compile's file mode; it calls no compiler.  The bytes
live in memory, so a candidate that replaces its own ./driver, or a deleted
workdir, cannot change what a later hit gets.  A CompileFailure is kept too,
and each hit raises a new one with the same message and stderr.  Not kept:
ToolMissing and a compile that exits 0 without writing its output.  The
default flags put no path into the output, so a hit gives the bytes a
compile would have given; flags such as -g would keep the first workdir's
path in the debug info.

Compiles run on a module-level pool with one thread per usable core.
start_build() writes the source into the workdir and queues its compile
without waiting.  build() is start_build(), then a wait until no compile is
queued or running, whoever started it, then the write of its binary.  So a
caller that starts every build of a batch first has the whole batch
compiled, on every core, inside its first build() call, and each later
build() is a memo hit.  One workdir takes one source at a time.  A caller
that can replace a source that fails passes start_build() an on_failure
hook: it runs inside the failed compile's pool task, so the builds it starts
are queued before that compile counts as done, and a wait for an idle pool
(wait_idle(), build(), a timed run) also waits for them.

Timed runs are serialized through a module-level lock so concurrent
validation work cannot distort measurements, and each waits, holding that
lock, until no compile started before it is queued or running: a timed run
does not share the cores with the compiler.  The environment mapping given
to run() is merged over the parent environment; its normal use is setting
OMP_NUM_THREADS.  run() passes its args to the binary; a replay driver of
several bodies runs the body that its first argument names.

Timed runs also bind OpenMP threads (OMP_PROC_BIND=spread, OMP_PLACES=cores),
overriding any inherited OMP_PROC_BIND or OMP_PLACES.  Left unbound, the
kernel may keep a whole OpenMP team on one CPU, and a parallel candidate then
shows no speedup on a host that has the cores; an inherited value would make
timings depend on whoever started the campaign.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import stat
import subprocess
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, PcaotError
from .instrument import TIMING_LINE_PREFIX, GeneratedSource

DEFAULT_FLAGS = ("-O3", "-fopenmp")
DEFAULT_THREADS = 4
# OpenMP thread placement of every run (see the module docstring).
OMP_PLACEMENT = {"OMP_PROC_BIND": "spread", "OMP_PLACES": "cores"}

_TIMING_RE = re.compile(rf"^{re.escape(TIMING_LINE_PREFIX)}\s+(\d+)\s*$", re.MULTILINE)
_TIMED_RUN_LOCK = threading.Lock()
# build key -> Future of the first compile's (file mode, output bytes), or of its CompileFailure
_BUILDS: dict[str, Future] = {}
_BUILDS_LOCK = threading.Lock()
# One compile per usable core; threads start on the first submit, not at import.
BUILD_WORKERS = len(os.sched_getaffinity(0))
_POOL = ThreadPoolExecutor(BUILD_WORKERS, thread_name_prefix="pcaot-build")


class CompileFailure(PcaotError):
    """Compiler exited nonzero; carries its stderr for diagnostics."""

    def __init__(self, message: str, stderr: str = "") -> None:
        super().__init__(message)
        self.stderr = stderr


class ToolMissing(PcaotError):
    """The compiler or tool executable could not be found."""


class SpawnFailure(PcaotError):
    """A built binary could not be started."""


class NoTimingLines(PcaotError):
    """A run produced no PCAOT_TIME_NS lines, or not as many as expected."""


@dataclass(frozen=True)
class BuildSpec:
    """How to turn a generated source file into a binary.

    compiler_cmd is a shell-style template; {src} and {out} are replaced by
    the source and binary paths, then flags are appended.
    """

    compiler_cmd: str = "gcc {src} -o {out}"
    flags: tuple[str, ...] = DEFAULT_FLAGS
    workdir: Path = Path(".")

    def __post_init__(self) -> None:
        if not isinstance(self.compiler_cmd, str):
            raise ParseError("compiler_cmd must be a string")
        if "{src}" not in self.compiler_cmd or "{out}" not in self.compiler_cmd:
            raise ParseError("compiler_cmd must contain {src} and {out} placeholders")
        if not (isinstance(self.flags, tuple) and all(isinstance(f, str) for f in self.flags)):
            raise ParseError("flags must be a tuple of strings")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one process execution."""

    exit_code: int | None
    stdout: str
    stderr: str
    wall_time_ns: int
    timed_out: bool = False

    def __post_init__(self) -> None:
        if self.timed_out and self.exit_code is not None:
            raise ParseError("a timed-out run has no exit code")


@dataclass(frozen=True)
class TimingSample:
    """Per-repeat section times plus their median.

    The median of an even number of samples is the lower of the two middle
    values, so it is always one of the measurements.
    """

    samples_ns: tuple[int, ...]
    median_ns: int

    def __post_init__(self) -> None:
        if not self.samples_ns:
            raise ParseError("a timing sample needs at least one measurement")
        if self.median_ns != _lower_median(self.samples_ns):
            raise ParseError("median_ns does not match the samples")

    @classmethod
    def from_samples(cls, samples_ns: tuple[int, ...]) -> "TimingSample":
        return cls(samples_ns=samples_ns, median_ns=_lower_median(samples_ns))


def _lower_median(samples: tuple[int, ...]) -> int:
    ordered = sorted(samples)
    return ordered[(len(ordered) - 1) // 2]


def _compile(spec: BuildSpec, src_path: Path, out_path: Path) -> None:
    # The formatted compiler_cmd, then the flags; run in src_path's directory.
    command = shlex.split(spec.compiler_cmd.format(src=str(src_path), out=str(out_path)))
    command.extend(spec.flags)
    try:
        proc = subprocess.run(
            command, cwd=src_path.parent, capture_output=True, text=True, check=False
        )
    except FileNotFoundError as exc:
        raise ToolMissing(f"compiler not found: {command[0]!r}") from exc
    if proc.returncode != 0:
        raise CompileFailure(
            f"compile of {src_path.name} failed with exit code {proc.returncode}",
            stderr=proc.stderr,
        )


def _place(kept: tuple[int, bytes] | CompileFailure | None, out_path: Path) -> None:
    """Write a kept compile's bytes and mode to out_path, or raise a new copy of its failure."""
    if isinstance(kept, CompileFailure):
        raise CompileFailure(str(kept), stderr=kept.stderr)
    if kept is not None:
        mode, output = kept
        # A new file, never one a candidate left behind (it may be a symlink).
        out_path.unlink(missing_ok=True)
        out_path.write_bytes(output)
        out_path.chmod(mode)


def _compile_kept(
    spec: BuildSpec, src_path: Path, out_path: Path
) -> tuple[int, bytes] | CompileFailure | None:
    """Compile src_path into out_path; None when there is nothing to keep."""
    try:
        _compile(spec, src_path, out_path)
    except CompileFailure as exc:
        return exc
    if not out_path.is_file():
        return None
    return (stat.S_IMODE(out_path.stat().st_mode), out_path.read_bytes())


def _memo_task(
    key: str, on_failure: Callable[[CompileFailure], None] | None, *args
) -> tuple[int, bytes] | CompileFailure | None:
    # Runs on _POOL.  An outcome that is not kept leaves the memo before its
    # future completes, so a later build compiles again; so does a failure
    # handed to on_failure, after on_failure has queued what it queues.
    try:
        kept = _compile_kept(*args)
        handed = isinstance(kept, CompileFailure) and on_failure is not None
        if handed:
            on_failure(kept)
    except BaseException:
        with _BUILDS_LOCK:
            _BUILDS.pop(key, None)
        raise
    if kept is None or handed:
        with _BUILDS_LOCK:
            _BUILDS.pop(key, None)
    return kept


def _submit(
    text: str,
    src_path: Path,
    out_path: Path,
    spec: BuildSpec,
    on_failure: Callable[[CompileFailure], None] | None = None,
) -> Future:
    """Write text to src_path; the memo's future for out_path, queuing a compile on a miss."""
    # A compile of this same text may be reading src_path: leave an equal file alone.
    data = text.encode("utf-8")
    if not (src_path.is_file() and src_path.read_bytes() == data):
        src_path.write_bytes(data)
    fields = [out_path.name, text, spec.compiler_cmd, list(spec.flags)]
    key = hashlib.sha256(json.dumps(fields).encode("utf-8")).hexdigest()
    with _BUILDS_LOCK:
        future = _BUILDS.get(key)
        if future is None:
            future = _BUILDS[key] = _POOL.submit(
                _memo_task, key, on_failure, spec, src_path, out_path
            )
    return future


def _start(
    source: GeneratedSource,
    spec: BuildSpec,
    on_failure: Callable[[CompileFailure], None] | None = None,
) -> tuple[Future, Path]:
    """start_build(); returns the binary's future and path."""
    workdir = Path(spec.workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    out_path = workdir / source.kind.value
    binary = _submit(source.text, workdir / f"{source.kind.value}.c", out_path, spec, on_failure)
    return binary, out_path


def wait_idle() -> None:
    """Block until no compile is queued or running, those that on_failure queued included."""
    while True:
        with _BUILDS_LOCK:
            pending = [future for future in _BUILDS.values() if not future.done()]
        if not pending:
            return
        wait(pending)


def start_build(
    source: GeneratedSource,
    spec: BuildSpec,
    on_failure: Callable[[CompileFailure], None] | None = None,
) -> None:
    """Write the source into the workdir and queue its compile; do not wait.

    Queues what build() would compile, with the same memo: nothing for a
    source already built or queued in this process.  A later build() of the
    same source and spec waits for it and writes the binary.

    When the compile this call queues fails, on_failure gets that
    CompileFailure inside this compile's pool task, so any build it starts
    is queued before the failed compile counts as done: wait_idle(), build()
    and a timed run wait for those builds too.
    Such a failure is not kept in the memo.  on_failure is not called for a
    source found in the memo.
    """
    _start(source, spec, on_failure)


def build(source: GeneratedSource, spec: BuildSpec) -> Path:
    """Write the source into the workdir and compile it, once per distinct source.

    A source already built in this process with the same kind, compiler_cmd
    and flags is not compiled again: the bytes and file mode of its first
    compile are written to the workdir, or its CompileFailure is raised again
    (see the module docstring).  Before it writes the binary, build() waits
    until no compile is queued or running, whichever build() or start_build()
    queued it.  Returns the binary path; raises CompileFailure or ToolMissing.
    """
    future, out_path = _start(source, spec)
    wait_idle()
    _place(future.result(), out_path)
    return out_path


def run(
    binary: Path,
    timeout_s: float = 60.0,
    env: dict[str, str] | None = None,
    args: Sequence[str] = (),
) -> RunResult:
    """Execute a binary, with args as its arguments, in its own directory under a timeout.

    The process is killed on timeout; its partial output is kept.  Output
    that is not UTF-8 is decoded with replacement characters.  Timed runs
    execute one at a time process-wide, and each starts its clock only once
    no compile is queued or running.  The child gets OMP_PLACEMENT, which
    replaces any inherited OMP_PROC_BIND and OMP_PLACES so that an OpenMP
    team spreads over the usable cores; a key in env still wins.
    """
    binary = Path(binary)
    full_env = dict(os.environ)
    full_env.setdefault("OMP_NUM_THREADS", str(DEFAULT_THREADS))
    full_env.update(OMP_PLACEMENT)
    if env:
        full_env.update({k: str(v) for k, v in env.items()})
    with _TIMED_RUN_LOCK:
        wait_idle()
        start = time.monotonic_ns()
        try:
            proc = subprocess.Popen(
                [str(binary), *args],
                cwd=binary.parent,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                errors="replace",
                env=full_env,
            )
        except OSError as exc:
            raise SpawnFailure(f"cannot start {binary}: {exc}") from exc
        try:
            stdout, stderr = proc.communicate(timeout=timeout_s)
            timed_out = False
            exit_code: int | None = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            try:
                stdout, stderr = proc.communicate(timeout=5.0)
            except subprocess.TimeoutExpired:
                stdout, stderr = "", ""
            timed_out = True
            exit_code = None
        wall = time.monotonic_ns() - start
    return RunResult(
        exit_code=exit_code,
        stdout=stdout or "",
        stderr=stderr or "",
        wall_time_ns=wall,
        timed_out=timed_out,
    )


def collect_timing(result: RunResult, expected: int | None = None) -> TimingSample:
    """Parse PCAOT_TIME_NS lines from a successful run's stdout.

    expected is the number of timed repeats the driver was generated with.
    Any other count raises NoTimingLines: a body that prints timing lines of
    its own must not pass them off as measurements.  Without expected, any
    nonzero count is accepted.
    """
    if result.exit_code != 0:
        raise ValueError("collect_timing needs a run that exited 0")
    samples = tuple(int(m) for m in _TIMING_RE.findall(result.stdout))
    if not samples:
        raise NoTimingLines("run produced no PCAOT_TIME_NS lines")
    if expected is not None and len(samples) != expected:
        raise NoTimingLines(
            f"run produced {len(samples)} PCAOT_TIME_NS lines, expected {expected}"
        )
    return TimingSample.from_samples(samples)
