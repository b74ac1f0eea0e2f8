"""Compile and execute generated programs; collect their timing lines.

Every child process of the package, compile, capture, driver run or
compiler backend, is started by spawn(); callers map only its errors.

Every generated source, capture program or replay driver, is one
translation unit, compiled alone in a private directory that is removed
when the compile ends; the binary's file mode and bytes are kept in memory.
build() writes the source into the workdir as capture.c or driver.c and
places the binary next to it as capture or driver, each as a new file
(write_new).  No compile writes into a workdir, and build() leaves nothing
outside it.

Each distinct source is compiled once per process.  The memo is keyed by
sha256 over (output name, source text, compiler_cmd, flags); the output name
(driver or capture) stands for the kind.  A hit calls no compiler: build()
places the bytes kept from the first compile, with that compile's file
mode.  The bytes live in memory, so a candidate that replaces its own
./driver, or a deleted workdir, cannot change what a later hit gets.  A
CompileFailure is kept too, and each hit raises a new one with the same
message and stderr.  Not kept: ToolMissing and a compile that exits 0
without writing its output.  The default flags put no path into the output,
so a hit gives the bytes a compile would have given; flags such as -g would
keep the private directory's path in the debug info.

Compiles run on a module-level pool with one thread per usable core.
start_build() queues a compile without waiting; it writes no file and
creates no directory.  build() queues its compile, writes its source, waits
until no compile is queued or running, whoever started it, then places its
binary.  So a caller that starts every build of a batch first has the whole
batch compiled, on every core, inside its first build() call, and each later
build() is a memo hit.  A caller that can replace a source that fails passes
start_build() an on_failure hook: it runs inside the failed compile's pool
task, so the builds it starts are queued before that compile counts as
done, and a wait for an idle pool (wait_idle(), build(), a timed run) also
waits for them.

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
import tempfile
import threading
import time
from collections.abc import Callable, Mapping, Sequence
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
        result = spawn(command, src_path.parent)
    except FileNotFoundError as exc:
        raise ToolMissing(f"compiler not found: {command[0]!r}") from exc
    if result.exit_code != 0:
        raise CompileFailure(
            f"compile of {src_path.name} failed with exit code {result.exit_code}",
            stderr=result.stderr,
        )


def write_new(path: Path, data: bytes) -> None:
    """Write data to path as a new file, never through one a candidate left (it may be a link)."""
    path.unlink(missing_ok=True)
    path.write_bytes(data)


def _compile_kept(
    spec: BuildSpec, name: str, text: str
) -> tuple[int, bytes] | CompileFailure | None:
    """Compile text as <name>.c into <name> in a private directory; None if nothing to keep."""
    with tempfile.TemporaryDirectory(prefix="pcaot-build-") as scratch:
        src_path, out_path = Path(scratch) / f"{name}.c", Path(scratch) / name
        src_path.write_bytes(text.encode("utf-8"))
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
    source: GeneratedSource,
    spec: BuildSpec,
    on_failure: Callable[[CompileFailure], None] | None = None,
) -> Future:
    """The memo's future for source's binary, queuing a compile on a miss."""
    name = source.kind.value
    fields = [name, source.text, spec.compiler_cmd, list(spec.flags)]
    key = hashlib.sha256(json.dumps(fields).encode("utf-8")).hexdigest()
    with _BUILDS_LOCK:
        future = _BUILDS.get(key)
        if future is None:
            future = _BUILDS[key] = _POOL.submit(
                _memo_task, key, on_failure, spec, name, source.text
            )
    return future


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
    """Queue the source's compile; do not wait, and write no file.

    Queues what build() would compile, with the same memo: nothing for a
    source already built or queued in this process.  A later build() of the
    same source and spec waits for it and places the binary; spec.workdir
    is not used here.

    When the compile this call queues fails, on_failure gets that
    CompileFailure inside this compile's pool task, so any build it starts
    is queued before the failed compile counts as done: wait_idle(), build()
    and a timed run wait for those builds too.
    Such a failure is not kept in the memo.  on_failure is not called for a
    source found in the memo.
    """
    _submit(source, spec, on_failure)


def build(source: GeneratedSource, spec: BuildSpec) -> Path:
    """Write the source into the workdir and compile it, once per distinct source.

    Queues the compile, writes the source as a new <kind>.c in the workdir,
    waits until no compile is queued or running, whichever build() or
    start_build() queued it, and places the binary as a new <kind>.  A source
    already built in this process with the same kind, compiler_cmd and flags
    is not compiled again: the bytes and file mode of its first compile are
    placed, or its CompileFailure is raised again (see the module docstring).
    Returns the binary path; raises CompileFailure, ToolMissing or OSError.
    """
    future = _submit(source, spec)
    workdir = Path(spec.workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    write_new(workdir / f"{source.kind.value}.c", source.text.encode("utf-8"))
    wait_idle()
    kept = future.result()
    if isinstance(kept, CompileFailure):
        raise CompileFailure(str(kept), stderr=kept.stderr)
    out_path = workdir / source.kind.value
    if kept is not None:
        mode, output = kept
        write_new(out_path, output)
        out_path.chmod(mode)
    return out_path


def _decode(output: bytes | None) -> str:
    text = (output or b"").decode("utf-8", errors="replace")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def spawn(
    argv: Sequence[str],
    cwd: Path,
    env: Mapping[str, str] | None = None,
    timeout_s: float | None = None,
) -> RunResult:
    """Run argv in cwd with env (None: this process's environment); capture its output.

    On timeout the process is killed, and the result is timed out, with no
    exit code and what it had printed; a child left holding its pipes is not
    waited for.  Output is decoded as text=True with errors="replace" would:
    UTF-8 with replacement characters, \r\n and \r read as \n.  Raises OSError.
    """
    start = time.monotonic_ns()
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=timeout_s)
        exit_code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        exit_code, stdout, stderr = None, exc.stdout, exc.stderr
    wall = time.monotonic_ns() - start
    return RunResult(exit_code, _decode(stdout), _decode(stderr), wall, timed_out=exit_code is None)


def run(
    binary: Path,
    timeout_s: float = 60.0,
    env: dict[str, str] | None = None,
    args: Sequence[str] = (),
) -> RunResult:
    """Execute a binary, with args as its arguments, in its own directory under a timeout.

    It runs through spawn(), which says what a timeout returns and how output
    is decoded.  Timed runs execute one at a time process-wide, and each
    starts its clock only once no compile is queued or running.  The child
    gets OMP_PLACEMENT, which replaces any inherited OMP_PROC_BIND and
    OMP_PLACES so that an OpenMP team spreads over the usable cores; a key
    in env still wins.  Raises SpawnFailure when the binary cannot start.
    """
    binary = Path(binary)
    full_env = dict(os.environ)
    full_env.setdefault("OMP_NUM_THREADS", str(DEFAULT_THREADS))
    full_env.update(OMP_PLACEMENT)
    if env:
        full_env.update({k: str(v) for k, v in env.items()})
    with _TIMED_RUN_LOCK:
        wait_idle()
        try:
            return spawn([str(binary), *args], binary.parent, full_env, timeout_s)
        except OSError as exc:
            raise SpawnFailure(f"cannot start {binary}: {exc}") from exc


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
