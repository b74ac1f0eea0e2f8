"""Compile and execute generated programs; collect their timing lines.

A replay driver only declares the checkpoint helpers.  build() writes
instrument.HELPER_SOURCE as pcaot_helpers.c into the driver's workdir,
makes pcaot_helpers.o from it there with -c, and links the driver with that
object.  Capture programs carry their own static copy of the helpers and are
compiled alone.  build() creates nothing outside the workdir.

build() compiles each distinct source once per process; the helper object
is one more entry of the same memo.  The memo is keyed by sha256 over
(output name, source text, compiler_cmd, flags); the output name (driver,
capture or pcaot_helpers.o) stands for the kind.  A hit still writes the
source into the new workdir, then writes the output bytes kept from the
first compile, with that compile's file mode, and calls no compiler.  The
bytes live in memory, so a candidate that replaces its own ./driver or
./pcaot_helpers.o, or a deleted workdir, cannot change what a later hit gets
or what a later driver links.  A CompileFailure is kept too, and each hit
raises a new one with the same message and stderr.  Not kept: ToolMissing
and a compile that exits 0 without writing its output.  The default flags
put no path into the output, so a hit gives the bytes a compile would have
given; flags such as -g would keep the first workdir's path in the debug
info.

Timed runs are serialized through a module-level lock so concurrent
validation work cannot distort measurements.  The environment mapping given
to run() is merged over the parent environment; its normal use is setting
OMP_NUM_THREADS.

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
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, PcaotError
from .instrument import HELPER_SOURCE, GeneratedSource, SourceKind

DEFAULT_FLAGS = ("-O3", "-fopenmp")
DEFAULT_THREADS = 4
# OpenMP thread placement of every run (see the module docstring).
OMP_PLACEMENT = {"OMP_PROC_BIND": "spread", "OMP_PLACES": "cores"}

_TIMING_RE = re.compile(r"^PCAOT_TIME_NS\s+(\d+)\s*$", re.MULTILINE)
_TIMED_RUN_LOCK = threading.Lock()
# build key -> (file mode, output bytes) of the first compile, or its CompileFailure
_BUILDS: dict[str, tuple[int, bytes] | CompileFailure] = {}
_BUILDS_LOCK = threading.Lock()


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
        if "{src}" not in self.compiler_cmd or "{out}" not in self.compiler_cmd:
            raise ParseError("compiler_cmd must contain {src} and {out} placeholders")


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


def _compile(spec: BuildSpec, src_path: Path, out_path: Path, extra: tuple[str, ...]) -> None:
    # The formatted compiler_cmd, then extra, then the flags; run in src_path's directory.
    command = shlex.split(spec.compiler_cmd.format(src=str(src_path), out=str(out_path)))
    command.extend(extra)
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


def _compile_once(
    text: str, src_path: Path, out_path: Path, spec: BuildSpec, extra: tuple[str, ...]
) -> None:
    """Write text to src_path and make out_path from it, compiling once per process.

    On a memo hit the kept bytes and mode are written to out_path, or the
    kept CompileFailure is raised again (see the module docstring).
    """
    src_path.write_text(text, encoding="utf-8")
    fields = [out_path.name, text, spec.compiler_cmd, list(spec.flags)]
    key = hashlib.sha256(json.dumps(fields).encode("utf-8")).hexdigest()
    with _BUILDS_LOCK:
        built = _BUILDS.get(key)
    if isinstance(built, CompileFailure):
        raise CompileFailure(str(built), stderr=built.stderr)
    if built is not None:
        mode, output = built
        # A new file, never one a candidate left behind (it may be a symlink).
        out_path.unlink(missing_ok=True)
        out_path.write_bytes(output)
        out_path.chmod(mode)
        return
    try:
        _compile(spec, src_path, out_path, extra)
    except CompileFailure as exc:
        with _BUILDS_LOCK:
            _BUILDS[key] = CompileFailure(str(exc), stderr=exc.stderr)
        raise
    if out_path.is_file():
        with _BUILDS_LOCK:
            _BUILDS[key] = (stat.S_IMODE(out_path.stat().st_mode), out_path.read_bytes())


def build(source: GeneratedSource, spec: BuildSpec) -> Path:
    """Write the source into the workdir and compile it, once per distinct source.

    A replay driver is first given pcaot_helpers.c and pcaot_helpers.o in
    its workdir, and that object's path follows the formatted compiler_cmd,
    before the flags, when the driver is linked.  A source already built in
    this process with the same kind, compiler_cmd and flags is not compiled
    again: the bytes and file mode of its first compile are written to the
    workdir, or its CompileFailure is raised again (see the module
    docstring).  Returns the binary path; raises CompileFailure or
    ToolMissing, also when the helper object does not compile.
    """
    workdir = Path(spec.workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    extra: tuple[str, ...] = ()
    if source.kind is SourceKind.REPLAY_DRIVER:
        helper = workdir / "pcaot_helpers.o"
        _compile_once(HELPER_SOURCE, workdir / "pcaot_helpers.c", helper, spec, ("-c",))
        extra = (str(helper),)
    out_path = workdir / source.kind.value
    _compile_once(source.text, workdir / f"{source.kind.value}.c", out_path, spec, extra)
    return out_path


def run(
    binary: Path,
    timeout_s: float = 60.0,
    env: dict[str, str] | None = None,
) -> RunResult:
    """Execute a binary in its own directory under a timeout.

    The process is killed on timeout; its partial output is kept.  Timed
    runs execute one at a time process-wide.  The child gets OMP_PLACEMENT,
    which replaces any inherited OMP_PROC_BIND and OMP_PLACES so that an
    OpenMP team spreads over the usable cores; a key in env still wins.
    """
    binary = Path(binary)
    full_env = dict(os.environ)
    full_env.setdefault("OMP_NUM_THREADS", str(DEFAULT_THREADS))
    full_env.update(OMP_PLACEMENT)
    if env:
        full_env.update({k: str(v) for k, v in env.items()})
    with _TIMED_RUN_LOCK:
        start = time.monotonic_ns()
        try:
            proc = subprocess.Popen(
                [str(binary)],
                cwd=binary.parent,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
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
