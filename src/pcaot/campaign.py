"""Campaign orchestration: plan, execute, aggregate, and report.

A campaign pairs section sources with manifests, fans each section out to
every configured backend (LLM strategies x attempts, plus compiler backends,
plus the serial original), validates every candidate against the captured
reference state, and aggregates the outcome records into metrics and charts.
Each section is read once, before any candidate is produced, and every later
stage works from that read.  Candidates of every backend, LLM or compiler, are
produced through one thread pool of config.max_inflight workers and persisted
in plan order.  Validation then decides each version once: a queue step per
section generates one replay driver for the section, holding the distinct code
of every version that needs a record, serial included, and queues its compile
on runner's pool once, in the first of those versions' directories, for every
section before the first capture runs.  Code that cannot share a driver, and
code that gcc names in a failed section driver's errors, gets a driver of its
own (_SectionDrivers).  A loop then captures each section and builds, runs and
records its versions, selecting each one's code through argv.

Filesystem contract under the output directory (shared by the staged CLI
subcommands and by run):

    sections/<id>/capture/      instrumented program + reference checkpoints,
                                both made again by each run that validates
    sections/<id>/serial/       serial baseline driver scratch
    sections/<id>/candidates/<tool>__<strategy>__<attempt>/
                                each version's driver.c (often its section's),
                                driver, and driver.args, the body number that
                                runs the version's code: ./driver $(cat driver.args)
    sections/<id>/candidates/<tool>__na__0/compiler/
                                a compiler backend's input.c (the wrapped
                                section) and the files it wrote, such as
                                transformed.c
    pcaot_helpers.c             checkpoint helpers every driver.c links with;
                                compile the two together to rebuild a driver
    candidates.jsonl            produced candidate code + raw responses
    records.jsonl               one outcome record per line, appended as
                                validation progresses (resume skips done work)
    records.csv, metrics.json, failure_by_size.svg, pattern_categories.svg,
    speedups.svg                emitted by the report stage
"""

from __future__ import annotations

import json
import logging
import math
import re
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import checkpoint as ckpt
from ._svg import grouped_bar_chart
from .backends import (
    CompilerDriverConfig,
    LlmEndpointConfig,
    MockLlm,
    OptimizationRequest,
    Origin,
    PromptStrategy,
    SamplingParams,
    request_compiler,
    request_llm,
)
from .checkpoint import ComparisonStatus, Tolerance
from .errors import ParseError, PcaotError
from .instrument import (
    HELPER_SOURCE,
    GeneratedSource,
    bodies_named_in,
    can_share_driver,
    generate_capture_program,
    generate_replay_driver,
    input_checkpoint_name,
    output_checkpoint_name,
)
from .pattern import (
    OutcomeCategory,
    ValidationStatus,
    _strip_comments_and_strings,
    categorize,
    detect,
    has_any_directive,
)
from .runner import (
    DEFAULT_THREADS,
    BuildSpec,
    CompileFailure,
    SpawnFailure,
    build,
    collect_timing,
    run,
    start_build,
    wait_idle,
)
from .sections import ExperimentalSection, StateManifest, extract_sections, load_manifest_file

log = logging.getLogger("pcaot")

SERIAL_TOOL_ID = "serial"
CAPTURE_TIMEOUT_S = 60.0
TIMEOUT_FLOOR_S = 10.0
TIMEOUT_FACTOR = 10.0

CSV_COLUMNS = (
    "section_id",
    "tool",
    "strategy",
    "attempt",
    "status",
    "category",
    "detected_patterns",
    "lines",
    "median_time_ns",
    "speedup",
)


class EmptyCampaign(PcaotError):
    """A campaign without sections has nothing to do."""


class CaptureFailure(PcaotError):
    """The reference capture run for a section failed; the section is skipped."""


class IoFailure(PcaotError):
    """The output directory could not be written."""


class ReservedName(PcaotError):
    """Candidate code uses a name reserved for the replay driver, or ##; it is not built."""


@dataclass(frozen=True)
class SectionJob:
    """One (source file, manifest) pair, plus optional extras."""

    source_path: Path
    manifest_path: Path
    support_code: str = ""
    hand_optimized_ns: int | None = None

    def __post_init__(self) -> None:
        value = self.hand_optimized_ns
        if value is not None and (type(value) is not int or value < 1):
            raise ParseError("hand_optimized_ns must be a positive integer")


@dataclass(frozen=True)
class CampaignConfig:
    sections: tuple[SectionJob, ...]
    llm_backends: tuple[MockLlm | LlmEndpointConfig, ...] = ()
    compiler_backends: tuple[CompilerDriverConfig, ...] = ()
    strategies: tuple[PromptStrategy, ...] = tuple(PromptStrategy)
    attempts: int = 3
    timing_repeats: int = 3
    tolerance: Tolerance = Tolerance()
    build: BuildSpec = BuildSpec()
    threads: int = DEFAULT_THREADS
    size_buckets: tuple[int, ...] = (10, 20, 40, 80)
    timeout_s: float | None = None
    max_inflight: int = 4

    def __post_init__(self) -> None:
        for name in ("attempts", "timing_repeats", "threads", "max_inflight"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ParseError(f"{name} must be an integer of at least 1")
        timeout = self.timeout_s
        if timeout is not None and not (type(timeout) in (int, float) and 0 < timeout < math.inf):
            raise ParseError("timeout_s must be a positive finite number")
        if any(type(b) is not int or b <= 0 for b in self.size_buckets):
            raise ParseError("size_buckets must be positive integers")
        if any(b <= a for a, b in zip(self.size_buckets, self.size_buckets[1:])):
            raise ParseError("size_buckets must be strictly ascending")
        tool_ids = [b.tool_id for b in self.llm_backends] + [
            c.tool_id for c in self.compiler_backends
        ]
        if len(set(tool_ids)) != len(tool_ids):
            raise ParseError("backend tool ids must be unique")
        if SERIAL_TOOL_ID in tool_ids:
            raise ParseError(f"tool id {SERIAL_TOOL_ID!r} is reserved for the baseline")

    @property
    def llm_tool_ids(self) -> frozenset[str]:
        return frozenset(b.tool_id for b in self.llm_backends)


@dataclass(frozen=True)
class ExperimentPlan:
    """The full candidate matrix a campaign will produce."""

    jobs: tuple[SectionJob, ...]
    candidate_origins: tuple[Origin, ...]
    llm_attempts_per_section: int

    @property
    def versions_per_section(self) -> int:
        # All backend candidates plus the serial original.
        return len(self.candidate_origins) + 1

    @property
    def total_versions(self) -> int:
        return len(self.jobs) * self.versions_per_section

    @property
    def total_llm_attempts(self) -> int:
        return len(self.jobs) * self.llm_attempts_per_section


def _origin_sort_key(origin: Origin) -> tuple[str, str, int]:
    return (
        origin.tool_id,
        origin.strategy.value if origin.strategy else "",
        origin.attempt or 0,
    )


def plan(config: CampaignConfig) -> ExperimentPlan:
    """Lay out the candidate matrix; raises EmptyCampaign on no sections."""
    if not config.sections:
        raise EmptyCampaign("campaign config lists no sections")
    origins = [
        Origin(tool_id=backend.tool_id, strategy=strategy, attempt=attempt)
        for backend in config.llm_backends
        for strategy in config.strategies
        for attempt in range(1, config.attempts + 1)
    ]
    origins.extend(Origin(tool_id=driver.tool_id) for driver in config.compiler_backends)
    origins.sort(key=_origin_sort_key)
    return ExperimentPlan(
        jobs=config.sections,
        candidate_origins=tuple(origins),
        llm_attempts_per_section=len(config.llm_backends)
        * len(config.strategies)
        * config.attempts,
    )


def _key(section_id: str, origin: Origin) -> tuple[str, str, str | None, int | None]:
    """Which version of which section a persisted row describes."""
    strategy = origin.strategy.value if origin.strategy else None
    return (section_id, origin.tool_id, strategy, origin.attempt)


# What a persisted row's field may hold, by its declared type.  type() is
# compared, so a bool is no int.
_FIELD_TYPES = {
    "str": (str,),
    "str | None": (str, type(None)),
    "int": (int,),
    "int | None": (int, type(None)),
    "float | None": (float, int, type(None)),
    "ValidationStatus": (ValidationStatus,),
    "OutcomeCategory": (OutcomeCategory,),
    "tuple[str, ...]": (tuple,),
}


@dataclass(frozen=True)
class _Row:
    """The leading fields of every persisted row: the _key of its version.

    A row's JSON form is its fields in declaration order.
    """

    section_id: str
    tool: str
    strategy: str | None
    attempt: int | None

    def key(self) -> tuple[str, str, str | None, int | None]:
        return (self.section_id, self.tool, self.strategy, self.attempt)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict):
        """The row doc holds; TypeError when a field's value is not of its declared type."""
        row = cls(**doc)
        for f in fields(row):
            value = getattr(row, f.name)
            if type(value) not in _FIELD_TYPES[f.type]:
                raise TypeError(f"{f.name} must be {f.type}, not {value!r}")
        return row


@dataclass(frozen=True)
class OutcomeRecord(_Row):
    """One validated version of one section.

    run_wall_ns is the wall time of the version's driver run, input reload
    and every timing repeat included; None when the driver did not run.
    """

    status: ValidationStatus
    category: OutcomeCategory
    detected: tuple[str, ...]
    pattern: str
    lines: int
    median_time_ns: int | None = None
    speedup: float | None = None
    run_wall_ns: int | None = None

    def __post_init__(self) -> None:
        # Only passing candidates carry a speedup (it may still be absent
        # when the serial baseline itself failed to validate).
        if self.speedup is not None and self.status is not ValidationStatus.PASS:
            raise ParseError("speedup requires a Pass status")

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "status": self.status.value,
            "category": self.category.value,
            "detected": list(self.detected),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "OutcomeRecord":
        detected = doc["detected"]
        if not (isinstance(detected, list) and all(type(label) is str for label in detected)):
            raise TypeError(f"detected must be a list of strings, not {detected!r}")
        return super().from_dict(
            {
                **doc,
                "status": ValidationStatus(doc["status"]),
                "category": OutcomeCategory(doc["category"]),
                "detected": tuple(detected),
            }
        )


def _pattern_key(manifest: StateManifest) -> str:
    if manifest.parallelizable:
        assert manifest.expected_pattern is not None
        return manifest.expected_pattern
    return f"Non_Parallel_Loop_{manifest.non_parallel_reason}"


def _safe_name(section_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.\-]", "_", section_id)


def _capture_dir(outdir: Path, section_id: str) -> Path:
    return Path(outdir) / "sections" / _safe_name(section_id) / "capture"


def _version_dir(outdir: Path, section_id: str, origin: Origin) -> Path:
    """A version's driver workdir: serial/ or candidates/<tool>__<strategy>__<attempt>/."""
    sdir = Path(outdir) / "sections" / _safe_name(section_id)
    if origin.tool_id == SERIAL_TOOL_ID:
        return sdir / "serial"
    _, tool, strategy, attempt = _key(section_id, origin)
    return sdir / "candidates" / f"{tool}__{strategy or 'na'}__{attempt or 0}"


@dataclass(frozen=True)
class _SectionContext:
    """One section as _load_section read it, once; _capture adds its capture run's results."""

    job: SectionJob
    section: ExperimentalSection
    manifest: StateManifest
    capture: GeneratedSource
    in_ckpt: Path | None = None
    out_ckpt: Path | None = None
    reference: ckpt.Checkpoint | None = None
    capture_wall_ns: int = 0


def _load_section(job: SectionJob) -> _SectionContext:
    try:
        manifest = load_manifest_file(job.manifest_path)
        source_text = Path(job.source_path).read_text(encoding="utf-8")
        found = extract_sections(source_text, str(job.source_path))
    except OSError as exc:
        raise CaptureFailure(f"cannot read section inputs: {exc}") from exc
    except PcaotError as exc:
        raise CaptureFailure(f"cannot parse section inputs: {exc}") from exc
    matching = [s for s in found if s.id == manifest.section_id]
    if not matching:
        ids = ", ".join(repr(s.id) for s in found) or "none"
        raise CaptureFailure(
            f"manifest names section {manifest.section_id!r}; {job.source_path} has: {ids}"
        )
    capture = generate_capture_program(source_text, matching[0], manifest)
    return _SectionContext(job, matching[0], manifest, capture)


def capture_section(job: SectionJob, config: CampaignConfig, outdir: Path) -> _SectionContext:
    """Build and run the instrumented program; its checkpoints become the reference.

    The section's checkpoints are deleted first, so only this run's can
    become the reference.  Raises CaptureFailure on any failure along the
    way, an OSError in the capture directory included.
    """
    return _capture(_load_section(job), config, outdir)


def _capture(ctx: _SectionContext, config: CampaignConfig, outdir: Path) -> _SectionContext:
    """capture_section for a section already loaded: ctx, with the capture run's results."""
    sid = ctx.manifest.section_id
    capture_dir = _capture_dir(outdir, sid)
    in_path = capture_dir / input_checkpoint_name(sid)
    out_path = capture_dir / output_checkpoint_name(sid)
    needs_input = bool(ctx.manifest.inputs)

    try:
        binary = build(ctx.capture, replace(config.build, workdir=capture_dir))
        in_path.unlink(missing_ok=True)
        out_path.unlink(missing_ok=True)
    except (PcaotError, OSError) as exc:
        raise CaptureFailure(f"capture build failed for {sid!r}: {exc}") from exc
    try:
        result = run(
            binary,
            timeout_s=config.timeout_s or CAPTURE_TIMEOUT_S,
            env={"OMP_NUM_THREADS": str(config.threads)},
        )
    except SpawnFailure as exc:
        raise CaptureFailure(f"capture run for {sid!r} did not start: {exc}") from exc
    if result.timed_out:
        raise CaptureFailure(f"capture run for {sid!r} timed out")
    if result.exit_code != 0:
        raise CaptureFailure(
            f"capture run for {sid!r} exited with {result.exit_code}: "
            f"{result.stderr.strip()[:400]}"
        )
    if not out_path.is_file() or (needs_input and not in_path.is_file()):
        raise CaptureFailure(f"capture run for {sid!r} left no checkpoint files")
    try:
        reference = ckpt.read_checkpoint_file(out_path)
    except PcaotError as exc:
        raise CaptureFailure(f"reference checkpoint for {sid!r} unreadable: {exc}") from exc
    return replace(
        ctx,
        in_ckpt=in_path if needs_input else None,
        out_ckpt=out_path,
        reference=reference,
        capture_wall_ns=result.wall_time_ns,
    )


@dataclass(frozen=True)
class CandidateRow(_Row):
    """One produced candidate (or production failure), as persisted."""

    code: str | None
    raw_response: str | None = None
    error: str | None = None


def _load_jsonl(path: Path, parse) -> list:
    """The rows parse builds from the lines of a JSONL file.

    Candidates can write to the file, so a line that is not UTF-8 JSON, or
    that parse cannot build a row from, is logged and skipped: its version
    is produced or validated again.
    """
    if not path.is_file():
        return []
    rows = []
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                rows.append(parse(json.loads(line.decode("utf-8"))))
            except (ValueError, TypeError, KeyError, RecursionError) as exc:
                log.warning("%s:%d: skipping a row that does not parse: %s", path, number, exc)
    return rows


def _append_jsonl(path: Path, doc: dict) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(doc) + "\n")
        handle.flush()


def _produce_one(
    origin: Origin,
    backend: MockLlm | LlmEndpointConfig | CompilerDriverConfig,
    ctx: _SectionContext,
    outdir: Path,
) -> CandidateRow:
    row = CandidateRow(*_key(ctx.manifest.section_id, origin), code=None)
    request = OptimizationRequest(
        section_code=ctx.section.body_text,
        strategy=origin.strategy,
        attempt=origin.attempt or 1,
    )
    try:
        if isinstance(backend, MockLlm):
            candidate = backend.request(request, ctx.manifest.section_id)
        elif isinstance(backend, LlmEndpointConfig):
            candidate = request_llm(
                request, backend.params, backend.endpoint, tool_id=backend.tool_id
            )
        else:
            candidate = request_compiler(
                request,
                backend,
                ctx.manifest,
                ctx.job.support_code,
                workdir=_version_dir(outdir, ctx.manifest.section_id, origin) / "compiler",
            )
    except PcaotError as exc:
        log.warning("candidate %s/%s failed: %s", ctx.manifest.section_id, origin.tool_id, exc)
        return replace(row, error=str(exc))
    return replace(row, code=candidate.code, raw_response=candidate.raw_response)


def produce_candidates(
    config: CampaignConfig, outdir: Path, experiment: ExperimentPlan | None = None
) -> dict[tuple, CandidateRow]:
    """Obtain candidate code for every planned origin, persisting as it goes.

    Rows already present in candidates.jsonl are not re-requested, so an
    interrupted campaign never repeats LLM calls.  Requests of every backend
    share one pool of config.max_inflight workers; rows are persisted in
    plan order.  Raises ParseError, before any backend is asked, when two
    sections share an id or a sections/ directory (_safe_name).
    """
    return _produce(config, outdir, experiment)[1]


def _produce(config: CampaignConfig, outdir: Path, experiment: ExperimentPlan | None) -> tuple:
    """(the sections produce_candidates loaded, in plan order, and its rows)."""
    outdir = _ensure_dir(outdir)
    experiment = experiment or plan(config)
    loaded: list[_SectionContext] = []
    dirs: dict[str, str] = {}
    for job in experiment.jobs:
        try:
            ctx = _load_section(job)
        except CaptureFailure as exc:
            log.warning("section skipped: %s", exc)
            continue
        sid, name = ctx.manifest.section_id, _safe_name(ctx.manifest.section_id)
        if name in dirs:
            raise ParseError(
                f"section {sid!r} is listed more than once"
                if dirs[name] == sid
                else f"sections {dirs[name]!r} and {sid!r} share sections/{name}/"
            )
        dirs[name] = sid
        loaded.append(ctx)
    path = outdir / "candidates.jsonl"
    rows: dict[tuple, CandidateRow] = {r.key(): r for r in _load_jsonl(path, CandidateRow.from_dict)}
    backends = {b.tool_id: b for b in (*config.llm_backends, *config.compiler_backends)}
    with ThreadPoolExecutor(max_workers=config.max_inflight) as pool:
        for ctx in loaded:
            missing = [
                origin
                for origin in experiment.candidate_origins
                if _key(ctx.manifest.section_id, origin) not in rows
            ]
            produced = pool.map(
                lambda o: _produce_one(o, backends[o.tool_id], ctx, outdir), missing
            )
            for row in produced:
                rows[row.key()] = row
                _append_jsonl(path, row.to_dict())
    return loaded, rows


def _candidate_timeout(config: CampaignConfig, baseline_wall_ns: int) -> float:
    if config.timeout_s is not None:
        return config.timeout_s
    return max(TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * baseline_wall_ns / 1e9)


def _validate_code(
    driver: GeneratedSource | PcaotError,
    argv: tuple[str, ...],
    code: str,
    ctx: _SectionContext,
    config: CampaignConfig,
    scratch: Path,
    timeout_s: float,
) -> tuple[ValidationStatus, int | None, int | None]:
    """Build, run, time and compare one version's replay driver.

    The driver runs with argv, which selects the version's body, written to
    driver.args next to it.  A driver that is a PcaotError (it did not
    generate, or the code was rejected) is a CompileError, as is a failed
    build.  A scratch that cannot take the driver's files, driver.args or
    the captured input (an OSError) is a RuntimeError, logged with the path.
    Code with no OpenMP directive runs with OMP_PROC_BIND=false: a driver
    that links libgomp would otherwise pin its one thread to one CPU.
    Returns (status, median_ns, run_wall_ns); run_wall_ns is None when the
    driver did not run."""
    try:
        if isinstance(driver, PcaotError):
            raise driver
        binary = build(driver, replace(config.build, workdir=scratch))
        (scratch / "driver.args").write_text(" ".join(argv) + "\n", encoding="utf-8")
        if ctx.in_ckpt is not None:
            shutil.copyfile(ctx.in_ckpt, scratch / ctx.in_ckpt.name)
    except PcaotError as exc:
        detail = getattr(exc, "stderr", "") or str(exc)
        log.debug("candidate build failed in %s: %s", scratch.name, detail[:400])
        return (ValidationStatus.COMPILE_ERROR, None, None)
    except OSError as exc:
        log.warning("cannot prepare %s: %s", scratch, exc)
        return (ValidationStatus.RUNTIME_ERROR, None, None)
    env = {"OMP_NUM_THREADS": str(config.threads)}
    if not (has_any_directive(code) or "_Pragma" in code):
        env["OMP_PROC_BIND"] = "false"
    try:
        result = run(binary, timeout_s=timeout_s, env=env, args=argv)
    except SpawnFailure as exc:
        log.debug("candidate driver did not start in %s: %s", scratch.name, exc)
        return (ValidationStatus.RUNTIME_ERROR, None, None)
    if result.timed_out:
        return (ValidationStatus.TIMEOUT, None, result.wall_time_ns)
    if result.exit_code != 0:
        return (ValidationStatus.RUNTIME_ERROR, None, result.wall_time_ns)
    try:
        timing = collect_timing(result, config.timing_repeats)
        candidate_ckpt = ckpt.read_checkpoint_file(
            scratch / output_checkpoint_name(ctx.manifest.section_id)
        )
    except (PcaotError, OSError):
        return (ValidationStatus.RUNTIME_ERROR, None, result.wall_time_ns)
    report = ckpt.compare(ctx.reference, candidate_ckpt, ctx.manifest, config.tolerance)
    status = (
        ValidationStatus.PASS
        if report.status is ComparisonStatus.PASS
        else ValidationStatus.NUMERIC_MISMATCH
    )
    return (status, timing.median_ns, result.wall_time_ns)


def _make_record(
    ctx: _SectionContext,
    origin: Origin,
    code: str | None,
    status: ValidationStatus,
    median_ns: int | None,
    serial_median_ns: int | None,
    run_wall_ns: int | None = None,
) -> OutcomeRecord:
    detected = detect(code) if code else set()
    has_dirs = has_any_directive(code) if code else False
    category = categorize(ctx.manifest, detected, status, has_directives=has_dirs)
    speedup = None
    if status is ValidationStatus.PASS and median_ns and serial_median_ns:
        speedup = serial_median_ns / median_ns
    return OutcomeRecord(
        *_key(ctx.manifest.section_id, origin),
        status=status,
        category=category,
        detected=tuple(sorted(label.value for label in detected)),
        pattern=_pattern_key(ctx.manifest),
        lines=ctx.section.line_count,
        median_time_ns=median_ns,
        speedup=speedup,
        run_wall_ns=run_wall_ns,
    )


# An identifier of the replay driver's own state, or token pasting that could spell one.
_RESERVED_RE = re.compile(r"\b(?:pcaot|PCAOT)_\w*|##")


def _check_candidate_names(code: str) -> None:
    """Raise ReservedName when code uses a reserved name outside comments and strings."""
    match = _RESERVED_RE.search(_strip_comments_and_strings(code))
    if match is not None:
        raise ReservedName(f"candidate code uses reserved {match.group()!r}")


class _SectionDrivers:
    """The replay drivers of one section's versions, and which body each runs.

    Every body that can_share_driver accepts goes in one section driver,
    when there are at least two; each other body gets a one-body driver.
    When a section driver does not compile, the bodies that gcc's error:
    lines name get one-body drivers and the rest a new section driver; when
    no line names a body, or the new section driver fails too, each of its
    bodies gets a one-body driver.  These replacements are queued from the
    failed compile's pool task (runner.start_build's on_failure), so every
    compile is queued or done before a build or a timed run stops waiting.
    A driver whose source cannot be written into its directory (an OSError)
    is not queued: its bodies, when it has several, get one-body drivers,
    and the versions of a body that has one retry in their own build().
    Each driver is queued once, in the directory of the first version that
    runs one of its bodies.  No lock is needed: all entries of a driver are
    written before its compile is queued, and a failure hook, on a pool
    thread, writes only the entries of the driver that failed, so no entry
    is written after its driver's compile is queued.
    """

    def __init__(self, manifest: StateManifest, config: CampaignConfig, support_code: str) -> None:
        self._manifest = manifest
        self._config = config
        self._support_code = support_code
        self._workdirs: dict[str, Path] = {}
        # body -> its current driver (or what stopped its generation) and the argv selecting it
        self._drivers: dict[str, tuple[GeneratedSource | PcaotError, tuple[str, ...]]] = {}

    def queue(self, workdirs: dict[str, Path]) -> None:
        """Queue a driver for each body; workdirs gives each body its first version's directory."""
        self._workdirs = workdirs
        shared = [body for body in workdirs if can_share_driver(body)]
        if len(shared) < 2:
            shared = []
        self._start(shared, split=True)
        for body in workdirs:
            if body not in shared:
                self._start([body])

    def driver(self, body: str) -> tuple[GeneratedSource | PcaotError, tuple[str, ...]]:
        """The driver a body ends up in and the argv that runs it, once no compile is pending."""
        wait_idle()
        return self._drivers[body]

    def _start(self, bodies: list[str], split: bool = False) -> None:
        # One driver for bodies; _failed(bodies, failure, split) if it holds several and fails.
        if not bodies:
            return
        try:
            driver = generate_replay_driver(
                bodies, self._manifest, self._config.timing_repeats, self._support_code
            )
        except PcaotError as exc:
            self._drivers.update((body, (exc, ())) for body in bodies)
            return
        alone = len(bodies) == 1
        for k, body in enumerate(bodies):
            self._drivers[body] = (driver, (str(k),))
        hook = None if alone else (lambda failure: self._failed(bodies, failure, split))
        workdir = self._workdirs[bodies[0]]
        try:
            start_build(driver, replace(self._config.build, workdir=workdir), hook)
        except OSError as exc:
            log.warning("cannot queue a replay driver in %s: %s", workdir, exc)
            if not alone:
                for body in bodies:
                    self._start([body])

    def _failed(self, bodies: list[str], failure: CompileFailure, split: bool) -> None:
        # split (the first section driver): the named bodies go alone and the
        # rest share a new driver.  With none named, or not split, all go alone.
        named = {bodies[k] for k in bodies_named_in(failure.stderr) if k < len(bodies)}
        rest = [body for body in bodies if body not in named] if split and named else []
        for body in bodies:
            if body not in rest:
                self._start([body])
        self._start(rest)


def _queue_section(
    ctx: _SectionContext,
    config: CampaignConfig,
    outdir: Path,
    experiment: ExperimentPlan,
    rows: dict[tuple, CandidateRow],
    existing: dict[tuple, OutcomeRecord],
) -> tuple[list[tuple[Origin, str | None, ReservedName | None]], _SectionDrivers]:
    """Queue a loaded section's compiles, and return its versions and drivers.

    Each version, serial first, is (origin, code, rejection).  rejection is
    the ReservedName error of candidate code that names a reserved
    identifier outside comments and strings; that code is neither generated
    nor built.  The body of every other version with code and no record is
    queued in the section's drivers, and the capture when any version has
    no record.  Raises CaptureFailure when its capture cannot be queued.
    """
    sid = ctx.manifest.section_id
    versions = []
    workdirs: dict[str, Path] = {}
    for origin in (Origin(tool_id=SERIAL_TOOL_ID), *experiment.candidate_origins):
        row = rows.get(_key(sid, origin))
        is_serial = origin.tool_id == SERIAL_TOOL_ID
        code = ctx.section.body_text if is_serial else (row.code if row is not None else None)
        rejection = None
        if code is not None and _key(sid, origin) not in existing:
            try:
                if not is_serial:
                    _check_candidate_names(code)
                workdirs.setdefault(code, _version_dir(outdir, sid, origin))
            except ReservedName as exc:
                rejection = exc
        versions.append((origin, code, rejection))
    if any(_key(sid, origin) not in existing for origin, _, _ in versions):
        try:
            start_build(ctx.capture, replace(config.build, workdir=_capture_dir(outdir, sid)))
        except OSError as exc:
            raise CaptureFailure(f"capture build failed for {sid!r}: {exc}") from exc
    drivers = _SectionDrivers(ctx.manifest, config, ctx.job.support_code)
    drivers.queue(workdirs)
    return versions, drivers


def execute(experiment: ExperimentPlan, config: CampaignConfig, outdir: Path) -> list[OutcomeRecord]:
    """Capture, produce and validate everything a plan describes.

    Each section is read once (_produce), before any candidate runs, so no
    file a candidate writes can change its serial code or capture.  Once the
    candidates exist, every section is queued (_queue_section), so the first
    build() call waits for every compile, replacements of failed section
    drivers included, and later ones are memo hits.  A section is
    captured afresh just before its versions run, and not at all when every
    version has a record.  Sections whose reference capture fails are
    skipped (and logged); all other failures become per-version statuses.
    Returns records in deterministic order: sections in plan order, the
    serial baseline first, then candidates by (tool, strategy, attempt).
    Existing records.jsonl rows are reused, new ones appended.
    """
    if not experiment.jobs:
        raise EmptyCampaign("experiment plan lists no sections")
    outdir = _ensure_dir(outdir)
    _write_text(outdir / "pcaot_helpers.c", HELPER_SOURCE)
    records_path = outdir / "records.jsonl"
    existing = {r.key(): r for r in _load_jsonl(records_path, OutcomeRecord.from_dict)}
    loaded, rows = _produce(config, outdir, experiment)
    queued = []
    for ctx in loaded:
        try:
            queued.append((ctx, *_queue_section(ctx, config, outdir, experiment, rows, existing)))
        except CaptureFailure as exc:
            log.warning("section skipped: %s", exc)
    records: list[OutcomeRecord] = []

    for ctx, versions, drivers in queued:
        sid = ctx.manifest.section_id
        recorded = [existing.get(_key(sid, origin)) for origin, _, _ in versions]
        if None not in recorded:
            records.extend(recorded)
            continue
        try:
            ctx = _capture(ctx, config, outdir)
        except CaptureFailure as exc:
            log.warning("section skipped: %s", exc)
            continue
        serial_median = None
        timeout_s = _candidate_timeout(config, ctx.capture_wall_ns)
        for (origin, code, rejection), record in zip(versions, recorded):
            is_serial = origin.tool_id == SERIAL_TOOL_ID
            if record is None:
                status, median, wall = ValidationStatus.EXTRACTION_ERROR, None, None
                if code is not None:
                    driver, argv = drivers.driver(code) if rejection is None else (rejection, ())
                    scratch = _version_dir(outdir, sid, origin)
                    status, median, wall = _validate_code(
                        driver, argv, code, ctx, config, scratch, timeout_s
                    )
                baseline = median if is_serial else serial_median
                record = _make_record(ctx, origin, code, status, median, baseline, wall)
                _append_jsonl(records_path, record.to_dict())
            records.append(record)
            if not is_serial:
                continue
            if record.status is not ValidationStatus.PASS:
                log.warning(
                    "serial baseline for %r did not validate (%s); speedups unavailable",
                    sid,
                    record.status.value,
                )
            serial_median = record.median_time_ns
            baseline_wall = record.run_wall_ns
            if baseline_wall is None:
                # Rows written before run_wall_ns existed: a guess that leaves out the input reload.
                baseline_wall = (serial_median or 0) * config.timing_repeats
            timeout_s = _candidate_timeout(config, baseline_wall)
    return records


@dataclass(frozen=True)
class Metrics:
    """Aggregated campaign statistics, all JSON-friendly."""

    failure_rate_by_bucket: dict = field(default_factory=dict)
    category_rates: dict = field(default_factory=dict)
    speedup_table: dict = field(default_factory=dict)
    overall_success_rate: float | None = None
    speedup_vs_hand_optimized: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        doc = {
            "failure_rate_by_bucket": self.failure_rate_by_bucket,
            "category_rates": self.category_rates,
            "speedup_table": self.speedup_table,
            "overall_success_rate": self.overall_success_rate,
        }
        if self.speedup_vs_hand_optimized:
            doc["speedup_vs_hand_optimized"] = self.speedup_vs_hand_optimized
        return doc


def _bucket_labels(bounds: tuple[int, ...]) -> list[str]:
    labels = []
    low = 0
    for bound in bounds:
        labels.append(f"({low},{bound}]")
        low = bound
    labels.append(f"({low},inf)")
    return labels


def _bucket_for(lines: int, bounds: tuple[int, ...]) -> str:
    labels = _bucket_labels(bounds)
    return next((label for label, bound in zip(labels, bounds) if lines <= bound), labels[-1])


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def _speedup_map(records: list[OutcomeRecord], value_of) -> dict:
    """Per-tool {by_strategy: {strategy: mean}, max_mean} over passing records."""
    by_tool: dict[str, dict[str, list[float]]] = {}
    for record in records:
        value = value_of(record)
        if value is None:
            continue
        strategy = record.strategy if record.strategy is not None else "default"
        by_tool.setdefault(record.tool, {}).setdefault(strategy, []).append(value)
    table: dict = {}
    for tool in sorted(by_tool):
        means = {
            strategy: _mean(values) for strategy, values in sorted(by_tool[tool].items())
        }
        table[tool] = {
            "by_strategy": means,
            "max_mean": max(means.values()) if means else None,
        }
    return table


def aggregate(records: list[OutcomeRecord], config: CampaignConfig) -> Metrics:
    """Fold outcome records into campaign metrics.

    The serial baseline is excluded everywhere; failure-by-size and the
    overall success rate cover LLM-origin attempts only.
    """
    llm_tools = config.llm_tool_ids
    tool_records = [r for r in records if r.tool != SERIAL_TOOL_ID]
    llm_records = [r for r in tool_records if r.tool in llm_tools]

    buckets: dict[str, dict[str, int]] = {}
    for record in llm_records:
        label = _bucket_for(record.lines, config.size_buckets)
        stats = buckets.setdefault(label, {"failures": 0, "attempts": 0})
        stats["attempts"] += 1
        if record.status is not ValidationStatus.PASS:
            stats["failures"] += 1
    failure_rate_by_bucket = {
        label: {**buckets[label], "rate": buckets[label]["failures"] / buckets[label]["attempts"]}
        for label in _bucket_labels(config.size_buckets)
        if label in buckets
    }

    category_rates: dict = {}
    for record in tool_records:
        strategy = record.strategy if record.strategy is not None else "default"
        hist = (
            category_rates.setdefault(record.pattern, {})
            .setdefault(record.tool, {})
            .setdefault(strategy, {})
        )
        hist[record.category.value] = hist.get(record.category.value, 0) + 1

    speedup_table = _speedup_map(tool_records, lambda r: r.speedup)

    hand_ns: dict[str, int] = {}
    for job in config.sections:
        if job.hand_optimized_ns is not None:
            hand_ns[_job_section_id(job)] = job.hand_optimized_ns
    speedup_vs_hand = {}
    if hand_ns:
        speedup_vs_hand = _speedup_map(
            tool_records,
            lambda r: (
                hand_ns[r.section_id] / r.median_time_ns
                if r.section_id in hand_ns
                and r.status is ValidationStatus.PASS
                and r.median_time_ns
                else None
            ),
        )

    overall = None
    if llm_records:
        passes = sum(1 for r in llm_records if r.status is ValidationStatus.PASS)
        overall = passes / len(llm_records)

    return Metrics(
        failure_rate_by_bucket=failure_rate_by_bucket,
        category_rates=category_rates,
        speedup_table=speedup_table,
        overall_success_rate=overall,
        speedup_vs_hand_optimized=speedup_vs_hand,
    )


def _job_section_id(job: SectionJob) -> str | None:
    """The section id job's manifest names, or None when it cannot be read."""
    try:
        return load_manifest_file(job.manifest_path).section_id
    except (OSError, PcaotError):
        return None


def _ensure_dir(path: Path) -> Path:
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create directory {path}: {exc}") from exc
    return path


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _records_csv(records: list[OutcomeRecord]) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(
            [
                record.section_id,
                record.tool,
                record.strategy or "",
                record.attempt if record.attempt is not None else "",
                record.status.value,
                record.category.value,
                ";".join(record.detected),
                record.lines,
                record.median_time_ns if record.median_time_ns is not None else "",
                repr(record.speedup) if record.speedup is not None else "",
            ]
        )
    return buffer.getvalue()


def emit_reports(metrics: Metrics, records: list[OutcomeRecord], outdir: Path) -> list[Path]:
    """Write records.csv, metrics.json and the three SVG charts.

    Byte-deterministic: the same metrics and records always produce
    identical files.
    """
    outdir = _ensure_dir(outdir)
    csv_path = outdir / "records.csv"
    _write_text(csv_path, _records_csv(records))

    metrics_path = outdir / "metrics.json"
    _write_text(
        metrics_path, json.dumps(metrics.to_json_dict(), indent=2, sort_keys=True) + "\n"
    )

    bucket_labels = list(metrics.failure_rate_by_bucket.keys())
    failure_svg = grouped_bar_chart(
        title="Failure rate by section size (lines)",
        ylabel="failure rate",
        groups=bucket_labels,
        series=[
            (
                "LLM attempts",
                [metrics.failure_rate_by_bucket[label]["rate"] for label in bucket_labels],
            )
        ],
    )
    failure_path = outdir / "failure_by_size.svg"
    _write_text(failure_path, failure_svg)

    patterns = sorted(metrics.category_rates)
    categories = [c.value for c in OutcomeCategory]
    series = []
    for category in categories:
        values: list[float | None] = []
        for pattern in patterns:
            total = 0
            for tool_hist in metrics.category_rates[pattern].values():
                for strat_hist in tool_hist.values():
                    total += strat_hist.get(category, 0)
            values.append(float(total) if total else None)
        series.append((category, values))
    categories_svg = grouped_bar_chart(
        title="Outcome categories by expected pattern",
        ylabel="candidates",
        groups=patterns,
        series=series,
    )
    categories_path = outdir / "pattern_categories.svg"
    _write_text(categories_path, categories_svg)

    tools = sorted(metrics.speedup_table)
    strategies = sorted(
        {s for tool in tools for s in metrics.speedup_table[tool]["by_strategy"]}
    )
    speedup_series = [
        (
            strategy,
            [metrics.speedup_table[tool]["by_strategy"].get(strategy) for tool in tools],
        )
        for strategy in strategies
    ]
    speedups_svg = grouped_bar_chart(
        title="Mean speedup over serial (passing candidates)",
        ylabel="speedup",
        groups=tools,
        series=speedup_series,
    )
    speedups_path = outdir / "speedups.svg"
    _write_text(speedups_path, speedups_svg)

    return [csv_path, metrics_path, failure_path, categories_path, speedups_path]


def _as_path(base: Path, value: str) -> Path:
    candidate = Path(value)
    return candidate if candidate.is_absolute() else base / candidate


def _present(doc: dict, *keys: str) -> dict:
    """The entries of doc named by keys; absent ones keep their dataclass default."""
    if not isinstance(doc, dict):
        raise ParseError(f"expected a JSON object with {', '.join(keys)}, got {doc!r}")
    return {key: doc[key] for key in keys if key in doc}


def _parse_llm_backend(doc, base: Path) -> MockLlm | LlmEndpointConfig:
    if not isinstance(doc, dict) or not isinstance(doc.get("tool_id"), str) or not doc["tool_id"]:
        raise ParseError("llm backend entries must be objects with a tool_id")
    kind = doc.get("kind", "llm")
    if kind == "mock":
        responses = doc.get("responses", {})
        files = doc.get("response_files", {})
        if not (
            isinstance(responses, dict)
            and isinstance(files, dict)
            and all(isinstance(v, str) for v in (*responses.values(), *files.values()))
        ):
            raise ParseError("mock responses and response_files must map keys to strings")
        responses = dict(responses)
        for section_key, rel in files.items():
            try:
                responses[section_key] = _as_path(base, rel).read_text(encoding="utf-8")
            except OSError as exc:
                raise ParseError(f"cannot read mock response file {rel!r}: {exc}") from exc
        return MockLlm(tool_id=doc["tool_id"], responses=responses)
    if kind in ("llm", "http"):
        if not isinstance(doc.get("endpoint"), str) or not isinstance(doc.get("model"), str):
            raise ParseError("http llm backends need endpoint and model")
        params = SamplingParams(model=doc["model"], **_present(doc, "temperature", "top_p"))
        return LlmEndpointConfig(tool_id=doc["tool_id"], endpoint=doc["endpoint"], params=params)
    raise ParseError(f"unknown llm backend kind {kind!r}")


def _parse_compiler_backend(doc) -> CompilerDriverConfig:
    if not isinstance(doc, dict) or not all(
        isinstance(doc.get(key), str) for key in ("tool_id", "command")
    ):
        raise ParseError("compiler backend entries must be objects with tool_id and command")
    return CompilerDriverConfig(**_present(doc, "tool_id", "command", "output_path"))


def _list(doc: dict, key: str) -> list:
    """doc[key], which must be a JSON list; an empty one when absent."""
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{key} must be a JSON list")
    return value


def load_campaign_config(path: Path) -> CampaignConfig:
    """Parse a campaign config JSON file; paths resolve against its directory.

    Only the settings the document names are passed on, so every default
    lives in its dataclass.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read campaign config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"campaign config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("campaign config root must be a JSON object")
    base = path.parent

    jobs = []
    for entry in _list(doc, "sections"):
        if not isinstance(entry, dict) or "source" not in entry or "manifest" not in entry:
            raise ParseError("each section entry needs source and manifest paths")
        for key in ("source", "manifest", "support_code", "support_code_path"):
            if key in entry and not isinstance(entry[key], str):
                raise ParseError(f"section {key} must be a string")
        support = entry.get("support_code", "")
        if "support_code_path" in entry:
            try:
                support = _as_path(base, entry["support_code_path"]).read_text(encoding="utf-8")
            except OSError as exc:
                raise ParseError(f"cannot read support code: {exc}") from exc
        jobs.append(
            SectionJob(
                source_path=_as_path(base, entry["source"]),
                manifest_path=_as_path(base, entry["manifest"]),
                support_code=support,
                hand_optimized_ns=entry.get("hand_optimized_ns"),
            )
        )

    settings = _present(doc, "attempts", "timing_repeats", "threads", "timeout_s", "max_inflight")
    if "strategies" in doc:
        strategies = _list(doc, "strategies")
        try:
            settings["strategies"] = tuple(PromptStrategy(s) for s in strategies)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"unknown prompt strategy: {exc}") from exc
    if "size_buckets" in doc:
        settings["size_buckets"] = tuple(_list(doc, "size_buckets"))
    if "tolerance" in doc:
        settings["tolerance"] = Tolerance(**_present(doc["tolerance"], "abs", "rel"))
    if "build" in doc:
        build_doc = doc["build"]
        build_settings = _present(build_doc, "compiler_cmd")
        if "flags" in build_doc:
            if not isinstance(build_doc["flags"], list):
                raise ParseError("build flags must be a list of strings")
            build_settings["flags"] = tuple(build_doc["flags"])
        settings["build"] = BuildSpec(**build_settings)

    return CampaignConfig(
        sections=tuple(jobs),
        llm_backends=tuple(_parse_llm_backend(b, base) for b in _list(doc, "llm_backends")),
        compiler_backends=tuple(
            _parse_compiler_backend(b) for b in _list(doc, "compiler_backends")
        ),
        **settings,
    )
