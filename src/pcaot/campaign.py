"""The campaign pipeline: plan, produce, capture and validate, and the rows it persists.

A campaign pairs section sources with manifests, as pcaot.config loads them,
fans each section out to every configured backend (LLM strategies x attempts,
plus compiler backends, plus the serial original), and validates every
candidate against the captured reference state; pcaot.report folds the records
into metrics and charts.  Each section is read once, before any candidate is
produced, and every later stage works from that read.  Candidates of every
backend, LLM or compiler, are produced through one thread pool of
config.max_inflight workers and persisted in plan order.  Validation then
decides each version once: a queue step per section queues its capture, and
then one driver set for the whole campaign (_Drivers) deals the sections that
share their support code over one replay driver per build worker (_deal).  A
driver holds the distinct code of every version of its sections that needs a
record, serial included, and its compile is queued on runner's pool once, in
the first of those versions' directories, before the first capture runs.
Code that cannot share a driver, and code that gcc names in a failed shared
driver's errors, gets a driver of its own.  A loop then captures each section
and builds, runs and records its versions, selecting each one's code through
argv.

Filesystem contract under the output directory (shared by the staged CLI
subcommands and by run):

    sections/<id>/capture/      instrumented program + reference checkpoints,
                                both made again by each run that validates
    sections/<id>/serial/       serial baseline driver scratch
    sections/<id>/candidates/<tool>__<strategy>__<attempt>/
                                each version's driver.c (often one that holds
                                several sections), driver, and driver.args, the
                                body number over the whole driver that runs the
                                version's code: ./driver $(cat driver.args)
                                driver.c is a whole program; gcc driver.c -o
                                driver with the campaign's flags rebuilds it.
                                Each version directory, serial/ too, holds a
                                hard link to capture/<id>.in.ckpt (a copy
                                where linking fails).
    sections/<id>/candidates/<tool>__na__0/compiler/
                                a compiler backend's input.c (the wrapped
                                section) and the files it wrote, such as
                                transformed.c
    candidates.jsonl            produced candidate code + raw responses
    records.jsonl               one outcome record per line, appended as
                                validation progresses (resume skips done work)
    records.csv, metrics.json, failure_by_size.svg, pattern_categories.svg,
    speedups.svg                emitted by the report stage
"""

from __future__ import annotations

import json
import logging
import os
import re
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import checkpoint as ckpt
from .backends import (
    CompilerDriverConfig,
    LlmEndpointConfig,
    MockLlm,
    OptimizationRequest,
    Origin,
    request_compiler,
    request_llm,
)
from .checkpoint import ComparisonStatus
from .config import SERIAL_TOOL_ID, CampaignConfig, SectionJob
from .errors import ParseError, PcaotError
from .instrument import (
    GeneratedSource,
    bodies_named_in,
    can_share_driver,
    generate_capture_program,
    generate_replay_driver,
    input_checkpoint_name,
    output_checkpoint_name,
    reserved_name_in,
)
from .pattern import (
    OutcomeCategory,
    ValidationStatus,
    _strip_comments_and_strings,
    categorize,
    detect,
    has_any_directive,
)
from .report import _ensure_dir
from .runner import (
    BUILD_WORKERS,
    CompileFailure,
    SpawnFailure,
    build,
    collect_timing,
    run,
    start_build,
    wait_idle,
)
from .sections import ExperimentalSection, StateManifest, extract_sections, load_manifest_file

# Not used here: perfbench/ and the acceptance gate resolve these names through pcaot.campaign.
from .config import load_campaign_config  # noqa: F401
from .report import aggregate, emit_reports  # noqa: F401

log = logging.getLogger("pcaot")

CAPTURE_TIMEOUT_S = 60.0
TIMEOUT_FLOOR_S = 10.0
TIMEOUT_FACTOR = 10.0


class EmptyCampaign(PcaotError):
    """A campaign without sections has nothing to do."""


class CaptureFailure(PcaotError):
    """The reference capture run for a section failed; the section is skipped."""


class ReservedName(PcaotError):
    """Code other than the section's own uses a name reserved for the replay driver, or ##."""


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


def _stamp(path: Path) -> tuple[int, ...]:
    """What a write, link, unlink or replacement of path changes in its stat."""
    st = os.stat(path)
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _place_input(source: Path, scratch: Path) -> tuple[int, ...]:
    """Hard-link source into scratch, or copy it when linking fails; the stamp of source after.

    The stamp is taken last because the link itself changes the ctime of
    source.
    """
    target = scratch / source.name
    target.unlink(missing_ok=True)
    try:
        os.link(source, target)
    except OSError:
        shutil.copyfile(source, target)
    return _stamp(source)


def _validate_code(
    driver: GeneratedSource | ReservedName,
    argv: tuple[str, ...],
    code: str,
    ctx: _SectionContext,
    config: CampaignConfig,
    scratch: Path,
    timeout_s: float,
) -> tuple[ValidationStatus, int | None, int | None, bool]:
    """Build, run, time and compare one version's replay driver.

    The driver runs with argv, which selects the version's body, written to
    driver.args next to it.  A driver that is a ReservedName (_Drivers
    rejected the code) is a CompileError without a build, as is a failed
    build.  A scratch that cannot take the driver's files, driver.args or
    the captured input (an OSError) is a RuntimeError, logged with the path.
    The captured input is hard-linked into scratch (_place_input), so the
    version shares it with its capture; when the run changed its stat (a
    write, link or unlink through any path), the version is a RuntimeError,
    logged, and the section needs a new capture.
    Code with no OpenMP directive and no _Pragma, outside comments and
    strings, runs with OMP_PROC_BIND=false: a driver that links libgomp
    would otherwise pin its one thread to one CPU.
    Returns (status, median_ns, run_wall_ns, input_changed); run_wall_ns is
    None when the driver did not run."""
    try:
        if isinstance(driver, ReservedName):
            raise driver
        binary = build(driver, replace(config.build, workdir=scratch))
        (scratch / "driver.args").write_text(" ".join(argv) + "\n", encoding="utf-8")
        stamp = _place_input(ctx.in_ckpt, scratch) if ctx.in_ckpt is not None else None
    except PcaotError as exc:
        detail = getattr(exc, "stderr", "") or str(exc)
        log.debug("candidate build failed in %s: %s", scratch.name, detail[:400])
        return (ValidationStatus.COMPILE_ERROR, None, None, False)
    except OSError as exc:
        log.warning("cannot prepare %s: %s", scratch, exc)
        return (ValidationStatus.RUNTIME_ERROR, None, None, False)
    env = {"OMP_NUM_THREADS": str(config.threads)}
    if not (has_any_directive(code) or "_Pragma" in _strip_comments_and_strings(code)):
        env["OMP_PROC_BIND"] = "false"
    try:
        result = run(binary, timeout_s=timeout_s, env=env, args=argv)
    except SpawnFailure as exc:
        log.debug("candidate driver did not start in %s: %s", scratch.name, exc)
        return (ValidationStatus.RUNTIME_ERROR, None, None, False)
    if stamp is not None:
        try:
            changed = _stamp(ctx.in_ckpt) != stamp
        except OSError:
            changed = True
        if changed:
            log.warning("the version in %s changed its section's input %s", scratch, ctx.in_ckpt)
            return (ValidationStatus.RUNTIME_ERROR, None, result.wall_time_ns, True)
    if result.timed_out:
        return (ValidationStatus.TIMEOUT, None, result.wall_time_ns, False)
    if result.exit_code != 0:
        return (ValidationStatus.RUNTIME_ERROR, None, result.wall_time_ns, False)
    try:
        timing = collect_timing(result, config.timing_repeats)
        candidate_ckpt = ckpt.read_checkpoint_file(
            scratch / output_checkpoint_name(ctx.manifest.section_id)
        )
    except (PcaotError, OSError):
        return (ValidationStatus.RUNTIME_ERROR, None, result.wall_time_ns, False)
    report = ckpt.compare(ctx.reference, candidate_ckpt, ctx.manifest, config.tolerance)
    status = (
        ValidationStatus.PASS
        if report.status is ComparisonStatus.PASS
        else ValidationStatus.NUMERIC_MISMATCH
    )
    return (status, timing.median_ns, result.wall_time_ns, False)


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


def _deal(support_codes: list[str], width: int) -> list[list[int]]:
    """The sections of each shared replay driver, as indices into support_codes.

    support_codes holds each section's support code in plan order.  Only
    sections with the same support code share a driver: the sections of
    each such group are dealt, in order, into min(their number, width)
    drivers, so section n of a group goes to the group's driver n mod that
    count.  Groups come in the order of their first section.
    """
    groups: dict[str, list[int]] = {}
    for n, code in enumerate(support_codes):
        groups.setdefault(code, []).append(n)
    drivers = []
    for members in groups.values():
        count = min(len(members), width)
        drivers.extend(members[d::count] for d in range(count))
    return drivers


# A body of one section: (section id, body).
_Entry = tuple[str, str]


class _Drivers:
    """The replay drivers of a campaign's versions, and which body each runs.

    An entry is a body of one section, so byte-identical bodies of two
    sections are two entries.  This is the one place that decides whether a
    body runs: a body other than its section's own code that names a
    reserved identifier outside comments and strings (reserved_name_in) gets
    a ReservedName entry, and nothing is generated, queued or written for
    it.  Of the other entries, those that can_share_driver accepts go in
    shared drivers: the sections that have any are dealt (_deal) over
    runner.BUILD_WORKERS drivers, one per compile the pool runs at once, and
    each such driver holds every shareable entry of its sections.  Each
    other entry gets a one-body driver.  When a shared driver does not
    compile, the entries that gcc's error: lines name get one-body drivers
    and the rest one new driver; when no line names a body, or the new
    driver fails too, each of its entries gets a one-body driver.  These
    replacements are queued from the failed compile's pool task
    (runner.start_build's on_failure), so every compile is queued or done
    before a build or a timed run stops waiting.  A driver whose source
    cannot be written into its directory (an OSError) is not queued: its
    entries, when it has several, get one-body drivers, and the versions of
    an entry that has one retry in their own build().  Each driver is queued
    once, in the directory of the first version that runs its first entry.
    No lock is needed: all entries of a driver are written before its
    compile is queued, and a failure hook, on a pool thread, writes only the
    entries of the driver that failed, so no entry is written after its
    driver's compile is queued.
    """

    def __init__(self, config: CampaignConfig) -> None:
        self._config = config
        self._sections: dict[str, _SectionContext] = {}
        self._workdirs: dict[_Entry, Path] = {}
        # entry -> its current driver (or why it was rejected) and the argv selecting it
        self._drivers: dict[_Entry, tuple[GeneratedSource | ReservedName, tuple[str, ...]]] = {}

    def queue(self, sections: list[tuple[_SectionContext, dict[str, Path]]]) -> None:
        """Reject or queue each entry; each section's dict gives a body its first version's directory."""
        shared: list[list[_Entry]] = []
        alone: list[_Entry] = []
        for ctx, workdirs in sections:
            sid = ctx.manifest.section_id
            self._sections[sid] = ctx
            mine = []
            for body, workdir in workdirs.items():
                entry = (sid, body)
                self._workdirs[entry] = workdir
                name = reserved_name_in(body)
                if name is not None and body != ctx.section.body_text:
                    reason = ReservedName(f"candidate code uses reserved {name!r}")
                    self._drivers[entry] = (reason, ())
                elif can_share_driver(body):
                    mine.append(entry)
                else:
                    alone.append(entry)
            if mine:
                shared.append(mine)
        codes = [self._sections[entries[0][0]].job.support_code for entries in shared]
        for members in _deal(codes, BUILD_WORKERS):
            self._start([entry for n in members for entry in shared[n]], split=True)
        for entry in alone:
            self._start([entry])

    def driver(self, sid: str, body: str) -> tuple[GeneratedSource | ReservedName, tuple[str, ...]]:
        """The driver an entry ends up in and the argv that runs it, once no compile is pending."""
        wait_idle()
        return self._drivers[(sid, body)]

    def _start(self, entries: list[_Entry], split: bool = False) -> None:
        # One driver for entries, each section's contiguous; _failed(entries, failure, split)
        # if it holds several and fails.
        if not entries:
            return
        bodies: dict[str, list[str]] = {}
        for sid, body in entries:
            bodies.setdefault(sid, []).append(body)
        (first, *more) = [(held, self._sections[sid].manifest) for sid, held in bodies.items()]
        driver = generate_replay_driver(
            *first,
            self._config.timing_repeats,
            self._sections[entries[0][0]].job.support_code,
            more,
        )
        alone = len(entries) == 1
        for k, entry in enumerate(entries):
            self._drivers[entry] = (driver, (str(k),))
        hook = None if alone else (lambda failure: self._failed(entries, failure, split))
        workdir = self._workdirs[entries[0]]
        try:
            start_build(driver, replace(self._config.build, workdir=workdir), hook)
        except OSError as exc:
            log.warning("cannot queue a replay driver in %s: %s", workdir, exc)
            if not alone:
                for entry in entries:
                    self._start([entry])

    def _failed(self, entries: list[_Entry], failure: CompileFailure, split: bool) -> None:
        # split (a first shared driver): the named entries go alone and the
        # rest share a new driver.  With none named, or not split, all go alone.
        named = {entries[k] for k in bodies_named_in(failure.stderr) if k < len(entries)}
        rest = [entry for entry in entries if entry not in named] if split and named else []
        for entry in entries:
            if entry not in rest:
                self._start([entry])
        self._start(rest)


def _queue_section(
    ctx: _SectionContext,
    config: CampaignConfig,
    outdir: Path,
    experiment: ExperimentPlan,
    rows: dict[tuple, CandidateRow],
    existing: dict[tuple, OutcomeRecord],
) -> tuple[list[tuple[Origin, str | None]], dict[str, Path]]:
    """Queue a loaded section's capture; return its versions and the bodies that need a driver.

    Each version, serial first, is (origin, code).  Every version with code
    and no record puts its body in the returned dict, with the directory of
    the first such version, and the capture is queued when any version has no
    record.  Raises CaptureFailure when its capture cannot be queued.
    """
    sid = ctx.manifest.section_id
    versions = []
    workdirs: dict[str, Path] = {}
    for origin in (Origin(tool_id=SERIAL_TOOL_ID), *experiment.candidate_origins):
        row = rows.get(_key(sid, origin))
        is_serial = origin.tool_id == SERIAL_TOOL_ID
        code = ctx.section.body_text if is_serial else (row.code if row is not None else None)
        if code is not None and _key(sid, origin) not in existing:
            workdirs.setdefault(code, _version_dir(outdir, sid, origin))
        versions.append((origin, code))
    if any(_key(sid, origin) not in existing for origin, _ in versions):
        try:
            start_build(ctx.capture, replace(config.build, workdir=_capture_dir(outdir, sid)))
        except OSError as exc:
            raise CaptureFailure(f"capture build failed for {sid!r}: {exc}") from exc
    return versions, workdirs


def execute(experiment: ExperimentPlan, config: CampaignConfig, outdir: Path) -> list[OutcomeRecord]:
    """Capture, produce and validate everything a plan describes.

    Each section is read once (_produce), before any candidate runs, so no
    file a candidate writes can change its serial code or capture.  Once the
    candidates exist, every section's capture is queued (_queue_section) and
    then the campaign's drivers (_Drivers), so the first build() call waits
    for every compile, replacements of failed shared drivers included, and
    later ones are memo hits.  A section is
    captured afresh just before its versions run, and not at all when every
    version has a record, and again before the next version that runs after
    one that changed its input.  Sections whose reference capture fails are
    skipped (and logged), and a failed capture again stops its section;
    all other failures become per-version statuses.
    Speedups are taken only against a serial that Passed.  Returns records
    in deterministic order: sections in plan order, the serial baseline
    first, then candidates by (tool, strategy, attempt).  Existing
    records.jsonl rows are reused, new ones appended.
    """
    if not experiment.jobs:
        raise EmptyCampaign("experiment plan lists no sections")
    outdir = _ensure_dir(outdir)
    records_path = outdir / "records.jsonl"
    existing = {r.key(): r for r in _load_jsonl(records_path, OutcomeRecord.from_dict)}
    loaded, rows = _produce(config, outdir, experiment)
    queued = []
    for ctx in loaded:
        try:
            queued.append((ctx, *_queue_section(ctx, config, outdir, experiment, rows, existing)))
        except CaptureFailure as exc:
            log.warning("section skipped: %s", exc)
    drivers = _Drivers(config)
    drivers.queue([(ctx, workdirs) for ctx, _, workdirs in queued])
    records: list[OutcomeRecord] = []

    for ctx, versions, _ in queued:
        sid = ctx.manifest.section_id
        recorded = [existing.get(_key(sid, origin)) for origin, _ in versions]
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
        input_changed = False
        for (origin, code), record in zip(versions, recorded):
            is_serial = origin.tool_id == SERIAL_TOOL_ID
            if record is None:
                status, median, wall = ValidationStatus.EXTRACTION_ERROR, None, None
                if code is not None and input_changed:
                    try:
                        ctx = _capture(ctx, config, outdir)
                    except CaptureFailure as exc:
                        log.warning("section stopped: %s", exc)
                        break
                    input_changed = False
                if code is not None:
                    driver, argv = drivers.driver(sid, code)
                    scratch = _version_dir(outdir, sid, origin)
                    status, median, wall, input_changed = _validate_code(
                        driver, argv, code, ctx, config, scratch, timeout_s
                    )
                baseline = median if is_serial else serial_median
                record = _make_record(ctx, origin, code, status, median, baseline, wall)
                _append_jsonl(records_path, record.to_dict())
            records.append(record)
            if not is_serial:
                continue
            if record.status is ValidationStatus.PASS:
                serial_median = record.median_time_ns
            else:
                log.warning(
                    "serial baseline for %r did not validate (%s); speedups unavailable",
                    sid,
                    record.status.value,
                )
            if record.run_wall_ns is not None:
                timeout_s = _candidate_timeout(config, record.run_wall_ns)
    return records
