"""Outside-in tracer for one campaign, and the per-layer metrics of its spans.

The tracer replaces module attributes with timing wrappers, using the names
that calling code resolves at call time (``pcaot.campaign.build`` is the
``build`` that campaign code calls).  Nothing under ``src/`` knows about it.
A target that no longer exists raises EntryPointMissing at install time, and
a layer that recorded no span in a traced campaign fails the run, so moving
code behind new names cannot silently report a layer as zero.

Spans (name, layer, start, end, parent span, version id) are kept in memory
and written out when the campaign ends.  A span's self time is its duration
minus the part of it that its child spans cover; a thread with no open span
(the candidate-production pool) parents its spans to the root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

MIB = float(1 << 20)


class EntryPointMissing(RuntimeError):
    """A traced function is no longer reachable under its recorded name."""


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    metric: str
    start_ns: int
    end_ns: int = 0
    version: str | None = None
    failed: bool = False
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``attr`` may be ``Class.method``.

    metric is the per-layer metric its spans' self time is booked to.
    version and observe receive the call's bound arguments (and observe
    also the result, None when the call raised) and return the span's
    version id and extra attributes.
    """

    module: str
    attr: str
    layer: str
    metric: str
    version: Callable[[dict], str | None] = lambda args: None
    observe: Callable[[dict, object], dict] = lambda args, result: {}

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    ROOT = "campaign"

    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.spans: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []
        self._ids = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None

    def install(self) -> None:
        resolved = []
        for target in self.targets:
            try:
                owner = importlib.import_module(target.module)
                *path, leaf = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError) as exc:
                raise EntryPointMissing(f"traced entry point {target.name} is gone: {exc}") from exc
            if not callable(original):
                raise EntryPointMissing(f"traced entry point {target.name} is not callable")
            resolved.append((owner, leaf, original, target))
        for owner, leaf, original, target in resolved:
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, target))

    def uninstall(self) -> None:
        while self._originals:
            owner, leaf, original = self._originals.pop()
            setattr(owner, leaf, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, metric: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else self._root
        with self._lock:
            self._ids += 1
            span = Span(self._ids, parent, name, layer, metric, 0)
            self.spans.append(span)
        stack.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack().pop()

    def _wrap(self, fn, target: Target):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(target.attr, target.layer, target.metric)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.failed = True
                raise
            finally:
                self._close(span)
                bound = signature.bind(*args, **kwargs).arguments
                span.version = target.version(bound)
                span.attrs = target.observe(bound, result)

        return traced

    @contextlib.contextmanager
    def root(self):
        """The campaign's root span; threads with no open span parent to it."""
        span = self._open(self.ROOT, "campaign", "campaign.self_s")
        self._root = span.id
        try:
            yield span
        finally:
            self._close(span)
            self._root = None

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps([asdict(s) for s in self.spans]) + "\n", encoding="utf-8")


def load_spans(path: Path) -> list[Span]:
    return [Span(**doc) for doc in json.loads(Path(path).read_text(encoding="utf-8"))]


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered, reach = 0, span.start_ns
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start_ns):
            lo, hi = max(child.start_ns, reach), min(child.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.end_ns - span.start_ns - covered
    return result


# --- the campaign's entry points --------------------------------------------


def _version_from_dir(path) -> str | None:
    """sections/<sid>/candidates/<tool>__<strategy>__<attempt> -> sid/tool/strategy/attempt."""
    parts = Path(path).parts
    if "sections" not in parts:
        return None
    rest = list(parts[len(parts) - parts[::-1].index("sections"):])
    if len(rest) >= 3 and rest[1] == "candidates":
        rest = [rest[0], *rest[2].split("__")]
    return "/".join(rest) or None


def _section_of(key: str) -> Callable[[dict], str | None]:
    return lambda args: args[key].section_id


def _build_observe(args, result) -> dict:
    return {"bytes": len(args["source"].text.encode("utf-8"))}


def _run_observe(args, result) -> dict:
    # Capture programs and replay drivers are built as "capture" and "driver".
    failed = result is None or result.timed_out or result.exit_code != 0
    return {"capture": Path(args["binary"]).name == "capture", "run_failed": failed}


def _timing_observe(args, result) -> dict:
    if result is None:
        return {}
    samples = sorted(result.samples_ns)
    spread = (samples[-1] - samples[0]) / result.median_ns if result.median_ns else 0.0
    return {"body_ns": sum(samples), "spread": spread}


def _read_observe(args, result) -> dict:
    return {} if result is None else {"bytes": os.path.getsize(args["path"])}


CAMPAIGN_TARGETS = [
    Target("pcaot.campaign", "load_manifest_file", "sections", "sections.parse_s"),
    Target("pcaot.campaign", "extract_sections", "sections", "sections.parse_s"),
    Target("pcaot.campaign", "generate_capture_program", "instrument", "instrument.generate_s",
           version=lambda a: f"{a['manifest'].section_id}/capture"),
    Target("pcaot.campaign", "generate_replay_driver", "instrument", "instrument.generate_s",
           version=_section_of("manifest")),
    Target("pcaot.campaign", "build", "runner", "runner.build_s",
           version=lambda a: _version_from_dir(a["spec"].workdir), observe=_build_observe),
    # Capture runs are booked to runner.capture_run_s instead (layer_metrics).
    Target("pcaot.campaign", "run", "runner", "runner.driver_run_s",
           version=lambda a: _version_from_dir(Path(a["binary"]).parent), observe=_run_observe),
    Target("pcaot.campaign", "collect_timing", "runner", "runner.driver_run_s",
           observe=_timing_observe),
    Target("pcaot.checkpoint", "read_checkpoint_file", "checkpoint", "checkpoint.decode_s",
           version=lambda a: _version_from_dir(Path(a["path"]).parent), observe=_read_observe),
    Target("pcaot.checkpoint", "compare", "checkpoint", "checkpoint.compare_s",
           version=_section_of("manifest")),
    Target("pcaot.backends", "MockLlm.request", "backends", "backends.produce_s",
           version=lambda a: f"{a['section_id']}/{a['self'].tool_id}/"
                             f"{a['request'].strategy.value}/{a['request'].attempt}"),
    Target("pcaot.campaign", "request_llm", "backends", "backends.produce_s"),
    Target("pcaot.campaign", "request_compiler", "backends", "backends.produce_s",
           version=lambda a: f"{a['manifest'].section_id}/{a['driver'].tool_id}"),
    Target("pcaot.campaign", "detect", "pattern", "pattern.detect_s"),
    Target("pcaot.campaign", "has_any_directive", "pattern", "pattern.detect_s"),
    Target("pcaot.campaign", "categorize", "pattern", "pattern.detect_s",
           version=_section_of("manifest")),
    Target("pcaot.campaign", "aggregate", "campaign", "campaign.aggregate_s"),
    Target("pcaot.campaign", "emit_reports", "campaign", "campaign.report_s"),
]

LAYERS = ("sections", "instrument", "runner", "checkpoint", "backends", "pattern", "campaign")

# The metrics self times are booked to.  They partition the root span, so
# they sum to the traced campaign_s.
SELF_METRICS = tuple(dict.fromkeys(
    [t.metric for t in CAMPAIGN_TARGETS] + ["runner.capture_run_s", "campaign.self_s"]))


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile: the smallest value with q of the data at or below it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced campaign (times in s unless named _ms)."""
    missing = set(LAYERS) - {s.layer for s in spans}
    if missing:
        raise EntryPointMissing(f"layers recorded no span: {sorted(missing)}")
    selfs = self_times(spans)
    out = {name: 0.0 for name in SELF_METRICS}
    for span in spans:
        out["runner.capture_run_s" if span.attrs.get("capture") else span.metric] += (
            selfs[span.id] / 1e9)
    root = next(s for s in spans if s.name == Tracer.ROOT)
    out["campaign_s"] = (root.end_ns - root.start_ns) / 1e9

    def dur_ms(span):
        return (span.end_ns - span.start_ns) / 1e6

    builds = [s for s in spans if s.name == "build"]
    drivers = [s for s in spans if s.name == "run" and not s.attrs.get("capture")]
    timings = [s for s in spans if s.name == "collect_timing" and not s.failed]
    reads = [s for s in spans if s.name == "read_checkpoint_file" and not s.failed]
    produce = [s for s in spans if s.layer == "backends"]
    body_s = sum(s.attrs["body_ns"] for s in timings) / 1e9
    out.update({
        "instrument.driver_source_kb": sum(s.attrs["bytes"] for s in builds) / 1024,
        "runner.builds": len(builds),
        "runner.build_failed": sum(s.failed for s in builds),
        "runner.build_p50_ms": percentile([dur_ms(s) for s in builds], 0.5),
        "runner.build_p90_ms": percentile([dur_ms(s) for s in builds], 0.9),
        "runner.driver_runs": len(drivers),
        "runner.driver_run_p50_ms": percentile([dur_ms(s) for s in drivers], 0.5),
        "runner.driver_run_p90_ms": percentile([dur_ms(s) for s in drivers], 0.9),
        "runner.driver_body_s": body_s,
        "runner.driver_overhead_s": out["runner.driver_run_s"] - body_s,
        "runner.driver_body_share": body_s / out["runner.driver_run_s"] if drivers else 0.0,
        "runner.run_failed": sum(s.attrs.get("run_failed", True) for s in drivers),
        "checkpoint.decode_mb": sum(s.attrs["bytes"] for s in reads) / MIB,
        "checkpoint.compares": sum(s.name == "compare" for s in spans),
        "backends.requests": len(produce),
        "backends.extract_errors": sum(s.failed for s in produce),
        "quality.sample_spread_p50": percentile([s.attrs["spread"] for s in timings], 0.5),
    })
    return out
