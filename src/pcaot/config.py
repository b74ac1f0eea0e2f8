"""Campaign configuration, as load_campaign_config parses it from a JSON file."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .backends import (
    CompilerDriverConfig,
    LlmEndpointConfig,
    MockLlm,
    PromptStrategy,
    SamplingParams,
)
from .checkpoint import Tolerance
from .errors import ParseError, PcaotError
from .runner import DEFAULT_THREADS, BuildSpec
from .sections import load_manifest_file

SERIAL_TOOL_ID = "serial"


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


def _job_section_id(job: SectionJob) -> str | None:
    """The section id job's manifest names, or None when it cannot be read."""
    try:
        return load_manifest_file(job.manifest_path).section_id
    except (OSError, PcaotError):
        return None


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
