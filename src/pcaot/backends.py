"""Optimization backends: LLM prompting over HTTP, compiler drivers, mocks.

Three prompting strategies are supported; their wording is fixed and a
rendered prompt is always the strategy text, one blank line, then the
section code.  The HTTP client speaks the chat-completions shape:

    POST {"model", "messages": [{"role": "user", "content"}], "temperature", "top_p"}
    -> choices[0].message.content

Credentials come from the PCAOT_LLM_API_KEY environment variable and never
from config files or argv.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import requests

from .errors import ParseError, PcaotError
from .instrument import C_TYPES
from .runner import ToolMissing
from .sections import START_PRAGMA, STOP_PRAGMA, StateManifest, extract_sections

API_KEY_ENV = "PCAOT_LLM_API_KEY"
DEFAULT_TEMPERATURE = 0.2
DEFAULT_TOP_P = 0.1
MAX_TRIES = 3


class PromptStrategy(Enum):
    IP = "IP"
    DIP = "DIP"
    COT = "CoT"


IP_PROMPT = "Given the program below, improve its performance using OpenMP."

DIP_PROMPT = (
    "Given the C program below, check for read after write and write after read "
    "dependencies among iterations, if there are no dependencies among iterations of the "
    "outermost loop, parallelize this loop using OpenMP directives. If dependencies are "
    "found in the outermost loop but there exist inner loops that can be parallelized "
    "without violating data dependencies, then parallelize those inner loops instead."
)

COT_REASONING_SUFFIX = (
    " As you work through the program, explain each step of your reasoning process to "
    "ensure clarity and correctness in your optimization decisions. Think step by step."
)

COT_PROMPT = DIP_PROMPT + COT_REASONING_SUFFIX

PROMPT_TEXT = {
    PromptStrategy.IP: IP_PROMPT,
    PromptStrategy.DIP: DIP_PROMPT,
    PromptStrategy.COT: COT_PROMPT,
}


class TransportError(PcaotError):
    """Connection problems or unusable HTTP responses, after retries."""


class AuthError(PcaotError):
    """Missing or rejected credentials; never retried."""


class RateLimited(PcaotError):
    """HTTP 429 persisted through all retries."""


class EmptyResponse(PcaotError):
    """The backend returned nothing extractable."""


class ToolFailure(PcaotError):
    """A compiler backend exited nonzero."""

    def __init__(self, message: str, stderr: str = "") -> None:
        super().__init__(message)
        self.stderr = stderr


class OutputMissing(PcaotError):
    """A compiler backend produced no readable, section-carrying output."""


@dataclass(frozen=True)
class SamplingParams:
    model: str
    temperature: float = DEFAULT_TEMPERATURE
    top_p: float = DEFAULT_TOP_P

    def __post_init__(self) -> None:
        if not all(isinstance(v, (int, float)) for v in (self.temperature, self.top_p)):
            raise ParseError("temperature and top_p must be numbers")
        if not (0.0 <= self.temperature <= 2.0):
            raise ParseError("temperature must lie in [0, 2]")
        if not (0.0 < self.top_p <= 1.0):
            raise ParseError("top_p must lie in (0, 1]")


@dataclass(frozen=True)
class LlmEndpointConfig:
    """A real HTTP chat-completions backend."""

    tool_id: str
    endpoint: str
    params: SamplingParams


@dataclass(frozen=True)
class OptimizationRequest:
    section_code: str
    strategy: PromptStrategy | None = None
    attempt: int = 1

    def __post_init__(self) -> None:
        if self.attempt < 1:
            raise ParseError("attempt numbers start at 1")


@dataclass(frozen=True)
class Origin:
    """Which tool produced a candidate, and for LLMs, under what settings."""

    tool_id: str
    strategy: PromptStrategy | None = None
    attempt: int | None = None

    def __post_init__(self) -> None:
        if (self.strategy is None) != (self.attempt is None):
            raise ParseError("strategy and attempt are either both set or both unset")


@dataclass(frozen=True)
class CandidateVersion:
    """One candidate section body plus its provenance.

    LLM-origin candidates carry strategy, attempt and the raw response;
    compiler-origin candidates carry none of the three.
    """

    origin: Origin
    code: str
    raw_response: str | None = None

    def __post_init__(self) -> None:
        llm_fields = (self.origin.strategy, self.origin.attempt, self.raw_response)
        if any(f is not None for f in llm_fields) and any(f is None for f in llm_fields):
            raise ParseError(
                "strategy, attempt and raw_response are all present (LLM origin) "
                "or all absent (compiler origin)"
            )


def render_prompt(strategy: PromptStrategy, section_code: str) -> str:
    """Fixed strategy text, a blank line, then the section code."""
    return PROMPT_TEXT[strategy] + "\n\n" + section_code


_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def _strip_blank_edges(text: str) -> str:
    lines = text.splitlines()
    while lines and not lines[0].strip():
        lines.pop(0)
    while lines and not lines[-1].strip():
        lines.pop()
    return "\n".join(lines)


def extract_code(response_text: str) -> str:
    """Pull candidate code out of an LLM response.

    If fenced blocks exist, the longest block containing "for" or
    "#pragma omp" wins (falling back to the longest block when none
    qualifies); otherwise the whole response is treated as code.  Leading
    and trailing blank lines are stripped.  Raises EmptyResponse when
    nothing remains.
    """
    if not response_text.strip():
        raise EmptyResponse("backend response is empty")
    blocks = _FENCE_RE.findall(response_text)
    if blocks:
        relevant = [b for b in blocks if "for" in b or "#pragma omp" in b]
        pool = relevant if relevant else blocks
        code = max(pool, key=len)
    else:
        code = response_text
    code = _strip_blank_edges(code)
    if not code.strip():
        raise EmptyResponse("backend response contains no code")
    return code


def request_llm(
    request: OptimizationRequest,
    params: SamplingParams,
    endpoint: str,
    credentials: str | None = None,
    tool_id: str | None = None,
    timeout_s: float = 120.0,
    max_tries: int = MAX_TRIES,
    backoff_s: float = 0.5,
) -> CandidateVersion:
    """Send one prompt to a chat-completions endpoint and extract the code.

    Connection errors, 5xx and 429 are retried with exponential backoff up
    to max_tries total tries; 401/403 raise AuthError immediately, other
    4xx raise TransportError immediately.
    """
    if request.strategy is None:
        raise ValueError("LLM requests need a prompt strategy")
    key = credentials if credentials is not None else os.environ.get(API_KEY_ENV, "")
    if not key:
        raise AuthError(f"no API key: set {API_KEY_ENV} or pass credentials")
    body = {
        "model": params.model,
        "messages": [{"role": "user", "content": render_prompt(request.strategy, request.section_code)}],
        "temperature": params.temperature,
        "top_p": params.top_p,
    }
    headers = {"Authorization": f"Bearer {key}"}
    last_error: PcaotError | None = None
    for attempt in range(max_tries):
        if attempt:
            time.sleep(backoff_s * 2 ** (attempt - 1))
        try:
            response = requests.post(endpoint, json=body, headers=headers, timeout=timeout_s)
        except requests.RequestException as exc:
            last_error = TransportError(f"request to {endpoint} failed: {exc}")
            continue
        if response.status_code in (401, 403):
            raise AuthError(f"endpoint rejected credentials with HTTP {response.status_code}")
        if response.status_code == 429:
            last_error = RateLimited("endpoint rate-limited the request")
            continue
        if response.status_code >= 500:
            last_error = TransportError(f"endpoint returned HTTP {response.status_code}")
            continue
        if response.status_code != 200:
            raise TransportError(f"endpoint returned HTTP {response.status_code}")
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion response: {exc}") from exc
        if not isinstance(content, str):
            raise TransportError("completion content is not text")
        code = extract_code(content)
        return CandidateVersion(
            origin=Origin(
                tool_id=tool_id or params.model,
                strategy=request.strategy,
                attempt=request.attempt,
            ),
            code=code,
            raw_response=content,
        )
    assert last_error is not None
    raise last_error


@dataclass(frozen=True)
class CompilerDriverConfig:
    """How to invoke a source-to-source parallelizing compiler.

    command is a shell-style template over {src}, {out} and {workdir};
    output_path says where the transformed file lands (default: the {out}
    path the command was given).  Both templates are checked when the
    config is built, so a broken one never fails midway through a campaign.
    """

    tool_id: str
    command: str
    output_path: str = "{out}"

    def __post_init__(self) -> None:
        if "{src}" not in self.command:
            raise ParseError("compiler backend command must contain {src}")
        fills = _template_fills(Path("."))
        try:
            shlex.split(self.command.format(**fills))
            self.output_path.format(**fills)
        except (AttributeError, IndexError, KeyError, ValueError) as exc:
            raise ParseError(f"compiler backend {self.tool_id!r} has a bad template: {exc!r}") from exc


def _template_fills(workdir: Path) -> dict[str, str]:
    """What {src}, {out} and {workdir} stand for in a compiler backend's templates."""
    return {
        "src": str(workdir / "input.c"),
        "out": str(workdir / "transformed.c"),
        "workdir": str(workdir),
    }


def wrap_section(section_code: str, manifest: StateManifest, support_code: str = "") -> str:
    """Embed a section in a minimal compilable translation unit.

    Manifest variables become file-scope definitions (arrays stay real
    arrays so dependence analysis sees their shape) and the pragmas are
    preserved so the transformed section can be re-extracted.
    """
    lines = ["#include <stdint.h>", "#include <math.h>", ""]
    for var in manifest.variables:
        dims = "".join(f"[{e}]" for e in var.extents)
        lines.append(f"{C_TYPES[var.elem_type]} {var.name}{dims};")
    if support_code.strip():
        lines.append("")
        lines.append(support_code.rstrip("\n"))
    lines.append("")
    lines.append("int main(void) {")
    lines.append(f"{START_PRAGMA} id={manifest.section_id}")
    lines.append(section_code)
    lines.append(f"{STOP_PRAGMA} id={manifest.section_id}")
    lines.append("    return 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def request_compiler(
    request: OptimizationRequest,
    driver: CompilerDriverConfig,
    manifest: StateManifest,
    support_code: str = "",
    *,
    workdir: Path,
) -> CandidateVersion:
    """Run a compiler backend over the wrapped section and re-extract it.

    The wrapped section is written to workdir/input.c (made if missing),
    and the backend runs in workdir, where its files stay; a relative
    workdir is resolved first, so the templates' paths hold there.  Raises
    ToolMissing, ToolFailure (nonzero exit) or OutputMissing (no output
    file, or output without an intact section fence).  Output that is not
    UTF-8 is decoded with replacement characters.
    """
    workdir = Path(workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    fills = _template_fills(workdir)
    Path(fills["src"]).write_text(
        wrap_section(request.section_code, manifest, support_code), encoding="utf-8"
    )
    command = shlex.split(driver.command.format(**fills))
    try:
        proc = subprocess.run(
            command,
            cwd=workdir,
            capture_output=True,
            text=True,
            errors="replace",
            check=False,
        )
    except FileNotFoundError as exc:
        raise ToolMissing(f"compiler backend not found: {command[0]!r}") from exc
    if proc.returncode != 0:
        raise ToolFailure(
            f"{driver.tool_id} exited with code {proc.returncode}", stderr=proc.stderr
        )
    produced = Path(driver.output_path.format(**fills))
    if not produced.is_file():
        raise OutputMissing(f"{driver.tool_id} produced no output at {produced}")
    text = produced.read_text(encoding="utf-8", errors="replace")
    try:
        found = extract_sections(text, str(produced))
    except PcaotError as exc:
        raise OutputMissing(f"{driver.tool_id} output has broken section fences: {exc}") from exc
    match = [s for s in found if s.id == manifest.section_id] or found
    if not match:
        raise OutputMissing(f"{driver.tool_id} output carries no experimental section")
    return CandidateVersion(origin=Origin(tool_id=driver.tool_id), code=match[0].body_text)


@dataclass(frozen=True)
class MockLlm:
    """Table-driven offline stand-in for an LLM backend.

    Responses are looked up by "<section_id>/<strategy>/<attempt>", then
    "<section_id>/<strategy>", then "<section_id>", then "*"; with no table
    hit the section code comes back unchanged in a fenced block.  Fully
    deterministic, no network.
    """

    tool_id: str
    responses: Mapping[str, str] = field(default_factory=dict)

    def complete(
        self,
        section_id: str,
        strategy: PromptStrategy,
        attempt: int,
        section_code: str,
    ) -> str:
        for key in (
            f"{section_id}/{strategy.value}/{attempt}",
            f"{section_id}/{strategy.value}",
            section_id,
            "*",
        ):
            if key in self.responses:
                return self.responses[key]
        return f"```c\n{section_code}\n```"

    def request(
        self, request: OptimizationRequest, section_id: str
    ) -> CandidateVersion:
        if request.strategy is None:
            raise ValueError("mock LLM requests need a prompt strategy")
        raw = self.complete(section_id, request.strategy, request.attempt, request.section_code)
        return CandidateVersion(
            origin=Origin(tool_id=self.tool_id, strategy=request.strategy, attempt=request.attempt),
            code=extract_code(raw),
            raw_response=raw,
        )
