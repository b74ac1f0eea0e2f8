import json
import stat
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from pcaot.backends import (
    COT_PROMPT,
    COT_REASONING_SUFFIX,
    DIP_PROMPT,
    IP_PROMPT,
    AuthError,
    CompilerDriverConfig,
    EmptyResponse,
    MockLlm,
    OptimizationRequest,
    Origin,
    OutputMissing,
    PromptStrategy,
    RateLimited,
    SamplingParams,
    ToolFailure,
    TransportError,
    extract_code,
    render_prompt,
    request_compiler,
    request_llm,
)
from pcaot.errors import ParseError
from pcaot.runner import ToolMissing
from pcaot.sections import StateManifest, VariableSpec

SECTION = "for (i = 0; i < n; i++) a[i] = b[i];"


def test_render_prompt_template_law():
    for strategy, text in (
        (PromptStrategy.IP, IP_PROMPT),
        (PromptStrategy.DIP, DIP_PROMPT),
        (PromptStrategy.COT, COT_PROMPT),
    ):
        assert render_prompt(strategy, SECTION) == text + "\n\n" + SECTION


def test_cot_is_dip_plus_reasoning_suffix():
    assert COT_PROMPT == DIP_PROMPT + COT_REASONING_SUFFIX
    assert COT_PROMPT.endswith("Think step by step.")


def test_prompts_differ():
    assert len({IP_PROMPT, DIP_PROMPT, COT_PROMPT}) == 3
    assert "OpenMP" in DIP_PROMPT


def test_extract_code_prefers_relevant_fence():
    text = (
        "Intro\n```\nnot code, just text\n```\n"
        "```c\nfor (i = 0; i < 2; i++) x[i] = 0;\n```\n"
    )
    assert extract_code(text) == "for (i = 0; i < 2; i++) x[i] = 0;"


def test_extract_code_longest_relevant_wins():
    short = "for (;;) break;"
    long = "for (i = 0; i < n; i++) {\n    a[i] = 0;\n}"
    text = f"```\n{short}\n```\nmore\n```\n{long}\n```"
    assert extract_code(text) == long


def test_extract_code_pragma_counts_as_relevant():
    text = "```\n#pragma omp parallel\n{ work(); }\n```\n```\nwhile (1) { stop(); }\n```"
    assert extract_code(text) == "#pragma omp parallel\n{ work(); }"


def test_extract_code_falls_back_to_longest_block():
    text = "```\nshort\n```\n```\na much longer non-loop block\n```"
    assert extract_code(text) == "a much longer non-loop block"


def test_extract_code_without_fences_returns_text():
    # The whole text is the candidate; indentation is preserved, blank
    # edge lines are not.
    assert extract_code("\n  x = 1;\n\n") == "  x = 1;"


def test_extract_code_empty_raises():
    with pytest.raises(EmptyResponse):
        extract_code("")
    with pytest.raises(EmptyResponse):
        extract_code("```\n\n```")


def test_sampling_params_defaults_and_validation():
    params = SamplingParams(model="m")
    assert params.temperature == 0.2
    assert params.top_p == 0.1
    with pytest.raises(ParseError):
        SamplingParams(model="m", temperature=-0.1)
    with pytest.raises(ParseError):
        SamplingParams(model="m", top_p=0.0)


def test_origin_and_candidate_invariants():
    with pytest.raises(ParseError):
        Origin(tool_id="t", strategy=PromptStrategy.IP)  # attempt missing
    with pytest.raises(ParseError):
        OptimizationRequest(SECTION, PromptStrategy.IP, attempt=0)


# --- HTTP behaviour, against a local loopback server ---------------------


@contextmanager
def http_stub(responses):
    """Serve canned (status, body) pairs in order; record request bodies."""
    seen = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            seen.append(
                {
                    "body": json.loads(self.rfile.read(length)),
                    "auth": self.headers.get("Authorization"),
                }
            )
            status, body = responses[min(len(seen) - 1, len(responses) - 1)]
            payload = json.dumps(body).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions", seen
    finally:
        server.shutdown()
        thread.join(timeout=5)


OK_BODY = {"choices": [{"message": {"content": "```c\nfor (i = 0; i < 4; i++) a[i] = 0;\n```"}}]}


def _request(strategy=PromptStrategy.IP, attempt=1):
    return OptimizationRequest(SECTION, strategy, attempt=attempt)


def test_request_llm_happy_path(monkeypatch):
    monkeypatch.setenv("PCAOT_LLM_API_KEY", "sk-test")
    with http_stub([(200, OK_BODY)]) as (endpoint, seen):
        candidate = request_llm(_request(), SamplingParams(model="m1"), endpoint)
    assert candidate.code == "for (i = 0; i < 4; i++) a[i] = 0;"
    assert candidate.raw_response == OK_BODY["choices"][0]["message"]["content"]
    assert candidate.origin == Origin("m1", PromptStrategy.IP, 1)
    assert len(seen) == 1
    body = seen[0]["body"]
    assert body["model"] == "m1"
    assert body["temperature"] == 0.2
    assert body["top_p"] == 0.1
    assert body["messages"] == [
        {"role": "user", "content": render_prompt(PromptStrategy.IP, SECTION)}
    ]
    assert seen[0]["auth"] == "Bearer sk-test"


def test_request_llm_auth_error_is_immediate(monkeypatch):
    monkeypatch.setenv("PCAOT_LLM_API_KEY", "sk-test")
    with http_stub([(401, {"error": "no"})]) as (endpoint, seen):
        with pytest.raises(AuthError):
            request_llm(_request(), SamplingParams(model="m"), endpoint, backoff_s=0.01)
    assert len(seen) == 1


def test_request_llm_retries_5xx_then_fails(monkeypatch):
    monkeypatch.setenv("PCAOT_LLM_API_KEY", "sk-test")
    with http_stub([(503, {}), (503, {}), (503, {})]) as (endpoint, seen):
        with pytest.raises(TransportError):
            request_llm(_request(), SamplingParams(model="m"), endpoint, backoff_s=0.01)
    assert len(seen) == 3


def test_request_llm_recovers_after_5xx(monkeypatch):
    monkeypatch.setenv("PCAOT_LLM_API_KEY", "sk-test")
    with http_stub([(500, {}), (200, OK_BODY)]) as (endpoint, seen):
        candidate = request_llm(_request(), SamplingParams(model="m"), endpoint, backoff_s=0.01)
    assert candidate.code
    assert len(seen) == 2


def test_request_llm_rate_limited_after_retries(monkeypatch):
    monkeypatch.setenv("PCAOT_LLM_API_KEY", "sk-test")
    with http_stub([(429, {}), (429, {}), (429, {})]) as (endpoint, seen):
        with pytest.raises(RateLimited):
            request_llm(_request(), SamplingParams(model="m"), endpoint, backoff_s=0.01)
    assert len(seen) == 3


def test_request_llm_needs_key(monkeypatch):
    monkeypatch.delenv("PCAOT_LLM_API_KEY", raising=False)
    with pytest.raises(AuthError):
        request_llm(_request(), SamplingParams(model="m"), "http://127.0.0.1:1/unused")


def test_request_llm_credentials_argument_wins(monkeypatch):
    monkeypatch.delenv("PCAOT_LLM_API_KEY", raising=False)
    with http_stub([(200, OK_BODY)]) as (endpoint, seen):
        request_llm(_request(), SamplingParams(model="m"), endpoint, credentials="sk-arg")
    assert seen[0]["auth"] == "Bearer sk-arg"


def test_request_llm_malformed_response(monkeypatch):
    monkeypatch.setenv("PCAOT_LLM_API_KEY", "sk-test")
    with http_stub([(200, {"choices": []})]) as (endpoint, seen):
        with pytest.raises(TransportError):
            request_llm(_request(), SamplingParams(model="m"), endpoint)


def test_request_llm_requires_strategy(monkeypatch):
    monkeypatch.setenv("PCAOT_LLM_API_KEY", "sk-test")
    with pytest.raises(ValueError):
        request_llm(
            OptimizationRequest(SECTION, None, attempt=1),
            SamplingParams(model="m"),
            "http://127.0.0.1:1/unused",
        )


# --- compiler backends ----------------------------------------------------


MANIFEST = StateManifest(
    section_id="sec",
    variables=(
        VariableSpec("a", "f64", (16,), "out"),
        VariableSpec("b", "f64", (16,), "in"),
        VariableSpec("i", "i32", (), "in"),
        VariableSpec("n", "i32", (), "in"),
    ),
    parallelizable=True,
    expected_pattern="PO",
)


def test_compiler_config_requires_src_placeholder():
    with pytest.raises(ParseError):
        CompilerDriverConfig(tool_id="t", command="mytool")


@pytest.mark.parametrize(
    "command, output_path",
    [
        ("cp {src} {out} {bogus}", "{out}"),
        ("cp {src} '{out}", "{out}"),
        ("cp {src} {0}", "{out}"),
        ("cp {src} {out}", "{workdir}/{nowhere}"),
    ],
)
def test_compiler_config_rejects_broken_templates(command, output_path):
    with pytest.raises(ParseError):
        CompilerDriverConfig(tool_id="t", command=command, output_path=output_path)


def test_compiler_config_accepts_every_placeholder():
    CompilerDriverConfig(
        tool_id="t", command="tool -C {workdir} '{src}' -o {out}", output_path="{workdir}/x.c"
    )


def test_request_compiler_identity_roundtrip(tmp_path):
    driver = CompilerDriverConfig(tool_id="copyc", command="cp {src} {out}")
    candidate = request_compiler(_request(strategy=None), driver, MANIFEST, workdir=tmp_path)
    assert candidate.origin == Origin("copyc", None, None)
    assert candidate.code.strip() == SECTION
    assert candidate.raw_response is None


def test_request_compiler_tool_missing(tmp_path):
    driver = CompilerDriverConfig(tool_id="ghost", command="no-such-tool-a1b2 {src} -o {out}")
    with pytest.raises(ToolMissing):
        request_compiler(_request(strategy=None), driver, MANIFEST, workdir=tmp_path)


def test_request_compiler_tool_failure(tmp_path):
    script = tmp_path / "badtool"
    script.write_text("#!/bin/sh\necho boom >&2\nexit 9\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    driver = CompilerDriverConfig(tool_id="bad", command=f"{script} {{src}} {{out}}")
    with pytest.raises(ToolFailure) as excinfo:
        request_compiler(_request(strategy=None), driver, MANIFEST, workdir=tmp_path)
    assert "boom" in excinfo.value.stderr


def test_request_compiler_output_that_is_not_utf8(tmp_path):
    # A byte that is not UTF-8 in the tool's output file and on its stderr.
    script = tmp_path / "latin1tool"
    script.write_text('#!/bin/sh\ncp "$1" "$2"\nprintf "/* \\377 */\\n" >> "$2"\n')
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    driver = CompilerDriverConfig(tool_id="latin1", command=f"{script} {{src}} {{out}}")
    candidate = request_compiler(_request(strategy=None), driver, MANIFEST, workdir=tmp_path)
    assert candidate.code.strip() == SECTION
    failing = tmp_path / "latin1fail"
    failing.write_text('#!/bin/sh\nprintf "boom \\377" >&2\nexit 9\n')
    failing.chmod(failing.stat().st_mode | stat.S_IEXEC)
    driver = CompilerDriverConfig(tool_id="bad", command=f"{failing} {{src}} {{out}}")
    with pytest.raises(ToolFailure) as excinfo:
        request_compiler(_request(strategy=None), driver, MANIFEST, workdir=tmp_path)
    assert excinfo.value.stderr == "boom \ufffd"


def test_request_compiler_output_missing(tmp_path):
    script = tmp_path / "silent"
    script.write_text("#!/bin/sh\nexit 0\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    driver = CompilerDriverConfig(tool_id="silent", command=f"{script} {{src}} {{out}}")
    with pytest.raises(OutputMissing):
        request_compiler(_request(strategy=None), driver, MANIFEST, workdir=tmp_path)


def test_request_compiler_output_without_section(tmp_path):
    script = tmp_path / "stripper"
    script.write_text('#!/bin/sh\necho "int x;" > "$2"\n')
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    driver = CompilerDriverConfig(tool_id="strip", command=f"{script} {{src}} {{out}}")
    with pytest.raises(OutputMissing):
        request_compiler(_request(strategy=None), driver, MANIFEST, workdir=tmp_path)


def test_wrap_section_declares_manifest_state(tmp_path):
    from pcaot.backends import wrap_section

    wrapped = wrap_section(SECTION, MANIFEST)
    assert "#include <stdint.h>" in wrapped
    assert "double a[16];" in wrapped
    assert "#pragma experimental section start id=sec" in wrapped
    assert "#pragma experimental section stop id=sec" in wrapped
    assert SECTION in wrapped


# --- the mock -------------------------------------------------------------


def test_mock_lookup_chain():
    mock = MockLlm(
        tool_id="mock",
        responses={
            "s/IP/2": "exact",
            "s/IP": "strategy-level",
            "s": "section-level",
            "*": "wildcard",
        },
    )
    assert mock.complete("s", PromptStrategy.IP, 2, SECTION) == "exact"
    assert mock.complete("s", PromptStrategy.IP, 1, SECTION) == "strategy-level"
    assert mock.complete("s", PromptStrategy.DIP, 1, SECTION) == "section-level"
    assert mock.complete("other", PromptStrategy.DIP, 1, SECTION) == "wildcard"


def test_mock_identity_fallback():
    mock = MockLlm(tool_id="mock")
    answer = mock.complete("s", PromptStrategy.IP, 1, SECTION)
    assert SECTION in answer
    assert extract_code(answer) == SECTION


def test_mock_request_builds_candidate():
    mock = MockLlm(tool_id="mock", responses={"s": f"```c\n{SECTION}\n```"})
    candidate = mock.request(_request(strategy=PromptStrategy.DIP, attempt=2), "s")
    assert candidate.origin == Origin("mock", PromptStrategy.DIP, 2)
    assert candidate.code == SECTION
    assert candidate.raw_response == f"```c\n{SECTION}\n```"
