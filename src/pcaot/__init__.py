"""Validation and timing harness for tool-optimized code sections.

The pipeline: mark a region with ``#pragma experimental section start`` /
``stop`` pragmas, describe its live-in/live-out state in a manifest,
capture reference checkpoints from the original program, ask optimization
backends (LLMs, parallelizing compilers) for alternatives, then replay
every candidate against the captured input and compare its output state
under a numeric tolerance while timing it.

The package root re-exports the names the README and ``demos/`` use; the
rest lives in the submodules (``pcaot.sections``, ``pcaot.checkpoint``,
``pcaot.instrument``, ``pcaot.runner``, ``pcaot.backends``,
``pcaot.pattern``, ``pcaot.config``, ``pcaot.campaign``, ``pcaot.report``).
"""

from .backends import (
    MockLlm,
    OptimizationRequest,
    PromptStrategy,
    extract_code,
    render_prompt,
    request_llm,
)
from .campaign import execute, plan
from .checkpoint import (
    Checkpoint,
    Tolerance,
    VarRecord,
    compare,
    decode,
    encode,
    read_checkpoint_file,
)
from .config import load_campaign_config
from .errors import PcaotError
from .instrument import generate_capture_program, generate_replay_driver, output_checkpoint_name
from .pattern import PatternLabel, ValidationStatus, categorize, detect
from .report import aggregate, emit_reports
from .runner import BuildSpec, build, collect_timing, run
from .sections import extract_sections, load_manifest, load_manifest_file

__version__ = "0.1.0"

__all__ = [
    "BuildSpec", "Checkpoint", "MockLlm", "OptimizationRequest", "PatternLabel",
    "PcaotError", "PromptStrategy", "Tolerance", "ValidationStatus", "VarRecord",
    "aggregate", "build", "categorize", "collect_timing", "compare", "decode", "detect",
    "emit_reports", "encode", "execute", "extract_code", "extract_sections",
    "generate_capture_program", "generate_replay_driver", "load_campaign_config",
    "load_manifest", "load_manifest_file", "output_checkpoint_name", "plan",
    "read_checkpoint_file", "render_prompt", "request_llm", "run", "__version__",
]
