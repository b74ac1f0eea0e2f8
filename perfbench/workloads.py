"""Benchmark workloads: the bundled sample campaign and seeded synthetic ones.

Every synthetic workload is generated from a seed into a directory holding
C sources, state manifests, a campaign config with inline mock-LLM responses
and ``expected.json``, the (status, category) of every planned version.
The seed draws data constants, array sizes within narrow ranges and which
slot gets which response kind; the number of sections, their templates and
the count of each response kind are fixed per workload, so the cost of a
campaign barely moves between seeds.

Each response kind is built to have one verdict by construction:

    kind      what the mock LLM returns                       status
    plain     the section unchanged                           Pass
    par       "parallel for" on the outermost loop            Pass
    par_dyn   the same with schedule(dynamic, 16)             Pass
    ordered   "parallel for ordered" + "ordered" update       Pass
    syntax    the update statement loses its semicolon        CompileError
    arith     the update statement gains "+ 1"                NumericMismatch
    abort     abort() before the loop                         RuntimeError
    oob       a write 2^40 elements past the output array     RuntimeError
    noblock   prose with an empty code block                  ExtractionError

The category follows the paper's definitions: on a parallelizable section a
pass showing the expected pattern (PO) is ExpectedApplied, any other pass
UnexpectedCorrect, any failure Error; on a section with a loop-carried
dependence (DP) a clean pass without directives is CorrectlyRefused and
anything else IncorrectlyParallelized.

The reference outputs of synthetic sections are also computed here with
numpy, independently of the C code, so the captured reference can be
checked.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
SAMPLE_CONFIG = REPO_ROOT / "samples" / "campaign.json"

MOCK_TOOL = "mockllm"
COPY_TOOL = "copyc"
SERIAL_TOOL = "serial"
TOLERANCE = {"abs": 1e-9, "rel": 1e-6}
BUILD = {"compiler_cmd": "gcc {src} -o {out}", "flags": ["-O2", "-fopenmp", "-lm"]}

CTYPES = {"i8": "int8_t", "i32": "int32_t", "i64": "int64_t", "f32": "float", "f64": "double"}
DTYPES = {"i8": np.int8, "i32": np.int32, "i64": np.int64, "f32": np.float32, "f64": np.float64}

# Verdicts by response kind: (status, category on a parallelizable section,
# category on a DP section).
VERDICTS = {
    "plain": ("Pass", "UnexpectedCorrect", "CorrectlyRefused"),
    "par": ("Pass", "ExpectedApplied", None),
    "par_dyn": ("Pass", "ExpectedApplied", None),
    "ordered": ("Pass", None, "IncorrectlyParallelized"),
    "syntax": ("CompileError", "Error", "IncorrectlyParallelized"),
    "arith": ("NumericMismatch", "Error", "IncorrectlyParallelized"),
    "abort": ("RuntimeError", "Error", "IncorrectlyParallelized"),
    "oob": ("RuntimeError", "Error", "IncorrectlyParallelized"),
    "noblock": ("ExtractionError", "Error", "IncorrectlyParallelized"),
}

PROSE = {
    "plain": "The loop is already straightforward; leaving it as it is:",
    "par": "The iterations are independent, so the outer loop is shared among threads:",
    "par_dyn": "The iterations are independent; a dynamic schedule balances the work:",
    "ordered": "Parallelizing the loop while keeping the update in iteration order:",
    "syntax": "Parallelized version:",
    "arith": "Parallelized version with the update folded into one expression:",
    "abort": "Added a guard that stops on invalid state:",
    "oob": "Added a sentinel store after the output:",
    "noblock": "I could not find a safe rewrite of this loop.",
}


@dataclass(frozen=True)
class Section:
    """One generated section: program, manifest, body and numpy reference.

    loop_idx and stmt_idx index the outermost loop and the update statement
    in body; clauses are appended to an inserted "parallel for"; array is
    the array an out-of-range write targets.
    """

    sid: str
    source: str
    manifest: dict
    body: tuple[str, ...]
    loop_idx: int
    stmt_idx: int
    clauses: str
    array: str
    array_type: str
    reference: dict

    @property
    def parallelizable(self) -> bool:
        return self.manifest["parallelizable"]


@dataclass(frozen=True)
class Spec:
    """Shape of a synthetic workload; kinds are dealt over the LLM slots."""

    templates: tuple[str, ...]
    strategies: tuple[str, ...]
    attempts: int
    timing_repeats: int
    par_kinds: tuple[str, ...]
    dp_kinds: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    config: Path
    expected: list
    references: dict
    tolerance: dict


def _var(name: str, elem_type: str, extents=(), direction: str = "in") -> dict:
    return {"name": name, "elem_type": elem_type, "extents": list(extents), "direction": direction}


def _manifest(sid: str, variables: list, pattern: str | None) -> dict:
    doc = {"section_id": sid, "parallelizable": pattern is not None}
    if pattern is None:
        doc["non_parallel_reason"] = "DP"
    else:
        doc["expected_pattern"] = pattern
    doc["variables"] = variables
    return doc


def _program(sid: str, title: str, decls: list, init: list, body: list, result: str) -> str:
    lines = [
        f"/* Generated benchmark section: {title}. */",
        "#include <stdint.h>",
        "#include <stdio.h>",
        "",
        "int main(void) {",
        *(f"    {d}" for d in decls),
        *(f"    {s}" for s in init),
        f"#pragma experimental section start id={sid}",
        *body,
        f"#pragma experimental section stop id={sid}",
        f'    printf("%f\\n", (double)({result}));',
        "    return 0;",
        "}",
    ]
    return "\n".join(lines) + "\n"


def _odd(rng: random.Random, low: int, high: int) -> int:
    return rng.randrange(low, high, 2) | 1


def _map(sid: str, rng: random.Random) -> Section:
    t = rng.choice(("f32", "f64", "i32", "i64"))
    ct = CTYPES[t]
    n = rng.randrange(128, 513, 64)
    k1, k2, m = _odd(rng, 3, 97), rng.randrange(0, 50), rng.randrange(200, 1000)
    a = rng.choice((1.5, 0.25, 2.0, 3.0)) if t.startswith("f") else rng.randrange(2, 8)
    c = rng.randrange(1, 9)
    body = [
        f"    for (i = 0; i < {n}; i++) {{",
        f"        y[i] = a * x[i] + ({ct}){c};",
        "    }",
    ]
    source = _program(
        sid, "elementwise map",
        [f"static {ct} x[{n}], y[{n}];", "long i;", f"{ct} a = {a};"],
        [f"for (i = 0; i < {n}; i++) {{",
         f"    x[i] = ({ct})((i * {k1} + {k2}) % {m});",
         "    y[i] = 0;",
         "}"],
        body, f"y[{n - 1}]",
    )
    dt = DTYPES[t]
    x = ((np.arange(n, dtype=np.int64) * k1 + k2) % m).astype(dt)
    y = (dt(a) * x + dt(c)).astype(dt)
    variables = [_var("x", t, [n]), _var("y", t, [n], "out"), _var("a", t), _var("i", "i64")]
    return Section(sid, source, _manifest(sid, variables, "PO"), tuple(body), 0, 1, "",
                   "y", t, {"y": y})


def _reduce(sid: str, rng: random.Random) -> Section:
    n = rng.randrange(128, 513, 64)
    k1, k2, m = _odd(rng, 3, 97), rng.randrange(0, 50), rng.randrange(200, 1000)
    k3, k4, m2 = _odd(rng, 3, 97), rng.randrange(0, 50), rng.randrange(100, 400)
    body = [
        "    s = 0.0;",
        f"    for (i = 0; i < {n}; i++) {{",
        "        s += x[i] * w[i];",
        "    }",
    ]
    source = _program(
        sid, "dot-product reduction",
        [f"static double x[{n}];", f"static int32_t w[{n}];", "long i;", "double s = -1.0;"],
        [f"for (i = 0; i < {n}; i++) {{",
         f"    x[i] = (double)((i * {k1} + {k2}) % {m}) * 0.5;",
         f"    w[i] = (int32_t)((i * {k3} + {k4}) % {m2} - {m2 // 2});",
         "}"],
        body, "s",
    )
    idx = np.arange(n, dtype=np.int64)
    x = ((idx * k1 + k2) % m) * 0.5
    w = (idx * k3 + k4) % m2 - m2 // 2
    s = np.array(np.sum(x * w), dtype=np.float64)
    variables = [_var("x", "f64", [n]), _var("w", "i32", [n]), _var("i", "i64"),
                 _var("s", "f64", (), "out")]
    return Section(sid, source, _manifest(sid, variables, "PO"), tuple(body), 1, 2,
                   " reduction(+:s)", "x", "f64", {"s": s})


def _stencil(sid: str, rng: random.Random) -> Section:
    t = rng.choice(("i32", "i64"))
    ct = CTYPES[t]
    rows, cols = rng.randrange(16, 33, 4), rng.randrange(32, 65, 8)
    k1, k2, m = _odd(rng, 3, 97), rng.randrange(0, 50), rng.randrange(200, 1000)
    body = [
        f"    for (i = 1; i < {rows - 1}; i++) {{",
        f"        for (j = 0; j < {cols}; j++) {{",
        "            v[i][j] = u[i - 1][j] + u[i + 1][j] - 2 * u[i][j];",
        "        }",
        "    }",
    ]
    source = _program(
        sid, "2-D stencil",
        [f"static {ct} u[{rows}][{cols}], v[{rows}][{cols}];", "long i, j;"],
        [f"for (i = 0; i < {rows}; i++) {{",
         f"    for (j = 0; j < {cols}; j++) {{",
         f"        u[i][j] = ({ct})(((i * {cols} + j) * {k1} + {k2}) % {m} - {m // 2});",
         "    }",
         "}"],
        body, "v[1][0]",
    )
    ii, jj = np.indices((rows, cols), dtype=np.int64)
    u = ((ii * cols + jj) * k1 + k2) % m - m // 2
    v = np.zeros_like(u)
    v[1:-1] = u[:-2] + u[2:] - 2 * u[1:-1]
    variables = [_var("u", t, [rows, cols]), _var("v", t, [rows, cols], "out"),
                 _var("i", "i64"), _var("j", "i64")]
    return Section(sid, source, _manifest(sid, variables, "PO"), tuple(body), 0, 2,
                   " private(j)", "v", t, {"v": v.astype(DTYPES[t])})


def _chain(sid: str, rng: random.Random) -> Section:
    n = rng.randrange(128, 513, 64)
    k1, k2, m = _odd(rng, 3, 97), rng.randrange(0, 50), rng.randrange(200, 1000)
    c0 = rng.randrange(1, 100)
    body = [
        f"    for (i = 1; i < {n}; i++) {{",
        "        c[i] = c[i - 1] * 0.5 + b[i];",
        "    }",
    ]
    source = _program(
        sid, "first-order recurrence",
        [f"static double c[{n}], b[{n}];", "long i;"],
        [f"for (i = 0; i < {n}; i++) {{",
         f"    b[i] = (double)((i * {k1} + {k2}) % {m}) * 0.25;",
         "    c[i] = 0.0;",
         "}",
         f"c[0] = {c0}.0;"],
        body, f"c[{n - 1}]",
    )
    b = ((np.arange(n, dtype=np.int64) * k1 + k2) % m) * 0.25
    c = np.zeros(n)
    c[0] = c0
    for i in range(1, n):
        c[i] = c[i - 1] * 0.5 + b[i]
    variables = [_var("c", "f64", [n], "inout"), _var("b", "f64", [n]), _var("i", "i64")]
    return Section(sid, source, _manifest(sid, variables, None), tuple(body), 0, 1, "",
                   "c", "f64", {"c": c})


def _prefix(sid: str, rng: random.Random) -> Section:
    n = rng.randrange(128, 513, 64)
    k1, k2 = _odd(rng, 3, 97), rng.randrange(0, 50)
    c0 = rng.randrange(1, 100)
    body = [
        f"    for (i = 1; i < {n}; i++) {{",
        "        c[i] = c[i - 1] + b[i];",
        "    }",
    ]
    source = _program(
        sid, "prefix sum",
        [f"static int64_t c[{n}];", f"static int8_t b[{n}];", "long i;"],
        [f"for (i = 0; i < {n}; i++) {{",
         f"    b[i] = (int8_t)((i * {k1} + {k2}) % 200 - 100);",
         "    c[i] = 0;",
         "}",
         f"c[0] = {c0};"],
        body, f"c[{n - 1}]",
    )
    b = (np.arange(n, dtype=np.int64) * k1 + k2) % 200 - 100
    c = np.zeros(n, dtype=np.int64)
    c[0] = c0
    c[1:] = c0 + np.cumsum(b[1:])
    variables = [_var("c", "i64", [n], "inout"), _var("b", "i8", [n]), _var("i", "i64")]
    return Section(sid, source, _manifest(sid, variables, None), tuple(body), 0, 1, "",
                   "c", "i64", {"c": c})


def _grid(sid: str, rng: random.Random) -> Section:
    rows, cols = 768, 1024
    k1, k2, k3, m = _odd(rng, 3, 97), _odd(rng, 3, 97), rng.randrange(0, 50), rng.randrange(1000, 4000)
    k4, k5 = _odd(rng, 3, 97), _odd(rng, 3, 97)
    scale = rng.choice((1.5, 0.75, 2.5))
    body = [
        f"    for (i = 0; i < {rows}; i++) {{",
        f"        for (j = 0; j < {cols}; j++) {{",
        "            g[i][j] = (float)(a[i][j] * scale) + (float)mask[i][j];",
        "        }",
        "    }",
    ]
    source = _program(
        sid, "2-D scale and mask",
        [f"static double a[{rows}][{cols}];", f"static int8_t mask[{rows}][{cols}];",
         f"static float g[{rows}][{cols}];", "long i, j;", f"double scale = {scale};"],
        [f"for (i = 0; i < {rows}; i++) {{",
         f"    for (j = 0; j < {cols}; j++) {{",
         f"        a[i][j] = (double)((i * {k1} + j * {k2} + {k3}) % {m}) * 0.125;",
         f"        mask[i][j] = (int8_t)((i * {k4} + j * {k5}) % 200 - 100);",
         "    }",
         "}"],
        body, f"g[{rows - 1}][{cols - 1}]",
    )
    ii, jj = np.indices((rows, cols), dtype=np.int64)
    a = ((ii * k1 + jj * k2 + k3) % m) * 0.125
    mask = (ii * k4 + jj * k5) % 200 - 100
    g = (a * scale).astype(np.float32) + mask.astype(np.float32)
    variables = [_var("a", "f64", [rows, cols]), _var("mask", "i8", [rows, cols]),
                 _var("g", "f32", [rows, cols], "out"), _var("scale", "f64"),
                 _var("i", "i64"), _var("j", "i64")]
    return Section(sid, source, _manifest(sid, variables, "PO"), tuple(body), 0, 2,
                   " private(j)", "g", "f32", {"g": g})


def _accumulate(sid: str, rng: random.Random) -> Section:
    n = 1 << 20
    k1, k2, k3, k4, k5 = (_odd(rng, 3, 97) for _ in range(5))
    m = rng.randrange(1000, 4000)
    body = [
        f"    for (i = 0; i < {n}; i++) {{",
        "        acc[i] += (int64_t)c[i] * w[i];",
        "    }",
    ]
    source = _program(
        sid, "widening multiply-accumulate",
        [f"static int8_t c[{n}];", f"static int32_t w[{n}];", f"static int64_t acc[{n}];",
         "long i;"],
        [f"for (i = 0; i < {n}; i++) {{",
         f"    c[i] = (int8_t)((i * {k1} + {k2}) % 250 - 125);",
         f"    w[i] = (int32_t)((i * {k3} + {k4}) % {m} - {m // 2});",
         f"    acc[i] = (i * {k5}) % 1000;",
         "}"],
        body, f"acc[{n - 1}]",
    )
    idx = np.arange(n, dtype=np.int64)
    c = (idx * k1 + k2) % 250 - 125
    w = (idx * k3 + k4) % m - m // 2
    acc = (idx * k5) % 1000 + c * w
    variables = [_var("c", "i8", [n]), _var("w", "i32", [n]),
                 _var("acc", "i64", [n], "inout"), _var("i", "i64")]
    return Section(sid, source, _manifest(sid, variables, "PO"), tuple(body), 0, 1, "",
                   "acc", "i64", {"acc": acc})


TEMPLATES = {
    "map": _map,
    "reduce": _reduce,
    "stencil": _stencil,
    "chain": _chain,
    "prefix": _prefix,
    "grid": _grid,
    "accumulate": _accumulate,
}

SPECS = {
    # Builds and per-version fixed cost dominate: many small sections, all
    # three strategies x two attempts plus copyc.  The response mix is
    # synthetic, not taken from the paper's figures: every failure kind
    # occurs, and 20 of the 36 LLM responses (56%) fail or parallelize a DP
    # loop, so that failing builds weigh in as well as passing ones.
    "many_small": Spec(
        templates=("map", "map", "reduce", "stencil", "chain", "prefix"),
        strategies=("IP", "DIP", "CoT"),
        attempts=2,
        timing_repeats=3,
        par_kinds=("par",) * 6 + ("par_dyn",) * 3 + ("plain",) * 3 + ("noblock",) * 2
        + ("syntax",) * 4 + ("arith",) * 3 + ("abort",) * 2 + ("oob",),
        dp_kinds=("plain",) * 4 + ("ordered",) * 4 + ("syntax",) * 2 + ("arith", "noblock"),
    ),
    # Checkpoint traffic dominates: 20 MiB of input and 11 MiB of output state
    # over two sections, few versions, five timing repeats, light bodies.
    "big_state": Spec(
        templates=("grid", "accumulate"),
        strategies=("IP", "DIP"),
        attempts=1,
        timing_repeats=5,
        par_kinds=("par", "par_dyn", "plain", "arith"),
        dp_kinds=(),
    ),
    # Smallest end-to-end campaign, for the benchmark's own tests.
    "tiny": Spec(
        templates=("map", "prefix"),
        strategies=("IP", "DIP"),
        attempts=1,
        timing_repeats=2,
        par_kinds=("par", "abort"),
        dp_kinds=("ordered", "noblock"),
    ),
}

WORKLOADS = ("sample", *SPECS)


def _insert(lines: list, idx: int, text: str) -> None:
    indent = lines[idx][: len(lines[idx]) - len(lines[idx].lstrip())]
    lines.insert(idx, indent + text)


def response_code(section: Section, kind: str) -> str:
    """The section body as rewritten for one response kind."""
    lines = list(section.body)
    stmt = lines[section.stmt_idx]
    if kind == "syntax":
        lines[section.stmt_idx] = stmt.rstrip(";")
    elif kind == "arith":
        lines[section.stmt_idx] = stmt[:-1] + " + 1;"
    if kind == "ordered":
        _insert(lines, section.stmt_idx, "#pragma omp ordered")
        _insert(lines, section.loop_idx, "#pragma omp parallel for ordered")
    elif kind in ("par", "syntax", "arith") and section.parallelizable:
        _insert(lines, section.loop_idx, "#pragma omp parallel for" + section.clauses)
    elif kind == "par_dyn":
        _insert(lines, section.loop_idx,
                "#pragma omp parallel for schedule(dynamic, 16)" + section.clauses)
    elif kind == "abort":
        _insert(lines, 0, "abort();")
    elif kind == "oob":
        _insert(lines, 0, f"(({CTYPES[section.array_type]} volatile *){section.array})"
                          "[1L << 40] = 0;")
    return "\n".join(lines)


def response_text(section: Section, kind: str) -> str:
    if kind == "noblock":
        return PROSE[kind] + "\n\n```c\n```\n"
    return f"{PROSE[kind]}\n\n```c\n{response_code(section, kind)}\n```\n"


def _row(sid: str, tool: str, strategy, attempt, verdict: tuple) -> dict:
    return {"section_id": sid, "tool": tool, "strategy": strategy, "attempt": attempt,
            "status": verdict[0], "category": verdict[1]}


def _verdict(section: Section, kind: str) -> tuple:
    status, par_category, dp_category = VERDICTS[kind]
    category = par_category if section.parallelizable else dp_category
    if category is None:
        raise ValueError(f"response kind {kind!r} does not apply to section {section.sid!r}")
    return status, category


def _campaign_threads() -> int:
    """Two OpenMP threads, or one on a single-core host."""
    return min(2, len(os.sched_getaffinity(0)))


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def generate_synthetic(name: str, seed: int, outdir: Path) -> Workload:
    spec = SPECS[name]
    rng = random.Random(f"{name}:{seed}")
    outdir.mkdir(parents=True, exist_ok=True)
    sections = [TEMPLATES[t](f"s{k + 1}_{t}", rng) for k, t in enumerate(spec.templates)]
    slots = [(s, a) for s in spec.strategies for a in range(1, spec.attempts + 1)]
    decks = {True: list(spec.par_kinds), False: list(spec.dp_kinds)}
    for deck in decks.values():
        rng.shuffle(deck)
    for flag, deck in decks.items():
        wanted = sum(s.parallelizable is flag for s in sections) * len(slots)
        if len(deck) != wanted:
            raise ValueError(f"{name}: {len(deck)} response kinds for {wanted} slots")

    responses, expected, entries = {}, [], []
    for section in sections:
        _write(outdir / f"{section.sid}.c", section.source)
        _write(outdir / f"{section.sid}.manifest.json", json.dumps(section.manifest, indent=2) + "\n")
        entries.append({"source": f"{section.sid}.c", "manifest": f"{section.sid}.manifest.json"})
        plain = _verdict(section, "plain")
        expected.append(_row(section.sid, SERIAL_TOOL, None, None, plain))
        expected.append(_row(section.sid, COPY_TOOL, None, None, plain))
        for strategy, attempt in slots:
            kind = decks[section.parallelizable].pop()
            responses[f"{section.sid}/{strategy}/{attempt}"] = response_text(section, kind)
            expected.append(_row(section.sid, MOCK_TOOL, strategy, attempt, _verdict(section, kind)))
    config = {
        "sections": entries,
        "llm_backends": [{"kind": "mock", "tool_id": MOCK_TOOL, "responses": responses}],
        "compiler_backends": [{"tool_id": COPY_TOOL, "command": "cp {src} {out}"}],
        "strategies": list(spec.strategies),
        "attempts": spec.attempts,
        "timing_repeats": spec.timing_repeats,
        "tolerance": TOLERANCE,
        "build": BUILD,
        "threads": _campaign_threads(),
    }
    config_path = outdir / "campaign.json"
    _write(config_path, json.dumps(config, indent=2, sort_keys=True) + "\n")
    _write(outdir / "expected.json", json.dumps(expected, indent=2) + "\n")
    references = {s.sid: s.reference for s in sections}
    return Workload(config_path, expected, references, TOLERANCE)


def _sample_expected() -> list:
    # The bundled mock responses put "parallel for" on the outermost loop of
    # vecscale and sumsqrt (their expected pattern, PO) and leave chain_dp's
    # loop-carried recurrence untouched; copyc and the serial baseline pass
    # the original code through.
    rows = []
    for sid, llm_category, plain_category in (
        ("vecscale", "ExpectedApplied", "UnexpectedCorrect"),
        ("sumsqrt", "ExpectedApplied", "UnexpectedCorrect"),
        ("chain_dp", "CorrectlyRefused", "CorrectlyRefused"),
    ):
        rows.append(_row(sid, SERIAL_TOOL, None, None, ("Pass", plain_category)))
        rows.append(_row(sid, COPY_TOOL, None, None, ("Pass", plain_category)))
        for strategy in ("IP", "DIP", "CoT"):
            rows.append(_row(sid, MOCK_TOOL, strategy, 1, ("Pass", llm_category)))
    return rows


def generate(name: str, seed: int, outdir: Path) -> Workload:
    """Materialise a workload; the sample campaign ignores the seed."""
    if name == "sample":
        if not SAMPLE_CONFIG.is_file():
            raise FileNotFoundError(f"bundled campaign {SAMPLE_CONFIG} is missing")
        tolerance = json.loads(SAMPLE_CONFIG.read_text(encoding="utf-8"))["tolerance"]
        return Workload(SAMPLE_CONFIG, _sample_expected(), {}, tolerance)
    return generate_synthetic(name, seed, outdir)
