"""C source generation: capture rewrites and standalone replay drivers.

Two generators share one helper block that reads and writes the checkpoint
wire format without any external dependency.  The helpers move each header
field and each payload in bulk, with one fwrite/fread in host byte order,
so they match the little-endian wire only on a little-endian host; on a
big-endian host they exit with a "pcaot:" message before touching a
checkpoint.  A capture inlines a static copy of the block, so it stays a
self-contained, insertion-only rewrite.  A replay driver only declares the
helpers (HELPER_DECLS) and is linked with one shared object compiled from
HELPER_SOURCE (runner.build), so the block is not re-optimised for every
version.  The generators:

* generate_capture_program rewrites the original program so that running it
  dumps the section's live-in state right after the start pragma and its
  live-out state right before the stop pragma.  The rewrite only inserts
  lines; every original line survives byte-identical.
* generate_replay_driver wraps one or more section bodies (original or
  candidate) of one section in a fresh main() that redeclares the manifest
  variables, reloads the captured input before each timed repeat, times the
  body that argv[1] numbers (body 0 with no argument) alone with a monotonic
  clock, prints one "PCAOT_TIME_NS <n>" line per repeat and writes the
  resulting output checkpoint.  Each body sits inside do { } while (0)
  between its own two clock reads, behind a #line marker that makes gcc
  name the body in its errors (bodies_named_in).  can_share_driver says
  which bodies can go in a driver with others, and reserved_name_in which
  code names the driver's own state.

Drivers declare every array static, the timing buffer too, so no size meets a
stack limit, and sizeof, &a and whole-array OpenMP clauses hold at any size.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .checkpoint import TYPE_TAGS
from .errors import PcaotError
from .pattern import _strip_comments_and_strings
from .sections import ExperimentalSection, StateManifest, VariableSpec, extract_sections

TIMING_LINE_PREFIX = "PCAOT_TIME_NS"
# Body k of a replay driver is, to gcc, the file pcaot_body_<k>.c (its #line marker).
BODY_PREFIX = "pcaot_body_"

C_TYPES = {"i8": "int8_t", "i32": "int32_t", "i64": "int64_t", "f32": "float", "f64": "double"}


class UnknownSection(PcaotError):
    """The section to instrument is not present in the given source."""


class SourceKind(Enum):
    CAPTURE_PROGRAM = "capture"
    REPLAY_DRIVER = "driver"


@dataclass(frozen=True)
class GeneratedSource:
    """A generated C translation unit.

    A capture program is self-contained; a replay driver needs the helper
    object compiled from HELPER_SOURCE at link time.
    """

    kind: SourceKind
    section_id: str
    text: str


_INCLUDES = """#include <stdio.h>
#include <stdlib.h>
#include <stdint.h>
#include <string.h>"""

_HELPERS = r'''/* pcaot checkpoint I/O helpers (generated; little-endian wire, host-order bulk I/O) */
''' + _INCLUDES + r'''
#ifndef PCAOT_API
#define PCAOT_API static
#endif

PCAOT_API void pcaot_die(const char *msg) {
    fprintf(stderr, "pcaot: %s\n", msg);
    exit(3);
}

/* Fields and payloads move in host order: the wire's order on little-endian hosts only. */
static FILE *pcaot_fopen(const char *path, const char *mode, const char *fail_msg) {
    const uint16_t one = 1;
    FILE *f;
    if (*(const uint8_t *)&one != 1) pcaot_die("checkpoints need a little-endian host");
    f = fopen(path, mode);
    if (f == NULL) pcaot_die(fail_msg);
    return f;
}

static void pcaot_write(FILE *f, const void *data, size_t nbytes) {
    if (nbytes > 0 && fwrite(data, 1, nbytes, f) != nbytes) pcaot_die("checkpoint write failed");
}

static void pcaot_read(FILE *f, void *data, size_t nbytes) {
    if (nbytes > 0 && fread(data, 1, nbytes, f) != nbytes) pcaot_die("checkpoint truncated");
}

static size_t pcaot_payload_bytes(int tag, int rank, const uint64_t *extents) {
    static const size_t elem_size[5] = {1, 4, 8, 4, 8}; /* by tag: i8, i32, i64, f32, f64 */
    uint64_t count = 1;
    int i;
    if (tag < 0 || tag > 4) pcaot_die("unknown element type tag");
    for (i = 0; i < rank; i++) count *= extents[i];
    return (size_t)count * elem_size[tag];
}

PCAOT_API FILE *pcaot_ckpt_begin(const char *path, uint32_t record_count) {
    const uint32_t version_count[2] = {1u, record_count};
    FILE *f = pcaot_fopen(path, "wb", "cannot create checkpoint file");
    pcaot_write(f, "PCAO", 4);
    pcaot_write(f, version_count, 8);
    return f;
}

PCAOT_API void pcaot_ckpt_put(FILE *f, const char *name, int tag, int rank,
                              const uint64_t *extents, const void *data) {
    const uint16_t name_len = (uint16_t)strlen(name);
    const uint8_t tag_rank[2] = {(uint8_t)tag, (uint8_t)rank};
    pcaot_write(f, &name_len, 2);
    pcaot_write(f, name, name_len);
    pcaot_write(f, tag_rank, 2);
    pcaot_write(f, extents, 8 * (size_t)rank);
    pcaot_write(f, data, pcaot_payload_bytes(tag, rank, extents));
}

PCAOT_API void pcaot_ckpt_end(FILE *f) {
    if (fputc(0xFF, f) == EOF) pcaot_die("checkpoint write failed");
    if (fclose(f) != 0) pcaot_die("checkpoint close failed");
}

PCAOT_API FILE *pcaot_ckpt_open(const char *path, uint32_t expect_records) {
    FILE *f = pcaot_fopen(path, "rb", "cannot open checkpoint file");
    uint32_t word;
    if (fread(&word, 1, 4, f) != 4 || memcmp(&word, "PCAO", 4) != 0) pcaot_die("bad checkpoint magic");
    pcaot_read(f, &word, 4);
    if (word != 1u) pcaot_die("unsupported checkpoint version");
    pcaot_read(f, &word, 4);
    if (word != expect_records) pcaot_die("unexpected checkpoint record count");
    return f;
}

PCAOT_API void pcaot_ckpt_get(FILE *f, const char *name, int tag, int rank,
                              const uint64_t *extents, void *data) {
    char rec_name[256];
    uint16_t name_len;
    uint8_t tag_rank[2];
    uint64_t extent;
    int i;
    pcaot_read(f, &name_len, 2);
    if (name_len >= sizeof(rec_name)) pcaot_die("checkpoint variable name too long");
    pcaot_read(f, rec_name, name_len);
    if (name_len != strlen(name) || memcmp(rec_name, name, name_len) != 0) pcaot_die("checkpoint variable order mismatch");
    pcaot_read(f, tag_rank, 2);
    if (tag_rank[0] != tag) pcaot_die("checkpoint element type mismatch");
    if (tag_rank[1] != rank) pcaot_die("checkpoint rank mismatch");
    for (i = 0; i < rank; i++) {
        pcaot_read(f, &extent, 8);
        if (extent != extents[i]) pcaot_die("checkpoint extent mismatch");
    }
    pcaot_read(f, data, pcaot_payload_bytes(tag, rank, extents));
}

PCAOT_API void pcaot_ckpt_close(FILE *f) {
    if (fgetc(f) != 0xFF) pcaot_die("checkpoint missing terminator");
    if (fgetc(f) != EOF) pcaot_die("trailing bytes after terminator");
    fclose(f);
}
/* end pcaot helpers */'''

# The helper object's translation unit: the block with external linkage.
HELPER_SOURCE = "#define PCAOT_API\n" + _HELPERS + "\n"

# What a replay driver sees of the helpers; drivers link the helper object.
HELPER_DECLS = _INCLUDES + """
void pcaot_die(const char *msg);
FILE *pcaot_ckpt_begin(const char *path, uint32_t record_count);
void pcaot_ckpt_put(FILE *f, const char *name, int tag, int rank,
                    const uint64_t *extents, const void *data);
void pcaot_ckpt_end(FILE *f);
FILE *pcaot_ckpt_open(const char *path, uint32_t expect_records);
void pcaot_ckpt_get(FILE *f, const char *name, int tag, int rank,
                    const uint64_t *extents, void *data);
void pcaot_ckpt_close(FILE *f);"""


def _data_expr(var: VariableSpec) -> str:
    # Scalars need their address taken; arrays decay (a capture's variable may be a pointer).
    return f"&({var.name})" if var.is_scalar else f"({var.name})"


def _ckpt_call_lines(call: str, cast: str, var: VariableSpec, indent: str) -> list[str]:
    # A pcaot_ckpt_put or pcaot_ckpt_get call on pcaot_f; cast is its data pointer type.
    tag = TYPE_TAGS[var.elem_type]
    if var.is_scalar:
        return [
            f"{indent}{call}(pcaot_f, \"{var.name}\", {tag}, 0, "
            f"(const uint64_t *)0, ({cast}){_data_expr(var)});"
        ]
    exts = ", ".join(f"{e}ull" for e in var.extents)
    return [
        f"{indent}{{ uint64_t pcaot_ext[] = {{ {exts} }}; "
        f"{call}(pcaot_f, \"{var.name}\", {tag}, {len(var.extents)}, "
        f"pcaot_ext, ({cast}){_data_expr(var)}); }}"
    ]


def _dump_block(variables: tuple[VariableSpec, ...], path: str, label: str, indent: str) -> list[str]:
    lines = [f"{indent}{{ /* pcaot: dump {label} state */"]
    inner = indent + "    "
    lines.append(f"{inner}FILE *pcaot_f = pcaot_ckpt_begin(\"{path}\", {len(variables)}u);")
    for var in variables:
        lines.extend(_ckpt_call_lines("pcaot_ckpt_put", "const void *", var, inner))
    lines.append(f"{inner}pcaot_ckpt_end(pcaot_f);")
    lines.append(f"{indent}}}")
    return lines


def input_checkpoint_name(section_id: str) -> str:
    return f"{section_id}.in.ckpt"


def output_checkpoint_name(section_id: str) -> str:
    return f"{section_id}.out.ckpt"


def generate_capture_program(
    original_source: str,
    section: ExperimentalSection,
    manifest: StateManifest,
) -> GeneratedSource:
    """Insert state dumps around the section in an otherwise untouched program.

    The helper block goes at the top of the file; the input dump (skipped
    when the manifest has no in/inout variables) right after the start
    pragma; the output dump right before the stop pragma.  Raises
    UnknownSection if the section does not match the source; every manifest
    variable has a C type (C_TYPES), so nothing else is rejected.
    """
    if manifest.section_id != section.id:
        raise UnknownSection(
            f"manifest describes section {manifest.section_id!r}, got {section.id!r}"
        )
    found = [
        s
        for s in extract_sections(original_source, section.source_path)
        if s.start_line == section.start_line
        and s.end_line == section.end_line
        and s.body_text == section.body_text
    ]
    if not found:
        raise UnknownSection(
            f"section {section.id!r} (lines {section.start_line}-{section.end_line}) "
            f"not found in source"
        )

    lines = original_source.splitlines()
    start_idx = section.start_line - 1
    stop_idx = section.end_line - 1
    indent = lines[start_idx][: len(lines[start_idx]) - len(lines[start_idx].lstrip())]

    out: list[str] = [_HELPERS]
    out.extend(lines[: start_idx + 1])
    if manifest.inputs:
        out.extend(
            _dump_block(manifest.inputs, input_checkpoint_name(section.id), "input", indent)
        )
    out.extend(lines[start_idx + 1 : stop_idx])
    out.extend(
        _dump_block(manifest.outputs, output_checkpoint_name(section.id), "output", indent)
    )
    out.extend(lines[stop_idx:])
    return GeneratedSource(
        kind=SourceKind.CAPTURE_PROGRAM, section_id=section.id, text="\n".join(out) + "\n"
    )


def capture_insertion_line_count(manifest: StateManifest) -> int:
    """How many lines generate_capture_program adds to the original source."""
    helper_lines = len(_HELPERS.splitlines())
    out_dump = 4 + len(manifest.outputs)
    in_dump = 4 + len(manifest.inputs) if manifest.inputs else 0
    return helper_lines + in_dump + out_dump


def _declaration(var: VariableSpec) -> str:
    # Arrays are static whatever their size; scalars, which have no extents, stay automatic.
    storage = "" if var.is_scalar else "static "
    dims = "".join(f"[{e}]" for e in var.extents)
    return f"    {storage}{C_TYPES[var.elem_type]} {var.name}{dims};"


def _zero(var: VariableSpec) -> str:
    if var.is_scalar:
        return f"        {var.name} = 0;"
    return f"        memset((void *)({var.name}), 0, {var.byte_size}ull);"


def generate_replay_driver(
    section_body: str | Sequence[str],
    manifest: StateManifest,
    timing_repeats: int = 3,
    support_code: str = "",
) -> GeneratedSource:
    """Wrap one section body, or several, in a standalone timing-and-checkpoint driver.

    The driver reloads the captured input (and re-zeroes pure-out
    variables) before every repeat so each repeat starts from identical
    state, times only the body with CLOCK_MONOTONIC, writes the output
    checkpoint after the final repeat, then prints one timing line per
    repeat.  support_code is inserted at file scope for bodies that call
    helper functions.  The checkpoint helpers are only declared; link the
    object compiled from HELPER_SOURCE (runner.build does).  Arrays and the
    timing buffer are static: assigning to an array's name does not compile.

    A string is a sequence of one body.  main(pcaot_argc, pcaot_argv)
    declares the manifest variables once, runs the body whose number is
    argv[1] (body 0 with no argument) and exits 3 on any other argv.  Body
    k sits between its own two clock reads, inside do { } while (0), so a
    top-level break or continue ends the body and not the repeat, after a
    #line 1 "pcaot_body_<k>.c" marker that makes gcc name the body in its
    diagnostics (bodies_named_in).  Only bodies that can_share_driver
    accepts belong in a driver with others.  Every manifest variable has a
    C type (C_TYPES), so it raises no PcaotError.
    """
    bodies = [section_body] if isinstance(section_body, str) else list(section_body)
    if not bodies:
        raise ValueError("a replay driver needs at least one body")
    if timing_repeats < 1:
        raise ValueError("timing_repeats must be at least 1")
    sid = manifest.section_id

    lines: list[str] = [
        "#define _POSIX_C_SOURCE 200809L",
        "#include <time.h>",
        "#include <math.h>",
        HELPER_DECLS,
    ]
    if support_code.strip():
        lines.append(support_code.rstrip("\n"))
    lines.append("")
    lines.append("int main(int pcaot_argc, char **pcaot_argv) {")
    lines.extend(_declaration(var) for var in manifest.variables)
    lines.append(f"    static long long pcaot_ns[{timing_repeats}];")
    lines.append("    struct timespec pcaot_t0 = {0, 0}, pcaot_t1 = {0, 0};")
    lines.append("    int pcaot_rep, pcaot_which = -1;")
    lines.append(
        '    const char *pcaot_arg = pcaot_argc == 1 ? "0" : pcaot_argc == 2 ? pcaot_argv[1] : "";'
    )
    lines.extend(
        f'    if (strcmp(pcaot_arg, "{k}") == 0) pcaot_which = {k};' for k in range(len(bodies))
    )
    lines.append(
        f'    if (pcaot_which < 0) pcaot_die("run as: ./driver N, with N from 0 to {len(bodies) - 1}");'
    )
    lines.append(f"    for (pcaot_rep = 0; pcaot_rep < {timing_repeats}; pcaot_rep++) {{")
    if manifest.inputs:
        lines.append("        { /* pcaot: reload input state */")
        lines.append(
            f"            FILE *pcaot_f = pcaot_ckpt_open(\"{input_checkpoint_name(sid)}\", "
            f"{len(manifest.inputs)}u);"
        )
        for var in manifest.inputs:
            lines.extend(_ckpt_call_lines("pcaot_ckpt_get", "void *", var, "            "))
        lines.append("            pcaot_ckpt_close(pcaot_f);")
        lines.append("        }")
    lines.extend(_zero(var) for var in manifest.variables if var.direction == "out")
    for k, body in enumerate(bodies):
        lines.append(f"        if (pcaot_which == {k}) {{")
        lines.append("            clock_gettime(CLOCK_MONOTONIC, &pcaot_t0);")
        lines.append(f'#line 1 "{BODY_PREFIX}{k}.c"')
        lines.append("            do { /* pcaot: section body */")
        lines.append(body)
        lines.append("            } while (0); /* pcaot: end section body */")
        lines.append("            clock_gettime(CLOCK_MONOTONIC, &pcaot_t1);")
        lines.append("        }")
    lines.append(
        "        pcaot_ns[pcaot_rep] = (long long)(pcaot_t1.tv_sec - pcaot_t0.tv_sec) "
        "* 1000000000LL + (long long)(pcaot_t1.tv_nsec - pcaot_t0.tv_nsec);"
    )
    lines.append("    }")
    lines.extend(_dump_block(manifest.outputs, output_checkpoint_name(sid), "output", "    "))
    lines.append(f"    for (pcaot_rep = 0; pcaot_rep < {timing_repeats}; pcaot_rep++) {{")
    lines.append(f"        printf(\"{TIMING_LINE_PREFIX} %lld\\n\", pcaot_ns[pcaot_rep]);")
    lines.append("    }")
    lines.append("    return 0;")
    lines.append("}")
    return GeneratedSource(
        kind=SourceKind.REPLAY_DRIVER, section_id=sid, text="\n".join(lines) + "\n"
    )


# A preprocessor line that is not "#pragma omp ...", once comments and strings are blanked.
_FOREIGN_DIRECTIVE_RE = re.compile(r"^[ \t]*#(?![ \t]*pragma[ \t]+omp\b)", re.MULTILINE)
_GOTO_RE = re.compile(r"\bgoto\b")
# An identifier of the replay driver's own state, or token pasting that could spell one.
_RESERVED_RE = re.compile(r"\b(?:pcaot|PCAOT)_\w*|##")
# Each closing bracket and the opening bracket it must match.
_OPENING = {"}": "{", ")": "(", "]": "["}


def can_share_driver(section_body: str) -> bool:
    """Whether a body can go in a replay driver together with other bodies.

    Not when, once comments and strings are blanked, it has a preprocessor
    line other than #pragma omp or uses _Pragma, whose effect would reach
    the bodies after it; uses goto, which could reach a label of another
    body in the same main(); or its braces, parentheses and brackets do not
    nest and balance, so that it would not stay inside its own block, or
    gcc would report its errors in the bodies after it.
    """
    code = _strip_comments_and_strings(section_body)
    if _FOREIGN_DIRECTIVE_RE.search(code) or "_Pragma" in code or _GOTO_RE.search(code):
        return False
    opened: list[str] = []
    for char in code:
        if char in "{([":
            opened.append(char)
        elif char in _OPENING and (not opened or opened.pop() != _OPENING[char]):
            return False
    return not opened


def reserved_name_in(code: str) -> str | None:
    """The first name of the driver's own state (pcaot_*, PCAOT_*) or ## in code's tokens."""
    match = _RESERVED_RE.search(_strip_comments_and_strings(code))
    return None if match is None else match.group()


_BODY_ERROR_RE = re.compile(
    rf"^{BODY_PREFIX}(\d+)\.c:\d+:(?:\d+:)? (?:fatal )?error:", re.MULTILINE
)


def bodies_named_in(compiler_stderr: str) -> set[int]:
    """The numbers of the bodies that gcc's error: lines name in a driver of several bodies."""
    return {int(k) for k in _BODY_ERROR_RE.findall(compiler_stderr)}
