"""C source generation: capture rewrites and standalone replay drivers.

Both generators write their checkpoint I/O into the code they generate,
as one block per checkpoint of fopen/fread/fwrite/memcmp/fgetc calls with no
external dependency, and every generated source is one translation unit.
The header bytes come from pcaot.checkpoint's file_header and
record_header, which encode also writes, so the C and the Python codec
share them: a writer emits them as string literals, and a reader walks a
table of them and compares what it reads field by field, each kind of
field with its own "pcaot:" message and exit status 3.  Payloads move in
bulk, one fread/fwrite each in host byte order, so they match the
little-endian wire only on a little-endian host; on a big-endian host each
block exits with a "pcaot:" message before touching a checkpoint.  The
blocks declare their own state (pcaot_ names) inside their braces, so a
capture adds nothing at file scope but two #include lines, and a driver
declares nothing at file scope beyond its includes, the support code, its
section functions and main.
They call the C library by name, so a capture fails to build when the
section's own function declares a local that hides one of those names
(say, a variable named exit).  The generators:

* generate_capture_program rewrites the original program so that running it
  dumps the section's live-in state right after the start pragma and its
  live-out state right before the stop pragma.  The rewrite only inserts
  lines; every original line survives byte-identical.
* generate_replay_driver wraps the section bodies (original or candidate)
  of one or more sections that share their support code in a fresh
  program.  Each section gets a function pcaot_section_<n> that redeclares
  its manifest variables, reloads its captured input before each timed
  repeat, times one body alone with a monotonic clock, prints one
  "PCAOT_TIME_NS <n>" line per repeat and writes the resulting output
  checkpoint; main() calls the function of the body that argv[1] numbers,
  over the whole driver (body 0 with no argument).  Each body sits inside
  do { } while (0) between its own two clock reads, behind a #line marker
  that makes gcc name the body in its errors (bodies_named_in).
  can_share_driver says which bodies can go in a driver with others, and
  reserved_name_in which code names the driver's own state.

Drivers declare every array static, the timing buffer too, so no size meets a
stack limit, and sizeof, &a and whole-array OpenMP clauses hold at any size.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .checkpoint import TERMINATOR, HeaderFields, file_header, record_header
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
    """A generated C translation unit: a whole program that gcc compiles alone."""

    kind: SourceKind
    section_id: str
    text: str


# A capture includes what its dumps call; a driver's main also calls memcmp, memset and strcmp.
_CAPTURE_INCLUDES = ("#include <stdio.h>", "#include <stdlib.h>")
_DRIVER_INCLUDES = (*_CAPTURE_INCLUDES, "#include <stdint.h>", "#include <string.h>")

# The reader's message for a field of each kind whose bytes differ from the
# manifest's, and for a file that ends inside such a field.
_DIFFERS = {
    "magic": "bad checkpoint magic",
    "version": "unsupported checkpoint version",
    "count": "unexpected checkpoint record count",
    "name": "checkpoint variable order mismatch",
    "type": "checkpoint element type mismatch",
    "rank": "checkpoint rank mismatch",
    "extent": "checkpoint extent mismatch",
    "terminator": "checkpoint missing terminator",
}
_ENDS = {"magic": "bad checkpoint magic", "terminator": "checkpoint missing terminator"}
_TRUNCATED = "checkpoint truncated"
# Identifier characters stand for themselves in a generated C string; any other byte is octal.
_PLAIN_BYTES = frozenset(b"_0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _c_bytes(data: bytes) -> str:
    """A C string literal that holds exactly data (its length is passed along with it)."""
    return '"' + "".join(chr(b) if b in _PLAIN_BYTES else f"\\{b:03o}" for b in data) + '"'


def _data_expr(var: VariableSpec) -> str:
    # Scalars need their address taken; arrays decay (a capture's variable may be a pointer).
    return f"&({var.name})" if var.is_scalar else f"({var.name})"


def _checked_block(
    label: str,
    decls: list[str],
    checks: list[tuple[str, str]],
    body: list[str],
    after: list[str],
    indent: str,
) -> list[str]:
    """A block that sets pcaot_e to the message of the first true check, then runs body.

    checks are (C condition, message) pairs, evaluated in order; body may
    set pcaot_e too.  A message set goes to stderr as "pcaot: <message>" and
    the program exits 3; the host byte order is checked first, because
    payloads move in host order.  The statements in after run otherwise.
    """
    inner = indent + "    "
    arms = [("*(const unsigned char *)&pcaot_one != 1", "checkpoints need a little-endian host")]
    arms.extend(checks)
    lines = [
        f"{indent}{{ /* pcaot: {label} */",
        f"{inner}const int pcaot_one = 1;",
        *(f"{inner}{decl}" for decl in decls),
        f"{inner}FILE *pcaot_f = NULL;",
        f"{inner}const char *pcaot_e =",
    ]
    lines.extend(
        f"{inner}    {': ' if k else ''}{cond} ? \"{message}\""
        for k, (cond, message) in enumerate(arms)
    )
    lines.append(f"{inner}    : NULL;")
    lines.extend(f"{inner}{line}" for line in body)
    lines.append(
        f'{inner}if (pcaot_e != NULL) {{ fprintf(stderr, "pcaot: %s\\n", pcaot_e); exit(3); }}'
    )
    lines.extend(f"{inner}{line}" for line in after)
    lines.append(f"{indent}}}")
    return lines


def _headers(variables: tuple[VariableSpec, ...]) -> list[tuple[VariableSpec, HeaderFields]]:
    """Each variable with the header fields before its payload; the first's include the file's."""
    return [
        (
            var,
            (file_header(len(variables)) if k == 0 else ())
            + record_header(var.name, var.elem_type, var.extents),
        )
        for k, var in enumerate(variables)
    ]


def _payload_io(call: str, cast: str, var: VariableSpec) -> str:
    # A fread or fwrite of var's payload that fails when it moves fewer bytes.
    size = f"{var.byte_size}ull"
    return f"{call}(({cast}){_data_expr(var)}, 1, {size}, pcaot_f) != {size}"


def _dump_block(
    variables: tuple[VariableSpec, ...], path: str, label: str, indent: str
) -> list[str]:
    """Write variables (at least one) to path: each header in one fwrite, then the payload."""
    writes = []
    for var, fields in _headers(variables):
        header = b"".join(data for _, data in fields)
        writes.append(f"fwrite({_c_bytes(header)}, 1, {len(header)}, pcaot_f) != {len(header)}")
        writes.append(_payload_io("fwrite", "const void *", var))
    writes.append(f"fwrite({_c_bytes(TERMINATOR)}, 1, 1, pcaot_f) != 1")
    checks = [
        (f'(pcaot_f = fopen("{path}", "wb")) == NULL', "cannot create checkpoint file"),
        (" || ".join(writes), "checkpoint write failed"),
        ("fclose(pcaot_f) != 0", "checkpoint close failed"),
    ]
    return _checked_block(f"dump {label} state", [], checks, [], [], indent)


def _reload_block(variables: tuple[VariableSpec, ...], path: str, indent: str) -> list[str]:
    """Read path into variables (at least one), checking it against the manifest.

    One loop walks a table of the file's fields in wire order.  A payload
    (want NULL) is read into its variable; any other field is read into
    pcaot_h and compared with the bytes that pcaot.checkpoint encodes for
    it.  A field whose bytes differ gets the message of its kind, and a file
    that ends inside a field gets "checkpoint truncated" (inside the magic,
    "bad checkpoint magic"; before the terminator, "checkpoint missing
    terminator").  With a table, the code gcc compiles does not grow with
    the manifest: a check of its own per field cost each sample and
    big_state driver 3-10 ms more compile time.
    """
    def field_row(kind: str, data: bytes) -> str:
        return f'{len(data)}u, {_c_bytes(data)}, "{_DIFFERS[kind]}", "{_ENDS.get(kind, _TRUNCATED)}"'

    headers = _headers(variables)
    rows = []
    for var, fields in headers:
        rows.extend(field_row(kind, data) for kind, data in fields)
        rows.append(f'{var.byte_size}ull, NULL, NULL, "{_TRUNCATED}"')
    rows.append(field_row("terminator", TERMINATOR))
    width = max(len(data) for _, fields in headers for _, data in fields)
    targets = ", ".join(f"(void *){_data_expr(var)}" for var in variables)
    decls = [
        "static const struct { size_t len; const char *want, *differs, *ends; } pcaot_seg[] = {",
        *(f"    {{{row}}}," for row in rows),
        "    {0, NULL, NULL, NULL} /* the end of the table */",
        "};",
        f"void *const pcaot_to[] = {{ {targets} }};",
        f"unsigned char pcaot_h[{width}];",
        "size_t pcaot_row, pcaot_next = 0;",
    ]
    body = [
        "for (pcaot_row = 0; pcaot_e == NULL && pcaot_seg[pcaot_row].len != 0; pcaot_row++) {",
        "    const size_t pcaot_len = pcaot_seg[pcaot_row].len;",
        "    const char *const pcaot_want = pcaot_seg[pcaot_row].want;",
        "    void *const pcaot_into = pcaot_want == NULL ? pcaot_to[pcaot_next++] : pcaot_h;",
        "    if (fread(pcaot_into, 1, pcaot_len, pcaot_f) != pcaot_len)",
        "        pcaot_e = pcaot_seg[pcaot_row].ends;",
        "    else if (pcaot_want != NULL && memcmp(pcaot_h, pcaot_want, pcaot_len) != 0)",
        "        pcaot_e = pcaot_seg[pcaot_row].differs;",
        "}",
        'if (pcaot_e == NULL && fgetc(pcaot_f) != EOF) pcaot_e = "trailing bytes after terminator";',
    ]
    checks = [(f'(pcaot_f = fopen("{path}", "rb")) == NULL', "cannot open checkpoint file")]
    return _checked_block("reload input state", decls, checks, body, ["fclose(pcaot_f);"], indent)


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

    The includes the dumps need go at the top of the file; the input dump
    (skipped when the manifest has no in/inout variables) right after the
    start pragma; the output dump right before the stop pragma.  Each dump
    is a block of its own and declares nothing at file scope.  Raises
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

    out: list[str] = list(_CAPTURE_INCLUDES)
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
    in_dump = len(_dump_block(manifest.inputs, "", "", "")) if manifest.inputs else 0
    return len(_CAPTURE_INCLUDES) + in_dump + len(_dump_block(manifest.outputs, "", "", ""))


def _declaration(var: VariableSpec) -> str:
    # Arrays are static whatever their size; scalars, which have no extents, stay automatic.
    storage = "" if var.is_scalar else "static "
    dims = "".join(f"[{e}]" for e in var.extents)
    return f"    {storage}{C_TYPES[var.elem_type]} {var.name}{dims};"


def _zero(var: VariableSpec) -> str:
    if var.is_scalar:
        return f"        {var.name} = 0;"
    return f"        memset((void *)({var.name}), 0, {var.byte_size}ull);"


def _section_function(
    n: int,
    first: int,
    bodies: list[str],
    manifest: StateManifest,
    timing_repeats: int,
    lines: list[str],
) -> None:
    """Append pcaot_section_<n>, which runs the section's bodies numbered first, first + 1, ..."""
    sid = manifest.section_id
    lines.append(f"static __attribute__((noinline)) int pcaot_section_{n}(int pcaot_which) {{")
    lines.extend(_declaration(var) for var in manifest.variables)
    lines.append(f"    static long long pcaot_ns[{timing_repeats}];")
    lines.append("    struct timespec pcaot_t0 = {0, 0}, pcaot_t1 = {0, 0};")
    lines.append("    int pcaot_rep;")
    lines.append(f"    for (pcaot_rep = 0; pcaot_rep < {timing_repeats}; pcaot_rep++) {{")
    if manifest.inputs:
        lines.extend(_reload_block(manifest.inputs, input_checkpoint_name(sid), "        "))
    lines.extend(_zero(var) for var in manifest.variables if var.direction == "out")
    for k, body in enumerate(bodies, first):
        lines.append(f"        if (pcaot_which == {k}) {{")
        lines.append("            clock_gettime(CLOCK_MONOTONIC, &pcaot_t0);")
        lines.append(f'#line 1 "{BODY_PREFIX}{k}.c"')
        lines.append("            do { /* pcaot: section body */")
        lines.extend(body.split("\n"))
        lines.append("            } while (0); /* pcaot: end section body */")
        # Back to the driver's own code, for gcc's diagnostics too (each item of lines is a line).
        lines.append(f'#line {len(lines) + 2} "driver.c"')
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
    lines.append("")


def generate_replay_driver(
    section_body: str | Sequence[str],
    manifest: StateManifest,
    timing_repeats: int = 3,
    support_code: str = "",
    more_sections: Sequence[tuple[str | Sequence[str], StateManifest]] = (),
) -> GeneratedSource:
    """Wrap the bodies of one section, or of several, in a standalone timing-and-checkpoint driver.

    Section 0 is section_body (a string is a sequence of one body) with
    manifest; more_sections holds the (bodies, manifest) of sections 1, 2,
    ...  Section n becomes pcaot_section_<n>(pcaot_which), which declares
    its manifest variables, reloads the section's captured input (and
    re-zeroes pure-out variables) before every repeat so each repeat starts
    from identical state, times only the body with CLOCK_MONOTONIC, writes
    the section's output checkpoint after the final repeat, then prints one
    timing line per repeat.  Arrays and the timing buffer are static:
    assigning to an array's name does not compile.  support_code is inserted
    once at file scope for bodies that call helper functions; every section
    of a driver shares it.  Each section function is noinline, so its code
    does not depend on the sections it shares a driver with.

    Bodies are numbered over the whole driver, section 0's first.
    main(pcaot_argc, pcaot_argv) runs the body whose number is argv[1] (body
    0 with no argument) through its section's function and exits 3 on any
    other argv.  Body k sits between its own two clock reads, inside do { }
    while (0), so a top-level break or continue ends the body and not the
    repeat, after a #line 1 "pcaot_body_<k>.c" marker that makes gcc name
    the body in its diagnostics (bodies_named_in); a #line back to driver.c
    follows it.  Only bodies that can_share_driver accepts belong in a driver
    with others.  The GeneratedSource bears section 0's id.  Every manifest
    variable has a C type (C_TYPES), so it raises no PcaotError.
    """
    sections = [
        ([bodies] if isinstance(bodies, str) else list(bodies), man)
        for bodies, man in ((section_body, manifest), *more_sections)
    ]
    if not all(bodies for bodies, _ in sections):
        raise ValueError("a replay driver needs at least one body per section")
    if timing_repeats < 1:
        raise ValueError("timing_repeats must be at least 1")

    lines: list[str] = [
        "#define _POSIX_C_SOURCE 200809L",
        "#include <time.h>",
        "#include <math.h>",
        *_DRIVER_INCLUDES,
    ]
    if support_code.strip():
        lines.extend(support_code.rstrip("\n").split("\n"))
    lines.append("")
    first, ends = 0, []
    for n, (bodies, man) in enumerate(sections):
        _section_function(n, first, bodies, man, timing_repeats, lines)
        first += len(bodies)
        ends.append(first)
    lines.append("int main(int pcaot_argc, char **pcaot_argv) {")
    lines.append("    int pcaot_which = -1;")
    lines.append(
        '    const char *pcaot_arg = pcaot_argc == 1 ? "0" : pcaot_argc == 2 ? pcaot_argv[1] : "";'
    )
    lines.extend(
        f'    if (strcmp(pcaot_arg, "{k}") == 0) pcaot_which = {k};' for k in range(first)
    )
    lines.append(
        f'    if (pcaot_which < 0) {{ fputs("pcaot: run as: ./driver N, with N from 0 to '
        f'{first - 1}\\n", stderr); exit(3); }}'
    )
    lines.extend(
        f"    if (pcaot_which < {end}) return pcaot_section_{n}(pcaot_which);"
        for n, end in enumerate(ends[:-1])
    )
    lines.append(f"    return pcaot_section_{len(ends) - 1}(pcaot_which);")
    lines.append("}")
    return GeneratedSource(
        kind=SourceKind.REPLAY_DRIVER, section_id=manifest.section_id, text="\n".join(lines) + "\n"
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
