"""OpenMP directive scanning, parallelization pattern detection, outcome categories.

Detection works on lexical structure (brace depth, balanced parentheses,
comment/string stripping), deliberately short of full C parsing.  Six
pattern labels are recognized:

    PO  parallelized outermost loop: a "parallel for" (or a "parallel"
        region holding exactly one "for" directive) attached to a loop at
        the section's minimum loop nesting depth
    PF  a worksharing-parallelized loop whose body contains a call
        expression (C keywords and omp_* runtime calls excluded)
    PA  a reduction clause over a subscripted/array-section list item
    PR  one "parallel" region lexically enclosing two or more "for"
        directives
    DS  a schedule clause whose argument starts with "dynamic"
    NW  any nowait clause

An empty result set means no parallelization pattern was applied.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .sections import StateManifest


class PatternLabel(Enum):
    PO = "PO"
    PF = "PF"
    PR = "PR"
    PA = "PA"
    DS = "DS"
    NW = "NW"
    NONE = "None"


class DirectiveKind(Enum):
    PARALLEL = "parallel"
    FOR = "for"
    PARALLEL_FOR = "parallel_for"
    OTHER = "other"


class ValidationStatus(Enum):
    """Per-candidate validation outcome, as recorded by the campaign."""

    PASS = "Pass"
    COMPILE_ERROR = "CompileError"
    RUNTIME_ERROR = "RuntimeError"
    TIMEOUT = "Timeout"
    NUMERIC_MISMATCH = "NumericMismatch"
    EXTRACTION_ERROR = "ExtractionError"


class OutcomeCategory(Enum):
    EXPECTED_APPLIED = "ExpectedApplied"
    UNEXPECTED_CORRECT = "UnexpectedCorrect"
    ERROR = "Error"
    CORRECTLY_REFUSED = "CorrectlyRefused"
    INCORRECTLY_PARALLELIZED = "IncorrectlyParallelized"


@dataclass(frozen=True)
class DirectiveInfo:
    """One OpenMP directive: kind, parsed clauses, lexical position."""

    kind: DirectiveKind
    clauses: tuple[tuple[str, str], ...]
    # Character offsets into the scanned text, for structure queries.
    start_offset: int = 0
    end_offset: int = 0

    def clause_args(self, name: str) -> tuple[str, ...]:
        return tuple(arg for cname, arg in self.clauses if cname == name)

    def has_clause(self, name: str) -> bool:
        return any(cname == name for cname, _ in self.clauses)


_C_KEYWORDS = frozenset(
    {"if", "else", "for", "while", "do", "switch", "return", "sizeof", "case", "default"}
)
_CALL_RE = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*)\s*\(")
_LOOP_RE = re.compile(r"\b(for|while)\b")


def _strip_comments_and_strings(code: str) -> str:
    """Blank out comments and string/char literals, preserving layout.

    Every replaced character becomes a space except newlines, so offsets,
    line numbers and brace structure survive.
    """
    out = list(code)
    i = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == "/" and i + 1 < n and code[i + 1] == "/":
            while i < n and code[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and i + 1 < n and code[i + 1] == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (code[i] == "*" and i + 1 < n and code[i + 1] == "/"):
                if code[i] != "\n":
                    out[i] = " "
                i += 1
            if i + 1 < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c in "\"'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and code[i] != quote:
                if code[i] == "\\" and i + 1 < n:
                    out[i] = " "
                    if code[i + 1] != "\n":
                        out[i + 1] = " "
                    i += 2
                    continue
                if code[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def _logical_pragma_spans(stripped: str) -> list[tuple[int, int, str]]:
    """(start_offset, end_offset, text) for each #pragma omp line,
    with backslash continuations folded in."""
    spans = []
    offset = 0
    lines = stripped.split("\n")
    i = 0
    while i < len(lines):
        line = lines[i]
        start = offset
        text = line
        consumed = 1
        while text.rstrip().endswith("\\") and i + consumed < len(lines):
            text = text.rstrip()[:-1] + " " + lines[i + consumed]
            consumed += 1
        body = text.lstrip()
        if body.startswith("#"):
            after_hash = body[1:].lstrip()
            if re.match(r"pragma\s+omp\b", after_hash):
                end = offset + sum(len(lines[i + k]) + 1 for k in range(consumed)) - 1
                spans.append((start, end, after_hash[len("pragma") :].lstrip()))
                offset = end + 1
                i += consumed
                continue
        offset += len(line) + 1
        i += 1
    return spans


def _parse_clauses(text: str) -> tuple[tuple[str, str], ...]:
    """Parse "name(arg) name, name(arg)" clause soup, names lowercased."""
    clauses = []
    i = 0
    n = len(text)
    while i < n:
        if not (text[i].isalpha() or text[i] == "_"):
            i += 1
            continue
        j = i
        while j < n and (text[j].isalnum() or text[j] == "_"):
            j += 1
        name = text[i:j].lower()
        k = j
        while k < n and text[k].isspace():
            k += 1
        arg = ""
        if k < n and text[k] == "(":
            depth = 0
            start = k + 1
            while k < n:
                if text[k] == "(":
                    depth += 1
                elif text[k] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            arg = text[start:k].strip()
            k += 1
        clauses.append((name, arg))
        i = k if k > j else j
    return tuple(clauses)


def scan_directives(code: str) -> list[DirectiveInfo]:
    """Find all OpenMP directives with kind, clauses and offsets."""
    return _scan(_strip_comments_and_strings(code))


def _scan(stripped: str) -> list[DirectiveInfo]:
    # scan_directives for code whose comments and strings are already blanked.
    directives = []
    for start, end, after_pragma in _logical_pragma_spans(stripped):
        rest = after_pragma[len("omp") :].strip()
        tokens = rest.split()
        if tokens and tokens[0] == "parallel":
            if len(tokens) > 1 and tokens[1] == "for":
                kind = DirectiveKind.PARALLEL_FOR
                clause_text = rest.split("for", 1)[1]
            else:
                kind = DirectiveKind.PARALLEL
                clause_text = rest[len("parallel") :]
        elif tokens and tokens[0] == "for":
            kind = DirectiveKind.FOR
            clause_text = rest[len("for") :]
        else:
            kind = DirectiveKind.OTHER
            clause_text = rest.split(None, 1)[1] if len(tokens) > 1 else ""
        directives.append(
            DirectiveInfo(
                kind=kind,
                clauses=_parse_clauses(clause_text),
                start_offset=start,
                end_offset=end,
            )
        )
    return directives


@dataclass(frozen=True)
class _Loop:
    header_offset: int
    body_start: int
    body_end: int
    depth: int


def _match_forward(text: str, pos: int, open_ch: str, close_ch: str) -> int:
    """Offset just past the matching close character; len(text) if unbalanced."""
    depth = 0
    for i in range(pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def _statement_end(text: str, pos: int) -> int:
    """Offset just past this statement: a brace block, or through ';' at depth 0."""
    n = len(text)
    while pos < n and text[pos].isspace():
        pos += 1
    if pos >= n:
        return n
    if text[pos] == "{":
        return _match_forward(text, pos, "{", "}")
    paren = 0
    brace = 0
    i = pos
    while i < n:
        c = text[i]
        if c == "(":
            paren += 1
        elif c == ")":
            paren -= 1
        elif c == "{":
            brace += 1
        elif c == "}":
            brace -= 1
            if brace < 0:
                return i
        elif c == ";" and paren == 0 and brace == 0:
            return i + 1
        i += 1
    return n


def _find_loops(stripped: str) -> list[_Loop]:
    raw = []
    for match in _LOOP_RE.finditer(stripped):
        pos = match.end()
        while pos < len(stripped) and stripped[pos].isspace():
            pos += 1
        if pos >= len(stripped) or stripped[pos] != "(":
            continue  # do-while tail or stray keyword
        header_end = _match_forward(stripped, pos, "(", ")")
        body_end = _statement_end(stripped, header_end)
        raw.append((match.start(), header_end, body_end))
    loops = []
    for start, header_end, body_end in raw:
        depth = sum(1 for s, _, e in raw if s < start and start < e and (s, e) != (start, body_end))
        loops.append(_Loop(header_offset=start, body_start=header_end, body_end=body_end, depth=depth))
    return loops


def _next_loop(loops: list[_Loop], offset: int) -> _Loop | None:
    after = [l for l in loops if l.header_offset >= offset]
    return min(after, key=lambda l: l.header_offset) if after else None


def _region_span(stripped: str, directive: DirectiveInfo) -> tuple[int, int]:
    """Lexical extent of the code a parallel directive governs."""
    pos = directive.end_offset + 1
    n = len(stripped)
    while pos < n and stripped[pos].isspace():
        pos += 1
    if pos < n and stripped[pos] == "{":
        return (pos, _match_forward(stripped, pos, "{", "}"))
    # No braces: the region is the next statement, skipping nested pragmas.
    scan = pos
    while scan < n:
        line_end = stripped.find("\n", scan)
        if line_end == -1:
            line_end = n
        if stripped[scan:line_end].lstrip().startswith("#"):
            scan = line_end + 1
            while scan < n and stripped[scan].isspace():
                scan += 1
            continue
        break
    return (pos, _statement_end(stripped, scan))


def detect(code: str) -> set[PatternLabel]:
    """Classify which parallelization patterns the code applies.

    Purely lexical and deterministic; an empty set means none.
    """
    stripped = _strip_comments_and_strings(code)
    directives = _scan(stripped)
    labels: set[PatternLabel] = set()
    if not directives:
        return labels

    loops = _find_loops(stripped)
    min_depth = min((l.depth for l in loops), default=0)

    parallel_regions = []
    for directive in directives:
        if directive.kind is DirectiveKind.PARALLEL:
            parallel_regions.append((directive, _region_span(stripped, directive)))

    def region_fors(span: tuple[int, int]) -> list[DirectiveInfo]:
        return [
            d
            for d in directives
            if d.kind is DirectiveKind.FOR and span[0] <= d.start_offset < span[1]
        ]

    worksharing_loops: list[_Loop] = []
    for directive in directives:
        if directive.kind is DirectiveKind.PARALLEL_FOR:
            loop = _next_loop(loops, directive.end_offset)
            if loop is not None:
                worksharing_loops.append(loop)
                if loop.depth == min_depth:
                    labels.add(PatternLabel.PO)
        elif directive.kind is DirectiveKind.FOR:
            loop = _next_loop(loops, directive.end_offset)
            if loop is not None:
                worksharing_loops.append(loop)

    for directive, span in parallel_regions:
        fors = region_fors(span)
        if len(fors) >= 2:
            labels.add(PatternLabel.PR)
        elif len(fors) == 1:
            loop = _next_loop(loops, fors[0].end_offset)
            if loop is not None and loop.depth == min_depth:
                labels.add(PatternLabel.PO)

    for loop in worksharing_loops:
        body = stripped[loop.body_start : loop.body_end]
        for match in _CALL_RE.finditer(body):
            name = match.group(1)
            if name in _C_KEYWORDS or name.startswith("omp_"):
                continue
            labels.add(PatternLabel.PF)
            break
        if PatternLabel.PF in labels:
            break

    for directive in directives:
        for arg in directive.clause_args("reduction"):
            if "[" in arg:
                labels.add(PatternLabel.PA)
        for arg in directive.clause_args("schedule"):
            if arg.lstrip().lower().startswith("dynamic"):
                labels.add(PatternLabel.DS)
        if directive.has_clause("nowait"):
            labels.add(PatternLabel.NW)

    return labels


def has_any_directive(code: str) -> bool:
    return bool(scan_directives(code))


def categorize(
    manifest: StateManifest,
    detected: set[PatternLabel],
    status: ValidationStatus,
    has_directives: bool | None = None,
) -> OutcomeCategory:
    """Map a candidate's detected patterns and validation status to a category.

    Parallelizable sections: any failure is Error; a pass showing the
    expected pattern is ExpectedApplied; any other pass is
    UnexpectedCorrect.  Non-parallelizable sections: directives added means
    IncorrectlyParallelized regardless of validation, as does any failure;
    a clean pass with no directives is CorrectlyRefused.

    has_directives covers directives that map to no pattern label (for
    example a bare "omp single"); it defaults to whether any pattern was
    detected.
    """
    if has_directives is None:
        has_directives = bool(detected)
    if manifest.parallelizable:
        if status is not ValidationStatus.PASS:
            return OutcomeCategory.ERROR
        if manifest.expected_pattern is not None and PatternLabel(manifest.expected_pattern) in detected:
            return OutcomeCategory.EXPECTED_APPLIED
        return OutcomeCategory.UNEXPECTED_CORRECT
    if detected or has_directives:
        return OutcomeCategory.INCORRECTLY_PARALLELIZED
    if status is ValidationStatus.PASS:
        return OutcomeCategory.CORRECTLY_REFUSED
    return OutcomeCategory.INCORRECTLY_PARALLELIZED
