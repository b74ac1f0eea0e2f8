from pathlib import Path

import pytest

from pcaot.pattern import (
    DirectiveKind,
    OutcomeCategory,
    PatternLabel,
    ValidationStatus,
    categorize,
    detect,
    has_any_directive,
    scan_directives,
)
from pcaot.sections import StateManifest, VariableSpec

CORPUS = Path(__file__).parent / "fixtures" / "pattern_corpus"

# Expected label sets frozen by hand, one entry per corpus file.
CORPUS_EXPECTATIONS = {
    "po_simple.c": {"PO"},
    "po_region_single_for.c": {"PO"},
    "pf_call_direct.c": {"PO", "PF"},
    "pf_call_in_region.c": {"PO", "PF"},
    "pr_two_loops.c": {"PR"},
    "pr_nowait.c": {"PR", "NW"},
    "pa_array_section.c": {"PO", "PA"},
    "pa_indexed_target.c": {"PO", "PA"},
    "ds_dynamic.c": {"PO", "DS"},
    "ds_dynamic_chunk_call.c": {"PO", "DS", "PF"},
    "nw_region_single.c": {"PO", "NW"},
    "negative_inner_only.c": set(),
}


def test_corpus_is_complete():
    files = {p.name for p in CORPUS.glob("*.c")}
    assert files == set(CORPUS_EXPECTATIONS)


@pytest.mark.parametrize("filename,expected", sorted(CORPUS_EXPECTATIONS.items()))
def test_corpus_detection(filename, expected):
    code = (CORPUS / filename).read_text()
    labels = {label.value for label in detect(code)}
    assert labels == expected, filename


def test_plain_parallel_for_is_po():
    assert detect("#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = 0;") == {
        PatternLabel.PO
    }


def test_scalar_reduction_is_not_pa():
    code = "#pragma omp parallel for reduction(+:sum)\nfor (i = 0; i < n; i++) sum += a[i];"
    labels = detect(code)
    assert PatternLabel.PA not in labels
    assert PatternLabel.PO in labels


def test_static_schedule_is_not_ds():
    code = "#pragma omp parallel for schedule(static, 4)\nfor (i = 0; i < n; i++) a[i] = 0;"
    assert PatternLabel.DS not in detect(code)


def test_guided_schedule_is_not_ds():
    code = "#pragma omp parallel for schedule(guided)\nfor (i = 0; i < n; i++) a[i] = 0;"
    assert PatternLabel.DS not in detect(code)


def test_region_with_two_fors_is_pr_not_po():
    code = (CORPUS / "pr_two_loops.c").read_text()
    assert detect(code) == {PatternLabel.PR}


def test_a_braceless_region_is_its_next_statement_past_nested_pragmas():
    # The region of a parallel without braces skips the omp for line to its loop.
    code = "#pragma omp parallel\n#pragma omp for\nfor (i = 0; i < n; i++) a[i] = 0;\n"
    assert detect(code) == {PatternLabel.PO}


def test_keyword_in_body_is_not_a_call():
    # if/while/for/sizeof look like calls to a naive scanner.
    code = (
        "#pragma omp parallel for\n"
        "for (i = 0; i < n; i++) {\n"
        "    if (a[i] > 0) { a[i] = sizeof(double) * (a[i] - 1); }\n"
        "    while (0) { }\n"
        "}\n"
    )
    assert PatternLabel.PF not in detect(code)


def test_omp_runtime_calls_are_not_pf():
    code = (
        "#pragma omp parallel for\n"
        "for (i = 0; i < n; i++) a[i] = omp_get_thread_num();\n"
    )
    assert PatternLabel.PF not in detect(code)


def test_comments_and_strings_are_invisible():
    code = (
        "/* #pragma omp parallel for reduction(+:x[:4]) */\n"
        "// schedule(dynamic)\n"
        'const char *s = "#pragma omp parallel for nowait";\n'
        "for (i = 0; i < n; i++) a[i] = 0;\n"
    )
    assert detect(code) == set()
    assert not has_any_directive(code)


def test_pragma_continuation_lines_fold():
    code = (
        "#pragma omp parallel for \\\n"
        "    reduction(+:acc[:16]) \\\n"
        "    schedule(dynamic, 8)\n"
        "for (i = 0; i < n; i++) acc[i % 16] += f(i);\n"
    )
    labels = detect(code)
    assert {PatternLabel.PO, PatternLabel.PA, PatternLabel.DS, PatternLabel.PF} <= labels


def test_scan_directives_reports_kind_and_clauses():
    code = (
        "#pragma omp parallel\n"
        "{\n"
        "#pragma omp for schedule(dynamic, 4) nowait\n"
        "    for (i = 0; i < n; i++) a[i] = 0;\n"
        "}\n"
    )
    directives = scan_directives(code)
    kinds = [d.kind for d in directives]
    assert kinds == [DirectiveKind.PARALLEL, DirectiveKind.FOR]
    for_directive = directives[1]
    assert for_directive.has_clause("nowait")
    assert for_directive.clause_args("schedule") == ("dynamic, 4",)


def test_has_any_directive_sees_non_loop_directives():
    code = "#pragma omp critical\n{ total += x; }\n"
    assert has_any_directive(code)
    assert detect(code) == set()


# --- categorization -------------------------------------------------------


PARALLEL_PO = StateManifest(
    section_id="p",
    variables=(VariableSpec("a", "f64", (8,), "out"),),
    parallelizable=True,
    expected_pattern="PO",
)
NON_PARALLEL = StateManifest(
    section_id="np",
    variables=(VariableSpec("a", "f64", (8,), "inout"),),
    parallelizable=False,
    non_parallel_reason="DP",
)

PASS = ValidationStatus.PASS


@pytest.mark.parametrize(
    "manifest,detected,status,expected",
    [
        # Parallelizable: any failure is Error, regardless of patterns.
        (PARALLEL_PO, {PatternLabel.PO}, ValidationStatus.COMPILE_ERROR, OutcomeCategory.ERROR),
        (PARALLEL_PO, {PatternLabel.PO}, ValidationStatus.NUMERIC_MISMATCH, OutcomeCategory.ERROR),
        (PARALLEL_PO, set(), ValidationStatus.TIMEOUT, OutcomeCategory.ERROR),
        (PARALLEL_PO, set(), ValidationStatus.EXTRACTION_ERROR, OutcomeCategory.ERROR),
        # Parallelizable and passing: expected pattern in detected set?
        (PARALLEL_PO, {PatternLabel.PO}, PASS, OutcomeCategory.EXPECTED_APPLIED),
        (PARALLEL_PO, {PatternLabel.PO, PatternLabel.DS}, PASS, OutcomeCategory.EXPECTED_APPLIED),
        (PARALLEL_PO, {PatternLabel.PA}, PASS, OutcomeCategory.UNEXPECTED_CORRECT),
        (PARALLEL_PO, set(), PASS, OutcomeCategory.UNEXPECTED_CORRECT),
        # Non-parallelizable: directives anywhere mean it parallelized.
        (NON_PARALLEL, {PatternLabel.PO}, PASS, OutcomeCategory.INCORRECTLY_PARALLELIZED),
        (NON_PARALLEL, {PatternLabel.PO}, ValidationStatus.NUMERIC_MISMATCH,
         OutcomeCategory.INCORRECTLY_PARALLELIZED),
        (NON_PARALLEL, set(), PASS, OutcomeCategory.CORRECTLY_REFUSED),
        (NON_PARALLEL, set(), ValidationStatus.RUNTIME_ERROR,
         OutcomeCategory.INCORRECTLY_PARALLELIZED),
    ],
)
def test_categorize_truth_table(manifest, detected, status, expected):
    assert categorize(manifest, detected, status) is expected


def test_categorize_uses_has_directives_for_unlabeled_pragmas():
    # A bare "omp single" maps to no pattern label but still counts as
    # touching the parallel runtime on a non-parallelizable section.
    assert (
        categorize(NON_PARALLEL, set(), PASS, has_directives=True)
        is OutcomeCategory.INCORRECTLY_PARALLELIZED
    )
    assert (
        categorize(NON_PARALLEL, set(), PASS, has_directives=False)
        is OutcomeCategory.CORRECTLY_REFUSED
    )
