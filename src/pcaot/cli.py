"""Command line interface.

Subcommands mirror the pipeline stages and share one output directory, so
a campaign can be run in one shot (run) or stage by stage (capture,
optimize, validate, report) with identical results:

    pcaot prepare  --src FILE --manifest FILE [--json]
    pcaot capture  --config FILE --out DIR [--section ID]
    pcaot optimize --config FILE --out DIR
    pcaot validate --config FILE --out DIR [--section ID] [--json]
    pcaot report   --config FILE --out DIR
    pcaot run      --config FILE --out DIR [--section ID] [--dry-run] [--json]

Progress and diagnostics go to stderr; results go to stdout.  Exit codes:
0 success, 1 campaign completed with failures (or a pipeline error),
2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .campaign import (
    CaptureFailure,
    OutcomeRecord,
    _load_jsonl,
    _load_section,
    capture_section,
    execute,
    plan,
    produce_candidates,
)
from .config import CampaignConfig, SectionJob, _job_section_id, load_campaign_config
from .errors import PcaotError, UsageError
from .pattern import ValidationStatus
from .report import aggregate, emit_reports

log = logging.getLogger("pcaot")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcaot",
        description="Validate and time optimized versions of pragma-delimited code sections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prepare = sub.add_parser("prepare", help="check a source/manifest pair and describe it")
    prepare.add_argument("--src", required=True, type=Path, help="C source file")
    prepare.add_argument("--manifest", required=True, type=Path, help="state manifest JSON")
    prepare.add_argument("--json", action="store_true", help="machine-readable output")

    def campaign_args(p: argparse.ArgumentParser, with_section: bool = False) -> None:
        p.add_argument("--config", required=True, type=Path, help="campaign config JSON")
        p.add_argument("--out", required=True, type=Path, help="campaign output directory")
        if with_section:
            p.add_argument("--section", help="restrict to one section id")

    capture = sub.add_parser("capture", help="build and run reference captures")
    campaign_args(capture, with_section=True)

    optimize = sub.add_parser("optimize", help="produce candidate versions from all backends")
    campaign_args(optimize)

    validate = sub.add_parser("validate", help="validate and time all candidates")
    campaign_args(validate, with_section=True)
    validate.add_argument("--json", action="store_true", help="machine-readable output")

    report = sub.add_parser("report", help="aggregate records and write reports")
    campaign_args(report)

    run_p = sub.add_parser("run", help="run the whole campaign end to end")
    campaign_args(run_p, with_section=True)
    run_p.add_argument("--dry-run", action="store_true", help="print the plan and exit")
    run_p.add_argument("--json", action="store_true", help="machine-readable output")

    return parser


def _load_config(args: argparse.Namespace) -> CampaignConfig:
    config = load_campaign_config(args.config)
    section = getattr(args, "section", None)
    if section is not None:
        keep = [job for job in config.sections if _job_section_id(job) == section]
        if not keep:
            raise UsageError(f"no configured section has id {section!r}")
        config = replace(config, sections=tuple(keep))
    return config


def _cmd_prepare(args: argparse.Namespace) -> int:
    ctx = _load_section(SectionJob(args.src, args.manifest))
    section, manifest = ctx.section, ctx.manifest
    doc = {
        "section_id": section.id,
        "start_line": section.start_line,
        "end_line": section.end_line,
        "lines": section.line_count,
        "parallelizable": manifest.parallelizable,
        "expected_pattern": manifest.expected_pattern,
        "non_parallel_reason": manifest.non_parallel_reason,
        "variables": [
            {
                "name": v.name,
                "elem_type": v.elem_type,
                "extents": list(v.extents),
                "direction": v.direction,
            }
            for v in manifest.variables
        ],
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"section {section.id}: lines {section.start_line}..{section.end_line} "
              f"({section.line_count} inside)")
        kind = (
            f"parallelizable, expected {manifest.expected_pattern}"
            if manifest.parallelizable
            else f"not parallelizable ({manifest.non_parallel_reason})"
        )
        print(f"  {kind}")
        for v in manifest.variables:
            shape = "x".join(str(e) for e in v.extents) if v.extents else "scalar"
            print(f"  {v.direction:>5}  {v.name}: {v.elem_type} [{shape}]")
    return 0


def _cmd_capture(args: argparse.Namespace) -> int:
    config = _load_config(args)
    failed = 0
    for job in config.sections:
        try:
            ctx = capture_section(job, config, args.out)
        except CaptureFailure as exc:
            log.error("%s", exc)
            failed += 1
            continue
        print(f"captured {ctx.manifest.section_id}: {ctx.out_ckpt}")
    return 1 if failed else 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    config = _load_config(args)
    rows = produce_candidates(config, args.out)
    produced = sum(1 for row in rows.values() if row.code is not None)
    errored = len(rows) - produced
    print(f"candidates: {produced} produced, {errored} errored "
          f"({args.out / 'candidates.jsonl'})")
    return 1 if errored else 0


def _planned_ids(config: CampaignConfig) -> set[str]:
    """Each planned section's id, read before the campaign runs: a candidate can rewrite it."""
    return {
        _job_section_id(job) or f"<unreadable: {job.manifest_path}>" for job in config.sections
    }


def _summarize(records: list[OutcomeRecord], planned: set[str]) -> dict:
    skipped = sorted(planned - {r.section_id for r in records})
    failures = sum(1 for r in records if r.status is not ValidationStatus.PASS)
    return {
        "records": len(records),
        "passes": len(records) - failures,
        "failures": failures,
        "skipped_sections": skipped,
    }


def _print_summary(summary: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return
    print(f"records: {summary['records']}  pass: {summary['passes']}  "
          f"fail: {summary['failures']}")
    if summary["skipped_sections"]:
        print("skipped sections: " + ", ".join(summary["skipped_sections"]))


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    planned = _planned_ids(config)
    records = execute(plan(config), config, args.out)
    summary = _summarize(records, planned)
    _print_summary(summary, args.json)
    return 1 if summary["failures"] or summary["skipped_sections"] else 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = _load_config(args)
    records = _load_jsonl(Path(args.out) / "records.jsonl", OutcomeRecord.from_dict)
    if not records:
        raise PcaotError(f"no records found under {args.out}; run validate first")
    metrics = aggregate(records, config)
    paths = emit_reports(metrics, records, args.out)
    for path in paths:
        print(str(path))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    experiment = plan(config)
    if args.dry_run:
        doc = {
            "sections": len(experiment.jobs),
            "versions_per_section": experiment.versions_per_section,
            "total_versions": experiment.total_versions,
            "total_llm_attempts": experiment.total_llm_attempts,
        }
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(f"{doc['sections']} section(s), {doc['versions_per_section']} versions each "
                  f"({doc['total_versions']} total, {doc['total_llm_attempts']} LLM attempts)")
        return 0
    planned = _planned_ids(config)
    records = execute(experiment, config, args.out)
    metrics = aggregate(records, config)
    emit_reports(metrics, records, args.out)
    summary = _summarize(records, planned)
    _print_summary(summary, args.json)
    return 1 if summary["failures"] or summary["skipped_sections"] else 0


_COMMANDS = {
    "prepare": _cmd_prepare,
    "capture": _cmd_capture,
    "optimize": _cmd_optimize,
    "validate": _cmd_validate,
    "report": _cmd_report,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="pcaot: %(levelname)s: %(message)s"
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; keep its code.
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"pcaot: error: {exc}", file=sys.stderr)
        return 2
    except PcaotError as exc:
        print(f"pcaot: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
