"""Metrics and reports: aggregate folds a campaign's OutcomeRecords into Metrics,
and emit_reports writes records.csv, metrics.json and three SVG charts."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from ._svg import grouped_bar_chart
from .config import SERIAL_TOOL_ID, CampaignConfig, _job_section_id
from .errors import PcaotError
from .pattern import OutcomeCategory, ValidationStatus

CSV_COLUMNS = (
    "section_id",
    "tool",
    "strategy",
    "attempt",
    "status",
    "category",
    "detected_patterns",
    "lines",
    "median_time_ns",
    "speedup",
)


class IoFailure(PcaotError):
    """The output directory could not be written."""


@dataclass(frozen=True)
class Metrics:
    """Aggregated campaign statistics, all JSON-friendly."""

    failure_rate_by_bucket: dict = field(default_factory=dict)
    category_rates: dict = field(default_factory=dict)
    speedup_table: dict = field(default_factory=dict)
    overall_success_rate: float | None = None
    speedup_vs_hand_optimized: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        doc = {
            "failure_rate_by_bucket": self.failure_rate_by_bucket,
            "category_rates": self.category_rates,
            "speedup_table": self.speedup_table,
            "overall_success_rate": self.overall_success_rate,
        }
        if self.speedup_vs_hand_optimized:
            doc["speedup_vs_hand_optimized"] = self.speedup_vs_hand_optimized
        return doc


def _bucket_labels(bounds: tuple[int, ...]) -> list[str]:
    labels = []
    low = 0
    for bound in bounds:
        labels.append(f"({low},{bound}]")
        low = bound
    labels.append(f"({low},inf)")
    return labels


def _bucket_for(lines: int, bounds: tuple[int, ...]) -> str:
    labels = _bucket_labels(bounds)
    return next((label for label, bound in zip(labels, bounds) if lines <= bound), labels[-1])


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def _speedup_map(records: list, value_of) -> dict:
    """Per-tool {by_strategy: {strategy: mean}, max_mean} over passing records."""
    by_tool: dict[str, dict[str, list[float]]] = {}
    for record in records:
        value = value_of(record)
        if value is None:
            continue
        strategy = record.strategy if record.strategy is not None else "default"
        by_tool.setdefault(record.tool, {}).setdefault(strategy, []).append(value)
    table: dict = {}
    for tool in sorted(by_tool):
        means = {
            strategy: _mean(values) for strategy, values in sorted(by_tool[tool].items())
        }
        table[tool] = {
            "by_strategy": means,
            "max_mean": max(means.values()) if means else None,
        }
    return table


def aggregate(records: list, config: CampaignConfig) -> Metrics:
    """Fold outcome records into campaign metrics.

    The serial baseline is excluded everywhere; failure-by-size and the
    overall success rate cover LLM-origin attempts only.
    """
    llm_tools = config.llm_tool_ids
    tool_records = [r for r in records if r.tool != SERIAL_TOOL_ID]
    llm_records = [r for r in tool_records if r.tool in llm_tools]

    buckets: dict[str, dict[str, int]] = {}
    for record in llm_records:
        label = _bucket_for(record.lines, config.size_buckets)
        stats = buckets.setdefault(label, {"failures": 0, "attempts": 0})
        stats["attempts"] += 1
        if record.status is not ValidationStatus.PASS:
            stats["failures"] += 1
    failure_rate_by_bucket = {
        label: {**buckets[label], "rate": buckets[label]["failures"] / buckets[label]["attempts"]}
        for label in _bucket_labels(config.size_buckets)
        if label in buckets
    }

    category_rates: dict = {}
    for record in tool_records:
        strategy = record.strategy if record.strategy is not None else "default"
        hist = (
            category_rates.setdefault(record.pattern, {})
            .setdefault(record.tool, {})
            .setdefault(strategy, {})
        )
        hist[record.category.value] = hist.get(record.category.value, 0) + 1

    speedup_table = _speedup_map(tool_records, lambda r: r.speedup)

    hand_ns: dict[str, int] = {}
    for job in config.sections:
        if job.hand_optimized_ns is not None:
            hand_ns[_job_section_id(job)] = job.hand_optimized_ns
    speedup_vs_hand = _speedup_map(
        tool_records,
        lambda r: (
            hand_ns[r.section_id] / r.median_time_ns
            if r.section_id in hand_ns
            and r.status is ValidationStatus.PASS
            and r.median_time_ns
            else None
        ),
    )

    overall = None
    if llm_records:
        passes = sum(1 for r in llm_records if r.status is ValidationStatus.PASS)
        overall = passes / len(llm_records)

    return Metrics(
        failure_rate_by_bucket=failure_rate_by_bucket,
        category_rates=category_rates,
        speedup_table=speedup_table,
        overall_success_rate=overall,
        speedup_vs_hand_optimized=speedup_vs_hand,
    )


def _ensure_dir(path: Path) -> Path:
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create directory {path}: {exc}") from exc
    return path


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _records_csv(records: list) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(
            [
                record.section_id,
                record.tool,
                record.strategy or "",
                record.attempt if record.attempt is not None else "",
                record.status.value,
                record.category.value,
                ";".join(record.detected),
                record.lines,
                record.median_time_ns if record.median_time_ns is not None else "",
                repr(record.speedup) if record.speedup is not None else "",
            ]
        )
    return buffer.getvalue()


def emit_reports(metrics: Metrics, records: list, outdir: Path) -> list[Path]:
    """Write records.csv, metrics.json and the three SVG charts.

    Byte-deterministic: the same metrics and records always produce
    identical files.
    """
    outdir = _ensure_dir(outdir)
    csv_path = outdir / "records.csv"
    _write_text(csv_path, _records_csv(records))

    metrics_path = outdir / "metrics.json"
    _write_text(
        metrics_path, json.dumps(metrics.to_json_dict(), indent=2, sort_keys=True) + "\n"
    )

    bucket_labels = list(metrics.failure_rate_by_bucket.keys())
    failure_svg = grouped_bar_chart(
        title="Failure rate by section size (lines)",
        ylabel="failure rate",
        groups=bucket_labels,
        series=[
            (
                "LLM attempts",
                [metrics.failure_rate_by_bucket[label]["rate"] for label in bucket_labels],
            )
        ],
    )
    failure_path = outdir / "failure_by_size.svg"
    _write_text(failure_path, failure_svg)

    patterns = sorted(metrics.category_rates)
    categories = [c.value for c in OutcomeCategory]
    series = []
    for category in categories:
        values: list[float | None] = []
        for pattern in patterns:
            total = 0
            for tool_hist in metrics.category_rates[pattern].values():
                for strat_hist in tool_hist.values():
                    total += strat_hist.get(category, 0)
            values.append(float(total) if total else None)
        series.append((category, values))
    categories_svg = grouped_bar_chart(
        title="Outcome categories by expected pattern",
        ylabel="candidates",
        groups=patterns,
        series=series,
    )
    categories_path = outdir / "pattern_categories.svg"
    _write_text(categories_path, categories_svg)

    tools = sorted(metrics.speedup_table)
    strategies = sorted(
        {s for tool in tools for s in metrics.speedup_table[tool]["by_strategy"]}
    )
    speedup_series = [
        (
            strategy,
            [metrics.speedup_table[tool]["by_strategy"].get(strategy) for tool in tools],
        )
        for strategy in strategies
    ]
    speedups_svg = grouped_bar_chart(
        title="Mean speedup over serial (passing candidates)",
        ylabel="speedup",
        groups=tools,
        series=speedup_series,
    )
    speedups_path = outdir / "speedups.svg"
    _write_text(speedups_path, speedups_svg)

    return [csv_path, metrics_path, failure_path, categories_path, speedups_path]
