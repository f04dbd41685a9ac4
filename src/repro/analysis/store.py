"""JSON persistence for experiment reports.

Paper-scale runs take tens of minutes; saving the resulting report lets
later sessions re-render tables, validate shapes, or compare seeds
without re-running anything.
"""

from __future__ import annotations

import json
import os
from typing import Union

from repro.analysis.experiments import ExperimentReport
from repro.analysis.figures import FigureData
from repro.analysis.tables import TableData

_FORMAT_VERSION = 1


def save_report(report: ExperimentReport, path: Union[str, os.PathLike]) -> None:
    """Serialize a report (tables, figures, findings) to JSON."""
    payload = {
        "version": _FORMAT_VERSION,
        "tables": {
            key: table.to_plain()
            for key, table in report.tables.items()  # lint: ordered(tables land in deterministic suite order; load_report rebuilds the same order, so sorting would break saved-vs-fresh comparison)
        },
        "figures": {
            key: {
                "title": figure.title,
                "x_label": figure.x_label,
                "y_label": figure.y_label,
                "series": {name: list(points)
                           for name, points in figure.series.items()},  # lint: ordered(series order is the deterministic add_series order and is legend order on render)
            }
            for key, figure in report.figures.items()  # lint: ordered(figures land in deterministic suite order, mirrored by load_report)
        },
        "findings": dict(report.findings),
        "stage_stats": {study: [dict(entry) for entry in entries]
                        for study, entries in report.stage_stats.items()},  # lint: ordered(stage stats are keyed by deterministic study execution order)
    }
    # Write-to-temp + rename: a crash mid-dump can never truncate an
    # existing report, and readers only ever see complete files.
    target = os.fspath(path)
    tmp = f"{target}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def load_report(path: Union[str, os.PathLike]) -> ExperimentReport:
    """Load a report written by :func:`save_report`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    version = payload.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported report format version: {version!r}")
    report = ExperimentReport()
    for key, data in payload.get("tables", {}).items():
        report.tables[key] = TableData.from_plain(data)
    for key, data in payload.get("figures", {}).items():
        figure = FigureData(title=data["title"], x_label=data["x_label"],
                            y_label=data["y_label"])
        for name, points in data.get("series", {}).items():
            figure.add_series(name, [tuple(p) for p in points])
        report.figures[key] = figure
    report.findings.update(payload.get("findings", {}))
    report.stage_stats.update(payload.get("stage_stats", {}))
    return report
