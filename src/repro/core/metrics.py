"""Metric evaluation: heuristic recall (§4.1.5) and ground-truth scoring.

Two kinds of evaluation live here:

* **Heuristic evaluation** mirrors the paper: once fingerprints exist, the
  length heuristic's recall can be measured per page type (Table 2), and
  the initial-sample-size false-negative tradeoff quantified (Figure 3).
* **Ground-truth evaluation** is something the paper could not do — the
  simulator knows the true policies, so the pipeline's end-to-end
  precision/recall are measurable exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.classify import classify_sample
from repro.core.fingerprints import FingerprintRegistry, PAGE_DISPLAY_NAMES
from repro.core.lengths import extract_outliers
from repro.core.resample import ConfirmedBlock
from repro.lumscan.records import ScanDataset
from repro.websim.world import World


@dataclass(frozen=True)
class RecallRow:
    """One row of Table 2."""

    page_type: str
    display_name: str
    recalled: int
    actual: int

    @property
    def recall(self) -> float:
        """recalled / actual (1.0 when nothing to recall)."""
        return self.recalled / self.actual if self.actual else 1.0


def recall_by_fingerprint(dataset: ScanDataset,
                          representatives: Mapping[str, int],
                          cutoff: float = 0.30,
                          raw_cutoff: Optional[int] = None,
                          registry: Optional[FingerprintRegistry] = None,
                          restrict_countries: Optional[Sequence[str]] = None
                          ) -> List[RecallRow]:
    """Table 2: per page type, how many fingerprinted samples the length
    heuristic would have flagged as outliers."""
    reg = registry or FingerprintRegistry.default()

    outlier_indices: Set[int] = {
        o.index for o in extract_outliers(dataset, dict(representatives),
                                          cutoff=cutoff, raw_cutoff=raw_cutoff)
    }
    # Candidate rows (HTTP response + retained body, optionally country
    # restricted) come from one mask expression; each distinct body text
    # hits the fingerprint matcher once.
    mask = dataset.ok_array() & dataset.has_body_array()
    if restrict_countries is not None:
        mask &= dataset.country_mask(restrict_countries)
    match_memo: Dict[str, Optional[str]] = {}
    recalled: Dict[str, int] = {}
    actual: Dict[str, int] = {}
    for index in np.flatnonzero(mask).tolist():
        body = dataset.body(index)
        if body in match_memo:
            page_type = match_memo[body]
        else:
            page_type = reg.match(body)
            match_memo[body] = page_type
        if page_type is None:
            continue
        actual[page_type] = actual.get(page_type, 0) + 1
        if index in outlier_indices:
            recalled[page_type] = recalled.get(page_type, 0) + 1

    rows = [
        RecallRow(page_type=pt,
                  display_name=PAGE_DISPLAY_NAMES.get(pt, pt),
                  recalled=recalled.get(pt, 0),
                  actual=actual[pt])
        for pt in sorted(actual, key=lambda p: p)
    ]
    return rows


def overall_recall(rows: Sequence[RecallRow]) -> float:
    """The Table 2 'Total' recall."""
    total_actual = sum(r.actual for r in rows)
    total_recalled = sum(r.recalled for r in rows)
    return total_recalled / total_actual if total_actual else 1.0


# --------------------------------------------------------------------- #
# Ground-truth scoring (evaluation only; uses world.policies)


@dataclass(frozen=True)
class GroundTruthScore:
    """Precision/recall of confirmed (domain, country) detections."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        """TP / (TP + FP); 1.0 when nothing was reported."""
        reported = self.true_positives + self.false_positives
        return self.true_positives / reported if reported else 1.0

    @property
    def recall(self) -> float:
        """TP / (TP + FN); 1.0 when nothing was blockable."""
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else 1.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def score_confirmed_blocks(world: World, confirmed: Sequence[ConfirmedBlock],
                           tested_domains: Sequence[str],
                           tested_countries: Sequence[str],
                           epoch: int = 1,
                           explicit_only: bool = True) -> GroundTruthScore:
    """Score confirmed pairs against the world's true policies.

    The positive class is {(domain, country) : policy blocks country}
    restricted to tested domains/countries (and, with ``explicit_only``,
    to policies served with explicit block pages).
    """
    from repro.websim.blockpages import EXPLICIT_GEOBLOCK_TYPES

    tested_d = set(tested_domains)
    tested_c = set(tested_countries)
    truth: Set[Tuple[str, str]] = set()
    for name, policy in world.policies.items():
        if name not in tested_d or not policy.active(epoch):
            continue
        if explicit_only and policy.block_page not in EXPLICIT_GEOBLOCK_TYPES:
            continue
        for country in policy.blocked_countries:
            if country in tested_c:
                truth.add((name, country))

    reported = {(c.domain, c.country) for c in confirmed}
    tp = len(reported & truth)
    fp = len(reported - truth)
    fn = len(truth - reported)
    return GroundTruthScore(true_positives=tp, false_positives=fp,
                            false_negatives=fn)
