"""Scalar reference implementations of the columnar analytics kernels.

:class:`~repro.lumscan.records.ScanDataset` and :mod:`repro.core.lengths`
run their aggregation kernels as vectorized numpy expressions.  This
module retains the original row-at-a-time implementations — one pass of
Python-level :class:`Sample` materialization per kernel — as the ground
truth for the equivalence suite (``tests/test_columnar_equiv.py``) and
as the baseline for ``benchmarks/test_columnar.py``.

Every function here touches only the public row API (``row``,
``__iter__``), never the column arrays, so it exercises a genuinely
independent code path.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.lengths import Outlier
from repro.lumscan.records import NO_RESPONSE, Sample, ScanDataset


def count_status(dataset: ScanDataset, status: int) -> int:
    """Scalar reference for :meth:`ScanDataset.count_status`."""
    return sum(1 for sample in dataset if sample.status == status)


def error_rate_by_domain(dataset: ScanDataset) -> Dict[str, float]:
    """Scalar reference for :meth:`ScanDataset.error_rate_by_domain`."""
    totals: Dict[str, int] = {}
    fails: Dict[str, int] = {}
    for sample in dataset:
        totals[sample.domain] = totals.get(sample.domain, 0) + 1
        if sample.status == NO_RESPONSE:
            fails[sample.domain] = fails.get(sample.domain, 0) + 1
    return {d: fails.get(d, 0) / totals[d] for d in totals}


def response_rate_by_country(dataset: ScanDataset) -> Dict[str, float]:
    """Scalar reference for :meth:`ScanDataset.response_rate_by_country`."""
    responded: Dict[str, set] = {}
    tested: Dict[str, set] = {}
    for sample in dataset:
        tested.setdefault(sample.country, set()).add(sample.domain)
        if sample.status != NO_RESPONSE:
            responded.setdefault(sample.country, set()).add(sample.domain)
    return {c: len(responded.get(c, ())) / len(doms)
            for c, doms in tested.items()}


def lengths_by_domain(dataset: ScanDataset) -> Dict[str, List[int]]:
    """Scalar reference for :meth:`ScanDataset.lengths_by_domain`."""
    out: Dict[str, List[int]] = {}
    for sample in dataset:
        if sample.status == 200:
            out.setdefault(sample.domain, []).append(sample.length)
    return out


def pairs(dataset: ScanDataset) -> Iterator[Tuple[str, str, List[Sample]]]:
    """Scalar reference for :meth:`ScanDataset.pairs` (equality runs)."""
    n = len(dataset)
    start = 0
    while start < n:
        end = start
        first = dataset.row(start)
        while end < n:
            candidate = dataset.row(end)
            if (candidate.domain != first.domain
                    or candidate.country != first.country):
                break
            end += 1
        yield first.domain, first.country, [dataset.row(i)
                                            for i in range(start, end)]
        start = end


def representative_lengths(dataset: ScanDataset,
                           reference_countries: Optional[Sequence[str]] = None
                           ) -> Dict[str, int]:
    """Scalar reference for :func:`repro.core.lengths.representative_lengths`."""
    allowed = set(reference_countries) if reference_countries is not None \
        else None
    reps: Dict[str, int] = {}
    for sample in dataset:
        if not sample.ok:
            continue
        if allowed is not None and sample.country not in allowed:
            continue
        current = reps.get(sample.domain, -1)
        if sample.length > current:
            reps[sample.domain] = sample.length
    return reps


def extract_outliers(dataset: ScanDataset,
                     representatives: Mapping[str, int],
                     cutoff: float = 0.30,
                     raw_cutoff: Optional[int] = None,
                     countries: Optional[Sequence[str]] = None
                     ) -> List[Outlier]:
    """Scalar reference for :func:`repro.core.lengths.extract_outliers`."""
    if not 0.0 < cutoff < 1.0:
        raise ValueError("cutoff must be in (0, 1)")
    allowed = set(countries) if countries is not None else None
    outliers: List[Outlier] = []
    for index in range(len(dataset)):
        sample = dataset.row(index)
        if not sample.ok:
            continue
        if allowed is not None and sample.country not in allowed:
            continue
        rep = representatives.get(sample.domain)
        if rep is None or rep <= 0:
            continue
        difference = rep - sample.length
        relative = difference / rep
        if raw_cutoff is not None:
            flagged = difference > raw_cutoff
        else:
            flagged = relative > cutoff
        if flagged:
            outliers.append(Outlier(index=index, sample=sample,
                                    representative=rep,
                                    relative_difference=relative))
    return outliers


def relative_differences(dataset: ScanDataset,
                         representatives: Mapping[str, int]
                         ) -> List[Tuple[float, bool]]:
    """Scalar reference for :func:`repro.core.lengths.relative_differences`."""
    out: List[Tuple[float, bool]] = []
    for sample in dataset:
        if not sample.ok:
            continue
        rep = representatives.get(sample.domain)
        if rep is None or rep <= 0:
            continue
        out.append(((rep - sample.length) / rep, sample.body is not None))
    return out
