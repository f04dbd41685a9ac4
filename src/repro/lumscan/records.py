"""Compact columnar storage for scan results.

A full Top-10K study is 8,003 domains × 177 countries × 3 samples ≈ 4.2M
records, so :class:`ScanDataset` is a genuine column store: domain,
country, and error kind are integer-coded categoricals (a code table of
unique strings plus an integer index array per column), status and
length live in numpy arrays, and bodies sit in a sparse side table.
Bodies are retained only
when they can possibly matter to the pipeline — non-200 responses and
short pages (every CDN block page, captcha, and challenge is well under
the threshold); multi-hundred-KB origin pages keep only their length,
which is all the outlier heuristic needs.

The aggregation kernels (``count_status``, ``error_rate_by_domain``,
``response_rate_by_country``, ``lengths_by_domain``) are vectorized over
the code arrays — bincount-style grouping instead of per-row Python
loops — and the column accessors (:meth:`status_array`, ...) let the
analysis layer (``repro.core.lengths`` and friends) run at numpy speed
too.  Scalar reference implementations of every kernel are retained in
:mod:`repro.core.reference` for equivalence testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Collection,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.httpsim.messages import BODY_KEEP_THRESHOLD

#: Sentinel status for failed probes (no HTTP response).
NO_RESPONSE = 0

#: Error-code sentinel for rows that carried an HTTP response.
NO_ERROR = -1

_INITIAL_CAPACITY = 64


@dataclass(frozen=True)
class Sample:
    """One probe outcome (a row view over the column store)."""

    domain: str
    country: str
    status: int                  # HTTP status, or NO_RESPONSE on failure
    length: int                  # body length (0 on failure)
    body: Optional[str]          # retained body, when kept
    error: Optional[str]         # FetchError.kind on failure
    interfered: bool = False     # ground-truth flag: local-firewall artifact

    @property
    def ok(self) -> bool:
        """True when an HTTP response was received."""
        return self.status != NO_RESPONSE


@dataclass(frozen=True)
class ShardColumns:
    """A dataset's columns as one flat, transport-ready bundle.

    This is the exchange currency between :class:`ScanDataset` and the
    shard codec in :mod:`repro.lumscan.shards`: five fixed-dtype row
    columns, three string code tables, and the two sparse side tables.
    :meth:`ScanDataset.export_columns` produces one (zero-copy views over
    the live buffers — treat it as a frozen snapshot, invalidated by
    further appends) and :meth:`ScanDataset.extend_columns` consumes one,
    so a merge never needs the source ``ScanDataset`` object itself.
    """

    n: int                           # row count (arrays are exactly this long)
    dcodes: np.ndarray               # int32 domain code per row
    ccodes: np.ndarray               # int32 country code per row
    statuses: np.ndarray             # int16 HTTP status per row
    lengths: np.ndarray              # int64 body length per row
    ecodes: np.ndarray               # int16 error code per row (NO_ERROR = ok)
    domain_names: Sequence[str]      # domain code table, first-seen order
    country_names: Sequence[str]     # country code table, first-seen order
    error_names: Sequence[str]       # error-kind code table, first-seen order
    bodies: Mapping[int, str]        # retained bodies keyed by row index
    interfered: Collection[int]      # row indices flagged as interfered


class ScanDataset:
    """Column-oriented collection of :class:`Sample` records.

    Records are stored in append order.  The scanners append samples for a
    (country, domain) pair contiguously, and `pairs()` exploits that to
    iterate without building a giant index.  Run boundaries are detected
    by *code equality*, never object identity, so datasets survive any
    round trip (JSON, merge, inter-process) without fragmenting runs.
    """

    # Each engine worker appends to its own shard-local dataset; shards
    # are merged in the parent via extend(), so no instance is ever
    # written from two threads.
    # lint: confined(per-worker shards merged in parent)

    #: Growable numpy row columns, in canonical shard order.
    COLUMN_BUFFERS = ("_dcodes", "_ccodes", "_statuses", "_lengths", "_ecodes")

    def __init__(self) -> None:
        # Categorical code tables: string -> code, and code -> string.
        self._domain_code: Dict[str, int] = {}
        self._domain_names: List[str] = []
        self._country_code: Dict[str, int] = {}
        self._country_names: List[str] = []
        self._error_code: Dict[str, int] = {}
        self._error_names: List[str] = []
        # Row columns (growable numpy buffers; valid rows are [:_n]).
        self._n = 0
        self._dcodes = np.empty(_INITIAL_CAPACITY, dtype=np.int32)
        self._ccodes = np.empty(_INITIAL_CAPACITY, dtype=np.int32)
        self._statuses = np.empty(_INITIAL_CAPACITY, dtype=np.int16)
        self._lengths = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._ecodes = np.empty(_INITIAL_CAPACITY, dtype=np.int16)
        # Sparse side tables.
        self._bodies: Dict[int, str] = {}
        self._interfered: Set[int] = set()
        # Backing segment mapping for mapped datasets (see from_columns).
        self._source: Optional[object] = None
        self._closed = False

    @classmethod
    def from_columns(cls, cols: ShardColumns,
                     source: Optional[object] = None) -> "ScanDataset":
        """Adopt a column bundle as a dataset without copying the rows.

        The inverse of :meth:`export_columns`: the five row columns are
        taken as-is — for a decoded LSHD segment they are zero-copy
        views over the mapping, so a million-row checkpoint opens in
        O(columns) — and the code dicts are rebuilt from the name
        tables.  ``source`` (a
        :class:`~repro.lumscan.shards.SegmentMapping`) hands this
        dataset ownership of the mapping's lifetime; release it with
        :meth:`close`.  Mapped datasets are fully functional: the
        kernels and accessors run directly on the mapped buffers, and
        the first append detaches into fresh writable buffers via the
        usual capacity growth.
        """
        data = cls.__new__(cls)
        data._domain_names = list(cols.domain_names)
        data._domain_code = {name: code
                             for code, name in enumerate(data._domain_names)}
        data._country_names = list(cols.country_names)
        data._country_code = {name: code
                              for code, name in enumerate(data._country_names)}
        data._error_names = list(cols.error_names)
        data._error_code = {name: code
                            for code, name in enumerate(data._error_names)}
        m = cols.n
        data._n = m
        data._dcodes = cols.dcodes[:m]
        data._ccodes = cols.ccodes[:m]
        data._statuses = cols.statuses[:m]
        data._lengths = cols.lengths[:m]
        data._ecodes = cols.ecodes[:m]
        data._bodies = {int(row): body for row, body in cols.bodies.items()}
        data._interfered = {int(row) for row in cols.interfered}
        data._source = source
        data._closed = False
        return data

    @property
    def is_mapped(self) -> bool:
        """True while the columns are views over a backing segment mapping."""
        return self._source is not None

    def close(self) -> bool:
        """Invalidate this dataset and release its backing mapping.

        After close the dataset reads as empty and the column accessors
        raise; views handed out earlier (``status_array()`` and
        friends) stay valid — they pin the mapping until they are
        garbage-collected, in which case close returns False and the OS
        reclaims the pages when the last view dies.  Closing a plain
        in-memory dataset just empties it.
        """
        self._closed = True
        self._n = 0
        for name in self.COLUMN_BUFFERS:
            # Read only the dtype: a local reference to the buffer
            # itself would pin the mapping through source.close() below.
            dtype = getattr(self, name).dtype
            setattr(self, name, np.empty(0, dtype=dtype))
        self._bodies = {}
        self._interfered = set()
        source, self._source = self._source, None
        return True if source is None else source.close()

    # ------------------------------------------------------------------ #
    # Mutation

    def _reserve(self, capacity: int) -> None:
        current = self._dcodes.shape[0]
        if capacity <= current:
            return
        new = max(capacity, current * 2)
        for name in self.COLUMN_BUFFERS:
            old = getattr(self, name)
            grown = np.empty(new, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    @staticmethod
    def _intern(code_of: Dict[str, int], names: List[str], value: str) -> int:
        code = code_of.get(value)
        if code is None:
            code = len(names)
            code_of[value] = code
            names.append(value)
        return code

    def append(self, domain: str, country: str, status: int, length: int,
               body: Optional[str], error: Optional[str] = None,
               interfered: bool = False) -> None:
        """Append one record (bodies above the threshold are dropped)."""
        if self._closed:
            raise ValueError("dataset is closed")
        index = self._n
        self._reserve(index + 1)
        self._dcodes[index] = self._intern(self._domain_code,
                                           self._domain_names, domain)
        self._ccodes[index] = self._intern(self._country_code,
                                           self._country_names, country)
        self._statuses[index] = status
        self._lengths[index] = length
        self._ecodes[index] = NO_ERROR if error is None else \
            self._intern(self._error_code, self._error_names, error)
        if body is not None and (status != 200 or length <= BODY_KEEP_THRESHOLD):
            self._bodies[index] = body
        if interfered:
            self._interfered.add(index)
        self._n = index + 1

    def extend(self, other: "ScanDataset") -> None:
        """Append all records of ``other``, reconciling the code tables.

        The other dataset's categorical codes are remapped through this
        dataset's tables (one dict lookup per *unique* label), then the
        row columns are copied in bulk — no per-row Python work.
        """
        self.extend_columns(other.export_columns())

    def export_columns(self) -> ShardColumns:
        """This dataset's columns as a flat :class:`ShardColumns` bundle.

        The arrays are read-only zero-copy views over the live buffers
        (trimmed to the valid prefix) and the tables are the live
        containers; the bundle is a snapshot that later appends to this
        dataset invalidate.  This is the export half of the shard
        exchange — the shard codec serializes exactly these fields.
        """
        return ShardColumns(
            n=self._n,
            dcodes=self._view(self._dcodes),
            ccodes=self._view(self._ccodes),
            statuses=self._view(self._statuses),
            lengths=self._view(self._lengths),
            ecodes=self._view(self._ecodes),
            domain_names=self._domain_names,
            country_names=self._country_names,
            error_names=self._error_names,
            bodies=self._bodies,
            interfered=self._interfered,
        )

    def extend_columns(self, cols: ShardColumns) -> None:
        """Append all rows of a :class:`ShardColumns` bundle.

        The import half of the shard exchange: categorical codes are
        remapped through this dataset's tables (one dict lookup per
        *unique* label), then the row columns are copied in bulk — no
        per-row Python work.  Appending bundles in chunk-sequence order
        reproduces a serial scan bit-for-bit, because code tables intern
        labels in first-seen row order.
        """
        if self._closed:
            raise ValueError("dataset is closed")
        m = cols.n
        if m == 0:
            return
        offset = self._n
        dmap = np.fromiter(
            (self._intern(self._domain_code, self._domain_names, name)
             for name in cols.domain_names),
            dtype=np.int32, count=len(cols.domain_names))
        cmap = np.fromiter(
            (self._intern(self._country_code, self._country_names, name)
             for name in cols.country_names),
            dtype=np.int32, count=len(cols.country_names))
        self._reserve(offset + m)
        self._dcodes[offset:offset + m] = dmap[cols.dcodes[:m]]
        self._ccodes[offset:offset + m] = cmap[cols.ccodes[:m]]
        self._statuses[offset:offset + m] = cols.statuses[:m]
        self._lengths[offset:offset + m] = cols.lengths[:m]
        ecodes = cols.ecodes[:m]
        if len(cols.error_names):
            emap = np.fromiter(
                (self._intern(self._error_code, self._error_names, name)
                 for name in cols.error_names),
                dtype=np.int16, count=len(cols.error_names))
            self._ecodes[offset:offset + m] = np.where(
                ecodes == NO_ERROR, np.int16(NO_ERROR),
                emap[np.maximum(ecodes, 0)])
        else:
            self._ecodes[offset:offset + m] = ecodes
        for idx, body in cols.bodies.items():
            self._bodies[offset + idx] = body
        if cols.interfered:
            self._interfered.update(offset + idx for idx in cols.interfered)
        self._n = offset + m

    # ------------------------------------------------------------------ #
    # Pickling (process-executor transport)

    def __getstate__(self):
        # Ship only the valid prefix of each growable buffer: worker
        # processes return many small chunk datasets, and the empty
        # over-allocated capacity would otherwise dominate the pickle.
        # Mapped datasets pickle as plain copies — the mapping itself
        # never crosses a process boundary.
        state = self.__dict__.copy()
        for name in self.COLUMN_BUFFERS:
            state[name] = self.__dict__[name][: self._n].copy()
        state["_source"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.__dict__.setdefault("_source", None)
        self.__dict__.setdefault("_closed", False)

    # ------------------------------------------------------------------ #
    # Row access

    def __len__(self) -> int:
        return self._n

    def row(self, index: int) -> Sample:
        """Materialize the record at ``index``."""
        if self._closed:
            raise ValueError("dataset is closed")
        if not 0 <= index < self._n:
            raise IndexError(f"row index {index} out of range")
        return Sample(
            domain=self._domain_names[self._dcodes[index]],
            country=self._country_names[self._ccodes[index]],
            status=int(self._statuses[index]),
            length=int(self._lengths[index]),
            body=self._bodies.get(index),
            error=self.error(index),
            interfered=index in self._interfered,
        )

    def __iter__(self) -> Iterator[Sample]:
        for index in range(self._n):
            yield self.row(index)

    def body(self, index: int) -> Optional[str]:
        """The retained body at ``index`` (None when dropped or absent)."""
        return self._bodies.get(index)

    def error(self, index: int) -> Optional[str]:
        """The error kind at ``index`` (None for HTTP responses)."""
        code = self._ecodes[index]
        return None if code == NO_ERROR else self._error_names[code]

    # ------------------------------------------------------------------ #
    # Columnar views (read-only; shared with the analysis kernels)

    def _view(self, buffer: np.ndarray) -> np.ndarray:
        if self._closed:
            raise ValueError("dataset is closed")
        view = buffer[: self._n]
        view.flags.writeable = False
        return view

    def status_array(self) -> np.ndarray:
        """Status per row (int16 view; NO_RESPONSE for failures)."""
        return self._view(self._statuses)

    def length_array(self) -> np.ndarray:
        """Body length per row (int64 view)."""
        return self._view(self._lengths)

    def domain_code_array(self) -> np.ndarray:
        """Domain code per row (int32 view into :meth:`domains`)."""
        return self._view(self._dcodes)

    def country_code_array(self) -> np.ndarray:
        """Country code per row (int32 view into :meth:`countries`)."""
        return self._view(self._ccodes)

    def domain_code(self, domain: str) -> Optional[int]:
        """Categorical code of ``domain`` (None when never seen)."""
        return self._domain_code.get(domain)

    def country_code(self, country: str) -> Optional[int]:
        """Categorical code of ``country`` (None when never seen)."""
        return self._country_code.get(country)

    def ok_array(self) -> np.ndarray:
        """Boolean mask of rows with an HTTP response."""
        return self.status_array() != NO_RESPONSE

    def has_body_array(self) -> np.ndarray:
        """Boolean mask of rows whose body was retained."""
        mask = np.zeros(self._n, dtype=bool)
        if self._bodies:
            mask[np.fromiter(self._bodies.keys(), dtype=np.int64,
                             count=len(self._bodies))] = True
        return mask

    def error_mask(self, kind: str) -> np.ndarray:
        """Boolean mask of rows that failed with error ``kind``."""
        code = self._error_code.get(kind)
        if code is None:
            return np.zeros(self._n, dtype=bool)
        return self._view(self._ecodes) == code

    def country_mask(self, countries) -> np.ndarray:
        """Boolean mask of rows whose country is in ``countries``."""
        allowed = np.zeros(len(self._country_names), dtype=bool)
        for country in countries:
            code = self._country_code.get(country)
            if code is not None:
                allowed[code] = True
        return allowed[self.country_code_array()] if self._n else \
            np.zeros(0, dtype=bool)

    # ------------------------------------------------------------------ #
    # Iteration over contiguous (domain, country) runs

    def iter_runs(self) -> Iterator[Tuple[str, str, int, int]]:
        """Yield (domain, country, start, stop) over contiguous runs.

        Run boundaries come from a single vectorized comparison of the
        code columns; consumers that only need counts or selective row
        access use this to skip Sample materialization entirely.
        """
        n = self._n
        if n == 0:
            return
        dcodes = self._dcodes[:n]
        ccodes = self._ccodes[:n]
        breaks = np.flatnonzero((dcodes[1:] != dcodes[:-1])
                                | (ccodes[1:] != ccodes[:-1])) + 1
        starts = np.concatenate(([0], breaks))
        stops = np.concatenate((breaks, [n]))
        domain_names = self._domain_names
        country_names = self._country_names
        for start, stop in zip(starts.tolist(), stops.tolist()):
            yield (domain_names[dcodes[start]], country_names[ccodes[start]],
                   start, stop)

    def pairs(self) -> Iterator[Tuple[str, str, List[Sample]]]:
        """Iterate (domain, country, samples) over contiguous runs."""
        for domain, country, start, stop in self.iter_runs():
            yield domain, country, [self.row(i) for i in range(start, stop)]

    # ------------------------------------------------------------------ #
    # Vectorized aggregation kernels

    def domains(self) -> List[str]:
        """Unique domains in first-seen order (the code table)."""
        return list(self._domain_names)

    def countries(self) -> List[str]:
        """Unique countries in first-seen order (the code table)."""
        return list(self._country_names)

    def count_status(self, status: int) -> int:
        """Number of records with the given HTTP status."""
        return int(np.count_nonzero(self._statuses[: self._n] == status))

    def error_rate_by_domain(self) -> Dict[str, float]:
        """Fraction of failed probes per domain (bincount grouping)."""
        n = self._n
        if n == 0:
            return {}
        dcodes = self._dcodes[:n]
        n_domains = len(self._domain_names)
        totals = np.bincount(dcodes, minlength=n_domains)
        fails = np.bincount(dcodes[self._statuses[:n] == NO_RESPONSE],
                            minlength=n_domains)
        names = self._domain_names
        return {names[code]: float(fails[code]) / float(totals[code])
                for code in range(n_domains) if totals[code]}

    def response_rate_by_country(self) -> Dict[str, float]:
        """Per country: fraction of domains with >= 1 valid response.

        Distinct (country, domain) combinations are found with one
        ``np.unique`` over a fused 64-bit key instead of per-row set
        insertion.
        """
        n = self._n
        if n == 0:
            return {}
        n_domains = len(self._domain_names)
        n_countries = len(self._country_names)
        keys = self._ccodes[:n].astype(np.int64) * n_domains \
            + self._dcodes[:n]
        tested = np.unique(keys)
        responded = np.unique(keys[self._statuses[:n] != NO_RESPONSE])
        tested_counts = np.bincount(tested // n_domains,
                                    minlength=n_countries)
        responded_counts = np.bincount(responded // n_domains,
                                       minlength=n_countries)
        names = self._country_names
        return {names[code]:
                float(responded_counts[code]) / float(tested_counts[code])
                for code in range(n_countries) if tested_counts[code]}

    def lengths_by_domain(self) -> Dict[str, List[int]]:
        """Map domain -> all observed 200-response body lengths.

        Grouping is a stable argsort over the domain codes of the
        200-status rows, so each domain's lengths keep append order.
        """
        n = self._n
        if n == 0:
            return {}
        hit = np.flatnonzero(self._statuses[:n] == 200)
        if hit.size == 0:
            return {}
        codes = self._dcodes[hit]
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        sorted_lengths = self._lengths[hit][order]
        boundaries = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        groups = np.split(sorted_lengths, boundaries)
        names = self._domain_names
        return {names[sorted_codes[start]]: group.tolist()
                for start, group in zip(starts.tolist(), groups)}


# perfbench/workloads.py::result_digest imports this name; drop the alias
# once the benchmark stops importing it.
SegmentedScanDataset = ScanDataset
