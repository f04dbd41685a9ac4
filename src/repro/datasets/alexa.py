"""Alexa-style ranked domain lists over the synthetic population."""

from __future__ import annotations

from typing import List, Sequence

from repro.util.rng import derive_rng
from repro.websim.domains import DomainPopulation


class AlexaList:
    """Ranked list views (Top 10K, Top 1M) of a domain population."""

    def __init__(self, population: DomainPopulation) -> None:
        self._population = population

    def top(self, n: int) -> List[str]:
        """The ``n`` highest-ranked domain names."""
        return [d.name for d in self._population.top(n)]

    def top10k(self) -> List[str]:
        """The Top-10K list (or the whole population when smaller)."""
        return self.top(min(10_000, len(self._population)))

    def full(self) -> List[str]:
        """Every ranked domain (the Top-1M stand-in)."""
        return [d.name for d in self._population]

    def sample(self, domains: Sequence[str], fraction: float,
               seed: int = 0) -> List[str]:
        """A deterministic random sample of a domain list (§5.1.2)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rng = derive_rng(seed, "alexa-sample")
        k = max(1, round(len(domains) * fraction))
        return sorted(rng.sample(list(domains), k=min(k, len(domains))))
