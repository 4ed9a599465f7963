"""Structural complexity scores, strata, and stratified sampling.

Each invocation site gets an integer node count ``d`` (all named nodes
inside the analysis subtree, excluding the subtree root) and a score
``tanh(log10(d))``, with ``d = 0`` pinned to a score of -1. Sites are then
partitioned into strata — one per distinct ``d`` for restrictive sites, or
per 0.1-wide score range for flexible sites — and sampled per stratum with
the Cochran sample-size formula plus finite-population correction.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable

from .ingest import FLEXIBLE, RESTRICTIVE, InvocationSite
from .syntax import Record

# Ranged-mode key for score = -1 (empty subtree).
EMPTY_STRATUM_KEY = -1


class Stratum(Record):
    _fields = ("key", "population", "sample_size", "member_ids")

    def __init__(self, key: int, population: int, sample_size: int = 0,
                 member_ids: list[str] | None = None) -> None:
        self.key = key
        self.population = population
        self.sample_size = sample_size
        self.member_ids = [] if member_ids is None else member_ids


class SamplePlan(Record):
    _fields = ("confidence", "margin", "seed", "strata", "selected_ids")

    def __init__(self, confidence: float, margin: float, seed: int,
                 strata: list[Stratum], selected_ids: list[str]) -> None:
        self.confidence = confidence
        self.margin = margin
        self.seed = seed
        self.strata = strata
        self.selected_ids = selected_ids


def count_d(site: InvocationSite) -> int:
    """Named nodes strictly inside the site's analysis subtree."""
    if site.subtree.kind == "no_body":
        return 0
    return site.subtree.named_node_count()


def score(d: int) -> float:
    """d = 0 → -1.0 exactly; d ≥ 1 → tanh(log10(d))."""
    if d < 0:
        raise ValueError(f"node count must be nonnegative, got {d}")
    if d == 0:
        return -1.0
    return math.tanh(math.log10(d))


def ranged_key(s: float) -> int:
    """Range index for ranged (flexible) strata.

    -1 for the empty-subtree score of -1; otherwise the 0.1-wide bucket
    index: [0, 0.1) → 0, [0.1, 0.2) → 1, ..., [0.9, 1.0) → 9.
    """
    if s == -1.0:
        return EMPTY_STRATUM_KEY
    return min(int(s * 10), 9)


def stratify(rows: Iterable[tuple[str, str, int, float]]
             ) -> dict[str, list[Stratum]]:
    """Partition ``(id, category, d, score)`` rows into strata per category.

    Restrictive sites get one stratum per distinct d; flexible sites get
    stratum -1 for score = -1, then score ranges [0, 0.1) ... [0.9, 1.0).
    Both categories are always present; strata are ordered by key, member
    ids sorted. Rows of any other category are ignored.
    """
    buckets: dict[str, dict[int, list[str]]] = {RESTRICTIVE: {},
                                                FLEXIBLE: {}}
    for site_id, category, d, s in rows:
        if category not in buckets:
            continue
        key = d if category == RESTRICTIVE else ranged_key(s)
        buckets[category].setdefault(key, []).append(site_id)
    return {category: [Stratum(key=key, population=len(ids),
                               member_ids=sorted(ids))
                       for key, ids in sorted(by_key.items())]
            for category, by_key in buckets.items()}


def sample_size(N: int, confidence: float = 0.95,
                margin: float = 0.05) -> int:
    """Cochran sample size with finite-population correction.

    n0 = z^2 * 0.25 / e^2 with z the two-sided normal quantile. Strata no
    larger than n0 are sampled in full (n = N); larger populations get
    n = ceil(n0 / (1 + (n0 - 1)/N)).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if margin <= 0.0:
        raise ValueError(f"margin must be positive, got {margin}")
    if N < 0:
        raise ValueError(f"population must be nonnegative, got {N}")
    if N == 0:
        return 0
    from statistics import NormalDist  # here, so a scan never loads it

    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    n0 = z * z * 0.25 / (margin * margin)
    if N <= n0:
        return N
    n = math.ceil(n0 / (1.0 + (n0 - 1.0) / N))
    return min(n, N)


def draw_sample(strata: list[Stratum], seed: int,
                confidence: float = 0.95,
                margin: float = 0.05) -> SamplePlan:
    """Seeded uniform sampling without replacement within each stratum."""
    selected: list[str] = []
    out_strata: list[Stratum] = []
    for stratum in strata:
        n = sample_size(stratum.population, confidence, margin)
        rng = random.Random(f"{seed}:{stratum.key}")
        members = sorted(stratum.member_ids)
        chosen = sorted(rng.sample(members, n))
        out_strata.append(Stratum(key=stratum.key,
                                  population=stratum.population,
                                  sample_size=n,
                                  member_ids=members))
        selected.extend(chosen)
    return SamplePlan(confidence=confidence, margin=margin, seed=seed,
                      strata=out_strata, selected_ids=selected)
