"""Brute-force references and synthetic data generation.

The references enumerate permutations directly and are therefore exact up
to floating-point summation; the closed-form implementations elsewhere are
tested against these. ``PermTable.consistent_indices`` is the one enumeration
of a ranking's consistent set. Only the tests use ``kernel_weight``, the
kernel at one permutation, and ``normalization_from_counts``, C(h) from a
histogram.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .combinatorics import CombinatoricsError, TriangularNormalization
from .rankings import (
    ItemUniverse,
    Permutation,
    RankingError,
    TiedRanking,
)

BRUTE_BOUND = 8
# The largest n whose n! x n! Kendall distance matrix ``PermTable.dist`` builds.
DISTANCE_MATRIX_BOUND = 7


class PermTable:
    """All permutations of S_n with position matrix and distance matrix."""

    def __init__(self, n: int):
        if n > BRUTE_BOUND:
            raise RankingError(f"brute force requires n <= {BRUTE_BOUND}")
        self.n = n
        self.perms = [Permutation(p) for p in itertools.permutations(range(n))]
        self.pos = np.array([p.positions() for p in self.perms], dtype=np.int16)
        self.index = {p.order: i for i, p in enumerate(self.perms)}
        # inversion count of each permutation relative to the identity
        d0 = np.zeros(len(self.perms), dtype=np.int16)
        for a in range(n - 1):
            for b in range(a + 1, n):
                d0 += self.pos[:, a] > self.pos[:, b]
        self.dist_to_identity = d0
        self._dist: Optional[np.ndarray] = None

    @property
    def dist(self) -> np.ndarray:
        """Pairwise Kendall tau matrix; materialized lazily (n <= 7)."""
        if self._dist is None:
            if self.n > DISTANCE_MATRIX_BOUND:
                raise RankingError("pairwise distance matrix too large")
            m = np.zeros((len(self.perms), len(self.perms)), dtype=np.int16)
            for a in range(self.n - 1):
                for b in range(a + 1, self.n):
                    s = np.sign(self.pos[:, a] - self.pos[:, b]).astype(np.int16)
                    m += (s[:, None] * s[None, :]) < 0
            self._dist = m
        return self._dist

    def consistent_indices(self, r: TiedRanking) -> np.ndarray:
        """Indices of permutations consistent with the tied ranking."""
        ok = np.ones(len(self.perms), dtype=bool)
        ranked = sorted(r.ranked_items())
        for i, j in itertools.combinations(ranked, 2):
            gi, gj = r.group_index(i), r.group_index(j)
            if gi == gj:
                continue
            if gi < gj:
                ok &= self.pos[:, i] < self.pos[:, j]
            else:
                ok &= self.pos[:, j] < self.pos[:, i]
        return np.nonzero(ok)[0]


@lru_cache(maxsize=8)
def perm_table(n: int) -> PermTable:
    return PermTable(n)


def log_consistent_count(r: TiedRanking) -> float:
    """log of the number of permutations consistent with r, n!/k! prod |A_j|!."""
    total = math.lgamma(r.n + 1) - math.lgamma(r.k + 1)
    for g in r.groups:
        total += math.lgamma(len(g) + 1)
    return total


def _kernel_values(n: int, h: float, mode: str) -> np.ndarray:
    """Per-permutation kernel weight indexed by distance, via brute C."""
    norm_c = brute_normalization(n, h, mode)  # C(h)/n!
    d = np.arange(n * (n - 1) // 2 + 1, dtype=float)
    w = 1.0 - d / h
    if mode == "exact-support":
        w[d >= h] = 0.0
    return w / (norm_c * math.factorial(n))


def brute_normalization(n: int, h: float, mode: str = "exact-support") -> float:
    """C(h)/n! by direct summation over all n! permutations."""
    pt = perm_table(n)
    d = pt.dist_to_identity.astype(float)
    w = 1.0 - d / h
    if mode == "exact-support":
        w[d >= h] = 0.0
    return float(np.mean(w))


def kernel_weight(t: float, norm: TriangularNormalization) -> float:
    """Per-permutation kernel weight at distance t: (1 - t/h) / (n! normC)."""
    max_d = norm.n * (norm.n - 1) / 2
    if t < 0 or t > max_d:
        raise CombinatoricsError(f"distance {t} out of range 0..{max_d}")
    shape = 1.0 - t / norm.h
    if norm.mode == "exact-support" and t >= norm.h:
        return 0.0
    return shape * math.exp(-math.lgamma(norm.n + 1)) / norm.normC


def normalization_from_counts(counts: np.ndarray, h: int) -> float:
    """C(h) from the generating-function identity, for integer h.

    [z^h]H_n is the cumulative coefficient sum; [z^{h-1}]G'_n/(1-z) is the
    cumulative sum of t * counts[t]. Takes raw coefficient counts so the
    caller may supply an independently computed histogram.
    """
    if h < 1 or int(h) != h:
        raise CombinatoricsError("the coefficient identity needs integer h >= 1")
    h = int(h)
    t = np.arange(len(counts))
    upto = t <= min(h, len(counts) - 1)
    head = float(np.sum(counts[upto]))
    weighted = float(np.sum(t[upto] * counts[upto]))
    return head - weighted / h


def brute_pair_pref(u: TiedRanking, i: int, j: int) -> float:
    """P(i precedes j) counted over the enumerated consistent set."""
    pt = perm_table(u.n)
    idx = pt.consistent_indices(u)
    return float(np.mean(pt.pos[idx, i] < pt.pos[idx, j]))


def brute_expected_kendall(s: TiedRanking, r: TiedRanking) -> float:
    """Double average of Kendall tau over the two consistent sets."""
    if s.universe != r.universe:
        raise RankingError("universe mismatch")
    pt = perm_table(s.n)
    si = pt.consistent_indices(s)
    ri = pt.consistent_indices(r)
    return float(pt.dist[np.ix_(si, ri)].mean())


def brute_event_prob(
    rankings: Sequence[TiedRanking], h: float, mode: str, r: TiedRanking
) -> float:
    """Triple sum of the estimator with uniform surrogate, by enumeration."""
    if not rankings:
        raise RankingError("empty training set")
    n = r.n
    pt = perm_table(n)
    kv = _kernel_values(n, h, mode)
    ri = pt.consistent_indices(r)
    total = 0.0
    for s in rankings:
        si = pt.consistent_indices(s)
        total += float(kv[pt.dist[np.ix_(ri, si)]].sum()) / len(si)
    return total / len(rankings)


def brute_full_distribution(
    rankings: Sequence[TiedRanking], h: float, mode: str
) -> np.ndarray:
    """Estimated probability of every permutation of S_n, in PermTable order."""
    n = rankings[0].n
    pt = perm_table(n)
    kv = _kernel_values(n, h, mode)
    out = np.zeros(len(pt.perms))
    for s in rankings:
        si = pt.consistent_indices(s)
        out += kv[pt.dist[:, si]].mean(axis=1)
    return out / len(rankings)


# -- one-ranking edits: references for level_posteriors and restrict -----


def insert_item(r: TiedRanking, item: int, level: int) -> TiedRanking:
    """r with an unranked item joining the group labelled ``level``, or a new
    group at that label's place in the strictly decreasing labels."""
    if r.group_index(item) is not None:
        raise RankingError(f"item {r.universe.label_of(item)} already ranked")
    if r.level_labels is None:
        raise RankingError("ranking has no level labels")
    groups = [list(g) for g in r.groups]
    labels = list(r.level_labels)
    if level in labels:
        groups[labels.index(level)].append(item)
    else:
        pos = sum(label > level for label in labels)
        groups.insert(pos, [item])
        labels.insert(pos, level)
    return TiedRanking(r.universe, tuple(tuple(g) for g in groups), tuple(labels))


def project_ranking(
    r: TiedRanking, items: Sequence[int], universe: Optional[ItemUniverse] = None
) -> Optional[TiedRanking]:
    """Restrict a ranking to ``items``, reindexed to a smaller universe.

    Returns None when no ranked item survives. ``items[j]`` becomes item j
    of the sub-universe; labels carry over.
    """
    if universe is None:
        if tuple(items) == tuple(range(r.universe.n)):
            universe = r.universe
        else:
            universe = ItemUniverse(
                len(items), tuple(r.universe.label_of(i) for i in items)
            )
    new_index = {item: j for j, item in enumerate(items)}
    groups = []
    labels = []
    for gi, g in enumerate(r.groups):
        kept = tuple(new_index[i] for i in g if i in new_index)
        if kept:
            groups.append(kept)
            if r.level_labels is not None:
                labels.append(r.level_labels[gi])
    if not groups:
        return None
    return TiedRanking(
        universe, tuple(groups), tuple(labels) if labels else None
    )


# -- synthetic data ------------------------------------------------------


def sample_mallows(
    center: Permutation, concentration: float, rng: np.random.Generator
) -> Permutation:
    """Draw from the Mallows model by the repeated-insertion construction.

    The j-th most central-preferred item is inserted so that it creates v
    new inversions with probability proportional to exp(-concentration*v).
    """
    order: list[int] = []
    for idx, item in enumerate(center.order):
        if concentration <= 0:
            probs = np.full(idx + 1, 1.0 / (idx + 1))
        else:
            logits = -concentration * np.arange(idx + 1, dtype=float)
            logits -= logits.max()
            probs = np.exp(logits)
            probs /= probs.sum()
        v = rng.choice(idx + 1, p=probs)
        order.insert(idx - v, item)
    return Permutation(tuple(order))


@dataclass(frozen=True)
class MixtureConfig:
    """Mallows-mixture generator with independent-item censoring.

    Each user draws a component, a latent permutation, observes each item
    independently with probability rho (at least one item is always kept),
    and reports the observed items grouped into ties by consecutive blocks
    of ``tie_block`` positions (1 = no ties).
    """

    universe: ItemUniverse
    centers: tuple[Permutation, ...]
    concentrations: tuple[float, ...]
    weights: tuple[float, ...]
    rho: float = 1.0
    tie_block: int = 1

    def __post_init__(self):
        if not (len(self.centers) == len(self.concentrations) == len(self.weights)):
            raise ValueError("component fields must have equal length")
        if not self.weights or any(w < 0 for w in self.weights):
            raise ValueError("invalid component weights")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("component weights must sum to 1")
        if not 0 < self.rho <= 1:
            raise ValueError("rho must be in (0, 1]")
        if self.tie_block < 1:
            raise ValueError("tie_block must be >= 1")


def synthesize(
    config: MixtureConfig, m: int, seed: int, return_latent: bool = False
):
    """Reproducible corpus of m censored rankings (optionally with the
    latent permutations)."""
    rng = np.random.default_rng(seed)
    u = config.universe
    rankings = []
    latents = []
    for _ in range(m):
        comp = rng.choice(len(config.weights), p=np.asarray(config.weights))
        pi = sample_mallows(config.centers[comp], config.concentrations[comp], rng)
        keep = rng.random(u.n) < config.rho
        if not keep.any():
            keep[rng.integers(u.n)] = True
        observed = [item for item in pi.order if keep[item]]
        groups = [
            tuple(observed[i : i + config.tie_block])
            for i in range(0, len(observed), config.tie_block)
        ]
        rankings.append(TiedRanking(u, tuple(groups)))
        latents.append(pi)
    if return_latent:
        return rankings, latents
    return rankings


def random_tied_ranking(
    rng: np.random.Generator,
    universe: ItemUniverse,
    min_ranked: int = 1,
    level_labels: bool = False,
) -> TiedRanking:
    """Uniform-ish random tied incomplete ranking, for tests."""
    n = universe.n
    k = int(rng.integers(min_ranked, n + 1))
    items = rng.permutation(n)[:k]
    n_groups = int(rng.integers(1, k + 1))
    cuts = sorted(rng.choice(np.arange(1, k), size=n_groups - 1, replace=False)) if n_groups > 1 else []
    bounds = [0, *cuts, k]
    groups = tuple(
        tuple(int(x) for x in items[a:b]) for a, b in zip(bounds, bounds[1:])
    )
    labels = None
    if level_labels:
        top = len(groups) + int(rng.integers(0, 3))
        labels = tuple(range(top, top - len(groups), -1))
    return TiedRanking(universe, groups, labels)
