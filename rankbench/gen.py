"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` built from the
workload seed; the program under test sees only the files written here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class DeskShape:
    """The desk corpus: a two-taste-profile ratings file."""

    users: int = 2200
    items: int = 80
    min_rated: int = 15
    max_rated: int = 45
    duplicates: int = 10


@dataclass(frozen=True)
class Ml100kShape:
    """A corpus shaped like MovieLens-100k: heavy-tailed user activity
    and a Zipf-like item popularity, so that top-N selection matters."""

    users: int = 943
    items: int = 1682
    ratings: int = 100_000
    min_rated: int = 20
    max_rated: int = 737
    popularity_exponent: float = 0.9
    malformed: int = 25


@dataclass(frozen=True)
class BatchShape:
    """Pairs of tied incomplete rankings over a large universe."""

    n: int = 1000
    k: int = 50
    pairs: int = 40
    levels: int = 5


def _write_lines(path: Path, lines: list[str]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def _rating_lines(rng, user_items, scores) -> list[str]:
    """Tab-separated user/item/rating/timestamp lines, 1-based ids."""
    lines = []
    ts = 880_000_000
    for user, (items, score) in enumerate(zip(user_items, scores), start=1):
        ratings = np.clip(np.rint(score + rng.normal(0.0, 0.9, len(items))), 1, 5)
        stamps = ts + np.cumsum(rng.integers(1, 50, len(items)))
        ts = int(stamps[-1])
        lines.extend(
            f"{user}\t{item + 1}\t{int(r)}\t{t}"
            for item, r, t in zip(items.tolist(), ratings.tolist(), stamps.tolist())
        )
    return lines


def desk_corpus(rng: np.random.Generator, path: Path, shape: DeskShape = DeskShape()) -> Path:
    """Two taste profiles over item quality plus per-rating noise, with
    ``shape.duplicates`` re-rated (user, item) lines appended; the last
    occurrence of a duplicate wins on ingest."""
    base = rng.uniform(1.2, 4.8, size=(2, shape.items))
    profiles = rng.integers(2, size=shape.users)
    counts = rng.integers(shape.min_rated, shape.max_rated + 1, size=shape.users)
    user_items = [rng.permutation(shape.items)[:c] for c in counts]
    scores = [base[p][items] for p, items in zip(profiles, user_items)]
    lines = _rating_lines(rng, user_items, scores)
    for idx in rng.integers(len(lines), size=shape.duplicates):
        user, item, rating, ts = lines[int(idx)].split("\t")
        lines.append(f"{user}\t{item}\t{1 + int(rating) % 5}\t{int(ts) + 1}")
    return _write_lines(path, lines)


def ml100k_corpus(
    rng: np.random.Generator, path: Path, shape: Ml100kShape = Ml100kShape()
) -> Path:
    """Heavy-tailed activity, Zipf-like popularity over shuffled item ids,
    three taste profiles, and ``shape.malformed`` unparseable or
    out-of-scale lines mixed in (well under the ingest error cap)."""
    ranks = rng.permutation(shape.items)
    popularity = 1.0 / (ranks + 5.0) ** shape.popularity_exponent
    popularity /= popularity.sum()

    extra = rng.lognormal(0.0, 1.0, size=shape.users)
    extra *= (shape.ratings - shape.min_rated * shape.users) / extra.sum()
    counts = np.minimum(shape.min_rated + np.rint(extra).astype(int), shape.max_rated)
    counts = np.minimum(counts, shape.items)

    quality = rng.normal(3.5, 0.6, size=shape.items)
    taste = rng.normal(0.0, 0.8, size=(3, shape.items))
    profiles = rng.integers(3, size=shape.users)
    bias = rng.normal(0.0, 0.4, size=shape.users)
    user_items = [
        rng.choice(shape.items, size=int(c), replace=False, p=popularity) for c in counts
    ]
    scores = [
        quality[items] + taste[p][items] + b
        for items, p, b in zip(user_items, profiles, bias)
    ]
    lines = _rating_lines(rng, user_items, scores)
    bad = ("{u}\t{i}\tx\t0", "{u}\t{i}", "{u}\t{i}\t9\t0", "{u}\t{i}\t0\t0", "not a rating line")
    for idx in rng.integers(len(lines), size=shape.malformed):
        user, item, _, _ = lines[int(idx)].split("\t")
        template = bad[int(rng.integers(len(bad)))]
        lines.insert(int(idx), template.format(u=user, i=item))
    return _write_lines(path, lines)


def tied_batch(
    rng: np.random.Generator, path: Path, shape: BatchShape = BatchShape()
) -> Path:
    """One line per pair, ``s<TAB>r``, each a tied incomplete ranking in
    ``parse_ranking`` notation: k items, tied by a rating level, best
    level first."""

    def ranking() -> str:
        items = rng.choice(shape.n, size=shape.k, replace=False) + 1
        levels = rng.integers(1, shape.levels + 1, size=shape.k)
        return "|".join(
            ",".join(str(i) for i in sorted(items[levels == lv].tolist()))
            for lv in range(shape.levels, 0, -1)
            if (levels == lv).any()
        )

    return _write_lines(path, [f"{ranking()}\t{ranking()}" for _ in range(shape.pairs)])


def bandwidths(rng: np.random.Generator, n: int) -> tuple[float, float]:
    """Two integer bandwidths for the largest table size n, both above
    n(n-1)/4 so that the exact-support normalizer stays positive: one
    inside the distance range (a truncated kernel) and one beyond the
    largest distance n(n-1)/2 (where the normalizer has a closed form)."""
    quarter = n * (n - 1) / 4
    top = n * (n - 1) // 2
    inside = int(rng.integers(int(1.1 * quarter), top))
    beyond = int(rng.integers(top + 1, 2 * top))
    return float(inside), float(beyond)
