"""Ratings-file ingestion, subset selection, and seeded splits."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .rankings import ItemUniverse, TiedRanking
from .recommend import PredictionSplit, make_holdout


class IngestError(ValueError):
    pass


@dataclass(frozen=True)
class FormatDescriptor:
    """How to read a ratings file: delimiter, column order, header flag,
    and the rating scale bounds."""

    delimiter: str = "\t"
    columns: tuple[str, ...] = ("user", "item", "rating", "timestamp")
    header: bool = False
    scale: tuple[int, int] = (1, 5)

    def column(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise IngestError(f"format lacks a {name!r} column") from None


FORMATS = {
    "ml100k": FormatDescriptor("\t", ("user", "item", "rating", "timestamp"), False, (1, 5)),
    "ml1m": FormatDescriptor("::", ("user", "item", "rating", "timestamp"), False, (1, 5)),
}


def parse_format(spec: str) -> FormatDescriptor:
    """"ml100k", "ml1m", or "csv:<delim>:<cols>:<min>-<max>[:header]"."""
    if spec in FORMATS:
        return FORMATS[spec]
    if spec.startswith("csv:"):
        parts = spec.split(":")
        if len(parts) < 4:
            raise IngestError(f"bad csv format spec {spec!r}")
        delim = parts[1] or ","
        cols = tuple(parts[2].split(","))
        lo, _, hi = parts[3].partition("-")
        if not (lo.isdecimal() and hi.isdecimal() and int(lo) <= int(hi)):
            raise IngestError(f"rating scale {parts[3]!r} is not <min>-<max> in integers")
        header = len(parts) > 4 and parts[4] == "header"
        return FormatDescriptor(delim, cols, header, (int(lo), int(hi)))
    raise IngestError(f"unknown ratings format {spec!r}")


@dataclass
class RatingsTable:
    """(user, item, rating) triples; duplicates resolved last-wins."""

    ratings: dict  # (user_id, item_id) -> level
    scale: tuple[int, int]
    malformed: int = 0
    duplicates: int = 0
    item_counts: Counter = field(default_factory=Counter)

    def __post_init__(self):
        if not self.item_counts:
            counts = Counter()
            for (_, item) in self.ratings:
                counts[item] += 1
            self.item_counts = counts


def load_ratings(
    path, fmt: FormatDescriptor, error_rate_cap: float = 0.05
) -> RatingsTable:
    """Parse a ratings file; malformed lines are counted and tolerated up
    to the cap."""
    u_col, i_col, r_col = (fmt.column(c) for c in ("user", "item", "rating"))
    ratings: dict = {}
    malformed = 0
    duplicates = 0
    total = 0
    lo, hi = fmt.scale
    try:
        fh = open(path, encoding="utf-8", errors="replace")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh):
            if fmt.header and lineno == 0:
                continue
            line = line.strip()
            if not line:
                continue
            total += 1
            parts = line.split(fmt.delimiter)
            try:
                user = int(parts[u_col])
                item = int(parts[i_col])
                try:
                    level = int(parts[r_col])
                except ValueError:  # a level written as 4.0 is 4; 3.5 is none
                    rating = float(parts[r_col])
                    level = int(rating) if rating.is_integer() else None
            except (IndexError, ValueError):
                malformed += 1
                continue
            if level is None or not lo <= level <= hi:
                malformed += 1
                continue
            if (user, item) in ratings:
                duplicates += 1
            ratings[(user, item)] = level
    if total and malformed / total > error_rate_cap:
        raise IngestError(
            f"{malformed}/{total} malformed lines exceeds cap {error_rate_cap}"
        )
    if not ratings:
        raise IngestError(f"no usable ratings in {path}")
    return RatingsTable(ratings, fmt.scale, malformed, duplicates)


def select_items(table: RatingsTable, top_n: int) -> list[int]:
    """The top_n most rated item ids; count ties break by ascending id."""
    ranked = sorted(table.item_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if top_n > len(ranked):
        raise IngestError(f"only {len(ranked)} distinct items available")
    return [item for item, _ in ranked[:top_n]]


def select_users(
    table: RatingsTable,
    items: Sequence[int],
    min_count: Optional[int] = None,
    top_m: Optional[int] = None,
) -> list[int]:
    """Users ranked by how many of the selected items they rated."""
    item_set = set(items)
    coverage: Counter = Counter()
    for (user, item) in table.ratings:
        if item in item_set:
            coverage[user] += 1
    ranked = sorted(coverage.items(), key=lambda kv: (-kv[1], kv[0]))
    if min_count is not None:
        ranked = [(u, c) for u, c in ranked if c >= min_count]
    if top_m is not None:
        ranked = ranked[:top_m]
    return [u for u, _ in ranked]


def build_rankings(
    table: RatingsTable,
    items: Sequence[int],
    users: Optional[Sequence[int]] = None,
) -> tuple[ItemUniverse, list[tuple[int, TiedRanking]]]:
    """Per-user tied rankings over the selected item universe.

    One group per occupied rating level, most stars first; items outside
    the selection are dropped; users with no surviving rating are skipped.
    Output is ordered by ascending user id.
    """
    universe = ItemUniverse(len(items), tuple(str(i) for i in items))
    index = {item: i for i, item in enumerate(items)}
    user_set = set(users) if users is not None else None
    by_user: dict[int, dict[int, list[int]]] = defaultdict(lambda: defaultdict(list))
    for (user, item), level in table.ratings.items():
        if item not in index:
            continue
        if user_set is not None and user not in user_set:
            continue
        by_user[user][level].append(index[item])
    out = []
    for user in sorted(by_user):
        levels = sorted(by_user[user], reverse=True)
        groups = tuple(tuple(sorted(by_user[user][lv])) for lv in levels)
        out.append((user, TiedRanking(universe, groups, tuple(levels))))
    return universe, out


def split_users(
    rankings: Sequence[tuple[int, TiedRanking]],
    seed: int,
    test_fraction: float,
    holdout_fraction: float = 0.5,
) -> tuple[list[TiedRanking], PredictionSplit]:
    """Seeded user partition into training rankings and a holdout split."""
    if not 0 < test_fraction < 1:
        raise IngestError("test fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(rankings))
    n_test = int(round(len(rankings) * test_fraction))
    test_idx = set(order[:n_test].tolist())
    train = [rankings[i][1] for i in range(len(rankings)) if i not in test_idx]
    test_pairs = [rankings[i] for i in sorted(test_idx)]
    holdout = make_holdout(test_pairs, seed=seed + 1, holdout_fraction=holdout_fraction)
    return train, holdout
