"""Tied, incomplete rankings and their consistent-permutation semantics."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

GROUP_SEPARATORS = ("|", "≺")  # "|" or the precedes symbol


class RankingError(ValueError):
    """Invalid ranking construction or operation."""


@dataclass(frozen=True)
class ItemUniverse:
    """A dense 0..n-1 index space with optional external labels.

    When ``labels`` is None, external labels default to the 1-based item
    numbers "1".."n".
    """

    n: int
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.n < 1:
            raise RankingError(f"universe size must be positive, got {self.n}")
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise RankingError("labels length must equal universe size")
            if len(set(self.labels)) != self.n:
                raise RankingError("labels must be unique")

    def label_of(self, index: int) -> str:
        if self.labels is not None:
            return self.labels[index]
        return str(index + 1)

    def index_of(self, label: str) -> int:
        label = label.strip()
        if self.labels is not None:
            try:
                return self.labels.index(label)
            except ValueError:
                raise RankingError(f"unknown item label {label!r}") from None
        try:
            idx = int(label) - 1
        except ValueError:
            raise RankingError(f"unknown item label {label!r}") from None
        if not 0 <= idx < self.n:
            raise RankingError(f"item label {label!r} out of range 1..{self.n}")
        return idx


@dataclass(frozen=True)
class Permutation:
    """A total order; ``order[p]`` is the item at position p+1 (best first)."""

    order: tuple[int, ...]

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise RankingError("permutation must be a bijection on 0..n-1")

    @property
    def n(self) -> int:
        return len(self.order)

    def positions(self) -> tuple[int, ...]:
        """positions()[i] is the 1-based rank of item i."""
        pos = [0] * self.n
        for p, item in enumerate(self.order):
            pos[item] = p + 1
        return tuple(pos)


@dataclass(frozen=True)
class TiedRanking:
    """An ordered sequence of disjoint tie groups, most preferred first.

    Doubles as an observation (a user's censored preference) and as an
    event (the set of all permutations consistent with it). Items not in
    any group are unranked and carry no constraints.
    """

    universe: ItemUniverse
    groups: tuple[tuple[int, ...], ...]
    level_labels: Optional[tuple[int, ...]] = None
    _group_of: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if not self.groups:
            raise RankingError("ranking needs at least one group")
        seen: dict[int, int] = {}
        norm = []
        for gi, group in enumerate(self.groups):
            if not group:
                raise RankingError("empty tie group")
            for item in group:
                if not 0 <= item < self.universe.n:
                    raise RankingError(f"item index {item} out of range")
                if item in seen:
                    raise RankingError(
                        f"item {self.universe.label_of(item)} appears in "
                        "more than one group"
                    )
                seen[item] = gi
            norm.append(tuple(sorted(group)))
        object.__setattr__(self, "groups", tuple(norm))
        object.__setattr__(self, "_group_of", seen)
        if self.level_labels is not None:
            if len(self.level_labels) != len(self.groups):
                raise RankingError("one level label per group required")
            for a, b in zip(self.level_labels, self.level_labels[1:]):
                if a <= b:
                    raise RankingError("level labels must be strictly decreasing")

    # -- basic structure -------------------------------------------------

    @property
    def n(self) -> int:
        return self.universe.n

    @property
    def k(self) -> int:
        """Number of ranked items."""
        return sum(len(g) for g in self.groups)

    def ranked_items(self) -> frozenset[int]:
        return frozenset(self._group_of)

    def group_index(self, item: int) -> Optional[int]:
        return self._group_of.get(item)

    # -- relations -------------------------------------------------------

    def implies(self, other: "TiedRanking") -> bool:
        """True iff every permutation consistent with self satisfies other."""
        if self.universe != other.universe:
            raise RankingError("universe mismatch")
        for item in other._group_of:
            if item not in self._group_of:
                return False
        items = sorted(other._group_of)
        for i, j in itertools.combinations(items, 2):
            gi, gj = other._group_of[i], other._group_of[j]
            if gi == gj:
                continue  # tie in other imposes no constraint
            si, sj = self._group_of[i], self._group_of[j]
            if (gi < gj) != (si < sj) or si == sj:
                return False
        return True

    def __str__(self) -> str:
        return format_ranking(self)


def parse_ranking(
    text: str,
    universe: ItemUniverse,
    level_labels: Optional[Sequence[int]] = None,
) -> TiedRanking:
    """Parse "3|2|1,4" / "3 ≺ 2 ≺ 1,4" notation into a TiedRanking."""
    normalized = text
    for sep in GROUP_SEPARATORS[1:]:
        normalized = normalized.replace(sep, "|")
    groups = []
    for chunk in normalized.split("|"):
        labels = [p for p in (s.strip() for s in chunk.split(",")) if p]
        if not labels:
            raise RankingError(f"empty group in ranking {text!r}")
        groups.append(tuple(universe.index_of(lbl) for lbl in labels))
    return TiedRanking(
        universe,
        tuple(groups),
        tuple(level_labels) if level_labels is not None else None,
    )


def format_ranking(r: TiedRanking) -> str:
    return "|".join(
        ",".join(r.universe.label_of(i) for i in g) for g in r.groups
    )


def chain_ranking(universe: ItemUniverse, items: Iterable[int]) -> TiedRanking:
    """The event 'items in this strict order, everything else unranked'."""
    return TiedRanking(universe, tuple((i,) for i in items))


def pair_ranking(universe: ItemUniverse, i: int, j: int) -> TiedRanking:
    """The event i preferred to j."""
    return TiedRanking(universe, ((i,), (j,)))


def full_group_ranking(universe: ItemUniverse) -> TiedRanking:
    """The unconstrained event: all items in one tie group."""
    return TiedRanking(universe, (tuple(range(universe.n)),))
