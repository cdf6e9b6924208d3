"""Posterior-loss-minimizing level prediction and its seeded holdout evaluation."""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .censored import insertion_distances
from .estimator import GroupedRankings, KernelModel, _grouped
from .rankings import TiedRanking


class RecommendError(ValueError):
    pass


@dataclass(frozen=True)
class LossMatrix:
    """entries[a, b] = cost of predicting the level at index a when the
    true level has index b; ``levels`` maps indices to level values,
    ascending (larger value = more preferred)."""

    levels: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (len(self.levels), len(self.levels)):
            raise RecommendError("loss matrix must be square over the levels")
        if not (np.isfinite(e) & (e >= 0)).all():  # a NaN risk would never be the minimum
            raise RecommendError("loss entries must be finite and non-negative")
        object.__setattr__(self, "entries", e)

    @property
    def size(self) -> int:
        return len(self.levels)

    def loss(self, predicted: int, true: int) -> float:
        return float(
            self.entries[self.levels.index(predicted), self.levels.index(true)]
        )


def zero_one_loss(levels: Sequence[int]) -> LossMatrix:
    levels = tuple(levels)
    e = 1.0 - np.eye(len(levels))
    return LossMatrix(levels, e)


def absolute_loss(levels: Sequence[int]) -> LossMatrix:
    levels = tuple(levels)
    idx = np.arange(len(levels))
    return LossMatrix(levels, np.abs(idx[:, None] - idx[None, :]).astype(float))


# Asymmetric star loss: predicting a bad movie as good costs far more than
# predicting a good movie as bad. Rows = estimated stars 0..5, columns =
# actual stars 0..5.
_ASYMMETRIC_6 = np.array(
    [
        [0, 0, 0, 3, 4, 5],
        [0, 0, 0, 2, 3, 4],
        [0, 0, 0, 1, 2, 3],
        [9, 4, 1.5, 0, 0, 0],
        [12, 6, 3, 0, 0, 0],
        [15, 8, 4.5, 0, 0, 0],
    ],
    dtype=float,
)


def asymmetric_loss(levels: Sequence[int]) -> LossMatrix:
    """The 6x6 asymmetric star loss on a sub-scale.

    ``levels`` must be a contiguous subrange of 0..5; for 1-5 star data the
    first row and column are dropped.
    """
    levels = tuple(levels)
    if any(not 0 <= lv <= 5 for lv in levels):
        raise RecommendError("asymmetric loss is defined on star levels 0..5")
    sel = list(levels)
    return LossMatrix(levels, _ASYMMETRIC_6[np.ix_(sel, sel)])


def loss_from_csv(path, levels: Sequence[int]) -> LossMatrix:
    with open(path, newline="") as fh:
        rows = [
            [float(x) for x in row]
            for row in csv.reader(fh)
            if row and not row[0].lstrip().startswith("#")
        ]
    return LossMatrix(tuple(levels), np.array(rows))


def builtin_loss(name: str, levels: Sequence[int]) -> LossMatrix:
    if name == "l0":
        return zero_one_loss(levels)
    if name == "l1":
        return absolute_loss(levels)
    if name == "le":
        return asymmetric_loss(levels)
    raise RecommendError(f"unknown loss {name!r}")


def level_posteriors(model: KernelModel, observed: GroupedRankings, owners, items,
                     levels: Sequence[int], counts: Optional[Counter] = None) -> np.ndarray:
    """Posterior over the levels at which each held-out item would be rated,
    one (N, L) row per item ``items[i]`` of ranking ``owners[i]`` of the
    labelled record ``observed``, in order. A level's weight is the
    estimated probability of the ranking with the item inserted at that
    level by ``oracle.insert_item``'s level rule, from one
    ``censored.insertion_distances`` call per ranked count k. Its set
    fraction is the observed ranking's times (a + 1)/(k + 1), a being the
    user's items at that level, so with C(h) the factors common to a row
    cancel, leaving the weight (a + 1)(1 - E/h), which cannot underflow.
    Negative weights are clamped at zero and counted in
    ``counts["clamped"]``; an item with none positive gets the uniform posterior."""
    if observed.levels is None:
        raise RecommendError("user ranking carries no level labels")
    starts, bounds = observed.user_starts, observed.group_starts
    owners, held = np.asarray(owners, np.int64), np.asarray(items, np.int64)
    ks, n = np.diff(starts), model.universe.n
    ranker = np.repeat(np.arange(len(ks)), ks)  # each ranked item's ranking
    if np.isin(owners * n + held, ranker * n + observed.items).any():
        raise RecommendError("item is already ranked by the user")
    levels = np.asarray(levels)
    group = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))  # each ranked item's group
    local = group - np.searchsorted(bounds, starts)[ranker]  # its index in its ranking
    weights = np.empty((len(held), len(levels)))
    for k in np.unique(ks[owners]).tolist():  # one k at a time: sums over k items keep their order
        us, rows = np.flatnonzero(ks == k), np.flatnonzero(ks[owners] == k)
        at = starts[us][:, None] + np.arange(k)
        ranked, grp, lab = observed.items[at], local[at], observed.levels[group[at]]
        # oracle.insert_item's level rule: join the group of the a > 0 items with that
        # label, or open a singleton group after the groups labelled above it
        gz = ((grp + 1)[:, None, :] * (lab[:, None, :] > levels[:, None])).max(axis=2)
        a = (lab[:, None, :] == levels[:, None]).sum(axis=2)
        owner = np.searchsorted(us, owners[rows])
        e_mean = insertion_distances(model.fbar, ranked, grp, held[rows], owner, gz, a > 0)
        weights[rows] = (a + 1)[owner] * (1.0 - e_mean / model.h)
    if counts is not None:
        counts["clamped"] += int((weights < 0).sum())
    weights = np.maximum(weights, 0.0)
    total = weights.sum(axis=1, keepdims=True)
    post = np.full(weights.shape, 1.0 / len(levels))
    np.divide(weights, total, out=post, where=total > 0)
    return post


def level_posterior(model: KernelModel, user_ranking: TiedRanking, item: int | Sequence[int],
                    levels: Sequence[int], counts: Optional[Counter] = None) -> np.ndarray:
    """``level_posteriors`` of one user's items: (B, L) for B items, a single
    item being a batch of one."""
    items = np.atleast_1d(item)
    return level_posteriors(model, _grouped([user_ranking]),
                            np.zeros(len(items), np.int64), items, levels, counts)


_RISK_CELLS = 1 << 22  # products _best_levels forms at once: 32 MB, 4 rows of 1000 levels


def _best_levels(posteriors: np.ndarray, loss: LossMatrix) -> np.ndarray:
    """Each row's level index of least expected loss, ties to the more
    preferred; the risks are summed a block of rows at a time."""
    risks = np.empty(posteriors.shape)
    step = max(1, _RISK_CELLS // loss.size**2)
    for start in range(0, len(posteriors), step):
        block = posteriors[start : start + step]
        risks[start : start + step] = (block[:, None, :] * loss.entries).sum(axis=2)
    return loss.size - 1 - np.argmin(risks[:, ::-1], axis=1)


def predict_level(posterior: np.ndarray, loss: LossMatrix) -> int:
    """Level minimizing expected loss: ``_best_levels`` of one row."""
    posterior = np.asarray(posterior, dtype=float)
    if posterior.shape != (loss.size,):
        raise RecommendError("posterior length must match loss size")
    return loss.levels[_best_levels(posterior[None], loss)[0]]


@dataclass(frozen=True, eq=False)
class Holdout:
    """Test users' observed rankings and what they withhold: item
    ``items[i]`` of ranking ``owners[i]`` of ``observed``, at true level
    ``levels[i]``, ranking by ranking and each ranking's items ascending."""

    observed: GroupedRankings
    items: np.ndarray
    owners: np.ndarray
    levels: np.ndarray


def holdout_split(grouped: GroupedRankings, seed: int, test_fraction: float,
                  holdout_fraction: float = 0.5) -> tuple[GroupedRankings, Holdout]:
    """A labelled record split into training rankings and a holdout: a
    ``default_rng(seed).permutation`` picks round(m * test_fraction) test
    users, the rest in record order train. ``default_rng(seed + 1).choice``
    then withholds min(max(1, round(k * f)), k - 1) of each test user's k
    items in ascending order, user by user; a test user with k < 2 is dropped."""
    if not (0 < test_fraction < 1 and 0 < holdout_fraction < 1):
        raise RecommendError("test and holdout fractions must be in (0, 1)")
    if grouped.levels is None:
        raise RecommendError("user ranking carries no level labels")
    m, bounds = len(grouped.users), grouped.user_starts.tolist()
    test = np.zeros(m, bool)
    test[np.random.default_rng(seed).permutation(m)[:int(round(m * test_fraction))]] = True
    by_item = np.lexsort((grouped.items, np.repeat(np.arange(m), np.diff(bounds))))
    rng = np.random.default_rng(seed + 1)
    users, held = [], []  # the test users kept, and their held items' positions in items
    for u in np.flatnonzero(test).tolist():
        a, k = bounds[u], bounds[u + 1] - bounds[u]
        if k >= 2:
            users.append(u)
            n_hold = min(max(1, int(round(k * holdout_fraction))), k - 1)
            held.append(by_item[a + np.sort(rng.choice(k, size=n_hold, replace=False))])
    owners = np.repeat(np.arange(len(users)), [len(h) for h in held])
    held = np.concatenate([np.zeros(0, np.int64), *held])
    keep = np.bincount(held, minlength=len(grouped.items)) == 0
    group = np.searchsorted(grouped.group_starts, held, side="right") - 1
    return grouped.restrict(np.flatnonzero(~test)), Holdout(
        grouped.restrict(users, keep), grouped.items[held], owners, grouped.levels[group])


def posterior_loss(model: KernelModel, holdout: Holdout, loss: LossMatrix,
                   counts: Optional[Counter] = None) -> float:
    """Mean loss of the holdout's loss-minimizing levels, from one ``level_posteriors`` call."""
    if not len(holdout.items):
        raise RecommendError("empty prediction split")
    index = {level: i for i, level in enumerate(loss.levels)}
    truths = [index[level] for level in holdout.levels.tolist()]
    predicted = _best_levels(level_posteriors(
        model, holdout.observed, holdout.owners, holdout.items, loss.levels, counts), loss)
    return math.fsum(loss.entries[predicted, truths].tolist()) / len(truths)
