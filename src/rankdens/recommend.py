"""Posterior-loss-minimizing level prediction and its evaluation harness."""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .censored import insertion_distances
from .estimator import KernelModel
from .rankings import RankingError, TiedRanking


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
        if (e < 0).any():
            raise RecommendError("loss entries must be non-negative")
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


def asymmetric_loss(levels: Sequence[int] = range(6)) -> LossMatrix:
    """The 6x6 asymmetric star loss, restrictable to a sub-scale.

    ``levels`` must be a contiguous subrange of 0..5; for 1-5 star data the
    first row and column are dropped.
    """
    levels = tuple(levels)
    if any(not 0 <= lv <= 5 for lv in levels):
        raise RecommendError("asymmetric loss is defined on star levels 0..5")
    sel = list(levels)
    return LossMatrix(levels, _ASYMMETRIC_6[np.ix_(sel, sel)])


def loss_from_csv(path, levels: Optional[Sequence[int]] = None) -> LossMatrix:
    with open(path, newline="") as fh:
        rows = [
            [float(x) for x in row]
            for row in csv.reader(fh)
            if row and not row[0].lstrip().startswith("#")
        ]
    entries = np.array(rows)
    if levels is None:
        levels = range(len(rows))
    return LossMatrix(tuple(levels), entries)


def builtin_loss(name: str, levels: Sequence[int]) -> LossMatrix:
    if name == "l0":
        return zero_one_loss(levels)
    if name == "l1":
        return absolute_loss(levels)
    if name == "le":
        return asymmetric_loss(levels)
    raise RecommendError(f"unknown loss {name!r}")


def level_posterior(
    model: KernelModel,
    user_ranking: TiedRanking,
    item: int | Sequence[int],
    levels: Sequence[int],
    counts: Optional[Counter] = None,
) -> np.ndarray:
    """Posterior over the levels at which each held-out item would be rated,
    (B, L) for B items or (L,) for one. A level's weight is the estimated
    probability of the user's ranking with the item inserted at that level
    (the observed ranking's cancels), from one ``censored.insertion_distances``
    pass. Negative weights are clamped at zero and counted in
    ``counts["clamped"]``; an item with none positive gets the uniform posterior."""
    if user_ranking.level_labels is None:
        raise RecommendError("user ranking carries no level labels")
    batch = np.atleast_1d(item).tolist()
    if any(user_ranking.group_index(z) is not None for z in batch):
        raise RecommendError("item is already ranked by the user")
    # insert_item's level rule: each level's group sizes and z's group
    augmented = [user_ranking.insert_item(batch[0], level=lv) for lv in levels]
    insertions = [(list(map(len, r.groups)), r.group_index(batch[0])) for r in augmented]
    e_mean = insertion_distances(model.fbar, user_ranking, batch, insertions)
    weights = np.column_stack([model._kernel_value(sizes, e)
                               for (sizes, _), e in zip(insertions, e_mean.T)])
    if counts is not None:
        counts["clamped"] += int((weights < 0).sum())
    weights = np.maximum(weights, 0.0)
    total = weights.sum(axis=1, keepdims=True)
    post = np.full(weights.shape, 1.0 / len(levels))
    np.divide(weights, total, out=post, where=total > 0)
    return post[0] if np.ndim(item) == 0 else post


def predict_level(posterior: np.ndarray, loss: LossMatrix) -> int:
    """Level minimizing expected loss; ties go to the more preferred level."""
    posterior = np.asarray(posterior, dtype=float)
    if posterior.shape != (loss.size,):
        raise RecommendError("posterior length must match loss size")
    risks = loss.entries @ posterior
    best = None
    best_risk = math.inf
    for a in range(loss.size - 1, -1, -1):  # descending: prefer better level on tie
        if risks[a] < best_risk:
            best_risk = risks[a]
            best = a
    return loss.levels[best]


@dataclass(frozen=True)
class HoldoutUser:
    user_id: object
    observed: TiedRanking
    held_out: tuple[tuple[int, int], ...]  # (item, true level)


@dataclass(frozen=True)
class PredictionSplit:
    users: tuple[HoldoutUser, ...]
    seed: int


def make_holdout(
    rankings: Sequence[tuple[object, TiedRanking]],
    seed: int,
    holdout_fraction: float = 0.5,
) -> PredictionSplit:
    """Withhold a seeded random share of each user's ranked items.

    The true level of a withheld item is taken from the original ranking;
    users left without an observed item or without level labels are
    dropped.
    """
    if not 0 < holdout_fraction < 1:
        raise RecommendError("holdout fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    users = []
    for user_id, r in rankings:
        if r.level_labels is None or r.k < 2:
            continue
        ranked = sorted(r.ranked_items())
        n_hold = max(1, int(round(len(ranked) * holdout_fraction)))
        if n_hold >= len(ranked):
            n_hold = len(ranked) - 1
        held = sorted(rng.choice(ranked, size=n_hold, replace=False).tolist())
        held_set = set(held)
        groups, labels = [], []
        for gi, g in enumerate(r.groups):
            kept = tuple(i for i in g if i not in held_set)
            if kept:
                groups.append(kept)
                labels.append(r.level_labels[gi])
        if not groups:
            continue
        observed = TiedRanking(r.universe, tuple(groups), tuple(labels))
        truths = tuple(
            (i, r.level_labels[r.group_index(i)]) for i in held
        )
        users.append(HoldoutUser(user_id, observed, truths))
    return PredictionSplit(tuple(users), seed)


def evaluate_prediction(
    predictor: Callable[[HoldoutUser], Sequence[int]],
    split: PredictionSplit,
    loss: LossMatrix,
) -> float:
    """Mean loss over all held-out (user, item) pairs of a per-user predictor."""
    losses = []
    for user in sorted(split.users, key=lambda u: str(u.user_id)):
        for (_, truth), level in zip(user.held_out, predictor(user), strict=True):
            losses.append(loss.loss(level, truth))
    if not losses:
        raise RecommendError("empty prediction split")
    return math.fsum(losses) / len(losses)


def posterior_predictor(
    model: KernelModel, loss: LossMatrix, counts: Optional[Counter] = None
) -> Callable[[HoldoutUser], list[int]]:
    """Loss-minimizing levels of a user's held-out items."""
    def predict(user: HoldoutUser) -> list[int]:
        items = [item for item, _ in user.held_out]
        posts = level_posterior(model, user.observed, items, loss.levels, counts)
        return [predict_level(post, loss) for post in posts]

    return predict
