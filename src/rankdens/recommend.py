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


def level_posteriors(model: KernelModel, users: Sequence[tuple[TiedRanking, Sequence[int]]],
                     levels: Sequence[int], counts: Optional[Counter] = None) -> np.ndarray:
    """Posterior over the levels at which each held-out item would be rated,
    one (N, L) row per item of the (user ranking, items) pairs, in order. A
    level's weight is the estimated probability of the user's ranking with
    the item inserted at that level by ``insert_item``'s level rule (the
    observed ranking's cancels), from one ``censored.insertion_distances``
    call per ranked count k. Negative weights are clamped at zero and counted
    in ``counts["clamped"]``; an item with none positive gets the uniform posterior."""
    if any(ranking.level_labels is None for ranking, _ in users):
        raise RecommendError("user ranking carries no level labels")
    if any(ranking.group_index(z) is not None for ranking, items in users for z in items):
        raise RecommendError("item is already ranked by the user")
    levels, logfact = np.asarray(levels), np.asarray(model.logfact)
    ks = np.array([ranking.k for ranking, _ in users], dtype=np.int64)
    owners = np.repeat(np.arange(len(users)), [len(items) for _, items in users])
    held = np.array([z for _, items in users for z in items], dtype=np.int64)
    weights = np.empty((len(held), len(levels)))
    for k in np.unique(ks).tolist():  # one k at a time: every sum over k items keeps its order
        us, rows = np.flatnonzero(ks == k), np.flatnonzero(ks[owners] == k)
        rs = [users[u][0] for u in us]
        ranked = np.array([[x for g in r.groups for x in g] for r in rs])
        grp = np.array([[gi for gi, g in enumerate(r.groups) for _ in g] for r in rs])
        lab = np.array([[lv for lv, g in zip(r.level_labels, r.groups) for _ in g] for r in rs])
        # insert_item's level rule: join the group with that label, or open
        # a singleton group after the groups labelled above it
        gz = ((grp + 1)[:, None, :] * (lab[:, None, :] > levels[:, None])).max(axis=2)
        joins = (lab[:, None, :] == levels[:, None]).any(axis=2)
        owner = np.searchsorted(us, owners[rows])
        e_mean = insertion_distances(model.fbar, ranked, grp, held[rows], owner, gz, joins)
        # _kernel_value's set fraction, its log summed over the augmented groups in order:
        # a new group at slot gz moves the later ones on by one (the last slot is empty)
        slot, p, j = np.arange(grp.max() + 2), gz[:, :, None], joins[:, :, None]
        sizes = (grp[:, :, None] == slot).sum(axis=1)
        moved = np.where(j | (slot < p), sizes[:, None], np.roll(sizes, 1, axis=1)[:, None])
        log_fraction = np.full(gz.shape, -logfact[k + 1])
        for size in np.moveaxis(np.where(slot == p, j * moved + 1, moved), 2, 0):
            log_fraction += logfact[size]
        fraction = np.array([math.exp(x) for x in log_fraction.ravel().tolist()]).reshape(gz.shape)
        weights[rows] = fraction[owner] * (1.0 - e_mean / model.h) / model.norm.normC
    if counts is not None:
        counts["clamped"] += int((weights < 0).sum())
    weights = np.maximum(weights, 0.0)
    total = weights.sum(axis=1, keepdims=True)
    post = np.full(weights.shape, 1.0 / len(levels))
    np.divide(weights, total, out=post, where=total > 0)
    return post


def level_posterior(model: KernelModel, user_ranking: TiedRanking, item: int | Sequence[int],
                    levels: Sequence[int], counts: Optional[Counter] = None) -> np.ndarray:
    """``level_posteriors`` of one user's items: (B, L) for B items, (L,) for one."""
    post = level_posteriors(model, [(user_ranking, np.atleast_1d(item).tolist())], levels, counts)
    return post[0] if np.ndim(item) == 0 else post


def _best_levels(posteriors: np.ndarray, loss: LossMatrix) -> np.ndarray:
    """Each row's level index of least expected loss, ties to the more preferred."""
    risks = (posteriors[:, None, :] * loss.entries).sum(axis=2)
    return loss.size - 1 - np.argmin(risks[:, ::-1], axis=1)


def predict_level(posterior: np.ndarray, loss: LossMatrix) -> int:
    """Level minimizing expected loss: ``_best_levels`` of one row."""
    posterior = np.asarray(posterior, dtype=float)
    if posterior.shape != (loss.size,):
        raise RecommendError("posterior length must match loss size")
    return loss.levels[_best_levels(posterior[None], loss)[0]]


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


def _mean_loss(users: Sequence[HoldoutUser], loss: LossMatrix, predicted) -> float:
    """Mean loss of level indices predicted for the users' held-out pairs, in order."""
    truths = [loss.levels.index(truth) for user in users for _, truth in user.held_out]
    if not truths:
        raise RecommendError("empty prediction split")
    return math.fsum(loss.entries[predicted, truths].tolist()) / len(truths)


def evaluate_prediction(predictor: Callable[[HoldoutUser], Sequence[int]],
                        split: PredictionSplit, loss: LossMatrix) -> float:
    """Mean loss over all held-out (user, item) pairs of a per-user predictor."""
    return _mean_loss(split.users, loss, [
        loss.levels.index(level) for user in split.users
        for _, level in zip(user.held_out, predictor(user), strict=True)
    ])


def posterior_loss(model: KernelModel, split: PredictionSplit, loss: LossMatrix,
                   counts: Optional[Counter] = None) -> float:
    """Mean loss of the split's loss-minimizing levels, from one ``level_posteriors`` call."""
    users = [(user.observed, [item for item, _ in user.held_out]) for user in split.users]
    return _mean_loss(split.users, loss, _best_levels(
        level_posteriors(model, users, loss.levels, counts), loss))
