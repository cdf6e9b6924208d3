"""Kernel density estimation over preference events.

With missing items randomly censored, the expected Kendall distance from
an event to a training ranking is linear in the training ranking's pair
factors 1 - 2*P(x precedes y). So ``fit`` reduces the m training rankings
of n items to their mean, the n x n antisymmetric matrix fbar, in
O(sum of k^2 + n^2) for k items ranked per training ranking. A
modified-kernel event probability then follows by the closed form in
O(k^2) for the k items the event ranks, with no term in m: ``event_prob``
and ``chain_prob`` (a whole batch of events with the same tie-group sizes
as array operations) both evaluate ``censored.expected_distance`` against
fbar. The model keeps fbar and no training ranking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .censored import _centre, expected_distance
from .combinatorics import (
    TriangularNormalization,
    mahonian_distribution,
    triangular_normalization,
)
from .rankings import (
    ItemUniverse,
    Permutation,
    TiedRanking,
    chain_ranking,
)

LIKELIHOOD_FLOOR = 1e-12  # heldout_loglikelihood's least probability
MAX_CONCENTRATION = 50.0  # the upper end of mallows_fit's concentration search


class EstimatorError(ValueError):
    pass


def default_bandwidth(n: int) -> float:
    """n(n-1)/2: the largest possible distance, keeping modified-kernel
    weights non-negative everywhere. At n = 1, where that distance is 0
    and every h > 0 gives the one permutation probability 1, it is 1."""
    return n * (n - 1) / 2.0 if n > 1 else 1.0


@dataclass(frozen=True)
class EventProbability:
    value: float
    negative: bool = False


@dataclass(frozen=True, eq=False)
class GroupedRankings:
    """m tied rankings of one universe as flat arrays. ``items`` lists the
    ranked items, ranking by ranking in ``users`` order, each ranking's
    groups most preferred first and each group ascending. Ranking u is
    items[user_starts[u]:user_starts[u + 1]] and group j is
    items[group_starts[j]:group_starts[j + 1]], at rating level
    ``levels[j]`` (None when the rankings carry no levels). Users come in
    ascending id order from ``group_ratings``; a restricted record may list
    them in any order."""

    universe: ItemUniverse
    users: np.ndarray  # (m,) ids
    items: np.ndarray
    user_starts: np.ndarray  # (m + 1,) offsets into items
    group_starts: np.ndarray  # (G + 1,) offsets into items
    levels: Optional[np.ndarray] = None  # (G,)

    def restrict(self, users, keep: Optional[np.ndarray] = None,
                 universe: Optional[ItemUniverse] = None) -> GroupedRankings:
        """The rankings at positions ``users``, in that order, each cut to
        the items where the mask ``keep`` over ``items`` holds, with emptied
        groups dropped (a ranking may be left empty), over ``universe``
        (this record's by default), which must index the kept items alike."""
        users = np.asarray(users, np.int64)
        lo, sizes = self.user_starts[users], np.diff(self.user_starts)[users]
        owner = np.repeat(np.arange(len(users)), sizes)
        pos = np.arange(len(owner)) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
        kept = slice(None) if keep is None else keep[pos]
        owner, pos = owner[kept], pos[kept]
        group = np.searchsorted(self.group_starts, pos, side="right") - 1
        new_group = np.ones(len(pos), bool)
        new_group[1:] = (group[1:] != group[:-1]) | (owner[1:] != owner[:-1])
        return GroupedRankings(
            universe or self.universe, self.users[users], self.items[pos],
            np.r_[0, np.cumsum(np.bincount(owner, minlength=len(users)))],
            np.r_[np.flatnonzero(new_group), len(pos)],
            None if self.levels is None else self.levels[group[new_group]],
        )


def _grouped(rankings: Sequence[TiedRanking]) -> GroupedRankings:
    """The record of a sequence of rankings, numbered 0..m-1 in order, with
    their level labels when every ranking carries them."""
    groups = [g for r in rankings for g in r.groups]
    levels = None
    if all(r.level_labels is not None for r in rankings):
        levels = np.fromiter(itertools.chain.from_iterable(r.level_labels for r in rankings),
                             np.int64)
    return GroupedRankings(
        rankings[0].universe,
        np.arange(len(rankings)),
        np.fromiter(itertools.chain.from_iterable(groups), np.int64),
        np.cumsum([0, *(r.k for r in rankings)]),
        np.cumsum([0, *map(len, groups)]),
        levels,
    )


def _mean_pair_factors(grouped: GroupedRankings) -> np.ndarray:
    """The n x n training mean of 1 - 2*P(x precedes y | ranking).

    A pair factor is -1/0/+1 when both items are ranked (x in an
    earlier/the same/a later group), x's centre g[x] (``tie_terms``) when
    only x is ranked, -g[y] when only y is, and 0 when neither is. The
    one-ranked cases sum to the rank-one term gtot[x] - gtot[y] once each
    ranking's k x k block of ranked pairs subtracts its own share, so a
    ranking costs O(k^2). Within a ranking that block entry,
    sign(q[x] - q[y]) - (g[x] - g[y]) for groups q, depends only on the two
    groups, so each block is its ranking's G x G group table repeated out
    to k x k. The blocks are added one ranking at a time, in order, and
    gtot by one ``bincount``, which also adds in order: any other grouping
    of the float sums would change fbar's last bits.
    """
    n = grouped.universe.n
    items, starts, bounds = grouped.items, grouped.user_starts, grouped.group_starts
    m, sizes = len(starts) - 1, np.diff(bounds)
    owner = np.searchsorted(starts, bounds[:-1], side="right") - 1  # each group's ranking
    k, below = np.diff(starts)[owner], bounds[:-1] - starts[owner]
    centre = _centre(below, sizes, k)  # each group's, as tie_terms gives it
    firsts = np.searchsorted(bounds, starts)  # each ranking's first group
    width = int(np.diff(firsts).max(initial=1))  # the most groups in one ranking
    sign = np.sign(np.arange(width)[:, None] - np.arange(width))
    total = np.zeros(n * n)  # flat, so a block is one fancy-indexed add
    row = items * n  # each item's row offset in the flat total
    starts, firsts = starts.tolist(), firsts.tolist()
    for a, b, ga, gb in zip(starts, starts[1:], firsts, firsts[1:]):
        s, c = sizes[ga:gb], centre[ga:gb]
        table = sign[:gb - ga, :gb - ga] - (c[:, None] - c)
        total[row[a:b, None] + items[a:b]] += table.repeat(s, 0).repeat(s, 1)
    gtot = np.bincount(items, weights=np.repeat(centre, sizes), minlength=n)
    total = total.reshape(n, n) + (gtot[:, None] - gtot[None, :])
    return total / m


def _gathered_rows(flat: np.ndarray, n: int, cols: Sequence[np.ndarray]):
    """Rows of the block of the n x n matrix ``flat`` over a batch of item
    tuples; entry (a, b), flat[cols[a] * n + cols[b]], is gathered when read."""
    for col in cols:
        base = col * n
        yield (flat[base + other] for other in cols)


class KernelModel:
    """Modified triangular-kernel smoother over censored rankings.

    The training set enters every event probability only through ``fbar``,
    the mean pair-factor matrix of its m rankings, and its row sums."""

    def __init__(
        self,
        universe: ItemUniverse,
        fbar: np.ndarray,
        h: float,
        norm: TriangularNormalization,
    ):
        self.universe = universe
        self.fbar = fbar
        self.h = float(h)
        self.norm = norm
        self.logfact = np.concatenate(
            ([0.0], np.cumsum(np.log(np.arange(1, universe.n + 1))))
        ).tolist()
        self._rowsums = self.fbar.sum(axis=1).tolist()

    # -- event scoring ---------------------------------------------------

    def _kernel_value(self, sizes: Sequence[int], e_mean):
        """Modified-kernel probability of an event with these tie-group
        sizes at expected distance e_mean from the training set: its set
        fraction |R|/n! times the kernel's (1 - E/h)/C."""
        log_fraction = -self.logfact[sum(sizes)]
        for size in sizes:
            log_fraction += self.logfact[size]
        return math.exp(log_fraction) * (1.0 - e_mean / self.h) / self.norm.normC

    def event_prob(self, r: TiedRanking) -> EventProbability:
        """Estimated probability of the event r, by the Kendall closed form."""
        if r.universe != self.universe:
            raise EstimatorError("event universe differs from model universe")
        items = [x for group in r.groups for x in group]
        sizes = list(map(len, r.groups))
        # a compact copy of the event's block, as Python floats for the loop
        block = self.fbar.take(items, axis=0).take(items, axis=1).tolist()
        e_mean = expected_distance(
            self.universe.n, sizes, block, [self._rowsums[x] for x in items]
        )
        value = self._kernel_value(sizes, e_mean)
        return EventProbability(value, value < 0)

    def subset_stats(self, items: Sequence[int]) -> np.ndarray:
        """fbar's block over an item subset. Nothing in the package calls
        it; it stays while rankbench's tracer and its tests expect it."""
        return self.fbar[np.ix_(items, items)]

    def chain_prob(self, chains, sizes: Optional[Sequence[int]] = None) -> np.ndarray | float:
        """Probabilities of B same-shaped events: ``chains`` is a (B, k) int
        array, each row the event's k items in group order, and ``sizes``
        the tie-group sizes every row shares (all 1 by default: strict chains
        chain[0] < chain[1] < ..., other items unranked). The result holds B
        values, and a single 1-D row gives a float.

        It makes the ``expected_distance`` call of ``event_prob`` with (B,)
        arrays for floats, so each value is bit-identical to event_prob of
        the row's ranking when each group lists its items in ascending
        order, and temporaries are O(B)."""
        chains = np.asarray(chains)
        cols = list(np.atleast_2d(chains).T)
        n = self.universe.n
        sizes = [1] * len(cols) if sizes is None else list(sizes)
        rowsums = np.array(self._rowsums)
        e_mean = expected_distance(
            n, sizes, _gathered_rows(self.fbar.ravel(), n, cols),
            [rowsums[col] for col in cols],
        )
        values = self._kernel_value(sizes, e_mean)
        return float(values[0]) if chains.ndim == 1 else values

    def conjunction_prob(self, constraints: Sequence[tuple[int, int]]) -> float:
        """Probability that all ordered pair constraints hold, via the sum
        over the total orders (chains) of the involved items that meet them;
        the constraints are contradictory when no order does."""
        involved = sorted({i for c in constraints for i in c})
        if len(involved) > 6:
            raise EstimatorError("conjunction limited to 6 distinct items")
        for i, j in constraints:
            if i == j:
                raise EstimatorError("constraint pairs need distinct items")
        cons = set(constraints)
        values = []
        for order in itertools.permutations(involved):
            pos = {item: p for p, item in enumerate(order)}
            if all(pos[i] < pos[j] for i, j in cons):
                values.append(
                    self.event_prob(chain_ranking(self.universe, order)).value
                )
        if not values:
            raise EstimatorError("contradictory constraints")
        return math.fsum(values)


def fit(
    rankings: Sequence[TiedRanking] | GroupedRankings, h: Optional[float] = None
) -> KernelModel:
    """Build the memory-based model (no training-time optimization) from
    training rankings or their grouped record."""
    if isinstance(rankings, GroupedRankings):
        grouped = rankings
    else:
        if not rankings:
            raise EstimatorError("empty training set")
        for r in rankings:
            if r.universe != rankings[0].universe:
                raise EstimatorError("training rankings must share a universe")
        grouped = _grouped(rankings)
    if not len(grouped.users):
        raise EstimatorError("empty training set")
    n = grouped.universe.n
    if h is None:
        h = default_bandwidth(n)
    norm = triangular_normalization(n, h)
    return KernelModel(grouped.universe, _mean_pair_factors(grouped), h, norm)


def empirical_prob(rankings: Sequence[TiedRanking], r: TiedRanking) -> float:
    """Fraction of rankings that entail the event."""
    if not rankings:
        raise EstimatorError("empty ranking collection")
    return sum(s.implies(r) for s in rankings) / len(rankings)


# -- baselines and evaluation ---------------------------------------------


@dataclass(frozen=True)
class MallowsModel:
    center: Permutation
    concentration: float
    log_z: float

    def log_prob(self, perm: Permutation) -> float:
        from .combinatorics import kendall_tau

        return -self.concentration * kendall_tau(perm, self.center) - self.log_z


def mallows_fit(perms: Sequence[Permutation]) -> MallowsModel:
    """Exhaustive-center maximum likelihood fit at small n.

    The center minimizing total distance is the MLE for any positive
    concentration c. A candidate's total distance to the data is, over
    each pair it orders x ahead of y, the number of data orders that put
    y ahead of x: an integer sum over the data's n x n pair-order counts.
    The profile log-likelihood -c * mean_dist - log Z(c)
    is concave in c, with slope E_c[t] - mean_dist, which falls as c grows,
    so c is its root in [0, MAX_CONCENTRATION], found by bisection to
    within 1e-6, or the end where the slope keeps one sign.
    """
    if not perms:
        raise EstimatorError("empty data")
    n = perms[0].n
    if n > 6:
        raise EstimatorError("exhaustive Mallows fit limited to n <= 6")
    pos = np.argsort([p.order for p in perms], axis=1)  # item positions, order by order
    ahead = (pos[:, :, None] < pos[:, None, :]).sum(axis=0)  # [x, y]: data orders, x ahead of y
    candidates = np.array(list(itertools.permutations(range(n))))  # lexicographic
    cpos = np.argsort(candidates, axis=1)
    totals = (cpos[:, :, None] < cpos[:, None, :]).reshape(len(cpos), n * n) @ ahead.T.ravel()
    center_idx = int(np.argmin(totals))  # argmin ties break lexicographically
    center = Permutation(tuple(candidates[center_idx].tolist()))
    mean_dist = totals[center_idx] / len(perms)

    table = mahonian_distribution(n)
    log_counts = np.log(table.unnormalized())  # exact integer counts, so log 1 = 0 at t = 0
    t = np.arange(table.max_distance + 1, dtype=float)

    def log_terms(c: float) -> tuple[np.ndarray, float]:
        """exp(log_counts - c t) scaled by exp(-top), and top, their largest log."""
        logs = log_counts - c * t
        top = float(logs.max())
        return np.exp(logs - top), top

    def rising(c: float) -> bool:
        """Whether the profile likelihood still rises at c: E_c[t] > mean_dist."""
        terms, _ = log_terms(c)
        return float((terms * t).sum() / terms.sum()) > mean_dist

    lo, hi = 0.0, MAX_CONCENTRATION
    if mean_dist >= table.max_distance / 2:  # E_0[t], exact: the uniform mean distance
        c = lo
    elif rising(hi):
        c = hi
    else:
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if rising(mid) else (lo, mid)
        c = 0.5 * (lo + hi)
    terms, top = log_terms(c)
    return MallowsModel(center, c, top + float(np.log(terms.sum())))


@dataclass(frozen=True)
class LogLikResult:
    mean: float
    n_used: int
    n_floored: int


def heldout_loglikelihood(probs: Sequence[float] | np.ndarray) -> LogLikResult:
    """Mean log probability of held-out events, each floored at ``LIKELIHOOD_FLOOR``.
    The logs are taken one value at a time by ``math.log``, as numpy's log
    may differ from libm in the last bit."""
    probs = np.asarray(probs, dtype=float)
    if not probs.size:
        raise EstimatorError("no usable test rankings")
    floored = probs < LIKELIHOOD_FLOOR
    logs = [math.log(p) for p in np.where(floored, LIKELIHOOD_FLOOR, probs).tolist()]
    return LogLikResult(math.fsum(logs) / len(logs), len(logs), int(floored.sum()))
