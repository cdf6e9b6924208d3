"""Kernel density estimation over preference events.

With missing items randomly censored, the expected Kendall distance from
an event to a training ranking is linear in the training ranking's pair
factors 1 - 2*P(x precedes y). So ``fit`` reduces the m training rankings
of n items to their mean, the n x n antisymmetric matrix fbar, by matrix
products whose every partial sum is an exact integer, about (G + 2) m n^2
multiply-adds for rankings of at most G tie groups; fbar is the same to
the bit whatever the order of the rankings or the BLAS thread count. A
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

from .censored import _centre_numerator, expected_distance
from .combinatorics import (
    TriangularNormalization,
    kendall_tau,
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

    @property
    def negative(self) -> bool:
        return self.value < 0


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


_USER_BLOCK = 256  # rankings per block of fbar's matrix products
_DIGIT_BITS = 26  # a centre is summed as three base-2**26 digits


def _centre_digits(numer: np.ndarray, den: np.ndarray) -> np.ndarray:
    """(3, len) integer digits d_1, d_2, d_3 of numer/den, with numer/den
    = sum_j d_j 2^(-26 j) + a remainder in [0, 2^-78); by floor division,
    so d_1 is in [-2^26, 2^26) for |numer| < den, and d_2, d_3 in [0, 2^26)."""
    digits, rest = [], numer
    for _ in range(3):
        digit, rest = np.divmod(rest * (1 << _DIGIT_BITS), den)
        digits.append(digit)
    return np.array(digits)


def _mean_pair_factors(grouped: GroupedRankings) -> np.ndarray:
    """The n x n training mean of 1 - 2*P(x precedes y | ranking).

    A pair factor is -1/0/+1 when both items are ranked (x in an
    earlier/the same/a later group), x's centre g[x] (``tie_terms``) when
    only x is ranked, -g[y] when only y is, and 0 when neither is. With Q
    the (m, n) matrix of each ranking's 1-based group indices, 0 where an
    item is unranked, the sum over rankings is P - P^T + sum_j 2^(-26 j)
    (D_j - D_j^T): P = sum_{g >= 2} (Q = g)^T (0 < Q < g) counts the
    rankings that put y in an earlier group than x, and D_j = W_j^T (Q = 0)
    sums x's centre digits ``_centre_digits`` W_j over the rankings that
    leave y unranked. A centre g = N/(k + 1) has the integer numerator N =
    ``_centre_numerator``, so its digits are exact integers and its
    truncation below 2^-78 is the only error before the sum. Every entry of
    every partial product is then an integer that its float type holds
    exactly (a block's (Q = g)^T (0 < Q < g) in float32 up to
    ``_USER_BLOCK``, P and D_j in float64 for fewer than 2^25 rankings), so
    no BLAS blocking, thread count or order of the rankings can change a
    bit; ``_mean_from_sums`` rounds the total once.

    The rankings go in blocks of ``_USER_BLOCK``, so temporaries are
    O(block n + n^2); the work is about (G + 2) m n^2 multiply-adds for
    rankings of at most G groups.
    """
    n = grouped.universe.n
    items, starts, bounds = grouped.items, grouped.user_starts, grouped.group_starts
    m, sizes = len(starts) - 1, np.diff(bounds)
    owner = np.searchsorted(starts, bounds[:-1], side="right") - 1  # each group's ranking
    k, below = np.diff(starts)[owner], bounds[:-1] - starts[owner]
    firsts = np.searchsorted(bounds, starts)  # each ranking's first group
    # each ranked item's ranking, 1-based group index and centre digits
    user = np.repeat(owner, sizes)
    group = np.repeat(np.arange(len(sizes)) - firsts[owner] + 1, sizes)
    digits = np.repeat(_centre_digits(_centre_numerator(below, sizes, k), k + 1), sizes, axis=1)
    later = np.zeros((n, n))  # P: rankings with y in an earlier group than x
    centred = np.zeros((3, n, n))  # D_1, D_2, D_3
    starts = starts.tolist()
    for u0 in range(0, m, _USER_BLOCK):
        u1 = min(u0 + _USER_BLOCK, m)
        a, b = starts[u0], starts[u1]
        rows, cols = user[a:b] - u0, items[a:b]
        q = np.zeros((u1 - u0, n), np.int32)
        q[rows, cols] = group[a:b]
        w = np.zeros((3, u1 - u0, n))
        w[:, rows, cols] = digits[:, a:b]
        unranked = (q == 0).astype(np.float64)
        for j in range(3):
            centred[j] += w[j].T @ unranked
        ahead = np.zeros((u1 - u0, n), np.float32)  # 1 where an item is in a group before g
        for g in range(1, int(q.max(initial=0)) + 1):
            at = (q == g).astype(np.float32)
            if g > 1:
                later += at.T @ ahead
            ahead += at
    return _mean_from_sums(later, centred, m)


def _mean_from_sums(later: np.ndarray, centred: np.ndarray, m: int) -> np.ndarray:
    """fbar from the integer sums P (n, n) and D (3, n, n) of m rankings
    (``_mean_pair_factors``). The integers of P - P^T and D_j - D_j^T are
    carried so that the two lower digits lie in [0, 2^26); then the integer
    part plus the first digit, and the two lower digits, are each an exact
    float, so their sum is rounded once, before the division by m. Each
    entry is within about an ulp of the exact mean, and the result is
    exactly antisymmetric, as rounding is symmetric in sign."""
    one = 1 << _DIGIT_BITS
    d1, d2, d3 = ((d - d.T).astype(np.int64) for d in centred)
    carry, d3 = np.divmod(d3, one)
    carry, d2 = np.divmod(d2 + carry, one)
    whole = (later - later.T) + (d1 + carry) * 2.0**-_DIGIT_BITS
    return (whole + (d2 * 2.0**(-2 * _DIGIT_BITS) + d3 * 2.0**(-3 * _DIGIT_BITS))) / m


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
        norm: TriangularNormalization,
    ):
        self.universe = universe
        self.fbar = fbar
        self.h = norm.h
        self.norm = norm
        self.logfact = np.concatenate(
            ([0.0], np.cumsum(np.log(np.arange(1, universe.n + 1))))
        )
        self._rowsums = self.fbar.sum(axis=1)

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
            self.universe.n, sizes, block, self._rowsums.take(items).tolist()
        )
        return EventProbability(self._kernel_value(sizes, e_mean))

    def subset_stats(self, items: Sequence[int]) -> np.ndarray:
        """fbar's block over an item subset. Nothing in the package calls
        it; it stays while rankbench's tracer and its tests expect it."""
        return self.fbar[np.ix_(items, items)]

    def chain_prob(self, chains, sizes: Optional[Sequence[int]] = None) -> np.ndarray:
        """Probabilities of B same-shaped events: ``chains`` is a (B, k) int
        array, each row the event's k items in group order, and ``sizes``
        the tie-group sizes every row shares (all 1 by default: strict chains
        chain[0] < chain[1] < ..., other items unranked). The result is (B,),
        a single 1-D row being a batch of one.

        It makes the ``expected_distance`` call of ``event_prob`` with (B,)
        arrays for floats, so each value is bit-identical to event_prob of
        the row's ranking when each group lists its items in ascending
        order, and temporaries are O(B)."""
        cols = list(np.atleast_2d(chains).T)
        n = self.universe.n
        sizes = [1] * len(cols) if sizes is None else list(sizes)
        e_mean = expected_distance(
            n, sizes, _gathered_rows(self.fbar.ravel(), n, cols),
            [self._rowsums[col] for col in cols],
        )
        return self._kernel_value(sizes, e_mean)

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
    return KernelModel(grouped.universe, _mean_pair_factors(grouped),
                       triangular_normalization(n, h))


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
