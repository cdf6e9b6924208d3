"""Closed-form statistics of censored rankings under the uniform surrogate.

The expected Kendall distance between two tied, incomplete rankings is
linear in either one's pair factors 1 - 2*P(x precedes y) (Lebanon & Mao,
JMLR 2008): ``expected_distance``, which the kernel model also evaluates.
So one more item inserted into an event moves it only through the item's
pair factors and the new group centres: ``insertion_distances``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .rankings import RankingError, TiedRanking


def tie_terms(sizes: Iterable[int]) -> tuple[list[int], list[float]]:
    """Group index and centre of each ranked item, in group order, of a
    ranking with these tie-group sizes (most preferred first).

    The centre, the pair factor of a ranked item against any unranked one,
    is 2c - 1 with c = (tau + (phi-1)/2) / (k+1) the probability that an
    unranked item lands ahead of an item of best position tau in a group
    of phi, k items being ranked.
    """
    sizes = list(sizes)
    k = sum(sizes)
    grp, centre = [], []
    below = 0
    for gi, size in enumerate(sizes):
        grp += [gi] * size
        centre += [2.0 * (below + 1 + (size - 1) / 2.0) / (k + 1) - 1.0] * size
        below += size
    return grp, centre


def expected_distance(n: int, sizes: Sequence[int], rows, rowsums):
    """Expected Kendall distance from an event to a pair-factor matrix F
    over n items: n(n-1)/4 - 1/2 * sum over pairs of the two factors' product.

    The event ranks k items in tie groups of these sizes. ``rows`` is F's
    k x k block over those items in group order (zero on the diagonal),
    read once row by row, so rows may be lazy, and ``rowsums`` their full
    row sums in F, which cover the pairs with the unranked items; O(k^2).
    Entries may be floats (one event) or arrays (a batch of same-shaped
    events): the float operations match.
    """
    grp, centre = tie_terms(sizes)
    inner = 0.0
    for row, total, ga, gx in zip(rows, rowsums, grp, centre):
        in_event = 0.0
        for val, gb in zip(row, grp):
            in_event += val
            if gb > ga:
                inner -= val  # the event puts this row's item ahead
        inner += gx * (total - in_event)  # the items the event leaves unranked
    return n * (n - 1) / 4.0 - 0.5 * inner


def insertion_distances(F, ranked, grp, items, owner, gz, joins):
    """``expected_distance`` to the n x n pair-factor matrix F of R events e
    with one more item z inserted, (B, L): each event ranks k items, listed
    in group order in ``ranked`` (R, k) with their group indices ``grp``;
    z = items[b] goes into event owner[b] in L ways, the l-th joining group
    gz[r, l] if joins[r, l] and opening a singleton group just before it if not.
    By linearity, with g' the centres after the insertion, R F's row sums,
    f_G = sum_{a in G} F[z, a] and T_G = sum_{a in G} (R_a - sum_{b in e} F[a, b]):
    inner(e+z) = inner_ordered(e) + sum_{G before z} f_G - sum_{G after z} f_G
    + sum_G g'_G (T_G + f_G) + g'_z (R_z - sum_G f_G); O(R k^2 + B k L). Each
    sum over k items runs as for one event alone, so no value depends on the
    other events in the call.
    """
    k = ranked.shape[1]
    pairs = grp[:, :, None] - grp[:, None, :]
    rows, zrows = F[ranked[:, :, None], ranked[:, None, :]], F[items[:, None], ranked[owner]]
    ordered = [-block[ahead].sum() for block, ahead in zip(rows, pairs < 0)]
    outside = F[ranked].sum(axis=2) - rows.sum(axis=2)
    # tie_terms' centres after the insertion, z's own place dropped
    below, size = (pairs > 0).sum(2)[:, None], (pairs == 0).sum(2)[:, None]
    g, p, j = grp[:, None, :], gz[:, :, None], joins[:, :, None]
    after, joined = (g > p) | (g == p) & ~j, (g == p) & j  # z's group is before, or is, the item's
    centre = 2.0 * (below + after + 1 + (size + joined - 1) / 2.0) / (k + 2) - 1.0
    cz = 2.0 * ((g < p).sum(2) + 1 + joined.sum(2) / 2.0) / (k + 2) - 1.0
    coef = np.sign(p - (g + after)) + centre - cz[:, :, None]
    # one 1-D dot per (event, insertion): a stacked product changes the last bits
    const = np.array([[o + c @ out for c in cs] for o, cs, out in zip(ordered, centre, outside)])
    zsums = (zrows[:, None] * coef[owner]).sum(axis=2)
    inner = const[owner] + F[items].sum(axis=1)[:, None] * cz[owner] + zsums
    return len(F) * (len(F) - 1) / 4.0 - 0.5 * inner


def pair_pref_prob(u: TiedRanking, i: int, j: int) -> float:
    """P(i precedes j) under the uniform law over permutations consistent
    with u. Five cases depending on which of i, j are ranked."""
    if i == j:
        raise RankingError("pair requires two distinct items")
    n = u.n
    if not (0 <= i < n and 0 <= j < n):
        raise RankingError("item index out of range")
    gi, gj = u.group_index(i), u.group_index(j)
    if gi is not None and gj is not None:
        if gi == gj:
            return 0.5
        return 1.0 if gi < gj else 0.0
    if gi is None and gj is None:
        return 0.5
    _, centre = tie_terms(map(len, u.groups))
    ranked = [x for group in u.groups for x in group]
    if gj is not None:  # only j ranked
        return (1.0 + centre[ranked.index(j)]) / 2.0
    return 1.0 - (1.0 + centre[ranked.index(i)]) / 2.0  # only i ranked


def expected_kendall(s: TiedRanking, r: TiedRanking) -> float:
    """Mean Kendall tau between independent uniform draws from the two
    consistent-permutation sets: ``expected_distance`` of s against r's
    pair factors, O(k^2) over the items s ranks."""
    if s.universe != r.universe:
        raise RankingError("universe mismatch")
    n = s.n
    grp, centre = tie_terms(map(len, r.groups))
    ranked = [x for group in r.groups for x in group]
    # r's group index (-1 if unranked) and centre (0 if unranked) per item
    r_grp, r_centre = np.full(n, -1), np.zeros(n)
    r_grp[ranked], r_centre[ranked] = grp, centre
    items = [x for group in s.groups for x in group]
    g, c = r_grp[items], r_centre[items]
    both = (g[:, None] >= 0) & (g >= 0)
    block = np.where(both, np.sign(g[:, None] - g), c[:, None] - c)
    # an item's pair factors against r's k ranked items sum to (k+1) times
    # its centre and against the n-k unranked ones to (n-k) times it; an
    # item r leaves unranked has centre 0, as r's centres sum to 0
    rowsums = (n + 1) * c
    return expected_distance(
        n, list(map(len, s.groups)), block.tolist(), rowsums.tolist()
    )
