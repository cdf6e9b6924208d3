"""Closed-form statistics of censored rankings under the uniform surrogate.

The expected Kendall distance between two tied, incomplete rankings is
linear in either one's pair factors 1 - 2*P(x precedes y) (Lebanon & Mao,
JMLR 2008): ``expected_distance``, an O(k^2) loop with two running sums,
which the kernel model evaluates for one event or a batch. So one more
item inserted into an event moves it only through the item's pair factors
and the new group centres: ``insertion_distances``.

``expected_kendall`` runs the same two sums as numpy cumsums, which add in
the loop's order, so its values are the loop's bit for bit. The kernel
model keeps the loop, as measured: for one event (``event_prob``) the
array form's fixed per-call cost outweighs its k^2 work at k = 40, which
flattens the cost's growth with k, and across a batch axis
(``chain_prob``) a cumsum runs 2-8x slower than the loop's row-by-row
array updates.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .rankings import RankingError, TiedRanking


def _centre(below, size, k):
    """The centre of a tie group of ``size`` items after ``below`` more
    preferred ones, k items being ranked: the pair factor of any of its
    items against an unranked item. Ints or integer arrays alike.

    It is 2c - 1 with c = (tau + (phi-1)/2) / (k+1) the probability that
    an unranked item lands ahead of an item of best position tau = below + 1
    in a group of phi = size.
    """
    return 2.0 * (below + 1 + (size - 1) / 2.0) / (k + 1) - 1.0


def _centre_numerator(below, size, k):
    """``_centre`` times k + 1, the integer 2*below + size - k, in [-k, k].
    Ints or integer arrays alike."""
    return 2 * below + size - k


def group_centres(sizes: Sequence[int]) -> list[float]:
    """``_centre`` of each tie group of a ranking with these group sizes,
    most preferred first."""
    k = sum(sizes)
    centres, below = [], 0
    for size in sizes:
        centres.append(_centre(below, size, k))
        below += size
    return centres


def tie_terms(sizes: Iterable[int]) -> tuple[list[int], list[float]]:
    """Group index and centre (``group_centres``) of each ranked item, in
    group order, of a ranking with these tie-group sizes."""
    sizes = list(sizes)
    grp, centre = [], []
    for gi, (size, c) in enumerate(zip(sizes, group_centres(sizes))):
        grp += [gi] * size
        centre += [c] * size
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
    centre = _centre(below + after, size + joined, k + 1)
    cz = _centre((g < p).sum(2), joined.sum(2) + 1, k + 1)
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
    centre = group_centres([len(group) for group in u.groups])
    if gj is not None:  # only j ranked
        return (1.0 + centre[gj]) / 2.0
    return 1.0 - (1.0 + centre[gi]) / 2.0  # only i ranked


def expected_kendall(s: TiedRanking, r: TiedRanking) -> float:
    """Mean Kendall tau between independent uniform draws from the two
    consistent-permutation sets: ``expected_distance`` of s against r's
    pair factors, O(k^2) over the items s ranks, with the loop's two
    running sums as cumsums, which add strictly left to right.

    r's pair factor between two items depends only on their codes: r's
    group, 1..L, or 0 for unranked. So s's block is an (L+1) x (L+1) table
    read at s's items' codes, and its rows of one code are equal, as are
    their sums over the block (one cumsum per code). ``inner`` is one
    cumsum over a (k, k+1) term array that, read row-major, lists the
    loop's updates in order, with +0.0 where the loop adds nothing, which
    can change only the sign of a zero. So every value is bit-identical
    to ``expected_distance``'s, which the kernel model keeps for the
    reasons measured in the module docstring.
    """
    if s.universe != r.universe:
        raise RankingError("universe mismatch")
    n = s.n
    group_of = {x: gi for gi, group in enumerate(r.groups, 1) for x in group}
    code = np.array([group_of.get(x, 0) for group in s.groups for x in group])
    k = len(code)
    # pair factors by code: -1/0/+1 between two ranked items, otherwise the
    # centre difference, as an unranked item's centre is 0
    centre = np.array([0.0, *group_centres([len(g) for g in r.groups])])
    table = centre[:, None] - centre
    groups = np.arange(len(r.groups))
    table[1:, 1:] = np.sign(groups[:, None] - groups)
    rows = table[:, code]
    # an item's pair factors against r's k ranked items sum to (k+1) times
    # its centre and against the n-k unranked ones to (n-k) times it; an
    # item r leaves unranked has centre 0, as r's centres sum to 0
    by_code = np.empty((len(centre), k + 1))
    np.negative(rows, out=by_code[:, :k])
    by_code[:, k] = (n + 1) * centre - np.cumsum(rows, axis=1)[:, -1]
    # row a: -F[a, b] for each b in a later group of s, then s's centre of
    # a times the sum over the items s leaves unranked
    terms = by_code[code]
    lo = 0
    for size, c in zip(map(len, s.groups), group_centres([len(g) for g in s.groups])):
        terms[lo:lo + size, :lo + size] = 0.0
        terms[lo:lo + size, k] *= c
        lo += size
    inner = float(np.cumsum(terms)[-1])
    return n * (n - 1) / 4.0 - 0.5 * inner
