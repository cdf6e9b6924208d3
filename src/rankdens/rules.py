"""Association-rule discovery from estimated preference probabilities."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .estimator import KernelModel


class RulesError(ValueError):
    pass


# The 24 orders of a quadruple (i, j, k, l), as positions, in
# itertools.permutations order, and the joint cell 2r + c each order falls
# in: r = 0 when i precedes j, c = 0 when k precedes l.
_ORDERS = np.array(list(itertools.permutations(range(4))))
_ORDER_CELLS = [2 * int(o.index(0) > o.index(1)) + int(o.index(2) > o.index(3))
                for o in itertools.permutations(range(4))]
# Disjoint pair quadruples scored per chain_prob call by mine_mi_rules. A
# block's chains and their temporaries take about 1 MB; blocks of 4096 raised
# the peak memory of a whole CLI run by about 6 MB and were slower.
_BLOCK = 512


@dataclass(frozen=True)
class Rule:
    antecedent: tuple[int, int]
    consequent: tuple[int, int]
    score: float


def joint_pair_table(model: KernelModel, i: int, j: int, k: int, l: int) -> np.ndarray:
    """Joint law of the two binary events i<j and k<l as a 2x2 array:
    [0, 0] = p(i<j, k<l), [0, 1] = p(i<j, l<k), and so on; its row and
    column sums are the marginals, so mutual information is a true plug-in
    quantity."""
    if len({i, j, k, l}) != 4:
        raise RulesError("joint pair table needs four distinct items")
    cells = np.empty((2, 2))
    for r, first in enumerate(((i, j), (j, i))):
        for c, second in enumerate(((k, l), (l, k))):
            cells[r, c] = model.conjunction_prob([first, second])
    return cells


def _mi_terms(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise mutual-information terms of joint tables, one per row of
    cells (c00, c01, c10, c11): (the terms of the rows with a positive
    cell, a mask of those rows). Negative cells (possible with the modified
    kernel) are clamped at zero and each table renormalized first."""
    clamped = np.maximum(cells, 0.0)
    total = ((clamped[:, 0] + clamped[:, 1]) + clamped[:, 2]) + clamped[:, 3]
    ok = ~(total <= 0)
    p = clamped[ok] / total[ok, None]
    rows = p[:, [0, 0, 2, 2]] + p[:, [1, 1, 3, 3]]
    cols = p[:, [0, 1, 0, 1]] + p[:, [2, 3, 2, 3]]
    pos = p > 0
    ratio = np.divide(p, rows * cols, out=np.ones_like(p), where=pos)
    return np.where(pos, p * np.log(ratio), 0.0), ok


def _mi(terms: np.ndarray) -> np.ndarray:
    return np.maximum(((terms[:, 0] + terms[:, 1]) + terms[:, 2]) + terms[:, 3], 0.0)


def mutual_information(cells: np.ndarray) -> float:
    """Plug-in mutual information of a 2x2 joint table, natural log, >= 0.

    Negative cells (possible with the modified kernel) are clamped at zero
    and the table renormalized before the computation.
    """
    terms, ok = _mi_terms(np.asarray(cells, dtype=float).reshape(1, 4))
    if not ok[0]:
        raise RulesError("degenerate joint table: all cells non-positive")
    return float(_mi(terms)[0])


def _quadruple_blocks(items: Sequence[int]):
    """Every pair (pa, pb) of disjoint item pairs with pa < pb, as rows
    (i, j, k, l), in lexicographic (pa, pb) order; blocks hold at least
    _BLOCK rows, fewer only at the end."""
    pairs = np.array(list(itertools.combinations(items, 2)))
    rows, size = [], 0
    for a, pair in enumerate(pairs):
        later = pairs[a + 1:]
        later = later[(later != pair[0]).all(axis=1) & (later != pair[1]).all(axis=1)]
        rows.append(np.column_stack((np.broadcast_to(pair, later.shape), later)))
        size += len(later)
        if size >= _BLOCK:
            yield np.concatenate(rows)
            rows, size = [], 0
    if size:
        yield np.concatenate(rows)


def mine_mi_rules(
    model: KernelModel, items: Sequence[int], top_t: int,
    counts: Optional[Counter] = None,
) -> list[Rule]:
    """Rank all disjoint item-pair quadruples from the subset by mutual
    information and orient the top ones by their largest pointwise term.
    Joint-table cells below zero, over every quadruple scored, are counted
    in ``counts["negative"]``.

    A joint cell is the sum of six chain probabilities, so each block of
    quadruples is one ``chain_prob`` call over the 24 orders of each. Equal
    MI keeps the lexicographic ((i, j), (k, l)) order; a quadruple whose
    cells are all non-positive is skipped. Only the best top_t quadruples
    are kept between blocks, so memory does not grow with the number of
    quadruples."""
    items = sorted(set(items))
    if len(items) < 4:
        raise RulesError("rule mining needs at least 4 items")
    if top_t < 0:
        raise RulesError("top_t must be non-negative")
    best_mi, best_terms = np.zeros(0), np.zeros((0, 4))
    best_quads = np.zeros((0, 4), dtype=int)
    for quads in _quadruple_blocks(items):
        chains = quads[:, _ORDERS].reshape(-1, 4)
        probs = model.chain_prob(chains).reshape(len(quads), len(_ORDERS))
        cells = np.zeros((len(quads), 4))
        for order, cell in enumerate(_ORDER_CELLS):
            cells[:, cell] += probs[:, order]
        if counts is not None:
            counts["negative"] += int((cells < 0).sum())
        terms, ok = _mi_terms(cells)
        mi = np.concatenate((best_mi, _mi(terms)))
        keep = np.argsort(-mi, kind="stable")[:top_t]
        best_mi = mi[keep]
        best_terms = np.concatenate((best_terms, terms))[keep]
        best_quads = np.concatenate((best_quads, quads[ok]))[keep]
    rules = []
    for mi, (i, j, k, l), terms in zip(best_mi.tolist(), best_quads.tolist(), best_terms):
        r, c = divmod(int(np.argmax(terms)), 2)
        ante = (i, j) if r == 0 else (j, i)
        cons = (k, l) if c == 0 else (l, k)
        rules.append(Rule(ante, cons, mi))
    return rules


def _lifts(
    model: KernelModel, subset: Sequence[int], mode: str,
    counts: Optional[Counter] = None, pair: Optional[tuple[int, int]] = None,
) -> list[list[float]]:
    """lift[a][b] of 'subset[a] ranked highest' against 'subset[b] ranked
    second' (mode "top2") or 'ranked lowest' (mode "top-bottom") over a
    sorted subset of s items: the joint probability over the product of the
    two marginals. Every event of one kind has the same tie groups, (1, 1,
    s-2), (1, s-2, 1), (1, s-1) or (s-1, 1), the other items tied in subset
    order, so each kind is one ``chain_prob`` call; the "b second" marginal
    sums the joint column in subset order. Raises
    RulesError when the denominator of the lift at positions ``pair``, or of
    any lift, is not positive. Event probabilities below zero are counted in
    ``counts["negative"]``."""
    if mode not in ("top2", "top-bottom"):
        raise RulesError(f"unknown lift mode {mode!r}")
    s = len(subset)
    if s < 2:  # no pair to score
        return np.zeros((s, s)).tolist()
    items, pos = np.array(subset), np.arange(s)
    a, b = np.nonzero(pos[:, None] != pos)  # every ordered pair, row-major
    # the other items of each pair and of each item, ascending: the columns a mask keeps
    rest = items[((pos != a[:, None]) & (pos != b[:, None])).nonzero()[1]]
    rest = rest.reshape(len(a), s - 2)
    others = items[(pos != pos[:, None]).nonzero()[1]].reshape(s, s - 1)
    if mode == "top2":
        probs = model.chain_prob(np.column_stack((items[a], items[b], rest)), (1, 1, s - 2))
    else:
        probs = model.chain_prob(np.column_stack((items[a], rest, items[b])), (1, s - 2, 1))
    top = model.chain_prob(np.column_stack((items, others)), (1, s - 1))
    events = [probs, top]
    joint = np.zeros((s, s))
    joint[a, b] = probs
    if mode == "top2":
        other = joint.sum(axis=0)  # a C-ordered array's rows, added in subset order
    else:
        other = model.chain_prob(np.column_stack((others, items)), (s - 1, 1))
        events.append(other)
    if counts is not None:
        counts["negative"] += sum(int((p < 0).sum()) for p in events)
    denom = top[:, None] * other
    if (denom[~np.eye(s, dtype=bool) if pair is None else pair] <= 0).any():
        raise RulesError("zero marginal in lift computation")
    with np.errstate(divide="ignore", invalid="ignore"):
        return (joint / denom).tolist()


def lift_score(
    model: KernelModel,
    i: int,
    j: int,
    mode: str,
    subset: Sequence[int],
) -> float:
    """Lift of 'i ranked highest' against 'j ranked second' (mode "top2")
    or 'j ranked lowest' (mode "top-bottom"), within the subset."""
    subset = sorted(set(subset))
    if i == j or i not in subset or j not in subset:
        raise RulesError("i, j must be distinct subset members")
    a, b = subset.index(i), subset.index(j)
    return _lifts(model, subset, mode, pair=(a, b))[a][b]


def mine_lift_rules(
    model: KernelModel, items: Sequence[int], mode: str, top_t: int,
    counts: Optional[Counter] = None,
) -> list[Rule]:
    """The top_t lifts over ordered item pairs of the subset; negative event
    probabilities are counted in ``counts["negative"]``."""
    items = sorted(set(items))
    lift = _lifts(model, items, mode, counts)
    scored = [(lift[a][b], i, j) for a, i in enumerate(items)
              for b, j in enumerate(items) if a != b]
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    return [Rule((i,), (j,), s) for s, i, j in scored[:top_t]]


def affinity_graph(
    model: KernelModel, items: Sequence[int], threshold: float,
    counts: Optional[Counter] = None,
) -> list[tuple[int, int, float]]:
    """Undirected edges {i, j} weighted by the mean of the two directed
    top-pair lifts, kept above the threshold. Isolated vertices do not
    appear; negative event probabilities are counted in ``counts["negative"]``."""
    if threshold <= 0:
        raise RulesError("threshold must be positive")
    items = sorted(set(items))
    lift = _lifts(model, items, "top2", counts)
    edges = []
    for a, b in itertools.combinations(range(len(items)), 2):
        w = 0.5 * (lift[a][b] + lift[b][a])
        if w > threshold:
            edges.append((items[a], items[b], w))
    return edges
