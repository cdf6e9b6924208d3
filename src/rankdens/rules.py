"""Association-rule discovery from estimated preference probabilities."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .estimator import KernelModel
from .rankings import TiedRanking


class RulesError(ValueError):
    pass


# cell order: rows index the truth of i<j, columns the truth of k<l
_CELLS = ((True, True), (True, False), (False, True), (False, False))


@dataclass(frozen=True)
class JointPairTable:
    """Joint law of the two binary events i<j and k<l.

    cells[0,0] = p(i<j, k<l), cells[0,1] = p(i<j, l<k), and so on;
    marginals are the row/column sums so that downstream mutual
    information is a true plug-in quantity.
    """

    pair_a: tuple[int, int]
    pair_b: tuple[int, int]
    cells: np.ndarray

    def row_marginals(self) -> np.ndarray:
        return self.cells.sum(axis=1)

    def col_marginals(self) -> np.ndarray:
        return self.cells.sum(axis=0)


@dataclass(frozen=True)
class Rule:
    antecedent: tuple[int, int]
    consequent: tuple[int, int]
    score: float
    kind: str


def joint_pair_table(
    model: KernelModel, i: int, j: int, k: int, l: int
) -> JointPairTable:
    if len({i, j, k, l}) != 4:
        raise RulesError("joint pair table needs four distinct items")
    cells = np.empty((2, 2))
    for r, (ij,) in enumerate(((True,), (False,))):
        for c, (kl,) in enumerate(((True,), (False,))):
            first = (i, j) if ij else (j, i)
            second = (k, l) if kl else (l, k)
            cells[r, c] = model.conjunction_prob([first, second])
    return JointPairTable((i, j), (k, l), cells)


def _normalized_cells(cells: np.ndarray) -> tuple[np.ndarray, bool]:
    clamped = np.maximum(cells, 0.0)
    total = clamped.sum()
    if total <= 0:
        raise RulesError("degenerate joint table: all cells non-positive")
    renormalized = not np.array_equal(clamped, cells) or abs(total - 1.0) > 1e-9
    return clamped / total, renormalized


def _pointwise_mi(cells: np.ndarray) -> np.ndarray:
    rows = cells.sum(axis=1, keepdims=True)
    cols = cells.sum(axis=0, keepdims=True)
    out = np.zeros_like(cells)
    mask = cells > 0
    denom = (rows * cols)[mask]
    out[mask] = cells[mask] * np.log(cells[mask] / denom)
    return out


def mutual_information(table: JointPairTable) -> float:
    """Plug-in mutual information of the table, natural log, >= 0.

    Negative cells (possible with the modified kernel) are clamped at zero
    and the table renormalized before the computation.
    """
    cells, _ = _normalized_cells(table.cells)
    return max(float(_pointwise_mi(cells).sum()), 0.0)


def _chain_cells(model: KernelModel, stats, quad: tuple[int, int, int, int]) -> np.ndarray:
    """The four joint cells for a quadruple, via the chain fast path."""
    i, j, k, l = quad
    cells = np.zeros((2, 2))
    for order in itertools.permutations(quad):
        pos = {item: p for p, item in enumerate(order)}
        r = 0 if pos[i] < pos[j] else 1
        c = 0 if pos[k] < pos[l] else 1
        cells[r, c] += model.chain_prob(stats, order)
    return cells


def _orient(
    cells: np.ndarray, pair_a: tuple[int, int], pair_b: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Pick the orientation from the largest positive pointwise-MI cell."""
    normalized, _ = _normalized_cells(cells)
    pmi = _pointwise_mi(normalized)
    r, c = np.unravel_index(int(np.argmax(pmi)), pmi.shape)
    ante = pair_a if r == 0 else (pair_a[1], pair_a[0])
    cons = pair_b if c == 0 else (pair_b[1], pair_b[0])
    return ante, cons


def mine_mi_rules(
    model: KernelModel, items: Sequence[int], top_t: int
) -> list[Rule]:
    """Rank all disjoint item-pair quadruples from the subset by mutual
    information and orient the top ones."""
    items = sorted(set(items))
    if len(items) < 4:
        raise RulesError("rule mining needs at least 4 items")
    stats = model.subset_stats(items)
    scored = []
    pairs = list(itertools.combinations(items, 2))
    for a_idx in range(len(pairs)):
        for b_idx in range(a_idx + 1, len(pairs)):
            pa, pb = pairs[a_idx], pairs[b_idx]
            if set(pa) & set(pb):
                continue
            cells = _chain_cells(model, stats, (*pa, *pb))
            try:
                normalized, _ = _normalized_cells(cells)
            except RulesError:
                continue
            mi = max(float(_pointwise_mi(normalized).sum()), 0.0)
            scored.append((mi, pa, pb, cells))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    rules = []
    for mi, pa, pb, cells in scored[:top_t]:
        ante, cons = _orient(cells, pa, pb)
        rules.append(Rule(ante, cons, mi, "mi"))
    return rules


def _lift_scorer(model: KernelModel, subset: Sequence[int], mode: str):
    """lift(i, j) over a sorted subset. Each event probability and each
    marginal is computed once per scorer, and a marginal always sums in
    subset order, so a lift does not depend on which lifts came before."""
    if mode not in ("top2", "top-bottom"):
        raise RulesError(f"unknown lift mode {mode!r}")

    def prob(*groups) -> float:
        event = TiedRanking(model.universe, tuple(g for g in groups if g))
        return model.event_prob(event).value

    def rest(*drop) -> tuple[int, ...]:
        return tuple(x for x in subset if x not in drop)

    @functools.cache
    def joint(i: int, j: int) -> float:  # i highest and j second, or j lowest
        if mode == "top2":
            return prob((i,), (j,), rest(i, j))
        return prob((i,), rest(i, j), (j,))

    @functools.cache
    def top(i: int) -> float:
        return prob((i,), rest(i))

    @functools.cache
    def other(j: int) -> float:  # j second, summed over the top item; or j lowest
        if mode == "top-bottom":
            return prob(rest(j), (j,))
        p_second = 0.0
        for x in subset:
            if x != j:
                p_second += joint(x, j)
        return p_second

    def lift(i: int, j: int) -> float:
        denom = top(i) * other(j)
        if denom <= 0:
            raise RulesError("zero marginal in lift computation")
        return joint(i, j) / denom

    return lift


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
    return _lift_scorer(model, subset, mode)(i, j)


def mine_lift_rules(
    model: KernelModel, items: Sequence[int], mode: str, top_t: int
) -> list[Rule]:
    items = sorted(set(items))
    lift = _lift_scorer(model, items, mode)
    scored = []
    for i in items:
        for j in items:
            if i != j:
                scored.append((lift(i, j), i, j))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    kind = f"lift-{mode}"
    return [Rule((i,), (j,), s, kind) for s, i, j in scored[:top_t]]


def affinity_graph(
    model: KernelModel, items: Sequence[int], threshold: float
) -> list[tuple[int, int, float]]:
    """Undirected edges {i, j} weighted by the mean of the two directed
    top-pair lifts, kept above the threshold. Isolated vertices do not
    appear."""
    if threshold <= 0:
        raise RulesError("threshold must be positive")
    items = sorted(set(items))
    lift = _lift_scorer(model, items, "top2")
    edges = []
    for i, j in itertools.combinations(items, 2):
        w = 0.5 * (lift(i, j) + lift(j, i))
        if w > threshold:
            edges.append((i, j, w))
    return edges
