import itertools
from collections import Counter

import numpy as np
import pytest

from rankdens import estimator, oracle, rules as rules_module
from rankdens.rankings import ItemUniverse, Permutation, TiedRanking, chain_ranking
from rankdens.rules import (
    RulesError,
    affinity_graph,
    joint_pair_table,
    lift_score,
    mine_lift_rules,
    mine_mi_rules,
    mutual_information,
)


def _table(cells):
    return np.asarray(cells, dtype=float)


def _structured_model(n=6, m=120, seed=0, h=None):
    u = ItemUniverse(n)
    cfg = oracle.MixtureConfig(
        u,
        (Permutation(tuple(range(n))), Permutation(tuple(reversed(range(n))))),
        (2.0, 2.0),
        (0.5, 0.5),
        rho=0.8,
        tie_block=1,
    )
    train = oracle.synthesize(cfg, m, seed=seed)
    return estimator.fit(train, h=h or float(n * (n - 1) / 2))


def test_mi_perfectly_correlated():
    assert mutual_information(_table([[0.5, 0.0], [0.0, 0.5]])) == pytest.approx(
        np.log(2), abs=1e-12
    )


def test_mi_product_table_zero():
    for pa, pb in ((0.5, 0.5), (0.3, 0.8), (0.1, 0.2)):
        cells = np.outer([pa, 1 - pa], [pb, 1 - pb])
        assert mutual_information(_table(cells)) == pytest.approx(0.0, abs=1e-12)


def test_mi_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert mutual_information(_table(rng.dirichlet(np.ones(4)).reshape(2, 2))) >= 0.0


def test_mi_clamps_negative_cells():
    mi = mutual_information(_table([[0.6, -0.1], [0.2, 0.3]]))
    assert mi >= 0.0
    with pytest.raises(RulesError):
        mutual_information(_table([[-1, 0], [0, 0]]))


def test_mi_marginals():
    t = _table([[0.4, 0.1], [0.2, 0.3]])
    np.testing.assert_allclose(t.sum(axis=1), [0.5, 0.5])
    np.testing.assert_allclose(t.sum(axis=0), [0.6, 0.4])


def test_joint_pair_table_cells_sum_to_one():
    model = _structured_model()
    t = joint_pair_table(model, 0, 2, 3, 5)
    assert t.shape == (2, 2)
    assert t.sum() == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(RulesError):
        joint_pair_table(model, 0, 0, 1, 2)


def test_mi_rules_deterministic_and_shaped():
    model = _structured_model()
    rules = mine_mi_rules(model, range(6), top_t=5)
    again = mine_mi_rules(model, range(6), top_t=5)
    assert rules == again
    assert len(rules) == 5
    assert all(r.score >= 0 for r in rules)
    scores = [r.score for r in rules]
    assert scores == sorted(scores, reverse=True)
    for r in rules:
        assert not set(r.antecedent) & set(r.consequent)


def _reference_mi_rules(model, items):
    """Every disjoint quadruple scored alone: each 2x2 cell sums the
    event_prob of its six chain rankings in itertools.permutations order,
    then clamp, renormalize and plug-in MI; sorted by (-MI, pa, pb) and
    oriented by the largest pointwise term."""
    scored = []
    for pa, pb in itertools.combinations(itertools.combinations(items, 2), 2):
        if set(pa) & set(pb):
            continue
        cells = np.zeros((2, 2))
        for order in itertools.permutations((*pa, *pb)):
            r = int(order.index(pa[0]) > order.index(pa[1]))
            c = int(order.index(pb[0]) > order.index(pb[1]))
            cells[r, c] += model.event_prob(chain_ranking(model.universe, order)).value
        clamped = np.maximum(cells, 0.0)
        if clamped.sum() <= 0:
            continue
        p = clamped / clamped.sum()
        outer = p.sum(axis=1, keepdims=True) * p.sum(axis=0, keepdims=True)
        terms = np.zeros((2, 2))
        terms[p > 0] = p[p > 0] * np.log(p[p > 0] / outer[p > 0])
        r, c = np.unravel_index(int(np.argmax(terms)), terms.shape)
        ante = pa if r == 0 else pa[::-1]
        cons = pb if c == 0 else pb[::-1]
        scored.append((max(float(terms.sum()), 0.0), pa, pb, ante, cons))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    return [(mi, ante, cons) for mi, _, _, ante, cons in scored]


@pytest.mark.parametrize("h", [None, 14.1], ids=["default-h", "signed-kernel"])  # n(n-1)/4 = 14
@pytest.mark.parametrize("block", [rules_module._BLOCK, 16], ids=["one-block", "many-blocks"])
def test_mine_mi_rules_matches_per_quadruple_reference(monkeypatch, h, block):
    monkeypatch.setattr(rules_module, "_BLOCK", block)
    model = _structured_model(n=8, h=h)
    want = _reference_mi_rules(model, range(8))
    assert len(want) == 210  # C(8, 2) * C(6, 2) / 2 quadruples, none degenerate
    mined_counts, top_counts = Counter(), Counter()
    mined = mine_mi_rules(model, range(8), top_t=len(want), counts=mined_counts)
    assert [(r.score, r.antecedent, r.consequent) for r in mined] == want
    top = mine_mi_rules(model, range(8), top_t=7, counts=top_counts)
    assert [(r.score, r.antecedent, r.consequent) for r in top] == want[:7]
    assert top_counts["negative"] == mined_counts["negative"]
    assert (mined_counts["negative"] > 0) == (h is not None)


def test_mine_needs_four_items():
    model = _structured_model()
    with pytest.raises(RulesError):
        mine_mi_rules(model, [0, 1, 2], top_t=1)


def test_lift_scores_positive_and_modes_differ():
    model = _structured_model(m=200, seed=1)
    subset = [
        0,
        1,
        4,
        5,
    ]
    top2 = lift_score(model, 0, 1, "top2", subset)
    tb = lift_score(model, 0, 5, "top-bottom", subset)
    assert top2 > 0 and tb > 0
    with pytest.raises(RulesError):
        lift_score(model, 0, 0, "top2", subset)
    with pytest.raises(RulesError):
        lift_score(model, 0, 1, "sideways", subset)


def test_mine_lift_rules_sorted():
    model = _structured_model(m=150, seed=2)
    rules = mine_lift_rules(model, [0, 1, 2, 3], "top2", top_t=6)
    assert len(rules) == 6
    scores = [r.score for r in rules]
    assert scores == sorted(scores, reverse=True)


def test_affinity_graph_threshold():
    model = _structured_model(m=150, seed=4)
    all_edges = affinity_graph(model, [0, 1, 2, 3], threshold=1e-9)
    strong = affinity_graph(model, [0, 1, 2, 3], threshold=1.05)
    assert set(strong) <= set(all_edges)
    for i, j, w in all_edges:
        assert i < j and w > 0
    with pytest.raises(RulesError):
        affinity_graph(model, [0, 1, 2], threshold=0)


def _reference_lifts(model, subset, mode):
    """Every lift of a sorted subset from event_prob of its own TiedRanking
    events: {(i, j): lift, or None when the denominator is not positive},
    and the number of negative events among every joint, "i highest" and
    "j lowest" event, each scored once. The "j second" marginal sums the
    joint events (x, j) in subset order."""
    negative = 0

    def prob(*groups):
        nonlocal negative
        p = model.event_prob(TiedRanking(model.universe, tuple(g for g in groups if g)))
        negative += p.negative
        return p.value

    def rest(*drop):
        return tuple(x for x in subset if x not in drop)

    pairs = [(i, j) for i in subset for j in subset if i != j]
    if not pairs:
        return {}, 0
    if mode == "top2":
        joint = {(i, j): prob((i,), (j,), rest(i, j)) for i, j in pairs}
    else:
        joint = {(i, j): prob((i,), rest(i, j), (j,)) for i, j in pairs}
    top = {i: prob((i,), rest(i)) for i in subset}
    if mode == "top2":
        other = {}
        for j in subset:
            other[j] = 0.0
            for x in subset:
                if x != j:
                    other[j] += joint[x, j]
    else:
        other = {j: prob(rest(j), (j,)) for j in subset}
    denoms = {(i, j): top[i] * other[j] for i, j in pairs}
    return {p: joint[p] / d if d > 0 else None for p, d in denoms.items()}, negative


@pytest.mark.parametrize("h", [None, 14.5, 14.1],
                         ids=["default-h", "signed-kernel", "zero-marginals"])  # n(n-1)/4 = 14
@pytest.mark.parametrize("size", [1, 2, 3, 8])
def test_lifts_match_per_event_reference(h, size):
    model = _structured_model(n=8, h=h)
    subset = [7, 0, 5, 2, 6, 1, 3, 4][:size]  # unsorted, as callers may pass it
    for mode in ("top2", "top-bottom"):
        want, negative = _reference_lifts(model, sorted(subset), mode)
        for (i, j), lift in want.items():
            if lift is None:
                with pytest.raises(RulesError):
                    lift_score(model, i, j, mode, subset)
            else:
                assert lift_score(model, i, j, mode, subset) == lift
        counts = Counter()
        if None in want.values():
            with pytest.raises(RulesError):
                mine_lift_rules(model, subset, mode, top_t=len(want), counts=counts)
            continue
        mined = mine_lift_rules(model, subset, mode, top_t=len(want), counts=counts)
        ranked = sorted(((lift, i, j) for (i, j), lift in want.items()),
                        key=lambda t: (-t[0], t[1], t[2]))
        assert [(r.score, *r.antecedent, *r.consequent) for r in mined] == ranked
        assert counts["negative"] == negative
        if mode == "top2":
            counts = Counter()
            edges = affinity_graph(model, subset, threshold=1.0, counts=counts)
            assert edges == [(i, j, 0.5 * (want[i, j] + want[j, i]))
                             for i, j in itertools.combinations(sorted(subset), 2)
                             if 0.5 * (want[i, j] + want[j, i]) > 1.0]
            assert counts["negative"] == negative
