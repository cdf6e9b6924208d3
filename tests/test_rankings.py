import math

import pytest
from hypothesis import given, strategies as st

from rankdens import oracle
from rankdens.rankings import (
    ItemUniverse,
    Permutation,
    RankingError,
    TiedRanking,
    chain_ranking,
    format_ranking,
    full_group_ranking,
    pair_ranking,
    parse_ranking,
)


def test_universe_default_labels():
    u = ItemUniverse(3)
    assert [u.label_of(i) for i in range(3)] == ["1", "2", "3"]
    assert u.index_of("2") == 1
    with pytest.raises(RankingError):
        u.index_of("7")
    with pytest.raises(RankingError):
        u.index_of("zebra")


def test_universe_custom_labels():
    u = ItemUniverse(2, ("left", "right"))
    assert u.index_of("right") == 1
    with pytest.raises(RankingError):
        ItemUniverse(2, ("a", "a"))
    with pytest.raises(RankingError):
        ItemUniverse(0)


def test_permutation_positions():
    p = Permutation((2, 0, 1))
    assert p.positions() == (2, 3, 1)
    with pytest.raises(RankingError):
        Permutation((0, 0, 1))


def test_parse_and_format_roundtrip(u4):
    for text in ("3|2|1,4", "1,2,3,4", "2|4"):
        r = parse_ranking(text, u4)
        assert format_ranking(r) == text


def test_parse_precedes_symbol(u4):
    assert parse_ranking("3 ≺ 2 ≺ 1,4", u4) == parse_ranking("3|2|1,4", u4)


def test_parse_rejects_empty_group(u4):
    with pytest.raises(RankingError):
        parse_ranking("1||2", u4)


def test_duplicate_item_rejected(u4):
    with pytest.raises(RankingError):
        TiedRanking(u4, ((0, 1), (1,)))


def test_level_labels_must_decrease(u4):
    TiedRanking(u4, ((0,), (1,)), (5, 2))
    with pytest.raises(RankingError):
        TiedRanking(u4, ((0,), (1,)), (2, 5))
    with pytest.raises(RankingError):
        TiedRanking(u4, ((0,), (1,)), (3,))


def test_basic_structure(u4):
    r = parse_ranking("3|1,4", u4)
    assert r.k == 3
    assert r.ranked_items() == frozenset({0, 2, 3})
    assert r.group_index(2) == 0
    assert r.group_index(1) is None


def test_consistent_count_formula(u5):
    # n! / k! * prod |A_j|!  with n=5, groups sizes (2, 1): 120/6 * 2 = 40
    r = parse_ranking("1,2|3", u5)
    assert round(math.exp(oracle.log_consistent_count(r))) == 40
    assert len(oracle.perm_table(5).consistent_indices(r)) == 40


def test_implies(u4):
    full = parse_ranking("3|2|1|4", u4)
    assert full.implies(parse_ranking("3|1", u4))
    assert full.implies(parse_ranking("2|1,4", u4))  # tie imposes nothing
    assert not full.implies(parse_ranking("1|3", u4))
    assert not parse_ranking("3|1", u4).implies(full)  # missing items
    # a tie in self cannot imply a strict order in other
    assert not parse_ranking("1,2", u4).implies(parse_ranking("1|2", u4))


def test_consistent(u4):
    pt = oracle.perm_table(4)
    idx = set(pt.consistent_indices(parse_ranking("3|1,4", u4)).tolist())
    assert pt.index[(2, 0, 3, 1)] in idx
    assert pt.index[(2, 1, 3, 0)] in idx
    assert pt.index[(0, 2, 3, 1)] not in idx


def test_insert_item_by_level(u4):
    r = TiedRanking(u4, ((2,), (0,)), (5, 3))
    joined = oracle.insert_item(r, 1, level=5)
    assert joined.groups == ((1, 2), (0,))
    created = oracle.insert_item(r, 1, level=4)
    assert created.groups == ((2,), (1,), (0,))
    assert created.level_labels == (5, 4, 3)
    below = oracle.insert_item(r, 1, level=1)
    assert below.groups == ((2,), (0,), (1,))
    with pytest.raises(RankingError):
        oracle.insert_item(r, 0, level=4)  # already ranked
    with pytest.raises(RankingError):
        oracle.insert_item(parse_ranking("3|1", u4), 1, level=2)  # no labels


def test_project_ranking(u5):
    r = parse_ranking("3|1,4", u5)
    p = oracle.project_ranking(r, [0, 2])
    assert p.groups == ((1,), (0,))
    assert p.universe.labels == ("1", "3")
    assert oracle.project_ranking(r, [1, 4]) is None
    # identity projection keeps the original universe
    same = oracle.project_ranking(r, list(range(5)))
    assert same.universe is r.universe


def test_builders(u4):
    assert chain_ranking(u4, [2, 0]).groups == ((2,), (0,))
    assert pair_ranking(u4, 1, 3).groups == ((1,), (3,))
    assert full_group_ranking(u4).groups == ((0, 1, 2, 3),)


@given(st.permutations(list(range(5))))
def test_full_order_consistent_only_with_itself(order):
    u = ItemUniverse(5)
    r = TiedRanking(u, tuple((i,) for i in order))
    pt = oracle.perm_table(5)
    assert pt.consistent_indices(r).tolist() == [pt.index[tuple(order)]]
