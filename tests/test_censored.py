import itertools

import numpy as np
import pytest

from rankdens import oracle
from rankdens.censored import expected_kendall, pair_pref_prob
from rankdens.rankings import ItemUniverse, TiedRanking, parse_ranking


def test_documented_pair_cases():
    u = ItemUniverse(4)
    assert pair_pref_prob(parse_ranking("3|2|4", u), 0, 2) == pytest.approx(0.25)
    assert pair_pref_prob(parse_ranking("2,3|4", u), 0, 1) == pytest.approx(0.375)


def test_pair_cases_by_structure():
    u = ItemUniverse(4)
    r = parse_ranking("3|1|2", u)
    # both ranked: deterministic
    assert pair_pref_prob(r, 2, 0) == 1.0
    assert pair_pref_prob(r, 0, 2) == 0.0
    # tied pair: exactly 1/2
    assert pair_pref_prob(parse_ranking("1,2|3", u), 0, 1) == 0.5
    # both unranked: exactly 1/2
    assert pair_pref_prob(parse_ranking("1|2", u), 2, 3) == 0.5


def test_pair_complement_exact():
    rng = np.random.default_rng(7)
    u = ItemUniverse(6)
    for _ in range(200):
        r = oracle.random_tied_ranking(rng, u)
        i, j = rng.permutation(6)[:2]
        assert pair_pref_prob(r, i, j) + pair_pref_prob(r, j, i) == 1.0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pair_pref_matches_enumeration(n):
    rng = np.random.default_rng(n)
    u = ItemUniverse(n)
    for _ in range(300):
        r = oracle.random_tied_ranking(rng, u)
        i, j = rng.permutation(n)[:2]
        assert pair_pref_prob(r, int(i), int(j)) == pytest.approx(
            oracle.brute_pair_pref(r, int(i), int(j)), abs=1e-12
        )


@pytest.mark.parametrize("n", [3, 4, 5])
def test_expected_kendall_matches_enumeration(n):
    rng = np.random.default_rng(100 + n)
    u = ItemUniverse(n)
    for _ in range(200):
        s = oracle.random_tied_ranking(rng, u)
        r = oracle.random_tied_ranking(rng, u)
        assert expected_kendall(s, r) == pytest.approx(
            oracle.brute_expected_kendall(s, r), abs=1e-10
        )


def test_expected_kendall_unconstrained_pair():
    # two single-group rankings: every pair contributes 1/2, E = n(n-1)/4
    u = ItemUniverse(5)
    s = parse_ranking("1,2,3,4,5", u)
    assert expected_kendall(s, s) == pytest.approx(5.0)


def test_expected_kendall_identical_full_orders():
    u = ItemUniverse(4)
    s = parse_ranking("2|4|1|3", u)
    assert expected_kendall(s, s) == 0.0
    rev = parse_ranking("3|1|4|2", u)
    assert expected_kendall(s, rev) == 6.0


def _sparse_tied_ranking(rng, u, max_ranked):
    """A random tied ranking of at most max_ranked of u's items."""
    k = int(rng.integers(1, max_ranked + 1))
    items = [int(x) for x in rng.permutation(u.n)[:k]]
    cuts = sorted({0, k, *(int(c) for c in rng.integers(1, k + 1, size=k // 2))})
    return TiedRanking(u, tuple(tuple(items[a:b]) for a, b in zip(cuts, cuts[1:])))


def test_expected_kendall_is_the_sum_of_pair_disagreements():
    # large n, few ranked items: the closed form against its pairwise definition
    rng = np.random.default_rng(40)
    u = ItemUniverse(40)
    for _ in range(30):
        s = _sparse_tied_ranking(rng, u, 8)
        r = _sparse_tied_ranking(rng, u, 8)
        want = 0.0
        for i, j in itertools.combinations(range(u.n), 2):
            ps, pr = pair_pref_prob(s, i, j), pair_pref_prob(r, i, j)
            want += ps * (1.0 - pr) + (1.0 - ps) * pr
        assert expected_kendall(s, r) == pytest.approx(want, rel=1e-12, abs=0)
