import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from rankdens import oracle
from rankdens.censored import (
    _centre,
    _centre_numerator,
    expected_distance,
    expected_kendall,
    pair_pref_prob,
    tie_terms,
)
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


def _loop_expected_kendall(s, r):
    """expected_kendall by ``expected_distance``'s loop: r's pair factors
    between s's items and their row sums, as Python lists."""
    grp, centre = tie_terms(map(len, r.groups))
    ranked = [x for group in r.groups for x in group]
    g, c = dict(zip(ranked, grp)), dict(zip(ranked, centre))
    items = [x for group in s.groups for x in group]
    block = [[float(np.sign(g[a] - g[b])) if a in g and b in g else c.get(a, 0.0) - c.get(b, 0.0)
              for b in items] for a in items]
    rowsums = [(s.n + 1) * c.get(a, 0.0) for a in items]
    return expected_distance(s.n, [len(group) for group in s.groups], block, rowsums)


def _leveled_ranking(rng, u, items, levels):
    """These items tied by a random level out of 1..levels, best level first."""
    items = np.asarray(items)
    level = rng.integers(levels, size=len(items))
    return TiedRanking(u, tuple(tuple(items[level == lv].tolist())
                                for lv in range(levels) if (level == lv).any()))


def _pairs_of_every_shape():
    rng = np.random.default_rng(17)
    big = ItemUniverse(1000)
    for k in (1, 2, 7, 30, 50, 60):  # the closed-forms batch shape: n = 1000, k = 50, 5 levels
        for levels in range(1, 6):
            s, r = (_leveled_ranking(rng, big, rng.choice(1000, k, replace=False), levels)
                    for _ in range(2))
            yield s, r
    for n in (1, 2, 3, 5, 8):
        u = ItemUniverse(n)
        for _ in range(20):
            s, r = (oracle.random_tied_ranking(rng, u) for _ in range(2))
            yield s, r
    u = ItemUniverse(40)
    items = rng.permutation(40)
    r = _leveled_ranking(rng, u, items[:12], 4)
    for s_items in (items[:12], items[6:30], items[12:30]):  # the last: none ranked by r
        yield TiedRanking(u, (tuple(s_items.tolist()),)), r  # s in one group
        yield TiedRanking(u, tuple((int(x),) for x in s_items)), r  # s all singletons
    yield TiedRanking(u, ((int(items[0]),),)), r  # k = 1, ranked by r
    yield TiedRanking(u, ((int(items[39]),),)), r  # k = 1, not ranked by r


def test_expected_kendall_is_bit_identical_to_the_loop():
    # the array form's cumsums add in the loop's order: no value moves by a bit
    for s, r in _pairs_of_every_shape():
        got = expected_kendall(s, r)
        assert type(got) is float
        assert got == _loop_expected_kendall(s, r), (s, r)


def test_centre_numerator_over_k_plus_one_is_the_centre():
    # fit sums the integer numerators exactly. _centre's last step subtracts 1,
    # so it agrees with their quotient to an ulp of 1.0 (measured: half of
    # one, up to k = 200), not of the centre: near 0 that is up to 123 ulps
    below, size, k = np.array([(b, s, k) for k in range(1, 41) for b in range(k)
                               for s in range(1, k - b + 1)]).T
    numer = _centre_numerator(below, size, k)
    assert numer.dtype == np.int64 and (np.abs(numer) <= k).all()
    centre = _centre(below, size, k)
    for b, s, kk, nu, c in zip(*(a.tolist() for a in (below, size, k, numer, centre))):
        assert Fraction(nu, kk + 1) == 2 * Fraction(2 * b + 1 + s, 2 * (kk + 1)) - 1
        assert _centre_numerator(b, s, kk) == nu and _centre(b, s, kk) == c
        assert abs(nu / (kk + 1) - c) <= math.ulp(1.0)
