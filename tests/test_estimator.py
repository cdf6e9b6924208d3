import math

import numpy as np
import pytest

from rankdens import cli, estimator, ingest, oracle
from rankdens.censored import expected_kendall, pair_pref_prob, tie_terms
from rankdens.combinatorics import mahonian_distribution
from rankdens.estimator import EstimatorError
from rankdens.rankings import (
    ItemUniverse,
    Permutation,
    TiedRanking,
    chain_ranking,
    full_group_ranking,
    pair_ranking,
    parse_ranking,
)


def _random_training(rng, universe, m):
    return [oracle.random_tied_ranking(rng, universe) for _ in range(m)]


def test_hand_verified_event():
    u = ItemUniverse(3)
    model = estimator.fit([parse_ranking("1|2|3", u)], h=3)
    assert model.event_prob(parse_ranking("1|2", u)).value == pytest.approx(2 / 3)


def test_unconstrained_event_is_one():
    rng = np.random.default_rng(0)
    u = ItemUniverse(6)
    model = estimator.fit(_random_training(rng, u, 30))
    assert model.event_prob(full_group_ranking(u)).value == 1.0


def test_modified_matches_enumeration():
    rng = np.random.default_rng(1)
    for n in (3, 4, 5):
        u = ItemUniverse(n)
        for _ in range(60):
            train = _random_training(rng, u, int(rng.integers(1, 6)))
            event = oracle.random_tied_ranking(rng, u)
            h = float(n * (n - 1) / 2)
            model = estimator.fit(train, h=h)
            got = model.event_prob(event).value
            want = oracle.brute_event_prob(train, h, "modified", event)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_complement_is_exact():
    rng = np.random.default_rng(3)
    u = ItemUniverse(10)
    model = estimator.fit(_random_training(rng, u, 40))
    for _ in range(50):
        i, j = rng.permutation(10)[:2]
        a = model.event_prob(pair_ranking(u, int(i), int(j))).value
        b = model.event_prob(pair_ranking(u, int(j), int(i))).value
        assert a + b == pytest.approx(1.0, abs=1e-15)


def test_negative_flag():
    # a single training ranking far from the event can push the modified
    # kernel estimate below zero; the flag must record that
    u = ItemUniverse(4)
    model = estimator.fit([parse_ranking("1|2|3|4", u)], h=3.5)
    p = model.event_prob(parse_ranking("4|3|2|1", u))
    assert p.value < 0
    assert p.negative


def test_negative_flag_follows_the_value():
    assert estimator.EventProbability(-1e-300).negative
    assert not estimator.EventProbability(0.0).negative


def test_chain_prob_matches_event_prob():
    rng = np.random.default_rng(4)
    u = ItemUniverse(8)
    model = estimator.fit(_random_training(rng, u, 25))
    for _ in range(40):
        chain = [int(x) for x in rng.permutation(8)[: rng.integers(2, 5)]]
        direct = model.event_prob(chain_ranking(u, chain)).value
        assert model.chain_prob(chain)[0] == pytest.approx(direct, abs=1e-12)


def test_batched_chain_prob_is_bit_identical_to_one_chain():
    rng = np.random.default_rng(15)
    n = 12
    u = ItemUniverse(n)
    h = float(n * (n - 1) / 4 + 1)  # a signed kernel: some events are negative
    model = estimator.fit(_random_training(rng, u, 30), h=h)
    # (1, 1, 0) ends in an empty group, as the lift events of a two-item subset do
    for sizes in ((1, 1), (1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 3), (2, 3),
                  (1, 4, 1), (3, 1), (1, 1, 0)):
        k = sum(sizes)
        chains = np.array([rng.permutation(n)[:k] for _ in range(10)])
        bounds = np.cumsum((0, *sizes))
        for lo, hi in zip(bounds, bounds[1:]):  # each group's items ascending
            chains[:, lo:hi].sort(axis=1)
        strict = all(size == 1 for size in sizes)
        batch = model.chain_prob(chains, None if strict else sizes)
        assert batch.shape == (10,)
        for chain, value in zip(chains.tolist(), batch.tolist()):
            groups = [tuple(chain[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
            assert value == model.event_prob(TiedRanking(u, tuple(groups))).value
            single = model.chain_prob(chain, sizes)
            assert single.shape == (1,) and single[0] == value


def test_fbar_is_the_training_mean_of_censored_pair_factors():
    rng = np.random.default_rng(13)
    for n in (2, 3, 5, 7):
        u = ItemUniverse(n)
        train = _random_training(rng, u, int(rng.integers(1, 30)))
        model = estimator.fit(train)
        for x in range(n):
            for y in range(n):
                if x != y:
                    want = np.mean([1.0 - 2.0 * pair_pref_prob(r, x, y) for r in train])
                    assert model.fbar[x, y] == pytest.approx(want, rel=0, abs=1e-12)
        subset = sorted(int(x) for x in rng.permutation(n)[: int(rng.integers(1, n))])
        assert np.array_equal(model.subset_stats(subset), model.fbar[np.ix_(subset, subset)])


def test_conjunction_cells_sum_to_one():
    rng = np.random.default_rng(6)
    u = ItemUniverse(9)
    model = estimator.fit(_random_training(rng, u, 30))
    i, j, k, l = 0, 2, 5, 7
    total = 0.0
    for a in ((i, j), (j, i)):
        for b in ((k, l), (l, k)):
            total += model.conjunction_prob([a, b])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_conjunction_cycle_rejected():
    rng = np.random.default_rng(7)
    u = ItemUniverse(6)
    model = estimator.fit(_random_training(rng, u, 10))
    # no order of the involved items meets a cycle, whatever else is asked
    for constraints in ([(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 0)],
                        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5)]):
        with pytest.raises(EstimatorError, match="^contradictory constraints$"):
            model.conjunction_prob(constraints)
    with pytest.raises(EstimatorError):
        model.conjunction_prob([(0, 0)])


def test_conjunction_matches_enumeration():
    rng = np.random.default_rng(8)
    u = ItemUniverse(5)
    train = _random_training(rng, u, 8)
    h = 10.0
    model = estimator.fit(train, h=h)
    pt = oracle.perm_table(5)
    dist = oracle.brute_full_distribution(train, h, "modified")
    for _ in range(20):
        i, j, k, l = [int(x) for x in rng.permutation(5)[:4]]
        want = sum(
            dist[idx]
            for idx, p in enumerate(pt.perms)
            if p.positions()[i] < p.positions()[j] and p.positions()[k] < p.positions()[l]
        )
        got = model.conjunction_prob([(i, j), (k, l)])
        assert got == pytest.approx(want, abs=1e-10)


def test_fit_validation():
    u = ItemUniverse(3)
    with pytest.raises(EstimatorError):
        estimator.fit([])
    with pytest.raises(EstimatorError):
        estimator.fit(
            [parse_ranking("1|2", u), parse_ranking("1|2", ItemUniverse(4))]
        )


def test_default_bandwidth():
    assert estimator.default_bandwidth(10) == 45.0
    assert estimator.default_bandwidth(2) == 1.0
    assert estimator.default_bandwidth(1) > 0  # n(n-1)/2 is 0 there


def test_fit_at_the_default_bandwidth_on_one_item():
    u = ItemUniverse(1)
    model = estimator.fit([parse_ranking("1", u)] * 8)
    assert model.h == estimator.default_bandwidth(1)
    assert model.event_prob(parse_ranking("1", u)).value == 1.0


def test_empirical_prob():
    u = ItemUniverse(3)
    train = [parse_ranking("1|2|3", u), parse_ranking("2|1", u)]
    assert estimator.empirical_prob(train, parse_ranking("1|2", u)) == 0.5
    assert estimator.empirical_prob(train, parse_ranking("3|1", u)) == 0.0


def test_mallows_fit_recovers_center():
    rng = np.random.default_rng(10)
    center = Permutation((2, 0, 3, 1))
    draws = [oracle.sample_mallows(center, 3.0, rng) for _ in range(300)]
    model = estimator.mallows_fit(draws)
    assert model.center == center
    assert 1.5 < model.concentration < 6.0
    # log-probabilities over all of S_4 normalize
    pt = oracle.perm_table(4)
    total = sum(math.exp(model.log_prob(p)) for p in pt.perms)
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_mallows_log_probabilities_are_at_most_zero_and_normalize(n):
    # one repeated order saturates the concentration, so log_prob(center) is -log(1 + tiny)
    center = Permutation(tuple(reversed(range(n))))
    model = estimator.mallows_fit([center] * 3)
    assert model.center == center
    assert model.log_prob(center) <= 0
    total = math.fsum(math.exp(model.log_prob(p)) for p in oracle.perm_table(n).perms)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_mallows_fit_empty():
    with pytest.raises(EstimatorError):
        estimator.mallows_fit([])


def _mallows_reference(pt, perms, max_concentration=50.0):
    """(center, concentration, log_z) of the exhaustive fit: the centre and
    mean distance from the n! x n! matrix ``PermTable.dist``, then the
    concentration by bisection on the profile likelihood's slope."""
    totals = pt.dist[:, [pt.index[p.order] for p in perms]].sum(axis=1)
    center = int(np.argmin(totals))
    mean_dist = totals[center] / len(perms)
    log_counts = np.log(mahonian_distribution(pt.n).unnormalized())
    t = np.arange(len(log_counts), dtype=float)

    def terms(c):
        logs = log_counts - c * t
        return np.exp(logs - float(logs.max())), float(logs.max())

    def rising(c):
        w, _ = terms(c)
        return float((w * t).sum() / w.sum()) > mean_dist

    lo, hi = 0.0, max_concentration
    if mean_dist >= t[-1] / 2:
        c = lo
    elif rising(hi):
        c = hi
    else:
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if rising(mid) else (lo, mid)
        c = 0.5 * (lo + hi)
    w, top = terms(c)
    return pt.perms[center], c, top + float(np.log(w.sum()))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mallows_fit_matches_the_distance_matrix_without_the_oracle(monkeypatch, n):
    rng = np.random.default_rng(60 + n)
    pt = oracle.PermTable(n)
    center = Permutation(tuple(rng.permutation(n).tolist()))
    reverse = Permutation(center.order[::-1])
    datasets = [pt.perms, [center, reverse] * 3]  # every candidate ties at the same total
    for m in (1, 2, 3, 7, 40):
        datasets.append([pt.perms[i] for i in rng.integers(len(pt.perms), size=m)])
        datasets.append([oracle.sample_mallows(center, 0.7, rng) for _ in range(m)])
    want = [_mallows_reference(pt, perms) for perms in datasets]

    def refuse(n):
        raise AssertionError("mallows_fit enumerated through the oracle")

    monkeypatch.setattr(oracle, "perm_table", refuse)
    for perms, (center, concentration, log_z) in zip(datasets, want):
        model = estimator.mallows_fit(perms)
        assert model.center == center
        assert model.concentration == concentration and model.log_z == log_z


def test_test_loglikelihood_drops_partial_users():
    u = ItemUniverse(4)
    test = [
        parse_ranking("1|2|3|4", u),
        parse_ranking("1|2", u),        # not full on the subset: dropped
        parse_ranking("1,2|3|4", u),    # tied: dropped
    ]
    orders = cli._strict_orders(estimator._grouped(test))
    res = estimator.heldout_loglikelihood([0.5] * len(orders))
    assert res.n_used == 1
    assert res.mean == pytest.approx(math.log(0.5))


def test_record_strict_orders_keep_ties_outside_the_subset():
    u, sub = ItemUniverse(6), ItemUniverse(4)
    rankings = [
        parse_ranking("4|3|2|1", u),
        parse_ranking("1|2", u),           # not every item ranked: dropped
        parse_ranking("1,2|3|4", u),       # tied items: dropped
        parse_ranking("5|2,6|4|1|3", u),   # ties only with items outside the subset
        parse_ranking("1|2|3|4", u),
    ]
    record = estimator._grouped(rankings)
    projected = record.restrict(range(5), record.items < 4, sub)
    orders = cli._strict_orders(projected)
    assert orders.dtype.kind == "i"
    assert orders.tolist() == [[3, 2, 1, 0], [1, 3, 0, 2], [0, 1, 2, 3]]
    assert cli._strict_orders(projected.restrict([1, 2])).shape == (0, 4)


@pytest.mark.parametrize("n_sub", [1, 3, 6])
def test_restrict_is_each_ranking_projected_in_the_given_order(n_sub):
    rng = np.random.default_rng(50 + n_sub)
    u = ItemUniverse(6)
    rankings = [oracle.random_tied_ranking(rng, u, level_labels=True) for _ in range(30)]
    record = estimator._grouped(rankings)
    users = rng.permutation(30)[:20]
    sub = ItemUniverse(n_sub, tuple(u.label_of(i) for i in range(n_sub)))
    got = record.restrict(users, record.items < n_sub, sub)
    assert got.universe == sub and got.users.tolist() == users.tolist()
    want = [oracle.project_ranking(rankings[i], range(n_sub), sub) for i in users]
    ks = np.diff(got.user_starts)
    assert (ks == 0).tolist() == [r is None for r in want]  # a ranking left empty stays
    assert ingest.tied_rankings(got.restrict(np.flatnonzero(ks))) == [r for r in want if r]
    assert ingest.tied_rankings(record.restrict(users[::-1])) == [rankings[i] for i in users[::-1]]


def test_test_loglikelihood_floor():
    res = estimator.heldout_loglikelihood([0.0])
    assert res.n_floored == 1
    assert res.mean == pytest.approx(math.log(estimator.LIKELIHOOD_FLOOR))
    with pytest.raises(EstimatorError):
        estimator.heldout_loglikelihood([])


def test_one_ranking_model_is_the_kernel_at_the_expected_kendall_distance():
    # event_prob and expected_kendall reach the same closed form from two sides
    rng = np.random.default_rng(21)
    for n in (4, 9, 25):
        u = ItemUniverse(n)
        h = 0.6 * n * (n - 1)
        for _ in range(40):
            r, s = oracle.random_tied_ranking(rng, u), oracle.random_tied_ranking(rng, u)
            model = estimator.fit([r], h=h)
            fraction = math.exp(oracle.log_consistent_count(s) - math.lgamma(n + 1))
            want = fraction * (1.0 - expected_kendall(s, r) / h) / model.norm.normC
            assert model.event_prob(s).value == pytest.approx(want, rel=1e-12, abs=0)


def _per_ranking_fbar(n, training):
    """fbar summed one TiedRanking at a time: each ranking's k x k block of
    ranked pairs into the flat total, its centres into gtot, in order."""
    total = np.zeros(n * n)
    gtot = np.zeros(n)
    for r in training:
        items = np.array([x for group in r.groups for x in group])
        grp, g = map(np.array, tie_terms(map(len, r.groups)))
        block = np.sign(grp[:, None] - grp) - (g[:, None] - g)
        total[(items * n)[:, None] + items] += block
        gtot[items] += g
    total = total.reshape(n, n) + (gtot[:, None] - gtot[None, :])
    return total / len(training)


def _as_ratings(rankings, ids):
    """A shuffled ratings table of the rankings: ranking u is user 3u - 40,
    item x is ids[x], and group j of G is rated G - j stars."""
    rows = [(3 * u - 40, ids[x], len(r.groups) - j)
            for u, r in enumerate(rankings) for j, group in enumerate(r.groups) for x in group]
    rows = np.array(rows, np.int64).reshape(-1, 3)
    return ingest.RatingsTable(rows[np.random.default_rng(0).permutation(len(rows))])


def _fbar_both_ways(rankings):
    """fit's fbar from the rankings and from their grouped ratings record."""
    u = rankings[0].universe
    ids = [1000 - 7 * x for x in range(u.n)]
    grouped = ingest.group_ratings(_as_ratings(rankings, ids), ids)
    by_record = estimator.fit(grouped)
    return estimator.fit(rankings).fbar, by_record.fbar


def _few_groups(rng, universe, m, levels=3):
    """m random rankings of at most ``levels`` tied groups each, as ratings give."""
    rankings = []
    for _ in range(m):
        items = rng.permutation(universe.n)[:int(rng.integers(1, universe.n + 1))]
        level = rng.integers(levels, size=len(items))
        rankings.append(TiedRanking(universe, tuple(
            tuple(sorted(items[level == lv].tolist())) for lv in range(levels)
            if (level == lv).any())))
    return rankings


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 30, 150])
def test_fbar_is_bit_identical_to_the_per_ranking_sum(n):
    rng = np.random.default_rng(1200 + n)
    u = ItemUniverse(n)
    few = _few_groups(rng, u, 60)
    for got in _fbar_both_ways(few):
        assert np.array_equal(got, _per_ranking_fbar(n, few))
    extremes = [
        TiedRanking(u, ((int(rng.integers(n)),),)),  # one item
        TiedRanking(u, (tuple(range(n)),)),  # every item in one tied group
        chain_ranking(u, rng.permutation(n).tolist()),  # a strict order of all n
    ]
    if n == 150:  # groups that are not rating levels: G = k up to n, and 1 or k groups
        extremes += [chain_ranking(u, rng.permutation(n).tolist()) for _ in range(4)]
        for k in (2, 17, 90):
            items = rng.permutation(n)[:k].tolist()
            extremes += [TiedRanking(u, (tuple(sorted(items)),)), chain_ranking(u, items)]
    for _ in range(3):
        train = _random_training(rng, u, int(rng.integers(1, 60))) + extremes
        train = [train[i] for i in rng.permutation(len(train))]
        want = _per_ranking_fbar(n, train)
        for got in _fbar_both_ways(train):
            assert np.array_equal(got, want)
        record = estimator._grouped(train)
        assert record.levels is None
        assert np.array_equal(estimator._mean_pair_factors(record), want)


def test_fbar_is_bit_identical_to_the_per_ranking_sum_on_the_corpus(ratings_file):
    table = ingest.load_ratings(ratings_file, ingest.FORMATS["ml100k"])
    items = ingest.select_items(table, 53)
    users = ingest.select_users(table, items, top_m=2000)
    _, rankings = ingest.build_rankings(table, items, users)
    train = [r for _, r in rankings]
    want = _per_ranking_fbar(53, train)
    assert np.array_equal(estimator.fit(train).fbar, want)
    assert np.array_equal(estimator.fit(ingest.group_ratings(table, items, users)).fbar, want)


def test_fit_rejects_an_empty_record():
    table = ingest.RatingsTable(np.array([[1, 10, 3]]))
    with pytest.raises(EstimatorError, match="empty training set"):
        estimator.fit(ingest.group_ratings(table, [10], users=[2]))


@pytest.mark.parametrize("n, concentration, m", [(3, 0.4, 40), (4, 1.5, 200), (5, 0.1, 25),
                                                 (4, 4.0, 300), (6, 0.8, 60)])
def test_mallows_concentration_maximizes_the_profile_likelihood(n, concentration, m):
    rng = np.random.default_rng(77 + n)
    center = Permutation(tuple(rng.permutation(n).tolist()))
    perms = [oracle.sample_mallows(center, concentration, rng) for _ in range(m)]
    model = estimator.mallows_fit(perms)
    pt = oracle.perm_table(n)
    mean_dist = np.mean(pt.dist[pt.index[model.center.order], [pt.index[p.order] for p in perms]])
    log_counts = np.log(mahonian_distribution(n).unnormalized())
    t = np.arange(len(log_counts))

    def profile(c):  # the mean log-likelihood at each c of a grid
        logs = log_counts - np.multiply.outer(c, t)
        top = logs.max(axis=1)
        return -c * mean_dist - (top + np.log(np.exp(logs - top[:, None]).sum(axis=1)))

    coarse = np.linspace(0.0, 50.0, 50001)
    best = coarse[np.argmax(profile(coarse))]
    fine = np.linspace(max(0.0, best - 2e-3), best + 2e-3, 4001)  # steps of 1e-6
    best = fine[np.argmax(profile(fine))]
    assert abs(model.concentration - best) <= 2e-6
    assert profile(np.array([model.concentration]))[0] >= profile(fine).max() - 1e-12


def test_mallows_concentration_at_the_ends_of_its_range():
    n = 4
    center = Permutation((1, 3, 0, 2))
    assert estimator.mallows_fit([center] * 5).concentration == 50.0  # one repeated order
    # every order once, or an order and its reverse: no pull toward any center
    assert estimator.mallows_fit(oracle.perm_table(n).perms).concentration == 0.0
    reverse = Permutation(center.order[::-1])
    assert estimator.mallows_fit([center, reverse] * 4).concentration == 0.0
