import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from rankdens import cli, estimator, ingest, oracle
from rankdens.censored import tie_terms
from rankdens.rankings import ItemUniverse, TiedRanking, parse_ranking
from rankdens.recommend import (
    Holdout,
    LossMatrix,
    RecommendError,
    absolute_loss,
    asymmetric_loss,
    builtin_loss,
    holdout_split,
    level_posterior,
    level_posteriors,
    loss_from_csv,
    posterior_loss,
    predict_level,
    zero_one_loss,
)


def test_zero_one_and_absolute_losses():
    l0 = zero_one_loss(range(1, 6))
    assert l0.loss(3, 3) == 0.0
    assert l0.loss(3, 5) == 1.0
    l1 = absolute_loss(range(1, 6))
    assert l1.loss(1, 2) == 1.0
    assert l1.loss(4, 3) == 1.0
    assert l1.loss(5, 1) == 4.0


def test_asymmetric_loss_values():
    le = asymmetric_loss(range(6))
    # over-recommending a disliked item costs more than the reverse
    assert le.loss(5, 0) == 15.0
    assert le.loss(0, 5) == 5.0
    assert le.loss(3, 2) == 1.5
    assert all(le.loss(a, a) == 0.0 for a in range(6))
    # contiguous subrange, re-indexed
    sub = asymmetric_loss(range(2, 5))
    assert sub.loss(4, 2) == 3.0
    with pytest.raises(RecommendError):
        asymmetric_loss(range(1, 8))


def test_builtin_loss_names():
    assert builtin_loss("l0", range(3)).loss(0, 1) == 1.0
    assert builtin_loss("l1", range(3)).loss(0, 2) == 2.0
    assert builtin_loss("le", range(6)).loss(5, 0) == 15.0
    with pytest.raises(RecommendError):
        builtin_loss("l7", range(3))


def test_loss_from_csv(tmp_path):
    path = tmp_path / "loss.csv"
    path.write_text("0,2\n1,0\n")
    loss = loss_from_csv(path, levels=[1, 2])
    assert loss.loss(1, 2) == 2.0
    assert loss.loss(2, 1) == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_loss_matrix_rejects_non_finite_entries(bad, tmp_path):
    with pytest.raises(RecommendError, match="finite"):
        LossMatrix((1, 2), np.array([[0.0, bad], [1.0, 0.0]]))
    path = tmp_path / "loss.csv"
    path.write_text(f"0,{bad}\n1,0\n")
    with pytest.raises(RecommendError, match="finite"):
        loss_from_csv(path, levels=[1, 2])


def test_predict_level_prefers_better_level_on_tie():
    loss = zero_one_loss(range(1, 4))
    assert predict_level(np.array([0.4, 0.2, 0.4]), loss) == 3


def test_predict_level_argmax_under_zero_one():
    rng = np.random.default_rng(0)
    loss = zero_one_loss(range(1, 7))
    for _ in range(50):
        post = rng.dirichlet(np.ones(6))
        assert predict_level(post, loss) == loss.levels[int(np.argmax(post))]


def test_predict_level_weighted_median_under_absolute():
    rng = np.random.default_rng(1)
    loss = absolute_loss(range(1, 7))
    for _ in range(50):
        post = rng.dirichlet(np.ones(6))
        cdf = np.cumsum(post)
        median = loss.levels[int(np.searchsorted(cdf, 0.5))]
        assert predict_level(post, loss) == median


def test_level_posterior_normalizes():
    rng = np.random.default_rng(2)
    u = ItemUniverse(5)
    train = [oracle.random_tied_ranking(rng, u, level_labels=True) for _ in range(20)]
    model = estimator.fit(train, h=6.0)
    user = TiedRanking(u, ((0,), (2, 3)), (5, 2))
    post = level_posterior(model, user, 1, list(range(1, 6)))[0]
    assert post.shape == (5,)
    assert post.sum() == pytest.approx(1.0)
    assert (post >= 0).all()
    with pytest.raises(RecommendError):
        level_posterior(model, user, 0, list(range(1, 6)))  # already ranked


def _labelled_ranking(rng, u):
    """A random tied ranking leaving at least one item of u unranked, its
    groups labelled by a descending draw from 1..10, so levels 0..11 join
    groups, open groups between them, and go above and below them all."""
    k = int(rng.integers(1, u.n))
    items = rng.permutation(u.n)[:k].tolist()
    g = int(rng.integers(1, min(k, 10) + 1))
    cuts = sorted(rng.choice(np.arange(1, k), size=g - 1, replace=False).tolist()) if g > 1 else []
    bounds = [0, *cuts, k]
    labels = sorted(rng.choice(np.arange(1, 11), size=g, replace=False).tolist(), reverse=True)
    groups = tuple(tuple(items[a:b]) for a, b in zip(bounds, bounds[1:]))
    return TiedRanking(u, groups, tuple(labels))


def _per_level_posterior(prob, user, item, levels):
    weights = np.array([max(prob(oracle.insert_item(user, item, level=lv)), 0.0) for lv in levels])
    return weights / weights.sum()


@pytest.mark.parametrize("n", [2, 3, 7, 16, 30])
def test_batched_level_posterior_matches_per_level_event_prob(n):
    rng = np.random.default_rng(n)
    u = ItemUniverse(n)
    levels = list(range(12))
    for _ in range(15):
        train = [oracle.random_tied_ranking(rng, u) for _ in range(int(rng.integers(1, 20)))]
        model = estimator.fit(train)
        user = _labelled_ranking(rng, u)
        held = [z for z in range(n) if user.group_index(z) is None]
        post = level_posterior(model, user, held, levels)
        assert post.shape == (len(held), len(levels))
        for z, row in zip(held, post):
            want = _per_level_posterior(lambda ev: model.event_prob(ev).value, user, z, levels)
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=0)
        single = level_posterior(model, user, held[-1], levels)[0]
        assert single.shape == (len(levels),) and np.array_equal(single, post[-1])


def test_batched_level_posterior_matches_enumeration():
    rng = np.random.default_rng(6)
    levels = list(range(12))
    for n in (3, 4, 5, 6):
        u = ItemUniverse(n)
        for _ in range(4):
            train = [oracle.random_tied_ranking(rng, u) for _ in range(int(rng.integers(1, 6)))]
            h = estimator.default_bandwidth(n)
            model = estimator.fit(train, h=h)
            user = _labelled_ranking(rng, u)
            held = [z for z in range(n) if user.group_index(z) is None]
            post = level_posterior(model, user, held, levels)
            for z, row in zip(held, post):
                want = _per_level_posterior(
                    lambda ev: oracle.brute_event_prob(train, h, "modified", ev), user, z, levels
                )
                np.testing.assert_allclose(row, want, rtol=1e-9, atol=1e-12)


def test_level_posterior_falls_back_to_uniform_when_every_weight_is_clamped():
    # h just above n(n-1)/4 = 7.5; the user reverses the training order on
    # five items, so every insertion of item 0 is at distance >= 10 > h
    u = ItemUniverse(6)
    model = estimator.fit([parse_ranking("1|2|3|4|5|6", u)] * 3, h=8.0)
    user = parse_ranking("6|5|4|3|2", u, level_labels=(5, 4, 3, 2, 1))
    counts = Counter()
    post = level_posterior(model, user, [0], list(range(1, 6)), counts)
    assert np.array_equal(post, np.full((1, 5), 0.2))
    assert counts["clamped"] == 5


def test_holdout_split_deterministic():
    u = ItemUniverse(6)
    rankings = {
        7: TiedRanking(u, ((0, 1), (2,), (4,)), (5, 3, 1)),
        9: TiedRanking(u, ((3,), (5,)), (4, 2)),
        11: TiedRanking(u, ((2,),), (3,)),          # k < 2: dropped
    }
    record = dataclasses.replace(estimator._grouped(list(rankings.values())),
                                 users=np.array(list(rankings)))
    # round(3 * 0.9) = 3: every user is a test user
    train_a, a = holdout_split(record, seed=4, test_fraction=0.9)
    train_b, b = holdout_split(record, seed=4, test_fraction=0.9)
    assert len(train_a.users) == len(train_b.users) == 0
    for field in ("items", "owners", "levels"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert ingest.tied_rankings(a.observed) == ingest.tied_rankings(b.observed)
    assert set(a.observed.users.tolist()) == {7, 9}
    observed = dict(zip(a.observed.users.tolist(), ingest.tied_rankings(a.observed)))
    for uid, usr in observed.items():
        held = [(item, truth) for item, truth, owner
                in zip(a.items.tolist(), a.levels.tolist(), a.owners.tolist())
                if a.observed.users[owner] == uid]
        assert held
        assert usr.k >= 1
        for item, truth in held:
            assert usr.group_index(item) is None
            orig = rankings[uid]
            assert truth == orig.level_labels[orig.group_index(item)]


def test_posterior_loss_end_to_end():
    rng = np.random.default_rng(3)
    u = ItemUniverse(5)
    cfg = oracle.MixtureConfig(
        u, (oracle.Permutation((0, 1, 2, 3, 4)),), (2.0,), (1.0,), rho=0.9, tie_block=1
    )
    train = oracle.synthesize(cfg, 150, seed=4)
    model = estimator.fit(train, h=11.0)
    loss = absolute_loss(range(1, 6))
    user = TiedRanking(u, ((0,), (2,)), (5, 3))
    pred = predict_level(level_posterior(model, user, 1, loss.levels)[0], loss)
    assert pred in loss.levels
    holdout = Holdout(estimator._grouped([user]), np.array([1]), np.array([0]),
                      np.array([4]))
    assert posterior_loss(model, holdout, loss) == loss.loss(pred, 4)


def _oracle_level_posterior(model, user_ranking, items, levels, counts):
    """The per-user construction: ``insert_item`` at each level, then each
    insertion's centres from ``tie_terms`` with z's slot deleted."""
    F = model.fbar
    augmented = [oracle.insert_item(user_ranking, items[0], level=lv) for lv in levels]
    insertions = [(list(map(len, r.groups)), r.group_index(items[0])) for r in augmented]
    ranked = [x for group in user_ranking.groups for x in group]
    rows, zrows = F[np.ix_(ranked, ranked)], F[np.ix_(items, ranked)]
    grp = np.array(tie_terms(map(len, user_ranking.groups))[0])
    ordered = -rows[grp[:, None] < grp].sum()
    outside = F[ranked].sum(axis=1) - rows.sum(axis=1)
    terms = []
    for sizes, gz in insertions:
        new_grp, centre = map(np.array, tie_terms(sizes))
        at = sum(sizes[:gz])  # a place in z's group; e's items fill the others
        new_grp, centre, cz = np.delete(new_grp, at), np.delete(centre, at), centre[at]
        terms.append((np.sign(gz - new_grp) + centre - cz, ordered + centre @ outside, cz))
    coef, const, zcoef = map(np.array, zip(*terms))
    inner = const + np.outer(F[items].sum(axis=1), zcoef) + (zrows[:, None] * coef).sum(axis=2)
    e_mean = len(F) * (len(F) - 1) / 4.0 - 0.5 * inner
    weights = np.column_stack([model._kernel_value(sizes, e)
                               for (sizes, _), e in zip(insertions, e_mean.T)])
    counts["clamped"] += int((weights < 0).sum())
    weights = np.maximum(weights, 0.0)
    total = weights.sum(axis=1, keepdims=True)
    post = np.full(weights.shape, 1.0 / len(levels))
    np.divide(weights, total, out=post, where=total > 0)
    return post


def _assert_split_matches_oracle(model, observed, owners, items, levels):
    counts, want_counts = Counter(), Counter()
    post = level_posteriors(model, observed, owners, items, levels, counts)
    want = np.concatenate([_oracle_level_posterior(model, r, items[owners == u].tolist(), levels,
                                                   want_counts)
                           for u, r in enumerate(ingest.tied_rankings(observed))])
    assert post.shape == want.shape and np.array_equal(post, want)
    assert counts == want_counts
    return counts


@pytest.fixture(scope="module")
def corpus_split(ratings_file):
    """The predict command's training set, holdout and model on the corpus."""
    def build(top_items=53, top_users=2000, bandwidth="auto"):
        grouped, _ = cli._load(ratings_file, "ml100k", top_items, top_users)
        train, holdout = holdout_split(grouped, 0, 0.3, 0.5)
        return train, holdout, cli._fit(train, bandwidth)[1]
    return build


@pytest.mark.parametrize("top_items, top_users, bandwidth, clamped", [
    (53, 2000, "auto", 0),  # the predict defaults
    (8, 300, "14.1", 205),  # h just above n(n-1)/4 = 14
])
def test_split_posteriors_equal_the_per_user_oracle_on_the_corpus(
        corpus_split, top_items, top_users, bandwidth, clamped):
    _, holdout, model = corpus_split(top_items, top_users, bandwidth)
    counts = _assert_split_matches_oracle(model, holdout.observed, holdout.owners, holdout.items,
                                          range(1, 6))
    assert counts["clamped"] == clamped


@pytest.mark.parametrize("n", [2, 3, 7, 16, 30])
def test_split_posteriors_equal_the_per_user_oracle_on_labelled_rankings(n):
    # one call over users of several ranked counts; levels 0..11 join
    # groups, open groups, and fall above and below every label
    rng = np.random.default_rng(100 + n)
    u = ItemUniverse(n)
    train = [oracle.random_tied_ranking(rng, u) for _ in range(12)]
    for h in (n * (n - 1) / 4 + 0.25, estimator.default_bandwidth(n)):
        model = estimator.fit(train, h=h)
        users, owners, items = [], [], []
        for owner in range(25):
            user = _labelled_ranking(rng, u)
            unranked = [z for z in range(n) if user.group_index(z) is None]
            users.append(user)
            items += rng.permutation(unranked)[:rng.integers(1, 4)].tolist()
            owners += [owner] * (len(items) - len(owners))
        _assert_split_matches_oracle(model, estimator._grouped(users),
                                     np.array(owners), np.array(items), list(range(12)))


def _item_mean_levels(train, n):
    """Each item's mean training level, rounded half up: floor(mean + 1/2)."""
    level = np.repeat(train.levels, np.diff(train.group_starts))
    sums, counts = (np.bincount(train.items, weights, minlength=n) for weights in (level, None))
    return np.floor(sums / counts + 0.5).astype(np.int64)


def test_item_mean_baseline_and_kernel_posterior_on_the_default_split(corpus_split):
    # the measured gap to the baseline; the kernel is not gated against it
    train, holdout, model = corpus_split()
    loss = absolute_loss(range(1, 6))
    predicted = _item_mean_levels(train, model.universe.n)[holdout.items] - 1  # level indices
    item_mean = math.fsum(loss.entries[predicted, holdout.levels - 1].tolist()) / len(predicted)
    assert item_mean == 0.856137607505864
    assert posterior_loss(model, holdout, loss) == 1.1324472243940578
