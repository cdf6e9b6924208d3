import math
from collections import Counter

import numpy as np
import pytest

from rankdens import oracle
from rankdens.rankings import ItemUniverse, Permutation, RankingError, parse_ranking
from rankdens.rules import mutual_information


def test_perm_table_sizes():
    pt = oracle.perm_table(4)
    assert len(pt.perms) == 24
    assert pt.pos.shape == (24, 4)
    assert sorted(Counter(pt.dist_to_identity).items()) == [
        (0, 1), (1, 3), (2, 5), (3, 6), (4, 5), (5, 3), (6, 1)
    ]


def test_distance_matrix_properties():
    pt = oracle.perm_table(4)
    d = pt.dist
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)
    assert d.max() == 6


@pytest.mark.parametrize("text, n", [("1,2|3", 5), ("3|2|1,4", 4), ("2|1,3", 5), ("1,2,3", 3)])
def test_consistent_indices_count(text, n):
    r = parse_ranking(text, ItemUniverse(n))
    idx = oracle.perm_table(n).consistent_indices(r)
    assert len(idx) == round(math.exp(oracle.log_consistent_count(r)))


def test_brute_bound():
    with pytest.raises(RankingError):
        oracle.perm_table(9)


def test_sample_mallows_concentrates():
    rng = np.random.default_rng(0)
    center = Permutation((0, 1, 2, 3))
    pt = oracle.perm_table(4)

    def mean_dist(conc):
        r = np.random.default_rng(1)
        total = 0
        for _ in range(400):
            p = oracle.sample_mallows(center, conc, r)
            total += pt.dist_to_identity[pt.index[p.order]]
        return total / 400

    assert mean_dist(0.0) == pytest.approx(3.0, abs=0.3)  # uniform mean n(n-1)/4
    assert mean_dist(0.5) > mean_dist(2.0) > mean_dist(5.0)


def test_sample_mallows_matches_model_distribution():
    # empirical frequencies vs exp(-c d) / Z at n=3
    center = Permutation((0, 1, 2))
    c = 1.0
    pt = oracle.perm_table(3)
    logits = -c * pt.dist_to_identity
    target = np.exp(logits) / np.exp(logits).sum()
    rng = np.random.default_rng(5)
    counts = np.zeros(6)
    m = 20000
    for _ in range(m):
        counts[pt.index[oracle.sample_mallows(center, c, rng).order]] += 1
    np.testing.assert_allclose(counts / m, target, atol=0.01)


def test_synthesize_deterministic_and_censored():
    u = ItemUniverse(5)
    cfg = oracle.MixtureConfig(
        u, (Permutation((0, 1, 2, 3, 4)),), (1.0,), (1.0,), rho=0.5, tie_block=2
    )
    a = oracle.synthesize(cfg, 50, seed=3)
    b = oracle.synthesize(cfg, 50, seed=3)
    assert a == b
    assert any(r.k < 5 for r in a)
    assert all(r.k >= 1 for r in a)
    assert any(len(g) == 2 for r in a for g in r.groups)


def test_synthesize_uncensored_full_orders():
    u = ItemUniverse(4)
    cfg = oracle.MixtureConfig(
        u, (Permutation((3, 2, 1, 0)),), (2.0,), (1.0,), rho=1.0, tie_block=1
    )
    for r in oracle.synthesize(cfg, 20, seed=1):
        assert r.k == 4 and all(len(g) == 1 for g in r.groups)


def test_synthesize_latents_consistent():
    u = ItemUniverse(4)
    cfg = oracle.MixtureConfig(
        u, (Permutation((0, 1, 2, 3)),), (1.5,), (1.0,), rho=0.7, tie_block=1
    )
    rankings, latents = oracle.synthesize(cfg, 40, seed=9, return_latent=True)
    pt = oracle.perm_table(4)
    for r, pi in zip(rankings, latents):
        assert pt.index[pi.order] in pt.consistent_indices(r)


def test_random_tied_ranking_respects_min_ranked():
    rng = np.random.default_rng(2)
    u = ItemUniverse(6)
    for _ in range(100):
        r = oracle.random_tied_ranking(rng, u, min_ranked=3)
        assert r.k >= 3


def test_exact_support_mi_finds_planted_correlation():
    # strongly bimodal data: pair orientations are strongly coupled; the
    # exact-support kernel keeps that dependence in the joint table
    u = ItemUniverse(6)
    cfg = oracle.MixtureConfig(
        u,
        (Permutation(tuple(range(6))), Permutation(tuple(reversed(range(6))))),
        (2.0, 2.0),
        (0.5, 0.5),
        rho=0.8,
        tie_block=1,
    )
    train = oracle.synthesize(cfg, 300, seed=3)
    dist = oracle.brute_full_distribution(train, 6.0, "exact-support")
    cells = np.zeros((2, 2))
    for p, pos in zip(dist, oracle.perm_table(6).pos):
        cells[int(pos[0] > pos[3]), int(pos[1] > pos[5])] += p
    assert cells[0, 0] + cells[1, 1] > 0.6  # orientations move together
    assert mutual_information(cells) > 0.01
