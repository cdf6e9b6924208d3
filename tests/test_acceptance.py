"""Acceptance gate: ten pinned criteria, one pass/fail line each.

Each test prints its verdict to the real stdout so the line survives
pytest's capture, then asserts. Tolerances are pinned here on purpose;
loosening them is a behavior change, not a test fix.
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest

from rankdens import estimator, oracle
from rankdens.censored import expected_kendall, pair_pref_prob
from rankdens.cli import EXIT_OK, main
from rankdens.combinatorics import (
    kendall_tau,
    mahonian_distribution,
    triangular_normalization,
)
from rankdens.oracle import kernel_weight
from rankdens.rankings import (
    ItemUniverse,
    Permutation,
    TiedRanking,
    full_group_ranking,
    pair_ranking,
    parse_ranking,
)
from rankdens.recommend import absolute_loss, predict_level, zero_one_loss
from rankdens.rules import joint_pair_table, mutual_information


@pytest.fixture
def report(capfd):
    """Prints one pass/fail line per criterion past pytest's capture."""

    def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"[criterion {num:02d}] {verdict} — {name}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, file=sys.stdout, flush=True)
        assert ok, line

    return _report


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _random_big_ranking(rng, universe, k, n_groups=10):
    items = rng.permutation(universe.n)[:k]
    size = min(n_groups, k)
    cuts = np.sort(rng.choice(np.arange(1, k), size=size - 1, replace=False)) if size > 1 else np.array([], dtype=int)
    bounds = [0, *cuts.tolist(), k]
    return TiedRanking(
        universe,
        tuple(tuple(int(x) for x in items[a:b]) for a, b in zip(bounds, bounds[1:])),
    )


# -- 1: generating function --------------------------------------------------

def test_criterion_01_generating_function(report):
    ok = mahonian_distribution(3).unnormalized().tolist() == [1, 2, 2, 1]

    hist = np.zeros(7, dtype=np.int64)
    ident = Permutation((0, 1, 2, 3))
    for order in itertools.permutations(range(4)):
        hist[kendall_tau(ident, Permutation(order))] += 1
    ok &= mahonian_distribution(4).unnormalized().tolist() == hist.tolist()

    def invariants(n):
        mass = mahonian_distribution(n).mass
        good = abs(mass.sum() - 1.0) < 1e-9
        good &= np.max(np.abs(mass - mass[::-1])) < 1e-9 * mass.max()
        mean = float(np.arange(len(mass)) @ mass)
        good &= _rel_err(mean, n * (n - 1) / 4) < 1e-9
        return good

    t0 = time.perf_counter()
    for n in [*range(2, 51), 500]:
        ok &= invariants(n)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    ok &= invariants(2000)
    report(1, "Mahonian generating function", ok, f"n<=500 in {elapsed:.2f}s")


# -- 2: kernel normalization identity --------------------------------------------

def test_criterion_02_normalization_identity(report):
    ok = True
    for n in range(2, 8):
        table = mahonian_distribution(n)
        for h in range(1, n * (n - 1) // 2 + 1):
            exact = triangular_normalization(n, h, "exact-support", table).normC
            ok &= abs(exact - oracle.brute_normalization(n, h, "exact-support")) < 1e-12

    table3 = mahonian_distribution(3)
    dists = [0, 1, 1, 2, 2, 3]
    expected = {2: [0.50, 0.25, 0.25, 0.0, 0.0, 0.0],
                3: [0.33, 0.22, 0.22, 0.11, 0.11, 0.0]}
    for h, values in expected.items():
        norm = triangular_normalization(3, h, "exact-support", table3)
        got = [kernel_weight(t, norm) for t in dists]
        ok &= all(abs(g - v) <= 0.005 for g, v in zip(got, values))
    report(2, "triangular-kernel normalization identity and n=3 weight table", ok)


# -- 3: censored pair preference / expected distance ---------------------------

def test_criterion_03_censored_statistics(report):
    u4 = ItemUniverse(4)
    ok = abs(pair_pref_prob(parse_ranking("3|2|4", u4), 0, 2) - 0.25) < 1e-12
    ok &= abs(pair_pref_prob(parse_ranking("2,3|4", u4), 0, 1) - 0.375) < 1e-12

    worst = 0.0
    for n in range(3, 8):
        rng = np.random.default_rng(1000 + n)
        u = ItemUniverse(n)
        for _ in range(1000):
            r1 = oracle.random_tied_ranking(rng, u)
            i, j = (int(x) for x in rng.permutation(n)[:2])
            worst = max(worst, abs(
                pair_pref_prob(r1, i, j) - oracle.brute_pair_pref(r1, i, j)
            ))
            r2 = oracle.random_tied_ranking(rng, u)
            worst = max(worst, abs(
                expected_kendall(r1, r2) - oracle.brute_expected_kendall(r1, r2)
            ))
    ok &= worst < 1e-9
    report(3, "pair preference and expected distance vs enumeration", ok,
            f"max abs err {worst:.2e}")


# -- 4: closed-form event probability -------------------------------------------

def test_criterion_04_event_probability_closed_form(report):
    u3 = ItemUniverse(3)
    model = estimator.fit([parse_ranking("1|2|3", u3)], h=3)
    ok = _rel_err(model.event_prob(parse_ranking("1|2", u3)).value, 2 / 3) < 1e-12

    worst = 0.0
    for n in range(3, 7):
        rng = np.random.default_rng(2000 + n)
        u = ItemUniverse(n)
        h = float(n * (n - 1) / 2)
        for _ in range(1000):
            train = [
                oracle.random_tied_ranking(rng, u)
                for _ in range(int(rng.integers(1, 6)))
            ]
            event = oracle.random_tied_ranking(rng, u)
            got = estimator.fit(train, h=h).event_prob(event).value
            want = oracle.brute_event_prob(train, h, "modified", event)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    ok &= worst < 1e-9
    report(4, "closed-form event probability vs enumeration", ok,
            f"max rel err {worst:.2e}")


# -- 5: probability laws at large n ---------------------------------------------

def test_criterion_05_probability_laws(report):
    ok = True
    for n in (10, 100, 1000):
        rng = np.random.default_rng(n)
        u = ItemUniverse(n)
        if n <= 100:
            train = [oracle.random_tied_ranking(rng, u) for _ in range(60)]
        else:
            train = [_random_big_ranking(rng, u, 50) for _ in range(40)]
        model = estimator.fit(train)

        ok &= abs(model.event_prob(full_group_ranking(u)).value - 1.0) < 1e-12
        for _ in range(30):
            i, j = (int(x) for x in rng.permutation(n)[:2])
            a = model.event_prob(pair_ranking(u, i, j)).value
            b = model.event_prob(pair_ranking(u, j, i)).value
            ok &= abs(a + b - 1.0) < 1e-12
        for _ in range(5):
            i, j, k, l = (int(x) for x in rng.permutation(n)[:4])
            t = joint_pair_table(model, i, j, k, l)
            ok &= abs(t.sum() - 1.0) < 1e-9
            ok &= abs(t.sum(axis=1)[0]
                      - model.event_prob(pair_ranking(u, i, j)).value) < 1e-9
            ok &= abs(t.sum(axis=0)[0]
                      - model.event_prob(pair_ranking(u, k, l)).value) < 1e-9
    report(5, "complement / unconstrained / conjunction / marginal laws", ok)


# -- 6: held-out likelihood vs baselines ------------------------------------------

def test_criterion_06_heldout_likelihood(report):
    t0 = time.perf_counter()
    fails = []
    for n in (3, 4, 5):
        u = ItemUniverse(n)
        c1 = Permutation(tuple(range(n)))
        c2 = Permutation(tuple(reversed(range(n))) if n == 3
                         else tuple(int(x) for x in np.roll(np.arange(n), 2)))
        h = max(2.0, 0.4 * n * (n - 1) / 2)
        pt = oracle.perm_table(n)
        for seed in range(20):
            cfg = oracle.MixtureConfig(u, (c1, c2), (1.5, 1.5), (0.6, 0.4),
                                       rho=0.75, tie_block=1)
            train = oracle.synthesize(cfg, 500, seed)
            test_cfg = oracle.MixtureConfig(u, (c1, c2), (1.5, 1.5), (0.6, 0.4),
                                            rho=1.0, tie_block=1)
            test = oracle.synthesize(test_cfg, 300, seed + 77777)

            # the exact-support estimator over full permutations, by one
            # oracle enumeration pass (the library scores only the modified kernel)
            dist = oracle.brute_full_distribution(train, h, "exact-support")
            # a strict full order's one consistent permutation is its groups in order
            perm = lambda ev: Permutation(tuple(x for (x,) in ev.groups))
            kernel = lambda ev: float(dist[pt.index[perm(ev).order]])
            empirical = lambda ev: estimator.empirical_prob(train, ev)
            full = [perm(r) for r in train
                    if r.k == n and all(len(g) == 1 for g in r.groups)]
            mallows = estimator.mallows_fit(full)
            mal = lambda ev: math.exp(mallows.log_prob(perm(ev)))

            # rho = 1 and tie_block = 1: every test ranking is a strict full order
            ll_k = estimator.heldout_loglikelihood([kernel(ev) for ev in test]).mean
            ll_e = estimator.heldout_loglikelihood([empirical(ev) for ev in test]).mean
            ll_m = estimator.heldout_loglikelihood([mal(ev) for ev in test]).mean
            if not (ll_k >= ll_e and ll_k >= ll_m):
                fails.append((n, seed, ll_k, ll_e, ll_m))
    elapsed = time.perf_counter() - t0
    ok = not fails and elapsed < 120
    report(6, "kernel beats empirical and Mallows baselines on held-out data",
            ok, f"{len(fails)} failures, {elapsed:.1f}s")


# -- 7: recommendation losses -------------------------------------------------------

def test_criterion_07_recommendation_example(report):
    labels = ("3", "4", "5", "6", "10", "11", "12", "23", "40", "50", "60", "100", "101")
    u = ItemUniverse(len(labels), labels)
    full = parse_ranking("3|4,5,6|10,11,12|23|40,50,60|100,101", u,
                         level_labels=(6, 5, 4, 3, 2, 1))
    # rank = 1-based group position from the top
    rank_of = {item: gi + 1 for gi, g in enumerate(full.groups) for item in g}
    truths = (rank_of[u.index_of("4")], rank_of[u.index_of("11")])
    ok = truths == (2, 3)
    loss = absolute_loss(range(1, 7))
    losses = (loss.loss(1, truths[0]), loss.loss(4, truths[1]))
    ok &= losses == (1.0, 1.0)

    rng = np.random.default_rng(7)
    l0 = zero_one_loss(range(1, 7))
    l1 = absolute_loss(range(1, 7))
    for _ in range(100):
        post = rng.dirichlet(np.ones(6))
        ok &= predict_level(post, l0) == l0.levels[int(np.argmax(post))]
        median = l1.levels[int(np.searchsorted(np.cumsum(post), 0.5))]
        ok &= predict_level(post, l1) == median
    report(7, "worked recommendation example and loss-minimizing predictors",
            ok, f"losses {losses}")


# -- 8: performance ------------------------------------------------------------------

def test_criterion_08_performance(report):
    t0 = time.perf_counter()
    mahonian_distribution(1000)
    t_mahonian = time.perf_counter() - t0
    ok = t_mahonian < 10.0

    n = 1000
    u = ItemUniverse(n)
    rng = np.random.default_rng(8)
    train = [_random_big_ranking(rng, u, 50) for _ in range(10_000)]
    model = estimator.fit(train)
    event = _random_big_ranking(rng, u, 10)
    t0 = time.perf_counter()
    model.event_prob(event)
    t_event = time.perf_counter() - t0
    ok &= t_event < 1.0

    # each size keeps the least of 9 draws; a round times one draw of each
    # size in turn, so a slow phase of a busy machine slows all sizes alike
    best = dict.fromkeys((40, 80, 160), math.inf)
    for _ in range(9):
        for k in best:
            ev = _random_big_ranking(rng, u, k)
            t0 = time.perf_counter()
            model.event_prob(ev)
            best[k] = min(best[k], time.perf_counter() - t0)

    r1, r2 = best[80] / best[40], best[160] / best[80]
    ratio = math.sqrt(r1 * r2)  # per-doubling cost growth; 4 = quadratic
    ok &= 4 / 1.5 <= ratio <= 4 * 1.5
    report(8, "performance envelope", ok,
            f"mahonian {t_mahonian:.2f}s, event {t_event * 1000:.0f}ms, "
            f"doubling ratio {ratio:.2f} (r1 {r1:.2f}, r2 {r2:.2f})")


# -- 9: desk-scale dataset run ---------------------------------------------------------

def test_criterion_09_dataset_run(report, ratings_file, tmp_path):
    t0 = time.perf_counter()
    pairs_out = tmp_path / "pairs.csv"
    ok = main(["pairs", "--data", str(ratings_file), "--out", str(pairs_out)]) == EXIT_OK

    lines = pairs_out.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    p = {(r[0], r[1]): float(r[2]) for r in rows}
    labels = sorted({r[0] for r in rows})
    ok &= len(labels) == 53
    ok &= all(
        abs(p[(a, b)] + p[(b, a)] - 1.0) < 1e-9
        for a in labels for b in labels if a != b
    )
    rank_lines = (tmp_path / "pairs.ranking.csv").read_text().splitlines()
    ok &= len(rank_lines) == 2 + 53

    rule_args = ["--top-items", "20", "--subset-size", "20", "--top-t", "10"]
    out_a, out_b = tmp_path / "rules_a.csv", tmp_path / "rules_b.csv"
    ok &= main(["rules", "--data", str(ratings_file), "--out", str(out_a), *rule_args]) == EXIT_OK
    ok &= main(["rules", "--data", str(ratings_file), "--out", str(out_b), *rule_args]) == EXIT_OK
    ok &= out_a.read_text() == out_b.read_text()
    ok &= len(out_a.read_text().splitlines()) == 2 + 10

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300
    report(9, "desk-scale ratings run: pairs matrix, ranking, deterministic rules",
            ok, f"{elapsed:.1f}s")


# -- 10: mutual information ---------------------------------------------------------------

def test_criterion_10_mutual_information(report):
    def table(cells):
        return np.asarray(cells, dtype=float)

    ok = abs(mutual_information(table([[0.5, 0.0], [0.0, 0.5]])) - math.log(2)) < 1e-12
    for pa, pb in ((0.5, 0.5), (0.25, 0.7), (0.9, 0.1)):
        prod = np.outer([pa, 1 - pa], [pb, 1 - pb])
        ok &= abs(mutual_information(table(prod))) < 1e-12
    rng = np.random.default_rng(10)
    for _ in range(300):
        ok &= mutual_information(table(rng.dirichlet(np.ones(4)).reshape(2, 2))) >= 0.0

    # agreement with exhaustive enumeration at n = 5
    u = ItemUniverse(5)
    train = [oracle.random_tied_ranking(rng, u) for _ in range(25)]
    model = estimator.fit(train, h=10.0)
    pt = oracle.perm_table(5)
    dist = oracle.brute_full_distribution(train, 10.0, "modified")
    worst = 0.0
    for i, j, k, l in ((0, 1, 2, 3), (4, 2, 0, 3), (1, 3, 4, 0)):
        t = joint_pair_table(model, i, j, k, l)
        brute_cells = np.zeros((2, 2))
        for idx, perm in enumerate(pt.perms):
            pos = perm.positions()
            brute_cells[int(pos[i] > pos[j]), int(pos[k] > pos[l])] += dist[idx]
        worst = max(worst, float(np.max(np.abs(t - brute_cells))))
        worst = max(worst, abs(mutual_information(t) - mutual_information(brute_cells)))
    ok &= worst < 1e-9
    report(10, "mutual information properties and enumeration agreement", ok,
            f"max err {worst:.2e}")
