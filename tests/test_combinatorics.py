import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rankdens.combinatorics import (
    CombinatoricsError,
    MahonianTable,
    kendall_tau,
    mahonian_distribution,
    mahonian_tables,
    triangular_normalization,
)
from rankdens.oracle import brute_normalization, kernel_weight, normalization_from_counts
from rankdens.rankings import Permutation


def _brute_tau(a, b):
    pa = Permutation(tuple(a)).positions()
    pb = Permutation(tuple(b)).positions()
    n = len(a)
    return sum(
        (pa[i] < pa[j]) != (pb[i] < pb[j])
        for i, j in itertools.combinations(range(n), 2)
    )


@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_kendall_tau_matches_pair_count(a, b):
    assert kendall_tau(Permutation(tuple(a)), Permutation(tuple(b))) == _brute_tau(a, b)


def test_kendall_tau_identity_and_reverse():
    p = Permutation((0, 1, 2, 3, 4))
    assert kendall_tau(p, p) == 0
    assert kendall_tau(p, Permutation((4, 3, 2, 1, 0))) == 10


def test_g3_g4_unnormalized():
    assert mahonian_distribution(3).unnormalized().tolist() == [1, 2, 2, 1]
    assert mahonian_distribution(4).unnormalized().tolist() == [1, 3, 5, 6, 5, 3, 1]


def test_mahonian_matches_permutation_histogram():
    for n in range(2, 7):
        counts = np.zeros(n * (n - 1) // 2 + 1, dtype=np.int64)
        ident = Permutation(tuple(range(n)))
        for order in itertools.permutations(range(n)):
            counts[kendall_tau(ident, Permutation(order))] += 1
        assert mahonian_distribution(n).unnormalized().tolist() == counts.tolist()


def _exact_counts(n):
    """Coefficients of prod_{j=1}^{n-1} (1 + z + ... + z^j) in Python ints:
    each step sums a length-j window of the old coefficients."""
    counts = [1]
    for j in range(2, n + 1):
        prefix = list(itertools.accumulate(counts, initial=0))
        counts = [prefix[min(t + 1, len(counts))] - prefix[max(t + 1 - j, 0)]
                  for t in range(len(counts) + j - 1)]
    return counts


@pytest.mark.parametrize("n", [2, 5, 20, 100])
def test_mahonian_invariants(n):
    table = mahonian_distribution(n)
    mass = table.mass
    assert len(mass) == table.max_distance + 1
    assert abs(mass.sum() - 1.0) < 1e-12
    assert np.array_equal(mass, mass[::-1])
    mean = float(np.arange(len(mass)) @ mass)
    assert abs(mean - n * (n - 1) / 4) / (n * (n - 1) / 4) < 1e-9


def _gather_mahonian(n):
    """The half-table recursion written with gathers: the old half read past
    its middle through the mirrored index min(t, top - t), each window sum
    gathered through clipped indexes into a zero-padded cumulative sum."""
    g, top = np.ones(1), 0
    for j in range(2, n + 1):
        t = np.arange((top + j - 1) // 2 + 1)
        cs = np.concatenate(([0.0], np.cumsum(g[np.minimum(t, top - t)])))
        g = (cs[t + 1] - cs[np.maximum(t + 1 - j, 0)]) / j
        top += j - 1
    t = np.arange(top + 1)
    return g[np.minimum(t, top - t)]


@pytest.mark.parametrize("n", [*range(1, 61), 250])
def test_mahonian_is_bit_identical_to_the_gather_recursion(n):
    assert np.array_equal(mahonian_distribution(n).mass, _gather_mahonian(n))


def _allocating_mahonian(n):
    """The half-table recursion with two fresh arrays at every step."""
    g, top = np.ones(1), 0
    for j in range(2, n + 1):
        size = (top + j - 1) // 2 + 1
        cs = np.empty(size)
        cs[: len(g)] = g
        cs[len(g):] = g[top - size + 1 : (top + 1) // 2][::-1]
        np.cumsum(cs, out=cs)
        g = cs.copy()
        g[j:] -= cs[:-j]
        g /= j
        top += j - 1
    return np.concatenate((g, g[: (top + 1) // 2][::-1]))


@pytest.mark.parametrize("n", [*range(1, 81), 250, 500])
def test_mahonian_is_bit_identical_to_the_allocating_recursion(n):
    assert mahonian_distribution(n).mass.tobytes() == _allocating_mahonian(n).tobytes()


def test_mahonian_tables_match_each_size_computed_alone():
    sizes = (500, 3, 500, 1, 2)
    tables = mahonian_tables(sizes)
    assert [table.n for table in tables] == list(sizes)
    for table in tables:
        assert np.array_equal(table.mass, mahonian_distribution(table.n).mass)


def test_mahonian_mass_is_no_view_of_the_recursion_buffers():
    assert mahonian_distribution(30).mass.flags.owndata


@pytest.mark.parametrize("n", [*range(1, 61), 150])
def test_mahonian_matches_exact_counts(n):
    mass = mahonian_distribution(n).mass
    factorial = math.factorial(n)
    want = np.array([count / factorial for count in _exact_counts(n)])  # correctly rounded
    assert np.all(np.abs(mass - want) <= 1e-14 * want)
    assert np.array_equal(mass, mass[::-1])


def test_unnormalized_is_exact_up_to_n18():
    for n in range(1, 19):
        assert mahonian_distribution(n).unnormalized().tolist() == _exact_counts(n)


def test_unnormalized_guard():
    with pytest.raises(CombinatoricsError):
        mahonian_distribution(19).unnormalized()
    with pytest.raises(CombinatoricsError):
        mahonian_distribution(0)


def test_exact_support_normalization_vs_brute():
    for n in range(2, 6):
        table = mahonian_distribution(n)
        for h in [1, 2, n * (n - 1) / 2, 1.5]:
            norm = triangular_normalization(n, h, "exact-support", table)
            assert abs(norm.normC - brute_normalization(n, h, "exact-support")) < 1e-12


def test_modified_normalization_closed_form():
    for n, h in ((3, 3), (5, 10), (8, 20)):
        norm = triangular_normalization(n, h, "modified")
        assert norm.normC == pytest.approx(1 - n * (n - 1) / (4 * h), abs=1e-15)
        assert abs(norm.normC - brute_normalization(n, h, "modified")) < 1e-12


def test_modified_requires_wide_bandwidth():
    with pytest.raises(CombinatoricsError):
        triangular_normalization(4, 3.0, "modified")  # n(n-1)/4 = 3
    with pytest.raises(CombinatoricsError):
        triangular_normalization(3, -1, "exact-support")
    with pytest.raises(CombinatoricsError):
        triangular_normalization(3, 2, "gaussian")


def test_prop1_identity_from_raw_counts():
    for n in range(2, 7):
        counts = mahonian_distribution(n).unnormalized()
        for h in range(1, n * (n - 1) // 2 + 1):
            via_identity = normalization_from_counts(counts, h) / math.factorial(n)
            table = mahonian_distribution(n)
            direct = triangular_normalization(n, h, "exact-support", table).normC
            assert abs(via_identity - direct) < 1e-12


def test_kernel_weight_fig2_values():
    table = mahonian_distribution(3)
    expect = {2: [0.50, 0.25, 0.25, 0.0, 0.0, 0.0],
              3: [1 / 3, 2 / 9, 2 / 9, 1 / 9, 1 / 9, 0.0]}
    # per-permutation weights sorted by distance: one at t=0, two at t=1,
    # two at t=2, one at t=3
    dists = [0, 1, 1, 2, 2, 3]
    for h, values in expect.items():
        norm = triangular_normalization(3, h, "exact-support", table)
        got = [kernel_weight(t, norm) for t in dists]
        np.testing.assert_allclose(got, values, atol=1e-12)
        assert abs(sum(got) - 1.0) < 1e-12


def test_kernel_weight_range_check():
    norm = triangular_normalization(3, 2, "exact-support", mahonian_distribution(3))
    with pytest.raises(CombinatoricsError):
        kernel_weight(-1, norm)
    with pytest.raises(CombinatoricsError):
        kernel_weight(4, norm)


@given(st.integers(2, 12), st.integers(1, 40))
def test_kernel_weights_sum_to_one(n, h_raw):
    max_d = n * (n - 1) // 2
    h = min(h_raw, max_d)
    table = mahonian_distribution(n)
    norm = triangular_normalization(n, h, "exact-support", table)
    counts = table.unnormalized()
    total = sum(c * kernel_weight(t, norm) for t, c in enumerate(counts))
    assert abs(total - 1.0) < 1e-9
