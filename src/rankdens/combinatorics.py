"""Kendall tau, the inversion-count distribution, and kernel normalization.

The distribution of Kendall tau under the uniform measure is computed by
the generating-function recursion, stored normalized by n! so that the
table is a probability mass function usable at large n.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .rankings import Permutation


class CombinatoricsError(ValueError):
    pass


class NormalizationUnderflow(CombinatoricsError):
    """A kernel normalization that is positive in exact arithmetic (h is
    valid) but rounds to 0 or below: a numeric failure, not bad input."""


def kendall_tau(pi: Permutation, sigma: Permutation) -> int:
    """Number of item pairs ordered oppositely by the two permutations:
    over sigma's order read from the back, how many later items pi puts
    ahead of each, counted in a sorted list of their positions in pi."""
    if pi.n != sigma.n:
        raise CombinatoricsError("permutation size mismatch")
    pos = pi.positions()
    later: list[int] = []
    inv = 0
    for item in reversed(sigma.order):
        inv += bisect_left(later, pos[item])
        insort(later, pos[item])
    return inv


@dataclass(frozen=True)
class MahonianTable:
    """mass[t] = (# permutations at tau-distance t from a fixed one) / n!"""

    n: int
    mass: np.ndarray

    @property
    def max_distance(self) -> int:
        return self.n * (self.n - 1) // 2

    def unnormalized(self) -> np.ndarray:
        """Raw coefficient counts of G_n; exact only for small n."""
        if self.n > 18:
            raise CombinatoricsError("raw counts overflow float precision")
        return np.rint(self.mass * math.factorial(self.n)).astype(np.int64)


MAX_MAHONIAN_N = 10_000
"""The largest table size. The two recursion buffers hold n(n-1)/4 + 1
floats each, 400 MB together at this bound, and the table 400 MB more."""


def mahonian_tables(sizes) -> list[MahonianTable]:
    """The table of each size in ``sizes``, in their order, from one run of
    the recursion up to the largest: the table of n is the state after
    step n, whatever sizes come after it. Every size is checked before any
    buffer is allocated.

    The recursion takes the normalized coefficients of
    prod_{j=1}^{n-1} (1 + z + ... + z^j) with a sliding-window prefix sum:
    extending from j-1 to j items convolves with a length-j uniform window,
    O(1) per coefficient, O(n^3) total. Every table is a palindrome, so only
    the lower half t <= top//2 is kept: the old half, run past its middle by
    its own mirror, gives the prefix sums cs, and the new half is
    cs[t] - cs[t-j] (t >= j). Each entry is then a difference of lower-tail
    sums, with no cancellation near 1, and each table is mirrored from its
    half once, so it is exactly palindromic.
    """
    sizes = tuple(sizes)
    for n in sizes:
        if n < 1:
            raise CombinatoricsError("n must be >= 1")
        if n > MAX_MAHONIAN_N:
            raise CombinatoricsError(f"n = {n} exceeds the table size bound {MAX_MAHONIAN_N}")
    wanted, last = set(sizes), max(sizes)
    # Every step runs on slices of two buffers sized for the last half table:
    # two fresh arrays a step would page-fault their memory in anew each time.
    g_buf, cs_buf = np.empty((2, last * (last - 1) // 4 + 1))
    g_buf[0] = 1.0
    g, top = g_buf[:1], 0
    tables = {}
    for j in range(1, last + 1):  # at j = 1 the step keeps the one coefficient 1.0
        size = (top + j - 1) // 2 + 1
        cs = cs_buf[:size]
        cs[: len(g)] = g
        cs[len(g):] = g[top - size + 1 : (top + 1) // 2][::-1]  # g[top - t] for t > top//2
        np.cumsum(cs, out=cs)
        g = g_buf[:size]
        g[:j] = cs[:j]
        np.subtract(cs[j:], cs[:-j], out=g[j:])
        g /= j
        top += j - 1
        if j in wanted:
            tables[j] = MahonianTable(j, np.concatenate((g, g[: (top + 1) // 2][::-1])))
    return [tables[n] for n in sizes]


def mahonian_distribution(n: int) -> MahonianTable:
    """The table of size n: see ``mahonian_tables``."""
    return mahonian_tables((n,))[0]


@dataclass(frozen=True)
class TriangularNormalization:
    """Normalization of the triangular kernel, stored as C(h)/n!.

    mode "exact-support": weight (1 - t/h) on t < h, zero beyond.
    mode "modified": weight (1 - t/h) everywhere, possibly negative at
    large distances; the normalizer has the closed form 1 - n(n-1)/(4h).
    """

    n: int
    h: float
    mode: str
    normC: float


MODES = ("exact-support", "modified")


def check_bandwidth(h: float) -> None:
    """Reject an h that no kernel size can use: NaN, infinite or not positive."""
    if not math.isfinite(h) or h <= 0:
        raise CombinatoricsError("bandwidth must be finite and positive")


def triangular_normalization(
    n: int, h: float, mode: str = "modified", table: MahonianTable | None = None
) -> TriangularNormalization:
    if mode not in MODES:
        raise CombinatoricsError(f"unknown kernel mode {mode!r}")
    check_bandwidth(h)
    if mode == "modified":
        quarter = n * (n - 1) / 4.0
        if h <= quarter:
            raise CombinatoricsError(
                f"modified kernel requires h > n(n-1)/4 = {quarter}"
            )
        normC = 1.0 - quarter / h
    else:
        if table is None:
            table = mahonian_distribution(n)
        elif table.n != n:
            raise CombinatoricsError("table size mismatch")
        t = np.arange(table.max_distance + 1)
        support = t < h
        normC = float(np.sum((1.0 - t[support] / h) * table.mass[support]))
    if normC <= 0:
        raise NormalizationUnderflow(f"non-positive normalization {normC}: C(h)/n! underflows")
    return TriangularNormalization(n, float(h), mode, normC)
