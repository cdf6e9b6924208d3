"""Output checks for the benchmark workloads.

Each checker reads what one step produced and returns a ``Check``: the
failed invariants, a digest of the output for comparison with the
committed reference values, and the number of primary items the step
produced (predictions, pair probabilities, ...), which the rate metrics
divide by the step's time. The invariants hold for any seed.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOL = 1e-9
MI_REL = 1e-6


@dataclass
class Check:
    failures: list[str] = field(default_factory=list)
    digest: dict = field(default_factory=dict)
    count: int = 0
    failed_ops: int | None = None  # None: the step is one operation

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    def ops_failed(self) -> int:
        if self.failed_ops is not None:
            return self.failed_ops
        return 1 if self.failures else 0


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """(header, rows) of a CSV the CLI wrote, after its config line."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# config: "):
        raise ValueError(f"{path}: missing config header")
    json.loads(lines[0][len("# config: "):])
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def check_pairs(path: Path, model, rng: np.random.Generator, samples: int = 20) -> Check:
    """Complementarity, the r(i) ranking file, and sampled cells against
    ``model.event_prob(pair_ranking(...))``, a separate code path from
    the pair matrix."""
    from rankdens.rankings import pair_ranking

    c = Check()
    header, rows = read_csv(path)
    c.expect(header == ["item_i", "item_j", "p_i_before_j"], f"pairs header {header}")
    labels = list(dict.fromkeys(r[0] for r in rows))
    n = len(labels)
    if not c.expect(n > 1 and len(rows) == n * n, f"pairs: {len(rows)} rows for {n} items"):
        return c
    pos = {label: i for i, label in enumerate(labels)}
    matrix = np.full((n, n), np.nan)
    for a, b, p in rows:
        matrix[pos[a], pos[b]] = float(p)
    c.count = n * (n - 1)
    c.expect(not np.isnan(matrix).any(), "pairs: missing cells")
    c.expect(np.all(np.diag(matrix) == 0.5), "pairs: diagonal is not 0.5")
    off = ~np.eye(n, dtype=bool)
    worst = float(np.max(np.abs(matrix + matrix.T - 1.0)[off]))
    c.expect(worst <= TOL, f"pairs: p_ij + p_ji deviates from 1 by {worst:.3g}")

    cells = rng.choice(n * n, size=min(samples, n * n), replace=False)
    for cell in cells.tolist():
        i, j = divmod(cell, n)
        if i == j:
            continue
        ui, uj = (model.universe.index_of(labels[x]) for x in (i, j))
        ref = model.event_prob(pair_ranking(model.universe, ui, uj)).value
        c.expect(close(matrix[i, j], ref),
                 f"pairs: cell ({labels[i]}, {labels[j]}) {matrix[i, j]!r} != event_prob {ref!r}")

    _, rank_rows = read_csv(Path(path).with_suffix(".ranking.csv"))
    c.expect([int(r[0]) for r in rank_rows] == list(range(1, n + 1)), "ranking: ranks are not 1..n")
    r_scores = np.nanmean(matrix, axis=1)
    for _, label, score in rank_rows:
        c.expect(label in pos and close(float(score), r_scores[pos[label]]),
                 f"ranking: r({label}) = {score} does not match the pair matrix")
    scores = [float(r[2]) for r in rank_rows]
    c.expect(scores == sorted(scores, reverse=True), "ranking: scores not descending")
    c.digest = {"ranking": [[r[1], float(r[2])] for r in rank_rows]}
    return c


def check_predict(path: Path, expected: tuple[int, int, int], max_loss: float) -> Check:
    """One result row whose user and item counts match the seeded split
    computed independently of the CLI, with a mean loss inside the loss
    matrix's range."""
    c = Check()
    header, rows = read_csv(path)
    c.expect(header == ["train_users", "test_users", "held_out_items", "mean_loss"],
             f"predict header {header}")
    if not c.expect(len(rows) == 1 and len(rows[0]) == 4, f"predict: rows {rows}"):
        return c
    counts = tuple(int(x) for x in rows[0][:3])
    loss = float(rows[0][3])
    c.expect(counts == tuple(expected), f"predict: counts {counts} != split {tuple(expected)}")
    c.expect(0.0 <= loss <= max_loss, f"predict: mean loss {loss} outside [0, {max_loss}]")
    c.count = counts[2]
    c.digest = {"row": [*counts, loss]}
    return c


def _rule_rows(path: Path, c: Check, top_t: int) -> list[list[str]]:
    header, rows = read_csv(path)
    c.expect(header == ["antecedent", "consequent", "score"], f"rules header {header}")
    c.expect(len(rows) == top_t, f"rules: {len(rows)} rows, expected {top_t}")
    scores = [float(r[2]) for r in rows]
    c.expect(scores == sorted(scores, reverse=True), "rules: scores not descending")
    c.digest = {"rules": [[r[0], r[1], float(r[2])] for r in rows]}
    return rows


def quadruples(s: int) -> int:
    """Unordered pairs of disjoint item pairs from s items."""
    return math.comb(s, 2) * math.comb(s - 2, 2) // 2


def check_mi_rules(path: Path, model, subset_size: int, top_t: int) -> Check:
    """Non-negative descending MI scores, each equal to the mutual
    information of the rule's joint table built by ``joint_pair_table``
    (conjunctions of event probabilities, not the chain fast path).

    MI here is about 1e-8, a sum of near-cancelling terms over cells near
    1/4, so the two paths agree to about 1e-8 of its value: the comparison
    is relative, at MI_REL."""
    from rankdens import rules

    c = Check()
    rows = _rule_rows(path, c, top_t)
    c.count = quadruples(min(subset_size, model.universe.n))
    for ante, cons, score in rows:
        items = [model.universe.index_of(x) for x in (*ante.split("<"), *cons.split("<"))]
        if not c.expect(len(set(items)) == 4, f"rules: {ante} / {cons} not 4 items"):
            continue
        mi = rules.mutual_information(rules.joint_pair_table(model, *items))
        c.expect(float(score) >= 0 and math.isclose(float(score), mi, rel_tol=MI_REL),
                 f"rules: MI of {ante} / {cons} is {score}, joint table gives {mi!r}")
    return c


def check_lift_rules(path: Path, model, subset_size: int, top_t: int) -> Check:
    """Descending positive lifts; the top rule recomputed by lift_score."""
    from rankdens import rules

    c = Check()
    rows = _rule_rows(path, c, top_t)
    subset = list(range(min(subset_size, model.universe.n)))
    c.count = len(subset) * (len(subset) - 1)
    if rows:
        i, j = (model.universe.index_of(x) for x in rows[0][:2])
        ref = rules.lift_score(model, i, j, "top2", subset)
        c.expect(close(float(rows[0][2]), ref), f"lift: top rule {rows[0][2]} != {ref!r}")
    c.expect(all(float(r[2]) > 0 for r in rows), "lift: non-positive score")
    return c


def check_graph(path: Path, model, subset_size: int, threshold: float) -> Check:
    """Edges between distinct subset items, each listed once in subset
    order with a weight above the threshold; the DOT file has every edge."""
    c = Check()
    header, rows = read_csv(path)
    c.expect(header == ["item_a", "item_b", "weight"], f"graph header {header}")
    subset = {model.universe.label_of(i): i for i in range(min(subset_size, model.universe.n))}
    seen = set()
    for a, b, w in rows:
        ok = a in subset and b in subset and subset[a] < subset[b] and (a, b) not in seen
        c.expect(ok, f"graph: bad edge {a} -- {b}")
        c.expect(float(w) > threshold, f"graph: edge {a} -- {b} weight {w} <= {threshold}")
        seen.add((a, b))
    dot = Path(path).with_suffix(".dot").read_text()
    c.expect(dot.count(" -- ") == len(rows), "graph: DOT edge count differs from CSV")
    c.count = len(subset) * (len(subset) - 1) // 2
    c.digest = {"edges": [[a, b, float(w)] for a, b, w in rows]}
    return c


def check_normtable(path: Path, sizes, bandwidths) -> Check:
    """Per size n: the mass sums to 1, is palindromic and has mean
    n(n-1)/4. Per bandwidth h: C(h)/n! is positive and at most 1, equals
    the closed form 1 - n(n-1)/(4h) when h exceeds the largest distance,
    and is at least that value otherwise (truncation drops only negative
    weights). The file is streamed: it holds about n^2/2 rows per size."""
    c = Check()
    masses = {str(n): array("d") for n in sizes}
    norms: dict[tuple[str, float], list[float]] = {}
    with open(path) as fh:
        c.expect(fh.readline().startswith("# config: "), "normtable: missing config header")
        header = fh.readline().rstrip("\n").split(",")
        c.expect(header == ["n", "kind", "index", "value"], f"normtable header {header}")
        for line in fh:
            n, kind, index, value = line.rstrip("\n").split(",")
            c.count += 1
            if kind == "g" and n in masses and int(index) == len(masses[n]):
                masses[n].append(float(value))
            elif kind == "normC":
                norms.setdefault((n, float(index)), []).append(float(value))
            else:
                c.failures.append(f"normtable: unexpected row {line.strip()}")
    digest = {"mass_center": [], "normC": []}
    for n in sizes:
        top = n * (n - 1) // 2
        mass = np.frombuffer(masses[str(n)], dtype=float)
        if not c.expect(len(mass) == top + 1, f"normtable: {len(mass)} mass rows for n={n}"):
            continue
        total = math.fsum(mass)
        c.expect(abs(total - 1.0) <= TOL, f"normtable: n={n} mass sums to {total!r}")
        asym = float(np.max(np.abs(mass - mass[::-1])))
        c.expect(asym <= TOL * float(mass.max()), f"normtable: n={n} not palindromic ({asym:.3g})")
        mean = math.fsum(np.arange(top + 1) * mass)
        c.expect(close(mean / (n * (n - 1) / 4), 1.0), f"normtable: n={n} mean {mean!r}")
        digest["mass_center"].append([n, *(float(mass[top // 2 + d]) for d in (-n, 0, n))])
        for h in bandwidths:
            found = norms.get((str(n), h), [])
            if not c.expect(len(found) == 1, f"normtable: {len(found)} normC rows for n={n} h={h}"):
                continue
            value, closed = found[0], 1.0 - n * (n - 1) / (4.0 * h)
            if h > top:
                c.expect(close(value, closed), f"normtable: C({h})/{n}! = {value!r} != {closed!r}")
            else:
                c.expect(closed - TOL <= value <= 1.0 and value > 0,
                         f"normtable: C({h})/{n}! = {value!r} outside [{closed!r}, 1]")
            digest["normC"].append([n, h, value])
    c.digest = digest
    return c


def check_expected_kendall(values: list, n: int) -> Check:
    """Every call returned a distance inside [0, n(n-1)/2]; a call that
    raised (``None``) or left the range counts as one failed operation."""
    c = Check(count=len(values))
    top = n * (n - 1) / 2
    bad = [i for i, v in enumerate(values) if v is None or not 0.0 <= v <= top]
    for i in bad[:5]:
        c.failures.append(f"expected_kendall: pair {i} gave {values[i]!r}")
    c.failed_ops = len(bad)
    c.digest = {"values": [v for v in values if v is not None]}
    return c


def check_small_expected_kendall(rng: np.random.Generator, samples: int = 12) -> Check:
    """expected_kendall against brute-force enumeration on random tied
    rankings with n <= 6; each sample is one operation."""
    from rankdens import censored, oracle
    from rankdens.rankings import ItemUniverse

    c = Check(failed_ops=0, count=samples)
    for _ in range(samples):
        u = ItemUniverse(int(rng.integers(3, 7)))
        s, r = (oracle.random_tied_ranking(rng, u) for _ in range(2))
        got, ref = censored.expected_kendall(s, r), oracle.brute_expected_kendall(s, r)
        if not close(got, ref):
            c.failures.append(f"expected_kendall({s}, {r}) = {got!r}, enumeration {ref!r}")
            c.failed_ops += 1
    return c


def mismatches(digest, reference, where: str = "") -> list[str]:
    """Differences between a digest and its reference: strings and counts
    exactly, floats within a relative TOL."""
    if isinstance(reference, dict):
        if not isinstance(digest, dict) or digest.keys() != reference.keys():
            return [f"{where}: keys differ"]
        return [m for k in reference for m in mismatches(digest[k], reference[k], f"{where}.{k}")]
    if isinstance(reference, list):
        if not isinstance(digest, list) or len(digest) != len(reference):
            return [f"{where}: length differs"]
        return [m for i, (d, r) in enumerate(zip(digest, reference))
                for m in mismatches(d, r, f"{where}[{i}]")]
    if isinstance(reference, float) and isinstance(digest, (int, float)):
        # relative only: some reference values (MI scores) are about 1e-8
        same = math.isclose(digest, reference, rel_tol=TOL, abs_tol=0.0)
        return [] if same else [f"{where}: {digest!r} != {reference!r}"]
    return [] if digest == reference else [f"{where}: {digest!r} != {reference!r}"]
