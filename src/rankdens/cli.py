"""Command-line experiment surface emitting plot-ready CSV."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections import Counter
from pathlib import Path

import click
import numpy as np

from . import estimator, ingest, oracle, rules
from .combinatorics import (
    CombinatoricsError,
    NormalizationUnderflow,
    mahonian_tables,
    triangular_normalization,
)
from .floatrepr import reprs
from .rankings import ItemUniverse, Permutation, RankingError, format_ranking, parse_ranking
from .recommend import builtin_loss, holdout_split, loss_from_csv, posterior_loss

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class DataError(Exception):
    """A command's own check found its data unusable (exit 2)."""


class NumericError(Exception):
    """A command's own check found a numeric failure (exit 3)."""


# How main reports a failure: the first row whose class matches gives the
# exit code, so a subclass comes before its base. Any other exception is a
# bug and keeps its traceback.
_EXITS = (
    (click.UsageError, EXIT_USAGE),
    (ingest.FormatError, EXIT_USAGE),
    (NormalizationUnderflow, EXIT_NUMERIC),  # C(h) is positive, but its Mahonian tail underflows
    (CombinatoricsError, EXIT_USAGE),
    (ingest.IngestError, EXIT_DATA),
    (rules.RulesError, EXIT_NUMERIC),  # a signed kernel can leave a lift with no denominator
    (DataError, EXIT_DATA),
    (NumericError, EXIT_NUMERIC),
)
_PREFIX = {EXIT_USAGE: "usage error", EXIT_DATA: "data error", EXIT_NUMERIC: "numeric error"}


def _open_out(path: Path):
    """``path`` opened for writing, its directory made; failing that, a usage error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w")
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}") from None


def _write_csv(out_path: Path, config: dict, columns, lines) -> None:
    """The config comment, the header, then ``lines``: rows already joined and newline-ended."""
    with _open_out(out_path) as fh:
        fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(lines)


def _load(data, fmt, top_items, top_users):
    """A command's selected ratings as one grouped record, and the config
    entries that name the selection."""
    digest = hashlib.sha256()
    table = ingest.load_ratings(data, ingest.parse_format(fmt), digest=digest)
    items = ingest.select_items(table, top_items)
    users = ingest.select_users(table, items, top_m=top_users)
    config = {"data": str(data), "sha256": digest.hexdigest(), "format": fmt,
              "top_items": top_items, "top_users": top_users}
    return ingest.group_ratings(table, items, users), config


def _bandwidth(bandwidth: str, n: int, mode: str) -> float:
    """h for n items; one the kernel cannot normalize is a usage error. The
    commands that load --top-items items check it before reading any data."""
    try:
        h = estimator.default_bandwidth(n) if bandwidth == "auto" else float(bandwidth)
    except ValueError:
        raise click.UsageError(f"bad bandwidth {bandwidth!r}") from None
    try:
        triangular_normalization(n, h, mode)
    except CombinatoricsError as exc:
        raise click.UsageError(f"--bandwidth {bandwidth}: {exc}") from None
    return h


def _fit(grouped, bandwidth: str):
    """(h, model) for a command, fitted from its grouped record; a bandwidth
    the model cannot take is a usage error."""
    h = _bandwidth(bandwidth, grouped.universe.n, "modified")
    return h, estimator.fit(grouped, h=h)


common = [
    click.option("--data", required=True, type=click.Path(), help="ratings file"),
    click.option("--format", "fmt", default="ml100k", show_default=True,
                 help="ml100k | ml1m | csv:<delim>:<cols>:<lo>-<hi>[:header]"),
    click.option("--top-items", default=53, show_default=True, type=click.IntRange(min=1)),
    click.option("--top-users", default=2000, show_default=True, type=click.IntRange(min=1)),
    click.option("--bandwidth", default="auto", show_default=True),
    click.option("--out", required=True, type=click.Path()),
    click.option("--strict", is_flag=True, help="escalate numeric warnings"),
]
# only the commands that draw random numbers take a seed
seed_option = click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))


def with_common(fn):
    for opt in reversed(common):
        fn = opt(fn)
    return fn


@click.group()
def cli():
    """Preference-probability estimation over censored rankings."""


_BLOCK = 4096  # normtable rows formatted, and written, as one string


def _mass_rows(table):
    """The ``n,g,t,value`` rows of a Mahonian table, one string per block of
    ``_BLOCK`` rows, each formatted by one ``%``. The table is a palindrome,
    so each value of its lower half is repr'd once, a block at a time by
    ``reprs``, and its reprs are kept, one joined string a block, to write
    the upper half from the kept blocks in reverse."""
    n, top = table.n, table.max_distance
    half = top // 2 + 1
    lower, blocks = table.mass[:half], []

    def rows(t, values):
        args = [None] * (2 * len(values))
        args[::2] = range(t, t + len(values))
        args[1::2] = values
        return (f"{n},g,%d,%s\n" * len(values)) % tuple(args)

    for start in range(0, half, _BLOCK):
        values = reprs(lower[start : start + _BLOCK])
        blocks.append("\n".join(values))
        yield rows(start, values)
    t, skip = half, 1 - top % 2  # when top is even, its middle row t = top/2 is written once
    while blocks:
        values = blocks.pop().split("\n")[-1 - skip :: -1]
        skip = 0
        yield rows(t, values)
        t += len(values)


@cli.command()
@click.option("--n", "sizes", multiple=True, type=int, required=True)
@click.option("--bandwidth", "bandwidths", multiple=True, type=float, required=True)
@click.option("--out", required=True, type=click.Path())
def normtable(sizes, bandwidths, out):
    """Emit the tau-distance mass table and C(h) normalizations as CSV."""
    tables = mahonian_tables(sizes)
    norms = [[triangular_normalization(table.n, h, "exact-support", table) for h in bandwidths]
             for table in tables]

    def lines():
        for table, row in zip(tables, norms):
            yield from _mass_rows(table)
            yield "".join(f"{table.n},normC,{norm.h},{norm.normC!r}\n" for norm in row)

    config = {"cmd": "normtable", "n": list(sizes), "h": list(bandwidths)}
    _write_csv(Path(out), config, ("n", "kind", "index", "value"), lines())


@cli.command()
@with_common
def pairs(data, fmt, top_items, top_users, bandwidth, out, strict):
    """Pairwise preference matrix and the r(i) preference ranking."""
    _bandwidth(bandwidth, top_items, "modified")
    grouped, selection = _load(data, fmt, top_items, top_users)
    universe = grouped.universe
    h, model = _fit(grouped, bandwidth)
    n = universe.n
    matrix = np.full((n, n), 0.5)
    off = np.nonzero(~np.eye(n, dtype=bool))  # every ordered pair i != j
    # one item has no pair: no pair event fits its universe
    probs = model.chain_prob(np.column_stack(off)) if n > 1 else np.zeros(0)
    matrix[off] = probs
    negatives = int((probs < 0).sum())
    r_scores = (matrix.sum(axis=1) / n).tolist()
    order = sorted(range(n), key=lambda i: (-r_scores[i], i))
    config = {"cmd": "pairs", **selection, "h": h, "kernel": "modified"}
    labels = [universe.label_of(i) for i in range(n)]
    # one row of item a's cells: \0 stands for a, and %r is repr, as f"{p!r}" writes it
    row = "".join(f"\0,{b},%r\n" for b in labels)
    lines = (row.replace("\0", a) % tuple(values) for a, values in zip(labels, matrix.tolist()))
    _write_csv(Path(out), config, ("item_i", "item_j", "p_i_before_j"), lines)
    lines = [f"{rank},{labels[i]},{r_scores[i]!r}\n" for rank, i in enumerate(order, 1)]
    _write_csv(Path(out).with_suffix(".ranking.csv"), config, ("rank", "item", "r_score"), lines)
    if negatives and strict:
        raise NumericError(f"{negatives} negative pair probabilities")


@cli.command()
@with_common
@seed_option
@click.option("--kernel", default="modified", show_default=True,
              type=click.Choice(["modified", "exact"]),
              help="exact: the exact-support kernel, by enumeration")
@click.option("--n-items", "small_ns", multiple=True, type=click.IntRange(2, 5),
              default=(3, 4, 5), show_default=True, help="subset sizes (Mallows needs <= 5)")
@click.option("--m-grid", multiple=True, type=click.IntRange(min=1),
              default=(100, 500, 1000), show_default=True)
@click.option("--reps", default=5, show_default=True, type=click.IntRange(min=1))
def loglik(data, fmt, top_items, top_users, bandwidth, out, strict, seed,
           kernel, small_ns, m_grid, reps):
    """Held-out log-likelihood: kernel vs empirical vs Mallows baseline."""
    mode = "exact-support" if kernel == "exact" else "modified"
    widths = {n_sub: _bandwidth(bandwidth, n_sub, mode) for n_sub in small_ns}
    if max(small_ns) > top_items:
        raise click.UsageError(f"--n-items {max(small_ns)} exceeds the {top_items} loaded items")
    grouped, selection = _load(data, fmt, top_items, top_users)
    universe = grouped.universe
    lines, counts = [], Counter()
    empty = no_mallows = 0  # cells with no rows at all, and with no mallows row
    rng = np.random.default_rng(seed)
    for n_sub in small_ns:
        # each ranking cut to the n_sub most rated items, items 0..n_sub-1
        sub_universe = ItemUniverse(n_sub, tuple(universe.label_of(i) for i in range(n_sub)))
        projected = grouped.restrict(range(len(grouped.users)), grouped.items < n_sub,
                                     sub_universe)
        for m in m_grid:
            results = {"kernel": [], "empirical": [], "mallows": []}
            for rep in range(reps):
                rep_seed = int(rng.integers(2**31))
                scores = _loglik_once(projected, m, rep_seed, widths[n_sub], kernel, counts)
                if scores is None:
                    continue
                for key, val in scores.items():
                    results[key].append(val)
            if not results["kernel"]:
                empty += 1
            elif not results["mallows"]:
                no_mallows += 1
            for key, vals in results.items():
                if vals:
                    mean = float(np.mean(vals))
                    se = float(np.std(vals) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
                    lines.append(f"{n_sub},{m},{key},{mean!r},{se!r}\n")
    config = {"cmd": "loglik", **selection, "n": list(small_ns), "m_grid": list(m_grid),
              "reps": reps, "seed": seed, "bandwidth": bandwidth, "kernel": kernel}
    _write_csv(Path(out), config, ("n", "m", "estimator", "mean_loglik", "stderr"), lines)
    if empty or no_mallows:
        click.echo(f"{empty} of {len(small_ns) * len(m_grid)} (n, m) cells dropped (too few or "
                   f"unusable held-out rankings), {no_mallows} without a mallows row (no full "
                   f"training ranking)", err=True)
    if counts["negative"] and strict:
        raise NumericError(f"{counts['negative']} negative kernel event probabilities")


def _strict_orders(grouped) -> np.ndarray:
    """The (T, n) items, most preferred first, of the rankings that put
    all n items of their universe in n groups, in record order."""
    n, starts = grouped.universe.n, grouped.user_starts
    full = (np.diff(starts) == n) & (np.diff(np.searchsorted(grouped.group_starts, starts)) == n)
    return grouped.items[starts[:-1][full][:, None] + np.arange(n)]


def _loglik_once(projected, m, seed, h, kernel, counts=None):
    """One run's mean log-likelihood per estimator, or None when too few
    rankings are left. ``projected`` holds each ranking cut to the subset,
    its universe (empty when it ranks no subset item); after a seeded
    shuffle of all of them the first m non-empty ones train, and the strict
    full orders among the next ones are the test events. Kernel event
    probabilities below zero, which the mean floors, are counted in
    ``counts["negative"]``."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(projected.users))
    kept = order[np.diff(projected.user_starts)[order] > 0]
    if len(kept) < m + 20:
        return None
    train = projected.restrict(kept[:m])
    orders = _strict_orders(projected.restrict(kept[m : m + max(200, m // 2)]))
    if not len(orders):
        return None
    events = list(map(tuple, orders.tolist()))
    if kernel == "exact":
        dist = oracle.brute_full_distribution(ingest.tied_rankings(train), h, "exact-support")
        index = oracle.perm_table(projected.universe.n).index
        kernel_probs = dist[[index[e] for e in events]]
    else:
        kernel_probs = estimator.fit(train, h).chain_prob(orders)
    if counts is not None:
        counts["negative"] += int((kernel_probs < 0).sum())
    full = list(map(tuple, _strict_orders(train).tolist()))
    seen = Counter(full)  # only the identical strict full order implies an event
    out = {
        "kernel": estimator.heldout_loglikelihood(kernel_probs).mean,
        "empirical": estimator.heldout_loglikelihood([seen[e] / m for e in events]).mean,
    }
    if full:
        mallows = estimator.mallows_fit([Permutation(order) for order in full])
        out["mallows"] = estimator.heldout_loglikelihood(
            [math.exp(mallows.log_prob(Permutation(e))) for e in events]
        ).mean
    return out


@cli.command()
@with_common
@seed_option
@click.option("--loss", default="l1", show_default=True,
              help="l0 | l1 | le | path to CSV matrix")
@click.option("--test-fraction", default=0.3, show_default=True,
              type=click.FloatRange(0, 1, min_open=True, max_open=True))
@click.option("--holdout-fraction", default=0.5, show_default=True,
              type=click.FloatRange(0, 1, min_open=True, max_open=True))
def predict(data, fmt, top_items, top_users, bandwidth, out, strict, seed,
            loss, test_fraction, holdout_fraction):
    """Mean posterior-loss of held-out item level prediction."""
    lo, hi = ingest.parse_format(fmt).scale
    levels = tuple(range(lo, hi + 1))
    try:
        loss_matrix = (builtin_loss(loss, levels) if loss in ("l0", "l1", "le")
                       else loss_from_csv(loss, levels))
    except (OSError, ValueError) as exc:  # a missing file, or a matrix not over the levels
        raise click.UsageError(f"--loss {loss}: {exc}") from None
    _bandwidth(bandwidth, top_items, "modified")
    grouped, selection = _load(data, fmt, top_items, top_users)
    train, holdout = holdout_split(grouped, seed, test_fraction, holdout_fraction)
    if not len(train.users):
        raise DataError(f"no training users: --test-fraction {test_fraction} leaves "
                        f"none of {len(grouped.users)}")
    if not len(holdout.items):
        raise DataError("no test users with enough ranked items")
    h, model = _fit(train, bandwidth)
    counts = Counter()
    mean_loss = posterior_loss(model, holdout, loss_matrix, counts)
    config = {"cmd": "predict", **selection, "loss": loss, "h": h, "kernel": "modified",
              "seed": seed, "test_fraction": test_fraction, "holdout_fraction": holdout_fraction}
    _write_csv(Path(out), config, ("train_users", "test_users", "held_out_items", "mean_loss"),
               [f"{len(train.users)},{len(holdout.observed.users)},{len(holdout.items)},"
                f"{mean_loss!r}\n"])
    if counts["clamped"] and strict:
        raise NumericError(f"{counts['clamped']} negative level weights")


@cli.command("rules")
@with_common
@click.option("--mode", "rule_mode", default="mi", show_default=True,
              type=click.Choice(["mi", "lift-top2", "lift-topbottom"]))
@click.option("--subset-size", default=20, show_default=True, type=click.IntRange(min=1),
              help="analyze the most-rated subset of this size")
@click.option("--top-t", default=10, show_default=True, type=click.IntRange(min=1))
def rules_cmd(data, fmt, top_items, top_users, bandwidth, out, strict,
              rule_mode, subset_size, top_t):
    """Mine association rules over the most rated items."""
    subset = list(range(min(subset_size, top_items)))
    if rule_mode == "mi" and len(subset) < 4:
        raise click.UsageError(
            f"--mode mi pairs up disjoint item pairs and needs at least 4 "
            f"subset items, got {len(subset)}"
        )
    _bandwidth(bandwidth, top_items, "modified")
    grouped, selection = _load(data, fmt, top_items, top_users)
    universe = grouped.universe
    h, model = _fit(grouped, bandwidth)
    counts = Counter()
    if rule_mode == "mi":
        mined = rules.mine_mi_rules(model, subset, top_t, counts)
        what = "negative MI joint-table cells"
    else:
        lift_mode = "top2" if rule_mode == "lift-top2" else "top-bottom"
        mined = rules.mine_lift_rules(model, subset, lift_mode, top_t, counts)
        what = "negative event probabilities"
    config = {"cmd": "rules", **selection, "mode": rule_mode, "subset_size": subset_size,
              "top_t": top_t, "h": h, "kernel": "modified"}
    lines = []
    for rule in mined:
        ante = "<".join(universe.label_of(i) for i in rule.antecedent)
        cons = "<".join(universe.label_of(i) for i in rule.consequent)
        lines.append(f"{ante},{cons},{rule.score!r}\n")
    _write_csv(Path(out), config, ("antecedent", "consequent", "score"), lines)
    if counts["negative"] and strict:
        raise NumericError(f"{counts['negative']} {what}")


@cli.command()
@with_common
@click.option("--threshold", default=1.5, show_default=True,
              type=click.FloatRange(min=0, min_open=True))
@click.option("--subset-size", default=20, show_default=True, type=click.IntRange(min=1))
def graph(data, fmt, top_items, top_users, bandwidth, out, strict,
          threshold, subset_size):
    """Emit the affinity graph edge list for external layout tools."""
    _bandwidth(bandwidth, top_items, "modified")
    grouped, selection = _load(data, fmt, top_items, top_users)
    universe = grouped.universe
    h, model = _fit(grouped, bandwidth)
    subset = list(range(min(subset_size, universe.n)))
    counts = Counter()
    edges = rules.affinity_graph(model, subset, threshold, counts)
    config = {"cmd": "graph", **selection, "threshold": threshold,
              "subset_size": subset_size, "h": h, "kernel": "modified"}
    lines = [f"{universe.label_of(i)},{universe.label_of(j)},{w!r}\n" for i, j, w in edges]
    _write_csv(Path(out), config, ("item_a", "item_b", "weight"), lines)
    with _open_out(Path(out).with_suffix(".dot")) as fh:
        fh.write("graph affinity {\n")
        nodes = sorted({i for e in edges for i in e[:2]})
        for i in nodes:
            fh.write(f'  n{i} [label="{universe.label_of(i)}"];\n')
        for i, j, w in edges:
            fh.write(f"  n{i} -- n{j} [weight={w:.4f}];\n")
        fh.write("}\n")
    if counts["negative"] and strict:
        raise NumericError(f"{counts['negative']} negative event probabilities")


def _finite(ctx, param, value):
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not finite")
    return value


@cli.command()
@click.option("--n", default=5, show_default=True, type=click.IntRange(min=1))
@click.option("--users", "m", default=100, show_default=True, type=click.IntRange(min=1))
@click.option("--centers", default="",
              help="semicolon-separated strict orders of all n items, e.g. '1|2|3;3|2|1'")
@click.option("--concentration", default=1.0, show_default=True,
              type=click.FloatRange(min=0), callback=_finite)
@click.option("--rho", default=1.0, show_default=True,
              type=click.FloatRange(0, 1, min_open=True), callback=_finite)
@click.option("--tie-block", default=1, show_default=True, type=click.IntRange(min=1))
@seed_option
@click.option("--out", required=True, type=click.Path())
def synth(n, m, centers, concentration, rho, tie_block, seed, out):
    """Generate a reproducible synthetic corpus of censored rankings."""
    universe = ItemUniverse(n)
    if centers:
        perms = []
        for text in centers.split(";"):
            try:
                r = parse_ranking(text, universe)
            except RankingError as exc:
                raise click.UsageError(f"--centers: {exc}") from None
            if r.k != n or any(len(g) != 1 for g in r.groups):
                raise click.UsageError(f"--centers: {text!r} is not a strict order of all {n} items")
            perms.append(Permutation(tuple(g[0] for g in r.groups)))
    else:
        perms = [Permutation(tuple(range(n)))]
    weights = tuple(1.0 / len(perms) for _ in perms)
    config = oracle.MixtureConfig(
        universe, tuple(perms), tuple(concentration for _ in perms),
        weights, rho=rho, tie_block=tie_block,
    )
    rankings = oracle.synthesize(config, m, seed)
    header = {"cmd": "synth", "n": n, "users": m, "centers": centers,
              "concentration": concentration, "rho": rho,
              "tie_block": tie_block, "seed": seed}
    with _open_out(Path(out)) as fh:
        fh.write("# config: " + json.dumps(header, sort_keys=True) + "\n")
        for uid, r in enumerate(rankings):
            fh.write(f"{uid}\t{format_ranking(r)}\n")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except tuple(cls for cls, _ in _EXITS) as exc:
        code = next(code for cls, code in _EXITS if isinstance(exc, cls))
        text = exc.format_message() if isinstance(exc, click.UsageError) else str(exc)
        click.echo(f"{_PREFIX[code]}: {text}", err=True)
        return code
    except SystemExit as exc:
        return int(exc.code or 0)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
