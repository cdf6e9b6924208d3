"""The three benchmark workloads.

A workload writes its seeded inputs once, then offers a timed set-up (the
program's path from input file to fitted model), the steps of one pass
(each an in-process ``rankdens.cli.main`` call or a public library call),
and a checker per step. Rate metrics divide a step's primary item count,
taken from its checker, by the step's time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen
from spans import MAHONIAN_SIZES


class StepFailed(RuntimeError):
    pass


@dataclass
class Step:
    name: str
    execute: Callable[[], object]
    check: Callable[[object], checks.Check]
    ops: int = 1


def cli_step(name: str, args: list[str], out: Path, check: Callable[[Path], checks.Check]) -> Step:
    """A CLI command run in-process; a nonzero exit fails the operation."""
    from rankdens import cli

    def execute():
        code = cli.main([*args, "--out", str(out)])
        if code != 0:
            raise StepFailed(f"{name}: exit code {code}")
        return out

    return Step(name, execute, check)


@dataclass
class Workload:
    name: str
    work: Path
    seed: int
    steps: list[Step] = field(default_factory=list)
    # metric name -> step name; the metric is that step's items per second
    rates: dict[str, str] = field(default_factory=dict)
    # metric name -> step name; the metric is that step's seconds
    durations: dict[str, str] = field(default_factory=dict)
    primary: str = ""  # the rate reported as ops_per_s

    def check_rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, 1])

    def setup(self) -> object:
        """One timed set-up: the program's path from input file to the
        objects a pass works on."""
        return self.data.fit()

    def prepare(self) -> None:
        """Untimed, once per run: what the checks compare against."""

    def final_checks(self) -> list[tuple[str, checks.Check]]:
        """Checks run once per run, after all passes."""
        return []


@dataclass(frozen=True)
class Dataset:
    """A ratings file and the item/user selection a command runs on."""

    path: Path
    top_items: int
    top_users: int
    fmt: str = "ml100k"

    def args(self) -> list[str]:
        return ["--data", str(self.path), "--format", self.fmt,
                "--top-items", str(self.top_items), "--top-users", str(self.top_users)]

    def fit(self):
        """Ratings file to fitted KernelModel: the set-up a command pays."""
        from rankdens import estimator, ingest

        descriptor = ingest.parse_format(self.fmt)
        table = ingest.load_ratings(self.path, descriptor)
        items = ingest.select_items(table, self.top_items)
        users = ingest.select_users(table, items, top_m=self.top_users)
        _, rankings = ingest.build_rankings(table, items, users)
        return rankings, estimator.fit([r for _, r in rankings])


class Desk(Workload):
    """The paper's three tasks over the desk corpus: predict --loss l1 (one
    level posterior and five event probabilities per held-out (user,
    item)), then pairs, MI rules, lift rules and the affinity graph."""

    def __init__(self, work: Path, seed: int, shape=gen.DeskShape(),
                 top_items: int = 53, predict_users: int = 250, top_users: int = 500,
                 mi_items: int = 14, subset_size: int = 20, top_t: int = 10,
                 threshold: float = 1.0):
        super().__init__("desk", work, seed)
        path = gen.desk_corpus(np.random.default_rng(seed), work / "desk.data", shape)
        self.predict_data = Dataset(path, top_items, predict_users)
        self.data = Dataset(path, top_items, top_users)
        self.mi_data = Dataset(path, mi_items, top_users)
        out = work / "out"
        subset = ["--subset-size", str(subset_size), "--top-t", str(top_t)]
        rng = self.check_rng()
        self.steps = [
            cli_step("predict", ["predict", *self.predict_data.args(), "--loss", "l1"],
                     out / "predict.csv",
                     lambda p: checks.check_predict(p, self.expected_split, max_loss=4.0)),
            cli_step("pairs", ["pairs", *self.data.args()], out / "pairs.csv",
                     lambda p: checks.check_pairs(p, self.model, rng)),
            cli_step("rules-mi", ["rules", *self.mi_data.args(), "--mode", "mi", *subset],
                     out / "rules-mi.csv",
                     lambda p: checks.check_mi_rules(p, self.mi_model, subset_size, top_t)),
            cli_step("rules-lift", ["rules", *self.data.args(), "--mode", "lift-top2", *subset],
                     out / "rules-lift.csv",
                     lambda p: checks.check_lift_rules(p, self.model, subset_size, top_t)),
            cli_step("graph", ["graph", *self.data.args(), "--subset-size", str(subset_size),
                               "--threshold", str(threshold)],
                     out / "graph.csv",
                     lambda p: checks.check_graph(p, self.model, subset_size, threshold)),
        ]
        self.rates = {"predictions_per_s": "predict", "pair_probs_per_s": "pairs",
                      "quadruples_per_s": "rules-mi"}
        self.primary = "predictions_per_s"

    def prepare(self):
        from rankdens import ingest

        rankings, _ = self.predict_data.fit()
        # the CLI defaults: --seed 0 --test-fraction 0.3 --holdout-fraction 0.5
        train, holdout = ingest.split_users(rankings, 0, 0.3, 0.5)
        self.expected_split = (len(train), len(holdout.users),
                               sum(len(u.held_out) for u in holdout.users))
        self.model = self.data.fit()[1]
        self.mi_model = self.mi_data.fit()[1]


class Ml100kPairs(Workload):
    """pairs over a wide universe of a MovieLens-100k-shaped corpus."""

    def __init__(self, work: Path, seed: int, shape=gen.Ml100kShape(),
                 top_items: int = 150, top_users: int = 943):
        super().__init__("ml100k-pairs", work, seed)
        path = gen.ml100k_corpus(np.random.default_rng(seed), work / "ml100k.data", shape)
        self.data = Dataset(path, top_items, top_users)
        rng = self.check_rng()
        self.steps = [cli_step("pairs", ["pairs", *self.data.args()], work / "out" / "pairs.csv",
                               lambda p: checks.check_pairs(p, self.model, rng))]
        self.rates = {"pair_probs_per_s": "pairs"}
        self.primary = "pair_probs_per_s"

    def prepare(self):
        self.model = self.data.fit()[1]


class ClosedForms(Workload):
    """normtable at two sizes and two bandwidths, then expected_kendall
    over a batch of tied-ranking pairs."""

    def __init__(self, work: Path, seed: int, sizes=MAHONIAN_SIZES,
                 batch=gen.BatchShape()):
        super().__init__("closed-forms", work, seed)
        rng = np.random.default_rng(seed)
        self.batch_shape = batch
        self.batch_path = gen.tied_batch(rng, work / "batch.txt", batch)
        self.sizes = tuple(sizes)
        self.bandwidths = gen.bandwidths(rng, max(self.sizes))
        args = ["normtable", *(a for n in self.sizes for a in ("--n", str(n))),
                *(a for h in self.bandwidths for a in ("--bandwidth", repr(h)))]
        self.steps = [
            cli_step("normtable", args, work / "out" / "normtable.csv",
                     lambda p: checks.check_normtable(p, self.sizes, self.bandwidths)),
            Step("expected-kendall", self._expected_kendall,
                 lambda values: checks.check_expected_kendall(values, batch.n),
                 ops=batch.pairs),
        ]
        self.rates = {"expected_kendall_per_s": "expected-kendall"}
        self.durations = {"normtable_s": "normtable"}
        self.primary = "expected_kendall_per_s"
        self.pairs = None  # parsed by the first pass

    def setup(self):
        """What the closed forms read, like ``fit`` for a corpus: the batch
        file parsed to TiedRanking pairs, and the Mahonian table of each
        size (which ``normtable`` also builds inside a pass)."""
        from rankdens.combinatorics import mahonian_distribution

        return self._parse_batch(), [mahonian_distribution(n) for n in self.sizes]

    def _parse_batch(self):
        from rankdens.rankings import ItemUniverse, parse_ranking

        universe = ItemUniverse(self.batch_shape.n)
        with open(self.batch_path) as fh:
            return [tuple(parse_ranking(text, universe) for text in line.rstrip("\n").split("\t"))
                    for line in fh]

    def _expected_kendall(self):
        from rankdens import censored

        if self.pairs is None:
            self.pairs = self._parse_batch()
        values = []
        for s, r in self.pairs:
            try:
                values.append(censored.expected_kendall(s, r))
            except Exception:  # a raising call is one failed operation
                values.append(None)
        return values

    def final_checks(self):
        return [("expected-kendall-small-n", checks.check_small_expected_kendall(self.check_rng()))]


WORKLOADS = {
    "desk": Desk,
    "ml100k-pairs": Ml100kPairs,
    "closed-forms": ClosedForms,
}
