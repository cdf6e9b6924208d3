import builtins
import hashlib
import json
import math
import re
import tracemalloc

import click
import numpy as np
import pytest

from rankdens import cli, combinatorics, estimator, ingest, oracle, rules
from rankdens.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _loglik_once, main
from rankdens.combinatorics import mahonian_distribution, triangular_normalization
from rankdens.rankings import ItemUniverse, Permutation, TiedRanking


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def _common(data, out, **extra):
    args = ["--data", str(data), "--out", str(out),
            "--top-items", "8", "--top-users", "150"]
    for key, val in extra.items():
        args += [f"--{key.replace('_', '-')}", str(val)]
    return args


def test_normtable(tmp_path):
    out = tmp_path / "norm.csv"
    assert main(["normtable", "--n", "3", "--bandwidth", "2", "--out", str(out)]) == EXIT_OK
    header, rows = _read_csv(out)
    assert header == ["n", "kind", "index", "value"]
    mass = [float(r[3]) for r in rows if r[1] == "g"]
    np.testing.assert_allclose(mass, mahonian_distribution(3).mass)
    normc = [float(r[3]) for r in rows if r[1] == "normC"]
    assert normc == [pytest.approx(2 / 6)]  # C(2)/3! = (1 + 2*0.5)/6


def _normtable_reference(sizes, bandwidths):
    """The normtable CSV as one list of tuple rows, joined per field by str,
    as the CSV writer first wrote it."""
    rows = []
    for n in sizes:
        table = mahonian_distribution(n)
        for t, mass in enumerate(table.mass):
            rows.append((n, "g", t, repr(float(mass))))
        for h in bandwidths:
            norm = triangular_normalization(n, h, "exact-support", table)
            rows.append((n, "normC", h, repr(norm.normC)))
    config = {"cmd": "normtable", "n": list(sizes), "h": list(bandwidths)}
    want = "# config: " + json.dumps(config, sort_keys=True) + "\n" + "n,kind,index,value\n"
    return want + "".join(",".join(str(x) for x in row) + "\n" for row in rows)


def test_normtable_bytes_match_the_row_tuple_writer(tmp_path):
    out = tmp_path / "norm.csv"
    argv = ["normtable", "--n", "3", "--n", "40", "--bandwidth", "2", "--bandwidth", "900"]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert out.read_text() == _normtable_reference((3, 40), (2.0, 900.0))


# n(n-1)/2 odd and even at each span: with 4,096-row blocks the lower half of
# n = 129 and 130 spans two blocks, and of n = 200 and 203 three
@pytest.mark.parametrize("sizes, bandwidths, block", [
    ((129, 130), (5000.0, 30000.0), cli._BLOCK),
    ((200, 203), (12000.5, 30000.0), cli._BLOCK),
    # every block edge at small n: one-row blocks, and a last block that holds only the middle row
    ((1, 2, 3, 4, 5, 6), (2.0, 9.0), 1),
    ((1, 2, 3, 4, 5, 6), (2.0, 9.0), 2),
    ((1, 2, 3, 4, 5, 6), (2.0, 9.0), 3),
    # repeated and unsorted sizes, all from one recursion
    ((40, 3, 40, 1), (2.0, 900.0), cli._BLOCK),
    # the benchmark's sizes: 124,751 rows at n = 500, from 2.1e-4 down through
    # the subnormals to underflowed zeros
    ((250, 500), (70000.0, 130000.0), cli._BLOCK),
])
def test_normtable_blocks_match_the_row_tuple_writer(tmp_path, monkeypatch, sizes, bandwidths,
                                                     block):
    monkeypatch.setattr(cli, "_BLOCK", block)
    out = tmp_path / "norm.csv"
    argv = ["normtable", *(a for n in sizes for a in ("--n", str(n))),
            *(a for h in bandwidths for a in ("--bandwidth", repr(h)))]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert out.read_text() == _normtable_reference(sizes, bandwidths)


def test_normtable_memory_is_below_45_bytes_a_row(tmp_path):
    # the values of the table, its lower half's reprs and one block of rows:
    # 34.1 bytes a row, with the block formatter as with repr (its working
    # arrays stay below that peak); every row formatted before the first is written took 63
    out = tmp_path / "norm.csv"
    tracemalloc.start()
    try:
        assert main(["normtable", "--n", "400", "--bandwidth", "80000", "--out", str(out)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(out.read_text().splitlines()) - 2
    assert rows == 400 * 399 // 2 + 2
    assert peak < 45 * rows, peak / rows


def test_normtable_upper_half_is_exact(tmp_path):
    out = tmp_path / "norm.csv"
    assert main(["normtable", "--n", "5", "--bandwidth", "2", "--out", str(out)]) == EXIT_OK
    assert "5,g,7,0.125\n" in out.read_text()  # 15/120


def test_normtable_non_positive_normalization_writes_no_file(tmp_path, capsys):
    # count/250! underflows to 0 at every distance below 7.5, and so does C(h)/n!,
    # which is positive in exact arithmetic: a numeric error
    out = tmp_path / "norm.csv"
    assert main(["normtable", "--n", "250", "--bandwidth", "7.5", "--out", str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: non-positive normalization") and err.count("\n") == 1
    assert not out.exists()


def test_normtable_underflow_at_n_500_is_a_numeric_error(tmp_path, capsys):
    # C(1000)/500! is positive but its Mahonian tail underflows; a bandwidth
    # that is not positive stays a usage error (normtable-bandwidth below)
    out = tmp_path / "norm.csv"
    assert main(["normtable", "--n", "500", "--bandwidth", "1000", "--out", str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: non-positive normalization 0.0") and err.count("\n") == 1
    assert not out.exists()


def test_normtable_above_the_size_bound_allocates_nothing(tmp_path, capsys, monkeypatch):
    def no_empty(*args, **kwargs):
        raise AssertionError("np.empty called")

    monkeypatch.setattr(combinatorics.np, "empty", no_empty)
    out = tmp_path / "norm.csv"
    n = combinatorics.MAX_MAHONIAN_N + 1
    argv = ["normtable", "--n", "3", "--n", str(n), "--bandwidth", "1e10", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: n = {n} exceeds") and err.count("\n") == 1
    assert not out.exists()


def test_usage_and_data_exit_codes(tmp_path):
    assert main(["pairs"]) == EXIT_USAGE
    missing = tmp_path / "nope.data"
    out = tmp_path / "out.csv"
    assert main(["pairs", "--data", str(missing), "--out", str(out)]) == EXIT_DATA
    assert main(["definitely-not-a-command"]) == EXIT_USAGE
    # a bad --loss is found before the data is read
    assert main(["predict", "--data", str(missing), "--out", str(out),
                 "--loss", str(tmp_path / "nope.csv")]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    *([command, "--bandwidth", bandwidth] for command in ("pairs", "rules", "graph", "predict")
      for bandwidth in ("abc", "1")),  # h = 1 is below n(n-1)/4 at the default 53 items
    ["rules", "--mode", "mi", "--subset-size", "3"],
    ["loglik", "--top-items", "3", "--n-items", "5"],
])
def test_option_values_are_checked_before_the_data_is_read(tmp_path, capsys, argv):
    # the ratings file is missing: read first, it would be a data error
    out = tmp_path / "out.csv"
    assert main([*argv, "--data", str(tmp_path / "nope.data"), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


# one case per row of main's table; a subclass exits apart from its base
@pytest.mark.parametrize("cls, code, prefix", [
    (click.UsageError, EXIT_USAGE, "usage error"),
    (ingest.FormatError, EXIT_USAGE, "usage error"),
    (combinatorics.NormalizationUnderflow, EXIT_NUMERIC, "numeric error"),
    (combinatorics.CombinatoricsError, EXIT_USAGE, "usage error"),
    (ingest.IngestError, EXIT_DATA, "data error"),
    (rules.RulesError, EXIT_NUMERIC, "numeric error"),
    (cli.DataError, EXIT_DATA, "data error"),
    (cli.NumericError, EXIT_NUMERIC, "numeric error"),
], ids=["UsageError", "FormatError", "NormalizationUnderflow", "CombinatoricsError",
        "IngestError", "RulesError", "DataError", "NumericError"])
def test_each_failure_class_exits_with_its_code_and_one_line(tmp_path, capsys, monkeypatch,
                                                             cls, code, prefix):
    def fail(*args):
        raise cls("what went wrong")

    monkeypatch.setattr(cli, "_load", fail)
    out = tmp_path / "out.csv"
    assert main(["pairs", "--data", str(tmp_path / "u.data"), "--out", str(out)]) == code
    assert capsys.readouterr().err == f"{prefix}: what went wrong\n"


def test_a_failure_in_no_row_propagates_with_its_traceback(tmp_path, monkeypatch):
    def fail(*args):
        raise RuntimeError("a bug")

    monkeypatch.setattr(cli, "_load", fail)
    with pytest.raises(RuntimeError, match="^a bug$"):
        main(["pairs", "--data", str(tmp_path / "u.data"), "--out", str(tmp_path / "out.csv")])


@pytest.mark.parametrize("argv", [
    ["pairs", "--top-items", "8", "--kernel", "exact"],  # --kernel is a loglik option
    ["rules", "--top-items", "8", "--kernel", "modified"],
    ["predict", "--top-items", "8", "--kernel", "exact"],
    ["graph", "--top-items", "8", "--kernel", "modified"],
    ["pairs", "--top-items", "8", "--bandwidth", "14"],  # n(n-1)/4 = 14
    ["pairs", "--top-items", "8", "--bandwidth", "nan"],
    ["pairs", "--top-items", "8", "--bandwidth", "inf"],
    ["normtable", "--n", "3", "--bandwidth", "-1"],
    ["normtable", "--n", "3", "--bandwidth", "nan"],
    ["pairs", "--top-items", "8", "--format", "bogus"],
    ["pairs", "--top-items", "0"],
    ["pairs", "--top-items", "8", "--top-users", "0"],
    ["rules", "--top-items", "8", "--mode", "mi", "--subset-size", "3"],
    ["rules", "--top-items", "8", "--top-t", "0"],
    ["loglik", "--top-items", "8", "--n-items", "3", "--bandwidth", "nan"],
    ["loglik", "--top-items", "8", "--n-items", "3", "--bandwidth", "0.5"],  # n(n-1)/4 = 1.5
    ["graph", "--top-items", "8", "--threshold", "0"],
    ["pairs", "--top-items", "8", "--format", "csv:,:user,item,rating:1.5-5"],
    ["pairs", "--top-items", "8", "--format", "csv:,:user,item:1-5"],
    ["pairs", "--top-items", "8", "--format", "csv:,:user,item,rating:1-5:hdr"],
    ["pairs", "--top-items", "8", "--format", "csv:,:user,item,rating:1-5:header:extra"],
    ["loglik", "--top-items", "3", "--n-items", "5"],  # more than the loaded items
    ["loglik", "--top-items", "8", "--n-items", "1"],
    ["loglik", "--top-items", "8", "--n-items", "3", "--m-grid", "0"],
    ["loglik", "--top-items", "8", "--n-items", "3", "--reps", "0"],
    ["predict", "--top-items", "8", "--test-fraction", "0"],
    ["predict", "--top-items", "8", "--test-fraction", "1.5"],
    ["predict", "--top-items", "8", "--holdout-fraction", "1.5"],
    ["predict", "--top-items", "8", "--loss", "{tmp}/missing.csv"],
    ["predict", "--top-items", "8", "--loss", "{tmp}/loss2x2.csv"],  # the scale has 5 levels
    ["predict", "--top-items", "8", "--loss", "{tmp}/loss-nan.csv"],
    ["predict", "--top-items", "8", "--loss", "{tmp}/loss-inf.csv"],
    ["predict", "--top-items", "8", "--seed", "-1"],
    ["loglik", "--top-items", "8", "--n-items", "3", "--seed", "-1"],
    ["synth", "--n", "0"],
    ["synth", "--n", "3", "--centers", "1|2|9"],
    ["synth", "--n", "3", "--centers", "1|2"],  # item 3 would never be ranked
    ["synth", "--n", "3", "--centers", "1,2|3"],  # a Mallows centre has no ties
    ["synth", "--tie-block", "0"],
    ["synth", "--rho", "0"],
    ["synth", "--rho", "1.5"],
    ["synth", "--rho", "nan"],
    ["synth", "--concentration", "nan"],
    ["synth", "--concentration", "-1"],
    ["synth", "--users", "0"],
    ["synth", "--users", "-3"],
    ["synth", "--seed", "-1"],
    ["pairs", "--top-items", "8", "--seed", "1"],  # only predict, loglik and synth draw
    ["rules", "--top-items", "8", "--seed", "1"],
    ["graph", "--top-items", "8", "--seed", "1"],
], ids=["kernel-pairs", "kernel-rules", "kernel-predict", "kernel-graph", "bandwidth", "bandwidth-nan",
        "bandwidth-inf", "normtable-bandwidth", "normtable-nan", "format", "top-items",
        "top-users", "mi-subset", "top-t", "loglik-nan", "loglik-narrow", "threshold",
        "fractional-scale", "format-no-rating", "format-flag-typo", "format-extra-field",
        "loglik-n-items-loaded", "loglik-n-items-1",
        "m-grid", "reps",
        "test-fraction-0", "test-fraction-1.5", "holdout-fraction", "loss-missing",
        "loss-shape", "loss-nan", "loss-inf", "predict-seed-negative", "loglik-seed-negative", "synth-n",
        "synth-centers-label", "synth-centers-partial",
        "synth-centers-tied", "synth-tie-block", "synth-rho-0", "synth-rho-1.5", "synth-rho-nan",
        "synth-concentration-nan", "synth-concentration-negative", "synth-users-0",
        "synth-users-negative", "synth-seed-negative",
        "seed-pairs", "seed-rules", "seed-graph"])
def test_bad_option_is_a_one_line_usage_error(ratings_file, tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    (tmp_path / "loss2x2.csv").write_text("0,1\n1,0\n")
    l1 = np.abs(np.arange(5)[:, None] - np.arange(5)).astype(float)
    l1[0, 4] = np.nan  # one NaN entry: that level's risk would never be least
    np.savetxt(tmp_path / "loss-nan.csv", l1, delimiter=",")
    np.savetxt(tmp_path / "loss-inf.csv", np.full((5, 5), np.inf), delimiter=",")
    command, *options = (arg.format(tmp=tmp_path) for arg in argv)
    no_data = command in ("normtable", "synth")
    data = [] if no_data else ["--data", str(ratings_file), "--top-users", "150"]
    code = main([command, *data, *options, "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["normtable", "--n", "3", "--bandwidth", "2"],
    ["synth", "--n", "3"],
    ["pairs", "--top-items", "8"],
    ["graph", "--top-items", "8", "--subset-size", "4", "--threshold", "1e-9"],
], ids=["normtable", "synth", "pairs", "graph"])
def test_unwritable_out_is_a_one_line_usage_error(ratings_file, tmp_path, capsys, argv):
    command, *options = argv
    no_data = command in ("normtable", "synth")
    data = [] if no_data else ["--data", str(ratings_file), "--top-users", "150"]
    (tmp_path / "file").write_text("")
    outs = [tmp_path, tmp_path / "file" / "x.csv"]  # a directory; a path through a regular file
    if command == "graph":
        (tmp_path / "g.dot").mkdir()
        outs.append(tmp_path / "g.csv")  # the CSV can be written, its .dot cannot
    for out in outs:
        assert main([command, *data, *options, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot write ") and err.count("\n") == 1


def test_pairs_complement_and_ranking(ratings_file, tmp_path):
    out = tmp_path / "pairs.csv"
    assert main(["pairs", *_common(ratings_file, out)]) == EXIT_OK
    _, rows = _read_csv(out)
    p = {(r[0], r[1]): float(r[2]) for r in rows}
    labels = sorted({r[0] for r in rows})
    assert len(labels) == 8
    for a in labels:
        for b in labels:
            if a != b:
                assert p[(a, b)] + p[(b, a)] == pytest.approx(1.0, abs=1e-12)
    _, rank_rows = _read_csv(tmp_path / "pairs.ranking.csv")
    assert [int(r[0]) for r in rank_rows] == list(range(1, 9))
    scores = [float(r[2]) for r in rank_rows]
    assert scores == sorted(scores, reverse=True)


@pytest.mark.parametrize("bandwidth", ["auto", "1580.5"])  # n(n-1)/4 = 1580: some p < 0
def test_pairs_rows_are_the_per_cell_form(ratings_file, tmp_path, bandwidth):
    out = tmp_path / "pairs.csv"
    assert main(["pairs", "--data", str(ratings_file), "--top-items", "80",
                 "--bandwidth", bandwidth, "--out", str(out)]) == EXIT_OK
    body = out.read_text().splitlines(keepends=True)[2:]
    cells = [line.rstrip("\n").split(",") for line in body]
    for line, (a, b, p) in zip(body, cells):
        assert line == f"{a},{b},{float(p)!r}\n"
    table = ingest.load_ratings(ratings_file, ingest.FORMATS["ml100k"])
    labels = [str(i) for i in ingest.select_items(table, 80)]
    assert [(a, b) for a, b, _ in cells] == [(a, b) for a in labels for b in labels]
    assert [float(p) for a, b, p in cells if a == b] == [0.5] * 80
    assert any(float(p) < 0 for *_, p in cells) == (bandwidth != "auto")


def test_pairs_on_one_item_at_the_default_bandwidth(ratings_file, tmp_path, capsys):
    out = tmp_path / "one.csv"
    assert main(["pairs", "--data", str(ratings_file), "--top-items", "1",
                 "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    _, rows = _read_csv(out)
    assert len(rows) == 1 and rows[0][0] == rows[0][1] and float(rows[0][2]) == 0.5
    _, rank_rows = _read_csv(tmp_path / "one.ranking.csv")
    assert [r[0] for r in rank_rows] == ["1"]


@pytest.mark.parametrize("argv", [
    ["pairs"],
    ["rules", "--mode", "mi", "--subset-size", "6"],
    ["rules", "--mode", "lift-top2", "--subset-size", "6"],
    ["graph", "--subset-size", "8", "--threshold", "1.0"],
], ids=["pairs", "rules-mi", "rules-lift-top2", "graph"])
def test_fbar_commands_write_the_bytes_of_a_ranking_fit(ratings_file, tmp_path, monkeypatch,
                                                        argv):
    grouped_out, rankings_out = tmp_path / "grouped" / "out.csv", tmp_path / "rankings" / "out.csv"
    assert main([*argv, *_common(ratings_file, grouped_out)]) == EXIT_OK
    fitted = []

    def fit_rankings(grouped, bandwidth):
        """cli._fit over the record's rankings as ``TiedRanking``s."""
        fitted.append(grouped)
        h = cli._bandwidth(bandwidth, grouped.universe.n, "modified")
        return h, estimator.fit(ingest.tied_rankings(grouped), h=h)

    monkeypatch.setattr(cli, "_fit", fit_rankings)
    assert main([*argv, *_common(ratings_file, rankings_out)]) == EXIT_OK
    assert len(fitted) == 1 and isinstance(fitted[0], estimator.GroupedRankings)
    written = sorted(p.name for p in grouped_out.parent.iterdir())
    assert written == sorted(p.name for p in rankings_out.parent.iterdir())
    for name in written:
        assert (grouped_out.parent / name).read_bytes() == (rankings_out.parent / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["pairs"],
    ["graph", "--threshold", "1.0"],
], ids=["pairs", "graph"])
def test_fbar_commands_do_not_depend_on_the_order_of_the_users(ratings_file, tmp_path, argv):
    # user u renamed 10**6 - u reverses the users' order; with every user
    # selected the rankings are the same, so every line after the config is
    flipped = tmp_path / "flipped.data"
    lines = ratings_file.read_text().splitlines()
    flipped.write_text("".join(f"{10**6 - int(user)}\t{rest}\n"
                               for user, rest in (line.split("\t", 1) for line in lines)))
    outs = []
    for data in (ratings_file, flipped):
        outs.append(tmp_path / data.stem / "out.csv")
        assert main([*argv, "--data", str(data), "--top-users", "5000",
                     "--out", str(outs[-1])]) == EXIT_OK
    written = sorted(p.name for p in outs[0].parent.iterdir())
    assert written == sorted(p.name for p in outs[1].parent.iterdir())
    for name in written:
        a, b = (out.parent.joinpath(name).read_text() for out in outs)
        if name.endswith(".csv"):
            assert a.startswith("# config") and b.startswith("# config")
            a, b = a.split("\n", 1)[1], b.split("\n", 1)[1]
        assert a == b, name


def test_pairs_deterministic(ratings_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["pairs", *_common(ratings_file, a)]) == EXIT_OK
    assert main(["pairs", *_common(ratings_file, b)]) == EXIT_OK
    assert a.read_text() == b.read_text().replace(str(b), str(a))


def test_rules_deterministic(ratings_file, tmp_path):
    a, b = tmp_path / "r1.csv", tmp_path / "r2.csv"
    args = ["--subset-size", "6", "--top-t", "5"]
    assert main(["rules", *_common(ratings_file, a), *args]) == EXIT_OK
    assert main(["rules", *_common(ratings_file, b), *args]) == EXIT_OK
    assert a.read_text() == b.read_text().replace(str(b), str(a))
    _, rows = _read_csv(a)
    assert len(rows) == 5
    scores = [float(r[2]) for r in rows]
    assert scores == sorted(scores, reverse=True)


def test_graph_without_a_lift_denominator_exits_numeric(ratings_file, tmp_path, capsys):
    # h just above n(n-1)/4 = 14: a signed kernel leaves a lift marginal at zero
    out = tmp_path / "graph.csv"
    args = ["graph", "--data", str(ratings_file), "--out", str(out), "--top-items", "8",
            "--top-users", "300", "--subset-size", "8", "--bandwidth", "14.1",
            "--threshold", "1e-9"]
    for strict in ([], ["--strict"]):
        assert main([*args, *strict]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "numeric error: zero marginal in lift computation\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["lift-top2", "lift-topbottom"])
def test_lift_rules_without_a_lift_denominator_exit_numeric(ratings_file, tmp_path, capsys, mode):
    # h just above n(n-1)/4 = 14: a signed kernel leaves a lift marginal at zero
    out = tmp_path / "lift.csv"
    args = ["rules", "--data", str(ratings_file), "--out", str(out), "--top-items", "8",
            "--top-users", "300", "--bandwidth", "14.1", "--mode", mode]
    for extra in (["--subset-size", "4"], ["--subset-size", "6"], ["--subset-size", "8", "--strict"]):
        assert main([*args, *extra]) == EXIT_NUMERIC
        assert capsys.readouterr().err == "numeric error: zero marginal in lift computation\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["rules", "--mode", "lift-top2"],
    ["rules", "--mode", "lift-topbottom"],
    ["graph", "--threshold", "1e-9"],
], ids=["lift-top2", "lift-topbottom", "graph"])
def test_strict_lift_exits_numeric_on_negative_event_probabilities(ratings_file, tmp_path,
                                                                   capsys, command):
    # h = 16 > n(n-1)/4 = 14: some lift events are negative, but no marginal is
    plain, strict = tmp_path / "plain.csv", tmp_path / "strict.csv"
    args = [*command, "--data", str(ratings_file), "--top-items", "8", "--top-users", "300",
            "--subset-size", "8"]
    assert main([*args, "--bandwidth", "16", "--out", str(plain)]) == EXIT_OK
    capsys.readouterr()
    assert main([*args, "--bandwidth", "16", "--strict", "--out", str(strict)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert re.fullmatch(r"numeric error: [1-9]\d* negative event probabilities\n", err)
    assert strict.read_text() == plain.read_text()
    if command[0] == "graph":
        assert strict.with_suffix(".dot").read_text() == plain.with_suffix(".dot").read_text()
    default = tmp_path / "default.csv"
    assert main([*args, "--strict", "--out", str(default)]) == EXIT_OK


def test_strict_rules_exit_numeric_on_negative_mi_cells(ratings_file, tmp_path, capsys):
    # h just above n(n-1)/4 = 14: the signed kernel goes negative far from the data
    plain, strict = tmp_path / "plain.csv", tmp_path / "strict.csv"
    args = ["--subset-size", "8", "--bandwidth", "14.5"]
    assert main(["rules", *_common(ratings_file, plain), *args]) == EXIT_OK
    capsys.readouterr()
    assert main(["rules", *_common(ratings_file, strict), *args, "--strict"]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert re.fullmatch(r"numeric error: [1-9]\d* negative MI joint-table cells\n", err)
    assert strict.read_text() == plain.read_text().replace(str(plain), str(strict))
    default = tmp_path / "default.csv"
    assert main(["rules", *_common(ratings_file, default), "--subset-size", "8",
                 "--strict"]) == EXIT_OK  # h = n(n-1)/2 keeps every weight >= 0


def test_strict_pairs_exits_numeric_on_negative_pair_probabilities(ratings_file, tmp_path,
                                                                   capsys):
    # h just above n(n-1)/4 = 14: the signed kernel goes negative far from the data
    plain, strict = tmp_path / "plain.csv", tmp_path / "strict.csv"
    args = ["pairs", "--data", str(ratings_file), "--top-items", "8", "--top-users", "300"]
    assert main([*args, "--bandwidth", "14.1", "--out", str(plain)]) == EXIT_OK
    capsys.readouterr()
    assert main([*args, "--bandwidth", "14.1", "--strict", "--out", str(strict)]) == EXIT_NUMERIC
    negatives = sum(float(row[2]) < 0 for row in _read_csv(plain)[1])
    assert negatives > 0
    assert capsys.readouterr().err == f"numeric error: {negatives} negative pair probabilities\n"
    assert strict.read_text() == plain.read_text()
    default = tmp_path / "default.csv"
    assert main([*args, "--strict", "--out", str(default)]) == EXIT_OK


def test_strict_loglik_exits_numeric_on_negative_kernel_event_probabilities(ratings_file,
                                                                             tmp_path, capsys):
    # h = 1.6 just above n(n-1)/4 = 1.5: the signed kernel gives some strict orders p < 0
    plain, strict = tmp_path / "plain.csv", tmp_path / "strict.csv"
    args = ["loglik", "--data", str(ratings_file), "--top-items", "8", "--top-users", "300",
            "--n-items", "3", "--m-grid", "20", "--reps", "2"]
    assert main([*args, "--bandwidth", "1.6", "--out", str(plain)]) == EXIT_OK
    capsys.readouterr()
    assert main([*args, "--bandwidth", "1.6", "--strict", "--out", str(strict)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert re.fullmatch(r"numeric error: [1-9]\d* negative kernel event probabilities\n", err)
    assert strict.read_text() == plain.read_text()
    for extra in ([], ["--bandwidth", "1.6", "--kernel", "exact"]):  # weights >= 0
        default = tmp_path / "default.csv"
        assert main([*args, *extra, "--strict", "--out", str(default)]) == EXIT_OK


def test_only_the_commands_that_draw_take_a_seed(ratings_file, tmp_path):
    data = ["--data", str(ratings_file), "--top-items", "8", "--top-users", "300"]
    config = lambda out: json.loads(out.read_text().splitlines()[0][len("# config: "):])
    for command in (["predict"], ["loglik", "--n-items", "3", "--m-grid", "20", "--reps", "2"]):
        out = tmp_path / f"{command[0]}.csv"
        assert main([*command, *data, "--seed", "1", "--out", str(out)]) == EXIT_OK
        assert config(out)["seed"] == 1
    for command in ("pairs", "rules", "graph"):  # --seed itself is a usage error here
        out = tmp_path / f"{command}.csv"
        assert main([command, *data, "--out", str(out)]) == EXIT_OK
        assert "seed" not in config(out)


def test_pairs_opens_the_ratings_file_once(ratings_file, tmp_path, monkeypatch):
    opens, real_open = [], builtins.open

    def counting_open(file, *args, **kwargs):
        opens.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["pairs", *_common(ratings_file, tmp_path / "pairs.csv")]) == EXIT_OK
    assert opens.count(str(ratings_file)) == 1


def test_every_ratings_command_records_its_selection(ratings_file, tmp_path):
    config = lambda out: json.loads(out.read_text().splitlines()[0][len("# config: "):])
    want = {"data": str(ratings_file), "sha256": hashlib.sha256(ratings_file.read_bytes()).hexdigest(), "format": "ml100k",
            "top_items": 8, "top_users": 150}
    loglik = ["loglik", "--n-items", "3", "--m-grid", "20", "--reps", "1"]
    for command in (["pairs"], ["predict"], ["rules"], ["graph"], loglik):
        out = tmp_path / f"{command[0]}.csv"
        assert main([*command, *_common(ratings_file, out)]) == EXIT_OK
        assert {key: config(out)[key] for key in want} == want
    # two runs apart only in --top-users write different rows under different config lines
    runs = []
    for top_users in (150, 400):
        out = tmp_path / f"loglik-{top_users}.csv"
        argv = ["--data", str(ratings_file), "--top-items", "8", "--top-users", str(top_users)]
        assert main([*loglik, *argv, "--out", str(out)]) == EXIT_OK
        runs.append(out.read_text().splitlines())
    assert runs[0][2:] != runs[1][2:]
    assert runs[0][0] != runs[1][0]


def test_rules_lift_mode(ratings_file, tmp_path):
    out = tmp_path / "lift.csv"
    args = ["--mode", "lift-top2", "--subset-size", "5", "--top-t", "4"]
    assert main(["rules", *_common(ratings_file, out), *args]) == EXIT_OK
    _, rows = _read_csv(out)
    assert len(rows) == 4
    assert all("<" not in r[0] for r in rows)  # single-item antecedents


def test_predict(ratings_file, tmp_path):
    out = tmp_path / "pred.csv"
    args = ["--loss", "l1", "--top-users", "80"]
    code = main(["predict", "--data", str(ratings_file), "--out", str(out),
                 "--top-items", "6", *args])
    assert code == EXIT_OK
    header, rows = _read_csv(out)
    assert header == ["train_users", "test_users", "held_out_items", "mean_loss"]
    assert len(rows) == 1
    assert float(rows[0][3]) >= 0.0


@pytest.mark.parametrize("argv, code, row", [
    ([], EXIT_OK, "1400,600,6395,1.1324472243940578"),
    (["--loss", "l0"], EXIT_OK, "1400,600,6395,0.781704456606724"),
    (["--top-items", "8", "--top-users", "300", "--bandwidth", "14.1"], EXIT_OK,
     "210,90,234,0.9401709401709402"),
    (["--top-items", "8", "--top-users", "300", "--bandwidth", "14.1", "--strict"], EXIT_NUMERIC,
     "210,90,234,0.9401709401709402"),
], ids=["defaults", "l0", "narrow-h", "narrow-h-strict"])
def test_predict_rows_are_pinned(ratings_file, tmp_path, argv, code, row):
    out = tmp_path / "pred.csv"
    assert main(["predict", "--data", str(ratings_file), *argv, "--out", str(out)]) == code
    assert out.read_text().splitlines()[2:] == [row]


def test_strict_predict_exit_numeric_on_negative_level_weights(ratings_file, tmp_path, capsys):
    # h just above n(n-1)/4 = 14: the signed kernel goes negative far from the data
    plain, strict = tmp_path / "plain.csv", tmp_path / "strict.csv"
    args = ["--data", str(ratings_file), "--top-items", "8", "--top-users", "300"]
    assert main(["predict", *args, "--bandwidth", "14.1", "--out", str(plain)]) == EXIT_OK
    capsys.readouterr()
    assert main(["predict", *args, "--bandwidth", "14.1", "--strict",
                 "--out", str(strict)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert re.fullmatch(r"numeric error: [1-9]\d* negative level weights\n", err)
    assert strict.read_text() == plain.read_text()
    default = tmp_path / "default.csv"
    assert main(["predict", *args, "--strict", "--out", str(default)]) == EXIT_OK


@pytest.mark.parametrize("top_users", [1, 2])
def test_predict_without_training_users_is_a_data_error(ratings_file, tmp_path, capsys,
                                                         top_users):
    # round(m * 0.9) of m = 1 or 2 users puts every user in the test split
    out = tmp_path / "pred.csv"
    assert main(["predict", "--data", str(ratings_file), "--top-items", "8",
                 "--top-users", str(top_users), "--test-fraction", "0.9",
                 "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: no training users: --test-fraction 0.9 leaves none of {top_users}\n")
    assert not out.exists()


def test_graph(ratings_file, tmp_path):
    out = tmp_path / "graph.csv"
    args = ["--threshold", "1e-9", "--subset-size", "4"]
    assert main(["graph", *_common(ratings_file, out), *args]) == EXIT_OK
    _, rows = _read_csv(out)
    dot = (tmp_path / "graph.dot").read_text()
    assert dot.startswith("graph affinity {")
    for a, b, w in rows:
        assert f"n{a}" not in ("",)  # labels present in dot via node lines
        assert float(w) > 0


def test_loglik(ratings_file, tmp_path, capsys):
    out = tmp_path / "ll.csv"
    args = ["--n-items", "3", "--m-grid", "60", "--reps", "2"]
    assert main(["loglik", *_common(ratings_file, out), *args]) == EXIT_OK
    _, rows = _read_csv(out)
    names = {r[2] for r in rows}
    assert names == {"kernel", "empirical", "mallows"}
    for r in rows:
        assert float(r[3]) <= 0.0  # mean log-likelihoods
    assert capsys.readouterr().err == ""  # no cell dropped, so nothing to report


_LOGLIK_DEFAULT_ROWS = [
    "3,100,kernel,-1.677994711482287,0.007658540784651037",
    "3,100,empirical,-7.683002873166427,2.4337634065872673",
    "3,100,mallows,-1.532696447012313,0.0993945123346388",
    "3,500,kernel,-1.6645227907324887,0.006501915071054035",
    "3,500,empirical,-4.441046057672227,0.2712408694247989",
    "3,500,mallows,-1.0840838201007317,0.07071666543722821",
    "3,1000,kernel,-1.6759431219381473,0.002614315426496173",
    "3,1000,empirical,-4.5298634540409735,0.43197906803420766",
    "3,1000,mallows,-1.3007920890329383,0.02967666022001824",
    "4,100,kernel,-3.104546778837208,0.012912837999501596",
    "4,100,empirical,-16.11809565095832,8.140867667575733",
    "4,100,mallows,0.0,0.0",
    "4,500,kernel,-3.0828157408036003,0.009245254298743644",
    "4,500,empirical,-16.92281460717537,5.047896957790199",
    "4,500,mallows,-10.56374357793512,6.998071636583288",
    "4,1000,kernel,-3.0774074590163587,0.00686666884030318",
    "4,1000,empirical,-12.101096926611767,2.4992381667298864",
    "4,1000,mallows,-2.6454676841453475,0.24860204771946523",
]


@pytest.mark.parametrize("argv, rows", [
    ([], _LOGLIK_DEFAULT_ROWS),  # no n = 5 cell: too few rankings rank all 5
    (["--top-items", "8", "--n-items", "3", "--m-grid", "60", "--reps", "2", "--kernel", "exact"],
     ["3,60,kernel,-1.713819015219436,0.014337650528431473",
      "3,60,empirical,-6.413979688479786,0.20898622764692662",
      "3,60,mallows,-1.7365984057470216,0.1216511595114517"]),
], ids=["defaults", "exact"])
def test_loglik_rows_are_pinned(ratings_file, tmp_path, argv, rows):
    out = tmp_path / "ll.csv"
    assert main(["loglik", "--data", str(ratings_file), *argv, "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[2:] == rows


def test_loglik_names_the_cells_it_drops(ratings_file, tmp_path, capsys):
    out = tmp_path / "ll.csv"
    args = ["--data", str(ratings_file), "--out", str(out), "--top-items", "8",
            "--top-users", "2000", "--n-items", "3", "--n-items", "4", "--n-items", "5",
            "--m-grid", "100", "--m-grid", "400", "--reps", "3"]
    assert main(["loglik", *args]) == EXIT_OK
    _, rows = _read_csv(out)
    cells = {(r[0], r[1]) for r in rows}
    assert ("5", "100") not in cells and ("5", "400") not in cells  # too few rankings rank all 5
    assert ("4", "100") in cells and ("4", "100", "mallows") not in {tuple(r[:3]) for r in rows}
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "2 of 6 (n, m) cells dropped" in err and "1 without a mallows row" in err


@pytest.mark.parametrize("n", [3, 4, 5])
def test_loglik_kernel_row_is_the_enumerated_modified_kernel(n):
    u = ItemUniverse(n)
    cfg = oracle.MixtureConfig(u, (Permutation(tuple(range(n))),), (1.0,), (1.0,), rho=0.7)
    rankings = oracle.synthesize(cfg, 400, seed=n)
    m, seed = 150, 11
    # _loglik_once's split: every synthesized ranking ranks an item, so none is dropped
    shuffled = [rankings[i] for i in np.random.default_rng(seed).permutation(len(rankings))]
    train, test = shuffled[:m], shuffled[m:m + 200]
    strict = lambda r: r.k == n and all(len(g) == 1 for g in r.groups)
    perm = lambda r: Permutation(tuple(x for (x,) in r.groups))  # a strict order's one permutation
    events = [r for r in test if strict(r)]
    pt = oracle.perm_table(n)
    for h in (n * (n - 1) / 4 + 0.5, n * (n - 1) / 2):  # signed, and the non-negative default
        dist = oracle.brute_full_distribution(train, h, "modified")
        want = estimator.heldout_loglikelihood(
            [dist[pt.index[perm(ev).order]] for ev in events]
        ).mean
        got = _loglik_once(estimator._grouped(rankings), m, seed, h, "modified")
        assert got["kernel"] == pytest.approx(want, rel=1e-12, abs=0)
    # the baselines, one event at a time over the TiedRankings
    empirical = [estimator.empirical_prob(train, ev) for ev in events]
    assert got["empirical"] == estimator.heldout_loglikelihood(empirical).mean
    mallows = estimator.mallows_fit([perm(r) for r in train if strict(r)])
    log_probs = [mallows.log_prob(perm(ev)) for ev in events]
    assert got["mallows"] == estimator.heldout_loglikelihood([math.exp(lp) for lp in log_probs]).mean
    assert got["mallows"] == pytest.approx(math.fsum(log_probs) / len(log_probs), rel=1e-12)


def test_predict_and_loglik_build_no_tied_ranking(ratings_file, tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a TiedRanking was built")

    monkeypatch.setattr(TiedRanking, "__post_init__", refuse)
    args = ["--data", str(ratings_file), "--top-items", "8", "--top-users", "300"]
    assert main(["predict", *args, "--out", str(tmp_path / "pred.csv")]) == EXIT_OK
    assert main(["loglik", *args, "--n-items", "3", "--n-items", "4", "--m-grid", "60",
                 "--reps", "2", "--out", str(tmp_path / "ll.csv")]) == EXIT_OK


def test_loglik_rejects_large_n():
    assert main(["loglik", "--data", "x", "--out", "y", "--n-items", "7"]) == EXIT_USAGE


@pytest.mark.filterwarnings("error")
def test_synth_at_a_huge_concentration_warns_nothing(tmp_path):
    # -concentration * v overflows to -inf, the intended weight of 0
    out = tmp_path / "synth.tsv"
    assert main(["synth", "--n", "6", "--users", "30", "--concentration", "1e308",
                 "--out", str(out)]) == EXIT_OK


def test_synth_roundtrip(tmp_path):
    out = tmp_path / "synth.tsv"
    args = ["synth", "--n", "4", "--users", "30", "--centers", "4|3|2|1",
            "--concentration", "2.0", "--rho", "0.8", "--tie-block", "2",
            "--seed", "7", "--out", str(out)]
    assert main(args) == EXIT_OK
    again = tmp_path / "synth2.tsv"
    assert main([*args[:-1], str(again)]) == EXIT_OK
    assert out.read_text() == again.read_text()
    lines = out.read_text().splitlines()
    assert len(lines) == 31
    assert all("\t" in line for line in lines[1:])
