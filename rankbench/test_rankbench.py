"""Tests of the benchmark itself: tiny-size runs of every workload, the
output checker rejecting corrupted output, and tracing of a function the
program no longer defines."""

import math

import pytest

import run

run.import_program()

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from workloads import ClosedForms, Desk, Ml100kPairs, Step  # noqa: E402

TINY_DESK = gen.DeskShape(users=150, items=12, min_rated=4, max_rated=10, duplicates=3)
TINY_ML = gen.Ml100kShape(users=60, items=40, ratings=1500, min_rated=5, max_rated=39, malformed=3)


def tiny(name, work, seed=3):
    if name == "desk":
        return Desk(work, seed, TINY_DESK, top_items=8, predict_users=60, top_users=100,
                    mi_items=6, subset_size=6, top_t=5)
    if name == "ml100k-pairs":
        return Ml100kPairs(work, seed, TINY_ML, top_items=10, top_users=60)
    return ClosedForms(work, seed, sizes=(8, 12), batch=gen.BatchShape(n=30, k=6, pairs=5))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_is_correct(name, tmp_path):
    result = run.measure(tiny(name, tmp_path), seconds=0, trace=False, reference=None)
    assert result["failures"] == []
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    line = run.contract_line(result)
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_tiny_traced_run_splits_wall_time(tmp_path):
    result = run.measure(tiny("desk", tmp_path), seconds=0, trace=True, reference=None)
    assert result["correct"]
    layers = run.contract_line(result)["metrics"]
    assert set(layers) == set(spans.PER_LAYER)
    wall = layers["trace.wall_s"]["value"]
    self_total = sum(layers[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
    assert self_total == pytest.approx(wall - layers["trace.unattributed_s"]["value"])
    assert layers["estimator.chain_prob.calls"]["value"] > 0
    assert layers["ingest.duplicates"]["value"] == TINY_DESK.duplicates
    assert result["absent"] == []


def test_checker_rejects_flipped_pair_probability(tmp_path):
    workload = tiny("ml100k-pairs", tmp_path)
    workload.prepare()
    ledger = run.Ledger()
    run.check_pass(workload, run.execute_pass(workload), ledger, None)
    assert ledger.failed == 0

    out = tmp_path / "out" / "pairs.csv"
    lines = out.read_text().splitlines()
    item_i, item_j, p = lines[3].split(",")  # the first off-diagonal cell
    assert item_i != item_j and not math.isclose(float(p), 0.5)
    lines[3] = f"{item_i},{item_j},{1.0 - float(p)!r}"
    out.write_text("\n".join(lines) + "\n")
    check = checks.check_pairs(out, workload.model, workload.check_rng())
    assert any("p_ij + p_ji" in f for f in check.failures)
    assert check.ops_failed() == 1


def test_later_pass_with_other_output_is_checked_in_full(tmp_path):
    workload = tiny("ml100k-pairs", tmp_path)
    workload.prepare()
    first = run.execute_pass(workload)
    ledger = run.Ledger()
    run.check_pass(workload, first, ledger, None)
    again = run.execute_pass(workload)
    run.check_pass(workload, again, ledger, None, first)
    assert (ledger.attempted, ledger.failed) == (2, 0)

    out = tmp_path / "out" / "pairs.csv"
    lines = out.read_text().splitlines()
    item_i, item_j, p = lines[3].split(",")
    lines[3] = f"{item_i},{item_j},{1.0 - float(p)!r}"
    out.write_text("\n".join(lines) + "\n")
    run.check_pass(workload, again, ledger, None, first)
    assert (ledger.attempted, ledger.failed) == (3, 1)
    assert any("p_ij + p_ji" in m for m in ledger.messages)


def test_reference_mismatch_and_raising_step_count_as_failed(tmp_path):
    workload = tiny("desk", tmp_path)
    workload.prepare()
    p = run.execute_pass(workload)
    ledger = run.Ledger()
    run.check_pass(workload, p, ledger, None)
    assert (ledger.attempted, ledger.failed) == (5, 0)
    row = list(p.digests["predict"]["row"])
    row[3] *= 1 + 1e-8
    ledger = run.Ledger()
    run.check_pass(workload, p, ledger, {"predict": {"row": row}})
    assert (ledger.attempted, ledger.failed) == (5, 1)

    def boom():
        raise RuntimeError("boom")

    workload.steps = [Step("boom", boom, lambda _: checks.Check())]
    ledger = run.Ledger()
    run.check_pass(workload, run.execute_pass(workload), ledger, None)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_deleted_function_is_reported_absent(monkeypatch):
    from rankdens.estimator import KernelModel

    monkeypatch.delattr(KernelModel, "subset_stats")
    tracer = spans.Tracer()
    installation = spans.Installation(tracer)
    installation.remove()
    assert installation.absent == ["estimator.subset_stats"]
    metrics = spans.layer_metrics(tracer, wall=1.0)
    assert metrics["estimator.subset_stats.calls"] == 0
    assert set(metrics) == set(spans.PER_LAYER) - {"trace.overhead_frac"}
