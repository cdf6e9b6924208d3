"""Benchmark of rankdens: three seeded workloads, end to end and per layer.

    python3 rankbench/run.py --workload desk --seed 0 --seconds 36 --trace 0
    python3 rankbench/run.py --workload all --seed 0 --seconds 36 --trace 1

One workload runs in this process: it writes its inputs from the seed,
then repeats passes of the workload until --seconds have gone, timing
the set-up before each pass and a fixed reference loop before each step
of it, checks the outputs and reports medians over the passes and the
set-ups, each time scaled by the reference loop's speed in the run (see
REFERENCE_LOOP_S). With --trace 1, untraced and traced passes alternate
and the per-layer metrics come from the traced pass of median length.
``--workload all`` runs each workload in a fresh process and prints every
metric of each. The last line of the output is one JSON object; a result
file with the environment and per-pass detail goes to rankbench/work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
WORKLOAD_NAMES = ("desk", "ml100k-pairs", "closed-forms")
DEFAULT_SEED = 0  # the seed the committed reference values belong to
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up time taken before every pass, so that the set-up samples span
# the whole run rather than one window of it
SETUP_MIN_SECONDS = 0.25
# The median time of reference_loop() on the 2-core Xeon VM the benchmark
# was built on. That machine runs all code up to 1.6x slower in phases of
# a minute or more, set by other tenants; the loop, timed before every
# step of a pass, slows with it, so times are scaled to this speed.
REFERENCE_LOOP_S = 0.020

END_TO_END = {"wall_s": "s", "setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
# printed and kept in the result file; ops_per_s repeats the primary one
NAMED = {
    "predictions_per_s": "1/s", "pair_probs_per_s": "1/s", "quadruples_per_s": "1/s",
    "normtable_s": "s", "expected_kendall_per_s": "1/s", "failed_frac": "ratio",
    "wall_raw_s": "s", "setup_raw_s": "s", "speed": "ratio",
}


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: the machine's current speed."""
    start = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return perf_counter() - start


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return nproc


def import_program() -> None:
    """Import rankdens from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "rankdens" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no rankdens sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import rankdens

    if Path(rankdens.__file__).resolve().parent != (src / "rankdens").resolve():
        raise SystemExit(f"run.py: imported rankdens from {rankdens.__file__}")


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment(nproc: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": nproc, "cpu": cpu, "python": platform.python_version(), **versions,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "commit": git_commit(), "platform": platform.platform(),
    }


@dataclass
class Ledger:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, label: str, ops: int, failed: int, messages=()) -> None:
        self.attempted += ops
        self.failed += min(failed, ops)
        room = max(0, 20 - len(self.messages))
        self.messages.extend(f"{label}: {m}" for m in list(messages)[:room])


@dataclass
class Pass:
    wall: float
    times: dict[str, float]
    outcomes: dict[str, tuple]
    counts: dict[str, int] = field(default_factory=dict)
    digests: dict[str, dict] = field(default_factory=dict)
    prints: dict[str, str] = field(default_factory=dict)  # step -> fingerprint of a passed output


def execute_pass(workload, probe=None) -> Pass:
    """The timed part of a pass: every step, failures caught and kept.
    ``probe`` runs untimed before each step."""
    times, outcomes = {}, {}
    for step in workload.steps:
        if probe is not None:
            probe()
        t0 = perf_counter()
        try:
            outcomes[step.name] = (step.execute(), None)
        except Exception as exc:  # a failing step is counted, the run goes on
            outcomes[step.name] = (None, f"{type(exc).__name__}: {exc}")
        times[step.name] = perf_counter() - t0
    return Pass(sum(times.values()), times, outcomes)


def fingerprint(value) -> str:
    """A step's output reduced for comparing passes: the bytes of every
    file a CLI step wrote (``pairs.csv`` and ``pairs.ranking.csv``), or
    the returned values."""
    if isinstance(value, Path):
        digest = hashlib.sha256()
        for path in sorted(value.parent.glob(value.stem + ".*")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return digest.hexdigest()
    return repr(value)


def check_pass(workload, p: Pass, ledger: Ledger, reference: dict | None,
               first: Pass | None = None) -> None:
    """Check every step of a pass. An output identical to one that passed
    its full check in ``first`` passes with it; any other output gets the
    full check, and the reference comparison when there is a reference."""
    from checks import mismatches

    for step in workload.steps:
        value, error = p.outcomes[step.name]
        if error is not None:
            ledger.record(step.name, step.ops, step.ops, [error])
            continue
        try:
            print_ = fingerprint(value)
            if first is not None and first.prints.get(step.name) == print_:
                ledger.record(step.name, step.ops, 0)
                p.counts[step.name] = first.counts[step.name]
                p.digests[step.name] = first.digests[step.name]
                continue
            c = step.check(value)
        except Exception as exc:  # a checker that cannot read the output fails it
            ledger.record(step.name, step.ops, step.ops, [f"check raised {exc!r}"])
            continue
        if reference is not None and step.name in reference:
            wrong = mismatches(c.digest, reference[step.name], "reference")
            c.failures += wrong
            if wrong and c.failed_ops is not None:
                c.failed_ops = max(c.failed_ops, len(wrong))
        ledger.record(step.name, step.ops, c.ops_failed(), c.failures)
        p.counts[step.name] = c.count
        p.digests[step.name] = c.digest
        if not c.failures:
            p.prints[step.name] = print_


def attempt(ledger: Ledger, label: str, fn):
    """Run one operation outside the passes; an exception counts as failed."""
    try:
        result = fn()
    except Exception as exc:  # counted; the run goes on
        ledger.record(label, 1, 1, [f"{type(exc).__name__}: {exc}"])
        return None
    ledger.record(label, 1, 0)
    return result


def time_setup(workload, ledger: Ledger) -> list[float]:
    times = []
    while not times or sum(times) < SETUP_MIN_SECONDS:
        t0 = perf_counter()
        ok = attempt(ledger, "setup", workload.setup) is not None
        times.append(perf_counter() - t0)
        if not ok:
            break
    return times


def pass_metrics(workload, passes: list[Pass], speed: float) -> dict[str, float]:
    """Pass figures at the reference speed: the median pass time, and each
    rate from the median time of its step, times ``speed``, the reference
    loop's time over its median time in this run."""
    wall = statistics.median(p.wall for p in passes)
    out = {"wall_s": wall * speed, "wall_raw_s": wall, "speed": speed}
    for metric, step in workload.rates.items():
        timed = [p for p in passes if step in p.counts]
        out[metric] = (timed[0].counts[step] / statistics.median(p.times[step] for p in timed)
                       / speed if timed else 0.0)
    for metric, step in workload.durations.items():
        out[metric] = statistics.median(p.times[step] for p in passes) * speed
    out["ops_per_s"] = out[workload.primary]
    return out


def measure(workload, seconds: float, trace: bool, reference: dict | None) -> dict:
    """Set-up, passes and checks of one workload; the result record.

    Before every untraced pass the set-up is timed, so that its samples
    span the run. The first pass is checked in full; a later pass whose
    outputs are the same passes with it, any other is checked in full.
    With tracing, untraced and traced passes alternate, at least two of
    each: the first pass meets a cold allocator."""
    ledger = Ledger()
    setup_times: list[float] = []
    loop_times: list[float] = []
    plain: list[Pass] = []
    traced = []
    peak_rss_mb = 0.0
    start = perf_counter()
    while perf_counter() - start < seconds or len(plain) < 1 + trace:
        if not trace:
            setup_times.extend(time_setup(workload, ledger))
        p = execute_pass(workload, lambda: loop_times.append(reference_loop()))
        if not plain:
            # the program's high-water mark, before the harness builds
            # the models its checks compare against
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            attempt(ledger, "prepare", workload.prepare)
        check_pass(workload, p, ledger, reference, plain[0] if plain else None)
        plain.append(p)
        if trace:
            traced.append(traced_pass(workload, ledger, reference, plain[0]))

    for label, c in workload.final_checks():
        ledger.record(label, c.count, c.ops_failed(), c.failures)

    speed = REFERENCE_LOOP_S / statistics.median(loop_times)
    metrics = pass_metrics(workload, plain, speed)
    metrics["setup_raw_s"] = statistics.median(setup_times) if setup_times else 0.0
    metrics["setup_s"] = metrics["setup_raw_s"] * speed
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["failed_frac"] = ledger.failed / max(ledger.attempted, 1)
    result = {
        "workload": workload.name, "seed": workload.seed, "seconds": seconds,
        "trace": int(trace), "correct": ledger.failed == 0,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": ledger.messages, "metrics": metrics,
        "setup_times": setup_times, "loop_times": loop_times,
        "passes": [{"wall": p.wall, "steps": p.times, "counts": p.counts} for p in plain],
        "digests": plain[0].digests,
    }
    if trace:
        from spans import LAYERS

        ordered = sorted(traced, key=lambda t: t[0].wall)
        _, layers, absent = ordered[(len(ordered) - 1) // 2]
        layers["trace.overhead_frac"] = (statistics.median(t[0].wall for t in traced)
                                         / metrics["wall_raw_s"] - 1.0)
        result["per_layer"] = layers
        result["absent"] = absent
        result["traced_passes"] = [{"wall": t[0].wall, "steps": t[0].times} for t in traced]
        result["dominant_layer"] = max(LAYERS, key=lambda layer: layers[f"{layer}.self_s"])
    return result


def traced_pass(workload, ledger: Ledger, reference: dict | None, first: Pass):
    from spans import Installation, Tracer, layer_metrics

    tracer = Tracer()
    installation = Installation(tracer)
    try:
        p = execute_pass(workload)
    finally:
        installation.remove()
    check_pass(workload, p, ledger, reference, first)
    return p, layer_metrics(tracer, p.wall), installation.absent


def contract_line(result: dict) -> dict:
    """The last output line: the end-to-end metrics, or with tracing the
    per-layer ones."""
    if result["trace"]:
        from spans import PER_LAYER

        metrics = {k: {"value": result["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": result["metrics"][k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"passes {len(result['passes'])}  trace {result['trace']}")
    for name, unit in {**END_TO_END, **NAMED}.items():
        if name in result["metrics"]:
            print(f"  {name:<46} {result['metrics'][name]:>16.6f} {unit}")
    if result["trace"]:
        from spans import LAYERS, PER_LAYER

        print("  per layer (traced pass of median length):")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<46} {result['per_layer'][name]:>16.6f} {unit}")
        wall = result["per_layer"]["trace.wall_s"]
        total = sum(result["per_layer"][f"{layer}.self_s"] for layer in LAYERS)
        print(f"  layer self times sum to {total:.4f} s of a {wall:.4f} s traced pass; "
              f"dominant layer: {result['dominant_layer']}")
        if result["absent"]:
            print(f"  absent (reported as 0): {', '.join(result['absent'])}")
    for message in result["failures"]:
        print(f"  FAILED {message}")


def run_one(args) -> int:
    nproc = cap_blas_threads()
    import_program()
    from workloads import WORKLOADS

    reference = None
    if args.seed == DEFAULT_SEED:
        ref_path = HERE / "reference.json"
        if ref_path.is_file():
            reference = json.loads(ref_path.read_text()).get(args.workload)
    work = WORK / f"{args.workload}-seed{args.seed}"
    workload = WORKLOADS[args.workload](work, args.seed)
    result = measure(workload, args.seconds, bool(args.trace), reference)
    result["reference_checked"] = reference is not None
    result["environment"] = environment(nproc)
    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    if result["correct"]:  # keep the inputs and outputs of a failed run only
        shutil.rmtree(work)
    report(result)
    print(json.dumps(contract_line(result)))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh process, then every metric of each."""
    if not (ROOT / "src" / "rankdens" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no rankdens sources under {ROOT / 'src'}")
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out.unlink(missing_ok=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if not out.is_file():  # a run with wrong outputs still writes its result
            raise SystemExit(f"run.py: {name} exited with {proc.returncode}")
        results[name] = json.loads(out.read_text())
    summary = {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "environment": results[WORKLOAD_NAMES[0]]["environment"],
        "workloads": {n: {"metrics": r["metrics"], "per_layer": r.get("per_layer")}
                      for n, r in results.items()},
    }
    (WORK / f"summary-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed")}))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    WORK.mkdir(parents=True, exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
