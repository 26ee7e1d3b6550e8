"""gmext benchmark: one workload, one seed, timed for a fixed number of seconds.

    python3 perfbench/run.py --workload solve_suite --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports gmext from ``src/``.
Each workload is a closed loop: one client in this process runs one
operation at a time.  Operations come in rounds; the seed draws the inputs
and shuffles the order of every round.  After each operation its output is
checked (see workloads.py), and failures are counted against attempts.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` prints the per-layer metrics of one round (the median over the
run's rounds) and the tracing overhead.  In its rounds every operation runs
twice back to back, untraced and traced, alternating which goes first, so
the overhead compares runs made under the same host conditions.  There are
at least two rounds, and the counts in ``tracing.EXACT_COUNTS`` must be equal
in all of them, or the run is marked incorrect.  The spans of the last round
are written to ``.perfbench-spans/<workload>.jsonl`` under the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SPANS_DIR = ROOT / ".perfbench-spans"

# Fresh interpreters timed for setup_s; the median is reported.
IMPORT_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import gmext; print(time.perf_counter() - t, gmext.__file__)"
)

# BLAS may use every core this process is allowed on, and no more.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(len(os.sched_getaffinity(0))))


def _from_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup(repeats: int = IMPORT_REPEATS) -> float:
    """Median wall time of ``import gmext`` in a fresh interpreter.  One
    untimed import first compiles the bytecode, which users pay only once."""
    cmd = [sys.executable, "-s", "-c", IMPORT_PROBE, str(SRC)]
    times = []
    for i in range(repeats + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        seconds, path = out.stdout.split()
        if not _from_src(path):
            raise RuntimeError(f"fresh interpreter imported gmext from {path}")
        if i:
            times.append(float(seconds))
    return statistics.median(times)


@dataclass
class Result:
    label: str
    seconds: float
    failure: str | None
    expected: bool
    power_err: float | None = None


def run_op(op, call=None) -> Result:
    gc.collect()  # garbage of the previous operation is not this one's cost
    t0 = perf_counter()
    try:
        out = (call or op.call)()
    except Exception as exc:  # a failed operation is counted, not fatal
        dt = perf_counter() - t0
        failure = getattr(exc, "tag", None) or f"{type(exc).__name__}: {exc}"
        return Result(op.label, dt, failure, failure == op.expect_fail)
    dt = perf_counter() - t0
    failure = op.check(out)
    power_err = op.power_error(out) if op.power_error and not failure else None
    return Result(op.label, dt, failure, False, power_err)


def run_round(ops, rng) -> list[Result]:
    """Every operation once, in an order drawn from ``rng``."""
    order = list(ops)
    rng.shuffle(order)
    return [run_op(op) for op in order]


def run_for(ops, rng, budget: float) -> list[list[Result]]:
    """Whole rounds, until another round would end more than half a round
    past ``budget`` seconds."""
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(run_round(ops, rng))
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) > budget:
            return rounds


def run_paired(ops, rng, tracer, workloads, budget: float):
    """Rounds in which each operation runs untraced and traced back to back,
    the order alternating from one operation to the next, until another round
    would end more than half a round past ``budget`` seconds; at least two.
    gmext is patched only around the traced runs.  Returns the untraced
    rounds, the traced rounds and each traced round's layer metrics.  The
    tracer keeps the spans of the last round."""
    plain, traced, layers = [], [], []
    traced_first = False
    start = perf_counter()
    while True:
        tracer.reset()
        order = list(ops)
        rng.shuffle(order)
        plain.append([])
        traced.append([])
        for op in order:
            traced_first = not traced_first
            for with_trace in ((True, False) if traced_first else (False, True)):
                if with_trace:
                    with tracing.traced(tracer, workloads):
                        traced[-1].append(run_op(op, tracer.wrap("op", op.call)))
                else:
                    plain[-1].append(run_op(op))
        layers.append(tracing.layer_metrics(tracer, len(ops)))
        elapsed = perf_counter() - start
        if len(traced) >= 2 and elapsed + 0.5 * elapsed / len(traced) > budget:
            return plain, traced, layers


def by_label(rounds: list[list[Result]], ok_only: bool = False) -> dict[str, list[float]]:
    times = defaultdict(list)
    for r in (r for rnd in rounds for r in rnd):
        if r.failure is None or not ok_only:
            times[r.label].append(r.seconds)
    return times


def round_seconds(rounds: list[list[Result]]) -> float:
    """A typical round: the sum over operations of each one's median time."""
    return sum(statistics.median(t) for t in by_label(rounds).values())


def end_to_end(rounds: list[list[Result]], setup_s: float) -> dict[str, float]:
    """Times are medians per operation over the run's rounds, so that one
    round slowed by something outside the program moves them little."""
    every, ok = by_label(rounds), by_label(rounds, ok_only=True)
    round_s = round_seconds(rounds)
    successes = sum(len(t) for t in ok.values())
    attempts = sum(len(t) for t in every.values())
    return {
        "setup_s": setup_s,
        "ops_per_s": successes / len(rounds) / round_s,
        "op_p50_s": statistics.median(statistics.median(t) for t in ok.values()) if ok else round_s,
        "ok_frac": successes / attempts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report(name: str, seed: int, rounds, metrics: dict, units: dict) -> None:
    """Human-readable summary; the JSON line that follows is authoritative."""
    results = [r for rnd in rounds for r in rnd]
    failed = [r for r in results if r.failure]
    print(f"workload {name} seed {seed}: {len(results)} ops in {len(rounds)} rounds, "
          f"{sum(r.seconds for r in results):.2f} s timed")
    for key, value in metrics.items():
        print(f"  {key:<34} {value:.6g} {units.get(key, '')}")
    print(f"  {'fail_frac':<34} {len(failed) / len(results):.6g} ratio")
    errs = [r.power_err for r in results if r.power_err is not None]
    if errs:
        print(f"  {'max_power_err':<34} {max(errs):.6g} 1")
    for r in {(r.label, r.failure, r.expected): r for r in failed}.values():
        print(f"  failed [{'expected' if r.expected else 'UNEXPECTED'}] {r.label}: {r.failure}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Run one workload and return the result object printed as the last line."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]

    setup_s = None if trace else measure_setup()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gmext
    import workloads
    if not _from_src(gmext.__file__):
        raise RuntimeError(f"imported gmext from {gmext.__file__}, not from {SRC}")

    rng = random.Random(seed)
    drift = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        ops = workloads.WORKLOADS[name](seed, Path(tmp), toy=toy)
        if not trace:
            rounds = run_for(ops, rng, seconds)
            metrics = end_to_end(rounds, setup_s)
        else:
            tracer = tracing.Tracer()
            plain, traced_rounds, layers = run_paired(ops, rng, tracer, workloads, seconds)
            SPANS_DIR.mkdir(exist_ok=True)
            with (SPANS_DIR / f"{name}.jsonl").open("w", encoding="utf-8") as fh:
                tracer.write(fh)
            drift = [k for k in tracing.EXACT_COUNTS if len({lm[k] for lm in layers}) > 1]
            metrics = {k: statistics.median(lm[k] for lm in layers) for k in layers[0]}
            metrics["trace.overhead_frac"] = round_seconds(traced_rounds) / round_seconds(plain) - 1
            rounds = plain + traced_rounds
            errs = [r.power_err for rnd in rounds for r in rnd if r.power_err is not None]
            metrics["fitting.max_power_err"] = max(errs, default=0.0)

    report(name, seed, rounds, metrics, units)
    for key in drift:
        print(f"  DRIFT {key}: {[lm[key] for lm in layers]} over the traced rounds")
    missing = set(wanted) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    results = [r for rnd in rounds for r in rnd]
    unexpected = [r for r in results if r.failure and not r.expected]
    return {
        "correct": not unexpected and not drift,
        "attempted": len(results),
        "failed": sum(1 for r in results if r.failure),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gmext" / "__init__.py").is_file():
        print(f"no gmext sources under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
