"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --out runs.json
    python3 perfbench/baseline.py --workloads refine --seeds 1-5 --trace 1

For every workload and metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median.  Each run lasts
BENCHMARK.json's ``run_seconds``.  With ``--trace 1`` the counts in
``tracing.EXACT_COUNTS`` must be equal in every run of a workload: the seed
only reorders the operations, except on atlas, where it draws the lattice and
the counts are all 0.  The script exits 1 if a count drifts or a run is not
correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path

from tracing import EXACT_COUNTS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT,
                         capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    summary, problems = {}, []
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, args.trace))
            last = runs[-1]
            print(f"{workload} seed {seed}: correct={last['correct']} "
                  f"attempted={last['attempted']} failed={last['failed']} "
                  f"wall={last['wall_s']:.1f}s", flush=True)
        names = list(runs[0]["metrics"])
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "wall_s": summarise([r["wall_s"] for r in runs]),
            "metrics": {n: dict(summarise([r["metrics"][n]["value"] for r in runs]),
                                unit=runs[0]["metrics"][n]["unit"]) for n in names},
        }
        for n, s in summary[workload]["metrics"].items():
            print(f"  {n:<34} median {s['median']:.6g} {s['unit']:<11} spread {s['spread']:.4f}")
        if not summary[workload]["correct"]:
            problems.append(f"{workload}: a run is not correct")
        for key in EXACT_COUNTS if args.trace else ():
            seen = sorted({r["metrics"][key]["value"] for r in runs})
            if len(seen) > 1:
                problems.append(f"DRIFT {workload} {key}: {seen}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for line in problems:
        print(line)
    raise SystemExit(1 if problems else 0)


if __name__ == "__main__":
    main()
