"""Rebuild atlas_cells.json: the lattices the `atlas` workload draws from and
the outcome/condition histogram gmext produces on each.

Run from the repository root when classification is meant to change:

    python3 perfbench/record_atlas.py

The histograms are the reference the benchmark checks every sweep pass
against, so re-record them only together with a deliberate change to the
classifier.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

LATTICES = 16
SHAPE = (40, 40, 25)   # p, q and m values: 40000 cells per pass


def lattice_specs(rng: random.Random) -> list[str]:
    dp, dq, dm = (round(rng.uniform(-0.25, 0.25), 3) for _ in range(3))
    return [f"p={2.5 + dp:g}:{9.5 + dp:g}:{SHAPE[0]}",
            f"q={0.25 + 0.2 * dq:g}:{3.25 + 0.2 * dq:g}:{SHAPE[1]}",
            f"m={1.5 + dm:g}:{9.5 + dm:g}:{SHAPE[2]}"]


def record(vary: list[str], workdir: Path) -> dict:
    csv_path = workdir / "atlas.csv"
    argv = ["sweep", "--N", "3", "--s", "1", "--k", "4", "--jobs", "1", "--output", str(csv_path)]
    for spec in vary:
        argv += ["--vary", spec]
    if workloads._quiet(workloads.main, argv) != 0:
        raise SystemExit(f"sweep failed on {vary}")
    return {"vary": vary, "histogram": dict(sorted(workloads.atlas_histogram(csv_path).items()))}


def main() -> None:
    rng = random.Random(20240320)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        out = {
            "toy": record(["p=2.5:9.5:4", "q=0.25:3.25:4", "m=1.5:9.5:3"], Path(tmp)),
            "lattices": [record(lattice_specs(rng), Path(tmp)) for _ in range(LATTICES)],
        }
    workloads.ATLAS_CELLS.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.ATLAS_CELLS}")


if __name__ == "__main__":
    main()
