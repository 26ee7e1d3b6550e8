"""Smoke test of the benchmark itself, at toy sizes (n=257, 48 atlas cells).

    python3 -m pytest perfbench -q

Checks that every metric named in BENCHMARK.json is printed with its unit on
every workload, that the traced run sees every layer the baseline saw busy and
writes its spans, that the exact counts repeat, that a missing trace target
is an error, and that the output checks count a wrong or failing operation as
failed and mark the run incorrect.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
BASELINE = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def toy_run(name: str, trace: bool) -> dict:
    return run.run_workload(name, seed=3, seconds=0.2, trace=trace, toy=True)


@pytest.fixture(autouse=True)
def toy_settings(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path / "spans")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_printed_with_unit(name, trace, capsys):
    result = toy_run(name, trace)
    printed = capsys.readouterr().out
    assert json.loads(json.dumps(result)) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for key, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float))
        assert re.search(rf"^  {re.escape(key)} +\S+ {re.escape(metric['unit'])}$", printed, re.M)
    assert result["correct"]
    assert result["attempted"] >= 1
    if name == "solve_suite":
        assert result["failed"] > 0  # the sentinel cell
    else:
        assert result["failed"] == 0
    if trace:
        # A wrapper that stopped seeing its layer would read 0 here.
        seed_layers = BASELINE["workloads"][name]["per_layer"]
        idle = [k for k, v in result["metrics"].items()
                if k != "trace.overhead_frac" and seed_layers[k]["value"] and not v["value"]]
        assert not idle
        spans = [json.loads(line) for line in
                 (run.SPANS_DIR / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [s["id"] for s in spans] == list(range(len(spans)))
        for span in spans:
            assert span["parent"] < span["id"]
            assert (span["parent"] < 0) == (span["name"] == "op")
            assert span["start"] <= span["end"]
        assert (sum(s["name"] == "grid.solve" for s in spans)
                == result["metrics"]["grid.solve.calls"]["value"])


def test_exact_counts_repeat():
    counts = [{k: toy_run("refine", True)["metrics"][k]["value"] for k in tracing.EXACT_COUNTS}
              for _ in range(2)]
    assert counts[0] == counts[1]
    assert all(v > 0 for v in counts[0].values())


def test_missing_trace_target_raises(monkeypatch):
    monkeypatch.delattr(workloads, "degeneration_probe")
    with pytest.raises(LookupError, match="degeneration_probe"):
        with tracing.traced(tracing.Tracer(), workloads):
            pass


def test_wrong_output_fails_operation(monkeypatch):
    solve = workloads.run_solve

    def bad_certificate(cfg):
        manifest, rows, code = solve(cfg)
        manifest["residuals"]["certificate_u"] = 1e-3
        return manifest, rows, code

    monkeypatch.setattr(workloads, "run_solve", bad_certificate)
    result = toy_run("refine", False)
    assert result["failed"] == result["attempted"]
    assert not result["correct"]


def test_raised_error_fails_operation(monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("boom")

    monkeypatch.setattr(workloads, "solve_monotone", broken)
    result = toy_run("scalar_decay", False)
    assert 0 < result["failed"] < result["attempted"]  # probes still pass
    assert not result["correct"]


def test_atlas_histogram_mismatch_fails(tmp_path):
    catalogue = json.loads(workloads.ATLAS_CELLS.read_text(encoding="utf-8"))
    entry = catalogue["toy"]
    (op,) = workloads.atlas(0, tmp_path, toy=True)
    assert op.check(op.call()) is None
    wrong = dict(entry["histogram"])
    wrong[next(iter(wrong))] += 1
    check = workloads.check_atlas(wrong, tmp_path / "atlas.csv")
    assert "histogram" in check(0)
    assert "exited" in check(64)


def test_coupled_checks():
    op = workloads.refine(0, None, toy=True)[0]
    manifest, rows, code = op.call()
    assert workloads.check_coupled((manifest, rows, code)) is None
    bad_box = json.loads(json.dumps(manifest))
    bad_box["box"]["ok"] = False
    assert "box" in workloads.check_coupled((bad_box, rows, code))
    bad_fit = json.loads(json.dumps(manifest))
    bad_fit["fits"]["v"]["matches_prediction"] = False
    assert "fit" in workloads.check_coupled((bad_fit, rows, code))
    nan_rows = [tuple(float("nan") for _ in rows[0])] + rows[1:]
    assert "non-finite" in workloads.check_coupled((manifest, nan_rows, code))
