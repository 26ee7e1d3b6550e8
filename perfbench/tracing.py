"""Spans around calls into gmext's layers, recorded from outside the package.

``traced(tracer, workloads)`` swaps module attributes for timing wrappers and
restores them on exit; nothing under ``src/`` changes.  Functions are wrapped
where another module imported them (``gmext.coupled.solve_monotone``,
``gmext.cli.solve_system``, ...), so a module's calls to itself stay
invisible: the recursive ``outer="extrapolate"`` call inside ``scalar`` counts
as one ``solve_monotone`` call.  ``RadialOperator.solve`` is wrapped on the
class, so it counts every linear solve whoever makes it.

Spans stay in memory as ``[name, parent index, start, end]`` and are reduced
to per-layer metrics when a round ends; ``Tracer.write`` saves them as JSON
lines.  Every span of one operation descends from that operation's ``op``
span.  A wrapped name that is missing raises ``LookupError``, so that a
rename in gmext cannot leave a layer reading 0.
"""

from __future__ import annotations

import contextlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

# Counts that must repeat exactly between passes over the same inputs.
EXACT_COUNTS = (
    "grid.solve.calls",
    "coupled.apply_H.calls",
    "coupled.picard_iterations",
    "scalar.pin_rounds",
)


class Tracer:
    """Spans of the calls made through ``wrap``, and counts that result
    hooks add to ``values``.  ``reset`` empties both in place."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.values: Counter = Counter()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.values.clear()

    def wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def traced_call(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced_call

    def write(self, fh) -> None:
        for sid, (name, parent, t0, t1) in enumerate(self.spans):
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": t0, "end": t1}) + "\n")


def _monotone_hook(fn):
    sig = inspect.signature(fn)

    def hook(tracer, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.values["scalar.reported_solves"] += result.solves
        if bound.arguments["outer"] == "extrapolate":
            tracer.values["scalar.pin_rounds"] += result.pin_rounds
            tracer.values["scalar.pin_cap_hits"] += (
                result.pin_rounds >= max(1, bound.arguments["pin_rounds"]))
    return hook


def _solve_system_hook(fn):
    def hook(tracer, args, kwargs, result):
        tracer.values["coupled.picard_iterations"] += result.iteration
    return hook


def patch_table(workloads) -> list[tuple]:
    """(span name, owner, attribute, hook factory or None).  A hook factory
    takes the wrapped function and returns ``hook(tracer, args, kwargs,
    result)``, which adds counts read off the result to ``tracer.values``."""
    from gmext import cli, coupled, grid, probes, scalar

    return [
        ("grid.solve", grid.RadialOperator, "solve", None),
        ("grid.certify", coupled, "backward_error", None),
        ("grid.certify", coupled, "weighted_residual", None),
        ("grid.certify", coupled, "source_relative_residual", None),
        ("grid.certify", scalar, "backward_error", None),
        ("scalar.barrier_Z", scalar, "barrier_Z", None),
        ("scalar.solve_monotone", coupled, "solve_monotone", _monotone_hook),
        ("scalar.solve_monotone", probes, "solve_monotone", _monotone_hook),
        ("scalar.solve_monotone", workloads, "solve_monotone", _monotone_hook),
        ("coupled.apply_H", coupled, "apply_H", None),
        ("coupled.calibrate", coupled, "calibrate_barrier_constants", None),
        ("coupled.suggest_lambda", cli, "suggest_lambda", None),
        ("coupled.solve_system", cli, "solve_system", _solve_system_hook),
        ("coupled.verify_box", cli, "verify_box", None),
        ("params.classify", cli, "classify", None),
        ("params.classify", coupled, "classify", None),
        ("params.classify", probes, "classify", None),
        ("params.constant_schedule", coupled, "constant_schedule", None),
        ("fitting.fit", cli, "fit_power", None),
        ("fitting.fit", cli, "fit_power_log", None),
        ("probes.degeneration_probe", workloads, "degeneration_probe", None),
        ("cli.run_solve", workloads, "run_solve", None),
        ("cli.main", workloads, "main", None),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer, workloads):
    saved = []
    try:
        for name, owner, attr, hook in patch_table(workloads):
            fn = owner.__dict__.get(attr)
            if fn is None:  # renamed or moved: the layer would silently read 0
                raise LookupError(f"{owner.__name__}.{attr} not found; "
                                  f"update patch_table for {name}")
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, hook(fn) if hook else None))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer metrics of the spans recorded since the last reset.

    ``calls`` and ``s`` are totals; ``self_s`` is a span's duration minus the
    time its direct child spans cover.
    """
    spans = tracer.spans
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    child = [0.0] * len(spans)
    solves_under: Counter = Counter()
    for name, parent, t0, t1 in spans:
        calls[name] += 1
        total[name] += t1 - t0
        if parent >= 0:
            child[parent] += t1 - t0
        if name == "grid.solve":
            seen = set()
            while parent >= 0:
                seen.add(spans[parent][0])
                parent = spans[parent][1]
            solves_under.update(seen)
    self_s: defaultdict = defaultdict(float)
    for sid, (name, _parent, t0, t1) in enumerate(spans):
        self_s[name] += (t1 - t0) - child[sid]

    def ratio(a, b):
        return a / b if b else 0.0

    v = tracer.values
    return {
        "grid.solve.calls": calls["grid.solve"],
        "grid.solve.s": total["grid.solve"],
        "grid.solve.calls_per_op": ratio(calls["grid.solve"], n_ops),
        "grid.certify.calls": calls["grid.certify"],
        "grid.certify.s": total["grid.certify"],
        "scalar.solve_monotone.calls": calls["scalar.solve_monotone"],
        "scalar.solve_monotone.s": total["scalar.solve_monotone"],
        "scalar.solve_monotone.self_s": self_s["scalar.solve_monotone"],
        "scalar.barrier_Z.calls": calls["scalar.barrier_Z"],
        "scalar.barrier_Z.s": total["scalar.barrier_Z"],
        "scalar.pin_rounds": v["scalar.pin_rounds"],
        "scalar.pin_cap_hits": v["scalar.pin_cap_hits"],
        "scalar.reported_solve_frac": ratio(v["scalar.reported_solves"],
                                            solves_under["scalar.solve_monotone"]),
        "coupled.apply_H.calls": calls["coupled.apply_H"],
        "coupled.apply_H.s": total["coupled.apply_H"],
        "coupled.apply_H.self_s": self_s["coupled.apply_H"],
        "coupled.linear_solves_per_solve": ratio(solves_under["coupled.solve_system"],
                                                 calls["coupled.solve_system"]),
        "coupled.solve_system.calls": calls["coupled.solve_system"],
        "coupled.solve_system.s": total["coupled.solve_system"],
        "coupled.solve_system.self_s": self_s["coupled.solve_system"],
        "coupled.picard_iterations": v["coupled.picard_iterations"],
        "coupled.verify_box.s": total["coupled.verify_box"],
        "coupled.calibrate.calls": calls["coupled.calibrate"],
        "coupled.calibrate.s": total["coupled.calibrate"],
        "coupled.suggest_lambda.s": total["coupled.suggest_lambda"],
        "coupled.calibrate_per_solve": ratio(calls["coupled.calibrate"],
                                             calls["coupled.solve_system"]),
        "params.classify.calls": calls["params.classify"],
        "params.classify.s": total["params.classify"],
        "params.constant_schedule.calls": calls["params.constant_schedule"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.run_solve.self_s": self_s["cli.run_solve"],
        "fitting.fit.calls": calls["fitting.fit"],
        "fitting.fit.s": total["fitting.fit"],
        "probes.degeneration_probe.calls": calls["probes.degeneration_probe"],
        "probes.degeneration_probe.s": total["probes.degeneration_probe"],
    }
