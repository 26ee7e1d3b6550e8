"""A seeded census of random existence cells (ROADMAP item 3).

``sample(count)`` draws exponent tuples from ``random.Random(12345)``: N from
(3, 3, 4, 5), the GM kind with probability 3/4 and MIXED otherwise, then p,
q, m, s and k, each uniform on [0.1, 10] and rounded to 0.01, in that order.
It keeps the first ``count`` tuples that ``classify`` calls an existence
cell.  ``LOG_INHIBITOR_CELLS`` adds item 5's two cells, which lie on
equalities that uniform sampling never draws.

``solve_cell`` solves one cell on [1, R] with n nodes the way ``gmext solve``
does at its default lambda: ``suggest_lambda``, then ``solve_system`` with
that schedule.  A solver error is an outcome, recorded by its tag and the
innermost gmext function it was raised in; any other exception propagates.

Run ``python3 tests/census.py COUNT N_NODES`` for the table as JSON: the
outcome counts and one row per cell.
"""

from __future__ import annotations

import json
import random
import sys
import traceback
from collections import Counter

from gmext import (
    ExponentSet,
    SourceEnvelope,
    SystemKind,
    assemble_operator,
    build_grid,
    classify,
    solve_system,
    suggest_lambda,
    verify_box,
)
from gmext.errors import GmextError

LOG_INHIBITOR_CELLS = (
    ExponentSet(N=3, p=5.0, q=1.0, m=4.0, s=1.0, k=4.0),
    ExponentSet(N=3, p=6.0, q=0.5, m=8.0, s=1.0, k=2.5),
)


def sample(count: int) -> list[ExponentSet]:
    rng = random.Random(12345)
    cells = []
    while len(cells) < count:
        N = rng.choice((3, 3, 4, 5))
        kind = SystemKind.GM if rng.random() < 0.75 else SystemKind.MIXED
        p, q, m, s, k = (round(rng.uniform(0.1, 10), 2) for _ in range(5))
        params = ExponentSet(N=N, p=p, q=q, m=m, s=s, k=k, kind=kind)
        if classify(params).exists:
            cells.append(params)
    return cells


def solve_cell(params: ExponentSet, R: float, n: int) -> dict:
    """The outcome of one cell: ``tag`` (``OK`` or the error's tag),
    ``certificate`` (the larger of the u and v certificates), ``far_field``
    (the larger of the far-field rows' relative residuals), ``box_ok``
    (``verify_box``'s verdict on the default window), ``steps`` and
    ``coarse_steps`` (``diagnostics["newton"]``'s Newton steps on the solve
    grid and on the coarse one), each None on failure, and ``where`` (the
    function that raised, None on success).  A solved cell whose box fails
    is a finding, not a failure."""
    op = assemble_operator(build_grid(1.0, R, n), params.N)
    env = SourceEnvelope.radial(1.0, params.k)
    try:
        lam, schedule = suggest_lambda(params, env, op)
        state = solve_system(params.with_lam(lam), env, op, schedule=schedule)
    except GmextError as err:
        frames = [f for f in traceback.extract_tb(err.__traceback__) if "gmext" in f.filename]
        return {"tag": err.tag, "certificate": None, "far_field": None, "box_ok": None,
                "steps": None, "coarse_steps": None, "where": frames[-1].name}
    d = state.diagnostics
    return {"tag": "OK", "certificate": max(d["certificate_u"], d["certificate_v"]),
            "far_field": max(d["far_field_u"], d["far_field_v"]),
            "box_ok": verify_box(state).ok,
            "steps": d["newton"]["steps"], "coarse_steps": d["newton"]["coarse_steps"],
            "where": None}


def census(count: int, n: int, R: float = 1e4) -> dict:
    rows = []
    for params in sample(count) + list(LOG_INHIBITOR_CELLS):
        cell = {key: getattr(params, key) for key in ("N", "p", "q", "m", "s", "k")}
        rows.append(dict(cell, kind=params.kind.name, **solve_cell(params, R, n)))
    return {"R": R, "n": n, "counts": dict(Counter(row["tag"] for row in rows)), "cells": rows}


if __name__ == "__main__":
    print(json.dumps(census(int(sys.argv[1]), int(sys.argv[2])), indent=1))
