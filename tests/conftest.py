import sys
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gmext import (
    ExponentSet,
    SourceEnvelope,
    assemble_operator,
    build_grid,
    solve_system,
    suggest_lambda,
)


@lru_cache(maxsize=16)
def cached_operator(r0: float, R: float, n: int, N: int):
    return assemble_operator(build_grid(r0, R, n), N)


@lru_cache(maxsize=16)
def cached_coupled_solve(params_key: tuple, grid_key: tuple, lam_fraction: float):
    """Solve one coupled instance, picking lam from the schedule threshold
    when the instance does not fix it."""
    params = ExponentSet(*params_key[:-1], kind=params_key[-1])
    r0, R, n = grid_key
    op = cached_operator(r0, R, n, params.N)
    env = SourceEnvelope.radial(1.0, params.k)
    sched = None
    if params.lam <= 0:
        lam, sched = suggest_lambda(params, env, op, fraction=lam_fraction)
        params = params.with_lam(lam)
    state = solve_system(params, env, op, schedule=sched)
    return params, env, op, state


def solve_case(case: dict, lam_fraction: float = 0.5):
    kw = case["params"]
    key = (kw["N"], kw["p"], kw["q"], kw["m"], kw["s"], kw["k"], kw["lam"], kw["kind"])
    return cached_coupled_solve(key, tuple(case["grid"]), lam_fraction)


@pytest.fixture(scope="session")
def operator_1e4():
    return cached_operator(1.0, 1e4, 4097, 3)
