"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criterion 5 is recorded as a strict expected
failure: the requested exponent pair contradicts the superharmonic floor in
three dimensions (decay below r^(2-N) is impossible for a positive
superharmonic activator), and the honest behaviour of that parameter set is
covered by the companion test.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from gmext import (
    ExponentSet,
    NonlinearitySpec,
    SourceEnvelope,
    apply_H,
    assemble_operator,
    build_grid,
    classify,
    constant_schedule,
    grid_for_decades,
    degeneration_probe,
    solve_linear,
    solve_monotone,
    solve_system,
    suggest_lambda,
    verify_box,
)
from gmext.coupled import initial_state
from gmext.fitting import fit_power, fit_power_log

from cases import (
    CLASSIFIER_TABLE,
    COUPLED_FROM_K35,
    COUPLED_MIN_I,
    COUPLED_MIN_III,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


@lru_cache(maxsize=8)
def operator_for(r0: float, R: float, n: int, N: int):
    return assemble_operator(build_grid(r0, R, n), N)


@lru_cache(maxsize=8)
def scalar_alpha_solve(alpha: float):
    op = operator_for(1.0, 1e4, 4097, 3)
    res = solve_monotone(op, op.grid.r ** -alpha, NonlinearitySpec.power(1.0),
                         outer="extrapolate")
    return op, res


@lru_cache(maxsize=8)
def coupled_solve(key: str):
    case = {"min_i": COUPLED_MIN_I, "min_iii": COUPLED_MIN_III,
            "k35": COUPLED_FROM_K35}[key]
    params = ExponentSet(**case["params"])
    r0, R, n = case["grid"]
    op = operator_for(r0, R, n, params.N)
    env = SourceEnvelope.radial(1.0, params.k)
    lam, sched = suggest_lambda(params, env, op)
    state = solve_system(params.with_lam(lam), env, op, schedule=sched)
    return params, env, op, state, case


# ---------------------------------------------------------------------------
# 1. closed-form linear oracle


def test_criterion_01_linear_oracle():
    t0 = time.perf_counter()
    errs = {}
    for n in (4097, 8193):
        op = operator_for(1.0, 1e4, n, 3)
        r = op.grid.r
        exact = 1.0 / r - 0.5 / r ** 2
        w = solve_linear(op, r ** -4.0, float(exact[-1]))
        errs[n] = float(np.max(np.abs(w.values - exact) / exact))
    elapsed = time.perf_counter() - t0
    ratio = errs[4097] / errs[8193]
    ok = errs[4097] < 1e-4 and 3.2 <= ratio <= 4.8 and elapsed < 1.0
    report(1, ok, f"max rel err {errs[4097]:.3e} (tol 1e-4), doubling ratio "
                  f"{ratio:.2f} (in [3.2, 4.8]), {elapsed:.2f}s (< 1s)")
    assert errs[4097] < 1e-4
    assert 3.2 <= ratio <= 4.8
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. singular scalar decay laws


def test_criterion_02_scalar_decay_laws():
    t0 = time.perf_counter()
    results = []
    for alpha in (2.5, 3.0, 3.5):
        op, res = scalar_alpha_solve(alpha)
        fit = fit_power(res.w, (10.0, 1e3))
        expected = -(alpha - 2.0) / 2.0
        results.append((f"a={alpha}", fit.power, expected, 0.05, None, None, None))
    op, res = scalar_alpha_solve(4.0)
    fit = fit_power_log(res.w, (10.0, 1e3), 1.0)
    results.append(("a=4.0", fit.power, -1.0, 0.05, fit.log_power, 0.5, 0.1))
    op, res = scalar_alpha_solve(6.0)
    fit = fit_power_log(res.w, (10.0, 1e3), 1.0)
    results.append(("a=6.0", fit.power, -1.0, 0.05, fit.log_power, 0.0, 0.05))
    elapsed = time.perf_counter() - t0

    ok = elapsed < 10.0
    details = []
    for name, power, expected, tol, logp, elog, ltol in results:
        good = abs(power - expected) <= tol
        if logp is not None:
            good = good and abs(logp - elog) <= ltol
        ok = ok and good
        details.append(f"{name}: {power:+.3f} (pred {expected:+.2f})"
                       + (f" log {logp:+.3f} (pred {elog})" if logp is not None else ""))
    report(2, ok, "; ".join(details) + f"; {elapsed:.1f}s (< 10s)")
    for name, power, expected, tol, logp, elog, ltol in results:
        assert abs(power - expected) <= tol, name
        if logp is not None:
            assert abs(logp - elog) <= ltol, name
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. amplitude oracle


def test_criterion_03_amplitude_oracle():
    # the inner boundary layer decays slowly (relative correction ~ r^-0.41),
    # so the amplitude is measured far out on a wide domain
    op = assemble_operator(grid_for_decades(1.0, 3e7, 1024), 3)
    res = solve_monotone(op, op.grid.r ** -3.5, NonlinearitySpec.power(1.0),
                         outer="extrapolate")
    fit = fit_power(res.w, (3e4, 3e6))
    expected = 0.1875 ** -0.5
    rel = abs(fit.amplitude - expected) / expected
    ok = rel <= 0.02
    report(3, ok, f"amplitude {fit.amplitude:.4f} vs {expected:.4f} "
                  f"(rel err {rel:.4f}, tol 0.02)")
    assert rel <= 0.02


# ---------------------------------------------------------------------------
# 4. coupled minimal-growth suite


def test_criterion_04_coupled_suite():
    t0 = time.perf_counter()
    details = []
    ok = True
    for key in ("min_i", "min_iii", "k35"):
        params, env, op, state, case = coupled_solve(key)
        fit_u = fit_power(state.u, case["window"])
        fit_v = fit_power(state.v, case["window"])
        good = (abs(fit_u.power - case["u_power"]) <= 0.05
                and abs(fit_v.power - case["v_power"]) <= 0.05
                and state.diagnostics["certificate_u"] < 1e-8
                and state.diagnostics["certificate_v"] < 1e-8)
        ok = ok and good
        details.append(
            f"{key}: u {fit_u.power:+.3f}/{case['u_power']} "
            f"v {fit_v.power:+.3f}/{case['v_power']} "
            f"certs ({state.diagnostics['certificate_u']:.1e}, "
            f"{state.diagnostics['certificate_v']:.1e})"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(4, ok, "; ".join(details) + f"; {elapsed:.1f}s (< 60s)")
    for key in ("min_i", "min_iii", "k35"):
        params, env, op, state, case = coupled_solve(key)
        assert abs(fit_power(state.u, case["window"]).power - case["u_power"]) <= 0.05
        assert abs(fit_power(state.v, case["window"]).power - case["v_power"]) <= 0.05
        assert (state.diagnostics["certificate_u"] < 1e-8
                and state.diagnostics["certificate_v"] < 1e-8)
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. the faster-growth instance as literally stated


@pytest.mark.xfail(
    strict=True,
    reason=(
        "(N=3, k=3.5, p=4, q=1.5, m=3, s=1) cannot decay like r^-1.5: a "
        "positive superharmonic function in three dimensions is bounded below "
        "by a multiple of r^-1, and the faster-growth regime requires "
        "2 < k < N.  The instance satisfies the minimal-growth conditions "
        "instead and converges to the pair (-1, -0.5); see the companion test."
    ),
)
def test_criterion_05_fast_growth_as_stated():
    params, env, op, state, case = coupled_solve("k35")
    fit_u = fit_power(state.u, case["window"])
    fit_v = fit_power(state.v, case["window"])
    ok = abs(fit_u.power - (-1.5)) <= 0.05 and abs(fit_v.power - (-1.0)) <= 0.05
    report(5, ok, f"as stated: u {fit_u.power:+.3f} vs -1.5, v {fit_v.power:+.3f} vs -1.0"
                  " (expected failure: instance is minimal-growth)")
    assert abs(fit_u.power - (-1.5)) <= 0.05
    assert abs(fit_v.power - (-1.0)) <= 0.05


def test_criterion_05_companion_honest_profiles():
    params, env, op, state, case = coupled_solve("k35")
    verdict = classify(params)
    fit_u = fit_power(state.u, case["window"])
    fit_v = fit_power(state.v, case["window"])
    ok = (verdict.matched_condition == "Thm2.2(iii)"
          and abs(fit_u.power - verdict.u_profile.power) <= 0.05
          and abs(fit_v.power - verdict.v_profile.power) <= 0.05)
    report(5, ok, f"companion: classified {verdict.matched_condition}, "
                  f"u {fit_u.power:+.3f}/{verdict.u_profile.power:g}, "
                  f"v {fit_v.power:+.3f}/{verdict.v_profile.power:g}")
    assert verdict.matched_condition == "Thm2.2(iii)"
    assert abs(fit_u.power - verdict.u_profile.power) <= 0.05
    assert abs(fit_v.power - verdict.v_profile.power) <= 0.05


# ---------------------------------------------------------------------------
# 6. threshold algebra


def test_criterion_06_lambda_star_algebra():
    rng = np.random.default_rng(20240801)
    checked = 0
    counterexamples = 0
    while checked < 10_000:
        p = float(rng.uniform(1.2, 8.0))
        q = float(rng.uniform(0.1, 5.0))
        m = float(rng.uniform(0.1, 8.0))
        s = float(rng.uniform(0.0, 4.0))
        if m * q / ((p - 1) * (1 + s)) >= 0.999:
            continue
        C1 = float(10 ** rng.uniform(-1, 1))
        C2 = C1 * float(10 ** rng.uniform(0, 1))
        C3 = float(10 ** rng.uniform(-1, 1))
        C4 = C3 * float(10 ** rng.uniform(1e-6, 1))
        params = ExponentSet(N=3, p=p, q=q, m=m, s=s, k=4.0)
        env = SourceEnvelope(C1=C1, C2=C2, k=4.0, rho_amplitude=C1)
        lam_star = constant_schedule(params, env, C3, C4).lambda_star
        if not (1e-25 < lam_star < 1e25):
            continue
        checked += 1
        mo = m / (1 + s)
        for factor, expect in ((0.999999, True), (1.000001, False)):
            lam = lam_star * factor
            D = C1 * C3 * lam
            E = 2 * C2 * C4 * lam
            F = C3 * D ** mo
            holds = C4 * (E ** p * F ** -q + lam * C2) <= E
            if holds is not expect:
                counterexamples += 1
    ok = counterexamples == 0
    report(6, ok, f"{checked} random draws, {counterexamples} counterexamples")
    assert checked >= 10_000
    assert counterexamples == 0


# ---------------------------------------------------------------------------
# 7. box invariance under the fixed-point map


def test_criterion_07_box_invariance():
    base = ExponentSet(**COUPLED_MIN_I["params"])
    op = operator_for(1.0, 1e4, 2049, 3)
    env = SourceEnvelope.radial(1.0, base.k)
    lam_star, _ = suggest_lambda(base, env, op, fraction=1.0)
    total_checked = 0
    violations = 0
    for frac in (2.0, 8.0):
        params = base.with_lam(lam_star / frac)
        verdict = classify(params)
        from gmext import calibrate_barrier_constants

        C3, C4 = calibrate_barrier_constants(params, op)
        sched = constant_schedule(params, env, C3, C4)
        state = initial_state(op, verdict, sched)
        for _ in range(50):
            state = apply_H(state, params, env, op)
            rep = verify_box(state)
            total_checked += 1
            if not rep.ok:
                violations += 1
    ok = violations == 0
    report(7, ok, f"2 x 50 applications at lam*/2 and lam*/8: "
                  f"{violations} box violations out of {total_checked} checks")
    assert violations == 0


# ---------------------------------------------------------------------------
# 8. discrete comparison principle


def test_criterion_08_discrete_comparison():
    rng = np.random.default_rng(808)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(33, 97))
        N = int(rng.integers(3, 6))
        r0 = float(rng.uniform(0.5, 2.0))
        R = r0 * float(10 ** rng.uniform(1.2, 2.5))
        op = assemble_operator(build_grid(r0, R, n), N)
        r = op.grid.r
        s = float(rng.uniform(0.0, 3.0))
        g = NonlinearitySpec.power(s)
        psi = rng.uniform(0.2, 1.0) * r ** -float(rng.uniform(2.2, 5.0))
        psi *= 1.0 + 0.5 * rng.uniform(0.0, 1.0, n)
        bump = 1.0 + rng.uniform(0.0, 1.0, n)
        b2 = float(rng.uniform(0.01, 0.5))
        b1 = b2 + float(rng.uniform(0.0, 0.5))
        w2 = solve_monotone(op, psi, g, outer=b2, truncate_tail=True).w.values
        w1 = solve_monotone(op, psi * bump, g, outer=b1, truncate_tail=True).w.values
        if not np.all(w1 >= w2 - 1e-8 * np.maximum(w1, 1e-300)):
            violations += 1
    ok = violations == 0
    report(8, ok, f"1000 randomized ordered instances, {violations} order violations")
    assert violations == 0


# ---------------------------------------------------------------------------
# 9. monotone ordering of scalar iterates


def test_criterion_09_monotone_ordering():
    # (a) recorded iterate histories are nonincreasing per shift stage and
    #     stay inside the barrier pair
    checked_stages = 0
    for alpha in (2.5, 3.5, 6.0):
        op = operator_for(1.0, 1e4, 2049, 3)
        res = solve_monotone(op, op.grid.r ** -alpha, NonlinearitySpec.power(1.0),
                             outer="barrier", record_history=True)
        hi = res.barriers.upper.values
        lo = res.barriers.lower.values
        assert res.monotone_ok
        for stage in res.stages:
            checked_stages += 1
            for a, b in zip(stage.iterates, stage.iterates[1:]):
                assert np.all(b <= a * (1 + 1e-12) + 1e-300)
            for it in stage.iterates:
                assert np.all(it <= hi * (1 + 1e-9) + 1e-300)
                assert np.all(it >= lo - 1e-9 * hi - 1e-300)
        assert res.sandwiched
    # (b) every scalar solve recorded inside the coupled suite kept its
    #     monotone flag
    flags = []
    for key in ("min_i", "min_iii", "k35"):
        *_, state, _case = coupled_solve(key)
        flags.append(bool(state.diagnostics["inner_monotone_ok"]))
        flags.append(bool(state.diagnostics["inner_sandwiched"]))
    ok = all(flags)
    report(9, ok, f"{checked_stages} recorded stages monotone and sandwiched; "
                  f"coupled-suite inner-solve flags all true: {all(flags)}")
    assert all(flags)


# ---------------------------------------------------------------------------
# 10. classifier conformance table


def test_criterion_10_classifier_table():
    failures = []
    for label, kw, outcome, tag, u_pow, v_pow, v_log in CLASSIFIER_TABLE:
        verdict = classify(ExponentSet(**kw))
        good = verdict.outcome is outcome and verdict.matched_condition == tag
        if good and u_pow is not None:
            good = (abs(verdict.u_profile.power - u_pow) < 1e-12
                    and abs(verdict.v_profile.power - v_pow) < 1e-12
                    and abs(verdict.v_profile.log_power - v_log) < 1e-12)
        if not good:
            failures.append(label)
    ok = not failures and len(CLASSIFIER_TABLE) >= 40
    report(10, ok, f"{len(CLASSIFIER_TABLE)} hand-checked cases, "
                   f"failures: {failures or 'none'}")
    assert len(CLASSIFIER_TABLE) >= 40
    assert not failures


# ---------------------------------------------------------------------------
# 11. nonexistence corroboration (non-assertive report, recorded trend)


def test_criterion_11_degeneration_probe():
    params = ExponentSet(N=3, p=5, q=1, m=2, s=1, k=4)
    env = SourceEnvelope.radial(1.0, 4.0)
    report_obj = degeneration_probe(params, env, (1e2, 1e3, 1e4))
    floors = [row.floor_rel for row in report_obj.rows]
    ok = report_obj.floor_rel_decreasing
    for line in report_obj.lines():
        print("   ", line)
    report(11, ok, "normalized inhibitor floor strictly decreasing across "
                   f"R in (1e2, 1e3, 1e4): {[f'{f:.3e}' for f in floors]}")
    assert report_obj.floor_rel_decreasing
