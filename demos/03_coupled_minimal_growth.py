"""A full coupled solve in the minimal-growth regime.

The activator-inhibitor pair

    -Lap u = u^5 / v + lam r^-4,   -Lap v = u^6 / v,

on the exterior of the unit ball in three dimensions is classified as a
minimal-growth regime: both components decay like the fundamental solution
r^-1.  The script walks through the full pipeline:

1. classify the exponents,
2. calibrate the barrier comparison constants on the grid,
3. assemble the constant schedule (box bounds and the threshold lam*),
4. solve below the threshold by Newton, certified by one application
   of the fixed-point map,
5. verify the invariant box and the fitted decay exponents.
"""

import numpy as np

from gmext import (
    ExponentSet,
    SourceEnvelope,
    assemble_operator,
    build_grid,
    calibrate_barrier_constants,
    classify,
    constant_schedule,
    solve_system,
    verify_box,
)
from gmext.fitting import fit_power

print(__doc__)

params0 = ExponentSet(N=3, p=5, q=1, m=6, s=1, k=4)
verdict = classify(params0)
print(f"verdict: {verdict.outcome.value} via {verdict.matched_condition}")
print(f"predicted profiles: u ~ {verdict.u_profile.label()}, v ~ {verdict.v_profile.label()}")

grid = build_grid(1.0, 1e4, 4097)
op = assemble_operator(grid, params0.N)
env = SourceEnvelope.radial(1.0, params0.k)

C3, C4 = calibrate_barrier_constants(params0, op)
probe = constant_schedule(params0.with_lam(1.0), env, C3, C4)
lam = probe.lambda_star / 2.0
params = params0.with_lam(lam)
sched = constant_schedule(params, env, C3, C4)
print(f"\ncalibrated constants: C3 = {C3:.4f}, C4 = {C4:.4f}")
print(f"threshold lam* = {probe.lambda_star:.4e}; running at lam = lam*/2 = {lam:.4e}")
print(f"box bounds: D = {sched.D:.3e}, E = {sched.E:.3e}, F = {sched.F:.3e}, G = {sched.G:.3e}")

state = solve_system(params, env, op, schedule=sched)
fit_u = fit_power(state.u, (10.0, 1e3))
fit_v = fit_power(state.v, (10.0, 1e3))
box = verify_box(state)

print(f"\nfixed point after {state.diagnostics['newton_steps']} Newton steps "
      f"(gap to its image under the map: {state.diagnostics['fixed_point_gap']:.1e})")
print(f"fitted exponents: u {fit_u.power:+.4f}, v {fit_v.power:+.4f}  (both predicted -1)")
print(f"residual certificates: u {state.diagnostics['certificate_u']:.2e}, "
      f"v {state.diagnostics['certificate_v']:.2e}")
print(f"box check on the window: ok = {box.ok}, "
      f"margins u {box.margin_u:.2f}, v {box.margin_v:.2f}")

# the activator dominates the inhibitor at small lam: u/v grows as lam drops
print("\nactivator/inhibitor ordering as the source weakens:")
for frac in (2.0, 8.0, 32.0):
    params_f = params0.with_lam(probe.lambda_star / frac)
    st = solve_system(params_f, env, op, schedule=constant_schedule(params_f, env, C3, C4))
    mask = grid.window_mask(100.0, 1e3)
    ratio = float(np.min(st.u.values[mask] / st.v.values[mask]))
    print(f"  lam = lam*/{int(frac):2d}: min u/v over the outer window = {ratio:.3e}")
