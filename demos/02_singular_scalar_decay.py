"""The singular scalar problem and its three decay regimes.

The inhibitor-type equation

    -Lap w = r^-alpha * w^-s,   w'(r0) = 0,   w -> 0 at infinity

changes character with alpha (here s = 1, N = 3, so the threshold sits at
alpha = N + s(N-2) = 4):

  alpha < 4:  w ~ r^(-(alpha-2)/2)     (source-driven decay)
  alpha = 4:  w ~ r^-1 * log^(1/2) r   (threshold, log correction)
  alpha > 4:  w ~ r^-1                 (minimal decay of the fundamental kind)

The solver builds an explicit barrier pair (a quadrature potential and its
g-transform).  With the extrapolated outer pin, three Newton rounds choose
the pin, each from the previous round's solution (the first from the upper
barrier).  At the chosen pin the monotone iteration then runs downward from
the last round's solution, falling back to the shift-stabilized drive from
the upper barrier should that start not be a supersolution, and a
safeguarded Newton finish ends it.  Exponents are read off by log-log least
squares over a window clear of both boundary layers.
"""

from gmext import NonlinearitySpec, assemble_operator, build_grid, solve_monotone
from gmext.fitting import fit_power, fit_power_log

print(__doc__)

op = assemble_operator(build_grid(1.0, 1e4, 4097), N=3)
g = NonlinearitySpec.power(1.0)

for alpha in (2.5, 3.0, 3.5, 4.0, 6.0):
    res = solve_monotone(op, op.grid.r ** -alpha, g, outer="extrapolate")
    plain = fit_power(res.w, (10.0, 1e3))
    logged = fit_power_log(res.w, (10.0, 1e3), r0=1.0)
    pred = -(alpha - 2.0) / 2.0 if alpha < 4.0 else -1.0
    print(
        f"alpha = {alpha:3.1f}: power {plain.power:+.3f} (predicted {pred:+.2f})"
        f"   log-corrected fit: power {logged.power:+.3f}, log exponent {logged.log_power:+.3f}"
        f"   [monotone stages ok: {res.monotone_ok}, backward error {res.backward_error:.1e}]"
    )

print("\nAt alpha = 4.0 the plain power fit is visibly biased while the")
print("two-regressor fit isolates the log^(1/2) factor; at alpha = 6.0 the")
print("log exponent collapses to zero.")
