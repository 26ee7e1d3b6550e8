"""A text atlas of the classifier over the (p, q) plane.

With N = 3, m = 6, s = 1, k = 4 fixed, the minimal-growth region of the
exponent plane is cut out by p > q + 3 together with the coupling-index
condition sigma = 6q/(2(p-1)) < 1.  Both boundaries are visible below.

Legend:  M minimal growth,  . inconclusive,  x nonexistence
"""

import numpy as np

from gmext import ExponentSet, Outcome, SystemKind, classify, classify_lattice

print(__doc__)

q_values = np.linspace(0.25, 3.0, 12)
p_values = np.linspace(2.5, 9.0, 27)

# one call classifies the whole plane: q along rows, p along columns
outcome, *_ = classify_lattice(3, SystemKind.GM, p_values[None, :], q_values[:, None],
                               6.0, 1.0, 4.0)
symbol = {Outcome.EXISTS_MINIMAL_GROWTH: "M", Outcome.NONEXISTENCE: "x"}

print(f"              p from {p_values[0]:.1f} (left) to {p_values[-1]:.1f} (right)")
for q, row in zip(q_values[::-1], outcome[::-1]):
    print(f"  q = {q:4.2f}   |" + "".join(symbol.get(x, ".") for x in row) + "|")

print("\nThe vertical band on the left is p <= 3 (no positive solutions at")
print("all); the staircase is the p = q + 3 threshold; the upper-right")
print("wedge loses the sigma < 1 smallness that the construction needs.")

# the inhibitor profile switches branch as m crosses s + N/(N-2) = 4
print("\ninhibitor profile across the m-threshold (p = 9, q = 1):")
for m in (3.5, 4.0, 4.5):
    verdict = classify(ExponentSet(N=3, p=9, q=1, m=m, s=1, k=4))
    print(f"  m = {m}: v ~ {verdict.v_profile.label()}")
