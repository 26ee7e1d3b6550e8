"""The census of random existence cells as a ratchet (ROADMAP item 3).

60 sampled cells and the two log-inhibitor cells, at R = 1e4 and n = 257.
A failing cell is an outcome, not a failure of the test; the test fails
when an exception other than a tagged solver error escapes, when a solved
cell's certificate or far-field residual is above 1e-8, when a solved
cell's fit error is not finite, or when fewer cells solve than the floor
below.  A solved cell's box verdict and whether its fits match the
prediction are recorded, not asserted.  On this tree the 60 sampled cells give 29 OK, 28
NO_CONVERGENCE (the calibration's pin rounds, item 2), 2
NONINTEGRABLE_SOURCE (item 6) and 1 DIVERGED (item 4), and both
log-inhibitor cells solve (item 5), 31 OK in all.  Raise the floor when a
change solves more.
"""

import math

from census import census

_SOLVED_FLOOR = 31


def test_census_of_random_existence_cells():
    table = census(60, 257)
    solved = [row for row in table["cells"] if row["tag"] == "OK"]
    assert all(row["certificate"] <= 1e-8 for row in solved), solved
    assert all(row["far_field"] <= 1e-8 for row in solved), solved
    assert all(math.isfinite(row["fit_error"]) for row in solved), solved
    assert len(solved) >= _SOLVED_FLOOR, table["counts"]
