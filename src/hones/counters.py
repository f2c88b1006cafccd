"""Scalar-multiplication tally used for the per-step complexity checks.

Convention: only multiplications are counted.  Additions, comparisons and
divisions are ignored, and so is everything spent maintaining the problem
matrix itself (rank-one row refreshes), which is accounted separately by
the driver.  A routine that takes an optional counter tallies k
multiplications with `if counter is not None: counter.total += k`, written
out in place, so an untallied call costs one comparison and no call.
"""


class MultCounter:
    __slots__ = ("total",)

    def __init__(self):
        self.total = 0
