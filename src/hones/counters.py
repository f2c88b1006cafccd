"""Scalar-multiplication tally used for the per-step complexity checks.

Convention: only multiplications are counted.  Additions, comparisons and
divisions are ignored, and so is everything spent maintaining the problem
matrix itself (rank-one row refreshes), which is accounted separately by
the driver.
"""


class MultCounter:
    __slots__ = ("total",)

    def __init__(self):
        self.total = 0


def add(counter, k):
    """Tally k multiplications if a counter is attached."""
    if counter is not None:
        counter.total += int(k)
