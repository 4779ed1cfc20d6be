"""A stub: nothing in the package uses double-double arithmetic.

Extended precision runs on stdlib ``decimal`` (see geometry). This class
stays only because ``bench/tracer.py`` imports it and wraps its
``__init__`` to count constructions; it goes together with that counter
in the benchmark change of ROADMAP item 1.
"""


class DoubleDouble:
    """The unevaluated sum hi + lo; nothing constructs one."""

    def __init__(self, hi=0.0, lo=0.0):
        self.hi = hi
        self.lo = lo
