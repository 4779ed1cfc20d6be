"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input violates a documented precondition."""


class RangeOverflowError(ArithmeticError):
    """A numerical failure, never bad input: a computed value that its precision cannot hold,
    or two computations of one quantity that disagree."""


class ConvergenceError(RuntimeError):
    """An iterative procedure exhausted its budget without converging.

    Raised on a nonzero INFO from LAPACK's dqds (dlasq1).
    """
