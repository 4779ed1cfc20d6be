"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input violates a documented precondition."""


class RangeOverflowError(ArithmeticError):
    """An iterated map evaluation left the representable range."""


class ConvergenceError(RuntimeError):
    """An iterative procedure exhausted its budget without converging.

    Raised by the double-double bisection and by Gauss weights that do
    not come out positive.
    """
