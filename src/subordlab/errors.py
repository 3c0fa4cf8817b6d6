"""Exception hierarchy shared by all subordlab modules."""


class SubordlabError(Exception):
    """Base class for all subordlab errors."""


class InvalidParameterError(SubordlabError, ValueError):
    """An argument violates an operation's precondition."""


class NumericalFailure(SubordlabError, ArithmeticError):
    """Quadrature or root finding did not reach the requested accuracy.

    Carries the name of the failing operation and, when known, the error
    estimate that was actually achieved.
    """

    def __init__(self, message, op=None, achieved=None):
        super().__init__(message)
        self.op = op
        self.achieved = achieved
