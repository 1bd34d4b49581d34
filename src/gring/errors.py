"""Exception types shared across the package."""


class GringError(Exception):
    """Base class for all errors raised by gring."""


class MalformedSyntax(GringError):
    """Input text does not conform to the expected grammar."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownGenerator(GringError):
    def __init__(self, name):
        super().__init__(f"unknown generator {name!r}")
        self.name = name


class ZeroExponentError(GringError):
    def __init__(self, position):
        super().__init__(f"exponent 0 is not allowed (at position {position})")
        self.position = position


class DuplicateGenerator(GringError):
    def __init__(self, name):
        super().__init__(f"duplicate generator name {name!r}")
        self.name = name


class ForeignVariable(GringError):
    """A polynomial mentions a variable outside the expected variable set."""


class ExponentOverflow(GringError):
    """A monomial's exponent does not fit its ``Poly`` field (see
    ``kernel.EXP_MAX``)."""


class NotAUnit(GringError):
    """Requested inverse of an element that is not a unit in its ring."""


class FormCheckFailed(GringError):
    """A structural identity that should hold unconditionally was violated.

    This always indicates a bug in the calculus, never bad user input.
    """


class GroebnerTimeout(GringError):
    """A Groebner-basis computation exceeded its deadline.

    ``stats`` holds the engine's counters so far (see ``GroebnerBasis``).
    """

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = dict(stats or {})


class InvalidInstance(GringError):
    """A case-study instance violates its preconditions."""
