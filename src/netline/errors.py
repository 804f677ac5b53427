"""Error types shared across the package."""


class ExhaustiveLimitError(ValueError):
    """Raised when an instance is too large for exhaustive enumeration."""


class InvariantError(ValueError):
    """Raised when a result breaks an invariant the library guarantees.

    A defect in the library rather than in its input: the command line
    reports it on its own exit channel, apart from malformed input.
    """


class PreconditionError(ValueError):
    """Raised when an operation's working hypothesis is not met.

    Distinct from a plain ValueError so callers can tell "you fed me garbage"
    apart from "the hypothesis this check relies on does not hold here".
    """
