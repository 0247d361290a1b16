"""Exception hierarchy shared by all chaoslab modules."""


class ChaosLabError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(ChaosLabError, ValueError):
    """An argument violates a documented precondition."""


class EmptyInputError(InvalidArgumentError):
    """An operation received an empty collection where content is required."""


class ResolutionError(InvalidArgumentError):
    """A dyadic resolution is too small for the requested function."""


class ResourceLimitError(ChaosLabError):
    """An exact computation would exceed its enumeration or search budget.

    Carries the budget that was exceeded and, where meaningful, the value
    that would be required to proceed.
    """

    def __init__(self, message, *, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


def cap_error(required, budget, what, instead):
    """ResourceLimitError for ``what`` needing ``required`` over the cap ``budget``.

    ``instead`` names the cheaper route, so every refusal reads
    "<what>: <required> required, cap <budget>; <instead>".
    """
    return ResourceLimitError(
        f"{what}: {required} required, cap {budget}; {instead}",
        required=required,
        budget=budget,
    )


def check_cap(required, budget, what, instead):
    """Raise :func:`cap_error` when ``required`` > ``budget``."""
    if required > budget:
        raise cap_error(required, budget, what, instead)


class NumericFailureError(ChaosLabError):
    """A numeric procedure failed to converge or met a non-finite value."""


class DegenerateFitError(ChaosLabError):
    """A regression input is degenerate (e.g. zero counts under the log)."""
