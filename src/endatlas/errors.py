"""Exception types shared across the package, the default work cap, and the
integer test of input validation."""

DEFAULT_WORK_CAP = 10**6  # default bound on states, group elements and table work


def is_integer(x) -> bool:
    """Whether x is an integer and not a bool: JSON true and false load as
    bools, which Python counts as the ints 1 and 0."""
    return isinstance(x, int) and not isinstance(x, bool)


class EndatlasError(Exception):
    pass


class InvalidInput(EndatlasError, ValueError):
    """Rejected input: inadmissible type, malformed model, broken precondition."""


class CapExceeded(EndatlasError, RuntimeError):
    """A configured cost cap was hit; the result is a refusal, not an answer."""


class InternalConsistencyError(EndatlasError, RuntimeError):
    """A structural fact the theory guarantees failed to hold; falsifies the
    implementation, never the inputs."""
