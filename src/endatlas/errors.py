"""Exception types shared across the package, and the default work cap."""

DEFAULT_WORK_CAP = 10**6  # default bound on states, group elements and table work


class EndatlasError(Exception):
    pass


class InvalidInput(EndatlasError, ValueError):
    """Rejected input: inadmissible type, malformed model, broken precondition."""


class CapExceeded(EndatlasError, RuntimeError):
    """A configured cost cap was hit; the result is a refusal, not an answer."""


class InternalConsistencyError(EndatlasError, RuntimeError):
    """A structural fact the theory guarantees failed to hold; falsifies the
    implementation, never the inputs."""
