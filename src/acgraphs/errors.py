"""Exception types shared across the package.

The CLI maps these onto its exit codes: usage/spec problems -> 1,
failed verification -> 2, resource caps -> 3; any other exception is an
internal error -> 4.
"""


class GroupSpecError(ValueError):
    """Malformed or unsupported group specification string."""


class ResourceCapError(RuntimeError):
    """A configured resource cap would be exceeded.

    Always names the cap and the offending size, never truncates silently.
    """

    def __init__(self, cap_name: str, needed, limit):
        self.cap_name = cap_name
        self.needed = needed
        self.limit = limit
        super().__init__(
            f"resource cap {cap_name!r} exceeded: need {needed}, cap is {limit}"
        )


class PreconditionError(ValueError):
    """An operation's documented precondition does not hold."""


class VerificationError(AssertionError):
    """An asserted mathematical invariant failed on concrete data."""
