"""Exception hierarchy shared by all modules.

InputError marks bad user data; the CLI maps it to exit code 2.
ConsistencyError marks a violated internal invariant (oracle disagreement,
failed cross-check) and maps to exit code 3.
"""


class InputError(ValueError):
    """Invalid input supplied by the caller."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; results cannot be trusted."""
