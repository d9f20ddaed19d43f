"""Exception hierarchy shared by all modules.

Input errors (bad user data) derive from InputError; the CLI maps these to
exit code 2.  ConsistencyError marks a violated internal invariant (oracle
disagreement, failed cross-check) and maps to exit code 3.
"""


class InputError(ValueError):
    """Invalid input supplied by the caller."""


class NotCoprime(InputError):
    pass


class NotPrimitive(InputError):
    pass


class ZeroClass(InputError):
    pass


class InvalidForm(InputError):
    pass


class OutOfRange(InputError):
    pass


class ParityError(InputError):
    pass


class OddSignature(ValueError):
    pass


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; results cannot be trusted."""


class NotSymmetric(ConsistencyError):
    """Polynomial is not invariant under T -> 1/T; an Alexander polynomial
    always is."""
