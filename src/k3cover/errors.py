"""Exception types shared across the package."""


class VerificationError(RuntimeError):
    """A certificate, witness or embedding does not verify.

    Raised when replay rejects a record, including a serialized one that
    is malformed or tampered with (a missing key, a wrong shape, a
    non-integer where an integer belongs), and when a `verify-lemmas` row
    fails.  Invalid arguments to the library's functions raise ValueError.
    """
