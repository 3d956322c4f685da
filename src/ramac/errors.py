"""The package's two errors, one per CLI exit code.

ValidationError (exit 2) is a bad input or a broken contract; GuardExceeded
(exit 3) is a search or enumeration size past its hard limit, tripped before
any work. Each message names the check that failed.
"""


class ValidationError(Exception):
    """An input violates a structural or numerical contract."""


class GuardExceeded(Exception):
    """A hard resource guard would be exceeded; nothing was computed."""
