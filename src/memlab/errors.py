"""Exception types raised across the library, and require: the one range
check of every config field, layer setting and entry point argument.

Everything user-facing derives from MemlabError so callers (and the CLI)
can distinguish expected failures from bugs.
"""


class MemlabError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MemlabError):
    """Array shapes are incompatible with an operation or layer."""


class BadMagicError(MemlabError):
    """A binary file does not start with the expected magic number."""


class VersionError(MemlabError):
    """A checkpoint file declares an unsupported format version."""


class TruncatedError(MemlabError):
    """A binary file ends before its declared payload is complete."""


class CountMismatchError(MemlabError):
    """Image count and label count of a dataset pair disagree."""


class NonFiniteError(MemlabError):
    """A NaN or Inf appeared where only finite values are allowed."""


class TrainingDivergedError(MemlabError):
    """Training produced a non-finite loss."""


class ConfigError(MemlabError):
    """A run configuration file is malformed.

    Carries the 1-based line number when the offending line is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UsageError(MemlabError):
    """Command line arguments are malformed (exit code 1 territory)."""


class RangeError(MemlabError, ValueError):
    """A setting, argument or input lies outside what it may be: require's
    range checks, and every refusal of a caller's value.  Also a
    ValueError, so a handler of ValueError catches it too."""


def require(obj, ok, rule: str, *names: str) -> None:
    """Range check whose message starts with the name, for blame: ``names``
    are attributes of ``obj``, or keys of a dict such as a function's locals()."""
    for name in names:
        value = obj[name] if isinstance(obj, dict) else getattr(obj, name)
        if not ok(value):
            raise RangeError(f"{name} must be {rule}, got {value!r}")


def u64(value: int) -> bool:
    return 0 <= value < 2**64
