"""Exception types shared across the package, and the one check of a count."""

# The largest head length: beyond 2^53, m + 1 is not exact.
HEAD_MAX = 2**53


class DomainError(ValueError):
    """An argument outside an operation's domain; ``params`` name the inputs its message blames."""

    def __init__(self, message: str, *params: str) -> None:
        super().__init__(message)
        self.params = params


def check_int(value: int, name: str, low: int, high: int | None = None) -> int:
    """``value`` if it is an int, not a bool or a float, in [low, high] (with
    no ``high``, at least ``low``); else a DomainError that names ``name``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an int, got {value!r}", name)
    if high is None:
        if value < low:
            raise DomainError(f"{name} must be >= {low}, got {value}", name)
    elif not low <= value <= high:
        raise DomainError(f"{name} must lie in [{low}, {'2^53' if high == HEAD_MAX else high}], got {value}", name)
    return value
