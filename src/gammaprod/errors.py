"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""
