"""Shared exception types."""


class CapExceeded(RuntimeError):
    """A computation would exceed its configured size cap.

    Carries the cap and the size that was requested so callers can report
    partial results instead of dying."""

    def __init__(self, what: str, needed: int, cap: int):
        super().__init__(
            f"{what} needs {needed} which exceeds the cap {cap}; "
            f"raise the cap explicitly to proceed"
        )
        self.what = what
        self.needed = needed
        self.cap = cap


class CatalogError(ValueError):
    """Malformed catalog data or a failed catalog validation check."""
