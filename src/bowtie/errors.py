"""Exception types shared across the package."""


class DataError(Exception):
    """Malformed or inconsistent input data (files, corpora, encodings)."""


class CheckpointError(DataError):
    """Unreadable, truncated, or version-incompatible checkpoint file."""


class FingerprintError(DataError):
    """A checkpoint was applied to data built against a different vocabulary."""


class DivergenceError(RuntimeError):
    """Training produced non-finite values (exploding parameters or loss)."""
