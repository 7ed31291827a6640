"""Exception hierarchy for the WarpGate reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one base class at API boundaries.  Subclasses are grouped
by subsystem: storage, warehouse, embedding, index, and discovery.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class StorageError(ReproError):
    """Base class for errors in the storage substrate."""


class TypeInferenceError(StorageError):
    """Raised when a value cannot be coerced to the inferred column type."""


class SchemaError(StorageError):
    """Raised for malformed schemas: duplicate column names, bad refs, etc."""


class CsvFormatError(StorageError):
    """Raised when a CSV payload cannot be parsed into a table."""


class ColumnNotFoundError(StorageError):
    """Raised when a column lookup by name or ref fails."""

    def __init__(self, column: str, table: str | None = None) -> None:
        self.column = column
        self.table = table
        location = f" in table {table!r}" if table else ""
        super().__init__(f"column {column!r} not found{location}")


class TableNotFoundError(StorageError):
    """Raised when a table lookup by name fails."""

    def __init__(self, table: str, database: str | None = None) -> None:
        self.table = table
        self.database = database
        location = f" in database {database!r}" if database else ""
        super().__init__(f"table {table!r} not found{location}")


class WarehouseError(ReproError):
    """Base class for errors in the simulated cloud data warehouse."""


class DatabaseNotFoundError(WarehouseError):
    """Raised when a database lookup by name fails."""

    def __init__(self, database: str) -> None:
        self.database = database
        super().__init__(f"database {database!r} not found in warehouse")


class ScanBudgetExceededError(WarehouseError):
    """Raised when a connector scan would exceed the configured byte budget."""

    def __init__(self, requested: int, remaining: int) -> None:
        self.requested = requested
        self.remaining = remaining
        super().__init__(
            f"scan of {requested} bytes exceeds remaining budget of "
            f"{remaining} bytes"
        )


class EmbeddingError(ReproError):
    """Base class for errors in the embedding substrate."""


class ModelNotTrainedError(EmbeddingError):
    """Raised when an embedding model is used before ``fit`` / training."""


class UnknownModelError(EmbeddingError):
    """Raised when the model registry cannot resolve a model name."""

    def __init__(self, name: str, available: tuple[str, ...] = ()) -> None:
        self.name = name
        self.available = available
        hint = f"; available: {', '.join(available)}" if available else ""
        super().__init__(f"unknown embedding model {name!r}{hint}")


class IndexError_(ReproError):
    """Base class for errors in the index substrate.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class EmptyIndexError(IndexError_):
    """Raised when querying an index with no entries."""


class DimensionMismatchError(IndexError_):
    """Raised when a vector's dimensionality does not match the index."""

    def __init__(self, expected: int, actual: int) -> None:
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"vector dimension mismatch: index expects {expected}, got {actual}"
        )


class DiscoveryError(ReproError):
    """Base class for errors in the discovery layer (WarpGate + baselines)."""


class NotIndexedError(DiscoveryError):
    """Raised when searching a discovery system before indexing a corpus."""


class InvalidQueryError(DiscoveryError):
    """Raised when a join query references unknown tables or columns."""


class DeadlineExceededError(DiscoveryError):
    """Raised when a request's deadline expires before its work completes.

    Carries how far past the deadline the request was when the expiry
    was observed; the serving boundary maps this to HTTP 504.
    """

    def __init__(self, message: str = "", *, overrun_s: float = 0.0) -> None:
        self.overrun_s = overrun_s
        detail = message or (
            f"request deadline exceeded by {overrun_s * 1e3:.1f} ms"
        )
        super().__init__(detail)


class PersistenceError(DiscoveryError):
    """Base class for errors loading or saving a stored index."""


class ArtifactCorruptionError(PersistenceError):
    """Raised when a stored index file fails structural or size validation.

    Carries the file path and, when known, the archive member whose
    bytes failed — a truncated file or an unreadable member produces a
    typed error instead of a raw ``zipfile``/``numpy`` traceback deep
    inside the loader.
    """

    def __init__(self, path, member: str | None = None, detail: str = "") -> None:
        self.path = str(path)
        self.member = member
        suspect = f" (member {member!r})" if member else ""
        tail = f": {detail}" if detail else ""
        super().__init__(f"corrupt index artifact {self.path}{suspect}{tail}")


class DurabilityError(PersistenceError):
    """Base class for errors in the durable (WAL + segment) store."""


class WalCorruptionError(DurabilityError):
    """Raised when a *complete* WAL frame fails its CRC or framing checks.

    A torn tail (crash mid-append) is expected damage and is discarded
    silently during recovery; a full frame whose checksum mismatches is
    real corruption and must surface, never be skipped.
    """

    def __init__(self, path, offset: int, detail: str = "") -> None:
        self.path = str(path)
        self.offset = offset
        tail = f": {detail}" if detail else ""
        super().__init__(
            f"corrupt WAL record in {self.path} at byte {offset}{tail}"
        )


class SegmentChecksumError(DurabilityError):
    """Raised when a manifest-listed segment fails its size/CRC check."""

    def __init__(self, path, expected: int, actual: int) -> None:
        self.path = str(path)
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"segment {self.path} failed its checksum: manifest says "
            f"{expected:#010x}, file hashes to {actual:#010x}"
        )


class ManifestError(DurabilityError):
    """Raised when the store manifest is missing, unparseable, or invalid."""

    def __init__(self, path, detail: str) -> None:
        self.path = str(path)
        super().__init__(f"bad manifest {self.path}: {detail}")


class EvaluationError(ReproError):
    """Base class for errors in the evaluation harness."""


class MissingGroundTruthError(EvaluationError):
    """Raised when metrics are requested for a corpus without ground truth."""
