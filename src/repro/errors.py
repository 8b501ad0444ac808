"""Exception hierarchy for the SciLens reproduction.

Every error raised by the library derives from :class:`SciLensError` so that
callers can catch a single base class at the platform boundary.
"""

from __future__ import annotations


class SciLensError(Exception):
    """Base class for every error raised by the library."""


class ConfigurationError(SciLensError):
    """Raised when a component is constructed with invalid configuration."""


class ValidationError(SciLensError):
    """Raised when a domain object fails validation."""


class StorageError(SciLensError):
    """Base class for storage-layer errors."""


class SchemaError(StorageError):
    """Raised for schema definition or schema mismatch problems."""


class ConstraintViolation(StorageError):
    """Raised when an insert/update violates a table constraint."""


class TableNotFound(StorageError):
    """Raised when a statement references an unknown table."""


class ColumnNotFound(StorageError):
    """Raised when a statement references an unknown column."""


class TransactionError(StorageError):
    """Raised for illegal transaction state transitions."""


class WarehouseError(StorageError):
    """Raised by the distributed-storage (warehouse) layer."""


class FtsError(StorageError):
    """Raised by the full-text-search engine (segments, index, indexer)."""


class TransientFaultError(StorageError):
    """A fault that may succeed on retry (injected or simulated-environmental).

    Raised at the fault-injection sites (DFS read/write, broker publish/poll).  :class:`repro.storage.faults.RetryPolicy` treats this
    class — plus whatever extra classes a call site registers — as retryable.
    """


class RetryExhaustedError(StorageError):
    """Every retry attempt failed (or the timeout budget ran out).

    Carries the last underlying error as ``__cause__`` and the attempt count
    in :attr:`attempts` so health reporting can surface both.
    """

    def __init__(self, message: str, *, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


class CircuitOpenError(StorageError):
    """The circuit breaker is open: the operation was refused, not attempted.

    Protects a repeatedly-failing dependency (e.g. a poisoned CDC batch) from
    being hot-looped; callers back off until the cooldown lets a probe through.
    """


class StreamingError(SciLensError):
    """Base class for streaming-layer errors."""


class ComputeError(SciLensError):
    """Raised by the batch-compute substrate (job tracker)."""


class ModelError(SciLensError):
    """Raised by the ML substrate (fit/predict misuse, bad shapes)."""


class NotFittedError(ModelError):
    """Raised when ``predict``/``transform`` is called before ``fit``."""


class ScrapingError(SciLensError):
    """Raised by the web substrate when a document cannot be fetched/parsed."""


class ReviewError(SciLensError):
    """Raised by the expert-review subsystem."""


class ServiceError(SciLensError):
    """Base class for Indicators-API service errors."""


class RouteNotFound(ServiceError):
    """Raised when the gateway receives a request for an unknown route."""


class ArticleNotFound(SciLensError):
    """Raised when an article id/url is not present in the platform."""


class OutletNotFound(SciLensError):
    """Raised when an outlet domain is not present in the registry."""
