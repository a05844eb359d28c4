"""Exceptions raised by the simulated cloud back-end."""

from __future__ import annotations

from typing import Optional


class CloudError(Exception):
    """Base class for cloud-side failures."""


class TransientError(CloudError):
    """A temporary, retryable failure (brownout, throttling).

    ``retry_at`` is the earliest virtual time a retry can succeed (the end
    of the fault window), when the service discloses it.  ``elapsed`` is
    filled in by the client with the wall-clock cost of the failed attempt.
    """

    def __init__(self, message: str = "", retry_at: Optional[float] = None):
        super().__init__(message)
        self.retry_at = retry_at
        self.elapsed = 0.0


class ServiceUnavailable(TransientError):
    """The service is down for maintenance or overloaded (HTTP 503)."""


class RateLimited(TransientError):
    """The client exceeded its request budget (HTTP 429, Retry-After)."""


class NotFound(CloudError):
    """The requested object, file, or account does not exist."""


class AlreadyExists(CloudError):
    """Create-only operation hit an existing key."""


class QuotaExceeded(CloudError):
    """Account storage quota would be exceeded by the operation."""


class StaleBasis(CloudError):
    """A delta's basis is no longer the path's head: another writer
    replaced or deleted it first (HTTP 412)."""


class IntegrityError(CloudError):
    """Stored data failed a digest check — corruption in the pipeline."""


def annotate_manifest_error(error: CloudError, key: str, position: int,
                            total: int) -> CloudError:
    """Rebuild ``error`` so it names the failing chunk and manifest slot.

    Multi-chunk fetches must not swallow *which* entry failed — audits need
    to attribute corruption to a specific key.  The annotated copy carries
    ``key`` and ``position`` attributes for programmatic use and keeps the
    original message.
    """
    annotated = type(error)(
        f"{error} (chunk {key!r} at manifest position "
        f"{position + 1} of {total})")
    annotated.key = key            # type: ignore[attr-defined]
    annotated.position = position  # type: ignore[attr-defined]
    return annotated
