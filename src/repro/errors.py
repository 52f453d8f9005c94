"""Exception hierarchy for the EMOGI reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the broad failure categories below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A system / experiment configuration value is invalid or inconsistent."""


class GraphFormatError(ReproError):
    """A graph is structurally invalid (bad CSR offsets, negative IDs, ...)."""


class AllocationError(ReproError):
    """An allocation request cannot be satisfied by the simulated memory."""


class SimulationError(ReproError):
    """The memory/traversal simulation reached an inconsistent state."""


class DatasetError(ReproError):
    """A named evaluation dataset is unknown or could not be generated."""


class ServiceError(ReproError):
    """A serving-layer (:mod:`repro.service`) operation failed."""


class AdmissionError(ServiceError):
    """A submission was rejected by admission control.

    Raised by :meth:`repro.service.Service.submit` when the pending queue is
    at its configured limit or the request's tenant has exhausted its quota.
    The offending ``tenant`` (possibly ``None`` for anonymous traffic) is
    attached so multi-tenant clients can tell a full server from their own
    quota without parsing the message.
    """

    def __init__(self, message: str, tenant: str | None = None) -> None:
        super().__init__(message)
        self.tenant = tenant


class InfeasibleDeadlineError(AdmissionError):
    """A deadline-carrying submission cannot possibly finish in time.

    Raised at :meth:`repro.service.Service.submit` when the cost model
    estimates that the backlog ahead of the request plus its own execution
    already exceeds the requested latency budget.  Rejecting on arrival beats
    letting the request expire in the queue: the client learns immediately
    and no queue slot is wasted on work that cannot be useful.
    """


class DeadlineExceededError(ServiceError):
    """A job's deadline passed while it was still waiting in the queue.

    The scheduler fails expired jobs *before* execution so a request that can
    no longer be useful never occupies an engine.
    """


class UnknownGraphError(ServiceError):
    """A traversal request names a graph the registry does not know."""


class JobNotFoundError(ServiceError):
    """A job identifier does not correspond to any submitted job."""


class JobFailedError(ServiceError):
    """A submitted traversal job failed while executing.

    The original exception is attached as ``__cause__`` and the failing job's
    identifier is available as :attr:`job_id`.
    """

    def __init__(self, message: str, job_id: str | None = None) -> None:
        super().__init__(message)
        self.job_id = job_id


class ServiceClosedError(ServiceError):
    """Work was submitted to (or was still queued in) a closed service.

    Raised by :meth:`repro.service.Service.submit` and
    :meth:`repro.service.workers.WorkerPool.submit` after shutdown, and set
    as the terminal result of jobs still queued when
    ``Service.close(cancel_pending=True)`` drops them — so callers blocked in
    ``Service.result()`` wake with a definite outcome instead of timing out.
    """


class RetryableError(ServiceError):
    """A transient serving failure that is safe to retry.

    The drain path retries these with exponential backoff + jitter (see
    :mod:`repro.service.resilience`), bounded by ``ServiceConfig.retry_limit``
    and clipped to the request's deadline.  Raise a plain ``ServiceError`` for
    failures where a retry cannot help.
    """


class FaultInjectedError(ServiceError):
    """Base of errors raised by the fault-injection substrate.

    Carries the armed :attr:`site` (e.g. ``"registry.load"``) so tests and
    the chaos harness can assert exactly which injection fired.
    """

    def __init__(self, message: str, site: str | None = None) -> None:
        super().__init__(message)
        self.site = site


class TransientFaultError(FaultInjectedError, RetryableError):
    """An injected fault that models a recoverable glitch (retryable)."""


class PermanentFaultError(FaultInjectedError):
    """An injected fault that models a hard failure (never retried)."""


class SweepTimeoutError(ServiceError):
    """A traversal sweep overran its budget and was cooperatively cancelled.

    Engines poll a :class:`repro.service.resilience.Cancellation` token at
    iteration boundaries; when the watchdog budget (absolute or cost-model
    derived) lapses, the sweep raises this instead of running unbounded.
    """


class StoreError(ServiceError):
    """The durable serving store (:mod:`repro.service.store`) failed.

    The service never surfaces these to requests: store trouble trips the
    store's circuit breaker and degrades serving to in-memory-only behavior
    (reads miss, writes drop).  Raised to *callers* only from the operator
    helpers (``repro store info`` / ``vacuum``) and invalid-usage paths.
    """


class NativeBackendError(ReproError):
    """A runtime-compiled native kernel failed to run.

    The serving tier re-runs the failed sweep once on the bit-identical numpy
    backend and counts it as degraded; clients see the same values.
    """
