"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library-specific failures with a single ``except`` clause
while still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SchemaError(ReproError):
    """A tuple or atom does not match the declared relation schema."""


class QueryError(ReproError):
    """A query is malformed (unknown relation, arity mismatch, unsafe rule...)."""


class ParseError(QueryError):
    """A textual query, atom or Datalog rule could not be parsed."""


class DatalogError(ReproError):
    """A Datalog program is invalid (unsafe rule, recursive negation, ...)."""


class CausalityError(ReproError):
    """A causality or responsibility computation was invoked on invalid input."""


class NotLinearError(CausalityError):
    """The flow-based responsibility algorithm was invoked on a query that is
    not (weakly) linear.  Callers should use the dichotomy classifier first or
    fall back to the exact exponential algorithm."""


class BackendError(ReproError):
    """An execution backend (e.g. SQLite) cannot represent or load the given
    instance, or was asked to evaluate a query it does not support."""


class FanOutError(CausalityError):
    """The parallel fan-out layer could not run as requested (e.g. the pool
    lost chunks without reporting an error).  Derives from
    :class:`CausalityError` so callers guarding an ``explain_all`` keep
    catching one exception type whether it runs serial or fanned out."""


class FanOutWorkerError(FanOutError):
    """A fan-out worker failed (raised, or its process died).

    Attributes
    ----------
    targets:
        The targets of the failed worker's chunk.  When the failure could be
        attributed to a single target (the worker raised while computing it),
        this is a one-element tuple and :attr:`target` names it; when the
        worker *process* died mid-chunk, every target of the chunk is listed.
    transport:
        What ran the worker: ``"serial"``, ``"fork"`` or ``"spawn"``.
    detail:
        Human-readable failure detail (exception repr or worker traceback).
    requested:
        The full target list of the batch the failure aborted, when the
        batch layer knows it (``explain_all`` sets it on the way out).
        Streaming consumers use it to mark results partial: requested minus
        delivered minus failed is exactly the never-delivered set.
    """

    def __init__(self, message: str, targets=(), transport: str = "unknown",
                 detail: str = ""):
        super().__init__(message)
        self.targets = tuple(targets)
        self.transport = transport
        self.detail = detail
        self.requested: tuple = ()

    @property
    def target(self):
        """The offending target when the failure names exactly one."""
        return self.targets[0] if len(self.targets) == 1 else None


class ReductionError(ReproError):
    """A hardness-reduction helper received an invalid instance."""


class ServerError(ReproError):
    """Base for errors of the explanation service (``repro serve``).

    Every server error carries a short machine-readable :attr:`code` that the
    wire protocol echoes in its typed ``error`` frames, so clients can react
    without parsing human-readable messages.
    """

    code: str = "server-error"

    def __init__(self, message: str, code: str = ""):
        super().__init__(message)
        if code:
            self.code = code


class ProtocolError(ServerError):
    """A request frame is malformed (bad JSON, unknown op, missing field)."""

    code = "bad-request"


class AdmissionError(ServerError):
    """A request was rejected by admission control, not by a failure.

    The 429 of the explanation service: the per-session queue is full
    (``queue-full``), the request exceeds the configured cost cap
    (``cost-cap``), or the frame is larger than the server accepts
    (``oversized-request``).  The work was never started, so the client may
    retry later or with a cheaper request.
    """

    code = "rejected"


class RequestTimeout(ServerError):
    """A request exceeded the per-request time budget and was abandoned."""

    code = "timeout"
