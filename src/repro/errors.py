"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SequenceError(ReproError):
    """Invalid sequence data (bad characters, bad k, malformed records)."""


class FastaFormatError(SequenceError):
    """Malformed FASTA input."""


class PipelineError(ReproError):
    """A Trinity pipeline stage failed or was invoked out of order."""


class CommError(ReproError):
    """Misuse of the simulated MPI communicator."""


class CommAbandonedError(CommError):
    """A blocking communication op was abandoned because a *peer* rank
    failed.  This is always a secondary symptom, never the root cause —
    the launcher's primary-failure picker uses the type tag to surface
    the genuine originating exception instead of whichever abandoned rank
    happens to sort first."""


class MpiAbortError(CommError):
    """An ``mpirun`` aborted on a rank failure.

    Carries enough structure for a recovery layer to act on the failure:
    the primary failing rank, each rank's virtual clock at abort time,
    the spans recorded before the abort, and the secondary failures that
    the primary caused (also chained via ``__cause__``/notes).
    """

    def __init__(
        self,
        message: str,
        rank: int = -1,
        elapsed=(),
        spans=(),
        secondaries=(),
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.elapsed = list(elapsed)
        self.spans = list(spans)
        self.secondaries = list(secondaries)


class FaultError(ReproError):
    """An injected fault from the simulated fault-tolerance layer."""


class RankCrash(FaultError):
    """An injected fail-stop rank crash: the rank is dead for the rest of
    the attempt.  Recoverable by rerunning on the surviving ranks."""

    def __init__(self, message: str, rank: int = -1) -> None:
        super().__init__(message)
        self.rank = rank


class TransientIOError(FaultError):
    """An injected transient I/O failure; retryable with backoff."""


class ScheduleError(ReproError):
    """Invalid scheduling parameters (chunk size, rank counts, ...)."""


class ValidationError(ReproError):
    """Validation harness was given incomparable inputs."""


class ObsError(ReproError):
    """Observability request that the run cannot satisfy (e.g. asking for
    a critical path of an untraced run)."""
