"""Checkpoint/resume for long black-box attack loops.

QAIR-style query-efficient attacks and the paper's SparseQuery issue
thousands of *sequential* queries; a single mid-run
:class:`~repro.errors.RetrievalUnavailable` used to throw the whole run
away.  A :class:`CheckpointSession` makes the loops durable:

* at the top of every iteration the loop calls :meth:`mark` — a cheap
  in-memory capture of the loop state *before* any rng is consumed;
* when an evaluation raises ``RetrievalUnavailable`` the loop calls
  :meth:`persist`, which writes the marked state (rng bit-generator
  state, perturbation, trace, cursor, and the service/objective query
  accounting) to disk and lets the error propagate;
* a later call with the same ``checkpoint_path`` resumes from the mark
  and replays the interrupted iteration from its start.

Resume is **bit-identical**: the rng stream, the trace, the accepted
perturbations, and the final query accounting all match an uninterrupted
run.  The partially-executed iteration's evaluations are rolled back on
the service/objective side (the marked counts are restored), so nothing
is double-counted.  Process-global obs counters are monotonic by design
and are *not* rolled back.
"""

from __future__ import annotations

import copy
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs import counter

#: On-disk format version (bump on incompatible payload changes).
CHECKPOINT_VERSION = 1


@dataclass
class AttackCheckpoint:
    """Everything needed to resume an attack loop bit-identically."""

    algo: str
    iteration: int
    rng_state: dict
    service_query_count: int | None
    objective_queries: int | None
    objective_trace_len: int | None
    payload: dict = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION
    #: Service ledger at the mark (a resume never rewinds issued).
    service_queries_issued: int | None = None


def _copy_value(value):
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, list):
        return list(value)
    return value


def save_checkpoint(path: str | Path, checkpoint: AttackCheckpoint) -> None:
    """Atomically write ``checkpoint`` to ``path`` (tmp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(checkpoint, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    counter("resilience.checkpoint_saves").inc()


def load_checkpoint(path: str | Path) -> AttackCheckpoint | None:
    """Read a checkpoint, or ``None`` when the file does not exist."""
    path = Path(path)
    if not path.exists():
        return None
    with path.open("rb") as handle:
        checkpoint = pickle.load(handle)
    if not isinstance(checkpoint, AttackCheckpoint):
        raise ValueError(f"{path} is not an attack checkpoint")
    if checkpoint.version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {checkpoint.version} unsupported "
            f"(expected {CHECKPOINT_VERSION})")
    return checkpoint


class CheckpointSession:
    """Per-run helper binding a loop, its rng, and its objective.

    ``path=None`` disables everything at zero cost: :meth:`mark` and
    :meth:`persist` become no-ops and :meth:`resume` returns ``None``.
    """

    def __init__(self, path: str | Path | None, algo: str, objective,
                 rng: np.random.Generator) -> None:
        self.path = Path(path) if path is not None else None
        self.algo = str(algo)
        self.objective = objective
        self.rng = rng
        self._mark: AttackCheckpoint | None = None

    @property
    def enabled(self) -> bool:
        return self.path is not None

    def _restore_counts(self, checkpoint: AttackCheckpoint) -> None:
        service = getattr(self.objective, "service", None)
        if service is not None and checkpoint.service_query_count is not None:
            service.query_count = checkpoint.service_query_count
            if checkpoint.service_queries_issued is not None:
                # Issue ordinals key fault draws, so they never rewind:
                # what the interrupted iteration charged is refunded.
                service.queries_issued = max(
                    service.queries_issued, checkpoint.service_queries_issued)
                service.queries_refunded = \
                    service.queries_issued - service.query_count
        if checkpoint.objective_queries is not None:
            self.objective.queries = checkpoint.objective_queries
        if checkpoint.objective_trace_len is not None:
            del self.objective.trace[checkpoint.objective_trace_len:]

    # -------------------------------------------------------------- #
    # Loop protocol
    # -------------------------------------------------------------- #
    def resume(self) -> dict | None:
        """Restore a saved state, or ``None`` for a fresh start.

        Rewinds the rng to the marked state and rolls the service charge
        and objective accounting back to the mark, undoing any
        evaluations of the interrupted iteration.
        """
        if not self.enabled:
            return None
        checkpoint = load_checkpoint(self.path)
        if checkpoint is None:
            return None
        if checkpoint.algo != self.algo:
            raise ValueError(
                f"checkpoint at {self.path} was written by "
                f"{checkpoint.algo!r}, not {self.algo!r}")
        self.rng.bit_generator.state = copy.deepcopy(checkpoint.rng_state)
        self._restore_counts(checkpoint)
        counter("resilience.checkpoint_restores").inc()
        return {"iteration": checkpoint.iteration, **checkpoint.payload}

    def mark(self, iteration: int, **payload) -> None:
        """Capture loop state at the top of ``iteration`` (pre-rng).

        Mutable payload values (arrays, lists) are copied so later loop
        mutation cannot corrupt the mark.
        """
        if not self.enabled:
            return
        service = getattr(self.objective, "service", None)
        trace = getattr(self.objective, "trace", None)
        self._mark = AttackCheckpoint(
            algo=self.algo,
            iteration=int(iteration),
            rng_state=copy.deepcopy(self.rng.bit_generator.state),
            service_query_count=getattr(service, "query_count", None),
            objective_queries=getattr(self.objective, "queries", None),
            objective_trace_len=None if trace is None else len(trace),
            payload={key: _copy_value(value)
                     for key, value in payload.items()},
            service_queries_issued=getattr(service, "queries_issued", None),
        )

    def persist(self) -> None:
        """Write the latest mark to disk (called on RetrievalUnavailable)."""
        if not self.enabled or self._mark is None:
            return
        save_checkpoint(self.path, self._mark)

    def complete(self) -> None:
        """Delete the checkpoint after a successful run."""
        if self.enabled and self.path.exists():
            self.path.unlink()


__all__ = [
    "AttackCheckpoint",
    "CheckpointSession",
    "load_checkpoint",
    "save_checkpoint",
    "CHECKPOINT_VERSION",
]
