"""Durable sessions: checkpoint/restore, write-ahead journal, chaos.

Reconciliation is pay-as-you-go — a session may run for days of human (or
crowd) attention, and losing its state means paying for the same answers
twice.  This package makes sessions survive process death and misbehaving
workers:

* :mod:`~repro.durability.checkpoint` — versioned JSON checkpoints of full
  live session state (Ω* masks, feedback, RNG streams, ledger, worker
  memory, trace), with atomic :func:`~repro.durability.checkpoint.save_checkpoint`
  / :func:`~repro.durability.checkpoint.restore_session`;
* :mod:`~repro.durability.journal` — the write-ahead feedback journal:
  verdicts are fsync'd before integration and transactions end with commit
  records, so a crash never loses an integrated answer;
* :mod:`~repro.durability.faults` — deterministic fault injection
  (:class:`~repro.durability.faults.FaultPlan`): worker timeouts with
  retry/backoff, dropouts, simulated latency, budget shocks and crash
  points;
* :mod:`~repro.durability.recovery` — :func:`~repro.durability.recovery.run_durable`
  / :func:`~repro.durability.recovery.recover`: auto-checkpointing run
  loops and crash recovery that re-executes journaled transactions under
  replay verification, bit-identical to the uninterrupted run.
"""

from .checkpoint import (
    CHECKPOINT_KIND,
    checkpoint_to_dict,
    faultplan_from_dict,
    faultplan_to_dict,
    restore_session,
    save_checkpoint,
    session_from_dict,
)
from .faults import FaultPlan, RetryPolicy, SimulatedCrash
from .journal import (
    COMMIT_TYPES,
    CorruptJournalError,
    FeedbackJournal,
    JOURNAL_KIND,
    JournalReplayError,
    read_journal,
    truncate_to_committed,
)
from .recovery import (
    CHECKPOINT_FILE,
    JOURNAL_FILE,
    RecoveryReport,
    recover,
    run_durable,
)

__all__ = [
    "CHECKPOINT_FILE",
    "CHECKPOINT_KIND",
    "COMMIT_TYPES",
    "CorruptJournalError",
    "FaultPlan",
    "FeedbackJournal",
    "JOURNAL_FILE",
    "JOURNAL_KIND",
    "JournalReplayError",
    "RecoveryReport",
    "RetryPolicy",
    "SimulatedCrash",
    "checkpoint_to_dict",
    "faultplan_from_dict",
    "faultplan_to_dict",
    "read_journal",
    "recover",
    "restore_session",
    "run_durable",
    "save_checkpoint",
    "session_from_dict",
    "truncate_to_committed",
]
