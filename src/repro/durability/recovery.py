"""Durable session driving and crash recovery.

:func:`run_durable` wraps a session's run loop with durability: a
write-ahead :class:`~repro.durability.journal.FeedbackJournal` (attached
before the first transaction), an initial checkpoint, and an automatic
checkpoint every ``checkpoint_every`` transactions plus one at the end.

:func:`recover` rebuilds a live session after a crash:

1. parse the journal, discard the torn tail (a transaction the crash
   interrupted mid-write — its effects never reached the trace durably) and
   atomically truncate the file to the committed prefix;
2. restore the session from the last checkpoint;
3. *re-execute* every committed transaction past the checkpoint.  Sessions
   are deterministic given their checkpointed RNG states, so the redo
   regenerates exactly the journaled verdicts — the journal is armed as a
   verifier (:meth:`FeedbackJournal.expect`) and any divergence raises
   :class:`~repro.durability.journal.JournalReplayError` instead of
   silently corrupting state.

The recovered session carries the re-attached journal and can simply keep
running — :func:`run_durable` accepts it unchanged.  The crash-recovery
equivalence tests assert the strong property this design buys: a session
killed at *any* round boundary and recovered produces a final trace
bit-identical to the run that never crashed.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Optional

from ..core.reconciliation import ReconciliationTrace, SessionCore
from ..crowd.session import CrowdTrace
from .checkpoint import restore_session, save_checkpoint
from .journal import (
    FeedbackJournal,
    JournalReplayError,
    read_journal,
    truncate_to_committed,
)

#: File names inside a durable-session directory.
CHECKPOINT_FILE = "checkpoint.json"
JOURNAL_FILE = "journal.jsonl"


@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`recover` found and did."""

    #: ``"crowd"`` or ``"expert"``.
    session_kind: str
    #: Journal seq the restored checkpoint was taken at.
    checkpoint_seq: int
    #: Committed journal records past the checkpoint (verified during redo).
    records_replayed: int
    #: Complete transactions re-executed from the checkpoint.
    transactions_redone: int
    #: Torn-tail records discarded (the crash-interrupted transaction).
    records_discarded: int


def _paths(directory: "str | pathlib.Path") -> tuple[pathlib.Path, pathlib.Path]:
    directory = pathlib.Path(directory)
    return directory / CHECKPOINT_FILE, directory / JOURNAL_FILE


def run_durable(
    session: SessionCore,
    directory: "str | pathlib.Path",
    *,
    checkpoint_every: int = 1,
    rounds: Optional[int] = None,
    questions: Optional[int] = None,
    budget: Optional[int] = None,
    effort_budget: Optional[float] = None,
    uncertainty_goal: Optional[float] = None,
) -> "CrowdTrace | ReconciliationTrace":
    """Run a session to its goal with journaling and auto-checkpoints.

    ``checkpoint_every`` counts transactions — rounds for a crowd session,
    steps for an expert one; ``0`` disables periodic checkpoints (the
    initial and final ones are always written).  Goal parameters mirror the
    sessions' own ``run``, whose goal loop this drives:
    ``rounds``/``questions``/``uncertainty_goal`` for crowds,
    ``budget``/``effort_budget``/``uncertainty_goal`` for the
    single-expert loop.

    A :class:`~repro.durability.faults.SimulatedCrash` (or a real one)
    propagates out with the journal's committed prefix durable on disk;
    :func:`recover` picks up from there.
    """
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be non-negative")
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    checkpoint_path, journal_path = _paths(directory)
    if session.journal is None:
        session.journal = FeedbackJournal.create(journal_path, session.kind)
    save_checkpoint(session, checkpoint_path)
    if session.kind == "crowd":
        records = session._until_goal(rounds, questions, uncertainty_goal)
    else:
        records = session._until_goal(budget, effort_budget, uncertainty_goal)
    for record in records:
        # A record's index is the session's transaction count.
        if checkpoint_every and record.index % checkpoint_every == 0:
            save_checkpoint(session, checkpoint_path)
    save_checkpoint(session, checkpoint_path)
    return session.trace


def recover(
    directory: "str | pathlib.Path",
) -> tuple[SessionCore, RecoveryReport]:
    """Restore a crashed durable session to exactly where it would have been.

    Returns the live session (journal re-attached, ready for more rounds or
    :func:`run_durable`) and a :class:`RecoveryReport` describing the redo.
    """
    checkpoint_path, journal_path = _paths(directory)
    header, committed, torn = read_journal(journal_path)
    if torn:
        truncate_to_committed(journal_path, header, committed)
    with open(checkpoint_path) as handle:
        document = json.load(handle)
    checkpoint_seq = int(document.get("journal_seq") or 0)
    pending = [
        record for record in committed if int(record["seq"]) > checkpoint_seq
    ]
    last_seq = int(committed[-1]["seq"]) if committed else checkpoint_seq
    journal = FeedbackJournal.resume(journal_path, next_seq=last_seq + 1)
    journal.expect(pending)
    session = restore_session(document, journal=journal)
    is_crowd = session.kind == "crowd"
    transactions_redone = 0
    last_delta: Optional[dict] = None
    for record in pending:
        kind = record.get("type")
        if kind == "delta":
            # Remember the write-ahead payload; the matching delta-commit
            # (if the crash let it land) triggers the re-execution.
            last_delta = record.get("delta")
        elif kind == "delta-commit":
            from ..io import delta_from_dict

            if last_delta is None:
                raise JournalReplayError(
                    "delta-commit without a preceding delta record"
                )
            delta = delta_from_dict(last_delta, session.pnet.network)
            # apply_delta re-appends both the delta and delta-commit
            # records, which the armed journal verifies against the log.
            session.apply_delta(delta)
            last_delta = None
            transactions_redone += 1
        elif kind == "round-commit" and is_crowd:
            session.round(max_questions=record.get("max_questions"))
            transactions_redone += 1
        elif kind == "step-commit" and not is_crowd:
            session.step()
            transactions_redone += 1
    if journal.replaying:
        raise JournalReplayError(
            "redo finished with journaled records unaccounted for: the "
            "restored session diverged from the journal"
        )
    return session, RecoveryReport(
        session_kind=document.get("session", "unknown"),
        checkpoint_seq=checkpoint_seq,
        records_replayed=len(pending),
        transactions_redone=transactions_redone,
        records_discarded=len(torn),
    )


__all__ = [
    "CHECKPOINT_FILE",
    "JOURNAL_FILE",
    "RecoveryReport",
    "recover",
    "run_durable",
]
