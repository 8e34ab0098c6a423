"""The write-ahead feedback journal: durable intent before integration.

Sessions append one JSON line per elicitation *before* feeding the verdict
through the feedback plumbing (``flush`` + ``os.fsync`` per record), then a
``round-commit`` / ``step-commit`` line once the whole transaction is in the
trace.  A crash therefore leaves the journal in one of two shapes:

* ends on a commit record — every journaled transaction is fully integrated
  in the last checkpoint-plus-redo state;
* ends mid-transaction (a *torn tail*, possibly with a half-written final
  line) — the tail's effects died with the process and are discarded on
  recovery, then re-executed live.

Replay does **not** inject journaled verdicts.  Sessions are deterministic
given their checkpointed RNG states, so recovery re-executes the committed
rounds and the journal serves as a *verifier*: :meth:`FeedbackJournal.expect`
arms the journal with the committed tail, and every re-executed append is
compared against the corresponding journaled record —
:class:`JournalReplayError` on any divergence — instead of being rewritten.
This is what makes crash recovery bit-identical to the uninterrupted run:
restored workers re-draw the same answers from the same RNG positions, and
the journal proves it.  A journaled delta is compared with its document's
supported format ``version`` set aside, so a delta committed under an
older format redoes under the current one.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import deque
from typing import Optional

from ..io import FORMAT_VERSION, SUPPORTED_VERSIONS, FormatError

#: Record types that delimit one committed transaction.  A
#: ``delta-commit`` seals a write-ahead network-delta transaction (the
#: preceding ``delta`` record carries the full payload, so recovery can
#: re-execute it); a crash between the two leaves a torn tail and the
#: delta never happened.
COMMIT_TYPES = ("round-commit", "step-commit", "delta-commit")

JOURNAL_KIND = "feedback-journal"


class JournalReplayError(RuntimeError):
    """A re-executed transaction diverged from its journaled record."""


class CorruptJournalError(FormatError):
    """An unparseable journal line with further records after it.

    Only the final line can be torn by a crash; damage anywhere else would
    silently drop the committed records behind it, so recovery refuses.
    ``line`` is the 1-based file line of the damage and ``last_seq`` the
    ``seq`` of the last record parsed before it (0 if none).
    """

    def __init__(self, line: int, last_seq: int):
        super().__init__(
            f"journal line {line} is damaged and followed by further "
            f"records (last good seq {last_seq})"
        )
        self.line = line
        self.last_seq = last_seq


def _replay_form(record: dict) -> dict:
    """A record as replay verification compares it.

    A ``delta`` record embeds its document's format ``version``, and the
    redo re-encodes the delta under the current ``FORMAT_VERSION``; so a
    committed delta written before a format bump would never match.  Any
    supported version is set aside — the document's content still has to
    match in full.
    """
    document = record.get("delta")
    if (
        record.get("type") == "delta"
        and isinstance(document, dict)
        and document.get("version") in SUPPORTED_VERSIONS
    ):
        document = {k: v for k, v in document.items() if k != "version"}
        return {**record, "delta": document}
    return record


class FeedbackJournal:
    """Append-only JSONL journal with fsync-before-integration semantics.

    Use :meth:`create` for a fresh run and :meth:`resume` after recovery;
    the constructor itself never touches the file.
    """

    def __init__(self, path: "str | pathlib.Path", next_seq: int = 1):
        self.path = pathlib.Path(path)
        self._next_seq = next_seq
        self._expected: deque[dict] = deque()
        self.replayed = 0

    @classmethod
    def create(cls, path: "str | pathlib.Path", session: str) -> "FeedbackJournal":
        """Start a fresh journal (truncating any previous file)."""
        journal = cls(path)
        header = {
            "kind": JOURNAL_KIND,
            "version": FORMAT_VERSION,
            "session": session,
        }
        with open(journal.path, "w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        return journal

    @classmethod
    def resume(cls, path: "str | pathlib.Path", next_seq: int) -> "FeedbackJournal":
        """Re-open an existing journal for appending after ``next_seq - 1``."""
        return cls(path, next_seq=next_seq)

    @property
    def seq(self) -> int:
        """Sequence number of the last record written (0 for a fresh log)."""
        return self._next_seq - 1

    @property
    def replaying(self) -> bool:
        """True while armed with expected records from a recovery."""
        return bool(self._expected)

    def expect(self, records: list[dict]) -> None:
        """Arm replay verification with the committed journal tail."""
        self._expected = deque(records)

    def append(self, record: dict) -> int:
        """Journal one record durably; returns its sequence number.

        While replaying, the record is matched against the next expected
        one instead of being written — the journal already holds it.
        """
        if self._expected:
            expected = self._expected.popleft()
            stamped = {"seq": expected.get("seq"), **record}
            if _replay_form(stamped) != _replay_form(expected):
                raise JournalReplayError(
                    "re-executed record diverged from the journal: "
                    f"expected {expected!r}, got {stamped!r}"
                )
            self.replayed += 1
            self._next_seq = max(self._next_seq, int(expected["seq"]) + 1)
            return int(expected["seq"])
        stamped = {"seq": self._next_seq, **record}
        with open(self.path, "a") as handle:
            handle.write(json.dumps(stamped, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._next_seq += 1
        return stamped["seq"]


def read_journal(
    path: "str | pathlib.Path",
) -> tuple[dict, list[dict], list[dict]]:
    """Parse a journal into ``(header, committed, torn_tail)``.

    ``committed`` is every record up to and including the last commit
    record; ``torn_tail`` is whatever follows it — a transaction the crash
    interrupted, whose effects were never integrated durably.  A trailing
    half-written line (torn by the crash mid-write) is tolerated and folded
    into the torn tail's count implicitly by being unparseable-and-ignored.
    Only the final line can be torn: an unparseable line followed by any
    non-empty line raises :class:`CorruptJournalError`.
    """
    lines = pathlib.Path(path).read_text().splitlines()
    if not lines:
        raise FormatError("empty journal file")
    header = _parse_record(lines[0])
    if (
        header is None
        or header.get("kind") != JOURNAL_KIND
        or header.get("version") not in SUPPORTED_VERSIONS
    ):
        raise FormatError("not a feedback-journal file of a supported version")
    records: list[dict] = []
    for position, line in enumerate(lines[1:], start=1):
        record = _parse_record(line)
        if record is None:
            if any(rest.strip() for rest in lines[position + 1 :]):
                last_seq = records[-1].get("seq", 0) if records else 0
                raise CorruptJournalError(position + 1, last_seq)
            break  # torn final line: the crash hit mid-write
        records.append(record)
    last_commit = -1
    for position, record in enumerate(records):
        if record.get("type") in COMMIT_TYPES:
            last_commit = position
    committed = records[: last_commit + 1]
    torn = records[last_commit + 1 :]
    return header, committed, torn


def _parse_record(line: str) -> Optional[dict]:
    """One journal line as a record, or ``None`` when it is not one."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


def truncate_to_committed(
    path: "str | pathlib.Path",
    header: dict,
    committed: list[dict],
) -> None:
    """Atomically rewrite the journal without its torn tail."""
    path = pathlib.Path(path)
    tmp: Optional[pathlib.Path] = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in committed:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
