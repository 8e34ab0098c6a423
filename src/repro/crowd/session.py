"""The crowd reconciliation loop: batched top-k rounds over a worker pool.

:class:`CrowdSession` is the crowd-scale counterpart of
:class:`~repro.core.reconciliation.ReconciliationSession`.  Instead of one
expert answering one question per step, each :meth:`round`:

1. **selects** the top-``k`` questions by the ``criterion`` strategy's
   :meth:`~repro.core.selection.SelectionStrategy.scores` — the very
   scores the single-expert argmax reads (information gain over the
   sample-membership matrix, the folded probability vector, or marginal
   entropies) — with a stable sort and conflict-partner diversification;
2. **dispatches** every question to ``redundancy`` distinct workers via the
   assignment policy, charging the budget ledger per answer (questions are
   truncated or skipped when the cap cannot fund them — budget exhaustion
   mid-round is a first-class outcome, not an error);
3. **aggregates** each question's votes into one approve/disapprove verdict
   and integrates it through the same
   :meth:`~repro.core.reconciliation.SessionCore.integrate_verdict` the
   single-expert loop uses — ``record_assertion`` plus, for approvals that
   contradict Γ, minority-side conflict repair;
4. **records** the round — questions, votes, verdicts, conflicts, spend and
   the resulting uncertainty/effort — in a :class:`CrowdTrace`, and updates
   the per-worker agreement statistics that the reliability-weighted
   aggregator and reliability-aware routing learn from.

Within a round the batch is committed as selected: answering question 1 may
shift the gains of questions 2..k (gains are estimated against the state at
selection time), which is the throughput-for-freshness trade every batched
crowd platform makes.  The paper's sequential loop is the ``k=1`` special
case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

import numpy as np

from ..core.correspondence import Correspondence
from ..core.probability import ProbabilisticNetwork
from ..core.reconciliation import SessionCore
from ..core.selection import make_strategy
from ..io import correspondence_to_dict
from .aggregation import Aggregator, MajorityVote, Vote, WorkerStats
from .assignment import AssignmentPolicy, RoundRobinAssignment
from .budget import BudgetLedger
from .workers import WorkerPool

#: Question-selection criteria a session supports: the registered
#: selection strategies whose scores a round ranks.
CRITERIA = ("information-gain", "likelihood", "entropy")


@dataclass(frozen=True)
class CrowdRound:
    """One dispatched round: questions, votes, verdicts, money, state."""

    index: int
    questions: tuple[Correspondence, ...]
    verdicts: tuple[bool, ...]
    #: Per question, the ``(worker_id, vote)`` pairs that were collected.
    votes: tuple[tuple[Vote, ...], ...]
    conflicts_resolved: int
    approvals_retracted: int
    #: True when the budget cap cut redundancy or dropped questions.
    truncated: bool
    spent: float
    answers: int
    uncertainty: float
    effort: float
    # Fault-injection accounting (repro.durability.faults).  All default to
    # the fault-free values so traces of un-faulted sessions are unchanged.
    #: Answers lost to timeouts — after retries, so a transient timeout a
    #: retry recovered does not count (or degrade the round).
    timeouts: int = 0
    #: Workers who abandoned a question outright (never retried).
    dropouts: int = 0
    #: Questions that collected zero votes (re-queued or skipped).
    unanswered: tuple[Correspondence, ...] = ()
    #: True when any fault degraded this round (partial votes, lost
    #: questions) — the graceful-degradation flag, distinct from the
    #: budget-driven ``truncated``.
    degraded: bool = False
    #: Simulated seconds of answer latency + backoff accumulated.
    latency: float = 0.0
    #: Budget delta a fault plan applied at the start of this round.
    shock: float = 0.0


@dataclass
class CrowdTrace:
    """The full history of a crowd session, ready for plotting/reporting."""

    initial_uncertainty: float
    rounds: list[CrowdRound] = field(default_factory=list)

    @property
    def uncertainties(self) -> list[float]:
        """Uncertainty after 0, 1, 2, … rounds."""
        return [self.initial_uncertainty] + [r.uncertainty for r in self.rounds]

    @property
    def spends(self) -> list[float]:
        """Cumulative spend after 0, 1, 2, … rounds."""
        return [0.0] + [r.spent for r in self.rounds]

    @property
    def questions_asked(self) -> int:
        return sum(len(r.questions) for r in self.rounds)

    @property
    def answers_collected(self) -> int:
        return self.rounds[-1].answers if self.rounds else 0

    @property
    def final_uncertainty(self) -> float:
        return (
            self.rounds[-1].uncertainty
            if self.rounds
            else self.initial_uncertainty
        )

    def uncertainty_at_spend(self, spend: float) -> float:
        """Uncertainty after the last round whose cumulative spend ≤ spend."""
        uncertainty = self.initial_uncertainty
        for round_record in self.rounds:
            if round_record.spent > spend + 1e-12:
                break
            uncertainty = round_record.uncertainty
        return uncertainty


class CrowdSession(SessionCore):
    """Drives crowd reconciliation of one probabilistic network.

    Parameters
    ----------
    pnet:
        The probabilistic matching network ⟨N, P⟩ being reconciled.
    pool:
        The simulated worker pool answering questions.
    k:
        Questions dispatched per round (the batching lever).  A round
        skips conflict partners of already-picked questions, backfilling
        from them only if fewer than ``k`` diverse candidates exist:
        same-violation candidates carry heavily overlapping information,
        so a diversified batch loses far less to within-round staleness.
    redundancy:
        Distinct workers per question (clamped to the pool size).
    criterion:
        Question ranking, by the scores of the selection strategy of that
        name: ``information-gain`` (needs a sampled or sharded estimator),
        ``likelihood`` or ``entropy``.  Ranking ties break to the lower
        candidate index — batch selection is deterministic by design, so
        crowd traces are reproducible given the pool seed.
    assignment / aggregator / ledger:
        Routing policy, vote-aggregation rule and budget; default
        round-robin, majority vote, uncapped unit-cost ledger.
    on_conflict:
        ``"disapprove"`` (default — crowds *will* err) repairs approvals
        that contradict Γ by minority-side retraction; ``"raise"``
        propagates :class:`~repro.core.instances.InconsistentFeedbackError`.
    faults:
        Optional :class:`~repro.durability.faults.FaultPlan` injected into
        dispatch: per-attempt timeouts (retried with exponential backoff
        when the plan carries a retry policy), worker dropouts, simulated
        latency with a per-question deadline, budget shocks and a
        crash-at-round.  ``None`` (default) leaves the dispatch path —
        and therefore every existing golden trace — bit-identical.
    journal:
        Optional :class:`~repro.durability.journal.FeedbackJournal`; when
        attached, every aggregated verdict is journaled durably *before*
        integration and every round ends with a commit record.
    """

    kind = "crowd"

    def __init__(
        self,
        pnet: ProbabilisticNetwork,
        pool: WorkerPool,
        k: int = 4,
        redundancy: int = 3,
        criterion: str = "information-gain",
        assignment: Optional[AssignmentPolicy] = None,
        aggregator: Optional[Aggregator] = None,
        ledger: Optional[BudgetLedger] = None,
        on_conflict: str = "disapprove",
        faults=None,
        journal=None,
    ):
        if k < 1:
            raise ValueError("k must be at least 1")
        if redundancy < 1:
            raise ValueError("redundancy must be at least 1")
        if criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")
        super().__init__(pnet, on_conflict, journal)
        self.pool = pool
        self.k = k
        self.redundancy = min(redundancy, len(pool))
        self.criterion = criterion
        self._scorer = make_strategy(criterion)
        self.assignment = assignment or RoundRobinAssignment()
        self.aggregator = aggregator or MajorityVote()
        self.ledger = ledger or BudgetLedger()
        self.faults = faults
        self.stats = WorkerStats()
        self._assertion_order: dict[Correspondence, int] = {}
        #: Questions that collected zero votes under fault injection and
        #: were re-queued; served ahead of fresh selections next round.
        self._requeued: list[Correspondence] = []
        self.trace = CrowdTrace(initial_uncertainty=self.uncertainty())

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    def per_worker_report(self) -> Mapping[str, dict]:
        """Per-worker trace summary: answers, spend share, estimated and
        true accuracy — the marketplace-operator view."""
        answers = self.ledger.per_worker_answers
        report: dict[str, dict] = {}
        for worker in self.pool:
            worker_id = worker.worker_id
            report[worker_id] = {
                "answers": answers.get(worker_id, 0),
                "estimated_accuracy": self.stats.accuracy(worker_id),
                "true_accuracy": 1.0 - worker.error_rate,
            }
        return report

    # ------------------------------------------------------------------
    # Top-k question selection (batched arrays)
    # ------------------------------------------------------------------
    def select_questions(self) -> list[Correspondence]:
        """The round's top-``k`` questions under the session criterion.

        Questions re-queued by fault injection (zero votes collected) are
        served first — they were already judged worth asking and their
        information was never bought; the remaining slots come from the
        fresh ranking.  Without faults the re-queue is always empty and
        this is exactly the ranked selection.
        """
        if not self._requeued:
            return self._select_ranked()
        feedback = self.pnet.feedback
        requeued: list[Correspondence] = []
        seen: set[Correspondence] = set()
        for corr in self._requeued:
            if corr not in seen and not feedback.is_asserted(corr):
                requeued.append(corr)
                seen.add(corr)
        self._requeued = []
        if len(requeued) >= self.k:
            return requeued[: self.k]
        fresh = [c for c in self._select_ranked() if c not in seen]
        return (requeued + fresh)[: self.k]

    def _select_ranked(self) -> list[Correspondence]:
        """The criterion's top-``k`` ranking over the strategy's scores.

        The scores are exactly those the single-expert strategy of the
        same name takes its argmax over
        (:meth:`~repro.core.selection.SelectionStrategy.scores`).  When no
        uncertain candidate remains but unasserted ones do, those are
        served in index order (zero gain — the same fallback the
        single-expert strategies use, so budget sweeps keep moving).
        """
        pnet = self.pnet
        columns, scores = self._scorer.scores(pnet)
        if len(columns) == 0:
            remaining = pnet.unasserted_indices()[: self.k]
            return [pnet.correspondences[int(i)] for i in remaining]
        # Stable descending sort: equal scores keep ascending candidate
        # index, making batch selection deterministic.
        order = np.argsort(-scores, kind="stable")
        # Diversified top-k: two candidates joined by a compiled violation
        # carry heavily overlapping information (answering one collapses the
        # other), so a batch that takes both wastes a slot — gains are
        # estimated against the state at selection time, not after the
        # batch-mates' answers.  Greedily skip conflict partners of already
        # picked questions; if fewer than k diverse candidates exist, fill
        # the remaining slots with the skipped ones in score order.
        engine = pnet.network.engine
        picked: list[int] = []
        picked_mask = 0
        skipped: list[int] = []
        for position in order.tolist():
            index = int(columns[position])
            union = engine.conflict_partner_union(index)
            if union is not None and (union & picked_mask):
                skipped.append(index)
                continue
            picked.append(index)
            picked_mask |= engine.bits[index]
            if len(picked) >= self.k:
                break
        for index in skipped:
            if len(picked) >= self.k:
                break
            picked.append(index)
        return [pnet.correspondences[i] for i in picked]

    # ------------------------------------------------------------------
    # The crowd loop
    # ------------------------------------------------------------------
    def _repair_order(self) -> Mapping[Correspondence, int]:
        return self._assertion_order

    def _dispatch_faulted(
        self, corr: Correspondence, workers
    ) -> tuple[list[Vote], int, int, float, bool]:
        """Dispatch one question under the session's fault plan.

        Per worker: a dropout loses the worker for the question outright; a
        timeout is retried with exponential backoff when the plan carries a
        retry policy; every attempt accrues simulated latency against the
        per-question deadline, after which the remaining dispatches are
        skipped as timeouts.  Only *delivered* answers are charged, so the
        budget semantics mirror the fault-free path: when a charge cannot
        be funded, dispatch stops and the round is budget-truncated.

        Returns ``(votes, timeouts, dropouts, latency, truncated)``.
        """
        plan = self.faults
        votes: list[Vote] = []
        timeouts = 0
        dropouts = 0
        elapsed = 0.0
        truncated = False
        deadline = plan.question_timeout
        for worker in workers:
            if deadline is not None and elapsed > deadline:
                timeouts += 1
                continue
            if plan.draw_dropout():
                dropouts += 1
                continue
            attempts = 1 + (plan.retry.max_retries if plan.retry else 0)
            for attempt in range(attempts):
                if not self.ledger.can_afford(1):
                    truncated = True
                    break
                elapsed += plan.draw_latency()
                if deadline is not None and elapsed > deadline:
                    timeouts += 1
                    break
                if plan.draw_timeout():
                    if plan.retry is not None and attempt + 1 < attempts:
                        elapsed += plan.retry.delay(attempt)
                        continue
                    # Retries exhausted (or none configured): answer lost.
                    timeouts += 1
                    break
                self.ledger.charge(worker.worker_id)
                votes.append((worker.worker_id, worker.answer(corr)))
                break
            if truncated:
                break
        return votes, timeouts, dropouts, elapsed, truncated

    def round(self, max_questions: Optional[int] = None) -> Optional[CrowdRound]:
        """Dispatch one batched round; ``None`` when nothing can be asked.

        ``max_questions`` trims the batch below ``k`` (the final round of a
        question-capped run).  Ends the session's work gracefully at the
        budget cap: the last question that cannot be funded at full
        redundancy is asked with whatever answers remain (partial
        redundancy still beats a wasted residue), and a question that
        cannot fund even one answer stops the round — the trace marks it
        ``truncated``.
        """
        faults = self.faults
        round_index = len(self.trace.rounds) + 1
        shock = 0.0
        if faults is not None:
            shock = faults.shock_for_round(round_index)
            if shock:
                self.ledger.apply_shock(shock)
        if self.ledger.exhausted:
            return None
        if max_questions is not None and max_questions < 1:
            return None
        questions = self.select_questions()
        if max_questions is not None:
            questions = questions[:max_questions]
        if not questions:
            return None
        assignments = self.assignment.assign(
            questions, self.pool, self.redundancy, self.stats
        )
        asked: list[Correspondence] = []
        verdicts: list[bool] = []
        votes_record: list[tuple[Vote, ...]] = []
        unanswered: list[Correspondence] = []
        conflicts_before = self.conflicts_resolved
        retracted_before = self.approvals_retracted
        truncated = False
        timeouts = 0
        dropouts = 0
        latency = 0.0
        for corr, workers in zip(questions, assignments):
            if faults is None:
                affordable = self.ledger.affordable_answers()
                if affordable < 1:
                    truncated = True
                    break
                if affordable < len(workers):
                    workers = workers[: int(affordable)]
                    truncated = True
                votes: list[Vote] = []
                for worker in workers:
                    self.ledger.charge(worker.worker_id)
                    votes.append((worker.worker_id, worker.answer(corr)))
            else:
                votes, q_timeouts, q_dropouts, q_latency, q_truncated = (
                    self._dispatch_faulted(corr, workers)
                )
                timeouts += q_timeouts
                dropouts += q_dropouts
                latency += q_latency
                truncated = truncated or q_truncated
                if not votes:
                    if q_truncated:
                        # Budget death, not a fault: stop the round exactly
                        # as the fault-free path does.
                        break
                    # Every worker dropped out or timed out: the question
                    # was never answered — re-queue it (or skip it) and
                    # flag the round instead of failing.
                    unanswered.append(corr)
                    if faults.requeue:
                        self._requeued.append(corr)
                    continue
            verdict = self.aggregator.aggregate(votes, self.stats)
            for worker_id, vote in votes:
                self.stats.record_agreement(worker_id, vote == verdict)
            if self.journal is not None:
                self.journal.append(
                    {
                        "type": "question",
                        "round": round_index,
                        "corr": correspondence_to_dict(corr),
                        "votes": [[wid, bool(v)] for wid, v in votes],
                        "verdict": bool(verdict),
                    }
                )
            verdict = self.integrate_verdict(corr, verdict, "round", round_index)
            self._assertion_order[corr] = len(self._assertion_order) + 1
            asked.append(corr)
            verdicts.append(verdict)
            votes_record.append(tuple(votes))
        if not asked and not (faults is not None and (unanswered or shock)):
            return None
        record = CrowdRound(
            index=round_index,
            questions=tuple(asked),
            verdicts=tuple(verdicts),
            votes=tuple(votes_record),
            conflicts_resolved=self.conflicts_resolved - conflicts_before,
            approvals_retracted=self.approvals_retracted - retracted_before,
            truncated=truncated,
            spent=self.ledger.spent,
            answers=self.ledger.answers_charged,
            uncertainty=self.uncertainty(),
            effort=self.effort(),
            timeouts=timeouts,
            dropouts=dropouts,
            unanswered=tuple(unanswered),
            degraded=bool(timeouts or dropouts or unanswered),
            latency=latency,
            shock=shock,
        )
        self.trace.rounds.append(record)
        if self.journal is not None:
            self.journal.append(
                {
                    "type": "round-commit",
                    "round": record.index,
                    "max_questions": max_questions,
                    "questions": len(record.questions),
                    "answers": record.answers,
                    "spent": record.spent,
                    "uncertainty": record.uncertainty,
                }
            )
        if faults is not None and faults.crash_at_round == record.index:
            from ..durability.faults import SimulatedCrash

            raise SimulatedCrash(record.index)
        return record

    def apply_delta(self, delta, result=None):
        """Evolve the network mid-session by a ``NetworkDelta``.

        :meth:`SessionCore.apply_delta
        <repro.core.reconciliation.SessionCore.apply_delta>` — the same
        write-ahead transaction and feedback semantics as the
        single-expert loop — then the crowd's session-local bookkeeping
        keyed on candidates (the conflict-repair assertion order and the
        fault re-queue) is filtered of removed candidates too; worker
        reliability statistics are about workers, not candidates, and
        survive untouched.  Returns the
        :class:`~repro.core.delta.DeltaResult`.
        """
        result = super().apply_delta(delta, result)
        removed = result.removed_correspondences
        if removed:
            # Renumber the surviving assertion order compactly (rank
            # preserved): round() assigns the next order as len+1, so
            # holes would let a future assertion collide with an existing
            # rank — and the compact numbering is exactly what a fresh
            # session replaying the surviving feedback in order builds.
            survivors = sorted(
                (
                    (order, corr)
                    for corr, order in self._assertion_order.items()
                    if corr not in removed
                )
            )
            self._assertion_order = {
                corr: rank + 1 for rank, (_, corr) in enumerate(survivors)
            }
            self._requeued = [
                corr for corr in self._requeued if corr not in removed
            ]
        return result

    def run(
        self,
        rounds: Optional[int] = None,
        questions: Optional[int] = None,
        uncertainty_goal: Optional[float] = None,
    ) -> CrowdTrace:
        """Run rounds until a goal is met.

        Stops at the first of: the ``rounds`` cap, the ``questions`` cap
        (the final round is trimmed so the cap is never overshot — the
        crowd analogue of the single-expert effort budget), an
        ``uncertainty_goal`` reached, the budget cap (the ledger refuses
        further answers), or nothing left to ask.
        """
        for _ in self._until_goal(rounds, questions, uncertainty_goal):
            pass
        return self.trace

    def _until_goal(
        self,
        rounds: Optional[int],
        questions: Optional[int],
        uncertainty_goal: Optional[float],
    ) -> Iterator[CrowdRound]:
        """:meth:`run`'s loop, yielding each round that asked something.

        The uncertainty check reuses each round's recorded value; only the
        first check reads the live (cached) value, which a network delta
        may have moved since the last recorded round — mirroring
        :meth:`~repro.core.reconciliation.ReconciliationSession.run`.
        """
        current: Optional[float] = None
        while True:
            if rounds is not None and len(self.trace.rounds) >= rounds:
                return
            if uncertainty_goal is not None:
                if current is None:
                    current = self.uncertainty()
                if current <= uncertainty_goal:
                    return
            remaining = (
                questions - self.trace.questions_asked
                if questions is not None
                else None
            )
            record = self.round(max_questions=remaining)
            if record is None or not record.questions:
                # A fully-faulted round (every question lost to dropouts or
                # timeouts) made no progress; stop rather than loop forever.
                return
            current = record.uncertainty
            yield record

    # perfbench wraps this through the class's own ``__dict__``.
    current_matching = SessionCore.current_matching
