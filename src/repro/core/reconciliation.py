"""The pay-as-you-go reconciliation loop (paper Algorithm 1 + framework of
Section II-C).

:class:`ReconciliationSession` wires together the probabilistic network, a
selection strategy and the (simulated) expert oracle.  Each :meth:`step`
performs one iteration of Algorithm 1 — select, elicit, integrate — and the
session records a :class:`ReconciliationTrace` so experiments can plot
uncertainty/precision against user effort, exactly as Figs. 9–11 do.

The loop is array-native end to end: probabilities flow as the network's
cached float64 vector, uncertainty is one memoised entropy reduction over
it, selection strategies consume the vector and the sample store's
membership matrix directly, and each assertion *conditions* the store's Ω*
view instead of tearing it down.  The scalar semantics this replaced live
on in :mod:`repro.core.reference_loop`; the equivalence harness keeps the
two bit-for-bit identical under seeded runs.

:class:`SessionCore` is the shell this loop shares with the crowd's batched
one (:class:`~repro.crowd.session.CrowdSession`): one verdict integration
(:meth:`SessionCore.integrate_verdict`), one delta transaction, one
deliverable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from .correspondence import Correspondence
from .feedback import Oracle
from .instantiation import instantiate
from .probability import ProbabilisticNetwork
from .selection import RandomSelection, SelectionStrategy


def resolve_conflicting_approval(
    pnet: ProbabilisticNetwork,
    corr: Correspondence,
    assertion_order: Mapping[Correspondence, int],
) -> tuple[bool, list[Correspondence]]:
    """Minority-side conflict repair for an approval that contradicts Γ.

    Section III-A argues that when assertions jointly violate the integrity
    constraints, the constraints are to be trusted over the answers.  For
    every violation the new approval of ``corr`` would complete, the policy
    retracts the member with the *fewest supporting approvals* — support
    being the approvals compatible with keeping the member, so the member
    contradicted by the most approved conflict partners (counted over every
    compiled violation it appears in, active or latent) loses.  Ties go
    against the *newest* assertion (``assertion_order`` ranks the session's
    elicitations; ``corr`` itself is always newest), which reduces to the
    historical flip-the-new-approval behaviour for an isolated pairwise
    conflict.

    Retracting an earlier approval re-files it as a disapproval through
    :meth:`ProbabilisticNetwork.retract_approval` (F± stay disjoint); when
    ``corr`` itself loses it is recorded as a disapproval directly.  Repair
    iterates until the surviving approvals satisfy Γ again.  Returns the
    final verdict recorded for ``corr`` plus the retracted approvals.
    """
    engine = pnet.network.engine
    retracted: list[Correspondence] = []
    newest = max(assertion_order.values(), default=0) + 1
    while True:
        approved = pnet.feedback.approved
        conflicts = [
            violation
            for violation in engine.violations_involving(corr)
            if violation.correspondences - {corr} <= approved
        ]
        if not conflicts:
            pnet.record_assertion(corr, True)
            return True, retracted
        tentative_mask = engine.mask_of(approved) | engine.bits[
            engine.index_of[corr]
        ]

        def contested(member: Correspondence) -> int:
            union = engine.conflict_partner_union(engine.index_of[member])
            if union is None:
                # A singleton violation: the constraint alone refutes the
                # member, no approval can support it.
                return engine.n + 1
            return (tentative_mask & union).bit_count()

        members = {
            member for violation in conflicts for member in violation
        }
        # Sorted so a full tie (equal support, equal recency — possible only
        # among pre-seeded approvals) resolves canonically, not by hash seed.
        victim = max(
            sorted(members),
            key=lambda member: (
                contested(member),
                assertion_order.get(member, newest if member == corr else -1),
            ),
        )
        if victim == corr:
            pnet.record_assertion(corr, False)
            return False, retracted
        # refill=False: the loop always ends in a record_assertion for
        # ``corr``, which re-conditions the sample pool and refills it once
        # under the final feedback — refilling per retraction would mostly
        # be discarded by that very call.
        pnet.retract_approval(victim, refill=False)
        retracted.append(victim)


@dataclass(frozen=True)
class ReconciliationStep:
    """One elicitation: which correspondence, the verdict, the new state."""

    index: int
    correspondence: Correspondence
    approved: bool
    uncertainty: float
    effort: float


@dataclass
class ReconciliationTrace:
    """The full history of a session, ready for plotting/reporting."""

    initial_uncertainty: float
    steps: list[ReconciliationStep] = field(default_factory=list)

    @property
    def uncertainties(self) -> list[float]:
        """Uncertainty after 0, 1, 2, … assertions."""
        return [self.initial_uncertainty] + [s.uncertainty for s in self.steps]

    @property
    def efforts(self) -> list[float]:
        """Effort after 0, 1, 2, … assertions."""
        return [0.0] + [s.effort for s in self.steps]

    def effort_to_reach(self, uncertainty_threshold: float) -> Optional[float]:
        """Smallest recorded effort at which uncertainty ≤ threshold."""
        for effort, uncertainty in zip(self.efforts, self.uncertainties):
            if uncertainty <= uncertainty_threshold:
                return effort
        return None


class SessionCore:
    """The shell the expert and crowd loops share.

    Both loops are Algorithm 1: select, elicit, integrate.  The expert
    (:class:`ReconciliationSession`) asks one question per step, the crowd
    (:class:`~repro.crowd.session.CrowdSession`) ``k`` per round; what
    they repeat lives here once — the ``on_conflict`` policy and its
    counters, the state views, verdict integration with constraint-trusting
    repair (:meth:`integrate_verdict`), the write-ahead journaling of
    network deltas (:meth:`apply_delta`) and the pay-as-you-go deliverable
    (:meth:`current_matching`).  ``kind`` (``"expert"`` or ``"crowd"``)
    names the loop to the journal, checkpoints, recovery and the service.
    """

    kind: str = ""

    def __init__(
        self, pnet: ProbabilisticNetwork, on_conflict: str, journal
    ):
        if on_conflict not in ("raise", "disapprove"):
            raise ValueError("on_conflict must be 'raise' or 'disapprove'")
        self.pnet = pnet
        self.on_conflict = on_conflict
        self.journal = journal
        self.conflicts_resolved = 0
        self.approvals_retracted = 0
        self.deltas_applied = 0

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    def uncertainty(self) -> float:
        """Current network uncertainty H(C, P).

        Delegates to the network's cached vector reduction — repeated reads
        between assertions are O(1), and the value is bit-for-bit what
        :func:`~repro.core.uncertainty.network_uncertainty` computes over
        the probability mapping.
        """
        return self.pnet.uncertainty()

    def effort(self) -> float:
        """User effort spent so far, E = |F⁺ ∪ F⁻| / |C| (questions asked,
        not crowd answers collected)."""
        return self.pnet.feedback.effort(len(self.pnet.correspondences))

    def is_done(self) -> bool:
        """True when no uncertain correspondence remains."""
        return len(self.pnet.uncertain_indices()) == 0

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def _repair_order(self) -> Mapping[Correspondence, int]:
        """Rank of each earlier assertion, for the repair's tie-break."""
        raise NotImplementedError

    def integrate_verdict(
        self, corr: Correspondence, approved: bool, key: str, index: int
    ) -> bool:
        """Record one elicited verdict; returns the verdict that stands.

        With a perfect oracle, approvals never contradict each other.  An
        imperfect one (a noisy expert, a crowd's majority) may approve
        correspondences that jointly violate Γ; the ``on_conflict`` policy
        decides whether that raises
        (:class:`~repro.core.instances.InconsistentFeedbackError`) or —
        trusting the constraints over the answer, as Section III-A argues —
        repairs the feedback by retracting the *minority side* of each
        violated constraint (:func:`resolve_conflicting_approval`), which
        may flip the verdict itself.  ``conflicts_resolved`` counts the
        conflicted verdicts, ``approvals_retracted`` the earlier approvals
        re-filed as disapprovals; with a journal attached each retraction
        is journaled under the caller's transaction ``key`` (``"step"`` or
        ``"round"``) and ``index``.
        """
        from .instances import InconsistentFeedbackError

        try:
            self.pnet.record_assertion(corr, approved)
            return approved
        except InconsistentFeedbackError:
            if self.on_conflict == "raise":
                raise
        self.conflicts_resolved += 1
        approved, retracted = resolve_conflicting_approval(
            self.pnet, corr, self._repair_order()
        )
        self.approvals_retracted += len(retracted)
        if self.journal is not None:
            from .. import io as _io

            for victim in retracted:
                self.journal.append(
                    {
                        "type": "retraction",
                        key: index,
                        "corr": _io.correspondence_to_dict(victim),
                        "cause": _io.correspondence_to_dict(corr),
                    }
                )
        return approved

    # ------------------------------------------------------------------
    # Network evolution
    # ------------------------------------------------------------------
    def apply_delta(self, delta, result=None):
        """Evolve the network mid-session by a ``NetworkDelta``.

        Feedback on surviving candidates is preserved (the estimator
        carries or re-conditions its state on it); feedback on removed
        candidates is retracted.  The session keeps running afterwards —
        the trace continues, selection sees the re-merged probability
        vector of the successor network.

        With a journal attached the delta is a write-ahead transaction:
        the full delta payload is journaled *before* any state mutates
        and a ``delta-commit`` record (carrying the post-delta
        uncertainty, which recovery re-verifies) seals it.  A crash
        between the two leaves a torn tail that recovery discards —
        pre-delta state, the delta never happened; after the commit,
        :func:`~repro.durability.recovery.recover` replays the delta
        from the journal.  Returns the
        :class:`~repro.core.delta.DeltaResult`.

        ``result`` optionally supplies a precomputed
        :class:`~repro.core.delta.DeltaResult` for this exact delta
        against this session's *current* network object — the
        multi-tenant service computes each (network, delta) successor
        once and hands it to every tenant session sharing that network.
        ``apply_network_delta`` is a pure function of (network, delta),
        so a shared result is bit-identical to a per-session one; the
        guard below rejects a result computed for anything else.
        """
        if result is None:
            result = self.pnet.network.apply_delta(delta)
        elif result.delta != delta:
            raise ValueError(
                "precomputed DeltaResult was built for a different delta"
            )
        if self.journal is not None:
            from .. import io as _io

            self.journal.append(
                {"type": "delta", "delta": _io.delta_to_dict(delta)}
            )
        self.pnet.apply_delta(result)
        self.deltas_applied += 1
        if self.journal is not None:
            self.journal.append(
                {
                    "type": "delta-commit",
                    "delta_index": self.deltas_applied,
                    "uncertainty": self.uncertainty(),
                }
            )
        return result

    # ------------------------------------------------------------------
    # Pay-as-you-go output
    # ------------------------------------------------------------------
    def current_matching(
        self,
        iterations: int = 100,
        use_likelihood: bool = True,
        rng: Optional[random.Random] = None,
    ) -> frozenset[Correspondence]:
        """Instantiate a trusted matching from the *current* state.

        This is the pay-as-you-go deliverable: callable at any time, whether
        or not reconciliation has finished.  On a sharded session it is
        solved per violation component (see
        :func:`~repro.core.instantiation.instantiate`): once every shard is
        enumerated the answer is exact, and ``rng`` and ``iterations`` no
        longer change it.
        """
        return instantiate(
            self.pnet,
            iterations=iterations,
            use_likelihood=use_likelihood,
            rng=rng,
        )


class ReconciliationSession(SessionCore):
    """Drives pay-as-you-go reconciliation of one probabilistic network.

    Parameters
    ----------
    pnet:
        The probabilistic matching network ⟨N, P⟩ being reconciled.
    oracle:
        Answers assertions (normally a ground-truth-backed simulated expert).
    strategy:
        The ``select`` routine of Algorithm 1; defaults to the random
        baseline.
    on_conflict:
        ``"raise"`` (default) or ``"disapprove"``; see
        :meth:`~SessionCore.integrate_verdict`.
    journal:
        Optional :class:`~repro.durability.journal.FeedbackJournal`; when
        attached, every elicited verdict is journaled durably *before*
        integration and every step ends with a commit record.
    """

    kind = "expert"

    def __init__(
        self,
        pnet: ProbabilisticNetwork,
        oracle: Oracle,
        strategy: Optional[SelectionStrategy] = None,
        rng: Optional[random.Random] = None,
        on_conflict: str = "raise",
        journal=None,
    ):
        super().__init__(pnet, on_conflict, journal)
        self.oracle = oracle
        self.strategy = strategy or RandomSelection(rng=rng)
        self.trace = ReconciliationTrace(initial_uncertainty=self.uncertainty())

    def _repair_order(self) -> Mapping[Correspondence, int]:
        return {step.correspondence: step.index for step in self.trace.steps}

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def step(self) -> Optional[ReconciliationStep]:
        """One select→elicit→integrate iteration; None when reconciled.

        The verdict goes through :meth:`~SessionCore.integrate_verdict`,
        so under ``on_conflict="disapprove"`` an approval that contradicts
        Γ is repaired rather than raised, and the step records the verdict
        that stands.
        """
        corr = self.strategy.select(self.pnet)
        if corr is None:
            return None
        step_index = len(self.trace.steps) + 1
        approved = self.oracle.assert_correspondence(corr)
        if self.journal is not None:
            from .. import io as _io

            self.journal.append(
                {
                    "type": "assertion",
                    "step": step_index,
                    "corr": _io.correspondence_to_dict(corr),
                    "approved": bool(approved),
                }
            )
        approved = self.integrate_verdict(corr, approved, "step", step_index)
        record = ReconciliationStep(
            index=step_index,
            correspondence=corr,
            approved=approved,
            uncertainty=self.uncertainty(),
            effort=self.effort(),
        )
        self.trace.steps.append(record)
        if self.journal is not None:
            self.journal.append(
                {
                    "type": "step-commit",
                    "step": record.index,
                    "approved": bool(record.approved),
                    "uncertainty": record.uncertainty,
                    "effort": record.effort,
                }
            )
        return record

    def run(
        self,
        budget: Optional[int] = None,
        effort_budget: Optional[float] = None,
        uncertainty_goal: Optional[float] = None,
    ) -> ReconciliationTrace:
        """Run until the reconciliation goal δ is met.

        The goal is the disjunction of: an absolute assertion ``budget``, a
        relative ``effort_budget`` (fraction of |C|), an
        ``uncertainty_goal`` threshold, or full reconciliation when none is
        given.
        """
        for _ in self._until_goal(budget, effort_budget, uncertainty_goal):
            pass
        return self.trace

    def _until_goal(
        self,
        budget: Optional[int],
        effort_budget: Optional[float],
        uncertainty_goal: Optional[float],
    ) -> Iterator[ReconciliationStep]:
        """:meth:`run`'s loop, yielding each step as it is taken.

        The ``uncertainty_goal`` check reuses the uncertainty each
        :class:`ReconciliationStep` just recorded instead of recomputing
        H(C, P) once more per iteration; only the first check reads the
        live (cached) value, which a network delta may have moved since
        the last recorded step.
        """
        total = len(self.pnet.correspondences)
        current_uncertainty: Optional[float] = None
        while True:
            if budget is not None and len(self.trace.steps) >= budget:
                return
            if (
                effort_budget is not None
                and (len(self.trace.steps) + 1) / total > effort_budget + 1e-12
            ):
                return
            if uncertainty_goal is not None:
                if current_uncertainty is None:
                    current_uncertainty = self.uncertainty()
                if current_uncertainty <= uncertainty_goal:
                    return
            record = self.step()
            if record is None:
                return
            current_uncertainty = record.uncertainty
            yield record

    # perfbench wraps these through the class's own ``__dict__``.
    apply_delta = SessionCore.apply_delta
    current_matching = SessionCore.current_matching
