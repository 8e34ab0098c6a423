"""Probability computation for a matching network (paper Section III).

:class:`ProbabilisticNetwork` is the paper's ⟨N, P⟩: a matching network plus
a probability per candidate correspondence, kept up to date as user
assertions arrive.  Two estimators realise P:

* :class:`ExactEstimator` — Equation 1 by full enumeration of Ω (tiny
  networks, Fig. 7, tests);
* :class:`SampledEstimator` — Equation 2 over the view-maintained
  :class:`~repro.core.sampling.SampleStore` (the production path).
"""

from __future__ import annotations

import abc
import random
from typing import Optional, Sequence

import numpy as np

from .correspondence import Correspondence
from .feedback import Feedback
from .instances import exact_probabilities
from .network import MatchingNetwork
from .sampling import InstanceSampler, SampleStore
from .uncertainty import network_uncertainty_vector


class ProbabilityEstimator(abc.ABC):
    """Strategy interface producing P for the current feedback state."""

    @abc.abstractmethod
    def probabilities(self) -> dict[Correspondence, float]:
        """Current probability of every candidate correspondence."""

    @abc.abstractmethod
    def record_assertion(self, corr: Correspondence, approved: bool) -> None:
        """Integrate one user assertion."""

    def retract_approval(self, corr: Correspondence, refill: bool = True) -> None:
        """Re-file an earlier approval as a disapproval (conflict repair).

        The default mutates the feedback and relies on the next
        ``probabilities()`` read to recompute; estimators with maintained
        views override this to re-condition them.  ``refill=False`` lets a
        caller mid-repair defer any sample replenishment to the assertion
        that ends the repair (see ``SampleStore.retract_approval``);
        estimators without a sample pool ignore it.
        """
        self.feedback.retract_approval(corr)

    @property
    @abc.abstractmethod
    def feedback(self) -> Feedback:
        """The assertions integrated so far."""

    @property
    def version(self) -> int:
        """Monotone state tag: changes whenever the estimate may change.

        Callers cache derived views (probability vectors, entropies) keyed
        on this tag.  The default counts assertions, which is correct for
        estimators whose state changes only through ``record_assertion``.
        """
        return len(self.feedback)

    def probability_vector(
        self, correspondences: Sequence[Correspondence]
    ) -> np.ndarray:
        """P as a float64 vector aligned to ``correspondences``.

        The base implementation materialises the mapping; estimators with a
        native array representation override this to skip the dict.
        """
        probabilities = self.probabilities()
        return np.asarray(
            [probabilities[corr] for corr in correspondences],
            dtype=np.float64,
        )


class ExactEstimator(ProbabilityEstimator):
    """Equation 1 verbatim: enumerate Ω(F⁺, F⁻) after every assertion."""

    def __init__(self, network: MatchingNetwork):
        self.network = network
        self._feedback = Feedback()
        self._cache: Optional[dict[Correspondence, float]] = None

    @property
    def feedback(self) -> Feedback:
        return self._feedback

    def probabilities(self) -> dict[Correspondence, float]:
        if self._cache is None:
            self._cache = exact_probabilities(self.network, self._feedback)
        return dict(self._cache)

    def record_assertion(self, corr: Correspondence, approved: bool) -> None:
        self._feedback.record(corr, approved)
        self._cache = None

    def retract_approval(self, corr: Correspondence, refill: bool = True) -> None:
        self._feedback.retract_approval(corr)
        self._cache = None

    def apply_delta(self, result) -> None:
        """Move to the successor network of a delta (exact re-enumeration).

        Feedback on removed candidates is dropped; the next
        ``probabilities()`` read enumerates the successor's Ω(F⁺, F⁻)
        from scratch (exact estimation has no carried state to reuse).
        A rescore-only delta swaps the network reference and keeps the
        cache: exact probabilities depend on the constraint engine and
        the feedback, never on matcher confidence.
        """
        if not result.structural:
            self.network = result.network
            return
        removed = result.removed_correspondences
        self.network = result.network
        self._feedback = Feedback(
            sorted(c for c in self._feedback.approved if c not in removed),
            sorted(c for c in self._feedback.disapproved if c not in removed),
        )
        self._cache = None


class SampledEstimator(ProbabilityEstimator):
    """Equation 2: probabilities as sample frequencies over Ω*."""

    def __init__(
        self,
        network: MatchingNetwork,
        target_samples: int = 500,
        walk_steps: int = 5,
        rng: Optional[random.Random] = None,
        sampler: Optional[InstanceSampler] = None,
    ):
        """``sampler`` overrides the default :class:`InstanceSampler`
        entirely — ``walk_steps`` and ``rng`` configure only the default,
        a supplied sampler keeps its own settings (and must be built for
        the same ``network``)."""
        if sampler is None:
            sampler = InstanceSampler(network, walk_steps=walk_steps, rng=rng)
        elif sampler.network is not network:
            raise ValueError(
                "the supplied sampler was built for a different network"
            )
        self.store = SampleStore(network, sampler, target_samples=target_samples)
        self.network = network

    @classmethod
    def from_store(cls, store: SampleStore) -> "SampledEstimator":
        """Wrap an existing (e.g. checkpoint-restored) store directly.

        The normal constructor builds and *fills* a fresh store; restoring
        a session must instead adopt the store rebuilt by
        :meth:`~repro.core.sampling.SampleStore.from_state` untouched.
        """
        estimator = cls.__new__(cls)
        estimator.store = store
        estimator.network = store.network
        return estimator

    @property
    def feedback(self) -> Feedback:
        return self.store.feedback

    @property
    def samples(self) -> Sequence[frozenset[Correspondence]]:
        return self.store.samples

    @property
    def sample_masks(self) -> Sequence[int]:
        """Ω* as engine bitmasks — the representation the kernels consume."""
        return self.store.sample_masks

    def membership_matrix(self):
        """The store's cached 0/1 sample-membership matrix (float64, the
        dtype the information-gain reductions consume directly)."""
        return self.store.matrix_float()

    def probabilities(self) -> dict[Correspondence, float]:
        # The store's frequency view is an immutable cached mapping; copy it
        # because ProbabilisticNetwork folds assertions into the result.
        return dict(self.store.frequencies())

    @property
    def version(self) -> int:
        return self.store.version

    def probability_vector(
        self, correspondences: Sequence[Correspondence]
    ) -> np.ndarray:
        # The store's vector is aligned to the engine index, i.e. the
        # network's candidate order; serve it directly for that order (the
        # reconciliation loop's call) and fall back to the mapping-based
        # base path for any other alignment a caller requests.
        if tuple(correspondences) == self.network.correspondences:
            return self.store.probability_vector()
        return super().probability_vector(correspondences)

    def record_assertion(self, corr: Correspondence, approved: bool) -> None:
        self.store.record_assertion(corr, approved)

    def retract_approval(self, corr: Correspondence, refill: bool = True) -> None:
        self.store.retract_approval(corr, refill=refill)

    def apply_delta(self, result) -> None:
        """Move to the successor network of a delta.

        The unsharded store samples over *global* masks, which a delta
        renumbers wholesale, so there is nothing to carry: a fresh store
        is built on the successor network pre-seeded with the surviving
        feedback and refilled (the sampler walks the conditioned space
        Ω(F⁺, F⁻) directly — the state a fresh session reaches by
        replaying that feedback).  The walk RNG object is reused, so the
        result is deterministic given the stream position; shard-level
        carryover (untouched components byte-identical) is the
        :class:`~repro.shard.ShardedEstimator` path.

        A rescore-only delta (``result.structural`` False) swaps the
        network references and keeps the store verbatim — sample
        frequencies never read matcher confidence, so Ω*, the RNG
        streams and every cached vector stay bit-identical.
        """
        if not result.structural:
            self.store.network = result.network
            self.store.sampler.network = result.network
            self.network = result.network
            return
        removed = result.removed_correspondences
        old = self.store
        sampler = InstanceSampler(
            result.network,
            walk_steps=old.sampler.walk_steps,
            rng=old.sampler.rng,
            restart_probability=old.sampler.restart_probability,
        )
        state = {
            "sample_masks": [],
            "approved": sorted(
                c for c in old.feedback.approved if c not in removed
            ),
            "disapproved": sorted(
                c for c in old.feedback.disapproved if c not in removed
            ),
            "exhausted": False,
            "version": old.version + 1,
            "target_samples": old.target_samples,
            "min_samples": old.min_samples,
        }
        store = SampleStore.from_state(result.network, sampler, state)
        store.refresh()
        self.store = store
        self.network = result.network


class ProbabilisticNetwork:
    """The paper's probabilistic matching network ⟨N, P⟩.

    Wraps a :class:`MatchingNetwork` and a :class:`ProbabilityEstimator` and
    offers the operations the reconciliation loop needs: querying P,
    integrating assertions, and listing the still-uncertain correspondences.
    """

    def __init__(
        self,
        network: MatchingNetwork,
        estimator: Optional[ProbabilityEstimator] = None,
        target_samples: int = 500,
        rng: Optional[random.Random] = None,
    ):
        self.network = network
        self.estimator = estimator or SampledEstimator(
            network, target_samples=target_samples, rng=rng
        )
        self._view_tag: Optional[tuple[int, int]] = None
        self._vector_cache: Optional[np.ndarray] = None
        self._uncertainty_cache: Optional[float] = None
        self._uncertain_indices_cache: Optional[np.ndarray] = None
        self._unasserted_indices_cache: Optional[np.ndarray] = None
        # Incrementally maintained F⁺/F⁻ engine indices; rebuilt from the
        # feedback sets only when the counts disagree (i.e. someone mutated
        # the estimator without going through record_assertion).
        self._approved_indices: list[int] = []
        self._disapproved_indices: list[int] = []
        self._approved_array: Optional[np.ndarray] = None
        self._disapproved_array: Optional[np.ndarray] = None
        self._approved_seen = -1
        self._disapproved_seen = -1

    @property
    def feedback(self) -> Feedback:
        return self.estimator.feedback

    @property
    def correspondences(self) -> tuple[Correspondence, ...]:
        return self.network.correspondences

    # ------------------------------------------------------------------
    # Array-native views (the reconciliation loop's hot representation)
    # ------------------------------------------------------------------
    def _views_current(self) -> bool:
        """Validate the cached vector views against the estimator state.

        The tag pairs the estimator's version with the feedback size, so
        views stay correct even when callers mutate the estimator (or its
        store) directly instead of going through :meth:`record_assertion`.
        """
        tag = (self.estimator.version, len(self.feedback))
        if tag != self._view_tag:
            self._view_tag = tag
            self._vector_cache = None
            self._uncertainty_cache = None
            self._uncertain_indices_cache = None
            self._unasserted_indices_cache = None
            return False
        return True

    def _asserted_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Engine indices of F⁺ and F⁻ (non-candidates have no index).

        Normally the incrementally maintained lists; rebuilt from the
        feedback sets when assertions bypassed :meth:`record_assertion`.
        """
        feedback = self.feedback
        index_of = self.network.engine.index_of
        if self._approved_seen != feedback.approved_count:
            self._approved_indices = [
                index_of[corr]
                for corr in feedback.approved
                if corr in index_of
            ]
            self._approved_seen = feedback.approved_count
            self._approved_array = None
        if self._disapproved_seen != feedback.disapproved_count:
            self._disapproved_indices = [
                index_of[corr]
                for corr in feedback.disapproved
                if corr in index_of
            ]
            self._disapproved_seen = feedback.disapproved_count
            self._disapproved_array = None
        # The list→array conversion is O(len) *per element* in Python, so
        # it is cached and only re-done for the side whose list actually
        # grew — otherwise a long session pays O(|F|²) in conversions.
        if self._approved_array is None or len(self._approved_array) != len(
            self._approved_indices
        ):
            self._approved_array = np.asarray(
                self._approved_indices, dtype=np.intp
            )
        if self._disapproved_array is None or len(
            self._disapproved_array
        ) != len(self._disapproved_indices):
            self._disapproved_array = np.asarray(
                self._disapproved_indices, dtype=np.intp
            )
        return (self._approved_array, self._disapproved_array)

    def probability_vector(self) -> np.ndarray:
        """P as a frozen float64 vector over the candidate index, with user
        assertions folded in (p ∈ {0, 1} for them) — the array counterpart
        of :meth:`probabilities`, cached until the estimator state moves."""
        self._views_current()
        if self._vector_cache is None:
            vector = np.array(
                self.estimator.probability_vector(self.network.correspondences),
                dtype=np.float64,
            )
            approved, disapproved = self._asserted_index_arrays()
            if len(approved):
                vector[approved] = 1.0
            if len(disapproved):
                vector[disapproved] = 0.0
            vector.setflags(write=False)
            self._vector_cache = vector
        return self._vector_cache

    def uncertainty(self) -> float:
        """Network uncertainty H(C, P) (Equation 3), cached per state.

        Summing only the uncertain entries is bit-for-bit equal to summing
        all of them: certain entries contribute an exact ``0.0``, and adding
        ``0.0`` to a non-negative partial sum is the IEEE identity, so the
        left-to-right accumulation is unchanged.
        """
        self._views_current()
        if self._uncertainty_cache is None:
            self._uncertainty_cache = network_uncertainty_vector(
                self.probability_vector()[self.uncertain_indices()]
            )
        return self._uncertainty_cache

    def uncertain_indices(self) -> np.ndarray:
        """Candidate indices with 0 < p < 1, ascending (frozen, cached)."""
        self._views_current()
        if self._uncertain_indices_cache is None:
            vector = self.probability_vector()
            indices = np.flatnonzero((vector > 0.0) & (vector < 1.0))
            indices.setflags(write=False)
            self._uncertain_indices_cache = indices
        return self._uncertain_indices_cache

    def unasserted_indices(self) -> np.ndarray:
        """Candidate indices the expert has not asserted yet (ascending)."""
        self._views_current()
        if self._unasserted_indices_cache is None:
            asserted = np.zeros(self.network.engine.n, dtype=bool)
            approved, disapproved = self._asserted_index_arrays()
            if len(approved):
                asserted[approved] = True
            if len(disapproved):
                asserted[disapproved] = True
            indices = np.flatnonzero(~asserted)
            indices.setflags(write=False)
            self._unasserted_indices_cache = indices
        return self._unasserted_indices_cache

    # ------------------------------------------------------------------
    # Mapping-level views (module boundaries)
    # ------------------------------------------------------------------
    def probabilities(self) -> dict[Correspondence, float]:
        """P — user assertions are already folded in (p ∈ {0, 1} for them)."""
        probabilities = self.estimator.probabilities()
        # Guarantee the paper's invariant even if an estimator's sample pool
        # momentarily disagrees: asserted correspondences are certain.
        for corr in self.feedback.approved:
            probabilities[corr] = 1.0
        for corr in self.feedback.disapproved:
            probabilities[corr] = 0.0
        return probabilities

    def probability(self, corr: Correspondence) -> float:
        return self.probabilities()[corr]

    def uncertain_correspondences(self) -> list[Correspondence]:
        """Candidates with 0 < p < 1 — the only ones worth asserting."""
        correspondences = self.network.correspondences
        return [correspondences[i] for i in self.uncertain_indices().tolist()]

    def record_assertion(self, corr: Correspondence, approved: bool) -> None:
        """Feedback step ⟨N,P⟩ →ᶜ ⟨N,P'⟩.

        Raises :class:`~repro.core.instances.InconsistentFeedbackError` when
        an approval contradicts earlier approvals under the integrity
        constraints — possible with imperfect experts (e.g.
        :class:`~repro.core.feedback.NoisyOracle`), and fatal for sampling
        if left undetected.
        """
        if corr not in self.network.candidates:
            raise KeyError(f"{corr} is not a candidate correspondence")
        if approved:
            conflicts = [
                violation
                for violation in self.network.engine.violations_involving(corr)
                if violation.correspondences - {corr} <= self.feedback.approved
            ]
            if conflicts:
                from .instances import InconsistentFeedbackError

                raise InconsistentFeedbackError(
                    f"approving {corr} contradicts earlier approvals under "
                    f"the {conflicts[0].constraint} constraint"
                )
        self.estimator.record_assertion(corr, approved)
        # Keep the maintained F⁺/F⁻ index lists in step with the feedback
        # (append-only; a repeated assertion changes no count and falls
        # through, any out-of-band mutation triggers the lazy rebuild).
        feedback = self.feedback
        index = self.network.engine.index_of.get(corr)
        if approved:
            if self._approved_seen == feedback.approved_count - 1:
                if index is not None:
                    self._approved_indices.append(index)
                    if self._approved_array is not None:
                        self._approved_array = np.append(
                            self._approved_array, index
                        )
                self._approved_seen += 1
        elif self._disapproved_seen == feedback.disapproved_count - 1:
            if index is not None:
                self._disapproved_indices.append(index)
                if self._disapproved_array is not None:
                    self._disapproved_array = np.append(
                        self._disapproved_array, index
                    )
            self._disapproved_seen += 1

    def retract_approval(self, corr: Correspondence, refill: bool = True) -> None:
        """Move an earlier approval to F⁻ (conflict repair, Section III-A).

        The inverse-direction feedback step the ``disapprove`` conflict
        policy needs when the *older* approval sits on the minority side of
        a violated constraint: the estimator re-conditions its state on the
        corrected verdict, and the maintained F⁺/F⁻ index lists and vector
        views are rebuilt (a retraction is the one mutation that shrinks
        F⁺, so the append-only bookkeeping cannot absorb it).
        ``refill=False`` defers sample replenishment to the assertion that
        ends the repair — see ``SampleStore.retract_approval``.
        """
        if corr not in self.feedback.approved:
            raise ValueError(f"{corr} is not an approved correspondence")
        self.estimator.retract_approval(corr, refill=refill)
        self._approved_seen = -1
        self._disapproved_seen = -1
        self._view_tag = None

    def apply_delta(self, result) -> None:
        """Evolve ⟨N, P⟩ to the successor network of a delta.

        Delegates the estimator-state move to the estimator's own
        ``apply_delta`` (sharded: untouched components carried verbatim;
        sampled: fresh conditioned store; exact: re-enumeration), swaps
        the network, and drops every cached view — the candidate index
        space was renumbered, so the maintained F⁺/F⁻ index lists are
        force-rebuilt on the next read.
        """
        apply = getattr(self.estimator, "apply_delta", None)
        if apply is None:
            raise TypeError(
                f"the active estimator ({type(self.estimator).__name__}) "
                "does not support network deltas"
            )
        apply(result)
        self.network = result.network
        self._view_tag = None
        self._approved_seen = -1
        self._disapproved_seen = -1

    def samples(self) -> Sequence[frozenset[Correspondence]]:
        """The sample multiset when a sampling estimator backs the network."""
        if isinstance(self.estimator, SampledEstimator):
            return self.estimator.samples
        raise TypeError("the active estimator does not expose samples")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProbabilisticNetwork({self.network!r}, {self.feedback!r})"
