"""Non-uniform sampling of matching instances (paper Algorithm 3) and the
view-maintained sample store (Section III-B).

The sampler explores the instance space with a random walk — add a random
correspondence, repair the violations it causes — combined with a simulated
annealing acceptance rule: a proposed instance is accepted with probability
``1 − e^{−Δ}`` where Δ is the symmetric difference to the current instance.
Large jumps are therefore favoured, which lets the walk escape dense regions
of the heavily constrained instance space.

Hot-path layout: the walk runs entirely in the constraint engine's bitmask
index space — the current instance is one int, availability is
``allowed & ~current``, the walk step picks a uniform set bit, proposals go
through :func:`~repro.core.repair.repair_mask`, Δ is a popcount of an XOR.
Emissions are *batched*: the walk collects its pre-emission states
(:meth:`InstanceSampler.walk_states`) and a whole refill's worth is
maximalised at once by the priority-wave kernel
:func:`~repro.core.repair.wave_maximalize_batch` (per-emission random
priorities, numpy waves in which a candidate waits only on the violations
that can still complete at its turn) instead of one sequential scan per
instance.  The store keeps Ω* as a list of masks plus a cached boolean
membership matrix over the engine's *conflicted* columns — the one array
the frequency and information-gain reductions read — and converts to
frozensets only at the public ``samples`` boundary.  The violation-free
columns need no storage: every emission ORs in ``allowed &
violation_free_mask``, and disapproving a free candidate drops every
sample holding it, so each free column is constant over Ω* (in every
sample unless the candidate is in F⁻).

Two notes on fidelity to the paper:

* Definition 1 requires matching instances to be *maximal*; the raw walk
  only guarantees consistency, so every emitted sample is greedily
  maximalised first (a step the paper leaves implicit).
* The paper's view-maintenance equations contain a typo (approval and
  disapproval both "remove instances containing c"); we implement the
  evident intent — approval keeps samples containing c, disapproval keeps
  samples not containing c.
"""

from __future__ import annotations

import math
import random
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .constraints import kth_set_bit
from .correspondence import Correspondence
from .feedback import Feedback
from .network import MatchingNetwork
from .repair import repair_mask, wave_maximalize_batch


def symmetric_difference_size(
    left: Iterable[Correspondence], right: Iterable[Correspondence]
) -> int:
    """Δ(A, B) = |A \\ B| + |B \\ A| (paper Section V-A)."""
    left_set, right_set = set(left), set(right)
    return len(left_set ^ right_set)


class InstanceSampler:
    """Algorithm 3: non-uniform random-walk sampler over matching instances.

    Parameters
    ----------
    network:
        The matching network whose instances are sampled.
    walk_steps:
        ``k`` — the number of add-and-repair random-walk steps per sample.
    rng:
        Source of randomness; pass a seeded :class:`random.Random` for
        reproducible experiments.
    seed:
        Instead of ``rng``: the integer seed of a lazily spawned stream.
        The sampler builds ``random.Random(seed)`` (and the numpy stream
        seeded from it) on first use — exactly the streams
        ``rng=random.Random(seed)`` builds up front — and until then its
        state is the seed alone.  Sharded stores spawn one sampler per
        shard this way, and most shards are enumerated and never walk.
    """

    def __init__(
        self,
        network: MatchingNetwork,
        walk_steps: int = 5,
        rng: Optional[random.Random] = None,
        restart_probability: float = 0.15,
        seed: Optional[int] = None,
    ):
        if walk_steps < 1:
            raise ValueError("walk_steps must be at least 1")
        if not 0.0 <= restart_probability <= 1.0:
            raise ValueError("restart_probability must lie in [0, 1]")
        if rng is not None and seed is not None:
            raise ValueError("pass rng or seed, not both")
        self.network = network
        self.walk_steps = walk_steps
        self.restart_probability = restart_probability
        self._seed = seed
        self._rng: Optional[random.Random] = None
        self._np_rng: Optional[np.random.Generator] = None
        if seed is None:
            self._spawn(rng or random.Random())

    def _spawn(self, rng: random.Random) -> None:
        self._rng = rng
        # Emission permutations come from a numpy generator (C-level
        # shuffles), seeded off the walk rng so a seeded sampler stays fully
        # deterministic while the two streams remain independent.
        self._np_rng = np.random.default_rng(rng.getrandbits(64))

    @property
    def rng(self) -> random.Random:
        """The walk stream (spawned from the seed on first use)."""
        if self._rng is None:
            self._spawn(random.Random(self._seed))
        return self._rng

    @property
    def np_rng(self) -> np.random.Generator:
        """The emission stream (spawned with the walk stream)."""
        if self._np_rng is None:
            self._spawn(random.Random(self._seed))
        return self._np_rng

    def get_state(self) -> dict:
        """Both RNG streams' states, as plain Python objects.

        A seeded sampler that has not drawn yet returns ``{"seed": s}``:
        its streams are still exactly what ``s`` spawns.  The checkpoint
        layer (:mod:`repro.durability`) persists either form so a restored
        sampler continues the *same* walk and emission streams; the
        configuration knobs travel separately in the checkpoint.
        """
        if self._rng is None:
            return {"seed": self._seed}
        return {
            "rng": self._rng.getstate(),
            "np_rng": self._np_rng.bit_generator.state,
        }

    def set_state(self, state: dict) -> None:
        """Restore the streams captured by :meth:`get_state` (either form)."""
        if "seed" in state:
            self._seed = int(state["seed"])
            self._rng = self._np_rng = None
            return
        version, internal, gauss = state["rng"]
        self.rng.setstate((version, tuple(internal), gauss))
        self.np_rng.bit_generator.state = state["np_rng"]

    def walk_states(
        self, n_samples: int, feedback: Optional[Feedback] = None
    ) -> tuple[list[int], int]:
        """Run the walk and collect the pre-emission states.

        Returns one consistent (not yet maximalised) selection mask per walk
        iteration plus the ``allowed`` mask they were sampled under.  The
        emission itself — maximalising every state — is deliberately
        deferred: the walk only ever continues from its *own* state, never
        from an emitted instance, so a refill can collect the whole batch
        here and maximalise it in one call to
        :func:`~repro.core.repair.wave_maximalize_batch`.
        """
        feedback = feedback or Feedback()
        engine = self.network.engine
        rng = self.rng
        walk_steps = self.walk_steps
        restart_probability = self.restart_probability
        approved = engine.mask_of(feedback.approved)
        allowed = engine.full_mask & ~engine.mask_of(feedback.disapproved)

        current = approved
        states: list[int] = []
        exp = math.exp
        random_float = rng.random
        n = engine.n
        bits = engine.bits
        for _ in range(n_samples):
            # Occasional restart from the feedback core: the constraint
            # structure splits the instance space into regions the local
            # walk crosses only slowly (the annealing acceptance helps but
            # does not guarantee mixing); restarts make every region
            # reachable regardless of the walk's current position.
            if current != approved and random_float() < restart_probability:
                current = approved
            for _ in range(walk_steps):
                avail = allowed & ~current
                if not avail:
                    break
                # Uniform set-bit draw: rejection sampling against the
                # availability mask (it is dense along most of the walk),
                # falling back to an exact k-th-bit scan when unlucky.
                for _ in range(4):
                    index = int(random_float() * n)
                    if avail & bits[index]:
                        break
                else:
                    index = kth_set_bit(avail, rng.randrange(avail.bit_count()))
                proposal = repair_mask(engine, current, index, approved, rng=rng)
                distance = (current ^ proposal).bit_count()
                acceptance = 1.0 - exp(-distance)
                if random_float() < acceptance:
                    current = proposal
            states.append(current)
        return states, allowed

    def sample_masks(
        self, n_samples: int, feedback: Optional[Feedback] = None
    ) -> list[int]:
        """The mask-space hot kernel behind :meth:`sample`.

        Runs ``n_samples`` walk iterations and returns the *distinct*
        matching instances discovered, as bitmasks in discovery order.  The
        whole batch of walk states is maximalised at once by the priority-
        wave kernel (uniform per-emission priorities from ``np_rng`` — the
        same emission distribution as the historical per-instance
        permutation scan, decided in a few numpy waves).
        """
        states, allowed = self.walk_states(n_samples, feedback)
        discovered: dict[int, None] = {}
        for maximal in wave_maximalize_batch(
            self.network.engine, states, allowed, np_rng=self.np_rng
        ):
            discovered[maximal] = None
        return list(discovered)

    def sample(
        self, n_samples: int, feedback: Optional[Feedback] = None
    ) -> list[frozenset[Correspondence]]:
        """Run ``n_samples`` walk iterations and return the *distinct*
        matching instances discovered.

        Algorithm 3 accumulates samples with a set union (Ω* ← Ω* ∪ Iᵢ), so
        the result is a subset of the instance space Ω, in discovery order;
        it may be shorter than ``n_samples``.  Approved correspondences
        outside the network's candidate set cannot be represented in the
        mask space; they are restored into every emitted instance here, at
        the frozenset boundary.
        """
        engine = self.network.engine
        corrs_of = engine.corrs_of
        masks = self.sample_masks(n_samples, feedback)
        extra = (
            engine.outside_candidates(feedback.approved)
            if feedback is not None
            else frozenset()
        )
        if extra:
            return [corrs_of(mask) | extra for mask in masks]
        return [corrs_of(mask) for mask in masks]


class SampleStore:
    """The maintained sample multiset Ω* with pay-as-you-go view maintenance.

    On each assertion the store filters the existing samples instead of
    re-sampling from scratch, topping up from the sampler whenever fewer than
    ``min_samples`` survive.  Ω* is a *set* of discovered instances
    (Algorithm 3 accumulates with set union), so probabilities are fractions
    over distinct instances.  Refills aim for ``target_samples`` distinct
    instances and stop early only when the sampler saturates (two
    consecutive full-strength rounds finding nothing new); saturation below
    ``min_samples`` marks the store exhausted (Ω* = Ω) per Section III-B.

    Samples are stored as engine bitmasks; ``samples`` converts to
    frozensets (cached), ``compact_matrix`` exposes the boolean membership
    matrix that the frequency and information-gain reductions run on.  It
    holds only the engine's conflicted columns (``conflicted_columns``):
    a violation-free column is constant over Ω* (every emission ORs in
    ``allowed & violation_free_mask``, and a disapproval of a free
    candidate drops every sample), so ``counts`` fills it from one sample
    and the full-width ``matrix`` is decoded on demand at the boundary.
    When every column is conflicted (a shard's component engine) the
    compact matrix *is* the full one.

    **The Ω*-conditioning invariant.**  The numpy caches (membership matrix,
    counts, probability vector) are *views over Ω**: row *i*
    always describes ``_sample_masks[i]``, in order.  An assertion
    *conditions* Ω* on the asserted bit — it partitions the sample set into
    the instances containing the correspondence and those not containing it,
    and keeps the side consistent with the verdict.  The caches are
    maintained by applying the *same* partition to their rows (and appending
    rows for top-up discoveries) rather than being torn down and re-derived,
    so ``record_assertion`` costs one boolean row-filter instead of a full
    rebuild (a free candidate keeps every row or none, since its column is
    constant); ``version`` increments on every mutation so downstream caches
    (e.g. the probabilistic network's folded vector) can validate cheaply.

    **The wave/priority invariant.**  Every instance a refill adds to Ω* is
    emitted by the batched priority-wave maximaliser
    (:func:`~repro.core.repair.wave_maximalize_batch`): each walk state
    draws iid uniform priorities over the conflicted availability and is
    extended to the unique maximal instance the sequential greedy scan in
    increasing-priority order would build (the waves decide a candidate
    once every violation through it is settled at its turn, so they
    reproduce that scan exactly).  Because that order is a uniform
    permutation of the availability, the per-emission instance distribution
    is exactly the historical per-instance permutation scan's, so Ω* stays
    a valid Ω* sample per Section III-B — only the random stream (one
    priority matrix per refill instead of one permutation per emission) and
    the wall-clock change.  Every emission is maximal and violation-free by
    construction; the property suite pins both.
    """

    def __init__(
        self,
        network: MatchingNetwork,
        sampler: Optional[InstanceSampler] = None,
        target_samples: int = 500,
        min_samples: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ):
        if target_samples < 1:
            raise ValueError("target_samples must be positive")
        self.network = network
        self.sampler = sampler or InstanceSampler(network, rng=rng)
        self.target_samples = target_samples
        self.min_samples = min_samples if min_samples is not None else target_samples // 2
        self.feedback = Feedback()
        self._sample_masks: list[int] = []
        self._sample_set: set[int] = set()
        self._exhausted = False
        self.version = 0
        self._samples_cache: Optional[tuple[frozenset[Correspondence], ...]] = None
        self._columns: Optional[np.ndarray] = None
        self._matrix_cache: Optional[np.ndarray] = None
        self._compact_counts_cache: Optional[np.ndarray] = None
        self._counts_cache: Optional[np.ndarray] = None
        self._prob_vector_cache: Optional[np.ndarray] = None
        self._frequency_cache: Optional[Mapping[Correspondence, float]] = None
        self.refresh()

    def get_state(self) -> dict:
        """The store's persistent state: Ω* masks, feedback, flags.

        Everything else the store holds (membership matrices, counts,
        frequency views) is derived from these and rebuilt lazily after
        :meth:`from_state`; the sampler's RNG streams travel via
        :meth:`InstanceSampler.get_state`.
        """
        return {
            "sample_masks": list(self._sample_masks),
            "approved": sorted(self.feedback.approved),
            "disapproved": sorted(self.feedback.disapproved),
            "exhausted": self._exhausted,
            "version": self.version,
            "target_samples": self.target_samples,
            "min_samples": self.min_samples,
        }

    @classmethod
    def from_state(
        cls,
        network: MatchingNetwork,
        sampler: InstanceSampler,
        state: dict,
    ) -> "SampleStore":
        """Rebuild a store from :meth:`get_state` without re-sampling.

        The normal constructor refills the store (consuming sampler RNG);
        a restore must instead adopt the checkpointed Ω* verbatim so the
        RNG streams stay exactly where the checkpoint left them.
        """
        store = cls.__new__(cls)
        store.network = network
        store.sampler = sampler
        store.target_samples = state["target_samples"]
        store.min_samples = state["min_samples"]
        store.feedback = Feedback(state["approved"], state["disapproved"])
        store._sample_masks = list(state["sample_masks"])
        store._sample_set = set(store._sample_masks)
        store._exhausted = bool(state["exhausted"])
        store.version = int(state["version"])
        store._samples_cache = None
        store._columns = None
        store._matrix_cache = None
        store._compact_counts_cache = None
        store._counts_cache = None
        store._prob_vector_cache = None
        store._frequency_cache = None
        return store

    @property
    def samples(self) -> Sequence[frozenset[Correspondence]]:
        """The current sample set Ω* (distinct instances, discovery order).

        Approved correspondences outside the candidate set are restored into
        every instance here (the mask space cannot represent them).
        """
        if self._samples_cache is None:
            engine = self.network.engine
            corrs_of = engine.corrs_of
            extra = engine.outside_candidates(self.feedback.approved)
            if extra:
                self._samples_cache = tuple(
                    corrs_of(mask) | extra for mask in self._sample_masks
                )
            else:
                self._samples_cache = tuple(
                    corrs_of(mask) for mask in self._sample_masks
                )
        return self._samples_cache

    @property
    def sample_masks(self) -> Sequence[int]:
        """Ω* as engine bitmasks (discovery order) — the kernel-side view."""
        return tuple(self._sample_masks)

    @property
    def exhausted(self) -> bool:
        """True when the store believes it holds *all* matching instances."""
        return self._exhausted

    def refresh(self) -> None:
        """(Re-)fill the store up to ``target_samples`` for current feedback."""
        if len(self._sample_masks) < self.target_samples and not self._exhausted:
            self._top_up(goal=self.target_samples)
        self._invalidate()

    def _invalidate(self) -> None:
        self._matrix_cache = None
        self._invalidate_derived()

    def _invalidate_derived(self) -> None:
        """Drop the summaries re-derived from the (maintained) matrix."""
        self.version += 1
        self._samples_cache = None
        self._compact_counts_cache = None
        self._counts_cache = None
        self._prob_vector_cache = None
        self._frequency_cache = None

    def conflicted_columns(self) -> np.ndarray:
        """Ascending engine indices of the conflicted candidates: the
        columns of :meth:`compact_matrix` (frozen, cached)."""
        if self._columns is None:
            engine = self.network.engine
            columns = np.flatnonzero(
                engine.selection_array(engine.conflicted_mask)[:-1]
            )
            columns.setflags(write=False)
            self._columns = columns
        return self._columns

    def _full_width(self) -> bool:
        """Whether every column is conflicted (compact = full width)."""
        engine = self.network.engine
        return engine.conflicted_count == engine.n

    def _rows_for(self, masks: Sequence[int]) -> np.ndarray:
        """Compact membership rows for the given sample masks (the engine's
        batched mask decode, shared with the wave maximaliser, restricted
        to the conflicted columns)."""
        rows = self.network.engine.selection_matrix(masks)
        if self._full_width():
            return rows
        return rows[:, self.conflicted_columns()]

    def _condition_caches(self, index: int, approved: bool) -> None:
        """Apply the Ω*-partition of one assertion to the cached matrix.

        Keeps the matrix rows aligned with the filtered ``_sample_masks`` —
        the view-maintenance counterpart of the mask filter in
        :meth:`record_assertion`.
        """
        matrix = self._matrix_cache
        if matrix is None or len(matrix) == len(self._sample_masks):
            return
        position = index
        if not self._full_width():
            columns = self.conflicted_columns()
            position = int(np.searchsorted(columns, index))
            if position == len(columns) or columns[position] != index:
                # A violation-free column is constant over Ω*: a partition
                # that dropped any row dropped them all.
                position = None
        if position is None:
            matrix = matrix[:0]
        else:
            column = matrix[:, position]
            matrix = matrix[column if approved else ~column]
        matrix.setflags(write=False)
        self._matrix_cache = matrix

    def _append_cached_rows(self, start: int) -> None:
        """Append membership rows for masks discovered by a top-up."""
        matrix = self._matrix_cache
        if matrix is None or start >= len(self._sample_masks):
            return
        fresh = self._rows_for(self._sample_masks[start:])
        matrix = np.vstack((matrix, fresh))
        matrix.setflags(write=False)
        self._matrix_cache = matrix

    def _merge(self, fresh: Sequence[int]) -> int:
        """Union new sample masks into the store; return how many were new."""
        existing = self._sample_set
        samples = self._sample_masks
        added = 0
        for mask in fresh:
            if mask not in existing:
                existing.add(mask)
                samples.append(mask)
                added += 1
        return added

    def record_assertion(self, corr: Correspondence, approved: bool) -> None:
        """Condition Ω* on one assertion, then top up only the deficit.

        Per the Ω*-conditioning invariant (class docstring), the cached
        matrices are partitioned on the asserted bit alongside the masks —
        an approval keeps the rows containing the correspondence, a
        disapproval the rows without it — so no cache is re-derived from
        scratch.
        """
        self.feedback.record(corr, approved)
        engine = self.network.engine
        index = engine.index_of.get(corr)
        dropped = 0
        if index is not None:
            bit = engine.bits[index]
            if approved:
                survivors = [m for m in self._sample_masks if m & bit]
            else:
                survivors = [m for m in self._sample_masks if not (m & bit)]
            dropped = len(self._sample_masks) - len(survivors)
            if dropped:
                self._sample_masks = survivors
                self._sample_set = set(survivors)
            self._condition_caches(index, approved)
        # else: a non-candidate participates in no violation, so approval
        # keeps every sample (it is restored at the frozenset boundary) and
        # disapproval removes nothing — no filtering either way.
        self._invalidate_derived()
        if self._exhausted:
            if approved or not dropped:
                # Approval-conditioning is exact: Ω(F⁺∪{c}, F⁻) is precisely
                # the surviving side of the partition, so a complete store
                # stays complete.
                return
            # Disapproval is not: maximality is judged modulo F⁻, so
            # dropping the instances containing c can expose *newly maximal*
            # instances the filtered view has never seen.  The store is no
            # longer provably complete — resume sampling.
            self._exhausted = False
        if len(self._sample_masks) < self.min_samples:
            self._top_up(goal=self.target_samples)

    def retract_approval(self, corr: Correspondence, refill: bool = True) -> None:
        """Re-condition Ω* when conflict repair moves ``corr`` to F⁻.

        Approval-conditioning kept exactly the samples containing ``corr``;
        once the constraints prove the approval wrong, those samples are the
        invalid side of the partition — drop them (the same row filter as a
        disapproval), clear any completeness claim (instances without
        ``corr`` were systematically excluded, so Ω* is no longer provably
        Ω) and top the store back up under the corrected feedback.

        ``refill=False`` skips that top-up.  Conflict repair retracts and
        then immediately records a further assertion, which conditions the
        store again and refills it under the *final* feedback — refilling
        per retraction would pay a full walk/emission pass only to discard
        much of it one call later.  Callers that skip the refill must end
        their feedback transaction with a mutation that restores it (every
        ``record_assertion`` does).
        """
        self.feedback.retract_approval(corr)
        engine = self.network.engine
        index = engine.index_of.get(corr)
        if index is not None:
            bit = engine.bits[index]
            survivors = [m for m in self._sample_masks if not (m & bit)]
            if len(survivors) != len(self._sample_masks):
                self._sample_masks = survivors
                self._sample_set = set(survivors)
            self._condition_caches(index, approved=False)
        self._invalidate_derived()
        self._exhausted = False
        if refill and len(self._sample_masks) < self.min_samples:
            self._top_up(goal=self.target_samples)

    def _top_up(self, goal: int) -> None:
        """Sample towards ``goal`` distinct instances; detect exhaustion.

        Keeps invoking the sampler until the store holds ``goal`` distinct
        instances or the sampler *saturates* — two consecutive full-strength
        rounds contributing nothing new.  A round normally runs just enough
        walk iterations to cover the shortfall; after any fruitless round
        the next probe escalates to ``goal`` iterations, so saturation is
        only ever concluded from full-strength evidence.

        Saturation below ``min_samples`` additionally marks the store
        exhausted (Ω* = Ω, Section III-B: the instance space itself is
        deemed that small), which disables future top-ups.  Saturating
        *above* the minimum merely ends this refill: the walk may simply be
        mixing poorly, so later feedback still triggers fresh attempts
        rather than freezing probabilities on a partial Ω* forever.
        """
        start = len(self._sample_masks)
        fruitless_full_rounds = 0
        escalate = False
        while len(self._sample_masks) < goal:
            budget = max(goal - len(self._sample_masks), self.min_samples)
            if escalate:
                budget = max(budget, goal)
            full_strength = budget >= goal
            fresh = self.sampler.sample_masks(budget, self.feedback)
            if self._merge(fresh):
                fruitless_full_rounds = 0
                escalate = False
            else:
                escalate = True
                if full_strength:
                    fruitless_full_rounds += 1
                    if fruitless_full_rounds >= 2:
                        if len(self._sample_masks) < self.min_samples:
                            self._exhausted = True
                        break
        self._append_cached_rows(start)
        self._invalidate_derived()

    def compact_matrix(self) -> np.ndarray:
        """Boolean membership matrix: rows = samples, columns =
        :meth:`conflicted_columns`.

        Cached between mutations; the frequency and information-gain
        reductions consume it directly instead of re-densifying frozensets
        per selection step.
        """
        if self._matrix_cache is None:
            matrix = self._rows_for(self._sample_masks)
            # The cached array is shared with callers; freeze it so what-if
            # mutations cannot silently corrupt frequencies and gains.
            matrix.setflags(write=False)
            self._matrix_cache = matrix
        return self._matrix_cache

    def compact_counts(self) -> np.ndarray:
        """Sample counts of the :meth:`conflicted_columns` (int64, frozen,
        cached)."""
        if self._compact_counts_cache is None:
            counts = self.compact_matrix().sum(axis=0, dtype=np.int64)
            counts.setflags(write=False)
            self._compact_counts_cache = counts
        return self._compact_counts_cache

    def matrix(self) -> np.ndarray:
        """Boolean membership matrix: rows = samples, columns = candidates.

        The full-width boundary view, decoded from the masks per call
        (frozen); when every column is conflicted it is the cached
        :meth:`compact_matrix`.
        """
        if self._full_width():
            return self.compact_matrix()
        matrix = self.network.engine.selection_matrix(self._sample_masks)
        matrix.setflags(write=False)
        return matrix

    def counts(self) -> np.ndarray:
        """Per-candidate sample counts over Ω* (int64, frozen, cached)."""
        if self._counts_cache is None:
            compact = self.compact_counts()
            if self._full_width():
                counts = compact
            else:
                engine = self.network.engine
                counts = np.zeros(engine.n, dtype=np.int64)
                if self._sample_masks:
                    # Every violation-free column holds one sample's value.
                    first = engine.selection_array(self._sample_masks[0])
                    counts[first[:-1]] = len(self._sample_masks)
                    counts[self.conflicted_columns()] = compact
                counts.setflags(write=False)
            self._counts_cache = counts
        return self._counts_cache

    def probability_vector(self) -> np.ndarray:
        """Sample frequencies as a float64 vector over the engine's candidate
        index — the representation the reconciliation loop consumes.

        Values are exactly ``count / |Ω*|`` (bit-for-bit what the
        ``frequencies`` mapping holds); the dict view is materialised from
        this vector only at module boundaries.
        """
        if self._prob_vector_cache is None:
            total = len(self._sample_masks)
            if total:
                vector = self.counts() / float(total)
            else:
                vector = np.zeros(self.network.engine.n, dtype=np.float64)
            vector.setflags(write=False)
            self._prob_vector_cache = vector
        return self._prob_vector_cache

    def frequencies(self) -> Mapping[Correspondence, float]:
        """Sample frequency of each candidate: the estimated probabilities.

        Returns a cached *immutable* mapping (rebuilt only after mutations),
        so reconciliation loops that read the distribution several times per
        assertion pay O(1) per read instead of an O(|C|) dict copy.  Callers
        that need to mutate must copy explicitly (``dict(frequencies)``).
        """
        if self._frequency_cache is None:
            self._frequency_cache = MappingProxyType(
                dict(
                    zip(
                        self.network.correspondences,
                        self.probability_vector().tolist(),
                    )
                )
            )
        return self._frequency_cache

    def __len__(self) -> int:
        return len(self._sample_masks)
