"""Greedy repair of an inconsistent instance (paper Algorithm 4).

``repair`` resolves the violations created by adding a correspondence to an
instance by repeatedly removing the correspondence involved in the most
violations, never touching F⁺ and (by preference) not the newly added
correspondence.  The paper's algorithm excludes the added correspondence from
removal outright; when a violation consists solely of the added
correspondence and F⁺ members that rule would loop forever, so we fall back
to removing the added correspondence itself, and raise when even that cannot
restore consistency (which means F⁺ is contradictory).

Hot-path layout: the real kernels — :func:`repair_mask` and
:func:`greedy_maximalize_mask` — run entirely in the engine's bitmask index
space (selections are ints, violations are precompiled masks).  The public
:func:`repair` / :func:`greedy_maximalize` keep the original frozenset API
and are thin conversion wrappers; the sampler, the instantiation search and
the enumerator call the mask kernels directly.

Deterministic behaviour (``rng=None``) of the kernels is bit-for-bit
identical to the historical frozenset implementation: the victim of a repair
round is the violation-count maximiser with canonical-order tie-break, and
maximalisation tries candidates in insertion order.  With an ``rng``, ties
and candidate order are randomised with the same distribution as before
(although the consumed random stream differs from older releases).
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

import numpy as np

from .constraints import ConstraintEngine, mask_indices, shuffled
from .correspondence import Correspondence

#: Above this many available candidates, ``greedy_maximalize_mask`` runs the
#: engine's vectorised blocked pre-filter before the per-candidate scan.
_PREFILTER_MIN_AVAIL = 24

#: Priorities per gathered block when ``wave_maximalize_batch`` compares
#: dependency arcs (32 768 float64 values, 256 KB per operand).
_ARC_BLOCK = 1 << 15


class UnrepairableError(ValueError):
    """Raised when violations persist among protected correspondences."""


def _pick_bit(others: int, rank: tuple[int, ...], rng: Optional[random.Random]) -> int:
    """One removable bit of ``others``: canonical-min without ``rng``,
    uniform with it.  ``others`` is non-zero."""
    bit = others & -others
    rest = others ^ bit
    if not rest:
        return bit
    if rng is None:
        if rest & (rest - 1):  # three or more bits: general scan
            best, best_rank = 0, len(rank) + 1
            while others:
                candidate = others & -others
                others ^= candidate
                r = rank[candidate.bit_length() - 1]
                if r < best_rank:
                    best, best_rank = candidate, r
            return best
        if rank[rest.bit_length() - 1] < rank[bit.bit_length() - 1]:
            return rest
        return bit
    count = others.bit_count()
    choice = rng.randrange(count)
    while choice:
        others ^= others & -others
        choice -= 1
    return others & -others


def repair_mask(
    engine: ConstraintEngine,
    instance: int,
    index: Optional[int],
    protected: int = 0,
    rng: Optional[random.Random] = None,
    assume_consistent: bool = True,
) -> int:
    """Mask-space ``repair(I, c, F⁺, Γ)``: the hot kernel.

    ``instance`` is the selection mask, ``index`` the candidate whose
    insertion caused the violations, ``protected`` the F⁺ mask.  Returns the
    repaired selection mask (always containing bit ``index`` unless the only
    repair was to sacrifice it).  ``index=None`` repairs the instance as-is
    (only meaningful with ``assume_consistent=False``; no bit is privileged
    or protected-by-preference).
    """
    if index is None:
        bit = 0
        cur = instance
        if assume_consistent:
            return cur
    else:
        bit = engine.bits[index]
        cur = instance | bit
    if assume_consistent:
        # Fast exit: no co-member of any violation of ``index`` is selected,
        # so nothing can have activated (common along sparse walk states).
        # A None union means a singleton violation — never safe to skip.
        conflict_union = engine._conflict_union[index]
        if conflict_union is not None and not (instance & conflict_union):
            return cur
        active = engine.mask_active_violations(cur, index)
    else:
        violation_masks = engine.violation_masks
        active = [
            violation_masks[i] for i in engine.mask_violations_within(cur)
        ]
    if not active:
        return cur
    rank = engine._rank
    while True:
        count = len(active)
        if count == 1:
            others = active[0] & ~bit
            if protected:
                others &= ~protected
            if others:
                return cur ^ _pick_bit(others, rank, rng)
            if (active[0] & bit) and not (bit & protected):
                return cur ^ bit
            raise UnrepairableError(
                "constraint violations persist among approved correspondences"
            )
        if count == 2:
            first, second = active
            if first & second == bit:
                # The two violations share only the added bit, so their
                # resolutions decouple: removing each one's best victim is
                # the same greedy outcome (and, with rng, the same
                # distribution) as two coupled rounds.
                others_a = first & ~bit
                others_b = second & ~bit
                if protected:
                    others_a &= ~protected
                    others_b &= ~protected
                if others_a and others_b:
                    return (
                        cur
                        ^ _pick_bit(others_a, rank, rng)
                        ^ _pick_bit(others_b, rank, rng)
                    )
                if bit and not (bit & protected):
                    # Strip the removable side first (mirroring the greedy
                    # rounds), then sacrifice the added bit, which silences
                    # the unremovable violation too.
                    if others_a:
                        cur ^= _pick_bit(others_a, rank, rng)
                    elif others_b:
                        cur ^= _pick_bit(others_b, rank, rng)
                    return cur ^ bit
                raise UnrepairableError(
                    "constraint violations persist among approved correspondences"
                )
        # General round: remove the most-violating removable correspondence.
        counts: dict[int, int] = {}
        for vmask in active:
            remaining = vmask
            while remaining:
                member = remaining & -remaining
                counts[member] = counts.get(member, 0) + 1
                remaining ^= member
        victim, best_count, best_rank = 0, 0, len(rank) + 1
        ties: list[int] = []
        for member, member_count in counts.items():
            if member == bit or (member & protected):
                continue
            if member_count > best_count:
                victim, best_count = member, member_count
                if rng is None:
                    best_rank = rank[member.bit_length() - 1]
                else:
                    ties = [member]
            elif member_count == best_count and member_count:
                if rng is None:
                    r = rank[member.bit_length() - 1]
                    if r < best_rank:
                        victim, best_rank = member, r
                else:
                    ties.append(member)
        if rng is not None and len(ties) > 1:
            victim = ties[rng.randrange(len(ties))]
        if not victim:
            if not (bit & protected) and counts.get(bit):
                victim = bit
            else:
                raise UnrepairableError(
                    "constraint violations persist among approved correspondences"
                )
        cur ^= victim
        active = [vmask for vmask in active if not (vmask & victim)]
        if not active:
            return cur


def greedy_maximalize_mask(
    engine: ConstraintEngine,
    instance: int,
    allowed: int,
    rng: Optional[random.Random] = None,
    np_rng: Optional[np.random.Generator] = None,
    conflicted_avail: Optional[set] = None,
) -> int:
    """Mask-space greedy maximalisation: the sampler's emission kernel.

    ``allowed`` is the candidate mask minus F⁻.  Candidates are tried in
    random order (insertion order when ``rng`` is None) and added whenever
    they activate no violation.

    Violation-free candidates — the ones no compiled violation mentions —
    can neither block nor be blocked, so the outcome never depends on where
    they land in the scan order: they are OR-ed in wholesale and only the
    conflict-involved availability is shuffled and scanned.  (The resulting
    maximal-instance distribution is exactly the full-shuffle one; the
    consumed random stream is shorter.)  A vectorised pre-filter further
    discards the candidates already blocked by ``instance`` — blocking is
    monotone, so they could never be added in any order — leaving the exact
    sequential check to the few survivors.

    ``np_rng`` supplies the scan permutation from a numpy generator (a
    C-level shuffle) instead of the pure-Python Fisher–Yates over ``rng`` —
    same uniform-permutation distribution, an order of magnitude cheaper for
    the sampler, which emits thousands of maximalisations per refill.  When
    both are given, ``np_rng`` wins; when neither is, the scan is the
    deterministic insertion order.

    ``conflicted_avail`` (only with ``np_rng``) hands over the available
    conflict-involved indices as a pre-maintained set — the sampler's walk
    keeps it patched incrementally — skipping the mask-to-indices
    round-trip here entirely.  It must equal the conflicted part of
    ``allowed & ~instance``.
    """
    cur = instance
    avail = allowed & ~cur
    if not avail:
        return cur
    free = avail & engine.violation_free_mask
    if free:
        cur |= free
        avail ^= free
        if not avail:
            return cur
    if conflicted_avail is not None and np_rng is not None:
        count = len(conflicted_avail)
        if count > 1:
            indices = np_rng.permutation(
                np.fromiter(conflicted_avail, dtype=np.intp, count=count)
            ).tolist()
        else:
            indices = list(conflicted_avail)
    elif avail.bit_count() > _PREFILTER_MIN_AVAIL:
        # Large availability: extract the index list with array ops.  The
        # blocked pre-filter additionally pays off when the *conflicted*
        # part of the selection is dense enough that a good share of the
        # candidates are already blocked; from a sparse walk state almost
        # everything survives and the extra array pass is pure overhead.
        # (Free bits never block, so they are excluded from the estimate.)
        avail_vector = engine.selection_array(avail)[:-1]
        if (
            (cur & engine.conflicted_mask).bit_count() * 3
            >= engine.conflicted_count
        ):
            survivors = np.flatnonzero(avail_vector & ~engine.blocked_candidates(cur))
        else:
            survivors = np.flatnonzero(avail_vector)
        if np_rng is not None:
            indices = np_rng.permutation(survivors).tolist()
        elif rng is not None:
            indices = shuffled(survivors.tolist(), rng)
        else:
            indices = survivors.tolist()
    elif np_rng is not None:
        indices = np_rng.permutation(
            np.asarray(mask_indices(avail), dtype=np.intp)
        ).tolist()
    elif rng is not None:
        indices = shuffled(mask_indices(avail), rng)
    else:
        indices = mask_indices(avail)
    scan_rows = engine._scan_rows
    for bit, partners, large in map(scan_rows.__getitem__, indices):
        if cur & partners:
            continue
        if large:
            grown = cur | bit
            for vmask in large:
                if vmask & grown == vmask:
                    break
            else:
                cur = grown
            continue
        cur |= bit
    return cur


def wave_maximalize_batch(
    engine: ConstraintEngine,
    instances: Sequence[int],
    allowed: int,
    np_rng: Optional[np.random.Generator] = None,
    priorities: Optional[np.ndarray] = None,
) -> list[int]:
    """Maximalise a whole batch of instances with priority waves.

    The batched counterpart of the scalar :func:`greedy_maximalize_mask`,
    after the random-priority greedy maximal-independent-set schedule of
    Blelloch, Fineman & Shun (*Greedy sequential maximal independent set
    and matching are parallel on average*, SPAA 2012): instead of scanning
    one emission's conflicted availability sequentially, every emission
    draws a random priority per conflicted candidate and candidates are
    admitted in numpy *waves* — a candidate is decided as soon as every
    lower-priority violation partner (the engine's
    :class:`~repro.core.constraints.WaveTables` dependency arcs) has been
    decided, and admitted unless a violation would complete against the
    already-admitted selection.  Violation-free candidates are OR-ed in
    wholesale up front, exactly as the scalar kernel does.

    **Exactness.**  For a fixed priority assignment the wave schedule
    computes precisely the sequential greedy scan in increasing-priority
    order: when a candidate is decided, its selected violation partners are
    exactly the admitted lower-priority ones (higher-priority partners are
    still waiting on it), so every admission test sees the same selection
    the sequential scan would.  Priority ties decide the lower index first,
    mirroring an index-ordered scan.  With iid uniform priorities per
    emission (``np_rng``) the induced scan order is a uniform permutation
    of the conflicted availability — the same emission distribution as the
    scalar kernel's ``np_rng.permutation`` path, with the whole refill's
    emissions decided in a handful of array waves (the dependency depth of
    random priorities is logarithmic).

    ``instances`` are walk-state selection masks, all sampled under the same
    ``allowed`` mask (candidates minus F⁻).  ``priorities`` overrides the
    random draw with an explicit ``(len(instances), n)`` float array (only
    the conflicted columns matter) — the hook the fixed-priority parity
    tests use; with neither ``np_rng`` nor ``priorities`` the scan order is
    the deterministic ascending index order, bit-for-bit
    :func:`greedy_maximalize_mask`'s ``rng=None`` behaviour.  Returns the
    maximal masks in input order.
    """
    count = len(instances)
    if not count:
        return []
    free = allowed & engine.violation_free_mask
    base = [instance | free for instance in instances]
    if not allowed & engine.conflicted_mask:
        return base
    tables = engine.wave_tables()
    conflicted = tables.conflicted
    m = len(conflicted)
    rows = engine.selection_matrix(base, sentinel=False)
    # Everything below runs transposed — (candidates, emissions) — with the
    # emission axis packed into 64-bit words: a wave's boolean algebra over
    # the whole batch is a few word ops per candidate row, and the
    # per-candidate group-ORs reduce rows of a handful of words.  Padding
    # bits past ``count`` stay zero throughout (packbits zero-pads, `live`
    # starts masked by ``pad`` and only ever shrinks, and the one
    # complement below is re-masked), so they never leak into real
    # emissions.
    nbytes = (count + 7) // 8
    words = (count + 63) // 64

    def pack(flags: np.ndarray) -> np.ndarray:
        """Pack bool rows along the emission axis into uint64 words."""
        packed = np.zeros((len(flags), words * 8), dtype=np.uint8)
        packed[:, :nbytes] = np.packbits(flags, axis=1, bitorder="little")
        return packed.view(np.uint64)

    sel = np.empty((m + 1, words), dtype=np.uint64)
    sel[:m] = pack(rows[:, conflicted].T)
    sel[m] = ~np.uint64(0)
    pad = pack(np.ones((1, count), dtype=bool))[0]
    avail = engine.selection_array(allowed & engine.conflicted_mask)[:-1]
    live = np.where(avail[conflicted, None], pad, np.uint64(0)) & ~sel[:m]
    if priorities is not None:
        priorities = np.asarray(priorities, dtype=np.float64)
        if priorities.shape != (count, engine.n):
            raise ValueError(
                f"priorities must have shape {(count, engine.n)}, "
                f"got {priorities.shape}"
            )
        pri = np.ascontiguousarray(priorities[:, conflicted].T)
        # NaN compares false both ways: nothing would wait on a NaN
        # neighbour and mutually exclusive partners would co-admit —
        # silently inconsistent output, so reject it here.
        if np.isnan(pri).any():
            raise ValueError("priorities must not contain NaN")
    elif np_rng is not None:
        pri = np_rng.random((m, count))
    else:
        pri = np.broadcast_to(
            np.arange(m, dtype=np.float64)[:, None], (m, count)
        )
    # Arc wins — "the partner precedes the candidate" — are wave-invariant,
    # so they are hoisted out of the loop.  Arcs come in (a, b)/(b, a)
    # pairs: each pair is compared once, on its a < b side, with a strict
    # ``pri[b] < pri[a]``; the reverse arc wins exactly when that one does
    # not (a tie goes to the lower index a either way).
    fwd, dep_dst = tables.dep_fwd, tables.dep_dst
    fwd_src, fwd_dst = tables.dep_src[fwd], dep_dst[fwd]
    # Compared a block of arcs at a time, so the two gathered priority
    # blocks stay in cache instead of streaming P/2 × count floats.
    before = np.empty((len(fwd), count), dtype=bool)
    step = max(1, _ARC_BLOCK // count)
    for lo in range(0, len(fwd), step):
        np.less(
            np.take(pri, fwd_dst[lo : lo + step], axis=0),
            np.take(pri, fwd_src[lo : lo + step], axis=0),
            out=before[lo : lo + step],
        )
    fwd_wins = pack(before)
    arc_wins = np.empty((len(dep_dst), words), dtype=np.uint64)
    arc_wins[fwd] = fwd_wins
    arc_wins[tables.dep_rev] = ~fwd_wins & pad
    while live.any():
        # Prune live candidates some violation already blocks: blocking is
        # monotone in the selection, so their fate (rejected) is known now —
        # deciding them early frees their partners from waiting on them
        # without changing any admission test.
        hit = np.take(sel, tables.blk_columns[0], axis=0)
        for column in tables.blk_columns[1:]:
            hit &= np.take(sel, column, axis=0)
        live &= ~np.bitwise_or.reduceat(hit, tables.blk_starts, axis=0)
        # Ready: every live lower-priority partner has been decided.
        cond = np.take(live, dep_dst, axis=0)
        cond &= arc_wins
        waiting = np.zeros((m, words), dtype=np.uint64)
        waiting[tables.dep_group] = np.bitwise_or.reduceat(
            cond, tables.dep_starts, axis=0
        )
        ready = live & ~waiting
        # A live minimum-(priority, index) candidate is always ready (NaN,
        # the one float that breaks the argument, is rejected on input), so
        # the wave always makes progress; the guard is pure defence.
        if not ready.any():
            if not live.any():
                break
            raise ValueError("priority waves stalled")
        # Ready candidates are mutually violation-free (two co-members of a
        # violation gate each other), and the blocked ones were just pruned:
        # admit them all.
        sel[:m] |= ready
        live &= ~ready
    rows[:, conflicted] = np.unpackbits(
        sel[:m].view(np.uint8), axis=1, bitorder="little"
    )[:, :count].T
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def repair(
    instance: Iterable[Correspondence],
    added: Correspondence,
    approved: Iterable[Correspondence],
    engine: ConstraintEngine,
    rng: Optional[random.Random] = None,
    assume_consistent: bool = True,
) -> set[Correspondence]:
    """Return a consistent instance containing ``added`` where possible.

    Parameters mirror the paper's ``repair(I, c, F⁺, Γ)``: ``instance`` is
    the instance, ``added`` the correspondence whose insertion caused the
    violations, ``approved`` the protected F⁺ set and ``engine`` the
    compiled constraint engine standing in for Γ.

    With ``assume_consistent`` (the default, and the paper's setting) the
    input instance is trusted to satisfy Γ, so only violations involving
    ``added`` can be active — adding one correspondence activates only
    violations containing it, and removals never activate new ones (the
    constraints are anti-monotone).  Pass ``assume_consistent=False`` to
    repair an arbitrary, possibly inconsistent instance.

    Ties between equally-violating correspondences are broken uniformly at
    random when ``rng`` is given, deterministically (canonical correspondence
    order) otherwise.  This is the boundary wrapper around
    :func:`repair_mask`.
    """
    instance = set(instance)
    index = engine.index_of.get(added)
    if index is None and assume_consistent:
        # Not a compiled candidate: it cannot participate in any violation,
        # and a consistent input has nothing else to repair.
        instance.add(added)
        return instance
    repaired = repair_mask(
        engine,
        engine.mask_of(instance),
        index,
        engine.mask_of(approved),
        rng=rng,
        assume_consistent=assume_consistent,
    )
    result = set(engine.corrs_of(repaired))
    # Preserve members outside the compiled candidate set (they participate
    # in no violation, so they can never be repair victims).
    result |= engine.outside_candidates(instance)
    if index is None:
        result.add(added)
    return result


def greedy_maximalize(
    instance: Iterable[Correspondence],
    candidates: Iterable[Correspondence],
    disapproved: Iterable[Correspondence],
    engine: ConstraintEngine,
    rng: Optional[random.Random] = None,
) -> set[Correspondence]:
    """Extend a consistent instance to a *maximal* one (Definition 1).

    Candidates outside F⁻ are tried in random order (or the caller's
    ``candidates`` order when no ``rng`` is given) and added whenever they
    do not activate a violation.  The sampler uses this to turn the random
    walk's consistent sets into genuine matching instances; this is the
    boundary wrapper around :func:`greedy_maximalize_mask`.

    Candidates outside the engine's compiled set participate in no
    violation, so they are always added (as the set-based implementation
    always did); members of ``instance`` are never dropped.
    """
    candidates = tuple(candidates)
    blocked = frozenset(disapproved)
    if rng is None:
        # Deterministic mode honours the caller-supplied candidate order.
        current = set(instance)
        mask = engine.mask_of(current)
        index_of = engine.index_of
        bits = engine.bits
        for corr in candidates:
            if corr in current or corr in blocked:
                continue
            index = index_of.get(corr)
            if index is None:
                current.add(corr)
            elif not (mask & bits[index]) and engine.mask_can_add(mask, index):
                mask |= bits[index]
                current.add(corr)
        return current
    maximal = greedy_maximalize_mask(
        engine,
        engine.mask_of(instance),
        engine.mask_of(candidates) & ~engine.mask_of(disapproved),
        rng=rng,
    )
    result = set(engine.corrs_of(maximal))
    # Preserve members outside the compiled candidate set (the frozenset API
    # never dropped them; they cannot conflict with anything) and add the
    # vacuously-addable unknown candidates.
    result |= engine.outside_candidates(instance)
    result |= engine.outside_candidates(candidates) - blocked
    return result
