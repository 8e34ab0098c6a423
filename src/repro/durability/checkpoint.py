"""Versioned checkpoints of live reconciliation sessions.

A checkpoint is one JSON document (``kind: "session-checkpoint"``, versioned
through the :mod:`repro.io` conventions) that captures *everything* a
session's future behaviour depends on:

* the matching network itself (embedded ``matching-network`` document, so a
  checkpoint is self-contained),
* the sample store — Ω* masks (hex strings), feedback F±, the exhaustion
  flag and version counter — plus both sampler RNG streams
  (``random.Random`` Mersenne state and the numpy generator's
  bit-generator state, both of which JSON round-trips exactly), or just
  the 64-bit spawn seed of a shard stream that never drew,
* the oracle / worker pool: per-worker memoised verdicts and answer-stream
  RNG positions,
* the session shell: strategy or assignment/aggregator state (by registry
  name), budget ledger, worker statistics, conflict counters, the
  assertion order the repair tie-break consults, the fault-injection
  re-queue, the full trace, and the fault plan (including its private RNG
  stream) when one is attached.

One encoder/decoder pair (:func:`checkpoint_to_dict`,
:func:`session_from_dict`) handles the fields both session kinds share —
network, estimator, ``on_conflict``, counters, initial uncertainty,
journal position — and each kind's codec adds only its own fields.

``save_checkpoint`` writes atomically (temp file + ``os.replace``), and
splices in the network's and the ground truth's JSON texts, each encoded
once (:attr:`~repro.core.network.MatchingNetwork.json_text`): only the
rest of the document is encoded per checkpoint.  ``restore_session``
rebuilds a live session that continues the *same* random streams — a
restored run is bit-identical to one that never stopped, which is the
property :mod:`repro.durability.recovery` builds on.

Sessions backed by a :class:`~repro.core.probability.SampledEstimator` or a
:class:`~repro.shard.ShardedEstimator` are checkpointable: those are the
production paths (sharded checkpoints capture every shard's Ω* masks and
sampler state, plus the master stream), and the exact estimator's state is
a pure function of feedback anyway.  A shard's sampler state is both of
its RNG streams once the shard has walked, and until then the seed the
master stream spawned it from (format version 4); restoring a seed
re-derives exactly the streams the shard would have built.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import random

from ..core.correspondence import Correspondence
from ..core.correspondence import correspondence as corr_factory
from ..core.feedback import NoisyOracle, Oracle
from ..core.schema import Attribute
from ..core.probability import ProbabilisticNetwork, SampledEstimator
from ..core.reconciliation import (
    ReconciliationSession,
    ReconciliationStep,
    SessionCore,
)
from ..core.sampling import InstanceSampler, SampleStore
from ..core.selection import STRATEGIES, make_strategy
from ..crowd.assignment import ASSIGNMENTS, AssignmentPolicy
from ..crowd.aggregation import make_aggregator
from ..crowd.budget import BudgetLedger
from ..crowd.session import CrowdRound, CrowdSession
from ..crowd.workers import Worker, WorkerPool
from ..shard import ShardedEstimator, ShardedSampleStore
from ..io import (
    FORMAT_VERSION,
    FormatError,
    _check_version,
    correspondence_from_dict,
    correspondence_to_dict,
    network_from_dict,
    network_to_dict,
)
from .faults import FaultPlan, RetryPolicy

CHECKPOINT_KIND = "session-checkpoint"
#: What :func:`save_checkpoint` encodes in the ground truth's place, to
#: splice the truth's cached text there.
_TRUTH_SLOT = "\0truth"


def _json_default(value):
    """Coerce numpy scalars (bit-generator state fields) to Python ints."""
    try:
        return int(value)
    except (TypeError, ValueError):  # pragma: no cover - defensive
        raise TypeError(f"not JSON serialisable: {value!r}") from None


def _rng_from_json(state) -> tuple:
    """A ``random.Random`` state round-tripped through JSON, re-tupled."""
    version, internal, gauss = state
    return (version, tuple(internal), gauss)


# ---------------------------------------------------------------------------
# Leaf codecs
# ---------------------------------------------------------------------------


def _corrs_to_list(corrs) -> list[dict]:
    # Sorting on the key tuple gives ``Correspondence.__lt__``'s order
    # without building two key tuples per comparison.
    return [
        correspondence_to_dict(corr)
        for corr in sorted(corrs, key=Correspondence._key)
    ]


def _corrs_from_list(entries, schemas) -> list[Correspondence]:
    return [correspondence_from_dict(entry, schemas) for entry in entries]


def _detached_corr(entry: dict) -> Correspondence:
    """A correspondence resolved without consulting the network's schemas.

    Ground truths, memoised oracle verdicts and trace history may
    reference schemas a later network delta removed; attribute identity
    is the ``(schema, name)`` pair, so detached attributes compare equal
    to live ones wherever both exist.
    """
    return corr_factory(
        Attribute(schema=entry["source"]["schema"], name=entry["source"]["name"]),
        Attribute(schema=entry["target"]["schema"], name=entry["target"]["name"]),
    )


def _truth_from_list(entries) -> frozenset[Correspondence]:
    return frozenset(_detached_corr(entry) for entry in entries)


@functools.lru_cache(maxsize=8)
def _truth_json(truth: frozenset[Correspondence]) -> str:
    """A ground truth's JSON text, encoded once: a truth never changes."""
    return json.dumps(_corrs_to_list(truth), sort_keys=True)


def _oracle_state_to_dict(oracle: NoisyOracle) -> dict:
    state = oracle.get_state()
    return {
        "rng": state["rng"],
        "verdicts": [
            [correspondence_to_dict(corr), verdict]
            for corr, verdict in state["verdicts"]
        ],
        "assertions_made": state["assertions_made"],
    }


def _oracle_state_from_dict(document: dict) -> dict:
    # Verdict memos are resolved detached: a network delta may have
    # removed the schemas of candidates the oracle already answered.
    return {
        "rng": _rng_from_json(document["rng"]),
        "verdicts": [
            [_detached_corr(entry), bool(verdict)]
            for entry, verdict in document["verdicts"]
        ],
        "assertions_made": document["assertions_made"],
    }


def _store_state_to_dict(store_state: dict) -> dict:
    """One SampleStore ``get_state`` dict, made JSON-shaped (hex masks)."""
    return {
        "sample_masks": [
            format(mask, "x") for mask in store_state["sample_masks"]
        ],
        "approved": _corrs_to_list(store_state["approved"]),
        "disapproved": _corrs_to_list(store_state["disapproved"]),
        "exhausted": store_state["exhausted"],
        "version": store_state["version"],
        "target_samples": store_state["target_samples"],
        "min_samples": store_state["min_samples"],
    }


def _store_state_from_dict(store_doc: dict, schemas) -> dict:
    return {
        "sample_masks": [int(mask, 16) for mask in store_doc["sample_masks"]],
        "approved": _corrs_from_list(store_doc["approved"], schemas),
        "disapproved": _corrs_from_list(store_doc["disapproved"], schemas),
        "exhausted": store_doc["exhausted"],
        "version": store_doc["version"],
        "target_samples": store_doc["target_samples"],
        "min_samples": store_doc["min_samples"],
    }


def _pnet_to_dict(pnet: ProbabilisticNetwork) -> dict:
    estimator = pnet.estimator
    if isinstance(estimator, ShardedEstimator):
        store = estimator.store
        state = store.get_state()
        return {
            "estimator": "sharded",
            "config": {
                "target_samples": store.target_samples,
                "min_samples": store.min_samples,
                "enumerate_limit": store.enumerate_limit,
            },
            "approved": _corrs_to_list(state["approved"]),
            "disapproved": _corrs_to_list(state["disapproved"]),
            "version": state["version"],
            "rng": state["rng"],
            "shards": [
                {
                    "store": _store_state_to_dict(shard["store"]),
                    "sampler": shard["sampler"],
                }
                for shard in state["shards"]
            ],
        }
    if not isinstance(estimator, SampledEstimator):
        raise FormatError(
            "only SampledEstimator- or ShardedEstimator-backed sessions "
            "are checkpointable"
        )
    store = estimator.store
    return {
        "estimator": "sampled",
        "store": _store_state_to_dict(store.get_state()),
        "sampler": {
            "walk_steps": store.sampler.walk_steps,
            "restart_probability": store.sampler.restart_probability,
            "state": store.sampler.get_state(),
        },
    }


def _check_retired(document: dict, where: str, retired: dict) -> None:
    """Refuse a document that sets a retired option to another value.

    Older checkpoints record options that have since kept one value each
    (``retired`` maps every such field to it): an absent field or that
    value restores, and any other value would continue different streams
    or selections, so it raises a :class:`FormatError` naming
    ``<where>.<field>``.  Sharded documents may also carry a ``parallel``
    worker count, which never changed results and is ignored.
    """
    for field, only in retired.items():
        value = document.get(field, only)
        if value != only:
            raise FormatError(
                f"{where}.{field} is {value!r}: only {only!r} can be restored"
            )


def _sampler_state_from_json(state: dict) -> dict:
    if "seed" in state:
        return {"seed": state["seed"]}
    return {
        "rng": _rng_from_json(state["rng"]),
        "np_rng": state["np_rng"],
    }


def _sharded_pnet_from_dict(document: dict, network) -> ProbabilisticNetwork:
    schemas = {schema.name: schema for schema in network.schemas}
    config = document["config"]
    # Shard samplers walk with InstanceSampler's defaults, one shard per
    # violation component.
    _check_retired(
        config,
        "pnet.config",
        {
            "chains": 1,
            "walk_steps": 5,
            "restart_probability": 0.15,
            "max_shards": None,
        },
    )
    state = {
        "approved": _corrs_from_list(document["approved"], schemas),
        "disapproved": _corrs_from_list(document["disapproved"], schemas),
        "version": document["version"],
        "rng": _rng_from_json(document["rng"]),
        "shards": [
            {
                "store": _store_state_from_dict(shard_doc["store"], schemas),
                "sampler": _sampler_state_from_json(shard_doc["sampler"]),
            }
            for shard_doc in document["shards"]
        ],
    }
    store = ShardedSampleStore.from_state(
        network,
        state,
        target_samples=config["target_samples"],
        min_samples=config["min_samples"],
        enumerate_limit=config["enumerate_limit"],
    )
    return ProbabilisticNetwork(
        network, estimator=ShardedEstimator.from_store(store)
    )


def _pnet_from_dict(document: dict, network) -> ProbabilisticNetwork:
    kind = document.get("estimator")
    if kind == "sharded":
        return _sharded_pnet_from_dict(document, network)
    if kind != "sampled":
        raise FormatError(f"unknown estimator kind {kind!r}")
    schemas = {schema.name: schema for schema in network.schemas}
    sampler_doc = document["sampler"]
    _check_retired(sampler_doc, "pnet.sampler", {"chains": 1})
    sampler = InstanceSampler(
        network,
        walk_steps=sampler_doc["walk_steps"],
        restart_probability=sampler_doc["restart_probability"],
    )
    sampler.set_state(sampler_doc["state"])
    store = SampleStore.from_state(
        network,
        sampler,
        _store_state_from_dict(document["store"], schemas),
    )
    return ProbabilisticNetwork(
        network, estimator=SampledEstimator.from_store(store)
    )


def faultplan_to_dict(plan: FaultPlan) -> dict:
    """Serialise a fault plan *including* its private RNG stream position."""
    return {
        "seed": plan.seed,
        "timeout_probability": plan.timeout_probability,
        "dropout_probability": plan.dropout_probability,
        "latency_mean": plan.latency_mean,
        "question_timeout": plan.question_timeout,
        "crash_at_round": plan.crash_at_round,
        "budget_shocks": [
            [round_index, delta]
            for round_index, delta in sorted(plan.budget_shocks.items())
        ],
        "retry": (
            None
            if plan.retry is None
            else {
                "max_retries": plan.retry.max_retries,
                "backoff_base": plan.retry.backoff_base,
                "backoff_factor": plan.retry.backoff_factor,
            }
        ),
        "requeue": plan.requeue,
        "rng": plan.rng.getstate(),
    }


def faultplan_from_dict(document: dict) -> FaultPlan:
    """Restore a fault plan mid-stream.

    ``crash_at_round`` is deliberately dropped: the crash already happened;
    re-arming it would kill the recovered session at the same boundary
    forever.
    """
    retry_doc = document.get("retry")
    plan = FaultPlan(
        seed=document["seed"],
        timeout_probability=document["timeout_probability"],
        dropout_probability=document["dropout_probability"],
        latency_mean=document["latency_mean"],
        question_timeout=document["question_timeout"],
        crash_at_round=None,
        budget_shocks={
            int(round_index): delta
            for round_index, delta in document["budget_shocks"]
        },
        retry=None if retry_doc is None else RetryPolicy(**retry_doc),
        requeue=document["requeue"],
    )
    plan.rng.setstate(_rng_from_json(document["rng"]))
    return plan


# ---------------------------------------------------------------------------
# Crowd sessions
# ---------------------------------------------------------------------------


def _crowd_round_to_dict(record: CrowdRound) -> dict:
    return {
        "index": record.index,
        "questions": [correspondence_to_dict(c) for c in record.questions],
        "verdicts": list(record.verdicts),
        "votes": [
            [[worker_id, verdict] for worker_id, verdict in votes]
            for votes in record.votes
        ],
        "conflicts_resolved": record.conflicts_resolved,
        "approvals_retracted": record.approvals_retracted,
        "truncated": record.truncated,
        "spent": record.spent,
        "answers": record.answers,
        "uncertainty": record.uncertainty,
        "effort": record.effort,
        "timeouts": record.timeouts,
        "dropouts": record.dropouts,
        "unanswered": [
            correspondence_to_dict(c) for c in record.unanswered
        ],
        "degraded": record.degraded,
        "latency": record.latency,
        "shock": record.shock,
    }


def _crowd_round_from_dict(document: dict) -> CrowdRound:
    return CrowdRound(
        index=document["index"],
        questions=tuple(map(_detached_corr, document["questions"])),
        verdicts=tuple(bool(v) for v in document["verdicts"]),
        votes=tuple(
            tuple((worker_id, bool(verdict)) for worker_id, verdict in votes)
            for votes in document["votes"]
        ),
        conflicts_resolved=document["conflicts_resolved"],
        approvals_retracted=document["approvals_retracted"],
        truncated=document["truncated"],
        spent=document["spent"],
        answers=document["answers"],
        uncertainty=document["uncertainty"],
        effort=document["effort"],
        timeouts=document["timeouts"],
        dropouts=document["dropouts"],
        unanswered=tuple(map(_detached_corr, document["unanswered"])),
        degraded=document["degraded"],
        latency=document["latency"],
        shock=document["shock"],
    )


def _crowd_fields(session: CrowdSession, list_truth) -> dict:
    pool = session.pool
    truths = {worker.selective_matching for worker in pool}
    if len(truths) != 1:
        raise FormatError(
            "checkpointing expects one shared ground truth across the pool"
        )
    return {
        "k": session.k,
        "redundancy": session.redundancy,
        "criterion": session.criterion,
        "assignment": {
            "name": session.assignment.name,
            "state": session.assignment.get_state(),
        },
        "aggregator": {"name": session.aggregator.name},
        "ledger": session.ledger.get_state(),
        "stats": session.stats.get_state(),
        "assertion_order": [
            [correspondence_to_dict(corr), position]
            for corr, position in session._assertion_order.items()
        ],
        "requeued": [
            correspondence_to_dict(corr) for corr in session._requeued
        ],
        "pool": {
            "truth": list_truth(next(iter(truths))),
            "workers": [
                {
                    "worker_id": worker.worker_id,
                    "error_rate": worker.error_rate,
                    "state": _oracle_state_to_dict(worker),
                }
                for worker in pool
            ],
        },
        "trace": {
            "rounds": [
                _crowd_round_to_dict(record)
                for record in session.trace.rounds
            ],
        },
        "faults": (
            None if session.faults is None else faultplan_to_dict(session.faults)
        ),
    }


def _crowd_session(document: dict, pnet: ProbabilisticNetwork) -> CrowdSession:
    _check_retired(document, "checkpoint", {"diversify": True})
    schemas = {schema.name: schema for schema in pnet.network.schemas}
    pool_doc = document["pool"]
    truth = _truth_from_list(pool_doc["truth"])
    workers = []
    for entry in pool_doc["workers"]:
        worker = Worker(
            entry["worker_id"],
            truth,
            entry["error_rate"],
            rng=random.Random(),
        )
        worker.set_state(_oracle_state_from_dict(entry["state"]))
        workers.append(worker)
    assignment_doc = document["assignment"]
    try:
        assignment_cls = ASSIGNMENTS[assignment_doc["name"]]
    except KeyError:
        raise FormatError(
            f"unknown assignment policy {assignment_doc['name']!r}"
        ) from None
    assignment: AssignmentPolicy = assignment_cls()
    assignment.set_state(assignment_doc["state"])
    faults_doc = document.get("faults")
    session = CrowdSession(
        pnet,
        WorkerPool(workers),
        k=document["k"],
        redundancy=document["redundancy"],
        criterion=document["criterion"],
        assignment=assignment,
        aggregator=make_aggregator(document["aggregator"]["name"]),
        ledger=BudgetLedger.from_state(document["ledger"]),
        on_conflict=document["on_conflict"],
        faults=None if faults_doc is None else faultplan_from_dict(faults_doc),
    )
    session.stats.set_state(document["stats"])
    session._assertion_order = {
        correspondence_from_dict(entry, schemas): position
        for entry, position in document["assertion_order"]
    }
    session._requeued = _corrs_from_list(document["requeued"], schemas)
    session.trace.rounds = [
        _crowd_round_from_dict(entry) for entry in document["trace"]["rounds"]
    ]
    return session


# ---------------------------------------------------------------------------
# Expert sessions
# ---------------------------------------------------------------------------


def _expert_fields(session: ReconciliationSession, list_truth) -> dict:
    strategy = session.strategy
    if strategy.name not in STRATEGIES:
        raise FormatError(
            f"selection strategy {strategy.name!r} is not checkpointable"
        )
    oracle = session.oracle
    if isinstance(oracle, NoisyOracle):
        oracle_doc = {
            "kind": "noisy",
            "truth": list_truth(oracle.selective_matching),
            "error_rate": oracle.error_rate,
            "state": _oracle_state_to_dict(oracle),
        }
    elif type(oracle) is Oracle:
        oracle_doc = {
            "kind": "perfect",
            "truth": list_truth(oracle.selective_matching),
            "assertions_made": oracle.assertions_made,
        }
    else:
        raise FormatError(
            f"oracle {type(oracle).__name__} is not checkpointable"
        )
    return {
        "strategy": {
            "name": strategy.name,
            "rng": strategy.rng.getstate(),
        },
        "oracle": oracle_doc,
        "trace": {
            "steps": [
                {
                    "index": step.index,
                    "corr": correspondence_to_dict(step.correspondence),
                    "approved": step.approved,
                    "uncertainty": step.uncertainty,
                    "effort": step.effort,
                }
                for step in session.trace.steps
            ],
        },
    }


def _expert_session(
    document: dict, pnet: ProbabilisticNetwork
) -> ReconciliationSession:
    strategy_doc = document["strategy"]
    _check_retired(strategy_doc, "strategy", {"max_candidates": None})
    strategy = make_strategy(strategy_doc["name"], random.Random())
    strategy.rng.setstate(_rng_from_json(strategy_doc["rng"]))
    oracle_doc = document["oracle"]
    truth = _truth_from_list(oracle_doc["truth"])
    if oracle_doc["kind"] == "noisy":
        oracle: Oracle = NoisyOracle(
            truth, oracle_doc["error_rate"], rng=random.Random()
        )
        oracle.set_state(_oracle_state_from_dict(oracle_doc["state"]))
    elif oracle_doc["kind"] == "perfect":
        oracle = Oracle(truth)
        oracle.assertions_made = oracle_doc["assertions_made"]
    else:
        raise FormatError(f"unknown oracle kind {oracle_doc['kind']!r}")
    session = ReconciliationSession(
        pnet,
        oracle,
        strategy,
        on_conflict=document["on_conflict"],
    )
    session.trace.steps = [
        ReconciliationStep(
            index=entry["index"],
            correspondence=_detached_corr(entry["corr"]),
            approved=entry["approved"],
            uncertainty=entry["uncertainty"],
            effort=entry["effort"],
        )
        for entry in document["trace"]["steps"]
    ]
    return session


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

#: Per session kind: the encoder of the fields only that kind writes, and
#: the decoder building the live session over a restored network.
_CODECS = {
    "crowd": (_crowd_fields, _crowd_session),
    "expert": (_expert_fields, _expert_session),
}


def _checkpoint_body(session: SessionCore, list_truth) -> dict:
    """The checkpoint document of a live session, all but its network.

    The fields both kinds share — the estimator state, the conflict
    policy and counters, the initial uncertainty and the journal position
    — are written here; the kind's encoder adds the rest, and writes
    ``list_truth(truth)`` where the ground truth goes.
    """
    codec = _CODECS.get(getattr(session, "kind", None))
    if codec is None:
        raise TypeError(f"cannot checkpoint {type(session).__name__}")
    document = codec[0](session, list_truth)
    document.update(
        kind=CHECKPOINT_KIND,
        version=FORMAT_VERSION,
        session=session.kind,
        pnet=_pnet_to_dict(session.pnet),
        on_conflict=session.on_conflict,
        conflicts_resolved=session.conflicts_resolved,
        approvals_retracted=session.approvals_retracted,
        deltas_applied=session.deltas_applied,
        journal_seq=None if session.journal is None else session.journal.seq,
    )
    document["trace"]["initial_uncertainty"] = session.trace.initial_uncertainty
    return document


def _encode_body(session: SessionCore, list_truth) -> str:
    # One ``dumps`` call runs json's C encoder; streaming ``dump`` runs
    # the pure-Python one, several times slower on the same bytes.  The
    # service runs commands on its event loop, so a checkpoint's encode
    # time delays every tenant's next command.
    document = _checkpoint_body(session, list_truth)
    return json.dumps(document, sort_keys=True, default=_json_default)


def checkpoint_to_dict(session: SessionCore) -> dict:
    """The checkpoint document of a live session, network included."""
    document = _checkpoint_body(session, _corrs_to_list)
    document["network"] = network_to_dict(session.pnet.network)
    return document


def session_from_dict(document: dict) -> SessionCore:
    """Rebuild a live session from a checkpoint document."""
    _check_version(document, CHECKPOINT_KIND)
    kind = document.get("session")
    if kind not in _CODECS:
        raise FormatError(f"unknown session kind {kind!r}")
    network = network_from_dict(document["network"])
    pnet = _pnet_from_dict(document["pnet"], network)
    session = _CODECS[kind][1](document, pnet)
    session.conflicts_resolved = document["conflicts_resolved"]
    session.approvals_retracted = document["approvals_retracted"]
    # Version-1 checkpoints predate network deltas.
    session.deltas_applied = document.get("deltas_applied", 0)
    session.trace.initial_uncertainty = document["trace"]["initial_uncertainty"]
    return session


def save_checkpoint(
    session: SessionCore,
    path: "str | pathlib.Path",
) -> pathlib.Path:
    """Atomically write a session checkpoint (temp file + ``os.replace``).

    A crash mid-save therefore leaves either the previous checkpoint or the
    new one — never a torn file.  The file is ``{"network": ..., <the
    rest, sorted>}``: the network's cached JSON text spliced ahead of the
    encoded body, and the ground truth's into its slot, so it parses to
    exactly :func:`checkpoint_to_dict`.
    """
    path = pathlib.Path(path)
    truths = []  # the truth the codec hands the slot
    body = _encode_body(session, lambda t: truths.append(t) or _TRUTH_SLOT)
    pieces = body.split(json.dumps(_TRUTH_SLOT))
    if len(pieces) == 2:
        body = _truth_json(truths[0]).join(pieces)
    else:  # another string spells the slot: list the truth in place
        body = _encode_body(session, _corrs_to_list)
    text = '{"network": ' + session.pnet.network.json_text + ", " + body[1:]
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def restore_session(
    source: "str | pathlib.Path | dict",
    journal=None,
) -> SessionCore:
    """Rebuild a live session from a checkpoint file (or parsed document).

    ``journal`` optionally re-attaches a
    :class:`~repro.durability.journal.FeedbackJournal` to the restored
    session (recovery does this after arming replay verification).
    """
    if isinstance(source, dict):
        document = source
    else:
        with open(source) as handle:
            document = json.load(handle)
    session = session_from_dict(document)
    session.journal = journal
    return session


__all__ = [
    "CHECKPOINT_KIND",
    "checkpoint_to_dict",
    "session_from_dict",
    "save_checkpoint",
    "restore_session",
    "faultplan_to_dict",
    "faultplan_from_dict",
]
