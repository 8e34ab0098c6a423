"""Tests for the durability layer: checkpoints, journal, crash recovery.

The load-bearing property is *crash-recovery equivalence*: a session killed
at any round boundary and recovered from its checkpoint + write-ahead
journal must produce a final trace bit-identical to the run that never
crashed.  That is asserted here for seeds 0–4 at every boundary, plus the
component-level guarantees it rests on — checkpoint round-trips that
preserve every RNG stream, journal commit/torn-tail semantics, and replay
verification that refuses divergent redo.
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest
from test_crowd import GOLDEN_UNCERTAINTIES, GOLDEN_VERDICTS

from repro.durability import (
    CorruptJournalError,
    FaultPlan,
    FeedbackJournal,
    JournalReplayError,
    RetryPolicy,
    SimulatedCrash,
    checkpoint_to_dict,
    faultplan_from_dict,
    faultplan_to_dict,
    read_journal,
    recover,
    restore_session,
    run_durable,
    save_checkpoint,
    session_from_dict,
    truncate_to_committed,
)
from repro.experiments import synthetic_fixture
from repro.experiments.churn import make_churn_delta
from repro.experiments.scenarios import (
    ScenarioSpec,
    build_crowd_session,
    build_session,
    run_scenario,
)
from repro.io import FORMAT_VERSION, FormatError

_CACHE: dict[str, object] = {}


def small_fixture():
    if "small" not in _CACHE:
        _CACHE["small"] = synthetic_fixture(
            110, n_schemas=8, attributes_per_schema=30, seed=5
        )
    return _CACHE["small"]


def crowd_spec(seed=11, **overrides) -> ScenarioSpec:
    fields = dict(
        strategy="information-gain",
        oracle="crowd",
        on_conflict="disapprove",
        target_samples=120,
        seed=seed,
        crowd_workers=6,
        crowd_reliability="mixed",
        crowd_redundancy=3,
        crowd_k=3,
        crowd_cost=1.0,
        crowd_budget=45.0,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def expert_spec(seed=7, **overrides) -> ScenarioSpec:
    fields = dict(
        strategy="information-gain",
        oracle="noisy",
        error_rate=0.15,
        on_conflict="disapprove",
        target_samples=100,
        seed=seed,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def crowd_trace_tuple(trace):
    """Everything a crowd trace records, as one comparable value."""
    return (
        trace.initial_uncertainty,
        tuple(
            (
                r.index,
                r.questions,
                r.verdicts,
                r.votes,
                r.conflicts_resolved,
                r.approvals_retracted,
                r.truncated,
                r.spent,
                r.answers,
                r.uncertainty,
                r.effort,
                r.timeouts,
                r.dropouts,
                r.unanswered,
                r.degraded,
                r.shock,
            )
            for r in trace.rounds
        ),
    )


class TestRetryPolicy:
    def test_delay_is_exponential(self):
        policy = RetryPolicy(max_retries=3, backoff_base=0.5, backoff_factor=2.0)
        assert [policy.delay(i) for i in range(3)] == [0.5, 1.0, 2.0]

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_base"):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="timeout_probability"):
            FaultPlan(timeout_probability=1.5)
        with pytest.raises(ValueError, match="dropout_probability"):
            FaultPlan(dropout_probability=-0.1)
        with pytest.raises(ValueError, match="latency_mean"):
            FaultPlan(latency_mean=-1.0)
        with pytest.raises(ValueError, match="question_timeout"):
            FaultPlan(question_timeout=0.0)
        with pytest.raises(ValueError, match="crash_at_round"):
            FaultPlan(crash_at_round=0)

    def test_zero_probability_consumes_no_randomness(self):
        plan = FaultPlan(seed=3, latency_mean=0.0)
        before = plan.rng.getstate()
        assert plan.draw_dropout() is False
        assert plan.draw_timeout() is False
        assert plan.draw_latency() == 0.0
        assert plan.rng.getstate() == before

    def test_draws_track_probability(self):
        plan = FaultPlan(seed=0, dropout_probability=0.3, timeout_probability=0.3)
        dropouts = sum(plan.draw_dropout() for _ in range(2000))
        assert 450 < dropouts < 750

    def test_clone_resets_the_stream(self):
        plan = FaultPlan(seed=5, dropout_probability=0.5)
        clone = plan.clone()
        first = [plan.draw_dropout() for _ in range(10)]
        assert [clone.draw_dropout() for _ in range(10)] == first

    def test_shock_schedule(self):
        plan = FaultPlan(budget_shocks={2: -5.0})
        assert plan.shock_for_round(2) == -5.0
        assert plan.shock_for_round(1) == 0.0

    def test_round_trip_preserves_stream_but_disarms_crash(self):
        plan = FaultPlan(
            seed=9,
            timeout_probability=0.4,
            dropout_probability=0.1,
            question_timeout=2.0,
            crash_at_round=3,
            budget_shocks={4: -2.0},
            retry=RetryPolicy(max_retries=2),
            requeue=False,
        )
        for _ in range(7):  # advance the stream mid-run
            plan.draw_timeout()
        document = json.loads(json.dumps(faultplan_to_dict(plan)))
        restored = faultplan_from_dict(document)
        assert restored.crash_at_round is None
        assert restored.requeue is False
        assert restored.retry == plan.retry
        assert restored.budget_shocks == plan.budget_shocks
        assert [restored.draw_timeout() for _ in range(20)] == [
            plan.draw_timeout() for _ in range(20)
        ]


class TestJournal:
    def test_create_append_read(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = FeedbackJournal.create(path, "crowd")
        journal.append({"type": "question", "round": 1})
        journal.append({"type": "round-commit", "round": 1})
        header, committed, torn = read_journal(path)
        assert header["session"] == "crowd"
        assert [r["seq"] for r in committed] == [1, 2]
        assert torn == []
        assert journal.seq == 2

    def test_torn_tail_split(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = FeedbackJournal.create(path, "crowd")
        journal.append({"type": "round-commit", "round": 1})
        journal.append({"type": "question", "round": 2})
        with open(path, "a") as handle:
            handle.write('{"seq": 3, "type": "ques')  # crash mid-write
        header, committed, torn = read_journal(path)
        assert [r["seq"] for r in committed] == [1]
        assert [r["seq"] for r in torn] == [2]

    def test_truncate_to_committed(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = FeedbackJournal.create(path, "expert")
        journal.append({"type": "step-commit", "step": 1})
        journal.append({"type": "assertion", "step": 2})
        header, committed, torn = read_journal(path)
        truncate_to_committed(path, header, committed)
        header, committed, torn = read_journal(path)
        assert len(committed) == 1 and torn == []

    def test_replay_verifies_matching_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = FeedbackJournal.create(path, "crowd")
        journal.append({"type": "question", "x": 1})
        journal.append({"type": "round-commit", "round": 1})
        _, committed, _ = read_journal(path)
        resumed = FeedbackJournal.resume(path, next_seq=3)
        resumed.expect(committed)
        assert resumed.replaying
        assert resumed.append({"type": "question", "x": 1}) == 1
        assert resumed.append({"type": "round-commit", "round": 1}) == 2
        assert not resumed.replaying
        assert resumed.replayed == 2

    def test_replay_rejects_divergence(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = FeedbackJournal.create(path, "crowd")
        journal.append({"type": "question", "x": 1})
        journal.append({"type": "round-commit", "round": 1})
        _, committed, _ = read_journal(path)
        resumed = FeedbackJournal.resume(path, next_seq=3)
        resumed.expect(committed)
        with pytest.raises(JournalReplayError, match="diverged"):
            resumed.append({"type": "question", "x": 2})

    def test_mid_file_damage_is_not_a_torn_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = FeedbackJournal.create(path, "expert")
        journal.append({"type": "assertion", "step": 1})
        journal.append({"type": "step-commit", "step": 1})
        journal.append({"type": "assertion", "step": 2})
        journal.append({"type": "step-commit", "step": 2})
        lines = path.read_text().splitlines()
        for garbled in ('{"seq": 3, "type": "asse', "17", ""):
            damaged = lines[:3] + [garbled] + lines[4:]
            path.write_text("\n".join(damaged) + "\n")
            with pytest.raises(CorruptJournalError, match="line 4") as info:
                read_journal(path)
            assert (info.value.line, info.value.last_seq) == (4, 2)
            assert isinstance(info.value, FormatError)
        # The same damage on the final line is a torn tail, even when blank
        # lines follow it.
        path.write_text("\n".join(lines[:4] + ['{"seq": 4, "ty', "", ""]))
        _, committed, torn = read_journal(path)
        assert [r["seq"] for r in committed] == [1, 2] and len(torn) == 1

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not_a_journal.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(FormatError):
            read_journal(path)
        (tmp_path / "empty.jsonl").write_text("")
        with pytest.raises(FormatError, match="empty"):
            read_journal(tmp_path / "empty.jsonl")


class TestCrowdCheckpointRoundTrip:
    def _mid_run_session(self):
        session = build_crowd_session(small_fixture(), crowd_spec())
        session.round()
        session.round()
        return session

    def test_restored_session_continues_identically(self, tmp_path):
        session = self._mid_run_session()
        path = tmp_path / "ck.json"
        save_checkpoint(session, path)
        restored = restore_session(path)
        session.run()
        restored.run()
        assert crowd_trace_tuple(restored.trace) == crowd_trace_tuple(
            session.trace
        )
        assert restored.ledger.get_state() == session.ledger.get_state()
        assert restored.stats.get_state() == session.stats.get_state()
        seeded = random.Random(0)
        assert restored.current_matching(
            rng=random.Random(0)
        ) == session.current_matching(rng=seeded)

    def test_checkpoint_is_json_and_versioned(self, tmp_path):
        session = self._mid_run_session()
        document = json.loads(json.dumps(checkpoint_to_dict(session)))
        assert document["kind"] == "session-checkpoint"
        assert document["version"] == FORMAT_VERSION
        assert document["session"] == "crowd"
        restored = session_from_dict(document)
        assert len(restored.trace.rounds) == 2

    def test_post_retraction_state_round_trips(self, tmp_path):
        # Run until conflict repair has actually retracted approvals (the
        # post-PR-4 state: approvals_retracted > 0, F± disjoint).
        session = build_crowd_session(
            small_fixture(), crowd_spec(seed=6, crowd_budget=None)
        )
        rounds = 0
        while session.approvals_retracted == 0 and rounds < 15:
            if session.round() is None:
                break
            rounds += 1
        assert session.approvals_retracted > 0
        restored = restore_session(
            save_checkpoint(session, tmp_path / "ck.json")
        )
        assert restored.approvals_retracted == session.approvals_retracted
        assert restored.conflicts_resolved == session.conflicts_resolved
        feedback = restored.pnet.feedback
        assert feedback.approved == session.pnet.feedback.approved
        assert feedback.disapproved == session.pnet.feedback.disapproved
        assert not (feedback.approved & feedback.disapproved)
        assert restored._assertion_order == session._assertion_order

    def test_wrong_kind_and_session_rejected(self):
        with pytest.raises(FormatError, match="session-checkpoint"):
            session_from_dict({"kind": "nope", "version": 1})
        with pytest.raises(FormatError, match="unknown session kind"):
            session_from_dict({"kind": "session-checkpoint", "version": 1})

    def test_save_is_atomic(self, tmp_path):
        session = self._mid_run_session()
        path = tmp_path / "ck.json"
        save_checkpoint(session, path)
        assert path.exists()
        assert not path.with_suffix(".json.tmp").exists()

    def test_faulted_session_round_trips(self, tmp_path):
        session = build_crowd_session(
            small_fixture(),
            crowd_spec(
                faults=FaultPlan(
                    seed=1, timeout_probability=0.3, latency_mean=0.0
                )
            ),
        )
        session.round()
        restored = restore_session(save_checkpoint(session, tmp_path / "c"))
        session.run()
        restored.run()
        assert crowd_trace_tuple(restored.trace) == crowd_trace_tuple(
            session.trace
        )


class TestExpertCheckpointRoundTrip:
    def _mid_run_session(self):
        session = build_session(small_fixture(), expert_spec())
        session.run(budget=6)
        return session

    def test_restored_session_continues_identically(self, tmp_path):
        session = self._mid_run_session()
        restored = restore_session(save_checkpoint(session, tmp_path / "c"))
        session.run(budget=25)
        restored.run(budget=25)
        assert restored.trace.uncertainties == session.trace.uncertainties
        assert [s.correspondence for s in restored.trace.steps] == [
            s.correspondence for s in session.trace.steps
        ]
        assert [s.approved for s in restored.trace.steps] == [
            s.approved for s in session.trace.steps
        ]

    def test_perfect_oracle_round_trips(self, tmp_path):
        session = build_session(
            small_fixture(), expert_spec(oracle="perfect", error_rate=0.0)
        )
        session.run(budget=5)
        restored = restore_session(save_checkpoint(session, tmp_path / "c"))
        assert restored.oracle.assertions_made == session.oracle.assertions_made
        session.run(budget=12)
        restored.run(budget=12)
        assert restored.trace.uncertainties == session.trace.uncertainties

    def test_post_retraction_state_round_trips(self, tmp_path):
        session = build_session(
            small_fixture(), expert_spec(seed=1, error_rate=0.3)
        )
        steps = 0
        while session.approvals_retracted == 0 and steps < 100:
            if session.step() is None:
                break
            steps += 1
        assert session.approvals_retracted > 0
        restored = restore_session(save_checkpoint(session, tmp_path / "c"))
        assert restored.approvals_retracted == session.approvals_retracted
        feedback = restored.pnet.feedback
        assert feedback.approved == session.pnet.feedback.approved
        assert feedback.disapproved == session.pnet.feedback.disapproved

    def test_exact_estimator_rejected(self, movie_network, movie_truth):
        from repro.core import ExactEstimator, Oracle, ProbabilisticNetwork
        from repro.core.reconciliation import ReconciliationSession

        pnet = ProbabilisticNetwork(
            movie_network, estimator=ExactEstimator(movie_network)
        )
        session = ReconciliationSession(pnet, Oracle(movie_truth))
        with pytest.raises(FormatError, match="SampledEstimator"):
            checkpoint_to_dict(session)


class TestPostDeltaCheckpointRestore:
    """A checkpoint taken after a schema-removing delta restores.

    Trace history keeps naming candidates of the retired schemas, so it
    must decode without the live network's schema table; the restored
    session then continues bit-identically.
    """

    def _churn(self, session, named):
        delta = make_churn_delta(
            session.pnet.network, 0.25, random.Random(3)
        )
        assert named & set(delta.remove_schemas)  # history names a victim
        session.apply_delta(delta)

    def test_expert_session(self, tmp_path):
        session = build_session(
            small_fixture(), expert_spec(sharded=True, strategy="likelihood")
        )
        session.run(budget=10)
        self._churn(session, {
            attribute.schema
            for step in session.trace.steps
            for attribute in step.correspondence.attributes
        })
        restored = restore_session(save_checkpoint(session, tmp_path / "c"))
        assert restored.trace == session.trace
        for _ in range(6):
            session.step()
            restored.step()
        assert len(session.trace.steps) > 10
        assert restored.trace == session.trace

    def test_crowd_session(self, tmp_path):
        spec = crowd_spec(
            sharded=True, strategy="likelihood", crowd_budget=None
        )
        session = build_crowd_session(small_fixture(), spec)
        for _ in range(3):
            session.round()
        self._churn(session, {
            attribute.schema
            for record in session.trace.rounds
            for corr in record.questions
            for attribute in corr.attributes
        })
        restored = restore_session(save_checkpoint(session, tmp_path / "c"))
        assert crowd_trace_tuple(restored.trace) == crowd_trace_tuple(
            session.trace
        )
        for _ in range(5):
            session.round()
            restored.round()
        assert len(session.trace.rounds) == 8
        assert crowd_trace_tuple(restored.trace) == crowd_trace_tuple(
            session.trace
        )


class TestCrashRecoveryEquivalence:
    """Kill at every round boundary; recovery must be bit-identical."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_crowd_equivalence_at_every_boundary(self, seed, tmp_path):
        spec = crowd_spec(seed=seed)
        golden_session = build_crowd_session(small_fixture(), spec)
        golden_session.run()
        golden = crowd_trace_tuple(golden_session.trace)
        total_rounds = len(golden_session.trace.rounds)
        assert total_rounds >= 2
        for crash_round in range(1, total_rounds + 1):
            directory = tmp_path / f"s{seed}r{crash_round}"
            session = build_crowd_session(small_fixture(), spec)
            session.faults = FaultPlan(
                seed=seed, crash_at_round=crash_round, latency_mean=0.0
            )
            with pytest.raises(SimulatedCrash):
                run_durable(session, directory)
            recovered, report = recover(directory)
            assert report.session_kind == "crowd"
            assert report.transactions_redone <= 1
            run_durable(recovered, directory)
            assert (
                crowd_trace_tuple(recovered.trace) == golden
            ), f"seed {seed}, crash at round {crash_round}"

    def test_expert_recovery_equivalence(self, tmp_path):
        spec = expert_spec(seed=4)
        golden = build_session(small_fixture(), spec)
        golden.run(budget=15)
        directory = tmp_path / "expert"
        session = build_session(small_fixture(), spec)
        run_durable(session, directory, budget=8, checkpoint_every=0)
        # Simulate a crash after step 9: the journaled step lands past the
        # final budget=8 checkpoint and must be redone on recovery.
        session.step()
        recovered, report = recover(directory)
        assert report.transactions_redone == 1
        run_durable(recovered, directory, budget=15)
        assert recovered.trace.uncertainties == golden.trace.uncertainties
        assert [s.correspondence for s in recovered.trace.steps] == [
            s.correspondence for s in golden.trace.steps
        ]

    def test_recovery_discards_torn_tail(self, tmp_path):
        spec = crowd_spec(seed=1)
        directory = tmp_path / "torn"
        session = build_crowd_session(small_fixture(), spec)
        session.faults = FaultPlan(seed=1, crash_at_round=2, latency_mean=0.0)
        with pytest.raises(SimulatedCrash):
            run_durable(session, directory)
        journal_path = directory / "journal.jsonl"
        with open(journal_path, "a") as handle:
            handle.write('{"seq": 99, "type": "question", "round": 3}\n')
            handle.write('{"seq": 100, "type": "retr')  # torn mid-write
        recovered, report = recover(directory)
        assert report.records_discarded == 1
        _, committed, torn = read_journal(journal_path)
        assert torn == []
        golden_session = build_crowd_session(small_fixture(), spec)
        golden_session.run()
        run_durable(recovered, directory)
        assert crowd_trace_tuple(recovered.trace) == crowd_trace_tuple(
            golden_session.trace
        )

    def test_recovery_refuses_mid_file_damage(self, tmp_path):
        """A garbled line with committed records behind it used to be read
        as a torn tail: ``recover`` cut the journal there and dropped every
        committed transaction after it, reporting one discarded record."""
        directory = tmp_path / "garbled"
        session = build_session(small_fixture(), expert_spec())
        run_durable(session, directory, budget=20)
        journal_path = directory / "journal.jsonl"
        lines = journal_path.read_text().splitlines()
        assert len(lines) == 41
        assert json.loads(lines[18])["seq"] == 18
        lines[19] = lines[19][: len(lines[19]) // 2]
        journal_path.write_text("\n".join(lines) + "\n")
        damaged = journal_path.read_bytes()
        with pytest.raises(CorruptJournalError, match="line 20") as info:
            recover(directory)
        assert (info.value.line, info.value.last_seq) == (20, 18)
        assert journal_path.read_bytes() == damaged

    def test_redo_divergence_raises(self, tmp_path):
        spec = crowd_spec(seed=2)
        directory = tmp_path / "diverge"
        session = build_crowd_session(small_fixture(), spec)
        session.faults = FaultPlan(seed=2, crash_at_round=2, latency_mean=0.0)
        with pytest.raises(SimulatedCrash):
            run_durable(session, directory)
        journal_path = directory / "journal.jsonl"
        lines = journal_path.read_text().splitlines()
        # Corrupt the last committed round's verdict: redo regenerates the
        # true one and the replay verifier must refuse.
        for position in range(len(lines) - 1, 0, -1):
            record = json.loads(lines[position])
            if record.get("type") == "question":
                record["verdict"] = not record["verdict"]
                lines[position] = json.dumps(record, sort_keys=True)
                break
        journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalReplayError):
            recover(directory)


class TestGoldenCheckpointFixture:
    """The committed round-3 checkpoint of the golden crowd trace.

    Written by ``scripts/make_golden_checkpoint.py``; restoring it and
    playing rounds 4–5 must land exactly on the frozen golden tail — the
    on-disk format keeps decoding to the same RNG streams and matching.
    """

    FIXTURE = (
        pathlib.Path(__file__).resolve().parent
        / "data"
        / "golden_crowd_checkpoint_round3.json"
    )

    def test_restores_to_round_three(self):
        session = restore_session(self.FIXTURE)
        assert len(session.trace.rounds) == 3
        assert session.trace.uncertainties == pytest.approx(
            GOLDEN_UNCERTAINTIES[:4]
        )

    def test_version_1_document_restores_under_format_2(self):
        """The committed fixture predates network deltas: it is the
        backward-compatibility pin for format version 1, so it must keep
        both its on-disk version *and* its restorability as the current
        format moves on."""
        document = json.loads(self.FIXTURE.read_text())
        assert document["version"] == 1
        assert "deltas_applied" not in document
        session = restore_session(self.FIXTURE)
        assert session.deltas_applied == 0

    def test_resumed_tail_matches_golden_run(self):
        restored = restore_session(self.FIXTURE)
        restored.run()
        trace = restored.trace
        assert len(trace.rounds) == 5
        assert trace.uncertainties == pytest.approx(GOLDEN_UNCERTAINTIES)
        verdicts = [
            "".join("+" if v else "-" for v in r.verdicts)
            for r in trace.rounds
        ]
        assert verdicts == GOLDEN_VERDICTS
        assert restored.ledger.spent == pytest.approx(45.0)
        golden_session = build_crowd_session(small_fixture(), crowd_spec())
        golden_session.run()
        assert restored.current_matching(
            rng=random.Random(0)
        ) == golden_session.current_matching(rng=random.Random(0))


class TestDurableScenarioKnobs:
    def test_scenario_checkpoint_dir_runs_durably(self, tmp_path):
        directory = tmp_path / "scenario"
        spec = crowd_spec(
            checkpoint_dir=str(directory), checkpoint_every=2, crowd_rounds=3
        )
        outcome = run_scenario(small_fixture(), spec)
        assert (directory / "checkpoint.json").exists()
        assert (directory / "journal.jsonl").exists()
        restored = restore_session(directory / "checkpoint.json")
        assert crowd_trace_tuple(restored.trace) == crowd_trace_tuple(
            outcome.trace
        )

    def test_expert_scenario_checkpoint_dir(self, tmp_path):
        directory = tmp_path / "expert-scenario"
        spec = expert_spec(budget=6, checkpoint_dir=str(directory))
        outcome = run_scenario(small_fixture(), spec)
        restored = restore_session(directory / "checkpoint.json")
        assert restored.trace.uncertainties == outcome.trace.uncertainties

    def test_checkpoint_every_validation(self, tmp_path):
        session = build_crowd_session(small_fixture(), crowd_spec())
        with pytest.raises(ValueError, match="checkpoint_every"):
            run_durable(session, tmp_path, checkpoint_every=-1)


class TestShardedCheckpointRoundTrip:
    """Checkpoint/restore of mid-flight *sharded* sessions.

    A sharded checkpoint must capture every shard's Ω* masks and both of
    its RNG streams (plus the master stream): restore rebuilds the shard
    plan from the network and adopts the per-shard state verbatim, so a
    restored session continues bit-for-bit.
    """

    def _sharded_spec(self, **overrides) -> ScenarioSpec:
        # Likelihood selection: information gain needs the product
        # membership matrix, which is out of budget by design on a
        # sharded network of this size (see MAX_PRODUCT_ROWS).
        return expert_spec(sharded=True, strategy="likelihood", **overrides)

    def test_restored_sharded_session_continues_identically(self, tmp_path):
        session = build_session(small_fixture(), self._sharded_spec())
        session.run(budget=6)
        restored = restore_session(save_checkpoint(session, tmp_path / "c"))
        session.run(budget=25)
        restored.run(budget=25)
        assert restored.trace.uncertainties == session.trace.uncertainties
        assert [s.correspondence for s in restored.trace.steps] == [
            s.correspondence for s in session.trace.steps
        ]
        assert [s.approved for s in restored.trace.steps] == [
            s.approved for s in session.trace.steps
        ]

    def test_sharded_document_shape(self, tmp_path):
        from repro.shard import ShardedEstimator

        session = build_session(small_fixture(), self._sharded_spec())
        session.run(budget=3)
        path = save_checkpoint(session, tmp_path / "c")
        document = json.loads(path.read_text())
        pnet_doc = document["pnet"]
        assert pnet_doc["estimator"] == "sharded"
        estimator = session.pnet.estimator
        assert isinstance(estimator, ShardedEstimator)
        assert len(pnet_doc["shards"]) == estimator.n_shards
        config = pnet_doc["config"]
        assert config["target_samples"] == estimator.store.target_samples
        assert "chains" not in config and "parallel" not in config
        # Every shard checkpoints both RNG streams.
        for shard_doc in pnet_doc["shards"]:
            assert "rng" in shard_doc["sampler"]
            assert "np_rng" in shard_doc["sampler"]

    def test_restored_store_state_matches_exactly(self, tmp_path):
        session = build_session(small_fixture(), self._sharded_spec())
        session.run(budget=4)
        restored = restore_session(save_checkpoint(session, tmp_path / "c"))
        original = session.pnet.estimator.store
        recovered = restored.pnet.estimator.store
        assert original.rng.getstate() == recovered.rng.getstate()
        for a, b in zip(original.shards, recovered.shards):
            assert a.store.get_state() == b.store.get_state()
            assert a.store.sampler.get_state() == b.store.sampler.get_state()

    @pytest.mark.parametrize("sharded", [False, True], ids=["sampled", "sharded"])
    def test_chains_field_on_restore(self, tmp_path, sharded):
        """Older documents carry ``chains`` (and sharded ones ``parallel``).

        An absent count and ``chains: 1`` restore and continue
        bit-identically, ``parallel`` is ignored, and any other chain
        count is refused with a typed error naming the field.
        """
        spec = self._sharded_spec() if sharded else expert_spec()
        session = build_session(small_fixture(), spec)
        session.run(budget=4)
        path = save_checkpoint(session, tmp_path / "c")
        document = json.loads(path.read_text())
        key = "config" if sharded else "sampler"
        assert "chains" not in document["pnet"][key]
        absent = restore_session(path)
        document["pnet"][key]["chains"] = 1
        if sharded:
            document["pnet"][key]["parallel"] = 2
        path.write_text(json.dumps(document))
        single = restore_session(path)
        session.run(budget=10)
        for restored in (absent, single):
            restored.run(budget=10)
            assert restored.trace.uncertainties == session.trace.uncertainties
        document["pnet"][key]["chains"] = 3
        path.write_text(json.dumps(document))
        with pytest.raises(FormatError, match=f"pnet.{key}.chains"):
            restore_session(path)

    def test_shard_count_mismatch_rejected(self, tmp_path):
        session = build_session(small_fixture(), self._sharded_spec())
        session.run(budget=2)
        path = save_checkpoint(session, tmp_path / "c")
        document = json.loads(path.read_text())
        document["pnet"]["shards"].pop()
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="shards"):
            restore_session(path)

    def test_sharded_crowd_session_round_trips(self, tmp_path):
        spec = crowd_spec(
            sharded=True, strategy="likelihood", crowd_rounds=2
        )
        session = build_crowd_session(small_fixture(), spec)
        session.run()
        restored = restore_session(save_checkpoint(session, tmp_path / "c"))
        assert crowd_trace_tuple(restored.trace) == crowd_trace_tuple(
            session.trace
        )
