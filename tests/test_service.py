"""Service front-end units: scheduler, registry, catalog, metrics, commands.

The differential determinism contract lives in
``tests/test_service_equivalence.py``; this file pins the mechanics it
rests on — fair bounded dispatch, admission control, catalog hit/miss
accounting and copy-safety, the tenant command surface, and the durable
tenant lifecycle (checkpoint → crash → ``recover`` → re-admission).
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.durability.recovery import recover
from repro.experiments.churn import make_churn_delta
from repro.experiments.harness import synthetic_fixture
from repro.experiments.scenarios import (
    ScenarioSpec,
    build_crowd_session,
    build_session,
    run_scenario,
    run_service_scenario,
    tenant_program,
)
from repro.service import (
    AdmissionError,
    ReconciliationService,
    RequestScheduler,
    SchedulerClosedError,
    ServiceMetrics,
    SessionRegistry,
    ShardCatalog,
)


@pytest.fixture(scope="module")
def fixture():
    return synthetic_fixture(
        60, n_schemas=8, attributes_per_schema=10, conflict_bias=0.5, seed=11
    )


def _expert_spec(**overrides) -> ScenarioSpec:
    settings = dict(
        strategy="likelihood", seed=13, sharded=True, target_samples=40
    )
    settings.update(overrides)
    return ScenarioSpec(**settings)


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
class TestRequestScheduler:
    def test_invalid_construction(self):
        execute = lambda name, command: None  # noqa: E731
        with pytest.raises(ValueError, match="max_pending"):
            RequestScheduler(execute, max_pending=0)
        with pytest.raises(ValueError, match="policy"):
            RequestScheduler(execute, policy="fifo")
        with pytest.raises(ValueError, match="admission"):
            RequestScheduler(execute, admission="drop")

    def test_round_robin_interleaves_tenants(self):
        order = []

        def execute(name, command):
            order.append(command["id"])
            return command["id"]

        async def main():
            scheduler = RequestScheduler(execute)
            scheduler.add_tenant("A")
            scheduler.add_tenant("B")
            results = await asyncio.gather(
                *(scheduler.submit("A", {"id": f"A{i}"}) for i in range(3)),
                *(scheduler.submit("B", {"id": f"B{i}"}) for i in range(3)),
            )
            await scheduler.aclose()
            return results

        results = asyncio.run(main())
        assert order == ["A0", "B0", "A1", "B1", "A2", "B2"]
        assert results == ["A0", "A1", "A2", "B0", "B1", "B2"]

    def test_per_tenant_order_survives_concurrency(self):
        served = []

        def execute(name, command):
            served.append((name, command["id"]))
            return command["id"]

        async def main():
            scheduler = RequestScheduler(execute)
            for name in ("A", "B", "C"):
                scheduler.add_tenant(name)
            await asyncio.gather(
                *(
                    scheduler.submit(name, {"id": index})
                    for index in range(4)
                    for name in ("A", "B", "C")
                )
            )
            await scheduler.aclose()

        asyncio.run(main())
        for name in ("A", "B", "C"):
            ids = [cid for tenant, cid in served if tenant == name]
            assert ids == [0, 1, 2, 3]

    def test_round_robin_policy_unit(self):
        scheduler = RequestScheduler(lambda n, c: None)
        scheduler.add_tenant("A")
        scheduler.add_tenant("B")
        scheduler._queues["A"].extend([object()] * 2)
        scheduler._queues["B"].extend([object()] * 2)
        picks = [scheduler._next_tenant() for _ in range(4)]
        assert picks == ["A", "B", "A", "B"]

    def test_deficit_policy_grants_weighted_share(self):
        scheduler = RequestScheduler(lambda n, c: None, policy="deficit")
        scheduler.add_tenant("A", weight=2)
        scheduler.add_tenant("B", weight=1)
        scheduler._queues["A"].extend([object()] * 6)
        scheduler._queues["B"].extend([object()] * 3)
        picks = [scheduler._next_tenant() for _ in range(9)]
        # Weight 2 ⇒ two grants per refill cycle.
        assert picks == ["A", "A", "B"] * 3

    def test_admission_wait_suspends_until_space(self):
        async def main():
            scheduler = RequestScheduler(
                lambda name, command: command["id"],
                max_pending=1,
                admission="wait",
            )
            scheduler.add_tenant("A")
            submits = [
                asyncio.ensure_future(scheduler.submit("A", {"id": index}))
                for index in (1, 2, 3)
            ]
            # One pass of the loop runs every submitter before the
            # dispatcher: command 1 fills the queue, 2 and 3 must wait.
            await asyncio.sleep(0)
            admitted = scheduler.pending
            suspended = [not submit.done() for submit in submits]
            results = await asyncio.gather(*submits)
            await scheduler.aclose()
            return admitted, suspended, results

        admitted, suspended, results = asyncio.run(main())
        assert admitted == 1
        assert suspended == [True, True, True]
        assert results == [1, 2, 3]

    def test_admission_reject_raises_and_counts(self):
        metrics = ServiceMetrics()

        async def main():
            scheduler = RequestScheduler(
                lambda name, command: command["id"],
                max_pending=1,
                admission="reject",
                metrics=metrics,
            )
            scheduler.add_tenant("A")
            first = asyncio.ensure_future(scheduler.submit("A", {"id": 1}))
            second = asyncio.ensure_future(scheduler.submit("A", {"id": 2}))
            # Command 1 fills the queue before the dispatcher runs, so
            # command 2 finds it full.
            with pytest.raises(AdmissionError, match="max_pending"):
                await second
            result = await first
            await scheduler.aclose()
            return result

        assert asyncio.run(main()) == 1
        assert metrics.snapshot()["A"]["rejected"] == 1

    def test_unknown_tenant_raises(self):
        async def main():
            scheduler = RequestScheduler(lambda n, c: None)
            with pytest.raises(KeyError, match="ghost"):
                await scheduler.submit("ghost", {"op": "step"})
            await scheduler.aclose()

        asyncio.run(main())

    def test_submit_after_close_raises(self):
        async def main():
            scheduler = RequestScheduler(lambda n, c: None)
            scheduler.add_tenant("A")
            await scheduler.aclose()
            with pytest.raises(SchedulerClosedError):
                await scheduler.submit("A", {"op": "step"})

        asyncio.run(main())

    def test_execution_error_propagates_to_submitter(self):
        def execute(name, command):
            raise RuntimeError("oracle unavailable")

        async def main():
            scheduler = RequestScheduler(execute)
            scheduler.add_tenant("A")
            with pytest.raises(RuntimeError, match="oracle unavailable"):
                await scheduler.submit("A", {"op": "step"})
            await scheduler.aclose()

        asyncio.run(main())

    def test_aclose_drains_inflight_commands(self):
        """A close requested by a running command waits out the queue."""
        finished = []
        closer_done = []

        async def main():
            closer = None

            def execute(name, command):
                nonlocal closer
                if closer is None:
                    closer = asyncio.ensure_future(scheduler.aclose())
                else:
                    closer_done.append(closer.done())
                finished.append(command["id"])
                return command["id"]

            scheduler = RequestScheduler(execute)
            scheduler.add_tenant("A")
            results = await asyncio.gather(
                scheduler.submit("A", {"id": 1}),
                scheduler.submit("A", {"id": 2}),
            )
            await closer
            return results

        assert asyncio.run(main()) == [1, 2]
        assert finished == [1, 2]
        assert closer_done == [False]  # close blocked on the queued command

    def test_aclose_without_drain_cancels_queued(self):
        """A no-drain close lets the running command finish, cancels the rest."""

        async def main():
            closer = None

            def execute(name, command):
                nonlocal closer
                if closer is None:
                    closer = asyncio.ensure_future(
                        scheduler.aclose(drain=False)
                    )
                return command["id"]

            scheduler = RequestScheduler(execute)
            scheduler.add_tenant("A")
            first = asyncio.ensure_future(scheduler.submit("A", {"id": 1}))
            second = asyncio.ensure_future(scheduler.submit("A", {"id": 2}))
            result = await first
            with pytest.raises(asyncio.CancelledError):
                await second
            await closer
            return result

        assert asyncio.run(main()) == 1

    def test_remove_tenant_requires_idle_queue(self):
        scheduler = RequestScheduler(lambda n, c: None)
        scheduler.add_tenant("A")
        scheduler.add_tenant("B")
        scheduler._queues["A"].append(object())
        with pytest.raises(RuntimeError, match="pending"):
            scheduler.remove_tenant("A")
        scheduler._queues["A"].clear()
        scheduler.remove_tenant("A")
        with pytest.raises(KeyError):
            scheduler.remove_tenant("A")
        assert scheduler.pending == 0

    def test_scheduler_survives_successive_event_loops(self):
        """One scheduler instance across drained ``asyncio.run`` entries."""
        def execute(name, command):
            return command["id"]

        scheduler = RequestScheduler(execute)
        scheduler.add_tenant("A")

        async def one(identifier):
            result = await scheduler.submit("A", {"id": identifier})
            await scheduler.drain()
            return result

        assert asyncio.run(one(1)) == 1
        assert asyncio.run(one(2)) == 2
        asyncio.run(scheduler.aclose())


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class _StubCrowd:
    journal = None

    def round(self, max_questions=None):  # pragma: no cover - shape only
        raise NotImplementedError


class _StubExpert:
    journal = None

    def step(self):  # pragma: no cover - shape only
        raise NotImplementedError


class TestSessionRegistry:
    def test_kind_inference(self):
        registry = SessionRegistry()
        assert registry.register("c", _StubCrowd()).kind == "crowd"
        assert registry.register("e", _StubExpert()).kind == "expert"

    def test_duplicate_name_rejected(self):
        registry = SessionRegistry()
        registry.register("t", _StubExpert())
        with pytest.raises(ValueError, match="already registered"):
            registry.register("t", _StubExpert())

    def test_weight_must_be_positive(self):
        registry = SessionRegistry()
        with pytest.raises(ValueError, match="weight"):
            registry.register("t", _StubExpert(), weight=0)

    def test_membership_and_removal(self, tmp_path):
        registry = SessionRegistry()
        registry.register("b", _StubExpert(), checkpoint_dir=tmp_path / "b")
        registry.register("a", _StubCrowd())
        assert registry.names() == ["a", "b"]
        assert "a" in registry and len(registry) == 2
        tenant = registry.get("b")
        assert tenant.checkpoint_dir == tmp_path / "b"
        assert tenant.transactions == 0
        registry.remove("b")
        assert "b" not in registry
        with pytest.raises(KeyError, match="b"):
            registry.get("b")
        with pytest.raises(KeyError, match="b"):
            registry.remove("b")


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
class _StubDeltaResult:
    def __init__(self):
        self.network = object()


class TestShardCatalog:
    def test_max_networks_must_be_positive(self):
        with pytest.raises(ValueError, match="max_networks"):
            ShardCatalog(max_networks=0)

    def test_subnetwork_shared_verbatim(self):
        catalog = ShardCatalog()
        network = object()
        built = object()
        first = catalog.subnetwork(network, (0, 1), lambda: built)
        second = catalog.subnetwork(
            network, (0, 1), lambda: pytest.fail("must not rebuild")
        )
        assert first is built and second is built
        stats = catalog.stats()
        assert stats["subnet_hits"] == 1
        assert stats["subnet_misses"] == 1

    def test_generation_lru_evicts_oldest(self):
        catalog = ShardCatalog(max_networks=1)
        old, new = object(), object()
        catalog.subnetwork(old, (0,), lambda: "old")
        catalog.subnetwork(new, (0,), lambda: "new")
        # ``old``'s generation was evicted: rebuilding is a miss again.
        rebuilt = catalog.subnetwork(old, (0,), lambda: "old-again")
        assert rebuilt == "old-again"
        stats = catalog.stats()
        assert stats["networks"] == 1
        assert stats["subnet_misses"] == 3
        assert stats["subnet_hits"] == 0

    def test_enumerated_fill_round_trip_is_copy_safe(self):
        catalog = ShardCatalog()
        network = object()
        state = {"mask": [1, 2], "feedback": [], "count": 7}
        catalog.put_enumerated_fill(network, ("k",), state)
        state["mask"].append(3)  # caller keeps mutating its own state
        fetched = catalog.enumerated_fill(network, ("k",))
        assert fetched == {"mask": [1, 2], "feedback": [], "count": 7}
        fetched["mask"].append(9)  # adopters mutate their copy freely
        assert catalog.enumerated_fill(network, ("k",))["mask"] == [1, 2]

    def test_enumerated_fill_miss_returns_none(self):
        catalog = ShardCatalog()
        assert catalog.enumerated_fill(object(), ("k",)) is None
        assert catalog.stats()["fill_misses"] == 1

    def test_delta_result_computed_once(self):
        catalog = ShardCatalog()
        network = object()
        result = _StubDeltaResult()
        first = catalog.delta_result(network, "delta-key", lambda: result)
        second = catalog.delta_result(
            network, "delta-key", lambda: pytest.fail("must not recompute")
        )
        assert first is result and second is result
        stats = catalog.stats()
        assert stats["delta_hits"] == 1
        assert stats["delta_misses"] == 1
        # The successor generation was pre-registered.
        assert stats["networks"] == 2


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestServiceMetrics:
    def test_command_lifecycle_counters(self):
        metrics = ServiceMetrics()
        metrics.record_enqueue("t", 1)
        metrics.record_enqueue("t", 2)
        metrics.record_start("t", 0.5, 1)
        metrics.record_done("t", "step", 2.0)
        metrics.record_start("t", 1.5, 0)
        metrics.record_done("t", "rescore", 4.0)
        metrics.record_done("t", "step", 1.0, failed=True)
        snapshot = metrics.snapshot()["t"]
        assert snapshot["enqueued"] == 2
        assert snapshot["served"] == 2
        assert snapshot["failed"] == 1
        assert snapshot["max_queue_depth"] == 2
        assert snapshot["mean_wait_seconds"] == 1.0
        assert snapshot["mean_serve_seconds"] == 3.5
        assert snapshot["commands"] == {"step": 2, "rescore": 1}
        # Only *successful* delta-shaped ops count as applied deltas.
        assert snapshot["deltas_applied"] == 1

    def test_failed_delta_not_counted_as_applied(self):
        metrics = ServiceMetrics()
        metrics.record_done("t", "apply_delta", 0.1, failed=True)
        metrics.record_done("t", "apply_delta", 0.1)
        assert metrics.snapshot()["t"]["deltas_applied"] == 1


# ----------------------------------------------------------------------
# Service commands
# ----------------------------------------------------------------------
class TestServiceCommands:
    def test_step_and_query(self, fixture):
        with ReconciliationService() as service:
            session = build_session(
                fixture, _expert_spec(), catalog=service.catalog
            )
            service.add_tenant("t0", session)
            results = service.run_programs(
                {"t0": [{"op": "step"}, {"op": "step"}, {"op": "query"}]}
            )
            steps = results["t0"][:2]
            assert [step.index for step in steps] == [1, 2]
            report = results["t0"][2]
            assert report["kind"] == "expert"
            assert report["steps"] == 2
            assert report["uncertainty"] == session.uncertainty()
            assert report["effort"] == session.effort()
            assert report["deltas_applied"] == 0
            served = service.stats()["tenants"]["t0"]
            assert served["served"] == 3
            assert served["commands"] == {"step": 2, "query": 1}

    def test_kind_guard_rejects_wrong_op(self, fixture):
        with ReconciliationService() as service:
            session = build_session(
                fixture, _expert_spec(), catalog=service.catalog
            )
            service.add_tenant("t0", session)
            results = service.run_programs(
                {"t0": [{"op": "round"}, {"op": "step"}]}
            )
            error = results["t0"][0]
            assert isinstance(error, ValueError)
            assert "expert session" in str(error)
            # The error ended the tenant's program.
            assert len(results["t0"]) == 1

    def test_unknown_op_rejected(self, fixture):
        with ReconciliationService() as service:
            session = build_session(
                fixture, _expert_spec(), catalog=service.catalog
            )
            service.add_tenant("t0", session)
            results = service.run_programs({"t0": [{"op": "transmogrify"}]})
            assert isinstance(results["t0"][0], ValueError)

    def test_rescore_command_with_engine_indices(self, fixture):
        with ReconciliationService() as service:
            session = build_session(
                fixture, _expert_spec(), catalog=service.catalog
            )
            service.add_tenant("t0", session)
            results = service.run_programs(
                {"t0": [{"op": "rescore", "updates": {0: 0.9}},
                        {"op": "query"}]}
            )
            summary = results["t0"][0]
            assert summary["structural"] is False
            assert summary["rescored"] == 1
            assert summary["removed"] == 0
            assert results["t0"][1]["deltas_applied"] == 1
            network = session.pnet.network
            assert network.confidence(network.correspondences[0]) == 0.9

    def test_apply_delta_shared_across_tenants(self, fixture):
        delta = make_churn_delta(fixture.network, 0.1, random.Random(10))
        with ReconciliationService() as service:
            sessions = {}
            for index in range(3):
                name = f"t{index}"
                sessions[name] = build_session(
                    fixture,
                    _expert_spec(seed=13 + 100 * index),
                    catalog=service.catalog,
                )
                service.add_tenant(name, sessions[name])
            program = [{"op": "step"}, {"op": "apply_delta", "delta": delta}]
            results = service.run_programs(
                {name: list(program) for name in sessions}
            )
            for name in sessions:
                assert results[name][1]["structural"] is True
            stats = service.stats()["catalog"]
            assert stats["delta_misses"] == 1
            assert stats["delta_hits"] == 2
            # One recompile fleet-wide ⇒ one shared successor network.
            networks = {id(s.pnet.network) for s in sessions.values()}
            assert len(networks) == 1

    def test_duplicate_tenant_name_rejected(self, fixture):
        with ReconciliationService() as service:
            session = build_session(
                fixture, _expert_spec(), catalog=service.catalog
            )
            service.add_tenant("t0", session)
            with pytest.raises(ValueError, match="already registered"):
                service.add_tenant("t0", session)

    def test_close_is_idempotent_and_blocks_reentry(self, fixture):
        service = ReconciliationService()
        session = build_session(fixture, _expert_spec(), catalog=service.catalog)
        service.add_tenant("t0", session)
        service.close()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            with service:
                pass  # pragma: no cover - never reached
        with pytest.raises(RuntimeError, match="closed"):
            service.add_tenant("t1", session)


# ----------------------------------------------------------------------
# Durable tenants
# ----------------------------------------------------------------------
class TestDurableTenants:
    def test_checkpointed_tenant_recovers_bit_identically(
        self, fixture, tmp_path
    ):
        spec = _expert_spec(sharded=False)
        service = ReconciliationService()
        session = build_session(fixture, spec)
        service.add_tenant("t0", session, checkpoint_dir=tmp_path / "t0")
        service.run_programs({"t0": [{"op": "step"}] * 3})
        service.close()

        recovered, report = recover(tmp_path / "t0")
        assert report.session_kind == "expert"
        assert [s.uncertainty for s in recovered.trace.steps] == [
            s.uncertainty for s in session.trace.steps
        ]

        # The recovered session re-admits under its old name and keeps
        # going exactly where the solo run would be.
        service2 = ReconciliationService()
        service2.add_tenant("t0", recovered, checkpoint_dir=tmp_path / "t0")
        results = service2.run_programs({"t0": [{"op": "step"},
                                                {"op": "query"}]})
        assert results["t0"][1]["steps"] == 4
        service2.close()

        reference = build_session(fixture, spec)
        for _ in range(4):
            reference.step()
        assert [s.uncertainty for s in recovered.trace.steps] == [
            s.uncertainty for s in reference.trace.steps
        ]

    def test_remove_tenant_writes_final_checkpoint(self, fixture, tmp_path):
        service = ReconciliationService()
        session = build_session(fixture, _expert_spec(sharded=False))
        service.add_tenant("t0", session, checkpoint_dir=tmp_path / "t0")
        service.run_programs({"t0": [{"op": "step"}] * 2})
        tenant = service.remove_tenant("t0")
        assert tenant.transactions == 2
        assert "t0" not in service.registry
        recovered, _ = recover(tmp_path / "t0")
        assert len(recovered.trace.steps) == 2
        service.close()


# ----------------------------------------------------------------------
# Scenario wiring
# ----------------------------------------------------------------------
class TestServiceScenarios:
    def test_run_scenario_rejects_service_specs(self, fixture):
        with pytest.raises(ValueError, match="run_service_scenario"):
            run_scenario(fixture, _expert_spec(service=True))

    def test_run_service_scenario_requires_service_flag(self, fixture):
        with pytest.raises(ValueError, match="service=True"):
            run_service_scenario(fixture, _expert_spec())

    def test_tenant_program_splices_churn_delta(self, fixture):
        program = tenant_program(
            fixture, _expert_spec(budget=4, churn_at=2)
        )
        assert [command["op"] for command in program] == [
            "step", "step", "apply_delta", "step", "step",
        ]
        assert program[2]["delta"].is_structural

    def test_expert_fleet_shares_one_recompile(self, fixture):
        spec = _expert_spec(service=True, tenants=3, budget=3, churn_at=1)
        result = run_service_scenario(fixture, spec)
        assert len(result.outcomes) == 3
        assert all(outcome.steps == 3 for outcome in result.outcomes)
        catalog = result.stats["catalog"]
        assert catalog["delta_misses"] == 1
        assert catalog["delta_hits"] == 2
        assert catalog["subnet_hits"] > 0
        served = result.stats["tenants"]
        assert all(entry["served"] == 4 for entry in served.values())

    def test_crowd_fleet_runs_rounds(self, fixture):
        spec = ScenarioSpec(
            strategy="likelihood",
            oracle="crowd",
            seed=13,
            sharded=True,
            target_samples=40,
            crowd_rounds=2,
            service=True,
            tenants=2,
        )
        result = run_service_scenario(fixture, spec)
        assert len(result.outcomes) == 2
        assert all(outcome.rounds == 2 for outcome in result.outcomes)
        served = result.stats["tenants"]
        assert all(
            entry["commands"] == {"round": 2} for entry in served.values()
        )

    def test_shard_pool_keyword_accepts_only_none(self, fixture):
        with ReconciliationService() as service:
            assert service.pool is None
            assert "pool" not in service.stats()
            build_session(fixture, _expert_spec(), shard_pool=service.pool)
        with pytest.raises(TypeError, match="shard_pool"):
            build_session(fixture, _expert_spec(), shard_pool=object())
        crowd = _expert_spec(oracle="crowd", crowd_rounds=1)
        with pytest.raises(TypeError, match="shard_pool"):
            build_crowd_session(fixture, crowd, shard_pool=object())
