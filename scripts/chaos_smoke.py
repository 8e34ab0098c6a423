"""Fast chaos smoke for CI: crash at every round boundary, recover, compare.

One seeded crowd session on a small synthetic network is the golden run;
the smoke then kills a fresh copy at each round boundary with
``FaultPlan.crash_at_round``, recovers it from the checkpoint + journal,
finishes the run and asserts the final trace is bit-identical to the
golden one.  A short timeout-with-retry leg checks graceful dispatch on
top, and two mid-delta legs cover network evolution: a crash right after
a journaled delta committed (recovery must re-execute it) and a *torn*
delta whose commit record never landed (recovery must discard it and
continue pre-delta).  A service leg crashes one tenant of a fleet, and an
expert leg crashes a noisy single-expert run at step boundaries, with
journaled steps (one of them an approval retraction) past the last
checkpoint.  A sharded expert leg repeats the step-boundary crashes on a
component-sharded session, whose checkpoints write every shard stream
that never drew as its spawn seed.  Takes a few seconds; exits non-zero
on the first divergence.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
from dataclasses import replace

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.durability import (  # noqa: E402
    CHECKPOINT_FILE,
    FaultPlan,
    RetryPolicy,
    SimulatedCrash,
    recover,
    run_durable,
)
from repro.experiments import synthetic_fixture  # noqa: E402
from repro.experiments.scenarios import (  # noqa: E402
    ScenarioSpec,
    build_crowd_session,
    build_session,
)

SEED = 0
SPEC = ScenarioSpec(
    strategy="information-gain",
    oracle="crowd",
    on_conflict="disapprove",
    target_samples=120,
    seed=SEED,
    crowd_workers=6,
    crowd_reliability="mixed",
    crowd_redundancy=3,
    crowd_k=3,
    crowd_cost=1.0,
    crowd_budget=36.0,
)


def trace_tuple(trace):
    return (
        trace.initial_uncertainty,
        tuple(
            (r.questions, r.verdicts, r.votes, r.uncertainty, r.spent)
            for r in trace.rounds
        ),
    )


def main() -> int:
    fixture = synthetic_fixture(
        110, n_schemas=8, attributes_per_schema=30, seed=5
    )
    golden_session = build_crowd_session(fixture, SPEC)
    golden_session.run()
    golden = trace_tuple(golden_session.trace)
    total_rounds = len(golden_session.trace.rounds)

    with tempfile.TemporaryDirectory() as tmp:
        for crash_round in range(1, total_rounds + 1):
            directory = pathlib.Path(tmp) / f"round{crash_round}"
            session = build_crowd_session(fixture, SPEC)
            session.faults = FaultPlan(
                seed=SEED, crash_at_round=crash_round, latency_mean=0.0
            )
            try:
                run_durable(session, directory)
            except SimulatedCrash:
                pass
            else:
                print(f"chaos smoke: no crash at round {crash_round}")
                return 1
            recovered, _ = recover(directory)
            run_durable(recovered, directory)
            if trace_tuple(recovered.trace) != golden:
                print(
                    "chaos smoke: recovery diverged after a crash at "
                    f"round {crash_round}"
                )
                return 1

    # Graceful dispatch: 20% timeouts with retry must reproduce the
    # fault-free answer stream (worker RNG is consumed only on delivery).
    session = build_crowd_session(fixture, SPEC)
    session.faults = FaultPlan(
        seed=SEED,
        timeout_probability=0.2,
        latency_mean=0.0,
        retry=RetryPolicy(),
    )
    session.run()
    if trace_tuple(session.trace) != golden:
        print("chaos smoke: timeout+retry run diverged from fault-free")
        return 1

    print(
        f"chaos smoke: {total_rounds} crash/recover boundaries and the "
        "retry leg are bit-identical to the golden run"
    )
    code = delta_legs(fixture)
    if code:
        return code
    code = service_leg(fixture)
    if code:
        return code
    code = expert_leg(fixture, EXPERT_SPEC)
    if code:
        return code
    return expert_leg(fixture, replace(EXPERT_SPEC, sharded=True))


def delta_legs(fixture) -> int:
    """Crash legs around a mid-run network delta."""
    import random

    from repro.experiments.churn import make_churn_delta
    from repro.io import delta_to_dict

    delta = make_churn_delta(fixture.network, 0.125, random.Random(42))
    with tempfile.TemporaryDirectory() as tmp:
        # The golden evolved run: two rounds, the delta, then run to goal.
        golden = build_crowd_session(fixture, SPEC)
        run_durable(golden, pathlib.Path(tmp) / "golden", rounds=2)
        golden.apply_delta(delta)
        run_durable(golden, pathlib.Path(tmp) / "golden")

        # Leg 1: crash immediately after the delta committed — recovery
        # re-executes it from the write-ahead journal record.
        crash_dir = pathlib.Path(tmp) / "committed"
        crashed = build_crowd_session(fixture, SPEC)
        run_durable(crashed, crash_dir, rounds=2)
        crashed.apply_delta(delta)
        recovered, report = recover(crash_dir)
        if report.transactions_redone != 1 or recovered.deltas_applied != 1:
            print("chaos smoke: committed delta was not re-executed on redo")
            return 1
        run_durable(recovered, crash_dir)
        if trace_tuple(recovered.trace) != trace_tuple(golden.trace):
            print("chaos smoke: committed-delta crash recovery diverged")
            return 1

        # Leg 2: the crash lands between the write-ahead delta record and
        # its commit — the torn delta never durably happened.
        torn_dir = pathlib.Path(tmp) / "torn"
        torn = build_crowd_session(fixture, SPEC)
        run_durable(torn, torn_dir, rounds=2)
        pre_trace = trace_tuple(torn.trace)
        n_candidates = len(torn.pnet.network.correspondences)
        torn.journal.append({"type": "delta", "delta": delta_to_dict(delta)})
        recovered, report = recover(torn_dir)
        if (
            report.records_discarded != 1
            or recovered.deltas_applied != 0
            or len(recovered.pnet.network.correspondences) != n_candidates
            or trace_tuple(recovered.trace) != pre_trace
        ):
            print("chaos smoke: torn delta was not discarded cleanly")
            return 1
        run_durable(recovered, torn_dir)

    print(
        "chaos smoke: mid-delta legs (committed redo, torn discard) are "
        "bit-identical"
    )
    return 0


def service_leg(fixture) -> int:
    """Crash one tenant of a multiplexed fleet mid-round; the others run on.

    Three crowd tenants share one :class:`ReconciliationService`.  The
    durable "victim" crashes inside its second round; the service keeps
    the other two tenants' programs running to completion (their traces
    must equal solo runs), the victim is evicted without a checkpoint,
    recovered from its journal directory, re-admitted under its old
    name, and finished — bit-identical to the run that never crashed.
    """
    from repro.experiments.scenarios import tenant_specs
    from repro.service import ReconciliationService

    base = replace(SPEC, service=True, tenants=3)
    specs = tenant_specs(base)
    rounds = 3
    goldens = {}
    for spec in specs:
        session = build_crowd_session(fixture, spec)
        for _ in range(rounds):
            session.round()
        goldens[spec.name] = trace_tuple(session.trace)

    with tempfile.TemporaryDirectory() as tmp:
        victim_dir = pathlib.Path(tmp) / "victim"
        service = ReconciliationService()
        sessions = {}
        for index, spec in enumerate(specs):
            session = build_crowd_session(fixture, spec)
            sessions[spec.name] = session
            if index == 0:
                session.faults = FaultPlan(
                    seed=SEED, crash_at_round=2, latency_mean=0.0
                )
                service.add_tenant(
                    spec.name, session, checkpoint_dir=victim_dir
                )
            else:
                service.add_tenant(spec.name, session)
        victim = specs[0].name
        results = service.run_programs(
            {spec.name: [{"op": "round"}] * rounds for spec in specs}
        )

        if not isinstance(results[victim][-1], SimulatedCrash):
            print("chaos smoke: service victim did not crash as planned")
            return 1
        for spec in specs[1:]:
            crashed = [
                r for r in results[spec.name] if isinstance(r, Exception)
            ]
            if crashed or trace_tuple(
                sessions[spec.name].trace
            ) != goldens[spec.name]:
                print(
                    "chaos smoke: service crash leaked into tenant "
                    f"{spec.name}"
                )
                return 1

        # Evict the suspect in-memory session (journal is the authority),
        # recover from its directory, and finish under the old name.
        service.remove_tenant(victim, checkpoint=False)
        recovered, _ = recover(victim_dir)
        if len(recovered.trace.rounds) >= rounds:
            print("chaos smoke: service victim crash was not mid-run")
            return 1
        service.add_tenant(victim, recovered, checkpoint_dir=victim_dir)
        remaining = rounds - len(recovered.trace.rounds)
        results = service.run_programs(
            {victim: [{"op": "round"}] * remaining}
        )
        if any(isinstance(r, Exception) for r in results[victim]):
            print("chaos smoke: recovered service tenant failed to finish")
            return 1
        service.close()
        if trace_tuple(recovered.trace) != goldens[victim]:
            print("chaos smoke: recovered service tenant diverged")
            return 1

    print(
        "chaos smoke: service leg (mid-round tenant crash, journal "
        "recovery, unaffected co-tenants) is bit-identical"
    )
    return 0


EXPERT_SPEC = ScenarioSpec(
    strategy="likelihood",
    oracle="noisy",
    error_rate=0.2,
    on_conflict="disapprove",
    target_samples=120,
    seed=SEED,
)
EXPERT_STEPS = 80
#: Checkpoint cadence of the crashed runs: a crash leaves up to this many
#: minus one journaled steps past the last checkpoint for the redo.
EXPERT_CHECKPOINT_EVERY = 4
#: Crash at every this-many-th step boundary (plus the retraction's).
EXPERT_CRASH_STRIDE = 7


def expert_trace_tuple(trace):
    return (
        trace.initial_uncertainty,
        tuple(
            (s.index, s.correspondence, s.approved, s.uncertainty, s.effort)
            for s in trace.steps
        ),
    )


def seed_form_shards(directory: pathlib.Path) -> int:
    """How many shard samplers the directory's checkpoint wrote as a seed."""
    document = json.loads((directory / CHECKPOINT_FILE).read_text())
    shards = document["pnet"]["shards"]
    return sum("seed" in shard["sampler"] for shard in shards)


def expert_leg(fixture, spec) -> int:
    """Crash a noisy expert after step boundaries; recovery is exact.

    The unsharded golden run must retract an earlier approval, and one
    crash lands right after that step, so the redo re-executes the
    conflict repair and re-verifies its journaled ``retraction`` record.
    A sharded run need not retract (at seed 0 it does not), but every
    checkpoint it crashes on must hold seed-form shard samplers, so each
    recovery re-derives those streams from their seeds.
    """
    from repro.durability import read_journal

    leg = "sharded expert" if spec.sharded else "expert"
    golden = build_session(fixture, spec)
    retraction_step = None
    for _ in range(EXPERT_STEPS):
        record = golden.step()
        if record is None:
            break
        if retraction_step is None and golden.approvals_retracted:
            retraction_step = record.index
    if retraction_step is None and not spec.sharded:
        print(f"chaos smoke: the {leg} golden run retracted no approval")
        return 1
    expected = expert_trace_tuple(golden.trace)
    crashes = sorted(
        set(range(EXPERT_CRASH_STRIDE, EXPERT_STEPS, EXPERT_CRASH_STRIDE))
        | ({retraction_step} if retraction_step is not None else set())
    )
    retraction_replayed = False
    with tempfile.TemporaryDirectory() as tmp:
        for crash_step in crashes:
            directory = pathlib.Path(tmp) / f"step{crash_step}"
            session = build_session(fixture, spec)
            step = session.step

            def crashing_step(step=step, crash_step=crash_step):
                record = step()
                if record is not None and record.index == crash_step:
                    raise SimulatedCrash(crash_step)
                return record

            session.step = crashing_step
            try:
                run_durable(
                    session,
                    directory,
                    budget=EXPERT_STEPS,
                    checkpoint_every=EXPERT_CHECKPOINT_EVERY,
                )
            except SimulatedCrash:
                pass
            else:
                print(f"chaos smoke: no {leg} crash at step {crash_step}")
                return 1
            if spec.sharded and not seed_form_shards(directory):
                print(
                    f"chaos smoke: the {leg} checkpoint at step "
                    f"{crash_step} holds no seed-form shard sampler"
                )
                return 1
            _, committed, _ = read_journal(directory / "journal.jsonl")
            recovered, report = recover(directory)
            retraction_replayed |= any(
                record["type"] == "retraction"
                and record["seq"] > report.checkpoint_seq
                for record in committed
            )
            run_durable(recovered, directory, budget=EXPERT_STEPS)
            if expert_trace_tuple(recovered.trace) != expected:
                print(
                    f"chaos smoke: {leg} recovery diverged after a crash "
                    f"at step {crash_step}"
                )
                return 1
    if spec.sharded:
        redone = "seed-form shard samplers restored"
    elif retraction_replayed:
        redone = f"a retraction at step {retraction_step} redone"
    else:
        print(f"chaos smoke: no {leg} redo re-verified a retraction record")
        return 1
    print(
        f"chaos smoke: {leg} leg ({len(crashes)} step-boundary crashes, "
        f"{redone}) is bit-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
