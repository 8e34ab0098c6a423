"""The benchmark's workloads: inputs, the timed pipeline, and output checks.

Each workload is a function ``(seed, size, clock, scratch)`` returning a
plain record of one repetition.  Inputs (corpus, synthetic
candidates, ground truth, churn delta) are generated outside the clock;
what a user of the library waits for runs inside ``clock.phase``:
``setup`` (inputs in hand until the first question can be asked),
``serve`` (the closed loop of questions or requests) and ``deliverable``
(``current_matching``).

Derived seeds follow the experiment harness: the sampler uses ``seed``,
the strategy and crowd routing ``seed + 1``, the crowd pool and the
deliverable ``seed + 2``, the churn delta and rescore ``seed + 3``, and
fleet tenant *i* runs with ``seed + 100·i``.
"""

from __future__ import annotations

import asyncio
import gc
import pathlib
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext

from repro.core.network import MatchingNetwork
from repro.core.repair import greedy_maximalize
from repro.datasets.corpora import CORPORA
from repro.durability.recovery import CHECKPOINT_FILE, JOURNAL_FILE, recover
from repro.experiments import harness
from repro.experiments.churn import make_churn_delta
from repro.experiments.harness import NetworkFixture
from repro.experiments.scenarios import (
    ScenarioSpec,
    build_crowd_session,
    build_session,
)
from repro.matchers.pipeline import PIPELINES
from repro.metrics import f_measure
from repro.service import ReconciliationService
from repro.service.scheduler import AdmissionError

#: The synthetic reference network of
#: ``benchmarks/test_bench_reconciliation.py``.
REFERENCE = dict(
    n_correspondences=1500,
    n_schemas=24,
    attributes_per_schema=150,
    conflict_bias=0.35,
    seed=7,
)
TOY = dict(REFERENCE, n_correspondences=300, n_schemas=16,
           attributes_per_schema=40)

# The networks are fixed, as the paper's datasets are; the workload seed
# drives the sessions (sampler, tie-breaks, crowd, churn delta and
# deliverable).  Across WebForm corpus seeds the network size alone moves
# session time by 2× and H/H₀ after 120 questions from 0 to 0.67, which
# would drown the effect of any later change.
SIZES = {
    "paper-ig": {
        "full": dict(scale=0.5, corpus_seed=3, samples=250, questions=120,
                     deliverable_every=15),
        "toy": dict(scale=0.2, corpus_seed=3, samples=60, questions=8,
                    deliverable_every=4),
    },
    "fleet-durable": {
        # A checkpoint every 100 transactions, not 25: requests that run or
        # wait behind a checkpoint are 2-3x slower than the rest, and at 25
        # (or 40) they reach 3-9% of requests, which puts op_p90 on the
        # knee between delayed and undelayed requests.
        "full": dict(network=REFERENCE, samples=250, experts=6, crowds=2,
                     requests=130, checkpoint_every=100, churn=0.1,
                     deliverables=3),
        "toy": dict(network=TOY, samples=60, experts=2, crowds=2,
                    requests=24, checkpoint_every=5, churn=0.1,
                    deliverables=1),
    },
}


class Clock:
    """The timed phases of one repetition, minus input work done inside."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.phases: dict[str, float] = {}
        self.traced_total_s = None
        self.peak_rss_mb = 0.0
        self._excluded = 0.0
        self._depth = 0

    @contextmanager
    def phase(self, name: str):
        if self.tracer is not None and not self.tracer.active:
            self.tracer.start()
        # A phase starts from a collected heap: garbage left by the inputs
        # or an earlier phase is not charged to it.
        with self.untimed():
            gc.collect()
        excluded = self._excluded
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.phases[name] = elapsed - (self._excluded - excluded)

    @contextmanager
    def untimed(self):
        """Time spent here is not charged to the phase (nesting counts once)."""
        self._depth += 1
        started = time.perf_counter()
        try:
            with self.tracer.excluded() if self.tracer else nullcontext():
                yield
        finally:
            self._depth -= 1
            if not self._depth:
                self._excluded += time.perf_counter() - started

    def finish(self) -> None:
        """End of the timed pipeline: stop tracing and note peak memory."""
        if self.tracer is not None:
            self.traced_total_s = self.tracer.stop()
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )


def synthetic_inputs(**kwargs):
    """The schemas, candidates and graph ``synthetic_network`` draws.

    The generator compiles the engine as its last step.  The benchmark
    times that compile itself, so it takes the raw inputs instead.
    """
    compile_network = harness.MatchingNetwork
    harness.MatchingNetwork = lambda schemas, candidates, graph: (
        schemas, candidates, graph
    )
    try:
        return harness.synthetic_network(**kwargs)
    finally:
        harness.MatchingNetwork = compile_network


def greedy_truth(network: MatchingNetwork) -> frozenset:
    """The ground truth ``synthetic_fixture`` derives for ``network``."""
    return frozenset(
        greedy_maximalize(set(), network.correspondences, [], network.engine)
    )


def serve(session, budget, probe) -> dict:
    """A closed loop of expert questions, as a record's serving entry.

    A step that raises is counted and ends the loop: the session's state
    is suspect after it.  ``probe(ops)`` runs after every op and is not
    part of ``serve_s``.
    """
    latencies: list[float] = []
    attempted = failed = 0
    probing = 0.0
    started = time.perf_counter()
    while len(latencies) < budget:
        attempted += 1
        asked = time.perf_counter()
        try:
            step = session.step()
        except Exception:  # noqa: BLE001 - the benchmark client reports it
            traceback.print_exc()
            failed = 1
            break
        if step is None:
            attempted -= 1
            break
        latencies.append(time.perf_counter() - asked)
        began = time.perf_counter()
        probe(len(latencies))
        probing += time.perf_counter() - began
    return {
        "latencies": latencies,
        "serve_s": time.perf_counter() - started - probing,
        "attempted": attempted,
        "failed": failed,
    }


def h_removed(session) -> float:
    """1 − H/H₀: the share of the network's uncertainty removed so far."""
    initial = session.trace.initial_uncertainty
    return 1.0 - session.uncertainty() / initial if initial else 1.0


class Deliverables:
    """``current_matching`` calls on some sessions, timed call by call.

    ``sessions`` maps a name to ``(session, seed)``; call ``j`` uses
    ``Random(seed + 1000·j)``, and call 0 gives the deliverable whose F1
    is reported.  The search path, and so its cost,
    depends on the RNG and on the state the session has reached, so a
    session is called several times for a steadier ``deliverable_ms``.
    """

    def __init__(self, clock, sessions: dict):
        self.clock = clock
        self.sessions = sessions
        self.durations = {name: [] for name in sessions}
        self.consistent = True

    def call(self, name, j):
        session, seed = self.sessions[name]
        with self.clock.untimed():
            gc.collect()
        started = time.perf_counter()
        matching = session.current_matching(rng=random.Random(seed + 1000 * j))
        self.durations[name].append(time.perf_counter() - started)
        self.consistent &= session.pnet.network.engine.is_consistent(matching)
        return matching

    def probe(self, name, every):
        """A ``serve`` probe making call ``ops / every`` after every
        ``every`` ops, outside the timed serving: the deliverable of a
        pay-as-you-go session is wanted at any point, not only at its end."""

        def after(ops):
            if ops % every == 0:
                with self.clock.untimed():
                    self.call(name, ops // every)

        return after

    def final(self, repeats=1) -> dict:
        """Each session's deliverable as the deliverable phase, which ends
        the timed pipeline, then ``repeats - 1`` more calls per session."""
        with self.clock.phase("deliverable"):
            matchings = {name: self.call(name, 0) for name in self.sessions}
        self.clock.finish()
        for j in range(1, repeats):
            for name in self.sessions:
                self.call(name, j)
        return matchings


def paper_ig(seed: int, size: str, clock: Clock, scratch):
    params = SIZES["paper-ig"][size]
    corpus = CORPORA["WebForm"](
        scale=params["scale"], seed=params["corpus_seed"]
    )
    graph = corpus.graph()
    truth = corpus.ground_truth(graph)
    with clock.phase("setup"):
        candidates = PIPELINES["coma_like"]().match_network(
            corpus.schemas, graph
        )
        network = MatchingNetwork(corpus.schemas, candidates, graph=graph)
        session = build_session(
            NetworkFixture(corpus=corpus, network=network, ground_truth=truth),
            ScenarioSpec(
                strategy="information-gain",
                target_samples=params["samples"],
                seed=seed,
                validate=True,
            ),
        )
    calls = Deliverables(clock, {"expert": (session, seed + 2)})
    probe = calls.probe("expert", params["deliverable_every"])
    with clock.phase("serve"):
        serving = serve(session, params["questions"], probe)
    matching = calls.final()["expert"]
    serving["deliverable_s"] = list(calls.durations.values())
    return {
        "phases": clock.phases,
        "servings": [serving],
        # Every repetition of a run replays the same seeded session op for
        # op, which run.py relies on.
        "replays": True,
        "attempted": serving["attempted"],
        "failed": serving["failed"],
        "rejected": 0,
        "h_removed": [h_removed(session)],
        "f1": [f_measure(matching, truth)],
        "checks": {
            "questions_asked": not serving["failed"]
            and (len(serving["latencies"]) == params["questions"]
                 or session.is_done()),
            "final_h_not_above_initial": session.uncertainty()
            <= session.trace.initial_uncertainty,
            "deliverable_violation_free": calls.consistent,
        },
        "counts": {
            "core.reconciliation.conflicts_resolved": session.conflicts_resolved
        },
    }


def tenant_specs(seed: int, params: dict) -> dict[str, ScenarioSpec]:
    """Experts alternate likelihood and random; crowds use likelihood."""
    specs = {}
    for index in range(params["experts"] + params["crowds"]):
        common = dict(
            target_samples=params["samples"],
            seed=seed + 100 * index,
            sharded=True,
        )
        if index < params["experts"]:
            spec = ScenarioSpec(
                strategy=("likelihood", "random")[index % 2], **common
            )
        else:
            # Crowds err, so conflicting approvals are repaired, not raised.
            spec = ScenarioSpec(
                strategy="likelihood",
                oracle="crowd",
                crowd_k=4,
                crowd_redundancy=3,
                on_conflict="disapprove",
                **common,
            )
        specs[f"t{index}"] = spec
    return specs


def tenant_program(spec: ScenarioSpec, requests: int, delta, rescore) -> list:
    """Steps or rounds, the shared churn delta at ⅓, a rescore at ⅔ and a
    read-only query every tenth request."""
    work = {"op": "round" if spec.oracle == "crowd" else "step"}
    program = []
    for position in range(requests):
        if position == requests // 3:
            program.append({"op": "apply_delta", "delta": delta})
        elif position == 2 * requests // 3:
            program.append({"op": "rescore", "updates": rescore})
        elif position % 10 == 9:
            program.append({"op": "query"})
        else:
            program.append(work)
    return program


def serve_fleet(service, programs: dict) -> tuple[list, list, int]:
    """One closed-loop client per tenant with zero think time.

    Returns the request latencies (submit to result), the failures as
    ``(tenant, position, traceback)`` and the rejected-request count.  A
    failed request ends its tenant's program, as in
    ``ReconciliationService.run_programs``, but is counted here.
    """
    latencies: list[float] = []
    failures: list[tuple] = []
    rejected = 0

    async def client(name, program):
        nonlocal rejected
        for position, command in enumerate(program):
            started = time.perf_counter()
            try:
                await service.submit(name, command)
            except AdmissionError:
                rejected += 1
                continue
            except Exception:  # noqa: BLE001 - the benchmark client reports it
                failures.append((name, position, traceback.format_exc()))
                return
            latencies.append(time.perf_counter() - started)

    async def main():
        await asyncio.gather(
            *(client(name, program) for name, program in programs.items())
        )
        await service.drain()

    asyncio.run(main())
    return latencies, failures, rejected


def fleet_durable(seed: int, size: str, clock: Clock, scratch):
    params = SIZES["fleet-durable"][size]
    schemas, candidates, graph = synthetic_inputs(**params["network"])
    specs = tenant_specs(seed, params)
    directory = tempfile.mkdtemp(prefix="fleet-", dir=scratch)
    service = None
    try:
        with clock.phase("setup"):
            network = MatchingNetwork(schemas, candidates, graph=graph)
            with clock.untimed():
                truth = greedy_truth(network)
                rng = random.Random(seed + 3)
                delta = make_churn_delta(network, params["churn"], rng)
                # Integer keys name candidates of the post-delta network.
                rescore = {
                    index: rng.random()
                    for index in sorted(
                        rng.sample(range(len(candidates) // 2), 20)
                    )
                }
            fixture = NetworkFixture(
                corpus=None, network=network, ground_truth=truth
            )
            service = ReconciliationService()
            sessions = {}
            for name, spec in specs.items():
                build = (
                    build_crowd_session if spec.oracle == "crowd"
                    else build_session
                )
                sessions[name] = build(
                    fixture, spec, shard_pool=service.pool,
                    catalog=service.catalog,
                )
                service.add_tenant(
                    name,
                    sessions[name],
                    checkpoint_dir=f"{directory}/{name}",
                    checkpoint_every=params["checkpoint_every"],
                )
            with clock.untimed():
                shutil.copy(f"{directory}/t0/{CHECKPOINT_FILE}",
                            f"{directory}/t0-initial.json")
        programs = {
            name: tenant_program(spec, params["requests"], delta, rescore)
            for name, spec in specs.items()
        }
        with clock.phase("serve"):
            latencies, failures, rejected = serve_fleet(service, programs)
        serve_s = clock.phases["serve"]
        calls = Deliverables(clock, {
            name: (session, specs[name].seed + 2)
            for name, session in sessions.items()
        })
        matchings = calls.final(params["deliverables"])
        for name, position, trace in failures:
            print(f"{name} request {position} failed:\n{trace}", file=sys.stderr)
        serving = {"latencies": latencies, "serve_s": serve_s,
                   "deliverable_s": list(calls.durations.values())}
        return fleet_record(clock, service, sessions, matchings,
                            calls.consistent,
                            serving, programs, truth, failures, rejected,
                            directory)
    finally:
        if service is not None:
            service.close()
        shutil.rmtree(directory, ignore_errors=True)


def recover_from_start(directory: str, name: str):
    """Recover a tenant from its initial checkpoint plus its whole journal.

    The redo re-executes every transaction, the churn delta and the
    rescore included.  The tenant's latest checkpoint is not used:
    restoring a checkpoint taken after a delta that removed schemas fails
    whenever earlier trace steps name those schemas.
    """
    replay = pathlib.Path(directory) / f"{name}-recovery"
    replay.mkdir()
    shutil.copy(f"{directory}/{name}-initial.json", replay / CHECKPOINT_FILE)
    shutil.copy(f"{directory}/{name}/{JOURNAL_FILE}", replay / JOURNAL_FILE)
    session, _ = recover(replay)
    return session


def fleet_record(clock, service, sessions, matchings, consistent, serving,
                 programs, truth, failures, rejected, directory) -> dict:
    attempted = sum(len(program) for program in programs.values())
    failed = sum(
        len(programs[name]) - position for name, position, _ in failures
    )
    # The ground truth of the live candidates: the delta removed some.
    f1 = [
        f_measure(matchings[name],
                  truth & set(session.pnet.network.correspondences))
        for name, session in sessions.items()
    ]
    stats = service.stats()
    catalog = stats["catalog"]
    recovered = recover_from_start(directory, "t0")
    live = sessions["t0"]
    tenants = stats["tenants"].values()

    def hit_share(kind):
        hits, misses = catalog[f"{kind}_hits"], catalog[f"{kind}_misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "phases": clock.phases,
        "servings": [serving],
        # Each tenant's trace is fixed by its seed, but how the scheduler
        # interleaves the tenants' requests, and so their latencies, is not.
        "replays": False,
        "attempted": attempted,
        "failed": failed,
        "rejected": rejected,
        "h_removed": [h_removed(session) for session in sessions.values()],
        "f1": f1,
        "checks": {
            "tenants_finished": not failures and not rejected,
            "deltas_computed_once": catalog["delta_misses"] == 2,
            "recovery_reproduces_trace": recovered.trace == live.trace
            and recovered.deltas_applied == live.deltas_applied,
            "deliverables_violation_free": consistent,
        },
        "counts": {
            "core.reconciliation.conflicts_resolved": sum(
                session.conflicts_resolved for session in sessions.values()
            ),
            "service.wait_s": sum(t["wait_seconds"] for t in tenants),
            "service.serve_s": sum(t["serve_seconds"] for t in tenants),
            "service.requests": sum(t["served"] + t["failed"] for t in tenants),
            "service.failed": sum(t["failed"] for t in tenants),
            "service.catalog.subnet_hit_share": hit_share("subnet"),
            "service.catalog.fill_hit_share": hit_share("fill"),
            "service.catalog.delta_hit_share": hit_share("delta"),
        },
    }


WORKLOADS = {
    "paper-ig": paper_ig,
    "fleet-durable": fleet_durable,
}
