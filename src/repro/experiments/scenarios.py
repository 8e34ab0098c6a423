"""Scenario harness: full pay-as-you-go sessions, declaratively.

A :class:`ScenarioSpec` names one full reconciliation session — which
selection strategy drives it, whether the oracle is perfect or noisy, how
conflicts with Γ are handled, the sample budget and the seed — and
:func:`run_scenario` executes it over a :class:`~.harness.NetworkFixture`
into a :class:`ScenarioOutcome`.  Crossing fixtures × strategies ×
oracles (:func:`run_matrix`) is how the robustness suite and the
reconciliation benchmarks drive the loop over large synthetic networks;
Figs. 9–11 reuse the same machinery through :func:`build_session` /
:func:`run_effort_grid` so every experiment steps sessions the same way.

Seed conventions (kept identical to the historical figure runners so the
experiment outputs stay reproducible): the probabilistic network samples
with ``Random(seed)``, the strategy breaks ties with ``Random(seed + 1)``,
a noisy oracle flips answers with ``Random(seed + 2)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from ..core.feedback import NoisyOracle, Oracle
from ..durability.faults import FaultPlan
from ..core.probability import ProbabilisticNetwork
from ..core.reconciliation import ReconciliationSession, ReconciliationTrace
from ..crowd import (
    BudgetLedger,
    CrowdSession,
    CrowdTrace,
    WorkerPool,
    make_aggregator,
    make_assignment,
)
from ..core.selection import (
    ConfidenceSelection,
    EntropySelection,
    InformationGainSelection,
    LikelihoodSelection,
    RandomSelection,
    SelectionStrategy,
)
from ..metrics import precision, recall
from .harness import NetworkFixture

T = TypeVar("T")

#: Registered strategy factories, keyed by the names scenarios use.
STRATEGIES: dict[str, Callable[..., SelectionStrategy]] = {
    "random": RandomSelection,
    "information-gain": InformationGainSelection,
    "entropy": EntropySelection,
    "likelihood": LikelihoodSelection,
    "confidence": ConfidenceSelection,
}


def make_strategy(
    name: str, rng: Optional[random.Random] = None
) -> SelectionStrategy:
    """Instantiate a registered selection strategy by name."""
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; available: {sorted(STRATEGIES)}"
        ) from None
    return factory(rng=rng)


@dataclass(frozen=True)
class ScenarioSpec:
    """One full-session scenario: strategy × oracle × goal × seed.

    With ``oracle="crowd"`` the scenario runs a
    :class:`~repro.crowd.session.CrowdSession` instead of the single-expert
    loop: ``strategy`` becomes the question-selection criterion, the
    ``crowd_*`` fields configure the pool (size and named reliability
    distribution), the round shape (``k`` questions × ``redundancy``
    answers), the routing/aggregation policies and the money
    (``crowd_cost`` per answer against the optional ``crowd_budget`` cap).
    """

    strategy: str = "information-gain"
    oracle: str = "perfect"  # "perfect" | "noisy" | "crowd"
    error_rate: float = 0.0
    on_conflict: str = "raise"  # "raise" | "disapprove"
    target_samples: int = 300
    budget: Optional[int] = None
    effort_budget: Optional[float] = None
    uncertainty_goal: Optional[float] = None
    seed: int = 0
    name: str = ""
    #: Fail fast: lint the network (repro.analysis) before building the
    #: session and raise LintError on any error-severity finding.
    validate: bool = False
    #: Drop statically-dead candidates before sampling.  Instance-space
    #: preserving (dead candidates appear in no instance), so traces are
    #: bit-identical whenever nothing is dead — the network object itself
    #: is reused in that case.
    prune_dead: bool = False
    # Crowd fields (used only with oracle="crowd").
    crowd_workers: int = 12
    crowd_reliability: str = "mixed"
    crowd_redundancy: int = 3
    crowd_k: int = 4
    crowd_cost: float = 1.0
    crowd_budget: Optional[float] = None
    crowd_rounds: Optional[int] = None
    crowd_aggregator: str = "weighted"
    crowd_assignment: str = "reliability"
    # Durability fields (repro.durability).
    #: Fault-injection plan wired into crowd dispatch; the session gets a
    #: :meth:`~repro.durability.faults.FaultPlan.clone` so one spec can be
    #: run repeatedly with independent fault streams.
    faults: Optional[FaultPlan] = None
    #: Run the session durably under this directory (write-ahead journal +
    #: checkpoints); ``None`` (default) runs in memory only.
    checkpoint_dir: Optional[str] = None
    #: Auto-checkpoint every k transactions (rounds / steps) when running
    #: durably; 0 keeps only the initial and final checkpoints.
    checkpoint_every: int = 1
    # Sharding fields (repro.shard).
    #: Estimate probabilities with a component-sharded store
    #: (:class:`~repro.shard.ShardedEstimator`) instead of the whole-network
    #: sampled store.  Exact — the shard merge factorises over violation
    #: components — so sessions over complete stores are bit-identical.
    sharded: bool = False
    #: Cap the shard count (components are bin-packed); None = one shard
    #: per violation-graph component.
    max_shards: Optional[int] = None
    # Churn fields (repro.experiments.churn / repro.core.delta).
    #: Apply a schema-churn delta after this many expert steps; ``None``
    #: (default) runs over a static network.
    churn_at: Optional[int] = None
    #: Fraction of schemas the mid-run delta removes and re-adds
    #: (:func:`~repro.experiments.churn.make_churn_delta`, seeded with
    #: ``Random(seed + 3)``).
    churn_fraction: float = 0.1
    # Service fields (repro.service).
    #: Run the spec as a *fleet* of concurrent tenant sessions through
    #: :func:`run_service_scenario` instead of one offline session.
    service: bool = False
    #: How many tenant sessions the service multiplexes; tenant *i* runs
    #: the same spec reseeded with ``seed + 100·i``.
    tenants: int = 4
    #: Fairness policy: "round-robin" or "deficit" (weighted DRR).
    service_policy: str = "round-robin"
    #: Bound on each tenant's pending-command queue (backpressure).
    service_max_pending: int = 16
    #: Full-queue behaviour: "wait" suspends submitters, "reject" raises
    #: :class:`~repro.service.scheduler.AdmissionError`.
    service_admission: str = "wait"

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        if self.oracle == "crowd":
            oracle = (
                f"crowd({self.crowd_reliability}×{self.crowd_workers},"
                f"r{self.crowd_redundancy},k{self.crowd_k})"
            )
        elif self.oracle == "perfect":
            oracle = "perfect"
        else:
            oracle = f"noisy({self.error_rate:g})"
        return f"{self.strategy}×{oracle}@{self.seed}"


@dataclass
class ScenarioOutcome:
    """What a finished scenario produced, ready for tables and assertions."""

    spec: ScenarioSpec
    trace: "ReconciliationTrace | CrowdTrace"
    steps: int
    conflicts_resolved: int
    final_uncertainty: float
    final_effort: float
    #: Precision of the non-disapproved candidates, Prec(C \ F⁻) — the
    #: pay-as-you-go quality measure Fig. 9 tracks.
    precision_remaining: float
    #: Recall of F⁺ against the ground truth.
    recall_approved: float
    #: Crowd accounting (zero for single-expert scenarios): dispatched
    #: rounds, answers collected and money spent.
    rounds: int = 0
    answers: int = 0
    spend: float = 0.0

    @property
    def uncertainty_ratio(self) -> float:
        initial = self.trace.initial_uncertainty
        return self.final_uncertainty / initial if initial else 0.0


def make_oracle(fixture: NetworkFixture, spec: ScenarioSpec) -> Oracle:
    """The simulated expert a scenario interrogates."""
    if spec.oracle == "perfect":
        return Oracle(fixture.ground_truth)
    if spec.oracle == "noisy":
        return NoisyOracle(
            fixture.ground_truth,
            error_rate=spec.error_rate,
            rng=random.Random(spec.seed + 2),
        )
    if spec.oracle == "crowd":
        raise ValueError(
            "crowd scenarios build a worker pool, not a single oracle; use "
            "build_crowd_session / run_scenario"
        )
    raise ValueError(f"unknown oracle kind {spec.oracle!r}")


def prepare_fixture(
    fixture: NetworkFixture, spec: ScenarioSpec
) -> NetworkFixture:
    """Apply a spec's static-analysis knobs before building its session.

    ``validate=True`` lints the fixture's network and raises
    :class:`~repro.analysis.diagnostics.LintError` on any error-severity
    finding (unsatisfiable network, conflicting constraints).
    ``prune_dead=True`` drops statically-dead candidates; pruning is
    instance-space preserving, and when nothing is dead the very same
    network object comes back, keeping traces bit-identical.
    """
    if not (spec.validate or spec.prune_dead):
        return fixture
    from ..analysis import lint, prune_dead_candidates

    if spec.validate:
        lint(fixture.network).raise_on_error()
    if spec.prune_dead:
        pruned, _ = prune_dead_candidates(fixture.network)
        if pruned is not fixture.network:
            return replace(fixture, network=pruned)
    return fixture


def _check_shard_pool(shard_pool) -> None:
    """Refuse a worker pool: shard refills have one sequential path."""
    if shard_pool is not None:
        raise TypeError(
            "shard_pool must be None: shard refills always run sequentially"
        )


def _build_pnet(
    fixture: NetworkFixture,
    spec: ScenarioSpec,
    catalog=None,
) -> ProbabilisticNetwork:
    """The probabilistic network of a spec — sharded or whole-network.

    Both estimators sample with ``Random(seed)``; the sharded one derives
    one independent stream per shard from it (in shard order), so the
    whole decomposition is a pure function of the spec.  ``catalog``
    threads the service's shared artefact cache into a sharded store —
    it is bit-identity-preserving, so specs build the same sessions with
    or without it.
    """
    if spec.sharded:
        from ..shard import ShardedEstimator

        return ProbabilisticNetwork(
            fixture.network,
            estimator=ShardedEstimator(
                fixture.network,
                target_samples=spec.target_samples,
                rng=random.Random(spec.seed),
                max_shards=spec.max_shards,
                catalog=catalog,
            ),
        )
    return ProbabilisticNetwork(
        fixture.network,
        target_samples=spec.target_samples,
        rng=random.Random(spec.seed),
    )


def build_crowd_session(
    fixture: NetworkFixture,
    spec: ScenarioSpec,
    pool: Optional[WorkerPool] = None,
    *,
    shard_pool=None,  # kept for perfbench/workloads.py; only None is valid
    catalog=None,
) -> CrowdSession:
    """Assemble the crowd session of an ``oracle="crowd"`` spec.

    Seed conventions extend the single-expert ones: the network samples
    with ``Random(seed)``, the assignment policy explores with
    ``Random(seed + 1)``, and the pool's per-worker answer streams derive
    from ``seed + 2`` (see :meth:`WorkerPool.from_distribution`).
    """
    _check_shard_pool(shard_pool)
    fixture = prepare_fixture(fixture, spec)
    pnet = _build_pnet(fixture, spec, catalog=catalog)
    if pool is None:
        pool = WorkerPool.from_distribution(
            fixture.ground_truth,
            spec.crowd_workers,
            distribution=spec.crowd_reliability,
            seed=spec.seed + 2,
        )
    return CrowdSession(
        pnet,
        pool,
        k=spec.crowd_k,
        redundancy=spec.crowd_redundancy,
        criterion=spec.strategy,
        assignment=make_assignment(
            spec.crowd_assignment, rng=random.Random(spec.seed + 1)
        ),
        aggregator=make_aggregator(spec.crowd_aggregator),
        ledger=BudgetLedger(
            cost_per_answer=spec.crowd_cost, budget=spec.crowd_budget
        ),
        on_conflict=spec.on_conflict,
        faults=spec.faults.clone() if spec.faults is not None else None,
    )


def build_session(
    fixture: NetworkFixture,
    spec: ScenarioSpec,
    oracle: Optional[Oracle] = None,
    *,
    shard_pool=None,  # kept for perfbench/workloads.py; only None is valid
    catalog=None,
) -> ReconciliationSession:
    """Assemble the probabilistic network, strategy and oracle of a spec."""
    _check_shard_pool(shard_pool)
    fixture = prepare_fixture(fixture, spec)
    pnet = _build_pnet(fixture, spec, catalog=catalog)
    strategy = make_strategy(spec.strategy, random.Random(spec.seed + 1))
    return ReconciliationSession(
        pnet,
        oracle if oracle is not None else make_oracle(fixture, spec),
        strategy,
        on_conflict=spec.on_conflict,
    )


def _summarise(
    fixture: NetworkFixture,
    spec: ScenarioSpec,
    session: "ReconciliationSession | CrowdSession",
    steps: int,
    **crowd_fields,
) -> ScenarioOutcome:
    """The shared outcome summary both oracle paths assemble."""
    pnet = session.pnet
    truth = fixture.ground_truth
    # The session's own network, not the fixture's: with prune_dead the
    # session runs over a narrowed universe, and precision_remaining must
    # measure the candidates the session actually still carries.
    remaining = [
        corr
        for corr in pnet.network.correspondences
        if corr not in pnet.feedback.disapproved
    ]
    return ScenarioOutcome(
        spec=spec,
        trace=session.trace,
        steps=steps,
        conflicts_resolved=session.conflicts_resolved,
        final_uncertainty=session.uncertainty(),
        final_effort=session.effort(),
        precision_remaining=precision(remaining, truth),
        recall_approved=recall(pnet.feedback.approved, truth),
        **crowd_fields,
    )


def run_scenario(fixture: NetworkFixture, spec: ScenarioSpec) -> ScenarioOutcome:
    """Execute one scenario end to end and summarise it."""
    if spec.service:
        raise ValueError(
            "service specs run a fleet, not one session; use "
            "run_service_scenario (it returns one outcome per tenant)"
        )
    if spec.oracle == "crowd":
        if spec.churn_at is not None:
            raise ValueError(
                "churn_at drives the single-expert loop; apply deltas to a "
                "crowd session directly via CrowdSession.apply_delta"
            )
        return run_crowd_scenario(fixture, spec)
    session = build_session(fixture, spec)
    if spec.churn_at is not None:
        # Run the pre-churn prefix, mutate the network mid-session, then
        # let the goal-driven loop below finish over the evolved network
        # (both run paths cap on the trace length, which already counts
        # the prefix steps).
        from .churn import make_churn_delta

        for _ in range(spec.churn_at):
            if session.step() is None:
                break
        delta = make_churn_delta(
            session.pnet.network,
            spec.churn_fraction,
            random.Random(spec.seed + 3),
        )
        session.apply_delta(delta)
    if spec.checkpoint_dir is not None:
        from ..durability.recovery import run_durable

        run_durable(
            session,
            spec.checkpoint_dir,
            checkpoint_every=spec.checkpoint_every,
            budget=spec.budget,
            effort_budget=spec.effort_budget,
            uncertainty_goal=spec.uncertainty_goal,
        )
    else:
        session.run(
            budget=spec.budget,
            effort_budget=spec.effort_budget,
            uncertainty_goal=spec.uncertainty_goal,
        )
    return _summarise(fixture, spec, session, steps=len(session.trace.steps))


def run_crowd_scenario(
    fixture: NetworkFixture, spec: ScenarioSpec
) -> ScenarioOutcome:
    """Execute one ``oracle="crowd"`` scenario end to end and summarise it.

    The goal fields map onto the crowd loop exactly as on the single-expert
    one: ``budget`` caps *questions* (assertions), ``effort_budget`` caps
    the asserted fraction of |C| (the final round is trimmed so neither is
    overshot), ``uncertainty_goal`` stops between rounds, and the monetary
    cap lives in ``crowd_budget``.  ``crowd_rounds`` additionally caps
    dispatched rounds.
    """
    session = build_crowd_session(fixture, spec)
    questions: Optional[int] = spec.budget
    if spec.effort_budget is not None:
        total = len(fixture.network.correspondences)
        effort_cap = int(spec.effort_budget * total + 1e-12)
        questions = (
            effort_cap if questions is None else min(questions, effort_cap)
        )
    if spec.checkpoint_dir is not None:
        from ..durability.recovery import run_durable

        run_durable(
            session,
            spec.checkpoint_dir,
            checkpoint_every=spec.checkpoint_every,
            rounds=spec.crowd_rounds,
            questions=questions,
            uncertainty_goal=spec.uncertainty_goal,
        )
    else:
        session.run(
            rounds=spec.crowd_rounds,
            questions=questions,
            uncertainty_goal=spec.uncertainty_goal,
        )
    return _summarise(
        fixture,
        spec,
        session,
        steps=session.trace.questions_asked,
        rounds=len(session.trace.rounds),
        answers=session.ledger.answers_charged,
        spend=session.ledger.spent,
    )


@dataclass
class ServiceScenarioResult:
    """What a service fleet produced: per-tenant outcomes + service stats."""

    outcomes: list[ScenarioOutcome]
    #: ``ReconciliationService.stats()`` at drain time — per-tenant queue
    #: and latency counters plus catalog hit counts.
    stats: dict


def tenant_specs(spec: ScenarioSpec) -> list[ScenarioSpec]:
    """The per-tenant reseeded specs of a ``service=True`` scenario.

    Tenant *i* is the base spec with ``seed + 100·i`` (the stride clears
    the ``seed..seed+3`` convention window) and service routing turned
    off — each tenant is an ordinary single-session spec the
    differential harness can also run alone.
    """
    return [
        replace(
            spec,
            service=False,
            seed=spec.seed + 100 * index,
            name=f"{spec.label}/t{index}",
            checkpoint_dir=None,
        )
        for index in range(spec.tenants)
    ]


def tenant_program(fixture: NetworkFixture, spec: ScenarioSpec) -> list[dict]:
    """The command list one tenant submits under :func:`run_service_scenario`.

    Experts step ``budget`` times (default 8); crowds run ``crowd_rounds``
    rounds (default 3).  ``churn_at`` splices an ``apply_delta`` command
    into the expert stream — the delta is built from the *base* seed's
    ``Random(seed + 3)`` over the fixture network, so every tenant of a
    fleet applies the identical delta and the catalog shares one
    recompile across all of them.
    """
    if spec.oracle == "crowd":
        rounds = spec.crowd_rounds if spec.crowd_rounds is not None else 3
        return [{"op": "round"}] * rounds
    steps = spec.budget if spec.budget is not None else 8
    program: list[dict] = [{"op": "step"} for _ in range(steps)]
    if spec.churn_at is not None:
        from .churn import make_churn_delta

        delta = make_churn_delta(
            fixture.network,
            spec.churn_fraction,
            random.Random(spec.seed + 3),
        )
        program.insert(min(spec.churn_at, steps), {"op": "apply_delta",
                                                   "delta": delta})
    return program


def run_service_scenario(
    fixture: NetworkFixture, spec: ScenarioSpec
) -> ServiceScenarioResult:
    """Multiplex ``spec.tenants`` reseeded sessions through one service.

    Every tenant runs :func:`tenant_program` concurrently over the shared
    catalog; the determinism contract makes each tenant's outcome
    bit-identical to running its spec alone, which
    ``tests/test_service_equivalence.py`` pins.  With
    ``checkpoint_dir`` each tenant journals under its own subdirectory,
    recoverable via :func:`repro.durability.recover`.
    """
    from ..service import ReconciliationService

    if not spec.service:
        raise ValueError("run_service_scenario needs a service=True spec")
    if spec.tenants < 1:
        raise ValueError("tenants must be positive")
    specs = tenant_specs(spec)
    service = ReconciliationService(
        policy=spec.service_policy,
        max_pending=spec.service_max_pending,
        admission=spec.service_admission,
    )
    # One program for the whole fleet, built from the base seed: every
    # tenant runs the same command shapes, and a churn delta is the same
    # object fleet-wide (which is what lets the catalog share its
    # recompile).
    program = tenant_program(fixture, spec)
    with service:
        sessions = {}
        programs = {}
        for tenant_spec in specs:
            name = tenant_spec.name
            if tenant_spec.oracle == "crowd":
                session = build_crowd_session(
                    fixture, tenant_spec, catalog=service.catalog
                )
            else:
                session = build_session(
                    fixture, tenant_spec, catalog=service.catalog
                )
            checkpoint_dir = (
                f"{spec.checkpoint_dir}/{name.replace('/', '_')}"
                if spec.checkpoint_dir is not None
                else None
            )
            service.add_tenant(
                name,
                session,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=spec.checkpoint_every,
            )
            sessions[name] = session
            programs[name] = program
        results = service.run_programs(programs)
        for name, outputs in results.items():
            for output in outputs:
                if isinstance(output, Exception):
                    raise output
        outcomes = []
        for tenant_spec in specs:
            session = sessions[tenant_spec.name]
            steps = (
                session.trace.questions_asked
                if tenant_spec.oracle == "crowd"
                else len(session.trace.steps)
            )
            crowd_fields = (
                {
                    "rounds": len(session.trace.rounds),
                    "answers": session.ledger.answers_charged,
                    "spend": session.ledger.spent,
                }
                if tenant_spec.oracle == "crowd"
                else {}
            )
            outcomes.append(
                _summarise(
                    fixture, tenant_spec, session, steps=steps, **crowd_fields
                )
            )
        stats = service.stats()
    return ServiceScenarioResult(outcomes=outcomes, stats=stats)


def run_matrix(
    fixture: NetworkFixture, specs: Iterable[ScenarioSpec]
) -> list[ScenarioOutcome]:
    """Run a whole scenario matrix over one fixture."""
    return [run_scenario(fixture, spec) for spec in specs]


def scenario_matrix(
    strategies: Sequence[str] = ("random", "information-gain", "likelihood"),
    oracles: Sequence[tuple[str, float]] = (("perfect", 0.0), ("noisy", 0.1)),
    seeds: Sequence[int] = (0,),
    **common,
) -> list[ScenarioSpec]:
    """The cross product the robustness suite drives: strategies × oracles
    × seeds.  Noisy scenarios default to the ``disapprove`` conflict policy
    (an imperfect expert *will* eventually contradict Γ); pass
    ``on_conflict=...`` to force one policy across the whole matrix.
    ``common`` forwards any other :class:`ScenarioSpec` field except the
    matrix axes themselves."""
    overlap = {"strategy", "oracle", "error_rate", "seed"} & common.keys()
    if overlap:
        raise TypeError(
            f"{sorted(overlap)} are matrix axes; pass them via the "
            "strategies/oracles/seeds parameters"
        )
    specs = []
    for strategy in strategies:
        for oracle, error_rate in oracles:
            for seed in seeds:
                fields = dict(common)
                fields.setdefault(
                    "on_conflict",
                    "raise" if oracle == "perfect" else "disapprove",
                )
                specs.append(
                    ScenarioSpec(
                        strategy=strategy,
                        oracle=oracle,
                        error_rate=error_rate,
                        seed=seed,
                        **fields,
                    )
                )
    return specs


def run_effort_grid(
    session: ReconciliationSession,
    efforts: Sequence[float],
    snapshot: Callable[[ReconciliationSession], T],
) -> list[T]:
    """Step a session through an effort grid, snapshotting at each point.

    This is the stepping loop Figs. 9–11 share: for each effort fraction,
    assert correspondences until ``round(effort · |C|)`` steps have been
    taken (or the session is exhausted), then record ``snapshot(session)``.
    """
    total = len(session.pnet.correspondences)
    points: list[T] = []
    steps_done = 0
    for effort in efforts:
        target = round(effort * total)
        while steps_done < target:
            if session.step() is None:
                break
            steps_done += 1
        points.append(snapshot(session))
    return points
