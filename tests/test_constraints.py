"""Unit tests for the constraint/violation engine."""

import random

import pytest

from repro.core.constraints import (
    ConstraintCompilationWarning,
    ConstraintEngine,
    CycleConstraint,
    MutualExclusionConstraint,
    OneToOneConstraint,
    Violation,
    default_constraints,
)
from repro.core.graphs import complete_graph, path_graph, ring_graph
from repro.core.schema import Schema
from repro.core.correspondence import correspondence
from repro.core.repair import greedy_maximalize_mask
from repro.experiments.harness import build_fixture


@pytest.fixture
def movie_engine(movie_network):
    return movie_network.engine


class TestViolation:
    def test_is_within(self, movie_correspondences):
        c = movie_correspondences
        violation = Violation("one-to-one", frozenset({c["c3"], c["c5"]}))
        assert violation.is_within({c["c3"], c["c5"], c["c1"]})
        assert not violation.is_within({c["c3"]})

    def test_len_and_iter(self, movie_correspondences):
        c = movie_correspondences
        violation = Violation("x", frozenset({c["c1"], c["c2"]}))
        assert len(violation) == 2
        assert set(violation) == {c["c1"], c["c2"]}


class TestOneToOne:
    def test_paper_example_violations(self, movie_network, movie_correspondences):
        c = movie_correspondences
        one_to_one = {
            v.correspondences
            for v in movie_network.engine.violations
            if v.constraint == "one-to-one"
        }
        assert frozenset({c["c3"], c["c5"]}) in one_to_one
        assert frozenset({c["c2"], c["c4"]}) in one_to_one
        assert len(one_to_one) == 2

    def test_different_schema_pairs_do_not_conflict(self):
        s1 = Schema.from_names("S1", ["a"])
        s2 = Schema.from_names("S2", ["b"])
        s3 = Schema.from_names("S3", ["c"])
        # S1.a matches both S2.b and S3.c: allowed (different pairs).
        corrs = [
            correspondence(s1.attribute("a"), s2.attribute("b")),
            correspondence(s1.attribute("a"), s3.attribute("c")),
        ]
        constraint = OneToOneConstraint()
        graph = complete_graph(["S1", "S2", "S3"])
        assert list(constraint.minimal_violations(corrs, graph)) == []

    def test_shared_endpoint_same_pair_conflicts(self):
        s1 = Schema.from_names("S1", ["a"])
        s2 = Schema.from_names("S2", ["x", "y"])
        corrs = [
            correspondence(s1.attribute("a"), s2.attribute("x")),
            correspondence(s1.attribute("a"), s2.attribute("y")),
        ]
        constraint = OneToOneConstraint()
        graph = complete_graph(["S1", "S2"])
        violations = list(constraint.minimal_violations(corrs, graph))
        assert len(violations) == 1
        assert violations[0].correspondences == frozenset(corrs)

    def test_is_satisfied_by(self, movie_network, movie_correspondences):
        c = movie_correspondences
        constraint = OneToOneConstraint()
        graph = movie_network.graph
        assert constraint.is_satisfied_by([c["c1"], c["c2"], c["c3"]], graph)
        assert not constraint.is_satisfied_by([c["c3"], c["c5"]], graph)


class TestCycle:
    def test_paper_example_violations(self, movie_network, movie_correspondences):
        c = movie_correspondences
        cycle = {
            v.correspondences
            for v in movie_network.engine.violations
            if v.constraint == "cycle"
        }
        assert frozenset({c["c1"], c["c2"], c["c5"]}) in cycle
        assert frozenset({c["c1"], c["c3"], c["c4"]}) in cycle
        assert len(cycle) == 2

    def test_closed_cycle_is_consistent(self, movie_correspondences, movie_network):
        c = movie_correspondences
        constraint = CycleConstraint()
        assert constraint.is_satisfied_by(
            [c["c1"], c["c2"], c["c3"]], movie_network.graph
        )
        assert constraint.is_satisfied_by(
            [c["c1"], c["c4"], c["c5"]], movie_network.graph
        )

    def test_open_path_is_consistent(self, movie_correspondences, movie_network):
        # A chain without a contradicting closing correspondence is allowed.
        c = movie_correspondences
        constraint = CycleConstraint()
        assert constraint.is_satisfied_by([c["c1"], c["c5"]], movie_network.graph)

    def test_unrelated_triple_is_consistent(self, movie_correspondences, movie_network):
        # Chain a→b→c plus a closing correspondence that touches neither
        # chain end cannot contradict the composition.
        c = movie_correspondences
        constraint = CycleConstraint()
        assert constraint.is_satisfied_by([c["c2"], c["c5"]], movie_network.graph)

    def test_no_cycle_constraint_on_acyclic_graph(self, movie_schemas, movie_correspondences):
        c = movie_correspondences
        constraint = CycleConstraint()
        graph = path_graph(["SA", "SB", "SC"])
        corrs = [c["c1"], c["c3"], c["c5"]]
        assert list(constraint.minimal_violations(corrs, graph)) == []

    def test_rejects_short_max_length(self):
        with pytest.raises(ValueError, match=">= 3"):
            CycleConstraint(max_cycle_length=2)

    @pytest.mark.parametrize("length", [3.7, 4.0, "4", None, True])
    def test_rejects_non_int_max_length(self, length):
        # A bound such as 3.7 would let 4-cycles through a length test.
        with pytest.raises(TypeError, match="must be an int"):
            CycleConstraint(max_cycle_length=length)

    def test_violations_invariant_under_schema_renaming(self):
        """Regression: the chain enumeration must try every cycle rotation.

        Schema names determine the canonical cycle direction/rotation; the
        compiled violation structure must not depend on them.
        """
        from repro.core import MatchingNetwork, correspondence, enumerate_instances

        def build(names):
            s1 = Schema.from_names(names[0], ["productionDate"])
            s2 = Schema.from_names(names[1], ["date"])
            s3 = Schema.from_names(names[2], ["releaseDate", "screenDate"])
            production = s1.attribute("productionDate")
            date = s2.attribute("date")
            release = s3.attribute("releaseDate")
            screen = s3.attribute("screenDate")
            corrs = [
                correspondence(production, date),
                correspondence(production, release),
                correspondence(date, release),
                correspondence(production, screen),
                correspondence(date, screen),
            ]
            return MatchingNetwork([s1, s2, s3], corrs)

        shapes = set()
        for names in (("SA", "SB", "SC"), ("EoverI", "BBC", "DVDizzy"), ("Z", "A", "M")):
            network = build(names)
            instances = enumerate_instances(network)
            shapes.add(
                (
                    network.violation_count(),
                    tuple(sorted(len(i) for i in instances)),
                )
            )
        assert shapes == {(4, (2, 2, 3, 3))}

    def test_length_four_cycle_violation(self):
        schemas = [Schema.from_names(f"S{i}", ["a", "b"]) for i in range(4)]
        graph = ring_graph([s.name for s in schemas])
        # Chain S0.a→S1.a→S2.a→S3.a plus closing S0.b→S3.a contradiction?
        chain = [
            correspondence(schemas[0].attribute("a"), schemas[1].attribute("a")),
            correspondence(schemas[1].attribute("a"), schemas[2].attribute("a")),
            correspondence(schemas[2].attribute("a"), schemas[3].attribute("a")),
        ]
        closing_bad = correspondence(
            schemas[0].attribute("a"), schemas[3].attribute("b")
        )
        closing_good = correspondence(
            schemas[0].attribute("a"), schemas[3].attribute("a")
        )
        constraint = CycleConstraint(max_cycle_length=4)
        violations = list(
            constraint.minimal_violations(chain + [closing_bad], graph)
        )
        assert len(violations) == 1
        assert violations[0].correspondences == frozenset(chain + [closing_bad])
        assert constraint.is_satisfied_by(chain + [closing_good], graph)


class TestConstraintEngine:
    def test_deduplicates_violations(self, movie_network):
        engine = movie_network.engine
        seen = [v.correspondences for v in engine.violations]
        assert len(seen) == len(set(seen))

    def test_violations_involving(self, movie_engine, movie_correspondences):
        c = movie_correspondences
        involving_c3 = movie_engine.violations_involving(c["c3"])
        assert all(c["c3"] in v.correspondences for v in involving_c3)
        assert len(involving_c3) == 2  # {c3,c5} and {c1,c3,c4}

    def test_violations_involving_unknown_is_empty(self, movie_engine):
        # craft a genuinely unknown correspondence via fresh schemas
        s_x = Schema.from_names("SX", ["q"])
        s_y = Schema.from_names("SY", ["r"])
        unknown = correspondence(s_x.attribute("q"), s_y.attribute("r"))
        assert movie_engine.violations_involving(unknown) == ()

    def test_is_consistent(self, movie_engine, movie_correspondences):
        c = movie_correspondences
        assert movie_engine.is_consistent({c["c1"], c["c2"], c["c3"]})
        assert not movie_engine.is_consistent({c["c3"], c["c5"]})
        assert not movie_engine.is_consistent({c["c1"], c["c2"], c["c5"]})

    def test_empty_set_is_consistent(self, movie_engine):
        assert movie_engine.is_consistent(frozenset())

    def test_violations_within(self, movie_engine, movie_correspondences):
        c = movie_correspondences
        inside = movie_engine.violations_within({c["c3"], c["c5"], c["c1"]})
        assert {v.correspondences for v in inside} == {
            frozenset({c["c3"], c["c5"]})
        }

    def test_conflicts_created(self, movie_engine, movie_correspondences):
        c = movie_correspondences
        created = movie_engine.conflicts_created({c["c3"]}, c["c5"])
        assert len(created) == 1
        created_none = movie_engine.conflicts_created({c["c1"]}, c["c2"])
        assert created_none == []

    def test_can_add(self, movie_engine, movie_correspondences):
        c = movie_correspondences
        assert movie_engine.can_add({c["c1"], c["c2"]}, c["c3"])
        assert not movie_engine.can_add({c["c3"]}, c["c5"])

    def test_is_maximal(self, movie_engine, movie_correspondences):
        c = movie_correspondences
        assert movie_engine.is_maximal({c["c1"], c["c2"], c["c3"]})
        assert not movie_engine.is_maximal({c["c1"]})

    def test_is_maximal_with_exclusions(self, movie_engine, movie_correspondences):
        c = movie_correspondences
        # {c2, c5} is maximal; excluding nothing it still is.
        assert movie_engine.is_maximal({c["c2"], c["c5"]})
        # {c2} alone is not maximal, but becomes maximal if everything
        # addable is excluded.
        assert not movie_engine.is_maximal({c["c2"]})
        assert movie_engine.is_maximal(
            {c["c2"]}, excluded={c["c1"], c["c3"], c["c4"], c["c5"]}
        )

    def test_violation_counts(self, movie_engine, movie_correspondences):
        c = movie_correspondences
        counts = movie_engine.violation_counts({c["c3"], c["c5"], c["c2"], c["c4"]})
        assert counts[c["c3"]] == 1
        assert counts[c["c5"]] == 1
        assert counts[c["c2"]] == 1
        assert counts[c["c4"]] == 1

    def test_default_constraints(self):
        constraints = default_constraints()
        names = {type(c).__name__ for c in constraints}
        assert names == {"OneToOneConstraint", "CycleConstraint"}

    def test_engine_repr(self, movie_engine):
        assert "5 correspondences" in repr(movie_engine)
        assert "4 minimal violations" in repr(movie_engine)


class TestActiveViolationProbe:
    """``mask_active_violations`` against a brute-force scan of every
    compiled violation, on conflict-dense real-corpus networks (up to 42
    size-3 violations per index)."""

    @pytest.mark.parametrize(
        "corpus, scale", [("BP", 1.0), ("WebForm", 0.2)]
    )
    def test_matches_brute_force_scan(self, corpus, scale):
        engine = build_fixture(
            corpus_name=corpus, scale=scale, seed=3, pipeline="coma_like"
        ).network.engine
        assert max(len(masks) for masks in engine._large_vmasks) >= 9
        rng = random.Random(17)
        probes = hits = 0
        for _ in range(8):
            # Maximal instances and random subsets of them: all consistent.
            maximal = greedy_maximalize_mask(engine, 0, engine.full_mask, rng=rng)
            subset = sum(
                engine.bits[i] for i in range(engine.n)
                if maximal >> i & 1 and rng.random() < 0.7
            )
            assert engine.mask_is_consistent(subset)
            for mask in (maximal, subset):
                for index in range(engine.n):
                    bit = engine.bits[index]
                    grown = mask | bit
                    active = [
                        vmask for vmask in engine.violation_masks
                        if vmask & bit and vmask & grown == vmask
                    ]
                    pairs = sorted(
                        (v for v in active if v.bit_count() == 2),
                        key=lambda vmask: vmask ^ bit,
                    )
                    large = [v for v in active if v.bit_count() != 2]
                    expected = pairs + large
                    assert engine.mask_active_violations(grown, index) == expected
                    probes += 1
                    hits += len(expected) > 1
        assert probes and hits


class TestCompileValidation:
    """Declaration-time validation in ConstraintEngine.__init__."""

    def make_engine(self, movie_network, movie_correspondences, constraints,
                    validate=True):
        return ConstraintEngine(
            constraints,
            tuple(movie_correspondences.values()),
            movie_network.graph,
            validate=validate,
        )

    def test_duplicate_registration_warns(
        self, movie_network, movie_correspondences
    ):
        c = movie_correspondences
        duplicated = [
            MutualExclusionConstraint([{c["c2"], c["c4"]}]),
            MutualExclusionConstraint([{c["c2"], c["c4"]}]),
        ]
        with pytest.warns(
            ConstraintCompilationWarning, match="more than one constraint"
        ):
            engine = self.make_engine(
                movie_network, movie_correspondences, duplicated
            )
        # duplicates compile once, but every contribution is recorded
        assert len(engine.violations) == 1
        assert engine.violation_sources == ((0, 1),)

    def test_same_constraint_duplicate_exclusion_warns(
        self, movie_network, movie_correspondences
    ):
        c = movie_correspondences
        constraint = MutualExclusionConstraint(
            [{c["c2"], c["c4"]}, {c["c4"], c["c2"]}]
        )
        with pytest.warns(ConstraintCompilationWarning, match="registered"):
            engine = self.make_engine(
                movie_network, movie_correspondences, [constraint]
            )
        assert len(engine.violations) == 1

    def test_unknown_reference_warns(
        self, movie_network, movie_correspondences, movie_schemas
    ):
        sa, sb, _ = movie_schemas
        ghost = correspondence(
            sa.attribute("productionDate"), sb.attribute("date")
        )
        c = movie_correspondences
        constraint = MutualExclusionConstraint([{c["c2"], c["c4"]}, {ghost, c["c3"]}])
        universe = [c["c2"], c["c3"], c["c4"]]
        with pytest.warns(ConstraintCompilationWarning, match="outside the"):
            ConstraintEngine([constraint], universe, movie_network.graph)

    def test_validation_opt_out_is_silent(
        self, movie_network, movie_correspondences
    ):
        import warnings

        c = movie_correspondences
        duplicated = [
            MutualExclusionConstraint([{c["c2"], c["c4"]}]),
            MutualExclusionConstraint([{c["c2"], c["c4"]}]),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = self.make_engine(
                movie_network, movie_correspondences, duplicated, validate=False
            )
        assert len(engine.violations) == 1

    def test_clean_compile_records_single_sources(self, movie_engine):
        assert all(
            len(sources) == 1 for sources in movie_engine.violation_sources
        )

    def test_violation_masks_involving(self, movie_engine):
        for index in range(movie_engine.n):
            masks = movie_engine.violation_masks_involving(index)
            expected = [
                vmask
                for vmask in movie_engine.violation_masks
                if vmask & movie_engine.bits[index]
            ]
            assert sorted(masks) == sorted(expected)
