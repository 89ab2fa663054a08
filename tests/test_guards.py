"""Tests for the proposition alphabet, guard parser and evaluator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitrm.guards import (
    ALL_LABEL_SETS,
    And,
    EMPTY_LABEL_SET,
    GuardSyntaxError,
    LabelSet,
    Lit,
    MAX_GUARD_DEPTH,
    Not,
    Or,
    Prop,
    UnknownPropositionError,
    conjunction_for,
    eval_guard,
    parse_guard,
    render_guard,
    satisfying_sets,
    semantically_equal,
    truth_table,
)
from helpers import nested_guard, random_guard

TROT_POSE_A = "FL & !FR & !BL & BR"


def guard_strategy():
    return st.recursive(
        st.sampled_from([Lit(p) for p in Prop]),
        lambda children: st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda ab: And(*ab)),
            st.tuples(children, children).map(lambda ab: Or(*ab)),
        ),
        max_leaves=32,
    )


class TestLabelSet:
    def test_sixteen_distinct_values(self):
        assert len(ALL_LABEL_SETS) == 16
        assert len({l.code for l in ALL_LABEL_SETS}) == 16

    def test_structural_equality(self):
        assert LabelSet.of(Prop.FL, Prop.BR) == LabelSet.from_code(9)
        assert LabelSet.of(Prop.FL) != LabelSet.of(Prop.FR)

    def test_membership_and_bits(self):
        labels = LabelSet.of(Prop.FL, Prop.BR)
        assert Prop.FL in labels and Prop.BR in labels
        assert Prop.FR not in labels and Prop.BL not in labels
        assert labels.bits() == (1, 0, 0, 1)
        assert labels.code == 9
        assert len(labels) == 2
        for code in range(16):
            assert LabelSet.from_code(code).bits() == tuple(code >> i & 1 for i in range(4))

    def test_out_of_range_code_rejected(self):
        with pytest.raises(ValueError):
            LabelSet(16)
        with pytest.raises(ValueError):
            LabelSet(-1)


class TestParser:
    def test_trot_pose_guard_is_conjunction_chain(self):
        guard = parse_guard(TROT_POSE_A)
        # Left-associative chain of four literals/negated literals.
        assert guard == And(
            And(And(Lit(Prop.FL), Not(Lit(Prop.FR))), Not(Lit(Prop.BL))),
            Lit(Prop.BR),
        )

    def test_single_literal(self):
        assert parse_guard("FL") == Lit(Prop.FL)

    def test_double_operator_is_syntax_error_with_position(self):
        with pytest.raises(GuardSyntaxError) as exc_info:
            parse_guard("FL & & BR")
        assert exc_info.value.position == 5

    def test_unknown_identifier(self):
        with pytest.raises(UnknownPropositionError) as exc_info:
            parse_guard("FL & XX")
        assert exc_info.value.position == 5
        assert "XX" in str(exc_info.value)

    def test_empty_input(self):
        with pytest.raises(GuardSyntaxError):
            parse_guard("   ")

    def test_trailing_garbage(self):
        with pytest.raises(GuardSyntaxError):
            parse_guard("FL FR")

    def test_unbalanced_paren(self):
        with pytest.raises(GuardSyntaxError):
            parse_guard("(FL & BR")

    def test_precedence_not_over_and_over_or(self):
        guard = parse_guard("!FL & FR | BL")
        assert guard == Or(And(Not(Lit(Prop.FL)), Lit(Prop.FR)), Lit(Prop.BL))

    def test_parentheses_override(self):
        guard = parse_guard("!(FL & FR)")
        assert guard == Not(And(Lit(Prop.FL), Lit(Prop.FR)))

    def test_whitespace_insignificant(self):
        dense = parse_guard("FL&!FR&!BL&BR")
        spaced = parse_guard("  FL  &  ! FR & !BL &BR ")
        assert truth_table(dense) == truth_table(spaced)

    @pytest.mark.parametrize("shape", ["!", "()", "&", "|"])
    def test_guard_at_depth_limit_parses_evaluates_renders_and_hashes(self, shape):
        guard = parse_guard(nested_guard(shape, MAX_GUARD_DEPTH))
        nots = (MAX_GUARD_DEPTH - 1) % 2 if shape == "!" else 0
        assert truth_table(guard) == truth_table(parse_guard("!" * nots + "FL"))
        assert parse_guard(render_guard(guard)) == guard
        hash(guard)

    @pytest.mark.parametrize("shape", ["!", "()", "&", "|"])
    @pytest.mark.parametrize("depth", [MAX_GUARD_DEPTH + 1, 3_000])
    def test_guard_beyond_depth_limit_is_syntax_error(self, shape, depth):
        with pytest.raises(GuardSyntaxError, match=f"deeper than {MAX_GUARD_DEPTH}"):
            parse_guard(nested_guard(shape, depth))

    def test_depth_counts_every_level(self):
        inner = nested_guard("&", MAX_GUARD_DEPTH - 2)
        parse_guard(f"!({inner})")
        with pytest.raises(GuardSyntaxError, match="deeper than"):
            parse_guard(f"!!({inner})")
        with pytest.raises(GuardSyntaxError, match="deeper than"):
            parse_guard(f"!(({inner}))")
        with pytest.raises(GuardSyntaxError, match="deeper than"):
            parse_guard(f"!({inner}) | FL")


class TestEval:
    def test_trot_pose_true_on_exact_pose(self):
        guard = parse_guard(TROT_POSE_A)
        assert eval_guard(guard, LabelSet.of(Prop.FL, Prop.BR)) is True

    def test_extra_foot_violates_negation(self):
        guard = parse_guard(TROT_POSE_A)
        assert eval_guard(guard, LabelSet.of(Prop.FL, Prop.FR, Prop.BR)) is False

    def test_negated_pose_on_empty(self):
        guard = Not(parse_guard(TROT_POSE_A))
        assert eval_guard(guard, EMPTY_LABEL_SET) is True


class TestRender:
    def test_literal(self):
        assert render_guard(Lit(Prop.FL)) == "FL"

    def test_negated_conjunction_keeps_parens(self):
        assert render_guard(Not(And(Lit(Prop.FL), Lit(Prop.BR)))) == "!(FL & BR)"

    def test_trot_pose_round_trips_to_same_text(self):
        assert render_guard(parse_guard(TROT_POSE_A)) == TROT_POSE_A


class TestSatisfyingSets:
    def test_trot_pose_unique_satisfier(self):
        guard = parse_guard(TROT_POSE_A)
        assert satisfying_sets(guard) == frozenset({LabelSet.of(Prop.FL, Prop.BR)})

    def test_tautology(self):
        assert satisfying_sets(parse_guard("FL | !FL")) == frozenset(ALL_LABEL_SETS)

    def test_contradiction(self):
        assert satisfying_sets(parse_guard("FL & !FL")) == frozenset()

    def test_conjunction_for_pose(self):
        pose = LabelSet.of(Prop.FR, Prop.BL)
        assert satisfying_sets(conjunction_for(pose)) == frozenset({pose})


@given(guard=guard_strategy())
@settings(max_examples=300)
def test_eval_matches_satisfying_sets(guard):
    sat = satisfying_sets(guard)
    for labels in ALL_LABEL_SETS:
        assert eval_guard(guard, labels) == (labels in sat)


@given(guard=guard_strategy())
@settings(max_examples=500)
def test_parse_render_round_trip(guard):
    assert semantically_equal(parse_guard(render_guard(guard)), guard)


@given(a=guard_strategy(), b=guard_strategy())
@settings(max_examples=200)
def test_de_morgan(a, b):
    left = Not(And(a, b))
    right = Or(Not(a), Not(b))
    assert truth_table(left) == truth_table(right)


def test_round_trip_seeded_sample():
    rng = random.Random(20240817)
    for _ in range(500):
        guard = random_guard(rng, depth=6)
        assert semantically_equal(parse_guard(render_guard(guard)), guard)
