"""Finite-model evaluation: extensions, assertions, formulas, serialization."""

import random
from itertools import islice

import pytest

from kedl import (
    Atom,
    Equivalence,
    Exists,
    Forall,
    Inclusion,
    Interpretation,
    Not,
    Or,
    RoleKind,
    Signature,
    Sort,
    Top,
    extension,
    interpretation_from_text,
    interpretation_to_text,
    satisfies_assertion,
    satisfies_formula,
    validate_interpretation,
)
from kedl.kb import ConceptAssertion, RoleAssertion
from kedl.oracle import Bounds, enumerate_interpretations
from kedl.semantics import FormulaReading, FunctionalityMode, ModelFormatError
from kedl.syntax import And, Iff, Implies, desugar, to_nnf

from generators import P, Q, R, R_INV, diff_signature, gen_concept, gen_nnf


def hand_model() -> Interpretation:
    """One tunnel with a length: delta={x1}, sigma={u1,u2}."""
    sig = Signature()
    sig.declare_atom("Tunnel", Sort.OBJECT)
    sig.declare_atom("Length", Sort.ATTRIBUTE)
    sig.declare_role("has-length", RoleKind.CROSS)
    sig.declare_individual("tunnel1", Sort.OBJECT)
    sig.declare_individual("len1", Sort.ATTRIBUTE)
    return Interpretation(
        sig=sig,
        n_delta=1,
        n_sigma=2,
        concept_ext={"Tunnel": 0b1, "Length": 0b10},
        role_ext={"has-length": (0b10,)},  # x1 -> u2
        ind_map={"tunnel1": 0, "len1": 1},
    )


class TestValidation:
    def test_hand_model_is_valid(self):
        assert validate_interpretation(hand_model()) == []

    def test_functionality_breach_detected(self):
        i = hand_model()
        i.role_ext["has-length"] = (0b11,)
        problems = validate_interpretation(i)
        assert any("has-length" in p and "x1" in p for p in problems)

    def test_empty_object_domain_detected(self):
        i = hand_model()
        i.n_delta = 0
        i.concept_ext["Tunnel"] = 0
        i.role_ext["has-length"] = ()
        i.ind_map["tunnel1"] = 0
        assert any("non-empty" in p for p in validate_interpretation(i))

    def test_exactly_one_requires_totality(self):
        i = hand_model()
        i.mode = FunctionalityMode.EXACTLY_ONE
        assert validate_interpretation(i) == []
        i.role_ext["has-length"] = (0,)
        assert any("no successor" in p for p in validate_interpretation(i))

    def test_free_mode_drops_functionality(self):
        i = hand_model()
        i.mode = FunctionalityMode.FREE
        i.role_ext["has-length"] = (0b11,)
        assert validate_interpretation(i) == []

    def test_one_row_per_source_element(self):
        i = hand_model()
        i.role_ext["has-length"] = (0b10, 0b01)
        assert validate_interpretation(i) == ["role has-length has a row for x2 outside its domain"]
        i.role_ext["has-length"] = ()
        assert validate_interpretation(i) == ["role has-length has no row for x1"]

    def test_row_bit_past_the_target_domain(self):
        i = hand_model()
        i.role_ext["has-length"] = (0b100,)
        assert validate_interpretation(i) == ["role has-length pair (x1,u3) leaves its signature"]

    def test_two_successors_on_a_later_cross_row(self):
        i = hand_model()
        i.n_delta = 2
        i.role_ext["has-length"] = (0b10, 0b11)
        assert validate_interpretation(i) == ["cross role has-length has 2 successors at x2"]

    def test_exactly_one_needs_a_successor_on_every_row(self):
        i = hand_model()
        i.n_delta = 2
        i.mode = FunctionalityMode.EXACTLY_ONE
        i.role_ext["has-length"] = (0b10, 0)
        assert validate_interpretation(i) == ["cross role has-length has no successor at x2"]


class TestExtension:
    def test_top_is_the_domain(self):
        i = hand_model()
        assert extension(Top(), i, Sort.OBJECT) == 0b1
        assert extension(Top(), i, Sort.ATTRIBUTE) == 0b11

    def test_contradiction_is_empty(self):
        i = hand_model()
        expr = And(Atom("Tunnel"), Not(Atom("Tunnel")))
        assert extension(expr, i) == 0

    def test_cross_existential(self):
        i = hand_model()
        role = i.sig.role("has-length")
        assert extension(Exists(role, Atom("Length")), i) == 0b1

    def test_inverse_extension_is_derived(self):
        i = hand_model()
        inv = i.sig.role("has-length", inverted=True)
        # u2 is x1's successor; u1 is no element's
        assert extension(Exists(inv, Atom("Tunnel")), i) == 0b10
        assert extension(Forall(inv, Not(Atom("Tunnel"))), i) == 0b01

    def test_arrows_are_read_as_conditionals(self):
        # hand-computed masks: the evaluator reads an arrow through the
        # store's desugaring, which these pin against the semantics
        sig = Signature()
        sig.declare_atom("C", Sort.OBJECT)
        sig.declare_atom("D", Sort.OBJECT)
        i = Interpretation(sig=sig, n_delta=3, n_sigma=1, concept_ext={"C": 0b011, "D": 0b110})
        c, d = Atom("C"), Atom("D")
        assert extension(Implies(c, d), i) == 0b110
        assert extension(Implies(d, c), i) == 0b011
        assert extension(Iff(c, d), i) == 0b010
        assert extension(Not(Iff(d, c)), i) == 0b101

    def test_unknown_node_raises(self):
        # the evaluator's store interns a node by its exact type: an unknown
        # one, also inside a known one, is an error and never a silent mask
        from kedl import KedlError
        from kedl.syntax import ConceptExpr

        class Unknown(ConceptExpr):
            pass

        i = hand_model()
        for expr in (Unknown(), And(Atom("Tunnel"), Unknown()), Not(Unknown())):
            with pytest.raises(KedlError, match="unknown concept node"):
                extension(expr, i, Sort.OBJECT)
        with pytest.raises(KedlError, match="no extension stored for atom Ghost"):
            extension(Atom("Ghost"), i, Sort.OBJECT)

    def test_extension_stays_in_domain(self):
        sig = diff_signature()
        rng = random.Random(3)
        interps = list(islice(
            (i for i in enumerate_interpretations(sig, Bounds(2, 2)) if i.n_delta == 2), 40))
        for _ in range(60):
            sort = rng.choice([Sort.OBJECT, Sort.ATTRIBUTE])
            e = gen_concept(rng, sort, 3)
            for i in interps:
                assert extension(e, i, sort) & ~i.domain(sort) == 0

    def test_forall_exists_duality(self):
        # all R.C == domain minus some R.(not C), for every role family
        sig = diff_signature()
        rng = random.Random(9)
        interps = list(enumerate_interpretations(sig, Bounds(1, 2)))
        sample = random.Random(1).sample(interps, 60)
        for role in (P, Q, R, R_INV):
            for i in sample:
                body = gen_nnf(rng, role.target_sort, 1)
                dom = i.domain(role.source_sort)
                lhs = extension(Forall(role, body), i, role.source_sort)
                rhs = dom & ~extension(Exists(role, Not(body)), i, role.source_sort)
                assert lhs == rhs

    def test_exists_is_monotone(self):
        sig = diff_signature()
        rng = random.Random(17)
        interps = list(islice(enumerate_interpretations(sig, Bounds(2, 2)), 0, 20000, 401))
        for _ in range(20):
            role = rng.choice([P, Q, R, R_INV])
            a = gen_nnf(rng, role.target_sort, 1)
            b = gen_nnf(rng, role.target_sort, 1)
            for i in interps:
                assert extension(Exists(role, a), i, role.source_sort) & ~extension(
                    Exists(role, Or(a, b)), i, role.source_sort
                ) == 0


class TestAssertions:
    def test_concept_assertion(self):
        i = hand_model()
        assert satisfies_assertion(i, ConceptAssertion(Atom("Tunnel"), "tunnel1"))
        assert not satisfies_assertion(i, ConceptAssertion(Atom("Length"), "len1")) is False

    def test_role_assertion(self):
        i = hand_model()
        role = i.sig.role("has-length")
        assert satisfies_assertion(i, RoleAssertion(role, "tunnel1", "len1"))

    def test_role_assertion_false_when_pair_missing(self):
        i = hand_model()
        i.role_ext["has-length"] = (0,)
        role = i.sig.role("has-length")
        assert not satisfies_assertion(i, RoleAssertion(role, "tunnel1", "len1"))


class TestFormulaReadings:
    def test_everything_included_in_top(self):
        sig = diff_signature()
        f = Inclusion(Atom("C1"), Top())
        for i in list(enumerate_interpretations(sig, Bounds(2, 1)))[:200]:
            assert satisfies_formula(i, f, FormulaReading.UNIVERSAL)

    def test_existential_reading_has_vacuous_witness(self):
        # any element outside the left side satisfies the conditional
        sig = diff_signature()
        f = Inclusion(Atom("C1"), Atom("C2"))
        for i in enumerate_interpretations(sig, Bounds(2, 1)):
            outside = i.domain(Sort.OBJECT) & ~i.concept_ext["C1"]
            if outside:
                assert satisfies_formula(i, f, FormulaReading.LITERAL_EXISTENTIAL)

    def test_idempotence_equivalence_everywhere(self):
        sig = diff_signature()
        f = Equivalence(And(Atom("C1"), Atom("C1")), Atom("C1"))
        for i in enumerate_interpretations(sig, Bounds(2, 1)):
            assert satisfies_formula(i, f, FormulaReading.UNIVERSAL)

    def test_readings_differ_on_failed_inclusion(self):
        sig = Signature()
        sig.declare_atom("C", Sort.OBJECT)
        sig.declare_atom("D", Sort.OBJECT)
        i = Interpretation(
            sig=sig, n_delta=2, n_sigma=1,
            concept_ext={"C": 0b1, "D": 0},
            role_ext={}, ind_map={},
        )
        f = Inclusion(Atom("C"), Atom("D"))
        assert not satisfies_formula(i, f, FormulaReading.UNIVERSAL)
        assert satisfies_formula(i, f, FormulaReading.LITERAL_EXISTENTIAL)

    def test_nnf_equivalence_formula_holds(self):
        sig = diff_signature()
        rng = random.Random(31)
        interps = list(islice(enumerate_interpretations(sig, Bounds(2, 2)), 0, 18000, 601))
        for _ in range(25):
            sort = rng.choice([Sort.OBJECT, Sort.ATTRIBUTE])
            e = gen_concept(rng, sort, 3)
            f = Equivalence(e, to_nnf(desugar(e)), sort)
            for i in interps:
                assert satisfies_formula(i, f, FormulaReading.UNIVERSAL)


class TestSerialization:
    def test_exact_format(self):
        text = interpretation_to_text(hand_model())
        assert text == (
            "delta: x1;\n"
            "sigma: u1 u2;\n"
            "Tunnel = {x1};\n"
            "Length = {u2};\n"
            "has-length = {(x1,u2)};\n"
            "ind len1 = u2;\n"
            "ind tunnel1 = x1;\n"
        )

    def test_roundtrip(self):
        i = hand_model()
        back = interpretation_from_text(interpretation_to_text(i), i.sig)
        assert back == i

    def test_roundtrip_random(self):
        sig = diff_signature()
        sample = list(islice(enumerate_interpretations(sig, Bounds(2, 2)), 0, 16000, 401))
        for i in sample:
            assert interpretation_from_text(interpretation_to_text(i), sig) == i

    @pytest.mark.parametrize("old,new,element", [
        ("Tunnel = {x1}", "Tunnel = {x3}", "x3"),
        ("Length = {u2}", "Length = {u2, u3}", "u3"),
        ("(x1,u2)", "(x5,u1)", "x5"),
        ("(x1,u2)", "(x1,u9)", "u9"),
        ("ind tunnel1 = x1", "ind tunnel1 = x0", "x0"),
    ])
    def test_elements_outside_the_declared_domains_are_rejected(self, old, new, element):
        i = hand_model()
        text = interpretation_to_text(i)
        assert old in text
        with pytest.raises(ModelFormatError, match=f"element {element} is outside"):
            interpretation_from_text(text.replace(old, new), i.sig)

    @pytest.mark.parametrize("old,new,message", [
        ("(x1,u2)", "(x1,u2", "expected '\\)'"),  # an unclosed pair
        ("Tunnel = {x1}", "Tunnel = {x¹}", "bad element name"),  # a digit that int() rejects
    ])
    def test_malformed_elements_are_format_errors(self, old, new, message):
        i = hand_model()
        text = interpretation_to_text(i)
        assert old in text
        with pytest.raises(ModelFormatError, match=message):
            interpretation_from_text(text.replace(old, new), i.sig)
