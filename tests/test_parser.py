"""Surface grammar: concepts, knowledge-base files, and inference mode."""

import itertools
import random
import re

import pytest

from kedl import (
    And,
    Atom,
    Exists,
    Implies,
    Not,
    Or,
    RoleKind,
    Signature,
    Sort,
    SortError,
    Top,
    parse_concept,
    parse_concept_with_inference,
    parse_kb,
)
from kedl import kb as kb_module
from kedl.kb import ConceptAssertion, KnowledgeBase, KnowledgeBaseError, RoleAssertion
from kedl.parser import ParseError, parse_signature
from kedl.syntax import RoleName

from generators import diff_signature


@pytest.fixture
def sig():
    return diff_signature()


class TestConceptGrammar:
    def test_keywords(self, sig):
        assert parse_concept("top", sig) == Top()

    def test_precedence_not_and_or(self, sig):
        expr = parse_concept("not C1 and C2 or C1", sig)
        assert expr == Or(And(Not(Atom("C1")), Atom("C2")), Atom("C1"))

    def test_quantifier_binds_tightest(self, sig):
        expr = parse_concept("some p C1 and C2", sig)
        assert expr == And(Exists(RoleName("p", RoleKind.OBJ_OBJ), Atom("C1")), Atom("C2"))

    def test_arrow_lowest_right_assoc(self, sig):
        expr = parse_concept("C1 => C2 => C1", sig)
        assert expr == Implies(Atom("C1"), Implies(Atom("C2"), Atom("C1")))

    def test_inverse_roleref(self, sig):
        expr = parse_concept("some inv(r) C1", sig)
        assert expr == Exists(RoleName("r", RoleKind.CROSS_INVERSE), Atom("C1"))

    def test_unicode_aliases(self, sig):
        assert parse_concept("¬C1 ⊓ C2", sig) == parse_concept("not C1 and C2", sig)
        assert parse_concept("∃r A1", sig) == parse_concept("some r A1", sig)
        assert parse_concept("C1 → C2", sig) == parse_concept("C1 => C2", sig)

    def test_syntax_error_carries_position(self, sig):
        with pytest.raises(ParseError) as err:
            parse_concept("C1 and and C2", sig)
        assert err.value.line == 1

    def test_sort_error_through_parse(self, sig):
        with pytest.raises(SortError):
            parse_concept("C1 and A1", sig)

    def test_undeclared_role(self, sig):
        with pytest.raises(SortError):
            parse_concept("some nope C1", sig)

    def test_trailing_garbage(self, sig):
        with pytest.raises(ParseError):
            parse_concept("C1 C2", sig)


class TestInferenceMode:
    def test_bare_atoms_default_to_object(self):
        expr, sig = parse_concept_with_inference("C and not C")
        assert sig.object_atoms == {"C"}
        assert check_roundtrip(expr, sig)

    def test_quantified_unknowns_default_to_cross(self):
        expr, sig = parse_concept_with_inference("some has-r A")
        assert sig.roles["has-r"] is RoleKind.CROSS
        assert sig.attribute_atoms == {"A"}

    def test_undecided_operand_defaults_to_cross(self):
        _, sig = parse_concept_with_inference("some p (C and not C)")
        assert sig.roles["p"] is RoleKind.CROSS

    def test_known_object_operand_forces_object_role(self):
        # the inner quantifier resolves to an object-sorted concept, which
        # pins the outer role to the object family
        _, sig = parse_concept_with_inference("some p (some q A)")
        assert sig.roles["p"] is RoleKind.OBJ_OBJ
        assert sig.roles["q"] is RoleKind.CROSS

    def test_inverse_forces_cross(self):
        _, sig = parse_concept_with_inference("some inv(r) C")
        assert sig.roles["r"] is RoleKind.CROSS
        assert sig.object_atoms == {"C"}


def bare_concept(rng, depth):
    """A random concept over atoms C, D, E and roles p, q, r."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["C", "D", "E", "top"])
    k = rng.random()
    if k < 0.15:
        return f"not {bare_concept(rng, depth - 1)}"
    if k < 0.55:
        op = rng.choice(["and", "or", "=>"])
        return f"({bare_concept(rng, depth - 1)} {op} {bare_concept(rng, depth - 1)})"
    role = rng.choice("pqr")
    if rng.random() < 0.2:
        role = f"inv({role})"
    return f"{rng.choice(['some', 'all'])} {role} {bare_concept(rng, depth - 1)}"


def sorts_somehow(text):
    """Whether some declaration of the concept's roles and atoms sort-checks it."""
    roles = sorted(set(re.findall(r"\b[pqr]\b", text)))
    atoms = sorted(set(re.findall(r"\b[CDE]\b", text)))
    kinds = (RoleKind.OBJ_OBJ, RoleKind.ATTR_ATTR, RoleKind.CROSS)
    for role_kinds in itertools.product(kinds, repeat=len(roles)):
        for atom_sorts in itertools.product(Sort, repeat=len(atoms)):
            sig = Signature()
            for name, kind in zip(roles, role_kinds):
                sig.declare_role(name, kind)
            for name, sort in zip(atoms, atom_sorts):
                sig.declare_atom(name, sort)
            try:
                parse_concept(text, sig)
                return True
            except SortError:
                pass
    return False


def test_inference_fails_only_when_no_signature_sorts_the_concept():
    # brute force over every choice of role kinds and atom sorts
    rng = random.Random(1606)
    accepted = rejected = 0
    for _ in range(300):
        text = bare_concept(rng, 4)
        try:
            _, sig = parse_concept_with_inference(text)
        except SortError:
            assert not sorts_somehow(text), text
            rejected += 1
        else:
            parse_concept(text, sig)
            accepted += 1
    assert accepted > 200 and rejected > 10, (accepted, rejected)  # 278, 22


def check_roundtrip(expr, sig):
    from kedl import concept_to_str

    return parse_concept(concept_to_str(expr), sig) == expr


GAS_STYLE = """
# declarations
oconcept Gas;
aconcept GasComposition;
aconcept Temperature;
xrole has-composite;
xrole has-temperature;
oindividual gas1;

Gas := some has-composite GasComposition and some has-temperature Temperature;
Gas(gas1);
"""


class TestKbGrammar:
    def test_empty_file(self):
        kb = parse_kb("")
        assert not kb.definitions and not kb.inclusions and not kb.abox

    def test_declarations_definition_assertion(self):
        kb = parse_kb(GAS_STYLE)
        assert kb.sig.object_atoms == {"Gas"}
        assert set(kb.sig.roles) == {"has-composite", "has-temperature"}
        assert "Gas" in kb.definitions
        assert kb.abox == [ConceptAssertion(Atom("Gas"), "gas1")]

    def test_inclusion_statement(self):
        kb = parse_kb("oconcept C; oconcept D; some-text <= D;".replace("some-text", "C"))
        assert kb.inclusions == [(Atom("C"), Atom("D"))]

    def test_inclusion_with_complex_left(self):
        kb = parse_kb("oconcept C; oconcept D; orole p; some p C <= D;")
        assert kb.inclusions[0][0] == Exists(RoleName("p", RoleKind.OBJ_OBJ), Atom("C"))

    def test_role_assertion(self):
        kb = parse_kb("xrole r; oindividual c; aindividual u; r(c,u);")
        assert kb.abox == [RoleAssertion(RoleName("r", RoleKind.CROSS), "c", "u")]

    def test_parenthesized_concept_assertion(self):
        kb = parse_kb("aconcept A; aindividual u; (not A)(u);")
        assert kb.abox == [ConceptAssertion(Not(Atom("A")), "u")]

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ParseError):
            parse_kb("oconcept C; oconcept C;")

    def test_duplicate_definition_rejected(self):
        with pytest.raises(ParseError):
            parse_kb("oconcept C; oconcept D; C := D; C := not D;")

    def test_cyclic_definition_rejected(self):
        with pytest.raises(ParseError):
            parse_kb("oconcept C; oconcept D; C := not D; D := not C;")

    def test_rejected_definition_is_rolled_back(self):
        kb = parse_kb("oconcept B; oconcept C; B := C;")
        with pytest.raises(KnowledgeBaseError, match="cyclic definition through C"):
            kb.define("C", Atom("B"))
        assert kb.definitions == {"B": Atom("C")}
        kb.define("C", Not(Top()))  # C is still free to define

    def test_acyclicity_check_visits_each_definition_once(self, monkeypatch):
        # a ladder A_i := A_{i+1} and B_{i+1}, B_i := the same, defined from
        # the bottom rung up: the definitions under a rung share every path
        # below it, 2^i of them, so the check must remember finished atoms
        rungs = 200
        kb = KnowledgeBase()
        for i in range(rungs + 1):
            kb.sig.declare_atom(f"A{i}", Sort.OBJECT)
            kb.sig.declare_atom(f"B{i}", Sort.OBJECT)
        visits = []
        subexprs = kb_module.subexprs

        def visit(expr):  # the check walks each definition it visits once
            visits.append(expr)
            assert len(visits) <= len(kb.definitions), "a definition was visited twice"
            return subexprs(expr)

        monkeypatch.setattr(kb_module, "subexprs", visit)
        for i in reversed(range(rungs)):
            for name in (f"A{i}", f"B{i}"):
                visits.clear()
                kb.define(name, And(Atom(f"A{i + 1}"), Atom(f"B{i + 1}")))
                assert len(visits) == 1 + 2 * (rungs - 1 - i)  # the new one and all below it

    def test_assertion_sort_mismatch(self):
        with pytest.raises(SortError) as err:
            parse_kb("oconcept Gas; aindividual u1; Gas(u1);")
        assert err.value.location is not None

    def test_role_assertion_sort_mismatch(self):
        with pytest.raises(SortError):
            parse_kb("xrole r; oindividual c; oindividual d; r(c,d);")

    def test_role_used_as_concept(self):
        with pytest.raises(ParseError):
            parse_kb("xrole r; oindividual c; r(c);")

    def test_comments_and_blank_lines(self):
        kb = parse_kb("# nothing here\n\n# more\noconcept C;\n")
        assert kb.sig.object_atoms == {"C"}

    def test_error_location_points_at_the_statement(self):
        text = "oconcept C;\naconcept A;\n\nC <= A;\n"
        with pytest.raises(SortError) as err:
            parse_kb(text)
        assert err.value.location == (4, 1)

    def test_parse_error_location_in_multiline_file(self):
        text = "oconcept C;\noconcept D;\nC := and D;\n"
        with pytest.raises(ParseError) as err:
            parse_kb(text)
        assert err.value.line == 3


class TestParseSignature:
    def test_declarations_only(self):
        sig = parse_signature("oconcept C; xrole r; aconcept A;")
        assert isinstance(sig, Signature)
        assert sig.roles["r"] is RoleKind.CROSS

    def test_statements_rejected(self):
        with pytest.raises(Exception):
            parse_signature("oconcept C; C <= C;")
