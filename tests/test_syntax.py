"""Sort checking, desugaring, negation normal form, and role inversion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kedl import (
    And,
    Atom,
    Bot,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    RoleKind,
    RoleName,
    Signature,
    Sort,
    SortError,
    Top,
    check_sort,
    concept_to_str,
    desugar,
    invert_role,
    to_nnf,
)
from kedl.parser import parse_concept
from kedl.syntax import ConceptStore, is_nnf, subexprs

from generators import P, Q, R, R_INV, diff_signature, gen_concept, gen_nnf


@pytest.fixture
def sig():
    s = Signature()
    s.declare_atom("Gas", Sort.OBJECT)
    s.declare_atom("Tunnel", Sort.OBJECT)
    s.declare_atom("Length", Sort.ATTRIBUTE)
    s.declare_atom("GasComposition", Sort.ATTRIBUTE)
    s.declare_role("has-length", RoleKind.CROSS)
    s.declare_role("connected", RoleKind.OBJ_OBJ)
    return s


class TestCheckSort:
    def test_cross_existential_is_object_sorted(self, sig):
        expr = parse_concept("some has-length Length", sig)
        assert check_sort(expr, sig) is Sort.OBJECT

    def test_top_defaults_to_object_sort(self, sig):
        assert check_sort(Top(), sig) is Sort.OBJECT
        assert check_sort(Not(Atom("Gas")), sig) is Sort.OBJECT

    def test_top_takes_expected_sort(self, sig):
        assert check_sort(Top(), sig, expected=Sort.ATTRIBUTE) is Sort.ATTRIBUTE

    def test_mixed_sort_conjunction_rejected(self, sig):
        with pytest.raises(SortError):
            check_sort(And(Atom("Gas"), Atom("GasComposition")), sig)

    def test_undeclared_atom_rejected(self, sig):
        with pytest.raises(SortError):
            check_sort(Atom("Pressure"), sig)

    def test_quantifier_needs_matching_filler_sort(self, sig):
        role = sig.role("has-length")
        with pytest.raises(SortError):
            check_sort(Exists(role, Atom("Gas")), sig)

    def test_role_kind_must_match_declaration(self, sig):
        wrong = RoleName("connected", RoleKind.CROSS)
        with pytest.raises(SortError):
            check_sort(Exists(wrong, Atom("Length")), sig)

    def test_inverse_cross_quantifier_is_attribute_sorted(self, sig):
        expr = parse_concept("some inv(has-length) Tunnel", sig)
        assert check_sort(expr, sig) is Sort.ATTRIBUTE

    def test_sort_soundness_of_subexpressions(self):
        # every subexpression of an accepted concept is itself accepted
        sig = diff_signature()
        rng = random.Random(11)
        for _ in range(200):
            expr = gen_concept(rng, Sort.OBJECT, 4)
            check_sort(expr, sig)
            for sub in subexprs(expr):
                check_sort(sub, sig)


class TestInvertRole:
    def test_cross_inverts_to_inverse(self):
        assert invert_role(R) == R_INV

    def test_involution(self):
        assert invert_role(invert_role(R)) == R

    def test_object_and_attribute_roles_have_no_inverse(self):
        with pytest.raises(SortError):
            invert_role(P)
        with pytest.raises(SortError):
            invert_role(Q)


class TestDesugar:
    def test_implies(self):
        c, d = Atom("C1"), Atom("C2")
        assert desugar(Implies(c, d)) == Or(Not(c), d)

    def test_iff_self(self):
        c = Atom("C1")
        assert desugar(Iff(c, c)) == And(Or(Not(c), c), Or(Not(c), c))

    def test_identity_on_arrow_free(self):
        rng = random.Random(5)
        for _ in range(100):
            e = gen_concept(rng, Sort.ATTRIBUTE, 3)
            d = desugar(e)
            assert not any(isinstance(s, (Implies, Iff)) for s in subexprs(d))
            if not any(isinstance(s, (Implies, Iff)) for s in subexprs(e)):
                assert d == e

    def test_weakening_desugars_to_its_union_form(self):
        # phi => (psi => phi) and its not/or spelling are the same tree
        phi, psi = Atom("C1"), Atom("C2")
        assert desugar(Implies(phi, Implies(psi, phi))) == Or(Not(phi), Or(Not(psi), phi))


class TestNnf:
    def test_de_morgan_and(self):
        c, d = Atom("C1"), Atom("C2")
        assert to_nnf(Not(And(c, d))) == Or(Not(c), Not(d))

    def test_de_morgan_or(self):
        c, d = Atom("C1"), Atom("C2")
        assert to_nnf(Not(Or(c, d))) == And(Not(c), Not(d))

    def test_double_negation(self):
        assert to_nnf(Not(Not(Atom("C1")))) == Atom("C1")

    def test_quantifier_duality(self):
        c = Atom("C1")
        assert to_nnf(Not(Exists(P, c))) == Forall(P, Not(c))
        assert to_nnf(Not(Forall(P, c))) == Exists(P, Not(c))

    def test_top_bot_complement(self):
        assert to_nnf(Not(Top())) == Bot()
        assert to_nnf(Not(Bot())) == Top()

    def test_output_is_nnf_and_idempotent(self):
        rng = random.Random(23)
        for _ in range(300):
            e = gen_concept(rng, Sort.OBJECT, 4)
            n = to_nnf(e)
            assert is_nnf(n)
            assert to_nnf(n) == n

    def test_arrows_and_negated_compounds_are_not_nnf(self):
        # an arrow interns to the id of its NNF, so this is read off the tree
        c, d = Atom("C1"), Atom("C2")
        for e in (Implies(c, d), Iff(c, d), Not(Not(c)), Not(And(c, d)), Exists(P, Not(Top()))):
            assert not is_nnf(e)
        assert is_nnf(Or(Not(c), d))


class TestFormsOnDemand:
    """A concept store makes the NNF forms of an id only when they are read."""

    @staticmethod
    def closure(store, read):
        """The ids under the ids read, with their two forms."""
        under = set(store.order(read, ()))
        return under | {store.nnf[j] for j in under} | {store.neg[j] for j in under}

    def test_interning_makes_no_form(self):
        rng, store = random.Random(31), ConceptStore()
        for k in range(50):
            store.intern(gen_concept(rng, Sort.OBJECT if k % 2 else Sort.ATTRIBUTE, 4))
        assert store.formed == set() and store.nnf == [] and store.neg == []
        assert all(type(store.concept(i)) not in (Implies, Iff) for i in range(len(store.desc)))

    def test_a_read_forms_the_ids_under_it_and_their_forms_only(self):
        # each read forms what it reaches, and a later read adds only what
        # it reaches that an earlier read did not
        rng = random.Random(32)
        for _ in range(100):
            store = ConceptStore()
            roots = [store.intern(gen_concept(rng, Sort.OBJECT, 3)) for _ in range(3)]
            read = []
            for i in rng.choices(range(len(store.desc)), k=3) + roots:
                read.append(i)
                store.forms(i)
                assert store.formed == self.closure(store, read)

    def test_read_orders_agree(self):
        # the forms of a seeded NNF concept and of its negation, read from
        # the root, through the negation first, or sub-concept by
        # sub-concept, operands first or in a random order, are one pair of
        # concepts, each in NNF; neg of neg is nnf, and nnf is its own NNF
        rng = random.Random(33)
        for trial in range(200):
            sort = Sort.OBJECT if trial % 2 else Sort.ATTRIBUTE
            e = gen_nnf(rng, sort, 4)
            seen = set()
            for order in ("root", "negation", "up", "shuffled"):
                store = ConceptStore()
                i, negation = store.intern(e), store.intern(Not(e))
                if order == "negation":
                    store.forms(negation)
                elif order in ("up", "shuffled"):
                    under = store.order((i,), ())
                    for j in under if order == "up" else rng.sample(under, len(under)):
                        store.forms(j)
                pos, neg = store.forms(i)
                assert store.forms(negation) == (neg, pos)
                assert store.forms(neg)[1] == pos and store.forms(pos) == (pos, neg)
                assert is_nnf(store.concept(pos)) and is_nnf(store.concept(neg))
                seen.add((concept_to_str(store.concept(pos)), concept_to_str(store.concept(neg))))
            assert seen == {(concept_to_str(to_nnf(e)), concept_to_str(to_nnf(Not(e))))}


def test_subexprs_walks_a_deep_chain_once_in_pre_order():
    # some p (A0 and some p (A1 and ... some p (A4999 and C))), built without
    # recursion: the walk keeps its own stack, so no recursion limit is hit,
    # and it yields each node once, before its operands, left before right
    # (nodes are compared by identity, as == on this depth would recurse)
    leaf = Atom("C")
    expr, levels = leaf, []
    for i in reversed(range(5000)):
        atom = Atom(f"A{i}")
        conj = And(atom, expr)
        expr = Exists(P, conj)
        levels.append((expr, conj, atom))
    expected = [id(node) for level in reversed(levels) for node in level] + [id(leaf)]
    assert [id(node) for node in subexprs(expr)] == expected
    assert is_nnf(expr)


def test_every_walker_takes_a_deep_mixed_chain():
    # 10,000 levels cycling through not, and, =>, some and all, built
    # without recursion: desugar, to_nnf, negated_nnf, concept_to_str,
    # check_sort, parse_concept and extension keep their own stacks, so
    # none hits the recursion limit.
    # The expected forms and text are built level by level beside the
    # chain, and forms are compared by printed form, as == on this depth
    # would recurse; on a fixed interpretation, the chain and its NNF have
    # one extension, {x1, x2}, and the NNF of its negation the complement
    import sys

    from kedl.semantics import Interpretation, extension
    from kedl.syntax import negated_nnf, node_to_str

    limit = sys.getrecursionlimit()
    expr = plain = pos = Atom("C1")
    neg, text = Not(pos), "C1"
    for i in range(10_000):
        a, step, inner = Atom(f"C{1 + i % 2}"), i % 5, (type(expr), text)
        if step == 0:
            expr, plain, pos, neg, operands = Not(expr), Not(plain), neg, pos, [inner]
        elif step == 1:
            expr, plain, pos, neg = And(a, expr), And(a, plain), And(a, pos), Or(Not(a), neg)
            operands = [(Atom, a.name), inner]
        elif step == 2:
            expr, plain, pos, neg = Implies(expr, a), Or(Not(plain), a), Or(neg, a), And(pos, Not(a))
            operands = [inner, (Atom, a.name)]
        elif step == 3:
            expr, plain, pos, neg, operands = Exists(P, expr), Exists(P, plain), Exists(P, pos), Forall(P, neg), [inner]
        else:
            expr, plain, pos, neg, operands = Forall(P, expr), Forall(P, plain), Forall(P, pos), Exists(P, neg), [inner]
        text = node_to_str(type(expr), P if step > 2 else None, operands)
    assert concept_to_str(expr) == text
    assert concept_to_str(desugar(expr)) == concept_to_str(plain)
    assert concept_to_str(to_nnf(expr)) == concept_to_str(pos)
    assert concept_to_str(negated_nnf(expr)) == concept_to_str(neg)
    assert check_sort(expr, diff_signature()) is Sort.OBJECT
    assert concept_to_str(parse_concept(text, diff_signature())) == text
    i = Interpretation(sig=diff_signature(), n_delta=3, n_sigma=1,
                       concept_ext={"C1": 0, "C2": 0, "A1": 0, "A2": 0},
                       role_ext={"p": (0, 0, 0b001), "q": (0,), "r": (0, 0, 0)})  # x3 -> x1
    assert extension(expr, i) == extension(pos, i) == 0b011
    assert extension(neg, i) == 0b100
    assert sys.getrecursionlimit() == limit


# --- parser round-trip via hypothesis -----------------------------------------

_SIG = diff_signature()


def _leaf(sort: Sort):
    atoms = ("C1", "C2") if sort is Sort.OBJECT else ("A1", "A2")
    return st.sampled_from([Atom(a) for a in atoms] + [Top(), Bot()])


def _compound(children, cross_children, role, inv_role):
    pairs = st.tuples(children, children)
    return st.one_of(
        children.map(Not),
        pairs.map(lambda t: And(*t)),
        pairs.map(lambda t: Or(*t)),
        pairs.map(lambda t: Implies(*t)),
        pairs.map(lambda t: Iff(*t)),
        children.map(lambda c: Exists(role, c)),
        children.map(lambda c: Forall(role, c)),
        cross_children.map(lambda c: Exists(inv_role, c)),
        cross_children.map(lambda c: Forall(inv_role, c)),
    )


obj_concepts = st.deferred(
    lambda: st.one_of(_leaf(Sort.OBJECT), _compound(obj_concepts, attr_concepts, P, R))
)
attr_concepts = st.deferred(
    lambda: st.one_of(_leaf(Sort.ATTRIBUTE), _compound(attr_concepts, obj_concepts, Q, R_INV))
)


@settings(max_examples=150, deadline=None)
@given(expr=obj_concepts)
def test_print_parse_roundtrip_object(expr):
    assert parse_concept(concept_to_str(expr), _SIG) == expr


@settings(max_examples=150, deadline=None)
@given(expr=attr_concepts)
def test_print_parse_roundtrip_attribute(expr):
    assert parse_concept(concept_to_str(expr), _SIG) == expr
