"""Tableau procedure: satisfiability, consistency, subsumption, instance
checking, classification, and agreement with the bounded oracle."""

import hashlib
import os
import pathlib
import random
import subprocess
import sys

import kedl
import pytest

from kedl import (
    And,
    Atom,
    Bot,
    Bounds,
    Exists,
    KnowledgeBase,
    Model,
    Not,
    Or,
    Sort,
    Top,
    classify,
    extension,
    find_model,
    instance_of,
    is_consistent,
    is_satisfiable,
    parse_concept,
    parse_kb,
    satisfies_kb,
    subsumes,
    validate_interpretation,
)
from kedl.kb import Inclusion
from kedl.km import ObjectKnowledgeElement, parse_km, translate_to_kb
from kedl.semantics import FunctionalityMode, interpretation_to_text
from kedl.syntax import concept_to_str
from kedl.tableau import InconsistentKBError, Tableau, trace_to_text

from generators import (
    P,
    Q,
    R,
    diff_signature,
    empty_diff_kb,
    gen_atomic_gci_kb,
    gen_concept,
    gen_hierarchy_kb,
    gen_kb,
    gen_km_text,
    gen_nnf,
)


@pytest.fixture
def kb():
    return empty_diff_kb()


class TestSatisfiability:
    def test_contradiction(self, kb):
        assert not is_satisfiable(parse_concept("C1 and not C1", kb.sig), kb).satisfiable

    def test_a_deep_chain_meets_the_budget_not_the_recursion_limit(self, kb):
        # 3,000 nested some p, built without recursion: the sort check and
        # the interning keep their own stacks, so the query stops at the
        # expansion budget
        from kedl.syntax import check_sort
        from kedl.tableau import TableauLimitError

        expr = Atom("C1")
        for _ in range(3000):
            expr = Exists(P, expr)
        assert check_sort(expr, kb.sig) is Sort.OBJECT
        with pytest.raises(TableauLimitError):
            Tableau(kb).is_satisfiable(expr)

    def test_inverse_propagation_clash(self, kb):
        # an attribute value seen back through the cross role must satisfy
        # what all values of its source satisfy
        expr = parse_concept("some inv(r) (all r A1) and not A1", kb.sig)
        assert not is_satisfiable(expr, kb).satisfiable

    def test_functional_successor_is_shared(self, kb):
        expr = parse_concept("some r A1 and all r A2", kb.sig)
        result = is_satisfiable(expr, kb)
        assert result.satisfiable
        i = result.witness
        shared = extension(parse_concept("some r (A1 and A2)", kb.sig), i)
        assert shared

    def test_two_cross_values_clash_unless_free(self, kb):
        expr = parse_concept("some r A1 and some r (not A1)", kb.sig)
        assert not is_satisfiable(expr, kb, mode=FunctionalityMode.AT_MOST_ONE).satisfiable
        assert not is_satisfiable(expr, kb, mode=FunctionalityMode.EXACTLY_ONE).satisfiable
        assert is_satisfiable(expr, kb, mode=FunctionalityMode.FREE).satisfiable

    def test_exactly_one_makes_forall_existential(self, kb):
        # with a mandatory successor, all r A1 and not some r A1 clashes
        expr = parse_concept("all r A1 and not (some r A1)", kb.sig)
        assert is_satisfiable(expr, kb, mode=FunctionalityMode.AT_MOST_ONE).satisfiable
        assert not is_satisfiable(expr, kb, mode=FunctionalityMode.EXACTLY_ONE).satisfiable

    def test_witnesses_are_revalidated_models(self, kb):
        rng = random.Random(4242)
        seen = 0
        for _ in range(60):
            sort = rng.choice([Sort.OBJECT, Sort.ATTRIBUTE])
            e = gen_nnf(rng, sort, 3)
            result = is_satisfiable(e, kb, sort=sort)
            if result.satisfiable:
                seen += 1
                assert validate_interpretation(result.witness) == []
                assert extension(e, result.witness, sort)
        assert seen > 10

    def test_blocking_terminates_gci_loop(self, kb):
        kb.include(Atom("C1"), Exists(P, Atom("C1")))
        result = is_satisfiable(Atom("C1"), kb)
        assert result.satisfiable
        assert satisfies_kb(result.witness, kb)

    def test_blocking_with_cross_and_inverse_chain(self, kb):
        # every object points somewhere, every value looks back at a C1
        kb.include(parse_concept("top", kb.sig), parse_concept("some r A1", kb.sig))
        kb.include(parse_concept("A1", kb.sig), parse_concept("some inv(r) C1", kb.sig))
        result = is_consistent(kb)
        assert result.satisfiable
        assert satisfies_kb(result.witness, kb)

    def test_polymorphic_inclusion_hits_both_sorts(self):
        # an inclusion of top and bot alone has no sort of its own, so it
        # constrains both domains: with one attribute individual, node 0,
        # the clash is on that node (constraining the object domain alone
        # would clash on node 1, the object root)
        for mode in FunctionalityMode:
            assert not is_consistent(parse_kb("top <= bot;"), mode=mode).satisfiable
            result = is_consistent(parse_kb("aindividual a; top <= bot;"), mode=mode)
            assert not result.satisfiable
            assert result.clash_trace == [("or-right", 0, "bot"), ("clash", 0, "bot")]

    def test_long_internalized_chain(self):
        # "A_i and B_i" is no primitive atom, so every inclusion is
        # internalized and each of the 31 chain nodes or-splits on all 30 of
        # them: the search runs about 1,800 or-splits deep, past Python's
        # default recursion limit of 1,000
        n = 30
        text = "".join(f"oconcept A{i}; oconcept B{i};\n" for i in range(n + 1)) + "orole r;\n"
        text += "".join(f"A{i} and B{i} <= some r (A{i + 1} and B{i + 1});\n" for i in range(n))
        kb = parse_kb(text)
        query = parse_concept("A0 and B0", kb.sig)
        result = Tableau(kb).is_satisfiable(query)
        assert result.satisfiable
        assert satisfies_kb(result.witness, kb)
        assert extension(query, result.witness)


class TestNodeOrder:
    def test_ids_ascend_and_parents_precede_children(self, monkeypatch):
        # the agenda orders candidates by node id, and witness extraction
        # marks blocked nodes in one pass in id order: both need g.nodes in
        # ascending id order and every parent older than its children, also
        # after merges, which a second r-value u2 of o1 forces; the step and
        # merge counts pin the length of the rule sequence
        fire = Tableau._fire_rule
        steps = merges = 0

        def checked(self, g):
            nonlocal steps, merges
            ids = list(g.nodes)
            assert ids == sorted(ids) and list(g.succ) == ids
            assert all(n.parent is None or n.parent[0] < n.id for n in g.nodes.values())
            step = fire(self, g)
            steps += 1
            merges += step is True and g.trace[-1][0] == "merge"
            return step

        monkeypatch.setattr(Tableau, "_fire_rule", checked)
        rng = random.Random(616)
        for _ in range(150):
            kb = gen_kb(rng)
            kb.sig.declare_individual("u2", Sort.ATTRIBUTE)
            kb.assert_role(R, "o1", "u2")
            queries = [(sort, gen_nnf(rng, sort, 2)) for sort in (Sort.OBJECT, Sort.ATTRIBUTE)]
            for mode in (FunctionalityMode.AT_MOST_ONE, FunctionalityMode.EXACTLY_ONE):
                is_consistent(kb, mode=mode)
                for sort, query in queries:
                    is_satisfiable(query, kb, mode=mode, sort=sort)
        assert (steps, merges) == (12507, 566)

    def test_agenda_holds_every_applicable_candidate(self, monkeypatch):
        # the agenda is filled only by the pushes where a graph changes;
        # the reference below lists every candidate of a graph from scratch,
        # in a pass over all its nodes, and before every step each one that
        # its rule class's check finds applicable must wait in the agenda.
        # The corpus is the one above in every mode; in half of it the
        # merged u2 carries concepts that u1 lacks, which the merge pushes
        # anew for u1
        from kedl.syntax import RoleKind
        from kedl.tableau import MERGE, TOTALITY, UNFOLD_AND, _RULE_CLASS

        def every_candidate(tab, g):
            agenda = [[] for _ in range(TOTALITY + 1)]
            desc, key = tab.compiled.concepts.desc, tab.compiled.keys
            for node in g.nodes.values():
                for c in node.label:
                    rule = UNFOLD_AND if c in tab.compiled.unfold else _RULE_CLASS.get(desc[c][0])
                    if rule is not None:
                        agenda[rule].append((node.id, key[c], c))
                for role_name, targets in g.succ[node.id].items():
                    if (len(targets) > 1 and tab.mode is not FunctionalityMode.FREE
                            and tab.sig.roles.get(role_name) is RoleKind.CROSS):
                        agenda[MERGE].append((node.id, role_name))
                if tab.mode is FunctionalityMode.EXACTLY_ONE and node.sort is Sort.OBJECT:
                    agenda[TOTALITY] += [(node.id, role_name) for role_name in tab.sig.cross_roles()]
            return agenda

        fire = Tableau._fire_rule
        applicable = merges = 0

        def checked(self, g):
            nonlocal applicable, merges
            for rule, (candidates, check) in enumerate(zip(every_candidate(self, g), self._checks)):
                live = set(g.agenda[rule])
                for entry in candidates:
                    if check(g, entry) is not None:
                        assert entry in live, (rule, entry)
                        applicable += 1
            step = fire(self, g)
            merges += step is True and g.trace[-1][0] == "merge"
            return step

        monkeypatch.setattr(Tableau, "_fire_rule", checked)
        rng = random.Random(616)
        for k in range(150):
            kb = gen_kb(rng)
            kb.sig.declare_individual("u2", Sort.ATTRIBUTE)
            kb.assert_role(R, "o1", "u2")
            if k % 2:
                kb.assert_concept(gen_concept(rng, Sort.ATTRIBUTE, 1), "u2")
                kb.assert_role(Q, "u2", "u1")
            queries = [(sort, gen_nnf(rng, sort, 2)) for sort in (Sort.OBJECT, Sort.ATTRIBUTE)]
            for mode in FunctionalityMode:
                is_consistent(kb, mode=mode)
                for sort, query in queries:
                    is_satisfiable(query, kb, mode=mode, sort=sort)
        # the differential signature has one cross role; gen_hierarchy_kb
        # has five, so in exactly-one each object node must get a totality
        # candidate for every cross role, not only for the first
        for seed in range(20):
            kb = gen_hierarchy_kb(random.Random(seed))
            if is_consistent(kb, mode=FunctionalityMode.EXACTLY_ONE).satisfiable:
                for name in sorted(kb.sig.object_atoms):
                    is_satisfiable(Atom(name), kb, mode=FunctionalityMode.EXACTLY_ONE)
        assert merges > 400, merges  # 488
        assert applicable > 100000, applicable  # 180,114

    def test_candidate_blocking_matches_the_one_pass(self, monkeypatch):
        # Tableau._blocker walks down from the root once; the reference
        # below walks up from each node to find its direct blocker and
        # marks the nodes below a blocked one in a pass in id order.  Both
        # must agree on every node at every step, and on the blocker of
        # every directly blocked node whose parent is unblocked, the one
        # witness extraction maps the node to; C1 <= some p C1 makes
        # p-chains that only blocking stops
        def direct_blocker(g, node):
            if node.root or node.parent is None or node.parent[2]:
                return None
            parent = g.nodes[node.parent[0]]
            tag = node.parent[1:]
            anc = parent
            while anc.parent is not None:
                candidate = g.nodes[anc.parent[0]]
                if (
                    not anc.root
                    and anc.parent[1:] == tag
                    and anc.sort is node.sort
                    and anc.label == node.label
                    and candidate.label == parent.label
                ):
                    return anc
                anc = candidate
            return None

        def blocked_nodes(g):
            blocked = set()
            for node in g.nodes.values():
                parent = node.parent
                if (parent is not None and parent[0] in blocked) or direct_blocker(g, node) is not None:
                    blocked.add(node.id)
            return blocked

        fire = Tableau._fire_rule
        blocked_seen = direct_seen = 0

        def checked(self, g):
            nonlocal blocked_seen, direct_seen
            blocked = blocked_nodes(g)
            for n in g.nodes.values():
                blocker = self._blocker(g, n)
                assert (blocker is not None) == (n.id in blocked)
                if n.id in blocked and n.parent[0] not in blocked:
                    assert blocker is direct_blocker(g, n)
                    direct_seen += 1
            blocked_seen += len(blocked)
            return fire(self, g)

        monkeypatch.setattr(Tableau, "_fire_rule", checked)
        rng = random.Random(717)
        for k in range(100):
            kb = (gen_kb if k % 2 else gen_atomic_gci_kb)(rng)
            kb.include(Atom("C1"), Exists(P, Atom("C1")))
            for mode in FunctionalityMode:
                Tableau(kb, mode).is_satisfiable(And(Atom("C1"), gen_nnf(rng, Sort.OBJECT, 2)))
        assert blocked_seen > 500, blocked_seen  # 867
        assert direct_seen > 500, direct_seen  # 865


class TestCertification:
    """A witness reads each element's label and edges once, sets every
    defined atom to its definition's extension in a dependency order that
    is checked once per Tableau, and is re-checked on everything else."""

    @staticmethod
    def _scanned(tab, g):
        """The reference extraction: every primitive atom and every role
        tested against every element."""
        blockers = {node.id: tab._blocker(g, node) for node in g.nodes.values()}
        elements = [n for n in g.nodes.values() if blockers[n.id] is None]
        index, size = {}, {Sort.OBJECT: 0, Sort.ATTRIBUTE: 0}
        for node in elements:
            index[node.id] = size[node.sort]
            size[node.sort] += 1
        concept_ext = {}
        for name in sorted(tab.sig.object_atoms | tab.sig.attribute_atoms):
            if name not in tab.kb.definitions:
                sort, atom = tab.sig.atom_sort(name), tab.compiled.concepts.ids.get((Atom, name))
                concept_ext[name] = sum(1 << index[n.id] for n in elements if n.sort is sort and atom in n.label)
        role_ext = {}
        for role_name, kind in tab.sig.roles.items():
            rows = [0] * size[kind.source]
            for node in elements:
                if node.sort is kind.source:
                    for target in g.successors(node.id, role_name):
                        blocker = blockers[target]
                        rows[index[node.id]] |= 1 << index[target if blocker is None else blocker.id]
            role_ext[role_name] = tuple(rows)
        return concept_ext, role_ext

    @pytest.mark.parametrize("mode", list(FunctionalityMode), ids=str)
    def test_one_pass_matches_the_membership_scan(self, monkeypatch, mode):
        # on every witness of a corpus with merges (a second r-value of o1)
        # and blocked nodes (C1 <= some p C1), in every mode
        extract = Tableau._extract_witness
        witnesses = blocked = 0

        def checked(self, g):
            nonlocal witnesses, blocked
            witness = extract(self, g)
            concept_ext, role_ext = TestCertification._scanned(self, g)
            assert {name: witness.concept_ext[name] for name in concept_ext} == concept_ext
            assert witness.role_ext == role_ext
            assert validate_interpretation(witness) == []
            assert satisfies_kb(witness, self.kb)  # the definitions too
            witnesses += 1
            blocked += any(self._blocker(g, n) is not None for n in g.nodes.values())
            return witness

        monkeypatch.setattr(Tableau, "_extract_witness", checked)
        rng = random.Random(1919)
        for k in range(60):
            kb = (gen_kb, gen_atomic_gci_kb, gen_hierarchy_kb)[k % 3](rng)
            if k % 3 < 2:  # the differential signature
                if k % 2:
                    kb.sig.declare_individual("u2", Sort.ATTRIBUTE)
                    kb.assert_role(R, "o1", "u2")
                else:
                    kb.include(Atom("C1"), Exists(P, Atom("C1")))
            tab = Tableau(kb, mode)
            if not tab.is_consistent():
                continue
            for name in sorted(kb.sig.object_atoms | kb.sig.attribute_atoms):
                tab.is_satisfiable(Atom(name))
            if k % 3 < 2:
                for sort in (Sort.OBJECT, Sort.ATTRIBUTE):
                    tab.is_satisfiable(gen_nnf(rng, sort, 3), sort=sort)
        assert witnesses > 300, witnesses  # 325-326 in each mode
        assert blocked > 25, blocked  # 33

    NESTED = """
    oconcept A; oconcept B; oconcept C; oconcept D; aconcept S; xrole has-s;
    A := B and some has-s S;
    B := C or D;
    C := all has-s S;
    """

    @pytest.mark.parametrize("broken", [lambda order: order[::-1], lambda order: order[1:],
                                        lambda order: order + order[:1]],
                             ids=["reversed", "incomplete", "repeated"])
    def test_definition_order_is_certified(self, monkeypatch, broken):
        # a broken order raises at the compile, which is then not kept
        from kedl import KedlError, tableau

        kb = parse_kb(self.NESTED)
        order = tableau._definition_order
        monkeypatch.setattr(tableau, "_definition_order", lambda uses: broken(order(uses)))
        with pytest.raises(KedlError, match="internal tableau error: .*definition"):
            Tableau(kb).is_consistent()
        assert kb._compiled is None
        monkeypatch.undo()
        assert Tableau(kb).is_consistent()
        assert kb._compiled.definitions == ["C", "B", "A"]

    def test_definitions_hold_without_a_recheck(self, monkeypatch):
        # the witness evaluates the definitions once, to set the defined
        # atoms; the re-check evaluates inclusions, assertions and the
        # query, never a definition, and the witness still satisfies all
        import kedl.semantics as semantics

        kb = parse_kb(self.NESTED + "oindividual a1; A(a1); C <= D;")
        query = parse_concept("B and not A", kb.sig)
        checked, holds = [], semantics._holds
        evaluated, extensions = [], semantics.InternedConcepts.extensions
        monkeypatch.setattr(semantics, "_holds", lambda i, f, sides: checked.append(f) or holds(i, f, sides))
        monkeypatch.setattr(semantics.InternedConcepts, "extensions",
                            lambda self, i: evaluated.append(self) or extensions(self, i))
        result = Tableau(kb).is_satisfiable(query)
        assert result.satisfiable
        compiled = kb._compiled
        assert evaluated[:2] == [compiled.bodies, compiled.recheck] and len(evaluated) == 3
        assert [type(f).__name__ for f in checked] == ["Inclusion", "AssertionFormula"]
        assert [compiled.concepts.concept(root) for root, _ in evaluated[2].ids] == [query]
        assert satisfies_kb(result.witness, kb)


class TestConsistency:
    def test_definition_with_assertion(self):
        kb = parse_kb(
            """
            oconcept Gas; aconcept GasComposition; xrole has-composite;
            oindividual gas1;
            Gas := some has-composite GasComposition;
            Gas(gas1);
            """
        )
        result = is_consistent(kb)
        assert result.satisfiable
        assert satisfies_kb(result.witness, kb)

    def test_long_definition_chain(self):
        # A_i := A_{i+1} and C, 1,500 links: the witness evaluates the
        # definitions in dependency order, deeper than Python's default
        # recursion limit of 1,000
        n = 1500
        text = "oconcept C;\n" + "".join(f"oconcept A{i};\n" for i in range(n + 1))
        kb = parse_kb(text + "".join(f"A{i} := A{i + 1} and C;\n" for i in range(n)))
        result = is_consistent(kb)
        assert result.satisfiable
        assert satisfies_kb(result.witness, kb)

    def test_bot_membership_is_inconsistent(self):
        kb = parse_kb("oconcept C; oindividual c1; C <= bot; C(c1);")
        assert not is_consistent(kb).satisfiable

    def test_corpus_with_gas_instance(self):
        import importlib.resources

        text = importlib.resources.files("kedl.data").joinpath("gas.kedl").read_text()
        kb = parse_kb(text + "\noindividual gas1;\nGas(gas1);\n")
        for mode in (FunctionalityMode.AT_MOST_ONE, FunctionalityMode.EXACTLY_ONE):
            result = is_consistent(kb, mode=mode)
            assert result.satisfiable
            assert satisfies_kb(result.witness, kb)

    def test_functional_merge_propagates_clash(self):
        kb = parse_kb(
            """
            aconcept A; xrole has-r;
            oindividual c1; aindividual u1; aindividual u2;
            has-r(c1,u1); has-r(c1,u2);
            A(u1); (not A)(u2);
            """
        )
        result = is_consistent(kb)
        assert not result.satisfiable
        text = trace_to_text(result.clash_trace)
        assert "merge" in text and "clash" in text

    def test_merge_without_clash_is_recorded(self):
        kb = parse_kb(
            """
            aconcept A; xrole has-r;
            oindividual c1; aindividual u1; aindividual u2;
            has-r(c1,u1); has-r(c1,u2); A(u1);
            """
        )
        result = is_consistent(kb)
        assert result.satisfiable
        assert result.merged_individuals == [("u1", "u2")]
        i = result.witness
        assert i.ind_map["u1"] == i.ind_map["u2"]

    def test_clash_trace_is_stable(self):
        kb = parse_kb("oconcept C; oindividual c1; C(c1); (not C)(c1);")
        first = trace_to_text(is_consistent(kb).clash_trace)
        second = trace_to_text(is_consistent(kb).clash_trace)
        assert first == second
        assert first == "clash\tn0\tC, not C\n"

    def test_witnesses_are_deterministic(self):
        kb = empty_diff_kb()
        rng = random.Random(1234)
        for _ in range(20):
            sort = rng.choice([Sort.OBJECT, Sort.ATTRIBUTE])
            e = gen_nnf(rng, sort, 3)
            first = is_satisfiable(e, kb, sort=sort)
            second = is_satisfiable(e, kb, sort=sort)
            assert first.satisfiable == second.satisfiable
            if first.satisfiable:
                assert first.witness == second.witness
            else:
                assert first.clash_trace == second.clash_trace


# a definition and an inclusion: refuting Gas fires unfold, and, exists,
# forall and the or-rule (a refutation's trace is its last branch, so its
# or-steps are all or-right).  Cold is primitive, so its inclusion is absorbed:
# Cold unfolds to not Hot where it appears (closing the or-left branch Cold)
# instead of putting an or-split on every attribute node
TRACE_TBOX = """
oconcept Gas; aconcept Hot; aconcept Cold; xrole has-temperature;
Gas := some has-temperature Hot and all has-temperature (Cold or not Hot);
Cold <= not Hot;
"""

# inclusions with a primitive atom on the left only, all absorbed
TRACE_ABSORBED = """
aconcept Length; aconcept Short; arole more-than;
Length <= some more-than Length;
Length <= all more-than Short;
Short <= not Length;
"""

# two values of one functional role: refuting the ABox merges them
TRACE_ABOX = """
oconcept Gas; aconcept Hot; aconcept Cold; xrole has-temperature;
oindividual g1; aindividual t1; aindividual t2;
has-temperature(g1,t1); has-temperature(g1,t2);
(all has-temperature Cold)(g1); (Hot and not Cold)(t1); (not Hot or Cold)(t2);
"""


class TestClashTraces:
    def test_tbox_refutation_trace(self):
        kb = parse_kb(TRACE_TBOX)
        result = is_satisfiable(parse_concept("Gas", kb.sig), kb)
        assert not result.satisfiable
        assert trace_to_text(result.clash_trace) == (
            "unfold\tn0\tGas\n"
            "and\tn0\tsome has-temperature Hot and all has-temperature (Cold or not Hot)\n"
            "exists\tn0\tsome has-temperature Hot\n"
            "forall\tn0\tall has-temperature (Cold or not Hot)\n"
            "or-right\tn2\tnot Hot\n"
            "clash\tn2\tHot, not Hot\n"
        )

    def test_absorbed_inclusion_trace(self):
        # Length's two inclusions unfold as one conjunction, in declaration
        # order, at the root and again at the generated node n2 (n1 is the
        # seeded object root, whose label stays empty)
        kb = parse_kb(TRACE_ABSORBED)
        result = is_satisfiable(parse_concept("Length", kb.sig), kb)
        assert not result.satisfiable
        assert trace_to_text(result.clash_trace) == (
            "unfold\tn0\tLength\n"
            "and\tn0\tsome more-than Length and all more-than Short\n"
            "exists\tn0\tsome more-than Length\n"
            "unfold\tn2\tLength\n"
            "and\tn2\tsome more-than Length and all more-than Short\n"
            "forall\tn0\tall more-than Short\n"
            "unfold\tn2\tShort\n"
            "clash\tn2\tLength, not Length\n"
        )

    def test_abox_refutation_trace(self):
        result = is_consistent(parse_kb(TRACE_ABOX))
        assert not result.satisfiable
        assert trace_to_text(result.clash_trace) == (
            "and\tn1\tHot and not Cold\n"
            "merge\tn0\thas-temperature\n"
            "forall\tn0\tall has-temperature Cold\n"
            "clash\tn1\tCold, not Cold\n"
        )

    # the rule kinds the two refutations above leave out: exists-reuse of a
    # functional successor, totality, and an exists through an inverse role
    @pytest.mark.parametrize("text, mode, expected", [
        ("some r A1 and some r (not A1)", FunctionalityMode.AT_MOST_ONE,
         "and\tn0\tsome r A1 and some r not A1\n"
         "exists\tn0\tsome r A1\n"
         "exists-reuse\tn0\tsome r not A1\n"
         "clash\tn2\tA1, not A1\n"),
        ("all r A1 and not (some r A1)", FunctionalityMode.EXACTLY_ONE,
         "and\tn0\tall r A1 and all r not A1\n"
         "totality\tn0\tr\n"
         "forall\tn0\tall r A1\n"
         "forall\tn0\tall r not A1\n"
         "clash\tn2\tA1, not A1\n"),
        ("some inv(r) (all r A1) and not A1", FunctionalityMode.AT_MOST_ONE,
         "and\tn0\tsome inv(r) all r A1 and not A1\n"
         "exists\tn0\tsome inv(r) all r A1\n"
         "forall\tn2\tall r A1\n"
         "clash\tn0\tA1, not A1\n"),
    ])
    def test_cross_role_rule_traces(self, kb, text, mode, expected):
        result = is_satisfiable(parse_concept(text, kb.sig), kb, mode=mode)
        assert not result.satisfiable
        assert trace_to_text(result.clash_trace) == expected

    def test_independent_of_hash_seed(self):
        script = (
            "from kedl import is_consistent, is_satisfiable, parse_concept, parse_kb\n"
            "from kedl.semantics import interpretation_to_text\n"
            "from kedl.tableau import trace_to_text\n"
            "import sys\n"
            "tbox, abox, absorbed = sys.argv[1:]\n"
            "kb = parse_kb(absorbed)\n"
            "print(trace_to_text(is_satisfiable(parse_concept('Length', kb.sig), kb).clash_trace))\n"
            "kb = parse_kb(tbox)\n"
            "print(trace_to_text(is_satisfiable(parse_concept('Gas', kb.sig), kb).clash_trace))\n"
            "print(trace_to_text(is_consistent(parse_kb(abox)).clash_trace))\n"
            "goal = parse_concept('some has-temperature Cold and all has-temperature (Cold or Hot)', kb.sig)\n"
            "print(interpretation_to_text(is_satisfiable(goal, kb).witness))\n"
            "merging = abox.replace('(all has-temperature Cold)(g1);', '').replace('not Hot or Cold', 'Cold or Hot')\n"
            "result = is_consistent(parse_kb(merging))\n"
            "print(result.merged_individuals, interpretation_to_text(result.witness))\n"
        )
        src = str(pathlib.Path(kedl.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", script, TRACE_TBOX, TRACE_ABOX, TRACE_ABSORBED],
                                 capture_output=True, text=True, env=env, check=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
        assert "unfold\tn2\tShort" in outputs[0]
        assert "merge\tn0\thas-temperature" in outputs[0]
        assert "[('t1', 't2')]" in outputs[0]


PINNED_TABLEAU = "1253133f2fb5eaa39e0cd281f0dc48aba01e46b9b9d970b7856125de0e50a798"


def test_output_is_pinned():
    # verdicts, clash traces, merges and witnesses of a seeded corpus in
    # every mode: the order in which rules fire decides all four
    import importlib.resources

    data = pathlib.Path(__file__).parent / "data"
    gas = importlib.resources.files("kedl.data").joinpath("gas.kedl").read_text()
    files = [parse_kb(text) for text in (gas, (data / "hierarchy.kedl").read_text(), (data / "abox.kedl").read_text())]
    rng = random.Random(1515)
    kbs = [(gen_kb if k % 2 else gen_atomic_gci_kb)(rng) for k in range(100)]
    for kb in kbs[::3]:  # a second r-value of o1 makes merges
        kb.sig.declare_individual("u2", Sort.ATTRIBUTE)
        kb.assert_role(R, "o1", "u2")
    # blocking cuts C1's p-chain at its fourth node; in exactly-one the
    # totality rule then gives the root an r-value, through which the root
    # gets all p C2 and its p-successor C2: that unblocks the fourth node,
    # whose exists rule must fire after all
    loop = parse_kb("oconcept C1; oconcept C2; orole p; xrole r; C1 <= some p C1;")
    unblocking = parse_concept("C1 and all r all inv(r) all p C2", loop.sig)
    digest = hashlib.sha256()

    def record(result):
        digest.update(f"{result.satisfiable} {result.merged_individuals}\n".encode())
        text = interpretation_to_text(result.witness) if result else trace_to_text(result.clash_trace)
        digest.update(text.encode())

    for mode in FunctionalityMode:
        for kb in kbs:
            tab = Tableau(kb, mode)
            record(tab.is_consistent())
            for sort in (Sort.OBJECT, Sort.ATTRIBUTE):
                record(tab.is_satisfiable(gen_nnf(rng, sort, 3), sort=sort))
            for individual, sort in (("o1", Sort.OBJECT), ("u1", Sort.ATTRIBUTE)):
                digest.update(str(tab.instance_of(individual, gen_nnf(rng, sort, 2))).encode())
        record(Tableau(loop, mode).is_satisfiable(unblocking))
        for kb in files:
            cells = _classification(kb, mode)
            digest.update(repr(cells and (cells[0], {s: sorted(pairs) for s, pairs in cells[1].items()})).encode())
    assert digest.hexdigest() == PINNED_TABLEAU


def _classification(kb, mode):
    try:
        result = classify(kb, mode=mode)
    except InconsistentKBError:
        return None
    return result.cells, result.leq


class TestAbsorption:
    def test_absorbing_changes_no_verdict(self):
        # an inclusion whose left side is a primitive atom A is absorbed into
        # A's unfolding; "A and top" on the left keeps it internalized in
        # every node, so the two KBs must get the same verdicts
        rng = random.Random(515)
        consistent_runs = 0
        for trial in range(60):
            kb = gen_atomic_gci_kb(rng)
            internalized = KnowledgeBase(
                sig=kb.sig,
                definitions=dict(kb.definitions),
                inclusions=[Inclusion(And(f.left, Top()), f.right, f.sort) if isinstance(f.left, Atom) else f
                            for f in kb.inclusions],
                abox=list(kb.abox),
            )
            queries = [(sort, gen_nnf(rng, sort, 2)) for sort in (Sort.OBJECT, Sort.ATTRIBUTE)]
            for mode in FunctionalityMode:
                consistent = is_consistent(kb, mode=mode).satisfiable
                assert consistent == is_consistent(internalized, mode=mode).satisfiable
                consistent_runs += consistent
                assert _classification(kb, mode) == _classification(internalized, mode)
                for sort, query in queries:
                    assert (is_satisfiable(query, kb, mode=mode, sort=sort).satisfiable
                            == is_satisfiable(query, internalized, mode=mode, sort=sort).satisfiable)
        assert 40 < consistent_runs < 140  # both verdicts occur


class TestSubsumption:
    def test_everything_below_top(self, kb):
        assert subsumes(kb, Atom("C1"), parse_concept("top", kb.sig))

    def test_exists_distributes_into_conjunction(self, kb):
        sub = parse_concept("some p (C1 and C2)", kb.sig)
        sup = parse_concept("some p C1 and some p C2", kb.sig)
        assert subsumes(kb, sub, sup)

    def test_exists_not_below_forall(self, kb):
        assert not subsumes(kb, parse_concept("some p C1", kb.sig), parse_concept("all p C1", kb.sig))

    def test_unfolds_definitions(self):
        kb = parse_kb(
            """
            oconcept Gas; aconcept GasComposition; aconcept Temperature;
            xrole has-composite; xrole has-temperature;
            Gas := some has-composite GasComposition and some has-temperature Temperature;
            """
        )
        assert subsumes(
            kb,
            parse_concept("Gas", kb.sig),
            parse_concept("some has-temperature Temperature", kb.sig),
        )

    def test_sort_mismatch_rejected(self, kb):
        from kedl import SortError

        with pytest.raises(SortError):
            subsumes(kb, Atom("C1"), Atom("A1"))

    def test_atom_pairs_keep_the_full_checks_errors(self, kb):
        # two atoms are sort-checked by their declared sorts alone; a
        # mismatch or an undeclared atom raises what check_sort raises
        from kedl import SortError
        from kedl.syntax import check_sort

        def error(call):
            with pytest.raises(SortError) as caught:
                call()
            return str(caught.value)

        tab = Tableau(kb)
        assert error(lambda: tab.subsumes(Atom("C1"), Atom("A1"))) == error(
            lambda: check_sort(Atom("A1"), kb.sig, expected=Sort.OBJECT))
        for sub, sup in ((Atom("Ghost"), Atom("C1")), (Atom("C1"), Atom("Ghost"))):
            assert error(lambda: tab.subsumes(sub, sup)) == error(lambda: check_sort(Atom("Ghost"), kb.sig))
        assert tab.subsumes(Atom("C1"), Atom("C1"))


class TestInstanceChecking:
    def test_direct_assertion(self):
        kb = parse_kb("oconcept C; oindividual c1; C(c1);")
        assert instance_of(kb, "c1", Atom("C"))

    def test_through_inclusion(self):
        kb = parse_kb("oconcept C; oconcept D; oindividual c1; C <= D; C(c1);")
        assert instance_of(kb, "c1", Atom("D"))

    def test_negative(self):
        kb = parse_kb("oconcept C; oindividual c1; C(c1);")
        assert not instance_of(kb, "c1", Not(Atom("C")))

    def test_undeclared_individual(self):
        kb = parse_kb("oconcept C;")
        from kedl import KedlError

        with pytest.raises(KedlError):
            instance_of(kb, "ghost", Atom("C"))


class TestClassify:
    def test_definition_places_atom_below_parts(self):
        kb = parse_kb("oconcept C; oconcept D; oconcept E; C := D and E;")
        result = classify(kb)
        assert result.below(Sort.OBJECT, "C", "D")
        assert result.below(Sort.OBJECT, "C", "E")
        assert not result.below(Sort.OBJECT, "D", "E")

    def test_equivalent_atoms_share_a_cell(self):
        kb = parse_kb("aconcept A; aconcept B; A := B or B;")
        result = classify(kb)
        assert ["A", "B"] in result.cells[Sort.ATTRIBUTE]

    def test_inconsistent_kb_is_reported(self):
        kb = parse_kb("oconcept C; oindividual c1; C <= bot; C(c1);")
        with pytest.raises(InconsistentKBError):
            classify(kb)


def _below_pairs(result) -> set[tuple[str, str]]:
    pairs = set()
    for sort, cells in result.cells.items():
        members = [m for cell in cells for m in cell]
        pairs |= {(a, b) for a in members for b in members if result.below(sort, a, b)}
    return pairs


class TestPooledClassification:
    """``classify`` refutes most pairs on a pool of certified witnesses
    instead of running the tableau; it must still agree with one fresh
    ``Tableau(kb, mode).subsumes`` per ordered pair."""

    @pytest.mark.parametrize("mode", list(FunctionalityMode), ids=str)
    def test_agrees_with_pairwise_subsumption(self, mode):
        kbs = [gen(random.Random(seed)) for seed in range(16) for gen in (gen_kb, gen_atomic_gci_kb)]
        kbs += [gen_hierarchy_kb(random.Random(seed)) for seed in range(12)]
        found = 0
        for kb in kbs:
            if not Tableau(kb, mode).is_consistent():
                with pytest.raises(InconsistentKBError):
                    classify(kb, mode)
                continue
            expected = {
                (a, b)
                for atoms in (sorted(kb.sig.object_atoms), sorted(kb.sig.attribute_atoms))
                for a in atoms
                for b in atoms
                if a == b or Tableau(kb, mode).subsumes(Atom(a), Atom(b))
            }
            assert _below_pairs(classify(kb, mode)) == expected
            found += sum(a != b for a, b in expected)
        # every hierarchy KB alone has at least 11 (its unsatisfiable atom
        # below six others, an equivalent pair, three attribute edges)
        assert found >= 11 * 12

    @pytest.mark.parametrize("mode", [FunctionalityMode.AT_MOST_ONE, FunctionalityMode.EXACTLY_ONE], ids=str)
    def test_gas_still_asks_every_pair(self, monkeypatch, mode):
        import importlib.resources

        from kedl.km import parse_km, render_kedl

        text = importlib.resources.files("kedl.data").joinpath("gas.km").read_text(encoding="utf-8")
        kb = parse_kb(render_kedl(parse_km(text)))
        calls = {"subsumes": 0, "is_consistent": 0, "_expand": 0}
        for name in calls:
            original = getattr(Tableau, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(Tableau, name, counted)
        classify(kb, mode)
        atoms = len(kb.sig.object_atoms) + len(kb.sig.attribute_atoms)
        assert (calls["subsumes"], calls["is_consistent"]) == (4 * 3 + 16 * 15, 1)
        assert calls["_expand"] <= 1 + atoms  # the pool refutes almost every pair

    def test_caller_held_tableau_runs_a_refuted_pair_once(self, monkeypatch):
        # the pool starts empty, so the first query runs the pair, and its
        # witness, a C outside D, refutes the same query asked again
        kb = parse_kb("oconcept C; oconcept D; orole r; C <= some r D;")
        tab = Tableau(kb)
        queries = []
        satisfiable = Tableau.is_satisfiable
        monkeypatch.setattr(Tableau, "is_satisfiable",
                            lambda self, expr, sort=None: queries.append(expr) or satisfiable(self, expr, sort))
        assert not tab.subsumes(Atom("C"), Atom("D"))
        assert queries == [And(Atom("C"), Not(Atom("D")))]
        queries.clear()
        assert not tab.subsumes(Atom("C"), Atom("D"))
        assert queries == []


class TestClassificationWork:
    """The tableau runs (``_expand`` calls) of ``classify``: one for
    consistency, one satisfiability test per atom that no pooled model
    populates yet, and one per pair that the pool leaves open."""

    @staticmethod
    def _classify(monkeypatch, kb, mode):
        """The classification and its queries to ``is_satisfiable``, and
        the number of tableau runs it took."""
        queries, runs = [], []
        expand, satisfiable = Tableau._expand, Tableau.is_satisfiable
        monkeypatch.setattr(Tableau, "_expand", lambda self, g: runs.append(1) or expand(self, g))
        monkeypatch.setattr(Tableau, "is_satisfiable",
                            lambda self, expr, sort=None: queries.append(expr) or satisfiable(self, expr, sort))
        return classify(kb, mode), queries, len(runs)

    @pytest.mark.parametrize("mode", list(FunctionalityMode), ids=str)
    def test_unsatisfiable_atom_costs_one_run(self, monkeypatch, mode):
        kb = parse_kb((pathlib.Path(__file__).parent / "data" / "hierarchy.kedl").read_text())
        _, queries, runs = self._classify(monkeypatch, kb, mode)
        sealed = Atom("Sealed-hazard")
        assert [q for q in queries if sealed in (q, getattr(q, "left", None))] == [sealed]
        assert runs == 19  # in every mode

    @pytest.mark.parametrize("mode", list(FunctionalityMode), ids=str)
    def test_km_ontology_runs(self, monkeypatch, mode):
        elements = parse_km(gen_km_text(random.Random(17), 60))
        kb = translate_to_kb(elements)
        result, _, runs = self._classify(monkeypatch, kb, mode)
        # the structural order: an object is below another when it has all
        # the other's attribute states; attribute states are incomparable
        attrs = {e.name: set(e.attributes) for e in elements if isinstance(e, ObjectKnowledgeElement)}
        expected = {(a, a) for a in kb.sig.attribute_atoms}
        expected |= {(a, b) for a in attrs for b in attrs if attrs[b] <= attrs[a]}
        assert _below_pairs(result) == expected
        atoms = len(kb.sig.object_atoms) + len(kb.sig.attribute_atoms)
        assert runs <= 1 + atoms + (len(expected) - atoms)
        assert runs == 193  # in every mode


class TestCompiledKB:
    """A KB is compiled once per revision and shared by every ``Tableau``
    over it; an edit made through the API after a query is compiled again
    at the next query, never answered from the old compile."""

    # (KB, query of a held Tableau, the edit, the answer before and after)
    EDITS = {
        "define": ("oconcept A; oconcept B;", lambda t: t.is_satisfiable(parse_concept("A and not B", t.sig)),
                   lambda kb: kb.define("A", Atom("B")), True, False),
        "include": ("oconcept A; oconcept B;", lambda t: t.is_satisfiable(Atom("A")),
                    lambda kb: kb.include(Atom("A"), Bot()), True, False),
        "assert_concept": ("oconcept A; oindividual a;", lambda t: t.instance_of("a", Atom("A")),
                           lambda kb: kb.assert_concept(Atom("A"), "a"), False, True),
        "assert_role": ("oconcept A; orole p; oindividual a; oindividual b; A(b);",
                        lambda t: t.instance_of("a", Exists(P, Atom("A"))),
                        lambda kb: kb.assert_role(P, "a", "b"), False, True),
    }

    @pytest.mark.parametrize("edit", list(EDITS))
    @pytest.mark.parametrize("mode", list(FunctionalityMode), ids=str)
    def test_edit_between_queries_is_answered(self, edit, mode):
        text, query, change, before, after = self.EDITS[edit]
        kb = parse_kb(text)
        tab = Tableau(kb, mode)
        assert bool(query(tab)) is before
        change(kb)
        assert bool(query(tab)) is after
        assert bool(query(Tableau(parse_kb(text), mode))) is before  # the edit, not the text, decides

    @pytest.mark.parametrize("declare", ["atom", "attribute atom", "role", "individual"])
    def test_declaration_between_queries(self, declare):
        from kedl.syntax import RoleKind

        kb = parse_kb("oconcept A; aconcept S; xrole r;")
        tab = Tableau(kb, FunctionalityMode.EXACTLY_ONE)
        assert tab.is_satisfiable(Atom("A"))
        if declare == "atom":
            kb.sig.declare_atom("C", Sort.OBJECT)
            witness = tab.is_satisfiable(Atom("C")).witness
            assert witness.concept_ext["C"]
        elif declare == "attribute atom":
            kb.sig.declare_atom("T", Sort.ATTRIBUTE)
            witness = tab.is_satisfiable(Atom("T")).witness
            assert witness.concept_ext["T"]
        elif declare == "role":
            kb.sig.declare_role("h", RoleKind.CROSS)
            witness = tab.is_satisfiable(Atom("A")).witness
            assert all(witness.role_ext["h"])  # totality: every object has an h-value
        else:
            kb.sig.declare_individual("c", Sort.OBJECT)
            witness = tab.is_satisfiable(Atom("A")).witness
            assert "c" in witness.ind_map
        assert validate_interpretation(witness) == []
        assert satisfies_kb(witness, kb)

    def test_one_compile_per_revision(self, monkeypatch):
        from kedl import tableau

        compiles = []
        init = tableau._CompiledKB.__init__
        monkeypatch.setattr(tableau._CompiledKB, "__init__", lambda self, kb: compiles.append(1) or init(self, kb))
        kb = parse_kb((pathlib.Path(__file__).parent / "data" / "hierarchy.kedl").read_text())
        assert Tableau(kb).is_consistent()
        compiled, ids = kb._compiled, len(kb._compiled.concepts.desc)
        for mode in FunctionalityMode:
            assert Tableau(kb, mode).is_consistent()
        assert kb._compiled is compiled and len(compiled.concepts.desc) == ids  # no new id for the KB
        classify(kb, FunctionalityMode.FREE)
        assert len(compiles) == 1
        kb.include(Atom("Sealed-hazard"), Atom("Sealed-hazard"))
        for mode in FunctionalityMode:
            assert Tableau(kb, mode).is_consistent()
        assert len(compiles) == 2 and kb._compiled is not compiled

    def test_second_consistency_check_interns_nothing(self, monkeypatch):
        # the compile interns and keys the ABox's concepts once
        from kedl.syntax import ConceptStore

        tab = Tableau(parse_kb((pathlib.Path(__file__).parent / "data" / "abox.kedl").read_text()))
        assert tab.is_consistent()
        interned = []
        intern = ConceptStore.intern
        monkeypatch.setattr(ConceptStore, "intern", lambda store, e: interned.append(e) or intern(store, e))
        assert tab.is_consistent()
        assert interned == []

    @pytest.mark.parametrize("path", ["gas", "abox"])
    def test_a_kb_is_interned_once(self, monkeypatch, path):
        # parse_kb makes the KB's one store, and the statements are sorted
        # there; the compile and the queries use it, so the first
        # consistency check makes no store and sorts no id, and a
        # subsumption with a compound side makes no store
        import importlib.resources

        from kedl import kb as kb_module, syntax
        from kedl.syntax import ConceptStore

        if path == "gas":
            text = importlib.resources.files("kedl.data").joinpath("gas.kedl").read_text()
        else:
            text = (pathlib.Path(__file__).parent / "data" / "abox.kedl").read_text()
        stores, sorted_ids = [], []
        init, sort_ids = ConceptStore.__init__, syntax.sort_ids
        monkeypatch.setattr(ConceptStore, "__init__", lambda store: stores.append(store) or init(store))

        def spy(store, ids, sig, sorts):
            ids = list(ids)
            sorted_ids.extend(ids)
            sort_ids(store, ids, sig, sorts)

        monkeypatch.setattr(syntax, "sort_ids", spy)
        monkeypatch.setattr(kb_module, "sort_ids", spy, raising=False)
        kb = parse_kb(text)
        assert stores == [kb.concepts] and sorted_ids
        stores.clear()
        sorted_ids.clear()
        tab = Tableau(kb)
        assert tab.is_consistent()
        assert stores == [] and sorted_ids == []
        a, b = sorted(kb.sig.object_atoms)[:2]
        assert tab.subsumes(And(Atom(a), Atom(b)), Atom(a))
        assert not tab.subsumes(Atom(a), And(Atom(a), Not(Atom(a))))
        assert stores == []


def _atom_queries(kb) -> list[tuple[str, str, str]]:
    """Every ordered pair of same-sort atoms, ``("subsumes", A, B)``, and
    every individual with every atom of its sort, ``("instance", a, A)``."""
    atoms = [sorted(kb.sig.object_atoms), sorted(kb.sig.attribute_atoms)]
    queries = [("subsumes", a, b) for names in atoms for a in names for b in names]
    return queries + [("instance", a, name) for a, sort in sorted(kb.sig.individuals.items())
                      for name in atoms[sort is Sort.ATTRIBUTE]]


def _ask(tab, query) -> bool:
    kind, x, name = query
    return tab.subsumes(Atom(x), Atom(name)) if kind == "subsumes" else tab.instance_of(x, Atom(name))


def _raw_verdict(kb, mode, query) -> bool:
    """The answer of a tableau run with no pool: ``A and not B`` is
    unsatisfiable, or the KB plus ``(not A)(a)`` is inconsistent."""
    kind, x, name = query
    if kind == "subsumes":
        return not Tableau(kb, mode).is_satisfiable(And(Atom(x), Not(Atom(name)))).satisfiable
    return not Tableau(_with_witness(kb, Not(Atom(name)), kb.sig.individuals[x], x), mode).is_consistent()


class TestHeldPool:
    """A held ``Tableau`` keeps a pool of certified models per compile of
    its KB: an atom ``subsumes`` or ``instance_of`` that a pooled model
    refutes makes no tableau run, and every edit and declaration drops the
    pool, so no model of an older revision refutes a query."""

    # (KB, an atom query of a held Tableau, the edit, the answer before and after)
    EDITS = {
        "define": ("oconcept A; oconcept B;", ("subsumes", "A", "B"),
                   lambda kb: kb.define("A", Atom("B")), False, True),
        "include": ("oconcept C; oconcept D; orole r; C <= some r D;", ("subsumes", "C", "D"),
                    lambda kb: kb.include(Atom("C"), Atom("D")), False, True),
        "assert_concept": ("oconcept A; oindividual a;", ("instance", "a", "A"),
                           lambda kb: kb.assert_concept(Atom("A"), "a"), False, True),
        "assert_role": ("oconcept A; oconcept B; orole p; oindividual a; oindividual b; A(b); some p A <= B;",
                        ("instance", "a", "B"), lambda kb: kb.assert_role(P, "a", "b"), False, True),
    }
    # a declaration changes no answer, but the new name must be read
    DECLARED = ("oconcept A; oconcept B; aconcept S; xrole r; oindividual a; aindividual s; A(a); S(s);",
                ("subsumes", "A", "B"))
    EDITS.update({
        "declare_atom": (*DECLARED, lambda kb: kb.sig.declare_atom("C", Sort.OBJECT), False, False),
        "declare_attribute_atom": (*DECLARED, lambda kb: kb.sig.declare_atom("T", Sort.ATTRIBUTE), False, False),
        "declare_role": (*DECLARED, lambda kb: kb.sig.declare_role("h", kedl.RoleKind.CROSS), False, False),
        "declare_individual": (*DECLARED, lambda kb: kb.sig.declare_individual("c", Sort.OBJECT), False, False),
    })

    @pytest.mark.parametrize("edit", list(EDITS))
    @pytest.mark.parametrize("mode", list(FunctionalityMode), ids=str)
    def test_a_stale_pool_is_never_read(self, edit, mode):
        # the second held Tableau meets the new revision first in a query
        # that reads no pool, so it has compiled it before its next atom query
        text, query, change, before, after = self.EDITS[edit]
        kb = parse_kb(text)
        held = [Tableau(kb, mode), Tableau(kb, mode)]
        for tab in held:
            answers = {q: _ask(tab, q) for q in _atom_queries(kb)}
            assert answers[query] is before and not all(answers.values())  # the pool has refuted a query
        change(kb)
        assert held[1].is_consistent()
        fresh = parse_kb(text)
        change(fresh)
        for tab in held:
            assert _ask(tab, query) is after
            for q in _atom_queries(kb):
                assert _ask(tab, q) == _raw_verdict(fresh, mode, q), q

    @staticmethod
    def _corpus() -> list:
        from kedl.km import render_kedl

        kbs = [gen(random.Random(seed)) for seed in range(10) for gen in (gen_kb, gen_atomic_gci_kb, gen_hierarchy_kb)]
        return kbs + [parse_kb(render_kedl(parse_km(gen_km_text(random.Random(1), 20))))]

    @pytest.mark.parametrize("mode", list(FunctionalityMode), ids=str)
    def test_held_answers_are_the_raw_verdicts(self, monkeypatch, mode):
        # one held Tableau per KB answers every atom query in a shuffled
        # order, twice; the second pass runs no tableau for a refuted query
        # and leaves the pool as it was
        runs = []
        expand = Tableau._expand
        monkeypatch.setattr(Tableau, "_expand", lambda self, g: runs.append(1) or expand(self, g))
        rng = random.Random(31)
        refuted = reused = 0
        for kb in self._corpus():
            queries = _atom_queries(kb)
            expected = {q: _raw_verdict(kb, mode, q) for q in queries}
            rng.shuffle(queries)
            tab = Tableau(kb, mode)
            for rerun in (False, True):
                if rerun:
                    sizes = (dict(tab._pool.size), set(tab._pool.unsatisfiable))
                for q in queries:
                    runs.clear()
                    assert _ask(tab, q) == expected[q], q
                    if rerun and not expected[q]:
                        assert runs == [], q
                    refuted += rerun and not expected[q]
                    reused += not rerun and not expected[q] and not runs  # refuted by another query's model
            assert (tab._pool.size, tab._pool.unsatisfiable) == sizes
        assert refuted >= 1200 and reused >= 1100  # 1,227-1,230 and 1,155-1,156

    def test_another_querys_model_refutes_with_no_run(self, monkeypatch):
        data = pathlib.Path(__file__).parent / "data"
        runs = []
        expand = Tableau._expand
        monkeypatch.setattr(Tableau, "_expand", lambda self, g: runs.append(1) or expand(self, g))
        for mode in FunctionalityMode:
            tab = Tableau(parse_kb((data / "hierarchy.kedl").read_text()), mode)
            assert not tab.subsumes(Atom("Site"), Atom("Hazard"))
            assert len(runs) == 1  # the pair, whose model has a Site outside Monitored-site
            runs.clear()
            assert not tab.subsumes(Atom("Site"), Atom("Monitored-site"))
            assert runs == []
            tab = Tableau(parse_kb((data / "abox.kedl").read_text()), mode)
            assert not tab.instance_of("sensor1", Atom("Tunnel"))
            assert len(runs) == 1  # the instance, whose model has tunnel1 outside Sensor, and a Sensor outside Tunnel
            runs.clear()
            assert not tab.instance_of("tunnel1", Atom("Sensor")) and not tab.subsumes(Atom("Sensor"), Atom("Tunnel"))
            assert runs == []

    # the five one-shot atom queries of the CI records loop, and their answers
    ONE_SHOT = [("hierarchy.kedl", ("subsumes", "Hazard", "Monitored-site"), True),
                ("hierarchy.kedl", ("subsumes", "Site", "Hazard"), False),
                ("hierarchy.kedl", ("subsumes", "Sealed-hazard", "Site"), True),
                ("abox.kedl", ("instance", "tunnel1", "Monitored-tunnel"), True),
                ("abox.kedl", ("instance", "sensor1", "Tunnel"), False)]

    @pytest.mark.parametrize("mode", list(FunctionalityMode), ids=str)
    def test_single_queries_cost_one_run(self, monkeypatch, mode):
        # the module-level functions answer one query with one run, as the
        # pair or the instance alone, however often it is asked
        data = pathlib.Path(__file__).parent / "data"
        runs = []
        expand = Tableau._expand
        monkeypatch.setattr(Tableau, "_expand", lambda self, g: runs.append(1) or expand(self, g))
        kbs = {path: parse_kb((data / path).read_text()) for path, _, _ in self.ONE_SHOT}
        for path, (kind, x, name), holds in self.ONE_SHOT:
            for _ in range(2):
                runs.clear()
                if kind == "subsumes":
                    assert subsumes(kbs[path], Atom(x), Atom(name), mode) is holds
                else:
                    assert instance_of(kbs[path], x, Atom(name), mode) is holds
                assert len(runs) == 1

    @pytest.mark.parametrize("mode", list(FunctionalityMode), ids=str)
    def test_a_held_tableaus_first_query_costs_one_run(self, monkeypatch, mode):
        # a fresh held Tableau's pool is empty, so its first atom query
        # makes as many runs as the module-level function: the pair or the
        # instance alone
        data = pathlib.Path(__file__).parent / "data"
        runs = []
        expand = Tableau._expand
        monkeypatch.setattr(Tableau, "_expand", lambda self, g: runs.append(1) or expand(self, g))
        for path, query, holds in self.ONE_SHOT:
            tab = Tableau(parse_kb((data / path).read_text()), mode)
            runs.clear()
            assert _ask(tab, query) is holds
            assert len(runs) == 1, query

    def test_a_rejected_pair_makes_no_run(self, monkeypatch):
        # a pair of an undeclared atom or of two sorts raises the full
        # check's SortError with no tableau run
        from kedl import SortError

        runs = []
        expand = Tableau._expand
        monkeypatch.setattr(Tableau, "_expand", lambda self, g: runs.append(1) or expand(self, g))
        tab = Tableau(parse_kb("oconcept C; aconcept S;"))
        for sub, sup in (("C", "S"), ("Ghost", "C"), ("C", "Ghost")):
            with pytest.raises(SortError):
                tab.subsumes(Atom(sub), Atom(sup))
        assert runs == []


class TestStatedConcepts:
    """The KB keeps the ids of each statement's concepts beside it, so the
    tableau compile finds every statement's ids with no walk."""

    def test_a_compile_walks_no_statement(self, monkeypatch):
        import importlib.resources

        from kedl import syntax

        walked = []
        fold = syntax._fold
        monkeypatch.setattr(syntax, "_fold", lambda e, *args: walked.append(e) or fold(e, *args))
        kb = parse_kb(importlib.resources.files("kedl.data").joinpath("gas.kedl").read_text())
        assert len(walked) == 6  # 4 definitions and 2 inclusion sides, as they are stated
        walked.clear()
        tab = Tableau(kb)
        assert tab.is_consistent()
        assert walked == []
        a, b = sorted(kb.sig.object_atoms)[:2]
        kb.sig.declare_atom("Sample", Sort.OBJECT)
        kb.sig.declare_individual("s1", Sort.OBJECT)
        for statement, concepts in ((lambda: kb.define("Sample", And(Atom(a), Atom(b))), 1),
                                    (lambda: kb.include(Atom(a), Not(Atom(b))), 2),
                                    (lambda: kb.assert_concept(Or(Atom("Sample"), Atom(b)), "s1"), 1)):
            walked.clear()
            statement()
            assert len(walked) == concepts
            walked.clear()
            tab.is_consistent()
            assert tab.compiled.revision == kb.revision and walked == []  # a new compile, no walk

    def test_statements_put_in_by_hand(self):
        # a statement added by hand is interned at the compile, and one
        # removed by hand leaves no ids behind
        kb = parse_kb("oconcept A; oconcept B; oconcept C; oindividual a; A <= B; B(a);")
        tab = Tableau(kb)
        assert tab.instance_of("a", Atom("B")) and not tab.instance_of("a", Atom("C"))
        by_hand = Inclusion(Atom("B"), Atom("C"), Sort.OBJECT)
        kb.inclusions.append(by_hand)
        assert tab.instance_of("a", Atom("C")) and tab.subsumes(Atom("A"), Atom("C"))
        removed = kb.inclusions.pop(0)
        assert not tab.subsumes(Atom("A"), Atom("C")) and tab.subsumes(Atom("B"), Atom("C"))
        kept = [statement for statement, _ in kb._stated.values()]
        assert any(s is by_hand for s in kept) and not any(s is removed for s in kept)

class TestQuerySort:
    """A query is interned into the compiled store in one walk, and its sort
    is read off its ids there; an ill-sorted one raises check_sort's error."""

    @staticmethod
    def abox():
        return parse_kb((pathlib.Path(__file__).parent / "data" / "abox.kedl").read_text())

    def test_a_query_is_walked_once(self, monkeypatch):
        from kedl import syntax

        kb = self.abox()
        tab = Tableau(kb)
        assert tab.is_consistent()
        query = parse_concept("Tunnel and some has-sensor (Sensor and not Tunnel)", kb.sig)
        walked = []
        fold = syntax._fold
        monkeypatch.setattr(syntax, "_fold", lambda e, *args: walked.append(e) or fold(e, *args))
        assert tab.is_satisfiable(query)
        assert len(walked) == 1 and walked[0] is query
        walked.clear()
        assert tab.instance_of("tunnel1", query)
        assert len(walked) == 1 and walked[0] is query

    def test_an_ill_sorted_query_raises_check_sorts_error(self):
        from kedl import SortError
        from kedl.syntax import RoleKind, RoleName, check_sort

        def error(call):
            with pytest.raises(SortError) as caught:
                call()
            return str(caught.value)

        kb = self.abox()
        tab = Tableau(kb)
        mixed = And(Atom("Tunnel"), Atom("Reading"))
        fresh = Tableau(self.abox())
        # the second query holds the first, whose ids the compiled store
        # then has below those of the second's first error
        for expr, sort in ((mixed, None), (Or(And(Atom("Sensor"), Atom("Methane-level")), mixed), None),
                           (Exists(RoleName("ghost", RoleKind.OBJ_OBJ), Atom("Sensor")), None),
                           (Exists(RoleName("has-sensor", RoleKind.CROSS), Atom("Reading")), None),
                           (Atom("Ghost"), None), (Atom("Reading"), Sort.OBJECT)):
            assert error(lambda: tab.is_satisfiable(expr, sort)) == error(
                lambda: check_sort(expr, kb.sig, expected=sort))
            assert error(lambda: tab.instance_of("tunnel1", expr)) == error(
                lambda: check_sort(expr, kb.sig, expected=Sort.OBJECT))
            # the next well-sorted queries are answered as a fresh Tableau answers them
            for query in (Atom("Reading"), And(Atom("Sensor"), Atom("Tunnel"))):
                held, new = tab.is_satisfiable(query), fresh.is_satisfiable(query)
                assert held.satisfiable == new.satisfiable and held.clash_trace == new.clash_trace
                assert held.witness is new.witness is None or (
                    interpretation_to_text(held.witness) == interpretation_to_text(new.witness))
            assert tab.instance_of("tunnel1", Atom("Monitored-tunnel"))
            assert not tab.instance_of("sensor1", Atom("Tunnel"))

class TestRejectedStatements:
    """An ill-sorted statement raises check_sort's error (an inclusion, its
    sides' or their disagreement), though the ids it interned stay in the
    KB's store; the KB then answers as one made of its accepted statements."""

    TEXT = (pathlib.Path(__file__).parent / "data" / "abox.kedl").read_text() + "oconcept Alarm; oconcept Leak;"
    MIXED = And(Atom("Tunnel"), Atom("Reading"))
    HAS_SENSOR = kedl.RoleName("has-sensor", kedl.RoleKind.OBJ_OBJ)
    # (method, arguments, the error's class and message; None if accepted)
    STATEMENTS = [
        ("define", ("Alarm", MIXED), "SortError: mixed-sort operands: Tunnel is object-sort but Reading is "
                                     "attribute-sort"),
        ("define", ("Alarm", Atom("Reading")), "SortError: expected a object-sort concept, found attribute-sort: "
                                               "Reading"),
        ("define", ("Alarm", kedl.Implies(Atom("Sensor"), Atom("Reading"))),
         "SortError: mixed-sort operands: not Sensor is object-sort but Reading is attribute-sort"),
        ("define", ("Alarm", Not(Atom("Alarm"))), "KnowledgeBaseError: cyclic definition through Alarm"),
        ("define", ("Ghost", Atom("Tunnel")), "SortError: undeclared concept name: Ghost"),
        ("define", ("Alarm", And(Atom("Tunnel"), Exists(HAS_SENSOR, Atom("Sensor")))), None),
        ("include", (Atom("Sensor"), Atom("Reading")),
         "SortError: sides differ in sort: Sensor is object-sort but Reading is attribute-sort"),
        # MIXED's ids come first in the KB's store; the error is still the
        # one check_sort meets first
        ("include", (Or(And(Atom("Sensor"), Atom("Methane-level")), MIXED), Atom("Tunnel")),
         "SortError: mixed-sort operands: Sensor is object-sort but Methane-level is attribute-sort"),
        ("include", (Top(), Or(Atom("Tunnel"), MIXED)),
         "SortError: mixed-sort operands: Tunnel is object-sort but Reading is attribute-sort"),
        ("include", (Exists(kedl.RoleName("has-sensor", kedl.RoleKind.CROSS), Atom("Reading")), Atom("Tunnel")),
         "SortError: role has-sensor is declared obj-obj, used as cross"),
        ("include", (Atom("Tunnel"), kedl.Forall(kedl.RoleName("ghost", kedl.RoleKind.OBJ_OBJ), Atom("Sensor"))),
         "SortError: undeclared role name: ghost"),
        ("include", (Exists(HAS_SENSOR, Atom("Reading")), Bot()),
         "SortError: quantifier over has-sensor needs a object-sort concept, found attribute-sort: Reading"),
        ("include", (And(Atom("Sensor"), Atom("Tunnel")), Bot()), None),
        ("include", (Atom("Leak"), Exists(HAS_SENSOR, Not(Atom("Sensor")))), None),
        ("assert_concept", (Atom("Reading"), "tunnel1"),
         "SortError: expected a object-sort concept, found attribute-sort: Reading"),
        ("assert_concept", (Or(Atom("Methane-level"), MIXED), "level1"),
         "SortError: mixed-sort operands: Tunnel is object-sort but Reading is attribute-sort"),
        ("assert_concept", (Atom("Ghost"), "tunnel1"), "SortError: undeclared concept name: Ghost"),
        ("assert_concept", (Atom("Tunnel"), "nobody"), "SortError: undeclared individual: nobody"),
        ("assert_concept", (Atom("Alarm"), "tunnel1"), None),
        ("assert_concept", (Or(Atom("Methane-level"), Not(Atom("Reading"))), "level1"), None),
    ]

    def test_a_rejected_statement_leaves_the_kb_as_it_was(self):
        kb, fresh = parse_kb(self.TEXT), parse_kb(self.TEXT)
        tab = Tableau(kb)
        assert tab.is_consistent()
        queries = [Atom("Reading"), And(Atom("Sensor"), Atom("Tunnel")), Atom("Leak"),
                   And(Atom("Alarm"), Not(Atom("Monitored-tunnel")))]
        for method, args, message in self.STATEMENTS:
            try:
                getattr(kb, method)(*args)
                error = None
            except kedl.KedlError as caught:
                error = f"{type(caught).__name__}: {caught}"
            assert error == message
            if message is None:
                getattr(fresh, method)(*args)
            assert (kb.definitions, kb.inclusions, kb.abox) == (fresh.definitions, fresh.inclusions, fresh.abox)
            new = Tableau(fresh)
            for held, made in [(tab.is_consistent(), new.is_consistent()),
                               *((tab.is_satisfiable(q), new.is_satisfiable(q)) for q in queries)]:
                assert held.satisfiable == made.satisfiable and held.clash_trace == made.clash_trace
                assert held.witness is made.witness is None or (
                    interpretation_to_text(held.witness) == interpretation_to_text(made.witness))
            assert tab.instance_of("tunnel1", Atom("Alarm")) == new.instance_of("tunnel1", Atom("Alarm"))
            for sub, sup in ((Atom("Alarm"), Atom("Monitored-tunnel")), (Atom("Leak"), Exists(self.HAS_SENSOR, Top()))):
                assert tab.subsumes(sub, sup) == new.subsumes(sub, sup)
        assert tab.subsumes(Atom("Alarm"), Atom("Monitored-tunnel"))
        assert tab.subsumes(Atom("Leak"), Exists(self.HAS_SENSOR, Top()))
        assert tab.instance_of("tunnel1", Atom("Alarm"))


def test_concept_keys_are_printed_forms():
    # a key is built from its operands' keys; it must be the printed form,
    # which orders every choice the tableau makes and appears in traces
    import importlib.resources

    data = pathlib.Path(__file__).parent / "data"
    texts = [importlib.resources.files("kedl.data").joinpath("gas.kedl").read_text(),
             (data / "hierarchy.kedl").read_text(), (data / "abox.kedl").read_text()]
    tableaux = [Tableau(parse_kb(text)) for text in texts]
    for tab in tableaux:
        tab.is_consistent()  # interns the definitions, inclusions and assertions
    random_concepts = Tableau(empty_diff_kb())
    random_concepts.is_consistent()
    rng = random.Random(1717)
    for _ in range(200):
        for sort in (Sort.OBJECT, Sort.ATTRIBUTE):
            random_concepts.compiled.concepts.intern(gen_nnf(rng, sort, 4))
    tableaux.append(random_concepts)
    for tab in tableaux:
        # the keys the tableau made, and through the store's printer those
        # of every other id, each checked against the rebuilt concept
        store, keys = tab.compiled.concepts, dict(tab.compiled.keys)
        for cid in range(len(store.desc)):
            assert store.text(cid, keys) == concept_to_str(store.concept(cid))
        assert len(keys) == len(store.desc)
    assert len(random_concepts.compiled.concepts.desc) > 1000


class TestOracleAgreement:
    def test_unsat_means_no_bounded_model_and_vice_versa(self, kb):
        rng = random.Random(99)
        for trial in range(60):
            sort = Sort.OBJECT if trial % 2 == 0 else Sort.ATTRIBUTE
            mode = (
                FunctionalityMode.AT_MOST_ONE,
                FunctionalityMode.EXACTLY_ONE,
            )[trial % 2]
            e = gen_nnf(rng, sort, 3)
            t = is_satisfiable(e, kb, mode=mode, sort=sort)
            o = find_model(e, Bounds(2, 2, mode), sig=kb.sig, sort=sort)
            assert not (isinstance(o, Model) and not t.satisfiable)

    def test_exactly_one_sat_implies_at_most_one_sat(self, kb):
        rng = random.Random(100)
        for trial in range(40):
            sort = Sort.OBJECT if trial % 2 == 0 else Sort.ATTRIBUTE
            e = gen_nnf(rng, sort, 3)
            strict = is_satisfiable(e, kb, mode=FunctionalityMode.EXACTLY_ONE, sort=sort)
            if strict.satisfiable:
                loose = is_satisfiable(e, kb, mode=FunctionalityMode.AT_MOST_ONE, sort=sort)
                assert loose.satisfiable

    @pytest.mark.parametrize("mode", list(FunctionalityMode), ids=str)
    def test_no_model_verdicts_on_random_kbs_have_no_bounded_model(self, mode):
        # every verdict that says no model exists -- an unsatisfiable query,
        # a subsumption or an instance that holds -- is audited by the
        # oracle on the same KB at (2,2); and find_model of a query w.r.t.
        # a KB agrees with a model search of the KB plus a fresh individual
        # asserted into the query
        rng = random.Random(8)
        bounds = Bounds(2, 2, mode)
        audited = {"unsatisfiable": 0, "subsumes": 0, "instance_of": 0, "sat_found": 0}
        for trial in range(120):
            kb = gen_kb(rng) if trial % 2 else gen_atomic_gci_kb(rng)
            tab = Tableau(kb, mode)
            sort = Sort.OBJECT if trial % 4 < 2 else Sort.ATTRIBUTE
            query = gen_nnf(rng, sort, 2)
            found = isinstance(find_model(query, bounds, sort=sort, kb=kb), Model)
            assert found == isinstance(find_model(_with_witness(kb, query, sort), bounds), Model)
            if tab.is_satisfiable(query, sort=sort).satisfiable:
                audited["sat_found"] += found
            else:
                assert not found
                audited["unsatisfiable"] += 1
            for _ in range(3):
                sort = rng.choice([Sort.OBJECT, Sort.ATTRIBUTE])
                atom = Atom(rng.choice(("C1", "C2") if sort is Sort.OBJECT else ("A1", "A2")))
                sub, sup = And(atom, gen_nnf(rng, sort, 1)), gen_nnf(rng, sort, 1)
                if tab.subsumes(sub, sup):
                    assert not isinstance(find_model(And(sub, Not(sup)), bounds, sort=sort, kb=kb), Model)
                    audited["subsumes"] += 1
            for individual, sort in (("o1", Sort.OBJECT), ("u1", Sort.ATTRIBUTE)):
                concept = gen_nnf(rng, sort, 1)
                if tab.instance_of(individual, concept):
                    refuting = _with_witness(kb, Not(concept), sort, individual)
                    assert not isinstance(find_model(refuting, bounds), Model)
                    audited["instance_of"] += 1
        assert audited["unsatisfiable"] >= 60 and audited["sat_found"] >= 20
        assert audited["subsumes"] >= 200 and audited["instance_of"] >= 150

    def test_random_kbs_with_gcis_and_definitions(self):
        # satisfiability w.r.t. a KB: whenever the oracle finds a bounded
        # model of the KB in which the query is non-empty, the tableau must
        # say satisfiable too
        from kedl.syntax import subexprs

        rng = random.Random(424242)
        oracle_models = {mode: 0 for mode in FunctionalityMode}
        for trial in range(120):
            sig = diff_signature()
            kb = KnowledgeBase(sig=sig)
            for _ in range(rng.randrange(3)):
                sort = rng.choice([Sort.OBJECT, Sort.ATTRIBUTE])
                kb.include(gen_nnf(rng, sort, 2), gen_nnf(rng, sort, 2))
            if rng.randrange(2) == 0:
                body = gen_nnf(rng, Sort.OBJECT, 2)
                if not any(isinstance(s, Atom) and s.name == "C1" for s in subexprs(body)):
                    kb.define("C1", body)
            sort = rng.choice([Sort.OBJECT, Sort.ATTRIBUTE])
            query = gen_nnf(rng, sort, 2)
            mode = rng.choice([FunctionalityMode.AT_MOST_ONE, FunctionalityMode.EXACTLY_ONE])
            # the drawn mode, then FREE on the same draw
            for each in (mode, FunctionalityMode.FREE):
                sat = is_satisfiable(query, kb, mode=each, sort=sort)
                if isinstance(find_model(query, Bounds(2, 2, each), sort=sort, kb=kb), Model):
                    oracle_models[each] += 1
                    assert sat.satisfiable
        free = oracle_models.pop(FunctionalityMode.FREE)
        assert sum(oracle_models.values()) > 40
        assert free > 40  # 96

    def test_random_kbs_with_atomic_gcis_in_every_mode(self):
        # the same one-way check over KBs whose inclusions the tableau mostly
        # absorbs, with the ABox kept, in all three modes including FREE
        rng = random.Random(434343)
        oracle_models = {mode: 0 for mode in FunctionalityMode}
        for trial in range(150):
            kb = gen_atomic_gci_kb(rng)
            sort = rng.choice([Sort.OBJECT, Sort.ATTRIBUTE])
            query = gen_nnf(rng, sort, 2)
            mode = list(FunctionalityMode)[trial % 3]

            sat = is_satisfiable(query, kb, mode=mode, sort=sort)
            if isinstance(find_model(query, Bounds(2, 2, mode), sort=sort, kb=kb), Model):
                oracle_models[mode] += 1
                assert sat.satisfiable
        assert min(oracle_models.values()) >= 8  # at-most-one 16, exactly-one 10, free 18


def _with_witness(kb, concept, sort, individual="w0"):
    """A copy of the KB that asserts the concept of the individual, which
    is declared fresh, at the concept's sort, unless the KB has it."""
    from kedl.kb import ConceptAssertion

    out = KnowledgeBase(sig=kb.sig.copy(), definitions=dict(kb.definitions),
                        inclusions=list(kb.inclusions), abox=list(kb.abox))
    if individual not in out.sig.individuals:
        out.sig.declare_individual(individual, sort)
    out.abox.append(ConceptAssertion(concept, individual))
    return out
