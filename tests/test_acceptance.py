"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import importlib.resources
import random
import time

from kedl import (
    Atom,
    Bounds,
    Exists,
    InternedConcepts,
    KnowledgeBase,
    Model,
    NoModelUpToBound,
    RoleKind,
    Signature,
    Sort,
    enumerate_interpretations,
    find_model,
    is_consistent,
    is_satisfiable,
    parse_concept,
    parse_kb,
    parse_km,
    render_kedl,
    subsumes,
    to_nnf,
    desugar,
    verify_suite,
)
from kedl.semantics import FunctionalityMode
from kedl.syntax import Forall, subexprs
from kedl.tableau import Tableau

from generators import empty_diff_kb, gen_concept, gen_nnf


def report(name: str, ok: bool, seconds: float, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}  ({seconds:.2f}s)  {detail}")
    assert ok, f"{name}: {detail}"


def data_text(name: str) -> str:
    return importlib.resources.files("kedl.data").joinpath(name).read_text(encoding="utf-8")


def test_criterion_1_axiom_suite():
    """All 21 axioms: negation of each arrow form unsatisfiable by tableau;
    sort-ambiguous schemas (1-3, 18-21) in both sorts.  Budget: 5 s."""
    start = time.perf_counter()
    checks = verify_suite()
    axioms = [c for c in checks if c.item_id.startswith("axiom")]
    elapsed = time.perf_counter() - start

    ids = {c.item_id for c in axioms}
    assert len(ids) == 21
    both_sorts = {c.item_id for c in axioms if c.sort is Sort.ATTRIBUTE} & {
        c.item_id for c in axioms if c.sort is Sort.OBJECT
    }
    assert {f"axiom{n}" for n in (1, 2, 3, 18, 19, 20, 21)} <= both_sorts

    failed = [c for c in axioms if not c.tableau_ok]
    ok = not failed and elapsed < 5.0
    report(
        "criterion-1 axiom-suite",
        ok,
        elapsed,
        f"{len(ids) - len({c.item_id for c in failed})}/21 axioms, "
        f"{len(axioms)} tableau checks",
    )


def test_criterion_2_property_suite():
    """Properties 1-12: every biconditional, both directions, both sorts,
    by tableau and by oracle at bounds (2,2).  Budget: 30 s."""
    start = time.perf_counter()
    checks = verify_suite(bounds=Bounds(2, 2))
    props = [c for c in checks if c.item_id.startswith("property")]
    elapsed = time.perf_counter() - start

    assert len(props) >= 19
    failed = [c for c in props if not (c.tableau_ok and c.oracle_ok)]
    ok = not failed and elapsed < 30.0
    report(
        "criterion-2 property-suite",
        ok,
        elapsed,
        f"{len(props) - len(failed)}/{len(props)} checks "
        f"(tableau and oracle, zero countermodels at (2,2))",
    )


def test_criterion_3_differential():
    """500 random well-sorted NNF concepts (depth <= 3) over 2+2 atoms and
    one role per family, both functionality modes: oracle-Model implies
    tableau-Satisfiable and tableau-Unsatisfiable implies
    oracle-NoModelUpToBound(3,3).  Budget: 2 min."""
    start = time.perf_counter()
    kb = empty_diff_kb()
    rng = random.Random(20260810)
    violations = []
    tableau_unsat = oracle_models = 0
    for k in range(500):
        sort = Sort.OBJECT if k % 2 == 0 else Sort.ATTRIBUTE
        expr = gen_nnf(rng, sort, 3)
        for mode in (FunctionalityMode.AT_MOST_ONE, FunctionalityMode.EXACTLY_ONE):
            sat = Tableau(kb, mode).is_satisfiable(expr, sort=sort)
            verdict = find_model(expr, Bounds(3, 3, mode), sig=kb.sig, sort=sort)
            if isinstance(verdict, Model):
                oracle_models += 1
            if not sat.satisfiable:
                tableau_unsat += 1
                if not isinstance(verdict, NoModelUpToBound):
                    violations.append((expr, mode))
            if isinstance(verdict, Model) and not sat.satisfiable:
                violations.append((expr, mode))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 120.0
    report(
        "criterion-3 differential",
        ok,
        elapsed,
        f"1000 engine pairs, {tableau_unsat} tableau-unsat, "
        f"{oracle_models} oracle-models, {len(violations)} violations",
    )


def test_criterion_4_corpus(tmp_path):
    """The bundled knowledge-element corpus: golden translation, consistency,
    the location subsumption, and the constrained-tunnel concept.
    Budget: 1 s."""
    start = time.perf_counter()
    elements = parse_km(data_text("gas.km"))
    rendered = render_kedl(elements)
    golden_ok = rendered == data_text("gas.kedl")

    kb = parse_kb(rendered)
    consistent = is_consistent(kb).satisfiable
    subsumption = subsumes(
        kb,
        parse_concept("Gas-explosion", kb.sig),
        parse_concept("some has-location Location", kb.sig),
    )
    constrained = is_satisfiable(
        parse_concept("Tunnel and some has-length (some more-than Meters1200)", kb.sig), kb
    ).satisfiable
    elapsed = time.perf_counter() - start
    ok = golden_ok and consistent and subsumption and constrained and elapsed < 1.0
    report(
        "criterion-4 corpus",
        ok,
        elapsed,
        f"golden={golden_ok} consistent={consistent} "
        f"location-subsumption={subsumption} constrained-tunnel={constrained}",
    )


def test_criterion_5_functionality_semantics():
    """Cross-role functionality: the shared-successor ABox is inconsistent
    under at-most-one, and exists r A and exists r (not A) is unsatisfiable
    with the empty TBox exactly while the functionality constraint is on."""
    start = time.perf_counter()
    kb = parse_kb(
        """
        aconcept A; xrole has-r;
        oindividual c1; aindividual u1; aindividual u2;
        has-r(c1,u1); has-r(c1,u2);
        A(u1); (not A)(u2);
        """
    )
    abox_inconsistent = not is_consistent(kb, mode=FunctionalityMode.AT_MOST_ONE).satisfiable

    sig = Signature()
    sig.declare_atom("A", Sort.ATTRIBUTE)
    sig.declare_role("r", RoleKind.CROSS)
    empty = KnowledgeBase(sig=sig)
    split = parse_concept("some r A and some r (not A)", sig)

    tableau_unsat = not is_satisfiable(split, empty, mode=FunctionalityMode.AT_MOST_ONE).satisfiable
    oracle_unsat = isinstance(
        find_model(split, Bounds(3, 3, FunctionalityMode.AT_MOST_ONE), sig=sig),
        NoModelUpToBound,
    )
    oracle_free_sat = isinstance(
        find_model(split, Bounds(3, 3, FunctionalityMode.FREE), sig=sig), Model
    )
    elapsed = time.perf_counter() - start
    ok = abox_inconsistent and tableau_unsat and oracle_unsat and oracle_free_sat
    report(
        "criterion-5 functionality",
        ok,
        elapsed,
        f"abox-inconsistent={abox_inconsistent} tableau-unsat={tableau_unsat} "
        f"oracle-unsat={oracle_unsat} oracle-sat-without-functionality={oracle_free_sat}",
    )


def test_criterion_6_nnf_soundness():
    """200 random expressions: the extension of e equals the extension of
    to_nnf(desugar(e)) in every interpretation at bounds (2,2) over the
    symbols the expression mentions."""
    start = time.perf_counter()
    rng = random.Random(97)
    failures = 0
    interps_checked = 0
    for k in range(200):
        sort = Sort.OBJECT if k % 2 == 0 else Sort.ATTRIBUTE
        expr = gen_concept(rng, sort, 3)
        normal = to_nnf(desugar(expr))
        sig, pair = _projection(expr), InternedConcepts([(expr, sort), (normal, sort)])
        for i in enumerate_interpretations(sig, Bounds(2, 2)):
            interps_checked += 1
            left, right = pair.extensions(i)
            if left != right:
                failures += 1
                break
    elapsed = time.perf_counter() - start
    ok = failures == 0
    report(
        "criterion-6 nnf-soundness",
        ok,
        elapsed,
        f"200 expressions, {interps_checked} interpretations, {failures} failures",
    )


def _projection(expr) -> Signature:
    """Signature over exactly the names in expr (its NNF uses the same)."""
    sig = Signature()
    kinds = {"p": RoleKind.OBJ_OBJ, "q": RoleKind.ATTR_ATTR, "r": RoleKind.CROSS}
    for sub in subexprs(expr):
        if isinstance(sub, Atom) and not sig.has_atom(sub.name):
            sig.declare_atom(sub.name, Sort.OBJECT if sub.name.startswith("C") else Sort.ATTRIBUTE)
        if isinstance(sub, (Exists, Forall)) and sub.role.name not in sig.roles:
            sig.declare_role(sub.role.name, kinds[sub.role.name])
    return sig
