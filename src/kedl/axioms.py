"""Verification suite: the KEDL axiom and property catalog, checked twice.

Every item is a statement-level formula built from placeholder atoms.  The
suite proves each one with the tableau (the negation of the arrow form must
be unsatisfiable) and independently with the bounded oracle (no countermodel
up to the given bounds).  Schemas whose placeholders are not tied to a role
family are instantiated in both sorts; role schemas run in their fixed sort.

Rule-style axioms (18-21) are internalized: the premises become a
conjunction on the left of an arrow, e.g. modus ponens for assertions
becomes ``(phi and (phi => psi)) => psi``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from .kb import Equivalence, Formula, Inclusion, KnowledgeBase, refutation_goals
from .oracle import Bounds, NoCountermodelUpToBound, check_validity_bounded
from .syntax import (
    And,
    Atom,
    Bot,
    ConceptExpr,
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
    Top,
)
from .tableau import Tableau


def suite_signature() -> Signature:
    """Placeholder vocabulary shared by every suite item."""
    sig = Signature()
    for name in ("C1", "C2", "C3"):
        sig.declare_atom(name, Sort.OBJECT)
    for name in ("A1", "A2", "A3"):
        sig.declare_atom(name, Sort.ATTRIBUTE)
    sig.declare_role("p", RoleKind.OBJ_OBJ)
    sig.declare_role("q", RoleKind.ATTR_ATTR)
    sig.declare_role("r", RoleKind.CROSS)
    return sig


_P = RoleName("p", RoleKind.OBJ_OBJ)
_Q = RoleName("q", RoleKind.ATTR_ATTR)
_R = RoleName("r", RoleKind.CROSS)
_R_INV = RoleName("r", RoleKind.CROSS_INVERSE)

BOTH_SORTS = (Sort.OBJECT, Sort.ATTRIBUTE)


@dataclass(frozen=True)
class SuiteItem:
    item_id: str
    description: str
    sorts: tuple[Sort, ...]
    build: Callable[[Sort], Formula]


def _placeholders(sort: Sort) -> tuple[ConceptExpr, ConceptExpr, ConceptExpr]:
    names = ("C1", "C2", "C3") if sort is Sort.OBJECT else ("A1", "A2", "A3")
    return Atom(names[0]), Atom(names[1]), Atom(names[2])


def _quantifier_schema(role: RoleName, shape: str) -> Callable[[Sort], Formula]:
    """The three distribution schemas shared by every role family."""
    filler_sort = role.target_sort

    def build(_: Sort) -> Formula:
        a, b, _g = _placeholders(filler_sort)
        if shape == "or":
            return Inclusion(Or(Exists(role, a), Exists(role, b)), Exists(role, Or(a, b)))
        if shape == "and":
            return Inclusion(Exists(role, And(a, b)), And(Exists(role, a), Exists(role, b)))
        return Inclusion(And(Exists(role, a), Forall(role, b)), Exists(role, And(a, b)))

    return build


def axiom_items() -> list[SuiteItem]:
    items: list[SuiteItem] = []

    def schematic(n: int, desc: str, build: Callable[[Sort], Formula]) -> None:
        items.append(SuiteItem(f"axiom{n}", desc, BOTH_SORTS, build))

    def fixed(n: int, desc: str, sort: Sort, build: Callable[[Sort], Formula]) -> None:
        items.append(SuiteItem(f"axiom{n}", desc, (sort,), build))

    def ax1(sort: Sort) -> Formula:
        phi, psi, _ = _placeholders(sort)
        return Inclusion(phi, Implies(psi, phi), sort)

    def ax2(sort: Sort) -> Formula:
        phi, psi, gam = _placeholders(sort)
        return Inclusion(
            Implies(phi, Implies(psi, gam)),
            Implies(Implies(phi, psi), Implies(phi, gam)),
            sort,
        )

    def ax3(sort: Sort) -> Formula:
        phi, psi, _ = _placeholders(sort)
        return Inclusion(Implies(Not(phi), Not(psi)), Implies(psi, phi), sort)

    schematic(1, "weakening", ax1)
    schematic(2, "implication self-distribution", ax2)
    schematic(3, "contraposition", ax3)

    fixed(4, "object role: union distributes over exists", Sort.OBJECT, _quantifier_schema(_P, "or"))
    fixed(5, "object role: exists of intersection splits", Sort.OBJECT, _quantifier_schema(_P, "and"))
    fixed(6, "object role: exists meets forall", Sort.OBJECT, _quantifier_schema(_P, "mix"))
    fixed(7, "attribute role: union distributes over exists", Sort.ATTRIBUTE, _quantifier_schema(_Q, "or"))
    fixed(8, "attribute role: exists of intersection splits", Sort.ATTRIBUTE, _quantifier_schema(_Q, "and"))
    fixed(9, "attribute role: exists meets forall", Sort.ATTRIBUTE, _quantifier_schema(_Q, "mix"))
    fixed(10, "cross role: union distributes over exists", Sort.OBJECT, _quantifier_schema(_R, "or"))
    fixed(11, "cross role: exists of intersection splits", Sort.OBJECT, _quantifier_schema(_R, "and"))
    fixed(12, "cross role: exists meets forall", Sort.OBJECT, _quantifier_schema(_R, "mix"))
    fixed(13, "inverse cross role: union distributes over exists", Sort.ATTRIBUTE, _quantifier_schema(_R_INV, "or"))
    fixed(14, "inverse cross role: exists of intersection splits", Sort.ATTRIBUTE, _quantifier_schema(_R_INV, "and"))
    fixed(15, "inverse cross role: exists meets forall", Sort.ATTRIBUTE, _quantifier_schema(_R_INV, "mix"))

    def ax16(_: Sort) -> Formula:
        a = Atom("A1")
        return Inclusion(Exists(_R_INV, Forall(_R, a)), a)

    def ax17(_: Sort) -> Formula:
        c = Atom("C1")
        return Inclusion(Exists(_R, Forall(_R_INV, c)), c)

    fixed(16, "value seen from every source lands back", Sort.ATTRIBUTE, ax16)
    fixed(17, "source seen from its every value lands back", Sort.OBJECT, ax17)

    def ax18(sort: Sort) -> Formula:
        phi, psi, _ = _placeholders(sort)
        return Inclusion(And(phi, Implies(phi, psi)), psi, sort)

    def ax19(sort: Sort) -> Formula:
        phi, psi, _ = _placeholders(sort)
        return Inclusion(And(Implies(phi, psi), Implies(psi, phi)), Iff(phi, psi), sort)

    def ax20(sort: Sort) -> Formula:
        phi, psi, gam = _placeholders(sort)
        return Inclusion(And(Implies(phi, psi), Implies(psi, gam)), Implies(phi, gam), sort)

    def ax21(sort: Sort) -> Formula:
        phi, psi, gam = _placeholders(sort)
        return Equivalence(
            Implies(phi, And(psi, gam)),
            And(Implies(phi, psi), Implies(phi, gam)),
            sort,
        )

    schematic(18, "modus ponens, internalized", ax18)
    schematic(19, "mutual implication yields equivalence", ax19)
    schematic(20, "implication chains compose", ax20)
    schematic(21, "implication into an intersection splits", ax21)
    return items


def property_items() -> list[SuiteItem]:
    specs: list[tuple[str, str, Callable[[ConceptExpr, ConceptExpr, ConceptExpr], tuple[ConceptExpr, ConceptExpr]]]] = [
        ("property1.1", "idempotence of and", lambda f, s, g: (And(f, f), f)),
        ("property1.2", "idempotence of or", lambda f, s, g: (Or(f, f), f)),
        ("property2.1", "commutativity of and", lambda f, s, g: (And(f, s), And(s, f))),
        ("property2.2", "commutativity of or", lambda f, s, g: (Or(f, s), Or(s, f))),
        ("property3.1", "associativity of and", lambda f, s, g: (And(And(f, s), g), And(f, And(s, g)))),
        ("property3.2", "associativity of or", lambda f, s, g: (Or(Or(f, s), g), Or(f, Or(s, g)))),
        ("property4.1", "or distributes over and", lambda f, s, g: (Or(f, And(s, g)), And(Or(f, s), Or(f, g)))),
        ("property4.2", "and distributes over or", lambda f, s, g: (And(f, Or(s, g)), Or(And(f, s), And(f, g)))),
        ("property5.1", "bot is neutral for or", lambda f, s, g: (Or(f, Bot()), f)),
        ("property5.2", "top is neutral for and", lambda f, s, g: (And(f, Top()), f)),
        ("property6.1", "top absorbs or", lambda f, s, g: (Or(f, Top()), Top())),
        ("property6.2", "bot absorbs and", lambda f, s, g: (And(f, Bot()), Bot())),
        ("property7", "excluded middle", lambda f, s, g: (Or(Not(f), f), Top())),
        ("property8", "contradiction", lambda f, s, g: (And(f, Not(f)), Bot())),
        ("property9.1", "absorption of and into or", lambda f, s, g: (Or(f, And(f, s)), f)),
        ("property9.2", "absorption of or into and", lambda f, s, g: (And(f, Or(f, s)), f)),
        ("property10.1", "negation of and", lambda f, s, g: (Not(And(f, s)), Or(Not(f), Not(s)))),
        ("property10.2", "negation of or", lambda f, s, g: (Not(Or(f, s)), And(Not(f), Not(s)))),
        ("property11.1", "negation of bot", lambda f, s, g: (Not(Bot()), Top())),
        ("property11.2", "negation of top", lambda f, s, g: (Not(Top()), Bot())),
        ("property12", "double negation", lambda f, s, g: (Not(Not(f)), f)),
    ]

    items = []
    for item_id, desc, shape in specs:
        def build(sort: Sort, shape=shape) -> Formula:
            phi, psi, gam = _placeholders(sort)
            left, right = shape(phi, psi, gam)
            return Equivalence(left, right, sort)

        items.append(SuiteItem(item_id, desc, BOTH_SORTS, build))
    return items


def all_items() -> list[SuiteItem]:
    return axiom_items() + property_items()


@dataclass
class SuiteCheck:
    item_id: str
    description: str
    sort: Sort
    tableau_ok: bool
    oracle_ok: bool
    seconds: float

    @property
    def ok(self) -> bool:
        return self.tableau_ok and self.oracle_ok


def verify_suite(bounds: Bounds = Bounds(2, 2), only: Optional[str] = None) -> list[SuiteCheck]:
    """Run the whole catalog, or only the item whose id is ``only`` and the
    items numbered below it: ``property1`` selects ``property1.1`` and
    ``property1.2`` but not ``property10.1``, and ``axiom1`` not ``axiom10``.
    The tableau and the oracle both run in ``bounds.mode``."""
    sig = suite_signature()
    kb = KnowledgeBase(sig=sig)
    tableau = Tableau(kb, bounds.mode)
    results: list[SuiteCheck] = []
    for item in all_items():
        if only is not None and item.item_id != only and not item.item_id.startswith(only + "."):
            continue
        for sort in item.sorts:
            start = time.perf_counter()
            formula = item.build(sort)
            tableau_ok = all(
                not tableau.is_satisfiable(goal, sort=sort).satisfiable
                for goal in refutation_goals(formula)
            )
            verdict = check_validity_bounded(formula, bounds, sig)
            oracle_ok = isinstance(verdict, NoCountermodelUpToBound)
            results.append(
                SuiteCheck(
                    item_id=item.item_id,
                    description=item.description,
                    sort=sort,
                    tableau_ok=tableau_ok,
                    oracle_ok=oracle_ok,
                    seconds=time.perf_counter() - start,
                )
            )
    return results
