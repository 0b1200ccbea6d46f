"""Knowledge bases: TBox statements, ABox assertions, and formula views.

A knowledge base bundles a signature with:

* definitions   -- ``X := C`` (acyclic, one per atom; equivalences)
* inclusions    -- ``C <= D`` (general inclusions, each with its sort)
* abox          -- concept and role assertions over declared individuals

``Formula`` is the statement-level syntax checked by the model evaluator:
inclusions, equivalences, and assertions.  A knowledge base keeps one
concept store: ``KnowledgeBase.intern`` interns each concept a statement or
a tableau query reads into it and sorts its new ids there, once, and the
tableau compiles the KB over the same store.  An inclusion's sort is
decided once, by ``include``, and a definition's is its atom's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

from .syntax import (
    And,
    Atom,
    ConceptExpr,
    ConceptStore,
    KedlError,
    Not,
    RoleName,
    Signature,
    Sort,
    SortError,
    check_sort,
    expect_sort,
    infer_sort,
    sort_ids,
    subexprs,
)


@dataclass(frozen=True)
class ConceptAssertion:
    """``C(c)``: the individual belongs to the concept (name or expression)."""

    concept: ConceptExpr
    individual: str

    def __str__(self) -> str:
        return f"({self.concept})({self.individual})"


@dataclass(frozen=True)
class RoleAssertion:
    """``R(c, d)``: the pair of individuals is in the role's extension."""

    role: RoleName
    source: str
    target: str

    def __str__(self) -> str:
        return f"{self.role}({self.source},{self.target})"


Assertion = Union[ConceptAssertion, RoleAssertion]


@dataclass(frozen=True)
class Inclusion:
    """``C <= D``, its sides read at ``sort``; None means it is inferred.  A
    KB keeps None only for sides made of ``top`` and ``bot`` alone, which the
    tableau reads at both sorts and the evaluator at object sort."""

    left: ConceptExpr
    right: ConceptExpr
    sort: Optional[Sort] = None

    def __str__(self) -> str:
        return f"{self.left} <= {self.right}"


@dataclass(frozen=True)
class Equivalence:
    """``C == D``, its sides read at ``sort``; None means it is inferred."""

    left: ConceptExpr
    right: ConceptExpr
    sort: Optional[Sort] = None

    def __str__(self) -> str:
        return f"{self.left} == {self.right}"


@dataclass(frozen=True)
class AssertionFormula:
    assertion: Assertion

    def __str__(self) -> str:
        return str(self.assertion)


Formula = Union[Inclusion, Equivalence, AssertionFormula]


def formula_sort(f: Union[Inclusion, Equivalence], sig: Signature) -> Sort:
    """The sort ``f``'s sides are evaluated at: ``f.sort``, inferred only
    when that is None, as the sort of ``left and right``, and object sort
    when both sides are polymorphic."""
    return f.sort or infer_sort(And(f.left, f.right), sig) or Sort.OBJECT


def refutation_goals(f: Union[Inclusion, Equivalence]) -> list[ConceptExpr]:
    """The concepts that have an instance exactly where the formula fails
    (universal reading): ``L and not R``, and for an equivalence also
    ``R and not L``."""
    goals: list[ConceptExpr] = [And(f.left, Not(f.right))]
    if isinstance(f, Equivalence):
        goals.append(And(f.right, Not(f.left)))
    return goals


class KnowledgeBaseError(KedlError):
    pass


@dataclass
class KnowledgeBase:
    """A signature and the statements over it, edited through ``define``,
    ``include``, ``assert_concept``, ``assert_role`` and ``sig.declare_*``:
    each checks its statement, and each changes the ``revision``.  Its
    concepts live in one store, ``concepts``, shared by the tableau's
    compile and queries; ``sorts`` holds the sort of each id that
    :meth:`intern` has read."""

    sig: Signature = field(default_factory=Signature)
    definitions: dict[str, ConceptExpr] = field(default_factory=dict)
    inclusions: list[Inclusion] = field(default_factory=list)
    abox: list[Assertion] = field(default_factory=list)
    concepts: ConceptStore = field(default_factory=ConceptStore, init=False, repr=False, compare=False)
    sorts: dict[int, Optional[Sort]] = field(default_factory=dict, init=False, repr=False, compare=False)
    _compiled: Any = field(default=None, init=False, repr=False, compare=False)  # by the tableau

    @property
    def revision(self) -> tuple[int, ...]:
        """The sizes of its tables and its signature's: every edit through
        the API adds to one (``define`` undoes a definition it rejects)."""
        sig = self.sig
        return (len(self.definitions), len(self.inclusions), len(self.abox), len(sig.object_atoms),
                len(sig.attribute_atoms), len(sig.roles), len(sig.individuals))

    def intern(self, e: ConceptExpr, expected: Optional[Sort] = None) -> tuple[int, Sort]:
        """The id of ``e`` in ``concepts``, interned in one walk, and its
        sort by :func:`check_sort` with ``expected`` the expected sort, read
        by :func:`sort_ids` off the ids ``sorts`` lacks (a declaration only
        adds names, so a sort once read stays right).  An ill-sorted ``e``
        raises check_sort's error, which need not be the first the loop
        meets: the ids ``e`` shares with earlier concepts come first."""
        store, sorts = self.concepts, self.sorts
        i = store.intern(e)
        try:
            sort_ids(store, store.order((i,), sorts), self.sig, sorts)
            return i, expect_sort(e, sorts[i], expected)
        except SortError:
            check_sort(e, self.sig, expected)
            raise

    def define(self, name: str, expr: ConceptExpr) -> None:
        if name in self.definitions:
            raise KnowledgeBaseError(f"duplicate definition for {name}")
        self.intern(expr, self.sig.atom_sort(name))
        self.definitions[name] = expr
        try:
            self._check_acyclic(name)
        except KnowledgeBaseError:
            del self.definitions[name]
            raise

    def include(self, left: ConceptExpr, right: ConceptExpr) -> None:
        ls, rs = (self.sorts[self.intern(side)[0]] for side in (left, right))
        if ls is not None and rs is not None and ls is not rs:
            raise SortError(f"sides differ in sort: {left} is {ls}-sort but {right} is {rs}-sort", ls, rs)
        self.inclusions.append(Inclusion(left, right, ls or rs))

    def assert_concept(self, concept: ConceptExpr, individual: str) -> None:
        if individual not in self.sig.individuals:
            raise SortError(f"undeclared individual: {individual}")
        self.intern(concept, self.sig.individuals[individual])
        self.abox.append(ConceptAssertion(concept, individual))

    def assert_role(self, role: RoleName, source: str, target: str) -> None:
        for ind, want in ((source, role.source_sort), (target, role.target_sort)):
            if ind not in self.sig.individuals:
                raise SortError(f"undeclared individual: {ind}")
            if self.sig.individuals[ind] is not want:
                raise SortError(
                    f"{role}({source},{target}): {ind} is {self.sig.individuals[ind]}-sort, "
                    f"role position needs {want}-sort",
                    expected=want,
                    found=self.sig.individuals[ind],
                )
        self.abox.append(RoleAssertion(role, source, target))

    def _check_acyclic(self, name: str) -> None:
        """The definition of ``name`` must not refer back to ``name``.  The
        definitions before it are acyclic, so a new cycle passes through it:
        one depth-first walk from it finds one, visiting each definition at
        most once."""
        path: set[str] = set()  # the atoms on the walk's current path
        done: set[str] = set()  # the atoms whose definitions reach no cycle
        stack = [(name, False)]
        while stack:
            atom, leaving = stack.pop()
            if leaving:
                path.discard(atom)
                done.add(atom)
                continue
            if atom in path:
                raise KnowledgeBaseError(f"cyclic definition through {atom}")
            expr = self.definitions.get(atom)
            if atom in done or expr is None:
                continue
            path.add(atom)
            stack.append((atom, True))
            stack.extend((sub.name, False) for sub in subexprs(expr) if isinstance(sub, Atom))

    def formulas(self) -> list[Formula]:
        """Statement view: definitions as equivalences, then inclusions,
        then assertions, in declaration order."""
        return [
            *(Equivalence(Atom(name), expr, self.sig.atom_sort(name)) for name, expr in self.definitions.items()),
            *self.inclusions,
            *map(AssertionFormula, self.abox),
        ]


def empty_kb(sig: Optional[Signature] = None) -> KnowledgeBase:
    return KnowledgeBase(sig=sig.copy() if sig is not None else Signature())
