"""Knowledge bases: TBox statements, ABox assertions, and formula views.

A knowledge base bundles a signature with:

* definitions   -- ``X := C`` (acyclic, one per atom; equivalences)
* inclusions    -- ``C <= D`` (general inclusions, per sort)
* abox          -- concept and role assertions over declared individuals

``Formula`` is the statement-level syntax checked by the model evaluator:
inclusions, equivalences, and assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .syntax import (
    And,
    Atom,
    ConceptExpr,
    KedlError,
    Not,
    RoleName,
    Signature,
    Sort,
    SortError,
    check_sort,
    infer_sort,
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
    """``C <= D``.  ``sort`` pins the domain when both sides are polymorphic."""

    left: ConceptExpr
    right: ConceptExpr
    sort: Optional[Sort] = None

    def __str__(self) -> str:
        return f"{self.left} <= {self.right}"


@dataclass(frozen=True)
class Equivalence:
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


def combined_sort(
    left: ConceptExpr,
    right: ConceptExpr,
    sig: Signature,
    hint: Optional[Sort] = None,
) -> Sort:
    """The shared sort of two concepts that must agree; polymorphic sides
    follow the determinate one (then the hint, then object sort)."""
    ls = infer_sort(left, sig)
    rs = infer_sort(right, sig)
    if ls is not None and rs is not None and ls is not rs:
        raise SortError(
            f"sides differ in sort: {left} is {ls}-sort but {right} is {rs}-sort",
            expected=ls,
            found=rs,
        )
    sort = ls or rs or hint or Sort.OBJECT
    check_sort(left, sig, expected=sort)
    check_sort(right, sig, expected=sort)
    return sort


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
    sig: Signature = field(default_factory=Signature)
    definitions: dict[str, ConceptExpr] = field(default_factory=dict)
    inclusions: list[tuple[ConceptExpr, ConceptExpr]] = field(default_factory=list)
    abox: list[Assertion] = field(default_factory=list)

    def define(self, name: str, expr: ConceptExpr) -> None:
        if name in self.definitions:
            raise KnowledgeBaseError(f"duplicate definition for {name}")
        sort = self.sig.atom_sort(name)
        check_sort(expr, self.sig, expected=sort)
        self.definitions[name] = expr
        try:
            self._check_acyclic(name)
        except KnowledgeBaseError:
            del self.definitions[name]
            raise

    def include(self, left: ConceptExpr, right: ConceptExpr) -> None:
        combined_sort(left, right, self.sig)
        self.inclusions.append((left, right))

    def assert_concept(self, concept: ConceptExpr, individual: str) -> None:
        if individual not in self.sig.individuals:
            raise SortError(f"undeclared individual: {individual}")
        check_sort(concept, self.sig, expected=self.sig.individuals[individual])
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
        out: list[Formula] = []
        for name, expr in self.definitions.items():
            out.append(Equivalence(Atom(name), expr))
        for left, right in self.inclusions:
            out.append(Inclusion(left, right))
        for a in self.abox:
            out.append(AssertionFormula(a))
        return out


def empty_kb(sig: Optional[Signature] = None) -> KnowledgeBase:
    return KnowledgeBase(sig=sig.copy() if sig is not None else Signature())
