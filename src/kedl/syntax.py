"""Concept syntax for the two-sorted description logic KEDL.

KEDL splits the vocabulary into two sorts: object concepts (interpreted over
the object domain) and attribute concepts (interpreted over the attribute
domain).  Three role families connect elements:

* object roles       -- object -> object
* attribute roles    -- attribute -> attribute
* cross roles        -- object -> attribute (functional), the only family
                        with an inverse constructor

This module defines the concept AST, signatures, the sort checker, the
arrow desugarer, negation normal form, and the concept pretty-printer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional, Union


class KedlError(Exception):
    """Base class for all errors raised by this package."""


class Sort(enum.Enum):
    OBJECT = "object"
    ATTRIBUTE = "attribute"

    def __str__(self) -> str:
        return self.value


class RoleKind(enum.Enum):
    """A role family, with the sorts of the source and target of its edges."""

    OBJ_OBJ = ("obj-obj", Sort.OBJECT, Sort.OBJECT)
    ATTR_ATTR = ("attr-attr", Sort.ATTRIBUTE, Sort.ATTRIBUTE)
    CROSS = ("cross", Sort.OBJECT, Sort.ATTRIBUTE)
    CROSS_INVERSE = ("cross-inverse", Sort.ATTRIBUTE, Sort.OBJECT)

    def __new__(cls, value: str, source: Sort, target: Sort) -> "RoleKind":
        kind = object.__new__(cls)
        kind._value_ = value
        kind.source = source
        kind.target = target
        return kind

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RoleName:
    """A role reference: a declared role name, possibly inverted.

    Only cross roles have inverses; ``kind`` is CROSS_INVERSE for ``inv(r)``
    where ``r`` is a declared cross role.
    """

    name: str
    kind: RoleKind

    def __str__(self) -> str:
        if self.kind is RoleKind.CROSS_INVERSE:
            return f"inv({self.name})"
        return self.name

    @property
    def source_sort(self) -> Sort:
        return self.kind.source

    @property
    def target_sort(self) -> Sort:
        return self.kind.target


def invert_role(role: RoleName) -> RoleName:
    """Invert a cross role.  Involution: invert(invert(r)) == r.

    Object and attribute roles have no inverse constructor in KEDL, so
    inverting them is an error rather than a silent extension.
    """
    if role.kind is RoleKind.CROSS:
        return RoleName(role.name, RoleKind.CROSS_INVERSE)
    if role.kind is RoleKind.CROSS_INVERSE:
        return RoleName(role.name, RoleKind.CROSS)
    raise SortError(f"role {role.name} ({role.kind}) has no inverse; only cross roles do")


# --- Concept AST ------------------------------------------------------------
#
# Frozen dataclasses so concepts are hashable (tableau labels are sets of
# concepts) and structurally comparable (parser round-trip tests).


@dataclass(frozen=True)
class ConceptExpr:
    def __str__(self) -> str:
        return concept_to_str(self)


@dataclass(frozen=True)
class Top(ConceptExpr):
    """Universal concept; sort-polymorphic (the full domain of either sort)."""


@dataclass(frozen=True)
class Bot(ConceptExpr):
    """Empty concept; sort-polymorphic."""


@dataclass(frozen=True)
class Atom(ConceptExpr):
    name: str


@dataclass(frozen=True)
class Not(ConceptExpr):
    expr: ConceptExpr


@dataclass(frozen=True)
class And(ConceptExpr):
    left: ConceptExpr
    right: ConceptExpr


@dataclass(frozen=True)
class Or(ConceptExpr):
    left: ConceptExpr
    right: ConceptExpr


@dataclass(frozen=True)
class Exists(ConceptExpr):
    role: RoleName
    expr: ConceptExpr


@dataclass(frozen=True)
class Forall(ConceptExpr):
    role: RoleName
    expr: ConceptExpr


@dataclass(frozen=True)
class Implies(ConceptExpr):
    left: ConceptExpr
    right: ConceptExpr


@dataclass(frozen=True)
class Iff(ConceptExpr):
    left: ConceptExpr
    right: ConceptExpr


TOP = Top()
BOT = Bot()


def subexprs(e: ConceptExpr) -> Iterator[ConceptExpr]:
    """All sub-expressions of e, including e itself, pre-order.  The walk
    keeps its own stack, so depth is bounded by memory, not recursion."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, (Not, Exists, Forall)):
            stack.append(e.expr)
        elif isinstance(e, (And, Or, Implies, Iff)):
            stack.append(e.right)
            stack.append(e.left)


# --- Signatures -------------------------------------------------------------


class DuplicateNameError(KedlError):
    pass


class Signature:
    """Declared vocabulary: sorted atoms, roles, and individuals.

    Name spaces are disjoint across categories.  Cross roles are stored under
    their base name; the inverse is available through :func:`invert_role` and
    is never declared separately.
    """

    def __init__(self) -> None:
        self.object_atoms: set[str] = set()
        self.attribute_atoms: set[str] = set()
        self.roles: dict[str, RoleKind] = {}
        self.individuals: dict[str, Sort] = {}

    def _check_fresh(self, name: str) -> None:
        if (
            name in self.object_atoms
            or name in self.attribute_atoms
            or name in self.roles
            or name in self.individuals
        ):
            raise DuplicateNameError(f"name already declared: {name}")

    def declare_atom(self, name: str, sort: Sort) -> None:
        self._check_fresh(name)
        (self.object_atoms if sort is Sort.OBJECT else self.attribute_atoms).add(name)

    def declare_role(self, name: str, kind: RoleKind) -> None:
        if kind is RoleKind.CROSS_INVERSE:
            raise KedlError("declare the base cross role; inverses are derived")
        self._check_fresh(name)
        self.roles[name] = kind

    def declare_individual(self, name: str, sort: Sort) -> None:
        self._check_fresh(name)
        self.individuals[name] = sort

    def atom_sort(self, name: str) -> Sort:
        if name in self.object_atoms:
            return Sort.OBJECT
        if name in self.attribute_atoms:
            return Sort.ATTRIBUTE
        raise SortError(f"undeclared concept name: {name}")

    def has_atom(self, name: str) -> bool:
        return name in self.object_atoms or name in self.attribute_atoms

    def role(self, name: str, inverted: bool = False) -> RoleName:
        """Resolve a role reference against the declarations."""
        if name not in self.roles:
            raise SortError(f"undeclared role name: {name}")
        kind = self.roles[name]
        if inverted:
            if kind is not RoleKind.CROSS:
                raise SortError(f"role {name} ({kind}) has no inverse; only cross roles do")
            return RoleName(name, RoleKind.CROSS_INVERSE)
        return RoleName(name, kind)

    def cross_roles(self) -> list[str]:
        return sorted(n for n, k in self.roles.items() if k is RoleKind.CROSS)

    def copy(self) -> "Signature":
        sig = Signature()
        sig.object_atoms = set(self.object_atoms)
        sig.attribute_atoms = set(self.attribute_atoms)
        sig.roles = dict(self.roles)
        sig.individuals = dict(self.individuals)
        return sig


class SortError(KedlError):
    """A violation of the KEDL sort rules (or an undeclared name).

    ``location`` is a (line, column) pair when the error was detected while
    parsing a source file; programmatically built expressions have none.
    """

    def __init__(
        self,
        message: str,
        expected: Union[Sort, RoleKind, None] = None,
        found: Union[Sort, RoleKind, None] = None,
        location: Optional[tuple[int, int]] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.expected = expected
        self.found = found
        self.location = location

    def at(self, location: tuple[int, int]) -> "SortError":
        return SortError(self.message, self.expected, self.found, location)

    def __str__(self) -> str:
        if self.location is not None:
            line, col = self.location
            return f"{line}:{col}: {self.message}"
        return self.message


def check_sort(expr: ConceptExpr, sig: Signature, expected: Optional[Sort] = None) -> Sort:
    """Return the unique sort of ``expr`` or raise :class:`SortError`.

    ``top``/``bot`` are sort-polymorphic; an expression whose sort is not
    fixed by any atom or role takes ``expected`` (object sort by default).
    """
    inferred = infer_sort(expr, sig)
    if inferred is None:
        inferred = expected if expected is not None else Sort.OBJECT
    if expected is not None and inferred is not expected:
        raise SortError(
            f"expected a {expected}-sort concept, found {inferred}-sort: {expr}",
            expected=expected,
            found=inferred,
        )
    return inferred


def infer_sort(expr: ConceptExpr, sig: Signature) -> Optional[Sort]:
    """Bottom-up sort inference, like :func:`check_sort`, but None for a
    fully polymorphic expression (only top/bot inside) instead of a default."""
    if isinstance(expr, (Top, Bot)):
        return None
    if isinstance(expr, Atom):
        return sig.atom_sort(expr.name)
    if isinstance(expr, Not):
        return infer_sort(expr.expr, sig)
    if isinstance(expr, (And, Or, Implies, Iff)):
        ls = infer_sort(expr.left, sig)
        rs = infer_sort(expr.right, sig)
        if ls is not None and rs is not None and ls is not rs:
            raise SortError(
                f"mixed-sort operands: {expr.left} is {ls}-sort but {expr.right} is {rs}-sort",
                expected=ls,
                found=rs,
            )
        return ls if ls is not None else rs
    if isinstance(expr, (Exists, Forall)):
        role = expr.role
        declared = sig.roles.get(role.name)
        if declared is None:
            raise SortError(f"undeclared role name: {role.name}")
        base = RoleKind.CROSS if role.kind is RoleKind.CROSS_INVERSE else role.kind
        if declared is not base:
            raise SortError(
                f"role {role.name} is declared {declared}, used as {role.kind}",
                expected=declared,
                found=role.kind,
            )
        child = infer_sort(expr.expr, sig)
        want = role.target_sort
        if child is not None and child is not want:
            raise SortError(
                f"quantifier over {role} needs a {want}-sort concept, found {child}-sort: {expr.expr}",
                expected=want,
                found=child,
            )
        return role.source_sort
    raise KedlError(f"unknown concept node: {expr!r}")


# --- Desugaring and negation normal form ------------------------------------


def desugar(expr: ConceptExpr) -> ConceptExpr:
    """Rewrite arrows away: C => D becomes (not C) or D, and C <=> D becomes
    ((not C) or D) and ((not D) or C).  Identity on arrow-free input."""
    if isinstance(expr, (Top, Bot, Atom)):
        return expr
    if isinstance(expr, Not):
        return Not(desugar(expr.expr))
    if isinstance(expr, And):
        return And(desugar(expr.left), desugar(expr.right))
    if isinstance(expr, Or):
        return Or(desugar(expr.left), desugar(expr.right))
    if isinstance(expr, Exists):
        return Exists(expr.role, desugar(expr.expr))
    if isinstance(expr, Forall):
        return Forall(expr.role, desugar(expr.expr))
    if isinstance(expr, Implies):
        return Or(Not(desugar(expr.left)), desugar(expr.right))
    if isinstance(expr, Iff):
        left = desugar(expr.left)
        right = desugar(expr.right)
        return And(Or(Not(left), right), Or(Not(right), left))
    raise KedlError(f"unknown concept node: {expr!r}")


def to_nnf(expr: ConceptExpr) -> ConceptExpr:
    """Negation normal form: negation only on atoms.

    Uses De Morgan, quantifier duality (over every role family, inverses
    included), double-negation elimination, and top/bot complementation.
    Arrows are desugared if still present.  Idempotent.
    """
    expr = desugar(expr)
    return _nnf(expr, negate=False)


def _nnf(expr: ConceptExpr, negate: bool) -> ConceptExpr:
    if isinstance(expr, Top):
        return BOT if negate else TOP
    if isinstance(expr, Bot):
        return TOP if negate else BOT
    if isinstance(expr, Atom):
        return Not(expr) if negate else expr
    if isinstance(expr, Not):
        return _nnf(expr.expr, not negate)
    if isinstance(expr, And):
        if negate:
            return Or(_nnf(expr.left, True), _nnf(expr.right, True))
        return And(_nnf(expr.left, False), _nnf(expr.right, False))
    if isinstance(expr, Or):
        if negate:
            return And(_nnf(expr.left, True), _nnf(expr.right, True))
        return Or(_nnf(expr.left, False), _nnf(expr.right, False))
    if isinstance(expr, Exists):
        if negate:
            return Forall(expr.role, _nnf(expr.expr, True))
        return Exists(expr.role, _nnf(expr.expr, False))
    if isinstance(expr, Forall):
        if negate:
            return Exists(expr.role, _nnf(expr.expr, True))
        return Forall(expr.role, _nnf(expr.expr, False))
    raise KedlError(f"arrow survived desugaring: {expr!r}")


def is_nnf(expr: ConceptExpr) -> bool:
    for sub in subexprs(expr):
        if isinstance(sub, (Implies, Iff)):
            return False
        if isinstance(sub, Not) and not isinstance(sub.expr, Atom):
            return False
    return True


def negated_nnf(expr: ConceptExpr) -> ConceptExpr:
    """NNF of the negation of ``expr``."""
    return _nnf(desugar(expr), negate=True)


# --- Pretty printer ----------------------------------------------------------
#
# Minimal parentheses under the surface grammar's precedence:
#   not > and > or > (=>, <=>); quantifiers bind the tightest following
#   concept.  parse_concept(concept_to_str(e)) reproduces e.

_PREC_ARROW = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4
_PREC_PRIMARY = 5


def _prec(e: ConceptExpr) -> int:
    if isinstance(e, (Implies, Iff)):
        return _PREC_ARROW
    if isinstance(e, Or):
        return _PREC_OR
    if isinstance(e, And):
        return _PREC_AND
    if isinstance(e, (Not, Exists, Forall)):
        return _PREC_UNARY
    return _PREC_PRIMARY


def concept_to_str(e: ConceptExpr) -> str:
    if isinstance(e, (Not, Exists, Forall)):
        return node_to_str(e, (concept_to_str(e.expr),))
    if isinstance(e, (And, Or, Implies, Iff)):
        return node_to_str(e, (concept_to_str(e.left), concept_to_str(e.right)))
    return node_to_str(e, ())


def node_to_str(e: ConceptExpr, operands: tuple[str, ...]) -> str:
    """The printed form of ``e`` from the printed forms of its operands
    (``e.expr``, or ``e.left`` and ``e.right``), so a caller that keeps the
    forms of sub-concepts prints each new concept in time linear in its
    own text."""
    if isinstance(e, Top):
        return "top"
    if isinstance(e, Bot):
        return "bot"
    if isinstance(e, Atom):
        return e.name
    if isinstance(e, Not):
        return f"not {_wrap(e.expr, operands[0], _PREC_UNARY)}"
    if isinstance(e, And):
        # left-associative: right child at same precedence needs parens
        return f"{_wrap(e.left, operands[0], _PREC_AND)} and {_wrap(e.right, operands[1], _PREC_AND + 1)}"
    if isinstance(e, Or):
        return f"{_wrap(e.left, operands[0], _PREC_OR)} or {_wrap(e.right, operands[1], _PREC_OR + 1)}"
    if isinstance(e, Exists):
        return f"some {e.role} {_wrap(e.expr, operands[0], _PREC_UNARY)}"
    if isinstance(e, Forall):
        return f"all {e.role} {_wrap(e.expr, operands[0], _PREC_UNARY)}"
    if isinstance(e, Implies):
        # right-associative
        return f"{_wrap(e.left, operands[0], _PREC_ARROW + 1)} => {_wrap(e.right, operands[1], _PREC_ARROW)}"
    if isinstance(e, Iff):
        return f"{_wrap(e.left, operands[0], _PREC_ARROW + 1)} <=> {_wrap(e.right, operands[1], _PREC_ARROW)}"
    raise KedlError(f"unknown concept node: {e!r}")


def _wrap(e: ConceptExpr, text: str, min_prec: int) -> str:
    if _prec(e) < min_prec:
        return f"({text})"
    return text
