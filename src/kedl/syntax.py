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
from typing import Callable, Iterator, Optional, Union


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


_UNARY = {Not, Exists, Forall}
_BINARY = {And, Or, Implies, Iff}
_KINDS = {Top, Bot, Atom} | _UNARY | _BINARY


def _label(e: ConceptExpr) -> Union[str, RoleName, None]:
    """An atom's name, a quantifier's role, else None."""
    kind = type(e)
    if kind is Atom:
        return e.name
    return e.role if kind is Exists or kind is Forall else None


def subexprs(e: ConceptExpr) -> Iterator[ConceptExpr]:
    """All sub-expressions of e, including e itself, pre-order.  The walk
    keeps its own stack, so depth is bounded by memory, not recursion."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        if type(e) in _BINARY:
            stack += (e.right, e.left)
        elif type(e) in _UNARY:
            stack.append(e.expr)


def _fold(e: ConceptExpr, combine: Callable, enter: Optional[Callable] = None):
    """``combine(node, results of its operands)`` over the tree of e,
    operands first and left before right; returns e's result.
    ``enter(node)`` runs when the walk reaches a node, before its operands.
    The walk keeps its own stack, so depth is bounded by memory, not
    recursion."""
    results: list = []
    stack: list = [e]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (node, number of operands): they are done
            node, n = node
            value = combine(node, results[-n:])
            del results[-n:]
        else:
            if enter is not None:
                enter(node)
            kind = type(node)
            if kind in _BINARY:
                stack += ((node, 2), node.right, node.left)
                continue
            if kind in _UNARY:
                stack += ((node, 1), node.expr)
                continue
            value = combine(node, ())
        results.append(value)
    return results[0]


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

    def enter(e: ConceptExpr) -> None:
        if type(e) is Exists or type(e) is Forall:
            role = e.role
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

    def combine(e: ConceptExpr, sorts: list[Optional[Sort]]) -> Optional[Sort]:
        kind = type(e)
        if kind is Atom:
            return sig.atom_sort(e.name)
        if kind is Not:
            return sorts[0]
        if kind in _BINARY:
            ls, rs = sorts
            if ls is not None and rs is not None and ls is not rs:
                raise SortError(
                    f"mixed-sort operands: {e.left} is {ls}-sort but {e.right} is {rs}-sort",
                    expected=ls,
                    found=rs,
                )
            return ls if ls is not None else rs
        if kind is Exists or kind is Forall:
            child, want = sorts[0], e.role.target_sort
            if child is not None and child is not want:
                raise SortError(
                    f"quantifier over {e.role} needs a {want}-sort concept, found {child}-sort: {e.expr}",
                    expected=want,
                    found=child,
                )
            return e.role.source_sort
        if kind is Top or kind is Bot:
            return None
        raise KedlError(f"unknown concept node: {e!r}")

    return _fold(expr, combine, enter)


# --- The concept store: hash-consing, desugaring and negation normal form ----

_DUAL = {And: Or, Or: And, Exists: Forall, Forall: Exists}


class ConceptStore:
    """Hash-consed concepts (Filliâtre & Conchon, "Type-safe modular
    hash-consing", 2006): each distinct concept has one id, every operand's
    id below its parent's, and ``desc[i] = (class, label, *operand ids)``
    (see :func:`_label`).  When an id is made, three more are made from its
    operands' ids: ``plain[i]``, its arrow-free form (see :func:`desugar`);
    ``nnf[i]``, its negation normal form (see :func:`to_nnf`); and
    ``neg[i]``, the NNF of its negation."""

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}
        self.desc: list[tuple] = []
        self.plain: list[int] = []
        self.nnf: list[int] = []
        self.neg: list[int] = []

    def intern(self, e: ConceptExpr) -> int:
        """The id of ``e``; the walk keeps its own stack."""
        return _fold(e, lambda node, ids: self._make((type(node), _label(node), *ids)))

    def _make(self, desc: tuple) -> int:
        i = self.ids.get(desc)
        if i is not None:
            return i
        kind, label, operands = desc[0], desc[1], desc[2:]
        if kind not in _KINDS:
            raise KedlError(f"unknown concept node: {kind.__name__}")
        i = self.ids[desc] = len(self.desc)
        self.desc.append(desc)
        make, plain, nnf, neg = self._make, self.plain, self.nnf, self.neg
        # each form is i until set; a form made below that is i finds i in
        # ids, and reads no form of i
        plain.append(i)
        nnf.append(i)
        neg.append(i)
        if kind is Implies or kind is Iff:
            left, right = plain[operands[0]], plain[operands[1]]
            p = make((Or, None, make((Not, None, left)), right))
            if kind is Iff:
                p = make((And, None, p, make((Or, None, make((Not, None, right)), left))))
        else:
            forms = tuple(map(plain.__getitem__, operands))
            p = i if forms == operands else make((kind, label, *forms))
        if p != i:  # the forms of the arrow-free form
            plain[i], nnf[i], neg[i] = p, nnf[p], neg[p]
        elif kind is Atom:
            neg[i] = make((Not, None, i))
        elif kind is Top or kind is Bot:
            neg[i] = make((Bot if kind is Top else Top, None))
        elif kind is Not:
            c = operands[0]
            if self.desc[c][0] is Atom:  # a literal is its own NNF
                neg[i] = c
            else:
                nnf[i], neg[i] = neg[c], nnf[c]
        else:
            forms = tuple(map(nnf.__getitem__, operands))
            nnf[i] = i if forms == operands else make((kind, label, *forms))
            neg[i] = make((_DUAL[kind], label, *map(neg.__getitem__, operands)))
        return i

    def _bottom_up(self, i: int, done: dict, make: Callable[..., object]):
        """``done[i]``, once ``done[j] = make(*desc[j])`` is set, operands
        first, for every id ``j`` under ``i`` that ``done`` lacks."""
        todo, stack = set(), [i]
        while stack:
            j = stack.pop()
            if j not in done and j not in todo:
                todo.add(j)
                stack.extend(self.desc[j][2:])
        for j in sorted(todo):
            done[j] = make(*self.desc[j])
        return done[i]

    def concept(self, i: int) -> ConceptExpr:
        """The concept of id ``i``; a sub-concept that occurs twice is built
        once and shared."""
        built: dict[int, ConceptExpr] = {}
        return self._bottom_up(i, built, lambda kind, label, *operands: kind(
            *(() if label is None else (label,)), *(built[c] for c in operands)))

    def text(self, i: int, texts: dict[int, str]) -> str:
        """The printed form of id ``i``, entering in ``texts`` those of it
        and its sub-concepts that it lacks, each made from its operands'."""
        desc = self.desc
        return self._bottom_up(i, texts, lambda kind, label, *operands: node_to_str(
            kind, label, [(desc[c][0], texts[c]) for c in operands]))


def desugar(expr: ConceptExpr) -> ConceptExpr:
    """Rewrite arrows away: C => D becomes (not C) or D, and C <=> D becomes
    ((not C) or D) and ((not D) or C).  Identity on arrow-free input."""
    if not any(type(sub) in (Implies, Iff) for sub in subexprs(expr)):
        return expr  # the oracle desugars every goal and formula, most arrow-free
    store = ConceptStore()
    return store.concept(store.plain[store.intern(expr)])


def to_nnf(expr: ConceptExpr) -> ConceptExpr:
    """Negation normal form: negation only on atoms.

    Uses De Morgan, quantifier duality (over every role family, inverses
    included), double-negation elimination, and top/bot complementation.
    Arrows are desugared if still present.  Idempotent.
    """
    store = ConceptStore()
    return store.concept(store.nnf[store.intern(expr)])


def is_nnf(expr: ConceptExpr) -> bool:
    store = ConceptStore()
    i = store.intern(expr)
    return store.nnf[i] == i


def negated_nnf(expr: ConceptExpr) -> ConceptExpr:
    """NNF of the negation of ``expr``."""
    store = ConceptStore()
    return store.concept(store.neg[store.intern(expr)])


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

_PREC = {Implies: _PREC_ARROW, Iff: _PREC_ARROW, Or: _PREC_OR, And: _PREC_AND,
         Not: _PREC_UNARY, Exists: _PREC_UNARY, Forall: _PREC_UNARY}


def concept_to_str(e: ConceptExpr) -> str:
    return _fold(e, lambda node, operands: (type(node), node_to_str(type(node), _label(node), operands)))[1]


def node_to_str(kind: type, label: Union[str, RoleName, None], operands: list[tuple[type, str]]) -> str:
    """The printed form of a node of class ``kind`` with ``label`` (see
    :func:`_label`), from the class and printed form of each operand, so a
    caller that keeps the forms of sub-concepts prints each new concept in
    time linear in its own text."""
    if kind is Atom:
        return label
    if kind is Top:
        return "top"
    if kind is Bot:
        return "bot"
    if kind is Not:
        return f"not {_wrap(*operands[0], _PREC_UNARY)}"
    if kind is Exists:
        return f"some {label} {_wrap(*operands[0], _PREC_UNARY)}"
    if kind is Forall:
        return f"all {label} {_wrap(*operands[0], _PREC_UNARY)}"
    left, right = operands
    if kind is And:  # left-associative: a right operand at the same precedence needs parens
        return f"{_wrap(*left, _PREC_AND)} and {_wrap(*right, _PREC_AND + 1)}"
    if kind is Or:
        return f"{_wrap(*left, _PREC_OR)} or {_wrap(*right, _PREC_OR + 1)}"
    if kind is Implies:  # right-associative
        return f"{_wrap(*left, _PREC_ARROW + 1)} => {_wrap(*right, _PREC_ARROW)}"
    if kind is Iff:
        return f"{_wrap(*left, _PREC_ARROW + 1)} <=> {_wrap(*right, _PREC_ARROW)}"
    raise KedlError(f"unknown concept node: {kind.__name__}")


def _wrap(kind: type, text: str, min_prec: int) -> str:
    return text if _PREC.get(kind, _PREC_PRIMARY) >= min_prec else f"({text})"
