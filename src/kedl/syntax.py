"""Concept syntax for the two-sorted description logic KEDL.

KEDL splits the vocabulary into two sorts: object concepts (interpreted over
the object domain) and attribute concepts (interpreted over the attribute
domain).  Three role families connect elements:

* object roles       -- object -> object
* attribute roles    -- attribute -> attribute
* cross roles        -- object -> attribute (functional), the only family
                        with an inverse constructor

This module defines the concept AST, signatures, the concept store, the
arrow desugarer, negation normal form, and the table of connectives from
which the concept printer and the parser read keywords and precedence.
The sort rules are one loop over the ids of a concept store, :func:`sort_ids`,
which :func:`check_sort` runs over a private store, a knowledge base over its
own and the bounded oracle over its objective's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Container, Iterable, Iterator, NamedTuple, Optional, Union


class KedlError(Exception):
    """Base class for all errors raised by this package."""


class Sort(enum.Enum):
    OBJECT = "object"
    ATTRIBUTE = "attribute"

    # compared by identity, so the identity hash serves, in C (see RoleKind)
    __hash__ = object.__hash__

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

    # members are compared by identity, so the identity hash serves, in C;
    # Enum's is a Python call, paid at every hash of a quantifier
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


class RoleName(NamedTuple):
    """A role reference: a declared role name, possibly inverted.

    Only cross roles have inverses; ``kind`` is CROSS_INVERSE for ``inv(r)``
    where ``r`` is a declared cross role.  A named tuple: it hashes in C.
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


def _fold(e: ConceptExpr, combine: Callable):
    """``combine(node, results of its operands)`` over the tree of e,
    operands first and left before right; returns e's result.  The walk
    keeps its own stack, so depth is bounded by memory, not recursion."""
    results: list = []
    stack: list = [e]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (node, number of operands): they are done
            node, n = node
            value = combine(node, results[-n:])
            del results[-n:]
        else:
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
    return expect_sort(expr, infer_sort(expr, sig), expected)


def infer_sort(expr: ConceptExpr, sig: Signature) -> Optional[Sort]:
    """Bottom-up sort inference, like :func:`check_sort`, but None for a
    fully polymorphic expression (only top/bot inside) instead of a default:
    :func:`sort_ids` over a private store, whose ids all lie under ``expr``'s id."""
    store, sorts = ConceptStore(), {}
    root = store.intern(expr)
    sort_ids(store, range(len(store.desc)), sig, sorts)
    return sorts[root]


def expect_sort(expr: ConceptExpr, inferred: Optional[Sort], expected: Optional[Sort]) -> Sort:
    """:func:`check_sort`'s verdict on ``expr``, whose sort by the rules is
    ``inferred``, when it is expected to have the sort ``expected``."""
    if expected is not None and inferred is not None and inferred is not expected:
        raise SortError(f"expected a {expected}-sort concept, found {inferred}-sort: {expr}", expected, inferred)
    return inferred or expected or Sort.OBJECT


def sort_ids(store: ConceptStore, ids: Iterable[int], sig: Signature, sorts: dict[int, Optional[Sort]]) -> None:
    """The sort rules, in one loop: enter in ``sorts`` the sort against
    ``sig`` of each id of ``store`` in ``ids``, None when only ``top`` and
    ``bot`` fix it, from its operands' sorts.  ``ids`` ascend and hold, with
    an id, each of its operands that ``sorts`` lacks, as the ids under a
    root do (see :meth:`ConceptStore.order`).  The first ill-sorted id
    raises :class:`SortError`; an operand the error names is printed from
    the store, so an arrow in it is printed desugared."""
    desc, objects, roles = store.desc, sig.object_atoms, sig.roles
    for i in ids:
        d = desc[i]
        kind = d[0]
        if kind is Atom:
            found = Sort.OBJECT if d[1] in objects else sig.atom_sort(d[1])
        elif kind is Not:
            found = sorts[d[2]]
        elif kind is And or kind is Or:
            left, right = sorts[d[2]], sorts[d[3]]
            found = right if left is None else left
            if right is not None and right is not found:
                a, b = (concept_to_str(store.concept(c)) for c in d[2:])
                raise SortError(f"mixed-sort operands: {a} is {left}-sort but {b} is {right}-sort", left, right)
        elif kind is Exists or kind is Forall:
            role = d[1]
            used, child, declared = role.kind, sorts[d[2]], roles.get(role.name)
            if declared is None:
                raise SortError(f"undeclared role name: {role.name}")
            if declared is not (RoleKind.CROSS if used is RoleKind.CROSS_INVERSE else used):
                raise SortError(f"role {role.name} is declared {declared}, used as {used}", declared, used)
            want = used.target
            if child is not None and child is not want:
                body = concept_to_str(store.concept(d[2]))
                message = f"quantifier over {role} needs a {want}-sort concept, found {child}-sort: {body}"
                raise SortError(message, want, child)
            found = used.source
        else:  # top and bot
            found = None
        sorts[i] = found


# --- The concept store: hash-consing, desugaring and negation normal form ----

_DUAL = {And: Or, Or: And, Exists: Forall, Forall: Exists}


class ConceptStore:
    """Hash-consed concepts (Filliâtre & Conchon, "Type-safe modular
    hash-consing", 2006): each distinct concept has one id, every operand's
    id below its parent's, and ``desc[i] = (class, label, *operand ids)``
    (see :func:`_label`).  An arrow gets no id of its own: its description
    maps to the id of its arrow-free form (see :func:`desugar`), so every
    id is arrow-free.  Making an id makes nothing else.  Two forms of an id
    are made the first time :meth:`forms` reads them: ``nnf[i]``, its
    negation normal form (see :func:`to_nnf`), and ``neg[i]``, the NNF of
    its negation.  ``formed`` holds the ids whose forms are made; the
    lists are read only there, and hold None or end before any other."""

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}
        self.desc: list[tuple] = []
        self.nnf: list[Optional[int]] = []
        self.neg: list[Optional[int]] = []
        self.formed: set[int] = set()

    def intern(self, e: ConceptExpr) -> int:
        """The id of ``e``; the walk keeps its own stack."""
        return _fold(e, lambda node, ids: self.make((type(node), _label(node), *ids)))

    def make(self, desc: tuple) -> int:
        """The id of the concept ``desc`` describes, its operands given by
        id, made if it is new."""
        i = self.ids.get(desc)
        if i is not None:
            return i
        kind, operands = desc[0], desc[2:]
        if kind is Implies or kind is Iff:
            make = self.make
            left, right = operands
            i = make((Or, None, make((Not, None, left)), right))
            if kind is Iff:
                i = make((And, None, i, make((Or, None, make((Not, None, right)), left))))
            self.ids[desc] = i
            return i
        if kind not in _KINDS:
            raise KedlError(f"unknown concept node: {kind.__name__}")
        i = self.ids[desc] = len(self.desc)
        self.desc.append(desc)
        return i

    def forms(self, i: int) -> tuple[int, int]:
        """``(nnf[i], neg[i])``, made first for ``i`` and every id under it
        that lacks them, in ascending id order, each from its operands'.
        The forms of an id get theirs with it: ``nnf[i]`` is its own NNF
        and ``neg[i]`` the NNF of its negation, and the other way round for
        ``neg[i]``, so the ids with forms stay closed under operands and
        forms."""
        formed = self.formed
        if i not in formed:
            make, desc, nnf, neg = self.make, self.desc, self.nnf, self.neg
            for j in self.order((i,), formed):
                if j in formed:  # the form of an id before it
                    continue
                kind, label, *operands = desc[j]
                if kind is Atom:
                    pos, negated = j, make((Not, None, j))
                elif kind is Top or kind is Bot:
                    pos, negated = j, make((Bot if kind is Top else Top, None))
                elif kind is Not:
                    c = operands[0]
                    # a literal is its own NNF
                    pos, negated = (j, c) if desc[c][0] is Atom else (neg[c], nnf[c])
                else:
                    inner = [nnf[c] for c in operands]
                    pos = j if inner == operands else make((kind, label, *inner))
                    negated = make((_DUAL[kind], label, *[neg[c] for c in operands]))
                if len(nnf) < len(desc):
                    pad = [None] * (len(desc) - len(nnf))
                    nnf += pad
                    neg += pad
                nnf[j], neg[j] = nnf[pos], neg[pos] = pos, negated
                nnf[negated], neg[negated] = negated, pos
                formed.update((j, pos, negated))
        return self.nnf[i], self.neg[i]

    def order(self, roots: Iterable[int], done: Container[int]) -> list[int]:
        """Every id under ``roots`` that ``done`` lacks, ascending, so each
        comes after its operands."""
        desc, todo, stack = self.desc, set(), list(roots)
        while stack:
            j = stack.pop()
            if j not in done and j not in todo:
                todo.add(j)
                stack += desc[j][2:]
        return sorted(todo)

    def concept(self, i: int) -> ConceptExpr:
        """The concept of id ``i``; a sub-concept that occurs twice is built
        once and shared."""
        built: dict[int, ConceptExpr] = {}
        for j in self.order((i,), built):
            kind, label, *operands = self.desc[j]
            built[j] = kind(*(() if label is None else (label,)), *map(built.__getitem__, operands))
        return built[i]

    def text(self, i: int, texts: dict[int, str]) -> str:
        """The printed form of id ``i``, entering in ``texts`` those of it
        and its sub-concepts that it lacks, each made from its operands'."""
        desc = self.desc
        for j in self.order((i,), texts):
            d = desc[j]
            texts[j] = node_to_str(d[0], d[1], [(desc[c][0], texts[c]) for c in d[2:]])
        return texts[i]


def desugar(expr: ConceptExpr) -> ConceptExpr:
    """Rewrite arrows away: C => D becomes (not C) or D, and C <=> D becomes
    ((not C) or D) and ((not D) or C).  Identity on arrow-free input."""
    store = ConceptStore()
    return store.concept(store.intern(expr))


def to_nnf(expr: ConceptExpr) -> ConceptExpr:
    """Negation normal form: negation only on atoms.

    Uses De Morgan, quantifier duality (over every role family, inverses
    included), double-negation elimination, and top/bot complementation.
    Arrows are desugared if still present.  Idempotent.
    """
    store = ConceptStore()
    return store.concept(store.forms(store.intern(expr))[0])


def is_nnf(expr: ConceptExpr) -> bool:
    """Whether ``expr`` has no arrow and negation only on atoms."""
    return all(type(e) not in (Implies, Iff) and (type(e) is not Not or type(e.expr) is Atom)
               for e in subexprs(expr))


def negated_nnf(expr: ConceptExpr) -> ConceptExpr:
    """NNF of the negation of ``expr``."""
    store = ConceptStore()
    return store.concept(store.forms(store.intern(expr))[1])


# --- Operator table and printer ----------------------------------------------


class Connective(NamedTuple):
    """How the grammar writes a concept class: its keyword, its precedence,
    and per operand slot the least precedence an operand takes there
    without parentheses."""

    keyword: str
    prec: int
    slots: tuple[int, ...]


# and/or group to the left, =>/<=> to the right, and not/some/all take the
# tightest following concept.  The printer parenthesizes an operand below
# its slot (an atom, in no entry, takes any); the parser applies a pending
# operator once its precedence reaches the left slot of the operator that
# follows.  So parse_concept(concept_to_str(e)) reproduces e.
CONNECTIVES: dict[type, Connective] = {
    Top: Connective("top", 5, ()),
    Bot: Connective("bot", 5, ()),
    Not: Connective("not", 4, (4,)),
    Exists: Connective("some", 4, (4,)),
    Forall: Connective("all", 4, (4,)),
    And: Connective("and", 3, (3, 4)),
    Or: Connective("or", 2, (2, 3)),
    Implies: Connective("=>", 1, (2, 1)),
    Iff: Connective("<=>", 1, (2, 1)),
}


def concept_to_str(e: ConceptExpr) -> str:
    return _fold(e, lambda node, operands: (type(node), node_to_str(type(node), _label(node), operands)))[1]


def node_to_str(kind: type, label: Union[str, RoleName, None], operands: list[tuple[type, str]]) -> str:
    """The printed form of a node of class ``kind`` with ``label`` (see
    :func:`_label`), from the class and printed form of each operand, so a
    caller that keeps the forms of sub-concepts prints each new concept in
    time linear in its own text."""
    if kind is Atom:
        return label
    op = CONNECTIVES.get(kind)
    if op is None:
        raise KedlError(f"unknown concept node: {kind.__name__}")
    keyword, _, slots = op
    if len(slots) == 2:
        return f"{_wrap(*operands[0], slots[0])} {keyword} {_wrap(*operands[1], slots[1])}"
    if not slots:
        return keyword
    body = _wrap(*operands[0], slots[0])
    return f"{keyword} {body}" if label is None else f"{keyword} {label} {body}"


def _wrap(kind: type, text: str, least: int) -> str:
    op = CONNECTIVES.get(kind)
    return text if op is None or op.prec >= least else f"({text})"
