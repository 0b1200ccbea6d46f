"""Finite two-domain interpretations and the concept extension evaluator.

An interpretation carries an object domain and an attribute domain (both
non-empty), extensions for every declared atom and role, and an element for
every declared individual.  Elements are dense indices: the object domain is
``range(n_delta)`` and the attribute domain ``range(n_sigma)``; the text
serialization names them ``x1..xn`` and ``u1..un``.

A set of elements is an int bitmask, bit k standing for element k: an
atom's extension is one mask, a role's extension one mask of successors per
element of its source domain (a row), and a concept evaluates to a mask.
Concepts are evaluated by the ids of a ``syntax.ConceptStore`` with no
sort: a mask is exact on its sort's domain and arbitrary above it until it
is cleared, once per concept (see :class:`InternedConcepts`).

Cross roles are functional: under AT_MOST_ONE every object element has at
most one successor per cross role, under EXACTLY_ONE exactly one.  FREE
drops the constraint entirely (an escape hatch for the bounded model search,
so the effect of functionality itself can be measured).

Inverse cross-role extensions are never stored; they are read from the
base role's rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .kb import (
    Assertion,
    AssertionFormula,
    ConceptAssertion,
    Formula,
    Inclusion,
    KnowledgeBase,
    RoleAssertion,
    formula_sort,
)
from .syntax import (
    And,
    Atom,
    Bot,
    ConceptExpr,
    ConceptStore,
    Exists,
    KedlError,
    Not,
    Or,
    RoleKind,
    RoleName,
    Signature,
    Sort,
    Top,
    check_sort,
)


class FunctionalityMode(enum.Enum):
    AT_MOST_ONE = "at-most-one"
    EXACTLY_ONE = "exactly-one"
    FREE = "free"

    def __str__(self) -> str:
        return self.value


class FormulaReading(enum.Enum):
    """How statement-level arrows are read.

    UNIVERSAL treats ``C => D`` as extension inclusion (the reading under
    which the axiom suite consists of validities).  LITERAL_EXISTENTIAL is
    the witness-based reading: some element satisfies the conditional.
    """

    UNIVERSAL = "universal"
    LITERAL_EXISTENTIAL = "paper-existential"


@dataclass
class Interpretation:
    sig: Signature = field(compare=False)
    n_delta: int
    n_sigma: int
    concept_ext: dict[str, int] = field(default_factory=dict)
    role_ext: dict[str, tuple[int, ...]] = field(default_factory=dict)  # row x: successors of x
    ind_map: dict[str, int] = field(default_factory=dict)
    mode: FunctionalityMode = FunctionalityMode.AT_MOST_ONE

    def size(self, sort: Sort) -> int:
        """The number of elements of the sort's domain."""
        return self.n_delta if sort is Sort.OBJECT else self.n_sigma

    def domain(self, sort: Sort) -> int:
        """The mask of every element of the sort's domain."""
        return (1 << self.size(sort)) - 1


def validate_interpretation(i: Interpretation) -> list[str]:
    """All invariant violations, as human-readable strings; [] means valid."""
    out: list[str] = []
    if i.n_delta < 1:
        out.append("object domain must be non-empty")
    if i.n_sigma < 1:
        out.append("attribute domain must be non-empty")

    delta, sigma = i.domain(Sort.OBJECT), i.domain(Sort.ATTRIBUTE)
    for name in sorted(i.sig.object_atoms | i.sig.attribute_atoms):
        ext = i.concept_ext.get(name)
        if ext is None:
            out.append(f"missing extension for atom {name}")
            continue
        outside = ext & ~(delta if name in i.sig.object_atoms else sigma)
        if outside:
            out.append(f"extension of {name} leaves its domain: {_bits(outside)}")

    functional = i.mode is not FunctionalityMode.FREE
    total = i.mode is FunctionalityMode.EXACTLY_ONE
    for name in sorted(i.sig.roles):
        kind = i.sig.roles[name]
        rows = i.role_ext.get(name)
        if rows is None:
            out.append(f"missing extension for role {name}")
            continue
        n_src = i.size(kind.source)
        for a in range(len(rows), n_src):
            out.append(f"role {name} has no row for {_el(kind.source, a)}")
        for a in range(n_src, len(rows)):
            out.append(f"role {name} has a row for {_el(kind.source, a)} outside its domain")
        outside_dst = ~(delta if kind.target is Sort.OBJECT else sigma)
        for a, row in enumerate(rows):
            if row & outside_dst:
                for b in _bits(row & outside_dst):
                    out.append(f"role {name} pair ({_el(kind.source, a)},{_el(kind.target, b)}) leaves its signature")
        if kind is RoleKind.CROSS and functional:
            # only a row with two or more bits, or under EXACTLY_ONE an
            # empty one, can fail
            for x, row in enumerate(rows[:n_src]):
                if row & (row - 1):
                    out.append(f"cross role {name} has {row.bit_count()} successors at x{x + 1}")
                elif total and not row:
                    out.append(f"cross role {name} has no successor at x{x + 1}")

    for ind, sort in sorted(i.sig.individuals.items()):
        if ind not in i.ind_map:
            out.append(f"unmapped individual {ind}")
        elif not 0 <= i.ind_map[ind] < i.size(sort):
            out.append(f"individual {ind} mapped outside its domain")
    return out


def _bits(mask: int) -> list[int]:
    """The elements whose bits are set in ``mask``, ascending."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _rows(i: Interpretation, name: str) -> tuple[int, ...]:
    if name not in i.role_ext:
        raise KedlError(f"no extension stored for role {name}")
    return i.role_ext[name]


class InternedConcepts:
    """Concepts, each read at a sort, interned once into a concept store (a
    private one unless ``store`` is given), as ``ids``: (id, sort) pairs;
    ``ids``, when given, are the concepts' ids in ``store``, made already.
    They are ordered for evaluation by id, as model checking labels
    subformulas (Clarke, Emerson & Sistla, TOPLAS 1986), when first
    evaluated: a concept's run is ``(id, *desc[id])``, padded to five
    fields, for each id under it that no earlier run holds, operands first."""

    def __init__(self, concepts: Iterable[tuple[ConceptExpr, Sort]], store: Optional[ConceptStore] = None,
                 ids: Optional[Iterable[int]] = None) -> None:
        self.store = store = ConceptStore() if store is None else store
        if ids is None:
            self.ids = [(store.intern(e), sort) for e, sort in concepts]
        else:
            self.ids = [(i, sort) for i, (_, sort) in zip(ids, concepts, strict=True)]

    @cached_property
    def roots(self) -> list[tuple[int, Sort, list[tuple]]]:
        """``(id, sort, run)`` of each concept."""
        roots, done, store = [], set(), self.store
        for root, sort in self.ids:
            ids = store.order((root,), done)
            done.update(ids)
            roots.append((root, sort, [(j, *store.desc[j], None, None)[:5] for j in ids]))
        return roots

    def extensions(self, i: Interpretation) -> Iterator[int]:
        """The extension in ``i`` of each concept, in order, each run
        evaluated only when its extension is asked for: a caller may set an
        atom's extension from one before the next is evaluated.  No sort is
        read: ``top`` is ``-1``, ``not`` is ``~``, and a quantifier reads
        only rows, which lie in the domains, so a mask is exact on its
        sort's domain and arbitrary above it until it is cleared."""
        ext, masks = i.concept_ext, {}
        delta, sigma = (1 << i.n_delta) - 1, (1 << i.n_sigma) - 1
        for root, sort, run in self.roots:
            for j, kind, label, a, b in run:
                if kind is And:
                    masks[j] = masks[a] & masks[b]
                elif kind is Atom:
                    mask = ext.get(label)
                    if mask is None:
                        raise KedlError(f"no extension stored for atom {label}")
                    masks[j] = mask
                elif kind is Not:
                    masks[j] = ~masks[a]
                elif kind is Or:
                    masks[j] = masks[a] | masks[b]
                elif kind is Top or kind is Bot:
                    masks[j] = -1 if kind is Top else 0
                else:
                    masks[j] = _quantified(kind is Exists, label, masks[a], i)
            yield masks[root] & (delta if sort is Sort.OBJECT else sigma)


def _quantified(some: bool, role: RoleName, child: int, i: Interpretation) -> int:
    """The mask of ``some role child``, or else of ``all role child``."""
    rows, marked = _rows(i, role.name), 0
    # the sources with a successor in child (some) or outside it (not in
    # all); for inv(r), those are the successors of the r-sources in or
    # outside child
    if role.kind is RoleKind.CROSS_INVERSE:
        for x, row in enumerate(rows):
            if (child >> x & 1) == some:
                marked |= row
    else:
        wanted = child if some else ~child
        for x, row in enumerate(rows):
            if row & wanted:
                marked |= 1 << x
    return marked if some else ~marked


class InternedFormulas(InternedConcepts):
    """Formulas interned as the concepts they read, for :func:`satisfies_kb`:
    an inclusion's or equivalence's sides at :func:`~kedl.kb.formula_sort`,
    and the concept of an assertion ``C(a)`` at ``a``'s sort."""

    def __init__(self, formulas: Iterable[Formula], sig: Signature, store: Optional[ConceptStore] = None,
                 ids: Optional[Iterable[int]] = None) -> None:
        self.formulas, sides = list(formulas), []
        for f in self.formulas:
            if not isinstance(f, AssertionFormula):
                sort = formula_sort(f, sig)
                sides += [(f.left, sort), (f.right, sort)]
            elif isinstance(f.assertion, ConceptAssertion):
                c, a = f.assertion.concept, f.assertion.individual
                sides.append((c, sig.individuals.get(a) or check_sort(c, sig)))
        super().__init__(sides, store, ids)


def _holds(i: Interpretation, f: Formula, sides: Iterator[int]) -> bool:
    """Whether ``i`` satisfies ``f`` (universal reading), taking the
    extensions of the concepts it reads from ``sides``."""
    if not isinstance(f, AssertionFormula):
        left, right = next(sides), next(sides)
        return not left & ~right if isinstance(f, Inclusion) else left == right
    a = f.assertion
    if isinstance(a, ConceptAssertion):
        return bool(next(sides) >> _element(i, a.individual) & 1)
    if not isinstance(a, RoleAssertion):
        raise KedlError(f"unknown assertion: {a!r}")
    src, dst = _element(i, a.source), _element(i, a.target)
    if a.role.kind is RoleKind.CROSS_INVERSE:
        src, dst = dst, src
    rows = _rows(i, a.role.name)
    return src < len(rows) and bool(rows[src] >> dst & 1)


def _element(i: Interpretation, individual: str) -> int:
    if individual not in i.ind_map:
        raise KedlError(f"unmapped individual: {individual}")
    return i.ind_map[individual]


def extension(e: ConceptExpr, i: Interpretation, sort: Optional[Sort] = None) -> int:
    """The mask of the elements denoted by ``e`` in ``i``.

    ``sort`` resolves polymorphic expressions (bare ``top``/``bot``); by
    default it is inferred, defaulting to object sort.  Arrows are evaluated
    through their boolean desugaring.  To evaluate a concept on many
    interpretations, intern it once in :class:`InternedConcepts`.
    """
    if sort is None:
        sort = check_sort(e, i.sig)
    return next(InternedConcepts([(e, sort)]).extensions(i))


def satisfies_assertion(i: Interpretation, a: Assertion) -> bool:
    return satisfies_formula(i, AssertionFormula(a))


def satisfies_formula(i: Interpretation, f: Formula, reading: FormulaReading = FormulaReading.UNIVERSAL) -> bool:
    """Whether ``i`` satisfies ``f``, an inclusion's or equivalence's sides
    read at :func:`~kedl.kb.formula_sort`."""
    form = InternedFormulas([f], i.sig)
    if reading is FormulaReading.UNIVERSAL or isinstance(f, AssertionFormula):
        return _holds(i, f, form.extensions(i))
    # literal existential reading: a witness element satisfies the
    # conditional (or, for equivalences, both conditionals)
    (left, right), sort = form.extensions(i), form.ids[0][1]
    return (left & ~right if isinstance(f, Inclusion) else left ^ right) != i.domain(sort)


def satisfies_kb(i: Interpretation, kb: KnowledgeBase, formulas: Optional[InternedFormulas] = None) -> bool:
    """Whether ``i`` satisfies every formula of ``kb`` (universal reading),
    or every one of ``formulas`` when given: ``kb.formulas()``, or some,
    interned once by a caller that checks many interpretations."""
    formulas = InternedFormulas(kb.formulas(), kb.sig) if formulas is None else formulas
    sides = formulas.extensions(i)
    return all(_holds(i, f, sides) for f in formulas.formulas)


# --- Text serialization ------------------------------------------------------
#
# Line-oriented, bit-exact: elements in index order, names sorted, one
# clause per line, e.g.
#
#   delta: x1 x2;
#   sigma: u1;
#   C = {x1};
#   r = {(x1,u1)};
#   ind gas1 = x1;


def _el(sort: Sort, idx: int) -> str:
    return ("x" if sort is Sort.OBJECT else "u") + str(idx + 1)


def interpretation_to_text(i: Interpretation) -> str:
    lines = [
        "delta: " + " ".join(_el(Sort.OBJECT, k) for k in range(i.n_delta)) + ";",
        "sigma: " + " ".join(_el(Sort.ATTRIBUTE, k) for k in range(i.n_sigma)) + ";",
    ]
    for name in sorted(i.sig.object_atoms) + sorted(i.sig.attribute_atoms):
        sort = i.sig.atom_sort(name)
        members = ", ".join(_el(sort, k) for k in _bits(i.concept_ext.get(name, 0)))
        lines.append(f"{name} = {{{members}}};")
    for name in sorted(i.sig.roles):
        kind = i.sig.roles[name]
        pairs = ", ".join(
            f"({_el(kind.source, a)},{_el(kind.target, b)})"
            for a, row in enumerate(i.role_ext.get(name, ())) for b in _bits(row)
        )
        lines.append(f"{name} = {{{pairs}}};")
    for ind in sorted(i.sig.individuals):
        sort = i.sig.individuals[ind]
        lines.append(f"ind {ind} = {_el(sort, i.ind_map[ind])};")
    return "\n".join(lines) + "\n"


class ModelFormatError(KedlError):
    pass


def _parse_el(token: str, expect: Sort, i: Interpretation) -> int:
    """The index of a named element of sort ``expect`` in ``i``'s domains."""
    token = token.strip()
    if not token or token[0] not in "xu" or not token[1:].isdigit() or not token.isascii():
        raise ModelFormatError(f"bad element name: {token!r}")
    sort = Sort.OBJECT if token[0] == "x" else Sort.ATTRIBUTE
    if sort is not expect:
        raise ModelFormatError(f"element {token} has the wrong sort")
    k = int(token[1:]) - 1
    if not 0 <= k < i.size(sort):
        raise ModelFormatError(f"element {token} is outside the declared {sort} domain")
    return k


def interpretation_from_text(
    text: str,
    sig: Signature,
    mode: FunctionalityMode = FunctionalityMode.AT_MOST_ONE,
) -> Interpretation:
    """Read the text format; the domain lines come first, as written, and
    every element must lie in its declared domain."""
    i = Interpretation(sig=sig, n_delta=0, n_sigma=0, mode=mode)
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.endswith(";"):
            raise ModelFormatError(f"missing ';' in line: {raw!r}")
        line = line[:-1].strip()
        if line.startswith("delta:"):
            i.n_delta = len(line[len("delta:"):].split())
        elif line.startswith("sigma:"):
            i.n_sigma = len(line[len("sigma:"):].split())
        elif line.startswith("ind "):
            lhs, _, rhs = line[4:].partition("=")
            name = lhs.strip()
            if name not in sig.individuals:
                raise ModelFormatError(f"undeclared individual: {name}")
            i.ind_map[name] = _parse_el(rhs, sig.individuals[name], i)
        else:
            lhs, _, rhs = line.partition("=")
            name = lhs.strip()
            rhs = rhs.strip()
            if not (rhs.startswith("{") and rhs.endswith("}")):
                raise ModelFormatError(f"expected a set in line: {raw!r}")
            body = rhs[1:-1].strip()
            if sig.has_atom(name):
                sort = sig.atom_sort(name)
                mask = 0
                for tok in body.split(","):
                    if tok.strip():
                        mask |= 1 << _parse_el(tok, sort, i)
                i.concept_ext[name] = mask
            elif name in sig.roles:
                kind = sig.roles[name]
                rows = [0] * i.size(kind.source)
                for a, b in _split_pairs(body):
                    rows[_parse_el(a, kind.source, i)] |= 1 << _parse_el(b, kind.target, i)
                i.role_ext[name] = tuple(rows)
            else:
                raise ModelFormatError(f"undeclared name in model: {name}")

    for name in sig.object_atoms | sig.attribute_atoms:
        i.concept_ext.setdefault(name, 0)
    for name, kind in sig.roles.items():
        i.role_ext.setdefault(name, (0,) * i.size(kind.source))
    return i


def _split_pairs(body: str) -> Iterable[tuple[str, str]]:
    body = body.strip()
    while body:
        if not body.startswith("("):
            raise ModelFormatError(f"expected '(' in pair list near: {body!r}")
        inner, closed, rest = body[1:].partition(")")
        if not closed:
            raise ModelFormatError(f"expected ')' in pair list near: {body!r}")
        a, _, b = inner.partition(",")
        yield a, b
        body = rest.lstrip()
        if body.startswith(","):
            body = body[1:].lstrip()
