"""Finite two-domain interpretations and the concept extension evaluator.

An interpretation carries an object domain and an attribute domain (both
non-empty), extensions for every declared atom and role, and an element for
every declared individual.  Elements are dense indices: the object domain is
``range(n_delta)`` and the attribute domain ``range(n_sigma)``; the text
serialization names them ``x1..xn`` and ``u1..un``.

A set of elements is an int bitmask, bit k standing for element k: an
atom's extension is one mask, a role's extension one mask of successors per
element of its source domain (a row), and a concept evaluates to a mask.

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
from typing import Callable, Iterable, Optional

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
    Exists,
    Forall,
    Iff,
    Implies,
    KedlError,
    Not,
    Or,
    RoleKind,
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


def extension(e: ConceptExpr, i: Interpretation, sort: Optional[Sort] = None) -> int:
    """The mask of the elements denoted by ``e`` in ``i``.

    ``sort`` resolves polymorphic expressions (bare ``top``/``bot``); by
    default it is inferred, defaulting to object sort.  Arrows are evaluated
    through their boolean desugaring.
    """
    if sort is None:
        sort = check_sort(e, i.sig)
    return _ext(e, i, sort)


def _ext(e: ConceptExpr, i: Interpretation, sort: Sort) -> int:
    rule = _EXT.get(type(e))
    if rule is None:
        raise KedlError(f"unknown concept node: {e!r}")
    return rule(e, i, sort)


def _ext_atom(e: Atom, i: Interpretation, sort: Sort) -> int:
    ext = i.concept_ext.get(e.name)
    if ext is None:
        raise KedlError(f"no extension stored for atom {e.name}")
    return ext


def _ext_quantifier(e: Exists | Forall, i: Interpretation, sort: Sort) -> int:
    role, some = e.role, type(e) is Exists
    kind, rows = role.kind, _rows(i, role.name)
    child = _ext(e.expr, i, kind.target)
    # the sources with a successor in child (some) or outside it (not
    # in all); for inv(r), those are the successors of the r-sources
    # in or outside child
    marked = 0
    if kind is RoleKind.CROSS_INVERSE:
        for x, row in enumerate(rows):
            if (child >> x & 1) == some:
                marked |= row
    else:
        wanted = child if some else ~child
        for x, row in enumerate(rows):
            if row & wanted:
                marked |= 1 << x
    src_dom = i.domain(kind.source)
    return src_dom & marked if some else src_dom & ~marked


# _ext's rule for each concept node class, looked up by exact type
_EXT: dict[type, Callable[..., int]] = {
    Atom: _ext_atom,
    And: lambda e, i, sort: _ext(e.left, i, sort) & _ext(e.right, i, sort),
    Or: lambda e, i, sort: _ext(e.left, i, sort) | _ext(e.right, i, sort),
    Exists: _ext_quantifier,
    Forall: _ext_quantifier,
    Top: lambda e, i, sort: i.domain(sort),
    Bot: lambda e, i, sort: 0,
    Not: lambda e, i, sort: i.domain(sort) & ~_ext(e.expr, i, sort),
    Implies: lambda e, i, sort: i.domain(sort) & ~_ext(e.left, i, sort) | _ext(e.right, i, sort),
    Iff: lambda e, i, sort: i.domain(sort) & ~(_ext(e.left, i, sort) ^ _ext(e.right, i, sort)),
}


def satisfies_assertion(i: Interpretation, a: Assertion) -> bool:
    if isinstance(a, ConceptAssertion):
        if a.individual not in i.ind_map:
            raise KedlError(f"unmapped individual: {a.individual}")
        sort = i.sig.individuals.get(a.individual)
        return bool(extension(a.concept, i, sort) >> i.ind_map[a.individual] & 1)
    if isinstance(a, RoleAssertion):
        for ind in (a.source, a.target):
            if ind not in i.ind_map:
                raise KedlError(f"unmapped individual: {ind}")
        src, dst = i.ind_map[a.source], i.ind_map[a.target]
        if a.role.kind is RoleKind.CROSS_INVERSE:
            src, dst = dst, src
        rows = _rows(i, a.role.name)
        return src < len(rows) and bool(rows[src] >> dst & 1)
    raise KedlError(f"unknown assertion: {a!r}")


def satisfies_formula(i: Interpretation, f: Formula, reading: FormulaReading = FormulaReading.UNIVERSAL) -> bool:
    """Whether ``i`` satisfies ``f``, an inclusion's or equivalence's sides
    read at :func:`~kedl.kb.formula_sort`."""
    if isinstance(f, AssertionFormula):
        return satisfies_assertion(i, f.assertion)

    sort = formula_sort(f, i.sig)
    left = extension(f.left, i, sort)
    right = extension(f.right, i, sort)
    if reading is FormulaReading.UNIVERSAL:
        if isinstance(f, Inclusion):
            return not left & ~right
        return left == right
    # literal existential reading: a witness element satisfies the
    # conditional (or, for equivalences, both conditionals)
    dom = i.domain(sort)
    if isinstance(f, Inclusion):
        return bool(dom & ~(left & ~right))
    return bool(dom & ~(left ^ right))


def satisfies_kb(i: Interpretation, kb: KnowledgeBase, formulas: Optional[list[Formula]] = None) -> bool:
    """Whether ``i`` satisfies every formula of ``kb`` (universal reading),
    or every one of ``formulas`` when given.  Each formula's ``sort`` is the
    sort its sides are read at, and None means it is inferred; a KB's
    inclusions and definitions carry theirs, so none is inferred here.  A
    caller checking many interpretations passes ``kb.formulas()`` once,
    which is otherwise built again for every call."""
    return all(satisfies_formula(i, f) for f in (kb.formulas() if formulas is None else formulas))


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
