"""Finite two-domain interpretations and the concept extension evaluator.

An interpretation carries an object domain and an attribute domain (both
non-empty), extensions for every declared atom and role, and an element for
every declared individual.  Elements are dense indices: the object domain is
``range(n_delta)`` and the attribute domain ``range(n_sigma)``; the text
serialization names them ``x1..xn`` and ``u1..un``.

Cross roles are functional: under AT_MOST_ONE every object element has at
most one successor per cross role, under EXACTLY_ONE exactly one.  FREE
drops the constraint entirely (an escape hatch for the bounded model search,
so the effect of functionality itself can be measured).

Inverse cross-role extensions are never stored; they are computed from the
base role by flipping pairs.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional

from .kb import (
    Assertion,
    AssertionFormula,
    ConceptAssertion,
    Formula,
    Inclusion,
    KnowledgeBase,
    RoleAssertion,
    combined_sort,
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


@lru_cache(maxsize=64)
def _elements(n: int) -> frozenset[int]:
    """``frozenset(range(n))``, built once per size rather than per use."""
    return frozenset(range(n))


@dataclass
class Interpretation:
    sig: Signature
    n_delta: int
    n_sigma: int
    concept_ext: dict[str, frozenset[int]] = field(default_factory=dict)
    role_ext: dict[str, frozenset[tuple[int, int]]] = field(default_factory=dict)
    ind_map: dict[str, int] = field(default_factory=dict)
    mode: FunctionalityMode = FunctionalityMode.AT_MOST_ONE

    def domain(self, sort: Sort) -> frozenset[int]:
        return _elements(self.n_delta if sort is Sort.OBJECT else self.n_sigma)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interpretation):
            return NotImplemented
        return (
            self.n_delta == other.n_delta
            and self.n_sigma == other.n_sigma
            and self.concept_ext == other.concept_ext
            and self.role_ext == other.role_ext
            and self.ind_map == other.ind_map
            and self.mode == other.mode
        )


def validate_interpretation(i: Interpretation) -> list[str]:
    """All invariant violations, as human-readable strings; [] means valid."""
    out: list[str] = []
    if i.n_delta < 1:
        out.append("object domain must be non-empty")
    if i.n_sigma < 1:
        out.append("attribute domain must be non-empty")

    for name in sorted(i.sig.object_atoms | i.sig.attribute_atoms):
        ext = i.concept_ext.get(name)
        if ext is None:
            out.append(f"missing extension for atom {name}")
            continue
        dom = i.domain(i.sig.atom_sort(name))
        if not ext <= dom:
            out.append(f"extension of {name} leaves its domain: {sorted(ext - dom)}")

    for name in sorted(i.sig.roles):
        kind = i.sig.roles[name]
        pairs = i.role_ext.get(name)
        if pairs is None:
            out.append(f"missing extension for role {name}")
            continue
        src_dom = i.domain(RoleName(name, kind).source_sort)
        dst_dom = i.domain(RoleName(name, kind).target_sort)
        for a, b in sorted(pairs):
            if a not in src_dom or b not in dst_dom:
                out.append(f"role {name} pair ({a},{b}) leaves its signature")
        if kind is RoleKind.CROSS and i.mode is not FunctionalityMode.FREE:
            successors = Counter(a for (a, _) in pairs)
            for x in range(i.n_delta):
                n_succ = successors[x]
                if n_succ > 1:
                    out.append(f"cross role {name} has {n_succ} successors at x{x + 1}")
                if i.mode is FunctionalityMode.EXACTLY_ONE and n_succ == 0:
                    out.append(f"cross role {name} has no successor at x{x + 1}")

    for ind, sort in sorted(i.sig.individuals.items()):
        if ind not in i.ind_map:
            out.append(f"unmapped individual {ind}")
        elif i.ind_map[ind] not in i.domain(sort):
            out.append(f"individual {ind} mapped outside its domain")
    return out


def role_pairs(i: Interpretation, role: RoleName) -> frozenset[tuple[int, int]]:
    """Extension of a role reference; inverses are derived, never stored."""
    if role.name not in i.role_ext:
        raise KedlError(f"no extension stored for role {role.name}")
    pairs = i.role_ext[role.name]
    if role.kind is RoleKind.CROSS_INVERSE:
        return frozenset((u, x) for (x, u) in pairs)
    return pairs


def extension(e: ConceptExpr, i: Interpretation, sort: Optional[Sort] = None) -> frozenset[int]:
    """The element set denoted by ``e`` in ``i``.

    ``sort`` resolves polymorphic expressions (bare ``top``/``bot``); by
    default it is inferred, defaulting to object sort.  Arrows are evaluated
    through their boolean desugaring.
    """
    if sort is None:
        sort = check_sort(e, i.sig)
    return _ext(e, i, sort)


def _ext(e: ConceptExpr, i: Interpretation, sort: Sort) -> frozenset[int]:
    if isinstance(e, Atom):
        if e.name not in i.concept_ext:
            raise KedlError(f"no extension stored for atom {e.name}")
        return i.concept_ext[e.name]
    if isinstance(e, And):
        return _ext(e.left, i, sort) & _ext(e.right, i, sort)
    if isinstance(e, Or):
        return _ext(e.left, i, sort) | _ext(e.right, i, sort)
    if isinstance(e, (Exists, Forall)):
        pairs = role_pairs(i, e.role)
        child = _ext(e.expr, i, e.role.target_sort)
        src_dom = i.domain(e.role.source_sort)
        if isinstance(e, Exists):  # the sources of pairs into child
            return src_dom & {a for (a, b) in pairs if b in child}
        return src_dom - {a for (a, b) in pairs if b not in child}  # no pair leaving child
    if isinstance(e, Top):
        return i.domain(sort)
    if isinstance(e, Bot):
        return frozenset()
    if isinstance(e, Not):
        return i.domain(sort) - _ext(e.expr, i, sort)
    if isinstance(e, Implies):
        return (i.domain(sort) - _ext(e.left, i, sort)) | _ext(e.right, i, sort)
    if isinstance(e, Iff):
        dom = i.domain(sort)
        left = _ext(e.left, i, sort)
        right = _ext(e.right, i, sort)
        return (left & right) | ((dom - left) & (dom - right))
    raise KedlError(f"unknown concept node: {e!r}")


def satisfies_assertion(i: Interpretation, a: Assertion) -> bool:
    if isinstance(a, ConceptAssertion):
        if a.individual not in i.ind_map:
            raise KedlError(f"unmapped individual: {a.individual}")
        sort = i.sig.individuals.get(a.individual)
        return i.ind_map[a.individual] in extension(a.concept, i, sort)
    if isinstance(a, RoleAssertion):
        for ind in (a.source, a.target):
            if ind not in i.ind_map:
                raise KedlError(f"unmapped individual: {ind}")
        return (i.ind_map[a.source], i.ind_map[a.target]) in role_pairs(i, a.role)
    raise KedlError(f"unknown assertion: {a!r}")


def satisfies_formula(
    i: Interpretation,
    f: Formula,
    reading: FormulaReading = FormulaReading.UNIVERSAL,
    sort: Optional[Sort] = None,
) -> bool:
    """Whether ``i`` satisfies ``f``; ``sort``, the sort of an inclusion's
    or equivalence's sides, is inferred when not given."""
    if isinstance(f, AssertionFormula):
        return satisfies_assertion(i, f.assertion)

    if sort is None:
        sort = combined_sort(f.left, f.right, i.sig, hint=f.sort)
    left = extension(f.left, i, sort)
    right = extension(f.right, i, sort)
    if reading is FormulaReading.UNIVERSAL:
        if isinstance(f, Inclusion):
            return left <= right
        return left == right
    # literal existential reading: a witness element satisfies the
    # conditional (or, for equivalences, both conditionals)
    dom = i.domain(sort)
    if isinstance(f, Inclusion):
        return len(dom - (left - right)) > 0
    return len((left & right) | (dom - (left | right))) > 0


def sorted_formulas(kb: KnowledgeBase) -> list[tuple[Formula, Optional[Sort]]]:
    """``kb.formulas()``, each paired with the sort ``satisfies_formula``
    evaluates it in (None for an assertion)."""
    return [
        (f, None if isinstance(f, AssertionFormula) else combined_sort(f.left, f.right, kb.sig, hint=f.sort))
        for f in kb.formulas()
    ]


def satisfies_kb(
    i: Interpretation,
    kb: KnowledgeBase,
    formulas: Optional[list[tuple[Formula, Optional[Sort]]]] = None,
) -> bool:
    """Whether ``i`` satisfies every formula of ``kb`` (universal reading).
    A caller checking many interpretations against one KB passes
    ``sorted_formulas(kb)`` as ``formulas`` so sorts are inferred once."""
    if formulas is None:
        formulas = sorted_formulas(kb)
    return all(satisfies_formula(i, f, sort=sort) for f, sort in formulas)


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
        members = ", ".join(_el(sort, k) for k in sorted(i.concept_ext.get(name, frozenset())))
        lines.append(f"{name} = {{{members}}};")
    for name in sorted(i.sig.roles):
        kind = i.sig.roles[name]
        src, dst = RoleName(name, kind).source_sort, RoleName(name, kind).target_sort
        pairs = ", ".join(
            f"({_el(src, a)},{_el(dst, b)})" for a, b in sorted(i.role_ext.get(name, frozenset()))
        )
        lines.append(f"{name} = {{{pairs}}};")
    for ind in sorted(i.sig.individuals):
        sort = i.sig.individuals[ind]
        lines.append(f"ind {ind} = {_el(sort, i.ind_map[ind])};")
    return "\n".join(lines) + "\n"


class ModelFormatError(KedlError):
    pass


def _parse_el(token: str, expect: Optional[Sort] = None) -> tuple[Sort, int]:
    token = token.strip()
    if not token or token[0] not in "xu" or not token[1:].isdigit():
        raise ModelFormatError(f"bad element name: {token!r}")
    sort = Sort.OBJECT if token[0] == "x" else Sort.ATTRIBUTE
    if expect is not None and sort is not expect:
        raise ModelFormatError(f"element {token} has the wrong sort")
    return sort, int(token[1:]) - 1


def interpretation_from_text(
    text: str,
    sig: Signature,
    mode: FunctionalityMode = FunctionalityMode.AT_MOST_ONE,
) -> Interpretation:
    n_delta = n_sigma = 0
    concept_ext: dict[str, frozenset[int]] = {}
    role_ext: dict[str, frozenset[tuple[int, int]]] = {}
    ind_map: dict[str, int] = {}

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.endswith(";"):
            raise ModelFormatError(f"missing ';' in line: {raw!r}")
        line = line[:-1].strip()
        if line.startswith("delta:"):
            names = line[len("delta:"):].split()
            n_delta = len(names)
        elif line.startswith("sigma:"):
            names = line[len("sigma:"):].split()
            n_sigma = len(names)
        elif line.startswith("ind "):
            lhs, _, rhs = line[4:].partition("=")
            name = lhs.strip()
            if name not in sig.individuals:
                raise ModelFormatError(f"undeclared individual: {name}")
            ind_map[name] = _parse_el(rhs, sig.individuals[name])[1]
        else:
            lhs, _, rhs = line.partition("=")
            name = lhs.strip()
            rhs = rhs.strip()
            if not (rhs.startswith("{") and rhs.endswith("}")):
                raise ModelFormatError(f"expected a set in line: {raw!r}")
            body = rhs[1:-1].strip()
            if sig.has_atom(name):
                sort = sig.atom_sort(name)
                members = frozenset(
                    _parse_el(tok, sort)[1] for tok in body.split(",") if tok.strip()
                )
                concept_ext[name] = members
            elif name in sig.roles:
                role = RoleName(name, sig.roles[name])
                pairs = set()
                for chunk in _split_pairs(body):
                    a, b = chunk
                    pairs.add((_parse_el(a, role.source_sort)[1], _parse_el(b, role.target_sort)[1]))
                role_ext[name] = frozenset(pairs)
            else:
                raise ModelFormatError(f"undeclared name in model: {name}")

    i = Interpretation(
        sig=sig,
        n_delta=n_delta,
        n_sigma=n_sigma,
        concept_ext=concept_ext,
        role_ext=role_ext,
        ind_map=ind_map,
        mode=mode,
    )
    for name in sig.object_atoms | sig.attribute_atoms:
        i.concept_ext.setdefault(name, frozenset())
    for name in sig.roles:
        i.role_ext.setdefault(name, frozenset())
    return i


def _split_pairs(body: str) -> Iterable[tuple[str, str]]:
    body = body.strip()
    while body:
        if not body.startswith("("):
            raise ModelFormatError(f"expected '(' in pair list near: {body!r}")
        close = body.index(")")
        inner = body[1:close]
        a, _, b = inner.partition(",")
        yield a, b
        body = body[close + 1:].lstrip()
        if body.startswith(","):
            body = body[1:].lstrip()
