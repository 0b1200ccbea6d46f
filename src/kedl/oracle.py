"""Bounded model finding by exhaustive search over finite interpretations.

Two entry points with different jobs:

* :func:`enumerate_interpretations` -- the plain product enumeration of every
  interpretation up to the bounds, in a fixed deterministic order.  No
  deduplication, no cleverness; small enough to audit by eye.  Used for model
  counting and extension-equality sweeps at tiny bounds.

* :func:`find_model` -- exhaustive search over the same space, organized as a
  depth-first assignment of one symbol slice at a time (individuals, then
  atom extensions, then role successor rows) with interval-based pruning:
  a partial assignment is abandoned only when every completion is already
  doomed.  Extensions are int bitmasks during the search (bit k is element
  k) and become frozensets only in a found model.  A sort that no symbol of
  the goal reaches is searched at domain size 1 only: with every other
  symbol frozen, its size cannot change the outcome.  This is what makes
  ``NoModelUpToBound`` verdicts at bounds (3,3) affordable.  Every returned
  model is re-checked with the exact evaluator before being emitted, so
  pruning bugs cannot fabricate a Model verdict; the pruning itself is
  property-tested against the plain enumeration.

Verdicts are always bound-qualified: the search never claims unsatisfiability
beyond the domain sizes it actually visited.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .kb import (
    AssertionFormula,
    ConceptAssertion,
    Equivalence,
    Formula,
    Inclusion,
    KnowledgeBase,
    RoleAssertion,
    combined_sort,
)
from .semantics import (
    FormulaReading,
    FunctionalityMode,
    Interpretation,
    extension,
    satisfies_formula,
    satisfies_kb,
    validate_interpretation,
)
from .syntax import (
    And,
    Atom,
    Bot,
    ConceptExpr,
    Exists,
    Forall,
    KedlError,
    Not,
    Or,
    RoleKind,
    RoleName,
    Signature,
    Sort,
    Top,
    check_sort,
    desugar,
    subexprs,
)


@dataclass(frozen=True)
class Bounds:
    max_delta: int = 2
    max_sigma: int = 2
    mode: FunctionalityMode = FunctionalityMode.AT_MOST_ONE

    def __post_init__(self) -> None:
        if self.max_delta < 1 or self.max_sigma < 1:
            raise ValueError("domains are non-empty: bounds must be at least (1,1)")

    def __str__(self) -> str:
        return f"({self.max_delta},{self.max_sigma},{self.mode})"


@dataclass(frozen=True)
class Model:
    interpretation: Interpretation


@dataclass(frozen=True)
class NoModelUpToBound:
    bounds: Bounds


@dataclass(frozen=True)
class Countermodel:
    interpretation: Interpretation


@dataclass(frozen=True)
class NoCountermodelUpToBound:
    bounds: Bounds


SatVerdict = Union[Model, NoModelUpToBound]
ValidityVerdict = Union[Countermodel, NoCountermodelUpToBound]


def _members(mask: int) -> frozenset[int]:
    """The elements whose bits are set in ``mask`` (bit k is element k)."""
    return frozenset(k for k in range(mask.bit_length()) if mask >> k & 1)


def _subsets(n: int) -> list[frozenset[int]]:
    """All subsets of range(n) in ascending bitmask order (empty set first)."""
    return [_members(m) for m in range(1 << n)]


def _cross_rows(s: int, mode: FunctionalityMode) -> list[int]:
    """Successor-set choices (as masks) for one object element under a cross role."""
    if mode is FunctionalityMode.EXACTLY_ONE:
        return [1 << u for u in range(s)]
    if mode is FunctionalityMode.AT_MOST_ONE:
        return [0] + [1 << u for u in range(s)]
    return list(range(1 << s))


def enumerate_interpretations(sig: Signature, bounds: Bounds) -> Iterator[Interpretation]:
    """Every interpretation over ``sig`` with domain sizes up to the bounds.

    Deterministic order: domain sizes ascend (object-major), then one axis
    per atom, role row, and individual, rightmost varying fastest.  Nothing
    is deduplicated.
    """
    for d in range(1, bounds.max_delta + 1):
        for s in range(1, bounds.max_sigma + 1):
            yield from _enumerate_at(sig, d, s, bounds.mode)


def _enumerate_at(sig: Signature, d: int, s: int, mode: FunctionalityMode) -> Iterator[Interpretation]:
    obj_atoms = sorted(sig.object_atoms)
    attr_atoms = sorted(sig.attribute_atoms)
    roles = sorted(sig.roles)
    inds = sorted(sig.individuals)

    axes: list[list] = []
    axes.extend([_subsets(d)] * len(obj_atoms))
    axes.extend([_subsets(s)] * len(attr_atoms))
    for name in roles:
        kind = sig.roles[name]
        if kind is RoleKind.OBJ_OBJ:
            pairs = [(a, b) for a in range(d) for b in range(d)]
            axes.append([frozenset(pairs[k] for k in range(len(pairs)) if m >> k & 1)
                         for m in range(1 << len(pairs))])
        elif kind is RoleKind.ATTR_ATTR:
            pairs = [(a, b) for a in range(s) for b in range(s)]
            axes.append([frozenset(pairs[k] for k in range(len(pairs)) if m >> k & 1)
                         for m in range(1 << len(pairs))])
        else:  # cross: one successor-set choice per object element
            per_row = [_members(m) for m in _cross_rows(s, mode)]
            axes.append([
                frozenset((x, u) for x, row in enumerate(combo) for u in row)
                for combo in itertools.product(per_row, repeat=d)
            ])
    for name in inds:
        axes.append(list(range(d if sig.individuals[name] is Sort.OBJECT else s)))

    for combo in itertools.product(*axes):
        pos = 0
        concept_ext: dict[str, frozenset[int]] = {}
        for name in obj_atoms + attr_atoms:
            concept_ext[name] = combo[pos]
            pos += 1
        role_ext: dict[str, frozenset[tuple[int, int]]] = {}
        for name in roles:
            role_ext[name] = combo[pos]
            pos += 1
        ind_map: dict[str, int] = {}
        for name in inds:
            ind_map[name] = combo[pos]
            pos += 1
        yield Interpretation(
            sig=sig, n_delta=d, n_sigma=s,
            concept_ext=concept_ext, role_ext=role_ext, ind_map=ind_map, mode=mode,
        )


def count_models(e: ConceptExpr, sig: Signature, bounds: Bounds) -> int:
    """Number of enumerated interpretations with a non-empty extension for e."""
    sort = check_sort(e, sig)
    return sum(
        1 for i in enumerate_interpretations(sig, bounds) if extension(e, i, sort)
    )


# --- Pruned exhaustive search -------------------------------------------------


class _Level:
    """One decision in the search: the slot ``store[key]`` (an individual,
    an atom extension or one role row) and its candidate values."""

    __slots__ = ("store", "key", "choices")

    def __init__(self, store: Union[dict, list], key: Union[str, int], choices: Sequence[int]) -> None:
        self.store = store
        self.key = key
        self.choices = choices


class _Search:
    """Depth-first assignment of interpretation components at fixed sizes.

    Extensions are int bitmasks, bit k standing for element k of the sort's
    domain: an atom's extension is one mask, a role's extension one mask of
    successors per source element (a row), and ``None`` marks a component
    not yet assigned.  Symbols not mentioned by the goal are frozen to
    canonical values up front (empty extensions; for cross roles under
    EXACTLY_ONE, the constant successor 0) and never enumerated, so the
    outcome at sizes (d, s) depends on a domain only through the goal's
    symbols; :func:`find_model` relies on this to search an unreached
    sort at size 1 only.
    """

    def __init__(
        self,
        sig: Signature,
        d: int,
        s: int,
        mode: FunctionalityMode,
        used_atoms: set[str],
        used_roles: set[str],
        used_inds: set[str],
    ) -> None:
        self.sig = sig
        self.d = d
        self.s = s
        self.mode = mode
        self.full = {Sort.OBJECT: (1 << d) - 1, Sort.ATTRIBUTE: (1 << s) - 1}
        self.atom_ext: dict[str, Optional[int]] = {}
        self.role_rows: dict[str, list[Optional[int]]] = {}
        self.inds: dict[str, Optional[int]] = {}
        self.levels: list[_Level] = []

        for name in sorted(sig.individuals):
            if name in used_inds:
                self.inds[name] = None
                size = d if sig.individuals[name] is Sort.OBJECT else s
                self.levels.append(_Level(self.inds, name, range(size)))
            else:
                self.inds[name] = 0

        for name in sorted(sig.object_atoms):
            self._add_atom(name, d, name in used_atoms)
        for name in sorted(sig.attribute_atoms):
            self._add_atom(name, s, name in used_atoms)

        # row assignment order: attribute roles, then cross, then object
        # roles -- deepest-nested symbols first, so contradictions surface
        # before the outer role rows multiply the search
        by_kind = {RoleKind.ATTR_ATTR: [], RoleKind.CROSS: [], RoleKind.OBJ_OBJ: []}
        for name in sorted(sig.roles):
            by_kind[sig.roles[name]].append(name)
        for kind in (RoleKind.ATTR_ATTR, RoleKind.CROSS, RoleKind.OBJ_OBJ):
            for name in by_kind[kind]:
                n_rows = s if kind is RoleKind.ATTR_ATTR else d
                if kind is RoleKind.CROSS:
                    choices = _cross_rows(s, mode)
                else:
                    choices = range(1 << n_rows)
                if name in used_roles:
                    rows = self.role_rows[name] = [None] * n_rows
                    for row in range(n_rows):
                        self.levels.append(_Level(rows, row, choices))
                else:
                    self.role_rows[name] = [choices[0]] * n_rows

    def _add_atom(self, name: str, size: int, used: bool) -> None:
        if used:
            self.atom_ext[name] = None
            self.levels.append(_Level(self.atom_ext, name, range(1 << size)))
        else:
            self.atom_ext[name] = 0

    # -- interval evaluation ----------------------------------------------

    def concept_bounds(self, e: ConceptExpr, sort: Sort) -> tuple[int, int]:
        """(lower, upper) masks: elements in e under every / at least one completion."""
        if isinstance(e, Atom):
            ext = self.atom_ext[e.name]
            if ext is None:
                return 0, self.full[sort]
            return ext, ext
        if isinstance(e, Not):
            lb, ub = self.concept_bounds(e.expr, sort)
            full = self.full[sort]
            return full & ~ub, full & ~lb
        if isinstance(e, And):
            l1, u1 = self.concept_bounds(e.left, sort)
            l2, u2 = self.concept_bounds(e.right, sort)
            return l1 & l2, u1 & u2
        if isinstance(e, Or):
            l1, u1 = self.concept_bounds(e.left, sort)
            l2, u2 = self.concept_bounds(e.right, sort)
            return l1 | l2, u1 | u2
        if isinstance(e, (Exists, Forall)):
            return self._quantifier_bounds(e, sort)
        if isinstance(e, Top):
            return self.full[sort], self.full[sort]
        if isinstance(e, Bot):
            return 0, 0
        raise KedlError(f"arrows must be desugared before the search: {e!r}")

    def _quantifier_bounds(self, e, sort: Sort) -> tuple[int, int]:
        role: RoleName = e.role
        clb, cub = self.concept_bounds(e.expr, role.target_sort)
        rows = self.role_rows[role.name]
        existential = isinstance(e, Exists)
        lower = upper = 0

        if role.kind is RoleKind.CROSS_INVERSE:
            # predecessors of u: the assigned rows that contain u (known),
            # and those plus every unassigned row (possible)
            unassigned = 0
            for x, row in enumerate(rows):
                if row is None:
                    unassigned |= 1 << x
            for u in range(self.s):
                known = 0
                for x, row in enumerate(rows):
                    if row is not None and row >> u & 1:
                        known |= 1 << x
                possible = known | unassigned
                if existential:
                    if known & clb:
                        lower |= 1 << u
                    if possible & cub:
                        upper |= 1 << u
                else:
                    if not possible & ~clb:
                        lower |= 1 << u
                    if not known & ~cub:
                        upper |= 1 << u
            return lower, upper

        # an unassigned row ranges over every still-possible choice: under
        # EXACTLY_ONE a cross row is one successor; otherwise the empty row
        # is possible, so the existential may fail and the universal hold
        total = role.kind is RoleKind.CROSS and self.mode is FunctionalityMode.EXACTLY_ONE
        open_lower = (total or not existential) and clb == self.full[role.target_sort]
        open_upper = cub != 0 if total or existential else True
        for x, row in enumerate(rows):
            bit = 1 << x
            if row is None:
                if open_lower:
                    lower |= bit
                if open_upper:
                    upper |= bit
            elif existential:
                if row & clb:
                    lower |= bit
                if row & cub:
                    upper |= bit
            else:
                if not row & ~clb:
                    lower |= bit
                if not row & ~cub:
                    upper |= bit
        return lower, upper

    # -- assembling interpretations ----------------------------------------

    def build(self) -> Interpretation:
        concept_ext = {n: _members(x or 0) for n, x in self.atom_ext.items()}
        role_ext = {}
        for name, rows in self.role_rows.items():
            role_ext[name] = frozenset(
                (x, y) for x, row in enumerate(rows) if row is not None for y in _members(row)
            )
        ind_map = {n: (v if v is not None else 0) for n, v in self.inds.items()}
        return Interpretation(
            sig=self.sig, n_delta=self.d, n_sigma=self.s,
            concept_ext=concept_ext, role_ext=role_ext, ind_map=ind_map, mode=self.mode,
        )

    def complete_with_defaults(self, level_idx: int) -> None:
        for level in self.levels[level_idx:]:
            if level.store[level.key] is None:
                level.store[level.key] = level.choices[0]


class _Objective:
    """What the search is after, with three-way partial verdicts.

    ``concepts`` lists the desugared concepts that the status reads.
    """

    concepts: list[ConceptExpr]

    def status(self, search: _Search) -> Optional[bool]:
        """True: every completion succeeds; False: none can; None: open."""
        raise NotImplementedError

    def holds_exactly(self, i: Interpretation) -> bool:
        raise NotImplementedError


class _ConceptObjective(_Objective):
    def __init__(self, goal: ConceptExpr, sort: Sort) -> None:
        self.goal = desugar(goal)
        self.sort = sort
        self.concepts = [self.goal]

    def status(self, search: _Search) -> Optional[bool]:
        lb, ub = search.concept_bounds(self.goal, self.sort)
        if lb:
            return True
        if not ub:
            return False
        return None

    def holds_exactly(self, i: Interpretation) -> bool:
        return bool(extension(self.goal, i, self.sort))


class _KbObjective(_Objective):
    def __init__(self, kb: KnowledgeBase) -> None:
        self.kb = kb
        self.formulas: list[Formula] = []
        self.concepts = []
        for f in kb.formulas():
            if isinstance(f, (Inclusion, Equivalence)):
                sort = combined_sort(f.left, f.right, kb.sig, hint=f.sort)
                f = type(f)(desugar(f.left), desugar(f.right), sort)
                self.concepts += [f.left, f.right]
            elif isinstance(f.assertion, ConceptAssertion):
                a = ConceptAssertion(desugar(f.assertion.concept), f.assertion.individual)
                f = AssertionFormula(a)
                self.concepts.append(a.concept)
            self.formulas.append(f)

    def status(self, search: _Search) -> Optional[bool]:
        all_definite = True
        for f in self.formulas:
            verdict = self._formula_status(search, f)
            if verdict is False:
                return False
            if verdict is None:
                all_definite = False
        return True if all_definite else None

    def _formula_status(self, search: _Search, f: Formula) -> Optional[bool]:
        if isinstance(f, AssertionFormula):
            return self._assertion_status(search, f.assertion)
        sort = f.sort
        assert sort is not None
        llb, lub = search.concept_bounds(f.left, sort)
        rlb, rub = search.concept_bounds(f.right, sort)
        if isinstance(f, Inclusion):
            if llb & ~rub:
                return False
            if not lub & ~rlb:
                return True
            return None
        if llb & ~rub or rlb & ~lub:
            return False
        if not (lub & ~rlb or rub & ~llb):
            return True
        return None

    def _assertion_status(self, search: _Search, a) -> Optional[bool]:
        if isinstance(a, ConceptAssertion):
            el = search.inds[a.individual]
            if el is None:
                return None
            sort = search.sig.individuals[a.individual]
            lb, ub = search.concept_bounds(a.concept, sort)
            if lb >> el & 1:
                return True
            if not ub >> el & 1:
                return False
            return None
        assert isinstance(a, RoleAssertion)
        src, tgt = search.inds[a.source], search.inds[a.target]
        if src is None or tgt is None:
            return None
        if a.role.kind is RoleKind.CROSS_INVERSE:
            src, tgt = tgt, src
        row = search.role_rows[a.role.name][src]
        if row is None:
            return None
        return bool(row >> tgt & 1)

    def holds_exactly(self, i: Interpretation) -> bool:
        return satisfies_kb(i, self.kb)


def _used_symbols(exprs: list[ConceptExpr], kb: Optional[KnowledgeBase] = None):
    atoms: set[str] = set()
    roles: set[str] = set()
    inds: set[str] = set()
    for e in exprs:
        for sub in subexprs(e):
            if isinstance(sub, Atom):
                atoms.add(sub.name)
            elif isinstance(sub, (Exists, Forall)):
                roles.add(sub.role.name)
    if kb is not None:
        for a in kb.abox:
            if isinstance(a, ConceptAssertion):
                inds.add(a.individual)
            else:
                roles.add(a.role.name)
                inds.update((a.source, a.target))
    return atoms, roles, inds


def _visible_sorts(sig: Signature, used) -> set[Sort]:
    """The sorts whose domain some used atom, role or individual reaches."""
    atoms, roles, inds = used
    sorts = {sig.atom_sort(name) for name in atoms} | {sig.individuals[name] for name in inds}
    for name in roles:
        if sig.roles[name] is not RoleKind.OBJ_OBJ:
            sorts.add(Sort.ATTRIBUTE)
        if sig.roles[name] is not RoleKind.ATTR_ATTR:
            sorts.add(Sort.OBJECT)
    return sorts


def find_model(
    goal: Union[ConceptExpr, KnowledgeBase],
    bounds: Bounds,
    sig: Optional[Signature] = None,
    sort: Optional[Sort] = None,
) -> SatVerdict:
    """Search for an interpretation within the bounds.

    For a concept goal, a model is an interpretation with a non-empty
    extension for it (``sig`` is required).  For a knowledge base, a model
    satisfies every definition, inclusion (universal reading), and assertion.
    A sort that no symbol of the goal reaches is searched at size 1 only.
    """
    if isinstance(goal, KnowledgeBase):
        sig = goal.sig
        objective: _Objective = _KbObjective(goal)
        used = _used_symbols(objective.concepts, kb=goal)
    else:
        if sig is None:
            raise KedlError("a signature is required to search for concept models")
        goal_sort = check_sort(goal, sig, expected=sort)
        objective = _ConceptObjective(goal, goal_sort)
        used = _used_symbols(objective.concepts)

    visible = _visible_sorts(sig, used)
    deltas = range(1, bounds.max_delta + 1) if Sort.OBJECT in visible else (1,)
    sigmas = range(1, bounds.max_sigma + 1) if Sort.ATTRIBUTE in visible else (1,)
    for d in deltas:
        for s in sigmas:
            found = _search_at(sig, d, s, bounds.mode, objective, used)
            if found is not None:
                _require(validate_interpretation(found) == [], "search returned an invalid interpretation")
                _require(objective.holds_exactly(found), "search returned a non-model")
                return Model(found)
    return NoModelUpToBound(bounds)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise KedlError(f"internal oracle error: {message}")


def _search_at(sig, d, s, mode, objective: _Objective, used) -> Optional[Interpretation]:
    used_atoms, used_roles, used_inds = used
    search = _Search(sig, d, s, mode, used_atoms, used_roles, used_inds)

    def dfs(level_idx: int) -> Optional[Interpretation]:
        status = objective.status(search)
        if status is False:
            return None
        if status is True:
            search.complete_with_defaults(level_idx)
            return search.build()
        if level_idx == len(search.levels):
            i = search.build()
            return i if objective.holds_exactly(i) else None
        level = search.levels[level_idx]
        for choice in level.choices:
            level.store[level.key] = choice
            result = dfs(level_idx + 1)
            if result is not None:
                return result
        level.store[level.key] = None
        return None

    return dfs(0)


def check_validity_bounded(f: Formula, bounds: Bounds, sig: Signature) -> ValidityVerdict:
    """Look for an interpretation where the formula fails (universal reading).

    Dual to :func:`find_model`: an inclusion has a countermodel exactly when
    ``left and not right`` has a model at the same bounds.
    """
    if isinstance(f, AssertionFormula):
        for i in enumerate_interpretations(sig, bounds):
            if not satisfies_formula(i, f, FormulaReading.UNIVERSAL):
                return Countermodel(i)
        return NoCountermodelUpToBound(bounds)

    sort = combined_sort(f.left, f.right, sig, hint=f.sort)
    candidates = [And(f.left, Not(f.right))]
    if isinstance(f, Equivalence):
        candidates.append(And(f.right, Not(f.left)))
    for concept in candidates:
        verdict = find_model(concept, bounds, sig=sig, sort=sort)
        if isinstance(verdict, Model):
            i = verdict.interpretation
            _require(
                not satisfies_formula(i, f, FormulaReading.UNIVERSAL),
                "countermodel satisfies the formula",
            )
            return Countermodel(i)
    return NoCountermodelUpToBound(bounds)
