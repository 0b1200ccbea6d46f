"""Bounded model finding by exhaustive search over finite interpretations.

Every question is one: is there, within the bounds, a model of a
knowledge base in which a goal concept is non-empty?  A KB alone asks it
of the goal ``top``, which every model meets; a concept alone asks it of
the empty KB over its signature.

* :func:`enumerate_interpretations` -- the plain product enumeration of every
  interpretation up to the bounds, in a fixed deterministic order.  No
  deduplication, no cleverness; small enough to audit by eye.  Used,
  filtered by ``satisfies_kb``, for model counting and the existential
  reading, and for extension-equality sweeps at tiny bounds.

* :func:`find_model` -- exhaustive search over the same space, organized as a
  depth-first loop that assigns one symbol slice per level (individuals,
  then atom extensions, then role successor rows) with interval-based
  pruning: a partial assignment is abandoned only when every completion is
  already doomed.  Extensions are the interpretation's own int bitmasks
  (bit k is element k) and successor rows, so a found model is the
  search's slots as they stand.  The goal and
  the KB are compiled once per domain size into a node table, one node
  per distinct subterm and sort, which an assign updates only where the
  changed slot is read (:class:`_Search`).  Every KB formula is one or
  two inclusions over that table, an assertion ``C(a)`` as ``{a} <= C``,
  so one interval test decides them all.  A sort that no symbol of the
  goal or the KB reaches is searched at domain size 1 only.  A model
  survives adding a copy of an element, of either sort unless ``inv(r)``
  is read on a functional cross role, so the smallest and the largest
  sizes are searched first, and a no-model verdict needs no other.  Each
  level tries only the least choice of every orbit of the permutations of
  interchangeable elements (least-number symmetry breaking).  Once every
  individual and atom is assigned, before the first row, a one-row
  lookahead drops each goal element that no choice of one of its rows
  keeps in the goal, and the subtree is cut when none is left (forward
  checking, as in SEM).  The verdict and the returned model are the ones
  the unpruned search gives.  Every returned model is re-checked with the
  exact evaluator before being emitted, so pruning bugs cannot fabricate
  a Model verdict; the pruning itself is property-tested against the
  plain enumeration.

Verdicts are always bound-qualified: the search never claims unsatisfiability
beyond the domain sizes of its bounds.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from .kb import (
    AssertionFormula,
    ConceptAssertion,
    Equivalence,
    Formula,
    KnowledgeBase,
    combined_sort,
    refutation_goals,
)
from .semantics import (
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


def _cross_rows(s: int, mode: FunctionalityMode) -> Sequence[int]:
    """Successor-set choices (as masks) for one object element under a cross role."""
    if mode is FunctionalityMode.EXACTLY_ONE:
        return tuple([1 << u for u in range(s)])
    if mode is FunctionalityMode.AT_MOST_ONE:
        return tuple([0] + [1 << u for u in range(s)])
    return range(1 << s)


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

    axes: list[Sequence] = []
    axes.extend([range(1 << d)] * len(obj_atoms))
    axes.extend([range(1 << s)] * len(attr_atoms))
    for name in roles:
        kind = sig.roles[name]
        if kind is RoleKind.CROSS:  # one successor-set choice per object element
            axes.append(list(itertools.product(_cross_rows(s, mode), repeat=d)))
        else:  # bit a*size + b of m is the pair (a, b), so row a is a slice of m
            size = d if kind is RoleKind.OBJ_OBJ else s
            full = (1 << size) - 1
            axes.append([tuple(m >> a * size & full for a in range(size)) for m in range(1 << size * size)])
    for name in inds:
        axes.append(list(range(d if sig.individuals[name] is Sort.OBJECT else s)))

    atoms = obj_atoms + attr_atoms
    first_ind = len(atoms) + len(roles)
    for combo in itertools.product(*axes):
        yield Interpretation(
            sig=sig, n_delta=d, n_sigma=s,
            concept_ext=dict(zip(atoms, combo)), role_ext=dict(zip(roles, combo[len(atoms):])),
            ind_map=dict(zip(inds, combo[first_ind:])), mode=mode,
        )


def count_models(
    e: ConceptExpr, sig: Optional[Signature], bounds: Bounds, kb: Optional[KnowledgeBase] = None
) -> int:
    """Number of enumerated interpretations that satisfy ``kb`` and give e
    a non-empty extension.  With no ``kb``, every interpretation over
    ``sig`` counts; with one, its signature is used and ``sig`` ignored."""
    kb = _kb_over(sig, kb)
    sort = check_sort(e, kb.sig)
    return sum(
        1 for i in enumerate_interpretations(kb.sig, bounds) if extension(e, i, sort) and satisfies_kb(i, kb)
    )


def _kb_over(sig: Optional[Signature], kb: Optional[KnowledgeBase]) -> KnowledgeBase:
    """The KB a search answers to: ``kb``, or else the empty KB over ``sig``."""
    if kb is not None:
        return kb
    if sig is None:
        raise KedlError("a signature or a knowledge base is required")
    return KnowledgeBase(sig=sig)


# --- Pruned exhaustive search -------------------------------------------------


_Cells = tuple[tuple[int, ...], tuple[int, ...]]  # object cells, attribute cells


def _side(sort: Sort) -> int:
    """The index of the sort's cells in a :data:`_Cells` pair."""
    return 0 if sort is Sort.OBJECT else 1


class _Level:
    """One decision in the search: the slot ``store[key]`` (an individual,
    an atom extension or one role row) and its candidate values, in
    ascending order.  A value names elements of the sort with index
    ``side``: an individual's value (``element``) is one element, any
    other value a mask of them.  A row level's ``source`` is the (side,
    element) whose row it is."""

    __slots__ = ("store", "key", "choices", "side", "element", "source")

    def __init__(
        self,
        store: Union[dict, list],
        key: Union[str, int],
        choices: Sequence[int],
        sort: Sort,
        element: bool = False,
        source: Optional[tuple[Sort, int]] = None,
    ) -> None:
        self.store = store
        self.key = key
        self.choices = choices
        self.side = _side(sort)
        self.element = element
        self.source = None if source is None else (_side(source[0]), source[1])


def _split(cells: _Cells, side: int, mask: int) -> _Cells:
    """Split every cell of one side into its part inside the mask and its
    part outside; the cells of a side are kept in ascending order."""
    parts = tuple(sorted(p for cell in cells[side] for p in (cell & mask, cell & ~mask) if p))
    return (parts, cells[1]) if side == 0 else (cells[0], parts)


@functools.lru_cache(maxsize=512)
def _orbit_choices(
    choices: Sequence[int], side: int, element: bool, source: Optional[tuple[int, int]], cells: _Cells
) -> tuple[tuple[int, _Cells], ...]:
    """The least member of each orbit of a level's choices under the
    permutations that map every cell onto itself and fix a row's source,
    in ascending order, each with the cells after it is assigned.

    The orbit of a mask is set by how many elements of each cell it holds,
    and its least member holds the lowest ones: trading a member for a
    lower non-member of the same cell lowers the mask.  The orbit of an
    element is its cell.  The cache is shared by all searches, which
    mostly enter a level with the same few cells; its bound keeps it
    under a megabyte."""
    if source is not None:
        source_side, x = source
        cells = _split(cells, source_side, 1 << x)
    kept = []
    for value in choices:
        mask = 1 << value if element else value
        if all(_holds_lowest(mask, cell) for cell in cells[side]):
            kept.append((value, _split(cells, side, mask)))
    return tuple(kept)


def _holds_lowest(mask: int, cell: int) -> bool:
    """Whether the mask holds, of the cell's elements, only its lowest ones."""
    rest = cell & ~mask
    return not rest or mask & cell < rest & -rest


_NO_LEVELS: frozenset[int] = frozenset()


@dataclass(frozen=True)
class _Individual(ConceptExpr):
    """The singleton ``{name}`` of an individual: the left side of an
    assertion read as an inclusion.  Only the search evaluates it."""

    name: str


class _Search:
    """Depth-first assignment of interpretation components at fixed sizes.

    Extensions are int bitmasks, bit k standing for element k of the sort's
    domain: an atom's extension is one mask, a role's extension one mask of
    successors per source element (a row), and ``None`` marks a component
    not yet assigned.  Symbols that neither the goal nor the KB mentions
    are frozen to canonical values up front (empty extensions; for cross
    roles under EXACTLY_ONE, the constant successor 0) and never
    enumerated, so the outcome at sizes (d, s) depends on a domain only
    through the symbols they mention; :func:`find_model` relies on this
    to search an unreached sort at size 1 only, and on an element's copy
    keeping the frozen values to skip sizes below the largest.

    Interval bounds live in a node table.  Each distinct (subterm, sort)
    asked about is one node, compiled on first use after its children;
    ``vals[n]`` holds node n's (lower, upper) masks, the elements in the
    subterm under every completion of the current partial assignment and
    under at least one.  A node's update closure recomputes its value from
    its slots and its children's values, with its slots, full mask and
    target sort bound at compile time.  ``touch[i]`` lists, in node order,
    the updates of the nodes that read level i's slot directly or through
    a child; :meth:`assign` is the only writer of slots and re-runs that
    list, so every value stays what a fresh evaluation would give.  A
    forward quantifier over the role whose row x is level i, with a child
    that does not read level i, recomputes only its bit x.

    Symmetry breaking.  Along the search path, each sort's domain is split
    into cells of elements that no assigned slot tells apart: one cell per
    sort at the start; an individual takes the lowest element of a cell,
    which becomes a singleton; an atom takes a mask that holds the lowest
    elements of each cell, and each cell splits into its part inside and
    its part outside the mask; a row first makes its source element a
    singleton, then takes and splits by its mask like an atom.  Every
    permutation that maps each cell onto itself fixes the assigned slots,
    and the value a level keeps is the numerically least of its orbit
    under them (:func:`_orbit_choices`).  This rests on two facts:

    * the objective is invariant under any permutation of each sort's
      domain applied to the whole interpretation, individuals
      included; individuals are assigned first, so the permutations used
      later fix their elements;
    * frozen symbols (unused atoms, roles and individuals, and the
      constant successor 0 under EXACTLY_ONE) are never read by the
      objective, so a permuted model stays a model with them unchanged.

    The unpruned search tries choices in ascending order and stops at the
    first node whose status is True.  If a cell-keeping permutation lowered that path's value at
    some level, it would map the model there to one in an earlier subtree
    with the same prefix, which the unpruned search would have reached
    first, as statuses are sound.  So that path keeps the least value of
    its orbit at every level, the pruned search walks it too, and it
    returns the same model; where the unpruned search finds none, the
    pruned one, trying a subset, finds none either.

    Row lookahead.  At the first row level, where every individual and
    atom is assigned, :func:`_search_at` asks :func:`_dead_goal_elements`
    which goal elements no completion keeps: those for which some row the
    goal reads drops them under each of its choices.  They stay dead in
    the whole subtree, whose completions are completions of that node, and
    a node whose goal upper mask holds only dead elements is a dead end,
    as if its status were False.  By interval soundness such a subtree
    holds no model, so the cut leaves the order of the other nodes, the
    first model found and the argument above unchanged.
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
        self.full_object, self.full_attribute = (1 << d) - 1, (1 << s) - 1
        self.atom_ext: dict[str, Optional[int]] = {}
        self.role_rows: dict[str, list[Optional[int]]] = {}
        self.inds: dict[str, Optional[int]] = {}
        self.levels: list[_Level] = []
        # the level deciding each used individual and atom, and each row of
        # each used role
        self._ind_level: dict[str, int] = {}
        self._atom_level: dict[str, int] = {}
        self._row_levels: dict[str, range] = {}

        for name in sorted(sig.individuals):
            if name in used_inds:
                self.inds[name] = None
                self._ind_level[name] = len(self.levels)
                sort = sig.individuals[name]
                size = d if sort is Sort.OBJECT else s
                self.levels.append(_Level(self.inds, name, range(size), sort, element=True))
            else:
                self.inds[name] = 0

        for name in sorted(sig.object_atoms):
            self._add_atom(name, Sort.OBJECT, d, name in used_atoms)
        for name in sorted(sig.attribute_atoms):
            self._add_atom(name, Sort.ATTRIBUTE, s, name in used_atoms)

        # row assignment order: attribute roles, then cross, then object
        # roles -- deepest-nested symbols first, so contradictions surface
        # before the outer role rows multiply the search
        roles = sorted(sig.roles)
        for kind in (RoleKind.ATTR_ATTR, RoleKind.CROSS, RoleKind.OBJ_OBJ):
            for name in (name for name in roles if sig.roles[name] is kind):
                n_rows = s if kind is RoleKind.ATTR_ATTR else d
                if kind is RoleKind.CROSS:
                    choices = _cross_rows(s, mode)
                else:
                    choices = range(1 << n_rows)
                if name in used_roles:
                    rows = self.role_rows[name] = [None] * n_rows
                    self._row_levels[name] = range(len(self.levels), len(self.levels) + n_rows)
                    for row in range(n_rows):
                        self.levels.append(_Level(rows, row, choices, kind.target, source=(kind.source, row)))
                else:
                    self.role_rows[name] = [choices[0]] * n_rows

        self.nodes: dict[tuple, int] = {}
        self.vals: list[tuple[int, int]] = []
        self._reads: list[frozenset[int]] = []  # levels a node reads, directly or below
        self.touch: list[list[Callable[[], None]]] = [[] for _ in self.levels]

    def _add_atom(self, name: str, sort: Sort, size: int, used: bool) -> None:
        if used:
            self.atom_ext[name] = None
            self._atom_level[name] = len(self.levels)
            self.levels.append(_Level(self.atom_ext, name, range(1 << size), sort))
        else:
            self.atom_ext[name] = 0

    def assign(self, level_idx: int, value: Optional[int]) -> None:
        """Set a level's slot (``None`` unassigns it) and update the nodes
        that read it."""
        level = self.levels[level_idx]
        level.store[level.key] = value
        for update in self.touch[level_idx]:
            update()

    # -- interval evaluation ----------------------------------------------

    def full(self, sort: Sort) -> int:
        """The mask of every element of the sort's domain."""
        return self.full_object if sort is Sort.OBJECT else self.full_attribute

    def node(self, e: ConceptExpr, sort: Sort) -> int:
        """The index of e's node at ``sort``, compiling what is new."""
        # a key names the children by index, so a lookup hashes no subterm;
        # atoms, individuals and roles have one sort each, so only top and
        # bot name theirs
        kind = type(e)
        if kind is Exists or kind is Forall:
            role = e.role
            kids: tuple[int, ...] = (self.node(e.expr, role.kind.target),)
            key: tuple = (kind, role.name, role.kind is RoleKind.CROSS_INVERSE, kids[0])
        elif kind is Not:
            kids = (self.node(e.expr, sort),)
            key = (kind, kids[0])
        elif kind is And or kind is Or:
            kids = (self.node(e.left, sort), self.node(e.right, sort))
            key = (kind, kids[0], kids[1])
        elif kind is Atom or kind is _Individual:
            kids, key = (), (kind, e.name)
        elif kind is Top or kind is Bot:
            kids, key = (), (kind, sort)
        else:
            raise KedlError(f"arrows must be desugared before the search: {e!r}")
        n = self.nodes.get(key)
        if n is None:
            n = self.nodes[key] = self._compile(e, sort, kids)
        return n

    def _compile(self, e: ConceptExpr, sort: Sort, kids: tuple[int, ...]) -> int:
        """Append e's node, whose children are compiled, evaluate it on the
        current slots and enter it in the touch lists; return its index."""
        n, vals, kind = len(self.vals), self.vals, type(e)
        if kind is Top or kind is Bot:
            vals.append((self.full(sort),) * 2 if kind is Top else (0, 0))
            self._reads.append(_NO_LEVELS)
            return n
        reads = self._reads[kids[0]] if kids else _NO_LEVELS
        if len(kids) == 2:
            reads |= self._reads[kids[1]]
        row_updates: dict[int, Callable[[], None]] = {}

        if kind is Atom:
            ext, name, full = self.atom_ext, e.name, self.full(sort)
            if name in self._atom_level:
                reads = frozenset((self._atom_level[name],))

            def update() -> None:
                x = ext[name]
                vals[n] = (0, full) if x is None else (x, x)

        elif kind is _Individual:
            inds, name, full = self.inds, e.name, self.full(sort)
            reads = frozenset((self._ind_level[name],))

            def update() -> None:
                x = inds[name]
                vals[n] = (0, full) if x is None else (1 << x, 1 << x)

        elif kind is Not:
            (c,) = kids
            full = self.full(sort)

            def update() -> None:
                lb, ub = vals[c]
                vals[n] = full & ~ub, full & ~lb

        elif kind is And:
            a, b = kids

            def update() -> None:
                (l1, u1), (l2, u2) = vals[a], vals[b]
                vals[n] = l1 & l2, u1 & u2

        elif kind is Or:
            a, b = kids

            def update() -> None:
                (l1, u1), (l2, u2) = vals[a], vals[b]
                vals[n] = l1 | l2, u1 | u2

        elif kind is Exists or kind is Forall:
            (c,) = kids
            row_levels = self._row_levels.get(e.role.name, ())
            if e.role.kind is RoleKind.CROSS_INVERSE:
                update = self._inverse_update(e, n, c)
            else:
                update, row_update = self._forward_updates(e, n, c)
                for x, level in enumerate(row_levels):
                    if level not in reads:
                        row_updates[level] = row_update(x)
            reads = reads.union(row_levels)

        vals.append((0, 0))
        self._reads.append(reads)
        update()
        for level in reads:
            self.touch[level].append(row_updates.get(level, update))
        return n

    def _forward_updates(self, e: Union[Exists, Forall], n: int, c: int):
        """The update of node n, a quantifier over a role read forward with
        child node c, and a maker of the update of row x alone.  Both apply
        one rule: bit x of the bounds depends on row x and the child only."""
        vals, rows = self.vals, self.role_rows[e.role.name]
        existential = type(e) is Exists
        full_target = self.full(e.role.kind.target)
        # an unassigned row ranges over every still-possible choice: under
        # EXACTLY_ONE a cross row is one successor; otherwise the empty row
        # is possible, so the existential may fail and the universal hold
        total = e.role.kind is RoleKind.CROSS and self.mode is FunctionalityMode.EXACTLY_ONE
        open_needs_all = total or not existential
        open_needs_some = total or existential

        def row_bits(x: int) -> tuple[int, int]:
            row = rows[x]
            clb, cub = vals[c]
            if row is None:
                lower = open_needs_all and clb == full_target
                upper = cub != 0 or not open_needs_some
            elif existential:
                lower, upper = row & clb, row & cub
            else:
                lower, upper = not row & ~clb, not row & ~cub
            return (1 << x if lower else 0), (1 << x if upper else 0)

        def update() -> None:
            lower = upper = 0
            for x in range(len(rows)):
                lb, ub = row_bits(x)
                lower |= lb
                upper |= ub
            vals[n] = lower, upper

        def row_update(x: int) -> Callable[[], None]:
            keep = ~(1 << x)

            def update_row() -> None:
                lower, upper = vals[n]
                lb, ub = row_bits(x)
                vals[n] = lower & keep | lb, upper & keep | ub

            return update_row

        return update, row_update

    def _inverse_update(self, e: Union[Exists, Forall], n: int, c: int) -> Callable[[], None]:
        """The update of node n, a quantifier over ``inv(r)`` with child node c."""
        vals, rows, s = self.vals, self.role_rows[e.role.name], self.s
        existential = type(e) is Exists

        def update() -> None:
            # predecessors of u: the assigned rows that contain u (known),
            # and those plus every unassigned row (possible)
            clb, cub = vals[c]
            unassigned = 0
            for x, row in enumerate(rows):
                if row is None:
                    unassigned |= 1 << x
            lower = upper = 0
            for u in range(s):
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
            vals[n] = lower, upper

        return update

    # -- assembling interpretations ----------------------------------------

    def build(self) -> Interpretation:
        """The interpretation of the slots, which are all assigned."""
        return Interpretation(
            sig=self.sig, n_delta=self.d, n_sigma=self.s, concept_ext=dict(self.atom_ext),
            role_ext={name: tuple(rows) for name, rows in self.role_rows.items()},
            ind_map=dict(self.inds), mode=self.mode,
        )

    def complete_with_defaults(self, level_idx: int) -> None:
        for idx in range(level_idx, len(self.levels)):
            level = self.levels[idx]
            if level.store[level.key] is None:
                self.assign(idx, level.choices[0])


Status = Callable[[], Optional[bool]]


class _Objective:
    """A model of ``kb`` in which ``goal``, at ``sort``, is non-empty.

    Each KB formula becomes inclusions ``(L, R, sort)``: two for an
    equivalence, ``{a} <= C`` for ``C(a)`` and ``{a} <= some r {b}`` for
    ``r(a, b)``, where ``{a}`` is an :class:`_Individual` leaf (``r`` may
    be ``inv(r)``).  ``concepts`` lists the desugared concepts the status
    reads, the goal first."""

    def __init__(self, kb: KnowledgeBase, goal: ConceptExpr = Top(), sort: Sort = Sort.OBJECT) -> None:
        self.kb = kb
        self.goal = desugar(goal)
        self.sort = sort
        self.inclusions: list[tuple[ConceptExpr, ConceptExpr, Sort]] = []
        for f in kb.formulas():
            if isinstance(f, AssertionFormula):
                a = f.assertion
                if isinstance(a, ConceptAssertion):
                    singleton, concept = _Individual(a.individual), desugar(a.concept)
                else:
                    singleton, concept = _Individual(a.source), Exists(a.role, _Individual(a.target))
                self.inclusions.append((singleton, concept, kb.sig.individuals[singleton.name]))
            else:
                f_sort = combined_sort(f.left, f.right, kb.sig, hint=f.sort)
                left, right = desugar(f.left), desugar(f.right)
                self.inclusions.append((left, right, f_sort))
                if isinstance(f, Equivalence):
                    self.inclusions.append((right, left, f_sort))
        self.concepts = [self.goal] + [e for left, right, _ in self.inclusions for e in (left, right)]

    def compile(self, search: _Search) -> Status:
        """Enter the concepts in the search's node table and return the
        status of its current partial assignment: True when every
        completion is a model, False when none can be, None while open,
        which it never is once every level is assigned.

        The goal fails when its upper mask is empty and is met when its
        lower mask is not.  A pair fails when some element certainly in L
        is certainly not in R, is open when some element possibly in L is
        possibly not in R, and holds otherwise."""
        vals, goal = search.vals, search.node(self.goal, self.sort)
        pairs = [(search.node(left, sort), search.node(right, sort)) for left, right, sort in self.inclusions]

        def status() -> Optional[bool]:
            lb, ub = vals[goal]
            if not ub:
                return False
            holds = True if lb else None
            for left, right in pairs:
                (llb, lub), (rlb, rub) = vals[left], vals[right]
                if llb & ~rub:
                    return False
                if lub & ~rlb:
                    holds = None
            return holds

        return status

    def holds_exactly(self, i: Interpretation) -> bool:
        return bool(extension(self.goal, i, self.sort)) and satisfies_kb(i, self.kb)


class _Refutation(_Objective):
    """A model of ``kb`` in which the assertion ``f`` fails.  With
    ``{a} <= R`` the inclusion an objective makes of ``f``, that is a model
    where ``{a} and not R`` is non-empty: ``{a} and not C`` for ``C(a)``,
    ``{a} and not some r {b}`` for ``r(a, b)``."""

    def __init__(self, kb: KnowledgeBase, f: AssertionFormula) -> None:
        singleton, concept, sort = _Objective(KnowledgeBase(sig=kb.sig, abox=[f.assertion])).inclusions[0]
        super().__init__(kb, And(singleton, Not(concept)), sort)
        self.formula = f

    def holds_exactly(self, i: Interpretation) -> bool:
        return not satisfies_formula(i, self.formula) and satisfies_kb(i, self.kb)


def _used_symbols(exprs: list[ConceptExpr]):
    atoms: set[str] = set()
    roles: set[str] = set()
    inds: set[str] = set()
    for e in exprs:
        for sub in subexprs(e):
            if isinstance(sub, Atom):
                atoms.add(sub.name)
            elif isinstance(sub, (Exists, Forall)):
                roles.add(sub.role.name)
            elif isinstance(sub, _Individual):
                inds.add(sub.name)
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


def _reads_inverse(exprs: list[ConceptExpr]) -> bool:
    """Whether some concept reads a cross role backwards, through ``inv(r)``."""
    return any(
        isinstance(sub, (Exists, Forall)) and sub.role.kind is RoleKind.CROSS_INVERSE
        for e in exprs
        for sub in subexprs(e)
    )


def find_model(
    goal: Union[ConceptExpr, KnowledgeBase],
    bounds: Bounds,
    sig: Optional[Signature] = None,
    sort: Optional[Sort] = None,
    kb: Optional[KnowledgeBase] = None,
) -> SatVerdict:
    """Search for a model of ``kb`` in which the concept ``goal`` is
    non-empty, within the bounds.

    A model satisfies every definition, inclusion (universal reading) and
    assertion of ``kb``.  With no ``kb`` the KB is the empty one over
    ``sig``, so a model is any interpretation with a non-empty extension
    for the goal; with one, its signature is used and ``sig`` ignored.  A
    knowledge base passed as ``goal`` is ``kb`` with the goal ``top``.

    The model returned is the first one with the domain sizes (d, s)
    ascending, object-major.  A sort that no symbol of the goal or the KB
    reaches is searched at size 1 only.  With D and S the largest sizes,
    each size is searched at most once, in this order: (1, 1); then the
    top sizes, (D, S) alone, or (D, s) for every s ascending when the
    objective reads ``inv(r)`` and cross roles are functional (every mode
    but FREE).  When none of these has a model, no size has, and the
    verdict is given.  Otherwise the ascending walk runs, reusing the
    sizes already searched, and returns its first model.

    Why that is exact: a model at (d, s) gives one at (d + 1, s), and one
    at (d, s + 1) unless ``inv(r)`` is read on a functional cross role, by
    adding a copy of one element (ALC models are closed under it, being
    closed under bisimulation).  So if (D, s) has no model, no (d, s)
    has; and if the attribute sort is monotone and (D, S) has none, no
    size has.

    * Object copy.  Add x' with x's atoms and x's rows.  By induction on
      the concept, the old elements keep every extension and x' gets x's
      values: the only role read backwards is ``inv(r)``, and at an
      attribute element x and x' are interchangeable predecessors.
      Individual leaves ``{a}`` occur only as ``{a} <= C``, as
      ``some r {b}`` read at a's element, whose row is unchanged, and in
      the goal of :func:`check_validity_bounded` for an assertion,
      ``{a} and not C`` or ``{a} and not some r {b}``, which a's element
      keeps; the copy is in no singleton, so the goal and every inclusion
      keep their truth.  Copied rows keep functionality and totality, and
      frozen symbols (empty extensions, the constant successor 0) stay
      frozen, so the search at the larger size has the copy among its
      candidates.
    * Attribute copy.  Add u' with u's atoms and q-row.  No row points
      to u', and q is read forward only, so as above the copy is exact
      when no ``inv(r)`` is read.  In FREE, also add x -> u' for each
      r-predecessor x of u, for each cross role r the objective reads:
      u' gets u's predecessors, and x keeps its values as u' has u's, so
      the copy is exact with ``inv(r)`` as well; u' is in no singleton,
      so x keeps ``some r {b}`` and its negation.  Under AT_MOST_ONE and
      EXACTLY_ONE it fails: ``A <= some inv(r) top; top <= A`` has a
      model at (1, 1) and none at (1, 2).
    """
    if isinstance(goal, KnowledgeBase):
        goal, kb = Top(), goal
    kb = _kb_over(sig, kb)
    return _find(_Objective(kb, goal, check_sort(goal, kb.sig, expected=sort)), bounds)


def _find(objective: _Objective, bounds: Bounds) -> SatVerdict:
    """The size walk of :func:`find_model`."""
    kb = objective.kb
    used = _used_symbols(objective.concepts)

    visible = _visible_sorts(kb.sig, used)
    deltas = range(1, bounds.max_delta + 1) if Sort.OBJECT in visible else (1,)
    sigmas = range(1, bounds.max_sigma + 1) if Sort.ATTRIBUTE in visible else (1,)
    searched: dict[tuple[int, int], Optional[Interpretation]] = {}

    def search(d: int, s: int) -> Optional[Interpretation]:
        if (d, s) not in searched:
            searched[d, s] = _search_at(kb.sig, d, s, bounds.mode, objective, used)
        return searched[d, s]

    functional = bounds.mode is not FunctionalityMode.FREE
    tops = sigmas if functional and _reads_inverse(objective.concepts) else sigmas[-1:]
    if search(1, 1) is None and all(search(deltas[-1], s) is None for s in tops):
        return NoModelUpToBound(bounds)
    for d in deltas:
        for s in sigmas:
            found = search(d, s)
            if found is not None:
                _require(validate_interpretation(found) == [], "search returned an invalid interpretation")
                _require(objective.holds_exactly(found), "search returned a non-model")
                return Model(found)
    return NoModelUpToBound(bounds)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise KedlError(f"internal oracle error: {message}")


def _dead_goal_elements(search: _Search, goal: int, sort: Sort) -> int:
    """The elements that no completion of the current partial assignment
    puts in the goal node at ``sort``, found by one-row lookahead.

    Element x is dead when, for some unassigned row of x that the goal
    reads, every choice of that row, assigned alone, drops x from the
    goal's upper mask.  Every completion gives the row one of those
    choices, so by interval soundness x is in the goal in none of them.
    The rows are unassigned again on return."""
    vals, levels, dead = search.vals, search.levels, 0
    side = _side(sort)
    for idx in sorted(search._reads[goal]):
        level = levels[idx]
        if level.source is None or level.source[0] != side or level.store[level.key] is not None:
            continue
        bit = 1 << level.source[1]
        if not vals[goal][1] & bit & ~dead:
            continue
        for value in level.choices:
            search.assign(idx, value)
            if vals[goal][1] & bit:
                break
        else:
            dead |= bit
        search.assign(idx, None)
    return dead


def _search_at(sig, d, s, mode, objective: _Objective, used) -> Optional[Interpretation]:
    used_atoms, used_roles, used_inds = used
    search = _Search(sig, d, s, mode, used_atoms, used_roles, used_inds)
    status = objective.compile(search)
    goal = search.node(objective.goal, objective.sort)
    levels, vals = search.levels, search.vals
    options: list[tuple[tuple[int, _Cells], ...]] = [()] * len(levels)  # kept choices per level
    tried = [0] * len(levels)  # options of each assigned level tried so far
    cells: _Cells = ((search.full_object,), (search.full_attribute,))  # after levels[:depth]
    # every individual and atom is assigned from the first row level on;
    # the goal elements found dead there stay dead in its whole subtree
    first_row = next((idx for idx, level in enumerate(levels) if level.source is not None), len(levels))
    dead = 0
    depth = 0  # levels[:depth] are assigned
    while True:
        verdict = status()
        if verdict is True:
            search.complete_with_defaults(depth)
            return search.build()
        if verdict is None and depth == first_row:
            dead = 0 if vals[goal][0] else _dead_goal_elements(search, goal, objective.sort)
        if verdict is None and (depth < first_row or vals[goal][1] & ~dead):
            level = levels[depth]
            options[depth] = _orbit_choices(level.choices, level.side, level.element, level.source, cells)
            tried[depth] = 0
            depth += 1
        else:
            # back up to the deepest level with an untried choice
            while depth and tried[depth - 1] == len(options[depth - 1]):
                depth -= 1
                search.assign(depth, None)
            if depth == 0:
                return None
        value, cells = options[depth - 1][tried[depth - 1]]
        search.assign(depth - 1, value)
        tried[depth - 1] += 1


def check_validity_bounded(
    f: Formula, bounds: Bounds, sig: Optional[Signature] = None, kb: Optional[KnowledgeBase] = None
) -> ValidityVerdict:
    """Look for a model of ``kb`` where the formula fails (universal
    reading); with no ``kb`` any interpretation over ``sig`` will do, and
    with one its signature is used.

    Dual to :func:`find_model`: an inclusion has a countermodel exactly when
    ``left and not right`` has a model of the KB at the same bounds, and an
    assertion when its goal in :class:`_Refutation` has one.
    """
    kb = _kb_over(sig, kb)
    if isinstance(f, AssertionFormula):
        verdicts = [_find(_Refutation(kb, f), bounds)]
    else:
        sort = combined_sort(f.left, f.right, kb.sig, hint=f.sort)
        verdicts = (find_model(concept, bounds, sort=sort, kb=kb) for concept in refutation_goals(f))
    for verdict in verdicts:
        if isinstance(verdict, Model):
            i = verdict.interpretation
            _require(not satisfies_formula(i, f), "countermodel satisfies the formula")
            return Countermodel(i)
    return NoCountermodelUpToBound(bounds)
