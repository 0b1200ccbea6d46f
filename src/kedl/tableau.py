"""Tableau decision procedure: satisfiability, consistency, subsumption,
instance checking, and classification.

The engine builds a completion graph of sorted nodes.  Acyclic definitions
are unfolded lazily.  An inclusion ``A <= C`` whose left side is a primitive
atom (one without a definition) is absorbed into the same lazy unfolding:
``A`` unfolds to ``C``, or to the conjunction of the right sides of all its
inclusions, so only nodes that carry ``A`` pay for it.  Every other inclusion
is internalized per sort (every node of a sort carries ``not L or R``).  That
includes the inclusions of a defined atom ``A := D``: a node can satisfy
``D``, and so belong to ``A``, without ``A`` in its label, and an unfolding
of ``A`` would never reach it.

The search is one loop over an explicit stack of pending or-branches, depth
first and left branch first.  A split runs its left branch on a clone of the
graph and leaves the graph itself on the stack for the right branch, so each
split makes one clone.  The first open leaf gives a Satisfiable verdict; a
refutation reports the clash trace of the last closed branch.

Each graph carries an agenda of rule candidates (Horrocks & Patel-Schneider,
"Optimizing description logic subsumption", J. Logic Comput. 1999): one heap
per rule class, in priority order unfold/and, merge, forall, or, exists,
totality, keyed by node id and then by printed concept or role name.  Three
methods make every change to a graph, and each pushes the candidates its
change makes: ``_new_node`` (a node and its sort's global constraints),
``_add`` (a label grows) and ``_add_edge`` (an edge, also one a merge moves).
A step fires the smallest applicable candidate of the first class that has
one.  Under EXACTLY_ONE a new object node gets one totality candidate per
cross role, so a totality check tests one successor set.  ``_add`` marks a
node for the clash check only when it adds ``bot`` or the complement of a
concept the label holds, and the check reads only the marked nodes.  Node
ids ascend in ``g.nodes`` order (a merge keeps the older node), so this is
the rule a scan of the nodes in order would find first.

The KB is compiled once per revision (see ``KnowledgeBase.revision``) into
a ``_CompiledKB`` that every ``Tableau`` over it shares, in every mode: a
query whose KB has changed since compiles it again first.  Labels are
sets of ids of the KB's own ``syntax.ConceptStore``, ``kb.concepts``, where
the KB's statements put their concepts when they were made; the store makes
a concept's NNF and the NNF of its negation once, the first time they are
read, and the compile makes them for every id it keys, so a label's forms
are plain list reads.  A query goes through ``KnowledgeBase.intern`` too:
it interns its concept into the same store in one walk and sorts only the
ids the KB has not sorted before, with ``syntax.sort_ids``, the one copy of
the sort rules.
Wherever the search picks the first of several concepts it orders them by
printed form, made once per id a label can hold from its operands' printed
forms, so searches, witnesses and clash traces do not depend on hash seeds.
Cross roles are functional: an object node keeps at most one successor per
cross role (two successors are merged), and under EXACTLY_ONE a successor
is materialized for every declared cross role.

Termination uses pairwise (double) blocking: a generated node is blocked by
an ancestor when both nodes and both their parents carry identical labels
and the connecting edges match.  Subset blocking would be unsound here
because inverse roles propagate constraints upward and functional merging
rewrites edges.  Blocking applies only to nodes created by forward edges;
witnesses created by inverse existentials already own their single cross
edge and never extend the tree through it, so leaving them unblocked keeps
the loop-back model construction functionality-safe without threatening
termination.  A candidate is tested for blocking when it comes up, by
walking its node's ancestors; one on a blocked node waits for a later step.

Every Satisfiable verdict carries a finite witness interpretation, rebuilt
from the graph (blocked nodes identified with their blockers) in one pass
over each element's label and edges.  Each defined atom is set to the exact
extension of its definition, in a dependency order that is checked once per
compile, so every definition holds in the witness by construction.  The
witness is then validated and re-checked with the exact evaluator against
every inclusion and assertion of the KB, and the query, before being
returned.  The definitions and the re-checked inclusions and assertions
are read by the ids their statements were interned at (the KB keeps them
beside each statement, so a compile walks none), and a witness is
evaluated by id, each subterm the definitions share once.

A ``Tableau`` keeps a pool of certified models, each a finite model of the
KB in the Tableau's mode.  ``_compile`` makes it empty whenever it installs
a new compile, so no model of an older revision refutes a query, and only
the runs of atom queries fill it.  The pool holds one int per atom, a
bitset over the elements of the atom's sort in all pooled models, each
model's elements placed after those of the models before it (the known
non-subsumers of Glimm, Horrocks, Motik, Shearer & Stoilos, J. Web
Semantics 2012), so ``bits[A] & ~bits[B]`` refutes ``A <= B`` without a
tableau run; and one int per individual, its element in each model, so
``inds[a] & ~bits[A]`` refutes ``A(a)``.  Atom ``subsumes`` and
``instance_of`` take one path, asked once or many times.  A query a pooled
model refutes is False, and an atom known to be unsatisfiable is below
every atom.  An atom that no pooled model populates, in a pool that holds
a model, is first tested alone: that run is cheaper than ``A and not B``,
whose ``not B`` may split, an unsatisfiable ``A`` is below every atom with
no further run, and a satisfiable one brings a witness into the pool.
Otherwise the pair runs as ``A and not B``, or the instance as the KB plus
``(not A)(a)``, and its witness joins the pool, so a single query makes
one run.  Compound queries and public ``is_satisfiable`` calls neither
read nor grow the pool, so a query asked again adds nothing to it.
``classify`` pools its consistency witness on a fresh ``Tableau``, then
asks ``subsumes`` once per ordered pair of atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from graphlib import TopologicalSorter
from heapq import heappop, heappush
from typing import Iterable, Optional

from .kb import AssertionFormula, ConceptAssertion, KnowledgeBase
from .semantics import (
    FunctionalityMode,
    InternedConcepts,
    InternedFormulas,
    Interpretation,
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
    Sort,
    subexprs,
)
# not called here; perfbench/spans.py wraps these names of this module
from .semantics import extension  # noqa: F401
from .syntax import check_sort, concept_to_str, infer_sort, negated_nnf, to_nnf  # noqa: F401

MAX_TREE_DEPTH = 120
MAX_NODES = 20000


class TableauLimitError(KedlError):
    """The hard expansion budget was hit; inputs are beyond desk scale."""


class InconsistentKBError(KedlError):
    pass


TraceEntry = tuple[str, int, str]  # (rule, node id, concept or role)


def trace_to_text(trace: list[TraceEntry]) -> str:
    return "\n".join(f"{rule}\tn{node}\t{what}" for rule, node, what in trace) + "\n"


@dataclass
class SatResult:
    satisfiable: bool
    witness: Optional[Interpretation] = None
    clash_trace: Optional[list[TraceEntry]] = None
    merged_individuals: list[tuple[str, str]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.satisfiable


class _Node:
    __slots__ = ("id", "sort", "root", "label", "parent", "depth")

    def __init__(self, node_id: int, sort: Sort, root: bool,
                 parent: Optional[tuple[int, str, bool]], depth: int) -> None:
        self.id = node_id
        self.sort = sort
        self.root = root
        self.label: set[int] = set()  # ids of the compiled KB's concept store
        # (parent id, role name, via_inverse); via_inverse means the role
        # edge runs child -> parent (the node witnesses an inverse existential)
        self.parent = parent
        self.depth = depth


# the agenda's rule classes, in priority order: a class fires only when
# every class before it has nothing applicable
UNFOLD_AND, MERGE, FORALL, OR, EXISTS, TOTALITY = range(6)
_RULE_CLASS = {And: UNFOLD_AND, Forall: FORALL, Or: OR, Exists: EXISTS}


class _Graph:
    def __init__(self) -> None:
        self.nodes: dict[int, _Node] = {}
        self.succ: dict[int, dict[str, set[int]]] = {}
        self.ind_node: dict[str, int] = {}
        self.trace: list[TraceEntry] = []
        self.merges: list[tuple[str, str]] = []
        self.next_id = 0
        # one heap of candidate rules per rule class: (node id, printed
        # concept, concept id) for concept rules, (node id, role name) for
        # merge and totality
        self.agenda: list[list[tuple]] = [[] for _ in range(TOTALITY + 1)]
        # nodes that got bot or a complementary pair since the last clash check
        self.touched: set[int] = set()

    def new_node(self, sort: Sort, parent: Optional[tuple[int, str, bool]]) -> _Node:
        depth = 0 if parent is None else self.nodes[parent[0]].depth + 1
        if depth > MAX_TREE_DEPTH or len(self.nodes) >= MAX_NODES:
            raise TableauLimitError("completion graph exceeded its expansion budget")
        node = _Node(self.next_id, sort, parent is None, parent, depth)
        self.next_id += 1
        self.nodes[node.id] = node
        self.succ[node.id] = {}
        return node

    def pop_node(self, node_id: int) -> list[tuple[int, str, int]]:
        """Delete a node and return its edges."""
        del self.nodes[node_id]
        edges = [(node_id, r, t) for r, targets in self.succ.pop(node_id).items() for t in targets]
        for src, per in self.succ.items():
            for r, targets in per.items():
                if node_id in targets:
                    targets.discard(node_id)
                    edges.append((src, r, node_id))
        return edges

    def successors(self, node_id: int, role_name: str) -> set[int]:
        return self.succ[node_id].get(role_name, set())

    def predecessors(self, node_id: int, role_name: str) -> list[int]:
        return [n for n, per in self.succ.items() if node_id in per.get(role_name, ())]

    def adjacent(self, node_id: int, role: RoleName) -> list[int]:
        if role.kind is RoleKind.CROSS_INVERSE:
            return self.predecessors(node_id, role.name)
        return sorted(self.successors(node_id, role.name))

    def clone(self) -> "_Graph":
        g = _Graph()
        g.next_id = self.next_id
        g.ind_node = dict(self.ind_node)
        g.trace = list(self.trace)
        g.merges = list(self.merges)
        for nid, node in self.nodes.items():
            copy = _Node(node.id, node.sort, node.root, node.parent, node.depth)
            copy.label = set(node.label)
            g.nodes[nid] = copy
        g.succ = {nid: {r: set(t) for r, t in targets.items()} for nid, targets in self.succ.items()}
        g.agenda = [list(heap) for heap in self.agenda]
        g.touched = set(self.touched)
        return g


def _definition_order(uses: dict[str, set[str]]) -> list[str]:
    return list(TopologicalSorter(uses).static_order())


class _CompiledKB:
    """What the tableau makes of one revision of a KB, in no particular
    mode, so that every ``Tableau`` over the KB shares it (``kb._compiled``):
    ``concepts``, the KB's store (``kb.concepts``), which holds the concepts
    of the KB and its queries, with ``keys``, the printed forms of the ids
    labels can hold; ``unfold``, each defined literal and each primitive
    atom with inclusions to the id it unfolds to; ``globals``, each sort's
    internalized inclusions; ``definitions``, the defined atoms in the
    dependency order, checked here once, in which a witness sets each to its
    definition's extension, evaluated from ``bodies``; ``recheck``, the
    inclusions and assertions a witness is re-checked against (the
    definitions hold by construction), both read off the ids the KB kept
    beside its statements, and ordered at the first witness;
    ``assertions``, the NNF of
    each concept assertion's concept, from ``recheck``'s ids, in ABox
    order, which seeds every graph; and ``sorts``, each atom's sort, which
    the Tableaus' pools read."""

    def __init__(self, kb: KnowledgeBase) -> None:
        self.revision = kb.revision
        self.concepts = kb.concepts
        self.keys: dict[int, str] = {}
        self.unfold: dict[int, int] = {}
        store, forms, key, sig = self.concepts, self.concepts.forms, self._key, kb.sig
        definitions = kb.definitions
        # each defined atom -> the defined atoms its definition uses; the
        # order must hold each once, after each one it uses
        uses = {name: {sub.name for sub in subexprs(definitions[name])
                       if isinstance(sub, Atom) and sub.name in definitions}
                for name in sorted(definitions)}
        order, done = _definition_order(uses), set()
        for name in order:
            if name not in uses or name in done or not uses[name] <= done:
                raise KedlError(f"internal tableau error: definition of {name} out of dependency order")
            done.add(name)
        if len(done) != len(uses):
            raise KedlError("internal tableau error: the definition order misses a definition")
        self.definitions = order
        # the ids a statement made through the KB's API was interned at are
        # read with no walk (one added by hand is walked); the tableau's
        # forms are made from them
        bodies, sides = kb.statement_ids()
        self.bodies = InternedConcepts(((definitions[name], sig.atom_sort(name)) for name in order), store,
                                       [bodies[name] for name in order])
        self.recheck = InternedFormulas([*kb.inclusions, *map(AssertionFormula, kb.abox)], sig, store, sides)
        for name, (body, _) in zip(order, self.bodies.ids):
            # A unfolds to D, not A to not D
            for atom_form, body_form in zip(forms(store.make((Atom, name))), forms(body)):
                self.unfold[key(atom_form)] = key(body_form)
        absorbed: dict[str, list[int]] = {}  # primitive atom -> the NNFs of its right sides
        self.globals: dict[Sort, list[int]] = {Sort.OBJECT: [], Sort.ATTRIBUTE: []}
        sides = iter(self.recheck.ids)
        for f, (left, _), (right, _) in zip(kb.inclusions, sides, sides):
            if isinstance(f.left, Atom) and f.left.name not in definitions:
                absorbed.setdefault(f.left.name, []).append(forms(right)[0])
                continue
            constraint = key(store.make((Or, None, forms(left)[1], forms(right)[0])))  # not L or R
            # fully polymorphic inclusion (only top/bot): constrain both domains
            for each in (Sort.OBJECT, Sort.ATTRIBUTE) if f.sort is None else (f.sort,):
                self.globals[each].append(constraint)
        # recheck's other ids are the concept assertions', in ABox order
        self.assertions = [self.nnf(i) for i, _ in sides]
        for name, rights in absorbed.items():
            both = reduce(lambda a, b: store.make((And, None, a, b)), rights)
            self.unfold[key(store.make((Atom, name)))] = key(both)
        self.cross_roles = sig.cross_roles()
        self.sorts = dict.fromkeys(sig.object_atoms, Sort.OBJECT) | dict.fromkeys(sig.attribute_atoms, Sort.ATTRIBUTE)
        self.primitive = sorted((sig.object_atoms | sig.attribute_atoms) - set(definitions))

    def nnf(self, i: int, negated: bool = False) -> int:
        """The id of the NNF of id ``i``, or of its negation, keyed."""
        return self._key(self.concepts.forms(i)[negated])

    def _key(self, i: int) -> int:
        """``i``, once the forms and printed keys of it and its
        sub-concepts are made: labels hold only keyed ids, so ``_add`` and
        ``_find_clash`` read their forms as plain list entries."""
        self.concepts.forms(i)
        self.concepts.text(i, self.keys)
        return i


class Tableau:
    """One reasoning context: a knowledge base plus a functionality mode,
    with its pool of certified models (``_Pool``) for the KB's current
    compile, which atom ``subsumes`` and ``instance_of`` read first and
    fill with the witnesses of their runs."""

    def __init__(self, kb: KnowledgeBase, mode: FunctionalityMode = FunctionalityMode.AT_MOST_ONE) -> None:
        self.kb = kb
        self.sig = kb.sig
        self.mode = mode
        self._totality = mode is FunctionalityMode.EXACTLY_ONE  # every object has every cross role
        self._merging = mode is not FunctionalityMode.FREE  # cross roles are functional
        # the KB's compiled form at the last query, and the rule checks over it
        self.compiled: Optional[_CompiledKB] = None
        self._checks: list = []
        # the certified models of this compile, empty at each compile
        self._pool: Optional[_Pool] = None

    def _compile(self) -> _CompiledKB:
        """The KB's compiled form, made again first if the KB has changed
        since it was made.  Every query starts here, so none is answered
        from a stale form or refuted by a model of an older revision, and a
        compile that fails is not kept."""
        kb = self.kb
        compiled = kb._compiled
        if compiled is None or compiled.revision != kb.revision:
            compiled = kb._compiled = _CompiledKB(kb)
        if compiled is not self.compiled:
            self.compiled, self._checks = compiled, self._rule_checks(compiled)
            self._pool = _Pool(compiled.sorts, self.sig.individuals)
        return compiled

    # -- graph construction -------------------------------------------------

    def _init_graph(self, query: Optional[InternedConcepts] = None) -> _Graph:
        """The initial graph: the individuals and their assertions, and a
        node for the query concept, which ``query`` has interned."""
        compiled = self._compile()
        g = _Graph()
        for name in sorted(self.sig.individuals):
            g.ind_node[name] = self._new_node(g, self.sig.individuals[name]).id
        concepts = iter(compiled.assertions)
        for a in self.kb.abox:
            if isinstance(a, ConceptAssertion):
                self._add(g, g.ind_node[a.individual], (next(concepts),))
            else:
                src, dst, role = a.source, a.target, a.role
                if role.kind is RoleKind.CROSS_INVERSE:
                    src, dst = dst, src
                self._add_edge(g, g.ind_node[src], role.name, g.ind_node[dst])
        if query is not None:
            root, sort = query.ids[0]
            self._add(g, self._new_node(g, sort).id, (compiled.nnf(root),))
        # both domains are non-empty in every model; seed missing sorts so
        # their global constraints are exercised
        for sort in (Sort.OBJECT, Sort.ATTRIBUTE):
            if not any(n.sort is sort for n in g.nodes.values()):
                self._new_node(g, sort)
        return g

    # -- public queries -------------------------------------------------------

    def is_satisfiable(self, expr: ConceptExpr, sort: Optional[Sort] = None) -> SatResult:
        query = InternedConcepts((), self._compile().concepts)
        query.ids.append(self.kb.intern(expr, sort))
        return self._run(self._init_graph(query), query)

    def is_consistent(self) -> SatResult:
        return self._run(self._init_graph(), None)

    def subsumes(self, sub: ConceptExpr, sup: ConceptExpr) -> bool:
        if isinstance(sub, Atom) and isinstance(sup, Atom):
            compiled = self.compiled
            if compiled is None or compiled.revision != self.kb.revision:
                self._compile()
            pool = self._pool
            sorts, bits, name = pool.sorts, pool.bits, sub.name
            left = sorts.get(name)
            if left is not None and sorts.get(sup.name) is left:
                if pool.size[left]:  # the pool holds a model
                    if not bits[name]:
                        if name in pool.unsatisfiable:
                            return True
                        # no pooled model populates sub: test it alone first
                        if not pool.add(self.is_satisfiable(sub, sort=left)):
                            pool.unsatisfiable.add(name)
                            return True
                    if bits[name] & ~bits[sup.name]:  # a pooled model has a sub outside sup
                        return False
                return not pool.add(self.is_satisfiable(And(sub, Not(sup)), sort=left))
        # the full check, which also words the SortError of a mismatch
        _, left = self.kb.intern(sub)
        self.kb.intern(sup, left)
        return not self.is_satisfiable(And(sub, Not(sup)), sort=left).satisfiable

    def instance_of(self, individual: str, expr: ConceptExpr) -> bool:
        if individual not in self.sig.individuals:
            raise KedlError(f"undeclared individual: {individual}")
        i, _ = self.kb.intern(expr, self.sig.individuals[individual])
        self._compile()
        pool = self._pool if isinstance(expr, Atom) else None
        if pool is not None and pool.inds.get(individual, 0) & ~pool.bits.get(expr.name, 0):
            return False  # a pooled model has the individual outside expr
        g = self._init_graph()
        self._add(g, g.ind_node[individual], (self.compiled.nnf(i, negated=True),))
        result = self._run(g, None)
        return not (result.satisfiable if pool is None else pool.add(result))

    # -- expansion loop -------------------------------------------------------

    def _run(self, g: _Graph, query: Optional[InternedConcepts]) -> SatResult:
        result = self._expand(g)
        if not result.satisfiable:
            return result
        witness = result.witness
        assert witness is not None
        problems = validate_interpretation(witness)
        if problems:
            raise KedlError(f"internal tableau error: invalid witness: {problems}")
        # the definitions hold by construction (_extract_witness)
        if not satisfies_kb(witness, self.kb, self.compiled.recheck):
            raise KedlError("internal tableau error: witness does not satisfy the knowledge base")
        if query is not None and not next(query.extensions(witness)):
            raise KedlError("internal tableau error: witness misses the query concept")
        return result

    def _expand(self, g: _Graph) -> SatResult:
        todo: list[_Graph] = []  # right branches of the open or-splits, innermost last
        while True:
            clash = self._find_clash(g)
            if clash is not None:
                g.trace.append(clash)
                if not todo:  # every branch closed: report the last one
                    return SatResult(False, clash_trace=g.trace)
                g = todo.pop()
                continue
            step = self._fire_rule(g)
            if step is False:
                return SatResult(True, witness=self._extract_witness(g), merged_individuals=g.merges)
            if step is not True:
                # the left branch runs on a clone, the right one waits on the split graph
                node_id, concept = step
                _, _, left, right = self.compiled.concepts.desc[concept]
                todo.append(g)
                g = g.clone()
                for graph, tag, branch in ((g, "or-left", left), (todo[-1], "or-right", right)):
                    graph.trace.append((tag, node_id, self.compiled.keys[branch]))
                    self._add(graph, node_id, (branch,))

    def _find_clash(self, g: _Graph) -> Optional[TraceEntry]:
        """The clash of the first node, in id order, that ``_add`` marked
        since the last call: a label that gets no ``bot`` and no complement
        of a concept it holds stays clash-free."""
        if not g.touched:
            return None
        store = self.compiled.concepts
        desc, neg, bot = store.desc, store.neg, store.ids.get((Bot, None))
        node_id = min(g.touched)
        g.touched = set()
        label = g.nodes[node_id].label
        c = min((c for c in label if c == bot or (desc[c][0] is Atom and neg[c] in label)),
                key=self.compiled.keys.__getitem__)  # the first in printed order
        if c == bot:
            return ("clash", node_id, "bot")
        name = desc[c][1]
        return ("clash", node_id, f"{name}, not {name}")

    # -- the agenda -------------------------------------------------------------

    def _fire_rule(self, g: _Graph) -> bool | tuple[int, int]:
        """Fire the first applicable rule of the agenda and return True;
        return the ``(node id, concept id)`` of an or-split for ``_expand``
        to branch on, or False when the graph is complete.

        The rule fired is the one with the smallest ``(node id, printed
        concept or role name)`` in the first rule class that has an
        applicable candidate on an unblocked node: the or-rule fires only
        when nothing deterministic is left, generating rules only after that.
        A candidate found inapplicable is dropped, as it cannot become
        applicable again (labels only grow; ``_add_edge`` pushes anew the
        forall and merge candidates a new edge can wake, and a merge moves
        the dropped node's label and edges through ``_add`` and
        ``_add_edge``).  A candidate whose node a merge deleted is
        inapplicable.  A candidate on a blocked node is set aside for this
        step only: blocking is decided per candidate, and propagation into
        a blocked node from an unblocked neighbour may unblock it.
        """
        aside: list[tuple[list[tuple], tuple]] = []
        try:
            for heap, check in zip(g.agenda, self._checks):
                while heap:
                    entry = heap[0]
                    step = check(g, entry) if entry[0] in g.nodes else None
                    if step is None:
                        heappop(heap)
                    elif self._blocker(g, g.nodes[entry[0]]) is not None:
                        aside.append((heap, heappop(heap)))
                    elif step[0] == "or":
                        return entry[0], entry[2]  # the entry is dropped once a branch is added
                    else:
                        self._apply(g, entry[0], *step)
                        return True
            return False
        finally:
            for heap, entry in aside:
                heappush(heap, entry)

    def _apply(self, g: _Graph, node_id: int, rule: str, what: str,
               target: int | RoleName | list[int], concepts: tuple[int, ...]) -> None:
        """Fire a step found by a check: add ``concepts`` to the node
        ``target``, or to a new child joined by the role ``target``, or
        merge the two nodes of ``target``."""
        g.trace.append((rule, node_id, what))
        if rule == "merge":
            self._merge_nodes(g, *target)
            return
        if isinstance(target, RoleName):
            target = self._add_child(g, g.nodes[node_id], target).id
        self._add(g, target, concepts)

    def _rule_checks(self, compiled: _CompiledKB) -> list:
        """One check per rule class: None when the candidate is
        inapplicable, else ``(rule, what, target, concepts)`` for ``_apply``."""
        desc, unfold, merging = compiled.concepts.desc, compiled.unfold, self._merging

        def unfold_and(g: _Graph, entry: tuple) -> Optional[tuple]:
            node_id, what, c = entry
            label = g.nodes[node_id].label
            unfolded = unfold.get(c)
            if unfolded is not None:
                return None if unfolded in label else ("unfold", what, node_id, (unfolded,))
            _, _, left, right = desc[c]
            return None if left in label and right in label else ("and", what, node_id, (left, right))

        def merge(g: _Graph, entry: tuple) -> Optional[tuple]:
            node_id, role_name = entry
            targets = g.successors(node_id, role_name)
            if len(targets) < 2:
                return None
            return ("merge", role_name, sorted(targets)[:2], ())  # keep the older node

        def forall(g: _Graph, entry: tuple) -> Optional[tuple]:
            node_id, what, c = entry
            _, role, body = desc[c]
            for m in g.adjacent(node_id, role):
                if body not in g.nodes[m].label:
                    return ("forall", what, m, (body,))
            return None

        def or_split(g: _Graph, entry: tuple) -> Optional[tuple]:
            label = g.nodes[entry[0]].label
            _, _, left, right = desc[entry[2]]
            return None if left in label or right in label else ("or",)

        def exists(g: _Graph, entry: tuple) -> Optional[tuple]:
            node_id, what, c = entry
            _, role, body = desc[c]
            if role.kind is RoleKind.CROSS and merging:
                # a functional role has at most one successor: reuse it
                targets = g.successors(node_id, role.name)
                if targets:
                    m = min(targets)
                    return None if body in g.nodes[m].label else ("exists-reuse", what, m, (body,))
            elif any(body in g.nodes[m].label for m in g.adjacent(node_id, role)):
                return None
            return ("exists", what, role, (body,))

        def totality(g: _Graph, entry: tuple) -> Optional[tuple]:
            node_id, role_name = entry
            if g.successors(node_id, role_name):
                return None
            return ("totality", role_name, RoleName(role_name, RoleKind.CROSS), ())

        return [unfold_and, merge, forall, or_split, exists, totality]

    def _add(self, g: _Graph, node_id: int, concepts: Iterable[int]) -> None:
        """Add concepts to a label, with the candidates they make, and mark
        the node for ``_find_clash`` when one is ``bot`` or the complement
        of a concept the label holds."""
        label = g.nodes[node_id].label
        compiled = self.compiled
        agenda, unfold, key = g.agenda, compiled.unfold, compiled.keys
        desc, neg = compiled.concepts.desc, compiled.concepts.neg
        for c in concepts:
            if c not in label:
                label.add(c)
                kind = desc[c][0]
                rule = UNFOLD_AND if c in unfold else _RULE_CLASS.get(kind)
                if rule is not None:
                    heappush(agenda[rule], (node_id, key[c], c))
                if kind is Bot or ((kind is Atom or kind is Not) and neg[c] in label):
                    g.touched.add(node_id)

    def _add_edge(self, g: _Graph, src: int, role_name: str, dst: int) -> None:
        """Add an edge, with the candidates it makes: the forall concepts
        that now see one more neighbour, and outside FREE a merge when a
        cross role gets a second successor."""
        targets = g.succ[src].setdefault(role_name, set())
        targets.add(dst)
        if len(targets) == 2 and self._merging and self.sig.roles.get(role_name) is RoleKind.CROSS:
            heappush(g.agenda[MERGE], (src, role_name))
        desc, key = self.compiled.concepts.desc, self.compiled.keys
        for node_id, inverse in ((src, False), (dst, True)):
            for c in g.nodes[node_id].label:
                d = desc[c]
                if d[0] is Forall and d[1].name == role_name and (d[1].kind is RoleKind.CROSS_INVERSE) is inverse:
                    heappush(g.agenda[FORALL], (node_id, key[c], c))

    def _new_node(self, g: _Graph, sort: Sort, parent: Optional[tuple[int, str, bool]] = None) -> _Node:
        """A new node seeded with its sort's global constraints, with the
        candidates they make and, under EXACTLY_ONE, a totality candidate
        per cross role."""
        node = g.new_node(sort, parent)
        self._add(g, node.id, self.compiled.globals[sort])
        if self._totality and sort is Sort.OBJECT:
            for role_name in self.compiled.cross_roles:
                heappush(g.agenda[TOTALITY], (node.id, role_name))
        return node

    def _add_child(self, g: _Graph, node: _Node, role: RoleName) -> _Node:
        """A new seeded node joined to ``node`` by ``role``; under an inverse
        role the edge runs from the child back to ``node``."""
        via_inverse = role.kind is RoleKind.CROSS_INVERSE
        child = self._new_node(g, role.target_sort, parent=(node.id, role.name, via_inverse))
        if via_inverse:
            self._add_edge(g, child.id, role.name, node.id)
        else:
            self._add_edge(g, node.id, role.name, child.id)
        return child

    def _merge_nodes(self, g: _Graph, keep: int, drop: int) -> None:
        """Merge ``drop`` into ``keep``: its label and edges move through
        ``_add`` and ``_add_edge``, which push the candidates they make; the
        candidates left on ``drop`` are found inapplicable when they come up."""
        keep_node, drop_node = g.nodes[keep], g.nodes[drop]
        if keep_node.root and drop_node.root:
            kept_names = sorted(n for n, i in g.ind_node.items() if i == keep)
            dropped_names = sorted(n for n, i in g.ind_node.items() if i == drop)
            if kept_names and dropped_names:
                g.merges.append((kept_names[0], dropped_names[0]))
        self._add(g, keep, drop_node.label)
        for src, role_name, dst in g.pop_node(drop):
            self._add_edge(g, keep if src == drop else src, role_name, keep if dst == drop else dst)
        g.touched.discard(drop)
        for name, nid in list(g.ind_node.items()):
            if nid == drop:
                g.ind_node[name] = keep
        for other in g.nodes.values():
            if other.parent is not None and other.parent[0] == drop:
                other.parent = (keep, other.parent[1], other.parent[2])

    # -- blocking -------------------------------------------------------------

    def _blocker(self, g: _Graph, node: _Node) -> Optional[_Node]:
        """The ancestor that blocks ``node`` or an ancestor of it, or None:
        one walk down the path from the root, keying each forward-created
        node by its edge, sort, label and parent's label; the first node
        whose key an ancestor holds is blocked by that ancestor, and so is
        every node below it.  Roots and inverse-created witnesses are never
        blocked themselves."""
        path = []
        while node.parent is not None:
            path.append(node)
            node = g.nodes[node.parent[0]]
        seen: dict[tuple, _Node] = {}
        above = frozenset(node.label)
        for node in reversed(path):
            label = frozenset(node.label)
            if not node.parent[2]:
                key = (node.parent[1], node.sort, label, above)
                if key in seen:
                    return seen[key]
                seen[key] = node
            above = label
        return None

    # -- witness extraction ----------------------------------------------------

    def _extract_witness(self, g: _Graph) -> Interpretation:
        blockers = {node.id: self._blocker(g, node) for node in g.nodes.values()}
        elements = [n for n in g.nodes.values() if blockers[n.id] is None]
        index: dict[int, int] = {}  # node id -> element; a blocked node is its blocker's
        n_delta = n_sigma = 0
        for node in elements:
            if node.sort is Sort.OBJECT:
                index[node.id] = n_delta
                n_delta += 1
            else:
                index[node.id] = n_sigma
                n_sigma += 1
        for nid, blocker in blockers.items():
            if blocker is not None:
                index[nid] = index[blocker.id]

        # one pass over each element's label and edges
        compiled = self.compiled
        concept_ext = dict.fromkeys(compiled.primitive, 0)
        rows = {role_name: [0] * (n_delta if kind.source is Sort.OBJECT else n_sigma)
                for role_name, kind in self.sig.roles.items()}
        desc = compiled.concepts.desc
        for node in elements:
            x = index[node.id]
            for c in node.label:
                kind, name = desc[c][:2]
                if kind is Atom and name in concept_ext:  # a primitive atom
                    concept_ext[name] |= 1 << x
            for role_name, targets in g.succ[node.id].items():
                row = rows[role_name]
                for target in targets:
                    row[x] |= 1 << index[target]
        role_ext = {role_name: tuple(row) for role_name, row in rows.items()}

        ind_map = {name: index[nid] for name, nid in g.ind_node.items()}

        witness = Interpretation(
            sig=self.sig,
            n_delta=n_delta,
            n_sigma=n_sigma,
            concept_ext=concept_ext,
            role_ext=role_ext,
            ind_map=ind_map,
            mode=self.mode,
        )
        # defined atoms denote exactly their definitions; labels only ever
        # carry the unfolded content, so evaluate in the checked dependency
        # order: A == D then holds by construction, and no re-check reads it
        for name, mask in zip(compiled.definitions, compiled.bodies.extensions(witness)):
            concept_ext[name] = mask
        return witness


class _Pool:
    """The certified models of one ``Tableau`` in one compile of its KB,
    as one bitset per atom and one per individual: each added model shifts
    its extension of an atom, and the element of an individual, past the
    elements of their sort that earlier models brought.  So ``bits[A] &
    ~bits[B]`` is non-zero exactly when some pooled model has an element of
    ``A`` that is not in ``B``, and ``inds[a] & ~bits[A]`` exactly when
    ``a`` is outside ``A`` in one.  ``sorts`` holds each atom's sort,
    ``individuals`` each individual's, ``size`` the elements of each sort
    that the models hold, and ``unsatisfiable`` the atoms no model can
    populate.  It starts empty, so making one costs no run and no loop:
    ``bits`` and ``inds`` get their entries with the first model, and only
    the runs it asks for fill it."""

    def __init__(self, sorts: dict[str, Sort], individuals: dict[str, Sort]) -> None:
        self.sorts, self.individuals = sorts, individuals
        self.bits: dict[str, int] = {}
        self.inds: dict[str, int] = {}
        self.size = {Sort.OBJECT: 0, Sort.ATTRIBUTE: 0}
        self.unsatisfiable: set[str] = set()

    def add(self, result: SatResult) -> bool:
        """Pool the witness of a satisfiable ``result``; return whether it
        is satisfiable."""
        if not result.satisfiable:
            return False
        model, bits, inds, size = result.witness, self.bits, self.inds, self.size
        ext, where = model.concept_ext, model.ind_map
        for name, sort in self.sorts.items():
            bits[name] = bits.get(name, 0) | ext[name] << size[sort]
        for name, sort in self.individuals.items():
            inds[name] = inds.get(name, 0) | 1 << (where[name] + size[sort])
        size[Sort.OBJECT] += model.n_delta
        size[Sort.ATTRIBUTE] += model.n_sigma
        return True


# -- module-level operations ---------------------------------------------------


def is_satisfiable(
    expr: ConceptExpr,
    kb: KnowledgeBase,
    mode: FunctionalityMode = FunctionalityMode.AT_MOST_ONE,
    sort: Optional[Sort] = None,
) -> SatResult:
    return Tableau(kb, mode).is_satisfiable(expr, sort=sort)


def is_consistent(kb: KnowledgeBase, mode: FunctionalityMode = FunctionalityMode.AT_MOST_ONE) -> SatResult:
    return Tableau(kb, mode).is_consistent()


def subsumes(
    kb: KnowledgeBase,
    sub: ConceptExpr,
    sup: ConceptExpr,
    mode: FunctionalityMode = FunctionalityMode.AT_MOST_ONE,
) -> bool:
    return Tableau(kb, mode).subsumes(sub, sup)


def instance_of(
    kb: KnowledgeBase,
    individual: str,
    expr: ConceptExpr,
    mode: FunctionalityMode = FunctionalityMode.AT_MOST_ONE,
) -> bool:
    return Tableau(kb, mode).instance_of(individual, expr)


@dataclass
class Classification:
    """Subsumption preorder over named atoms, one order per sort.

    Atoms proved equivalent share a cell; ``leq`` relates cell
    representatives (first member alphabetically) reflexively and
    transitively.
    """

    cells: dict[Sort, list[list[str]]]
    leq: dict[Sort, set[tuple[str, str]]]

    @cached_property
    def _rep(self) -> dict[Sort, dict[str, str]]:
        return {sort: {m: cell[0] for cell in cells for m in cell} for sort, cells in self.cells.items()}

    def below(self, sort: Sort, sub: str, sup: str) -> bool:
        rep = self._rep[sort]
        return (rep[sub], rep[sup]) in self.leq[sort]


def classify(kb: KnowledgeBase, mode: FunctionalityMode = FunctionalityMode.AT_MOST_ONE) -> Classification:
    tab = Tableau(kb, mode)
    consistent = tab.is_consistent()
    if not tab._pool.add(consistent):
        raise InconsistentKBError("knowledge base is inconsistent; no subsumption order exists")

    cells: dict[Sort, list[list[str]]] = {}
    leq: dict[Sort, set[tuple[str, str]]] = {}
    for sort, atoms in (
        (Sort.OBJECT, sorted(kb.sig.object_atoms)),
        (Sort.ATTRIBUTE, sorted(kb.sig.attribute_atoms)),
    ):
        pair_leq = {
            (a, b)
            for a in atoms
            for b in atoms
            if a == b or tab.subsumes(Atom(a), Atom(b))
        }
        remaining = list(atoms)
        sort_cells: list[list[str]] = []
        while remaining:
            a = remaining.pop(0)
            cell = [a] + [b for b in remaining if (a, b) in pair_leq and (b, a) in pair_leq]
            for b in cell[1:]:
                remaining.remove(b)
            sort_cells.append(sorted(cell))
        reps = {m: cell[0] for cell in sort_cells for m in cell}
        cells[sort] = sort_cells
        leq[sort] = {(reps[a], reps[b]) for (a, b) in pair_leq}
    return Classification(cells=cells, leq=leq)
