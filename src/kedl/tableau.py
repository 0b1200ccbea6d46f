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

Labels are sets of ids of the ``Tableau``'s ``syntax.ConceptStore``, in which
each concept's NNF and the NNF of its negation are made once, together
with its id, so a query interns its concept, or the negation, in one step.
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
``Tableau``, so every definition holds in the witness by construction.  The
witness is then validated and re-checked with the exact evaluator against
every inclusion and assertion of the KB, and the query, before being
returned.

``classify`` still asks ``subsumes`` once per ordered pair of atoms, but its
``Tableau`` keeps a pool of certified models, each a finite model of the KB
in the Tableau's mode: first the consistency witness, then every witness a
pooled query finds.  The pool holds one int per atom, a bitset over the
elements of the atom's sort in all pooled models, each model's elements
placed after those of the models before it (the known non-subsumers of
Glimm, Horrocks, Motik, Shearer & Stoilos, J. Web Semantics 2012), so
``bits[A] & ~bits[B]`` refutes ``A <= B`` without a tableau run.  An atom
that no pooled model populates is first tested alone: that run is cheaper
than ``A and not B``, whose ``not B`` may split, an unsatisfiable ``A`` is
below every atom with no further run, and a satisfiable one brings a
witness into the pool.  A tableau runs ``A and not B`` only for a pair the
pool leaves open.  A ``Tableau`` held by a caller keeps no pool: its
queries do the same work every time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from graphlib import TopologicalSorter
from heapq import heappop, heappush
from typing import Iterable, Optional

from .kb import ConceptAssertion, Equivalence, Formula, KnowledgeBase
from .semantics import (
    FunctionalityMode,
    Interpretation,
    extension,
    satisfies_kb,
    sorted_formulas,
    validate_interpretation,
)
from .syntax import (
    And,
    Atom,
    Bot,
    ConceptExpr,
    ConceptStore,
    Exists,
    Forall,
    KedlError,
    Not,
    Or,
    RoleKind,
    RoleName,
    Signature,
    Sort,
    check_sort,
    infer_sort,
    subexprs,
)
# not called here; perfbench/spans.py wraps these names of this module
from .syntax import concept_to_str, negated_nnf, to_nnf  # noqa: F401

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
        self.label: set[int] = set()  # concept ids of the owning Tableau
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


class Tableau:
    """One reasoning context: a knowledge base plus a functionality mode."""

    def __init__(self, kb: KnowledgeBase, mode: FunctionalityMode = FunctionalityMode.AT_MOST_ONE) -> None:
        self.kb = kb
        self.sig = kb.sig
        self.mode = mode
        self._totality = mode is FunctionalityMode.EXACTLY_ONE  # every object has every cross role
        self._merging = mode is not FunctionalityMode.FREE  # cross roles are functional
        self.concepts = ConceptStore()
        self.keys: dict[int, str] = {}  # printed forms of the ids labels can hold
        # sorts are inferred here, so a badly sorted KB fails at construction;
        # NNF and interning wait for the first query (_intern_kb)
        self._inclusions = [
            (left, right, infer_sort(left, self.sig) or infer_sort(right, self.sig))
            for left, right in kb.inclusions
        ]
        # defined literal, or primitive atom with inclusions -> its unfolding
        self._unfold: dict[int, int] = {}
        self._globals: Optional[dict[Sort, list[int]]] = None
        # certified models that refute subsumptions; set only by classify
        self._pool: Optional[_Pool] = None

    def _intern_kb(self) -> None:
        if self._globals is None:
            store, intern, key = self.concepts, self._intern, self._key
            definitions = self.kb.definitions
            for name, expr in definitions.items():
                atom, body = store.intern(Atom(name)), store.intern(expr)
                for form in (store.nnf, store.neg):  # A unfolds to D, not A to not D
                    self._unfold[key(form[atom])] = key(form[body])
            absorbed: dict[str, list[ConceptExpr]] = {}  # primitive atom -> right sides
            constraints: dict[Sort, list[int]] = {Sort.OBJECT: [], Sort.ATTRIBUTE: []}
            for left, right, sort in self._inclusions:
                if isinstance(left, Atom) and left.name not in definitions:
                    absorbed.setdefault(left.name, []).append(right)
                    continue
                constraint = intern(Or(Not(left), right))
                # fully polymorphic inclusion (only top/bot): constrain both domains
                for each in (Sort.OBJECT, Sort.ATTRIBUTE) if sort is None else (sort,):
                    constraints[each].append(constraint)
            for name, rights in absorbed.items():
                self._unfold[intern(Atom(name))] = intern(reduce(And, rights))
            self._globals = constraints  # set last: a failed run is redone by the next query

    def _intern(self, e: ConceptExpr, negated: bool = False) -> int:
        """The id of the NNF of ``e``, or of its negation, keyed."""
        store = self.concepts
        return self._key((store.neg if negated else store.nnf)[store.intern(e)])

    def _key(self, i: int) -> int:
        """``i``, once its printed key and its sub-concepts' are made."""
        self.concepts.text(i, self.keys)
        return i

    # -- graph construction -------------------------------------------------

    def _init_graph(self, extra: list[tuple[Sort, int]]) -> _Graph:
        self._intern_kb()
        g = _Graph()
        for name in sorted(self.sig.individuals):
            g.ind_node[name] = self._new_node(g, self.sig.individuals[name]).id
        for a in self.kb.abox:
            if isinstance(a, ConceptAssertion):
                self._add(g, g.ind_node[a.individual], (self._intern(a.concept),))
            else:
                src, dst, role = a.source, a.target, a.role
                if role.kind is RoleKind.CROSS_INVERSE:
                    src, dst = dst, src
                self._add_edge(g, g.ind_node[src], role.name, g.ind_node[dst])
        for sort, concept in extra:
            self._add(g, self._new_node(g, sort).id, (concept,))
        # both domains are non-empty in every model; seed missing sorts so
        # their global constraints are exercised
        for sort in (Sort.OBJECT, Sort.ATTRIBUTE):
            if not any(n.sort is sort for n in g.nodes.values()):
                self._new_node(g, sort)
        return g

    # -- public queries -------------------------------------------------------

    def is_satisfiable(self, expr: ConceptExpr, sort: Optional[Sort] = None) -> SatResult:
        sort = check_sort(expr, self.sig, expected=sort)
        g = self._init_graph(extra=[(sort, self._intern(expr))])
        return self._run(g, query=(expr, sort))

    def is_consistent(self) -> SatResult:
        g = self._init_graph(extra=[])
        return self._run(g, query=None)

    def subsumes(self, sub: ConceptExpr, sup: ConceptExpr) -> bool:
        atoms = isinstance(sub, Atom) and isinstance(sup, Atom)
        left = self.sig.atom_sort(sub.name) if atoms else None
        if left is None or self.sig.atom_sort(sup.name) is not left:
            # the full check, which also words the SortError of a mismatch
            left = check_sort(sub, self.sig)
            check_sort(sup, self.sig, expected=left)
        pool = self._pool if atoms else None
        if pool is not None:
            if sub.name in pool.unsatisfiable:
                return True
            if not pool.bits[sub.name]:
                # no pooled model populates sub: test it alone first
                found = self.is_satisfiable(sub, sort=left)
                if not found.satisfiable:
                    pool.unsatisfiable.add(sub.name)
                    return True
                pool.add(found.witness)
            if pool.bits[sub.name] & ~pool.bits[sup.name]:
                return False
        result = self.is_satisfiable(And(sub, Not(sup)), sort=left)
        if pool is not None and result.satisfiable:
            pool.add(result.witness)
        return not result.satisfiable

    def instance_of(self, individual: str, expr: ConceptExpr) -> bool:
        if individual not in self.sig.individuals:
            raise KedlError(f"undeclared individual: {individual}")
        sort = self.sig.individuals[individual]
        check_sort(expr, self.sig, expected=sort)
        g = self._init_graph(extra=[])
        self._add(g, g.ind_node[individual], (self._intern(expr, negated=True),))
        return not self._run(g, query=None).satisfiable

    # -- expansion loop -------------------------------------------------------

    def _run(self, g: _Graph, query: Optional[tuple[ConceptExpr, Sort]]) -> SatResult:
        result = self._expand(g)
        if not result.satisfiable:
            return result
        witness = result.witness
        assert witness is not None
        problems = validate_interpretation(witness)
        if problems:
            raise KedlError(f"internal tableau error: invalid witness: {problems}")
        # the definitions hold by construction (_extract_witness, _definitions)
        if not satisfies_kb(witness, self.kb, formulas=self._formulas):
            raise KedlError("internal tableau error: witness does not satisfy the knowledge base")
        if query is not None and not extension(query[0], witness, query[1]):
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
                _, _, left, right = self.concepts.desc[concept]
                todo.append(g)
                g = g.clone()
                for graph, tag, branch in ((g, "or-left", left), (todo[-1], "or-right", right)):
                    graph.trace.append((tag, node_id, self.keys[branch]))
                    self._add(graph, node_id, (branch,))

    def _find_clash(self, g: _Graph) -> Optional[TraceEntry]:
        """The clash of the first node, in id order, that ``_add`` marked
        since the last call: a label that gets no ``bot`` and no complement
        of a concept it holds stays clash-free."""
        if not g.touched:
            return None
        desc, neg = self.concepts.desc, self.concepts.neg
        bot = self.concepts.ids.get((Bot, None))
        node_id = min(g.touched)
        g.touched = set()
        label = g.nodes[node_id].label
        c = min((c for c in label if c == bot or (desc[c][0] is Atom and neg[c] in label)),
                key=self.keys.__getitem__)  # the first in printed order
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

    @cached_property
    def _checks(self) -> list:
        """One check per rule class: None when the candidate is
        inapplicable, else ``(rule, what, target, concepts)`` for ``_apply``."""
        desc, unfold, merging = self.concepts.desc, self._unfold, self._merging

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
        agenda, unfold, key = g.agenda, self._unfold, self.keys
        desc, neg = self.concepts.desc, self.concepts.neg
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
        desc, key = self.concepts.desc, self.keys
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
        self._add(g, node.id, self._globals[sort])
        if self._totality and sort is Sort.OBJECT:
            for role_name in self._cross_roles:
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
        concept_ext = dict.fromkeys(self._primitive, 0)
        rows = {role_name: [0] * (n_delta if kind.source is Sort.OBJECT else n_sigma)
                for role_name, kind in self.sig.roles.items()}
        desc = self.concepts.desc
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
        # carry the unfolded content, so evaluate in dependency order
        for name, definition, sort in self._definitions:
            concept_ext[name] = extension(definition, witness, sort)
        return witness

    @cached_property
    def _cross_roles(self) -> list[str]:
        return self.sig.cross_roles()

    # per-KB facts of witness extraction and re-check, computed at the first
    # witness and shared by all later ones

    @cached_property
    def _primitive(self) -> list[str]:
        return sorted((self.sig.object_atoms | self.sig.attribute_atoms) - set(self.kb.definitions))

    @cached_property
    def _formulas(self) -> list[tuple[Formula, Optional[Sort]]]:
        """The formulas a witness is re-checked against: every inclusion
        and assertion, not the definitions, which hold by construction."""
        return [(f, sort) for f, sort in sorted_formulas(self.kb) if not isinstance(f, Equivalence)]

    @cached_property
    def _definition_uses(self) -> dict[str, set[str]]:
        """Each defined atom -> the defined atoms its definition uses."""
        definitions = self.kb.definitions
        return {name: {sub.name for sub in subexprs(definitions[name])
                       if isinstance(sub, Atom) and sub.name in definitions}
                for name in sorted(definitions)}

    @cached_property
    def _definition_order(self) -> list[str]:
        return list(TopologicalSorter(self._definition_uses).static_order())

    @cached_property
    def _definitions(self) -> list[tuple[str, ConceptExpr, Sort]]:
        """``(name, definition, sort)`` in ``_definition_order``.  A witness
        sets each defined atom to its definition's extension in this order,
        so ``A == D`` holds in it by construction when every definition
        comes once and after each defined atom it uses: that is checked
        here, once, and no witness re-evaluates a definition."""
        uses, done = self._definition_uses, set()
        for name in self._definition_order:
            if name not in uses or name in done or not uses[name] <= done:
                raise KedlError(f"internal tableau error: definition of {name} out of dependency order")
            done.add(name)
        if len(done) != len(uses):
            raise KedlError("internal tableau error: the definition order misses a definition")
        return [(name, self.kb.definitions[name], self.sig.atom_sort(name)) for name in self._definition_order]


class _Pool:
    """The certified models of one classification, as one bitset per atom:
    each added model shifts its extension of the atom past the elements of
    the atom's sort that earlier models brought, so ``bits[A] & ~bits[B]``
    is non-zero exactly when some pooled model has an element of ``A`` that
    is not in ``B``.  ``unsatisfiable`` holds the atoms no model can
    populate."""

    def __init__(self, sig: Signature) -> None:
        self.atoms = [(name, sig.atom_sort(name)) for name in sorted(sig.object_atoms | sig.attribute_atoms)]
        self.bits = {name: 0 for name, _ in self.atoms}
        self.size = {Sort.OBJECT: 0, Sort.ATTRIBUTE: 0}
        self.unsatisfiable: set[str] = set()

    def add(self, model: Interpretation) -> None:
        bits, size, ext = self.bits, self.size, model.concept_ext
        for name, sort in self.atoms:
            bits[name] |= ext[name] << size[sort]
        size[Sort.OBJECT] += model.n_delta
        size[Sort.ATTRIBUTE] += model.n_sigma


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
    if not consistent.satisfiable:
        raise InconsistentKBError("knowledge base is inconsistent; no subsumption order exists")
    tab._pool = _Pool(kb.sig)
    tab._pool.add(consistent.witness)

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
