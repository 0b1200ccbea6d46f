"""The three benchmark workloads: seeded inputs, ops and verdict references.

Every workload is built from a seed into a fixed list of ops (one pass).
An op is one call into the public API the ``kedl`` subcommands use; its raw
result is reduced to a small verdict outside the timed region, and the
workload's checker compares every verdict of a pass against a reference
that does not come from the engine under test.

* ``km-classify``  -- the bundled gas corpus plus generated km ontologies
  (small ones seeded, mid-sized ones a fixed corpus), compiled with ``render_kedl`` and parsed with ``parse_kb``;
  ``classify`` per ontology and mode, plus single ``subsumes`` /
  ``is_satisfiable`` queries.  Reference: the structural order of the km
  records (object O1 is below O2 iff attrs(O2) is a subset of attrs(O1);
  attribute atoms are pairwise incomparable; every atom is satisfiable).
* ``differential`` -- seeded random NNF concepts and a fixed corpus of small
  random KBs, each decided
  by the tableau and by ``find_model`` at (2,2) in both functionality
  modes.  Reference: soundness between the engines (an oracle Model and a
  tableau Unsatisfiable verdict on the same input contradict each other).
* ``suite-refute`` -- the 70 axiom/property checks at (3,3), one op per
  (item, sort).  Reference: every check passes.

The kedl names are looked up when a workload is built, never at import
time, because the harness re-imports the package for every set-up.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import random
from dataclasses import dataclass
from typing import Callable

BOUND = 3  # oracle domain bound of suite-refute, both sorts
CORPUS_SEED = 0  # seed of the fixed corpora below, the same for every run
# suite-refute items run once per run: the same-sort role distribution
# schemas, about 27 s of the 30 s all 70 ops take
ONCE_SUITE_ITEMS = frozenset(f"axiom{n}" for n in range(4, 10))

# "gen-km n" sizes of one km-classify pass: small ones drawn from the seed,
# mid-sized ones a fixed corpus like gas.  The names the seed draws move an
# n = 4 classification by up to 2x, and with their queries the two n = 4
# ontologies made most of the seed-to-seed spread of ops_per_s.  The gas
# queries are fixed too: they sit at the median op latency, and drawn from
# the seed they moved op_p50_ms between seeds.  The
# classify ops of gas and of the corpus (0.5 to 4.5 s each) run once per
# run, all other ops in every sweep.
GEN_KM_SEEDED_SIZES = (3,) * 6
GEN_KM_CORPUS_SIZES = (4,) * 2
DIFF_CONCEPTS = 1500
DIFF_KBS = 300
# The KB half is one fixed corpus, like gas in km-classify: its heaviest
# oracle ops set op_tail_ms, and a per-seed KB set moved it by a quarter
# between seeds (the 11th-largest of a heavy-tailed cost distribution).
# at (3,3) some random inputs keep the bounded search busy for minutes
DIFF_BOUND = 2


@dataclass
class Op:
    op_id: str
    engine: str  # "tableau" | "oracle" | "suite"
    call: Callable[[], object]
    verdict: Callable[[object], object]
    # Run a single time in a timed run, between two sweeps over the other
    # ops.  Fixed per op by its workload, never by a timing, so a run does
    # not move an op between estimators; only the heaviest ops are marked,
    # so the rest fit several sweeps into a run.
    once: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # verdicts by op id (failed ops absent) -> {op id: reason} for wrong ones
    check: Callable[[dict[str, object]], dict[str, str]]
    fingerprint: str  # digest of every generated input, in op order


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


def _digest(parts: list[str]) -> str:
    return hashlib.sha256("\n\x00".join(parts).encode()).hexdigest()


def _modes():
    from kedl.semantics import FunctionalityMode

    return (FunctionalityMode.AT_MOST_ONE, FunctionalityMode.EXACTLY_ONE)


# --- km-classify -----------------------------------------------------------------


def gen_km_text(rng: random.Random, n: int) -> str:
    """A "gen-km n" record file: n objects, 2n attribute states, 4 states per
    object, n/2 relations each mapping one state to one other.

    The shape is fixed by n: object i holds the states at positions 2i..2i+3
    (cyclically), so neighbouring objects share two states, and relation j
    maps position 2j to position 2j+3+n%2, which is never an input, so the
    inclusions do not chain.  The seed assigns state and object names to the
    positions (the tableau orders its work by printed names, so the search
    differs per seed) and draws the record metadata.  Random shapes make the
    cost of one ontology swing by 10x between seeds at n=4.
    """
    states = [f"S{i}" for i in range(1, 2 * n + 1)]
    objects = [f"O{i}" for i in range(1, n + 1)]
    at = rng.sample(states, len(states))  # position -> state name
    named = rng.sample(objects, n)  # position -> object name
    lines = []
    for s in states:
        grade = rng.randrange(5)
        dim = f' dimension: "unit{rng.randrange(3)}";' if grade else ""
        lines.append(f"attribute {s} {{ measurability: {grade};{dim} function: none; }}")
    for i, name in enumerate(named):
        picked = ", ".join(at[(2 * i + k) % (2 * n)] for k in range(4))
        lines.append(f"object {name} {{ attributes: {picked}; }}")
    for j in range(n // 2):
        src, dst = at[2 * j], at[2 * j + 3 + n % 2]
        lines.append(
            f"relation rel{j + 1} {{ mapping: logical; inputs: {src}; outputs: {dst}; function: f{j + 1}; }}")
    return "\n".join(lines) + "\n"


def compile_km(km_text: str):
    """km records -> (elements, kedl text, knowledge base), through the
    public km compiler and KB parser."""
    from kedl import km, parser

    elements = km.parse_km(km_text)
    kedl_text = km.render_kedl(elements)
    return elements, kedl_text, parser.parse_kb(kedl_text)


def structural_order(elements) -> set[tuple[str, str]]:
    """Every (sub, sup) atom pair the km records entail, reflexive pairs
    included: objects by reverse inclusion of attribute sets, attributes
    only reflexively."""
    from kedl.km import AttributeKnowledgeElement, ObjectKnowledgeElement

    attrs = {e.name: set(e.attributes) for e in elements if isinstance(e, ObjectKnowledgeElement)}
    order = {(a, a) for a in attrs}
    order |= {(e.name, e.name) for e in elements if isinstance(e, AttributeKnowledgeElement)}
    order |= {(a, b) for a in attrs for b in attrs if attrs[b] <= attrs[a]}
    return order


def classification_pairs(c) -> frozenset[tuple[str, str]]:
    """Expand a Classification into every (sub, sup) pair it asserts."""
    pairs = set()
    for sort, cells in c.cells.items():
        members = [m for cell in cells for m in cell]
        pairs |= {(a, b) for a in members for b in members if c.below(sort, a, b)}
    return frozenset(pairs)


def _km_queries(rng: random.Random, kb, elements, tab, label: str) -> list[tuple[str, Callable, bool]]:
    """Eight seeded single queries with their structural answers: two
    object-pair subsumptions, two "O <= some has-s S" subsumptions (one
    entailed), two atom satisfiability tests and two "O and not some has-s S"
    tests (one unsatisfiable)."""
    from kedl.km import ObjectKnowledgeElement, role_name_for
    from kedl.syntax import And, Atom, Exists, Not

    objects = [e for e in elements if isinstance(e, ObjectKnowledgeElement)]
    attributes = sorted(kb.sig.attribute_atoms)
    attached = sorted({a for o in objects for a in o.attributes})  # those with a has- role
    out = []

    def has(state: str):
        return Exists(kb.sig.role(role_name_for(state)), Atom(state))

    for _ in range(2):
        o1, o2 = rng.sample(objects, 2)
        out.append((f"subsumes({o1.name},{o2.name})",
                    lambda a=Atom(o1.name), b=Atom(o2.name): tab.subsumes(a, b),
                    set(o2.attributes) <= set(o1.attributes)))
    for entailed in (True, False):
        o = rng.choice(objects)
        pool = o.attributes if entailed else [a for a in attached if a not in o.attributes]
        if not pool:
            continue
        s = rng.choice(pool)
        out.append((f"subsumes({o.name},some-{s})",
                    lambda a=Atom(o.name), b=has(s): tab.subsumes(a, b), entailed))
    for name in (rng.choice(objects).name, rng.choice(attributes)):
        out.append((f"sat({name})", lambda a=Atom(name): tab.is_satisfiable(a).satisfiable, True))
    for entailed in (True, False):
        o = rng.choice(objects)
        pool = o.attributes if entailed else [a for a in attached if a not in o.attributes]
        if not pool:
            continue
        s = rng.choice(pool)
        out.append((f"sat({o.name}-not-some-{s})",
                    lambda c=And(Atom(o.name), Not(has(s))): tab.is_satisfiable(c).satisfiable,
                    not entailed))
    return [(f"{label}/q{i}-{q}", call, expected) for i, (q, call, expected) in enumerate(out)]


def build_km_classify(seed: int) -> Workload:
    from kedl import tableau

    rng, corpus_rng = random.Random(seed), random.Random(CORPUS_SEED)
    # (label, km records, rng of its queries, classify run once per run)
    sources = [("gas", importlib.resources.files("kedl.data").joinpath("gas.km").read_text(encoding="utf-8"),
                corpus_rng, True)]
    sources += [(f"gen{k}-n{n}", gen_km_text(rng, n), rng, False) for k, n in enumerate(GEN_KM_SEEDED_SIZES)]
    sources += [(f"corpus{k}-n{n}", gen_km_text(corpus_rng, n), corpus_rng, True)
                for k, n in enumerate(GEN_KM_CORPUS_SIZES)]

    ops: list[Op] = []
    expected: dict[str, object] = {}
    for label, km_text, query_rng, classify_once in sources:
        elements, _, kb = compile_km(km_text)
        reference = frozenset(structural_order(elements))
        for mode in _modes():
            op_id = f"classify/{label}/{mode}"
            ops.append(Op(op_id, "tableau",
                          lambda kb=kb, mode=mode: tableau.classify(kb, mode), classification_pairs,
                          once=classify_once))
            expected[op_id] = reference
            tab = tableau.Tableau(kb, mode)
            for op_id, call, answer in _km_queries(query_rng, kb, elements, tab, f"{label}/{mode}"):
                ops.append(Op(op_id, "tableau", call, bool))
                expected[op_id] = answer
    rng.shuffle(ops)

    def check(verdicts: dict[str, object]) -> dict[str, str]:
        return {op_id: f"verdict differs from the structural order of the km records"
                for op_id, v in verdicts.items() if v != expected[op_id]}

    return Workload("km-classify", ops, check,
                    _digest([text for _, text, _, _ in sources] + [op.op_id for op in ops]))


# --- differential ---------------------------------------------------------------


def diff_signature(individuals: bool):
    """2 object atoms, 2 attribute atoms, one role of each family; with
    ``individuals``, one object and one attribute individual."""
    from kedl.syntax import RoleKind, Signature, Sort

    sig = Signature()
    for name in ("C1", "C2"):
        sig.declare_atom(name, Sort.OBJECT)
    for name in ("A1", "A2"):
        sig.declare_atom(name, Sort.ATTRIBUTE)
    sig.declare_role("p", RoleKind.OBJ_OBJ)
    sig.declare_role("q", RoleKind.ATTR_ATTR)
    sig.declare_role("r", RoleKind.CROSS)
    if individuals:
        sig.declare_individual("o1", Sort.OBJECT)
        sig.declare_individual("u1", Sort.ATTRIBUTE)
    return sig


def gen_nnf(rng: random.Random, sort, depth: int):
    """A random well-sorted concept in negation normal form."""
    from kedl.syntax import And, Atom, Bot, Exists, Forall, Not, Or, RoleKind, RoleName, Sort, Top

    atoms = ("C1", "C2") if sort is Sort.OBJECT else ("A1", "A2")
    leaves = [Atom(a) for a in atoms] + [Not(Atom(a)) for a in atoms] + [Top(), Bot()]
    if depth == 0:
        return rng.choice(leaves)
    kind = rng.randrange(8)
    if kind < 2:
        return rng.choice(leaves)
    if kind < 6:
        node = And if kind < 4 else Or
        return node(gen_nnf(rng, sort, depth - 1), gen_nnf(rng, sort, depth - 1))
    if sort is Sort.OBJECT:
        roles = [RoleName("p", RoleKind.OBJ_OBJ), RoleName("r", RoleKind.CROSS)]
    else:
        roles = [RoleName("q", RoleKind.ATTR_ATTR), RoleName("r", RoleKind.CROSS_INVERSE)]
    role = rng.choice(roles)
    body = gen_nnf(rng, role.target_sort, depth - 1)
    return Exists(role, body) if kind == 6 else Forall(role, body)


def _literal(rng: random.Random, atoms: tuple[str, ...]):
    from kedl.syntax import Atom, Not

    atom = Atom(rng.choice(atoms))
    return Not(atom) if rng.randrange(2) else atom


def gen_kb(rng: random.Random):
    """Two inclusions per sort -- a literal below a random depth-1 concept
    and a literal below a literal -- a literal assertion on each individual
    and one cross-role assertion between them.  Literal left sides give
    every inclusion a definite sort."""
    from kedl.kb import KnowledgeBase
    from kedl.syntax import RoleKind, RoleName, Sort

    kb = KnowledgeBase(sig=diff_signature(individuals=True))
    for sort, atoms in ((Sort.OBJECT, ("C1", "C2")), (Sort.ATTRIBUTE, ("A1", "A2"))):
        kb.include(_literal(rng, atoms), gen_nnf(rng, sort, 1))
        kb.include(_literal(rng, atoms), _literal(rng, atoms))
    kb.assert_concept(_literal(rng, ("C1", "C2")), "o1")
    kb.assert_concept(_literal(rng, ("A1", "A2")), "u1")
    kb.assert_role(RoleName("r", RoleKind.CROSS), "o1", "u1")
    return kb


def _oracle_verdict(v) -> str:
    from kedl.oracle import Model

    return "model" if isinstance(v, Model) else "no-model"


def build_differential(seed: int) -> Workload:
    from kedl import oracle, tableau
    from kedl.kb import KnowledgeBase
    from kedl.syntax import Sort, concept_to_str

    rng = random.Random(seed)
    concept_sig = diff_signature(individuals=False)
    empty = KnowledgeBase(sig=concept_sig)
    ops: list[Op] = []
    inputs: list[str] = []
    pairs: list[tuple[str, str]] = []  # (tableau op, oracle op) on one input

    def add_pair(label: str, mode, tableau_call, oracle_call) -> None:
        t_id, o_id = f"{label}/{mode}/tableau", f"{label}/{mode}/oracle"
        ops.append(Op(t_id, "tableau", tableau_call, lambda r: r.satisfiable))
        ops.append(Op(o_id, "oracle", oracle_call, _oracle_verdict))
        pairs.append((t_id, o_id))

    concept_tabs = {mode: tableau.Tableau(empty, mode) for mode in _modes()}
    for k in range(DIFF_CONCEPTS):
        sort = Sort.OBJECT if k % 2 == 0 else Sort.ATTRIBUTE
        expr = gen_nnf(rng, sort, 3)
        inputs.append(concept_to_str(expr))
        for mode in _modes():
            bounds = oracle.Bounds(DIFF_BOUND, DIFF_BOUND, mode)
            add_pair(f"concept{k}", mode,
                     lambda t=concept_tabs[mode], e=expr, s=sort: t.is_satisfiable(e, sort=s),
                     lambda e=expr, s=sort, b=bounds: oracle.find_model(e, b, sig=concept_sig, sort=s))
    kb_rng = random.Random(CORPUS_SEED)
    for k in range(DIFF_KBS):
        kb = gen_kb(kb_rng)
        inputs.append("; ".join(str(f) for f in kb.formulas()))
        for mode in _modes():
            bounds = oracle.Bounds(DIFF_BOUND, DIFF_BOUND, mode)
            add_pair(f"kb{k}", mode,
                     lambda t=tableau.Tableau(kb, mode): t.is_consistent(),
                     lambda kb=kb, b=bounds: oracle.find_model(kb, b))
    rng.shuffle(ops)

    def check(verdicts: dict[str, object]) -> dict[str, str]:
        wrong = {}
        for t_id, o_id in pairs:
            if verdicts.get(t_id) is False and verdicts.get(o_id) == "model":
                reason = f"tableau unsatisfiable but the oracle found a model ({t_id} vs {o_id})"
                wrong[t_id] = wrong[o_id] = reason
        return wrong

    return Workload("differential", ops, check, _digest(inputs + [op.op_id for op in ops]))


# --- suite-refute ---------------------------------------------------------------


def refutation_goals(formula):
    """The concepts whose unsatisfiability proves the formula: the negated
    arrow in each direction it states."""
    from kedl.kb import Equivalence
    from kedl.syntax import And, Not

    goals = [And(formula.left, Not(formula.right))]
    if isinstance(formula, Equivalence):
        goals.append(And(formula.right, Not(formula.left)))
    return goals


def suite_ops(tab, sig, bounds) -> list[Op]:
    """One op per (item, sort): tableau refutation of every goal, then the
    bounded countermodel search, as the ``verify`` subcommand checks them."""
    from kedl import axioms, oracle

    ops = []
    for item in axioms.all_items():
        for sort in item.sorts:
            formula = item.build(sort)
            goals = refutation_goals(formula)

            def call(goals=goals, sort=sort, formula=formula):
                tableau_ok = all(not tab.is_satisfiable(g, sort=sort).satisfiable for g in goals)
                verdict = oracle.check_validity_bounded(formula, bounds, sig)
                return tableau_ok, isinstance(verdict, oracle.NoCountermodelUpToBound)

            ops.append(Op(f"{item.item_id}/{sort}", "suite", call, tuple,
                          once=item.item_id in ONCE_SUITE_ITEMS))
    return ops


def build_suite_refute(seed: int) -> Workload:
    """The catalog is fixed; the seed fixes the order the ops run in."""
    from kedl import axioms, oracle, tableau
    from kedl.kb import KnowledgeBase
    from kedl.semantics import FunctionalityMode

    sig = axioms.suite_signature()
    mode = FunctionalityMode.AT_MOST_ONE
    tab = tableau.Tableau(KnowledgeBase(sig=sig), mode)
    ops = suite_ops(tab, sig, oracle.Bounds(BOUND, BOUND, mode))
    random.Random(seed).shuffle(ops)

    def check(verdicts: dict[str, object]) -> dict[str, str]:
        return {op_id: f"check failed (tableau ok, oracle ok) = {v}"
                for op_id, v in verdicts.items() if v != (True, True)}

    return Workload("suite-refute", ops, check, _digest([op.op_id for op in ops]))


BUILDERS: dict[str, Callable[[int], Workload]] = {
    "km-classify": build_km_classify,
    "differential": build_differential,
    "suite-refute": build_suite_refute,
}
