"""Shared randomized-input helpers for the test suite."""

from __future__ import annotations

import random
from functools import reduce

from kedl import KnowledgeBase, Signature
from kedl.syntax import (
    And,
    Atom,
    Bot,
    ConceptExpr,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    RoleKind,
    RoleName,
    Sort,
    Top,
    subexprs,
)

P = RoleName("p", RoleKind.OBJ_OBJ)
Q = RoleName("q", RoleKind.ATTR_ATTR)
R = RoleName("r", RoleKind.CROSS)
R_INV = RoleName("r", RoleKind.CROSS_INVERSE)


def diff_signature() -> Signature:
    """2 object atoms, 2 attribute atoms, one role of each family."""
    sig = Signature()
    sig.declare_atom("C1", Sort.OBJECT)
    sig.declare_atom("C2", Sort.OBJECT)
    sig.declare_atom("A1", Sort.ATTRIBUTE)
    sig.declare_atom("A2", Sort.ATTRIBUTE)
    sig.declare_role("p", RoleKind.OBJ_OBJ)
    sig.declare_role("q", RoleKind.ATTR_ATTR)
    sig.declare_role("r", RoleKind.CROSS)
    return sig


def empty_diff_kb() -> KnowledgeBase:
    return KnowledgeBase(sig=diff_signature())


def _leaves(sort: Sort, negated: bool) -> list[ConceptExpr]:
    atoms = ("C1", "C2") if sort is Sort.OBJECT else ("A1", "A2")
    leaves: list[ConceptExpr] = [Atom(a) for a in atoms] + [Top(), Bot()]
    if negated:
        leaves += [Not(Atom(a)) for a in atoms]
    return leaves


def _roles_for(sort: Sort) -> list[RoleName]:
    return [P, R] if sort is Sort.OBJECT else [Q, R_INV]


def gen_nnf(rng: random.Random, sort: Sort, depth: int) -> ConceptExpr:
    """A random well-sorted concept already in negation normal form."""
    if depth == 0:
        return rng.choice(_leaves(sort, negated=True))
    kind = rng.randrange(8)
    if kind < 2:
        return rng.choice(_leaves(sort, negated=True))
    if kind < 4:
        return And(gen_nnf(rng, sort, depth - 1), gen_nnf(rng, sort, depth - 1))
    if kind < 6:
        return Or(gen_nnf(rng, sort, depth - 1), gen_nnf(rng, sort, depth - 1))
    role = rng.choice(_roles_for(sort))
    body = gen_nnf(rng, role.target_sort, depth - 1)
    return Exists(role, body) if kind == 6 else Forall(role, body)


def gen_concept(rng: random.Random, sort: Sort, depth: int) -> ConceptExpr:
    """A random well-sorted concept; negation and arrows included."""
    if depth == 0:
        return rng.choice(_leaves(sort, negated=False))
    kind = rng.randrange(10)
    if kind < 2:
        return rng.choice(_leaves(sort, negated=False))
    if kind == 2:
        return Not(gen_concept(rng, sort, depth - 1))
    if kind < 5:
        return And(gen_concept(rng, sort, depth - 1), gen_concept(rng, sort, depth - 1))
    if kind < 7:
        return Or(gen_concept(rng, sort, depth - 1), gen_concept(rng, sort, depth - 1))
    if kind == 7:
        return Implies(gen_concept(rng, sort, depth - 1), gen_concept(rng, sort, depth - 1))
    if kind == 8:
        return Iff(gen_concept(rng, sort, depth - 1), gen_concept(rng, sort, depth - 1))
    role = rng.choice(_roles_for(sort))
    body = gen_concept(rng, role.target_sort, depth - 1)
    return Exists(role, body) if rng.randrange(2) == 0 else Forall(role, body)


def _literal(rng: random.Random, sort: Sort) -> ConceptExpr:
    atom = Atom(rng.choice(("C1", "C2") if sort is Sort.OBJECT else ("A1", "A2")))
    return Not(atom) if rng.randrange(2) else atom


def gen_kb(rng: random.Random) -> KnowledgeBase:
    """A random KB over the differential signature plus individuals o1
    (object) and u1 (attribute): a definition of A2 through inv(r); per
    sort, a literal below a random depth-2 concept, a literal below a
    literal and a random depth-1 concept below a literal; a random depth-1 concept asserted of each individual, and an
    r-assertion between them stated through r or inv(r)."""
    kb = empty_diff_kb()
    kb.sig.declare_individual("o1", Sort.OBJECT)
    kb.sig.declare_individual("u1", Sort.ATTRIBUTE)
    quantifier = rng.choice((Exists, Forall))
    kb.define("A2", quantifier(R_INV, rng.choice((Atom("C1"), Not(Atom("C1"))))))
    for sort in (Sort.OBJECT, Sort.ATTRIBUTE):
        kb.include(_literal(rng, sort), gen_concept(rng, sort, 2))
        kb.include(_literal(rng, sort), _literal(rng, sort))
        kb.include(gen_concept(rng, sort, 1), _literal(rng, sort))
    kb.assert_concept(gen_concept(rng, Sort.OBJECT, 1), "o1")
    kb.assert_concept(gen_concept(rng, Sort.ATTRIBUTE, 1), "u1")
    if rng.randrange(2):
        kb.assert_role(R, "o1", "u1")
    else:
        kb.assert_role(R_INV, "u1", "o1")
    return kb


def gen_atomic_gci_kb(rng: random.Random) -> KnowledgeBase:
    """A random KB over the differential signature plus individuals o1
    (object) and u1 (attribute) whose inclusions mostly have an atom on
    the left: two inclusions of C1 and one of A1 (primitive atoms), a
    definition of C2 that C2 also has an inclusion of, sometimes an
    inclusion of A2 and one with a compound left side; each individual
    asserted to be in C1 or A1 (absorbed atoms) or a random literal, and
    sometimes an r-assertion between them."""
    kb = empty_diff_kb()
    kb.sig.declare_individual("o1", Sort.OBJECT)
    kb.sig.declare_individual("u1", Sort.ATTRIBUTE)
    kb.include(Atom("C1"), gen_nnf(rng, Sort.OBJECT, 2))
    kb.include(Atom("C1"), gen_nnf(rng, Sort.OBJECT, 1))
    kb.include(Atom("A1"), gen_nnf(rng, Sort.ATTRIBUTE, 1))
    while True:
        body = gen_nnf(rng, Sort.OBJECT, 2)
        if Atom("C2") not in subexprs(body):
            break
    kb.define("C2", body)
    kb.include(Atom("C2"), gen_nnf(rng, Sort.OBJECT, 1))
    if rng.randrange(2):
        kb.include(Atom("A2"), gen_nnf(rng, Sort.ATTRIBUTE, 1))
    if rng.randrange(2):
        sort = rng.choice((Sort.OBJECT, Sort.ATTRIBUTE))
        kb.include(And(gen_nnf(rng, sort, 1), gen_nnf(rng, sort, 1)), gen_nnf(rng, sort, 1))
    for atom, individual, sort in (("C1", "o1", Sort.OBJECT), ("A1", "u1", Sort.ATTRIBUTE)):
        kb.assert_concept(Atom(atom) if rng.randrange(4) == 0 else _literal(rng, sort), individual)
    if rng.randrange(2):
        kb.assert_role(R, "o1", "u1")
    return kb


def gen_boolean(rng: random.Random, sort: Sort, depth: int) -> ConceptExpr:
    """A random concept that reads no role: atoms, ``top`` and ``bot``
    under ``not``, ``and`` and ``or``."""
    if depth == 0 or rng.randrange(3) == 0:
        return rng.choice(_leaves(sort, negated=True))
    kind = rng.randrange(3)
    if kind == 0:
        return Not(gen_boolean(rng, sort, depth - 1))
    return (And if kind == 1 else Or)(gen_boolean(rng, sort, depth - 1), gen_boolean(rng, sort, depth - 1))


def gen_role_free_kb(rng: random.Random) -> KnowledgeBase:
    """A random KB over the differential signature that reads no role: per
    sort, one to three inclusions between literals or Boolean concepts,
    and zero to two individuals, most of them asserted a literal."""
    kb = empty_diff_kb()
    for sort, prefix in ((Sort.OBJECT, "o"), (Sort.ATTRIBUTE, "u")):
        for _ in range(rng.randrange(1, 4)):
            if rng.randrange(2):
                kb.include(_literal(rng, sort), _literal(rng, sort))
            else:
                kb.include(gen_boolean(rng, sort, 2), gen_boolean(rng, sort, 2))
        for k in range(1, rng.randrange(3) + 1):
            kb.sig.declare_individual(f"{prefix}{k}", sort)
            if rng.randrange(4):
                kb.assert_concept(_literal(rng, sort), f"{prefix}{k}")
    return kb


def gen_hierarchy_kb(rng: random.Random) -> KnowledgeBase:
    """A km-style KB with a real subsumption hierarchy.  Attribute states
    S1..S5 carry one cross role has-si each; S5 is defined as the union of
    two other states and one state is included in another (sometimes both
    ways, an equivalent pair).  Objects O1..O5 are defined by their
    attributes, ``some has-si S`` with S usually the state Si itself, and
    sometimes nested: ``Ok := Oj and some has-si S``, so attribute sets
    contain each other; a few add an ``all has-si S``, which ``some has-si S``
    implies only where cross roles are functional.  O6 restates the attributes of an
    earlier object flat (an equivalent pair) and O7 is an earlier object
    with ``all has-si bot`` on one of its roles (unsatisfiable)."""
    states = [f"S{i}" for i in range(1, 6)]
    has = {s: RoleName(f"has-{s.lower()}", RoleKind.CROSS) for s in states}
    sig = Signature()
    for s in states:
        sig.declare_atom(s, Sort.ATTRIBUTE)
        sig.declare_role(has[s].name, RoleKind.CROSS)
    objects = [f"O{i}" for i in range(1, 8)]
    for o in objects:
        sig.declare_atom(o, Sort.OBJECT)
    kb = KnowledgeBase(sig=sig)
    a, b, c, d = rng.sample(states[:4], 4)
    kb.define("S5", Or(Atom(a), Atom(b)))
    kb.include(Atom(c), Atom(d))
    if rng.randrange(2):
        kb.include(Atom(d), Atom(c))

    def part(state: str) -> ConceptExpr:
        filler = state if rng.randrange(4) else rng.choice(states)
        return (Forall if rng.randrange(3) == 0 else Exists)(has[state], Atom(filler))

    parts: dict[str, list[ConceptExpr]] = {}  # object -> its conjuncts, nesting expanded
    for k, name in enumerate(objects[:5]):
        if k and rng.randrange(2):
            base = rng.choice(objects[:k])
            extra = part(rng.choice(states))
            parts[name] = parts[base] + [extra]
            kb.define(name, And(Atom(base), extra))
        else:
            parts[name] = [Exists(has[s], Atom(s)) for s in rng.sample(states, rng.randrange(1, 4))]
            kb.define(name, reduce(And, parts[name]))
    twin = rng.choice(objects[:5])
    kb.define("O6", reduce(And, rng.sample(parts[twin], len(parts[twin]))))
    base = rng.choice(objects[:5])
    role = rng.choice([p.role for p in parts[base] if isinstance(p, Exists)])
    kb.define("O7", And(Atom(base), Forall(role, Bot())))
    return kb


def gen_km_text(rng: random.Random, n: int) -> str:
    """A km record file of n objects over n attribute states and n/4
    relations, each mapping one state to another.  About a third of the
    objects extend an earlier object's states by one or two more, so they
    fall below it, and about one in six restates an earlier object's states
    (an equivalent pair); the rest pick one to four states at random."""
    states = [f"S{i}" for i in range(1, n + 1)]
    picked: list[list[str]] = []
    for k in range(n):
        roll = rng.randrange(6) if k else 5
        if roll == 0:
            picked.append(list(rng.choice(picked)))
        elif roll < 3:
            base = rng.choice(picked)
            picked.append(base + rng.sample([s for s in states if s not in base], rng.randrange(1, 3)))
        else:
            picked.append(rng.sample(states, rng.randrange(1, 5)))
    lines = [f"attribute {s} {{ measurability: 0; function: none; }}" for s in states]
    lines += [f"object O{k + 1} {{ attributes: {', '.join(rng.sample(p, len(p)))}; }}" for k, p in enumerate(picked)]
    for j in range(n // 4):
        src, dst = rng.sample(states, 2)
        lines.append(f"relation rel{j + 1} {{ mapping: logical; inputs: {src}; outputs: {dst}; function: f{j + 1}; }}")
    return "\n".join(lines) + "\n"
