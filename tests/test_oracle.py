"""Bounded enumeration and the pruned exhaustive model search."""

import hashlib
import random
import subprocess
import sys
from itertools import islice, permutations

import pytest

from kedl import (
    And,
    Atom,
    Bot,
    Bounds,
    Countermodel,
    Exists,
    Forall,
    Inclusion,
    KnowledgeBase,
    Model,
    NoCountermodelUpToBound,
    NoModelUpToBound,
    Not,
    Or,
    RoleKind,
    Signature,
    Sort,
    Top,
    check_validity_bounded,
    count_models,
    enumerate_interpretations,
    extension,
    find_model,
    parse_concept,
    parse_kb,
    satisfies_kb,
    validate_interpretation,
)
from kedl import oracle
from kedl.axioms import all_items, suite_signature
from kedl.oracle import _Level, _Objective, _dead_goal_elements, _orbit_choices, _used_symbols
from kedl.oracle import _search_at as _unpatched_search_at
from kedl.parser import parse_signature
from kedl.semantics import FunctionalityMode, interpretation_to_text
from kedl.syntax import check_sort, subexprs

from generators import P, Q, R, R_INV, diff_signature, gen_atomic_gci_kb, gen_concept, gen_kb, gen_nnf


def _restricted_nnf(rng, sort, depth):
    """Like gen_nnf but over the one-atom-per-sort vocabulary."""
    e = gen_nnf(rng, sort, depth)

    def rename(x):
        if isinstance(x, Atom):
            return Atom("C1" if x.name.startswith("C") else "A1")
        if isinstance(x, Not):
            return Not(rename(x.expr))
        if isinstance(x, And):
            return And(rename(x.left), rename(x.right))
        if isinstance(x, Or):
            return Or(rename(x.left), rename(x.right))
        if isinstance(x, Exists):
            return Exists(x.role, rename(x.expr))
        if isinstance(x, Forall):
            return Forall(x.role, rename(x.expr))
        return x

    return rename(e)


MODES = (FunctionalityMode.AT_MOST_ONE, FunctionalityMode.EXACTLY_ONE, FunctionalityMode.FREE)


def small_sig(*, obj_atoms=(), attr_atoms=(), roles=()):
    sig = Signature()
    for name in obj_atoms:
        sig.declare_atom(name, Sort.OBJECT)
    for name in attr_atoms:
        sig.declare_atom(name, Sort.ATTRIBUTE)
    for name, kind in roles:
        sig.declare_role(name, kind)
    return sig


ENUMERATION_SIG = "oconcept C; aconcept A; orole p; arole q; xrole r;"
_INDIVIDUALS = " oindividual a; aindividual b;"
_AT_MOST_ONE, _EXACTLY_ONE, _FREE = MODES

# sha256 over interpretation_to_text of every enumerated interpretation, in
# order: any change to the order or to one interpretation shows here
ENUMERATION_DIGESTS = [
    (Bounds(2, 2, _AT_MOST_ONE), "", "b74d8c9e81de4f2574c92a5e7e12f85d68e385da8ad43852ae982fca4ca25a26"),
    (Bounds(2, 2, _EXACTLY_ONE), "", "a07a2f464a0af37e943fe79afb71f26158f985789948c784b88c75c6c546d3a8"),
    (Bounds(2, 1, _AT_MOST_ONE), _INDIVIDUALS, "1051220267fddeb8fd7f94bb82d2975d47abb3ca7f34132284262f5b80df68e4"),
    (Bounds(1, 2, _AT_MOST_ONE), _INDIVIDUALS, "add349ce175ded283f059782c94a30abf5c0a3b793bf29ae71f0066588896c84"),
    (Bounds(2, 1, _EXACTLY_ONE), _INDIVIDUALS, "66a25c4721bcf735c9d63b27506a99d2e446e6f2ea9ba7265e772df3e3b4159c"),
    (Bounds(1, 2, _EXACTLY_ONE), _INDIVIDUALS, "b7f2826d5ee92e49fda21ed7523842cb76c81b87279d6840307b5c427931f144"),
    (Bounds(2, 1, _FREE), _INDIVIDUALS, "1051220267fddeb8fd7f94bb82d2975d47abb3ca7f34132284262f5b80df68e4"),
    (Bounds(1, 2, _FREE), _INDIVIDUALS, "39ca97d4551567ef7376cbcac80fb683fd2a5a4898ecd5ef7ef06900c99844cd"),
]


class TestEnumeration:
    def test_single_object_atom_at_1_1(self):
        sig = small_sig(obj_atoms=("C",))
        interps = list(enumerate_interpretations(sig, Bounds(1, 1)))
        assert len(interps) == 2
        assert {i.concept_ext["C"] for i in interps} == {0, 0b1}

    def test_cross_role_choices_at_most_one(self):
        sig = small_sig(roles=(("r", RoleKind.CROSS),))
        interps = list(enumerate_interpretations(sig, Bounds(1, 1)))
        assert [i.role_ext["r"] for i in interps] == [(0,), (0b1,)]

    def test_cross_role_choices_exactly_one(self):
        sig = small_sig(roles=(("r", RoleKind.CROSS),))
        interps = list(
            enumerate_interpretations(sig, Bounds(1, 1, FunctionalityMode.EXACTLY_ONE))
        )
        assert [i.role_ext["r"] for i in interps] == [(0b1,)]

    @pytest.mark.parametrize("d,s", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_count_formula_per_domain_sizes(self, d, s):
        # 2^(nC*d) * 2^(nA*s) * 2^(nP*d^2) * 2^(nQ*s^2) * (s+1)^(nR*d)
        sig = small_sig(
            obj_atoms=("C",),
            attr_atoms=("A",),
            roles=(("p", RoleKind.OBJ_OBJ), ("q", RoleKind.ATTR_ATTR), ("r", RoleKind.CROSS)),
        )
        expected = 2 ** d * 2 ** s * 2 ** (d * d) * 2 ** (s * s) * (s + 1) ** d
        got = sum(
            1
            for i in enumerate_interpretations(sig, Bounds(2, 2))
            if i.n_delta == d and i.n_sigma == s
        )
        assert got == expected

    def test_all_enumerated_interpretations_are_valid(self):
        sig = diff_signature()
        for i in islice(enumerate_interpretations(sig, Bounds(2, 2)), 0, 10000, 211):
            assert validate_interpretation(i) == []

    def test_deterministic_order(self):
        sig = small_sig(obj_atoms=("C",), roles=(("r", RoleKind.CROSS),))
        first = [interpretation_key(i) for i in enumerate_interpretations(sig, Bounds(2, 2))]
        second = [interpretation_key(i) for i in enumerate_interpretations(sig, Bounds(2, 2))]
        assert first == second

    @pytest.mark.parametrize("bounds,individuals,digest", ENUMERATION_DIGESTS)
    def test_order_is_pinned(self, bounds, individuals, digest):
        # the first countermodel of the paper-existential reading is the
        # first interpretation in this order that fails the formula
        sig = parse_signature(ENUMERATION_SIG + individuals)
        h = hashlib.sha256()
        for i in enumerate_interpretations(sig, bounds):
            h.update(interpretation_to_text(i).encode())
        assert h.hexdigest() == digest


def interpretation_key(i):
    return (
        i.n_delta,
        i.n_sigma,
        tuple(sorted(i.concept_ext.items())),
        tuple(sorted(i.role_ext.items())),
    )


class TestCountModels:
    def test_bot_has_no_models(self):
        sig = small_sig(obj_atoms=("C",))
        assert count_models(Bot(), sig, Bounds(2, 2)) == 0

    def test_atom_is_true_in_half_of_all_interpretations(self):
        sig = small_sig(obj_atoms=("C",), attr_atoms=("A",))
        total = sum(1 for _ in enumerate_interpretations(sig, Bounds(1, 1)))
        assert total == 4
        assert count_models(Atom("C"), sig, Bounds(1, 1)) == total // 2

    def test_cross_existential_fixture(self):
        # frozen by running the enumeration: 8 interpretations at (1,1),
        # exactly 2 of them give "some has-r A" a witness
        sig = small_sig(obj_atoms=("C",), attr_atoms=("A",), roles=(("has-r", RoleKind.CROSS),))
        assert sum(1 for _ in enumerate_interpretations(sig, Bounds(1, 1))) == 8
        expr = Exists(sig.role("has-r"), Atom("A"))
        assert count_models(expr, sig, Bounds(1, 1)) == 2


class TestFindModel:
    def test_contradiction_never_has_a_model(self):
        sig = small_sig(obj_atoms=("C",))
        verdict = find_model(And(Atom("C"), Not(Atom("C"))), Bounds(3, 3), sig=sig)
        assert isinstance(verdict, NoModelUpToBound)

    def test_atom_has_a_singleton_model(self):
        sig = small_sig(obj_atoms=("C",))
        verdict = find_model(Atom("C"), Bounds(2, 2), sig=sig)
        assert isinstance(verdict, Model)
        assert verdict.interpretation.concept_ext["C"]

    def test_functional_successor_cannot_split(self):
        sig = small_sig(attr_atoms=("A",), roles=(("has-r", RoleKind.CROSS),))
        role = sig.role("has-r")
        expr = And(Exists(role, Atom("A")), Forall(role, Not(Atom("A"))))
        assert isinstance(find_model(expr, Bounds(2, 2), sig=sig), NoModelUpToBound)

    def test_returned_model_is_validated_and_satisfying(self):
        sig = diff_signature()
        rng = random.Random(77)
        for _ in range(40):
            sort = rng.choice([Sort.OBJECT, Sort.ATTRIBUTE])
            e = gen_nnf(rng, sort, 3)
            verdict = find_model(e, Bounds(2, 2), sig=sig, sort=sort)
            if isinstance(verdict, Model):
                i = verdict.interpretation
                assert validate_interpretation(i) == []
                assert extension(e, i, sort)

    def test_monotone_bounds(self):
        # no model at a bound implies none at any smaller bound
        sig = diff_signature()
        rng = random.Random(78)
        checked = 0
        while checked < 10:
            e = gen_nnf(rng, Sort.OBJECT, 3)
            big = find_model(e, Bounds(3, 3), sig=sig)
            if isinstance(big, NoModelUpToBound):
                small = find_model(e, Bounds(2, 2), sig=sig)
                assert isinstance(small, NoModelUpToBound)
                checked += 1

    def test_agrees_with_plain_enumeration(self):
        # one atom per sort keeps the brute-force side small while all three
        # role families stay in play
        sig = small_sig(
            obj_atoms=("C1",),
            attr_atoms=("A1",),
            roles=(("p", RoleKind.OBJ_OBJ), ("q", RoleKind.ATTR_ATTR), ("r", RoleKind.CROSS)),
        )
        rng = random.Random(79)
        for trial in range(120):
            sort = Sort.OBJECT if trial % 2 == 0 else Sort.ATTRIBUTE
            mode = (
                FunctionalityMode.AT_MOST_ONE,
                FunctionalityMode.EXACTLY_ONE,
                FunctionalityMode.FREE,
            )[trial % 3]
            e = _restricted_nnf(rng, sort, 3)
            bounds = Bounds(2, 2, mode)
            fast = find_model(e, bounds, sig=sig, sort=sort)
            slow = any(
                extension(e, i, sort) for i in enumerate_interpretations(sig, bounds)
            )
            assert isinstance(fast, Model) == slow

    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_goal_refuted_row_by_row(self, mode, monkeypatch):
        # every element of the goal needs a p-successor and is allowed
        # none, so it leaves the goal once its own p row is assigned; the
        # row lookahead sees this before any row is assigned, where the
        # search would otherwise walk the product of the atom, r and p rows
        # (about 3M assigns and 10-11 s at (3,3) in FREE)
        sig = diff_signature()
        goal = parse_concept(
            "all p bot and (bot or top) and all r (not A2 or A1) and some p (C1 and C2)"
            " and some p (C1 and not C2) and some p (not C1 and C2)",
            sig,
        )
        assigns = 0
        real_assign = oracle._Search.assign

        def counted_assign(search, idx, value):
            nonlocal assigns
            assigns += 1
            real_assign(search, idx, value)

        monkeypatch.setattr(oracle._Search, "assign", counted_assign)
        bounds = Bounds(3, 3, mode)
        assert find_model(goal, bounds, sig=sig) == NoModelUpToBound(bounds)
        assert assigns < 5000

    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_kb_goals_agree_with_plain_enumeration(self, mode):
        # individuals and role assertions through r and inv(r) pin elements,
        # so the search's symmetry breaking meets fixed points; three object
        # elements, or three attribute elements, leave a free one
        rng = random.Random(81)
        found = {True: 0, False: 0}
        for trial in range(40):
            kb = _small_kb(rng)
            bounds = Bounds(3, 1, mode) if trial % 2 else Bounds(1, 3, mode)
            fast = isinstance(find_model(kb, bounds), Model)
            slow = any(satisfies_kb(i, kb) for i in enumerate_interpretations(kb.sig, bounds))
            assert fast == slow
            found[slow] += 1
        assert found[True] >= 8 and found[False] >= 8

    def test_kb_goal(self):
        kb = parse_kb(
            """
            oconcept Gas; aconcept GasComposition; xrole has-composite;
            oindividual gas1;
            Gas := some has-composite GasComposition;
            Gas(gas1);
            """
        )
        verdict = find_model(kb, Bounds(1, 2))
        assert isinstance(verdict, Model)
        assert satisfies_kb(verdict.interpretation, kb)

    def test_kb_goal_unsatisfiable(self):
        kb = parse_kb("oconcept C; oindividual c1; C <= bot; C(c1);")
        assert isinstance(find_model(kb, Bounds(2, 2)), NoModelUpToBound)

    def test_unfolded_corpus_definition_at_1_5(self):
        import importlib.resources

        from kedl import parse_km, translate_to_kb

        text = importlib.resources.files("kedl.data").joinpath("gas.km").read_text()
        kb = translate_to_kb(parse_km(text))
        verdict = find_model(kb.definitions["Gas"], Bounds(1, 5), sig=kb.sig)
        assert isinstance(verdict, Model)
        # five functional values on one object element
        i = verdict.interpretation
        assert extension(kb.definitions["Gas"], i, Sort.OBJECT)

    def test_flat_kb_with_many_atoms(self, tmp_path):
        # one search level per atom: more levels than Python's recursion
        # limit allows frames, through the API and the CLI
        n = 1100
        text = "".join(f"oconcept A{i};\n" for i in range(n))
        text += "".join(f"A{i} <= A{i + 1};\n" for i in range(n - 1))
        assert isinstance(find_model(parse_kb(text), Bounds(1, 1)), Model)
        path = tmp_path / "flat.kedl"
        path.write_text(text, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "kedl.cli", "oracle", "--find-model", str(path), "--bounds", "1,1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "verdict: model-found" in result.stdout

    def test_corpus_kb_with_abox_at_1_5(self):
        import importlib.resources

        text = importlib.resources.files("kedl.data").joinpath("gas.kedl").read_text()
        kb = parse_kb(text + "\noindividual gas1;\nGas(gas1);\n")
        verdict = find_model(kb, Bounds(1, 5))
        assert isinstance(verdict, Model)
        assert satisfies_kb(verdict.interpretation, kb)


def _small_kb(rng):
    """A random KB over one atom per sort, the cross role r, object
    individuals o1 and o2 and attribute individual u1: one inclusion per
    sort, a concept asserted of each individual, r(o1, u1) and sometimes
    inv(r)(u1, o2)."""
    sig = small_sig(obj_atoms=("C",), attr_atoms=("A",), roles=(("r", RoleKind.CROSS),))
    for name, sort in (("o1", Sort.OBJECT), ("o2", Sort.OBJECT), ("u1", Sort.ATTRIBUTE)):
        sig.declare_individual(name, sort)
    r, r_inv = sig.role("r"), sig.role("r", inverted=True)

    def concept(sort, depth):
        kind = rng.randrange(6) if depth else 0
        if kind < 2:
            atom = Atom("C" if sort is Sort.OBJECT else "A")
            return rng.choice((atom, Not(atom), Top(), Bot()) if kind else (atom, Not(atom)))
        if kind < 4:
            return (And, Or)[kind - 2](concept(sort, depth - 1), concept(sort, depth - 1))
        role = r if sort is Sort.OBJECT else r_inv
        return (Exists, Forall)[kind - 4](role, concept(role.kind.target, depth - 1))

    kb = KnowledgeBase(sig=sig)
    for sort in (Sort.OBJECT, Sort.ATTRIBUTE):
        kb.include(concept(sort, 1), concept(sort, 2))
    for name in ("o1", "o2", "u1"):
        kb.assert_concept(concept(sig.individuals[name], 2), name)
    kb.assert_role(r, "o1", "u1")
    if rng.randrange(2):
        kb.assert_role(r_inv, "u1", "o2")
    return kb


def _assign(search, levels, rng):
    for idx in levels:
        search.assign(idx, rng.choice(search.levels[idx].choices))


class TestIntervalSoundness:
    def test_partial_bounds_contain_every_completion(self):
        # white-box: on any partial assignment, the interval evaluator's
        # lower set is inside, and its upper set outside, the exact
        # extension of every completion; on a full assignment every node
        # is exact and the status definite
        from kedl.oracle import _Search
        from kedl.syntax import desugar

        sig = small_sig(
            obj_atoms=("C1",),
            attr_atoms=("A1",),
            roles=(("p", RoleKind.OBJ_OBJ), ("q", RoleKind.ATTR_ATTR), ("r", RoleKind.CROSS)),
        )
        used = ({"C1", "A1"}, {"p", "q", "r"}, set())
        rng = random.Random(555)
        inverse_trials = 0
        for trial in range(150):
            sort = Sort.OBJECT if trial % 2 == 0 else Sort.ATTRIBUTE
            mode = MODES[trial % 3]
            expr = desugar(_restricted_nnf(rng, sort, 3))
            # the attribute-sort vocabulary quantifies over q and inv(r)
            inverse_trials += any(
                isinstance(sub, (Exists, Forall)) and sub.role == R_INV for sub in subexprs(expr)
            )
            search = _Search(sig, 2, 2, mode, *used)
            status = _Objective(KnowledgeBase(sig=sig), expr, sort).compile(search)
            n_levels = len(search.levels)
            prefix = rng.randrange(n_levels + 1)
            _assign(search, range(prefix), rng)
            lower, upper = search.vals[search.node(expr, sort)]
            for _ in range(8):
                _assign(search, range(prefix, n_levels), rng)
                i = search.build()
                exact = extension(expr, i, sort)
                assert lower & ~exact == 0 and exact & ~upper == 0
                assert all(lb == ub for lb, ub in search.vals)
                assert status() is bool(exact)
        assert inverse_trials >= 20

    def test_lookahead_dead_elements_are_in_no_completion(self):
        # white-box: with every individual and atom assigned and a prefix
        # of the rows, no element that the one-row lookahead finds dead is
        # in the exact extension of the goal in any completion, and its
        # trial assigns leave every node value as it was; a goal is a
        # literal-depth concept and two or three quantifiers over one role
        # whose rows start in the goal's sort, with fillers that may
        # quantify over inv(r) or nest further
        from kedl.oracle import _Search
        from kedl.syntax import desugar

        sig = diff_signature()
        rng = random.Random(557)
        killed = inverse_killed = 0
        for trial in range(400):
            sort = Sort.OBJECT if trial % 3 else Sort.ATTRIBUTE
            role = rng.choice((P, R) if sort is Sort.OBJECT else (Q,))
            expr = gen_nnf(rng, sort, 1)
            for _ in range(rng.randrange(2, 4)):
                filler = gen_nnf(rng, role.target_sort, rng.randrange(1, 3))
                expr = And(expr, rng.choice((Exists, Forall))(role, filler))
            expr = desugar(expr)
            objective = _Objective(KnowledgeBase(sig=sig), expr, sort)
            d, s = rng.choice([(2, 2), (3, 2), (2, 3)])
            search = _Search(sig, d, s, MODES[trial % 3], *_used_symbols(objective.concepts))
            objective.compile(search)
            goal = search.node(expr, sort)
            rows = [idx for idx, level in enumerate(search.levels) if level.source is not None]
            depth = rows[0] + rng.randrange(len(rows) // 2 + 1)
            for _ in range(10):  # look for a prefix that leaves the goal open
                _assign(search, range(depth), rng)
                lower, upper = search.vals[goal]
                if upper and not lower:
                    break
            before = list(search.vals)
            dead = _dead_goal_elements(search, goal, sort)
            assert search.vals == before
            if not dead:
                continue
            killed += 1
            inverse_killed += any(
                isinstance(sub, (Exists, Forall)) and sub.role == R_INV for sub in subexprs(expr)
            )
            for _ in range(16):
                _assign(search, range(depth, len(search.levels)), rng)
                assert extension(expr, search.build(), sort) & dead == 0
        assert killed >= 60 and inverse_killed >= 15

    def test_partial_kb_status_agrees_with_every_completion(self):
        # white-box: a definite status on a partial assignment is the exact
        # verdict of every completion, and with every level assigned the
        # status is definite and every node exact; the last 100 KBs have
        # two object individuals and inv(r) assertions
        from kedl.oracle import _Search

        rng = random.Random(556)
        decided = {(small, verdict): 0 for small in (False, True) for verdict in (False, True)}
        for trial in range(400):
            small = trial >= 300
            kb = _small_kb(rng) if small else gen_kb(rng)
            objective = _Objective(kb)
            used = _used_symbols(objective.concepts)
            search = _Search(kb.sig, 2, 2, MODES[trial % 3], *used)
            status = objective.compile(search)
            # extend the assignment one level at a time, steering away from
            # dead ends so that satisfiable KBs can get decided True, and
            # check the first definite status against random completions
            for depth, level in enumerate(search.levels + [None]):
                verdict = status()
                if verdict is not None:
                    decided[small, verdict] += 1
                    for _ in range(8):
                        _assign(search, range(depth, len(search.levels)), rng)
                        assert satisfies_kb(search.build(), kb) == verdict
                        assert all(lb == ub for lb, ub in search.vals)
                        assert status() is verdict
                    break
                assert level is not None, "open status with every level assigned"
                options = list(level.choices)
                rng.shuffle(options)
                for choice in options:
                    search.assign(depth, choice)
                    if status() is not False:
                        break
        assert decided[False, True] >= 20 and decided[False, False] >= 20
        assert decided[True, True] >= 10 and decided[True, False] >= 10


class TestIncrementalValues:
    def test_values_match_a_fresh_evaluation(self):
        # white-box: after every assign or unassign, in any order, each node
        # value kept up to date through the touch lists equals the value a
        # search built on the same slots computes from scratch
        from kedl.oracle import _Search

        sig = diff_signature()
        rng = random.Random(558)
        inverse_trials = 0
        for trial in range(90):
            mode = MODES[trial % 3]
            if trial % 2:
                # gen_kb defines A2 through inv(r)
                kb = gen_kb(rng)
                goal_sig, objective = kb.sig, _Objective(kb)
            else:
                sort = Sort.OBJECT if trial % 4 == 0 else Sort.ATTRIBUTE
                goal_sig, objective = sig, _Objective(KnowledgeBase(sig=sig), gen_nnf(rng, sort, 3), sort)
            used = _used_symbols(objective.concepts)
            inverse_trials += any(
                isinstance(sub, (Exists, Forall)) and sub.role == R_INV
                for concept in objective.concepts
                for sub in subexprs(concept)
            )
            d, s = rng.choice([(2, 2), (3, 2), (2, 3)])
            search = _Search(goal_sig, d, s, mode, *used)
            objective.compile(search)
            if not search.levels:
                continue
            for _ in range(40):
                idx = rng.randrange(len(search.levels))
                search.assign(idx, rng.choice([None, *search.levels[idx].choices]))
                fresh = _Search(goal_sig, d, s, mode, *used)
                for j, level in enumerate(search.levels):
                    fresh.assign(j, level.store[level.key])
                objective.compile(fresh)
                assert fresh.nodes == search.nodes
                assert fresh.vals == search.vals
        assert inverse_trials >= 50


def _set_partitions(elements):
    """Every partition of the list into cells, each cell a mask."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for cells in _set_partitions(rest):
        yield [1 << first, *cells]
        for k in range(len(cells)):
            yield [*cells[:k], cells[k] | 1 << first, *cells[k + 1:]]


def _kept(level, cells):
    return _orbit_choices(level.choices, level.side, level.element, level.source, cells)


def _permuted(mask, perm):
    return sum(1 << perm[k] for k in range(len(perm)) if mask >> k & 1)


class TestOrbitChoices:
    """White-box: a level keeps the least member of each orbit of its
    choices under the permutations that keep every cell, and nothing else."""

    def check(self, level, cells, n):
        side = level.side
        own = cells[side]
        # a row's source element, when it is of the same sort as the values
        fixed = level.source[1] if level.source and level.source[0] == side else None
        group = [
            perm for perm in permutations(range(n))
            if all(_permuted(cell, perm) == cell for cell in own) and (fixed is None or perm[fixed] == fixed)
        ]

        def image(value, perm):
            return perm[value] if level.element else _permuted(value, perm)

        want = sorted({min(image(v, perm) for perm in group) for v in level.choices})
        kept = _kept(level, cells)
        assert [value for value, _ in kept] == want
        for value, after in kept:
            mask = 1 << value if level.element else value
            # cells after: same cell before, same side of the mask, and the
            # fixed source alone
            split = {}
            for e in range(n):
                cell = next(c for c in own if c >> e & 1)
                split.setdefault((cell, mask >> e & 1, e if e == fixed else None), []).append(e)
            assert set(after[side]) == {sum(1 << e for e in part) for part in split.values()}
            if level.source is None or level.source[0] == side:
                assert after[1 - side] == cells[1 - side]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_individuals_atoms_and_object_rows(self, n):
        for partition in _set_partitions(list(range(n))):
            cells = (tuple(sorted(partition)), (1,))
            self.check(_Level({}, "a", range(n), Sort.OBJECT, element=True), cells, n)
            self.check(_Level({}, "A", range(1 << n), Sort.OBJECT), cells, n)
            for x in range(n):
                self.check(_Level([], x, range(1 << n), Sort.OBJECT, source=(Sort.OBJECT, x)), cells, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_cross_rows(self, n, mode):
        for partition in _set_partitions(list(range(n))):
            cells = ((0b11,), tuple(sorted(partition)))
            level = _Level([], 1, oracle._cross_rows(n, mode), Sort.ATTRIBUTE, source=(Sort.OBJECT, 1))
            self.check(level, cells, n)
            # the source becomes a singleton of its own sort
            assert all(after[0] == (0b01, 0b10) for _, after in _kept(level, cells))


def _pinned_corpus():
    """Seeded concepts (with inv(r)) and KBs with individuals, role
    assertions and inv(r), each with its signature and sort.  Each concept
    asks for two or three role successors of random atom types, and most
    KBs for two of different types, so models have more than one element
    and elements that the atoms tell apart."""
    rng = random.Random(4711)
    sig = diff_signature()
    for trial in range(40):
        sort = Sort.OBJECT if trial % 2 == 0 else Sort.ATTRIBUTE
        role, atoms = (P, ("C1", "C2")) if sort is Sort.OBJECT else (Q, ("A1", "A2"))
        goal = gen_nnf(rng, sort, 3)
        for _ in range(rng.choice((2, 3))):
            kind = And(*(Atom(a) if rng.randrange(2) else Not(Atom(a)) for a in atoms))
            goal = And(goal, Exists(role, kind))
        yield goal, sig, sort
    for trial in range(40):
        kb = gen_kb(rng) if trial % 2 else gen_atomic_gci_kb(rng)
        kb.assert_concept(And(Exists(P, Atom("C1")), Exists(P, Not(Atom("C1")))), "o1")
        yield kb, None, None
    for _ in range(20):
        yield _small_kb(rng), None, None


# sha256 of the verdicts and models below, computed with the search that
# tried every choice, before symmetry breaking pruned it
PINNED_MODELS = "1bffc1311d0a108cbf909176a99d4d6f962f517862c2429c50504600a8aef242"


def test_models_are_pinned():
    digest = hashlib.sha256()
    for goal, sig, sort in _pinned_corpus():
        for d, s in ((2, 2), (3, 2)):
            for mode in MODES:
                verdict = find_model(goal, Bounds(d, s, mode), sig=sig, sort=sort)
                digest.update(type(verdict).__name__.encode())
                if isinstance(verdict, Model):
                    digest.update(interpretation_to_text(verdict.interpretation).encode())
    assert digest.hexdigest() == PINNED_MODELS


def _objective(goal, sig=None, sort=None, kb=None):
    """The objective and used symbols find_model builds for these arguments."""
    if isinstance(goal, KnowledgeBase):
        goal, kb = Top(), goal
    kb = kb if kb is not None else KnowledgeBase(sig=sig)
    objective = _Objective(kb, goal, check_sort(goal, kb.sig, expected=sort))
    return objective, _used_symbols(objective.concepts)


def _every_size(goal, bounds, sig=None, sort=None, kb=None):
    """The model text find_model would return with no domain size skipped,
    and the number of sizes searched for it."""
    objective, used = _objective(goal, sig, sort, kb)
    searched = 0
    for d in range(1, bounds.max_delta + 1):
        for s in range(1, bounds.max_sigma + 1):
            searched += 1
            found = _unpatched_search_at(objective.kb.sig, d, s, bounds.mode, objective, used)
            if found is not None:
                return interpretation_to_text(found), searched
    return None, searched


def _model_text(verdict):
    return interpretation_to_text(verdict.interpretation) if isinstance(verdict, Model) else None


ALL_SIZES_3_3 = [(d, s) for d in (1, 2, 3) for s in (1, 2, 3)]


class TestDomainSizeSkip:
    @pytest.fixture
    def visited(self, monkeypatch):
        sizes = []

        def recording(sig, d, s, *rest):
            sizes.append((d, s))
            return _unpatched_search_at(sig, d, s, *rest)

        monkeypatch.setattr(oracle, "_search_at", recording)
        return sizes

    def check(self, visited, goal, bounds, sig=None, sort=None, kb=None):
        """find_model's verdict and model text equal the unskipped search's;
        returns the sizes it visited."""
        visited.clear()
        got = _model_text(find_model(goal, bounds, sig=sig, sort=sort, kb=kb))
        assert got == _every_size(goal, bounds, sig=sig, sort=sort, kb=kb)[0]
        return list(visited)

    def test_object_only_goal_visits_object_sizes(self, visited):
        sig = diff_signature()
        no_model = And(Exists(P, Atom("C1")), Forall(P, Not(Atom("C1"))))
        assert self.check(visited, no_model, Bounds(3, 3), sig) == [(1, 1), (3, 1)]
        two_elements = And(Atom("C1"), Exists(P, Not(Atom("C1"))))
        assert self.check(visited, two_elements, Bounds(3, 3), sig) == [(1, 1), (3, 1), (2, 1)]

    def test_attribute_only_goal_visits_attribute_sizes(self, visited):
        sig = diff_signature()
        no_model = And(Exists(Q, Atom("A1")), Forall(Q, Not(Atom("A1"))))
        sort = Sort.ATTRIBUTE
        assert self.check(visited, no_model, Bounds(3, 3), sig, sort) == [(1, 1), (1, 3)]

    def test_cross_role_alone_reaches_both_sorts(self, visited):
        sig = diff_signature()
        no_model = And(Exists(R, Top()), Forall(R, Bot()))
        assert self.check(visited, no_model, Bounds(3, 3), sig) == [(1, 1), (3, 3)]

    def test_symbol_free_attribute_goals(self, visited):
        sig = diff_signature()
        for goal in (Top(), Bot()):
            assert self.check(visited, goal, Bounds(3, 3), sig, Sort.ATTRIBUTE) == [(1, 1)]

    def test_individual_alone_reaches_its_sort(self, visited):
        text = "oconcept C; oindividual o1; aindividual u1; C <= bot; C(o1);"
        assert self.check(visited, parse_kb(text), Bounds(3, 3)) == [(1, 1), (3, 1)]
        with_u1 = parse_kb(text + " (top)(u1);")
        assert self.check(visited, with_u1, Bounds(3, 3)) == [(1, 1), (3, 3)]

    def test_unused_cross_role_under_exactly_one(self, visited):
        sig = diff_signature()
        bounds = Bounds(3, 3, FunctionalityMode.EXACTLY_ONE)
        goal = And(Atom("C1"), Exists(P, Not(Atom("C1"))))
        assert self.check(visited, goal, bounds, sig) == [(1, 1), (3, 1), (2, 1)]
        model = find_model(goal, bounds, sig=sig).interpretation
        assert model.role_ext["r"] == (0b1, 0b1)  # x1 -> u1, x2 -> u1

    def test_random_goals_match_the_unskipped_search(self, visited):
        sig = diff_signature()
        rng = random.Random(557)
        cases = []
        for trial in range(150):
            sort = Sort.OBJECT if trial % 2 == 0 else Sort.ATTRIBUTE
            cases.append((gen_nnf(rng, sort, 3), sort, None))
        for trial in range(60):  # queries w.r.t. KBs with individuals and inv(r)
            kb = gen_kb(rng) if trial % 2 else gen_atomic_gci_kb(rng)
            sort = Sort.OBJECT if trial % 4 < 2 else Sort.ATTRIBUTE
            cases.append((gen_nnf(rng, sort, 2), sort, kb))
        cases += [(goal, sort, None) for goal, _, sort, _ in _successor_goals(rng, 30)]
        skipped = walked = 0
        for trial, (goal, sort, kb) in enumerate(cases):
            bounds = Bounds(3, 3, MODES[trial % 3])
            visited.clear()
            got = _model_text(find_model(goal, bounds, sig=sig, sort=sort, kb=kb))
            want, searched = _every_size(goal, bounds, sig=sig, sort=sort, kb=kb)
            assert got == want
            skipped += len(visited) < searched
            walked += got is not None and len(visited) > 2  # a model below a top size
        assert skipped >= 10
        assert walked >= 10


def _sizes_with_a_model(objective, used, mode):
    return {
        (d, s)
        for d, s in ALL_SIZES_3_3
        if _unpatched_search_at(objective.kb.sig, d, s, mode, objective, used) is not None
    }


def _successor_goals(rng, count):
    """Concepts that ask for two or three successors of random atom types,
    so that their smallest models have more than one element; attribute
    goals ask through q and inv(r)."""
    sig = diff_signature()
    for trial in range(count):
        sort = Sort.OBJECT if trial % 2 == 0 else Sort.ATTRIBUTE
        roles, atoms = ((P, R), ("C1", "C2")) if sort is Sort.OBJECT else ((Q, R_INV), ("A1", "A2"))
        goal = gen_nnf(rng, sort, 2)
        for _ in range(rng.choice((2, 3))):
            role = rng.choice(roles)
            target = ("C1", "C2") if role is R_INV else ("A1", "A2") if role is R else atoms
            goal = And(goal, Exists(role, And(*(Atom(a) if rng.randrange(2) else Not(Atom(a)) for a in target))))
        yield goal, sig, sort, None


# every attribute needs an r-predecessor, and a functional r gives one
# object at most one successor: a model at (1, 1) and none at (1, 2)
INVERSE_KB = "oconcept C; aconcept A; xrole r; A <= some inv(r) top; top <= A;"


class TestElementCopy:
    """A model survives adding a copy of an object element, and of an
    attribute element unless inv(r) is read on a functional cross role,
    which is what lets find_model decide a no-model goal from the first
    and the top domain sizes alone."""

    def test_attribute_copy_fails_under_a_functional_inverse(self):
        kb = parse_kb(INVERSE_KB)
        objective, used = _objective(kb)
        # an attribute with one r-predecessor in C and one outside
        two_predecessors = And(Exists(R_INV, Atom("C")), Exists(R_INV, Not(Atom("C"))))
        query, query_used = _objective(two_predecessors, sort=Sort.ATTRIBUTE, kb=kb)
        for mode in MODES:
            at = {s: _unpatched_search_at(kb.sig, 1, s, mode, objective, used) for s in (1, 2)}
            assert at[1] is not None
            assert (at[2] is not None) == (mode is _FREE)
            assert _model_text(find_model(kb, Bounds(1, 2, mode))) == interpretation_to_text(at[1])

            # the query's smallest model is at (2, 1), and outside FREE the
            # largest size (2, 2) has none: searching it alone would miss it
            assert _sizes_with_a_model(query, query_used, mode) & {(1, 1), (1, 2), (2, 1), (2, 2)} == (
                {(2, 1), (2, 2)} if mode is _FREE else {(2, 1)}
            )
            verdict = find_model(two_predecessors, Bounds(2, 2, mode), sort=Sort.ATTRIBUTE, kb=kb)
            want, _ = _every_size(two_predecessors, Bounds(2, 2, mode), sort=Sort.ATTRIBUTE, kb=kb)
            assert _model_text(verdict) == want
            assert (verdict.interpretation.n_delta, verdict.interpretation.n_sigma) == (2, 1)

    def test_model_existence_is_upward_closed(self):
        """On random goals, KBs and queries, in every mode, a model at
        (d, s) means one at (d + 1, s), and one at (d, s + 1) unless inv(r)
        is read outside FREE."""
        rng = random.Random(2026)
        cases = list(_successor_goals(rng, 120))
        for trial in range(40):
            kb = gen_kb(rng) if trial % 2 else gen_atomic_gci_kb(rng)
            sort = Sort.OBJECT if trial % 4 < 2 else Sort.ATTRIBUTE
            cases += [(kb, None, None, None), (gen_nnf(rng, sort, 2), None, sort, kb)]
        grows_in_d = grows_in_s = shrinks_in_s = 0
        for goal, sig, sort, kb in cases:
            objective, used = _objective(goal, sig, sort, kb)
            attributes_monotone = not oracle._reads_inverse(objective.concepts)
            for mode in MODES:
                found = _sizes_with_a_model(objective, used, mode)
                for d, s in found:
                    assert d == 3 or (d + 1, s) in found
                    if attributes_monotone or mode is _FREE:
                        assert s == 3 or (d, s + 1) in found
                grows_in_d += any(d > 1 and (d - 1, s) not in found for d, s in found)
                grows_in_s += any(s > 1 and (d, s - 1) not in found for d, s in found)
                shrinks_in_s += any(s < 3 and (d, s + 1) not in found for d, s in found)
        assert grows_in_d >= 30 and grows_in_s >= 30
        assert shrinks_in_s >= 1  # the exception, drawn at random

    def test_suite_searches_are_pinned(self, monkeypatch):
        """Every check of the suite at (3,3) is a no-model verdict, which
        needs searches at the first and the top sizes only.  Searching
        every size took 374 searches per mode."""
        built = []

        class Counted(oracle._Search):
            def __init__(self, *args):
                built.append(args[1:3])
                super().__init__(*args)

        monkeypatch.setattr(oracle, "_Search", Counted)
        sig = suite_signature()
        for mode, searches in zip(MODES, (230, 230, 220)):
            built.clear()
            for item in all_items():
                for sort in item.sorts:
                    verdict = check_validity_bounded(item.build(sort), Bounds(3, 3, mode), sig)
                    assert isinstance(verdict, NoCountermodelUpToBound)
            assert len(built) == searches


class TestCheckValidity:
    def test_inverse_axiom_shape_is_valid(self):
        sig = diff_signature()
        inv = sig.role("r", inverted=True)
        f = Inclusion(Exists(inv, Forall(sig.role("r"), Atom("A1"))), Atom("A1"))
        verdict = check_validity_bounded(f, Bounds(2, 2), sig)
        assert isinstance(verdict, NoCountermodelUpToBound)

    def test_top_in_bot_has_a_countermodel(self):
        sig = diff_signature()
        f = Inclusion(Top(), Bot(), Sort.OBJECT)
        assert isinstance(check_validity_bounded(f, Bounds(2, 2), sig), Countermodel)

    def test_exists_does_not_imply_forall(self):
        sig = diff_signature()
        f = Inclusion(Exists(P, Atom("C1")), Forall(P, Atom("C1")))
        verdict = check_validity_bounded(f, Bounds(3, 1), sig)
        assert isinstance(verdict, Countermodel)
        i = verdict.interpretation
        succ_in = extension(Exists(P, Atom("C1")), i)
        succ_all = extension(Forall(P, Atom("C1")), i)
        assert succ_in & ~succ_all

    def test_duality_with_find_model(self):
        sig = diff_signature()
        rng = random.Random(80)
        for _ in range(40):
            left = gen_nnf(rng, Sort.OBJECT, 2)
            right = gen_nnf(rng, Sort.OBJECT, 2)
            f = Inclusion(left, right, Sort.OBJECT)
            validity = check_validity_bounded(f, Bounds(2, 2), sig)
            refuter = find_model(And(left, Not(right)), Bounds(2, 2), sig=sig, sort=Sort.OBJECT)
            assert isinstance(validity, Countermodel) == isinstance(refuter, Model)

    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_assertions_agree_with_plain_enumeration(self, mode):
        # C(a) and r(a, b) go through the pruned search, as the goals
        # {a} and not C and {a} and not some r {b}; the reference is the
        # plain enumeration filtered by the KB and the failed assertion.
        # A countermodel has the domain sizes of the first enumerated one.
        # o2 and u2 are in no assertion of the KB, so role assertions on
        # them can fail
        from kedl.kb import AssertionFormula, ConceptAssertion, RoleAssertion
        from kedl.semantics import satisfies_formula, sorted_formulas

        rng = random.Random(2121)
        found = {(kind, failed): 0 for kind in (ConceptAssertion, RoleAssertion) for failed in (True, False)}
        for _ in range(3):
            kb = gen_kb(rng)
            kb.sig.declare_individual("o2", Sort.OBJECT)
            kb.sig.declare_individual("u2", Sort.ATTRIBUTE)
            checked = kb.abox + [
                RoleAssertion(R, "o1", "u2"), RoleAssertion(R_INV, "u2", "o2"),
                RoleAssertion(P, "o1", "o2"), RoleAssertion(Q, "u2", "u1"),
            ] + [
                ConceptAssertion(gen_concept(rng, sort, 2), individual)
                for _ in range(3) for sort, individual in ((Sort.OBJECT, "o1"), (Sort.ATTRIBUTE, "u1"),
                                                           (Sort.OBJECT, "o2"), (Sort.ATTRIBUTE, "u2"))
            ]
            formulas = sorted_formulas(kb)
            for sizes in ((1, 1), (2, 1), (1, 2)):
                bounds = Bounds(*sizes, mode)
                models = [i for i in enumerate_interpretations(kb.sig, bounds) if satisfies_kb(i, kb, formulas)]
                for a in checked:
                    f = AssertionFormula(a)
                    slow = next((i for i in models if not satisfies_formula(i, f)), None)
                    fast = check_validity_bounded(f, bounds, kb=kb)
                    assert isinstance(fast, Countermodel) == (slow is not None)
                    if slow is not None:
                        i = fast.interpretation
                        assert satisfies_kb(i, kb) and not satisfies_formula(i, f)
                        assert (i.n_delta, i.n_sigma) == (slow.n_delta, slow.n_sigma)
                    found[type(a), slow is not None] += 1
        assert min(found.values()) >= 8

    def test_an_asserted_fact_needs_no_plain_enumeration(self, monkeypatch):
        # enumerating the whole signature at (2,2) took 14 s for this check
        from kedl.kb import AssertionFormula, ConceptAssertion

        monkeypatch.setattr(oracle, "enumerate_interpretations", None)
        kb = KnowledgeBase(sig=diff_signature())
        kb.sig.declare_individual("o1", Sort.OBJECT)
        kb.sig.declare_individual("u1", Sort.ATTRIBUTE)
        kb.assert_concept(Atom("C1"), "o1")
        bounds = Bounds(2, 2)
        f = AssertionFormula(ConceptAssertion(Atom("C1"), "o1"))
        assert check_validity_bounded(f, bounds, kb=kb) == NoCountermodelUpToBound(bounds)
