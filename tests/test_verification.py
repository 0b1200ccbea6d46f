"""The axiom/property catalog and its two-engine verification harness.

Beyond running the suite, this module pins the primary union/negation
spelling of each concept axiom against the arrow spelling: the first six
distribution schemas desugar to their union forms syntactically, and all of
them denote the same extension in every interpretation at small bounds.
"""

from itertools import islice

import pytest

from kedl import (
    Atom,
    Bounds,
    Exists,
    Forall,
    Inclusion,
    Not,
    Or,
    RoleKind,
    Signature,
    Sort,
    check_sort,
    desugar,
    enumerate_interpretations,
    extension,
    verify_suite,
)
from kedl.axioms import all_items, axiom_items, property_items, suite_signature
from kedl.syntax import ConceptExpr, subexprs

from generators import P, Q, R, R_INV


class TestCatalogShape:
    def test_twenty_one_axioms(self):
        ids = {item.item_id for item in axiom_items()}
        assert ids == {f"axiom{n}" for n in range(1, 22)}

    def test_sort_ambiguous_axioms_run_twice(self):
        two_sorted = {
            item.item_id for item in axiom_items() if len(item.sorts) == 2
        }
        assert two_sorted == {"axiom1", "axiom2", "axiom3", "axiom18", "axiom19", "axiom20", "axiom21"}

    def test_role_axioms_have_fixed_sorts(self):
        by_id = {item.item_id: item for item in axiom_items()}
        assert by_id["axiom4"].sorts == (Sort.OBJECT,)
        assert by_id["axiom9"].sorts == (Sort.ATTRIBUTE,)
        assert by_id["axiom13"].sorts == (Sort.ATTRIBUTE,)
        assert by_id["axiom16"].sorts == (Sort.ATTRIBUTE,)
        assert by_id["axiom17"].sorts == (Sort.OBJECT,)

    def test_property_checks_run_in_both_sorts(self):
        items = property_items()
        assert len(items) == 21
        assert all(len(item.sorts) == 2 for item in items)

    def test_formulas_are_well_sorted(self):
        sig = suite_signature()
        for item in all_items():
            for sort in item.sorts:
                f = item.build(sort)
                assert check_sort(f.left, sig, expected=f.sort) is sort
                assert check_sort(f.right, sig, expected=f.sort) is sort


class TestSuiteRuns:
    def test_full_suite_passes_at_2_2(self):
        checks = verify_suite(bounds=Bounds(2, 2))
        assert len(checks) == 70
        bad = [c for c in checks if not c.ok]
        assert bad == []

    def test_only_filter(self):
        checks = verify_suite(only="axiom16")
        assert len(checks) == 1
        assert checks[0].item_id == "axiom16"
        assert checks[0].ok

    def test_only_filter_matches_whole_id_segments(self):
        # a bare prefix would also select axiom10..axiom19 and property10.x..property12
        assert {c.item_id for c in verify_suite(only="axiom1")} == {"axiom1"}
        assert {c.item_id for c in verify_suite(only="property1")} == {
            "property1.1", "property1.2"}

    def test_tableau_runs_in_the_mode_of_the_bounds(self, monkeypatch):
        # one setting for both engines: the oracle reads bounds.mode, and
        # so does the tableau the suite builds
        from kedl import axioms
        from kedl.semantics import FunctionalityMode

        modes = []

        def spy(kb, mode=FunctionalityMode.AT_MOST_ONE):
            modes.append(mode)
            return real(kb, mode)

        real = axioms.Tableau
        monkeypatch.setattr(axioms, "Tableau", spy)
        checks = verify_suite(Bounds(2, 2, FunctionalityMode.FREE), only="axiom1")
        assert modes == [FunctionalityMode.FREE]
        assert checks and all(c.ok for c in checks)

    def test_verdicts_stable_across_bounds(self):
        # a sample of roleful items at larger bounds: same verdicts
        for item_id in ("axiom6", "axiom12", "axiom16", "property7"):
            small = [(c.item_id, c.sort, c.ok) for c in verify_suite(only=item_id, bounds=Bounds(2, 2))]
            large = [(c.item_id, c.sort, c.ok) for c in verify_suite(only=item_id, bounds=Bounds(3, 3))]
            assert small == large


# --- primary union/negation spellings of the concept axioms --------------------

_C, _D = Atom("C1"), Atom("C2")
_A, _B = Atom("A1"), Atom("A2")


def _union_forms() -> dict[str, tuple[ConceptExpr, Sort]]:
    """The not/or spelling of each concept axiom, built verbatim."""
    forms: dict[str, tuple[ConceptExpr, Sort]] = {}
    phi, psi, gam = _C, _D, Atom("C3")
    forms["axiom1"] = (Or(Not(phi), Or(Not(psi), phi)), Sort.OBJECT)
    forms["axiom2"] = (
        Or(
            Not(Or(Not(phi), Or(Not(psi), gam))),
            Or(Not(Or(Not(phi), psi)), Or(Not(phi), gam)),
        ),
        Sort.OBJECT,
    )
    forms["axiom3"] = (Or(Not(Or(phi, Not(psi))), Or(Not(psi), phi)), Sort.OBJECT)

    def triple(role, a, b, sort):
        # intersections are spelled as the complement of a union throughout;
        # a meet is not(not x or not y)
        meet = Not(Or(Not(a), Not(b)))
        union = Or(Not(Or(Exists(role, a), Exists(role, b))), Exists(role, Or(a, b)))
        split = Or(
            Not(Exists(role, meet)),
            Not(Or(Not(Exists(role, a)), Not(Exists(role, b)))),
        )
        mix = Or(
            Or(Not(Exists(role, a)), Exists(role, Not(b))),
            Exists(role, meet),
        )
        return (union, sort), (split, sort), (mix, sort)

    forms["axiom4"], forms["axiom5"], forms["axiom6"] = triple(P, _C, _D, Sort.OBJECT)
    forms["axiom7"], forms["axiom8"], forms["axiom9"] = triple(Q, _A, _B, Sort.ATTRIBUTE)
    forms["axiom10"], forms["axiom11"], forms["axiom12"] = triple(R, _A, _B, Sort.OBJECT)
    forms["axiom13"], forms["axiom14"], forms["axiom15"] = triple(R_INV, _C, _D, Sort.ATTRIBUTE)
    forms["axiom16"] = (Or(Not(Exists(R_INV, Forall(R, _A))), _A), Sort.ATTRIBUTE)
    forms["axiom17"] = (Or(Not(Exists(R, Forall(R_INV, _C))), _C), Sort.OBJECT)
    return forms


def _arrow_concept(item_id: str, sort: Sort) -> ConceptExpr:
    from kedl.syntax import Iff, Implies

    by_id = {item.item_id: item for item in axiom_items()}
    f = by_id[item_id].build(sort)
    if isinstance(f, Inclusion):
        return Implies(f.left, f.right)
    return Iff(f.left, f.right)


def _projected_sig(*exprs: ConceptExpr) -> Signature:
    sig = Signature()
    kinds = {"p": RoleKind.OBJ_OBJ, "q": RoleKind.ATTR_ATTR, "r": RoleKind.CROSS}
    for e in exprs:
        for sub in subexprs(e):
            if isinstance(sub, Atom) and not sig.has_atom(sub.name):
                sig.declare_atom(sub.name, Sort.OBJECT if sub.name.startswith("C") else Sort.ATTRIBUTE)
            if isinstance(sub, (Exists, Forall)) and sub.role.name not in sig.roles:
                sig.declare_role(sub.role.name, kinds[sub.role.name])
    return sig


SYNTACTIC_MATCHES = ["axiom1", "axiom2", "axiom4", "axiom7", "axiom10", "axiom13", "axiom16", "axiom17"]


@pytest.mark.parametrize("item_id", SYNTACTIC_MATCHES)
def test_arrow_forms_desugar_to_the_union_forms(item_id):
    union, sort = _union_forms()[item_id]
    assert desugar(_arrow_concept(item_id, sort)) == union


@pytest.mark.parametrize("item_id", sorted(_union_forms(), key=lambda s: int(s[5:])))
def test_union_and_arrow_forms_have_equal_extensions(item_id):
    union, sort = _union_forms()[item_id]
    arrow = _arrow_concept(item_id, sort)
    sig = _projected_sig(union, arrow)
    for i in islice(enumerate_interpretations(sig, Bounds(2, 2)), 0, None, 7):
        assert extension(union, i, sort) == extension(arrow, i, sort)


@pytest.mark.parametrize("item_id", sorted(_union_forms(), key=lambda s: int(s[5:])))
def test_union_forms_denote_the_whole_domain(item_id):
    # validity of the primary spelling itself, by exhaustive evaluation
    union, sort = _union_forms()[item_id]
    sig = _projected_sig(union)
    for i in islice(enumerate_interpretations(sig, Bounds(2, 2)), 0, None, 7):
        assert extension(union, i, sort) == i.domain(sort)
