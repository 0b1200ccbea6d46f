"""Knowledge-element records: parsing, validation, and ontology compilation."""

import importlib.resources
import random

import pytest

from kedl import (
    Atom,
    Exists,
    Inclusion,
    KmError,
    RoleKind,
    Sort,
    is_consistent,
    parse_kb,
    parse_km,
    render_kedl,
    translate_to_kb,
    validate_km,
)
from kedl.km import (
    AttributeKnowledgeElement,
    ObjectKnowledgeElement,
    RelationalKnowledgeElement,
    role_name_for,
)


def data_text(name: str) -> str:
    return importlib.resources.files("kedl.data").joinpath(name).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def corpus():
    return parse_km(data_text("gas.km"))


MINIMAL = """
attribute Weight { measurability: 2; dimension: "kilogram"; function: none; }
object Crate "a box" { attributes: Weight; }
"""


class TestParsing:
    def test_gas_block_has_five_attributes(self, corpus):
        gas = next(e for e in corpus if isinstance(e, ObjectKnowledgeElement) and e.name == "Gas")
        assert len(gas.attributes) == 5

    def test_non_descriptive_attribute_without_dimension(self):
        elems = parse_km('attribute Mood { measurability: 0; function: none; }')
        attr = elems[0]
        assert attr.measurability == 0 and attr.dimension is None

    def test_relation_with_empty_outputs_rejected(self):
        text = """
        attribute Weight { measurability: 2; dimension: "kilogram"; function: none; }
        relation heavier { mapping: logical; inputs: Weight; outputs: ; function: f; }
        """
        with pytest.raises(KmError):
            parse_km(text)

    def test_measurable_attribute_needs_dimension(self):
        with pytest.raises(KmError):
            parse_km("attribute Size { measurability: 2; function: none; }")

    def test_gloss_is_optional(self):
        elems = parse_km(MINIMAL)
        crate = elems[1]
        assert crate.gloss == "a box"


class TestValidation:
    def test_dangling_attribute_reference(self):
        elems = [
            AttributeKnowledgeElement("Weight", 2, "kilogram", None),
            ObjectKnowledgeElement("Gas", attributes=["Pressure"]),
        ]
        assert any("Pressure" in v for v in validate_km(elems))

    def test_random_measurable_with_dimension_ok(self):
        elems = [AttributeKnowledgeElement("Temp", 3, "celsius", None)]
        assert validate_km(elems) == []

    def test_empty_attribute_set_rejected(self):
        elems = [ObjectKnowledgeElement("Gas", attributes=[])]
        assert any("non-empty" in v for v in validate_km(elems))

    def test_relation_must_use_object_attributes(self):
        elems = [
            AttributeKnowledgeElement("Weight", 2, "kilogram", None),
            AttributeKnowledgeElement("Other", 0, None, None),
            RelationalKnowledgeElement("heavier", "logical", ["Weight"], ["Other"], "f"),
            ObjectKnowledgeElement("Crate", attributes=["Weight"], relations=["heavier"]),
        ]
        assert any("heavier" in v for v in validate_km(elems))

    def test_duplicate_names_rejected(self):
        elems = [
            AttributeKnowledgeElement("Weight", 2, "kilogram", None),
            AttributeKnowledgeElement("Weight", 0, None, None),
        ]
        assert any("duplicate" in v for v in validate_km(elems))


class TestTranslation:
    def test_single_element(self):
        kb = translate_to_kb(parse_km(MINIMAL))
        assert kb.sig.object_atoms == {"Crate"}
        assert kb.sig.attribute_atoms == {"Weight"}
        assert kb.sig.roles == {"has-weight": RoleKind.CROSS}
        assert kb.definitions["Crate"] == Exists(kb.sig.role("has-weight"), Atom("Weight"))

    def test_corpus_counts(self, corpus):
        kb = translate_to_kb(corpus)
        assert len(kb.sig.object_atoms) == 4
        # the fifteen paper attributes plus the comparison vocabulary
        assert len(kb.sig.attribute_atoms) == 16
        cross = [n for n, k in kb.sig.roles.items() if k is RoleKind.CROSS]
        assert len(cross) == 15
        assert kb.sig.roles["more-than"] is RoleKind.ATTR_ATTR
        assert len(kb.definitions) == 4
        assert kb.inclusions == [
            Inclusion(Atom("Length"), Exists(kb.sig.role("more-than"), Atom("Meters1200")), Sort.ATTRIBUTE)
        ]

    def test_corpus_definition_shapes(self, corpus):
        kb = translate_to_kb(corpus)
        text = render_kedl(corpus)
        assert (
            "Tunnel := some has-location Location and some has-length Length "
            "and some has-width Width and some has-height Height "
            "and some has-anti-explosive-impact Anti-explosive-impact "
            "and some has-explosion-impact Explosion-impact;" in text
        )
        assert "Gas := some has-gas-composition Gas-composition" in text

    def test_name_collision_rejected(self):
        elems = [
            AttributeKnowledgeElement("Weight", 2, "kilogram", None),
            ObjectKnowledgeElement("Weight2", attributes=["Weight"]),
            ObjectKnowledgeElement("has-weight", attributes=["Weight"]),
        ]
        with pytest.raises(KmError):
            translate_to_kb(elems)

    def test_rendered_output_reparses_and_sort_checks(self, corpus):
        kb = parse_kb(render_kedl(corpus))
        assert len(kb.definitions) == 4

    def test_translation_is_deterministic(self, corpus):
        assert render_kedl(corpus) == render_kedl(corpus)

    def test_golden_file(self, corpus):
        assert render_kedl(corpus) == data_text("gas.kedl")

    def test_metadata_rides_as_comments(self, corpus):
        text = render_kedl(corpus)
        assert 'aconcept Length;  # measurability=2 dimension="meter" function=none' in text
        assert "arole more-than;  # mapping=logical function=exceeds-threshold" in text

    def test_relation_free_translation_is_consistent(self):
        # pure conjunction-of-existentials ontologies always have a model
        elems = parse_km(MINIMAL)
        kb = translate_to_kb(elems)
        assert is_consistent(kb).satisfiable

    def test_corpus_translation_is_consistent(self, corpus):
        assert is_consistent(translate_to_kb(corpus)).satisfiable


# records whose rendered text would not parse: an attribute named by a KEDL
# keyword, and two attributes whose cross roles are both has-foo
KEYWORD_KM = """
attribute top { measurability: 0; function: none; }
object Crate { attributes: top; }
"""
CASE_PAIR_KM = """
attribute Foo { measurability: 0; function: none; }
attribute foo { measurability: 0; function: none; }
object Crate { attributes: Foo, foo; }
"""
KEYWORD_RECORDS = [AttributeKnowledgeElement("top"), ObjectKnowledgeElement("Crate", attributes=["top"])]
CASE_PAIR_RECORDS = [
    AttributeKnowledgeElement("Foo"),
    AttributeKnowledgeElement("foo"),
    ObjectKnowledgeElement("Crate", attributes=["Foo", "foo"]),
]


class TestRenderedTextParses:
    @pytest.mark.parametrize("text,records", [(KEYWORD_KM, KEYWORD_RECORDS), (CASE_PAIR_KM, CASE_PAIR_RECORDS)])
    def test_rejected_by_every_entry_point(self, text, records):
        with pytest.raises(KmError):
            parse_km(text)
        with pytest.raises(KmError):
            render_kedl(records)
        with pytest.raises(KmError):
            translate_to_kb(records)

    def test_syntax_errors_carry_line_and_column(self):
        with pytest.raises(KmError, match=r"^4:31: expected ':', found ';'$"):
            parse_km(MINIMAL + "attribute Mood { measurability; }")

    def test_records_render_to_text_that_parses_or_are_rejected(self):
        # names come from a pool with keywords, case-colliding pairs and
        # names of cross roles; records either fail validation or compile
        # to text that parse_kb reads
        pool = ["top", "inv", "and", "xrole", "Foo", "foo", "FOO", "Bar", "bar", "has-foo", "has-bar",
                "Gas", "Tunnel", "Length", "Width", "Time", "Heat", "object", "none"]
        rng = random.Random(20)
        rejected = parsed = 0
        for _ in range(300):
            names = rng.sample(pool, rng.randrange(2, 8))
            k = rng.randrange(1, len(names))
            attrs = names[:k]
            elements = [AttributeKnowledgeElement(a) for a in attrs]
            for name in names[k:]:
                if rng.randrange(3):
                    elements.append(ObjectKnowledgeElement(name, attributes=rng.sample(attrs, rng.randrange(1, k + 1))))
                else:
                    elements.append(RelationalKnowledgeElement(name, "logical", [rng.choice(attrs)],
                                                               [rng.choice(attrs)], "f"))
            rng.shuffle(elements)
            try:
                text = render_kedl(elements)
            except KmError:
                rejected += 1
                continue
            assert validate_km(elements) == []
            parse_kb(text)
            parsed += 1
        assert rejected > 100 and parsed > 50, (rejected, parsed)  # 218 and 82


class TestRoleNaming:
    def test_mechanical_role_names(self):
        assert role_name_for("Length") == "has-length"
        assert role_name_for("Gas-composition") == "has-gas-composition"
