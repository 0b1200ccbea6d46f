"""Knowledge-element records and their compilation into KEDL ontologies.

Three record kinds make up the common knowledge-element model:

* object elements     -- a named thing with a non-empty set of attribute
                         states and an optional set of relations over them
* attribute elements  -- a state with a measurability grade 0..4 (0
                         non-descriptive, 1 descriptive, 2 conventional,
                         3 random, 4 fuzzy measurable), a measure dimension
                         (required whenever the grade is positive), and an
                         optional change function
* relational elements -- a mapping between attribute states: a mapping kind
                         tag, non-empty input and output state lists, and a
                         required mapping function name

Compilation declares an attribute concept per attribute element, a
functional cross role ``has-<attribute>`` per attribute attached to an
object, and defines each object concept as the conjunction of existentials
over its attributes.  A relational element becomes an attribute role named
after itself plus one inclusion per input/output pair.  Measurability,
dimensions, and function names are carried as comments in the emitted
ontology, never as logic.

There is one compile path: ``render_kedl`` writes the ontology as KEDL text,
and ``translate_to_kb`` reads that text back with ``parse_kb``, so a file
and a knowledge base compiled from the same records cannot disagree.
``validate_km`` therefore also rejects records whose text would not parse:
an element named by a KEDL keyword (or by no KEDL name at all), a cross
role ``has-<attribute>`` that equals another cross role or an element name
(as ``Foo`` and ``foo`` would give), and a line break in a note.  The file
grammar below is scanned by one regex through ``parser.scan``.

File grammar (``#`` line comments):

    object NAME STRING? { attributes: NAME, ...; relations: NAME, ...; }
    attribute NAME { measurability: INT; dimension: STRING; function: NAME|none; }
    relation NAME { mapping: NAME; inputs: NAME, ...; outputs: NAME, ...; function: NAME; }
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .kb import KnowledgeBase
from .parser import ParseError, Token, _Stream, is_name, parse_kb, scan
from .syntax import KedlError


class KmError(KedlError):
    pass


@dataclass
class ObjectKnowledgeElement:
    name: str
    gloss: str = ""
    attributes: list[str] = field(default_factory=list)
    relations: list[str] = field(default_factory=list)


@dataclass
class AttributeKnowledgeElement:
    name: str
    measurability: int = 0
    dimension: Optional[str] = None
    change_function: Optional[str] = None


@dataclass
class RelationalKnowledgeElement:
    name: str
    mapping_kind: str = ""
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    map_function: str = ""


KnowledgeElement = Union[ObjectKnowledgeElement, AttributeKnowledgeElement, RelationalKnowledgeElement]


def validate_km(elements: list[KnowledgeElement]) -> list[str]:
    """All invariant violations; [] means the records are well-formed and
    their rendered ontology parses."""
    out: list[str] = []
    seen: set[str] = set()
    attrs, _, rels, attached = _ordered(elements)
    attributes = {a.name for a in attrs}
    relations = {r.name: r for r in rels}

    for e in elements:
        if e.name in seen:
            out.append(f"{e.name}: duplicate element name")
        seen.add(e.name)
        if not is_name(e.name):
            out.append(f"{e.name!r}: a KEDL keyword, or not a KEDL name")
        if any("\n" in v for v in vars(e).values() if isinstance(v, str)):
            out.append(f"{e.name}: line break in a note, which rides as a comment")
    roles: set[str] = set()
    for a in attached:
        role = role_name_for(a)
        if role in seen or role in roles or not is_name(role):
            out.append(f"{a}: cross role {role!r} is another name, or not a KEDL name")
        roles.add(role)

    for e in elements:
        if isinstance(e, ObjectKnowledgeElement):
            if not e.attributes:
                out.append(f"{e.name}: attribute set must be non-empty")
            for a in e.attributes:
                if a not in attributes:
                    out.append(f"{e.name}: undeclared attribute {a}")
            for r in e.relations:
                rel = relations.get(r)
                if rel is None:
                    out.append(f"{e.name}: undeclared relation {r}")
                    continue
                for a in rel.inputs + rel.outputs:
                    if a not in e.attributes:
                        out.append(f"{e.name}: relation {r} uses {a}, not one of its attributes")
        elif isinstance(e, AttributeKnowledgeElement):
            if e.measurability not in range(5):
                out.append(f"{e.name}: measurability must be 0..4, got {e.measurability}")
            if e.measurability > 0 and not e.dimension:
                out.append(f"{e.name}: measurable attribute needs a dimension")
        else:
            if not e.mapping_kind:
                out.append(f"{e.name}: mapping kind must be non-empty")
            if not e.inputs:
                out.append(f"{e.name}: input set must be non-empty")
            if not e.outputs:
                out.append(f"{e.name}: output set must be non-empty")
            if not e.map_function:
                out.append(f"{e.name}: mapping function is required")
            for a in e.inputs + e.outputs:
                if a not in attributes:
                    out.append(f"{e.name}: undeclared attribute {a}")
    return out


def _require_valid(elements: list[KnowledgeElement]) -> None:
    problems = validate_km(elements)
    if problems:
        raise KmError("invalid knowledge elements:\n" + "\n".join(f"  - {p}" for p in problems))


# --- Parsing ------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<string>"[^"\n]*")
      | (?P<int>\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_-]*)
      | (?P<punct>[{}:,;])
    """,
    re.VERBOSE,
)


def _token(kind: str, text: str, line: int, col: int) -> Token:
    return Token(text if kind == "punct" else kind, text, line, col)


def _name_list(s: _Stream) -> list[str]:
    names = [s.expect("name").text]
    while s.at(","):
        s.next()
        names.append(s.expect("name").text)
    return names


def parse_km(text: str) -> list[KnowledgeElement]:
    """Parse a knowledge-element file and check every record invariant."""
    elements: list[KnowledgeElement] = []
    try:
        s = _Stream(scan(_TOKEN_RE, text, _token))
        while s.peek() is not None:
            tok = s.expect("name")
            if tok.text == "object":
                elements.append(_parse_object(s))
            elif tok.text == "attribute":
                elements.append(_parse_attribute(s))
            elif tok.text == "relation":
                elements.append(_parse_relation(s))
            else:
                raise ParseError(f"expected object/attribute/relation, found {tok.text!r}", tok.line, tok.col)
    except ParseError as err:
        raise KmError(str(err)) from err
    _require_valid(elements)
    return elements


def _entries(s: _Stream) -> Iterator[Token]:
    """The key of each ``key: value;`` entry of a record body, with the
    stream at its value; the caller reads the value."""
    s.expect("{")
    while not s.at("}"):
        key = s.expect("name")
        s.expect(":")
        yield key
        s.expect(";")
    s.expect("}")


def _parse_object(s: _Stream) -> ObjectKnowledgeElement:
    elem = ObjectKnowledgeElement(name=s.expect("name").text)
    if s.at("string"):
        elem.gloss = s.next().text[1:-1]
    for key in _entries(s):
        if key.text == "attributes":
            elem.attributes = _name_list(s)
        elif key.text == "relations":
            elem.relations = [] if s.at(";") else _name_list(s)
        else:
            raise ParseError(f"unknown object entry {key.text!r} in {elem.name}", key.line, key.col)
    return elem


def _parse_attribute(s: _Stream) -> AttributeKnowledgeElement:
    name = s.expect("name")
    elem = AttributeKnowledgeElement(name=name.text)
    saw_measurability = False
    for key in _entries(s):
        if key.text == "measurability":
            elem.measurability = int(s.expect("int").text)
            saw_measurability = True
        elif key.text == "dimension":
            elem.dimension = s.expect("string").text[1:-1]
        elif key.text == "function":
            word = s.expect("name").text
            elem.change_function = None if word == "none" else word
        else:
            raise ParseError(f"unknown attribute entry {key.text!r} in {elem.name}", key.line, key.col)
    if not saw_measurability:
        raise ParseError(f"attribute {elem.name}: measurability entry is required", name.line, name.col)
    return elem


def _parse_relation(s: _Stream) -> RelationalKnowledgeElement:
    elem = RelationalKnowledgeElement(name=s.expect("name").text)
    for key in _entries(s):
        if key.text == "mapping":
            elem.mapping_kind = s.expect("name").text
        elif key.text == "inputs":
            elem.inputs = _name_list(s)
        elif key.text == "outputs":
            elem.outputs = _name_list(s)
        elif key.text == "function":
            elem.map_function = s.expect("name").text
        else:
            raise ParseError(f"unknown relation entry {key.text!r} in {elem.name}", key.line, key.col)
    return elem


# --- Translation ---------------------------------------------------------------


def role_name_for(attribute: str) -> str:
    return "has-" + attribute.lower()


def _ordered(elements: list[KnowledgeElement]):
    attrs = [e for e in elements if isinstance(e, AttributeKnowledgeElement)]
    objects = [e for e in elements if isinstance(e, ObjectKnowledgeElement)]
    relations = [e for e in elements if isinstance(e, RelationalKnowledgeElement)]
    attached = list(dict.fromkeys(a for obj in objects for a in obj.attributes))  # first appearance order
    return attrs, objects, relations, attached


def translate_to_kb(elements: list[KnowledgeElement]) -> KnowledgeBase:
    """Compile validated records into a sort-checked knowledge base: the
    rendered ontology, read back by the KEDL parser."""
    return parse_kb(render_kedl(elements))


def render_kedl(elements: list[KnowledgeElement]) -> str:
    """Render the compiled ontology as a ``.kedl`` file.

    Record metadata (measurability, dimension, functions, mapping kinds)
    rides along as comments.  Output is byte-stable for fixed input.
    """
    _require_valid(elements)
    attrs, objects, relations, attached = _ordered(elements)

    lines = ["# compiled knowledge-element ontology", ""]
    for a in attrs:
        meta = f"measurability={a.measurability}"
        if a.dimension is not None:
            meta += f' dimension="{a.dimension}"'
        meta += f" function={a.change_function or 'none'}"
        lines.append(f"aconcept {a.name};  # {meta}")
    lines.append("")
    for name in attached:
        lines.append(f"xrole {role_name_for(name)};")
    lines.append("")
    for obj in objects:
        lines.append(f"oconcept {obj.name};" + (f"  # {obj.gloss}" if obj.gloss else ""))
    lines.append("")
    for obj in objects:
        definition = " and ".join(
            f"some {role_name_for(a)} {a}" for a in obj.attributes
        )
        lines.append(f"{obj.name} := {definition};")
    if relations:
        lines.append("")
        for rel in relations:
            lines.append(
                f"arole {rel.name};  # mapping={rel.mapping_kind} function={rel.map_function}"
            )
            for src in rel.inputs:
                for dst in rel.outputs:
                    lines.append(f"{src} <= some {rel.name} {dst};")
    return "\n".join(lines) + "\n"
