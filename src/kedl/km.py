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

File grammar (``#`` line comments):

    object NAME STRING? { attributes: NAME, ...; relations: NAME, ...; }
    attribute NAME { measurability: INT; dimension: STRING; function: NAME|none; }
    relation NAME { mapping: NAME; inputs: NAME, ...; outputs: NAME, ...; function: NAME; }
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

from .kb import KnowledgeBase
from .syntax import And, Atom, ConceptExpr, DuplicateNameError, Exists, KedlError, RoleKind, Sort


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
    """All invariant violations; [] means the records are well-formed."""
    out: list[str] = []
    seen: set[str] = set()
    attributes = {e.name for e in elements if isinstance(e, AttributeKnowledgeElement)}
    relations = {e.name: e for e in elements if isinstance(e, RelationalKnowledgeElement)}

    for e in elements:
        if e.name in seen:
            out.append(f"{e.name}: duplicate element name")
        seen.add(e.name)

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


def _km_tokens(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    line = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise KmError(f"line {line}: unexpected character {text[pos]!r}")
        line += text[pos:m.end()].count("\n")
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append((kind, m.group(), line))
        pos = m.end()
    return tokens


class _KmStream:
    def __init__(self, tokens: list[tuple[str, str, int]]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise KmError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            raise KmError(f"line {tok[2]}: expected {want!r}, found {tok[1]!r}")
        return tok

    def name_list(self) -> list[str]:
        names = [self.expect("name")[1]]
        while self.peek() is not None and self.peek()[1] == ",":
            self.next()
            names.append(self.expect("name")[1])
        return names


def parse_km(text: str) -> list[KnowledgeElement]:
    """Parse a knowledge-element file and check every record invariant."""
    s = _KmStream(_km_tokens(text))
    elements: list[KnowledgeElement] = []
    while s.peek() is not None:
        kind, word, line = s.expect("name")
        if word == "object":
            elements.append(_parse_object(s))
        elif word == "attribute":
            elements.append(_parse_attribute(s))
        elif word == "relation":
            elements.append(_parse_relation(s))
        else:
            raise KmError(f"line {line}: expected object/attribute/relation, found {word!r}")
    problems = validate_km(elements)
    if problems:
        raise KmError("invalid knowledge elements:\n" + "\n".join(f"  - {p}" for p in problems))
    return elements


def _parse_object(s: _KmStream) -> ObjectKnowledgeElement:
    name = s.expect("name")[1]
    gloss = ""
    if s.peek() is not None and s.peek()[0] == "string":
        gloss = s.next()[1][1:-1]
    elem = ObjectKnowledgeElement(name=name, gloss=gloss)
    s.expect("punct", "{")
    while s.peek() is not None and s.peek()[1] != "}":
        key = s.expect("name")[1]
        s.expect("punct", ":")
        if key == "attributes":
            elem.attributes = s.name_list()
        elif key == "relations":
            if s.peek() is not None and s.peek()[1] == ";":
                elem.relations = []
            else:
                elem.relations = s.name_list()
        else:
            raise KmError(f"unknown object entry {key!r} in {name}")
        s.expect("punct", ";")
    s.expect("punct", "}")
    return elem


def _parse_attribute(s: _KmStream) -> AttributeKnowledgeElement:
    name = s.expect("name")[1]
    elem = AttributeKnowledgeElement(name=name)
    s.expect("punct", "{")
    saw_measurability = False
    while s.peek() is not None and s.peek()[1] != "}":
        key = s.expect("name")[1]
        s.expect("punct", ":")
        if key == "measurability":
            elem.measurability = int(s.expect("int")[1])
            saw_measurability = True
        elif key == "dimension":
            elem.dimension = s.expect("string")[1][1:-1]
        elif key == "function":
            word = s.expect("name")[1]
            elem.change_function = None if word == "none" else word
        else:
            raise KmError(f"unknown attribute entry {key!r} in {name}")
        s.expect("punct", ";")
    s.expect("punct", "}")
    if not saw_measurability:
        raise KmError(f"attribute {name}: measurability entry is required")
    return elem


def _parse_relation(s: _KmStream) -> RelationalKnowledgeElement:
    name = s.expect("name")[1]
    elem = RelationalKnowledgeElement(name=name)
    s.expect("punct", "{")
    while s.peek() is not None and s.peek()[1] != "}":
        key = s.expect("name")[1]
        s.expect("punct", ":")
        if key == "mapping":
            elem.mapping_kind = s.expect("name")[1]
        elif key == "inputs":
            elem.inputs = s.name_list()
        elif key == "outputs":
            elem.outputs = s.name_list()
        elif key == "function":
            elem.map_function = s.expect("name")[1]
        else:
            raise KmError(f"unknown relation entry {key!r} in {name}")
        s.expect("punct", ";")
    s.expect("punct", "}")
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
    """Compile validated records into a sort-checked knowledge base."""
    problems = validate_km(elements)
    if problems:
        raise KmError("invalid knowledge elements:\n" + "\n".join(f"  - {p}" for p in problems))
    attrs, objects, relations, attached = _ordered(elements)

    kb = KnowledgeBase()
    try:
        for a in attrs:
            kb.sig.declare_atom(a.name, Sort.ATTRIBUTE)
        for name in attached:
            kb.sig.declare_role(role_name_for(name), RoleKind.CROSS)
        for obj in objects:
            kb.sig.declare_atom(obj.name, Sort.OBJECT)
        for rel in relations:
            kb.sig.declare_role(rel.name, RoleKind.ATTR_ATTR)
    except DuplicateNameError as err:
        raise KmError(f"name collision while translating: {err}") from err

    for obj in objects:
        kb.define(obj.name, _definition_concept(kb, obj))
    for rel in relations:
        role = kb.sig.role(rel.name)
        for src in rel.inputs:
            for dst in rel.outputs:
                kb.include(Atom(src), Exists(role, Atom(dst)))
    return kb


def _definition_concept(kb: KnowledgeBase, obj: ObjectKnowledgeElement) -> ConceptExpr:
    conjuncts = [
        Exists(kb.sig.role(role_name_for(a)), Atom(a)) for a in obj.attributes
    ]
    expr = conjuncts[0]
    for c in conjuncts[1:]:
        expr = And(expr, c)
    return expr


def render_kedl(elements: list[KnowledgeElement]) -> str:
    """Render the compiled ontology as a ``.kedl`` file.

    Record metadata (measurability, dimension, functions, mapping kinds)
    rides along as comments.  Output is byte-stable for fixed input.
    """
    kb = translate_to_kb(elements)  # re-checks invariants and collisions
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
