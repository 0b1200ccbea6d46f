"""Surface syntax for concepts and knowledge-base files.

Grammar (``#`` starts a line comment; identifiers are case-sensitive and may
contain letters, digits, ``-`` and ``_``):

    decl    := ("oconcept"|"aconcept") NAME ";"
             | ("orole"|"arole"|"xrole") NAME ";"
             | ("oindividual"|"aindividual") NAME ";"
    tbox    := NAME ":=" concept ";"  |  concept "<=" concept ";"
    abox    := NAME "(" NAME ")" ";"  |  NAME "(" NAME "," NAME ")" ";"
             | "(" concept ")" "(" NAME ")" ";"
    concept := "top" | "bot" | NAME | "not" concept
             | concept ("and"|"or") concept
             | ("some"|"all") roleref concept
             | "(" concept ")"
             | concept ("=>"|"<=>") concept
    roleref := NAME | "inv(" NAME ")"

Keywords and precedence come from :data:`kedl.syntax.CONNECTIVES`, which the
printer reads too: ``not`` > ``and`` > ``or`` > (``=>``, ``<=>``), ``and``
and ``or`` group to the left and the arrows to the right; quantifiers bind
the tightest following concept.  The usual DL glyphs are accepted as aliases
for the keywords (e.g. ``⊓`` for ``and``, ``∃`` for ``some``, ``→`` for
``=>``, ``⊑`` for ``<=``).  A name starts with a letter or ``_``; the
keywords above are not names.

Text is split into tokens by :func:`scan`, one regex of named alternatives
per grammar, which the knowledge-element format of :mod:`kedl.km` shares;
every token carries its line and column, and errors read ``L:C: message``.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, Optional

from .kb import KnowledgeBase, KnowledgeBaseError
from .syntax import (
    CONNECTIVES,
    Atom,
    Bot,
    ConceptExpr,
    DuplicateNameError,
    Exists,
    Forall,
    KedlError,
    Not,
    RoleKind,
    RoleName,
    Signature,
    Sort,
    SortError,
    Top,
    _fold,
    check_sort,
)


class ParseError(KedlError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_GLYPHS = {
    "⊓": "and",
    "⊔": "or",
    "¬": "not",
    "∃": "some",
    "∀": "all",
    "⊤": "top",
    "⊥": "bot",
    "→": "=>",
    "↔": "<=>",
    "⊑": "<=",
}

_KEYWORDS = {
    "and", "or", "not", "some", "all", "top", "bot", "inv",
    "oconcept", "aconcept", "orole", "arole", "xrole",
    "oindividual", "aindividual",
}

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<glyph>[⊓⊔¬∃∀⊤⊥→↔⊑])
      | (?P<punct><=>|:=|=>|<=|[(),;])
      | (?P<name>\w[\w-]*)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "name", "kw", or the punctuation itself
    text: str
    line: int
    col: int


def scan(pattern: re.Pattern[str], text: str, token: Callable[[str, str, int, int], Token]) -> list[Token]:
    """Split text by a regex of named alternatives, one per token kind.

    ``ws`` and ``comment`` matches are dropped; ``token(kind, text, line,
    col)`` makes every other match a token.  A character that no
    alternative matches is a ParseError at its line and column.
    """
    tokens: list[Token] = []
    line, start = 1, 0  # start: the index where the line begins
    pos, end = 0, len(text)
    while pos < end:
        m = pattern.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - start + 1)
        kind = m.lastgroup
        if kind == "ws":
            breaks = text.count("\n", pos, m.end())
            if breaks:
                line += breaks
                start = text.rindex("\n", pos, m.end()) + 1
        elif kind != "comment":
            tokens.append(token(kind, m.group(), line, pos - start + 1))
        pos = m.end()
    return tokens


def _token(kind: str, text: str, line: int, col: int) -> Token:
    if kind == "name":
        if text in _KEYWORDS:
            kind = "kw"
        elif not (text[0].isalpha() or text[0] == "_"):  # a digit, or a numeral such as ²
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
    elif kind == "glyph":
        text = _GLYPHS[text]
        kind = "kw" if text.isalpha() else text
    else:
        kind = text
    return Token(kind, text, line, col)


def tokenize(text: str) -> list[Token]:
    return scan(_TOKEN_RE, text, _token)


def is_name(text: str) -> bool:
    """Whether text reads as one name: a word that is no keyword and starts
    with a letter or ``_``."""
    m = _TOKEN_RE.fullmatch(text)
    return m is not None and m.lastgroup == "name" and (text[0].isalpha() or text[0] == "_") and text not in _KEYWORDS


class _Stream:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset: int = 0) -> Optional[Token]:
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token(";", ";", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col + len(last.text))
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at(self, kind: str, *texts: str) -> bool:
        """Whether the next token has this kind and, given texts, one of them."""
        tok = self.peek()
        return tok is not None and tok.kind == kind and (not texts or tok.text in texts)


# --- Concept parsing ---------------------------------------------------------
#
# When no signature is available (sig is None), role references are parsed
# provisionally as cross roles and fixed up by inference later.


def _parse_roleref(s: _Stream, sig: Optional[Signature]) -> RoleName:
    inverted = s.at("kw", "inv")
    if inverted:
        s.next()
        s.expect("(")
    name = s.expect("name")
    if inverted:
        s.expect(")")
    if sig is None:
        return RoleName(name.text, RoleKind.CROSS_INVERSE if inverted else RoleKind.CROSS)
    try:
        return sig.role(name.text, inverted=inverted)
    except SortError as err:
        raise err.at((name.line, name.col))


_CLASS = {c.keyword: kind for kind, c in CONNECTIVES.items()}  # keyword -> concept class


def _parse_concept(s: _Stream, sig: Optional[Signature]) -> ConceptExpr:
    """One concept, read by Dijkstra's shunting-yard loop (1961) over
    explicit operand and operator stacks.  A pending operator is applied
    once its precedence reaches the left slot of the binary operator that
    follows (see :data:`CONNECTIVES`), and at a closing parenthesis or the
    concept's end."""
    operands: list[ConceptExpr] = []
    pending: list = []  # (precedence, class, label) per operator; None opens a parenthesis

    def apply(least: int) -> None:
        while pending and pending[-1] is not None and pending[-1][0] >= least:
            _, kind, label = pending.pop()
            n = len(CONNECTIVES[kind].slots)
            operands[-n:] = [kind(*label, *operands[-n:])]

    while True:
        tok = s.next()  # "(" and prefix operators, up to an operand
        kind = None if tok.kind == "name" else _CLASS.get(tok.text)
        if tok.kind == "(":
            pending.append(None)
            continue
        if kind is Not or kind is Exists or kind is Forall:
            label = () if kind is Not else (_parse_roleref(s, sig),)
            pending.append((CONNECTIVES[kind].prec, kind, label))
            continue
        if tok.kind == "name":
            operands.append(Atom(tok.text))
        elif kind is Top or kind is Bot:
            operands.append(kind())
        else:
            raise ParseError(f"expected a concept, found {tok.text!r}", tok.line, tok.col)
        while True:  # ")" up to a binary operator or the concept's end
            tok = s.peek()
            kind = None if tok is None or tok.kind == "name" else _CLASS.get(tok.text)
            op = CONNECTIVES.get(kind)
            if op is not None and len(op.slots) == 2:
                s.next()
                apply(op.slots[0])
                pending.append((op.prec, kind, ()))
                break
            apply(0)
            if not pending:
                return operands[0]
            s.expect(")")
            pending.pop()


def _parse_whole(text: str, sig: Optional[Signature]) -> tuple[ConceptExpr, Token]:
    """The concept that is all of text, and its first token."""
    s = _Stream(tokenize(text))
    expr = _parse_concept(s, sig)
    extra = s.peek()
    if extra is not None:
        raise ParseError(f"trailing input: {extra.text!r}", extra.line, extra.col)
    return expr, s.tokens[0]


def parse_concept(text: str, sig: Signature) -> ConceptExpr:
    """Parse a concept expression and sort-check it against the signature."""
    expr, first = _parse_whole(text, sig)
    try:
        check_sort(expr, sig)
    except SortError as err:
        raise (err if err.location is not None else err.at((first.line, first.col)))
    return expr


# --- Signature inference for bare concepts -----------------------------------

_ROLE_KIND = {(k.source, k.target): k for k in (RoleKind.OBJ_OBJ, RoleKind.ATTR_ATTR, RoleKind.CROSS)}


def parse_concept_with_inference(text: str) -> tuple[ConceptExpr, Signature]:
    """Parse a concept with no declarations, inferring a signature.

    Kinds are inferred by unifying sort variables: one per atom name, a
    source and a target per role name, a fresh one per ``top``/``bot``.
    ``not`` keeps its operand's sort; ``and``/``or``/``=>``/``<=>`` unify
    their operands; ``some``/``all p C`` unifies ``C`` with p's target and
    has p's source sort; ``inv(p)`` makes p a cross role (object source,
    attribute target), unifies ``C`` with p's source and has p's target
    sort.  No role kind has an attribute source and an object target, so an
    attribute source forces an attribute target and an object target an
    object source.  This fails only when no choice of role kinds and atom
    sorts sort-checks the concept.  Free sorts then default: a role's target
    that is no role's source is attribute, every other is object.  So
    undetermined roles become cross roles and atoms nothing forces become
    object atoms; use an explicit signature when that is not what you mean.
    """
    proto, _ = _parse_whole(text, sig=None)

    # union-find over sort variables; variables 0 and 1 are the object and
    # the attribute sort, and the two are never in one class
    parent = [0, 1]
    atoms: dict[str, int] = {}
    roles: dict[str, tuple[int, int]] = {}  # name -> (source, target)

    def fresh() -> int:
        parent.append(len(parent))
        return len(parent) - 1

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def unify(a: int, b: int) -> Optional[int]:
        """Join the classes of a and b; their root, or None if that would
        join the two sorts."""
        a, b = find(a), find(b)
        if {a, b} == {find(0), find(1)}:
            return None
        parent[b] = a
        return a

    def combine(e: ConceptExpr, operands: list[int]) -> int:
        """The sort variable of ``e``, from its operands'."""
        kind = type(e)
        if kind is Atom:
            if e.name not in atoms:
                atoms[e.name] = fresh()
            return atoms[e.name]
        if kind is Top or kind is Bot:
            return fresh()
        if kind is Not:
            return operands[0]
        if kind is Exists or kind is Forall:
            child, name = operands[0], e.role.name
            if name not in roles:
                roles[name] = (fresh(), fresh())
            source, target = roles[name]
            if e.role.kind is RoleKind.CROSS_INVERSE:
                if unify(source, 0) is None or unify(target, 1) is None:
                    raise SortError(f"role {name} used with two kinds")
                if unify(child, source) is None:
                    raise SortError(f"inv({name}) needs an object-sort operand")
                return target
            if unify(child, target) is None:
                raise SortError(f"role {name} used with two kinds")
            return source
        root = unify(*operands)  # and, or, => and <=>
        if root is None:
            raise SortError(f"mixed-sort operands in {e}")
        return root

    _fold(proto, combine)
    changed = True
    while changed:  # a role with an attribute source or an object target has one sort
        changed = False
        for name, (source, target) in roles.items():
            if find(source) != find(target) and (find(source) == find(1) or find(target) == find(0)):
                if unify(source, target) is None:
                    raise SortError(f"role {name} used with two kinds")
                changed = True

    sources = {find(source) for source, _ in roles.values()}
    attribute = ({find(target) for _, target in roles.values()} - sources) | {find(1)}

    def sort_of(v: int) -> Sort:
        return Sort.ATTRIBUTE if find(v) in attribute else Sort.OBJECT

    sig = Signature()
    for name, (source, target) in roles.items():
        sig.declare_role(name, _ROLE_KIND[sort_of(source), sort_of(target)])
    for name, v in atoms.items():
        sig.declare_atom(name, sort_of(v))
    return parse_concept(text, sig), sig


# --- Knowledge-base parsing ---------------------------------------------------

_DECL_SORT = {
    "oconcept": Sort.OBJECT,
    "aconcept": Sort.ATTRIBUTE,
    "oindividual": Sort.OBJECT,
    "aindividual": Sort.ATTRIBUTE,
}
_DECL_ROLE = {
    "orole": RoleKind.OBJ_OBJ,
    "arole": RoleKind.ATTR_ATTR,
    "xrole": RoleKind.CROSS,
}


def parse_kb(text: str) -> KnowledgeBase:
    """Parse a knowledge-base file: declarations, TBox, and ABox statements.

    The result is fully sort-checked; duplicate declarations and duplicate
    definitions are rejected.  Names must be declared before use.
    """
    kb = KnowledgeBase()
    s = _Stream(tokenize(text))
    while s.peek() is not None:
        _parse_statement(s, kb)
    return kb


def _parse_statement(s: _Stream, kb: KnowledgeBase) -> None:
    tok = s.peek()
    assert tok is not None
    loc = (tok.line, tok.col)
    try:
        if tok.kind == "kw" and (tok.text in _DECL_SORT or tok.text in _DECL_ROLE):
            s.next()
            name = s.expect("name").text
            s.expect(";")
            if tok.text in _DECL_ROLE:
                kb.sig.declare_role(name, _DECL_ROLE[tok.text])
            elif tok.text.endswith("individual"):
                kb.sig.declare_individual(name, _DECL_SORT[tok.text])
            else:
                kb.sig.declare_atom(name, _DECL_SORT[tok.text])
            return
        if tok.kind == "name":
            after = s.peek(1)
            if after is not None and after.kind == ":=":
                s.next()
                s.next()
                expr = _parse_concept(s, kb.sig)
                s.expect(";")
                kb.define(tok.text, expr)
                return
            if after is not None and after.kind == "(":
                _parse_assertion(s, kb)
                return
        left = _parse_concept(s, kb.sig)
        if tok.kind == "(" and s.at("("):  # a parenthesized-concept assertion
            s.next()
            ind = s.expect("name")
            s.expect(")")
            s.expect(";")
            kb.assert_concept(left, ind.text)
            return
        s.expect("<=")
        right = _parse_concept(s, kb.sig)
        s.expect(";")
        kb.include(left, right)
    except SortError as err:
        raise (err if err.location is not None else err.at(loc))
    except (DuplicateNameError, KnowledgeBaseError) as err:
        raise ParseError(str(err), *loc) from err


def _parse_assertion(s: _Stream, kb: KnowledgeBase) -> None:
    name = s.expect("name")
    s.expect("(")
    first = s.expect("name")
    if s.at(","):
        s.next()
        second = s.expect("name")
        s.expect(")")
        s.expect(";")
        try:
            role = kb.sig.role(name.text)
        except SortError as err:
            raise err.at((name.line, name.col))
        kb.assert_role(role, first.text, second.text)
        return
    s.expect(")")
    s.expect(";")
    if name.text in kb.sig.roles:
        raise ParseError(f"role {name.text} needs two arguments", name.line, name.col)
    kb.assert_concept(Atom(name.text), first.text)


def parse_signature(text: str) -> Signature:
    """Parse a declarations-only fragment (used by the CLI ``--sig`` flag)."""
    kb = parse_kb(text)
    if kb.definitions or kb.inclusions or kb.abox:
        raise KedlError("signature text must contain declarations only")
    return kb.sig
