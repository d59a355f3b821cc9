"""Concrete syntax: lexer, parser and precedence-aware printer.

Grammar (ASCII), loosest binding first::

    term   ::= binder | imp
    binder ::= 'lam' NAME '.' term
             | 'forall' NAME ':' term '.' term
             | 'exists' NAME ':' term '.' term
             | 'case' term 'of' 'inl' NAME '->' term '|' 'inr' NAME '->' term
    imp    ::= or ('=>' term)?                  -- right associative
    or     ::= and ('\\/' and)*                 -- left associative
    and    ::= app ('/\\' app)*                 -- left associative
    app    ::= prefix prefix*                   -- left associative
    prefix ::= ('fst'|'snd'|'inl'|'inr') prefix | atom
    atom   ::= 'it' | 'True' | 'False' | NAME | '<' term ',' term '>'
             | binder | '(' term ')'

The syntax of each node class is written once, in ``LAYOUT``: its
precedence level and its pieces.  The printer is one loop over that
table with an explicit stack, so it prints terms of any depth; the
parser reads every keyword-led form and every infix operator off the
same table (only names and brackets are written by hand), and the
evaluator's fuel report prints its pending frames from it.  ``A => B``
parses to a universal quantifier with an unused binder and ``A /\\ B``
to an existential with an unused binder; the printer folds a
quantifier whose binder does not occur in the family back into the
operator form (``SUGAR``).  The parser is one precedence loop,
``term``, over operands read by ``operand``; the two recurse into each
other on nesting.  Open terms parse fine (free variables are the
caller's concern); syntax errors carry line and column, and so does
text nested too deep for the Python stack.
"""

from __future__ import annotations

import sys
from typing import List

from .record import Record
from .terms import (
    App, Case, Disj, Exists, Forall, Fst, Inl, Inr, It, Lam, Pair, Snd,
    TFalse, TTrue, Term, Var, conj, imp,
)

# Precedence levels, loosest first.
PREC_TERM, PREC_OR, PREC_AND, PREC_APP, PREC_ATOM = range(5)

# Per node class: its precedence level and its pieces, in reading order.
# A piece is literal text, or (field, context): a subterm printed where
# a term of precedence ``context`` is expected, or a name when the
# context is None.
LAYOUT = {
    Var: (PREC_ATOM, (("name", None),)),
    It: (PREC_ATOM, ("it",)),
    TTrue: (PREC_ATOM, ("True",)),
    TFalse: (PREC_ATOM, ("False",)),
    Lam: (PREC_TERM, ("lam ", ("binder", None), ". ", ("body", PREC_TERM))),
    App: (PREC_APP, (("fn", PREC_APP), " ", ("arg", PREC_ATOM))),
    Pair: (PREC_ATOM, ("<", ("fst", PREC_TERM), ", ", ("snd", PREC_TERM), ">")),
    Fst: (PREC_APP, ("fst ", ("pair", PREC_ATOM))),
    Snd: (PREC_APP, ("snd ", ("pair", PREC_ATOM))),
    Inl: (PREC_APP, ("inl ", ("arg", PREC_ATOM))),
    Inr: (PREC_APP, ("inr ", ("arg", PREC_ATOM))),
    Case: (PREC_TERM, (
        "case ", ("scrutinee", PREC_OR), " of inl ", ("left_binder", None), " -> ",
        ("left_body", PREC_TERM), " | inr ", ("right_binder", None), " -> ",
        ("right_body", PREC_TERM),
    )),
    Forall: (PREC_TERM, ("forall ", ("binder", None), " : ", ("domain", PREC_OR), " . ",
                         ("family", PREC_TERM))),
    Exists: (PREC_TERM, ("exists ", ("binder", None), " : ", ("domain", PREC_OR), " . ",
                         ("family", PREC_TERM))),
    Disj: (PREC_OR, (("left", PREC_OR), " \\/ ", ("right", PREC_AND))),
}

# The layouts of a quantifier whose binder does not occur in its family.
SUGAR = {
    Forall: (PREC_TERM, (("domain", PREC_OR), " => ", ("family", PREC_TERM))),
    Exists: (PREC_AND, (("domain", PREC_AND), " /\\ ", ("family", PREC_APP))),
}

# The keyword-led forms by their first word, and the words that start
# an argument of an application: a bracket and the first word of each
# form but the loosest, whose body would swallow the rest.
_FORMS = {pieces[0].split()[0]: cls
          for cls, (_, pieces) in LAYOUT.items() if type(pieces[0]) is str}
_ARGUMENTS = {word for word, cls in _FORMS.items() if LAYOUT[cls][0] > PREC_TERM} | {"("}

# The infix operators by their text: level, context of the right side
# and builder, read off the layouts of a disjunction and of the sugar.
_INFIX = {pieces[1].strip(): (level, pieces[2][1], build) for build, (level, pieces) in (
    (Disj, LAYOUT[Disj]), (imp, SUGAR[Forall]), (conj, SUGAR[Exists]))}

KEYWORDS = {word for _, pieces in LAYOUT.values() for piece in pieces
            if type(piece) is str for word in piece.split() if word.isalpha()}

_PUNCT2 = ("->", "=>", "/\\", "\\/", "|-")
_PUNCT1 = "()<>,.:|"


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(Record):
    """A lexeme; ``kind`` is 'name', 'kw', 'punct' or 'eof'."""
    __slots__ = __match_args__ = ("kind", "text", "line", "col")


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i:i + 2]
        if two in _PUNCT2:
            tokens.append(Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if c in _PUNCT1:
            tokens.append(Token("punct", c, line, col))
            i += 1
            col += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in KEYWORDS else "name"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> "ParseError":
        tok = self.peek()
        at = f"at {tok.text!r}" if tok.kind != "eof" else "at end of input"
        return ParseError(f"{message} {at}", tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "name":
            raise self.fail(f"expected {text!r}")
        return self.advance()

    def expect_name(self) -> str:
        tok = self.peek()
        if tok.kind != "name":
            raise self.fail("expected a variable name")
        return self.advance().text

    # -- grammar ------------------------------------------------------

    def whole(self) -> Term:
        """One term and the end of the input.  Text nested too deep for
        the Python stack is a ParseError at the token the parser reached."""
        try:
            t = self.term(PREC_TERM)
        except RecursionError:
            raise self.fail("input nested too deep") from None
        if self.peek().kind != "eof":
            raise self.fail("trailing input")
        return t

    def term(self, ctx: int) -> Term:
        """A term where one of precedence ``ctx`` is expected: an operand,
        then each application and infix operator (``_INFIX``) that binds
        at least as tightly as ``ctx``, its right side in its layout's context."""
        t = self.operand()
        while True:
            tok = self.peek()
            op = _INFIX.get(tok.text)
            if op is not None and op[0] >= ctx:
                self.advance()
                t = op[2](t, self.term(op[1]))
            elif ctx <= PREC_APP and (tok.kind == "name" or tok.text in _ARGUMENTS):
                t = App(t, self.operand())
            else:
                return t

    def operand(self) -> Term:
        """A keyword-led form read off its layout, a name or a bracketed term."""
        tok = self.peek()
        cls = _FORMS.get(tok.text)
        if cls is not None:
            fields = {}
            for step in _STEPS[cls]:
                if type(step) is str:
                    self.expect(step)
                    continue
                field, ctx = step
                # a term at PREC_ATOM is an operand: read it one frame shallower
                fields[field] = (self.expect_name() if ctx is None
                                 else self.operand() if ctx == PREC_ATOM else self.term(ctx))
            return cls(**fields)
        if tok.kind == "name":
            self.advance()
            return Var(tok.text)
        if tok.kind == "kw":
            raise self.fail("unexpected keyword")
        if tok.text == "(":
            self.advance()
            t = self.term(PREC_TERM)
            self.expect(")")
            return t
        raise self.fail("expected a term")


def _steps(pieces: tuple) -> tuple:
    """How ``_Parser.operand`` reads a layout: each word of literal text
    is expected in turn, a name field is a variable name, and a subterm
    field followed by literal text is a whole term; any other field is
    read in its own context."""
    steps = []
    for i, piece in enumerate(pieces):
        if type(piece) is str:
            steps.extend(piece.split())
            continue
        field, ctx = piece
        steps.append((field, PREC_TERM if ctx is not None and i < len(pieces) - 1 else ctx))
    return tuple(steps)


_STEPS = {cls: _steps(LAYOUT[cls][1]) for cls in _FORMS.values()}


def parse(text: str) -> Term:
    """Parse one term; raises ParseError with line/column on bad syntax."""
    return _Parser(tokenize(text)).whole()


# -- printing ----------------------------------------------------------

def pretty(t: Term) -> str:
    """Render a term; parse(pretty(t)) is alpha-equivalent to t."""
    return pretty_at(t, PREC_TERM)


def pretty_at(t: Term, ctx: int) -> str:
    """Render ``t`` where a term of precedence ``ctx`` is expected,
    parenthesised when it binds more loosely."""
    out: list = []
    write([(t, ctx)], out)
    return "".join(out)


def write(stack: list, out: list, size: int = 0, limit: int = sys.maxsize) -> int:
    """Write the items of ``stack``, top first, onto ``out`` until the
    stack is empty or the text is longer than ``limit``; returns its new
    length ``size``.  An item is text, a pair (term, context), or a pair
    (pieces, fields): layout pieces and an object whose attributes are
    the fields they name.  A term's fields are read off the term itself,
    by name."""
    pop, push, emit = stack.pop, stack.append, out.append
    while stack and size <= limit:
        item = pop()
        if type(item) is str:
            emit(item)
            size += len(item)
            continue
        pieces, fields = item
        if type(pieces) is not tuple:
            t, ctx = item
            cls = type(t)
            level, pieces = LAYOUT[cls]
            if cls in SUGAR and t.binder not in t.family.fv:
                level, pieces = SUGAR[cls]
            if level < ctx:
                emit("(")
                size += 1
                push(")")
            fields = t
        for piece in reversed(pieces):
            if type(piece) is str:
                push(piece)
            else:
                field, ctx = piece
                value = getattr(fields, field)
                push(value if ctx is None else (value, ctx))
    return size


def describe(t: Term, limit: int = 120) -> str:
    """Short rendering for error reports; writing stops past the cut."""
    out: list = []
    write([(t, PREC_TERM)], out, 0, limit)
    return clip("".join(out), limit)


def clip(s: str, limit: int = 120) -> str:
    """``s`` cut to ``limit`` characters, marking a cut with '...'."""
    return s if len(s) <= limit else s[: limit - 3] + "..."
