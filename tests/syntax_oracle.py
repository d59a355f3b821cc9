"""Reference concrete syntax: a recursive-descent parser that spells each
keyword form out, and a printer that matches each node class.

``ctkernel.syntax`` reads both off one layout table and prints by a
loop; it must agree with this module: the same text at every precedence
level, and the same tree or the same ``ParseError`` (message, line and
column) for every input.  Recursion limits the depth of the terms and
texts this module accepts.
"""

from __future__ import annotations

from typing import List

from ctkernel.syntax import (
    PREC_APP, PREC_AND, PREC_ATOM, PREC_OR, PREC_TERM, ParseError, Token,
    tokenize,
)
from ctkernel.terms import (
    App, Case, Disj, Exists, Forall, Fst, Inl, Inr, It, Lam, Pair, Snd,
    TFalse, TTrue, Term, Var, free_vars,
)


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
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

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "kw" and tok.text in ("lam", "forall", "exists", "case"):
            return self.binder()
        return self.imp()

    def binder(self) -> Term:
        tok = self.advance()
        if tok.text == "lam":
            name = self.expect_name()
            self.expect(".")
            return Lam(name, self.term())
        if tok.text in ("forall", "exists"):
            name = self.expect_name()
            self.expect(":")
            domain = self.term()
            self.expect(".")
            family = self.term()
            ctor = Forall if tok.text == "forall" else Exists
            return ctor(domain, name, family)
        if tok.text == "case":
            scrutinee = self.term()
            self.expect("of")
            self.expect("inl")
            lb = self.expect_name()
            self.expect("->")
            lbody = self.term()
            self.expect("|")
            self.expect("inr")
            rb = self.expect_name()
            self.expect("->")
            rbody = self.term()
            return Case(scrutinee, lb, lbody, rb, rbody)
        raise self.fail("expected a binder")

    def imp(self) -> Term:
        left = self.or_level()
        if self.peek().text == "=>":
            self.advance()
            return Forall(left, "_", self.term())
        return left

    def or_level(self) -> Term:
        t = self.and_level()
        while self.peek().text == "\\/":
            self.advance()
            t = Disj(t, self.and_level())
        return t

    def and_level(self) -> Term:
        t = self.app()
        while self.peek().text == "/\\":
            self.advance()
            t = Exists(t, "_", self.app())
        return t

    def _starts_operand(self) -> bool:
        tok = self.peek()
        if tok.kind == "name":
            return True
        if tok.kind == "kw" and tok.text in ("it", "True", "False", "fst", "snd", "inl", "inr"):
            return True
        return tok.kind == "punct" and tok.text in ("<", "(")

    def app(self) -> Term:
        t = self.prefix()
        while self._starts_operand():
            t = App(t, self.prefix())
        return t

    def prefix(self) -> Term:
        tok = self.peek()
        if tok.kind == "kw" and tok.text in ("fst", "snd", "inl", "inr"):
            self.advance()
            arg = self.prefix()
            ctor = {"fst": Fst, "snd": Snd, "inl": Inl, "inr": Inr}[tok.text]
            return ctor(arg)
        return self.atom()

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "kw":
            if tok.text == "it":
                self.advance()
                return It()
            if tok.text == "True":
                self.advance()
                return TTrue()
            if tok.text == "False":
                self.advance()
                return TFalse()
            if tok.text in ("lam", "forall", "exists", "case"):
                return self.binder()
            raise self.fail("unexpected keyword")
        if tok.kind == "name":
            self.advance()
            return Var(tok.text)
        if tok.text == "<":
            self.advance()
            fst = self.term()
            self.expect(",")
            snd = self.term()
            self.expect(">")
            return Pair(fst, snd)
        if tok.text == "(":
            self.advance()
            t = self.term()
            self.expect(")")
            return t
        raise self.fail("expected a term")


def parse(text: str) -> Term:
    parser = Parser(tokenize(text))
    t = parser.term()
    if parser.peek().kind != "eof":
        raise parser.fail("trailing input")
    return t


def _wrap(s: str, level: int, ctx: int) -> str:
    return f"({s})" if level < ctx else s


def pretty_at(t: Term, ctx: int) -> str:
    match t:
        case Var(n):
            return n
        case It():
            return "it"
        case TTrue():
            return "True"
        case TFalse():
            return "False"
        case Lam(b, body):
            return _wrap(f"lam {b}. {pretty_at(body, PREC_TERM)}", PREC_TERM, ctx)
        case App(f, a):
            return _wrap(f"{pretty_at(f, PREC_APP)} {pretty_at(a, PREC_ATOM)}", PREC_APP, ctx)
        case Pair(l, r):
            return f"<{pretty_at(l, PREC_TERM)}, {pretty_at(r, PREC_TERM)}>"
        case Fst(p):
            return _wrap(f"fst {pretty_at(p, PREC_ATOM)}", PREC_APP, ctx)
        case Snd(p):
            return _wrap(f"snd {pretty_at(p, PREC_ATOM)}", PREC_APP, ctx)
        case Inl(p):
            return _wrap(f"inl {pretty_at(p, PREC_ATOM)}", PREC_APP, ctx)
        case Inr(p):
            return _wrap(f"inr {pretty_at(p, PREC_ATOM)}", PREC_APP, ctx)
        case Case(s, lb, lbody, rb, rbody):
            body = (
                f"case {pretty_at(s, PREC_OR)} of inl {lb} -> {pretty_at(lbody, PREC_TERM)}"
                f" | inr {rb} -> {pretty_at(rbody, PREC_TERM)}"
            )
            return _wrap(body, PREC_TERM, ctx)
        case Forall(d, b, f):
            if b not in free_vars(f):
                body = f"{pretty_at(d, PREC_OR)} => {pretty_at(f, PREC_TERM)}"
            else:
                body = f"forall {b} : {pretty_at(d, PREC_OR)} . {pretty_at(f, PREC_TERM)}"
            return _wrap(body, PREC_TERM, ctx)
        case Exists(d, b, f):
            if b not in free_vars(f):
                body = f"{pretty_at(d, PREC_AND)} /\\ {pretty_at(f, PREC_APP)}"
                return _wrap(body, PREC_AND, ctx)
            body = f"exists {b} : {pretty_at(d, PREC_OR)} . {pretty_at(f, PREC_TERM)}"
            return _wrap(body, PREC_TERM, ctx)
        case Disj(l, r):
            return _wrap(f"{pretty_at(l, PREC_OR)} \\/ {pretty_at(r, PREC_AND)}", PREC_OR, ctx)
        case _:
            raise TypeError(f"not a term: {t!r}")


def describe(t: Term, limit: int = 120) -> str:
    s = pretty_at(t, PREC_TERM)
    return s if len(s) <= limit else s[: limit - 3] + "..."
