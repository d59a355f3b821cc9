"""The value classes and statement forms against frozen dataclasses
with the same fields: ``repr``, equality, hash, pickling, copying, the
constructor's signature, keywords and defaults must match, and a field
must not be assignable (except ``Tank``'s)."""

import copy
import dataclasses
import inspect
import pickle
from dataclasses import MISSING, Field, field, make_dataclass
from typing import get_args

import pytest

from ctkernel.config import RunConfig
from ctkernel.evaluation import Canonical, FuelExhausted, Strategy, Stuck, Tank, evaluate
from ctkernel.judgments import (
    Blocked, Both, CanonClosureIn, CanonEmpty, CanonEq, CanonIn, CanonNeq, CanonNotIn,
    CanonUndefined, EqMember, EqSet, Evals, Gen, Hyp, IsSet, IsTrue, Member, Statement,
    Trace, TraceStep, Verdict,
)
from ctkernel.record import Record
from ctkernel.rules import (
    Derivation, NotDerivable, ReadingsReport, RuleScheme, Sequent, compare_readings,
    derive, parse_rule,
)
from ctkernel.syntax import Token, parse, tokenize
from ctkernel.terms import FALSE, IT, TRUE, CanonicalForm, Inl, Term, Var, _Node
from ctkernel.unary import EnumResult, check_member, enumerate_canonical
from ctkernel.worlds import Atom, HypForced, RuleValid, WorldModel, chain_model

# class -> its fields in order; a pair is a field and its default
FIELDS = {
    RunConfig: (("fuel", 10000), ("depth", 4), ("search_depth", 5), ("output_mode", "human")),
    Token: ("kind", "text", "line", "col"),
    Canonical: ("term", "form", "steps"),
    FuelExhausted: ("remaining",),
    Stuck: ("offending",),
    Tank: ("remaining", "strategy"),
    TraceStep: ("statement", "rule", ("children", ())),
    Trace: (("steps", ()),),
    Verdict: ("status", ("trace", field(default_factory=Trace)), ("bound", None),
              ("fuel_report", None), ("pair", None), ("instance", None),
              ("instantiation", None), ("premise_witnesses", None), ("bounds", None)),
    EnumResult: ("witnesses", "complete", ("failure", None)),
    RuleScheme: ("metavariables", "premises", "conclusion"),
    Sequent: ("hypotheses", "goal"),
    Derivation: ("conclusion", "rule", ("children", ())),
    NotDerivable: ("at_depth", "exhausted"),
    ReadingsReport: ("rule", "derivation", "admissibility"),
    Atom: ("name",),
    RuleValid: ("premise", "conclusion"),
    HypForced: ("premise", "conclusion"),
    WorldModel: ("worlds", "order", "atoms", "verifications"),
    IsSet: ("a",),
    IsTrue: ("a",),
    Member: ("m", "a"),
    EqSet: ("a", "b"),
    EqMember: ("m", "n", "a"),
    Hyp: ("antecedents", "consequent"),
    Gen: ("binders", "body"),
    Evals: ("term", "result"),
    CanonIn: ("ty", "args"),
    CanonNotIn: ("ty", "args"),
    CanonUndefined: ("ty",),
    CanonClosureIn: ("ty", "args"),
    CanonEmpty: ("ty",),
    CanonEq: ("a", "b"),
    CanonNeq: ("a", "b"),
    Blocked: ("term",),
    Both: ("parts",),
}
ABSTRACT = {Statement}
# The term nodes are records too; tests/test_terms.py tests them.
NODES = {_Node, *get_args(Term)}
MUTABLE = {Tank}


def names(cls) -> tuple:
    return tuple(f if isinstance(f, str) else f[0] for f in FIELDS[cls])


def spec(f):
    if isinstance(f, str):
        return f
    name, default = f
    return name, object, default if isinstance(default, Field) else field(default=default)


MIRROR = {cls: make_dataclass(cls.__name__, [spec(f) for f in fields],
                              frozen=cls not in MUTABLE)
          for cls, fields in FIELDS.items()}

SCHEME = parse_rule("P true; Q true |- P /\\ Q true")
REFUTED = compare_readings(parse_rule("P \\/ Q true |- P true"))
HYP = Hyp((Member(Var("x"), FALSE),), CanonEmpty(FALSE))
SAMPLES = {
    RunConfig: (RunConfig(), RunConfig(50, 2, 3, "machine")),
    Token: tuple(tokenize("lam x")[:2]),
    Canonical: (evaluate(parse("fst <it, it>"), 10), Canonical(IT, CanonicalForm.IT, 0)),
    FuelExhausted: (evaluate(parse("(lam x. x x) (lam x. x x)"), 5), FuelExhausted("it")),
    Stuck: (evaluate(parse("fst inl it"), 5), Stuck(IT)),
    Tank: (Tank(3, Strategy.CALL_BY_NAME), Tank(3, Strategy.CALL_BY_VALUE)),
    TraceStep: (TraceStep(Member(IT, TRUE), "intro"),
                TraceStep(Member(IT, TRUE), "intro", (Trace(),))),
    Trace: (check_member(parse("lam x. <it, it>"), parse("False => True")).trace, Trace()),
    Verdict: (check_member(parse("lam x. <it, it>"), parse("False => True")),
              REFUTED.admissibility),
    EnumResult: (enumerate_canonical(parse("True \\/ True"), 2),
                 enumerate_canonical(parse("(lam x. x x) (lam x. x x)"), 2, 5)),
    RuleScheme: (SCHEME, REFUTED.rule),
    Sequent: (derive(SCHEME).conclusion, Sequent((), TRUE)),
    Derivation: (derive(SCHEME), Derivation(Sequent((), TRUE), "truth-intro")),
    NotDerivable: (REFUTED.derivation, NotDerivable(3, False)),
    ReadingsReport: (compare_readings(SCHEME), REFUTED),
    Atom: (Atom("A"), Atom("B")),
    RuleValid: (RuleValid(Atom("A"), Atom("B")), RuleValid(Atom("B"), Atom("A"))),
    HypForced: (HypForced(Atom("A"), Atom("B")), HypForced(Atom("A"), Atom("A"))),
    WorldModel: (chain_model(), WorldModel.build(["u"], [], ["A"], [])),
    IsSet: (IsSet(TRUE), IsSet(parse("True /\\ False"))),
    IsTrue: (SCHEME.conclusion, IsTrue(parse("P => P"))),
    Member: (Member(IT, TRUE), Member(Inl(IT), parse("True \\/ False"))),
    EqSet: (EqSet(TRUE, TRUE), EqSet(TRUE, FALSE)),
    EqMember: (EqMember(IT, IT, TRUE), EqMember(Inl(IT), Inl(IT), parse("True \\/ True"))),
    Hyp: (HYP, Hyp((), IsSet(TRUE))),
    Gen: (Gen(("x",), HYP), Gen(("x", "y"), IsSet(TRUE))),
    Evals: (Evals(parse("fst <it, it>"), IT), Evals(IT, IT)),
    CanonIn: (CanonIn(TRUE, (IT,)), CanonIn(parse("True /\\ True"), (parse("<it, it>"),))),
    CanonNotIn: (CanonNotIn(FALSE, (IT,)), CanonNotIn(TRUE, (Inl(IT),))),
    CanonUndefined: (CanonUndefined(IT), CanonUndefined(parse("it /\\ False"))),
    CanonClosureIn: (CanonClosureIn(TRUE, (parse("fst <it, it>"),)),
                     CanonClosureIn(FALSE, (Var("x"),))),
    CanonEmpty: (CanonEmpty(FALSE), CanonEmpty(parse("False /\\ True"))),
    CanonEq: (CanonEq(TRUE, TRUE), CanonEq(FALSE, FALSE)),
    CanonNeq: (CanonNeq(TRUE, FALSE), CanonNeq(FALSE, TRUE)),
    Blocked: (Blocked(Var("x")), Blocked(parse("fst inl it"))),
    Both: (Both((Evals(IT, IT), CanonIn(TRUE, (IT,)))), Both(())),
}


def values(x) -> list:
    return [getattr(x, f) for f in type(x).__match_args__]


def mirror(x):
    return MIRROR[type(x)](*values(x))


def hash_or_none(x):
    try:
        return hash(x)
    except TypeError:
        return None


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_record_class_pinned():
    assert set(subclasses(Record)) == set(FIELDS) | ABSTRACT | NODES
    assert set(FIELDS) == set(SAMPLES)
    assert len(FIELDS) == 19 + 17
    assert len(NODES) == 1 + 15


def test_statement_is_a_bare_record():
    own = {"__init__", "__eq__", "__hash__", "__repr__", "__reduce__", "__setattr__",
           "__delattr__"} & set(vars(Statement))
    assert own == set()
    for cls in FIELDS:
        if issubclass(cls, Statement):
            assert all(x.values == tuple(values(x)) for x in SAMPLES[cls])


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
class TestAgainstDataclass:
    def test_fields(self, cls):
        assert cls.__match_args__ == MIRROR[cls].__match_args__ == names(cls)
        for x in SAMPLES[cls]:
            assert type(x) is cls and not hasattr(x, "__dict__")

    def test_repr_eq_hash(self, cls):
        a, b = SAMPLES[cls]
        for x in (a, b):
            twin = cls(*values(x))
            assert repr(x) == repr(mirror(x))
            assert x == twin and mirror(x) == mirror(twin)
            assert hash_or_none(x) == hash_or_none(mirror(x)) == hash_or_none(twin)
            assert x != mirror(x) and mirror(x) != x
        assert (a == b) is (mirror(a) == mirror(b)) is False
        assert (a != b) is (mirror(a) != mirror(b)) is True

    def test_signature(self, cls):
        expected = [(f.name, f.default if f.default is not MISSING
                     else f.default_factory() if f.default_factory is not MISSING
                     else inspect.Parameter.empty)
                    for f in dataclasses.fields(MIRROR[cls])]
        params = inspect.signature(cls).parameters.values()
        assert [(p.name, p.default) for p in params] == expected
        assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}

    def test_keywords_and_defaults(self, cls):
        for x in SAMPLES[cls]:
            kw = dict(zip(names(cls), values(x)))
            assert cls(**kw) == x
        required = [f for f in FIELDS[cls] if isinstance(f, str)]
        given = [getattr(SAMPLES[cls][0], f) for f in required]
        assert values(cls(*given)) == values(MIRROR[cls](*given))

    def test_pickle_and_copy(self, cls):
        for x in SAMPLES[cls]:
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(x, protocol))
                assert type(back) is cls and back == x
            for copied in (copy.copy(x), copy.deepcopy(x)):
                assert type(copied) is cls and copied == x

    def test_fields_assignable_only_in_tank(self, cls):
        x = SAMPLES[cls][0]
        first = names(cls)[0]
        if cls in MUTABLE:
            y = cls(*values(x))
            setattr(y, first, 9)
            m = mirror(x)
            setattr(m, first, 9)
            assert values(y) == values(m) == [9, *values(x)[1:]]
            return
        for target in (x, mirror(x)):
            with pytest.raises(AttributeError):
                setattr(target, first, None)
            with pytest.raises(AttributeError):
                delattr(target, first)
            with pytest.raises(AttributeError):
                target.extra = None
        assert values(x) == values(cls(*values(x)))


@pytest.mark.parametrize("kw", [{"fuel": 0}, {"depth": 0}, {"search_depth": 0},
                                {"output_mode": "json"}])
def test_run_config_validates(kw):
    with pytest.raises(ValueError):
        RunConfig(**kw)
