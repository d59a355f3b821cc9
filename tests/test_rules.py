"""Rule lab: derivability, admissibility, and their separation."""

import hypothesis.strategies as st
import itertools
import pytest
from hypothesis import given, settings

import ctkernel.rules
import derivation_oracle as oracle
from admissibility_oracle import bounded_admissible, instance_admissible
from ctkernel.evaluation import Strategy
from ctkernel.judgments import IsTrue, Status
from ctkernel.rules import (
    Derivation, NotDerivable, RuleScheme, Sequent, admissible, check_derivation,
    compare_readings, derivation_size, derive, extract_realizer,
    instantiate, parse_rule, parse_rule_file,
)
from ctkernel.syntax import ParseError, parse, pretty
from ctkernel.terms import FALSE, IT, TRUE, Disj, Forall, Inl, Var, conj, imp, substitute
from ctkernel.unary import check_member, enumerate_canonical, ground_types
from termgen import outside_fragment_schemes, random_rule_schemes
from test_terms import stack_safe

P, Q = Var("P"), Var("Q")


class TestParseRule:
    def test_inline(self):
        r = parse_rule("P /\\ Q true |- P true")
        assert r.metavariables == ("P", "Q")
        assert len(r.premises) == 1
        assert pretty(r.conclusion.a) == "P"

    def test_multiple_premises(self):
        r = parse_rule("P true; Q true |- P /\\ Q true")
        assert len(r.premises) == 2

    def test_no_premises(self):
        r = parse_rule("|- True true")
        assert r.premises == ()
        r2 = parse_rule("True true")
        assert r2.premises == ()

    def test_labels_optional(self):
        r = parse_rule("premises: P true; Q true |- conclusion: P /\\ Q true")
        assert len(r.premises) == 2
        assert pretty(r.conclusion.a) == "P /\\ Q"
        assert parse_rule("conclusion: P true") == parse_rule("premises: P true") \
            == parse_rule("|- P true")

    def test_must_end_in_true(self):
        with pytest.raises(ParseError):
            parse_rule("P |- Q")

    def test_fragment_enforced(self):
        with pytest.raises(ParseError):
            parse_rule("lam x. x true |- P true")

    def test_rule_file_blocks(self):
        text = """
# two rules
P true; Q true |- P /\\ Q true

P /\\ Q true |-
  P true
"""
        rules = parse_rule_file(text)
        assert len(rules) == 2
        assert rules[1].render() == "P /\\ Q true |- P true"
        # a line of spaces is a blank line too
        rules = parse_rule_file("P true |- P true\n   \nQ /\\ Q true |- Q true\n")
        assert [r.render() for r in rules] == ["P true |- P true", "Q /\\ Q true |- Q true"]

    @pytest.mark.parametrize("text, line, col, message", [
        ("P true |- P true\n\nP true;\n  R |- Q true\n", 4, 3,
         "a rule judgment must end in 'true'"),
        ("# first rule\nP true |- P true\n\n  # the second rule\n"
         "P true; # a premise\n  Q true |- (P true\n", 6, 20,
         "expected ')' at end of input"),
        ("P true; # fst P |- P true\n  Q true |-\n    premises: fst P true\n", 3, 13,
         "trailing input at ':'"),
        ("# comment\n\n  P true |-\n# comment\n    lam x. x true\n", 5, 5,
         "rule propositions are the propositional fragment: "
         "metavariables, True, False, /\\, \\/, =>"),
    ])
    def test_rule_file_error_position(self, text, line, col, message):
        # the line and column of the fault in the file, past blocks and
        # comments before it
        with pytest.raises(ParseError) as info:
            parse_rule_file(text)
        assert (info.value.line, info.value.col, info.value.message) == (line, col, message)

    def test_rule_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_rule("premises: P true;\n Q |- conclusion: P true")
        assert (info.value.line, info.value.col) == (2, 2)
        with pytest.raises(ParseError) as info:
            parse_rule("P true |- conclusion:\n  fst P true")
        assert (info.value.line, info.value.col) == (2, 3)

    def test_rule_file_tokenizes_each_character_once(self, monkeypatch):
        # tokenizing stays linear in the file's length, however far into
        # the file a block starts; the fault's position still counts
        # every line before it
        seen = []
        real = ctkernel.rules.tokenize
        monkeypatch.setattr(ctkernel.rules, "tokenize", lambda s: seen.append(len(s)) or real(s))
        text = "P true;\n  Q true |- P /\\ Q true\n\n" * 500
        assert len(parse_rule_file(text)) == 500
        assert sum(seen) <= len(text)
        with pytest.raises(ParseError) as info:
            parse_rule_file(text + "P true;\n  R |- Q true\n")
        assert (info.value.line, info.value.col) == (1502, 3)

    def test_rule_file_comment_ends_at_its_line(self):
        rules = parse_rule_file("P true; # first\nQ true |- P /\\ Q true\n")
        assert [r.render() for r in rules] == ["P true; Q true |- P /\\ Q true"]


class TestDerive:
    def test_conjunction_elimination_not_derivable(self):
        d = derive(parse_rule("P /\\ Q true |- P true"), 5)
        assert isinstance(d, NotDerivable)
        assert d.exhausted  # the whole search space was explored

    def test_conjunction_introduction_derivable(self):
        d = derive(parse_rule("P true; Q true |- P /\\ Q true"), 5)
        assert isinstance(d, Derivation)
        assert d.rule == "and-intro"
        assert {c.rule for c in d.children} == {"hypothesis"}

    def test_hypothesis(self):
        d = derive(parse_rule("P true |- P true"), 5)
        assert isinstance(d, Derivation)
        assert d.rule == "hypothesis"

    def test_truth_introduction(self):
        d = derive(parse_rule("|- True true"), 5)
        assert isinstance(d, Derivation)
        assert d.rule == "truth-intro"

    def test_implication_introduction_discharges(self):
        d = derive(parse_rule("|- P => P true"), 5)
        assert isinstance(d, Derivation)
        assert d.rule == "imp-intro"
        assert d.children[0].rule == "hypothesis"

    def test_disjunction_introduction(self):
        d = derive(parse_rule("P true |- Q \\/ P true"), 5)
        assert isinstance(d, Derivation)
        assert d.rule == "or-intro-right"

    def test_modus_ponens_not_derivable(self):
        d = derive(parse_rule("P true; P => Q true |- Q true"), 5)
        assert isinstance(d, NotDerivable) and d.exhausted

    def test_depth_cutoff_reported(self):
        # needs three intro steps; at depth 2 the cutoff bites
        d = derive(parse_rule("P true |- P /\\ (P /\\ (P /\\ P)) true"), 2)
        assert isinstance(d, NotDerivable)
        assert not d.exhausted
        assert isinstance(derive(parse_rule("P true |- P /\\ (P /\\ (P /\\ P)) true"), 5),
                          Derivation)


class TestCheckDerivation:
    def test_valid_derivations_check_linearly(self):
        for src in (
            "P true; Q true |- P /\\ Q true",
            "|- P => P true",
            "P true |- (Q \\/ P) /\\ True true",
        ):
            d = derive(parse_rule(src), 6)
            assert isinstance(d, Derivation)
            ok, visited = check_derivation(d)
            assert ok
            assert visited == derivation_size(d)

    def test_malformed_rejected_without_raising(self):
        d = derive(parse_rule("P true; Q true |- P /\\ Q true"), 5)
        bad = Derivation(d.conclusion, "and-intro", (d.children[0],))
        ok, _ = check_derivation(bad)
        assert not ok
        worse = Derivation(d.conclusion, "imaginary-rule", ())
        assert check_derivation(worse) == (False, 1)
        for broken in (Derivation(Sequent((), Disj(TRUE, TRUE)), "or-intro-left", (None,)),
                       Derivation(None, "truth-intro")):
            assert check_derivation(broken) == (False, 1)

    def test_shadowed_hypothesis_rejected(self):
        # the body rebinds h0, so the leaf's h0, meant for the outer
        # hypothesis P, names the new hypothesis Q under lam h0: with it
        # for the outer h0, lam h0. h0 is no member of the instance
        # (True /\ True) => True
        d = Derivation(Sequent((("h0", P),), imp(Q, P)), "imp-intro",
                       (Derivation(Sequent((("h0", P), ("h0", Q)), P), "hypothesis"),))
        assert oracle.check_derivation(d) == (True, 2)
        wrong = oracle.extract_realizer(d)
        assert pretty(wrong) == "lam h0. h0"
        instance = substitute(wrong, "h0", IT)
        assert check_member(instance, imp(conj(TRUE, TRUE), TRUE)).status is Status.REFUTED
        assert check_derivation(d) == (False, 1)
        with pytest.raises(ValueError):
            extract_realizer(d)
        derived = derive(parse_rule("P true |- Q => P true"), 5)
        assert pretty(extract_realizer(derived)) == "lam h1. h0"

    def test_imp_intro_requires_its_premise_exactly(self):
        # the new hypothesis is h{n}, and no alpha-variant stands in for
        # the premise: the only trees the reference checker accepts and
        # this one rejects
        goal = Forall(P, "x", Q)
        for name, hypothesis in (("x", goal), ("h0", Forall(P, "y", Q))):
            d = Derivation(Sequent((), imp(goal, goal)), "imp-intro", (
                Derivation(Sequent(((name, hypothesis),), goal), "hypothesis"),))
            assert oracle.check_derivation(d) == (True, 2)
            assert check_derivation(d) == (False, 1)
        d = Derivation(Sequent((), imp(goal, goal)), "imp-intro", (
            Derivation(Sequent((("h0", goal),), goal), "hypothesis"),))
        assert check_derivation(d) == oracle.check_derivation(d) == (True, 2)

    @stack_safe
    def test_deep_chain(self):
        # a valid or-intro-left chain 10^4 deep; then one bad leaf
        n = 10_000
        d, goal = Derivation(Sequent((), TRUE), "truth-intro"), TRUE
        for _ in range(n):
            goal = Disj(goal, FALSE)
            d = Derivation(Sequent((), goal), "or-intro-left", (d,))
        assert check_derivation(d) == (True, n + 1)
        realizer = IT
        for _ in range(n):
            realizer = Inl(realizer)
        assert extract_realizer(d) == realizer
        bad = Derivation(Sequent((), FALSE), "truth-intro")
        for _ in range(n):
            bad = Derivation(Sequent((), Disj(bad.conclusion.goal, FALSE)), "or-intro-left",
                             (bad,))
        assert check_derivation(bad) == (False, n + 1)
        with pytest.raises(ValueError):
            extract_realizer(bad)


class TestRealizers:
    def test_extraction_shapes(self):
        d = derive(parse_rule("P true; Q true |- P /\\ Q true"), 5)
        assert pretty(extract_realizer(d)) == "<h0, h1>"
        d = derive(parse_rule("|- P => P true"), 5)
        assert pretty(extract_realizer(d)) == "lam h0. h0"

    def test_bad_trees_raise_value_error(self):
        # a hypothesis leaf that matches no hypothesis, and an and-intro
        # with one child: the reference raised StopIteration and IndexError
        stray = Derivation(Sequent((("h0", P),), Q), "hypothesis")
        half = Derivation(Sequent((("h0", P),), conj(P, P)), "and-intro",
                          (Derivation(Sequent((("h0", P),), P), "hypothesis"),))
        for d, reference_error in ((stray, StopIteration), (half, IndexError)):
            assert not check_derivation(d)[0]
            with pytest.raises(ValueError):
                extract_realizer(d)
            with pytest.raises(reference_error):
                oracle.extract_realizer(d)

    def test_derivations_realize_witnesses(self):
        schemes = [
            "P true; Q true |- P /\\ Q true",
            "P true |- Q \\/ P true",
            "|- P => P true",
            "P true |- True /\\ P true",
        ]
        for src in schemes:
            rule = parse_rule(src)
            d = derive(rule, 6)
            assert isinstance(d, Derivation)
            skeleton = extract_realizer(d)
            for values in itertools.product(ground_types(1), repeat=len(rule.metavariables)):
                assignment = dict(zip(rule.metavariables, values))
                witness_lists = [
                    enumerate_canonical(instantiate(p.a, assignment), 3).witnesses
                    for p in rule.premises
                ]
                if not all(witness_lists):
                    continue  # some premise unverifiable: nothing to realize
                for combo in itertools.product(*witness_lists):
                    term = skeleton
                    for i, w in enumerate(combo):
                        term = substitute(term, f"h{i}", w)
                    conclusion = instantiate(rule.conclusion.a, assignment)
                    assert check_member(term, conclusion).status is Status.VERIFIED


RULE_NAMES = ("hypothesis", "truth-intro", "and-intro", "or-intro-left", "or-intro-right",
              "imp-intro", "cut")


def _nodes(d, path=()):
    """Each node of ``d`` with its path of child indices, depth-first."""
    yield path, d
    for i, child in enumerate(d.children):
        yield from _nodes(child, path + (i,))


def _replace(d, path, node):
    """``d`` with the node at ``path`` replaced by ``node``."""
    if not path:
        return node
    children = list(d.children)
    children[path[0]] = _replace(children[path[0]], path[1:], node)
    return Derivation(d.conclusion, d.rule, tuple(children))


def _rename_hypothesis(d, old, new):
    """``d`` with the hypothesis ``old`` renamed ``new`` in every sequent."""
    hyps = tuple((new if n == old else n, p) for n, p in d.conclusion.hypotheses)
    return Derivation(Sequent(hyps, d.conclusion.goal), d.rule,
                      tuple(_rename_hypothesis(c, old, new) for c in d.children))


def _mutants(d):
    """Single edits of ``d``: a rule renamed, a child dropped, duplicated
    or swapped with the next, or a child's goal replaced by its parent's
    or by True."""
    for path, node in _nodes(d):
        for name in RULE_NAMES:
            if name != node.rule:
                yield _replace(d, path, Derivation(node.conclusion, name, node.children))
        kids = node.children
        for i, child in enumerate(kids):
            for edited in (kids[:i] + kids[i + 1:], kids[:i + 1] + kids[i:],
                           kids[:i] + kids[i + 1:i + 2] + kids[i:i + 1] + kids[i + 2:]):
                if edited != kids:
                    yield _replace(d, path, Derivation(node.conclusion, node.rule, edited))
            for goal in (node.conclusion.goal, TRUE):
                if goal != child.conclusion.goal:
                    moved = Derivation(Sequent(child.conclusion.hypotheses, goal), child.rule,
                                       child.children)
                    yield _replace(d, path + (i,), moved)


class TestAgainstOracle:
    """The search, checker and extractor read one table of introduction
    rules; ``tests/derivation_oracle.py`` writes each rule out in each."""

    SCHEMES = random_rule_schemes(seed=11, count=3000) + outside_fragment_schemes()

    def _trees(self):
        trees = {}
        for depth in range(1, 7):
            for rule in self.SCHEMES:
                d = derive(rule, depth)
                assert d == oracle.derive(rule, depth), (rule.render(), depth)
                if isinstance(d, Derivation):
                    trees.setdefault(repr(d), d)
        return list(trees.values())

    def test_derive_and_realizers(self):
        trees = self._trees()
        assert len(trees) > 500
        for d in trees:
            assert extract_realizer(d) == oracle.extract_realizer(d), d.render()
            assert check_derivation(d) == oracle.check_derivation(d) == (True,
                                                                         derivation_size(d))

    def test_mutants(self):
        seen, rejected = set(), 0
        for d in self._trees():
            for m in _mutants(d):
                key = repr(m)
                if key in seen:
                    continue
                seen.add(key)
                verdict = check_derivation(m)
                assert verdict == oracle.check_derivation(m), m.render()
                if verdict[0]:
                    assert extract_realizer(m) == oracle.extract_realizer(m), m.render()
                else:
                    rejected += 1
                    with pytest.raises(ValueError):
                        extract_realizer(m)
        assert rejected > 0.9 * len(seen) > 10_000

    def test_renamed_new_hypothesis(self):
        # the imp-intro tightening: with its new hypothesis renamed through
        # the body, a tree passes the reference checker and fails here, at
        # the imp-intro node
        count = 0
        for d in self._trees():
            for index, (path, node) in enumerate(_nodes(d)):
                if node.rule != "imp-intro":
                    continue
                body = node.children[0]
                old = body.conclusion.hypotheses[-1][0]
                m = _replace(d, path, Derivation(node.conclusion, node.rule,
                                                 (_rename_hypothesis(body, old, "x"),)))
                assert oracle.check_derivation(m) == (True, derivation_size(m))
                assert check_derivation(m) == (False, index + 1)
                count += 1
        assert count > 100


class TestAdmissible:
    def test_conjunction_elimination(self):
        v = admissible(parse_rule("P /\\ Q true |- P true"), 2, 3)
        assert v.status is Status.VERIFIED
        assert v.bounds["instance_depth"] == 2
        assert v.bounds["witness_depth"] == 3

    def test_vacuous_premise(self):
        v = admissible(parse_rule("False true |- Q true"), 2, 3)
        assert v.status is Status.VERIFIED

    def test_disjunction_elimination_refuted(self):
        v = admissible(parse_rule("P \\/ Q true |- P true"), 1, 3)
        assert v.status is Status.REFUTED
        assert {k: pretty(t) for k, t in v.instantiation.items()} == {
            "P": "False", "Q": "True",
        }
        assert [pretty(w) for w in v.premise_witnesses] == ["inr it"]

    def test_modus_ponens_admissible(self):
        v = admissible(parse_rule("P true; P => Q true |- Q true"), 2, 3)
        assert v.status is Status.VERIFIED

    def test_exact_bounds(self):
        v = admissible(parse_rule("P /\\ Q true |- P true"), 2, 3)
        assert v.bounds == {"instance_depth": 2, "witness_depth": 3,
                            "instantiations": 4, "exact": True}

    def test_peirce_premise_verified(self):
        # the bounded walk cannot see every witness of (R => P) => R
        v = admissible(parse_rule("(R => P) => R true |- R true"))
        assert v.status is Status.VERIFIED

    def test_derivable_conditional_verified(self):
        rule = parse_rule("R true |- True /\\ R => R true")
        assert isinstance(derive(rule, 5), Derivation)
        assert admissible(rule).status is Status.VERIFIED

    def test_witness_beyond_bound_refuted(self):
        # <it, it> has depth 2: built from the inhabitation structure
        v = admissible(parse_rule("P /\\ P true |- False true"), witness_depth=1)
        assert v.status is Status.REFUTED
        assert {k: pretty(t) for k, t in v.instantiation.items()} == {"P": "True"}
        assert [pretty(w) for w in v.premise_witnesses] == ["<it, it>"]

    def test_fallback_witnesses_are_members(self):
        rule = parse_rule(
            "P /\\ P true; False \\/ (P => Q) true; P => False \\/ Q true; "
            "False => False true |- False true"
        )
        v = admissible(rule, witness_depth=1)
        assert v.status is Status.REFUTED
        assert [pretty(w) for w in v.premise_witnesses] == [
            "<it, it>", "inr (lam _. it)", "lam _. inr it", "lam x. x",
        ]
        _assert_witnesses_are_members(rule, v)


class TestOutsideGroundFragment:
    """Schemes built without parse_rule may hold non-ground propositions."""

    def test_not_ground_is_unknown(self):
        for prop in (parse("lam x. x"), parse("forall x : True . x"), Var("Z")):
            v = admissible(RuleScheme(("P",), (IsTrue(Var("P")),), IsTrue(prop)))
            assert v.status is Status.UNKNOWN
            assert v.bounds["exact"] is False

    def test_non_ground_premise_is_unknown(self):
        rule = RuleScheme(("P",), (IsTrue(parse("lam x. x")),), IsTrue(FALSE))
        assert admissible(rule).status is Status.UNKNOWN

    def test_refutation_beats_undecided(self):
        # P := True is undecided, P := False refutes
        rule = RuleScheme(("P",), (IsTrue(TRUE),), IsTrue(parse("P /\\ lam x. x")))
        v = admissible(rule)
        assert v.status is Status.REFUTED
        assert v.instantiation == {"P": FALSE}

    def test_vacuous_premise_decides_despite_non_ground(self):
        rule = RuleScheme((), (IsTrue(parse("lam x. x")), IsTrue(FALSE)), IsTrue(FALSE))
        assert admissible(rule).status is Status.VERIFIED

    def test_divergence_is_diverged(self):
        omega = parse("(lam x. x x) (lam x. x x)")
        for rule in (
            RuleScheme(("P",), (IsTrue(Var("P")),), IsTrue(omega)),
            RuleScheme(("P",), (IsTrue(omega),), IsTrue(FALSE)),
        ):
            v = admissible(rule, fuel=50)
            assert v.status is Status.DIVERGED
            assert v.fuel_report


class TestValuationsReadOff:
    """``admissible`` reads each valuation off the metavariables; it must
    give the verdict of the check that builds every instance."""

    SCHEMES = random_rule_schemes(seed=14, count=60) + outside_fragment_schemes()

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("fuel", [1, 2, 3, 5, 13, 10_000])
    def test_same_verdict_as_instances(self, fuel, strategy):
        statuses = set()
        for rule in self.SCHEMES:
            new = admissible(rule, 2, 2, fuel, strategy)
            old = instance_admissible(rule, 2, 2, fuel, strategy)
            for name in ("status", "trace", "bounds", "instantiation", "premise_witnesses",
                         "fuel_report"):
                assert getattr(new, name) == getattr(old, name), (name, rule.render())
            statuses.add(new.status)
        assert statuses == set(Status)

    @pytest.fixture
    def instantiations(self, monkeypatch):
        calls = []
        real = ctkernel.rules.instantiate

        def counted(t, assignment):
            calls.append(t)
            return real(t, assignment)

        monkeypatch.setattr(ctkernel.rules, "instantiate", counted)
        return calls

    def test_verified_builds_no_instance(self, instantiations):
        v = admissible(parse_rule("P true; P => Q true; Q => R true |- R /\\ P true"))
        assert v.status is Status.VERIFIED and v.bounds["instantiations"] == 8
        assert instantiations == []

    def test_refutation_builds_its_instances(self, instantiations):
        rule = parse_rule("P \\/ Q true; Q => R true |- R true")
        v = admissible(rule)
        assert v.status is Status.REFUTED
        assert len(instantiations) == len(rule.premises) + 1


class TestCompareReadings:
    def test_and_elim_flagged(self):
        rep = compare_readings(parse_rule("P /\\ Q true |- P true"),
                               search_depth=5, instance_depth=2, witness_depth=3)
        assert not rep.derivable
        assert rep.admissibility.status is Status.VERIFIED
        assert rep.flagged

    def test_and_intro_not_flagged(self):
        rep = compare_readings(parse_rule("P true; Q true |- P /\\ Q true"),
                               search_depth=5, instance_depth=2, witness_depth=3)
        assert rep.derivable
        assert rep.admissibility.status is Status.VERIFIED
        assert not rep.flagged

    def test_or_elim_refuted_not_flagged(self):
        rep = compare_readings(parse_rule("P \\/ Q true |- P true"),
                               search_depth=5, instance_depth=2, witness_depth=3)
        assert not rep.derivable
        assert rep.admissibility.status is Status.REFUTED
        assert not rep.flagged

    def test_render_mentions_quadrant(self):
        rep = compare_readings(parse_rule("P /\\ Q true |- P true"))
        assert "FLAGGED" in rep.render()


# -- derivability implies admissibility, over random schemes ---------------

_metavar = st.sampled_from(("P", "Q"))
_props = st.recursive(
    st.one_of(st.builds(Var, _metavar), st.just(TRUE), st.just(FALSE)),
    lambda ps: st.one_of(
        st.builds(lambda a, b: parse(f"({pretty(a)}) /\\ ({pretty(b)})"), ps, ps),
        st.builds(lambda a, b: parse(f"({pretty(a)}) \\/ ({pretty(b)})"), ps, ps),
        st.builds(lambda a, b: parse(f"({pretty(a)}) => ({pretty(b)})"), ps, ps),
    ),
    max_leaves=4,
)


@st.composite
def rule_schemes(draw):
    premises = draw(st.lists(_props, max_size=2))
    conclusion = draw(_props)
    text = "; ".join(f"{pretty(p)} true" for p in premises)
    rendered = f"{text} |- {pretty(conclusion)} true" if text else f"{pretty(conclusion)} true"
    return parse_rule(rendered)


@given(rule_schemes())
@settings(max_examples=80, deadline=None)
def test_derivable_implies_admissible(rule):
    # admissibility is exact, so soundness is VERIFIED, not just "not refuted"
    d = derive(rule, 6)
    if isinstance(d, Derivation):
        v = admissible(rule, 1, 3)
        assert v.status is Status.VERIFIED, rule.render()


def _assert_witnesses_are_members(rule, v):
    assert len(v.premise_witnesses) == len(rule.premises)
    for premise, w in zip(rule.premises, v.premise_witnesses):
        prop = instantiate(premise.a, v.instantiation)
        assert check_member(w, prop).status is Status.VERIFIED, (pretty(w), pretty(prop))


@given(rule_schemes(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_premise_witnesses_are_members(rule, witness_depth):
    v = admissible(rule, 1, witness_depth)
    assert v.definitive, rule.render()
    if v.refuted:
        _assert_witnesses_are_members(rule, v)


@given(rule_schemes(), st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_agrees_with_bounded_walk(rule, instance_depth):
    walk = bounded_admissible(rule, instance_depth, 3)
    exact = admissible(rule, instance_depth, 3)
    assert exact.definitive, rule.render()
    if walk.definitive:
        assert exact.status is walk.status, rule.render()
        assert exact.instantiation == walk.instantiation, rule.render()
        assert exact.premise_witnesses == walk.premise_witnesses, rule.render()
