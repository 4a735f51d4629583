import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given

from pltlf import (
    And,
    Comparison,
    Next,
    Not,
    ParseError,
    Prob,
    Prop,
    Until,
    conj,
    eval_trace,
    format_trace,
    formula_text,
    negate,
    parse_formula,
    parse_trace,
    vars_of,
)
from pltlf import ClosureSet, Pltlf0Formula, ProbConstraint, build_lphi, is_satisfiable
from pltlf import (
    TraceNFA,
    language_probability,
    monitor_with_property,
    parse_pltlf0,
    prefix_extension_query,
    trace_probability,
)
from pltlf.syntax import (
    MAX_DEPTH,
    MAX_NESTING,
    Always,
    Eventually,
    Formula,
    Implies,
    Or,
    all_valuations,
    check_depth,
    children,
    has_prob,
    normalize,
    parse_constraint,
    parse_number,
    size_and_text,
    subformulas,
)

import strategies as sts
import syntax_reference as ref


def t(text):
    return parse_trace(text)


class TestParsing:
    def test_precedence(self):
        f = parse_formula("!a & b | c -> X d U e")
        assert formula_text(f) == "!a & b | c -> X d U e"
        assert formula_text(parse_formula("(a -> b) U (c | d)")) == "(a -> b) U (c | d)"

    def test_until_right_associative(self):
        assert parse_formula("a U b U c") == parse_formula("a U (b U c)")

    def test_implies_right_associative(self):
        assert parse_formula("a -> b -> c") == parse_formula("a -> (b -> c)")

    def test_probability_brackets(self):
        f = parse_formula("P<=0.5[a]")
        assert f == Prob(Comparison.LE, Fraction(1, 2), Prop("a"))
        assert formula_text(f) == "P<=1/2[a]"

    def test_decimal_bounds_are_exact(self):
        f = parse_formula("P>=0.6[X b]")
        assert f.bound == Fraction(3, 5)

    def test_rational_bounds(self):
        assert parse_formula("P>7/10[a]").bound == Fraction(7, 10)

    def test_bound_range_checked(self):
        with pytest.raises(ParseError):
            parse_formula("P<=1.5[a]")

    def test_bound_rejects_equality(self):
        # "=" compares linear rows only: its negation is no single bound
        with pytest.raises(ValueError):
            Prob(Comparison.EQ, Fraction(1, 2), parse_formula("a"))

    def test_error_position(self):
        with pytest.raises(ParseError, match=r"1:8"):
            parse_formula("P<=0.5 a")

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_formula("(a & b")

    @pytest.mark.parametrize("text, line, col", [("a & $", 1, 5), ("a\n& $", 2, 3)])
    def test_unexpected_character_is_placed_by_line_and_column(self, text, line, col):
        with pytest.raises(ParseError) as caught:
            parse_formula(text)
        assert str(caught.value) == f"{line}:{col}: unexpected character '$'"
        assert (caught.value.line, caught.value.col) == (line, col)

    def test_zero_denominator_bound(self):
        with pytest.raises(ParseError) as caught:
            parse_formula("P>=1/0[a]")
        assert str(caught.value) == "1:4: zero denominator in 1/0"

    @pytest.mark.parametrize("number", ["\u0660.\u0665", "0.\u0665", "\uff11/2"])
    def test_bounds_are_written_in_ascii_digits(self, number):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_formula(f"P>={number}[a]")
        with pytest.raises(ValueError, match="^line 1: 1:[45]: unexpected character"):
            parse_pltlf0(f"P>={number} : a\n")

    @pytest.mark.parametrize("number", ["\u0660.\u0665", "1/\u0662", "\uff11"])
    def test_numbers_are_written_in_ascii(self, number):
        with pytest.raises(ValueError, match=f"^non-ASCII character in number {number!r}$"):
            parse_number(number)

    @pytest.mark.parametrize(
        "number, value",
        [("0.8", Fraction(4, 5)), (".5", Fraction(1, 2)), ("4/5", Fraction(4, 5)), ("007", 7)],
    )
    def test_numbers_read_the_three_literal_forms(self, number, value):
        assert parse_number(number) == value

    # text outside the three forms, most of which ``Fraction`` reads:
    # exponents, underscores, signs, blanks, a bare point, and words
    @pytest.mark.parametrize(
        "number",
        ["1e-1", "1E2", "0_8", "1_0/2", " 0.8", "0.8 ", "1 /2", "\t1", "5.", "+1", "-0.5",
         "1.5/2", "1/2/3", ".", "/2", "1/", "", "inf", "nan", "0x1"],
    )
    def test_numbers_in_any_other_form_are_rejected(self, number):
        with pytest.raises(ValueError, match=f"^malformed number {re.escape(repr(number))}$"):
            parse_number(number)

    @given(sts.formulas())
    def test_text_round_trip(self, f):
        assert parse_formula(formula_text(f)) == f


class TestConstraintLines:
    def test_bound_and_formula(self):
        cmp, bound, f = parse_constraint("P <= 1/2 : F a")
        assert (cmp, bound, f) == (Comparison.LE, Fraction(1, 2), parse_formula("F a"))

    def test_bound_rules_are_the_formula_parser_s(self):
        with pytest.raises(ParseError, match="^1:4: probability bound 1.5 outside"):
            parse_constraint("P<=1.5 : a")
        with pytest.raises(ParseError, match="^1:2: unexpected character '='"):
            parse_constraint("P=1/2 : a")

    def test_a_colon_in_the_formula_fails_at_its_token(self):
        with pytest.raises(ParseError, match="^1:12: trailing input, found ':'"):
            parse_constraint("P<=0.5 : a : b")
        with pytest.raises(ParseError, match="^1:3: trailing input, found ':'"):
            parse_formula("a : b")


def outcome(parse, text):
    """The tree ``parse`` makes of ``text``, or the text of its ParseError."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


class TestParserReference:
    """The table-driven parser and printer against one method and one
    printer case per binary connective."""

    TOKENS = "a b ! X F G U & | -> ( ) P<=0.5[ ] true false P < 0.5 [".split()

    @staticmethod
    def check_same(text):
        got = outcome(parse_formula, text)
        expected = outcome(ref.parse_formula, text)
        assert type(got) is type(expected) and got == expected
        if isinstance(got, str):
            return False
        assert formula_text(got) == ref.formula_text(got)
        return True

    @given(sts.formulas())
    def test_printed_formulas(self, f):
        for g in (f, normalize(f)):
            assert formula_text(g) == ref.formula_text(g)
            assert self.check_same(formula_text(g))

    def test_random_token_strings(self):
        rng = random.Random(15)
        parsed = 0
        for _ in range(100_000):
            parsed += self.check_same(" ".join(rng.choices(self.TOKENS, k=rng.randint(1, 9))))
        assert parsed > 2_000


def stack_depth() -> int:
    """Frames on the stack of the caller, the outermost counted as 1."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def parse_from_depth(frames, text):
    """parse_formula called from a frame ``frames`` deep."""
    if stack_depth() < frames:
        return parse_from_depth(frames, text)
    return parse_formula(text)


# the shapes that nest deepest per parser frame, at n nesting levels
DEEP_SHAPES = {
    "brackets": lambda n: "(" * n + "a" + ")" * n,
    "alternating": lambda n: "a & (b | " * n + "c" + ")" * n,
    "next": lambda n: "X " * n + "a",
    "until": lambda n: "a U " * n + "a",
    "implies": lambda n: "a -> " * n + "a",
    "bounds": lambda n: "P<=0.5[" * n + "a" + "]" * n,
}


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_nesting_limit_leaves_callers_headroom(shape):
    text = DEEP_SHAPES[shape](MAX_NESTING)
    assert parse_from_depth(150, text) == ref.parse_formula(text)
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_formula(DEEP_SHAPES[shape](MAX_NESTING + 1))


class TestTraces:
    def test_parse(self):
        assert t("-;a;a,b") == (frozenset(), frozenset({"a"}), frozenset({"a", "b"}))

    def test_round_trip(self):
        for text in ("-", "a", "a,b;-;b"):
            assert format_trace(t(text)) == text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_trace("")

    @given(sts.traces())
    def test_format_parse_inverse(self, trace):
        assert parse_trace(format_trace(trace)) == trace


class TestEval:
    def test_response(self):
        assert eval_trace(parse_formula("G(a -> F b)"), t("a;b"))

    def test_strong_next_at_end(self):
        assert not eval_trace(parse_formula("X a"), t("a"))

    def test_until_unfolds(self):
        assert eval_trace(parse_formula("a U b"), t("a;a;a,b"))

    def test_until_needs_goal(self):
        assert not eval_trace(parse_formula("a U b"), t("a;a;a"))

    def test_prob_rejected(self):
        with pytest.raises(ValueError):
            eval_trace(parse_formula("P<=0.5[a]"), t("a"))


class TestNormalize:
    def test_removes_sugar(self):
        f = normalize(parse_formula("F a | G b -> c"))
        assert ref.is_normalized(f)

    @given(sts.formulas())
    def test_idempotent(self, f):
        g = normalize(f)
        assert normalize(g) == g
        assert ref.is_normalized(g)

    @pytest.mark.parametrize("text", ["X !b", "a U b", "P<=0.7[a U b]", "a & X b & !c", "!(a & b)"])
    def test_a_normal_form_is_returned_itself(self, text):
        # no node of a normal form is rebuilt, so none hashes itself again
        g = parse_formula(text)
        assert ref.is_normalized(g)
        assert normalize(g) is g

    @given(sts.formulas())
    def test_normalising_twice_returns_the_first_result(self, f):
        g = normalize(f)
        assert normalize(g) is g

    @given(sts.formulas(prob_free=True, max_leaves=3))
    def test_preserves_truth(self, f):
        # exhaustive over traces up to length 3 here; length 5 runs in the
        # acceptance property bundle
        g = normalize(f)
        vals = all_valuations(("a", "b"))
        stack = [(v,) for v in vals]
        while stack:
            trace = stack.pop()
            assert eval_trace(f, trace) == eval_trace(g, trace)
            if len(trace) < 3:
                stack.extend(trace + (v,) for v in vals)


    def test_deep_formula_built_in_code_is_rejected(self):
        f = Prop("a")
        for _ in range(495):
            f = Next(f)
        too_deep = f"formula tree deeper than {MAX_DEPTH} levels"
        with pytest.raises(ValueError, match=too_deep):
            normalize(f)
        with pytest.raises(ValueError, match=too_deep):
            ClosureSet(f)
        with pytest.raises(ValueError, match=too_deep):
            is_satisfiable(f)
        phi = Pltlf0Formula((ProbConstraint(Comparison.LE, Fraction(1, 2), f),))
        with pytest.raises(ValueError, match=too_deep):
            build_lphi(phi)

    def test_deepest_accepted_tree_has_a_closure(self):
        f = Prop("a")
        for _ in range(MAX_DEPTH - 1):
            f = Next(f)
        assert len(ClosureSet(f)) == 2 * MAX_DEPTH
        with pytest.raises(ValueError):
            normalize(Next(f))

    def test_normal_form_depth_is_checked(self):
        # each implication normalises to a negated conjunction, two levels
        f = Prop("a")
        for _ in range(MAX_DEPTH // 2 + 1):
            f = Implies(f, Prop("b"))
        check_depth(f)  # the formula itself is shallow enough
        with pytest.raises(ValueError, match="deeper than"):
            normalize(f)

    @staticmethod
    def or_chain(levels):
        f = Prop("a")
        for _ in range(levels):
            f = Or((Prop("b"), f))
        return f

    def test_deepest_accepted_disjunction_chain_renders(self):
        f = self.or_chain(MAX_DEPTH - 1)
        normalize(f)  # within the depth limit
        text = "b | (" * (MAX_DEPTH - 2) + "b | a" + ")" * (MAX_DEPTH - 2)
        assert formula_text(f) == text
        phi = Pltlf0Formula((ProbConstraint(Comparison.LE, Fraction(1, 2), f),))
        assert build_lphi(phi).scenarios[1].describe() == text

    def test_disjunction_chain_text_round_trips_within_the_nesting_limit(self):
        f = self.or_chain(MAX_NESTING)
        assert parse_formula(formula_text(f)) == f
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_formula(formula_text(self.or_chain(MAX_DEPTH - 1)))


class TestStructure:
    def test_conj_flattens(self):
        f = conj(Prop("a"), And((Prop("b"), Prop("c"))))
        assert f == And((Prop("a"), Prop("b"), Prop("c")))

    def test_negate_prob_flips_comparison(self):
        f = Prob(Comparison.LE, Fraction(1, 2), Prop("a"))
        assert negate(f) == Prob(Comparison.GT, Fraction(1, 2), Prop("a"))

    @given(sts.formulas())
    def test_negate_involution(self, f):
        assert negate(negate(f)) == f

    def test_vars(self):
        assert vars_of(parse_formula("P<=0.5[a U b] & X a")) == frozenset({"a", "b"})

    def test_has_prob(self):
        assert has_prob(parse_formula("X P<=0.5[a]"))
        assert not has_prob(parse_formula("a U b"))

    def test_size(self):
        assert size_and_text([Until(Prop("a"), Not(Prop("b")))]) == [(4, "a U !b")]

    def test_next_text(self):
        assert formula_text(Next(Until(Prop("a"), Prop("b")))) == "X(a U b)"


class TestWalks:
    """The iterative walks against the recursive ones they replace."""

    @staticmethod
    def check_same(f):
        assert vars_of(f) == ref.vars_of(f)
        assert has_prob(f) == ref.has_prob(f)
        assert set(ClosureSet(f).members) == ref.closure_members(f)

    @given(sts.formulas())
    def test_with_bounds(self, f):
        self.check_same(f)
        self.check_same(normalize(f))

    @given(sts.formulas(prob_free=True))
    def test_without_bounds(self, f):
        self.check_same(f)
        self.check_same(normalize(f))

    @given(sts.formulas())
    def test_subformulas_in_pre_order(self, f):
        nodes, expected = list(subformulas(f)), ref.subformulas(f)
        assert len(nodes) == len(expected)
        assert all(g is h for g, h in zip(nodes, expected))

    def test_is_normalized_rejects_non_core_nodes(self):
        a, b = Prop("a"), Prop("b")
        for f in (Or((a, b)), Implies(a, b), Eventually(a), Always(a), Not(Or((a, b)))):
            assert not ref.is_normalized(f)
        for junk in (5, "a", None, Not(5), And((a, "b"))):
            assert not ref.is_normalized(junk)

    def test_non_formula_operand_raises_the_same_type_error(self):
        for f in (Not(5), And((Prop("a"), "b")), Until(Prop("a"), None)):
            for new, old in (
                (vars_of, ref.vars_of),
                (has_prob, ref.has_prob),
            ):
                with pytest.raises(TypeError) as expected:
                    old(f)
                with pytest.raises(TypeError) as got:
                    new(f)
                assert str(got.value) == str(expected.value)
        with pytest.raises(TypeError, match="^not a formula: 5$"):
            children(5)
        with pytest.raises(TypeError, match="^not a formula: 5$"):
            normalize(Not(5))

    def test_unknown_node_type_is_named(self):
        assert repr(Formula()) == "<Formula>"
        assert repr(Not(Formula())) == "<Not>"
        for call in (lambda: normalize(Formula()), lambda: vars_of(Not(Formula()))):
            with pytest.raises(TypeError, match="^not a formula: <Formula>$"):
                call()


def chain(node, levels, leaf=Prop("a")):
    f = leaf
    for _ in range(levels):
        f = node(f)
    return f


# chains built in code: (node, propositions, truth of the chain of depth
# MAX_DEPTH on a two-step trace where a and b always hold)
CHAINS = {
    "next": (Next, {"a"}, False),
    "not": (Not, {"a"}, False),
    "always": (Always, {"a"}, True),
    "until": (lambda f: Until(Prop("b"), f), {"a", "b"}, True),
    "and": (lambda f: And((Prop("b"), f)), {"a", "b"}, True),
}


@pytest.mark.parametrize("name", CHAINS)
class TestDeepChains:
    LEVELS = 3000
    TOO_DEEP = f"^formula tree deeper than {MAX_DEPTH} levels$"

    def test_walks_answer(self, name):
        node, names, _ = CHAINS[name]
        f = chain(node, self.LEVELS)
        leaves = 1 if names == {"a"} else self.LEVELS + 1
        assert sum(1 for _ in subformulas(f)) == self.LEVELS + leaves
        assert vars_of(f) == frozenset(names)
        assert not has_prob(f)
        assert has_prob(chain(node, self.LEVELS, Prob(Comparison.LE, Fraction(1, 2), Prop("a"))))

    def test_texts_answer(self, name):
        node, names, _ = CHAINS[name]
        f = chain(node, self.LEVELS)
        leaves = 1 if names == {"a"} else self.LEVELS + 1
        assert size_and_text([f]) == [(self.LEVELS + leaves, ref.formula_text(f))]

    def test_queries_reject_with_value_error(self, name):
        f = chain(CHAINS[name][0], self.LEVELS)
        trace = t("a")
        flat = parse_pltlf0("P>=0.5 : a\n")
        queries = (
            lambda: trace_probability(f, trace),
            lambda: prefix_extension_query(f, trace),
            lambda: language_probability(f, TraceNFA.from_trace(trace)),
            lambda: monitor_with_property(flat, f, trace),
            lambda: build_lphi(Pltlf0Formula((ProbConstraint(Comparison.LE, Fraction(1, 2), f),))),
        )
        for query in queries:
            with pytest.raises(ValueError, match=self.TOO_DEEP):
                query()

    def test_hashes_and_sets_answer(self, name):
        # each node stores its hash when built, so no hash walks the chain
        node = CHAINS[name][0]
        f, g = chain(node, self.LEVELS), chain(node, self.LEVELS)
        other = chain(node, self.LEVELS, Prop("c"))
        assert f is not g
        assert hash(f) == hash(g)
        assert {f} == {g} and {f: 1}[g] == 1
        assert len({f, g, other}) == 2

    def test_eval_trace_rejects_with_value_error(self, name):
        f = chain(CHAINS[name][0], self.LEVELS)
        with pytest.raises(ValueError, match=self.TOO_DEEP):
            eval_trace(f, t("a;b"))

    def test_eval_trace_answers_at_the_depth_limit(self, name):
        node, _, truth = CHAINS[name]
        f = chain(node, MAX_DEPTH - 1)
        check_depth(f)
        assert eval_trace(f, t("a,b;a,b")) == truth


def test_unpickled_formula_hashes_as_one_built_here():
    # a string's hash differs between processes, so a node pickled under
    # one hash seed hashes as a freshly built equal node under another
    root = pathlib.Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    text = "P<=0.5[a U X b] & !c"
    start = f"import pickle, sys; from pltlf import parse_formula; f = parse_formula({text!r})"
    save = f"{start}; sys.stdout.buffer.write(pickle.dumps(f))"
    load = f"{start}; g = pickle.load(sys.stdin.buffer); print(hash(g) == hash(f), g in {{f}}, g == f)"
    env = {**os.environ, "PYTHONPATH": path}
    saved = subprocess.run(
        [sys.executable, "-c", save], capture_output=True, env={**env, "PYTHONHASHSEED": "1"}
    )
    assert saved.returncode == 0, saved.stderr
    loaded = subprocess.run(
        [sys.executable, "-c", load], input=saved.stdout, capture_output=True,
        env={**env, "PYTHONHASHSEED": "2"},
    )
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout.split() == [b"True", b"True", b"True"]


class TestDeepEquality:
    """Equality walks an explicit stack, so separately built deep trees
    compare from deep in the call stack; a node's hash is stored when it
    is built, from its node type and its fields' hashes."""

    LEVELS = 250

    @staticmethod
    def from_depth(frames, call):
        return call() if frames == 0 else TestDeepEquality.from_depth(frames - 1, call)

    def test_deep_chains_compare_from_deep_frames(self):
        leaf = Prop("a")
        a = chain(lambda f: And((Prop("b"), f)), self.LEVELS, leaf)
        b = chain(lambda f: And((Prop("b"), f)), self.LEVELS, Prop("a"))
        c = chain(lambda f: And((Prop("b"), f)), self.LEVELS, Prop("c"))
        assert a is not b
        assert self.from_depth(150, lambda: a == b)
        assert self.from_depth(150, lambda: a != c)
        assert self.from_depth(150, lambda: not a == c)
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1

    @given(sts.formulas(), sts.formulas())
    def test_answers_as_the_field_comparison(self, f, g):
        # the dataclass comparison: same node type and equal fields
        assert (f == g) == (type(f) is type(g) and formula_text(f) == formula_text(g))
        assert (f == f) and not (f != f)
        assert f != 5 and not f == "a"
