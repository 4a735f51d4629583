"""Event-log mining: loading, frequent sets, template instantiation, support."""

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pltlf import mining
from pltlf import eval_trace, is_satisfiable0, parse_pltlf0, parse_trace
from pltlf.mining import (
    Case,
    EventLog,
    constraint_support,
    default_catalog,
    frequent_sets,
    load_log,
    mine,
    mine_constraints,
    render_mined,
    set_support,
    to_pltlf0,
)

RENDERED = (
    "# support=1 template=existence(a)\n"
    "P>=1 : F a\n"
    "P<=1 : F a\n"
    "# support=4/5 template=existence(b)\n"
    "P>=4/5 : F b\n"
    "P<=4/5 : F b\n"
    "# support=1 template=precedence(a,b)\n"
    "P>=1 : !b U a | G !b\n"
    "P<=1 : !b U a | G !b\n"
    "# support=4/5 template=response(a,b)\n"
    "P>=4/5 : G(a -> F b)\n"
    "P<=4/5 : G(a -> F b)\n"
)


@pytest.fixture(scope="module")
def log(data_dir):
    return load_log(data_dir / "sample_log.csv")


@pytest.fixture(scope="module")
def mined(log):
    return mine_constraints(log, Fraction(4, 5))


def template(name):
    return next(t for t in default_catalog() if t.name == name)


def write_log(tmp_path, text):
    path = tmp_path / "log.csv"
    path.write_text(text)
    return path


def random_log(rng):
    cases = []
    for i in range(rng.randint(3, 6)):
        length = rng.randint(1, 4)
        cases.append(Case(f"c{i}", tuple(rng.choice("abc") for _ in range(length))))
    return EventLog(tuple(cases))


class TestLoadLog:
    def test_sample_log(self, log):
        assert len(log) == 10
        assert log.cases[0] == Case("c01", ("a", "b"))
        assert log.cases[8] == Case("c09", ("a",))
        assert log.activities() == ("a", "b")
        assert log.cases[0].trace() == (frozenset("a"), frozenset("b"))

    def test_interleaved_cases_keep_file_order(self, tmp_path):
        path = write_log(
            tmp_path, "case_id,activity\nx,a\ny,b\nx,b\ny,a\nx,a\n"
        )
        parsed = load_log(path)
        assert parsed.cases == (Case("x", ("a", "b", "a")), Case("y", ("b", "a")))

    def test_order_column_overrides_file_order(self, tmp_path):
        path = write_log(
            tmp_path, "case_id,activity,order\nx,b,2\nx,a,1\nx,c,3\n"
        )
        assert load_log(path).cases == (Case("x", ("a", "b", "c")),)

    def test_rejects_missing_columns(self, tmp_path):
        path = write_log(tmp_path, "case_id,thing\nx,a\n")
        with pytest.raises(ValueError, match="missing required columns: activity"):
            load_log(path)

    def test_rejects_empty_inputs(self, tmp_path):
        with pytest.raises(ValueError, match="empty log file"):
            load_log(write_log(tmp_path, ""))
        with pytest.raises(ValueError, match="no events"):
            load_log(write_log(tmp_path, "case_id,activity\n"))

    def test_rejects_gaps_in_the_order_column(self, tmp_path):
        path = write_log(
            tmp_path, "case_id,activity,order\nx,a,1\nx,b,3\ny,a,1\n"
        )
        with pytest.raises(ValueError, match="non-contiguous order values.*x"):
            load_log(path)

    def test_rejects_unusable_values(self, tmp_path):
        with pytest.raises(ValueError, match="not an integer"):
            load_log(write_log(tmp_path, "case_id,activity,order\nx,a,soon\n"))
        with pytest.raises(ValueError, match="not a usable proposition name"):
            load_log(write_log(tmp_path, "case_id,activity\nx,X\n"))
        with pytest.raises(ValueError, match="empty case_id or activity"):
            load_log(write_log(tmp_path, "case_id,activity\nx,\n"))

    @pytest.mark.parametrize(
        "text",
        [
            # line 3 is blank, and the reader skips it
            "case_id,activity,order\nc1,a,1\n\nc1,b,2\nc2,,1\n",
            # the order field of line 2 runs on to line 3
            'case_id,activity,order\nc1,a,"1\n"\nc1,b,2\nc2,,1\n',
            # Windows line ends, with the blank line 3
            "case_id,activity,order\r\nc1,a,1\r\n\r\nc1,b,2\r\nc2,,1\r\n",
        ],
    )
    def test_errors_name_the_file_line(self, tmp_path, text):
        with pytest.raises(ValueError, match=r"log\.csv:5: empty case_id or activity$"):
            load_log(write_log(tmp_path, text))

    @pytest.mark.parametrize("order", ["\u0661", "\uff11", "2_0", "+1", "-"])
    def test_order_takes_only_ascii_digits(self, tmp_path, order):
        path = write_log(tmp_path, f"case_id,activity,order\nx,a,0\nx,b,{order}\n")
        message = re.escape(f"log.csv:3: order value '{order}' is not an integer")
        with pytest.raises(ValueError, match=message):
            load_log(path)

    def test_order_may_be_negative(self, tmp_path):
        path = write_log(tmp_path, "case_id,activity,order\nx,b,0\nx,a,-1\n")
        assert load_log(path).cases == (Case("x", ("a", "b")),)


class TestFrequentSets:
    def test_set_support(self, log):
        assert set_support(log, frozenset("a")) == 1
        assert set_support(log, frozenset("b")) == Fraction(4, 5)
        assert set_support(log, frozenset("ab")) == Fraction(4, 5)
        assert set_support(log, frozenset("c")) == 0

    def test_threshold_cuts_levels(self, log):
        assert frequent_sets(log, Fraction(4, 5)) == [
            frozenset("a"),
            frozenset("b"),
            frozenset("ab"),
        ]
        assert frequent_sets(log, Fraction(9, 10)) == [frozenset("a")]
        assert frequent_sets(log, 0, max_size=1) == [frozenset("a"), frozenset("b")]

    def test_rejects_bad_parameters(self, log):
        with pytest.raises(ValueError):
            frequent_sets(log, Fraction(3, 2))
        with pytest.raises(ValueError):
            frequent_sets(log, Fraction(1, 2), max_size=0)

    def test_matches_exhaustive_enumeration(self):
        # apriori pruning must not change the answer, only skip work
        rng = random.Random(7)
        thresholds = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        for _ in range(20):
            made = random_log(rng)
            min_support = rng.choice(thresholds)
            expected = [
                frozenset(combo)
                for size in (1, 2)
                for combo in combinations(made.activities(), size)
                if set_support(made, frozenset(combo)) >= min_support
            ]
            expected.sort(key=lambda items: (len(items), sorted(items)))
            assert frequent_sets(made, min_support) == expected

    def test_support_is_anti_monotone(self):
        rng = random.Random(21)
        for _ in range(20):
            made = random_log(rng)
            for size in (1, 2):
                for combo in combinations(made.activities(), size + 1):
                    whole = set_support(made, frozenset(combo))
                    for sub in combinations(combo, size):
                        assert whole <= set_support(made, frozenset(sub))


class TestTemplates:
    def test_catalog_shape(self):
        assert [(t.name, t.arity) for t in default_catalog()] == [
            ("absence", 1),
            ("existence", 1),
            ("precedence", 2),
            ("response", 2),
        ]

    def test_template_semantics(self):
        precedence = template("precedence").build("a", "b")
        assert eval_trace(precedence, parse_trace("a;b"))
        assert eval_trace(precedence, parse_trace("a"))
        assert not eval_trace(precedence, parse_trace("b;a"))
        response = template("response").build("a", "b")
        assert eval_trace(response, parse_trace("a;b"))
        assert not eval_trace(response, parse_trace("a"))
        assert eval_trace(template("absence").build("a"), parse_trace("b;b"))
        assert not eval_trace(template("existence").build("a"), parse_trace("b"))


class TestMine:
    def test_discovered_constraints(self, mined):
        assert [(m.template, m.args, m.support) for m in mined] == [
            ("existence", ("a",), Fraction(1)),
            ("existence", ("b",), Fraction(4, 5)),
            ("precedence", ("a", "b"), Fraction(1)),
            ("response", ("a", "b"), Fraction(4, 5)),
        ]

    def test_supports_reevaluate_bit_exactly(self, log, mined):
        for item in mined:
            assert constraint_support(log, item.formula) == item.support

    def test_higher_threshold_drops_the_weaker_instances(self, log):
        # the pair {a,b} only co-occurs in 8 of 10 cases, so at threshold 1
        # the binary templates are never even instantiated
        exact = mine_constraints(log, 1)
        assert [(m.template, m.args) for m in exact] == [("existence", ("a",))]

    def test_catalog_filter(self, log):
        only = mine_constraints(log, Fraction(4, 5), catalog=(template("existence"),))
        assert [(m.template, m.args) for m in only] == [
            ("existence", ("a",)),
            ("existence", ("b",)),
        ]

    def test_bound_pairs(self, mined):
        phi = to_pltlf0(mined)
        assert len(phi) == 2 * len(mined)
        for i, item in enumerate(mined):
            lower, upper = phi.constraints[2 * i], phi.constraints[2 * i + 1]
            assert lower.cmp.value == ">=" and upper.cmp.value == "<="
            assert lower.bound == upper.bound == item.support
            assert lower.formula == upper.formula == item.formula

    def test_rendered_output(self, mined):
        assert render_mined(mined) == RENDERED
        assert parse_pltlf0(RENDERED) == to_pltlf0(mined)

    def test_mined_formula_is_satisfiable(self, log, mined):
        # the log's own distribution over case traces meets every bound pair
        assert is_satisfiable0(to_pltlf0(mined))

    def test_random_mined_sets_are_satisfiable(self):
        rng = random.Random(3)
        catalog = (template("existence"), template("absence"))
        for _ in range(5):
            made = random_log(rng)
            phi = mine(made, Fraction(3, 5), catalog=catalog)
            assert is_satisfiable0(phi)


def reference_mine_constraints(log, min_support, catalog):
    """Mining as it was with frequent sets always grown to size 2 and each
    pair instantiated in both orders."""
    frequent = frequent_sets(log, min_support, 2)
    instances = []
    for t in catalog:
        for items in frequent:
            if len(items) == t.arity:
                ordered = sorted(items)
                for args in (ordered, ordered[::-1]) if t.arity == 2 else (ordered,):
                    instances.append((t.name, tuple(args), t.build(*args)))
    instances.sort(key=lambda inst: (inst[0], inst[1]))
    return [
        (name, args, support)
        for name, args, formula in instances
        if (support := constraint_support(log, formula)) >= min_support
    ]


def summary(mined):
    return [(m.template, m.args, m.support) for m in mined]


logs = st.lists(
    st.lists(st.sampled_from("abc"), min_size=1, max_size=4).map(tuple),
    min_size=1,
    max_size=6,
).map(lambda cases: EventLog(tuple(Case(f"c{i}", acts) for i, acts in enumerate(cases))))
catalogs = st.lists(st.sampled_from(default_catalog()), unique=True).map(tuple)
thresholds = st.sampled_from(
    [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(4, 5), Fraction(1)]
)


class TestFrequentSetSize:
    """Frequent sets grow to the largest arity in the catalog."""

    def test_unary_catalog_builds_no_activity_pair(self, log, monkeypatch):
        sizes = []

        def spy(made, items):
            sizes.append(len(items))
            return set_support(made, items)

        monkeypatch.setattr(mining, "set_support", spy)
        catalog = (template("absence"), template("existence"))
        assert summary(mine_constraints(log, Fraction(4, 5), catalog)) == [
            ("existence", ("a",), 1),
            ("existence", ("b",), Fraction(4, 5)),
        ]
        # both activities are frequent, so a size-2 bound would test {a, b}
        assert sizes and set(sizes) == {1}

    def test_sample_log_matches_the_reference(self, log):
        for threshold in (0, Fraction(4, 5), 1):
            assert summary(mine_constraints(log, threshold)) == reference_mine_constraints(
                log, threshold, default_catalog()
            )

    @given(logs, thresholds, catalogs)
    def test_random_logs_match_the_reference(self, made, threshold, catalog):
        expected = reference_mine_constraints(made, threshold, catalog)
        assert summary(mine_constraints(made, threshold, catalog)) == expected
