"""Flat constraint sets: scenario systems, maxima, monitoring, cross-checks."""

import contextlib
import io
import json
import pathlib
import random
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import strategies as sts
from conftest import DATA
from oracles import fm_feasible, fm_supremum, render_rows
from scenario_reference import ReferenceTable, initial_sets, successor_map
from test_automaton import mixture_cap
from pltlf import (
    FALSE,
    TRUE,
    And,
    Comparison,
    InfeasibleSystemError,
    Not,
    Pltlf0Formula,
    ProbConstraint,
    TreeAutomaton,
    accepts_prefix,
    build_lphi,
    conj,
    format_pltlf0,
    format_trace,
    formula_text,
    is_satisfiable,
    is_satisfiable0,
    monitor_step,
    monitor_with_property,
    most_likely_scenario,
    normalize,
    parse_formula,
    parse_pltlf0,
    parse_trace,
    scenario_maxima,
    scenarios_of,
    start_monitor,
    to_pltlf,
    vars_of,
)
from pltlf import automaton, cli, fragment, linsolve, weighted


@pytest.fixture(scope="module")
def phi1_table(phi1_flat):
    return scenario_maxima(phi1_flat)


@pytest.fixture(scope="module")
def psi1_table(psi1_flat):
    return scenario_maxima(psi1_flat)


def flat(*lines):
    return parse_pltlf0("\n".join(lines))


class TestParsing:
    def test_file_format(self, phi1_flat):
        assert len(phi1_flat) == 2
        first, second = phi1_flat
        assert first.cmp is Comparison.LE
        assert first.bound == Fraction(4, 5)
        assert formula_text(first.formula) == "F a"
        assert formula_text(second.formula) == "G(a -> F b)"

    def test_comments_and_blank_lines_are_skipped(self):
        phi = flat("# a comment", "", "P<=0.5 : F a  # trailing")
        assert len(phi) == 1
        assert phi.constraints[0].bound == Fraction(1, 2)

    def test_round_trips_through_text(self, phi1_flat, psi1_flat, phi0_flat):
        for phi in (phi1_flat, psi1_flat, phi0_flat):
            assert parse_pltlf0(format_pltlf0(phi)) == phi

    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="line 2"):
            flat("P<=0.5 : F a", "nonsense")
        with pytest.raises(ValueError, match="line 1"):
            flat("P<=1.5 : F a")
        with pytest.raises(ValueError, match="probability-free"):
            flat("P<=0.5 : P<=0.5[a]")
        with pytest.raises(ValueError, match="line 1"):
            flat("P<=0.5 : F (")

    def test_errors_give_the_position_in_the_line(self):
        with pytest.raises(ValueError, match="^line 2: 1:1: expected 'P', found 'nonsense'"):
            flat("P<=0.5 : F a", "nonsense")
        with pytest.raises(ValueError, match="^line 3: 1:6: probability bound 1.5 outside"):
            flat("# a comment", "", "  P<=1.5 : F a")
        with pytest.raises(ValueError, match="^line 1: 1:14: expected a formula"):
            flat("P<=0.5 : F ( # an open bracket")

    def test_lines_end_at_line_feeds_only(self):
        # a form feed, a vertical tab or a line separator is white space
        # inside one line, not a line break
        for sep in ("\x0c", "\x0b", "\u2028"):
            with pytest.raises(ValueError, match="^line 1: "):
                parse_pltlf0(f"P<=0.5 : F a{sep}P<=0.5 : {sep}")
        lf = "# two lines\nP<=0.5 : F a\n\nP>=1/5 : X b\n"
        assert parse_pltlf0(lf.replace("\n", "\r\n")) == parse_pltlf0(lf)
        with pytest.raises(ValueError, match="^line 2: "):
            parse_pltlf0("P<=0.5 : F a\r\nnonsense\r\n")

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            ProbConstraint(Comparison.LE, Fraction(3, 2), parse_formula("a"))
        with pytest.raises(ValueError):
            ProbConstraint(Comparison.EQ, Fraction(1, 2), parse_formula("a"))
        with pytest.raises(ValueError):
            ProbConstraint(Comparison.LE, Fraction(1, 2), parse_formula("P<=0.5[a]"))

    def test_empty_set_is_trivially_satisfiable(self):
        phi = parse_pltlf0("")
        assert len(phi) == 0
        assert is_satisfiable0(phi)
        assert scenarios_of(phi)[0].describe() == "true"


class TestScenarios:
    def test_sign_patterns(self, psi1_flat):
        scenarios = scenarios_of(psi1_flat)
        assert [s.label for s in scenarios] == ["00", "01", "10", "11"]
        fa = psi1_flat.constraints[0].formula
        resp = psi1_flat.constraints[1].formula
        assert scenarios[0].formulas == (Not(fa), Not(resp))
        assert scenarios[1].formulas == (Not(fa), resp)
        assert scenarios[2].formulas == (fa, Not(resp))
        assert scenarios[3].formulas == (fa, resp)
        assert scenarios[2].includes(0) and not scenarios[2].includes(1)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_scenarios_share_each_constraint_s_two_formulas(self, n):
        phi = flat(*(f"P<=0.5 : F p{j}" for j in range(n)))
        scenarios = scenarios_of(phi)
        assert len({id(f) for s in scenarios for f in s.formulas}) == 2 * n
        assert [s.describe() for s in scenarios] == [
            ", ".join(
                f"F p{j}" if s.includes(j) else f"!F p{j}" for j in range(n)
            )
            for s in scenarios
        ]

    def test_unsatisfiable_sign_pattern_is_detected(self, phi1_table):
        # nothing refutes F a while satisfying G(a -> F b) vacuously... the
        # other way around: refuting both needs an a with no later b and no a
        assert phi1_table.satisfiable == (False, True, True, True)

    def test_mass_system_rows(self, phi1_table):
        assert phi1_table.rows_text() == [
            "x00 = 0",
            "x01 >= 0",
            "x10 >= 0",
            "x11 >= 0",
            "x00 + x01 + x10 + x11 = 1",
            "x10 + x11 <= 4/5",
            "x01 + x11 <= 7/10",
        ]

    def test_queries_reuse_the_compiled_table(self, psi1_flat, monkeypatch, lp_runs):
        builds = []
        original = TreeAutomaton.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(TreeAutomaton, "__init__", counting)
        table = build_lphi(psi1_flat)
        assert len(builds) == 1
        builds.clear()
        lp_runs["phase_one"].clear()
        prefix = parse_trace("-;a")
        state = start_monitor(table)
        state = monitor_step(state, prefix[0])
        state = monitor_step(state, prefix[1])
        assert most_likely_scenario(table, prefix) == state.best_index == 2
        assert builds == []
        # one phase 1 for the table, which decides its feasibility (no
        # strict rows and no profile certificate), then one objective: x01
        # is capped at 3/5 by P<=0.6 : G(a -> F b) and x10 at 1/2 by
        # P<=0.5 : F a, each settled by a mixture with the other, while
        # x11's only mixer is the pinned x00, so its 1/10 is a phase 2; the
        # program's variables are the live scenarios' indices
        live = tuple(i for i, sat in enumerate(table.satisfiable) if sat)
        assert live == (1, 2, 3)
        assert lp_runs["phase_one"] == [live]
        assert lp_runs["objectives"] == [(live, 3)]

    @pytest.mark.parametrize("first_step", ["accepts", "monitor"])
    def test_weighted_automaton_is_built_on_the_first_step(
        self, psi1_flat, monkeypatch, first_step
    ):
        builds = []
        original = automaton.build_weighted

        def counting(source):
            builds.append(source)
            return original(source)

        monkeypatch.setattr(automaton, "build_weighted", counting)
        table = build_lphi(psi1_flat)
        assert is_satisfiable0(psi1_flat)
        assert is_satisfiable0(table)
        scenario_maxima(table)
        most_likely_scenario(table, ())
        assert builds == []
        if first_step == "accepts":
            table.acceptors[1].accepts(parse_trace("-;a"))
        else:
            monitor_step(start_monitor(table), frozenset())
        assert len(builds) == 1
        monitor_step(monitor_step(start_monitor(table), frozenset("a")), frozenset())
        for acceptor in table.acceptors:
            acceptor.accepts(parse_trace("b;a"))
        assert len(builds) == 1
        assert {id(a.automaton.weighted) for a in table.acceptors} == {
            id(builds[0].weighted)
        }


class TestMaxima:
    def test_independent_maxima(self, phi1_table):
        # each scenario maximised on its own; the values need not sum to one
        assert phi1_table.maxima == (0, Fraction(7, 10), Fraction(4, 5), Fraction(1, 2))

    def test_independent_maxima_tighter_bounds(self, psi1_table):
        assert psi1_table.maxima == (0, Fraction(3, 5), Fraction(1, 2), Fraction(1, 10))

    def test_unsatisfiable_scenarios_get_zero(self, phi1_table):
        for sat, value in zip(phi1_table.satisfiable, phi1_table.maxima):
            if not sat:
                assert value == 0

    def test_maxima_cover_a_distribution(self, phi1_table, psi1_table):
        # any feasible assignment is dominated pointwise, so maxima sum >= 1
        for table in (phi1_table, psi1_table):
            assert sum(table.maxima) >= 1
            for value in table.maxima:
                assert 0 <= value <= 1

    def test_infeasible_sets_raise(self):
        phi = flat("P>=0.5 : a", "P>=0.6 : !a")
        assert not is_satisfiable0(phi)
        with pytest.raises(InfeasibleSystemError):
            scenario_maxima(phi)

    def test_only_live_scenarios_are_maximised(self, lp_runs):
        # x00 and x11 are pinned to zero: a and !a cannot both hold or fail
        table = build_lphi(flat("P<=0.5 : a", "P<=0.5 : !a"))
        lp_runs["phase_one"].clear()
        lp_runs["objectives"].clear()
        assert table.satisfiable == (False, True, True, False)
        assert table.maxima == (0, Fraction(1, 2), Fraction(1, 2), 0)
        live = (1, 2)  # x01 and x10
        # phase 1 alone decides a system without strict rows, as no
        # profile's point mass meets both bounds; each live scenario is
        # capped at 1/2 by the bound it keeps, and a mixture with the other
        # live one meets that cap, so no maximum runs a phase 2
        assert lp_runs["phase_one"] == [live]
        assert lp_runs["objectives"] == []

    def test_the_automaton_solves_no_lp(self, psi1_flat, lp_runs):
        # the scenario acceptors' automaton has no probability pairs, so
        # its good states and its weighted automaton need no LP: the only
        # one is the table's own mass system over the live scenarios, whose
        # maxima run one phase 2, for x11 (the mixers settle x01 at 3/5 and
        # x10 at 1/2, see test_queries_reuse_the_compiled_table)
        table = build_lphi(psi1_flat)
        assert lp_runs["phase_one"] == []
        monitor_step(start_monitor(table), parse_trace("a")[0])
        live = (1, 2, 3)  # x01, x10 and x11
        assert lp_runs["phase_one"] == [live]
        assert lp_runs["objectives"] == [(live, 3)]

    def test_feasibility_is_decided_once(self, lp_runs):
        # x10's point mass meets both strict bounds, so feasibility needs no
        # program, and every maximum is its cap: x00 at 7/10 (one minus
        # P>0.3 : a, mixed with x10 or x11), x01 at 3/5 (P<0.6 : X b, mixed
        # with x10), x10 at 1 (its own point mass) and x11 at 3/5 (P<0.6 : X
        # b, mixed with x00 or x10)
        table = build_lphi(flat("P>0.3 : a", "P<0.6 : X b"))
        lp_runs["phase_one"].clear()
        lp_runs["objectives"].clear()
        assert table.maxima == (
            Fraction(7, 10), Fraction(3, 5), Fraction(1), Fraction(3, 5),
        )
        assert is_satisfiable0(table)
        assert lp_runs == {"phase_one": [], "objectives": []}
        # where no certificate settles it, the maxima re-optimise the basis
        # that the strict feasibility test kept, so one phase 1 serves the
        # whole table: x01 and x10 are settled as in psi1, and x11 runs a
        # phase 2 from the basis of the largest eps
        table = build_lphi(flat("P<0.5 : F a", "P<0.6 : G(a -> F b)"))
        lp_runs["phase_one"].clear()
        assert table.maxima == (0, Fraction(3, 5), Fraction(1, 2), Fraction(1, 10))
        assert is_satisfiable0(table)
        live = (1, 2, 3)  # x01, x10 and x11
        assert lp_runs["phase_one"] == [live]
        assert lp_runs["objectives"] == [(live, linsolve._EPS), (live, 3)]

    @settings(max_examples=20)
    @given(
        sts.formulas(max_leaves=3, prob_free=True),
        sts.formulas(max_leaves=3, prob_free=True),
        sts.comparisons,
        sts.bounds,
        sts.comparisons,
        sts.bounds,
    )
    def test_maxima_properties_on_random_pairs(self, f, g, c1, b1, c2, b2):
        phi = Pltlf0Formula(
            (ProbConstraint(c1, b1, f), ProbConstraint(c2, b2, g))
        )
        table = build_lphi(phi)
        try:
            table = scenario_maxima(table)
        except InfeasibleSystemError:
            return
        assert sum(table.maxima) >= 1
        for sat, value in zip(table.satisfiable, table.maxima):
            assert 0 <= value <= 1
            if not sat:
                assert value == 0


class TestPrefixes:
    def test_acceptance_flips_on_evidence(self, psi1_flat):
        s = scenarios_of(psi1_flat)
        assert accepts_prefix(s[1], parse_trace("-"))
        assert not accepts_prefix(s[1], parse_trace("-;a"))
        assert accepts_prefix(s[2], parse_trace("-;a"))
        assert accepts_prefix(s[3], parse_trace("-;a"))

    def test_empty_prefix_means_satisfiable(self, phi1_flat):
        for scenario, sat in zip(
            scenarios_of(phi1_flat), build_lphi(phi1_flat).satisfiable
        ):
            assert accepts_prefix(scenario, ()) == sat

    @settings(max_examples=25)
    @given(sts.traces(max_size=4))
    def test_acceptance_is_prefix_monotone(self, psi1_table, trace):
        # once a scenario rejects a prefix it rejects every extension
        for acceptor in psi1_table.acceptors:
            alive = True
            for k in range(len(trace) + 1):
                now = acceptor.accepts(trace[:k])
                assert alive or not now
                alive = now


class TestMostLikely:
    def test_scenario_ranking(self, phi1_table, psi1_table):
        assert most_likely_scenario(phi1_table, ()) == 2
        assert most_likely_scenario(psi1_table, ()) == 1

    def test_ranking_follows_the_prefix(self, psi1_table):
        assert most_likely_scenario(psi1_table, parse_trace("-")) == 1
        assert most_likely_scenario(psi1_table, parse_trace("-;a")) == 2

    def test_violation_returns_minus_one(self):
        phi = flat("P>=1 : G !a")
        assert most_likely_scenario(phi, parse_trace("a")) == -1

    def test_ties_break_towards_the_smallest_index(self):
        phi = flat("P<=0.5 : a", "P<=0.5 : !a")
        table = scenario_maxima(phi)
        assert table.maxima == (0, Fraction(1, 2), Fraction(1, 2), 0)
        assert most_likely_scenario(table, ()) == 1

    @settings(max_examples=20)
    @given(sts.traces(max_size=3))
    def test_choice_dominates_accepting_scenarios(self, psi1_table, trace):
        best = most_likely_scenario(psi1_table, trace)
        scenarios = scenarios_of(psi1_table.formula)
        for i, scenario in enumerate(scenarios):
            if psi1_table.maxima[i] > 0 and accepts_prefix(scenario, trace):
                assert best != -1
                assert psi1_table.maxima[best] >= psi1_table.maxima[i]
        if best != -1:
            assert accepts_prefix(scenarios[best], trace)


def live(state) -> tuple:
    """The live scenario indices of a monitor state, in order."""
    return tuple(i for i, _ in state.entries)


class TestMonitor:
    def test_running_narrative(self, psi1_flat):
        prefix = parse_trace("-;a")
        state = start_monitor(psi1_flat)
        assert state.best_index == 1
        assert state.probability == Fraction(3, 5)
        assert live(state) == (1, 2, 3)
        state = monitor_step(state, prefix[0])
        assert state.best_index == 1
        assert state.probability == Fraction(3, 5)
        state = monitor_step(state, prefix[1])
        assert state.best_index == 2
        assert state.probability == Fraction(1, 2)
        assert not state.violated
        assert "F a" in state.describe_best()
        assert state.best_index == most_likely_scenario(psi1_flat, prefix)

    def test_stepping_one_state_twice_matches_fresh_monitors(self, psi1_flat):
        state = monitor_step(start_monitor(psi1_flat), frozenset())
        branches = {
            "-;a": monitor_step(state, frozenset("a")),
            "-;b": monitor_step(state, frozenset("b")),
        }
        branches["-;a;-"] = monitor_step(branches["-;a"], frozenset())
        for text, branch in branches.items():
            fresh = start_monitor(psi1_flat)
            for valuation in parse_trace(text):
                fresh = monitor_step(fresh, valuation)
            assert (live(branch), branch.best_index) == (live(fresh), fresh.best_index), text

    def test_live_set_only_shrinks(self, psi1_flat):
        rng = random.Random(5)
        vals = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
        state = start_monitor(psi1_flat)
        for _ in range(6):
            previous = set(live(state))
            state = monitor_step(state, rng.choice(vals))
            assert set(live(state)) <= previous

    def test_violation_is_reported(self):
        state = start_monitor(flat("P>=1 : G !a"))
        assert live(state) == (1,)
        state = monitor_step(state, frozenset("a"))
        assert state.violated
        assert state.probability == 0
        assert state.describe_best() == "none"

    def test_steps_match_from_scratch_ranking(self, psi1_table):
        rng = random.Random(13)
        vals = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
        for _ in range(10):
            trace = tuple(rng.choice(vals) for _ in range(rng.randint(1, 4)))
            state = start_monitor(psi1_table)
            for k, valuation in enumerate(trace, start=1):
                state = monitor_step(state, valuation)
                assert state.best_index == most_likely_scenario(
                    psi1_table, trace[:k]
                )

    def test_extra_property_restricts_the_ranking(self, phi1_table):
        stay_quiet = parse_formula("G !a")
        assert monitor_with_property(phi1_table, stay_quiet, ()) == 1
        assert most_likely_scenario(phi1_table, ()) == 2

    def test_extra_property_can_rule_everything_out(self, psi1_table):
        prop = parse_formula("G !a")
        assert monitor_with_property(psi1_table, prop, parse_trace("-;a")) == -1

    def test_extra_property_must_be_probability_free(self, phi1_table):
        with pytest.raises(ValueError):
            monitor_with_property(phi1_table, parse_formula("P<=0.5[a]"), ())


class TestCrossEngine:
    def test_flat_equivalent_formula(self, phi0_flat):
        assert formula_text(to_pltlf(phi0_flat)) == "P<=1/2[a] & P>=3/5[X b]"

    def test_examples_agree_with_the_tree_automaton(
        self, phi0_flat, phi1_flat, psi1_flat
    ):
        for phi in (phi0_flat, phi1_flat, psi1_flat):
            assert is_satisfiable0(phi) == is_satisfiable(to_pltlf(phi))

    def test_thirty_random_instances_agree(self):
        rng = random.Random(2024)
        pool = [
            "a", "b", "!a", "X b", "F a", "G(a -> F b)",
            "a U b", "F b", "G !a", "X !b", "a & !b", "F(a & b)",
        ]
        bounds = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 5), Fraction(1)]
        cmps = [c for c in Comparison if c is not Comparison.EQ]
        for _ in range(30):
            constraints = tuple(
                ProbConstraint(
                    rng.choice(cmps), rng.choice(bounds), parse_formula(rng.choice(pool))
                )
                for _ in range(2)
            )
            phi = Pltlf0Formula(constraints)
            flat_answer = is_satisfiable0(phi)
            full_answer = is_satisfiable(to_pltlf(phi))
            assert flat_answer == full_answer, format_pltlf0(phi)


@st.composite
def constraint_sets(draw, max_size=4):
    """Random constraint sets whose formulas come from a pool of one to
    three: a pool formula, its negation, the conjunction of two, or a
    constant, so duplicates, negated pairs, top-level conjunctions,
    ``true`` and ``false`` all occur."""
    pool = st.sampled_from(
        draw(st.lists(sts.formulas(max_leaves=3, prob_free=True), min_size=1, max_size=3))
    )
    member = st.one_of(
        pool,
        pool.map(Not),
        st.builds(lambda f, g: And((f, g)), pool, pool),
        st.sampled_from([TRUE, FALSE]),
    )
    formulas = draw(st.lists(member, min_size=1, max_size=max_size))
    return Pltlf0Formula(tuple(
        ProbConstraint(draw(sts.comparisons), draw(sts.bounds), f) for f in formulas
    ))


def monitor_records(phi, trace) -> list:
    """The JSON records ``p0-monitor`` prints for the trace."""
    out = io.StringIO()
    saved = sys.stdin
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "set.p0"
        path.write_text(format_pltlf0(phi))
        sys.stdin = io.StringIO("".join(format_trace((v,)) + "\n" for v in trace))
        try:
            with contextlib.redirect_stdout(out):
                cli.main(["p0-monitor", str(path)])
        finally:
            sys.stdin = saved
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestSharedAutomaton:
    """The table reads every scenario off one automaton and maximises the
    live variables only; ``scenario_reference`` builds one automaton per
    scenario and maximises every variable over the whole system."""

    @pytest.mark.parametrize("path", sorted(DATA.glob("*.p0")), ids=lambda p: p.name)
    def test_successor_map_matches_reference_search(self, path):
        # every acceptor steps the one weighted automaton of the distinct
        # constraint formulas, whose weights are all 1; its groups, expanded
        # in order, are the reference search's successor lists
        formulas = tuple(c.formula for c in parse_pltlf0(path.read_text()).constraints)
        acceptors = fragment.scenario_acceptors(formulas)
        aut = TreeAutomaton(conj(*dict.fromkeys(normalize(f) for f in formulas)))
        expected = successor_map(aut, aut.good_states().good)
        assert expected
        for acceptor in acceptors:
            wa = acceptor.automaton.weighted
            assert wa is acceptors[0].automaton.weighted
            assert all(wt == 1 for q in wa.states for wt, _ in wa.groups[q])
            assert {
                q: tuple(c for _, k in wa.groups[q] for c in wa.children[k]) for q in wa.states
            } == expected

    @example(
        flat("P>=1/2 : F a", "P>=1/2 : F b", "P>=1/2 : G(a -> F b)", "P>=1/2 : a U b",
             "P>=1/2 : X c", "P>=1/2 : F(c & X d)", "P>=1/2 : G !d"),
        [parse_formula("F c")],
    )
    @given(constraint_sets(), st.lists(sts.formulas(max_leaves=3, prob_free=True), max_size=2))
    def test_initial_sets_match_per_atom_reference(self, phi, required):
        # initial atoms come from the closure's columns: a formula's own,
        # or its conjuncts' when the shared conjunction flattened it away
        formulas = tuple(c.formula for c in phi.constraints)
        acceptors = fragment.scenario_acceptors(formulas, tuple(required))
        assert [a.initial for a in acceptors] == initial_sets(formulas, tuple(required))

    @settings(max_examples=40)
    @example(
        flat("P>=1/5 : a & X b", "P<=9/10 : true", "P>1/10 : F a",
             "P<4/5 : F a", "P<=1/2 : !F a"),
        [parse_trace("a;b;-"), parse_trace("-;a")],
        parse_formula("G !b"),
    )
    @example(
        flat("P<=1/2 : false", "P>=1/4 : G(a -> X b)",
             "P<=3/5 : !G(a -> X b)", "P<1 : a U b"),
        [parse_trace("a;b;a"), parse_trace("b")],
        parse_formula("F a"),
    )
    # P>=0 : a is held by one live scenario, so its row is that
    # scenario's sign row; with the two P<=1/2 rows beside it no point
    # mass meets every bound, so the row reaches a program
    @example(flat("P>=0 : a"), [parse_trace("a;-")], parse_formula("F a"))
    @example(
        flat("P>=0 : a", "P<=1/2 : !a", "P<=1/2 : a"), [parse_trace("-;a")], parse_formula("X a")
    )
    @example(flat("P<=0 : a", "P>=0 : F b"), [parse_trace("b;a")], parse_formula("F b"))
    @example(flat("P>0 : a", "P<1 : X b"), [parse_trace("a;b;-")], parse_formula("a"))
    @example(flat(), [parse_trace("a")], parse_formula("F a"))
    @given(
        constraint_sets(),
        st.lists(sts.traces(max_size=4), min_size=1, max_size=3),
        sts.formulas(max_leaves=3, prob_free=True),
    )
    def test_matches_per_scenario_reference(self, phi, traces, prop):
        ref = ReferenceTable(phi)
        table = build_lphi(phi)
        assert table.satisfiable == ref.satisfiable
        assert table.rows_text() == list(render_rows(ref.system))
        for trace in traces:
            for k in range(len(trace) + 1):
                assert [a.accepts(trace[:k]) for a in table.acceptors] == [
                    a.accepts(trace[:k]) for a in ref.acceptors
                ]
        assert [accepts_prefix(s, traces[0]) for s in table.scenarios] == [
            a.accepts(traces[0]) for a in ref.acceptors
        ]
        assert is_satisfiable0(table) == (ref.maxima is not None)
        if ref.maxima is None:
            with pytest.raises(InfeasibleSystemError):
                scenario_maxima(table)
            return
        assert table.maxima == ref.maxima
        for trace in traces:
            assert most_likely_scenario(table, trace) == ref.most_likely_scenario(trace)
            assert monitor_with_property(table, prop, trace) == (
                ref.monitor_with_property(prop, trace)
            )
        assert monitor_records(phi, traces[-1]) == ref.monitor_records(traces[-1])

    @settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(phi=flat("P<=0.5 : F a", "P<=0.6 : G(a -> F b)"))
    @example(phi=flat("P>0.3 : a", "P<0.6 : X b"))
    @example(phi=flat("P<=0.5 : a", "P<=0.5 : !a"))
    @given(phi=constraint_sets())
    def test_a_settled_maximum_runs_no_phase_2(self, phi, lp_runs):
        # a live scenario's maximum runs a phase 2 exactly when no live
        # scenario mixes with it at the cap the relaxed bounds put on its
        # mass, and a settled maximum is that cap; feasibility and every
        # maximum are the reference's and, up to three constraints,
        # Fourier-Motzkin's
        table, ref = build_lphi(phi), ReferenceTable(phi)
        small = len(phi) <= 3
        assert table.feasible == (ref.maxima is not None)
        assert not small or table.feasible == fm_feasible(ref.system)
        if not table.feasible:
            return
        lp_runs["objectives"].clear()  # a strict system's largest eps
        maxima = table.maxima
        assert maxima == ref.maxima
        if small:
            assert list(maxima) == [fm_supremum(ref.system, v) for v in ref.system.variables]
        live = [i for i, sat in enumerate(table.satisfiable) if sat]
        # a profile's bit j is constraint n - 1 - j, as in a scenario index
        bounds = [(c.cmp, c.bound) for c in reversed(phi.constraints)]
        caps = {i: mixture_cap(bounds, live, i) for i in live}
        ran = [column for _, column in lp_runs["objectives"]]
        assert ran == [i for i in live if caps[i] is None]
        for i in live:
            if caps[i] is not None:
                assert maxima[i] == caps[i]


# bounds that every distribution with some mass on each side meets, so
# most sets drawn with them are satisfiable and keep many scenarios live
LOOSE_BOUNDS = st.sampled_from([
    (Comparison.GE, Fraction(0)), (Comparison.GT, Fraction(0)),
    (Comparison.GE, Fraction(1, 10)), (Comparison.LE, Fraction(9, 10)),
    (Comparison.LT, Fraction(1)), (Comparison.LE, Fraction(1)),
])


@st.composite
def long_streams(draw):
    """A constraint set and a stream of 50 to 200 events drawn from a pool
    of a few valuations, so that the monitor meets the same state
    and valuation many times.  The valuations range over the names the
    formulas mention: ``a`` and ``b``, and ``c`` when one more constraint
    is drawn on it.  Half the sets take loose bounds."""
    three = draw(st.booleans())
    formulas = [c.formula for c in draw(constraint_sets(max_size=3 - three))]
    if three:
        extra = draw(st.sampled_from(["F c", "G(c -> F a)", "b U c", "X !c"]))
        formulas.append(parse_formula(extra))
    bounds = LOOSE_BOUNDS if draw(st.booleans()) else st.tuples(sts.comparisons, sts.bounds)
    phi = Pltlf0Formula(tuple(ProbConstraint(*draw(bounds), f) for f in formulas))
    names = sorted(set().union(*(vars_of(f) for f in formulas)))
    valuation = st.sets(st.sampled_from(names)).map(frozenset) if names else st.just(frozenset())
    pool = draw(st.lists(valuation, min_size=1, max_size=4, unique=True))
    stream = tuple(draw(st.lists(st.sampled_from(pool), min_size=50, max_size=200)))
    # an older state to step again, and the valuations to step it with
    k = draw(st.integers(0, len(stream) - 1))
    tail = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)))
    return phi, stream, k, tail


class TestDeterminisedMonitor:
    """The monitor keeps each state's successors on the state; the
    records and states must be those decided from scratch on the prefix."""

    @settings(max_examples=30)
    @example((  # the best scenario changes at the first a
        flat("P<=1/2 : F a", "P<=3/5 : G(a -> F b)", "P>=1/10 : X b"),
        parse_trace(";".join(["-;b"] * 30 + ["a"] * 20 + ["b;a,b"] * 20)), 40, parse_trace("b;a"),
    ))
    @example((  # every scenario dies halfway
        flat("P>=1 : G !a", "P<=1/2 : F b"),
        parse_trace(";".join(["-;b"] * 30 + ["a"] + ["-"] * 30)), 59, parse_trace("b"),
    ))
    @given(long_streams())
    def test_long_streams_match_the_reference(self, case):
        phi, stream, k, tail = case
        ref = ReferenceTable(phi)
        if ref.maxima is None:
            return
        assert monitor_records(phi, stream) == ref.monitor_records(stream)
        table = build_lphi(phi)
        states = [start_monitor(table)]
        for valuation in stream:
            states.append(monitor_step(states[-1], valuation))
        # step an older state once the transition map is warm
        state = states[k]
        for valuation in tail:
            state = monitor_step(state, valuation)
        prefix = stream[:k] + tail
        assert live(state) == tuple(
            i for i, value in enumerate(ref.maxima)
            if value > 0 and ref.acceptors[i].accepts(prefix)
        )
        assert state.best_index == ref.most_likely_scenario(prefix)
        assert live(states[-1]) == tuple(
            i for i, value in enumerate(ref.maxima)
            if value > 0 and ref.acceptors[i].accepts(stream)
        )
        assert states[-1].best_index == ref.most_likely_scenario(stream)

    def test_states_are_interned(self, psi1_table):
        start = start_monitor(psi1_table)
        assert start is start_monitor(psi1_table)
        rng = random.Random(7)
        vals = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
        stream = [rng.choice(vals) for _ in range(12)]
        states = [start]
        for valuation in stream:
            states.append(monitor_step(states[-1], valuation))
            assert monitor_step(states[-2], valuation) is states[-1]
        # an older state stepped again reaches what a fresh monitor reaches
        for k, tail in ((3, parse_trace("a;b")), (8, parse_trace("a,b;-;a"))):
            state = states[k]
            for valuation in tail:
                state = monitor_step(state, valuation)
            fresh = start_monitor(psi1_table)
            for valuation in tuple(stream[:k]) + tail:
                fresh = monitor_step(fresh, valuation)
            assert state is fresh

    def test_each_step_and_description_is_computed_once(self, monkeypatch, tmp_path):
        text = "P<=2/5 : F a\nP<=9/10 : G(a -> F b)\nP>1/10 : X b\nP<=9/10 : a U c\n"
        rng = random.Random(3)
        names = ("a", "b", "c")
        pool = [frozenset(n for n in names if rng.random() < 0.5) for _ in range(6)]
        stream = [rng.choice(pool) for _ in range(2000)]
        # the distinct (state, valuation) pairs, on a table of its own
        state = start_monitor(parse_pltlf0(text))
        pairs = set()
        best = set()
        for valuation in stream:
            pairs.add((state.entries, valuation))
            state = monitor_step(state, valuation)
            best.add(state.best_index)
        steps = []
        rendered = []
        for name in ("run", "advance"):
            original = getattr(weighted.WeightedAutomaton, name)

            def counting(self, *args, original=original):
                steps.append(args)
                return original(self, *args)

            monkeypatch.setattr(weighted.WeightedAutomaton, name, counting)
        original_text = fragment.formula_text

        def counting_text(f):
            rendered.append(f)
            return original_text(f)

        monkeypatch.setattr(fragment, "formula_text", counting_text)
        path = tmp_path / "ladder.p0"
        path.write_text(text)
        monkeypatch.setattr(
            sys, "stdin", io.StringIO("".join(format_trace((v,)) + "\n" for v in stream))
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["p0-monitor", str(path)])
        assert out.getvalue().count("\n") == len(stream)
        assert code == (1 if state.violated else 0)
        assert 0 < len(steps) <= sum(len(entries) for entries, _ in pairs)
        assert len(rendered) <= 4 * len(best - {-1})
