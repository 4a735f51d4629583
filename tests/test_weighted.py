"""Weighted trace automata: edge masses, behaviour, mlt and probability queries."""

import random
from fractions import Fraction
from itertools import product as iproduct

from hypothesis import strategies as st

import pytest
from hypothesis import assume, given, settings

import family_reference
import strategies as sts
import weighted_reference
from weighted_reference import entered, expand
from oracles import fm_supremum, formula_family, relaxed
from pltlf import (
    TraceNFA,
    TreeAutomaton,
    behaviour,
    build_lphi,
    build_weighted,
    check_model,
    enumerate_mlts,
    eval_trace,
    is_satisfiable,
    language_probability,
    maximize,
    mlt_acceptor,
    monitor_step,
    parse_formula,
    parse_pltlf0,
    parse_trace,
    prefix_extension_query,
    product,
    start_monitor,
    trace_probability,
    vars_of,
    witness_model,
)
from pltlf import automaton, weighted
from pltlf.syntax import all_valuations

from family_reference import scenario_max
from conftest import DATA, PHI0_TEXT, PHI1_TEXT, PSI_TEXT
from test_automaton import PSI_ATOMS, atom_id

THREE_BOUNDS = "P<=0.5[a] & P>=0.6[X b] & P>0.2[F c]"
# the formulas of the README quick start, as the tree-queries workload runs them
QUERY_FORMULAS = (
    "P<=0.5[a] & P>=0.6[X b]",
    "X !b & P<=0.7[a U b] & P<=0.6[X(!a & !b)]",
    "P<=0.8[F a] & P<=0.7[G(a -> F b)]",
    "P<=0.5[F a] & P<=0.6[G(a -> F b)]",
    "P>=0.5[a] & P>=0.6[!a]",
)

ALL_VALS = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
EMPTY = frozenset()


def universal(variables) -> TraceNFA:
    """Acceptor of every trace over the given propositions."""
    return TraceNFA((0,), (0,), (0,), [(0, v, 0) for v in all_valuations(variables)])


def all_traces(max_len):
    for length in range(1, max_len + 1):
        yield from iproduct(ALL_VALS, repeat=length)


@pytest.fixture(scope="module")
def aut_psi(psi):
    return TreeAutomaton(psi)


@pytest.fixture(scope="module")
def wa_psi(aut_psi):
    return build_weighted(aut_psi)


@pytest.fixture(scope="module")
def wa0(phi0):
    return build_weighted(phi0)


class TestEdgeWeights:
    def test_documented_edge_masses(self, aut_psi, wa_psi):
        ids = {k: atom_id(aut_psi, pos, neg) for k, (pos, neg) in PSI_ATOMS.items()}
        assert wa_psi.weight(ids["a1"], ids["a8"]) == Fraction(7, 10)
        assert wa_psi.weight(ids["a1"], ids["a2"]) == Fraction(3, 5)

    def test_per_subset_maxima_including_adjoined(self, wa0, phi0):
        # independent maxima per child subset; the missing subset joins the
        # system with zero obligations, so the slack 2/5 goes to it as well
        aut = TreeAutomaton(phi0)
        aid = aut.initial[0]
        record = next(r for r in aut.scenario_family(aid) if r.qsets == (1, 2, 3))
        assert scenario_max(aut, aid, record, 2) == 1
        assert scenario_max(aut, aid, record, 3) == Fraction(1, 2)
        assert scenario_max(aut, aid, record, 1) == Fraction(2, 5)
        assert scenario_max(aut, aid, record, 0) == Fraction(2, 5)

    def test_weights_lie_in_the_unit_interval(self, wa_psi):
        for wt in wa_psi.weights.values():
            assert 0 < wt <= 1

    @pytest.mark.parametrize("text", QUERY_FORMULAS + (THREE_BOUNDS,))
    def test_weights_maximise_relaxed_systems(self, text):
        self.check_maxima(parse_formula(text))

    @settings(max_examples=25)
    @given(sts.formulas())
    def test_random_weights_maximise_relaxed_systems(self, f):
        assume(len(TreeAutomaton(f).atoms) <= 256)
        self.check_maxima(f)

    @staticmethod
    def check_maxima(f):
        # every family reaching Branches.maximum is feasible, so phase 2
        # from the basis its program kept reaches the relaxed system's
        # maximum
        aut = TreeAutomaton(f)
        build_weighted(aut)
        aid_of = {sig: aid for aid, sig in enumerate(aut._prob_sig)}
        for sig, branches in enumerate(aut.branches):
            for (family, qmask), mass in branches._maxima.items():
                system = aut.build_system(aid_of[sig], family)
                name = automaton._qset_name(qmask, len(aut._pairs))
                assert mass == maximize(relaxed(system), name).supremum
                assert mass == fm_supremum(system, name)

    def test_maxima_build_no_system_of_their_own(self, monkeypatch, lp_runs):
        # Branches.maximum re-optimises the program the family's
        # feasibility test or point kept, so every branch program is built
        # once, from integer rows over its profiles; no query spells a
        # branch system as a LinearSystem over names
        aut = TreeAutomaton(parse_formula(THREE_BOUNDS))
        systems = []
        build_system = TreeAutomaton.build_system

        def counting_system(self, aid, qsets):
            systems.append(qsets)
            return build_system(self, aid, qsets)

        monkeypatch.setattr(TreeAutomaton, "build_system", counting_system)
        assert witness_model(aut) is not None
        assert behaviour(build_weighted(aut)) == 1
        assert any(branches._maxima for branches in aut.branches)
        programs = lp_runs["phase_one"]
        assert sorted(programs) == sorted(
            family for branches in aut.branches for family in branches._programs
        )
        assert all(isinstance(q, int) for family in programs for q in family)
        f, trace = parse_formula(THREE_BOUNDS), parse_trace("a;b,c")
        assert is_satisfiable(f) and trace_probability(f, trace) >= 0
        assert prefix_extension_query(f, trace)[0] >= 0
        assert systems == []


class TestMaximalFamilyWeights:
    """One maximisation over the maximal family gives every edge weight
    that the best of the per-family maxima gives."""

    @pytest.mark.parametrize(
        "text",
        [
            "P<=0.5[a] & P>=0.6[X b]",
            "X !b & P<=0.7[a U b] & P<=0.6[X(!a & !b)]",
        ],
    )
    def test_readme_formulas_match_enumeration(self, text):
        self.check(parse_formula(text))

    @settings(max_examples=25)
    @given(sts.formulas(max_leaves=3))
    def test_random_formulas_match_enumeration(self, f):
        assume(len(TreeAutomaton(f).atoms) <= 256)
        self.check(f)

    @staticmethod
    def check(f):
        aut = TreeAutomaton(f)
        wa = build_weighted(aut)
        gs = family_reference.good_states(aut)
        expected = family_reference.edge_weights(aut, gs.good)
        assert set(wa.states) == gs.good
        assert wa.weights == expected
        initial = [a for a in aut.initial if a in gs.good]
        finals = [a for a in aut.final_ids if a in gs.good]
        valuations = {a: aut.atoms[a].valuation() for a in gs.good}
        assert expand(wa).valuations == valuations
        reference = weighted_reference.WeightedAutomaton(
            gs.good, initial, finals, expected, valuations
        )
        assert behaviour(wa) == reference.behaviour_table().value


def assert_groups_partition_children(wa):
    for r, groups in enumerate(wa.groups):
        reached = [
            (c, letter) for _, k in groups for letter, rows in wa.children[k].items() for c in rows
        ]
        assert len(reached) == len(set(reached)), r
        assert all(0 < wt <= 1 for wt, _ in groups)


def reference_walks(ref, rng, count):
    """Traces spelled by random walks along the reference acceptor's edges,
    from an initial state, of one to six states; many end in a final one."""
    walks = []
    for _ in range(count if ref.initial else 0):
        q = rng.choice(sorted(ref.initial, key=str))
        trace = [ref.valuations[q]]
        length = rng.randint(1, 6)
        while len(trace) < length and ref.succ[q]:
            q = rng.choice(ref.succ[q])
            trace.append(ref.valuations[q])
        walks.append(tuple(trace))
    return walks


# (count, max_len) pairs: short and long, few and many traces
LISTING_PAIRS = ((1, 1), (4, 6), (5, 8), (20, 10), (100, 6), (3, 20))


def assert_tight_part(acc, ref, dense):
    """The mlt acceptor's dense form is the reference acceptor's, cut to
    the states a run can be in, with the weights of the dense automaton."""
    got, held = expand(acc), entered(ref)
    assert set(got.states) == set(held.states)
    assert got.initial == held.initial
    assert got.finals == held.finals
    assert frozenset(got.weights) == held.edges
    assert all(wt == dense.weight(src, dst) for (src, dst), wt in got.weights.items())
    assert acc.value == ref.value
    assert got.valuations == held.valuations


def assert_same_answers(wa, dense):
    """Behaviour table, mlt acceptor, listed traces and accepted traces
    agree with the dense reference; product searches may list states in
    another order."""
    table, expected = wa.behaviour_table(), dense.behaviour_table()
    assert table.values == expected.values
    assert expected.sweeps <= len(dense.states)
    assert table.value == expected.value
    acc, ref = mlt_acceptor(wa), weighted_reference.mlt_acceptor(dense)
    assert_tight_part(acc, ref, dense)
    for count, max_len in LISTING_PAIRS:
        listed = enumerate_mlts(acc, count, max_len)
        assert listed == weighted_reference.enumerate_mlts(ref, count, max_len)
    listed = enumerate_mlts(acc, 4, 6)
    # listed traces, random walks along the tight edges, and random traces
    # over the valuations the states carry
    rng = random.Random(len(ref.edges))
    alphabet = sorted(set(dense.valuations.values()), key=sorted) or [frozenset()]
    traces = listed + reference_walks(ref, rng, 30) + [
        tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 4))) for _ in range(30)
    ]
    for trace in traces:
        assert acc.accepts(trace) == ref.accepts(trace), trace


def check_against_dense(f, traces):
    wa = build_weighted(f)
    assert_groups_partition_children(wa)
    dense = expand(wa)
    assert_same_answers(wa, dense)
    names = sorted(vars_of(f))
    nfas = [universal(names)]
    for trace in traces:
        nfas += [TraceNFA.from_trace(trace), TraceNFA.extends_prefix(trace, names)]
    for nfa in nfas:
        prod = product(nfa, wa)
        reference = weighted_reference.product(nfa, dense)
        assert_groups_partition_children(prod)
        got = expand(prod)
        assert set(got.states) == set(reference.states)
        assert got.initial == reference.initial
        assert got.finals == reference.finals
        assert got.weights == reference.weights
        assert_same_answers(prod, reference)


class TestGroupedEdges:
    """Grouped edges give the answers of one dense entry per edge."""

    def test_three_bound_groups(self):
        wa = build_weighted(parse_formula(THREE_BOUNDS))
        # 24 rows of 8 states each: 192 states, which hold 1280 groups
        assert (len(wa.groups), len(wa.states)) == (24, 192)
        assert sum(len(wa.groups[r]) for r, _ in wa.pairs.values()) == 1280
        assert len(wa.children) == 16
        assert len(wa.weights) == 24576
        assert_groups_partition_children(wa)

    def test_dense_view_matches_weight_lookup(self, wa_psi):
        for (src, dst), wt in wa_psi.weights.items():
            assert wa_psi.weight(src, dst) == wt
        assert wa_psi.weight(wa_psi.states[0], "absent") == 0

    @pytest.mark.parametrize("text", QUERY_FORMULAS + (THREE_BOUNDS,))
    def test_named_formulas_match_dense_reference(self, text):
        f = parse_formula(text)
        acc = mlt_acceptor(build_weighted(f))
        traces = enumerate_mlts(acc, 2, 4) if acc.value > 0 else []
        check_against_dense(f, traces + [parse_trace("-;a")])

    @settings(max_examples=40)
    @given(sts.formulas(), sts.traces(max_size=3))
    def test_random_formulas_match_dense_reference(self, f, trace):
        assume(len(TreeAutomaton(f).atoms) <= 256)
        check_against_dense(f, [trace])


class TestTightPart:
    """The mlt acceptor is the tight part of the weighted automaton: a
    weighted automaton itself, with the same behaviour, whose every group
    lies on a best run and whose every state reaches a final one."""

    @settings(max_examples=40)
    @given(sts.formulas())
    def test_acceptor_is_the_tight_part(self, f):
        assume(len(TreeAutomaton(f).atoms) <= 256)
        wa = build_weighted(f)
        acc = mlt_acceptor(wa)
        w = wa.behaviour_table().values
        assert behaviour(acc) == behaviour(wa)
        assert acc.behaviour_table().values == {q: w[q] for q in acc.states}
        dense = expand(acc)
        for (q, c), wt in dense.weights.items():
            assert wt == wa.weight(q, c)
            assert wt * w[c] == w[q]
        # every state reaches a final one along the acceptor's edges
        reaching = set(dense.finals)
        grown = True
        while grown:
            before = len(reaching)
            reaching.update(q for q in dense.states if any(c in reaching for c in dense.succ[q]))
            grown = len(reaching) > before
        assert reaching == set(dense.states)


class TestBehaviour:
    def test_running_examples(self, wa0, wa_psi, phi1):
        assert behaviour(wa0) == 1
        assert behaviour(wa_psi) == 1
        assert behaviour(build_weighted(phi1)) == 0

    def test_fixpoint_matches_naive_iteration(self, wa_psi, wa0):
        # the settle has no sweeps; the naive iteration's count is bounded
        for wa in (wa0, wa_psi):
            values, sweeps = naive_fixpoint(wa)
            assert wa.behaviour_table().values == values
            assert sweeps <= len(wa.states)

    def test_sweeps_grow_pointwise(self, wa_psi):
        previous = {q: Fraction(0) for q in wa_psi.states}
        for current in fixpoint_history(wa_psi):
            for q in wa_psi.states:
                assert current[q] >= previous[q]
            previous = current

    def test_positive_behaviour_iff_satisfiable(self):
        for f in formula_family(60):
            assert (behaviour(build_weighted(f)) > 0) == is_satisfiable(f), str(f)

    def test_behaviour_bounded_by_one(self):
        for f in formula_family(40):
            assert 0 <= behaviour(build_weighted(f)) <= 1


class TestRowSettle:
    """The behaviour settles rows, highest value first, which is exact
    only because every group weight lies in (0, 1]."""

    @pytest.mark.parametrize("wt", [Fraction(0), Fraction(-1, 2), Fraction(3, 2), Fraction(2)])
    def test_weights_outside_the_unit_interval_are_rejected(self, wt):
        wa = weighted.WeightedAutomaton(
            {EMPTY: (0,)}, (2,), (((Fraction(1, 2), 0),), ((wt, 1),), ()),
            ({EMPTY: (1,)}, {EMPTY: (2,)}),
        )
        with pytest.raises(ValueError, match="outside"):
            wa.behaviour_table()

    def test_hand_built_rows_settle_in_decreasing_value(self):
        # rows 0 and 1 have equal groups; the best row of the tuple (2, 3)
        # is 3, worth 1/2 through the final 4, although 2's own edge
        # weighs 1
        half, one = Fraction(1, 2), Fraction(1)
        groups = (((one, 0),), ((one, 0),), ((one, 1),), ((half, 2),), (), ((one, 1),))
        wa = weighted.WeightedAutomaton(
            {EMPTY: (0, 5)}, (4,), groups, ({EMPTY: (2, 3)}, {EMPTY: (5,)}, {EMPTY: (4,)}),
        )
        table = wa.behaviour_table()
        assert table.rows == (half, half, 0, half, one, 0)
        assert table.values == {(r, EMPTY): table.rows[r] for r in (0, 5, 2, 3, 4)}
        assert table.value == half
        assert table.rows[0] is table.rows[1]
        assert table.values == weighted_reference._fixpoint(expand(wa)).values


    def test_equal_weights_built_apart_settle_as_one_value(self):
        # 0 -> 1 -> (2, 3) -> 4 over Fraction(1, 2) built twice, and 6 over
        # the tuple (1, 5), where 5 reaches 4 through a weight of 1/4: equal
        # values come out as one object however they were multiplied, so
        # every group is tight and both tuples keep both children
        h1, h2, quarter, one = Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), Fraction(1)
        assert h1 is not h2
        groups = (
            ((h1, 0),), ((h2, 1),), ((h1, 2),), ((h2, 2),), (), ((quarter, 2),), ((one, 3),),
        )
        children = ({EMPTY: (1,)}, {EMPTY: (2, 3)}, {EMPTY: (4,)}, {EMPTY: (1, 5)})
        wa = weighted.WeightedAutomaton({EMPTY: (0, 6)}, (4,), groups, children)
        table = wa.behaviour_table()
        assert table.values == weighted_reference._fixpoint(expand(wa)).values
        assert table.rows == (Fraction(1, 8), quarter, h1, h1, one, quarter, quarter)
        assert table.values == {(r, EMPTY): v for r, v in enumerate(table.rows)}
        assert table.rows[2] is table.rows[3]
        assert table.rows[1] is table.rows[5]
        assert table.best == (quarter, h1, one, quarter)
        acc = mlt_acceptor(wa)
        assert acc.initial == {EMPTY: (6,)}
        assert acc.groups == groups
        assert acc.children == children
        assert enumerate_mlts(acc, 3, 6) == [(frozenset(),) * 3, (frozenset(),) * 4]

    def test_out_of_range_weight_shared_by_two_rows_is_rejected(self):
        bad = Fraction(3, 2)
        wa = weighted.WeightedAutomaton(
            {EMPTY: (0,)}, (2,), (((bad, 0),), ((bad, 1),), ()), ({EMPTY: (1,)}, {EMPTY: (2,)}),
        )
        with pytest.raises(ValueError, match=r"^group weight 3/2 of row 0 is outside \(0, 1\]$"):
            wa.behaviour_table()
        with pytest.raises(ValueError, match="outside"):
            mlt_acceptor(wa)


def identical_when_equal(values) -> bool:
    """Whether equal values among ``values`` are one object."""
    return len({id(v) for v in values}) == len(set(values))


class TestDistinctValues:
    """The settle and the carve work on distinct values: each number is
    one object within a settle, a product is made once per pair of them,
    and the answers are the dense reference's."""

    @settings(max_examples=25, deadline=None)
    @given(sts.several_bounds(2, 3, max_atoms=512), sts.traces(max_size=3))
    def test_settle_and_carve_match_the_dense_reference(self, f, trace):
        wa = build_weighted(f)
        self.check(wa, expand(wa))
        # most compiled values are 1; a product with a trace or a prefix
        # forces runs through lighter edges, so its values are products
        # of several weights
        for nfa in (TraceNFA.from_trace(trace), TraceNFA.extends_prefix(trace, sorted(vars_of(f)))):
            self.check(product(nfa, wa), weighted_reference.product(nfa, expand(wa)))

    @staticmethod
    def check(wa, dense):
        table, expected = wa.behaviour_table(), weighted_reference._fixpoint(dense)
        assert table.values == expected.values
        assert table.value == expected.value
        assert table.best == tuple(
            max(expected.values[wa.name(c, letter)] for letter, rows in kids.items() for c in rows)
            for kids in wa.children
        )
        assert identical_when_equal([v for v in table.values.values() if v])
        acc, ref = mlt_acceptor(wa), weighted_reference.mlt_acceptor(dense)
        assert_tight_part(acc, ref, dense)
        for count, max_len in LISTING_PAIRS:
            listed = enumerate_mlts(acc, count, max_len)
            assert listed == weighted_reference.enumerate_mlts(ref, count, max_len)

    @staticmethod
    def fraction_calls(monkeypatch, run) -> dict:
        """Calls of ``Fraction`` multiplication, equality and ``<=`` made
        by ``run()``."""
        counts = dict.fromkeys(("__mul__", "__eq__", "__le__"), 0)
        with monkeypatch.context() as patch:
            for name in counts:
                def counting(a, b, _name=name, _method=getattr(Fraction, name)):
                    counts[_name] += 1
                    return _method(a, b)

                patch.setattr(Fraction, name, counting)
            run()
        return counts

    @staticmethod
    def settle_and_carve(wa):
        return lambda: mlt_acceptor(wa).value

    def test_three_bounds_multiply_once_per_value_and_weight(self, monkeypatch):
        wa = build_weighted(parse_formula(THREE_BOUNDS))
        counts = self.fraction_calls(monkeypatch, self.settle_and_carve(wa))
        table = wa.behaviour_table()
        values = {v for v in table.values.values() if v}
        weights = [wt for groups in wa.groups for wt, _ in groups]
        assert (len(values), len(set(weights))) == (1, 6)
        assert counts["__mul__"] <= len(values) * len(set(weights))
        assert counts["__eq__"] <= len(values) * len(set(weights))
        # the range check runs once per weight object, and equal weights
        # of the compiled automaton are one object
        assert counts["__le__"] == len({id(wt) for wt in weights}) == len(set(weights))

    def test_pair_free_counts_do_not_grow_with_the_automaton(self, monkeypatch):
        found = []
        for k in (8, 10):
            wa = build_weighted(parse_formula("X " * k + "a"))
            found.append(self.fraction_calls(monkeypatch, self.settle_and_carve(wa)))
            assert len(mlt_acceptor(wa).states) == len(wa.states)
        assert found[0] == found[1]
        assert all(n <= 2 for n in found[0].values())

    def test_pair_free_queries_make_no_product_or_equality(self, monkeypatch):
        # every value of X^k a is 1, and a query's products are interned,
        # so the forward pass and the prefix acceptor compare by ``is``
        found = []
        for k in (8, 10):
            aut = TreeAutomaton(parse_formula("X " * k + "a"))
            mlt_acceptor(aut.weighted)
            prefix, trace = parse_trace("-;a;-"), parse_trace("-;" * k + "a")
            found.append((
                self.fraction_calls(monkeypatch, lambda: prefix_extension_query(aut, prefix)),
                self.fraction_calls(monkeypatch, lambda: trace_probability(aut, trace)),
            ))
        assert found[0] == found[1]
        for counts in found[0]:
            assert counts["__mul__"] == counts["__eq__"] == 0

    def test_three_bound_queries_multiply_once_per_value_and_weight(self, monkeypatch):
        aut = TreeAutomaton(parse_formula(THREE_BOUNDS))
        wa = aut.weighted
        mlt_acceptor(wa)
        weights = {wt for groups in wa.groups for wt, _ in groups}
        for text, run in (("a;b", prefix_extension_query), ("a;b;c", trace_probability)):
            trace = parse_trace(text)
            counts = self.fraction_calls(monkeypatch, lambda: run(aut, trace))
            # the values the pass multiplies: those of its earlier letters,
            # and the prefix's end values times the behaviour's
            values = {
                v for i in range(1, len(trace) + 1)
                for v in weighted._forward(wa, trace[:i], weighted.Numbers()).values()
            }
            assert counts["__eq__"] == 0
            assert counts["__mul__"] <= len(values) * len(weights)

    def test_numbers_intern_values_and_products(self, monkeypatch):
        numbers = weighted.Numbers()
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        assert numbers.one(half) is half and numbers.one(Fraction(2, 4)) is half
        assert numbers.one(Fraction(0)) is weighted.ZERO
        assert numbers.one(Fraction(3, 3)) is weighted.ONE
        assert numbers.one(quarter) is quarter

        # equal products built apart come back as one object, each pair of
        # objects is multiplied once, and a weight of one multiplies nothing
        other, pairs = Fraction(1, 2), [(half, half), (quarter, half)] * 2
        made = []
        counts = self.fraction_calls(
            monkeypatch,
            lambda: made.extend(numbers.times(v, wt) for v, wt in [*pairs, (other, weighted.ONE)]),
        )
        assert counts["__mul__"] == 2
        assert made[0] is made[2] is quarter
        assert made[1] is made[3] == Fraction(1, 8)
        assert made[4] is other


class TestPrunedListing:
    """The depth-first listing gives the reference's level-by-level list
    where the language runs out and where it needs many letters."""

    @pytest.mark.parametrize("text", ["X a & !X X true", "a & !X true", "P<=0.5[a] & !X true"])
    def test_finite_languages_run_out(self, text):
        # fewer accepted traces than asked for, all shorter than max_len
        f = parse_formula(text)
        check_against_dense(f, [parse_trace("-")])
        listed = enumerate_mlts(mlt_acceptor(build_weighted(f)), 5, 20)
        assert 0 < len(listed) < 5
        assert max(map(len, listed)) <= 2

    def test_deep_next_chain(self):
        f = parse_formula("X " * 6 + "a")
        check_against_dense(f, [])
        assert len(enumerate_mlts(mlt_acceptor(build_weighted(f)), 3, 20)) == 3


def naive_fixpoint(wa):
    wa = expand(wa)
    values = {q: Fraction(1 if q in wa.finals else 0) for q in wa.states}
    sweeps = 0
    while True:
        nxt = {}
        for q in wa.states:
            best = Fraction(1 if q in wa.finals else 0)
            for (src, dst), wt in wa.weights.items():
                if src == q:
                    best = max(best, wt * values[dst])
            nxt[q] = best
        if nxt == values:
            return values, sweeps
        values = nxt
        sweeps += 1


def fixpoint_history(wa):
    wa = expand(wa)
    values = {q: Fraction(1 if q in wa.finals else 0) for q in wa.states}
    while True:
        yield values
        nxt = {
            q: max(
                [Fraction(1 if q in wa.finals else 0)]
                + [wt * values[dst] for (src, dst), wt in wa.weights.items() if src == q]
            )
            for q in wa.states
        }
        if nxt == values:
            return
        values = nxt


class TestMostLikelyTraces:
    def test_documented_traces_attain_one(self, wa_psi):
        acc = mlt_acceptor(wa_psi)
        assert acc.value == 1
        assert acc.accepts(parse_trace("-;a"))
        assert acc.accepts(parse_trace("-;-"))

    def test_documented_traces_for_two_bounds(self, wa0):
        acc = mlt_acceptor(wa0)
        assert acc.value == 1
        for text in ("-;-;b", "-;-;a,b", "-;-;b;-"):
            assert acc.accepts(parse_trace(text))

    def test_enumeration_is_shortest_first(self, wa0):
        acc = mlt_acceptor(wa0)
        traces = enumerate_mlts(acc, 6, 5)
        assert len(traces) == 6
        assert [len(t) for t in traces] == sorted(len(t) for t in traces)
        for t in traces:
            assert acc.accepts(t)

    def test_acceptor_is_exact_on_short_traces(self, wa0, phi0):
        acc = mlt_acceptor(wa0)
        for trace in all_traces(3):
            attained = behaviour(product(TraceNFA.from_trace(trace), wa0))
            assert acc.accepts(trace) == (attained == acc.value)

    def test_random_traces_never_beat_the_behaviour(self, wa_psi):
        rng = random.Random(11)
        acc = mlt_acceptor(wa_psi)
        for _ in range(100):
            trace = tuple(
                rng.choice(ALL_VALS) for _ in range(rng.randint(1, 5))
            )
            attained = behaviour(product(TraceNFA.from_trace(trace), wa_psi))
            assert attained <= acc.value
            assert acc.accepts(trace) == (attained == acc.value)

    def test_empty_acceptor_for_unsatisfiable(self, phi1):
        acc = mlt_acceptor(build_weighted(phi1))
        assert acc.value == 0
        assert not acc.accepts(parse_trace("-"))
        assert enumerate_mlts(acc, 3, 3) == []

    def test_enumeration_needs_positive_bounds(self, wa0):
        acc = mlt_acceptor(wa0)
        with pytest.raises(ValueError):
            enumerate_mlts(acc, 0, 3)
        with pytest.raises(ValueError):
            enumerate_mlts(acc, 3, 0)

    def test_accepts_rejects_empty_traces(self, wa0):
        with pytest.raises(ValueError):
            mlt_acceptor(wa0).accepts(())

    @settings(max_examples=20)
    @given(sts.formulas(max_leaves=3, prob_free=True))
    def test_plain_fragment_accepts_exactly_the_trace_models(self, f):
        # without probability bounds every edge carries mass one, so the
        # acceptor degenerates to the usual trace semantics; its alphabet
        # is the valuations over the formula's own propositions
        from pltlf import vars_of

        acc = mlt_acceptor(build_weighted(f))
        known = vars_of(f)
        for trace in all_traces(3):
            if not all(v <= known for v in trace):
                continue
            assert acc.accepts(trace) == eval_trace(f, trace)


class TestTraceProbability:
    def test_half_probability_trace(self, phi0):
        assert trace_probability(phi0, parse_trace("-;a;b")) == Fraction(1, 2)

    def test_capped_branch_trace(self, phi0):
        # the a-branch must leave 3/5 of the mass to branches delivering b
        assert trace_probability(phi0, parse_trace("-;a")) == Fraction(2, 5)

    def test_zero_for_impossible_trace(self, phi0):
        assert trace_probability(phi0, parse_trace("a")) == 0

    def test_prefix_flip_dodges_the_cap(self, psi):
        # the until bound does not cap this prefix: the successor atom may
        # carry the flipped bound, and a zero-mass sibling discharges the
        # refutation it owes, so mass 1 follows the observed positions
        trace = parse_trace("-;a;a;a,b")
        assert trace_probability(psi, trace) == 1
        value, acc = prefix_extension_query(psi, trace)
        assert value == 1
        assert acc.accepts(trace)

    def test_singleton_language_matches_trace_query(self, phi0, wa0):
        for trace in all_traces(2):
            nfa = TraceNFA.from_trace(trace)
            value, _ = language_probability(phi0, nfa)
            assert value == trace_probability(phi0, trace)

    def test_universal_language_matches_behaviour(self, phi0, psi, wa0, wa_psi):
        for f, wa in ((phi0, wa0), (psi, wa_psi)):
            value, _ = language_probability(f, universal(("a", "b")))
            assert value == behaviour(wa)

    def test_prefix_queries(self, phi0):
        value, acc = prefix_extension_query(phi0, parse_trace("-"))
        assert value == 1
        assert acc.accepts(parse_trace("-;-;b"))
        value, _ = prefix_extension_query(phi0, parse_trace("-;a"))
        assert value == Fraction(1, 2)

    def test_unknown_propositions_are_rejected(self, phi0):
        with pytest.raises(ValueError):
            trace_probability(phi0, parse_trace("c"))
        with pytest.raises(ValueError):
            prefix_extension_query(phi0, parse_trace("-;c"))

    def test_empty_inputs_are_rejected(self, phi0):
        with pytest.raises(ValueError):
            trace_probability(phi0, ())
        with pytest.raises(ValueError):
            prefix_extension_query(phi0, ())


def reference_answers(aut, trace) -> tuple:
    """The product path's answers for a trace and for it as a prefix:
    the trace's probability, then the prefix's value and extensions."""
    names = sorted(vars_of(aut.formula))
    value, acc = language_probability(aut, TraceNFA.extends_prefix(trace, names))
    return (
        behaviour(product(TraceNFA.from_trace(trace), aut.weighted)),
        value,
        enumerate_mlts(acc, 3, 6),
    )


def forward_answers(aut, trace) -> tuple:
    """The same answers from the forward pass over the compiled automaton,
    whose prefix acceptor must be a tight part: every run from an initial
    state weighs the prefix's value.  Unless that is zero, the acceptor is
    the mlt acceptor behind one row per earlier letter."""
    value, acc = prefix_extension_query(aut, trace)
    assert acc.value == value
    if value:
        assert len(acc.groups) == len(mlt_acceptor(aut.weighted).groups) + len(trace) - 1
    w = acc.behaviour_table().rows
    assert all(w[r] == value for rows in acc.initial.values() for r in rows)
    for r, groups in enumerate(acc.groups):
        for wt, k in groups:
            assert all(wt * w[c] == w[r] for rows in acc.children[k].values() for c in rows)
    return trace_probability(aut, trace), value, enumerate_mlts(acc, 3, 6)


class TestForwardQueries:
    """Trace and prefix queries run one forward pass over the compiled
    automaton and build no product; the product with a trace or prefix
    acceptor, which answers any trace language, is their reference."""

    @pytest.mark.parametrize("text", QUERY_FORMULAS + (THREE_BOUNDS, "F a", "G(a -> X b)"))
    def test_named_formulas_match_the_product_path(self, text):
        aut = TreeAutomaton(parse_formula(text))
        names = vars_of(aut.formula)
        for trace in all_traces(3):
            trace = tuple(v & names for v in trace)
            assert forward_answers(aut, trace) == reference_answers(aut, trace)

    @settings(max_examples=40)
    @given(
        st.one_of(sts.formulas(), sts.formulas(prob_free=True)),
        st.lists(sts.traces(max_size=6), min_size=1, max_size=3),
    )
    def test_random_formulas_match_the_product_path(self, f, traces):
        aut = TreeAutomaton(f)
        assume(len(aut.atoms) <= 256)
        names = vars_of(f)
        for trace in traces:
            trace = tuple(v & names for v in trace)
            assert forward_answers(aut, trace) == reference_answers(aut, trace)

    def test_one_letter_prefix_starts_in_the_mlt_acceptor(self, psi):
        aut = TreeAutomaton(psi)
        prefix = parse_trace("a")
        value, acc = prefix_extension_query(aut, prefix)
        assert value > 0
        # no chain: the first letter enters rows of the mlt acceptor
        rows = len(mlt_acceptor(aut.weighted).groups)
        assert len(acc.groups) == rows
        assert all(r < rows for entered in acc.initial.values() for r in entered)
        assert forward_answers(aut, prefix) == reference_answers(aut, prefix)

    def test_prefix_ending_in_a_final_state_lists_itself_first(self):
        aut = TreeAutomaton(parse_formula("F a"))
        prefix = parse_trace("a")
        got = forward_answers(aut, prefix)
        assert got == reference_answers(aut, prefix)
        assert got[1] == 1 and got[2][0] == prefix

    def test_zero_prefix_has_an_empty_acceptor(self, psi):
        aut = TreeAutomaton(psi)
        prefix = parse_trace("-;b")
        value, acc = prefix_extension_query(aut, prefix)
        assert value == 0 and acc.states == () and not acc.initial
        assert forward_answers(aut, prefix) == reference_answers(aut, prefix) == (0, 0, [])

    def test_unsatisfiable_formula(self, phi1):
        aut = TreeAutomaton(phi1)
        for text in ("-", "a", "a;-", "-;a"):
            trace = parse_trace(text)
            assert forward_answers(aut, trace) == reference_answers(aut, trace) == (0, 0, [])

    def test_queries_build_no_product(self, monkeypatch, psi):
        aut = TreeAutomaton(psi)

        def never(*args):
            raise AssertionError("a trace or prefix query built a product")

        monkeypatch.setattr(weighted, "product", never)
        assert trace_probability(aut, parse_trace("-;a;b")) >= 0
        assert prefix_extension_query(aut, parse_trace("-;a"))[0] == Fraction(1)

    def test_mlt_then_prefix_settle_and_carve_once(self, monkeypatch, psi):
        counts = {"_settle": 0, "_tight_part": 0}
        for name in counts:
            def counted(wa, _fn=getattr(weighted, name), _name=name):
                counts[_name] += 1
                return _fn(wa)

            monkeypatch.setattr(weighted, name, counted)
        aut = TreeAutomaton(psi)
        acc = mlt_acceptor(aut.weighted)
        assert enumerate_mlts(acc, 4, 6)
        value, extensions = prefix_extension_query(aut, parse_trace("-;a"))
        assert value > 0 and enumerate_mlts(extensions, 3, 6)
        assert mlt_acceptor(aut.weighted) is acc
        assert counts == {"_settle": 1, "_tight_part": 1}


class TestRowForm:
    """One state per row, with letters on the edges: every query reads
    rows, and answers as the dense reference does on :func:`expand`'s
    state form, one state per (row, letter) pair."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            sts.several_bounds(2, 3, max_atoms=512),
            sts.formulas(max_leaves=4, prob_free=True),
            st.sampled_from((PHI0_TEXT, PHI1_TEXT, PSI_TEXT, THREE_BOUNDS)).map(parse_formula),
        ),
        st.lists(sts.traces(max_size=5), min_size=1, max_size=3),
    )
    def test_queries_match_the_dense_reference(self, f, drawn):
        aut = TreeAutomaton(f)
        assume(len(aut) <= 1024)
        wa, names = aut.weighted, vars_of(f)
        dense = expand(wa)
        table, expected = wa.behaviour_table(), dense.behaviour_table()
        assert table.values == expected.values and table.value == expected.value
        acc, ref = mlt_acceptor(wa), weighted_reference.mlt_acceptor(dense)
        assert enumerate_mlts(acc, 5, 8) == weighted_reference.enumerate_mlts(ref, 5, 8)
        for trace in [tuple(v & names for v in t) for t in drawn]:
            assert acc.accepts(trace) == ref.accepts(trace)
            single = weighted_reference.product(TraceNFA.from_trace(trace), dense)
            assert trace_probability(aut, trace) == single.behaviour_table().value
            value, extensions = prefix_extension_query(aut, trace)
            prefixed = weighted_reference.product(TraceNFA.extends_prefix(trace, sorted(names)), dense)
            assert value == prefixed.behaviour_table().value
            reference = weighted_reference.mlt_acceptor(prefixed)
            assert enumerate_mlts(extensions, 3, 6) == weighted_reference.enumerate_mlts(reference, 3, 6)
            for other in [tuple(v & names for v in t) for t in drawn]:
                longer = trace + other
                assert extensions.accepts(longer) == reference.accepts(longer)

    def test_distances_are_found_once_per_mlt_acceptor(self, monkeypatch):
        found = []
        distances = weighted._distances
        monkeypatch.setattr(weighted, "_distances", lambda acc: found.append(acc) or distances(acc))
        aut = TreeAutomaton(parse_formula("X X X a & F b"))
        acc = mlt_acceptor(aut.weighted)
        assert enumerate_mlts(acc, 3, 8)
        for text in ("-", "-;b", "-;-;-;a", "b;-;-;a,b", "a"):
            value, extensions = prefix_extension_query(aut, parse_trace(text))
            assert value > 0 and enumerate_mlts(extensions, 3, 8)
        assert enumerate_mlts(acc, 3, 8)
        assert found == [acc]

    def test_no_query_builds_the_state_view(self):
        aut = TreeAutomaton(parse_formula(THREE_BOUNDS))
        wa = aut.weighted
        acc = mlt_acceptor(wa)
        assert enumerate_mlts(acc, 4, 6)
        value, extensions = prefix_extension_query(aut, parse_trace("a;b"))
        assert value > 0 and enumerate_mlts(extensions, 3, 6)
        assert trace_probability(aut, parse_trace("a;b;c")) >= 0
        table = build_lphi(parse_pltlf0((DATA / "psi1.p0").read_text()))
        state, rng = start_monitor(table), random.Random(5)
        for _ in range(50):
            state = monitor_step(state, rng.choice(ALL_VALS))
        flat = table.acceptors[0].automaton._weighted  # built by the first step
        assert flat is not None and len(state.entries) > 0
        for automaton in (wa, acc, extensions, flat):
            assert not {"pairs", "weights"} & automaton.__dict__.keys()
        assert len(wa.behaviour_table().rows) == len(wa.groups) == len(aut.rows) == 24


class TestTraceNFA:
    def test_single_trace_acceptor(self):
        trace = parse_trace("-;a;a,b")
        nfa = TraceNFA.from_trace(trace)
        for t in all_traces(4):
            assert nfa.accepts(t) == (t == trace)

    def test_universal_acceptor(self):
        nfa = universal(("a", "b"))
        for t in all_traces(3):
            assert nfa.accepts(t)

    def test_prefix_acceptor(self):
        prefix = parse_trace("-;a")
        nfa = TraceNFA.extends_prefix(prefix, ("a", "b"))
        for t in all_traces(4):
            assert nfa.accepts(t) == (t[: len(prefix)] == prefix)

    def test_rejects_undeclared_states(self):
        with pytest.raises(ValueError):
            TraceNFA((0,), (0,), (0,), [(0, frozenset("a"), 1)])
        with pytest.raises(ValueError):
            TraceNFA((0,), (1,), (0,), [])

    def test_empty_trace_constructions_are_rejected(self):
        with pytest.raises(ValueError):
            TraceNFA.from_trace(())
        with pytest.raises(ValueError):
            TraceNFA.extends_prefix((), ("a",))


class TestProduct:
    def test_product_weights_come_from_the_weighted_side(self, wa0):
        prod = product(universal(("a", "b")), wa0)
        for ((b, _), (b2, _)), wt in prod.weights.items():
            assert wa0.weight(b, b2) == wt

    def test_product_runs_are_filtered_runs(self, wa0):
        # restricting to a single trace leaves only that trace's mass
        prod = product(TraceNFA.from_trace(parse_trace("-;-;b")), wa0)
        assert behaviour(prod) == 1
        # the second bound forces a second position, so one-step traces die
        empty = product(TraceNFA.from_trace(parse_trace("b")), wa0)
        assert behaviour(empty) == 0


def tree_answers(source, f, traces, prefix):
    """Every tree query on ``source``, a formula or its compiled automaton;
    ``f`` names the propositions of the universal language."""
    model = witness_model(source)
    wa = weighted.build_weighted(source)
    value, acc = prefix_extension_query(source, prefix)
    best, best_acc = language_probability(source, universal(sorted(vars_of(f))))
    return (
        is_satisfiable(source),
        None if model is None else model.to_dict(),
        behaviour(wa),
        enumerate_mlts(mlt_acceptor(wa), 4, 6),
        [trace_probability(source, trace) for trace in traces],
        (value, enumerate_mlts(acc, 3, 6)),
        (best, enumerate_mlts(best_acc, 3, 6)),
    )


class TestCompileOnce:
    """Every tree query takes the compiled automaton: it is built once, its
    weighted automaton once, and the answers equal the formula path's."""

    @staticmethod
    def check(f, traces, prefix):
        # keep the traces on the formula's propositions, as queries require
        names = vars_of(f)
        traces = [tuple(v & names for v in trace) for trace in traces]
        prefix = tuple(v & names for v in prefix)
        expected = tree_answers(f, f, traces, prefix)
        counts = {"automata": 0, "weighted": 0}
        init, build = TreeAutomaton.__init__, weighted.build_weighted

        def counted_init(self, formula):
            counts["automata"] += 1
            init(self, formula)

        def counted_build(source):
            counts["weighted"] += 1
            return build(source)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TreeAutomaton, "__init__", counted_init)
            mp.setattr(weighted, "build_weighted", counted_build)
            aut = TreeAutomaton(f)
            got = tree_answers(aut, f, traces, prefix)
        assert counts == {"automata": 1, "weighted": 1}
        assert got == expected
        assert aut.weighted is build_weighted(aut)

    @pytest.mark.parametrize("text", QUERY_FORMULAS)
    def test_named_formulas(self, text):
        traces = [parse_trace(t) for t in ("-;a", "a;-;b", "a,b")]
        self.check(parse_formula(text), traces, parse_trace("-"))

    @settings(max_examples=20)
    @given(sts.formulas(), st.lists(sts.traces(max_size=3), min_size=4, max_size=4))
    def test_random_formulas(self, f, drawn):
        assume(len(TreeAutomaton(f).atoms) <= 256)
        self.check(f, drawn[:3], drawn[3])


class TestNestedBounds:
    """Bounds inside bounds: the parser accepts them and the tree engine
    decides them.  No independent oracle covers them, since the bounded
    model search takes at most one bound."""

    @pytest.mark.parametrize("text", ["P<=0.5[P<=0.5[a]]", "P>=0.7[P>=0.7[X a]] & P>0.5[X !a]"])
    def test_satisfiable_with_checked_witness_and_mlts(self, text):
        f = parse_formula(text)
        assert is_satisfiable(f)
        assert check_model(witness_model(f), f)
        wa = build_weighted(f)
        value = behaviour(wa)
        traces = enumerate_mlts(mlt_acceptor(wa), 4, 8)
        assert traces
        for trace in traces:
            assert trace_probability(f, trace) == value

    @pytest.mark.parametrize(
        "text",
        [
            "P>=0.6[P>=0.6[a]] & P>=0.6[P<0.6[a]]",
            "P>0.5[P>0.5[a]] & P>0.5[P<=0.5[a]]",
        ],
    )
    def test_outer_masses_of_exclusive_inner_bounds_cannot_both_hold(self, text):
        # the inner bounds exclude each other, so the outer masses would
        # have to sum to more than 1
        f = parse_formula(text)
        assert not is_satisfiable(f)
        assert witness_model(f) is None
