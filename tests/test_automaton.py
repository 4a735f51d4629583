"""Tree automaton: scenarios, transitions, good states, witness models."""

import gc
import random
import weakref
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import atom_reference
import family_reference
import simplex_reference
import strategies as sts
from oracles import (
    bounded_satisfiable,
    bounds_in,
    fm_feasible,
    formula_family,
    recheck_tuple,
    render_rows,
)
from pltlf import (
    TreeAutomaton,
    WitnessModel,
    atom_of_members,
    build_weighted,
    check_model,
    is_satisfiable,
    maximize,
    negate,
    normalize,
    parse_formula,
    parse_trace,
    solve_feasibility,
    trace_probability,
    witness_model,
)
import pltlf.automaton as automaton_module
from pltlf.closure import Atom
from pltlf.linsolve import LinearProgram
from pltlf.syntax import And, Comparison, Prob

from conftest import LARGER_TEXTS, PSI_TEXT
from test_linsolve import system_program


def everything(aut) -> frozenset:
    """Every atom of the automaton, the restriction that excludes none."""
    return frozenset(range(len(aut.atoms)))


def named(aut, key):
    """A branch program's column key as ``build_system`` spells it: a
    profile as its subset name, eps and slacks as they are."""
    return automaton_module._qset_name(key, len(aut._pairs)) if isinstance(key, int) else key


def by_name(aut, point: dict) -> dict:
    """A branch point by profile, keyed by ``build_system``'s names."""
    return {named(aut, q): mass for q, mass in point.items()}


def atom_id(aut, positives, negated):
    """Atom index from its members; negated entries are given positively."""
    ms = [normalize(parse_formula(t)) for t in positives]
    ms += [negate(normalize(parse_formula(t))) for t in negated]
    return aut.atoms.index(atom_of_members(aut.closure, ms))


@pytest.fixture(scope="module")
def aut0(phi0):
    return TreeAutomaton(phi0)


@pytest.fixture(scope="module")
def aut_psi(psi):
    return TreeAutomaton(psi)


P07 = "P<=0.7[a U b]"
P06 = "P<=0.6[X(!a & !b)]"

# States of the automaton for PSI_TEXT, by their ten members each.
PSI_ATOMS = {
    "a1": (
        [PSI_TEXT, "X !b", P07, P06, "!a & !b"],
        ["a U b", "a", "b", "X(a U b)", "X(!a & !b)"],
    ),
    "a2": (
        [PSI_TEXT, "X !b", P07, P06, "!a & !b", "X(!a & !b)"],
        ["a U b", "a", "b", "X(a U b)"],
    ),
    "a3": (
        [P07, P06, "a U b", "a", "X(a U b)"],
        [PSI_TEXT, "X !b", "b", "!a & !b", "X(!a & !b)"],
    ),
    "a4": (
        [P07, P06, "a", "X(!a & !b)"],
        [PSI_TEXT, "X !b", "a U b", "b", "X(a U b)", "!a & !b"],
    ),
    "a5": (
        [P07, P06, "a U b", "a", "X(a U b)", "X(!a & !b)"],
        [PSI_TEXT, "X !b", "b", "!a & !b"],
    ),
    "a8": (
        ["X !b", P06, "a U b", "a", "X(a U b)"],
        [PSI_TEXT, P07, "b", "!a & !b", "X(!a & !b)"],
    ),
}


@pytest.fixture(scope="module")
def psi_ids(aut_psi):
    return {k: atom_id(aut_psi, pos, neg) for k, (pos, neg) in PSI_ATOMS.items()}


class TestStates:
    def test_state_space_size(self, aut0):
        # closure of phi0 has 6 pairs, 5 of them free
        assert len(aut0.atoms) == 32
        assert len(aut0.initial) == 8

    def test_initial_states_contain_the_formula(self, aut0, phi0):
        root = normalize(phi0)
        for aid, atom in enumerate(aut0.atoms):
            assert (aid in aut0.initial) == (root in atom)

    def test_final_states_need_no_future(self, aut_psi):
        # no next member, and every probability bound accepts zero mass
        for aid, atom in enumerate(aut_psi.atoms):
            nexts = [g for g in atom.members() if type(g).__name__ == "Next"]
            zero_ok = all(
                m.cmp.holds(Fraction(0), m.bound) for m in atom.prob_members()
            )
            assert aut_psi.final[aid] == (not nexts and zero_ok)

    def test_prob_members_follow_pair_order(self, aut_psi, psi_ids):
        members = family_reference.prob_members(aut_psi, psi_ids["a1"])
        assert [str(m) for m in members] == ["P<=7/10[a U b]", "P<=3/5[X(!a & !b)]"]
        branches = aut_psi.branches[aut_psi._prob_sig[psi_ids["a1"]]]
        assert branches.bounds == ((Comparison.LE, 7, 10), (Comparison.LE, 3, 5))


class TestScenarios:
    def test_two_bound_feasibility_gate(self, aut0):
        # P<=0.5[a] & P>=0.6[X b]: children split over subsets of the two
        # bound arguments; mass on {2},{1,2} can reach 3/5, mass off {2},{1,2}
        # cannot stay under 1/2 once the empty subset joins
        aid = aut0.initial[0]
        assert solve_feasibility(aut0.build_system(aid, (1, 2, 3))).feasible
        assert not solve_feasibility(aut0.build_system(aid, (0, 1, 3))).feasible
        family = {r.qsets for r in aut0.scenario_family(aid)}
        assert (1, 2, 3) in family
        assert (0, 1, 3) not in family

    def test_family_matches_plain_enumeration(self, aut0):
        aid = aut0.initial[0]
        family = {r.qsets for r in aut0.scenario_family(aid)}
        from itertools import combinations

        expected = set()
        for size in range(1, 5):
            for chosen in combinations(range(4), size):
                if solve_feasibility(aut0.build_system(aid, chosen)).feasible:
                    expected.add(chosen)
        assert family == expected

    def test_branch_system_rows(self, aut0):
        aid = aut0.initial[0]
        rows = render_rows(aut0.build_system(aid, (1, 2, 3)))
        assert rows[0] == "x{1} + x{1,2} <= 1/2"
        assert rows[1] == "x{2} + x{1,2} >= 3/5"
        assert rows[-1] == "x{1} + x{2} + x{1,2} = 1"

    def test_branch_maxima(self, aut0):
        # independent per-subset maxima over the same scenario system
        aid = aut0.initial[0]
        system = aut0.build_system(aid, (1, 2, 3))
        assert maximize(system, "x{2}").supremum == 1
        assert maximize(system, "x{1,2}").supremum == Fraction(1, 2)
        assert maximize(system, "x{1}").supremum == Fraction(2, 5)

    def test_scenario_membership_for_until_pair(self, aut_psi, psi_ids):
        # subsets {Qa},{Qab} alone put all mass under the 7/10 cap
        for name in ("a1", "a2", "a3"):
            family = {r.qsets for r in aut_psi.scenario_family(psi_ids[name])}
            assert (1, 2, 3) in family
            assert (1, 2) in family
            assert (1, 3) not in family
            assert (1,) not in family
            assert (3,) not in family

    def test_scenario_witness_solves_system(self, aut_psi, psi_ids):
        aid = psi_ids["a1"]
        for record in aut_psi.scenario_family(aid):
            point = branches_of(aut_psi, aid).point(record.qsets)
            assert record.system.holds(by_name(aut_psi, point))


class TestTransitions:
    def test_documented_tuples_present(self, aut_psi, psi_ids):
        i = psi_ids
        tuples = set(atom_reference.transition_tuples(aut_psi, i["a1"], (1, 2, 3)))
        for first in ("a3", "a8"):
            for second in ("a4", "a2"):
                assert (i[first], i[second], i["a5"]) in tuples

    def test_third_position_is_always_bad(self, aut_psi, psi_ids):
        # a child witnessing both bounds needs a U b next to !a & !b
        good = aut_psi.good_states().good
        for tup in atom_reference.transition_tuples(aut_psi, psi_ids["a1"], (1, 2, 3)):
            assert tup[2] not in good

    def test_forced_next_blocks_tuples(self, aut_psi, psi_ids):
        # X(!a & !b) in the source makes a U b unreachable in children
        assert list(atom_reference.transition_tuples(aut_psi, psi_ids["a2"], (1, 2, 3))) == []
        assert list(atom_reference.transition_tuples(aut_psi, psi_ids["a2"], (1, 2))) == []
        kept = aut_psi.kept(psi_ids["a2"], everything(aut_psi))
        for qsets in ((1, 2, 3), (1, 2)):
            assert aut_psi.first_tuple(psi_ids["a2"], qsets, kept) is None

    def test_two_child_tuple_present(self, aut_psi, psi_ids):
        i = psi_ids
        tuples = set(atom_reference.transition_tuples(aut_psi, i["a1"], (1, 2)))
        assert (i["a3"], i["a4"]) in tuples
        assert (i["a8"], i["a2"]) in tuples

    def test_dead_ends_have_no_tuples(self, aut_psi, psi_ids):
        for name in ("a3", "a4", "a5"):
            aid = psi_ids[name]
            kept = aut_psi.kept(aid, everything(aut_psi))
            for record in aut_psi.scenario_family(aid):
                assert not atom_reference.has_transition(aut_psi, aid, record.qsets, None)
                assert aut_psi.first_tuple(aid, record.qsets, kept) is None

    def test_every_tuple_passes_independent_recheck(self, aut0):
        for aid in range(len(aut0.atoms)):
            for record in aut0.scenario_family(aid):
                for tup in islice(
                    atom_reference.transition_tuples(aut0, aid, record.qsets), 50
                ):
                    assert recheck_tuple(aut0, aid, record.qsets, tup)

    def test_recheck_rejects_foreign_tuples(self, aut_psi, psi_ids):
        i = psi_ids
        bad = (i["a2"], i["a4"], i["a5"])  # a2 lacks a U b at the {Qa} slot
        assert not recheck_tuple(aut_psi, i["a1"], (1, 2, 3), bad)
        assert bad not in set(atom_reference.transition_tuples(aut_psi, i["a1"], (1, 2, 3)))

    @settings(max_examples=25)
    @given(sts.formulas(max_leaves=3))
    def test_tuples_recheck_on_random_formulas(self, f):
        aut = TreeAutomaton(f)
        for aid in islice(aut.initial, 4):
            for record in islice(aut.scenario_family(aid), 6):
                for tup in islice(atom_reference.transition_tuples(aut, aid, record.qsets), 20):
                    assert recheck_tuple(aut, aid, record.qsets, tup)

    def test_has_transition_agrees_with_enumeration(self, aut0):
        good = aut0.good_states().good
        for aid in range(len(aut0.atoms)):
            for record in aut0.scenario_family(aid):
                for restrict in (everything(aut0), good):
                    exists = next(
                        iter(atom_reference.transition_tuples(aut0, aid, record.qsets, restrict)),
                        None,
                    )
                    assert atom_reference.has_transition(aut0, aid, record.qsets, restrict) == (
                        exists is not None
                    )
                    kept = aut0.kept(aid, restrict)
                    assert aut0.first_tuple(aid, record.qsets, kept) == exists

    def test_occupants_match_enumerated_positions(self, aut0):
        for aid in aut0.initial:
            for record in aut0.scenario_family(aid):
                tuples = list(atom_reference.transition_tuples(aut0, aid, record.qsets))
                kept = aut0.kept(aid, everything(aut0))
                inside = family_reference.buckets_in(aut0, everything(aut0))
                occ = family_reference.occupants(aut0, aid, record.qsets, kept, inside)
                if not tuples:
                    assert occ == {}
                    continue
                for pos, q in enumerate(record.qsets):
                    seen = {t[pos] for t in tuples}
                    assert set(occ[q]) == seen

    def test_unary_successors_in_plain_case(self):
        # without bounds every child sits at profile 0, so the occupants
        # of the one position are the successors
        aut = TreeAutomaton(parse_formula("a U b"))
        for aid in range(len(aut.atoms)):
            via_tuples = {t[0] for t in atom_reference.transition_tuples(aut, aid, (0,))}
            kept = aut.kept(aid, everything(aut))
            inside = family_reference.buckets_in(aut, everything(aut))
            occ = family_reference.occupants(aut, aid, (0,), kept, inside)
            assert set(occ.get(0, ())) == via_tuples


class TestBuckets:
    @pytest.mark.parametrize(
        "text",
        [
            "P<=0.5[a] & P>=0.6[X b] & P>0.2[F c]",
            "P<=0.8[F a] & P<=0.7[G(a -> F b)]",
            "X X a & F b",
            "G(a -> X b)",
        ],
    )
    def test_atoms_are_bucketed_once_by_mask_and_profile(self, text, monkeypatch):
        # the one child index holds every atom once, under its
        # next-argument mask and probability-argument profile, each bucket
        # in atom order; without pairs a key is the next-argument mask.
        # Nothing after construction walks the atoms per next mask: the
        # good states never read the index, so no sweep scans a bucket for
        # its representative, and they, the weighted automaton and the
        # witness read each atom's next-argument mask at most once and its
        # profile exactly once, both as it joins, or never without pairs
        aut = TreeAutomaton(parse_formula(text))
        tables = atom_reference.masks(aut)
        expected = {}
        for cid, (args, q) in enumerate(zip(tables["next_args"], tables["parg"])):
            expected.setdefault(args << len(aut._pairs) | q, []).append(cid)
        assert aut._buckets == expected
        reads = {"next_args": [], "parg": []}

        class CountingList(list):
            def __init__(self, name, items):
                super().__init__(items)
                self.name = name

            def __getitem__(self, index):
                reads[self.name].append(index)
                return super().__getitem__(index)

        monkeypatch.setattr(aut, "_next_args", CountingList("next_args", aut._next_args))
        monkeypatch.setattr(aut, "_parg", CountingList("parg", aut._parg))
        index = aut._buckets
        aut._buckets = None
        good = aut.good_states().good
        aut._buckets = index
        build_weighted(aut)
        assert witness_model(aut) is not None
        assert len(reads["next_args"]) == len(set(reads["next_args"])) <= len(good)
        if aut._pairs:
            assert sorted(reads["parg"]) == sorted(good)
        else:
            assert reads["parg"] == []

    @pytest.mark.parametrize("text", ["X X a & F b", "G(a -> X b)", LARGER_TEXTS[0]])
    def test_pair_free_bucket_is_the_next_mask_index(self, text):
        self.check_pair_free(TreeAutomaton(parse_formula(text)))

    @settings(max_examples=30)
    @given(sts.formulas(prob_free=True))
    def test_random_pair_free_buckets(self, f):
        aut = TreeAutomaton(f)
        assume(len(aut.atoms) <= 512)
        self.check_pair_free(aut)

    @staticmethod
    def check_pair_free(aut):
        # without pairs the one child must refute every absent next member
        # itself: the one bucket is the atoms whose next-argument mask is
        # the parent's next mask, each covering every obligation, which are
        # the general rule's candidates that cover every obligation, and
        # the kept table is its first atom; the witness's general path
        # over it keeps the per-atom answer
        tables = atom_reference.masks(aut)
        present, args = tables["next_present"], tables["next_args"]
        everyone = (1 << len(aut.closure.next_members)) - 1
        for aid in range(len(aut.atoms)):
            obl = everyone & ~present[aid]
            bucket = [cid for cid in range(len(aut.atoms)) if args[cid] == present[aid]]
            assert aut._buckets.get(present[aid], []) == bucket
            general = full_cover(aut, aid, atom_reference.candidates(aut, aid))
            assert general.get(0, ()) == tuple((cid, obl) for cid in bucket)
            assert aut.kept(aid, everything(aut)) == bucket_view(general)
        model = witness_model(aut)
        assert model == atom_reference.witness_model(aut)
        assert model is None or check_model(model, aut.formula)


class TestReduction:
    def test_good_set_is_exactly_the_productive_fixpoint(self, aut_psi):
        gs = aut_psi.good_states()
        for aid in range(len(aut_psi.atoms)):
            productive = aut_psi.final[aid] or any(
                atom_reference.has_transition(aut_psi, aid, r.qsets, gs.good)
                for r in aut_psi.scenario_family(aid)
            )
            assert (aid in gs.good) == productive

    def test_distances_descend_along_some_transition(self, aut_psi):
        gs = aut_psi.good_states()
        for aid in gs.good:
            if aut_psi.final[aid]:
                assert gs.distance[aid] == 0
                continue
            drops = [
                tup
                for r in aut_psi.scenario_family(aid)
                for tup in atom_reference.transition_tuples(aut_psi, aid, r.qsets, gs.good)
                if all(gs.distance[c] < gs.distance[aid] for c in tup)
            ]
            assert drops

    def test_documented_states_survive_reduction(self, aut_psi, psi_ids):
        good = aut_psi.good_states().good
        i = psi_ids
        assert i["a1"] in aut_psi.initial and i["a2"] in aut_psi.initial
        assert i["a1"] in aut_psi.good_initial() and i["a2"] in aut_psi.good_initial()
        for name in ("a3", "a4", "a5"):
            assert i[name] not in good

    def test_model_bearing_edge_survives(self, aut_psi, psi_ids):
        good = aut_psi.good_states().good
        i = psi_ids
        tuples = set(atom_reference.transition_tuples(aut_psi, i["a1"], (1, 2), good))
        assert (i["a8"], i["a2"]) in tuples
        kept = aut_psi.kept(i["a1"], good)
        inside = family_reference.buckets_in(aut_psi, good)
        occ = family_reference.occupants(aut_psi, i["a1"], (1, 2), kept, inside)
        assert i["a8"] in occ[1] and i["a2"] in occ[2]

    def test_reduced_scenarios_keep_transitions(self, aut_psi, psi_ids):
        aid = psi_ids["a1"]
        good = aut_psi.good_states().good
        records = [
            r
            for r in aut_psi.scenario_family(aid)
            if atom_reference.has_transition(aut_psi, aid, r.qsets, good)
        ]
        assert (1, 2) in {r.qsets for r in records}
        assert (1, 2, 3) not in {r.qsets for r in records}

    def test_unsatisfiable_formula_loses_initial_states(self, phi1):
        aut = TreeAutomaton(phi1)
        assert aut.good_initial() == ()
        assert not is_satisfiable(aut)
        assert not is_satisfiable(phi1)


class TestMaximalFamily:
    """One maximal family per atom decides exactly what enumerating every
    feasible family decides."""

    @pytest.mark.parametrize(
        "text",
        [
            "P<=0.5[a] & P>=0.6[X b]",
            "P>=0.5[a] & P>=0.6[!a]",
            PSI_TEXT,
            "P<=0.8[F a] & P<=0.7[G(a -> F b)]",
            "P<=0.5[F a] & P<=0.6[G(a -> F b)]",
        ],
    )
    def test_readme_formulas_match_enumeration(self, text):
        self.check(parse_formula(text))

    @settings(max_examples=40)
    @given(sts.formulas(max_leaves=3))
    def test_random_formulas_match_enumeration(self, f):
        assume(len(TreeAutomaton(f).atoms) <= 256)
        self.check(f)

    @staticmethod
    def check(f):
        aut = TreeAutomaton(f)
        assert aut.good_states() == family_reference.good_states(aut)
        model = witness_model(f)
        expected = family_reference.witness_model(TreeAutomaton(f))
        assert (model is None) == (expected is None)
        if model is not None:
            assert model.to_dict() == expected.to_dict()


class TestSatisfiability:
    def test_running_examples(self, phi0, phi1, psi):
        assert is_satisfiable(phi0)
        assert not is_satisfiable(phi1)
        assert is_satisfiable(psi)

    def test_agrees_with_bounded_search_on_family(self):
        # dual route: automaton emptiness vs depth-bounded model search
        for f in formula_family(60):
            assert is_satisfiable(f) == bounded_satisfiable(f), str(f)

    @settings(max_examples=30)
    @given(sts.formulas(max_leaves=3, prob_free=True))
    def test_plain_fragment_agrees_with_trace_search(self, f):
        found = any(
            eval_trace_any(f, length) for length in range(1, 6)
        )
        if found:
            assert is_satisfiable(f)


def tree_shape(model) -> tuple:
    """Height and largest number of children of a tree interpretation."""
    if not model.children:
        return 0, 0
    shapes = [tree_shape(c) for c in model.children]
    return 1 + max(h for h, _ in shapes), max(len(model.children), *(w for _, w in shapes))


SINGLE_BOUNDS = [f for f in formula_family(60) if bounds_in(f) == 1]


class TestSeveralBounds:
    """Several and nested bounds against the bounded model search, which
    decides each node's bounds jointly by Fourier-Motzkin elimination over
    child masses.  On the fixed families the answers are equal; on random
    draws the engine's unsat means the search finds no model, a model the
    search finds means sat, and a witness within the search's shape is
    found by it."""

    def test_nested_bounds(self):
        family = [f for f in formula_family(100, bounds=3) if bounds_in(f) >= 2]
        assert len(family) >= 300
        for f in family:
            assert is_satisfiable(f) == bounded_satisfiable(f), str(f)

    def test_two_conjoined_bounds(self):
        family = [And(pair) for pair in combinations(SINGLE_BOUNDS, 2)]
        answers = [is_satisfiable(f) for f in family]
        assert 0 < answers.count(False) < len(family)
        for f, sat in zip(family, answers):
            assert sat == bounded_satisfiable(f), str(f)

    def test_three_conjoined_bounds(self):
        triples = random.Random(0).sample(list(combinations(SINGLE_BOUNDS, 3)), 60)
        family = [And(triple) for triple in triples]
        answers = [is_satisfiable(f) for f in family]
        assert 0 < answers.count(False) < len(family)
        for f, sat in zip(family, answers):
            assert sat == bounded_satisfiable(f), str(f)

    @pytest.mark.parametrize(
        "text",
        [
            "P<=0.5[a] & P>=0.6[X b] & P>0.2[F c]",
            "P>=0.5[a] & P>=0.6[!a] & P>0.2[b]",
            "P>0.3[X P<0.5[a]] & P>=0.4[F b]",
            "P>0.5[P>0.5[a] U b]",
        ],
    )
    def test_named_formulas(self, text):
        f = parse_formula(text)
        assert is_satisfiable(f) == bounded_satisfiable(f)

    @settings(max_examples=60)
    @given(sts.formulas(max_leaves=6))
    def test_random_formulas(self, f):
        aut = TreeAutomaton(f)
        assume(bounds_in(f) >= 2 and len(aut.atoms) <= 256)
        found = bounded_satisfiable(f)
        model = witness_model(aut)
        if model is None:
            assert not found
            return
        height, widest = tree_shape(model)
        if height <= 3 and widest <= 3:
            assert found


def eval_trace_any(f, length):
    from itertools import product as iproduct

    from pltlf import eval_trace

    vals = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
    return any(
        eval_trace(f, trace) for trace in iproduct(vals, repeat=length)
    )


class TestWitnessModels:
    def test_checker_validates_shape(self):
        leaf = WitnessModel(frozenset(), None, ())
        with pytest.raises(ValueError):
            check_model(
                WitnessModel(frozenset(), Fraction(1), ()), parse_formula("a")
            )
        half = WitnessModel(frozenset("a"), Fraction(1, 2), ())
        with pytest.raises(ValueError):
            check_model(
                WitnessModel(frozenset(), None, (half,)), parse_formula("a")
            )
        bare = WitnessModel(frozenset("a"), None, ())
        with pytest.raises(ValueError):
            check_model(WitnessModel(frozenset(), None, (bare,)), parse_formula("a"))
        assert not check_model(leaf, parse_formula("X a"))
        assert check_model(leaf, parse_formula("P<=0.5[a]"))

    def test_checker_on_hand_built_model(self, phi0):
        # a-mass 2/5 stays under 1/2; the other branch delivers b next
        grand = WitnessModel(frozenset("b"), Fraction(1), ())
        kids = (
            WitnessModel(frozenset(), Fraction(3, 5), (grand,)),
            WitnessModel(frozenset("a"), Fraction(2, 5), ()),
        )
        model = WitnessModel(frozenset(), None, kids)
        assert check_model(model, phi0)
        assert not check_model(model, parse_formula("P>=0.7[a]"))

    def test_extracted_witnesses_check_out(self, phi0, psi):
        for f in (phi0, psi):
            model = witness_model(f)
            assert model is not None
            assert check_model(model, f)

    def test_no_witness_for_unsatisfiable(self, phi1):
        assert witness_model(phi1) is None

    def test_witness_exists_iff_satisfiable_on_family(self):
        for f in formula_family(60):
            model = witness_model(f)
            assert (model is not None) == is_satisfiable(f), str(f)
            if model is not None:
                assert check_model(model, f), str(f)

    def test_witness_round_trips_through_dict(self, psi):
        model = witness_model(psi)
        assert WitnessModel.from_dict(model.to_dict()) == model

    @pytest.mark.parametrize(
        "field, value",
        [
            ("valuation", "ab"),
            ("valuation", [["a"]]),
            ("children", {"valuation": []}),
            ("children", ["a"]),
            ("probability", [1, 2]),
            ("probability", True),
            ("probability", "1/0"),
            ("probability", "\u0660.\u0665"),
        ],
    )
    def test_malformed_documents_raise_value_errors_naming_the_field(self, psi, field, value):
        data = witness_model(psi).to_dict()
        data["children"][0][field] = value
        with pytest.raises(ValueError, match=f"'{field}'"):
            WitnessModel.from_dict(data)

    @settings(max_examples=25)
    @given(sts.formulas(max_leaves=3))
    def test_witnesses_on_random_formulas(self, f):
        model = witness_model(f)
        if model is None:
            assert not is_satisfiable(f)
        else:
            assert check_model(model, f)


THREE_BOUNDS = "P<=0.5[a] & P>=0.6[X b] & P>0.2[F c]"

CLASS_FORMULAS = (
    "P<=0.5[a] & P>=0.6[X b]",
    "P>=0.5[a] & P>=0.6[!a]",
    PSI_TEXT,
    THREE_BOUNDS,
    "P<=0.8[F a] & P<=0.7[G(a -> F b)]",
    "X X a & F b",
    "G(a -> X b)",
    "a U b",
)


def full_cover(aut, aid: int, table: dict) -> dict:
    """The table's candidates that refute every absent next member of the
    parent, per profile, dropping the profiles left empty."""
    obl = atom_reference.obligations(aut, aid)
    return {
        q: inside for q, cands in table.items()
        if (inside := tuple(c for c in cands if c[1] == obl))
    }


def bucket_view(table: dict) -> dict:
    """A per-atom kept table seen per bucket: per profile, the first
    candidate of each distinct cover, in atom order.  Within one parent
    and profile a cover names one bucket, so that candidate is the
    bucket's representative."""
    view = {}
    for q, cands in table.items():
        firsts = {}
        for cid, cover in cands:
            firsts.setdefault(cover, cid)
        view[q] = tuple(sorted((cid, cover) for cover, cid in firsts.items()))
    return view


def branches_of(aut, aid: int):
    """The branch systems of the atom's probability signature."""
    return aut.branches[aut._prob_sig[aid]]


class TestPerClassDecisions:
    """Deciding once per class, through one transition test and one reach
    table, answers exactly what the per-atom, per-candidate path of
    ``atom_reference`` answers."""

    @pytest.mark.parametrize("text", CLASS_FORMULAS)
    def test_named_formulas(self, text):
        self.check(parse_formula(text))

    @settings(max_examples=30)
    @given(sts.formulas(max_leaves=3))
    def test_random_formulas(self, f):
        assume(len(TreeAutomaton(f).atoms) <= 256)
        self.check(f)

    @settings(max_examples=30)
    @given(sts.formulas(max_leaves=4, prob_free=True))
    def test_random_probability_free_formulas(self, f):
        assume(len(TreeAutomaton(f).atoms) <= 512)
        self.check(f)

    @staticmethod
    def check(f):
        aut = TreeAutomaton(f)
        gs = aut.good_states()
        assert gs == atom_reference.good_states(aut)
        wa, expected = build_weighted(aut), atom_reference.build_weighted(aut)
        assert wa.groups == expected.groups
        assert wa.children == expected.children
        assert (gs.inside is None) == (not aut._pairs)
        for restrict in (everything(aut), gs.good):
            # the sweep's own index of the good atoms by bucket, or the
            # reference's for every atom
            if restrict is gs.good and aut._pairs:
                inside = gs.inside
            else:
                inside = family_reference.buckets_in(aut, restrict)
            assert inside == {
                key: [a for a in atoms if a in restrict]
                for key, atoms in aut._buckets.items()
                if any(a in restrict for a in atoms)
            }
            for aid in range(len(aut.atoms)):
                # the same profiles, in increasing order, each with the
                # reference's first candidate per distinct cover, which is
                # its bucket's representative; without pairs the one child
                # must refute every obligation itself, so only the
                # reference's candidates that cover all of them are kept
                kept = aut.kept(aid, restrict)
                expected = atom_reference.kept(aut, aid, None, restrict)
                if not aut._pairs:
                    expected = full_cover(aut, aid, expected)
                assert list(kept.items()) == list(bucket_view(expected).items())
                family = tuple(kept)
                assert family == tuple(sorted(expected))
                for qsets in [family, *combinations(family, 1), *islice(combinations(family, 2), 4)]:
                    TestPerClassDecisions.check_scenario(aut, aid, qsets, restrict, kept, inside)

    @staticmethod
    def check_scenario(aut, aid, qsets, restrict, kept, inside):
        first = aut.first_tuple(aid, qsets, kept)
        assert first == next(atom_reference.transition_tuples(aut, aid, qsets, restrict), None)
        assert (first is not None) == atom_reference.has_transition(aut, aid, qsets, restrict)
        assert family_reference.occupants(aut, aid, qsets, kept, inside) == atom_reference.occupants(
            aut, aid, qsets, restrict
        )

    def test_empty_scenario_has_the_empty_tuple_iff_nothing_is_owed(self):
        aut = TreeAutomaton(parse_formula("X X a & F b"))
        for aid in range(len(aut.atoms)):
            owed = aut._all_next & ~aut._next_present[aid]
            kept = aut.kept(aid, everything(aut))
            assert aut.first_tuple(aid, (), kept) == (None if owed else ())
            assert list(atom_reference.transition_tuples(aut, aid, ())) == (
                [] if owed else [()]
            )


class TestSeveralBoundsPerAtom:
    """Conjunctions of three and four bounds, which ``sts.formulas()``
    rarely draws, decided on buckets: good states with their distances,
    the weighted automaton's groups and children, and the witness equal
    the per-atom reference's."""

    @settings(max_examples=12)
    @given(sts.several_bounds())
    def test_random_conjunctions(self, f):
        aut, reference = TreeAutomaton(f), TreeAutomaton(f)
        gs, expected = aut.good_states(), atom_reference.good_states(reference)
        assert gs.good == expected.good and gs.distance == expected.distance
        assert gs == expected
        wa, weighted = build_weighted(aut), atom_reference.build_weighted(reference)
        assert wa.groups == weighted.groups
        assert wa.children == weighted.children
        found, model = witness_model(aut), atom_reference.witness_model(reference)
        assert (found and found.to_dict()) == (model and model.to_dict())
        assert found is None or check_model(found, f)


class TestBranchPrograms:
    """Every branch system the engine decides, whether a certificate or a
    program settles it, has the program ``LinearProgram`` builds from the
    family's ``build_system``: built from integer rows, it has the same
    kept tableau and basis, column map, witness and maxima, and its
    answers are the engine's.  The system itself is the one
    ``family_reference`` spells from the atom's probability members, so a
    change to the rows' order shows as a different program, and the
    columns and the witness are those of ``simplex_reference``'s standard
    form, so a change to the column layout shows too."""

    @pytest.mark.parametrize(
        "text",
        [
            "P>=0[a] & P<1[b]",
            "P>0[a] & P<=0[X a]",
            "P<=0.1234567890123456789012345[a] & P>=0.6[X b]",
            THREE_BOUNDS,
            LARGER_TEXTS[1],
        ],
    )
    def test_named_formulas(self, text):
        self.check(TreeAutomaton(parse_formula(text)))

    @settings(max_examples=40)
    @given(sts.formulas())
    def test_random_formulas(self, f):
        aut = TreeAutomaton(f)
        assume(aut._pairs and len(aut.atoms) <= 256)
        self.check(aut)

    def test_every_family_of_a_sign_row_bound(self):
        # P>=0[a] is a sign row of the one subset that holds a, wherever
        # the family has exactly one such subset
        aut = TreeAutomaton(parse_formula("P>=0[a] & P<1[b]"))
        self.check(aut, [
            (aid, family)
            for aid in range(len(aut.atoms))
            for size in range(1, 5)
            for family in combinations(range(4), size)
        ])

    @staticmethod
    def check(aut, extra=()):
        """Run the engine's queries, recording each branch question and
        its answer, then compare every (signature, family) asked, and the
        (atom, family) pairs of ``extra``, with its programs."""
        asked = {}
        aid_of = some_atom_per_signature(aut)

        def recorded(sig, name):
            method = getattr(aut.branches[sig], name)

            def record(qsets, *rest):
                answer = method(qsets, *rest)
                asked.setdefault((sig, tuple(qsets)), (aid_of[sig], []))[1].append(
                    (name, rest, answer)
                )
                return answer

            return record

        for sig, branches in enumerate(aut.branches):
            for name in ("feasible", "point", "maximum"):
                setattr(branches, name, recorded(sig, name))
        aut.good_states()
        build_weighted(aut)
        witness_model(aut)
        for aid, family in extra:
            asked.setdefault((aut._prob_sig[aid], family), (aid, []))
        assert asked
        for (sig, family), (aid, answers) in asked.items():
            direct = LinearProgram(*aut.branches[sig].rows(family))
            system = aut.build_system(aid, family)
            assert system == family_reference.branch_system(aut, aid, family)
            spelled = system_program(system)
            names = [named(aut, q) for q in direct.variables]
            assert names == list(spelled.variables)
            assert [(named(aut, key), j) for key, j in direct.col.items()] == list(
                spelled.col.items()
            )
            assert list(spelled.col) == simplex_reference.standard_form(system, direct.strict)[0]
            assert direct.kept == spelled.kept
            witness = direct.witness and by_name(aut, direct.witness)
            assert witness == spelled.witness
            assert witness == simplex_reference.feasibility_witness(system)
            if direct.kept is not None:
                for q, name in zip(direct.variables, names):
                    assert direct.maximum(q) == spelled.maximum(name)
            for name, rest, answer in answers:
                if name == "feasible":
                    assert answer == direct.feasible
                elif name == "point":
                    assert answer == direct.witness
                else:
                    assert answer == direct.maximum(rest[0])


# the benchmark's two-bound tree-queries formulas
TREE_QUERY_FORMULAS = (
    "P<=0.5[a] & P>=0.6[X b]",
    PSI_TEXT,
    "P<=0.8[F a] & P<=0.7[G(a -> F b)]",
    "P<=0.5[F a] & P<=0.6[G(a -> F b)]",
    "P>=0.5[a] & P>=0.6[!a]",
)
# with the benchmark's three-bound formulas, satisfiable and not, and the
# four-bound one
CERTIFIED_FORMULAS = TREE_QUERY_FORMULAS + (
    THREE_BOUNDS,
    "P>=0.5[a] & P>=0.6[!a] & P>0.2[b]",
    LARGER_TEXTS[1],
)


# one maximum that each formula's check must reach: a cap of 0 from an
# upper bound of 0, caps of 1 from strict bounds at 0 and 1 (their relaxed
# forms hold at every mass), a cap strictly between, and a phase 2, where
# the two upper bounds hold subset {1,2} to 1/2, below its cap 7/10
MAXIMA_REACHED = {
    "P<=0[a] & P>=0.5[X b]": Fraction(0),
    "P>0[a] & P<1[X b]": Fraction(1),
    "P<=0.5[a] & P>=0.6[X b]": Fraction(1, 2),
    "P<=0.8[F a] & P<=0.7[G(a -> F b)]": None,
}


def certificate(aut, aid, family):
    """What the family's profiles alone settle about its branch system,
    read off the atom's probability members: True when some profile's
    point mass meets every bound, False when a bound fails at the one mass
    its argument can take, None otherwise."""
    bounds = [(m.cmp, m.bound) for m in family_reference.prob_members(aut, aid)]
    if any(point_meets(bounds, q) for q in family):
        return True
    for j, (cmp, bound) in enumerate(bounds):
        held = [q >> j & 1 for q in family]
        if not any(held) and not cmp.holds(Fraction(0), bound):
            return False
        if all(held) and not cmp.holds(Fraction(1), bound):
            return False
    return None


def point_meets(bounds, q) -> bool:
    """Whether all the mass on profile ``q`` meets every bound."""
    return all(cmp.holds(Fraction(q >> j & 1), bound) for j, (cmp, bound) in enumerate(bounds))


def mixture_cap(bounds, family, q0):
    """The maximum of profile ``q0``'s mass that the family's profiles
    alone settle, read off the atom's probability members, or None.  The
    relaxed bounds cap the mass at 1, at each upper bound whose argument
    ``q0`` holds and at one minus each lower bound whose argument it
    lacks; the cap is the maximum when, for some profile ``p`` of the
    family, the mixture of ``q0`` at the cap and ``p`` at the rest meets
    every relaxed bound."""
    upper = (Comparison.LE, Comparison.LT)
    cap = min(
        [Fraction(1)]
        + [b for j, (cmp, b) in enumerate(bounds) if cmp in upper and q0 >> j & 1]
        + [1 - b for j, (cmp, b) in enumerate(bounds) if cmp not in upper and not q0 >> j & 1]
    )
    for p in family:
        mixture = {q0: cap}
        mixture[p] = mixture.get(p, 0) + 1 - cap
        if all(
            cmp.relaxed.holds(sum(m for q, m in mixture.items() if q >> j & 1), bound)
            for j, (cmp, bound) in enumerate(bounds)
        ):
            return cap
    return None


def some_atom_per_signature(aut) -> dict:
    some_atom = {}
    for aid, sig in enumerate(aut._prob_sig):
        some_atom.setdefault(sig, aid)
    return some_atom


class TestProfileCertificates:
    """``Branches.feasible`` settles a family from its profiles where a
    point mass or a fixed argument mass certifies the answer, and builds
    the branch program otherwise; ``Branches.maximum`` returns the cap on a
    subset's mass where a mixture of two profiles meets it, and runs a
    phase 2 otherwise.  Certified answers are the program's and the
    Fourier-Motzkin oracle's; so is the point mass of a one-profile
    family."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("text", TREE_QUERY_FORMULAS)
    def test_every_family_in_random_orders(self, text, seed, lp_runs):
        aut = TreeAutomaton(parse_formula(text))
        subsets = range(1 << len(aut._pairs))
        questions = [
            (aid, family)
            for aid in some_atom_per_signature(aut).values()
            for size in range(1, len(subsets) + 1)
            for family in combinations(subsets, size)
        ]
        random.Random(seed).shuffle(questions)
        answers = []
        for aid, family in questions:
            # a tableau is built exactly when no certificate settles it
            before = len(lp_runs["phase_one"])
            ok = branches_of(aut, aid).feasible(family)
            settled = certificate(aut, aid, family) is not None
            assert len(lp_runs["phase_one"]) == before + (not settled)
            answers.append(ok)
        assert 0 < len(lp_runs["phase_one"]) < len(questions)
        for (aid, family), ok in zip(questions, answers):
            branches = branches_of(aut, aid)
            assert ok == LinearProgram(*branches.rows(family)).feasible
            assert ok == fm_feasible(aut.build_system(aid, family))
            assert ok == (branches.point(family) is not None)

    @pytest.mark.parametrize("text", dict.fromkeys(CERTIFIED_FORMULAS + tuple(MAXIMA_REACHED)))
    def test_certificates_match_the_programs(self, text, lp_runs):
        reached = self.check(TreeAutomaton(parse_formula(text)), lp_runs["objectives"])
        if text in MAXIMA_REACHED:
            assert MAXIMA_REACHED[text] in reached

    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(f=sts.formulas())
    def test_random_certificates_match_the_programs(self, f, lp_runs):
        aut = TreeAutomaton(f)
        assume(1 <= len(aut._pairs) <= 3 and len(aut.atoms) <= 256)
        self.check(aut, lp_runs["objectives"])

    @staticmethod
    def check(aut, objectives) -> set:
        """Every family of every signature, or for four pairs every family
        of at most two profiles: each certificate against the program.
        ``objectives`` is the list the ``lp_runs`` fixture records phase 2
        runs in.  Returns the settled maxima, with None for a maximum that
        ran a phase 2."""
        width = len(aut._pairs)
        subsets = range(1 << width)
        largest = len(subsets) if width <= 3 else 2
        reached = set()
        for aid in some_atom_per_signature(aut).values():
            bounds = [(m.cmp, m.bound) for m in family_reference.prob_members(aut, aid)]
            branches = branches_of(aut, aid)
            for size in range(1, largest + 1):
                for family in combinations(subsets, size):
                    program = LinearProgram(*branches.rows(family))
                    ok = branches.feasible(family)
                    assert ok == program.feasible
                    # the engine builds a program exactly when nothing settles
                    settled = certificate(aut, aid, family)
                    built = family in branches._programs
                    assert built == (settled is None)
                    if settled is not None:
                        assert settled == ok == fm_feasible(aut.build_system(aid, family))
                    if not ok:
                        continue
                    for q in family:
                        cap = mixture_cap(bounds, family, q)
                        before = len(objectives)
                        found = branches.maximum(family, q)
                        ran = len(objectives) > before
                        assert found == program.maximum(q)
                        # a maximum runs a phase 2 exactly when no mixture
                        # settles it
                        assert ran == (cap is None)
                        if cap is not None:
                            assert found == cap
                        built |= ran
                        reached.add(cap)
                    if size == 1:
                        assert branches.point(family) == program.witness
                    # settled maxima and one-profile points build none
                    assert (family in branches._programs) == built
        return reached

    @pytest.mark.parametrize(
        "text, good, whole, objectives",
        [
            ("P<=0.5[a] & P>=0.6[X b]", 0, 0, 0),
            (PSI_TEXT, 1, 1, 0),
            ("P<=0.8[F a] & P<=0.7[G(a -> F b)]", 1, 1, 1),
            ("P<=0.5[F a] & P<=0.6[G(a -> F b)]", 1, 1, 1),
            ("P>=0.5[a] & P>=0.6[!a]", 1, 2, 1),
            (THREE_BOUNDS, 0, 2, 2),
            ("P>=0.5[a] & P>=0.6[!a] & P>0.2[b]", 3, 4, 4),
            (LARGER_TEXTS[1], 0, 2, 2),
        ],
    )
    def test_programs_built(self, text, good, whole, objectives, lp_runs):
        # tableaux built by the good states, then tableaux and objectives
        # of the whole compile: the good states, the weighted automaton and
        # the witness.  An objective is a phase 2 from a kept basis, an
        # edge weight's maximum or a strict system's largest slack.
        aut = TreeAutomaton(parse_formula(text))
        aut.good_states()
        assert len(lp_runs["phase_one"]) == good
        build_weighted(aut)
        witness_model(aut)
        assert len(lp_runs["phase_one"]) == whole
        assert len(lp_runs["objectives"]) == objectives

    @settings(max_examples=40)
    @given(sts.formulas())
    def test_random_formulas_match_the_per_atom_reference(self, f):
        aut = TreeAutomaton(f)
        assume(aut._pairs and len(aut.atoms) <= 256)
        reference = TreeAutomaton(f)
        assert aut.good_states() == atom_reference.good_states(reference)
        wa, expected = build_weighted(aut), atom_reference.build_weighted(reference)
        assert wa.groups == expected.groups
        assert wa.children == expected.children
        found, model = witness_model(aut), atom_reference.witness_model(reference)
        assert (found and found.to_dict()) == (model and model.to_dict())


class TestProbabilityFreeReachability:
    """Without probability pairs the good states are backward reachability
    over next-argument masks, and the one family needs no LP.  Good states,
    the weighted automaton and the witness equal the per-atom reference,
    whose witness solves each scenario's LP."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_next_chains(self, k):
        self.check(parse_formula("X " * k + "a"))

    @settings(max_examples=100)
    @given(st.lists(sts.formulas(max_leaves=6, prob_free=True), min_size=2, max_size=4))
    def test_random_conjunctions(self, parts):
        f = And(tuple(parts))
        assume(len(TreeAutomaton(f).atoms) <= 2048)
        self.check(f)

    @staticmethod
    def check(f):
        aut = TreeAutomaton(f)
        assert aut.good_states() == atom_reference.good_states(aut)
        wa, expected = build_weighted(aut), atom_reference.build_weighted(aut)
        assert wa.groups == expected.groups
        assert wa.children == expected.children
        found, reference = witness_model(aut), atom_reference.witness_model(aut)
        assert (found and found.to_dict()) == (reference and reference.to_dict())

    def test_the_one_family_is_answered_as_its_lp_answers(self):
        aut = TreeAutomaton(parse_formula("X X a & F b"))
        program = system_program(aut.build_system(0, (0,)))
        branches = branches_of(aut, 0)
        assert by_name(aut, branches.point((0,))) == program.witness
        assert branches.maximum((0,), 0) == program.maximum("x{}")
        assert branches.point(()) is None
        assert not solve_feasibility(aut.build_system(0, ())).feasible

    @pytest.mark.parametrize(
        "text", ["X X a & F b", "G(a -> X b)", LARGER_TEXTS[0], "F a & G(a -> F b) & X c"]
    )
    def test_queries_solve_no_lp(self, text, lp_runs):
        aut = TreeAutomaton(parse_formula(text))
        aut.good_states()
        build_weighted(aut)
        assert witness_model(aut) is not None
        assert lp_runs == {"phase_one": [], "objectives": []}


class TestMasksFromColumns:
    """The rows and per-atom tables read off transposed columns, and the
    classes read off the free bits, equal those read off the bits of each
    atom the closure enumerates, with signatures interned in the same
    order."""

    @given(sts.formulas())
    def test_random_formulas(self, f):
        self.check(TreeAutomaton(f))

    @settings(max_examples=40)
    @given(
        st.lists(
            st.builds(Prob, sts.comparisons, sts.bounds, sts.formulas(max_leaves=3, prob_free=True)),
            min_size=2,
            max_size=4,
        ),
        sts.formulas(max_leaves=3, prob_free=True),
    )
    def test_two_to_four_bounds(self, bounds, rest):
        aut = TreeAutomaton(And((*bounds, rest)))
        assume(2 <= len(aut._pairs) and len(aut) <= 4096)
        self.check(aut)

    @given(sts.formulas(prob_free=True))
    def test_random_probability_free_formulas(self, f):
        self.check(TreeAutomaton(f))

    @pytest.mark.parametrize("text", LARGER_TEXTS)
    def test_larger_closures(self, text):
        self.check(TreeAutomaton(parse_formula(text)))

    @staticmethod
    def check(aut):
        assert {
            "rows": aut._rows,
            "next_present": aut._next_present,
            "next_args": aut._next_args,
            "parg": aut._parg,
            "prob_sig": aut._prob_sig,
            "final": aut.final,
            "classes": aut._classes,
            "initial": aut.initial,
        } == atom_reference.masks(aut)


def counting_calls(monkeypatch, obj, names, calls):
    """Record ``(name, args)`` in ``calls`` for each call of the named
    methods of ``obj``, an automaton or its branch systems, in call
    order."""
    for name in names:
        method = getattr(obj, name)

        def counting(*args, _name=name, _method=method):
            calls.append((_name, args))
            return _method(*args)

        monkeypatch.setattr(obj, name, counting)


class TestClassCounts:
    @pytest.mark.parametrize("text", [THREE_BOUNDS, PSI_TEXT, "X X a & F b", LARGER_TEXTS[1]])
    def test_good_states_decide_each_next_mask_once_per_sweep(self, text, monkeypatch):
        # a sweep builds the kept table from its buckets' smallest good
        # atoms and reads its first tuple once per touched next mask, then
        # asks its signature's branch systems once per pending class of a
        # mask whose family has a tuple
        aut = TreeAutomaton(parse_formula(text))
        calls = []
        table, first_tuple = aut._table, aut.first_tuple

        def copying_table(req, index, restrict=None):
            # the sweep passes its index of good atoms by bucket, which
            # holds the whole good set and grows later
            assert restrict is None
            found = table(req, index)
            calls.append(("table", (req, {key: tuple(atoms) for key, atoms in index.items()}, found)))
            return found

        def answered_first_tuple(aid, family, kept):
            found = first_tuple(aid, family, kept)
            calls.append(("first_tuple", (aid, family, kept, found)))
            return found

        monkeypatch.setattr(aut, "_table", copying_table)
        monkeypatch.setattr(aut, "first_tuple", answered_first_tuple)
        for sig, branches in enumerate(aut.branches):
            feasible = branches.feasible

            def counting(family, _sig=sig, _feasible=feasible):
                calls.append(("feasible", (_sig, family)))
                return _feasible(family)

            monkeypatch.setattr(branches, "feasible", counting)
        gs = aut.good_states()
        if not aut._pairs:
            # reachability over next-argument masks decides every class
            assert calls == []
            return
        # the set grows between sweeps only, so its size names the sweep of
        # a table; the tuple and feasibility calls after it belong there
        sweeps, sweep = {}, None
        for name, args in calls:
            if name == "table":
                req, index, found = args
                restrict = frozenset(a for atoms in index.values() for a in atoms)
                sweep = sweeps.setdefault(len(restrict), {
                    "restrict": restrict, "families": [], "firsts": [], "tuples": {},
                    "has_tuple": {}, "feasible": [],
                })
                assert sweep["restrict"] == restrict and not sweep["feasible"]
                # the index is the good set by bucket, each in atom order
                assert index == {
                    key: tuple(a for a in atoms if a in restrict)
                    for key, atoms in aut._buckets.items()
                    if any(a in restrict for a in atoms)
                }
                sweep["families"].append(req)
                sweep["table"] = found
            elif name == "first_tuple":
                aid, family, kept, found = args
                req = aut._next_present[aid]
                assert sweep["families"][-1] == req and kept is sweep["table"]
                # the reference's table seen per bucket, against the set
                candidates = atom_reference.kept(aut, aid, None, sweep["restrict"])
                assert kept == bucket_view(candidates)
                assert family == tuple(kept)
                # only after a bucket over the mask got its first good atom
                # in the sweep before, which is the latest sweep the set holds
                latest = max(gs.distance[c] for c in sweep["restrict"])
                assert any(
                    min(gs.distance[cid] for cid, c in cands if c == cover) == latest
                    for cands in candidates.values() for _, cover in cands
                )
                sweep["firsts"].append(req)
                sweep["tuples"][req] = family
                sweep["has_tuple"][req] = found is not None
            else:
                sweep["feasible"].append(args)
        assert 1 <= len(sweeps) <= gs.sweeps + 1
        masks = {aut._next_present[aid] for aid in range(len(aut.atoms))}
        for sweep in sweeps.values():
            assert len(sweep["families"]) == len(set(sweep["families"]))
            assert sweep["firsts"] == sweep["families"]
            # each pending class of a mask with a tuple, once, in class
            # order, with its mask's family
            assert sweep["feasible"] == [
                (aut._prob_sig[members[0]], sweep["tuples"][req])
                for members in aut._classes
                if members[0] not in sweep["restrict"]
                and sweep["has_tuple"].get(req := aut._next_present[members[0]])
            ]
        decided = [req for sweep in sweeps.values() for req in sweep["families"]]
        assert len(decided) <= len(masks) * (gs.sweeps + 1)

    @pytest.mark.parametrize("text", [THREE_BOUNDS, PSI_TEXT, LARGER_TEXTS[1]])
    def test_weighted_build_reads_occupants_once_per_good_next_mask(self, text, monkeypatch):
        # one kept table, read off the good atoms by bucket, and one
        # decision of the fitting buckets per good next mask
        aut = TreeAutomaton(parse_formula(text))
        good = aut.good_states().good
        calls = []
        counting_calls(monkeypatch, aut, ["kept", "_table", "fitting"], calls)
        build_weighted(aut)
        found = {
            "_table": [args[0] for n, args in calls if n == "_table"],
            "fitting": [aut._next_present[args[0]] for n, args in calls if n == "fitting"],
        }
        expected = list(dict.fromkeys(
            aut._next_present[members[0]] for members in aut._classes if members[0] in good
        ))
        # the fitting buckets are what decides a good class there, with
        # its signature's feasibility: there are none exactly when its
        # maximal family has no child tuple
        assert found == {"_table": expected, "fitting": expected}
        assert len(calls) == 2 * len(expected)
        index = family_reference.buckets_in(aut, good)
        assert aut.good_states().inside == index
        for n, args in calls:
            if n == "_table":
                assert args[1] == index

    @pytest.mark.parametrize("text", ["X X a & F b", "G(a -> X b)", LARGER_TEXTS[0]])
    def test_pair_free_weighted_build_reads_the_mask_index(self, text, monkeypatch):
        # a good class's one group is the good atoms that carry its next
        # mask, read off the index with no kept table and no fitting buckets
        aut = TreeAutomaton(parse_formula(text))
        expected = atom_reference.build_weighted(aut)
        calls = []
        counting_calls(monkeypatch, aut, ["kept", "_table", "fitting"], calls)
        (branches,) = aut.branches
        counting_calls(monkeypatch, branches, ["feasible", "maximum"], calls)
        wa = build_weighted(aut)
        assert calls == []
        assert wa.groups == expected.groups
        assert wa.children == expected.children

    @pytest.mark.parametrize("text", [THREE_BOUNDS, LARGER_TEXTS[1]])
    def test_witness_builds_one_kept_table_per_expanded_node(self, text, monkeypatch):
        # every subset the witness tries at a node reads the node's one
        # table, built against a view that holds exactly the good atoms of
        # smaller distance
        aut = TreeAutomaton(parse_formula(text))
        gs = aut.good_states()
        calls = []
        counting_calls(monkeypatch, aut, ["kept"], calls)
        model = witness_model(aut)
        expanded, stack = 0, [model]
        while stack:
            node = stack.pop()
            expanded += bool(node.children)
            stack.extend(node.children)
        assert expanded > 0
        assert len(calls) == expanded
        for _, (aid, restrict) in calls:
            assert not aut.final[aid]
            held = {a for a in range(len(aut)) if a in restrict}
            assert held == {a for a in gs.good if gs.distance[a] < gs.distance[aid]}

    @pytest.mark.parametrize("text", CLASS_FORMULAS)
    def test_classes_partition_the_atoms_by_mask_and_signature(self, text):
        aut = TreeAutomaton(parse_formula(text))
        assert sorted(a for m in aut._classes for a in m) == list(range(len(aut.atoms)))
        for members in aut._classes:
            keys = {(aut._next_present[a], aut._prob_sig[a], aut.final[a]) for a in members}
            assert len(keys) == 1
        firsts = [m[0] for m in aut._classes]
        assert firsts == sorted(firsts)


class TestRowsAndCapsOnDemand:
    """Construction keeps its atoms as int rows and makes no ``Atom``;
    only the ``atoms`` view makes them, on first use.  A cap is computed
    on a maximum's cache miss only, so the queries that read no edge
    weight compute none, and it is kept per profile, so the weighted build
    computes one per (signature, profile) it asks about."""

    BOUNDED = (THREE_BOUNDS, PSI_TEXT, LARGER_TEXTS[1], "P>=0.5[a] & P>=0.6[!a] & P>0.2[b]")

    @pytest.mark.parametrize("text", [*BOUNDED, "X X a & F b", LARGER_TEXTS[0]])
    def test_construction_and_queries_make_no_atom(self, text, monkeypatch):
        made = []
        init = Atom.__init__

        def counting(atom, *args):
            made.append(args)
            init(atom, *args)

        monkeypatch.setattr(Atom, "__init__", counting)
        aut = TreeAutomaton(parse_formula(text))
        witness_model(aut)
        build_weighted(aut)
        assert made == []
        assert [atom.bits for atom in aut.atoms] == aut._rows
        assert len(made) == len(aut)

    @pytest.fixture
    def caps(self, monkeypatch):
        calls = []
        cap = automaton_module.Branches._cap

        def counting(branches, q):
            calls.append((branches, q))
            return cap(branches, q)

        monkeypatch.setattr(automaton_module.Branches, "_cap", counting)
        return calls

    @pytest.mark.parametrize("text", BOUNDED)
    def test_sat_and_witness_compute_no_cap(self, text, caps):
        aut = TreeAutomaton(parse_formula(text))
        is_satisfiable(aut)
        witness_model(aut)
        assert caps == []

    @pytest.mark.parametrize("text", BOUNDED)
    def test_weighted_build_computes_a_cap_once_per_profile(self, text, caps, monkeypatch):
        aut = TreeAutomaton(parse_formula(text))
        aut.good_states()
        calls = {}
        for sig, branches in enumerate(aut.branches):
            counting_calls(monkeypatch, branches, ["maximum"], calls.setdefault(sig, []))
        build_weighted(aut)
        asked = {(sig, family, q) for sig, made in calls.items() for _, (family, q) in made}
        kept = {
            (sig, family, q)
            for sig, branches in enumerate(aut.branches)
            for family, q in branches._maxima
        }
        assert kept == asked
        computed = [(aut.branches.index(branches), q) for branches, q in caps]
        assert len(computed) == len(set(computed))
        assert set(computed) == {(sig, q) for sig, _, q in asked}


class TestReleasedByReferenceCounting:
    """A query on a formula compiles an automaton that nothing refers to
    once the call returns, so it is freed without the cycle collector."""

    @pytest.mark.parametrize(
        "query",
        [
            witness_model,
            build_weighted,
            lambda f: trace_probability(f, parse_trace("-;a;b")),
        ],
        ids=["witness_model", "build_weighted", "trace_probability"],
    )
    @pytest.mark.parametrize("text", ["P<=0.5[a] & P>=0.6[X b]", THREE_BOUNDS])
    def test_compiled_automaton_is_freed(self, query, text, monkeypatch):
        refs = []
        init = TreeAutomaton.__init__

        def recording(self, formula):
            init(self, formula)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(TreeAutomaton, "__init__", recording)
        f = parse_formula(text)
        gc.collect()
        gc.disable()
        try:
            query(f)
            assert len(refs) == 1
            assert refs[0]() is None
        finally:
            gc.enable()
