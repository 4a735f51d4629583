"""Acceptance gate: eleven end-to-end criteria, one test per criterion.

Each check appends a (criterion, clause, ok) triple to RESULTS, and the
terminal summary hook prints one PASS/FAIL line per criterion.  Three
clauses pin reference values that the implementation reproducibly
contradicts; they fail on purpose, and the computed values are analysed
under "Documented discrepancies" in the README.
"""

import random
import time
from fractions import Fraction

from oracles import (
    bounded_satisfiable,
    fm_feasible,
    fm_supremum,
    formula_family,
    recheck_atom,
    recheck_tuple,
)
from pltlf import (
    ClosureSet,
    Comparison,
    Pltlf0Formula,
    ProbConstraint,
    TreeAutomaton,
    accepts_prefix,
    behaviour,
    build_lphi,
    build_weighted,
    check_model,
    enumerate_atoms,
    is_satisfiable,
    is_satisfiable0,
    maximize,
    mlt_acceptor,
    monitor_step,
    negate,
    parse_formula,
    parse_trace,
    prefix_extension_query,
    scenario_maxima,
    solve_feasibility,
    start_monitor,
    to_pltlf,
    trace_probability,
    witness_model,
)
from pltlf.mining import constraint_support, load_log, mine_constraints, to_pltlf0

import atom_reference
from family_reference import scenario_max
from test_automaton import PSI_ATOMS, atom_id
from test_weighted import fixpoint_history, naive_fixpoint

RESULTS = []


def claim(number: int, clause: str, ok: bool) -> bool:
    RESULTS.append((number, clause, bool(ok)))
    return bool(ok)


def settle(number: int) -> None:
    failed = [c for n, c, ok in RESULTS if n == number and not ok]
    assert not failed, f"criterion {number} failing clauses: {'; '.join(failed)}"


def test_criterion_01_example_pair(phi0, phi1):
    started = time.monotonic()
    claim(1, "positive example satisfiable", is_satisfiable(phi0))
    claim(1, "negative example unsatisfiable", not is_satisfiable(phi1))
    claim(1, "decided in under a second", time.monotonic() - started < 1.0)
    settle(1)


def test_criterion_02_branching_pattern_gate(phi0):
    aut = TreeAutomaton(phi0)
    aid = aut.initial[0]
    family = {r.qsets for r in aut.scenario_family(aid)}
    claim(
        2,
        "pattern over subsets {1},{2},{1,2} is feasible",
        solve_feasibility(aut.build_system(aid, (1, 2, 3))).feasible,
    )
    claim(
        2,
        "pattern adding the empty subset is infeasible",
        not solve_feasibility(aut.build_system(aid, (0, 1, 3))).feasible,
    )
    claim(2, "feasible pattern admitted", (1, 2, 3) in family)
    claim(2, "infeasible pattern excluded", (0, 1, 3) not in family)
    settle(2)


def test_criterion_03_branch_mass_maxima(phi0):
    aut = TreeAutomaton(phi0)
    aid = aut.initial[0]
    record = next(r for r in aut.scenario_family(aid) if r.qsets == (1, 2, 3))
    claim(3, "subset {2} carries mass 1", scenario_max(aut, aid, record, 2) == 1)
    claim(
        3,
        "subset {1,2} caps at 1/2",
        scenario_max(aut, aid, record, 3) == Fraction(1, 2),
    )
    claim(
        3,
        "subset {1} caps at 2/5",
        scenario_max(aut, aid, record, 1) == Fraction(2, 5),
    )
    claim(
        3,
        "adjoined empty subset caps at 2/5",
        scenario_max(aut, aid, record, 0) == Fraction(2, 5),
    )
    settle(3)


def test_criterion_04_trace_queries(phi0):
    claim(
        4,
        "trace (-;a;b) has probability exactly 1/2",
        trace_probability(phi0, parse_trace("-;a;b")) == Fraction(1, 2),
    )
    wa = build_weighted(phi0)
    claim(4, "most likely trace probability is 1", behaviour(wa) == 1)
    acceptor = mlt_acceptor(wa)
    for text in ("-;-;b", "-;-;a,b", "-;-;b;-"):
        claim(4, f"acceptor takes {text}", acceptor.accepts(parse_trace(text)))
    settle(4)


def test_criterion_05_worked_automaton(psi):
    started = time.monotonic()
    claim(5, "closure has the listed 20 members", len(ClosureSet(psi)) == 20)
    aut = TreeAutomaton(psi)
    ids = {k: atom_id(aut, pos, neg) for k, (pos, neg) in PSI_ATOMS.items()}
    claim(5, "the until-only state is bad", ids["a5"] not in aut.good_states().good)
    family = {r.qsets for r in aut.scenario_family(ids["a1"])}
    claim(5, "scenario family keeps the two documented patterns",
          {(1, 2, 3), (1, 2)} <= family)
    claim(5, "scenario family excludes the third pattern", (1, 3) not in family)
    wa = build_weighted(aut)
    claim(
        5,
        "edge to the flipped-bound state weighs 7/10",
        wa.weight(ids["a1"], ids["a8"]) == Fraction(7, 10),
    )
    claim(
        5,
        "edge to the forced-next state weighs 3/5",
        wa.weight(ids["a1"], ids["a2"]) == Fraction(3, 5),
    )
    claim(5, "most likely trace probability is 1", behaviour(wa) == 1)
    acceptor = mlt_acceptor(wa)
    claim(5, "trace (-;a) attains it", acceptor.accepts(parse_trace("-;a")))
    claim(5, "trace (-;-) attains it", acceptor.accepts(parse_trace("-;-")))
    # documented discrepancy: a successor atom may carry the flipped until
    # bound while a zero-mass sibling discharges its refutation duty, so
    # nothing caps this prefix at 7/10; the engine computes 1 (see README)
    value, _ = prefix_extension_query(psi, parse_trace("-;a;a;a,b"))
    claim(5, "prefix (-;a;a;a,b) reaches probability 7/10", value == Fraction(7, 10))
    claim(5, "whole walkthrough under five seconds", time.monotonic() - started < 5.0)
    settle(5)


def test_criterion_06_scenario_table(phi1_flat):
    table = scenario_maxima(phi1_flat)
    claim(
        6,
        "printed mass system matches row for row",
        table.rows_text()
        == [
            "x00 = 0",
            "x01 >= 0",
            "x10 >= 0",
            "x11 >= 0",
            "x00 + x01 + x10 + x11 = 1",
            "x10 + x11 <= 4/5",
            "x01 + x11 <= 7/10",
        ],
    )
    # documented discrepancy: the reference tuple describes one feasible
    # split of the mass, not the row-wise suprema; maximising each variable
    # independently gives (0, 7/10, 4/5, 1/2) (see README)
    claim(
        6,
        "scenario maxima equal (0, 1/5, 3/10, 1/2)",
        table.maxima == (0, Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)),
    )
    settle(6)


def test_criterion_07_monitoring(psi1_flat):
    table = scenario_maxima(psi1_flat)
    # documented discrepancy: same maximisation slip as criterion 6; the
    # row-wise suprema are (0, 3/5, 1/2, 1/10) (see README)
    claim(
        7,
        "scenario maxima equal (0, 1/2, 2/5, 1/10)",
        table.maxima == (0, Fraction(1, 2), Fraction(2, 5), Fraction(1, 10)),
    )
    state = start_monitor(table)
    claim(7, "empty prefix picks the no-a scenario", state.best_index == 1)
    state = monitor_step(state, frozenset())
    claim(7, "prefix (-) keeps it", state.best_index == 1)
    state = monitor_step(state, frozenset("a"))
    claim(7, "prefix (-;a) switches to the a-seen scenario", state.best_index == 2)
    settle(7)


def test_criterion_08_oracle_equivalence():
    started = time.monotonic()
    family = formula_family(200)
    disagreements = [
        f for f in family if is_satisfiable(f) != bounded_satisfiable(f)
    ]
    claim(8, "family covers at least 200 formulas", len(family) >= 200)
    claim(8, "zero disagreements with the bounded model search", not disagreements)
    claim(8, "finished inside five minutes", time.monotonic() - started < 300)
    settle(8)


def test_criterion_09_cross_engine(phi0_flat, phi1_flat, psi1_flat):
    claim(
        9,
        "named constraint sets agree across engines",
        all(
            is_satisfiable0(phi) == is_satisfiable(to_pltlf(phi))
            for phi in (phi0_flat, phi1_flat, psi1_flat)
        ),
    )
    rng = random.Random(909)
    pool = [
        "a", "b", "!a", "X b", "F a", "G(a -> F b)",
        "a U b", "F b", "G !a", "X !b", "a & !b", "F(a & b)",
    ]
    bounds = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 5), Fraction(1)]
    cmps = [c for c in Comparison if c is not Comparison.EQ]
    mismatches = 0
    for _ in range(30):
        phi = Pltlf0Formula(
            tuple(
                ProbConstraint(
                    rng.choice(cmps),
                    rng.choice(bounds),
                    parse_formula(rng.choice(pool)),
                )
                for _ in range(2)
            )
        )
        if is_satisfiable0(phi) != is_satisfiable(to_pltlf(phi)):
            mismatches += 1
    claim(9, "thirty random two-constraint instances agree", mismatches == 0)
    settle(9)


def test_criterion_10_mining_round_trip(data_dir):
    log = load_log(data_dir / "sample_log.csv")
    mined = mine_constraints(log, Fraction(4, 5))
    response = next((m for m in mined if m.template == "response"), None)
    claim(
        10,
        "response constraint mined at support exactly 4/5",
        response is not None and response.support == Fraction(4, 5),
    )
    claim(
        10,
        "support re-evaluates bit-exactly",
        response is not None
        and constraint_support(log, response.formula) == response.support,
    )
    claim(10, "mined constraint set is satisfiable", is_satisfiable0(to_pltlf0(mined)))
    settle(10)


def test_criterion_11_property_suites(phi0, psi1_flat):
    ok = True
    for f in formula_family(40):
        clo = ClosureSet(f)
        for g in clo.members:
            ok = ok and negate(g) in clo.index
        for atom in enumerate_atoms(clo):
            ok = ok and recheck_atom(clo, atom.bits)
    claim(11, "closures negation-closed and atoms pass re-checks", ok)

    aut = TreeAutomaton(phi0)
    ok = True
    checked = 0
    for aid in aut.initial:
        for record in aut.scenario_family(aid):
            system = record.system
            result = solve_feasibility(system)
            ok = ok and result.feasible == fm_feasible(system)
            if result.feasible:
                ok = ok and system.holds(result.witness)
                for name in system.variables:
                    best = maximize(system, name)
                    ok = ok and best.supremum == fm_supremum(system, name)
                    if best.attained:
                        ok = ok and system.holds(best.witness)
            checked += 1
            for tup in atom_reference.transition_tuples(aut, aid, record.qsets):
                ok = ok and recheck_tuple(aut, aid, record.qsets, tup)
    claim(11, "feasibility, suprema and witnesses survive elimination re-check",
          ok and checked > 0)

    ok = True
    for f in formula_family(40):
        wa = build_weighted(f)
        table = wa.behaviour_table()
        values, sweeps = naive_fixpoint(wa)
        ok = ok and sweeps <= len(wa.states)
        ok = ok and all(0 <= v <= 1 for v in table.values.values())
        ok = ok and table.values == values
        previous = {q: Fraction(0) for q in wa.states}
        for current in fixpoint_history(wa):
            ok = ok and all(current[q] >= previous[q] for q in wa.states)
            previous = current
    claim(11, "behaviour fixpoint monotone, bounded, stabilising in |Q| sweeps", ok)

    ok = True
    for f in formula_family(60):
        wa = build_weighted(f)
        ok = ok and (behaviour(wa) > 0) == is_satisfiable(f)
        model = witness_model(f)
        ok = ok and (model is not None) == is_satisfiable(f)
        if model is not None:
            ok = ok and check_model(model, f)
    claim(11, "positive behaviour iff satisfiable, witnesses check out", ok)

    vals = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
    traces = [(v,) for v in vals] + [(v, w) for v in vals for w in vals]
    ok = True
    table = build_lphi(psi1_flat)
    for scenario, acceptor in zip(table.scenarios, table.acceptors):
        for trace in traces:
            alive = True
            for k in range(len(trace) + 1):
                now = acceptor.accepts(trace[:k])
                ok = ok and (alive or not now)
                ok = ok and now == accepts_prefix(scenario, trace[:k])
                alive = now
    claim(11, "prefix acceptance is absorbing under extension", ok)
    settle(11)
