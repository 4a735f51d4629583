import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from pltlf import (
    Comparison,
    InfeasibleSystemError,
    LinearSystem,
    TreeAutomaton,
    UnboundedObjectiveError,
    linsolve,
    maximize,
    parse_formula,
    solve_feasibility,
)

import simplex_reference
import strategies as sts
from conftest import PSI_TEXT
from oracles import fm_feasible, fm_supremum, relaxed, render_rows, with_rows

HALF = Fraction(1, 2)
SIXTY = Fraction(3, 5)


def branch_system(qsets_rows, names):
    """Simplex-style system: given probability rows, add nonnegativity and
    total mass one."""
    rows = list(qsets_rows)
    for name in names:
        rows.append(({name: 1}, Comparison.GE, 0))
    rows.append(({name: 1 for name in names}, Comparison.EQ, 1))
    return LinearSystem.from_rows(names, rows)


@pytest.fixture(scope="module")
def example_feasible():
    # branching pattern {1}, {2}, {1,2} under "at most half a" / "at least
    # sixty percent next-b"
    names = ("x1", "x2", "x12")
    return branch_system(
        [
            ({"x1": 1, "x12": 1}, Comparison.LE, HALF),
            ({"x2": 1, "x12": 1}, Comparison.GE, SIXTY),
        ],
        names,
    )


@pytest.fixture(scope="module")
def example_infeasible():
    names = ("x0", "x1", "x12")
    return branch_system(
        [
            ({"x1": 1, "x12": 1}, Comparison.LE, HALF),
            ({"x12": 1}, Comparison.GE, SIXTY),
        ],
        names,
    )


class TestFeasibility:
    def test_example_pair(self, example_feasible, example_infeasible):
        assert solve_feasibility(example_feasible).feasible
        assert not solve_feasibility(example_infeasible).feasible

    def test_witness_satisfies(self, example_feasible):
        res = solve_feasibility(example_feasible)
        assert example_feasible.holds(res.witness)

    def test_strict_boundary(self):
        sys1 = LinearSystem.from_rows(
            ("x",), [({"x": 1}, Comparison.LT, 1), ({"x": 1}, Comparison.GE, 1)]
        )
        assert not solve_feasibility(sys1).feasible
        sys2 = LinearSystem.from_rows(
            ("x",), [({"x": 1}, Comparison.LT, 1), ({"x": 1}, Comparison.GT, 0)]
        )
        res = solve_feasibility(sys2)
        assert res.feasible and 0 < res.witness["x"] < 1


class TestMaximize:
    def test_subset_maxima(self, example_feasible):
        assert maximize(example_feasible, "x2").supremum == 1
        assert maximize(example_feasible, "x12").supremum == HALF

    def test_adjoined_subset_maxima(self):
        # widen the pattern with the empty set and the singleton {1}
        names = ("x0", "x1", "x2", "x12")
        system = branch_system(
            [
                ({"x1": 1, "x12": 1}, Comparison.LE, HALF),
                ({"x2": 1, "x12": 1}, Comparison.GE, SIXTY),
            ],
            names,
        )
        assert maximize(system, "x0").supremum == Fraction(2, 5)
        assert maximize(system, "x1").supremum == Fraction(2, 5)

    def test_scenario_table_rows(self):
        # the four-scenario system of the two-constraint running example
        names = ("x00", "x01", "x10", "x11")
        system = branch_system(
            [
                ({"x10": 1, "x11": 1}, Comparison.LE, Fraction(4, 5)),
                ({"x01": 1, "x11": 1}, Comparison.LE, Fraction(7, 10)),
            ],
            names,
        )
        system = with_rows(system, [({"x00": 1}, Comparison.EQ, 0)])
        assert maximize(system, "x00").supremum == 0
        assert maximize(system, "x01").supremum == Fraction(7, 10)
        assert maximize(system, "x10").supremum == Fraction(4, 5)
        assert maximize(system, "x11").supremum == HALF

    def test_witness_attains(self, example_feasible):
        opt = maximize(example_feasible, "x2")
        assert opt.attained
        assert example_feasible.holds(opt.witness)
        assert opt.witness["x2"] == opt.supremum

    def test_strict_supremum_not_attained(self):
        system = LinearSystem.from_rows(
            ("x",), [({"x": 1}, Comparison.LT, 1), ({"x": 1}, Comparison.GE, 0)]
        )
        opt = maximize(system, "x")
        assert opt.supremum == 1 and not opt.attained

    def test_infeasible_raises(self, example_infeasible):
        with pytest.raises(InfeasibleSystemError):
            maximize(example_infeasible, "x12")

    @pytest.mark.parametrize("rows", [
        # relaxed, y = x with x free above: the objective is unbounded
        [({"x": 1}, Comparison.GE, 0), ({"y": 1, "x": -1}, Comparison.GT, 0),
         ({"y": 1, "x": -1}, Comparison.LT, 0)],
        # relaxed, x = 0 is optimal but fails the strict row
        [({"x": 1}, Comparison.GE, 0), ({"x": 1}, Comparison.LT, 0)],
    ])
    def test_strictly_infeasible_raises(self, rows):
        system = LinearSystem.from_rows(("x", "y"), rows)
        with pytest.raises(InfeasibleSystemError):
            maximize(system, "x")

    def test_unbounded_raises(self):
        system = LinearSystem.from_rows(("x",), [({"x": 1}, Comparison.GE, 0)])
        with pytest.raises(UnboundedObjectiveError):
            maximize(system, "x")

    def test_unknown_variable(self, example_feasible):
        with pytest.raises(KeyError):
            maximize(example_feasible, "nope")

    def test_upper_bound_for_sampled_points(self, example_feasible):
        opt = maximize(example_feasible, "x12")
        rng = random.Random(20240811)
        base = solve_feasibility(example_feasible).witness
        accepted = 0
        for _ in range(20000):
            point = {
                k: v + Fraction(rng.randint(-16, 16), 128) for k, v in base.items()
            }
            total = sum(point.values())
            if total == 0:
                continue
            point = {k: v / total for k, v in point.items()}
            if example_feasible.holds(point):
                accepted += 1
                assert point["x12"] <= opt.supremum
            if accepted >= 1000:
                break
        assert accepted >= 1000


class TestDifferential:
    @given(sts.linear_systems())
    def test_feasibility_matches_fourier_motzkin(self, system):
        assert solve_feasibility(system).feasible == fm_feasible(system)

    @given(sts.linear_systems(max_vars=3, max_rows=5))
    @settings(max_examples=40)
    def test_supremum_matches_fourier_motzkin(self, system):
        expected = fm_supremum(system, system.variables[0])
        if expected is None:
            with pytest.raises(InfeasibleSystemError):
                maximize(system, system.variables[0])
        else:
            assert expected != "unbounded"  # box rows keep it finite
            assert maximize(system, system.variables[0]).supremum == expected


def without_sign_rows(system):
    """The system minus its ``x >= 0`` rows, which nonnegativity implies."""
    def is_sign_row(c):
        return (
            c.rel is Comparison.GE
            and c.rhs == 0
            and sorted(c.coeffs) == [0] * (len(c.coeffs) - 1) + [1]
        )

    return LinearSystem(
        system.variables, tuple(c for c in system.constraints if not is_sign_row(c))
    )


class TestNonnegativity:
    """Every variable is nonnegative whether or not a row says so; the
    Fourier-Motzkin oracle treats variables as free and so sees the sign
    rows."""

    @given(sts.linear_systems())
    def test_feasibility_without_sign_rows(self, system):
        assert solve_feasibility(without_sign_rows(system)).feasible == fm_feasible(system)

    @given(sts.linear_systems(max_vars=3, max_rows=5))
    @settings(max_examples=40)
    def test_supremum_without_sign_rows(self, system):
        stripped = without_sign_rows(system)
        expected = fm_supremum(system, system.variables[0])
        if expected is None:
            with pytest.raises(InfeasibleSystemError):
                maximize(stripped, system.variables[0])
        else:
            assert maximize(stripped, system.variables[0]).supremum == expected

    def test_negative_upper_bound_is_infeasible(self):
        system = LinearSystem.from_rows(("x",), [({"x": 1}, Comparison.LE, -1)])
        assert not solve_feasibility(system).feasible

    def test_holds_rejects_negative_coordinates(self):
        assert not LinearSystem(("x",)).holds({"x": Fraction(-1)})
        assert LinearSystem(("x",)).holds({"x": Fraction(0)})


class TestRendering:
    def test_rows(self, example_feasible):
        rows = render_rows(example_feasible)
        assert rows[0] == "x1 + x12 <= 1/2"
        assert rows[1] == "x2 + x12 >= 3/5"
        assert rows[-1] == "x1 + x2 + x12 = 1"


CALLERS = ("solve_feasibility", "maximize", "LinearProgram", "int_rows")


def system_program(system) -> linsolve.LinearProgram:
    """The program ``solve_feasibility`` and ``maximize`` build for a
    system: its variables and its rows scaled to integers."""
    return linsolve.LinearProgram(system.variables, linsolve._int_rows(system))


def standard_forms(system, maxima=True, int_rows=None):
    """The integer tableaux the front end hands the kernel, each with an
    objective that phase 2 optimizes from the tableau's kept basis, listed
    per caller: ``solve_feasibility`` on the system and, with ``maxima``,
    ``maximize`` of each variable and each variable's maximum on one
    shared program built from the system's rows.  Given ``int_rows``, the
    (variables, rows) of the same system as a branch system hands them
    over, the program built from them is a caller too, with its
    feasibility objective and, with ``maxima``, each variable's maximum.
    A tableau whose phase 1 fails, or whose kept
    basis no phase 2 re-optimises (a feasibility test without strict rows
    reads its witness off that basis), is listed with the zero
    objective."""
    forms = {}
    kept = {}  # id of a kept tableau -> (form, kept result)
    idle = {}  # id of a kept tableau no phase 2 has read yet -> form
    phase_one, phase_two = linsolve._phase_one, linsolve._phase_two

    def capture_one(tab, n):
        form = ([list(row) for row in tab], n)
        result = phase_one(tab, n)
        if result is None:
            sink.append((*form, [0] * n))
        else:
            kept[id(result[0])] = form, result
            idle[id(result[0])] = form
        return result

    def capture_two(tab, basis, objective):
        idle.pop(id(tab), None)
        sink.append((*kept[id(tab)][0], list(objective)))
        return phase_two(tab, basis, objective)

    def each_maximum(solve, variables=system.variables):
        for name in variables:
            try:
                solve(name)
            except (InfeasibleSystemError, UnboundedObjectiveError):
                pass

    def branch_program():
        program = linsolve.LinearProgram(*int_rows)
        if maxima and program.kept is not None:
            each_maximum(program.maximum, program.variables)

    calls = {
        "solve_feasibility": lambda: solve_feasibility(system),
        "maximize": lambda: each_maximum(lambda name: maximize(system, name)),
        "LinearProgram": lambda: each_maximum(system_program(system).maximum),
        "int_rows": branch_program,
    }
    callers = [
        caller for caller in CALLERS
        if (maxima or caller in ("solve_feasibility", "int_rows"))
        and (int_rows or caller != "int_rows")
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linsolve, "_phase_one", capture_one)
        mp.setattr(linsolve, "_phase_two", capture_two)
        for caller in callers:
            sink = forms[caller] = []
            calls[caller]()
            sink += [(*form, [0] * form[1]) for form in idle.values()]
            idle.clear()
    return forms


def fraction_form(tab, n):
    """The Fraction standard form (rows, rhs) an integer tableau stands
    for: row i divided by the positive scale in its artificial column."""
    rows, rhs = [], []
    for i, row in enumerate(tab):
        scale = row[n + i]
        assert scale > 0 and row[-1] >= 0
        assert not any(row[n:n + i]) and not any(row[n + i + 1:-1])
        rows.append([Fraction(v, scale) for v in row[:n]])
        rhs.append(Fraction(row[-1], scale))
    return rows, rhs


def linsolve_standard(tab, n, objective):
    """Phase 1, then phase 2 from the kept basis, as ``pltlf.linsolve``
    solves one objective of an integer tableau."""
    kept = linsolve._phase_one(tab, n)
    if kept is None:
        return "infeasible", None, None
    optimum = linsolve._phase_two(*kept, objective)
    if optimum is None:
        return "unbounded", None, None
    y = linsolve._vertex(*optimum, len(objective))
    return "optimal", sum((c * y[j] for j, c in enumerate(objective) if c), start=Fraction(0)), y


def reference_standard(tab, n, objective):
    """The Fraction simplex on the standard form the tableau stands for."""
    return simplex_reference._solve_standard(*fraction_form(tab, n), n, objective)


def traced(kernel, solve, form):
    """``solve`` on a copy of the form with ``kernel``'s pivots traced:
    its result, final basis and (row, col) pivots in order."""
    pivots, bases = [], []
    pivot, reduced_costs = kernel._pivot, kernel._reduced_costs

    def traced_pivot(tab, basis, row, col):
        pivots.append((row, col))
        pivot(tab, basis, row, col)

    def traced_reduced_costs(tab, basis, m, objective):
        bases.append(basis)
        reduced_costs(tab, basis, m, objective)

    tab, n, objective = form
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_pivot", traced_pivot)
        mp.setattr(kernel, "_reduced_costs", traced_reduced_costs)
        result = solve([list(row) for row in tab], n, list(objective))
    return result, list(bases[-1]), pivots


def assert_same_kernel(system, maxima=True, int_rows=None):
    forms = standard_forms(system, maxima, int_rows)
    assert all(forms.values()), {caller: len(found) for caller, found in forms.items()}
    for form in (form for found in forms.values() for form in found):
        assert traced(linsolve, linsolve_standard, form) == traced(
            simplex_reference, reference_standard, form
        )


def branch_systems(text):
    """Every family's branch system with its integer rows, once per
    probability signature."""
    aut = TreeAutomaton(parse_formula(text))
    seen = set()
    for aid in range(len(aut.atoms)):
        sig = aut._prob_sig[aid]
        if sig in seen:
            continue
        seen.add(sig)
        subsets = range(1 << len(aut._pairs))
        for size in range(1, len(subsets) + 1):
            for chosen in combinations(subsets, size):
                yield aut.build_system(aid, chosen), aut.branches[sig].rows(chosen)


class TestIntegerKernel:
    """Phase 1 on the integer tableau, then phase 2 from the kept basis,
    makes the pivots the Fraction simplex makes on the standard form the
    tableau stands for, and reads out the same status, value, point and
    basis; the one constructor hands the kernel such tableaux, whether a
    system's rows reach it through ``solve_feasibility`` and ``maximize``
    or a branch system's integer rows reach it directly."""

    @given(sts.linear_systems(), st.booleans())
    @settings(max_examples=150)
    def test_random_systems_match_the_fraction_kernel(self, system, keep_sign_rows):
        assert_same_kernel(system if keep_sign_rows else without_sign_rows(system))

    @pytest.mark.parametrize(
        "text",
        [
            "P<=0.5[a] & P>=0.6[X b]",
            "P>=0.5[a] & P>=0.6[!a]",
            PSI_TEXT,
            "P<=0.8[F a] & P<=0.7[G(a -> F b)]",
            "P<=0.5[F a] & P<=0.6[G(a -> F b)]",
            "P>=0[a] & P<1[b]",
        ],
    )
    def test_branch_systems_match_the_fraction_kernel(self, text):
        for system, int_rows in branch_systems(text):
            assert_same_kernel(system, int_rows=int_rows)

    def test_three_bound_family_systems_match_the_fraction_kernel(self):
        # 255 families per signature: their feasibility LPs, as the
        # family enumeration and the engine solve them
        for system, int_rows in branch_systems("P<=0.5[a] & P>=0.6[X b] & P>0.2[F c]"):
            assert_same_kernel(system, maxima=False, int_rows=int_rows)


def shorthand(system, rows) -> list:
    """The system's integer rows with each row that its variable's sign
    implies handed over as that variable's index."""
    return [
        next(k for k, a in enumerate(c.coeffs) if a) if simplex_reference.sign_row(c) else row
        for c, row in zip(system.constraints, rows)
    ]


class TestSignRows:
    """The constructor alone recognises a row that its one variable's sign
    implies: given as a full integer row, it builds the program the index
    shorthand builds, with the same columns in the same order, kept
    tableau and basis, witness and maxima.  Were such a row built as a
    tableau row, its slack would take the variable's place among the
    columns."""

    @given(sts.linear_systems())
    @settings(max_examples=100)
    def test_full_sign_rows_build_the_shorthand_program(self, system):
        full = linsolve._int_rows(system)
        short = shorthand(system, full)
        # every drawn system spells x >= 0 for each of its variables
        assert sum(isinstance(row, int) for row in short) >= len(system.variables)
        given_full = linsolve.LinearProgram(system.variables, full)
        given_short = linsolve.LinearProgram(system.variables, short)
        assert list(given_full.col.items()) == list(given_short.col.items())
        assert given_full.kept == given_short.kept
        assert given_full.witness == given_short.witness
        if given_full.kept is not None:
            for name in system.variables:
                assert given_full.maximum(name) == given_short.maximum(name)


def is_box_row(c):
    """An ``x <= 2`` row of ``strategies.linear_systems``."""
    return (
        c.rel is Comparison.LE
        and c.rhs == 2
        and sorted(c.coeffs) == [0] * (len(c.coeffs) - 1) + [1]
    )


class TestSharedPhaseOne:
    """One phase 1 per system serves the feasibility test and every
    supremum: each objective is a phase 2 from the kept basis."""

    @given(sts.linear_systems(max_vars=3, max_rows=5), st.booleans())
    @settings(max_examples=60)
    def test_suprema_match_relaxed_maximize_and_fourier_motzkin(self, system, open_above):
        if open_above:
            system = LinearSystem(
                system.variables, tuple(c for c in system.constraints if not is_box_row(c))
            )
        assume(solve_feasibility(system).feasible)
        program = system_program(system)
        for name in system.variables:
            expected = fm_supremum(system, name)
            if expected == "unbounded":
                with pytest.raises(UnboundedObjectiveError):
                    program.maximum(name)
                with pytest.raises(UnboundedObjectiveError):
                    maximize(relaxed(system), name)
            else:
                assert program.maximum(name) == expected
                assert maximize(relaxed(system), name).supremum == expected

    @given(sts.linear_systems())
    @settings(max_examples=100)
    def test_strict_maximize_matches_one_phase_one_per_lp(self, system):
        assume(any(c.rel.strict for c in system.constraints))
        for name in system.variables:
            try:
                expected = simplex_reference.maximize(system, name)
            except InfeasibleSystemError:
                with pytest.raises(InfeasibleSystemError):
                    maximize(system, name)
                continue
            assert maximize(system, name) == expected

    @given(system=sts.linear_systems())
    @example(system=LinearSystem.from_rows(("x", "y"), [
        ({"x": 1}, Comparison.LT, 1), ({"x": 1, "y": 1}, Comparison.LE, 1),
    ]))
    @example(system=LinearSystem.from_rows(("x", "y"), [
        ({"x": 1}, Comparison.LE, 1), ({"x": 1, "y": 1}, Comparison.LE, 1),
    ]))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_maximize_builds_its_programs_from_the_systems_rows(self, system, lp_runs):
        # one program from the system's rows, and for a feasible strict
        # system a second, pinned one, which appends one integer row to the
        # same rows: neither spells a LinearSystem
        name = system.variables[0]
        try:
            expected = simplex_reference.maximize(system, name)
        except InfeasibleSystemError:
            expected = None

        def refuse(*args):
            raise AssertionError("maximize spelled a LinearSystem")

        lp_runs["phase_one"].clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LinearSystem, "from_rows", refuse)
            if expected is None:
                with pytest.raises(InfeasibleSystemError):
                    maximize(system, name)
            else:
                opt = maximize(system, name)
                assert (opt.supremum, opt.attained) == (expected.supremum, expected.attained)
        strict = any(c.rel.strict for c in system.constraints)
        programs = 2 if strict and expected is not None else 1
        assert lp_runs["phase_one"] == [system.variables] * programs

    @pytest.mark.parametrize("rows, tableaux", [
        # strict and feasible: the shared tableau, then the pinned one
        ([({"x": 1}, Comparison.LT, 1), ({"x": 1, "y": 1}, Comparison.LE, 1)], 2),
        # no strict row: one tableau
        ([({"x": 1}, Comparison.LE, 1), ({"x": 1, "y": 1}, Comparison.LE, 1)], 1),
    ])
    def test_maximize_builds_one_tableau_per_lp(self, rows, tableaux, monkeypatch):
        runs = []
        phase_one = linsolve._phase_one

        def counting(*args):
            runs.append(args)
            return phase_one(*args)

        monkeypatch.setattr(linsolve, "_phase_one", counting)
        opt = maximize(LinearSystem.from_rows(("x", "y"), rows), "x")
        assert opt.supremum == 1 and opt.attained == (tableaux == 1)
        assert len(runs) == tableaux
