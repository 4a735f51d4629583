import pathlib

import pytest
from hypothesis import HealthCheck, settings

from pltlf import linsolve, parse_formula, parse_pltlf0

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("ci")

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

PHI0_TEXT = "P<=0.5[a] & P>=0.6[X b]"
PHI1_TEXT = "P>=0.5[a] & P>=0.6[!a]"
PSI_TEXT = "X !b & P<=0.7[a U b] & P<=0.6[X(!a & !b)]"

# closures with hundreds to thousands of atoms: a next chain, four bounds
# (2 048 atoms) and the conjunction of seven formulas (4 096 atoms)
LARGER_TEXTS = (
    "X X X X X X X X a",
    "P<=0.5[a] & P>=0.6[X b] & P>0.2[F c] & P<0.7[G d]",
    "F a & F b & G(a -> F b) & a U b & X c & F(c & X d) & G !d",
)


@pytest.fixture(scope="session")
def phi0():
    """Satisfiable two-bound example: at most half the branches see a, at
    least 60% satisfy next-b."""
    return parse_formula(PHI0_TEXT)


@pytest.fixture(scope="session")
def phi1():
    """Unsatisfiable companion: bounds on a and not-a that cannot both hold."""
    return parse_formula(PHI1_TEXT)


@pytest.fixture(scope="session")
def psi():
    """Three-part formula used for the full automaton walkthrough."""
    return parse_formula(PSI_TEXT)


@pytest.fixture(scope="session")
def phi0_flat():
    return parse_pltlf0((DATA / "phi0.p0").read_text())


@pytest.fixture(scope="session")
def phi1_flat():
    return parse_pltlf0((DATA / "phi1.p0").read_text())


@pytest.fixture(scope="session")
def psi1_flat():
    return parse_pltlf0((DATA / "psi1.p0").read_text())


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture
def lp_runs(monkeypatch):
    """What the exact LP solves: the variables of each program that runs
    phase 1, as the one constructor ``LinearProgram(variables, rows)``
    receives them (a branch program's are its family's profiles), and each
    objective maximised from a kept basis as (variables, column): every
    objective, a strict system's feasibility test for ``eps`` included,
    runs through ``_optimum``.  Without strict rows phase 1 alone decides
    feasibility."""
    runs = {"phase_one": [], "objectives": []}
    init, optimum = linsolve.LinearProgram.__init__, linsolve.LinearProgram._optimum

    def counting_init(self, variables, rows):
        runs["phase_one"].append(variables)
        init(self, variables, rows)

    def counting_optimum(self, column):
        runs["objectives"].append((self.variables, column))
        return optimum(self, column)

    monkeypatch.setattr(linsolve.LinearProgram, "__init__", counting_init)
    monkeypatch.setattr(linsolve.LinearProgram, "_optimum", counting_optimum)
    return runs


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    write = terminalreporter.write_line
    write("")
    write("acceptance criteria")
    by_number = {}
    for number, clause, ok in RESULTS:
        by_number.setdefault(number, []).append((clause, ok))
    for number in sorted(by_number):
        clauses = by_number[number]
        failed = [clause for clause, ok in clauses if not ok]
        verdict = "PASS" if not failed else "FAIL"
        detail = "" if not failed else " [" + "; ".join(failed) + "]"
        write(f"  criterion {number:>2} {verdict}{detail}")
