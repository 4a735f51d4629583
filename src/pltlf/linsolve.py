"""Exact linear feasibility and optimization over the rationals.

Systems mix non-strict, strict and equality rows over named variables,
and every variable is nonnegative: the solver gives each one a single
nonnegative tableau column, whether or not the system spells ``x >= 0``.
A strict system adjoins a slack ``eps``, capped at 1, to every strict row:
it is feasible iff the largest ``eps`` is positive, and that point satisfies
the strict rows with margin.  :func:`maximize` reports the supremum over the
topological closure (strict rows relaxed to non-strict) together with an
attainment flag checked against the strict rows.  Phase 1 runs once per
system: :class:`LinearProgram` keeps the basis that phase 1 and the
artificial drive-out reach, and each objective is a phase 2 on a copy.  The
``eps`` tableau gives the relaxed suprema too, as ``eps = 0`` is allowed and
``eps >= 0`` only tightens strict rows.  Feasibility is decided by phase 1,
and for a strict system by the ``eps`` maximum; the witness vertex is built
only when it is first read, so a yes/no question builds none.

The pivoting core is a dense two-phase simplex with Bland's rule, which
cannot cycle, on a fraction-free integer tableau: each row is held as
Python ints with a positive entry in its basic column and read as its
entries divided by that entry, pivots cross-multiply and divide by the
row's gcd, and ``Fraction`` values are built only for the answer.  It
makes exactly the pivots the same simplex makes on ``Fraction`` entries,
so every status, value and witness is the one that simplex gives.

Rows become integers before the tableau is built, and the one
constructor, ``LinearProgram(variables, rows)``, lays every tableau out
from integer rows, each with its scale.  It alone recognises a sign row,
one that a variable's nonnegativity implies, whether spelled as a full
row or as the variable's index, and builds no tableau row for it.  Both
engines hand it their branch systems, whose variables are the family's
profiles, through :class:`~pltlf.automaton.Branches`;
:func:`solve_feasibility` and :func:`maximize` hand it a
:class:`LinearSystem`'s variables and rows, each row scaled by the lcm of
its denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional

from .syntax import Comparison

ZERO = Fraction(0)


# Rows and probability bounds share one comparison type.  ``Rel`` stays
# bound to it only because the benchmark's checks (bench/checks.py) spell
# ``Rel.GE``, ``Rel.EQ`` and ``Rel("<=")``.
Rel = Comparison


@dataclass(frozen=True)
class LinearConstraint:
    """Row ``sum coeffs[i] * x_i  <rel>  rhs`` over the system's variables."""

    coeffs: tuple
    rel: Comparison
    rhs: Fraction


@dataclass(frozen=True)
class LinearSystem:
    """Rows over named variables, which are nonnegative whether or not a
    row says so; ``x >= 0`` rows stay for display and for the oracles."""

    variables: tuple
    constraints: tuple = ()

    @classmethod
    def from_rows(cls, variables, rows) -> "LinearSystem":
        """Build from (coeff dict, rel, rhs) triples. Unknown names are errors."""
        variables = tuple(variables)
        index = {v: i for i, v in enumerate(variables)}
        constraints = []
        for coeffs, rel, rhs in rows:
            dense = [ZERO] * len(variables)
            for name, c in coeffs.items():
                dense[index[name]] = Fraction(c)
            constraints.append(LinearConstraint(tuple(dense), rel, Fraction(rhs)))
        return cls(variables, tuple(constraints))

    def holds(self, point: dict) -> bool:
        """Exact membership test for a nonnegative named point."""
        if any(point[name] < 0 for name in self.variables):
            return False
        for c in self.constraints:
            lhs = sum(
                (coeff * point[name] for coeff, name in zip(c.coeffs, self.variables)),
                start=ZERO,
            )
            if not c.rel.holds(lhs, c.rhs):
                return False
        return True


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: Optional[dict] = None


@dataclass(frozen=True)
class Optimum:
    """Supremum of an objective; ``attained`` respects strict rows, and
    ``witness`` is a point attaining it, or None."""

    supremum: Fraction
    attained: bool
    witness: Optional[dict] = None


class InfeasibleSystemError(RuntimeError):
    pass


class UnboundedObjectiveError(RuntimeError):
    pass


def _eliminate(row, col, prow, piv):
    """``row * piv - row[col] * prow`` divided by its gcd: a positive
    multiple of the row with ``prow``'s basic column cleared from ``col``."""
    f = row[col]
    out = [a * piv - f * b for a, b in zip(row, prow)]
    g = gcd(*out)
    return [v // g for v in out] if g > 1 else out


def _pivot(tab, basis, row, col):
    prow = tab[row]
    piv = prow[col]
    if piv < 0:  # a zero-level artificial driven out on a negative entry
        prow = tab[row] = [-v for v in prow]
        piv = -piv
    for r, other in enumerate(tab):
        if r != row and other[col] != 0:
            tab[r] = _eliminate(other, col, prow, piv)
    basis[row] = col


def _optimize(tab, basis, m):
    """Run Bland pivots until the reduced-cost row (last) is non-positive.

    The ratio test compares ``rhs / entry`` by cross-multiplication and
    breaks ties on the smaller basic column.  Returns False if an entering
    column proves the objective unbounded.
    """
    rc = tab[m]
    width = len(rc) - 1
    while True:
        col = next((j for j in range(width) if rc[j] > 0), None)
        if col is None:
            return True
        best_row = None
        for r in range(m):
            a = tab[r][col]
            if a > 0:
                b = tab[r][-1]
                if best_row is None:
                    best_row, best_b, best_a = r, b, a
                    continue
                lhs, rhs = b * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best_row]):
                    best_row, best_b, best_a = r, b, a
        if best_row is None:
            return False
        _pivot(tab, basis, best_row, col)
        rc = tab[m]


def _reduced_costs(tab, basis, m, objective):
    """Install a positive multiple of the reduced-cost row for the given
    column objective: the scaled objective with each basic row eliminated."""
    scale = lcm(*(c.denominator for c in objective))
    rc = [c.numerator * (scale // c.denominator) for c in objective] + [0]
    for r in range(m):
        row = tab[r]
        if rc[basis[r]] != 0:
            rc = _eliminate(rc, basis[r], row, row[basis[r]])
    tab[m] = rc


def _phase_one(tab, n):
    """Phase 1 of  max . y  s.t.  rows y = rhs, y >= 0,  and the drive-out.

    ``tab`` holds one integer row per constraint: ``n`` real columns, one
    artificial column per row and a nonnegative rhs.  Row i is basic in
    its artificial column n + i, which holds the row's positive scale, so
    it reads as its entries divided by that scale.  Every row is kept with
    a positive entry in its basic column and read the same way.  The pivots
    are the ones the same simplex makes on Fractions.  Returns the feasible
    (tableau, basis) without the artificial columns, or None when the rows
    have no solution.
    """
    m = len(tab)
    basis = list(range(n, n + m))
    tab.append([])

    phase1 = [0] * n + [-1] * m
    _reduced_costs(tab, basis, m, phase1)
    _optimize(tab, basis, m)
    if any(tab[r][-1] > 0 for r in range(m) if basis[r] >= n):
        return None

    # Drive leftover zero-value artificials out of the basis; rows that have
    # no real coefficient left are redundant and dropped.
    r = 0
    while r < len(tab) - 1:
        if basis[r] >= n:
            col = next((j for j in range(n) if tab[r][j] != 0), None)
            if col is None:
                del tab[r]
                del basis[r]
                continue
            _pivot(tab, basis, r, col)
        r += 1
    return [row[:n] + [row[-1]] for row in tab], basis


def _phase_two(tab, basis, objective):
    """max objective . y  from a kept (tableau, basis), on a copy: the
    optimal (tableau, basis), or None when the objective is unbounded."""
    # a shallow copy is enough: pivots replace rows and never change one
    tab, basis, m = tab[:], basis[:], len(basis)
    _reduced_costs(tab, basis, m, objective)
    if not _optimize(tab, basis, m):
        return None
    return tab, basis


def _vertex(tab, basis, width) -> list:
    """The basic solution of an optimal (tableau, basis) over ``width``
    columns: each basic column's rhs over its entry, the rest zero."""
    y = [ZERO] * width
    for r, j in enumerate(basis):
        y[j] = Fraction(tab[r][-1], tab[r][j])
    return y


def _basic_value(tab, basis, j) -> Fraction:
    """Column j's value at the basic solution: its basic row's rhs over
    its entry, or zero when it is not basic."""
    for r, b in enumerate(basis):
        if b == j:
            return Fraction(tab[r][-1], tab[r][j])
    return ZERO


_EPS = "__eps__"


def _int_rows(system: LinearSystem) -> list:
    """The system's rows for :class:`LinearProgram`, each scaled to
    integers by the lcm of its denominators."""
    rows = []
    for c in system.constraints:
        scale = lcm(*(a.denominator for a in c.coeffs), c.rhs.denominator)
        coeffs = [a.numerator * (scale // a.denominator) for a in c.coeffs]
        rows.append((coeffs, c.rel, c.rhs.numerator * (scale // c.rhs.denominator), scale))
    return rows


class LinearProgram:
    """A system of integer rows after phase 1: ``kept`` is its tableau and
    feasible basis (None if even the relaxed system is infeasible),
    ``feasible`` says whether the system itself has a point, and
    ``witness`` is the feasibility objective's vertex by variable (None if
    the system is infeasible).

    A row is ``(coeffs, rel, rhs, scale)``, the constraint ``coeffs . x
    <rel> rhs`` divided by the positive ``scale``, with integer
    coefficients and rhs, or the index k of the sign row ``variables[k]
    >= 0``.  A full row that the sign of its one variable implies, ``a x
    >= b`` with ``a > 0 >= b``, is read as that index; a sign row builds
    no tableau row.
    """

    def __init__(self, variables, rows):
        """Build the integer tableau and run phase 1.

        Columns run: variables without a sign row, eps for a strict
        system, then one column per row in row order, a sign row's variable
        (at its first sign row) or an inequality's slack.  Bland's rule
        thus meets each variable where its sign row's slack would stand,
        and reaches the vertices of the tableau that keeps sign rows.  The
        eps and slack entries of a row are its scale, which its artificial
        column holds too, and a row with a negative rhs is negated.
        """
        self.variables = variables
        specs, placed, signed = [], [], set()  # (coeffs, eps coeff, rel, rhs, scale)
        for row in rows:
            if not isinstance(row, int) and row[1] is Comparison.GE and row[2] <= 0:
                held = [k for k, a in enumerate(row[0]) if a]
                if len(held) == 1 and row[0][held[0]] > 0:
                    row = held[0]  # the sign row of its one variable
            if isinstance(row, int):
                if row not in signed:
                    signed.add(row)
                    placed.append(variables[row])
                continue
            coeffs, rel, rhs, scale = row
            eps_coeff = 0
            if rel.strict:
                eps_coeff = 1 if rel is Comparison.LT else -1
                rel = rel.relaxed
            specs.append((coeffs, eps_coeff, rel, rhs, scale))
            if rel is not Comparison.EQ:
                placed.append(("slack", len(specs) - 1))
        strict = self.strict = any(spec[1] for spec in specs)
        if strict:
            specs.append(((), 1, Comparison.LE, 1, 1))
            placed.append(("slack", len(specs) - 1))

        free = [v for k, v in enumerate(variables) if k not in signed]
        columns = free + [_EPS] * strict + placed
        col = self.col = {key: i for i, key in enumerate(columns)}
        n, m = len(columns), len(specs)
        var_cols = [col[v] for v in variables]
        tab = []
        for i, (coeffs, eps_coeff, rel, rhs, scale) in enumerate(specs):
            flip = rhs < 0
            unit = -scale if flip else scale
            row = [0] * (n + m + 1)
            for j, a in zip(var_cols, coeffs):
                if a:
                    row[j] = -a if flip else a
            if eps_coeff:
                row[col[_EPS]] = eps_coeff * unit
            if rel is not Comparison.EQ:
                row[col["slack", i]] = unit if rel is Comparison.LE else -unit
            row[n + i] = scale
            row[-1] = abs(rhs)
            tab.append(row)
        # The feasibility objective is zero without strict rows, so the
        # kept basis is its optimum; with them it is the largest eps, which
        # must be positive.  Its vertex is built when ``witness`` is read.
        self.kept = self._feasible_basis = _phase_one(tab, n)
        if strict and self.kept is not None:
            best = self._optimum(_EPS)
            self._feasible_basis = best if _basic_value(*best, col[_EPS]) > 0 else None
        self.feasible = self._feasible_basis is not None

    @cached_property
    def witness(self) -> Optional[dict]:
        """The feasibility objective's optimal vertex, None when the system
        is infeasible; built on first read and kept."""
        return None if self._feasible_basis is None else self._point(*self._feasible_basis)

    def _point(self, tab, basis) -> dict:
        """The basic solution of an optimal (tableau, basis), by variable."""
        y = _vertex(tab, basis, len(self.col))
        return {v: y[self.col[v]] for v in self.variables}

    def _optimum(self, column):
        """Phase 2 for a column from the kept basis."""
        if self.kept is None:
            raise InfeasibleSystemError("system is infeasible")
        obj = [0] * len(self.col)
        obj[self.col[column]] = 1
        optimum = _phase_two(*self.kept, obj)
        if optimum is None:
            raise UnboundedObjectiveError(f"variable {column!r} unbounded above")
        return optimum

    def maximum(self, column) -> Fraction:
        """The column's largest value, for a variable its supremum over the
        closure, read off its basic row; no vertex is built."""
        return _basic_value(*self._optimum(column), self.col[column])


def solve_feasibility(system: LinearSystem) -> FeasibilityResult:
    """Decide feasibility exactly; the witness satisfies strict rows strictly."""
    lp = LinearProgram(system.variables, _int_rows(system))
    return FeasibilityResult(lp.feasible, lp.witness)


def maximize(system: LinearSystem, variable: str) -> Optimum:
    """Supremum of a variable over the system.

    The supremum is taken over the closure of the feasible region; whether
    it is attained is decided against the strict rows.  Without strict
    rows the witness is the optimal vertex of that solve, deterministic
    under Bland's rule; with them it is a point of the system with the
    variable pinned to the supremum, or None when it is not attained.

    Raises :class:`InfeasibleSystemError` when the system itself is
    infeasible and :class:`UnboundedObjectiveError` when the variable grows
    without bound.
    """
    if variable not in system.variables:
        raise KeyError(f"unknown variable {variable!r}")
    rows = _int_rows(system)
    lp = LinearProgram(system.variables, rows)
    if not lp.feasible:
        raise InfeasibleSystemError("system is infeasible")
    if not lp.strict:
        point = lp._point(*lp._optimum(variable))
        return Optimum(point[variable], True, point)
    value = lp.maximum(variable)
    num, den = value.as_integer_ratio()
    pin = [den if v == variable else 0 for v in system.variables]
    pinned = LinearProgram(system.variables, rows + [(pin, Comparison.EQ, num, den)])
    return Optimum(value, pinned.feasible, pinned.witness)
