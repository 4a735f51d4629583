"""Exact linear feasibility and optimization over the rationals.

Systems mix non-strict, strict and equality rows over named variables,
and every variable is nonnegative: the solver gives each one a single
nonnegative tableau column, whether or not the system spells ``x >= 0``.
Feasibility with strict rows is decided by adjoining a slack variable
``eps`` to every strict row and maximizing it (capped at 1): the system is
feasible iff the optimum is positive, and the maximizing point satisfies the
strict rows with margin.  :func:`maximize` reports the supremum over the
topological closure (strict rows relaxed to non-strict) together with an
attainment flag checked against the strict rows.

The pivoting core is a dense two-phase simplex on ``fractions.Fraction``
with Bland's rule, which cannot cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .syntax import Comparison

ZERO = Fraction(0)
ONE = Fraction(1)


# Rows and probability bounds share one comparison type.  ``Rel`` stays
# bound to it because the benchmark's checks and the test oracles spell
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

    def with_rows(self, rows) -> "LinearSystem":
        extra = LinearSystem.from_rows(self.variables, rows)
        return LinearSystem(self.variables, self.constraints + extra.constraints)

    def relaxed(self) -> "LinearSystem":
        """Strict rows weakened to their non-strict closure."""
        return LinearSystem(
            self.variables,
            tuple(LinearConstraint(c.coeffs, c.rel.relaxed, c.rhs) for c in self.constraints),
        )

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

    def render_rows(self) -> tuple:
        out = []
        for c in self.constraints:
            terms = []
            for coeff, name in zip(c.coeffs, self.variables):
                if coeff == 0:
                    continue
                if coeff == 1:
                    text = name
                elif coeff == -1:
                    text = f"-{name}"
                else:
                    text = f"{coeff} {name}"
                terms.append(text)
            lhs = " + ".join(terms) if terms else "0"
            out.append(f"{lhs} {c.rel.value} {c.rhs}")
        return tuple(out)


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


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    for r in range(len(tab)):
        if r != row and tab[r][col] != 0:
            factor = tab[r][col]
            tab[r] = [a - factor * b for a, b in zip(tab[r], tab[row])]
    basis[row] = col


def _optimize(tab, basis, m):
    """Run Bland pivots until the reduced-cost row (last) is non-positive.

    Returns False if an entering column proves the objective unbounded.
    """
    rc = tab[m]
    width = len(rc) - 1
    while True:
        col = next((j for j in range(width) if rc[j] > 0), None)
        if col is None:
            return True
        best_row, best_ratio = None, None
        for r in range(m):
            a = tab[r][col]
            if a > 0:
                ratio = tab[r][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_row])
                ):
                    best_row, best_ratio = r, ratio
        if best_row is None:
            return False
        _pivot(tab, basis, best_row, col)
        rc = tab[m]


def _reduced_costs(tab, basis, m, objective):
    """Install the reduced-cost row for the given column objective."""
    rc = list(objective) + [ZERO]
    for r in range(m):
        c_b = objective[basis[r]]
        if c_b != 0:
            rc = [a - c_b * b for a, b in zip(rc, tab[r])]
    tab[m] = rc


def _solve_standard(rows, rhs, n, objective):
    """max objective . y  s.t.  rows y = rhs, y >= 0.

    Returns (status, value, y) with status in optimal/infeasible/unbounded.
    """
    m = len(rows)
    tab = []
    for i in range(m):
        row, b = list(rows[i]), rhs[i]
        if b < 0:
            row = [-v for v in row]
            b = -b
        art = [ZERO] * m
        art[i] = ONE
        tab.append(row + art + [b])
    basis = list(range(n, n + m))
    tab.append([])

    phase1 = [ZERO] * n + [-ONE] * m
    _reduced_costs(tab, basis, m, phase1)
    _optimize(tab, basis, m)
    if sum((tab[r][-1] for r in range(m) if basis[r] >= n), start=ZERO) > 0:
        return "infeasible", None, None

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
    m = len(tab) - 1
    for r in range(m + 1):
        tab[r] = tab[r][:n] + [tab[r][-1]]

    full_obj = list(objective) + [ZERO] * (n - len(objective))
    _reduced_costs(tab, basis, m, full_obj)
    if not _optimize(tab, basis, m):
        return "unbounded", None, None
    y = [ZERO] * n
    for r in range(m):
        if basis[r] < n:
            y[basis[r]] = tab[r][-1]
    value = sum((c * v for c, v in zip(full_obj, y)), start=ZERO)
    return "optimal", value, y


_EPS = "__eps__"


def _sign_row(c: LinearConstraint) -> bool:
    """True for ``a x >= b`` with ``a > 0 >= b``, which nonnegativity implies."""
    nonzero = [a for a in c.coeffs if a != 0]
    return c.rel is Comparison.GE and c.rhs <= 0 and len(nonzero) == 1 and nonzero[0] > 0


def _solve(system: LinearSystem, objective: dict, with_eps: bool):
    """Named-variable front end: one nonnegative column per variable.

    A row implied by its variable's sign builds no tableau row.  Columns
    run: variables without such a row, eps, then one column per row in
    row order, a sign row's variable or an inequality's slack.  Bland's
    rule thus meets each variable where its sign row's slack would stand,
    and reaches the vertices, so the witnesses, of the tableau that keeps
    sign rows.  Returns (status, value, point); point holds eps when
    requested.
    """
    names = system.variables
    specs, placed = [], []  # (coeffs, eps coeff, rel, rhs); column keys
    for c in system.constraints:
        if _sign_row(c):
            name = next(v for a, v in zip(c.coeffs, names) if a != 0)
            if name not in placed:
                placed.append(name)
            continue
        rel, eps_coeff = c.rel, ZERO
        if rel.strict:
            if not with_eps:
                raise AssertionError("strict row reached the relaxed solver")
            eps_coeff = ONE if rel is Comparison.LT else -ONE
            rel = rel.relaxed
        specs.append((c.coeffs, eps_coeff, rel, c.rhs))
        if rel is not Comparison.EQ:
            placed.append(("slack", len(specs) - 1))
    if with_eps:
        specs.append(((ZERO,) * len(names), ONE, Comparison.LE, ONE))
        placed.append(("slack", len(specs) - 1))

    columns = [v for v in names if v not in placed] + [_EPS] * with_eps + placed
    col = {key: i for i, key in enumerate(columns)}
    rows = []
    for k, (coeffs, eps_coeff, rel, _) in enumerate(specs):
        row = [ZERO] * len(columns)
        for name, coeff in zip(names, coeffs):
            row[col[name]] = coeff
        if with_eps:
            row[col[_EPS]] = eps_coeff
        if rel is not Comparison.EQ:
            row[col["slack", k]] = ONE if rel is Comparison.LE else -ONE
        rows.append(row)
    obj = [ZERO] * len(columns)
    for name, coeff in objective.items():
        obj[col[name]] = Fraction(coeff)

    status, value, y = _solve_standard(rows, [spec[3] for spec in specs], len(columns), obj)
    if status != "optimal":
        return status, None, None
    return status, value, {v: y[col[v]] for v in list(names) + [_EPS] * with_eps}


def solve_feasibility(system: LinearSystem) -> FeasibilityResult:
    """Decide feasibility exactly; the witness satisfies strict rows strictly."""
    strict = any(c.rel.strict for c in system.constraints)
    status, value, point = _solve(system, {_EPS: ONE} if strict else {}, with_eps=strict)
    if status == "infeasible" or (strict and value <= 0):
        return FeasibilityResult(False)
    point.pop(_EPS, None)
    return FeasibilityResult(True, point)


def maximize(system: LinearSystem, variable: str) -> Optimum:
    """Supremum of a variable over the system.

    The supremum is taken over the closure of the feasible region; whether
    it is attained is decided against the strict rows.  Without strict rows
    the witness is the optimal vertex of that solve, deterministic under
    Bland's rule; with them it is a point of the system with the variable
    pinned to the supremum, or None when the supremum is not attained.
    A caller that knows the system is feasible and reads only the supremum
    can pass ``system.relaxed()``, which solves one LP.

    Raises :class:`InfeasibleSystemError` when the system itself is
    infeasible and :class:`UnboundedObjectiveError` when the variable grows
    without bound.
    """
    if variable not in system.variables:
        raise KeyError(f"unknown variable {variable!r}")
    strict = any(c.rel.strict for c in system.constraints)
    if strict and not solve_feasibility(system).feasible:
        raise InfeasibleSystemError("system is infeasible")
    status, value, point = _solve(system.relaxed(), {variable: ONE}, with_eps=False)
    if status == "infeasible":
        raise InfeasibleSystemError("system is infeasible")
    if status == "unbounded":
        raise UnboundedObjectiveError(f"variable {variable!r} unbounded above")
    if not strict:
        return Optimum(value, True, point)
    res = solve_feasibility(system.with_rows([({variable: 1}, Comparison.EQ, value)]))
    return Optimum(value, res.feasible, res.witness)
