"""Fraction reference for the exact simplex kernel.

``pltlf.linsolve`` pivots on an integer tableau.  The functions here are
the dense two-phase simplex on ``fractions.Fraction`` that it replaced,
with the same column layout, Bland's rule and artificial drive-out, so
tests can check that both kernels make the same pivots and give the same
answers on the same standard-form rows.

``maximize`` is the named front end that solved every objective with a
phase 1 of its own: on a system with strict rows it solves three LPs, a
feasibility test, the maximum over the relaxed system, and the
feasibility of the system with the variable pinned to that maximum.
"""

from __future__ import annotations

from fractions import Fraction

from oracles import relaxed, with_rows
from pltlf.linsolve import (
    Comparison,
    InfeasibleSystemError,
    Optimum,
    UnboundedObjectiveError,
)

ZERO = Fraction(0)
ONE = Fraction(1)


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


EPS = "__eps__"


def sign_row(c) -> bool:
    """True for ``a x >= b`` with ``a > 0 >= b``, which nonnegativity implies."""
    nonzero = [a for a in c.coeffs if a != 0]
    return c.rel is Comparison.GE and c.rhs <= 0 and len(nonzero) == 1 and nonzero[0] > 0


def standard_form(system, with_eps: bool):
    """The columns, rows and rhs of the system's standard form.

    A row implied by its variable's sign builds no tableau row.  Columns
    run: variables without such a row, eps, then one column per row in
    row order, a sign row's variable or an inequality's slack.
    """
    names = system.variables
    specs, placed = [], []  # (coeffs, eps coeff, rel, rhs); column keys
    for c in system.constraints:
        if sign_row(c):
            name = next(v for a, v in zip(c.coeffs, names) if a != 0)
            if name not in placed:
                placed.append(name)
            continue
        rel, eps_coeff = c.rel, ZERO
        if rel.strict:
            assert with_eps, "strict row reached the relaxed solver"
            eps_coeff = ONE if rel is Comparison.LT else -ONE
            rel = rel.relaxed
        specs.append((c.coeffs, eps_coeff, rel, c.rhs))
        if rel is not Comparison.EQ:
            placed.append(("slack", len(specs) - 1))
    if with_eps:
        specs.append(((ZERO,) * len(names), ONE, Comparison.LE, ONE))
        placed.append(("slack", len(specs) - 1))

    columns = [v for v in names if v not in placed] + [EPS] * with_eps + placed
    col = {key: i for i, key in enumerate(columns)}
    rows = []
    for k, (coeffs, eps_coeff, rel, _) in enumerate(specs):
        row = [ZERO] * len(columns)
        for name, coeff in zip(names, coeffs):
            row[col[name]] = coeff
        if with_eps:
            row[col[EPS]] = eps_coeff
        if rel is not Comparison.EQ:
            row[col["slack", k]] = ONE if rel is Comparison.LE else -ONE
        rows.append(row)
    return columns, rows, [spec[3] for spec in specs]


def solve(system, objective: dict, with_eps: bool):
    """One LP over named nonnegative variables, solved from scratch on its
    :func:`standard_form`.  Returns (status, value, point); point holds eps
    when requested.
    """
    names = system.variables
    columns, rows, rhs = standard_form(system, with_eps)
    col = {key: i for i, key in enumerate(columns)}
    obj = [ZERO] * len(columns)
    for name, coeff in objective.items():
        obj[col[name]] = Fraction(coeff)

    status, value, y = _solve_standard(rows, rhs, len(columns), obj)
    if status != "optimal":
        return status, None, None
    return status, value, {v: y[col[v]] for v in list(names) + [EPS] * with_eps}


def feasibility_witness(system):
    """The feasible point the feasibility LP reaches, or None."""
    strict = any(c.rel.strict for c in system.constraints)
    status, value, point = solve(system, {EPS: ONE} if strict else {}, with_eps=strict)
    if status == "infeasible" or (strict and value <= 0):
        return None
    point.pop(EPS, None)
    return point


def maximize(system, variable: str) -> Optimum:
    """``pltlf.linsolve.maximize`` with one phase 1 per LP."""
    strict = any(c.rel.strict for c in system.constraints)
    if strict and feasibility_witness(system) is None:
        raise InfeasibleSystemError("system is infeasible")
    status, value, point = solve(relaxed(system), {variable: ONE}, with_eps=False)
    if status == "infeasible":
        raise InfeasibleSystemError("system is infeasible")
    if status == "unbounded":
        raise UnboundedObjectiveError(f"variable {variable!r} unbounded above")
    if not strict:
        return Optimum(value, True, point)
    witness = feasibility_witness(with_rows(system, [({variable: 1}, Comparison.EQ, value)]))
    return Optimum(value, witness is not None, witness)
