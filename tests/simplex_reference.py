"""Fraction reference for the exact simplex kernel.

``pltlf.linsolve`` pivots on an integer tableau.  The functions here are
the dense two-phase simplex on ``fractions.Fraction`` that it replaced,
with the same column layout, Bland's rule and artificial drive-out, so
tests can check that both kernels make the same pivots and give the same
answers on the same standard-form rows.
"""

from __future__ import annotations

from fractions import Fraction

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
