"""Subformula closure and its atoms.

The closure of a normalized formula contains every subformula, as
``syntax.subformulas`` walks them, ``X(l U r)`` for every until among them,
and the negation of each of these (reduced, so no double negations and no
negated probability bounds); negating a member again gives it back.  An
atom is a subset that picks exactly one member of each negation pair and
is locally consistent: a conjunction is in iff all its conjuncts are, an
until is in iff its right argument is or both its left argument and the
unfolded next-step obligation are, ``true`` is always in.

Atoms are built bit-sliced: each member has one int column whose bit p
says whether it is in the atom of free-bit pattern p.  A free member's
column is periodic, and every other column is a few ``&``, ``^`` and ``|``
of smaller members' columns, so each consistency rule runs once per member,
not once per atom.  An atom is a row of the columns, an int bitmask over
the members, and :func:`transpose` turns columns into rows with no
per-row Python work.  The tree automaton keeps its atoms, and its per-atom
masks, as such rows; an :class:`Atom` object wraps a row only where the
API returns one, in :func:`enumerate_atoms` and :func:`atom_of_members`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, itemgetter
from typing import Iterator

from .syntax import (
    And,
    FalseConst,
    Formula,
    Next,
    Not,
    Prob,
    Prop,
    TrueConst,
    Until,
    formula_text,
    negate,
    normalize,
    size_and_text,
    subformulas,
)


class ClosureSet:
    """Negation-complete subformula closure, in a fixed canonical order.

    Members are ordered by (node count, rendered text); indices into that
    order identify members everywhere downstream.
    """

    def __init__(self, root: Formula):
        root = normalize(root)
        subs = set(subformulas(root))
        subs |= {Next(g) for g in subs if isinstance(g, Until)}
        pairs = [(g, negate(g)) for g in subs]
        subs = list(subs.union(h for _, h in pairs))
        keys = size_and_text(subs)
        members = tuple(g for _, g in sorted(zip(keys, subs), key=itemgetter(0)))
        self.root = root
        self.members = members
        self.index = index = {g: i for i, g in enumerate(members)}
        # negating a member again gives it back, so each pair sets both
        negation = [0] * len(members)
        for g, h in pairs:
            negation[index[g]], negation[index[h]] = index[h], index[g]
        self.negation = tuple(negation)
        self._hash = hash(members)

        # Enumeration plan: each negation pair contributes one free bit or
        # none.  Propositions, next members and the smaller-indexed side of
        # each probability pair are free.  Every other member's column is a
        # conjunction of smaller members' columns, maybe negated, and an
        # until's is joined with its right argument's; operand indices are
        # resolved here, once.
        free, plan = [], []
        index, negation = self.index, self.negation
        for i, g in enumerate(members):
            if isinstance(g, (Prop, Next)) or (isinstance(g, Prob) and i < negation[i]):
                free.append(i)
                continue
            match g:
                case TrueConst() | FalseConst():
                    rule = (), isinstance(g, FalseConst), None
                case Not(_) | Prob():  # the complement of the other side
                    rule = (negation[i],), True, None
                case And(ops):
                    rule = tuple(index[o] for o in ops), False, None
                case Until(l, r):  # r | (l & X(l U r))
                    rule = (index[l], index[Next(g)]), False, index[r]
                case _:
                    raise AssertionError(f"unexpected derived member {g!r}")
            plan.append((i, *rule))
        self._free = tuple(free)
        self._plan = tuple(plan)

        self.prob_members = tuple(i for i, g in enumerate(members) if isinstance(g, Prob))
        self.next_members = tuple(i for i, g in enumerate(members) if isinstance(g, Next))
        self.prop_members = tuple(i for i, g in enumerate(members) if isinstance(g, Prop))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, f: Formula) -> bool:
        return normalize(f) in self.index

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.members)

    def __eq__(self, other) -> bool:
        return isinstance(other, ClosureSet) and self.members == other.members

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<ClosureSet of {formula_text(self.root)}, {len(self)} members>"

    def atom_count(self) -> int:
        return 1 << len(self._free)

    def valuation(self, bits: int) -> frozenset:
        """Names of the propositions in the atom with bitmask ``bits``."""
        return frozenset(self.members[i].name for i in self.prop_members if bits >> i & 1)

    def pattern_mask(self, members) -> int:
        """The bits that the given free members set in a free-bit pattern."""
        return sum(1 << j for j, i in enumerate(self._free) if i in members)

    @cached_property
    def columns(self) -> tuple:
        """Every member's column over all free patterns, in closure order;
        free member j's column is :func:`free_column` j."""
        count = self.atom_count()
        free = [free_column(j, count) for j in range(len(self._free))]
        return tuple(self._evaluate(free, (1 << count) - 1))

    def _evaluate(self, free_columns, full: int) -> list:
        """Every member's column from the free members' columns, by the
        enumeration plan; ``full`` has one bit per pattern."""
        cols = [0] * len(self.members)
        for i, c in zip(self._free, free_columns):
            cols[i] = c
        for i, conjuncts, negated, joined in self._plan:
            c = reduce(and_, [cols[o] for o in conjuncts], full) ^ (full if negated else 0)
            cols[i] = c if joined is None else c | cols[joined]
        return cols


@dataclass(frozen=True)
class Atom:
    """Maximal locally consistent subset of a closure, as a bitmask."""

    closure: ClosureSet
    bits: int

    def __contains__(self, f: Formula) -> bool:
        i = self.closure.index.get(normalize(f))
        if i is None:
            raise KeyError(f"{formula_text(f)} is not a closure member")
        return bool(self.bits >> i & 1)

    def members(self) -> tuple:
        return tuple(g for i, g in enumerate(self.closure.members) if self.bits >> i & 1)

    def valuation(self) -> frozenset:
        return self.closure.valuation(self.bits)

    def prob_members(self) -> tuple:
        """Probability bounds present, in closure order."""
        return tuple(
            self.closure.members[i] for i in self.closure.prob_members if self.bits >> i & 1
        )

    def __repr__(self) -> str:
        inner = ", ".join(formula_text(g) for g in self.members())
        return f"<Atom {{{inner}}}>"


def free_column(j: int, count: int) -> int:
    """The patterns below ``count``, a power of two, that set bit j, as a
    column: 2^j clear bits, then 2^j set bits, one period doubled until it
    fills the patterns."""
    period = 2 << j
    c = ((1 << (1 << j)) - 1) << (1 << j)
    while period < count:
        c |= c << period
        period *= 2
    return c


def transpose(columns, count: int) -> list:
    """Rows of a bit matrix given by its columns: bit j of row p is bit p
    of ``columns[j]``, for p below ``count``.

    A column's binary text, read as one int, has one byte per row whose
    low bit is that row's bit, so eight columns shifted and joined give one
    byte per row.  Each such byte fills one byte of its row's 8-byte lane,
    and one cast turns all lanes into ints; every further 64 columns make
    one more lane, shifted into the rows.  No step loops over rows in
    Python but the last merges."""
    ones = int.from_bytes(b"\x01" * count, "big")
    rows = [0] * count
    for start in range(0, len(columns), 64):
        block = columns[start:start + 64]
        lanes = bytearray(8 * count)
        for b in range(0, len(block), 8):
            packed = 0
            for k, c in enumerate(block[b:b + 8]):
                packed |= (int.from_bytes(format(c, f"0{count}b").encode(), "big") & ones) << k
            at = b // 8 if sys.byteorder == "little" else 7 - b // 8
            lanes[at::8] = packed.to_bytes(count, "little")
        lane = memoryview(lanes).cast("Q").tolist()
        rows = lane if start == 0 else [r | x << start for r, x in zip(rows, lane)]
    return rows


def enumerate_atoms(clo: ClosureSet) -> Iterator[Atom]:
    """All atoms, in increasing order of their free-bit pattern: the rows
    of the closure's columns."""
    return (Atom(clo, bits) for bits in transpose(clo.columns, clo.atom_count()))


def atom_of_members(clo: ClosureSet, members) -> Atom:
    """Atom containing exactly the given members; checks consistency by
    evaluating the columns of its one free pattern."""
    bits = 0
    for g in members:
        g = normalize(g)
        i = clo.index.get(g)
        if i is None:
            raise ValueError(f"{formula_text(g)} is not a closure member")
        bits |= 1 << i
    rebuilt = transpose(clo._evaluate([bits >> i & 1 for i in clo._free], 1), 1)[0]
    if rebuilt != bits:
        wrong = rebuilt ^ bits
        missing = [formula_text(g) for i, g in enumerate(clo.members) if wrong >> i & 1]
        raise ValueError(f"not an atom; inconsistent at: {', '.join(missing)}")
    return Atom(clo, bits)
