"""Tree automaton over atoms: the compiled form of a formula.

States are the atoms of the closure.  A transition out of an atom picks a
scenario: a family S of subsets of the atom's probability members whose
branch system (one probability row per member, plus nonnegativity and a
total mass of one) is feasible.  Each subset in S labels one child position;
the child atom must carry exactly the arguments that subset promises, every
next member of the parent must hold in all children, and every absent next
member must fail in at least one child.

An atom is final when it has no next member and all its probability bounds
accept mass zero; those atoms may label leaves.  Good states are computed as
the least fixpoint of "has a transition into only good states" seeded with
the finals, by a level-synchronous worklist: a sweep re-decides only the
parents whose candidate buckets gained a first good atom in the sweep
before.  The sweep index at which an atom joins is its distance to
acceptance and drives witness extraction.

A child's part in a transition reads two of its masks: its next-argument
mask, which fixes its *cover*, the parent's absent next members it
refutes, and its probability-argument profile, which fixes its position.
So the automaton keeps one child index, its atoms by *bucket*, a
(next-argument mask, profile) pair, each bucket in atom order, and every
decision reads which buckets hold an admissible atom and each such
bucket's first one, its representative.

Without probability pairs the only family is ``(0,)``: its system puts all
the mass on one child, which must refute every absent next member itself,
so the children of a parent are exactly the atoms whose next-argument mask
equals its next mask, the one bucket under that mask at profile 0.  Good
states are then backward reachability from the finals, and the good
states and the weighted automaton's groups read that bucket with no LP;
the witness takes the general path, whose one family is feasible at once.

No decision enumerates families; :meth:`TreeAutomaton.scenario_family`
lists them only to explain the construction.  Against a set of admissible
children, an atom's kept table holds one entry per bucket that can hold
its children and has an admissible atom: the representative and the
bucket's cover, per profile.  The table's profiles are the atom's maximal
family.  That family alone decides whether the atom has a transition into
the set, because three facts make every property needed here monotone in
the family:

- feasibility is upward-closed: an extra branch can take zero mass;
- a larger family only has more positions that can refute the absent next
  members, so a child tuple of a subfamily extends to one of the family;
- adjoining variables never lowers the supremum of a branch mass.

That decision reads only the atom's next mask, which fixes its candidate
buckets and what they must refute, and its probability signature, which
fixes its branch systems; being final reads the same two, so the atoms
fall into classes by those two.  Its halves read one each: the kept
table, and the maximal family, first tuple and occupants read off it,
read only the next mask, and the family's feasibility only the signature
and the family.  So the kept table is built once per next mask, and
feasibility is asked once per class whose mask's family has a child
tuple; each signature's :class:`Branches` keeps its programs per family.

A branch system asks whether some distribution over the family's
profiles, its child subsets, puts the required mass on every bound's
argument.  Each signature keeps one :class:`Branches`, which answers
feasibility, points and maxima mostly by reading the profiles, and
builds a program only for what they leave open.  The flat engine's mass
system is a branch system too, over the scenarios, and asks the same
class.

The program asks two questions of a scenario: the first child tuple, which
decides whether a transition exists and gives the witness its children,
and the buckets that occupy each child position, which the weighted
automaton reads.  Both read the kept table's lists, and one backward
table of the cover masks the later positions can reach answers both: it
admits a bucket only if the rest of the tuple can finish its cover, so
the first tuple, each position's first admitted representative, is found
without backtracking, and fit is decided once per bucket.

Construction keeps the atoms as int rows over the closure members, never
as :class:`~pltlf.closure.Atom` objects, and reads every per-atom mask,
initial membership included, off transposed closure columns.  The
classes need no per-atom pass: next members and the smaller side of each
probability pair are free bits of the atom index, so a class is its
smallest atom combined with every pattern of the other free bits.

Every tree query takes a formula or a compiled :class:`TreeAutomaton`,
which keeps its good states, LP results and weighted automaton.
:func:`build_weighted` flattens the good part into that weighted
automaton here, next to the classes, kept tables and branch systems it
reads; :mod:`pltlf.weighted` holds the automaton class and its queries.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, compress
from typing import Optional

from .closure import Atom, ClosureSet, free_column, transpose
from .linsolve import LinearProgram, LinearSystem, solve_feasibility
from .syntax import (
    And,
    Comparison,
    FalseConst,
    Formula,
    Next,
    Not,
    Prob,
    Prop,
    TrueConst,
    Until,
    normalize,
    parse_number,
)

ZERO = Fraction(0)
ONE = Fraction(1)
_UPPER = (Comparison.LE, Comparison.LT)


def _qset_name(qmask: int, width: int) -> str:
    inside = ",".join(str(j + 1) for j in range(width) if qmask >> j & 1)
    return f"x{{{inside}}}"


@dataclass(frozen=True)
class ScenarioRecord:
    """A feasible scenario at some atom: child subsets plus their system."""

    qsets: tuple
    system: LinearSystem


class TreeAutomaton:
    """Compiled automaton of one formula: construction lays out all atoms
    as rows, and good states, scenario LPs and the weighted automaton are
    kept."""

    def __init__(self, formula: Formula):
        self.closure = clo = ClosureSet(formula)
        self.formula = clo.root
        n = clo.atom_count()
        cols = clo.columns
        # the atoms, as rows: int bitmasks over the closure members
        self._rows = transpose(cols, n)

        next_list = clo.next_members
        self._all_next = (1 << len(next_list)) - 1

        # Probability pairs in closure order of their smaller member; each
        # atom holds exactly one side of every pair.
        self._pairs = tuple(
            (i, clo.negation[i], clo.index[clo.members[i].operand])
            for i in clo.prob_members
            if i < clo.negation[i]
        )
        width = len(self._pairs)

        # Per-atom masks are rows of the columns they read: the next mask,
        # the next-argument mask, the probability-argument profile and the
        # side mask, whose bit p says the atom holds the smaller member of
        # pair p.  The side mask is the atom's probability signature:
        # smaller sides are free members, so every side mask occurs, first
        # at an atom that grows with it, and signatures in order of their
        # first atom are the side masks in increasing order.
        sides = [i for i, _, _ in self._pairs]
        self._next_present = transpose([cols[i] for i in next_list], n)
        next_args = (clo.index[clo.members[i].operand] for i in next_list)
        self._next_args = transpose([cols[i] for i in next_args], n)
        self._parg = transpose([cols[arg] for _, _, arg in self._pairs], n)
        self._prob_sig = transpose([cols[i] for i in sides], n)
        # each signature's branch systems, over the child subsets as
        # profiles: bound j is its member of pair j
        self.branches = tuple(map(Branches, map(self._sig_members, range(1 << width))))
        # classes of atoms with equal next masks and signatures, ordered by
        # their smallest atom: every parent-side decision reads only these.
        # Next members and smaller sides are free, so a class is its
        # smallest atom or-ed with each pattern of the other free bits.
        # Profile 0 holds no argument, so its point mass is mass 0
        # everywhere: a class is final when it has no next member and that
        # point meets its bounds.
        keyed = clo.pattern_mask({*next_list, *sides})
        others = _submasks(n - 1 ^ keyed)
        self._classes = tuple(tuple(map(base.__or__, others)) for base in _submasks(keyed))
        self.final = [False] * n
        for members in self._classes:
            branches = self.branches[self._prob_sig[members[0]]]
            if not self._next_present[members[0]] and branches.points & 1:
                for aid in members:
                    self.final[aid] = True

        # the child index: atoms by bucket, each in atom order.  A bucket
        # is a next-argument mask and a probability-argument profile, keyed
        # as ``args << width | profile``: a child's cover reads only the
        # first and its position only the second.  Without pairs every
        # profile is 0 and a key is the next-argument mask itself.
        self._width = width
        keys = self._next_args
        if width:
            keys = [args << width | q for args, q in zip(keys, self._parg)]
        self._buckets = {}
        for cid, key in enumerate(keys):
            self._buckets.setdefault(key, []).append(cid)

        self.initial = tuple(compress(range(n), transpose([cols[clo.index[self.formula]]], n)))
        self.final_ids = tuple(compress(range(n), self.final))

        self._props = sum(1 << i for i in clo.prop_members)
        self._valuations = {}
        self._family_cache = {}
        self._good = None
        self._weighted = None

    def __len__(self) -> int:
        return len(self._rows)

    @cached_property
    def atoms(self) -> tuple:
        """Every atom as an :class:`Atom`, in index order, made on first
        use from the rows; the engine itself reads only the rows."""
        return tuple(Atom(self.closure, bits) for bits in self._rows)

    def _sig_members(self, sig: int) -> tuple:
        """Probability members of the signature, in pair order."""
        members = self.closure.members
        return tuple(members[i if sig >> p & 1 else j] for p, (i, j, _) in enumerate(self._pairs))

    def valuation(self, aid: int) -> frozenset:
        """The propositions the atom holds; atoms that agree on them share
        one frozenset."""
        key = self._rows[aid] & self._props
        found = self._valuations.get(key)
        if found is None:
            found = self._valuations[key] = self.closure.valuation(key)
        return found

    def build_system(self, aid: int, qsets) -> LinearSystem:
        """Branch system for a scenario, its signature's
        :meth:`Branches.rows` spelled as a :class:`LinearSystem` over
        subset names: probability rows in pair order, nonnegativity for
        every subset variable, total mass one.  The engine solves the rows
        themselves; this form is for display and for independent checks."""
        qsets, rows = self.branches[self._prob_sig[aid]].rows(qsets)
        names = [_qset_name(q, len(self._pairs)) for q in qsets]
        spelled = []
        for row in rows:
            if isinstance(row, int):
                spelled.append(({names[row]: 1}, Comparison.GE, 0))
            else:
                coeffs, cmp, rhs, scale = row
                terms = {name: Fraction(a, scale) for name, a in zip(names, coeffs) if a}
                spelled.append((terms, cmp, Fraction(rhs, scale)))
        return LinearSystem.from_rows(names, spelled)

    def scenario_family(self, aid: int) -> tuple:
        """All feasible scenarios at the atom, smallest families first.

        Feasibility depends only on the atom's probability signature, so
        results are shared across atoms with equal signatures.
        """
        sig = self._prob_sig[aid]
        cached = self._family_cache.get(sig)
        if cached is not None:
            return cached
        records = []
        subsets = range(1 << len(self._pairs))
        for size in range(1, len(subsets) + 1):
            for chosen in combinations(subsets, size):
                system = self.build_system(aid, chosen)
                if solve_feasibility(system).feasible:
                    records.append(ScenarioRecord(chosen, system))
        result = tuple(records)
        self._family_cache[sig] = result
        return result

    def _over(self, req: int, index: dict) -> list:
        """The bucket keys of ``index`` whose next-argument mask contains
        ``req``: the buckets that can hold children of a parent with next
        mask ``req``.  They are read off the smaller side, every key over
        ``req`` or the index's keys."""
        width, free = self._width, self._all_next & ~req
        if 1 << free.bit_count() + width < len(index):
            return [
                key for sub in _submasks(free) for q in range(1 << width)
                if (key := (req | sub) << width | q) in index
            ]
        return [key for key in index if not req << width & ~key]

    def _table(self, req: int, index: dict, restrict=None) -> dict:
        """The kept table of the parents with next mask ``req``, read off
        ``index``, which maps a bucket's key to atoms of the bucket in atom
        order.  The first of them represents the bucket, or, given
        ``restrict``, the first of them in ``restrict``.

        Each bucket whose mask contains ``req`` and that has a
        representative gives one entry ``(representative, cover)``, its
        cover being the parent's absent next members that its mask
        refutes.  Entries go per profile, profiles in increasing order and
        each list by representative.  Within one profile a cover names one
        bucket, whose mask is ``_all_next ^ cover``.  Without pairs the one
        child must refute every absent next member itself, so only the
        bucket under ``req`` is read."""
        obl, width = self._all_next & ~req, self._width
        table = {}
        for key in self._over(req, index) if width else (req,):
            atoms = index.get(key, ())
            if restrict is None:
                rep = atoms[0] if atoms else None
            else:
                rep = next(filter(restrict.__contains__, atoms), None)
            if rep is not None:
                cover = obl & ~(key >> width)
                table.setdefault(key & (1 << width) - 1, []).append((rep, cover))
        return {q: tuple(sorted(table[q])) for q in sorted(table)}

    def kept(self, aid: int, restrict) -> dict:
        """The kept table against ``restrict``: one entry per bucket that
        can hold the parent's children and has an atom in ``restrict``,
        the first such atom as its representative.  Its keys are the
        maximal family against ``restrict``: every family with a child
        tuple in ``restrict`` is a subset of it."""
        return self._table(self._next_present[aid], self._buckets, restrict)

    def _tuple_table(self, aid: int, qsets, kept) -> Optional[tuple]:
        """What :meth:`first_tuple` and :meth:`fitting` read: the kept
        list at each position of the scenario, the parent's obligations
        (its absent next members) and the reach table, or None when the
        scenario has no child tuple because a position keeps no bucket or
        all of them together cannot refute every obligation."""
        positions = [kept.get(q, ()) for q in qsets]
        if not all(positions):
            return None
        obl = self._all_next & ~self._next_present[aid]
        reach = _reach(positions, obl)
        return (positions, obl, reach) if obl in reach[0] else None

    def first_tuple(self, aid: int, qsets, kept) -> Optional[tuple]:
        """The first child tuple of the scenario in atom order, position by
        position, or None if it has none.  A child tuple holds one
        admissible atom per subset and together they refute every absent
        next member of the parent.  The reach table admits a bucket only if
        the later positions can finish its cover, so the first admitted
        representative at each position never dead-ends, and as the atoms
        of a bucket share its cover, no smaller atom is admitted."""
        table = self._tuple_table(aid, qsets, kept)
        if table is None:
            return None
        positions, obl, reach = table
        chosen, covered = [], 0
        for cands, later in zip(positions, reach[1:]):
            for cid, cover in cands:
                if obl in later or any(covered | cover | m == obl for m in later):
                    break
            chosen.append(cid)
            covered |= cover
        return tuple(chosen)

    def fitting(self, aid: int, qsets, kept) -> dict:
        """The keys of the buckets that occupy each position of at least
        one child tuple, as a frozenset per position, read off the kept
        table.  A bucket fits a position when its cover, with one reached
        before the position and one the reach table offers after it,
        refutes every absent next member.  Fit is decided once per bucket,
        and at once for all of them when either side alone reaches every
        obligation; as the scenario has a child tuple, every position has
        a fitting bucket."""
        table = self._tuple_table(aid, qsets, kept)
        if table is None:
            return {}
        positions, obl, reach = table
        result, before = {}, {0}
        for q, cands, later in zip(qsets, positions, reach[1:]):
            covers = fitting = {cover for _, cover in cands}
            if obl not in before and obl not in later:
                around = {f | b for f in before for b in later}
                fitting = {c for c in covers if any(u | c == obl for u in around)}
            result[q] = frozenset((self._all_next ^ c) << self._width | q for c in fitting)
            if obl not in before:
                before = {f | c for f in before for c in covers}
        return result

    def good_states(self) -> "GoodStates":
        """Least fixpoint over "some transition reaches only good states",
        computed as a level-synchronous worklist seeded with the finals.

        Each sweep evaluates against the previous sweep's set, so the sweep
        index of an atom strictly dominates those of some transition's
        children.  A class joins whole when its maximal family, the keys of
        its kept table against the set, has a child tuple and a feasible
        system; by the module docstring's monotonicity facts, exactly when
        some feasible family has a child tuple in the set.  Both read only
        which buckets hold a good atom, so sweep i re-decides just the
        pending classes whose next mask lies within the mask of a bucket
        that gained its first good atom in sweep i - 1.  The sweep keeps
        the good atoms by bucket, in atom order, putting each in place as
        it joins, so a bucket's first is its smallest good atom and no
        bucket is ever scanned.  It builds the kept table and its first
        tuple from those once per touched next mask, then asks each
        pending class of a mask with a tuple whether its signature's
        :meth:`Branches.feasible` accepts the family: once per class, not
        per distinct family, and the family's profiles mostly answer
        without a program.

        Without probability pairs the one family needs no LP and its one
        child carries exactly the parent's next mask as arguments, so a
        class joins as soon as an atom with that next-argument mask has:
        the good states are backward reachability from the finals, one
        sweep per breadth-first level, and one set lookup decides a class.
        """
        if self._good is not None:
            return self._good
        good = set(self.final_ids)
        distance = dict.fromkeys(self.final_ids, 0)
        pending = [m for m in self._classes if not self.final[m[0]]]
        joined = [self.final_ids]
        inside = {}  # bucket key -> its good atoms, in atom order
        sweep = 0
        while True:
            if self._pairs:
                masks = set()  # next-argument masks of newly good buckets
                for a in chain.from_iterable(joined):
                    args = self._next_args[a]
                    key = args << self._width | self._parg[a]
                    if key not in inside:
                        masks.add(args)
                        inside[key] = [a]
                    else:
                        insort(inside[key], a)
                families = {}  # pending next mask -> maximal family, () if none decides
                for members in pending:
                    req = self._next_present[members[0]]
                    if req in families:
                        continue
                    families[req] = ()
                    if any(not req & ~args for args in masks):
                        kept = self._table(req, inside)
                        family = tuple(kept)
                        if self.first_tuple(members[0], family, kept) is not None:
                            families[req] = family
                joined = [
                    m for m in pending
                    if (family := families.get(self._next_present[m[0]]))
                    and self.branches[self._prob_sig[m[0]]].feasible(family)
                ]
            else:
                masks = {self._next_args[a] for members in joined for a in members}
                joined = [m for m in pending if self._next_present[m[0]] in masks]
            if not joined:
                break
            sweep += 1
            for members in joined:
                good.update(members)
                distance.update(dict.fromkeys(members, sweep))
            pending = [m for m in pending if m[0] not in good]
        self._good = GoodStates(frozenset(good), distance, sweep, inside if self._pairs else None)
        return self._good

    def good_initial(self) -> tuple:
        """Good initial atoms; empty iff the formula is unsatisfiable."""
        good = self.good_states().good
        return tuple(aid for aid in self.initial if aid in good)

    @property
    def weighted(self):
        """The weighted trace automaton, built on first use and kept."""
        return build_weighted(self) if self._weighted is None else self._weighted


@dataclass(frozen=True)
class GoodStates:
    """The good atoms, each one's sweep and the sweep count, which are
    what two results compare.  With probability pairs, ``inside`` is the
    sweep's index of the good atoms: each bucket's key maps to its good
    atoms in atom order, and buckets without one are left out."""

    good: frozenset
    distance: dict
    sweeps: int
    inside: Optional[dict] = field(default=None, compare=False)


class Branches:
    """The branch systems over one list of bounds, and their answers.

    A profile is a bitmask over the bounds, and bound j reads the mass of
    the profiles whose bit j is set.  A bound is any object with a
    comparison ``cmp`` and an exact ``bound``, such as a :class:`Prob`
    member or a constraint of a set; ``bounds`` keeps each as a ``(cmp,
    numerator, denominator)`` triple.  A family is a tuple of distinct
    profiles; its system asks for a distribution over them, total mass
    one, that meets every bound, and its program's variables are the
    profiles themselves.  Profile sets are masks with bit q for profile q,
    read off each bound at mass 0 and 1: ``points`` holds the profiles
    whose point mass meets every bound, and a family that misses one of
    ``needs`` leaves a bound at the one mass its argument can take, where
    it fails.  Family masks, caps, programs and maxima are kept.
    """

    def __init__(self, bounds: tuple):
        self.bounds = bounds = tuple((b.cmp, *b.bound.as_integer_ratio()) for b in bounds)
        count = 1 << len(bounds)
        self._everyone = everyone = (1 << count) - 1
        self._holders = holders = [free_column(j, count) for j in range(len(bounds))]
        self.points, self.needs = everyone, []
        for held, (cmp, num, den) in zip(holders, bounds):
            at0, at1 = cmp.holds(0, num), cmp.holds(den, num)
            self.points &= (held if at1 else 0) | (everyone & ~held if at0 else 0)
            self.needs += [held] * (not at0) + [everyone & ~held] * (not at1)
        self._masks, self._caps, self._programs, self._maxima = {}, {}, {}, {}

    def rows(self, qsets) -> tuple:
        """The family's branch system as ``(variables, rows)`` for
        :class:`~pltlf.linsolve.LinearProgram`: the profiles in increasing
        order, then one row per bound in order, whose coefficients are the
        bound's denominator on each profile that holds it, each profile's
        sign row as its index, and total mass one.  A bound row that is
        itself a sign row, ``P>=0`` held by only one profile, goes in as
        it is: the program recognises it."""
        qsets = tuple(sorted(qsets))
        rows = [
            ([den if q >> j & 1 else 0 for q in qsets], cmp, num, den)
            for j, (cmp, num, den) in enumerate(self.bounds)
        ]
        rows.extend(range(len(qsets)))
        rows.append(([1] * len(qsets), Comparison.EQ, 1, 1))
        return qsets, rows

    def _program(self, qsets) -> LinearProgram:
        """The family's program after phase 1, built once per family from
        :meth:`rows` straight into the integer tableau."""
        program = self._programs.get(qsets)
        if program is None:
            program = self._programs[qsets] = LinearProgram(*self.rows(qsets))
        return program

    def _mask(self, qsets) -> int:
        """The family's profiles as a mask, built once per family."""
        return self._masks.get(qsets) or self._masks.setdefault(qsets, sum(1 << q for q in qsets))

    def feasible(self, qsets) -> bool:
        """Whether the family's branch system is feasible.

        It is when the family holds a profile whose point mass meets every
        bound, and it is not when some bound fails at mass 0 and no profile
        holds it, or fails at mass 1 and every profile does.  Only a family
        neither settles builds its program."""
        mask = self._mask(qsets)
        if mask & self.points:
            return True
        if any(not mask & need for need in self.needs):
            return False
        return self._program(qsets).feasible

    def point(self, qsets) -> Optional[dict]:
        """Deterministic point of the family's branch system by profile,
        or None when it is infeasible: the feasibility objective's vertex.
        A feasible one-profile family has one point, all the mass on its
        profile, and builds no program."""
        if len(qsets) == 1 and self.points >> qsets[0] & 1:
            return {qsets[0]: ONE}
        return self._program(qsets).witness

    def maximum(self, qsets, q: int) -> Fraction:
        """Largest mass the family's branch system lets profile ``q``
        absorb, over the closure of the system, which must be feasible:
        ``q``'s cap when the family holds a mixer of it, and otherwise a
        phase 2 from the basis the family's program kept.  A profile's cap
        is computed once, when a maximum first asks for it."""
        key = (qsets, q)
        found = self._maxima.get(key)
        if found is None:
            cap, mixers = self._caps.get(q) or self._caps.setdefault(q, self._cap(q))
            if mixers & self._mask(qsets):
                found = cap
            else:
                found = self._program(qsets).maximum(q)
            self._maxima[key] = found
        return found

    def _cap(self, q0: int) -> tuple:
        """The cap on profile ``q0``'s mass and its mixers, the bounds
        read relaxed.

        Every point of the relaxed branch system gives ``q0`` at most the
        cap ``c``: 1, each ``<=`` bound that ``q0`` holds, and one minus
        each ``>=`` bound that it lacks.  Profile ``p`` is a mixer when the
        mixture ``c q0 + (1 - c) p`` meets every relaxed bound: it puts
        mass 0, ``c``, ``1 - c`` or 1 on each bound, and it is a point at
        which the mass of ``q0`` reaches the cap, so a family holding
        ``q0`` and a mixer has maximum ``c``.  With ``p = q0`` the mixture
        is the point mass of ``q0``, a mixer exactly when ``c = 1``.
        """
        upper = [cmp in _UPPER for cmp, _, _ in self.bounds]
        c = scale = 1  # the cap is c / scale
        for j, (up, (_, num, den)) in enumerate(zip(upper, self.bounds)):
            if up == (q0 >> j & 1):  # an upper bound held, or a lower one lacked
                room = num if up else den - num
                if room * scale < c * den:
                    c, scale = room, den
        mixers = everyone = self._everyone
        for j, (up, held, (_, num, den)) in enumerate(zip(upper, self._holders, self.bounds)):
            # the mixture's mass on the bound times ``scale``, q0's share
            # plus p's when p holds it, against num / den, relaxed
            own = c if q0 >> j & 1 else 0
            mass0, mass1, rhs = own * den, (own + scale - c) * den, num * scale
            at0, at1 = (mass0 <= rhs, mass1 <= rhs) if up else (mass0 >= rhs, mass1 >= rhs)
            mixers &= (held if at1 else 0) | (everyone & ~held if at0 else 0)
        return Fraction(c, scale), mixers


def _submasks(mask: int) -> list:
    """Every submask of ``mask``, in increasing order."""
    found = [0]
    while mask:
        bit = mask & -mask
        found += [m | bit for m in found]
        mask ^= bit
    return found


def _reach(positions, obl: int) -> list:
    """Reach table: entry i holds the cover masks that one bucket per
    position from i on can make together, and entry k is ``{0}``.  Every
    cover lies within ``obl``, so once an entry holds ``obl`` every
    bucket at an earlier position fits, and the earlier entries repeat
    it instead of growing."""
    reach = [{0}]
    for cands in reversed(positions):
        later = reach[-1]
        if obl not in later:
            covers = {cover for _, cover in cands}
            later = {m | c for m in later for c in covers}
        reach.append(later)
    return reach[::-1]


def _compiled(source) -> TreeAutomaton:
    """The compiled automaton given, or a new one for a formula."""
    return source if isinstance(source, TreeAutomaton) else TreeAutomaton(source)


def is_satisfiable(source) -> bool:
    return bool(_compiled(source).good_initial())


def build_weighted(source):
    """Flatten the good atoms into a weighted trace automaton the automaton keeps.

    The edge from ``a`` to ``a'`` weighs the largest mass that ``a``'s
    maximal family against the good set lets the position of ``a'``
    absorb, :meth:`Branches.maximum`; by the monotonicity facts above, no
    surviving scenario of ``a`` gives it more.  A child's probability
    arguments pin its position, and each position with positive mass is
    one group over its occupants, so every weight lies in (0, 1].  The
    groups depend only on a class's signature and next mask, so the
    classes that share both share one groups tuple.  Equal weights are one
    object of a :class:`~pltlf.weighted.Numbers` table, atoms that agree
    on the propositions share one valuation frozenset, and child tuples
    are numbered in order of first use.
    """
    from .weighted import Numbers, WeightedAutomaton

    aut = _compiled(source)
    if aut._weighted is not None:
        return aut._weighted
    gs = aut.good_states()
    good, inside, numbers = gs.good, gs.inside, Numbers()
    groups, children = {}, []
    made = [{} for _ in aut.branches]  # per signature: next mask -> its classes' groups
    by_mask = {}  # next mask -> (maximal family, each position's fitting bucket keys)
    interned = {}  # the bucket keys a child tuple is read off -> its index
    for members in aut._classes:
        aid = members[0]
        if aid not in good:
            continue
        sig, req = aut._prob_sig[aid], aut._next_present[aid]
        out = made[sig].get(req)
        if out is None and not aut._pairs:
            # one group: the good atoms that carry the next mask, weight 1
            fits = tuple(filter(good.__contains__, aut._buckets.get(req, ())))
            out = made[sig][req] = ((ONE, len(children)),) if fits else ()
            if fits:
                children.append(fits)
        elif out is None:
            if req not in by_mask:
                kept = aut._table(req, inside)
                by_mask[req] = tuple(kept), aut.fitting(aid, tuple(kept), kept)
            family, slots = by_mask[req]
            branches = aut.branches[sig]
            out = []
            if slots and branches.feasible(family):
                for qmask, keys in slots.items():
                    wt = numbers.one(branches.maximum(family, qmask))
                    if wt is ZERO:
                        continue
                    if keys not in interned:
                        interned[keys] = len(children)
                        atoms = chain.from_iterable(map(inside.__getitem__, keys))
                        children.append(tuple(sorted(atoms)))
                    out.append((wt, interned[keys]))
            out = made[sig][req] = tuple(out)
        if out:
            groups.update(dict.fromkeys(members, out))
    states = tuple(sorted(good))
    valuations = {aid: aut.valuation(aid) for aid in states}
    aut._weighted = WeightedAutomaton(
        states, aut.good_initial(), aut.final_ids, groups, tuple(children), valuations
    )
    return aut._weighted


@dataclass(frozen=True)
class WitnessModel:
    """Finite tree interpretation: valuations on nodes, probabilities on
    non-root nodes, children of an internal node summing to one."""

    valuation: frozenset
    probability: Optional[Fraction]
    children: tuple

    def to_dict(self) -> dict:
        return {
            "valuation": sorted(self.valuation),
            "probability": None if self.probability is None else str(self.probability),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WitnessModel":
        """Inverse of :meth:`to_dict`.  A malformed document raises
        ValueError naming the field."""
        if not isinstance(data, dict):
            raise ValueError(f"model JSON needs an object, got {data!r}")
        valuation = data.get("valuation", [])
        prob = data.get("probability")
        children = data.get("children", [])
        if not isinstance(valuation, list) or not all(isinstance(v, str) for v in valuation):
            raise ValueError(f"model JSON key 'valuation' needs a list of names: {valuation!r}")
        if not isinstance(children, list) or not all(isinstance(c, dict) for c in children):
            raise ValueError(f"model JSON key 'children' needs a list of objects: {children!r}")
        if prob is not None:
            if not isinstance(prob, str):
                raise ValueError(f"model JSON key 'probability' needs a number text: {prob!r}")
            try:
                prob = parse_number(prob)
            except ValueError as exc:
                raise ValueError(f"model JSON key 'probability': {exc}") from None
        return cls(frozenset(valuation), prob, tuple(map(cls.from_dict, children)))


def witness_model(source) -> Optional[WitnessModel]:
    """A tree interpretation satisfying the formula, or None.

    Extraction descends distances to acceptance: at every non-final state
    pick the first feasible scenario, smallest families first, with a
    child tuple among the atoms that joined the good set strictly earlier,
    and take its first such tuple, which :meth:`TreeAutomaton.first_tuple`
    reads off the reach table without backtracking; child probabilities
    come from the scenario's deterministic branch-system witness.  Each
    node builds its kept table once, against a view that reads the earlier
    atoms off the distances, so no set of them is built: only subsets of
    its keys, the maximal family, can have such a tuple, so only those
    are tried, and each reads its tuple off the same table.
    The descent is a module function, not a closure, so no reference
    cycle keeps the automaton alive after the call.
    """
    aut = _compiled(source)
    initial = aut.good_initial()
    if not initial:
        return None
    distance = aut.good_states().distance
    root = min(initial, key=lambda a: (distance[a], a))
    return _witness_subtree(aut, distance, root, None)


class _Earlier:
    """The good atoms at distance below ``d``, as a membership view of
    the distances: a node's kept table reads it until it finds each
    bucket's representative."""

    __slots__ = ("distance", "d")

    def __init__(self, distance: dict, d: int):
        self.distance, self.d = distance, d

    def __contains__(self, aid) -> bool:
        return self.distance.get(aid, self.d) < self.d


def _witness_subtree(aut, distance, aid: int, probability) -> WitnessModel:
    """The witness below a good atom; ``distance`` maps each good atom to
    its distance to acceptance."""
    if aut.final[aid]:
        return WitnessModel(aut.valuation(aid), probability, ())
    kept = aut.kept(aid, _Earlier(distance, distance[aid]))
    branches = aut.branches[aut._prob_sig[aid]]
    for size in range(1, len(kept) + 1):
        for chosen in combinations(kept, size):
            tup = aut.first_tuple(aid, chosen, kept)
            if tup is None or not branches.feasible(chosen):
                continue
            point = branches.point(chosen)
            children = tuple(
                _witness_subtree(aut, distance, cid, point[q])
                for q, cid in zip(chosen, tup)
            )
            return WitnessModel(aut.valuation(aid), probability, children)
    raise AssertionError(f"good non-final atom {aid} lost its transitions")


def check_model(model: WitnessModel, f: Formula) -> bool:
    """Exact truth of the formula at the root of the tree.

    Validates shape first: the root carries no probability, every other node
    carries one in [0, 1], and the children of each internal node sum to 1.
    """
    if model.probability is not None:
        raise ValueError("root node must not carry a probability")

    def validate(node: WitnessModel, is_root: bool):
        if not is_root:
            p = node.probability
            if p is None:
                raise ValueError("non-root node lacks a probability")
            if not 0 <= p <= 1:
                raise ValueError(f"probability {p} outside [0, 1]")
        if node.children:
            total = sum((c.probability or ZERO for c in node.children), start=ZERO)
            if total != 1:
                raise ValueError(f"children probabilities sum to {total}, not 1")
        for c in node.children:
            validate(c, False)

    validate(model, True)
    f = normalize(f)
    memo = {}

    def truth(node: WitnessModel, g: Formula) -> bool:
        key = (id(node), g)
        hit = memo.get(key)
        if hit is not None:
            return hit
        match g:
            case TrueConst():
                res = True
            case FalseConst():
                res = False
            case Prop(name):
                res = name in node.valuation
            case Not(x):
                res = not truth(node, x)
            case And(ops):
                res = all(truth(node, o) for o in ops)
            case Next(x):
                res = bool(node.children) and all(truth(c, x) for c in node.children)
            case Until(l, r):
                res = truth(node, r) or (
                    bool(node.children)
                    and truth(node, l)
                    and all(truth(c, g) for c in node.children)
                )
            case Prob(cmp, bound, x):
                mass = sum(
                    (c.probability for c in node.children if truth(c, x)), start=ZERO
                )
                res = cmp.holds(mass, bound)
            case _:
                raise TypeError(f"not a core formula: {g!r}")
        memo[key] = res
        return res

    return truth(model, f)
