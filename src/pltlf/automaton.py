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
parents that gained a good candidate child in the sweep before.  The sweep
index at which an atom joins is its distance to acceptance and drives
witness extraction.

Without probability pairs the only family is ``(0,)``: its system puts all
the mass on one child, which must refute every absent next member itself,
so the children of a parent are exactly the atoms whose next-argument mask
equals its next mask.  The automaton keeps its atoms indexed by that mask,
and a parent's one candidate bucket is read off the index.  Good states
are then backward reachability from the finals, and the good states and
the weighted automaton's groups read the index with no LP; the witness
takes the general path, whose one family is feasible at once.

No decision enumerates families; :meth:`TreeAutomaton.scenario_family`
lists them only to explain the construction.  Against a set of admissible
children, :meth:`TreeAutomaton.kept` filters an atom's candidates once
into its kept table, and the table's profiles are the atom's maximal
family.  That family alone decides whether the atom has a transition into
the set, because three facts make every property needed here monotone in
the family:

- feasibility is upward-closed: an extra branch can take zero mass;
- a larger family only has more positions that can refute the absent next
  members, so a child tuple of a subfamily extends to one of the family;
- adjoining variables never lowers the supremum of a branch mass.

That decision reads only the atom's next mask, which fixes its candidate
children and what they must refute, and its probability signature, which
fixes its branch systems; being final reads the same two, so the atoms
fall into classes by those two.  Its halves read one each: the kept
table, and the maximal family, first tuple and occupants read off it,
read only the next mask, and the family's feasibility only the signature
and the family.  So each decision is made once per next mask, then once
per (signature, family).

A branch system asks whether some distribution over the family's
profiles, its child subsets, puts the required mass on every bound's
argument.  Each signature keeps one :class:`Branches`, which answers
feasibility, points and maxima mostly by reading the profiles, and
builds a program only for what they leave open.  The flat engine's mass
system is a branch system too, over the scenarios, and asks the same
class.

The program asks two questions of a scenario: the first child tuple, which
decides whether a transition exists and gives the witness its children,
and the occupants of each child position, which the weighted automaton
reads.  Both read the kept table's lists, and one backward table of the
cover masks the later positions can reach answers both: it admits a
candidate only if the rest of the tuple can finish its cover, so the
first tuple is found without backtracking.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress
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

        # atoms by next-argument mask: without probability pairs a parent's
        # one child carries exactly the parent's next mask as arguments
        self._by_args = {}
        for cid, args in enumerate(self._next_args):
            self._by_args.setdefault(args, []).append(cid)

        self.initial = tuple(compress(range(n), transpose([cols[clo.index[self.formula]]], n)))
        self.final_ids = tuple(compress(range(n), self.final))

        self._props = sum(1 << i for i in clo.prop_members)
        self._valuations = {}
        self._family_cache = {}
        self._cand_cache = {}
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

    def _candidates(self, aid: int) -> dict:
        """Child candidates bucketed by their probability-argument profile,
        profiles in increasing order and each bucket by atom.

        A candidate must contain the argument of every next member of the
        parent; its cover mask records which absent next members it
        refutes, and so do all atoms of its next-argument mask.  Parents
        with equal next masks share one walk over those masks.  Without
        probability pairs the one child must refute every absent next
        member itself, so the one bucket holds the atoms whose
        next-argument mask is the parent's next mask, read off the index."""
        req = self._next_present[aid]
        cached = self._cand_cache.get(req)
        if cached is not None:
            return cached
        obl = self._all_next & ~req
        if not self._pairs:
            result = {0: tuple((cid, obl) for cid in self._by_args.get(req, ()))}
        else:
            buckets = {}
            for args, cids in self._by_args.items():
                if req & ~args:
                    continue
                cover = obl & ~args
                for cid in cids:
                    buckets.setdefault(self._parg[cid], []).append((cid, cover))
            result = {q: tuple(sorted(buckets[q])) for q in sorted(buckets)}
        self._cand_cache[req] = result
        return result

    def kept(self, aid: int, restrict) -> dict:
        """The kept table: the parent's candidates that lie in
        ``restrict``, per profile in increasing order, each list in atom
        order, with only the profiles that keep one.  Its keys are the
        maximal family against ``restrict``: every family with a child
        tuple in ``restrict`` is a subset of it."""
        return {
            q: inside for q, cands in self._candidates(aid).items()
            if (inside := tuple(c for c in cands if c[0] in restrict))
        }

    def _tuple_table(self, aid: int, qsets, kept) -> Optional[tuple]:
        """What :meth:`first_tuple` and :meth:`occupants` read: the kept
        list at each position of the scenario, the parent's obligations
        (its absent next members) and the reach table, or None when the
        scenario has no child tuple because a position keeps no candidate
        or all of them together cannot refute every obligation."""
        positions = [kept.get(q, ()) for q in qsets]
        if not all(positions):
            return None
        obl = self._all_next & ~self._next_present[aid]
        reach = _reach(positions, obl)
        return (positions, obl, reach) if obl in reach[0] else None

    def first_tuple(self, aid: int, qsets, kept) -> Optional[tuple]:
        """The first child tuple of the scenario in the lexicographic order
        of the kept table's lists, or None if it has none.  A child tuple
        holds one kept candidate per subset and together they refute
        every absent next member of the parent.  The reach table admits a
        candidate only if the later positions can finish its cover, so the
        first admitted candidate at each position never dead-ends."""
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

    def occupants(self, aid: int, qsets, kept) -> dict:
        """Kept candidates that appear at each position of at least one
        child tuple: those whose cover, with one reached before the
        position and one the reach table offers after it, refutes every
        absent next member.  Each distinct cover is decided once; as the
        scenario has a child tuple, every position has an occupant."""
        table = self._tuple_table(aid, qsets, kept)
        if table is None:
            return {}
        positions, obl, reach = table
        result = {}
        before = {0}
        for i, cands in enumerate(positions):
            covers = {cover for _, cover in cands}
            around = {f | b for f in before for b in reach[i + 1]}
            fitting = {c for c in covers if any(u | c == obl for u in around)}
            result[qsets[i]] = tuple(cid for cid, cover in cands if cover in fitting)
            before = {f | c for f in before for c in covers}
        return result

    def good_states(self) -> "GoodStates":
        """Least fixpoint over "some transition reaches only good states",
        computed as a level-synchronous worklist seeded with the finals.

        Each sweep evaluates against the previous sweep's set, so the sweep
        index of an atom strictly dominates those of some transition's
        children.  A class's answer reads the set only through its
        candidates, so sweep i re-decides just the pending classes with a
        candidate that joined in sweep i - 1, those whose next mask lies
        within such an atom's next-argument mask.  A class joins whole when
        its maximal family, the keys of its kept table against the set, has
        a child tuple and a feasible system; by the module docstring's
        monotonicity facts, exactly when some feasible family has a child
        tuple in the set.  The kept table and its first tuple read only the
        next mask, so a sweep builds them once per touched next mask, and
        then once per (signature, family) asks the signature's
        :meth:`Branches.feasible`, which the family's profiles mostly
        answer without a program.  The
        table is built from the set itself, with no copy: the set grows
        only after the sweep's decisions.

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
        sweep = 0
        while True:
            masks = {self._next_args[a] for members in joined for a in members}
            if self._pairs:
                families = {}  # touched next mask -> maximal family, () without a tuple
                for members in pending:
                    aid = members[0]
                    req = self._next_present[aid]
                    if req in families or all(req & ~args for args in masks):
                        continue
                    kept = self.kept(aid, good)
                    family = tuple(kept)
                    has_tuple = self.first_tuple(aid, family, kept) is not None
                    families[req] = family if has_tuple else ()
                joined = [
                    m for m in pending
                    if (family := families.get(self._next_present[m[0]]))
                    and self.branches[self._prob_sig[m[0]]].feasible(family)
                ]
            else:
                joined = [m for m in pending if self._next_present[m[0]] in masks]
            if not joined:
                break
            sweep += 1
            for members in joined:
                good.update(members)
                distance.update(dict.fromkeys(members, sweep))
            pending = [m for m in pending if m[0] not in good]
        self._good = GoodStates(frozenset(good), distance, sweep)
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
    good: frozenset
    distance: dict
    sweeps: int


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
    """Reach table: entry i holds the cover masks that one candidate per
    position from i on can make together, and entry k is ``{0}``.  Every
    cover lies within ``obl``, so once an entry holds ``obl`` every
    candidate at an earlier position fits, and the earlier entries repeat
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
    atoms of a class share its groups, and atoms that agree on the
    propositions share one valuation frozenset.
    """
    from .weighted import WeightedAutomaton

    aut = _compiled(source)
    if aut._weighted is not None:
        return aut._weighted
    good = aut.good_states().good
    states = tuple(sorted(good))
    groups = {}
    interned = {}
    by_mask = {}  # next mask -> (maximal family, its occupants)
    for members in aut._classes:
        aid = members[0]
        if aid not in good:
            continue
        req = aut._next_present[aid]
        if not aut._pairs:
            # one group: the good atoms that carry the next mask, weight 1
            fits = tuple(cid for cid in aut._by_args.get(req, ()) if cid in good)
            if fits:
                k = interned.setdefault(fits, len(interned))
                groups.update(dict.fromkeys(members, ((ONE, k),)))
            continue
        if req not in by_mask:
            kept = aut.kept(aid, good)
            family = tuple(kept)
            by_mask[req] = family, aut.occupants(aid, family, kept)
        family, occupants = by_mask[req]
        branches = aut.branches[aut._prob_sig[aid]]
        if not occupants or not branches.feasible(family):
            continue
        out = []
        for qmask, fits in occupants.items():
            mass = branches.maximum(family, qmask)
            if mass > 0:
                out.append((mass, interned.setdefault(fits, len(interned))))
        groups.update(dict.fromkeys(members, tuple(out)))
    valuations = {aid: aut.valuation(aid) for aid in states}
    aut._weighted = WeightedAutomaton(
        states, aut.good_initial(), aut.final_ids, groups, tuple(interned), valuations
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
    the distances: a node's kept table reads it once per candidate."""

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
