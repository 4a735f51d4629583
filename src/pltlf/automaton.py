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
the finals; the sweep index at which an atom joins is its distance to
acceptance and drives witness extraction.

No decision enumerates families.  Against a set of admissible children, the
maximal family of an atom holds every profile whose candidate bucket keeps
an admissible atom, and it alone decides whether the atom has a transition
into the set, because three facts make every property needed here
monotone in the family:

- feasibility is upward-closed: an extra branch can take zero mass;
- a larger family only has more positions that can refute the absent next
  members, so a child tuple of a subfamily extends to one of the family;
- adjoining variables never lowers the supremum of a branch mass.

:meth:`TreeAutomaton.scenario_family` still lists every feasible family;
it explains the construction and no decision procedure calls it.

Every tree query takes a formula or a compiled :class:`TreeAutomaton`,
which keeps its good states, LP results and weighted automaton.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional

from .closure import Atom, ClosureSet, enumerate_atoms
from .linsolve import LinearSystem, maximize, solve_feasibility
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
)

ZERO = Fraction(0)


def _qset_name(qmask: int, width: int) -> str:
    inside = ",".join(str(j + 1) for j in range(width) if qmask >> j & 1)
    return f"x{{{inside}}}"


@dataclass(frozen=True)
class ScenarioRecord:
    """A feasible scenario at some atom: child subsets plus their system."""

    qsets: tuple
    system: LinearSystem


class TreeAutomaton:
    """Compiled automaton of one formula: construction enumerates all atoms,
    and good states, scenario LPs and the weighted automaton are kept."""

    def __init__(self, formula: Formula):
        self.formula = normalize(formula)
        self.closure = ClosureSet(self.formula)
        self.atoms = tuple(enumerate_atoms(self.closure))
        clo = self.closure

        next_list = clo.next_members
        self._next_arg = tuple(clo.index[clo.members[i].operand] for i in next_list)
        self._all_next = (1 << len(next_list)) - 1

        # Probability pairs in closure order of their smaller member; each
        # atom holds exactly one side of every pair.
        pairs = []
        seen = set()
        for i in clo.prob_members:
            if i in seen:
                continue
            j = clo.negation[i]
            seen.add(i)
            seen.add(j)
            pairs.append((i, j, clo.index[clo.members[i].operand]))
        self._pairs = tuple(pairs)

        n = len(self.atoms)
        self._next_present = [0] * n
        self._next_args = [0] * n
        self._parg = [0] * n
        self._prob_sig = [0] * n
        sig_ids = {}
        self.final = [False] * n
        for aid, atom in enumerate(self.atoms):
            bits = atom.bits
            np_mask = na_mask = 0
            for pos, i in enumerate(next_list):
                if bits >> i & 1:
                    np_mask |= 1 << pos
                if bits >> self._next_arg[pos] & 1:
                    na_mask |= 1 << pos
            self._next_present[aid] = np_mask
            self._next_args[aid] = na_mask
            parg = 0
            sig = []
            ok_empty = True
            for pos, (i, j, arg) in enumerate(pairs):
                if bits >> arg & 1:
                    parg |= 1 << pos
                present = clo.members[i if bits >> i & 1 else j]
                sig.append((present.cmp, present.bound))
                if not present.cmp.holds(ZERO, present.bound):
                    ok_empty = False
            self._parg[aid] = parg
            self._prob_sig[aid] = sig_ids.setdefault(tuple(sig), len(sig_ids))
            self.final[aid] = np_mask == 0 and ok_empty

        root = clo.index[self.formula]
        self.initial = tuple(aid for aid, a in enumerate(self.atoms) if a.bits >> root & 1)
        self.final_ids = tuple(aid for aid in range(n) if self.final[aid])

        self._family_cache = {}
        self._cand_cache = {}
        self._point_cache = {}
        self._max_cache = {}
        self._good = None
        self._weighted = None

    def __len__(self) -> int:
        return len(self.atoms)

    def prob_members_of(self, aid: int) -> tuple:
        """Probability members of the atom, in pair order."""
        clo, bits = self.closure, self.atoms[aid].bits
        return tuple(
            clo.members[i if bits >> i & 1 else j] for (i, j, _) in self._pairs
        )

    def build_system(self, aid: int, qsets) -> LinearSystem:
        """Branch system for a scenario: probability rows in pair order,
        nonnegativity for every subset variable, total mass one."""
        qsets = tuple(sorted(qsets))
        width = len(self._pairs)
        names = tuple(_qset_name(q, width) for q in qsets)
        rows = []
        for j, member in enumerate(self.prob_members_of(aid)):
            coeffs = {names[k]: 1 for k, q in enumerate(qsets) if q >> j & 1}
            rows.append((coeffs, member.cmp, member.bound))
        for name in names:
            rows.append(({name: 1}, Comparison.GE, ZERO))
        rows.append(({name: 1 for name in names}, Comparison.EQ, Fraction(1)))
        return LinearSystem.from_rows(names, rows)

    def scenario_family(self, aid: int) -> tuple:
        """All feasible scenarios at the atom, smallest families first.

        Feasibility depends only on the atom's probability signature, so
        results are shared across atoms with equal signatures.
        """
        sig = self._prob_sig[aid]
        cached = self._family_cache.get(sig)
        if cached is not None:
            return cached
        width = len(self._pairs)
        records = []
        if width == 0:
            records.append(ScenarioRecord((0,), self.build_system(aid, (0,))))
        else:
            subsets = range(1 << width)
            for size in range(1, len(subsets) + 1):
                for chosen in combinations(subsets, size):
                    system = self.build_system(aid, chosen)
                    if solve_feasibility(system).feasible:
                        records.append(ScenarioRecord(chosen, system))
        result = tuple(records)
        self._family_cache[sig] = result
        return result

    def family_point(self, aid: int, qsets) -> Optional[dict]:
        """Deterministic point of the family's branch system, or None when
        the system is infeasible.

        Results are shared across atoms with equal probability signatures.
        Without probability pairs the only family is ``(0,)`` and its single
        branch takes all the mass, so no LP is solved.
        """
        key = (self._prob_sig[aid], qsets)
        if key not in self._point_cache:
            if self._pairs:
                point = solve_feasibility(self.build_system(aid, qsets)).witness
            else:
                point = {_qset_name(0, 0): Fraction(1)}
            self._point_cache[key] = point
        return self._point_cache[key]

    def family_max(self, aid: int, qsets, qmask: int) -> Fraction:
        """Largest mass the family's branch system lets the subset
        ``qmask`` absorb; the family must be feasible and contain it.
        A nonempty region's closure is its relaxed region, so the supremum
        is a maximum over the relaxed system.  Results are shared across
        atoms with equal probability signatures."""
        key = (self._prob_sig[aid], qsets, qmask)
        if key not in self._max_cache:
            system = self.build_system(aid, qsets).relaxed()
            name = _qset_name(qmask, len(self._pairs))
            self._max_cache[key] = maximize(system, name).supremum
        return self._max_cache[key]

    def _candidates(self, aid: int) -> dict:
        """Child candidates bucketed by their probability-argument profile.

        A candidate must contain the argument of every next member of the
        parent; its cover mask records which absent next members it refutes.
        Both depend only on the parent's next mask, so parents with equal
        masks share one scan of the atoms.
        """
        req = self._next_present[aid]
        cached = self._cand_cache.get(req)
        if cached is not None:
            return cached
        obl = self._all_next & ~req
        buckets = {}
        for cid in range(len(self.atoms)):
            args = self._next_args[cid]
            if req & ~args:
                continue
            cover = obl & ~args
            buckets.setdefault(self._parg[cid], []).append((cid, cover))
        result = {q: tuple(v) for q, v in buckets.items()}
        self._cand_cache[req] = result
        return result

    def _kept(self, aid: int, qsets, restrict) -> dict:
        """Candidate lists of the given profiles (every profile when
        ``qsets`` is None) limited to ``restrict``; profiles left without a
        candidate are dropped."""
        buckets = self._candidates(aid)
        kept = {}
        for q in buckets if qsets is None else qsets:
            cands = buckets.get(q, ())
            if restrict is not None:
                cands = tuple(c for c in cands if c[0] in restrict)
            if cands:
                kept[q] = cands
        return kept

    def _positions(self, aid: int, qsets, restrict):
        """Candidate lists per subset position, or None if one is empty."""
        kept = self._kept(aid, qsets, restrict)
        if len(kept) < len(qsets):
            return None
        return [kept[q] for q in qsets]

    def maximal_family(self, aid: int, restrict) -> tuple:
        """Sorted profiles whose candidate bucket keeps an atom of
        ``restrict``: every family with a child tuple in ``restrict`` is a
        subset of it."""
        return tuple(sorted(self._kept(aid, None, restrict)))

    def transition_tuples(self, aid: int, qsets, restrict=None) -> Iterator[tuple]:
        """Child tuples for the scenario, one atom per subset, in order.

        Every absent next member of the parent must be refuted somewhere in
        the tuple; ``restrict`` limits the candidate atoms (used with the
        good-state set).
        """
        positions = self._positions(aid, qsets, restrict)
        if positions is None:
            return
        obl = self._all_next & ~self._next_present[aid]

        k = len(positions)
        suffix = [0] * (k + 1)
        for i in range(k - 1, -1, -1):
            possible = 0
            for _, cover in positions[i]:
                possible |= cover
            suffix[i] = suffix[i + 1] | possible

        chosen = [0] * k

        def rec(i: int, covered: int) -> Iterator[tuple]:
            if covered | suffix[i] != obl:
                return
            if i == k:
                yield tuple(chosen)
                return
            for cid, cover in positions[i]:
                chosen[i] = cid
                yield from rec(i + 1, covered | cover)

        yield from rec(0, 0)

    def has_transition(self, aid: int, qsets, restrict) -> bool:
        """Whether a full child tuple exists, without enumerating tuples."""
        positions = self._positions(aid, qsets, restrict)
        return positions is not None and self._covers(aid, positions)

    def _covers(self, aid: int, positions) -> bool:
        """Whether one candidate per position can refute every absent next
        member of the parent.

        Tracks the set of reachable obligation-cover masks position by
        position; a tuple exists iff the full obligation mask is reachable.
        """
        obl = self._all_next & ~self._next_present[aid]
        if obl == 0:
            return True
        reach = {0}
        for cands in positions:
            covers = {cover for _, cover in cands}
            reach = {m | c for m in reach for c in covers}
            if obl in reach:
                # every later position is nonempty, so extension succeeds
                return True
        return obl in reach

    def occupants(self, aid: int, qsets, restrict=None) -> dict:
        """Atoms that appear at each position of at least one child tuple.

        Same reachable-cover bookkeeping as ``has_transition``, run both
        forwards and backwards so each candidate only needs a compatible
        pair of partial covers around it.
        """
        positions = self._positions(aid, qsets, restrict)
        if positions is None:
            return {}
        obl = self._all_next & ~self._next_present[aid]
        cover_sets = [frozenset(cover for _, cover in cands) for cands in positions]
        k = len(positions)
        forward = [{0}]
        for covers in cover_sets:
            forward.append({m | c for m in forward[-1] for c in covers})
        backward = [{0}] * (k + 1)
        for i in range(k - 1, -1, -1):
            backward[i] = {m | c for m in backward[i + 1] for c in cover_sets[i]}
        result = {}
        for i, cands in enumerate(positions):
            around = {f | b for f in forward[i] for b in backward[i + 1]}
            fits = tuple(
                cid
                for cid, cover in cands
                if any(u | cover == obl for u in around)
            )
            if not fits:
                return {}
            result[qsets[i]] = fits
        return result

    def successors(self, aid: int) -> tuple:
        """Children in the probability-free case, where tuples are unary."""
        if self._pairs:
            raise ValueError("successors() requires a probability-free closure")
        obl = self._all_next & ~self._next_present[aid]
        cands = self._candidates(aid).get(0, ())
        return tuple(cid for cid, cover in cands if cover == obl)

    def good_states(self) -> "GoodStates":
        """Least fixpoint over "some transition reaches only good states".

        Each sweep evaluates against the previous sweep's set, so the sweep
        index of an atom strictly dominates those of some transition's
        children.  An atom joins when its maximal family against that set
        is feasible and has a child tuple in it; by the monotonicity facts
        in the module docstring this holds iff some feasible family does.
        """
        if self._good is not None:
            return self._good
        good = set(self.final_ids)
        distance = {aid: 0 for aid in self.final_ids}
        sweep = 0
        while True:
            snapshot = frozenset(good)
            added = []
            for aid in range(len(self.atoms)):
                if aid in good:
                    continue
                kept = self._kept(aid, None, snapshot)
                if not kept:
                    continue
                family = tuple(sorted(kept))
                if (
                    self._covers(aid, [kept[q] for q in family])
                    and self.family_point(aid, family) is not None
                ):
                    added.append(aid)
            if not added:
                break
            sweep += 1
            for aid in added:
                good.add(aid)
                distance[aid] = sweep
        self._good = GoodStates(frozenset(good), distance, sweep)
        return self._good

    def good_initial(self) -> tuple:
        """Good initial atoms; empty iff the formula is unsatisfiable."""
        good = self.good_states().good
        return tuple(aid for aid in self.initial if aid in good)

    @property
    def weighted(self):
        """The weighted trace automaton, built on first use and kept."""
        from .weighted import build_weighted
        return build_weighted(self) if self._weighted is None else self._weighted


@dataclass(frozen=True)
class GoodStates:
    good: frozenset
    distance: dict
    sweeps: int


def _compiled(source) -> TreeAutomaton:
    """The compiled automaton given, or a new one for a formula."""
    return source if isinstance(source, TreeAutomaton) else TreeAutomaton(source)


def is_satisfiable(source) -> bool:
    return bool(_compiled(source).good_initial())


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
        prob = data.get("probability")
        return cls(
            frozenset(data.get("valuation", ())),
            None if prob is None else Fraction(prob),
            tuple(cls.from_dict(c) for c in data.get("children", ())),
        )


def witness_model(source) -> Optional[WitnessModel]:
    """A tree interpretation satisfying the formula, or None.

    Extraction descends distances to acceptance: at every non-final state
    pick the first scenario, smallest families first, with a transition
    whose children all joined the good set strictly earlier, and its first
    such transition; child probabilities come from the scenario's
    deterministic branch-system witness.  Only subsets of the maximal
    family against the earlier atoms can have such a transition, so only
    those are tried, in the order :meth:`TreeAutomaton.scenario_family`
    lists them.
    """
    aut = _compiled(source)
    initial = aut.good_initial()
    if not initial:
        return None
    gs = aut.good_states()
    root = min(initial, key=lambda a: (gs.distance[a], a))
    width = len(aut._pairs)
    earlier_than = [
        frozenset(a for a in gs.good if gs.distance[a] < d)
        for d in range(gs.sweeps + 1)
    ]

    def build(aid: int, probability) -> WitnessModel:
        atom = aut.atoms[aid]
        if aut.final[aid]:
            return WitnessModel(atom.valuation(), probability, ())
        earlier = earlier_than[gs.distance[aid]]
        offered = aut.maximal_family(aid, earlier)
        for size in range(1, len(offered) + 1):
            for chosen in combinations(offered, size):
                if not aut.has_transition(aid, chosen, earlier):
                    continue
                point = aut.family_point(aid, chosen)
                if point is None:
                    continue
                tup = next(aut.transition_tuples(aid, chosen, earlier))
                children = tuple(
                    build(cid, point[_qset_name(q, width)])
                    for q, cid in zip(chosen, tup)
                )
                return WitnessModel(atom.valuation(), probability, children)
        raise AssertionError(f"good non-final atom {aid} lost its transitions")

    return build(root, None)


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
