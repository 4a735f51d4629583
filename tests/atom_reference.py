"""Per-atom reference for the tree engine's per-class decisions.

The engine decides a parent's transitions once per class of atoms with
equal next masks and probability signatures, and one table of reachable
cover masks gives its first child tuple without backtracking and decides
occupants once per distinct cover.  The functions here decide the same
things atom by atom and candidate by candidate: the good-state sweep and
the weighted-edge loop visit every atom, child tuples come from a
recursive search pruned by the union of the later positions' covers, and
occupants test every candidate against the covers reachable around it.
``restrict=None`` keeps every candidate.  Candidates come from the
general rule read off each atom's bits, never from the engine's table, so
the engine's pair-free bucket is checked against that rule too.  Tests
compare the two paths on random formulas, and tests of the construction enumerate child tuples
here, since the engine lists none.  ``witness_model`` descends distances
by the engine's rule, with child tuples from the recursive search and
each scenario's point from its own feasibility LP, and ``build_weighted``
takes every edge weight from the atom's own branch program and gives
every atom's groups together with the dense form of
``weighted_reference``.

The engine also builds atoms and its per-atom masks bit-sliced, one int
column per closure member over all free patterns.  ``atom_bits`` builds
each atom on its own, member by member, ``atom_of_members`` checks a member
set the same way, and ``masks`` reads the automaton's rows, masks,
signatures, finals, classes and initial atoms off the bits of the atoms
that ``closure.enumerate_atoms`` lists, not off the engine's own rows.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional

from pltlf.automaton import GoodStates, WitnessModel, _qset_name
from pltlf.closure import Atom, enumerate_atoms
from pltlf.linsolve import LinearProgram
from pltlf.syntax import (
    And,
    FalseConst,
    Next,
    Not,
    Prob,
    Prop,
    TrueConst,
    Until,
    formula_text,
    normalize,
)
from pltlf.linsolve import solve_feasibility

import weighted_reference


def free_members(clo) -> list:
    """Propositions, next members and the smaller side of each
    probability pair, in closure order: pattern bit j sets the j-th."""
    return [
        i
        for i, g in enumerate(clo.members)
        if isinstance(g, (Prop, Next)) or (isinstance(g, Prob) and i < clo.negation[i])
    ]


def complete(clo, vals: list) -> int:
    """Fill the members that are not free, in increasing closure order,
    from the free values; returns the atom bitmask."""
    members, index = clo.members, clo.index
    for i in sorted(set(range(len(members))) - set(free_members(clo))):
        g = members[i]
        match g:
            case TrueConst():
                vals[i] = True
            case FalseConst():
                vals[i] = False
            case Not(x):
                vals[i] = not vals[index[x]]
            case And(ops):
                vals[i] = all(vals[index[o]] for o in ops)
            case Until(l, r):
                vals[i] = vals[index[r]] or (vals[index[l]] and vals[index[Next(g)]])
            case Prob():
                vals[i] = not vals[clo.negation[i]]
            case _:
                raise AssertionError(f"unexpected derived member {g!r}")
    bits = 0
    for i, v in enumerate(vals):
        if v:
            bits |= 1 << i
    return bits


def atom_bits(clo) -> list:
    """Every atom's bitmask, one free-bit pattern at a time."""
    free = free_members(clo)
    result = []
    for pattern in range(1 << len(free)):
        vals = [None] * len(clo)
        for j, i in enumerate(free):
            vals[i] = bool(pattern >> j & 1)
        result.append(complete(clo, vals))
    return result


def atom_of_members(clo, members) -> Atom:
    """Atom containing exactly the given members, rebuilt from its free
    members to check consistency."""
    bits = 0
    for g in members:
        g = normalize(g)
        i = clo.index.get(g)
        if i is None:
            raise ValueError(f"{formula_text(g)} is not a closure member")
        bits |= 1 << i
    vals = [None] * len(clo)
    for i in free_members(clo):
        vals[i] = bool(bits >> i & 1)
    rebuilt = complete(clo, vals)
    if rebuilt != bits:
        missing = [
            formula_text(clo.members[i])
            for i in range(len(clo))
            if (rebuilt >> i & 1) != (bits >> i & 1)
        ]
        raise ValueError(f"not an atom; inconsistent at: {', '.join(missing)}")
    return Atom(clo, bits)


def masks(aut) -> dict:
    """The automaton's per-atom tables, read off the bits of each atom the
    closure enumerates: the rows themselves, next and next-argument masks,
    probability-argument profiles, signatures interned by their (cmp,
    bound) tuples, finals, classes and initial atoms."""
    clo = aut.closure
    atoms = list(enumerate_atoms(clo))
    next_list = clo.next_members
    next_arg = [clo.index[clo.members[i].operand] for i in next_list]
    n = len(atoms)
    out = {
        "rows": [atom.bits for atom in atoms],
        "next_present": [0] * n,
        "next_args": [0] * n,
        "parg": [0] * n,
        "prob_sig": [0] * n,
        "final": [False] * n,
    }
    sig_ids = {}
    classes = {}
    for aid, atom in enumerate(atoms):
        bits = atom.bits
        np_mask = na_mask = 0
        for pos, i in enumerate(next_list):
            if bits >> i & 1:
                np_mask |= 1 << pos
            if bits >> next_arg[pos] & 1:
                na_mask |= 1 << pos
        parg = 0
        sig = []
        ok_empty = True
        for pos, (i, j, arg) in enumerate(aut._pairs):
            if bits >> arg & 1:
                parg |= 1 << pos
            present = clo.members[i if bits >> i & 1 else j]
            sig.append((present.cmp, present.bound))
            if not present.cmp.holds(Fraction(0), present.bound):
                ok_empty = False
        sig = sig_ids.setdefault(tuple(sig), len(sig_ids))
        out["next_present"][aid] = np_mask
        out["next_args"][aid] = na_mask
        out["parg"][aid] = parg
        out["prob_sig"][aid] = sig
        out["final"][aid] = np_mask == 0 and ok_empty
        classes.setdefault((np_mask, sig), []).append(aid)
    out["classes"] = tuple(map(tuple, classes.values()))
    root = clo.index[aut.formula]
    out["initial"] = tuple(aid for aid, a in enumerate(atoms) if a.bits >> root & 1)
    return out


def obligations(aut, aid: int) -> int:
    """Mask of the parent's absent next members, which children refute."""
    return aut._all_next & ~aut._next_present[aid]


_MASKS = weakref.WeakKeyDictionary()


def candidates(aut, aid: int) -> dict:
    """The parent's candidate children per profile by the general rule,
    read off each atom's bits: every atom whose next-argument mask contains
    the parent's next mask, with the absent next members it refutes as its
    cover, in atom order.  Pair-free parents too get this rule, not the
    engine's one bucket.  Parents with equal next masks share one list."""
    if aut not in _MASKS:
        _MASKS[aut] = masks(aut), {}
    tables, by_req = _MASKS[aut]
    req = tables["next_present"][aid]
    if req not in by_req:
        obl = (1 << len(aut.closure.next_members)) - 1 & ~req
        buckets = {}
        for cid, args in enumerate(tables["next_args"]):
            if not req & ~args:
                buckets.setdefault(tables["parg"][cid], []).append((cid, obl & ~args))
        by_req[req] = {q: tuple(buckets[q]) for q in sorted(buckets)}
    return by_req[req]


def kept(aut, aid: int, qsets, restrict) -> dict:
    """Candidate lists of the given profiles (every profile when ``qsets``
    is None) limited to ``restrict``; empty profiles are dropped."""
    buckets = candidates(aut, aid)
    result = {}
    for q in buckets if qsets is None else qsets:
        cands = buckets.get(q, ())
        if restrict is not None:
            cands = tuple(c for c in cands if c[0] in restrict)
        if cands:
            result[q] = cands
    return result


def positions(aut, aid: int, qsets, restrict):
    """Candidate lists per subset position, or None if one is empty."""
    found = kept(aut, aid, qsets, restrict)
    if len(found) < len(qsets):
        return None
    return [found[q] for q in qsets]


def covers(obl: int, lists) -> bool:
    """Whether one candidate per position can refute every obligation."""
    if obl == 0:
        return True
    reach = {0}
    for cands in lists:
        cover_set = {cover for _, cover in cands}
        reach = {m | c for m in reach for c in cover_set}
        if obl in reach:
            return True
    return obl in reach


def has_transition(aut, aid: int, qsets, restrict) -> bool:
    lists = positions(aut, aid, qsets, restrict)
    return lists is not None and covers(obligations(aut, aid), lists)


def transition_tuples(aut, aid: int, qsets, restrict=None) -> Iterator[tuple]:
    """Recursive search over one candidate per position, pruned when the
    union of every later candidate's cover cannot finish the cover."""
    lists = positions(aut, aid, qsets, restrict)
    if lists is None:
        return
    obl = obligations(aut, aid)
    k = len(lists)
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        possible = 0
        for _, cover in lists[i]:
            possible |= cover
        suffix[i] = suffix[i + 1] | possible
    chosen = [0] * k

    def rec(i: int, covered: int) -> Iterator[tuple]:
        if covered | suffix[i] != obl:
            return
        if i == k:
            yield tuple(chosen)
            return
        for cid, cover in lists[i]:
            chosen[i] = cid
            yield from rec(i + 1, covered | cover)

    yield from rec(0, 0)


def occupants(aut, aid: int, qsets, restrict=None) -> dict:
    """Atoms at each position of some child tuple, each candidate tested
    against the covers reachable before and after its position."""
    lists = positions(aut, aid, qsets, restrict)
    if lists is None:
        return {}
    obl = obligations(aut, aid)
    cover_sets = [frozenset(cover for _, cover in cands) for cands in lists]
    k = len(lists)
    forward = [{0}]
    for cs in cover_sets:
        forward.append({m | c for m in forward[-1] for c in cs})
    backward = [{0}] * (k + 1)
    for i in range(k - 1, -1, -1):
        backward[i] = {m | c for m in backward[i + 1] for c in cover_sets[i]}
    result = {}
    for i, cands in enumerate(lists):
        around = {f | b for f in forward[i] for b in backward[i + 1]}
        fits = tuple(cid for cid, cover in cands if any(u | cover == obl for u in around))
        if not fits:
            return {}
        result[qsets[i]] = fits
    return result


def good_states(aut) -> GoodStates:
    """Sweep every atom not yet good; an atom joins when its maximal
    family against the previous sweep's set covers and is feasible."""
    good = set(aut.final_ids)
    distance = {aid: 0 for aid in aut.final_ids}
    sweep = 0
    while True:
        snapshot = frozenset(good)
        added = []
        for aid in range(len(aut.atoms)):
            if aid in good:
                continue
            found = kept(aut, aid, None, snapshot)
            if not found:
                continue
            family = tuple(sorted(found))
            if (
                covers(obligations(aut, aid), [found[q] for q in family])
                and solve_feasibility(aut.build_system(aid, family)).feasible
            ):
                added.append(aid)
        if not added:
            return GoodStates(frozenset(good), distance, sweep)
        sweep += 1
        for aid in added:
            good.add(aid)
            distance[aid] = sweep


@dataclass(frozen=True)
class Grouped:
    """The reference's weighted automaton: every good atom's groups over
    child tuples of atoms, and its dense form."""

    groups: dict
    children: tuple
    dense: weighted_reference.WeightedAutomaton


def build_weighted(aut) -> Grouped:
    """Weighted automaton from one maximal family and one occupants call
    per good atom, child tuples interned in the order they first occur.
    Each atom's family builds its own branch program, which decides its
    feasibility and gives every mass by a phase 2."""
    good = good_states(aut).good
    states = tuple(sorted(good))
    groups = dict.fromkeys(states, ())
    interned = {}
    for aid in states:
        family = tuple(sorted(kept(aut, aid, None, good)))
        by_position = occupants(aut, aid, family, good)
        if not by_position:
            continue
        program = LinearProgram(*aut.branches[aut._prob_sig[aid]].rows(family))
        if not program.feasible:
            continue
        out = []
        for qmask, fits in by_position.items():
            mass = program.maximum(qmask)
            if mass > 0:
                out.append((mass, interned.setdefault(fits, len(interned))))
        groups[aid] = tuple(out)
    children = tuple(interned)
    initial = tuple(aid for aid in aut.initial if aid in good)
    finals = tuple(aid for aid in aut.final_ids if aid in good)
    valuations = {aid: aut.atoms[aid].valuation() for aid in states}
    weights = {(q, c): wt for q in states for wt, k in groups[q] for c in children[k]}
    dense = weighted_reference.WeightedAutomaton(states, initial, finals, weights, valuations)
    return Grouped(groups, children, dense)


def witness_model(aut) -> Optional[WitnessModel]:
    """At each non-final atom, the first feasible scenario, smallest
    families first, with a child tuple among the atoms of smaller distance,
    and its first such tuple; None when no initial atom is good."""
    gs = good_states(aut)
    initial = [aid for aid in aut.initial if aid in gs.good]
    if not initial:
        return None
    width = len(aut._pairs)

    def subtree(aid: int, probability) -> WitnessModel:
        valuation = aut.atoms[aid].valuation()
        if aut.final[aid]:
            return WitnessModel(valuation, probability, ())
        earlier = frozenset(a for a in gs.good if gs.distance[a] < gs.distance[aid])
        offered = sorted(kept(aut, aid, None, earlier))
        for size in range(1, len(offered) + 1):
            for chosen in combinations(offered, size):
                tup = next(transition_tuples(aut, aid, chosen, earlier), None)
                if tup is None:
                    continue
                point = solve_feasibility(aut.build_system(aid, chosen)).witness
                if point is None:
                    continue
                children = tuple(
                    subtree(cid, point[_qset_name(q, width)]) for q, cid in zip(chosen, tup)
                )
                return WitnessModel(valuation, probability, children)
        raise AssertionError(f"good non-final atom {aid} has no transition")

    return subtree(min(initial, key=lambda a: (gs.distance[a], a)), None)
