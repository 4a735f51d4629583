"""Family-enumerating reference for the tree engine's decisions.

The engine decides transitions, edge weights and witnesses from one maximal
family per atom.  The functions here decide them the way the construction
reads: by listing every feasible scenario with
``TreeAutomaton.scenario_family``, smallest families first.  Tests compare
the two paths on random formulas.
"""

from __future__ import annotations

from fractions import Fraction

import atom_reference
from pltlf.automaton import GoodStates, ScenarioRecord, TreeAutomaton, WitnessModel, _qset_name
from pltlf.linsolve import LinearSystem, maximize, solve_feasibility
from pltlf.syntax import Comparison


def prob_members(automaton: TreeAutomaton, aid: int) -> tuple:
    """The atom's probability members in pair order: each pairs a bound
    with its negation, and pairs follow their first member in closure
    order."""
    index, negation = automaton.closure.index, automaton.closure.negation
    held = automaton.atoms[aid].prob_members()
    return tuple(sorted(held, key=lambda m: min(index[m], negation[index[m]])))


def branch_system(automaton: TreeAutomaton, aid: int, qsets) -> LinearSystem:
    """The family's branch system as the construction reads it, spelled
    from the atom's probability members: one row per member in pair order
    over the subsets that hold its argument, nonnegativity for every subset
    variable, total mass one."""
    qsets = tuple(sorted(qsets))
    members = prob_members(automaton, aid)
    names = tuple(_qset_name(q, len(members)) for q in qsets)
    rows = []
    for j, member in enumerate(members):
        coeffs = {name: 1 for name, q in zip(names, qsets) if q >> j & 1}
        rows.append((coeffs, member.cmp, member.bound))
    rows += [({name: 1}, Comparison.GE, 0) for name in names]
    rows.append(({name: 1 for name in names}, Comparison.EQ, 1))
    return LinearSystem.from_rows(names, rows)


def scenario_max(
    automaton: TreeAutomaton, aid: int, record: ScenarioRecord, qmask: int
) -> Fraction:
    """Largest mass the scenario can place on the child subset ``qmask``.

    When the subset is not part of the scenario its variable is adjoined
    to the branch system first (the extra branch takes no mass away from
    any probability row, so feasibility is preserved).
    """
    width = len(automaton._pairs)
    qsets = record.qsets
    if qmask not in qsets:
        qsets = tuple(sorted(qsets + (qmask,)))
    system = automaton.build_system(aid, qsets)
    return maximize(system, _qset_name(qmask, width)).supremum


def good_states(aut) -> GoodStates:
    """Least fixpoint where an atom joins when some feasible family has a
    child tuple in the previous sweep's set."""
    good = set(aut.final_ids)
    distance = {aid: 0 for aid in aut.final_ids}
    sweep = 0
    while True:
        snapshot = frozenset(good)
        added = [
            aid
            for aid in range(len(aut.atoms))
            if aid not in good
            and any(
                atom_reference.has_transition(aut, aid, record.qsets, snapshot)
                for record in aut.scenario_family(aid)
            )
        ]
        if not added:
            return GoodStates(frozenset(good), distance, sweep)
        sweep += 1
        for aid in added:
            good.add(aid)
            distance[aid] = sweep


def buckets_in(aut, restrict) -> dict:
    """The child index limited to ``restrict``: each bucket's atoms in
    ``restrict``, in atom order, with the buckets left empty dropped; the
    form of ``GoodStates.inside`` for the good atoms."""
    return {
        key: inside for key, atoms in aut._buckets.items()
        if (inside := [a for a in atoms if a in restrict])
    }


def occupants(aut, aid: int, qsets, kept, inside) -> dict:
    """The engine's occupants of each position of the scenario, in atom
    order: the atoms in ``inside`` of the buckets that
    ``TreeAutomaton.fitting`` finds at that position."""
    return {
        q: tuple(sorted(c for key in keys for c in inside[key]))
        for q, keys in aut.fitting(aid, qsets, kept).items()
    }


def edge_weights(aut, good) -> dict:
    """Per edge, the best mass over every surviving family that puts the
    child at some position, one ``scenario_max`` per family and position;
    zero-mass edges are left out.  Families are shared by atoms with equal
    probability signatures, so maxima are cached per family and position."""
    weights = {}
    maxima = {}
    inside = buckets_in(aut, good)
    for aid in sorted(good):
        kept = aut.kept(aid, good)
        for record in aut.scenario_family(aid):
            if not atom_reference.has_transition(aut, aid, record.qsets, good):
                continue
            for qmask, fits in occupants(aut, aid, record.qsets, kept, inside).items():
                if (record, qmask) not in maxima:
                    maxima[(record, qmask)] = scenario_max(aut, aid, record, qmask)
                mass = maxima[(record, qmask)]
                if mass == 0:
                    continue
                for child in fits:
                    if mass > weights.get((aid, child), 0):
                        weights[(aid, child)] = mass
    return weights


def witness_model(aut):
    """Witness descending distances: at each non-final atom the first
    family, then the first child tuple over the good set, whose children
    all have smaller distance; None when no initial atom is good."""
    gs = good_states(aut)
    initial = [aid for aid in aut.initial if aid in gs.good]
    if not initial:
        return None
    width = len(aut._pairs)

    def build(aid, probability):
        atom = aut.atoms[aid]
        if aut.final[aid]:
            return WitnessModel(atom.valuation(), probability, ())
        d = gs.distance[aid]
        for record in aut.scenario_family(aid):
            for tup in atom_reference.transition_tuples(aut, aid, record.qsets, gs.good):
                if all(gs.distance[c] < d for c in tup):
                    point = solve_feasibility(record.system).witness
                    children = tuple(
                        build(cid, point[_qset_name(q, width)])
                        for q, cid in zip(record.qsets, tup)
                    )
                    return WitnessModel(atom.valuation(), probability, children)
        raise AssertionError(f"good non-final atom {aid} has no descending transition")

    return build(min(initial, key=lambda a: (gs.distance[a], a)), None)
