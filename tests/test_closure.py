import pytest
from hypothesis import given

from pltlf import ClosureSet, Next, Not, Until, enumerate_atoms, negate, parse_formula
from pltlf.closure import atom_of_members
from pltlf.syntax import And, Prob, formula_text

import strategies as sts
from oracles import recheck_atom


def closed_under_construction(clo):
    """The closure rules re-applied to every member stay inside the set."""
    for g in clo.members:
        assert negate(g) in clo.index
        match g:
            case Not(x) | Next(x) | Prob(_, _, x):
                assert x in clo.index
            case And(ops):
                for o in ops:
                    assert o in clo.index
            case Until(l, r):
                assert l in clo.index
                assert r in clo.index
                assert Next(g) in clo.index


class TestClosure:
    def test_fixpoint_on_examples(self, phi0, phi1, psi):
        for f in (phi0, phi1, psi):
            closed_under_construction(ClosureSet(f))

    @given(sts.formulas())
    def test_fixpoint(self, f):
        closed_under_construction(ClosureSet(f))

    def test_canonical_order_is_stable(self, phi0):
        assert ClosureSet(phi0).members == ClosureSet(phi0).members
        texts = [formula_text(g) for g in ClosureSet(phi0).members]
        assert texts == sorted(set(texts), key=texts.index)

    def test_membership(self, psi):
        clo = ClosureSet(psi)
        for text in ("a U b", "!(a U b)", "X(a U b)", "P<=7/10[a U b]", "P>7/10[a U b]"):
            assert parse_formula(text) in clo

    def test_walkthrough_closure_size(self, psi):
        assert len(ClosureSet(psi)) == 20

    def test_probability_negation_pairs(self, phi0):
        clo = ClosureSet(phi0)
        f = parse_formula("P<=1/2[a]")
        assert clo.members[clo.negation[clo.index[f]]] == parse_formula("P>1/2[a]")


class TestAtoms:
    def test_count_bound(self, phi0, psi):
        for f in (phi0, psi):
            clo = ClosureSet(f)
            atoms = list(enumerate_atoms(clo))
            assert len(atoms) <= 2 ** (len(clo) // 2)
            assert len(atoms) == clo.atom_count()

    def test_recheck_examples(self, phi0, psi):
        for f in (phi0, psi):
            clo = ClosureSet(f)
            for atom in enumerate_atoms(clo):
                assert recheck_atom(clo, atom.bits)

    @given(sts.formulas(max_leaves=3))
    def test_recheck(self, f):
        clo = ClosureSet(f)
        for atom in enumerate_atoms(clo):
            assert recheck_atom(clo, atom.bits)

    def test_exactly_one_side_of_each_pair(self, phi0):
        clo = ClosureSet(phi0)
        le = parse_formula("P<=1/2[a]")
        gt = parse_formula("P>1/2[a]")
        for atom in enumerate_atoms(clo):
            assert (le in atom) != (gt in atom)

    def test_atom_of_members(self, phi0):
        clo = ClosureSet(phi0)
        some = next(enumerate_atoms(clo))
        assert atom_of_members(clo, some.members()) == some

    def test_atom_valuation(self, phi0):
        clo = ClosureSet(phi0)
        for atom in enumerate_atoms(clo):
            assert atom.valuation() <= {"a", "b"}

    def test_inconsistent_members_rejected(self, phi0):
        clo = ClosureSet(phi0)
        with pytest.raises(ValueError):
            atom_of_members(clo, (parse_formula("a"), parse_formula("!a")))
