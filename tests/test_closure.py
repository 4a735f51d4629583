import pytest
from hypothesis import given

from pltlf import (
    ClosureSet,
    Next,
    Not,
    Until,
    enumerate_atoms,
    negate,
    normalize,
    parse_formula,
)
from pltlf.closure import atom_of_members
from pltlf.syntax import And, Prob, formula_text, size_and_text

import atom_reference
import strategies as sts
import syntax_reference
from conftest import LARGER_TEXTS
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

    @given(sts.formulas())
    def test_sort_key_renders_each_member_as_formula_text(self, f):
        # members are sorted by (node count, text), both read bottom-up
        members = list(ClosureSet(f).members)
        expected = [
            (syntax_reference.formula_size(g), syntax_reference.formula_text(g)) for g in members
        ]
        assert size_and_text(members) == expected
        assert expected == sorted(expected)

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


def outcome(build, clo, bits: int):
    """The atom's bits that ``build`` makes of the members in ``bits``, or
    its rejection message."""
    members = [g for i, g in enumerate(clo.members) if bits >> i & 1]
    try:
        return build(clo, members).bits
    except ValueError as exc:
        return str(exc)


def check_against_reference(clo, checked_atoms: int):
    """Atoms match the per-atom reference in order, and ``atom_of_members``
    matches it on the first atoms and on every one-member change of them."""
    bits = [atom.bits for atom in enumerate_atoms(clo)]
    assert bits == atom_reference.atom_bits(clo)
    for atom_bits in bits[:checked_atoms]:
        for flip in (0, *(1 << i for i in range(len(clo)))):
            assert outcome(atom_of_members, clo, atom_bits ^ flip) == outcome(
                atom_reference.atom_of_members, clo, atom_bits ^ flip
            )


class TestColumns:
    @given(sts.formulas())
    def test_matches_reference(self, f):
        check_against_reference(ClosureSet(f), 2)

    @given(sts.formulas(prob_free=True))
    def test_matches_reference_without_bounds(self, f):
        check_against_reference(ClosureSet(f), 2)

    @pytest.mark.parametrize("text", LARGER_TEXTS)
    def test_matches_reference_on_larger_closures(self, text):
        check_against_reference(ClosureSet(parse_formula(text)), 1)

    def test_non_member_rejected_like_reference(self, phi0):
        clo = ClosureSet(phi0)
        stranger = [parse_formula("X c")]
        with pytest.raises(ValueError) as engine:
            atom_of_members(clo, stranger)
        with pytest.raises(ValueError) as reference:
            atom_reference.atom_of_members(clo, stranger)
        assert str(engine.value) == str(reference.value)

    def test_enumeration_resolves_members_once(self):
        # operand indices are resolved when the closure is built, so
        # enumerating its 2 048 atoms looks up no member per atom
        clo = ClosureSet(parse_formula("X X X X X X X X X X a"))
        lookups = []

        class CountingDict(dict):
            def __getitem__(self, key):
                lookups.append(key)
                return super().__getitem__(key)

            def __contains__(self, key):
                lookups.append(key)
                return super().__contains__(key)

            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

        clo.index = CountingDict(clo.index)
        assert len(list(enumerate_atoms(clo))) == 2**11
        assert len(lookups) <= len(clo)


class TestMembership:
    def test_closure_and_atoms_normalise_their_argument(self):
        f = parse_formula("G(a -> F b)")
        clo = ClosureSet(f)
        assert f in clo
        root = clo.index[normalize(f)]
        for atom in enumerate_atoms(clo):
            assert (f in atom) == bool(atom.bits >> root & 1)

    def test_non_member_still_raises(self, phi0):
        atom = next(enumerate_atoms(ClosureSet(phi0)))
        assert parse_formula("X c") not in atom.closure
        with pytest.raises(KeyError):
            parse_formula("X c") in atom
