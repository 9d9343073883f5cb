"""Kernel suite: parameter superalgebra laws and exact linear algebra."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdef.kernel import (
    ParamAlgebra,
    ParamScalar,
    SolvedSystem,
    UsageError,
    format_rational,
    matrix_rank,
    parse_rational,
)

ALG = ParamAlgebra(even=("a0", "a2", "b2", "c2"), odd=("sb1", "sc1"))


def sym(name):
    return ParamScalar.symbol(ALG, name)


class TestRationalStrings:
    def test_round_trip(self):
        assert parse_rational("3/2") == Q(3, 2)
        assert parse_rational("-7") == Q(-7)
        assert format_rational(Q(3, 2)) == "3/2"
        assert format_rational(Q(-4, 2)) == "-2"

    def test_reject_garbage(self):
        with pytest.raises(UsageError):
            parse_rational("1.5x")


class TestParamMul:
    def test_odd_square_is_zero(self):
        assert not sym("sb1") * sym("sb1")

    def test_odd_symbols_anticommute(self):
        assert sym("sb1") * sym("sc1") == -(sym("sc1") * sym("sb1"))

    def test_even_commutative_product(self):
        p = 2 * sym("a0")
        q = 3 * sym("b2")
        prod = p * q
        assert prod == 6 * sym("a0") * sym("b2")
        assert str(prod) == "6*a0*b2"

    def test_mismatched_alphabets_rejected(self):
        other = ParamAlgebra(even=("t",), odd=())
        with pytest.raises(UsageError):
            sym("a0") * ParamScalar.symbol(other, "t")

    def test_koszul_sign_normalization(self):
        # sc1*sb1 normalizes to -(sb1*sc1)
        p = sym("sc1") * sym("sb1")
        assert p == -(sym("sb1") * sym("sc1"))
        assert str(p) == "-sb1*sc1"


def random_scalar(rng, max_terms=3):
    names = ["a0", "a2", "b2", "c2", "sb1", "sc1"]
    acc = ParamScalar.const(0)
    for _ in range(rng.randrange(max_terms + 1)):
        term = ParamScalar.const(Q(rng.randrange(-4, 5), rng.randrange(1, 4)))
        for name in rng.sample(names, rng.randrange(3)):
            term = term * sym(name)
        acc = acc + term
    return acc


class TestAlgebraLaws:
    def test_associative_distributive(self):
        rng = random.Random(7)
        for _ in range(200):
            p, q, r = (random_scalar(rng) for _ in range(3))
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r

    def test_supercommutativity_homogeneous(self):
        rng = random.Random(11)
        homogeneous = []
        while len(homogeneous) < 60:
            p = random_scalar(rng)
            if p.is_homogeneous() and p:
                homogeneous.append(p)
        for p in homogeneous:
            for q in homogeneous[:10]:
                sign = (-1) ** (p.parity() * q.parity())
                assert p * q == sign * (q * p)

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=80, deadline=None)
    def test_constants_embed_as_center(self, a, b, c):
        p = sym("sb1") * a + sym("a0") * b
        assert p * c == c * p
        assert (p + c) - c == p

    def test_canonical_form_round_trip(self):
        rng = random.Random(13)
        for _ in range(150):
            p = random_scalar(rng)
            q = random_scalar(rng)
            # rebuilding (p+q) in shuffled term order lands on the same dict
            assert (p + q) - q == p or ((p + q) - q) == p


class TestSubstitute:
    def test_condition_value_at_point(self):
        # 2*b2*a0 + c2*a2 - c2*a0 at (a0=1, a2=3, b2=1, c2=-1) -> 0
        p = 2 * sym("b2") * sym("a0") + sym("c2") * sym("a2") - sym("c2") * sym("a0")
        out = p.substitute({"a0": 1, "a2": 3, "b2": 1, "c2": -1})
        assert not out

    def test_simple_zero(self):
        assert not sym("a0").substitute({"a0": 0})

    def test_partial_evaluation_keeps_odd_formal(self):
        p = sym("sb1") * ParamScalar.symbol(ALG, "a0")
        out = p.substitute({"a0": 2})
        assert out == 2 * sym("sb1")

    def test_nonzero_odd_assignment_rejected(self):
        with pytest.raises(UsageError):
            sym("sb1").substitute({"sb1": 1})

    def test_odd_zero_assignment_kills_terms(self):
        p = sym("sb1") * sym("a0") + sym("a2")
        out = p.substitute({"sb1": 0})
        assert out == sym("a2")


class TestLinearSolve:
    def test_single_equation(self):
        system = SolvedSystem([[Q(2)]], 1)
        assert system.solve([Q(1)]) == [Q(1, 2)]
        assert system.nullspace() == []

    def test_inconsistent(self):
        assert SolvedSystem([[Q(0)]], 1).solve([Q(1)]) is None

    def test_underdetermined(self):
        system = SolvedSystem([[Q(1), Q(1)]], 2)
        assert system.solve([Q(1)]) == [Q(1), Q(0)]
        assert len(system.nullspace()) == 1
        v = system.nullspace()[0]
        assert v[0] + v[1] == 0 and v != [0, 0]

    def test_random_systems_exact(self):
        rng = random.Random(5)
        for _ in range(60):
            n, m = rng.randrange(1, 6), rng.randrange(1, 6)
            rows = [[Q(rng.randrange(-3, 4)) for _ in range(m)] for _ in range(n)]
            b = [Q(rng.randrange(-3, 4)) for _ in range(n)]
            system = SolvedSystem(rows, m)
            x = system.solve(b)
            if x is None:
                # rank([A|b]) must exceed rank(A)
                aug = [row + [bv] for row, bv in zip(rows, b)]
                assert matrix_rank(aug, m + 1) == matrix_rank(rows, m) + 1
            else:
                for row, bv in zip(rows, b):
                    assert sum(r * xv for r, xv in zip(row, x)) == bv
                for vec in system.nullspace():
                    for row in rows:
                        assert sum(r * xv for r, xv in zip(row, vec)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            SolvedSystem([[Q(1), Q(2)]], 2).solve([Q(1), Q(2)])

    def test_int_rows_stay_exact(self):
        """int and mixed int/Fraction rows give the rank, solution and
        nullspace of the same rows as Fractions, all as Fractions."""
        assert SolvedSystem([[2, 1], [1, 1]], 2).solve([1, 0]) == [Q(1), Q(-1)]
        rng = random.Random(7)
        for _ in range(300):
            n, m = rng.randrange(1, 6), rng.randrange(1, 6)
            ints = [[rng.randrange(-3, 4) for _ in range(m)] for _ in range(n)]
            mixed = [[Q(v) if rng.randrange(2) else v for v in row] for row in ints]
            fracs = [[Q(v) for v in row] for row in ints]
            b = [rng.randrange(-3, 4) for _ in range(n)]
            want = SolvedSystem(fracs, m)
            for rows in (ints, mixed):
                got = SolvedSystem(rows, m)
                assert got.rank == want.rank == matrix_rank(rows, m) == matrix_rank(fracs, m)
                x = got.solve(b)
                assert x == want.solve([Q(v) for v in b])
                assert got.nullspace() == want.nullspace()
                values = (x or []) + [v for vec in got.nullspace() for v in vec]
                assert all(type(v) is Q for v in values)

    def test_float_entries_rejected(self):
        with pytest.raises(UsageError):
            SolvedSystem([[0.5, 1], [1, 1]], 2)
        with pytest.raises(UsageError):
            matrix_rank([[Q(1), Q(2)], [1.0, 3]], 2)
