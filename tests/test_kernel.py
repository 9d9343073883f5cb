"""Kernel suite: parameter superalgebra laws and exact linear algebra."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdef.catalog import CatalogId, DecompositionReport
from symdef.cohomology import (
    SL2,
    BoundsSpec,
    Decomposition,
    DimResult,
    NoSolutionWithinBounds,
    Witness,
    block_cache,
    cohomology_dim,
)
from symdef.deformation import (
    BlockObstruction,
    ConditionVerdict,
    DeformationSpec,
    DeformedAction,
    Example1Report,
    HomomorphismReport,
    NotTrivializable,
    ObstructionReport,
    example1_family,
)
from symdef.geometry import CLASSICAL, Density, Poly
from symdef.kernel import (
    ParamAlgebra,
    ParamScalar,
    SolvedSystem,
    UsageError,
    format_rational,
    matrix_rank,
    parse_int,
    parse_rational,
)
from symdef.operators import GradedOp

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

    @pytest.mark.parametrize("text,value", [("-1/2", Q(-1, 2)), ("3/2", Q(3, 2)), ("7", Q(7)),
                                            ("0", Q(0)), (" 5/3 ", Q(5, 3))],
                             ids=["negative", "proper", "integer", "zero", "spaced"])
    def test_kept_forms(self, text, value):
        assert parse_rational(text) == value
        if "/" not in text:
            assert parse_int(text) == value and type(parse_int(text)) is int

    @pytest.mark.parametrize("text", ["1_000", "1e3", "0.5", "\u0663", "+2", "1/-2", "- 1",
                                      "1 / 2", "1/0", "", "-", "\u00b2"],
                             ids=["underscore", "exponent", "decimal", "arabic-indic-digit",
                                  "plus-sign", "negative-denominator", "spaced-sign",
                                  "spaced-slash", "zero-denominator", "empty", "bare-minus",
                                  "superscript-digit"])
    def test_refused_forms(self, text):
        """Only ASCII -?[0-9]+(/[0-9]+)? is a number, though Fraction() or
        int() read several of these."""
        with pytest.raises(UsageError, match="not a rational"):
            parse_rational(text)
        with pytest.raises(UsageError, match="not an integer"):
            parse_int(text)

    def test_integer_refuses_a_quotient(self):
        with pytest.raises(UsageError, match="not an integer"):
            parse_int("4/2")


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
    @settings(max_examples=80)
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


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def sparse(rows):
    """Dense rows as the kernel's sparse rows of (column, value) pairs."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in rows]


class DenseReference:
    """The dense Fraction Gauss-Jordan elimination the kernel used before
    its sparse fraction-free core, kept as the oracle: rank, the pivot
    columns (the earliest independent ones) and the solution with free
    variables 0, which any correct elimination must reproduce."""

    def __init__(self, rows, ncols):
        work = [[Q(x) for x in row] for row in rows]
        nrows = len(work)
        trans = [[Q(int(i == j)) for j in range(nrows)] for i in range(nrows)]
        self.pivots = {}  # pivot column -> row
        for col in range(ncols):
            best = next((r for r in range(nrows)
                         if r not in self.pivots.values() and work[r][col]), None)
            if best is None:
                continue
            self.pivots[col] = best
            inv = 1 / work[best][col]
            work[best] = [x * inv for x in work[best]]
            trans[best] = [x * inv for x in trans[best]]
            for r in range(nrows):
                factor = work[r][col]
                if r != best and factor:
                    work[r] = [x - factor * y for x, y in zip(work[r], work[best])]
                    trans[r] = [x - factor * y for x, y in zip(trans[r], trans[best])]
        self.ncols, self.transform = ncols, trans
        self.rank = len(self.pivots)

    def solve(self, b):
        image = [sum((t * Q(bj) for t, bj in zip(row, b)), Q(0)) for row in self.transform]
        if any(v for r, v in enumerate(image) if r not in self.pivots.values()):
            return None
        x = [Q(0)] * self.ncols
        for col, row in self.pivots.items():
            x[col] = image[row]
        return x


ENTRIES = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.builds(Q, st.integers(-9, 9), st.integers(1, 6)),
    st.integers(-4, 4).map(Q),
)


@st.composite
def rational_systems(draw):
    """(dense rows, ncols, b): mostly-zero int/Fraction/mixed matrices,
    some rows combinations of earlier ones so the rank often falls short."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(ENTRIES), draw(ENTRIES)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([draw(ENTRIES) if draw(st.integers(0, 2)) else 0 for _ in range(ncols)])
    b = [draw(ENTRIES) for _ in range(nrows)]
    if draw(st.booleans()):  # a consistent right-hand side
        x = [draw(ENTRIES) for _ in range(ncols)]
        b = [sum(a * v for a, v in zip(row, x)) for row in rows]
    return rows, ncols, b


class TestLinearSolve:
    def test_single_equation(self):
        system = SolvedSystem([[(0, Q(2))]], 1)
        assert system.solve([Q(1)]) == [Q(1, 2)]
        assert system.pivot_cols == [0]

    def test_inconsistent(self):
        assert SolvedSystem([[(0, Q(0))]], 1).solve([Q(1)]) is None

    def test_underdetermined(self):
        system = SolvedSystem([[(0, Q(1)), (1, Q(1))]], 2)
        assert system.solve([Q(1)]) == [Q(1), Q(0)]
        assert system.pivot_cols == [0]  # column 1 equals column 0

    def test_random_systems_exact(self):
        rng = random.Random(5)
        for _ in range(60):
            n, m = rng.randrange(1, 6), rng.randrange(1, 6)
            rows = [[Q(rng.randrange(-3, 4)) for _ in range(m)] for _ in range(n)]
            b = [Q(rng.randrange(-3, 4)) for _ in range(n)]
            system = SolvedSystem(sparse(rows), m)
            assert system.pivot_cols == sorted(DenseReference(rows, m).pivots)
            x = system.solve(b)
            if x is None:
                # rank([A|b]) must exceed rank(A)
                aug = [row + [bv] for row, bv in zip(rows, b)]
                assert matrix_rank(sparse(aug), m + 1) == matrix_rank(sparse(rows), m) + 1
            else:
                for row, bv in zip(rows, b):
                    assert sum(r * xv for r, xv in zip(row, x)) == bv

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            SolvedSystem([[(0, Q(1)), (1, Q(2))]], 2).solve([Q(1), Q(2)])

    def test_int_rows_stay_exact(self):
        """int and mixed int/Fraction rows give the rank, pivot columns and
        solution of the same rows as Fractions, the solution as Fractions."""
        assert SolvedSystem([[(0, 2), (1, 1)], [(0, 1), (1, 1)]], 2).solve([1, 0]) == [Q(1), Q(-1)]
        rng = random.Random(7)
        for _ in range(300):
            n, m = rng.randrange(1, 6), rng.randrange(1, 6)
            ints = [[rng.randrange(-3, 4) for _ in range(m)] for _ in range(n)]
            mixed = [[Q(v) if rng.randrange(2) else v for v in row] for row in ints]
            fracs = [[Q(v) for v in row] for row in ints]
            b = [rng.randrange(-3, 4) for _ in range(n)]
            want = SolvedSystem(sparse(fracs), m)
            for rows in (ints, mixed):
                got = SolvedSystem(sparse(rows), m)
                assert (got.rank == want.rank == matrix_rank(sparse(rows), m)
                        == matrix_rank(sparse(fracs), m))
                x = got.solve(b)
                assert x == want.solve([Q(v) for v in b])
                assert got.pivot_cols == want.pivot_cols
                assert all(type(v) is Q for v in x or [])

    def test_float_entries_rejected(self):
        with pytest.raises(UsageError):
            SolvedSystem([[(0, 0.5), (1, 1)], [(0, 1), (1, 1)]], 2)
        with pytest.raises(UsageError):
            matrix_rank([[(0, Q(1)), (1, Q(2))], [(0, 1.0), (1, 3)]], 2)

    @pytest.mark.parametrize("row", [[(2, 1)], [(-1, 1)], [(0, 1), (0, 2)]],
                             ids=["past-ncols", "negative", "repeated"])
    def test_bad_columns_rejected(self, row):
        with pytest.raises(UsageError):
            matrix_rank([row], 2)
        with pytest.raises(UsageError):
            SolvedSystem([row], 2)

    @given(rational_systems())
    @settings(max_examples=400)
    def test_matches_dense_reference(self, system):
        """Rank, pivot columns and solve (value or None) equal the dense
        reference exactly, zero entries given or left out."""
        rows, ncols, b = system
        want = DenseReference(rows, ncols)
        with_zeros = [list(enumerate(row)) for row in rows]
        for sparse_rows in (sparse(rows), with_zeros):
            assert matrix_rank(sparse_rows, ncols) == want.rank
            got = SolvedSystem(sparse_rows, ncols)
            assert got.rank == want.rank
            x = got.solve(b)
            assert x == want.solve(b)
            assert got.pivot_cols == sorted(want.pivots)
            assert all(type(v) is Q for v in x or [])


# ---------------------------------------------------------------------------
# Exact weights at every library entry
# ---------------------------------------------------------------------------

# (entry point, call on one weight w, what it must give for an exact w): a
# float would otherwise be read as its binary expansion (0.1 ->
# 3602879701896397/36028797018963968) and a bool as 0 or 1.
WEIGHT_ENTRIES = [
    ("block_cache", lambda w: block_cache(SL2, w, w).lam, Q),
    ("Density", lambda w: Density(w, Poly([1]), CLASSICAL).weight, Q),
    ("GradedOp", lambda w: GradedOp(CLASSICAL, w, 2).delta, Q),
    ("DeformationSpec", lambda w: DeformationSpec(CLASSICAL, w, 8).delta, Q),
    ("DeformationSpec.assignment",
     lambda w: DeformationSpec(CLASSICAL, Q(1), 4, {"a0": w}).assignment["a0"], Q),
    ("example1_family", lambda w: example1_family(3, [w, 2, 5]).alphas[0], Q),
    ("ParamScalar.const", lambda w: ParamScalar.const(w).constant_value(), Q),
    ("ParamScalar.substitute", lambda w: ParamScalar.symbol(ParamAlgebra(("a0",), ()), "a0")
     .substitute({"a0": w}).constant_value(), Q),
    ("cohomology_dim", lambda w: cohomology_dim((w, w), 1, SL2, BoundsSpec(2, 4)).dim,
     lambda w: 1),  # a diagonal sl(2) block has H^1 of dimension 1
]


class TestExactWeightEntries:
    @pytest.mark.parametrize("inexact", [0.1, 0.5, True, False])
    @pytest.mark.parametrize("name, call, _", WEIGHT_ENTRIES,
                             ids=[row[0] for row in WEIGHT_ENTRIES])
    def test_float_or_bool_is_refused_by_name(self, name, call, _, inexact):
        with pytest.raises(UsageError, match=repr(inexact)):
            call(inexact)

    @pytest.mark.parametrize("exact", [3, -1, Q(1, 2), Q(-3, 4)])
    @pytest.mark.parametrize("name, call, want", WEIGHT_ENTRIES,
                             ids=[row[0] for row in WEIGHT_ENTRIES])
    def test_int_and_fraction_are_kept(self, name, call, want, exact):
        got = call(exact)
        assert got == want(exact) and type(got) is type(want(exact))


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

SPEC = DeformationSpec(CLASSICAL, Q(1), 3)
REPORT_FIELDS = {"spec": SPEC, "bounds": BoundsSpec(2, 4), "blocks": [],
                 "diagonal_clean": True, "unexpected_blocks": [], "verdict": "derived"}

# (record class, its init fields in annotation order, one field and a value
# that differs, frozen, the fields left out and their defaults)
RECORDS = [
    (ParamAlgebra, {"even": ("a0",), "odd": ("b1",)}, ("odd", ("b2",)), True, {}),
    (BoundsSpec, {"max_operator_order": 2, "max_coefficient_degree": 4},
     ("max_operator_order", 3), True, {}),
    (CatalogId, {"family": "A", "args": (Q(1),)}, ("family", "Yprime"), True, {}),
    (Witness, {"cochain": "c"}, ("cochain", "d"), False, {}),
    (NoSolutionWithinBounds, {"bounds": BoundsSpec(2, 4)}, ("bounds", BoundsSpec(4, 6)),
     False, {}),
    (Decomposition, {"coeff": Q(1), "witness": "w"}, ("coeff", Q(2)), False, {}),
    (DimResult, {"dim": 1, "stabilized": True, "per_weight": {0: 1}, "examined_keys": (0,)},
     ("dim", 2), False, {}),
    (DecompositionReport, {"k": 2, "passed": True, "residuals": {}}, ("passed", False),
     False, {}),
    (DeformationSpec, {"flavor": CLASSICAL, "delta": Q(1), "window": 3}, ("window", 4),
     False, {"assignment": None}),
    (DeformedAction, {"spec": SPEC, "terms": {}}, ("terms", {1: []}), False,
     {"truncation_order": None}),
    (HomomorphismReport, {"passed": True, "failures": [], "checked_pairs": [(0, 1)]},
     ("passed", False), False, {}),
    (BlockObstruction, {"k": 1, "source_k": 1, "target_k": 0, "basis_id": "Phi:k=1",
                        "basis": "b", "class_coeff": "x", "witness": "w",
                        "bounds": BoundsSpec(2, 4), "verdict": "derived"},
     ("class_coeff", "y"), False, {}),
    (ObstructionReport, REPORT_FIELDS, ("diagonal_clean", False), False, {}),
    (ConditionVerdict, {"k": 1, "generator": "g", "value": "0", "satisfied": True},
     ("value", "1"), False, {}),
    (Example1Report, {"m": 3, "alphas": [Q(1)], "printed_flat": True, "printed_c": {1: Q(1)},
                      "solved_c": {1: Q(1)}, "coincide": True, "solved_flat": True},
     ("solved_c", {1: None}), False, {}),
    (NotTrivializable, {"reason": "r", "classes": ["x"]}, ("classes", []), False, {}),
]


class TestRecords:
    @pytest.mark.parametrize("cls, fields, change, frozen, defaults", RECORDS,
                             ids=[row[0].__name__ for row in RECORDS])
    def test_equality_hash_and_defaults(self, cls, fields, change, frozen, defaults):
        a, b = cls(**fields), cls(*fields.values())
        assert a == b and not a != b
        name, value = change
        assert a != cls(**dict(fields, **{name: value}))
        assert a != type("Other", (cls,), {})(**fields)  # equality needs the same class
        if frozen:
            assert hash(a) == hash(b) and {a: "key"}[b] == "key"
            with pytest.raises(AttributeError):
                setattr(a, name, value)
        else:
            with pytest.raises(TypeError):
                hash(a)
        assert {key: getattr(a, key) for key in defaults} == defaults
        assert repr(a).startswith(f"{cls.__name__}({next(iter(fields))}=")

    def test_post_init_and_plain_attributes(self):
        """Only annotated fields are arguments, compared and shown; a plain
        attribute set later is none of these.  An action keeps a row given
        as a tuple, the same object, and makes a tuple of any other row."""
        assert ParamAlgebra(even=("b", "a"), odd=("d", "c")) == ParamAlgebra(("a", "b"), ("c", "d"))
        with pytest.raises(UsageError, match="flavor"):
            DeformationSpec("quantum", Q(1), 3)
        with pytest.raises(UsageError, match="bounds"):
            BoundsSpec(2.5, 1)
        report = ObstructionReport(**REPORT_FIELDS)
        report.note = "kept"
        assert report == ObstructionReport(**REPORT_FIELDS) and "note" not in repr(report)
        row = (GradedOp(CLASSICAL, Q(1), 3),)
        assert DeformedAction(SPEC, {1: row}).terms[1] is row
        assert DeformedAction(SPEC, {1: list(row)}).terms == {1: row}
        for args, kwargs in [((SPEC, {}), {"note": ()}), ((SPEC,), {}),
                             ((SPEC, {}, None, ()), {}), ((SPEC, {}), {"spec": SPEC})]:
            with pytest.raises(TypeError):
                DeformedAction(*args, **kwargs)
        with pytest.raises(TypeError):
            ObstructionReport(**REPORT_FIELDS, note="kept")
