"""Differential structure, coboundary solving, truncated dimensions."""

import operator
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdef.catalog import (_CALIBRATION_SAMPLES, build_cocycle, cocycle_A, cocycle_B, cocycle_C,
                            cocycle_Omega, cocycle_Phi, cocycle_Y, cocycle_Yprime, cocycle_Ytilde)
from symdef.cohomology import (
    BlockCache,
    BoundsSpec,
    Cochain,
    Cochain0,
    Cochain1,
    Cochain2,
    Decomposition,
    DimResult,
    NoSolutionWithinBounds,
    OSP12,
    SL2,
    Witness,
    block_cache,
    bounded_monomials,
    classes_independent,
    cochain_weight_keys,
    coboundary_solve,
    cohomology_dim,
    d0,
    d1,
    d2,
    decompose_cocycle,
    default_witness_bounds,
    get_algebra,
    homomorphism_failure,
    is_cocycle,
)
from symdef.cohomology import (
    _assemble_witness,
    _by_weight_key,
    _ce_table,
    _cochain_coords,
    _critical_dimension,
    _differential,
    _differential_columns,
    _enumerate_cochain_basis,
    _solve_by_weight,
    critical_weight_key,
)
from symdef.geometry import (
    CLASSICAL,
    SUPER,
    Density,
    Poly,
    SuperPoly,
    density_action,
    super_density_action,
)
from symdef.kernel import ParamAlgebra, ParamScalar, UsageError
from symdef.operators import (
    DiffOp,
    GradedOp,
    SuperDiffOp,
    lie_op,
    monomial_coords,
    monomial_key,
    super_lie_op,
)
from test_kernel import DenseReference


def poly(cs):
    return Poly([Q(c) for c in cs])


def random_diffop(rng, lam, mu, max_order=3, max_deg=3):
    return DiffOp(
        lam,
        mu,
        [poly([rng.randrange(-2, 3) for _ in range(max_deg)]) for _ in range(max_order + 1)],
    )


def random_superop(rng, lam, mu, parity, max_order=3, max_deg=2):
    coeffs = []
    for i in range(max_order + 1):
        want = (parity + i) & 1
        f0 = [rng.randrange(-2, 3) for _ in range(max_deg)] if want == 0 else []
        f1 = [rng.randrange(-2, 3) for _ in range(max_deg)] if want == 1 else []
        coeffs.append(SuperPoly(poly(f0), poly(f1)))
    return SuperDiffOp(lam, mu, coeffs)


def random_cochain0(rng, algebra, lam, mu, parity=0):
    if algebra == SL2:
        return Cochain0(SL2, random_diffop(rng, lam, mu))
    return Cochain0(OSP12, random_superop(rng, lam, mu, parity), parity=parity)


def random_cochain1(rng, algebra, lam, mu, parity=0):
    ctx = get_algebra(algebra)
    images = []
    for i in range(ctx.dim):
        if algebra == SL2:
            images.append(random_diffop(rng, lam, mu))
        else:
            images.append(random_superop(rng, lam, mu, (parity + ctx.parities[i]) & 1))
    return Cochain1(algebra, images, parity=parity)


class TestDifferentialExamples:
    def test_d0_of_invariant_identity(self):
        b = Cochain0(SL2, DiffOp.identity(Q(1, 2)))
        assert d0(b).is_zero()

    def test_d0_of_x_ddx_multiplication(self):
        b = Cochain0(SL2, DiffOp(0, 0, [Poly(), poly([0, 1])]))
        image = d0(b).images[0]  # at d/dx
        assert image == DiffOp(0, 0, [Poly(), poly([1])])

    def test_d0_of_zero(self):
        assert d0(Cochain0(SL2, DiffOp.zero(1, 1))).is_zero()

    def test_d1_kills_coboundaries(self):
        rng = random.Random(7)
        for algebra, lam, mu, parity in [
            (SL2, Q(0), Q(0), 0),
            (SL2, Q(1, 2), Q(5, 2), 0),
            (OSP12, Q(0), Q(1, 2), 0),
            (OSP12, Q(0), Q(1, 2), 1),
            (OSP12, Q(-1, 2), Q(-1, 2), 1),
        ]:
            for _ in range(10):
                b = random_cochain0(rng, algebra, lam, mu, parity)
                assert d1(d0(b)).is_zero(), (algebra, lam, mu, parity)

    def test_d1_bracket_term_example(self):
        # c(d/dx) = identity multiplication, others zero, on D_{1,1}:
        # image at (d/dx, x d/dx) is multiplication by -1
        c = Cochain1(
            SL2,
            [DiffOp.identity(1), DiffOp.zero(1, 1), DiffOp.zero(1, 1)],
        )
        out = d1(c)
        assert out.images[(0, 1)] == DiffOp.multiplication(poly([-1]), 1, 1)

    def test_d2_kills_d1_images(self):
        rng = random.Random(11)
        for algebra, lam, mu, parity in [
            (SL2, Q(0), Q(0), 0),
            (SL2, Q(-1, 2), Q(3, 2), 0),
            (OSP12, Q(0), Q(1, 2), 0),
            (OSP12, Q(0), Q(1, 2), 1),
        ]:
            for _ in range(10):
                c = random_cochain1(rng, algebra, lam, mu, parity)
                w = d1(c)
                assert all(not v for v in d2(w).values()), (algebra, parity)

    def test_d1_rejects_mixed_parity(self):
        rng = random.Random(13)
        even = random_superop(rng, Q(0), Q(0), 0, max_order=2)
        odd = random_superop(rng, Q(0), Q(0), 1, max_order=2)
        mixed = even + odd
        images = [mixed] + [SuperDiffOp.zero(0, 0)] * 4
        with pytest.raises(UsageError):
            Cochain1(OSP12, images)
            d1(Cochain1(OSP12, images))


ONE = DiffOp.identity(1)

# (id, left, right): cochains that cannot be added or subtracted
MIXED = [
    ("degree-2-and-1", lambda: cocycle_Phi(2), lambda: cocycle_A(1)),
    ("degree-0-and-1", lambda: Cochain0(SL2, ONE), lambda: cocycle_A(1)),
    ("sl2-and-osp12", lambda: cocycle_A(1), lambda: cocycle_Yprime(1)),
]

# (id, constructor): a cochain whose images miss or exceed its slots
WRONG_SLOTS = [
    ("degree-0-index-slot", lambda: Cochain(SL2, 0, {0: ONE})),
    ("degree-1-short", lambda: Cochain1(SL2, [ONE, ONE])),
    ("degree-1-long", lambda: Cochain1(SL2, [ONE] * 4)),
    ("degree-1-pair-keys", lambda: Cochain(SL2, 1, {(0, 1): ONE, (0, 2): ONE, (1, 2): ONE})),
    ("degree-2-missing-pair", lambda: Cochain2(SL2, {(0, 1): ONE, (0, 2): ONE})),
    ("degree-2-even-diagonal", lambda: Cochain2(
        SL2, {(0, 1): ONE, (0, 2): ONE, (1, 2): ONE, (1, 1): ONE})),
    ("degree-3", lambda: Cochain(SL2, 3, {})),
]


class TestCochainShape:
    """Misuse of the one cochain class is bad input (UsageError), never a
    Python error that the CLI would report as an engine fault."""

    @pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
    @pytest.mark.parametrize("left,right", [row[1:] for row in MIXED],
                             ids=[row[0] for row in MIXED])
    def test_mixed_arithmetic_refused(self, op, left, right):
        with pytest.raises(UsageError):
            op(left(), right())

    @pytest.mark.parametrize("build", [row[1] for row in WRONG_SLOTS],
                             ids=[row[0] for row in WRONG_SLOTS])
    def test_wrong_slots_refused(self, build):
        with pytest.raises(UsageError):
            build()


class TestAlgebraFacts:
    """The facts derived from each algebra's doubled weights and each
    operator class's ``dweight`` equal the literals they replace."""

    @pytest.mark.parametrize("algebra,parities,euler_index", [
        (SL2, (0, 0, 0), 1), (OSP12, (0, 1, 0, 1, 0), 2)])
    def test_parities_and_euler_index(self, algebra, parities, euler_index):
        ctx = get_algebra(algebra)
        assert ctx.parities == parities and ctx.euler_index == euler_index

    def test_monomial_keys_and_their_parity(self):
        """2(d - i) for x^d d_x^i, whose every key is even, and 2d + eps - i
        for x^d theta^eps eta^i, whose key has the parity eps + i."""
        sl2, osp12 = get_algebra(SL2), get_algebra(OSP12)
        for d in range(9):
            for i in range(9):
                key = monomial_key((d, i), DiffOp.dweight)
                assert key == 2 * (d - i)
                assert [sl2.key_parity(key - w) for w in sl2.weights2] == [0, 0, 0]
                for eps in (0, 1):
                    key = monomial_key((d, eps, i), SuperDiffOp.dweight)
                    assert key == 2 * d + eps - i
                    assert osp12.key_parity(key) == (eps + i) & 1

    @pytest.mark.parametrize("flavor,step", [(CLASSICAL, Q(1)), (SUPER, Q(1, 2))])
    def test_window_weights_step_by_half_the_derivation_weight(self, flavor, step):
        window = GradedOp(flavor, Q(5, 3), 6)
        assert [window.weight_of(k) for k in range(7)] == [Q(5, 3) - step * k for k in range(7)]


def weight_slices(c):
    """{weight key: typed slice} of a parameter-free Cochain1, cut on its
    coordinates and rebuilt as a cochain."""
    cache = block_cache(c.algebra, *c.block)
    (coords,) = _cochain_coords(c).values()
    return {key: _assemble_witness(cache, 1, piece)
            for key, piece in _by_weight_key(c, coords).items()}


class TestWeightSlicing:
    def test_slices_reassemble(self):
        rng = random.Random(17)
        for algebra, lam, mu, parity in [(SL2, Q(0), Q(2), 0), (OSP12, Q(0), Q(1, 2), 1)]:
            c = random_cochain1(rng, algebra, lam, mu, parity)
            slices = weight_slices(c)
            assert sorted(slices) == cochain_weight_keys(c) and len(slices) > 1
            total = None
            for part in slices.values():
                total = part if total is None else total + part
            assert total == c

    def test_slicing_commutes_with_d1(self):
        """The slice of d1(c) at a key, cut on d1(c)'s own coordinates, is the
        typed d1 of c's slice at that key."""
        rng = random.Random(19)
        for algebra, lam, mu, parity in [(SL2, Q(1, 2), Q(1, 2), 0), (OSP12, Q(0), Q(1, 2), 1)]:
            c = random_cochain1(rng, algebra, lam, mu, parity)
            full = d1(c)
            (full_coords,) = _cochain_coords(full).values()
            full_slices = _by_weight_key(full, full_coords)
            for key, part in weight_slices(c).items():
                (sliced,) = _cochain_coords(d1(part)).values()
                assert sliced == full_slices.get(key, {}), (algebra, key)
            assert set(full_slices) <= set(weight_slices(c))

    def test_specialized_columns_match_generic_d1(self):
        """The table-driven integer slice columns are s times the typed
        d0/d1/d2 on every one-slot basis cochain: degrees 0-2, both algebras,
        both parities, every integer weight key from -5 to 4 (odd keys are
        osp(1|2) slices; Omega:k lies in key 1-2k)."""
        blocks = [(SL2, Q(0), Q(1), 0), (SL2, Q(-1, 2), Q(3, 2), 0),
                  (OSP12, Q(0), Q(1, 2), 0), (OSP12, Q(0), Q(1, 2), 1),
                  (OSP12, Q(-1), Q(3, 2), 0), (OSP12, Q(-1), Q(3, 2), 1)]
        bounds = BoundsSpec(3, 4)
        checked = 0
        for algebra, lam, mu, parity in blocks:
            cache = block_cache(algebra, lam, mu)
            for degree in (0, 1, 2):
                for key in range(-5, 5):
                    if algebra == OSP12 and key & 1 != parity:
                        continue  # the slice at this key holds the other parity
                    basis, s, cols = _differential_columns(cache, degree, bounds, key)
                    for item, col in zip(basis, cols):
                        want = {k: s * v for k, v in typed_column(cache, degree, item,
                                                                  parity).items()}
                        assert want == col, (algebra, parity, degree, item)
                        assert all(type(v) is int for v in col.values())
                        checked += 1
        assert checked > 1000


def typed_column(cache, degree, item, parity):
    """Coordinates of the typed differential of a one-slot basis cochain."""
    ctx = cache.ctx
    slot, mon = item
    if degree == 0:
        images = d0(Cochain0(ctx.name, cache.monomial_op(mon), parity)).images.items()
    else:
        zero = cache.monomial_op(mon).scale(0)
        if degree == 1:
            values = [cache.monomial_op(mon) if s == slot else zero for s in range(ctx.dim)]
            images = d1(Cochain1(ctx.name, values, parity)).images.items()
        else:
            values = {pair: cache.monomial_op(mon) if pair == slot else zero
                      for pair in ctx.canonical_pairs()}
            images = d2(Cochain2(ctx.name, values, parity)).items()
    return coords_of(images)


def coords_of(images):
    """Coordinates {(slot, monomial): Fraction} of (slot, operator) pairs."""
    return {(slot, mon): fr for slot, im in images for mon, fr in monomial_coords(im).items()}


def generic_action(cache, gen, mon):
    """The oracle of the action tables: the typed composition
    L^mu_X o M - (-1)^{p(M)p(X)} M o L^lam_X on the monomial operator."""
    return sorted(monomial_coords(cache.ctx.act(gen, cache.monomial_op(mon))).items())


def assert_table_entry(cache, gen, mon):
    """The table entry is D times the typed one, in integers."""
    got = cache.act_monomial(gen, mon)
    want = tuple((m, cache.den * v) for m, v in generic_action(cache, gen, mon))
    assert got == want, (cache.ctx.name, cache.lam, cache.mu, gen, mon)
    assert all(type(v) is int for _, v in got)


def graded_piece_action(cache, gen, mon):
    """{coefficient monomial: value} of the density action of generator
    `gen` on the coefficient of `mon`, of order k, at weight delta - k, or
    delta - k/2 on the superline (delta = mu - lambda)."""
    delta, x = cache.mu - cache.lam, cache.ctx.basis[gen]
    if cache.ctx.flavor == CLASSICAL:
        d, k = mon
        parts = {(): density_action(x, Density(delta - k, Poly.x_power(d), CLASSICAL)).value}
    else:
        d, eps, k = mon
        value = SuperPoly.x_power(d, theta=bool(eps))
        out = super_density_action(x, Density(delta - Q(k, 2), value, SUPER)).value
        parts = {(0,): out.f0, (1,): out.f1}  # the theta-free and theta parts
    return {(n,) + theta: part.coefficient(n) for theta, part in parts.items()
            for n in range((part.degree or 0) + 1) if part.coefficient(n)}


# one block per `dim-cold` benchmark stratum, at that stratum's bounds
DIM_COLD_BLOCKS = [
    (SL2, Q(5, 3), Q(5, 3), BoundsSpec(10, 24)),
    (SL2, Q(-1, 2), Q(3, 2), BoundsSpec(10, 24)),
    (SL2, Q(-1), Q(2), BoundsSpec(6, 16)),
    (OSP12, Q(-1, 2), Q(-1, 2), BoundsSpec(3, 8)),
    (OSP12, Q(-1), Q(3, 2), BoundsSpec(5, 12)),
    (SL2, Q(1, 4), Q(2), BoundsSpec(10, 24)),
]


class TestActionTables:
    @settings(max_examples=300)
    @given(algebra=st.sampled_from([SL2, OSP12]),
           lam=st.fractions(min_value=-3, max_value=3, max_denominator=4),
           mu=st.fractions(min_value=-3, max_value=3, max_denominator=4),
           gen=st.integers(0, 4), d=st.integers(0, 12), eps=st.integers(0, 1),
           i=st.integers(0, 12))
    def test_closed_form_matches_generic_composition(self, algebra, lam, mu, gen, d, eps, i):
        cache = BlockCache(algebra, lam, mu)
        mon = (d, i) if algebra == SL2 else (d, eps, i)
        assert_table_entry(cache, gen % cache.ctx.dim, mon)

    def test_every_entry_at_benchmark_bounds(self):
        """Each entry against the typed composition; it keeps the operator
        order k (the eta-order on the superline), and its order-k part is
        the density action on the monomial's coefficient at weight
        delta - k (delta - k/2): the filtration behind ``cohomology_dim``."""
        checked = 0
        for algebra, lam, mu, bounds in DIM_COLD_BLOCKS:
            cache = BlockCache(algebra, lam, mu)
            keys = range(-2 * bounds.max_operator_order, 2 * bounds.max_coefficient_degree + 2)
            for mon in (m for k in keys for m in bounded_monomials(cache.ctx.flavor, bounds, k)):
                for gen in range(cache.ctx.dim):
                    assert_table_entry(cache, gen, mon)
                    entry, k = cache.act_monomial(gen, mon), mon[-1]
                    assert all(m[-1] <= k for m, _ in entry), (algebra, gen, mon)
                    top = {m[:-1]: Q(v, cache.den) for m, v in entry if m[-1] == k}
                    assert top == graded_piece_action(cache, gen, mon), (algebra, gen, mon)
                    checked += 1
        # generators x monomials: (order + 1)(degree + 1), times 2 for theta
        assert checked == 3 * (3 * 11 * 25 + 7 * 17) + 5 * 2 * (4 * 9 + 6 * 13)


def scalar_parity(q):
    return q.parity() if isinstance(q, ParamScalar) else 0


def perturb(rng, c, scalar=Q(1)):
    """c plus one nonzero monomial times `scalar`, of the right parity, at a
    random slot."""
    ctx = get_algebra(c.algebra)
    cache = block_cache(c.algebra, *c.block)
    slots = list(range(ctx.dim)) if isinstance(c, Cochain1) else ctx.canonical_pairs()
    slot = slots[rng.randrange(len(slots))]
    slot_parity = sum(ctx.parities[s] for s in ((slot,) if isinstance(c, Cochain1) else slot)) & 1
    d, i = rng.randrange(4), rng.randrange(4)
    if c.algebra == SL2:
        mon = (d, i)
    else:
        mon = (d, (c.parity + scalar_parity(scalar) + slot_parity + i) & 1, i)
    term = cache.monomial_op(mon).scale(rng.choice((-2, -1, 1, 3)) * scalar)
    return type(c)(c.algebra, {s: im + term if s == slot else im
                               for s, im in c.images.items()}, c.parity)


class TestIsCocycle:
    """is_cocycle reads d off the action tables; the typed d1/d2 are its oracle."""

    @pytest.mark.parametrize("algebra,parity", [(SL2, 0), (OSP12, 0), (OSP12, 1)])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("perturbed", [False, True])
    @settings(max_examples=2)
    @given(lam=st.fractions(-2, 2, max_denominator=2), shift=st.integers(0, 4),
           seed=st.integers(0, 2 ** 16))
    def test_table_path_matches_typed_differential(self, algebra, parity, degree, perturbed,
                                                   lam, shift, seed):
        """On coboundaries d0(b), d1(c) and on perturbed ones."""
        rng = random.Random(seed)
        mu = lam + Q(shift, 2)
        if degree == 1:
            c = d0(random_cochain0(rng, algebra, lam, mu, parity))
        else:
            c = d1(random_cochain1(rng, algebra, lam, mu, parity))
        if perturbed:
            c = perturb(rng, c)
        typed = d1(c).is_zero() if degree == 1 else not any(d2(c).values())
        assert is_cocycle(c) == typed
        assert typed or perturbed

    @pytest.mark.parametrize("algebra", [SL2, OSP12])
    @pytest.mark.parametrize("perturbed", [False, True])
    @settings(max_examples=4)
    @given(lam=st.fractions(-2, 2, max_denominator=2), seed=st.integers(0, 2 ** 16))
    def test_homomorphism_failure_is_the_typed_one(self, algebra, perturbed, lam, seed):
        """The density action on one weight is a homomorphism; with one of its
        operators perturbed, the first failing pair read off the tables is the
        first one the typed action finds, j before i."""
        rng = random.Random(seed)
        ctx = get_algebra(algebra)
        ops = [lie_op(x, lam) if algebra == SL2 else super_lie_op(x, lam) for x in ctx.basis]
        if perturbed:
            r = rng.randrange(ctx.dim)
            ops[r] = ops[r] + (random_diffop(rng, lam, lam) if algebra == SL2
                               else random_superop(rng, lam, lam, ctx.parities[r]))

        def typed_failure():
            for j in range(ctx.dim):
                for i in range(ctx.dim):
                    want = sum((ops[g].scale(c) for g, c in enumerate(ctx.structure[(i, j)]) if c),
                               ops[j].scale(0))
                    if ctx.act(i, ops[j]) != want:
                        return i, j
            return None

        assert homomorphism_failure(algebra, ops) == typed_failure()
        assert perturbed or typed_failure() is None

    def test_perturbed_families(self):
        rng = random.Random(3)
        closed = []
        for family in (cocycle_A(Q(5, 3)), cocycle_Phi(2), cocycle_Omega(2)):
            assert is_cocycle(family)
            for _ in range(5):
                broken = perturb(rng, family)
                typed = (d1(broken).is_zero() if isinstance(broken, Cochain1)
                         else not any(d2(broken).values()))
                assert is_cocycle(broken) == typed
                closed.append(typed)
        assert closed.count(False) >= 12, closed


PARAMS = ParamAlgebra(even=("s", "u"), odd=("beta", "gamma"))
S, U, BETA, GAMMA = (ParamScalar.symbol(PARAMS, name) for name in ("s", "u", "beta", "gamma"))
# parameter monomials of both parities, the unit among them
MONOMIALS = [Q(1), S, S * U, BETA * GAMMA, BETA, S * GAMMA]


def parametric_cochain(rng, degree, algebra, lam, mu, parity):
    """sum over three parameter monomials q of q times a random rational
    cochain of degree 0 or 1, each of the parity that makes the sum's `parity`."""
    total = None
    for q in rng.sample(MONOMIALS, 3):
        part_parity = parity ^ scalar_parity(q) if algebra == OSP12 else 0
        if degree == 0:
            value = random_cochain0(rng, algebra, lam, mu, part_parity).value.scale(q)
            total = Cochain0(algebra, value if total is None else total.value + value)
        else:
            part = random_cochain1(rng, algebra, lam, mu, part_parity).scale(q)
            total = part if total is None else total + part
    return total


class TestParametricCochains:
    """Cochains whose coefficients hold even and odd formal parameters: the
    table path splits them by parameter monomial, the typed d0/d1/d2 and the
    typed witness re-check are the oracle."""

    @settings(max_examples=40)
    @given(algebra=st.sampled_from([SL2, OSP12]), degree=st.sampled_from([1, 2]),
           parity=st.integers(0, 1), perturbed=st.booleans(),
           lam=st.fractions(-2, 2, max_denominator=2), shift=st.integers(0, 4),
           seed=st.integers(0, 2 ** 16))
    def test_matches_typed_differential(self, algebra, degree, parity, perturbed, lam, shift,
                                        seed):
        """is_cocycle agrees with the typed d on d(b) and on perturbed d(b),
        and coboundary_solve(d b) returns a parametric witness w with typed
        d(w) = d(b)."""
        rng = random.Random(seed)
        parity = parity if algebra == OSP12 else 0
        mu = lam + Q(shift, 2)
        b = parametric_cochain(rng, degree - 1, algebra, lam, mu, parity)
        c = d0(b) if degree == 1 else d1(b)
        if perturbed:
            c = perturb(rng, c, rng.choice(MONOMIALS))
        typed = d1(c).is_zero() if degree == 1 else not any(d2(c).values())
        assert is_cocycle(c) == typed
        if perturbed:
            return
        assert typed
        result = coboundary_solve(c)
        assert isinstance(result, Witness)
        w = result.cochain
        assert (d0(w) if degree == 1 else d1(w)).images == c.images

    @settings(max_examples=12)
    @given(algebra=st.sampled_from([SL2, OSP12]), odd_class=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_decomposition_recovers_parametric_class(self, algebra, odd_class, seed):
        """decompose_cocycle(t * family + d1(b)) returns t exactly, for t and b
        holding even and odd parameters."""
        rng = random.Random(seed)
        family = cocycle_Phi(2) if algebra == SL2 else cocycle_Omega(2)
        t = (BETA - S * GAMMA * Q(2, 3)) if odd_class else (S * 3 - S * U + BETA * GAMMA)
        parity = family.parity ^ scalar_parity(t) if algebra == OSP12 else 0
        b = parametric_cochain(rng, 1, algebra, *family.block, parity)
        c = family.scale(t) + d1(b)
        result = decompose_cocycle(c, family)
        assert isinstance(result, Decomposition)
        assert result.coeff == t
        assert family.scale(result.coeff) + d1(result.witness) == c

    @pytest.mark.parametrize("classes,coeffs", [
        (lambda: [cocycle_B(5, 3), cocycle_C(5, 3)], (S, 3 * U)),
        (lambda: [cocycle_Y(2), cocycle_Ytilde(2)], (BETA, 3 * U * BETA)),
    ], ids=["classical-B-C", "super-Y-Ytilde"])
    def test_two_classes_recover_parametric_coefficients(self, classes, coeffs):
        """t0 * B + t1 * C + d0(b) (and the same with Y, Ytilde and odd
        coefficients) splits back into (t0, t1) exactly in one solver call,
        with a witness whose typed coboundary closes the sum."""
        classes = classes()
        first = classes[0]
        parity = first.parity ^ scalar_parity(coeffs[0]) if first.algebra == OSP12 else 0
        b = parametric_cochain(random.Random(47), 0, first.algebra, *first.block, parity)
        c = classes[0].scale(coeffs[0]) + classes[1].scale(coeffs[1]) + d0(b)
        solved, witness = _solve_by_weight(c, default_witness_bounds(c), classes)
        assert solved == list(coeffs)
        assert classes[0].scale(solved[0]) + classes[1].scale(solved[1]) + d0(witness) == c

    @pytest.mark.parametrize("call", [
        lambda: classes_independent([cocycle_A(1).scale(S)]),
        lambda: classes_independent([cocycle_A(1), cocycle_A(1).scale(S)]),
        lambda: decompose_cocycle(cocycle_Phi(2), cocycle_Phi(2).scale(S)),
    ], ids=["classes-independent", "classes-independent-mixed", "decompose-family"])
    def test_parametric_input_refused(self, call):
        with pytest.raises(UsageError, match="parameter-free"):
            call()


class TestCoboundarySolve:
    def test_solves_genuine_coboundary(self):
        b = Cochain0(SL2, DiffOp(1, 1, [Poly(), poly([0, 1])]))
        c = d0(b)
        result = coboundary_solve(c)
        assert isinstance(result, Witness)
        # witness differs from b by an invariant (kernel of d0)
        assert d0(result.cochain).images == c.images

    def test_diagonal_family_nontrivial(self):
        result = coboundary_solve(cocycle_A(1))
        assert isinstance(result, NoSolutionWithinBounds)
        result2 = coboundary_solve(cocycle_A(1), result.bounds.bumped())
        assert isinstance(result2, NoSolutionWithinBounds)

    def test_degree2_family_nontrivial(self):
        result = coboundary_solve(cocycle_Phi(2))
        assert isinstance(result, NoSolutionWithinBounds)

    def test_zero_cochain(self):
        zero = Cochain1(SL2, [DiffOp.zero(1, 1)] * 3)
        result = coboundary_solve(zero)
        assert isinstance(result, Witness)
        assert result.cochain.is_zero()

    def test_rejects_non_cocycle(self):
        c = Cochain1(SL2, [DiffOp.identity(0), DiffOp.zero(0, 0), DiffOp.zero(0, 0)])
        with pytest.raises(UsageError):
            coboundary_solve(c)

    def test_super_coboundary_round_trip(self):
        rng = random.Random(29)
        for parity in (0, 1):
            b = random_cochain0(rng, OSP12, Q(0), Q(1, 2), parity)
            c = d0(b)
            if c.is_zero():
                continue
            result = coboundary_solve(c)
            assert isinstance(result, Witness)

    def test_independence_of_fresh_cocycles(self):
        assert classes_independent([cocycle_B(3, 2), cocycle_C(3, 2)])

    def test_dependent_cocycles_detected(self):
        a = cocycle_A(2)
        assert not classes_independent([a, a.scale(3)])

    def test_dependent_modulo_coboundaries(self):
        """2A + d0(b) is 2A in cohomology, though not a multiple of A."""
        a = cocycle_A(1)
        b = Cochain0(SL2, block_cache(SL2, 1, 1).monomial_op((1, 1)))
        shifted = a.scale(2) + d0(b)
        assert not d0(b).is_zero() and cochain_weight_keys(shifted) == [0]
        assert not classes_independent([a, shifted])

    def test_independent_over_two_weight_keys(self):
        """B and C + d0(x) on one resonant block: the system stacks keys -4
        and 2, and the classes stay independent."""
        c = cocycle_C(3, 2)
        b = Cochain0(SL2, block_cache(SL2, *c.block).monomial_op((1, 0)))
        shifted = c + d0(b)
        assert cochain_weight_keys(shifted) == [-4, 2]
        assert classes_independent([cocycle_B(3, 2), shifted])
        assert not classes_independent([cocycle_B(3, 2), d0(b)])

    def test_no_cocycles_are_independent(self):
        assert classes_independent([])

    @pytest.mark.parametrize("call,reason", [
        (lambda: classes_independent([Cochain1(SL2, [DiffOp.identity(0), DiffOp.zero(0, 0),
                                                     DiffOp.zero(0, 0)])]),
         "expects cocycles"),
        (lambda: classes_independent([cocycle_A(1), cocycle_A(2)]), "share a block and parity"),
        (lambda: classes_independent([
            cocycle_Yprime(0),
            d0(Cochain0(OSP12, block_cache(OSP12, 0, 0).monomial_op((0, 1, 0))))]),
         "share a block and parity"),
        (lambda: classes_independent([cocycle_A(Q(1, 2)), cocycle_Yprime(Q(1, 2))]),
         "algebra and degree"),
        (lambda: classes_independent([cocycle_B(3, 2), cocycle_Phi(2)]), "algebra and degree"),
        (lambda: decompose_cocycle(cocycle_Phi(2), cocycle_B(3, 2)), "algebra and degree"),
    ], ids=["non-cocycle", "different-blocks", "different-parities", "different-algebras",
            "different-degrees", "decompose-different-degrees"])
    def test_refused_inputs(self, call, reason):
        """Only cocycles of one algebra, degree, block and parity are
        compared; a family of another degree is refused, not read as
        inconclusive."""
        with pytest.raises(UsageError, match=reason):
            call()


# The catalog families on every block of acceptance criterion 3: the diagonal
# blocks (A, Yprime), the classical resonant blocks in degrees 1 and 2 (B, C,
# Phi) and the super resonant blocks (Y, Ytilde).
CRITERION_3_FAMILIES = (
    [f"{family}:lambda={lam}" for family in ("A", "Yprime") for lam in ("0", "5/3")]
    + [f"{family}:m={m},k={k}" for m in (2, 3, 4) for k in range((m + 1) // 2, m)
       for family in "BC"]
    + [f"Phi:k={k}" for k in (1, 2, 3)]
    + [f"{family}:k={k}" for k in (1, 2, 3) for family in ("Y", "Ytilde")]
)


class TestWitnessBounds:
    """Witness solves are exact once the bounds reach the threshold order N0
    (README, "What a dimension verdict rests on"): N0 = max(0, delta) on sl2
    and max(0, 2 delta) on osp12.  The default witness order is at least
    4 + ceil|2 delta| >= N0, so no run-time check is needed."""

    def test_families_cover_every_criterion_3_block(self):
        blocks = {(c.algebra, c.block) for c in map(build_cocycle, CRITERION_3_FAMILIES)}
        for lam in (Q(0), Q(5, 3)):
            assert {(SL2, (lam, lam)), (OSP12, (lam, lam))} <= blocks
        for m in (2, 3, 4):
            for k in range((m + 1) // 2, m):
                assert (SL2, (Q(m - 2 * k, 2), Q(2 + 2 * k - m, 2))) in blocks
        for k in (1, 2, 3):
            assert (OSP12, (Q(1 - k, 2), Q(k, 2))) in blocks

    @pytest.mark.parametrize("text", sorted(set(_CALIBRATION_SAMPLES) | set(CRITERION_3_FAMILIES)))
    def test_default_bounds_reach_the_threshold_order(self, text):
        c = build_cocycle(text)
        lam, mu = c.block
        n0 = max(0, (mu - lam) * (1 if c.algebra == SL2 else 2))
        for cochain in (c, c.scale(0)):  # the zero cochain gets the smallest default order
            bounds = default_witness_bounds(cochain)
            assert bounds.max_operator_order >= n0 and bounds.max_coefficient_degree >= 1


class TestDecomposition:
    def test_family_weight_keys(self):
        for k in range(1, 5):
            assert cochain_weight_keys(cocycle_Phi(k)) == [-2 * k]
            assert cochain_weight_keys(cocycle_Omega(k)) == [1 - 2 * k]

    def test_recovers_class_coefficient_and_witness(self):
        rng = random.Random(31)
        for family in (cocycle_Phi(2), cocycle_Omega(2)):
            lam, mu = family.block
            b = random_cochain1(rng, family.algebra, lam, mu, family.parity)
            assert len(cochain_weight_keys(d1(b))) > 1  # the witness spans several keys
            c = family.scale(3) + d1(b)
            result = decompose_cocycle(c, family)
            assert isinstance(result, Decomposition)
            assert result.coeff == 3
            assert family.scale(result.coeff) + d1(result.witness) == c

    def test_pure_coboundary_has_zero_class(self):
        rng = random.Random(37)
        family = cocycle_Phi(2)
        b = random_cochain1(rng, SL2, *family.block)
        result = decompose_cocycle(d1(b), family)
        assert isinstance(result, Decomposition)
        assert result.coeff == 0 and d1(result.witness) == d1(b)

    def test_family_that_is_a_coboundary_has_no_solution(self):
        rng = random.Random(41)
        lam, mu = cocycle_Phi(2).block
        b = random_cochain1(rng, SL2, lam, mu)
        # d1 keeps weight keys, so d1 of one slice of b is one slice of d1(b)
        key = cochain_weight_keys(d1(b))[0]
        family = d1(weight_slices(b)[key])
        assert not family.is_zero() and cochain_weight_keys(family) == [key]
        result = decompose_cocycle(family.scale(2), family)
        assert isinstance(result, NoSolutionWithinBounds)

    def test_coboundary_family_away_from_the_cochain_keys_has_no_solution(self):
        """The family d0(theta) (key 1, odd) is a coboundary, so every t
        would do; c = b1 * d0(x) has nothing at the family's key, yet the
        family is still checked there."""
        cache = block_cache(OSP12, Q(0), Q(1))
        family = d0(Cochain0(OSP12, cache.monomial_op((0, 1, 0))))
        b1 = ParamScalar.symbol(ParamAlgebra(even=(), odd=("b1",)), "b1")
        c = d0(Cochain0(OSP12, cache.monomial_op((1, 0, 0)))).scale(b1)
        assert cochain_weight_keys(family) == [1] and cochain_weight_keys(c) == [2]
        result = decompose_cocycle(c, family, BoundsSpec(4, 8))
        assert isinstance(result, NoSolutionWithinBounds)

    def test_family_spanning_two_keys(self):
        """Phi = family - d1(slice) for a family on two weight keys."""
        rng = random.Random(43)
        phi = cocycle_Phi(2)
        b = random_cochain1(rng, SL2, *phi.block)
        other = next(k for k in cochain_weight_keys(d1(b)) if k != -4)
        family = phi + d1(weight_slices(b)[other])
        assert cochain_weight_keys(family) == sorted([-4, other])
        result = decompose_cocycle(phi, family)
        assert isinstance(result, Decomposition) and result.coeff == 1
        assert family.scale(result.coeff) + d1(result.witness) == phi


def threshold_cases():
    """(algebra, lam, mu, degree) for delta in -2..4 on sl(2) and -1..3 on
    osp(1|2), in degrees 1 and 2, at lambda = 1/3 and at the lambda of the
    resonant blocks: (1 - delta)/2, or 1/4 - delta/2 on osp(1|2), resonant
    there when delta + 1/2 is an integer."""
    out = []
    for algebra, deltas in ((SL2, range(-2, 5)), (OSP12, (Q(n, 2) for n in range(-2, 7)))):
        for delta in deltas:
            resonant = Q(1, 2) - Q(delta, 2) if algebra == SL2 else Q(1, 4) - delta / 2
            out.extend((algebra, lam, lam + delta, q) for lam in (resonant, Q(1, 3)) for q in (1, 2))
    return out


THRESHOLD_CASES = threshold_cases()


class TestCohomologyDim:
    def test_diagonal_blocks_dimension_one(self):
        for lam in (Q(5, 3), Q(0), Q(1, 2)):
            r = cohomology_dim((lam, lam), 1, SL2)
            assert (r.dim, r.stabilized) == (1, True), lam

    def test_resonant_block_dimension_two(self):
        r = cohomology_dim((Q(-1, 2), Q(3, 2)), 1, SL2)
        assert (r.dim, r.stabilized) == (2, True)

    def test_resonant_block_degree2_dimension_one(self):
        r = cohomology_dim((Q(-1, 2), Q(3, 2)), 2, SL2)
        assert (r.dim, r.stabilized) == (1, True)

    def test_super_resonant_dimension_two(self):
        r = cohomology_dim((Q(0), Q(1, 2)), 1, OSP12)
        assert (r.dim, r.stabilized) == (2, True)

    def test_super_diagonal_dimension_one(self):
        r = cohomology_dim((Q(5, 3), Q(5, 3)), 1, OSP12)
        assert (r.dim, r.stabilized) == (1, True)

    def test_off_resonance_vanishes(self):
        r = cohomology_dim((Q(0), Q(5, 3)), 1, SL2)
        assert (r.dim, r.stabilized) == (0, True)

    def test_bounds_missing_a_threshold_monomial_are_not_stabilized(self):
        """delta = 0, so the threshold slice has order 0, but cap 0 leaves
        out x at slot (1, 2)."""
        assert not cohomology_dim((Q(-3), Q(-3)), 2, SL2, BoundsSpec(5, 0)).stabilized

    @pytest.mark.parametrize("call", [
        lambda: BoundsSpec(2.5, 4),
        lambda: BoundsSpec(True, 4),
        lambda: BoundsSpec(4, Q(8)),
        lambda: BoundsSpec(-1, 4),
        lambda: BoundsSpec(4, -1),
        lambda: cohomology_dim((Q(0), Q(0)), True, SL2),
        lambda: cohomology_dim((Q(0), Q(0)), 1.0, SL2),
        lambda: cohomology_dim((Q(0), Q(0)), 3, SL2),
    ], ids=["float-order", "bool-order", "fraction-degree", "negative-order",
            "negative-degree", "bool-q", "float-q", "q-3"])
    def test_inexact_or_negative_bounds_and_degrees_are_refused(self, call):
        with pytest.raises(UsageError):
            call()

    @pytest.mark.parametrize("algebra,lam,mu,degree", THRESHOLD_CASES,
                             ids=[f"{c[0]}-{c[1]}-{c[2]}-d{c[3]}" for c in THRESHOLD_CASES])
    def test_threshold_against_full_slice(self, algebra, lam, mu, degree):
        """The dimension equals ``_critical_dimension`` at bounds well past
        the threshold order n0 = delta (2 delta on osp(1|2)).  Bounds are
        stabilized exactly when they reach order n0 and coefficient degree
        1, and always when delta < 0, where the dimension is 0."""
        key = critical_weight_key(lam, mu)
        n0 = -key // 2 if algebra == SL2 else -key
        full = _critical_dimension(block_cache(algebra, lam, mu), degree,
                                   BoundsSpec(max(0, n0) + 4, 2 * max(0, n0) + 12), key)
        want = DimResult(full, True, {key: full} if full else {}, (key,))
        assert cohomology_dim((lam, mu), degree, algebra) == want
        if n0 < 0:
            assert full == 0
            assert cohomology_dim((lam, mu), degree, algebra, BoundsSpec(0, 0)) == want
            return
        assert cohomology_dim((lam, mu), degree, algebra, BoundsSpec(n0, 1)) == want
        shorts = [(n0, 0)] + [(n0 - 1, 2 * n0 + 12)] * (n0 > 0)
        for short in shorts:
            assert not cohomology_dim((lam, mu), degree, algebra, BoundsSpec(*short)).stabilized

    @pytest.mark.parametrize("algebra", [SL2, OSP12])
    def test_threshold_slice_reaches_order_n0_and_coefficient_degree_1(self, algebra):
        """Why coverage is two comparisons: for delta >= 0 the slice at w*
        of order at most n0 has coefficient degrees at most 1, in degree q
        and in the witness degree q - 1, and in degree q it has a monomial
        of order n0 and one of coefficient degree 1."""
        ctx = get_algebra(algebra)
        for n0 in range(8):
            key = -2 * n0 if algebra == SL2 else -n0
            for q in (1, 2):
                witnesses, cocycles = (
                    [item[1] for item in oracle_slices(
                        ctx, deg, BoundsSpec(n0, 2 * n0 + 12), ctx.key_parity(key)).get(key, [])]
                    for deg in (q - 1, q))
                assert max(mon[0] for mon in witnesses) <= 1, (n0, q)
                assert max(mon[0] for mon in cocycles) == 1, (n0, q)
                assert max(mon[-1] for mon in cocycles) == n0, (n0, q)

    @pytest.mark.parametrize("weights", [(Q(0), Q(1, 3)), (Q(0), Q(1))])
    def test_unknown_algebra_is_refused(self, weights):
        """Also where 2(mu - lambda) is not an integer and nothing is ranked."""
        with pytest.raises(UsageError, match="unknown algebra"):
            cohomology_dim(weights, 1, "gl2")


def oracle_slices(ctx, degree, bounds, parity):
    """{weight key: basis items} of the bounded slices of C^degree of one
    parity, written out from the definitions: slots are None, basis indices
    or canonical pairs; a monomial x^d d_x^i has key 2(d - i), x^d theta^eps
    eta^i key 2d + eps - i and parity eps + i; an item's key is its
    monomial's less its slot's weight."""
    if degree == 0:
        slots = [(None, 0, 0)]
    elif degree == 1:
        slots = [(i, ctx.weights2[i], ctx.parities[i]) for i in range(ctx.dim)]
    else:
        slots = [((i, j), ctx.weights2[i] + ctx.weights2[j], ctx.parities[i] ^ ctx.parities[j])
                 for i, j in ctx.canonical_pairs()]
    out = {}
    for slot, weight, slot_parity in slots:
        for i in range(bounds.max_operator_order + 1):
            for d in range(bounds.max_coefficient_degree + 1):
                if ctx.name == SL2:
                    shapes = [((d, i), 2 * (d - i), 0)]
                else:
                    shapes = [((d, eps, i), 2 * d + eps - i, (eps + i) & 1) for eps in (0, 1)]
                for mon, key, mon_parity in shapes:
                    if mon_parity ^ slot_parity == parity:
                        out.setdefault(key - weight, []).append((slot, mon))
    return out


class TestSliceEnumeration:
    """The bounded slice at each weight key against ``oracle_slices``: it is
    the oracle slice of the parity that ``key_parity`` gives the key, in
    order, and the other parity has nothing at that key."""

    @pytest.mark.parametrize("algebra", [SL2, OSP12])
    @pytest.mark.parametrize("bounds", [BoundsSpec(0, 0), BoundsSpec(3, 4), BoundsSpec(5, 12)],
                             ids=["0,0", "3,4", "5,12"])
    def test_matches_oracle(self, algebra, bounds):
        cache = block_cache(algebra, Q(0), Q(1, 2))  # slices do not depend on the block
        ctx = cache.ctx
        for degree in (0, 1, 2):
            oracle = [oracle_slices(ctx, degree, bounds, p) for p in (0, 1)]
            keys = set(oracle[0]) | set(oracle[1])
            checked = 0
            for key in range(min(keys) - 2, max(keys) + 3):
                p = ctx.key_parity(key)
                basis = _enumerate_cochain_basis(cache, degree, bounds, key)
                assert basis == oracle[p].get(key, []), (algebra, degree, key)
                assert key not in oracle[1 - p], (algebra, degree, key)
                checked += len(basis)
            # every oracle item, of either parity, was met at its key
            assert checked == sum(len(items) for o in oracle for items in o.values()) > 0


def dense_rank(cols, keep=lambda row_key: True):
    """Rank of the coordinate columns on the row keys kept, by the dense
    Gauss-Jordan oracle of the kernel tests."""
    keys = sorted({k for col in cols for k in col if keep(k)})
    return DenseReference([[col.get(k, 0) for k in keys] for col in cols], len(keys)).rank


def oracle_dimensions(cache, degree, bounds, typed):
    """({key: dim}, {key: kernel dim}) of the truncated H^degree at bounds:
    per weight key, the kernel of the typed d on the bounded slice, less the
    part of that slice hit by d of the witnesses within bounds.bumped(),
    summed over parities.  `typed` memoizes the typed columns."""
    ctx = cache.ctx

    def column(deg, item, parity):
        if (deg, item, parity) not in typed:
            typed[(deg, item, parity)] = typed_column(cache, deg, item, parity)
        return typed[(deg, item, parity)]

    dims, kernels = {}, {}
    for parity in ((0,) if ctx.name == SL2 else (0, 1)):
        witnesses = oracle_slices(ctx, degree - 1, bounds.bumped(), parity)
        for key, basis in oracle_slices(ctx, degree, bounds, parity).items():
            ker = len(basis) - dense_rank([column(degree, item, parity) for item in basis])
            wcols = [column(degree - 1, item, parity) for item in witnesses.get(key, [])]
            inside = set(basis)
            image = dense_rank(wcols) - dense_rank(wcols, lambda k: k not in inside)
            assert 0 <= image <= ker, (ctx.name, key)
            kernels[key] = kernels.get(key, 0) + ker
            if ker - image:
                dims[key] = dims.get(key, 0) + ker - image
    return dims, kernels


# (algebra, lam, mu, degree, bounds): in the first five the dimension
# changes between the bounds and the bumped bounds; in the last three it is
# 0 at both, once because 2(mu - lambda) is not an integer, once although
# the critical key carries a kernel (all of it coboundaries), and once
# because the critical key is odd, where sl(2) has no cochain
SWEEP_CASES = [
    (SL2, Q(1, 2), Q(1, 2), 1, BoundsSpec(2, 4)),
    (OSP12, Q(0), Q(1, 2), 1, BoundsSpec(1, 2)),
    (SL2, Q(-1, 2), Q(3, 2), 1, BoundsSpec(1, 2)),
    (SL2, Q(-1), Q(2), 2, BoundsSpec(1, 2)),
    (OSP12, Q(-1, 2), Q(1), 2, BoundsSpec(0, 0)),
    (SL2, Q(1, 3), Q(2, 3), 1, BoundsSpec(2, 4)),
    (SL2, Q(1, 3), Q(4, 3), 1, BoundsSpec(2, 4)),
    (SL2, Q(0), Q(1, 2), 1, BoundsSpec(2, 4)),
]


class TestDimensionSweep:
    """cohomology_dim at the bounds and at the bumped bounds against a
    recomputation with typed columns and dense elimination over every weight
    key, which must find nothing off the critical key."""

    @pytest.mark.parametrize("algebra,lam,mu,degree,bounds", SWEEP_CASES,
                             ids=[f"{c[0]}-{c[1]}-{c[2]}-d{c[3]}" for c in SWEEP_CASES])
    def test_matches_oracle_at_both_bounds(self, algebra, lam, mu, degree, bounds):
        cache, typed = BlockCache(algebra, lam, mu), {}
        first, first_kernels = oracle_dimensions(cache, degree, bounds, typed)
        second, second_kernels = oracle_dimensions(cache, degree, bounds.bumped(), typed)
        critical = critical_weight_key(lam, mu)
        assert set(first) | set(second) <= {critical}
        result = cohomology_dim((lam, mu), degree, algebra, bounds)
        assert result.per_weight == first
        assert cohomology_dim((lam, mu), degree, algebra, bounds.bumped()).per_weight == second
        # a key is examined only where the algebra has cochains: not an odd
        # one in sl(2)
        has_cochains = critical is not None and (algebra == OSP12 or critical % 2 == 0)
        # stabilized: the bounds hold the oracle slice at w* of order at
        # most the threshold n0 = delta (2 delta on osp(1|2))
        if has_cochains:
            n0 = int((mu - lam) * (2 if algebra == OSP12 else 1))
            p = cache.ctx.key_parity(critical)
            threshold, within = (oracle_slices(cache.ctx, degree, b, p).get(critical, [])
                                 for b in (BoundsSpec(n0, 2 * n0 + 12), bounds))
            assert result.stabilized == (set(threshold) <= set(within))
        else:
            assert result.stabilized
        assert result.examined_keys == ((critical,) if has_cochains else ())
        if not first and not second:
            # no cochain at a critical key, or a kernel that the image fills
            assert not has_cochains or first_kernels.get(critical, 0) > 0
        if degree == 2:
            assert first != second
            # a key whose kernel is 0 at the bounds but not at the bumped
            # bounds
            assert any(not first_kernels.get(key) and second_kernels[key] > 0
                       and key in first_kernels for key in second_kernels)


def contract_h(ctx, coords):
    """Coordinates of i_h c, (i_h c)(X, ...) = c(h, X, ...), for c of degree
    1, 2 or 3 given on coordinates {(slot, monomial): value} over canonical
    slots.  h is even, so moving it to the front past n arguments gives
    (-1)^n, and a slot holding it twice is an even diagonal (absent)."""
    h = ctx.euler_index
    out = {}
    for (slot, mon), value in coords.items():
        args = slot if isinstance(slot, tuple) else (slot,)
        if h not in args:
            continue
        pos = args.index(h)
        rest = args[:pos] + args[pos + 1:]
        key = (None if not rest else rest[0] if len(rest) == 1 else rest, mon)
        out[key] = out.get(key, 0) + (-1) ** pos * value
    return {k: v for k, v in out.items() if v}


def typed_cochain(cache, degree, coords, parity):
    """The typed cochain of degree 1 or 2 with these coordinates."""
    ctx = cache.ctx
    zero = cache.monomial_op(next(iter(coords))[1]).scale(0)
    slots = range(ctx.dim) if degree == 1 else ctx.canonical_pairs()
    images = {slot: zero for slot in slots}
    for (slot, mon), value in coords.items():
        images[slot] = images[slot] + cache.monomial_op(mon).scale(value)
    return Cochain1(ctx.name, images, parity) if degree == 1 else Cochain2(ctx.name, images,
                                                                         parity)


class TestEulerContraction:
    """Cartan's formula on the table path: d(i_h c) + i_h(d c) is the h-scalar
    (w - w*)/2 of the weight key w times c, which is what lets
    ``cohomology_dim`` rank the critical key w* only.  The table columns
    are checked against the typed d0/d1/d2 on the same cochains."""

    @staticmethod
    def cartan(cache, degree, coords, parity):
        """(d(i_h c) + i_h(d c), d c, d(i_h c)) on coordinates, from the
        integer tables with their scales divided out."""
        ctx = cache.ctx
        up, down = _ce_table(ctx.name, degree, parity), _ce_table(ctx.name, degree - 1, parity)
        dc = {k: Q(v, cache.den * up[0])
              for k, v in _differential(cache, up, coords.items()).items()}
        dic = {k: Q(v, cache.den * down[0])
               for k, v in _differential(cache, down, contract_h(ctx, coords).items()).items()}
        total = dict(dic)
        for k, v in contract_h(ctx, dc).items():
            total[k] = total.get(k, 0) + v
        return {k: v for k, v in total.items() if v}, dc, dic

    @settings(max_examples=60)
    @given(algebra=st.sampled_from([SL2, OSP12]), parity=st.integers(0, 1),
           degree=st.sampled_from([1, 2]), lam=st.fractions(-2, 2, max_denominator=3),
           gap=st.fractions(-3, 3, max_denominator=4), half_key=st.integers(-3, 3),
           seed=st.integers(0, 2 ** 16))
    def test_contraction_scales_off_the_critical_key(self, algebra, parity, degree, lam, gap,
                                                     half_key, seed):
        parity = parity if algebra == OSP12 else 0
        mu = lam + gap
        key = 2 * half_key + parity  # the key of an osp(1|2) cochain has its parity
        if key == critical_weight_key(lam, mu):
            key += 2
        cache = block_cache(algebra, lam, mu)
        rng = random.Random(seed)
        basis = _enumerate_cochain_basis(cache, degree, BoundsSpec(3, 4), key)
        coords = {item: Q(rng.randrange(-3, 4), rng.randrange(1, 3))
                  for item in rng.sample(basis, min(len(basis), 6))}
        coords = {k: v for k, v in coords.items() if v} or {basis[0]: Q(1)}
        total, dc, dic = self.cartan(cache, degree, coords, parity)
        scalar = Q(key, 2) + mu - lam
        assert scalar and total == {k: scalar * v for k, v in coords.items()}
        # the typed oracle of both table differentials
        c = typed_cochain(cache, degree, coords, parity)
        h = cache.ctx.euler_index
        if degree == 1:
            assert coords_of(d1(c).images.items()) == dc
            assert coords_of(d0(Cochain0(algebra, c.images[h], parity)).images.items()) == dic
        else:
            assert coords_of(d2(c).items()) == dc
            ic = Cochain1(algebra, [c.at(h, x) for x in range(cache.ctx.dim)], parity)
            assert coords_of(d1(ic).images.items()) == dic

    @pytest.mark.parametrize("algebra,lam,mu", [(SL2, Q(1, 2), Q(1, 2)), (SL2, Q(-1), Q(2)),
                                                (OSP12, Q(0), Q(1, 2)), (OSP12, Q(-1), Q(3, 2))])
    def test_scalar_vanishes_at_the_critical_key(self, algebra, lam, mu):
        """At w* the two terms cancel on every basis cochain of both degrees:
        the Euler element gives no witness there."""
        cache, key = block_cache(algebra, lam, mu), critical_weight_key(lam, mu)
        assert Q(key, 2) + mu - lam == 0
        checked = 0
        parity = key & 1 if algebra == OSP12 else 0  # the key fixes the parity
        for degree in (1, 2):
            bounds = BoundsSpec(abs(key) + 3, abs(key) + 6)
            for item in _enumerate_cochain_basis(cache, degree, bounds, key):
                assert self.cartan(cache, degree, {item: Q(1)}, parity)[0] == {}
                checked += 1
        assert checked > 20
