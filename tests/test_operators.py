"""Operator algebra suite: normal forms, Lie-derivative actions, symbols."""

import json
import operator
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdef import operators
from symdef.catalog import cocycle_A, cocycle_Yprime
from symdef.geometry import (
    CLASSICAL,
    SUPER,
    Density,
    Poly,
    SuperPoly,
    contact_bracket,
    osp_basis,
    sl2_basis,
    vf_bracket,
)
from symdef.kernel import _ONE_MON, ParamAlgebra, ParamScalar, UsageError, product_terms
from symdef.operators import (
    DiffOp,
    GradedOp,
    SuperDiffOp,
    apply,
    compose,
    lie_derivative_op,
    lie_op,
    param_terms,
    principal_symbol,
    super_lie_derivative_op,
    super_lie_op,
    supercommutator,
    undeformed_action,
)

SP_ONE = SuperPoly.const(1)
# x^j and x^j theta
X_THETA_PROBES = [SuperPoly.x_power(j, theta=t) for j in range(4) for t in (False, True)]


def poly(cs):
    return Poly([Q(c) for c in cs])


def spoly(f0, f1):
    return SuperPoly(poly(f0), poly(f1))


def eta_op(lam, mu):
    return SuperDiffOp(lam, mu, [SuperPoly(), SP_ONE])


class TestApply:
    def test_x_ddx_on_cubic(self):
        a = DiffOp(Q(1, 3), Q(7), [Poly(), poly([0, 1])])
        d = Density(Q(1, 3), poly([0, 0, 0, 1]), CLASSICAL)
        out = apply(a, d)
        assert out.weight == Q(7)
        assert out.value == poly([0, 0, 0, 3])

    def test_identity(self):
        a = DiffOp.identity(Q(5, 3))
        d = Density(Q(5, 3), poly([1, 2, 3]), CLASSICAL)
        assert apply(a, d).value == d.value

    def test_eta_on_theta_density(self):
        a = eta_op(Q(0), Q(1, 2))
        d = Density(0, spoly([], [1]), SUPER)
        out = apply(a, d)
        assert out.weight == Q(1, 2) and out.value == spoly([1], [])

    def test_weight_mismatch(self):
        a = DiffOp.identity(1)
        with pytest.raises(UsageError):
            apply(a, Density(2, poly([1]), CLASSICAL))


class TestCompose:
    def test_ddx_after_mult_x(self):
        dx = DiffOp.partial(1, 0, 0)
        mx = DiffOp.multiplication(poly([0, 1]), 0, 0)
        assert compose(dx, mx) == DiffOp(0, 0, [poly([1]), poly([0, 1])])

    def test_eta_squared(self):
        sq = compose(eta_op(0, 0), eta_op(0, 0))
        assert sq == SuperDiffOp(0, 0, [SuperPoly(), SuperPoly(), SP_ONE])
        # eta^2 acts as exactly -d_x
        for f in X_THETA_PROBES:
            assert sq.apply_to(f) == -f.derivative_x()

    def test_compose_with_zero(self):
        a = DiffOp.partial(2, 1, 2)
        z = DiffOp.zero(0, 1)
        assert not compose(a, z)

    def test_apply_respects_composition_classical(self):
        rng = random.Random(23)
        for _ in range(30):
            lam, nu, mu = Q(1, 2), Q(0), Q(-2, 3)
            a = DiffOp(nu, mu, [poly([rng.randrange(-2, 3) for _ in range(3)]) for _ in range(3)])
            b = DiffOp(lam, nu, [poly([rng.randrange(-2, 3) for _ in range(3)]) for _ in range(3)])
            f = Density(lam, poly([rng.randrange(-2, 3) for _ in range(5)]), CLASSICAL)
            assert apply(compose(a, b), f) == apply(a, apply(b, f))

    def test_apply_respects_composition_super(self):
        rng = random.Random(29)
        for _ in range(25):
            lam, nu, mu = Q(0), Q(1, 2), Q(5, 3)

            def rand_op(l, m):
                return SuperDiffOp(
                    l,
                    m,
                    [
                        spoly(
                            [rng.randrange(-2, 3) for _ in range(2)],
                            [rng.randrange(-2, 3) for _ in range(2)],
                        )
                        for _ in range(3)
                    ],
                )

            a, b = rand_op(nu, mu), rand_op(lam, nu)
            f = Density(lam, spoly([rng.randrange(-2, 3) for _ in range(3)], [rng.randrange(-2, 3)]), SUPER)
            assert apply(compose(a, b), f) == apply(a, apply(b, f))

    def test_composition_associativity(self):
        rng = random.Random(31)
        for _ in range(15):
            ops = [
                SuperDiffOp(
                    0,
                    0,
                    [
                        spoly([rng.randrange(-2, 3)], [rng.randrange(-2, 3)])
                        for _ in range(rng.randrange(1, 4))
                    ],
                )
                for _ in range(3)
            ]
            a, b, c = ops
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @pytest.mark.parametrize("combine", [operator.add, operator.sub, compose],
                             ids=["add", "sub", "compose"])
    def test_flavors_do_not_mix(self, combine):
        classical, odd = DiffOp.identity(0), SuperDiffOp.identity(0)
        for a, b in ((classical, odd), (odd, classical)):
            with pytest.raises(UsageError):
                combine(a, b)
            assert a != b


class TestSupercommutator:
    def test_ddx_with_mult_x(self):
        dx = DiffOp.partial(1, 0, 0)
        mx = DiffOp.multiplication(poly([0, 1]), 0, 0)
        assert supercommutator(dx, mx) == DiffOp(0, 0, [poly([1])])

    def test_eta_with_eta(self):
        out = supercommutator(eta_op(0, 0), eta_op(0, 0))
        # anticommutator: 2 eta^2 = -2 d_x
        for f in X_THETA_PROBES:
            assert out.apply_to(f) == f.derivative_x().scale(-2)

    def test_even_self_commutator_vanishes(self):
        a = SuperDiffOp(0, 0, [spoly([1, 2], []), SuperPoly(), spoly([0, 3], [])])
        assert not supercommutator(a, a)


class TestLieDerivative:
    def test_ddx_on_x_ddx(self):
        out = lie_derivative_op(sl2_basis()[0], DiffOp(0, 0, [Poly(), poly([0, 1])]))
        assert out == DiffOp(0, 0, [Poly(), poly([1])])

    def test_euler_on_ddx_block(self):
        lam, mu = Q(-1, 2), Q(3, 2)
        out = lie_derivative_op(sl2_basis()[1], DiffOp.partial(1, lam, mu))
        assert out == DiffOp.partial(1, lam, mu).scale(mu - lam - 1)

    def test_invariant_identity(self):
        for x in sl2_basis():
            assert not lie_derivative_op(x, DiffOp.identity(Q(5, 3)))

    def test_module_property_classical(self):
        # [L_X, L_Y](A) = L_[X,Y](A) over monomial operators
        basis = sl2_basis()
        for lam, mu in [(Q(0), Q(0)), (Q(1, 2), Q(-1, 2)), (Q(5, 3), Q(2))]:
            for x in basis:
                for y in basis:
                    for n in range(0, 5, 2):
                        for i in range(0, 5, 2):
                            a = DiffOp.partial(i, lam, mu, Poly.x_power(n))
                            lhs = lie_derivative_op(x, lie_derivative_op(y, a)) - lie_derivative_op(
                                y, lie_derivative_op(x, a)
                            )
                            rhs = lie_derivative_op(vf_bracket(x, y), a)
                            assert lhs == rhs

    def test_super_action_of_x1_on_eta(self):
        assert not super_lie_derivative_op(osp_basis()[0], eta_op(Q(1, 2), Q(1, 2)))

    def test_super_action_on_multiplication(self):
        # even generator, order-0 even operator, lam = mu: result is mult(F h')
        lam = Q(2, 5)
        h = poly([1, 0, 3])
        for idx in (0, 2, 4):
            xf = osp_basis()[idx]
            a = SuperDiffOp.multiplication(SuperPoly(h, Poly()), lam, lam)
            out = super_lie_derivative_op(xf, a)
            expected = SuperDiffOp.multiplication(xf.generator * SuperPoly(h.derivative(), Poly()), lam, lam)
            assert out == expected

    def test_super_action_zero(self):
        assert not super_lie_derivative_op(osp_basis()[1], SuperDiffOp.zero(0, Q(1, 2)))

    def test_module_property_super(self):
        basis = osp_basis()
        for lam, mu in [(Q(0), Q(0)), (Q(1, 2), Q(0)), (Q(-1, 2), Q(5, 3))]:
            samples = [
                SuperDiffOp.eta_power_term(spoly([0, 0, 1], []), i, lam, mu) for i in range(5)
            ] + [
                SuperDiffOp.eta_power_term(spoly([], [0, 1, 1]), i, lam, mu) for i in range(5)
            ]
            for xi, x in enumerate(basis):
                for yi, y in enumerate(basis):
                    sign = -1 if (x.parity and y.parity) else 1
                    for a in samples:
                        lhs = super_lie_derivative_op(x, super_lie_derivative_op(y, a)) - (
                            super_lie_derivative_op(y, super_lie_derivative_op(x, a)).scale(sign)
                        )
                        rhs = super_lie_derivative_op(contact_bracket(x, y), a)
                        assert lhs == rhs, (xi, yi, a)


class TestPrincipalSymbol:
    def test_weight_and_value(self):
        lam, mu = Q(1, 3), Q(3)
        a = DiffOp(lam, mu, [Poly(), Poly(), poly([0, 1])])
        sym = principal_symbol(a)
        assert sym.weight == mu - lam - 2
        assert sym.value == poly([0, 1])

    def test_identity_symbol(self):
        sym = principal_symbol(DiffOp.identity(Q(1, 2)))
        assert sym.weight == 0 and sym.value == poly([1])

    def test_lower_order_terms_ignored(self):
        a = DiffOp(0, 0, [poly([0, 0, 1]), poly([3])])
        sym = principal_symbol(a)
        assert sym.weight == -1 and sym.value == poly([3])

    def test_zero_rejected(self):
        with pytest.raises(UsageError):
            principal_symbol(DiffOp.zero(0, 0))

    def test_multiplicative_over_composition(self):
        rng = random.Random(37)
        for _ in range(20):
            lam, nu, mu = Q(1, 2), Q(-1, 3), Q(2)
            k, l = rng.randrange(3), rng.randrange(3)
            a = DiffOp.partial(k, nu, mu, poly([rng.randrange(1, 4), 1]))
            b = DiffOp.partial(l, lam, nu, poly([rng.randrange(1, 4)]))
            sa, sb, sab = principal_symbol(a), principal_symbol(b), principal_symbol(compose(a, b))
            assert sab.weight == sa.weight + sb.weight
            assert sab.value == sa.value * sb.value


class TestNormalFormUniqueness:
    def test_classical_coefficients_from_applications(self):
        # applying to x^0..x^order recovers the normal-form coefficients
        # triangularly: A(x^n) = sum_{i<=n} (n!/(n-i)!) p_i x^{n-i}
        rng = random.Random(41)
        for _ in range(20):
            coeffs = [poly([rng.randrange(-3, 4) for _ in range(3)]) for _ in range(4)]
            a = DiffOp(0, 0, coeffs)
            recovered = []
            for n in range(len(a.coeffs)):
                acc = a.apply_to(Poly.x_power(n))
                fact_n = 1
                for t in range(1, n + 1):
                    fact_n *= t
                for i, p in enumerate(recovered):
                    falling = 1
                    for t in range(n - i + 1, n + 1):
                        falling *= t
                    acc = acc - (p * Poly.x_power(n - i)).scale(falling)
                recovered.append(acc.scale(Q(1, fact_n)))
            assert DiffOp(0, 0, recovered) == a

    def test_zero_iff_kills_generating_family_super(self):
        rng = random.Random(43)
        for _ in range(25):
            coeffs = [
                spoly([rng.randrange(-2, 3) for _ in range(2)], [rng.randrange(-2, 3) for _ in range(2)])
                for _ in range(4)
            ]
            a = SuperDiffOp(0, 0, coeffs)
            killed = all(not a.apply_to(f) for f in X_THETA_PROBES)
            assert killed == (not a)

    def test_super_coefficient_pairs_are_coerced(self):
        """An (f0, f1) coefficient reads as SuperPoly(f0, f1)."""
        pairs = [(poly([1, 2]), poly([0, -1])), (poly([]), poly([3])), (poly([0, 0, 5]), poly([]))]
        built = SuperDiffOp(Q(1, 2), Q(3, 2), pairs)
        assert built == SuperDiffOp(Q(1, 2), Q(3, 2), [SuperPoly(f0, f1) for f0, f1 in pairs])
        assert all(type(c) is SuperPoly for c in built.coeffs) and built.order == 2


class TestGradedOp:
    def test_block_weight_validation(self):
        g = GradedOp(CLASSICAL, Q(3, 2), 4)
        with pytest.raises(UsageError):
            g.set_block(2, 0, DiffOp.partial(2, Q(0), Q(3, 2)))

    def test_composition_routes_through_blocks(self):
        g = GradedOp(SUPER, Q(1, 2), 2, )
        a = SuperDiffOp.multiplication(SP_ONE, Q(0), Q(1, 2))
        g.set_block(1, 0, a)
        h = GradedOp(SUPER, Q(1, 2), 2)
        h.set_block(2, 1, SuperDiffOp.multiplication(SP_ONE, Q(-1, 2), Q(0)))
        out = g.compose(h)
        assert set(out.blocks) == {(2, 0)}

    def test_undeformed_action_is_homomorphism(self):
        delta, kmax = Q(3, 2), 3
        basis = sl2_basis()
        for x in basis:
            for y in basis:
                lhs = undeformed_action(x, CLASSICAL, delta, kmax).bracket(
                    undeformed_action(y, CLASSICAL, delta, kmax), 1
                )
                rhs = undeformed_action(vf_bracket(x, y), CLASSICAL, delta, kmax)
                assert lhs == rhs

    def test_undeformed_super_action_is_homomorphism(self):
        delta, kmax = Q(1, 2), 2
        basis = osp_basis()
        for x in basis:
            for y in basis:
                sign = -1 if (x.parity and y.parity) else 1
                lhs = undeformed_action(x, SUPER, delta, kmax).bracket(
                    undeformed_action(y, SUPER, delta, kmax), sign
                )
                bracket = contact_bracket(x, y)
                rhs = undeformed_action(bracket, SUPER, delta, kmax)
                assert lhs == rhs


# (call, the value it must name): a float or bool weight would otherwise be
# read as a binary expansion (0.1 -> 3602879701896397/36028797018963968) or
# as 0/1.
INEXACT_WEIGHTS = [
    (lambda: DiffOp(0.1, 0, [[1]]), "0.1"),
    (lambda: DiffOp(0, True, [[1]]), "True"),
    (lambda: SuperDiffOp(0.5, 0.5), "0.5"),
    (lambda: lie_op(sl2_basis()[0], 0.1), "0.1"),
    (lambda: lie_op(sl2_basis()[1], False), "False"),
    (lambda: super_lie_op(osp_basis()[0], 0.25), "0.25"),
    (lambda: super_lie_op(osp_basis()[1], True), "True"),
    (lambda: cocycle_A(0.1), "0.1"),
    (lambda: cocycle_Yprime(True), "True"),
    (lambda: Poly([True]), "True"),
    (lambda: Poly([1, False]), "False"),
    (lambda: Poly([Q(1)]).scale(True), "True"),
]

EXACT_WEIGHTS = [
    (lambda: DiffOp(1, Q(1, 2), [[1]]), (Q(1), Q(1, 2))),
    (lambda: SuperDiffOp(Q(-3, 4), 2), (Q(-3, 4), Q(2))),
    (lambda: lie_op(sl2_basis()[2], Q(5, 3)), (Q(5, 3), Q(5, 3))),
    (lambda: super_lie_op(osp_basis()[3], -1), (Q(-1), Q(-1))),
    (lambda: cocycle_A(Q(1, 3)).images[0], (Q(1, 3), Q(1, 3))),
    (lambda: cocycle_Yprime(2).images[4], (Q(2), Q(2))),
]


class TestExactWeights:
    @pytest.mark.parametrize("call, named", INEXACT_WEIGHTS,
                             ids=[f"inexact-{i}" for i in range(len(INEXACT_WEIGHTS))])
    def test_float_or_bool_is_refused_by_name(self, call, named):
        with pytest.raises(UsageError, match=named):
            call()

    @pytest.mark.parametrize("call, block", EXACT_WEIGHTS,
                             ids=[f"exact-{i}" for i in range(len(EXACT_WEIGHTS))])
    def test_int_and_fraction_are_kept(self, call, block):
        op = call()
        assert (op.lam, op.mu) == block
        assert type(op.lam) is Q and type(op.mu) is Q

    def test_int_coefficients_become_fractions(self):
        assert Poly([0, 2, 0]).coeffs == (Q(0), Q(2))
        assert all(type(c) is Q for c in Poly([3, -1]).coeffs)


# ---------------------------------------------------------------------------
# Reuse of the commutation tables in _compose
# ---------------------------------------------------------------------------

EVEN = ParamAlgebra(("a", "c"), ())
SUPER_PARAMS = ParamAlgebra(("a",), ("b",))
SMALL = st.integers(-2, 2)


def _scalar(draw):
    return Q(draw(SMALL), draw(st.sampled_from((1, 1, 2, 3))))


def _operator(draw, flavor, algebra, lam, mu):
    """A parameter-free operator, or with an algebra one of up to three
    terms q A_q, q 1 or a parameter symbol and A_q parameter-free, of one
    total parity in the super flavor."""
    def poly():
        return Poly([_scalar(draw) for _ in range(draw(st.integers(0, 3)))])

    def plain(parity):
        order = draw(st.integers(0, 3))
        if flavor == CLASSICAL:
            return DiffOp(lam, mu, [poly() for _ in range(order + 1)])
        if parity is None:
            return SuperDiffOp(lam, mu, [SuperPoly(poly(), poly()) for _ in range(order + 1)])
        return SuperDiffOp(lam, mu, [SuperPoly(Poly(), poly()) if (i + parity) & 1
                                     else SuperPoly(poly()) for i in range(order + 1)])

    if algebra is None:
        return plain(None)
    parity = draw(st.integers(0, 1))
    out = plain(parity)
    for name in draw(st.lists(st.sampled_from(algebra.even + algebra.odd), max_size=2)):
        out = out + plain(parity ^ algebra.parity_of(name)).scale(ParamScalar.symbol(algebra, name))
    return out


def _applied(op, f: dict) -> dict:
    """op applied to the formal function sum_q q f[q]: (p A)(q f) = s (pq) A(f)
    by the sign rule of ``kernel.product_terms``; zeros dropped."""
    terms = product_terms(param_terms(op), f, lambda a, g: a.apply_to(g), graded=True)
    return {q: g for q, g in terms.items() if g}


class TestCommutationTableReuse:
    """``_compose`` keeps the commutation tables of every coefficient across
    calls, and a parametric composition composes parameter-free terms; a
    warm cache must give what a cold one gives, and both what applying the
    two operators in turn gives."""

    @settings(max_examples=80)
    @given(data=st.data())
    def test_warm_cache_changes_no_result(self, data):
        flavor = data.draw(st.sampled_from((CLASSICAL, SUPER)))
        parametric = data.draw(st.booleans())
        algebra = (EVEN if flavor == CLASSICAL else SUPER_PARAMS) if parametric else None
        lam, nu, mu = Q(1, 2), Q(-1), Q(2, 3)
        a = _operator(data.draw, flavor, algebra, nu, mu)
        b = _operator(data.draw, flavor, algebra, lam, nu)
        cache = operators._cached_commutation_tables
        cache.cache_clear()
        cold = compose(a, b)
        warm = compose(a, b)
        assert cold == warm
        probes = ([Poly.x_power(n) for n in range(5)] if flavor == CLASSICAL
                  else X_THETA_PROBES)
        for f in probes:
            assert _applied(cold, {_ONE_MON: f}) == _applied(a, _applied(b, {_ONE_MON: f}))
        info = cache.cache_info()
        assert info.currsize <= info.maxsize
        if a and b:
            assert info.hits  # the warm call read the tables kept by the cold one

    def test_cache_is_bounded(self):
        cache = operators._cached_commutation_tables
        cache.cache_clear()
        one = DiffOp.identity(0)
        for n in range(cache.cache_info().maxsize + 10):
            operators._compose(one, DiffOp.multiplication(Poly.x_power(n), 0, 0))
        info = cache.cache_info()
        assert info.currsize == info.maxsize
        cache.cache_clear()

    def test_parametric_composition_reads_the_cache(self):
        """(a + d)(a + d) = a^2 + 2a d + d^2 with a formal: four parameter-free
        compositions, which read two tables, each built once."""
        cache = operators._cached_commutation_tables
        cache.cache_clear()
        a = ParamScalar.symbol(EVEN, "a")
        op = DiffOp.identity(0).scale(a) + DiffOp.partial(1, 0, 0)
        assert compose(op, op) == (DiffOp.identity(0).scale(a * a) + DiffOp.partial(1, 0, 0)
                                   .scale(2 * a) + DiffOp.partial(2, 0, 0))
        info = cache.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
        cache.cache_clear()


# ---------------------------------------------------------------------------
# Rendering of parametric operators
# ---------------------------------------------------------------------------

RENDER = ParamAlgebra(even=("a", "c"), odd=("beta", "gamma"))
RA, RC, RBETA, RGAMMA = (ParamScalar.symbol(RENDER, n) for n in ("a", "c", "beta", "gamma"))


class TestParametricRendering:
    """``to_json`` of operators scaled by even and odd parameters: each
    coefficient is the sum of its parameter monomials, zeros included."""

    def test_classical(self):
        first = DiffOp(0, 1, [Poly([1, 0, Q(2, 3)]), Poly([0, 3])])
        second = DiffOp(0, 1, [Poly([0, 0, 5]), Poly(), Poly([-1])])
        op = first.scale(RA - 2 * RC) + second.scale(RA * RC) + first.scale(RBETA * RGAMMA)
        assert json.dumps(op.to_json(), sort_keys=True) == (
            '{"coeffs": [["beta*gamma + a - 2*c", "0", '
            '"2/3*beta*gamma + 2/3*a + 5*a*c - 4/3*c"], ["0", "3*beta*gamma + 3*a - 6*c"], '
            '["-a*c"]], "lambda": "0", "mu": "1"}')

    def test_super(self):
        even = SuperDiffOp(Q(1, 2), 1, [SuperPoly(Poly([1, 0, 2])), SuperPoly(Poly(), Poly([3]))])
        odd = SuperDiffOp(Q(1, 2), 1, [SuperPoly(Poly(), Poly([1])),
                                       SuperPoly(Poly([0, Q(-1, 2)]))])
        op = even.scale(RBETA - 2 * RGAMMA) + odd.scale(RA) + odd.scale(RC * RBETA * RGAMMA)
        assert json.dumps(op.to_json(), sort_keys=True) == (
            '{"coeffs": [{"f0": ["beta - 2*gamma", "0", "2*beta - 4*gamma"], '
            '"f1": ["a + c*beta*gamma"]}, {"f0": ["0", "-1/2*a - 1/2*c*beta*gamma"], '
            '"f1": ["3*beta - 6*gamma"]}], "lambda": "1/2", "mu": "1", "parity": "odd"}')


def test_a_coefficient_is_rational():
    """A ParamScalar is refused as a coefficient of a function; scaling a
    whole operator by one gives the map {monomial: parameter-free operator},
    and a constant ParamScalar gives back a plain operator."""
    for call in (lambda: Poly([RA]), lambda: Poly([1]).scale(RA),
                 lambda: SuperPoly(Poly(), Poly([RBETA]))):
        with pytest.raises(UsageError, match="not a rational coefficient"):
            call()
    op = DiffOp.partial(1, 0, 0).scale(2 * RA * RBETA + 3)
    assert type(op) is operators.ParamOp
    assert op.terms == {((("a", 1),), ("beta",)): DiffOp.partial(1, 0, 0, Poly([2])),
                        ((), ()): DiffOp.partial(1, 0, 0, Poly([3]))}
    assert DiffOp.partial(1, 0, 0).scale(ParamScalar.const(3)) == DiffOp.partial(1, 0, 0, Poly([3]))
    with pytest.raises(UsageError, match="ParamOp applied to a classical density"):
        apply(op, Density(0, Poly.x_power(1), CLASSICAL))
    with pytest.raises(UsageError, match="parameter-free DiffOp, not ParamOp"):
        principal_symbol(op)
