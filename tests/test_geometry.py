"""Geometry suite: superfunctions, contact fields, density actions.

Derived expectations are computed with the raw coefficient-list helpers
below, which know nothing about the package's Poly/SuperPoly classes.
"""

import random
from fractions import Fraction as Q

import pytest

from symdef.geometry import (
    CLASSICAL,
    SUPER,
    Density,
    Poly,
    SuperPoly,
    UsageError,
    VectorField,
    contact_bracket,
    density_action,
    eta_bar,
    eta_power,
    osp_basis,
    sl2_basis,
    super_density_action,
    vf_bracket,
)

# -- independent oracle helpers (plain lists of Fractions) -------------------


def d_list(cs):
    """Derivative of a coefficient list."""
    return [Q(i) * c for i, c in enumerate(cs)][1:]


def mul_list(a, b):
    out = [Q(0)] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def scale_list(s, a):
    return [Q(s) * x for x in a]


def add_list(a, b):
    out = [Q(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def poly(cs):
    return Poly([Q(c) for c in cs])


def spoly(f0, f1):
    return SuperPoly(poly(f0), poly(f1))


SAMPLE_WEIGHTS = [Q(0), Q(1, 2), Q(1), Q(2), Q(-1, 2), Q(5, 3)]


class TestBases:
    def test_sl2_generators(self):
        basis = sl2_basis()
        assert [vf.g for vf in basis] == [poly([1]), poly([0, 1]), poly([0, 0, 1])]

    def test_osp_field_components(self):
        e1, eth, ex, exth, ex2 = osp_basis()
        assert e1.a == spoly([1], []) and not e1.b
        # X_theta = (1/2) theta d_x + (1/2) d_theta
        assert eth.a == spoly([], [Q(1, 2)])
        assert eth.b == spoly([Q(1, 2)], [])
        # X_{x^2} = x^2 d_x + x theta d_theta
        assert ex2.a == spoly([0, 0, 1], [])
        assert ex2.b == spoly([], [0, 1])
        # X_x = x d_x + (1/2) theta d_theta ; X_{x theta} = (1/2)(x th d_x + x d_th)
        assert ex.a == spoly([0, 1], []) and ex.b == spoly([], [Q(1, 2)])
        assert exth.a == spoly([], [0, Q(1, 2)])
        assert exth.b == spoly([0, Q(1, 2)], [])

    def test_every_basis_field_satisfies_contact_condition(self):
        for field in osp_basis():
            assert field.contact_condition_holds()


class TestEtaBar:
    def test_on_theta(self):
        assert eta_bar(spoly([], [1])) == spoly([1], [])

    def test_on_x(self):
        assert eta_bar(spoly([0, 1], [])) == spoly([], [-1])

    def test_on_theta_x(self):
        assert eta_bar(spoly([], [0, 1])) == spoly([0, 1], [])

    def test_eta_squared_is_minus_ddx(self):
        rng = random.Random(3)
        for _ in range(40):
            f0 = [Q(rng.randrange(-3, 4)) for _ in range(rng.randrange(5))]
            f1 = [Q(rng.randrange(-3, 4)) for _ in range(rng.randrange(5))]
            f = spoly(f0, f1)
            assert eta_power(f, 2) == spoly(d_list(f0), d_list(f1)).scale(-1)


class TestBrackets:
    def test_vf_brackets(self):
        e0, e1, e2 = sl2_basis()
        assert vf_bracket(e0, e1) == VectorField(poly([1]))
        assert vf_bracket(e0, e2) == VectorField(poly([0, 2]))
        # (x * 2x - x^2 * 1) d/dx = x^2 d/dx
        assert vf_bracket(e1, e2) == VectorField(poly([0, 0, 1]))
        assert vf_bracket(e1, e0) == VectorField(poly([-1]))

    def test_contact_bracket_even_even(self):
        e1, _, ex, _, ex2 = (osp_basis() + [None])[:5]
        out = contact_bracket(e1, ex2)
        assert out.generator == spoly([0, 2], [])  # 2 X_x

    def test_contact_bracket_odd_self(self):
        eth = osp_basis()[1]
        out = contact_bracket(eth, eth)
        # anticommutator of X_theta with itself: (1/2) d_x
        assert out.generator == spoly([Q(1, 2)], [])
        assert out.a == spoly([Q(1, 2)], []) and not out.b

    def test_contact_bracket_zero(self):
        e1 = osp_basis()[0]
        assert contact_bracket(e1, e1).is_zero()

    def test_structure_constants_table(self):
        # frozen from hand expansion of the supercommutators
        basis = osp_basis()
        gen = {
            (0, 2): spoly([1], []),
            (0, 4): spoly([0, 2], []),
            (2, 4): spoly([0, 0, 1], []),
            (1, 1): spoly([Q(1, 2)], []),
            (1, 2): spoly([], [Q(1, 2)]),
            (1, 3): spoly([0, Q(1, 2)], []),
            (1, 4): spoly([], [0, 1]),
            (3, 3): spoly([0, 0, Q(1, 2)], []),
            (0, 1): spoly([], []),
            (0, 3): spoly([], [1]),
            (2, 3): spoly([], [0, Q(1, 2)]),
            (3, 4): spoly([], []),
        }
        for (i, j), expected in gen.items():
            assert contact_bracket(basis[i], basis[j]).generator == expected, (i, j)

    def test_closure_in_span(self):
        basis = osp_basis()
        for i in range(5):
            for j in range(5):
                h = contact_bracket(basis[i], basis[j]).generator
                assert (h.f0.degree or 0) <= 2 and (h.f1.degree or 0) <= 1


class TestDensityAction:
    def test_ddx_on_x_squared(self):
        for lam in SAMPLE_WEIGHTS:
            d = Density(lam, poly([0, 0, 1]), CLASSICAL)
            out = density_action(sl2_basis()[0], d)
            assert out.value == poly([0, 2])

    def test_euler_scaling(self):
        x_ddx = sl2_basis()[1]
        for lam in SAMPLE_WEIGHTS:
            for n in range(6):
                d = Density(lam, Poly.x_power(n), CLASSICAL)
                out = density_action(x_ddx, d)
                assert out.value == Poly.x_power(n).scale(n + lam)

    def test_weight_zero_constant(self):
        d = Density(0, poly([1]), CLASSICAL)
        assert not density_action(sl2_basis()[2], d).value

    def test_flavor_mismatch(self):
        with pytest.raises(UsageError):
            density_action(sl2_basis()[0], Density(1, spoly([1], []), SUPER))

    def test_module_axiom_classical(self):
        basis = sl2_basis()
        for lam in SAMPLE_WEIGHTS:
            for x in basis:
                for y in basis:
                    for n in range(13):
                        d = Density(lam, Poly.x_power(n), CLASSICAL)
                        lhs = density_action(x, density_action(y, d)).value - density_action(
                            y, density_action(x, d)
                        ).value
                        rhs = density_action(vf_bracket(x, y), d).value
                        assert lhs == rhs


class TestSuperDensityAction:
    def test_x2_on_theta(self):
        d = Density(1, spoly([], [1]), SUPER)
        out = super_density_action(osp_basis()[4], d)
        assert out.value == spoly([], [0, 3])  # 3 x theta

    def test_generator_one_is_plain_derivative(self):
        for lam in SAMPLE_WEIGHTS:
            f = spoly([1, 2, 3], [4, 5])
            d = Density(lam, f, SUPER)
            out = super_density_action(osp_basis()[0], d)
            assert out.value == spoly([2, 6], [5])

    def test_generator_x_on_constant(self):
        for lam in SAMPLE_WEIGHTS:
            d = Density(lam, spoly([1], []), SUPER)
            out = super_density_action(osp_basis()[2], d)
            assert out.value == spoly([lam], [])

    def test_module_axiom_super(self):
        basis = osp_basis()
        for lam in [Q(0), Q(1, 2), Q(-1, 2), Q(5, 3)]:
            for i, x in enumerate(basis):
                for j, y in enumerate(basis):
                    sign = -1 if (x.parity and y.parity) else 1
                    for n in range(0, 13, 3):
                        for theta_part in (False, True):
                            d = Density(lam, SuperPoly.x_power(n, theta=theta_part), SUPER)
                            lhs = (
                                super_density_action(x, super_density_action(y, d)).value
                                - super_density_action(y, super_density_action(x, d)).value.scale(sign)
                            )
                            rhs = super_density_action(contact_bracket(x, y), d).value
                            assert lhs == rhs, (i, j, n, theta_part)


class TestCasimir:
    """The Casimir scalars behind the threshold order of ``cohomology_dim``.

    On the weight-nu densities, C = X_0^2 - (X_-1 X_1 + X_1 X_-1)/2 acts by
    nu(nu - 1); on the superline C + X_theta X_xtheta - X_xtheta X_theta
    acts by nu(nu - 1/2) on x^n and on x^n theta.  Each generator maps x^n
    (x^n theta) to a multiple of one monomial with a coefficient affine in n
    and in nu, so both sides are multiples of the input with coefficients of
    degree at most 2 in n and in nu: agreement on a 4 x 4 grid of (n, nu)
    proves the identity for every n and nu."""

    GRID = [(n, nu) for n in range(4) for nu in (Q(-3, 2), Q(0), Q(1, 3), Q(2))]

    def test_sl2_scalar(self):
        basis = sl2_basis()

        def act(a, b, d):
            return density_action(basis[a], density_action(basis[b], d)).value

        for n, nu in self.GRID:
            d = Density(nu, Poly.x_power(n), CLASSICAL)
            casimir = act(1, 1, d) - (act(0, 2, d) + act(2, 0, d)).scale(Q(1, 2))
            assert casimir == Poly.x_power(n).scale(nu * (nu - 1)), (n, nu)

    def test_osp12_scalar(self):
        basis = osp_basis()  # generators 1, theta, x, x theta, x^2

        def act(a, b, d):
            return super_density_action(basis[a], super_density_action(basis[b], d)).value

        for n, nu in self.GRID:
            for theta in (False, True):
                d = Density(nu, SuperPoly.x_power(n, theta=theta), SUPER)
                even = act(2, 2, d) - (act(0, 4, d) + act(4, 0, d)).scale(Q(1, 2))
                casimir = even + act(1, 3, d) - act(3, 1, d)
                assert casimir == d.value.scale(nu * (nu - Q(1, 2))), (n, nu, theta)


class TestSuperPolyAlgebra:
    def test_theta_squared_structurally_zero(self):
        th = spoly([], [1])
        assert not th * th

    def test_parity_detection(self):
        assert spoly([1, 2], []).parity() == 0
        assert spoly([], [3]).parity() == 1
        assert spoly([], []).parity() is None
        with pytest.raises(UsageError):
            spoly([1], [1]).parity()

    def test_product_matches_component_oracle(self):
        rng = random.Random(17)
        for _ in range(60):
            f0 = [Q(rng.randrange(-3, 4)) for _ in range(rng.randrange(4))]
            f1 = [Q(rng.randrange(-3, 4)) for _ in range(rng.randrange(4))]
            g0 = [Q(rng.randrange(-3, 4)) for _ in range(rng.randrange(4))]
            g1 = [Q(rng.randrange(-3, 4)) for _ in range(rng.randrange(4))]
            prod = spoly(f0, f1) * spoly(g0, g1)
            # parameter-free: (f0+f1 th)(g0+g1 th) = f0 g0 + (f0 g1 + f1 g0) th
            h0 = mul_list(f0 or [Q(0)], g0 or [Q(0)])
            h1 = add_list(mul_list(f0 or [Q(0)], g1 or [Q(0)]), mul_list(f1 or [Q(0)], g0 or [Q(0)]))
            assert prod == spoly(h0, h1)
