"""Catalog suite: family constructors, ids, and the decomposition check."""

from fractions import Fraction as Q

import pytest

import symdef.catalog as catalog
from symdef.catalog import (
    CatalogId,
    build_cocycle,
    calibrate_convention,
    cocycle_A,
    cocycle_B,
    cocycle_C,
    cocycle_Omega,
    cocycle_Phi,
    cocycle_Y,
    cocycle_Yprime,
    cocycle_Ytilde,
    lemma23_check,
    parse_catalog_id,
)
from symdef.cohomology import d1, d2
from symdef.geometry import CLASSICAL, Density, Poly, SuperPoly
from symdef.kernel import UsageError
from symdef.operators import apply


def poly(cs):
    return Poly([Q(c) for c in cs])


def spoly(f0, f1):
    return SuperPoly(poly(f0), poly(f1))


class TestClassicalFamilies:
    def test_A_image_values(self):
        c = cocycle_A(Q(1, 2))
        # image at x^2 d/dx applied to x^n: 2 x^{n+1}
        out = apply(c.images[2], Density(Q(1, 2), poly([0, 0, 0, 1]), CLASSICAL))
        assert out.value == poly([0, 0, 0, 0, 2])
        assert not c.images[0]  # F = 1 has F' = 0

    def test_A_is_cocycle(self):
        for lam in (Q(0), Q(1, 2), Q(2), Q(-1, 2), Q(5, 3)):
            assert d1(cocycle_A(lam)).is_zero()

    def test_B_image_value(self):
        c = cocycle_B(3, 2)
        # F = x^2, f = x^3: F' f'' = 2x * 6x = 12 x^2
        out = apply(c.images[2], Density(Q(-1, 2), poly([0, 0, 0, 1]), CLASSICAL))
        assert out.weight == Q(3, 2)
        assert out.value == poly([0, 0, 12])
        assert not c.images[0]

    def test_C_image_value(self):
        c = cocycle_C(3, 2)
        # F = x^2, f = x^3: F'' f' = 2 * 3x^2
        out = apply(c.images[2], Density(Q(-1, 2), poly([0, 0, 0, 1]), CLASSICAL))
        assert out.value == poly([0, 0, 6])
        assert not c.images[1]  # F = x has F'' = 0

    def test_BC_are_cocycles_all_valid_indices(self):
        for m in (2, 3, 4, 5):
            for k in range((m + 1) // 2, m):
                assert d1(cocycle_B(m, k)).is_zero(), (m, k)
                assert d1(cocycle_C(m, k)).is_zero(), (m, k)

    def test_BC_index_range_enforced(self):
        with pytest.raises(UsageError):
            cocycle_B(3, 1)
        with pytest.raises(UsageError):
            cocycle_C(4, 4)

    def test_Phi_image_value(self):
        c = cocycle_Phi(2)
        # (F,G) = (x, x^2), f = x^3: (F'G'' - F''G') f' = 2 * 3x^2
        out = apply(c.images[(1, 2)], Density(Q(-1, 2), poly([0, 0, 0, 1]), CLASSICAL))
        assert out.value == poly([0, 0, 6])
        assert not c.images[(0, 1)]  # second derivatives of 1, x vanish

    def test_Phi_is_2cocycle(self):
        for k in range(1, 6):
            assert all(not v for v in d2(cocycle_Phi(k)).values()), k


class TestSuperFamilies:
    def test_Yprime_images(self):
        c = cocycle_Yprime(Q(1, 2))
        # at X_{x^2}: multiplication by 2x; at X_theta: zero
        assert c.images[4].coeffs == (spoly([0, 2], []),)
        assert not c.images[1]
        assert c.parity == 0

    def test_Yprime_is_cocycle(self):
        for lam in (Q(0), Q(1, 2), Q(2), Q(-1, 2), Q(5, 3)):
            assert d1(cocycle_Yprime(lam)).is_zero()

    def test_Y_image_at_x2(self):
        c = cocycle_Y(1)
        # image at X_{x^2} is -2x eta
        want = spoly([0, -2], [])
        assert c.images[4].coefficient(1) == want
        assert not c.images[4].coefficient(0)
        assert not c.images[0]
        assert c.parity == 1

    def test_Ytilde_image_at_x2(self):
        c = cocycle_Ytilde(2)
        # 2 eta + 2 theta eta^2 at X_{x^2}
        im = c.images[4]
        assert im.coefficient(1) == spoly([2], [])
        assert im.coefficient(2) == spoly([], [2])
        assert not c.images[0]

    def test_Ytilde_k1_drops_leading_term(self):
        c = cocycle_Ytilde(1)
        assert (c.images[4].order or 0) == 0

    def test_super_families_are_cocycles(self):
        for k in range(1, 5):
            assert d1(cocycle_Y(k)).is_zero(), k
            assert d1(cocycle_Ytilde(k)).is_zero(), k
            assert all(not v for v in d2(cocycle_Omega(k)).values()), k

    def test_Omega_image_on_even_pair(self):
        for k in (2, 3):
            c = cocycle_Omega(k)
            im = c.images[(2, 4)]  # (X_x, X_{x^2})
            assert im.coefficient(2 * k - 3) == spoly([2 * (k - 1)], [])
            assert im.coefficient(2 * k - 2) == spoly([], [2])

    def test_Omega_on_odd_diagonals(self):
        c = cocycle_Omega(2)
        # (X_theta, X_theta): F' = 0 kills everything
        assert not c.images[(1, 1)]
        # (X_{x theta}, X_{x theta}): eta(th)*th - (-1)^{1*1} th*eta(th) = 2 th
        assert c.images[(3, 3)].coefficient(2) == spoly([], [2])


class TestDecompositionIdentity:
    def test_k2_explicit_pair(self):
        rep = lemma23_check(2)
        assert rep.passed and not rep.residuals

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_all_sl2_pairs(self, k):
        assert lemma23_check(k).passed

    def test_k1_rejected(self):
        with pytest.raises(UsageError):
            lemma23_check(1)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sign_flipped_even_pair_fails(self, k, monkeypatch):
        """The check can fail: flipping the sign of the image of (X_x, X_{x^2})
        fails it at exactly that pair.  The other even pairs have zero images
        (their Wronskian F'G'' - F''G' vanishes), so a flip there is no fault."""
        omega = cocycle_Omega(k)
        pair = (2, 4)
        assert omega.images[pair]
        omega.images[pair] = -omega.images[pair]
        monkeypatch.setattr(catalog, "cocycle_Omega", lambda _: omega)
        report = lemma23_check(k)
        assert not report.passed
        assert set(report.residuals) == {pair}


# (catalog id, its family's builder, the builder's arguments)
FAMILY_IDS = [
    ("A:lambda=3/2", cocycle_A, (Q(3, 2),)),
    ("B:m=3,k=2", cocycle_B, (3, 2)),
    ("C:m=4,k=3", cocycle_C, (4, 3)),
    ("Phi:k=2", cocycle_Phi, (2,)),
    ("Yprime:lambda=-1/2", cocycle_Yprime, (Q(-1, 2),)),
    ("Y:k=1", cocycle_Y, (1,)),
    ("Ytilde:k=3", cocycle_Ytilde, (3,)),
    ("Omega:k=2", cocycle_Omega, (2,)),
]


class TestCatalogIds:
    def test_parse_and_build_round_trip(self):
        """Each family of the table: the id prints back as written and
        builds what its builder gives."""
        for text, build, args in FAMILY_IDS:
            cid = parse_catalog_id(text)
            assert cid == CatalogId(text.partition(":")[0], args)
            assert str(cid) == text
            assert build_cocycle(text) == build(*args), text

    def test_keys_print_in_table_order(self):
        assert str(parse_catalog_id("B:k=2, m=3")) == "B:m=3,k=2"

    def test_lambda_normalization(self):
        cid = parse_catalog_id("A:lambda=0/1")
        assert str(cid) == "A:lambda=0"

    def test_rejects_unknown_family(self):
        with pytest.raises(UsageError):
            parse_catalog_id("Q:k=2")

    def test_rejects_bad_arguments(self):
        with pytest.raises(UsageError):
            parse_catalog_id("A:k=2")
        with pytest.raises(UsageError):
            parse_catalog_id("B:m=3")


class TestCalibration:
    def test_default_convention_calibrates(self):
        record = calibrate_convention()
        assert list(record) == ["convention", "calibrated_against", "is_default"]
        assert record["is_default"]
        assert record["convention"] == {"action_sign": 1, "bracket_sign": 1}
