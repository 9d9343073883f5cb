"""Deformation suite: assembly, defects, obstructions, worked family, gauges.

The bracket-defect checks are cross-validated against a density-level
oracle written directly in this file: the deformed action is applied to
monomial densities component by component using the raw formulas, with no
operator composition machinery involved.  The defect [Phi_i, Phi_j] of an
assembled first-order action is also compared with the full typed bracket
of L0 + Phi.
"""

import json
import random
import re
from contextlib import contextmanager
from functools import lru_cache
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symdef.catalog as catalog
import symdef.deformation as deformation
import symdef.cohomology as cohomology
from symdef.cohomology import (
    SL2,
    Cochain1,
    Cochain2,
    Decomposition,
    Witness,
    block_cache,
    coboundary_solve,
    d1,
    decompose_cocycle,
    default_witness_bounds,
)
from symdef.deformation import (
    DeformationSpec,
    DeformedAction,
    NotTrivializable,
    bracket_defect,
    build_infinitesimal,
    check_published_conditions,
    derived_condition_verdicts,
    example1_family,
    gauge_transform,
    obstruction_classes,
    proportional_up_to_scalar,
    published_condition,
    trivialize_second_order,
    verify_homomorphism,
)
from symdef.geometry import CLASSICAL, SUPER, Poly, SuperPoly
from symdef.kernel import (_ONE_MON, InternalError, ParamAlgebra, ParamScalar, UsageError,
                           _mul_monomials)
from symdef.operators import DiffOp, GradedOp, SuperDiffOp, compose, undeformed_action

X_NAMES = {0: [1], 1: [0, 1], 2: [0, 0, 1]}  # sl2 generator coefficient lists


# -- density-level oracle (independent of the operator machinery) -----------


def d_list(cs):
    return [Q(i) * c for i, c in enumerate(cs)][1:]


def mul_list(a, b):
    if not a or not b:
        return []
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def add_list(a, b):
    out = [Q(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    while out and not out[-1]:
        out.pop()
    return out


def scale_list(s, a):
    return [Q(s) * x for x in a]


def nth_derivative(cs, n):
    for _ in range(n):
        cs = d_list(cs)
    return cs


def oracle_apply(params, m, g, comp_f, window):
    """Apply L_X + deformation to {component: coeff list}; returns the same shape.

    Implements, from scratch: L = g f' + lam g' f on each component,
    a_k g' f on the diagonal, b_k g' f^{(2k-m+1)} + c_k g'' f^{(2k-m)}
    from component k to component m-1-k."""
    out = {}

    def bump(comp, values):
        if values:
            out[comp] = add_list(out.get(comp, []), values)

    for comp, f in comp_f.items():
        lam = Q(m, 2) - comp
        bump(comp, add_list(mul_list(g, d_list(f)), scale_list(lam, mul_list(d_list(g), f))))
        a = params.get(f"a{comp}", Q(0))
        if a:
            bump(comp, scale_list(a, mul_list(d_list(g), f)))
        k = comp
        if (m + 1) // 2 <= k <= m - 1:
            b = params.get(f"b{k}", Q(0))
            c = params.get(f"c{k}", Q(0))
            tgt = m - 1 - k
            if b:
                bump(tgt, scale_list(b, mul_list(d_list(g), nth_derivative(f, 2 * k - m + 1))))
            if c:
                bump(tgt, scale_list(c, mul_list(d_list(d_list(g)), nth_derivative(f, 2 * k - m))))
    return {c: v for c, v in out.items() if any(v)}


def oracle_defect(params, m, gx, gy, comp, f, window):
    """[L_X, L_Y](f at component comp) - L_{[X,Y]}(f at comp), per the oracle."""
    one = {comp: f}
    xy = oracle_apply(params, m, gx, oracle_apply(params, m, gy, one, window), window)
    yx = oracle_apply(params, m, gy, oracle_apply(params, m, gx, one, window), window)
    bracket_g = add_list(mul_list(gx, d_list(gy)), scale_list(-1, mul_list(gy, d_list(gx))))
    br = oracle_apply(params, m, bracket_g, one, window)
    out = {}
    for c in set(xy) | set(yx) | set(br):
        val = add_list(add_list(xy.get(c, []), scale_list(-1, yx.get(c, []))), scale_list(-1, br.get(c, [])))
        if any(val):
            out[c] = val
    return out


class TestBuildInfinitesimal:
    def test_non_resonant_is_diagonal_only(self):
        spec = DeformationSpec(CLASSICAL, Q(5, 3), 6)
        action = build_infinitesimal(spec)
        for g in action.first_order:
            assert all(j == i for (j, i) in g.blocks)

    def test_m3_block_layout(self):
        spec = DeformationSpec.resonant_spec(CLASSICAL, 3, window=4)
        action = build_infinitesimal(spec)
        # the x^2 d/dx image carries diagonal blocks and the (2 -> 0) band
        blocks = set(action.first_order[2].blocks)
        assert (2, 0) in blocks
        assert all(j == i or (j, i) == (2, 0) for (j, i) in blocks)
        off = action.first_order[2].block(2, 0)
        assert off.lam == Q(-1, 2) and off.mu == Q(3, 2)

    def test_placements(self):
        """Every degree-1 family placed, by block, parameter and catalog id."""
        got = {(flavor, m): [(block, name, str(cid)) for block, name, cid
                             in DeformationSpec.resonant_spec(flavor, m).placements()]
               for flavor, m in [(CLASSICAL, 3), (SUPER, 2)]}
        assert got[(CLASSICAL, 3)] == [
            ((0, 0), "a0", "A:lambda=3/2"), ((1, 1), "a1", "A:lambda=1/2"),
            ((2, 2), "a2", "A:lambda=-1/2"), ((3, 3), "a3", "A:lambda=-3/2"),
            ((4, 4), "a4", "A:lambda=-5/2"), ((5, 5), "a5", "A:lambda=-7/2"),
            ((6, 6), "a6", "A:lambda=-9/2"), ((7, 7), "a7", "A:lambda=-11/2"),
            ((8, 8), "a8", "A:lambda=-13/2"),
            ((2, 0), "b2", "B:m=3,k=2"), ((2, 0), "c2", "C:m=3,k=2"),
        ]
        assert got[(SUPER, 2)] == [
            ((0, 0), "a2", "Yprime:lambda=1"), ((1, 1), "a1", "Yprime:lambda=1/2"),
            ((2, 2), "a0", "Yprime:lambda=0"), ((3, 3), "a-1", "Yprime:lambda=-1/2"),
            ((4, 4), "a-2", "Yprime:lambda=-1"), ((5, 5), "a-3", "Yprime:lambda=-3/2"),
            ((6, 6), "a-4", "Yprime:lambda=-2"), ((7, 7), "a-5", "Yprime:lambda=-5/2"),
            ((8, 8), "a-6", "Yprime:lambda=-3"),
            ((2, 1), "b1", "Y:k=1"), ((2, 1), "c1", "Ytilde:k=1"),
            ((3, 0), "b2", "Y:k=2"), ((3, 0), "c2", "Ytilde:k=2"),
        ]

    def test_super_m1_block_layout(self):
        spec = DeformationSpec.resonant_spec(SUPER, 1)
        action = build_infinitesimal(spec)
        blocks = set()
        for g in action.first_order:
            blocks.update(g.blocks)
        assert (1, 0) in blocks
        assert all(j == i or (j, i) == (1, 0) for (j, i) in blocks)

    def test_window_too_small_rejected(self):
        with pytest.raises(UsageError):
            DeformationSpec.resonant_spec(CLASSICAL, 5, window=3)

    @pytest.mark.parametrize("window", [True, 8.0, Q(8)])
    def test_window_is_not_coerced(self, window):
        """The constructor refuses a window that is no int, in the words of a
        spec file, rather than reading True as 1 or failing later."""
        with pytest.raises(UsageError, match=re.escape(f"spec.window must be an integer, got {window!r}")):
            DeformationSpec(CLASSICAL, Q(1, 3), window)

    def test_numeric_assignment_substitutes_evens(self):
        spec = DeformationSpec.resonant_spec(CLASSICAL, 3, params={"a0": 2})
        action = build_infinitesimal(spec)
        diag = action.first_order[1].block(0, 0)
        assert diag == DiffOp.multiplication(Poly([2]), Q(3, 2), Q(3, 2))

    @pytest.mark.parametrize("value,expected", [("5/3", Q(5, 3)), (Q(5, 3), Q(5, 3)),
                                                (0.1, None), (True, None)])
    def test_param_values_are_not_coerced(self, value, expected):
        if expected is None:
            with pytest.raises(UsageError, match="params.a0"):
                DeformationSpec.resonant_spec(CLASSICAL, 3, params={"a0": value})
        else:
            spec = DeformationSpec.resonant_spec(CLASSICAL, 3, params={"a0": value})
            assert spec.assignment == {"a0": expected}


class TestBracketDefect:
    def test_all_parameters_zero(self):
        spec = DeformationSpec.resonant_spec(CLASSICAL, 3, params={})
        action = build_infinitesimal(spec)
        for i in range(3):
            for j in range(3):
                assert not bracket_defect(action, i, j)

    def test_bc_only_defect_vanishes(self):
        spec = DeformationSpec.resonant_spec(CLASSICAL, 3, params={"b2": 1, "c2": -7})
        action = build_infinitesimal(spec)
        for i in range(3):
            for j in range(i, 3):
                assert not bracket_defect(action, i, j)

    def test_diagonal_coupling_matches_density_oracle(self):
        # a2 = 1, b2 = 1 produces a defect linear in a2*b2 on the (2 -> 0) band
        params = {"a2": Q(1), "b2": Q(1)}
        spec = DeformationSpec.resonant_spec(CLASSICAL, 3, window=8, params=params)
        action = build_infinitesimal(spec)
        defect = bracket_defect(action, 1, 2)  # (x d/dx, x^2 d/dx)
        assert set(defect.blocks) == {(2, 0)}
        block = defect.block(2, 0)
        # frozen: 4 d_x
        assert block == DiffOp.partial(1, Q(-1, 2), Q(3, 2), Poly([4]))
        for n in range(6):
            f = [Q(0)] * n + [Q(1)]
            got = oracle_defect(params, 3, X_NAMES[1], X_NAMES[2], 2, f, 8)
            want = block.apply_to(Poly(f))
            if want:
                assert got == {0: list(want.coeffs)}
            else:
                assert got == {}

    def test_target_coupling_alone_vanishes(self):
        # a0 = 1, b2 = 1: multiplication operators at the target cancel
        # symmetrically, so the defect is zero (cross-checked by the oracle)
        params = {"a0": Q(1), "b2": Q(1)}
        spec = DeformationSpec.resonant_spec(CLASSICAL, 3, params=params)
        action = build_infinitesimal(spec)
        for i in range(3):
            for j in range(i, 3):
                assert not bracket_defect(action, i, j)
        for n in range(6):
            f = [Q(0)] * n + [Q(1)]
            assert oracle_defect(params, 3, X_NAMES[1], X_NAMES[2], 2, f, 8) == {}

    def test_formal_defect_matches_oracle_at_random_points(self):
        rng = random.Random(31)
        spec = DeformationSpec.resonant_spec(CLASSICAL, 3)
        formal = build_infinitesimal(spec)
        for _ in range(5):
            params = {
                name: Q(rng.randrange(-3, 4))
                for name in ("a0", "a1", "a2", "a3", "b2", "c2")
            }
            numeric = build_infinitesimal(
                DeformationSpec.resonant_spec(CLASSICAL, 3, params=params)
            )
            for (i, j) in [(0, 1), (0, 2), (1, 2)]:
                defect = bracket_defect(numeric, i, j)
                for comp in range(4):
                    for n in (0, 2, 5):
                        f = [Q(0)] * n + [Q(1)]
                        got = oracle_defect(params, 3, X_NAMES[i], X_NAMES[j], comp, f, 8)
                        for tgt in range(numeric.spec.window + 1):
                            blk = defect.block(comp, tgt)
                            want = blk.apply_to(Poly(f))
                            assert list(want.coeffs) == got.get(tgt, []), (i, j, comp, tgt)


class TestObstructionClasses:
    def test_m3_generator_frozen(self):
        action = build_infinitesimal(DeformationSpec.resonant_spec(CLASSICAL, 3))
        report = obstruction_classes(action)
        assert report.verdict == "derived"
        assert len(report.blocks) == 1
        entry = report.blocks[0]
        assert str(entry.class_coeff) == "a0*c2 + 2*a2*b2 - a2*c2"
        assert entry.basis_id == "Phi:k=2"
        assert entry.witness.is_zero()
        assert report.verify_reassembly(action)

    def test_published_m3_not_proportional(self):
        spec = DeformationSpec.resonant_spec(CLASSICAL, 3)
        action = build_infinitesimal(spec)
        entry = obstruction_classes(action).blocks[0]
        assert proportional_up_to_scalar(entry.class_coeff, published_condition(spec, 2)) is None

    def test_non_resonant_has_no_generators(self):
        action = build_infinitesimal(DeformationSpec(CLASSICAL, Q(5, 3), 6))
        report = obstruction_classes(action)
        assert report.verdict == "derived" and not report.blocks

    def test_super_m1_generator_frozen(self):
        spec = DeformationSpec.resonant_spec(SUPER, 1)
        action = build_infinitesimal(spec)
        report = obstruction_classes(action)
        assert [str(b.class_coeff) for b in report.blocks] == ["a0*b1 - a0*c1 + a1*c1"]
        assert report.verify_reassembly(action)
        # published version differs by the sign of the c-coupling
        assert str(published_condition(spec, 1)) == "a0*b1 + a0*c1 - a1*c1"

    def test_one_generator_per_resonant_index(self):
        for m in (2, 3, 4, 5):
            action = build_infinitesimal(DeformationSpec.resonant_spec(CLASSICAL, m))
            report = obstruction_classes(action)
            assert [b.k for b in report.blocks] == list(range((m + 1) // 2, m))

    def test_successful_splits_never_check_the_cochain_closed(self, monkeypatch):
        """A split proves c closed (d d = 0): decomposing the certified m = 3
        defect block asks ``is_cocycle`` of the family only, a coboundary
        solve asks it of nothing, and both report the bounds they used."""
        spec = DeformationSpec.resonant_spec(CLASSICAL, 3)
        action = build_infinitesimal(spec)
        j, i = spec.off_diagonal_block(2)
        block = Cochain2(SL2, {pair: bracket_defect(action, *pair).block(j, i)
                               for pair in action.ctx.canonical_pairs()})
        family = catalog.build_cocycle("Phi:k=2")
        b = Cochain1(SL2, [block_cache(SL2, *family.block).monomial_op((2, 1))] * 3)
        asked = []
        is_cocycle = cohomology.is_cocycle
        monkeypatch.setattr(cohomology, "is_cocycle", lambda c: asked.append(c) or is_cocycle(c))
        split = decompose_cocycle(block, family)
        assert isinstance(split, Decomposition) and asked == [family]
        assert split.bounds == default_witness_bounds(block, family)
        assert [entry.bounds for entry in obstruction_classes(action).blocks] == [split.bounds]
        asked.clear()
        assert isinstance(coboundary_solve(d1(b)), Witness) and asked == []

    def test_rejects_higher_order_terms(self):
        action = build_infinitesimal(DeformationSpec.resonant_spec(CLASSICAL, 3))
        with_higher = DeformedAction(action.spec, {1: action.first_order, 2: action.first_order})
        with pytest.raises(UsageError):
            obstruction_classes(with_higher)


class TestConditionChecking:
    def test_published_satisfied_point(self):
        spec = DeformationSpec.resonant_spec(
            CLASSICAL, 3, params={"a0": 1, "a2": 3, "b2": 1, "c2": -1}
        )
        verdicts = check_published_conditions(spec)
        assert [(v.k, v.satisfied) for v in verdicts] == [(2, True)]

    def test_published_violated_point(self):
        spec = DeformationSpec.resonant_spec(
            CLASSICAL, 3, params={"a0": 1, "a2": 1, "b2": 1, "c2": 0}
        )
        verdicts = check_published_conditions(spec)
        assert verdicts[0].value == "2" and not verdicts[0].satisfied

    def test_all_zero_point_satisfies(self):
        spec = DeformationSpec.resonant_spec(CLASSICAL, 4, params={})
        assert all(v.satisfied for v in check_published_conditions(spec))

    def test_missing_assignment_rejected(self):
        spec = DeformationSpec.resonant_spec(CLASSICAL, 3)
        with pytest.raises(UsageError):
            check_published_conditions(spec)

    def test_derived_verdicts_at_flat_point(self):
        # engine condition: 2 a2 b2 + c2 (a0 - a2) = 0
        spec = DeformationSpec.resonant_spec(
            CLASSICAL, 3, params={"a0": 1, "a2": 3, "b2": 1, "c2": 3}
        )
        formal = build_infinitesimal(DeformationSpec(CLASSICAL, spec.delta, spec.window))
        report = obstruction_classes(formal)
        assert all(v.satisfied for v in derived_condition_verdicts(report, spec))


class TestVerifyHomomorphism:
    def test_undeformed_passes(self):
        spec = DeformationSpec.resonant_spec(CLASSICAL, 3, params={})
        assert verify_homomorphism(build_infinitesimal(spec)).passed

    def test_engine_condition_point_is_flat(self):
        spec = DeformationSpec.resonant_spec(
            CLASSICAL, 3, params={"a0": 1, "a2": 3, "b2": 1, "c2": 3}
        )
        assert verify_homomorphism(build_infinitesimal(spec)).passed

    def test_violating_point_fails_on_resonant_band(self):
        spec = DeformationSpec.resonant_spec(
            CLASSICAL, 3, params={"a0": 1, "a2": 1, "b2": 1, "c2": 0}
        )
        report = verify_homomorphism(build_infinitesimal(spec))
        assert not report.passed
        _, residual = report.first_failure()
        assert set(residual.blocks) == {(2, 0)}

    def test_super_flat_at_derived_vanishing_point(self):
        # derived super generator: b1 a0 + c1 (a1 - a0); vanishes iff a0 = a1 = 0
        spec = DeformationSpec.resonant_spec(SUPER, 1, params={"a0": 0, "a1": 0, "a-1": 5})
        assert verify_homomorphism(build_infinitesimal(spec)).passed

    def test_super_violating_point_fails(self):
        spec = DeformationSpec.resonant_spec(SUPER, 1, params={"a0": 1, "a1": 2})
        assert not verify_homomorphism(build_infinitesimal(spec)).passed


class TestExample1:
    def test_m3_printed_family_is_flat_and_coincides(self):
        report = example1_family(3, [1, 0, 5])
        assert report.printed_flat
        assert report.solved_flat
        assert report.coincide
        assert report.printed_c[2] == Q(5, 2)
        assert report.solved_c[2] == Q(5, 2)

    def test_alpha_collision_rejected(self):
        with pytest.raises(UsageError):
            example1_family(3, [1, 0, 1])

    def test_short_alpha_list_rejected(self):
        with pytest.raises(UsageError):
            example1_family(3, [1, 2])

    def test_solved_family_always_flat(self):
        for alphas in ([2, 1, -1], ["1/2", 3, "7/3"]):
            report = example1_family(3, alphas)
            assert report.solved_flat


class TestGauge:
    def _flat_formal_action(self):
        return build_infinitesimal(DeformationSpec(CLASSICAL, Q(5, 3), 6))

    def _dressed_formal_action(self):
        """A flat formal action with a formal order-2 term: the coboundary of
        a0 a2 x d_x placed on block (0, 0)."""
        action = self._flat_formal_action()
        spec = action.spec
        algebra = spec.algebra()
        t2 = ParamScalar.symbol(algebra, "a0") * ParamScalar.symbol(algebra, "a2")
        b = DiffOp(spec.delta, spec.delta, [Poly(), Poly([0, 1])]).scale(t2)
        second = [GradedOp(CLASSICAL, spec.delta, spec.window, {(0, 0): action.ctx.act(idx, b)})
                  for idx in range(3)]
        return DeformedAction(spec, {1: action.first_order, 2: second}, truncation_order=2)

    @pytest.mark.parametrize("dressed", [False, True], ids=["first-order", "with-order-2"])
    def test_zero_gauge_is_identity(self, dressed):
        action = self._dressed_formal_action() if dressed else self._flat_formal_action()
        spec = action.spec
        out = gauge_transform(action, GradedOp(CLASSICAL, spec.delta, spec.window),
                              truncation_order=3)
        assert out.terms == action.terms and set(out.terms) == ({1, 2} if dressed else {1})

    @pytest.mark.parametrize("flavor, m, params", [
        (CLASSICAL, 3, {"a0": "1", "a2": "3", "b2": "1", "c2": "3"}),
        (SUPER, 2, {"a0": "1", "a2": "2"}),
    ], ids=["classical-m3", "super-m2"])
    def test_numeric_action_is_refused(self, flavor, m, params):
        """A numeric first-order term has parameter degree 0, so it has no
        order; it is refused rather than dropped."""
        action = build_infinitesimal(DeformationSpec.resonant_spec(flavor, m, params=params))
        spec = action.spec
        assert any(action.first_order)
        with pytest.raises(UsageError, match="parameter-free"):
            gauge_transform(action, GradedOp(flavor, spec.delta, spec.window), truncation_order=2)

    def test_parameter_free_gauge_is_refused(self):
        action = self._flat_formal_action()
        spec = action.spec
        g = GradedOp(CLASSICAL, spec.delta, spec.window)
        w = g.weight_of(1)
        g.set_block(1, 1, DiffOp(w, w, [Poly([0, 1])]))
        with pytest.raises(UsageError, match="parameter-free"):
            gauge_transform(action, g, truncation_order=2)

    def test_gauge_preserves_homomorphism_of_flat_action(self):
        action = self._flat_formal_action()
        spec = action.spec
        algebra = spec.algebra()
        t2 = ParamScalar.symbol(algebra, "a0") * ParamScalar.symbol(algebra, "a1")
        g = GradedOp(CLASSICAL, spec.delta, spec.window)
        w = g.weight_of(1)
        g.set_block(1, 1, DiffOp(w, w, [Poly([0, 0, 1])]).scale(t2))
        gauged = gauge_transform(action, g, truncation_order=3)
        assert gauged.first_order == action.first_order
        assert verify_homomorphism(gauged).passed

    def test_super_gauge_preserves_first_order_and_verdict(self):
        """An order-2 gauge of a super action leaves its first-order part and
        its homomorphism verdict as they were."""
        action = build_infinitesimal(DeformationSpec(SUPER, Q(2, 3), 4))
        spec = action.spec
        algebra = spec.algebra()
        t2 = ParamScalar.symbol(algebra, "a0") * ParamScalar.symbol(algebra, "a1")
        g = GradedOp(SUPER, spec.delta, spec.window)
        w = g.weight_of(1)
        g.set_block(1, 1, SuperDiffOp(w, w, [SuperPoly(Poly([0, 1]))]).scale(t2))
        gauged = gauge_transform(action, g, truncation_order=3)
        assert gauged.first_order == action.first_order and gauged.higher_terms()
        assert verify_homomorphism(gauged).passed is verify_homomorphism(action).passed is True

    def test_trivialize_removes_artificial_coboundary(self):
        action = self._flat_formal_action()
        gauge, fixed = trivialize_second_order(self._dressed_formal_action())
        assert bool(gauge)
        assert not fixed.terms.get(2) or not any(fixed.terms[2])
        assert fixed.first_order == action.first_order

    def test_trivialize_flat_input_returns_zero_gauge(self):
        action = self._flat_formal_action()
        gauge, same = trivialize_second_order(action)
        assert not gauge
        assert same.first_order == action.first_order

    def test_trivialize_refuses_a_second_order_class(self):
        """A second-order term with a class in H^1, a0*a1 * A:lambda=5/3 on
        block (0, 0) of a flat formal action, is no bounded coboundary."""
        action = self._flat_formal_action()
        spec = action.spec
        algebra = spec.algebra()
        t2 = ParamScalar.symbol(algebra, "a0") * ParamScalar.symbol(algebra, "a1")
        assert verify_homomorphism(action).passed
        second = [GradedOp(CLASSICAL, spec.delta, spec.window, {(0, 0): image.scale(t2)})
                  for image in catalog.build_cocycle("A:lambda=5/3").images.values()]
        dressed = DeformedAction(spec, {1: action.first_order, 2: second}, truncation_order=2)
        assert trivialize_second_order(dressed) == NotTrivializable(
            reason="second-order term is not a bounded coboundary on block (0, 0)", classes=[])

    @pytest.mark.parametrize("flavor, m, params, second", [
        (CLASSICAL, 3, {"a0": "1"}, False),
        (CLASSICAL, 3, {"a0": "1"}, True),
        (SUPER, 2, {"a0": "1", "a2": "2"}, False),
    ], ids=["classical-flat", "classical-with-order-2", "super-flat"])
    def test_trivialize_refuses_a_numeric_action_first(self, monkeypatch, flavor, m, params,
                                                        second):
        """A numeric action is refused in the words of gauge_transform before
        any obstruction work, with or without an order-2 term."""
        action = build_infinitesimal(DeformationSpec.resonant_spec(flavor, m, params=params))
        spec = action.spec
        if second:  # the coboundary of x d_x on block (0, 0)
            b = DiffOp(spec.delta, spec.delta, [Poly(), Poly([0, 1])])
            action = DeformedAction(spec, {1: action.first_order, 2: [
                GradedOp(flavor, spec.delta, spec.window, {(0, 0): action.ctx.act(idx, b)})
                for idx in range(action.ctx.dim)]}, truncation_order=2)

        def no_obstruction_work(*args, **kwargs):
            raise AssertionError("obstruction_classes ran on a numeric action")

        monkeypatch.setattr(deformation, "obstruction_classes", no_obstruction_work)
        with pytest.raises(UsageError, match="trivialize_second_order needs every deformation "
                                             "and gauge coefficient to be of positive "
                                             "parameter degree; a parameter-free term"):
            trivialize_second_order(action)

    def test_trivialize_blocked_by_nonzero_class(self):
        action = build_infinitesimal(DeformationSpec.resonant_spec(CLASSICAL, 3))
        out = trivialize_second_order(action)
        assert isinstance(out, NotTrivializable)
        assert out.classes == ["a0*c2 + 2*a2*b2 - a2*c2"]

    def test_obstruction_classes_gauge_invariant(self):
        action = build_infinitesimal(DeformationSpec.resonant_spec(CLASSICAL, 3))
        spec = action.spec
        algebra = spec.algebra()
        t2 = ParamScalar.symbol(algebra, "b2") * ParamScalar.symbol(algebra, "c2")
        g = GradedOp(CLASSICAL, spec.delta, spec.window)
        w = g.weight_of(2)
        g.set_block(2, 2, DiffOp(w, w, [Poly([1, 1])]).scale(t2))
        gauged = gauge_transform(action, g, truncation_order=2)
        before = [str(b.class_coeff) for b in obstruction_classes(action).blocks]
        after = [
            str(b.class_coeff)
            for b in obstruction_classes(DeformedAction(spec, {1: gauged.first_order})).blocks
        ]
        assert before == after


# -- the fast defect against the full typed bracket ---------------------------


def typed_defect(action, i, j):
    """[L0_i + Phi_i, L0_j + Phi_j] - L_[i,j], with L0 built afresh and
    every term composed in full."""
    spec, ctx = action.spec, action.ctx

    def full(g):
        return (undeformed_action(ctx.basis[g], spec.flavor, spec.delta, spec.window)
                + action.first_order[g])

    sign = -1 if ctx.parities[i] and ctx.parities[j] else 1
    defect = full(i).bracket(full(j), sign)
    for g, coeff in enumerate(ctx.structure[(i, j)]):
        if coeff:
            defect = defect - full(g).scale(coeff)
    return defect


BUILDERS = {CLASSICAL: ("A", "B", "C"), SUPER: ("Yprime", "Y", "Ytilde")}


def perturbed(family):
    """The family plus one monomial on the image of the first (even) basis
    element: not a cocycle, which the typed d1 confirms."""
    cache = block_cache(family.algebra, *family.block)
    mon = (3, 1) if family.algebra == "sl2" else (3, family.parity, 0)
    images = dict(family.images)
    images[0] = images[0] + cache.monomial_op(mon)
    broken = Cochain1(family.algebra, images, family.parity)
    assert not d1(broken).is_zero()
    return broken


@contextmanager
def broken_family(name):
    """Within the block, the builder of the named catalog family returns a
    non-cocycle; the per-instance certificates are cleared on both sides."""
    catalog.certified_cocycle.cache_clear()
    try:
        if name is None:
            yield
        else:
            build, keys = catalog._FAMILIES[name]
            with mock.patch.dict(catalog._FAMILIES,
                                 {name: (lambda *args: perturbed(build(*args)), keys)}):
                yield
    finally:
        catalog.certified_cocycle.cache_clear()


VALUES = st.one_of(st.just(Q(0)), st.fractions(min_value=-3, max_value=3, max_denominator=3))
BANDS = [(CLASSICAL, m) for m in (2, 3, 4, 5)] + [(SUPER, m) for m in (1, 2, 3)]


def draw_point(data, spec, values):
    """A numeric spec on the same band: every even parameter drawn from
    `values`, each odd one pinned to 0 or left out (formal)."""
    algebra = spec.algebra()
    point = data.draw(st.fixed_dictionaries(
        {name: values for name in algebra.even},
        optional={name: st.just(Q(0)) for name in algebra.odd}), label="point")
    return DeformationSpec.resonant_spec(spec.flavor, spec.m, params=point)


@pytest.mark.parametrize("flavor,m", BANDS)
@settings(max_examples=7)
@given(data=st.data())
def test_fast_defect_is_the_typed_bracket(flavor, m, data):
    """The defect of an assembled action is [Phi_i, Phi_j], formal or at a
    rational point (odd parameters pinned to 0 or formal), and a family that
    is not a cocycle never reaches it: assembly raises InternalError instead."""
    spec = DeformationSpec.resonant_spec(flavor, m)
    if data.draw(st.booleans(), label="numeric"):
        spec = draw_point(data, spec, VALUES)
    broken = data.draw(st.sampled_from((None,) + BUILDERS[flavor]), label="broken")
    with broken_family(broken):
        try:
            action = build_infinitesimal(spec)
        except InternalError:
            assert broken is not None
            return
        for (i, j) in action.ctx.canonical_pairs():
            assert bracket_defect(action, i, j) == typed_defect(action, i, j), (i, j)


@lru_cache(maxsize=None)
def formal_report(flavor, m):
    return obstruction_classes(build_infinitesimal(DeformationSpec.resonant_spec(flavor, m)))


@pytest.mark.parametrize("flavor,m", BANDS)
@settings(max_examples=6)
@given(data=st.data())
def test_flatness_is_the_derived_conditions_at_every_point(flavor, m, data):
    """The row at a point is flat exactly when every derived condition holds
    there: the row and the conditions read the same ``DeformationSpec.point()``,
    so an odd parameter pinned to 0 is zero in both.  Small values, three in
    seven of them zero, put many points on the variety."""
    values = st.sampled_from((Q(0), Q(0), Q(0), Q(1), Q(-1), Q(2), Q(1, 2)))
    spec = draw_point(data, DeformationSpec.resonant_spec(flavor, m), values)
    conditions = derived_condition_verdicts(formal_report(flavor, m), spec)
    assert verify_homomorphism(build_infinitesimal(spec)).passed == all(
        verdict.satisfied for verdict in conditions)


@pytest.mark.parametrize("flavor,m,params", [
    (CLASSICAL, 3, {"a0": "1", "a2": "1", "b2": "1", "c2": "0"}),
    (SUPER, 2, {"a1": "1", "a0": "2"}),
    (SUPER, 2, {"a1": "1", "a0": "2", "b1": "0"}),
])
def test_defect_is_quadratic_in_the_row(flavor, m, params):
    """The family t * p has t^2 times the defect of the row at p, so it is
    flat exactly when that row is (``example1_family`` relies on this).  The
    plain-tuple row t * p is expanded in full, L0 terms and all."""
    t = ParamScalar.symbol(ParamAlgebra(even=("t",), odd=()), "t")
    spec = DeformationSpec.resonant_spec(flavor, m, params=params)
    action = build_infinitesimal(spec)
    family = DeformedAction(spec, {1: tuple(g.scale(t) for g in action.terms[1])})
    defects = {pair: bracket_defect(action, *pair) for pair in action.ctx.canonical_pairs()}
    assert any(defects.values())
    for pair, defect in defects.items():
        assert bracket_defect(family, *pair) == defect.scale(t * t), pair


def test_witness_with_content_renders():
    """Every witness the engine derives is zero, so the rendering of one with
    content is pinned here, on an osp(1|2) block."""
    report = obstruction_classes(build_infinitesimal(DeformationSpec.resonant_spec(SUPER, 2)))
    entry = report.blocks[0]
    lam, mu = entry.witness.block
    a0 = ParamScalar.symbol(report.spec.algebra(), "a0")
    images = list(entry.witness.images.values())  # all zero
    images[0] = (SuperDiffOp(lam, mu, [SuperPoly(Poly([Q(1, 2)]))])
                 + SuperDiffOp(lam, mu, [SuperPoly(Poly.x_power(2))]).scale(a0))
    entry.witness = Cochain1("osp12", images)
    rendered = entry.to_json()["witness"]["images"]
    assert rendered[0] == {"lambda": "0", "mu": "1/2", "parity": "even",
                           "coeffs": [{"f0": ["1/2", "0", "a0"], "f1": []}]}
    assert rendered[1:] == [{"lambda": "0", "mu": "1/2", "parity": "zero", "coeffs": []}] * 4


def count_calls(monkeypatch, owner, name):
    """The arguments of every call of owner.name from now on."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("flavor,m", [(CLASSICAL, 3), (SUPER, 2)])
def test_certificate_travels_with_the_row(monkeypatch, flavor, m):
    """Every action that holds the certified row untruncated and alone on
    the row's flavor, delta and window takes the short defect, kept once by
    the row: the built action, a wrapper (under a numeric spec too) and the
    first-order view of a gauge result that left the first order as it was.
    A plain-tuple copy of the row is expanded in full and agrees; the row
    under a spec with another window is expanded in full too, and refused
    there."""
    action = build_infinitesimal(DeformationSpec.resonant_spec(flavor, m))
    spec, row = action.spec, action.first_order
    g = GradedOp(flavor, spec.delta, spec.window)
    w = g.weight_of(1)
    t2 = ParamScalar.symbol(spec.algebra(), "a0") * ParamScalar.symbol(spec.algebra(), "a1")
    g.set_block(1, 1, (DiffOp(w, w, [Poly([0, 1])]) if flavor == CLASSICAL
                       else SuperDiffOp(w, w, [SuperPoly(Poly([0, 1]))])).scale(t2))
    gauged = gauge_transform(action, g, truncation_order=3)
    assert gauged.first_order is row and gauged.higher_terms()
    numeric = DeformationSpec(flavor, spec.delta, spec.window, {"a0": 1})
    holders = [action, DeformedAction(spec, {1: row}), DeformedAction(numeric, {1: row}),
               DeformedAction(spec, {1: gauged.first_order})]
    copy = DeformedAction(spec, {1: tuple(row)})
    elsewhere = DeformedAction(DeformationSpec(flavor, spec.delta, spec.window + 2), {1: row})
    assert all(a._certified() for a in holders)
    assert not any(a._certified() for a in (copy, gauged, elsewhere))
    full = count_calls(monkeypatch, DeformedAction, "full")
    composed = count_calls(monkeypatch, GradedOp, "compose")
    pairs = action.ctx.canonical_pairs()
    kept = {pair: bracket_defect(action, *pair) for pair in pairs}
    assert len(composed) == 2 * len(pairs) and not full
    for holder in holders[1:]:
        assert {pair: bracket_defect(holder, *pair) for pair in pairs} == kept
    assert len(composed) == 2 * len(pairs) and not full
    for pair in pairs:
        assert bracket_defect(copy, *pair) == kept[pair] == typed_defect(action, *pair)
    assert full
    with pytest.raises(UsageError, match="different windows"):
        bracket_defect(elsewhere, *pairs[0])


def test_trivialize_expands_no_defect_in_full(monkeypatch):
    """Trivializing a built action, or a gauged one with the same first
    order, asks no full action: the obstruction step reads the certified
    row.  The result is the one a plain-tuple copy gets in full."""
    action = build_infinitesimal(DeformationSpec.resonant_spec(CLASSICAL, 3))
    spec = action.spec
    g = GradedOp(CLASSICAL, spec.delta, spec.window)
    w = g.weight_of(2)
    t2 = ParamScalar.symbol(spec.algebra(), "b2") * ParamScalar.symbol(spec.algebra(), "c2")
    g.set_block(2, 2, DiffOp(w, w, [Poly([1, 1])]).scale(t2))
    gauged = gauge_transform(action, g, truncation_order=2)
    assert gauged.first_order is action.first_order and gauged.higher_terms()
    copies = [DeformedAction(spec, {order: tuple(row) for order, row in a.terms.items()},
                             a.truncation_order) for a in (action, gauged)]
    full = count_calls(monkeypatch, DeformedAction, "full")
    results = [trivialize_second_order(a) for a in (action, gauged)]
    assert full == []
    assert results == [trivialize_second_order(a) for a in copies]
    assert full
    assert results[0] == NotTrivializable(reason="nonzero obstruction class",
                                          classes=["a0*c2 + 2*a2*b2 - a2*c2"])


def test_first_order_builds_nothing_when_present(monkeypatch):
    """`first_order` is the order-1 terms themselves; zero operators, one per
    basis element, are built only for an action without them."""
    action = build_infinitesimal(DeformationSpec.resonant_spec(SUPER, 3))
    assert action.first_order is action.terms[1]
    built = []
    original = deformation.GradedOp

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(deformation, "GradedOp", counting)
    for _ in range(100):
        assert action.first_order is action.terms[1]
    assert built == []
    zeros = DeformedAction(action.spec, {2: action.terms[1]}).first_order
    assert len(built) == len(zeros) == action.ctx.dim and not any(zeros)


def test_each_family_is_certified_once_per_process(monkeypatch):
    """The sign-convention check, the placed families and the obstruction
    bases share one certificate per id: after the check, a classical m = 3
    obstruction builds and checks none of its samples again."""
    for cache in (catalog.calibrate_convention, catalog.certified_cocycle):
        cache.cache_clear()
    catalog.calibrate_convention()
    built = count_calls(monkeypatch, catalog, "build_cocycle")
    checked = count_calls(monkeypatch, catalog, "is_cocycle")
    obstruction_classes(build_infinitesimal(DeformationSpec.resonant_spec(CLASSICAL, 3)))
    built_ids = {str(cid) for (cid,) in built}
    assert built_ids and not built_ids & {"B:m=3,k=2", "C:m=3,k=2", "Phi:k=2"}
    assert len(checked) == len(built)


class TestReassemblyDefects:
    def test_kept_defects_serve_the_same_row(self, monkeypatch):
        """The defects the report was built on are the row's: reassembly on
        the action, or on a wrapper of its row, composes nothing."""
        action = build_infinitesimal(DeformationSpec.resonant_spec(CLASSICAL, 3))
        report = obstruction_classes(action)
        composed = count_calls(monkeypatch, GradedOp, "compose")
        assert report.verify_reassembly(action)
        assert report.verify_reassembly(DeformedAction(action.spec, {1: action.first_order}))
        assert composed == []

    def test_other_row_is_recomputed(self, monkeypatch):
        spec = DeformationSpec.resonant_spec(CLASSICAL, 3)
        report = obstruction_classes(build_infinitesimal(spec))
        composed = count_calls(monkeypatch, GradedOp, "compose")
        # an equal action built again has a new row: composed once, and it agrees
        again = build_infinitesimal(spec)
        pairs = again.ctx.canonical_pairs()
        assert report.verify_reassembly(again)
        assert len(composed) == 2 * len(pairs)
        assert report.verify_reassembly(again)
        assert len(composed) == 2 * len(pairs)
        # a numeric point has other defects: composed, and it disagrees
        point = build_infinitesimal(DeformationSpec.resonant_spec(
            CLASSICAL, 3, params={"a0": 1, "a2": 1, "b2": 1, "c2": 0}))
        assert not report.verify_reassembly(point)
        assert len(composed) == 4 * len(pairs)

    @pytest.mark.parametrize("flavor,m", [(CLASSICAL, 3), (SUPER, 2)])
    def test_replaced_terms_are_expanded_in_full(self, flavor, m):
        """An assembled action's terms are tuples, so no term can be edited
        in place; once its first order is replaced by a plain tuple, the
        defect is the full expansion and the row's kept defects no longer
        serve the reassembly."""
        action = build_infinitesimal(DeformationSpec.resonant_spec(flavor, m))
        report = obstruction_classes(action)
        phi = action.terms[1]
        with pytest.raises(TypeError):
            phi[-1] = phi[-1].scale(2)
        assert type(DeformedAction(action.spec, {1: list(phi)}).terms[1]) is tuple
        action.terms[1] = phi[:-1] + (phi[-1].scale(2),)
        parities = action.ctx.parities
        changed = 0
        for (i, j) in action.ctx.canonical_pairs():
            defect = bracket_defect(action, i, j)
            assert defect == typed_defect(action, i, j), (i, j)
            fast = action.terms[1][i].bracket(action.terms[1][j],
                                              -1 if parities[i] and parities[j] else 1)
            changed += defect != fast
        assert changed
        assert not report.verify_reassembly(action)

    @pytest.mark.parametrize("flavor,m", [(CLASSICAL, 3), (SUPER, 2)])
    def test_recomputed_defects_decide(self, flavor, m):
        """Another row is asked afresh: an action rebuilt from the same spec
        reassembles, and a copy of the action with one first-order term
        doubled, expanded in full, does not."""
        spec = DeformationSpec.resonant_spec(flavor, m)
        action = build_infinitesimal(spec)
        report = obstruction_classes(action)
        assert report.verify_reassembly(build_infinitesimal(spec))
        terms = list(action.first_order)
        assert terms[-1]
        terms[-1] = terms[-1].scale(2)
        assert not report.verify_reassembly(DeformedAction(spec, {1: terms}))


# -- the sign rule and the rendering, pinned ----------------------------------


def placement_pair_defect(spec, i, j):
    """[Phi_i, Phi_j] rebuilt placement pair by placement pair from the
    parameter-free images of the certified families, by the rule
    (p A)(q B) = s (pq)(A B): s is the sign of kernel._mul_monomials(p, q)
    times the Koszul factor (-1)^(|A||q|) of moving q past A.  Returns
    {(parameter monomial, block): parameter-free operator}."""
    ctx = cohomology.algebra_for_flavor(spec.flavor)
    algebra = spec.algebra()
    placed = [(block, *ParamScalar.symbol(algebra, name).terms, catalog.certified_cocycle(cid))
              for block, name, cid in spec.placements()]
    sign = -1 if ctx.parities[i] and ctx.parities[j] else 1
    out: dict = {}
    for a_block, p, a_family in placed:
        for b_block, q, b_family in placed:
            if b_block[1] != a_block[0]:  # b maps j0 -> mid, then a maps mid -> i0
                continue
            hit = _mul_monomials(p, q)
            if hit is None:
                continue
            s, pq = hit
            for left, right, factor in ((i, j, 1), (j, i, -sign)):
                A, B = a_family.images[left], b_family.images[right]
                koszul = -1 if (A.parity() or 0) and len(q[1]) & 1 else 1
                term = compose(A, B).scale(factor * s * koszul)
                key = (pq, (b_block[0], a_block[1]))
                out[key] = out[key] + term if key in out else term
    return out


def coords_by_monomial(algebra, op):
    """{parameter monomial: coordinates} of one operator, empty ones dropped."""
    return {pmon: coords for pmon, coords in
            cohomology._cochain_coords(cohomology.Cochain0(algebra, op)).items() if coords}


@pytest.mark.parametrize("flavor,m", [(CLASSICAL, m) for m in (2, 3, 4, 5)]
                         + [(SUPER, m) for m in (1, 2, 3)])
def test_defect_is_the_placement_pair_sum(flavor, m):
    """Each defect of the formal first-order action equals, per parameter
    monomial and block, the placement-pair sum of ``placement_pair_defect``."""
    spec = DeformationSpec.resonant_spec(flavor, m)
    action = build_infinitesimal(spec)
    name = action.ctx.name
    for (i, j) in action.ctx.canonical_pairs():
        defect = bracket_defect(action, i, j)
        expected: dict = {}
        for (pmon, block), op in placement_pair_defect(spec, i, j).items():
            coords = coords_by_monomial(name, op).get(_ONE_MON)
            if coords:
                expected.setdefault(block, {})[pmon] = coords
        got = {block: coords_by_monomial(name, op) for block, op in defect.blocks.items()}
        assert {b: c for b, c in got.items() if c} == expected, (flavor, m, i, j)


WITNESS_PARAMS = ParamAlgebra(even=("s", "u"), odd=("beta", "gamma"))
WS, WU, WBETA, WGAMMA = (ParamScalar.symbol(WITNESS_PARAMS, n) for n in ("s", "u", "beta", "gamma"))


def rendered_witness(family, t, images):
    """The witness of decompose_cocycle(t * family + d1(b), family), b with
    the given images, as BlockObstruction.to_json renders it."""
    b = Cochain1(family.algebra, images)
    split = decompose_cocycle(family.scale(t) + d1(b), family)
    assert split.coeff == t
    entry = deformation.BlockObstruction(
        k=2, source_k=2, target_k=0, basis_id=str(family), basis=family,
        class_coeff=split.coeff, witness=split.witness, bounds=split.bounds,
        verdict="decomposed")
    return json.dumps(entry.to_json()["witness"], sort_keys=True)


def test_parametric_witness_renders_classical():
    family = catalog.cocycle_Phi(2)
    cache = block_cache("sl2", *family.block)
    images = [cache.monomial_op((1, 1)).scale(WS), cache.monomial_op((2, 1)).scale(WU * WS - 1),
              cache.monomial_op((3, 2)).scale(WBETA * WGAMMA)]
    assert rendered_witness(family, 3 * WS - WU, images) == (
        '{"images": [{"coeffs": [[], ["0", "s"], ["0", "-beta*gamma"]], "lambda": "-1/2", '
        '"mu": "3/2"}, {"coeffs": [[], ["0", "0", "-1 + s*u"], ["0", "0", "-beta*gamma"]], '
        '"lambda": "-1/2", "mu": "3/2"}, {"coeffs": [], "lambda": "-1/2", "mu": "3/2"}]}')


def test_parametric_witness_renders_super():
    family = catalog.cocycle_Omega(2)
    cache = block_cache("osp12", *family.block)
    images = [cache.monomial_op((1, 0, 1)).scale(WBETA), cache.monomial_op((1, 1, 0)).scale(WS),
              cache.monomial_op((2, 1, 0)).scale(WGAMMA), cache.monomial_op((2, 0, 1)).scale(WU),
              cache.monomial_op((1, 1, 2)).scale(WBETA)]
    assert rendered_witness(family, WBETA - 2 * WS * WGAMMA, images) == (
        '{"images": [{"coeffs": [{"f0": [], "f1": []}, {"f0": ["0", "beta"], "f1": []}], '
        '"lambda": "-1/2", "mu": "1", "parity": "even"}, {"coeffs": [{"f0": [], '
        '"f1": ["0", "s"]}, {"f0": [], "f1": []}, {"f0": ["1/4*beta"], "f1": []}], '
        '"lambda": "-1/2", "mu": "1", "parity": "odd"}, {"coeffs": [{"f0": [], '
        '"f1": ["0", "0", "gamma"]}, {"f0": [], "f1": []}, {"f0": [], "f1": ["-1/2*beta"]}], '
        '"lambda": "-1/2", "mu": "1", "parity": "even"}, {"coeffs": [{"f0": [], "f1": []}, '
        '{"f0": ["0", "0", "u"], "f1": ["-1/4*beta"]}, {"f0": ["0", "1/4*beta"], "f1": []}], '
        '"lambda": "-1/2", "mu": "1", "parity": "odd"}, {"coeffs": [{"f0": [], '
        '"f1": ["1/2*beta"]}], "lambda": "-1/2", "mu": "1", "parity": "even"}]}')
