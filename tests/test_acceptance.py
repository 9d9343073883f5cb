"""Acceptance criteria, one test per criterion, exact (zero-tolerance)
equality throughout.  Each criterion prints a single PASS line on success
(run with -s to see them); any failure fails the corresponding test.

1.  Cocycle suite: d=0 for every catalog family instance (<10 s).
2.  Nontriviality suite: no bounded witnesses, stable under bumped bounds,
    and independence of the resonant pair families (<60 s).
3.  Dimension reproduction on diagonal and resonant blocks.
4.  Classical theorem reproduction, m in {2..5}: one generator per k,
    vanish-iff-coboundary at 20 rational points per m, flat at vanishing
    points, concordance with the printed conditions recorded.
5.  Super theorem reproduction, m in {1..3}: same protocol, odd
    parameters kept formal.
6.  Parity-decomposition identity for k in {2,3,4}, plus nontriviality of
    the odd degree-2 family.
7.  One-parameter family audit, m in {3,4,5}, three alpha vectors each.
8.  Differential-structure suite: d1 o d0 = 0 and d2 o d1 = 0 on 50
    randomized cochains per algebra; module axioms up to degree 12.
"""

import random
import time
from fractions import Fraction as Q

from symdef.catalog import (_CALIBRATION_SAMPLES, _TYPED_CROSS_CHECK, build_cocycle,
                            calibrate_convention, lemma23_check, parse_catalog_id)
from symdef.cohomology import (
    Cochain0,
    Cochain1,
    Cochain2,
    NoSolutionWithinBounds,
    OSP12,
    SL2,
    classes_independent,
    coboundary_solve,
    cohomology_dim,
    d0,
    d1,
    d2,
    get_algebra,
)
from symdef.deformation import (
    DeformationSpec,
    bracket_defect,
    build_infinitesimal,
    example1_family,
    obstruction_classes,
    proportional_up_to_scalar,
    published_condition,
    verify_homomorphism,
)
from symdef.geometry import (
    CLASSICAL,
    SUPER,
    Density,
    Poly,
    SuperPoly,
    contact_bracket,
    density_action,
    osp_basis,
    sl2_basis,
    super_density_action,
    vf_bracket,
)
from symdef.operators import DiffOp, SuperDiffOp

LAMBDA_SET = [Q(0), Q(1, 2), Q(1), Q(2), Q(-1, 2), Q(5, 3)]


def family_instances():
    ids = [f"A:lambda={l}" for l in ("0", "1/2", "1", "2", "-1/2", "5/3")]
    for m in (2, 3, 4, 5):
        for k in range((m + 1) // 2, m):
            ids.append(f"B:m={m},k={k}")
            ids.append(f"C:m={m},k={k}")
    ids.extend(f"Phi:k={k}" for k in range(1, 6))
    ids.extend(f"Yprime:lambda={l}" for l in ("0", "1/2", "1", "2", "-1/2", "5/3"))
    for k in range(1, 5):
        ids.extend([f"Y:k={k}", f"Ytilde:k={k}", f"Omega:k={k}"])
    return ids


def is_closed(cochain) -> bool:
    if isinstance(cochain, Cochain1):
        return d1(cochain).is_zero()
    return all(not v for v in d2(cochain).values())


def test_criterion_1_cocycle_suite():
    start = time.time()
    record = calibrate_convention()
    assert record["is_default"]
    for text in family_instances():
        assert is_closed(build_cocycle(text)), text
    elapsed = time.time() - start
    assert elapsed < 10.0, f"cocycle suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1: PASS - all catalog families are exact cocycles ({elapsed:.1f}s)")


def test_every_calibration_sample_is_under_the_typed_oracle():
    """The per-process check runs the typed d1/d2 on one sample per degree
    only; criterion 1 keeps every sample closed under the typed d1/d2."""
    instances = set(family_instances())
    for text in _CALIBRATION_SAMPLES:
        assert str(parse_catalog_id(text)) in instances, text
    assert set(_TYPED_CROSS_CHECK) <= set(_CALIBRATION_SAMPLES)
    assert {build_cocycle(text).degree for text in _TYPED_CROSS_CHECK} == {1, 2}


def test_criterion_2_nontriviality_suite():
    start = time.time()
    for text in family_instances():
        cochain = build_cocycle(text)
        base = coboundary_solve(cochain)
        assert isinstance(base, NoSolutionWithinBounds), text
        bumped = coboundary_solve(cochain, base.bounds.bumped())
        assert isinstance(bumped, NoSolutionWithinBounds), text
    for m in (2, 3, 4, 5):
        for k in range((m + 1) // 2, m):
            pair = [build_cocycle(f"B:m={m},k={k}"), build_cocycle(f"C:m={m},k={k}")]
            assert classes_independent(pair), (m, k)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"nontriviality suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 2: PASS - all families nontrivial within stable bounds ({elapsed:.1f}s)")


def test_criterion_3_dimension_reproduction():
    start = time.time()
    for lam in (Q(0), Q(5, 3)):
        outcome = cohomology_dim((lam, lam), 1, SL2)
        assert (outcome.dim, outcome.stabilized) == (1, True), ("sl2 diag", lam)
        outcome = cohomology_dim((lam, lam), 1, OSP12)
        assert (outcome.dim, outcome.stabilized) == (1, True), ("osp diag", lam)
    classical_blocks = set()
    for m in (2, 3, 4):
        for k in range((m + 1) // 2, m):
            classical_blocks.add((Q(m - 2 * k, 2), Q(2 + 2 * k - m, 2)))
    for weights in sorted(classical_blocks):
        outcome = cohomology_dim(weights, 1, SL2)
        assert (outcome.dim, outcome.stabilized) == (2, True), ("sl2 resonant", weights)
        outcome = cohomology_dim(weights, 2, SL2)
        assert (outcome.dim, outcome.stabilized) == (1, True), ("sl2 degree 2", weights)
    super_blocks = set()
    for m in (1, 2, 3):
        for k in range(1, m + 1):
            super_blocks.add((Q(1 - k, 2), Q(k, 2)))
    for weights in sorted(super_blocks):
        outcome = cohomology_dim(weights, 1, OSP12)
        assert (outcome.dim, outcome.stabilized) == (2, True), ("osp resonant", weights)
    elapsed = time.time() - start
    print(f"ACCEPTANCE 3: PASS - truncated dimensions match the stated values ({elapsed:.1f}s)")


def _numeric_defect_blocks(action):
    ctx = action.ctx
    pairs = ctx.canonical_pairs()
    defects = {pair: bracket_defect(action, *pair) for pair in pairs}
    out = {}
    for k in action.spec.resonant_range():
        key = action.spec.off_diagonal_block(k)
        images = {pair: defects[pair].block(*key) for pair in pairs}
        out[k] = Cochain2(ctx.name, images)
    # anything outside the recognized band must vanish
    leftovers = set()
    for defect in defects.values():
        leftovers.update(defect.blocks)
    band = {action.spec.off_diagonal_block(k) for k in action.spec.resonant_range()}
    assert all(key in band for key in leftovers), leftovers
    return out


def _block_is_coboundary(block_cochain) -> bool:
    """One solve for the whole block, odd parameters and all: coboundary_solve
    splits it by parameter monomial and re-checks the witness exactly."""
    return not isinstance(coboundary_solve(block_cochain), NoSolutionWithinBounds)


def _classical_points(m, rng, count):
    """Half engineered to satisfy the derived conditions, half random."""
    points = []
    ks = list(range((m + 1) // 2, m))
    while len(points) < count // 2:
        point = {f"a{c}": Q(rng.randrange(-3, 4)) for c in range(m + 1)}
        ok = True
        for k in ks:
            if point[f"a{k}"] == point[f"a{m - 1 - k}"]:
                ok = False
                break
            point[f"b{k}"] = Q(rng.randrange(-3, 4))
            # derived condition: (2k-m+1) b_k a_k + c_k (a_{m-1-k} - a_k) = 0
            point[f"c{k}"] = (
                Q(2 * k - m + 1) * point[f"b{k}"] * point[f"a{k}"]
                / (point[f"a{k}"] - point[f"a{m - 1 - k}"])
            )
        if ok:
            points.append(point)
    while len(points) < count:
        point = {f"a{c}": Q(rng.randrange(-3, 4)) for c in range(m + 1)}
        for k in ks:
            point[f"b{k}"] = Q(rng.randrange(-3, 4))
            point[f"c{k}"] = Q(rng.randrange(-3, 4))
        points.append(point)
    return points


def _certify(flavor, m, points, formal_report):
    generators = {entry.k: entry.class_coeff for entry in formal_report.blocks}
    for point in points:
        spec = DeformationSpec.resonant_spec(flavor, m, params=point)
        action = build_infinitesimal(spec)
        values = {k: gen.substitute(point) for k, gen in generators.items()}
        vanish = all(not v for v in values.values())
        blocks = _numeric_defect_blocks(action)
        coboundary = all(_block_is_coboundary(b) for b in blocks.values())
        assert vanish == coboundary, (flavor, m, point, {k: str(v) for k, v in values.items()})
        if vanish:
            assert verify_homomorphism(action).passed, (flavor, m, point)


def test_criterion_4_classical_theorem_reproduction():
    start = time.time()
    rng = random.Random(20240)
    concordance = {}
    for m in (2, 3, 4, 5):
        spec = DeformationSpec.resonant_spec(CLASSICAL, m)
        action = build_infinitesimal(spec)
        report = obstruction_classes(action)
        assert report.verdict == "derived"
        assert [entry.k for entry in report.blocks] == list(range((m + 1) // 2, m))
        assert all(entry.class_coeff for entry in report.blocks)
        assert report.verify_reassembly(action)
        for entry in report.blocks:
            scalar = proportional_up_to_scalar(entry.class_coeff, published_condition(spec, entry.k))
            concordance[(m, entry.k)] = (
                "equal up to nonzero scalar" if scalar is not None else "discrepancy"
            )
        _certify(CLASSICAL, m, _classical_points(m, rng, 20), report)
    elapsed = time.time() - start
    print(
        "ACCEPTANCE 4: PASS - classical obstruction calculus internally certified "
        f"({elapsed:.1f}s); concordance with printed conditions: {concordance}"
    )


def _super_points(m, rng, count):
    names = [f"a{m - j}" for j in range(max(8, 2 * m + 2) + 1)]
    constrained = [f"a{n}" for n in range(1 - m, m + 1)]
    points = []
    while len(points) < count // 2:
        point = {name: Q(0) for name in constrained}
        for name in names:
            if name not in point:
                point[name] = Q(rng.randrange(-3, 4))
        points.append(point)
    while len(points) < count:
        point = {name: Q(rng.randrange(-3, 4)) for name in names}
        points.append(point)
    return points


def test_criterion_5_super_theorem_reproduction():
    start = time.time()
    rng = random.Random(20241)
    concordance = {}
    for m in (1, 2, 3):
        spec = DeformationSpec.resonant_spec(SUPER, m)
        action = build_infinitesimal(spec)
        report = obstruction_classes(action)
        assert report.verdict == "derived"
        assert [entry.k for entry in report.blocks] == list(range(1, m + 1))
        assert all(entry.class_coeff for entry in report.blocks)
        assert report.verify_reassembly(action)
        for entry in report.blocks:
            scalar = proportional_up_to_scalar(entry.class_coeff, published_condition(spec, entry.k))
            concordance[(m, entry.k)] = (
                "equal up to nonzero scalar" if scalar is not None else "discrepancy"
            )
        _certify(SUPER, m, _super_points(m, rng, 20), report)
    elapsed = time.time() - start
    print(
        "ACCEPTANCE 5: PASS - super obstruction calculus internally certified "
        f"({elapsed:.1f}s); concordance with printed conditions: {concordance}"
    )


def test_criterion_6_decomposition_identity():
    start = time.time()
    for k in (2, 3, 4):
        assert lemma23_check(k).passed, k
        omega = build_cocycle(f"Omega:k={k}")
        base = coboundary_solve(omega)
        assert isinstance(base, NoSolutionWithinBounds), k
        assert isinstance(coboundary_solve(omega, base.bounds.bumped()), NoSolutionWithinBounds), k
    elapsed = time.time() - start
    print(f"ACCEPTANCE 6: PASS - parity decomposition holds; odd family nontrivial ({elapsed:.1f}s)")


def test_criterion_7_one_parameter_family_audit():
    start = time.time()
    alpha_vectors = {
        3: [[1, 0, 5], [2, 1, -1], [Q(1, 2), 3, Q(7, 3)]],
        4: [[1, 2, 3, 4], [0, 1, -1, 5], [Q(1, 3), Q(1, 4), Q(1, 5), Q(1, 6)]],
        5: [[1, 2, 3, 4, 5], [0, -1, 7, 2, Q(1, 2)], [2, 0, Q(1, 2), 1, 3]],
    }
    verdicts = {}
    for m, vectors in alpha_vectors.items():
        for idx, alphas in enumerate(vectors):
            report = example1_family(m, alphas)
            assert report.solved_flat, (m, alphas)
            assert isinstance(report.printed_flat, bool)
            verdicts[(m, idx)] = (report.printed_flat, report.coincide)
    elapsed = time.time() - start
    print(
        "ACCEPTANCE 7: PASS - solved families exactly flat; printed-family verdicts "
        f"(flat, coincide): {verdicts} ({elapsed:.1f}s)"
    )


def _random_cochain0(rng, algebra, lam, mu, parity):
    if algebra == SL2:
        coeffs = [Poly([Q(rng.randrange(-2, 3)) for _ in range(3)]) for _ in range(3)]
        return Cochain0(SL2, DiffOp(lam, mu, coeffs))
    coeffs = []
    for i in range(3):
        want = (parity + i) & 1
        f0 = [Q(rng.randrange(-2, 3)) for _ in range(2)] if want == 0 else []
        f1 = [Q(rng.randrange(-2, 3)) for _ in range(2)] if want == 1 else []
        coeffs.append(SuperPoly(Poly(f0), Poly(f1)))
    return Cochain0(OSP12, SuperDiffOp(lam, mu, coeffs), parity=parity)


def _random_cochain1(rng, algebra, lam, mu, parity):
    ctx = get_algebra(algebra)
    images = []
    for slot in range(ctx.dim):
        images.append(
            _random_cochain0(rng, algebra, lam, mu, (parity + ctx.parities[slot]) & 1).value
        )
    return Cochain1(algebra, images, parity=parity)


def test_criterion_8_differential_structure():
    start = time.time()
    rng = random.Random(20242)
    weight_samples = {
        SL2: [(Q(0), Q(0), 0), (Q(1, 2), Q(5, 2), 0), (Q(-1, 2), Q(3, 2), 0)],
        OSP12: [(Q(0), Q(0), 0), (Q(0), Q(1, 2), 1), (Q(-1, 2), Q(1), 0), (Q(1, 2), Q(1, 2), 1)],
    }
    for algebra, samples in weight_samples.items():
        for _ in range(25):
            lam, mu, parity = samples[rng.randrange(len(samples))]
            b = _random_cochain0(rng, algebra, lam, mu, parity)
            assert d1(d0(b)).is_zero()
            c = _random_cochain1(rng, algebra, lam, mu, parity)
            assert all(not v for v in d2(d1(c)).values())
    basis = sl2_basis()
    for lam in LAMBDA_SET:
        for x in basis:
            for y in basis:
                for n in range(13):
                    density = Density(lam, Poly.x_power(n), CLASSICAL)
                    lhs = density_action(x, density_action(y, density)).value - density_action(
                        y, density_action(x, density)
                    ).value
                    assert lhs == density_action(vf_bracket(x, y), density).value
    sbasis = osp_basis()
    for lam in LAMBDA_SET:
        for x in sbasis:
            for y in sbasis:
                sign = -1 if (x.parity and y.parity) else 1
                for n in range(0, 13, 4):
                    for theta in (False, True):
                        density = Density(lam, SuperPoly.x_power(n, theta=theta), SUPER)
                        lhs = (
                            super_density_action(x, super_density_action(y, density)).value
                            - super_density_action(
                                y, super_density_action(x, density)
                            ).value.scale(sign)
                        )
                        rhs = super_density_action(contact_bracket(x, y), density).value
                        assert lhs == rhs
    elapsed = time.time() - start
    print(f"ACCEPTANCE 8: PASS - differential structure and module axioms exact ({elapsed:.1f}s)")
