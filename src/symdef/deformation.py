"""Infinitesimal deformations of the symbol-module actions, their
homomorphism defects, obstruction classes, and integrability conditions.

The deformed action on a window of the symbol module is

    L_X  +  sum_k  a_k * (diagonal family at component k)
         +  sum_k  b_k * B_k + c_k * C_k        (classical, resonant)
    resp.  sum_k  fb_k * Y_k + fc_k * Ytilde_k  (super, resonant)

with even diagonal parameters and, in the super flavor, odd off-diagonal
parameters.  With no higher-order terms the homomorphism defect
[L_X, L_Y] - L_{[X,Y]} is exactly quadratic in the parameters; this module
expands it mechanically, decomposes every off-diagonal block against the
matching degree-2 family plus a coboundary, and outputs the per-block
class coefficients as the engine-derived integrability conditions.  The
published closed-form conditions are evaluated side by side and the
report records whether the two agree up to a nonzero scalar; neither is
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .catalog import (
    cocycle_A,
    cocycle_B,
    cocycle_C,
    cocycle_Omega,
    cocycle_Phi,
    cocycle_Y,
    cocycle_Yprime,
    cocycle_Ytilde,
)
from .cohomology import (
    BoundsSpec,
    Cochain1,
    Cochain2,
    NoSolutionWithinBounds,
    algebra_for_flavor,
    coboundary_solve,
    d1,
    decompose_cocycle,
    default_witness_bounds,
)
from .geometry import CLASSICAL, SUPER
from .kernel import (
    InternalError,
    ParamAlgebra,
    ParamScalar,
    UsageError,
    format_rational,
    parse_rational,
)
from .operators import DiffOp, GradedOp, SuperDiffOp, graded_identity, undeformed_action


# ---------------------------------------------------------------------------
# Deformation specifications
# ---------------------------------------------------------------------------


def _is_int(x: Fraction) -> bool:
    return x.denominator == 1


def _spec_int(payload: dict, name: str) -> int:
    """A spec field that must be a JSON integer; nothing is coerced."""
    value = payload[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"spec.{name} must be an integer, got {value!r}")
    return value


def _default_window(delta: Fraction) -> int:
    """Room for the resonant band 2*delta = m: max(8, 2m + 2) components."""
    return max(8, int(4 * delta) + 2) if _is_int(2 * delta) else 8


@dataclass
class DeformationSpec:
    """Flavor, window, parameter alphabet, and optional numeric values.

    The resonant case is 2*delta = m with m >= 2 (classical) or m >= 1
    (super); only then do the off-diagonal parameter pairs exist.
    """

    flavor: str
    delta: Fraction
    window: int
    assignment: Optional[dict[str, Fraction]] = None

    def __post_init__(self):
        if self.flavor not in (CLASSICAL, SUPER):
            raise UsageError("flavor must be 'classical' or 'super'")
        self.delta = Fraction(self.delta)
        if self.window < 1:
            raise UsageError("window must be positive")
        if self.resonant and self.flavor == CLASSICAL:
            m = self.m
            if m - 1 > self.window:
                raise UsageError("window too small for the resonant band")
        if self.resonant and self.flavor == SUPER:
            if 2 * self.m - 1 > self.window:
                raise UsageError("window too small for the resonant band")

    # -- resonance ----------------------------------------------------------

    @property
    def resonant(self) -> bool:
        two_delta = 2 * self.delta
        if not _is_int(two_delta):
            return False
        m = int(two_delta)
        return m >= 2 if self.flavor == CLASSICAL else m >= 1

    @property
    def m(self) -> int:
        if not self.resonant:
            raise UsageError("non-resonant deformation has no integer m")
        return int(2 * self.delta)

    def resonant_range(self) -> range:
        if not self.resonant:
            return range(0)
        m = self.m
        if self.flavor == CLASSICAL:
            return range((m + 1) // 2, m)
        return range(1, m + 1)

    # -- parameter alphabet ---------------------------------------------------

    def diagonal_param(self, component: int) -> str:
        if self.flavor == CLASSICAL:
            return f"a{component}"
        return f"a{self.m - component}" if self.resonant else f"a{component}"

    def off_diagonal_params(self, k: int) -> tuple[str, str]:
        return f"b{k}", f"c{k}"

    def off_diagonal_block(self, k: int) -> tuple[int, int]:
        """(source component, target component) of the resonant pair k."""
        m = self.m
        if self.flavor == CLASSICAL:
            return k, m - 1 - k
        return m - 1 + k, m - k

    def algebra(self) -> ParamAlgebra:
        even = [self.diagonal_param(c) for c in range(self.window + 1)]
        odd: list[str] = []
        for k in self.resonant_range():
            b, c = self.off_diagonal_params(k)
            if self.flavor == CLASSICAL:
                even.extend([b, c])
            else:
                odd.extend([b, c])
        return ParamAlgebra(even=tuple(even), odd=tuple(odd))

    # -- construction ----------------------------------------------------------

    @staticmethod
    def resonant_spec(flavor: str, m: int, window: Optional[int] = None,
                      params: Optional[dict] = None) -> "DeformationSpec":
        window = window if window is not None else _default_window(Fraction(m, 2))
        assignment = None
        if params is not None:
            assignment = {k: parse_rational(v) if isinstance(v, str) else Fraction(v)
                          for k, v in params.items()}
        return DeformationSpec(flavor, Fraction(m, 2), window, assignment)

    @staticmethod
    def from_json(payload: dict) -> "DeformationSpec":
        if not isinstance(payload, dict):
            raise UsageError("spec file must contain a JSON object")
        unknown = sorted(set(payload) - {"flavor", "m", "delta", "window", "params"})
        if unknown:
            raise UsageError(f"spec has unknown keys {unknown}")
        flavor = payload.get("flavor")
        if flavor not in (CLASSICAL, SUPER):
            raise UsageError("spec.flavor must be 'classical' or 'super'")
        if "m" in payload:
            delta = Fraction(_spec_int(payload, "m"), 2)
        elif "delta" in payload:
            delta = parse_rational(str(payload["delta"]))
        else:
            raise UsageError("spec needs either 'm' or 'delta'")
        window = _spec_int(payload, "window") if "window" in payload else _default_window(delta)
        params = payload.get("params")
        assignment = None
        if params is not None:
            if not isinstance(params, dict):
                raise UsageError("spec.params must be an object")
            assignment = {}
            for name, raw in params.items():
                assignment[name] = parse_rational(str(raw))
        return DeformationSpec(flavor, delta, window, assignment)

    def to_json(self) -> dict:
        out: dict = {"flavor": self.flavor, "window": self.window}
        if self.resonant:
            out["m"] = self.m
        else:
            out["delta"] = format_rational(self.delta)
        if self.assignment is not None:
            out["params"] = {k: format_rational(v) for k, v in sorted(self.assignment.items())}
        return out


# ---------------------------------------------------------------------------
# The deformed action
# ---------------------------------------------------------------------------


@dataclass
class DeformedAction:
    """Undeformed window action plus parameter-weighted terms by order."""

    spec: DeformationSpec
    terms: dict[int, list[GradedOp]]  # parameter order -> per-basis-index term
    truncation_order: Optional[int] = None

    @property
    def ctx(self):
        return algebra_for_flavor(self.spec.flavor)

    @property
    def first_order(self) -> list[GradedOp]:
        return self.terms.get(1, self._zero_terms())

    def higher_terms(self) -> dict[int, list[GradedOp]]:
        return {o: t for o, t in self.terms.items() if o >= 2}

    def _zero_terms(self) -> list[GradedOp]:
        return [GradedOp(self.spec.flavor, self.spec.delta, self.spec.window)
                for _ in range(self.ctx.dim)]

    def undeformed(self, index: int) -> GradedOp:
        return undeformed_action(self.ctx.basis[index], self.spec.flavor,
                                 self.spec.delta, self.spec.window)

    def full(self, index: int) -> GradedOp:
        acc = self.undeformed(index)
        for order in sorted(self.terms):
            acc = acc + self.terms[order][index]
        return acc


def _diagonal_family(spec: DeformationSpec) -> Callable[[int], Cochain1]:
    if spec.flavor == CLASSICAL:
        return lambda comp: cocycle_A(spec.delta - comp)
    return lambda comp: cocycle_Yprime(spec.delta - Fraction(comp, 2))


def _off_diagonal_families(spec: DeformationSpec, k: int) -> tuple[Cochain1, Cochain1]:
    if spec.flavor == CLASSICAL:
        return cocycle_B(spec.m, k), cocycle_C(spec.m, k)
    return cocycle_Y(k), cocycle_Ytilde(k)


def _assemble_first_order(spec: DeformationSpec,
                          coeff_of: Callable[[str], object]) -> list[GradedOp]:
    """One graded operator per basis element: the parameter-weighted sum of
    catalog cocycles placed at their window blocks."""
    ctx = algebra_for_flavor(spec.flavor)
    diag = _diagonal_family(spec)
    out = []
    for index in range(ctx.dim):
        g = GradedOp(spec.flavor, spec.delta, spec.window)
        for comp in range(spec.window + 1):
            coeff = coeff_of(spec.diagonal_param(comp))
            if not coeff:
                continue
            image = diag(comp).images[index]
            existing = g.blocks.get((comp, comp))
            term = image.scale(coeff)
            g.set_block(comp, comp, term if existing is None else existing + term)
        for k in spec.resonant_range():
            b_name, c_name = spec.off_diagonal_params(k)
            src, tgt = spec.off_diagonal_block(k)
            fam_b, fam_c = _off_diagonal_families(spec, k)
            term = None
            for coeff, family in ((coeff_of(b_name), fam_b), (coeff_of(c_name), fam_c)):
                if not coeff:
                    continue
                piece = family.images[index].scale(coeff)
                term = piece if term is None else term + piece
            if term is not None and term:
                existing = g.blocks.get((src, tgt))
                g.set_block(src, tgt, term if existing is None else existing + term)
        out.append(g)
    return out


def build_infinitesimal(spec: DeformationSpec) -> DeformedAction:
    """The first-order deformation of the window action.

    Formal when the spec carries no assignment; otherwise even parameters
    are replaced by their exact rational values (odd parameters always
    stay formal)."""
    algebra = spec.algebra()

    def formal(name: str) -> ParamScalar:
        return ParamScalar.symbol(algebra, name)

    if spec.assignment is None:
        coeff_of = formal
    else:
        for name in spec.assignment:
            if name not in algebra:
                raise UsageError(f"unknown parameter {name!r} for this deformation")

        def coeff_of(name: str):
            if name in algebra.odd:
                return formal(name)
            return spec.assignment.get(name, Fraction(0))

    return DeformedAction(spec, {1: _assemble_first_order(spec, coeff_of)})


def bracket_defect(action: DeformedAction, i: int, j: int) -> GradedOp:
    """[L_i, L_j] - L_{[e_i, e_j]}, expanded exactly in the parameters."""
    ctx = action.ctx
    li, lj = action.full(i), action.full(j)
    sign = -1 if (ctx.parities[i] and ctx.parities[j]) else 1
    defect = li.bracket(lj, sign)
    for g, coeff in enumerate(ctx.structure[(i, j)]):
        if coeff:
            defect = defect - action.full(g).scale(coeff)
    if action.truncation_order is not None:
        defect = defect.truncate_params(action.truncation_order)
    return defect


@dataclass
class HomomorphismReport:
    passed: bool
    failures: list  # [(pair, residual GradedOp)]
    checked_pairs: list

    def first_failure(self):
        return self.failures[0] if self.failures else None


def verify_homomorphism(action: DeformedAction) -> HomomorphismReport:
    """Check the bracket relation exactly for every canonical basis pair."""
    ctx = action.ctx
    failures = []
    pairs = ctx.canonical_pairs()
    for (i, j) in pairs:
        defect = bracket_defect(action, i, j)
        if defect:
            failures.append(((i, j), defect))
    return HomomorphismReport(passed=not failures, failures=failures, checked_pairs=pairs)


# ---------------------------------------------------------------------------
# Obstruction classes and derived integrability conditions
# ---------------------------------------------------------------------------


_UNIT_MONOMIAL = ((), ())


def _op_monomials(op) -> set:
    mons = set()
    polys = []
    if isinstance(op, DiffOp):
        polys = list(op.coeffs)
    else:
        for sp in op.coeffs:
            polys.extend([sp.f0, sp.f1])
    for poly in polys:
        for c in poly.coeffs:
            if isinstance(c, ParamScalar):
                mons.update(c.terms)
            elif c:
                mons.add(_UNIT_MONOMIAL)
    return mons


def _op_component(op, mon) -> object:
    """Extract the exact rational coefficient operator of one parameter monomial."""

    def pick(c):
        if isinstance(c, ParamScalar):
            return c.terms.get(mon, Fraction(0))
        return Fraction(c) if mon == _UNIT_MONOMIAL else Fraction(0)

    if isinstance(op, DiffOp):
        from .geometry import Poly

        return DiffOp(op.lam, op.mu, [Poly([pick(c) for c in p.coeffs]) for p in op.coeffs])
    from .geometry import Poly, SuperPoly

    return SuperDiffOp(
        op.lam,
        op.mu,
        [
            SuperPoly(Poly([pick(c) for c in sp.f0.coeffs]), Poly([pick(c) for c in sp.f1.coeffs]))
            for sp in op.coeffs
        ],
    )


@dataclass
class BlockObstruction:
    k: int
    source_k: int
    target_k: int
    basis_id: str
    basis: Cochain2
    class_coeff: ParamScalar
    witness: Cochain1
    bounds: BoundsSpec
    verdict: str

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "block": {"source_k": self.source_k, "target_k": self.target_k},
            "basis": self.basis_id,
            "class": str(self.class_coeff),
            "bounds": self.bounds.to_json(),
            "witness": {
                "images": [op.to_json() for op in self.witness.images],
            },
            "verdict": self.verdict,
        }


@dataclass
class ObstructionReport:
    spec: DeformationSpec
    bounds: BoundsSpec
    blocks: list[BlockObstruction]
    diagonal_clean: bool
    unexpected_blocks: list
    verdict: str

    @property
    def condition_generators(self) -> list[ParamScalar]:
        return [b.class_coeff for b in self.blocks]

    def verify_reassembly(self, action: DeformedAction) -> bool:
        """Exact check: class*basis + d1(witness) reproduces every defect block."""
        ctx = action.ctx
        pairs = ctx.canonical_pairs()
        defects = {pair: bracket_defect(action, *pair) for pair in pairs}
        for entry in self.blocks:
            key = (entry.source_k, entry.target_k)
            reassembled = entry.basis.scale(entry.class_coeff) + d1(entry.witness)
            for pair in pairs:
                if defects[pair].block(*key) != reassembled.images[pair]:
                    return False
        return True

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "bounds": self.bounds.to_json(),
            "diagonal_clean": self.diagonal_clean,
            "unexpected_blocks": [list(b) for b in self.unexpected_blocks],
            "blocks": [b.to_json() for b in self.blocks],
            "condition_generators": [str(b.class_coeff) for b in self.blocks],
            "verdict": self.verdict,
        }


def _recognized_blocks(spec: DeformationSpec) -> dict[tuple[int, int], tuple[str, Cochain2]]:
    out = {}
    for k in spec.resonant_range():
        src, tgt = spec.off_diagonal_block(k)
        if spec.flavor == CLASSICAL:
            kappa = 2 * k - spec.m + 1
            out[(src, tgt)] = (f"Phi:k={kappa}", cocycle_Phi(kappa))
        else:
            out[(src, tgt)] = (f"Omega:k={k}", cocycle_Omega(k))
    return out


def obstruction_classes(action: DeformedAction,
                        bounds: Optional[BoundsSpec] = None) -> ObstructionReport:
    """Decompose the quadratic defect of a first-order deformation.

    Per off-diagonal weight block the defect is written exactly as
    (class coefficient) * (degree-2 family) + d1(witness), one rational
    solve per parameter monomial; the class coefficients are the derived
    integrability-condition generators."""
    if action.higher_terms():
        raise UsageError("obstruction analysis expects a first-order action")
    spec = action.spec
    ctx = action.ctx
    pairs = ctx.canonical_pairs()
    defects = {pair: bracket_defect(action, *pair) for pair in pairs}
    touched: set[tuple[int, int]] = set()
    for defect in defects.values():
        touched.update(defect.blocks)
    recognized = _recognized_blocks(spec)
    diag_bad = [key for key in touched if key[0] == key[1]]
    unexpected = sorted(
        key for key in touched if key[0] != key[1] and key not in recognized
    )
    entries = []
    verdict = "derived"
    for (k, key) in sorted(
        ((k, spec.off_diagonal_block(k)) for k in spec.resonant_range()), key=lambda t: t[1]
    ):
        basis_id, basis = recognized[key]
        j, i = key
        images = {pair: defects[pair].block(j, i) for pair in pairs}
        block_cochain = Cochain2(ctx.name, images)
        use_bounds = bounds if bounds is not None else default_witness_bounds(block_cochain, basis)
        mons = set()
        for im in images.values():
            mons.update(_op_monomials(im))
        algebra = spec.algebra()
        class_terms: dict = {}
        witness_total: Optional[Cochain1] = None
        solvable = True
        for mon in sorted(mons):
            mon_parity = len(mon[1]) & 1
            rhs_cochain = Cochain2(ctx.name, {p: _op_component(im, mon) for p, im in images.items()},
                                   parity=mon_parity if ctx.flavor == SUPER else 0)
            split = decompose_cocycle(rhs_cochain, basis, use_bounds)
            if isinstance(split, NoSolutionWithinBounds):
                solvable = False
                break
            if split.coeff:
                class_terms[mon] = split.coeff
            mon_scalar = ParamScalar(algebra, {mon: Fraction(1)})
            scaled = split.witness.scale(mon_scalar)
            witness_total = scaled if witness_total is None else witness_total + scaled
        if not solvable:
            verdict = "inconclusive"
            continue
        if witness_total is None:
            zero = basis.zero_value()
            witness_total = Cochain1(ctx.name, [zero] * ctx.dim)
        entries.append(
            BlockObstruction(
                k=k,
                source_k=j,
                target_k=i,
                basis_id=basis_id,
                basis=basis,
                class_coeff=ParamScalar(algebra, class_terms),
                witness=witness_total,
                bounds=use_bounds,
                verdict="decomposed",
            )
        )
    if diag_bad or unexpected:
        verdict = "inconclusive"
    report = ObstructionReport(
        spec=spec,
        bounds=bounds if bounds is not None else default_obstruction_bounds_from_spec(spec),
        blocks=entries,
        diagonal_clean=not diag_bad,
        unexpected_blocks=unexpected,
        verdict=verdict,
    )
    return report


def default_obstruction_bounds_from_spec(spec: DeformationSpec) -> BoundsSpec:
    if not spec.resonant:
        return BoundsSpec(8, 20)
    m = spec.m
    order = 2 * m
    n = order + 2 + 2 * m + 2
    return BoundsSpec(n, 2 * n + 4)


# ---------------------------------------------------------------------------
# Published closed-form conditions
# ---------------------------------------------------------------------------


def published_condition(spec: DeformationSpec, k: int) -> ParamScalar:
    """The printed closed-form generator for resonant index k (kept verbatim;
    the engine-derived generator is computed independently and compared)."""
    algebra = spec.algebra()

    def sym(name: str) -> ParamScalar:
        return ParamScalar.symbol(algebra, name)

    m = spec.m
    b_name, c_name = spec.off_diagonal_params(k)
    if spec.flavor == CLASSICAL:
        return (
            sym(b_name) * sym(f"a{m - k - 1}") * (2 * k - m + 1)
            + sym(c_name) * sym(f"a{k}")
            - sym(c_name) * sym(f"a{m - k - 1}")
        )
    return (
        sym(b_name) * sym(f"a{1 - k}")
        - sym(c_name) * sym(f"a{k}")
        + sym(c_name) * sym(f"a{1 - k}")
    )


@dataclass
class ConditionVerdict:
    k: int
    generator: str
    value: str
    satisfied: bool


def _complete_even_assignment(spec: DeformationSpec) -> dict[str, Fraction]:
    """Missing even parameters count as zero, matching build_infinitesimal."""
    if spec.assignment is None:
        raise UsageError("condition checking needs a numeric parameter assignment")
    algebra = spec.algebra()
    full = {name: Fraction(0) for name in algebra.even}
    for name, value in spec.assignment.items():
        if name not in algebra:
            raise UsageError(f"unknown parameter {name!r} for this deformation")
        if name in algebra.odd:
            if value != 0:
                raise UsageError(f"odd parameter {name!r} cannot take a nonzero numeric value")
            full[name] = Fraction(0)
        else:
            full[name] = Fraction(value)
    return full


def check_published_conditions(spec: DeformationSpec) -> list[ConditionVerdict]:
    """Evaluate the printed conditions at the spec's parameter point.

    Even parameters not mentioned in the assignment count as zero; odd
    parameters stay formal, so a condition holds iff every remaining
    coefficient polynomial vanished."""
    assignment = _complete_even_assignment(spec)
    out = []
    for k in spec.resonant_range():
        gen = published_condition(spec, k)
        value = gen.substitute(assignment)
        out.append(
            ConditionVerdict(
                k=k, generator=str(gen), value=str(value), satisfied=not value
            )
        )
    return out


def derived_condition_verdicts(action_formal: DeformedAction, spec: DeformationSpec,
                               bounds: Optional[BoundsSpec] = None) -> list[ConditionVerdict]:
    """Evaluate the engine-derived generators at the spec's parameter point."""
    assignment = _complete_even_assignment(spec)
    report = obstruction_classes(action_formal, bounds)
    out = []
    for entry in report.blocks:
        value = entry.class_coeff.substitute(assignment)
        out.append(
            ConditionVerdict(
                k=entry.k, generator=str(entry.class_coeff), value=str(value), satisfied=not value
            )
        )
    return out


def proportional_up_to_scalar(p: ParamScalar, q: ParamScalar) -> Optional[Fraction]:
    """The nonzero rational s with p = s*q, if one exists."""
    if not p or not q:
        return None
    q_mons = q.monomials()
    lead_mon, lead_coeff = q_mons[0]
    p_coeff = p.terms.get(lead_mon)
    if not p_coeff:
        return None
    scalar = p_coeff / lead_coeff
    return scalar if p == q * scalar else None


# ---------------------------------------------------------------------------
# The one-parameter worked family
# ---------------------------------------------------------------------------


@dataclass
class Example1Report:
    m: int
    alphas: list[Fraction]
    printed_flat: bool
    printed_failures: list
    printed_c: dict[int, Fraction]
    solved_c: dict[int, Optional[Fraction]]
    coincide: bool
    solved_flat: bool

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "alphas": [format_rational(a) for a in self.alphas],
            "printed_family_flat": self.printed_flat,
            "printed_c_over_t": {str(k): format_rational(v) for k, v in sorted(self.printed_c.items())},
            "solved_c_over_t": {
                str(k): (format_rational(v) if v is not None else None)
                for k, v in sorted(self.solved_c.items())
            },
            "families_coincide": self.coincide,
            "solved_family_flat": self.solved_flat,
        }


def _one_parameter_action(spec: DeformationSpec, a_mult: dict[str, Fraction],
                          b_mult: dict[str, Fraction], c_mult: dict[str, Fraction]) -> DeformedAction:
    algebra = ParamAlgebra(even=("t",), odd=())
    t = ParamScalar.symbol(algebra, "t")
    table: dict[str, ParamScalar] = {}
    for name, mult in {**a_mult, **b_mult, **c_mult}.items():
        table[name] = t * mult

    def coeff_of(name: str):
        return table.get(name, ParamScalar.const(0))

    return DeformedAction(spec, {1: _assemble_first_order(spec, coeff_of)})


def example1_family(m: int, alphas: Sequence[Union[int, str, Fraction]],
                    window: Optional[int] = None) -> Example1Report:
    """Audit the printed one-parameter family and solve the engine's own.

    The printed family sets b_k = t, a_k = alpha_k t and a specific
    c_k multiple of t; the engine additionally solves its derived
    condition for c_k and reports whether the two families coincide and
    whether each is exactly flat in t."""
    spec = DeformationSpec.resonant_spec(CLASSICAL, m, window)
    alphas = [parse_rational(a) if isinstance(a, str) else Fraction(a) for a in alphas]
    if len(alphas) < m:
        raise UsageError(f"need at least {m} alpha values for m={m}")
    alpha = {k: (alphas[k] if k < len(alphas) else Fraction(0)) for k in range(spec.window + 1)}
    printed_c: dict[int, Fraction] = {}
    for k in spec.resonant_range():
        if alpha[k] == alpha[m - k - 1]:
            raise UsageError(f"alpha_{k} must differ from alpha_{m - k - 1}")
        printed_c[k] = Fraction(2 * k - m + 1) * alpha[k] / (alpha[k] - alpha[m - k - 1])
    a_mult = {f"a{c}": alpha[c] for c in range(spec.window + 1)}
    b_mult = {f"b{k}": Fraction(1) for k in spec.resonant_range()}
    c_mult = {f"c{k}": printed_c[k] for k in spec.resonant_range()}
    printed_action = _one_parameter_action(spec, a_mult, b_mult, c_mult)
    printed_report = verify_homomorphism(printed_action)

    # engine-solved family: substitute a, b into the derived generators and
    # solve each (linear in its own c_k) exactly
    formal = build_infinitesimal(DeformationSpec(CLASSICAL, spec.delta, spec.window))
    obstruction = obstruction_classes(formal)
    solved_c: dict[int, Optional[Fraction]] = {}
    numeric = {f"a{c}": alpha[c] for c in range(spec.window + 1)}
    numeric.update({f"b{k}": Fraction(1) for k in spec.resonant_range()})
    for entry in obstruction.blocks:
        k = entry.k
        gen = entry.class_coeff.substitute(numeric)
        c_name = f"c{k}"
        # gen = A + B*c_k with A, B rational
        a_part = gen.substitute({c_name: 0}).constant_value()
        b_part = (gen - gen.substitute({c_name: 0})).substitute({c_name: 1}).constant_value()
        solved_c[k] = (-a_part / b_part) if b_part else None
    coincide = all(solved_c.get(k) == printed_c[k] for k in printed_c)
    solved_action = _one_parameter_action(
        spec,
        a_mult,
        b_mult,
        {f"c{k}": v for k, v in solved_c.items() if v is not None},
    )
    solved_report = verify_homomorphism(solved_action)
    return Example1Report(
        m=m,
        alphas=list(alphas),
        printed_flat=printed_report.passed,
        printed_failures=[(pair, repr(res)) for pair, res in printed_report.failures[:1]],
        printed_c=printed_c,
        solved_c=solved_c,
        coincide=coincide,
        solved_flat=solved_report.passed,
    )


# ---------------------------------------------------------------------------
# Gauge equivalence
# ---------------------------------------------------------------------------


def gauge_transform(action: DeformedAction, gauge_terms: Sequence[tuple[int, GradedOp]],
                    truncation_order: int) -> DeformedAction:
    """Conjugate by Id + sum(T_order), truncated in total parameter degree.

    Gauge terms of order >= 2 leave the first-order part untouched; the
    obstruction classes are invariant either way."""
    spec = action.spec
    ctx = action.ctx
    ident = graded_identity(spec.flavor, spec.delta, spec.window)
    perturb = None
    for order, term in gauge_terms:
        if order < 1:
            raise UsageError("gauge orders start at 1")
        if term.max_param_degree() > truncation_order:
            term = term.truncate_params(truncation_order)
        perturb = term if perturb is None else perturb + term
    if perturb is None:
        perturb = GradedOp(spec.flavor, spec.delta, spec.window)
    # Neumann inverse of Id + S up to the truncation order
    inverse = ident
    power = ident
    for _ in range(truncation_order):
        power = power.compose(perturb).scale(-1).truncate_params(truncation_order)
        if not power:
            break
        inverse = inverse + power
    phi = ident + perturb
    new_terms: dict[int, list[GradedOp]] = {}
    for index in range(ctx.dim):
        conjugated = phi.compose(action.full(index)).compose(inverse)
        conjugated = conjugated.truncate_params(truncation_order)
        delta_part = conjugated - action.undeformed(index)
        for order in range(1, truncation_order + 1):
            component = delta_part.param_component(order)
            if component:
                new_terms.setdefault(order, [None] * ctx.dim)[index] = component
    terms = {}
    for order, row in new_terms.items():
        zero = GradedOp(spec.flavor, spec.delta, spec.window)
        terms[order] = [item if item is not None else zero for item in row]
    return DeformedAction(spec, terms, truncation_order=truncation_order)


@dataclass
class NotTrivializable:
    reason: str
    classes: list[str]


def trivialize_second_order(action: DeformedAction,
                            bounds: Optional[BoundsSpec] = None):
    """Remove the second-order term by a gauge when the obstruction vanishes.

    Returns (gauge, new_action); NotTrivializable carries the nonzero
    class coefficients otherwise."""
    spec = action.spec
    ctx = action.ctx
    first_only = DeformedAction(spec, {1: action.first_order})
    report = obstruction_classes(first_only, bounds)
    live = [str(b.class_coeff) for b in report.blocks if b.class_coeff]
    if report.verdict != "derived":
        return NotTrivializable(reason="obstruction analysis inconclusive", classes=live)
    if live:
        return NotTrivializable(reason="nonzero obstruction class", classes=live)
    second = action.terms.get(2)
    truncation = action.truncation_order or max(2, max(action.terms, default=1))
    if not second or not any(second):
        return GradedOp(spec.flavor, spec.delta, spec.window), action
    # solve d0(T) = second-order term, block by block and monomial by monomial
    gauge = GradedOp(spec.flavor, spec.delta, spec.window)
    blocks: set[tuple[int, int]] = set()
    for g in second:
        blocks.update(g.blocks)
    algebra = spec.algebra()
    for (j, i) in sorted(blocks):
        mons = set()
        for g in second:
            mons.update(_op_monomials(g.block(j, i)))
        accum = None
        for mon in sorted(mons):
            images = [_op_component(g.block(j, i), mon) for g in second]
            cochain = Cochain1(ctx.name, images)
            result = coboundary_solve(cochain, bounds)
            if isinstance(result, NoSolutionWithinBounds):
                return NotTrivializable(
                    reason="second-order term is not a bounded coboundary", classes=live
                )
            mon_scalar = ParamScalar(algebra, {mon: Fraction(1)})
            piece = result.cochain.value.scale(mon_scalar)
            accum = piece if accum is None else accum + piece
        if accum is not None and accum:
            gauge.set_block(j, i, accum)
    transformed = gauge_transform(action, [(2, gauge)], truncation_order=truncation)
    if transformed.terms.get(2) and any(transformed.terms[2]):
        raise InternalError("gauge failed to cancel the second-order term")
    return gauge, transformed
