"""Infinitesimal deformations of the symbol-module actions, their
homomorphism defects, obstruction classes, and integrability conditions.

The deformed action on a window of the symbol module is

    L_X  +  sum_k  a_k * (diagonal family at component k)
         +  sum_k  b_k * B_k + c_k * C_k        (classical, resonant)
    resp.  sum_k  fb_k * Y_k + fc_k * Ytilde_k  (super, resonant)

with even diagonal parameters and, in the super flavor, odd off-diagonal
parameters.  Writing it L = L0 + Phi, the homomorphism defect
[L_X, L_Y] - L_{[X,Y]} of this first-order action is exactly the quadratic
term [Phi_X, Phi_Y] (the second-order obstruction of Nijenhuis and
Richardson): the L0 L0 part cancels because L0 is a homomorphism, and the
linear part is d1(Phi) = 0 because every block of Phi is a catalog
cocycle.  Neither fact is assumed.  L0 is checked to be a homomorphism on
the action tables once per window (``cohomology.homomorphism_failure``:
d0 of each L0_j by the one column builder), and every family placed in
Phi, like every obstruction basis, is a ``catalog.certified_cocycle``,
checked once per process; a failed check is an ``InternalError``.  The
certified first-order row is a type of its own that keeps its defects, so
every action holding it alone, untruncated, on its window shares them; any
other action (truncated, hand-built, a plain-tuple copy) is expanded in
full.

A spec has one reader, ``DeformationSpec.from_json``: ``resonant_spec``
builds a payload and reads it there too, so a field is checked in the same
words from a spec file, the command line or a library call.

Every off-diagonal defect block is decomposed against the matching
degree-2 family plus a coboundary, and the per-block class coefficients
are the engine-derived integrability conditions.  The published
closed-form conditions are evaluated side by side and the report records
whether the two agree up to a nonzero scalar; neither is assumed.

A gauge is one ``GradedOp``; ``gauge_transform`` conjugates by Id + gauge.
In a gauged action the order of a term is its total parameter degree,
read once off the conjugated operators: the order-n term is the part of
parameter degree n.  A parameter-free part has no order, so an action or
gauge with a parameter-free coefficient is refused rather than dropped.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import lru_cache

from .catalog import CatalogId, certified_cocycle
from .cohomology import (
    BoundsSpec,
    Cochain1,
    Cochain2,
    NoSolutionWithinBounds,
    algebra_for_flavor,
    coboundary_solve,
    d1,
    decompose_cocycle,
    homomorphism_failure,
)
from .geometry import CLASSICAL, SUPER
from .kernel import (
    InternalError,
    ParamAlgebra,
    ParamScalar,
    UsageError,
    as_weight,
    format_rational,
    parse_rational,
    record,
)
from .operators import GradedOp, graded_identity, undeformed_action


# ---------------------------------------------------------------------------
# Deformation specifications
# ---------------------------------------------------------------------------


def _is_int(x: Fraction) -> bool:
    return x.denominator == 1


def _spec_int(value, name: str) -> int:
    """A spec field that must be an integer (not a bool); nothing is coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"spec.{name} must be an integer, got {value!r}")
    return value


def _spec_rational(value, name: str) -> Fraction:
    """A spec value that must be a rational string, an integer or a
    Fraction; a float (already rounded) or a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, (str, int, Fraction)):
        raise UsageError(f"spec.{name} must be a rational string like \"5/3\" or an integer, "
                         f"got {value!r}")
    try:
        return parse_rational(str(value))
    except UsageError as exc:
        raise UsageError(f"spec.{name}: {exc}") from None


def _default_window(delta: Fraction) -> int:
    """Room for the resonant band 2*delta = m: max(8, 2m + 2) components."""
    return max(8, int(4 * delta) + 2) if _is_int(2 * delta) else 8


@record
class DeformationSpec:
    """Flavor, window, parameter alphabet, and optional numeric values.

    The resonant case is 2*delta = m with m >= 2 (classical) or m >= 1
    (super); only then do the off-diagonal parameter pairs exist.
    """

    flavor: str
    delta: Fraction
    window: int
    assignment: dict[str, Fraction] | None = None

    def __post_init__(self):
        if self.flavor not in (CLASSICAL, SUPER):
            raise UsageError("flavor must be 'classical' or 'super'")
        self.delta = as_weight(self.delta)
        if _spec_int(self.window, "window") < 1:
            raise UsageError("window must be positive")
        if any(max(self.off_diagonal_block(k)) > self.window for k in self.resonant_range()):
            raise UsageError("window too small for the resonant band")
        if self.assignment is not None:
            self.assignment = {name: as_weight(value) for name, value in self.assignment.items()}
            algebra = self.algebra()
            for name, value in self.assignment.items():
                if name not in algebra:
                    raise UsageError(f"unknown parameter {name!r} for this deformation")
                if name in algebra.odd and value != 0:
                    raise UsageError(f"odd parameter {name!r} cannot take a nonzero numeric value")

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

    def placements(self) -> list[tuple[tuple[int, int], str, CatalogId]]:
        """(block, parameter, catalog id) of every degree-1 family placed in
        the first-order action, in the order they are summed."""
        diagonal, pair = (("A", ("B", "C")) if self.flavor == CLASSICAL
                          else ("Yprime", ("Y", "Ytilde")))
        window = GradedOp(self.flavor, self.delta, self.window)
        out = [((c, c), self.diagonal_param(c), CatalogId(diagonal, (window.weight_of(c),)))
               for c in range(self.window + 1)]
        for k in self.resonant_range():
            args = (self.m, k) if self.flavor == CLASSICAL else (k,)
            out += [(self.off_diagonal_block(k), name, CatalogId(family, args))
                    for name, family in zip(self.off_diagonal_params(k), pair)]
        return out

    # -- construction ----------------------------------------------------------

    @staticmethod
    def resonant_spec(flavor: str, m: int, window: int | None = None,
                      params: dict | None = None) -> "DeformationSpec":
        """The spec with 2*delta = m, read by ``from_json`` as a spec file is."""
        payload = {"flavor": flavor, "m": m, "window": window, "params": params}
        return DeformationSpec.from_json({k: v for k, v in payload.items() if v is not None})

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
        if "m" in payload and "delta" in payload:
            raise UsageError("spec gives both 'm' and 'delta'; give one of them")
        if "m" in payload:
            delta = Fraction(_spec_int(payload["m"], "m"), 2)
        elif "delta" in payload:
            delta = _spec_rational(payload["delta"], "delta")
        else:
            raise UsageError("spec needs either 'm' or 'delta'")
        window = payload["window"] if "window" in payload else _default_window(delta)
        params = payload.get("params")
        assignment = None
        if params is not None:
            if not isinstance(params, dict):
                raise UsageError("spec.params must be an object")
            assignment = {name: _spec_rational(raw, f"params.{name}")
                          for name, raw in params.items()}
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


@record
class DeformedAction:
    """Undeformed window action plus parameter-weighted terms by order."""

    spec: DeformationSpec
    terms: dict[int, tuple[GradedOp, ...]]  # parameter order -> per-basis-index term
    truncation_order: int | None = None

    def __post_init__(self):  # a tuple is kept as given: tuple() would strip a _CertifiedRow
        self.terms = {order: row if isinstance(row, tuple) else tuple(row)
                      for order, row in self.terms.items()}

    @property
    def ctx(self):
        return algebra_for_flavor(self.spec.flavor)

    @property
    def first_order(self) -> tuple[GradedOp, ...]:
        if 1 in self.terms:
            return self.terms[1]
        return tuple(GradedOp(self.spec.flavor, self.spec.delta, self.spec.window)
                     for _ in range(self.ctx.dim))

    def higher_terms(self) -> dict[int, tuple[GradedOp, ...]]:
        return {o: t for o, t in self.terms.items() if o >= 2}

    def _certified(self) -> bool:
        """Whether the action is untruncated and holds only a row certified on
        its flavor, delta and window: then the defect is [Phi_i, Phi_j]."""
        row = self.terms.get(1)
        return (self.truncation_order is None and self.terms.keys() == {1}
                and type(row) is _CertifiedRow
                and row.on == (self.spec.flavor, self.spec.delta, self.spec.window))

    def undeformed(self, index: int) -> GradedOp:
        """L0 of basis element `index`, certified and shared: never mutate it."""
        return _undeformed_window(self.spec.flavor, self.spec.delta, self.spec.window)[index]

    def full(self, index: int) -> GradedOp:
        acc = self.undeformed(index)
        for order in sorted(self.terms):
            acc = acc + self.terms[order][index]
        return acc


@lru_cache(maxsize=32)
def _undeformed_window(flavor: str, delta: Fraction, window: int) -> tuple[GradedOp, ...]:
    """The undeformed window action L0, one operator per basis element,
    certified a homomorphism on the action tables: at every window weight w
    and for every ordered basis pair, act(X_i, L0^w_j) must be
    L0^w_{[X_i, X_j]}, read off d0 of the 0-cochain L0^w_j
    (``homomorphism_failure``).  A failure is an InternalError."""
    ctx = algebra_for_flavor(flavor)
    l0 = tuple(undeformed_action(x, flavor, delta, window) for x in ctx.basis)
    for k in range(window + 1):
        failure = homomorphism_failure(ctx.name, [op.block(k, k) for op in l0])
        if failure:
            raise InternalError(f"the undeformed {flavor} action on weight {l0[0].weight_of(k)} "
                                f"is not a homomorphism on the pair {failure}")
    return l0


class _CertifiedRow(tuple):
    """A row as ``_assemble_first_order`` certified it on the flavor, delta and
    window ``on``, keeping [Phi_i, Phi_j] by pair (``defects``) for its holders."""

    def __new__(cls, terms, spec: DeformationSpec):
        row = super().__new__(cls, terms)
        row.on, row.defects = (spec.flavor, spec.delta, spec.window), {}
        return row


def _assemble_first_order(spec: DeformationSpec,
                          coeff_of: Callable[[str], object]) -> DeformedAction:
    """The first-order action: per basis element, the parameter-weighted sum
    of catalog cocycles placed at their window blocks.

    Every family placed is a certified cocycle and L0 a certified
    homomorphism, so ``bracket_defect`` may take the defect as
    [Phi_i, Phi_j]."""
    _undeformed_window(spec.flavor, spec.delta, spec.window)
    placed = [(block, coeff, certified_cocycle(cid))
              for block, name, cid in spec.placements() if (coeff := coeff_of(name))]
    terms = []
    for index in range(algebra_for_flavor(spec.flavor).dim):
        blocks: dict = {}
        for block, coeff, family in placed:
            term = family.images[index].scale(coeff)
            blocks[block] = blocks[block] + term if block in blocks else term
        terms.append(GradedOp(spec.flavor, spec.delta, spec.window, blocks))
    return DeformedAction(spec, {1: _CertifiedRow(terms, spec)})


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
        def coeff_of(name: str):
            if name in algebra.odd:
                return formal(name)
            return spec.assignment.get(name, Fraction(0))

    return _assemble_first_order(spec, coeff_of)


def bracket_defect(action: DeformedAction, i: int, j: int) -> GradedOp:
    """[L_i, L_j] - L_{[e_i, e_j]}, exact in the parameters.

    For an action holding only a certified row (``DeformedAction._certified``)
    this is [Phi_i, Phi_j] = Phi_i o Phi_j - (-1)^{p_i p_j} Phi_j o Phi_i: the
    L0 L0 part and the linear part d1(Phi) vanish, both certified when the
    row was assembled.  The row keeps it, shared: never mutate it.  Any
    other action is expanded in full."""
    ctx = action.ctx
    sign = -1 if (ctx.parities[i] and ctx.parities[j]) else 1
    if action._certified():
        phi = action.terms[1]
        if (i, j) not in phi.defects:
            phi.defects[(i, j)] = phi[i].bracket(phi[j], sign)
        return phi.defects[(i, j)]
    li, lj = action.full(i), action.full(j)
    defect = li.bracket(lj, sign)
    for g, coeff in enumerate(ctx.structure[(i, j)]):
        if coeff:
            defect = defect - action.full(g).scale(coeff)
    if action.truncation_order is not None:
        defect = defect.truncate_params(action.truncation_order)
    return defect


@record
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


@record
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
                "images": [op.to_json() for op in self.witness.images.values()],
            },
            "verdict": self.verdict,
        }


@record
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
        """Exact check: class*basis + d1(witness) reproduces every defect
        block of `action`, each defect asked of ``bracket_defect`` (which a
        certified row answers from the defects it keeps)."""
        defects = {pair: bracket_defect(action, *pair) for pair in action.ctx.canonical_pairs()}
        for entry in self.blocks:
            reassembled = (entry.basis.scale(entry.class_coeff) + d1(entry.witness)).images
            if any(defect.block(entry.source_k, entry.target_k) != reassembled[pair]
                   for pair, defect in defects.items()):
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


def _recognized_blocks(spec: DeformationSpec) -> dict[tuple[int, int], tuple[int, str, Cochain2]]:
    out = {}
    for k in spec.resonant_range():
        cid = (CatalogId("Phi", (2 * k - spec.m + 1,)) if spec.flavor == CLASSICAL
               else CatalogId("Omega", (k,)))
        out[spec.off_diagonal_block(k)] = (k, str(cid), certified_cocycle(cid))
    return out


def obstruction_classes(action: DeformedAction,
                        bounds: BoundsSpec | None = None) -> ObstructionReport:
    """Decompose the quadratic defect of a first-order deformation.

    Per off-diagonal weight block the defect is written exactly as
    (class coefficient) * (degree-2 family) + d1(witness) by one
    ``decompose_cocycle`` call, which splits the block by parameter monomial
    and weight key; the class coefficients are the derived
    integrability-condition generators."""
    if action.higher_terms():
        raise UsageError("obstruction analysis expects a first-order action")
    spec = action.spec
    ctx = action.ctx
    pairs = ctx.canonical_pairs()
    defects = {pair: bracket_defect(action, *pair) for pair in pairs}
    touched = {key for defect in defects.values() for key in defect.blocks}
    recognized = _recognized_blocks(spec)
    diag_bad = [key for key in touched if key[0] == key[1]]
    unexpected = sorted(key for key in touched if key[0] != key[1] and key not in recognized)
    entries = []
    verdict = "derived"
    for (j, i), (k, basis_id, basis) in sorted(recognized.items()):
        images = {pair: defects[pair].block(j, i) for pair in pairs}
        block_cochain = Cochain2(ctx.name, images)
        split = decompose_cocycle(block_cochain, basis, bounds)
        if isinstance(split, NoSolutionWithinBounds):
            verdict = "inconclusive"
            continue
        entries.append(BlockObstruction(
            k=k,
            source_k=j,
            target_k=i,
            basis_id=basis_id,
            basis=basis,
            class_coeff=ParamScalar(spec.algebra(), {}) + split.coeff,  # in the spec's alphabet
            witness=split.witness,
            bounds=split.bounds,
            verdict="decomposed",
        ))
    if diag_bad or unexpected:
        verdict = "inconclusive"
    return ObstructionReport(
        spec=spec, bounds=bounds if bounds is not None else default_obstruction_bounds_from_spec(spec),
        blocks=entries, diagonal_clean=not diag_bad, unexpected_blocks=unexpected, verdict=verdict)


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
    """The printed closed-form generator for resonant index k, as the
    comments print it, with a_src and a_tgt the diagonal parameters at the
    source and target of block k (the engine-derived generator is computed
    independently and compared)."""
    algebra = spec.algebra()

    def sym(name: str) -> ParamScalar:
        return ParamScalar.symbol(algebra, name)

    b, c = map(sym, spec.off_diagonal_params(k))
    a_src, a_tgt = (sym(spec.diagonal_param(j)) for j in spec.off_diagonal_block(k))
    if spec.flavor == CLASSICAL:
        # b_k a_{m-k-1} (2k - m + 1) + c_k a_k - c_k a_{m-k-1}
        return b * a_tgt * (2 * k - spec.m + 1) + c * a_src - c * a_tgt
    # b_k a_{1-k} - c_k a_k + c_k a_{1-k}
    return b * a_src - c * a_tgt + c * a_src


@record
class ConditionVerdict:
    k: int
    generator: str
    value: str
    satisfied: bool


def _evaluate(spec: DeformationSpec, generators) -> list[ConditionVerdict]:
    """Each (k, generator) pair evaluated at the spec's parameter point.

    Even parameters not mentioned in the assignment count as zero, matching
    build_infinitesimal; odd parameters stay formal, so a condition holds
    iff every remaining coefficient polynomial vanished."""
    if spec.assignment is None:
        raise UsageError("condition checking needs a numeric parameter assignment")
    point = {name: Fraction(0) for name in spec.algebra().even} | spec.assignment
    out = []
    for k, gen in generators:
        value = gen.substitute(point)
        out.append(ConditionVerdict(k=k, generator=str(gen), value=str(value), satisfied=not value))
    return out


def check_published_conditions(spec: DeformationSpec) -> list[ConditionVerdict]:
    """The printed conditions at the spec's parameter point."""
    return _evaluate(spec, [(k, published_condition(spec, k)) for k in spec.resonant_range()])


def derived_condition_verdicts(report: ObstructionReport,
                               spec: DeformationSpec) -> list[ConditionVerdict]:
    """The engine-derived generators of an obstruction report (one per
    decomposed block) at the spec's parameter point."""
    return _evaluate(spec, [(entry.k, entry.class_coeff) for entry in report.blocks])


def proportional_up_to_scalar(p: ParamScalar, q: ParamScalar) -> Fraction | None:
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


@record
class Example1Report:
    m: int
    alphas: list[Fraction]
    printed_flat: bool
    printed_c: dict[int, Fraction]
    solved_c: dict[int, Fraction | None]
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


def _one_parameter_action(spec: DeformationSpec, mult: dict[str, Fraction]) -> DeformedAction:
    """The first-order action with each parameter set to mult[name] * t
    (zero when the map leaves it out)."""
    t = ParamScalar.symbol(ParamAlgebra(even=("t",), odd=()), "t")
    return _assemble_first_order(spec, lambda name: t * mult.get(name, 0))


def example1_family(m: int, alphas: Sequence[int | str | Fraction],
                    window: int | None = None) -> Example1Report:
    """Audit the printed one-parameter family and solve the engine's own.

    The printed family sets b_k = t, a_k = alpha_k t and a specific
    c_k multiple of t; the engine additionally solves its derived
    condition for c_k and reports whether the two families coincide and
    whether each is exactly flat in t."""
    spec = DeformationSpec.resonant_spec(CLASSICAL, m, window)
    if not spec.resonant_range():
        raise UsageError("example1 needs a resonant band: --m >= 2")
    alphas = [as_weight(a) for a in alphas]
    if len(alphas) < m:
        raise UsageError(f"need at least {m} alpha values for m={m}")
    if len(alphas) > spec.window + 1:
        raise UsageError(f"--alphas gives {len(alphas)} values, but the window {spec.window} "
                         f"reads only alpha_0..alpha_{spec.window}")
    alpha = {k: (alphas[k] if k < len(alphas) else Fraction(0)) for k in range(spec.window + 1)}
    printed_c: dict[int, Fraction] = {}
    for k in spec.resonant_range():
        if alpha[k] == alpha[m - k - 1]:
            raise UsageError(f"alpha_{k} must differ from alpha_{m - k - 1}")
        printed_c[k] = Fraction(2 * k - m + 1) * alpha[k] / (alpha[k] - alpha[m - k - 1])
    # both families set a_c = alpha_c t and b_k = t; they differ in c_k
    point = {spec.diagonal_param(c): alpha[c] for c in range(spec.window + 1)}
    point.update((spec.off_diagonal_params(k)[0], Fraction(1)) for k in spec.resonant_range())
    c_name = {k: spec.off_diagonal_params(k)[1] for k in spec.resonant_range()}
    printed_action = _one_parameter_action(
        spec, point | {c_name[k]: v for k, v in printed_c.items()})

    # engine-solved family: substitute the point into the derived generators
    # and solve each (linear in its own c_k) exactly
    formal = build_infinitesimal(DeformationSpec(CLASSICAL, spec.delta, spec.window))
    solved_c: dict[int, Fraction | None] = {}
    for entry in obstruction_classes(formal).blocks:
        gen = entry.class_coeff.substitute(point)
        at_zero = gen.substitute({c_name[entry.k]: 0})
        # gen = A + B*c_k with A, B rational
        a_part = at_zero.constant_value()
        b_part = (gen - at_zero).substitute({c_name[entry.k]: 1}).constant_value()
        solved_c[entry.k] = (-a_part / b_part) if b_part else None
    solved_action = _one_parameter_action(
        spec, point | {c_name[k]: v for k, v in solved_c.items() if v is not None})
    return Example1Report(
        m=m,
        alphas=list(alphas),
        printed_flat=verify_homomorphism(printed_action).passed,
        printed_c=printed_c,
        solved_c=solved_c,
        coincide=all(solved_c.get(k) == printed_c[k] for k in printed_c),
        solved_flat=verify_homomorphism(solved_action).passed,
    )


# ---------------------------------------------------------------------------
# Gauge equivalence
# ---------------------------------------------------------------------------


def _refuse_parameter_free(op: GradedOp, caller: str):
    """UsageError when op has a part of parameter degree 0: it has no order."""
    if op.param_component(0):
        raise UsageError(f"{caller} needs every deformation and gauge coefficient to be of "
                         "positive parameter degree; a parameter-free term has no order")


def gauge_transform(action: DeformedAction, gauge: GradedOp,
                    truncation_order: int) -> DeformedAction:
    """Conjugate by Id + gauge, truncated in total parameter degree.

    The order-n term of the result is the part of parameter degree n of
    (Id + gauge) L (Id + gauge)^-1 - L0, and orders with no nonzero term are
    left out.  A parameter-free part has no order under this rule, so an
    action or gauge that leaves one (a numeric action, a gauge with a
    parameter-free coefficient) is refused with ``UsageError``.  A gauge of
    parameter degree >= 2 leaves the first-order part untouched, and the
    result holds the input's row itself, so a certified row stays certified;
    the obstruction classes are invariant either way."""
    spec = action.spec
    ident = graded_identity(spec.flavor, spec.delta, spec.window)
    gauge = gauge.truncate_params(truncation_order)
    # Neumann inverse of Id + gauge up to the truncation order
    inverse = ident
    power = ident
    for _ in range(truncation_order):
        power = power.compose(gauge).scale(-1).truncate_params(truncation_order)
        if not power:
            break
        inverse = inverse + power
    phi = ident + gauge
    deltas = []
    for index in range(action.ctx.dim):
        conjugated = phi.compose(action.full(index)).compose(inverse)
        delta_part = conjugated.truncate_params(truncation_order) - action.undeformed(index)
        _refuse_parameter_free(delta_part, "gauge_transform")
        deltas.append(delta_part)
    terms = {}
    for order in range(1, truncation_order + 1):
        row = tuple(d.param_component(order) for d in deltas)
        if any(row):
            terms[order] = action.terms[1] if order == 1 and row == action.terms.get(1) else row
    return DeformedAction(spec, terms, truncation_order=truncation_order)


@record
class NotTrivializable:
    reason: str
    classes: list[str]


def trivialize_second_order(action: DeformedAction,
                            bounds: BoundsSpec | None = None):
    """Remove the second-order term by a gauge when the obstruction vanishes.

    Returns (gauge, new_action); NotTrivializable carries the nonzero
    class coefficients, or names the block whose second-order term is no
    bounded coboundary, otherwise.  A numeric action is refused first, as
    ``gauge_transform`` refuses it."""
    spec = action.spec
    ctx = action.ctx
    for term in (term for row in action.terms.values() for term in row):
        _refuse_parameter_free(term, "trivialize_second_order")
    first_only = DeformedAction(spec, {1: action.first_order})
    report = obstruction_classes(first_only, bounds)
    live = [str(b.class_coeff) for b in report.blocks if b.class_coeff]
    if report.verdict != "derived":
        return NotTrivializable(reason="obstruction analysis inconclusive", classes=live)
    if live:
        return NotTrivializable(reason="nonzero obstruction class", classes=live)
    second = action.terms.get(2, ())
    # solve d0(T) = second-order term, one block at a time
    gauge = GradedOp(spec.flavor, spec.delta, spec.window)
    for (j, i) in sorted({key for g in second for key in g.blocks}):
        result = coboundary_solve(Cochain1(ctx.name, [g.block(j, i) for g in second]), bounds)
        if isinstance(result, NoSolutionWithinBounds):
            return NotTrivializable(
                reason=f"second-order term is not a bounded coboundary on block ({j}, {i})",
                classes=[])
        gauge.set_block(j, i, result.cochain.value)
    if not gauge:
        return gauge, action
    truncation = action.truncation_order or max(2, max(action.terms))
    transformed = gauge_transform(action, gauge, truncation_order=truncation)
    if 2 in transformed.terms:
        raise InternalError("gauge failed to cancel the second-order term")
    return gauge, transformed
