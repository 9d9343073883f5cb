"""Chevalley-Eilenberg cochains of sl(2) and osp(1|2) with operator
values, their differentials, bounded coboundary solving, and truncated
cohomology dimensions.

The super differential follows one fixed convention, for a cochain c of
parity p(c) and homogeneous arguments:

    (d0 b)(X)    = (-1)^{p(X)p(b)} rho(X) b
    (d1 c)(X,Y)  = (-1)^{p(c)p(X)} rho(X) c(Y)
                   - (-1)^{p(Y)(p(c)+p(X))} rho(Y) c(X) - c([X,Y])
    (d2 w)(X,Y,Z)= (-1)^{p(w)p(X)} rho(X) w(Y,Z)
                   - (-1)^{p(Y)(p(w)+p(X))} rho(Y) w(X,Z)
                   + (-1)^{p(Z)(p(w)+p(X)+p(Y))} rho(Z) w(X,Y)
                   - w([X,Y],Z) + (-1)^{p(Z)p(Y)} w([X,Z],Y) + w(X,[Y,Z])

Every named cocycle family of ``catalog`` is closed under this
differential; ``catalog.calibrate_convention`` checks that in every run
and its record is embedded in every report.  It checks every sample with
``is_cocycle``, on the integer action tables below, and cross-checks one
sample of each degree with the typed ``d1``/``d2``.

All linear algebra is done exactly, sliced by the weight grading of the
Euler element, under explicit operator-order and coefficient-degree
bounds.  A failed solve is therefore always *within bounds*, never a
claim about the untruncated complex.

One Euler-weight rule serves both algebras: the monomial x^d theta^eps D^i
has the doubled weight (its key) 2d + eps - w_D i (``operators.monomial_key``),
where w_D = 2 for D = d_x and 1 for D = eta is the doubled weight by which D
lowers it (the operator class's ``dweight``); sl(2) monomials have no eps.
An algebra is one row of ``_ALGEBRAS``: its flavor, basis and doubled
weights.  The generator parities are read off those weights (the odd
generators are those of odd weight), and the Euler element is the
generator of weight 0.

Slices are indexed by weight key alone: the key fixes the parity, key & 1
(``AlgebraContext.key_parity``).  In osp(1|2) that is eps + i, the parity of
x^d theta^eps eta^i; in sl(2) every key and every cochain is even.

Differential columns are built in integers: the action tables of a block
hold D times the action (one block denominator D) and the differential's
table T times its coefficients, so one builder (``_differential``) returns
s = D*T times each column.  Ranks read those columns as they are; a solve
scales its right-hand side by s too.  ``cohomology_dim`` ranks only the
critical weight key, once, up to the threshold order where it is exact.

Cochains of degrees 0, 1 and 2 are one class, ``Cochain``, with one image
per slot of ``_cochain_slots`` (None, a basis index, a canonical pair);
``Cochain0``/``Cochain1``/``Cochain2`` only fix the degree and input shape.

A cochain is read once as coordinates {parameter monomial: {(slot,
monomial): Fraction}} (``_cochain_coords``), iterating the map
{parameter monomial: parameter-free operator} of each image
(``operators.ParamOp``); a parameter-free cochain has the single parameter
monomial ((), ()).  Formal parameters are constants
for the action, so d acts on each parameter monomial's coefficient cochain
on its own, whose parity is the cochain's less the monomial's odd letters.
``is_cocycle``, ``coboundary_solve`` and ``decompose_cocycle`` accept
parametric cochains.  One solver (``_solve_by_weight``) answers every class
question and alone checks its contract, refusing anything else: c has
degree 1 or 2 and is closed, and the classes are parameter-free cocycles of
c's algebra, degree and block, of one parity.  It splits c into class
coefficients times the classes plus a coboundary within bounds (default:
``default_witness_bounds`` of c and the classes), returned with every
answer.  A split proves c closed (d d = 0), so only a failed one runs
``is_cocycle(c)``.  ``coboundary_solve`` passes no class,
``decompose_cocycle`` one, ``classes_independent`` its cocycles against 0.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .geometry import (
    CLASSICAL,
    SUPER,
    Poly,
    SuperPoly,
    contact_bracket,
    osp_basis,
    sl2_basis,
    vf_bracket,
)
from .kernel import (
    _ONE_MON,
    InternalError,
    ParamScalar,
    SolvedSystem,
    UsageError,
    as_weight,
    matrix_rank,
    record,
)
from .operators import (
    AnyOp,
    DiffOp,
    ParamOp,
    SuperDiffOp,
    lie_derivative_op,
    monomial_action,
    monomial_coords,
    monomial_key,
    op_class,
    param_terms,
    super_lie_derivative_op,
)

SL2 = "sl2"
OSP12 = "osp12"


@record(frozen=True)
class BoundsSpec:
    """Truncation bounds: witness operator order and coefficient degree caps."""

    max_operator_order: int
    max_coefficient_degree: int

    def __post_init__(self):
        if not all(type(v) is int and v >= 0 for v in vars(self).values()):
            raise UsageError("bounds must be non-negative integers")

    def bumped(self) -> "BoundsSpec":
        return BoundsSpec(self.max_operator_order + 2, self.max_coefficient_degree + 2)

    def to_json(self) -> dict:
        return {"max_operator_order": self.max_operator_order,
                "max_coefficient_degree": self.max_coefficient_degree}


# ---------------------------------------------------------------------------
# Algebra contexts
# ---------------------------------------------------------------------------


# name -> (flavor, basis builder, doubled Euler weights of the basis): the
# odd generators are those of odd weight and the Euler element has weight 0
_ALGEBRAS = {SL2: (CLASSICAL, sl2_basis, (-2, 0, 2)),
             OSP12: (SUPER, osp_basis, (-2, -1, 0, 1, 2))}


class AlgebraContext:
    """A finite basis of the acting algebra with brackets expanded over it."""

    def __init__(self, name: str):
        if name not in _ALGEBRAS:
            raise UsageError(f"unknown algebra {name!r}")
        self.name = name
        self.flavor, basis, self.weights2 = _ALGEBRAS[name]
        self.basis = basis()
        self.parities = tuple(w & 1 for w in self.weights2)
        self.euler_index = self.weights2.index(0)
        self.dim = len(self.basis)
        self.structure = self._structure_constants()

    def _structure_constants(self) -> dict[tuple[int, int], tuple[Fraction, ...]]:
        """[X_i, X_j] = sum_g c_g X_g.  X_g is generated by the monomial
        x^((w + 2) // 2) theta^(w & 1) of its doubled weight w, so c_g is that
        coefficient of the bracket's generator, whose halves (f0, f1) hold
        nothing else."""
        out = {}
        for i in range(self.dim):
            for j in range(self.dim):
                x, y = self.basis[i], self.basis[j]
                if self.flavor == CLASSICAL:
                    halves = (vf_bracket(x, y).g,)
                else:
                    h = contact_bracket(x, y).generator
                    halves = (h.f0, h.f1)
                coeffs = tuple(halves[w & 1].coefficient((w + 2) // 2) for w in self.weights2)
                if sum(map(bool, coeffs)) != sum(bool(c) for half in halves for c in half.coeffs):
                    raise InternalError(f"{self.name} bracket left the span")
                out[(i, j)] = coeffs
        return out

    def act(self, index: int, value):
        """The module action of basis element `index` on an operator value."""
        if not isinstance(value, (DiffOp, SuperDiffOp, ParamOp)):
            raise UsageError(f"cannot act on {type(value).__name__}")
        x = self.basis[index]
        if value.flavor == CLASSICAL:
            return lie_derivative_op(x, value)
        return super_lie_derivative_op(x, value)

    @staticmethod
    def key_parity(key: int) -> int:
        """The parity of every cochain of weight key `key` (module docstring)."""
        return key & 1

    def canonical_pairs(self) -> list[tuple[int, int]]:
        pairs = [(i, j) for i in range(self.dim) for j in range(i + 1, self.dim)]
        pairs.extend((i, i) for i in range(self.dim) if self.parities[i])
        return sorted(pairs)

    def canonical_triples(self) -> list[tuple[int, int, int]]:
        out = []
        for i in range(self.dim):
            for j in range(i, self.dim):
                if i == j and not self.parities[i]:
                    continue
                for k in range(j, self.dim):
                    if j == k and not self.parities[j]:
                        continue
                    out.append((i, j, k))
        return out


@lru_cache(maxsize=None)
def get_algebra(name: str) -> AlgebraContext:
    return AlgebraContext(name)


def algebra_for_flavor(flavor: str) -> AlgebraContext:
    return get_algebra(next(name for name, row in _ALGEBRAS.items() if row[0] == flavor))


# ---------------------------------------------------------------------------
# Cochains
# ---------------------------------------------------------------------------


def _infer_parity(values, declared: int | None) -> int:
    inferred = set()
    for value, slot_parity in values:
        if not value:
            continue
        p = value.parity()
        if p is None:
            continue
        inferred.add((p + slot_parity) & 1)
    if len(inferred) > 1:
        raise UsageError("cochain images have inconsistent parities")
    if inferred:
        parity = inferred.pop()
        if declared is not None and declared != parity:
            raise UsageError("declared cochain parity contradicts the images")
        return parity
    return declared if declared is not None else 0


class Cochain:
    """A cochain of degree 0, 1 or 2: one operator value per slot of
    ``_cochain_slots``, held as ``images`` {slot: value} in slot order.

    A degree-2 cochain is stored on canonical pairs (i < j, odd diagonals);
    ``at`` reads it at any pair through the super-antisymmetry of
    ``_canonical_slot``.  The parity is inferred from the images and their
    slot parities, or taken as declared when every image is zero.
    """

    def __init__(self, algebra: str, degree: int, images: dict,
                 parity: int | None = None):
        slots = _cochain_slots(get_algebra(algebra), degree)
        if set(images) != {slot for slot, _, _ in slots}:
            raise UsageError(f"a degree-{degree} cochain on {algebra} needs one image "
                             "at every slot")
        self.algebra = algebra
        self.degree = degree
        self.images = {slot: images[slot] for slot, _, _ in slots}
        self.parity = _infer_parity([(images[slot], p) for slot, _, p in slots], parity)

    def _like(self, images: dict) -> "Cochain":
        """A cochain of self's class, algebra and degree with these images;
        the parity is re-inferred, since scaling by an odd parameter flips it."""
        out = object.__new__(type(self))
        Cochain.__init__(out, self.algebra, self.degree, images)
        return out

    @property
    def block(self) -> tuple[Fraction, Fraction]:
        first = next(iter(self.images.values()))
        return (first.lam, first.mu)

    def zero_value(self):
        return next(iter(self.images.values())).scale(0)

    def at(self, *args):
        """The image at basis arguments `args` (one per degree)."""
        hit = _canonical_slot(get_algebra(self.algebra).parities, args)
        if hit is None:
            return self.zero_value()  # even diagonal
        slot, sign = hit
        return self.images[slot] if sign == 1 else self.images[slot].scale(sign)

    def is_zero(self) -> bool:
        return not any(self.images.values())

    def __add__(self, other: "Cochain") -> "Cochain":
        if not isinstance(other, Cochain) or (other.algebra, other.degree) != (
                self.algebra, self.degree):
            raise UsageError("cochains of different degrees or algebras do not add")
        return self._like({k: v + other.images[k] for k, v in self.images.items()})

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1)

    def scale(self, s) -> "Cochain":
        return self._like({k: v.scale(s) for k, v in self.images.items()})

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return self.algebra == other.algebra and self.images == other.images


class Cochain0(Cochain):
    """Degree-0 cochain: a single operator value."""

    def __init__(self, algebra: str, value, parity: int | None = None):
        super().__init__(algebra, 0, {None: value}, parity)

    @property
    def value(self):
        return self.images[None]


class Cochain1(Cochain):
    """Degree-1 cochain: one operator value per algebra basis element, given
    in basis order or as {index: value}."""

    def __init__(self, algebra: str, images: Sequence | dict, parity: int | None = None):
        if not isinstance(images, dict):
            images = dict(enumerate(images))
        super().__init__(algebra, 1, images, parity)


class Cochain2(Cochain):
    """Degree-2 cochain: {canonical pair: value}."""

    def __init__(self, algebra: str, images: dict, parity: int | None = None):
        super().__init__(algebra, 2, images, parity)


def _sign(exponent: int) -> int:
    return -1 if exponent & 1 else 1


def d0(b: Cochain0) -> Cochain1:
    """(d0 b)(X) = (-1)^{p(X)p(b)} rho(X) b."""
    ctx = get_algebra(b.algebra)
    images = []
    for i in range(ctx.dim):
        term = ctx.act(i, b.value).scale(_sign(ctx.parities[i] * b.parity))
        images.append(term)
    return Cochain1(b.algebra, images, (b.parity or 0))


def d1(c: Cochain1) -> Cochain2:
    ctx = get_algebra(c.algebra)
    p = c.parity
    par = ctx.parities
    images = {}
    for (i, j) in ctx.canonical_pairs():
        term = ctx.act(i, c.images[j]).scale(_sign(p * par[i]))
        term = term - ctx.act(j, c.images[i]).scale(_sign(par[j] * (p + par[i])))
        for g, coeff in enumerate(ctx.structure[(i, j)]):
            if coeff:
                term = term - c.images[g].scale(coeff)
        images[(i, j)] = term
    return Cochain2(c.algebra, images, p)


def d2(w: Cochain2) -> dict:
    """Images of the degree-2 differential on canonical basis triples."""
    ctx = get_algebra(w.algebra)
    p = w.parity
    par = ctx.parities
    out = {}
    for (i, j, k) in ctx.canonical_triples():
        term = ctx.act(i, w.at(j, k)).scale(_sign(p * par[i]))
        term = term - ctx.act(j, w.at(i, k)).scale(_sign(par[j] * (p + par[i])))
        term = term + ctx.act(k, w.at(i, j)).scale(_sign(par[k] * (p + par[i] + par[j])))
        for g, coeff in enumerate(ctx.structure[(i, j)]):
            if coeff:
                term = term - w.at(g, k).scale(coeff)
        for g, coeff in enumerate(ctx.structure[(i, k)]):
            if coeff:
                term = term + w.at(g, j).scale(coeff * _sign(par[k] * par[j]))
        for g, coeff in enumerate(ctx.structure[(j, k)]):
            if coeff:
                term = term + w.at(i, g).scale(coeff)
        out[(i, j, k)] = term
    return out


def is_cocycle(c: Cochain) -> bool:
    """Exact d c = 0, read off the action tables: each weight-key slice of
    the coefficient cochain of every parameter monomial goes through the
    loop behind every differential column (``_differential``), whose scale
    s != 0 does not matter for a zero test; d keeps keys, so c is closed iff
    every slice is.  The typed d1/d2 are its oracle in the tests and, on
    one sample per degree, in the sign-convention check of every run."""
    cache = block_cache(c.algebra, *c.block)
    for coords in _cochain_coords(c).values():
        for key, piece in _by_weight_key(c, coords).items():
            table = _ce_table(c.algebra, c.degree, cache.ctx.key_parity(key))
            if _differential(cache, table, piece.items()):
                return False
    return True


# ---------------------------------------------------------------------------
# Coordinates and the weight grading
# ---------------------------------------------------------------------------


def _cochain_coords(c: Cochain) -> dict[tuple, dict]:
    """{parameter monomial: {(slot, monomial): Fraction}}, the coefficient
    cochain of each parameter monomial of c, read off the parameter-free
    operator each image holds at that monomial (``param_terms``);
    {((), ()): {}} when c is zero."""
    out: dict = {}
    for slot, im in c.images.items():
        for pmon, op in param_terms(im).items():
            coords = out.setdefault(pmon, {})
            for mon, value in monomial_coords(op).items():
                coords[(slot, mon)] = value
    return out or {_ONE_MON: {}}


def _by_weight_key(c: Cochain, coords: dict) -> dict[int, dict]:
    """Coordinates grouped by Euler-weight key (``monomial_key``, module
    docstring): a coordinate's key is its monomial's less the weight of its
    slot.  The Euler element acts diagonally with these keys up to a block
    constant, so d preserves them."""
    ctx = get_algebra(c.algebra)
    dweight = op_class(ctx.flavor).dweight
    weight = {slot: wt for slot, wt, _ in _cochain_slots(ctx, c.degree)}
    out: dict = {}
    for (slot, mon), value in coords.items():
        out.setdefault(monomial_key(mon, dweight) - weight[slot], {})[(slot, mon)] = value
    return out


def cochain_weight_keys(c: Cochain) -> list[int]:
    return sorted({key for coords in _cochain_coords(c).values()
                   for key in _by_weight_key(c, coords)})


# ---------------------------------------------------------------------------
# Bounded monomial bases and cached actions per block
# ---------------------------------------------------------------------------


class BlockCache:
    """Monomial operators and the memoized module action on one block.

    The action of each basis generator on each normal-form monomial is
    tabled once as sorted sparse integer coordinates ((monomial, int), ...)
    over one block denominator ``den`` (D): an entry is D times the true
    coefficient.  It is read off the commutation rules d_x^i o x^n (Leibniz)
    and eta o mult(u) = mult(eta u) + mult(u^) eta without building an
    operator (``act_monomial``); the generic composition is the oracle in the
    tests.
    """

    def __init__(self, algebra: str, lam: Fraction, mu: Fraction):
        self.ctx = get_algebra(algebra)
        self.lam = lam
        self.mu = mu
        self._act: dict[tuple[int, tuple], tuple[tuple[tuple, int], ...]] = {}
        actions = [monomial_action(x, lam, mu) for x in self.ctx.basis]
        self.den = math.lcm(*(den for den, _ in actions))
        self._actions = [(act, self.den // den) for den, act in actions]

    # -- monomials ----------------------------------------------------------

    def monomial_op(self, mon: tuple) -> AnyOp:
        if self.ctx.flavor == CLASSICAL:
            d, i = mon
            return DiffOp.partial(i, self.lam, self.mu, Poly.x_power(d))
        d, eps, i = mon
        return SuperDiffOp.eta_power_term(
            SuperPoly.x_power(d, theta=bool(eps)), i, self.lam, self.mu
        )

    def act_monomial(self, gen: int, mon: tuple) -> tuple[tuple[tuple, int], ...]:
        """The tabled action of basis element `gen` on monomial `mon`: sorted
        integer coordinates, D (``den``) times the true ones, as a tuple.

        Built by ``operators.monomial_action`` on coordinates, with

            d_x^i o x^n   = sum_s C(i,s) n(n-1)...(n-s+1) x^(n-s) d_x^(i-s)
            eta o mult(u) = mult(eta u) + mult(u^) eta

        Its oracle is the generic composition
        ``monomial_coords(ctx.act(gen, monomial_op(mon)))``, which the tests
        compare entry by entry against the table over D."""
        keyed = (gen, mon)
        cached = self._act.get(keyed)
        if cached is None:
            act, scale = self._actions[gen]
            cached = self._act[keyed] = act(mon, scale)
        return cached


def bounded_monomials(flavor: str, bounds: BoundsSpec, key: int) -> list[tuple]:
    """The monomials of weight key `key` within bounds, in order of operator
    order i, which fits at most one: x^d d_x^i with 2(d - i) = key (none for
    an odd key), or x^d theta^eps eta^i with 2d + eps - i = key."""
    dweight = op_class(flavor).dweight
    mons = [(key // 2 + i, i) if flavor == CLASSICAL else ((key + i) // 2, (key + i) & 1, i)
            for i in range(bounds.max_operator_order + 1)]
    return [mon for mon in mons if 0 <= mon[0] <= bounds.max_coefficient_degree
            and monomial_key(mon, dweight) == key]


_BLOCK_CACHES: dict[tuple, BlockCache] = {}


def block_cache(algebra: str, lam, mu) -> BlockCache:
    key = (algebra, as_weight(lam), as_weight(mu))
    cache = _BLOCK_CACHES.get(key)
    if cache is None:
        cache = _BLOCK_CACHES[key] = BlockCache(*key)
    return cache


# ---------------------------------------------------------------------------
# Differential matrices on weight slices
# ---------------------------------------------------------------------------


def _cochain_slots(ctx: AlgebraContext, degree: int) -> list[tuple]:
    """(slot, doubled slot weight, slot parity) of C^degree; degree 0 has
    the single slot None."""
    if degree == 0:
        return [(None, 0, 0)]
    if degree == 1:
        return [(i, ctx.weights2[i], ctx.parities[i]) for i in range(ctx.dim)]
    if degree == 2:
        return [((i, j), ctx.weights2[i] + ctx.weights2[j], ctx.parities[i] ^ ctx.parities[j])
                for (i, j) in ctx.canonical_pairs()]
    raise UsageError("cochain degree must be 0, 1 or 2")


def _enumerate_cochain_basis(cache: BlockCache, degree: int, bounds: BoundsSpec,
                             key: int) -> list:
    """Basis of the bounded weight-key slice of C^degree: (slot, monomial)
    pairs, all of parity ``key_parity(key)``."""
    return [(slot, mon) for slot, wt, _ in _cochain_slots(cache.ctx, degree)
            for mon in bounded_monomials(cache.ctx.flavor, bounds, key + wt)]


def _canonical_slot(par: tuple, args: tuple) -> tuple | None:
    """(slot, sign) with w(*args) = sign * w[slot], or None where w vanishes
    identically (an even diagonal)."""
    if len(args) < 2:
        return (args[0] if args else None), 1
    x, y = args
    if x < y or (x == y and par[x]):
        return (x, y), 1
    if x == y:
        return None
    return (y, x), (1 if par[x] and par[y] else -1)


@lru_cache(maxsize=None)
def _ce_table(algebra: str, degree: int, parity: int) -> tuple[int, dict]:
    """(T, terms): the terms of d^degree on cochains of one parity, grouped
    by the input slot they read, slot -> [(output key, generator or None for
    the identity, coefficient)], each coefficient an integer, T times the
    true one (T clears the halves of the osp(1|2) structure constants).

    This is the formula of the module docstring: action term a reads w with
    x_a omitted, with sign (-1)^a times the Koszul sign of moving x_a past w
    and x_0..x_{a-1}; bracket term a < b reads w([x_a, x_b], rest), with
    sign (-1)^(a+b) times the Koszul sign of moving x_a and x_b to the front.
    """
    ctx = get_algebra(algebra)
    par = ctx.parities
    outputs = [(i,) for i in range(ctx.dim)] if degree == 0 else (
        ctx.canonical_pairs() if degree == 1 else ctx.canonical_triples())
    table: dict = {}

    def add(out, gen, coeff, args):
        hit = _canonical_slot(par, args)
        if coeff and hit is not None:
            table.setdefault(hit[0], []).append((out, gen, coeff * hit[1]))

    for xs in outputs:
        out = xs[0] if degree == 0 else xs
        before = [sum(par[x] for x in xs[:a]) for a in range(len(xs))]
        for a, x in enumerate(xs):
            add(out, x, _sign(a + par[x] * (parity + before[a])), xs[:a] + xs[a + 1:])
        for a in range(len(xs)):
            for b in range(a + 1, len(xs)):
                koszul = par[xs[a]] * before[a] + par[xs[b]] * (before[b] - par[xs[a]])
                rest = xs[:a] + xs[a + 1:b] + xs[b + 1:]
                for g, coeff in enumerate(ctx.structure[(xs[a], xs[b])]):
                    add(out, None, coeff * _sign(a + b + koszul), (g,) + rest)
    scale = math.lcm(*(coeff.denominator for terms in table.values() for _, _, coeff in terms))
    return scale, {slot: [(out, gen, int(coeff * scale)) for out, gen, coeff in terms]
                   for slot, terms in table.items()}


def _differential(cache: BlockCache, table: tuple[int, dict], coords) -> dict:
    """Coordinates {(output key, monomial): value} of s times d applied to the
    cochain with coordinates [((slot, monomial), value)], d given by its
    _ce_table (T, terms) and s = D*T (D = ``cache.den``): integers for integer
    coordinates.  Nothing is truncated: a column is the whole image of its
    basis cochain, whatever bounds that cochain was enumerated under."""
    identity, terms = cache.den, table[1]
    col: dict = {}
    for (slot, mon), value in coords:
        for out, gen, coeff in terms.get(slot, ()):
            if value != 1:
                coeff = coeff * value
            image = ((mon, identity),) if gen is None else cache.act_monomial(gen, mon)
            for mon2, val in image:
                rkey = (out, mon2)
                acc = col.get(rkey, 0) + coeff * val
                if acc:
                    col[rkey] = acc
                else:
                    col.pop(rkey, None)
    return col


def homomorphism_failure(algebra: str, ops: Sequence[AnyOp]) -> tuple[int, int] | None:
    """The first ordered basis pair (i, j) with act(X_i, ops[j]) other than
    sum_g c_ij^g ops[g], for parameter-free ops on one block, one per basis
    element, or None.  At X_i, d0 of the 0-cochain ops[j] by the one column
    builder (``_differential``) is s (-1)^{p_i p_j} act(X_i, ops[j])."""
    ctx, cache = get_algebra(algebra), block_cache(algebra, ops[0].lam, ops[0].mu)
    coords = [monomial_coords(op) for op in ops]
    for j in range(ctx.dim):
        table = _ce_table(algebra, 0, ctx.parities[j])
        col = _differential(cache, table, (((None, mon), v) for mon, v in coords[j].items()))
        for i in range(ctx.dim):
            scale = _sign(ctx.parities[i] * ctx.parities[j]) * cache.den * table[0]
            want: dict = {}
            for g, c in enumerate(ctx.structure[(i, j)]):
                for mon, v in coords[g].items() if c else ():
                    want[(i, mon)] = want.get((i, mon), 0) + scale * c * v
            if {k: v for k, v in col.items() if k[0] == i} != want:
                return i, j
    return None


def _differential_columns(cache: BlockCache, degree: int, bounds: BoundsSpec,
                          key: int) -> tuple[list, int, list[dict]]:
    """(basis, s, columns) of the bounded slice of C^degree at weight key
    `key` (``_enumerate_cochain_basis``): s times the coordinates of d^degree
    on each basis cochain, {(output key, monomial): int}, with s = D*T
    (``_differential``) and the parity ``key_parity(key)``.

    Agreement with the typed d0/d1/d2 is pinned by tests."""
    basis = _enumerate_cochain_basis(cache, degree, bounds, key)
    table = _ce_table(cache.ctx.name, degree, cache.ctx.key_parity(key))
    return basis, cache.den * table[0], [
        _differential(cache, table, ((item, 1),)) for item in basis]


def _rank(cols: list[dict], skip=()) -> int:
    """Rank of the columns, less the row keys in `skip`.  Rank is invariant
    under transposition, so each nonzero column goes in as one sparse row.
    Row keys are numbered in sorted order, (output slot, monomial): the
    elimination then fills in less than in order of first appearance."""
    index = {k: n for n, k in enumerate(sorted({k for col in cols for k in col} - set(skip)))}
    rows = [row for col in cols if (row := [(index[k], v) for k, v in col.items() if k in index])]
    return matrix_rank(rows, len(index))


# ---------------------------------------------------------------------------
# Coboundary solving
# ---------------------------------------------------------------------------


@record
class Witness:
    cochain: Cochain


@record
class NoSolutionWithinBounds:
    bounds: BoundsSpec


@record
class Decomposition:
    """c = coeff * family + d(witness), exactly, with the witness within bounds."""

    coeff: Fraction | ParamScalar
    witness: Cochain
    bounds: BoundsSpec


def default_witness_bounds(*cochains: Cochain) -> BoundsSpec:
    """Generous default truncation, relative to the size of the given
    cochains, which live on one block."""
    lam, mu = cochains[0].block
    images = [im for c in cochains for im in c.images.values()]
    order = max((im.order or 0 for im in images if im), default=0)
    n = order + 2 + math.ceil(abs(2 * (mu - lam))) + 2
    return BoundsSpec(n, 2 * n + 4)


def _assemble_witness(cache: BlockCache, degree: int, coeffs: dict) -> Cochain:
    """The cochain with coefficients {basis item: Fraction} on the block."""
    ctx = cache.ctx
    zero = op_class(ctx.flavor).zero(cache.lam, cache.mu)
    images = {slot: zero for slot, _, _ in _cochain_slots(ctx, degree)}
    for (slot, mon), coeff in coeffs.items():
        images[slot] = images[slot] + cache.monomial_op(mon).scale(coeff)
    return Cochain0(ctx.name, images[None]) if degree == 0 else Cochain1(ctx.name, images)


def _slice_system(cache: BlockCache, degree: int, bounds: BoundsSpec, keys: Sequence[int],
                  leads: Sequence[dict] = ()):
    """(basis, row index, s, SolvedSystem) of s * [d^degree | leads]: the
    stacked slices of the weight keys `keys` (a row key fixes its weight
    key), then one column per lead {(slot, monomial): value}.  The keys
    share a parity, hence the scale s of the integer columns
    (``_differential``; 1 with no key); right-hand sides are scaled by s
    too.  Pivots are the earliest independent columns, so a lead is a
    bounded coboundary plus earlier leads exactly when it is no pivot; when
    it is one, the d^degree pivots and solution entries are as without it."""
    basis, s, cols = [], 1, []
    for key in keys:
        key_basis, s, key_cols = _differential_columns(cache, degree, bounds, key)
        basis += key_basis
        cols += key_cols
    cols += [{k: s * v for k, v in lead.items()} for lead in leads]
    by_key: dict = {}  # the sparse rows of the slice system, one per row key
    for cnum, col in enumerate(cols):
        for k, v in col.items():
            by_key.setdefault(k, []).append((cnum, v))
    row_index = {k: n for n, k in enumerate(by_key)}
    return basis, row_index, s, SolvedSystem(list(by_key.values()), len(cols))


def _no_split(c: Cochain, bounds: BoundsSpec) -> NoSolutionWithinBounds:
    """The answer when c has no split within bounds, once c is checked closed."""
    if not is_cocycle(c):
        raise UsageError("a class question expects a cocycle: d c is not zero")
    return NoSolutionWithinBounds(bounds)


def _solve_by_weight(c: Cochain, bounds: BoundsSpec | None, classes: Sequence[Cochain] = ()):
    """Solve c = sum_j t_j * classes[j] + d(b) exactly, with b within bounds
    (None: ``default_witness_bounds(c, *classes)``), under the contract of
    the module docstring; c is checked closed only when no split exists.

    One slice system per parity is stacked over every weight key of c and
    of the classes (``_slice_system``), the class columns last on the
    classes' parity.  Parameters are constants for d and a parameter
    monomial's coefficient cochain has a single parity, so each monomial
    takes one solve; its solution stands at the unit monomial as it is and
    is scaled by the monomial's ParamScalar otherwise.  Returns
    ([t_j], b, bounds), or NoSolutionWithinBounds when some monomial has no
    solution or some class column is no pivot."""
    if c.degree not in (1, 2):
        raise UsageError(f"a class question needs a cochain of degree 1 or 2, not {c.degree}")
    cache = block_cache(c.algebra, *c.block)
    leads = []
    for cls in classes:
        coords = _cochain_coords(cls)
        if set(coords) != {_ONE_MON}:
            raise UsageError("the classes must be parameter-free cocycles")
        if not is_cocycle(cls):
            raise UsageError("a class decomposition expects cocycles")
        if (cls.algebra, cls.degree, cls.block, cls.parity) != (
                c.algebra, c.degree, c.block, classes[0].parity):
            raise UsageError("the classes must share a block and parity, and the cochain's "
                             "algebra and degree")
        leads.append(coords[_ONE_MON])
    if bounds is None:
        bounds = default_witness_bounds(c, *classes)
    pieces = {pmon: _by_weight_key(c, coords) for pmon, coords in _cochain_coords(c).items()}
    parity = classes[0].parity if classes else None  # of the class columns
    by_parity: dict = {} if parity is None else {parity: []}  # also for classes with no key
    for key in sorted({k for piece in pieces.values() for k in piece}
                      | {k for cls in classes for k in cochain_weight_keys(cls)}):
        by_parity.setdefault(cache.ctx.key_parity(key), []).append(key)
    systems = {p: _slice_system(cache, c.degree - 1, bounds, keys, leads if p == parity else ())
               for p, keys in by_parity.items()}
    if classes:
        system = systems[parity][3]
        if not set(range(system.ncols - len(leads), system.ncols)) <= set(system.pivot_cols):
            return _no_split(c, bounds)
    coeffs, witness = [Fraction(0)] * len(leads), _assemble_witness(cache, c.degree - 1, {})
    for pmon, piece in sorted(pieces.items()):
        if not piece:
            continue
        basis, row_index, s, system = systems[cache.ctx.key_parity(next(iter(piece)))]
        rhs = [Fraction(0)] * len(row_index)
        for k, v in (item for coords in piece.values() for item in coords.items()):
            if k not in row_index:
                return _no_split(c, bounds)
            rhs[row_index[k]] = s * v
        solution = system.solve(rhs)
        if solution is None:
            return _no_split(c, bounds)
        unit = 1 if pmon == _ONE_MON else ParamScalar(None, {pmon: Fraction(1)})
        for j, v in enumerate(solution[len(basis):]):
            coeffs[j] = coeffs[j] + unit * v
        part = _assemble_witness(cache, c.degree - 1, {b: v for b, v in zip(basis, solution) if v})
        witness = witness + part.scale(unit)
    return coeffs, witness, bounds


def coboundary_solve(c: Cochain, bounds: BoundsSpec | None = None):
    """Solve d(b) = c with b within bounds: the class question with no
    class (``_solve_by_weight``: its contract, refusals and default bounds).
    c may hold formal parameters, and then so does the witness.  Returns a
    Witness, whose typed coboundary is re-checked to equal c exactly, or
    NoSolutionWithinBounds."""
    solved = _solve_by_weight(c, bounds)
    if isinstance(solved, NoSolutionWithinBounds):
        return solved
    witness = solved[1]
    check = d0(witness) if witness.degree == 0 else d1(witness)
    if check.images != c.images:
        raise InternalError("witness failed the exact re-check")
    return Witness(witness)


def decompose_cocycle(c: Cochain, family: Cochain, bounds: BoundsSpec | None = None):
    """Write c = t * family + d(b) with b within bounds: the class question
    with one class (``_solve_by_weight``: its contract, refusals and default
    bounds, which count the family).  c may hold formal parameters; t and b
    then carry its parameter monomials, and a monomial with nothing at the
    family's keys adds 0 to t.  The family may span several weight keys.
    Returns a Decomposition with the bounds it used, or
    NoSolutionWithinBounds when no split exists within bounds or the family
    is itself a bounded coboundary, which is checked whatever keys c has."""
    solved = _solve_by_weight(c, bounds, [family])
    if isinstance(solved, NoSolutionWithinBounds):
        return solved
    (coeff,), witness, used = solved
    return Decomposition(coeff, witness, used)


def classes_independent(cocycles: Sequence[Cochain], bounds: BoundsSpec | None = None) -> bool:
    """True when no nonzero rational combination of the given parameter-free
    cocycles is a coboundary within bounds (in particular they are linearly
    independent in the truncated cohomology): the zero cochain splits
    against them (``_solve_by_weight``), which needs every class column to be
    a pivot."""
    return not cocycles or not isinstance(
        _solve_by_weight(cocycles[0].scale(0), bounds, cocycles), NoSolutionWithinBounds)


# ---------------------------------------------------------------------------
# Truncated cohomology dimensions
# ---------------------------------------------------------------------------


@record
class DimResult:
    dim: int
    stabilized: bool
    per_weight: dict
    examined_keys: tuple


def critical_weight_key(lam, mu) -> int | None:
    """w* = -2(mu - lambda), the key where the Euler element acts by zero;
    None when 2(mu - lambda) is not an integer."""
    key = -2 * (Fraction(mu) - Fraction(lam))
    return int(key) if key.denominator == 1 else None


def _critical_dimension(cache: BlockCache, degree: int, bounds: BoundsSpec, key: int) -> int:
    """Truncated dim H^degree at weight key `key` and `bounds`: the kernel of
    d^degree on the bounded slice less the part of that slice hit by
    d^(degree-1) of the witnesses within ``bounds.bumped()``.  Columns are
    never truncated, so that part has dimension rank(image) less the rank
    of the image rows outside the slice."""
    basis, _, cols = _differential_columns(cache, degree, bounds, key)
    image = _differential_columns(cache, degree - 1, bounds.bumped(), key)[2]
    return len(basis) - _rank(cols) - (_rank(image) - _rank(image, skip=basis))


def cohomology_dim(weights, degree: int, algebra: str,
                   bounds: BoundsSpec | None = None) -> DimResult:
    """dim H^degree on one block: exact, and stabilized, when `bounds`
    (default: all) hold the threshold slice; else truncated at `bounds`.

    Only the critical key w* is ranked (``_critical_dimension``): by
    Cartan's formula theta_h = d i_h + i_h d the even Euler element h acts on
    the slice of key w by a scalar that vanishes only at w*, so off w* every
    cocycle c is d(i_h c) over that scalar, with (i_h c)(X) = c(h, X) no
    larger than c.  The key fixes the parity, so w* is one slice; it holds
    no cochain when 2(mu - lambda) is not an integer or, in sl(2), when w*
    is odd, and then nothing is examined.

    The action keeps operator order; only orders n0 - 1 and n0 carry
    cohomology, and up to order n0 the slice at w* reaches coefficient
    degree 1 (README, "What a dimension verdict rests on").
    """
    if type(degree) is not int or degree not in (1, 2):
        raise UsageError("cohomology_dim supports degrees 1 and 2")
    ctx = get_algebra(algebra)
    lam, mu = as_weight(weights[0]), as_weight(weights[1])
    key = critical_weight_key(lam, mu)
    dweight = op_class(ctx.flavor).dweight
    if key is None or key % dweight:
        return DimResult(dim=0, stabilized=True, per_weight={}, examined_keys=())
    cache = block_cache(algebra, lam, mu)
    n0 = -key // dweight  # delta, 2 delta on osp(1|2)
    covered = bounds is None or n0 < 0 or (
        bounds.max_operator_order >= n0 and bounds.max_coefficient_degree >= 1)
    dim = _critical_dimension(cache, degree, BoundsSpec(max(0, n0), 1) if covered else bounds, key)
    return DimResult(dim=dim, stabilized=covered, per_weight={key: dim} if dim else {},
                     examined_keys=(key,))
