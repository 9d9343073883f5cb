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
and its record is embedded in every report.

All linear algebra is done exactly, sliced by the weight grading of the
Euler element, under explicit operator-order and coefficient-degree
bounds.  A failed solve is therefore always *within bounds*, never a
claim about the untruncated complex.

Slices are indexed by weight key alone: the key fixes the parity
(``AlgebraContext.key_parity``).  In osp(1|2) x^d theta^eps eta^i has key
2d + eps - i = eps + i (its parity) mod 2, and the odd generators are those
of odd weight; in sl(2) every key and every cochain is even.

Differential columns are built in integers: the action tables of a block
hold D times the action (one block denominator D) and the differential's
table T times its coefficients, so one builder (``_differential``) returns
s = D*T times each column.  Ranks read those columns as they are; a solve
scales its right-hand side by s too.  ``cohomology_dim`` ranks only the
critical weight key, at the bounds and at the bumped bounds, building each
column once.

Cochains of degrees 0, 1 and 2 are one class, ``Cochain``, with one image
per slot of ``_cochain_slots`` (None, a basis index, a canonical pair);
``Cochain0``/``Cochain1``/``Cochain2`` only fix the degree and input shape.

A cochain is read once as coordinates {parameter monomial: {(slot,
monomial): Fraction}} (``_cochain_coords``); a parameter-free cochain has
the single parameter monomial ((), ()).  Formal parameters are constants
for the action, so d acts on each parameter monomial's coefficient cochain
on its own, whose parity is the cochain's less the monomial's odd letters.
``is_cocycle``, ``coboundary_solve`` and ``decompose_cocycle`` accept
parametric cochains and split them by parameter monomial and weight key
inside the one per-weight solver (``_solve_by_weight``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

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
    matrix_rank,
    scalar_as_fraction,
)
from .operators import (
    AnyOp,
    DiffOp,
    SuperDiffOp,
    lie_derivative_op,
    monomial_action,
    monomial_coords,
    op_class,
    super_lie_derivative_op,
)

SL2 = "sl2"
OSP12 = "osp12"


@dataclass(frozen=True)
class BoundsSpec:
    """Truncation bounds: witness operator order and coefficient degree caps."""

    max_operator_order: int
    max_coefficient_degree: int

    def __post_init__(self):
        if self.max_operator_order < 0 or self.max_coefficient_degree < 0:
            raise UsageError("bounds must be non-negative")

    def bumped(self) -> "BoundsSpec":
        return BoundsSpec(self.max_operator_order + 2, self.max_coefficient_degree + 2)

    def to_json(self) -> dict:
        return {"max_operator_order": self.max_operator_order,
                "max_coefficient_degree": self.max_coefficient_degree}


# ---------------------------------------------------------------------------
# Algebra contexts
# ---------------------------------------------------------------------------


class AlgebraContext:
    """A finite basis of the acting algebra with brackets expanded over it."""

    def __init__(self, name: str):
        if name == SL2:
            self.name = name
            self.flavor = CLASSICAL
            self.basis = sl2_basis()
            self.parities = (0, 0, 0)
            self.euler_index = 1
            self.weights2 = (-2, 0, 2)
        elif name == OSP12:
            self.name = name
            self.flavor = SUPER
            self.basis = osp_basis()
            self.parities = (0, 1, 0, 1, 0)
            self.euler_index = 2
            self.weights2 = (-2, -1, 0, 1, 2)
        else:
            raise UsageError(f"unknown algebra {name!r}")
        self.dim = len(self.basis)
        self.structure = self._structure_constants()

    def _structure_constants(self) -> dict[tuple[int, int], tuple[Fraction, ...]]:
        out = {}
        for i in range(self.dim):
            for j in range(self.dim):
                if self.flavor == CLASSICAL:
                    g = vf_bracket(self.basis[i], self.basis[j]).g
                    if (g.degree or 0) > 2:
                        raise InternalError("sl(2) bracket left the span")
                    coeffs = tuple(Fraction(g.coefficient(n)) for n in range(3))
                else:
                    h = contact_bracket(self.basis[i], self.basis[j]).generator
                    if (h.f0.degree or 0) > 2 or (h.f1.degree or 0) > 1:
                        raise InternalError("osp(1|2) bracket left the span")
                    coeffs = tuple(
                        Fraction(scalar_as_fraction(c))
                        for c in (
                            h.f0.coefficient(0),
                            h.f1.coefficient(0),
                            h.f0.coefficient(1),
                            h.f1.coefficient(1),
                            h.f0.coefficient(2),
                        )
                    )
                out[(i, j)] = coeffs
        return out

    def act(self, index: int, value):
        """The module action of basis element `index` on an operator value."""
        x = self.basis[index]
        if isinstance(value, DiffOp):
            return lie_derivative_op(x, value)
        if isinstance(value, SuperDiffOp):
            return super_lie_derivative_op(x, value)
        raise UsageError(f"cannot act on {type(value).__name__}")

    def key_parity(self, key: int) -> int:
        """The parity of every cochain of weight key `key` (module docstring)."""
        return key & 1 if self.flavor == SUPER else 0

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
    return get_algebra(SL2 if flavor == CLASSICAL else OSP12)


# ---------------------------------------------------------------------------
# Cochains
# ---------------------------------------------------------------------------


def _infer_parity(values, declared: Optional[int]) -> int:
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
                 parity: Optional[int] = None):
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

    def __init__(self, algebra: str, value, parity: Optional[int] = None):
        super().__init__(algebra, 0, {None: value}, parity)

    @property
    def value(self):
        return self.images[None]


class Cochain1(Cochain):
    """Degree-1 cochain: one operator value per algebra basis element, given
    in basis order or as {index: value}."""

    def __init__(self, algebra: str, images: Union[Sequence, dict], parity: Optional[int] = None):
        if not isinstance(images, dict):
            images = dict(enumerate(images))
        super().__init__(algebra, 1, images, parity)


class Cochain2(Cochain):
    """Degree-2 cochain: {canonical pair: value}."""

    def __init__(self, algebra: str, images: dict, parity: Optional[int] = None):
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
    every slice is.  The typed d1/d2 are its oracle in the tests."""
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
    cochain of each parameter monomial of c; {((), ()): {}} when c is zero."""
    out: dict = {}
    for slot, im in c.images.items():
        for mon, value in monomial_coords(im).items():
            terms = value.terms.items() if isinstance(value, ParamScalar) else ((_ONE_MON, value),)
            for pmon, fr in terms:
                out.setdefault(pmon, {})[(slot, mon)] = fr
    return out or {_ONE_MON: {}}


def _parameter_free_coords(c: Cochain, refusal: str) -> dict:
    """{(slot, monomial): Fraction} of a parameter-free c; UsageError(refusal)
    otherwise."""
    coords = _cochain_coords(c)
    if set(coords) != {_ONE_MON}:
        raise UsageError(refusal)
    return coords[_ONE_MON]


def _by_weight_key(c: Cochain, coords: dict) -> dict[int, dict]:
    """Coordinates grouped by Euler-weight key (doubled integers): a classical
    monomial x^d d_x^i has key 2(d - i), a super monomial x^d theta^eps eta^i
    key 2d + eps - i, and a coordinate's key is its monomial's less the
    weight of its slot.  The Euler element acts diagonally with these keys
    up to a block constant, so d preserves them."""
    weight = {slot: wt for slot, wt, _ in _cochain_slots(get_algebra(c.algebra), c.degree)}
    out: dict = {}
    for (slot, mon), value in coords.items():
        out.setdefault(BlockCache.monomial_key(mon) - weight[slot], {})[(slot, mon)] = value
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

    @staticmethod
    def monomial_key(mon: tuple) -> int:
        if len(mon) == 2:
            return 2 * (mon[0] - mon[1])
        return 2 * mon[0] + mon[1] - mon[2]

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
    mons = [(key // 2 + i, i) if flavor == CLASSICAL else ((key + i) // 2, (key + i) & 1, i)
            for i in range(bounds.max_operator_order + 1)]
    return [mon for mon in mons if 0 <= mon[0] <= bounds.max_coefficient_degree
            and BlockCache.monomial_key(mon) == key]


_BLOCK_CACHES: dict[tuple, BlockCache] = {}


def block_cache(algebra: str, lam, mu) -> BlockCache:
    key = (algebra, Fraction(lam), Fraction(mu))
    cache = _BLOCK_CACHES.get(key)
    if cache is None:
        cache = BlockCache(algebra, Fraction(lam), Fraction(mu))
        _BLOCK_CACHES[key] = cache
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
    """Basis of the bounded weight-key slice of C^degree: monomials in
    degree 0, (slot, monomial) pairs otherwise, all of parity
    ``key_parity(key)``."""
    return [mon if slot is None else (slot, mon)
            for slot, wt, _ in _cochain_slots(cache.ctx, degree)
            for mon in bounded_monomials(cache.ctx.flavor, bounds, key + wt)]


def _canonical_slot(par: tuple, args: tuple) -> Optional[tuple]:
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
    coordinates.  Nothing is truncated, so a column does not depend on the
    bounds its basis cochain was enumerated under."""
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


def _differential_columns(cache: BlockCache, degree: int, basis: list,
                          parity: int) -> tuple[int, list[dict]]:
    """(s, columns): s times the coordinates of d^degree on each basis
    cochain, {(output key, monomial): int}, with s = D*T (``_differential``).

    Agreement with the typed d0/d1/d2 is pinned by tests."""
    table = _ce_table(cache.ctx.name, degree, parity)
    return cache.den * table[0], [
        _differential(cache, table, ((((None, item) if degree == 0 else item), 1),))
        for item in basis]


def _restrict(basis: list, cols: list[dict], subset: list) -> list[dict]:
    """The columns, one per basis item, of the items in `subset`."""
    inside = set(subset)
    return [col for item, col in zip(basis, cols) if item in inside]


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


@dataclass
class Witness:
    cochain: Cochain


@dataclass
class NoSolutionWithinBounds:
    bounds: BoundsSpec


@dataclass
class Decomposition:
    """c = coeff * family + d(witness), exactly."""

    coeff: Fraction
    witness: Cochain


def default_witness_bounds(*cochains: Cochain) -> BoundsSpec:
    """Generous default truncation, relative to the size of the given
    cochains, which live on one block."""
    lam, mu = cochains[0].block
    images = [im for c in cochains for im in c.images.values()]
    order = max((im.order or 0 for im in images if im), default=0)
    n = order + 2 + math.ceil(abs(2 * (mu - lam))) + 2
    return BoundsSpec(n, 2 * n + 4)


def _assemble_witness(cache: BlockCache, degree: int, coeffs: dict) -> Cochain:
    """The cochain with coefficients {basis item: scalar} on the block."""
    ctx = cache.ctx
    zero = op_class(ctx.flavor).zero(cache.lam, cache.mu)
    images = {slot: zero for slot, _, _ in _cochain_slots(ctx, degree)}
    for item, coeff in coeffs.items():
        slot, mon = (None, item) if degree == 0 else item
        images[slot] = images[slot] + cache.monomial_op(mon).scale(coeff)
    return Cochain0(ctx.name, images[None]) if degree == 0 else Cochain1(ctx.name, images)


def _slice_system(cache: BlockCache, degree: int, bounds: BoundsSpec, key: int,
                  lead: Optional[dict] = None):
    """(basis, row index, s, SolvedSystem) of the slice system
    s * [lead | d^degree] at one weight key, s the scale of the integer
    columns (``_differential``); right-hand sides are scaled by s too, so
    solutions are those of [lead | d^degree]."""
    basis = _enumerate_cochain_basis(cache, degree, bounds, key)
    s, cols = _differential_columns(cache, degree, basis, cache.ctx.key_parity(key))
    if lead is not None:
        cols.insert(0, {k: s * v for k, v in lead.items()})
    by_key: dict = {}  # the sparse rows of the slice system, one per row key
    for cnum, col in enumerate(cols):
        for k, v in col.items():
            by_key.setdefault(k, []).append((cnum, v))
    row_index = {k: n for n, k in enumerate(by_key)}
    return basis, row_index, s, SolvedSystem(list(by_key.values()), len(cols))


def _solve_by_weight(c: Cochain, bounds: BoundsSpec, family: Optional[Cochain] = None):
    """Solve c = t * family + d(b) exactly, one (parameter monomial, weight
    key) at a time, with b within bounds, on one slice system per key.  For
    parametric c, t and b carry c's parameter monomials; for parameter-free
    c, t is a Fraction; a monomial with nothing at the family's key adds 0
    to t.  NoSolutionWithinBounds when some slice has no solution or, checked
    once on the family's key, the family is a bounded coboundary."""
    lam, mu = c.block
    cache = block_cache(c.algebra, lam, mu)
    degree = c.degree - 1
    coords = _cochain_coords(c)
    systems: dict = {}  # key -> slice system, built once per call
    family_key = None
    if family is not None:
        lead = _parameter_free_coords(family, "the family must be parameter-free")
        family_keys = list(_by_weight_key(family, lead))
        if len(family_keys) != 1:
            raise UsageError("the family must be nonzero and lie in a single weight key")
        if family.block != (lam, mu) or family.algebra != c.algebra:
            raise UsageError("the family must live on the cochain's block")
        family_key = family_keys[0]
        systems[family_key] = _slice_system(cache, degree, bounds, family_key, lead)
        if any(null[0] for null in systems[family_key][3].nullspace()):
            return NoSolutionWithinBounds(bounds)  # t would not be unique
    parametric = set(coords) != {_ONE_MON}
    t = ParamScalar(None, {}) if parametric else Fraction(0)
    witness: dict = {}
    for pmon, pm_coords in sorted(coords.items()):
        for key, rhs_coords in sorted(_by_weight_key(c, pm_coords).items()):
            hit = systems.get(key)
            if hit is None:
                hit = systems[key] = _slice_system(cache, degree, bounds, key)
            slice_basis, row_index, s, system = hit
            if any(k not in row_index for k in rhs_coords):
                return NoSolutionWithinBounds(bounds)
            rhs = [Fraction(0)] * len(row_index)
            for k, v in rhs_coords.items():
                rhs[row_index[k]] = s * v
            solution = system.solve(rhs)
            if solution is None:
                return NoSolutionWithinBounds(bounds)
            if key == family_key:
                t_part, solution = solution[0], solution[1:]
                t = t + (ParamScalar(None, {pmon: t_part}) if parametric else t_part)
            for item, v in zip(slice_basis, solution):
                if v:
                    witness[item] = witness.get(item, 0) + (
                        ParamScalar(None, {pmon: v}) if parametric else v)
    return Decomposition(t, _assemble_witness(cache, degree, witness))


def coboundary_solve(c: Cochain, bounds: Optional[BoundsSpec] = None):
    """Solve d(b) = c with b constrained to the given bounds.

    The input must be an exact cocycle; its coefficients may hold formal
    parameters, and then so does the witness.  Returns a Witness (whose
    typed coboundary is re-checked to equal c exactly) or
    NoSolutionWithinBounds.
    """
    if bounds is None:
        bounds = default_witness_bounds(c)
    if not is_cocycle(c):
        raise UsageError("coboundary_solve expects a cocycle")
    solved = _solve_by_weight(c, bounds)
    if isinstance(solved, NoSolutionWithinBounds):
        return solved
    witness = solved.witness
    check = d0(witness) if witness.degree == 0 else d1(witness)
    if check.images != c.images:
        raise InternalError("witness failed the exact re-check")
    return Witness(witness)


def decompose_cocycle(c: Cochain, family: Cochain, bounds: Optional[BoundsSpec] = None):
    """Write c = t * family + d(b) with b within bounds.

    c may hold formal parameters; t and b then carry its parameter
    monomials, one exact solve per monomial and weight key; a monomial with
    nothing at the family's key gets t = 0 there.  The family must be
    nonzero, parameter-free, live on c's block and lie in a single weight
    key (Phi:k lies in key -2k, Omega:k in 1-2k).  Returns a Decomposition,
    or NoSolutionWithinBounds when no split exists within bounds or the
    family is itself a bounded coboundary, which is checked once, on the
    family's key, whatever keys c has."""
    if bounds is None:
        bounds = default_witness_bounds(c)
    return _solve_by_weight(c, bounds, family)


def classes_independent(cocycles: Sequence[Cochain], bounds: Optional[BoundsSpec] = None) -> bool:
    """True when no nonzero rational combination of the given parameter-free
    cocycles is a coboundary within bounds (in particular they are linearly
    independent in the truncated cohomology)."""
    if not cocycles:
        return True
    first = cocycles[0]
    if bounds is None:
        bounds = default_witness_bounds(*cocycles)
    lam, mu = first.block
    cache = block_cache(first.algebra, lam, mu)
    degree = first.degree - 1
    parity = first.parity
    cocycle_cols = []
    for c in cocycles:
        coords = _parameter_free_coords(c, "classes_independent expects parameter-free cocycles")
        if not is_cocycle(c):
            raise UsageError("classes_independent expects cocycles")
        if c.block != (lam, mu) or c.parity != parity:
            raise UsageError("cocycles must share a block and parity")
        cocycle_cols.append(coords)
    # a row key (slot, monomial) fixes its weight key, so the slices stack
    keys = sorted({k for c in cocycles for k in cochain_weight_keys(c)})
    boundary_cols = []  # scaled by s, which leaves every span and rank alone
    for key in keys:
        basis = _enumerate_cochain_basis(cache, degree, bounds, key)
        boundary_cols.extend(_differential_columns(cache, degree, basis, parity)[1])
    return _rank(cocycle_cols + boundary_cols) == _rank(boundary_cols) + len(cocycles)


# ---------------------------------------------------------------------------
# Truncated cohomology dimensions
# ---------------------------------------------------------------------------


@dataclass
class DimResult:
    dim: int
    stabilized: bool
    per_weight: dict
    examined_keys: tuple


def default_dimension_bounds(lam, mu) -> BoundsSpec:
    n = 6 + math.ceil(abs(2 * (Fraction(mu) - Fraction(lam))))
    return BoundsSpec(n, 2 * n + 4)


def critical_weight_key(lam, mu) -> Optional[int]:
    """w* = -2(mu - lambda), the key where the Euler element acts by zero;
    None when 2(mu - lambda) is not an integer."""
    key = -2 * (Fraction(mu) - Fraction(lam))
    return int(key) if key.denominator == 1 else None


def _dimension_sweep(algebra: str, lam, mu, degree: int,
                     bounds: BoundsSpec) -> tuple[dict[int, int], dict[int, int]]:
    """Per-weight truncated dimensions at `bounds` and at ``bounds.bumped()``,
    ranked at the critical key w* only: by Cartan's formula theta_h =
    d i_h + i_h d the even Euler element h acts on the slice of key w by a
    scalar that vanishes only at w*, so off w* every cocycle c is d(i_h c)
    over that scalar, with (i_h c)(X) = c(h, X) no larger than c.  The key
    fixes the parity, so w* is one slice (empty in sl(2) when w* is odd).

    At bounds B, w* contributes the kernel of d^degree on the bounded slice
    less the part of that slice hit by d^(degree-1) of the witnesses within
    B.bumped().  Columns are never truncated, so each is built once, at the
    larger bounds of the ladder, and the ranks at B are taken on the subset.
    The kernel at B (inside the bumped one) is examined only where the
    bumped kernel is nonzero, and an image only where its kernel is."""
    per_weight: tuple[dict[int, int], dict[int, int]] = ({}, {})
    key = critical_weight_key(lam, mu)
    if key is None:
        return per_weight
    cache = block_cache(algebra, lam, mu)
    parity = cache.ctx.key_parity(key)
    ladder = (bounds, bounds.bumped(), bounds.bumped().bumped())
    slices = [_enumerate_cochain_basis(cache, degree, b, key) for b in ladder[:2]]
    cols = _differential_columns(cache, degree, slices[1], parity)[1]
    kers = [0, len(slices[1]) - _rank(cols)]
    if kers[1] and slices[0]:
        kers[0] = len(slices[0]) - _rank(_restrict(slices[1], cols, slices[0]))
    if not any(kers):
        return per_weight
    witnesses = [_enumerate_cochain_basis(cache, degree - 1, b, key) for b in ladder[1:]]
    witness_cols = _differential_columns(cache, degree - 1, witnesses[1], parity)[1]
    for level in (0, 1):
        if not kers[level]:
            continue
        # dim(im d intersect bounded slice) = rank(B) - rank(B outside)
        image_cols = _restrict(witnesses[1], witness_cols, witnesses[level])
        image = 0
        if image_cols:
            image = _rank(image_cols) - _rank(image_cols, skip=slices[level])
        if kers[level] - image:
            per_weight[level][key] = kers[level] - image
    return per_weight


def cohomology_dim(weights, degree: int, algebra: str,
                   bounds: Optional[BoundsSpec] = None) -> DimResult:
    """Truncated dim H^degree on one block, with a stabilization flag (the
    bumped bounds agree).  Only the critical Euler-weight component w* can
    be nonzero, so only it is computed and examined (``_dimension_sweep``),
    unless it holds no cochain (an odd w* in sl(2)).
    """
    if degree not in (1, 2):
        raise UsageError("cohomology_dim supports degrees 1 and 2")
    lam, mu = (Fraction(weights[0]), Fraction(weights[1]))
    if bounds is None:
        bounds = default_dimension_bounds(lam, mu)
    first, second = _dimension_sweep(algebra, lam, mu, degree, bounds)
    dim = sum(first.values())
    stabilized = dim == sum(second.values())
    key = critical_weight_key(lam, mu)
    empty = key is None or (get_algebra(algebra).flavor == CLASSICAL and key & 1)
    examined = () if empty else (key,)
    return DimResult(dim=dim, stabilized=stabilized, per_weight=first, examined_keys=examined)
