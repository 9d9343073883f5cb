"""Differential operators between density modules, their normal forms,
and the Lie-derivative actions on them.

Both flavors share one normal form, ``sum_i c_i D^i`` with coefficients
on the left, written once.  A flavor chooses the derivation ``D`` and its
twist, so that ``D o mult(u) = mult(D u) + mult(twist u) D``; composition
and application are each one loop over that rule.  Classical operators
(``DiffOp``) take ``D = d_x`` with the identity twist (Leibniz) and
coefficients ``p_i(x)``.  Super operators (``SuperDiffOp``) take the
contact derivation ``D = eta`` with the parity involution ``u -> u^`` and
coefficients ``q_i(x,theta)``; the powers of ``eta`` form a free basis over
superfunction coefficients (``eta^2`` acts as ``-d_x``), so the stored form
is canonical and equality is coefficient-wise.

The cohomology engine reads operators as sparse coordinates
``{monomial: coefficient}`` (``monomial_coords``), a monomial being
``(d, i)`` for ``x^d d_x^i`` or ``(d, eps, i)`` for ``x^d theta^eps eta^i``.
``monomial_action`` is its fast path: the Lie-derivative action on a single
monomial, evaluated on those coordinates with the two commutation rules
(Leibniz for ``d_x^i o x^n``, ``eta o mult(u) = mult(eta u) + mult(u^) eta``)
instead of building and composing ``DiffOp``/``SuperDiffOp`` values, in
integers over a common denominator.  The typed
``lie_derivative_op``/``super_lie_derivative_op`` stay the oracle.

``_compose`` keeps the commutation tables ``D^i o mult(r)`` of a
parameter-free coefficient ``r`` in one bounded cache keyed by value
(``_cached_commutation_tables``): the typed ``d1``/``d2`` of the
sign-convention check meet the same coefficients many times over.  The
tables and the loop that reads them are the same with or without it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, perm

from .geometry import (
    CLASSICAL,
    SUPER,
    ContactField,
    Density,
    P_ZERO,
    Poly,
    SP_ZERO,
    SuperPoly,
    VectorField,
    eta_bar,
)
from .kernel import Scalar, UsageError, as_weight, format_rational


class _NormalFormOp:
    """Finite-order operator ``sum_i c_i D^i`` from F_lam to F_mu, with its
    coefficients on the left of the powers of a derivation ``D``.

    A subclass fixes the coefficient ring (``_ring``, with zero ``_zero``),
    the derivation (``_derive``) and its twist (``_twist``), chosen so that
    ``D o mult(u) = mult(D u) + mult(twist u) D``.  Everything else about
    the normal form is written here once.
    """

    __slots__ = ("lam", "mu", "coeffs")

    def __init__(self, lam, mu, coeffs: Sequence = ()):
        self.lam = as_weight(lam)
        self.mu = as_weight(mu)
        cs = [c if isinstance(c, self._ring) else self._coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, lam, mu) -> "_NormalFormOp":
        return cls(lam, mu)

    @classmethod
    def multiplication(cls, c, lam, mu) -> "_NormalFormOp":
        return cls(lam, mu, [c])

    @classmethod
    def identity(cls, lam) -> "_NormalFormOp":
        return cls(lam, lam, [cls._ring.const(1)])

    # -- structure -----------------------------------------------------------

    @property
    def order(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.lam, self.mu) == (other.lam, other.mu) and self.coeffs == other.coeffs

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self._zero

    # -- arithmetic ------------------------------------------------------------

    def _check_same_block(self, other: "_NormalFormOp"):
        if type(other) is not type(self):
            raise UsageError("cannot combine operators of different flavors")
        if (self.lam, self.mu) != (other.lam, other.mu):
            raise UsageError("operators act between different density modules")

    def __add__(self, other: "_NormalFormOp") -> "_NormalFormOp":
        self._check_same_block(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return type(self)(self.lam, self.mu, [self.coefficient(i) + other.coefficient(i) for i in range(n)])

    def __neg__(self) -> "_NormalFormOp":
        return type(self)(self.lam, self.mu, [-c for c in self.coeffs])

    def __sub__(self, other: "_NormalFormOp") -> "_NormalFormOp":
        self._check_same_block(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return type(self)(self.lam, self.mu, [self.coefficient(i) - other.coefficient(i) for i in range(n)])

    def scale(self, s) -> "_NormalFormOp":
        if type(s) is int and s == 1:
            return self
        return type(self)(self.lam, self.mu, [c.scale(s) for c in self.coeffs])

    def apply_to(self, f):
        """The operator applied to a function of its coefficient ring."""
        out = self._zero
        power = f
        for i, c in enumerate(self.coeffs):
            if i:
                power = self._derive(power)
            if c:
                out = out + c * power
        return out

    def truncate_params(self, max_degree: int) -> "_NormalFormOp":
        return type(self)(self.lam, self.mu, [c.truncate_params(max_degree) for c in self.coeffs])

    def max_param_degree(self) -> int:
        return max((c.max_param_degree() for c in self.coeffs), default=0)

    def __repr__(self):
        name = type(self).__name__
        if not self.coeffs:
            return f"{name}(0)"
        parts = []
        d = self._symbol
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"({c})" + ("" if i == 0 else f" {d}^{i}" if i > 1 else f" {d}"))
        return f"{name}(" + " + ".join(parts) + ")"


class DiffOp(_NormalFormOp):
    """Finite-order differential operator ``sum_i p_i(x) d_x^i`` from F_lam
    to F_mu: D = d_x, with the identity twist (Leibniz)."""

    __slots__ = ()
    flavor = CLASSICAL
    _ring = Poly
    _zero = P_ZERO
    _coerce = Poly
    _derive = staticmethod(Poly.derivative)
    _twist = staticmethod(lambda u: u)
    _symbol = "dx"

    @staticmethod
    def partial(order: int, lam, mu, coeff: Poly = None) -> "DiffOp":
        top = coeff if coeff is not None else Poly([1])
        return DiffOp(lam, mu, [P_ZERO] * order + [top])

    def parity(self) -> int | None:
        return 0 if self.coeffs else None

    def to_json(self) -> dict:
        return {
            "lambda": format_rational(self.lam),
            "mu": format_rational(self.mu),
            "coeffs": [c.to_strings() for c in self.coeffs],
        }


class SuperDiffOp(_NormalFormOp):
    """Super differential operator ``sum_i q_i(x,theta) eta^i`` in eta-normal
    form: D = eta, twisted by the parity involution."""

    __slots__ = ()
    flavor = SUPER
    _ring = SuperPoly
    _zero = SP_ZERO
    _derive = staticmethod(eta_bar)
    _twist = staticmethod(SuperPoly.involute)
    _symbol = "eta"

    @staticmethod
    def _coerce(c) -> SuperPoly:
        return SuperPoly(*c)

    @staticmethod
    def eta_power_term(q: SuperPoly, power: int, lam, mu) -> "SuperDiffOp":
        return SuperDiffOp(lam, mu, [SP_ZERO] * power + [q])

    def parity(self) -> int | None:
        """Total parity (coefficient parity + eta exponent); None for zero."""
        parities = set()
        for i, q in enumerate(self.coeffs):
            if q:
                p = q.parity()
                parities.add((p + i) & 1)
        if not parities:
            return None
        if len(parities) > 1:
            raise UsageError("super operator is not parity-homogeneous")
        return parities.pop()

    def to_json(self) -> dict:
        parity = self.parity()
        return {
            "lambda": format_rational(self.lam),
            "mu": format_rational(self.mu),
            "parity": {0: "even", 1: "odd", None: "zero"}[parity],
            "coeffs": [c.to_json() for c in self.coeffs],
        }


def op_class(flavor: str) -> type:
    """The operator class of a flavor."""
    return DiffOp if flavor == CLASSICAL else SuperDiffOp


AnyOp = DiffOp | SuperDiffOp


# ---------------------------------------------------------------------------
# Composition and application
# ---------------------------------------------------------------------------


def _commutation_tables(cls: type, r, depth: int) -> tuple:
    """tables[i] for i < depth holds the pairs (e, c_e) with
    D^i o mult(r) = sum_e mult(c_e) D^e, built one application of
    D o mult(u) = mult(D u) + mult(twist u) D at a time."""
    tables = [((0, r),)]
    while len(tables) < depth:
        new_table: dict = {}
        for e, c in tables[-1]:
            for key, moved in ((e, cls._derive(c)), (e + 1, cls._twist(c))):
                if moved:
                    acc = new_table.get(key)
                    new_table[key] = moved if acc is None else acc + moved
        tables.append(tuple(new_table.items()))
    return tuple(tables)


# The tables of a parameter-free r, kept across calls: one d1 meets the
# same coefficients of L^lam_X in all five images and the same image
# coefficients under all five generators.  Keyed by value, so whatever
# builds the operators, equal inputs give equal tables.
_cached_commutation_tables = lru_cache(maxsize=1024)(_commutation_tables)


def _compose(a: AnyOp, b: AnyOp) -> AnyOp:
    """a o b for two operators of one flavor, in normal form."""
    cls = type(a)
    if b.mu != a.lam:
        raise UsageError("compose: inner target weight must match outer source weight")
    if not a.coeffs or not b.coeffs:
        return cls.zero(b.lam, a.mu)
    out: dict = {}
    depth = len(a.coeffs)
    for j, r in enumerate(b.coeffs):
        if not r:
            continue
        build = _commutation_tables if r.has_params() else _cached_commutation_tables
        for q, table in zip(a.coeffs, build(cls, r, depth)):
            if not q:
                continue
            for e, c in table:
                term = q * c
                if term:
                    key = e + j
                    acc = out.get(key)
                    out[key] = term if acc is None else acc + term
    top = max(out, default=-1)
    return cls(b.lam, a.mu, [out.get(k, cls._zero) for k in range(top + 1)])


def compose(a: AnyOp, b: AnyOp) -> AnyOp:
    """Normal-form product: apply(compose(a, b), d) == apply(a, apply(b, d))."""
    if not isinstance(a, _NormalFormOp) or type(a) is not type(b):
        raise UsageError("cannot compose operators of different flavors")
    return _compose(a, b)


def apply(a: AnyOp, d: Density) -> Density:
    """Apply an operator to a density of its source weight."""
    if not isinstance(a, op_class(d.flavor)):
        raise UsageError(f"{a.flavor} operator applied to a {d.flavor} density")
    if d.weight != a.lam:
        raise UsageError("density weight does not match the operator's source weight")
    return Density(a.mu, a.apply_to(d.value), d.flavor)


def supercommutator(a: AnyOp, b: AnyOp) -> AnyOp:
    """a o b - (-1)^{p(a)p(b)} b o a (plain commutator in the classical case)."""
    pa, pb = a.parity(), b.parity()
    sign = -1 if (pa and pb) else 1
    first = compose(a, b)
    second = compose(b, a)
    return first - second.scale(sign)


# ---------------------------------------------------------------------------
# Lie-derivative operators and actions on operator modules
# ---------------------------------------------------------------------------


def lie_op(x: VectorField, lam) -> DiffOp:
    """L^lam_{g d/dx} = g d_x + lam g' as an operator on F_lam."""
    lam = as_weight(lam)
    return DiffOp(lam, lam, [x.g.derivative().scale(lam), x.g])


def super_lie_op(x: ContactField, lam) -> SuperDiffOp:
    """The density action of a contact field as an eta-form operator.

    X_G + lam G' rewrites to  mult(lam G') + mult(b) eta - mult(a + b*theta) eta^2
    via d_x = -eta^2 and d_theta = eta - theta eta^2.
    """
    lam = as_weight(lam)
    c0 = x.generator.derivative_x().scale(lam)
    c1 = x.b
    c2 = -(x.a + x.b.times_theta())
    return SuperDiffOp(lam, lam, [c0, c1, c2])


def lie_derivative_op(x: VectorField, a: DiffOp) -> DiffOp:
    """Action on operator modules: L^mu_X o A - A o L^lam_X."""
    return _compose(lie_op(x, a.mu), a) - _compose(a, lie_op(x, a.lam))


def super_lie_derivative_op(x: ContactField, a: SuperDiffOp) -> SuperDiffOp:
    """Super action: L^mu_X o A - (-1)^{p(A)p(X)} A o L^lam_X."""
    pa = a.parity()
    if pa is None:
        return a
    sign = -1 if (pa and x.parity) else 1
    left = _compose(super_lie_op(x, a.mu), a)
    right = _compose(a, super_lie_op(x, a.lam))
    return left - right.scale(sign)


# ---------------------------------------------------------------------------
# Sparse coordinates and the monomial fast path
# ---------------------------------------------------------------------------


def monomial_coords(op: AnyOp) -> dict[tuple, Scalar]:
    """{(d, i) or (d, eps, i): coefficient} of an operator's nonzero
    coefficients, each a Fraction or a ParamScalar as stored."""
    out = {}
    if isinstance(op, DiffOp):
        for i, poly in enumerate(op.coeffs):
            for d, c in enumerate(poly.coeffs):
                if c:
                    out[(d, i)] = c
        return out
    for i, sp in enumerate(op.coeffs):
        for eps, poly in ((0, sp.f0), (1, sp.f1)):
            for d, c in enumerate(poly.coeffs):
                if c:
                    out[(d, eps, i)] = c
    return out


def _leibniz(i: int, u: tuple) -> tuple[tuple[tuple, int, int], ...]:
    """d_x^i o mult(x^n) = sum_s C(i,s) n(n-1)...(n-s+1) mult(x^(n-s)) d_x^(i-s),
    as ((coefficient monomial, power, value), ...) for u = (n,)."""
    n = u[0]
    return tuple(((n - s,), i - s, comb(i, s) * perm(n, s)) for s in range(min(i, n) + 1))


def _eta_leibniz(i: int, u: tuple) -> tuple[tuple[tuple, int, int], ...]:
    """eta^i o mult(x^n theta^eps) in eta-normal form, for u = (n, eps).

    Since eta^2 = -d_x, eta^(2h) o mult(u) = sum_s (-1)^s C(h,s) mult(u^(s))
    eta^(2h-2s); an odd power applies eta o mult(v) = mult(eta v) + mult(v^) eta
    once more, with eta(x^n) = -n x^(n-1) theta, eta(x^n theta) = x^n and
    v^ = (-1)^eps v."""
    n, eps = u
    h, odd = divmod(i, 2)
    out = []
    for s in range(min(h, n) + 1):
        c = (-1) ** s * comb(h, s) * perm(n, s)
        e = 2 * (h - s)
        if not odd:
            out.append(((n - s, eps), e, c))
            continue
        if eps:
            out.append(((n - s, 0), e, c))
        elif n > s:
            out.append(((n - s - 1, 1), e, -(n - s) * c))
        out.append(((n - s, eps), e + 1, -c if eps else c))
    return tuple(out)


def _times(u: tuple, v: tuple) -> tuple | None:
    """Product of coefficient monomials x^a (theta^eps); None when theta^2 = 0."""
    if len(u) == 1:
        return (u[0] + v[0],)
    if u[1] and v[1]:
        return None
    return (u[0] + v[0], u[1] + v[1])


def monomial_action(x: VectorField | ContactField, lam,
                    mu) -> tuple[int, Callable[[tuple, int], tuple[tuple[tuple, int], ...]]]:
    """The action of x on single monomials of the operators from F_lam to
    F_mu, as (den, act): act(mon, scale) gives the sorted sparse integer
    coordinates of den * scale times the action on mon.

    act(M) is the L^mu_X o M - (-1)^{p(M)p(X)} M o L^lam_X of
    lie_derivative_op / super_lie_derivative_op, composed on the coordinates
    of lie_op / super_lie_op.  den is the common denominator of those
    coordinates, so every sum runs over integers and no Fraction is made."""
    if isinstance(x, VectorField):
        left, right, expand, odd = lie_op(x, mu), lie_op(x, lam), _leibniz, 0
    else:
        left, right, expand = super_lie_op(x, mu), super_lie_op(x, lam), _eta_leibniz
        odd = x.parity
    left, right = monomial_coords(left), monomial_coords(right)
    den = lcm(*(c.denominator for c in (*left.values(), *right.values())))
    left = [(m[:-1], m[-1], c.numerator * (den // c.denominator)) for m, c in left.items()]
    right = [(m[:-1], m[-1], c.numerator * (den // c.denominator)) for m, c in right.items()]

    def act(mon: tuple, scale: int = 1) -> tuple[tuple[tuple, int], ...]:
        u, i = mon[:-1], mon[-1]
        sign = 1 if odd and (mon[1] + mon[2]) & 1 else -1
        out: dict = {}
        # L^mu o M: mult(v) D^e o mult(u) D^i, moving D^e across mult(u)
        for v, e, c in left:
            for w, power, n in expand(e, u):
                coeff = _times(v, w)
                if coeff is not None:
                    key = coeff + (power + i,)
                    out[key] = out.get(key, 0) + c * n
        # -(-1)^{p(M)p(X)} M o L^lam: mult(u) D^i o mult(v) D^e
        for v, e, c in right:
            for w, power, n in expand(i, v):
                coeff = _times(u, w)
                if coeff is not None:
                    key = coeff + (power + e,)
                    out[key] = out.get(key, 0) + sign * c * n
        return tuple(sorted((key, n * scale) for key, n in out.items() if n))

    return den, act


def principal_symbol(a: DiffOp) -> Density:
    """Top coefficient as a density of weight mu - lam - order."""
    if not a.coeffs:
        raise UsageError("the zero operator has no principal symbol")
    k = a.order
    return Density(a.mu - a.lam - k, a.coeffs[k], CLASSICAL)


# ---------------------------------------------------------------------------
# Graded operators on a window of the symbol module
# ---------------------------------------------------------------------------


class GradedOp:
    """Block matrix of operators on a finite window of the symbol module.

    Component ``k`` of the window carries weight ``delta - k`` in the
    classical flavor and ``delta - k/2`` in the super flavor; the block
    keyed ``(j, i)`` maps component ``j`` to component ``i``.
    """

    __slots__ = ("flavor", "delta", "kmax", "blocks")

    def __init__(self, flavor: str, delta, kmax: int, blocks=None):
        self.flavor = flavor
        self.delta = as_weight(delta)
        self.kmax = kmax
        self.blocks: dict[tuple[int, int], AnyOp] = {}
        for (j, i), op in (blocks or {}).items():
            self.set_block(j, i, op)

    def weight_of(self, index: int) -> Fraction:
        if not 0 <= index <= self.kmax:
            raise UsageError(f"component {index} outside window 0..{self.kmax}")
        step = Fraction(1) if self.flavor == CLASSICAL else Fraction(1, 2)
        return self.delta - step * index

    def set_block(self, j: int, i: int, op: AnyOp) -> None:
        expected = (self.weight_of(j), self.weight_of(i))
        if (op.lam, op.mu) != expected:
            raise UsageError(
                f"block ({j},{i}) must map weight {expected[0]} to {expected[1]}, "
                f"got {op.lam} to {op.mu}"
            )
        if op:
            self.blocks[(j, i)] = op
        else:
            self.blocks.pop((j, i), None)

    def block(self, j: int, i: int) -> AnyOp:
        op = self.blocks.get((j, i))
        if op is not None:
            return op
        return op_class(self.flavor).zero(self.weight_of(j), self.weight_of(i))

    def _like(self, blocks) -> "GradedOp":
        """An operator on this window with the given blocks, zeros dropped."""
        return GradedOp(self.flavor, self.delta, self.kmax, blocks)

    def _check_compatible(self, other: "GradedOp"):
        if (self.flavor, self.delta, self.kmax) != (other.flavor, other.delta, other.kmax):
            raise UsageError("graded operators live on different windows")

    def __bool__(self):
        return bool(self.blocks)

    def __eq__(self, other):
        if not isinstance(other, GradedOp):
            return NotImplemented
        return (
            (self.flavor, self.delta, self.kmax) == (other.flavor, other.delta, other.kmax)
            and self.blocks == other.blocks
        )

    def __add__(self, other: "GradedOp") -> "GradedOp":
        self._check_compatible(other)
        blocks = dict(self.blocks)
        for key, op in other.blocks.items():
            blocks[key] = blocks[key] + op if key in blocks else op
        return self._like(blocks)

    def __neg__(self) -> "GradedOp":
        return self.scale(-1)

    def __sub__(self, other: "GradedOp") -> "GradedOp":
        return self + other.scale(-1)

    def scale(self, s) -> "GradedOp":
        return self._like({key: op.scale(s) for key, op in self.blocks.items()})

    def compose(self, other: "GradedOp") -> "GradedOp":
        """Block-wise composition self o other (apply `other` first)."""
        self._check_compatible(other)
        acc: dict[tuple[int, int], AnyOp] = {}
        for (j, mid), b_op in other.blocks.items():
            for (mid2, i), a_op in self.blocks.items():
                if mid2 != mid:
                    continue
                term = compose(a_op, b_op)
                if not term:
                    continue
                key = (j, i)
                acc[key] = term if key not in acc else acc[key] + term
        return self._like(acc)

    def bracket(self, other: "GradedOp", sign: int) -> "GradedOp":
        """self o other - sign * other o self with an explicit Koszul sign."""
        return self.compose(other) - other.compose(self).scale(sign)

    def truncate_params(self, max_degree: int) -> "GradedOp":
        return self._like({key: op.truncate_params(max_degree) for key, op in self.blocks.items()})

    def max_param_degree(self) -> int:
        return max((op.max_param_degree() for op in self.blocks.values()), default=0)

    def param_component(self, degree: int) -> "GradedOp":
        """Keep only coefficient terms of the given total parameter degree."""
        low = self.truncate_params(degree)
        return low - self.truncate_params(degree - 1) if degree > 0 else low

    def __repr__(self):
        body = ", ".join(f"({j}->{i}): {op!r}" for (j, i), op in sorted(self.blocks.items()))
        return f"GradedOp[{self.flavor}, delta={self.delta}, K={self.kmax}]{{{body}}}"


def graded_identity(flavor: str, delta, kmax: int) -> GradedOp:
    out = GradedOp(flavor, delta, kmax)
    for k in range(kmax + 1):
        out.set_block(k, k, op_class(flavor).identity(out.weight_of(k)))
    return out


def undeformed_action(x: VectorField | ContactField, flavor: str, delta, kmax: int) -> GradedOp:
    """The diagonal Lie-derivative action on a window of the symbol module."""
    out = GradedOp(flavor, delta, kmax)
    for k in range(kmax + 1):
        w = out.weight_of(k)
        if flavor == CLASSICAL:
            out.set_block(k, k, lie_op(x, w))
        else:
            out.set_block(k, k, super_lie_op(x, w))
    return out
