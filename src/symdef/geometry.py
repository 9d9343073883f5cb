"""Polynomial functions on the line and the superline, vector fields,
contact fields, and weighted-density actions.

Conventions pinned here and relied on everywhere else:

* A superfunction is ``F = f0(x) + f1(x)*theta`` with ``theta**2 = 0``;
  scalar coefficients always stand to the LEFT of ``theta``, and moving
  ``theta`` across an odd scalar coefficient costs a sign.
* The contact derivation is ``eta = d/dtheta - theta*d/dx``, so that
  ``eta o eta = -d/dx``.
* The action of ``g d/dx`` on ``f dx^lam`` is ``(g f' + lam g' f) dx^lam``:
  the unique first-order formula satisfying the module axiom, which the
  test suite enforces on monomial densities.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .kernel import (
    InternalError,
    ParamScalar,
    Scalar,
    UsageError,
    as_weight,
    format_rational,
    scalar_involute,
    scalar_str,
    scalar_truncate,
)


_ZERO = Fraction(0)


def _as_scalar(value) -> Scalar:
    if isinstance(value, (Fraction, ParamScalar)):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise UsageError(f"not a scalar coefficient: {value!r}")


def _trimmed(cs: list) -> tuple:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


class Poly:
    """Polynomial in x with exact scalar coefficients (index = power of x).

    Immutable.  The constructor coerces its coefficients; the arithmetic,
    whose results are already ``Fraction``/``ParamScalar``, builds through
    ``_of`` without coercing again."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        self.coeffs = _trimmed([_as_scalar(c) for c in coeffs])

    @staticmethod
    def _of(cs: list) -> "Poly":
        out = object.__new__(Poly)
        out.coeffs = _trimmed(cs)
        return out

    # -- constructors --------------------------------------------------------

    @staticmethod
    def x_power(n: int, coeff=1) -> "Poly":
        return Poly([0] * n + [coeff])

    @staticmethod
    def const(c) -> "Poly":
        return Poly([c])

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def coefficient(self, n: int) -> Scalar:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else _ZERO

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly._of(out)

    def __neg__(self) -> "Poly":
        return Poly._of([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        out = list(self.coeffs) + [_ZERO] * (len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] = out[i] - c
        return Poly._of(out)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.coeffs or not other.coeffs:
            return P_ZERO
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                out[i + j] = out[i + j] + a * b
        return Poly._of(out)

    def scale(self, s) -> "Poly":
        """Left multiplication by a scalar (order matters for odd scalars)."""
        s = _as_scalar(s)
        if not s:
            return P_ZERO
        if type(s) is Fraction and s == 1:
            return self
        return Poly._of([s * c for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly._of([i * c for i, c in enumerate(self.coeffs)][1:])

    def has_params(self) -> bool:
        return any(isinstance(c, ParamScalar) for c in self.coeffs)

    def involute(self) -> "Poly":
        """Apply the scalar-parity involution to every coefficient (self
        when every coefficient is a rational, which the involution fixes)."""
        if not self.has_params():
            return self
        return Poly._of([scalar_involute(c) for c in self.coeffs])

    def truncate_params(self, max_degree: int) -> "Poly":
        return Poly._of([scalar_truncate(c, max_degree) for c in self.coeffs])

    def coefficient_parities(self) -> set:
        out = set()
        for c in self.coeffs:
            if c:
                if isinstance(c, ParamScalar):
                    out.update(len(m[1]) & 1 for m in c.terms)
                else:
                    out.add(0)
        return out

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            body = scalar_str(c)
            if "+" in body or (body.count("-") and not body.startswith("-")):
                body = f"({body})"
            if i == 0:
                chunks.append(body)
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                chunks.append(xpow if body == "1" else f"-{xpow}" if body == "-1" else f"{body}*{xpow}")
        return " + ".join(chunks).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly({self})"

    def to_strings(self) -> list[str]:
        return [scalar_str(c) for c in self.coeffs]


P_ZERO = Poly()
P_ONE = Poly([1])
P_X = Poly([0, 1])


class SuperPoly:
    """Superfunction ``f0(x) + f1(x)*theta`` with parity bookkeeping.

    Total parity of a monomial ``c*x^a*theta^eps`` is the parity of the
    scalar ``c`` plus ``eps``; an element is homogeneous when all its
    monomials agree.
    """

    __slots__ = ("f0", "f1")

    def __init__(self, f0: Poly = P_ZERO, f1: Poly = P_ZERO):
        self.f0 = f0 if isinstance(f0, Poly) else Poly(f0)
        self.f1 = f1 if isinstance(f1, Poly) else Poly(f1)

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def const(c) -> "SuperPoly":
        return SuperPoly(Poly.const(c), P_ZERO)

    @staticmethod
    def x_power(n: int, coeff=1, theta: bool = False) -> "SuperPoly":
        p = Poly.x_power(n, coeff)
        return SuperPoly(P_ZERO, p) if theta else SuperPoly(p, P_ZERO)

    # -- structure -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.f0) or bool(self.f1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self.f0 == other.f0 and self.f1 == other.f1

    def __hash__(self):
        return hash((self.f0, self.f1))

    def parity(self) -> int | None:
        """Total parity, or None for zero; raises on non-homogeneous input."""
        parities = {p for p in self.f0.coefficient_parities()}
        parities.update((p + 1) & 1 for p in self.f1.coefficient_parities())
        if not parities:
            return None
        if len(parities) > 1:
            raise UsageError("superfunction is not parity-homogeneous")
        return parities.pop()

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "SuperPoly") -> "SuperPoly":
        return SuperPoly(self.f0 + other.f0, self.f1 + other.f1)

    def __neg__(self) -> "SuperPoly":
        return SuperPoly(-self.f0, -self.f1)

    def __sub__(self, other: "SuperPoly") -> "SuperPoly":
        return SuperPoly(self.f0 - other.f0, self.f1 - other.f1)

    def __mul__(self, other: "SuperPoly") -> "SuperPoly":
        # (f0 + f1 th)(g0 + g1 th) = f0 g0 + (f0 g1 + f1 g0^)*th,
        # with ^ the coefficient involution picked up by th crossing g0.
        return SuperPoly(
            self.f0 * other.f0,
            self.f0 * other.f1 + self.f1 * other.f0.involute(),
        )

    def scale(self, s) -> "SuperPoly":
        return SuperPoly(self.f0.scale(s), self.f1.scale(s))

    def times_theta(self) -> "SuperPoly":
        """Right multiplication by theta."""
        return SuperPoly(P_ZERO, self.f0)

    def derivative_x(self) -> "SuperPoly":
        return SuperPoly(self.f0.derivative(), self.f1.derivative())

    def partial_theta(self) -> "SuperPoly":
        # d/dtheta is an odd left derivation: on c*x^a*theta it yields
        # (-1)^{p(c)} c*x^a.
        return SuperPoly(self.f1.involute(), P_ZERO)

    def involute(self) -> "SuperPoly":
        """Total-parity involution (scalars and theta both count)."""
        return SuperPoly(self.f0.involute(), -self.f1.involute())

    def truncate_params(self, max_degree: int) -> "SuperPoly":
        return SuperPoly(self.f0.truncate_params(max_degree), self.f1.truncate_params(max_degree))

    def has_params(self) -> bool:
        return self.f0.has_params() or self.f1.has_params()

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        if self.f0:
            parts.append(str(self.f0))
        if self.f1:
            body = str(self.f1)
            if " " in body:
                body = f"({body})"
            parts.append("theta" if body == "1" else f"{body}*theta")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SuperPoly({self})"

    def to_json(self) -> dict:
        return {"f0": self.f0.to_strings(), "f1": self.f1.to_strings()}


SP_ZERO = SuperPoly()
SP_ONE = SuperPoly.const(1)
SP_X = SuperPoly(P_X, P_ZERO)
SP_THETA = SuperPoly(P_ZERO, P_ONE)


def eta_bar(f: SuperPoly) -> SuperPoly:
    """The contact derivation d/dtheta - theta*d/dx."""
    # theta*(df/dx) moves theta across the coefficients of f0', hence the
    # involutions; eta(f0 + f1 th) = f1^ - f0'^ th.
    return SuperPoly(f.f1.involute(), -f.f0.derivative().involute())


def eta_power(f: SuperPoly, n: int) -> SuperPoly:
    out = f
    for _ in range(n):
        out = eta_bar(out)
    return out


def eta_plus(f: SuperPoly) -> SuperPoly:
    """The companion derivation d/dtheta + theta*d/dx, whose square is +d/dx.

    Distinct from the contact derivation (whose square is -d/dx); the two
    agree on odd superfunctions and differ by signs elsewhere."""
    return SuperPoly(f.f1.involute(), f.f0.derivative().involute())


def eta_plus_power(f: SuperPoly, n: int) -> SuperPoly:
    out = f
    for _ in range(n):
        out = eta_plus(out)
    return out


# ---------------------------------------------------------------------------
# Vector fields and contact fields
# ---------------------------------------------------------------------------


class VectorField:
    """Polynomial vector field g(x) d/dx on the line."""

    __slots__ = ("g",)

    def __init__(self, g: Poly):
        self.g = g

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.g == other.g

    def __repr__(self):
        return f"VectorField(({self.g}) d/dx)"


def sl2_basis() -> list[VectorField]:
    """The generators d/dx, x d/dx, x^2 d/dx, in this order."""
    return [VectorField(P_ONE), VectorField(P_X), VectorField(Poly.x_power(2))]


def vf_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[g d/dx, h d/dx] = (g h' - h g') d/dx."""
    return VectorField(x.g * y.g.derivative() - y.g * x.g.derivative())


class ContactField:
    """Vector field a d_x + b d_theta preserving the contact distribution.

    Built from a homogeneous generator F as
    ``F d_x - (1/2)(-1)^{p(F)} eta(F) eta``; the generator is kept so that
    brackets can be matched back against the five basis fields.
    """

    __slots__ = ("a", "b", "generator", "parity")

    def __init__(self, a: SuperPoly, b: SuperPoly, generator: SuperPoly, parity: int):
        self.a = a
        self.b = b
        self.generator = generator
        self.parity = parity

    @staticmethod
    def from_generator(f: SuperPoly, parity: int | None = None) -> "ContactField":
        p = f.parity()
        if p is None:
            p = parity if parity is not None else 0
        ef = eta_bar(f)
        half = Fraction(1, 2) if p == 0 else Fraction(-1, 2)
        # X_F = [F + (1/2)(-1)^p eta(F) theta] d_x - (1/2)(-1)^p eta(F) d_theta
        a = f + ef.scale(half).times_theta()
        b = ef.scale(-half)
        return ContactField(a, b, f, p)

    def __repr__(self):
        return f"ContactField(({self.a}) d_x + ({self.b}) d_th)"

    def apply_to(self, h: SuperPoly) -> SuperPoly:
        return self.a * h.derivative_x() + self.b * h.partial_theta()

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def contact_condition_holds(self) -> bool:
        """Check [X, eta] = h*eta for some superfunction h."""
        comm_a, comm_b = _field_bracket_components(
            self.a, self.b, self.parity, ETA_A, ETA_B, 1
        )
        # h*eta has components (-(h th), h): the d_x part must be -h0*theta.
        return comm_a.f0 == P_ZERO and comm_a.f1 == -comm_b.f0


ETA_A = SuperPoly(P_ZERO, Poly([-1]))  # -theta
ETA_B = SP_ONE


def _field_bracket_components(a, b, p, c, d, q):
    """First-order part of the supercommutator of a d_x + b d_theta and
    c d_x + d d_theta, for homogeneous parities p and q.  The second-order
    terms cancel identically for genuine homogeneous fields."""
    sign = -1 if (p and q) else 1

    def apply(u, v, h):  # (u d_x + v d_th)(h)
        return u * h.derivative_x() + v * h.partial_theta()

    new_a = apply(a, b, c) - apply(c, d, a).scale(sign)
    new_b = apply(a, b, d) - apply(c, d, b).scale(sign)
    return new_a, new_b


def contact_bracket(x: ContactField, y: ContactField) -> ContactField:
    """Supercommutator of two contact fields, with its generator recovered.

    The result is checked to be the contact field of its own generator;
    failure would mean the contact condition broke, which is an internal
    invariant violation.
    """
    new_a, new_b = _field_bracket_components(x.a, x.b, x.parity, y.a, y.b, y.parity)
    # For X_H = (H + ...theta) d_x + (-(1/2)(-1)^p eta H) d_th the theta-free
    # parts determine H:  H = a|_{theta=0} + 2 theta * b|_{theta=0}.
    gen = SuperPoly(new_a.f0, new_b.f0 + new_b.f0)
    parity = (x.parity + y.parity) & 1
    out = ContactField.from_generator(gen, parity=parity)
    if out.a != new_a or out.b != new_b:
        raise InternalError("supercommutator of contact fields is not a contact field")
    return out


def osp_basis() -> list[ContactField]:
    """Contact fields generated by 1, theta, x, x*theta, x^2, in this order."""
    gens = [
        SP_ONE,
        SP_THETA,
        SP_X,
        SuperPoly(P_ZERO, P_X),
        SuperPoly(Poly.x_power(2), P_ZERO),
    ]
    return [ContactField.from_generator(g) for g in gens]


# ---------------------------------------------------------------------------
# Weighted densities
# ---------------------------------------------------------------------------

CLASSICAL = "classical"
SUPER = "super"


class Density:
    """A weighted density: value * dx^weight (classical) or value * alpha^weight."""

    __slots__ = ("weight", "value", "flavor")

    def __init__(self, weight, value: Poly | SuperPoly, flavor: str):
        if flavor == CLASSICAL and not isinstance(value, Poly):
            raise UsageError("classical densities carry plain polynomials")
        if flavor == SUPER and not isinstance(value, SuperPoly):
            raise UsageError("super densities carry superfunctions")
        self.weight = as_weight(weight)
        self.value = value
        self.flavor = flavor

    def __eq__(self, other):
        if not isinstance(other, Density):
            return NotImplemented
        return (self.weight, self.flavor) == (other.weight, other.flavor) and self.value == other.value

    def __repr__(self):
        symbol = "dx" if self.flavor == CLASSICAL else "alpha"
        return f"Density(({self.value}) {symbol}^{format_rational(self.weight)})"


def density_action(x: VectorField, d: Density) -> Density:
    """Lie derivative of a classical density: (g f' + lam g' f) dx^lam."""
    if d.flavor != CLASSICAL:
        raise UsageError("density_action expects a classical density")
    f = d.value
    out = x.g * f.derivative() + (x.g.derivative() * f).scale(d.weight)
    return Density(d.weight, out, CLASSICAL)


def super_density_action(x: ContactField, d: Density) -> Density:
    """Lie derivative of a super density: (X_G + lam G')(F) alpha^lam."""
    if d.flavor != SUPER:
        raise UsageError("super_density_action expects a super density")
    f = d.value
    out = x.apply_to(f) + (x.generator.derivative_x().scale(d.weight)) * f
    return Density(d.weight, out, SUPER)
