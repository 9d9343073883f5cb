"""Exact scalar arithmetic: rationals, the parameter superalgebra, and
sparse exact linear algebra.

Every value in the engine bottoms out here.  There is no floating point
anywhere: weights and coefficients are ``Fraction``s, and deformation
parameters live in a supercommutative polynomial algebra over ``Fraction``
(``ParamScalar``).  A parametric value is a map {parameter monomial:
parameter-free value}, a scalar's or an operator's (``operators.ParamOp``),
with one arithmetic (``add_terms``, ``product_terms``) and one sign rule
(``koszul_product``).  All linear systems go through one sparse,
fraction-free elimination over the integers (Bareiss-style updates on
primitive integer rows).  Its pivot columns are
the earliest independent columns, which keeps solutions canonical and
decides whether a column lies in the span of the columns before it.
Records are plain classes made by ``record``, not dataclasses: ``import
dataclasses`` cost each CLI process 12-13 ms and 12 more modules, and each
``@dataclass`` another ~0.6 ms of ``exec``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul as _mul


class UsageError(ValueError):
    """A caller violated a documented precondition."""


class InternalError(AssertionError):
    """An internal invariant failed; this is an engine bug, not user error."""


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def record(cls=None, *, frozen=False):
    """Give a class of annotated fields ``__init__`` (arguments in annotation
    order, a class attribute of the same name as default, then
    ``__post_init__``), ``__eq__`` (same class, equal fields) and
    ``__repr__``, as closures.  Other attributes are not fields: they are
    neither arguments nor compared nor shown.  A frozen record refuses
    assignment and hashes its fields; any other is unhashable."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    fields = list(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    required = set(fields) - defaults.keys()

    def __init__(self, *args, **kwargs):
        values = dict(**dict(zip(fields, args)), **kwargs)  # a repeated argument raises
        if len(args) > len(fields) or not required <= values.keys() <= set(fields):
            raise TypeError(f"{cls.__qualname__}() takes ({', '.join(fields)})")
        for name in fields:
            object.__setattr__(self, name, values[name] if name in values else defaults[name])
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def key(self):
        return tuple(getattr(self, name) for name in fields)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{self.__class__.__qualname__}({', '.join(shown)})"

    def refuse(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = refuse
    return cls


# ---------------------------------------------------------------------------
# Rationals
# ---------------------------------------------------------------------------


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` (q > 0) or ``"p"``, p an optional ``-`` and ASCII
    digits, into an exact rational; ``Fraction()`` alone would also read
    ``+2``, ``1_000``, ``1e3``, ``0.5`` and non-ASCII digits."""
    num, slash, den = text.strip().partition("/")
    digits = (num.removeprefix("-"), den) if slash else (num.removeprefix("-"),)
    if not all(d.isascii() and d.isdigit() for d in digits) or slash and not int(den):
        raise UsageError(f"not a rational: {text!r}")
    return Fraction(int(num), int(den) if slash else 1)


def parse_int(text: str) -> int:
    """Parse ``"p"``, p an optional ``-`` and ASCII digits, into an int."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise UsageError(f"not an integer: {text!r}")
    return int(text)


def as_weight(value) -> Fraction:
    """A density weight (or any exact constant) as a rational.  A string is
    read by ``parse_rational``.  A float or bool is refused: ``Fraction(0.1)``
    is the binary expansion of 0.1, not 1/10, and ``True`` is not a number here."""
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, (float, bool)):
        raise UsageError(f"{value!r} is not exact: pass an int, a Fraction or a string")
    return Fraction(value)


def format_rational(x: Fraction) -> str:
    """Render as ``"p/q"``, or ``"p"`` when the denominator is one."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# The parameter superalgebra
# ---------------------------------------------------------------------------

# A monomial is a pair (even, odd): `even` maps sorted symbol names to
# exponents, `odd` is a sorted tuple of distinct odd symbol names.  Odd
# symbols square to zero and anticommute, so sorting the odd word costs a
# sign, which ``_mul_monomials`` returns.
Monomial = tuple[tuple[tuple[str, int], ...], tuple[str, ...]]

_ONE_MON: Monomial = ((), ())


@record(frozen=True)
class ParamAlgebra:
    """A declared alphabet of deformation parameters, each even or odd."""

    even: tuple[str, ...]
    odd: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "even", tuple(sorted(self.even)))
        object.__setattr__(self, "odd", tuple(sorted(self.odd)))
        seen = set(self.even)
        if len(seen) != len(self.even) or seen.intersection(self.odd):
            raise UsageError("parameter alphabet has duplicate symbols")
        if len(set(self.odd)) != len(self.odd):
            raise UsageError("parameter alphabet has duplicate symbols")

    def parity_of(self, name: str) -> int:
        if name in self.even:
            return 0
        if name in self.odd:
            return 1
        raise UsageError(f"unknown parameter symbol {name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self.even or name in self.odd


def _merge_algebras(a: ParamAlgebra | None, b: ParamAlgebra | None) -> ParamAlgebra | None:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise UsageError("mismatched parameter alphabets")


def _mul_monomials(m1: Monomial, m2: Monomial) -> tuple[int, Monomial] | None:
    """(sign, m1 m2) in normal form, or None when an odd letter repeats: the
    sign is that of moving each odd letter of m2 left past the greater
    letters of the (sorted) odd word of m1."""
    (even1, odd1), (even2, odd2) = m1, m2
    if set(odd1) & set(odd2):
        return None
    even = even1
    if even2:
        acc = dict(even1)
        for name, exp in even2:
            acc[name] = acc.get(name, 0) + exp
        even = tuple(sorted(acc.items()))
    swaps = sum(a > b for a in odd1 for b in odd2)
    return (-1 if swaps & 1 else 1), (even, tuple(sorted(odd1 + odd2)))


def koszul_product(p: Monomial, parity: int, q: Monomial) -> tuple[int, Monomial] | None:
    """(s, pq) with (p A)(q B) = s (pq)(A B) for parameter-free values A of
    parity `parity` and B, or None when pq = 0: s is the sign of
    ``_mul_monomials(p, q)`` times the Koszul factor (-1)^(|A||q|) of moving
    q to the left past A, the sign rule of a supercommutative algebra
    (Leites, "Introduction to the theory of supermanifolds", 1980)."""
    prod = _mul_monomials(p, q)
    if prod is None:
        return None
    sign, pq = prod
    return (-sign if parity & len(q[1]) else sign), pq


def add_terms(left: Mapping, right: Mapping) -> dict:
    """The terms {monomial: value} of left + right; a value summing to zero
    stays, for the caller's constructor to drop."""
    terms = dict(left)
    for mon, value in right.items():
        terms[mon] = terms[mon] + value if mon in terms else value
    return terms


def product_terms(left: Mapping, right: Mapping, product, graded: bool = False) -> dict:
    """The terms of (sum_p p a_p)(sum_q q b_q) = sum s (pq) product(a_p, b_q),
    s from ``koszul_product`` with |a_p| = a_p.parity() for `graded` values
    (not asked when every q is even) and 0 otherwise; zeros stay, as in
    ``add_terms``."""
    odd = graded and any(len(q[1]) & 1 for q in right)
    terms: dict = {}
    for p, a in left.items():
        a_parity = a.parity() if odd else 0
        for q, b in right.items():
            hit = koszul_product(p, a_parity, q)
            if hit is not None:
                value = product(a, b)
                value = value if hit[0] == 1 else -value
                terms[hit[1]] = terms[hit[1]] + value if hit[1] in terms else value
    return terms


def _monomial_parity(mon: Monomial) -> int:
    return len(mon[1]) & 1


def _monomial_degree(mon: Monomial) -> int:
    return sum(exp for _, exp in mon[0]) + len(mon[1])


def _monomial_str(mon: Monomial) -> str:
    parts = []
    for name, exp in mon[0]:
        parts.append(name if exp == 1 else f"{name}^{exp}")
    parts.extend(mon[1])
    return "*".join(parts)


class ParamScalar:
    """Element of the supercommutative polynomial algebra over ``Q``.

    Monomials are normalized words: even symbols sorted and exponentiated,
    odd symbols sorted with the Koszul sign folded into the coefficient.
    Two elements are equal iff their normalized term dicts coincide, so
    representation equality is semantic equality.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: ParamAlgebra | None, terms: Mapping[Monomial, Fraction]):
        self.algebra = algebra
        self.terms: dict[Monomial, Fraction] = {m: c for m, c in terms.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value: int | Fraction) -> "ParamScalar":
        value = as_weight(value)
        return ParamScalar(None, {_ONE_MON: value} if value else {})

    @staticmethod
    def symbol(algebra: ParamAlgebra, name: str) -> "ParamScalar":
        algebra.parity_of(name)  # validates membership
        if name in algebra.odd:
            mon: Monomial = ((), (name,))
        else:
            mon = (((name, 1),), ())
        return ParamScalar(algebra, {mon: Fraction(1)})

    # -- ring structure ----------------------------------------------------

    @staticmethod
    def _coerce(value) -> ParamScalar | None:
        if isinstance(value, ParamScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return ParamScalar.const(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        algebra = _merge_algebras(self.algebra, other.algebra)
        return ParamScalar(algebra, add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return ParamScalar(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        algebra = _merge_algebras(self.algebra, other.algebra)
        return ParamScalar(algebra, product_terms(self.terms, other.terms, _mul))

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    # -- grading -----------------------------------------------------------

    def is_homogeneous(self) -> bool:
        parities = {_monomial_parity(m) for m in self.terms}
        return len(parities) <= 1

    def parity(self) -> int:
        """Parity of a homogeneous element; zero counts as even."""
        parities = {_monomial_parity(m) for m in self.terms}
        if not parities:
            return 0
        if len(parities) > 1:
            raise UsageError("scalar is not parity-homogeneous")
        return parities.pop()

    # -- evaluation ---------------------------------------------------------

    def substitute(self, assignment: Mapping[str, int | str | Fraction]) -> "ParamScalar":
        """Exact substitution of parameter symbols.

        Even symbols may take any rational value; odd symbols only zero
        (a nonzero numeric odd value is contradictory).  Symbols missing
        from the assignment stay formal.
        """
        values: dict[str, Fraction] = {}
        for name, raw in assignment.items():
            value = as_weight(raw)
            if self.algebra is not None and name in self.algebra.odd and value != 0:
                raise UsageError(f"odd parameter {name!r} cannot take the nonzero value {value}")
            values[name] = value
        terms: dict[Monomial, Fraction] = {}
        for (even, odd), coeff in self.terms.items():
            if any(name in values for name in odd):  # an odd value is 0
                continue
            for name, exp in even:
                coeff *= values.get(name, 1) ** exp
            mon = (tuple((name, exp) for name, exp in even if name not in values), odd)
            terms[mon] = terms.get(mon, 0) + coeff
        return ParamScalar(self.algebra, terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {_ONE_MON}:
            raise UsageError("scalar still contains formal parameters")
        return self.terms[_ONE_MON]

    def monomials(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items())

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for mon, coeff in self.monomials():
            word = _monomial_str(mon)
            if not word:
                body = format_rational(coeff)
            elif coeff == 1:
                body = word
            elif coeff == -1:
                body = f"-{word}"
            else:
                body = f"{format_rational(coeff)}*{word}"
            if chunks and not body.startswith("-"):
                chunks.append(f" + {body}")
            elif chunks:
                chunks.append(f" - {body[1:]}")
            else:
                chunks.append(body)
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"ParamScalar({self})"


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------

#: A sparse row: (column, value) pairs, values int or Fraction, zeros optional.
SparseRow = Sequence[tuple[int, int | Fraction]]


def _primitive_row(pairs: SparseRow, ncols: int) -> tuple[int, int, dict[int, int]]:
    """(mult, div, row) with row = pairs * mult / div a primitive
    integer vector.  Every entry passes here, so anything but an exact int
    or Fraction, a column outside range(ncols) or a repeated column is
    refused.  A row of ints, such as an integer differential column, skips
    the common denominator."""
    row: dict[int, int | Fraction] = dict(pairs)
    if len(row) != len(pairs) or (row and not 0 <= min(row) <= max(row) < ncols):
        raise UsageError("bad or repeated column in a sparse row")
    den = 1
    if set(map(type, row.values())) - {int}:
        for value in row.values():
            if not isinstance(value, (int, Fraction)):
                raise UsageError(f"exact elimination needs int or Fraction entries, got {value!r}")
        den = lcm(*[value.denominator for value in row.values()])
        row = {col: n for col, value in row.items()
               if (n := value.numerator * (den // value.denominator))}
    elif 0 in row.values():
        row = {col: value for col, value in row.items() if value}
    content = gcd(*row.values()) or 1
    if content != 1:
        row = {col: n // content for col, n in row.items()}
    return den, content, row


def _echelon(rows: Sequence[SparseRow], ncols: int,
             steps: list | None = None) -> dict[int, dict[int, int]]:
    """The one elimination: sparse, over the integers, fraction-free.

    Rows are inserted one at a time.  While a row's leading column c holds
    a pivot p, it becomes ``p[c]*v - v[c]*p`` (both divided by their gcd)
    divided by its content, so every stored row stays a primitive integer
    vector.  A row left nonzero becomes the pivot of its leading column.
    Returns {pivot column: row}, each row zero left of its pivot.  Pivot
    columns are the earliest independent columns whatever the row order,
    which is what makes solutions canonical: a column is in the span of
    the columns before it exactly when it is not a pivot.

    With ``steps`` given, each input row appends (row number, mult, div,
    ops, pivot column or None), with mult/div as in ``_primitive_row`` and
    ops (c, b, a, content) meaning ``v <- (b*v - a*pivot[c]) / content``,
    for right-hand sides to replay."""
    pivots: dict[int, dict[int, int]] = {}
    for number, pairs in enumerate(rows):
        mult, div, row = _primitive_row(pairs, ncols)
        ops = []
        while row and (lead := min(row)) in pivots:
            pivot = pivots[lead]
            g = gcd(row[lead], pivot[lead])
            a, b = row[lead] // g, pivot[lead] // g
            if b != 1:
                for col in row:
                    row[col] *= b
            for col, value in pivot.items():
                n = row.get(col, 0) - a * value
                if n:
                    row[col] = n
                else:
                    del row[col]
            content = gcd(*row.values()) or 1
            if content > 1:
                row = {col: value // content for col, value in row.items()}
            ops.append((lead, b, a, content))
        if row:
            pivots[lead] = row
        if steps is not None:
            steps.append((number, mult, div, ops, lead if row else None))
    return pivots


def matrix_rank(rows: Sequence[SparseRow], ncols: int) -> int:
    """Exact rank of the sparse rows (see ``_echelon``)."""
    return len(_echelon(rows, ncols))


class SolvedSystem:
    """Echelon form of a sparse matrix, reusable across right-hand sides.

    Elimination happens once (``_echelon``), recording its row steps; each
    ``solve`` replays them on b and back-substitutes.  ``pivot_cols`` are
    the earliest independent columns, so the particular solution (free
    variables 0) is canonical, and a column lies in the span of the columns
    before it exactly when it is not among them.  Entries are ints or
    Fractions; solutions are Fractions either way.
    """

    def __init__(self, rows: Sequence[SparseRow], ncols: int):
        self.ncols = ncols
        self.nrows = len(rows)
        self._steps: list = []
        self._pivots = _echelon(rows, ncols, self._steps)
        self.pivot_cols = sorted(self._pivots)
        self.rank = len(self.pivot_cols)

    def solve(self, b: Sequence[Fraction]) -> list[Fraction] | None:
        """The particular solution of A x = b with free variables 0, or None
        if inconsistent."""
        if len(b) != self.nrows:
            raise UsageError("right-hand side has the wrong length")
        rhs: dict[int, Fraction] = {}
        for number, mult, div, ops, lead in self._steps:
            r = Fraction(b[number] * mult, div) if b[number] else 0
            for col, scale, factor, content in ops:
                if r or rhs[col]:  # right-hand sides are mostly zero
                    r = (scale * r - factor * rhs[col]) / content
            if lead is not None:
                rhs[lead] = r
            elif r:
                return None
        x = [Fraction(0)] * self.ncols  # back-substitution, pivot rows last to first
        for col in reversed(self.pivot_cols):
            row = self._pivots[col]
            acc = rhs[col] - sum(v * x[j] for j, v in row.items() if j != col and x[j])
            x[col] = Fraction(acc) / row[col]
        return x
