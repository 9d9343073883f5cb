"""Exact scalar arithmetic: rationals, the parameter superalgebra, and
dense rational linear algebra.

Every value in the engine bottoms out here.  There is no floating point
anywhere: weights are ``Fraction``s, deformation parameters live in a
supercommutative polynomial algebra over ``Fraction``, and all linear
systems are solved by exact Gaussian elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union


class UsageError(ValueError):
    """A caller violated a documented precondition."""


class InternalError(AssertionError):
    """An internal invariant failed; this is an engine bug, not user error."""


# ---------------------------------------------------------------------------
# Rationals
# ---------------------------------------------------------------------------

#: Exact rational scalar; always in lowest terms with positive denominator.
Q = Fraction


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational: {text!r}") from exc


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
# Koszul sign tracked by the caller.
Monomial = tuple[tuple[tuple[str, int], ...], tuple[str, ...]]

_ONE_MON: Monomial = ((), ())


@dataclass(frozen=True)
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


def _merge_algebras(a: Optional[ParamAlgebra], b: Optional[ParamAlgebra]) -> Optional[ParamAlgebra]:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise UsageError("mismatched parameter alphabets")


def _sort_odd(word: tuple[str, ...]) -> Optional[tuple[int, tuple[str, ...]]]:
    """Sort an odd word, returning (sign, sorted word); None if a symbol repeats."""
    if len(set(word)) != len(word):
        return None
    items = list(word)
    sign = 1
    # insertion sort; words have a handful of letters at most
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(items)


def _mul_monomials(m1: Monomial, m2: Monomial) -> Optional[tuple[int, Monomial]]:
    even1, odd1 = m1
    even2, odd2 = m2
    if even2:
        acc = dict(even1)
        for name, exp in even2:
            acc[name] = acc.get(name, 0) + exp
        even = tuple(sorted(acc.items()))
    else:
        even = even1
    # moving each letter of odd2 across the (already reduced) odd1 word
    # costs one sign per transposition; sorting the concatenation counts
    # exactly those transpositions.
    sorted_odd = _sort_odd(odd1 + odd2)
    if sorted_odd is None:
        return None
    sign, odd = sorted_odd
    return sign, (even, odd)


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

    def __init__(self, algebra: Optional[ParamAlgebra], terms: Mapping[Monomial, Fraction]):
        self.algebra = algebra
        self.terms: dict[Monomial, Fraction] = {m: c for m, c in terms.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value: Union[int, Fraction]) -> "ParamScalar":
        value = Fraction(value)
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
    def _coerce(value) -> Optional["ParamScalar"]:
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
        terms = dict(self.terms)
        for mon, c in other.terms.items():
            acc = terms.get(mon, 0) + c
            if acc:
                terms[mon] = acc
            else:
                terms.pop(mon, None)
        return ParamScalar(algebra, terms)

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
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = _mul_monomials(m1, m2)
                if prod is None:
                    continue
                sign, mon = prod
                acc = terms.get(mon, 0) + sign * c1 * c2
                if acc:
                    terms[mon] = acc
                else:
                    terms.pop(mon, None)
        return ParamScalar(algebra, terms)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("negative powers are not defined here")
        out = ParamScalar.const(1)
        for _ in range(n):
            out = out * self
        return out

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

    def involute(self) -> "ParamScalar":
        """Flip the sign of every odd monomial (the grading involution)."""
        return ParamScalar(
            self.algebra,
            {m: (-c if _monomial_parity(m) else c) for m, c in self.terms.items()},
        )

    def max_degree(self) -> int:
        return max((_monomial_degree(m) for m in self.terms), default=0)

    def truncate(self, max_degree: int) -> "ParamScalar":
        return ParamScalar(
            self.algebra,
            {m: c for m, c in self.terms.items() if _monomial_degree(m) <= max_degree},
        )

    def component(self, degree: int) -> "ParamScalar":
        return ParamScalar(
            self.algebra,
            {m: c for m, c in self.terms.items() if _monomial_degree(m) == degree},
        )

    # -- evaluation ---------------------------------------------------------

    def substitute(self, assignment: Mapping[str, Union[int, str, Fraction]]) -> "ParamScalar":
        """Exact substitution of parameter symbols.

        Even symbols may take any rational value; odd symbols only zero
        (a nonzero numeric odd value is contradictory).  Symbols missing
        from the assignment stay formal.
        """
        values: dict[str, Fraction] = {}
        for name, raw in assignment.items():
            value = parse_rational(raw) if isinstance(raw, str) else Fraction(raw)
            if self.algebra is not None and name in self.algebra.odd and value != 0:
                raise UsageError(f"odd parameter {name!r} cannot take the nonzero value {value}")
            values[name] = value
        terms: dict[Monomial, Fraction] = {}
        for (even, odd), coeff in self.terms.items():
            dead = False
            for name in odd:
                if name in values:  # value is necessarily 0 here
                    dead = True
                    break
            if dead:
                continue
            new_even = []
            for name, exp in even:
                if name in values:
                    coeff = coeff * values[name] ** exp
                else:
                    new_even.append((name, exp))
            if not coeff:
                continue
            mon = (tuple(new_even), odd)
            acc = terms.get(mon, 0) + coeff
            if acc:
                terms[mon] = acc
            else:
                terms.pop(mon, None)
        return ParamScalar(self.algebra, terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {_ONE_MON}:
            raise UsageError("scalar still contains formal parameters")
        return self.terms[_ONE_MON]

    def monomials(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items())

    def symbols(self) -> set[str]:
        out: set[str] = set()
        for even, odd in self.terms:
            out.update(name for name, _ in even)
            out.update(odd)
        return out

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


#: Coefficients elsewhere in the engine: plain rationals embed in every
#: parameter algebra, so both kinds mix freely in arithmetic.
Scalar = Union[Fraction, ParamScalar]


# -- helpers over mixed Fraction / ParamScalar coefficients -----------------

def scalar_is_zero(c: Scalar) -> bool:
    return not c


def scalar_parity(c: Scalar) -> int:
    return c.parity() if isinstance(c, ParamScalar) else 0


def scalar_involute(c: Scalar) -> Scalar:
    return c.involute() if isinstance(c, ParamScalar) else c


def scalar_str(c: Scalar) -> str:
    return str(c) if isinstance(c, ParamScalar) else format_rational(c)


def scalar_substitute(c: Scalar, assignment: Mapping[str, Union[int, str, Fraction]]) -> Scalar:
    return c.substitute(assignment) if isinstance(c, ParamScalar) else c


def scalar_truncate(c: Scalar, max_degree: int) -> Scalar:
    return c.truncate(max_degree) if isinstance(c, ParamScalar) else c


def scalar_as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, ParamScalar):
        return c.constant_value()
    return Fraction(c)


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def _bitsize(x: Fraction) -> int:
    """Pivot-choice size of an entry; every pivot candidate passes here, so
    anything but an exact int or Fraction is refused before it is used."""
    if not isinstance(x, (int, Fraction)):
        raise UsageError(f"exact elimination needs int or Fraction entries, got {x!r}")
    return x.numerator.bit_length() + x.denominator.bit_length()


class SolvedSystem:
    """Row-reduced form of a matrix, reusable across many right-hand sides.

    Elimination happens once; each subsequent ``solve`` is a cheap
    transform-and-back-substitute.  Pivots are chosen by smallest bit-size
    to keep intermediate fractions small.  Entries are ints or Fractions;
    results are Fractions either way.
    """

    def __init__(self, rows: Sequence[Sequence[Fraction]], ncols: int):
        nrows = len(rows)
        work = [list(row) for row in rows]
        # transform matrix: solve() maps b through the same row operations
        trans = [[Fraction(0)] * nrows for _ in range(nrows)]
        for i in range(nrows):
            trans[i][i] = Fraction(1)
        pivot_cols: list[int] = []
        pivot_rows: list[int] = []
        used = [False] * nrows
        for col in range(ncols):
            best = -1
            best_size = None
            for r in range(nrows):
                if used[r] or not work[r][col]:
                    continue
                size = _bitsize(work[r][col])
                if best_size is None or size < best_size:
                    best, best_size = r, size
            if best < 0:
                continue
            used[best] = True
            pivot_cols.append(col)
            pivot_rows.append(best)
            inv = Fraction(1) / work[best][col]
            work[best] = [x * inv for x in work[best]]
            trans[best] = [x * inv for x in trans[best]]
            prow, ptrans = work[best], trans[best]
            for r in range(nrows):
                if r == best:
                    continue
                factor = work[r][col]
                if not factor:
                    continue
                wr, tr = work[r], trans[r]
                for c in range(col, ncols):
                    if prow[c]:
                        wr[c] -= factor * prow[c]
                for c in range(nrows):
                    if ptrans[c]:
                        tr[c] -= factor * ptrans[c]
        self.ncols = ncols
        self.nrows = nrows
        self.reduced = work
        self.transform = trans
        self.pivot_cols = pivot_cols
        self.pivot_rows = pivot_rows
        self.rank = len(pivot_cols)
        self._nullspace: Optional[list[list[Fraction]]] = None

    def solve(self, b: Sequence[Fraction]) -> Optional[list[Fraction]]:
        """A particular solution of A x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise UsageError("right-hand side has the wrong length")
        pivot_row_set = set(self.pivot_rows)
        transformed = []
        for i in range(self.nrows):
            acc = Fraction(0)
            ti = self.transform[i]
            for j, bj in enumerate(b):
                if bj and ti[j]:
                    acc += ti[j] * bj
            transformed.append(acc)
        for i in range(self.nrows):
            if i not in pivot_row_set and transformed[i]:
                return None
        x = [Fraction(0)] * self.ncols
        for col, row in zip(self.pivot_cols, self.pivot_rows):
            x[col] = transformed[row]
        return x

    def nullspace(self) -> list[list[Fraction]]:
        if self._nullspace is None:
            basis = []
            pivot_of_col = dict(zip(self.pivot_cols, self.pivot_rows))
            for free in range(self.ncols):
                if free in pivot_of_col:
                    continue
                vec = [Fraction(0)] * self.ncols
                vec[free] = Fraction(1)
                for col, row in pivot_of_col.items():
                    vec[col] = -self.reduced[row][free]
                basis.append(vec)
            self._nullspace = basis
        return self._nullspace


def matrix_rank(rows: Sequence[Sequence[Fraction]], ncols: int) -> int:
    """Rank by plain forward elimination (no transform bookkeeping)."""
    work = [list(r) for r in rows if any(r)]
    rank = 0
    for col in range(ncols):
        pivot = None
        best_size = None
        for r in range(rank, len(work)):
            if work[r][col]:
                size = _bitsize(work[r][col])
                if best_size is None or size < best_size:
                    pivot, best_size = r, size
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        inv = Fraction(1) / prow[col]
        if inv != 1:
            work[rank] = prow = [x * inv for x in prow]
        for r in range(rank + 1, len(work)):
            factor = work[r][col]
            if not factor:
                continue
            wr = work[r]
            for c in range(col, ncols):
                if prow[c]:
                    wr[c] -= factor * prow[c]
        rank += 1
        if rank == len(work):
            break
    return rank
