"""Constructors for the named cocycle families, id parsing for the CLI,
the parity-decomposition identity for the odd 2-cocycle family, and the
check that the fixed sign convention of ``cohomology`` makes every family
a cocycle.

Families (CLI ids in parentheses):

* ``A`` (``A:lambda=p/q``)  degree 1 on the diagonal classical block.
* ``B``, ``C`` (``B:m=3,k=2``) degree 1 on the resonant classical block.
* ``Phi`` (``Phi:k=2``)     degree 2 on the resonant classical block.
* ``Yprime`` (``Yprime:lambda=p/q``) degree 1, diagonal super block, even.
* ``Y``, ``Ytilde`` (``Y:k=1``) degree 1, resonant super block, odd.
* ``Omega`` (``Omega:k=2``) degree 2, resonant super block, odd.

The table ``_FAMILIES`` is the one description of a family: its builder
and the keys of its id.  Parsing, printing and building an id all read it,
and ``deformation`` names the families it places only by ``CatalogId``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cohomology import Cochain1, Cochain2, OSP12, SL2, d1, d2, get_algebra
from .geometry import P_ZERO, Poly, SuperPoly, eta_bar, eta_plus_power, eta_power
from .kernel import (InternalError, UsageError, as_weight, format_rational, parse_int,
                     parse_rational, record)
from .operators import DiffOp, SuperDiffOp


# ---------------------------------------------------------------------------
# Classical families
# ---------------------------------------------------------------------------


def cocycle_A(lam) -> Cochain1:
    """Degree-1 family on the diagonal block: g d/dx acts by mult(g')."""
    lam = as_weight(lam)
    images = [DiffOp.multiplication(x.g.derivative(), lam, lam) for x in get_algebra(SL2).basis]
    return Cochain1(SL2, images)


def _bc_range_check(m: int, k: int) -> None:
    if m < 2:
        raise UsageError("resonant classical families need m >= 2")
    if not ((m + 1) // 2 <= k <= m - 1):
        raise UsageError(f"index k={k} outside [floor((m+1)/2), m-1] = "
                         f"[{(m + 1) // 2}, {m - 1}]")


def bc_block_weights(m: int, k: int) -> tuple[Fraction, Fraction]:
    return Fraction(m - 2 * k, 2), Fraction(2 + 2 * k - m, 2)


def cocycle_B(m: int, k: int) -> Cochain1:
    """F d/dx acts by f -> F' f^{(2k-m+1)} on the resonant block."""
    _bc_range_check(m, k)
    lam, mu = bc_block_weights(m, k)
    order = 2 * k - m + 1
    images = [DiffOp.partial(order, lam, mu, x.g.derivative()) for x in get_algebra(SL2).basis]
    return Cochain1(SL2, images)


def cocycle_C(m: int, k: int) -> Cochain1:
    """F d/dx acts by f -> F'' f^{(2k-m)} on the resonant block."""
    _bc_range_check(m, k)
    lam, mu = bc_block_weights(m, k)
    order = 2 * k - m
    images = [DiffOp.partial(order, lam, mu, x.g.derivative().derivative())
              for x in get_algebra(SL2).basis]
    return Cochain1(SL2, images)


def phi_block_weights(k: int) -> tuple[Fraction, Fraction]:
    return Fraction(1 - k, 2), Fraction(1 + k, 2)


def _wronskian(f: Poly, g: Poly) -> Poly:
    return f.derivative() * g.derivative().derivative() - f.derivative().derivative() * g.derivative()


def cocycle_Phi(k: int) -> Cochain2:
    """(F,G) acts by f -> (F'G'' - F''G') f^{(k-1)}."""
    if k < 1:
        raise UsageError("Phi requires k >= 1")
    lam, mu = phi_block_weights(k)
    basis = get_algebra(SL2).basis
    images = {}
    for (i, j) in get_algebra(SL2).canonical_pairs():
        images[(i, j)] = DiffOp.partial(k - 1, lam, mu, _wronskian(basis[i].g, basis[j].g))
    return Cochain2(SL2, images)


# ---------------------------------------------------------------------------
# Super families
# ---------------------------------------------------------------------------


def cocycle_Yprime(lam) -> Cochain1:
    """Even degree-1 family on the diagonal super block: X_F acts by mult(F')."""
    lam = as_weight(lam)
    images = [SuperDiffOp.multiplication(x.generator.derivative_x(), lam, lam)
              for x in get_algebra(OSP12).basis]
    return Cochain1(OSP12, images, parity=0)


def super_block_weights(k: int) -> tuple[Fraction, Fraction]:
    return Fraction(1 - k, 2), Fraction(k, 2)


def _gen_sign(parity: int) -> int:
    return -1 if parity else 1


def cocycle_Y(k: int) -> Cochain1:
    """Odd family: X_G maps to (-1)^{p(G)} eta^2(G) eta^{2k-1}."""
    if k < 1:
        raise UsageError("Y requires k >= 1")
    lam, mu = super_block_weights(k)
    images = []
    for x in get_algebra(OSP12).basis:
        coeff = eta_power(x.generator, 2).scale(_gen_sign(x.parity))
        images.append(SuperDiffOp.eta_power_term(coeff, 2 * k - 1, lam, mu))
    return Cochain1(OSP12, images, parity=1)


def cocycle_Ytilde(k: int) -> Cochain1:
    """Odd family: X_G maps to
    (-1)^{p(G)} ((k-1) n^4(G) eta^{2k-3} + n^3(G) eta^{2k-2})
    where n = d/dtheta + theta d/dx is the companion derivation (square
    +d/dx); at k = 1 the first term carries the scalar 0 and is dropped.

    Reading the inner derivation as the contact derivation itself does
    NOT give a cocycle (the sign-convention check fails loudly on it); the
    companion reading is the one under which the family is exact."""
    if k < 1:
        raise UsageError("Ytilde requires k >= 1")
    lam, mu = super_block_weights(k)
    images = []
    for x in get_algebra(OSP12).basis:
        sign = _gen_sign(x.parity)
        op = SuperDiffOp.eta_power_term(
            eta_plus_power(x.generator, 3).scale(sign), 2 * k - 2, lam, mu
        )
        if k > 1:
            op = op + SuperDiffOp.eta_power_term(
                eta_plus_power(x.generator, 4).scale(sign * (k - 1)), 2 * k - 3, lam, mu
            )
        images.append(op)
    return Cochain1(OSP12, images, parity=1)


def cocycle_Omega(k: int) -> Cochain2:
    """Odd degree-2 family on the resonant super block."""
    if k < 1:
        raise UsageError("Omega requires k >= 1")
    lam, mu = super_block_weights(k)
    basis = get_algebra(OSP12).basis
    images = {}
    for (i, j) in get_algebra(OSP12).canonical_pairs():
        f, g = basis[i], basis[j]
        fp = f.generator.derivative_x()
        gp = g.generator.derivative_x()
        cross = eta_bar(fp) * gp - (fp * eta_bar(gp)).scale(_gen_sign(f.parity * g.parity))
        op = SuperDiffOp.eta_power_term(cross, 2 * k - 2, lam, mu)
        if k > 1:
            wron = fp * gp.derivative_x() - fp.derivative_x() * gp
            lead = wron.scale((k - 1) * _gen_sign((f.parity + g.parity) & 1))
            op = op + SuperDiffOp.eta_power_term(lead, 2 * k - 3, lam, mu)
        images[(i, j)] = op
    return Cochain2(OSP12, images, parity=1)


# ---------------------------------------------------------------------------
# Parity decomposition of the odd family over the even subalgebra
# ---------------------------------------------------------------------------


@record
class DecompositionReport:
    k: int
    passed: bool
    residuals: dict


def lemma23_check(k: int) -> DecompositionReport:
    """Check, pair by pair over the even generators, the operator identity

        (-1)^k Omega_k(X_F, X_G) = (k-1) Phi_{k-1}(F,G) o d_theta
                                   - k theta Phi_k(F,G)

    in eta-normal form, where both sides compare exactly: the right-hand
    side is rewritten, as in ``super_lie_op``, by d_x^n = (-1)^n eta^(2n)
    and d_theta = eta - theta eta^2.  With w = F'G'' - F''G' it reads
    (-1)^k ((k-1) w eta^(2k-3) - (k-1) theta w eta^(2k-2) + k theta w eta^(2k-2)),
    the last term being -k theta Phi_k(F,G).
    Returns the residual operators for any failing pair."""
    if k < 2:
        raise UsageError("the decomposition check needs k >= 2")
    omega = cocycle_Omega(k)
    lam, mu = super_block_weights(k)
    sl2, osp = get_algebra(SL2), get_algebra(OSP12)
    # osp index -> sl2 index of the same Euler weight
    even_indices = {i: sl2.weights2.index(w) for i, w in enumerate(osp.weights2) if not w & 1}
    residuals = {}
    sign = -1 if k & 1 else 1
    for (i, j), image in omega.images.items():
        if i not in even_indices or j not in even_indices:
            continue
        w = _wronskian(sl2.basis[even_indices[i]].g, sl2.basis[even_indices[j]].g)
        w, theta_w = SuperPoly(w, P_ZERO).scale(sign), SuperPoly(P_ZERO, w).scale(sign)
        # (-1)^(k-2) = -(-1)^(k-1) = sign
        rhs = (SuperDiffOp.eta_power_term(w.scale(k - 1), 2 * k - 3, lam, mu)
               + SuperDiffOp.eta_power_term(theta_w.scale(1 - k), 2 * k - 2, lam, mu)
               + SuperDiffOp.eta_power_term(theta_w.scale(k), 2 * k - 2, lam, mu))
        diff = image.scale(sign) - rhs
        if diff:
            residuals[(i, j)] = diff
    return DecompositionReport(k=k, passed=not residuals, residuals=residuals)


# ---------------------------------------------------------------------------
# Catalog ids
# ---------------------------------------------------------------------------

# family -> (builder, the id keys in argument order)
_FAMILIES = {
    "A": (cocycle_A, ("lambda",)),
    "B": (cocycle_B, ("m", "k")),
    "C": (cocycle_C, ("m", "k")),
    "Phi": (cocycle_Phi, ("k",)),
    "Yprime": (cocycle_Yprime, ("lambda",)),
    "Y": (cocycle_Y, ("k",)),
    "Ytilde": (cocycle_Ytilde, ("k",)),
    "Omega": (cocycle_Omega, ("k",)),
}


@record(frozen=True)
class CatalogId:
    """A family and its builder arguments: a rational lambda, integers otherwise."""

    family: str
    args: tuple

    def __str__(self) -> str:
        keys = _FAMILIES[self.family][1]
        return f"{self.family}:" + ",".join(
            f"{key}={format_rational(value)}" for key, value in zip(keys, self.args))


def parse_catalog_id(text: str) -> CatalogId:
    family, _, argstr = text.partition(":")
    family = family.strip()
    if family not in _FAMILIES:
        raise UsageError(f"catalog id {text!r}: unknown cocycle family {family!r}")
    args = {}
    if argstr:
        for chunk in argstr.split(","):
            name, _, value = chunk.partition("=")
            name = name.strip()
            if name in args:
                raise UsageError(f"catalog id {text!r}: repeated key {name!r}")
            args[name] = value.strip()
    keys = _FAMILIES[family][1]
    if set(args) != set(keys):
        usage = ",".join(f"{key}=p/q" if key == "lambda" else f"{key}=<int>" for key in keys)
        raise UsageError(f"catalog id {text!r}: {family} takes exactly {usage}")
    try:
        return CatalogId(family, tuple(parse_rational(args[key]) if key == "lambda"
                                       else parse_int(args[key]) for key in keys))
    except UsageError as exc:
        raise UsageError(f"malformed catalog id {text!r}") from exc


def build_cocycle(cid: CatalogId | str):
    if isinstance(cid, str):
        cid = parse_catalog_id(cid)
    return _FAMILIES[cid.family][0](*cid.args)


# ---------------------------------------------------------------------------
# Sign-convention check
# ---------------------------------------------------------------------------

_CALIBRATION_SAMPLES = (
    "A:lambda=1", "A:lambda=5/3", "B:m=3,k=2", "C:m=3,k=2", "B:m=4,k=3",
    "Phi:k=1", "Phi:k=2", "Yprime:lambda=1/2", "Y:k=1", "Y:k=2",
    "Ytilde:k=1", "Ytilde:k=2", "Omega:k=1", "Omega:k=2",
)


@lru_cache(maxsize=1)
def calibrate_convention() -> dict:
    """Check that every catalog family is a cocycle under the one sign
    convention of ``cohomology``; the record is embedded in every report.

    The check runs the typed d1/d2, so every run also exercises the typed
    differential that witness re-checks and obstruction reassembly rely on.
    A failure is an engine fault (``InternalError``), never a verdict."""
    for text in _CALIBRATION_SAMPLES:
        cochain = build_cocycle(text)
        closed = (d1(cochain).is_zero() if cochain.degree == 1
                  else not any(d2(cochain).values()))
        if not closed:
            raise InternalError(f"{text} is not a cocycle under the fixed sign convention")
    return {
        "convention": {"action_sign": 1, "bracket_sign": 1},
        "calibrated_against": list(_CALIBRATION_SAMPLES),
        "is_default": True,
    }
