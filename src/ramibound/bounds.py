"""Nilpotency indices and ramification-bound constants.

The central quantity is the least N with u^N = 0 in (Z/p^n)[u]/E(u)^r, found
by brute force in the quotient ring; several closed-form annihilating
exponents are computed alongside for comparison.  From a valid N the module
derives the threshold integers and the exact rational bounds reported by the
CLI.  All log_p comparisons are exact integer power comparisons.

The general closed form needs v_p(E'(pi)) for a root pi of E.  It is read off
the coefficients exactly: E'(pi) = sum i*a_i*pi^(i-1), and the nonzero terms
have valuations v_p(i*a_i) + (i-1)/e with pairwise distinct fractional parts
(i-1)/e, so none cancel and v_p(E'(pi)) is the least of them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import InputError
from .padic import (
    EisensteinPoly,
    QuotRing,
    Rat,
    min_integer_strictly_above,
    vp_int,
)


def exact_nilpotency_index(E: EisensteinPoly, n: int, r: int) -> int:
    """Minimal N with u^N = 0 in (Z/p^n)[u]/E(u)^r by iterated multiply and
    reduce.  Termination is guaranteed: N never exceeds e*r*n."""
    ring = QuotRing(E.p, n, E, r)
    cap = E.e * r * n
    power: tuple[int, ...] = (1,)
    u = ring.u_power(1)
    for k in range(1, cap + 1):
        power = ring.mul(power, u)
        if not power:
            return k
    raise AssertionError("u^(e*r*n) must vanish")


def different_valuation(E: EisensteinPoly) -> Rat:
    """v_p(E'(pi)) for a root pi of E: the least v_p(i*a_i) + (i-1)/e over
    the nonzero i*a_i, i >= 1 (exact, see the module docstring)."""
    return min(
        vp_int(c, E.p) + Fraction(i, E.e) for i, c in enumerate(E.derivative()) if c
    )


def closed_form_N_bounds(E: EisensteinPoly, n: int, r: int) -> dict[str, int]:
    """Every applicable closed-form annihilating exponent.

    ern        e*r*n, always valid.
    ceil       e * p^{n-1} * ceil(r / p^{n-1}).
    uep        e*(n+r-1), only for E of the shape u^e - p or u^e + p.
    general    e*n + c*(r-1) with c = e*v + 1, v = ceil(v_p(E'(pi))), where
               v_p(E'(pi)) is exactly the least v_p(i*a_i) + (i-1)/e over the
               nonzero i*a_i: the fractional parts (i-1)/e are distinct, so
               no terms of E'(pi) cancel.
    """
    p, e = E.p, E.e
    pn1 = p ** (n - 1)
    out = {
        "ern": e * r * n,
        "ceil": e * pn1 * (-(-r // pn1)),
    }
    if E.is_uniformizer_binomial():
        out["uep"] = e * (n + r - 1)
    v_frac = different_valuation(E)
    v = -((-v_frac.numerator) // v_frac.denominator)  # ceil
    c = e * v + 1
    out["general"] = e * n + c * (r - 1)
    return out


def alpha_beta(x: Rat, p: int) -> tuple[int, Rat]:
    """Unique decomposition x = p^alpha * beta with 1/p < beta <= 1."""
    x = Fraction(x)
    if x <= Fraction(1, p):
        raise InputError(f"{x} <= 1/{p}: no decomposition with alpha >= 0")
    alpha = 0
    while x > 1:
        x /= p
        alpha += 1
    return alpha, x


@dataclass(frozen=True)
class BoundConstants:
    """All derived constants for one (p, e, n, r, N)."""

    p: int
    e: int
    n: int
    r: int
    N: int
    b: Rat  # N/(p-1)
    a: Rat  # pN/(p-1) = b + N
    s_min_int: int  # least s with e*p^{s-n+1} > N
    s0a_int: int  # least s with e*(p-1)*p^{s-n} > N
    s2b_int: int  # least s above the level-b comparison threshold
    alpha: int
    beta: Rat
    relaxed_s_min_int: int | None = None


def bound_constants(
    p: int, e: int, n: int, r: int, N: int, relaxed: bool = False
) -> BoundConstants:
    if N < 1:
        raise InputError("N must be >= 1")
    b = Fraction(N, p - 1)
    a = b + N
    s_min_int = min_integer_strictly_above(p, Fraction(N, e), n - 1)
    s0a_int = min_integer_strictly_above(p, Fraction(N, e * (p - 1)), n)
    s2b_int = min_integer_strictly_above(p, Fraction(b * (p - 1), e), n - 1)
    if s2b_int != s_min_int:
        raise AssertionError("the two threshold expressions must agree")
    alpha, beta = alpha_beta(Fraction(N, e * (p - 1)), p)
    relaxed_s = None
    if relaxed and a >= Fraction(p - 1, p - 2):
        relaxed_s = min_integer_strictly_above(
            p, Fraction((a - 1) * (p - 1), e * p), n - 1
        )
    return BoundConstants(
        p, e, n, r, N, b, a, s_min_int, s0a_int, s2b_int, alpha, beta, relaxed_s
    )


@dataclass(frozen=True)
class BoundReport:
    p: int
    e: int
    n: int
    r: int
    N: int
    N_provenance: str
    thm11_mu: Rat
    thm11_min_s: int
    cor39_mu: Rat
    cor39_min_s: int
    thm12_mu: Rat
    thm12_diff: Rat
    conj13_mu: Rat
    conj13_diff: Rat

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def ramification_report(
    p: int,
    e: int,
    n: int,
    r: int,
    N: int | None = None,
    N_provenance: str | None = None,
) -> BoundReport:
    """Exact bound package for one parameter tuple.

    With N omitted the generic exponent e*r*n is used and the two headline
    bounds come out in their textbook form; a sharper caller-supplied N
    (for instance the brute-forced exact index) strictly improves the
    level-s corollary bound.  Which N was used, and where it came from, is
    recorded in the report.
    """
    if N is None:
        N = e * r * n
        N_provenance = "ern-closed-form"
    elif N_provenance is None:
        N_provenance = "explicit"
    for name, val in (("p", p), ("e", e), ("n", n), ("r", r), ("N", N)):
        if val < 1:
            raise InputError(f"{name} must be >= 1")

    thm11_mu = Fraction(e * r * n * p ** n, p - 1)
    thm11_min_s = min_integer_strictly_above(p, Fraction(n * r, p - 1), n)
    cor39_mu = Fraction(N * p ** n, p - 1)
    cor39_min_s = min_integer_strictly_above(p, Fraction(N, e * (p - 1)), n)

    alpha, beta = alpha_beta(Fraction(N, e * (p - 1)), p)
    inv_p1 = Fraction(1, p - 1)
    thm12_mu = 1 + e * (n + alpha + max(beta, inv_p1))
    thm12_diff = 1 + e * (n + alpha + beta) - Fraction(1, p ** (n + alpha))

    alpha_c, beta_c = alpha_beta(Fraction(r, p - 1), p)
    conj13_mu = 1 + e * (n + alpha_c + max(beta_c, inv_p1))
    conj13_diff = 1 + e * (n + alpha_c + beta_c) - Fraction(1, p ** (n + alpha_c))

    return BoundReport(
        p,
        e,
        n,
        r,
        N,
        N_provenance,
        thm11_mu,
        thm11_min_s,
        cor39_mu,
        cor39_min_s,
        thm12_mu,
        thm12_diff,
        conj13_mu,
        conj13_diff,
    )


def nilpotency_summary(E: EisensteinPoly, n: int, r: int) -> dict[str, int]:
    """Exact index next to every applicable closed form."""
    out: dict[str, int] = {"exact": exact_nilpotency_index(E, n, r)}
    out.update(closed_form_N_bounds(E, n, r))
    return out
