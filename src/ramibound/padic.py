"""Exact arithmetic foundation.

Everything here is integer arithmetic: residues mod p^M, polynomials over
them, quotient rings (Z/p^n)[u]/E(u)^r for an Eisenstein polynomial E, and
models of totally ramified extensions of Q_p presented by an Eisenstein
generator polynomial.  Valuations are exact `fractions.Fraction` values, never
floats.

This module holds the package's one arithmetic kernel:

* every product of integer coefficient tuples, in every module, is
  :func:`poly_convolve` (exact, optionally truncated to the first ``prec``
  coefficients) or a product in a :class:`MonicQuotient`.  A product has
  three strategies, chosen from the operands' lengths and nonzero counts
  alone: an operand with at most one nonzero coefficient c*x^k gives a
  shifted, scaled copy of the other (in a quotient ring its top k
  coefficients fold back through g's low terms, in one pass modulo a
  binomial); operands with at least PACK_PAIRS_PER_COEFF
  pairs of nonzero coefficients per coefficient are packed into one
  integer each, in slots wide enough for every coefficient of the product,
  and multiplied once (Kronecker substitution); the others multiply only
  pairs of nonzero coefficients;
* every quotient ring is a :class:`MonicQuotient`, (Z/q)[x]/(g) for a monic
  g, or Z[x]/(g) when q is None: the quotient ring (Z/p^n)[u]/E(u)^r, the
  rings O_E = Z_p[x]/g of the local-field models, the finite fields
  F_p[y]/(m) of :mod:`ramibound.kisin` and the companion rings Z[x]/g of
  :mod:`ramibound.witt`.  It checks once that g is monic and lists g's
  nonzero low terms once, and every division by a monic polynomial, its
  own and :func:`poly_divmod_monic`, walks only those (one for a binomial
  x^m + a), reduces modulo q once, at the end, and builds no quotient list.
  A quotient ring's product of two operands with more than one nonzero
  coefficient each is :func:`poly_convolve` and one reduction, so
  :func:`poly_convolve` alone chooses the pair loop or packing.  Modulo a
  binomial, a power of a dense operand with exponent 3 to PACK_POW_MAX (a
  cube) is one big-integer power of the packed operand, folded by
  x^m = -a and read back once;
* every inverse of a power series over F_p, the seed of
  :meth:`LocalElement.unit_inverse` and a series inverse in
  :mod:`ramibound.kisin`, is :func:`fp_series_inverse`;
* every matrix product is :func:`mat_mul`, with the dot product of a row
  and a column passed in: the series dots of :mod:`ramibound.kisin` over
  (Z/q)[u] and over a finite field, and the Witt dot of
  :mod:`ramibound.solver`, which skips products by zero entries (the
  lifter applies that dot to the columns it keeps, row vector by row
  vector);
* every power by square-and-multiply, of local-field elements, finite-field
  elements, polynomials or quotient-ring elements, is :func:`power`, which
  never multiplies by its identity: x^1 is x itself, and the identity is
  returned only for the exponent 0.  A product of local-field elements by
  a 1 takes the other factor's coefficients and the aprec of the general
  rule (:meth:`LocalFieldModel.mul_coeffs` reaches no product).

Conventions
-----------
* p is an odd prime everywhere.
* A local-field model of degree m has uniformizer x with v_p(x) = 1/m.
  Reported valuations are multiplied by the model's normalization factor
  ``e_norm`` so that they come out in v_K-units (v_K(pi_K) = 1 for the base
  field K of absolute ramification index e_norm).
* Elements of a model carry an absolute precision ``aprec`` counted in
  x-units: the element is known modulo x^aprec.  Exhausting precision yields
  a flagged :class:`LowerBound`, not a wrong answer.

All values are immutable after construction; operations are pure functions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress, count, repeat
from math import gcd

from .errors import (
    BaseMismatchError,
    InputError,
    NonUnitError,
    PrecisionError,
    UndecidableError,
)

Rat = Fraction


# Miller-Rabin to the prime bases up to 41 is exact below this limit
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


def is_odd_prime(p: int) -> bool:
    """Exact for p below MR_LIMIT; larger p raise InputError."""
    if p < 3 or p % 2 == 0:
        return False
    if p >= MR_LIMIT:
        raise InputError(f"primality is decided only below {MR_LIMIT}, got {p}")
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# odd_prime_factors trial-divides below this; what is left has no factor
# below it, so it is accepted only when it is prime.
_TRIAL_LIMIT = 1 << 16


def odd_prime_factors(g: int) -> list[int]:
    """The odd primes dividing g, ascending (none for g = 0).  Raises
    InputError when the cofactor left by trial division is composite or
    too large for is_odd_prime."""
    g = abs(g)
    while g and g % 2 == 0:
        g //= 2
    primes, q = [], 3
    while q * q <= g and q < _TRIAL_LIMIT:
        if g % q == 0:
            primes.append(q)
            while g % q == 0:
                g //= q
        q += 2
    if g > 1:
        if not is_odd_prime(g):
            raise InputError(
                f"cannot factor {g}: composite with no factor below {_TRIAL_LIMIT}"
            )
        primes.append(g)
    return primes


def vp_int(a: int, p: int) -> int | None:
    """p-adic valuation of an integer, None for 0."""
    if a == 0:
        return None
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def min_integer_strictly_above(p: int, q: Rat, shift: int = 0) -> int:
    """Least integer s with p**(s - shift) > q, decided by exact comparisons.

    Used to evaluate log_p thresholds without floating logarithms; boundary
    cases sitting exactly at a power of p are resolved strictly.
    """
    if q <= 0:
        raise InputError("threshold must be positive")
    s = shift
    if Fraction(1) > q:
        while Fraction(p) ** (s - 1 - shift) > q:
            s -= 1
        return s
    while Fraction(p) ** (s - shift) <= q:
        s += 1
    return s


@dataclass(frozen=True)
class LowerBound:
    """Flag for 'valuation is at least this much'; the exact value is unknown
    because every digit at the working precision vanished."""

    value: Rat

    def __repr__(self) -> str:
        return f"LowerBound({self.value})"


def power(x, k: int, mul, one):
    """x^k for k >= 0 by square-and-multiply, with the product ``mul`` and
    identity ``one``.  The running product starts at the lowest set bit's
    power of x, so ``one`` is returned only for k = 0 and is never a factor,
    x^1 is x itself, and the base is not squared past the top bit of k:
    bitlen(k) - 2 + popcount(k) products for k >= 1."""
    if k < 0:
        raise InputError(f"exponent must be >= 0, got {k}")
    if not k:
        return one
    while not k & 1:
        x = mul(x, x)
        k >>= 1
    out = x
    k >>= 1
    while k:
        x = mul(x, x)
        if k & 1:
            out = mul(out, x)
        k >>= 1
    return out


def mat_mul(A, B, dot):
    """Product of an (l x d) and a (d x m) matrix, a row vector being a
    1 x d matrix: entry (i, j) is ``dot(row i of A, column j of B)``.  The
    rows of the product are tuples."""
    cols = tuple(zip(*B))
    return tuple([tuple([dot(row, col) for col in cols]) for row in A])


# ---------------------------------------------------------------------------
# Dense polynomials over Z/q (q a prime power), coefficient lists by degree
# ---------------------------------------------------------------------------


def poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def poly_add(a: tuple[int, ...], b: tuple[int, ...], q: int) -> tuple[int, ...]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % q
    return poly_trim(tuple(out))


def poly_mod(c, q: int) -> tuple[int, ...]:
    """Coefficients reduced into [0, q), trailing zeros dropped."""
    return poly_trim([v % q for v in c])


# A product is packed when its operands have at least this many pairs of
# nonzero coefficients per coefficient, na*nb >= PACK_PAIRS_PER_COEFF *
# (len(a) + len(b)): the pair loop costs about one step per pair, the packed
# product about one per coefficient packed and read back.  Below the ratio
# the pair loop is faster (the crossover is measured in CHANGES.md).
PACK_PAIRS_PER_COEFF = 6


# MonicQuotient.pow packs a power modulo a binomial for exponents
# 3 <= k <= PACK_POW_MAX of operands a with na^2 >= PACK_POW_PAIRS_PER_COEFF
# * len(a), na the nonzero count: the packed power grows as k^2 slots, the
# square-and-multiply chain as log k products, and a sparse operand's
# products are cheap single-term or pair products (the crossover is measured
# in CHANGES.md).
PACK_POW_MAX = 3
PACK_POW_PAIRS_PER_COEFF = 3


def _nonzero(a) -> int:
    return len(a) - a.count(0)


def _packed_terms(a, b, na: int, nb: int) -> int:
    """min(na, nb) when a*b is packed, else 0, for the nonzero counts na of
    a and nb of b.  As na*nb >= k*(na + nb) needs na or nb >= 2k, for k the
    ratio, a product with neither operand of 2k coefficients never packs."""
    return min(na, nb) if na * nb >= PACK_PAIRS_PER_COEFF * (len(a) + len(b)) else 0


def _pack(c, bits: int) -> int:
    """The integer sum of c_i * 2^(bits*i), signed digits and all."""
    x = 0
    for v in reversed(c):
        x = (x << bits) + v
    return x


def _slot_bits(bound: int) -> int:
    """Whole bytes of slot that hold any integer of absolute value at most
    ``bound`` as a balanced digit, with one more bit for the sign."""
    return (bound.bit_length() + 8) & ~7


def _packed_product(a, b, terms: int) -> tuple[int, int]:
    """(x, bits): x = A*B for the packed operands, in slots of ``bits`` bits,
    whole bytes wide, that hold any coefficient of a*b as a balanced digit:
    each coefficient is a sum of at most ``terms`` products, and one more
    bit holds the sign.  A square (a is b) packs once."""
    top = max(map(abs, a))
    bits = _slot_bits(top * (top if a is b else max(map(abs, b))) * terms)
    x = _pack(a, bits)
    return x * (x if a is b else _pack(b, bits)), bits


def _unpack(x: int, bits: int, n: int) -> list[int]:
    """The n lowest balanced digits of x in base 2^bits (bits a multiple of
    8), each in [-2^(bits-1), 2^(bits-1)).  Adding 2^(bits-1) to every slot
    makes them plain digits, which one conversion to bytes reads off."""
    size, half = bits >> 3, 1 << (bits - 1)
    biased = x + int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")
    buf = (biased & ((1 << bits * n) - 1)).to_bytes(size * n, "little")
    return [
        int.from_bytes(buf[i : i + size], "little") - half
        for i in range(0, size * n, size)
    ]


def _fold_binomial(x: int, top: int, a0: int) -> int:
    """sum_j (-a0)^j H_j for the chunks H_0, H_1, ... of ``top`` bits of x,
    each read signed: a packed polynomial, in slots that fill ``top`` bits d
    at a time, reduced by x^d = -a0 in its packed form."""
    mask, sign = (1 << top) - 1, 1 << (top - 1)
    chunks = []
    while x:
        low = x & mask
        if low & sign:
            low -= 1 << top
        chunks.append(low)
        x = (x - low) >> top
    out = 0
    for h in reversed(chunks):
        out = out * -a0 + h
    return out


def _pair_product(a, b) -> list[int]:
    """a*b, untrimmed, by the loop over pairs of nonzero coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    terms = list(compress(enumerate(b), b))  # (k, b_k) for the nonzero b_k
    for i, va in enumerate(a):
        if va:
            for k, vb in terms:
                out[i + k] += va * vb
    return out


def poly_convolve(a, b, prec: int | None = None) -> list[int]:
    """Exact product of integer coefficient sequences, untrimmed; only the
    first ``prec`` coefficients when prec is given.  Dense operands (see
    PACK_PAIRS_PER_COEFF) are packed into one integer each and multiplied
    once (Kronecker substitution); sparse or short ones multiply only pairs
    of nonzero coefficients."""
    square = a is b
    if prec is not None:
        a = a[:prec]
        b = a if square else b[:prec]
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    if prec is not None:
        n = min(n, prec)
    long = 2 * PACK_PAIRS_PER_COEFF
    if len(a) >= long or len(b) >= long:
        na = _nonzero(a)
        terms = _packed_terms(a, b, na, na if square else _nonzero(b))
        if terms:
            return _unpack(*_packed_product(a, b, terms), n)
    out = _pair_product(a, b)
    return out if prec is None else out[:n]


def poly_mul(a: tuple[int, ...], b: tuple[int, ...], q: int) -> tuple[int, ...]:
    return poly_mod(poly_convolve(a, b), q)


def fp_series_inverse(a, p: int, prec: int) -> list[int]:
    """1/a mod (p, t^prec) for a power series a (coefficients by degree,
    read mod p, a_0 a unit), by the recurrence
    b_k = -b_0 * (a_1 b_(k-1) + ... + a_k b_0) mod p over the nonzero a_i
    alone."""
    inv0 = pow(a[0], -1, p)
    terms = [(i, v % p) for i, v in enumerate(a[1:prec], 1) if v % p]
    out = [inv0]
    for k in range(1, prec):
        acc = 0
        for i, v in terms:
            if i > k:
                break
            acc += v * out[k - i]
        out.append(-inv0 * acc % p)
    return out


def poly_divmod_monic(
    num, den: tuple[int, ...], q: int | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Division with remainder by a monic polynomial: exact mod q, or over
    the integers when q is None, by the loop of :class:`MonicQuotient`."""
    ring = MonicQuotient(den, q)
    rem = ring._divide(num)
    if q is not None:
        rem = [v % q for v in rem]
    return poly_trim(rem[ring.deg :]), poly_trim(rem[: ring.deg])


class MonicQuotient:
    """(Z/q)[x]/(g) for a monic polynomial g, or Z[x]/(g) when q is None.
    g is trimmed and checked to be monic (mod q) once, and its nonzero low
    terms (mod q) are listed once, so a reduction walks only those: one for
    a binomial x^m + a.  Results are remainders of degree < deg g, reduced
    mod q and trimmed; x^1 is x itself, as :func:`power` gives it."""

    def __init__(self, g, q: int | None = None):
        g = poly_trim(g)
        d = len(g) - 1
        if d < 0 or (g[d] if q is None else g[d] % q) != 1:
            raise InputError("divisor must be monic")
        self.g, self.q, self.deg = g, q, d
        # (k - d, a_k) for the nonzero a_k, k < d: eliminating degree i
        # subtracts c * a_k from degree i + (k - d)
        self.low_terms = [
            (k, v) for k, v in enumerate(g[:d], -d) if (v if q is None else v % q)
        ]
        # a_0 when g is the binomial x^d + a_0, else None
        self.binomial_a0 = (
            self.low_terms[0][1]
            if len(self.low_terms) == 1 and self.low_terms[0][0] == -d
            else None
        )

    def _divide(self, num) -> list:
        """Division by g on a copy of ``num``, reducing mod q only the
        coefficient being eliminated.  Each eliminated digit c stays in the
        slot it clears, so no quotient list is built: entries deg and up
        are the quotient, those below the remainder, neither yet reduced."""
        q, low = self.q, self.low_terms
        rem = list(num)
        for i in range(len(rem) - 1, self.deg - 1, -1):
            c = rem[i] if q is None else rem[i] % q
            if c:
                for k, v in low:
                    rem[i + k] -= c * v
        return rem

    def _out(self, rem) -> tuple[int, ...]:
        """A remainder list reduced mod q and trimmed."""
        return poly_trim(rem if self.q is None else [v % self.q for v in rem])

    def reduce(self, num) -> tuple[int, ...]:
        """The remainder of ``num`` modulo g (and q)."""
        return self._out(self._divide(num)[: self.deg])

    def mul(self, a, b) -> tuple[int, ...]:
        """a*b reduced.  An operand with at most one nonzero coefficient
        c*x^k gives a shifted, scaled copy of the other
        (:meth:`_term_product`); every other product is
        :func:`poly_convolve`, which chooses the pair loop or packing,
        followed by one reduction."""
        if _nonzero(a) <= 1:
            return self._term_product(a, b)
        if b is not a and _nonzero(b) <= 1:
            return self._term_product(b, a)
        return self.reduce(poly_convolve(a, b))

    def _term_product(self, t, b) -> tuple[int, ...]:
        """t*b reduced, for t with at most one nonzero coefficient c at
        degree k: c*b shifted up by k.  Its coefficients of degree d = deg g
        and up, if any, fold back through g's low terms.  Modulo a binomial
        g = x^d + a_0, with k < d and b of degree < d, that is one pass: b's
        top coefficients b_j, j >= d - k, land at degree j + k - d, times
        -a_0 c, and the others at j + k, times c."""
        k = next(compress(count(), t), None)
        if k is None:
            return ()
        c, d, a0 = t[k], self.deg, self.binomial_a0
        split = d - k
        if len(b) <= split:
            return self._out([0] * k + [c * v for v in b])
        if a0 is None or split <= 0 or len(b) > d:
            return self.reduce([0] * k + [c * v for v in b])
        # kept: both lift-deg12 bench calls measure 3-5% slower without this fold
        ca = -a0 * c
        return self._out(
            [ca * v for v in b[split:]]
            + [0] * (d - len(b))
            + [c * v for v in b[:split]]
        )

    def pow(self, a, k: int) -> tuple[int, ...]:
        """a^k reduced; x^1 is x itself, as :func:`power` gives it.  Modulo
        a binomial, a power of a of degree < d with 3 <= k <= PACK_POW_MAX
        and at least PACK_POW_PAIRS_PER_COEFF pairs of nonzero coefficients
        per coefficient of a is :meth:`_packed_pow`; every other is
        square-and-multiply by :meth:`mul` (a square is one product)."""
        if (
            self.binomial_a0 is None
            or not 3 <= k <= PACK_POW_MAX
            or len(a) > self.deg
            or _nonzero(a) ** 2 < PACK_POW_PAIRS_PER_COEFF * len(a)
        ):
            return power(a, k, self.mul, (1,))
        return self._packed_pow(a, k)

    def _packed_pow(self, a, k: int) -> tuple[int, ...]:
        """a^k modulo g = x^d + a_0, for k >= 1 and a of degree < d, from one
        big-integer power: a is packed once, in slots of B bits, and raised
        to the k-th power, which packs the k(len(a) - 1) + 1 coefficients of
        a^k over Z.  Cut into chunks H_0, H_1, ... of d slots each, read
        signed, x^d = -a_0 makes the remainder sum_j (-a_0)^j H_j, read back
        once.  A coefficient of a^k is a sum of at most n^(k - 1) products
        of k coefficients of a, n its nonzero count, so it is at most
        n^(k - 1) M^k, M = max |a_i|; at most k chunks (j <= k - 1, as
        len(a) <= d) add into one slot of the remainder, so the slots hold
        n^(k - 1) M^k (|a_0| + 1)^(k - 1) and the sign."""
        n = _nonzero(a)
        if not n:
            return ()
        d, a0 = self.deg, self.binomial_a0
        bits = _slot_bits(max(map(abs, a)) ** k * (n * (abs(a0) + 1)) ** (k - 1))
        x = _pack(a, bits) ** k
        return self._out(_unpack(_fold_binomial(x, bits * d, a0), bits, d))


def parse_poly(text: str) -> tuple[int, ...]:
    """Comma-separated integer coefficients, ascending degree ('3,1' is u+3)."""
    try:
        return tuple(int(t.strip()) for t in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad polynomial {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Eisenstein polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EisensteinPoly:
    """Monic integer polynomial, p | a_i for i < e and v_p(a_0) = 1."""

    p: int
    coeffs: tuple[int, ...]

    @property
    def e(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self) -> tuple[int, ...]:
        return poly_trim(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def power(self, r: int, q: int) -> tuple[int, ...]:
        """E(u)^r mod q; the base is reduced first, since E^1 is E itself."""
        return power(poly_mod(self.coeffs, q), r, lambda a, b: poly_mul(a, b, q), (1,))

    def is_uniformizer_binomial(self) -> bool:
        """True for the shapes u^e - p and u^e + p."""
        if self.coeffs[0] not in (self.p, -self.p):
            return False
        return all(c == 0 for c in self.coeffs[1:-1])


def eisenstein_validate(coeffs: tuple[int, ...], p: int) -> EisensteinPoly:
    if not is_odd_prime(p):
        raise InputError(f"p must be an odd prime, got {p}")
    coeffs = tuple(coeffs)
    if len(coeffs) < 2:
        raise InputError("degree must be >= 1")
    if coeffs[-1] != 1:
        raise InputError("polynomial must be monic")
    for i, c in enumerate(coeffs[:-1]):
        if c % p != 0:
            raise InputError(f"coefficient of degree {i} is a p-unit")
    if coeffs[0] == 0 or (coeffs[0] // p) % p == 0:
        raise InputError("constant term must have valuation exactly 1")
    return EisensteinPoly(p, coeffs)


# ---------------------------------------------------------------------------
# W_n[u]/E(u)^r with W_n = Z/p^n
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotRing:
    """(Z/p^n)[u]/E(u)^r; elements are coefficient tuples of degree < e*r."""

    p: int
    n: int
    E: EisensteinPoly
    r: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.r < 1:
            raise InputError("n and r must be >= 1")
        if self.E.p != self.p:
            raise BaseMismatchError("Eisenstein polynomial over a different prime")

    @cached_property
    def q(self) -> int:
        return self.p ** self.n

    @cached_property
    def quotient(self) -> MonicQuotient:
        return MonicQuotient(self.E.power(self.r, self.q), self.q)

    def reduce(self, coeffs: tuple[int, ...]) -> tuple[int, ...]:
        """Remainder modulo E^r and q."""
        return self.quotient.reduce(coeffs)

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return self.quotient.mul(a, b)

    def u_power(self, k: int) -> tuple[int, ...]:
        return self.reduce((0,) * k + (1,))


# ---------------------------------------------------------------------------
# Local field models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalFieldModel:
    """Totally ramified extension of Q_p presented as Z_p[x]/g(x) with g
    Eisenstein of degree m, worked at a fixed p-adic digit cap.

    ``e_norm`` converts internal v_p-values into the report normalization
    v_K = e_norm * v_p, so v_K(x) = e_norm/m.
    """

    g: EisensteinPoly
    prec: int
    e_norm: int = 1

    def __post_init__(self) -> None:
        if self.prec < 1:
            raise InputError("model precision must be >= 1")
        if self.e_norm < 1:
            raise InputError("normalization factor must be >= 1")

    @property
    def p(self) -> int:
        return self.g.p

    @cached_property
    def m(self) -> int:
        return len(self.g.coeffs) - 1

    @cached_property
    def q(self) -> int:
        return self.p ** self.prec

    @cached_property
    def p_exponents(self) -> dict[int, int]:
        """{p^k: k} for 0 <= k <= prec: the divisors of q and their exponents."""
        return {self.p ** k: k for k in range(self.prec + 1)}

    @cached_property
    def g0_unit_inverse(self) -> int:
        """(g_0 / p)^-1 mod q, for exact division by the uniformizer."""
        return pow((self.g.coeffs[0] // self.p) % self.q, -1, self.q)

    @cached_property
    def quotient(self) -> MonicQuotient:
        """(Z/q)[x]/g, where the coefficient vectors are reduced."""
        return MonicQuotient(self.g.coeffs, self.q)

    @property
    def full_aprec(self) -> int:
        return self.m * self.prec

    def zero(self) -> "LocalElement":
        return LocalElement(self, (0,) * self.m, self.full_aprec)

    def one(self) -> "LocalElement":
        return self._one

    @cached_property
    def _one(self) -> "LocalElement":
        return self.from_int(1)

    def from_int(self, c: int) -> "LocalElement":
        return self.from_coeffs((c,))

    def mul_coeffs(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """The m coefficients of the product of two elements, from their m
        coefficients each, reduced mod q.  A factor with the coefficients of
        1 gives the other factor's coefficients, reaching no product."""
        one = self.one().coeffs
        if a == one:
            return b
        if b == one:
            return a
        rem = self.quotient.mul(a, b)
        return rem + (0,) * (self.m - len(rem))

    def from_coeffs(self, coeffs: tuple[int, ...]) -> "LocalElement":
        if len(coeffs) > self.m:
            coeffs = self.quotient.reduce(coeffs)
        vec = [c % self.q for c in coeffs] + [0] * (self.m - len(coeffs))
        return LocalElement(self, tuple(vec), self.full_aprec)

    def uniformizer_pow(self, k: int) -> "LocalElement":
        if k < 0:
            raise InputError("negative uniformizer power is not integral")
        return self.from_coeffs((0,) * k + (1,))

    def with_prec(self, prec: int) -> "LocalFieldModel":
        return LocalFieldModel(self.g, prec, self.e_norm)

    # -- graded-ideal levels -------------------------------------------------

    def coeff_cutoffs(self, level: Rat) -> tuple[int, ...]:
        """Per-coefficient digit counts k_j describing a^{>level}: an element
        lies in the ideal iff p^{k_j} divides coefficient j for all j.  They
        depend only on the model and the level, so each level's are computed
        once per model."""
        cuts = self._cutoffs.get(level)
        if cuts is None:
            cuts = self._cutoffs[level] = self._level_cutoffs(level)
        return cuts

    @cached_property
    def _cutoffs(self) -> dict:
        return {}

    def _level_cutoffs(self, level: Rat) -> tuple[int, ...]:
        m = self.m
        # k_j = max(0, floor(level/e_norm - j/m) + 1), over one denominator
        lv = Fraction(level)
        step = lv.denominator * self.e_norm
        top, den = lv.numerator * m, step * m
        return tuple(max(0, (top - j * step) // den + 1) for j in range(m))


@dataclass(frozen=True)
class LocalElement:
    """Element of a local-field model: coefficient vector over Z/p^prec plus
    an absolute precision in x-units (known modulo x^aprec)."""

    model: LocalFieldModel
    coeffs: tuple[int, ...]
    aprec: int

    def _check(self, other: "LocalElement") -> None:
        if self.model is not other.model and self.model != other.model:
            raise BaseMismatchError("elements of different local-field models")

    # -- valuation ---------------------------------------------------------

    def xval(self) -> int | None:
        """Exact valuation in x-units, or None when zero at precision: the
        least term m * v_p(a_j) + j below aprec, over the coefficients that
        are nonzero mod q.  The least v_p(a_j), capped at prec, is v_p of
        gcd(q, a_0, ..., a_{m-1}) = p^v; as j < m, the least term is m * v + j
        for the first j with p^(v+1) not dividing a_j, and no term is below
        aprec when that one is not.  The element is immutable, so this runs
        once per element: the value is kept in the instance dict, without
        the lock that ``functools.cached_property`` takes on a first read
        before Python 3.12."""
        known = self.__dict__
        if "_xval" in known:
            return known["_xval"]
        model = self.model
        g = gcd(model.q, *self.coeffs)
        v = model.p_exponents[g]
        t = None
        if v < model.prec:
            j = next(compress(count(), map(operator.mod, self.coeffs, repeat(g * model.p))))
            t = model.m * v + j
            if t >= self.aprec:
                t = None
        known["_xval"] = t
        return t

    def valuation(self) -> Rat | LowerBound:
        """v_K-valuation; LowerBound(e_norm * aprec / m) when zero at precision."""
        xv = self.xval()
        scale = Fraction(self.model.e_norm, self.model.m)
        if xv is None:
            return LowerBound(scale * self.aprec)
        return scale * xv

    def is_zero_at_prec(self) -> bool:
        return self.xval() is None

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LocalElement") -> "LocalElement":
        self._check(other)
        q = self.model.q
        vec = tuple([(a + b) % q for a, b in zip(self.coeffs, other.coeffs)])
        return LocalElement(self.model, vec, min(self.aprec, other.aprec))

    def __sub__(self, other: "LocalElement") -> "LocalElement":
        self._check(other)
        q = self.model.q
        vec = tuple([(a - b) % q for a, b in zip(self.coeffs, other.coeffs)])
        return LocalElement(self.model, vec, min(self.aprec, other.aprec))

    def __neg__(self) -> "LocalElement":
        q = self.model.q
        return LocalElement(self.model, tuple([-a % q for a in self.coeffs]), self.aprec)

    def __mul__(self, other: "LocalElement") -> "LocalElement":
        self._check(other)
        model = self.model
        # aprec is min(self.aprec + v(other), other.aprec + v(self), full),
        # a factor's aprec standing in for its valuation when it is zero at
        # precision; each term is at least its own factor's aprec, so the
        # other factor's valuation is needed only when that aprec is below full
        aprec = full = model.full_aprec
        vec = model.mul_coeffs(self.coeffs, other.coeffs)
        if self.aprec < full:
            vb = other.xval()
            aprec = min(aprec, self.aprec + (other.aprec if vb is None else vb))
        if other.aprec < full:
            va = self.xval()
            aprec = min(aprec, other.aprec + (self.aprec if va is None else va))
        return LocalElement(model, vec, aprec)

    def mul_int(self, c: int) -> "LocalElement":
        q = self.model.q
        return LocalElement(self.model, tuple((c * a) % q for a in self.coeffs), self.aprec)

    def pow(self, k: int) -> "LocalElement":
        """self^k, with the coefficients of :meth:`MonicQuotient.pow` and the
        aprec min(F, a + (k - 1) v), F full precision, a = self.aprec and v
        the xval, or a when self is zero at precision.  That is the aprec of
        every square-and-multiply chain of :meth:`__mul__`: by induction, a
        chain's x^i has aprec A_i = min(F, a + (i - 1) v) and valuation
        V_i = min(i v, A_i) (xval, or aprec when zero at precision).  For
        a = F, every product is of two full factors, so A_i = F.  For a < F,
        the representative of x^i has valuation i * v(rep x), which is i v
        below A_i exactly when v is an xval (else it is at least i a >= A_i);
        and the product of x^i and x^j has aprec
        min(F, A_i + V_j [A_i < F], A_j + V_i [A_j < F]).  When A_i, A_j < F,
        V_j = j v (v <= a), so A_i + V_j = a + (i + j - 1) v, and the same for
        the other term.  When A_i = F > A_j, the only term is
        A_j + min(i v, F), which is a + (i + j - 1) v, or at least F when
        i v > F, as is a + (i + j - 1) v >= (i + j) v.  When both are F,
        a + (i + j - 1) v >= a + (i - 1) v >= F.  In each case
        A_(i+j) = min(F, a + (i + j - 1) v)."""
        if k < 2:
            return power(self, k, operator.mul, self.model.one())
        model = self.model
        rem = model.quotient.pow(self.coeffs, k)
        aprec = full = model.full_aprec
        if self.aprec < full:
            v = self.xval()
            aprec = min(full, self.aprec + (k - 1) * (self.aprec if v is None else v))
        return LocalElement(model, rem + (0,) * (model.m - len(rem)), aprec)

    __pow__ = pow

    # -- division ----------------------------------------------------------

    def shift_down(self, k: int = 1) -> "LocalElement":
        """Exact division by x^k; requires x^k | self.  With precision left,
        x divides an element exactly when p divides its coefficient z_0, and
        the quotient is known to one x-unit less: adding w g = 0, with
        w = -(z_0/p)(g_0/p)^-1, clears z_0 mod q, and the quotient's
        coefficients are z_j + w a_j, 1 <= j < m, then w.  The k divisions
        share one growing list, division i reading its dividend from index
        i, and give the coefficients mod q, precision and refusals (no
        precision left before not divisible) of k single divisions."""
        if not k:
            return self
        model = self.model
        q, p, m, u = model.q, model.p, model.m, model.g0_unit_inverse
        low = [(t + m, v) for t, v in model.quotient.low_terms if t > -m]
        vec = list(self.coeffs)
        for i in range(k):
            if self.aprec - i < 1:
                raise PrecisionError("no precision left for division")
            z0 = vec[i] % q
            if z0 % p:
                raise PrecisionError("element is not divisible by the uniformizer")
            w = -(z0 // p) * u % q
            vec.append(w)
            for j, v in low:
                vec[i + j] += w * v
        return LocalElement(model, tuple([v % q for v in vec[k:]]), self.aprec - k)

    def unit_inverse(self) -> "LocalElement":
        """Inverse of a unit (valuation 0), by a mod-p power series then
        Newton."""
        xv = self.xval()
        if xv is None or xv != 0:
            raise NonUnitError("not a unit at this precision")
        # g is Eisenstein, so g = x^m mod p and the seed is the power-series
        # inverse mod (p, x^m)
        inv = fp_series_inverse(self.coeffs, self.model.p, self.model.m)
        v = LocalElement(self.model, tuple(inv), self.aprec)
        two = self.model.from_int(2)
        digits = 1
        while digits < self.model.prec:
            v = v * (two - self * v)
            digits *= 2
        v = LocalElement(self.model, v.coeffs, self.aprec)
        if not (self * v - self.model.one()).is_zero_at_prec():
            raise NonUnitError("inverse verification failed")
        return v

    def divisor(self) -> tuple[int, "LocalElement"]:
        """The divisor half of :meth:`div`: ``(k, u^-1)`` for self = x^k * u
        with u a unit, so that dividing many numerators by one element
        inverts it once."""
        k = self.xval()
        if k is None:
            raise PrecisionError("division by an element that is zero at precision")
        return k, self.shift_down(k).unit_inverse()

    def div_by(self, k: int, inv: "LocalElement") -> "LocalElement":
        """The numerator half of :meth:`div`: self / (x^k * u), given
        ``(k, u^-1)`` from the divisor's :meth:`divisor`, as
        ``shift_down(k) * inv``, so it is known to x^(aprec - k) at most.  A
        numerator that is zero at precision gives zero known to
        x^(aprec - k); one of valuation below k raises PrecisionError."""
        if self.is_zero_at_prec():
            return LocalElement(self.model, (0,) * self.model.m, max(self.aprec - k, 0))
        return self.shift_down(k) * inv

    def div(self, other: "LocalElement") -> "LocalElement":
        """Exact division; the divisor's valuation must not exceed ours.
        It is ``other.divisor()`` followed by :meth:`div_by`; a caller that
        divides many numerators by one element keeps ``divisor()`` and calls
        ``div_by`` itself, so every division runs through these two halves."""
        self._check(other)
        return self.div_by(*other.divisor())

    # -- truncation to graded-ideal levels ----------------------------------

    def truncate_to_level(self, level: Rat) -> tuple[int, ...]:
        """Canonical representative of the class mod a^{>level}: coefficient j
        reduced mod p^{k_j}.  Raises when the level is not resolvable at the
        current precision."""
        cuts = self.model.coeff_cutoffs(level)
        m = self.model.m
        for j, k in enumerate(cuts):
            if k > 0 and m * (k - 1) + j >= self.aprec:
                raise UndecidableError(
                    f"level {level} needs digit {k} of coefficient {j}, precision exhausted"
                )
        p = self.model.p
        return tuple(a % (p ** k) for a, k in zip(self.coeffs, cuts))
