"""Truncated Witt vectors over pluggable coefficient rings.

The ring structure on length-n Witt vectors W_n(A) is given by universal
integer polynomials.  One solver of the ghost equations
w_m = sum_{i<=m} p^i z_i^(p^(m-i)) serves two uses:

* :func:`universal_polys` solves them over Q on packed integer polynomials
  and checks that every coefficient is an integer.  Their product is a
  Kronecker substitution along one variable, chosen per product: X_0 after
  the change of coordinates (x0, y0) -> (x0, x0 + y0), or X_1 after
  (x1, x0) -> (x1, x0 + p x1).  The terms fall into runs of that variable's
  exponent, each run one signed big integer with slots of S bits, S sized
  per product from the operands, and the axis with fewer pairs of runs is
  taken.  The sum polynomials have long runs along X_0.  The product
  polynomials P_m are bihomogeneous (X-weight and Y-weight p^m each), so
  along X_0 every run is one term, and along X_1 the runs are long.  Y_0's
  field must hold the largest x0 + y0 of the product, or the product
  raises; X_1 is taken only when X_0's field holds the largest x0 + p x1.
  Their power splits off the free terms, those whose variables no other
  term has, and expands by the multinomial theorem: every sum polynomial
  is S_m = X_m + Y_m + C_m with neither X_m nor Y_m in C_m, so S_m^k takes
  products only for C_m^2 .. C_m^k;
* :func:`witt_add`, :func:`witt_mul` and :func:`int_to_witt` solve them on
  concrete values in an exact companion ring Z[x]/g, on integer coefficient
  tuples.  Every division by a power of p there is exact because the
  universal polynomials have integer coefficients, and the answer does not
  depend on the chosen lifts because integer polynomials respect
  congruences.

For a sum or product, w_0 is the identity, so component 0 is computed in A
by A's own ``+`` or ``*`` (for local-field elements that is mod q = p^M,
reduced by g) and kept: it is never lifted and lowered again, and ``lower``
only sets its precision.  The ghost solve starts at component 1 from the
lift of that z_0, which is taken only when there is a component from 1 on
to solve.  The lift is congruent mod q to the companion
value that solving w_0 would give, and a = b (mod q) implies
a^(p^k) = b^(p^k) (mod p^k q).  By induction on m, each numerator
G_m - sum_{i<m} p^i z_i^(p^(m-i)) then changes by a multiple of p^m q, so
the division by p^m is exact exactly when it was before (the
``IntegralityError`` checks stay) and z_m changes by a multiple of q:
every z_m mod q is unchanged.  The precision of every output component,
component 0 included, is the one ``lower`` gives: the least over all input
components and full precision.

A coefficient ring A plugs in through an adapter, a
:class:`CoefficientRing`, that supplies ``g``, ``from_int(c)`` (the image of
the integer c in A), ``lift(a)`` (a representative of a in Z[x]/g) and
``lower(z0, zs, inputs)`` (component 0 as an element of A and the companion
values of the components from 1 on, mapped into A with the precision of the
input components).  The rest of the A side is Python's operator protocol on
A's elements: ``+``, ``-``, ``*`` and ``**``.  The adapter builds its
companion ring, the :class:`ramibound.padic.MonicQuotient` Z[x]/g of ``g``,
and the ghost solver's operations in it once, on first use.
There are two adapters.  :class:`ZZRing` (exact integers, which the exact
ghost identities need) has g = x, so its companion ring is Z.
:class:`LocalRing` serves every truncated p-adic ring: the elements of a
local-field model, with the model's Eisenstein g, and an A side that is
LocalElement's arithmetic, which tracks the absolute precision.  Z/p^M is
the degree-1 model Z_p[x]/(x + p) at M digits: its elements are 1-tuples
mod p^M, and its companion ring Z[x]/(x + p) multiplies them as Z does.

Also here: the Teichmueller scaling formula, the componentwise p-power map
(not a ring homomorphism away from characteristic p), graded-ideal
membership, and the ultrametric solver for component valuations of
vanishing-ghost systems.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import zip_longest
from math import comb

from .errors import (
    IntegralityError,
    InputError,
    UndecidableError,
    ValuationTieError,
)
from .padic import (
    LocalElement,
    LocalFieldModel,
    LowerBound,
    MonicQuotient,
    Rat,
    is_odd_prime,
    poly_trim,
    power,
)

# ---------------------------------------------------------------------------
# Integer polynomials in packed-exponent representation
# ---------------------------------------------------------------------------
# A polynomial in the 2n variables X_0..X_{n-1}, Y_0..Y_{n-1} is a dict
# {key: coeff} where key packs the exponent vector in base 2**bits, variable
# i (X_i, then Y_i at n+i) in field i.  Monomial product is then integer
# addition of keys.
#
# The product works by Kronecker substitution along one variable, its axis.
# An axis (v, u, c) is a change of coordinates: the exponent e_v of
# variable v leaves its field and c * e_v is added into the field of u.  The
# terms that share the rewritten key form one run of e_v values and are
# packed into one signed integer sum coeff * 2^(S*e_v).  One big-integer
# product per pair of runs does the work of the whole run-by-run
# convolution, and balanced digits of width S read the coefficients back.
# The slot width S is the bit length of max|a| * max|b| * min(len a, len b),
# which bounds every coefficient of the product, plus one bit for the sign.
#
# Every polynomial of the ghost solve is weighted-homogeneous (X_i and Y_i
# of weight p^i), so the axis (X_0, Y_0, 1) gives long runs for the sums
# and the ghost components: once the other exponents are fixed, x0 + y0 is
# fixed while x0 still runs.  The product polynomial P_m is bihomogeneous,
# of X-weight and of Y-weight p^m each: fixing every exponent but x0 and y0
# fixes x0 and y0 apart, so along X_0 each of its runs is one term.  Along
# (X_1, X_0, p) the X-weight x0 + p x1 + ... is fixed while x1 runs, and
# the runs are long again.  Each product takes, of the axes whose rewritten
# field holds the product's largest e_u + c e_v, the one with the fewest
# pairs of runs (runs of a times runs of b), counted on the rewritten keys
# alone; a tie goes to X_0.  X_0's field Y_0 must hold the largest x0 + y0
# of the product, or the product raises, whatever the other axis: in
# :func:`universal_polys` it does, since x0 + y0 <= 2 p^(n-1) < 2**bits.
#
# The power a^k multiplies only part of a.  A term of a is free when it is
# not constant and no other term has any of its variables.  With t_1..t_r
# the free terms (t_i = c_i times the monomial of key k_i) and C the rest,
#   a^k = sum over a_1 + .. + a_r + c = k of
#         k!/(a_1! .. a_r! c!) c_1^a_1 .. c_r^a_r (key sum a_i k_i) C^c.
# Blocks never share a key: in a key of block (a_1, .., a_r), the fields of
# t_i's variables hold a_i times t_i's exponents, as neither C nor another
# t_j has those variables, so the key gives back every a_i, and c with
# them.  So each block is written into the result without adding, its keys
# the bitwise or of two disjoint sets of fields, and only C^2 .. C^k take
# products, C^c from C^(c-1) once the blocks of C^(c-1) are written.  Each
# field must hold k times the exponents of the free terms, or the power
# raises.  By the ghost equation p^m S_m = G_m - sum_{i<m} p^i
# S_i^(p^(m-i)), X_m and Y_m occur in S_m only in the terms X_m and Y_m,
# which G_m gives, so S_m^k takes k - 1 products of powers of C_m where
# square-and-multiply takes up to 2 log2(k) of powers of S_m.  A monomial
# is all free and its power takes none.  The product polynomials P_m,
# m >= 1, have no free term and are raised by square-and-multiply.


def _kronecker_axis(a: dict, b: dict, bits: int, n: int, p: int) -> tuple:
    """((v, u, c), pairs): the axis that packs the product of a and b into
    the fewest pairs of runs, and that number of pairs; see above.  The
    axes are (X_0, Y_0, 1) and, for n >= 2, (X_1, X_0, p).  X_0's overflow
    raises; the other axis is passed over when it would overflow."""
    mask = (1 << bits) - 1

    def top(v: int, u: int, c: int) -> int:
        sv, su = bits * v, bits * u
        return sum(
            max(((k >> su) & mask) + c * ((k >> sv) & mask) for k in f) for f in (a, b)
        )

    x0_y0 = top(0, n, 1)
    if x0_y0 >= 1 << bits:
        raise InputError(
            f"product exponent x0 + y0 = {x0_y0} overflows a {bits}-bit field"
        )
    best = None
    for v, u, c in ((0, n, 1), (1, 0, p))[: min(n, 2)]:
        sv = bits * v
        delta = (c << (bits * u)) - (1 << sv)
        pairs = 1
        for f in (a, b):
            pairs *= len({k + ((k >> sv) & mask) * delta for k in f})
        if best is None or pairs < best[1] and top(v, u, c) < 1 << bits:
            best = (v, u, c), pairs
    return best


def _kronecker_pack(a: dict, bits: int, v: int, delta: int, width: int) -> dict:
    """The runs {rewritten key: packed integer} of ``a`` along variable v,
    whose key moves by ``delta`` per unit of e_v."""
    mask = (1 << bits) - 1
    sv = bits * v
    runs: dict = {}
    get = runs.get
    for k, c in a.items():
        e = (k >> sv) & mask
        r = k + e * delta
        runs[r] = get(r, 0) + (c << (width * e))
    return runs


def _pmul(a: dict, b: dict, bits: int, n: int, p: int) -> dict:
    """Product of two packed polynomials in 2n variables; see above.

    The axis (X_1, X_0, p) is taken only when X_0's field holds the largest
    x0 + p x1 of each factor, added.  In :func:`universal_polys` it always
    does.  That sum is the largest x0 + p x1 of the product, since the
    leading forms of a linear weight multiply without cancelling over Z, and
    x0 + p x1 is at most the X-weight of a term (X_i of weight p^i).  Every
    product there, of powers of ghost components and of solved polynomials
    or of G_m(X) by G_m(Y), has X-weight at most p^(n-1) < 2**bits."""
    if not a or not b:
        return {}
    (v, u, c), _ = _kronecker_axis(a, b, bits, n, p)
    delta = (c << (bits * u)) - (1 << (bits * v))
    bound = max(map(abs, a.values())) * max(map(abs, b.values()))
    width = (bound * min(len(a), len(b))).bit_length() + 1
    ra = _kronecker_pack(a, bits, v, delta, width)
    rb = _kronecker_pack(b, bits, v, delta, width)
    acc: dict = {}
    get = acc.get
    for ka, va in ra.items():
        for kb, vb in rb.items():
            k = ka + kb
            acc[k] = get(k, 0) + va * vb
    out = {}
    step = -delta  # e_v -> e_v + 1 with e_u + c e_v fixed
    full = 1 << width
    half = full >> 1
    low = full - 1
    for r, val in acc.items():
        key = r
        while val:
            d = val & low
            if not d:  # skip the run of empty slots at once
                z = ((val & -val).bit_length() - 1) // width
                val >>= width * z
                key += step * z
                continue
            if d >= half:
                d -= full
            out[key] = d
            val = (val - d) >> width
            key += step
    return out


def _padd(a: dict, b: dict, c: int = 1) -> dict:
    """a + c*b for a nonzero integer c, as a new dict (the inputs are not
    changed); terms that cancel are dropped.  The larger operand is copied
    and the smaller one walked."""
    if len(a) >= len(b):
        out, walk, f = dict(a), b, c
    else:
        out, walk, f = {k: c * v for k, v in b.items()}, a, 1
    get = out.get
    for k, v in walk.items():
        s = get(k, 0) + f * v
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def _pdiv_exact(a: dict, c: int) -> dict:
    out = {}
    for k, v in a.items():
        if v % c:
            raise IntegralityError("universal polynomial coefficient not divisible")
        out[k] = v // c
    return out


def _var(idx: int, bits: int, exp: int = 1) -> dict:
    return {exp << (bits * idx): 1}


def _free_terms(a: dict, bits: int) -> dict:
    """{key: coeff} of the non-constant terms of ``a`` whose variables occur
    in no other term.  Each term's support is a bit mask with bit i set when
    field i is nonzero; a variable is shared once two supports have it."""
    mask = (1 << bits) - 1
    supports = []
    once = twice = 0
    for k in a:
        s, bit = 0, 1
        while k:
            if k & mask:
                s |= bit
            k >>= bits
            bit <<= 1
        twice |= once & s
        once |= s
        supports.append(s)
    return {k: c for (k, c), s in zip(a.items(), supports) if s and not s & twice}


def _free_power(terms: list, j: int) -> dict:
    """(t_1 + ... + t_r)^j for monomials (key, coeff) in pairwise disjoint
    variables: the term of exponents a_1 + ... + a_r = j is
    j!/(a_1! ... a_r!) prod c_i^a_i at key sum a_i k_i, and no two share a
    key, as each a_i is read off the fields of t_i's variables."""
    parts = [(j, 0, 1)]  # (degree left, key, coefficient)
    for k, c in terms[:-1]:
        parts = [
            (left - e, key + e * k, coef * comb(left, e) * c ** e)
            for left, key, coef in parts
            for e in range(left + 1)
        ]
    k, c = terms[-1]
    return {key + left * k: coef * c ** left for left, key, coef in parts}


def _ppow(a: dict, k: int, mul, bits: int) -> dict:
    """a^k on packed polynomials with ``bits``-bit fields, with the product
    ``mul``.  The free terms F of a (:func:`_free_terms`) are split off the
    rest C, and a^k = sum_c binom(k, c) F^(k-c) C^c; see above.  Only the
    powers C^2 .. C^k take products, one each, and each is dropped once its
    blocks are written.  With no free term, or k < 2, it is
    :func:`ramibound.padic.power`."""
    free = _free_terms(a, bits) if k > 1 else None
    if not free:
        return power(a, k, mul, {0: 1})
    mask = (1 << bits) - 1
    top = k * max((f >> s) & mask for f in free for s in range(0, f.bit_length(), bits))
    if top > mask:
        raise InputError(f"power exponent {top} overflows a {bits}-bit field")
    terms = list(free.items())
    rest = {key: v for key, v in a.items() if key not in free}
    if not rest:
        return _free_power(terms, k)
    out: dict = {}
    cpow = {0: 1}
    for c in range(k):
        if c:
            cpow = rest if c == 1 else mul(cpow, rest)
        scale = comb(k, c)
        for f, fc in _free_power(terms, k - c).items():
            m = scale * fc
            out.update(zip([f | g for g in cpow], [m * v for v in cpow.values()]))
    cpow = mul(cpow, rest)  # the block of C^k is C^k itself
    out.update(cpow)
    return out


# ---------------------------------------------------------------------------
# Ghost components and the ghost equations, in any commutative ring
# ---------------------------------------------------------------------------


def _ghost(xs: list, m: int, p: int, ops: tuple):
    """Ghost component w_m = sum_{i<=m} p^i x_i^(p^(m-i)) in the ring whose
    (power, scaled sum a + c*b, exact division) are ``ops``."""
    pow_, add_scaled, _ = ops
    acc = pow_(xs[0], p ** m)
    for i in range(1, m + 1):
        acc = add_scaled(acc, pow_(xs[i], p ** (m - i)), p ** i)
    return acc


def _solve_ghosts(ghosts: list, p: int, ops: tuple, known=()) -> list:
    """Components z_k..z_{n-1} with ghost components G_k..G_{n-1}, given the
    components z_0..z_{k-1} in ``known`` (k = 0 by default):
    z_m = (G_m - sum_{i<m} p^i z_i^(p^(m-i))) / p^m, each division exact;
    z_0 is G_0 itself."""
    pow_, add_scaled, div_exact = ops
    zs: list = list(known)
    for m, acc in enumerate(ghosts, len(zs)):
        for i, z in enumerate(zs):
            acc = add_scaled(acc, pow_(z, p ** (m - i)), -(p ** i))
        zs.append(div_exact(acc, p ** m) if m else acc)
    return zs[len(known):]


def _packed_ops(mul, bits: int) -> tuple:
    """(power, scaled sum, exact division) on packed polynomials with
    ``bits``-bit fields, with the product ``mul``; the power is
    :func:`_ppow`."""
    return partial(_ppow, mul=mul, bits=bits), _padd, _pdiv_exact


@dataclass(frozen=True)
class WittUniversalPolys:
    """Addition polynomials S_0..S_{n-1} and multiplication polynomials
    P_0..P_{n-1} in the 2n variables X_0..X_{n-1}, Y_0..Y_{n-1}, with exact
    integer coefficients.  Variable i is X_i, variable n+i is Y_i."""

    p: int
    n: int
    bits: int
    sums: tuple
    prods: tuple

    def exponent_dict(self, poly: dict) -> dict[tuple[int, ...], int]:
        """{exponent vector: coefficient}, in the order of ``poly``; each
        exponent is read for all keys at once, one column per variable."""
        mask = (1 << self.bits) - 1
        keys = list(poly)
        cols = [[k >> (self.bits * i) & mask for k in keys] for i in range(2 * self.n)]
        return dict(zip(zip(*cols), poly.values()))


def _solve_universal(p: int, n: int, bits: int, mul, ops: tuple) -> tuple[tuple, tuple]:
    """Sum and product polynomials from the ghost equations over Q, with the
    packed product ``mul`` and the ghost solver's ``ops``; every division is
    checked to be exact."""
    xs = [_var(i, bits) for i in range(n)]
    ys = [_var(n + i, bits) for i in range(n)]
    gx = [_ghost(xs, m, p, ops) for m in range(n)]
    gy = [_ghost(ys, m, p, ops) for m in range(n)]
    sums = _solve_ghosts([_padd(a, b) for a, b in zip(gx, gy)], p, ops)
    prods = _solve_ghosts([mul(a, b) for a, b in zip(gx, gy)], p, ops)
    return tuple(sums), tuple(prods)


@lru_cache(maxsize=None)
def universal_polys(p: int, n: int) -> WittUniversalPolys:
    """Solve the ghost equations over Q for ring structure polynomials and
    check that every coefficient is an integer."""
    if not is_odd_prime(p):
        raise InputError(f"p must be an odd prime, got {p}")
    if n < 1:
        raise InputError("length must be >= 1")
    bits = max(2, (p ** (n - 1)).bit_length() + 1)
    mul = partial(_pmul, bits=bits, n=n, p=p)
    sums, prods = _solve_universal(p, n, bits, mul, _packed_ops(mul, bits))
    return WittUniversalPolys(p, n, bits, sums, prods)


def ghost_identity_holds_symbolically(p: int, n: int) -> bool:
    """Check ghost_m(S(X,Y)) = ghost_m(X) + ghost_m(Y) (and the product
    analogue) as polynomial identities over Z."""
    up = universal_polys(p, n)
    mul = partial(_pmul, bits=up.bits, n=n, p=p)
    ops = _packed_ops(mul, up.bits)
    xs = [_var(i, up.bits) for i in range(n)]
    ys = [_var(n + i, up.bits) for i in range(n)]
    for m in range(n):
        gx = _ghost(xs, m, p, ops)
        gy = _ghost(ys, m, p, ops)
        if _ghost(up.sums, m, p, ops) != _padd(gx, gy):
            return False
        if _ghost(up.prods, m, p, ops) != mul(gx, gy):
            return False
    return True


# ---------------------------------------------------------------------------
# The companion ring Z[x]/g
# ---------------------------------------------------------------------------
# Elements of Z[x]/g, for a monic integer polynomial g, are integer coefficient
# tuples of degree < deg g; trailing zeros may be dropped.  Z is Z[x]/(x).
# The ring is padic's MonicQuotient with q = None; here are the ghost
# solver's scaled sum and exact division on its elements.


def companion_add(x: tuple, y: tuple, c: int = 1) -> tuple:
    """x + c*y as a new tuple."""
    return tuple(a + c * b for a, b in zip_longest(x, y, fillvalue=0))


def companion_div_exact(x: tuple, q: int) -> tuple:
    out = []
    for c in x:
        if c % q:
            raise IntegralityError("ghost solve division not exact")
        out.append(c // q)
    return tuple(out)


# ---------------------------------------------------------------------------
# Coefficient-ring adapters: g, from_int, lift and lower
# ---------------------------------------------------------------------------


class CoefficientRing:
    """Base of the adapters.  An adapter supplies ``g``, ``from_int``,
    ``lift`` and ``lower``, and A's elements supply ``+``, ``-``, ``*`` and
    ``**``; the companion ring Z[x]/g and the ghost solver's operations in
    it are derived from ``g`` here, once per adapter."""

    @cached_property
    def companion(self) -> MonicQuotient:
        return MonicQuotient(self.g)

    @cached_property
    def ops(self) -> tuple:
        """(power, scaled sum, exact division) of the ghost solver in the
        companion ring."""
        return self.companion.pow, companion_add, companion_div_exact


class ZZRing(CoefficientRing):
    """Exact integers; the companion ring is Z[x]/(x) = Z."""

    g = (0, 1)

    def from_int(self, c: int):
        return c

    def lift(self, a):
        return (a,)

    def lower(self, z0, zs, inputs) -> tuple:
        return (z0,) + tuple(z[0] if z else 0 for z in zs)


class LocalRing(CoefficientRing):
    """Elements of a local-field model; the companion ring is Z[x]/g(x) for
    the model's Eisenstein g.  The A side is LocalElement's arithmetic, which
    tracks the absolute precision ``aprec``."""

    def __init__(self, model: LocalFieldModel):
        self.model = model
        self.g = model.g.coeffs

    def from_int(self, c: int):
        return self.model.from_int(c)

    def lift(self, a: LocalElement):
        return poly_trim(a.coeffs)

    def lower(self, z0: LocalElement, zs, inputs) -> tuple:
        """z0 and the companion values zs, each of degree < m, as elements
        known to the least precision of the inputs.  z0 is already an element
        with reduced coefficients, so only its precision is set."""
        model = self.model
        aprec = min([e.aprec for e in inputs] + [model.full_aprec])
        m, q = model.m, model.q
        out = [z0 if z0.aprec == aprec else LocalElement(model, z0.coeffs, aprec)]
        for z in zs:
            # from a list: short tuples of every length would be parked in
            # CPython's per-length tuple free lists and raise peak memory
            vec = [v % q for v in z] + [0] * (m - len(z))
            out.append(LocalElement(model, tuple(vec), aprec))
        return tuple(out)


# ---------------------------------------------------------------------------
# Witt arithmetic by exact ghost solving
# ---------------------------------------------------------------------------


def _lifted_ghosts(R, p: int, x: tuple, ops: tuple, start: int = 0) -> list:
    """Ghost components w_start..w_{n-1} of x, in the companion ring; x is
    lifted only when there is a ghost component to compute."""
    ms = range(start, len(x))
    lx = [R.lift(c) for c in x] if ms else []
    return [_ghost(lx, m, p, ops) for m in ms]


def _witt_combine(R, p: int, x: tuple, y: tuple, op, combine) -> tuple:
    """The Witt vector whose ghost components are combine(w_m(x), w_m(y)).
    Component 0 is z_0 = op(x_0, y_0) in A, since w_0 is the identity, and
    is kept; its lift is G_0, taken only when the ghost solve has components
    from 1 on to find."""
    if len(x) != len(y):
        raise InputError("Witt vectors of different lengths")
    if not x:
        raise InputError("Witt vectors must have length >= 1")
    z0 = op(x[0], y[0])
    zs = []
    if len(x) > 1:
        ops = R.ops
        gx = _lifted_ghosts(R, p, x, ops, 1)
        gy = _lifted_ghosts(R, p, y, ops, 1)
        gz = [combine(a, b) for a, b in zip(gx, gy)]
        zs = _solve_ghosts(gz, p, ops, [R.lift(z0)])
    return R.lower(z0, zs, tuple(x) + tuple(y))


def witt_add(R, p: int, x: tuple, y: tuple) -> tuple:
    """x + y.  At length 1 it is x_0 + y_0 in A, without the ghost solve
    or ``lower``: ``lower`` would only give that sum the least precision of
    its inputs and of full precision, which A's ``+`` already gives, as no
    element is known beyond full precision."""
    if len(x) == 1 == len(y):
        return (x[0] + y[0],)
    return _witt_combine(R, p, x, y, operator.add, companion_add)


def witt_mul(R, p: int, x: tuple, y: tuple) -> tuple:
    return _witt_combine(R, p, x, y, operator.mul, R.companion.mul)


def witt_neg(R, p: int, x: tuple) -> tuple:
    # componentwise for odd p: all ghost exponents are odd
    return tuple(-c for c in x)


def _companion_sub(x: tuple, y: tuple) -> tuple:
    return companion_add(x, y, -1)


def witt_sub(R, p: int, x: tuple, y: tuple) -> tuple:
    """x - y in one ghost solve: as p is odd, w_m(-y) = -w_m(y), so the
    ghost components of x - y are w_m(x) - w_m(y), and component 0 is
    x_0 - y_0.  It equals witt_add(x, witt_neg(y)): the lift of -y_i
    is congruent mod q to minus the lift of y_i, so by the argument of the
    module docstring every component mod q, and its precision, is the
    same.  At length 1 it is x_0 - y_0 in A, as in :func:`witt_add`."""
    if len(x) == 1 == len(y):
        return (x[0] - y[0],)
    return _witt_combine(R, p, x, y, operator.sub, _companion_sub)


def witt_zero(R, n: int) -> tuple:
    return (R.from_int(0),) * n


def teichmuller(R, z, n: int) -> tuple:
    return (z,) + (R.from_int(0),) * (n - 1)


def teichmuller_powers(R, p: int, z, n: int) -> tuple:
    """(z, z^p, ..., z^{p^{n-1}}), the factors by which the Teichmueller
    representative [z] scales each Witt component."""
    out = [z]
    for _ in range(n - 1):
        out.append(out[-1] ** p)
    return tuple(out[:n])


def teichmuller_scale(R, p: int, z, x: tuple) -> tuple:
    """[z]*(x_0,...,x_{n-1}) = (z x_0, z^p x_1, ..., z^{p^{n-1}} x_{n-1})."""
    return tuple(zp * c for zp, c in zip(teichmuller_powers(R, p, z, len(x)), x))


def power_frobenius(R, p: int, x: tuple) -> tuple:
    """Componentwise p-th power.  A ring homomorphism only over rings of
    characteristic p; always multiplicative on Teichmueller factors."""
    return tuple(c ** p for c in x)


def int_to_witt(R, p: int, c: int, n: int) -> tuple:
    """Image of the integer c under Z -> W_n(A): the components solve the
    ghost equations w_m = c, exactly, then map into A.  Component 0 is c
    itself, passed to ``lower`` as R.from_int(c), which is known to full
    precision; so at length 1 it is the whole vector."""
    if n == 1:
        return (R.from_int(c),)
    zs = _solve_ghosts([(c,)] * (n - 1), p, R.ops, [(c,)])
    return R.lower(R.from_int(c), zs, ())


def ghost_components(R, p: int, x: tuple) -> tuple:
    """Ghost map, computed in the companion ring and mapped back into A
    (exact over ZZRing).  w_0 is x_0 itself, passed to ``lower`` as is."""
    return R.lower(x[0], _lifted_ghosts(R, p, x, R.ops, 1), x)


def eval_universal(R, up: WittUniversalPolys, poly: dict, x: tuple, y: tuple):
    """Evaluate one universal polynomial at Witt components in A.  Slow but
    independent of the ghost-solving path; used for cross-checks."""
    vals = tuple(x) + tuple(y)
    acc = R.from_int(0)
    for exps, coeff in up.exponent_dict(poly).items():
        term = R.from_int(coeff)
        for idx, e in enumerate(exps):
            if e:
                term = term * vals[idx] ** e
        acc = acc + term
    return acc


def witt_arith_symbolic(R, p: int, x: tuple, y: tuple, op: str) -> tuple:
    if op not in ("add", "mul"):
        raise InputError(f"unknown op {op!r}")
    if len(x) != len(y):
        raise InputError("Witt vectors of different lengths")
    up = universal_polys(p, len(x))
    polys = up.sums if op == "add" else up.prods
    return tuple(eval_universal(R, up, poly, x, y) for poly in polys)


# ---------------------------------------------------------------------------
# Graded-ideal membership and ghost valuation solving
# ---------------------------------------------------------------------------


def ideal_membership_gt(x: tuple, level: Rat) -> bool:
    """Is (x_0,...,x_{n-1}) in [a^{>level}] (componentwise v > p^i * level)?

    Components with only a lower bound on the valuation decide membership
    when the bound already clears the threshold; otherwise the question is
    undecidable at this precision and an error is raised.
    """
    for i, comp in enumerate(x):
        p = comp.model.p
        threshold = level * p ** i
        v = comp.valuation()
        if isinstance(v, LowerBound):
            if v.value > threshold:
                continue
            raise UndecidableError(
                f"component {i}: valuation >= {v.value} cannot decide threshold {threshold}"
            )
        if not v > threshold:
            return False
    return True


def ghost_solve_valuations(v0: Rat, e: int, p: int, n: int) -> list[Rat]:
    """Valuations v(x_i) forced by the vanishing-ghost system
    x_0^{p^i} + p x_1^{p^{i-1}} + ... + p^i x_i = 0 given v(x_0) = v0,
    with v(p) = e.  Each step needs a unique minimal candidate term."""
    v0 = Fraction(v0)
    if v0 <= 0:
        raise InputError("v(x_0) must be positive")
    vals: list[Rat] = [v0]
    for i in range(1, n):
        cands = [j * e + p ** (i - j) * vals[j] for j in range(i)]
        mn = min(cands)
        if cands.count(mn) > 1:
            raise ValuationTieError(
                f"step {i}: two candidate terms share the minimal valuation {mn}; "
                "only a lower bound is derivable"
            )
        vi = mn - i * e
        if vi < 0:
            raise ValuationTieError(
                f"step {i}: forced valuation {vi} is negative, so cancellation "
                "must occur and only a lower bound is derivable"
            )
        vals.append(vi)
    return vals
