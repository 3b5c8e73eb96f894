"""Truncated Witt vectors over pluggable coefficient rings.

The ring structure on length-n Witt vectors is given by universal integer
polynomials.  Two cooperating implementations are provided:

* :func:`universal_polys` materializes the addition and multiplication
  polynomials symbolically by solving the ghost equations over the rationals
  and asserting integrality of every coefficient.

* :func:`witt_add` / :func:`witt_mul` evaluate those universal polynomials on
  concrete inputs without expanding them: components are lifted to an exact
  characteristic-zero companion ring, the ghost equations are solved there
  (all divisions by powers of p are exact, precisely because the universal
  polynomials have integer coefficients), and the result is reduced back.
  Integer polynomials respect congruences, so the answer is independent of
  the chosen lifts.

Coefficient rings plug in through small adapter objects.  An adapter pairs
the ring A with an exact characteristic-zero companion ring in which ghost
equations are solved:

* :class:`ZZRing`, exact integers, its own companion;
* :class:`ZpMRing`, Z/p^M with companion Z: a :class:`ZZRing` whose A-side
  operations reduce mod p^M;
* :class:`LocalRing`, elements of a local-field model with companion
  Z[x]/g(x), multiplied by the polynomial kernel of :mod:`ramibound.padic`
  over exact integers.

Powers, of packed integer polynomials and of companion-ring elements alike,
are the kernel's :func:`ramibound.padic.power`.

Also here: the Teichmueller scaling formula, the componentwise p-power map
(not a ring homomorphism away from characteristic p), graded-ideal
membership, and the ultrametric solver for component valuations of
vanishing-ghost systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    PAdicTrunc,
    Rat,
    poly_convolve,
    poly_divmod_monic,
    power,
)

# ---------------------------------------------------------------------------
# Integer polynomials in packed-exponent representation
# ---------------------------------------------------------------------------
# A polynomial in v variables is a dict {key: coeff} where key packs the
# exponent vector in base 2**bits.  Monomial product is then integer addition
# of keys, which keeps the inner multiplication loop cheap.


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    get = out.get
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            c = get(k, 0) + va * vb
            if c:
                out[k] = c
            elif k in out:
                del out[k]
    return out


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        c = out.get(k, 0) + v
        if c:
            out[k] = c
        elif k in out:
            del out[k]
    return out


def _pscale(a: dict, c: int) -> dict:
    if c == 0:
        return {}
    return {k: c * v for k, v in a.items()}


def _ppow(a: dict, k: int) -> dict:
    return power(a, k, _pmul, {0: 1})


def _pdiv_exact(a: dict, c: int) -> dict:
    out = {}
    for k, v in a.items():
        if v % c:
            raise IntegralityError("universal polynomial coefficient not divisible")
        out[k] = v // c
    return out


def _var(idx: int, bits: int, exp: int = 1) -> dict:
    return {exp << (bits * idx): 1}


def unpack_exponents(key: int, nvars: int, bits: int) -> tuple[int, ...]:
    mask = (1 << bits) - 1
    return tuple((key >> (bits * i)) & mask for i in range(nvars))


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
        return {
            unpack_exponents(k, 2 * self.n, self.bits): v for k, v in poly.items()
        }


def _ghost_poly(vars_: list[dict], m: int, p: int) -> dict:
    out: dict = {}
    for i in range(m + 1):
        out = _padd(out, _pscale(_ppow(vars_[i], p ** (m - i)), p ** i))
    return out


@lru_cache(maxsize=None)
def universal_polys(p: int, n: int) -> WittUniversalPolys:
    """Solve the ghost equations over Q for ring structure polynomials and
    assert that every coefficient is an integer."""
    if n < 1:
        raise InputError("length must be >= 1")
    bits = max(2, (p ** (n - 1)).bit_length() + 1)
    xs = [_var(i, bits) for i in range(n)]
    ys = [_var(n + i, bits) for i in range(n)]

    sums: list[dict] = []
    prods: list[dict] = []
    for m in range(n):
        gs = _padd(_ghost_poly(xs, m, p), _ghost_poly(ys, m, p))
        gp = _pmul(_ghost_poly(xs, m, p), _ghost_poly(ys, m, p))
        for i in range(m):
            gs = _padd(gs, _pscale(_ppow(sums[i], p ** (m - i)), -(p ** i)))
            gp = _padd(gp, _pscale(_ppow(prods[i], p ** (m - i)), -(p ** i)))
        sums.append(_pdiv_exact(gs, p ** m))
        prods.append(_pdiv_exact(gp, p ** m))
    return WittUniversalPolys(p, n, bits, tuple(sums), tuple(prods))


def ghost_identity_holds_symbolically(p: int, n: int) -> bool:
    """Check ghost_m(S(X,Y)) = ghost_m(X) + ghost_m(Y) (and the product
    analogue) as polynomial identities over Z."""
    up = universal_polys(p, n)
    xs = [_var(i, up.bits) for i in range(n)]
    ys = [_var(n + i, up.bits) for i in range(n)]
    for m in range(n):
        lhs_s = _ghost_poly(list(up.sums), m, p)
        rhs_s = _padd(_ghost_poly(xs, m, p), _ghost_poly(ys, m, p))
        if lhs_s != rhs_s:
            return False
        lhs_p = _ghost_poly(list(up.prods), m, p)
        rhs_p = _pmul(_ghost_poly(xs, m, p), _ghost_poly(ys, m, p))
        if lhs_p != rhs_p:
            return False
    return True


# ---------------------------------------------------------------------------
# Coefficient-ring adapters
# ---------------------------------------------------------------------------
# An adapter exposes the ring A together with an exact companion ring in which
# ghost equations can be solved: lift/lower move between the two, and the
# l-prefixed operations act in the companion ring.


class ZZRing:
    """Exact integers; companion ring is itself."""

    p = None

    def from_int(self, c: int):
        return c

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def pow(self, a, k):
        return a ** k

    def eq(self, a, b):
        return a == b

    def lift(self, a):
        return a

    def lower(self, x, aprec=None):
        return x

    def ladd(self, x, y):
        return x + y

    def lmul(self, x, y):
        return x * y

    def lpow(self, x, k):
        return x ** k

    def lscale(self, x, c):
        return c * x

    def ldivp(self, x, q):
        if x % q:
            raise IntegralityError("ghost solve division not exact")
        return x // q

    def min_aprec(self, elems):
        return None


class ZpMRing(ZZRing):
    """Z/p^M with companion ring Z (lifts are the stored representatives);
    only the operations on the Z/p^M side reduce."""

    def __init__(self, ring: PAdicTrunc):
        self.ring = ring
        self.p = ring.p

    def from_int(self, c: int):
        return c % self.ring.modulus

    def add(self, a, b):
        return self.ring.add(a, b)

    def neg(self, a):
        return self.ring.neg(a)

    def mul(self, a, b):
        return self.ring.mul(a, b)

    def pow(self, a, k):
        return pow(a, k, self.ring.modulus)

    def eq(self, a, b):
        return a % self.ring.modulus == b % self.ring.modulus

    def lift(self, a):
        return a % self.ring.modulus

    def lower(self, x, aprec=None):
        return x % self.ring.modulus


class LocalRing:
    """Elements of a local-field model; the companion ring is Z[x]/g(x) with
    honest integer coefficients, where divisions by p^k are coefficientwise."""

    def __init__(self, model: LocalFieldModel):
        self.model = model
        self.p = model.p

    def from_int(self, c: int):
        return self.model.from_int(c)

    def zero(self):
        return self.model.zero()

    def one(self):
        return self.model.one()

    def add(self, a: LocalElement, b: LocalElement):
        return a + b

    def neg(self, a: LocalElement):
        return -a

    def mul(self, a: LocalElement, b: LocalElement):
        return a * b

    def pow(self, a: LocalElement, k: int):
        return a.pow(k)

    def eq(self, a: LocalElement, b: LocalElement):
        return a.eq_at_prec(b)

    def lift(self, a: LocalElement):
        return tuple(a.coeffs)

    def lower(self, x: tuple, aprec=None):
        m = self.model.m
        vec = tuple((x[i] if i < len(x) else 0) % self.model.q for i in range(m))
        if aprec is None:
            aprec = self.model.full_aprec
        return LocalElement(self.model, vec, min(aprec, self.model.full_aprec))

    def ladd(self, x: tuple, y: tuple):
        n = max(len(x), len(y))
        return tuple(
            (x[i] if i < len(x) else 0) + (y[i] if i < len(y) else 0) for i in range(n)
        )

    def lmul(self, x: tuple, y: tuple):
        return poly_divmod_monic(poly_convolve(x, y), self.model.g.coeffs)[1]

    def lpow(self, x: tuple, k: int):
        return power(x, k, self.lmul, (1,))

    def lscale(self, x: tuple, c: int):
        return tuple(c * v for v in x)

    def ldivp(self, x: tuple, q: int):
        out = []
        for c in x:
            if c % q:
                raise IntegralityError("ghost solve division not exact")
            out.append(c // q)
        return tuple(out)

    def min_aprec(self, elems):
        return min(e.aprec for e in elems)


# ---------------------------------------------------------------------------
# Witt arithmetic by exact ghost solving
# ---------------------------------------------------------------------------


def _lift_ghost(R, lx: list, m: int, p: int):
    acc = None
    for i in range(m + 1):
        t = R.lscale(R.lpow(lx[i], p ** (m - i)), p ** i)
        acc = t if acc is None else R.ladd(acc, t)
    return acc


def _witt_combine(R, p: int, x: tuple, y: tuple, product: bool) -> tuple:
    if len(x) != len(y):
        raise InputError("Witt vectors of different lengths")
    n = len(x)
    lx = [R.lift(c) for c in x]
    ly = [R.lift(c) for c in y]
    lz: list = []
    for m in range(n):
        gx = _lift_ghost(R, lx, m, p)
        gy = _lift_ghost(R, ly, m, p)
        acc = R.lmul(gx, gy) if product else R.ladd(gx, gy)
        for i in range(m):
            acc = R.ladd(acc, R.lscale(R.lpow(lz[i], p ** (m - i)), -(p ** i)))
        lz.append(R.ldivp(acc, p ** m))
    aprec = R.min_aprec(tuple(x) + tuple(y))
    return tuple(R.lower(c, aprec) for c in lz)


def witt_add(R, p: int, x: tuple, y: tuple) -> tuple:
    return _witt_combine(R, p, x, y, product=False)


def witt_mul(R, p: int, x: tuple, y: tuple) -> tuple:
    return _witt_combine(R, p, x, y, product=True)


def witt_neg(R, p: int, x: tuple) -> tuple:
    # componentwise for odd p: all ghost exponents are odd
    return tuple(R.neg(c) for c in x)


def witt_sub(R, p: int, x: tuple, y: tuple) -> tuple:
    return witt_add(R, p, x, witt_neg(R, p, y))


def witt_arith(R, p: int, x: tuple, y: tuple, op: str) -> tuple:
    if op == "add":
        return witt_add(R, p, x, y)
    if op == "mul":
        return witt_mul(R, p, x, y)
    raise InputError(f"unknown op {op!r}")


def witt_zero(R, n: int) -> tuple:
    return tuple(R.zero() for _ in range(n))


def teichmuller(R, z, n: int) -> tuple:
    return (z,) + tuple(R.zero() for _ in range(n - 1))


def teichmuller_scale(R, p: int, z, x: tuple) -> tuple:
    """[z]*(x_0,...,x_{n-1}) = (z x_0, z^p x_1, ..., z^{p^{n-1}} x_{n-1})."""
    out = []
    zp = z
    for i, c in enumerate(x):
        if i:
            zp = R.pow(zp, p)
        out.append(R.mul(zp, c))
    return tuple(out)


def power_frobenius(R, p: int, x: tuple) -> tuple:
    """Componentwise p-th power.  A ring homomorphism only over rings of
    characteristic p; always multiplicative on Teichmueller factors."""
    return tuple(R.pow(c, p) for c in x)


def int_to_witt(R, p: int, c: int, n: int) -> tuple:
    """Image of the integer c under Z -> W_n(A): components solve the ghost
    equations w_m = c over Z, then map into A."""
    comps: list[int] = []
    for k in range(n):
        acc = c
        for i in range(k):
            acc -= p ** i * comps[i] ** (p ** (k - i))
        if acc % p ** k:
            raise IntegralityError("integer Witt components not integral")
        comps.append(acc // p ** k)
    return tuple(R.from_int(v) for v in comps)


def ghost_components(R, p: int, x: tuple) -> tuple:
    """Ghost map computed in the exact companion ring (intended for exact
    integer coefficients)."""
    lx = [R.lift(c) for c in x]
    return tuple(_lift_ghost(R, lx, m, p) for m in range(len(x)))


def eval_universal(R, up: WittUniversalPolys, poly: dict, x: tuple, y: tuple):
    """Evaluate one universal polynomial at Witt components in A.  Slow but
    independent of the ghost-solving path; used for cross-checks."""
    vals = tuple(x) + tuple(y)
    acc = R.zero()
    for key, coeff in poly.items():
        exps = unpack_exponents(key, 2 * up.n, up.bits)
        term = R.from_int(coeff)
        for idx, e in enumerate(exps):
            if e:
                term = R.mul(term, R.pow(vals[idx], e))
        acc = R.add(acc, term)
    return acc


def witt_arith_symbolic(R, p: int, x: tuple, y: tuple, op: str) -> tuple:
    up = universal_polys(p, len(x))
    polys = up.sums if op == "add" else up.prods
    return tuple(eval_universal(R, up, poly, x, y) for poly in polys)


# ---------------------------------------------------------------------------
# Graded-ideal membership and ghost valuation solving
# ---------------------------------------------------------------------------


def ideal_membership_gt(x: tuple, level: Rat, strict: bool = True) -> bool:
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
            if strict and v.value > threshold:
                continue
            if not strict and v.value >= threshold:
                continue
            raise UndecidableError(
                f"component {i}: valuation >= {v.value} cannot decide threshold {threshold}"
            )
        if strict and not v > threshold:
            return False
        if not strict and not v >= threshold:
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
