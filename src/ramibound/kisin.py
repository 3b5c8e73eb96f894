"""Torsion Frobenius modules over truncated power series and tame lifts.

A module of rank d is stored as its Frobenius matrix A over (Z/p^n)[u]
truncated at u^P.  Height witnesses B with A*B = E(u)^r * I are found by
linear algebra over F_p[[u]] (a discrete valuation ring, so Laurent-series
elimination decides solvability) followed by digit-by-digit p-adic lifting,
each digit solved with the one factorization of A mod p; direct inversion
is unavailable because the coefficient ring is not a domain for n > 1.
Every witness is re-verified before it is returned: A*B, by the one matrix
product :func:`ramibound.padic.mat_mul` with a series dot over (Z/p^n)[u],
must equal c*I modulo u^prec (:func:`is_scalar_mod_u`).
:func:`witnesses` is the one path from a module to its witnesses: the
height witness, the exponent N and the u^N witness, each precision refusal
retried at twice the u-precision, at most ``UPREC_DOUBLINGS`` times.

A finite field F_{p^f} is the quotient ring F_p[y]/(m) that does its
arithmetic, a :class:`ramibound.padic.MonicQuotient` from
:func:`finite_field`; it has no element protocol of its own.  The mod-p
layer works on one series form: a series over F_{p^f} is one flat list of
residues mod p, f per u-degree, so coefficient t of the field element at
u^k stands at index k*f + t (for f = 1, one residue per u-degree).  A
product is one :func:`ramibound.padic.poly_convolve` of the two lists with
their u-degrees spaced 2f - 1 apart, so that the products of two field
elements never overlap (dense lists are packed into one integer product
there, sparse ones multiply their nonzero pairs), followed by one reduction
of each u-degree in F (for f = 1, just mod p).  The etale path takes Laurent series of
field-element tuples and flattens them at its boundary only.

The tame-lift builder produces the cyclic module with phi(e_{i+1}) =
(u+p)^{n_i} e_i together with its filtered-module data and the exponent of
the level-d fundamental character it realizes; an independent oracle recovers
the exponent from the Kummer-style congruence system the module imposes on
homomorphism values.  The uniformizer here is pinned to -p, so E(u) = u + p.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from itertools import compress, count, product, zip_longest

from .bounds import exact_nilpotency_index
from .errors import (
    InputError,
    NotHeightError,
    PrecisionError,
)
from .padic import (
    EisensteinPoly,
    MonicQuotient,
    eisenstein_validate,
    fp_series_inverse,
    mat_mul,
    poly_add,
    poly_convolve,
    poly_divmod_monic,
    poly_mod,
    poly_trim,
)

# ---------------------------------------------------------------------------
# Finite fields F_{p^f}, explicit irreducible presentation
# ---------------------------------------------------------------------------


def _fp_polgcd(a: tuple, b: tuple, p: int) -> tuple:
    """Euclid over F_p, each step a remainder by the divisor made monic."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        a, b = b, MonicQuotient([(inv * c) % p for c in b], p).reduce(a)
    return a


def _has_root(mod: tuple, p: int) -> bool:
    """Whether the polynomial vanishes at some element of F_p (Horner)."""
    for x in range(p):
        acc = 0
        for c in reversed(mod):
            acc = (acc * x + c) % p
        if not acc:
            return True
    return False


def _is_irreducible(mod: tuple, p: int) -> bool:
    """Ben-Or's test for a monic polynomial m of degree f >= 2 over F_p with
    no root in F_p: m is irreducible iff gcd(m, y^(p^i) - y) = 1 for every
    i <= f/2.  The root test has settled i = 1 (y^p - y is the product of
    the y - c), so the gcds start at i = 2; a reducible m usually has a
    factor of small degree and is rejected at a small i."""
    R = MonicQuotient(mod, p)  # F_p[y]/(mod), a field iff the test passes
    z = R.pow((0, 1), p)
    for _ in range(2, (len(mod) - 1) // 2 + 1):
        z = R.pow(z, p)
        if len(_fp_polgcd(mod, poly_add(z, (0, p - 1), p), p)) > 1:  # z - y
            return False
    return True


def finite_field(p: int, f: int) -> MonicQuotient:
    """F_{p^f} as the quotient ring F_p[y]/(m), m the first monic
    irreducible of degree f in lexicographic order of its coefficients from
    the constant term up, starting at constant term 1 (a zero constant term
    gives the factor y); a candidate with a root in F_p is rejected before
    Ben-Or's test runs.  F.q is p, F.deg is f and F.g is m; elements are
    the ring's trimmed coefficient tuples."""
    if f < 1:
        raise InputError("extension degree must be >= 1")
    if f == 1:
        return MonicQuotient((0, 1), p)
    for tail in product(range(1, p), *[range(p)] * (f - 1)):
        mod = tail + (1,)
        if not _has_root(mod, p) and _is_irreducible(mod, p):
            return MonicQuotient(mod, p)
    raise AssertionError("irreducible polynomial must exist")


# ---------------------------------------------------------------------------
# Series linear algebra over a field (the mod-p layer)
# ---------------------------------------------------------------------------
# A series over F = F_{p^f} is one flat list of residues mod p, f per
# u-degree (see the module docstring), always read modulo u^prec for an
# explicitly tracked prec and as zero past its end.


def _spread(a: list, f: int, w: int) -> list:
    """The u-degrees of a flat series, each f residues, spaced w >= f apart."""
    blocks = len(a) // f
    if not blocks:
        return []
    out = [0] * ((blocks - 1) * w + f)
    for t in range(f):
        out[t::w] = a[t::f]
    return out


def series_mul(F: MonicQuotient, a: list, b: list, prec: int) -> list:
    """a*b mod u^prec: one convolution of the two lists with their u-degrees
    spaced 2f - 1 apart, then each u-degree reduced by the modulus mod p."""
    f, p = F.deg, F.q
    if f == 1:
        return [v % p for v in poly_convolve(a, b, prec)]
    w = 2 * f - 1
    prod = poly_convolve(_spread(a, f, w), _spread(b, f, w), prec * w)
    out = []
    for s in range(0, len(prod), w):
        r = F.reduce(prod[s : s + w])
        out += r
        out += [0] * (f - len(r))
    return out


def series_add(F: MonicQuotient, a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = [(x + y) % F.q for x, y in zip(a, b)]
    out += a[len(b) :]
    return out


def _series_dot(mul, add):
    """The dot product for :func:`ramibound.padic.mat_mul` with the entry
    product and sum given: the sum, left to right, of the products along a
    row and a column.  It serves matrices over (Z/q)[u]
    (:func:`_mat_mul_series`) and of series over F_{p^f}
    (:meth:`SeriesFactorization.solve`)."""
    return lambda row, col: reduce(add, map(mul, row, col))


def series_neg(F: MonicQuotient, a: list) -> list:
    return [(-v) % F.q for v in a]


def series_val(F: MonicQuotient, a: list, prec: int) -> int | None:
    i = next(compress(count(), a[: prec * F.deg]), None)
    return None if i is None else i // F.deg


def series_inv_unit(F: MonicQuotient, a: list, prec: int) -> list:
    """1/a mod u^prec.  Over F_p it is :func:`fp_series_inverse`; over F_{p^f},
    f > 1, Newton's iteration b <- b*(2 - a*b) doubles the u-precision of b
    at each step, from the inverse of a's constant term."""
    f, p = F.deg, F.q
    if not any(a[:f]):
        raise InputError("series inverse needs a unit constant term")
    if f == 1:
        return fp_series_inverse(a, p, prec)
    out = list(F.pow(tuple(a[:f]), p ** f - 2))
    out += [0] * (f - len(out))
    done = 1
    while done < prec:
        done = min(2 * done, prec)
        err = series_mul(F, a, out, done)  # 1 + O(u^(done/2))
        err[:f] = [0] * f
        out = series_add(F, out, series_neg(F, series_mul(F, out, err, done)))
    return out


def _mat_minor(mat, i, j):
    return [row[:j] + row[j + 1 :] for r, row in enumerate(mat) if r != i]


def series_det(F: MonicQuotient, mat, prec: int) -> list:
    d = len(mat)
    if d == 1:
        return list(mat[0][0])
    acc: list = []
    sign = 1
    for j in range(d):
        sub = series_det(F, _mat_minor(mat, 0, j), prec)
        term = series_mul(F, mat[0][j], sub, prec)
        if sign < 0:
            term = series_neg(F, term)
        acc = series_add(F, acc, term)
        sign = -sign
    return acc


def series_adjugate(F: MonicQuotient, mat, prec: int):
    d = len(mat)
    if d == 1:
        return [[[1] + [0] * (F.deg - 1)]]
    out = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            sub = series_det(F, _mat_minor(mat, i, j), prec)
            if (i + j) % 2:
                sub = series_neg(F, sub)
            out[j][i] = sub  # transpose of cofactors
    return out


class SeriesFactorization:
    """A square matrix A over F[[u]]/u^prec factored once, for solving
    A*C = M at any u-precision up to ``prec``: det A, its valuation v, the
    adjugate and the inverse of the unit det A / u^v, each of which, cut to
    a lower precision, is what A cut there gives.  The last two are needed
    only when some precision leaves a solution: prec - 2v > 0."""

    def __init__(self, F: MonicQuotient, A, prec: int):
        self.F, self.prec = F, prec
        det = series_det(F, A, prec)
        self.v = series_val(F, det, prec)
        if self.v is not None and prec - 2 * self.v > 0:
            self.adj = series_adjugate(F, A, prec)
            self.unit_inv = series_inv_unit(F, det[self.v * F.deg :], prec - self.v)

    def solve(self, M, prec: int):
        """(C, prec') with A*C = M over F[[u]]/u^prec', prec' = prec -
        2*val(det A).  Raises PrecisionError when det A vanishes at this
        truncation or its valuation uses up the u-precision, and then
        NotHeightError when the unique Laurent solution is not integral."""
        if prec > self.prec:
            raise InputError("solve above the factorization's u-precision")
        F, v = self.F, self.v
        if v is None or v >= prec:
            raise PrecisionError("matrix determinant vanishes at this u-precision")
        out_prec = prec - 2 * v
        if out_prec <= 0:
            raise PrecisionError("u-precision exhausted by determinant valuation")
        prod = mat_mul(self.adj, M, _series_dot(
            lambda a, b: series_mul(F, a, b, prec),
            lambda a, b: series_add(F, a, b),
        ))
        C = []
        for row in prod:
            C.append([])
            for acc in row:
                t = series_mul(F, acc, self.unit_inv, prec - v)
                if any(t[: v * F.deg]):
                    raise NotHeightError(
                        "solution acquires a pole: no witness at this height"
                    )
                C[-1].append(t[v * F.deg :])
        return C, out_prec


# ---------------------------------------------------------------------------
# Kisin modules over (Z/p^n)[u]/u^P
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KisinModule:
    """Rank-d Frobenius matrix over (Z/p^n)[u] truncated at u^uprec."""

    p: int
    n: int
    E: EisensteinPoly
    rank: int
    entries: tuple[tuple[tuple[int, ...], ...], ...]
    uprec: int

    @property
    def q(self) -> int:
        return self.p ** self.n


def kisin_new(
    p: int,
    n: int,
    E: EisensteinPoly,
    matrix,
    uprec: int | None = None,
    r_hint: int = 1,
) -> KisinModule:
    if E.p != p:
        raise InputError("Eisenstein polynomial over a different prime")
    if n < 1:
        raise InputError("p-adic length must be >= 1")
    d = len(matrix)
    if any(len(row) != d for row in matrix):
        raise InputError("Frobenius matrix must be square")
    if uprec is None:
        uprec = E.e * r_hint * n + E.e * r_hint + 8
    if uprec < 1:
        raise InputError("u-precision must be >= 1")
    q = p ** n
    ent = []
    for row in matrix:
        out_row = []
        for entry in row:
            entry = poly_trim(entry)
            if any(not 0 <= c < q for c in entry):
                raise InputError(
                    f"matrix coefficients must lie in [0, {p}^{n}) = [0, {q})"
                )
            if len(entry) > uprec:
                raise InputError("entry degree exceeds the u-precision")
            out_row.append(entry)
        ent.append(tuple(out_row))
    return KisinModule(p, n, E, d, tuple(ent), uprec)


def _mat_mul_series(A, B, q: int, prec: int):
    """Matrix product over (Z/q)[u]/u^prec."""
    return mat_mul(A, B, _series_dot(
        lambda a, b: poly_mod(poly_convolve(a, b, prec), q),
        lambda a, b: poly_add(a, b, q),
    ))


def is_scalar_mod_u(M, c, prec: int, q: int) -> bool:
    """Whether the square matrix M of series over Z/q equals c * I modulo
    u^prec.  Series are integer coefficient sequences, read as zero past
    their end."""
    for i, row in enumerate(M):
        for j, a in enumerate(row):
            b = c if i == j else ()
            pairs = zip_longest(a[:prec], b[:prec], fillvalue=0)
            if any((x - y) % q for x, y in pairs):
                return False
    return True


@dataclass(frozen=True)
class HeightWitness:
    B: tuple
    uprec: int  # u-precision at which A*B = E^r*I is certified
    r: int


def height_witness(mod: KisinModule, r: int) -> HeightWitness:
    """Solve A*B = E(u)^r * I over (Z/p^n)[u]/u^P.

    Mod p the system is solved by Laurent-series elimination; solutions are
    then lifted one p-digit at a time, each digit again a mod-p solve with
    the same matrix A mod p, which is factored once.  A pole at any stage
    means no witness exists at this height.
    """
    if r < 0:
        raise InputError("height must be nonnegative")
    p, n, q, P = mod.p, mod.n, mod.q, mod.uprec
    if P < mod.E.e * r + 1:
        raise PrecisionError("u-precision below e*r + 1 cannot certify the height")
    F = finite_field(p, 1)
    d = mod.rank
    A_f = [[[c % p for c in entry] for entry in row] for row in mod.entries]
    target = mod.E.power(r, q)
    target_f = [c % p for c in target]
    factored = SeriesFactorization(F, A_f, P)
    if factored.v is None and d:
        # det A mod p is a polynomial of degree at most d times the largest
        # entry degree; below P its truncation is all of it, so it is zero
        deg = max(len(poly_trim(tuple(entry))) - 1 for row in A_f for entry in row)
        if d * deg < P:
            raise NotHeightError(
                "Frobenius matrix is singular mod p: no witness at any height"
            )
    C, avail = factored.solve(
        [[target_f if i == j else [] for j in range(d)] for i in range(d)], P
    )
    B = [[poly_trim(entry) for entry in row] for row in C]

    for k in range(1, n):
        prod = _mat_mul_series(mod.entries, B, q, avail)
        pk = p ** k
        R_f = []
        for i in range(d):
            row = []
            for j in range(d):
                tgt = target if i == j else ()
                pairs = zip_longest(tgt[:avail], prod[i][j], fillvalue=0)
                res = [(t - v) % q for t, v in pairs]
                if any(v % pk for v in res):
                    raise AssertionError("digit residual not divisible")
                row.append([(v // pk) % p for v in res])
            R_f.append(row)
        C, avail = factored.solve(R_f, avail)
        for i in range(d):
            for j in range(d):
                B[i][j] = poly_add(B[i][j], tuple(c * pk for c in C[i][j]), q)

    if avail < mod.E.e * r + 1:
        raise PrecisionError("witness certified below e*r + 1; raise uprec")
    Bt = tuple(map(tuple, B))
    prod = _mat_mul_series(mod.entries, Bt, q, avail)
    if not is_scalar_mod_u(prod, target, avail, q):
        raise AssertionError("witness re-verification failed")
    return HeightWitness(Bt, avail, r)


def u_power_witness(mod: KisinModule, wit: HeightWitness, N: int) -> HeightWitness:
    """B' = B*h with u^N = E(u)^r * h, so A*B' = u^N * I.  Requires u^N to
    vanish in the quotient by E^r, i.e. the division to be exact."""
    if N < 1:
        raise InputError("N must be >= 1")
    q = mod.q
    er_poly = mod.E.power(wit.r, q)
    quot, rem = poly_divmod_monic((0,) * N + (1,), er_poly, q)
    if rem:
        raise InputError(f"u^{N} does not vanish in the quotient: N too small")
    avail = wit.uprec
    if N >= avail:
        raise PrecisionError("u-precision too small to verify the u^N witness")
    d = mod.rank
    Bp = tuple(
        tuple(poly_mod(poly_convolve(wit.B[i][j], quot, avail), q) for j in range(d))
        for i in range(d)
    )
    prod = _mat_mul_series(mod.entries, Bp, q, avail)
    if not is_scalar_mod_u(prod, (0,) * N + (1,), avail, q):
        raise AssertionError("u-power witness re-verification failed")
    return HeightWitness(Bp, avail, wit.r)


UPREC_DOUBLINGS = 4  # retries of a precision refusal, each at twice the u-precision


def witnesses(
    mod: KisinModule, r: int, N: int | None = None, doublings: int = UPREC_DOUBLINGS
) -> tuple[HeightWitness, int, HeightWitness]:
    """(height-r witness, N, u^N witness) of the module; N defaults to the
    exact nilpotency index, taken after the height witness is found.  A
    precision refusal is retried on the module at twice the u-precision, at
    most ``doublings`` times, and the last refusal is raised."""
    for attempt in range(doublings + 1):
        try:
            wit = height_witness(mod, r)
            if N is None:
                N = exact_nilpotency_index(mod.E, mod.n, r)
            return wit, N, u_power_witness(mod, wit, N)
        except PrecisionError:
            if attempt == doublings:
                raise
            mod = replace(mod, uprec=2 * mod.uprec)


# ---------------------------------------------------------------------------
# Tame lifts and the character oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TameLiftSpec:
    p: int
    period: int
    seq: tuple[int, ...]
    exponent: int  # exponent of the level-d fundamental character, mod p^d - 1
    filtration_jumps: tuple[int, ...]
    filtered_frobenius: tuple[int, ...]  # diagonal-shift entries p^{n_i}
    module: KisinModule
    height: int


def _tame_seq(p: int, d: int, seq) -> tuple[int, ...]:
    """The exponent sequence as ints, checked: length d, each in [0, p-1]."""
    seq = tuple(int(v) for v in seq)
    if len(seq) != d:
        raise InputError("sequence length must equal the period")
    if any(not 0 <= v <= p - 1 for v in seq):
        raise InputError("exponents must lie in [0, p-1]")
    return seq


def tame_lift_build(p: int, d: int, seq, n: int = 1) -> TameLiftSpec:
    """Cyclic module phi(e_{i+1}) = (u+p)^{n_i} e_i for a d-periodic exponent
    sequence with 0 <= n_i <= p-1, plus its filtered data and character
    exponent sum(n_i p^i) mod (p^d - 1)."""
    seq = _tame_seq(p, d, seq)
    E = eisenstein_validate((p, 1), p)
    r = max(seq) if seq else 0
    q = p ** n
    matrix = [[() for _ in range(d)] for _ in range(d)]
    for i in range(d):
        matrix[i][(i + 1) % d] = E.power(seq[i], q)
    mod = kisin_new(p, n, E, matrix, r_hint=max(r, 1))
    qd = p ** d - 1
    exponent = sum(seq[i] * p ** i for i in range(d)) % qd
    return TameLiftSpec(
        p,
        d,
        seq,
        exponent,
        tuple(sorted(seq)),
        tuple(p ** v for v in seq),
        mod,
        r,
    )


@dataclass(frozen=True)
class TameOracleResult:
    exponent: int
    consistent_starts: tuple[int, ...]
    field_modulus: tuple[int, ...]


def tame_character_oracle(p: int, d: int, seq) -> TameOracleResult:
    """Independent exponent computation from the congruence system the cyclic
    module imposes on homomorphism values.

    Writing each value as c_i * t^{a_i} with t^q = u (q = p^d - 1) and c_i in
    F_{p^d}, Frobenius compatibility forces p*a_{i+1} = a_i + q*n_i around the
    cycle.  Solving for the admissible starts a_0 in [0, q] and reading the
    t -> zeta*t action on the solution line gives the character exponent a_0
    mod q.  The sign convention (no inversion under the Hom) is anchored by
    the period-1, exponent-1 case and frozen.

    The starts are solved one p-digit of a_0 at a time.  Step i asks that p
    divide a_i + q*n_i, and a_i mod p depends only on a_0 mod p^(i+1).  A
    state (r, a) is a residue r of a_0 mod p^i that passes steps 0 to i-1,
    with a = a_i computed from r; the digit c at p^i turns a_i into a_i + c,
    because each of the i divisions so far divides c*p^i exactly.  Each stage
    tries all p digits against the next step, so the search takes O(d*p)
    steps in all.  After d stages r runs over the residues of a_0 mod p^d,
    each of which has one representative in [0, q], and r is a start when
    the cycle closes: a_d = r.  The full scan of all q + 1 starts is the
    tests' oracle."""
    seq = _tame_seq(p, d, seq)
    q = p ** d - 1
    states = [(0, 0)]
    place = 1
    for n_i in seq:
        states = [
            (r + c * place, (a + c + q * n_i) // p)
            for r, a in states
            for c in range(p)
            if not (a + c + q * n_i) % p
        ]
        place *= p
    starts = sorted(r for r, a in states if a == r)
    if not starts:
        raise AssertionError("the cyclic exponent system always has a solution")
    exps = {a0 % q for a0 in starts}
    if len(exps) != 1:
        raise AssertionError("inconsistent exponent classes")
    F = finite_field(p, d)
    # coefficient solutions form an F_{p^d}-line: d-fold Frobenius, the
    # p^d-th power, must fix the field elementwise
    probe = (2,) if d == 1 else (1, 1)
    if F.pow(probe, p ** d) != probe:
        raise AssertionError("field presentation is not fixed by q-Frobenius")
    return TameOracleResult(exps.pop(), tuple(starts), F.g)


# ---------------------------------------------------------------------------
# Etale Frobenius modules over F_q((u)) and integral models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Laurent:
    """Truncated Laurent series: coeffs[i] multiplies u^(shift + i)."""

    shift: int
    coeffs: tuple

    def val(self) -> int | None:
        for i, c in enumerate(self.coeffs):
            if any(c):
                return self.shift + i
        return None


@dataclass(frozen=True)
class EtalePhiModule:
    """Frobenius matrix over F_q((u)), truncated; etale means det != 0."""

    field: MonicQuotient
    entries: tuple[tuple[Laurent, ...], ...]
    e: int
    uprec: int

    @property
    def rank(self) -> int:
        return len(self.entries)


def etale_new(field: MonicQuotient, entries, e: int, uprec: int = 32) -> EtalePhiModule:
    d = len(entries)
    if any(len(row) != d for row in entries):
        raise InputError("Frobenius matrix must be square")
    rows = tuple(tuple(entries[i][j] for j in range(d)) for i in range(d))
    mod = EtalePhiModule(field, rows, e, uprec)
    if _etale_det_val(mod) is None:
        raise InputError("Frobenius matrix is not etale: det vanishes")
    return mod


def _etale_det_val(mod: EtalePhiModule) -> int | None:
    """val_u(det) of the Frobenius matrix, None when the determinant
    vanishes at the truncation.  The entries are shifted down to one common
    base, so that each becomes a series, and flattened into the series form
    here, at the boundary of the mod-p layer."""
    F = mod.field
    shifts = [ent.shift for row in mod.entries for ent in row]
    base = min(shifts) if shifts else 0
    mat = [
        [[0] * ((ent.shift - base) * F.deg) + [c for el in ent.coeffs for c in el]
         for ent in row]
        for row in mod.entries
    ]
    v = series_val(F, series_det(F, mat, mod.uprec), mod.uprec)
    return None if v is None else v + mod.rank * base


@dataclass(frozen=True)
class EtaleToKisinResult:
    field_modulus: tuple[int, ...]
    rescale_power: int  # t, with u^{t(p-1)} applied to the matrix
    r: int
    matrix: tuple  # integral entries as series coefficient tuples
    det_val: int


def etale_to_kisin(mod: EtalePhiModule) -> EtaleToKisinResult:
    """Rescale by the minimal u^{t(p-1)} making the matrix integral, then read
    off the height r = ceil(val_u(det)/e) of the resulting mod-p module."""
    F = mod.field
    p = F.q
    d = mod.rank
    vals = [ent.val() for row in mod.entries for ent in row]
    vals = [v for v in vals if v is not None]
    if not vals:
        raise InputError("zero matrix is not etale")
    minval = min(vals)
    t = 0
    if minval < 0:
        t = (-minval + p - 2) // (p - 1)  # ceil(-minval / (p-1))
    shift = t * (p - 1)
    mat = []
    for row in mod.entries:
        mat_row = []
        for ent in row:
            pad = ent.shift + shift
            if pad < 0:
                raise AssertionError("rescaled entry still fractional")
            mat_row.append(tuple([(0,) * F.deg] * pad + list(ent.coeffs)))
        mat.append(tuple(mat_row))
    rescaled = EtalePhiModule(
        F,
        tuple(tuple(Laurent(0, entry) for entry in row) for row in mat),
        mod.e,
        mod.uprec,
    )
    det_val = _etale_det_val(rescaled)
    if det_val is None:
        raise PrecisionError("determinant vanished at truncation after rescaling")
    r = -(-det_val // mod.e)
    return EtaleToKisinResult(F.g, t, r, tuple(mat), det_val)

