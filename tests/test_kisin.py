import itertools
import random
from functools import partial

import pytest

from ramibound import kisin
from ramibound.errors import InputError, NotHeightError, PrecisionError
from ramibound.kisin import (
    Laurent,
    SeriesFactorization,
    _fp_polgcd,
    _has_root,
    _is_irreducible,
    etale_new,
    etale_to_kisin,
    finite_field,
    height_witness,
    is_scalar_mod_u,
    kisin_new,
    series_add,
    series_adjugate,
    series_det,
    series_inv_unit,
    series_mul,
    series_val,
    tame_character_oracle,
    tame_lift_build,
    u_power_witness,
)
from ramibound.padic import (
    MonicQuotient,
    eisenstein_validate,
    poly_add,
    poly_convolve,
    poly_divmod_monic,
    poly_mul,
    poly_trim,
    power,
)

E13 = eisenstein_validate((3, 1), 3)


def result_as_kisin_module(res, p, E, uprec=None):
    """Package an integral prime-field conversion result as a length-1 module."""
    if res.field_modulus != (0, 1):
        raise InputError("only prime-field matrices lift to the Z/p layer here")
    matrix = [
        [tuple(c[0] % p for c in entry) for entry in row] for row in res.matrix
    ]
    return kisin_new(p, 1, E, matrix, uprec=uprec, r_hint=max(res.r, 1))


def ops_mat_mul(A, B, mul, add):
    """Independent matrix product with the entry product and sum given, a
    row vector being a 1 x d matrix: entry (i, j) is the sum, left to right,
    of mul(A[i][k], B[k][j]) over k."""
    out = []
    for row in A:
        out_row = []
        for j in range(len(B[0])):
            acc = mul(row[0], B[0][j])
            for k in range(1, len(row)):
                acc = add(acc, mul(row[k], B[k][j]))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def naive_mat_mul(A, B, q):
    """Independent matrix product over (Z/q)[u] for re-verification."""
    d = len(A)
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = ()
            for k in range(d):
                acc = poly_add(acc, poly_mul(A[i][k], B[k][j], q), q)
            row.append(acc)
        out.append(row)
    return out


def assert_witness(module, wit, target_poly):
    q = module.q
    prod = naive_mat_mul(module.entries, wit.B, q)
    for i in range(module.rank):
        for j in range(module.rank):
            want = target_poly if i == j else ()
            got = prod[i][j]
            for t in range(wit.uprec):
                gv = got[t] if t < len(got) else 0
                wv = want[t] if t < len(want) else 0
                assert (gv - wv) % q == 0, (i, j, t)


# ---------------------------------------------------------------------------
# Oracles: the series layer on lists of field-element tuples, Rabin's
# irreducibility search and the full scan of tame starts, which the library
# replaced; and the mod-p height certificate on top of the library's layer
# ---------------------------------------------------------------------------


def el_pad(F, a):
    """An element of the finite field F (a MonicQuotient) as a tuple of
    F.deg residues mod p, the form the oracles below work on."""
    return tuple(a) + (0,) * (F.deg - len(a))


def el_zero(F):
    return (0,) * F.deg


def el_one(F):
    return el_pad(F, (1,))


def el_add(F, a, b):
    return tuple((x + y) % F.q for x, y in zip(a, b))


def el_neg(F, a):
    return tuple(-x % F.q for x in a)


def el_mul(F, a, b):
    """The schoolbook product of two elements, then division by F.g."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return el_pad(F, poly_divmod_monic(prod, F.g, F.q)[1])


def el_inv(F, a):
    return power(a, F.q ** F.deg - 2, partial(el_mul, F), el_one(F))


def el_elements(F):
    """Every element of F, p^f tuples."""
    return itertools.product(range(F.q), repeat=F.deg)


def flat(series):
    """A series of field-element tuples in the library's flat form."""
    return [c for el in series for c in el]


def flat_matrix(M):
    return [[flat(entry) for entry in row] for row in M]


def unflat(F, a, prec):
    """The first prec field elements of a flat series, zero past its end."""
    els = [tuple(a[s : s + F.deg]) for s in range(0, len(a), F.deg)]
    return (els + [el_zero(F)] * prec)[:prec]


def tuple_series_mul(F, a: list, b: list, prec: int) -> list:
    out = [el_zero(F)] * min(prec, max(len(a) + len(b) - 1, 0))
    for i, va in enumerate(a):
        if not any(va) or i >= prec:
            continue
        for j, vb in enumerate(b):
            if i + j >= prec:
                break
            out[i + j] = el_add(F, out[i + j], el_mul(F, va, vb))
    return out


def tuple_series_add(F, a: list, b: list) -> list:
    n = max(len(a), len(b))
    return [
        el_add(F, a[i] if i < len(a) else el_zero(F), b[i] if i < len(b) else el_zero(F))
        for i in range(n)
    ]


def tuple_series_ops(F, prec: int):
    """Entry product and sum for :func:`ops_mat_mul` over F[[u]]/u^prec."""
    return (
        lambda a, b: tuple_series_mul(F, a, b, prec),
        lambda a, b: tuple_series_add(F, a, b),
    )


def tuple_series_neg(F, a: list) -> list:
    return [el_neg(F, v) for v in a]


def tuple_series_val(F, a: list, prec: int) -> int | None:
    for i, v in enumerate(a):
        if i >= prec:
            break
        if any(v):
            return i
    return None


def tuple_series_inv_unit(F, a: list, prec: int) -> list:
    if not a or not any(a[0]):
        raise InputError("series inverse needs a unit constant term")
    inv0 = el_inv(F, a[0])
    out = [inv0]
    for k in range(1, prec):
        acc = el_zero(F)
        for i in range(1, min(k, len(a) - 1) + 1):
            acc = el_add(F, acc, el_mul(F, a[i], out[k - i]))
        out.append(el_neg(F, el_mul(F, inv0, acc)))
    return out


def tuple_mat_minor(mat, i, j):
    return [row[:j] + row[j + 1 :] for r, row in enumerate(mat) if r != i]


def tuple_series_det(F, mat, prec: int) -> list:
    d = len(mat)
    if d == 1:
        return list(mat[0][0])
    acc: list = []
    sign = 1
    for j in range(d):
        sub = tuple_series_det(F, tuple_mat_minor(mat, 0, j), prec)
        term = tuple_series_mul(F, mat[0][j], sub, prec)
        if sign < 0:
            term = tuple_series_neg(F, term)
        acc = tuple_series_add(F, acc, term)
        sign = -sign
    return acc


def tuple_series_adjugate(F, mat, prec: int):
    d = len(mat)
    if d == 1:
        return [[[el_one(F)]]]
    out = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            sub = tuple_series_det(F, tuple_mat_minor(mat, i, j), prec)
            if (i + j) % 2:
                sub = tuple_series_neg(F, sub)
            out[j][i] = sub  # transpose of cofactors
    return out


def tuple_series_solve(F, A, M, prec: int):
    """C with A*C = M over F[[u]]/u^prec', prec' = prec - 2*val(det A).

    Returns (C, prec').  Raises NotHeightError when the unique Laurent
    solution is not integral, PrecisionError when det A vanishes entirely at
    this truncation.
    """
    det = tuple_series_det(F, A, prec)
    v = tuple_series_val(F, det, prec)
    if v is None:
        raise PrecisionError("matrix determinant vanishes at this u-precision")
    unit = det[v:]
    unit_inv = tuple_series_inv_unit(F, unit, max(prec - v, 1))
    adj = tuple_series_adjugate(F, A, prec)
    out_prec = prec - 2 * v
    if out_prec <= 0:
        raise PrecisionError("u-precision exhausted by determinant valuation")
    C = []
    for row in ops_mat_mul(adj, M, *tuple_series_ops(F, prec)):
        C.append([])
        for acc in row:
            t = tuple_series_mul(F, acc, unit_inv, prec - v)
            if any(any(c) for c in t[:v]):
                raise NotHeightError(
                    "solution acquires a pole: no witness at this height"
                )
            C[-1].append(t[v:])
    return C, out_prec


def divmod_polgcd(a: tuple, b: tuple, p: int) -> tuple:
    """Euclid's algorithm over F_p through poly_divmod_monic, which builds
    each quotient that the gcd throws away."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        a, b = b, poly_divmod_monic(a, tuple((inv * c) % p for c in b), p)[1]
    return a


def rabin_is_irreducible(mod: tuple, p: int) -> bool:
    """Rabin's test for a monic polynomial of degree f >= 2 over F_p."""
    f = len(mod) - 1
    R = MonicQuotient(mod, p)  # F_p[y]/(mod), a field iff the test passes
    y = el_pad(R, (0, 1))
    if el_pad(R, R.pow(y, p ** f)) != y:
        return False
    primes = set()
    ff = f
    d = 2
    while d * d <= ff:
        if ff % d == 0:
            primes.add(d)
            while ff % d == 0:
                ff //= d
        d += 1
    if ff > 1:
        primes.add(ff)
    for t in primes:
        z = el_pad(R, R.pow(y, p ** (f // t)))
        if len(divmod_polgcd(mod, tuple((a - b) % p for a, b in zip(z, y)), p)) > 1:
            return False
    return True


def rabin_modulus(p: int, f: int) -> tuple:
    """The first monic irreducible of degree f in lexicographic coefficient
    order from the constant term up, by Rabin's test on every candidate."""
    if f == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=f):
        mod = tuple(tail) + (1,)
        if mod[0] == 0:
            continue
        if rabin_is_irreducible(mod, p):
            return mod
    raise AssertionError("irreducible polynomial must exist")


def scan_tame_starts(p: int, d: int, seq) -> tuple:
    """Every start a_0 in [0, q], q = p^d - 1, of the cycle p*a_{i+1} = a_i
    + q*n_i, by running the cycle from each of the q + 1 starts."""
    q = p ** d - 1
    starts = []
    for a0 in range(q + 1):
        a = a0
        ok = True
        for i in range(d):
            t = a + q * seq[i]
            if t % p:
                ok = False
                break
            a = t // p
        if ok and a == a0:
            starts.append(a0)
    return tuple(starts)


def modp_height_witness(field, matrix, e: int, r: int, uprec: int):
    """Witness A*B = u^{e*r} * I over F_q[[u]] for a matrix of field-element
    series (as etale_to_kisin returns it), by the library's series layer:
    the mod-p incarnation of the height condition (E is congruent to u^e
    there), re-verified by multiplication."""
    F = field
    d = len(matrix)
    A = flat_matrix(matrix)
    er = e * r
    if er >= uprec:
        raise PrecisionError("u-precision too small for this height")
    tgt = [0] * (er * F.deg) + list(el_one(F))
    M = [[list(tgt) if i == j else [] for j in range(d)] for i in range(d)]
    C, avail = SeriesFactorization(F, A, uprec).solve(M, uprec)
    prod = ops_mat_mul(
        A,
        C,
        lambda a, b: series_mul(F, a, b, avail),
        lambda a, b: series_add(F, a, b),
    )
    if not is_scalar_mod_u(prod, tgt, avail * F.deg, F.q):
        raise AssertionError("mod-p witness re-verification failed")
    return C, avail


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------


def test_gf_basic():
    """F = finite_field(p, f) for p in {3, 5, 7} and f <= 4: the p^f-th
    power fixes every element, a * a^(p^f - 2) is 1 for every nonzero a,
    and a product is the schoolbook product followed by division by F.g
    (every pair for p^f <= 125, else seeded pairs).  Elements enter padded
    to f residues, as the series layer's seeds do, or trimmed, as the ring
    returns them."""
    rng = random.Random(7)
    for p, f in itertools.product((3, 5, 7), range(1, 5)):
        F, order = finite_field(p, f), p ** f
        els = list(el_elements(F))
        for a in els:
            assert F.pow(a, order) == poly_trim(a), (p, f, a)
            if any(a):
                assert F.mul(a, F.pow(a, order - 2)) == (1,), (p, f, a)
        pairs = (
            itertools.product(els, repeat=2)
            if order <= 125
            else ((rng.choice(els), rng.choice(els)) for _ in range(3000))
        )
        for a, b in pairs:
            want = el_mul(F, a, b)
            assert el_pad(F, F.mul(a, b)) == want, (p, f, a, b)
            assert el_pad(F, F.mul(poly_trim(a), poly_trim(b))) == want, (p, f, a, b)


def test_gf_modulus_is_irreducible():
    F27 = finite_field(3, 3)
    # no roots in F_3 means no linear factor; degree 3 then has no factor
    mod = F27.g
    for c in range(3):
        val = sum(coef * c ** i for i, coef in enumerate(mod)) % 3
        assert val != 0
    # first monic irreducible in lexicographic order, frozen
    pinned = {
        (3, 1): (0, 1), (3, 2): (1, 0, 1), (3, 3): (1, 0, 2, 1),
        (5, 1): (0, 1), (5, 2): (1, 1, 1), (5, 3): (1, 0, 1, 1),
    }
    for (p, f), modulus in pinned.items():
        assert finite_field(p, f).g == modulus


def test_gf_prime_field_mul_matches_polynomial_path():
    # the quotient ring F_p[y]/(y) against (a*b) % p and against the
    # product-then-monic-division path
    for p in (3, 5, 7):
        F = finite_field(p, 1)
        for a in el_elements(F):
            for b in el_elements(F):
                r = poly_divmod_monic(poly_convolve(a, b), F.g, p)[1]
                got = el_pad(F, F.mul(a, b))
                assert got == r + (0,) * (1 - len(r)) == ((a[0] * b[0]) % p,)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_polgcd_matches_quotient_building_gcd(p):
    """The remainder-only gcd against Euclid through poly_divmod_monic:
    the same last nonzero remainder, on random polynomials with common
    factors, zeros and trailing zeros."""
    rng = random.Random(1000 + p)

    def rand(deg):
        return tuple(rng.randrange(p) for _ in range(deg + 1)) + (0,) * rng.randrange(2)

    for _ in range(300):
        a, b = rand(rng.randrange(-1, 9)), rand(rng.randrange(-1, 7))
        if rng.randrange(2):
            c = rand(rng.randrange(4))
            a, b = poly_mul(a, c, p), poly_mul(b, c, p)
        assert _fp_polgcd(a, b, p) == divmod_polgcd(a, b, p), (a, b)


# ---------------------------------------------------------------------------
# the flat series layer, the field search and the tame starts, each against
# its oracle
# ---------------------------------------------------------------------------

FIELDS = [(3, 1), (3, 2), (5, 3)]


def random_series(rng, F, length, unit=False):
    """Field-element tuples, a third of them zero; a unit constant term
    when asked."""
    out = [
        tuple(rng.randrange(F.q) for _ in range(F.deg)) if rng.randrange(3) else el_zero(F)
        for _ in range(length)
    ]
    if unit and length:
        while not any(out[0]):
            out[0] = tuple(rng.randrange(F.q) for _ in range(F.deg))
    return out


@pytest.mark.parametrize("pf", FIELDS)
def test_flat_series_product_and_inverse_match_tuple_oracle(pf):
    F = finite_field(*pf)
    rng = random.Random(F.q ** F.deg)
    for _ in range(80):
        a = random_series(rng, F, rng.randrange(8))
        b = random_series(rng, F, rng.randrange(8))
        prec = rng.randint(1, 12)
        got = series_mul(F, flat(a), flat(b), prec)
        assert len(got) % F.deg == 0 and len(got) <= prec * F.deg, (a, b, prec)
        assert all(0 <= c < F.q for c in got)
        want = tuple_series_mul(F, a, b, prec)
        assert unflat(F, got, prec) == unflat(F, flat(want), prec), (a, b, prec)
        assert series_val(F, flat(a), prec) == tuple_series_val(F, a, prec), a
    for _ in range(40):
        a = random_series(rng, F, rng.randint(1, 10), unit=True)
        prec = rng.randint(1, 16)
        got = series_inv_unit(F, flat(a), prec)
        assert unflat(F, got, prec) == tuple_series_inv_unit(F, a, prec), (a, prec)
    for bad in ([], [el_zero(F), el_one(F)]):
        with pytest.raises(InputError):
            series_inv_unit(F, flat(bad), 3)


def _solve_outcome(solve, F, prec, conv):
    try:
        C, out_prec = solve(prec)
    except (NotHeightError, PrecisionError) as exc:
        return type(exc), str(exc)
    return out_prec, [[unflat(F, conv(e), out_prec) for e in row] for row in C]


@pytest.mark.parametrize("pf", FIELDS)
def test_flat_series_linear_algebra_matches_tuple_oracle(pf):
    """Determinant, adjugate and solve over F_{p^f}[[u]]: the same series,
    the same u-precision, or the same refusal with the same message.  A
    matrix is factored once, at prec, and solved at every precision up to
    prec, each against the one-shot solve at that precision."""
    F = finite_field(*pf)
    rng = random.Random(7 * F.q ** F.deg)
    seen = set()
    for _ in range(60):
        d = rng.randint(1, 3)
        A = [
            [random_series(rng, F, rng.randrange(5)) for _ in range(d)]
            for _ in range(d)
        ]
        for i in range(d):  # a diagonal that is often u^k times a unit
            shift = [el_zero(F)] * rng.randrange(3)
            A[i][i] = shift + random_series(rng, F, 3, unit=True)
        M = [
            [random_series(rng, F, rng.randrange(6)) for _ in range(d)]
            for _ in range(d)
        ]
        prec = rng.randint(1, 12)
        det = series_det(F, flat_matrix(A), prec)
        assert unflat(F, det, prec) == unflat(F, flat(tuple_series_det(F, A, prec)), prec)
        adj = series_adjugate(F, flat_matrix(A), prec)
        want_adj = tuple_series_adjugate(F, A, prec)
        for i in range(d):
            for j in range(d):
                assert unflat(F, adj[i][j], prec) == unflat(F, flat(want_adj[i][j]), prec)
        factored = SeriesFactorization(F, flat_matrix(A), prec)
        for lower in range(1, prec + 1):
            got = _solve_outcome(partial(factored.solve, flat_matrix(M)), F, lower, list)
            want = _solve_outcome(partial(tuple_series_solve, F, A, M), F, lower, flat)
            assert got == want, (A, M, prec, lower)
            seen.add(got[0] if isinstance(got[0], type) else "solved")
        with pytest.raises(InputError):
            factored.solve(flat_matrix(M), prec + 1)
    assert seen == {"solved", NotHeightError, PrecisionError}


def test_irreducibility_test_matches_rabin():
    """Root test, then Ben-Or's test, on every monic candidate with a
    nonzero constant term for p^f <= 729, against Rabin's test."""
    for p, fmax in ((2, 9), (3, 6), (5, 4), (7, 3), (11, 2), (13, 2), (23, 2)):
        for f in range(2, fmax + 1):
            for tail in itertools.product(range(1, p), *[range(p)] * (f - 1)):
                mod = tail + (1,)
                new = not _has_root(mod, p) and _is_irreducible(mod, p)
                assert new == rabin_is_irreducible(mod, p), mod


def test_gf_create_matches_rabin_search():
    """The same modulus as the search that ran Rabin's test on every
    candidate, for every (p, f) with p^f <= 3^8; and the degree-15 modulus
    over F_3, pinned from that search."""
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
              71, 73, 79):
        f = 1
        while p ** f <= 3 ** 8:
            assert finite_field(p, f).g == rabin_modulus(p, f), (p, f)
            f += 1
    assert finite_field(3, 15).g == (1,) + (0,) * 12 + (1, 2, 1)


def test_tame_oracle_starts_match_full_scan():
    """Every sequence with p^d <= 729 for the odd primes p < 27 (a larger p
    allows only period 1), and seeded sequences at d = 7, 8 over p = 3: the
    digit-by-digit starts are the scanned ones, and the exponent is their
    class mod p^d - 1."""
    spans = ((3, 6), (5, 4), (7, 3), (11, 2), (13, 2), (17, 2), (19, 2), (23, 2))
    cases = [
        (p, seq)
        for p, dmax in spans
        for d in range(1, dmax + 1)
        for seq in itertools.product(range(p), repeat=d)
    ]
    rng = random.Random(20080527)
    for d in (7, 8):
        cases += [(3, tuple(rng.randrange(3) for _ in range(d))) for _ in range(8)]
    for p, seq in cases:
        d = len(seq)
        res = tame_character_oracle(p, d, seq)
        starts = scan_tame_starts(p, d, seq)
        assert res.consistent_starts == starts, (p, seq)
        assert res.exponent == starts[0] % (p ** d - 1), (p, seq)


# ---------------------------------------------------------------------------
# height witnesses
# ---------------------------------------------------------------------------


def test_height_rank1():
    m = kisin_new(3, 2, E13, [[(3, 1)]], r_hint=1)
    w = height_witness(m, 1)
    assert w.B[0][0] == (1,)
    assert_witness(m, w, E13.power(1, 9))

    m2 = kisin_new(3, 2, E13, [[(1,)]], r_hint=2)
    w2 = height_witness(m2, 2)
    assert w2.B[0][0] == E13.power(2, 9)
    assert_witness(m2, w2, E13.power(2, 9))


def test_height_rank2_swap():
    m = kisin_new(3, 2, E13, [[(), (3, 1)], [(1,), ()]], r_hint=1)
    w = height_witness(m, 1)
    assert_witness(m, w, E13.power(1, 9))


def test_height_witness_factors_once(monkeypatch):
    """For n >= 2 every p-digit solves with the one factorization of A mod
    p: the determinant of the full matrix is taken once per witness (the
    minors that it and the adjugate expand are smaller)."""
    real = kisin.series_det
    full = []

    def counting(F, mat, prec):
        full.append(len(mat) == rank)
        return real(F, mat, prec)

    monkeypatch.setattr(kisin, "series_det", counting)
    cases = [
        ([[(3, 1)]], 1),
        ([[(), (3, 1)], [(1,), ()]], 1),
        ([[(0, 1), (1,), ()], [(), (3, 1), (2,)], [(1,), (), (1,)]], 2),
    ]
    for n in (2, 3):
        q = 3 ** n
        for matrix, r in cases:
            rank = len(matrix)
            m = kisin_new(3, n, E13, matrix, r_hint=r)
            full.clear()
            assert_witness(m, height_witness(m, r), E13.power(r, q))
            assert full.count(True) == 1, (n, matrix)


def test_not_height():
    m = kisin_new(3, 1, E13, [[(0, 1)]], r_hint=1)
    with pytest.raises(NotHeightError):
        height_witness(m, 0)


def test_kisin_new_validation():
    with pytest.raises(InputError):
        kisin_new(3, 2, E13, [[(9, 1)]])  # coefficient >= p^n
    with pytest.raises(InputError):
        kisin_new(3, 1, E13, [[(1,), ()]])  # not square
    with pytest.raises(InputError):
        kisin_new(2, 1, E13, [[(1,)]])


def test_u_power_witness():
    # E = u+3, n=2, r=1, N=2: u^2 = (u-3)(u+3) mod 9, so B' = B*(u-3)
    m = kisin_new(3, 2, E13, [[(3, 1)]], r_hint=1)
    wh = height_witness(m, 1)
    wu = u_power_witness(m, wh, 2)
    assert wu.B[0][0] == (6, 1)
    assert_witness(m, wu, (0, 0, 1))
    # the brute-forced index is the least admissible exponent: one below fails
    with pytest.raises(InputError):
        u_power_witness(m, wh, 1)
    # n=1: E^r = u^{er} mod p, so N = e*r works with h = 1
    m1 = kisin_new(3, 1, E13, [[(0, 1)]], r_hint=1)
    w1 = height_witness(m1, 1)
    wu1 = u_power_witness(m1, w1, 1)
    assert wu1.B == w1.B
    # too small an exponent is rejected
    m2 = kisin_new(3, 1, eisenstein_validate((3, 0, 1), 3), [[(0, 0, 1)]], r_hint=1)
    w2 = height_witness(m2, 1)
    with pytest.raises(InputError):
        u_power_witness(m2, w2, 1)
    # u^N for N <= 0 is no annihilation exponent, whatever divides it
    for N in (0, -2):
        with pytest.raises(InputError, match="N must be >= 1"):
            u_power_witness(m1, w1, N)


def test_witnesses_double_the_u_precision_on_a_precision_refusal():
    """diag(E, E, E) over E = u^2 + 3 (u^2 mod 3) is refused for precision
    at its default u-precision 12 and answers at 24, with the witness
    certified to u^12; N is the exact nilpotency index unless given."""
    E = eisenstein_validate((3, 0, 1), 3)
    diag = [[(0, 0, 1) if i == j else () for j in range(3)] for i in range(3)]
    m = kisin_new(3, 1, E, diag)
    assert m.uprec == 12
    with pytest.raises(PrecisionError):
        kisin.witnesses(m, 1, doublings=0)
    wit, N, wu = kisin.witnesses(m, 1)
    assert (wit.uprec, N) == (12, 2)
    assert_witness(m, wit, E.power(1, 3))
    assert_witness(m, wu, (0,) * N + (1,))
    assert kisin.witnesses(m, 1, N=3)[1] == 3


def test_uprec_guard():
    m = kisin_new(3, 1, E13, [[(0, 1)]], uprec=2, r_hint=1)
    with pytest.raises(PrecisionError):
        height_witness(m, 1)
    with pytest.raises(InputError):
        kisin_new(3, 1, E13, [[(0, 0, 0, 1)]], uprec=2)


# ---------------------------------------------------------------------------
# tame lifts
# ---------------------------------------------------------------------------


def test_tame_lift_structure():
    spec = tame_lift_build(3, 2, (1, 0))
    assert spec.module.entries[0][1] == (0, 1)  # (u+p) reduced mod p
    assert spec.module.entries[1][0] == (1,)
    assert spec.filtered_frobenius == (3, 1)
    assert spec.filtration_jumps == (0, 1)
    assert spec.exponent == 1
    assert spec.height == 1
    with pytest.raises(InputError):
        tame_lift_build(3, 2, (3, 0))
    with pytest.raises(InputError):
        tame_lift_build(3, 2, (1,))


def test_tame_lift_char0_matrix():
    spec = tame_lift_build(3, 1, (2,), n=2)
    assert spec.module.entries[0][0] == (0, 6, 1)  # (u+3)^2 mod 9
    w = height_witness(spec.module, 2)
    assert_witness(spec.module, w, E13.power(2, 9))


def test_tame_oracle_examples():
    assert tame_character_oracle(3, 1, (0,)).exponent == 0
    assert tame_character_oracle(3, 1, (1,)).exponent == 1
    assert tame_character_oracle(3, 1, (2,)).exponent == 0  # 2 = q for d=1
    assert tame_character_oracle(3, 2, (1, 0)).exponent == 1
    assert tame_character_oracle(3, 3, (0, 0, 0)).exponent == 0


def test_tame_builder_matches_oracle_all_sequences():
    for d in (1, 2, 3):
        for seq in itertools.product(range(3), repeat=d):
            built = tame_lift_build(3, d, seq)
            oracle = tame_character_oracle(3, d, seq)
            assert built.exponent == oracle.exponent, seq
    # a couple of p = 5 spot checks
    for seq in ((1, 0), (4, 4), (2, 3)):
        built = tame_lift_build(5, 2, seq)
        oracle = tame_character_oracle(5, 2, seq)
        assert built.exponent == oracle.exponent


# ---------------------------------------------------------------------------
# etale conversion
# ---------------------------------------------------------------------------


def test_etale_identity():
    F3 = finite_field(3, 1)
    em = etale_new(F3, ((Laurent(0, (el_one(F3),)),),), e=1)
    res = etale_to_kisin(em)
    assert res.rescale_power == 0 and res.r == 0


def test_etale_u_cubed():
    F3 = finite_field(3, 1)
    em = etale_new(F3, ((Laurent(3, (el_one(F3),)),),), e=1)
    res = etale_to_kisin(em)
    assert res.r == 3 and res.det_val == 3
    modp_height_witness(F3, res.matrix, 1, 3, em.uprec)
    with pytest.raises(NotHeightError):
        modp_height_witness(F3, res.matrix, 1, 2, em.uprec)


def test_etale_negative_power():
    F3 = finite_field(3, 1)
    em = etale_new(F3, ((Laurent(-1, (el_one(F3),)),),), e=1)
    res = etale_to_kisin(em)
    assert res.rescale_power == 1 and res.r == 1 and res.det_val == 1
    km = result_as_kisin_module(res, 3, E13)
    w = height_witness(km, 1)
    assert_witness(km, w, (0, 1))  # E = u mod 3


def test_etale_rank2_over_f9():
    F9 = finite_field(3, 2)
    one = el_one(F9)
    gen = (0, 1)
    entries = (
        (Laurent(1, (one,)), Laurent(0, (el_zero(F9),))),
        (Laurent(0, (gen,)), Laurent(2, (one,))),
    )
    em = etale_new(F9, entries, e=1)
    res = etale_to_kisin(em)
    assert res.det_val == 3 and res.r == 3
    modp_height_witness(F9, res.matrix, 1, res.r, em.uprec)


def test_etale_rejects_singular():
    F3 = finite_field(3, 1)
    with pytest.raises(InputError):
        etale_new(F3, ((Laurent(0, (el_zero(F3),)),),), e=1)
