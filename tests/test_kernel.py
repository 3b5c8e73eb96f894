"""The shared kernel: one exponentiation, one matrix product
(:func:`ramibound.padic.mat_mul`, here with the series dots) and one
witness check, each against an independent naive computation; and the
kernel that skips trivial work (no product by one, zero coefficients
skipped) against the dense code it replaced."""

import operator
import random
from functools import partial

import pytest

from ramibound.errors import InputError, PrecisionError
from ramibound.kisin import (
    _mat_mul_series,
    _series_dot,
    finite_field,
    is_scalar_mod_u,
    series_add,
    series_mul,
)
from ramibound.padic import (
    LocalElement,
    LocalFieldModel,
    MonicQuotient,
    eisenstein_validate,
    mat_mul,
    poly_add,
    poly_convolve,
    poly_divmod_monic,
    poly_mul,
    poly_trim,
    power,
)
from ramibound.witt import (
    LocalRing,
    _packed_ops,
    _padd,
    _pmul,
    _solve_ghosts,
    _var,
    companion_add,
)

from test_kisin import (
    el_add,
    el_elements,
    el_mul,
    el_one,
    el_pad,
    el_zero,
    flat,
    flat_matrix,
    naive_mat_mul,
    ops_mat_mul,
    tuple_series_ops,
    unflat,
)
from test_witt import schoolbook_pmul

KS = range(21)


def repeated(x, k, mul, one):
    out = one
    for _ in range(k):
        out = mul(out, x)
    return out


def test_power_counts_no_final_squaring():
    # no product by the identity and no squaring past the top bit of k
    for k in range(1, 65):
        calls = []

        def mul(a, b):
            calls.append(1)
            return a * b

        assert power(3, k, mul, 1) == 3 ** k
        assert len(calls) == k.bit_length() - 2 + bin(k).count("1")
    calls = []
    assert power(3, 0, lambda a, b: calls.append(1), 1) == 1
    assert not calls


def test_local_element_pow_matches_repeated_product():
    model = LocalFieldModel(eisenstein_validate((3, 0, 0, 1), 3), 4)
    unit = model.from_coeffs((2, 1, 5))
    small = model.from_coeffs((3, 1))
    # x^2 / x: coefficients of x, one x-unit of precision lost
    reduced = model.uniformizer_pow(2).shift_down()
    assert reduced.aprec < model.full_aprec
    for x in (unit, small, reduced):
        for k in KS:
            got = x.pow(k)
            want = repeated(x, k, operator.mul, model.one())
            assert (got.coeffs, got.aprec) == (want.coeffs, want.aprec), (x, k)


def test_gf_pow_matches_repeated_product():
    F = finite_field(3, 2)
    for a in el_elements(F):
        for k in KS:
            want = repeated(a, k, partial(el_mul, F), el_one(F))
            assert el_pad(F, F.pow(a, k)) == want, (a, k)


@pytest.mark.parametrize("q", [9, 27])
@pytest.mark.parametrize("coeffs", [(3, 1), (-3, 0, 1), (3, 3, 1)])
def test_eisenstein_power_matches_repeated_product(q, coeffs):
    E = eisenstein_validate(coeffs, 3)
    for r in KS:
        want = repeated(E.coeffs, r, lambda a, b: poly_mul(a, b, q), (1,))
        assert E.power(r, q) == want, r


def test_companion_lpow_matches_repeated_product():
    R = LocalRing(LocalFieldModel(eisenstein_validate((3, 0, 1), 3), 6))
    for x in ((2, 1), (-3, 4), (0, 1)):
        for k in KS:
            want = repeated(x, k, R.companion.mul, (1,))
            assert R.companion.pow(x, k) == want, (x, k)


QS = [None, 3, 9, 3 ** 10]


@pytest.mark.parametrize("g", [(0, 1), (3, 0, 1), (-3, 6, 9, 0, -3, 1), (6, 3, 0, 0, 1)])
def test_companion_mul_matches_division_kernel(g):
    """The quotient ring's product, with g's low terms listed once, is the
    convolution reduced by poly_divmod_monic and by the loop that built a
    quotient, over Z (the companion ring) and mod q; g and every result are
    trimmed."""
    for q in QS:
        rng = random.Random(len(g) * 11 + (q or 0))
        R = MonicQuotient(g + (0, 0), q)
        assert (R.g, R.deg, R.q) == (g, len(g) - 1, q)
        for _ in range(60):
            x = tuple(rng.randrange(-50, 51) for _ in range(rng.randrange(len(g) + 1)))
            y = tuple(
                rng.randrange(-9, 10) * 3 ** rng.randrange(4)
                for _ in range(rng.randrange(len(g) + 1))
            ) + (0,) * rng.randrange(2)
            prod = poly_convolve(x, y)
            want = quotient_building_divmod(prod, g, q)[1]
            assert R.mul(x, y) == poly_divmod_monic(prod, g, q)[1] == want, (x, y, q)
            assert R.reduce(prod) == want and (not want or want[-1])


@pytest.mark.parametrize("q", QS)
def test_quotient_refuses_non_monic(q):
    """Monic means leading coefficient 1 mod q; the zero polynomial and a
    leading coefficient 0 mod q are refused as well."""
    refused = [(3, 2), (1, -1), (), (0, 0)]
    refused += [(1, 10)] if q is None else [(1, 1, q)]
    for g in refused:
        with pytest.raises(InputError, match="monic"):
            MonicQuotient(g, q)
        with pytest.raises(InputError, match="monic"):
            poly_divmod_monic((1, 2, 3), g, q)
    if q is not None:
        R = MonicQuotient((3, 1 + q, 0), q)  # x + 3, as 1 + q is 1 mod q
        assert R.deg == 1 and R.mul((2,), (0, 1)) == poly_trim(((-6) % q,))


def test_packed_ppow_matches_repeated_product():
    # X_0 + Y_0^2 - 3 in the two variables X_0, Y_0 (n = 1)
    x = _padd(_padd(_var(0, 8), _var(1, 8, 2)), {0: -3})
    pow_ = _packed_ops(partial(_pmul, bits=8, n=1, p=3), 8)[0]
    for k in range(9):
        assert pow_(x, k) == repeated(x, k, schoolbook_pmul, {0: 1}), k


def test_power_refuses_negative_exponent():
    calls = []

    def mul(a, b):
        calls.append(1)
        if len(calls) > 100:
            raise RuntimeError("power does not terminate")
        return a * b

    for k in (-1, -3, -64):
        with pytest.raises(InputError):
            power(3, k, mul, 1)
    assert not calls


def _random_matrix(rng, rows, q, cols=None):
    return tuple(
        tuple(
            poly_trim(tuple(rng.randrange(q) for _ in range(rng.randrange(6))))
            for _ in range(rows if cols is None else cols)
        )
        for _ in range(rows)
    )


# (l, d, m) of non-square products l x d times d x m: a 1 x d row vector
# times a square matrix, and l != m
NON_SQUARE = [(1, 2, 2), (1, 3, 3), (2, 3, 1), (3, 1, 2), (1, 2, 3), (3, 2, 1)]


def _truncated(M, prec):
    return tuple(tuple(poly_trim(entry[:prec]) for entry in row) for row in M)


@pytest.mark.parametrize("q", [9, 27])
def test_series_matrix_product_matches_naive(q):
    rng = random.Random(20260)
    for _ in range(40):
        d = rng.randint(1, 3)
        A, B = _random_matrix(rng, d, q), _random_matrix(rng, d, q)
        want = naive_mat_mul(A, B, q)
        assert _mat_mul_series(A, B, q, None) == tuple(map(tuple, want))
        for prec in (1, 3, 5):
            got = _mat_mul_series(A, B, q, prec)
            assert got == _truncated(want, prec), (A, B, prec)
    for l, d, m in NON_SQUARE:
        for _ in range(5):
            A, B = _random_matrix(rng, l, q, d), _random_matrix(rng, d, q, m)
            want = ops_mat_mul(
                A, B, lambda a, b: poly_mul(a, b, q), lambda a, b: poly_add(a, b, q)
            )
            assert _mat_mul_series(A, B, q, None) == want, (A, B)
            for prec in (1, 3, 5):
                got = _mat_mul_series(A, B, q, prec)
                assert got == _truncated(want, prec), (A, B, prec)


def gf_mat_mul(F, A, B, prec):
    """The product of SeriesFactorization.solve, on series of field-element
    tuples over F, in the library's flat form."""
    return mat_mul(flat_matrix(A), flat_matrix(B), _series_dot(
        lambda a, b: series_mul(F, a, b, prec),
        lambda a, b: series_add(F, a, b),
    ))


def random_gf_matrix(rng, elems, rows, cols):
    return [[[rng.choice(elems) for _ in range(rng.randrange(1, 5))]
             for _ in range(cols)] for _ in range(rows)]


def test_gf_series_matrix_product_matches_naive():
    F = finite_field(3, 2)
    rng = random.Random(7)
    elems = list(el_elements(F))
    for _ in range(20):
        d = rng.randint(1, 3)
        A, B = (random_gf_matrix(rng, elems, d, d) for _ in range(2))
        prec = rng.randint(1, 8)
        got = gf_mat_mul(F, A, B, prec)
        for i in range(d):
            for j in range(d):
                want = [el_zero(F)] * prec
                for k in range(d):
                    for s, a in enumerate(A[i][k]):
                        for t, b in enumerate(B[k][j]):
                            if s + t < prec:
                                want[s + t] = el_add(F, want[s + t], el_mul(F, a, b))
                assert unflat(F, got[i][j], prec) == want, (A, B, prec)
    for l, d, m in NON_SQUARE:
        for _ in range(4):
            A = random_gf_matrix(rng, elems, l, d)
            B = random_gf_matrix(rng, elems, d, m)
            prec = rng.randint(1, 8)
            got = gf_mat_mul(F, A, B, prec)
            want = ops_mat_mul(A, B, *tuple_series_ops(F, prec))
            assert [[unflat(F, x, prec) for x in row] for row in got] == [
                [(x + [el_zero(F)] * prec)[:prec] for x in row] for row in want
            ], (A, B, prec)


def _changed(M, i, j, t, zero, new):
    """M with coefficient t of entry (i, j) replaced by new(old)."""
    out = [[list(entry) for entry in row] for row in M]
    entry = out[i][j]
    entry.extend([zero] * (t + 1 - len(entry)))
    entry[t] = new(entry[t])
    return out


def _scalar(c, d):
    return [[list(c) if i == j else [] for j in range(d)] for i in range(d)]


def test_witness_check_integer_entries():
    q, prec, d = 9, 5, 2
    c = (0, 3, 1)
    M = _scalar(c, d)
    assert is_scalar_mod_u(M, c, prec, q)
    for i in range(d):
        for j in range(d):
            for t in range(prec + 3):
                bumped = _changed(M, i, j, t, 0, lambda v: v + 1)
                assert is_scalar_mod_u(bumped, c, prec, q) == (t >= prec)
                # adding q changes nothing mod q
                wrapped = _changed(M, i, j, t, 0, lambda v: v + q)
                assert is_scalar_mod_u(wrapped, c, prec, q)


def test_witness_check_gf_entries():
    """Series over F_9 in the flat form: f = 2 residues mod p per u-degree,
    so u-precision prec is 2*prec flat coefficients."""
    F = finite_field(3, 2)
    prec, d = 4, 3
    c = [el_zero(F), el_one(F)]
    M = _scalar(c, d)
    assert is_scalar_mod_u(flat_matrix(M), flat(c), prec * F.deg, F.q)
    for i in range(d):
        for j in range(d):
            for t in range(prec + 2):
                bumped = _changed(M, i, j, t, el_zero(F), lambda v: el_add(F, v, (0, 1)))
                ok = is_scalar_mod_u(flat_matrix(bumped), flat(c), prec * F.deg, F.q)
                assert ok == (t >= prec), (i, j, t)


# ---------------------------------------------------------------------------
# The kernel that skips trivial work, against the dense code it replaced
# ---------------------------------------------------------------------------


def schoolbook_convolve(a, b, prec=None):
    """The dense product: every coefficient of b, zeros included, against
    every nonzero coefficient of a."""
    if prec is not None:
        a, b = a[:prec], b[:prec]
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        if va:
            for k, vb in enumerate(b, i):
                out[k] += va * vb
    return out if prec is None else out[:prec]


def dense_divmod_monic(num, den, q=None):
    """Division by a monic polynomial that walks every low coefficient of
    the divisor at every elimination."""
    den = poly_trim(den)
    d = len(den) - 1
    low = den[:d]
    rem = list(num)
    quot = [0] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] if q is None else rem[i] % q
        if c:
            quot[i - d] = c
            for k, v in enumerate(low, i - d):
                rem[k] -= c * v
    rem = rem[:d] if q is None else [v % q for v in rem[:d]]
    return poly_trim(quot), poly_trim(rem)


def identity_start_power(x, k, mul, one):
    """Square-and-multiply from the identity, so x^1 is mul(one, x)."""
    out = one
    while k:
        if k & 1:
            out = mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return out


def geometric_seed(elem):
    """The inverse of a unit mod p as c^-1 sum_k (-h/c)^k, h the part of
    elem above its constant term, each power reduced by g mod p."""
    model = elem.model
    p, m, g = model.p, model.m, model.g.coeffs
    c_inv = pow(elem.coeffs[0] % p, -1, p)
    nil = [(-c_inv * v) % p for v in elem.coeffs]
    nil[0] = 0
    inv = [c_inv] + [0] * (m - 1)
    term = list(inv)
    for _ in range(m):
        _, rem = dense_divmod_monic(schoolbook_convolve(term, nil), g, p)
        term = [rem[i] if i < len(rem) else 0 for i in range(m)]
        inv = [(a + b) % p for a, b in zip(inv, term)]
    return tuple(inv)


def seeded_unit_inverse(elem):
    """unit_inverse from the geometric seed: Newton steps at full precision."""
    model = elem.model
    v = LocalElement(model, geometric_seed(elem), elem.aprec)
    digits = 1
    while digits < model.prec:
        v = v * (model.from_int(2) - elem * v)
        digits *= 2
    return LocalElement(model, v.coeffs, elem.aprec)


def checked_shift_down(elem):
    """shift_down with the valuation scan in front of its refusals."""
    model = elem.model
    xv = elem.xval()
    if xv is not None and xv < 1:
        raise PrecisionError("element is not divisible by the uniformizer")
    if elem.aprec < 1:
        raise PrecisionError("no precision left for division")
    q, p, g, m = model.q, model.p, model.g.coeffs, model.m
    z0 = elem.coeffs[0] % q
    if z0 % p != 0:
        raise PrecisionError("element is not divisible by the uniformizer")
    w_top = (-(z0 // p) * pow((g[0] // p) % q, -1, q)) % q
    vec = [(elem.coeffs[j] + w_top * g[j]) % q for j in range(1, m)] + [w_top]
    return LocalElement(model, tuple(vec), elem.aprec - 1)


# x^3+3x+3, x^4+6x^2+3, x^5-3x^4+9x^2+6x-3 and two binomials
DENSE_MODELS = [(3, 3, 0, 1), (3, 0, 6, 0, 1), (-3, 6, 9, 0, -3, 1)]
MODELS = DENSE_MODELS + [(3, 0, 0, 0, 0, 0, 1), (3,) + (0,) * 11 + (1,)]


def sparse_factor(rng, length, bound):
    """Zero-padded signed coefficients: each one zero with probability 2/3,
    then a run of trailing zeros."""
    body = [rng.choice([0, 0, rng.randrange(-bound, bound)]) for _ in range(length)]
    return body + [0] * rng.choice([0, 0, 1, 3])


def test_convolve_matches_schoolbook():
    rng = random.Random(90)
    for _ in range(800):
        bound = rng.choice([2, 9, 3 ** 24])
        a = sparse_factor(rng, rng.randrange(14), bound)
        b = sparse_factor(rng, rng.randrange(14), bound)
        if rng.randrange(3) == 0:  # dense, signed
            a = [rng.randrange(-bound, bound) for _ in range(rng.randrange(1, 14))]
        for prec in (None, 0, 1, rng.randrange(1, 30)):
            want = schoolbook_convolve(a, b, prec)
            assert poly_convolve(a, b, prec) == want, (a, b, prec)
            assert poly_convolve(tuple(a), tuple(b), prec) == want


@pytest.mark.parametrize("q", [None, 3, 9, 3 ** 12])
def test_divmod_matches_dense_walk(q):
    rng = random.Random(91 if q is None else q)
    divisors = MODELS + [(9, 0, 1), (0, 0, 1), (1,), (-6, 0, 0, 1)]
    for _ in range(400):
        monic = tuple(sparse_factor(rng, rng.randrange(5), 30)) + (1,)
        den = rng.choice(divisors + [monic])
        num = sparse_factor(rng, rng.randrange(30), 3 ** 20)
        want = dense_divmod_monic(num, den, q)
        assert poly_divmod_monic(num, den, q) == want, (num, den)
        prod = schoolbook_convolve(num, sparse_factor(rng, rng.randrange(14), 3 ** 20))
        assert poly_divmod_monic(prod, den, q) == dense_divmod_monic(prod, den, q)


def quotient_building_divmod(num, den, q):
    """The division loop as it was before it left each quotient digit in
    the slot it clears: a quotient list built and trimmed on every call,
    walking the divisor's low terms that are nonzero (mod q)."""
    den = poly_trim(den)
    d = len(den) - 1
    low = [(k - d, v) for k, v in enumerate(den[:d]) if (v if q is None else v % q)]
    rem = list(num)
    quot = [0] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] if q is None else rem[i] % q
        if c:
            quot[i - d] = c
            for k, v in low:
                rem[i + k] -= c * v
    rem = rem[:d] if q is None else [v % q for v in rem[:d]]
    return poly_trim(quot), poly_trim(rem)


@pytest.mark.parametrize("q", [None, 3, 9, 3 ** 12])
def test_remainder_kernel_matches_quotient_building_kernel(q):
    """The quotient ring's remainder and poly_divmod_monic, on one loop that
    builds no quotient list, against the loop that built one."""
    rng = random.Random(92 if q is None else q + 1)
    divisors = MODELS + [(9, 0, 1), (0, 0, 1), (1,), (-6, 0, 0, 1)]
    for _ in range(400):
        monic = tuple(sparse_factor(rng, rng.randrange(5), 30)) + (1,)
        den = rng.choice(divisors + [monic])
        num = sparse_factor(rng, rng.randrange(30), 3 ** 20)
        if rng.randrange(3) == 0:
            num = schoolbook_convolve(num, sparse_factor(rng, rng.randrange(14), 3 ** 20))
        want = quotient_building_divmod(num, den, q)
        assert poly_divmod_monic(num, den, q) == want, (num, den)
        R = MonicQuotient(den, q)
        assert R.reduce(num) == want[1], (num, den)
        assert R.reduce(tuple(num)) == want[1]


def test_power_matches_identity_start_on_integers():
    for x in (0, 1, -1, 2, -3, 7, 3 ** 20):
        for k in range(65):
            assert power(x, k, operator.mul, 1) == identity_start_power(
                x, k, operator.mul, 1
            ), (x, k)


@pytest.mark.parametrize("coeffs", DENSE_MODELS)
def test_local_element_pow_matches_identity_start(coeffs):
    model = LocalFieldModel(eisenstein_validate(coeffs, 3), 5)
    m, full = model.m, model.full_aprec
    rng = random.Random(len(coeffs))
    elems = [model.one(), model.zero(), model.uniformizer_pow(1)]
    for _ in range(12):
        vec = tuple(rng.randrange(model.q) for _ in range(m))
        elems.append(LocalElement(model, vec, full))
        elems.append(LocalElement(model, vec, rng.randrange(full)))
    elems.append(model.uniformizer_pow(3).shift_down())
    for x in elems:
        assert x.pow(1) is x
        for k in KS:
            got = x.pow(k)
            want = identity_start_power(x, k, operator.mul, model.one())
            assert (got.coeffs, got.aprec) == (want.coeffs, want.aprec), (x, k)


@pytest.mark.parametrize("coeffs", MODELS)
def test_companion_pow_matches_identity_start(coeffs):
    g = coeffs
    for q in QS:
        rng = random.Random(sum(coeffs) + (q or 0))
        R = MonicQuotient(g, q)
        for _ in range(6):
            x = tuple(rng.randrange(-9, 10) for _ in range(rng.randrange(len(g))))
            for k in range(12):
                got = R.pow(x, k)
                # x^1 is x itself, unreduced; the identity start reduces it
                want = identity_start_power(x, k, R.mul, (1,))
                assert R.reduce(got) == want, (x, k, q)
                assert got == want or k == 1


def test_gf_pow_matches_identity_start():
    for F in (finite_field(3, 1), finite_field(3, 2), finite_field(5, 3)):
        order = F.q ** F.deg
        rng = random.Random(order)
        elems = list(el_elements(F)) if order < 30 else [
            tuple(rng.randrange(F.q) for _ in range(F.deg)) for _ in range(20)
        ]
        for a in elems:
            for k in KS:
                want = identity_start_power(a, k, partial(el_mul, F), el_one(F))
                assert el_pad(F, F.pow(a, k)) == want, (a, k)


@pytest.mark.parametrize("q", [9, 27, 3 ** 10])
@pytest.mark.parametrize(
    "coeffs", [(-3, 1), (-3, 0, 1), (3, -6, 1), (-3, 6, 9, 0, -3, 1)]
)
def test_eisenstein_power_matches_identity_start(q, coeffs):
    E = eisenstein_validate(coeffs, 3)
    for r in range(5):
        want = identity_start_power(E.coeffs, r, lambda a, b: poly_mul(a, b, q), (1,))
        assert E.power(r, q) == want, r
    assert E.power(1, q) == tuple(c % q for c in coeffs)


@pytest.mark.parametrize("coeffs", MODELS)
def test_unit_inverse_matches_geometric_seed(coeffs):
    model = LocalFieldModel(eisenstein_validate(coeffs, 3), 6)
    rng = random.Random(7 * len(coeffs))
    full = model.full_aprec
    for _ in range(15):
        vec = [rng.randrange(model.q) for _ in range(model.m)]
        vec[0] = rng.choice([1, 2]) + 3 * rng.randrange(model.q // 3)
        aprec = rng.choice([full, rng.randrange(1, full)])
        unit = LocalElement(model, tuple(vec), aprec)
        got = unit.unit_inverse()
        want = seeded_unit_inverse(unit)
        assert (got.coeffs, got.aprec) == (want.coeffs, want.aprec), unit
        assert tuple(c % 3 for c in got.coeffs) == geometric_seed(unit)


@pytest.mark.parametrize("coeffs", MODELS)
def test_shift_down_matches_checked_version(coeffs):
    """Same quotient, or the same refusal in the same order: no precision
    left comes before not divisible."""
    model = LocalFieldModel(eisenstein_validate(coeffs, 3), 4)
    rng = random.Random(3 * len(coeffs))
    full = model.full_aprec
    seen = set()
    for _ in range(300):
        vec = tuple(
            rng.choice([0, 1, 3, 5, 9, 27]) * rng.randrange(1, 4) % model.q
            for _ in range(model.m)
        )
        aprec = rng.choice([0, 0, 1, rng.randrange(full + 1), full])
        elem = LocalElement(model, vec, aprec)
        try:
            want = checked_shift_down(elem)
        except PrecisionError as exc:
            with pytest.raises(PrecisionError) as got:
                elem.shift_down()
            assert str(got.value) == str(exc), elem
            seen.add(str(exc))
        else:
            got = elem.shift_down()
            assert (got.coeffs, got.aprec) == (want.coeffs, want.aprec), elem
            seen.add("divided")
    assert seen == {
        "divided",
        "no precision left for division",
        "element is not divisible by the uniformizer",
    }


def single_shifts(elem, k):
    """k single divisions by x, by the checked reference."""
    for _ in range(k):
        elem = checked_shift_down(elem)
    return elem


def expect(cond, *info):
    """A check that raises by itself, so it also runs under ``python -O``,
    where plain asserts are dropped."""
    if not cond:
        raise AssertionError(info)


def shift_cases(model, rng):
    """(element, k) pairs for shift_down: 300 of x^a times a random element,
    k up to a + 2 < 2m + 2, at full precision, below it, or near a; then 400
    of a random number of p-divisible coefficients followed by any, k up to
    m, at full precision, below m + 2, 0 or 1.  Coefficients are moved off
    [0, q) by multiples of q."""
    m, q, full = model.m, model.q, model.full_aprec
    for _ in range(300):
        a = rng.randrange(2 * m)
        rest = tuple(rng.randrange(q) for _ in range(m))
        base = model.uniformizer_pow(a) * model.from_coeffs(rest)
        aprec = rng.choice([full, rng.randrange(full + 1), a, a + 1, max(a - 1, 0)])
        vec = tuple(c + q * rng.randrange(-2, 3) for c in base.coeffs)
        yield LocalElement(model, vec, aprec), rng.randrange(a + 3)
    for _ in range(400):
        good = rng.randrange(m + 1)
        vec = [3 * rng.randrange(q) for _ in range(good)]
        vec += [rng.randrange(q) for _ in range(m - good)]
        vec = tuple(v + q * rng.randrange(-2, 3) for v in vec)
        aprec = rng.choice([full, rng.randrange(m + 2), 0, 1])
        yield LocalElement(model, vec, aprec), rng.randrange(m + 1)


def check_shifts_match_single_shifts(coeffs, seed):
    """shift_down(k) and div_by(k, inv) modulo g = coeffs run all k divisions
    by x on one list: same coefficients mod q, precision and refusal as k
    single shifts, the refusal being that of the first single division that
    fails (no precision left before not divisible), on the shift_cases drawn
    with the given seed."""
    model = LocalFieldModel(eisenstein_validate(coeffs, 3), 4)
    m, q = model.m, model.q
    rng = random.Random(seed)
    seen = set()
    for elem, k in shift_cases(model, rng):
        rest = tuple(rng.randrange(q) for _ in range(m - 1))
        inv = model.from_coeffs((rng.choice([1, 2]),) + rest).unit_inverse()
        try:
            want = single_shifts(elem, k)
        except PrecisionError as exc:
            with pytest.raises(PrecisionError) as got:
                elem.shift_down(k)
            expect(str(got.value) == str(exc), elem, k)
            if not elem.is_zero_at_prec():
                with pytest.raises(PrecisionError) as got:
                    elem.div_by(k, inv)
                expect(str(got.value) == str(exc), elem, k)
            seen.add(str(exc))
            continue
        got = elem.shift_down(k)
        expect((got.coeffs, got.aprec) == (want.coeffs, want.aprec), elem, k)
        quot = elem.div_by(k, inv)
        if elem.is_zero_at_prec():
            zero = quot.is_zero_at_prec() and quot.aprec == max(elem.aprec - k, 0)
            expect(zero, elem, k)
        else:
            prod = want * inv
            expect((quot.coeffs, quot.aprec) == (prod.coeffs, prod.aprec), elem, k)
        seen.add("divided" if k else "k = 0")
    expect(seen == {
        "divided",
        "k = 0",
        "no precision left for division",
        "element is not divisible by the uniformizer",
    }, seen)
    # both refusals apply: the first failing division decides
    if m >= 3:
        vec = (3, 3, 1) + (3,) * (m - 3)
        with pytest.raises(PrecisionError, match="no precision left"):
            LocalElement(model, vec, 2).shift_down(3)
        with pytest.raises(PrecisionError, match="not divisible"):
            LocalElement(model, vec, 3).shift_down(3)


@pytest.mark.parametrize("coeffs", MODELS)
def test_one_pass_shift_matches_single_shifts(coeffs):
    """The one-pass shift against single shifts modulo the MODELS.  Only g
    with a low term of degree 1 or more (the DENSE_MODELS) feed coefficients
    below the top."""
    check_shifts_match_single_shifts(coeffs, 5 * len(coeffs) + 1)


def test_ghost_solve_divides_by_no_unit_power():
    """z_0 is G_0 itself: the solver never divides by p^0 = 1."""
    divisors = []

    def div_exact(x, c):
        divisors.append(c)
        return tuple(v // c for v in x)

    g = (3, 0, 1)
    ops = (MonicQuotient(g).pow, companion_add, div_exact)
    ghosts = [(2, 1), (2 + 3 * 7, 1 + 3 * 5), (2 + 9 * 4, 1 + 9 * 2)]
    zs = _solve_ghosts(ghosts, 3, ops)
    assert zs[0] is ghosts[0]
    assert divisors == [3, 9]


def test_local_lift_drops_trailing_zeros():
    model = LocalFieldModel(eisenstein_validate((3,) + (0,) * 5 + (1,), 3), 4)
    R = LocalRing(model)
    assert R.lift(model.from_int(5)) == (5,)
    assert R.lift(model.zero()) == ()
    assert R.lift(model.uniformizer_pow(2)) == (0, 0, 1)
