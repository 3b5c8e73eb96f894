import operator
import random
from fractions import Fraction as F
from itertools import zip_longest

import pytest

from ramibound.kisin import finite_field, series_mul
from ramibound import padic
from ramibound.errors import (
    BaseMismatchError,
    InputError,
    NonUnitError,
    UndecidableError,
)
from ramibound.padic import (
    MR_LIMIT,
    EisensteinPoly,
    LocalElement,
    LocalFieldModel,
    LowerBound,
    MonicQuotient,
    QuotRing,
    eisenstein_validate,
    is_odd_prime,
    min_integer_strictly_above,
    odd_prime_factors,
    parse_poly,
    poly_add,
    poly_convolve,
    poly_divmod_monic,
    poly_mul,
    poly_trim,
    vp_int,
)


def eq_at_prec(a, b):
    """Equality of two local-field elements at the precision of both."""
    return (a - b).is_zero_at_prec()


def test_base_mismatch():
    g = eisenstein_validate((3, 0, 1), 3)
    a = LocalFieldModel(g, 4).one()
    for other in (LocalFieldModel(g, 5), LocalFieldModel(g, 4, e_norm=2)):
        b = other.one()
        for op in (operator.add, operator.mul, LocalElement.div):
            with pytest.raises(BaseMismatchError):
                op(a, b)
    with pytest.raises(BaseMismatchError):
        QuotRing(5, 1, eisenstein_validate((3, 1), 3), 1)


def test_eisenstein_validate():
    assert eisenstein_validate((3, 1), 3).e == 1
    assert eisenstein_validate((-3, 0, 1), 3).e == 2
    with pytest.raises(InputError):
        eisenstein_validate((-3, -1, 1), 3)  # degree-1 coefficient is a unit
    with pytest.raises(InputError):
        eisenstein_validate((3, 0, 2), 3)  # not monic
    with pytest.raises(InputError):
        eisenstein_validate((9, 0, 1), 3)  # constant valuation 2
    for p in (2, 9):  # p must be an odd prime
        with pytest.raises(InputError, match="odd prime"):
            eisenstein_validate((p, 1), p)
    assert eisenstein_validate((-3, 0, 1), 3).is_uniformizer_binomial()
    assert not eisenstein_validate((3, 3, 1), 3).is_uniformizer_binomial()


def test_quotient_ring_reduce():
    E = eisenstein_validate((3, 1), 3)
    ring = QuotRing(3, 2, E, 1)
    # u = -3 in the quotient, so u^2 = 9 = 0 mod 9
    assert ring.u_power(2) == ()
    assert ring.u_power(1) == (6,)


def test_quotient_ring_axioms_random():
    rng = random.Random(7)
    E = eisenstein_validate((3, 0, 1), 3)
    ring = QuotRing(3, 2, E, 2)
    deg = E.e * 2

    def rand():
        return ring.reduce(tuple(rng.randrange(9) for _ in range(deg)))

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        q = ring.q
        assert ring.mul(a, poly_add(b, c, q)) == poly_add(
            ring.mul(a, b), ring.mul(a, c), q
        )
        assert poly_add(a, b, q) == poly_add(b, a, q)
        assert ring.mul(a, b) == ring.mul(b, a)


def test_divide_by_monic_examples():
    # u^2 = (u - 3)(u + 3) + 9, and 9 = 0 mod 9
    q, r = poly_divmod_monic((0, 0, 1), (3, 1), 9)
    assert q == (6, 1) and r == ()
    E = eisenstein_validate((3, 1), 3)
    er = E.power(2, 9)
    q, r = poly_divmod_monic(er, er, 9)
    assert q == (1,) and r == ()
    q, r = poly_divmod_monic((0, 1), (3, 1), 9)
    assert q == (1,) and r == (6,)  # remainder -3


def naive_mul(a, b):
    """Schoolbook product over the integers, one coefficient at a time."""
    if not a or not b:
        return []
    return [
        sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        for k in range(len(a) + len(b) - 1)
    ]


def naive_divmod(num, den, q=None):
    """Long division by a monic polynomial, every coefficient reduced mod q
    after every step (q=None: exact integers); results trimmed."""
    red = (lambda v: v) if q is None else (lambda v: v % q)
    d = len(den) - 1
    rem = [red(v) for v in num]
    quot = [0] * max(len(rem) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        quot[i - d] = c
        for j in range(d + 1):
            rem[i - d + j] = red(rem[i - d + j] - c * den[j])
    return poly_trim(tuple(quot)), poly_trim(tuple(rem[:d]))


def test_divide_by_monic_roundtrip_random():
    rng = random.Random(11)
    q_mod = 3 ** 2
    for _ in range(500):
        num = tuple(rng.randrange(q_mod) for _ in range(rng.randrange(1, 8)))
        den = tuple(rng.randrange(q_mod) for _ in range(rng.randrange(1, 4))) + (1,)
        quo, rem = poly_divmod_monic(num, den, q_mod)
        back = poly_add(poly_mul(quo, den, q_mod), rem, q_mod)
        assert back == poly_add(num, (), q_mod)

    # the kernel against the naive oracles: mod q and over exact integers,
    # negative coefficients, binomial and non-binomial Eisenstein divisors
    rng = random.Random(12)
    divisors = [(3, 1), (3, 3, 1), (-3, 0, 1), (3,) + (0,) * 5 + (1,),
                (3,) + (0,) * 26 + (1,), (6, 3, 0, 9, 1)]
    for _ in range(600):
        q = rng.choice([None, 3 ** 2, 3 ** 24, 5 ** 3])
        bound = 3 ** 30 if q is None else q
        deg = rng.choice([0, 1, 6, 12, 27])
        a = tuple(rng.randrange(-bound, bound) for _ in range(rng.randrange(deg + 2)))
        b = tuple(rng.randrange(-bound, bound) for _ in range(rng.randrange(deg + 2)))
        prod = naive_mul(a, b)
        prec = rng.randrange(len(prod) + 3)
        assert poly_convolve(a, b) == prod
        assert poly_convolve(a, b, prec) == prod[:prec]
        den = rng.choice(divisors + [
            tuple(rng.randrange(-bound, bound) for _ in range(rng.randrange(4))) + (1,)
        ])
        assert poly_divmod_monic(a, den, q) == naive_divmod(a, den, q)
        if q is None:
            quo, rem = poly_divmod_monic(prod, den)
            assert len(rem) < len(den)
            back = [x + y for x, y in zip_longest(naive_mul(quo, den), rem, fillvalue=0)]
            assert poly_trim(tuple(back)) == poly_trim(tuple(prod))
        else:
            assert poly_mul(a, b, q) == poly_trim(tuple(v % q for v in prod))
            assert poly_divmod_monic(prod, den, q) == naive_divmod(prod, den, q)
    with pytest.raises(InputError):
        poly_divmod_monic((1, 2, 3), (3, 2))
    with pytest.raises(InputError):
        poly_divmod_monic((1, 2, 3), (3, 9), 9)


def seeded_operand(rng, length):
    """Signed coefficients of up to 200 bits, of one of three shapes: dense,
    zero-heavy (three in four zero) or a single term."""
    bits = rng.choice([1, 8, 30, 64, 200])

    def coeff():
        return rng.randrange(-(1 << bits), 1 << bits)

    shape = rng.randrange(3)
    if shape == 0:
        return [coeff() for _ in range(length)]
    if shape == 1:
        return [coeff() if rng.randrange(4) == 0 else 0 for _ in range(length)]
    out = [0] * length
    out[rng.randrange(length)] = coeff()
    return out


def test_packed_and_pair_products_agree(monkeypatch):
    """The packed product (one integer product of the packed operands) and
    the nonzero-pair loop give the same coefficients, and both the
    schoolbook product: poly_convolve on seeded operands of length 1 to 60,
    truncated and squared; MonicQuotient.mul modulo binomial and
    non-binomial g, over Z and mod q; kisin.series_mul over F_27.  Each
    product runs with packing forced, with packing off and at the module's
    ratio, which takes each strategy at least once."""
    taken = []
    real_terms = padic._packed_terms

    def spy(*args):
        terms = real_terms(*args)
        taken.append(terms > 0)
        return terms

    monkeypatch.setattr(padic, "_packed_terms", spy)
    default = padic.PACK_PAIRS_PER_COEFF

    def each_strategy(product):
        """product() packed whenever it has a nonzero pair, never packed,
        and at the module's ratio; the three must agree."""
        out = []
        for ratio in (0, 10 ** 9, default):
            monkeypatch.setattr(padic, "PACK_PAIRS_PER_COEFF", ratio)
            out.append(product())
        assert out[0] == out[1] == out[2]
        return out[0]

    rng = random.Random(20261019)
    for _ in range(300):
        a = seeded_operand(rng, rng.randint(1, 60))
        b = seeded_operand(rng, rng.randint(1, 60))
        want = naive_mul(a, b)
        assert each_strategy(lambda: poly_convolve(a, b)) == want, (a, b)
        prec = rng.randrange(len(want) + 3)
        got = each_strategy(lambda: poly_convolve(tuple(a), tuple(b), prec))
        assert got == want[:prec], (a, b, prec)
        square = naive_mul(a, a)
        assert each_strategy(lambda: poly_convolve(a, a)) == square, a
        assert each_strategy(lambda: poly_convolve(a, a, prec)) == square[:prec], a
    assert any(taken) and not all(taken)

    # x^m + a_0 for several a_0, and g with a second low term
    divisors = [(3, 1), (-3,) + (0,) * 11 + (1,), (3,) + (0,) * 26 + (1,),
                (3 ** 20,) + (0,) * 39 + (1,), (-1,) + (0,) * 29 + (1,),
                (3, 3) + (0,) * 25 + (1,), (6, 0, 9) + (0,) * 9 + (1,)]
    taken.clear()
    for _ in range(200):
        g = rng.choice(divisors)
        q = rng.choice([None, 3 ** 16, 3 ** 40, 5 ** 3])
        ring = MonicQuotient(g, q)
        m = ring.deg
        # operands of degree < m, and a few longer ones the binomial
        # reduction leaves to the division
        a = seeded_operand(rng, rng.randint(1, m + (2 if rng.randrange(5) == 0 else 0)))
        if q is not None and rng.randrange(2):  # reduced, as LocalElement keeps them
            a = [v % q for v in a]
        b = a if rng.randrange(4) == 0 else seeded_operand(rng, rng.randint(1, m))
        want = naive_divmod(naive_mul(a, b), g, q)[1]
        assert each_strategy(lambda: ring.mul(a, b)) == want, (g, q, a, b)
    assert any(taken) and not all(taken)

    F27 = finite_field(3, 3)
    taken.clear()
    for _ in range(60):
        prec = rng.randint(1, 20)
        a = [rng.randrange(3) for _ in range(3 * rng.randint(0, prec))]
        b = [rng.randrange(3) if rng.randrange(3) else 0 for _ in range(3 * rng.randint(0, prec))]
        each_strategy(lambda: series_mul(F27, a, b, prec))
    assert any(taken) and not all(taken)


def test_valuations_basic():
    model = LocalFieldModel(eisenstein_validate((3, 0, 0, 1), 3), 6, e_norm=1)
    x = model.uniformizer_pow(1)
    assert x.valuation() == F(1, 3)
    assert x.pow(2).mul_int(3).valuation() == F(5, 3)
    short = LocalFieldModel(eisenstein_validate((3, 0, 0, 1), 3), 4, e_norm=1)
    assert short.zero().valuation() == LowerBound(F(4))


def test_valuation_is_min_over_monomials():
    model = LocalFieldModel(eisenstein_validate((3, 0, 0, 0, 0, 0, 1), 3), 8, e_norm=1)
    rng = random.Random(3)
    for _ in range(200):
        coeffs = [0] * 6
        terms = []
        for _ in range(rng.randrange(1, 4)):
            j = rng.randrange(6)
            k = rng.randrange(3)
            unit = rng.choice([1, 2])
            coeffs[j] = (coeffs[j] + unit * 3 ** k) % model.q
            terms.append((j, k))
        elem = model.from_coeffs(tuple(coeffs))
        expected = min(
            (F(kv, 1) + F(jv, 6))
            for jv in range(6)
            for kv in range(model.prec)
            if (coeffs[jv] // 3 ** kv) % 3 != 0
        )
        assert elem.valuation() == expected


def naive_xval(elem):
    """The term-by-term definition: the least m * v_p(a_j) + j below aprec,
    over the coefficients a_j that are nonzero mod q."""
    m, p, q = elem.model.m, elem.model.p, elem.model.q
    terms = [
        m * vp_int(a % q, p) + j for j, a in enumerate(elem.coeffs) if a % q
    ]
    return min((t for t in terms if t < elem.aprec), default=None)


@pytest.mark.parametrize(
    "coeffs, prec", [((3, 0, 0, 1), 4), ((3, 0, 0, 0, 0, 0, 1), 6), ((-3, 0, 1), 3)]
)
def test_xval_matches_term_by_term_definition(coeffs, prec):
    model = LocalFieldModel(eisenstein_validate(coeffs, 3), prec)
    q = model.q
    rng = random.Random(11)
    seen_zero = seen_nonzero = False
    for _ in range(400):
        # unreduced coefficients (multiples of q added, some negative),
        # digit valuations up to the precision, and any aprec up to full
        vec = tuple(
            rng.choice([0, 1, 2, 4, 5]) * 3 ** rng.randrange(prec + 1)
            + rng.randrange(-2, 3) * q
            for _ in range(model.m)
        )
        elem = LocalElement(model, vec, rng.randrange(model.full_aprec + 1))
        assert elem.xval() == naive_xval(elem), elem
        seen_zero |= elem.xval() is None
        seen_nonzero |= elem.xval() is not None
    for elem in (model.zero(), model.one(), model.from_int(-q), model.from_int(3)):
        assert elem.xval() == naive_xval(elem)
    assert seen_zero and seen_nonzero


def test_valuation_multiplicative_on_units_times_powers():
    model = LocalFieldModel(eisenstein_validate((3, 0, 0, 1), 3), 8, e_norm=1)
    rng = random.Random(5)
    for _ in range(200):
        unit = model.from_coeffs(
            (rng.choice([1, 2]), rng.randrange(9), rng.randrange(9))
        )
        k1, k2 = rng.randrange(5), rng.randrange(5)
        a = unit * model.uniformizer_pow(k1)
        b = model.uniformizer_pow(k2)
        assert (a * b).valuation() == a.valuation() + b.valuation()


def test_e_norm_rescales_valuations():
    model = LocalFieldModel(eisenstein_validate((3, 0, 0, 0, 0, 0, 1), 3), 6, e_norm=2)
    assert model.uniformizer_pow(1).valuation() == F(2, 6)


def test_division_and_inverse():
    model = LocalFieldModel(eisenstein_validate((3, 0, 0, 0, 0, 0, 1), 3), 12, e_norm=1)
    x = model.uniformizer_pow(1)
    u = model.from_coeffs((2, 1, 0, 5, 0, 1))
    w = u * x.pow(4)
    d = w.div(x.pow(3))
    assert eq_at_prec(d, u * x)
    inv = u.unit_inverse()
    assert eq_at_prec(u * inv, model.one())
    with pytest.raises(NonUnitError):
        x.unit_inverse()
    # dividing by something of larger valuation is rejected
    with pytest.raises(Exception):
        x.div(x.pow(2))


def test_truncation_levels():
    model = LocalFieldModel(eisenstein_validate((3, 0, 0, 0, 0, 0, 1), 3), 12, e_norm=1)
    assert 3 ** sum(model.coeff_cutoffs(F(1, 2))) == 81
    assert 3 ** sum(model.coeff_cutoffs(F(1, 6))) == 9
    elem = model.from_coeffs((1, 2, 1, 0, 2, 1))
    assert elem.truncate_to_level(F(1, 6)) == (1, 2, 0, 0, 0, 0)
    shallow = LocalFieldModel(eisenstein_validate((3, 0, 0, 0, 0, 0, 1), 3), 1, e_norm=1)
    deep_level = F(3)
    with pytest.raises(UndecidableError):
        shallow.from_coeffs((1,)).truncate_to_level(deep_level)


def test_coeff_cutoffs_match_fraction_formula():
    """k_j = max(0, floor(level/e_norm - j/m) + 1), taken with Fractions."""
    rng = random.Random(12)
    for m in (1, 2, 6, 12, 27):
        g = eisenstein_validate((3,) + (0,) * (m - 1) + (1,), 3)
        for e_norm in (1, 2, 3):
            model = LocalFieldModel(g, 4, e_norm=e_norm)
            levels = [0, 1, 7, F(1, 2), F(-1, 3), F(m * e_norm, 3), F(5, 1)]
            levels += [
                F(rng.randrange(-20, 200), rng.randrange(1, 40)) for _ in range(60)
            ]
            for level in levels:
                want = tuple(
                    max(0, (F(level, e_norm) - F(j, m)).__floor__() + 1)
                    for j in range(m)
                )
                assert model.coeff_cutoffs(level) == want, (m, e_norm, level)


def test_min_integer_strictly_above():
    assert min_integer_strictly_above(3, F(1, 2), 1) == 1
    assert min_integer_strictly_above(3, F(1), 0) == 1
    assert min_integer_strictly_above(3, F(9), 0) == 3
    assert min_integer_strictly_above(3, F(1, 9), 0) == -1


def trial_division_is_odd_prime(n):
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_is_odd_prime_matches_trial_division():
    for n in range(-3, 10**5):
        assert is_odd_prime(n) == trial_division_is_odd_prime(n), n


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        2152302898747,  # ... 2 to 11
        3474749660383,  # ... 2 to 13
        341550071728321,  # ... 2 to 19
        3825123056546413051,  # ... 2 to 31
        318665857834031151167461,  # ... 2 to 37: only base 41 exposes it
    ],
)
def test_strong_pseudoprimes_are_composite(n):
    assert not is_odd_prime(n)


@pytest.mark.parametrize(
    "p", [1000000000000000003, 2**61 - 1, 3317044064679887385961813]
)
def test_large_primes(p):
    assert is_odd_prime(p)


def test_primality_above_the_limit_is_refused():
    # MR_LIMIT itself is a strong pseudoprime to every base used
    with pytest.raises(InputError, match=str(MR_LIMIT)):
        is_odd_prime(MR_LIMIT)


@pytest.mark.parametrize(
    "g, primes",
    [
        (0, []),
        (1, []),
        (-96, [3]),
        (3 * 5**2 * 65537, [3, 5, 65537]),
        (3 * 4294967311, [3, 4294967311]),  # a prime cofactor above 2^32
    ],
)
def test_odd_prime_factors(g, primes):
    assert odd_prime_factors(g) == primes


def test_odd_prime_factors_refuses_a_composite_cofactor():
    for g in (3 * 65537 * 65539, 65537**2):
        with pytest.raises(InputError, match="no factor below 65536"):
            odd_prime_factors(g)


def test_parse_poly():
    assert parse_poly("3,1") == (3, 1)
    with pytest.raises(InputError):
        parse_poly("3,x")


def test_eisenstein_power_type():
    E = eisenstein_validate((3, 1), 3)
    assert isinstance(E, EisensteinPoly)
    assert E.power(2, 9) == (0, 6, 1)  # (u+3)^2 = u^2 + 6u + 9 = u^2 + 6u mod 9


def two_xval_mul(a, b):
    """The product with both valuations always taken: schoolbook coefficients
    and aprec = min(a.aprec + v(b), b.aprec + v(a), full), where a factor
    that is zero at precision stands in with its aprec."""
    model = a.model
    _, rem = naive_divmod(naive_mul(a.coeffs, b.coeffs), model.g.coeffs, model.q)
    vec = tuple(rem) + (0,) * (model.m - len(rem))
    va, vb = naive_xval(a), naive_xval(b)
    ea = a.aprec + (b.aprec if vb is None else vb)
    eb = b.aprec + (a.aprec if va is None else va)
    return vec, min(ea, eb, model.full_aprec)


def seeded_factor(model, rng):
    """A factor of one of four kinds: full aprec, reduced aprec, zero at
    precision (every term at or past a reduced aprec) or a shift_down output."""
    full = model.full_aprec
    vec = tuple(
        rng.choice([0, 1, 2, 4, 5]) * 3 ** rng.randrange(model.prec + 1) % model.q
        for _ in range(model.m)
    )
    kind = rng.randrange(4)
    if kind == 0:
        return LocalElement(model, vec, full)
    if kind == 1:
        return LocalElement(model, vec, rng.randrange(full))
    if kind == 2:
        a = rng.randrange(full)
        shifted = model.uniformizer_pow(a) * LocalElement(model, vec, full)
        return LocalElement(model, shifted.coeffs, a)
    aprec = rng.choice([full, rng.randrange(1, full + 1)])
    elem = model.uniformizer_pow(1) * LocalElement(model, vec, aprec)
    for _ in range(rng.randrange(1, 4)):
        if elem.xval() == 0 or elem.aprec < 1:
            break
        elem = elem.shift_down()
    return elem


@pytest.mark.parametrize("m", [6, 12, 27])
def test_mul_aprec_matches_two_xval_formula(m, monkeypatch):
    model = LocalFieldModel(eisenstein_validate((3,) + (0,) * (m - 1) + (1,), 3), 4)
    full = model.full_aprec
    rng = random.Random(m)
    seen = set()
    for _ in range(300):
        a, b = seeded_factor(model, rng), seeded_factor(model, rng)
        got = a * b
        assert (got.coeffs, got.aprec) == two_xval_mul(a, b), (a, b)
        seen.add((a.aprec < full, b.aprec < full, a.xval() is None))
    # both factors below full, one of them, neither; and zero factors
    assert {(True, True), (True, False), (False, True), (False, False)} <= {
        s[:2] for s in seen
    }
    assert any(s[2] for s in seen)
    # a product of two full-aprec factors takes no valuation at all
    calls = []
    real = LocalElement.xval

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(LocalElement, "xval", counting)
    x = model.uniformizer_pow(1)
    assert (x * model.from_int(7)).aprec == full
    assert calls == []
    reduced = LocalElement(model, x.coeffs, full - 2)
    assert (reduced * x).aprec == full - 1
    assert len(calls) == 1
