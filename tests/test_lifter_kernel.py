"""The kernel paths that make a lifter iteration cheap, each against the
path it replaces: single-term products against the reduced convolution,
dense products modulo a binomial against the dense product, the packed
power there against square-and-multiply, the element power's precision
against the chain of element products, the one-pass Witt subtraction
against adding the negative, the shift modulo a binomial against single
divisions, and ``padic.mat_mul`` with the solver's Witt dot against a plain
product of Witt products and sums, with the two Witt facts its skip of zero
entries rests on.

Every comparison goes through ``expect``, which raises by itself, so the
tests compare under ``python -O`` too, where plain asserts are dropped."""

import operator
import random
from functools import partial

import pytest

from ramibound import padic, solver
from ramibound.padic import (
    LocalElement,
    LocalFieldModel,
    MonicQuotient,
    eisenstein_validate,
    poly_convolve,
    power,
)
from ramibound.witt import (
    LocalRing,
    ZZRing,
    int_to_witt,
    witt_add,
    witt_mul,
    witt_neg,
    witt_sub,
)

from test_kernel import (
    check_shifts_match_single_shifts,
    dense_divmod_monic,
    expect,
    schoolbook_convolve,
)
from test_kisin import ops_mat_mul


def binomial(m, a0=3):
    return (a0,) + (0,) * (m - 1) + (1,)


# binomials x^m + a_0 for several a_0, and g with more low terms
BINOMIALS = [(3, 1), binomial(6), binomial(12, -3), binomial(27), binomial(30, -1),
             binomial(12, 3 ** 20)]
OTHERS = [(0, 1), (3, 3) + (0,) * 25 + (1,), (6, 0, 9) + (0,) * 9 + (1,), (-3, 6, 9, 0, -3, 1)]
QS = [None, 3 ** 16, 3 ** 40, 5 ** 3]


def reference(ring, a, b):
    """a*b reduced by the dense product and the dense division."""
    return dense_divmod_monic(schoolbook_convolve(a, b), ring.g, ring.q)[1]


def signed_operand(rng, length, q):
    """Signed coefficients, or coefficients reduced into [0, q), or
    unreduced ones up to a few multiples of q, with some zeros."""
    bound = q or 3 ** 20
    out = [rng.choice([0, rng.randrange(-bound, bound)]) for _ in range(length)]
    if q is not None and rng.randrange(3) == 0:
        out = [v % q for v in out]
    elif q is not None and rng.randrange(2):
        out = [v + q * rng.randrange(-3, 4) for v in out]
    return out


def test_term_products_match_reduced_convolution():
    """c*x^k times b, either way round, for k < deg g, c divisible by p or
    not, b signed or unreduced, and b longer than deg g now and then: the
    same remainder as the reduced full product."""
    rng = random.Random(20261020)
    taken = set()
    for _ in range(600):
        g = rng.choice(BINOMIALS + OTHERS)
        q = rng.choice(QS)
        ring = MonicQuotient(g, q)
        d = ring.deg
        k = rng.randrange(d)
        c = rng.choice([1, -1, 3, 9 * rng.randrange(1, 50), rng.randrange(-10 ** 9, 10 ** 9)])
        if q is not None and rng.randrange(4) == 0:
            c += q
        t = [0] * k + [c] + [0] * rng.choice([0, 0, d - k - 1])
        extra = 2 if rng.randrange(6) == 0 else 0
        b = signed_operand(rng, rng.randint(0, d + extra), q)
        want = ring.reduce(poly_convolve(t, b))
        expect(want == reference(ring, t, b), g, q, t, b)
        expect(ring._term_product(t, b) == want, g, q, t, b)
        expect(ring.mul(t, b) == want, g, q, t, b)
        expect(ring.mul(b, t) == want, g, q, t, b)
        expect(ring.mul(tuple(t), tuple(b)) == want, g, q, t, b)
        taken.add((ring.binomial_a0 is not None, k + len(b) > d))
    # binomial and not, with and without coefficients folded back
    expect(taken == {(True, True), (True, False), (False, True), (False, False)}, taken)
    ring = MonicQuotient(binomial(6), 3 ** 5)
    expect(ring.mul((0, 0, 0), (1, 2, 3)) == (), "zero operand")
    expect(ring.mul((), (1, 2, 3)) == (), "empty operand")


def test_zz_witt_products_take_no_convolution(monkeypatch):
    """Over ZZRing every integer product is of two 1-tuples in Z[x]/(x), a
    single-term product: no poly_convolve, pair loop or packed product."""
    calls = []

    def refuse(name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return wrapper

    for name in ("poly_convolve", "_pair_product", "_packed_product"):
        monkeypatch.setattr(padic, name, refuse(name))
    R, rng = ZZRing(), random.Random(4)
    for p, n in ((3, 3), (5, 2), (7, 3)):
        for _ in range(20):
            x = tuple(rng.randrange(-50, 50) for _ in range(n))
            y = tuple(rng.randrange(-50, 50) for _ in range(n))
            z = witt_mul(R, p, x, y)
            expect(z[0] == x[0] * y[0], x, y)
            expect(len(z) == n, z)
    expect(calls == [], calls)


@pytest.mark.parametrize("m", [27, 40])
def test_dense_binomial_products_match_reference(m, monkeypatch):
    """Dense products and squares of operands of degree < m modulo
    x^m + a_0, which poly_convolve packs at the module's ratio, then
    reduced by the ring: the dense product and the dense division."""
    packed = []
    real = padic._packed_product

    def spy(*args):
        packed.append(args[2])
        return real(*args)

    monkeypatch.setattr(padic, "_packed_product", spy)
    rng = random.Random(m)
    products = 0
    for a0 in (3, -3, -1, 3 ** 20):
        for q in QS:
            ring = MonicQuotient(binomial(m, a0), q)
            bound = q or 3 ** 20
            for _ in range(4):
                a, b = (
                    [rng.choice((-1, 1)) * rng.randrange(1, bound) for _ in range(m)]
                    for _ in range(2)
                )
                a[rng.randrange(m)] = 0  # dense, not full
                for u, v in ((a, b), (a, a), (tuple(b), tuple(a))):
                    expect(ring.mul(u, v) == reference(ring, u, v), m, a0, q, u, v)
                    products += 1
    expect(len(packed) == products, len(packed), products)


@pytest.mark.parametrize("g", BINOMIALS)
def test_packed_pow_matches_power(g, monkeypatch):
    """MonicQuotient.pow modulo a binomial for k = 2..7, with the packed
    power forced for every k and every operand, and at the module's
    thresholds: the same as square-and-multiply by the dense product."""
    rng = random.Random(len(g))
    for q in QS:
        ring = MonicQuotient(g, q)
        d = ring.deg
        operands = [(), (0,) * d, (1,), (0,) * (d - 1) + (rng.randrange(1, 99),)]
        operands += [tuple(signed_operand(rng, rng.randint(1, d), q)) for _ in range(8)]
        for a in operands:
            for k in range(2, 8):
                want = power(a, k, lambda u, v: reference(ring, u, v), (1,))
                if ring.binomial_a0 is not None:  # not when q divides a_0
                    expect(ring._packed_pow(a, k) == want, g, q, a, k)
                expect(ring.pow(a, k) == want, g, q, a, k)
                with monkeypatch.context() as patch:
                    patch.setattr(padic, "PACK_POW_MAX", 7)
                    patch.setattr(padic, "PACK_POW_PAIRS_PER_COEFF", 0)
                    expect(ring.pow(a, k) == want, g, q, a, k)


def test_pow_packs_only_at_its_thresholds(monkeypatch):
    packed = []
    real = MonicQuotient._packed_pow

    def spy(self, a, k):
        packed.append(k)
        return real(self, a, k)

    monkeypatch.setattr(MonicQuotient, "_packed_pow", spy)
    ring = MonicQuotient(binomial(12), 3 ** 24)
    dense = tuple(range(1, 13))
    for k in range(10):
        ring.pow(dense, k)
    expect(packed == [3], packed)
    ring.pow((0,) * 11 + (5,), 3)  # a single term: two term products
    ring.pow(dense + (1,), 3)  # degree >= d: left to the chain
    MonicQuotient((3, 3, 0, 1), 3 ** 5).pow((1, 2, 3), 3)  # not a binomial
    expect(packed == [3], packed)


def chain_element(x, k, mul):
    """x^k by square-and-multiply with the element product ``mul``."""
    return power(x, k, mul, x.model.one())


def two_xval_product(a, b):
    """The element product from the dense kernel and both valuations, a
    factor zero at precision standing in with its aprec."""
    model = a.model
    rem = reference(model.quotient, a.coeffs, b.coeffs)
    va, vb = a.xval(), b.xval()
    aprec = min(
        a.aprec + (b.aprec if vb is None else vb),
        b.aprec + (a.aprec if va is None else va),
        model.full_aprec,
    )
    return LocalElement(model, rem + (0,) * (model.m - len(rem)), aprec)


@pytest.mark.parametrize("g", [(3, 1), binomial(6), binomial(12, -3), binomial(27)])
def test_element_pow_matches_product_chain(g, monkeypatch):
    """Coefficients and aprec of x.pow(k), k = 0..9, against x ** k, the
    chain of operator.mul and the chain of the two-valuation product: at
    full aprec, below full aprec (units and non-units) and zero at
    precision; with the packed power at the module's thresholds and
    forced."""
    model = LocalFieldModel(eisenstein_validate(g, 3), 4)
    m, q, full = model.m, model.q, model.full_aprec
    rng = random.Random(m)
    elems = [model.one(), model.zero(), model.uniformizer_pow(1)]
    for _ in range(10):
        vec = tuple(rng.choice([0, 1, 2, 3, 9, 27]) * rng.randrange(1, q) % q
                    for _ in range(m))
        elems.append(LocalElement(model, vec, full))
        elems.append(LocalElement(model, vec, rng.randrange(full)))
        a = rng.randrange(1, full)
        shifted = model.uniformizer_pow(a % m).mul_int(3 ** (a // m))
        elems.append(LocalElement(model, (shifted * elems[-2]).coeffs, a))
    kinds = {(x.aprec < full, x.xval() is None) for x in elems}
    expect({(False, False), (True, False), (True, True)} <= kinds, kinds)
    for forced in (False, True):
        with monkeypatch.context() as patch:
            if forced:
                patch.setattr(padic, "PACK_POW_MAX", 9)
                patch.setattr(padic, "PACK_POW_PAIRS_PER_COEFF", 0)
            for x in elems:
                expect(x.pow(1) is x, x)
                for k in range(10):
                    got = x.pow(k)
                    op = x ** k
                    expect((op.coeffs, op.aprec) == (got.coeffs, got.aprec), x, k)
                    for mul in (operator.mul, two_xval_product):
                        want = chain_element(x, k, mul)
                        expect((got.coeffs, got.aprec) == (want.coeffs, want.aprec),
                               x, k, mul)


def test_product_by_one_takes_the_other_factor(monkeypatch):
    """A factor 1 at full precision gives the other factor's coefficients
    and aprec, which is the general rule's product; a 1 known to less gives
    the other's coefficients, with the rule's aprec; neither calls a
    product strategy."""
    model = LocalFieldModel(eisenstein_validate(binomial(6), 3), 5)
    rng = random.Random(6)
    one, full = model.one(), model.full_aprec
    # a product by 1 must not reach the ring's product (calling None
    # raises); the reference multiplies by the dense kernel
    monkeypatch.setattr(MonicQuotient, "mul", None)
    for _ in range(50):
        vec = tuple(rng.randrange(model.q) for _ in range(model.m))
        x = LocalElement(model, vec, rng.choice([full, rng.randrange(full)]))
        want = two_xval_product(one, x)
        expect((x.coeffs, x.aprec) == (want.coeffs, want.aprec), x)
        for got in (one * x, x * one, model.from_int(1) * x):
            expect((got.coeffs, got.aprec) == (x.coeffs, x.aprec), x)
        for low_one in (LocalElement(model, one.coeffs, rng.randrange(full)),
                        LocalElement(model, one.coeffs, 0)):
            for got in (low_one * x, x * low_one):
                want = two_xval_product(low_one, x)
                expect((got.coeffs, got.aprec) == (want.coeffs, want.aprec), x)


def local_vector(model, rng, n):
    full = model.full_aprec
    return tuple(
        LocalElement(
            model,
            tuple(rng.randrange(model.q) for _ in range(model.m)),
            rng.choice([full, full, rng.randrange(full + 1)]),
        )
        for _ in range(n)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_witt_sub_matches_adding_the_negative(n):
    """witt_sub(x, y) in one ghost solve against witt_add(x, witt_neg(y)),
    component by component, coefficients and aprec, over ZZRing and over
    LocalRing (degree 1, 2 and 6 models)."""
    rng = random.Random(n)
    R = ZZRing()
    for p in (3, 5):
        for _ in range(40):
            x = tuple(rng.randrange(-10 ** 6, 10 ** 6) for _ in range(n))
            y = tuple(rng.randrange(-10 ** 6, 10 ** 6) for _ in range(n))
            expect(witt_sub(R, p, x, y) == witt_add(R, p, x, witt_neg(R, p, y)), x, y)
    for g, p, prec in (((3, 1), 3, 8), ((-3, 0, 1), 3, 6), (binomial(6), 3, 4),
                       ((5, 0, 1), 5, 5)):
        model = LocalFieldModel(eisenstein_validate(g, p), prec)
        R = LocalRing(model)
        for _ in range(15):
            x, y = local_vector(model, rng, n), local_vector(model, rng, n)
            got = witt_sub(R, p, x, y)
            want = witt_add(R, p, x, witt_neg(R, p, y))
            expect([(c.coeffs, c.aprec) for c in got]
                   == [(c.coeffs, c.aprec) for c in want], g, x, y)
            d0 = x[0] - y[0]
            s0 = x[0] + (-y[0])
            expect((d0.coeffs, d0.aprec) == (s0.coeffs, s0.aprec), x[0], y[0])


@pytest.mark.parametrize("g", [(3, 1), (-3, 0, 1), binomial(6), binomial(12, -3)])
def test_rotation_shift_matches_single_shifts(g):
    """shift_down(k) and div_by(k, inv) modulo a binomial, where each
    division by x only moves coefficients down, against k single divisions.
    The name is kept from the rotation shift_down once ran for binomials."""
    check_shifts_match_single_shifts(g, 7 * (len(g) - 1))


def witt_entry(model, rng, n):
    """A Witt vector of length n of one of seven kinds: random coefficients
    at full precision or below it (each component its own aprec), all-zero
    coefficients at full or reduced aprec, component 0 with the coefficients
    of 1 at full or reduced aprec, or coefficients divisible by p^(prec-1),
    nonzero yet close to zero."""
    full, q, m = model.full_aprec, model.q, model.m
    kind = rng.randrange(7)
    low = kind in (1, 3, 5)

    def aprec():
        return rng.randrange(full + 1) if low else full

    def coeffs():
        if kind in (2, 3):
            return (0,) * m
        if kind == 6:
            return tuple(rng.randrange(3) * q // 3 for _ in range(m))
        return tuple(rng.choice([0, rng.randrange(q)]) for _ in range(m))

    vec = [LocalElement(model, coeffs(), aprec()) for _ in range(n)]
    if kind in (4, 5):
        vec[0] = LocalElement(model, model.one().coeffs, aprec())
    return tuple(vec)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("g", [binomial(6), binomial(12)])
def test_witt_mat_mul_matches_mat_mul_of_witt_operations(g, n):
    """padic.mat_mul with solver._witt_dot against the plain product
    ``ops_mat_mul`` with witt_mul and witt_add: every component of every
    entry has the same coefficients and aprec, for ranks 1 to 3, row vectors
    times square matrices, square matrices and l x d times d x m with
    l != m, with all-zero entries and entries with the coefficients of 1, at
    full precision and below it.  Dropping the aprec of a skipped product by
    zero fails here."""
    model = LocalFieldModel(eisenstein_validate(g, 3), 3)
    ring = LocalRing(model)
    rng = random.Random(len(g) * 10 + n)
    full = model.full_aprec
    zero_low = zero_low_only = 0

    def matrix(rows, cols):
        return tuple(tuple(witt_entry(model, rng, n) for _ in range(cols))
                     for _ in range(rows))

    def check(A, B):
        want = ops_mat_mul(
            A, B, lambda a, b: witt_mul(ring, 3, a, b),
            lambda a, b: witt_add(ring, 3, a, b),
        )
        got = padic.mat_mul(A, B, partial(solver._witt_dot, ring, 3))
        expect(len(got) == len(want), A, B)
        for got_row, want_row in zip(got, want):
            expect(len(got_row) == len(want_row), A, B)
            for x, y in zip(got_row, want_row):
                expect([(c.coeffs, c.aprec) for c in x]
                       == [(c.coeffs, c.aprec) for c in y], A, B)

    for _ in range(60 if n == 1 else 25):
        d = rng.randrange(1, 4)
        rows = rng.choice([1, d])
        A = matrix(rows, d)
        B = matrix(d, d)
        check(A, B)
        # the inputs reach the case a lost aprec would show: a zero entry
        # below full precision, and the least aprec of its row only there
        for row in A:
            zeros = [v for v in row if not any(any(c.coeffs) for c in v)]
            others = [v for v in row if any(any(c.coeffs) for c in v)]
            low = min([full + 1] + [c.aprec for v in zeros for c in v])
            if low < full:
                zero_low += 1
                if all(c.aprec > low for v in others for c in v):
                    zero_low_only += 1
    for l, d, m in [(2, 3, 1), (1, 2, 3), (3, 1, 2), (3, 2, 1)] * 3:
        check(matrix(l, d), matrix(d, m))
    expect(zero_low > 5 and zero_low_only > 2, zero_low, zero_low_only)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_products_and_sums_only_lower_the_aprec(n):
    """The two facts behind the skip of zero entries: for z with all-zero
    coefficients at any aprec, x * z has zero coefficients, and x + z has
    x's coefficients, each at the least aprec over all components of x and
    z.  Witt sums and products are also commutative and associative on
    inputs at full precision, with 1 as the identity."""
    rng = random.Random(100 + n)
    for g, p, prec in ((binomial(6), 3, 3), ((-3, 0, 1), 3, 4), ((5, 0, 1), 5, 3)):
        model = LocalFieldModel(eisenstein_validate(g, p), prec)
        R, full, m = LocalRing(model), model.full_aprec, model.m
        for _ in range(12):
            x = local_vector(model, rng, n)
            z = tuple(LocalElement(model, (0,) * m, rng.randrange(full + 1))
                      for _ in range(n))
            least = min(c.aprec for c in x + z)
            for prod in (witt_mul(R, p, x, z), witt_mul(R, p, z, x)):
                expect([(c.coeffs, c.aprec) for c in prod]
                       == [((0,) * m, least)] * n, x, z)
            for total in (witt_add(R, p, x, z), witt_add(R, p, z, x)):
                expect([(c.coeffs, c.aprec) for c in total]
                       == [(c.coeffs, least) for c in x], x, z)
        one = int_to_witt(R, p, 1, n)
        for _ in range(6):
            x, y, w = (
                tuple(model.from_coeffs(c.coeffs) for c in local_vector(model, rng, n))
                for _ in range(3)
            )
            for op in (witt_add, witt_mul):
                expect(op(R, p, x, y) == op(R, p, y, x), op, x, y)
                expect(op(R, p, op(R, p, x, y), w) == op(R, p, x, op(R, p, y, w)),
                       op, x, y, w)
            expect(witt_mul(R, p, x, one) == x, x)
