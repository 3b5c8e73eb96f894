"""The shared kernel: one exponentiation, one matrix product and one
witness check, each against an independent naive computation."""

import operator
import random
from functools import partial

import pytest

from ramibound.errors import InputError
from ramibound.kisin import (
    GF,
    _mat_mul_series,
    _mod_q_eq,
    _series_ops,
    is_scalar_mod_u,
)
from ramibound.padic import (
    LocalFieldModel,
    eisenstein_validate,
    mat_mul,
    poly_mul,
    poly_trim,
    power,
)
from ramibound.witt import (
    LocalRing,
    _packed_ops,
    _padd,
    _pmul,
    _var,
    companion_mul,
    companion_pow,
)

from test_kisin import naive_mat_mul
from test_witt import schoolbook_pmul

KS = range(21)


def repeated(x, k, mul, one):
    out = one
    for _ in range(k):
        out = mul(out, x)
    return out


def test_power_counts_no_final_squaring():
    for k in range(1, 65):
        calls = []

        def mul(a, b):
            calls.append(1)
            return a * b

        assert power(3, k, mul, 1) == 3 ** k
        assert len(calls) == k.bit_length() - 1 + bin(k).count("1")
    assert power(3, 0, operator.mul, 1) == 1


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
    F = GF.create(3, 2)
    for a in F.elements():
        for k in KS:
            assert F.pow(a, k) == repeated(a, k, F.mul, F.one()), (a, k)


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
            want = repeated(x, k, lambda a, b: companion_mul(R.g, a, b), (1,))
            assert companion_pow(R.g, x, k) == want, (x, k)


def test_packed_ppow_matches_repeated_product():
    # X_0 + Y_0^2 - 3 in the two variables X_0, Y_0 (n = 1)
    x = _padd(_padd(_var(0, 8), _var(1, 8, 2)), {0: -3})
    pow_ = _packed_ops(partial(_pmul, bits=8, n=1))[0]
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


def _random_matrix(rng, d, q):
    return tuple(
        tuple(
            poly_trim(tuple(rng.randrange(q) for _ in range(rng.randrange(6))))
            for _ in range(d)
        )
        for _ in range(d)
    )


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
            assert got == tuple(
                tuple(poly_trim(entry[:prec]) for entry in row) for row in want
            ), (A, B, prec)


def test_gf_series_matrix_product_matches_naive():
    F = GF.create(3, 2)
    rng = random.Random(7)
    elems = list(F.elements())
    for _ in range(20):
        d = rng.randint(1, 3)
        A, B = (
            [[[rng.choice(elems) for _ in range(rng.randrange(1, 5))]
              for _ in range(d)] for _ in range(d)]
            for _ in range(2)
        )
        prec = rng.randint(1, 8)
        got = mat_mul(A, B, *_series_ops(F, prec))
        for i in range(d):
            for j in range(d):
                want = [F.zero()] * prec
                for k in range(d):
                    for s, a in enumerate(A[i][k]):
                        for t, b in enumerate(B[k][j]):
                            if s + t < prec:
                                want[s + t] = F.add(want[s + t], F.mul(a, b))
                entry = list(got[i][j]) + [F.zero()] * prec
                assert entry[:prec] == want, (A, B, prec)


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
    eq = _mod_q_eq(q)
    M = _scalar(c, d)
    assert is_scalar_mod_u(M, c, prec, 0, eq)
    for i in range(d):
        for j in range(d):
            for t in range(prec + 3):
                bumped = _changed(M, i, j, t, 0, lambda v: v + 1)
                assert is_scalar_mod_u(bumped, c, prec, 0, eq) == (t >= prec)
                # adding q changes nothing mod q
                wrapped = _changed(M, i, j, t, 0, lambda v: v + q)
                assert is_scalar_mod_u(wrapped, c, prec, 0, eq)


def test_witness_check_gf_entries():
    F = GF.create(3, 2)
    prec, d = 4, 3
    c = [F.zero(), F.one()]
    M = _scalar(c, d)
    assert is_scalar_mod_u(M, c, prec, F.zero(), operator.eq)
    for i in range(d):
        for j in range(d):
            for t in range(prec + 2):
                bumped = _changed(M, i, j, t, F.zero(), lambda v: F.add(v, (0, 1)))
                ok = is_scalar_mod_u(bumped, c, prec, F.zero(), operator.eq)
                assert ok == (t >= prec), (i, j, t)
