import itertools

import pytest

from ramibound.errors import InputError, NotHeightError, PrecisionError
from ramibound.kisin import (
    GF,
    Laurent,
    etale_new,
    etale_to_kisin,
    height_witness,
    kisin_new,
    modp_height_witness,
    tame_character_oracle,
    tame_lift_build,
    u_power_witness,
)
from ramibound.padic import (
    eisenstein_validate,
    poly_add,
    poly_convolve,
    poly_divmod_monic,
    poly_mul,
    poly_trim,
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
# finite fields
# ---------------------------------------------------------------------------


def test_gf_basic():
    F9 = GF.create(3, 2)
    assert F9.order == 9
    els = list(F9.elements())
    assert len(els) == 9
    for a in els:
        for b in els:
            assert F9.mul(a, b) == F9.mul(b, a)
            assert F9.frobenius(F9.add(a, b)) == F9.add(
                F9.frobenius(a), F9.frobenius(b)
            )
        if any(a):
            assert F9.mul(a, F9.inv(a)) == F9.one()
    with pytest.raises(InputError):
        F9.inv(F9.zero())


def test_gf_modulus_is_irreducible():
    F27 = GF.create(3, 3)
    # no roots in F_3 means no linear factor; degree 3 then has no factor
    mod = F27.modulus
    for c in range(3):
        val = sum(coef * c ** i for i, coef in enumerate(mod)) % 3
        assert val != 0
    # first monic irreducible in lexicographic order, frozen
    pinned = {
        (3, 1): (0, 1), (3, 2): (1, 0, 1), (3, 3): (1, 0, 2, 1),
        (5, 1): (0, 1), (5, 2): (1, 1, 1), (5, 3): (1, 0, 1, 1),
    }
    for (p, f), modulus in pinned.items():
        assert GF.create(p, f).modulus == modulus


def test_gf_prime_field_mul_matches_polynomial_path():
    # the f = 1 shortcut against the product-then-monic-division path
    for p in (3, 5, 7):
        F = GF.create(p, 1)
        for a in F.elements():
            for b in F.elements():
                r = poly_divmod_monic(poly_convolve(a, b), F.modulus, p)[1]
                assert F.mul(a, b) == r + (0,) * (1 - len(r))


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
    F3 = GF.create(3, 1)
    em = etale_new(F3, ((Laurent(0, (F3.one(),)),),), e=1)
    res = etale_to_kisin(em)
    assert res.rescale_power == 0 and res.r == 0


def test_etale_u_cubed():
    F3 = GF.create(3, 1)
    em = etale_new(F3, ((Laurent(3, (F3.one(),)),),), e=1)
    res = etale_to_kisin(em)
    assert res.r == 3 and res.det_val == 3
    modp_height_witness(F3, res.matrix, 1, 3, em.uprec)
    with pytest.raises(NotHeightError):
        modp_height_witness(F3, res.matrix, 1, 2, em.uprec)


def test_etale_negative_power():
    F3 = GF.create(3, 1)
    em = etale_new(F3, ((Laurent(-1, (F3.one(),)),),), e=1)
    res = etale_to_kisin(em)
    assert res.rescale_power == 1 and res.r == 1 and res.det_val == 1
    km = result_as_kisin_module(res, 3, E13)
    w = height_witness(km, 1)
    assert_witness(km, w, (0, 1))  # E = u mod 3


def test_etale_rank2_over_f9():
    F9 = GF.create(3, 2)
    one = F9.one()
    gen = (0, 1)
    entries = (
        (Laurent(1, (one,)), Laurent(0, (F9.zero(),))),
        (Laurent(0, (gen,)), Laurent(2, (one,))),
    )
    em = etale_new(F9, entries, e=1)
    res = etale_to_kisin(em)
    assert res.det_val == 3 and res.r == 3
    modp_height_witness(F9, res.matrix, 1, res.r, em.uprec)


def test_etale_rejects_singular():
    F3 = GF.create(3, 1)
    with pytest.raises(InputError):
        etale_new(F3, ((Laurent(0, (F3.zero(),)),),), e=1)
