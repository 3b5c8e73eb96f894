import itertools
from fractions import Fraction as F

import pytest

from ramibound.bounds import (
    alpha_beta,
    bound_constants,
    closed_form_N_bounds,
    different_valuation,
    exact_nilpotency_index,
    nilpotency_summary,
    ramification_report,
)
from ramibound.errors import InputError
from ramibound.padic import LocalFieldModel, LowerBound, eisenstein_validate


def shapes(p, e):
    yield "minus", eisenstein_validate((-p,) + (0,) * (e - 1) + (1,), p)
    yield "plus", eisenstein_validate((p,) + (0,) * (e - 1) + (1,), p)
    if e == 1:
        yield "mixed", eisenstein_validate((2 * p, 1), p)
    else:
        yield "mixed", eisenstein_validate((p,) + (0,) * (e - 2) + (p, 1), p)


def test_exact_index_examples():
    E = eisenstein_validate((3, 1), 3)
    assert exact_nilpotency_index(E, 2, 2) == 3
    assert exact_nilpotency_index(E, 2, 1) == 2
    # n = 1 always gives e*r
    for e in (1, 2, 3):
        E2 = eisenstein_validate((3,) + (0,) * (e - 1) + (1,), 3)
        for r in (1, 2, 3):
            assert exact_nilpotency_index(E2, 1, r) == e * r


def test_closed_forms_example():
    E = eisenstein_validate((3, 1), 3)
    assert nilpotency_summary(E, 2, 2) == {
        "exact": 3,
        "ern": 4,
        "ceil": 3,
        "uep": 3,
        "general": 3,
    }
    E2 = eisenstein_validate((-3, 0, 1), 3)
    s = nilpotency_summary(E2, 1, 1)
    assert s["exact"] == s["ern"] == 2


def test_uep_only_for_binomials():
    E = eisenstein_validate((3, 3, 1), 3)
    assert "uep" not in closed_form_N_bounds(E, 2, 2)


def test_exact_below_all_closed_forms_grid():
    for p in (3, 5):
        for e in (1, 2, 3):
            for _, E in shapes(p, e):
                for n in (1, 2, 3):
                    for r in (1, 2, 3):
                        s = nilpotency_summary(E, n, r)
                        exact = s.pop("exact")
                        assert all(exact <= v for v in s.values()), (p, e, n, r)
                        if n == 1:
                            assert exact == e * r


def test_exact_index_against_integer_oracle():
    # independent oracle: u^N vanishes in the quotient iff dividing u^N by
    # E(u)^r over the exact integers leaves a remainder divisible by p^n
    def oracle(E, n, r):
        er = [1]
        for _ in range(r):
            nxt = [0] * (len(er) + E.e)
            for i, a in enumerate(er):
                for j, b in enumerate(E.coeffs):
                    nxt[i + j] += a * b
            er = nxt
        deg = len(er) - 1
        for N in range(1, E.e * r * n + 1):
            rem = [0] * (N + 1)
            rem[N] = 1
            for i in range(N, deg - 1, -1):
                c = rem[i]
                if c:
                    for j in range(deg + 1):
                        rem[i - deg + j] -= c * er[j]
            if all(v % 3 ** n == 0 for v in rem[:deg]):
                return N
        raise AssertionError

    for coeffs in ((3, 1), (-3, 0, 1), (3, 3, 1)):
        E = eisenstein_validate(coeffs, 3)
        for n in (1, 2, 3):
            for r in (1, 2):
                assert exact_nilpotency_index(E, n, r) == oracle(E, n, r)


def test_different_valuation():
    assert different_valuation(eisenstein_validate((3, 1), 3)) == 0
    assert different_valuation(eisenstein_validate((-3, 0, 1), 3)) == F(1, 2)
    assert different_valuation(eisenstein_validate((-3, 0, 0, 1), 3)) == F(5, 3)


def model_different_valuation(E, prec=8):
    """Oracle: v_p(E'(pi)) evaluated at the uniformizer of a local-field
    model of E, at doubled precision while every digit vanishes."""
    for _ in range(8):
        model = LocalFieldModel(E, prec, e_norm=1)
        acc = model.zero()
        for i, c in enumerate(E.derivative()):
            if c:
                acc = acc + model.uniformizer_pow(i).mul_int(c)
        v = acc.valuation()
        if not isinstance(v, LowerBound):
            return v
        prec *= 2
    raise AssertionError("derivative valuation did not resolve")


def test_different_valuation_matches_model_evaluation():
    # p divides e at (p, e) = (3, 3), (3, 6), (5, 5), where the leading term
    # e*pi^(e-1) need not be the least; 2p^9 lies beyond the model's 8 digits
    for p in (3, 5, 7):
        small = (0, -p, p ** 2, 2 * p ** 9)
        for e in range(1, 7):
            for a0 in (p, -2 * p):
                for mid in itertools.product(small, repeat=e - 1):
                    E = eisenstein_validate((a0,) + mid + (1,), p)
                    assert different_valuation(E) == model_different_valuation(E), E


def test_alpha_beta():
    assert alpha_beta(F(1, 2), 3) == (0, F(1, 2))
    assert alpha_beta(F(2), 3) == (1, F(2, 3))
    assert alpha_beta(F(1), 3) == (0, F(1))
    with pytest.raises(InputError):
        alpha_beta(F(1, 3), 3)


def test_bound_constants():
    bc = bound_constants(3, 1, 1, 1, 1)
    assert (bc.b, bc.a) == (F(1, 2), F(3, 2))
    assert bc.s_min_int == 1 and bc.s0a_int == 1 and bc.s2b_int == 1
    bc2 = bound_constants(3, 1, 2, 2, 3)
    assert bc2.s_min_int == 3
    bc3 = bound_constants(3, 1, 2, 2, 4)
    assert (bc3.alpha, bc3.beta) == (1, F(2, 3))
    # the two threshold expressions agree by construction on a sweep
    for p in (3, 5):
        for e in (1, 2):
            for n in (1, 2, 3):
                for r in (1, 2, 3):
                    bc = bound_constants(p, e, n, r, e * r * n)
                    assert bc.s2b_int == bc.s_min_int


def test_relaxed_threshold_flag():
    bc = bound_constants(3, 1, 2, 2, 4, relaxed=True)
    assert bc.relaxed_s_min_int is not None
    assert bc.relaxed_s_min_int <= bc.s_min_int
    tiny = bound_constants(3, 1, 1, 1, 1, relaxed=True)
    assert tiny.relaxed_s_min_int is None  # a = 3/2 < (p-1)/(p-2) = 2


def test_report_values():
    r1 = ramification_report(3, 1, 1, 1)
    assert r1.thm11_mu == F(3, 2)
    assert r1.thm12_mu == F(5, 2)
    assert r1.thm12_diff == F(13, 6)
    assert r1.conj13_mu == F(5, 2)
    assert r1.conj13_diff == F(13, 6)
    r2 = ramification_report(3, 1, 2, 2)
    assert r2.thm12_mu == F(14, 3)
    assert r2.thm12_diff == F(125, 27)
    assert r2.N_provenance == "ern-closed-form"


def test_sharper_N_improves_level_bound():
    default = ramification_report(3, 1, 2, 2)
    sharp = ramification_report(3, 1, 2, 2, N=3)
    assert sharp.cor39_mu == F(27, 2)
    assert default.cor39_mu == 18
    assert sharp.cor39_mu < default.cor39_mu
    assert sharp.N_provenance == "explicit"


def test_thm12_monotone_in_n_and_r():
    for p in (3, 5):
        for e in (1, 2):
            for n, r in itertools.product(range(1, 4), repeat=2):
                base = ramification_report(p, e, n, r).thm12_mu
                assert ramification_report(p, e, n + 1, r).thm12_mu >= base
                assert ramification_report(p, e, n, r + 1).thm12_mu >= base


def test_conjecture_below_theorem():
    for p in (3, 5, 7):
        for e, n, r in itertools.product(range(1, 5), repeat=3):
            rep = ramification_report(p, e, n, r)
            assert rep.conj13_mu <= rep.thm12_mu, (p, e, n, r)
            assert rep.conj13_diff <= rep.thm12_diff, (p, e, n, r)


def test_report_rejects_bad_input():
    with pytest.raises(InputError):
        ramification_report(3, 0, 1, 1)
    with pytest.raises(InputError, match=r"^N must be >= 1$"):
        ramification_report(3, 1, 1, 1, N=0)
    with pytest.raises(InputError, match=r"^N must be >= 1$"):
        bound_constants(3, 1, 1, 1, -1)
