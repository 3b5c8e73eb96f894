import random
from fractions import Fraction as F

import pytest

from ramibound.bounds import ramification_report
from ramibound.errors import InputError
from ramibound.herbrand import (
    PLF,
    LowerFiltration,
    compose,
    cyclotomic_kummer_mu,
    fontaine_mu_bound,
    identity_plf,
    kummer_different,
    last_breaks,
    mu_transitivity,
    normalize_plf,
    phi_from_filtration,
    psi,
    thm12_assembly,
)
from ramibound.padic import LocalFieldModel, eisenstein_validate


def random_concave_plf(rng: random.Random) -> PLF:
    segs = rng.randrange(1, 6)
    slopes = sorted(
        {F(rng.randrange(1, 120), rng.randrange(1, 60)) for _ in range(segs + 1)},
        reverse=True,
    )
    while len(slopes) < 2:
        slopes.append(slopes[-1] / 2)
    pts = [(F(0), F(0))]
    x, y = F(0), F(0)
    for s in slopes[:-1]:
        dx = F(rng.randrange(1, 7), rng.randrange(1, 4))
        x, y = x + dx, y + dx * s
        pts.append((x, y))
    return normalize_plf(pts, slopes[-1])


def test_plf_validation():
    with pytest.raises(InputError):
        PLF(((F(1), F(1)),), F(1))  # must start at origin
    with pytest.raises(InputError):
        PLF(((F(0), F(0)), (F(1), F(0))), F(1))  # not increasing


def test_trivial_and_tame_filtrations():
    assert phi_from_filtration(LowerFiltration(1, ())) == identity_plf()
    tame = LowerFiltration(7, ((F(1), 1),))
    phi = phi_from_filtration(tame)
    assert phi(F(1)) == 1
    assert phi(F(8)) == 2
    lam, mu = last_breaks(tame)
    assert lam == 1 and mu == 1


def test_two_break_example():
    p = 3
    filt = LowerFiltration(p * p, ((F(1), p), (F(2), 1)))
    phi = phi_from_filtration(filt)
    assert phi(2) == 1 + F(1, p)
    assert phi.is_concave()
    lam, mu = last_breaks(filt)
    assert (lam, mu) == (2, F(4, 3))
    # composing the subgroup and quotient transition functions reproduces phi
    sub = phi_from_filtration(LowerFiltration(p, ((F(2), 1),)))
    quot = phi_from_filtration(LowerFiltration(p, ((F(1), 1),)))
    assert compose(quot, sub) == phi


def test_filtration_validation():
    with pytest.raises(InputError):
        LowerFiltration(9, ((F(1), 3),))  # does not end at 1
    with pytest.raises(InputError):
        LowerFiltration(9, ((F(1), 4), (F(2), 1)))  # 4 does not divide 9
    with pytest.raises(InputError):
        LowerFiltration(9, ((F(2), 3), (F(1), 1)))  # breaks not increasing


def test_psi_inverse_law_random():
    rng = random.Random(10)
    for _ in range(100):
        f = random_concave_plf(rng)
        assert compose(psi(f), f) == identity_plf()
        assert compose(f, psi(f)) == identity_plf()


def test_compose_associative_random():
    rng = random.Random(11)
    for _ in range(40):
        f, g, h = (random_concave_plf(rng) for _ in range(3))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_tame_compose_slope_product():
    t1 = phi_from_filtration(LowerFiltration(4, ((F(1), 1),)))
    t2 = phi_from_filtration(LowerFiltration(5, ((F(1), 1),)))
    assert compose(t1, t2).final_slope == F(1, 20)


def test_mu_transitivity():
    quot = phi_from_filtration(LowerFiltration(3, ((F(1), 1),)))
    assert mu_transitivity(F(1), F(0), quot) == 1
    assert mu_transitivity(F(1), F(2), identity_plf()) == 2
    assert mu_transitivity(F(1), F(2), quot) == F(4, 3)


def test_fontaine_bound():
    p, N, n, s = 3, 1, 1, 1
    a = F(p * N, p - 1)
    radius = a * F(1, p ** (s - n + 1))
    assert fontaine_mu_bound(radius, p ** s, 99) == F(N * p ** n, p - 1) + F(1, 99)
    assert fontaine_mu_bound(radius, p ** s, 99, wild=True) == F(3, 2)
    assert fontaine_mu_bound(F(1, 1000), 1, 4) == F(1, 1000) + F(1, 4)
    with pytest.raises(InputError):
        fontaine_mu_bound(F(0), 1, 1)


def test_kummer_different_closed_form_and_model():
    assert kummer_different(3, 1, 1) == F(5, 3)
    assert kummer_different(3, 1, 0) == 0
    assert kummer_different(3, 2, 1) == F(8, 3)
    # cross-check s=1, e=1 against a concrete model: d/du (u^3 + 3) at the
    # uniformizer has v_K = 1 + 2/3
    model = LocalFieldModel(eisenstein_validate((3, 0, 0, 1), 3), 8, e_norm=1)
    x = model.uniformizer_pow(1)
    val = (x.pow(2).mul_int(3)).valuation()
    assert val == kummer_different(3, 1, 1)


def test_cyclotomic_kummer_mu():
    assert cyclotomic_kummer_mu(3, 1, 1) == 1 + (1 + F(1, 2))


def test_assembly_matches_report():
    rng = random.Random(12)
    seen = set()
    while len(seen) < 50:
        p = rng.choice([3, 5, 7])
        e = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        r = rng.randrange(1, 5)
        seen.add((p, e, n, r))
    for p, e, n, r in sorted(seen):
        rep = ramification_report(p, e, n, r)
        mu, diff = thm12_assembly(p, e, n, r, e * r * n)
        assert mu == rep.thm12_mu and diff == rep.thm12_diff, (p, e, n, r)


def test_assembly_examples():
    assert thm12_assembly(3, 1, 1, 1, 1) == (F(5, 2), F(13, 6))
    mu, _ = thm12_assembly(3, 1, 2, 2, 4)
    assert mu == F(14, 3)
