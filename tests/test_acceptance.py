"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are exact (integer or rational equality) except where a stated
iteration or wall-clock budget applies.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from ramibound.bounds import (
    exact_nilpotency_index,
    nilpotency_summary,
    ramification_report,
)
from ramibound.herbrand import (
    LowerFiltration,
    compose,
    identity_plf,
    kummer_different,
    last_breaks,
    mu_transitivity,
    phi_from_filtration,
    psi,
    thm12_assembly,
)
from ramibound.kisin import (
    Laurent,
    etale_new,
    etale_to_kisin,
    finite_field,
    height_witness,
    kisin_new,
    tame_character_oracle,
    tame_lift_build,
    u_power_witness,
)
from ramibound.errors import NotHeightError
from ramibound.padic import (
    LocalFieldModel,
    eisenstein_validate,
    poly_add,
    poly_mul,
)
from ramibound.solver import (
    build_jset_problem,
    exact_solution_set,
    injectivity_gap,
    jset_enumerate,
    lift_solution,
    rho_reduce,
    splitting_test,
    truncate_solution,
)
from ramibound.witt import (
    LocalRing,
    ZZRing,
    ghost_components,
    ghost_solve_valuations,
    power_frobenius,
    teichmuller,
    teichmuller_scale,
    universal_polys,
    witt_add,
    witt_mul,
    witt_neg,
    witt_sub,
)

from test_herbrand import random_concave_plf
from test_kisin import el_one, modp_height_witness


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:2d}: FAIL  {text}")
        raise
    print(f"ACCEPTANCE {num:2d}: PASS  {text}")


def grid_polys(p: int, e: int):
    yield "u^e-p", eisenstein_validate((-p,) + (0,) * (e - 1) + (1,), p), True
    yield "u^e+p", eisenstein_validate((p,) + (0,) * (e - 1) + (1,), p), True
    if e == 1:
        mixed = (2 * p, 1)
    else:
        mixed = (p,) + (0,) * (e - 2) + (p, 1)
    yield "mixed", eisenstein_validate(mixed, p), False


def test_criterion_01_nilpotency_sharpness_grid():
    with criterion(1, "nilpotency grid: exact index below every closed form"):
        start = time.time()
        strictly_sharper = 0
        for p in (3, 5):
            for e in (1, 2, 3):
                for name, E, is_binomial in grid_polys(p, e):
                    for n in (1, 2, 3):
                        for r in (1, 2, 3):
                            summary = nilpotency_summary(E, n, r)
                            exact = summary["exact"]
                            for key, bound in summary.items():
                                if key != "exact":
                                    assert exact <= bound, (p, e, name, n, r, key)
                            if exact < summary["ern"]:
                                strictly_sharper += 1
                            if n == 1:
                                assert exact == e * r, (p, e, name, r)
                            if is_binomial:
                                assert exact <= e * (n + r - 1), (p, e, name, n, r)
        assert strictly_sharper > 0, "brute force never improved on e*r*n"
        elapsed = time.time() - start
        assert elapsed < 30, f"grid took {elapsed:.1f}s"


def test_criterion_02_specific_indices():
    with criterion(2, "exact indices for (u+3, n=2, r=2) and (u+3, n=2, r=1)"):
        E = eisenstein_validate((3, 1), 3)
        assert exact_nilpotency_index(E, 2, 2) == 3
        assert exact_nilpotency_index(E, 2, 1) == 2


def test_criterion_03_witt_core():
    with criterion(3, "Witt integrality, ghost homomorphism, Teichmueller scale"):
        start = time.time()
        for p in (3, 5):
            for n in (1, 2, 3, 4):
                universal_polys(p, n)  # integrality asserted inside
        ZZ = ZZRing()
        rng = random.Random(2024)
        for _ in range(1000):
            p = rng.choice([3, 5])
            n = rng.randrange(1, 5)
            x = tuple(rng.randrange(-9, 10) for _ in range(n))
            y = tuple(rng.randrange(-9, 10) for _ in range(n))
            gx = ghost_components(ZZ, p, x)
            gy = ghost_components(ZZ, p, y)
            assert ghost_components(ZZ, p, witt_add(ZZ, p, x, y)) == tuple(
                a + b for a, b in zip(gx, gy)
            )
            assert ghost_components(ZZ, p, witt_mul(ZZ, p, x, y)) == tuple(
                a * b for a, b in zip(gx, gy)
            )
        for _ in range(1000):
            p = rng.choice([3, 5])
            M = rng.randrange(1, 4)
            n = rng.randrange(1, 5)
            # Z/p^M is the degree-1 model Z_p[x]/(x + p) at M digits
            R = LocalRing(LocalFieldModel(eisenstein_validate((p, 1), p), M))
            q = p ** M
            z = R.from_int(rng.randrange(q))
            x = tuple(R.from_int(rng.randrange(q)) for _ in range(n))
            assert teichmuller_scale(R, p, z, x) == witt_mul(
                R, p, teichmuller(R, z, n), x
            )
        elapsed = time.time() - start
        assert elapsed < 30, f"witt core took {elapsed:.1f}s"


def test_criterion_04_phantom_valuations():
    with criterion(4, "vanishing-ghost component valuations match the closed form"):
        for e in (1, 2):
            for s in (0, 1):
                for n in (1, 2, 3):
                    v0 = F(e, 2) + F(3) ** (-(s + 1))
                    vals = ghost_solve_valuations(v0, e, 3, n)
                    assert vals == [
                        F(e, 2) + F(3) ** (i - s - 1) for i in range(n)
                    ]


def test_criterion_05_bound_reports():
    with criterion(5, "bound reports, assembly agreement, conjecture dominance"):
        r1 = ramification_report(3, 1, 1, 1)
        assert r1.thm11_mu == F(3, 2)
        assert r1.thm12_mu == F(5, 2)
        assert r1.thm12_diff == F(13, 6)
        assert r1.conj13_mu == F(5, 2)
        r2 = ramification_report(3, 1, 2, 2)
        assert r2.thm12_mu == F(14, 3)
        assert r2.thm12_diff == F(125, 27)

        rng = random.Random(99)
        points = set()
        while len(points) < 50:
            points.add(
                (
                    rng.choice([3, 5, 7]),
                    rng.randrange(1, 5),
                    rng.randrange(1, 5),
                    rng.randrange(1, 5),
                )
            )
        for p, e, n, r in sorted(points):
            rep = ramification_report(p, e, n, r)
            assert thm12_assembly(p, e, n, r, e * r * n) == (
                rep.thm12_mu,
                rep.thm12_diff,
            ), (p, e, n, r)

        for p in (3, 5, 7):
            for e, n, r in itertools.product(range(1, 5), repeat=3):
                rep = ramification_report(p, e, n, r)
                assert rep.conj13_mu <= rep.thm12_mu, (p, e, n, r)
                assert rep.conj13_diff <= rep.thm12_diff, (p, e, n, r)


def test_criterion_06_herbrand():
    with criterion(6, "transition-function inverse law, tame break, two-break case"):
        rng = random.Random(7)
        for _ in range(100):
            f = random_concave_plf(rng)
            assert compose(psi(f), f) == identity_plf()
        tame = LowerFiltration(11, ((F(1), 1),))
        assert last_breaks(tame) == (1, 1)
        p = 3
        filt = LowerFiltration(p * p, ((F(1), p), (F(2), 1)))
        phi = phi_from_filtration(filt)
        assert phi(2) == 1 + F(1, p)
        quot = phi_from_filtration(LowerFiltration(p, ((F(1), 1),)))
        assert mu_transitivity(F(1), F(2), quot) == phi(2)
        assert kummer_different(3, 1, 1) == F(5, 3)


def test_criterion_07_tame_characters():
    with criterion(7, "tame lifts agree with the character oracle, all d <= 3"):
        start = time.time()
        cases = 0
        for d in (1, 2, 3):
            for seq in itertools.product(range(3), repeat=d):
                built = tame_lift_build(3, d, seq)
                oracle = tame_character_oracle(3, d, seq)
                assert built.exponent == oracle.exponent, seq
                cases += 1
        assert cases == 39
        assert tame_lift_build(3, 2, (0, 0)).exponent == 0
        assert tame_character_oracle(3, 3, (0, 0, 0)).exponent == 0
        elapsed = time.time() - start
        assert elapsed < 60, f"tame sweep took {elapsed:.1f}s"


def _rank1_u_problem(degree: int):
    E = eisenstein_validate((3, 1), 3)
    module = kisin_new(3, 1, E, [[(0, 1)]], r_hint=1)
    model = LocalFieldModel(
        eisenstein_validate((3,) + (0,) * (degree - 1) + (1,), 3), 24, e_norm=1
    )
    return build_jset_problem(module, model, s=1, r=1)


@pytest.fixture(scope="module")
def degree6_problem():
    return _rank1_u_problem(6)


def test_criterion_08_jsets_and_splitting(degree6_problem):
    with criterion(8, "reduced-image counts and splitting verdicts on both models"):
        ok6, count6 = splitting_test(degree6_problem, 3)
        assert count6 == 3 and ok6
        prob3 = _rank1_u_problem(3)
        ok3, count3 = splitting_test(prob3, 3)
        assert count3 == 1 and not ok3


def test_criterion_09_lifting(degree6_problem):
    with criterion(9, "every level-a class lifts; solutions separate below b/p^s"):
        prob = degree6_problem
        target = 6
        level_a = jset_enumerate(prob, "a")
        lifts = [lift_solution(prob, m, target_digits=target) for m in level_a.members]
        for lr in lifts:
            # independent residual recomputation at the certification target
            rp = lr.problem
            ring = LocalRing(rp.model)
            pi = rp.pi_s
            a_lift = rp.A_tilde
            d = rp.d
            for j in range(d):
                acc = None
                for i in range(d):
                    term = witt_mul(ring, 3, lr.X[i], a_lift[i][j])
                    acc = term if acc is None else witt_add(ring, 3, acc, term)
                res = witt_add(
                    ring, 3, power_frobenius(ring, 3, lr.X[j]), witt_neg(ring, 3, acc)
                )
                for comp in res:
                    xv = comp.xval()
                    assert xv is None or xv >= rp.model.m * target
            if lr.gamma is not None:
                assert lr.iterations <= -(-F(target) // lr.gamma) + 2
        reps, seen = [], set()
        for lr in lifts:
            key = truncate_solution(lr.problem, lr.X, prob.level_b)
            if key not in seen:
                seen.add(key)
                reps.append(lr.X)
        assert len(reps) == 3
        threshold = prob.level_b / 3
        for X, Y in itertools.combinations(reps, 2):
            verdict = injectivity_gap(prob, X, Y)
            assert not verdict.equal and verdict.valuation <= threshold


def test_criterion_10_non_surjectivity_witness():
    with criterion(10, "reduction map image strictly smaller than the target set"):
        prob = _rank1_u_problem(9)  # the Frobenius-equals-E module reduces to u
        sol_a = jset_enumerate(prob, "a")
        sol_b = jset_enumerate(prob, "b")
        image = rho_reduce(prob, sol_a, "b")
        assert len(image) < len(sol_b)
        assert (len(image), len(sol_b)) == (1, 3)


def _reverify(module, wit, target_poly):
    q = module.q
    d = module.rank
    for i in range(d):
        for j in range(d):
            acc = ()
            for k in range(d):
                acc = poly_add(acc, poly_mul(module.entries[i][k], wit.B[k][j], q), q)
            want = target_poly if i == j else ()
            for t in range(wit.uprec):
                av = acc[t] if t < len(acc) else 0
                wv = want[t] if t < len(want) else 0
                assert (av - wv) % q == 0


def test_criterion_11_height_witnesses():
    with criterion(11, "height and u-power witnesses re-verify; etale heights sharp"):
        E = eisenstein_validate((3, 1), 3)
        E2 = eisenstein_validate((-3, 0, 1), 3)
        shipped = [
            (kisin_new(3, 2, E, [[(3, 1)]], r_hint=1), 1, 2),
            (kisin_new(3, 2, E, [[(1,)]], r_hint=2), 2, None),
            (kisin_new(3, 1, E, [[(0, 1)]], r_hint=1), 1, 1),
            (kisin_new(3, 2, E, [[(), (3, 1)], [(1,), ()]], r_hint=1), 1, 2),
            (kisin_new(3, 1, E2, [[(0, 0, 1)]], r_hint=1), 1, 2),
            (tame_lift_build(3, 2, (1, 0), n=2).module, 1, None),
        ]
        for module, r, N in shipped:
            wit = height_witness(module, r)
            _reverify(module, wit, module.E.power(r, module.q))
            if N is None:
                N = exact_nilpotency_index(module.E, module.n, r)
            wu = u_power_witness(module, wit, N)
            _reverify(module, wu, (0,) * N + (1,))

        F3 = finite_field(3, 1)
        one = el_one(F3)
        for laurent, expect_r in [
            (Laurent(0, (one,)), 0),
            (Laurent(3, (one,)), 3),
            (Laurent(-1, (one,)), 1),
        ]:
            em = etale_new(F3, ((laurent,),), e=1)
            res = etale_to_kisin(em)
            assert res.r == expect_r
            modp_height_witness(F3, res.matrix, 1, res.r, em.uprec)
            if res.det_val > 1 * (res.r - 1) and res.r >= 1:
                with pytest.raises(NotHeightError):
                    modp_height_witness(F3, res.matrix, 1, res.r - 1, em.uprec)
