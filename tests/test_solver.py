import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import random
import sys
import threading
from fractions import Fraction as F

import pytest

from ramibound.errors import (
    CapExceededError,
    InputError,
    NonConvergenceError,
    NotHeightError,
    PrecisionError,
    UndecidableError,
)
from ramibound.kisin import kisin_new
from ramibound import padic, solver
from ramibound.padic import LocalElement, LocalFieldModel, eisenstein_validate
from ramibound.solver import (
    _teich_div,
    build_jset_problem,
    exact_solution_set,
    injectivity_gap,
    jset_enumerate,
    lift_solution,
    member_to_witt,
    rho_reduce,
    splitting_test,
    truncate_solution,
    with_precision,
)
from ramibound.witt import (
    LocalRing,
    ideal_membership_gt,
    power_frobenius,
    teichmuller_powers,
    witt_add,
    witt_arith_symbolic,
    witt_neg,
    witt_sub,
)
from test_cli import run_cli
from test_kisin import ops_mat_mul

E13 = eisenstein_validate((3, 1), 3)


def model_of_degree(m, prec=24):
    return LocalFieldModel(
        eisenstein_validate((3,) + (0,) * (m - 1) + (1,), 3), prec, e_norm=1
    )


def u_module():
    return kisin_new(3, 1, E13, [[(0, 1)]], r_hint=1)


@pytest.fixture(scope="module")
def prob6():
    return build_jset_problem(u_module(), model_of_degree(6), s=1, r=1)


@pytest.fixture(scope="module")
def prob3():
    return build_jset_problem(u_module(), model_of_degree(3), s=1, r=1)


@pytest.fixture(scope="module")
def prob9():
    return build_jset_problem(u_module(), model_of_degree(9), s=1, r=1)


def test_problem_constants(prob6):
    assert prob6.N == 1
    assert prob6.level_a == F(3, 2)
    assert prob6.level_b == F(1, 2)
    assert prob6.pi_s == prob6.model.uniformizer_pow(2)


def test_problem_validation():
    with pytest.raises(InputError):
        # model whose degree is not a multiple of e*p^s
        build_jset_problem(u_module(), model_of_degree(4), s=1, r=1)
    with pytest.raises(InputError):
        # s below the minimal admissible level
        build_jset_problem(u_module(), model_of_degree(6), s=0, r=1)
    with pytest.raises(InputError):
        # wrong normalization on the model
        bad = LocalFieldModel(eisenstein_validate((3, 0, 0, 0, 0, 0, 1), 3), 24, 2)
        build_jset_problem(u_module(), bad, s=1, r=1)


PI_S_EISENSTEIN = ((3, 1), (-3, 1), (3, 0, 1), (-3, 0, 1), (3, 3, 1))


def pi_s_models(rng):
    """Generators E(x^k) for each E of PI_S_EISENSTEIN and k in (2, 3, 6, 9),
    over which x^k is a root of E (binomial, or not for E = u^2 + 3u + 3),
    and two random Eisenstein generators of each degree in
    (3, 4, 6, 9, 12, 18)."""
    models = set()
    for coeffs in PI_S_EISENSTEIN:
        for k in (2, 3, 6, 9):
            g = [0] * (k * (len(coeffs) - 1) + 1)
            g[::k] = coeffs
            models.add(tuple(g))
    for m in (3, 4, 6, 9, 12, 18):
        for _ in range(2):
            low = tuple(3 * rng.randrange(-1, 2) for _ in range(m - 1))
            models.add((3 * rng.choice([1, -1, 2, -2]),) + low + (1,))
    return sorted(models)


def test_pi_s_is_the_one_power_of_x_that_can_be():
    """A problem builds exactly when E vanishes at the p^s-th power of
    x^(m/(e*p^s)), whose pi_s is then that power; and no other x^t with
    1 <= t <= m makes E vanish at its p^s-th power, as x^t has v_p = t/m
    and pi_s has v_p = 1/(e*p^s).  E is evaluated term by term on powers
    of x, not by the solver's own evaluation."""
    models = pi_s_models(random.Random(5))
    built = refused = 0
    for coeffs in PI_S_EISENSTEIN:
        E = eisenstein_validate(coeffs, 3)
        module = kisin_new(3, 1, E, [[(0, 1)]], r_hint=1)
        for g in models:
            model = LocalFieldModel(eisenstein_validate(g, 3), 8, e_norm=E.e)
            m = model.m
            for s in (1, 2):
                ps = 3 ** s
                roots = [
                    t for t in range(1, m + 1)
                    if sum(
                        (model.uniformizer_pow(t * ps * i).mul_int(c)
                         for i, c in enumerate(coeffs)),
                        model.zero(),
                    ).is_zero_at_prec()
                ]
                derived = m // (E.e * ps) if m % (E.e * ps) == 0 else None
                assert set(roots) <= {derived}, (coeffs, g, s, roots)
                try:
                    prob = build_jset_problem(module, model, s=s, r=1)
                except InputError as exc:
                    assert not roots, (coeffs, g, s, exc)
                    refused += 1
                    continue
                assert roots == [derived], (coeffs, g, s)
                assert prob.pi_s == model.uniformizer_pow(derived)
                built += 1
    assert (built, refused) == (26, 274)


def test_enumeration_counts(prob6, prob3):
    assert len(jset_enumerate(prob6, "a")) == 27
    assert len(jset_enumerate(prob6, "b")) == 3
    assert len(jset_enumerate(prob3, "a")) == 3
    assert len(jset_enumerate(prob3, "b")) == 1


def test_image_and_splitting(prob6, prob3):
    ok6, count6 = splitting_test(prob6, 3)
    assert ok6 and count6 == 3
    ok3, count3 = splitting_test(prob3, 3)
    assert not ok3 and count3 == 1


def recheck_member(prob, member, c):
    """Oracle: whether the member's residual phi(X) - X * A~ lies in
    [a^{>c/p^s}], with the Witt sums and products taken by the symbolic
    universal polynomials instead of the ghost solving of ``_residual``."""
    ring, p = LocalRing(prob.model), prob.p
    X = member_to_witt(prob, member)
    (XA,) = ops_mat_mul(
        (X,),
        prob.A_tilde,
        lambda a, b: witt_arith_symbolic(ring, p, a, b, "mul"),
        lambda a, b: witt_arith_symbolic(ring, p, a, b, "add"),
    )
    level = prob.quotient_level(c)
    for x, xa in zip(X, XA):
        phi_x, neg_xa = power_frobenius(ring, p, x), witt_neg(ring, p, xa)
        res = witt_arith_symbolic(ring, p, phi_x, neg_xa, "add")
        if not ideal_membership_gt(res, level):
            return False
    return True


def test_members_recheck_with_symbolic_arithmetic(prob6):
    sol = jset_enumerate(prob6, "a")
    assert all(recheck_member(prob6, m, sol.level) for m in sol.members)


def test_non_solution_rejected(prob6):
    sol = jset_enumerate(prob6, "a")
    # a unit perturbation of the solution x is not a solution and is absent
    bad = (((1, 1, 0, 0, 0, 0),),)
    assert bad not in sol.members
    assert not recheck_member(prob6, bad, sol.level)
    good = (((0, 1, 0, 0, 0, 0),),)
    assert good in sol.members


def one_plus_u_problem():
    """phi(e) = (1 + u) e at Witt length 2 over x^9 + 3, s = 2: level b is
    1, and J_2 and J_b have 9 members each."""
    mod = kisin_new(3, 2, E13, [[(1, 1)]], r_hint=1)
    return build_jset_problem(mod, model_of_degree(9, prec=16), s=2, r=1)


def test_rho_composition_law(prob6):
    for prob, source, mid in (
        (prob6, "a", F(1)),
        (one_plus_u_problem(), F(2), F(5, 3)),
    ):
        sol_a = jset_enumerate(prob, source)
        direct = rho_reduce(prob, sol_a, "b")
        via_mid = rho_reduce(prob, rho_reduce(prob, sol_a, mid), "b")
        assert set(direct.members) == set(via_mid.members)
        assert len(direct) == len(via_mid)
        # reduction to its own level is the identity
        same = rho_reduce(prob, sol_a, sol_a.level)
        assert set(same.members) == set(sol_a.members)


def test_rho_maps_generators_not_members(monkeypatch):
    """rho calls the class map once per generator: 5 times for the 243
    members of the u module at level a over x^12 + 3."""
    prob = build_jset_problem(u_module(), model_of_degree(12), s=1, r=1)
    sol = jset_enumerate(prob, "a")
    calls = []
    class_map = solver.truncate_solution

    def counted(*args):
        calls.append(args)
        return class_map(*args)

    monkeypatch.setattr(solver, "truncate_solution", counted)
    image = rho_reduce(prob, sol, "b")
    assert (len(sol), len(sol.generators), len(calls), len(image)) == (243, 5, 5, 3)


def test_jset_lists_no_member(monkeypatch):
    """``jset`` counts from ranks: with the member listing made to raise,
    the 59049-member call (the u^2 module at Witt length 2 over x^27 + 3)
    still prints its recorded output, whose digest CI also checks."""

    def refuse(sol):
        raise AssertionError("jset listed the members of a solution set")

    monkeypatch.setattr(solver.JSolutionSet, "members", property(refuse))
    code, out = run_cli([
        "jset", "--eisenstein", "3,1", "--n", "2", "--r", "3", "--matrix", "0:0:1",
        "--model", "3," + "0," * 26 + "1", "--s", "3", "--cap", "2000000000",
    ])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ccbaf57216c0c307de55c584bce0c9eb4a2b0637f49a30afc194f0128db670c3"
    )


def test_jset_counts_sets_past_sys_maxsize():
    """A set's order is p to its rank, which may exceed what ``len()``
    returns: diag(u, u) over x^120 + 3 has 3^82 members at level a."""
    code, out = run_cli([
        "jset", "--eisenstein", "3,1", "--n", "1", "--r", "1", "--matrix", "0:1,;,0:1",
        "--model", "3," + "0," * 119 + "1", "--s", "1", "--cap", str(10 ** 100),
    ])
    assert code == 0
    report = json.loads(out)
    counts = (report["count"], report["count_b"], report["image_ab"])
    assert counts == (3 ** 82, 3 ** 28, 9)
    assert report["count"] > sys.maxsize


def seeded_vector(rng, prob):
    """A d-vector of Witt vectors whose every coefficient is drawn mod
    p^prec."""
    model = prob.model
    return tuple(
        tuple(
            model.from_coeffs(tuple(rng.randrange(model.q) for _ in range(model.m)))
            for _ in range(prob.n)
        )
        for _ in range(prob.d)
    )


def seeded_ideal_vector(rng, prob, c):
    """A seeded d-vector in I_c: component i is a drawn element times x^k,
    for the least k with k * e/m above the threshold p^i * c/p^s."""
    model = prob.model
    return tuple(
        tuple(
            comp * model.uniformizer_pow(
                int(prob.comp_threshold(c, i) * model.m / model.e_norm) + 1
            )
            for i, comp in enumerate(vec)
        )
        for vec in seeded_vector(rng, prob)
    )


def class_map_cases():
    """(problem, levels): the length-2 u^2 module over x^27 + 3 and the
    trivial length-3 module over x^81 + 3, at levels in and beyond their
    admissible ranges [0, 9)."""
    yield length_two_problem(), (F(0), F(3, 2), F(9, 2), F(26, 3), F(12))
    mod = kisin_new(3, 3, E13, [[(1,)]], r_hint=1)
    prob = build_jset_problem(mod, model_of_degree(81, prec=4), s=4, r=1)
    yield prob, (F(1, 3), prob.level_b, F(8), F(10))


def test_class_map_is_constant_on_classes():
    """truncate_solution(X) = truncate_solution(X + Y) for seeded Y in I_c,
    and X minus its representative lies in I_c."""
    rng = random.Random(20261019)
    for prob, levels in class_map_cases():
        ring, p = LocalRing(prob.model), prob.p
        for c in levels:
            level = prob.quotient_level(c)
            for _ in range(3):
                X, Y = seeded_vector(rng, prob), seeded_ideal_vector(rng, prob, c)
                assert all(ideal_membership_gt(y, level) for y in Y)
                rep = truncate_solution(prob, X, c)
                moved = tuple(witt_add(ring, p, x, y) for x, y in zip(X, Y))
                assert truncate_solution(prob, moved, c) == rep, c
                for x, r in zip(X, member_to_witt(prob, rep)):
                    assert ideal_membership_gt(witt_sub(ring, p, x, r), level), c


def test_class_map_computes_each_levels_cutoffs_once(monkeypatch):
    """A loop of class maps computes the coefficient cutoffs of each
    (model, level) once, however many vectors and components it reads: 60
    maps of the u^2 module over x^27 + 3 at three levels read two
    component thresholds each, and build, enumeration and maps together
    compute no level's cutoffs twice on one model."""
    computed = []
    real = LocalFieldModel._level_cutoffs

    def counting(model, level):
        computed.append((id(model), level))
        return real(model, level)

    monkeypatch.setattr(LocalFieldModel, "_level_cutoffs", counting)
    prob = length_two_problem()
    jset_enumerate(prob, "b")
    rng = random.Random(20261020)
    levels = (F(1), F(2), F(5))
    for c in levels:
        for _ in range(20):
            truncate_solution(prob, seeded_vector(rng, prob), c)
    read = {(id(prob.model), prob.comp_threshold(c, i)) for c in levels for i in range(2)}
    assert len(read) == 6
    assert read <= set(computed)
    assert len(computed) == len(set(computed))


def test_class_map_at_length_one_is_the_componentwise_truncation(prob6):
    """At n = 1 the class map truncates the one component, at admissible
    levels and at the inadmissible level 5 of ``test_lift_fixed_point``."""
    rng = random.Random(20261019)
    for c in (F(0), prob6.level_b, prob6.level_a, F(5)):
        for _ in range(5):
            X = seeded_vector(rng, prob6)
            assert truncate_solution(prob6, X, c) == tuple(
                (vec[0].truncate_to_level(prob6.comp_threshold(c, 0)),) for vec in X
            )


def test_class_map_refuses_components_known_too_coarsely(prob6):
    """A component that is not known to the digits its threshold reads
    raises UndecidableError, at component 0 and at component 1: level b of
    the u^2 module reads x^0, x^1 of component 0 and x^0, ..., x^4 of
    component 1; level 5 over x^6 + 3 reads digit 2 of coefficient 0, that
    is x^6."""
    prob = length_two_problem()
    (vec,) = member_to_witt(prob, EXACT_LEN2)
    for coarse in (
        (LocalElement(prob.model, vec[0].coeffs, 1), vec[1]),
        (vec[0], LocalElement(prob.model, vec[1].coeffs, 4)),
    ):
        with pytest.raises(UndecidableError):
            truncate_solution(prob, (coarse,), prob.level_b)
    x = prob6.model.uniformizer_pow(1)
    with pytest.raises(UndecidableError):
        truncate_solution(prob6, ((LocalElement(prob6.model, x.coeffs, 6),),), F(5))


def test_remark_module_non_surjective(prob9):
    sol_a = jset_enumerate(prob9, "a")
    sol_b = jset_enumerate(prob9, "b")
    image = rho_reduce(prob9, sol_a, "b")
    assert len(image) < len(sol_b)
    assert len(image) == 1 and len(sol_b) == 3


def test_trivial_frobenius_counts_p(prob6):
    mod_one = kisin_new(3, 1, E13, [[(1,)]], r_hint=1)
    prob = build_jset_problem(mod_one, model_of_degree(6), s=1, r=1)
    assert len(jset_enumerate(prob, "a")) == 3
    ok, count = splitting_test(prob, 3)
    assert ok and count == 3


def test_zero_rank_module(prob6):
    mod0 = kisin_new(3, 1, E13, [], r_hint=1)
    prob = build_jset_problem(mod0, model_of_degree(6), s=1, r=1)
    sol = jset_enumerate(prob, "a")
    assert len(sol) == 1 and sol.members == ((),)


def test_cap_enforced():
    with pytest.raises(CapExceededError):
        build_and_enumerate = build_jset_problem(
            u_module(), model_of_degree(6), s=1, r=1, cap=10
        )
        jset_enumerate(build_and_enumerate, "a")


def test_cap_checked_before_residue_lists(monkeypatch):
    """The cap bounds the full product and is checked before any residual
    is evaluated."""
    prob = build_jset_problem(u_module(), model_of_degree(6), s=1, r=1, cap=80)

    def no_residuals(*args, **kwargs):
        raise AssertionError("residual evaluated before the cap check")

    monkeypatch.setattr(solver, "_residual", no_residuals)
    with pytest.raises(CapExceededError, match="81 candidates"):
        jset_enumerate(prob, "a")


def test_lift_all_level_a_classes(prob6):
    exact, lifts = exact_solution_set(prob6, target_digits=6)
    assert len(exact) == 3
    for lr in lifts:
        if lr.gamma is not None:
            budget = -(-F(6) // lr.gamma) + 2
            assert lr.iterations <= budget
        assert lr.certified_digits == 6


def test_lift_zero_class(prob6):
    lr = lift_solution(prob6, (((0,) * 6,),), target_digits=6)
    assert lr.iterations == 0


def test_lift_stays_in_class_and_is_exact(prob6):
    member = (((0, 1, 0, 1, 0, 0),),)  # x + x^3, a level-a solution
    lr = lift_solution(prob6, member, target_digits=6)
    assert lr.iterations >= 1
    prob = lr.problem
    key_lift = truncate_solution(prob, lr.X, prob6.level_b)
    key_start = truncate_solution(prob, member_to_witt(prob, member), prob6.level_b)
    assert key_lift == key_start
    # it converged to the honest solution x
    ring = LocalRing(prob.model)
    x_sol = member_to_witt(prob, (((0, 1, 0, 0, 0, 0),),))
    diff = witt_sub(ring, 3, lr.X[0], x_sol[0])
    for comp in diff:
        v = comp.valuation()
        val = v.value if hasattr(v, "value") else v
        assert val >= 6


def test_injectivity_separation(prob6):
    exact, lifts = exact_solution_set(prob6, target_digits=6)
    reps = []
    seen = set()
    for lr in lifts:
        key = truncate_solution(lr.problem, lr.X, prob6.level_b)
        if key not in seen:
            seen.add(key)
            reps.append(lr.X)
    assert len(reps) == 3
    threshold = prob6.level_b / 3
    for X, Y in itertools.combinations(reps, 2):
        verdict = injectivity_gap(prob6, X, Y)
        assert not verdict.equal
        assert verdict.valuation <= threshold
    assert injectivity_gap(prob6, reps[0], reps[0]).equal


def test_lift_fixed_point(prob6):
    # feeding a converged solution back through the solver is a no-op at the
    # certification precision
    member = (((0, 2, 0, 1, 0, 0),),)
    lr = lift_solution(prob6, member, target_digits=6)
    again_member = tuple(tuple(c.coeffs for c in vec) for vec in lr.X)
    lr2 = lift_solution(lr.problem, again_member, target_digits=6)
    assert lr2.iterations == 0
    deep = F(5)  # well below the certified depth, far above level b
    assert truncate_solution(lr2.problem, lr2.X, deep) == truncate_solution(
        lr.problem, lr.X, deep
    )


def test_lift_from_level_b_only_class_fails(prob9):
    # y = x solves the congruence at level b but not at level a
    bad = ((tuple([0, 1] + [0] * 7),),)
    with pytest.raises(NonConvergenceError):
        lift_solution(prob9, bad, target_digits=4)


@pytest.mark.parametrize("fails", [0, 2, solver.LIFT_ATTEMPTS])
def test_lift_retries_with_doubled_precision(prob6, monkeypatch, fails):
    precs = []

    def attempt(prob, member, target_digits):
        precs.append(prob.model.prec)
        if len(precs) <= fails:
            raise PrecisionError("certification needs more digits")
        return prob.model.prec

    monkeypatch.setattr(solver, "_lift_attempt", attempt)
    base = prob6.model.prec
    if fails == solver.LIFT_ATTEMPTS:
        with pytest.raises(PrecisionError):
            lift_solution(prob6, None, 6)
    else:
        assert lift_solution(prob6, None, 6) == base * 2 ** fails
    tried = min(fails + 1, solver.LIFT_ATTEMPTS)
    assert precs == [base * 2 ** i for i in range(tried)]


def test_with_precision_rebuild(prob6):
    boosted = with_precision(prob6, 30)
    assert boosted.model.prec == 30
    assert boosted.N == prob6.N
    assert boosted.pi_s == boosted.model.uniformizer_pow(2)
    assert len(jset_enumerate(boosted, "b")) == 3


def test_degree6_counts_against_independent_bruteforce(prob6):
    # recount the level-a solutions with plain polynomial arithmetic over
    # Z[x]/(x^6+3) mod 3^8, bypassing every solver and Witt code path
    q = 3 ** 8
    g = (3, 0, 0, 0, 0, 0, 1)

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, va in enumerate(a):
            for j, vb in enumerate(b):
                out[i + j] += va * vb
        for i in range(len(out) - 1, 5, -1):
            c = out[i]
            if c:
                out[i] = 0
                for j in range(7):
                    out[i - 6 + j] -= c * g[j]
        return [v % q for v in out[:6]]

    def xval(vec):
        best = None
        for j, a in enumerate(vec):
            a %= q
            if a == 0:
                continue
            v = 0
            while a % 3 == 0:
                a //= 3
                v += 1
            t = 6 * v + j
            if best is None or t < best:
                best = t
        return best

    solutions = []
    for a0 in range(3):
        for a1 in range(3):
            for a2 in range(3):
                for a3 in range(3):
                    y = [a0, a1, a2, a3, 0, 0]
                    lhs = mul(mul(y, y), y)
                    rhs = mul([0, 0, 1, 0, 0, 0], y)  # pi_s = x^2 acts
                    diff = [(u - v) % q for u, v in zip(lhs, rhs)]
                    t = xval(diff)
                    if t is None or t > 3:  # v > 1/2 means x-valuation > 3
                        solutions.append((a0, a1, a2, a3))
    assert len(solutions) == len(jset_enumerate(prob6, "a")) == 27
    # the level-b ideal keeps only the constant and x coefficients mod 3,
    # so the reduced image is the set of (a0, a1) pairs
    image = {(s[0], s[1]) for s in solutions}
    assert len(image) == 3


def test_rank2_swap_module_pipeline():
    # phi(e_1) = e_2, phi(e_2) = E e_1: exercises matrix lifts, the d = 2
    # normalization, and vector-valued enumeration and lifting
    mod = kisin_new(3, 1, E13, [[(), (0, 1)], [(1,), ()]], r_hint=1)
    prob = build_jset_problem(mod, model_of_degree(6), s=1, r=1)
    assert prob.N == 1
    sol_a = jset_enumerate(prob, "a")
    image = rho_reduce(prob, sol_a, "b")
    assert len(sol_a) == 9 and len(image) == 1
    ok, count = splitting_test(prob, 3 ** 2)
    assert not ok and count == 1
    # the nonzero classes all collapse onto the zero solution
    lr = lift_solution(prob, sol_a.members[4], target_digits=5)
    for vec in lr.X:
        for comp in vec:
            v = comp.valuation()
            val = v.value if hasattr(v, "value") else v
            assert val >= 5


def test_ramified_base_field_instance():
    # E = u^2 - 3 (e = 2), module phi(e) = u e mod p, model x^6 - 3 at s = 1
    E2 = eisenstein_validate((-3, 0, 1), 3)
    mod = kisin_new(3, 1, E2, [[(0, 1)]], r_hint=1)
    model = LocalFieldModel(
        eisenstein_validate((-3, 0, 0, 0, 0, 0, 1), 3), 24, e_norm=2
    )
    prob = build_jset_problem(mod, model, s=1, r=1)
    assert prob.N == 2
    assert prob.level_a == 3 and prob.level_b == 1
    sol_a = jset_enumerate(prob, "a")
    assert sol_a.members == (
        (((0, 0, 0, 0, 0, 0),),),
        (((0, 0, 0, 1, 0, 0),),),
        (((0, 0, 0, 2, 0, 0),),),
    )
    assert len(jset_enumerate(prob, "b")) == 3
    ok, count = splitting_test(prob, 3)
    assert not ok and count == 1
    # the nonzero classes collapse onto the single exact solution 0
    lr = lift_solution(prob, sol_a.members[1], target_digits=6)
    for comp in lr.X[0]:
        v = comp.valuation()
        val = v.value if hasattr(v, "value") else v
        assert val >= 12  # v_K units with e_norm = 2


# an exact solution of the length-2 u^2 module over x^27 + 3: (x, x^3)
EXACT_LEN2 = ((tuple([0, 1] + [0] * 25), tuple([0, 0, 0, 1] + [0] * 23)),)


def length_two_problem():
    """phi(e) = u^2 e over length-2 Witt vectors; height 3, N = 3, s = 3."""
    mod = kisin_new(3, 2, E13, [[(0, 0, 1)]], r_hint=3)
    return build_jset_problem(mod, model_of_degree(27, prec=16), s=3, r=3)


def perturbed_length_two_member(prob):
    """The exact solution plus a Witt-additive perturbation inside the
    level-a ideal: another representative of the same class."""
    w = member_to_witt(
        prob,
        ((tuple([0] * 6 + [1] + [0] * 20), tuple([0] * 15 + [1] + [0] * 11)),),
    )
    assert ideal_membership_gt(w[0], prob.quotient_level(prob.level_a))
    Xe = member_to_witt(prob, EXACT_LEN2)
    X0v = witt_add(LocalRing(prob.model), 3, Xe[0], w[0])
    return (tuple(c.coeffs for c in X0v),)


def test_length_two_witt_lift():
    prob = length_two_problem()
    assert prob.N == 3 and prob.level_a == F(9, 2)
    exact_member = EXACT_LEN2
    # exact solutions stay exact
    lr0 = lift_solution(prob, exact_member, target_digits=6)
    assert lr0.iterations == 0

    # the lift must recover the solution from the perturbed representative
    member0 = perturbed_length_two_member(prob)
    lr = lift_solution(prob, member0, target_digits=6)
    assert lr.iterations >= 1
    ring2 = LocalRing(lr.problem.model)
    Xe2 = member_to_witt(lr.problem, exact_member)
    for comp in witt_sub(ring2, 3, lr.X[0], Xe2[0]):
        v = comp.valuation()
        val = v.value if hasattr(v, "value") else v
        # recovered the true solution to at least the certified precision
        assert val >= 6
    assert truncate_solution(lr.problem, lr.X, prob.level_b) == truncate_solution(
        lr.problem, member_to_witt(lr.problem, member0), prob.level_b
    )


def test_concurrent_lifts_share_lift_constants():
    """Two lifts on one problem, one held inside the divisor of part 0 of
    the lift constants until the other has stored part 0 and is making
    part 1: the constants keep one divisor half per Witt level, and both
    lifts certify at the problem's own precision, as a lift alone does."""
    alone_prob = length_two_problem()
    member = perturbed_length_two_member(alone_prob)
    alone = lift_solution(alone_prob, member, target_digits=6)
    (alone_consts,) = alone_prob.lift_memo.values()
    want_ks = [k for k, _ in alone_consts.div_parts]
    assert len(want_ks) == 2

    prob = length_two_problem()
    real_divisor = LocalElement.divisor
    first_held = threading.Event()
    second_in_part_1 = threading.Event()
    held = []

    def divisor(self):
        consts = list(prob.lift_memo.values())
        if any(self is c.divisor_pows[0] for c in consts) and not held:
            held.append(threading.current_thread())
            first_held.set()
            # the wait is not inside an assert, which python -O would drop
            if not second_in_part_1.wait(timeout=60):
                raise TimeoutError("the second lift never reached part 1")
        elif any(self is c.divisor_pows[1] for c in consts):
            if threading.current_thread() is not held[0]:
                second_in_part_1.set()
        return real_divisor(self)

    results = {}

    def lift(name):
        try:
            results[name] = lift_solution(prob, member, target_digits=6)
        except BaseException as exc:  # reported by the main thread
            results[name] = exc

    first = threading.Thread(target=lift, args=("first",))
    second = threading.Thread(target=lift, args=("second",))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LocalElement, "divisor", divisor)
        first.start()
        first_held.wait(timeout=60)
        second.start()
        first.join(timeout=120)
        second.join(timeout=120)
    assert not first.is_alive() and not second.is_alive()
    assert second_in_part_1.is_set()
    (consts,) = prob.lift_memo.values()
    assert [k for k, _ in consts.div_parts] == want_ks
    for name in ("first", "second"):
        got = results[name]
        assert isinstance(got, solver.LiftResult), got
        assert got.problem is prob
        assert (got.X, got.iterations) == (alone.X, alone.iterations)


# ---------------------------------------------------------------------------
# staged enumeration against the full-product oracle
# ---------------------------------------------------------------------------


def level_component_reps(prob, c, below=None):
    """For each Witt component, the coefficient tuples that extend a
    canonical representative at level ``below`` to one at level c:
    coefficient j gains p^{k_old} * t for 0 <= t < p^{k_new - k_old}, where
    k_old and k_new are its cutoffs at the two levels.  With ``below`` None
    the old cutoffs are 0, and these are the canonical representatives at c."""
    model = prob.model
    p = prob.p
    per_comp = []
    for i in range(prob.n):
        new = model.coeff_cutoffs(prob.comp_threshold(c, i))
        old = (
            (0,) * len(new)
            if below is None
            else model.coeff_cutoffs(prob.comp_threshold(below, i))
        )
        ranges = [range(0, p ** k, p ** k0) for k0, k in zip(old, new)]
        per_comp.append([tuple(t) for t in itertools.product(*ranges)])
    return per_comp


def bruteforce_members(prob, level):
    """Every vector of canonical residues at the level, in product order,
    kept when its residual lies in the ideal: the enumerator that staged
    enumeration replaced."""
    c = solver.resolve_level(prob, level)
    ring = LocalRing(prob.model)
    coord_space = list(itertools.product(*level_component_reps(prob, c)))
    members = []
    for combo in itertools.product(coord_space, repeat=prob.d):
        res = solver._residual(prob, ring, member_to_witt(prob, combo), prob.n)
        if all(ideal_membership_gt(e, prob.quotient_level(c)) for e in res):
            members.append(combo)
    return tuple(members)


def stage_levels(prob, c):
    """Ascending levels for staged enumeration, ending at c.

    Coefficient j of Witt component i gains a digit at each level
    e_norm * p^(s-i) * (j/m + t), t >= 0.  The last breakpoint <= c has the
    same cutoffs as c itself, so it is replaced by c, whose ideal is smaller
    (0 is always a breakpoint, so the list is never empty)."""
    model = prob.model
    levels = set()
    for i in range(prob.n):
        step = model.e_norm * F(prob.p) ** (prob.s - i)
        for j in range(model.m):
            lv = step * F(j, model.m)
            while lv <= c:
                levels.add(lv)
                lv += step
    stages = sorted(levels)
    stages[-1] = c
    return stages


def extensions(coord, steps):
    """Every extension of one coordinate (a tuple over Witt components of
    coefficient tuples) by one stage's digit steps."""
    return [
        tuple(
            tuple(a + b for a, b in zip(comp, inc))
            for comp, inc in zip(coord, incs)
        )
        for incs in itertools.product(*steps)
    ]


def staged_members(prob, c):
    """J_c, sorted, built through the stage levels c_0 < c_1 < ... < c_K = c
    of ``stage_levels``, starting from the zero vector (every cutoff 0): the
    search that enumerated J_c before it was read off as a kernel.  At stage
    c' every survivor of the previous stage gains the new p-digits of each
    coefficient, and a candidate is kept only if its residual
    phi(X) - X * A~ lies in I_{c'} = [a^{>c'/p^s}].

    It is complete at n = 1, but at n >= 2 it can miss members: it extends
    only the componentwise truncations of survivors, and the truncation of
    a solution to a lower stage need not solve there, because the digits it
    drops carry into the next Witt component
    (``test_kernel_finds_members_the_staged_search_missed``)."""
    ring = LocalRing(prob.model)
    zero_coord = tuple((0,) * prob.model.m for _ in range(prob.n))
    frontier = [(zero_coord,) * prob.d]
    below = None
    for stage in stage_levels(prob, c):
        steps = level_component_reps(prob, stage, below)
        q_stage = prob.quotient_level(stage)
        survivors = []
        for X in frontier:
            per_coord = [extensions(coord, steps) for coord in X]
            for cand in itertools.product(*per_coord):
                res = solver._residual(prob, ring, member_to_witt(prob, cand), prob.n)
                if all(ideal_membership_gt(r, q_stage) for r in res):
                    survivors.append(cand)
        frontier = survivors
        below = stage
    return tuple(sorted(frontier))


def span_members(prob, gens):
    """The members, sorted, of the group that canonical tuples at one
    admissible level generate, listed by closure: each generator's multiples
    are added until one repeats, and a dict drops the sums already listed.
    Sums are taken in W_n(O_E/p), each its own canonical tuple
    (``jset_enumerate``, step 5).  The library listed members this way
    before a solution set kept a p-basis."""
    low = prob.residue_model
    ring, p = LocalRing(low), prob.p
    zero_X = ((low.zero(),) * prob.n,) * prob.d
    members = {solver._key(zero_X): zero_X}
    vecs = [tuple(tuple(map(low.from_coeffs, vec)) for vec in g) for g in gens]
    # generators with the most leading zero components, whose sums are the
    # shortest, come last, where the most members are listed
    for gen in sorted(vecs, key=lambda X: min(map(solver._lead, X))):
        layer, mult = [], gen
        while solver._key(mult) not in members:
            layer.append(mult)
            mult = solver._plus(ring, p, mult, gen)
        sums = [solver._plus(ring, p, v, w) for w in layer for v in members.values()]
        members.update((solver._key(y), y) for y in sums)
    return tuple(sorted(members))


def check_listing(prob, sol):
    """The set's order is the length of its listing, and the listing is the
    closure of the kernel's own generators, which need not be a p-basis."""
    assert len(sol) == len(sol.members)
    gens = solver._kernel_generators(prob, sol.level) if prob.d else ()
    assert sol.members == span_members(prob, gens)


SWAP = [[(), (0, 1)], [(1,), ()]]


@pytest.mark.parametrize(
    "matrix, n, m, s, level",
    [
        ([[(0, 1)]], 1, 6, 1, "a"),
        ([[(0, 1)]], 1, 6, 1, "b"),
        ([[(0, 1)]], 1, 6, 1, F(20, 7)),  # strictly between two breakpoints
        ([[(0, 1)]], 1, 12, 1, "a"),
        ([[(0, 1)]], 1, 12, 1, "b"),
        (SWAP, 1, 6, 1, "a"),
        (SWAP, 1, 6, 1, "b"),
        # stages reach coordinate 1's constant term before coordinate 0's
        # x-coefficient, so only sorting restores the product order
        ([[(0, 1), ()], [(), (1,)]], 1, 6, 1, "b"),
        ([[(1,)]], 1, 6, 1, "a"),
        ([[(1,)]], 2, 9, 2, "b"),
        ([], 1, 6, 1, "a"),
    ],
)
def test_staged_enumeration_matches_bruteforce(matrix, n, m, s, level):
    """jset_enumerate, which lists a kernel at every Witt length, against
    the full product; the staged search must agree with both."""
    mod = kisin_new(3, n, E13, matrix, r_hint=1)
    prob = build_jset_problem(mod, model_of_degree(m), s=s, r=1)
    oracle = bruteforce_members(prob, level)
    assert jset_enumerate(prob, level).members == oracle
    c = solver.resolve_level(prob, level)
    assert staged_members(prob, c) == oracle


def count_residuals(monkeypatch):
    calls = []
    real = solver._residual

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "_residual", counting)
    return calls


@pytest.mark.parametrize(
    "matrix, n, m, s, level, candidates, members",
    [  # full products: 81, 6561 and 729 candidates
        ([[(0, 1)]], 1, 6, 1, "a", 42, 27),
        (SWAP, 1, 6, 1, "a", 126, 9),
        ([[(1,)]], 2, 9, 2, "b", 144, 9),
    ],
)
def test_staged_candidate_counts(
    monkeypatch, matrix, n, m, s, level, candidates, members
):
    """Residuals the staged search evaluates; it is the tests' oracle for
    the kernel, so it is called directly.  The kernel evaluates one residual
    per basis digit instead (``test_kernel_residual_counts``)."""
    mod = kisin_new(3, n, E13, matrix, r_hint=1)
    prob = build_jset_problem(mod, model_of_degree(m), s=s, r=1)
    calls = count_residuals(monkeypatch)
    c = solver.resolve_level(prob, level)
    assert len(staged_members(prob, c)) == members
    assert len(calls) == candidates


@pytest.mark.parametrize(
    "matrix, n, m, s, level, residuals, members",
    [  # one residual per basis digit: rank times the cutoffs equal to 1
        ([[(0, 1)]], 1, 6, 1, "a", 4, 27),
        ([[(0, 1)]], 1, 6, 1, "b", 2, 3),
        ([[(0, 1)]], 1, 12, 1, "a", 7, 243),
        (SWAP, 1, 6, 1, "a", 8, 9),
        (SWAP, 1, 6, 1, "b", 4, 3),
        ([[(1,)]], 1, 6, 1, "b", 2, 3),
        ([], 1, 6, 1, "a", 0, 1),
        # rank 0 answers before any stage at every Witt length
        ([], 2, 9, 2, "b", 0, 1),
        # length 2: 2 + 4 basis digits per coordinate at level b over x^9
        # (the staged search evaluates 144 residuals on the first)
        ([[(1,)]], 2, 9, 2, "b", 6, 9),
        ([[(1,), ()], [(), (3, 1)]], 2, 9, 2, "b", 12, 243),
        ([[(1,)]], 2, 9, 2, 0, 2, 9),
    ],
)
def test_kernel_residual_counts(
    monkeypatch, matrix, n, m, s, level, residuals, members
):
    mod = kisin_new(3, n, E13, matrix, r_hint=1)
    prob = build_jset_problem(mod, model_of_degree(m), s=s, r=1)
    calls = count_residuals(monkeypatch)
    assert len(jset_enumerate(prob, level)) == members
    assert len(calls) == residuals


SWEEP_MODELS = (  # (E, model): pi_1 = x^(m/3) is a cube root of E's root
    ((3, 1), (3, 0, 0, 1)),
    ((3, 1), (3,) + (0,) * 5 + (1,)),
    ((-3, 1), (-3,) + (0,) * 5 + (1,)),
    ((3, 1), (3,) + (0,) * 11 + (1,)),
)


def sweep_cases():
    """Seeded rank-1 and rank-2 Frobenius matrices over (Z/3)[u] of degree
    at most 2, two of each rank per model, skipping those without a
    problem (no height-1 witness, or a determinant that vanishes at the
    u-precision)."""
    rng = random.Random(20261019)
    cases = []
    for E, g in SWEEP_MODELS:
        for d in (1, 1, 2, 2):
            while True:
                matrix = [
                    [tuple(rng.randrange(3) for _ in range(rng.randrange(4)))
                     for _ in range(d)]
                    for _ in range(d)
                ]
                mod = kisin_new(3, 1, eisenstein_validate(E, 3), matrix, r_hint=1)
                model = LocalFieldModel(eisenstein_validate(g, 3), 8)
                try:
                    build_jset_problem(mod, model, s=1, r=1)
                except (NotHeightError, PrecisionError):
                    continue
                cases.append((E, g, matrix))
                break
    return cases


def test_kernel_matches_staged_on_seeded_sweep():
    """At every stage breakpoint in [0, e * p^s), and at one level strictly
    between two of them, the n = 1 kernel equals the staged search."""
    for E, g, matrix in sweep_cases():
        mod = kisin_new(3, 1, eisenstein_validate(E, 3), matrix, r_hint=1)
        model = LocalFieldModel(eisenstein_validate(g, 3), 8)
        # the cap bounds the full product, 3^(rank * m) at the top level
        prob = build_jset_problem(mod, model, s=1, r=1, cap=3 ** 24)
        m = len(g) - 1
        breaks = [F(3 * j, m) for j in range(m)]
        assert stage_levels(prob, breaks[-1]) == breaks
        for c in breaks + [(breaks[-2] + breaks[-1]) / 2]:
            sol = jset_enumerate(prob, c)
            assert sol.members == staged_members(prob, c), (E, g, matrix, c)
            check_listing(prob, sol)


def test_kernel_and_staged_refuse_alike(monkeypatch):
    """Refusals do not depend on the path: the CLI gives the same exit code,
    stdout and stderr through the staged search as through the kernel, and the
    library raises the same error type, over the admissible range's end, a
    cap one below the full product, and low model precision."""
    E, g, matrix = next(  # rank 2 over x^6 - 3
        case for case in sweep_cases() if case[0] == (-3, 1) and len(case[2]) == 2
    )

    def text(poly):
        return ",".join(map(str, poly))

    base = [
        "jset", "--eisenstein", text(E), "--n", "1", "--r", "1", "--s", "1",
        "--model", text(g),
        "--matrix", ";".join(
            ",".join(":".join(map(str, entry)) for entry in row) for row in matrix
        ),
    ]
    calls = [
        base + ["--c", "3"],
        base + ["--c", "b", "--cap", str(3 ** 4 - 1)],
        base + ["--prec", "1"],
        base + ["--prec", "2", "--c", "2"],
        base,
    ]

    def cli(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli(argv)
        return code, out, err.getvalue()

    def outcomes():
        runs = [cli(argv) for argv in calls]
        mod = kisin_new(3, 1, eisenstein_validate(E, 3), matrix, r_hint=1)
        model = LocalFieldModel(eisenstein_validate(g, 3), 8)
        results = []
        for level, cap in (("3", 10 ** 6), ("b", 3 ** 4 - 1), ("a", 10 ** 6)):
            prob = build_jset_problem(mod, model, s=1, r=1, cap=cap)
            try:
                results.append(jset_enumerate(prob, level).members)
            except (InputError, CapExceededError) as exc:
                results.append(type(exc))
        return runs, results

    kernel = outcomes()
    monkeypatch.setattr(solver, "_kernel_generators", staged_members)
    staged = outcomes()
    assert kernel == staged
    assert [code for code, _, _ in kernel[0]] == [2, 3, 0, 0, 0]
    assert kernel[1][:2] == [InputError, CapExceededError]


# Witt length 2: the kernel against the staged search and the full product

E_POLY = (3, 1)  # E(u) = u + 3 as a matrix entry
LENGTH_TWO_MODULES = (  # (matrix, r): 1, E, u^2, diag(1, E), swap(E), mixed
    ([[(1,)]], 1),
    ([[E_POLY]], 1),
    ([[(0, 0, 1)]], 3),
    ([[(1,), ()], [(), E_POLY]], 1),
    ([[(), (1,)], [E_POLY, ()]], 1),
    ([[(1,), (0, 1)], [(), E_POLY]], 1),
)
LENGTH_TWO_MODELS = ((9, 2), (18, 2), (27, 3))  # x^m + 3 at level s


def breakpoints(prob):
    """Every stage breakpoint in the admissible range [0, e * p^(s-n+1)),
    whose end is itself a breakpoint."""
    top = prob.module.E.e * F(prob.p) ** (prob.s - prob.n + 1)
    return stage_levels(prob, top)[:-1]


def full_product(prob, c):
    count = 1
    for i in range(prob.n):
        count *= prob.p ** sum(prob.model.coeff_cutoffs(prob.comp_threshold(c, i)))
    return count ** prob.d


def length_two_cases():
    """Every module and model of the sweep that admits a problem: u^2 has
    height 3, whose minimal level is 3, so it runs over x^27 + 3 only."""
    for matrix, r in LENGTH_TWO_MODULES:
        for m, s in LENGTH_TWO_MODELS:
            mod = kisin_new(3, 2, E13, matrix, r_hint=r)
            try:
                prob = build_jset_problem(
                    mod, model_of_degree(m, prec=16), s=s, r=r, cap=3 ** 12
                )
            except InputError:
                assert (r, s) == (3, 2)
                continue
            yield matrix, m, prob


def test_length_two_kernel_matches_oracles():
    """At every stage breakpoint in [0, e * p^(s-1)) and at one level
    strictly between the last two: the kernel equals the staged search where
    the full product is at most 3^8 candidates, and the full product too
    where it is at most 3^5; above the problem's cap of 3^12 the cap refuses
    before any residual, as on every path.  The oracles' cost grows with
    the full product, so these bounds keep the sweep to about 8 s."""
    compared = {"staged": 0, "bruteforce": 0, "capped": 0}
    cases = list(length_two_cases())
    assert len(cases) == 16
    for matrix, m, prob in cases:
        breaks = breakpoints(prob)
        assert breaks[0] == 0 and len(breaks) == m
        for c in breaks + [(breaks[-2] + breaks[-1]) / 2]:
            total = full_product(prob, c)
            if total > prob.cap:
                with pytest.raises(CapExceededError):
                    jset_enumerate(prob, c)
                compared["capped"] += 1
                continue
            sol = jset_enumerate(prob, c)
            check_listing(prob, sol)
            got = sol.members
            if total <= 3 ** 8:
                assert staged_members(prob, c) == got, (matrix, m, c)
                compared["staged"] += 1
            if total <= 3 ** 5:
                assert bruteforce_members(prob, c) == got, (matrix, m, c)
                compared["bruteforce"] += 1
    assert compared == {"staged": 69, "bruteforce": 30, "capped": 212}


def rho_cases():
    """(label, problem, source level): the 1 + u module at level 2, and
    every problem of the length-2 sweep at the first breakpoint above b, or
    at b itself where that level's full product is above 3^16 (the rank-2
    modules over x^18 + 3).  The cap is raised so that J_b is enumerated on
    every problem."""
    yield "1 + u", one_plus_u_problem(), F(2)
    for matrix, m, prob in length_two_cases():
        prob = dataclasses.replace(prob, cap=3 ** 20)
        up = next(c for c in breakpoints(prob) if c > prob.level_b)
        c = up if full_product(prob, up) <= 3 ** 16 else prob.level_b
        yield f"{matrix} x^{m}", prob, c


def test_rho_lands_in_the_target_set_as_the_class_map_of_every_member():
    """rho(J_c -> b) lies in J_b, and it is the set of the class-map images
    of all members of J_c, though rho maps only J_c's generators.  The
    componentwise truncation, which is not reduction modulo I_b at n >= 2,
    puts 6 of the 9 reduced tuples of the 1 + u module outside J_b."""
    for label, prob, c in rho_cases():
        sol = jset_enumerate(prob, c)
        image = rho_reduce(prob, sol, "b")
        assert set(image.members) <= set(jset_enumerate(prob, "b").members), label
        classes = {
            truncate_solution(prob, member_to_witt(prob, x), prob.level_b)
            for x in sol.members
        }
        assert set(image.members) == classes, label
        assert len(image) == len(classes), label
        assert image.members == span_members(prob, [
            truncate_solution(prob, member_to_witt(prob, g), prob.level_b)
            for g in sol.generators
        ]), label
        check_listing(prob, sol)


def test_kernel_finds_members_the_staged_search_missed():
    """phi(e) = (1 + u) e at length 2 over x^9 + 3, level b = 1: the full
    product of 729 candidates has 9 solutions, and the kernel lists them.
    The staged search, the library path at n >= 2 before the kernel, keeps
    3: (1 + 2x, x + 2x^2) solves at level 1, but its truncation (1, x) at
    stage 1/3 does not solve there.  The truncation drops 2x from component
    0, and X - (1, x) has component 1 equal to 2x^2 plus the carry
    ((1 + 2x)^3 - 1 - (2x)^3)/3 = 2x + 4x^2, of valuation 1/9, which is not
    above the stage's component-1 threshold 1/9."""
    mod = kisin_new(3, 2, E13, [[(1, 1)]], r_hint=1)
    prob = build_jset_problem(mod, model_of_degree(9, prec=16), s=2, r=1)
    c = prob.level_b
    members = jset_enumerate(prob, c).members
    assert members == bruteforce_members(prob, c)
    assert len(members) == 9
    staged = staged_members(prob, c)
    assert len(staged) == 3 and set(staged) < set(members)
    code, out = run_cli([
        "jset", "--eisenstein", "3,1", "--n", "2", "--r", "1", "--matrix", "1:1",
        "--model", "3,0,0,0,0,0,0,0,0,1", "--s", "2", "--c", "b",
    ])
    assert code == 0
    assert '"count": 9' in out and '"splitting": true' in out


def test_kernel_matches_bruteforce_at_p5():
    """At p = 5 a pivot row is subtracted up to 4 times, and p times a pivot
    is V(F(X)) with fifth powers: the kernel against the full product at
    Witt lengths 1 and 2, E = u + 5, over x^5 + 5, x^10 + 5 and x^25 + 5."""
    E5 = eisenstein_validate((5, 1), 5)
    for n, m, s, matrix in (
        (1, 10, 1, [[(1, 2)]]),
        (2, 25, 2, [[(1, 1)]]),
        (2, 25, 2, [[(5, 1)]]),
        (1, 5, 1, [[(), (1,)], [(0, 1), ()]]),
    ):
        g = eisenstein_validate((5,) + (0,) * (m - 1) + (1,), 5)
        prob = build_jset_problem(
            kisin_new(5, n, E5, matrix, r_hint=1), LocalFieldModel(g, 8), s=s, r=1
        )
        levels = [c for c in breakpoints(prob) if full_product(prob, c) <= 5 ** 4]
        assert len(levels) >= 2, (matrix, m)
        for c in levels:
            assert jset_enumerate(prob, c).members == bruteforce_members(prob, c), (
                matrix, m, c,
            )


def test_length_two_kernel_and_staged_refuse_alike(monkeypatch):
    """At Witt length 2 as at length 1, the CLI gives the same exit code,
    stdout and stderr through the staged search as through the kernel: past
    the admissible range's end (3 at s = 2), a cap one below the full
    product, and model precision 1 and 2."""
    base = [
        "jset", "--eisenstein", "3,1", "--n", "2", "--r", "1", "--matrix", "1",
        "--model", "3,0,0,0,0,0,0,0,0,1", "--s", "2",
    ]
    calls = [
        base + ["--c", "3"],
        base + ["--c", "b", "--cap", str(3 ** 6 - 1)],
        base + ["--c", "b", "--prec", "1"],
        base + ["--c", "b", "--prec", "2"],
        base + ["--c", "1/2", "--prec", "2"],
        base + ["--c", "b"],
    ]

    def cli(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli(argv)
        return code, out, err.getvalue()

    kernel = [cli(argv) for argv in calls]
    monkeypatch.setattr(solver, "_kernel_generators", staged_members)
    assert [cli(argv) for argv in calls] == kernel
    assert [code for code, _, _ in kernel] == [2, 3, 0, 0, 0, 0]
    assert kernel[0][2] == "error: level 3 outside the admissible range [0, 3)\n"
    assert kernel[1][2] == "error: enumeration needs 729 candidates, cap is 728\n"


def additivity_instances():
    """(label, problem, levels) for every length-2 test and bench problem and
    a length-3 one: the sweep's modules, the lifted u^2 module, and the
    trivial module of length 3 over x^81 + 3 (s = 4, whose admissible range
    is [0, 9))."""
    for matrix, m, prob in length_two_cases():
        levels = (F(0), prob.level_b, F(2, 3) * prob.p ** (prob.s - 1))
        yield f"{matrix} x^{m}", prob, levels
    yield "length-2 lift", length_two_problem(), (F(0), F(3, 2), F(9, 2), F(26, 3))
    mod = kisin_new(3, 3, E13, [[(1,)]], r_hint=1)
    prob = build_jset_problem(mod, model_of_degree(81, prec=4), s=4, r=1)
    yield "length 3", prob, (F(1, 3), prob.level_b, F(8))


def test_residual_is_additive_modulo_the_ideal():
    """R(X + Y) = R(X) + R(Y) modulo I_c for R(X) = phi(X) - X * A~, with
    Witt sums, on seeded vectors whose every component is an arbitrary
    element of the model (every coefficient drawn mod p^prec), at levels in
    the admissible range: the premise of the kernel, checked on its own."""
    rng = random.Random(20261020)
    checked = 0
    outside = []
    for label, prob, levels in additivity_instances():
        ring, p, q = LocalRing(prob.model), prob.p, prob.model.q

        def draw():
            return tuple(
                tuple(
                    prob.model.from_coeffs(
                        tuple(rng.randrange(q) for _ in range(prob.model.m))
                    )
                    for _ in range(prob.n)
                )
                for _ in range(prob.d)
            )

        def residual(X):
            return solver._residual(prob, ring, X, prob.n)

        def additive(c, X, Y):
            XY = tuple(witt_add(ring, p, x, y) for x, y in zip(X, Y))
            return all(
                ideal_membership_gt(
                    witt_sub(ring, p, whole, witt_add(ring, p, rx, ry)),
                    prob.quotient_level(c),
                )
                for whole, rx, ry in zip(residual(XY), residual(X), residual(Y))
            )

        top = prob.module.E.e * p ** (prob.s - prob.n + 1)
        for c in levels:
            assert c < top, label
            for _ in range(2):
                assert additive(c, draw(), draw()), (label, c)
                checked += 1
        # past the admissible range the cross terms of phi, of valuation e,
        # leave the ideal: the check can fail
        outside.append(additive(F(4, 3) * top, draw(), draw()))
    assert checked == 2 * (16 * 3 + 4 + 3)
    assert outside.count(False) >= len(outside) // 2


def test_enumeration_memo(monkeypatch):
    prob = build_jset_problem(u_module(), model_of_degree(6), s=1, r=1)
    first = jset_enumerate(prob, "a")
    calls = []
    real_residual, real_enumerate = solver._residual, solver.jset_enumerate
    inside = []

    def enumerating(*args, **kwargs):
        inside.append(1)
        try:
            return real_enumerate(*args, **kwargs)
        finally:
            inside.pop()

    def counting(*args, **kwargs):
        if inside:
            calls.append(1)
        return real_residual(*args, **kwargs)

    monkeypatch.setattr(solver, "jset_enumerate", enumerating)
    monkeypatch.setattr(solver, "_residual", counting)
    assert solver.jset_enumerate(prob, "a") is first
    exact, _ = exact_solution_set(prob, target_digits=6)
    assert len(exact) == 3 and calls == []
    # a rebuilt problem starts with an empty memo; the memo leaves == alone
    assert with_precision(prob, 30).jset_memo == {}
    assert prob == build_jset_problem(u_module(), model_of_degree(6), s=1, r=1)


def test_teich_div_with_parts_matches_componentwise_div():
    model = model_of_degree(6, prec=8)
    ring = LocalRing(model)
    full = model.full_aprec
    rng = random.Random(23)

    def unit():
        rest = tuple(rng.randrange(model.q) for _ in range(model.m - 1))
        return model.from_coeffs((rng.choice([1, 2]),) + rest)

    seen = set()
    for _ in range(80):
        length = rng.randrange(1, 4)
        z = unit() * model.uniformizer_pow(rng.randrange(1, 3))
        pows = teichmuller_powers(ring, 3, z, length)
        parts = tuple(zp.divisor() for zp in pows)
        vec = []
        for zp in pows:
            if rng.randrange(3):
                vec.append(zp * unit() * model.uniformizer_pow(rng.randrange(3)))
            else:  # zero at precision, at times known to less than v(zp)
                aprec = rng.randrange(full + 1)
                vec.append(LocalElement(model, (0,) * model.m, aprec))
        vec = tuple(vec)
        want = tuple(comp.div(zp) for comp, zp in zip(vec, pows))
        assert _teich_div(vec, parts) == want
        for comp, (k, _), got in zip(vec, parts, want):
            if comp.is_zero_at_prec():
                assert got.is_zero_at_prec()
                assert got.aprec == max(comp.aprec - k, 0)
                seen.add("clamped" if comp.aprec < k else "zero")
        # a numerator of lower valuation than its divisor
        i = rng.randrange(length)
        below = unit() * model.uniformizer_pow(parts[i][0] - 1)
        low = vec[:i] + (below,) + vec[i + 1:]
        with pytest.raises(PrecisionError):
            _teich_div(low, parts)
    assert seen == {"zero", "clamped"}
    # a divisor that is zero at precision
    for vanished in (
        model.zero(),
        LocalElement(model, model.uniformizer_pow(5).coeffs, 5),
    ):
        with pytest.raises(PrecisionError):
            vanished.divisor()
        with pytest.raises(PrecisionError):
            unit().div(vanished)


LIFT_ARGS = [
    "solve-lift", "--eisenstein", "3,1", "--n", "1", "--r", "1",
    "--matrix", "0:1", "--s", "1", "--model", "3,0,0,0,0,0,1", "--trace",
]


@pytest.mark.parametrize(
    "digits, digest, retries",
    [  # sha256 of the full output, recorded before the lifter kept its divisor;
        # at 24 digits the 25 lifts that need 48 digits share one rebuilt
        # problem (25 rebuilds while each lift rebuilt its own)
        ("6", "7d696ea694ed24811b64ac0a740372e1c95bdce3479bfbc00685270b00b0021a", 0),
        ("24", "eb922bd2ec36674237445d37fb0a9ebd9f837d88b19d8c333588a84e5d848f38", 1),
    ],
)
def test_lift_trace_output_pinned(monkeypatch, digits, digest, retries):
    rebuilds = []
    real = solver.with_precision

    def counting(*args, **kwargs):
        rebuilds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "with_precision", counting)
    code, out = run_cli(LIFT_ARGS + ["--digits", digits])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(rebuilds) == retries


def test_readme_lift_product_count(monkeypatch):
    """The README `--digits 6` lift, counted by product strategy: products
    of a single-term operand (a shifted, scaled copy), pair-loop and packed
    products, packed powers, and element products by a factor with the
    coefficients of 1, which take the other factor's coefficients and reach
    no strategy.  The same call made 1003 `poly_convolve` calls while every
    product of the kernel ran through it: 997 local-field element products
    (141 of them by a 1 at full precision, 737 with a single-term factor,
    and the powers' chains), one in the quotient ring, three in the height
    witnesses and two in the mod-p series solve.  The solver's Witt matrix
    product forms its length-1 entries from coefficient products
    (``LocalFieldModel.mul_coeffs``), not element products, and skips the
    products by a zero entry; ``unit_coeffs`` counts the coefficient
    products by 1, those of the matrix product and those of every element
    product by a 1.  A kernel that sends a
    single-term product to the pair loop or multiplies by 1, or a lifter
    that inverts or takes phi(X) again, fails here."""
    counts = dict.fromkeys(
        ["term", "pair", "packed", "packed_pow", "unit", "unit_coeffs",
         "unit_in_kernel"], 0
    )

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name, owner, attr in [
        ("term", padic.MonicQuotient, "_term_product"),
        ("pair", padic, "_pair_product"),
        ("packed", padic, "_packed_product"),
        ("packed_pow", padic.MonicQuotient, "_packed_pow"),
    ]:
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    real_mul = LocalElement.__mul__

    def is_unit(x):
        return x.coeffs == x.model.one().coeffs

    def mul(self, other):
        kernel = counts["term"] + counts["pair"] + counts["packed"]
        out = real_mul(self, other)
        if is_unit(self) or is_unit(other):
            counts["unit"] += 1
            if counts["term"] + counts["pair"] + counts["packed"] != kernel:
                counts["unit_in_kernel"] += 1
        return out

    real_mul_coeffs = LocalFieldModel.mul_coeffs

    def mul_coeffs(self, a, b):
        kernel = counts["term"] + counts["pair"] + counts["packed"]
        out = real_mul_coeffs(self, a, b)
        if self.one().coeffs in (a, b):
            counts["unit_coeffs"] += 1
            if counts["term"] + counts["pair"] + counts["packed"] != kernel:
                counts["unit_in_kernel"] += 1
        return out

    monkeypatch.setattr(LocalElement, "__mul__", mul)
    monkeypatch.setattr(LocalFieldModel, "mul_coeffs", mul_coeffs)
    code, out = run_cli(LIFT_ARGS + ["--digits", "6"])
    assert code == 0
    digest = "7d696ea694ed24811b64ac0a740372e1c95bdce3479bfbc00685270b00b0021a"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert counts == {
        "term": 398, "pair": 109, "packed": 0, "packed_pow": 80,
        "unit": 199, "unit_coeffs": 334, "unit_in_kernel": 0,
    }


def lift_work(monkeypatch):
    """Install counting wrappers; each finished lift attempt appends its
    (unit inversions, residual evaluations, LiftResult) to the list."""
    real_inverse = LocalElement.unit_inverse
    real_attempt, real_residual = solver._lift_attempt, solver._residual
    open_attempts, done = [], []

    def inverse(self):
        if open_attempts:
            open_attempts[-1][0] += 1
        return real_inverse(self)

    def residual(*args, **kwargs):
        if open_attempts:
            open_attempts[-1][1] += 1
        return real_residual(*args, **kwargs)

    def attempt(*args, **kwargs):
        open_attempts.append([0, 0])
        try:
            lr = real_attempt(*args, **kwargs)
        finally:
            inversions, residuals = open_attempts.pop()
        done.append((inversions, residuals, lr))
        return lr

    monkeypatch.setattr(LocalElement, "unit_inverse", inverse)
    monkeypatch.setattr(solver, "_lift_attempt", attempt)
    monkeypatch.setattr(solver, "_residual", residual)
    return done


def check_lift_work(done, n):
    for inversions, residuals, lr in done:
        # beta = alpha / [pi^N], then one divisor per Witt level
        assert inversions <= n + 1
        # the start and one certificate per iteration
        assert residuals == len(lr.trace) + 1


def test_lifter_work_counts(monkeypatch):
    done = lift_work(monkeypatch)
    code, _ = run_cli(LIFT_ARGS + ["--digits", "6"])
    assert code == 0
    assert len(done) == 27
    assert sum(lr.iterations > 0 for _, _, lr in done) == 25
    check_lift_work(done, n=1)


def test_length_two_lifter_work_counts(monkeypatch):
    mod = kisin_new(3, 2, E13, [[(0, 0, 1)]], r_hint=3)
    prob = build_jset_problem(mod, model_of_degree(27, prec=16), s=3, r=3)
    ring = LocalRing(prob.model)
    exact = member_to_witt(
        prob, ((tuple([0, 1] + [0] * 25), tuple([0] * 3 + [1] + [0] * 23)),)
    )
    w = member_to_witt(
        prob,
        ((tuple([0] * 6 + [1] + [0] * 20), tuple([0] * 15 + [1] + [0] * 11)),),
    )
    member = (tuple(c.coeffs for c in witt_add(ring, 3, exact[0], w[0])),)
    done = lift_work(monkeypatch)
    lift_solution(prob, member, target_digits=6)
    assert [lr.problem.n for _, _, lr in done] == [2]
    assert {level for level, _, _ in done[0][2].trace} == {1, 2}
    check_lift_work(done, n=2)


def count_inversions(monkeypatch):
    calls = []
    real = LocalElement.unit_inverse

    def inverse(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(LocalElement, "unit_inverse", inverse)
    return calls


def test_second_lift_of_a_class_inverts_nothing(monkeypatch):
    """The divisors a lift inverts depend only on the problem and a', and the
    problem keeps them: lifting the same class again inverts no unit."""
    def fresh():
        return build_jset_problem(u_module(), model_of_degree(6), s=1, r=1)

    probe = fresh()
    member = next(
        m for m in jset_enumerate(probe, "a").members
        if lift_solution(probe, m, target_digits=6).iterations
    )
    prob = fresh()
    calls = count_inversions(monkeypatch)
    first = lift_solution(prob, member, target_digits=6)
    assert first.problem is prob
    assert len(calls) == 2  # beta = alpha / [pi^N], and the level-1 divisor
    del calls[:]
    again = lift_solution(prob, member, target_digits=6)
    assert calls == []
    assert (again.X, again.trace) == (first.X, first.trace)


def test_solve_lift_calls_share_no_lift_state(monkeypatch):
    """Each call builds its problem, so a second identical call inverts as
    many units as the first: one for the normalization's [pi^N], and two
    (beta and the level-1 divisor) for each of the 3 defects a' among the
    27 classes.  The pinned count also holds when earlier tests ran the same
    instance, which a cache outliving the call would not allow."""
    calls = count_inversions(monkeypatch)
    counts, outs = [], []
    for _ in range(2):
        code, out = run_cli(LIFT_ARGS + ["--digits", "6"])
        assert code == 0
        counts.append(len(calls))
        outs.append(out)
        del calls[:]
    assert counts == [7, 7]
    assert outs[0] == outs[1]


def ladder_without_precheck(prob, member, target_digits, monkeypatch):
    """The lift ladder before the precheck and the kept rebuilt problems:
    each rung's problem rebuilt from the last by with_precision, and every
    attempt iterated until it certifies or fails.  Returns the LiftResult or
    the exception that ended the ladder, and {digits: exception type or
    None} per rung tried."""
    rungs = {}
    with monkeypatch.context() as mp:
        mp.setattr(solver, "_residual_aprec_bound", lambda prob, consts: None)
        cur = prob
        for rung in range(solver.LIFT_ATTEMPTS):
            prec = cur.model.prec
            try:
                lr = solver._lift_attempt(cur, member, target_digits)
            except PrecisionError as exc:
                rungs[prec] = type(exc)
                if rung == solver.LIFT_ATTEMPTS - 1:
                    return exc, rungs
                cur = with_precision(cur, prec * 2)
            except NonConvergenceError as exc:
                rungs[prec] = type(exc)
                return exc, rungs
            else:
                rungs[prec] = None
                return lr, rungs


def ladder_with_precheck(prob, member, target_digits, monkeypatch):
    """lift_solution, and the digits of every rung its precheck skipped."""
    skipped = []
    real = solver._lift_attempt

    def attempt(cur, *args):
        try:
            return real(cur, *args)
        except PrecisionError as exc:
            if str(exc).startswith("no iterate's residual is known beyond"):
                skipped.append(cur.model.prec)
            raise

    with monkeypatch.context() as mp:
        mp.setattr(solver, "_lift_attempt", attempt)
        try:
            return lift_solution(prob, member, target_digits), skipped
        except (PrecisionError, NonConvergenceError) as exc:
            return exc, skipped


def ramified_problem():
    E2 = eisenstein_validate((-3, 0, 1), 3)
    model = LocalFieldModel(
        eisenstein_validate((-3, 0, 0, 0, 0, 0, 1), 3), 24, e_norm=2
    )
    return build_jset_problem(kisin_new(3, 1, E2, [[(0, 1)]], r_hint=1), model, s=1, r=1)


def length_two_members(prob):
    ring = LocalRing(prob.model)
    exact = ((tuple([0, 1] + [0] * 25), tuple([0] * 3 + [1] + [0] * 23)),)
    w = member_to_witt(
        prob, ((tuple([0] * 6 + [1] + [0] * 20), tuple([0] * 15 + [1] + [0] * 11)),)
    )
    moved = witt_add(ring, 3, member_to_witt(prob, exact)[0], w[0])
    return [exact, (tuple(c.coeffs for c in moved),)]


def level_a_members(prob):
    return list(jset_enumerate(prob, "a").members)


PRECHECK_INSTANCES = {
    # the README instance (bench lift-deg12 at 24 digits), and 48 digits,
    # where the 24-digit model is below the target and 48 digits are skipped
    "readme": (
        lambda: build_jset_problem(u_module(), model_of_degree(6), s=1, r=1),
        level_a_members, (6, 24, 48),
    ),
    # bench lift-deg12: 243 classes over x^12 + 3
    "deg12": (
        lambda: build_jset_problem(u_module(), model_of_degree(12), s=1, r=1),
        level_a_members, (12,),
    ),
    # bench enum-rank2: the rank-2 swap module (d = 2)
    "rank2": (
        lambda: build_jset_problem(
            kisin_new(3, 1, E13, [[(), (0, 1)], [(1,), ()]], r_hint=1),
            model_of_degree(6), s=1, r=1,
        ),
        level_a_members, (5, 24),
    ),
    "ramified": (ramified_problem, level_a_members, (6, 24)),
    # bench witt-len2: n = 2, where 16 digits skip the 16-digit model
    "length2": (length_two_problem, length_two_members, (6, 16)),
    # a level-b class that is no level-a solution: NonConvergenceError
    "not-level-a": (
        lambda: build_jset_problem(u_module(), model_of_degree(9), s=1, r=1),
        lambda prob: [((tuple([0, 1] + [0] * 7),),)], (4,),
    ),
}


@pytest.mark.parametrize("name", sorted(PRECHECK_INSTANCES))
def test_precheck_skips_only_rungs_that_cannot_certify(monkeypatch, name):
    """Against the old ladder on every lift of the test and bench instances:
    an equal LiftResult at the same final precision (or the same error), and
    every rung the precheck skips raised PrecisionError there."""
    build, members_of, digits_list = PRECHECK_INSTANCES[name]
    members = members_of(build())
    skips = 0
    for digits in digits_list:
        old_prob, new_prob = build(), build()
        for member in members:
            want, rungs = ladder_without_precheck(old_prob, member, digits, monkeypatch)
            got, skipped = ladder_with_precheck(new_prob, member, digits, monkeypatch)
            if isinstance(want, Exception):
                assert type(got) is type(want), (member, digits)
            else:
                assert got == want, (member, digits)
                assert got.problem.model.prec == want.problem.model.prec
                assert got.trace == want.trace
            for prec in skipped:
                assert rungs[prec] is PrecisionError, (member, digits, prec)
            skips += len(skipped)
    # rungs skipped over all lifts and digit targets: d = 2, e_norm = 2 and
    # n = 2 each skip at least one
    want = {"readme": 50, "rank2": 8, "ramified": 2, "length2": 1}
    assert skips == want.get(name, 0)


def test_residual_aprec_bound_needs_a_divisor_of_positive_valuation(prob6):
    """The bound's argument needs k = v_x(pi^N * beta) >= 1: a first divisor
    that is a unit (xval 0) or zero at precision (xval None) gives None,
    and k >= 1 gives F - k + v_x(beta)."""
    model = prob6.model
    pi_n, beta = prob6.pi_s.pow(prob6.N), model.uniformizer_pow(1)
    for divisor in (model.one(), model.zero()):
        assert divisor.xval() in (0, None)
        consts = solver._LiftConstants(pi_n, (beta,), (divisor,), [])
        assert solver._residual_aprec_bound(prob6, consts) is None
    consts = solver._LiftConstants(pi_n, (beta,), (model.uniformizer_pow(2),), [])
    assert solver._residual_aprec_bound(prob6, consts) == model.full_aprec - 2 + 1


def test_readme_lifts_at_24_digits_share_one_rebuilt_problem(monkeypatch):
    """The 25 README lifts that need 48 digits skip the 24-digit model and
    share one 48-digit problem, kept on the caller's problem, with its lift
    constants: with_precision runs once for the 27 lifts."""
    rebuilds = []
    real = solver.with_precision

    def counting(prob, digits):
        rebuilds.append(digits)
        return real(prob, digits)

    monkeypatch.setattr(solver, "with_precision", counting)
    prob = build_jset_problem(u_module(), model_of_degree(6), s=1, r=1)
    exact, lifts = exact_solution_set(prob, target_digits=24)
    assert len(exact) == 3 and len(lifts) == 27
    assert rebuilds == [48]
    boosted = prob.boosted[48]
    assert sum(lr.problem is boosted for lr in lifts) == 25
    assert sum(lr.problem is prob for lr in lifts) == 2
    assert len(boosted.lift_memo) == 3 and prob.boosted.keys() == {48}
    assert boosted.boosted == {}
