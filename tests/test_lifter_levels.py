"""The lifter's Witt level 1 on component-0 elements, against the lifter
that ran every level on Witt vectors.

``witt_vector_lift_attempt`` below is that lifter: one attempt, with every
sum and difference a ghost solve (``witt._witt_combine``, which the
length-1 shortcuts of ``witt_add`` and ``witt_sub`` now pass by) and every
matrix product the plain sum of ``witt_mul`` products, which
``padic.mat_mul`` with ``solver._witt_dot`` equals (``test_lifter_kernel``).
Each class of each instance climbs the precision ladder of
``lift_solution`` under both, and every rung must give the same
LiftResult, or the same refusal.

Every comparison goes through ``expect``, which raises by itself, so the
tests compare under ``python -O`` too, where plain asserts are dropped."""

import contextlib
import io
import operator
import random
from fractions import Fraction

import pytest

from ramibound import cli, solver, witt
from ramibound.errors import NonConvergenceError, PrecisionError
from ramibound.padic import (
    LocalElement,
    LocalFieldModel,
    LowerBound,
    eisenstein_validate,
)
from ramibound.solver import LiftResult, jset_enumerate, member_to_witt
from ramibound.witt import (
    LocalRing,
    ZZRing,
    ideal_membership_gt,
    power_frobenius,
    teichmuller_scale,
    witt_add,
    witt_mul,
    witt_sub,
)

from test_kisin import ops_mat_mul
from test_solver import (
    EXACT_LEN2,
    length_two_problem,
    perturbed_length_two_member,
    serial_lifts,
)


def expect(cond, *info):
    if not cond:
        raise AssertionError(info)


# ---------------------------------------------------------------------------
# The oracle: the lifter with every level on Witt vectors
# ---------------------------------------------------------------------------


def combine_add(ring, p, x, y):
    return witt._witt_combine(ring, p, x, y, operator.add, witt.companion_add)


def combine_sub(ring, p, x, y):
    return witt._witt_combine(ring, p, x, y, operator.sub, witt._companion_sub)


def plain_mat_mul(ring, p, A, B):
    return ops_mat_mul(
        A, B, lambda a, b: witt_mul(ring, p, a, b),
        lambda a, b: combine_add(ring, p, a, b),
    )


def witt_residual(prob, ring, X, level_n, phi=None):
    """phi(X) - X * A~, truncated to the first level_n Witt components."""
    p, d = prob.p, prob.d
    Xl = tuple(vec[:level_n] for vec in X)
    Al = tuple(
        tuple(prob.A_tilde[i][j][:level_n] for j in range(d)) for i in range(d)
    )
    if phi is None:
        phi = tuple(power_frobenius(ring, p, vec) for vec in Xl)
    (XA,) = plain_mat_mul(ring, p, (Xl,), Al)
    return tuple(combine_sub(ring, p, phi[j], XA[j]) for j in range(d))


def witt_vector_lift_attempt(prob, member, target_digits):
    """``solver._lift_attempt`` with Witt vectors at every level."""
    ring = LocalRing(prob.model)
    p, n, d = prob.p, prob.n, prob.d
    model = prob.model
    target_x = model.m * target_digits
    if model.prec < target_digits:
        raise PrecisionError("model precision below the certification target")

    X = member_to_witt(prob, member)
    level_a_q = prob.quotient_level(prob.level_a)

    phi_X = tuple(power_frobenius(ring, p, vec) for vec in X)
    res = witt_residual(prob, ring, X, n, phi=phi_X)
    if all(solver._witt_vec_val_ge(entry, target_x) for entry in res):
        return LiftResult(prob, X, 0, None, None, target_digits, ())

    candidates = []
    for entry in res:
        for i, comp in enumerate(entry):
            v = comp.valuation()
            if isinstance(v, LowerBound):
                if Fraction(v.value) / p ** i <= level_a_q:
                    raise PrecisionError(
                        "residual component vanished below the level-a threshold"
                    )
                candidates.append(Fraction(v.value) / p ** i)
            else:
                candidates.append(Fraction(v) / p ** i)
    a_prime = min(candidates)
    a_prime = min(a_prime, Fraction(model.e_norm, p ** (n - 1)))
    if a_prime <= level_a_q:
        raise NonConvergenceError(
            f"congruence defect {a_prime} does not exceed the level-a "
            f"threshold {level_a_q}: starting point is not a level-a solution"
        )

    consts = solver._lift_constants(prob, ring, a_prime)
    beta_pows = consts.beta_pows
    n_over_ps = Fraction(prob.N, p ** prob.s)
    v_beta = a_prime - n_over_ps
    gamma = min(v_beta, (p - 1) * v_beta - n_over_ps)
    if gamma <= 0:
        raise NonConvergenceError("contraction gain is not positive")
    target_vk = Fraction(target_digits * model.e_norm)
    budget = int(-(-target_vk // gamma)) + 2
    bound = solver._residual_aprec_bound(prob, consts)
    if bound is not None and bound < target_x:
        raise PrecisionError(
            f"no iterate's residual is known beyond x-precision {bound} < {target_x}"
        )

    piNX = tuple(teichmuller_scale(ring, p, consts.pi_n, X[i]) for i in range(d))
    steps = []

    def moved(Z, level):
        return tuple(
            combine_add(
                ring, p, X[i][:level], tuple(b * z for b, z in zip(beta_pows, Z[i]))
            )
            for i in range(d)
        )

    def step(phi, Bl, parts, level):
        (MB,) = plain_mat_mul(ring, p, (phi,), Bl)
        return tuple(
            solver._teich_div(combine_sub(ring, p, MB[i], piNX[i][:level]), parts)
            for i in range(d)
        )

    def certify(Z, level):
        Y = moved(Z, level)
        phi = tuple(power_frobenius(ring, p, vec) for vec in Y)
        r = witt_residual(prob, ring, Y, level, phi=phi)
        return Y, phi, all(solver._witt_vec_val_ge(entry, target_x) for entry in r)

    iterations = 0

    def solve(Z, level, phi):
        nonlocal iterations
        parts = consts.parts(level)
        Bl = tuple(
            tuple(prob.B_tilde[i][j][:level] for j in range(d)) for i in range(d)
        )
        if phi is None:
            phi = tuple(power_frobenius(ring, p, vec) for vec in moved(Z, level))
        for it in range(1, budget + 1):
            Z_next = step(phi, Bl, parts, level)
            vals = tuple(
                (c.xval(), c.aprec)
                for i in range(d)
                for c in combine_sub(ring, p, Z_next[i], Z[i])
            )
            Z = Z_next
            steps.append((level, it, vals))
            iterations = max(iterations, it)
            Y, phi, done = certify(Z, level)
            if done:
                return Z, Y
            if all(xv is None for xv, _ in vals):
                raise PrecisionError(
                    "iteration is stationary but the residual is not certified"
                )
        raise NonConvergenceError(
            f"no convergence within {budget} iterations at Witt level {level}"
        )

    Z = tuple(() for _ in range(d))
    phi = tuple(vec[:1] for vec in phi_X)
    for level in range(1, n + 1):
        Z, X_exact = solve(tuple(vec + (model.zero(),) for vec in Z), level, phi)
        phi = None
    diff = tuple(combine_sub(ring, p, X_exact[i], X[i]) for i in range(d))
    for entry in diff:
        if not ideal_membership_gt(entry, prob.quotient_level(prob.level_b)):
            raise AssertionError("lift strayed outside the level-b class")
    return LiftResult(
        prob, X_exact, iterations, gamma, a_prime, target_digits, tuple(steps)
    )


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------


def summary(lr):
    """What a LiftResult says: X to coefficients and aprec, the counts and
    constants, and the steps."""
    X = tuple(tuple((c.coeffs, c.aprec) for c in vec) for vec in lr.X)
    return (lr.problem.model.prec, X, lr.iterations, lr.gamma, lr.a_prime,
            lr.certified_digits, lr.steps)


def rungs(prob, member, digits, attempt):
    """Every attempt of ``lift_solution``'s ladder under ``attempt``: the
    summary of the LiftResult, or the model precision, type and message of
    the refusal, until an attempt returns or raises NonConvergenceError."""
    out, cur = [], prob
    for _ in range(solver.LIFT_ATTEMPTS):
        try:
            out.append(summary(attempt(cur, member, digits)))
            return out
        except PrecisionError as exc:
            out.append((cur.model.prec, type(exc), str(exc)))
        except NonConvergenceError as exc:
            out.append((cur.model.prec, type(exc), str(exc)))
            return out
        cur = solver._boosted(prob, cur.model.prec * 2)
    return out


def compare_classes(prob, members, digits):
    """Both lifters agree on every rung of every class; returns the number
    of rungs that refused and of lifts that iterated, so that a caller can
    check that its instance reaches them."""
    refused = iterated = 0
    for member in members:
        want = rungs(prob, member, digits, witt_vector_lift_attempt)
        got = rungs(prob, member, digits, solver._lift_attempt)
        expect(got == want, member, got, want)
        refused += sum(len(r) == 3 for r in got)
        iterated += any(len(r) == 7 and r[2] for r in got)
    return refused, iterated


def cli_problem(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        args = cli.build_parser().parse_args(argv)
    return cli._build_problem(args)


README = ["--eisenstein", "3,1", "--n", "1", "--r", "1", "--s", "1"]
X6 = ["--model", "3,0,0,0,0,0,1"]
X12 = ["--model", "3,0,0,0,0,0,0,0,0,0,0,0,1"]


@pytest.mark.parametrize(
    "matrix, model, digits, min_refused",
    [
        ("0:1", X6, 6, 0),
        ("0:1", X6, 24, 1),  # the precision skip at 24 digits, then 48
        ("0:1", X12, 12, 0),
        (",0:1;1,", X6, 5, 0),  # the rank-2 swap, d = 2
    ],
)
def test_level_one_on_elements_matches_witt_vector_lifter(
    matrix, model, digits, min_refused
):
    prob = cli_problem(["solve-lift"] + README + ["--matrix", matrix] + model)
    members = jset_enumerate(prob, "a").members
    refused, iterated = compare_classes(prob, members, digits)
    expect(refused >= min_refused, refused)
    expect(iterated > 0, iterated)


def test_refusals_inside_the_level_one_loop_match(monkeypatch):
    """Without the precheck the 24-digit attempts iterate at 24 digits and
    are refused inside the loop, on elements; the refusals are the Witt
    vector lifter's, type and message."""
    monkeypatch.setattr(solver, "_residual_aprec_bound", lambda prob, consts: None)
    prob = cli_problem(["solve-lift"] + README + ["--matrix", "0:1"] + X6)
    members = jset_enumerate(prob, "a").members
    refused, iterated = compare_classes(prob, members, 24)
    expect(refused > 0, refused)
    expect(iterated > 0, iterated)


def test_length_two_lift_matches_witt_vector_lifter():
    """n = 2: level 1 on elements, then level 2 on Witt vectors, from the
    perturbed class and from the exact solution."""
    prob = length_two_problem()
    member = perturbed_length_two_member(prob)
    _, iterated = compare_classes(prob, [member, EXACT_LEN2], 6)
    expect(iterated == 1, iterated)
    lr = solver._lift_attempt(prob, member, 6)
    expect({level for level, _, _ in lr.steps} == {1, 2}, lr.steps)


# ---------------------------------------------------------------------------
# Witt length 1 without the ghost solve
# ---------------------------------------------------------------------------


def count_calls(monkeypatch):
    calls = {"combine": 0, "lower": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(witt, "_witt_combine", counting("combine", witt._witt_combine))
    monkeypatch.setattr(LocalRing, "lower", counting("lower", LocalRing.lower))
    return calls


def test_length_one_solve_lift_makes_no_ghost_solve(monkeypatch):
    """An n = 1 solve-lift, build, enumeration and lifts included, runs no
    ``_witt_combine`` and no ``LocalRing.lower``; the n = 2 lift still
    does, so the counters count."""
    calls = count_calls(monkeypatch)
    serial_lifts(monkeypatch)
    for argv in (["--matrix", "0:1"] + X12 + ["--digits", "12"],
                 ["--matrix", ",0:1;1,"] + X6 + ["--digits", "5"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["solve-lift"] + README + argv)
        expect(code == 0, out.getvalue())
    expect(calls == {"combine": 0, "lower": 0}, calls)
    prob = length_two_problem()
    solver.lift_solution(prob, perturbed_length_two_member(prob), 6)
    expect(calls["combine"] > 0 and calls["lower"] > 0, calls)


def local_element(model, rng):
    aprec = rng.choice([model.full_aprec, rng.randrange(model.full_aprec + 1)])
    coeffs = tuple(rng.randrange(model.q) if rng.random() < 0.7 else 0
                   for _ in range(model.m))
    return LocalElement(model, coeffs, aprec)


@pytest.mark.parametrize("op", ["add", "sub"])
def test_length_one_sum_and_difference_match_the_ghost_solve(op):
    """At Witt length 1, ``witt_add`` and ``witt_sub`` give the coefficients
    and aprec of ``_witt_combine``, for both adapters: on local-field
    elements of equal and unequal aprec, and on integers."""
    fn = {"add": witt_add, "sub": witt_sub}[op]
    elem_op, combine = {"add": (operator.add, witt.companion_add),
                        "sub": (operator.sub, witt._companion_sub)}[op]
    rng = random.Random(op)
    unequal = 0
    for g, prec in [((3, 1), 5), ((3, 0, 0, 0, 0, 0, 1), 4), ((3, 3, 0, 1), 6)]:
        model = LocalFieldModel(eisenstein_validate(g, 3), prec)
        ring = LocalRing(model)
        for _ in range(40):
            x, y = (local_element(model, rng),), (local_element(model, rng),)
            unequal += x[0].aprec != y[0].aprec
            got = fn(ring, 3, x, y)
            want = witt._witt_combine(ring, 3, x, y, elem_op, combine)
            expect([(c.coeffs, c.aprec) for c in got]
                   == [(c.coeffs, c.aprec) for c in want], x, y)
    expect(unequal > 0, unequal)
    zz = ZZRing()
    for a, b in [(0, 0), (5, -7), (-3, 12), (10 ** 30, 1)]:
        want = witt._witt_combine(zz, 3, (a,), (b,), elem_op, combine)
        expect(fn(zz, 3, (a,), (b,)) == want, a, b)


def test_length_one_integer_image_is_the_element():
    """``int_to_witt`` at length 1 is (R.from_int(c),), as ``lower`` gave."""
    model = LocalFieldModel(eisenstein_validate((3, 0, 1), 3), 5)
    for R in (LocalRing(model), ZZRing()):
        for c in (0, 1, -2, 3 ** 12):
            got = witt.int_to_witt(R, 3, c, 1)
            want = R.lower(R.from_int(c), [], ())
            expect(got == want, R, c, got, want)
