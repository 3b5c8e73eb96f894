"""Finite Frobenius-solution sets over local-field models and exact lifting.

A problem instance fixes a Frobenius module (matrix A over (Z/p^n)[u]), a
local-field model E containing the level-s Kummer layer, and the annihilation
exponent N.  The variable u acts through the Teichmueller representative of a
p^s-th root pi_s of the base uniformizer, which the problem derives from the
model (:func:`derive_pi_s`); the finite solution sets consist of
d-vectors over W_n(O_E) solving the Frobenius congruence modulo the graded
ideal [a^{>c/p^s}].

Three layers of machinery:

* enumeration of the congruence solutions over canonical residue
  representatives, under an explicit candidate cap: at every Witt length,
  J_c is the kernel of the residual map, which is additive modulo the
  graded ideal, read off from one residual per basis digit by row
  reduction over F_p, one Witt component at a time; the same reduction
  gives each set a p-basis, which counts it.  Each problem memoizes the
  sets it has enumerated;
* reduction maps between truncation levels: one class map takes a vector
  to the canonical representative of its class modulo the graded ideal, and
  rho maps a solution set's basis through it and row-reduces the classes.
  The splitting detector compares the image's order against the size the
  full solution module would have;
* the successive-approximation lifter that refines a level-a class into an
  exact solution, gaining a fixed positive valuation per step, with the
  p-adic digit induction for n > 1.

Every product of Witt matrices is :func:`ramibound.padic.mat_mul` with one
dot product, :func:`_witt_dot`, which skips products by an all-zero entry
and forms length-1 entries on the coefficients.

Working precision is self-tuning: when a certification cannot be reached at
the current model precision the problem is rebuilt at twice the digit count
and the computation retried.  A lift skips, without iterating, a precision
at which the precision rules prove that no iterate can be certified, and
each rebuilt problem is kept on the problem the caller passed, so all lifts
of one call share it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from types import SimpleNamespace

from .bounds import BoundConstants, bound_constants, exact_nilpotency_index
from .errors import (
    CapExceededError,
    InputError,
    NonConvergenceError,
    PrecisionError,
    UndecidableError,
)
from .kisin import KisinModule, witnesses
from .padic import (
    LocalElement,
    LocalFieldModel,
    LowerBound,
    Rat,
    mat_mul,
    parse_rat,
)
from .witt import (
    LocalRing,
    ideal_membership_gt,
    int_to_witt,
    power_frobenius,
    teichmuller,
    teichmuller_powers,
    teichmuller_scale,
    witt_add,
    witt_mul,
    witt_neg,
    witt_sub,
    witt_zero,
)

DEFAULT_CAP = 10 ** 6
LIFT_ATTEMPTS = 5  # model precisions tried by lift_solution, each double the last

Member = tuple  # tuple over coords of tuples over Witt components of coeffs


def _memo():
    """A write-once dict of a frozen problem, outside its init, equality
    and repr."""
    return field(default_factory=dict, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class JSetProblem:
    module: KisinModule
    model: LocalFieldModel
    s: int
    r: int
    N: int
    constants: BoundConstants
    pi_s: LocalElement  # derive_pi_s of the module, model and s
    cap: int
    A_tilde: tuple
    B_tilde: tuple
    # write-once memos, filled by the functions named
    jset_memo: dict = _memo()  # {level: JSolutionSet}, jset_enumerate
    lift_memo: dict = _memo()  # {a': _LiftConstants}, _lift_attempt
    level_memo: dict = _memo()  # {Witt level: columns}, columns
    boosted: dict = _memo()  # {digits: with_precision}, lift_solution

    @property
    def d(self) -> int:
        return self.module.rank

    @property
    def n(self) -> int:
        return self.module.n

    @property
    def p(self) -> int:
        return self.module.p

    @property
    def level_a(self) -> Rat:
        return self.constants.a

    @property
    def level_b(self) -> Rat:
        return self.constants.b

    @cached_property
    def ring(self) -> LocalRing:
        return LocalRing(self.model)

    def columns(self, level: int) -> tuple:
        """A~ and B~ by columns, each entry cut to ``level`` Witt
        components; made once per level."""
        known = self.level_memo.get(level)
        if known is None:
            known = self.level_memo[level] = tuple(
                tuple(tuple(vec[:level] for vec in col) for col in zip(*M))
                for M in (self.A_tilde, self.B_tilde)
            )
        return known

    @cached_property
    def residue_model(self) -> LocalFieldModel:
        """The model at one p-digit, where the solution sets' Witt sums
        are taken in W_n(O_E/p)."""
        return self.model.with_prec(1)

    def quotient_level(self, c: Rat) -> Rat:
        return Fraction(c) / self.p ** self.s

    def comp_threshold(self, c: Rat, i: int) -> Rat:
        return self.quotient_level(c) * self.p ** i

    def level_cutoffs(self, c: Rat) -> list:
        """The ``coeff_cutoffs`` at each Witt component's threshold t_i at
        level c, which depend on the model's degree and normalization only."""
        model = self.residue_model
        return [model.coeff_cutoffs(self.comp_threshold(c, i)) for i in range(self.n)]


def _lift_poly(
    ring: LocalRing, p: int, n: int, pi_s: LocalElement, poly: tuple
) -> tuple:
    """Image of a (Z/p^n)[u]-polynomial in W_n(O_E) under u -> [pi_s]:
    sum of [pi_s^k] * (Witt image of the integer coefficient)."""
    acc = witt_zero(ring, n)
    for k, c in enumerate(poly):
        if c == 0:
            continue
        term = teichmuller_scale(ring, p, pi_s.pow(k), int_to_witt(ring, p, c, n))
        acc = witt_add(ring, p, acc, term)
    return acc


def _scalar_matrix(d: int, c, zero) -> tuple:
    """The d x d matrix with c on the diagonal and zero off it."""
    return tuple([tuple([c if i == j else zero for j in range(d)]) for i in range(d)])


def _witt_dot(ring: LocalRing, p: int, xs: tuple, ys: tuple) -> tuple:
    """sum_k xs[k] * ys[k] for Witt vectors, with every coefficient and
    aprec of the plain sum, left to right, of ``witt_mul`` products by
    ``witt_add``, which the tests compare it with.  That sum is known to the
    least aprec over xs, ys and full precision, as ``LocalRing.lower`` gives
    a Witt sum or product the least aprec of its inputs; so the entry takes
    that aprec, and two shortcuts leave its coefficients as they were:

    * a product by a factor whose components are all zero is skipped: its
      ghost components are 0, so adding it leaves the sum's coefficients,
      and only its aprec counts.  An entry with every product skipped is
      zero at its aprec.
    * at Witt length 1 a Witt product or sum is that of the component-0
      coefficients mod q, so ``_coeff_dot`` forms the entry as one element
      from ``LocalFieldModel.mul_coeffs``.  At length >= 2 the products are
      ``witt_mul`` and their sum ``witt_add``.
    """
    model = ring.model
    if len(ys[0]) == 1:
        return (_coeff_dot(model, [x for x, in xs], ys),)
    aprec, acc = model.full_aprec, None
    for x, y in zip(xs, ys):
        aprec = min(aprec, *[c.aprec for c in x + y])
        if _has_coeffs(x) and _has_coeffs(y):
            term = witt_mul(ring, p, x, y)
            acc = term if acc is None else witt_add(ring, p, acc, term)
    if acc is None:
        return (LocalElement(model, (0,) * model.m, aprec),) * len(xs[0])
    return tuple(
        [c if c.aprec == aprec else LocalElement(model, c.coeffs, aprec) for c in acc]
    )


def _coeff_dot(model: LocalFieldModel, xs: tuple, ys: tuple) -> LocalElement:
    """sum_k xs[k] * ys[k] for elements xs and Witt vectors ys of length 1,
    on the coefficients, as ``_witt_dot`` forms it: an element."""
    aprec, terms = model.full_aprec, []
    for a, (b,) in zip(xs, ys):
        aprec = min(aprec, a.aprec, b.aprec)
        if any(a.coeffs) and any(b.coeffs):
            terms.append(model.mul_coeffs(a.coeffs, b.coeffs))
    if len(terms) == 1:
        vec = terms[0]
    else:
        # the zero vector in front makes an entry without products zero
        vec = tuple([sum(t) % model.q for t in zip((0,) * model.m, *terms)])
    return LocalElement(model, vec, aprec)


def _has_coeffs(vec: tuple) -> bool:
    """Some component of the Witt vector has a nonzero coefficient."""
    return any([any(c.coeffs) for c in vec])


def _teich_div(vec: tuple, parts: tuple) -> tuple:
    """Divide a Witt vector by the Teichmueller representative [z]:
    component i is divided by z^{p^i}.  ``parts`` holds
    ``(z^{p^i}).divisor()`` for at least every component of vec, so a caller
    dividing many vectors by one [z] raises z to its powers and inverts
    them once."""
    return tuple(comp.div_by(*part) for comp, part in zip(vec, parts))


def _witt_vec_is_zero(vec: tuple) -> bool:
    return all(comp.is_zero_at_prec() for comp in vec)


def _witt_vec_val_ge(vec: tuple, target_x: int) -> bool:
    """Every component vanishes modulo x^target_x (vanishing at the working
    precision must reach the target to count)."""
    for comp in vec:
        xv = comp.xval()
        if xv is None:
            if comp.aprec < target_x:
                raise PrecisionError(
                    f"component certified only to x-precision {comp.aprec} < {target_x}"
                )
            continue
        if xv < target_x:
            return False
    return True


def derive_pi_s(module: KisinModule, model: LocalFieldModel, s: int) -> LocalElement:
    """pi_s = x^t, t = m/(e * p^s), checked to be a p^s-th root of a root of
    E: E must vanish at pi_s^{p^s} = x^{m/e}.

    It is the only power of x that can be: over a model of degree m, x^t has
    v_p = t/m, and a p^s-th root of a uniformizer of the base field has
    v_p = 1/(e * p^s)."""
    e, ps, m = module.E.e, module.p ** s, model.m
    if m % (e * ps):
        raise InputError(
            f"the model's degree must be a multiple of e*p^s = {e * ps} for "
            f"pi_s to be a power of x; it is {m}"
        )
    t = m // (e * ps)
    pi_s = model.uniformizer_pow(t)
    pi = pi_s.pow(ps)
    acc = model.zero()
    for i, c in enumerate(module.E.coeffs):
        if c:
            acc = acc + pi.pow(i).mul_int(c)
    if not acc.is_zero_at_prec():
        raise InputError(
            f"E must vanish at x^{m // e} on the model for pi_s = x^{t} to be a "
            "p^s-th root of a root of E; it does not"
        )
    return pi_s


def build_jset_problem(
    module: KisinModule,
    model: LocalFieldModel,
    s: int,
    r: int,
    N: int | None = None,
    cap: int = DEFAULT_CAP,
) -> JSetProblem:
    """Assemble the lifted matrices and the normalization A~ * B~ = [pi_s]^N.

    The u^N witness comes from :func:`ramibound.kisin.witnesses`, which
    retries a precision refusal at doubled u-precision.  Checks: the model
    normalization matches the base ramification index, s clears the
    minimal-level threshold, and the correction matrix lies in the
    positive-valuation ideal before the geometric series is applied.
    """
    if model.p != module.p:
        raise InputError("model and module disagree on p")
    if model.e_norm != module.E.e:
        raise InputError(
            "model must report valuations normalized to the base field "
            f"(e_norm = {module.E.e})"
        )
    if N is None:
        N = exact_nilpotency_index(module.E, module.n, r)
    constants = bound_constants(module.p, module.E.e, module.n, r, N)
    if s < constants.s_min_int:
        raise InputError(
            f"level s={s} is below the minimal admissible level {constants.s_min_int}"
        )
    pi_s = derive_pi_s(module, model, s)
    if module.rank == 0:
        return JSetProblem(module, model, s, r, N, constants, pi_s, cap, (), ())
    ring = LocalRing(model)
    p, n, d = module.p, module.n, module.rank
    dot = partial(_witt_dot, ring, p)
    add, sub = partial(witt_add, ring, p), partial(witt_sub, ring, p)
    lift = partial(_lift_poly, ring, p, n, pi_s)
    A_t = tuple([tuple(map(lift, row)) for row in module.entries])
    _, _, wit = witnesses(module, r, N)
    B_t0 = tuple([tuple(map(lift, row)) for row in wit.B])

    pi_n = pi_s.pow(N)
    pi_n_parts = tuple(zp.divisor() for zp in teichmuller_powers(ring, p, pi_n, n))
    one, zero = int_to_witt(ring, p, 1, n), witt_zero(ring, n)
    ident = _scalar_matrix(d, one, zero)

    def neg_defect(x, want):
        entry = sub(_teich_div(x, pi_n_parts), want)
        if not _witt_vec_is_zero(entry) and not ideal_membership_gt(entry, Fraction(0)):
            raise PrecisionError(
                "normalization defect is not in the positive-valuation ideal"
            )
        return witt_neg(ring, p, entry)

    # -R for the defect R = A~ B~0 / [pi^N] - I; B~ = B~0 * sum_k (-R)^k
    neg_R = tuple([tuple(map(neg_defect, row, wants))
                   for row, wants in zip(mat_mul(A_t, B_t0, dot), ident)])
    inv = term = ident
    for _ in range(model.full_aprec + 8):
        term = mat_mul(term, neg_R, dot)
        if all(_witt_vec_is_zero(x) for row in term for x in row):
            break
        inv = tuple([tuple(map(add, *rows)) for rows in zip(inv, term)])
    else:
        raise PrecisionError("normalization series did not terminate at precision")

    B_t = mat_mul(B_t0, inv, dot)
    pi_I = _scalar_matrix(d, teichmuller_scale(ring, p, pi_n, one), zero)
    check = mat_mul(A_t, B_t, dot)
    if not all(_witt_vec_is_zero(sub(x, y))
               for row, wants in zip(check, pi_I) for x, y in zip(row, wants)):
        raise PrecisionError("normalized witness check failed at precision")

    return JSetProblem(module, model, s, r, N, constants, pi_s, cap, A_t, B_t)


def with_precision(prob: JSetProblem, prec_digits: int) -> JSetProblem:
    """The problem rebuilt on its model at ``prec_digits``, which derives
    its own pi_s there."""
    return build_jset_problem(
        prob.module,
        prob.model.with_prec(prec_digits),
        prob.s,
        prob.r,
        prob.N,
        prob.cap,
    )


# ---------------------------------------------------------------------------
# Members: canonical representatives of W_n(O_E)/[a^{>c/p^s}]
# ---------------------------------------------------------------------------


def member_to_witt(prob: JSetProblem, member: Member) -> tuple:
    return _vectors(prob.model, member)


def truncate_solution(prob: JSetProblem, X: tuple, c: Rat) -> Member:
    """The canonical representative of the class of X modulo
    I_c = [a^{>c/p^s}], at any level and model precision.

    A Witt vector x is read one component at a time: x_0 is truncated by
    ``truncate_to_level`` at its threshold, which refuses a level the
    precision cannot resolve, and the Teichmueller representative of the
    dropped digits, which lies in I_c, is Witt-subtracted from x.  What is
    left is [kept] + V(rest) exactly, and V(y) lies in I_c exactly when y
    lies in the ideal whose thresholds start at the next component's, so
    the rest is read the same way from there.  Vectors congruent modulo I_c
    give the same representative, and at n = 1 it is the componentwise
    truncation."""
    ring, p = prob.ring, prob.p
    out = []
    for vec in X:
        digits = []
        while vec:
            kept = vec[0].truncate_to_level(prob.comp_threshold(c, len(digits)))
            digits.append(kept)
            if len(vec) > 1:
                dropped = vec[0] - prob.model.from_coeffs(kept)
                vec = witt_sub(ring, p, vec, teichmuller(ring, dropped, len(vec)))
            vec = vec[1:]
        out.append(tuple(digits))
    return tuple(out)


def _level_ops(ring: LocalRing, p: int, level: int, elements: bool) -> SimpleNamespace:
    """The arithmetic of the first ``level`` Witt components, on Witt
    vectors or, with ``elements`` at level 1, on component-0 elements (see
    ``_lift_attempt``): ``cut`` and ``comps`` convert from and to Witt
    vectors, ``scale(zs, x)`` is [z] * x from z's powers, and ``div`` is
    ``_teich_div``."""
    if elements:
        return SimpleNamespace(
            cut=operator.itemgetter(0), comps=lambda c: (c,), add=operator.add,
            sub=operator.sub, frob=lambda c: c ** p,
            dot=partial(_coeff_dot, ring.model), scale=lambda zs, c: zs[0] * c,
            div=lambda c, parts: c.div_by(*parts[0]),
        )
    return SimpleNamespace(
        cut=lambda vec: vec[:level], comps=lambda vec: vec, div=_teich_div,
        add=partial(witt_add, ring, p), sub=partial(witt_sub, ring, p),
        frob=partial(power_frobenius, ring, p), dot=partial(_witt_dot, ring, p),
        scale=lambda zs, vec: tuple([z * c for z, c in zip(zs, vec)]),
    )


def _residual(prob: JSetProblem, ring: LocalRing, X: tuple, level_n: int,
              phi=None, ops=None) -> tuple:
    """phi(X) - X * A~ on the first level_n Witt components, in the
    arithmetic ``ops`` (Witt vectors over ``ring`` by default).  ``phi``,
    when given, is phi(X), already computed."""
    ops = ops or _level_ops(ring, prob.p, level_n, False)
    if phi is None:
        phi = tuple(map(ops.frob, X))
    A = prob.columns(level_n)[0]
    return tuple([ops.sub(f, ops.dot(X, col)) for f, col in zip(phi, A)])


@dataclass(frozen=True)
class JSolutionSet:
    """A solution set at one level, given by a p-basis: canonical tuples
    whose Witt sums with coefficients in [0, p) are its members, each once
    (``jset_enumerate``, step 6), listed over the residue ``model`` when read."""

    level: Rat
    generators: tuple
    model: LocalFieldModel
    n: int
    d: int

    def __len__(self) -> int:
        return self.model.p ** len(self.generators)

    order = property(__len__)  # len() refuses sizes past sys.maxsize

    @cached_property
    def members(self) -> tuple:
        """The p^rank digit combinations of the basis, each its own
        canonical tuple (step 5), sorted."""
        ring, p = LocalRing(self.model), self.model.p
        members = [((self.model.zero(),) * self.n,) * self.d]
        # vectors with the most leading zero components, whose sums are the
        # shortest, come last, where they are added to the most members
        basis = [_vectors(self.model, g) for g in self.generators]
        for g in sorted(basis, key=lambda X: min(map(_lead, X))):
            layer = members
            for _ in range(p - 1):
                layer = [_plus(ring, p, v, g) for v in layer]
                members += layer
        return tuple(sorted(map(_key, members)))


def resolve_level(prob: JSetProblem, level) -> Rat:
    if level in ("a", None):
        return prob.level_a
    if level == "b":
        return prob.level_b
    return parse_rat(level, "level")


def jset_enumerate(prob: JSetProblem, level="a") -> JSolutionSet:
    """The congruence solutions at the given truncation level, over canonical
    residue representatives, as a solution set with a p-basis.

    The candidate cap bounds the full product of canonical representatives,
    checked before any residual is evaluated.  A rank-0 module has the one
    member ``()``.  Otherwise J_c is the kernel of the residual map
    R(X) = phi(X) - X * A~ modulo I_c = [a^{>c/p^s}], whose generators
    ``_kernel_generators`` reads off from one residual per basis digit, at
    every Witt length n, and whose p-basis ``_echelon`` picks from them.

    Why J_c is a kernel.  An admissible level has c < e * p^(s-n+1), so each
    component threshold t_i = p^i * c/p^s (i < n) is below e = v_K(p).  Then:

    1. every cutoff k_j of ``coeff_cutoffs`` at t_i is at most 1: k_j counts
       the digits p^t x^j of valuation e*t + e*j/m <= t_i < e, and only
       t = 0 can qualify.  The ideal at t_i is the box of the p^{k_j} x^j,
       since the terms a_j x^j have distinct valuations, so it contains
       p O_E, and O_E modulo it is the F_p-space of the digits at the
       coefficients with k_j = 1, added digit by digit mod p;
    2. W_n(p O_E) lies in I_c, as each of its components has valuation at
       least e.  Reduction W_n(O_E) -> W_n(O_E/p) is componentwise, a ring
       map with kernel W_n(p O_E), and over O_E/p the componentwise p-th
       power is W_n of the Frobenius, a ring endomorphism.  So
       phi(X + Y) - phi(X) - phi(Y) lies in W_n(p O_E), inside I_c, and R
       is additive modulo I_c (X * A~ is, and I_c is an ideal).  As phi maps
       I_c into itself, R is a homomorphism of (W_n(O_E)/I_c)^d, and J_c is
       its kernel;
    3. the first component that is not in the ideal adds without carry: if
       the components below i of Z and Z' lie in the ideal, then
       (Z + Z')_i = Z_i + Z'_i modulo the ideal at t_i, because every
       monomial of the Witt carry into component i has weight p^i in the
       components below i, a component of weight p^k having valuation above
       p^k * c/p^s.  Such a Z is congruent to V^i(Z_i, ..., Z_{n-1}), as
       Z = (Z_0, ..., Z_{i-1}, 0, ...) + V^i(Z_i, ...) exactly and the first
       summand lies in I_c.  So reading the component-i digits is
       F_p-linear on the classes whose components below i lie in the ideal,
       and the basis vectors V^i[x^j] (cutoff 1 at t_i) of all i generate
       W_n(O_E)/I_c;
    4. let D_i be the X whose residual has its components below i in the
       ideal, so D_0 is everything and D_n is J_c.  Reading the
       component-i digits of R(X) is a homomorphism from D_i to an F_p-space
       (2 and 3), with kernel D_{i+1}.  Given generators of D_i, row
       reduction over F_p (a row plus an integer multiple of another)
       leaves pivot rows g with independent digits and vanished rows h; as
       sum a_g g + sum b_h h has digits sum a_g digits(g), it lies in D_{i+1}
       exactly when every a_g is divisible by p, so the h and the p g
       generate D_{i+1};
    5. the truncated tuples, with every component's coefficients reduced by
       its cutoffs, are a complete set of representatives of
       W_n(O_E)/I_c: two of them differ first at some component, where they
       subtract without carry (3), and there are as many as the quotient
       has elements.  By (2), sums of classes may be taken in W_n(O_E/p),
       where O_E/p = F_p[x]/(x^m).  There the Witt sum's component k is
       isobaric of weight p^k, so if component i of X and of Y has x-degree
       at most D_i = floor(t_i * m/e), which are the coefficients with
       cutoff 1, each monomial of component k of X + Y has x-degree at most
       sum a_i D_i <= t_k * m/e for weights sum a_i p^i = p^k; negation is
       componentwise for odd p.  The basis vectors are such tuples, so
       every Witt combination of them, taken mod p, is a truncated tuple,
       the representative of its class.  The members are these tuples for
       the Witt combinations of the generators of J_c: exactly the
       truncated tuples whose own residual lies in I_c;
    6. a group G that truncated tuples generate has a p-basis.  Let G_i be
       its members whose components below i are zero (lie in the ideal).
       Row reduction as in (4), on the component-i digits of the members
       themselves, keeps pivots at component i, which lie in G_i and have
       independent digits, and passes on generators of G_{i+1}.  By (3)
       reading those digits is F_p-linear on G_i, so a member of G_i fixes
       the coefficients mod p of the pivots at i, and taking them in
       [0, p) leaves a member of G_{i+1}.  So every member of G is exactly
       one sum a_g g over all pivots g with 0 <= a_g < p, and |G| is p to
       the number of pivots.

    At n = 1 there is one component, (3) is empty, and the kernel is the
    F_p null space of the basis digits' residuals.

    The result is memoized on the problem, so enumerating one level again
    costs nothing.
    """
    c = resolve_level(prob, level)
    known = prob.jset_memo.get(c)
    if known is not None:
        return known
    e = prob.module.E.e
    bound = Fraction(e * prob.p ** (prob.s - prob.n + 1))
    if not 0 <= c < bound:
        raise InputError(f"level {c} outside the admissible range [0, {bound})")
    cuts = prob.level_cutoffs(c)
    total = prob.p ** (prob.d * sum(map(sum, cuts)))
    if total > prob.cap:
        raise CapExceededError(
            f"enumeration needs {total} candidates, cap is {prob.cap}"
        )
    sol = _solution_set(prob, c, _kernel_generators(prob, c))
    prob.jset_memo[c] = sol
    return sol


def _solution_set(prob: JSetProblem, c: Rat, gens: tuple) -> JSolutionSet:
    """The solution set at level c that canonical tuples generate, with the
    pivots of ``_echelon`` on the rows (g, g) as its p-basis (step 6)."""
    low = prob.residue_model
    rows = [(X, X) for X in (_vectors(low, g) for g in gens)]
    pivots, _ = _echelon(prob, prob.level_cutoffs(c), rows)
    return JSolutionSet(c, tuple(map(_key, pivots)), low, prob.n, prob.d)


def _kernel_generators(prob: JSetProblem, c: Rat) -> tuple:
    """Generators of J_c, the kernel of the residual mod I_c (see
    ``jset_enumerate`` for the proof), as canonical tuples.

    A basis digit vector has one nonzero Witt component, x^j at component i
    of coordinate t, with cutoff 1 at t_i; its residual is evaluated once.
    ``_echelon`` reduces the rows (X, R(X)), and the nonzero rows it leaves
    after component n - 1 generate J_c (step 4); each is its own truncated
    tuple (step 5), read off its coefficients.

    Rows live in W_n(O_E/p), on the model at one p-digit: the class of a
    vector modulo I_c depends only on its components mod p, as W_n(p O_E)
    lies in I_c, and the Witt sum is an integer polynomial in the
    components, so sums of components mod p are the sums' components mod p.
    A~ is known to full precision, so every residual is, and each residual
    is read mod p without running out of precision."""
    n, d, m = prob.n, prob.d, prob.model.m
    low, ring = prob.residue_model, prob.ring
    cuts = prob.level_cutoffs(c)
    zero = (0,) * m
    rows = []
    for t in range(d):
        for i in range(n):
            for j in (j for j, k in enumerate(cuts[i]) if k):
                digit = tuple(1 if u == j else 0 for u in range(m))
                vec = tuple(digit if u == i else zero for u in range(n))
                member = tuple(vec if u == t else (zero,) * n for u in range(d))
                R = _residual(prob, ring, member_to_witt(prob, member), n)
                rows.append((_vectors(low, member), _vectors(low, _key(R))))
    _, rest = _echelon(prob, cuts, rows)
    return tuple(_key(X) for X in rest if any(_lead(vec) < n for vec in X))


def _echelon(prob: JSetProblem, cuts: list, rows: list) -> tuple:
    """Row reduction over F_p along the Witt filtration (``jset_enumerate``,
    steps 4 and 6), in W_n(O_E/p).  A row is a pair (X, S) of d-vectors,
    kept as the one tuple X + S, so that a Witt sum combines both halves:
    at component i, S holds components i, ..., n-1 of a vector whose
    components below i lie in the ideal.  Its component-i digits, at the
    cutoffs ``cuts[i]``, are row reduced; p times each pivot row and every
    vanished row pass on, with S's component i dropped (S is then congruent
    to V of the rest).  Returns the X halves of the pivot rows, in order,
    and of the rows left after component n - 1."""
    p, n, d = prob.p, prob.n, prob.d
    ring, zero = LocalRing(prob.residue_model), prob.residue_model.zero()

    def times_p(X: tuple) -> tuple:
        """p X = V(F(X)), as O_E/p has characteristic p."""
        return tuple((zero,) + tuple(comp.pow(p) for comp in vec[:-1]) for vec in X)

    pivots, rows = [], [X + S for X, S in rows]
    for i in range(n):
        places = [j for j, k in enumerate(cuts[i]) if k]
        # after the last component's digits are read, S is no longer needed
        pending = [
            ([vec[0].coeffs[j] % p for vec in row[d:] for j in places],
             row if i < n - 1 else row[:d])
            for row in rows
        ]
        passed = []
        for col in range(d * len(places)):
            at = next((k for k, (digits, _) in enumerate(pending) if digits[col]), None)
            if at is None:
                continue
            digits, row = pending.pop(at)
            multiples = [None, row]  # k times the pivot row
            inv = pow(digits[col], -1, p)
            for k, (other, orow) in enumerate(pending):
                if other[col]:  # adding f times the pivot row clears it
                    f = -other[col] * inv % p
                    while len(multiples) <= f:
                        multiples.append(_plus(ring, p, multiples[-1], row))
                    pending[k] = (
                        [(a + f * b) % p for a, b in zip(other, digits)],
                        _plus(ring, p, orow, multiples[f]),
                    )
            pivots.append(row[:d])
            passed.append(times_p(row))
        passed.extend(row for _, row in pending)
        rows = [row[:d] + tuple(vec[1:] for vec in row[d:]) for row in passed]
    return pivots, rows


def _vectors(model: LocalFieldModel, member: Member) -> tuple:
    return tuple(tuple(map(model.from_coeffs, vec)) for vec in member)


def _key(X: tuple) -> Member:
    return tuple(tuple(comp.coeffs for comp in vec) for vec in X)


def _lead(vec: tuple) -> int:
    """The index of the first nonzero component, or the length."""
    return next((i for i, comp in enumerate(vec) if any(comp.coeffs)), len(vec))


def _plus(ring: LocalRing, p: int, X: tuple, Y: tuple) -> tuple:
    """X + Y, coordinatewise.  Where y = V^k(y_k, ...), x is
    (x_0, ..., x_{k-1}, 0, ...) + V^k(x_k, ...) exactly, so x + y keeps x's
    first k components and the rest is a shorter Witt sum."""
    return tuple(
        x[:k] + (witt_add(ring, p, x[k:], y[k:]) if k < len(y) else ())
        for x, y, k in ((x, y, _lead(y)) for x, y in zip(X, Y))
    )


def rho_reduce(prob: JSetProblem, sol: JSolutionSet, target) -> JSolutionSet:
    """The image of ``sol`` at a lower truncation level c.  Reduction is a
    homomorphism, so the image is spanned by the classes modulo I_c of
    ``sol``'s basis, which ``truncate_solution`` maps one by one; its own
    basis is picked from them by ``_echelon`` at level c, and nothing is
    listed.  At ``sol``'s own level it is ``sol``."""
    c = resolve_level(prob, target)
    if c > sol.level:
        raise InputError("reduction target must not exceed the source level")
    if c == sol.level:
        return sol
    gens = [truncate_solution(prob, member_to_witt(prob, g), c) for g in sol.generators]
    return _solution_set(prob, c, gens)


def splitting_test(prob: JSetProblem, expected_t_size: int) -> tuple[bool, int]:
    """|rho_{a,b}(J_a)| against the full solution-module size: equality means
    the splitting field embeds in the model field."""
    image = rho_reduce(prob, jset_enumerate(prob, "a"), "b")
    return image.order == expected_t_size, image.order


# ---------------------------------------------------------------------------
# Exact lifting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftResult:
    problem: JSetProblem
    X: tuple  # d-tuple of Witt vectors over the (possibly boosted) model
    iterations: int
    gamma: Rat | None
    a_prime: Rat | None
    certified_digits: int
    # (Witt level, iteration, ((xval, aprec) per increment component)) per step
    steps: tuple

    @cached_property
    def trace(self) -> tuple:
        """(Witt level, iteration, increment valuations) per step: the
        v_K-valuation of each component of the increment Z' - Z, or ">=v"
        for one that is zero at precision, known to valuation v.  Made from
        ``steps`` when first read."""
        model = self.problem.model
        scale = Fraction(model.e_norm, model.m)
        return tuple(
            (level, it, tuple(
                f">={scale * aprec}" if xv is None else str(scale * xv)
                for xv, aprec in vals
            ))
            for level, it, vals in self.steps
        )


def lift_solution(
    prob: JSetProblem,
    member: Member,
    target_digits: int = 6,
) -> LiftResult:
    """Refine a level-a congruence class into an exact solution.

    Tries the model precisions P, 2P, ..., 2^(LIFT_ATTEMPTS-1) P in turn and
    moves to the next whenever an attempt raises PrecisionError: either
    certification (not convergence) failed, or ``_lift_attempt`` proved
    before its first step that certification cannot succeed at that
    precision.  Non-convergence means the starting point violated the
    level-a precondition and is reported as such.

    The problem at 2^i P is ``with_precision(prob, 2^i P)``, built once and
    kept in ``prob.boosted``; all lifts on ``prob`` share it, and with it the
    lift constants it keeps per a'.  The state lives on the caller's
    problem, so two calls that build their problems share nothing.
    """
    cur = prob
    for _ in range(LIFT_ATTEMPTS - 1):
        try:
            return _lift_attempt(cur, member, target_digits)
        except PrecisionError:
            cur = _boosted(prob, cur.model.prec * 2)
    return _lift_attempt(cur, member, target_digits)


def _boosted(prob: JSetProblem, digits: int) -> JSetProblem:
    """``with_precision(prob, digits)``, kept in ``prob.boosted``."""
    known = prob.boosted.get(digits)
    if known is None:
        known = prob.boosted[digits] = with_precision(prob, digits)
    return known


def _decompose_valuation(prob: JSetProblem, v: Rat) -> LocalElement:
    """Monomial p^j * x^i of exact v_K-valuation v."""
    model = prob.model
    t_x = Fraction(v) * model.m / model.e_norm
    if t_x.denominator != 1:
        raise PrecisionError(f"valuation {v} is not in the model's value group")
    j, i = divmod(int(t_x), model.m)
    return model.uniformizer_pow(i).mul_int(model.p ** j)


@dataclass(frozen=True)
class _LiftConstants:
    """What a lift needs that depends only on the problem and on a':
    [pi^N], the powers beta^{p^i} and (pi^N * beta)^{p^i}, and the divisor
    halves of the latter, one per Witt level begun so far."""

    pi_n: LocalElement
    beta_pows: tuple
    divisor_pows: tuple
    div_parts: list

    def parts(self, level: int) -> list:
        """The divisor halves of the first ``level`` powers, each made when
        a lift first reaches its level, so a power that is zero at precision
        fails only there.  Part i is stored at index i, not appended, so two
        lifts that make it at once leave the same list."""
        for i in range(len(self.div_parts), level):
            self.div_parts[i:i + 1] = [self.divisor_pows[i].divisor()]
        return self.div_parts


def _lift_constants(
    prob: JSetProblem, ring: LocalRing, a_prime: Rat
) -> _LiftConstants:
    """The problem's lift constants for a', made on first use."""
    known = prob.lift_memo.get(a_prime)
    if known is not None:
        return known
    p, n = prob.p, prob.n
    pi_n = prob.pi_s.pow(prob.N)
    beta = _decompose_valuation(prob, a_prime).div(pi_n)
    consts = _LiftConstants(
        pi_n,
        teichmuller_powers(ring, p, beta, n),
        teichmuller_powers(ring, p, pi_n * beta, n),
        [],
    )
    prob.lift_memo[a_prime] = consts
    return consts


def _residual_aprec_bound(prob: JSetProblem, consts: _LiftConstants) -> int | None:
    """An upper bound B on the precision ``aprec`` of component 0 of every
    residual that a certificate of ``_lift_attempt`` checks at this model
    precision, or None where the argument below does not apply.

    Let F = m * prec be full precision, k = v_x(pi^N * beta) the x-valuation
    of the divisor of the first Witt level, and b = v_x(beta) (beta's aprec
    when beta is zero at precision).  Then B = F - k + b, for every rank d
    and Witt length n, provided k >= 1:

    1. Every Z a certificate sees comes out of a step, whose component 0 is
       ``div_by(k, inv)`` of a numerator known to aprec <= F.  A numerator
       zero at precision gives aprec max(aprec - k, 0) <= F - k; otherwise
       ``shift_down(k)`` leaves aprec - k < F, and the product by the unit
       inverse (the sharp rule: min(F, a.aprec + v(b), b.aprec + v(a)),
       each term taken when that factor's aprec is below F) keeps at most
       aprec - k + v_x(inv) = aprec - k.  So z.aprec <= F - k < F.
    2. Component 0 of Y = X + [beta] Z is X_0 + beta * z_0.  By the sharp
       rule, as z.aprec < F, beta * z_0 is known to at most z.aprec + b;
       the Witt sum takes the least aprec of its inputs (the weak rule), so
       Y_0 is known to at most F - k + b = B.
    3. Component 0 of residual entry j, phi(Y)_j - sum_i Y_i * A~_ij, is a
       Witt sum of Witt products that each have Y_i among their inputs, so
       by the weak rule it is known to at most B.  ``_witt_dot`` skips a
       product by an all-zero entry, but gives the entry the least aprec
       over row Y and column j of A~, which still counts every Y_i.
    4. A certificate accepts a component only when it is zero at precision
       with aprec >= target_x, or when its xval, which is below its aprec,
       is >= target_x.  For every n the lift certifies Witt level 1, on
       component 0, before any other level.

    So if B < target_x no certificate of the attempt can accept at this
    precision, and iterating could only end in an error: PrecisionError (a
    stationary increment, a residual zero at precision below the target, or
    a division refused), or, had the step budget run out first,
    NonConvergenceError.  In that second case the lift now moves on to the
    next precision where it used to stop; the tests check on every lift of
    the test and bench instances that each skipped precision raised
    PrecisionError.
    """
    k = consts.divisor_pows[0].xval()
    if not k:
        return None
    beta = consts.beta_pows[0]
    b = beta.xval()
    return prob.model.full_aprec - k + (beta.aprec if b is None else b)


def _lift_attempt(prob: JSetProblem, member: Member, target_digits: int) -> LiftResult:
    """One lift of a level-a class at the problem's model precision.

    From the congruence defect a' of X, beta has valuation a' - N/p^s, and
    Z -> (phi(X + [beta] Z) * B~ - [pi^N] X) / [pi^N * beta] is iterated
    from Z = 0 until X + [beta] Z is certified to ``target_digits``, one Witt
    level at a time (the p-adic digit induction).  ``_lift_constants`` keeps
    what depends only on the problem and a', ``JSetProblem.columns`` A~ and
    B~ cut to each level; X and [pi^N] X are cut once per level.  A step
    needs only phi(X + [beta] Z): the certificate of Z computes it for
    ``_residual`` and hands it to the next step, and the first step takes
    phi(X) from the start's residual.  Each step takes the xval of each
    component of the increment Z' - Z once: it decides whether the
    iteration is stationary and is kept for the trace, whose strings are
    made only when ``LiftResult.trace`` is read.

    One loop serves every level, in the arithmetic ``_level_ops`` picks:
    at level 1, the first of every lift and all of one at n = 1, the
    component-0 elements, and Witt vectors above.  As W_1(O_E) = O_E, each
    piece gives the coefficients and aprec of length-1 Witt vectors: a sum
    or difference is the elements', whose aprec is already the least of the
    inputs'; [beta] z is beta * z, the Frobenius c ** p; a matrix entry is
    ``_coeff_dot``'s, as ``_witt_dot`` forms it; [pi^N * beta] divides by
    pi^N * beta.  So the trace, refusals and result are the Witt vectors'.

    Before the first step, once a' and gamma are checked, the attempt
    bounds the precision of every residual it could certify by
    ``_residual_aprec_bound``; below the target it raises PrecisionError at
    once, without iterating.  A model below the target digits is refused
    before any work, as no residual is known beyond full precision.

    Raises PrecisionError when certification fails, or cannot succeed, at
    this precision (the caller retries at doubled precision),
    NonConvergenceError when the starting point is not a level-a solution or
    the budget runs out.
    """
    ring, model = prob.ring, prob.model
    p, n, d = prob.p, prob.n, prob.d
    target_x = model.m * target_digits
    if model.prec < target_digits:
        raise PrecisionError("model precision below the certification target")

    X = member_to_witt(prob, member)
    level_a_q = prob.quotient_level(prob.level_a)

    ops = _level_ops(ring, p, n, n == 1)
    Xn = tuple(map(ops.cut, X))
    phi_X = tuple(map(ops.frob, Xn))
    res = _residual(prob, ring, Xn, n, phi=phi_X, ops=ops)
    if all(_witt_vec_val_ge(ops.comps(entry), target_x) for entry in res):
        return LiftResult(prob, X, 0, None, None, target_digits, ())

    # congruence defect level a' (capped so the auxiliary monomial stays
    # inside the ring of integers of every Witt component)
    candidates = []
    for entry in res:
        for i, comp in enumerate(ops.comps(entry)):
            v = comp.valuation()
            bounded = isinstance(v, LowerBound)
            candidates.append(Fraction(v.value if bounded else v) / p ** i)
            if bounded and candidates[-1] <= level_a_q:
                raise PrecisionError(
                    "residual component vanished below the level-a threshold"
                )
    a_prime = min(*candidates, Fraction(model.e_norm, p ** (n - 1)))
    if a_prime <= level_a_q:
        raise NonConvergenceError(
            f"congruence defect {a_prime} does not exceed the level-a "
            f"threshold {level_a_q}: starting point is not a level-a solution"
        )

    # kept per problem and a': each Witt level takes a slice
    consts = _lift_constants(prob, ring, a_prime)
    beta_pows = consts.beta_pows
    n_over_ps = Fraction(prob.N, p ** prob.s)
    v_beta = a_prime - n_over_ps
    gamma = min(v_beta, (p - 1) * v_beta - n_over_ps)
    if gamma <= 0:
        raise NonConvergenceError("contraction gain is not positive")
    target_vk = Fraction(target_digits * model.e_norm)
    budget = int(-(-target_vk // gamma)) + 2
    bound = _residual_aprec_bound(prob, consts)
    if bound is not None and bound < target_x:
        raise PrecisionError(
            f"no iterate's residual is known beyond x-precision {bound} < {target_x}"
        )

    piNX = tuple(teichmuller_scale(ring, p, consts.pi_n, vec) for vec in X)
    steps = []
    # a level starts from the last one's Z with a zero component added; at
    # level 1 phi(X + [beta] * 0) is the start's phi(X), on elements
    Z, phi = ((),) * d, tuple(ops.comps(f)[0] for f in phi_X)
    for level in range(1, n + 1):
        ops = _level_ops(ring, p, level, level == 1)
        cut, add, sub, scale = ops.cut, ops.add, ops.sub, ops.scale
        Xl, piNXl = tuple(map(cut, X)), tuple(map(cut, piNX))
        B, parts = prob.columns(level)[1], consts.parts(level)
        Z = tuple(cut(vec + (model.zero(),)) for vec in Z)
        if phi is None:  # phi(X + [beta] Z)
            phi = tuple(ops.frob(add(x, scale(beta_pows, z))) for x, z in zip(Xl, Z))
        for it in range(1, budget + 1):
            # the step: only the Frobenius of the moved point enters
            Z_next = tuple(
                ops.div(sub(ops.dot(phi, col), x), parts) for col, x in zip(B, piNXl)
            )
            vals = tuple(
                (c.xval(), c.aprec)
                for z_next, z in zip(Z_next, Z)
                for c in ops.comps(sub(z_next, z))
            )
            Z = Z_next
            steps.append((level, it, vals))
            # the certificate of Y = X + [beta] Z, whose phi(Y) the next step takes
            Y = tuple(add(x, scale(beta_pows, z)) for x, z in zip(Xl, Z))
            phi = tuple(map(ops.frob, Y))
            r = _residual(prob, ring, Y, level, phi=phi, ops=ops)
            if all(_witt_vec_val_ge(ops.comps(entry), target_x) for entry in r):
                break
            if all(xv is None for xv, _ in vals):
                raise PrecisionError(
                    "iteration is stationary but the residual is not certified"
                )
        else:
            raise NonConvergenceError(
                f"no convergence within {budget} iterations at Witt level {level}"
            )
        Z, phi = tuple(map(ops.comps, Z)), None
    level_b_q = prob.quotient_level(prob.level_b)
    for y, x in zip(Y, Xl):
        if not ideal_membership_gt(ops.comps(sub(y, x)), level_b_q):
            raise AssertionError("lift strayed outside the level-b class")
    X_exact, iterations = tuple(map(ops.comps, Y)), max(it for _, it, _ in steps)
    return LiftResult(
        prob, X_exact, iterations, gamma, a_prime, target_digits, tuple(steps)
    )


@dataclass(frozen=True)
class InjectivityVerdict:
    equal: bool
    entry: int | None = None
    component: int | None = None
    valuation: Rat | None = None
    threshold: Rat | None = None


def injectivity_gap(prob: JSetProblem, X: tuple, Y: tuple) -> InjectivityVerdict:
    """Exact solutions agreeing modulo [a^{>b/p^s}] must be equal; distinct
    ones are reported with the first separating component and its valuation."""
    ring = prob.ring
    p = prob.p
    level_b_q = prob.quotient_level(prob.level_b)
    diffs = tuple(witt_sub(ring, p, X[i], Y[i]) for i in range(prob.d))
    if all(_witt_vec_is_zero(entry) for entry in diffs):
        return InjectivityVerdict(True)
    same_class = all(
        ideal_membership_gt(entry, level_b_q) for entry in diffs
    )
    if same_class:
        raise AssertionError(
            "distinct exact solutions in one level-b class violate injectivity"
        )
    for j, entry in enumerate(diffs):
        for i, comp in enumerate(entry):
            v = comp.valuation()
            if isinstance(v, LowerBound):
                continue
            threshold = level_b_q * p ** i
            if v <= threshold:
                return InjectivityVerdict(False, j, i, v, threshold)
    raise UndecidableError("no separating component resolved at this precision")


def exact_solution_set(
    prob: JSetProblem, target_digits: int = 6
) -> tuple[JSolutionSet, list[LiftResult]]:
    """Lift every level-a class; the lifts' level-b classes must be exactly
    the members of rho(J_a -> b), which is returned with the lifts."""
    level_a = jset_enumerate(prob, "a")
    lifts = [lift_solution(prob, member, target_digits) for member in level_a.members]
    image = rho_reduce(prob, level_a, "b")
    classes = {truncate_solution(lr.problem, lr.X, prob.level_b) for lr in lifts}
    if classes != set(image.members):
        raise AssertionError("the lifts' level-b classes are not the reduced image")
    return image, lifts
