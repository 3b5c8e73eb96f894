"""Herbrand transition functions on concave piecewise-linear data.

A ramification filtration in the lower numbering determines a continuous,
increasing, piecewise-affine bijection of [0, oo); composing, inverting and
evaluating these functions is exact on rational breakpoints.  The module also
carries the bound on the last upper break derived from an algebra-lifting
property, the different bookkeeping for Kummer towers, and the assembly that
combines them into the headline discriminant and upper-break bounds.

Lower-numbering convention: G_(lam) = {sigma : v(sigma(x) - x) >= lam for all
x in the ring of integers of the top field}, with v normalized so the top
field's uniformizer has valuation 1.  This shifts by one against the classic
normalization; the transition function is normalized by Card G_(1), so a
tamely ramified extension has last upper break exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bounds import alpha_beta
from .errors import InputError
from .padic import Rat


@dataclass(frozen=True)
class PLF:
    """Increasing piecewise-linear function on [0, oo) with f(0) = 0.

    ``breaks`` lists the vertices (x_i, y_i) starting at (0, 0);
    ``final_slope`` rules beyond the last vertex.  Slopes must be positive;
    concavity is a property of transition functions, not of every PLF (an
    inverse of a concave one is convex), so it is checked separately.
    """

    breaks: tuple[tuple[Rat, Rat], ...]
    final_slope: Rat

    def __post_init__(self) -> None:
        if not self.breaks or self.breaks[0] != (0, 0):
            raise InputError("piecewise-linear function must start at (0, 0)")
        if self.final_slope <= 0:
            raise InputError("slopes must be positive")
        for (x0, y0), (x1, y1) in zip(self.breaks, self.breaks[1:]):
            if x1 <= x0:
                raise InputError("breakpoints must be strictly increasing")
            if y1 <= y0:
                raise InputError("function must be increasing")

    def slopes(self) -> list[Rat]:
        out = []
        for (x0, y0), (x1, y1) in zip(self.breaks, self.breaks[1:]):
            out.append(Fraction(y1 - y0, x1 - x0))
        out.append(Fraction(self.final_slope))
        return out

    def is_concave(self) -> bool:
        s = self.slopes()
        return all(a >= b for a, b in zip(s, s[1:]))

    def __call__(self, x: Rat) -> Rat:
        x = Fraction(x)
        if x < 0:
            raise InputError("domain is [0, oo)")
        prev_x, prev_y = self.breaks[0]
        for bx, by in self.breaks[1:]:
            if x <= bx:
                return prev_y + (x - prev_x) * Fraction(by - prev_y, bx - prev_x)
            prev_x, prev_y = bx, by
        return prev_y + (x - prev_x) * self.final_slope


def normalize_plf(breaks, final_slope) -> PLF:
    """Merge collinear segments so structurally equal means pointwise equal."""
    pts = sorted({(Fraction(x), Fraction(y)) for x, y in breaks})
    if not pts or pts[0] != (0, 0):
        pts = [(Fraction(0), Fraction(0))] + [p for p in pts if p != (0, 0)]
    final_slope = Fraction(final_slope)
    out: list[tuple[Rat, Rat]] = []
    for pt in pts:
        while len(out) >= 2:
            (x0, y0), (x1, y1) = out[-2], out[-1]
            s1 = Fraction(y1 - y0, x1 - x0)
            s2 = Fraction(pt[1] - y1, pt[0] - x1)
            if s1 == s2:
                out.pop()
            else:
                break
        out.append(pt)
    while len(out) >= 2:
        (x0, y0), (x1, y1) = out[-2], out[-1]
        if Fraction(y1 - y0, x1 - x0) == final_slope:
            out.pop()
        else:
            break
    return PLF(tuple(out), final_slope)


def identity_plf() -> PLF:
    return PLF(((Fraction(0), Fraction(0)),), Fraction(1))


def psi(f: PLF) -> PLF:
    """Inverse function; exact because f is an increasing bijection."""
    return normalize_plf(
        tuple((y, x) for x, y in f.breaks), Fraction(1) / Fraction(f.final_slope)
    )


def compose(f: PLF, g: PLF) -> PLF:
    """f o g, with breakpoints at g's vertices and at g-preimages of f's."""
    xs = {x for x, _ in g.breaks}
    g_inv = psi(g)
    for fx, _ in f.breaks:
        xs.add(g_inv(fx))
    pts = tuple((x, f(g(x))) for x in sorted(xs))
    return normalize_plf(pts, Fraction(f.final_slope) * Fraction(g.final_slope))


# ---------------------------------------------------------------------------
# Filtrations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerFiltration:
    """Lower-numbering ramification data: the group order and the strictly
    increasing breaks (lam_j, order after lam_j), ending with order 1."""

    order: int
    breaks: tuple[tuple[Rat, int], ...]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise InputError("group order must be positive")
        if self.order == 1:
            if self.breaks:
                raise InputError("trivial group has no breaks")
            return
        if not self.breaks:
            raise InputError("nontrivial filtration must reach order 1")
        prev_lam, prev_ord = Fraction(0), self.order
        for lam, o in self.breaks:
            lam = Fraction(lam)
            if lam <= prev_lam:
                raise InputError("breaks must be strictly increasing and positive")
            if not 1 <= o < prev_ord:
                raise InputError("orders must strictly decrease")
            if self.order % o:
                raise InputError("orders must divide the group order")
            prev_lam, prev_ord = lam, o
        if self.breaks[-1][1] != 1:
            raise InputError("filtration must end at the trivial subgroup")

    def card_at(self, t: Rat) -> int:
        """Card G_(t); the step function is left-continuous at breaks."""
        t = Fraction(t)
        card = self.order
        for lam, o in self.breaks:
            if t <= Fraction(lam):
                return card
            card = o
        return card

    def last_break(self) -> Rat:
        if not self.breaks:
            return Fraction(0)
        return Fraction(self.breaks[-1][0])


def phi_from_filtration(filt: LowerFiltration) -> PLF:
    """Integrate Card G_(t) / Card G_(1); slopes are exact rationals and the
    result is concave."""
    denom = filt.card_at(Fraction(1))
    pts = [(Fraction(0), Fraction(0))]
    x_prev, y_prev = Fraction(0), Fraction(0)
    card = filt.order
    for lam, o in filt.breaks:
        lam = Fraction(lam)
        y = y_prev + (lam - x_prev) * Fraction(card, denom)
        pts.append((lam, y))
        x_prev, y_prev, card = lam, y, o
    out = normalize_plf(pts, Fraction(card, denom))
    if not out.is_concave():
        raise AssertionError("transition function of a filtration must be concave")
    return out


def last_breaks(filt: LowerFiltration) -> tuple[Rat, Rat]:
    """(last lower break, last upper break) of the filtration."""
    phi = phi_from_filtration(filt)
    lam = filt.last_break()
    return lam, phi(lam)


# ---------------------------------------------------------------------------
# Bound plumbing
# ---------------------------------------------------------------------------


def mu_transitivity(mu_nk: Rat, mu_fn: Rat, phi_nk: PLF) -> Rat:
    """Last upper break of a tower: max(mu_{N/K}, phi_{N/K}(mu_{F/N}))."""
    return max(Fraction(mu_nk), phi_nk(Fraction(mu_fn)))


def fontaine_mu_bound(m: Rat, e_nk: int, e_fn: int, wild: bool = False) -> Rat:
    """Upper bound e_{N/K} * m + 1/e_{F/N} on the last upper break granted by
    the algebra-lifting property at radius m.

    With ``wild`` set, the extension is wildly ramified, so e_{F/N} times the
    break lies in p*Z and the fractional 1/e_{F/N} term can be rounded away,
    leaving e_{N/K} * m.
    """
    m = Fraction(m)
    if m <= 0:
        raise InputError("radius must be positive")
    if wild:
        return e_nk * m
    return e_nk * m + Fraction(1, e_fn)


def kummer_different(p: int, e: int, s: int) -> Rat:
    """v_K of the different of the degree-p^s Kummer layer: differentiating
    the minimal polynomial of a p^s-th root of the uniformizer gives
    1 + e*s - 1/p^s; the s = 0 layer is trivial."""
    if s < 0:
        raise InputError("level must be nonnegative")
    if s == 0:
        return Fraction(0)
    return 1 + e * s - Fraction(1, p ** s)


def cyclotomic_kummer_mu(p: int, e: int, s: int) -> Rat:
    """Last upper break of the compositum of the level-s Kummer layer with the
    level-s cyclotomic layer (known input, not recomputed here)."""
    return 1 + e * (s + Fraction(1, p - 1))


def cyclotomic_kummer_phi_estimate(p: int, e: int, s: int, e_nk: int, lam: Rat) -> Rat:
    """Concavity estimate for the transition function of that compositum:
    it is affine of slope 1/e_{N/K} after its last lower break, which is at
    least e_{N/K} * (e/(p-1) + 1/p^s)."""
    lam_break = e_nk * (Fraction(e, p - 1) + Fraction(1, p ** s))
    mu_break = cyclotomic_kummer_mu(p, e, s)
    est = mu_break + Fraction(lam - lam_break, e_nk)
    simplified = 1 + e * s + Fraction(lam, e_nk) - Fraction(1, p ** s)
    if est != simplified:
        raise AssertionError("concavity estimate disagrees with its simplified form")
    return est


def thm12_assembly(p: int, e: int, n: int, r: int, N: int) -> tuple[Rat, Rat]:
    """Reassemble the discriminant and upper-break bounds from their proof
    ingredients: Kummer-layer different, lifting-radius bound with the wild
    rounding, the known compositum break, the concavity estimate, and the
    tower transitivity formula.  Returns (mu, diff); both must match the
    closed forms reported by the bounds module when N = e*r*n."""
    alpha, beta = alpha_beta(Fraction(N, e * (p - 1)), p)
    s = n + alpha
    a_level = Fraction(p * N, p - 1)
    radius = a_level * Fraction(1, p ** (s - n + 1))

    # the lifting property at radius m bounds v_K of the different by m
    diff = kummer_different(p, e, s) + Fraction(radius)

    e_nk = p ** s * (p - 1)  # any positive value; it cancels in the estimate
    mu_wild = fontaine_mu_bound(radius, e_nk, e_fn=1, wild=True)
    candidate = cyclotomic_kummer_phi_estimate(p, e, s, e_nk, mu_wild)
    exact_max = max(cyclotomic_kummer_mu(p, e, s), candidate)
    mu = 1 + e * (s + max(beta, Fraction(1, p - 1)))
    if exact_max > mu:
        raise AssertionError("assembled pieces must stay under the closed form")
    return mu, diff
