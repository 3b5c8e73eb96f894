"""Workload definitions for the ramibound benchmark.

A workload is a list of calls.  Each call runs either the public CLI
(``ramibound.cli.main(argv)`` in-process, stdout and stderr captured) or the
documented library API, and renders its result as text.  Every execution is
compared byte for byte with the text recorded in ``expected/`` and then put
through independent checks that do not trust the recorded text: constants
known from the paper's worked instances, and invariants the output must
satisfy whatever its digits.

Call order and, for ``desk-sweep``, the calls themselves come from the
workload seed.  The desk-sweep pool is fixed and enumerated here, so its
expected outputs can be recorded once for every seed.

Library functions are looked up through their modules at call time, never
bound at import, so that the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")

WORKLOADS = ("enum-rank2", "lift-deg12", "desk-sweep", "witt-len2")

# Calls drawn from each desk-sweep category per seed.
SWEEP_DRAWS = {
    "bounds": 60,
    "nilpotency": 50,
    "grid": 50,
    "herbrand": 50,
    "tame-lift": 50,
    "kisin-height": 40,
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (library or expected outputs
    missing)."""


def import_library():
    """Import ramibound from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ramibound", "__init__.py")):
        raise SetupError(f"no ramibound package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ramibound
    from ramibound import bounds, cli, herbrand, kisin, padic, solver, witt

    where = os.path.dirname(os.path.abspath(ramibound.__file__))
    if os.path.dirname(where) != SRC:
        raise SetupError(f"ramibound was imported from {where}, not from {SRC}")
    return {
        "bounds": bounds,
        "cli": cli,
        "herbrand": herbrand,
        "kisin": kisin,
        "padic": padic,
        "solver": solver,
        "witt": witt,
        # the lru_cache object itself, kept apart from the traced name
        "universal_polys_cache": witt.universal_polys,
    }


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    exit: int | None  # None: the call raised
    text: str  # captured stdout, or the rendered API result
    error: str  # captured stderr or traceback
    raw: object = None  # API result, for the independent checks


@dataclass
class Call:
    key: str  # unique; the lookup key into expected/
    run: Callable[[], Outcome]
    checks: Callable[[Outcome], list]  # returns failure messages


def _cli_runner(lib, argv: list[str]) -> Callable[[], Outcome]:
    def run() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lib["cli"].main(list(argv))
        except Exception:  # a traceback is a failed call, not a crash of the run
            return Outcome(None, out.getvalue(), traceback.format_exc())
        return Outcome(code, out.getvalue(), err.getvalue())

    return run


def _api_runner(fn: Callable[[], object], render: Callable[[object], str]):
    def run() -> Outcome:
        try:
            raw = fn()
        except Exception:
            return Outcome(None, "", traceback.format_exc())
        return Outcome(0, render(raw), "", raw)

    return run


def cli_key(argv: list[str]) -> str:
    return "cli " + " ".join(argv)


def cli_call(lib, argv: list[str], checks=None) -> Call:
    return Call(cli_key(argv), _cli_runner(lib, argv), checks or (lambda o: []))


def _json(o: Outcome) -> object:
    return json.loads(o.text)


def _expect_fields(**want):
    """Independent check: named JSON fields equal known constants."""

    def check(o: Outcome) -> list:
        data = _json(o)
        return [
            f"{k} = {data.get(k)!r}, expected {v!r}"
            for k, v in want.items()
            if data.get(k) != v
        ]

    return check


# ---------------------------------------------------------------------------
# Fixed instances
# ---------------------------------------------------------------------------

README_BASE = ["--eisenstein", "3,1", "--n", "1", "--r", "1"]


def _binomial(m: int) -> str:
    """Model x^m + 3 in the CLI's ascending-coefficient syntax."""
    return ",".join(["3"] + ["0"] * (m - 1) + ["1"])


def enum_rank2(lib) -> list[Call]:
    swap = README_BASE + ["--matrix", ",0:1;1,", "--model", _binomial(6), "--s", "1"]
    return [
        cli_call(
            lib,
            ["jset"] + swap,
            _expect_fields(count=9, image_ab=1, splitting=False, T_size=9),
        ),
        cli_call(
            lib,
            ["solve-lift"] + swap + ["--digits", "5"],
            _expect_fields(level_a_classes=9, exact_solutions=1),
        ),
    ]


def lift_deg12(lib) -> list[Call]:
    u_mod = README_BASE + ["--matrix", "0:1", "--s", "1"]
    return [
        cli_call(
            lib,
            ["solve-lift"] + u_mod + ["--model", _binomial(12), "--digits", "12"],
            _expect_fields(level_a_classes=243, exact_solutions=3),
        ),
        cli_call(
            lib,
            ["solve-lift"] + u_mod + ["--model", _binomial(6), "--digits", "24"],
            _expect_fields(level_a_classes=27, exact_solutions=3),
        ),
    ]


def _poly_digest(up, polys) -> str:
    """Digest of the polynomials as (exponent vector, coefficient) pairs, so
    it does not depend on how the library packs exponents."""
    h = hashlib.sha256()
    for poly in polys:
        h.update(repr(sorted(up.exponent_dict(poly).items())).encode())
        h.update(b";")
    return h.hexdigest()


def _witt_symbolic(lib):
    witt = lib["witt"]
    # universal_polys is cached per (p, n) for the life of a process; every
    # CLI invocation pays for it once, so each timed call starts cold.
    lib["universal_polys_cache"].cache_clear()
    up = witt.universal_polys(5, 4)
    return up, witt.ghost_identity_holds_symbolically(5, 4)


def _render_witt_symbolic(raw) -> str:
    up, identity = raw
    return json.dumps(
        {
            "p": up.p,
            "n": up.n,
            "sum_terms": [len(s) for s in up.sums],
            "prod_terms": [len(s) for s in up.prods],
            "sums_sha256": _poly_digest(up, up.sums),
            "prods_sha256": _poly_digest(up, up.prods),
            "ghost_identity": identity,
        },
        indent=2,
    ) + "\n"


def _check_witt_symbolic(o: Outcome) -> list:
    up, identity = o.raw
    out = []
    if identity is not True:
        out.append("ghost identity does not hold for (p, n) = (5, 4)")
    if (up.p, up.n, len(up.sums), len(up.prods)) != (5, 4, 4, 4):
        out.append("universal polynomials have the wrong shape")
    return out


X_SOL = (tuple([0, 1] + [0] * 25), tuple([0, 0, 0, 1] + [0] * 23))  # (x, x^3)
X_PERTURB = (tuple([0] * 6 + [1] + [0] * 20), tuple([0] * 15 + [1] + [0] * 11))


def _len2_lift(lib):
    """The length-2 Witt lift: phi(e) = u^2 e over x^27 + 3 at s = 3."""
    padic, kisin, solver, witt = lib["padic"], lib["kisin"], lib["solver"], lib["witt"]
    E = padic.eisenstein_validate((3, 1), 3)
    mod = kisin.kisin_new(3, 2, E, [[(0, 0, 1)]], r_hint=3)
    g = padic.eisenstein_validate((3,) + (0,) * 26 + (1,), 3)
    model = padic.LocalFieldModel(g, 16, e_norm=1)
    prob = solver.build_jset_problem(mod, model, s=3, r=3)
    exact = solver.lift_solution(prob, (X_SOL,), target_digits=6)
    ring = witt.LocalRing(model)
    xe = solver.member_to_witt(prob, (X_SOL,))
    w = solver.member_to_witt(prob, (X_PERTURB,))
    start = (tuple(c.coeffs for c in witt.witt_add(ring, 3, xe[0], w[0])),)
    lifted = solver.lift_solution(prob, start, target_digits=6)
    return prob, exact, start, lifted


def _render_len2_lift(raw) -> str:
    prob, exact, _, lifted = raw
    return json.dumps(
        {
            "N": prob.N,
            "a": str(prob.level_a),
            "exact_start_iterations": exact.iterations,
            "iterations": lifted.iterations,
            "gamma": str(lifted.gamma),
            "model_prec": lifted.problem.model.prec,
            "X": [[list(c.coeffs) for c in vec] for vec in lifted.X],
        },
        indent=2,
    ) + "\n"


def _check_len2_lift(lib):
    def check(o: Outcome) -> list:
        solver, witt = lib["solver"], lib["witt"]
        prob, exact, start, lifted = o.raw
        out = []
        if prob.N != 3 or prob.level_a != Fraction(9, 2):
            out.append("length-2 problem constants changed")
        if exact.iterations != 0:
            out.append("the exact solution (x, x^3) did not stay fixed")
        if lifted.iterations < 1:
            out.append("the perturbed start needed no iteration")
        ring = witt.LocalRing(lifted.problem.model)
        xe = solver.member_to_witt(lifted.problem, (X_SOL,))
        for comp in witt.witt_sub(ring, 3, lifted.X[0], xe[0]):
            v = comp.valuation()
            if getattr(v, "value", v) < 6:
                out.append(f"lift differs from (x, x^3) at valuation {v}")
        start_x = solver.member_to_witt(lifted.problem, start)
        b = prob.level_b
        if solver.truncate_solution(lifted.problem, lifted.X, b) != (
            solver.truncate_solution(lifted.problem, start_x, b)
        ):
            out.append("lift left the level-b class of its start")
        return out

    return check


def witt_len2(lib) -> list[Call]:
    jset_trivial = ["jset", "--eisenstein", "3,1", "--n", "2", "--r", "1",
                    "--matrix", "1", "--c", "b"]
    split = _expect_fields(count=9, image_ab=9, splitting=True, T_size=9)
    return [
        Call(
            "api universal_polys(5,4) + ghost_identity_holds_symbolically(5,4)",
            _api_runner(lambda: _witt_symbolic(lib), _render_witt_symbolic),
            _check_witt_symbolic,
        ),
        cli_call(lib, jset_trivial + ["--model", _binomial(9), "--s", "2"], split),
        cli_call(
            lib,
            jset_trivial + ["--model", _binomial(27), "--s", "3", "--prec", "16"],
            split,
        ),
        Call(
            "api length-2 Witt lift (n=2, s=3, x^27+3)",
            _api_runner(lambda: _len2_lift(lib), _render_len2_lift),
            _check_len2_lift(lib),
        ),
    ]


# ---------------------------------------------------------------------------
# desk-sweep: a fixed pool of small calls; the seed draws from it
# ---------------------------------------------------------------------------

SHAPES = ("uep-minus", "uep-plus", "mixed")
SMALL = range(1, 5)


def shape_poly(shape: str, p: int, e: int) -> tuple[int, ...]:
    """The grid's Eisenstein shapes (as in ``ramibound grid``)."""
    if shape == "uep-minus":
        return (-p,) + (0,) * (e - 1) + (1,)
    if shape == "uep-plus":
        return (p,) + (0,) * (e - 1) + (1,)
    if e == 1:
        return (2 * p, 1)
    return (p,) + (0,) * (e - 2) + (p, 1)


def poly_arg(coeffs) -> list[str]:
    """``--eisenstein`` argument.  A negative constant term needs the ``=``
    form: argparse takes ``-3,0,1`` for an option and exits 2."""
    text = ",".join(str(c) for c in coeffs)
    if coeffs[0] < 0:
        return [f"--eisenstein={text}"]
    return ["--eisenstein", text]


def _closed_form_checks(data: dict, e: int, n: int, r: int, exact_key: str) -> list:
    out = []
    exact = data[exact_key]
    for k in ("ern", "ceil", "uep", "general"):
        v = data.get(k)
        if v is not None and not exact <= v:
            out.append(f"exact index {exact} exceeds closed form {k} = {v}")
    if n == 1 and exact != e * r:
        out.append(f"exact index {exact} != e*r = {e * r} at n = 1")
    return out


def _check_bounds(e: int, n: int, r: int, exact: bool):
    def check(o: Outcome) -> list:
        d = _json(o)
        out = []
        if Fraction(d["conj13_mu"]) > Fraction(d["thm12_mu"]):
            out.append("conj13_mu exceeds thm12_mu")
        if Fraction(d["conj13_diff"]) > Fraction(d["thm12_diff"]):
            out.append("conj13_diff exceeds thm12_diff")
        if exact and n == 1 and d["N"] != e * r:
            out.append(f"exact N = {d['N']} != e*r at n = 1")
        if not exact and d["N"] != e * r * n:
            out.append("closed-form N is not e*r*n")
        return out

    return check


def _check_nilpotency(e: int, n: int, r: int):
    return lambda o: _closed_form_checks(_json(o), e, n, r, "exact")


def _check_grid(e: int, n: int, r: int):
    def check(o: Outcome) -> list:
        rows = _json(o)
        if len(rows) != 1:
            return [f"grid returned {len(rows)} rows, expected 1"]
        row = rows[0]
        out = _closed_form_checks(row, e, n, r, "exact_N")
        for k in ("bounds_ok", "conj_le_thm"):
            if row[k] is not True:
                out.append(f"{k} is {row[k]!r}")
        return out

    return check


def _check_true(*keys):
    def check(o: Outcome) -> list:
        d = _json(o)
        return [f"{k} is {d.get(k)!r}" for k in keys if d.get(k) is not True]

    return check


def _herbrand_pool(rng: random.Random) -> list[tuple[str, int]]:
    orders = (2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 27, 36)
    pool = set()
    while len(pool) < 120:
        order = rng.choice(orders)
        divisors = [d for d in range(order - 1, 1, -1) if order % d == 0]
        chain = [order] + sorted(
            rng.sample(divisors, rng.randint(0, min(3, len(divisors)))),
            reverse=True,
        )
        lam, parts = Fraction(0), []
        for card in chain:
            lam += Fraction(rng.randint(1, 6), rng.choice((1, 1, 2, 3, 4)))
            parts.append(f"{lam}:{card}")
        pool.add((",".join(parts), order))
    return sorted(pool)


def _tame_pool(rng: random.Random) -> list[tuple[int, tuple[int, ...]]]:
    # p^d stays below 1000: the character oracle walks all p^d starts
    spans = ((3, 6), (5, 4), (7, 3))
    pool = set()
    while len(pool) < 150:
        p, dmax = rng.choice(spans)
        d = rng.randint(1, dmax)
        pool.add((p, tuple(rng.randrange(p) for _ in range(d))))
    return sorted(pool)


def _poly_mul_mod(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _matrix_text(rows) -> str:
    return ";".join(
        ",".join(":".join(str(c) for c in ent) if ent else "0" for ent in row)
        for row in rows
    )


# At the default u-precision (e*r*n + e*r + 8), 27 of the 120 pool matrices
# are refused with exit 4 (see NOTES.md); 40 certifies all of them.
KISIN_UPREC = "40"


def _kisin_pool(rng: random.Random) -> list[tuple[tuple, int, int, str]]:
    """Matrices U * diag(f_i) with U unit upper triangular; f_i is a power of
    E (a height witness exists) or of u (it may not)."""
    Es = ((3, 1), (-3, 0, 1), (3, 3, 1))
    pool = set()
    while len(pool) < 120:
        E = rng.choice(Es)
        n, r, d = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 3)
        q = 3 ** n
        diag = []
        for _ in range(d):
            k = rng.randint(0, r)
            base = (0, 1) if rng.random() < 0.2 else tuple(c % q for c in E)
            f = (1,)
            for _ in range(k):
                f = _poly_mul_mod(f, base, q)
            diag.append(f)
        rows = []
        for i in range(d):
            row = []
            for j in range(d):
                if j < i:
                    row.append(())
                    continue
                u_ij = (1,) if i == j else tuple(
                    rng.randrange(q) for _ in range(rng.randint(0, 2))
                )
                row.append(_poly_mul_mod(u_ij, diag[j], q) if u_ij else ())
            rows.append(row)
        pool.add((E, n, r, _matrix_text(rows)))
    return sorted(pool)


def sweep_pool(lib) -> dict[str, list[Call]]:
    """Every call desk-sweep can draw, by category, in a fixed order."""
    pool: dict[str, list[Call]] = {k: [] for k in SWEEP_DRAWS}
    for p in (3, 5, 7):
        for e in SMALL:
            for n in SMALL:
                for r in SMALL:
                    nr = ["--n", str(n), "--r", str(r)]
                    pool["bounds"].append(cli_call(
                        lib, ["bounds", "--p", str(p), "--e", str(e)] + nr,
                        _check_bounds(e, n, r, exact=False)))
                    for shape in SHAPES:
                        E = shape_poly(shape, p, e)
                        pool["bounds"].append(cli_call(
                            lib, ["bounds", "--p", str(p)] + poly_arg(E) + nr,
                            _check_bounds(e, n, r, exact=True)))
                        pool["nilpotency"].append(cli_call(
                            lib, ["nilpotency", "--p", str(p)] + poly_arg(E) + nr,
                            _check_nilpotency(e, n, r)))
                        pool["grid"].append(cli_call(
                            lib, ["grid", "--p", str(p), "--e", str(e), "--n", str(n),
                                  "--r", str(r), "--shapes", shape],
                            _check_grid(e, n, r)))
    rng = random.Random(20080527)  # fixes the pool, not the draw
    for filt, order in _herbrand_pool(rng):
        pool["herbrand"].append(cli_call(
            lib, ["herbrand", "--filtration", filt, "--order", str(order)],
            _check_true("concave")))
    for p, seq in _tame_pool(rng):
        pool["tame-lift"].append(cli_call(
            lib, ["tame-lift", "--p", str(p), "--seq", ",".join(map(str, seq))],
            _check_true("agree")))
    for E, n, r, text in _kisin_pool(rng):
        pool["kisin-height"].append(cli_call(
            lib, ["kisin-height"] + poly_arg(E)
            + ["--n", str(n), "--r", str(r), "--uprec", KISIN_UPREC, "--matrix", text]))
    return pool


def desk_sweep(lib, rng: random.Random) -> list[Call]:
    pool = sweep_pool(lib)
    return [c for cat, k in SWEEP_DRAWS.items() for c in rng.sample(pool[cat], k)]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def build_calls(lib, name: str, seed: int) -> list[Call]:
    """The workload's calls in the order the seed gives them."""
    rng = random.Random(seed)
    if name == "desk-sweep":
        calls = desk_sweep(lib, rng)
    else:
        calls = {"enum-rank2": enum_rank2, "lift-deg12": lift_deg12,
                 "witt-len2": witt_len2}[name](lib)
    rng.shuffle(calls)
    return calls


def expected_path(name: str) -> str:
    return os.path.join(EXPECTED_DIR, f"{name}.jsonl")


def load_expected(name: str) -> dict[str, tuple[int, str]]:
    path = expected_path(name)
    if not os.path.isfile(path):
        raise SetupError(f"missing expected outputs {path}")
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            out[rec["key"]] = (rec["exit"], rec["stdout"])
    return out


@dataclass
class Workload:
    name: str
    seed: int
    lib: dict
    calls: list[Call]
    expected: dict[str, tuple[int, str]]

    def verify(self, call: Call, o: Outcome) -> list:
        """Failure messages for one execution; empty when it is correct."""
        if o.exit is None:
            return ["raised: " + o.error.strip().splitlines()[-1]]
        want_exit, want_text = self.expected[call.key]
        if o.exit != want_exit:
            return [f"exit {o.exit}, expected {want_exit}: {o.error.strip()}"]
        if o.text != want_text:
            return ["output differs from the recorded output"]
        try:
            return call.checks(o)
        except (KeyError, TypeError, ValueError) as exc:
            return [f"independent check could not read the output: {exc!r}"]


def setup(name: str, seed: int) -> Workload:
    """Import the library, generate the workload's inputs, load the expected
    outputs.  Everything before the first timed call."""
    if name not in WORKLOADS:
        raise SetupError(f"unknown workload {name!r}")
    lib = import_library()
    calls = build_calls(lib, name, seed)
    expected = load_expected(name)
    missing = [c.key for c in calls if c.key not in expected]
    if missing:
        raise SetupError(f"{len(missing)} calls have no recorded output, e.g. {missing[0]}")
    return Workload(name, seed, lib, calls, expected)
