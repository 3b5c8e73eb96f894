"""Command-line front end with deterministic, machine-readable reports.

Every subcommand prints one JSON document (or TSV with --format tsv) built
from insertion-ordered dicts, so identical invocations produce byte-identical
output.  ``json`` writes each value it cannot encode as its ``str``, so
rationals are reduced "num/den" strings and integers bare.  Exit codes: 0
success, 2 invalid input, 3 enumeration cap exceeded, 4 non-convergence or
precision exhaustion.

The parser is built from the ``COMMANDS`` table on the first ``main`` call
and reused by later calls.  Parsing never changes it and every call reads
--cap and RAMIBOUND_CAP afresh, so no state carries over between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

from . import bounds as bounds_mod
from . import herbrand as herbrand_mod
from . import kisin as kisin_mod
from . import solver as solver_mod
from .errors import (
    CapExceededError,
    InputError,
    NonConvergenceError,
    NotHeightError,
    PrecisionError,
    RamiboundError,
    UndecidableError,
)
from .padic import LocalFieldModel, eisenstein_validate, is_odd_prime, parse_poly
from .padic import odd_prime_factors, parse_rat

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_NUMERIC = 4


def emit_report(report, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, default=str) + "\n"
    if fmt == "tsv":
        rows = report if isinstance(report, list) else [report]
        if not rows:
            return "\n"
        keys = list(rows[0].keys())
        def cell(v):
            if v is None:
                return ""
            if isinstance(v, (dict, list, tuple)):
                return json.dumps(v, separators=(",", ":"), default=str)
            return str(v)
        lines = ["\t".join(keys)]
        for row in rows:
            lines.append("\t".join(cell(row.get(k)) for k in keys))
        return "\n".join(lines) + "\n"
    raise InputError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Shared argument parsing
# ---------------------------------------------------------------------------


def _check_prime(p: int) -> int:
    if not is_odd_prime(p):
        raise InputError(f"p must be an odd prime, got {p}")
    return p


def _infer_prime(args) -> int:
    """Use --p when given; otherwise read the prime off the Eisenstein
    polynomial, provided exactly one odd prime makes it Eisenstein.  Such a
    prime divides every coefficient below the leading one."""
    if args.p is not None:
        return _check_prime(args.p)
    if args.eisenstein is None:
        raise InputError("--p is required when no Eisenstein polynomial is given")
    coeffs = parse_poly(args.eisenstein)
    try:
        primes = odd_prime_factors(math.gcd(*coeffs[:-1]))
    except InputError as exc:
        raise InputError(f"{exc}; pass --p") from None
    candidates = []
    for q in primes:
        try:
            eisenstein_validate(coeffs, q)
            candidates.append(q)
        except InputError:
            pass
    if len(candidates) == 1:
        return candidates[0]
    raise InputError(
        "cannot infer an unambiguous odd prime from the polynomial; pass --p"
    )


def _parse_matrix(text: str, p: int, n: int):
    """Rows separated by ';', entries by ',', u-coefficients by ':'."""
    q = p ** n
    rows = []
    for row_text in text.split(";"):
        row = []
        for ent in row_text.split(","):
            ent = ent.strip()
            if not ent:
                row.append(())
                continue
            try:
                coeffs = tuple(int(c) % q for c in ent.split(":"))
            except ValueError as exc:
                raise InputError(f"bad matrix entry {ent!r}: {exc}") from None
            row.append(coeffs)
        rows.append(row)
    return rows


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad integer list {text!r}: {exc}") from None


def _eisenstein_from_args(args, p: int):
    if args.eisenstein is None:
        return None
    E = eisenstein_validate(parse_poly(args.eisenstein), p)
    if getattr(args, "e", None) not in (None,) and args.e != E.e:
        raise InputError(
            f"--e {args.e} contradicts the Eisenstein polynomial degree {E.e}"
        )
    return E


def _default_cap(args) -> int:
    """--cap when given, else RAMIBOUND_CAP when set, else the default; a cap
    below 1 is refused."""
    if args.cap is not None:
        cap, source = args.cap, "--cap"
    else:
        env = os.environ.get("RAMIBOUND_CAP")
        if not env:
            return solver_mod.DEFAULT_CAP
        try:
            cap = int(env)
        except ValueError as exc:
            raise InputError(f"bad RAMIBOUND_CAP: {exc}") from None
        source = "RAMIBOUND_CAP"
    if cap < 1:
        raise InputError(f"{source} must be at least 1, got {cap}")
    return cap


def _module(args, uprec=None):
    """The Kisin module of --eisenstein and --matrix over the given or
    inferred prime, at ``uprec`` or the default u-precision for --r."""
    p = _infer_prime(args)
    E = _eisenstein_from_args(args, p)
    if E is None:
        raise InputError("--eisenstein is required for this command")
    if args.matrix is None:
        raise InputError("--matrix is required for this command")
    matrix = _parse_matrix(args.matrix, p, args.n)
    return kisin_mod.kisin_new(
        p, args.n, E, matrix, uprec=uprec, r_hint=max(args.r, 1)
    )


def _build_problem(args):
    module = _module(args)
    if args.model is None:
        raise InputError("--model is required for this command")
    g = eisenstein_validate(parse_poly(args.model), module.p)
    model = LocalFieldModel(g, args.prec, e_norm=module.E.e)
    return solver_mod.build_jset_problem(
        module,
        model,
        args.s,
        args.r,
        N=args.N,
        cap=_default_cap(args),
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_bounds(args) -> dict:
    p = _infer_prime(args)
    E = _eisenstein_from_args(args, p)
    e = E.e if E is not None else args.e
    if e is None:
        raise InputError("either --e or --eisenstein is required")
    N, prov = args.N, None
    if N is not None:
        prov = "explicit"
    elif E is not None:
        N = bounds_mod.exact_nilpotency_index(E, args.n, args.r)
        prov = "exact-brute-force"
    report = bounds_mod.ramification_report(p, e, args.n, args.r, N, prov)
    return report.as_dict()


def cmd_nilpotency(args) -> dict:
    p = _infer_prime(args)
    E = _eisenstein_from_args(args, p)
    if E is None:
        raise InputError("--eisenstein is required")
    return bounds_mod.nilpotency_summary(E, args.n, args.r)


def _parse_filtration(text: str, order: int) -> herbrand_mod.LowerFiltration:
    """'lam:card' pairs where card rules the segment ending at lam; the first
    card must be the full group order."""
    entries = []
    for part in text.split(","):
        try:
            lam_text, card_text = part.split(":")
            card = int(card_text)
        except ValueError:
            raise InputError(
                f"bad filtration segment {part!r}: expected 'lam:card'"
            ) from None
        entries.append((parse_rat(lam_text.strip(), "rational"), card))
    if entries[0][1] != order:
        raise InputError("first segment order must equal the group order")
    breaks = []
    for i in range(len(entries) - 1):
        breaks.append((entries[i][0], entries[i + 1][1]))
    if entries[-1][1] > 1:
        breaks.append((entries[-1][0], 1))
    return herbrand_mod.LowerFiltration(order, tuple(breaks))


def cmd_herbrand(args) -> dict:
    filt = _parse_filtration(args.filtration, args.order)
    phi = herbrand_mod.phi_from_filtration(filt)
    lam = filt.last_break()
    return {
        "order": filt.order,
        "breaks": [[b, o] for b, o in filt.breaks],
        "phi_breakpoints": [[x, y] for x, y in phi.breaks],
        "phi_final_slope": phi.final_slope,
        "concave": phi.is_concave(),
        "last_lower_break": lam,
        "last_upper_break": phi(lam),
    }


def cmd_tame_lift(args) -> dict:
    p = _check_prime(args.p)
    seq = _parse_int_list(args.seq)
    d = len(seq)
    spec = kisin_mod.tame_lift_build(p, d, seq, n=args.n)
    oracle = kisin_mod.tame_character_oracle(p, d, seq)
    return {
        "p": p,
        "period": d,
        "seq": seq,
        "matrix": spec.module.entries,
        "filtration": spec.filtration_jumps,
        "filtered_frobenius": spec.filtered_frobenius,
        "height": spec.height,
        "exponent": spec.exponent,
        "oracle_exponent": oracle.exponent,
        "agree": spec.exponent == oracle.exponent,
        "oracle_field_modulus": oracle.field_modulus,
    }


def cmd_kisin_height(args) -> dict:
    """The witnesses of ``kisin.witnesses``: without --uprec, a precision
    refusal is retried at twice the u-precision, up to
    ``kisin.UPREC_DOUBLINGS`` times; an explicit --uprec is used as given."""
    module = _module(args, args.uprec)
    out = {
        "p": module.p,
        "n": args.n,
        "e": module.E.e,
        "r": args.r,
        "rank": module.rank,
    }
    doublings = 0 if args.uprec is not None else kisin_mod.UPREC_DOUBLINGS
    try:
        wit, N, wu = kisin_mod.witnesses(module, args.r, args.N, doublings)
    except NotHeightError as exc:
        out["has_height_witness"] = False
        out["reason"] = str(exc)
        return out
    out["has_height_witness"] = True
    out["B"] = wit.B
    out["verified_uprec"] = wit.uprec
    out["N"] = N
    out["B_u_power"] = wu.B
    return out


def cmd_jset(args) -> dict:
    prob = _build_problem(args)
    level = solver_mod.resolve_level(prob, args.c if args.c else "a")
    sol = solver_mod.jset_enumerate(prob, level)
    out = {
        "p": prob.p,
        "n": prob.n,
        "rank": prob.d,
        "s": prob.s,
        "r": prob.r,
        "N": prob.N,
        "a": prob.level_a,
        "b": prob.level_b,
        "level": level,
        "count": sol.order,
    }
    if level >= prob.level_b:
        image = solver_mod.rho_reduce(prob, sol, "b")
        out["count_b"] = solver_mod.jset_enumerate(prob, "b").order
        out["image_ab"] = image.order
        out["T_size"] = prob.p ** (prob.n * prob.d)
        out["splitting"] = image.order == out["T_size"]
    return out


def cmd_solve_lift(args) -> dict:
    if args.digits < 1:
        raise InputError(f"--digits must be at least 1, got {args.digits}")
    prob = _build_problem(args)
    classes = solver_mod.jset_enumerate(prob, "a")
    exact, lifts = solver_mod.exact_solution_set(prob, target_digits=args.digits)
    gammas = [lr.gamma for lr in lifts if lr.gamma is not None]
    out = {
        "p": prob.p,
        "n": prob.n,
        "s": prob.s,
        "N": prob.N,
        "a": prob.level_a,
        "b": prob.level_b,
        "level_a_classes": len(classes),
        "exact_solutions": len(exact),
        "iterations_max": max((lr.iterations for lr in lifts), default=0),
        "gamma_min": min(gammas) if gammas else None,
        "certified_digits": args.digits,
        "all_residuals_zero_mod": f"p^{args.digits}",
    }
    if args.trace:
        out["lifts"] = [
            {
                "member": member,
                "iterations": lr.iterations,
                "gamma": lr.gamma,
                "congruence_defect": lr.a_prime,
                "residual_vp_at_least": lr.certified_digits,
                "trace": [
                    {"witt_level": lv, "iteration": it, "increment_vals": vals}
                    for lv, it, vals in lr.trace
                ],
            }
            for member, lr in zip(classes.members, lifts)
        ]
    return out


_GRID_SHAPES = ("uep-minus", "uep-plus", "mixed")


def _grid_poly(shape: str, p: int, e: int) -> tuple[int, ...]:
    if shape == "uep-minus":
        return (-p,) + (0,) * (e - 1) + (1,)
    if shape == "uep-plus":
        return (p,) + (0,) * (e - 1) + (1,)
    if shape == "mixed":
        if e == 1:
            return (2 * p, 1)
        return (p,) + (0,) * (e - 2) + (p, 1)
    raise InputError(f"unknown shape {shape!r}")


def cmd_grid(args) -> list[dict]:
    ps = _parse_int_list(args.p_list)
    es = _parse_int_list(args.e_list)
    ns = _parse_int_list(args.n_list)
    rs = _parse_int_list(args.r_list)
    shapes = args.shapes.split(",") if args.shapes else list(_GRID_SHAPES)
    rows = []
    for p in ps:
        _check_prime(p)
        for e in es:
            for shape in shapes:
                E = eisenstein_validate(_grid_poly(shape, p, e), p)
                for n in ns:
                    for r in rs:
                        summary = bounds_mod.nilpotency_summary(E, n, r)
                        exact = summary["exact"]
                        closed = {
                            k: summary.get(k)
                            for k in ("ern", "ceil", "uep", "general")
                        }
                        ok = all(
                            exact <= v for v in closed.values() if v is not None
                        )
                        if n == 1:
                            ok = ok and exact == e * r
                        report = bounds_mod.ramification_report(
                            p, e, n, r, exact, "exact-brute-force"
                        )
                        rows.append(
                            {
                                "p": p,
                                "e": e,
                                "shape": shape,
                                "n": n,
                                "r": r,
                                "exact_N": exact,
                                **closed,
                                "bounds_ok": ok,
                                "cor39_mu": report.cor39_mu,
                                "thm12_mu": report.thm12_mu,
                                "conj13_mu": report.conj13_mu,
                                "conj_le_thm": report.conj13_mu <= report.thm12_mu
                                and report.conj13_diff <= report.thm12_diff,
                            }
                        )
    return rows


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _arg(*flags, **kwargs) -> tuple:
    """One argument spec: the flags and keywords of ``add_argument``."""
    return flags, kwargs


_P = _arg("--p", type=int, help="odd prime")
_E = _arg("--e", type=int, help="absolute ramification index")
_N = _arg("--n", type=int, default=1, help="p-adic length")
_R = _arg("--r", type=int, default=1, help="height bound")
_N_OVERRIDE = _arg("--N", type=int, help="annihilating exponent override")
_EISENSTEIN = _arg("--eisenstein", "--E", dest="eisenstein",
                   help="Eisenstein polynomial, ascending coefficients 'a0,a1,...,1'")
_FORMAT = _arg("--format", dest="fmt", default="json", choices=["json", "tsv"])
_MODULE = (_P, _N, _R, _N_OVERRIDE, _EISENSTEIN, _FORMAT)
_PROBLEM = _MODULE + (
    _arg("--matrix", help="Frobenius matrix"),
    _arg("--model", help="model generator polynomial 'a0,...,1'"),
    _arg("--s", type=int, required=True, help="Kummer level"),
    _arg("--cap", type=int, help="enumeration cap (or RAMIBOUND_CAP)"),
    _arg("--prec", type=int, default=24, help="model p-digit precision"),
)

# One row per subcommand: name, help, handler, argument specs in help order.
COMMANDS = (
    ("bounds", "ramification bound report", cmd_bounds,
     (_P, _E, _N, _R, _N_OVERRIDE, _EISENSTEIN, _FORMAT)),
    ("nilpotency", "exact and closed-form indices", cmd_nilpotency,
     (_P, _N, _R, _EISENSTEIN, _FORMAT)),
    ("herbrand", "transition function of a filtration", cmd_herbrand, (
        _arg("--filtration", required=True, help="'lam:order' comma list"),
        _arg("--order", type=int, required=True, help="group order"),
        _FORMAT)),
    ("tame-lift", "cyclic tame lift and its character", cmd_tame_lift, (
        _arg("--p", type=int, required=True, help="odd prime"),
        _FORMAT,
        _arg("--seq", required=True, help="exponent sequence 'n0,n1,...'"),
        _arg("--n", type=int, default=1, help="p-adic length of the module"))),
    ("kisin-height", "height witness for a Frobenius matrix", cmd_kisin_height,
     _MODULE + (
         _arg("--matrix", help="rows ';', entries ',', u-coefficients ':'"),
         _arg("--uprec", type=int, help="u-adic working precision"))),
    ("jset", "enumerate Frobenius congruence solutions", cmd_jset,
     _PROBLEM + (_arg("--c", help="truncation level: 'a', 'b' or a rational"),)),
    ("solve-lift", "lift level-a classes to exact solutions", cmd_solve_lift,
     _PROBLEM + (
         _arg("--digits", type=int, default=6, help="certification digits"),
         _arg("--trace", action="store_true", help="include iteration traces"))),
    ("grid", "sweep parameters and report verdicts", cmd_grid, (
        _arg("--p", dest="p_list", default="3,5"),
        _arg("--e", dest="e_list", default="1,2,3"),
        _arg("--n", dest="n_list", default="1,2,3"),
        _arg("--r", dest="r_list", default="1,2,3"),
        _arg("--shapes", help=f"subset of {','.join(_GRID_SHAPES)}"),
        _FORMAT)),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ramibound",
        description="exact nilpotency indices, ramification bounds, Herbrand "
        "calculus, height witnesses, tame lifts and Frobenius solution sets",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, handler, specs in COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flags, kwargs in specs:
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(func=handler)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built by the first and never changed."""
    return build_parser()


def _join_negative_values(argv: list[str]) -> list[str]:
    """Write '--option -3,0,1' as '--option=-3,0,1'.  argparse takes a token
    such as -3,0,1 for an unknown option; no option here begins with -<digit>."""
    out: list[str] = []
    for tok in argv:
        if out and re.match(r"-\d", tok) and re.fullmatch(r"--[^=]+", out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        report = args.func(args)
        sys.stdout.write(emit_report(report, getattr(args, "fmt", "json")))
        return EXIT_OK
    except CapExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP
    except (NonConvergenceError, PrecisionError, UndecidableError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except (InputError, NotHeightError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except RamiboundError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
