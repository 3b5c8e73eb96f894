import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from fractions import Fraction as F

import pytest

from ramibound.bounds import BoundReport, ramification_report
from ramibound.cli import (
    emit_report,
    format_rat,
    main,
    parse_rat,
)
from ramibound.errors import InputError


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def bound_report_from_json(data: dict) -> BoundReport:
    """Inverse of the JSON serialization of a bound report."""
    parse = {"int": int, "str": str, "Rat": lambda v: parse_rat(str(v))}
    return BoundReport(
        **{f.name: parse[f.type](data[f.name]) for f in fields(BoundReport)}
    )


def run_json(argv):
    code, out = run_cli(argv)
    assert code == 0, out
    return json.loads(out)


def test_format_and_parse_rat():
    assert format_rat(F(3, 2)) == "3/2"
    assert format_rat(F(2, 1)) == "2"
    assert parse_rat("3/2") == F(3, 2)
    assert parse_rat("7") == 7
    with pytest.raises(InputError):
        parse_rat("x")


def test_bounds_command():
    data = run_json(["bounds", "--p", "3", "--e", "1", "--n", "1", "--r", "1"])
    assert data["thm12_mu"] == "5/2"
    assert data["thm11_mu"] == "3/2"
    assert data["thm12_diff"] == "13/6"
    assert data["conj13_mu"] == "5/2"
    assert data["N_provenance"] == "ern-closed-form"


def test_bounds_roundtrip():
    data = run_json(["bounds", "--p", "3", "--e", "1", "--n", "2", "--r", "2"])
    rep = bound_report_from_json(data)
    assert rep == ramification_report(3, 1, 2, 2)


def test_bounds_with_exact_N():
    data = run_json(["bounds", "--eisenstein", "3,1", "--n", "2", "--r", "2"])
    assert data["N"] == 3
    assert data["N_provenance"] == "exact-brute-force"
    assert data["cor39_mu"] == "27/2"


def test_nilpotency_command():
    data = run_json(
        ["nilpotency", "--p", "3", "--eisenstein", "3,1", "--n", "2", "--r", "2"]
    )
    assert data == {"exact": 3, "ern": 4, "ceil": 3, "uep": 3, "general": 3}


def test_invalid_prime_exit_code():
    code, _ = run_cli(["bounds", "--p", "4", "--e", "1", "--n", "1", "--r", "1"])
    assert code == 2


def test_unknown_flag_rejected():
    code, _ = run_cli(["bounds", "--p", "3", "--e", "1", "--nope", "1"])
    assert code == 2


def test_herbrand_command():
    data = run_json(["herbrand", "--filtration", "1:9,2:3", "--order", "9"])
    assert data["last_upper_break"] == "4/3"
    assert data["last_lower_break"] == "2"
    assert data["concave"] is True
    assert data["phi_breakpoints"][-1] == ["2", "4/3"]


@pytest.mark.parametrize("filtration", ["1", "1:x", "1:1:1", ""])
def test_herbrand_malformed_filtration(filtration, capsys):
    code = main(["herbrand", "--filtration", filtration, "--order", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_tame_lift_command():
    data = run_json(["tame-lift", "--p", "3", "--seq", "1,0"])
    assert data["exponent"] == 1
    assert data["oracle_exponent"] == 1
    assert data["agree"] is True
    assert data["matrix"][0][1] == [0, 1]
    assert data["filtration"] == [0, 1]


def test_tame_lift_period_15_pinned():
    """A period-15 sequence over p = 3: the stdout recorded while the oracle
    scanned all 3^15 starts and the field search ran Rabin's test on every
    candidate (about 6 s then)."""
    seq = "1,0,2,1,1,0,2,0,1,2,2,0,1,0,1"
    code, out = run_cli(["tame-lift", "--p", "3", "--seq", seq])
    assert code == 0
    digest = "83884044bba33a5f731d1515bb1b7ceb3bced31f111f4032d47494fa81d3e2a4"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_kisin_height_command():
    data = run_json(["kisin-height", "--E", "3,1", "--n", "1", "--r", "1",
                     "--matrix", "3:1"])
    assert data["has_height_witness"] is True
    assert data["N"] == 1
    no = run_json(["kisin-height", "--E", "3,1", "--n", "1", "--r", "0",
                   "--matrix", "0:1"])
    assert no["has_height_witness"] is False


def test_jset_command():
    args = [
        "jset", "--eisenstein", "3,1", "--n", "1", "--r", "1",
        "--matrix", "0:1", "--model", "3,0,0,0,0,0,1", "--s", "1",
    ]
    data = run_json(args)
    assert data["count"] == 27
    assert data["count_b"] == 3
    assert data["image_ab"] == 3
    assert data["splitting"] is True
    assert data["a"] == "3/2" and data["b"] == "1/2"


def test_jset_cap_exit_code(monkeypatch):
    args = [
        "jset", "--eisenstein", "3,1", "--n", "1", "--r", "1",
        "--matrix", "0:1", "--model", "3,0,0,0,0,0,1", "--s", "1",
        "--cap", "10",
    ]
    code, _ = run_cli(args)
    assert code == 3
    monkeypatch.setenv("RAMIBOUND_CAP", "10")
    code, _ = run_cli(args[:-2])
    assert code == 3
    monkeypatch.setenv("RAMIBOUND_CAP", "1000000")
    code, _ = run_cli(args[:-2])
    assert code == 0


def run_cli_err(argv):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv)
    return code, out, err.getvalue()


def test_jset_pi_s_is_derived():
    """pi_s is x^(m/(e*p^s)), derived from the model: there is no option to
    pass it, and a model without that root (degree 4 is not a multiple of
    e*p^s = 3; E = u + 3 does not vanish at x^6 over x^6 - 3) exits 2 with
    a message about the model that names no option."""
    args = [
        "jset", "--eisenstein", "3,1", "--n", "1", "--r", "1",
        "--matrix", "0:1", "--s", "1",
    ]
    assert run_json(args + ["--model", "3,0,0,0,0,0,1"])["image_ab"] == 3
    code, out, err = run_cli_err(args + ["--model", "3,0,0,0,0,0,1", "--pis", "2"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --pis 2" in err
    for model in ("3,0,0,0,1", "-3,0,0,0,0,0,1"):
        code, out, err = run_cli_err(args + ["--model", model])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "model" in err and "--" not in err


KISIN_HEIGHT_UPREC_2 = [
    "kisin-height", "--E", "3,1", "--n", "1", "--r", "1", "--uprec", "2",
]


def test_kisin_height_entry_degree_ignores_trailing_zeros():
    """An entry's degree ignores trailing zero u-coefficients: at
    u-precision 2, 1:0:0, and 1:3:3 at n = 1 (3 = 0 mod 3), print exactly
    what 1 prints."""
    code, want = run_cli(KISIN_HEIGHT_UPREC_2 + ["--matrix", "1"])
    assert code == 0
    for matrix in ("1:0:0", "1:3:3"):
        assert run_cli(KISIN_HEIGHT_UPREC_2 + ["--matrix", matrix]) == (0, want)


def test_kisin_height_entry_degree_exceeds_uprec():
    """u^2 at u-precision 2 exits 2 with the degree message."""
    code, out, err = run_cli_err(KISIN_HEIGHT_UPREC_2 + ["--matrix", "0:0:1"])
    assert (code, out) == (2, "")
    assert err == "error: entry degree exceeds the u-precision\n"


def test_grid_tsv_mixed_shape_has_empty_uep_cell():
    code, out = run_cli(
        ["grid", "--p", "3", "--e", "1", "--n", "1", "--r", "1",
         "--shapes", "mixed", "--format", "tsv"]
    )
    assert code == 0
    header, row = out.strip().split("\n")
    cells = dict(zip(header.split("\t"), row.split("\t")))
    assert cells["uep"] == ""
    assert cells["exact_N"] == "1"


def test_solve_lift_command():
    args = [
        "solve-lift", "--eisenstein", "3,1", "--n", "1", "--r", "1",
        "--matrix", "0:1", "--model", "3,0,0,0,0,0,1", "--s", "1",
        "--digits", "6",
    ]
    data = run_json(args)
    assert data["level_a_classes"] == 27
    assert data["exact_solutions"] == 3
    assert data["gamma_min"] == "1/3"
    traced = run_json(args + ["--trace"])
    assert len(traced["lifts"]) == 27
    assert any(entry["iterations"] > 0 for entry in traced["lifts"])
    # members serialize as component coefficient lists
    assert all(e["residual_vp_at_least"] == 6 for e in traced["lifts"])
    member = traced["lifts"][1]["member"]
    assert isinstance(member, list) and isinstance(member[0][0], list)
    assert len(member[0][0]) == 6


def test_grid_command_json_and_tsv():
    args = ["grid", "--p", "3", "--e", "1,2", "--n", "1,2", "--r", "1,2"]
    rows = run_json(args)
    assert len(rows) == 3 * 2 * 2 * 2  # shapes * e * n * r
    assert all(row["bounds_ok"] for row in rows)
    assert all(row["conj_le_thm"] for row in rows)
    code, out = run_cli(args + ["--format", "tsv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("p\te\tshape")
    assert len(lines) == len(rows) + 1


def test_byte_determinism():
    args = ["bounds", "--p", "5", "--e", "2", "--n", "3", "--r", "2"]
    _, out1 = run_cli(args)
    _, out2 = run_cli(args)
    assert out1 == out2
    args2 = [
        "jset", "--eisenstein", "3,1", "--n", "1", "--r", "1",
        "--matrix", "0:1", "--model", "3,0,0,1", "--s", "1",
    ]
    _, j1 = run_cli(args2)
    _, j2 = run_cli(args2)
    assert j1 == j2


def test_emit_report_tsv_scalar_rows():
    text = emit_report([{"a": F(1, 2), "b": 3}], "tsv")
    assert text == "a\tb\n1/2\t3\n"


def test_nonconvergence_exit_code():
    # perturbing the model so no admissible pi_s exists gives exit 2
    args = [
        "jset", "--eisenstein", "3,1", "--n", "1", "--r", "1",
        "--matrix", "0:1", "--model", "3,0,1", "--s", "1",
    ]
    code, _ = run_cli(args)
    assert code == 2
