"""CLI input handling: the enumeration cap, levels, digits, negative
option values, prime inference, and calls that share one parser."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from argparse import Namespace
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ramibound import cli
from ramibound.cli import main
from ramibound.errors import InputError
from ramibound.padic import eisenstein_validate

JSET = [
    "jset", "--eisenstein", "3,1", "--n", "1", "--r", "1",
    "--matrix", "0:1", "--model", "3,0,0,0,0,0,1", "--s", "1",
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cap_below_one_is_refused(cap, monkeypatch):
    monkeypatch.delenv("RAMIBOUND_CAP", raising=False)
    code, out, err = run(JSET + ["--cap", cap])
    assert (code, out) == (2, "")
    assert err == f"error: --cap must be at least 1, got {cap}\n"


@pytest.mark.parametrize("env", ["0", "-5"])
def test_env_cap_below_one_is_refused(env, monkeypatch):
    monkeypatch.setenv("RAMIBOUND_CAP", env)
    code, out, err = run(JSET)
    assert (code, out) == (2, "")
    assert err == f"error: RAMIBOUND_CAP must be at least 1, got {env}\n"


def test_cap_option_wins_over_environment(monkeypatch):
    monkeypatch.setenv("RAMIBOUND_CAP", "0")
    assert run(JSET + ["--cap", "100"])[0] == 0
    monkeypatch.setenv("RAMIBOUND_CAP", "100")
    assert run(JSET + ["--cap", "10"])[0] == 3


@pytest.mark.parametrize("level", ["abc", "1/0"])
def test_bad_level_is_refused(level):
    code, out, err = run(JSET + ["--c", level])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad level '{level}'") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (JSET + ["--c", "1/0"], "bad level '1/0'"),
        (JSET + ["--c", "-3/0"], "bad level '-3/0'"),
        (["herbrand", "--filtration", "1/0:2", "--order", "2"], "bad rational '1/0'"),
        (["herbrand", "--filtration", "1:2,5/0:3", "--order", "2"],
         "bad rational '5/0'"),
    ],
)
def test_zero_denominator_is_refused_in_words(argv, refusal):
    """A level or a rational with a zero denominator is refused in words,
    not with Python's exception text."""
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == f"error: {refusal}: zero denominator\n"


@pytest.mark.parametrize("level", ["3/2", "1.5"])
def test_rational_level_spellings(level):
    code, out, err = run(JSET + ["--c", level])
    assert (code, err) == (0, "")
    assert '"level": "3/2"' in out


def test_filtration_reads_the_rational_spellings_of_levels():
    """--filtration reads its breaks with the one rational parser that --c
    uses: 1.5 is 3/2, and an inner space is refused by both."""
    herbrand = ["herbrand", "--order", "2", "--filtration"]
    answer = run(herbrand + ["3/2:2"])
    assert answer[0] == 0
    assert run(herbrand + ["1.5:2"]) == answer
    code, out, err = run(herbrand + ["3/ 2:2"])
    assert (code, out) == (2, "")
    assert err.startswith("error: bad rational '3/ 2': ")
    assert run(JSET + ["--c", "3/ 2"])[2].startswith("error: bad level '3/ 2': ")


@pytest.mark.parametrize("digits", ["0", "-1"])
def test_digits_below_one_is_refused(digits):
    code, out, err = run(["solve-lift"] + JSET[1:] + ["--digits", digits])
    assert (code, out) == (2, "")
    assert err == f"error: --digits must be at least 1, got {digits}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--p", "3", "--e", "1", "--n", "1", "--r", "1", "--N", "0"],
        ["bounds", "--eisenstein", "3,1", "--N", "-1"],
        JSET + ["--N", "-1"],
        JSET + ["--N", "0"],
        ["kisin-height", "--E", "3,1", "--matrix", "3:1", "--N", "-2"],
        ["kisin-height", "--E", "3,1", "--matrix", "3:1", "--N", "0"],
    ],
)
def test_N_below_one_is_refused(argv):
    assert run(argv) == (2, "", "error: N must be >= 1\n")


@pytest.mark.parametrize("uprec", ["0", "-3"])
def test_uprec_below_one_is_refused(uprec):
    argv = ["kisin-height", "--E", "3,1", "--matrix", "0", "--uprec", uprec]
    assert run(argv) == (2, "", "error: u-precision must be >= 1\n")


KISIN_SHORT = [
    "kisin-height", "--eisenstein=-3,0,1", "--n", "1", "--r", "2",
    "--matrix", "0:0:1,0:0:0:0:0:2;0,0:0:0:0:1",
]


def test_kisin_height_retries_at_doubled_uprec():
    """The default u-precision (16 here) certifies below e*r + 1; without
    --uprec the witness is found at 32, and an explicit --uprec 16 still
    refuses with exit 4."""
    code, out, err = run(KISIN_SHORT)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["has_height_witness"] is True
    assert (report["verified_uprec"], report["N"]) == (20, 4)
    assert run(KISIN_SHORT + ["--uprec", "32"]) == (code, out, err)
    refused = (4, "", "error: witness certified below e*r + 1; raise uprec\n")
    assert run(KISIN_SHORT + ["--uprec", "16"]) == refused


def test_kisin_height_retry_stops_after_the_ladder(monkeypatch):
    """An N that no u-precision certifies: the default and its 2, 4, 8 and
    16 times are tried, ``kisin.UPREC_DOUBLINGS`` doublings, then exit 4;
    with --uprec only the given one is tried."""
    seen = []
    real = cli.kisin_mod.height_witness

    def recording(module, r):
        seen.append(module.uprec)
        return real(module, r)

    monkeypatch.setattr(cli.kisin_mod, "height_witness", recording)
    argv = ["kisin-height", "--E", "3,1", "--n", "1", "--r", "1", "--matrix", "3:1"]
    code, out, err = run(argv + ["--N", "1000"])
    assert (code, out) == (4, "")
    assert err == "error: u-precision too small to verify the u^N witness\n"
    assert seen == [10, 20, 40, 80, 160]
    assert len(seen) == cli.kisin_mod.UPREC_DOUBLINGS + 1
    seen.clear()
    assert run(argv + ["--N", "1000", "--uprec", "10"])[0] == 4
    assert seen == [10]


SINGULAR = "Frobenius matrix is singular mod p: no witness at any height"


@pytest.mark.parametrize(
    "n, matrix",
    [("1", "0"), ("2", "3:0:3"), ("2", "9"), ("1", "1,0:1;0:1,0:0:1")],
)
def test_singular_matrix_has_no_witness(monkeypatch, n, matrix):
    """det A mod p vanishes identically (the zero matrix, entries divisible
    by p, or a second row u times the first): no u-precision helps, so
    kisin-height answers at once without a witness, and jset and
    solve-lift refuse the input with exit 2 after one attempt each."""
    seen = []
    real = cli.kisin_mod.height_witness

    def recording(module, r):
        seen.append(module.uprec)
        return real(module, r)

    monkeypatch.setattr(cli.kisin_mod, "height_witness", recording)
    module = ["--eisenstein", "3,1", "--n", n, "--r", "1", "--matrix", matrix]
    code, out, err = run(["kisin-height"] + module)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["has_height_witness"] is False
    assert report["reason"] == SINGULAR
    assert len(seen) == 1
    problem = module + ["--model", "3,0,0,0,0,0,0,0,0,1", "--s", "2"]
    for command in ("jset", "solve-lift"):
        seen.clear()
        assert run([command] + problem) == (2, "", f"error: {SINGULAR}\n")
        assert len(seen) == 1


def test_determinant_vanishing_below_the_truncation_is_a_precision_refusal():
    """det A = u^8 is not zero, but it vanishes modulo u^8: only more
    u-precision can tell, so kisin-height at --uprec 8 exits 4.  det A =
    u^10 vanishes modulo the default u-precision 10 of jset too, and the
    ladder climbs to 40, where the solve decides that no witness of height 1
    exists (exit 2)."""
    argv = [
        "kisin-height", "--eisenstein", "3,1", "--n", "1", "--r", "1",
        "--matrix", "0:0:0:0:1,;,0:0:0:0:1", "--uprec", "8",
    ]
    vanished = (4, "", "error: matrix determinant vanishes at this u-precision\n")
    assert run(argv) == vanished
    jset = JSET[:-6] + ["--matrix", "0:0:0:0:0:1,;,0:0:0:0:0:1"] + JSET[-4:]
    pole = (2, "", "error: solution acquires a pole: no witness at this height\n")
    assert run(jset) == pole


DIAG_E = [
    "--E", "3,0,1", "--n", "1", "--r", "1",
    "--matrix", "3:0:1,,;,3:0:1,;,,3:0:1",
]


def test_jset_seeks_the_witness_on_the_kisin_height_ladder(monkeypatch):
    """diag(E, E, E) with E = u^2 + 3: its height witness is refused for
    precision at the default u-precision 12 and found at 24, for jset as
    for kisin-height (which reports verified_uprec 12)."""
    seen = []
    real = cli.kisin_mod.height_witness

    def recording(module, r):
        seen.append(module.uprec)
        return real(module, r)

    monkeypatch.setattr(cli.kisin_mod, "height_witness", recording)
    code, out, err = run(["jset"] + DIAG_E + ["--model", "3,0,0,0,0,0,1", "--s", "1"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["count"], report["count_b"], report["image_ab"]) == (19683, 27, 27)
    assert report["splitting"] is True
    assert seen == [12, 24]
    seen.clear()
    code, out, err = run(["kisin-height"] + DIAG_E)
    assert (code, err) == (0, "")
    assert json.loads(out)["verified_uprec"] == 12
    assert seen == [12, 24]


def test_solve_lift_has_no_level_option():
    argv = ["solve-lift"] + JSET[1:] + ["--c", "b"]
    assert run(argv)[0] == 2


@pytest.mark.parametrize(
    "prefix, option, value, rest",
    [
        (["nilpotency", "--n", "2", "--r", "2"], "--eisenstein", "-3,0,1", []),
        (["bounds", "--p", "3", "--n", "2"], "--E", "-3,0,0,1", []),
        (
            ["jset", "--eisenstein=-3,1", "--n", "1", "--r", "1",
             "--matrix", "0:1", "--s", "1"],
            "--model",
            "-3,0,0,0,0,0,1",
            [],
        ),
        (
            ["kisin-height", "--E", "3,1", "--n", "1", "--r", "1"],
            "--matrix",
            "-1",
            ["--uprec", "12"],
        ),
    ],
)
def test_negative_value_spellings_agree(prefix, option, value, rest):
    spaced = run(prefix + [option, value] + rest)
    joined = run(prefix + [f"{option}={value}"] + rest)
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1]


def scan_infer_prime(coeffs):
    """Prime inference by scanning every odd q dividing a_0 (the oracle)."""
    a0 = abs(coeffs[0])
    found = []
    for q in range(3, a0 + 1, 2):
        if a0 % q == 0 and all(q % d for d in range(3, q, 2)):
            try:
                eisenstein_validate(coeffs, q)
                found.append(q)
            except InputError:
                pass
    return found[0] if len(found) == 1 else None


def test_prime_inference_matches_the_scan():
    for a0 in range(-300, 301):
        for tail in [(1,), (0, 1), (3, 1), (15, 1), (21, 0, 1), (10, 1), (7, 5, 1)]:
            coeffs = (a0,) + tail
            args = Namespace(p=None, eisenstein=",".join(map(str, coeffs)))
            try:
                got = cli._infer_prime(args)
            except InputError:
                got = None
            assert got == scan_infer_prime(coeffs), coeffs


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--p", "1000000000000000003", "--e", "1", "--n", "1", "--r", "1"],
        ["nilpotency", "--eisenstein", "30000000000000000000000003,1"],
        ["nilpotency", "--eisenstein", "3000000000000000000000003,1"],
        ["bounds", "--p", "3317044064679887385961981", "--e", "1"],
    ],
)
def test_large_primes_answer_at_once(argv):
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 1.0
    if code == 0:
        assert out and err == ""
    else:
        assert (code, out) == (2, "") and err.count("\n") == 1, err


SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_process(env, argv):
    """(exit code, stdout, stderr) of ``python -m ramibound`` in a new
    interpreter, with RAMIBOUND_CAP set to ``env`` or unset for None."""
    environ = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    environ.pop("RAMIBOUND_CAP", None)
    if env is not None:
        environ["RAMIBOUND_CAP"] = env
    proc = subprocess.run(
        [sys.executable, "-m", "ramibound", *argv],
        env=environ, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


# (RAMIBOUND_CAP or None for unset, argv): every subcommand, tsv, --help,
# a usage error, refusals, and options set by one call and absent from the
# next (--e is read by nilpotency when present)
SEQUENCE = [
    (None, ["bounds", "--p", "3", "--e", "2", "--n", "2", "--r", "2"]),
    (None, ["bounds", "--p", "3", "--e", "1"]),
    (None, ["nilpotency", "--E", "3,1", "--n", "2", "--r", "2", "--format", "tsv"]),
    (None, ["nilpotency", "--eisenstein", "-5,0,1"]),
    ("100", JSET),
    ("10", JSET),
    ("10", JSET + ["--cap", "0"]),
    ("10", JSET + ["--cap", "100", "--c", "b"]),
    (None, JSET + ["--format", "tsv"]),
    (None, ["--help"]),
    (None, ["herbrand", "--filtration", "1:9,2:3", "--order", "9"]),
    (None, ["herbrand", "--order", "9"]),
    (None, ["tame-lift", "--p", "3", "--seq", "1,0", "--n", "2", "--format", "tsv"]),
    (None, ["tame-lift", "--p", "3", "--seq", "1,0"]),
    (None, ["kisin-height", "--E", "3,1", "--n", "1", "--r", "1", "--matrix", "3:1"]),
    ("5", ["solve-lift"] + JSET[1:] + ["--digits", "3", "--trace"]),
    (None, ["solve-lift"] + JSET[1:]),
    (None, ["grid", "--p", "3", "--e", "1", "--n", "1,2", "--r", "1", "--format", "tsv"]),
    (None, ["grid", "--p", "5", "--e", "2", "--n", "1", "--r", "1", "--shapes", "mixed"]),
    (None, ["jset", "--help"]),
    (None, ["bounds", "--p", "4", "--e", "1"]),
    (None, ["bounds", "--bogus"]),
]


def test_calls_in_sequence_match_fresh_processes(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    codes = set()
    for env, argv in SEQUENCE:
        if env is None:
            monkeypatch.delenv("RAMIBOUND_CAP", raising=False)
        else:
            monkeypatch.setenv("RAMIBOUND_CAP", env)
        got = run(argv)
        assert got == fresh_process(env, argv), argv
        codes.add(got[0])
    assert codes == {0, 2, 3}
    assert cli._parser.cache_info().misses == 1


def test_parser_is_built_by_the_first_call_not_at_import():
    code = (
        "from ramibound import cli; n = cli._parser.cache_info().currsize; "
        "cli.main(['bounds', '--p', '3', '--e', '1']); "
        "print(n, cli._parser.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out.splitlines()[-1] == "0 1"


# sha256 of `ramibound [command] --help` at 80 columns, recorded before the
# parser was built from the command table; jset and solve-lift re-recorded
# when their --pis option was removed (pi_s is derived from the model)
HELP_SHA256 = {
    None: "5c0be10b87f0d28aedb63476025db5a2c6cee1f42df1b77a16a118eec6af0c67",
    "bounds": "da1d34e051d54d6f544750274f8c08f352e889209c219b31cd77cf20f1f1bc9c",
    "nilpotency": "d185619896cd550dc91446fa69cf34d804da00bda8e2382ff63cb6e2572052d9",
    "herbrand": "6ca904e43fa0129be8f1faeed4ad6116510bf8fb6a3a07937117ae5fba33807e",
    "tame-lift": "a33b722a430d14a21195b141ab2e7bf3a9813f01b32a417a5e76256817b6d8b1",
    "kisin-height": "20c61c2ea55b40f820f4bc87e1149c9c1834c922570150a10132554bf0e56b2d",
    "jset": "4e3a72752d2028784550f6ec19fdcd59e70288d0046c54884e652f986e05da1f",
    "solve-lift": "c2ae679b53e98f256592f6c0a98fb8890d3684d267e972cfcbe52732de3404e1",
    "grid": "9d4b7cd7075f0365f42fd204079175ce0d2cc1193c815a7ea36f93888d77af59",
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="help layout recorded under Python 3.11; argparse's differs by version",
)
@pytest.mark.parametrize("command", list(HELP_SHA256))
def test_help_text_pinned(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(([command] if command else []) + ["--help"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]
