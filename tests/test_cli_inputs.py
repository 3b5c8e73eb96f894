"""CLI input handling: the enumeration cap, levels, digits and negative
option values."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ramibound.cli import main

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


@pytest.mark.parametrize("level", ["3/2", "1.5"])
def test_rational_level_spellings(level):
    code, out, err = run(JSET + ["--c", level])
    assert (code, err) == (0, "")
    assert '"level": "3/2"' in out


@pytest.mark.parametrize("digits", ["0", "-1"])
def test_digits_below_one_is_refused(digits):
    code, out, err = run(["solve-lift"] + JSET[1:] + ["--digits", digits])
    assert (code, out) == (2, "")
    assert err == f"error: --digits must be at least 1, got {digits}\n"


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
