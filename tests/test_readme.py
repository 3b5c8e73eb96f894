"""Every `$ ramibound ...` example in README.md runs through ``cli.main``,
exits 0, and shows only output the command really prints; the library
example runs and shows the values its expressions really have."""

import ast
import io
import json
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ramibound.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
PAIR = re.compile(r'"(\w+)": ("[^"]*"|[^,\s}]+)')


def readme_examples():
    """(argv, shown output lines) per example; a trailing backslash joins
    the next line to the command."""
    out = []
    for block in re.findall(r"```console\n(.*?)```", README, re.S):
        lines = block.splitlines()
        i = 0
        while i < len(lines):
            cmd = lines[i][2:]
            while cmd.endswith("\\"):
                i += 1
                cmd = cmd[:-1] + " " + lines[i].strip()
            i += 1
            shown = []
            while i < len(lines) and not lines[i].startswith("$ "):
                if lines[i].strip():
                    shown.append(lines[i])
                i += 1
            argv = shlex.split(cmd)
            assert argv[0] == "ramibound", cmd
            out.append((argv[1:], shown))
    return out


EXAMPLES = readme_examples()


def example_ids():
    """The command's name; a later example of the same command adds its
    ordinal, so ``jset`` stays the id of the first jset example."""
    seen = {}
    ids = []
    for argv, _ in EXAMPLES:
        k = seen[argv[0]] = seen.get(argv[0], 0) + 1
        ids.append(argv[0] if k == 1 else f"{argv[0]}-{k}")
    return ids


def test_every_example_is_found():
    assert len(EXAMPLES) == README.count("$ ramibound ") > 0


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=example_ids())
def test_readme_example(argv, shown):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    text = buf.getvalue()
    if text.startswith("{"):
        report = json.loads(text)
        pairs = [pair for line in shown for pair in PAIR.findall(line)]
        assert pairs
        for key, value in pairs:
            assert report[key] == json.loads(value), key
    else:
        header = [t for t in shown[0].split() if t != "..."]
        assert text.splitlines()[0].split("\t")[: len(header)] == header


def test_library_example():
    """Each statement of the ``## Library`` block runs in order, and each
    expression statement's trailing ``# value`` comment is the repr of its
    value."""
    block = re.search(r"## Library\n\n```python\n(.*?)```", README, re.S).group(1)
    lines = block.splitlines()
    namespace = {}
    shown = []
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        comment = lines[node.end_lineno - 1][node.end_col_offset :].strip()
        assert comment.startswith("#"), code
        shown.append((code, repr(eval(code, namespace)), comment[1:].strip()))
    assert len(shown) == 3
    for code, got, want in shown:
        assert got == want, code
