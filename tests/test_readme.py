"""The README's Library example runs as written, and each value it shows in a
comment is the value its line computes; each command of its Command line
block runs and succeeds."""

import ast
import shlex
from pathlib import Path

from hurwitzrec import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(heading, language):
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]


def shown(value):
    """A value written the way the example's comments write it: a dict of
    Fractions as ``{key: num/den}`` in key order, a list by its length."""
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ", ".join(f"{key!r}: {c.numerator}/{c.denominator}" for key, c in items) + "}"
    if isinstance(value, list):
        return f"{len(value)} rows"
    return repr(value)


def test_library_example():
    namespace = {}
    checked = []
    for line in code_block("Library", "python").splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code.strip(), namespace)
            continue
        statement = ast.parse(code.strip()).body[0]
        if isinstance(statement, ast.Assign):
            exec(code.strip(), namespace)
            value = namespace[statement.targets[0].id]
        else:
            value = eval(code.strip(), namespace)
        checked.append((shown(value), comment.strip()))
    assert len(checked) == 7
    for expected, comment in checked:
        assert comment.startswith(expected), (expected, comment)


def test_command_line_block(monkeypatch, capsys):
    # a developer's own cache file must not serve (or take) these runs
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    commands = [
        shlex.split(line.partition("#")[0])
        for line in code_block("Command line", "sh").splitlines()
        if line.startswith("hurwitzrec ")
    ]
    assert len(commands) == 5
    for argv in commands:
        code = cli.main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0 and out, argv
