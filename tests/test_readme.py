"""README.md is executed: its examples run as written, and the names it cites exist.

Each ``samossa ...`` line of its ``bash`` blocks (continuation lines joined,
comments dropped) runs through ``cli.main`` and must exit 0, and each
``python`` block is exec'd, in README order and in one temporary directory,
so an example may read what an earlier one wrote. A failure names the
example's README line: a python block is compiled at its own line numbers.
Shell lines that are not ``samossa`` commands do not run; they are listed
in ``NOT_RUN``, so that a new one has to be acknowledged here. Examples
that take more than a few seconds are listed in ``SLOW`` and marked slow.
"""

import importlib
import pkgutil
import re
import shlex
from dataclasses import dataclass
from pathlib import Path

import pytest

import samossa
from samossa import cli

README = Path(__file__).parent.parent / "README.md"


def _command(text: str) -> str:
    """A shell line without its comment, in one spelling: ``shlex.join`` of its words."""
    return shlex.join(shlex.split(text, comments=True))


NOT_RUN = {_command(line) for line in (
    "pytest",
    'pytest -m "not slow"',
    "pytest tests/test_acceptance.py -v -s",
    "pip install -e . --no-build-isolation",
    "pytest tests/test_acceptance.py -k Criterion4 -s",
    "python3 perfbench/run.py",
)}

# Criterion 2's full sweep: 40 points up to N*T = 3e6.
SLOW = {_command("samossa fig2 --lambda-stars 0.3 --sigma2 0.04 --check -o sweep/")}


@dataclass(frozen=True)
class Example:
    line: int  # 1-based README line where the example starts
    kind: str  # "bash" or "python"
    text: str  # a shell command without its comment, or a python block

    def __str__(self):
        return f"README.md:{self.line}"


def _examples(text: str) -> list[Example]:
    """The shell commands and python blocks of ``text``'s fenced blocks, in order."""
    examples, lines = [], text.splitlines()
    fence = re.compile(r"^(\s*)```(\w*)\s*$")
    i = 0
    while i < len(lines):
        opened = fence.match(lines[i])
        i += 1
        if not opened:
            continue
        indent, kind, start = len(opened.group(1)), opened.group(2), i
        while not fence.match(lines[i]):
            i += 1
        body = [line[indent:] for line in lines[start:i]]
        i += 1
        if kind == "python":
            examples.append(Example(start + 1, kind, "\n".join(body)))
        elif kind == "bash":
            command, first = "", None
            for number, line in enumerate(body, start + 1):
                first = first or number
                command += line
                if command.endswith("\\"):
                    command = command[:-1]
                    continue
                if words := _command(command):
                    examples.append(Example(first, kind, words))
                command, first = "", None
    return examples


EXAMPLES = _examples(README.read_text(encoding="utf-8"))
RUN = [e for e in EXAMPLES if e.kind == "python" or e.text.startswith("samossa ")]


def _run(example: Example, capsys):
    if example.kind == "python":
        # Padded so that a traceback's line numbers are README's own.
        code = compile("\n" * (example.line - 1) + example.text, str(README), "exec")
        exec(code, {"__name__": "__readme__"})
        return
    capsys.readouterr()
    code = cli.main(shlex.split(example.text)[1:])
    err = capsys.readouterr().err.strip()
    assert code == 0, f"{example}: `{example.text}` exited {code}: {err}"


QUICK = [e for e in RUN if e.text not in SLOW]


@pytest.mark.parametrize("last", [pytest.param(QUICK[-1], id="quick")] + [
    pytest.param(e, id=str(e), marks=pytest.mark.slow) for e in RUN if e.text in SLOW])
def test_examples_run(last, tmp_path, monkeypatch, capsys):
    """Every quick example up to ``last``, then ``last``, in README order in one directory."""
    monkeypatch.chdir(tmp_path)
    for example in RUN[:RUN.index(last) + 1]:
        if example in QUICK or example is last:
            _run(example, capsys)


def test_every_other_shell_line_is_acknowledged():
    shell = {e.text for e in EXAMPLES if e.kind == "bash" and e not in RUN}
    assert shell == NOT_RUN
    assert SLOW <= {e.text for e in RUN}


def test_every_subcommand_has_a_quick_example():
    shown = {shlex.split(e.text)[1] for e in QUICK if e.kind == "bash"}
    assert shown == set(cli.COMMANDS)


def _references(text: str) -> list[tuple[int, str]]:
    """(README line, ``module.name``) for every backticked reference to a package module
    outside the fenced blocks; a file name such as ``panel.py`` is not one."""
    modules = {info.name for info in pkgutil.iter_modules(samossa.__path__)}
    prose = re.sub(r"```.*?```", lambda block: "\n" * block.group().count("\n"), text,
                   flags=re.S)
    found = []
    for span in re.finditer(r"`([^`]+)`", prose):
        line = prose.count("\n", 0, span.start()) + 1
        for module, name in re.findall(r"\b([a-z_]+)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)",
                                       span.group(1)):
            if module in modules and name != "py":
                found.append((line, f"{module}.{name}"))
    return found


def test_every_cited_name_exists():
    references = _references(README.read_text(encoding="utf-8"))
    assert references
    missing = []
    for line, reference in references:
        module, *names = reference.split(".")
        target = importlib.import_module(f"samossa.{module}")
        for name in names:
            target = getattr(target, name, None)
        if target is None:
            missing.append(f"README.md:{line}: {reference}")
    assert not missing
