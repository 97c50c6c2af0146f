from __future__ import annotations

import re
import shlex
from pathlib import Path

from graphstrength.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def shell_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ graphstrength ...`` line without a pipe in the README's plain
    code blocks, with the output lines under it up to a blank line."""
    examples = []
    for block in re.findall(r"```\n(.*?)```", README.read_text(), re.S):
        for example in re.split(r"\n\s*\n", block):
            command, *output = example.strip("\n").split("\n")
            if command.startswith("$ graphstrength ") and "|" not in command:
                examples.append((command[2:], output))
    return examples


def masked(lines: list[str]) -> list[str]:
    return [re.sub(r"\(\d+\.\d\ds\)", "(0.00s)", line) for line in lines]


def test_readme_shell_examples_print_what_they_show(capsys):
    # output must match line by line, up to a "..." line; repro's timings vary
    examples = shell_examples()
    assert len(examples) >= 5
    for command, want in examples:
        main(shlex.split(command)[1:])
        got, want = masked(capsys.readouterr().out.splitlines()), masked(want)
        shown = [line.strip() for line in want]
        if "..." in shown:
            cut = shown.index("...")
            got, want = got[:cut], want[:cut]
        assert got == want, command
