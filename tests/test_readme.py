"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from tanglekit.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def write_readme_inputs():
    """Run the README's Python blocks, which write the input files into the
    working directory."""
    for block in re.findall(r"```python\n(.*?)```", README, re.S):
        exec(compile(block, "README.md", "exec"), {})


def readme_commands():
    """The argv of each command of the "Command line" block."""
    section = README.split("\n## Command line\n")[1].split("\n## ")[0]
    return [shlex.split(line)[1:] for block in re.findall(r"```sh\n(.*?)```", section, re.S)
            for line in block.splitlines() if line.startswith("tanglekit ")]


def test_readme_examples_run(tmp_path, monkeypatch):
    # the Python blocks write the input files, and every command of the
    # "Command line" block then runs on them and exits 0
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TANGLEKIT_OUT", raising=False)
    write_readme_inputs()
    commands = readme_commands()
    assert len(commands) == 9
    for argv in commands:
        assert main(argv) == 0, argv
