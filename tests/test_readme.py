"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from tanglekit.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
COMMAND_LINE = README.split("\n## Command line\n")[1].split("\n## ")[0]


def write_readme_inputs():
    """Run the README's Python blocks, which write the input files into the
    working directory."""
    for block in re.findall(r"```python\n(.*?)```", README, re.S):
        exec(compile(block, "README.md", "exec"), {})


def readme_commands():
    """The argv of each command of the "Command line" block."""
    return [shlex.split(line)[1:] for block in re.findall(r"```sh\n(.*?)```", COMMAND_LINE, re.S)
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


def test_readme_names_the_options_of_the_table():
    # "Command line" names each option in full, as the parser reads it, and
    # no other but --help and --trust-rich, which it names as an unknown option
    from tanglekit.cli import OPTIONS
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", COMMAND_LINE))
    assert named == {*OPTIONS, "--help", "--trust-rich"}
