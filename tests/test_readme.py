"""README's "Python API" section lists exactly what ``import treeres``
exposes, and its CLI transcript is what the commands print."""

import re
import shlex
import types
from pathlib import Path

import treeres
from treeres.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_section_matches_exports():
    text = README.read_text()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`(\w+)`", section)) - {"treeres"}
    exported = {
        name
        for name, value in vars(treeres).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert listed == exported


def test_cli_transcript(tmp_path, monkeypatch, capsys):
    # Each "$ " line of the CLI block runs in order in one directory; a
    # "..." line stands for census lines the block leaves out.
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    for chunk in block.strip().split("\n\n"):
        command, *shown = chunk.split("\n")
        argv = shlex.split(command.removeprefix("$ "))
        if argv[0] == "printf":
            _, text, redirect, name = argv
            assert redirect == ">"
            Path(name).write_text(text.replace("\\n", "\n"))
            continue
        assert argv[0] == "treeres"
        assert main(argv[1:]) == 0
        printed = capsys.readouterr().out.splitlines()
        if "..." in shown:
            cut = shown.index("...")
            assert printed[:cut] == shown[:cut] and printed[-1] == shown[-1]
        else:
            assert printed == shown
