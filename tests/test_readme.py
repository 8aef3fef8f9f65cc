"""The examples in README.md run, and print what it shows."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

from weylmod.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
# (language, body) of every fenced block
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def test_python_blocks_run_in_one_namespace():
    bodies = [body for lang, body in BLOCKS if lang == "python"]
    assert len(bodies) == 2
    namespace = {}
    with redirect_stdout(io.StringIO()):
        for body in bodies:
            exec(compile(body, "README.md", "exec"), namespace)


def test_command_examples_print_the_lines_under_them(capsys):
    examples = [body.splitlines() for _, body in BLOCKS
                if body.startswith("$ weylmod ")]
    assert len(examples) == 3
    for command, *expected in examples:
        main(command.split()[2:])
        assert capsys.readouterr().out.splitlines() == expected, command
