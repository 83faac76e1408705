"""The README's complete command-line examples, run and compared byte for
byte with the output the README shows.  An example whose output is cut
short with a ``...`` line is left out."""

import shlex
from pathlib import Path

import pytest

from tiasl import format_edge_list, path
from tiasl.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

#: The input files the examples name.
INPUTS = {
    "p3.edges": format_edge_list(path(3)),
    "chain.topo": "ground: {0,1,2}\n{}\n{0}\n{0,1}\n{0,1,2}\n",
}


def readme_examples() -> list[tuple[str, str]]:
    """(command, output) for every ``$ tiasl`` line of a ``sh`` block, the
    output being the block's lines up to the next command or the block's
    end."""
    examples = []
    blocks = README.read_text().split("```sh\n")[1:]
    for block in blocks:
        body = block.split("```", 1)[0]
        for chunk in body.split("$ tiasl ")[1:]:
            command, _, output = chunk.partition("\n")
            if "...\n" not in output:
                examples.append((command, output))
    return examples


EXAMPLES = readme_examples()


def test_examples_cover_the_documented_subcommands():
    commands = [c for c, _ in EXAMPLES]
    for expected in (
        "search p3.edges",
        "topologies --ground '{0,1,2}' --count",
        "topologies --ground '{0,1}' --list",
        "topologies --ground '{0,1,2,3,4,5,6,7,8,9}' --opens 7 --count",
        "topologies --ground '{0,1,2,3,4,5,6,7,8,9,10}' --opens 3 --count",
        "analyze chain.topo",
        "sweep --max-n 3",
    ):
        assert expected in commands


@pytest.mark.parametrize("command, output", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, output, tmp_path, monkeypatch, capsys):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)) == 0
    captured = capsys.readouterr()
    assert captured.out == output
    assert captured.err == ""
