"""README's examples run as written, so a renamed or removed public name,
option or payload field fails the suite instead of leaving the
documentation stale."""

import re
import shlex
from pathlib import Path

import pytest

from cobweb.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def cli_examples():
    """(argv, exit code, stdout pattern or None) for each ``cobweb`` line of
    README's sh blocks.  The exit code is the ``exit N`` in the line's
    comment or on the next ``#`` line, else 0; a next line ``# {...}`` or
    ``# [...]`` is the stdout, with ``...`` standing for any text."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, re.M | re.S):
        lines = block.splitlines() + [""]
        for line, following in zip(lines, lines[1:]):
            if not line.startswith("cobweb "):
                continue
            command, _, comment = line.partition("#")
            if not following.startswith("#"):
                following = ""
            code = re.search(r"\bexit (\d+)", comment + following)
            payload = re.match(r"# ([{\[].*[}\]])", following)
            examples.append((
                shlex.split(command)[1:],
                int(code.group(1)) if code else 0,
                payload and ".*".join(map(re.escape, payload.group(1).split("..."))),
            ))
    return examples


EXAMPLES = cli_examples()


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_has_command_line_examples():
    assert len(EXAMPLES) >= 16
    assert sum(pattern is not None for _, _, pattern in EXAMPLES) >= 4


@pytest.mark.parametrize(
    "argv, code, pattern", EXAMPLES, ids=[shlex.join(argv) for argv, _, _ in EXAMPLES]
)
def test_readme_command_line_examples_run(capsys, argv, code, pattern):
    assert main(argv) == code
    out = capsys.readouterr().out
    if pattern is not None:
        assert re.fullmatch(pattern, out.rstrip("\n")), out
