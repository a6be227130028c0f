"""Every ``$ tameplane ...`` example in README.md prints what the README
shows, and every line of its Python quickstart ending in ``# <repr>`` has
that value."""

import re
import shlex
from pathlib import Path

import pytest

from tameplane.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(argv, expected lines) for each ``$ tameplane`` line in a fenced block;
    the expected output runs to the next ``$`` line or the end of the block."""
    examples, current, in_block = [], None, False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ "):
            argv = shlex.split(line[2:])
            current = None
            if argv[0] == "tameplane":
                current = (argv[1:], [])
                examples.append(current)
        elif current is not None:
            current[1].append(line)
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize("argv,expected", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_output(capsys, argv, expected):
    main(argv)
    captured = capsys.readouterr()
    assert captured.err + captured.out == "".join(line + "\n" for line in expected)


def quickstart_lines():
    """(code, expected repr or None) for each line of the README's python block."""
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("\n```", 1)[0]
    out = []
    for line in block.splitlines():
        m = re.fullmatch(r"(.*\S)\s+# (.*)", line)
        out.append((m[1], m[2]) if m else (line, None))
    return out


def test_readme_quickstart_values():
    namespace, checked = {}, 0
    for code, want in quickstart_lines():
        if want is None:
            exec(code, namespace)
        else:
            assert repr(eval(code, namespace)) == want, code
            checked += 1
    assert checked >= 3
