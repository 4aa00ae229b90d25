"""The code-line count of tools/code_lines.py on a fixed snippet."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SNIPPET = '''"""Module docstring,
two lines."""

import math  # a trailing comment


# a comment line
class Box:
    """Class docstring."""

    size = (1,
            2)

    def area(self):
        """Function docstring
        over two lines."""
        text = """a string
        that is not a docstring"""
        return math.prod(self.size), text


async def wait():
    "one-line docstring"
'''


def load():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # import, class, size (two lines), def, text (two lines), return, async
    # def: the docstrings, comments and blank lines are left out
    assert load().code_lines(SNIPPET) == 9


def test_counts_the_package(capsys):
    tool = load()
    assert tool.main([]) == 0
    *modules, total = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[1]) for line in modules]
    assert "cli.py" in {line.split()[0] for line in modules}
    assert total.split() == ["total", str(sum(counts))]
