import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line


class Box:
    """A class docstring."""

    # a comment-only line

    def area(self, side):
        """A function docstring
        over two lines.
        """
        return math.prod(
            (side,
             side),
        )


NOTE = """a string that is not a docstring
spans two lines"""
'''


def test_counts_only_lines_that_hold_code_outside_docstrings():
    # import, class, def, the three lines of the call and its closing line,
    # and both lines of the assigned string
    assert code_lines.code_lines(SOURCE) == 9
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 8, 13, 14, 15}


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("# only a comment\n\nx = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 1\nb 9\ntotal 10\n"
