"""tools/code_lines.py: what counts as a code line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

import os  # a trailing comment keeps the line

# a comment-only line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """not a docstring
# nor a comment"""
        return (text,
                os.sep)
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, class, def, and the two lines each of text and of return.
    assert code_lines.code_lines(SOURCE) == 7


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     7  {tmp_path / 'a.py'}", f"     1  {tmp_path / 'b.py'}", "     8  total"]
