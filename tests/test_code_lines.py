"""tools/code_lines.py counts the lines that hold a token outside
comments and module, class and function docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment line
import os  # code with a comment counts


class Thing:
    """Class docstring."""

    def method(self):
        """Method
        docstring."""
        text = """a string that is not a docstring
spans two lines"""
        return (
            text,
        )


async def run():
    "A one-line docstring."
    return os.sep
'''


def test_counts_code_lines_of_a_synthetic_source():
    # import, class, def, the two lines of text, return, text, ), async def, return
    assert code_lines.count_source(SOURCE) == 10


def test_totals_the_python_files_under_a_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "11\n"
