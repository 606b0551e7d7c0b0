import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_code_lines", _PATH)
count_code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_code_lines)


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    source = '''"""A module docstring
over two lines."""

# a comment
def f(x):
    """A function docstring."""
    y = (x +  # a trailing comment
         1)
    s = """a string that is not a docstring"""

    return y, s
'''
    # def, both lines of the continued statement, the string and return.
    assert count_code_lines.count_code_lines(source) == 5
