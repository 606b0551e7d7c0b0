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


def test_each_file_counts_once_however_many_paths_reach_it(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "pkg" / "b.py").write_text("z = 3\n")
    pkg = tmp_path / "pkg"
    assert count_code_lines.main([str(pkg)]) == 0
    alone = capsys.readouterr().out
    assert count_code_lines.main([str(pkg / "a.py"), str(pkg), str(pkg / ".." / "pkg")]) == 0
    overlapping = capsys.readouterr().out
    assert overlapping.count("a.py") == 1 and overlapping.count("b.py") == 1
    assert overlapping.splitlines()[-1] == alone.splitlines()[-1] == "     3  total"
