"""`tools/code_lines.py` counts code lines: not blank lines, comments or docstrings."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves its line a code line

# a comment line


class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self, a,
          b):
        """Function docstring."""
        return (a +
                b)
'''


def test_counts_only_code_lines():
    # import 1, class 1, x 2, def 2, return 2.
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_module_and_the_total(capsys):
    assert code_lines.main([str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[0]) for line in lines]
    names = [line.split()[1] for line in lines]
    assert names[-1] == "total" and "kkt.py" in names
    assert counts[-1] == sum(counts[:-1]) > 0


def test_base_prints_both_counts_and_the_delta(tmp_path, capsys):
    trees = {
        "base": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"},
        "head": {"a.py": "x = 1\n", "c.py": "w = (1,\n     2)\n"},
    }
    for tree, files in trees.items():
        (tmp_path / tree / "src" / "hones").mkdir(parents=True)
        for name, text in files.items():
            (tmp_path / tree / "src" / "hones" / name).write_text(text)
    assert code_lines.main([str(tmp_path / "head"), "--base", str(tmp_path / "base")]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines == [
        ["base", "head", "delta", "module"],
        ["2", "1", "-1", "a.py"],
        ["1", "0", "-1", "b.py"],
        ["0", "2", "+2", "c.py"],
        ["3", "3", "+0", "total"],
    ]
