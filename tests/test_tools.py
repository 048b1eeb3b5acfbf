"""The repository's own tools: ``tools/src_size.py`` counts the lines of
``src/cellforest``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "src_size.py"


def test_src_size_totals_are_the_files_line_counts():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         check=True).stdout
    rows = {name: (int(physical), int(code))
            for name, physical, code in (line.split() for line in out.splitlines())}
    sources = sorted((ROOT / "src" / "cellforest").glob("*.py"))
    assert list(rows) == [p.name for p in sources] + ["total"]
    lines = {p.name: len(p.read_text().splitlines()) for p in sources}
    assert {name: row[0] for name, row in rows.items() if name != "total"} == lines
    assert rows["total"] == (sum(lines.values()), sum(rows[p.name][1] for p in sources))
    assert all(0 < code < physical for physical, code in rows.values())


def test_src_size_code_lines_leave_out_blanks_comments_and_docstrings():
    spec = importlib.util.spec_from_file_location("src_size", SCRIPT)
    src_size = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_size)
    text = '''"""Module
docstring."""

# a comment
X = """a string
that is code"""


class A:
    """Class docstring."""

    def f(self):  # trailing comment
        """One
        more."""
        return [1,

                2]
'''
    # code: X (2 lines), class, def, return and the list's second line
    assert src_size.sizes(text) == (17, 6)
