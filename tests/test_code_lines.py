"""Smoke test of ``scripts/code_lines.py``, the count behind each net
code-line figure in CHANGES.md."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
SCRIPT = ROOT / "scripts" / "code_lines.py"
PACKAGE = ROOT / "src" / "psigroups"


def _counts(*paths: Path) -> dict[str, int]:
    """The script's printed counts, keyed by path, and "total"."""
    out = subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)],
                         capture_output=True, text=True, check=True).stdout
    return {name: int(count) for count, name in (line.split(maxsplit=1)
                                                 for line in out.splitlines())}


def test_module_counts_sum_to_the_printed_total():
    counts = _counts(PACKAGE)
    total = counts.pop("total")
    assert sorted(counts) == sorted(str(path) for path in PACKAGE.glob("*.py"))
    assert sum(counts.values()) == total > 0


def test_a_module_of_docstring_comments_and_blanks_counts_zero(tmp_path):
    module = tmp_path / "empty.py"
    module.write_text('"""A module docstring\n\nover three lines."""\n\n'
                      "# a comment\n    \n\n    # an indented comment\n")
    assert _counts(module) == {str(module): 0, "total": 0}
