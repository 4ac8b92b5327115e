from pathlib import Path

import pytest

from .line_counts import KINDS, count

REPO_ROOT = Path(__file__).resolve().parent.parent

_SAMPLE = '''"""Module
docstring."""

import math  # a trailing comment is code

# a comment line


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        text = """
# not a comment
"""
        return text
'''


def test_each_line_is_counted_once_by_kind():
    assert count("sample.py", _SAMPLE) == {"code": 7, "docstring": 5, "comment": 1, "blank": 5}
    assert count("sample.sh", "#!/bin/sh\n\n# note\necho 1\n") == {"code": 1, "docstring": 0, "comment": 2, "blank": 1}


@pytest.mark.parametrize("path", sorted(REPO_ROOT.glob("src/mdiqkd/*.py")), ids=lambda p: p.name)
def test_the_kinds_sum_to_the_lines_of_each_source_file(path):
    text = path.read_text(encoding="utf-8")
    counts = count(str(path), text)
    assert set(counts) == set(KINDS) and sum(counts.values()) == len(text.splitlines())
