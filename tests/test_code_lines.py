import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# every code-size figure quoted for the package comes from this script
_spec = importlib.util.spec_from_file_location("code_lines", os.path.join(ROOT, "scripts", "code_lines.py"))
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment-only line
import os  # a trailing comment keeps its line


class A:
    """A class docstring."""

    x = (1,
         2)


def f():
    """A function
    docstring."""
    # another comment-only line

    s = """a string that is
    not a docstring"""
    return s


async def g():
    """An async function docstring."""
    return os.sep
'''


def test_code_lines_counting_rule():
    # counted: import, class, the two lines of x, def, the two lines of s,
    # return, async def, return; not the docstrings, comments or blanks
    assert code_lines.code_lines(SOURCE) == 10
    assert code_lines.docstring_lines(code_lines.ast.parse(SOURCE)) == {1, 2, 9, 16, 17, 26}


def test_code_lines_of_blank_and_comment_only_sources():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines("\n\n# only a comment\n\n") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0
    # a string after the first statement is no docstring
    assert code_lines.code_lines('x = 1\n"""not a docstring"""\n') == 2
