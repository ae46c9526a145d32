"""The code-line counter in `code_lines.py` counts what its docstring says."""

from code_lines import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code
"""A string after the first statement is no docstring."""


# a comment line
class Box:
    """Class docstring."""

    def size(self):
        """Function
        docstring."""
        text = """a string
over two lines"""
        return (len(text),
                os.sep)


async def wait():
    """Async function docstring."""
    return \\
        1
'''


def test_counts_code_lines_only():
    # import, the later string, class, def, the string's two lines, the
    # return's two lines, async def, and the continued return's two lines
    assert code_lines(SOURCE) == 11


def test_blank_comment_and_docstring_lines_do_not_count():
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
