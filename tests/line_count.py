"""Count the lines of Python sources: all of them, and those that hold code.

Run it as ``python tests/line_count.py src/zscomb/*.py``.  It prints the
``wc -l`` total and the number of lines that hold a token outside comments
and docstrings, so trimmed prose does not read as deleted code and added
prose does not hide in the total.
"""

import ast
import io
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def code_lines(source: str) -> int:
    """Number of lines of source that hold a token other than a comment or a docstring."""
    docstrings = set()  # the lines a docstring spans; its string tokens start there
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or tok.type == tokenize.STRING and tok.start[0] in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths) -> str:
    total = code = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            source = f.read()
        total += source.count("\n")  # what wc -l counts
        code += code_lines(source)
    return f"{total} lines, {code} of them code (a token outside comments and docstrings)"


if __name__ == "__main__":
    print(main(sys.argv[1:]))
