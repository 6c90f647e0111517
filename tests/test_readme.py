"""The README's library quick tour runs as written and gives the values its
comments state."""

import ast
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the README's ``## heading``."""
    text = README.read_text()
    section = text[text.index(f"## {heading}\n"):]
    start = section.index(f"```{lang}\n") + len(lang) + 4
    return section[start : section.index("```\n", start)]


def test_library_quick_tour_runs_as_commented():
    # Statements run in order; each bare expression line is evaluated and
    # its value kept, as an interactive session would show it.
    namespace, values = {}, []
    for stmt in ast.parse(readme_block("Library quick tour", "python")).body:
        if isinstance(stmt, ast.Expr):
            expr = compile(ast.Expression(stmt.value), "README.md", "eval")
            values.append(eval(expr, namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    (r_min, bandwidth, r_at_bandwidth, shipped, downloads, audit_ok, doubled) = values
    assert (r_min, r_at_bandwidth, shipped) == (8, 11, 3)
    assert bandwidth == Fraction(3, 1) and doubled == Fraction(6, 1)
    assert type(bandwidth) is type(doubled) is Fraction
    assert type(downloads) is int  # the comment gives no figure
    assert audit_ok is True
