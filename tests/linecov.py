"""Line coverage of ``src/ubcode`` under the tier-1 suite, stdlib only.

Run from anywhere, with pytest's own arguments if any:

    python tests/linecov.py [pytest args]

It runs pytest in this process with a line tracer (``sys.settrace`` and
``threading.settrace``) on ``src/ubcode``'s files only, then lists every
statement in a function body of ``src/ubcode`` that never ran.  It exits 1
when such a line is not on ``ALLOWED``, when an ``ALLOWED`` entry matches no
line left unrun, or when the tests fail.  Entries are keyed by file, function
and the line's text, not its number, so an edit that moves a listed line keeps
its entry and one that changes the line makes the entry fail as stale.  The
traced suite runs several times slower than the plain one.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ubcode"

# (file, function, line text) -> why no tier-1 test can run the line.
ALLOWED = {
    ("cli.py", "main", "sys.exit(run())"):
        "the console-script entry exits the process; tests call run(), and "
        "tests/process_checks.sh runs main",
    ("code_model.py", "bounds",
     'raise AssertionError("water-level profile failed to absorb all data")'):
        "invariant: the last k ranks' headroom covers all data by the choice of mu",
    ("finite_field.py", "_smallest_irreducible",
     'raise AssertionError(f"no irreducible polynomial of degree {d} over GF({p})")'):
        "invariant: a monic irreducible of every degree exists over every GF(p)",
    ("finite_field.py", "Field._find_primitive",
     'raise AssertionError(f"no primitive element in GF({self.q})")'):
        "invariant: the multiplicative group of a finite field is cyclic",
    ("finite_field.py", "Field._build_tables",
     'raise AssertionError("primitive element does not have full order")'):
        "invariant: _find_primitive returned an element of full order",
}


def body_lines(path: Path) -> dict[int, tuple[str, str]]:
    """Line -> (function, text) for each statement in a function body of the
    module that compiles to code (a docstring or ``global`` does not)."""
    source = path.read_text()
    text = source.splitlines()
    compiled = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        compiled.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    out = {}

    def visit(node, scope: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if in_function and isinstance(child, ast.stmt) and child.lineno in compiled:
                out[child.lineno] = (scope, text[child.lineno - 1].strip())
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                visit(child, name, not isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, in_function)

    visit(ast.parse(source), "", False)
    return out


def main(args: list[str]) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    sys.path.insert(0, str(ROOT / "src"))  # trace this checkout's package, by absolute path
    import pytest

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(["--rootdir", str(ROOT), str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun = set()
    failed = False
    for name, path in files.items():
        for line, (function, text) in sorted(body_lines(path).items()):
            if line in hits[name]:
                continue
            key = (path.name, function, text)
            unrun.add(key)
            if key not in ALLOWED:
                print(f"not run: src/ubcode/{path.name}:{line} in {function}: {text}")
                failed = True
    for key in ALLOWED.keys() - unrun:
        print(f"stale allowlist entry (the line runs or is gone): {key}")
        failed = True
    if not failed:
        print(f"linecov: every function-body line of src/ubcode ran but the "
              f"{len(ALLOWED)} allowed")
    return 1 if failed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
