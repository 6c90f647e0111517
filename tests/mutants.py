"""Mutation check of ``src/ubcode``, stdlib only: each guard listed in
``MUTANTS`` must be seen to fail a test.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

A mutant is (what it breaks, file under ``src/ubcode``, exact text,
replacement, tests that must fail).  The text must occur in its file exactly
once, or the script fails before running anything, so the list cannot rot
silently.  The script copies ``src/`` to a temporary directory and runs every
named test once against the unchanged copy: they must pass, so a test that
fails for another reason kills nothing.  Then, for each mutant, it applies the
replacement to the copy, runs that mutant's tests (``pytest -x``) against it
and restores the file.  A mutant whose tests pass survived, which is a finding
about the tests; the script exits 1 when any mutant survives or any run ends
in something other than a pass or a test failure, and 0 when every mutant is
killed.  No bytecode is written, and the repository is left as it was.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    (
        "the kept and the erased data's parity columns swapped in _elimination",
        "code_model.py",
        "_kept_parity_columns(code, kept, erased)\n"
        "        kept_block = _kept_parity_columns(code, kept, kept)",
        "_kept_parity_columns(code, kept, kept)\n"
        "        kept_block = _kept_parity_columns(code, kept, erased)",
        ["tests/test_code_model.py::test_decoder_matches_full_column_map_reference"],
    ),
    (
        "a zero-parity node left with no parity columns (zip of no rows is empty)",
        "code_model.py",
        "\n                          if pj else [()] * sum(self.m))",
        ")",
        ["tests/test_code_model.py::"
         "test_a_zero_parity_node_keeps_one_parity_column_per_data_symbol"],
    ),
    (
        "the transformed root step reading the next root node's parity columns",
        "transform.py",
        "zip(fills, self.base._parity_columns)",
        "zip(fills, self.base._parity_columns[1:] + self.base._parity_columns[:1])",
        ["tests/test_transform.py::test_a_tuple_fill_encodes_like_a_list_fill"],
    ),
    (
        "repair's check of how many symbols a fetch returned dropped",
        "code_model.py",
        "if not _is_row(got, len(new)):",
        "if not isinstance(got, (list, tuple)):",
        ["tests/test_code_model.py::test_repair_rejects_fetched_symbols_outside_the_field"],
    ),
    (
        "check_node made a no-op",
        "code_model.py",
        "if type(node) is not int or not 0 <= node < self.n:",
        "if False:",
        ["tests/test_code_model.py::test_repair_and_decoder_reject_out_of_range_nodes",
         "tests/test_code_model.py::test_codec_entries_reject_wrong_types"],
    ),
    (
        "rref's back-substitution skipped on packed rows",
        "linalg.py",
        "for i in range(len(pivots) - 1, 0, -1):\n        shift = 8 * pivots[i]",
        "for i in ():\n        shift = 8 * pivots[i]",
        ["tests/test_linalg.py::test_rref_matches_scalar_reference[GF(8)]"],
    ),
    (
        "an entry-list basis row dropping its last term",
        "linalg.py",
        "basis[col] = list(zip(js, vs if c == 1 else f.scale_row(f.inv(c), vs)))",
        "basis[col] = list(zip(js, vs if c == 1 else f.scale_row(f.inv(c), vs)))[:-1]",
        ["tests/test_linalg.py::test_rref_matches_scalar_reference[GF(25)]"],
    ),
    (
        "GF(2^16)'s log table read one entry early, overlapping the exp table",
        "finite_field.py",
        "log, crc = _read_uint16(fh, order + 1, crc)",
        "fh.seek(2 * (order - 1))\n            log, crc = _read_uint16(fh, order + 1, crc)",
        ["tests/test_finite_field.py::test_gf65536_tables_are_the_walks"],
    ),
    (
        "the GF(2^16) table file's CRC-32 comparison skipped",
        "finite_field.py",
        "if crc != _TABLE_CRC32:",
        "if False:",
        ["tests/test_finite_field.py::"
         "test_a_missing_short_or_altered_table_file_is_refused"],
    ),
]


def run_tests(src: Path, tests: list[str], workdir: Path) -> int:
    """pytest's exit status for ``tests`` with ``src`` as the package path:
    0 when they pass, 1 when one fails, anything else when the run broke."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--rootdir", str(ROOT), "-o", f"pythonpath={src}",
           *(str(ROOT / t) for t in tests)]
    return subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    package = ROOT / "src" / "ubcode"
    for what, name, text, _, _ in MUTANTS:
        found = (package / name).read_text().count(text)
        if found != 1:
            print(f"mutants: {text!r} occurs {found} times in src/ubcode/{name}, "
                  f"not once ({what})")
            return 1
    named = list(dict.fromkeys(t for *_, tests in MUTANTS for t in tests))
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        src = workdir / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        status = run_tests(src, named, workdir)
        if status != 0:
            print(f"mutants: the named tests do not pass on the unchanged source "
                  f"(pytest exit {status})")
            return 1
        for what, name, text, replacement, tests in MUTANTS:
            path = src / "ubcode" / name
            original = path.read_text()
            path.write_text(original.replace(text, replacement))
            start = time.perf_counter()
            status = run_tests(src, tests, workdir)
            path.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"BROKEN (pytest exit {status})")
            failed |= status != 1
            print(f"{verdict}: {what} [{time.perf_counter() - start:.1f} s]")
    print(f"mutants: {len(MUTANTS)} checked, "
          + ("some not killed" if failed else "every one killed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
