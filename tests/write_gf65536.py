"""Write GF(2^16)'s exp and log tables, as ``Field._walk`` builds them, to the
package data file ``src/ubcode/gf65536.bin``, and print the file's CRC-32.

Run from anywhere, stdlib only, optionally with another output path:

    python tests/write_gf65536.py [OUT]

The file is the exp table (65,535 entries) then the log table (65,536), each
entry a little-endian uint16: 262,142 bytes.  ``_TABLE_CRC32`` in
``src/ubcode/finite_field.py`` must equal the printed CRC-32.  The script
never reads the file it writes, so it also runs where that file is missing or
damaged.
"""

from __future__ import annotations

import struct
import sys
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # write from this checkout's walk

from ubcode.finite_field import Field  # noqa: E402


class _Untabled(Field):
    """GF(q) without its tables: only its modulus and primitive element,
    which are all the walk reads."""

    __slots__ = ()

    def _build_tables(self) -> None:
        pass


def main(args: list[str]) -> int:
    out = Path(args[0]) if args else ROOT / "src" / "ubcode" / "gf65536.bin"
    exp, log = _Untabled(1 << 16)._walk()
    data = struct.pack(f"<{len(exp) + len(log)}H", *exp, *log)
    out.write_bytes(data)
    print(f"{out}: {len(data)} bytes, CRC-32 {zlib.crc32(data):#010x}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
